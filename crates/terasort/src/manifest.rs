//! Checkpointed run manifests: crash recovery for the out-of-core path.
//!
//! The pipeline's natural checkpoint boundaries are the ones GPUTeraSort's
//! phase split defines: *after run formation* (every run is sorted and on
//! disk) and *after the merge* (the output is complete). This module
//! persists a [`Manifest`] at each boundary — run file names, record
//! counts, key ranges and CRC-32 checksums — together with the run/output
//! records themselves, so [`TeraSorter::sort_durable`] can resume at the
//! last completed level instead of re-sorting from scratch (the
//! [`SimulatedDisk`](crate::disk::SimulatedDisk) is in-memory, so the
//! checkpoint directory is the *only* thing that survives a process
//! crash).
//!
//! [`TeraSorter::sort_durable`]: crate::pipeline::TeraSorter::sort_durable
//!
//! ## On-disk layout
//!
//! The checkpoint directory holds one data file per run (`run-0000.dat`,
//! …), the merged output (`output.dat`) once it exists, and the manifest
//! itself. Data files are raw little-endian records, 18 bytes each
//! (10 key bytes + u64 payload handle). The manifest is a line-based text
//! file, written atomically (temp file + rename) and self-checksummed:
//!
//! ```text
//! terasort-manifest v1
//! stage runs|merged
//! records <total>
//! run <file> <records> <key-lo hex20> <key-hi hex20> <crc32 hex8>
//! ...
//! output <file> <records> <key-lo hex20> <key-hi hex20> <crc32 hex8>
//! checksum <crc32 hex8 of every preceding byte>
//! ```
//!
//! A crash mid-checkpoint leaves either the previous manifest (the rename
//! never happened — recovery redoes the interrupted level) or the new one
//! (it did — recovery skips the level). A manifest whose self-checksum or
//! whose data-file checksums do not verify is surfaced as a typed
//! [`ManifestError::Corrupt`], never silently replayed — the same
//! contract as the service WAL (`docs/DURABILITY.md`).

use crate::record::{WideRecord, KEY_BYTES};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod fault;

/// File name of the manifest inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Temp name the atomic manifest write goes through.
pub const MANIFEST_TEMP: &str = "MANIFEST.tmp";

/// Bytes per record in a checkpoint data file (10 key bytes + u64
/// payload handle, little-endian).
pub const DATA_RECORD_LEN: usize = KEY_BYTES + 8;

const HEADER_LINE: &str = "terasort-manifest v1";

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

// IEEE CRC-32 (reflected polynomial `0xEDB8_8320`), hand-rolled because
// the build has no crates.io access. This is the workspace's only copy:
// the service WAL (`sortsvc::wal`) checksums its records with it too,
// since sortsvc depends on terasort. Slice-by-16 — 16 input bytes per
// iteration through 16 precomputed tables, where table `t` maps a byte to
// its CRC contribution from `t` positions further back — because this
// CRC runs over entire run files (megabytes per checkpoint) and over
// every WAL append, where the byte-at-a-time loop (table 0 alone) would
// be a measurable fraction of the sort and of the durability budget, and
// where it is most of a WAL record's encode time.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// IEEE CRC-32 of `bytes` — the checksum in manifest lines, over data
/// files, and in every `sortsvc` WAL record header.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let x = u128::from_le_bytes(chunk.try_into().expect("16-byte chunk")) ^ u128::from(c);
        c = (0..16).fold(0, |acc, k| {
            acc ^ CRC_TABLES[15 - k][(x >> (8 * k)) as u8 as usize]
        });
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failure of a checkpoint operation.
#[derive(Debug)]
pub enum ManifestError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The manifest or a data file failed verification (bad self-checksum,
    /// bad data CRC, malformed line, missing file).
    Corrupt {
        /// What failed to verify.
        reason: String,
    },
    /// An armed [`fault::FaultPlan`] fired — the simulated crash used by
    /// the recovery tests.
    Injected(fault::FaultPoint),
    /// The underlying sort itself failed (run formation / in-core sort).
    Sort(stream_arch::StreamError),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            ManifestError::Corrupt { reason } => write!(f, "checkpoint corrupt: {reason}"),
            ManifestError::Injected(point) => {
                write!(f, "injected crash fault at {}", point.name())
            }
            ManifestError::Sort(e) => write!(f, "sort failed: {e}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<io::Error> for ManifestError {
    fn from(e: io::Error) -> Self {
        ManifestError::Io(e)
    }
}

impl From<stream_arch::StreamError> for ManifestError {
    fn from(e: stream_arch::StreamError) -> Self {
        ManifestError::Sort(e)
    }
}

fn corrupt(reason: impl Into<String>) -> ManifestError {
    ManifestError::Corrupt {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Manifest structure
// ---------------------------------------------------------------------------

/// Which pipeline level the checkpoint completes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Run formation is done: every run is sorted and checkpointed.
    Runs,
    /// The merge is done: the output file is checkpointed.
    Merged,
}

impl Stage {
    fn name(&self) -> &'static str {
        match self {
            Stage::Runs => "runs",
            Stage::Merged => "merged",
        }
    }
}

/// One checkpointed data file: a sorted run, or the merged output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunEntry {
    /// File name, relative to the checkpoint directory.
    pub file: String,
    /// Records in the file.
    pub records: usize,
    /// First (lowest) key in the file; zeros when empty.
    pub key_lo: [u8; KEY_BYTES],
    /// Last (highest) key in the file; zeros when empty.
    pub key_hi: [u8; KEY_BYTES],
    /// CRC-32 over the file's raw bytes.
    pub crc: u32,
}

/// A parsed (or about-to-be-written) checkpoint manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// The last *completed* pipeline level.
    pub stage: Stage,
    /// Total records in the input table.
    pub records: usize,
    /// The checkpointed runs, in formation order.
    pub runs: Vec<RunEntry>,
    /// The checkpointed merge output, once [`Stage::Merged`].
    pub output: Option<RunEntry>,
}

fn hex_key(key: &[u8; KEY_BYTES]) -> String {
    key.iter().map(|b| format!("{b:02x}")).collect()
}

fn parse_key(hex: &str) -> Result<[u8; KEY_BYTES], ManifestError> {
    if hex.len() != KEY_BYTES * 2 {
        return Err(corrupt(format!("key hex length {}", hex.len())));
    }
    let mut key = [0u8; KEY_BYTES];
    for (i, byte) in key.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16)
            .map_err(|_| corrupt(format!("bad key hex {hex:?}")))?;
    }
    Ok(key)
}

fn parse_entry(line: &str, kind: &str) -> Result<RunEntry, ManifestError> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() != 5 {
        return Err(corrupt(format!(
            "{kind} line needs 5 fields, got {}",
            fields.len()
        )));
    }
    Ok(RunEntry {
        file: fields[0].to_string(),
        records: fields[1]
            .parse()
            .map_err(|_| corrupt(format!("bad record count {:?}", fields[1])))?,
        key_lo: parse_key(fields[2])?,
        key_hi: parse_key(fields[3])?,
        crc: u32::from_str_radix(fields[4], 16)
            .map_err(|_| corrupt(format!("bad crc {:?}", fields[4])))?,
    })
}

impl Manifest {
    /// Serialize to the self-checksummed text format.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER_LINE);
        out.push('\n');
        out.push_str(&format!("stage {}\n", self.stage.name()));
        out.push_str(&format!("records {}\n", self.records));
        for entry in &self.runs {
            out.push_str(&format!(
                "run {} {} {} {} {:08x}\n",
                entry.file,
                entry.records,
                hex_key(&entry.key_lo),
                hex_key(&entry.key_hi),
                entry.crc
            ));
        }
        if let Some(entry) = &self.output {
            out.push_str(&format!(
                "output {} {} {} {} {:08x}\n",
                entry.file,
                entry.records,
                hex_key(&entry.key_lo),
                hex_key(&entry.key_hi),
                entry.crc
            ));
        }
        out.push_str(&format!("checksum {:08x}\n", crc32(out.as_bytes())));
        out
    }

    /// Parse and verify the text format (the inverse of
    /// [`Manifest::encode`]). The self-checksum must match and the
    /// structure must be coherent (a `merged` stage needs an `output`
    /// line).
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let body_end = text
            .rfind("checksum ")
            .ok_or_else(|| corrupt("missing checksum line"))?;
        // The tail must be exactly `checksum <8 hex>\n` — anything looser
        // would let a flip in the trailer itself go unnoticed.
        let claimed = text[body_end..]
            .strip_prefix("checksum ")
            .and_then(|rest| rest.strip_suffix('\n'))
            .filter(|h| h.len() == 8 && !h.contains(|c: char| c.is_whitespace()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| corrupt("malformed checksum line"))?;
        let actual = crc32(&text.as_bytes()[..body_end]);
        if claimed != actual {
            return Err(corrupt(format!(
                "self-checksum mismatch ({claimed:08x} recorded, {actual:08x} computed)"
            )));
        }

        let mut lines = text[..body_end].lines();
        if lines.next() != Some(HEADER_LINE) {
            return Err(corrupt("bad header line"));
        }
        let stage = match lines
            .next()
            .and_then(|l| l.strip_prefix("stage "))
            .ok_or_else(|| corrupt("missing stage line"))?
        {
            "runs" => Stage::Runs,
            "merged" => Stage::Merged,
            other => return Err(corrupt(format!("unknown stage {other:?}"))),
        };
        let records = lines
            .next()
            .and_then(|l| l.strip_prefix("records "))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| corrupt("missing records line"))?;

        let mut runs = Vec::new();
        let mut output = None;
        for line in lines {
            if let Some(rest) = line.strip_prefix("run ") {
                if output.is_some() {
                    return Err(corrupt("run line after output line"));
                }
                runs.push(parse_entry(rest, "run")?);
            } else if let Some(rest) = line.strip_prefix("output ") {
                if output.is_some() {
                    return Err(corrupt("duplicate output line"));
                }
                output = Some(parse_entry(rest, "output")?);
            } else {
                return Err(corrupt(format!("unknown line {line:?}")));
            }
        }
        if stage == Stage::Merged && output.is_none() {
            return Err(corrupt("merged stage without an output line"));
        }
        Ok(Manifest {
            stage,
            records,
            runs,
            output,
        })
    }

    /// Atomically persist into `dir` (temp file + fsync + rename). A
    /// crash anywhere in here leaves either the previous manifest or this
    /// one — never a torn mix.
    pub fn save(&self, dir: &Path) -> Result<(), ManifestError> {
        let temp = dir.join(MANIFEST_TEMP);
        let bytes = self.encode().into_bytes();
        if fault::fire(fault::FaultPoint::TempWrite) {
            // A torn temp-file write: half the bytes, then the "crash".
            // Harmless by construction — the rename never happens.
            fs::write(&temp, &bytes[..bytes.len() / 2])?;
            return Err(ManifestError::Injected(fault::FaultPoint::TempWrite));
        }
        fs::write(&temp, &bytes)?;
        fs::File::open(&temp)?.sync_all()?;
        if fault::fire(fault::FaultPoint::Rename) {
            // Crash after the temp file is durable but before it becomes
            // the manifest: recovery still sees the previous level.
            return Err(ManifestError::Injected(fault::FaultPoint::Rename));
        }
        fs::rename(&temp, dir.join(MANIFEST_FILE))?;
        // Make the rename itself durable (directory metadata).
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Load and verify the manifest from `dir`. `Ok(None)` when no
    /// checkpoint exists yet; [`ManifestError::Corrupt`] when one exists
    /// but does not verify.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, ManifestError> {
        let path = dir.join(MANIFEST_FILE);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Manifest::parse(&text).map(Some)
    }
}

// ---------------------------------------------------------------------------
// Data files
// ---------------------------------------------------------------------------

/// Checkpoint `records` into `dir/file` (raw 18-byte records) and return
/// its verified [`RunEntry`]. Sorted inputs yield a tight key range; the
/// caller is expected to pass runs/outputs, which are sorted.
pub fn write_records(
    dir: &Path,
    file: &str,
    records: &[WideRecord],
) -> Result<RunEntry, ManifestError> {
    let mut bytes = Vec::with_capacity(records.len() * DATA_RECORD_LEN);
    for r in records {
        bytes.extend_from_slice(&r.key);
        bytes.extend_from_slice(&r.payload.to_le_bytes());
    }
    let path = dir.join(file);
    if fault::fire(fault::FaultPoint::RunData) {
        // Torn data write. The manifest referencing this file has not
        // been written yet, so recovery never trusts the partial file.
        fs::write(&path, &bytes[..bytes.len() / 2])?;
        return Err(ManifestError::Injected(fault::FaultPoint::RunData));
    }
    fs::write(&path, &bytes)?;
    fs::File::open(&path)?.sync_all()?;
    let (key_lo, key_hi) = match (records.first(), records.last()) {
        (Some(first), Some(last)) => (first.key, last.key),
        _ => ([0u8; KEY_BYTES], [0u8; KEY_BYTES]),
    };
    Ok(RunEntry {
        file: file.to_string(),
        records: records.len(),
        key_lo,
        key_hi,
        crc: crc32(&bytes),
    })
}

/// Read and verify the data file `entry` describes (length, CRC). Any
/// mismatch is [`ManifestError::Corrupt`] — a checkpoint is never
/// partially trusted.
pub fn read_records(dir: &Path, entry: &RunEntry) -> Result<Vec<WideRecord>, ManifestError> {
    let path: PathBuf = dir.join(&entry.file);
    let bytes = fs::read(&path)
        .map_err(|e| corrupt(format!("data file {} unreadable: {e}", entry.file)))?;
    if bytes.len() != entry.records * DATA_RECORD_LEN {
        return Err(corrupt(format!(
            "data file {}: {} bytes, expected {}",
            entry.file,
            bytes.len(),
            entry.records * DATA_RECORD_LEN
        )));
    }
    if crc32(&bytes) != entry.crc {
        return Err(corrupt(format!(
            "data file {}: checksum mismatch",
            entry.file
        )));
    }
    Ok(bytes
        .chunks_exact(DATA_RECORD_LEN)
        .map(|c| {
            let mut key = [0u8; KEY_BYTES];
            key.copy_from_slice(&c[..KEY_BYTES]);
            let payload = u64::from_le_bytes(c[KEY_BYTES..].try_into().expect("8 bytes"));
            WideRecord::new(key, payload)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "terasort-manifest-{tag}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.0).ok();
        }
    }

    fn sample_manifest() -> Manifest {
        Manifest {
            stage: Stage::Runs,
            records: 100,
            runs: vec![
                RunEntry {
                    file: "run-0000.dat".into(),
                    records: 60,
                    key_lo: [1; KEY_BYTES],
                    key_hi: [9; KEY_BYTES],
                    crc: 0xDEAD_BEEF,
                },
                RunEntry {
                    file: "run-0001.dat".into(),
                    records: 40,
                    key_lo: [0; KEY_BYTES],
                    key_hi: [0xFF; KEY_BYTES],
                    crc: 7,
                },
            ],
            output: None,
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 check: crc32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn manifest_text_round_trips() {
        let m = sample_manifest();
        assert_eq!(Manifest::parse(&m.encode()).unwrap(), m);

        let merged = Manifest {
            stage: Stage::Merged,
            output: Some(RunEntry {
                file: "output.dat".into(),
                records: 100,
                key_lo: [0; KEY_BYTES],
                key_hi: [0xFF; KEY_BYTES],
                crc: 42,
            }),
            ..m
        };
        assert_eq!(Manifest::parse(&merged.encode()).unwrap(), merged);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let text = sample_manifest().encode();
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 0x01;
            // Flipping may break UTF-8; both paths must reject, never
            // accept a modified manifest.
            if let Ok(s) = std::str::from_utf8(&flipped) {
                assert!(Manifest::parse(s).is_err(), "byte {i} flip went undetected");
            }
        }
    }

    #[test]
    fn merged_stage_requires_an_output_line() {
        let mut m = sample_manifest();
        m.stage = Stage::Merged;
        // Encode claims merged but carries no output entry; parse must
        // reject the structure even though the checksum matches.
        assert!(matches!(
            Manifest::parse(&m.encode()),
            Err(ManifestError::Corrupt { .. })
        ));
    }

    #[test]
    fn save_load_round_trips_and_missing_is_none() {
        let tmp = TempDir::new("saveload");
        assert!(Manifest::load(tmp.path()).unwrap().is_none());
        let m = sample_manifest();
        m.save(tmp.path()).unwrap();
        assert_eq!(Manifest::load(tmp.path()).unwrap(), Some(m.clone()));
        // Overwrite with a newer level; load sees the newest.
        let merged = Manifest {
            stage: Stage::Merged,
            output: Some(m.runs[0].clone()),
            ..m
        };
        merged.save(tmp.path()).unwrap();
        assert_eq!(Manifest::load(tmp.path()).unwrap(), Some(merged));
    }

    #[test]
    fn data_files_round_trip_and_verify() {
        let tmp = TempDir::new("data");
        let records = record::generate(500, 3);
        let entry = write_records(tmp.path(), "run-0000.dat", &records).unwrap();
        assert_eq!(entry.records, 500);
        assert_eq!(read_records(tmp.path(), &entry).unwrap(), records);

        // Truncation and bit flips are both typed corruption.
        let path = tmp.path().join(&entry.file);
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 1);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_records(tmp.path(), &entry),
            Err(ManifestError::Corrupt { .. })
        ));

        let records2 = record::generate(500, 3);
        let entry2 = write_records(tmp.path(), "run-0001.dat", &records2).unwrap();
        let path2 = tmp.path().join(&entry2.file);
        let mut bytes2 = fs::read(&path2).unwrap();
        bytes2[100] ^= 0xFF;
        fs::write(&path2, &bytes2).unwrap();
        assert!(matches!(
            read_records(tmp.path(), &entry2),
            Err(ManifestError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_record_sets_checkpoint_cleanly() {
        let tmp = TempDir::new("empty");
        let entry = write_records(tmp.path(), "output.dat", &[]).unwrap();
        assert_eq!(entry.records, 0);
        assert_eq!(entry.key_lo, [0u8; KEY_BYTES]);
        assert_eq!(read_records(tmp.path(), &entry).unwrap(), Vec::new());
    }
}
