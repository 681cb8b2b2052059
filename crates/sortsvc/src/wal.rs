//! # `sortsvc::wal` — append-only, checksummed write-ahead job log
//!
//! The service's admission queue, tenant queues and coalescer batches are
//! purely in-memory: a crash loses every queued and in-flight job. This
//! module makes admission durable. Every admitted job is appended to an
//! on-disk log *before* it is enqueued, and every delivered outcome
//! (result or typed reject) is appended *after* the reply is sent, so a
//! restarted server can replay exactly the jobs that were admitted but
//! never answered.
//!
//! The record format deliberately reuses the codec discipline of
//! [`crate::net::frame`]: magic bytes, an explicit version, a strict-zero
//! reserved word, a length prefix — plus one thing frames do not need, a
//! CRC-32 over the payload, because a log tail (unlike a TCP stream) can
//! be torn mid-record by a crash. The checksum is the workspace's one
//! slice-by-8 implementation, [`terasort::manifest::crc32`], which the
//! terasort checkpoint manifests use too. Each record is
//!
//! ```text
//! offset  size  field
//!      0     4  magic "ABWL"
//!      4     1  version (1)
//!      5     1  record type (1 = ADMITTED, 2 = COMPLETED, 3 = REJECTED)
//!      6     2  reserved, must be zero (u16 LE)
//!      8     4  payload length (u32 LE)
//!     12     4  CRC-32 (IEEE) of the payload (u32 LE)
//!     16     —  payload
//! ```
//!
//! The log is a directory of segments `wal-00000000.log`,
//! `wal-00000001.log`, … — appends go to the highest-numbered segment and
//! roll over at [`WalConfig::segment_max_bytes`]. Because acknowledgements
//! are appended after their admissions, a prefix of sealed segments whose
//! admitted jobs have all been acknowledged carries no recoverable state
//! and is deleted (compaction). Recovery tolerates the acknowledgement
//! records such a deletion strands in later segments: an ack for an
//! unknown job id is skipped, never an error.
//!
//! Crash consistency (see `docs/DURABILITY.md` for the full state
//! machine): on [`Wal::open`], every segment is scanned in order and
//! verified record by record. A parse failure in the *last* segment is a
//! torn tail — the file is physically truncated at the failure offset and
//! the prefix before it is replayed. A parse failure in any earlier
//! segment is real corruption and surfaces as a typed
//! [`WalError::Corrupt`]; nothing is ever replayed from a record whose
//! checksum does not match.
//!
//! ```
//! use sortsvc::wal::{AdmittedJob, Wal, WalConfig};
//!
//! let dir = std::env::temp_dir().join(format!("wal-doc-{}", std::process::id()));
//! let mut wal = Wal::open(&dir, WalConfig::default())?.wal;
//! wal.append_admitted(&AdmittedJob {
//!     job_id: 1,
//!     tenant: 0,
//!     arrival_ms: 0.0,
//!     hint: None,
//!     values: workloads::uniform(16, 7),
//! })?;
//! drop(wal);
//!
//! // A reopen replays the admitted-but-unacknowledged job.
//! let recovery = Wal::open(&dir, WalConfig::default())?;
//! assert_eq!(recovery.pending.len(), 1);
//! assert_eq!(recovery.stats.recovered_jobs, 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), sortsvc::wal::WalError>(())
//! ```

use crate::job::{JobId, RejectReason, TenantId};
use crate::net::frame::{decode_values, encode_values, RAW_RECORD_LEN};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::path::{Path, PathBuf};
use stream_arch::Value;
use terasort::manifest::crc32;
use workloads::Distribution;

pub mod fault;

/// Magic bytes opening every WAL record.
pub const WAL_MAGIC: [u8; 4] = *b"ABWL";

/// Version byte of the record format this module writes and accepts.
pub const WAL_VERSION: u8 = 1;

/// Fixed size of the record header preceding every payload.
pub const RECORD_HEADER_LEN: usize = 16;

/// Upper bound on a record payload (matches the frame layer's default
/// frame cap); a length prefix beyond this is treated as corruption.
pub const MAX_PAYLOAD_LEN: usize = 64 << 20;

const TYPE_ADMITTED: u8 = 1;
const TYPE_COMPLETED: u8 = 2;
const TYPE_REJECTED: u8 = 3;

const REASON_QUEUE_FULL: u8 = 1;
const REASON_MEMORY_PRESSURE: u8 = 2;

/// Fixed prefix of an `ADMITTED` payload before the hint name and values:
/// job id (8) + tenant (4) + arrival-time bits (8) + hint length (1). The
/// values follow in the wire's `RAW_LE` record encoding
/// ([`encode_values`]).
const ADMIT_PREFIX_LEN: usize = 21;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A job admission as recorded in — and recovered from — the log: the
/// full input needed to re-run the job after a crash.
#[derive(Clone, Debug, PartialEq)]
pub struct AdmittedJob {
    /// Log-wide unique id of the admission (the server assigns these from
    /// a global counter; wire echo ids are only per-connection unique).
    pub job_id: JobId,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Simulated arrival time of the job in milliseconds.
    pub arrival_ms: f64,
    /// Optional distribution hint, persisted by its stable
    /// [`Distribution::name`] and re-parsed on replay.
    pub hint: Option<Distribution>,
    /// The records to sort.
    pub values: Vec<Value>,
}

/// One event in the log.
#[derive(Clone, Debug, PartialEq)]
pub enum WalEvent {
    /// A job passed admission and is about to be enqueued.
    Admitted(AdmittedJob),
    /// The job's result was delivered to the client.
    Completed {
        /// The acknowledged job's log-wide id.
        job_id: JobId,
    },
    /// The job was turned away with a typed reject after admission (the
    /// service-level backpressure path; wire-level rejects never reach
    /// the log because nothing was admitted).
    Rejected {
        /// The rejected job's log-wide id.
        job_id: JobId,
        /// Why the service rejected it.
        reason: RejectReason,
    },
}

impl WalEvent {
    /// The log-wide job id the event is about.
    pub fn job_id(&self) -> JobId {
        match self {
            WalEvent::Admitted(job) => job.job_id,
            WalEvent::Completed { job_id } | WalEvent::Rejected { job_id, .. } => *job_id,
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failure of a WAL operation.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A record in a *sealed* (non-last) segment failed verification.
    /// Unlike a torn tail this cannot be explained by a crash mid-append,
    /// so it is surfaced instead of silently truncated.
    Corrupt {
        /// Index of the corrupt segment.
        segment: u64,
        /// Byte offset of the first bad record within the segment.
        offset: u64,
        /// Human-readable description of the verification failure.
        reason: String,
    },
    /// An armed [`fault::FaultPlan`] fired in [`fault::FaultMode::Stop`]
    /// mode — the in-process simulated crash used by the recovery tests.
    Injected(fault::FaultPoint),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal I/O error: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "wal segment {segment} corrupt at offset {offset}: {reason}"
            ),
            WalError::Injected(point) => write!(f, "injected crash fault at {}", point.name()),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// When the log file is fsynced.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append. Power-loss durable per record; far too
    /// slow for the hot path (a device sync per job).
    Always,
    /// fsync when a segment seals at rotation, on [`Wal::sync`] (the
    /// server calls it on graceful drain), and after a torn-tail
    /// truncation. Appends between those points survive a process crash
    /// (`kill -9` — the page cache is the kernel's) but not a power
    /// loss. The default, and what keeps WAL overhead inside the E23
    /// budget.
    OnRotate,
}

/// Configuration of a [`Wal`].
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Rotate to a new segment once the current one would exceed this
    /// many bytes (default 4 MiB).
    pub segment_max_bytes: u64,
    /// The fsync policy (default [`FsyncPolicy::OnRotate`]).
    pub fsync: FsyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_max_bytes: 4 << 20,
            fsync: FsyncPolicy::OnRotate,
        }
    }
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

/// Encode one event as a complete record (header + payload).
pub fn encode_event(event: &WalEvent) -> Vec<u8> {
    let mut out = Vec::new();
    encode_event_into(&mut out, event);
    out
}

/// Encode one event as a complete record into `out` (cleared first). The
/// append path reuses one scratch buffer through this, so a hot append
/// touches the payload bytes exactly once (encode) plus the checksum pass
/// — no per-record allocation, no intermediate payload copy.
pub fn encode_event_into(out: &mut Vec<u8>, event: &WalEvent) {
    match event {
        WalEvent::Admitted(job) => encode_admitted_into(out, job),
        WalEvent::Completed { job_id } => encode_record_into(out, TYPE_COMPLETED, |out| {
            out.extend_from_slice(&job_id.to_le_bytes())
        }),
        WalEvent::Rejected { job_id, reason } => encode_record_into(out, TYPE_REJECTED, |out| {
            out.extend_from_slice(&job_id.to_le_bytes());
            out.push(match reason {
                RejectReason::QueueFull => REASON_QUEUE_FULL,
                RejectReason::MemoryPressure => REASON_MEMORY_PRESSURE,
            });
        }),
    }
}

/// Encode an ADMITTED record straight from the borrowed job.
fn encode_admitted_into(out: &mut Vec<u8>, job: &AdmittedJob) {
    encode_record_into(out, TYPE_ADMITTED, |out| {
        let hint_name = job.hint.as_ref().map(|h| h.name()).unwrap_or_default();
        debug_assert!(hint_name.len() <= u8::MAX as usize);
        out.reserve(ADMIT_PREFIX_LEN + hint_name.len() + job.values.len() * RAW_RECORD_LEN);
        out.extend_from_slice(&job.job_id.to_le_bytes());
        out.extend_from_slice(&job.tenant.to_le_bytes());
        out.extend_from_slice(&job.arrival_ms.to_bits().to_le_bytes());
        out.push(hint_name.len() as u8);
        out.extend_from_slice(hint_name.as_bytes());
        encode_values(&job.values, out);
    })
}

/// Frame the payload `encode_payload` appends as one record of `kind` in
/// `out` (cleared first): header, payload, then the patched-in payload
/// length and CRC.
fn encode_record_into(out: &mut Vec<u8>, kind: u8, encode_payload: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.extend_from_slice(&WAL_MAGIC);
    out.push(WAL_VERSION);
    out.push(kind);
    out.extend_from_slice(&0u16.to_le_bytes());
    // Payload length and CRC are patched in once the payload is encoded.
    out.extend_from_slice(&[0u8; 8]);
    encode_payload(out);
    let payload_len = (out.len() - RECORD_HEADER_LEN) as u32;
    out[8..12].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&out[RECORD_HEADER_LEN..]);
    out[12..16].copy_from_slice(&crc.to_le_bytes());
}

/// Parse the record at the start of `bytes`. Returns the event and the
/// total record length, or a description of why the bytes are not a valid
/// record (the caller decides whether that means a torn tail or real
/// corruption).
fn parse_record(bytes: &[u8]) -> Result<(WalEvent, usize), String> {
    if bytes.len() < RECORD_HEADER_LEN {
        return Err(format!(
            "truncated header ({} of {RECORD_HEADER_LEN} bytes)",
            bytes.len()
        ));
    }
    if bytes[0..4] != WAL_MAGIC {
        return Err(format!("bad magic {:02x?}", &bytes[0..4]));
    }
    if bytes[4] != WAL_VERSION {
        return Err(format!("unsupported version {}", bytes[4]));
    }
    let kind = bytes[5];
    let reserved = u16::from_le_bytes([bytes[6], bytes[7]]);
    if reserved != 0 {
        return Err(format!("non-zero reserved word {reserved:#06x}"));
    }
    let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(format!("payload length {len} exceeds {MAX_PAYLOAD_LEN}"));
    }
    if bytes.len() - RECORD_HEADER_LEN < len {
        return Err(format!(
            "truncated payload ({} of {len} bytes)",
            bytes.len() - RECORD_HEADER_LEN
        ));
    }
    let crc = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    let payload = &bytes[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
    if crc32(payload) != crc {
        return Err("payload checksum mismatch".into());
    }
    let event = decode_payload(kind, payload)?;
    Ok((event, RECORD_HEADER_LEN + len))
}

/// Decode a checksum-verified payload.
fn decode_payload(kind: u8, payload: &[u8]) -> Result<WalEvent, String> {
    let le_u64 = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte slice"));
    match kind {
        TYPE_ADMITTED => {
            if payload.len() < ADMIT_PREFIX_LEN {
                return Err(format!(
                    "ADMITTED payload too short ({} bytes)",
                    payload.len()
                ));
            }
            let job_id = le_u64(&payload[0..8]);
            let tenant = u32::from_le_bytes(payload[8..12].try_into().expect("4-byte slice"));
            let arrival_ms = f64::from_bits(le_u64(&payload[12..20]));
            let hint_len = payload[20] as usize;
            if payload.len() < ADMIT_PREFIX_LEN + hint_len {
                return Err(format!(
                    "hint name truncated ({} of {hint_len} bytes)",
                    payload.len() - ADMIT_PREFIX_LEN
                ));
            }
            let hint = if hint_len == 0 {
                None
            } else {
                let name =
                    std::str::from_utf8(&payload[ADMIT_PREFIX_LEN..ADMIT_PREFIX_LEN + hint_len])
                        .map_err(|_| "hint name is not UTF-8".to_string())?;
                Some(
                    name.parse::<Distribution>()
                        .map_err(|e| format!("unknown hint {name:?}: {e}"))?,
                )
            };
            let values = decode_values(&payload[ADMIT_PREFIX_LEN + hint_len..])
                .map_err(|e| e.to_string())?;
            Ok(WalEvent::Admitted(AdmittedJob {
                job_id,
                tenant,
                arrival_ms,
                hint,
                values,
            }))
        }
        TYPE_COMPLETED => {
            if payload.len() != 8 {
                return Err(format!(
                    "COMPLETED payload must be 8 bytes, got {}",
                    payload.len()
                ));
            }
            Ok(WalEvent::Completed {
                job_id: le_u64(payload),
            })
        }
        TYPE_REJECTED => {
            if payload.len() != 9 {
                return Err(format!(
                    "REJECTED payload must be 9 bytes, got {}",
                    payload.len()
                ));
            }
            let reason = match payload[8] {
                REASON_QUEUE_FULL => RejectReason::QueueFull,
                REASON_MEMORY_PRESSURE => RejectReason::MemoryPressure,
                other => return Err(format!("unknown reject reason {other}")),
            };
            Ok(WalEvent::Rejected {
                job_id: le_u64(&payload[0..8]),
                reason,
            })
        }
        other => Err(format!("unknown record type {other}")),
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Counters describing what a [`Wal::open`] replay found.
/// [`SortService::recover`](crate::SortService::recover) records them
/// once into its report's [`MetricsTally`](crate::metrics::MetricsTally),
/// which the server merges into its `STATS` aggregate; they surface as
/// the `recovered_jobs` / `replayed_bytes` / `torn_tail_truncated` fields
/// of [`crate::ServiceMetrics`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Jobs that were admitted but never acknowledged — the jobs the
    /// caller must re-run.
    pub recovered_jobs: u64,
    /// Total bytes of valid records replayed across all segments.
    pub replayed_bytes: u64,
    /// Bytes physically truncated from the last segment's torn tail
    /// (zero after a clean shutdown).
    pub torn_tail_truncated: u64,
    /// Segment files scanned.
    pub segments_scanned: u64,
}

/// What [`Wal::open`] returns: the live log (positioned to append after
/// the last valid record) plus everything the replay recovered.
pub struct Recovery {
    /// The opened log, ready for appends.
    pub wal: Wal,
    /// Admitted-but-unacknowledged jobs, in admission (log) order.
    pub pending: Vec<AdmittedJob>,
    /// Replay counters.
    pub stats: RecoveryStats,
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// The append-only job log. See the module docs for the format and the
/// crash-consistency contract.
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    file: File,
    /// Index of the segment currently receiving appends.
    segment: u64,
    /// Bytes already in the current segment.
    segment_bytes: u64,
    /// Indices of every segment file on disk (including the current one).
    segments: BTreeSet<u64>,
    /// Unacknowledged admitted jobs, grouped by admitting segment —
    /// drives prefix compaction.
    open_jobs: BTreeMap<u64, HashSet<JobId>>,
    /// Admitting segment of each open job.
    job_segment: HashMap<JobId, u64>,
    /// Sealed segments deleted by compaction over this log's lifetime.
    compacted_segments: u64,
    /// Reusable record-encoding buffer (see [`encode_event_into`]).
    scratch: Vec<u8>,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:08}.log"))
}

impl Wal {
    /// Open (creating if necessary) the log in `dir`, replay every
    /// segment, truncate a torn tail, and return the live log plus the
    /// recovered state. Replay is idempotent: running it twice without
    /// intervening appends yields the same pending set.
    pub fn open(dir: impl AsRef<Path>, config: WalConfig) -> Result<Recovery, WalError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        let mut segments = BTreeSet::new();
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(index) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                segments.insert(index);
            }
        }

        let mut stats = RecoveryStats::default();
        // Pending admissions in log order; acknowledged entries become
        // tombstones so the survivors keep their admission order.
        let mut pending: Vec<Option<AdmittedJob>> = Vec::new();
        let mut index_of: HashMap<JobId, (usize, u64)> = HashMap::new();

        let indices: Vec<u64> = segments.iter().copied().collect();
        for (i, &index) in indices.iter().enumerate() {
            let path = segment_path(&dir, index);
            let bytes = fs::read(&path)?;
            stats.segments_scanned += 1;
            let is_last = i + 1 == indices.len();

            let mut offset = 0usize;
            while offset < bytes.len() {
                match parse_record(&bytes[offset..]) {
                    Ok((event, record_len)) => {
                        stats.replayed_bytes += record_len as u64;
                        match event {
                            WalEvent::Admitted(job) => {
                                let slot = pending.len();
                                index_of.insert(job.job_id, (slot, index));
                                pending.push(Some(job));
                            }
                            WalEvent::Completed { job_id } | WalEvent::Rejected { job_id, .. } => {
                                // An ack whose admission lives in a
                                // compacted (deleted) segment is simply
                                // unknown here — skip it.
                                if let Some((slot, _)) = index_of.remove(&job_id) {
                                    pending[slot] = None;
                                }
                            }
                        }
                        offset += record_len;
                    }
                    Err(reason) => {
                        if is_last {
                            let file = OpenOptions::new().write(true).open(&path)?;
                            file.set_len(offset as u64)?;
                            file.sync_all()?;
                            stats.torn_tail_truncated += (bytes.len() - offset) as u64;
                            break;
                        }
                        return Err(WalError::Corrupt {
                            segment: index,
                            offset: offset as u64,
                            reason,
                        });
                    }
                }
            }
        }

        let segment = indices.last().copied().unwrap_or(0);
        let path = segment_path(&dir, segment);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let segment_bytes = file.metadata()?.len();
        segments.insert(segment);

        let mut open_jobs: BTreeMap<u64, HashSet<JobId>> = BTreeMap::new();
        let mut job_segment = HashMap::new();
        for (&job_id, &(_, seg)) in &index_of {
            open_jobs.entry(seg).or_default().insert(job_id);
            job_segment.insert(job_id, seg);
        }

        let pending: Vec<AdmittedJob> = pending.into_iter().flatten().collect();
        stats.recovered_jobs = pending.len() as u64;

        Ok(Recovery {
            wal: Wal {
                dir,
                config,
                file,
                segment,
                segment_bytes,
                segments,
                open_jobs,
                job_segment,
                compacted_segments: 0,
                scratch: Vec::new(),
            },
            pending,
            stats,
        })
    }

    /// Directory the log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Sealed segments deleted by compaction since this log was opened.
    pub fn compacted_segments(&self) -> u64 {
        self.compacted_segments
    }

    /// Admitted jobs not yet acknowledged.
    pub fn open_jobs(&self) -> usize {
        self.job_segment.len()
    }

    /// Append an admission record. Call this *before* enqueueing the job,
    /// so a crash between the append and the enqueue replays the job
    /// instead of losing it.
    pub fn append_admitted(&mut self, job: &AdmittedJob) -> Result<(), WalError> {
        self.write_record(
            (fault::FaultPoint::AdmitPrefix, fault::FaultPoint::AdmitFull),
            |out| encode_admitted_into(out, job),
        )?;
        self.open_jobs
            .entry(self.segment)
            .or_default()
            .insert(job.job_id);
        self.job_segment.insert(job.job_id, self.segment);
        Ok(())
    }

    /// Append a completion record. Call this *after* the result was
    /// delivered; a crash between delivery and this append makes the job
    /// replay once more (at-least-once), never lose an acknowledged
    /// outcome's durability.
    pub fn append_completed(&mut self, job_id: JobId) -> Result<(), WalError> {
        self.append_ack(&WalEvent::Completed { job_id })
    }

    /// Append a service-level rejection record (the job will not be
    /// replayed).
    pub fn append_rejected(&mut self, job_id: JobId, reason: RejectReason) -> Result<(), WalError> {
        self.append_ack(&WalEvent::Rejected { job_id, reason })
    }

    /// fsync the current segment — a durability point under
    /// [`FsyncPolicy::OnRotate`] (the server calls this on graceful
    /// drain).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_all()?;
        Ok(())
    }

    /// Append a COMPLETED or REJECTED record, close its job and compact.
    fn append_ack(&mut self, event: &WalEvent) -> Result<(), WalError> {
        self.write_record(
            (fault::FaultPoint::AckPrefix, fault::FaultPoint::AckFull),
            |out| encode_event_into(out, event),
        )?;
        let job_id = event.job_id();
        if let Some(seg) = self.job_segment.remove(&job_id) {
            if let Some(set) = self.open_jobs.get_mut(&seg) {
                set.remove(&job_id);
                if set.is_empty() {
                    self.open_jobs.remove(&seg);
                }
            }
        }
        self.compact()
    }

    /// Encode one record with `encode` and write it to the current segment
    /// (rotating first if it would overflow), firing the `(prefix, full)`
    /// fault points around the write.
    fn write_record(
        &mut self,
        (prefix_point, full_point): (fault::FaultPoint, fault::FaultPoint),
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), WalError> {
        // Encode into the reusable scratch buffer (taken, not borrowed, so
        // `self` stays free for rotation and the write below). Error paths
        // leave an empty scratch behind — the next append just re-grows it.
        let mut bytes = std::mem::take(&mut self.scratch);
        encode(&mut bytes);
        if self.segment_bytes > 0
            && self.segment_bytes + bytes.len() as u64 > self.config.segment_max_bytes
        {
            self.rotate()?;
        }

        if let Some((mode, marker)) = fault::fire(prefix_point) {
            // A torn write: only a prefix of the record reaches the file.
            use std::io::Write;
            self.file.write_all(&bytes[..bytes.len() / 2])?;
            let _ = self.file.sync_all();
            return Err(fault::execute(prefix_point, mode, marker));
        }

        {
            use std::io::Write;
            self.file.write_all(&bytes)?;
        }
        if matches!(self.config.fsync, FsyncPolicy::Always) {
            self.file.sync_all()?;
        }
        if let Some((mode, marker)) = fault::fire(full_point) {
            // The record is fully on disk but the caller never learns of
            // it — the crash-after-write case.
            let _ = self.file.sync_all();
            return Err(fault::execute(full_point, mode, marker));
        }
        self.segment_bytes += bytes.len() as u64;
        self.scratch = bytes;
        Ok(())
    }

    /// Seal the current segment (fsync) and start the next one.
    fn rotate(&mut self) -> Result<(), WalError> {
        self.file.sync_all()?;
        self.segment += 1;
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, self.segment))?;
        self.segment_bytes = 0;
        self.segments.insert(self.segment);
        Ok(())
    }

    /// Delete the longest prefix of sealed segments in which every
    /// admitted job has been acknowledged. Acks recorded in *later*
    /// segments for jobs admitted in the deleted prefix become strays;
    /// recovery skips acks for unknown job ids, so this is safe.
    fn compact(&mut self) -> Result<(), WalError> {
        let floor = self
            .open_jobs
            .keys()
            .next()
            .copied()
            .unwrap_or(self.segment)
            .min(self.segment);
        let deletable: Vec<u64> = self.segments.range(..floor).copied().collect();
        for index in deletable {
            if let Some((mode, marker)) = fault::fire(fault::FaultPoint::CompactUnlink) {
                return Err(fault::execute(
                    fault::FaultPoint::CompactUnlink,
                    mode,
                    marker,
                ));
            }
            fs::remove_file(segment_path(&self.dir, index))?;
            self.segments.remove(&index);
            self.compacted_segments += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serializes every test that appends: the fault plan is process-wide,
    /// so an append in one test would count down or fire another test's
    /// armed plan.
    fn fault_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "sortsvc-wal-{tag}-{}-{}",
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

    fn job(id: JobId, n: usize) -> AdmittedJob {
        AdmittedJob {
            job_id: id,
            tenant: (id % 3) as TenantId,
            arrival_ms: id as f64 * 0.25,
            hint: match id % 3 {
                0 => None,
                1 => Some(Distribution::Uniform),
                _ => Some(Distribution::NearlySorted { swaps: 64 }),
            },
            values: workloads::uniform(n, id),
        }
    }

    #[test]
    fn events_round_trip_through_the_codec() {
        for event in [
            WalEvent::Admitted(job(7, 33)),
            WalEvent::Admitted(AdmittedJob {
                job_id: 1,
                tenant: 9,
                arrival_ms: -1.5,
                hint: Some(Distribution::FewDistinct { distinct: 5 }),
                values: Vec::new(),
            }),
            WalEvent::Completed { job_id: 42 },
            WalEvent::Rejected {
                job_id: 3,
                reason: RejectReason::MemoryPressure,
            },
        ] {
            let bytes = encode_event(&event);
            let (decoded, len) = parse_record(&bytes).expect("valid record");
            assert_eq!(decoded, event);
            assert_eq!(len, bytes.len());
        }
    }

    /// The on-disk bytes of one ADMITTED record, pinned: keys `-0.0`, a
    /// NaN with a payload and `+∞`, and the top id.
    #[test]
    fn admitted_record_bytes_are_pinned() {
        let event = WalEvent::Admitted(AdmittedJob {
            job_id: 0x0102_0304_0506_0708,
            tenant: 5,
            arrival_ms: 2.5,
            hint: Some(Distribution::Sorted),
            values: vec![
                Value::new(-0.0, 0),
                Value::new(f32::from_bits(0xFFC0_1234), 1),
                Value::new(f32::INFINITY, u32::MAX),
            ],
        });
        #[rustfmt::skip]
        let expected: &[u8] = &[
            0x41, 0x42, 0x57, 0x4c, 0x01, 0x01, 0x00, 0x00, // "ABWL", v1, ADMITTED, reserved
            0x33, 0x00, 0x00, 0x00, 0xcf, 0xbc, 0x73, 0xfa, // payload length 51, CRC-32
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // job id
            0x05, 0x00, 0x00, 0x00,                         // tenant
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40, // arrival 2.5 ms
            0x06, b's', b'o', b'r', b't', b'e', b'd',       // hint
            0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, // -0.0, id 0
            0x34, 0x12, 0xc0, 0xff, 0x01, 0x00, 0x00, 0x00, // NaN 0xffc01234, id 1
            0x00, 0x00, 0x80, 0x7f, 0xff, 0xff, 0xff, 0xff, // +inf, id u32::MAX
        ];
        let bytes = encode_event(&event);
        assert_eq!(bytes, expected);
        let (decoded, len) = parse_record(&bytes).expect("valid record");
        assert_eq!(decoded, event);
        assert_eq!(len, bytes.len());
    }

    #[test]
    fn reopen_replays_only_unacknowledged_admissions() {
        let _guard = fault_lock();
        let tmp = TempDir::new("replay");
        let mut wal = Wal::open(tmp.path(), WalConfig::default()).unwrap().wal;
        wal.append_admitted(&job(1, 8)).unwrap();
        wal.append_admitted(&job(2, 8)).unwrap();
        wal.append_admitted(&job(3, 8)).unwrap();
        wal.append_completed(1).unwrap();
        wal.append_rejected(3, RejectReason::QueueFull).unwrap();
        drop(wal);

        let recovery = Wal::open(tmp.path(), WalConfig::default()).unwrap();
        assert_eq!(recovery.pending.len(), 1);
        assert_eq!(recovery.pending[0], job(2, 8));
        assert_eq!(recovery.stats.recovered_jobs, 1);
        assert_eq!(recovery.stats.torn_tail_truncated, 0);
        assert!(recovery.stats.replayed_bytes > 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_never_replayed() {
        let _guard = fault_lock();
        let tmp = TempDir::new("torn");
        let mut wal = Wal::open(tmp.path(), WalConfig::default()).unwrap().wal;
        wal.append_admitted(&job(1, 16)).unwrap();
        wal.append_admitted(&job(2, 16)).unwrap();
        drop(wal);

        // Tear the tail: append half of a third record.
        let path = segment_path(tmp.path(), 0);
        let clean_len = fs::metadata(&path).unwrap().len();
        let torn = encode_event(&WalEvent::Admitted(job(3, 16)));
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        fs::write(&path, &bytes).unwrap();

        let recovery = Wal::open(tmp.path(), WalConfig::default()).unwrap();
        assert_eq!(recovery.pending.len(), 2);
        assert_eq!(recovery.stats.torn_tail_truncated, (torn.len() / 2) as u64);
        assert_eq!(fs::metadata(&path).unwrap().len(), clean_len);

        // A second open sees a clean log — truncation is physical.
        let again = Wal::open(tmp.path(), WalConfig::default()).unwrap();
        assert_eq!(again.pending.len(), 2);
        assert_eq!(again.stats.torn_tail_truncated, 0);
    }

    #[test]
    fn appends_continue_cleanly_after_a_torn_tail() {
        let _guard = fault_lock();
        let tmp = TempDir::new("resume");
        let mut wal = Wal::open(tmp.path(), WalConfig::default()).unwrap().wal;
        wal.append_admitted(&job(1, 8)).unwrap();
        drop(wal);
        let path = segment_path(tmp.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"garbage");
        fs::write(&path, &bytes).unwrap();

        let mut wal = Wal::open(tmp.path(), WalConfig::default()).unwrap().wal;
        wal.append_admitted(&job(2, 8)).unwrap();
        drop(wal);

        let recovery = Wal::open(tmp.path(), WalConfig::default()).unwrap();
        let ids: Vec<JobId> = recovery.pending.iter().map(|j| j.job_id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn corruption_in_a_sealed_segment_is_a_typed_error() {
        let _guard = fault_lock();
        let tmp = TempDir::new("sealed");
        let config = WalConfig {
            segment_max_bytes: 64,
            ..WalConfig::default()
        };
        let mut wal = Wal::open(tmp.path(), config.clone()).unwrap().wal;
        for id in 1..=4 {
            wal.append_admitted(&job(id, 16)).unwrap();
        }
        assert!(wal.segment_count() > 1, "rotation must have happened");
        drop(wal);

        // Flip a payload byte in the FIRST (sealed) segment.
        let path = segment_path(tmp.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        let mid = RECORD_HEADER_LEN + 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        match Wal::open(tmp.path(), config) {
            Err(WalError::Corrupt { segment: 0, .. }) => {}
            Err(other) => panic!("expected Corrupt in segment 0, got {other:?}"),
            Ok(_) => panic!("expected Corrupt in segment 0, got a clean open"),
        }
    }

    #[test]
    fn rotation_and_prefix_compaction_bound_the_log() {
        let _guard = fault_lock();
        let tmp = TempDir::new("compact");
        let config = WalConfig {
            segment_max_bytes: 256,
            ..WalConfig::default()
        };
        let mut wal = Wal::open(tmp.path(), config.clone()).unwrap().wal;
        for id in 0..40 {
            wal.append_admitted(&job(id, 16)).unwrap();
            wal.append_completed(id).unwrap();
        }
        assert!(wal.compacted_segments() > 0, "prefix compaction must fire");
        assert!(
            wal.segment_count() <= 3,
            "fully-acked log must stay bounded, got {} segments",
            wal.segment_count()
        );
        assert_eq!(wal.open_jobs(), 0);
        drop(wal);

        // Recovery over the compacted log: stray acks for jobs whose
        // admissions were deleted with the prefix are skipped.
        let recovery = Wal::open(tmp.path(), config).unwrap();
        assert!(recovery.pending.is_empty());
    }

    #[test]
    fn open_jobs_pin_their_segment_against_compaction() {
        let _guard = fault_lock();
        let tmp = TempDir::new("pin");
        let config = WalConfig {
            segment_max_bytes: 256,
            ..WalConfig::default()
        };
        let mut wal = Wal::open(tmp.path(), config.clone()).unwrap().wal;
        wal.append_admitted(&job(0, 16)).unwrap(); // never acked
        for id in 1..30 {
            wal.append_admitted(&job(id, 16)).unwrap();
            wal.append_completed(id).unwrap();
        }
        assert_eq!(wal.compacted_segments(), 0, "segment 0 holds an open job");
        drop(wal);

        let recovery = Wal::open(tmp.path(), config).unwrap();
        assert_eq!(recovery.pending.len(), 1);
        assert_eq!(recovery.pending[0].job_id, 0);
    }

    #[test]
    fn fsync_always_policy_appends_and_recovers() {
        let _guard = fault_lock();
        let tmp = TempDir::new("fsync");
        let config = WalConfig {
            fsync: FsyncPolicy::Always,
            ..WalConfig::default()
        };
        let mut wal = Wal::open(tmp.path(), config.clone()).unwrap().wal;
        wal.append_admitted(&job(5, 4)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let recovery = Wal::open(tmp.path(), config).unwrap();
        assert_eq!(recovery.pending.len(), 1);
    }

    #[test]
    fn injected_stop_fault_tears_the_write_and_recovery_truncates_it() {
        let _guard = fault_lock();
        let tmp = TempDir::new("fault");
        let mut wal = Wal::open(tmp.path(), WalConfig::default()).unwrap().wal;
        wal.append_admitted(&job(1, 8)).unwrap();

        fault::arm(fault::FaultPlan {
            point: fault::FaultPoint::AdmitPrefix,
            after: 0,
            mode: fault::FaultMode::Stop,
            marker: None,
        });
        match wal.append_admitted(&job(2, 8)) {
            Err(WalError::Injected(fault::FaultPoint::AdmitPrefix)) => {}
            other => panic!("expected injected fault, got {other:?}"),
        }
        fault::disarm();
        drop(wal);

        let recovery = Wal::open(tmp.path(), WalConfig::default()).unwrap();
        assert_eq!(recovery.pending.len(), 1, "torn admission must not replay");
        assert_eq!(recovery.pending[0].job_id, 1);
        assert!(recovery.stats.torn_tail_truncated > 0);
    }

    #[test]
    fn injected_full_write_fault_still_replays_the_record() {
        let _guard = fault_lock();
        let tmp = TempDir::new("fault-full");
        let mut wal = Wal::open(tmp.path(), WalConfig::default()).unwrap().wal;

        fault::arm(fault::FaultPlan {
            point: fault::FaultPoint::AdmitFull,
            after: 0,
            mode: fault::FaultMode::Stop,
            marker: None,
        });
        assert!(wal.append_admitted(&job(9, 8)).is_err());
        fault::disarm();
        drop(wal);

        // The record was fully written before the simulated crash, so
        // recovery replays it — the at-least-once side of the contract.
        let recovery = Wal::open(tmp.path(), WalConfig::default()).unwrap();
        assert_eq!(recovery.pending.len(), 1);
        assert_eq!(recovery.pending[0].job_id, 9);
        assert_eq!(recovery.stats.torn_tail_truncated, 0);
    }

    #[test]
    fn fault_plans_fire_at_the_requested_occurrence() {
        let _guard = fault_lock();
        let tmp = TempDir::new("fault-after");
        let mut wal = Wal::open(tmp.path(), WalConfig::default()).unwrap().wal;
        fault::arm(fault::FaultPlan {
            point: fault::FaultPoint::AdmitFull,
            after: 2,
            mode: fault::FaultMode::Stop,
            marker: None,
        });
        assert!(wal.append_admitted(&job(1, 4)).is_ok());
        assert!(wal.append_admitted(&job(2, 4)).is_ok());
        assert!(wal.append_admitted(&job(3, 4)).is_err());
        fault::disarm();
    }
}
