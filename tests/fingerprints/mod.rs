//! The committed engine fingerprints shared by the identity suites.
//!
//! Every line of `tests/golden_fingerprints.txt` is an FNV-1a-64 hash of
//! one [`GpuAbiSorter`] run: the output bits, every [`Counters`] field
//! (the cache statistics included) and the bits of `sim_time.total_ms`.
//! The matrix covers `sort_run`, `sort_segments_run`, `merge_blocks_run`
//! and `top_k_run` over n ∈ {0, 1, 2, 37, 1000, 1024, 4097}, uniform,
//! sorted and few-distinct data, on one GeForce 7800 processor. The
//! `sequential` column of each line names that processor; it is kept so
//! the committed lines stay byte-identical.
//!
//! The file is the identity oracle for host-side engine work: a change to
//! the executor, the planner, the arena or the accounting that moves an
//! output bit, a counter, a cache statistic or a simulated time changes a
//! line. A deliberate cost-model change replaces the committed file with
//! the actual one the failing test prints, and explains the diff.
//!
//! `tests/golden_networks.txt` does the same for Batcher's comparator
//! networks (read by `tests/pram_cross.rs`): the stream-machine baselines
//! (`GpuSortBaseline` in Z-order and `row_wise(2048)`, `OddEvenMergeSort`,
//! `PeriodicBalancedSort`) hashed like an engine run, and the PRAM
//! `bitonic_network` and `oem_network` runs hashed over their output bits,
//! every `StepRecord` field and the access conflicts, over n up to 1024.

// Each test target uses its own subset of these helpers.
#![allow(dead_code)]

#[path = "../../crates/stream-arch/tests/per_access/mod.rs"]
pub mod per_access;

use abisort::{GpuAbiSorter, SortConfig};
use std::sync::Mutex;
use stream_arch::{padding, CacheStats, Counters, GpuProfile, SimTime, StreamProcessor, Value};
use workloads::Distribution;

/// The committed fingerprint file.
pub const GOLDEN: &str = include_str!("../golden_fingerprints.txt");

const SIZES: [usize; 7] = [0, 1, 2, 37, 1000, 1024, 4097];

const DISTRIBUTIONS: [(&str, Distribution); 3] = [
    ("uniform", Distribution::Uniform),
    ("sorted", Distribution::Sorted),
    ("few-distinct", Distribution::FewDistinct { distinct: 4 }),
];

const RUNS: [&str; 4] = ["sort", "segments", "merge-blocks", "top-k"];

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn values(&mut self, values: &[Value]) {
        self.u64(values.len() as u64);
        for v in values {
            self.bytes(&v.key.to_bits().to_le_bytes());
            self.bytes(&v.id.to_le_bytes());
        }
    }
}

/// Hash one run record. The destructuring is exhaustive, so a new counter
/// field fails to compile here instead of silently escaping the oracle.
fn fingerprint(output: &[Value], counters: &Counters, sim_ms: f64) -> u64 {
    let mut h = Fnv::new();
    h.values(output);
    let Counters {
        launches,
        steps,
        kernel_instances,
        stream_reads,
        stream_writes,
        gathers,
        iter_reads,
        comparisons,
        bytes_written,
        bytes_read,
        cache:
            CacheStats {
                accesses,
                hits,
                misses,
                fill_bytes,
            },
        transfer_bytes,
    } = *counters;
    for field in [
        launches,
        steps,
        kernel_instances,
        stream_reads,
        stream_writes,
        gathers,
        iter_reads,
        comparisons,
        bytes_written,
        bytes_read,
        accesses,
        hits,
        misses,
        fill_bytes,
        transfer_bytes,
    ] {
        h.u64(field);
    }
    h.u64(sim_ms.to_bits());
    h.0
}

/// `input` padded with distinct padding sentinels to the next power of two
/// (empty input stays empty).
fn padded(input: &[Value]) -> Vec<Value> {
    let total = if input.is_empty() {
        0
    } else {
        input.len().next_power_of_two()
    };
    let mut values = Vec::with_capacity(total);
    padding::fill(&mut values, input, total, &mut 0);
    values
}

/// Execute one cell of the matrix and hash its record, with the counters
/// and simulated time passed through `record`.
fn run_case(
    sorter: &GpuAbiSorter,
    proc: &mut StreamProcessor,
    run: &str,
    input: &[Value],
    record: impl Fn(&Counters, SimTime) -> (Counters, SimTime),
) -> u64 {
    let fingerprint = |output: &[Value], counters: &Counters, sim_time: SimTime| {
        let (counters, sim_time) = record(counters, sim_time);
        fingerprint(output, &counters, sim_time.total_ms)
    };
    match run {
        "sort" => {
            let r = sorter.sort_run(proc, input).expect("sort_run");
            fingerprint(&r.output, &r.counters, r.sim_time)
        }
        "segments" => {
            let values = padded(input);
            let segment_len = values.len().clamp(1, 64);
            let r = sorter
                .sort_segments_run(proc, &values, segment_len)
                .expect("sort_segments_run");
            fingerprint(&r.output, &r.counters, r.sim_time)
        }
        "merge-blocks" => {
            // Blocks sorted in alternating directions: the precondition of
            // a block merge.
            let mut values = padded(input);
            let block_len = (values.len() / 4).max(1);
            for (i, block) in values.chunks_mut(block_len).enumerate() {
                if i % 2 == 0 {
                    block.sort();
                } else {
                    block.sort_by(|a, b| b.cmp(a));
                }
            }
            let r = sorter
                .merge_blocks_run(proc, &values, block_len)
                .expect("merge_blocks_run");
            fingerprint(&r.output, &r.counters, r.sim_time)
        }
        "top-k" => {
            let k = (input.len() / 16).max(1);
            let r = sorter.top_k_run(proc, input, k).expect("top_k_run");
            fingerprint(&r.output, &r.counters, r.sim_time)
        }
        other => unreachable!("unknown run kind {other}"),
    }
}

/// The fingerprint lines of every matrix cell `keep(run, n)` selects, in
/// file order. One long-lived processor serves all cells, as in the
/// service: arena and plan-cache reuse across runs must not change any
/// record.
pub fn lines(keep: impl Fn(&str, usize) -> bool) -> Vec<String> {
    lines_with(false, keep)
}

/// [`lines`] with every record's cache statistics, block-fill bytes and
/// simulated time taken from the per-access reference model, replayed
/// from the processor's fetch log.
pub fn per_access_lines(keep: impl Fn(&str, usize) -> bool) -> Vec<String> {
    lines_with(true, keep)
}

fn lines_with(per_access: bool, keep: impl Fn(&str, usize) -> bool) -> Vec<String> {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    let profile = proc.profile().clone();
    let reference = per_access.then(|| per_access::attach(&mut proc));
    let reference: Option<&Mutex<per_access::PerAccess>> = reference.as_deref();
    let mut lines = Vec::new();
    for run in RUNS {
        for (dist_name, dist) in DISTRIBUTIONS {
            for n in SIZES {
                if !keep(run, n) {
                    continue;
                }
                let input = workloads::generate(dist, n, 0x5EED + n as u64);
                // Every run resets the processor first, and the previous
                // run's fetches were all replayed at its closing drain.
                if let Some(reference) = reference {
                    reference.lock().unwrap().reset();
                }
                let hash =
                    run_case(
                        &sorter,
                        &mut proc,
                        run,
                        &input,
                        |counters, sim_time| match reference {
                            Some(reference) => {
                                let reference = reference.lock().unwrap();
                                (
                                    reference.counters(counters),
                                    reference.simulated_time(&profile, counters),
                                )
                            }
                            None => (*counters, sim_time),
                        },
                    );
                lines.push(format!("{run} {dist_name} n={n} sequential {hash:016x}"));
            }
        }
    }
    lines
}

/// The file the given lines make, header included.
pub fn render(lines: &[String]) -> String {
    let mut out = String::from(
        "# FNV-1a-64 of output bits, every Counters field (cache stats included)\n\
         # and sim_time.total_ms bits, per GpuAbiSorter run.\n\
         # <run> <distribution> n=<n> <exec mode> <fingerprint>\n",
    );
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Assert that every line is one of the committed ones.
pub fn assert_committed(lines: &[String]) {
    assert!(!lines.is_empty(), "no cell selected");
    for line in lines {
        assert!(
            GOLDEN.lines().any(|g| g == line),
            "run diverged from the committed fingerprint: {line}"
        );
    }
}

/// The committed comparator-network fingerprint file.
pub const GOLDEN_NETWORKS: &str = include_str!("../golden_networks.txt");

/// The engine sizes without 4097: in a debug build the six 8192-element
/// network runs take ~10 s of the matrix's ~12 s.
const NETWORK_SIZES: [usize; 6] = [0, 1, 2, 37, 1000, 1024];

/// Hash one PRAM run. The destructuring is exhaustive, as in
/// [`fingerprint`].
fn pram_fingerprint(run: &pram::SortRun) -> u64 {
    let pram::SortRun {
        output,
        stats:
            pram::PramStats {
                steps,
                read_conflicts,
                write_conflicts,
            },
        model,
        padded_len,
    } = run;
    let mut h = Fnv::new();
    h.values(output);
    h.u64(steps.len() as u64);
    for &pram::StepRecord {
        tasks,
        max_accesses,
        reads,
        writes,
        comparisons,
    } in steps
    {
        for field in [tasks, max_accesses, reads, writes, comparisons] {
            h.u64(field);
        }
    }
    h.u64(*read_conflicts);
    h.u64(*write_conflicts);
    h.bytes(model.name().as_bytes());
    h.u64(*padded_len as u64);
    h.0
}

/// Execute one comparator-network cell and hash its record.
fn run_network_case(network: &str, proc: &mut StreamProcessor, input: &[Value]) -> u64 {
    use baselines::{GpuSortBaseline, OddEvenMergeSort, PeriodicBalancedSort};
    use pram::sorters::{bitonic_network, oem_network};
    let r = match network {
        "gpusort-zorder" => GpuSortBaseline::new().sort(proc, input),
        "gpusort-rowwise-2048" => GpuSortBaseline::row_wise(2048).sort(proc, input),
        "oems" => OddEvenMergeSort::new().sort(proc, input),
        "pbsn" => PeriodicBalancedSort::new().sort(proc, input),
        "pram-bitonic" => return pram_fingerprint(&bitonic_network::sort(input).expect(network)),
        "pram-oem" => return pram_fingerprint(&oem_network::sort(input).expect(network)),
        other => unreachable!("unknown network {other}"),
    }
    .expect(network);
    fingerprint(&r.output, &r.counters, r.sim_time.total_ms)
}

/// The fingerprint lines of every comparator-network cell, in file
/// order. One long-lived processor serves all stream-machine cells.
pub fn network_lines() -> Vec<String> {
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    let mut lines = Vec::new();
    for network in [
        "gpusort-zorder",
        "gpusort-rowwise-2048",
        "oems",
        "pbsn",
        "pram-bitonic",
        "pram-oem",
    ] {
        for (dist_name, dist) in DISTRIBUTIONS {
            for n in NETWORK_SIZES {
                let input = workloads::generate(dist, n, 0x5EED + n as u64);
                let hash = run_network_case(network, &mut proc, &input);
                lines.push(format!("{network} {dist_name} n={n} {hash:016x}"));
            }
        }
    }
    lines
}

/// The network file the given lines make, header included.
pub fn render_networks(lines: &[String]) -> String {
    let mut out = String::from(
        "# FNV-1a-64 per comparator-network run. Stream machine: output bits,\n\
         # every Counters field and sim_time.total_ms bits. PRAM: output bits,\n\
         # every StepRecord field, read/write conflicts, model and padded length.\n\
         # <network> <distribution> n=<n> <fingerprint>\n",
    );
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}
