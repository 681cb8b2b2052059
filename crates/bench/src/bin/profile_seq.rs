//! `profile_seq` — a minimal timing loop for the sequential sorting path,
//! kept as the profiling entry point for accounting/engine work (small
//! enough to run under `gprofng collect app` or `perf record`).
//!
//! ```text
//! cargo run --release -p bench --bin profile_seq -- [n] [jobs]
//!   n     elements per sort          (default 1024)
//!   jobs  sorts per measured pass    (default 200)
//! ```
//!
//! One untimed warm-up pass precedes the measured pass, as in the
//! accounting acceptance test. An argument that is not a non-negative
//! integer exits with status 2.

#![forbid(unsafe_code)]

use abisort::{GpuAbiSorter, SortConfig};
use std::time::Instant;
use stream_arch::{GpuProfile, StreamProcessor};

fn main() {
    let [n, jobs] = bench::profiling::positional_args("profile_seq [n] [jobs]", [1024, 200]);
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let inputs: Vec<Vec<stream_arch::Value>> =
        (0..jobs).map(|j| workloads::uniform(n, j as u64)).collect();
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    let run_all = |proc: &mut StreamProcessor| {
        for input in &inputs {
            let _ = sorter.sort_run(proc, input).expect("sort failed");
        }
    };
    run_all(&mut proc);
    let started = Instant::now();
    run_all(&mut proc);
    println!(
        "{jobs} sorts of n={n}: {:.1} ms",
        started.elapsed().as_secs_f64() * 1e3
    );
}
