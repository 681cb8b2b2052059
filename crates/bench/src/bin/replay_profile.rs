//! `replay_profile` — host time of the texture-cache cost model per entry
//! of a captured fetch log.
//!
//! ```text
//! cargo run --release -p bench --bin replay_profile -- [n] [reps]
//!   n     elements per sort             (default 262144)
//!   reps  timed replays of each log     (default 10)
//! ```
//!
//! For each `engine-large` distribution (the inputs of `kernel_profile`)
//! a fresh processor sorts one input while
//! [`StreamProcessor::observe_fetches`] captures its fetch log. The log is
//! then replayed `reps` times on the calling thread through
//! [`stream_arch::accounting::replay_log`], and every replay must charge
//! exactly the cache statistics and block-fill bytes the sort reported.
//! Each row gives the log's entries, the cache probes per entry and the ns
//! per entry (first quartile, median, third quartile of the replays). The
//! replay runs on one thread; pin it (`taskset -c 0`) for steadier
//! figures. An argument that is not a non-negative integer exits with
//! status 2.

#![forbid(unsafe_code)]

use abisort::{GpuAbiSorter, SortConfig};
use bench::profiling::{engine_large_inputs, positional_args};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use stream_arch::accounting::{replay_log, FetchChunk};
use stream_arch::{GpuProfile, StreamProcessor};

fn main() {
    let [n, reps] = positional_args("replay_profile [n] [reps]", [1 << 18, 10]);
    let reps = reps.max(1);
    let sorter = GpuAbiSorter::new(SortConfig::default());
    println!(
        "fetch-log replay of one n={n} sort per engine-large distribution, {reps} replays each"
    );
    println!(
        "{:<16} {:>10} {:>13} {:>9} {:>9} {:>9}",
        "distribution", "entries", "probes/entry", "ns p25", "ns p50", "ns p75"
    );
    for (dist, input) in engine_large_inputs(n) {
        let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
        let log = Arc::new(Mutex::new(Vec::<FetchChunk>::new()));
        let sink = Arc::clone(&log);
        proc.observe_fetches(Box::new(move |chunk: &FetchChunk| {
            sink.lock().unwrap().push(chunk.clone())
        }));
        let run = sorter.sort_run(&mut proc, &input).expect("sort failed");
        let config = proc.profile().cache;
        drop(proc);
        let log = std::mem::take(&mut *log.lock().unwrap());
        let entries: usize = log.iter().map(|chunk| chunk.fetches().len()).sum();

        let mut ns_per_entry = Vec::with_capacity(reps);
        let mut probes = 0;
        for _ in 0..reps {
            let started = Instant::now();
            let replayed = std::hint::black_box(replay_log(config, &log));
            ns_per_entry.push(started.elapsed().as_secs_f64() * 1e9 / entries.max(1) as f64);
            assert_eq!(
                (replayed.cache, replayed.bytes_read),
                (run.counters.cache, run.counters.bytes_read),
                "{}: the replay must charge what the sort did",
                dist.name()
            );
            probes = replayed.probes;
        }
        ns_per_entry.sort_by(f64::total_cmp);
        let quartile = |q: usize| ns_per_entry[(ns_per_entry.len() - 1) * q / 4];
        println!(
            "{:<16} {entries:>10} {:>13.3} {:>9.2} {:>9.2} {:>9.2}",
            dist.name(),
            probes as f64 / entries.max(1) as f64,
            quartile(1),
            quartile(2),
            quartile(3),
        );
    }
}
