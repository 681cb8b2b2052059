//! `kernel_profile` — host time per kernel launch name of GPU-ABiSort,
//! read from the executor's `launch` telemetry spans.
//!
//! ```text
//! cargo run --release -p bench --bin kernel_profile -- [n] [passes]
//!   n       elements per sort                 (default 262144)
//!   passes  traced passes over the inputs     (default 1)
//! ```
//!
//! One processor sorts one input of each `engine-large` distribution
//! (uniform, sorted, reverse, few-distinct) once untraced to warm its
//! arena and plan cache, then `passes` more times with tracing on. Each
//! row sums the spans of one launch name: launches and kernel instances
//! per sort, host ns per instance and host ms per sort. A span covers the
//! kernel body and its cost accounting, including any wait for the
//! texture-cache replay helper; for one-CPU figures run it under
//! `taskset -c 0`. An argument that is not a non-negative integer exits
//! with status 2.

#![forbid(unsafe_code)]

use abisort::{GpuAbiSorter, SortConfig};
use bench::profiling::{engine_large_inputs, positional_args};
use std::collections::BTreeMap;
use stream_arch::telemetry::TraceSink;
use stream_arch::{GpuProfile, StreamProcessor};

/// Totals of one launch name.
#[derive(Default)]
struct Row {
    launches: u64,
    instances: f64,
    dur_us: f64,
}

fn main() {
    let [n, passes] = positional_args("kernel_profile [n] [passes]", [1 << 18, 1]);
    let passes = passes.max(1);
    let inputs = engine_large_inputs(n);
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    let sort_all = |proc: &mut StreamProcessor| {
        for (_, input) in &inputs {
            sorter.sort_run(proc, input).expect("sort failed");
        }
    };
    sort_all(&mut proc);

    let sink = TraceSink::global();
    sink.take_events();
    sink.set_enabled(true);
    for _ in 0..passes {
        sort_all(&mut proc);
    }
    sink.set_enabled(false);
    let (mut rows, mut total) = (BTreeMap::<String, Row>::new(), Row::default());
    for event in sink.take_events().into_iter().filter(|e| e.cat == "launch") {
        let instances = event.args.iter().find(|(key, _)| *key == "instances");
        for row in [rows.entry(event.name).or_default(), &mut total] {
            row.launches += 1;
            row.dur_us += event.dur_us;
            row.instances += instances.map_or(0.0, |&(_, v)| v);
        }
    }

    let runs = passes * inputs.len();
    println!("{runs} warm sorts of n={n} (one per engine-large distribution)");
    println!(
        "{:<22} {:>10} {:>14} {:>12} {:>11}",
        "launch", "launches", "instances", "ns/instance", "ms/sort"
    );
    let sorts = runs as f64;
    for (name, row) in rows.iter().chain([(&"all launches".to_string(), &total)]) {
        println!(
            "{name:<22} {:>10.0} {:>14.0} {:>12.1} {:>11.2}",
            row.launches as f64 / sorts,
            row.instances / sorts,
            row.dur_us * 1e3 / row.instances.max(1.0),
            row.dur_us / 1e3 / sorts,
        );
    }
}
