//! E14 — scalability with the number of stream processor units `p`.
//!
//! The simulated-time scaling (which is what the paper's claim is about) is
//! produced by `repro --experiment scaling`; this bench measures the host
//! cost of simulating different unit counts. The units are a cost-model
//! parameter: every count runs on the calling thread.

use abisort::{GpuAbiSorter, SortConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use stream_arch::{GpuProfile, StreamProcessor};

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_p");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let n = 1usize << 13;
    let input = workloads::uniform(n, 11);

    for units in [1usize, 4, 16, 24] {
        group.bench_with_input(
            BenchmarkId::new("simulated_units", units),
            &input,
            |b, input| {
                b.iter(|| {
                    let mut proc =
                        StreamProcessor::new(GpuProfile::geforce_7800().with_units(units));
                    GpuAbiSorter::new(SortConfig::default())
                        .sort_run(&mut proc, input)
                        .unwrap()
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
