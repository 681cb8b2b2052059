//! A service run whose jobs all take the CPU route launches no kernel, so
//! none of its processors records a fetch or starts a replay helper
//! thread. (A test binary of its own: the helper count is process-wide.)

use abisort::{GpuAbiSorter, SortConfig};
use sortsvc::{PolicyConfig, ServiceConfig, SortJob, SortService};
use stream_arch::accounting::helpers_started;
use stream_arch::{GpuProfile, StreamProcessor};

#[test]
fn a_run_of_cpu_route_jobs_starts_no_replay_helper() {
    // Everything below 2^20 elements goes to the CPU.
    let config = ServiceConfig::default().with_policy_config(PolicyConfig {
        crossover_override: Some(1 << 20),
        ..PolicyConfig::default()
    });
    let service = SortService::new(config);
    // Calibration sorted on a scratch processor; count from here on.
    let before = helpers_started();
    let jobs: Vec<SortJob> = (0..64u64)
        .map(|i| {
            let len = 32 + (i as usize * 61) % 4000;
            SortJob::new(i, (i % 4) as u32, workloads::uniform(len, i))
        })
        .collect();
    let report = service.process(jobs).expect("service run");
    assert_eq!(report.results.len(), 64);
    assert_eq!(report.metrics.cpu_jobs, 64, "every job takes the CPU route");
    assert_eq!(report.metrics.gpu_jobs, 0);
    assert_eq!(helpers_started(), before);

    // The count does see helpers: a processor that has charged enough
    // fetches starts one for its next sort wherever a CPU is free.
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    let input = workloads::uniform(1 << 16, 1);
    let before = helpers_started();
    sorter.sort_run(&mut proc, &input).expect("first sort");
    assert_eq!(helpers_started(), before, "a fresh processor stays inline");
    sorter.sort_run(&mut proc, &input).expect("second sort");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let started = if cpus > 1 { 1 } else { 0 };
    assert_eq!(helpers_started(), before + started);
}
