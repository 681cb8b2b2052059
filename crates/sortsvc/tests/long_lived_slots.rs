//! A service keeps its slot processors for its whole life. Every run on a
//! long-lived service must report what the same run reports on a freshly
//! built one: the outputs, each batch's simulated duration and the service
//! metrics (host wall time excepted). And the slot processors start at
//! most one replay helper each, however many runs they serve. (A test
//! binary of its own: the helper count is process-wide. CI runs it on all
//! CPUs and pinned to one, so that the helper and the engine thread both
//! replay.)

use sortsvc::{JobKind, PolicyConfig, ServiceConfig, ServiceReport, SortJob, SortService};
use stream_arch::accounting::helpers_started;

const DEVICE_SLOTS: usize = 2;
const RUNS: u64 = 24;

fn config() -> ServiceConfig {
    ServiceConfig::default()
        .with_device_slots(DEVICE_SLOTS)
        .with_policy_config(PolicyConfig {
            // Single jobs below 2048 elements, and batches padding to less,
            // take the CPU route; from 12000 elements a job is sharded.
            crossover_override: Some(2048),
            sharded_min_override: Some(12_000),
            ..PolicyConfig::default()
        })
}

/// The jobs of run `run`: every fourth run is one large solo sort, which
/// keeps one slot busy and leaves the other's CPU free. The others mix
/// small jobs (the CPU route, or coalesced onto the GPU), solo GPU jobs, a
/// sharded job and a top-k query.
fn jobs(run: u64) -> Vec<SortJob> {
    let job = |i: u64, len: usize| {
        SortJob::new(i, (i % 3) as u32, workloads::uniform(len, 1000 * run + i))
            .arriving_at(0.05 * i as f64)
    };
    let vary = |i: u64, span: u64| ((run * 7919 + i * 104_729) % span) as usize;
    match run % 4 {
        0 => vec![job(0, 8192 + vary(0, 8192))],
        1 => (0..12)
            .map(|i| job(i, 32 + vary(i, 1500)))
            .chain([job(12, 4096 + vary(12, 4000))])
            .collect(),
        2 => vec![
            job(0, 12_000 + vary(0, 4000)),
            job(1, 100 + vary(1, 300)),
            job(2, 600 + vary(2, 400)),
        ],
        _ => {
            let mut jobs: Vec<SortJob> = (0..6).map(|i| job(i, 200 + vary(i, 800))).collect();
            let k = 1 + vary(6, 64);
            jobs.push(job(6, 3000 + vary(6, 3000)).with_kind(JobKind::TopK(k)));
            jobs
        }
    }
}

/// Everything a run reports except host wall times.
fn simulated(report: &ServiceReport) -> String {
    let batches: Vec<_> = report
        .batches
        .iter()
        .map(|b| (b.id, b.slot, b.engine.clone(), b.jobs, b.duration_ms))
        .collect();
    let outputs: Vec<_> = report.results.iter().map(|r| (r.id, &r.output)).collect();
    let mut metrics = report.metrics.clone();
    metrics.wall_ms = 0.0;
    format!(
        "{outputs:?}\n{batches:?}\n{}",
        serde_json::to_string(&metrics).expect("metrics serialise")
    )
}

#[test]
fn long_lived_slots_report_what_fresh_services_report() {
    let service = SortService::new(config());
    let policy = service.policy().clone();
    let fresh: Vec<String> = (0..RUNS)
        .map(|run| {
            let fresh = SortService::with_policy(config(), policy.clone());
            simulated(&fresh.process(jobs(run)).expect("fresh run"))
        })
        .collect();

    let before = helpers_started();
    let (mut cpu, mut coalesced, mut solo, mut sharded, mut top_k) = (0, 0, 0, 0, 0);
    for (run, fresh) in (0..RUNS).zip(&fresh) {
        let report = service.process(jobs(run)).expect("long-lived run");
        assert_eq!(&simulated(&report), fresh, "run {run}");
        cpu += report.metrics.cpu_jobs;
        sharded += report.metrics.sharded_jobs;
        top_k += report.metrics.topk_jobs;
        for batch in report.batches.iter().filter(|b| b.engine == "gpu-abisort") {
            if batch.jobs > 1 {
                coalesced += 1;
            } else {
                solo += 1;
            }
        }
    }
    assert!(
        cpu > 0 && coalesced > 0 && solo > 0 && sharded > 0 && top_k > 0,
        "every route ran: cpu {cpu}, coalesced {coalesced}, solo {solo}, \
         sharded {sharded}, top-k {top_k}"
    );

    let started = helpers_started() - before;
    assert!(
        started <= DEVICE_SLOTS,
        "{started} helpers for {DEVICE_SLOTS} slots"
    );
    // The slots charge enough to offload, and the large solo runs leave a
    // CPU free for a helper wherever there is a second one.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus == 1 {
        assert_eq!(started, 0, "one CPU: the engine threads replay");
    } else {
        assert!(started > 0, "{cpus} CPUs: no slot offloaded");
    }
}
