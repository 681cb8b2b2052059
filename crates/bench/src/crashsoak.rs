//! E23 — crash soak (crashsoak): drive the durability tier as a
//! workload. Rounds of mixed service traffic are admitted through a real
//! write-ahead log, a torn-write crash is injected every round, and each
//! restart's recovery is timed and verified: exactly the
//! admitted-but-unacknowledged jobs replay, and no job that was
//! acknowledged before a crash is ever lost or double-answered — the
//! zero-loss contract of `docs/DURABILITY.md`.
//!
//! Like the E22 soak this measures real host wall-clock
//! behaviour: recovery latency is restart-to-ready time (log scan +
//! replay execution), and the **durability overhead** row compares the
//! wall time of an E19-style service run with the log on versus off —
//! the number the issue bounds at 15% (enforced by the release-mode
//! acceptance test, recorded here on every run).

use crate::service::SCENARIO_SEED;
use serde::Serialize;
use sortsvc::metrics::ratio;
use sortsvc::wal::{fault, AdmittedJob, Wal, WalConfig, WalError};
use sortsvc::{ServiceConfig, SortJob, SortService};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;
use stream_arch::telemetry::{HistogramSummary, LogHistogram};
use workloads::RequestMix;

/// One crash-soak result row.
#[derive(Clone, Debug, Serialize)]
pub struct CrashSoakRow {
    /// Crash/recover rounds driven.
    pub rounds: usize,
    /// Jobs durably admitted across every round.
    pub jobs: usize,
    /// Jobs acknowledged (completed or rejected in the log) before their
    /// round's crash.
    pub acknowledged: usize,
    /// Induced crashes (every round ends in a torn admission append).
    pub crashes: usize,
    /// Jobs replayed across every recovery.
    pub replayed_jobs: u64,
    /// Log bytes replayed across every recovery.
    pub replayed_bytes: u64,
    /// Recoveries that found (and truncated) a torn tail.
    pub torn_tails: usize,
    /// Torn bytes physically truncated across every recovery.
    pub torn_bytes: u64,
    /// Log segments scanned across every recovery.
    pub segments_scanned: u64,
    /// Median restart-to-ready time (wall ms; log scan + replay).
    pub recovery_p50_ms: f64,
    /// Worst restart-to-ready time (wall ms).
    pub recovery_max_ms: f64,
    /// Mean restart-to-ready time (wall ms).
    pub recovery_mean_ms: f64,
    /// The zero-loss check: every recovery replayed *exactly* the
    /// admitted-but-unacknowledged set — no acknowledged job re-ran, no
    /// open job was dropped, no torn record was replayed. The soak
    /// asserts this; it is recorded so the JSON artifact carries it.
    pub zero_loss: bool,
    /// Wall seconds of the E19-style overhead run with durability off
    /// (the median of its trials).
    pub overhead_off_s: f64,
    /// Wall seconds of the same run with every admission and
    /// acknowledgement logged (the median of its trials).
    pub overhead_on_s: f64,
    /// The durability overhead ratio the issue bounds at 1.15: the median
    /// over the trials of on ÷ off.
    pub durability_overhead: f64,
    /// Full distribution of the recovery latencies.
    pub recovery: HistogramSummary,
}

/// Log-wide job id of job `index` in round `round` (recovery replays by
/// these ids, so they must be unique across the whole soak).
fn soak_job_id(round: usize, index: usize) -> u64 {
    (round as u64) * 1_000_000 + index as u64
}

/// Append `job`'s admission to `wal` the way the server does: values are
/// moved into the record and back, never cloned.
fn admit(wal: &mut Wal, job: &mut SortJob) -> Result<(), WalError> {
    let mut record = AdmittedJob {
        job_id: job.id,
        tenant: job.tenant,
        arrival_ms: job.arrival_ms,
        hint: job.hint,
        values: std::mem::take(&mut job.values),
    };
    let result = wal.append_admitted(&record);
    job.values = std::mem::take(&mut record.values);
    result
}

/// Run the crash soak: `rounds` rounds of `jobs_per_round` mixed-traffic
/// jobs, each round ending in an induced torn-write crash, each restart
/// timed and verified. `overhead_jobs` sizes the durability-overhead
/// comparison run.
///
/// Panics if the zero-loss contract is violated — a soak that loses an
/// acknowledged job is a failed soak, not a data point.
pub fn crash_soak(rounds: usize, jobs_per_round: usize, overhead_jobs: usize) -> CrashSoakRow {
    static SOAK: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "crashsoak-{}-{}",
        std::process::id(),
        SOAK.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    // Small segments so the soak exercises rotation and compaction, not
    // just a single growing file.
    let config = WalConfig {
        segment_max_bytes: 256 << 10,
        ..WalConfig::default()
    };
    let service = SortService::new(ServiceConfig::default());

    let mut row = CrashSoakRow {
        rounds,
        jobs: 0,
        acknowledged: 0,
        crashes: 0,
        replayed_jobs: 0,
        replayed_bytes: 0,
        torn_tails: 0,
        torn_bytes: 0,
        segments_scanned: 0,
        recovery_p50_ms: 0.0,
        recovery_max_ms: 0.0,
        recovery_mean_ms: 0.0,
        zero_loss: true,
        overhead_off_s: 0.0,
        overhead_on_s: 0.0,
        durability_overhead: 0.0,
        recovery: HistogramSummary::default(),
    };
    let mut recovery_hist = LogHistogram::new();
    let mut recovery_max = 0.0f64;

    let mut wal = Wal::open(&dir, config.clone()).expect("open soak log").wal;
    for round in 0..rounds {
        // Mixed traffic, fresh seed per round, log-wide unique job ids.
        let mut jobs = SortJob::from_requests(
            RequestMix::small_job_heavy(jobs_per_round)
                .generate(SCENARIO_SEED ^ ((round as u64) << 32)),
        );
        for (i, job) in jobs.iter_mut().enumerate() {
            job.id = soak_job_id(round, i);
        }
        let mut open: BTreeSet<u64> = BTreeSet::new();
        for job in &mut jobs {
            admit(&mut wal, job).expect("admission append");
            open.insert(job.id);
        }
        row.jobs += jobs.len();

        let report = service.process(jobs).expect("soak round");
        // Acknowledge most of the round; the tail stays in flight so the
        // crash has open jobs to strand (the at-least-once window).
        let acked_count = report.results.len() * 4 / 5;
        for result in report.results.iter().take(acked_count) {
            wal.append_completed(result.id).expect("ack append");
            open.remove(&result.id);
            row.acknowledged += 1;
        }
        for &(id, reason) in &report.rejected {
            wal.append_rejected(id, reason).expect("reject append");
            open.remove(&id);
            row.acknowledged += 1;
        }

        // The induced crash: the next admission tears mid-record and the
        // process life "dies" (the handle is abandoned).
        fault::arm(fault::FaultPlan {
            point: fault::FaultPoint::AdmitPrefix,
            after: 0,
            mode: fault::FaultMode::Stop,
            marker: None,
        });
        let mut victim = SortJob {
            id: soak_job_id(round, 999_999),
            tenant: 0,
            arrival_ms: 0.0,
            values: workloads::uniform(64, round as u64),
            hint: None,
            kind: sortsvc::JobKind::Sort,
        };
        let torn = admit(&mut wal, &mut victim);
        assert!(
            matches!(torn, Err(WalError::Injected(_))),
            "the induced crash must fire"
        );
        fault::disarm();
        drop(wal);
        row.crashes += 1;

        // Restart: timed recovery, then the verification that makes the
        // soak a test and not just a meter.
        let restarted = Instant::now();
        let recovered = service
            .recover(&dir, config.clone())
            .expect("recovery after induced crash");
        let elapsed_ms = restarted.elapsed().as_secs_f64() * 1e3;
        recovery_hist.record(elapsed_ms);
        recovery_max = recovery_max.max(elapsed_ms);

        let replayed: BTreeSet<u64> = recovered.report.results.iter().map(|r| r.id).collect();
        let rejected_replay: BTreeSet<u64> = recovered
            .report
            .rejected
            .iter()
            .map(|&(id, _)| id)
            .collect();
        let answered: BTreeSet<u64> = replayed.union(&rejected_replay).copied().collect();
        assert_eq!(
            answered, open,
            "round {round}: recovery must replay exactly the unacknowledged jobs \
             (zero acknowledged-job loss, no torn-record replay)"
        );
        for result in &recovered.report.results {
            assert!(
                result.output.windows(2).all(|w| w[0] <= w[1]),
                "round {round}: replayed job {} came back unsorted",
                result.id
            );
        }
        row.replayed_jobs += recovered.stats.recovered_jobs;
        row.replayed_bytes += recovered.stats.replayed_bytes;
        row.segments_scanned += recovered.stats.segments_scanned;
        if recovered.stats.torn_tail_truncated > 0 {
            row.torn_tails += 1;
        }
        row.torn_bytes += recovered.stats.torn_tail_truncated;
        wal = recovered.wal;
    }
    drop(wal);
    assert_eq!(row.torn_tails, rounds, "every round tore the tail");

    row.recovery_p50_ms = recovery_hist.quantile(0.5);
    row.recovery_mean_ms = recovery_hist.mean();
    row.recovery_max_ms = recovery_max;
    row.recovery = recovery_hist.summary();

    (
        row.overhead_off_s,
        row.overhead_on_s,
        row.durability_overhead,
    ) = durability_overhead(&service, &dir, overhead_jobs);

    std::fs::remove_dir_all(&dir).ok();
    row
}

/// Time an E19-style service run with the log off versus on (admission
/// appended before processing, acknowledgements after — the server's
/// exact discipline, minus the wire). The timed window is the
/// steady-state a server lives in: appending and processing under the
/// default `FsyncPolicy::OnRotate`. Opening the log (a once-per-restart
/// cost) and the drain fsync (a once-per-shutdown cost) sit outside it —
/// the issue's 15% bound is on throughput, not on startup.
///
/// Returns the median seconds off and on and the median ratio on ÷ off
/// over [`OVERHEAD_TRIALS`] trials, each an off run followed by an on run.
/// A ratio of back-to-back runs cancels a slow spell of the host that
/// spans both, and the median drops a scheduler hiccup in one run; on a
/// 2-vCPU VM the medians of each side alone still exceeded the bound in 2
/// of 10 runs.
fn durability_overhead(service: &SortService, dir: &Path, jobs: usize) -> (f64, f64, f64) {
    // The same two mixes E19 itself runs (small-job-heavy + mixed), with
    // log-wide unique ids across the combined stream. Every trial runs
    // these same jobs: mixes of other seeds differ in cost by up to 2×,
    // which would swamp the log's share.
    let generate = || {
        let mut all =
            SortJob::from_requests(RequestMix::small_job_heavy(jobs).generate(SCENARIO_SEED ^ 11));
        all.extend(SortJob::from_requests(
            RequestMix::mixed(jobs / 2).generate(SCENARIO_SEED ^ 11 ^ 0xA5),
        ));
        for (i, job) in all.iter_mut().enumerate() {
            job.id = i as u64;
        }
        all
    };
    let run_off = || {
        let jobs = generate();
        let started = Instant::now();
        service.process(jobs).expect("overhead run (off)");
        started.elapsed().as_secs_f64()
    };
    let overhead_dir = dir.join("overhead");
    let run_on = || {
        let mut jobs = generate();
        std::fs::remove_dir_all(&overhead_dir).ok();
        let mut wal = Wal::open(&overhead_dir, WalConfig::default())
            .expect("open overhead log")
            .wal;
        let started = Instant::now();
        for job in &mut jobs {
            admit(&mut wal, job).expect("overhead admission");
        }
        let report = service.process(jobs).expect("overhead run (on)");
        for result in &report.results {
            wal.append_completed(result.id).expect("overhead ack");
        }
        for &(id, reason) in &report.rejected {
            wal.append_rejected(id, reason).expect("overhead reject");
        }
        let elapsed = started.elapsed().as_secs_f64();
        wal.sync().expect("overhead fsync");
        elapsed
    };
    // One untimed round warms both sides up.
    run_off();
    run_on();
    let (mut off, mut on, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_TRIALS {
        let (off_s, on_s) = (run_off(), run_on());
        ratios.push(ratio(on_s, off_s));
        off.push(off_s);
        on.push(on_s);
    }
    (median(off), median(on), median(ratios))
}

/// Timed trials of the durability-overhead comparison; odd, so a median
/// is one trial's.
const OVERHEAD_TRIALS: usize = 7;

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Render the crash-soak rows as a report table.
pub fn render_crashsoak(rows: &[CrashSoakRow]) -> String {
    let mut out = String::from(
        "E23 — crash soak: induced torn-write crashes, timed recovery, zero-loss check (wall clock)\n",
    );
    out.push_str(&format!(
        "{:>6} | {:>5} | {:>7} | {:>8} | {:>8} | {:>10} | {:>10} | {:>10} | {:>9} | {:>8}\n",
        "rounds",
        "jobs",
        "acked",
        "replayed",
        "torn B",
        "rec p50 ms",
        "rec max ms",
        "zero-loss",
        "overhead",
        "segments"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>6} | {:>5} | {:>7} | {:>8} | {:>8} | {:>10.2} | {:>10.2} | {:>10} | {:>8.2}x | {:>8}\n",
            row.rounds,
            row.jobs,
            row.acknowledged,
            row.replayed_jobs,
            row.torn_bytes,
            row.recovery_p50_ms,
            row.recovery_max_ms,
            if row.zero_loss { "yes" } else { "LOST JOBS" },
            row.durability_overhead,
            row.segments_scanned,
        ));
    }
    out.push_str(
        "(recovery is restart-to-ready wall time: log scan + replay; overhead is the wall-time \
         ratio of an E19-style run with the write-ahead log on vs off — the issue bounds it at \
         1.15x, enforced by the release acceptance test)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_soak_recovers_every_round_with_zero_loss() {
        // Small but complete: 2 crash/recover rounds + the overhead run.
        let row = crash_soak(2, 12, 12);
        assert_eq!(row.rounds, 2);
        assert_eq!(row.crashes, 2);
        assert_eq!(row.torn_tails, 2);
        assert!(row.torn_bytes > 0);
        assert!(row.zero_loss);
        assert!(row.jobs >= 24);
        assert!(row.acknowledged > 0);
        assert!(row.replayed_jobs > 0, "each round leaves jobs in flight");
        assert!(row.replayed_bytes > 0);
        assert!(row.recovery_p50_ms.is_finite() && row.recovery_p50_ms >= 0.0);
        assert!(row.recovery_max_ms >= row.recovery_p50_ms);
        assert!(row.durability_overhead.is_finite() && row.durability_overhead > 0.0);
        let rendered = render_crashsoak(&[row]);
        assert!(rendered.contains("crash soak"));
        assert!(rendered.contains("yes"));
    }

    /// The 15% durability-overhead bound from the issue, enforced in
    /// release mode (wall-clock ratios in debug builds measure the
    /// unoptimized WAL codec, not the shipped cost). Run explicitly:
    /// `cargo test --release -p bench --test '*' -- --ignored` or via the
    /// weekly CI acceptance sweep.
    #[test]
    #[ignore = "release-mode acceptance: run with --ignored"]
    fn durability_overhead_stays_within_fifteen_percent() {
        let row = crash_soak(1, 8, 200);
        assert!(
            row.durability_overhead <= 1.15,
            "durability-on E19 run must stay within 15% of off, measured {:.3}x \
             (off {:.3}s, on {:.3}s)",
            row.durability_overhead,
            row.overhead_off_s,
            row.overhead_on_s
        );
    }
}
