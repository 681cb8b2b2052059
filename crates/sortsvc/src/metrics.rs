//! Service-level metrics: throughput, latency percentiles, batch
//! occupancy, engine mix and device utilization.
//!
//! There is one rollup. A [`MetricsTally`] holds the additive state
//! behind [`ServiceMetrics`] — counters, summed times, capacity-weighted
//! occupancy sums, the shard-skew maximum, three streaming histograms and
//! the WAL recovery counters. Tallies [`merge`](MetricsTally::merge), and
//! [`MetricsTally::finish`] is the only place a derived rate (throughput,
//! occupancy, utilization, jobs per batch, percentiles) is computed. A
//! service run records its batches and jobs into a tally
//! ([`ServiceReport::tally`](crate::ServiceReport::tally)); WAL recovery
//! records its counters into the same tally; the net server's `STATS`
//! aggregate is the merge of every micro-batch's tally.

use crate::job::{JobKind, JobResult};
use crate::policy::Engine;
use crate::service::BatchSummary;
use crate::wal::RecoveryStats;
use serde::Serialize;
use stream_arch::telemetry::{HistogramSummary, LogHistogram};

/// Aggregate metrics of one service run. All times are simulated
/// milliseconds unless the field name says otherwise.
///
/// Always built by [`MetricsTally::finish`]: every service run reports
/// one of these, and the networked [`ServerStats`](crate::ServerStats)
/// embeds the one finished from the merge of its micro-batches' tallies.
///
/// ```
/// use sortsvc::{ServiceConfig, SortJob, SortService};
///
/// let service = SortService::new(ServiceConfig::default());
/// let jobs = SortJob::from_requests(
///     workloads::RequestMix::small_job_heavy(20).generate(7),
/// );
/// let report = service.process(jobs).unwrap();
///
/// let m = &report.metrics;
/// assert_eq!(m.jobs_submitted, m.jobs_completed + m.jobs_rejected);
/// assert!(m.latency_p99_ms >= m.latency_p50_ms);
/// assert!(m.throughput_kelems_per_s.is_finite());
/// ```
#[derive(Clone, Debug, Default, Serialize)]
pub struct ServiceMetrics {
    /// Jobs submitted (admitted + rejected).
    pub jobs_submitted: usize,
    /// Jobs that completed.
    pub jobs_completed: usize,
    /// Jobs rejected by admission control.
    pub jobs_rejected: usize,
    /// Batches executed.
    pub batches: usize,
    /// Real elements sorted (excluding padding).
    pub elements_sorted: u64,
    /// First arrival → last completion, simulated.
    pub makespan_ms: f64,
    /// Completed jobs per simulated second.
    pub throughput_jobs_per_s: f64,
    /// Thousand elements per simulated second.
    pub throughput_kelems_per_s: f64,
    /// Mean end-to-end latency.
    pub latency_mean_ms: f64,
    /// Median end-to-end latency.
    pub latency_p50_ms: f64,
    /// 99th-percentile end-to-end latency.
    pub latency_p99_ms: f64,
    /// Mean time jobs spent queued/coalescing before their batch started.
    pub queue_mean_ms: f64,
    /// Capacity-weighted mean batch occupancy (real / padded elements).
    pub mean_batch_occupancy: f64,
    /// Mean number of jobs per batch.
    pub mean_jobs_per_batch: f64,
    /// Jobs executed by the CPU quicksort engine.
    pub cpu_jobs: usize,
    /// Jobs executed by the batched GPU-ABiSort engine.
    pub gpu_jobs: usize,
    /// Jobs executed by the multi-device sharded engine.
    pub sharded_jobs: usize,
    /// Jobs executed by the out-of-core terasort engine.
    pub tera_jobs: usize,
    /// Top-k query jobs completed (early-exit bitonic recursion).
    pub topk_jobs: usize,
    /// Order-by jobs completed (typed permutation sorts).
    pub orderby_jobs: usize,
    /// Percentile query jobs completed (histogram pass, no sort).
    pub percentile_jobs: usize,
    /// Batches that spread over several device slots.
    pub sharded_batches: usize,
    /// Worst splitter skew observed across sharded batches (largest
    /// splitter-directed shard relative to the ideal `n/p`; 0.0 when no
    /// batch was sharded).
    pub shard_skew_max: f64,
    /// Total simulated busy time across device slots.
    pub device_busy_ms: f64,
    /// `device_busy_ms / (slots × makespan)` — mean slot utilization.
    pub device_utilization: f64,
    /// Total host wall-clock execution time across batches.
    pub wall_ms: f64,
    /// The policy's calibrated single-job CPU/GPU crossover, for
    /// visibility in reports (`u64::MAX` ⇒ never GPU).
    pub policy_crossover: u64,
    /// Jobs replayed from the write-ahead log on startup — admitted by a
    /// previous process life but never acknowledged (zero when the run
    /// had no durability directory or recovered a clean log).
    pub recovered_jobs: u64,
    /// Bytes of valid WAL records replayed during startup recovery.
    pub replayed_bytes: u64,
    /// Bytes truncated from the WAL's torn tail during startup recovery
    /// (a partial record written by the crashed process).
    pub torn_tail_truncated: u64,
    /// Streaming-histogram summary of end-to-end latency (the source of
    /// `latency_p50_ms` / `latency_p99_ms`, plus count/p90/max).
    pub latency: HistogramSummary,
    /// Per-stage histogram: time jobs spent queued/coalescing before
    /// their batch started (the source of `queue_mean_ms`).
    pub queue_wait: HistogramSummary,
    /// Per-stage histogram: batch execution time per job (`latency −
    /// queue wait`).
    pub execution: HistogramSummary,
}

/// `num / den`, forced to a finite `0.0` when the denominator is zero (or
/// so small the quotient overflows). Every rate/ratio metric goes through
/// this so a run that admits zero jobs — or completes only zero-duration
/// work — reports `0.0` instead of `NaN`/`∞`, which would poison JSON
/// reports and downstream aggregation.
pub fn ratio(num: f64, den: f64) -> f64 {
    let q = num / den;
    if q.is_finite() {
        q
    } else {
        0.0
    }
}

/// The mergeable, additive state behind [`ServiceMetrics`].
///
/// A service run records its batches, completed jobs, rejects and
/// simulated span; startup recovery records the WAL counters.
/// [`merge`](Self::merge) sums two tallies, so the net server's aggregate
/// is every micro-batch's tally merged: counters, busy and wall times and
/// makespans add, occupancy stays capacity-weighted, and the histograms
/// merge bucket-wise (bucket counts are those of one histogram over every
/// sample).
///
/// ```
/// use sortsvc::metrics::MetricsTally;
///
/// let mut total = MetricsTally::default();
/// total.record_rejected(2);
/// let m = total.finish(2, u64::MAX);
/// assert_eq!((m.jobs_submitted, m.jobs_rejected), (2, 2));
/// assert_eq!(m.throughput_jobs_per_s, 0.0); // finite, never NaN
/// ```
#[derive(Clone, Debug, Default)]
pub struct MetricsTally {
    jobs_completed: usize,
    jobs_rejected: usize,
    batches: usize,
    elements_sorted: u64,
    makespan_ms: f64,
    cpu_jobs: usize,
    gpu_jobs: usize,
    sharded_jobs: usize,
    tera_jobs: usize,
    topk_jobs: usize,
    orderby_jobs: usize,
    percentile_jobs: usize,
    sharded_batches: usize,
    shard_skew_max: f64,
    device_busy_ms: f64,
    wall_ms: f64,
    /// Σ occupancy × capacity over batches.
    occupancy_weighted: f64,
    /// Σ capacity over batches.
    capacity_total: f64,
    recovered_jobs: u64,
    replayed_bytes: u64,
    torn_tail_truncated: u64,
    // Streaming histograms rather than sample vectors: constant memory
    // however many jobs are tallied, and lossless to merge. Queue wait
    // and execution tile each job's latency exactly (`latency = queue +
    // execute` by timeline construction).
    latency: LogHistogram,
    queue_wait: LogHistogram,
    execution: LogHistogram,
}

impl MetricsTally {
    /// Record one executed batch: `wall_ms` is its host execution time,
    /// `shard_skew` its splitter skew when it ran on the sharded engine
    /// (`None` otherwise).
    pub fn record_batch(&mut self, batch: &BatchSummary, wall_ms: f64, shard_skew: Option<f64>) {
        self.batches += 1;
        self.elements_sorted += batch.elements as u64;
        self.device_busy_ms += batch.duration_ms * batch.slots as f64;
        self.wall_ms += wall_ms;
        self.occupancy_weighted += batch.occupancy * batch.capacity as f64;
        self.capacity_total += batch.capacity as f64;
        if let Some(skew) = shard_skew {
            self.sharded_batches += 1;
            self.shard_skew_max = self.shard_skew_max.max(skew);
        }
    }

    /// Record one completed job. The histograms' sums are order
    /// dependent in the last bit, so a run records its jobs in id order.
    pub fn record_job(&mut self, result: &JobResult) {
        self.jobs_completed += 1;
        match result.engine {
            Engine::CpuQuicksort => self.cpu_jobs += 1,
            Engine::GpuAbiSort => self.gpu_jobs += 1,
            Engine::ShardedGpu => self.sharded_jobs += 1,
            Engine::TeraSort => self.tera_jobs += 1,
        }
        match result.kind {
            JobKind::Sort => {}
            JobKind::TopK(_) => self.topk_jobs += 1,
            JobKind::OrderBy => self.orderby_jobs += 1,
            JobKind::Percentile(_) => self.percentile_jobs += 1,
        }
        self.latency.record(result.latency_ms);
        self.queue_wait.record(result.queue_ms);
        self.execution.record(result.latency_ms - result.queue_ms);
    }

    /// Record `n` submitted jobs that were turned away (by admission
    /// control, at the wire, or by a whole-batch engine failure).
    pub fn record_rejected(&mut self, n: usize) {
        self.jobs_rejected += n;
    }

    /// Record one run's simulated span (first arrival → last
    /// completion). Merged tallies sum their spans.
    pub fn record_makespan(&mut self, makespan_ms: f64) {
        self.makespan_ms += makespan_ms;
    }

    /// Record what a write-ahead-log replay found.
    pub fn record_recovery(&mut self, stats: &RecoveryStats) {
        self.recovered_jobs += stats.recovered_jobs;
        self.replayed_bytes += stats.replayed_bytes;
        self.torn_tail_truncated += stats.torn_tail_truncated;
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &MetricsTally) {
        self.jobs_completed += other.jobs_completed;
        self.jobs_rejected += other.jobs_rejected;
        self.batches += other.batches;
        self.elements_sorted += other.elements_sorted;
        self.makespan_ms += other.makespan_ms;
        self.cpu_jobs += other.cpu_jobs;
        self.gpu_jobs += other.gpu_jobs;
        self.sharded_jobs += other.sharded_jobs;
        self.tera_jobs += other.tera_jobs;
        self.topk_jobs += other.topk_jobs;
        self.orderby_jobs += other.orderby_jobs;
        self.percentile_jobs += other.percentile_jobs;
        self.sharded_batches += other.sharded_batches;
        self.shard_skew_max = self.shard_skew_max.max(other.shard_skew_max);
        self.device_busy_ms += other.device_busy_ms;
        self.wall_ms += other.wall_ms;
        self.occupancy_weighted += other.occupancy_weighted;
        self.capacity_total += other.capacity_total;
        self.recovered_jobs += other.recovered_jobs;
        self.replayed_bytes += other.replayed_bytes;
        self.torn_tail_truncated += other.torn_tail_truncated;
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
        self.execution.merge(&other.execution);
    }

    /// The metrics of everything tallied, for a service with
    /// `device_slots` slots and the given calibrated crossover. Every
    /// derived rate goes through [`ratio`], so an empty tally finishes to
    /// finite zeros.
    pub fn finish(&self, device_slots: usize, policy_crossover: u64) -> ServiceMetrics {
        let completed = self.jobs_completed;
        let makespan_ms = self.makespan_ms;
        ServiceMetrics {
            jobs_submitted: completed + self.jobs_rejected,
            jobs_completed: completed,
            jobs_rejected: self.jobs_rejected,
            batches: self.batches,
            elements_sorted: self.elements_sorted,
            makespan_ms,
            throughput_jobs_per_s: ratio(completed as f64 * 1_000.0, makespan_ms),
            throughput_kelems_per_s: ratio(self.elements_sorted as f64, makespan_ms),
            latency_mean_ms: self.latency.mean(),
            latency_p50_ms: self.latency.quantile(0.5),
            latency_p99_ms: self.latency.quantile(0.99),
            queue_mean_ms: self.queue_wait.mean(),
            mean_batch_occupancy: ratio(self.occupancy_weighted, self.capacity_total),
            mean_jobs_per_batch: ratio(completed as f64, self.batches as f64),
            cpu_jobs: self.cpu_jobs,
            gpu_jobs: self.gpu_jobs,
            sharded_jobs: self.sharded_jobs,
            tera_jobs: self.tera_jobs,
            topk_jobs: self.topk_jobs,
            orderby_jobs: self.orderby_jobs,
            percentile_jobs: self.percentile_jobs,
            sharded_batches: self.sharded_batches,
            shard_skew_max: self.shard_skew_max,
            device_busy_ms: self.device_busy_ms,
            device_utilization: ratio(self.device_busy_ms, device_slots as f64 * makespan_ms),
            wall_ms: self.wall_ms,
            policy_crossover,
            recovered_jobs: self.recovered_jobs,
            replayed_bytes: self.replayed_bytes,
            torn_tail_truncated: self.torn_tail_truncated,
            latency: self.latency.summary(),
            queue_wait: self.queue_wait.summary(),
            execution: self.execution.summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_is_finite_for_degenerate_denominators() {
        assert_eq!(ratio(10.0, 4.0), 2.5);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(f64::MAX, 0.5), 0.0); // overflows to ∞ → clamped
        assert_eq!(ratio(0.0, 3.0), 0.0);
    }

    fn batch(elements: usize, capacity: usize, slots: usize, duration_ms: f64) -> BatchSummary {
        BatchSummary {
            id: 0,
            slot: 0,
            slots,
            shards: 0,
            engine: String::new(),
            jobs: 1,
            elements,
            capacity,
            occupancy: elements as f64 / capacity as f64,
            start_ms: 0.0,
            duration_ms,
        }
    }

    fn job(engine: Engine, kind: JobKind, queue_ms: f64, latency_ms: f64) -> JobResult {
        JobResult {
            id: 0,
            tenant: 0,
            kind,
            output: Vec::new(),
            engine,
            batch: 0,
            queue_ms,
            latency_ms,
            batch_wall_ms: 0.0,
        }
    }

    #[test]
    fn merged_tallies_finish_like_one_rollup() {
        // Dyadic samples keep every float sum exact, so the merged
        // histograms must match one histogram over the union bit for bit.
        let (a_samples, b_samples) = ([(0.5, 2.0), (0.25, 3.5)], [(1.0, 8.0)]);
        let mut a = MetricsTally::default();
        a.record_batch(&batch(48, 64, 1, 2.0), 0.5, None);
        a.record_batch(&batch(100, 128, 2, 1.5), 0.25, Some(1.25));
        a.record_job(&job(Engine::CpuQuicksort, JobKind::Sort, 0.5, 2.0));
        a.record_job(&job(Engine::ShardedGpu, JobKind::TopK(4), 0.25, 3.5));
        a.record_rejected(2);
        a.record_makespan(4.0);
        let mut b = MetricsTally::default();
        b.record_batch(&batch(16, 32, 1, 6.0), 1.0, None);
        b.record_job(&job(Engine::GpuAbiSort, JobKind::OrderBy, 1.0, 8.0));
        b.record_rejected(1);
        b.record_makespan(8.0);
        b.record_recovery(&RecoveryStats {
            recovered_jobs: 1,
            replayed_bytes: 40,
            torn_tail_truncated: 3,
            segments_scanned: 2,
        });

        let mut merged = a.clone();
        merged.merge(&b);
        let m = merged.finish(2, 77);
        assert_eq!(
            (m.jobs_submitted, m.jobs_completed, m.jobs_rejected),
            (6, 3, 3)
        );
        assert_eq!((m.batches, m.elements_sorted), (3, 164));
        assert_eq!(
            (m.cpu_jobs, m.gpu_jobs, m.sharded_jobs, m.tera_jobs),
            (1, 1, 1, 0)
        );
        assert_eq!((m.topk_jobs, m.orderby_jobs, m.percentile_jobs), (1, 1, 0));
        assert_eq!((m.sharded_batches, m.shard_skew_max), (1, 1.25));
        assert_eq!(m.makespan_ms, 12.0);
        assert_eq!(m.device_busy_ms, 2.0 + 3.0 + 6.0);
        assert_eq!(m.wall_ms, 1.75);
        assert_eq!(m.mean_batch_occupancy, 164.0 / 224.0);
        assert_eq!(m.mean_jobs_per_batch, 1.0);
        assert_eq!(m.throughput_jobs_per_s, 3_000.0 / 12.0);
        assert_eq!(m.throughput_kelems_per_s, 164.0 / 12.0);
        assert_eq!(m.device_utilization, 11.0 / 24.0);
        assert_eq!(m.policy_crossover, 77);
        assert_eq!(
            (m.recovered_jobs, m.replayed_bytes, m.torn_tail_truncated),
            (1, 40, 3)
        );

        let (mut latency, mut queue, mut exec) = (
            LogHistogram::new(),
            LogHistogram::new(),
            LogHistogram::new(),
        );
        for (q, l) in a_samples.into_iter().chain(b_samples) {
            latency.record(l);
            queue.record(q);
            exec.record(l - q);
        }
        assert_eq!(m.latency, latency.summary());
        assert_eq!(m.queue_wait, queue.summary());
        assert_eq!(m.execution, exec.summary());
        assert_eq!(m.latency_p99_ms, latency.quantile(0.99));
        assert_eq!(m.queue_mean_ms, queue.mean());
    }

    #[test]
    fn an_empty_tally_finishes_to_finite_zeros() {
        let m = MetricsTally::default().finish(4, 0);
        let json = serde_json::to_string(&m).unwrap();
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        assert_eq!(m.jobs_submitted, 0);
        for rate in [
            m.makespan_ms,
            m.throughput_jobs_per_s,
            m.throughput_kelems_per_s,
            m.latency_mean_ms,
            m.latency_p99_ms,
            m.mean_batch_occupancy,
            m.mean_jobs_per_batch,
            m.device_utilization,
        ] {
            assert_eq!(rate, 0.0);
        }
    }

    #[test]
    fn metrics_serialize_to_json() {
        let m = ServiceMetrics {
            jobs_submitted: 3,
            latency_p99_ms: 1.5,
            ..ServiceMetrics::default()
        };
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains("\"jobs_submitted\": 3"));
        assert!(json.contains("latency_p99_ms"));
    }
}
