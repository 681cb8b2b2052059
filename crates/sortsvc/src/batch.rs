//! Batch formation and execution.
//!
//! The coalescer concatenates many small jobs into one *segmented* device
//! submission: each job gets a power-of-two segment padded through
//! [`stream_arch::padding`] (values with the sentinel key are set aside
//! per job), the segment count is padded to a power of two with
//! all-sentinel dummy segments, the whole buffer is sorted with
//! [`GpuAbiSorter::sort_segments_run`] (one set of stream operations for
//! the entire batch), and the per-job results are split back out and
//! restored. The results are byte-identical to sorting every job alone —
//! sorted output is unique under the total order — which the workspace's
//! property tests assert.

use crate::job::{JobKind, SortJob};
use crate::keys::{encoded_to_record, encoded_to_value, record_to_encoded, value_to_encoded};
use crate::policy::{Engine, SortPolicy};
use crate::shard::ShardedSorter;
use abisort::GpuAbiSorter;
use baselines::{CpuSortModel, CpuSorter};
use stream_arch::padding::{self, Split};
use stream_arch::{Counters, LogHistogram, Result, StreamProcessor, Value};
use terasort::{SimulatedDisk, TeraSortConfig, TeraSorter, WideRecord};

/// Smallest segment the coalescer uses. 16 keeps the Section 7
/// optimizations (8-element local sort, 16-element fixed merge) applicable
/// to every batch.
pub const MIN_SEGMENT: usize = 16;

/// The padded segment a job of `len` elements occupies.
pub fn segment_for(len: usize) -> usize {
    len.next_power_of_two().max(MIN_SEGMENT)
}

/// A planned batch: jobs, engine, device slot and timing estimates.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// Batch id (formation order).
    pub id: usize,
    /// Primary device slot the batch is pinned to.
    pub slot: usize,
    /// Additional slots reserved by a multi-device (sharded) batch; empty
    /// for every single-slot engine.
    pub extra_slots: Vec<usize>,
    /// The engine the policy selected.
    pub engine: Engine,
    /// Simulated time at which the batch was closed (earliest start).
    pub ready_ms: f64,
    /// Estimated duration used for scheduling and admission.
    pub est_ms: f64,
    /// Per-job segment length (power of two, ≥ [`MIN_SEGMENT`]).
    pub segment_len: usize,
    /// Padded segment count (power of two, ≥ number of jobs).
    pub segments: usize,
    /// The coalesced jobs.
    pub jobs: Vec<SortJob>,
}

impl BatchPlan {
    /// All device slots the batch occupies (primary first).
    pub fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.slot).chain(self.extra_slots.iter().copied())
    }

    /// Number of device slots the batch occupies.
    pub fn slot_count(&self) -> usize {
        1 + self.extra_slots.len()
    }

    /// Padded device capacity of the batch in elements.
    pub fn capacity(&self) -> usize {
        self.segment_len * self.segments
    }

    /// Real elements carried by the batch.
    pub fn elements(&self) -> usize {
        self.jobs.iter().map(SortJob::len).sum()
    }

    /// Total bytes of the batch's jobs.
    pub fn bytes(&self) -> usize {
        self.jobs.iter().map(SortJob::bytes).sum()
    }

    /// Fraction of the padded capacity carrying real elements — the
    /// batch-occupancy service metric.
    pub fn occupancy(&self) -> f64 {
        if self.capacity() == 0 {
            0.0
        } else {
            self.elements() as f64 / self.capacity() as f64
        }
    }
}

/// Incremental capacity bookkeeping while a batch fills.
#[derive(Default)]
pub struct BatchBuilder {
    jobs: Vec<SortJob>,
    segment_len: usize,
}

impl BatchBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Jobs currently collected.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if no jobs are collected.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Add a job.
    pub fn push(&mut self, job: SortJob) {
        self.segment_len = self.segment_len.max(segment_for(job.len()));
        self.jobs.push(job);
    }

    /// Take the collected jobs and their segmented layout, leaving the
    /// builder empty.
    pub fn take(&mut self) -> (Vec<SortJob>, usize, usize) {
        let jobs = std::mem::take(&mut self.jobs);
        let segment_len = self.segment_len;
        self.segment_len = 0;
        let segments = jobs.len().next_power_of_two();
        (jobs, segment_len, segments)
    }
}

/// What executing one batch produced.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The batch id this outcome belongs to.
    pub id: usize,
    /// Simulated duration of the batch on its engine.
    pub duration_ms: f64,
    /// Host wall-clock execution time.
    pub wall_ms: f64,
    /// Stream-processor counters (zero for CPU/terasort batches).
    pub counters: Counters,
    /// Shards a sharded batch actually spread over (0 for every other
    /// engine).
    pub shards: usize,
    /// Splitter skew of a sharded batch (0.0 for every other engine).
    pub shard_skew: f64,
    /// Per-job sorted outputs, aligned with `BatchPlan::jobs`.
    pub outputs: Vec<Vec<Value>>,
}

/// Execute a batch on its selected engine. GPU batches run on the pooled
/// `proc`; the processor's counters are taken (and reset) afterwards so the
/// next batch on the same slot starts clean. Terasort batches run against
/// a fresh simulated disk with the policy's [`terasort::DiskProfile`]. A sharded
/// batch that ended up with a single reserved slot degenerates to one
/// shard on `proc`.
pub fn execute(
    plan: &BatchPlan,
    proc: &mut StreamProcessor,
    sorter: &GpuAbiSorter,
    sharder: &ShardedSorter,
    policy: &SortPolicy,
    tera: &TeraSortConfig,
) -> Result<BatchOutcome> {
    if let Some(outcome) = execute_query(plan, proc, sorter, policy, tera)? {
        return Ok(outcome);
    }
    if plan.engine == Engine::ShardedGpu {
        return execute_sharded(plan, std::slice::from_mut(proc), sharder);
    }
    let started = std::time::Instant::now();
    let (duration_ms, counters, outputs) = match plan.engine {
        Engine::GpuAbiSort => execute_gpu(plan, proc, sorter)?,
        Engine::CpuQuicksort => execute_cpu(plan, policy.cpu_model()),
        Engine::TeraSort => execute_tera(plan, tera, policy)?,
        Engine::ShardedGpu => unreachable!("handled above"),
    };
    Ok(BatchOutcome {
        id: plan.id,
        duration_ms,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        counters,
        shards: 0,
        shard_skew: 0.0,
        outputs,
    })
}

/// Execute the solo query kinds (top-k, percentile) that bypass the plain
/// segmented sort. Returns `None` for sort/order-by plans (and for
/// coalesced multi-job batches, which by construction carry only
/// coalescing kinds), which fall through to the engine dispatch in
/// [`execute`].
fn execute_query(
    plan: &BatchPlan,
    proc: &mut StreamProcessor,
    sorter: &GpuAbiSorter,
    policy: &SortPolicy,
    tera: &TeraSortConfig,
) -> Result<Option<BatchOutcome>> {
    let kind = match plan.jobs.as_slice() {
        [job] => job.kind.clone(),
        _ => return Ok(None),
    };
    let started = std::time::Instant::now();
    let (duration_ms, counters, outputs) = match kind {
        JobKind::Sort | JobKind::OrderBy => return Ok(None),
        JobKind::TopK(k) => execute_top_k(plan, proc, sorter, policy, tera, k)?,
        JobKind::Percentile(qs) => execute_percentile(plan, policy, &qs),
    };
    Ok(Some(BatchOutcome {
        id: plan.id,
        duration_ms,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        counters,
        shards: 0,
        shard_skew: 0.0,
        outputs,
    }))
}

/// Top-k execution. On the GPU engine the bitonic recursion stops early
/// via [`GpuAbiSorter::top_k_run`] — strictly fewer kernel steps than a
/// full sort whenever `2 * k.next_power_of_two() < n` (asserted by the
/// abisort tests). Any other engine the planner picked (e.g. terasort for
/// an out-of-core job) sorts fully and truncates.
fn execute_top_k(
    plan: &BatchPlan,
    proc: &mut StreamProcessor,
    sorter: &GpuAbiSorter,
    policy: &SortPolicy,
    tera: &TeraSortConfig,
    k: usize,
) -> Result<(f64, Counters, Vec<Vec<Value>>)> {
    let job = &plan.jobs[0];
    match plan.engine {
        Engine::GpuAbiSort | Engine::ShardedGpu => {
            let run = sorter.top_k_run(proc, &job.values, k)?;
            let counters = proc.take_counters();
            Ok((run.sim_time.total_ms, counters, vec![run.output]))
        }
        Engine::CpuQuicksort => {
            let (duration_ms, counters, mut outputs) = execute_cpu(plan, policy.cpu_model());
            outputs[0].truncate(k);
            Ok((duration_ms, counters, outputs))
        }
        Engine::TeraSort => {
            let (duration_ms, counters, mut outputs) = execute_tera(plan, tera, policy)?;
            outputs[0].truncate(k);
            Ok((duration_ms, counters, outputs))
        }
    }
}

/// Percentile execution: one streaming pass folds the encoded keys into a
/// [`LogHistogram`], then each requested quantile decodes back into the
/// `Value` domain through [`encoded_to_value`]. No engine sorts anything;
/// the simulated duration is the policy's linear scan estimate.
fn execute_percentile(
    plan: &BatchPlan,
    policy: &SortPolicy,
    quantiles: &[f64],
) -> (f64, Counters, Vec<Vec<Value>>) {
    let job = &plan.jobs[0];
    let mut hist = LogHistogram::new();
    for v in &job.values {
        hist.record(value_to_encoded(v) as f64);
    }
    let output = quantiles
        .iter()
        .map(|&q| encoded_to_value(hist.quantile(q) as u64))
        .collect();
    (policy.est_scan_ms(job.len()), Counters::new(), vec![output])
}

/// Execute a sharded batch over the pooled processors backing its reserved
/// slots (one shard per processor). Sharded batches are always solo jobs —
/// the coalescer never routes a multi-job batch here.
pub fn execute_sharded(
    plan: &BatchPlan,
    procs: &mut [StreamProcessor],
    sharder: &ShardedSorter,
) -> Result<BatchOutcome> {
    debug_assert_eq!(plan.engine, Engine::ShardedGpu);
    // Hard invariant (not a debug assert): the finalize loop zips jobs
    // against outputs, so a multi-job sharded plan would silently drop
    // every job after the first instead of failing loudly.
    assert_eq!(plan.jobs.len(), 1, "sharded batches carry exactly one job");
    let job = &plan.jobs[0];
    let run = sharder.sort_run(procs, &job.values)?;
    Ok(BatchOutcome {
        id: plan.id,
        duration_ms: run.sim_ms,
        wall_ms: run.wall_time.as_secs_f64() * 1e3,
        counters: run.counters,
        shards: run.shards,
        shard_skew: run.skew,
        outputs: vec![run.output],
    })
}

fn execute_gpu(
    plan: &BatchPlan,
    proc: &mut StreamProcessor,
    sorter: &GpuAbiSorter,
) -> Result<(f64, Counters, Vec<Vec<Value>>)> {
    let m = plan.segment_len;
    // The packed device buffer comes from the pooled processor's arena, so
    // a long service run reuses one allocation per capacity class instead
    // of mallocing per batch.
    let mut packed = proc.arena().take_capacity::<Value>(plan.capacity());
    let (mut splits, mut pad) = (Vec::with_capacity(plan.jobs.len()), 0);
    for (t, job) in plan.jobs.iter().enumerate() {
        splits.push(Split::new(&job.values));
        padding::fill(&mut packed, splits[t].body(), (t + 1) * m, &mut pad);
    }
    // Dummy segments padding the count to a power of two.
    padding::fill(&mut packed, &[], plan.capacity(), &mut pad);

    let run = sorter.sort_segments_run(proc, &packed, m)?;
    // Leave the pooled processor clean for the next batch on this slot.
    let counters = proc.take_counters();

    let outputs = splits
        .iter()
        .enumerate()
        .map(|(t, split)| {
            let mut output = run.output[t * m..t * m + split.body().len()].to_vec();
            split.restore(&mut output);
            output
        })
        .collect();
    proc.arena().put_vec(packed);
    Ok((run.sim_time.total_ms, counters, outputs))
}

fn execute_cpu(plan: &BatchPlan, cpu_model: &CpuSortModel) -> (f64, Counters, Vec<Vec<Value>>) {
    let mut duration_ms = 0.0;
    let outputs = plan
        .jobs
        .iter()
        .map(|job| {
            let (sorted, stats) = CpuSorter.sort(&job.values);
            duration_ms += cpu_model.time_ms(&stats);
            sorted
        })
        .collect();
    (duration_ms, Counters::new(), outputs)
}

fn execute_tera(
    plan: &BatchPlan,
    tera: &TeraSortConfig,
    policy: &SortPolicy,
) -> Result<(f64, Counters, Vec<Vec<Value>>)> {
    let mut duration_ms = 0.0;
    let mut outputs = Vec::with_capacity(plan.jobs.len());
    for job in &plan.jobs {
        if job.len() <= 1 {
            outputs.push(job.values.clone());
            continue;
        }
        let mut disk = SimulatedDisk::new(*policy.tera_disk());
        let input = disk.create(&format!("job-{}", job.id));
        let records: Vec<WideRecord> = job
            .values
            .iter()
            .map(|v| encoded_to_record(value_to_encoded(v), v.id as u64))
            .collect();
        disk.append(input, &records);
        let report = TeraSorter::new(tera.clone()).sort(&mut disk, input)?;
        duration_ms += report.total_ms;
        outputs.push(
            disk.read_all(report.output)
                .iter()
                .map(|r| encoded_to_value(record_to_encoded(r)))
                .collect(),
        );
    }
    Ok((duration_ms, Counters::new(), outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyConfig;
    use abisort::SortConfig;
    use std::sync::OnceLock;
    use stream_arch::GpuProfile;

    fn shared_policy() -> &'static SortPolicy {
        static POLICY: OnceLock<SortPolicy> = OnceLock::new();
        POLICY.get_or_init(|| {
            SortPolicy::calibrate(
                &GpuProfile::geforce_7800(),
                &SortConfig::default(),
                &PolicyConfig::default(),
            )
        })
    }

    fn plan(jobs: Vec<SortJob>, engine: Engine) -> BatchPlan {
        let mut builder = BatchBuilder::new();
        for job in jobs {
            builder.push(job);
        }
        let (jobs, segment_len, segments) = builder.take();
        BatchPlan {
            id: 0,
            slot: 0,
            extra_slots: Vec::new(),
            engine,
            ready_ms: 0.0,
            est_ms: 0.0,
            segment_len,
            segments,
            jobs,
        }
    }

    fn reference(job: &SortJob) -> Vec<Value> {
        let mut v = job.values.clone();
        v.sort();
        v
    }

    fn check_engine(engine: Engine) {
        let jobs: Vec<SortJob> = [(0usize, 17u64), (1, 1), (100, 2), (257, 3), (64, 4)]
            .iter()
            .enumerate()
            .map(|(i, &(n, seed))| {
                SortJob::new(i as u64, i as u32 % 2, workloads::uniform(n, seed))
            })
            .collect();
        let expected: Vec<Vec<Value>> = jobs.iter().map(reference).collect();
        let plan = plan(jobs, engine);
        let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
        let out = execute(
            &plan,
            &mut proc,
            &GpuAbiSorter::new(SortConfig::default()),
            &ShardedSorter::default(),
            shared_policy(),
            &TeraSortConfig {
                run_size: 128,
                ..TeraSortConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.outputs, expected, "{}", engine.name());
        assert!(out.duration_ms >= 0.0);
    }

    #[test]
    fn gpu_batch_outputs_match_per_job_sorts() {
        check_engine(Engine::GpuAbiSort);
    }

    #[test]
    fn cpu_batch_outputs_match_per_job_sorts() {
        check_engine(Engine::CpuQuicksort);
    }

    #[test]
    fn terasort_batch_outputs_match_per_job_sorts() {
        check_engine(Engine::TeraSort);
    }

    #[test]
    fn sharded_batch_matches_the_reference_on_one_and_many_slots() {
        let job = SortJob::new(0, 0, workloads::uniform(5000, 8));
        let expected = reference(&job);
        let plan = plan(vec![job], Engine::ShardedGpu);
        let sharder = ShardedSorter::default();

        // Multi-slot execution (the normal sharded path).
        let mut pool: Vec<StreamProcessor> = (0..4)
            .map(|_| StreamProcessor::new(GpuProfile::geforce_7800()))
            .collect();
        let multi = execute_sharded(&plan, &mut pool, &sharder).unwrap();
        assert_eq!(multi.outputs, vec![expected.clone()]);
        assert_eq!(multi.shards, 4);
        assert!(multi.shard_skew >= 1.0);

        // Degenerate single-slot execution through the generic entry point.
        let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
        let single = execute(
            &plan,
            &mut proc,
            &GpuAbiSorter::new(SortConfig::default()),
            &sharder,
            shared_policy(),
            &TeraSortConfig::default(),
        )
        .unwrap();
        assert_eq!(single.outputs, vec![expected]);
        assert_eq!(single.shards, 1);
        assert!(single.duration_ms > 0.0 && multi.duration_ms > 0.0);
    }

    #[test]
    fn gpu_execution_leaves_the_pooled_processor_clean() {
        let jobs = vec![SortJob::new(0, 0, workloads::uniform(64, 5))];
        let plan = plan(jobs, Engine::GpuAbiSort);
        let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
        let out = execute(
            &plan,
            &mut proc,
            &GpuAbiSorter::new(SortConfig::default()),
            &ShardedSorter::default(),
            shared_policy(),
            &TeraSortConfig::default(),
        )
        .unwrap();
        assert!(out.counters.launches > 0);
        assert_eq!(proc.counters(), Counters::new(), "no metric bleed");
    }

    #[test]
    fn builder_layout_accounts_for_padding() {
        let mut b = BatchBuilder::new();
        b.push(SortJob::new(0, 0, workloads::uniform(100, 0))); // pads to 128
        b.push(SortJob::new(1, 0, workloads::uniform(20, 1)));
        b.push(SortJob::new(2, 0, workloads::uniform(20, 2)));
        assert_eq!(b.len(), 3);
        // The largest job sets the segment; three jobs pad to four
        // segments.
        let (jobs, segment_len, segments) = b.take();
        assert_eq!((jobs.len(), segment_len, segments), (3, 128, 4));
        assert!(b.is_empty());
    }

    #[test]
    fn segment_for_clamps_to_the_minimum() {
        assert_eq!(segment_for(0), MIN_SEGMENT);
        assert_eq!(segment_for(1), MIN_SEGMENT);
        assert_eq!(segment_for(16), 16);
        assert_eq!(segment_for(17), 32);
        assert_eq!(segment_for(1000), 1024);
    }

    #[test]
    fn wide_record_conversion_preserves_the_total_order() {
        let mut values = workloads::uniform(256, 9);
        values.push(Value::new(f32::NEG_INFINITY, 300));
        values.push(Value::new(-0.0, 301));
        values.push(Value::new(0.0, 302));
        values.push(Value::new(f32::INFINITY, 303));
        let mut by_value = values.clone();
        by_value.sort();
        let mut by_record: Vec<WideRecord> = values
            .iter()
            .map(|v| encoded_to_record(value_to_encoded(v), v.id as u64))
            .collect();
        by_record.sort();
        let back: Vec<Value> = by_record
            .iter()
            .map(|r| encoded_to_value(record_to_encoded(r)))
            .collect();
        assert_eq!(back, by_value);
    }

    #[test]
    fn top_k_plan_returns_the_k_smallest_on_gpu_and_fallback_engines() {
        let k = 7;
        for engine in [Engine::GpuAbiSort, Engine::CpuQuicksort, Engine::TeraSort] {
            let job = SortJob::new(0, 0, workloads::uniform(300, 13))
                .with_kind(crate::job::JobKind::TopK(k));
            let mut expected = job.values.clone();
            expected.sort();
            expected.truncate(k);
            let plan = plan(vec![job], engine);
            let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
            let out = execute(
                &plan,
                &mut proc,
                &GpuAbiSorter::new(SortConfig::default()),
                &ShardedSorter::default(),
                shared_policy(),
                &TeraSortConfig {
                    run_size: 128,
                    ..TeraSortConfig::default()
                },
            )
            .unwrap();
            assert_eq!(out.outputs, vec![expected.clone()], "{}", engine.name());
        }
    }

    #[test]
    fn percentile_plan_answers_from_the_histogram_without_sorting() {
        let job = SortJob::new(0, 0, workloads::uniform(4096, 21))
            .with_kind(crate::job::JobKind::Percentile(vec![0.25, 0.5, 0.99]));
        let mut sorted = job.values.clone();
        sorted.sort();
        let plan = plan(vec![job], Engine::CpuQuicksort);
        let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
        let out = execute(
            &plan,
            &mut proc,
            &GpuAbiSorter::new(SortConfig::default()),
            &ShardedSorter::default(),
            shared_policy(),
            &TeraSortConfig::default(),
        )
        .unwrap();
        assert_eq!(out.counters.launches, 0, "no device work");
        let answers = &out.outputs[0];
        assert_eq!(answers.len(), 3);
        // The log-histogram is approximate: each answer must land within
        // its bucket's relative-error bound of the exact quantile key.
        for (&q, approx) in [0.25, 0.5, 0.99].iter().zip(answers) {
            let exact = sorted[((q * sorted.len() as f64).ceil() as usize).max(1) - 1];
            let e = value_to_encoded(&exact) as f64;
            let a = value_to_encoded(approx) as f64;
            assert!(
                (a - e).abs() <= 0.05 * e.abs().max(1.0),
                "q={q}: approx {a} too far from exact {e}"
            );
        }
    }
}
