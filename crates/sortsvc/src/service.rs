//! The sorting service: planning, parallel execution, and the simulated
//! timeline.
//!
//! A service run has three deterministic phases:
//!
//! 1. **Planning** — a single-threaded sweep over the jobs in arrival
//!    order: admission control (backpressure), per-tenant fair queueing,
//!    and batch formation. A batch closes when its padded capacity would
//!    exceed the configured maximum, when the oldest queued job has waited
//!    a full batch window, or at end of input. Large jobs bypass the
//!    coalescer. Every closed batch is routed through the policy engine
//!    and pinned to the device slot with the earliest *estimated* free
//!    time.
//! 2. **Execution** — the service keeps one [`StreamProcessor`] per
//!    device slot for its whole life. Every slot that has batches runs
//!    them on its own processor: one slot on the calling thread, each
//!    other one on a scoped thread. Sharded batches then borrow the first
//!    processors they reserve. Each batch takes its processor's counters
//!    and resets it, so it charges exactly what it would on a fresh
//!    processor. Workers only touch their own
//!    slot's batches, so the phase is deterministic regardless of thread
//!    scheduling. A processor that has charged enough fetches replays its
//!    texture-cache model on a helper thread of its own whenever a CPU is
//!    free (see [`stream_arch::accounting`]): a slot that idles through a
//!    micro-batch lends its CPU to the busy slot's replay, and the service
//!    starts at most one helper per slot.
//! 3. **Timeline** — the measured batch durations are replayed over the
//!    slot schedule to produce per-job simulated latencies and the
//!    service metrics.
//!
//! Phase 1 decides with *estimates* (a real server cannot see the future);
//! phases 2–3 charge *measured* simulated durations.

use crate::batch::{self, BatchBuilder, BatchOutcome, BatchPlan};
use crate::job::{JobId, JobKind, JobResult, RejectReason, SortJob};
use crate::metrics::{MetricsTally, ServiceMetrics};
use crate::policy::{Engine, PolicyConfig, SortPolicy};
use crate::queue::{AdmissionController, TenantQueues};
use crate::shard::{ShardedConfig, ShardedSorter};
use crate::wal::{self, Wal, WalConfig, WalError};
use abisort::{GpuAbiSorter, SortConfig};
use serde::Serialize;
use std::sync::{Mutex, MutexGuard};
use stream_arch::{GpuProfile, Result, StreamProcessor};
use terasort::TeraSortConfig;
use workloads::Distribution;

/// Configuration of a [`SortService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Hardware profile of every device slot.
    pub profile: GpuProfile,
    /// Number of device slots. The service keeps one processor per slot
    /// for its lifetime; the slots with batches run them in parallel.
    pub device_slots: usize,
    /// Coalesce small jobs into shared batched launches. With `false`
    /// every job becomes its own submission (the naive baseline the
    /// batching demo compares against).
    pub coalescing: bool,
    /// Maximum padded elements per coalesced batch.
    pub max_batch_elements: usize,
    /// How long (simulated ms) a queued job may wait for its batch to
    /// fill before the batch is closed anyway.
    pub batch_window_ms: f64,
    /// Jobs at or above this many elements skip the coalescer and are
    /// dispatched as single-job batches.
    pub large_job_cutoff: usize,
    /// Bound on in-flight memory (queued + scheduled-but-unfinished job
    /// bytes); admissions beyond it are rejected.
    pub max_inflight_bytes: usize,
    /// Bound on queued jobs; admissions beyond it are rejected.
    pub max_queued_jobs: usize,
    /// GPU-ABiSort configuration used by the device engine.
    pub sort_config: SortConfig,
    /// Policy calibration knobs.
    pub policy: PolicyConfig,
    /// Records per run of the out-of-core engine.
    pub tera_run_size: usize,
    /// Device slots one sharded batch may reserve: `0` (the default) means
    /// "all of `device_slots`", `1` disables the sharded route, anything
    /// else is clamped to `device_slots`.
    pub shard_slots: usize,
    /// Splitter oversampling factor of the sharded engine.
    pub shard_oversample: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            profile: GpuProfile::geforce_7800(),
            device_slots: 2,
            coalescing: true,
            max_batch_elements: 1 << 14,
            batch_window_ms: 2.0,
            large_job_cutoff: 1 << 12,
            max_inflight_bytes: 64 << 20,
            max_queued_jobs: 4096,
            sort_config: SortConfig::default(),
            policy: PolicyConfig::default(),
            tera_run_size: 1 << 14,
            shard_slots: 0,
            shard_oversample: 8,
        }
    }
}

/// Builder-style setters (the workspace-wide `with_*` convention; every
/// config type in the facade prelude offers the same shape).
///
/// ```
/// use sortsvc::ServiceConfig;
///
/// let config = ServiceConfig::default()
///     .with_device_slots(4)
///     .with_coalescing(false);
/// assert_eq!(config.device_slots, 4);
/// ```
impl ServiceConfig {
    /// Set the hardware profile of every device slot.
    pub fn with_profile(mut self, profile: GpuProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Set the number of device slots.
    pub fn with_device_slots(mut self, slots: usize) -> Self {
        self.device_slots = slots;
        self
    }

    /// Enable or disable coalescing.
    pub fn with_coalescing(mut self, on: bool) -> Self {
        self.coalescing = on;
        self
    }

    /// Set the maximum padded elements per coalesced batch.
    pub fn with_max_batch_elements(mut self, elements: usize) -> Self {
        self.max_batch_elements = elements;
        self
    }

    /// Set the batch window (simulated milliseconds).
    pub fn with_batch_window_ms(mut self, ms: f64) -> Self {
        self.batch_window_ms = ms;
        self
    }

    /// Set the solo-dispatch cutoff (elements).
    pub fn with_large_job_cutoff(mut self, elements: usize) -> Self {
        self.large_job_cutoff = elements;
        self
    }

    /// Set the policy calibration knobs.
    pub fn with_policy_config(mut self, policy: PolicyConfig) -> Self {
        self.policy = policy;
        self
    }

    /// Set the slots one sharded batch may reserve.
    pub fn with_shard_slots(mut self, slots: usize) -> Self {
        self.shard_slots = slots;
        self
    }
}

/// One executed batch, summarised for reports.
#[derive(Clone, Debug, Serialize)]
pub struct BatchSummary {
    /// Batch id (formation order).
    pub id: usize,
    /// Primary device slot the batch ran on.
    pub slot: usize,
    /// Device slots the batch reserved (1 for single-slot engines).
    pub slots: usize,
    /// Shards a sharded batch spread over (0 for other engines).
    pub shards: usize,
    /// Engine name.
    pub engine: String,
    /// Number of coalesced jobs.
    pub jobs: usize,
    /// Real elements carried.
    pub elements: usize,
    /// Padded device capacity.
    pub capacity: usize,
    /// `elements / capacity`.
    pub occupancy: f64,
    /// Simulated start time.
    pub start_ms: f64,
    /// Measured simulated duration.
    pub duration_ms: f64,
}

/// The outcome of one service run.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Completed jobs in submission (id) order.
    pub results: Vec<JobResult>,
    /// Rejected jobs and why.
    pub rejected: Vec<(JobId, RejectReason)>,
    /// Executed batches in formation order.
    pub batches: Vec<BatchSummary>,
    /// Aggregate service metrics (`tally` finished).
    pub metrics: ServiceMetrics,
    /// The run's mergeable metrics state; the net server merges it into
    /// its `STATS` aggregate.
    pub tally: MetricsTally,
}

/// The multi-tenant batched sorting service.
pub struct SortService {
    config: ServiceConfig,
    policy: SortPolicy,
    sorter: GpuAbiSorter,
    sharder: ShardedSorter,
    /// One processor per device slot, for the service's lifetime.
    processors: Mutex<Vec<StreamProcessor>>,
}

impl SortService {
    /// Slots one sharded batch reserves under `config` (≥ 1).
    fn effective_shard_slots(config: &ServiceConfig) -> usize {
        match config.shard_slots {
            0 => config.device_slots,
            n => n.min(config.device_slots),
        }
        .max(1)
    }

    /// Build a service, calibrating the policy for the configured profile.
    pub fn new(config: ServiceConfig) -> Self {
        let mut policy_cfg = config.policy.clone();
        // Out-of-core jobs must actually not fit the device comfortably.
        policy_cfg.out_of_core_threshold = policy_cfg
            .out_of_core_threshold
            .min(config.profile.max_stream_elements() / 2);
        // The sharded route spreads over the slots this service really has.
        policy_cfg.shard_slots = Self::effective_shard_slots(&config);
        let policy = SortPolicy::calibrate(&config.profile, &config.sort_config, &policy_cfg);
        Self::with_policy(config, policy)
    }

    /// Build a service around an already calibrated policy (lets tests and
    /// sweeps share one calibration).
    pub fn with_policy(config: ServiceConfig, policy: SortPolicy) -> Self {
        assert!(config.device_slots >= 1, "need at least one device slot");
        let sorter = GpuAbiSorter::new(config.sort_config);
        let sharder = ShardedSorter::new(ShardedConfig {
            sort_config: config.sort_config,
            oversample: config.shard_oversample.max(1),
            link: policy.device_link(),
            cpu_model: *policy.cpu_model(),
            host_bandwidth_gbs: policy.host_bandwidth_gbs(),
        });
        SortService {
            processors: Mutex::new(Self::fresh_processors(&config)),
            config,
            policy,
            sorter,
            sharder,
        }
    }

    fn fresh_processors(config: &ServiceConfig) -> Vec<StreamProcessor> {
        (0..config.device_slots)
            .map(|_| StreamProcessor::new(config.profile.clone()))
            .collect()
    }

    /// The slot processors; rebuilt if a batch panicked while it held them,
    /// since they may then hold part of that batch.
    fn processors(&self) -> MutexGuard<'_, Vec<StreamProcessor>> {
        self.processors.lock().unwrap_or_else(|poisoned| {
            let mut processors = poisoned.into_inner();
            *processors = Self::fresh_processors(&self.config);
            self.processors.clear_poison();
            processors
        })
    }

    /// The service's calibrated policy.
    pub fn policy(&self) -> &SortPolicy {
        &self.policy
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Run the service over a set of jobs until everything admitted has
    /// completed, and report per-job results plus service metrics.
    pub fn process(&self, mut jobs: Vec<SortJob>) -> Result<ServiceReport> {
        jobs.sort_by(|a, b| a.arrival_ms.total_cmp(&b.arrival_ms).then(a.id.cmp(&b.id)));
        let (plans, rejected) = self.plan(jobs);
        let outcomes = self.execute(&plans)?;
        let report = self.assemble(plans, outcomes, rejected);
        crate::telemetry::emit_service_trace(&report);
        Ok(report)
    }

    // --- Phase 1: planning ----------------------------------------------

    fn plan(&self, jobs: Vec<SortJob>) -> (Vec<BatchPlan>, Vec<(JobId, RejectReason)>) {
        let mut planner = Planner {
            config: &self.config,
            policy: &self.policy,
            classes: std::collections::BTreeMap::new(),
            admission: AdmissionController::new(
                self.config.max_inflight_bytes,
                self.config.max_queued_jobs,
            ),
            slot_free_est: vec![0.0; self.config.device_slots],
            plans: Vec::new(),
            rejected: Vec::new(),
            solo_cutoff: self
                .config
                .large_job_cutoff
                .min(self.policy.out_of_core_threshold()),
        };
        for job in jobs {
            planner.on_arrival(job);
        }
        planner.drain();
        (planner.plans, planner.rejected)
    }

    // --- Phase 2: execution ---------------------------------------------

    fn execute(&self, plans: &[BatchPlan]) -> Result<Vec<BatchOutcome>> {
        // Sharded batches need several slot processors at once, so they
        // run in their own pass; everything else stays on its slot worker.
        let mut by_slot: Vec<Vec<usize>> = vec![Vec::new(); self.config.device_slots];
        let mut multi_slot: Vec<usize> = Vec::new();
        for plan in plans {
            if plan.extra_slots.is_empty() {
                by_slot[plan.slot].push(plan.id);
            } else {
                multi_slot.push(plan.id);
            }
        }
        let tera = TeraSortConfig {
            run_size: self.config.tera_run_size,
            gpu_profile: self.config.profile.clone(),
            ..TeraSortConfig::default()
        };

        let mut processors = self.processors();
        let mut per_slot: Vec<Result<Vec<BatchOutcome>>> = Vec::new();
        let run_slot = |proc: &mut StreamProcessor, ids: &[usize]| -> Result<Vec<BatchOutcome>> {
            ids.iter()
                .map(|&id| {
                    batch::execute(
                        &plans[id],
                        proc,
                        &self.sorter,
                        &self.sharder,
                        &self.policy,
                        &tera,
                    )
                })
                .collect()
        };
        let mut busy: Vec<_> = processors
            .iter_mut()
            .zip(&by_slot)
            .filter(|(_, ids)| !ids.is_empty())
            .collect();
        // The calling thread runs one busy slot itself: a micro-batch whose
        // work is all on one slot spawns no thread.
        let last = busy.pop();
        std::thread::scope(|scope| {
            let handles: Vec<_> = busy
                .into_iter()
                .map(|(proc, ids)| scope.spawn(|| run_slot(proc, ids)))
                .collect();
            if let Some((proc, ids)) = last {
                per_slot.push(run_slot(proc, ids));
            }
            for handle in handles {
                per_slot.push(handle.join().expect("service worker thread panicked"));
            }
        });

        let mut outcomes: Vec<Option<BatchOutcome>> = vec![None; plans.len()];
        for slot_result in per_slot {
            for outcome in slot_result? {
                let id = outcome.id;
                outcomes[id] = Some(outcome);
            }
        }

        // Multi-slot pass: each sharded batch borrows the processors of
        // as many slots as it reserved and parallelises across its shards.
        for &id in &multi_slot {
            let k = plans[id].slot_count();
            outcomes[id] = Some(batch::execute_sharded(
                &plans[id],
                &mut processors[..k],
                &self.sharder,
            )?);
        }

        Ok(outcomes
            .into_iter()
            .map(|o| o.expect("every batch executed"))
            .collect())
    }

    // --- Phase 3: timeline + metrics ------------------------------------

    fn assemble(
        &self,
        plans: Vec<BatchPlan>,
        outcomes: Vec<BatchOutcome>,
        rejected: Vec<(JobId, RejectReason)>,
    ) -> ServiceReport {
        let mut slot_free = vec![0.0f64; self.config.device_slots];
        let mut tally = MetricsTally::default();
        let mut results = Vec::new();
        let mut batches = Vec::new();
        let mut first_arrival = f64::INFINITY;
        let mut last_completion = 0.0f64;

        for (plan, outcome) in plans.iter().zip(outcomes) {
            // A multi-slot batch starts when *all* its reserved slots are
            // free and occupies every one of them until it completes.
            let start = plan
                .slots()
                .map(|s| slot_free[s])
                .fold(plan.ready_ms, f64::max);
            let end = start + outcome.duration_ms;
            for s in plan.slots() {
                slot_free[s] = end;
            }
            last_completion = last_completion.max(end);

            let summary = BatchSummary {
                id: plan.id,
                slot: plan.slot,
                slots: plan.slot_count(),
                shards: outcome.shards,
                engine: plan.engine.name().to_string(),
                jobs: plan.jobs.len(),
                elements: plan.elements(),
                capacity: plan.capacity(),
                occupancy: plan.occupancy(),
                start_ms: start,
                duration_ms: outcome.duration_ms,
            };
            let shard_skew = (plan.engine == Engine::ShardedGpu).then_some(outcome.shard_skew);
            tally.record_batch(&summary, outcome.wall_ms, shard_skew);
            batches.push(summary);

            for (job, output) in plan.jobs.iter().zip(outcome.outputs) {
                first_arrival = first_arrival.min(job.arrival_ms);
                results.push(JobResult {
                    id: job.id,
                    tenant: job.tenant,
                    kind: job.kind.clone(),
                    output,
                    engine: plan.engine,
                    batch: plan.id,
                    queue_ms: start - job.arrival_ms,
                    latency_ms: end - job.arrival_ms,
                    batch_wall_ms: outcome.wall_ms,
                });
            }
        }
        results.sort_by_key(|r| r.id);
        for r in &results {
            tally.record_job(r);
        }
        tally.record_rejected(rejected.len());

        // A run that completes nothing has no meaningful span; the tally's
        // `ratio`s keep every derived rate at a finite 0.0 for it (and for
        // a run of only zero-duration work).
        if !results.is_empty() {
            tally.record_makespan((last_completion - first_arrival).max(0.0));
        }

        ServiceReport {
            results,
            rejected,
            batches,
            metrics: self.finish(&tally),
            tally,
        }
    }

    /// The metrics of `tally` under this service's slots and policy.
    fn finish(&self, tally: &MetricsTally) -> ServiceMetrics {
        let crossover = self.policy.crossover().try_into().unwrap_or(u64::MAX);
        tally.finish(self.config.device_slots, crossover)
    }

    /// Open (or create) the write-ahead log in `dir`, replay it, and
    /// re-run every admitted-but-unacknowledged job through this service.
    ///
    /// Recovery is **idempotent and at-least-once**: jobs whose
    /// `COMPLETED`/`REJECTED` acknowledgement made it to disk are skipped;
    /// jobs whose admission record is intact but whose acknowledgement is
    /// missing are re-executed in admission order. A torn tail (a partial
    /// record left by a crash mid-append) is detected via its checksum and
    /// physically truncated — never replayed — while corruption in a
    /// *sealed* segment surfaces as [`WalError::Corrupt`]. After the
    /// replayed jobs finish, matching acknowledgements are appended and
    /// the log is fsynced, so a crash loop converges instead of replaying
    /// the same jobs forever.
    ///
    /// The returned [`RecoveredService`] carries the replay's
    /// [`ServiceReport`] (the recovery counters are recorded once into its
    /// tally, and its metrics are finished from that tally) and the live
    /// [`Wal`], positioned to append records for new traffic. `docs/DURABILITY.md` documents the full recovery state
    /// machine.
    pub fn recover(
        &self,
        dir: impl AsRef<std::path::Path>,
        config: WalConfig,
    ) -> std::result::Result<RecoveredService, WalError> {
        let recovery = Wal::open(dir, config)?;
        let wal::Recovery {
            mut wal,
            pending,
            stats,
        } = recovery;

        let jobs: Vec<SortJob> = pending
            .iter()
            .map(|j| SortJob {
                id: j.job_id,
                tenant: j.tenant,
                arrival_ms: j.arrival_ms,
                values: j.values.clone(),
                hint: j.hint,
                // The wire/WAL record format predates job kinds; everything
                // recovered replays as a plain sort.
                kind: JobKind::Sort,
            })
            .collect();

        let mut report = if jobs.is_empty() {
            self.assemble(Vec::new(), Vec::new(), Vec::new())
        } else {
            self.process(jobs).map_err(|e| {
                WalError::Io(std::io::Error::other(format!(
                    "recovery replay failed: {e}"
                )))
            })?
        };

        for result in &report.results {
            wal.append_completed(result.id)?;
        }
        for &(id, reason) in &report.rejected {
            wal.append_rejected(id, reason)?;
        }
        wal.sync()?;

        report.tally.record_recovery(&stats);
        report.metrics = self.finish(&report.tally);

        Ok(RecoveredService { report, wal, stats })
    }
}

/// The outcome of [`SortService::recover`]: the replay's report plus the
/// live write-ahead log, positioned to append records for new traffic.
pub struct RecoveredService {
    /// Report of re-running the replayed jobs (empty when the log was
    /// clean). Its tally, and so its metrics, carry `recovered_jobs` /
    /// `replayed_bytes` / `torn_tail_truncated`.
    pub report: ServiceReport,
    /// The open log; the caller keeps appending to it for new jobs.
    pub wal: Wal,
    /// Raw recovery statistics from the log scan.
    pub stats: wal::RecoveryStats,
}

/// Mutable planning state (phase 1).
///
/// Queued jobs are bucketed by their padded segment size ("class"), so a
/// coalesced batch only carries equally padded segments and occupancy
/// stays ≥ ½ (heterogeneous batches would pad every small job to the
/// largest one's segment). Within a class, tenants are drained round-robin.
struct Planner<'a> {
    config: &'a ServiceConfig,
    policy: &'a SortPolicy,
    /// Per-segment-class fair queues.
    classes: std::collections::BTreeMap<usize, TenantQueues>,
    admission: AdmissionController,
    slot_free_est: Vec<f64>,
    plans: Vec<BatchPlan>,
    rejected: Vec<(JobId, RejectReason)>,
    /// Jobs at or above this size are dispatched solo.
    solo_cutoff: usize,
}

impl Planner<'_> {
    fn queued_jobs(&self) -> usize {
        self.classes.values().map(TenantQueues::jobs).sum()
    }

    fn queued_bytes(&self) -> usize {
        self.classes.values().map(TenantQueues::bytes).sum()
    }

    fn min_slot_free(&self) -> f64 {
        self.slot_free_est
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// The earliest time some class wants to close a batch, or `None`.
    ///
    /// A class asks to close when it can fill the configured batch
    /// capacity, or when its oldest job has waited a full batch window.
    /// Either way the close is deferred until a device slot is *estimated*
    /// free — batches are formed when they can start, so later arrivals
    /// (fairly interleaved across tenants) still make it into the next
    /// batch instead of queueing behind a pre-planned backlog.
    fn next_close(&self) -> Option<(usize, f64)> {
        let slot_free = self.min_slot_free();
        self.classes
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&class, q)| {
                let oldest = q.oldest_arrival_ms().expect("non-empty class");
                let capacity_full = class * q.jobs() >= self.config.max_batch_elements;
                let want = if capacity_full {
                    oldest
                } else {
                    oldest + self.config.batch_window_ms
                };
                (class, want.max(slot_free))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    fn on_arrival(&mut self, job: SortJob) {
        let now = job.arrival_ms;
        // Close every batch that is due before this arrival.
        while let Some((class, at)) = self.next_close() {
            if at <= now {
                self.close_batch(class, at);
            } else {
                break;
            }
        }

        if let Err(reason) =
            self.admission
                .admit(now, &job, self.queued_jobs(), self.queued_bytes())
        {
            self.rejected.push((job.id, reason));
            return;
        }
        let class = batch::segment_for(job.len());
        // A job whose padded segment alone exceeds the batch bound cannot
        // be coalesced without violating it — it goes solo like any large
        // job. Non-coalescing kinds (top-k, percentile) always go solo:
        // their outputs are not full sorted segments.
        if !self.config.coalescing
            || !job.kind.coalesces()
            || job.len() >= self.solo_cutoff
            || class > self.config.max_batch_elements
        {
            self.dispatch_solo(job, now);
            return;
        }
        self.classes.entry(class).or_default().push(job);
        while let Some((class, at)) = self.next_close() {
            if at <= now {
                self.close_batch(class, at);
            } else {
                break;
            }
        }
    }

    /// End of input: close everything that is still queued, in due order.
    fn drain(&mut self) {
        while let Some((class, at)) = self.next_close() {
            self.close_batch(class, at);
        }
    }

    /// Form one batch from `class` (round-robin across tenants) and
    /// schedule it no earlier than `at`.
    fn close_batch(&mut self, class: usize, at: f64) {
        let queue = self.classes.get_mut(&class).expect("known class");
        // Segment counts are padded to a power of two, so cap the job count
        // at the largest power of two whose capacity fits the batch bound.
        let cap = (self.config.max_batch_elements / class).max(1);
        let max_jobs = if cap.is_power_of_two() {
            cap
        } else {
            cap.next_power_of_two() / 2
        };
        let mut builder = BatchBuilder::new();
        while builder.len() < max_jobs {
            match queue.pop_fair() {
                Some(job) => builder.push(job),
                None => break,
            }
        }
        if queue.is_empty() {
            self.classes.remove(&class);
        }
        if builder.is_empty() {
            return;
        }
        let (jobs, segment_len, segments) = builder.take();
        // A deferred close may pick up jobs that arrived while the slots
        // were busy; the batch cannot be ready before its youngest job.
        let ready = jobs.iter().map(|j| j.arrival_ms).fold(at, f64::max);
        self.schedule(jobs, segment_len, segments, ready);
    }

    fn dispatch_solo(&mut self, job: SortJob, now: f64) {
        let segment_len = batch::segment_for(job.len());
        self.schedule(vec![job], segment_len, 1, now);
    }

    fn schedule(&mut self, jobs: Vec<SortJob>, segment_len: usize, segments: usize, now: f64) {
        let lens_hints: Vec<(usize, Option<Distribution>)> =
            jobs.iter().map(|j| (j.len(), j.hint)).collect();
        // Query kinds always dispatch solo (see `on_arrival`), so the
        // kind of the first job decides for the whole batch. Top-k needs
        // the early-exit bitonic recursion only the single-device GPU
        // engine implements (out-of-core jobs still fall back to terasort
        // + truncate); percentiles are a host histogram pass, labelled as
        // CPU work.
        let engine = match jobs.first().map(|j| &j.kind) {
            Some(JobKind::TopK(_)) => {
                match self.policy.select_single(jobs[0].len(), jobs[0].hint) {
                    Engine::TeraSort => Engine::TeraSort,
                    _ => Engine::GpuAbiSort,
                }
            }
            Some(JobKind::Percentile(_)) => Engine::CpuQuicksort,
            _ => self.policy.select_batch(&lens_hints, segment_len, segments),
        };
        let est_ms = match jobs.first().map(|j| &j.kind) {
            Some(&JobKind::TopK(k)) if engine == Engine::GpuAbiSort => {
                self.policy.est_top_k_ms(jobs[0].len(), k)
            }
            Some(JobKind::Percentile(_)) => self.policy.est_scan_ms(jobs[0].len()),
            _ => self
                .policy
                .est_batch_ms(engine, &lens_hints, segment_len, segments),
        };

        // A sharded batch reserves one slot per shard; everything else
        // pins to the single slot with the earliest estimated free time.
        // Reservations and single-slot batches interleave through the same
        // slot-free estimates, so a multi-slot reservation waits for (and
        // is waited on by) ordinary batches deterministically.
        let want = if engine == Engine::ShardedGpu {
            self.policy.shard_slots().min(self.slot_free_est.len())
        } else {
            1
        };
        let mut order: Vec<usize> = (0..self.slot_free_est.len()).collect();
        order.sort_by(|&a, &b| self.slot_free_est[a].total_cmp(&self.slot_free_est[b]));
        let chosen = &order[..want];
        // Every reserved slot must be free before the batch can start.
        let start_est = chosen
            .iter()
            .map(|&s| self.slot_free_est[s])
            .fold(now, f64::max);
        for &s in chosen {
            self.slot_free_est[s] = start_est + est_ms;
        }

        let bytes: usize = jobs.iter().map(SortJob::bytes).sum();
        self.admission.on_scheduled(start_est + est_ms, bytes);

        self.plans.push(BatchPlan {
            id: self.plans.len(),
            slot: chosen[0],
            extra_slots: chosen[1..].to_vec(),
            engine,
            ready_ms: now,
            est_ms,
            segment_len,
            segments,
            jobs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One shared calibration for all service tests (calibration runs probe
    /// sorts; no need to repeat it per test).
    fn shared_policy() -> SortPolicy {
        static POLICY: OnceLock<SortPolicy> = OnceLock::new();
        POLICY
            .get_or_init(|| {
                SortPolicy::calibrate(
                    &GpuProfile::geforce_7800(),
                    &SortConfig::default(),
                    &PolicyConfig::default(),
                )
            })
            .clone()
    }

    fn service(config: ServiceConfig) -> SortService {
        SortService::with_policy(config, shared_policy())
    }

    fn small_mix_jobs(jobs: usize, seed: u64) -> Vec<SortJob> {
        SortJob::from_requests(workloads::RequestMix::small_job_heavy(jobs).generate(seed))
    }

    fn test_config() -> ServiceConfig {
        ServiceConfig {
            max_batch_elements: 4096,
            ..ServiceConfig::default()
        }
    }

    fn assert_outputs_correct(jobs: &[SortJob], report: &ServiceReport) {
        let rejected: std::collections::HashSet<JobId> =
            report.rejected.iter().map(|&(id, _)| id).collect();
        assert_eq!(
            report.results.len() + rejected.len(),
            jobs.len(),
            "every job completes or is rejected"
        );
        let mut results = report.results.iter();
        for job in jobs {
            if rejected.contains(&job.id) {
                continue;
            }
            let result = results.next().expect("result for admitted job");
            assert_eq!(result.id, job.id);
            let mut expected = job.values.clone();
            expected.sort();
            assert_eq!(result.output, expected, "job {}", job.id);
        }
    }

    #[test]
    fn service_sorts_a_mixed_stream_correctly() {
        let jobs = small_mix_jobs(40, 3);
        let report = service(test_config()).process(jobs.clone()).unwrap();
        assert_outputs_correct(&jobs, &report);
        assert!(report.metrics.batches > 0);
        assert!(report.metrics.throughput_kelems_per_s > 0.0);
        assert!(report.metrics.latency_p99_ms >= report.metrics.latency_p50_ms);
    }

    #[test]
    fn service_runs_are_deterministic() {
        let jobs = small_mix_jobs(30, 11);
        let svc = service(test_config());
        let a = svc.process(jobs.clone()).unwrap();
        let b = svc.process(jobs).unwrap();
        assert_eq!(a.metrics.latency_p99_ms, b.metrics.latency_p99_ms);
        assert_eq!(a.metrics.makespan_ms, b.metrics.makespan_ms);
        assert_eq!(a.batches.len(), b.batches.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.output, y.output);
            assert_eq!(x.latency_ms, y.latency_ms);
        }
    }

    #[test]
    fn coalescing_beats_one_job_per_launch_submission() {
        // The acceptance scenario: a small-job-heavy stream sent to the
        // device either coalesced (segmented batches) or one job per
        // launch set. The policy is pinned to the GPU on both sides so the
        // comparison isolates the launch-overhead amortization.
        let all_gpu = |coalescing: bool| {
            SortService::new(ServiceConfig {
                coalescing,
                policy: PolicyConfig {
                    crossover_override: Some(0),
                    ..PolicyConfig::default()
                },
                ..ServiceConfig::default()
            })
        };
        let jobs: Vec<SortJob> = (0..96)
            .map(|i| {
                SortJob::new(
                    i,
                    (i % 4) as u32,
                    workloads::uniform(140 + (i as usize % 100), i),
                )
                .arriving_at(i as f64 * 0.02)
            })
            .collect();
        let coalesced = all_gpu(true).process(jobs.clone()).unwrap();
        let naive = all_gpu(false).process(jobs).unwrap();
        assert_eq!(coalesced.metrics.gpu_jobs, 96);
        assert_eq!(naive.metrics.gpu_jobs, 96);
        assert!(
            coalesced.metrics.throughput_kelems_per_s > 2.0 * naive.metrics.throughput_kelems_per_s,
            "coalesced {:.1} kelem/s must clearly beat naive {:.1} kelem/s",
            coalesced.metrics.throughput_kelems_per_s,
            naive.metrics.throughput_kelems_per_s
        );
        assert!(coalesced.metrics.mean_jobs_per_batch > naive.metrics.mean_jobs_per_batch);
        assert!(coalesced.metrics.batches < naive.metrics.batches);
    }

    #[test]
    fn tenant_fairness_interleaves_a_flood_with_light_traffic() {
        // Tenant 0 floods 40 equal-sized jobs at t=0 — far more than one
        // batch — and tenant 1 submits 4 jobs shortly after, while the
        // single device slot is still busy with the first batch. Fair
        // (round-robin) batch filling must interleave the light tenant into
        // the *next* batch instead of queueing it behind the flood.
        let mut jobs: Vec<SortJob> = (0..40)
            .map(|i| SortJob::new(i, 0, workloads::uniform(200, i)))
            .collect();
        for i in 0..4 {
            jobs.push(SortJob::new(1000 + i, 1, workloads::uniform(200, 77 + i)).arriving_at(0.01));
        }
        let config = ServiceConfig {
            device_slots: 1,
            max_batch_elements: 2048, // 8 jobs of class 256 per batch
            ..ServiceConfig::default()
        };
        let report = service(config).process(jobs).unwrap();
        let light_batches: Vec<usize> = report
            .results
            .iter()
            .filter(|r| r.tenant == 1)
            .map(|r| r.batch)
            .collect();
        assert_eq!(light_batches.len(), 4);
        assert!(
            light_batches.iter().all(|&b| b <= 1),
            "light tenant stuck behind the flood: batches {light_batches:?}"
        );
    }

    #[test]
    fn backpressure_rejects_beyond_the_queue_bound() {
        let config = ServiceConfig {
            max_queued_jobs: 8,
            batch_window_ms: 1000.0, // nothing closes early
            ..test_config()
        };
        // 20 tiny jobs all arriving at t=0: at most 8 fit the queue.
        let jobs: Vec<SortJob> = (0..20)
            .map(|i| SortJob::new(i, 0, workloads::uniform(32, i)))
            .collect();
        let report = service(config).process(jobs).unwrap();
        assert!(
            report.metrics.jobs_rejected >= 12,
            "expected rejections, got {}",
            report.metrics.jobs_rejected
        );
        assert_eq!(
            report.metrics.jobs_completed + report.metrics.jobs_rejected,
            20
        );
        assert!(report
            .rejected
            .iter()
            .all(|&(_, r)| r == RejectReason::QueueFull));
    }

    #[test]
    fn memory_backpressure_rejects_oversized_influx() {
        let config = ServiceConfig {
            max_inflight_bytes: 8 * 1024, // 1k elements
            ..test_config()
        };
        let jobs: Vec<SortJob> = (0..6)
            .map(|i| SortJob::new(i, i as u32, workloads::uniform(512, i)))
            .collect();
        let report = service(config).process(jobs).unwrap();
        assert!(report
            .rejected
            .iter()
            .any(|&(_, r)| r == RejectReason::MemoryPressure));
    }

    #[test]
    fn jobs_padding_beyond_the_batch_bound_go_solo() {
        // A 3000-element job pads to a 4096 segment — larger than this
        // config's whole batch bound, but below the large-job cutoff. It
        // must be dispatched solo rather than in a "coalesced" batch that
        // exceeds max_batch_elements.
        let config = ServiceConfig {
            max_batch_elements: 2048,
            ..ServiceConfig::default()
        };
        let jobs = vec![
            SortJob::new(0, 0, workloads::uniform(3000, 1)),
            SortJob::new(1, 0, workloads::uniform(3000, 2)),
        ];
        let report = service(config).process(jobs.clone()).unwrap();
        assert_outputs_correct(&jobs, &report);
        assert_eq!(report.batches.len(), 2);
        for batch in &report.batches {
            assert_eq!(batch.jobs, 1, "must not coalesce past the bound");
        }
    }

    #[test]
    fn out_of_core_jobs_route_to_terasort() {
        let config = ServiceConfig {
            policy: PolicyConfig {
                out_of_core_threshold: 3000,
                ..PolicyConfig::default()
            },
            tera_run_size: 2048,
            ..test_config()
        };
        // Needs its own policy (non-default out-of-core threshold).
        let svc = SortService::new(config);
        let jobs = vec![
            SortJob::new(0, 0, workloads::uniform(5000, 1)),
            SortJob::new(1, 0, workloads::uniform(100, 2)),
        ];
        let report = svc.process(jobs.clone()).unwrap();
        assert_outputs_correct(&jobs, &report);
        assert_eq!(report.results[0].engine, Engine::TeraSort);
        assert_eq!(report.metrics.tera_jobs, 1);
    }

    #[test]
    fn empty_job_and_empty_run_are_handled() {
        let svc = service(test_config());
        let empty_run = svc.process(Vec::new()).unwrap();
        assert_eq!(empty_run.metrics.jobs_completed, 0);
        assert_eq!(empty_run.metrics.makespan_ms, 0.0);

        let jobs = vec![
            SortJob::new(0, 0, Vec::new()),
            SortJob::new(1, 0, workloads::uniform(1, 1)),
        ];
        let report = svc.process(jobs).unwrap();
        assert_eq!(report.results[0].output, Vec::new());
        assert_eq!(report.results[1].output.len(), 1);
    }

    /// A service whose policy shards everything above 2000 elements over
    /// its device slots (forced threshold: debug-mode sizes).
    fn sharded_service(device_slots: usize) -> SortService {
        SortService::new(ServiceConfig {
            device_slots,
            policy: PolicyConfig {
                sharded_min_override: Some(2000),
                ..PolicyConfig::default()
            },
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn large_jobs_route_to_the_sharded_engine_and_reserve_slots() {
        let svc = sharded_service(4);
        let jobs = vec![
            SortJob::new(0, 0, workloads::uniform(6000, 1)),
            SortJob::new(1, 1, workloads::uniform(100, 2)),
        ];
        let report = svc.process(jobs.clone()).unwrap();
        assert_outputs_correct(&jobs, &report);
        assert_eq!(report.results[0].engine, Engine::ShardedGpu);
        assert_eq!(report.metrics.sharded_jobs, 1);
        assert_eq!(report.metrics.sharded_batches, 1);
        assert!(report.metrics.shard_skew_max >= 1.0);
        let sharded = report
            .batches
            .iter()
            .find(|b| b.engine == "sharded-gpu")
            .expect("a sharded batch");
        assert_eq!(sharded.slots, 4);
        assert_eq!(sharded.shards, 4);
    }

    #[test]
    fn sharded_reservations_interleave_deterministically_with_small_batches() {
        // A sharded job reserving both slots plus a stream of small jobs:
        // the timeline must replay identically across runs, and the
        // sharded batch must occupy every slot it reserved.
        let svc = sharded_service(2);
        let mut jobs = vec![SortJob::new(0, 0, workloads::uniform(4000, 3))];
        for i in 0..12 {
            jobs.push(
                SortJob::new(1 + i, 1 + (i % 2) as u32, workloads::uniform(200, 10 + i))
                    .arriving_at(0.01 * (i + 1) as f64),
            );
        }
        let a = svc.process(jobs.clone()).unwrap();
        let b = svc.process(jobs.clone()).unwrap();
        assert_outputs_correct(&jobs, &a);
        assert_eq!(a.metrics.makespan_ms, b.metrics.makespan_ms);
        assert_eq!(a.metrics.latency_p99_ms, b.metrics.latency_p99_ms);
        for (x, y) in a.batches.iter().zip(&b.batches) {
            assert_eq!(x.start_ms, y.start_ms);
            assert_eq!(x.duration_ms, y.duration_ms);
        }
        assert_eq!(a.metrics.sharded_jobs, 1);
        // The sharded batch blocks both slots while it runs: no other
        // batch may overlap it in simulated time.
        let sharded = a
            .batches
            .iter()
            .find(|b| b.engine == "sharded-gpu")
            .unwrap();
        let (s0, e0) = (sharded.start_ms, sharded.start_ms + sharded.duration_ms);
        for other in a.batches.iter().filter(|b| b.id != sharded.id) {
            let (s1, e1) = (other.start_ms, other.start_ms + other.duration_ms);
            assert!(
                e1 <= s0 + 1e-9 || s1 >= e0 - 1e-9,
                "batch {} overlaps the full-width sharded batch",
                other.id
            );
        }
    }

    #[test]
    fn single_slot_service_still_handles_sharded_routed_jobs() {
        // shard_slots clamps to the one available slot: the job degrades
        // to a single-shard sort and stays correct.
        let svc = sharded_service(1);
        let jobs = vec![SortJob::new(0, 0, workloads::uniform(5000, 9))];
        let report = svc.process(jobs.clone()).unwrap();
        assert_outputs_correct(&jobs, &report);
        assert_ne!(
            report.results[0].engine,
            Engine::ShardedGpu,
            "a single-slot service must not calibrate the sharded route in"
        );
    }

    #[test]
    fn zero_admitted_runs_report_finite_metrics() {
        // Regression: a run that admits nothing (or only zero-duration
        // work) must report 0.0 rates — not NaN or ∞ — so JSON reports
        // stay valid.
        let config = ServiceConfig {
            max_inflight_bytes: 0, // every non-empty job is rejected
            ..test_config()
        };
        let jobs: Vec<SortJob> = (0..5)
            .map(|i| SortJob::new(i, 0, workloads::uniform(64, i)))
            .collect();
        let report = service(config).process(jobs).unwrap();
        assert_eq!(report.metrics.jobs_completed, 0);
        assert_eq!(report.metrics.jobs_rejected, 5);

        // All-empty jobs complete instantly: zero-duration span.
        let empties: Vec<SortJob> = (0..3).map(|i| SortJob::new(i, 0, Vec::new())).collect();
        let zero_span = service(test_config()).process(empties).unwrap();
        assert_eq!(zero_span.metrics.jobs_completed, 3);

        for m in [&report.metrics, &zero_span.metrics] {
            for (name, v) in [
                ("throughput_jobs_per_s", m.throughput_jobs_per_s),
                ("throughput_kelems_per_s", m.throughput_kelems_per_s),
                ("latency_mean_ms", m.latency_mean_ms),
                ("latency_p50_ms", m.latency_p50_ms),
                ("latency_p99_ms", m.latency_p99_ms),
                ("queue_mean_ms", m.queue_mean_ms),
                ("mean_batch_occupancy", m.mean_batch_occupancy),
                ("mean_jobs_per_batch", m.mean_jobs_per_batch),
                ("device_utilization", m.device_utilization),
                ("makespan_ms", m.makespan_ms),
                ("shard_skew_max", m.shard_skew_max),
            ] {
                assert!(v.is_finite(), "{name} must be finite, got {v}");
            }
            let json = serde_json::to_string(m).unwrap();
            assert!(
                !json.contains("NaN") && !json.contains("inf"),
                "metrics JSON must stay numeric: {json}"
            );
        }
        assert_eq!(report.metrics.device_utilization, 0.0);
        assert_eq!(report.metrics.latency_p50_ms, 0.0);
        assert_eq!(report.metrics.latency_p99_ms, 0.0);
    }

    #[test]
    fn policy_crossover_is_visible_in_metrics() {
        let jobs = small_mix_jobs(10, 1);
        let report = service(test_config()).process(jobs).unwrap();
        assert_eq!(
            report.metrics.policy_crossover,
            shared_policy().crossover() as u64
        );
    }
}
