//! The engine-selection policy and its calibration.
//!
//! Section 8 of the paper establishes that *which* sorter wins is a
//! function of problem size: the CPU quicksort beats the GPU below roughly
//! 32k keys (stream-operation launch overhead dominates small problems),
//! GPU-ABiSort wins above, and out-of-core problems need the hybrid
//! terasort pipeline. [`SortPolicy`] lifts that observation into the
//! serving layer: at construction it *measures* the simulator under the
//! service's [`GpuProfile`] with a few small probe sorts, fits the launch
//! overhead / per-element work decomposition the paper's cost model is
//! built from, and derives
//!
//! * a CPU/GPU **crossover size** for single jobs,
//! * a **batched-launch estimate** `est_gpu_batch_ms(segment_len,
//!   segments)` that charges the stream operations of sorting *one*
//!   segment regardless of the segment count (the amortization
//!   [`abisort::GpuAbiSorter::sort_segments_run`] realises), and
//! * a data-dependence adjustment for the CPU estimate from the job's
//!   distribution hint (the E10 experiment: quicksort's running time is
//!   data dependent, the GPU's is not).

use abisort::{GpuAbiSorter, SortConfig};
use baselines::{CpuSortModel, CpuSorter};
use stream_arch::{DeviceLink, GpuProfile, StreamElement, StreamProcessor, Value};
use terasort::DiskProfile;
use workloads::Distribution;

/// The sorting engines the service can dispatch a batch to.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The sequential CPU quicksort baseline (`baselines::CpuSorter`).
    CpuQuicksort,
    /// GPU-ABiSort on the stream-processor simulator, batched via
    /// segmented launches.
    GpuAbiSort,
    /// One large sort spread over several device slots
    /// ([`crate::ShardedSorter`]): splitter partition, concurrent shard
    /// sorts, tournament p-way recombination.
    ShardedGpu,
    /// The hybrid out-of-core pipeline (`terasort`).
    TeraSort,
}

impl Engine {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::CpuQuicksort => "cpu-quicksort",
            Engine::GpuAbiSort => "gpu-abisort",
            Engine::ShardedGpu => "sharded-gpu",
            Engine::TeraSort => "terasort",
        }
    }
}

/// Configuration of the policy calibration.
#[derive(Clone, Debug)]
pub struct PolicyConfig {
    /// CPU time model used for the quicksort engine estimates.
    pub cpu_model: CpuSortModel,
    /// Jobs at or above this size are routed to the out-of-core pipeline.
    /// The default (`usize::MAX`) disables the route; the service clamps it
    /// to what fits a device stream.
    pub out_of_core_threshold: usize,
    /// Force the CPU/GPU crossover instead of calibrating it (useful for
    /// experiments: `Some(0)` sends everything to the GPU).
    pub crossover_override: Option<usize>,
    /// log₂ of the three GPU probe-sort sizes (must be distinct and ≥ 5).
    pub probe_log_sizes: [u32; 3],
    /// log₂ of the CPU probe-sort size.
    pub cpu_probe_log_size: u32,
    /// Disk profile of the out-of-core engine (used both to execute
    /// terasort batches and to estimate their duration).
    pub tera_disk: DiskProfile,
    /// Device slots a sharded submission may spread over. `1` (the
    /// default) disables the [`Engine::ShardedGpu`] route; the service
    /// sets this to its slot count when sharding is enabled.
    pub shard_slots: usize,
    /// Force the sharded minimum size instead of calibrating it
    /// (`Some(0)` shards everything the size rules allow — the knob the
    /// sharded property tests and scaling experiments use).
    pub sharded_min_override: Option<usize>,
    /// Inter-device link charged for shard recombination. `None` derives a
    /// host-staged link from the calibration profile's bus.
    pub device_link: Option<DeviceLink>,
    /// Sustained host-memory bandwidth in GB/s charged for the sharded
    /// engine's streaming partition pass.
    pub host_bandwidth_gbs: f64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            cpu_model: CpuSortModel::athlon_64_4200(),
            out_of_core_threshold: usize::MAX,
            crossover_override: None,
            probe_log_sizes: [6, 8, 10],
            cpu_probe_log_size: 12,
            tera_disk: DiskProfile::hdd_2006(),
            shard_slots: 1,
            sharded_min_override: None,
            device_link: None,
            host_bandwidth_gbs: 3.2,
        }
    }
}

/// The calibrated policy.
///
/// ```
/// use abisort::SortConfig;
/// use sortsvc::{PolicyConfig, SortPolicy};
/// use stream_arch::GpuProfile;
///
/// let policy = SortPolicy::calibrate(
///     &GpuProfile::geforce_7800(),
///     &SortConfig::default(),
///     &PolicyConfig::default(),
/// );
/// // Probe sorts fit the launch-overhead/per-element decomposition and
/// // derive the paper's Section-8 crossover: CPU quicksort below it,
/// // GPU-ABiSort above.
/// assert!(policy.crossover() > 0);
/// assert!(policy.est_cpu_ms(100, None) < policy.est_cpu_ms(100_000, None));
/// ```
#[derive(Clone, Debug)]
pub struct SortPolicy {
    cpu_model: CpuSortModel,
    /// ms of launch overhead charged per stream operation.
    op_overhead_ms: f64,
    /// Coefficients of the fitted stream-operation count
    /// `steps(L) ≈ s0 + s1·L + s2·L²` for a sort whose independently
    /// sorted blocks have `2^L` elements (quadratic in `L` under the
    /// overlapped schedule of Section 5.4).
    steps_fit: [f64; 3],
    /// Fitted per-element body cost: `body_ms ≈ w · n · L²`.
    work_ms_per_elem_l2: f64,
    /// Fitted CPU cost: `cpu_ms ≈ c · n · log₂ n` for uniform input.
    cpu_ms_per_elem_log: f64,
    /// Single-job CPU/GPU crossover size (elements).
    crossover: usize,
    /// True when the crossover was forced by configuration: engine
    /// selection then uses the size rule alone instead of the estimates.
    crossover_forced: bool,
    /// Jobs at or above this size go out of core.
    out_of_core_threshold: usize,
    /// Disk profile of the out-of-core engine.
    tera_disk: DiskProfile,
    /// Device slots a sharded submission spreads over (1 ⇒ disabled).
    shard_slots: usize,
    /// Jobs at or above this size route to [`Engine::ShardedGpu`]
    /// (`usize::MAX` ⇒ never).
    sharded_min: usize,
    /// The inter-device link sharded estimates and executions charge.
    device_link: DeviceLink,
    /// Host-memory bandwidth (GB/s) of the sharded partition pass.
    host_bandwidth_gbs: f64,
}

impl SortPolicy {
    /// Calibrate a policy for `profile` by running probe sorts on a scratch
    /// [`StreamProcessor`]. Deterministic: probes use fixed seeds.
    pub fn calibrate(profile: &GpuProfile, sort_config: &SortConfig, cfg: &PolicyConfig) -> Self {
        assert!(
            cfg.probe_log_sizes.windows(2).all(|w| w[0] < w[1]),
            "probe_log_sizes must be strictly increasing (distinct sizes \
             are required by the quadratic fit, ascending order by the \
             per-element coefficient)"
        );
        let mut proc = StreamProcessor::new(profile.clone());
        let sorter = GpuAbiSorter::new(*sort_config);

        // --- GPU probes: decompose sim time into overhead and body -------
        let op_overhead_ms = profile.op_overhead_us / 1_000.0;
        let mut points = [[0.0f64; 2]; 3]; // (L, steps)
        let mut work_samples = Vec::new();
        for (slot, &log_n) in cfg.probe_log_sizes.iter().enumerate() {
            let n = 1usize << log_n;
            let input = workloads::uniform(n, 0xC0FFEE + log_n as u64);
            let run = sorter
                .sort_run(&mut proc, &input)
                .expect("policy calibration probe sort failed");
            let steps = run.counters.effective_ops(profile.multi_block_substreams) as f64;
            points[slot] = [log_n as f64, steps];
            let body_ms = (run.sim_time.total_ms - steps * op_overhead_ms).max(1e-9);
            work_samples.push(body_ms / (n as f64 * (log_n as f64).powi(2)));
        }
        let steps_fit = fit_quadratic(points);
        // The largest probe dominates: it has the best signal-to-noise on
        // the per-element term.
        let work_ms_per_elem_l2 = *work_samples.last().expect("at least one probe");

        // --- CPU probe ---------------------------------------------------
        let cpu_n = 1usize << cfg.cpu_probe_log_size;
        let (_, stats) = CpuSorter.sort(&workloads::uniform(cpu_n, 0xBEEF));
        let cpu_ms = cfg.cpu_model.time_ms(&stats);
        let cpu_ms_per_elem_log = cpu_ms / (cpu_n as f64 * cfg.cpu_probe_log_size as f64);

        let mut policy = SortPolicy {
            cpu_model: cfg.cpu_model,
            op_overhead_ms,
            steps_fit,
            work_ms_per_elem_l2,
            cpu_ms_per_elem_log,
            crossover: 0,
            crossover_forced: cfg.crossover_override.is_some(),
            out_of_core_threshold: cfg.out_of_core_threshold,
            tera_disk: cfg.tera_disk,
            shard_slots: cfg.shard_slots.max(1),
            sharded_min: usize::MAX,
            device_link: cfg
                .device_link
                .unwrap_or(DeviceLink::host_staged(profile.bus)),
            host_bandwidth_gbs: cfg.host_bandwidth_gbs,
        };
        policy.crossover = match cfg.crossover_override {
            Some(n) => n,
            None => policy.search_crossover(),
        };
        policy.sharded_min = match cfg.sharded_min_override {
            Some(n) => n,
            None => policy.search_sharded_min(),
        };
        policy
    }

    /// Smallest power of two where the estimated single-job GPU time drops
    /// below the estimated CPU time.
    fn search_crossover(&self) -> usize {
        let mut n = 16usize;
        while n <= (1 << 24) {
            if self.est_gpu_batch_ms(n, 1) <= self.est_cpu_ms(n, None) {
                return n;
            }
            n *= 2;
        }
        usize::MAX
    }

    /// Smallest power of two where sharding a job over the configured slot
    /// count beats the single-device submission *and* the device already
    /// beats the CPU (sharding a CPU-regime job only adds hops). Below the
    /// returned size the partition/transfer/merge overhead eats the
    /// parallel speed-up.
    fn search_sharded_min(&self) -> usize {
        if self.shard_slots < 2 {
            return usize::MAX;
        }
        let mut n = 1usize << 12;
        while n <= (1 << 26) {
            if self.est_sharded_ms(n) < self.est_gpu_batch_ms(n, 1)
                && self.est_gpu_batch_ms(n, 1) < self.est_cpu_ms(n, None)
            {
                return n;
            }
            n *= 2;
        }
        usize::MAX
    }

    /// The CPU time model backing the quicksort engine.
    pub fn cpu_model(&self) -> &CpuSortModel {
        &self.cpu_model
    }

    /// The calibrated single-job CPU/GPU crossover (elements).
    pub fn crossover(&self) -> usize {
        self.crossover
    }

    /// The out-of-core routing threshold (elements).
    pub fn out_of_core_threshold(&self) -> usize {
        self.out_of_core_threshold
    }

    /// Estimated CPU quicksort time for `len` elements, adjusted by the
    /// distribution hint (quicksort is data dependent — experiment E10).
    pub fn est_cpu_ms(&self, len: usize, hint: Option<Distribution>) -> f64 {
        if len < 2 {
            return 0.0;
        }
        let log = (len as f64).log2();
        self.cpu_ms_per_elem_log * len as f64 * log * hint_factor(hint)
    }

    /// Estimated simulated time of one *batched* GPU submission sorting
    /// `segments` independent segments of `segment_len` elements each: the
    /// launch overhead of sorting one segment (shared by all segments)
    /// plus per-element body work.
    pub fn est_gpu_batch_ms(&self, segment_len: usize, segments: usize) -> f64 {
        if segment_len < 2 || segments == 0 {
            return 0.0;
        }
        let l = (segment_len.next_power_of_two().trailing_zeros()) as f64;
        let [s0, s1, s2] = self.steps_fit;
        let steps = (s0 + s1 * l + s2 * l * l).max(1.0);
        let total = (segment_len * segments) as f64;
        steps * self.op_overhead_ms + self.work_ms_per_elem_l2 * total * l * l
    }

    /// Estimated simulated time of sorting `len` elements sharded over the
    /// configured slot count — the decomposition [`crate::ShardedSorter`]
    /// charges when it executes: a bandwidth-bound streaming partition,
    /// the dominant shard sort (quota padded to a power of two), the
    /// serialized inter-device gather hops, and the on-device tournament
    /// merge (the recursion levels above the shard blocks, priced from
    /// the same fitted steps/work model as [`Self::est_gpu_batch_ms`]).
    pub fn est_sharded_ms(&self, len: usize) -> f64 {
        let p = self.shard_slots.max(1);
        if len < 2 {
            return 0.0;
        }
        if p == 1 {
            return self.est_gpu_batch_ms(len.next_power_of_two(), 1);
        }
        let quota = len.div_ceil(p);
        let seg = quota.next_power_of_two();
        let total = seg * p.next_power_of_two();

        let elem_bytes = Value::BYTES;
        let partition_ms = (2 * len * elem_bytes) as f64 / (self.host_bandwidth_gbs * 1e9) * 1e3;
        let shard_ms = self.est_gpu_batch_ms(seg, 1);
        let gather_ms = (p - 1) as f64 * self.device_link.hop_ms((quota * elem_bytes) as u64);
        // The device merge runs levels log₂(seg)+1 ..= log₂(total): its
        // launch overhead is the fitted step-count difference and its body
        // work the L² difference of the fitted per-element cost.
        let (l_n, l_s) = (total.trailing_zeros() as f64, seg.trailing_zeros() as f64);
        let [s0, s1, s2] = self.steps_fit;
        let steps = |l: f64| (s0 + s1 * l + s2 * l * l).max(1.0);
        let merge_ms = (steps(l_n) - steps(l_s)).max(0.0) * self.op_overhead_ms
            + self.work_ms_per_elem_l2 * total as f64 * (l_n * l_n - l_s * l_s);

        partition_ms + shard_ms + gather_ms + merge_ms
    }

    /// Device slots the sharded route spreads over (1 ⇒ disabled).
    pub fn shard_slots(&self) -> usize {
        self.shard_slots
    }

    /// The sharded routing threshold (elements; `usize::MAX` ⇒ never).
    pub fn sharded_min(&self) -> usize {
        self.sharded_min
    }

    /// The inter-device link sharded executions are charged on.
    pub fn device_link(&self) -> DeviceLink {
        self.device_link
    }

    /// Host-memory bandwidth (GB/s) the sharded partition pass is charged
    /// at.
    pub fn host_bandwidth_gbs(&self) -> f64 {
        self.host_bandwidth_gbs
    }

    /// Rough estimate of the out-of-core pipeline: four streaming disk
    /// passes over the records (run formation read+write, external merge
    /// read+write) at the configured disk's sequential bandwidth, compute
    /// overlapped. Only used for slot scheduling, never for engine choice
    /// below the out-of-core threshold.
    pub fn est_tera_ms(&self, len: usize) -> f64 {
        let bytes = len as f64 * terasort::record::RECORD_BYTES as f64 * 4.0;
        bytes / (self.tera_disk.bandwidth_mb_s * 1e6) * 1_000.0
    }

    /// The disk profile the out-of-core engine runs on.
    pub fn tera_disk(&self) -> &DiskProfile {
        &self.tera_disk
    }

    /// Estimated simulated time of a GPU top-k over `len` elements: the
    /// early-exit recursion (`GpuAbiSorter::top_k_run`) sorts
    /// `padded / block` independent blocks of `block` elements — exactly
    /// the segmented-batch shape, priced by the same fitted model as
    /// [`Self::est_gpu_batch_ms`]. The block size is the sorter's
    /// [`GpuAbiSorter::top_k_block`].
    pub fn est_top_k_ms(&self, len: usize, k: usize) -> f64 {
        if len < 2 {
            return 0.0;
        }
        let padded = len.next_power_of_two();
        let block = GpuAbiSorter::top_k_block(padded, k.clamp(1, len));
        self.est_gpu_batch_ms(block, padded / block)
    }

    /// Estimated (and charged) duration of one linear streaming pass over
    /// `len` elements — the percentile histogram fold. Priced as the CPU
    /// sort model with the `log n` comparison factor stripped.
    pub fn est_scan_ms(&self, len: usize) -> f64 {
        self.cpu_ms_per_elem_log * len as f64
    }

    /// The same calibration with the crossover forced to `n`: engine
    /// selection then uses the size rule alone (`Some(0)` pins everything
    /// to the GPU — the coalescing-ablation knob).
    pub fn with_crossover(mut self, n: usize) -> Self {
        self.crossover = n;
        self.crossover_forced = true;
        self
    }

    /// Select the engine for a single job.
    pub fn select_single(&self, len: usize, hint: Option<Distribution>) -> Engine {
        if len >= self.out_of_core_threshold {
            return Engine::TeraSort;
        }
        if self.shard_slots > 1 && len >= self.sharded_min {
            return Engine::ShardedGpu;
        }
        if self.crossover_forced {
            return if len >= self.crossover {
                Engine::GpuAbiSort
            } else {
                Engine::CpuQuicksort
            };
        }
        if self.est_cpu_ms(len, hint) <= self.est_gpu_batch_ms(len.next_power_of_two(), 1) {
            Engine::CpuQuicksort
        } else {
            Engine::GpuAbiSort
        }
    }

    /// Select the engine for a coalesced batch whose segmented layout is
    /// `segments` (padded, power of two) segments of `segment_len`
    /// elements: the batched GPU submission versus sorting every job on
    /// the CPU.
    pub fn select_batch(
        &self,
        job_lens_and_hints: &[(usize, Option<Distribution>)],
        segment_len: usize,
        segments: usize,
    ) -> Engine {
        if let [(len, hint)] = job_lens_and_hints {
            return self.select_single(*len, *hint);
        }
        if self.crossover_forced {
            return if segment_len * segments >= self.crossover {
                Engine::GpuAbiSort
            } else {
                Engine::CpuQuicksort
            };
        }
        let cpu: f64 = job_lens_and_hints
            .iter()
            .map(|&(len, hint)| self.est_cpu_ms(len, hint))
            .sum();
        if self.est_gpu_batch_ms(segment_len, segments) < cpu {
            Engine::GpuAbiSort
        } else {
            Engine::CpuQuicksort
        }
    }

    /// Estimated duration of a batch under the given engine (used to build
    /// the admission controller's in-flight picture and the slot
    /// schedule).
    pub fn est_batch_ms(
        &self,
        engine: Engine,
        job_lens_and_hints: &[(usize, Option<Distribution>)],
        segment_len: usize,
        segments: usize,
    ) -> f64 {
        match engine {
            Engine::CpuQuicksort => job_lens_and_hints
                .iter()
                .map(|&(len, hint)| self.est_cpu_ms(len, hint))
                .sum(),
            Engine::GpuAbiSort => self.est_gpu_batch_ms(segment_len, segments),
            Engine::ShardedGpu => {
                self.est_sharded_ms(job_lens_and_hints.iter().map(|&(len, _)| len).sum())
            }
            Engine::TeraSort => job_lens_and_hints
                .iter()
                .map(|&(len, _)| self.est_tera_ms(len))
                .sum(),
        }
    }
}

/// CPU-estimate multiplier for a distribution hint. The shape follows the
/// data-dependence experiment (E10): median-of-three quicksort is fastest
/// on (nearly) sorted input, and duplicate-heavy inputs finish early via
/// the heapsort fallback; uniform random input is the reference.
fn hint_factor(hint: Option<Distribution>) -> f64 {
    match hint {
        None | Some(Distribution::Uniform) => 1.0,
        Some(Distribution::Sorted) => 0.55,
        Some(Distribution::NearlySorted { .. }) => 0.7,
        Some(Distribution::Reverse) => 0.9,
        Some(Distribution::FewDistinct { .. }) => 0.8,
        Some(Distribution::OrganPipe) => 0.85,
        Some(Distribution::Constant) => 0.9,
    }
}

/// Solve for the quadratic `y = a + b·x + c·x²` through three points.
fn fit_quadratic(points: [[f64; 2]; 3]) -> [f64; 3] {
    let [[x0, y0], [x1, y1], [x2, y2]] = points;
    // Lagrange form expanded to monomial coefficients.
    let d0 = (x0 - x1) * (x0 - x2);
    let d1 = (x1 - x0) * (x1 - x2);
    let d2 = (x2 - x0) * (x2 - x1);
    let c = y0 / d0 + y1 / d1 + y2 / d2;
    let b = -y0 * (x1 + x2) / d0 - y1 * (x0 + x2) / d1 - y2 * (x0 + x1) / d2;
    let a = y0 * x1 * x2 / d0 + y1 * x0 * x2 / d1 + y2 * x0 * x1 / d2;
    [a, b, c]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SortPolicy {
        SortPolicy::calibrate(
            &GpuProfile::geforce_7800(),
            &SortConfig::default(),
            &PolicyConfig::default(),
        )
    }

    #[test]
    fn fit_quadratic_recovers_exact_coefficients() {
        let f = |x: f64| 2.0 - 3.0 * x + 0.5 * x * x;
        let [a, b, c] = fit_quadratic([[4.0, f(4.0)], [6.0, f(6.0)], [10.0, f(10.0)]]);
        assert!((a - 2.0).abs() < 1e-9);
        assert!((b + 3.0).abs() < 1e-9);
        assert!((c - 0.5).abs() < 1e-9);
    }

    #[test]
    fn calibration_is_deterministic() {
        let a = policy();
        let b = policy();
        assert_eq!(a.crossover(), b.crossover());
        assert_eq!(a.est_cpu_ms(1000, None), b.est_cpu_ms(1000, None));
        assert_eq!(a.est_gpu_batch_ms(256, 8), b.est_gpu_batch_ms(256, 8));
    }

    #[test]
    fn top_k_and_scan_estimates_undercut_the_full_sort() {
        let p = policy();
        let n = 1 << 16;
        // Early-exit top-k stops at small blocks: far fewer fitted steps
        // and a much smaller per-element L² body than the full recursion.
        assert!(p.est_top_k_ms(n, 8) < p.est_gpu_batch_ms(n, 1));
        // A histogram pass is one linear scan — cheaper than any sort.
        assert!(p.est_scan_ms(n) < p.est_cpu_ms(n, None));
        assert_eq!(p.est_top_k_ms(1, 5), 0.0);
        assert_eq!(p.est_scan_ms(0), 0.0);
    }

    #[test]
    fn crossover_lands_in_the_paper_regime() {
        // Section 8: CPU quicksort wins below roughly 32k keys. The
        // simulator is calibrated to the *shape*, not the exact value, so
        // accept a generous band of powers of two around it.
        let c = policy().crossover();
        assert!(
            (1 << 11..=1 << 19).contains(&c),
            "calibrated crossover {c} outside the plausible band"
        );
    }

    #[test]
    fn small_jobs_go_to_the_cpu_and_large_jobs_to_the_gpu() {
        let p = policy();
        assert_eq!(p.select_single(256, None), Engine::CpuQuicksort);
        assert_eq!(p.select_single(1 << 20, None), Engine::GpuAbiSort);
    }

    #[test]
    fn out_of_core_threshold_routes_to_terasort() {
        let cfg = PolicyConfig {
            out_of_core_threshold: 10_000,
            ..PolicyConfig::default()
        };
        let p = SortPolicy::calibrate(&GpuProfile::geforce_7800(), &SortConfig::default(), &cfg);
        assert_eq!(p.select_single(10_000, None), Engine::TeraSort);
        assert_ne!(p.select_single(9_999, None), Engine::TeraSort);
    }

    #[test]
    fn batched_estimate_amortizes_launch_overhead() {
        let p = policy();
        let single = p.est_gpu_batch_ms(256, 1);
        let batched = p.est_gpu_batch_ms(256, 64);
        // 64 segments must cost far less than 64 independent submissions.
        assert!(
            batched < 64.0 * single * 0.5,
            "batched {batched} single {single}"
        );
        // …but more than one (the body work still scales with n).
        assert!(batched > single);
    }

    #[test]
    fn coalesced_small_jobs_prefer_the_gpu_once_the_batch_fills() {
        let p = policy();
        let small: Vec<(usize, Option<Distribution>)> = vec![(256, None); 64];
        // A full batch of small jobs beats 64 CPU sorts…
        assert_eq!(p.select_batch(&small, 256, 64), Engine::GpuAbiSort);
        // …while a nearly-empty batch does not amortize its launches.
        let couple: Vec<(usize, Option<Distribution>)> = vec![(256, None); 2];
        assert_eq!(p.select_batch(&couple, 256, 2), Engine::CpuQuicksort);
    }

    #[test]
    fn sorted_hint_shifts_the_cpu_estimate_down() {
        let p = policy();
        assert!(
            p.est_cpu_ms(4096, Some(Distribution::Sorted)) < p.est_cpu_ms(4096, None),
            "sorted input must look cheaper to the data-dependent CPU engine"
        );
    }

    #[test]
    fn crossover_override_is_honored() {
        let cfg = PolicyConfig {
            crossover_override: Some(0),
            ..PolicyConfig::default()
        };
        let p = SortPolicy::calibrate(&GpuProfile::geforce_7800(), &SortConfig::default(), &cfg);
        assert_eq!(p.crossover(), 0);
    }

    #[test]
    fn engine_names_are_stable() {
        assert_eq!(Engine::CpuQuicksort.name(), "cpu-quicksort");
        assert_eq!(Engine::GpuAbiSort.name(), "gpu-abisort");
        assert_eq!(Engine::ShardedGpu.name(), "sharded-gpu");
        assert_eq!(Engine::TeraSort.name(), "terasort");
    }

    fn sharded_policy(shard_slots: usize) -> SortPolicy {
        SortPolicy::calibrate(
            &GpuProfile::geforce_7800(),
            &SortConfig::default(),
            &PolicyConfig {
                shard_slots,
                ..PolicyConfig::default()
            },
        )
    }

    #[test]
    fn sharding_is_disabled_with_a_single_slot() {
        let p = policy();
        assert_eq!(p.shard_slots(), 1);
        assert_eq!(p.sharded_min(), usize::MAX);
        assert_ne!(p.select_single(1 << 22, None), Engine::ShardedGpu);
    }

    #[test]
    fn sharded_threshold_calibrates_above_the_gpu_crossover() {
        let p = sharded_policy(4);
        let min = p.sharded_min();
        assert!(
            min >= p.crossover(),
            "sharded min {min} below GPU crossover {}",
            p.crossover()
        );
        assert!(min < usize::MAX, "sharding never calibrated in");
        assert_eq!(p.select_single(min, None), Engine::ShardedGpu);
        assert_ne!(p.select_single(min - 1, None), Engine::ShardedGpu);
    }

    #[test]
    fn sharded_estimate_beats_the_single_device_estimate_at_scale() {
        // The estimate only has to rank the routes correctly — the
        // measured ≥2x speed-up claim lives in the E20 experiment.
        let p = sharded_policy(4);
        for log_n in [19u32, 20, 21] {
            let n = 1usize << log_n;
            assert!(
                p.est_sharded_ms(n) < p.est_gpu_batch_ms(n, 1),
                "n=2^{log_n}: sharded {:.1} ms vs single {:.1} ms",
                p.est_sharded_ms(n),
                p.est_gpu_batch_ms(n, 1)
            );
        }
    }

    #[test]
    fn sharded_min_override_is_honored() {
        let p = SortPolicy::calibrate(
            &GpuProfile::geforce_7800(),
            &SortConfig::default(),
            &PolicyConfig {
                shard_slots: 2,
                sharded_min_override: Some(1000),
                ..PolicyConfig::default()
            },
        );
        assert_eq!(p.sharded_min(), 1000);
        assert_eq!(p.select_single(1000, None), Engine::ShardedGpu);
    }

    #[test]
    fn out_of_core_still_wins_over_sharding() {
        let p = SortPolicy::calibrate(
            &GpuProfile::geforce_7800(),
            &SortConfig::default(),
            &PolicyConfig {
                shard_slots: 4,
                sharded_min_override: Some(1000),
                out_of_core_threshold: 50_000,
                ..PolicyConfig::default()
            },
        );
        assert_eq!(p.select_single(50_000, None), Engine::TeraSort);
        assert_eq!(p.select_single(49_999, None), Engine::ShardedGpu);
    }
}
