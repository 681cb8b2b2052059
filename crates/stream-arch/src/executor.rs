//! The stream processor: launches kernels over substreams and accounts for
//! their cost.
//!
//! A [`StreamProcessor`] owns
//!
//! * a [`GpuProfile`] (the hardware being simulated),
//! * the accumulated plain [`Counters`],
//! * the recorder of cached fetches and the cost model that replays them
//!   into the processor's one texture cache (a [`crate::CacheSim`]
//!   modelling the combined effect of the per-pipe L1 and the shared L2;
//!   see [`crate::accounting`]),
//! * and a [`StreamArena`] recycling stream backing buffers across runs.
//!
//! A launch executes one *stream operation* on the calling thread:
//! [`StreamProcessor::launch_wide`] runs one kernel body for all instances
//! over plain slices (see [`crate::kernel`]), and charges what bind time
//! fixes — the reads, writes and comparisons of every instance — once per
//! launch, and each gather as it happens. GPU-ABiSort's kernels, the
//! comparator networks' passes and [`StreamProcessor::launch_copy`] all
//! take this one form.
//!
//! The profile's `p` units are a property of the cost model — the
//! simulated time divides the per-instance work over them — not of host
//! execution, so a run is deterministic and its counters, cache statistics
//! and simulated time do not depend on the host.
//!
//! The kernels' cached fetches are replayed into the texture cache either
//! on the calling thread or on a helper thread the processor keeps, in
//! record order either way. The drain points — [`StreamProcessor::counters`],
//! [`StreamProcessor::simulated_time`], [`StreamProcessor::take_counters`]
//! and [`StreamProcessor::reset`] — replay everything recorded before they
//! read, which is why they take `&mut self`.
//!
//! The processor enforces the hardware restrictions of Sections 3.2, 6.1
//! and 7.1: maximum stream size, per-instance output budget, and (via
//! [`StreamProcessor::check_distinct_io`]) distinctness of input and output
//! streams.

use crate::accounting::{FetchLog, FetchObserver, InLaunch};
use crate::arena::StreamArena;
use crate::error::{Result, StreamError};
use crate::kernel::{Input, LaunchCtx, LaunchShape};
use crate::metrics::{Counters, SimTime};
use crate::profile::GpuProfile;
use crate::stream::Stream;
use crate::telemetry;
use crate::value::StreamElement;

/// The simulated stream processor.
pub struct StreamProcessor {
    profile: GpuProfile,
    /// Everything but the cache statistics and the block-fill
    /// `bytes_read`, which the cost model behind `log` keeps.
    counters: Counters,
    log: FetchLog,
    arena: StreamArena,
}

impl StreamProcessor {
    /// Create a processor for the given hardware profile.
    pub fn new(profile: GpuProfile) -> Self {
        StreamProcessor {
            log: FetchLog::new(profile.cache),
            profile,
            counters: Counters::new(),
            arena: StreamArena::new(),
        }
    }

    /// The hardware profile being simulated.
    pub fn profile(&self) -> &GpuProfile {
        &self.profile
    }

    /// Hand every chunk of raw cached fetches this processor records to
    /// `observer`, in record order, on the calling thread, as the chunk
    /// leaves the recorder (when it is full, and at every drain point).
    ///
    /// Observing changes no charge. The identity tests feed the per-access
    /// reference model of the texture cache from it.
    pub fn observe_fetches(&mut self, observer: FetchObserver) {
        self.log.set_observer(observer);
    }

    /// The processor's buffer arena. Drivers allocate their intermediate
    /// streams from it and recycle them at the end of a run, so a service
    /// executing thousands of sorts on one pooled processor stops churning
    /// the allocator.
    pub fn arena(&mut self) -> &mut StreamArena {
        &mut self.arena
    }

    /// Read-only view of the buffer arena (for inspecting reuse
    /// statistics).
    pub fn arena_ref(&self) -> &StreamArena {
        &self.arena
    }

    /// Accumulated counters, with the cache statistics and block-fill
    /// bytes filled in. A drain point: everything recorded so far is
    /// charged before it returns.
    pub fn counters(&mut self) -> Counters {
        let model = self.log.drain();
        Counters {
            cache: model.stats(),
            bytes_read: model.bytes_read(),
            ..self.counters
        }
    }

    /// Reset all counters and cache contents (a drain point).
    pub fn reset(&mut self) {
        self.counters = Counters::new();
        self.log.reset();
    }

    /// Return the accumulated counters (cache statistics merged in) and
    /// reset the processor in one step.
    ///
    /// This is the reuse hook for processor pooling: a service that keeps
    /// one processor per device slot takes the counters after every batch,
    /// so the next batch starts from a clean record and no metrics bleed
    /// between tenants or batches.
    pub fn take_counters(&mut self) -> Counters {
        let c = self.counters();
        self.reset();
        c
    }

    /// Simulated running time of everything executed since the last reset.
    pub fn simulated_time(&mut self) -> SimTime {
        let counters = self.counters();
        self.profile.simulate(&counters)
    }

    /// Record that the launches issued since the previous step boundary
    /// together form one stream operation on hardware with multi-block
    /// substreams (Section 5.4). Algorithms that never call this get
    /// `steps == 0`, and the cost model falls back to counting launches.
    pub fn record_step(&mut self) {
        self.counters.steps += 1;
    }

    /// Charge a host↔device round-trip transfer of `bytes` bytes in each
    /// direction (Section 8).
    pub fn charge_transfer(&mut self, round_trip_bytes: u64) {
        self.counters.transfer_bytes += round_trip_bytes;
    }

    /// Validate that a stream of `len` elements of type `T` fits within the
    /// profile's 2D stream size limit (Section 3.2).
    pub fn check_stream_size<T: StreamElement>(&self, len: usize) -> Result<()> {
        let max = self.profile.max_stream_elements();
        if len > max {
            return Err(StreamError::StreamTooLarge {
                elements: len,
                max_elements: max,
            });
        }
        Ok(())
    }

    /// Validate that the input/gather stream ids and output stream ids of a
    /// stream operation are distinct, as required by the paper's GPUs
    /// (Section 6.1). Profiles with `distinct_io == false` (the idealized
    /// machine) skip the check.
    pub fn check_distinct_io(&self, inputs: &[(u64, &str)], outputs: &[(u64, &str)]) -> Result<()> {
        if !self.profile.distinct_io {
            return Ok(());
        }
        for &(in_id, in_name) in inputs {
            for &(out_id, _) in outputs {
                if in_id == out_id {
                    return Err(StreamError::InputOutputAliasing {
                        stream: in_name.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Execute a pure copy stream operation: `block.1 / per_instance`
    /// kernel instances each forward `per_instance` elements of
    /// `block` from `src` to the same positions of `dst`.
    ///
    /// This is the shape of GPU-ABiSort's copy-back (Section 6.1), which
    /// follows every phase and carries roughly half of all simulated
    /// traffic. It is a launch-wide kernel: the whole block is fetched as
    /// one range and moves in one `memcpy`.
    pub fn launch_copy<T: StreamElement>(
        &mut self,
        name: &str,
        src: &Stream<T>,
        dst: &mut Stream<T>,
        block: (usize, usize),
        per_instance: usize,
    ) -> Result<()> {
        // Hard preconditions (a release-build caller passing an uneven
        // block would otherwise get a silently truncated copy).
        assert!(
            per_instance > 0 && block.1.is_multiple_of(per_instance),
            "copy block length must be a multiple of per_instance"
        );
        let input = Input::new(src, block.0, block.1)?;
        let output = dst.block_mut(block.0, block.1)?;
        let shape = LaunchShape::new(block.1 / per_instance)
            .reads::<T>(per_instance)
            .writes::<T>(per_instance);
        self.launch_wide(name, shape, |ctx| {
            let copied = ctx.instances() * per_instance;
            output[..copied].copy_from_slice(ctx.read(&input, 0, copied));
        })
    }

    /// Execute one stream operation as a *launch-wide* kernel: `body` runs
    /// once, for all of `shape`'s instances, over plain slices.
    ///
    /// Every kernel's per-instance reads, writes, iterator reads and
    /// fixed comparisons are set when its streams are bound (the stream
    /// model of Section 3.2). The launch charges them from `shape`; the
    /// body hands each cached fetch to the recorder through its
    /// [`LaunchCtx`], in instance order, and charges each gather as it
    /// happens. Only the instances that ran count as `kernel_instances`,
    /// and the launch aborts after a failing instance:
    ///
    /// * a gather past the end stops the body after the failing instance
    ///   ([`LaunchCtx::for_each_instance`]); that instance and its
    ///   predecessors are charged, and the first error is returned;
    /// * an instance output above the profile's budget runs only the first
    ///   instance, charges it, and returns
    ///   [`StreamError::KernelOutputTooLarge`].
    ///
    /// A panicking body unwinds to the caller with only the launch, its
    /// cached fetches, gathers and counted comparisons charged.
    pub fn launch_wide<F>(&mut self, name: &str, shape: LaunchShape, body: F) -> Result<()>
    where
        F: FnOnce(&mut LaunchCtx<'_>),
    {
        // Telemetry gate: one relaxed atomic load when tracing is off.
        let started = telemetry::enabled().then(std::time::Instant::now);
        let result = self.launch_wide_untraced(name, shape, body);
        if let Some(started) = started {
            let args = [("instances", shape.instances as f64)];
            telemetry::record_host_span("launch", name, started, &args);
        }
        result
    }

    /// [`StreamProcessor::launch_wide`] minus the telemetry hook:
    /// semantically identical (same counters, same results, same errors),
    /// never recorded in a trace even when the sink is enabled.
    ///
    /// This exists as the compiled-out control for the tracing-overhead
    /// acceptance test; production callers use
    /// [`StreamProcessor::launch_wide`].
    #[doc(hidden)]
    pub fn launch_wide_untraced<F>(
        &mut self,
        _name: &str,
        shape: LaunchShape,
        body: F,
    ) -> Result<()>
    where
        F: FnOnce(&mut LaunchCtx<'_>),
    {
        let _in_launch = InLaunch::enter();
        self.counters.launches += 1;
        let max_bytes = self.profile.max_kernel_output_bytes;
        let over_budget = shape.output_bytes > max_bytes;
        let run = if over_budget {
            shape.instances.min(1)
        } else {
            shape.instances
        };
        let mut ctx = LaunchCtx::new(&mut self.counters, &mut self.log, run);
        body(&mut ctx);
        let (ran, error) = ctx.finish();
        shape.charge(&mut self.counters, ran);
        if over_budget && ran > 0 {
            return Err(StreamError::KernelOutputTooLarge {
                bytes: shape.output_bytes,
                max_bytes,
            });
        }
        error.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::GatherView;
    use crate::layout::Layout;
    use crate::per_access;
    use crate::value::Value;
    use proptest::prelude::*;

    fn doubling_op(proc_: &mut StreamProcessor, input: &Stream<u32>, output: &mut Stream<u32>) {
        let n = input.len();
        let read = Input::new(input, 0, n).unwrap();
        let write = output.block_mut(0, n).unwrap();
        let shape = LaunchShape::new(n).reads::<u32>(1).writes::<u32>(1);
        proc_
            .launch_wide("double", shape, |ctx| {
                let values = ctx.read(&read, 0, ctx.instances());
                for (out, v) in write.iter_mut().zip(values) {
                    *out = v * 2;
                }
            })
            .unwrap();
    }

    #[test]
    fn sequential_launch_runs_all_instances() {
        let mut p = StreamProcessor::new(GpuProfile::idealized(4));
        let input = Stream::from_vec("in", (0u32..100).collect(), Layout::Linear);
        let mut output: Stream<u32> = Stream::new("out", 100, Layout::Linear);
        doubling_op(&mut p, &input, &mut output);
        assert_eq!(output.as_slice()[7], 14);
        assert_eq!(output.as_slice()[99], 198);
        let c = p.counters();
        assert_eq!(c.launches, 1);
        assert_eq!(c.kernel_instances, 100);
        assert_eq!(c.stream_reads, 100);
        assert_eq!(c.stream_writes, 100);
    }

    #[test]
    fn kernel_panic_reaches_the_caller_and_the_processor_stays_usable() {
        // A panicking body unwinds out of `launch_wide`; the processor
        // holds no state the panic could leave half-updated beyond the
        // charges of the aborted launch, so the next launch on the same
        // processor is correct.
        let n = 1024;
        let mut p = StreamProcessor::new(GpuProfile::idealized(4));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = p.launch_wide("boom", LaunchShape::new(n), |ctx| {
                ctx.for_each_instance(|_, i| {
                    if i == n / 2 {
                        panic!("kernel bug");
                    }
                });
            });
        }));
        assert!(caught.is_err(), "the kernel panic must reach the caller");

        let input = Stream::from_vec("in", (0..n as u32).collect(), Layout::Linear);
        let mut out: Stream<u32> = Stream::new("out", n, Layout::Linear);
        let before = p.counters();
        doubling_op(&mut p, &input, &mut out);
        let after = p.counters();
        assert_eq!(out.as_slice()[n - 1], 2 * (n as u32 - 1));
        assert_eq!(after.launches - before.launches, 1);
        assert_eq!(after.kernel_instances - before.kernel_instances, n as u64);
        assert_eq!(after.stream_reads - before.stream_reads, n as u64);
        assert_eq!(after.stream_writes - before.stream_writes, n as u64);

        // Once the counters are taken, the processor is indistinguishable
        // from a fresh one.
        p.take_counters();
        let mut fresh = StreamProcessor::new(GpuProfile::idealized(4));
        let mut fresh_out: Stream<u32> = Stream::new("out", n, Layout::Linear);
        doubling_op(&mut p, &input, &mut out);
        doubling_op(&mut fresh, &input, &mut fresh_out);
        assert_eq!(out.as_slice(), fresh_out.as_slice());
        assert_eq!(p.counters(), fresh.counters());
        assert_eq!(p.simulated_time(), fresh.simulated_time());
    }

    /// Launch `instances` instances that each write `per_instance` values.
    fn write_values(p: &mut StreamProcessor, instances: usize, per_instance: usize) -> Result<()> {
        let mut out: Stream<Value> = Stream::new("out", 16, Layout::Linear);
        let write = out.block_mut(0, instances * per_instance)?;
        let shape = LaunchShape::new(instances).writes::<Value>(per_instance);
        p.launch_wide("write-values", shape, |ctx| {
            let written = &mut write[..ctx.instances() * per_instance];
            for (i, v) in written.iter_mut().enumerate() {
                *v = Value::new(i as f32, (i / per_instance) as u32);
            }
        })
    }

    #[test]
    fn output_budget_enforced() {
        // The GeForce profiles allow 16 x 32 bit = 64 bytes per instance;
        // pushing 9 Values (72 bytes) must fail.
        let mut p = StreamProcessor::new(GpuProfile::geforce_6800());
        let err = write_values(&mut p, 1, 9).unwrap_err();
        assert!(matches!(err, StreamError::KernelOutputTooLarge { .. }));
    }

    #[test]
    fn output_budget_allows_eight_pairs() {
        // 8 value/pointer pairs = 64 bytes = exactly the limit (Section 7.1).
        let mut p = StreamProcessor::new(GpuProfile::geforce_6800());
        write_values(&mut p, 2, 8).unwrap();
    }

    /// Launch `instances` instances that each gather `index(i)` from
    /// `small` and write the value plus one.
    fn gather_plus_one(
        p: &mut StreamProcessor,
        small: &Stream<u32>,
        out: &mut Stream<u32>,
        index: impl Fn(usize) -> usize,
    ) -> Result<()> {
        let gather = GatherView::new(small);
        let write = out.block_mut(0, out.len())?;
        let shape = LaunchShape::new(write.len()).writes::<u32>(1);
        p.launch_wide("gather", shape, |ctx| {
            ctx.for_each_instance(|ctx, i| write[i] = ctx.gather(&gather, index(i)) + 1);
        })
    }

    #[test]
    fn gather_error_aborts_launch() {
        let mut p = StreamProcessor::new(GpuProfile::idealized(1));
        let small = Stream::from_vec("small", vec![1u32, 2], Layout::Linear);
        let mut out: Stream<u32> = Stream::new("out", 4, Layout::Linear);
        let err = gather_plus_one(&mut p, &small, &mut out, |i| 10 + i).unwrap_err();
        assert!(matches!(err, StreamError::GatherOutOfBounds { .. }));
    }

    #[test]
    fn the_first_failing_instance_aborts_the_launch() {
        // Instances run in order; the first one whose gather falls off the
        // end of the stream decides the error, and no later instance runs.
        let (instances, ok) = (1024usize, 600usize);
        let small = Stream::from_vec("small", (0..ok as u32).collect(), Layout::Linear);
        let mut p = StreamProcessor::new(GpuProfile::idealized(4));
        let mut out: Stream<u32> = Stream::new("out", instances, Layout::Linear);
        let err = gather_plus_one(&mut p, &small, &mut out, |i| i).unwrap_err();
        assert_eq!(
            err,
            StreamError::GatherOutOfBounds {
                stream_len: ok,
                index: ok
            }
        );
        // The failing instance still pushed its (default) value.
        assert_eq!(p.counters().stream_writes, ok as u64 + 1);
        assert_eq!(p.counters().gathers, ok as u64);
        let expected: Vec<u32> = (1..=ok as u32).chain([1]).collect();
        assert_eq!(&out.as_slice()[..=ok], expected.as_slice());
        assert!(out.as_slice()[ok + 1..].iter().all(|&v| v == 0));
    }

    #[test]
    fn distinct_io_check() {
        let p = StreamProcessor::new(GpuProfile::geforce_6800());
        let a: Stream<u32> = Stream::new("a", 4, Layout::Linear);
        let b: Stream<u32> = Stream::new("b", 4, Layout::Linear);
        assert!(p
            .check_distinct_io(&[(a.id(), a.name())], &[(b.id(), b.name())])
            .is_ok());
        let err = p
            .check_distinct_io(&[(a.id(), a.name())], &[(a.id(), a.name())])
            .unwrap_err();
        assert!(matches!(err, StreamError::InputOutputAliasing { .. }));

        let ideal = StreamProcessor::new(GpuProfile::idealized(1));
        assert!(ideal
            .check_distinct_io(&[(a.id(), a.name())], &[(a.id(), a.name())])
            .is_ok());
    }

    #[test]
    fn stream_size_limit_enforced() {
        let p = StreamProcessor::new(GpuProfile::geforce_6800());
        assert!(p.check_stream_size::<Value>(2048 * 2048).is_ok());
        let err = p.check_stream_size::<Value>(2048 * 2048 + 1).unwrap_err();
        assert!(matches!(err, StreamError::StreamTooLarge { .. }));
    }

    #[test]
    fn steps_and_reset() {
        let mut p = StreamProcessor::new(GpuProfile::idealized(1));
        let input = Stream::from_vec("in", (0u32..4).collect(), Layout::Linear);
        let mut out: Stream<u32> = Stream::new("out", 4, Layout::Linear);
        doubling_op(&mut p, &input, &mut out);
        doubling_op(&mut p, &input, &mut out);
        p.record_step();
        let c = p.counters();
        assert_eq!(c.launches, 2);
        assert_eq!(c.steps, 1);
        assert!(p.simulated_time().total_ms > 0.0);
        p.reset();
        assert_eq!(p.counters(), Counters::new());
    }

    #[test]
    fn launch_copy_copies_its_block_and_charges_every_instance() {
        let src = Stream::from_vec("src", (0u32..512).collect(), Layout::ZOrder);
        let mut dst: Stream<u32> = Stream::new("dst", 512, Layout::ZOrder);
        let mut p = StreamProcessor::new(GpuProfile::geforce_6800());
        p.launch_copy("copy", &src, &mut dst, (32, 256), 2).unwrap();
        // The copied block landed; everything else stayed default.
        assert_eq!(&dst.as_slice()[32..288], src.range(32, 256));
        assert!(dst.as_slice()[..32].iter().all(|&v| v == 0));
        assert!(dst.as_slice()[288..].iter().all(|&v| v == 0));
        let c = p.counters();
        let charged = (c.kernel_instances, c.stream_reads, c.stream_writes);
        assert_eq!(
            (c.launches, charged, c.bytes_written),
            (1, (128, 256, 256), 1024)
        );
        assert_eq!(c.cache.accesses, 256);
    }

    #[test]
    fn block_ranges_past_usize_max_are_typed_errors() {
        // `start + len` wraps around for this block; it must be rejected
        // when the input or output block is bound (or the copy validated),
        // never reach the stream memory.
        let expected = StreamError::SubStreamOutOfBounds {
            stream_len: 8,
            start: usize::MAX - 2,
            end: usize::MAX,
        };
        let src = Stream::from_vec("src", (0u32..8).collect(), Layout::Linear);
        let mut p = StreamProcessor::new(GpuProfile::geforce_6800());
        let mut dst: Stream<u32> = Stream::new("dst", 8, Layout::Linear);
        assert_eq!(
            Input::new(&src, usize::MAX - 2, 8).err(),
            Some(expected.clone())
        );
        assert_eq!(
            dst.block_mut(usize::MAX - 2, 8).err(),
            Some(expected.clone())
        );
        assert_eq!(
            p.launch_copy("copy", &src, &mut dst, (usize::MAX - 2, 8), 1),
            Err(expected)
        );
        assert!(dst.as_slice().iter().all(|&v| v == 0));
        assert_eq!(src.as_slice(), (0u32..8).collect::<Vec<_>>().as_slice());
        assert_eq!(p.counters(), Counters::new());
    }

    #[test]
    fn take_counters_returns_totals_and_resets_for_reuse() {
        let mut p = StreamProcessor::new(GpuProfile::geforce_6800());
        let input = Stream::from_vec("in", (0u32..64).collect(), Layout::ZOrder);
        let mut out: Stream<u32> = Stream::new("out", 64, Layout::ZOrder);
        doubling_op(&mut p, &input, &mut out);
        p.record_step();
        p.charge_transfer(128);

        let taken = p.take_counters();
        assert_eq!(taken.launches, 1);
        assert_eq!(taken.steps, 1);
        assert_eq!(taken.kernel_instances, 64);
        assert_eq!(taken.transfer_bytes, 128);
        assert!(taken.cache.accesses > 0, "cache stats must be merged in");

        // The pooled processor is now clean: no metric bleed into the next
        // batch, and a second take returns zeros.
        assert_eq!(p.counters(), Counters::new());
        assert_eq!(p.simulated_time().total_ms, 0.0);
        assert_eq!(p.take_counters(), Counters::new());

        // A batch executed after the take is accounted from zero.
        doubling_op(&mut p, &input, &mut out);
        assert_eq!(p.counters().launches, 1);
    }

    #[test]
    fn transfer_charge_appears_in_sim_time() {
        let mut p = StreamProcessor::new(GpuProfile::geforce_6800());
        p.charge_transfer(2 * 8 * (1 << 20));
        let t = p.simulated_time();
        assert!(t.breakdown.transfer_ms > 50.0);
    }

    /// A processor whose fetches are replayed on the helper thread
    /// (`helper`) or on the calling thread, from its first launch on.
    fn processor_on(profile: GpuProfile, helper: bool) -> StreamProcessor {
        let mut p = StreamProcessor::new(profile);
        p.log.forced = Some(helper);
        p.reset(); // a drain point: the forced replay thread takes over
        p
    }

    /// A launch shape: instances per launch, launches, simulated units,
    /// and an instance that gathers out of bounds or panics.
    #[derive(Clone, Debug)]
    struct Shape {
        instances: usize,
        launches: usize,
        units: usize,
        fail_at: Option<usize>,
        panic_at: Option<usize>,
    }

    fn shape_strategy() -> impl Strategy<Value = Shape> {
        (
            prop_oneof![
                1 => Just(0usize),
                1 => Just(1usize),
                2 => 2usize..300,
                // Several full chunks per launch.
                2 => 3000usize..9000,
            ],
            1usize..4,
            prop_oneof![Just(1usize), Just(3), Just(16)],
            prop_oneof![
                3 => Just((None, None)),
                1 => (0usize..1 << 16).prop_map(|p| (Some(p), None)),
                1 => (0usize..1 << 16).prop_map(|p| (None, Some(p))),
            ],
        )
            .prop_map(|(instances, launches, units, (fail, panic))| Shape {
                instances,
                launches,
                units,
                fail_at: fail.and_then(|p| (instances > 0).then(|| p % instances)),
                panic_at: panic.and_then(|p| (instances > 0).then(|| p % instances)),
            })
    }

    /// Everything a run of a shape must reproduce.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        output: Vec<u32>,
        counters: Counters,
        sim_time: SimTime,
        errors: Vec<String>,
    }

    /// Run `shape` with the given replay thread; return its outcome and the
    /// outcome the per-access replay of the same fetch log gives.
    fn run_shape(shape: &Shape, helper: bool) -> (Outcome, Outcome) {
        let profile = GpuProfile::geforce_6800().with_units(shape.units);
        let mut proc = processor_on(profile.clone(), helper);
        let reference = per_access::attach(&mut proc);
        let n = shape.instances;
        let input = Stream::from_vec("in", (0..n as u32).collect(), Layout::ZOrder);
        let lookup = Stream::from_vec("lut", (0..n.max(1) as u32).rev().collect(), Layout::Linear);
        let mut out: Stream<u32> = Stream::new("out", n, Layout::ZOrder);
        let mut errors = Vec::new();
        for _ in 0..shape.launches {
            let read = Input::new(&input, 0, n).unwrap();
            let gather = GatherView::new(&lookup);
            let write = out.block_mut(0, n).unwrap();
            let (fail_at, panic_at) = (shape.fail_at, shape.panic_at);
            let lut_len = lookup.len();
            let launch = LaunchShape::new(n)
                .reads::<u32>(1)
                .writes::<u32>(1)
                .comparisons(1);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                proc.launch_wide("shape", launch, |ctx| {
                    ctx.for_each_instance(|ctx, i| {
                        let v = ctx.read(&read, i, 1)[0];
                        // A scattered, data-dependent gather: every fetch is
                        // an entry of its own, so large shapes fill chunks.
                        let idx = if fail_at == Some(i) {
                            lut_len + 7
                        } else {
                            (i * 7919) % lut_len
                        };
                        let g = ctx.gather(&gather, idx);
                        if panic_at == Some(i) {
                            panic!("kernel bug");
                        }
                        write[i] = v.wrapping_mul(3).wrapping_add(g);
                    });
                })
            }));
            errors.push(match result {
                Ok(r) => format!("{r:?}"),
                Err(_) => "panicked".to_string(),
            });
            proc.record_step();
        }
        let counters = proc.counters();
        let outcome = Outcome {
            output: out.as_slice().to_vec(),
            counters,
            sim_time: proc.simulated_time(),
            errors: errors.clone(),
        };
        let reference = reference.lock().unwrap();
        let replayed = Outcome {
            output: outcome.output.clone(),
            counters: reference.counters(&counters),
            sim_time: reference.simulated_time(&profile, &counters),
            errors,
        };
        (outcome, replayed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Both replay threads charge every shape — 0/1-instance, error-aborted
        /// and panicking launches included — byte-identically, and equal
        /// to the per-access replay of the fetch log.
        #[test]
        fn both_replay_threads_match_the_per_access_replay(shape in shape_strategy()) {
            let (engine, engine_ref) = run_shape(&shape, false);
            let (helper, helper_ref) = run_shape(&shape, true);
            prop_assert_eq!(&engine, &helper);
            prop_assert_eq!(&engine, &engine_ref);
            prop_assert_eq!(&helper, &helper_ref);
        }
    }

    /// A launch of `instances` scattered gathers: about one logged fetch
    /// per instance.
    fn scattered_gathers(proc: &mut StreamProcessor, lookup: &Stream<u32>, instances: usize) {
        let gather = GatherView::new(lookup);
        proc.launch_wide("scatter", LaunchShape::new(instances), |ctx| {
            ctx.for_each_instance(|ctx, i| {
                ctx.gather(&gather, (i * 7919) % lookup.len());
            });
        })
        .unwrap();
    }

    #[test]
    fn take_counters_with_chunks_still_queued_returns_the_full_totals() {
        let lookup = Stream::from_vec("lut", (0u32..1 << 16).collect(), Layout::ZOrder);
        let instances = 40 * crate::accounting::CHUNK_FETCHES;
        let mut engine = processor_on(GpuProfile::geforce_7800(), false);
        let mut helper = processor_on(GpuProfile::geforce_7800(), true);
        scattered_gathers(&mut engine, &lookup, instances);
        scattered_gathers(&mut helper, &lookup, instances);
        assert!(!engine.log.has_helper());
        assert!(helper.log.has_helper(), "40 full chunks go to the helper");
        let taken = helper.take_counters();
        assert_eq!(taken, engine.take_counters());
        assert_eq!(taken.cache.accesses, instances as u64);

        // The next batch starts clean, on the same helper.
        assert_eq!(helper.counters(), Counters::new());
        scattered_gathers(&mut engine, &lookup, instances);
        scattered_gathers(&mut helper, &lookup, instances);
        assert_eq!(helper.counters(), engine.counters());
        assert_eq!(helper.simulated_time(), engine.simulated_time());
        let mut fresh = processor_on(GpuProfile::geforce_7800(), false);
        scattered_gathers(&mut fresh, &lookup, instances);
        assert_eq!(helper.counters(), fresh.counters());
    }

    #[test]
    fn small_runs_start_no_helper() {
        // Offloading or not, a run that never fills a chunk is replayed
        // at its drain point on the calling thread.
        let mut p = processor_on(GpuProfile::geforce_7800(), true);
        let input = Stream::from_vec("in", (0u32..1024).collect(), Layout::ZOrder);
        let mut out: Stream<u32> = Stream::new("out", 1024, Layout::ZOrder);
        doubling_op(&mut p, &input, &mut out);
        assert_eq!(p.counters().cache.accesses, 1024);
        assert!(!p.log.has_helper());
    }
}
