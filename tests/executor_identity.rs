//! Property tests for the execution engine:
//!
//! * repeated runs are deterministic;
//! * the engine's cost model (coalesced tile runs replayed from the fetch
//!   log) is byte-identical to the per-access reference model replayed
//!   from the same log, per launch and — against the committed
//!   fingerprints of `tests/golden_fingerprints.txt` — per sort run. The
//!   processors here pick their replay thread as in production, and these
//!   runs are too small to leave the calling thread; the `stream-arch`
//!   unit tests run the same launch shapes forced onto each replay thread;
//! * the stream arena reaches a steady state: repeated sorts on one
//!   pooled processor stop allocating — the (type, capacity-class) bin
//!   count and pooled-buffer count do not grow, and every subsequent run
//!   is served from the pool.

mod fingerprints;

use fingerprints::per_access;

use abisort::{GpuAbiSorter, SortConfig};
use proptest::prelude::*;
use stream_arch::{
    Counters, GatherView, GpuProfile, Input, LaunchShape, Layout, SimTime, Stream, StreamProcessor,
};

/// A launch shape: how many instances, over how many simulated units, and
/// whether the kernel is poisoned to fail or panic at a given instance.
#[derive(Clone, Debug)]
struct Shape {
    instances: usize,
    units: usize,
    launches: usize,
    fail_at: Option<usize>,
    panic_at: Option<usize>,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        // Small and large launches, including 0/1-instance degenerate
        // shapes.
        prop_oneof![
            3 => 0usize..200,
            1 => Just(0usize),
            1 => Just(1usize),
            1 => Just(16usize),
            1 => Just(17usize),
            2 => 257usize..2000,
            1 => Just(1024usize),
            // Several full fetch-log chunks per launch.
            1 => 5000usize..9000,
        ],
        prop_oneof![
            1 => Just(1usize),
            1 => Just(3usize),
            1 => Just(8usize),
            1 => Just(16usize),
        ],
        1usize..4,
        // Failure and panic selectors folded onto the instance range
        // below (None = clean launch).
        prop_oneof![
            3 => Just((None, None)),
            2 => (0usize..1 << 16).prop_map(|p| (Some(p), None)),
            1 => (0usize..1 << 16).prop_map(|p| (None, Some(p))),
        ],
    )
        .prop_map(|(instances, units, launches, (fail, panic))| Shape {
            instances,
            units,
            launches,
            fail_at: fail.and_then(|p| (instances > 0).then(|| p % instances)),
            panic_at: panic.and_then(|p| (instances > 0).then(|| p % instances)),
        })
}

/// Outcome of running one shape: everything that must be reproducible.
#[derive(Debug, PartialEq)]
struct Outcome {
    output: Vec<u32>,
    counters: Counters,
    sim_time: SimTime,
    errors: Vec<Option<String>>,
}

/// Run `shape.launches` launches of a kernel that reads, gathers and
/// writes — and, when poisoned, gathers out of bounds at `fail_at` or
/// panics at `panic_at`. Returns the processor's outcome and the outcome
/// the per-access replay of its fetch log gives.
fn run_shape(shape: &Shape) -> (Outcome, Outcome) {
    let profile = GpuProfile::geforce_6800().with_units(shape.units);
    let mut proc = StreamProcessor::new(profile.clone());
    let reference = per_access::attach(&mut proc);
    // A drain point, as at the start of every sort run: it picks the
    // replay thread of the launches below.
    proc.reset();
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
                    // A poisoned instance gathers past the end; everything
                    // else does a legal data-dependent gather.
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
            Ok(r) => r.err().map(|e| format!("{e:?}")),
            Err(_) => Some("panicked".to_string()),
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine is deterministic run to run.
    #[test]
    fn engine_is_deterministic(shape in shape_strategy()) {
        let (first, _) = run_shape(&shape);
        let (second, _) = run_shape(&shape);
        prop_assert_eq!(first, second);
    }

    /// The cost model == the per-access replay of its fetch log, byte for
    /// byte: all counters (the cache statistics included), simulated time
    /// and returned errors, over shapes including 0/1-instance,
    /// error-aborted and panicking launches.
    #[test]
    fn batched_accounting_is_byte_identical_to_per_access(shape in shape_strategy()) {
        let (batched, reference) = run_shape(&shape);
        prop_assert_eq!(&batched.counters, &reference.counters);
        prop_assert_eq!(&batched.sim_time, &reference.sim_time);
        prop_assert_eq!(&batched.errors, &reference.errors);
    }
}

/// Sort-level accounting identity: full GPU-ABiSort runs (whose kernels
/// and copy-backs all run launch-wide, gathers included) charged by the per-access reference model, replayed from their
/// fetch logs, reproduce the committed fingerprints, under arena and
/// plan-cache reuse.
#[test]
fn batched_sort_runs_are_byte_identical_to_per_access_sort_runs() {
    fingerprints::assert_committed(&fingerprints::per_access_lines(|_, n| {
        matches!(n, 2 | 37 | 1024)
    }));
}

/// Arena steady state: after the first sort warmed the pool, repeated
/// sorts of the same size must not grow the (type, class) bin census and
/// must stop allocating (misses stay flat while hits grow).
#[test]
fn arena_reaches_steady_state_across_repeated_sorts() {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    let input = workloads::uniform(1000, 3);

    // Warm-up: the first run allocates every class once.
    sorter.sort_run(&mut proc, &input).unwrap();
    let warm_classes = proc.arena_ref().class_count();
    let warm_buffers = proc.arena_ref().pooled_buffers();
    let warm_misses = proc.arena_ref().stats().misses;
    assert!(warm_classes > 0, "the sort must use the arena");
    assert!(warm_buffers > 0, "the run must recycle its streams");

    for round in 0..10 {
        let run = sorter.sort_run(&mut proc, &input).unwrap();
        assert_eq!(run.output.len(), input.len());
        assert_eq!(
            proc.arena_ref().class_count(),
            warm_classes,
            "allocation-class count grew in round {round}"
        );
        assert_eq!(
            proc.arena_ref().pooled_buffers(),
            warm_buffers,
            "pooled-buffer count grew in round {round}"
        );
        assert_eq!(
            proc.arena_ref().stats().misses,
            warm_misses,
            "round {round} had to allocate instead of reusing"
        );
    }
    let stats = proc.arena_ref().stats();
    assert!(stats.hits >= 10 * 7, "reuse hits: {stats:?}");

    // The arena's effect is wall-clock only: a fresh processor, whose
    // streams are all new allocations, produces the identical run record.
    let mut cold = StreamProcessor::new(GpuProfile::geforce_7800());
    let a = sorter.sort_run(&mut proc, &input).unwrap();
    let b = sorter.sort_run(&mut cold, &input).unwrap();
    assert_eq!(a.output, b.output);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.sim_time.total_ms, b.sim_time.total_ms);
}

/// The batched service path reuses arena buffers across batches on one
/// pooled processor, and stays byte-identical to a fresh processor's run.
#[test]
fn segmented_batches_reuse_the_arena_across_submissions() {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    let input = workloads::uniform(16 * 64, 9);

    sorter.sort_segments_run(&mut proc, &input, 64).unwrap();
    let warm_classes = proc.arena_ref().class_count();
    let warm_misses = proc.arena_ref().stats().misses;
    for _ in 0..5 {
        sorter.sort_segments_run(&mut proc, &input, 64).unwrap();
        assert_eq!(proc.arena_ref().class_count(), warm_classes);
        assert_eq!(proc.arena_ref().stats().misses, warm_misses);
    }
    let mut cold = StreamProcessor::new(GpuProfile::geforce_7800());
    let a = sorter.sort_segments_run(&mut proc, &input, 64).unwrap();
    let b = sorter.sort_segments_run(&mut cold, &input, 64).unwrap();
    assert_eq!(a.output, b.output);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.sim_time.total_ms, b.sim_time.total_ms);
}
