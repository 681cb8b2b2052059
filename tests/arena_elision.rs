//! Property tests for zero-fill elision ([`stream_arch::StreamArena`]'s
//! `take_uninit` / write-watermark API):
//!
//! * sorts that allocate their working streams uninitialized from a
//!   recycled arena are **byte identical** — output, every counter, cache
//!   statistics and simulated time — to fresh-allocation runs, across
//!   distributions, sizes straddling capacity-class boundaries, and
//!   recycled-buffer reuse chains (where the uninit buffers really do
//!   carry a previous, differently-sized run's stale data);
//! * the elision actually fires in steady state (elided-element stats
//!   grow run over run) — a regression guard against the API silently
//!   degrading to the refilling path;
//! * the segmented batch path stays identical under reuse too;
//! * a mixed-size soak keeps the pool under the bound the arena documents:
//!   less than twice what one run of the largest size leaves pooled.
//!
//! The reference is always a fresh processor. Within one run every stream
//! is taken before any is handed back, so a fresh processor never reuses a
//! buffer: its streams are brand-new default-initialized allocations.

use abisort::{GpuAbiSorter, SortConfig};
use proptest::prelude::*;
use stream_arch::{GpuProfile, StreamProcessor};
use workloads::Distribution;

fn distribution_strategy() -> impl Strategy<Value = Distribution> {
    prop_oneof![
        Just(Distribution::Uniform),
        Just(Distribution::Sorted),
        Just(Distribution::Reverse),
        Just(Distribution::NearlySorted { swaps: 16 }),
        Just(Distribution::FewDistinct { distinct: 4 }),
    ]
}

/// Sizes straddling the arena's power-of-two capacity classes: just
/// below, at, and just above a class boundary, plus small degenerates.
fn size_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        1 => 0usize..3,
        2 => 200usize..280,
        3 => 960usize..1100,
        2 => 2000usize..2100,
        2 => 4000usize..4200,
    ]
}

/// A fresh-allocation reference run on a new processor: every stream is
/// a brand-new default-initialized allocation, the semantics the elided
/// runs must reproduce bit for bit.
fn reference_run(
    sorter: &GpuAbiSorter,
    input: &[stream_arch::Value],
) -> (Vec<stream_arch::Value>, stream_arch::Counters, f64) {
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    let run = sorter.sort_run(&mut proc, input).expect("reference sort");
    (run.output, run.counters, run.sim_time.total_ms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A chain of differently-sized, differently-distributed sorts on one
    /// warm processor: every run's uninit streams are backed by the
    /// previous runs' stale buffers, and every run must be byte-identical
    /// to a fresh-allocation run of the same input.
    #[test]
    fn uninit_reuse_chains_are_byte_identical_to_fresh_runs(
        chain in proptest::collection::vec((distribution_strategy(), size_strategy(), 0u64..1000), 2..6)
    ) {
        let sorter = GpuAbiSorter::new(SortConfig::default());
        let mut pooled = StreamProcessor::new(GpuProfile::geforce_7800());
        for (dist, n, seed) in chain {
            let input = workloads::generate(dist, n, seed);
            let run = sorter.sort_run(&mut pooled, &input).expect("pooled sort");
            let (ref_out, ref_counters, ref_sim) = reference_run(&sorter, &input);
            prop_assert_eq!(&run.output, &ref_out);
            prop_assert_eq!(&run.counters, &ref_counters);
            prop_assert_eq!(run.sim_time.total_ms, ref_sim);
        }
    }
}

/// The elision must actually fire: repeated same-class sorts serve every
/// working stream below the write watermark, so the elided-element count
/// grows by the full stream footprint each run.
#[test]
fn steady_state_sorts_elide_the_whole_refill() {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    let input = workloads::uniform(1024, 7);

    sorter.sort_run(&mut proc, &input).expect("warm-up");
    let after_warmup = proc.arena_ref().stats().elided_elements;
    sorter
        .sort_run(&mut proc, &input)
        .expect("steady-state run");
    let per_run = proc.arena_ref().stats().elided_elements - after_warmup;
    // The six uninit working streams of an n=1024 sort: two 2n-node tree
    // streams, two 2n-index pq streams, two n-value scratch streams.
    let expected = 4 * 2 * 1024 + 2 * 1024;
    assert_eq!(
        per_run, expected as u64,
        "a steady-state run must elide every working-stream refill"
    );
}

/// Segmented (batched-service) sorts reuse stale buffers across
/// submissions and stay identical to fresh-allocation segmented runs.
#[test]
fn segmented_runs_with_reuse_are_identical_to_fresh_runs() {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let mut pooled = StreamProcessor::new(GpuProfile::geforce_7800());
    for (segments, segment_len, seed) in [(4usize, 64usize, 1u64), (8, 32, 2), (2, 256, 3)] {
        let input = workloads::uniform(segments * segment_len, seed);
        let run = sorter
            .sort_segments_run(&mut pooled, &input, segment_len)
            .expect("segmented sort");
        let mut fresh = StreamProcessor::new(GpuProfile::geforce_7800());
        let reference = sorter
            .sort_segments_run(&mut fresh, &input, segment_len)
            .expect("reference segmented sort");
        assert_eq!(run.output, reference.output);
        assert_eq!(run.counters, reference.counters);
        assert_eq!(run.sim_time.total_ms, reference.sim_time.total_ms);
    }
}

/// The pool bound the arena documents, under a soak that mixes every
/// capacity class from 64 to 16384 elements and both run kinds on one
/// processor: pooled bytes stay below twice what a fresh processor's
/// single largest sort leaves pooled, and once every (class, kind) pair
/// has run the bin census stops growing.
#[test]
fn mixed_size_soak_stays_under_twice_the_largest_run() {
    const LOG2_SIZES: std::ops::RangeInclusive<u32> = 6..=14;
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let largest = 1usize << LOG2_SIZES.end();
    let mut fresh = StreamProcessor::new(GpuProfile::geforce_7800());
    sorter
        .sort_run(&mut fresh, &workloads::uniform(largest, 0))
        .expect("largest sort");
    let bound = 2 * fresh.arena_ref().pooled_bytes();

    // Six passes over every class, alternating the run kind; the
    // segmented passes vary the segment length.
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    let mut census = None;
    for pass in 0..6usize {
        for log2 in LOG2_SIZES {
            let class = 1usize << log2;
            let seed = (pass as u64) << 8 | u64::from(log2);
            if pass.is_multiple_of(2) {
                // Any size in (class / 2, class] pads to `class`.
                let n = class - (seed as usize * 37) % (class / 2);
                let input = workloads::uniform(n, seed);
                sorter.sort_run(&mut proc, &input).expect("soak sort");
            } else {
                let segment_len = class >> pass.min(3);
                let input = workloads::uniform(class, seed);
                sorter
                    .sort_segments_run(&mut proc, &input, segment_len)
                    .expect("soak segmented sort");
            }
            let arena = proc.arena_ref();
            assert!(
                arena.pooled_bytes() < bound,
                "pass {pass}, class {class}: {} B pooled, bound {bound} B",
                arena.pooled_bytes()
            );
            let now = (arena.class_count(), arena.pooled_buffers());
            match census {
                Some(census) => assert_eq!(now, census, "pass {pass}: the bin census grew"),
                None if pass == 1 && log2 == *LOG2_SIZES.end() => census = Some(now),
                None => {}
            }
        }
    }
}
