//! `GPUABiMerge` — one recursion level of GPU-ABiSort (Listing 5 and
//! Section 5.4).
//!
//! The merge simultaneously applies the adaptive bitonic merge to the
//! `numTrees = n / 2^j` bitonic trees stored in-order in the input half of
//! the node stream. It is executed either with *sequential phases*
//! (Section 5.3 / Appendix A: `½j² + ½j` stream operations per level) or
//! with *partially overlapped stages* (Section 5.4: `2j − 1` steps per
//! level). Both variants use the Table-1 output-stream layout from
//! [`super::layout_plan`] and the kernels from [`super::kernels`].
//!
//! Because the paper's GPUs require distinct input and output streams
//! (Section 6.1), node pairs are always gathered from the permanent input
//! stream `trees_a`, written to the output stream `trees_b`, and copied
//! back after every launch; the pq-index streams use the ping-pong
//! technique instead.

use super::plan::{record_level_plan, PlanBuffers};
use stream_arch::{Layout, Node, Result, Stream, StreamArena, StreamProcessor};

/// The streams a GPU-ABiSort run operates on.
pub struct MergeStreams {
    /// Permanent gather/input node stream (2n nodes: workspace + input trees).
    pub trees_a: Stream<Node>,
    /// Permanent output node stream (2n nodes).
    pub trees_b: Stream<Node>,
    /// Ping-pong pair of pq-index streams (2n indices each).
    pub pq: [Stream<u32>; 2],
}

impl MergeStreams {
    /// Allocate the four working streams for an `n`-element sort from the
    /// processor's buffer arena (recycled backing buffers when a previous
    /// run of the same size class handed its streams back).
    ///
    /// All four streams are taken **uninitialized** (zero-fill elision):
    /// every element read from them is written earlier in the same run.
    /// The input half `[n, 2n)` of `trees_a` is host-initialized before
    /// the levels run; its workspace half is only read through blocks
    /// that the per-phase `copy_back` wrote first. `trees_b` is read only
    /// by `copy_back` over exactly the block the preceding kernel wrote.
    /// The pq streams ping-pong: each phase reads the full `2·len` region
    /// the previous phase wrote. The elision proptests and the committed
    /// engine fingerprints pin the resulting byte-identity down.
    pub fn take(arena: &mut StreamArena, n: usize, layout: Layout) -> Self {
        MergeStreams {
            trees_a: arena.take_stream_uninit("trees-a", 2 * n, layout),
            trees_b: arena.take_stream_uninit("trees-b", 2 * n, layout),
            pq: [
                arena.take_stream_uninit("pq-a", 2 * n, layout),
                arena.take_stream_uninit("pq-b", 2 * n, layout),
            ],
        }
    }

    /// Hand all backing buffers back for reuse by the next run.
    pub fn recycle(self, arena: &mut StreamArena) {
        arena.recycle(self.trees_a);
        arena.recycle(self.trees_b);
        let [pq_a, pq_b] = self.pq;
        arena.recycle(pq_a);
        arena.recycle(pq_b);
    }
}

/// What a (possibly truncated) level merge left behind.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MergeOutcome {
    /// All stages ran; the merged values sit in elements `[0, n)` of the
    /// node streams in in-order order and must be committed to the input
    /// half for the next level (Listing 2).
    Complete,
    /// The last stages were skipped (Section 7.2). The remaining 16-node
    /// subtrees must be traversed and merged with the fixed merge; their
    /// roots start at the given element index (their spare values sit at
    /// elements `[0, groups)`).
    Truncated {
        /// Element index of the first group root.
        roots_start: usize,
    },
    /// The level was skipped entirely (no adaptive stages to run); the
    /// 16-element groups are the input trees themselves.
    Skipped,
}

/// Run one recursion level of the adaptive bitonic merge.
///
/// * `n` — total number of elements being sorted (a power of two);
/// * `j` — recursion level (`1 ≤ j ≤ log₂ n`); the level merges
///   `n / 2^j` bitonic trees of `2^j` nodes each;
/// * `overlapped` — use the Section 5.4 overlapped-stage schedule;
/// * `skip_last_stages` — number of final stages to skip (4 when the
///   Section 7.2 fixed merge takes over, 0 otherwise).
///
/// Since the launch-graph planner landed this is a record-then-execute
/// wrapper: [`record_level_plan`] produces the level's launch plan (the
/// exact sequence this function used to issue inline), and the plan runs
/// against the level's streams.
pub fn merge_level(
    proc: &mut StreamProcessor,
    streams: &mut MergeStreams,
    n: usize,
    j: u32,
    overlapped: bool,
    skip_last_stages: u32,
) -> Result<MergeOutcome> {
    let (plan, outcome) = record_level_plan(n, j, overlapped, skip_last_stages);
    plan.execute(
        proc,
        &mut PlanBuffers {
            trees_a: &mut streams.trees_a,
            trees_b: &mut streams.trees_b,
            pq: &mut streams.pq,
            scratch: None,
            merged: None,
            source: None,
        },
    )?;
    Ok(outcome)
}

/// Borrow the ping-pong pq streams as (input, output) according to which
/// one currently holds the live indices.
pub(super) fn split_pq(
    pq: &mut [Stream<u32>; 2],
    pq_in: usize,
) -> (&Stream<u32>, &mut Stream<u32>) {
    let (first, second) = pq.split_at_mut(1);
    if pq_in == 0 {
        (&first[0], &mut second[0])
    } else {
        (&second[0], &mut first[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream_sort::kernels::init_input_trees;
    use crate::verify::{is_permutation, is_sorted, is_sorted_descending};
    use stream_arch::{GpuProfile, Layout, Value};

    fn make_streams(n: usize, layout: Layout) -> MergeStreams {
        MergeStreams {
            trees_a: Stream::new("trees-a", 2 * n, layout),
            trees_b: Stream::new("trees-b", 2 * n, layout),
            pq: [
                Stream::new("pq-a", 2 * n, layout),
                Stream::new("pq-b", 2 * n, layout),
            ],
        }
    }

    /// Run the full merge at the last recursion level (j = log n) on a
    /// bitonic input and return the merged sequence.
    fn merge_full(n: usize, input: &[Value], overlapped: bool) -> Vec<Value> {
        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
        let mut streams = make_streams(n, Layout::ZOrder);
        init_input_trees(&mut streams.trees_a, input);
        let j = n.trailing_zeros();
        let outcome =
            merge_level(&mut proc, &mut streams, n, j, overlapped, 0).expect("merge failed");
        assert_eq!(outcome, MergeOutcome::Complete);
        // The merged values are the value fields of elements [0, n) of the
        // node stream, in order.
        (0..n).map(|i| streams.trees_a.get(i).value).collect()
    }

    #[test]
    fn single_tree_merge_sorts_bitonic_input_sequentially() {
        for log_n in 1..=9u32 {
            let n = 1usize << log_n;
            let input = workloads::bitonic(n.max(2), log_n as u64);
            let out = merge_full(n.max(2), &input, false);
            assert!(is_sorted(&out), "n={n}");
            assert!(is_permutation(&input, &out), "n={n}");
        }
    }

    #[test]
    fn single_tree_merge_sorts_bitonic_input_overlapped() {
        for log_n in 1..=9u32 {
            let n = 1usize << log_n;
            let input = workloads::bitonic(n.max(2), 50 + log_n as u64);
            let out = merge_full(n.max(2), &input, true);
            assert!(is_sorted(&out), "n={n}");
            assert!(is_permutation(&input, &out), "n={n}");
        }
    }

    #[test]
    fn overlapped_and_sequential_produce_identical_output() {
        for seed in 0..5u64 {
            let n = 256;
            let input = workloads::bitonic(n, seed);
            assert_eq!(merge_full(n, &input, false), merge_full(n, &input, true));
        }
    }

    #[test]
    fn stream_merge_matches_sequential_reference() {
        let n = 512;
        let input = workloads::bitonic(n, 42);
        let (expected, _) = crate::sequential::adaptive_bitonic_merge(
            &input,
            true,
            crate::sequential::MergeVariant::Simplified,
        );
        assert_eq!(merge_full(n, &input, true), expected);
    }

    #[test]
    fn multi_tree_level_merges_with_alternating_directions() {
        // Level j=3 of sorting n=32: four trees of 8 nodes each, sorted
        // ascending/descending alternately.
        let n = 32;
        let j = 3;
        let mut input = Vec::new();
        for t in 0..4 {
            let mut block = workloads::uniform(8, t as u64);
            // Each block must be bitonic: two sorted halves in opposite
            // directions.
            block[..4].sort();
            block[4..].sort_by(|a, b| b.cmp(a));
            input.extend(block);
        }
        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
        let mut streams = make_streams(n, Layout::ZOrder);
        init_input_trees(&mut streams.trees_a, &input);
        merge_level(&mut proc, &mut streams, n, j, true, 0).unwrap();
        let merged: Vec<Value> = (0..n).map(|i| streams.trees_a.get(i).value).collect();
        for t in 0..4 {
            let block = &merged[t * 8..(t + 1) * 8];
            if t % 2 == 0 {
                assert!(is_sorted(block), "tree {t}");
            } else {
                assert!(is_sorted_descending(block), "tree {t}");
            }
            assert!(is_permutation(block, &input[t * 8..(t + 1) * 8]));
        }
    }

    #[test]
    fn truncated_merge_reports_group_roots() {
        let n = 64;
        let j = 6;
        let input = workloads::bitonic(n, 3);
        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
        let mut streams = make_streams(n, Layout::ZOrder);
        init_input_trees(&mut streams.trees_a, &input);
        let outcome = merge_level(&mut proc, &mut streams, n, j, true, 4).unwrap();
        // Last executed stage is j−5 = 1; its phase-1 block starts at
        // element 2·(2^1·1) = 4.
        assert_eq!(outcome, MergeOutcome::Truncated { roots_start: 4 });
        // Level 4 with 4 skipped stages is skipped entirely.
        let outcome = merge_level(&mut proc, &mut streams, n, 4, true, 4).unwrap();
        assert_eq!(outcome, MergeOutcome::Skipped);
    }

    #[test]
    fn sequential_mode_issues_more_steps_than_overlapped() {
        let n = 256;
        let input = workloads::bitonic(n, 8);
        let run = |overlapped: bool| {
            let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
            let mut streams = make_streams(n, Layout::ZOrder);
            init_input_trees(&mut streams.trees_a, &input);
            merge_level(
                &mut proc,
                &mut streams,
                n,
                n.trailing_zeros(),
                overlapped,
                0,
            )
            .unwrap();
            proc.counters()
        };
        let seq = run(false);
        let ovl = run(true);
        // Same work, same comparisons, fewer steps.
        assert_eq!(seq.comparisons, ovl.comparisons);
        assert_eq!(seq.kernel_instances, ovl.kernel_instances);
        assert!(ovl.steps < seq.steps);
        // 2j − 1 steps plus one for the initialization.
        let j = n.trailing_zeros() as u64;
        assert_eq!(ovl.steps, 2 * j - 1 + 1);
        // ½j² + ½j phases plus one for the initialization.
        assert_eq!(seq.steps, (j * j + j) / 2 + 1);
    }

    #[test]
    fn merge_respects_row_wise_layout_too() {
        let n = 128;
        let input = workloads::bitonic(n, 15);
        let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
        let mut streams = make_streams(n, Layout::RowMajor { width: 16 });
        init_input_trees(&mut streams.trees_a, &input);
        merge_level(&mut proc, &mut streams, n, n.trailing_zeros(), true, 0).unwrap();
        let merged: Vec<Value> = (0..n).map(|i| streams.trees_a.get(i).value).collect();
        assert!(is_sorted(&merged));
        assert!(is_permutation(&input, &merged));
    }

    #[test]
    fn z_order_layout_has_better_cache_hit_rate_than_row_wise() {
        let n = 4096;
        let input = workloads::bitonic(n, 23);
        let run = |layout: Layout| {
            let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
            let mut streams = make_streams(n, layout);
            init_input_trees(&mut streams.trees_a, &input);
            merge_level(&mut proc, &mut streams, n, n.trailing_zeros(), true, 0).unwrap();
            proc.counters()
        };
        let z = run(Layout::ZOrder);
        let row = run(Layout::RowMajor { width: 2048 });
        assert!(
            z.cache.hit_rate() > row.cache.hit_rate(),
            "z-order {:.3} vs row-wise {:.3}",
            z.cache.hit_rate(),
            row.cache.hit_rate()
        );
        assert!(z.bytes_read < row.bytes_read);
    }
}
