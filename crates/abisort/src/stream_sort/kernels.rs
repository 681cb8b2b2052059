//! The kernel programs of GPU-ABiSort.
//!
//! Each kernel is one public function that validates the hardware
//! restrictions, binds its streams — contiguous inputs as [`Input`]s,
//! gather streams as [`GatherView`]s, outputs as plain slices — and runs
//! as a launch-wide kernel ([`StreamProcessor::launch_wide`]): one body
//! loops over all instances of the launch. Every instance reads, writes
//! and compares a fixed number of elements (Section 3.2), which the
//! kernel declares as its [`LaunchShape`] and the launch charges once;
//! cached fetches go to the recorder in instance order, and gathers are
//! charged as they happen. The launch-graph planner replays its nodes
//! through these functions.
//!
//! The kernels correspond to the paper's pseudo code and Section 7
//! descriptions:
//!
//! | function              | paper reference                                  |
//! |-----------------------|--------------------------------------------------|
//! | [`extract_roots_and_spares`] | Listing 5, initialization of stage 0 phase 0 |
//! | [`phase0`]             | Listing 3 (`phase0` kernel)                      |
//! | [`phase_i`]            | Listing 4 (`phaseI` kernel)                      |
//! | [`copy_back`]          | Section 6.1 (write-back to the permanent input stream) |
//! | [`commit_level`]       | Listing 2, `bitonicTrees[n..2n−1].value = GPUABiMerge(…)` |
//! | [`local_sort8`]        | Section 7.1, odd-even transition sort of 8 pairs |
//! | [`build_trees16`]      | Section 7.1 / 7.2, conversion of sorted 16-blocks to bitonic trees |
//! | [`traverse16`]         | Section 7.2, in-order traversal producing 16-value bitonic sequences |
//! | [`fixed_merge16`]      | Section 7.2, non-adaptive bitonic merge of 16 values |
//!
//! All kernels follow the convention of Listings 3/4 for the sort
//! direction: `reverseSortDir = isOdd(instance_index / numInstancesPerTree)`,
//! which makes the simultaneously merged trees alternate between ascending
//! and descending order so that the next recursion level again receives
//! bitonic inputs.

use crate::tree::fixed_children;
use stream_arch::{
    GatherView, Input, LaunchCtx, LaunchShape, Node, Result, Stream, StreamElement, StreamError,
    StreamProcessor, Value,
};

// The kernels' launch names, which [`super::Op::name`] reports too.
pub(super) const EXTRACT_ROOTS_SPARES: &str = "extract-roots-spares";
pub(super) const PHASE0: &str = "phase0";
pub(super) const PHASE_I: &str = "phaseI";
pub(super) const COPY_BACK: &str = "copy-back";
pub(super) const COMMIT_LEVEL: &str = "commit-level";
pub(super) const LOCAL_SORT8: &str = "local-sort-8";
pub(super) const BUILD_TREES16: &str = "build-trees-16";
pub(super) const TRAVERSE16: &str = "traverse-16";
pub(super) const FIXED_MERGE16: &str = "fixed-merge-16";

/// Check that a one-input, one-output kernel reads and writes distinct
/// streams (Section 6.1).
fn check_distinct<A: StreamElement, B: StreamElement>(
    proc: &StreamProcessor,
    input: &Stream<A>,
    output: &Stream<B>,
) -> Result<()> {
    proc.check_distinct_io(
        &[(input.id(), input.name())],
        &[(output.id(), output.name())],
    )
}

/// `isOdd(instance / numInstancesPerTree)` — the alternating sort direction
/// of Listings 3/4, expressed as "is this tree sorted ascending?". Trees
/// hold a power of two of instances (each kernel asserts it), so this is a
/// mask, not a division.
#[inline]
fn ascending_for(instance: usize, instances_per_tree: usize) -> bool {
    instance & instances_per_tree == 0
}

/// The comparison of Listings 3/4: `(p > q) != reverseSortDir`, i.e. the
/// pair is out of order with respect to the tree's sort direction. The
/// launch's [`LaunchShape`] counts it.
#[inline]
fn out_of_order(p: &Value, q: &Value, ascending: bool) -> bool {
    p.gt(q) == ascending
}

/// Swap `keys[a]` and `keys[b]` if they are [`out_of_order`], branch-free
/// on [`Value::order_key`]s. Equal keys are equal values, so swapping them
/// or not leaves the same keys.
#[inline]
fn compare_exchange(keys: &mut [u64], a: usize, b: usize, ascending: bool) {
    let (lo, hi) = (keys[a].min(keys[b]), keys[a].max(keys[b]));
    (keys[a], keys[b]) = if ascending { (lo, hi) } else { (hi, lo) };
}

/// Initialization of the merge at recursion level `j` (Listing 5, before
/// the stage loop): for each of the `numTrees` input bitonic trees, gather
/// its root and spare node from the in-order-stored input half of the node
/// stream and write them to the locations stage 0 phase 0 reads from
/// (spare values to elements `[0, numTrees)`, root nodes to
/// `[numTrees, 2·numTrees)`).
pub fn extract_roots_and_spares(
    proc: &mut StreamProcessor,
    trees_in: &Stream<Node>,
    trees_out: &mut Stream<Node>,
    n: usize,
    j: u32,
) -> Result<()> {
    let num_trees = n >> j;
    let pairs_per_tree = 1usize << (j - 1);
    check_distinct(proc, trees_in, trees_out)?;
    let gather = GatherView::new(trees_in);
    let out = trees_out.block_mut(0, 2 * num_trees)?;
    let shape = LaunchShape::new(2 * num_trees).writes::<Node>(1);
    proc.launch_wide(EXTRACT_ROOTS_SPARES, shape, |ctx| {
        // Instances [0, numTrees) emit the spare values, instances
        // [numTrees, 2·numTrees) the root nodes, so that a single linear
        // write produces the layout stage 0 phase 0 expects.
        ctx.for_each_instance(|ctx, i| {
            out[i] = if i < num_trees {
                let spare_pos = n + (2 * i + 2) * pairs_per_tree - 1;
                Node::leaf(ctx.gather(&gather, spare_pos).value)
            } else {
                let t = i - num_trees;
                ctx.gather(&gather, n + (2 * t + 1) * pairs_per_tree - 1)
            };
        });
    })
}

/// The phase 0 kernel (Listing 3): one instance per bitonic (sub)tree.
///
/// Reads the subtree's root node and spare value, performs phase 0 of the
/// simplified adaptive min/max determination (Section 4.2), pushes the new
/// `(p, q)` node indices for phase 1, and writes the updated root and spare
/// *values* to elements `[0, 2·len)` of the node output stream.
#[allow(clippy::too_many_arguments)]
pub fn phase0(
    proc: &mut StreamProcessor,
    trees_in: &Stream<Node>,
    trees_out: &mut Stream<Node>,
    pq_out: &mut Stream<u32>,
    pq_out_offset: usize,
    len: usize,
    instances_per_tree: usize,
) -> Result<()> {
    assert!(instances_per_tree.is_power_of_two());
    proc.check_distinct_io(
        &[(trees_in.id(), trees_in.name())],
        &[
            (trees_out.id(), trees_out.name()),
            (pq_out.id(), pq_out.name()),
        ],
    )?;
    let root_in = Input::new(trees_in, len, len)?;
    let spare_in = Input::new(trees_in, 0, len)?;
    let node_out = trees_out.block_mut(0, 2 * len)?;
    let pq = pq_out.block_mut(pq_out_offset, 2 * len)?;
    let shape = LaunchShape::new(len)
        .reads::<Node>(2)
        .writes::<u32>(2)
        .writes::<Node>(2)
        .comparisons(1);
    proc.launch_wide(PHASE0, shape, |ctx| {
        for i in 0..ctx.instances() {
            let ascending = ascending_for(i, instances_per_tree);
            let mut root = ctx.read(&root_in, i, 1)[0];
            let mut spare_value = ctx.read(&spare_in, i, 1)[0].value;
            if out_of_order(&root.value, &spare_value, ascending) {
                std::mem::swap(&mut root.value, &mut spare_value);
                std::mem::swap(&mut root.left, &mut root.right);
            }
            pq[2 * i..2 * i + 2].copy_from_slice(&[root.left, root.right]);
            node_out[2 * i..2 * i + 2]
                .copy_from_slice(&[Node::leaf(root.value), Node::leaf(spare_value)]);
        }
    })
}

/// The phase `i > 0` kernel (Listing 4): one instance per `(p, q)` node
/// pair.
///
/// Recovers the `(p, q)` indices from the pq-index stream, gathers the two
/// nodes, performs one phase of the simplified adaptive min/max
/// determination, updates the child pointers that will be replaced in the
/// next phase using the iterator stream, and writes the modified node pair
/// linearly to its Table-1 output block, which must hold the `2·len`
/// nodes.
#[allow(clippy::too_many_arguments)]
pub fn phase_i(
    proc: &mut StreamProcessor,
    trees_in: &Stream<Node>,
    trees_out: &mut Stream<Node>,
    pq_in: &Stream<u32>,
    pq_in_offset: usize,
    pq_out: &mut Stream<u32>,
    pq_out_offset: usize,
    out_block: (usize, usize),
    next_block_start: usize,
    len: usize,
    instances_per_tree: usize,
) -> Result<()> {
    assert!(instances_per_tree.is_power_of_two());
    proc.check_distinct_io(
        &[(trees_in.id(), trees_in.name()), (pq_in.id(), pq_in.name())],
        &[
            (trees_out.id(), trees_out.name()),
            (pq_out.id(), pq_out.name()),
        ],
    )?;
    let pq_read = Input::new(pq_in, pq_in_offset, 2 * len)?;
    let gather = GatherView::new(trees_in);
    let node_out = trees_out.block_mut(out_block.0, out_block.1)?;
    let node_out = node_out
        .get_mut(..2 * len)
        .ok_or(StreamError::OutputOverflow {
            capacity: out_block.1,
            required: 2 * len,
        })?;
    let pq_write = pq_out.block_mut(pq_out_offset, 2 * len)?;
    let shape = LaunchShape::new(len)
        .reads::<u32>(2)
        .writes::<u32>(2)
        .iter_reads(2)
        .writes::<Node>(2)
        .comparisons(1);
    proc.launch_wide(PHASE_I, shape, |ctx| {
        ctx.for_each_instance(|ctx, i| {
            let ascending = ascending_for(i, instances_per_tree);
            let pq = ctx.read(&pq_read, 2 * i, 2);
            let mut p = ctx.gather(&gather, pq[0] as usize);
            let mut q = ctx.gather(&gather, pq[1] as usize);
            // The iterator stream yields the element indices the *next*
            // phase will write to (Section 5.2), so child pointers can be
            // redirected there.
            let next = (next_block_start + 2 * i) as u32;
            let replaced = if out_of_order(&p.value, &q.value, ascending) {
                std::mem::swap(&mut p.value, &mut q.value);
                std::mem::swap(&mut p.left, &mut q.left);
                let replaced = [p.right, q.right];
                (p.right, q.right) = (next, next + 1);
                replaced
            } else {
                let replaced = [p.left, q.left];
                (p.left, q.left) = (next, next + 1);
                replaced
            };
            pq_write[2 * i..2 * i + 2].copy_from_slice(&replaced);
            node_out[2 * i..2 * i + 2].copy_from_slice(&[p, q]);
        });
    })
}

/// Copy the node pairs just written to the output stream back to the
/// permanent input stream (Section 6.1: "After each step of the algorithm,
/// all nodes that have just been written to the output stream are simply
/// copied back to the input stream").
pub fn copy_back(
    proc: &mut StreamProcessor,
    trees_out: &Stream<Node>,
    trees_in: &mut Stream<Node>,
    block: (usize, usize),
) -> Result<()> {
    debug_assert_eq!(block.1 % 2, 0);
    check_distinct(proc, trees_out, trees_in)?;
    proc.launch_copy(COPY_BACK, trees_out, trees_in, block, 2)
}

/// End-of-level commit (Listing 2): reinterpret the in-order value sequence
/// produced by the final merge stage (elements `[0, n)` of the node stream)
/// as the input bitonic trees of the next recursion level by writing the
/// values into the second half `[n, 2n)` with the fixed in-order child
/// indices. Each instance re-trees two values.
pub fn commit_level(
    proc: &mut StreamProcessor,
    trees_in: &Stream<Node>,
    trees_out: &mut Stream<Node>,
    n: usize,
) -> Result<()> {
    check_distinct(proc, trees_in, trees_out)?;
    let src = Input::new(trees_in, 0, n)?;
    let dst = trees_out.block_mut(n, n)?;
    let shape = LaunchShape::new(n / 2).reads::<Node>(2).writes::<Node>(2);
    proc.launch_wide(COMMIT_LEVEL, shape, |ctx| {
        let nodes = ctx.read(&src, 0, 2 * ctx.instances());
        write_in_order(dst, nodes.iter().map(|node| node.value), n);
    })
}

/// The Section 7.1 local sort: each instance reads 8 value/pointer pairs
/// and sorts them with an odd-even transition sort, ascending for even
/// block indices and descending for odd ones, so that consecutive blocks
/// form bitonic 16-sequences.
///
/// 8 pairs × 8 bytes = 64 bytes is exactly the per-instance output limit of
/// the paper's GPUs (16 × 32 bit), which is why the local sort stops at 8.
pub fn local_sort8(
    proc: &mut StreamProcessor,
    source: &Stream<Value>,
    sorted: &mut Stream<Value>,
    n: usize,
) -> Result<()> {
    assert!(
        n.is_multiple_of(8),
        "local sort requires a multiple of 8 elements"
    );
    check_distinct(proc, source, sorted)?;
    let src = Input::new(source, 0, n)?;
    let dst = sorted.block_mut(0, n)?;
    // 8 passes of alternately 4 and 3 compare-exchanges.
    let shape = LaunchShape::new(n / 8)
        .reads::<Value>(8)
        .writes::<Value>(8)
        .comparisons(28);
    proc.launch_wide(LOCAL_SORT8, shape, |ctx| {
        let values = ctx.read(&src, 0, 8 * ctx.instances());
        for (i, (block, out)) in values
            .chunks_exact(8)
            .zip(dst.chunks_exact_mut(8))
            .enumerate()
        {
            let ascending = i.is_multiple_of(2);
            let mut keys = [0u64; 8];
            for (key, value) in keys.iter_mut().zip(block) {
                *key = value.order_key();
            }
            // Odd-even transition sort: 8 passes of alternating adjacent
            // compare-exchanges (the comparison order that "allows for
            // better SIMD optimizations", Section 7.1).
            for pass in 0..8 {
                for k in (pass % 2..7).step_by(2) {
                    compare_exchange(&mut keys, k, k + 1, ascending);
                }
            }
            for (out, &key) in out.iter_mut().zip(&keys) {
                *out = Value::from_order_key(key);
            }
        }
    })
}

/// Convert sorted/merged 16-value blocks into in-order-stored bitonic trees
/// of 16 nodes in the input half `[n, 2n)` of the node stream
/// (Section 7.1 / 7.2). Each instance emits 4 nodes (4 × 16 bytes = the
/// per-instance output limit).
pub fn build_trees16(
    proc: &mut StreamProcessor,
    values: &Stream<Value>,
    trees_out: &mut Stream<Node>,
    n: usize,
) -> Result<()> {
    assert!(
        n.is_multiple_of(4),
        "tree building requires a multiple of 4 elements"
    );
    check_distinct(proc, values, trees_out)?;
    let src = Input::new(values, 0, n)?;
    let dst = trees_out.block_mut(n, n)?;
    let shape = LaunchShape::new(n / 4).reads::<Value>(4).writes::<Node>(4);
    proc.launch_wide(BUILD_TREES16, shape, |ctx| {
        let values = ctx.read(&src, 0, 4 * ctx.instances());
        write_in_order(dst, values.iter().copied(), n);
    })
}

/// Where the 16-element groups of the Section 7.2 fixed merge find their
/// subtree roots and spare nodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GroupSource {
    /// The groups are the input bitonic trees themselves (recursion level
    /// `j = 4`, where no adaptive stages run before the fixed merge):
    /// group `g`'s root is the in-order-stored node `n + 16g + 7` and its
    /// spare `n + 16g + 15`.
    InputTrees {
        /// Total number of elements `n` (the input half starts at `n`).
        n: usize,
    },
    /// The groups are the subtrees left over after the truncated adaptive
    /// merge (levels `j ≥ 5`): group `g`'s root was written by phase 1 of
    /// the last executed stage at element `roots_start + g`, and its spare
    /// value by phase 0 at element `g`.
    WorkspaceSubtrees {
        /// First element of the block holding the group roots.
        roots_start: usize,
    },
}

impl GroupSource {
    #[inline]
    fn root_index(&self, group: usize) -> usize {
        match *self {
            GroupSource::InputTrees { n } => n + 16 * group + 7,
            GroupSource::WorkspaceSubtrees { roots_start } => roots_start + group,
        }
    }

    #[inline]
    fn spare_index(&self, group: usize) -> usize {
        match *self {
            GroupSource::InputTrees { n } => n + 16 * group + 15,
            GroupSource::WorkspaceSubtrees { .. } => group,
        }
    }
}

/// In-order traversal of a subtree of the given height (≤ 3 here),
/// collecting values through gather reads only.
fn in_order_collect(
    ctx: &mut LaunchCtx<'_>,
    gather: &GatherView<'_, Node>,
    node_idx: usize,
    height: u32,
    out: &mut [Value],
    pos: &mut usize,
) {
    let node = ctx.gather(gather, node_idx);
    if height > 1 {
        in_order_collect(ctx, gather, node.left as usize, height - 1, out, pos);
    }
    out[*pos] = node.value;
    *pos += 1;
    if height > 1 {
        in_order_collect(ctx, gather, node.right as usize, height - 1, out, pos);
    }
}

/// The Section 7.2 in-order traversal: extract the 16-value bitonic
/// sequence of every remaining 16-node subtree into a plain value stream so
/// that the non-adaptive merge can read it linearly. Two instances per
/// group; each gathers 8–9 nodes and outputs 8 values (the per-instance
/// output limit).
pub fn traverse16(
    proc: &mut StreamProcessor,
    trees_in: &Stream<Node>,
    values_out: &mut Stream<Value>,
    groups: usize,
    source: GroupSource,
) -> Result<()> {
    check_distinct(proc, trees_in, values_out)?;
    let gather = GatherView::new(trees_in);
    let dst = values_out.block_mut(0, groups * 16)?;
    let shape = LaunchShape::new(groups * 2).writes::<Value>(8);
    proc.launch_wide(TRAVERSE16, shape, |ctx| {
        ctx.for_each_instance(|ctx, i| {
            let group = i / 2;
            let out = &mut dst[8 * i..8 * i + 8];
            let root = ctx.gather(&gather, source.root_index(group));
            let mut pos = 0;
            if i % 2 == 0 {
                // Lower half: in-order of the root's left subtree, then
                // the root value itself.
                in_order_collect(ctx, &gather, root.left as usize, 3, out, &mut pos);
                out[7] = root.value;
            } else {
                // Upper half: in-order of the root's right subtree, then
                // the spare value.
                in_order_collect(ctx, &gather, root.right as usize, 3, out, &mut pos);
                out[7] = ctx.gather(&gather, source.spare_index(group)).value;
            }
        });
    })
}

/// The Section 7.2 non-adaptive bitonic merge of 16-value bitonic
/// sequences. Two instances per sequence: one outputs the merged lower
/// half, the other the merged upper half (respecting the per-instance
/// output limit). The merge direction alternates per destination tree so
/// the next recursion level again receives bitonic inputs.
pub fn fixed_merge16(
    proc: &mut StreamProcessor,
    values_in: &Stream<Value>,
    values_out: &mut Stream<Value>,
    groups: usize,
    groups_per_tree: usize,
) -> Result<()> {
    assert!(groups_per_tree.is_power_of_two());
    check_distinct(proc, values_in, values_out)?;
    let gather = GatherView::new(values_in);
    let dst = values_out.block_mut(0, groups * 16)?;
    // 8 compare-exchanges at distance 8, then 4 each at distances 4, 2, 1.
    let shape = LaunchShape::new(groups * 2)
        .writes::<Value>(8)
        .comparisons(20);
    proc.launch_wide(FIXED_MERGE16, shape, |ctx| {
        ctx.for_each_instance(|ctx, i| {
            let group = i / 2;
            let ascending = ascending_for(group, groups_per_tree);
            // Load the whole 16-value bitonic sequence.
            let mut v = [Value::default(); 16];
            ctx.gather_range(&gather, group * 16, &mut v);
            // First compare-exchange distance 8; afterwards the lower and
            // upper halves are independent, so the instance keeps only its
            // half: the smaller or the larger key of every pair.
            let keep_larger = (i % 2 == 1) == ascending;
            let mut half = [0u64; 8];
            for (k, key) in half.iter_mut().enumerate() {
                let (a, b) = (v[k].order_key(), v[k + 8].order_key());
                *key = if keep_larger { a.max(b) } else { a.min(b) };
            }
            // Remaining bitonic merge network on 8 values: distances 4, 2,
            // 1.
            for step in [4usize, 2, 1] {
                for block in (0..8).step_by(2 * step) {
                    for k in block..block + step {
                        compare_exchange(&mut half, k, k + step, ascending);
                    }
                }
            }
            for (out, key) in dst[8 * i..8 * i + 8].iter_mut().zip(half) {
                *out = Value::from_order_key(key);
            }
        });
    })
}

/// Write `values` to `dst` as the in-order-stored nodes of the input half
/// `[n, 2n)`, from its first position on.
#[inline]
fn write_in_order(dst: &mut [Node], values: impl Iterator<Item = Value>, n: usize) {
    for (local, (out, value)) in dst.iter_mut().zip(values).enumerate() {
        *out = in_order_node(value, n, local);
    }
}

/// The node stored at local in-order position `local` of the input half
/// `[n, 2n)`: fixed child indices for internal nodes, the leaf sentinel for
/// leaves and for the overall spare node (position `n − 1`), whose child
/// pointers are never dereferenced.
#[inline]
fn in_order_node(value: Value, n: usize, local: usize) -> Node {
    let global = n + local;
    let (left, right) = fixed_children(global);
    if left as usize == global || local == n - 1 {
        Node::leaf(value)
    } else {
        Node::new(value, left, right)
    }
}

/// Host-side initialization of the input half of a node stream with the
/// source values and the fixed in-order child indices (the initialization
/// loop of Listing 2). Corresponds to the application writing its data into
/// GPU memory, so it is not charged as kernel work.
pub fn init_input_trees(trees: &mut Stream<Node>, values: &[Value]) {
    let n = values.len();
    for (i, &value) in values.iter().enumerate() {
        trees.set(n + i, in_order_node(value, n, i));
    }
}

/// Host-side read-back of the sorted result from the input half of the node
/// stream (in-order storage makes this a plain copy of the value fields).
/// Reads through the borrowed [`Stream::range`] view — no intermediate
/// node copy.
pub fn read_back_values(trees: &Stream<Node>, n: usize) -> Vec<Value> {
    trees.range(n, n).iter().map(|node| node.value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_arch::{GpuProfile, Layout, NULL_INDEX};

    fn processor() -> StreamProcessor {
        StreamProcessor::new(GpuProfile::geforce_6800())
    }

    fn value_stream(name: &str, values: &[Value]) -> Stream<Value> {
        Stream::from_vec(name, values.to_vec(), Layout::ZOrder)
    }

    #[test]
    fn local_sort8_sorts_blocks_with_alternating_directions() {
        let n = 64;
        let input = workloads::uniform(n, 5);
        let src = value_stream("src", &input);
        let mut dst: Stream<Value> = Stream::new("dst", n, Layout::ZOrder);
        let mut p = processor();
        local_sort8(&mut p, &src, &mut dst, n).unwrap();
        let out = dst.as_slice();
        for block in 0..n / 8 {
            let slice = &out[block * 8..block * 8 + 8];
            if block % 2 == 0 {
                assert!(slice.windows(2).all(|w| w[0] <= w[1]), "block {block}");
            } else {
                assert!(slice.windows(2).all(|w| w[0] >= w[1]), "block {block}");
            }
            // Each block is a permutation of its input block.
            assert!(crate::verify::is_permutation(
                slice,
                &input[block * 8..block * 8 + 8]
            ));
        }
        let c = p.counters();
        assert_eq!(c.launches, 1);
        assert_eq!(c.kernel_instances, (n / 8) as u64);
    }

    #[test]
    fn build_trees16_produces_in_order_trees_with_fixed_children() {
        let n = 32;
        let values = workloads::uniform(n, 7);
        let src = value_stream("vals", &values);
        let mut trees: Stream<Node> = Stream::new("trees", 2 * n, Layout::ZOrder);
        let mut p = processor();
        build_trees16(&mut p, &src, &mut trees, n).unwrap();
        for (i, value) in values.iter().enumerate().take(n) {
            let node = trees.get(n + i);
            assert_eq!(node.value, *value);
            let (l, r) = fixed_children(n + i);
            if l as usize == n + i || i == n - 1 {
                assert_eq!(node.left, NULL_INDEX);
            } else {
                assert_eq!((node.left, node.right), (l, r));
            }
        }
    }

    #[test]
    fn init_and_read_back_roundtrip() {
        let n = 16;
        let values = workloads::uniform(n, 3);
        let mut trees: Stream<Node> = Stream::new("trees", 2 * n, Layout::ZOrder);
        init_input_trees(&mut trees, &values);
        assert_eq!(read_back_values(&trees, n), values);
    }

    #[test]
    fn extract_places_roots_and_spares_for_stage0() {
        let n = 16;
        let j = 2; // trees of 4 nodes: roots at n+1, n+5, …; spares at n+3, n+7, …
        let values = workloads::uniform(n, 9);
        let mut a: Stream<Node> = Stream::new("a", 2 * n, Layout::ZOrder);
        init_input_trees(&mut a, &values);
        let mut b: Stream<Node> = Stream::new("b", 2 * n, Layout::ZOrder);
        let mut p = processor();
        extract_roots_and_spares(&mut p, &a, &mut b, n, j).unwrap();
        let num_trees = n >> j;
        for t in 0..num_trees {
            assert_eq!(
                b.get(num_trees + t).value,
                values[4 * t + 1],
                "root of tree {t}"
            );
            assert_eq!(b.get(t).value, values[4 * t + 3], "spare of tree {t}");
        }
    }

    #[test]
    fn phase0_swaps_out_of_order_root_and_spare() {
        // Two trees so both sort directions are exercised.
        let n = 8;
        let mut a: Stream<Node> = Stream::new("a", 2 * n, Layout::ZOrder);
        // Stage 0 of level j=2: len = numTrees = 2. Roots at [2,4), spares at [0,2).
        a.set(2, Node::new(Value::new(5.0, 0), 40, 41));
        a.set(3, Node::new(Value::new(1.0, 1), 42, 43));
        a.set(0, Node::leaf(Value::new(3.0, 2))); // spare of tree 0
        a.set(1, Node::leaf(Value::new(4.0, 3))); // spare of tree 1
        let mut b: Stream<Node> = Stream::new("b", 2 * n, Layout::ZOrder);
        let mut pq: Stream<u32> = Stream::new("pq", 2 * n, Layout::Linear);
        let mut p = processor();
        phase0(&mut p, &a, &mut b, &mut pq, 0, 2, 1).unwrap();
        // Tree 0 (ascending): root 5.0 > spare 3.0 → swapped, children reversed.
        assert_eq!(b.get(0).value.key, 3.0);
        assert_eq!(b.get(1).value.key, 5.0);
        assert_eq!((pq.get(0), pq.get(1)), (41, 40));
        // Tree 1 (descending): root 1.0 < spare 4.0 → out of order for a
        // descending merge → swapped as well.
        assert_eq!(b.get(2).value.key, 4.0);
        assert_eq!(b.get(3).value.key, 1.0);
        assert_eq!((pq.get(2), pq.get(3)), (43, 42));
        assert_eq!(p.counters().comparisons, 2);
    }

    #[test]
    fn copy_back_restores_the_written_block() {
        let n = 8;
        let mut a: Stream<Node> = Stream::new("a", n, Layout::ZOrder);
        let mut b: Stream<Node> = Stream::new("b", n, Layout::ZOrder);
        for i in 0..n {
            b.set(i, Node::leaf(Value::new(i as f32, i as u32)));
        }
        let mut p = processor();
        copy_back(&mut p, &b, &mut a, (2, 4)).unwrap();
        assert_eq!(a.get(2).value.key, 2.0);
        assert_eq!(a.get(5).value.key, 5.0);
        assert_eq!(a.get(0).value.key, 0.0 * 0.0);
        assert_eq!(a.get(6).value, Value::default());
    }

    #[test]
    fn commit_level_rebuilds_in_order_trees() {
        let n = 16;
        let sorted = {
            let mut v = workloads::uniform(n, 13);
            v.sort();
            v
        };
        let mut a: Stream<Node> = Stream::new("a", 2 * n, Layout::ZOrder);
        for (i, &v) in sorted.iter().enumerate() {
            a.set(i, Node::leaf(v));
        }
        let mut b: Stream<Node> = Stream::new("b", 2 * n, Layout::ZOrder);
        let mut p = processor();
        commit_level(&mut p, &a, &mut b, n).unwrap();
        assert_eq!(read_back_values(&b, n), sorted);
        // Child indices are the fixed in-order ones.
        let root = b.get(n + n / 2 - 1);
        let (l, r) = fixed_children(n + n / 2 - 1);
        assert_eq!((root.left, root.right), (l, r));
    }

    #[test]
    fn traverse16_and_fixed_merge16_sort_bitonic_16_blocks() {
        // Build input trees over two bitonic 16-sequences and run the j=4
        // fixed-merge path (no adaptive stages).
        let n = 32;
        let mut input = Vec::new();
        for block in 0..2 {
            let mut b = workloads::uniform(16, block as u64);
            let half = 8;
            b[..half].sort();
            b[half..].sort_by(|a, b| b.cmp(a));
            input.extend(b);
        }
        let mut a: Stream<Node> = Stream::new("a", 2 * n, Layout::ZOrder);
        init_input_trees(&mut a, &input);
        let mut seqs: Stream<Value> = Stream::new("seqs", n, Layout::ZOrder);
        let mut merged: Stream<Value> = Stream::new("merged", n, Layout::ZOrder);
        let mut p = processor();
        let groups = n / 16;
        traverse16(&mut p, &a, &mut seqs, groups, GroupSource::InputTrees { n }).unwrap();
        // The traversal of in-order-stored trees reproduces the sequences.
        assert_eq!(seqs.as_slice(), &input[..]);
        fixed_merge16(&mut p, &seqs, &mut merged, groups, 1).unwrap();
        let out = merged.as_slice();
        // Group 0 ascending, group 1 descending (alternating trees).
        assert!(out[..16].windows(2).all(|w| w[0] <= w[1]));
        assert!(out[16..].windows(2).all(|w| w[0] >= w[1]));
        assert!(crate::verify::is_permutation(&out[..16], &input[..16]));
        assert!(crate::verify::is_permutation(&out[16..], &input[16..]));
    }

    #[test]
    fn fixed_merge16_final_level_is_fully_ascending() {
        let n = 16;
        let input = workloads::bitonic(16, 3);
        let src = value_stream("src", &input);
        let mut dst: Stream<Value> = Stream::new("dst", n, Layout::ZOrder);
        let mut p = processor();
        fixed_merge16(&mut p, &src, &mut dst, 1, 1).unwrap();
        assert!(crate::verify::is_sorted(dst.as_slice()));
        assert!(crate::verify::is_permutation(dst.as_slice(), &input));
    }

    #[test]
    fn kernel_output_budgets_are_respected() {
        // All Section 7 kernels stay within the 16 × 32-bit per-instance
        // output budget of the GeForce profile — the launches above would
        // have failed otherwise. This test asserts the budget is actually
        // the paper's value so a profile change cannot silently relax it.
        assert_eq!(GpuProfile::geforce_6800().max_kernel_output_bytes, 64);
        assert_eq!(GpuProfile::geforce_7800().max_kernel_output_bytes, 64);
    }
}
