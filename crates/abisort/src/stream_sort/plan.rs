//! The launch-graph planner: record the kernel launches of a sort as an
//! operator DAG, partition it into stages, and replay it stage by stage
//! (one processor launch per node, one stream-operation step per stage).
//!
//! The driver used to *interleave* planning and execution: every phase of
//! every merge stage computed its Table-1 block and issued its launch on
//! the spot, re-deriving the whole schedule on every run. The planner
//! splits the two concerns:
//!
//! * [`SortPlan::record`] walks the exact control flow of the old driver
//!   (Listing 2 recursion, Listing 5 level merges, the Section 7
//!   prologue/tail) but *pushes [`Op`] nodes* instead of launching. Stage
//!   boundaries — the points where the old driver called
//!   [`StreamProcessor::record_step`] — become the plan's stage
//!   partition: consecutive nodes between two step marks write disjoint
//!   blocks (Section 5.4) or are ordered kernel→copy-back pairs.
//! * [`SortPlan::execute`] replays the nodes against a set of named
//!   buffers ([`PlanBuffers`]). Because a plan depends only on
//!   `(n, levels, config)` — never on the data — it is recorded once and
//!   cached per sorter; re-running the same problem shape replays the
//!   cached plan with zero planning work.
//!
//! Scratch-stream reuse is static in the plan: every node names its
//! buffers by [`BufferId`], so which physical stream backs which role is
//! decided once per run (by the arena) instead of per launch.

use super::kernels::{self, GroupSource};
use super::layout_plan::{overlapped_schedule, table1_element_block, PhaseRef};
use super::merge::{split_pq, MergeOutcome};
use stream_arch::{Node, Result, Stream, StreamProcessor, Value};

/// The named buffers a sort plan operates on. A plan never holds stream
/// pointers — it names roles, and [`PlanBuffers`] binds the roles to
/// physical streams at execution time.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum BufferId {
    /// Permanent gather/input node stream (2n nodes).
    TreesA,
    /// Permanent output node stream (2n nodes).
    TreesB,
    /// First pq-index ping-pong stream (2n indices).
    PqA,
    /// Second pq-index ping-pong stream (2n indices).
    PqB,
    /// Value scratch stream (n values; local-sort / traversal output).
    ScratchValues,
    /// Merged-value stream (n values; fixed-merge output).
    MergedValues,
    /// The source-value stream of the local-sort prologue (n values).
    SourceValues,
}

impl BufferId {
    /// The stream name the driver allocates this role under.
    pub fn name(self) -> &'static str {
        match self {
            BufferId::TreesA => "trees-a",
            BufferId::TreesB => "trees-b",
            BufferId::PqA => "pq-a",
            BufferId::PqB => "pq-b",
            BufferId::ScratchValues => "scratch-values",
            BufferId::MergedValues => "merged-values",
            BufferId::SourceValues => "source-values",
        }
    }
}

/// The pq ping-pong stream with the given parity.
fn pq_id(which: usize) -> BufferId {
    if which == 0 {
        BufferId::PqA
    } else {
        BufferId::PqB
    }
}

/// A reference to (part of) a named buffer, as read or written by one plan
/// node.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BufferRef {
    /// Which buffer.
    pub buffer: BufferId,
    /// The element block `(start, len)` accessed linearly, or `None` for
    /// random (gather) access over the whole stream.
    pub block: Option<(usize, usize)>,
}

impl BufferRef {
    fn gather(buffer: BufferId) -> Self {
        BufferRef {
            buffer,
            block: None,
        }
    }

    fn block(buffer: BufferId, block: (usize, usize)) -> Self {
        BufferRef {
            buffer,
            block: Some(block),
        }
    }
}

impl std::fmt::Display for BufferRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.block {
            Some((start, len)) => write!(f, "{}[{}..{})", self.buffer.name(), start, start + len),
            None => write!(f, "{}[*]", self.buffer.name()),
        }
    }
}

/// One node of the launch graph: a kernel launch (or vectorized copy) with
/// everything needed to re-bind its substream views, but no stream
/// pointers and no data dependence.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Section 7.1 local odd-even sort: `SourceValues → ScratchValues`.
    LocalSort8 {
        /// Total element count.
        n: usize,
    },
    /// Section 7.1/7.2 tree build: `src → TreesB[n, n)`.
    BuildTrees16 {
        /// Value source ([`BufferId::ScratchValues`] or
        /// [`BufferId::MergedValues`]).
        src: BufferId,
        /// Total element count.
        n: usize,
    },
    /// Listing 5 initialization: `TreesA → TreesB[0, 2·numTrees)`.
    ExtractRootsSpares {
        /// Total element count.
        n: usize,
        /// Recursion level.
        j: u32,
    },
    /// Listing 3: `TreesA → TreesB[0, 2·len) + pq_out[pq_offset, 2·len)`.
    Phase0 {
        /// Which pq stream receives the (p, q) pairs (0 or 1).
        pq_out: usize,
        /// Element offset of the pq block.
        pq_offset: usize,
        /// Number of kernel instances (subtrees).
        len: usize,
        /// Instances per simultaneously merged tree (sort direction).
        instances_per_tree: usize,
    },
    /// Listing 4: reads `pq_in`, gathers `TreesA`, writes its Table-1
    /// block of `TreesB` and the complementary pq stream.
    PhaseI {
        /// Which pq stream holds the live (p, q) pairs (0 or 1); the
        /// phase writes the other one.
        pq_in: usize,
        /// Element offset of both pq blocks.
        pq_offset: usize,
        /// Table-1 output block in `TreesB`, in elements.
        out_block: (usize, usize),
        /// First element of the *next* phase's block (iterator stream).
        next_start: usize,
        /// Number of kernel instances (node pairs).
        len: usize,
        /// Instances per simultaneously merged tree (sort direction).
        instances_per_tree: usize,
    },
    /// Section 6.1 write-back: `TreesB[block] → TreesA[block]`.
    CopyBack {
        /// The element block to copy.
        block: (usize, usize),
    },
    /// Listing 2 end-of-level commit: `TreesA[0, n) → TreesB[n, n)`.
    CommitLevel {
        /// Total element count.
        n: usize,
    },
    /// Section 7.2 traversal: `TreesA → ScratchValues[0, 16·groups)`.
    Traverse16 {
        /// Number of 16-element groups.
        groups: usize,
        /// Where the groups' roots and spares live.
        source: GroupSource,
    },
    /// Section 7.2 fixed merge: `ScratchValues → MergedValues`.
    FixedMerge16 {
        /// Number of 16-element groups.
        groups: usize,
        /// Groups per destination tree (merge direction).
        groups_per_tree: usize,
    },
}

impl Op {
    /// The launch name of this node's kernel.
    pub fn name(&self) -> &'static str {
        match self {
            Op::LocalSort8 { .. } => kernels::LOCAL_SORT8,
            Op::BuildTrees16 { .. } => kernels::BUILD_TREES16,
            Op::ExtractRootsSpares { .. } => kernels::EXTRACT_ROOTS_SPARES,
            Op::Phase0 { .. } => kernels::PHASE0,
            Op::PhaseI { .. } => kernels::PHASE_I,
            Op::CopyBack { .. } => kernels::COPY_BACK,
            Op::CommitLevel { .. } => kernels::COMMIT_LEVEL,
            Op::Traverse16 { .. } => kernels::TRAVERSE16,
            Op::FixedMerge16 { .. } => kernels::FIXED_MERGE16,
        }
    }

    /// Number of kernel instances this node launches.
    pub fn instances(&self) -> usize {
        match *self {
            Op::LocalSort8 { n } => n / 8,
            Op::BuildTrees16 { n, .. } => n / 4,
            Op::ExtractRootsSpares { n, j } => 2 * (n >> j),
            Op::Phase0 { len, .. } | Op::PhaseI { len, .. } => len,
            Op::CopyBack { block } => block.1 / 2,
            Op::CommitLevel { n } => n / 2,
            Op::Traverse16 { groups, .. } | Op::FixedMerge16 { groups, .. } => 2 * groups,
        }
    }

    /// The buffers this node reads, as named refs.
    pub fn inputs(&self) -> Vec<BufferRef> {
        match *self {
            Op::LocalSort8 { n } => vec![BufferRef::block(BufferId::SourceValues, (0, n))],
            Op::BuildTrees16 { src, n } => vec![BufferRef::block(src, (0, n))],
            Op::ExtractRootsSpares { .. } => vec![BufferRef::gather(BufferId::TreesA)],
            Op::Phase0 { len, .. } => vec![BufferRef::block(BufferId::TreesA, (0, 2 * len))],
            Op::PhaseI {
                pq_in,
                pq_offset,
                len,
                ..
            } => vec![
                BufferRef::block(pq_id(pq_in), (pq_offset, 2 * len)),
                BufferRef::gather(BufferId::TreesA),
            ],
            Op::CopyBack { block } => vec![BufferRef::block(BufferId::TreesB, block)],
            Op::CommitLevel { n } => vec![BufferRef::block(BufferId::TreesA, (0, n))],
            Op::Traverse16 { .. } => vec![BufferRef::gather(BufferId::TreesA)],
            Op::FixedMerge16 { .. } => vec![BufferRef::gather(BufferId::ScratchValues)],
        }
    }

    /// The buffers this node writes, as named refs.
    pub fn outputs(&self) -> Vec<BufferRef> {
        match *self {
            Op::LocalSort8 { n } => vec![BufferRef::block(BufferId::ScratchValues, (0, n))],
            Op::BuildTrees16 { n, .. } => vec![BufferRef::block(BufferId::TreesB, (n, n))],
            Op::ExtractRootsSpares { n, j } => {
                vec![BufferRef::block(BufferId::TreesB, (0, 2 * (n >> j)))]
            }
            Op::Phase0 {
                pq_out,
                pq_offset,
                len,
                ..
            } => vec![
                BufferRef::block(BufferId::TreesB, (0, 2 * len)),
                BufferRef::block(pq_id(pq_out), (pq_offset, 2 * len)),
            ],
            Op::PhaseI {
                pq_in,
                pq_offset,
                out_block,
                len,
                ..
            } => vec![
                BufferRef::block(BufferId::TreesB, out_block),
                BufferRef::block(pq_id(1 - pq_in), (pq_offset, 2 * len)),
            ],
            Op::CopyBack { block } => vec![BufferRef::block(BufferId::TreesA, block)],
            Op::CommitLevel { n } => vec![BufferRef::block(BufferId::TreesB, (n, n))],
            Op::Traverse16 { groups, .. } => {
                vec![BufferRef::block(BufferId::ScratchValues, (0, 16 * groups))]
            }
            Op::FixedMerge16 { groups, .. } => {
                vec![BufferRef::block(BufferId::MergedValues, (0, 16 * groups))]
            }
        }
    }
}

/// Everything that determines the shape of a sort plan. Two runs with equal
/// keys execute structurally identical launch sequences, which is what
/// makes the per-sorter plan cache sound.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Padded power-of-two element count.
    pub n: usize,
    /// First recursion level to run (4 with the local-sort prologue,
    /// `log₂ block + 1` for a block merge, 1 otherwise).
    pub first_level: u32,
    /// Last recursion level to run, inclusive.
    pub top_level: u32,
    /// Run the Section 7.1 local-sort prologue.
    pub local_sort: bool,
    /// Replace the last 4 stages of each level with the Section 7.2
    /// fixed-merge tail.
    pub fixed_merge: bool,
    /// Use the Section 5.4 overlapped-stage schedule inside each level.
    pub overlapped: bool,
}

/// Accumulates [`Op`] nodes and stage boundaries during recording.
#[derive(Default)]
struct Recorder {
    nodes: Vec<Op>,
    stage_ends: Vec<usize>,
}

impl Recorder {
    fn push(&mut self, op: Op) {
        self.nodes.push(op);
    }

    /// Mark a stage boundary — the recording analogue of
    /// [`StreamProcessor::record_step`].
    fn step(&mut self) {
        self.stage_ends.push(self.nodes.len());
    }
}

/// A recorded launch graph: the [`Op`] nodes of one sort (or one level
/// merge) partitioned into stages at the old driver's step marks.
#[derive(Clone, Debug)]
pub struct SortPlan {
    key: PlanKey,
    nodes: Vec<Op>,
    /// `stage_ends[s]` = index one past the last node of stage `s`.
    stage_ends: Vec<usize>,
}

/// The physical streams backing a plan's named buffers for one execution.
/// `scratch`/`merged`/`source` are optional because a bare level merge
/// (no Section 7 tail) never touches them.
pub struct PlanBuffers<'a> {
    /// Backs [`BufferId::TreesA`].
    pub trees_a: &'a mut Stream<Node>,
    /// Backs [`BufferId::TreesB`].
    pub trees_b: &'a mut Stream<Node>,
    /// Backs [`BufferId::PqA`] / [`BufferId::PqB`].
    pub pq: &'a mut [Stream<u32>; 2],
    /// Backs [`BufferId::ScratchValues`].
    pub scratch: Option<&'a mut Stream<Value>>,
    /// Backs [`BufferId::MergedValues`].
    pub merged: Option<&'a mut Stream<Value>>,
    /// Backs [`BufferId::SourceValues`] (read-only).
    pub source: Option<&'a Stream<Value>>,
}

impl SortPlan {
    /// Record the launch graph for the given plan key — the exact launch
    /// sequence the pre-planner driver issued, as data.
    pub fn record(key: PlanKey) -> SortPlan {
        let mut r = Recorder::default();
        let n = key.n;
        if key.local_sort {
            // Section 7.1 prologue: local sort, then tree conversion.
            r.push(Op::LocalSort8 { n });
            r.step();
            r.push(Op::BuildTrees16 {
                src: BufferId::ScratchValues,
                n,
            });
            r.push(Op::CopyBack { block: (n, n) });
            r.step();
        }
        for j in key.first_level..=key.top_level {
            let skip = if key.fixed_merge && j >= 4 {
                4.min(j)
            } else {
                0
            };
            match record_level(&mut r, n, j, key.overlapped, skip) {
                MergeOutcome::Complete => {
                    r.push(Op::CommitLevel { n });
                    r.push(Op::CopyBack { block: (n, n) });
                    r.step();
                }
                MergeOutcome::Truncated { roots_start } => record_fixed_merge_tail(
                    &mut r,
                    n,
                    j,
                    GroupSource::WorkspaceSubtrees { roots_start },
                ),
                MergeOutcome::Skipped => {
                    record_fixed_merge_tail(&mut r, n, j, GroupSource::InputTrees { n })
                }
            }
        }
        debug_assert_eq!(r.stage_ends.last().copied(), Some(r.nodes.len()));
        SortPlan {
            key,
            nodes: r.nodes,
            stage_ends: r.stage_ends,
        }
    }

    /// The key this plan was recorded for.
    pub fn key(&self) -> PlanKey {
        self.key
    }

    /// Total number of launch nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of stages (stream-operation steps).
    pub fn num_stages(&self) -> usize {
        self.stage_ends.len()
    }

    /// Total kernel instances across all nodes.
    pub fn total_instances(&self) -> u64 {
        self.nodes.iter().map(|op| op.instances() as u64).sum()
    }

    /// The stages, each a slice of consecutive nodes.
    pub fn stages(&self) -> impl Iterator<Item = &[Op]> + '_ {
        let mut start = 0usize;
        self.stage_ends.iter().map(move |&end| {
            let stage = &self.nodes[start..end];
            start = end;
            stage
        })
    }

    /// Execute the plan against `bufs` on `proc`: every node replays as one
    /// launch through the monomorphized kernel wrappers, which keeps the
    /// per-instance dispatch static, and every stage ends with one
    /// [`StreamProcessor::record_step`].
    pub fn execute(&self, proc: &mut StreamProcessor, bufs: &mut PlanBuffers<'_>) -> Result<()> {
        for stage in self.stages() {
            for op in stage {
                exec_op(proc, bufs, op)?;
            }
            proc.record_step();
        }
        Ok(())
    }

    /// Render the plan as human-readable text (`repro --dump-plan`): one
    /// header, then per stage one line per node with its named buffer
    /// reads and writes.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let k = &self.key;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "launch plan: n={} levels {}..={}{}{}, {}",
            k.n,
            k.first_level,
            k.top_level,
            if k.local_sort {
                ", local-sort prologue"
            } else {
                ""
            },
            if k.fixed_merge {
                ", fixed-merge tail"
            } else {
                ""
            },
            if k.overlapped {
                "overlapped steps"
            } else {
                "sequential phases"
            },
        );
        let _ = writeln!(
            out,
            "{} nodes in {} stages, {} kernel instances",
            self.num_nodes(),
            self.num_stages(),
            self.total_instances(),
        );
        for (s, stage) in self.stages().enumerate() {
            let _ = writeln!(out, "stage {s:>3} ({} nodes):", stage.len());
            for op in stage {
                let ins: Vec<String> = op.inputs().iter().map(BufferRef::to_string).collect();
                let outs: Vec<String> = op.outputs().iter().map(BufferRef::to_string).collect();
                let _ = writeln!(
                    out,
                    "  {} x{}: {} -> {}",
                    op.name(),
                    op.instances(),
                    ins.join(" "),
                    outs.join(" "),
                );
            }
        }
        out
    }
}

/// Record one recursion level of the adaptive bitonic merge — the planner
/// form of [`super::merge::merge_level`] — and return its plan together
/// with the [`MergeOutcome`] the eager driver would have reported.
pub fn record_level_plan(
    n: usize,
    j: u32,
    overlapped: bool,
    skip_last_stages: u32,
) -> (SortPlan, MergeOutcome) {
    let mut r = Recorder::default();
    let outcome = record_level(&mut r, n, j, overlapped, skip_last_stages);
    let plan = SortPlan {
        key: PlanKey {
            n,
            first_level: j,
            top_level: j,
            local_sort: false,
            fixed_merge: skip_last_stages > 0,
            overlapped,
        },
        nodes: r.nodes,
        stage_ends: r.stage_ends,
    };
    (plan, outcome)
}

/// Record one level merge (Listing 5): initialization, then the stage/phase
/// schedule — sequential (Section 5.3) or overlapped (Section 5.4).
fn record_level(
    r: &mut Recorder,
    n: usize,
    j: u32,
    overlapped: bool,
    skip_last_stages: u32,
) -> MergeOutcome {
    let num_trees = n >> j;
    if skip_last_stages >= j {
        return MergeOutcome::Skipped;
    }
    let last_stage = j - 1 - skip_last_stages;

    r.push(Op::ExtractRootsSpares { n, j });
    r.push(Op::CopyBack {
        block: (0, 2 * num_trees),
    });
    r.step();

    if overlapped {
        let mut pq_in = 0usize;
        for step in overlapped_schedule(j, skip_last_stages) {
            for PhaseRef { stage: k, phase: i } in step {
                let len = (1usize << k) * num_trees;
                let instances_per_tree = 1usize << k;
                // Each stage uses its own disjoint region of the pq
                // streams: elements [2·len_k, 4·len_k).
                let pq_offset = 2 * len;
                if i == 0 {
                    r.push(Op::Phase0 {
                        pq_out: 1 - pq_in,
                        pq_offset,
                        len,
                        instances_per_tree,
                    });
                    r.push(Op::CopyBack {
                        block: (0, 2 * len),
                    });
                } else {
                    let out_block = table1_element_block(k, i, num_trees);
                    let next_start = table1_element_block(k, i + 1, num_trees).0;
                    r.push(Op::PhaseI {
                        pq_in,
                        pq_offset,
                        out_block,
                        next_start,
                        len,
                        instances_per_tree,
                    });
                    r.push(Op::CopyBack { block: out_block });
                }
            }
            pq_in = 1 - pq_in;
            r.step();
        }
    } else {
        for k in 0..=last_stage {
            let len = (1usize << k) * num_trees;
            let instances_per_tree = 1usize << k;
            // Phase 0 always writes the initial (p, q) pairs to pq[0].
            r.push(Op::Phase0 {
                pq_out: 0,
                pq_offset: 0,
                len,
                instances_per_tree,
            });
            r.push(Op::CopyBack {
                block: (0, 2 * len),
            });
            r.step();
            let mut pq_in = 0usize;
            for i in 1..(j - k) {
                let out_block = table1_element_block(k, i, num_trees);
                let next_start = table1_element_block(k, i + 1, num_trees).0;
                r.push(Op::PhaseI {
                    pq_in,
                    pq_offset: 0,
                    out_block,
                    next_start,
                    len,
                    instances_per_tree,
                });
                r.push(Op::CopyBack { block: out_block });
                pq_in = 1 - pq_in;
                r.step();
            }
        }
    }

    if skip_last_stages == 0 {
        MergeOutcome::Complete
    } else {
        MergeOutcome::Truncated {
            roots_start: table1_element_block(last_stage, 1, num_trees).0,
        }
    }
}

/// Record the Section 7.2 tail: traversal, fixed merge, tree rebuild.
fn record_fixed_merge_tail(r: &mut Recorder, n: usize, j: u32, source: GroupSource) {
    let groups = n / 16;
    let groups_per_tree = 1usize << (j - 4);
    r.push(Op::Traverse16 { groups, source });
    r.step();
    r.push(Op::FixedMerge16 {
        groups,
        groups_per_tree,
    });
    r.step();
    r.push(Op::BuildTrees16 {
        src: BufferId::MergedValues,
        n,
    });
    r.push(Op::CopyBack { block: (n, n) });
    r.step();
}

/// Execute one node as one launch through the monomorphized kernel
/// wrappers.
fn exec_op(proc: &mut StreamProcessor, bufs: &mut PlanBuffers<'_>, op: &Op) -> Result<()> {
    match *op {
        Op::LocalSort8 { n } => kernels::local_sort8(
            proc,
            bufs.source.expect("plan needs the source-values stream"),
            bufs.scratch
                .as_deref_mut()
                .expect("plan needs the scratch-values stream"),
            n,
        ),
        Op::BuildTrees16 { src, n } => {
            let values: &Stream<Value> = match src {
                BufferId::ScratchValues => bufs
                    .scratch
                    .as_deref()
                    .expect("plan needs the scratch-values stream"),
                BufferId::MergedValues => bufs
                    .merged
                    .as_deref()
                    .expect("plan needs the merged-values stream"),
                other => unreachable!("build-trees-16 cannot read {other:?}"),
            };
            kernels::build_trees16(proc, values, bufs.trees_b, n)
        }
        Op::ExtractRootsSpares { n, j } => {
            kernels::extract_roots_and_spares(proc, bufs.trees_a, bufs.trees_b, n, j)
        }
        Op::Phase0 {
            pq_out,
            pq_offset,
            len,
            instances_per_tree,
        } => kernels::phase0(
            proc,
            bufs.trees_a,
            bufs.trees_b,
            &mut bufs.pq[pq_out],
            pq_offset,
            len,
            instances_per_tree,
        ),
        Op::PhaseI {
            pq_in,
            pq_offset,
            out_block,
            next_start,
            len,
            instances_per_tree,
        } => {
            let (pq_in_stream, pq_out_stream) = split_pq(bufs.pq, pq_in);
            kernels::phase_i(
                proc,
                bufs.trees_a,
                bufs.trees_b,
                pq_in_stream,
                pq_offset,
                pq_out_stream,
                pq_offset,
                out_block,
                next_start,
                len,
                instances_per_tree,
            )
        }
        Op::CopyBack { block } => kernels::copy_back(proc, bufs.trees_b, bufs.trees_a, block),
        Op::CommitLevel { n } => kernels::commit_level(proc, bufs.trees_a, bufs.trees_b, n),
        Op::Traverse16 { groups, source } => kernels::traverse16(
            proc,
            bufs.trees_a,
            bufs.scratch
                .as_deref_mut()
                .expect("plan needs the scratch-values stream"),
            groups,
            source,
        ),
        Op::FixedMerge16 {
            groups,
            groups_per_tree,
        } => kernels::fixed_merge16(
            proc,
            bufs.scratch
                .as_deref()
                .expect("plan needs the scratch-values stream"),
            bufs.merged
                .as_deref_mut()
                .expect("plan needs the merged-values stream"),
            groups,
            groups_per_tree,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream_sort::layout_plan::{phases_per_level, steps_per_level};

    fn full_key(n: usize, overlapped: bool) -> PlanKey {
        PlanKey {
            n,
            first_level: 1,
            top_level: n.trailing_zeros(),
            local_sort: false,
            fixed_merge: false,
            overlapped,
        }
    }

    #[test]
    fn plan_stage_counts_match_the_paper_step_counts() {
        // The plan's stage partition must reproduce the step counts the
        // merge tests pin: per level, 1 (init) + 2j−1 overlapped steps or
        // 1 + ½j²+½j sequential phases, plus the level's commit stage.
        let n = 256usize;
        let log_n = n.trailing_zeros();
        let ovl = SortPlan::record(full_key(n, true));
        let seq = SortPlan::record(full_key(n, false));
        let expect_ovl: u64 = (1..=log_n).map(|j| 1 + steps_per_level(j, 0) + 1).sum();
        let expect_seq: u64 = (1..=log_n).map(|j| 1 + phases_per_level(j) + 1).sum();
        assert_eq!(ovl.num_stages() as u64, expect_ovl);
        assert_eq!(seq.num_stages() as u64, expect_seq);
        // Same nodes, different partition: each phase is one kernel plus
        // one copy-back, each level adds an init pair and a commit pair.
        assert_eq!(ovl.num_nodes(), seq.num_nodes());
        assert_eq!(ovl.total_instances(), seq.total_instances());
    }

    #[test]
    fn recorded_level_outcomes_match_merge_level() {
        // Complete, truncated, and skipped levels report the same outcome
        // (and the same roots_start) as the eager merge_level.
        let (_, complete) = record_level_plan(64, 6, true, 0);
        assert_eq!(complete, MergeOutcome::Complete);
        let (_, truncated) = record_level_plan(64, 6, true, 4);
        assert_eq!(truncated, MergeOutcome::Truncated { roots_start: 4 });
        let (plan, skipped) = record_level_plan(64, 4, true, 4);
        assert_eq!(skipped, MergeOutcome::Skipped);
        assert_eq!(plan.num_nodes(), 0);
        assert_eq!(plan.num_stages(), 0);
    }

    #[test]
    fn every_stage_writes_before_later_nodes_read() {
        // Within a stage, any block a node reads linearly from trees-b must
        // have been written by an earlier node of the same stage or a
        // previous stage, so replaying a stage in node order respects every
        // write-before-read dependency. (Copy-backs are the only in-stage
        // readers of trees-b.)
        for overlapped in [false, true] {
            let plan = SortPlan::record(PlanKey {
                n: 256,
                first_level: 1,
                top_level: 8,
                local_sort: false,
                fixed_merge: true,
                overlapped,
            });
            for stage in plan.stages() {
                let mut written: Vec<(usize, usize)> = Vec::new();
                for op in stage {
                    if let Op::CopyBack { block } = op {
                        assert!(
                            written.contains(block),
                            "copy-back of {block:?} without a matching in-stage write"
                        );
                    }
                    for out in op.outputs() {
                        if out.buffer == BufferId::TreesB {
                            written.push(out.block.expect("linear write"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn describe_names_buffers_and_stages() {
        let plan = SortPlan::record(PlanKey {
            n: 64,
            first_level: 4,
            top_level: 6,
            local_sort: true,
            fixed_merge: true,
            overlapped: true,
        });
        let text = plan.describe();
        assert!(text.starts_with("launch plan: n=64 levels 4..=6"));
        assert!(text.contains("local-sort prologue"));
        assert!(text.contains("fixed-merge tail"));
        assert!(text.contains("local-sort-8 x8: source-values[0..64) -> scratch-values[0..64)"));
        assert!(text.contains("copy-back"));
        assert!(text.contains("trees-a[*]"));
        assert_eq!(
            text.lines().count(),
            2 + plan.num_stages() + plan.num_nodes()
        );
    }
}
