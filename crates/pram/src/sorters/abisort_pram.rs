//! Bilardi & Nicolau's parallel adaptive bitonic sort on the EREW-PRAM —
//! the algorithm the GPU-ABiSort paper starts from (Section 2.1) and then
//! ports to stream architectures (Section 5).
//!
//! The bitonic tree lives in shared memory as a flat pool of [`Node`]s in
//! the same in-order storage the sequential and stream implementations use.
//! One processor per active subtree executes one *phase* of the simplified
//! adaptive min/max determination (Section 4.2) per synchronous step; the
//! traversal pointers `(p, q)` stay in the processor's private registers.
//! Because the PRAM allows random-access writes, nodes are modified in
//! place — this is exactly the capability the stream version has to work
//! around with its node output stream.
//!
//! Two schedules are provided, mirroring the stream implementation:
//!
//! * **overlapped** (the original Bilardi–Nicolau schedule, re-used by the
//!   paper's Section 5.4): phase `i` of stage `k` runs together with phase
//!   `i + 2` of stage `k − 1`, so one recursion level takes `2j − 1` steps
//!   and the whole sort `log² n` steps;
//! * **sequential stages**: stages run one after another, `j (j+1) / 2`
//!   steps per level — the PRAM analogue of the `O(log³ n)`-stream-op
//!   version of Section 5.3 / Appendix A.
//!
//! The EREW machine verifies at runtime that no step of either schedule
//! ever touches a node from two processors — the exclusivity argument the
//! paper's Figure 6 layout makes for the stream version.

use super::{block_ascending, out_of_order, SortRun};
use crate::error::Result;
use crate::machine::{Pram, PramModel, ProcCtx};
use stream_arch::{Node, Value, NULL_INDEX};

/// Which step schedule to use for every merge.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Overlapped stages: `2j − 1` steps per recursion level `j`
    /// (`log² n` steps in total). The default.
    #[default]
    Overlapped,
    /// Stages executed one after another: `j (j + 1) / 2` steps per level.
    SequentialStages,
}

/// Number of PRAM steps one recursion level `j` takes under `schedule`.
pub fn steps_per_level(j: u32, schedule: Schedule) -> u64 {
    match schedule {
        Schedule::Overlapped => (2 * j - 1) as u64,
        Schedule::SequentialStages => (j as u64 * (j as u64 + 1)) / 2,
    }
}

/// Total number of PRAM steps for sorting `n` (power-of-two) values.
pub fn total_steps(n: usize, schedule: Schedule) -> u64 {
    let log_n = n.trailing_zeros();
    (1..=log_n).map(|j| steps_per_level(j, schedule)).sum()
}

/// Sort with the default (overlapped) schedule.
pub fn sort(values: &[Value]) -> Result<SortRun> {
    sort_with_schedule(values, Schedule::Overlapped)
}

/// Sort `values` ascending on an EREW-PRAM with the chosen schedule.
pub fn sort_with_schedule(values: &[Value], schedule: Schedule) -> Result<SortRun> {
    SortRun::padded(values, PramModel::Erew, |padded| {
        let n = padded.len();
        let log_n = n.trailing_zeros();

        let mut pram: Pram<Node> = Pram::from_vec(initial_nodes(&padded), PramModel::Erew);

        for j in 1..=log_n {
            merge_level(&mut pram, n, j, schedule)?;
        }

        let mut output = Vec::with_capacity(n);
        in_order(pram.memory(), n / 2 - 1, log_n, &mut output);
        output.push(pram.memory()[n - 1].value);
        Ok((output, pram.take_stats()))
    })
}

/// The in-order-stored node pool over `values` (Listing 2's initialisation):
/// node `i` has children at `i ∓ ((i+1) & !i)/2`, leaves and the spare carry
/// the sentinel.
fn initial_nodes(values: &[Value]) -> Vec<Node> {
    let n = values.len();
    values
        .iter()
        .enumerate()
        .map(|(i, &value)| {
            let step = ((i as u64 + 1) & !(i as u64)) / 2;
            if i == n - 1 || step == 0 {
                Node::leaf(value)
            } else {
                Node::new(value, (i as u64 - step) as u32, (i as u64 + step) as u32)
            }
        })
        .collect()
}

/// Host-side in-order traversal following the (swapped) child pointers.
fn in_order(nodes: &[Node], root: usize, height: u32, out: &mut Vec<Value>) {
    let node = &nodes[root];
    if height <= 1 {
        out.push(node.value);
        return;
    }
    in_order(nodes, node.left as usize, height - 1, out);
    out.push(node.value);
    in_order(nodes, node.right as usize, height - 1, out);
}

/// One traversal instance: for phase 0 `(a, b)` is the subtree's
/// `(root, spare)`, for later phases it is the `(p, q)` pointer pair kept in
/// the processor's private registers.
#[derive(Copy, Clone, Debug)]
struct Instance {
    a: usize,
    b: usize,
    ascending: bool,
}

/// The per-stage traversal state of one recursion level.
struct StageState {
    /// The phase the stage will execute next (0-based).
    next_phase: u32,
    /// Active traversal instances; after phase 0 these hold `(p, q)`.
    instances: Vec<Instance>,
    /// `(root, spare)` pairs for the next stage, captured during phase 0.
    spawned: Vec<Instance>,
}

/// What one processor reports back to the driver after executing a phase.
#[derive(Copy, Clone)]
struct PhaseOutcome {
    next_p: u32,
    next_q: u32,
    /// For phase 0: the (possibly swapped) children of the root, which
    /// become the roots of the next stage's subtrees.
    left_child: u32,
    right_child: u32,
}

/// Run the adaptive bitonic merge of recursion level `j` on all
/// `n / 2^j` blocks simultaneously.
fn merge_level(pram: &mut Pram<Node>, n: usize, j: u32, schedule: Schedule) -> Result<()> {
    let block = 1usize << j;
    let num_trees = n / block;

    // Stage 0 operates on the whole block trees.
    let mut stages: Vec<StageState> = Vec::with_capacity(j as usize);
    stages.push(StageState {
        next_phase: 0,
        instances: (0..num_trees)
            .map(|t| Instance {
                a: t * block + block / 2 - 1,
                b: (t + 1) * block - 1,
                ascending: block_ascending(t),
            })
            .collect(),
        spawned: Vec::new(),
    });

    match schedule {
        Schedule::Overlapped => {
            // Steps i = 0 .. 2j − 2; stage k executes phase i − 2k.
            for i in 0..(2 * j - 1) {
                let mut active: Vec<usize> = Vec::new();
                for (k, stage) in stages.iter().enumerate() {
                    let phase = i as i64 - 2 * k as i64;
                    if phase >= 0
                        && (phase as u32) < j - k as u32
                        && phase as u32 == stage.next_phase
                    {
                        active.push(k);
                    }
                }
                run_phases(pram, &mut stages, &active, j)?;
                // A new stage starts every other step.
                if i % 2 == 1 {
                    let k_new = (i as usize).div_ceil(2);
                    if k_new < j as usize {
                        let spawned = std::mem::take(&mut stages[k_new - 1].spawned);
                        stages.push(StageState {
                            next_phase: 0,
                            instances: spawned,
                            spawned: Vec::new(),
                        });
                    }
                }
            }
        }
        Schedule::SequentialStages => {
            for k in 0..j as usize {
                for _phase in 0..(j - k as u32) {
                    run_phases(pram, &mut stages, &[k], j)?;
                }
                if (k as u32) < j - 1 {
                    let spawned = std::mem::take(&mut stages[k].spawned);
                    stages.push(StageState {
                        next_phase: 0,
                        instances: spawned,
                        spawned: Vec::new(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Execute one synchronous PRAM step in which every active stage runs its
/// next phase on all of its instances.
fn run_phases(
    pram: &mut Pram<Node>,
    stages: &mut [StageState],
    active: &[usize],
    j: u32,
) -> Result<()> {
    // Flatten the work of all active stages into one task list.
    let mut tasks: Vec<(usize, usize, Instance, bool)> = Vec::new(); // (stage, slot, instance, is_phase0)
    for &k in active {
        let is_phase0 = stages[k].next_phase == 0;
        for (slot, &inst) in stages[k].instances.iter().enumerate() {
            tasks.push((k, slot, inst, is_phase0));
        }
    }
    if tasks.is_empty() {
        // A stage can have zero remaining phases only through a driver bug;
        // record nothing.
        return Ok(());
    }

    let outcomes = pram.step_map(tasks.len(), |i, ctx| {
        let (_, _, inst, is_phase0) = tasks[i];
        if is_phase0 {
            phase0(ctx, inst)
        } else {
            phase_i(ctx, inst)
        }
    })?;

    // Fold the outcomes back into the driver state: phase 0 captures the
    // next stage's (root, spare) pairs, every phase advances the stage's
    // private (p, q) registers.
    for ((k, slot, inst, is_phase0), outcome) in tasks.iter().zip(outcomes) {
        let stage = &mut stages[*k];
        if *is_phase0 {
            // Subtrees of this stage have j − k levels; subtrees with a
            // single level have no further phases and spawn nothing.
            let levels = j - *k as u32;
            if levels >= 2 {
                stage.spawned.push(Instance {
                    a: outcome.left_child as usize,
                    b: inst.a,
                    ascending: inst.ascending,
                });
                stage.spawned.push(Instance {
                    a: outcome.right_child as usize,
                    b: inst.b,
                    ascending: inst.ascending,
                });
            }
        }
        stage.instances[*slot] = Instance {
            a: outcome.next_p as usize,
            b: outcome.next_q as usize,
            ascending: inst.ascending,
        };
    }
    for &k in active {
        stages[k].next_phase += 1;
    }
    Ok(())
}

/// Phase 0 of the simplified adaptive min/max determination (Section 4.2)
/// for the subtree `(root, spare)` held by `inst`.
fn phase0(ctx: &mut ProcCtx<'_, Node>, inst: Instance) -> PhaseOutcome {
    let mut root = ctx.read(inst.a);
    let mut spare = ctx.read(inst.b);
    ctx.charge_comparison();
    if out_of_order(&root.value, &spare.value, inst.ascending) {
        std::mem::swap(&mut root.value, &mut spare.value);
        std::mem::swap(&mut root.left, &mut root.right);
    }
    ctx.write(inst.a, root);
    ctx.write(inst.b, spare);
    PhaseOutcome {
        next_p: root.left,
        next_q: root.right,
        left_child: root.left,
        right_child: root.right,
    }
}

/// Phase `i > 0`: compare the nodes at the private pointers `(p, q)`, swap
/// values and left children if out of order, and descend.
fn phase_i(ctx: &mut ProcCtx<'_, Node>, inst: Instance) -> PhaseOutcome {
    let mut p = ctx.read(inst.a);
    let mut q = ctx.read(inst.b);
    ctx.charge_comparison();
    let (next_p, next_q);
    if out_of_order(&p.value, &q.value, inst.ascending) {
        std::mem::swap(&mut p.value, &mut q.value);
        std::mem::swap(&mut p.left, &mut q.left);
        next_p = p.right;
        next_q = q.right;
    } else {
        next_p = p.left;
        next_q = q.left;
    }
    ctx.write(inst.a, p);
    ctx.write(inst.b, q);
    PhaseOutcome {
        next_p,
        next_q,
        left_child: NULL_INDEX,
        right_child: NULL_INDEX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorters::tests::assert_sorted_permutation;

    #[test]
    fn sorts_random_inputs_with_both_schedules() {
        for schedule in [Schedule::Overlapped, Schedule::SequentialStages] {
            for log_n in 1..=10u32 {
                let n = 1usize << log_n;
                let input = workloads::uniform(n, 60 + log_n as u64);
                let run = sort_with_schedule(&input, schedule).unwrap();
                assert_sorted_permutation(&input, &run.output);
            }
        }
    }

    #[test]
    fn is_a_true_erew_algorithm() {
        // The machine rejects any concurrent access, so finishing at all
        // proves exclusivity; the counter double-checks.
        let input = workloads::uniform(1 << 11, 3);
        for schedule in [Schedule::Overlapped, Schedule::SequentialStages] {
            let run = sort_with_schedule(&input, schedule).unwrap();
            assert_eq!(run.model, PramModel::Erew);
            assert_eq!(run.stats.conflicts(PramModel::Erew), 0);
        }
    }

    #[test]
    fn comparison_count_matches_the_sequential_implementation() {
        // Same algorithm, same comparisons — the PRAM execution merely
        // parallelises them.
        for log_n in 4..=12u32 {
            let n = 1usize << log_n;
            let input = workloads::uniform(n, log_n as u64);
            let run = sort(&input).unwrap();
            let (_, seq) = abisort::sequential::adaptive_bitonic_sort_with(
                &input,
                abisort::MergeVariant::Simplified,
            );
            assert_eq!(run.stats.comparisons(), seq.comparisons, "n={n}");
        }
    }

    #[test]
    fn overlapped_schedule_uses_log_squared_steps() {
        for log_n in 1..=12u32 {
            let n = 1usize << log_n;
            let input = workloads::uniform(n, 9);
            let run = sort_with_schedule(&input, Schedule::Overlapped).unwrap();
            assert_eq!(run.stats.num_steps(), (log_n as u64).pow(2), "n={n}");
            assert_eq!(run.stats.num_steps(), total_steps(n, Schedule::Overlapped));
        }
    }

    #[test]
    fn sequential_stage_schedule_uses_log_cubed_steps() {
        let log_n = 10u32;
        let n = 1usize << log_n;
        let input = workloads::uniform(n, 11);
        let run = sort_with_schedule(&input, Schedule::SequentialStages).unwrap();
        let expected: u64 = (1..=log_n as u64).map(|j| j * (j + 1) / 2).sum();
        assert_eq!(run.stats.num_steps(), expected);
        assert_eq!(
            run.stats.num_steps(),
            total_steps(n, Schedule::SequentialStages)
        );
        // The overlapped schedule is shorter by a Θ(log n) factor.
        let overlapped = sort_with_schedule(&input, Schedule::Overlapped).unwrap();
        assert!(overlapped.stats.num_steps() * 2 < run.stats.num_steps());
    }

    #[test]
    fn comparison_count_stays_below_two_n_log_n() {
        for log_n in 4..=12u32 {
            let n = 1usize << log_n;
            let input = workloads::uniform(n, 5);
            let run = sort(&input).unwrap();
            assert!(
                run.stats.comparisons() < 2 * (n as u64) * log_n as u64,
                "n={n}"
            );
        }
    }

    #[test]
    fn comparison_count_is_data_independent() {
        let mut counts = std::collections::HashSet::new();
        for dist in workloads::Distribution::all_for_data_dependence() {
            let input = workloads::generate(dist, 1 << 9, 3);
            counts.insert(sort(&input).unwrap().stats.comparisons());
        }
        assert_eq!(counts.len(), 1);
    }

    #[test]
    fn optimal_speedup_with_n_over_log_n_processors() {
        // The Bilardi–Nicolau claim the paper quotes: O(log² n) parallel
        // time on a PRAC with O(n / log n) processors.
        let log_n = 12u64;
        let n = 1usize << log_n;
        let input = workloads::uniform(n, 31);
        let run = sort(&input).unwrap();
        let p = (n as u64) / log_n;
        let brent = run.stats.brent_time(p);
        // Each phase costs 4 shared accesses, so the bound has a small
        // constant: c · log² n with c well below 20.
        assert!(
            brent <= 20 * log_n * log_n,
            "Brent time {brent} exceeds O(log² n) bound"
        );
        // And the speed-up over one processor is within a factor ~2 of p
        // (i.e. optimal up to constants).
        assert!(run.stats.speedup(p) >= p as f64 / 4.0);
    }

    #[test]
    fn processor_demand_is_at_most_n_over_two() {
        let n = 1usize << 10;
        let input = workloads::uniform(n, 2);
        let run = sort(&input).unwrap();
        assert!(run.stats.max_processors() <= n as u64 / 2);
    }

    #[test]
    fn both_schedules_produce_identical_output_and_comparisons() {
        for seed in 0..5u64 {
            let input = workloads::uniform(1 << 9, seed);
            let a = sort_with_schedule(&input, Schedule::Overlapped).unwrap();
            let b = sort_with_schedule(&input, Schedule::SequentialStages).unwrap();
            assert_eq!(a.output, b.output);
            assert_eq!(a.stats.comparisons(), b.stats.comparisons());
        }
    }

    #[test]
    fn matches_the_stream_implementation_output() {
        // Cross-check against the paper's own sequential reference.
        for seed in 0..5u64 {
            let input = workloads::uniform(1000, 100 + seed);
            let pram_out = sort(&input).unwrap().output;
            let seq_out = abisort::adaptive_bitonic_sort(&input);
            assert_eq!(pram_out, seq_out);
        }
    }

    #[test]
    fn steps_per_level_formulas() {
        assert_eq!(steps_per_level(1, Schedule::Overlapped), 1);
        assert_eq!(steps_per_level(4, Schedule::Overlapped), 7);
        assert_eq!(steps_per_level(4, Schedule::SequentialStages), 10);
        assert_eq!(total_steps(16, Schedule::Overlapped), 1 + 3 + 5 + 7);
    }

    #[test]
    fn sorts_adversarial_distributions() {
        use workloads::Distribution;
        for dist in [
            Distribution::Sorted,
            Distribution::Reverse,
            Distribution::OrganPipe,
            Distribution::FewDistinct { distinct: 2 },
            Distribution::Constant,
        ] {
            let input = workloads::generate(dist, 1 << 9, 41);
            let run = sort(&input).unwrap();
            assert_sorted_permutation(&input, &run.output);
        }
    }
}
