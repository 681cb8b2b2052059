//! Parallel sorting algorithms executed on the [`crate::Pram`] machine.
//!
//! * [`abisort_pram`] — Bilardi & Nicolau's adaptive bitonic sort, the
//!   EREW-PRAM ("PRAC") algorithm the paper ports to stream architectures;
//! * [`bitonic_network`] — Batcher's bitonic sorting network, the
//!   non-optimal-work baseline every previous GPU sort was based on;
//! * [`oem_network`] — Batcher's odd-even merge sort network (the basis of
//!   Kipfer et al.'s GPU sorter), same depth, slightly fewer comparators;
//! * [`rank_merge`] — a rank-based parallel merge sort (CREW), standing in
//!   for the asymptotically optimal but constant-heavy PRAM sorts of
//!   Section 2.1.
//!
//! The two Batcher networks have one definition in the workspace: the
//! per-element roles of [`baselines`] (`passes_for` and the `role`
//! function of [`baselines::gpusort`] and [`baselines::oems`]), which the
//! stream-machine baselines run too. [`run_network`] executes such a
//! network on the PRAM.
//!
//! All sorters take a slice of [`Value`]s of arbitrary length, pad to a
//! power of two through [`stream_arch::padding`] (Section 4 of the
//! paper), and return a [`SortRun`] with the sorted output and the
//! machine statistics.

pub mod abisort_pram;
pub mod bitonic_network;
pub mod oem_network;
pub mod rank_merge;

use crate::error::Result;
use crate::machine::{Pram, PramModel};
use crate::metrics::PramStats;
use baselines::network::Role;
use stream_arch::{padding, Value};

/// The result of running one PRAM sorter.
#[derive(Clone, Debug)]
pub struct SortRun {
    /// The sorted values (same length as the input).
    pub output: Vec<Value>,
    /// Step/work/access statistics of the execution.
    pub stats: PramStats,
    /// The PRAM model the algorithm was executed (and checked) under.
    pub model: PramModel,
    /// The padded power-of-two problem size the machine operated on.
    pub padded_len: usize,
}

impl SortRun {
    /// Run `machine` on `values` padded through [`padding::sort_padded`]:
    /// it gets the padded input and returns the sorted memory and its
    /// statistics. No machine runs (and `padded_len` is at most 1) when
    /// fewer than two values need sorting.
    pub(crate) fn padded(
        values: &[Value],
        model: PramModel,
        machine: impl FnOnce(Vec<Value>) -> Result<(Vec<Value>, PramStats)>,
    ) -> Result<SortRun> {
        let (mut stats, mut padded_len) = (PramStats::default(), values.len().min(1));
        let output = padding::sort_padded(values, |padded| {
            padded_len = padded.len();
            let output;
            (output, stats) = machine(padded)?;
            Ok(output)
        })?;
        Ok(SortRun {
            output,
            stats,
            model,
            padded_len,
        })
    }
}

/// Run a comparator network of [`baselines`] on an EREW PRAM: the padded
/// length `n` takes `passes_for(n)` steps, and element `i` plays
/// `role(n, pass, i)` in step `pass`. Each step runs one processor per
/// [`Role::KeepMin`] element: it reads its own cell and its partner's,
/// charges one comparison, and writes the minimum to its own cell and the
/// maximum to the partner's. Comparators that share a cell fail the step
/// under the machine's EREW check.
pub fn run_network(
    values: &[Value],
    passes_for: impl Fn(usize) -> usize,
    role: impl Fn(usize, usize, usize) -> Role,
) -> Result<SortRun> {
    SortRun::padded(values, PramModel::Erew, |padded| {
        let n = padded.len();
        let mut pram: Pram<Value> = Pram::from_vec(padded, PramModel::Erew);
        let mut pairs = Vec::with_capacity(n / 2);
        for pass in 0..passes_for(n) {
            pairs.clear();
            pairs.extend((0..n).filter_map(|i| match role(n, pass, i) {
                Role::KeepMin { partner } => Some((i, partner)),
                Role::KeepMax { .. } | Role::Copy => None,
            }));
            pram.step(pairs.len(), |t, ctx| {
                let (own, partner) = pairs[t];
                let a = ctx.read(own);
                let b = ctx.read(partner);
                ctx.charge_comparison();
                let (lo, hi) = if a.gt(&b) { (b, a) } else { (a, b) };
                ctx.write(own, lo);
                ctx.write(partner, hi);
            })?;
        }
        let stats = pram.take_stats();
        Ok((pram.memory().to_vec(), stats))
    })
}

/// Direction of the `t`-th block of a recursion level: even blocks ascend,
/// odd blocks descend, so that the next level sees bitonic inputs (same
/// convention as the sequential and stream implementations).
pub(crate) fn block_ascending(t: usize) -> bool {
    t.is_multiple_of(2)
}

/// "Out of order" under the requested direction — the single comparison
/// primitive of the paper's pseudo code.
pub(crate) fn out_of_order(a: &Value, b: &Value, ascending: bool) -> bool {
    a.gt(b) == ascending
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn assert_sorted_permutation(input: &[Value], output: &[Value]) {
        let mut expected = input.to_vec();
        expected.sort();
        assert_eq!(output, expected, "output is not the sorted input");
    }

    #[test]
    fn every_sorter_sorts_tiny_odd_and_sentinel_key_inputs() {
        type Sorter = fn(&[Value]) -> Result<SortRun>;
        let sorters: [Sorter; 4] = [
            abisort_pram::sort,
            bitonic_network::sort,
            oem_network::sort,
            rank_merge::sort,
        ];
        let sizes = [0usize, 1, 2, 3, 5, 7, 100, 777, 1000, 1023, 1025];
        // The padding sentinel's key with the first sentinel's id.
        let mut probe: Vec<Value> = (0..4).map(|i| Value::new(i as f32, i)).collect();
        probe.push(Value::new(f32::from_bits(i32::MAX as u32), u32::MAX));
        for sort in sorters {
            for &n in &sizes {
                let input = workloads::uniform(n, n as u64);
                let run = sort(&input).unwrap();
                assert_sorted_permutation(&input, &run.output);
                let padded_len = if n == 0 { 0 } else { n.next_power_of_two() };
                assert_eq!(run.padded_len, padded_len);
            }
            let run = sort(&probe).unwrap();
            assert_sorted_permutation(&probe, &run.output);
            assert_eq!(run.padded_len, 4);
        }
    }

    #[test]
    fn both_networks_sort_on_erew_in_passes_for_steps_with_data_independent_work() {
        use baselines::{GpuSortBaseline, OddEvenMergeSort};
        type Network = (
            &'static str,
            fn(&[Value]) -> Result<SortRun>,
            fn(usize) -> usize,
        );
        let networks: [Network; 2] = [
            (
                "bitonic",
                bitonic_network::sort,
                GpuSortBaseline::passes_for,
            ),
            ("odd-even", oem_network::sort, OddEvenMergeSort::passes_for),
        ];
        for (name, sort, passes_for) in networks {
            for log_n in 1..=10u32 {
                let n = 1usize << log_n;
                let input = workloads::uniform(n, log_n as u64);
                let run = sort(&input).unwrap();
                assert_sorted_permutation(&input, &run.output);
                assert_eq!(run.model, PramModel::Erew);
                assert_eq!(run.stats.conflicts(PramModel::Erew), 0, "{name} n={n}");
                assert_eq!(run.stats.num_steps(), passes_for(n) as u64, "{name} n={n}");
            }
            let mut counts = std::collections::HashSet::new();
            for dist in workloads::Distribution::all_for_data_dependence() {
                let input = workloads::generate(dist, 512, 3);
                let run = sort(&input).unwrap();
                assert_sorted_permutation(&input, &run.output);
                counts.insert(run.stats.comparisons());
            }
            assert_eq!(counts.len(), 1, "{name} work depends on the data");
        }
    }

    #[test]
    fn comparators_that_share_a_cell_fail_the_erew_check() {
        use crate::PramError;
        let input = workloads::uniform(4, 1);
        let err = run_network(&input, |_| 1, |_, _, i| Role::KeepMin { partner: i ^ 1 });
        assert!(
            matches!(
                err,
                Err(PramError::ReadConflict { .. } | PramError::WriteConflict { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn block_direction_alternates() {
        assert!(block_ascending(0));
        assert!(!block_ascending(1));
        assert!(block_ascending(2));
    }

    #[test]
    fn out_of_order_flips_with_direction() {
        let lo = Value::new(1.0, 0);
        let hi = Value::new(2.0, 0);
        assert!(out_of_order(&hi, &lo, true));
        assert!(!out_of_order(&hi, &lo, false));
    }
}
