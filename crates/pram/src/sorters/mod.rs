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
//! All sorters take a slice of [`Value`]s of arbitrary length, pad to a
//! power of two through [`stream_arch::padding`] (Section 4 of the
//! paper), and return a [`SortRun`] with the sorted output and the
//! machine statistics.

pub mod abisort_pram;
pub mod bitonic_network;
pub mod oem_network;
pub mod rank_merge;

use crate::error::Result;
use crate::machine::PramModel;
use crate::metrics::PramStats;
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
