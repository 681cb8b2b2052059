//! Batcher's odd-even merge sort network on the PRAM (EREW).
//!
//! The second classical sorting network of the paper's related work
//! (Kipfer et al.'s GPU sorter is based on it, Section 2.2). Like the
//! bitonic network it runs in `log n (log n + 1) / 2` parallel steps, but
//! with fewer comparators per step on average — still `Θ(n log² n)` work,
//! i.e. the same asymptotic surcharge over adaptive bitonic sorting.
//!
//! The network is the one the stream-machine baseline runs:
//! [`OddEvenMergeSort::passes_for`] steps of [`odd_even_role`], executed by
//! [`run_network`].

use super::{run_network, SortRun};
use crate::error::Result;
use baselines::oems::odd_even_role;
use baselines::OddEvenMergeSort;
use stream_arch::Value;

/// Sort `values` ascending with the odd-even merge sort network, one PRAM
/// step per network stage.
pub fn sort(values: &[Value]) -> Result<SortRun> {
    run_network(values, OddEvenMergeSort::passes_for, odd_even_role)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorters::bitonic_network;

    #[test]
    fn uses_fewer_comparisons_than_the_bitonic_network_but_more_than_2n_log_n() {
        let n = 1usize << 10;
        let input = workloads::uniform(n, 5);
        let oem = sort(&input).unwrap().stats.comparisons();
        let bitonic = bitonic_network::sort(&input).unwrap().stats.comparisons();
        assert!(
            oem < bitonic,
            "odd-even merge should save comparators ({oem} vs {bitonic})"
        );
        assert!(oem > 2 * (n as u64) * 10, "still Θ(n log² n) work");
    }

    #[test]
    fn agrees_with_the_bitonic_network_output() {
        for seed in 0..5u64 {
            let input = workloads::uniform(777, seed);
            let a = sort(&input).unwrap().output;
            let b = bitonic_network::sort(&input).unwrap().output;
            assert_eq!(a, b);
        }
    }
}
