//! Batcher's odd-even merge sort network on the PRAM (EREW).
//!
//! The second classical sorting network of the paper's related work
//! (Kipfer et al.'s GPU sorter is based on it, Section 2.2). Like the
//! bitonic network it runs in `log n (log n + 1) / 2` parallel steps, but
//! with fewer comparators per step on average — still `Θ(n log² n)` work,
//! i.e. the same asymptotic surcharge over adaptive bitonic sorting.

use super::SortRun;
use crate::error::Result;
use crate::machine::{Pram, PramModel};
use stream_arch::Value;

/// Number of parallel steps of the network for `n` (power-of-two) inputs —
/// the same `log n (log n + 1) / 2` depth as the bitonic network.
pub fn steps_for(n: usize) -> u64 {
    let log_n = n.trailing_zeros() as u64;
    log_n * (log_n + 1) / 2
}

/// The comparator pairs of one `(p, k)` step of the odd-even merge sort
/// network over `n` elements (Batcher's classic formulation).
fn comparators(n: usize, p: usize, k: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let mut j = k % p;
    while j + k < n {
        for i in 0..k.min(n - j - k) {
            let a = i + j;
            let b = i + j + k;
            if a / (2 * p) == b / (2 * p) {
                pairs.push((a, b));
            }
        }
        j += 2 * k;
    }
    pairs
}

/// Sort `values` ascending with the odd-even merge sort network, one PRAM
/// step per network stage.
pub fn sort(values: &[Value]) -> Result<SortRun> {
    SortRun::padded(values, PramModel::Erew, |padded| {
        let n = padded.len();
        let mut pram: Pram<Value> = Pram::from_vec(padded, PramModel::Erew);

        let mut p = 1usize;
        while p < n {
            let mut k = p;
            while k >= 1 {
                let pairs = comparators(n, p, k);
                pram.step(pairs.len(), |t, ctx| {
                    let (lo_idx, hi_idx) = pairs[t];
                    let a = ctx.read(lo_idx);
                    let b = ctx.read(hi_idx);
                    ctx.charge_comparison();
                    let (lo, hi) = if a.gt(&b) { (b, a) } else { (a, b) };
                    ctx.write(lo_idx, lo);
                    ctx.write(hi_idx, hi);
                })?;
                k /= 2;
            }
            p *= 2;
        }

        let stats = pram.take_stats();
        Ok((pram.memory().to_vec(), stats))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorters::bitonic_network;
    use crate::sorters::tests::assert_sorted_permutation;

    #[test]
    fn comparator_pairs_are_disjoint_within_a_step() {
        for log_n in 1..=7u32 {
            let n = 1usize << log_n;
            let mut p = 1usize;
            while p < n {
                let mut k = p;
                while k >= 1 {
                    let pairs = comparators(n, p, k);
                    let mut touched = std::collections::HashSet::new();
                    for (a, b) in pairs {
                        assert!(a < b && b < n);
                        assert!(touched.insert(a), "index {a} reused (p={p}, k={k})");
                        assert!(touched.insert(b), "index {b} reused (p={p}, k={k})");
                    }
                    k /= 2;
                }
                p *= 2;
            }
        }
    }

    #[test]
    fn sorts_random_inputs() {
        for log_n in 1..=10u32 {
            let n = 1usize << log_n;
            let input = workloads::uniform(n, 90 + log_n as u64);
            let run = sort(&input).unwrap();
            assert_sorted_permutation(&input, &run.output);
        }
    }

    #[test]
    fn runs_on_an_erew_machine_without_conflicts() {
        let input = workloads::uniform(512, 7);
        let run = sort(&input).unwrap();
        assert_eq!(run.model, PramModel::Erew);
        assert_eq!(run.stats.conflicts(PramModel::Erew), 0);
    }

    #[test]
    fn step_count_matches_the_closed_form() {
        for log_n in 1..=10u32 {
            let n = 1usize << log_n;
            let input = workloads::uniform(n, 3);
            let run = sort(&input).unwrap();
            assert_eq!(run.stats.num_steps(), steps_for(n), "n={n}");
        }
    }

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
    fn comparison_count_is_data_independent() {
        let mut counts = std::collections::HashSet::new();
        for dist in workloads::Distribution::all_for_data_dependence() {
            let input = workloads::generate(dist, 512, 3);
            counts.insert(sort(&input).unwrap().stats.comparisons());
        }
        assert_eq!(counts.len(), 1);
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
