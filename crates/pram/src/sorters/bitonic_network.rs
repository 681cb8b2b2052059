//! Batcher's bitonic sorting network on the PRAM (EREW).
//!
//! This is the algorithm family *all previous GPU sorts* in the paper's
//! related work are based on (Section 2.2). On a PRAM with `n/2` processors
//! it runs in `log n (log n + 1) / 2` compare-exchange steps, i.e.
//! `O(log² n)` time — the same parallel time as adaptive bitonic sorting —
//! but performs `Θ(n log² n)` comparisons, which is the non-optimal work the
//! paper's contribution removes.

use super::SortRun;
use crate::error::Result;
use crate::machine::{Pram, PramModel};
use stream_arch::Value;

/// Number of compare-exchange steps of the network for `n` (power-of-two)
/// inputs: `log n (log n + 1) / 2`.
pub fn steps_for(n: usize) -> u64 {
    let log_n = n.trailing_zeros() as u64;
    log_n * (log_n + 1) / 2
}

/// Sort `values` ascending with Batcher's bitonic network, one PRAM step per
/// network stage with `n/2` compare-exchange processors.
pub fn sort(values: &[Value]) -> Result<SortRun> {
    SortRun::padded(values, PramModel::Erew, |padded| {
        let n = padded.len();
        let mut pram: Pram<Value> = Pram::from_vec(padded, PramModel::Erew);

        // Standard bitonic network: block size k doubles every (outer) stage,
        // the comparator distance j halves within a stage.
        let mut k = 2usize;
        while k <= n {
            let mut j = k / 2;
            while j >= 1 {
                pram.step(n / 2, |pair, ctx| {
                    // The `pair`-th comparator of this stage: skip indices whose
                    // j-bit is set so that every (i, i^j) pair appears once.
                    let i = expand_index(pair, j);
                    let partner = i ^ j;
                    let ascending = i & k == 0;
                    let a = ctx.read(i);
                    let b = ctx.read(partner);
                    ctx.charge_comparison();
                    let (lo, hi) = if a.gt(&b) { (b, a) } else { (a, b) };
                    if ascending {
                        ctx.write(i, lo);
                        ctx.write(partner, hi);
                    } else {
                        ctx.write(i, hi);
                        ctx.write(partner, lo);
                    }
                })?;
                j /= 2;
            }
            k *= 2;
        }

        let stats = pram.take_stats();
        Ok((pram.memory().to_vec(), stats))
    })
}

/// Map a comparator number `pair ∈ [0, n/2)` to the lower index `i` of its
/// `(i, i ^ j)` pair: insert a zero bit at the position of `j`'s single set
/// bit.
fn expand_index(pair: usize, j: usize) -> usize {
    let low_mask = j - 1;
    let low = pair & low_mask;
    let high = (pair & !low_mask) << 1;
    high | low
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::PramModel;
    use crate::sorters::tests::assert_sorted_permutation;

    #[test]
    fn expand_index_enumerates_every_comparator_exactly_once() {
        for log_n in 1..=6u32 {
            let n = 1usize << log_n;
            let mut j = 1usize;
            while j < n {
                let mut seen = std::collections::HashSet::new();
                for pair in 0..n / 2 {
                    let i = expand_index(pair, j);
                    assert_eq!(i & j, 0, "lower index must have the j-bit clear");
                    assert!(i < n);
                    assert!(seen.insert(i), "duplicate comparator for i={i} j={j}");
                }
                j *= 2;
            }
        }
    }

    #[test]
    fn sorts_random_inputs() {
        for log_n in 1..=10u32 {
            let n = 1usize << log_n;
            let input = workloads::uniform(n, log_n as u64);
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
    fn comparison_count_is_n_half_log_squared() {
        // Every step performs exactly n/2 comparisons.
        let n = 1usize << 9;
        let input = workloads::uniform(n, 5);
        let run = sort(&input).unwrap();
        assert_eq!(run.stats.comparisons(), steps_for(n) * (n as u64 / 2));
    }

    #[test]
    fn uses_exactly_n_half_processors() {
        let n = 256;
        let input = workloads::uniform(n, 11);
        let run = sort(&input).unwrap();
        assert_eq!(run.stats.max_processors(), n as u64 / 2);
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
    fn sorts_adversarial_distributions() {
        use workloads::Distribution;
        for dist in [
            Distribution::Sorted,
            Distribution::Reverse,
            Distribution::OrganPipe,
            Distribution::FewDistinct { distinct: 2 },
        ] {
            let input = workloads::generate(dist, 512, 13);
            let run = sort(&input).unwrap();
            assert_sorted_permutation(&input, &run.output);
        }
    }
}
