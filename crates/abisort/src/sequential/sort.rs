//! The sequential adaptive bitonic *sort*: a merge sort whose merge step is
//! the adaptive bitonic merge (end of Section 4.1).
//!
//! The sort works level by level on one in-order-stored node pool
//! ([`crate::tree::BitonicTree`]): at recursion level `j` the pool contains
//! `n / 2^j` bitonic trees of `2^j` nodes each (every block of `2^j`
//! consecutive in-order positions, rooted at the block's centre position
//! with the block's last position as spare), and the adaptive bitonic merge
//! is applied to each of them with alternating sort directions so that the
//! next level again sees bitonic inputs. This is exactly the structure the
//! stream implementation parallelises (Section 5.1).

use super::{classic, simplified};
use crate::tree::{block_root_index, block_spare_index, BitonicTree};
use std::convert::Infallible;
use stream_arch::{padding, Value};

/// Which variant of the adaptive min/max determination to use.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum MergeVariant {
    /// The classic algorithm with the case (a)/(b) distinction
    /// (Section 4.1).
    Classic,
    /// The paper's simplified variant (Section 4.2) — the default, and the
    /// one the stream kernels implement.
    #[default]
    Simplified,
}

/// Operation counts of a sequential sort or merge.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Key comparisons performed.
    pub comparisons: u64,
    /// Value exchanges performed.
    pub value_swaps: u64,
    /// Child-pointer exchanges performed.
    pub pointer_swaps: u64,
    /// Number of adaptive bitonic merges executed.
    pub merges: u64,
}

impl SortStats {
    /// The paper's bound on the total number of comparisons of the full
    /// sort: "less than 2 n log n in total for a sequence of length n"
    /// (Section 2.1).
    pub fn within_comparison_bound(&self, n: usize) -> bool {
        let n = n as u64;
        let log_n = usize::BITS as u64 - (n - 1).leading_zeros() as u64;
        self.comparisons < 2 * n * log_n.max(1)
    }
}

/// Sort `values` ascending with the sequential adaptive bitonic sort
/// (simplified merge variant). The length may be arbitrary; non-power-of-two
/// inputs are padded internally (see [`adaptive_bitonic_sort_with`]).
pub fn adaptive_bitonic_sort(values: &[Value]) -> Vec<Value> {
    adaptive_bitonic_sort_with(values, MergeVariant::Simplified).0
}

/// Sort `values` ascending and return the operation counts.
///
/// The paper assumes power-of-two input lengths ("this can be achieved by
/// padding the input sequence", Section 4); this function performs that
/// padding transparently through [`stream_arch::padding::sort_padded`]:
/// the input is padded with sentinel elements that sort after every value
/// the merges see, sorted, and cut off again. The returned statistics
/// include the work spent on the padding.
pub fn adaptive_bitonic_sort_with(
    values: &[Value],
    variant: MergeVariant,
) -> (Vec<Value>, SortStats) {
    let mut stats = SortStats::default();
    let Ok(out) = padding::sort_padded(values, |padded| {
        let n = padded.len();
        let mut tree = BitonicTree::from_values(&padded);
        for j in 1..=n.trailing_zeros() {
            let block = 1usize << j;
            for t in 0..n / block {
                let ascending = t % 2 == 0;
                let root = block_root_index(t, block);
                let spare = block_spare_index(t, block);
                stats.merges += 1;
                match variant {
                    MergeVariant::Classic => {
                        classic::merge(tree.nodes_mut(), root, spare, j, ascending, &mut stats)
                    }
                    MergeVariant::Simplified => {
                        simplified::merge(tree.nodes_mut(), root, spare, j, ascending, &mut stats)
                    }
                }
            }
        }
        Ok::<_, Infallible>(tree.to_sequence())
    });
    (out, stats)
}

/// Merge one bitonic sequence (power-of-two length) into a monotonic
/// sequence in the requested direction, returning the result and the
/// operation counts. This is the sequential reference for the stream merge.
pub fn adaptive_bitonic_merge(
    bitonic: &[Value],
    ascending: bool,
    variant: MergeVariant,
) -> (Vec<Value>, SortStats) {
    let n = bitonic.len();
    assert!(
        n >= 2 && n.is_power_of_two(),
        "bitonic merge needs a power-of-two length >= 2"
    );
    let mut tree = BitonicTree::from_values(bitonic);
    let mut stats = SortStats::default();
    stats.merges += 1;
    let levels = n.trailing_zeros();
    let root = tree.root_index();
    let spare = tree.spare_index();
    match variant {
        MergeVariant::Classic => {
            classic::merge(tree.nodes_mut(), root, spare, levels, ascending, &mut stats)
        }
        MergeVariant::Simplified => {
            simplified::merge(tree.nodes_mut(), root, spare, levels, ascending, &mut stats)
        }
    }
    (tree.to_sequence(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_sorts, is_permutation, is_sorted};
    use workloads::Distribution;

    #[test]
    fn sorts_random_inputs_of_power_of_two_lengths() {
        for log_n in 1..=13u32 {
            let n = 1usize << log_n;
            let input = workloads::uniform(n, log_n as u64);
            let (out, stats) = adaptive_bitonic_sort_with(&input, MergeVariant::Simplified);
            check_sorts(&input, &out).unwrap();
            assert!(stats.within_comparison_bound(n), "n={n}: {stats:?}");
        }
    }

    #[test]
    fn sorts_non_power_of_two_lengths_by_padding() {
        for &n in &[0usize, 1, 3, 5, 100, 1000, 1023, 1025] {
            let input = workloads::uniform(n, n as u64);
            let out = adaptive_bitonic_sort(&input);
            assert_eq!(out.len(), n);
            if n > 0 {
                check_sorts(&input, &out).unwrap();
            }
        }
    }

    #[test]
    fn classic_and_simplified_sorts_agree() {
        for seed in 0..10u64 {
            let input = workloads::uniform(512, seed);
            let (a, sa) = adaptive_bitonic_sort_with(&input, MergeVariant::Classic);
            let (b, sb) = adaptive_bitonic_sort_with(&input, MergeVariant::Simplified);
            assert_eq!(a, b);
            assert_eq!(sa.comparisons, sb.comparisons);
        }
    }

    #[test]
    fn comparison_count_is_data_independent() {
        // The total number of comparisons performed by the adaptive bitonic
        // sort does not depend on the data (Section 8: "the timings of
        // GPU-ABiSort do not vary significantly dependent on the data to
        // sort (because the total number of comparisons ... is not data
        // dependent)").
        let n = 1024;
        let mut counts = std::collections::HashSet::new();
        for dist in Distribution::all_for_data_dependence() {
            let input = workloads::generate(dist, n, 3);
            let (_, stats) = adaptive_bitonic_sort_with(&input, MergeVariant::Simplified);
            counts.insert(stats.comparisons);
        }
        assert_eq!(
            counts.len(),
            1,
            "comparison count varied across inputs: {counts:?}"
        );
    }

    #[test]
    fn comparison_bound_is_tight_enough_to_be_meaningful() {
        let n = 4096;
        let input = workloads::uniform(n, 1);
        let (_, stats) = adaptive_bitonic_sort_with(&input, MergeVariant::Simplified);
        let log_n = 12u64;
        // Fewer than 2 n log n but more than (n/2) log n — i.e. the counter
        // actually counts something of the right magnitude.
        assert!(stats.comparisons < 2 * n as u64 * log_n);
        assert!(stats.comparisons > (n as u64 / 2) * log_n);
    }

    #[test]
    fn merge_helper_handles_both_directions() {
        let input = workloads::bitonic(256, 21);
        let (asc, _) = adaptive_bitonic_merge(&input, true, MergeVariant::Simplified);
        assert!(is_sorted(&asc));
        assert!(is_permutation(&input, &asc));
        let (desc, _) = adaptive_bitonic_merge(&input, false, MergeVariant::Classic);
        assert!(crate::verify::is_sorted_descending(&desc));
        assert!(is_permutation(&input, &desc));
    }

    #[test]
    fn sorts_adversarial_distributions() {
        for dist in [
            Distribution::Sorted,
            Distribution::Reverse,
            Distribution::Constant,
            Distribution::FewDistinct { distinct: 2 },
            Distribution::OrganPipe,
        ] {
            let input = workloads::generate(dist, 2048, 9);
            let out = adaptive_bitonic_sort(&input);
            check_sorts(&input, &out).unwrap_or_else(|e| panic!("{}: {e}", dist.name()));
        }
    }

    #[test]
    fn tiny_inputs() {
        assert!(adaptive_bitonic_sort(&[]).is_empty());
        let one = vec![stream_arch::Value::new(3.0, 0)];
        assert_eq!(adaptive_bitonic_sort(&one), one);
        let two = vec![
            stream_arch::Value::new(3.0, 0),
            stream_arch::Value::new(1.0, 1),
        ];
        let out = adaptive_bitonic_sort(&two);
        assert_eq!(out[0].key, 1.0);
        assert_eq!(out[1].key, 3.0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn merge_rejects_non_power_of_two() {
        let input = workloads::uniform(6, 0);
        let _ = adaptive_bitonic_merge(&input, true, MergeVariant::Simplified);
    }
}
