//! Batcher's odd-even merge sort network (the Kipfer et al. `[KSW04]` /
//! `[KW05]` GPU sorter cited in Section 2.2).
//!
//! Like the bitonic network it is data independent with
//! `log n (log n + 1)/2` steps and `O(n log² n)` work, but it uses slightly
//! fewer comparators per step. It serves as an additional point in the
//! work-complexity experiment (E13).

use crate::network::{run_network_padded, NetworkRun, Role};
use stream_arch::{Layout, Result, StreamProcessor, Value};

/// The odd-even merge sort network baseline.
#[derive(Copy, Clone, Debug)]
pub struct OddEvenMergeSort {
    layout: Layout,
}

impl Default for OddEvenMergeSort {
    fn default() -> Self {
        OddEvenMergeSort {
            layout: Layout::ZOrder,
        }
    }
}

impl OddEvenMergeSort {
    /// Create the baseline with the cache-friendly Z-order layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of network steps for `n` (a power of two).
    pub fn passes_for(n: usize) -> usize {
        let log_n = n.trailing_zeros() as usize;
        log_n * (log_n + 1) / 2
    }

    /// Sort ascending on the given stream processor.
    pub fn sort(&self, proc: &mut StreamProcessor, values: &[Value]) -> Result<NetworkRun> {
        run_network_padded(proc, values, self.layout, Self::passes_for, odd_even_role)
    }
}

/// The (p, k) parameters of the `pass`-th step: `p` doubles from 1 to n/2,
/// and for each `p`, `k` halves from `p` down to 1.
fn pass_parameters(pass: usize) -> (usize, usize) {
    let mut group = 1usize; // group index ⇒ p = 2^(group−1), group has `group` steps
    let mut consumed = 0usize;
    while consumed + group <= pass {
        consumed += group;
        group += 1;
    }
    let p = 1usize << (group - 1);
    let k = p >> (pass - consumed);
    (p, k)
}

/// The role of element `i` in the `pass`-th step of Batcher's odd-even
/// merge sort of `n` elements (classic iterative formulation: for each
/// `(p, k)`, compare-exchange `(x, x + k)` for all `x` whose offset within
/// a `2k` window lies in `[k mod p, k mod p + k)` and whose partner lies in
/// the same `2p`-aligned block).
fn odd_even_role(n: usize, pass: usize, i: usize) -> Role {
    let (p, k) = pass_parameters(pass);
    let j0 = k % p;
    let window = 2 * k;
    let offset = i % window;

    let is_lower = offset >= j0 && offset < j0 + k;
    if is_lower {
        let partner = i + k;
        if partner < n && i / (2 * p) == partner / (2 * p) {
            return Role::KeepMin { partner };
        }
        return Role::Copy;
    }
    // Upper end of a comparator?
    if i >= k {
        let lower = i - k;
        let lower_offset = lower % window;
        if lower_offset >= j0 && lower_offset < j0 + k && lower / (2 * p) == i / (2 * p) {
            return Role::KeepMax { partner: lower };
        }
    }
    Role::Copy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::default_processor;

    /// Reference implementation: run the classic triple loop directly on a
    /// host array.
    fn reference_sort(values: &[Value]) -> Vec<Value> {
        let n = values.len();
        let mut a = values.to_vec();
        let mut p = 1;
        while p < n {
            let mut k = p;
            while k >= 1 {
                let j0 = k % p;
                let mut j = j0;
                while j + k < n {
                    for i in 0..k {
                        let x = i + j;
                        let y = i + j + k;
                        if y < n && x / (2 * p) == y / (2 * p) && a[x] > a[y] {
                            a.swap(x, y);
                        }
                    }
                    j += 2 * k;
                }
                k /= 2;
            }
            p *= 2;
        }
        a
    }

    #[test]
    fn pass_parameters_enumerate_p_and_k() {
        // n = 8: (1,1), (2,2), (2,1), (4,4), (4,2), (4,1)
        let expected = [(1, 1), (2, 2), (2, 1), (4, 4), (4, 2), (4, 1)];
        for (pass, &e) in expected.iter().enumerate() {
            assert_eq!(pass_parameters(pass), e, "pass {pass}");
        }
    }

    #[test]
    fn reference_implementation_sorts() {
        for &n in &[2usize, 8, 16, 64, 256] {
            let input = workloads::uniform(n, n as u64);
            let mut expected = input.clone();
            expected.sort();
            assert_eq!(reference_sort(&input), expected, "n={n}");
        }
    }

    #[test]
    fn stream_network_matches_reference_and_std_sort() {
        for &n in &[2usize, 4, 16, 128, 1024] {
            let input = workloads::uniform(n, 3 + n as u64);
            let mut proc = default_processor();
            let run = OddEvenMergeSort::new().sort(&mut proc, &input).unwrap();
            let mut expected = input.clone();
            expected.sort();
            assert_eq!(run.output, expected, "n={n}");
            assert_eq!(run.output, reference_sort(&input), "n={n}");
        }
    }

    #[test]
    fn sorts_non_power_of_two_lengths() {
        for &n in &[3usize, 100, 777] {
            let input = workloads::uniform(n, n as u64);
            let mut proc = default_processor();
            let run = OddEvenMergeSort::new().sort(&mut proc, &input).unwrap();
            let mut expected = input.clone();
            expected.sort();
            assert_eq!(run.output, expected, "n={n}");
        }
    }

    #[test]
    fn uses_fewer_comparisons_than_the_bitonic_network() {
        let n = 2048;
        let input = workloads::uniform(n, 1);
        let mut proc = default_processor();
        let oems = OddEvenMergeSort::new().sort(&mut proc, &input).unwrap();
        let mut proc = default_processor();
        let bitonic = crate::gpusort::GpuSortBaseline::new()
            .sort(&mut proc, &input)
            .unwrap();
        assert_eq!(oems.passes, bitonic.passes);
        assert!(oems.counters.comparisons < bitonic.counters.comparisons);
    }
}
