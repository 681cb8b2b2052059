//! Batcher's odd-even merge sort network (the Kipfer et al. `[KSW04]` /
//! `[KW05]` GPU sorter cited in Section 2.2).
//!
//! Like the bitonic network it is data independent with
//! `log n (log n + 1)/2` steps and `O(n log² n)` work, but it uses slightly
//! fewer comparators per step. It serves as an additional point in the
//! work-complexity experiment (E13).

use crate::network::{run_network_padded, triangular_passes, triangular_step, NetworkRun, Role};
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

    /// Number of network steps for `n` (a power of two), the bitonic
    /// network's `log n (log n + 1) / 2`.
    pub fn passes_for(n: usize) -> usize {
        triangular_passes(n)
    }

    /// Sort ascending on the given stream processor.
    pub fn sort(&self, proc: &mut StreamProcessor, values: &[Value]) -> Result<NetworkRun> {
        run_network_padded(proc, values, self.layout, Self::passes_for, odd_even_role)
    }
}

/// The role of element `i` in the `pass`-th step of Batcher's odd-even
/// merge sort of `n` elements (a power of two). The classic iterative
/// formulation: `p` doubles from 1 to `n/2`, and for each `p`, `k` halves
/// from `p` down to 1; each `(p, k)` step compare-exchanges `(x, x + k)`
/// for all `x` whose offset within a `2k` window lies in
/// `[k mod p, k mod p + k)` and whose partner lies in the same `2p`-aligned
/// block.
pub fn odd_even_role(n: usize, pass: usize, i: usize) -> Role {
    let (p, k) = triangular_step(pass);
    debug_assert!(2 * p <= n && n.is_power_of_two());
    let j0 = k % p;
    let window = 2 * k;
    let offset = i % window;

    let is_lower = offset >= j0 && offset < j0 + k;
    if is_lower {
        let partner = i + k;
        if i / (2 * p) == partner / (2 * p) {
            // `n` is a multiple of `2p`, so the block holds the partner.
            debug_assert!(partner < n);
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
