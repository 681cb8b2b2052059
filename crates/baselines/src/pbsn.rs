//! The periodic balanced sorting network (Dowd, Perl, Rudolph & Saks),
//! used by Govindaraju et al.'s 2005 GPU sorter (`[GRM05]` in Section 2.2).
//!
//! The network consists of `log n` identical *periods*; each period has
//! `log n` steps, and in step `t` (1-based) every element is compared with
//! its mirror position inside its `n / 2^{t−1}`-sized block. `log² n` steps
//! and `O(n log² n)` work in total — the same asymptotics as the bitonic
//! network, with a particularly regular (and therefore GPU-friendly)
//! structure.

use crate::network::{run_network_padded, NetworkRun, Role};
use stream_arch::{Layout, Result, StreamProcessor, Value};

/// The periodic balanced sorting network baseline.
#[derive(Copy, Clone, Debug)]
pub struct PeriodicBalancedSort {
    layout: Layout,
}

impl Default for PeriodicBalancedSort {
    fn default() -> Self {
        PeriodicBalancedSort {
            layout: Layout::ZOrder,
        }
    }
}

impl PeriodicBalancedSort {
    /// Create the baseline with the cache-friendly Z-order layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of network steps for `n` (a power of two): `log² n`.
    pub fn passes_for(n: usize) -> usize {
        let log_n = n.trailing_zeros() as usize;
        log_n * log_n
    }

    /// Sort ascending on the given stream processor.
    pub fn sort(&self, proc: &mut StreamProcessor, values: &[Value]) -> Result<NetworkRun> {
        run_network_padded(proc, values, self.layout, Self::passes_for, |n, pass, i| {
            let step = pass % n.trailing_zeros() as usize; // step within the current period
            balanced_role(n, step, i)
        })
    }
}

/// The role of element `i` in step `step` (0-based) of one period of the
/// balanced merging network: compare with the mirror position within the
/// current block of size `n / 2^step`.
fn balanced_role(n: usize, step: usize, i: usize) -> Role {
    let block = n >> step;
    if block < 2 {
        return Role::Copy;
    }
    let base = (i / block) * block;
    let partner = base + (block - 1 - (i - base));
    if partner == i {
        return Role::Copy;
    }
    if i < partner {
        Role::KeepMin { partner }
    } else {
        Role::KeepMax { partner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::default_processor;

    #[test]
    fn balanced_role_mirrors_within_blocks() {
        // n = 8, step 0: blocks of 8, mirror pairs (0,7) (1,6) (2,5) (3,4).
        assert_eq!(balanced_role(8, 0, 0), Role::KeepMin { partner: 7 });
        assert_eq!(balanced_role(8, 0, 7), Role::KeepMax { partner: 0 });
        assert_eq!(balanced_role(8, 0, 3), Role::KeepMin { partner: 4 });
        // Step 1: blocks of 4 → (0,3) (1,2) (4,7) (5,6).
        assert_eq!(balanced_role(8, 1, 5), Role::KeepMin { partner: 6 });
        // Step 2: blocks of 2 → adjacent pairs.
        assert_eq!(balanced_role(8, 2, 6), Role::KeepMin { partner: 7 });
    }

    #[test]
    fn pass_count_is_log_squared() {
        assert_eq!(PeriodicBalancedSort::passes_for(1 << 10), 100);
        let n = 1024usize;
        let input = workloads::uniform(n, 2);
        let mut proc = default_processor();
        let run = PeriodicBalancedSort::new().sort(&mut proc, &input).unwrap();
        assert_eq!(run.passes, 100);
        // More steps than the bitonic network (log² n vs log n (log n+1)/2):
        // the paper's Section 2.2 ordering of the related GPU sorters.
        assert!(run.passes > crate::gpusort::GpuSortBaseline::passes_for(n));
    }
}
