//! GPUSort: the bitonic sorting network baseline (Govindaraju et al. 2005,
//! `[GRHM05]` in the paper).
//!
//! The paper's main GPU comparator is a cache-optimized implementation of
//! Batcher's bitonic sorting network: data independent, `log n (log n+1)/2`
//! network steps, `O(n log² n)` comparisons. We run the same network on the
//! stream simulator, one stream operation per step.
//!
//! **Substitution note.** The original GPUSort achieves its cache
//! efficiency with a row-wise layout split into `B×B` tiles processed
//! consecutively (footnote 1 of the paper). Our simulator's texture cache
//! rewards 2D-local access patterns the same way, but we expose the choice
//! of layout directly: the default [`GpuSortBaseline`] uses the Z-order
//! layout (cache-friendly, like the tiled original on its best-case
//! hardware), and [`GpuSortBaseline::row_wise`] models the untiled
//! worst case. This preserves what the comparison in Tables 2 and 3 is
//! about — network work versus adaptive work on the same machine — without
//! guessing the tile parameter the paper itself calls hard to choose.

use crate::network::{run_network_padded, NetworkRun, Role};
use stream_arch::{Layout, Result, StreamProcessor, Value};

/// The bitonic sorting network baseline ("GPUSort").
#[derive(Copy, Clone, Debug)]
pub struct GpuSortBaseline {
    layout: Layout,
}

impl Default for GpuSortBaseline {
    fn default() -> Self {
        GpuSortBaseline {
            layout: Layout::ZOrder,
        }
    }
}

impl GpuSortBaseline {
    /// The cache-optimized variant (Z-order layout).
    pub fn new() -> Self {
        Self::default()
    }

    /// The non-tiled, row-wise variant (used by the ablation experiments).
    pub fn row_wise(width: u32) -> Self {
        GpuSortBaseline {
            layout: Layout::RowMajor { width },
        }
    }

    /// Number of network steps for `n` (a power of two):
    /// `log n · (log n + 1) / 2`.
    pub fn passes_for(n: usize) -> usize {
        let log_n = n.trailing_zeros() as usize;
        log_n * (log_n + 1) / 2
    }

    /// Sort ascending on the given stream processor.
    pub fn sort(&self, proc: &mut StreamProcessor, values: &[Value]) -> Result<NetworkRun> {
        run_network_padded(proc, values, self.layout, Self::passes_for, bitonic_role)
    }
}

/// The (block, distance) pair of the `pass`-th step of the bitonic sorting
/// network for `n` elements: blocks double from 2 to n, and within each
/// block size the compare distance halves from `block/2` to 1.
fn pass_parameters(pass: usize) -> (usize, usize) {
    // Find k (1-based block exponent) such that pass falls into its group
    // of k steps: groups have sizes 1, 2, 3, …
    let mut k = 1usize;
    let mut consumed = 0usize;
    while consumed + k <= pass {
        consumed += k;
        k += 1;
    }
    let step_in_group = pass - consumed; // 0-based within the group
    let block = 1usize << k;
    let distance = block >> (1 + step_in_group);
    (block, distance)
}

/// The role of element `i` in the `pass`-th step of the bitonic sorting
/// network of size `n` (ascending overall).
fn bitonic_role(n: usize, pass: usize, i: usize) -> Role {
    let (block, distance) = pass_parameters(pass);
    debug_assert!(block <= n);
    let partner = i ^ distance;
    if partner >= n {
        return Role::Copy;
    }
    // The block's sort direction alternates so that pairs of sorted blocks
    // form bitonic sequences for the next block size.
    let ascending = (i & block) == 0;
    if (i < partner) == ascending {
        Role::KeepMin { partner }
    } else {
        Role::KeepMax { partner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::default_processor;
    use workloads::Distribution;

    #[test]
    fn pass_parameters_follow_the_standard_schedule() {
        // n = 8: passes (block, distance) =
        // (2,1), (4,2), (4,1), (8,4), (8,2), (8,1)
        let expected = [(2, 1), (4, 2), (4, 1), (8, 4), (8, 2), (8, 1)];
        for (pass, &e) in expected.iter().enumerate() {
            assert_eq!(pass_parameters(pass), e, "pass {pass}");
        }
        assert_eq!(GpuSortBaseline::passes_for(8), 6);
        assert_eq!(GpuSortBaseline::passes_for(1 << 20), 210);
    }

    #[test]
    fn sorts_random_inputs_of_various_sizes() {
        for &n in &[2usize, 4, 16, 100, 1000, 4096] {
            let input = workloads::uniform(n, n as u64);
            let mut proc = default_processor();
            let run = GpuSortBaseline::new().sort(&mut proc, &input).unwrap();
            let mut expected = input.clone();
            expected.sort();
            assert_eq!(run.output, expected, "n={n}");
        }
    }

    #[test]
    fn sorts_adversarial_distributions() {
        for dist in Distribution::all_for_data_dependence() {
            let input = workloads::generate(dist, 512, 3);
            let mut proc = default_processor();
            let run = GpuSortBaseline::new().sort(&mut proc, &input).unwrap();
            let mut expected = input.clone();
            expected.sort();
            assert_eq!(run.output, expected, "{}", dist.name());
        }
    }

    #[test]
    fn work_is_n_log_squared_n() {
        let n = 4096usize;
        let input = workloads::uniform(n, 1);
        let mut proc = default_processor();
        let run = GpuSortBaseline::new().sort(&mut proc, &input).unwrap();
        let log_n = 12u64;
        // Every pass compares every element once (n/2 comparator pairs →
        // n per-element comparisons in our per-output-element counting).
        assert_eq!(run.passes as u64, log_n * (log_n + 1) / 2);
        assert_eq!(run.counters.comparisons, run.passes as u64 * n as u64);
    }

    #[test]
    fn comparison_count_is_data_independent() {
        let n = 2048;
        let mut counts = std::collections::HashSet::new();
        for dist in Distribution::all_for_data_dependence() {
            let input = workloads::generate(dist, n, 5);
            let mut proc = default_processor();
            let run = GpuSortBaseline::new().sort(&mut proc, &input).unwrap();
            counts.insert(run.counters.comparisons);
        }
        assert_eq!(counts.len(), 1);
    }

    #[test]
    fn row_wise_variant_sorts_but_reads_more_memory() {
        // Large enough that the working set exceeds the simulated texture
        // cache, so the layout difference shows up in the read traffic.
        let n = 1 << 16;
        let input = workloads::uniform(n, 9);
        let mut proc = default_processor();
        let z = GpuSortBaseline::new().sort(&mut proc, &input).unwrap();
        let mut proc = default_processor();
        let row = GpuSortBaseline::row_wise(2048)
            .sort(&mut proc, &input)
            .unwrap();
        assert_eq!(z.output, row.output);
        assert!(z.counters.bytes_read <= row.counters.bytes_read);
    }
}
