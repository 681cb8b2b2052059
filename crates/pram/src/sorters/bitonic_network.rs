//! Batcher's bitonic sorting network on the PRAM (EREW).
//!
//! This is the algorithm family *all previous GPU sorts* in the paper's
//! related work are based on (Section 2.2). On a PRAM with `n/2` processors
//! it runs in `log n (log n + 1) / 2` compare-exchange steps, i.e.
//! `O(log² n)` time — the same parallel time as adaptive bitonic sorting —
//! but performs `Θ(n log² n)` comparisons, which is the non-optimal work the
//! paper's contribution removes.
//!
//! The network is the one the stream-machine baseline runs:
//! [`GpuSortBaseline::passes_for`] steps of [`bitonic_role`], executed by
//! [`run_network`].

use super::{run_network, SortRun};
use crate::error::Result;
use baselines::gpusort::bitonic_role;
use baselines::GpuSortBaseline;
use stream_arch::Value;

/// Sort `values` ascending with Batcher's bitonic network, one PRAM step per
/// network stage with `n/2` compare-exchange processors.
pub fn sort(values: &[Value]) -> Result<SortRun> {
    run_network(values, GpuSortBaseline::passes_for, bitonic_role)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_step_runs_n_half_comparators() {
        let n = 1usize << 9;
        let input = workloads::uniform(n, 5);
        let run = sort(&input).unwrap();
        let steps = GpuSortBaseline::passes_for(n) as u64;
        assert_eq!(run.stats.comparisons(), steps * (n as u64 / 2));
        assert_eq!(run.stats.max_processors(), n as u64 / 2);
    }
}
