//! Rank-based parallel merge sort (CREW).
//!
//! The textbook way to get an `O(log² n)`-time PRAM merge sort: at every
//! level, runs of length `m` are merged pairwise by giving one processor to
//! each element, which computes the element's *rank* in the sibling run by
//! binary search and writes the element directly to its final position of
//! the merged run.
//!
//! This algorithm is time-optimal per level but
//!
//! * performs `Θ(n log n)` comparisons **per level** — `Θ(n log² n)` in
//!   total, asymptotically more than adaptive bitonic sorting's
//!   `< 2 n log n`;
//! * needs **concurrent reads**: the binary searches of many processors
//!   probe the same cells of the sibling run, so it is a CREW algorithm,
//!   not an EREW one.
//!
//! It stands in for the Section-2.1 observation that the known
//! asymptotically optimal PRAM sorts (AKS, Cole) are "not fast in practice"
//! — the simple optimal-time alternative shown here pays a full extra
//! `log n` factor of work and a stronger memory model, which is exactly the
//! gap adaptive bitonic sorting closes. (Cole's pipelined merge sort itself
//! is not implemented; DESIGN.md records the substitution.)

use super::SortRun;
use crate::error::Result;
use crate::machine::{Pram, PramModel, ProcCtx};
use stream_arch::Value;

/// Sort `values` ascending with the rank-based parallel merge sort.
///
/// Uses one processor per element and one PRAM step per merge level (each
/// processor performs its whole binary search within the step; the step
/// duration is the maximum number of accesses, i.e. `Θ(log m)`).
pub fn sort(values: &[Value]) -> Result<SortRun> {
    SortRun::padded(values, PramModel::Crew, |padded| {
        let n = padded.len();

        // Double-buffered shared memory: [0, n) is the source, [n, 2n) the
        // destination of the current level; the roles swap every level.
        let mut mem = padded;
        mem.resize(2 * n, Value::default());
        let mut pram: Pram<Value> = Pram::from_vec(mem, PramModel::Crew);

        let mut src = 0usize;
        let mut dst = n;
        let mut run = 1usize;
        while run < n {
            pram.step(n, |i, ctx| {
                merge_task(ctx, i, src, dst, run);
            })?;
            std::mem::swap(&mut src, &mut dst);
            run *= 2;
        }

        let stats = pram.take_stats();
        Ok((pram.memory()[src..src + n].to_vec(), stats))
    })
}

/// One processor of one merge level: element `i` of the source buffer finds
/// its position in the merged output and writes itself there.
fn merge_task(ctx: &mut ProcCtx<'_, Value>, i: usize, src: usize, dst: usize, run: usize) {
    let value = ctx.read(src + i);
    let pair_base = i & !(2 * run - 1); // start of the pair of runs containing i
    let in_first_run = i & run == 0;
    let own_offset = i & (run - 1);
    let sibling_base = if in_first_run {
        pair_base + run
    } else {
        pair_base
    };

    // Rank of `value` in the sibling run. Elements of the first run use a
    // strict rank (number of sibling elements < value), elements of the
    // second run a non-strict rank (<= value); together with distinct values
    // this makes all output positions unique.
    let rank = binary_rank(ctx, src + sibling_base, run, &value, in_first_run);
    ctx.write(dst + pair_base + own_offset + rank, value);
}

/// Number of elements of the sorted run `[base, base + len)` that compare
/// before `value`. `strict` selects `<` (lower bound) versus `<=` (upper
/// bound).
fn binary_rank(
    ctx: &mut ProcCtx<'_, Value>,
    base: usize,
    len: usize,
    value: &Value,
    strict: bool,
) -> usize {
    let mut lo = 0usize;
    let mut hi = len;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let probe = ctx.read(base + mid);
        ctx.charge_comparison();
        let before = if strict {
            probe.lt(value)
        } else {
            !probe.gt(value)
        };
        if before {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorters::tests::assert_sorted_permutation;

    #[test]
    fn sorts_random_inputs() {
        for log_n in 1..=10u32 {
            let n = 1usize << log_n;
            let input = workloads::uniform(n, 40 + log_n as u64);
            let run = sort(&input).unwrap();
            assert_sorted_permutation(&input, &run.output);
        }
    }

    #[test]
    fn needs_concurrent_reads() {
        // The binary searches of different processors probe common cells:
        // the algorithm is CREW, not EREW — the contrast to adaptive bitonic
        // sorting the crate documentation points out.
        let input = workloads::uniform(256, 3);
        let run = sort(&input).unwrap();
        assert_eq!(run.model, PramModel::Crew);
        assert!(run.stats.read_conflicts > 0, "expected concurrent reads");
        assert_eq!(run.stats.write_conflicts, 0);
    }

    #[test]
    fn uses_one_step_per_merge_level() {
        let n = 1usize << 9;
        let input = workloads::uniform(n, 5);
        let run = sort(&input).unwrap();
        assert_eq!(run.stats.num_steps(), 9);
        assert_eq!(run.stats.max_processors(), n as u64);
    }

    #[test]
    fn performs_asymptotically_more_comparisons_than_adaptive_bitonic_sorting() {
        let n = 1usize << 12;
        let input = workloads::uniform(n, 17);
        let rank_run = sort(&input).unwrap();
        let (_, seq_stats) = abisort::sequential::adaptive_bitonic_sort_with(
            &input,
            abisort::MergeVariant::Simplified,
        );
        // Θ(n log² n) vs < 2 n log n: at n = 4096 the rank-based sort already
        // performs several times more comparisons.
        assert!(
            rank_run.stats.comparisons() > 2 * seq_stats.comparisons,
            "rank merge {} vs adaptive {}",
            rank_run.stats.comparisons(),
            seq_stats.comparisons
        );
    }

    #[test]
    fn parallel_time_is_polylogarithmic() {
        let n = 1usize << 12;
        let input = workloads::uniform(n, 23);
        let run = sort(&input).unwrap();
        let log_n = 12u64;
        // Each level costs Θ(log run) accesses; the total is O(log² n).
        assert!(run.stats.parallel_time() <= 4 * log_n * log_n);
    }

    #[test]
    fn binary_rank_matches_linear_scan() {
        let sorted: Vec<Value> = (0..16).map(|i| Value::new((i * 2) as f32, i)).collect();
        let mut pram: Pram<Value> = Pram::from_vec(sorted.clone(), PramModel::Crew);
        for probe_key in [-1.0f32, 0.0, 3.0, 14.0, 31.0, 99.0] {
            let probe = Value::new(probe_key, 1000);
            let expected_strict = sorted.iter().filter(|v| (*v).lt(&probe)).count();
            let expected_loose = sorted.iter().filter(|v| !(*v).gt(&probe)).count();
            let got = pram
                .step_map(1, |_, ctx| {
                    (
                        binary_rank(ctx, 0, 16, &probe, true),
                        binary_rank(ctx, 0, 16, &probe, false),
                    )
                })
                .unwrap()[0];
            assert_eq!(got, (expected_strict, expected_loose), "key {probe_key}");
        }
    }

    #[test]
    fn sorts_adversarial_distributions() {
        use workloads::Distribution;
        for dist in [
            Distribution::Sorted,
            Distribution::Reverse,
            Distribution::OrganPipe,
            Distribution::FewDistinct { distinct: 3 },
        ] {
            let input = workloads::generate(dist, 300, 29);
            let run = sort(&input).unwrap();
            assert_sorted_permutation(&input, &run.output);
        }
    }
}
