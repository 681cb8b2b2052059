//! Cross-crate integration tests between the PRAM implementations
//! (Section 2.1's setting) and the sequential / stream implementations of
//! adaptive bitonic sorting and of Batcher's comparator networks.

mod fingerprints;

use gpu_abisort::baselines::network::{default_processor, NetworkRun};
use gpu_abisort::baselines::{GpuSortBaseline, OddEvenMergeSort};
use gpu_abisort::pram::sorters::{abisort_pram, bitonic_network, oem_network, rank_merge};
use gpu_abisort::pram::PramModel;
use gpu_abisort::prelude::*;

fn sorted_reference(input: &[Value]) -> Vec<Value> {
    let mut copy = input.to_vec();
    copy.sort();
    copy
}

#[test]
fn all_pram_sorters_agree_with_the_stream_sorter() {
    for (n, seed) in [(1usize << 10, 1u64), (3000, 2), (1 << 12, 3)] {
        let input = workloads::uniform(n, seed);
        let expected = sorted_reference(&input);

        let mut gpu = StreamProcessor::new(GpuProfile::geforce_7800());
        let stream_out = GpuAbiSorter::new(SortConfig::default())
            .sort(&mut gpu, &input)
            .expect("stream sort failed");
        assert_eq!(stream_out, expected, "stream sorter wrong at n={n}");

        for (name, output) in [
            ("pram-abisort", abisort_pram::sort(&input).unwrap().output),
            (
                "pram-bitonic",
                bitonic_network::sort(&input).unwrap().output,
            ),
            ("pram-odd-even", oem_network::sort(&input).unwrap().output),
            ("pram-rank-merge", rank_merge::sort(&input).unwrap().output),
        ] {
            assert_eq!(output, expected, "{name} wrong at n={n}");
        }
    }
}

/// The PRAM and the stream machine run the same comparator networks: one
/// PRAM step per stream pass, and one PRAM comparison per comparator where
/// the stream machine charges both of its ends.
#[test]
fn pram_and_stream_networks_take_the_same_steps_and_comparators() {
    type Stream = fn(&mut StreamProcessor, &[Value]) -> stream_arch::Result<NetworkRun>;
    type Pram = fn(&[Value]) -> gpu_abisort::pram::Result<gpu_abisort::pram::SortRun>;
    let networks: [(&str, Stream, Pram); 2] = [
        (
            "bitonic",
            |proc, input| GpuSortBaseline::new().sort(proc, input),
            bitonic_network::sort,
        ),
        (
            "odd-even",
            |proc, input| OddEvenMergeSort::new().sort(proc, input),
            oem_network::sort,
        ),
    ];
    let mut proc = default_processor();
    for (name, stream_sort, pram_sort) in networks {
        for n in [2usize, 37, 1024, 4097] {
            let input = workloads::uniform(n, n as u64);
            let stream = stream_sort(&mut proc, &input).unwrap();
            let pram = pram_sort(&input).unwrap();
            let expected = sorted_reference(&input);
            assert_eq!(stream.output, expected, "{name} n={n}");
            assert_eq!(pram.output, expected, "{name} n={n}");
            assert_eq!(pram.stats.num_steps(), stream.passes as u64, "{name} n={n}");
            assert_eq!(
                stream.counters.comparisons,
                2 * pram.stats.comparisons(),
                "{name} n={n}"
            );
        }
    }
}

#[test]
fn pram_and_stream_abisort_perform_identical_comparison_counts() {
    // The PRAM execution, the sequential reference and the stream program
    // are the same algorithm; only the machine differs.
    for log_n in [8u32, 10, 12] {
        let n = 1usize << log_n;
        let input = workloads::uniform(n, log_n as u64);

        let pram_run = abisort_pram::sort(&input).unwrap();
        let (_, seq_stats) = gpu_abisort::abisort::sequential::adaptive_bitonic_sort_with(
            &input,
            MergeVariant::Simplified,
        );
        assert_eq!(pram_run.stats.comparisons(), seq_stats.comparisons, "n={n}");

        // The *unoptimized* stream configuration also performs exactly these
        // comparisons (the Section-7 optimizations trade extra comparisons
        // for fewer stream operations, so the default config differs).
        let mut gpu = StreamProcessor::new(GpuProfile::geforce_7800());
        let run = GpuAbiSorter::new(SortConfig::unoptimized())
            .sort_run(&mut gpu, &input)
            .unwrap();
        assert_eq!(run.counters.comparisons, seq_stats.comparisons, "n={n}");
    }
}

#[test]
fn overlapped_schedules_match_between_pram_and_stream_machine() {
    // Section 5.4's claim: the overlapped schedule needs 2j−1 steps per
    // recursion level. On the PRAM this is the literal step count; on the
    // stream machine every step becomes one stream operation of the merge.
    for log_n in [6u32, 8, 10] {
        let n = 1usize << log_n;
        let pram_steps = abisort_pram::total_steps(n, abisort_pram::Schedule::Overlapped);
        assert_eq!(pram_steps, (log_n as u64).pow(2), "n={n}");
    }
}

#[test]
fn pram_abisort_is_erew_while_rank_merge_is_not() {
    let input = workloads::uniform(1 << 11, 9);
    let abi = abisort_pram::sort(&input).unwrap();
    assert_eq!(abi.model, PramModel::Erew);
    assert_eq!(abi.stats.conflicts(PramModel::Erew), 0);

    let rank = rank_merge::sort(&input).unwrap();
    assert_eq!(rank.model, PramModel::Crew);
    assert!(rank.stats.read_conflicts > 0);
}

#[test]
fn pram_work_ordering_matches_the_papers_related_work_table() {
    // Work (comparisons): adaptive bitonic < bitonic network, and the
    // network and rank-merge both carry the Θ(log n) surcharge.
    let n = 1usize << 12;
    let input = workloads::uniform(n, 5);
    let abi = abisort_pram::sort(&input).unwrap().stats.comparisons();
    let net = bitonic_network::sort(&input).unwrap().stats.comparisons();
    let rank = rank_merge::sort(&input).unwrap().stats.comparisons();
    assert!(abi < net);
    assert!(abi < rank);
    // And the adaptive sort respects its 2 n log n bound while the others
    // exceed it at this size.
    let bound = 2 * (n as u64) * 12;
    assert!(abi < bound);
    assert!(net > bound);
}

#[test]
fn brent_speedup_grows_until_the_processor_bound() {
    let n = 1usize << 12;
    let input = workloads::uniform(n, 13);
    let run = abisort_pram::sort(&input).unwrap();
    let s16 = run.stats.speedup(16);
    let s256 = run.stats.speedup(256);
    let s_unlimited = run.stats.speedup(u64::MAX / 2);
    assert!(s16 > 8.0, "speed-up with 16 processors too low: {s16}");
    assert!(s256 > s16);
    assert!(s_unlimited >= s256);
}

/// Every comparator-network run, on the stream machine and on the PRAM,
/// hashes to its line of `tests/golden_networks.txt`. On a mismatch the
/// actual file is printed in full.
#[test]
fn network_runs_match_the_committed_fingerprints() {
    let actual = fingerprints::render_networks(&fingerprints::network_lines());
    if actual != fingerprints::GOLDEN_NETWORKS {
        let changed = actual
            .lines()
            .zip(fingerprints::GOLDEN_NETWORKS.lines())
            .filter(|(a, g)| a != g)
            .count();
        panic!("{changed} line(s) differ from tests/golden_networks.txt; actual file:\n{actual}");
    }
}
