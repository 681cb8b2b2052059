//! Cross-crate integration tests: every sorter in the repository produces
//! the same (correct) result on the same inputs, on both simulated GPU
//! profiles.

use gpu_abisort::prelude::*;

fn std_sorted(values: &[Value]) -> Vec<Value> {
    let mut v = values.to_vec();
    v.sort();
    v
}

#[test]
fn all_sorters_agree_on_uniform_input() {
    let n = 3000;
    let input = workloads::uniform(n, 99);
    let expected = std_sorted(&input);

    // Sequential adaptive bitonic sort.
    assert_eq!(adaptive_bitonic_sort(&input), expected);

    // GPU-ABiSort on both profiles and both layouts.
    for profile in [GpuProfile::geforce_6800(), GpuProfile::geforce_7800()] {
        for config in [SortConfig::z_order(), SortConfig::row_wise(2048)] {
            let mut gpu = StreamProcessor::new(profile.clone());
            let out = GpuAbiSorter::new(config).sort(&mut gpu, &input).unwrap();
            assert_eq!(out, expected, "{} / {}", profile.name, config.describe());
        }
    }

    // Baselines.
    let (cpu_out, _) = CpuSorter.sort(&input);
    assert_eq!(cpu_out, expected);
    let mut gpu = StreamProcessor::new(GpuProfile::geforce_7800());
    assert_eq!(
        GpuSortBaseline::new()
            .sort(&mut gpu, &input)
            .unwrap()
            .output,
        expected
    );
    let mut gpu = StreamProcessor::new(GpuProfile::geforce_7800());
    assert_eq!(
        OddEvenMergeSort::new()
            .sort(&mut gpu, &input)
            .unwrap()
            .output,
        expected
    );
    let mut gpu = StreamProcessor::new(GpuProfile::geforce_7800());
    assert_eq!(
        PeriodicBalancedSort::new()
            .sort(&mut gpu, &input)
            .unwrap()
            .output,
        expected
    );
}

#[test]
fn all_sorters_agree_on_every_distribution() {
    for dist in Distribution::all_for_data_dependence() {
        let input = workloads::generate(dist, 777, 5);
        let expected = std_sorted(&input);
        let mut gpu = StreamProcessor::new(GpuProfile::geforce_6800());
        let abisort_out = GpuAbiSorter::new(SortConfig::default())
            .sort(&mut gpu, &input)
            .unwrap();
        assert_eq!(abisort_out, expected, "GPU-ABiSort on {}", dist.name());
        let mut gpu = StreamProcessor::new(GpuProfile::geforce_6800());
        let gpusort_out = GpuSortBaseline::new()
            .sort(&mut gpu, &input)
            .unwrap()
            .output;
        assert_eq!(gpusort_out, expected, "GPUSort on {}", dist.name());
    }
}

#[test]
fn gpu_abisort_beats_the_network_sorter_in_stream_operations_and_work() {
    // The asymptotic argument of the paper: O(n log n) adaptive work vs
    // O(n log² n) network work, O(log² n) vs O(log² n)·… stream operations.
    let n = 1 << 14;
    let input = workloads::uniform(n, 31);

    let mut gpu = StreamProcessor::new(GpuProfile::geforce_7800());
    let abisort_run = GpuAbiSorter::new(SortConfig::default())
        .sort_run(&mut gpu, &input)
        .unwrap();

    let mut gpu = StreamProcessor::new(GpuProfile::geforce_7800());
    let gpusort_run = GpuSortBaseline::new().sort(&mut gpu, &input).unwrap();

    assert!(
        abisort_run.counters.comparisons < gpusort_run.counters.comparisons / 2,
        "adaptive work {} should be well below network work {}",
        abisort_run.counters.comparisons,
        gpusort_run.counters.comparisons
    );
}

#[test]
fn record_table_pipeline_round_trips() {
    use workloads::records::RecordTable;
    let table = RecordTable::generate(5000, 8);
    let keys = table.sort_keys();
    let mut gpu = StreamProcessor::new(GpuProfile::geforce_7800());
    let sorted = GpuAbiSorter::new(SortConfig::default())
        .sort(&mut gpu, &keys)
        .unwrap();
    let reordered = table.reorder(&sorted);
    assert!(reordered.windows(2).all(|w| w[0].key <= w[1].key));
    assert_eq!(reordered.len(), table.len());
}

#[test]
fn simulated_tables_preserve_the_papers_ordering_at_moderate_n() {
    // A miniature Table 2/3 shape check at n = 2^15 (the smallest row of
    // the paper's tables): ABiSort(Z-order) < ABiSort(row-wise) and
    // ABiSort(Z-order) < CPU sort.
    let n = 1 << 15;
    let input = workloads::uniform(n, 2);

    let mut gpu = StreamProcessor::new(GpuProfile::geforce_6800());
    let z = GpuAbiSorter::new(SortConfig::z_order())
        .sort_run(&mut gpu, &input)
        .unwrap();
    let mut gpu = StreamProcessor::new(GpuProfile::geforce_6800());
    let row = GpuAbiSorter::new(SortConfig::row_wise(2048))
        .sort_run(&mut gpu, &input)
        .unwrap();
    let (_, cpu_stats) = CpuSorter.sort(&input);
    let cpu_ms = baselines::CpuSortModel::athlon_xp_3000().time_ms(&cpu_stats);

    assert!(z.sim_time.total_ms < row.sim_time.total_ms);
    assert!(z.sim_time.total_ms < cpu_ms);
}
