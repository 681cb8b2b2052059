//! The experiment implementations.
//!
//! All experiments report *simulated* times from the calibrated
//! [`stream_arch::GpuProfile`] cost model (plus the CPU model of
//! [`baselines::CpuSortModel`]); host wall-clock time is measured by the
//! repository benchmark (`perfbench/`). Absolute numbers are properties of
//! the simulator — what must match the paper is the *shape*: who wins, by
//! roughly what factor, and how the gaps scale with `n` and `p`.

use abisort::{GpuAbiSorter, SortConfig};
use baselines::{CpuSortModel, CpuSorter, GpuSortBaseline};
use serde::Serialize;
use stream_arch::{Counters, GpuProfile, StreamProcessor, TransferModel, Value};
use workloads::Distribution;

/// Number of differently-seeded uniform inputs used to produce the CPU
/// timing ranges of Tables 2 and 3.
const CPU_RANGE_SEEDS: u64 = 5;

fn check_sorted(label: &str, input: &[Value], output: &[Value]) {
    abisort::verify::check_sorts(input, output)
        .unwrap_or_else(|e| panic!("{label}: incorrect sort result: {e}"));
}

/// One row of Table 2 or Table 3.
#[derive(Clone, Debug, Serialize)]
pub struct TimingRow {
    /// Sequence length `n`.
    pub n: usize,
    /// CPU quicksort time range (min, max) over several random inputs, ms.
    pub cpu_ms: (f64, f64),
    /// GPUSort (bitonic sorting network) simulated time, ms.
    pub gpusort_ms: f64,
    /// GPU-ABiSort with the row-wise layout (variant a), ms. `None` for
    /// Table 3, which the paper reports only with the Z-order layout.
    pub abisort_rowwise_ms: Option<f64>,
    /// GPU-ABiSort with the Z-order layout (variant b), ms.
    pub abisort_zorder_ms: f64,
}

/// The sequence lengths of the paper's tables, optionally capped for quick
/// runs; a cap of 2^64 or more caps nothing.
pub fn table_lengths(max_log_n: u32) -> Vec<usize> {
    workloads::paper_sequence_lengths()
        .into_iter()
        .filter(|&n| 1usize.checked_shl(max_log_n).is_none_or(|cap| n <= cap))
        .collect()
}

fn cpu_range(model: &CpuSortModel, n: usize) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    for seed in 0..CPU_RANGE_SEEDS {
        let input = workloads::uniform(n, 1000 + seed);
        let (out, stats) = CpuSorter.sort(&input);
        check_sorted("cpu", &input, &out);
        let ms = model.time_ms(&stats);
        min = min.min(ms);
        max = max.max(ms);
    }
    (min, max)
}

fn abisort_ms(profile: &GpuProfile, config: SortConfig, input: &[Value]) -> f64 {
    let mut proc = StreamProcessor::new(profile.clone());
    let run = GpuAbiSorter::new(config)
        .sort_run(&mut proc, input)
        .expect("GPU-ABiSort failed");
    check_sorted("gpu-abisort", input, &run.output);
    run.sim_time.total_ms
}

fn gpusort_ms(profile: &GpuProfile, input: &[Value]) -> f64 {
    let mut proc = StreamProcessor::new(profile.clone());
    let run = GpuSortBaseline::new()
        .sort(&mut proc, input)
        .expect("GPUSort failed");
    check_sorted("gpusort", input, &run.output);
    run.sim_time.total_ms
}

/// E8 — Table 2: the GeForce 6800 / Athlon-XP system, comparing the CPU
/// sort, GPUSort and GPU-ABiSort with both 1D→2D mappings.
pub fn table2_geforce_6800(max_log_n: u32) -> Vec<TimingRow> {
    let profile = GpuProfile::geforce_6800();
    let cpu_model = CpuSortModel::athlon_xp_3000();
    table_lengths(max_log_n)
        .into_iter()
        .map(|n| {
            let input = workloads::uniform(n, 42);
            TimingRow {
                n,
                cpu_ms: cpu_range(&cpu_model, n),
                gpusort_ms: gpusort_ms(&profile, &input),
                abisort_rowwise_ms: Some(abisort_ms(&profile, SortConfig::row_wise(2048), &input)),
                abisort_zorder_ms: abisort_ms(&profile, SortConfig::z_order(), &input),
            }
        })
        .collect()
}

/// E9 — Table 3: the GeForce 7800 / Athlon-64 system (Z-order mapping
/// only, as in the paper).
pub fn table3_geforce_7800(max_log_n: u32) -> Vec<TimingRow> {
    let profile = GpuProfile::geforce_7800();
    let cpu_model = CpuSortModel::athlon_64_4200();
    table_lengths(max_log_n)
        .into_iter()
        .map(|n| {
            let input = workloads::uniform(n, 42);
            TimingRow {
                n,
                cpu_ms: cpu_range(&cpu_model, n),
                gpusort_ms: gpusort_ms(&profile, &input),
                abisort_rowwise_ms: None,
                abisort_zorder_ms: abisort_ms(&profile, SortConfig::z_order(), &input),
            }
        })
        .collect()
}

/// One row of the data-dependence experiment (E10).
#[derive(Clone, Debug, Serialize)]
pub struct DataDependenceRow {
    /// Input distribution name.
    pub distribution: String,
    /// CPU quicksort simulated time, ms.
    pub cpu_ms: f64,
    /// CPU quicksort comparison count.
    pub cpu_comparisons: u64,
    /// GPU-ABiSort simulated time, ms.
    pub abisort_ms: f64,
    /// GPU-ABiSort comparison count.
    pub abisort_comparisons: u64,
}

/// E10 — Section 8's observation that the CPU sort's time is data
/// dependent while GPU-ABiSort's is not.
pub fn data_dependence(n: usize) -> Vec<DataDependenceRow> {
    let cpu_model = CpuSortModel::athlon_64_4200();
    let profile = GpuProfile::geforce_7800();
    Distribution::all_for_data_dependence()
        .into_iter()
        .map(|dist| {
            let input = workloads::generate(dist, n, 7);
            let (cpu_out, cpu_stats) = CpuSorter.sort(&input);
            check_sorted("cpu", &input, &cpu_out);
            let mut proc = StreamProcessor::new(profile.clone());
            let run = GpuAbiSorter::new(SortConfig::default())
                .sort_run(&mut proc, &input)
                .unwrap();
            check_sorted("gpu-abisort", &input, &run.output);
            DataDependenceRow {
                distribution: dist.name(),
                cpu_ms: cpu_model.time_ms(&cpu_stats),
                cpu_comparisons: cpu_stats.comparisons,
                abisort_ms: run.sim_time.total_ms,
                abisort_comparisons: run.counters.comparisons,
            }
        })
        .collect()
}

/// One row of the transfer-overhead experiment (E11).
#[derive(Clone, Debug, Serialize)]
pub struct TransferRow {
    /// Bus name.
    pub bus: String,
    /// Upload time for n pairs, ms.
    pub upload_ms: f64,
    /// Readback time for n pairs, ms.
    pub readback_ms: f64,
    /// Round trip, ms.
    pub round_trip_ms: f64,
    /// GPU-ABiSort time for the same n (for comparison), ms.
    pub sort_ms: f64,
}

/// E11 — Section 8's transfer-overhead figures (~100 ms AGP, ~20 ms PCIe
/// for 2²⁰ pairs).
pub fn transfer_overhead(n: usize) -> Vec<TransferRow> {
    let input = workloads::uniform(n, 3);
    [
        (
            stream_arch::BusKind::Agp8x,
            GpuProfile::geforce_6800(),
            "AGP 8x (GeForce 6800 system)",
        ),
        (
            stream_arch::BusKind::PciExpressX16,
            GpuProfile::geforce_7800(),
            "PCI Express x16 (GeForce 7800 system)",
        ),
    ]
    .into_iter()
    .map(|(bus, profile, name)| {
        let model = TransferModel::new(bus);
        TransferRow {
            bus: name.to_string(),
            upload_ms: model.upload_ms(n, 8),
            readback_ms: model.readback_ms(n, 8),
            round_trip_ms: model.round_trip_ms(n, 8),
            sort_ms: abisort_ms(&profile, SortConfig::z_order(), &input),
        }
    })
    .collect()
}

/// One row of the stream-operation-count experiment (E12).
#[derive(Clone, Debug, Serialize)]
pub struct StreamOpsRow {
    /// Sequence length.
    pub n: usize,
    /// log₂ n.
    pub log_n: u32,
    /// Steps of the sequential-phase variant (O(log³ n)).
    pub sequential_phase_steps: u64,
    /// Steps of the overlapped variant (O(log² n)).
    pub overlapped_steps: u64,
    /// Steps of the fully optimized variant (Section 7).
    pub optimized_steps: u64,
    /// The analytic O(log³ n) phase count of Section 5.3.
    pub analytic_phases: u64,
    /// The analytic O(log² n) step count of Section 5.4.
    pub analytic_steps: u64,
}

/// E12 — stream-operation counts: measured steps of the three variants
/// against the analytic `½j²+½j` / `2j−1` per-level formulas.
pub fn stream_operation_counts(log_ns: &[u32]) -> Vec<StreamOpsRow> {
    log_ns
        .iter()
        .map(|&log_n| {
            let n = 1usize << log_n;
            let input = workloads::uniform(n, 5);
            let steps = |config: SortConfig| -> u64 {
                let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
                let run = GpuAbiSorter::new(config)
                    .sort_run(&mut proc, &input)
                    .unwrap();
                check_sorted("gpu-abisort", &input, &run.output);
                run.counters.steps
            };
            StreamOpsRow {
                n,
                log_n,
                sequential_phase_steps: steps(SortConfig::unoptimized()),
                overlapped_steps: steps(SortConfig::unoptimized().with_overlapped_steps(true)),
                optimized_steps: steps(SortConfig::default()),
                analytic_phases: abisort::stream_sort::layout_plan::total_phases(log_n),
                analytic_steps: abisort::stream_sort::layout_plan::total_steps(log_n),
            }
        })
        .collect()
}

/// One row of the work-complexity experiment (E13).
#[derive(Clone, Debug, Serialize)]
pub struct WorkRow {
    /// Sequence length.
    pub n: usize,
    /// Comparisons of the sequential adaptive bitonic sort.
    pub sequential_abisort: u64,
    /// Comparisons of GPU-ABiSort (unoptimized stream variant).
    pub stream_abisort: u64,
    /// Comparisons of the bitonic sorting network (GPUSort).
    pub gpusort: u64,
    /// Comparisons of the odd-even merge sort network.
    pub oems: u64,
    /// Comparisons of the periodic balanced sorting network.
    pub pbsn: u64,
    /// Comparisons of the CPU quicksort (uniform input).
    pub cpu_quicksort: u64,
    /// The paper's 2·n·log n bound for the adaptive bitonic sort.
    pub bound_2n_log_n: u64,
}

/// E13 — total work (comparisons): adaptive `O(n log n)` versus network
/// `O(n log² n)`, with the `< 2 n log n` bound of Section 2.1.
pub fn work_complexity(log_ns: &[u32]) -> Vec<WorkRow> {
    log_ns
        .iter()
        .map(|&log_n| {
            let n = 1usize << log_n;
            let input = workloads::uniform(n, 9);
            let (_, seq_stats) = abisort::sequential::adaptive_bitonic_sort_with(
                &input,
                abisort::MergeVariant::Simplified,
            );
            let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
            let stream_run = GpuAbiSorter::new(SortConfig::unoptimized())
                .sort_run(&mut proc, &input)
                .unwrap();
            let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
            let gpusort = GpuSortBaseline::new().sort(&mut proc, &input).unwrap();
            let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
            let oems = baselines::OddEvenMergeSort::new()
                .sort(&mut proc, &input)
                .unwrap();
            let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
            let pbsn = baselines::PeriodicBalancedSort::new()
                .sort(&mut proc, &input)
                .unwrap();
            let (_, cpu_stats) = CpuSorter.sort(&input);
            WorkRow {
                n,
                sequential_abisort: seq_stats.comparisons,
                stream_abisort: stream_run.counters.comparisons,
                gpusort: gpusort.counters.comparisons,
                oems: oems.counters.comparisons,
                pbsn: pbsn.counters.comparisons,
                cpu_quicksort: cpu_stats.comparisons,
                bound_2n_log_n: 2 * n as u64 * log_n as u64,
            }
        })
        .collect()
}

/// One row of the p-scaling experiment (E14).
#[derive(Clone, Debug, Serialize)]
pub struct ScalingRow {
    /// Number of stream processor units.
    pub units: usize,
    /// Simulated time with multi-block substream support, ms.
    pub multi_block_ms: f64,
    /// Simulated time without multi-block substreams (per-launch overhead),
    /// ms.
    pub single_block_ms: f64,
    /// Speed-up over one unit (multi-block variant).
    pub speedup: f64,
}

/// E14 — scalability with the number of stream processor units `p` at a
/// fixed problem size.
///
/// Uses the *idealized* stream-machine profile (high memory bandwidth, no
/// GPU-specific quirks) because the claim under test is the algorithm's
/// scalability with `p`, not the memory wall of one particular 2005 board —
/// on the GeForce profiles the speed-up saturates early simply because the
/// simulated memory bandwidth does not grow with `p`.
pub fn scaling_with_units(n: usize, units: &[usize]) -> Vec<ScalingRow> {
    let input = workloads::uniform(n, 11);
    let run_with = |profile: GpuProfile| -> (f64, Counters) {
        let mut proc = StreamProcessor::new(profile);
        let run = GpuAbiSorter::new(SortConfig::default())
            .sort_run(&mut proc, &input)
            .unwrap();
        (run.sim_time.total_ms, run.counters)
    };
    let (base_ms, _) = run_with(GpuProfile::idealized(1));
    units
        .iter()
        .map(|&p| {
            let (multi_ms, _) = run_with(GpuProfile::idealized(p));
            let (single_ms, _) = run_with(GpuProfile::idealized(p).with_multi_block(false));
            ScalingRow {
                units: p,
                multi_block_ms: multi_ms,
                single_block_ms: single_ms,
                speedup: base_ms / multi_ms,
            }
        })
        .collect()
}

/// One row of the ablation experiment (E15).
#[derive(Clone, Debug, Serialize)]
pub struct AblationRow {
    /// Configuration description.
    pub config: String,
    /// Simulated time, ms.
    pub sim_ms: f64,
    /// Stream operations (steps).
    pub steps: u64,
    /// Comparisons.
    pub comparisons: u64,
    /// Texture cache hit rate.
    pub cache_hit_rate: f64,
}

/// E15 — ablation over the design choices: layout, overlapped stages, and
/// the two Section 7 optimizations.
pub fn ablation(n: usize) -> Vec<AblationRow> {
    let input = workloads::uniform(n, 13);
    let configs: Vec<(String, SortConfig)> = vec![
        (
            "baseline (row-wise, sequential phases, no opts)".into(),
            SortConfig::unoptimized().with_layout(abisort::LayoutChoice::RowWise { width: 2048 }),
        ),
        ("+ z-order layout".into(), SortConfig::unoptimized()),
        (
            "+ overlapped stages".into(),
            SortConfig::unoptimized().with_overlapped_steps(true),
        ),
        (
            "+ local sort (Section 7.1)".into(),
            SortConfig::unoptimized()
                .with_overlapped_steps(true)
                .with_local_sort(true),
        ),
        (
            "+ fixed merge (Section 7.2) = full GPU-ABiSort".into(),
            SortConfig::default(),
        ),
    ];
    configs
        .into_iter()
        .map(|(name, config)| {
            let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
            let run = GpuAbiSorter::new(config)
                .sort_run(&mut proc, &input)
                .unwrap();
            check_sorted(&name, &input, &run.output);
            AblationRow {
                config: name,
                sim_ms: run.sim_time.total_ms,
                steps: run.counters.steps,
                comparisons: run.counters.comparisons,
                cache_hit_rate: run.counters.cache.hit_rate(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_small_scale_has_the_papers_shape() {
        // At reduced n the orderings the paper reports must already hold:
        // z-order ABiSort beats row-wise ABiSort and the CPU sort.
        let rows = table2_geforce_6800(15);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.abisort_zorder_ms < row.abisort_rowwise_ms.unwrap());
        assert!(row.abisort_zorder_ms < row.cpu_ms.0);
        assert!(row.cpu_ms.0 <= row.cpu_ms.1);
    }

    #[test]
    fn a_cap_past_the_word_size_keeps_every_length() {
        assert_eq!(table_lengths(64), workloads::paper_sequence_lengths());
        assert_eq!(table_lengths(u32::MAX), workloads::paper_sequence_lengths());
    }

    #[test]
    fn data_dependence_shows_constant_abisort_and_varying_cpu() {
        let rows = data_dependence(1 << 12);
        let abisort_counts: std::collections::HashSet<u64> =
            rows.iter().map(|r| r.abisort_comparisons).collect();
        assert_eq!(abisort_counts.len(), 1);
        let cpu_counts: std::collections::HashSet<u64> =
            rows.iter().map(|r| r.cpu_comparisons).collect();
        assert!(cpu_counts.len() > 1);
    }

    #[test]
    fn stream_op_counts_match_the_analytic_formulas() {
        let rows = stream_operation_counts(&[8, 10]);
        for row in rows {
            assert!(row.overlapped_steps < row.sequential_phase_steps);
            assert!(row.optimized_steps < row.overlapped_steps);
            // The unoptimized variants add one extract step and one commit
            // step per level on top of the analytic per-level counts.
            let levels = row.log_n as u64;
            assert_eq!(row.sequential_phase_steps, row.analytic_phases + 2 * levels);
            assert_eq!(row.overlapped_steps, row.analytic_steps + 2 * levels);
        }
    }

    #[test]
    fn work_complexity_orders_adaptive_below_networks() {
        let rows = work_complexity(&[10, 12]);
        for row in rows {
            assert!(row.sequential_abisort < row.bound_2n_log_n);
            assert!(row.stream_abisort < row.bound_2n_log_n);
            assert!(row.stream_abisort < row.gpusort);
            assert!(row.oems <= row.gpusort);
            assert!(row.gpusort <= row.pbsn);
        }
    }

    #[test]
    fn scaling_improves_with_more_units_then_saturates() {
        let rows = scaling_with_units(1 << 12, &[1, 4, 16, 64]);
        assert!(rows[1].speedup > 1.5);
        assert!(rows[2].speedup > rows[1].speedup);
        // Multi-block substreams never hurt.
        for row in &rows {
            assert!(row.multi_block_ms <= row.single_block_ms + 1e-9);
        }
    }

    #[test]
    fn ablation_improves_monotonically_in_simulated_time() {
        let rows = ablation(1 << 13);
        assert_eq!(rows.len(), 5);
        for pair in rows.windows(2) {
            assert!(
                pair[1].sim_ms <= pair[0].sim_ms * 1.05,
                "{} ({:.2} ms) should not be slower than {} ({:.2} ms)",
                pair[1].config,
                pair[1].sim_ms,
                pair[0].config,
                pair[0].sim_ms
            );
        }
    }

    #[test]
    fn transfer_overhead_reproduces_the_paper_figures() {
        let rows = transfer_overhead(1 << 20);
        assert!(rows[0].round_trip_ms > 70.0 && rows[0].round_trip_ms < 140.0);
        assert!(rows[1].round_trip_ms > 12.0 && rows[1].round_trip_ms < 30.0);
    }
}
