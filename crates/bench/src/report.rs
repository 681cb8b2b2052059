//! Table rendering and JSON reporting for the `repro` binary.

use crate::crashsoak::CrashSoakRow;
use crate::experiments::{
    AblationRow, DataDependenceRow, ScalingRow, StreamOpsRow, TimingRow, TransferRow, WorkRow,
};
use crate::extended::{PaddingRow, PramRow, TeraSortRow};
use crate::netsoak::NetSoakRow;
use crate::service::ServiceRow;
use crate::sharded::ShardedRow;
use crate::typed::TypedRow;
use serde::Serialize;

/// Host provenance of a report run.
///
/// Wall-clock rows (the E22/E23 soaks) are only comparable across runs on
/// the same machine class; the header records enough of the host (core
/// count, toolchain, platform, build profile) to judge whether two reports
/// are comparable.
#[derive(Clone, Debug, Default, Serialize)]
pub struct HostInfo {
    /// Available hardware parallelism (logical cores).
    pub cores: usize,
    /// `rustc --version` of the compiler that built the harness.
    pub rustc: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Cargo build profile the harness ran under (`debug` / `release`).
    pub profile: String,
}

impl HostInfo {
    /// Probe the current host.
    pub fn detect() -> Self {
        HostInfo {
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(0),
            rustc: env!("BENCH_RUSTC_VERSION").to_string(),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        }
    }
}

/// A collection of experiment results that can be rendered as text (the
/// paper-style tables) or serialized to JSON for EXPERIMENTS.md.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Report {
    /// Host the report was produced on (cores, rustc, platform).
    pub host: HostInfo,
    /// Table 2 rows (GeForce 6800 system), if run.
    pub table2: Vec<TimingRow>,
    /// Table 3 rows (GeForce 7800 system), if run.
    pub table3: Vec<TimingRow>,
    /// Data-dependence rows, if run.
    pub data_dependence: Vec<DataDependenceRow>,
    /// Transfer-overhead rows, if run.
    pub transfer: Vec<TransferRow>,
    /// Stream-operation-count rows, if run.
    pub stream_ops: Vec<StreamOpsRow>,
    /// Work-complexity rows, if run.
    pub work: Vec<WorkRow>,
    /// Scaling rows, if run.
    pub scaling: Vec<ScalingRow>,
    /// Ablation rows, if run.
    pub ablation: Vec<AblationRow>,
    /// PRAM-comparison rows (E16), if run.
    pub pram: Vec<PramRow>,
    /// Out-of-core pipeline rows (E17), if run.
    pub terasort: Vec<TeraSortRow>,
    /// Padding-overhead rows (E18), if run.
    pub padding: Vec<PaddingRow>,
    /// Sorting-service rows (E19), if run.
    pub service: Vec<ServiceRow>,
    /// Sharded-scaling rows (E20), if run.
    pub sharded: Vec<ShardedRow>,
    /// The E20 sharded-reservation fairness service row, if run.
    pub sharded_service: Vec<ServiceRow>,
    /// Networked-soak rows (E22), if run.
    pub netsoak: Vec<NetSoakRow>,
    /// Crash-soak rows (E23), if run.
    pub crashsoak: Vec<CrashSoakRow>,
    /// Typed-query rows (E24), if run.
    pub typed: Vec<TypedRow>,
}

fn fmt_ms(ms: f64) -> String {
    format!("{ms:8.1} ms")
}

/// Render a Table 2 / Table 3 style timing table.
pub fn render_timing_table(title: &str, rows: &[TimingRow], with_rowwise: bool) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&"=".repeat(title.len()));
    out.push('\n');
    if with_rowwise {
        out.push_str(&format!(
            "{:>9} | {:>21} | {:>11} | {:>14} | {:>14}\n",
            "n", "CPU sort", "GPUSort", "GPU-ABiSort(a)", "GPU-ABiSort(b)"
        ));
    } else {
        out.push_str(&format!(
            "{:>9} | {:>21} | {:>11} | {:>14}\n",
            "n", "CPU sort", "GPUSort", "GPU-ABiSort"
        ));
    }
    for row in rows {
        let cpu = format!("{:6.1} – {:6.1} ms", row.cpu_ms.0, row.cpu_ms.1);
        if with_rowwise {
            out.push_str(&format!(
                "{:>9} | {:>21} | {:>11} | {:>14} | {:>14}\n",
                row.n,
                cpu,
                fmt_ms(row.gpusort_ms),
                fmt_ms(row.abisort_rowwise_ms.unwrap_or(f64::NAN)),
                fmt_ms(row.abisort_zorder_ms),
            ));
        } else {
            out.push_str(&format!(
                "{:>9} | {:>21} | {:>11} | {:>14}\n",
                row.n,
                cpu,
                fmt_ms(row.gpusort_ms),
                fmt_ms(row.abisort_zorder_ms),
            ));
        }
    }
    out
}

/// Render the data-dependence table (E10).
pub fn render_data_dependence(rows: &[DataDependenceRow]) -> String {
    let mut out = String::from("E10 — data dependence of the running time\n");
    out.push_str(&format!(
        "{:>20} | {:>14} | {:>16} | {:>14} | {:>18}\n",
        "distribution", "CPU sort [ms]", "CPU comparisons", "ABiSort [ms]", "ABiSort comparisons"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>20} | {:>14.1} | {:>16} | {:>14.1} | {:>18}\n",
            row.distribution,
            row.cpu_ms,
            row.cpu_comparisons,
            row.abisort_ms,
            row.abisort_comparisons
        ));
    }
    out
}

/// Render the transfer-overhead table (E11).
pub fn render_transfer(rows: &[TransferRow]) -> String {
    let mut out = String::from("E11 — host \u{2194} device transfer overhead (2^20 pairs)\n");
    out.push_str(&format!(
        "{:>38} | {:>10} | {:>10} | {:>11} | {:>10}\n",
        "bus", "upload", "readback", "round trip", "sort time"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>38} | {:>7.1} ms | {:>7.1} ms | {:>8.1} ms | {:>7.1} ms\n",
            row.bus, row.upload_ms, row.readback_ms, row.round_trip_ms, row.sort_ms
        ));
    }
    out
}

/// Render the stream-operation-count table (E12).
pub fn render_stream_ops(rows: &[StreamOpsRow]) -> String {
    let mut out = String::from("E12 — stream operations (steps) per sort\n");
    out.push_str(&format!(
        "{:>9} | {:>10} | {:>12} | {:>10} | {:>15} | {:>14}\n",
        "n", "sequential", "overlapped", "optimized", "analytic log^3", "analytic log^2"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>9} | {:>10} | {:>12} | {:>10} | {:>15} | {:>14}\n",
            row.n,
            row.sequential_phase_steps,
            row.overlapped_steps,
            row.optimized_steps,
            row.analytic_phases,
            row.analytic_steps
        ));
    }
    out
}

/// Render the work-complexity table (E13).
pub fn render_work(rows: &[WorkRow]) -> String {
    let mut out = String::from("E13 — total comparisons\n");
    out.push_str(&format!(
        "{:>9} | {:>12} | {:>12} | {:>12} | {:>12} | {:>12} | {:>12} | {:>12}\n",
        "n", "seq ABiSort", "GPU-ABiSort", "GPUSort", "OEMS", "PBSN", "quicksort", "2 n log n"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>9} | {:>12} | {:>12} | {:>12} | {:>12} | {:>12} | {:>12} | {:>12}\n",
            row.n,
            row.sequential_abisort,
            row.stream_abisort,
            row.gpusort,
            row.oems,
            row.pbsn,
            row.cpu_quicksort,
            row.bound_2n_log_n
        ));
    }
    out
}

/// Render the scaling table (E14).
pub fn render_scaling(rows: &[ScalingRow], n: usize) -> String {
    let mut out = format!("E14 — scaling with the number of stream processor units (n = {n})\n");
    out.push_str(&format!(
        "{:>6} | {:>16} | {:>17} | {:>8}\n",
        "p", "multi-block [ms]", "single-block [ms]", "speed-up"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>6} | {:>16.2} | {:>17.2} | {:>7.2}x\n",
            row.units, row.multi_block_ms, row.single_block_ms, row.speedup
        ));
    }
    out
}

/// Render the ablation table (E15).
pub fn render_ablation(rows: &[AblationRow], n: usize) -> String {
    let mut out = format!("E15 — ablation of the design choices (n = {n}, GeForce 6800 profile)\n");
    out.push_str(&format!(
        "{:>50} | {:>10} | {:>7} | {:>12} | {:>10}\n",
        "configuration", "sim [ms]", "steps", "comparisons", "cache hits"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>50} | {:>10.2} | {:>7} | {:>12} | {:>9.1}%\n",
            row.config,
            row.sim_ms,
            row.steps,
            row.comparisons,
            100.0 * row.cache_hit_rate
        ));
    }
    out
}

impl Report {
    /// Serialize the report to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_contains_the_data() {
        let rows = vec![TimingRow {
            n: 32768,
            cpu_ms: (12.0, 16.0),
            gpusort_ms: 13.0,
            abisort_rowwise_ms: Some(11.0),
            abisort_zorder_ms: 8.0,
        }];
        let text = render_timing_table("Table 2", &rows, true);
        assert!(text.contains("32768"));
        assert!(text.contains("GPU-ABiSort(b)"));
        let text3 = render_timing_table("Table 3", &rows, false);
        assert!(!text3.contains("GPU-ABiSort(a)"));

        let report = Report {
            table2: rows,
            ..Report::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"gpusort_ms\": 13.0"));
    }
}
