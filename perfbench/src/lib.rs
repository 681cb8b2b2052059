//! The repository benchmark: absolute host-clock numbers, end to end and
//! per layer, for the GPU-ABiSort engine and its serving stack.
//!
//! It drives the program only through public functions
//! (`stream_arch::StreamProcessor`, `abisort::GpuAbiSorter`,
//! `baselines::CpuSorter`, `sortsvc::{SortPolicy, SortService,
//! SortServer, SortClient, Wal}` and `sortsvc::net::frame`). Every input
//! comes from the `workloads` generators, seeded by the `--seed`
//! argument, before anything is timed; every output is compared with a
//! `std` sort of its input. See `README.md` for the workloads, the
//! metrics and which end-to-end number each layer metric should move.

pub mod engine;
pub mod replay;
pub mod trace;
pub mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use stream_arch::Value;

/// End-to-end metrics, reported by every untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("melems_per_s", "Melem/s"),
    ("latency_mean_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("stream_arch.launches", "count/op"),
    ("stream_arch.kernel_instances", "count/op"),
    ("stream_arch.host_ns_per_instance", "ns"),
    ("stream_arch.arena_hit_rate", "ratio"),
    ("stream_arch.sim_ms", "sim_ms/op"),
    ("stream_arch.cache_hit_rate", "ratio"),
    ("abisort.sort_ns_per_elem", "ns/elem"),
    ("abisort.segments_ns_per_elem", "ns/elem"),
    ("abisort.padding_share", "ratio"),
    ("abisort.cached_plans", "count"),
    ("abisort.vs_std", "ratio"),
    ("baselines.cpu_sort_ns_per_elem", "ns/elem"),
    ("policy.calibrate_ms", "ms"),
    ("policy.gpu_job_share", "ratio"),
    ("service.process_ns_per_elem", "ns/elem"),
    ("service.overhead_us_per_batch", "us"),
    ("service.engine_busy_ms_per_job", "ms"),
    ("service.jobs_per_batch", "count"),
    ("service.occupancy", "ratio"),
    ("frame.submit_encode_ns_per_elem", "ns/elem"),
    ("frame.submit_decode_ns_per_elem", "ns/elem"),
    ("frame.result_encode_ns_per_elem", "ns/elem"),
    ("frame.result_decode_ns_per_elem", "ns/elem"),
    ("server.jobs_per_micro_batch", "count"),
    ("server.frames_per_job", "count"),
    ("server.wire_rejects", "count"),
    ("client.submit_us", "us"),
    ("net.unaccounted_ms", "ms"),
    ("wal.append_ns_per_elem", "ns/elem"),
    ("wal.append_always_ns_per_elem", "ns/elem"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("host.std_sort_ns_per_elem", "ns/elem"),
];

/// The benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-process 2^18-element sorts on one long-lived processor.
    EngineLarge,
    /// Loopback wire jobs of 32–1024 elements, WAL on, one job in flight
    /// per connection.
    WireSmall,
    /// Loopback wire jobs of 64–16384 elements, eight in flight per
    /// connection.
    WireMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::EngineLarge,
        Workload::WireSmall,
        Workload::WireMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineLarge => "engine-large",
            Workload::WireSmall => "wire-small",
            Workload::WireMixed => "wire-mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase (split evenly between the untraced and
    /// the traced phase of a traced run).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Sizes of a run. [`Scale::full`] is what the command line runs; the
/// smoke test uses [`Scale::smoke`].
#[derive(Clone, Debug)]
pub struct Scale {
    /// `engine-large` sorts `2^engine_log_n` elements.
    pub engine_log_n: u32,
    /// `engine-large` inputs per distribution.
    pub engine_inputs_per_dist: usize,
    /// Wire jobs generated per connection; the timed phase cycles them.
    pub pool_jobs: usize,
    /// Wire jobs per connection in the warm-up pass.
    pub warmup_jobs: usize,
    /// Set-ups per run (the reported `setup_s` is their median).
    pub setups: usize,
    /// Jobs fed through each public call by the traced run's replay.
    pub replay_jobs: usize,
    /// Jobs of the replay appended with `FsyncPolicy::Always`.
    pub wal_always_jobs: usize,
}

impl Scale {
    /// The sizes the benchmark command runs.
    pub fn full() -> Self {
        Scale {
            engine_log_n: 18,
            engine_inputs_per_dist: 2,
            pool_jobs: 1024,
            warmup_jobs: 100,
            setups: 5,
            replay_jobs: 256,
            wal_always_jobs: 32,
        }
    }

    /// Minimal sizes, for the smoke test.
    pub fn smoke() -> Self {
        Scale {
            engine_log_n: 12,
            engine_inputs_per_dist: 1,
            pool_jobs: 24,
            warmup_jobs: 4,
            setups: 2,
            replay_jobs: 12,
            wal_always_jobs: 2,
        }
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase(s).
    pub attempted: u64,
    /// Typed rejects + unanswered jobs + wrong outputs.
    pub failed: u64,
    /// Outputs that differ from the `std` sort of their input, anywhere
    /// in the run (timed phase, warm-up or replay).
    pub mismatches: u64,
    /// Metric values by name (units come from [`END_TO_END`] /
    /// [`PER_LAYER`]).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Set a metric; the name must be one of the declared ones.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Add a report line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// `failed ÷ attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The declared metric set this run must report.
    pub fn declared(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The last output line: one JSON object with `correct`, `attempted`,
    /// `failed` and the run's declared metrics with their units.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::declared(trace)
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                format!(
                    r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                    json_number(value)
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.mismatches == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust prints (`null` if not finite).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Run one workload.
pub fn run(opts: &Options, scale: &Scale) -> Outcome {
    let cpu_before = cpu_times();
    let mut out = match opts.workload {
        Workload::EngineLarge => engine::run(opts, scale),
        Workload::WireSmall | Workload::WireMixed => wire::run(opts, scale),
    };
    out.lines.insert(0, host_header());
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_before, cpu_times()) {
        out.line(format!(
            "host steal: {:.2}% of all CPU time during the run went to other guests",
            100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        ));
    }
    out.line(format!(
        "failed_share {} ratio ({} failed of {} attempted, {} wrong outputs)",
        out.failed_share(),
        out.failed,
        out.attempted,
        out.mismatches
    ));
    out
}

/// The host header printed with every result: numbers from different
/// host classes must never be compared silently.
pub fn host_header() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host: cores={cores} arch={} os={} rustc=\"{}\" profile={profile}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

/// Where run artefacts (span logs, scratch WAL directories) go: inside
/// the benchmark's own directory, which ignores them.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's out directory");
    dir
}

/// A derived seed: SplitMix64 of `seed` combined with `stream`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether `got` is exactly `expected` under `Value`'s total order.
pub fn same_output(got: &[Value], expected: &[Value]) -> bool {
    got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|(a, b)| a.total_cmp(b).is_eq())
}

/// The `std` sort of every input (the correctness reference), and its
/// cost in ns per element — the in-sitting host reference.
pub fn std_reference(inputs: &[Vec<Value>], log: &mut trace::SpanLog) -> (Vec<Vec<Value>>, f64) {
    let mut ns = 0.0;
    let mut elements = 0usize;
    let expected = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let mut v = input.clone();
            let started = Instant::now();
            log.time("host.std_sort", None, i as u64, || v.sort());
            ns += started.elapsed().as_nanos() as f64;
            elements += v.len();
            v
        })
        .collect();
    (expected, ns / elements.max(1) as f64)
}

/// The `q`-quantile of `values`, linearly interpolated between ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Steal and total CPU time so far, in ticks, from the first line of
/// `/proc/stat`. Steal is time the hypervisor ran other guests on this
/// machine's virtual CPUs: a run with much of it measured a noisy host.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The process's peak resident set (`VmHWM`) in MiB, NaN where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Operations per window of the windowed 99th percentile: ten samples
/// lie beyond each window's p99.
const P99_WINDOW: usize = 1000;

/// One correctly completed operation.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    /// Completion time, seconds since the phase began.
    pub at_s: f64,
    /// Latency, ms.
    pub latency_ms: f64,
    /// Elements sorted.
    pub elements: u64,
}

/// A timed phase: its correctly completed operations, its wall time and
/// its failure tallies.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every correctly completed operation.
    pub ops: Vec<Done>,
    /// Wall seconds of the phase (on `engine-large`, the host-adjusted
    /// seconds of its sorts; see [`engine`]).
    pub wall_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Typed rejects.
    pub rejected: u64,
    /// Jobs unanswered by the reply deadline.
    pub timeouts: u64,
    /// Outputs that differ from the `std` sort.
    pub mismatches: u64,
}

impl Phase {
    /// Fold the phase's tallies into the run outcome.
    pub fn tally_into(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.rejected + self.timeouts + self.mismatches;
        out.mismatches += self.mismatches;
    }

    /// Latencies of the completed operations, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|d| d.latency_ms).collect()
    }

    /// Throughput of the phase.
    pub fn melems_per_s(&self) -> f64 {
        self.ops.iter().map(|d| d.elements).sum::<u64>() as f64 / self.wall_s / 1e6
    }

    /// Median latency, ms.
    pub fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms())
    }

    /// The 99th percentile of latency, ms: the median, over consecutive
    /// windows of [`P99_WINDOW`] operations in completion order, of each
    /// window's 99th percentile (one window below twice that many), so a
    /// burst of host interference in one part of a run does not set the
    /// run's tail.
    pub fn p99_ms(&self) -> f64 {
        let mut ops = self.ops.clone();
        ops.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        let windows = (ops.len() / P99_WINDOW).max(1);
        let per = ops.len() / windows;
        let p99s: Vec<f64> = (0..windows)
            .map(|w| {
                let end = if w + 1 == windows {
                    ops.len()
                } else {
                    (w + 1) * per
                };
                let lat: Vec<f64> = ops[w * per..end].iter().map(|d| d.latency_ms).collect();
                quantile(&lat, 0.99)
            })
            .collect();
        median(&p99s)
    }

    /// Mean latency, ms.
    pub fn mean_latency_ms(&self) -> f64 {
        self.ops.iter().map(|d| d.latency_ms).sum::<f64>() / self.ops.len().max(1) as f64
    }

    /// One line describing the phase.
    pub fn describe(&self, label: &str) -> String {
        format!(
            "{label}: {} ops in {:.3} s, p50 {:.4} ms, p99 {:.4} ms (whole-phase p99 {:.4} ms), \
             mean {:.4} ms, {:.4} Melem/s ({} rejected, {} timed out, {} wrong)",
            self.ops.len(),
            self.wall_s,
            self.p50_ms(),
            self.p99_ms(),
            quantile(&self.latencies_ms(), 0.99),
            self.mean_latency_ms(),
            self.melems_per_s(),
            self.rejected,
            self.timeouts,
            self.mismatches
        )
    }

    /// Report the end-to-end metrics of this phase plus the run's set-up
    /// times, and describe the phase under `label`.
    pub fn report_end_to_end(&self, label: &str, setup_s: &[f64], out: &mut Outcome) {
        out.set("setup_s", median(setup_s));
        out.set("melems_per_s", self.melems_per_s());
        out.set("latency_mean_ms", self.mean_latency_ms());
        out.set("latency_p99_ms", self.p99_ms());
        out.line(format!(
            "setup: {} set-ups, each {:?} s",
            setup_s.len(),
            setup_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
        ));
        out.line(self.describe(label));
    }

    /// Print the tracing overhead: traced minus untraced end-to-end
    /// numbers of the two halves of a traced run.
    pub fn overhead_line(untraced: &Phase, traced: &Phase) -> String {
        let (p0, p1) = (untraced.mean_latency_ms(), traced.mean_latency_ms());
        let (t0, t1) = (untraced.melems_per_s(), traced.melems_per_s());
        format!(
            "tracing overhead: latency_mean_ms {p0:.4} -> {p1:.4} ({:+.2}%), \
             melems_per_s {t0:.4} -> {t1:.4} ({:+.2}%)",
            100.0 * (p1 - p0) / p0,
            100.0 * (t1 - t0) / t0
        )
    }
}

/// Print each span name's count, total and self time, each layer's self
/// time (the layer is the span name up to its first dot) and the
/// program's own host spans, and write all spans to the out directory.
pub fn finish_trace(
    opts: &Options,
    log: &trace::SpanLog,
    events: &[stream_arch::TraceEvent],
    out: &mut Outcome,
) {
    let times = log.times();
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, t) in &times {
        out.line(format!(
            "span {name}: n={} total {:.3} ms, self {:.3} ms, mean self {:.3} us",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.mean_self_ms() * 1e3
        ));
        let layer = name.split('.').next().unwrap_or(name);
        *layers.entry(layer).or_default() += t.self_ns;
    }
    for (layer, ns) in layers {
        out.line(format!("layer {layer}: self {:.3} ms", ns as f64 / 1e6));
    }
    for (name, (count, total_us)) in trace::program_span_totals(events) {
        out.line(format!(
            "program span {name}: n={count} total {:.3} ms",
            total_us / 1e3
        ));
    }
    let path = out_dir().join(format!(
        "trace-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    match log.write_jsonl(&path, events) {
        Ok(()) => out.line(format!("spans written to {}", path.display())),
        Err(err) => out.line(format!("spans not written ({err})")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn the_result_line_carries_exactly_the_declared_metrics() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = out.result_json(false);
        assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0"#));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(r#""{name}": {{"value": 1.5, "unit": "{unit}"}}"#)));
        }
        assert!(!line.contains("stream_arch"));
    }
}
