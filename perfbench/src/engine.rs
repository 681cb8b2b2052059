//! `engine-large`: 2^18-element sorts on one long-lived sequential
//! `StreamProcessor`, in-process, with no service in the way.
//!
//! Its times are host-adjusted. On a shared virtual machine the speed of
//! one virtual CPU swings by up to 2× for seconds to minutes at a time
//! (another guest on the same physical core), and a single-threaded sort
//! loop feels all of it: wall-clock throughput spread by 20–35% from run
//! to run. So between consecutive sorts the loop times a fixed host
//! reference, `slice::sort` of the same 2^17 uniform values every run, on
//! the same thread, and scales each sort's wall time by
//! [`NOMINAL_REFERENCE_MS`] ÷ the mean of the references right before and
//! right after it. The result is the time the sort would take on a host
//! where the reference takes the nominal time. A change to the program
//! moves it as it moves wall time; a change in the host's speed cancels
//! out. Each set-up is scaled the same way. The wall-clock figures are
//! printed next to the adjusted ones.

use crate::replay::{self, EngineTally};
use crate::trace::SpanLog;
use crate::wire::{loopback, report_round_trip, Pool};
use crate::{
    derive_seed, finish_trace, median, out_dir, peak_rss_mb, quantile, same_output, std_reference,
    Done, Options, Outcome, Phase, Scale,
};
use abisort::{GpuAbiSorter, SortConfig};
use std::time::Instant;
use stream_arch::telemetry::TraceSink;
use stream_arch::{Counters, GpuProfile, StreamProcessor, Value};
use workloads::Distribution;

/// One input of each per round; the adaptive merge does data-dependent
/// work, so sorted input runs faster than uniform.
const DISTRIBUTIONS: [Distribution; 4] = [
    Distribution::Uniform,
    Distribution::Sorted,
    Distribution::Reverse,
    Distribution::FewDistinct { distinct: 16 },
];

/// Elements of the host reference sort.
const REFERENCE_LEN: usize = 1 << 17;

/// Seed of the host reference input: fixed, so every run times the same
/// reference work.
const REFERENCE_SEED: u64 = 0x0005_EED0_F2EF;

/// The host reference's time on the nominal host, ms. On a 2-core KVM
/// guest of an Intel Xeon (AVX-512) host, release build with rustc 1.95,
/// the reference took 4.5 ms at best and 4.9–5.5 ms in the median.
pub const NOMINAL_REFERENCE_MS: f64 = 5.0;

/// The host reference: `slice::sort` of a fixed array.
struct HostReference {
    input: Vec<Value>,
    scratch: Vec<Value>,
    /// Every reference time, ms.
    times_ms: Vec<f64>,
}

impl HostReference {
    fn new(len: usize) -> Self {
        let input = workloads::generate(Distribution::Uniform, len, REFERENCE_SEED);
        HostReference {
            scratch: input.clone(),
            input,
            times_ms: Vec::new(),
        }
    }

    /// Time one reference sort, ms.
    fn time_ms(&mut self) -> f64 {
        self.scratch.copy_from_slice(&self.input);
        let started = Instant::now();
        self.scratch.sort();
        std::hint::black_box(&self.scratch);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.times_ms.push(ms);
        ms
    }

    /// The median reference time and its extremes, as a report line.
    fn describe(&self) -> String {
        format!(
            "host reference (slice::sort of {} values around each set-up and sort): median {:.4} ms, \
             min {:.4} ms, max {:.4} ms over {} samples; nominal {NOMINAL_REFERENCE_MS} ms",
            self.input.len(),
            median(&self.times_ms),
            quantile(&self.times_ms, 0.0),
            quantile(&self.times_ms, 1.0),
            self.times_ms.len()
        )
    }
}

/// A timed phase twice over: host-adjusted (the end-to-end figures) and
/// as the wall clock saw it.
struct Timed {
    adjusted: Phase,
    wall: Phase,
}

/// Sort the inputs round after round until `seconds` have passed, always
/// finishing a round so every distribution is timed equally often. The
/// host reference runs between consecutive sorts; the adjusted phase's
/// `wall_s` is the sum of the adjusted sort times.
#[allow(clippy::too_many_arguments)]
fn timed_phase(
    proc: &mut StreamProcessor,
    sorter: &GpuAbiSorter,
    inputs: &[Vec<Value>],
    expected: &[Vec<Value>],
    seconds: f64,
    reference: &mut HostReference,
    log: &mut SpanLog,
    mut tally: Option<&mut EngineTally>,
) -> Timed {
    let mut wall = Phase::default();
    let mut adjusted_ops = Vec::new();
    let started = Instant::now();
    let mut op = 0u64;
    let mut reference_before = reference.time_ms();
    'run: loop {
        for (input, want) in inputs.iter().zip(expected) {
            let t = Instant::now();
            let root = log.open("bench.op", None, op);
            let run = log.time("abisort.sort_run", root, op, || {
                sorter.sort_run(proc, input).expect("sort_run")
            });
            log.close(root);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            // The reference right after this sort is the one right before
            // the next.
            let reference_after = reference.time_ms();
            let reference_ms = (reference_before + reference_after) / 2.0;
            reference_before = reference_after;
            wall.attempted += 1;
            if same_output(&run.output, want) {
                let done = Done {
                    at_s: started.elapsed().as_secs_f64(),
                    latency_ms: ms,
                    elements: input.len() as u64,
                };
                wall.ops.push(done);
                adjusted_ops.push(Done {
                    latency_ms: ms * NOMINAL_REFERENCE_MS / reference_ms,
                    ..done
                });
            } else {
                wall.mismatches += 1;
            }
            if let Some(tally) = tally.as_deref_mut() {
                tally.add(
                    &run.counters,
                    &run.sim_time,
                    run.wall_time,
                    input.len(),
                    run.padded_len,
                );
            }
            op += 1;
            if op.is_multiple_of(DISTRIBUTIONS.len() as u64)
                && started.elapsed().as_secs_f64() >= seconds
            {
                break 'run;
            }
        }
    }
    wall.wall_s = started.elapsed().as_secs_f64();
    let adjusted = Phase {
        wall_s: adjusted_ops.iter().map(|d| d.latency_ms).sum::<f64>() / 1e3,
        ops: adjusted_ops,
        attempted: wall.attempted,
        mismatches: wall.mismatches,
        ..Phase::default()
    };
    Timed { adjusted, wall }
}

/// Run `engine-large`.
pub fn run(opts: &Options, scale: &Scale) -> Outcome {
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let mut log = SpanLog::new(opts.trace, epoch);
    let n = 1usize << scale.engine_log_n;

    // Inputs, round by round (one array per distribution), and their
    // `std` sorts, before anything is timed.
    let inputs: Vec<Vec<Value>> = (0..scale.engine_inputs_per_dist)
        .flat_map(|round| {
            DISTRIBUTIONS.iter().enumerate().map(move |(d, &dist)| {
                workloads::generate(dist, n, derive_seed(opts.seed, (round * 4 + d) as u64))
            })
        })
        .collect();
    let (expected, std_ns) = std_reference(&inputs, &mut log);
    out.line(format!(
        "host.std_sort_ns_per_elem {std_ns} ns/elem (in-sitting reference)"
    ));

    // Set-up, several times: processor and sorter construction plus one
    // untimed warm-up round that records the plan and fills the arena.
    // Each set-up is host-adjusted by the mean of the references timed
    // right before and right after it.
    let mut reference = HostReference::new(REFERENCE_LEN);
    let mut setup_s = Vec::new();
    let mut engine = None;
    for _ in 0..scale.setups {
        drop(engine.take());
        let reference_before = reference.time_ms();
        let started = Instant::now();
        let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
        let sorter = GpuAbiSorter::new(SortConfig::default());
        let mut warm: Vec<(Counters, f64)> = Vec::new();
        for (input, want) in inputs.iter().zip(&expected).take(DISTRIBUTIONS.len()) {
            let run = sorter.sort_run(&mut proc, input).expect("warm-up sort_run");
            out.attempted += 1;
            if !same_output(&run.output, want) {
                out.failed += 1;
                out.mismatches += 1;
            }
            warm.push((run.counters, run.sim_time.total_ms));
        }
        let wall_s = started.elapsed().as_secs_f64();
        let reference_ms = (reference_before + reference.time_ms()) / 2.0;
        setup_s.push(wall_s * NOMINAL_REFERENCE_MS / reference_ms);
        engine = Some((proc, sorter, warm));
    }
    let (mut proc, sorter, warm) = engine.expect("at least one set-up");

    // The simulated cost of the warm-up round, as exact counts: they
    // repeat exactly for a seed, so a cost-model change shows next to any
    // host-time change.
    for (dist, (c, sim_ms)) in DISTRIBUTIONS.iter().zip(&warm) {
        out.line(format!(
            "simulated {}: launches={} steps={} kernel_instances={} comparisons={} \
             bytes_read={} bytes_written={} cache_hits={} cache_accesses={} sim_ms={sim_ms:?}",
            dist.name(),
            c.launches,
            c.steps,
            c.kernel_instances,
            c.comparisons,
            c.bytes_read,
            c.bytes_written,
            c.cache.hits,
            c.cache.accesses
        ));
    }

    if !opts.trace {
        let mut quiet = SpanLog::new(false, epoch);
        let timed = timed_phase(
            &mut proc,
            &sorter,
            &inputs,
            &expected,
            opts.seconds,
            &mut reference,
            &mut quiet,
            None,
        );
        timed.adjusted.tally_into(&mut out);
        timed
            .adjusted
            .report_end_to_end("timed phase, host-adjusted", &setup_s, &mut out);
        out.line(timed.wall.describe("timed phase, wall clock"));
        out.line(reference.describe());
        out.set("peak_rss_mb", peak_rss_mb());
        return out;
    }

    let half = opts.seconds / 2.0;
    let mut quiet = SpanLog::new(false, epoch);
    let untraced = timed_phase(
        &mut proc,
        &sorter,
        &inputs,
        &expected,
        half,
        &mut reference,
        &mut quiet,
        None,
    )
    .adjusted;
    let mut tally = EngineTally::default();
    let before = proc.arena_ref().stats();
    TraceSink::global().set_enabled(true);
    let traced = timed_phase(
        &mut proc,
        &sorter,
        &inputs,
        &expected,
        half,
        &mut reference,
        &mut log,
        Some(&mut tally),
    )
    .adjusted;
    TraceSink::global().set_enabled(false);
    let events = TraceSink::global().take_events();
    tally.arena(&before, &proc.arena_ref().stats());
    untraced.tally_into(&mut out);
    traced.tally_into(&mut out);
    out.line(untraced.describe("untraced half, host-adjusted"));
    out.line(traced.describe("traced half, host-adjusted"));
    out.line(Phase::overhead_line(&untraced, &traced));
    out.line(reference.describe());
    tally.report_stream_arch(&mut out);
    out.set("abisort.sort_ns_per_elem", tally.ns_per_real());
    out.set("abisort.vs_std", tally.ns_per_real() / std_ns);

    // Replay one input per distribution through the other layers, then
    // through a loopback server (this workload's timed path has none).
    let pool = Pool {
        jobs: inputs[..DISTRIBUTIONS.len()].to_vec(),
        expected: expected[..DISTRIBUTIONS.len()].to_vec(),
    };
    let dir = out_dir().join(format!("{}-{}", opts.workload.name(), std::process::id()));
    let mut replay_log = SpanLog::new(true, epoch);
    let replay = replay::run(&pool, 1, false, scale, &dir, &mut replay_log, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    replay.report(&mut out, std_ns);
    out.set("abisort.cached_plans", sorter.cached_plans() as f64);
    let round_trip = loopback(pool, epoch, &mut replay_log, &mut out);
    report_round_trip(&round_trip, &replay_log, &replay, false, &mut out);
    log.absorb(replay_log);
    finish_trace(opts, &log, &events, &mut out);
    out
}
