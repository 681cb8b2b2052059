//! Tracing-overhead acceptance: with the sink disabled, the instrumented
//! [`StreamProcessor::launch_wide`] must cost within 5% of its hook-free
//! twin [`StreamProcessor::launch_wide_untraced`] (the compiled-out
//! control) on a launch-overhead-dominated workload — i.e. disabled
//! tracing is one atomic branch, not a tax. With the sink enabled, the
//! cost must stay within a loose constant factor.
//!
//! Wall-clock and release-grade, so ignored by default; CI runs it
//! explicitly with `--release --ignored` (see the `obs` job).

use std::time::Instant;
use stream_arch::{
    GpuProfile, Input, LaunchCtx, LaunchShape, Layout, Stream, StreamProcessor, TraceSink,
};

/// Launches of the first sizing trial. Small kernels, many launches: the
/// regime where per-launch overhead (and therefore the telemetry hook) is
/// the dominant cost.
const PROBE_LAUNCHES: usize = 3000;
const INSTANCES: usize = 64;
const TRIALS: usize = 21;
/// Host time a timed trial lasts at least. A trial of a few milliseconds
/// measures how the compiler happened to inline each arm's loop more than
/// the hook.
const TRIAL_SECONDS: f64 = 0.025;

/// One timed trial: `launches` small kernel launches through
/// `launch_wide` (`traced = true`) or `launch_wide_untraced`. Each
/// instance streams one element and writes one.
fn trial(proc_: &mut StreamProcessor, input: &Stream<u32>, traced: bool, launches: usize) -> f64 {
    let n = INSTANCES;
    let mut output: Stream<u32> = Stream::new("out", n, Layout::Linear);
    let started = Instant::now();
    for _ in 0..launches {
        let read = Input::new(input, 0, n).unwrap();
        let write = output.block_mut(0, n).unwrap();
        let shape = LaunchShape::new(n).reads::<u32>(1).writes::<u32>(1);
        let kernel = |ctx: &mut LaunchCtx<'_>| {
            ctx.for_each_instance(|ctx, i| {
                write[i] = ctx.read(&read, i, 1)[0].wrapping_mul(3).wrapping_add(1);
            });
        };
        if traced {
            proc_.launch_wide("overhead-probe", shape, kernel).unwrap();
        } else {
            proc_
                .launch_wide_untraced("overhead-probe", shape, kernel)
                .unwrap();
        }
    }
    started.elapsed().as_secs_f64()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
#[ignore = "release-mode wall-clock workload (run explicitly, see ci.yml)"]
fn disabled_tracing_costs_less_than_five_percent() {
    let sink = TraceSink::global();
    sink.set_enabled(false);
    let mut proc_ = StreamProcessor::new(GpuProfile::idealized(4));
    let input = Stream::from_vec("in", (0u32..INSTANCES as u32).collect(), Layout::Linear);

    // Warm up both paths, and double the launches per trial until a trial
    // lasts TRIAL_SECONDS. Then interleave the arms, alternating which one
    // runs first, so slow drift in the host (frequency scaling, a noisy
    // neighbour) hits both equally, and take the median of the trials'
    // ratios.
    trial(&mut proc_, &input, true, PROBE_LAUNCHES);
    let mut launches = PROBE_LAUNCHES;
    while trial(&mut proc_, &input, false, launches) < TRIAL_SECONDS {
        launches *= 2;
    }
    let mut ratios = Vec::with_capacity(TRIALS);
    let mut control = Vec::with_capacity(TRIALS);
    for t in 0..TRIALS {
        let (traced, untraced) = if t % 2 == 0 {
            let traced = trial(&mut proc_, &input, true, launches);
            (traced, trial(&mut proc_, &input, false, launches))
        } else {
            let untraced = trial(&mut proc_, &input, false, launches);
            (trial(&mut proc_, &input, true, launches), untraced)
        };
        ratios.push(traced / untraced);
        control.push(untraced);
    }
    let (ratio, control) = (median(ratios), median(control));
    eprintln!(
        "{launches} launches per trial: control {:.1} ms, disabled tracing {:+.2}%",
        control * 1e3,
        100.0 * (ratio - 1.0)
    );
    assert!(
        ratio <= 1.05,
        "disabled tracing overhead exceeds 5%: {:.2}% (median of {TRIALS} trials; \
         control {control:.6}s)",
        100.0 * (ratio - 1.0)
    );

    // Enabled tracing may pay for real work (timestamping, buffering) but
    // must stay within a loose constant factor on the same workload.
    sink.set_enabled(true);
    let mut enabled = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        enabled.push(trial(&mut proc_, &input, true, launches));
        // Drain per trial so the MAX_EVENTS cap never mutes the hook.
        sink.take_events();
    }
    sink.set_enabled(false);
    sink.take_events();
    let enabled = median(enabled);
    assert!(
        enabled <= control * 3.0,
        "enabled tracing is pathologically slow: {enabled:.6}s vs control {control:.6}s"
    );
}
