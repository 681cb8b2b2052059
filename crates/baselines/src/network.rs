//! Shared infrastructure for sorting-network baselines on the stream
//! simulator.
//!
//! A comparator network is executed as one stream operation per network
//! *step* (the way every GPU sorting-network implementation the paper cites
//! works, e.g. Purcell et al. 2003, Kipfer et al. 2004, Govindaraju et al.
//! 2005), as a launch-wide kernel: each kernel instance owns one output
//! element, reads its own element linearly, gathers its comparator
//! partner, and writes the minimum or maximum depending on its role in the
//! compare-exchange. The element
//! streams are ping-ponged because input and output must be distinct
//! (Section 6.1).
//!
//! Because sorting networks are data independent, the pass structure is a
//! pure function of the element index — [`run_network`] takes that function
//! and handles the ping-pong, cost accounting and result read-back.
//!
//! These roles are the workspace's one definition of each network:
//! [`bitonic_role`](crate::gpusort::bitonic_role) and
//! [`odd_even_role`](crate::oems::odd_even_role) share one triangular
//! pass schedule, and the `pram` crate's network runner
//! steps the same roles on its EREW PRAM, one processor per
//! [`Role::KeepMin`] element.

use stream_arch::padding;
use stream_arch::{
    Counters, GatherView, GpuProfile, Input, LaunchShape, Layout, Result, SimTime, Stream,
    StreamProcessor, Value,
};

/// The role of one element in one network step.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Role {
    /// Compare with `partner` and keep the minimum.
    KeepMin {
        /// The comparator partner's element index.
        partner: usize,
    },
    /// Compare with `partner` and keep the maximum.
    KeepMax {
        /// The comparator partner's element index.
        partner: usize,
    },
    /// Not part of any comparator in this step; copy the element through.
    Copy,
}

/// Result of running a sorting network on the stream simulator.
#[derive(Clone, Debug)]
pub struct NetworkRun {
    /// The sorted output.
    pub output: Vec<Value>,
    /// Event counters of the run.
    pub counters: Counters,
    /// Simulated running time under the processor's profile.
    pub sim_time: SimTime,
    /// Host wall-clock time of the run.
    pub wall_time: std::time::Duration,
    /// Number of network steps (stream operations) executed.
    pub passes: usize,
}

/// Execute a comparator network described by `role(pass, element) -> Role`
/// over `passes` steps.
///
/// The input length must be a power of two (all the networks implemented
/// here are defined for power-of-two sizes; callers pad like the paper's
/// GPU implementations do).
pub fn run_network<F>(
    proc: &mut StreamProcessor,
    values: &[Value],
    layout: Layout,
    passes: usize,
    role: F,
) -> Result<NetworkRun>
where
    F: Fn(usize, usize) -> Role,
{
    let started = std::time::Instant::now();
    proc.reset();
    let n = values.len();
    assert!(
        n.is_power_of_two(),
        "network sorters require a power-of-two length"
    );
    proc.check_stream_size::<Value>(n)?;

    let mut current = Stream::from_vec("network-a", values.to_vec(), layout);
    let mut next: Stream<Value> = Stream::new("network-b", n, layout);

    for pass in 0..passes {
        proc.check_distinct_io(
            &[(current.id(), current.name())],
            &[(next.id(), next.name())],
        )?;
        let own = Input::new(&current, 0, n)?;
        let gather = GatherView::new(&current);
        let out = next.block_mut(0, n)?;
        let role = &role;
        let shape = LaunchShape::new(n).reads::<Value>(1).writes::<Value>(1);
        proc.launch_wide("network-pass", shape, |ctx| {
            // Each instance reads its own element and then gathers its
            // partner, so the fetches reach the cache in per-instance order.
            ctx.for_each_instance(|ctx, i| {
                let mine = ctx.read(&own, i, 1)[0];
                out[i] = match role(pass, i) {
                    Role::Copy => mine,
                    Role::KeepMin { partner } => {
                        let other = ctx.gather(&gather, partner);
                        ctx.count_comparisons(1);
                        if other < mine {
                            other
                        } else {
                            mine
                        }
                    }
                    Role::KeepMax { partner } => {
                        let other = ctx.gather(&gather, partner);
                        ctx.count_comparisons(1);
                        if other > mine {
                            other
                        } else {
                            mine
                        }
                    }
                };
            });
        })?;
        proc.record_step();
        std::mem::swap(&mut current, &mut next);
    }

    Ok(NetworkRun {
        output: current.as_slice().to_vec(),
        counters: proc.counters(),
        sim_time: proc.simulated_time(),
        wall_time: started.elapsed(),
        passes,
    })
}

/// Pad to a power of two through [`padding::sort_padded`], run the
/// network, and cut the sentinels off again; `role(n, pass, element)` gets
/// the padded length `n`. Used by the public sorter types.
pub fn run_network_padded<F>(
    proc: &mut StreamProcessor,
    values: &[Value],
    layout: Layout,
    passes_for: impl Fn(usize) -> usize,
    role: F,
) -> Result<NetworkRun>
where
    F: Fn(usize, usize, usize) -> Role,
{
    let mut network = None;
    let output = padding::sort_padded(values, |padded| {
        let n = padded.len();
        let run = run_network(proc, &padded, layout, passes_for(n), |p, i| role(n, p, i))?;
        Ok(std::mem::take(&mut network.insert(run).output))
    })?;
    let mut run = network.unwrap_or_else(|| {
        proc.reset();
        NetworkRun {
            output: Vec::new(),
            counters: proc.counters(),
            sim_time: proc.simulated_time(),
            wall_time: std::time::Duration::ZERO,
            passes: 0,
        }
    });
    run.output = output;
    Ok(run)
}

/// Number of passes of Batcher's bitonic and odd-even merge sort networks
/// for `n` (a power of two) inputs: groups of 1, 2, …, `log n` passes,
/// `log n (log n + 1) / 2` in all.
pub(crate) fn triangular_passes(n: usize) -> usize {
    let log_n = n.trailing_zeros() as usize;
    log_n * (log_n + 1) / 2
}

/// The `pass`-th step of the triangular schedule as `(half, distance)`:
/// group `g` (1-based) has `g` passes with `half = 2^(g−1)`, and within a
/// group the compare distance halves from `half` down to 1.
pub(crate) fn triangular_step(pass: usize) -> (usize, usize) {
    let mut group = 1usize;
    let mut consumed = 0usize;
    while consumed + group <= pass {
        consumed += group;
        group += 1;
    }
    let half = 1usize << (group - 1);
    (half, half >> (pass - consumed))
}

/// Convenience: a processor with the default GeForce 7800 profile, used by
/// doc examples and tests.
pub fn default_processor() -> StreamProcessor {
    StreamProcessor::new(GpuProfile::geforce_7800())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial "network": one pass of adjacent compare-exchanges.
    fn adjacent_role(_pass: usize, i: usize) -> Role {
        if i.is_multiple_of(2) {
            Role::KeepMin { partner: i + 1 }
        } else {
            Role::KeepMax { partner: i - 1 }
        }
    }

    #[test]
    fn single_pass_compare_exchange_works() {
        let input = vec![
            Value::new(4.0, 0),
            Value::new(1.0, 1),
            Value::new(2.0, 2),
            Value::new(3.0, 3),
        ];
        let mut proc = default_processor();
        let run = run_network(&mut proc, &input, Layout::Linear, 1, adjacent_role).unwrap();
        let keys: Vec<f32> = run.output.iter().map(|v| v.key).collect();
        assert_eq!(keys, vec![1.0, 4.0, 2.0, 3.0]);
        assert_eq!(run.passes, 1);
        assert_eq!(run.counters.launches, 1);
        assert_eq!(run.counters.kernel_instances, 4);
        assert_eq!(run.counters.comparisons, 4);
    }

    #[test]
    fn copy_role_passes_elements_through() {
        let input = workloads::uniform(8, 1);
        let mut proc = default_processor();
        let run = run_network(&mut proc, &input, Layout::Linear, 3, |_, _| Role::Copy).unwrap();
        assert_eq!(run.output, input);
        assert_eq!(run.counters.comparisons, 0);
        assert_eq!(run.counters.launches, 3);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_is_rejected_by_the_core_runner() {
        let input = workloads::uniform(6, 0);
        let mut proc = default_processor();
        let _ = run_network(&mut proc, &input, Layout::Linear, 1, adjacent_role);
    }

    #[test]
    fn triangular_schedule_halves_the_distance_within_each_group() {
        // n = 8: (half, distance) = (1,1), (2,2), (2,1), (4,4), (4,2), (4,1)
        let expected = [(1, 1), (2, 2), (2, 1), (4, 4), (4, 2), (4, 1)];
        for (pass, &e) in expected.iter().enumerate() {
            assert_eq!(triangular_step(pass), e, "pass {pass}");
        }
        assert_eq!(triangular_passes(8), 6);
        assert_eq!(triangular_passes(1 << 20), 210);
    }

    #[test]
    fn every_network_sorts_any_length_and_distribution_with_data_independent_work() {
        use crate::{GpuSortBaseline, OddEvenMergeSort, PeriodicBalancedSort};
        type Sorter = fn(&mut StreamProcessor, &[Value]) -> Result<NetworkRun>;
        let networks: [(&str, Sorter); 3] = [
            ("bitonic", |proc, v| GpuSortBaseline::new().sort(proc, v)),
            ("odd-even", |proc, v| OddEvenMergeSort::new().sort(proc, v)),
            ("balanced", |proc, v| {
                PeriodicBalancedSort::new().sort(proc, v)
            }),
        ];
        let mut proc = default_processor();
        for (name, sort) in networks {
            let mut comparisons = |input: Vec<Value>| {
                let run = sort(&mut proc, &input).unwrap();
                let mut expected = input;
                expected.sort();
                assert_eq!(run.output, expected, "{name} n={}", expected.len());
                run.counters.comparisons
            };
            for n in [2usize, 3, 16, 100, 777, 1024] {
                comparisons(workloads::uniform(n, n as u64));
            }
            let counts: std::collections::HashSet<u64> =
                workloads::Distribution::all_for_data_dependence()
                    .into_iter()
                    .map(|dist| comparisons(workloads::generate(dist, 512, 3)))
                    .collect();
            assert_eq!(counts.len(), 1, "{name} work depends on the data");
        }
    }

    #[test]
    fn padded_runner_handles_arbitrary_lengths_and_tiny_inputs() {
        let input = workloads::uniform(5, 2);
        let mut proc = default_processor();
        let role = |_, pass, i| adjacent_role(pass, i);
        let run = run_network_padded(&mut proc, &input, Layout::Linear, |_| 1, role).unwrap();
        assert_eq!(run.output.len(), 5);

        let single = vec![Value::new(1.0, 0)];
        let run = run_network_padded(&mut proc, &single, Layout::Linear, |_| 1, role).unwrap();
        assert_eq!(run.output, single);
        assert_eq!(run.passes, 0);
    }
}
