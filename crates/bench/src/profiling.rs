//! What the profiling binaries (`kernel_profile`, `profile_seq`,
//! `replay_profile`) share: their argument parsing and the inputs of
//! perfbench's `engine-large` workload.

use stream_arch::Value;
use workloads::Distribution;

/// The distributions of perfbench's `engine-large` workload.
const ENGINE_LARGE: [Distribution; 4] = [
    Distribution::Uniform,
    Distribution::Sorted,
    Distribution::Reverse,
    Distribution::FewDistinct { distinct: 16 },
];

/// One input of `n` elements per distribution of perfbench's
/// `engine-large` workload (uniform, sorted, reverse, few-distinct(16)),
/// the `d`-th generated with seed `d + 1`.
pub fn engine_large_inputs(n: usize) -> Vec<(Distribution, Vec<Value>)> {
    ENGINE_LARGE
        .iter()
        .enumerate()
        .map(|(d, &dist)| (dist, workloads::generate(dist, n, d as u64 + 1)))
        .collect()
}

/// The positional arguments of a profiling binary as non-negative
/// integers, each missing one taken from `defaults`. An argument that does
/// not parse, or one more than `defaults` has room for, prints the
/// offending argument and `usage` on one line and exits with status 2.
pub fn positional_args<const N: usize>(usage: &str, defaults: [usize; N]) -> [usize; N] {
    let mut values = defaults;
    for (i, arg) in std::env::args().skip(1).enumerate() {
        let problem = match (values.get_mut(i), arg.parse()) {
            (Some(value), Ok(parsed)) => {
                *value = parsed;
                continue;
            }
            (Some(_), Err(_)) => "is not a non-negative integer",
            (None, _) => "is one argument too many",
        };
        eprintln!("{arg:?} {problem}; usage: {usage}");
        std::process::exit(2);
    }
    values
}
