//! # workloads — input generators for the GPU-ABiSort reproduction
//!
//! The paper's evaluation (Section 8) sorts *value/pointer pairs* with
//! "uniformly distributed random floating point sort keys". The timing
//! brackets it reports for the CPU sort ("12 – 16 ms") reflect quicksort's
//! data dependence, so the data-dependence experiment (E10) additionally
//! needs sorted, reverse-sorted, nearly-sorted and few-distinct-keys
//! inputs. All generators here are deterministic given a seed, so every
//! experiment is reproducible.
//!
//! The `id` field of every generated [`Value`] is its position in the
//! generated sequence, which makes ids unique — the property the adaptive
//! bitonic sort relies on for distinctness (Section 4) — and lets tests
//! verify permutation preservation cheaply.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use stream_arch::Value;

pub mod columnar;
pub mod mix;
pub mod records;

pub use columnar::{Column, ColumnBatch};
pub use mix::{Request, RequestMix, SizeClass};

/// The input distributions used by the experiments.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Uniformly distributed random keys (the paper's main workload).
    Uniform,
    /// Already sorted ascending (quicksort-friendly or -hostile depending
    /// on the pivot strategy).
    Sorted,
    /// Sorted descending.
    Reverse,
    /// Sorted ascending, then `swaps` random transpositions.
    NearlySorted {
        /// Number of random transpositions applied to the sorted sequence.
        swaps: usize,
    },
    /// Keys drawn from only `distinct` different values.
    FewDistinct {
        /// Number of distinct key values.
        distinct: usize,
    },
    /// Ascending first half, descending second half (already bitonic).
    OrganPipe,
    /// All keys equal; ordering is decided purely by the secondary key.
    Constant,
}

impl Distribution {
    /// All distributions exercised by the data-dependence experiment (E10).
    pub fn all_for_data_dependence() -> Vec<Distribution> {
        vec![
            Distribution::Uniform,
            Distribution::Sorted,
            Distribution::Reverse,
            Distribution::NearlySorted { swaps: 64 },
            Distribution::FewDistinct { distinct: 16 },
            Distribution::OrganPipe,
        ]
    }

    /// Short name used in reports.
    pub fn name(&self) -> String {
        match self {
            Distribution::Uniform => "uniform".into(),
            Distribution::Sorted => "sorted".into(),
            Distribution::Reverse => "reverse".into(),
            Distribution::NearlySorted { swaps } => format!("nearly-sorted({swaps})"),
            Distribution::FewDistinct { distinct } => format!("few-distinct({distinct})"),
            Distribution::OrganPipe => "organ-pipe".into(),
            Distribution::Constant => "constant".into(),
        }
    }
}

impl std::str::FromStr for Distribution {
    type Err = String;

    /// Parse the textual form produced by [`Distribution::name`], so
    /// command lines like `--dist uniform` or `--dist nearly-sorted(64)`
    /// round-trip. The parameterized variants also accept their bare names
    /// (`nearly-sorted` → 64 swaps, `few-distinct` → 16 keys).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (base, param) = match (s.find('('), s.strip_suffix(')')) {
            (Some(open), Some(stripped)) => {
                let value: usize = stripped[open + 1..]
                    .parse()
                    .map_err(|e| format!("invalid parameter in {s:?}: {e}"))?;
                (&s[..open], Some(value))
            }
            (None, None) => (s, None),
            _ => return Err(format!("mismatched parentheses in {s:?}")),
        };
        match (base, param) {
            ("uniform", None) => Ok(Distribution::Uniform),
            ("sorted", None) => Ok(Distribution::Sorted),
            ("reverse", None) => Ok(Distribution::Reverse),
            ("organ-pipe", None) => Ok(Distribution::OrganPipe),
            ("constant", None) => Ok(Distribution::Constant),
            ("nearly-sorted", swaps) => Ok(Distribution::NearlySorted {
                swaps: swaps.unwrap_or(64),
            }),
            ("few-distinct", distinct) => Ok(Distribution::FewDistinct {
                distinct: distinct.unwrap_or(16),
            }),
            _ => Err(format!(
                "unknown distribution {s:?} (expected uniform | sorted | reverse | \
                 nearly-sorted[(swaps)] | few-distinct[(keys)] | organ-pipe | constant)"
            )),
        }
    }
}

/// Generate `n` value/pointer pairs with the given distribution and seed.
///
/// The `id` of the element at position `i` is `i`.
pub fn generate(dist: Distribution, n: usize, seed: u64) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<f32> = match dist {
        Distribution::Uniform => (0..n).map(|_| rng.gen::<f32>()).collect(),
        Distribution::Sorted => {
            let mut keys: Vec<f32> = (0..n).map(|_| rng.gen::<f32>()).collect();
            keys.sort_by(f32::total_cmp);
            keys
        }
        Distribution::Reverse => {
            let mut keys: Vec<f32> = (0..n).map(|_| rng.gen::<f32>()).collect();
            keys.sort_by(|a, b| b.total_cmp(a));
            keys
        }
        Distribution::NearlySorted { swaps } => {
            let mut keys: Vec<f32> = (0..n).map(|_| rng.gen::<f32>()).collect();
            keys.sort_by(f32::total_cmp);
            if n >= 2 {
                for _ in 0..swaps {
                    let i = rng.gen_range(0..n);
                    let j = rng.gen_range(0..n);
                    keys.swap(i, j);
                }
            }
            keys
        }
        Distribution::FewDistinct { distinct } => {
            let pool: Vec<f32> = (0..distinct.max(1)).map(|_| rng.gen::<f32>()).collect();
            (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
        }
        Distribution::OrganPipe => {
            let half = n / 2;
            let mut keys = Vec::with_capacity(n);
            for i in 0..half {
                keys.push(i as f32);
            }
            for i in 0..(n - half) {
                keys.push((n - half - i) as f32);
            }
            keys
        }
        Distribution::Constant => vec![0.5f32; n],
    };
    keys.into_iter()
        .enumerate()
        .map(|(i, key)| Value::new(key, i as u32))
        .collect()
}

/// Generate the paper's main workload: `n` uniform random value/pointer
/// pairs.
pub fn uniform(n: usize, seed: u64) -> Vec<Value> {
    generate(Distribution::Uniform, n, seed)
}

/// Generate a random *bitonic* sequence of length `n` (a power of two) by
/// sorting two random halves in opposite directions. Used by the merge
/// tests.
pub fn bitonic(n: usize, seed: u64) -> Vec<Value> {
    assert!(
        n.is_power_of_two(),
        "bitonic workload length must be a power of two"
    );
    let mut values = uniform(n, seed);
    let half = n / 2;
    values[..half].sort();
    values[half..].sort_by(|a, b| b.cmp(a));
    values
}

/// Generate a random permutation of `0..n` as keys (useful when exact
/// integer keys make a failure easier to read).
pub fn permutation(n: usize, seed: u64) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys: Vec<u32> = (0..n as u32).collect();
    keys.shuffle(&mut rng);
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| Value::new(k as f32, i as u32))
        .collect()
}

/// The sequence lengths of Tables 2 and 3: `2^15 .. 2^20`.
pub fn paper_sequence_lengths() -> Vec<usize> {
    (15..=20).map(|e| 1usize << e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = uniform(1024, 42);
        let b = uniform(1024, 42);
        let c = uniform(1024, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ids_are_positions() {
        for dist in Distribution::all_for_data_dependence() {
            let v = generate(dist, 257, 7);
            assert_eq!(v.len(), 257);
            for (i, x) in v.iter().enumerate() {
                assert_eq!(x.id, i as u32, "{}", dist.name());
            }
        }
    }

    #[test]
    fn sorted_and_reverse_are_monotone() {
        let s = generate(Distribution::Sorted, 500, 1);
        assert!(s.windows(2).all(|w| w[0].key <= w[1].key));
        let r = generate(Distribution::Reverse, 500, 1);
        assert!(r.windows(2).all(|w| w[0].key >= w[1].key));
    }

    #[test]
    fn few_distinct_has_few_distinct_keys() {
        let v = generate(Distribution::FewDistinct { distinct: 4 }, 1000, 3);
        let mut keys: Vec<u32> = v.iter().map(|x| x.key.to_bits()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert!(keys.len() <= 4);
    }

    #[test]
    fn constant_distribution_has_one_key() {
        let v = generate(Distribution::Constant, 64, 0);
        assert!(v.iter().all(|x| x.key == 0.5));
    }

    #[test]
    fn organ_pipe_rises_then_falls() {
        let v = generate(Distribution::OrganPipe, 64, 0);
        assert!(v[..32].windows(2).all(|w| w[0].key <= w[1].key));
        assert!(v[32..].windows(2).all(|w| w[0].key >= w[1].key));
    }

    #[test]
    fn bitonic_workload_is_bitonic() {
        let v = bitonic(256, 9);
        // First half ascending, second half descending.
        assert!(v[..128].windows(2).all(|w| w[0] <= w[1]));
        assert!(v[128..].windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bitonic_rejects_non_power_of_two() {
        let _ = bitonic(100, 0);
    }

    #[test]
    fn permutation_contains_every_key_once() {
        let v = permutation(128, 5);
        let mut keys: Vec<u32> = v.iter().map(|x| x.key as u32).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..128).collect::<Vec<_>>());
    }

    #[test]
    fn paper_lengths_match_tables() {
        assert_eq!(
            paper_sequence_lengths(),
            vec![32768, 65536, 131072, 262144, 524288, 1048576]
        );
    }

    #[test]
    fn nearly_sorted_is_close_to_sorted() {
        let v = generate(Distribution::NearlySorted { swaps: 8 }, 4096, 11);
        let inversions_adjacent = v.windows(2).filter(|w| w[0].key > w[1].key).count();
        // 8 transpositions can create at most 32 adjacent inversions.
        assert!(inversions_adjacent <= 32);
    }

    #[test]
    fn distribution_names_round_trip_through_from_str() {
        let mut all = Distribution::all_for_data_dependence();
        all.push(Distribution::Constant);
        for dist in all {
            let parsed: Distribution = dist.name().parse().unwrap();
            assert_eq!(parsed, dist, "{}", dist.name());
        }
    }

    #[test]
    fn from_str_accepts_bare_parameterized_names_with_defaults() {
        assert_eq!(
            "nearly-sorted".parse::<Distribution>().unwrap(),
            Distribution::NearlySorted { swaps: 64 }
        );
        assert_eq!(
            "few-distinct".parse::<Distribution>().unwrap(),
            Distribution::FewDistinct { distinct: 16 }
        );
        assert_eq!(
            " uniform ".parse::<Distribution>().unwrap(),
            Distribution::Uniform
        );
    }

    #[test]
    fn from_str_rejects_unknown_and_malformed_inputs() {
        assert!("gaussian".parse::<Distribution>().is_err());
        assert!("nearly-sorted(".parse::<Distribution>().is_err());
        assert!("nearly-sorted(x)".parse::<Distribution>().is_err());
        assert!("uniform(3)".parse::<Distribution>().is_err());
    }

    #[test]
    fn distribution_names_are_stable() {
        assert_eq!(Distribution::Uniform.name(), "uniform");
        assert_eq!(
            Distribution::NearlySorted { swaps: 3 }.name(),
            "nearly-sorted(3)"
        );
        assert_eq!(
            Distribution::FewDistinct { distinct: 2 }.name(),
            "few-distinct(2)"
        );
    }
}
