//! Cross-engine differential conformance suite.
//!
//! One harness runs **every sorter in the workspace** over a shared,
//! seeded matrix of key distributions × input sizes and asserts that each
//! engine's output is byte-identical (key bits + id) to `std`'s sort under
//! the library's total order — sorted output is unique under a total
//! order, so any divergence is a bug in the engine, not a tie-break
//! artefact.
//!
//! Engines: the sequential classic and simplified adaptive bitonic sorts,
//! the CPU quicksort baseline, GPU-ABiSort on the stream simulator, the
//! GPUSort / odd-even merge sort / periodic balanced network baselines,
//! the four PRAM sorters, the out-of-core terasort pipeline (via the
//! order-preserving `Value` ↔ `WideRecord` embedding), the multi-device
//! `ShardedSorter`, and the service's coalesced, solo and sharded GPU
//! routes. GPU top-k, directly and through the service, must return the
//! sorted prefix.
//!
//! Besides the workload distributions the matrix runs a domain-edge input
//! set ([`domain_edge`]): the padding sentinel's key with the sentinels'
//! own ids, every other NaN payload class, ±0, ±∞ and duplicate keys.
//!
//! The base seed comes from `CONFORMANCE_SEED` (default 2006), so CI can
//! run the whole matrix under several seeds. Per-case seeds are derived
//! from (base seed, input set, size), keeping every case independent
//! and reproducible.

use gpu_abisort::prelude::*;
use gpu_abisort::sortsvc::keys::{
    encoded_to_record, encoded_to_value, record_to_encoded, value_to_encoded,
};
use gpu_abisort::{abisort, pram, terasort};
use std::cmp::Ordering;

/// A named engine adapter. `max_len` bounds the sizes an engine is asked
/// to sort so the debug-mode suite stays fast: the O(n log² n) networks
/// and the PRAM machine pay a large constant factor per element, and
/// their large-input behaviour is already covered by their own crates'
/// tests — conformance needs their *agreement*, which the capped matrix
/// exercises fully.
type SortFn = Box<dyn Fn(&[Value]) -> Vec<Value>>;

struct EngineCase {
    name: &'static str,
    max_len: usize,
    sort: SortFn,
}

fn engines() -> Vec<EngineCase> {
    let case = |name: &'static str, max_len: usize, sort: SortFn| EngineCase {
        name,
        max_len,
        sort,
    };
    vec![
        case(
            "seq-classic",
            usize::MAX,
            Box::new(|v| {
                abisort::sequential::adaptive_bitonic_sort_with(v, abisort::MergeVariant::Classic).0
            }),
        ),
        case(
            "seq-simplified",
            usize::MAX,
            Box::new(|v| {
                abisort::sequential::adaptive_bitonic_sort_with(
                    v,
                    abisort::MergeVariant::Simplified,
                )
                .0
            }),
        ),
        case(
            "cpu-quicksort",
            usize::MAX,
            Box::new(|v| CpuSorter.sort(v).0),
        ),
        case(
            "gpu-abisort",
            usize::MAX,
            Box::new(|v| {
                let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
                GpuAbiSorter::new(SortConfig::default())
                    .sort(&mut proc, v)
                    .expect("gpu-abisort failed")
            }),
        ),
        case(
            "gpusort",
            4096,
            Box::new(|v| {
                let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
                GpuSortBaseline::new()
                    .sort(&mut proc, v)
                    .expect("gpusort failed")
                    .output
            }),
        ),
        case(
            "oems",
            4096,
            Box::new(|v| {
                let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
                OddEvenMergeSort::new()
                    .sort(&mut proc, v)
                    .expect("oems failed")
                    .output
            }),
        ),
        case(
            "pbsn",
            4096,
            Box::new(|v| {
                let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
                PeriodicBalancedSort::new()
                    .sort(&mut proc, v)
                    .expect("pbsn failed")
                    .output
            }),
        ),
        case(
            "pram-abisort",
            4096,
            Box::new(|v| {
                pram::sorters::abisort_pram::sort(v)
                    .expect("pram-abisort failed")
                    .output
            }),
        ),
        case(
            "pram-bitonic",
            4096,
            Box::new(|v| {
                pram::sorters::bitonic_network::sort(v)
                    .expect("pram-bitonic failed")
                    .output
            }),
        ),
        case(
            "pram-oem",
            4096,
            Box::new(|v| {
                pram::sorters::oem_network::sort(v)
                    .expect("pram-oem failed")
                    .output
            }),
        ),
        case(
            "pram-rank",
            4096,
            Box::new(|v| {
                pram::sorters::rank_merge::sort(v)
                    .expect("pram-rank failed")
                    .output
            }),
        ),
        case(
            "terasort",
            usize::MAX,
            Box::new(|v| {
                if v.len() <= 1 {
                    return v.to_vec();
                }
                let mut disk = SimulatedDisk::new(terasort::DiskProfile::hdd_2006());
                let input = disk.create("conformance-input");
                let records: Vec<terasort::WideRecord> = v
                    .iter()
                    .map(|v| encoded_to_record(value_to_encoded(v), v.id as u64))
                    .collect();
                disk.append(input, &records);
                let report = TeraSorter::new(TeraSortConfig {
                    run_size: 2048,
                    ..TeraSortConfig::default()
                })
                .sort(&mut disk, input)
                .expect("terasort failed");
                disk.read_all(report.output)
                    .iter()
                    .map(|r| encoded_to_value(record_to_encoded(r)))
                    .collect()
            }),
        ),
        case(
            "sharded-gpu",
            usize::MAX,
            Box::new(|v| {
                let mut pool: Vec<StreamProcessor> = (0..4)
                    .map(|_| StreamProcessor::new(GpuProfile::geforce_7800()))
                    .collect();
                ShardedSorter::new(ShardedConfig::default())
                    .sort_run(&mut pool, v)
                    .expect("sharded sort failed")
                    .output
            }),
        ),
        case("service-coalesced", usize::MAX, {
            let service = SortService::new(gpu_route(ServiceConfig::default()));
            Box::new(move |v| {
                // The input shares its batch with two reorderings of itself:
                // one size class, so one segmented submission.
                let reversed: Vec<Value> = v.iter().rev().copied().collect();
                let mut rotated = v.to_vec();
                rotated.rotate_left(v.len() / 3);
                let results = run_service(&service, &[v, &reversed, &rotated], JobKind::Sort);
                if !v.is_empty() && v.len() < ServiceConfig::default().large_job_cutoff {
                    assert!(
                        results.iter().all(|r| r.batch == results[0].batch),
                        "the jobs must coalesce into one batch"
                    );
                }
                for result in &results[1..] {
                    assert_eq!(bits(&result.output), bits(&results[0].output));
                }
                results[0].output.clone()
            })
        }),
        case("service-solo", usize::MAX, {
            let service =
                SortService::new(gpu_route(ServiceConfig::default().with_coalescing(false)));
            Box::new(move |v| run_service(&service, &[v], JobKind::Sort)[0].output.clone())
        }),
        case("service-sharded", usize::MAX, {
            let mut config = gpu_route(ServiceConfig::default().with_device_slots(4));
            config.policy.sharded_min_override = Some(2);
            let service = SortService::new(config);
            Box::new(move |v| {
                let result = &run_service(&service, &[v], JobKind::Sort)[0];
                if v.len() >= 2 {
                    assert_eq!(result.engine, Engine::ShardedGpu);
                }
                result.output.clone()
            })
        }),
    ]
}

/// `config` with every job of at least one element sent to the GPU.
fn gpu_route(mut config: ServiceConfig) -> ServiceConfig {
    config.policy.crossover_override = Some(1);
    config
}

/// Run `jobs`, all arriving at once, through `service` and return their
/// results in job order, asserting that a device engine ran every
/// non-empty job.
fn run_service(service: &SortService, jobs: &[&[Value]], kind: JobKind) -> Vec<JobResult> {
    let jobs = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| SortJob::new(i as u64, i as u32, job.to_vec()).with_kind(kind.clone()))
        .collect();
    let report = service.process(jobs).expect("service run failed");
    assert!(report.rejected.is_empty(), "{:?}", report.rejected);
    for result in report.results.iter().filter(|r| !r.output.is_empty()) {
        assert_ne!(result.engine, Engine::CpuQuicksort, "job {}", result.id);
    }
    report.results
}

/// A named top-k adapter: `(values, k)` → the `k` smallest, ascending.
type TopKFn = Box<dyn Fn(&[Value], usize) -> Vec<Value>>;

fn top_k_engines() -> Vec<(&'static str, TopKFn)> {
    let service = SortService::new(gpu_route(ServiceConfig::default()));
    vec![
        (
            "gpu-top-k",
            Box::new(|v, k| {
                let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
                GpuAbiSorter::new(SortConfig::default())
                    .top_k(&mut proc, v, k)
                    .expect("gpu top-k failed")
            }),
        ),
        (
            "service-top-k",
            Box::new(move |v, k| {
                run_service(&service, &[v], JobKind::TopK(k))[0]
                    .output
                    .clone()
            }),
        ),
    ]
}

fn base_seed() -> u64 {
    std::env::var("CONFORMANCE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2006)
}

fn distributions() -> Vec<Distribution> {
    vec![
        Distribution::Uniform,
        Distribution::Sorted,
        Distribution::Reverse,
        Distribution::NearlySorted { swaps: 16 },
        Distribution::FewDistinct { distinct: 4 },
        Distribution::OrganPipe,
        Distribution::Constant,
    ]
}

/// One input set of the matrix.
#[derive(Clone, Copy, Debug)]
enum InputSet {
    Workload(Distribution),
    DomainEdge,
}

impl InputSet {
    fn all() -> Vec<InputSet> {
        distributions()
            .into_iter()
            .map(InputSet::Workload)
            .chain([InputSet::DomainEdge])
            .collect()
    }

    fn name(self) -> String {
        match self {
            InputSet::Workload(dist) => dist.name(),
            InputSet::DomainEdge => "domain-edge".to_string(),
        }
    }

    fn generate(self, n: usize, seed: u64) -> Vec<Value> {
        match self {
            InputSet::Workload(dist) => workloads::generate(dist, n, seed),
            InputSet::DomainEdge => domain_edge(n, seed),
        }
    }
}

/// Key bits at the edges of the `f32` total order.
const EDGE_KEYS: [u32; 14] = [
    0x7FFF_FFFF, // largest positive NaN: the padding sentinel's key
    0x7FFF_FFFE, // the positive NaN just below it
    0x7FC0_0000, // quiet NaN
    0x7FC0_0001, // quiet NaN with a payload
    0x7F80_0001, // smallest signalling NaN
    0xFFFF_FFFF, // largest negative NaN
    0xFFC0_0000, // negative quiet NaN
    0xFF80_0001, // negative signalling NaN
    0x0000_0000, // +0
    0x8000_0000, // −0
    0x7F80_0000, // +∞
    0xFF80_0000, // −∞
    0x7F7F_FFFF, // f32::MAX
    0xFF7F_FFFF, // f32::MIN
];

/// SplitMix64, the seeded generator of [`domain_edge`].
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The domain-edge input set: keys drawn from [`EDGE_KEYS`] — a quarter
/// of them the padding sentinel's key, always including the first three
/// values — and a few ordinary keys, so duplicate keys abound. Half the
/// ids count down from `u32::MAX` (the sentinels' own ids), half up from
/// 0, so every (key, id) pair stays distinct as the engines require.
/// Positions are shuffled.
fn domain_edge(n: usize, seed: u64) -> Vec<Value> {
    let mut rng = SplitMix(seed);
    let mut values: Vec<Value> = (0..n)
        .map(|i| {
            let r = rng.next();
            let key = match (i, r % 4) {
                (0..=2, _) | (_, 0) => EDGE_KEYS[0],
                (_, 1 | 2) => EDGE_KEYS[(r >> 8) as usize % EDGE_KEYS.len()],
                _ => (((r >> 8) % 8) as f32).to_bits(),
            };
            let id = if i % 2 == 0 {
                u32::MAX - (i / 2) as u32
            } else {
                (i / 2) as u32
            };
            Value::new(f32::from_bits(key), id)
        })
        .collect();
    for i in (1..n).rev() {
        values.swap(i, rng.next() as usize % (i + 1));
    }
    values
}

fn bits(values: &[Value]) -> Vec<(u32, u32)> {
    values.iter().map(|v| (v.key.to_bits(), v.id)).collect()
}

fn std_sorted(values: &[Value]) -> Vec<Value> {
    let mut sorted = values.to_vec();
    sorted.sort();
    sorted
}

/// The top-k sizes checked for an `n`-element input.
fn top_k_sizes(n: usize) -> Vec<usize> {
    let mut ks = vec![1, n / 3, n.saturating_sub(1), n];
    ks.retain(|&k| k >= 1 && k <= n);
    ks.dedup();
    ks
}

/// Run every engine over the given sizes, asserting byte-identical
/// agreement with the `std` sort for each (input set, size) cell, and
/// every top-k engine against the sorted prefix.
fn run_matrix(sizes: &[usize]) {
    let seed = base_seed();
    let engines = engines();
    let top_k_engines = top_k_engines();
    for (d, set) in InputSet::all().into_iter().enumerate() {
        for &n in sizes {
            // Independent, reproducible per-cell seed.
            let cell_seed = seed
                .wrapping_mul(1_000_003)
                .wrapping_add((d as u64) << 32)
                .wrapping_add(n as u64);
            let input = set.generate(n, cell_seed);
            let expected_bits = bits(&std_sorted(&input));
            for engine in &engines {
                if n > engine.max_len {
                    continue;
                }
                let got = (engine.sort)(&input);
                assert_eq!(
                    bits(&got),
                    expected_bits,
                    "{} diverges from std sort on {} n={n} seed={cell_seed}",
                    engine.name,
                    set.name(),
                );
            }
            for (name, top_k) in &top_k_engines {
                for k in top_k_sizes(n) {
                    assert_eq!(
                        bits(&top_k(&input, k)),
                        expected_bits[..k],
                        "{name} top-{k} diverges from the sorted prefix on {} n={n} \
                         seed={cell_seed}",
                        set.name(),
                    );
                }
            }
        }
    }
}

/// The full small-size matrix: the empty input, the one- and two-element
/// edges, a non-power-of-two size, and a ~1k mid size — for every engine.
#[test]
fn all_engines_agree_on_the_small_matrix() {
    run_matrix(&[0, 1, 2, 37, 1000]);
}

/// A non-power-of-two mid size that forces multi-level padding in every
/// power-of-two engine.
#[test]
fn all_engines_agree_on_non_power_of_two_inputs() {
    run_matrix(&[1023, 2049]);
}

/// The 10k tier: engines without a debug-runtime cap (both sequential
/// variants, the CPU baseline, GPU-ABiSort, terasort, ShardedSorter) over
/// every distribution.
#[test]
fn uncapped_engines_agree_at_ten_k() {
    run_matrix(&[10_000]);
}

// ---------------------------------------------------------------------------
// Typed conformance: every `SortKey` codec, sorted through the service, must
// agree with `std` sorting the *decoded* domain under the type's native total
// order. Divergence here means the codec broke order-isomorphism somewhere
// between encode, the engines, and decode.
// ---------------------------------------------------------------------------

/// Sizes for the typed matrix: empty, singleton, pair, odd, and a size that
/// exercises real bitonic recursion depth.
const TYPED_SIZES: [usize; 5] = [0, 1, 2, 37, 1000];

/// Run every input set through `client` as keys of type `K`: `derive`
/// maps a workload value to a key, `edge` a domain-edge value.
fn typed_matrix<K, D, E, C>(client: &TypedSortClient, name: &str, derive: D, edge: E, native: C)
where
    K: SortKey + Clone + std::fmt::Debug,
    D: Fn(&Value) -> K,
    E: Fn(&Value) -> K,
    C: Fn(&K, &K) -> Ordering + Copy,
{
    for (d, set) in InputSet::all().into_iter().enumerate() {
        for &n in &TYPED_SIZES {
            let cell_seed = base_seed()
                .wrapping_mul(999_983)
                .wrapping_add((d as u64) << 32)
                .wrapping_add(n as u64);
            let values = set.generate(n, cell_seed);
            let keys: Vec<K> = match set {
                InputSet::Workload(_) => values.iter().map(&derive).collect(),
                InputSet::DomainEdge => values.iter().map(&edge).collect(),
            };

            let mut expected = keys.clone();
            expected.sort_by(|a, b| native(a, b));
            // Equal keys decode identically, so comparing encodings is exact
            // even for duplicate-heavy inputs (and sidesteps NaN != NaN).
            let want: Vec<u64> = expected.iter().map(SortKey::encode).collect();

            let result = client.submit_keys(&keys).expect("typed sort");
            let got: Vec<u64> = result.keys.iter().map(SortKey::encode).collect();
            assert_eq!(
                got,
                want,
                "typed `{name}` diverges from std sort on {} n={n}",
                set.name()
            );

            if n > 1 {
                let k = (n / 3).max(1);
                let top = client.submit_top_k(&keys, k).expect("typed top-k");
                let got_k: Vec<u64> = top.keys.iter().map(SortKey::encode).collect();
                assert_eq!(
                    got_k,
                    want[..k],
                    "typed `{name}` top-{k} != sorted prefix on {} n={n}",
                    set.name()
                );
            }
        }
    }
}

/// The `K` whose encoding is the top `K::BITS` bits of `v`'s 64-bit
/// encoding: near `K`'s maximum for values at the top of the `Value`
/// domain (a NaN with a high payload for floats).
fn at_the_top<K: SortKey>(v: &Value) -> K {
    K::decode(value_to_encoded(v) >> (64 - K::BITS))
}

fn str_key_from_bits(bits: u32) -> StrKey {
    let len = (bits % 9) as usize; // 0..=8 covers empty through max-length.
    let s: String = (0..len)
        .map(|i| (b'a' + ((bits >> (3 * i)) & 0x0f) as u8) as char)
        .collect();
    StrKey::new(&s).expect("generated string fits the inline prefix")
}

#[test]
fn typed_sorts_agree_with_std_sort_on_the_decoded_domain() {
    // The calibrated routes, and every job on the GPU.
    for config in [
        ServiceConfig::default(),
        gpu_route(ServiceConfig::default()),
    ] {
        let client = TypedSortClient::new(config);
        typed_matrix(
            &client,
            "u64",
            |v| v.key.to_bits() as u64,
            at_the_top::<u64>,
            |a: &u64, b| a.cmp(b),
        );
        typed_matrix(
            &client,
            "u32",
            |v| v.key.to_bits(),
            at_the_top::<u32>,
            |a: &u32, b| a.cmp(b),
        );
        typed_matrix(
            &client,
            "i64",
            |v| (v.key.to_bits() as i64).wrapping_mul(37) - (1 << 40),
            at_the_top::<i64>,
            |a: &i64, b| a.cmp(b),
        );
        typed_matrix(
            &client,
            "f32",
            |v| v.key,
            at_the_top::<f32>,
            |a: &f32, b| a.total_cmp(b),
        );
        typed_matrix(
            &client,
            "f64",
            |v| v.key as f64,
            at_the_top::<f64>,
            |a: &f64, b| a.total_cmp(b),
        );
        typed_matrix(
            &client,
            "(u16,i32)",
            |v| ((v.key.to_bits() >> 16) as u16, v.id as i32 - 500),
            at_the_top::<(u16, i32)>,
            |a: &(u16, i32), b| a.cmp(b),
        );
        typed_matrix(
            &client,
            "strkey",
            |v| str_key_from_bits(v.key.to_bits()),
            |v| str_key_from_bits(v.key.to_bits()),
            |a: &StrKey, b| a.as_str().cmp(b.as_str()),
        );
    }
}

#[test]
fn typed_float_specials_sort_in_ieee_total_order() {
    let client = TypedSortClient::new(ServiceConfig::default());

    let f32s = vec![
        f32::NAN,
        f32::NEG_INFINITY,
        f32::INFINITY,
        -0.0_f32,
        0.0_f32,
        -f32::NAN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1.5,
        -1.5,
        f32::MAX,
        f32::MIN,
    ];
    let result = client.submit_keys(&f32s).expect("f32 specials");
    let mut want = f32s.clone();
    want.sort_by(|a, b| a.total_cmp(b));
    assert_eq!(
        result.keys.iter().map(|k| k.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|k| k.to_bits()).collect::<Vec<_>>(),
        "f32 specials out of IEEE total order"
    );

    let f64s = vec![
        f64::NAN,
        f64::NEG_INFINITY,
        f64::INFINITY,
        -0.0_f64,
        0.0_f64,
        -f64::NAN,
        f64::MIN_POSITIVE,
        1e-300,
        -1e300,
        f64::MAX,
        f64::MIN,
    ];
    let result = client.submit_keys(&f64s).expect("f64 specials");
    let mut want = f64s.clone();
    want.sort_by(|a, b| a.total_cmp(b));
    assert_eq!(
        result.keys.iter().map(|k| k.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|k| k.to_bits()).collect::<Vec<_>>(),
        "f64 specials out of IEEE total order"
    );
}

// ---------------------------------------------------------------------------
// Pinned regressions at the top of the key domain: inputs that carry the
// padding sentinel's key are data, and must never be cut off as padding.
// ---------------------------------------------------------------------------

/// A value with the sentinel key and the first sentinel's id, sorted with
/// four ordinary values, comes back last on every engine and route.
#[test]
fn a_sentinel_key_input_sorts_last_on_every_engine() {
    let input = [
        Value::new(f32::from_bits(0x7FFF_FFFF), u32::MAX),
        Value::new(1.0, 0),
        Value::new(2.0, 1),
        Value::new(3.0, 2),
        Value::new(4.0, 3),
    ];
    let expected = bits(&std_sorted(&input));
    assert_eq!(expected[4], (0x7FFF_FFFF, u32::MAX));
    for engine in engines() {
        assert_eq!(bits(&(engine.sort)(&input)), expected, "{}", engine.name);
    }
    for (name, top_k) in top_k_engines() {
        for k in 1..=input.len() {
            assert_eq!(bits(&top_k(&input, k)), expected[..k], "{name} top-{k}");
        }
    }
}

/// The top of the `u64`, `i64` and `f64` domains on the GPU route.
#[test]
fn the_top_of_the_typed_domains_round_trips_on_the_gpu_route() {
    let client = TypedSortClient::new(gpu_route(ServiceConfig::default()));

    let result = client.submit_keys(&[u64::MAX, u64::MAX - 1]).expect("u64");
    assert_eq!(result.keys, [u64::MAX - 1, u64::MAX]);

    let result = client
        .submit_keys(&[i64::MAX, 0, -5, i64::MAX - 2, 3])
        .expect("i64");
    assert_eq!(result.keys, [-5, 0, 3, i64::MAX - 2, i64::MAX]);

    let nan = f64::from_bits(0x7FFF_FFFF_FFFF_FFFF);
    let result = client.submit_keys(&[nan, 1.0, f64::INFINITY]).expect("f64");
    assert_eq!(
        result.keys.iter().map(|k| k.to_bits()).collect::<Vec<_>>(),
        [1.0f64.to_bits(), f64::INFINITY.to_bits(), nan.to_bits()]
    );

    let top = client
        .submit_top_k(&[u64::MAX, 7, u64::MAX - 1], 2)
        .expect("u64 top-k");
    assert_eq!(top.keys, [7, u64::MAX - 1]);
}
