//! Aborted launches of GPU-ABiSort's kernels, pinned.
//!
//! Every kernel and the copy-back run once under a profile whose
//! per-instance output budget (8 bytes) is below that kernel's
//! per-instance output, and the two kernels that follow child pointers
//! (`phaseI` and `traverse-16`) also run with one corrupted pointer. Each
//! case pins, as one literal, the error, the full counters of the aborted
//! launch (cache statistics and block-fill `bytes_read` included) and a
//! hash of what the launch left in its output streams: the first
//! instance's charges and writes on a budget abort, the failing
//! instance's and its predecessors' on a bad gather.
//!
//! The comparator networks' `network-pass` aborts the same two ways,
//! through `run_network`: under a 4-byte budget (below the 8-byte
//! [`Value`] each instance writes), and with one out-of-range partner.
//! `run_network` keeps its streams to itself, so those cases pin the
//! error and the counters.

use abisort::stream_sort::kernels::{self, GroupSource};
use abisort::stream_sort::layout_plan::table1_element_block;
use baselines::network::{run_network, Role};
use stream_arch::{
    Counters, GpuProfile, Layout, Node, Result, Stream, StreamElement, StreamProcessor, Value,
};

/// Elements of the sorted input.
const N: usize = 256;

/// A child pointer far past the end of every node stream.
const BAD: u32 = 100_000;

/// The profile of every case: GeForce 7800, with an 8-byte output budget
/// when `tight`.
fn profile(tight: bool) -> GpuProfile {
    let mut profile = GpuProfile::geforce_7800();
    if tight {
        profile.max_kernel_output_bytes = 8;
    }
    profile
}

/// FNV-1a over the debug rendering of a stream's elements.
fn hash<T: StreamElement + std::fmt::Debug>(stream: &Stream<T>) -> u64 {
    format!("{:?}", stream.as_slice())
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The error, counters and output hash one launch left behind.
type Outcome = (Result<()>, Counters, u64);

/// Run `kernel` on a fresh processor and collect its outcome.
fn run(tight: bool, kernel: impl FnOnce(&mut StreamProcessor) -> (Result<()>, u64)) -> Outcome {
    let mut proc = StreamProcessor::new(profile(tight));
    let (result, hash) = kernel(&mut proc);
    (result, proc.counters(), hash)
}

fn values_stream(name: &str, values: Vec<Value>) -> Stream<Value> {
    Stream::from_vec(name, values, Layout::ZOrder)
}

/// The input bitonic trees of `N` uniform values, stored in order in the
/// upper half of a `2N`-node stream.
fn input_trees() -> Stream<Node> {
    let mut trees = Stream::new("trees-a", 2 * N, Layout::ZOrder);
    kernels::init_input_trees(&mut trees, &workloads::uniform(N, 7));
    trees
}

/// The node stream right before phase 0 of stage 0 of the merge at level
/// 2 (`N / 4` trees: roots at `[N/4, N/2)`, spares at `[0, N/4)`),
/// prepared on an unconstrained processor.
fn before_phase0(proc: &mut StreamProcessor) -> Stream<Node> {
    let mut a = input_trees();
    let mut b = Stream::new("trees-b", 2 * N, Layout::ZOrder);
    kernels::extract_roots_and_spares(proc, &a, &mut b, N, 2).unwrap();
    kernels::copy_back(proc, &b, &mut a, (0, N / 2)).unwrap();
    a
}

/// The node and pq streams right before phase 1 of the same stage.
fn before_phase1() -> (Stream<Node>, Stream<u32>) {
    let mut proc = StreamProcessor::new(profile(false));
    let mut a = before_phase0(&mut proc);
    let mut b = Stream::new("trees-b", 2 * N, Layout::ZOrder);
    let mut pq = Stream::new("pq-0", 2 * N, Layout::ZOrder);
    kernels::phase0(&mut proc, &a, &mut b, &mut pq, 0, N / 4, 1).unwrap();
    kernels::copy_back(&mut proc, &b, &mut a, (0, N / 2)).unwrap();
    (a, pq)
}

fn phase0(tight: bool) -> Outcome {
    let a = before_phase0(&mut StreamProcessor::new(profile(false)));
    run(tight, |proc| {
        let mut out = Stream::new("trees-b", 2 * N, Layout::ZOrder);
        let mut pq = Stream::new("pq-0", 2 * N, Layout::ZOrder);
        let r = kernels::phase0(proc, &a, &mut out, &mut pq, 0, N / 4, 1);
        (r, hash(&out) ^ hash(&pq).rotate_left(1))
    })
}

fn phase_i(tight: bool, corrupt: Option<usize>) -> Outcome {
    let (a, mut pq_in) = before_phase1();
    if let Some(instance) = corrupt {
        pq_in.set(2 * instance + 1, BAD);
    }
    let num_trees = N / 4;
    run(tight, |proc| {
        let mut out = Stream::new("trees-b", 2 * N, Layout::ZOrder);
        let mut pq_out = Stream::new("pq-1", 2 * N, Layout::ZOrder);
        let r = kernels::phase_i(
            proc,
            &a,
            &mut out,
            &pq_in,
            0,
            &mut pq_out,
            0,
            table1_element_block(0, 1, num_trees),
            table1_element_block(0, 2, num_trees).0,
            num_trees,
            1,
        );
        (r, hash(&out) ^ hash(&pq_out).rotate_left(1))
    })
}

fn traverse16(tight: bool, corrupt: Option<usize>) -> Outcome {
    let mut a = input_trees();
    if let Some(group) = corrupt {
        // The root's left child: its right pointer goes nowhere.
        let at = N + 16 * group + 3;
        let node = a.get(at);
        a.set(at, Node::new(node.value, node.left, BAD));
    }
    run(tight, |proc| {
        let mut out = Stream::new("scratch-values", N, Layout::ZOrder);
        let r = kernels::traverse16(proc, &a, &mut out, N / 16, GroupSource::InputTrees { n: N });
        (r, hash(&out))
    })
}

fn extract_roots_spares(tight: bool) -> Outcome {
    let a = input_trees();
    run(tight, |proc| {
        let mut out = Stream::new("trees-b", 2 * N, Layout::ZOrder);
        let r = kernels::extract_roots_and_spares(proc, &a, &mut out, N, 4);
        (r, hash(&out))
    })
}

fn commit_level(tight: bool) -> Outcome {
    let mut a = Stream::new("trees-a", 2 * N, Layout::ZOrder);
    for (i, v) in workloads::uniform(N, 3).into_iter().enumerate() {
        a.set(i, Node::leaf(v));
    }
    run(tight, |proc| {
        let mut out = Stream::new("trees-b", 2 * N, Layout::ZOrder);
        let r = kernels::commit_level(proc, &a, &mut out, N);
        (r, hash(&out))
    })
}

fn local_sort8(tight: bool) -> Outcome {
    let src = values_stream("source-values", workloads::uniform(N, 5));
    run(tight, |proc| {
        let mut out = Stream::new("scratch-values", N, Layout::ZOrder);
        let r = kernels::local_sort8(proc, &src, &mut out, N);
        (r, hash(&out))
    })
}

fn build_trees16(tight: bool) -> Outcome {
    let src = values_stream("merged-values", workloads::uniform(N, 9));
    run(tight, |proc| {
        let mut out = Stream::new("trees-b", 2 * N, Layout::ZOrder);
        let r = kernels::build_trees16(proc, &src, &mut out, N);
        (r, hash(&out))
    })
}

fn fixed_merge16(tight: bool) -> Outcome {
    let src = values_stream("scratch-values", workloads::bitonic(N, 11));
    run(tight, |proc| {
        let mut out = Stream::new("merged-values", N, Layout::ZOrder);
        let r = kernels::fixed_merge16(proc, &src, &mut out, N / 16, 2);
        (r, hash(&out))
    })
}

fn copy_back(tight: bool) -> Outcome {
    let a = input_trees();
    run(tight, |proc| {
        let mut out = Stream::new("trees-b", 2 * N, Layout::ZOrder);
        let r = kernels::copy_back(proc, &a, &mut out, (N, N));
        (r, hash(&out))
    })
}

/// One pass of adjacent compare-exchanges over `N` uniform values, with
/// a 4-byte output budget when `tight` and a partner past the end at
/// instance `bad`: the error and counters it left.
fn network_pass(tight: bool, bad: Option<usize>) -> (Result<()>, Counters) {
    let mut profile = GpuProfile::geforce_7800();
    if tight {
        profile.max_kernel_output_bytes = 4;
    }
    let mut proc = StreamProcessor::new(profile);
    let role = |_, i: usize| match i {
        _ if bad == Some(i) => Role::KeepMax {
            partner: BAD as usize,
        },
        _ if i.is_multiple_of(2) => Role::KeepMin { partner: i + 1 },
        _ => Role::KeepMax { partner: i - 1 },
    };
    let values = workloads::uniform(N, 13);
    let r = run_network(&mut proc, &values, Layout::ZOrder, 1, role).map(drop);
    (r, proc.counters())
}

/// Check every case: its name, what it left, and the `{:?}` rendering of
/// what it must leave — the error, every field of the counters, and the
/// output hash.
fn check<T: std::fmt::Debug>(cases: &[(&str, T, &str)]) {
    for (name, actual, expected) in cases {
        assert_eq!(format!("{actual:?}"), *expected, "{name}");
    }
}

#[test]
fn a_budget_abort_charges_and_writes_only_the_first_instance() {
    check(&[
        (
            "extract-roots-spares",
            extract_roots_spares(true),
            "(Err(KernelOutputTooLarge { bytes: 16, max_bytes: 8 }), Counters { launches: 1, steps: 0, kernel_instances: 1, stream_reads: 0, stream_writes: 4, gathers: 4, iter_reads: 0, comparisons: 0, bytes_written: 16, bytes_read: 256, cache: CacheStats { accesses: 1, hits: 0, misses: 1, fill_bytes: 256 }, transfer_bytes: 0 }, 4368737693617163143)",
        ),
        (
            "phase0",
            phase0(true),
            "(Err(KernelOutputTooLarge { bytes: 40, max_bytes: 8 }), Counters { launches: 1, steps: 0, kernel_instances: 1, stream_reads: 8, stream_writes: 10, gathers: 0, iter_reads: 0, comparisons: 1, bytes_written: 40, bytes_read: 512, cache: CacheStats { accesses: 2, hits: 0, misses: 2, fill_bytes: 512 }, transfer_bytes: 0 }, 2900959879848980269)",
        ),
        (
            "phaseI",
            phase_i(true, None),
            "(Err(KernelOutputTooLarge { bytes: 40, max_bytes: 8 }), Counters { launches: 1, steps: 0, kernel_instances: 1, stream_reads: 2, stream_writes: 10, gathers: 8, iter_reads: 2, comparisons: 1, bytes_written: 40, bytes_read: 320, cache: CacheStats { accesses: 4, hits: 2, misses: 2, fill_bytes: 512 }, transfer_bytes: 0 }, 15060107637291379742)",
        ),
        (
            "commit-level",
            commit_level(true),
            "(Err(KernelOutputTooLarge { bytes: 32, max_bytes: 8 }), Counters { launches: 1, steps: 0, kernel_instances: 1, stream_reads: 8, stream_writes: 8, gathers: 0, iter_reads: 0, comparisons: 0, bytes_written: 32, bytes_read: 256, cache: CacheStats { accesses: 2, hits: 1, misses: 1, fill_bytes: 256 }, transfer_bytes: 0 }, 1009670116601542779)",
        ),
        (
            "local-sort-8",
            local_sort8(true),
            "(Err(KernelOutputTooLarge { bytes: 64, max_bytes: 8 }), Counters { launches: 1, steps: 0, kernel_instances: 1, stream_reads: 16, stream_writes: 16, gathers: 0, iter_reads: 0, comparisons: 28, bytes_written: 64, bytes_read: 128, cache: CacheStats { accesses: 8, hits: 7, misses: 1, fill_bytes: 256 }, transfer_bytes: 0 }, 9985929944911366254)",
        ),
        (
            "build-trees-16",
            build_trees16(true),
            "(Err(KernelOutputTooLarge { bytes: 64, max_bytes: 8 }), Counters { launches: 1, steps: 0, kernel_instances: 1, stream_reads: 8, stream_writes: 16, gathers: 0, iter_reads: 0, comparisons: 0, bytes_written: 64, bytes_read: 128, cache: CacheStats { accesses: 4, hits: 3, misses: 1, fill_bytes: 256 }, transfer_bytes: 0 }, 728958275463351905)",
        ),
        (
            "traverse-16",
            traverse16(true, None),
            "(Err(KernelOutputTooLarge { bytes: 64, max_bytes: 8 }), Counters { launches: 1, steps: 0, kernel_instances: 1, stream_reads: 0, stream_writes: 16, gathers: 32, iter_reads: 0, comparisons: 0, bytes_written: 64, bytes_read: 256, cache: CacheStats { accesses: 8, hits: 7, misses: 1, fill_bytes: 256 }, transfer_bytes: 0 }, 5716512454890076068)",
        ),
        (
            "fixed-merge-16",
            fixed_merge16(true),
            "(Err(KernelOutputTooLarge { bytes: 64, max_bytes: 8 }), Counters { launches: 1, steps: 0, kernel_instances: 1, stream_reads: 0, stream_writes: 16, gathers: 32, iter_reads: 0, comparisons: 20, bytes_written: 64, bytes_read: 128, cache: CacheStats { accesses: 16, hits: 15, misses: 1, fill_bytes: 256 }, transfer_bytes: 0 }, 17003587236054371063)",
        ),
        (
            "copy-back",
            copy_back(true),
            "(Err(KernelOutputTooLarge { bytes: 32, max_bytes: 8 }), Counters { launches: 1, steps: 0, kernel_instances: 1, stream_reads: 8, stream_writes: 8, gathers: 0, iter_reads: 0, comparisons: 0, bytes_written: 32, bytes_read: 256, cache: CacheStats { accesses: 2, hits: 1, misses: 1, fill_bytes: 256 }, transfer_bytes: 0 }, 3253014833357044845)",
        ),
    ]);
    check(&[(
        "network-pass",
        network_pass(true, None),
        "(Err(KernelOutputTooLarge { bytes: 8, max_bytes: 4 }), Counters { launches: 1, steps: 0, kernel_instances: 1, stream_reads: 2, stream_writes: 2, gathers: 2, iter_reads: 0, comparisons: 1, bytes_written: 8, bytes_read: 128, cache: CacheStats { accesses: 2, hits: 1, misses: 1, fill_bytes: 256 }, transfer_bytes: 0 })",
    )]);
}

#[test]
fn a_corrupted_child_pointer_aborts_after_the_failing_instance() {
    // phaseI's instance 40, traverse-16's instance 10 (the lower half of
    // group 5) and network-pass's instance 40 gather past the end: 41, 11
    // and 41 instances are charged.
    check(&[
        (
            "phaseI",
            phase_i(false, Some(40)),
            "(Err(GatherOutOfBounds { stream_len: 512, index: 100000 }), Counters { launches: 1, steps: 0, kernel_instances: 41, stream_reads: 82, stream_writes: 410, gathers: 324, iter_reads: 82, comparisons: 41, bytes_written: 1640, bytes_read: 3200, cache: CacheStats { accesses: 163, hits: 146, misses: 17, fill_bytes: 4352 }, transfer_bytes: 0 }, 1761333032219350180)",
        ),
        (
            "traverse-16",
            traverse16(false, Some(5)),
            "(Err(GatherOutOfBounds { stream_len: 512, index: 100000 }), Counters { launches: 1, steps: 0, kernel_instances: 11, stream_reads: 0, stream_writes: 176, gathers: 368, iter_reads: 0, comparisons: 0, bytes_written: 704, bytes_read: 1792, cache: CacheStats { accesses: 92, hits: 85, misses: 7, fill_bytes: 1792 }, transfer_bytes: 0 }, 7981126068922646143)",
        ),
    ]);
    check(&[(
        "network-pass",
        network_pass(false, Some(40)),
        "(Err(GatherOutOfBounds { stream_len: 256, index: 100000 }), Counters { launches: 1, steps: 0, kernel_instances: 41, stream_reads: 82, stream_writes: 82, gathers: 80, iter_reads: 0, comparisons: 41, bytes_written: 328, bytes_read: 384, cache: CacheStats { accesses: 81, hits: 78, misses: 3, fill_bytes: 768 }, transfer_bytes: 0 })",
    )]);
}
