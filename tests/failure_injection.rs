//! Failure-injection tests: the simulator must enforce the architectural
//! restrictions of the paper's target hardware (Sections 3.2, 6.1, 7.1)
//! instead of silently producing wrong results.

use gpu_abisort::prelude::*;
use stream_arch::{BlockSet, GatherView, ReadView, Stream, StreamError, WriteView};

#[test]
fn oversized_streams_are_rejected() {
    let mut profile = GpuProfile::geforce_6800();
    profile.max_texture_dim = 64; // at most 4096 elements per stream
    let proc = StreamProcessor::new(profile.clone());
    assert!(proc.check_stream_size::<Node>(4096).is_ok());
    assert!(matches!(
        proc.check_stream_size::<Node>(4097),
        Err(StreamError::StreamTooLarge { .. })
    ));

    // And the sorter surfaces the same error end to end.
    let mut proc = StreamProcessor::new(profile);
    let input = workloads::uniform(4096, 0); // needs 2n = 8192 node elements
    let err = GpuAbiSorter::new(SortConfig::default())
        .sort(&mut proc, &input)
        .unwrap_err();
    assert!(matches!(err, StreamError::StreamTooLarge { .. }));
}

#[test]
fn per_instance_output_budget_is_enforced() {
    // 9 value/pointer pairs exceed the 16 × 32-bit kernel output limit of
    // Section 7.1 (which is why the paper's local sort stops at 8 pairs).
    let mut proc = StreamProcessor::new(GpuProfile::geforce_6800());
    let mut out: Stream<Value> = Stream::new("out", 32, Layout::Linear);
    let mut write = WriteView::contiguous(&mut out, 0, 32, 9).unwrap();
    let err = proc
        .launch("too-much-output", 1, |ctx| {
            for slot in 0..9 {
                write.set(ctx, slot, Value::new(slot as f32, 0));
            }
        })
        .unwrap_err();
    assert!(matches!(err, StreamError::KernelOutputTooLarge { .. }));
}

#[test]
fn gather_out_of_bounds_aborts_the_launch() {
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    let trees: Stream<Node> = Stream::new("trees", 8, Layout::ZOrder);
    let mut out: Stream<Node> = Stream::new("out", 8, Layout::ZOrder);
    let gather = GatherView::new(&trees);
    let mut write = WriteView::contiguous(&mut out, 0, 8, 1).unwrap();
    let err = proc
        .launch("bad-gather", 8, |ctx| {
            // A corrupted child pointer: gather far past the stream end.
            let node = gather.gather(ctx, 1_000_000 + ctx.instance_index());
            write.set(ctx, 0, node);
        })
        .unwrap_err();
    assert!(matches!(err, StreamError::GatherOutOfBounds { .. }));
}

#[test]
fn input_output_aliasing_is_rejected_on_gpu_profiles_only() {
    let strict = StreamProcessor::new(GpuProfile::geforce_6800());
    let relaxed = StreamProcessor::new(GpuProfile::idealized(4));
    let s: Stream<Value> = Stream::new("values", 16, Layout::Linear);
    let inputs = [(s.id(), s.name())];
    let outputs = [(s.id(), s.name())];
    assert!(matches!(
        strict.check_distinct_io(&inputs, &outputs),
        Err(StreamError::InputOutputAliasing { .. })
    ));
    assert!(relaxed.check_distinct_io(&inputs, &outputs).is_ok());
}

#[test]
fn multi_block_substreams_require_hardware_support() {
    let no_multi = StreamProcessor::new(GpuProfile::geforce_6800().with_multi_block(false));
    assert!(no_multi.check_multi_block(1).is_ok());
    assert_eq!(
        no_multi.check_multi_block(3).unwrap_err(),
        StreamError::MultiBlockUnsupported
    );
}

#[test]
fn overlapping_output_blocks_are_rejected() {
    let err = BlockSet::multi(vec![(0, 8), (4, 8)]).unwrap_err();
    assert!(matches!(err, StreamError::OverlappingBlocks { .. }));
}

#[test]
fn substreams_must_stay_within_their_stream() {
    let s: Stream<Value> = Stream::new("values", 16, Layout::Linear);
    let err = match ReadView::contiguous(&s, 8, 16, 1) {
        Err(e) => e,
        Ok(_) => panic!("out-of-bounds read view was accepted"),
    };
    assert!(matches!(err, StreamError::SubStreamOutOfBounds { .. }));
    let mut s2: Stream<Value> = Stream::new("values2", 16, Layout::Linear);
    let err = match WriteView::contiguous(&mut s2, 12, 8, 1) {
        Err(e) => e,
        Ok(_) => panic!("out-of-bounds write view was accepted"),
    };
    assert!(matches!(err, StreamError::SubStreamOutOfBounds { .. }));
}

#[test]
fn input_underflow_and_output_overflow_abort_launches() {
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    let input: Stream<Value> = Stream::new("in", 4, Layout::Linear);
    let mut output: Stream<Value> = Stream::new("out", 4, Layout::Linear);
    {
        let read = ReadView::contiguous(&input, 0, 4, 2).unwrap();
        let mut write = WriteView::contiguous(&mut output, 0, 4, 2).unwrap();
        // 4 instances × 2 reads = 8 reads from a 4-element substream.
        let err = proc
            .launch("underflow", 4, |ctx| {
                let (a, b) = (read.get(ctx, 0), read.get(ctx, 1));
                write.set(ctx, 0, a);
                write.set(ctx, 1, b);
            })
            .unwrap_err();
        assert!(matches!(
            err,
            StreamError::InputUnderflow { .. } | StreamError::OutputOverflow { .. }
        ));
    }
}

#[test]
fn errors_have_readable_messages() {
    let e = StreamError::StreamTooLarge {
        elements: 10,
        max_elements: 5,
    };
    assert!(e.to_string().contains("maximum stream size"));
    let e = StreamError::KernelOutputTooLarge {
        bytes: 72,
        max_bytes: 64,
    };
    assert!(e.to_string().contains("72"));
    assert!(e.to_string().contains("64"));
}
