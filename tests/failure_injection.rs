//! Failure-injection tests: the simulator must enforce the architectural
//! restrictions of the paper's target hardware (Sections 3.2, 6.1, 7.1)
//! instead of silently producing wrong results.

use gpu_abisort::prelude::*;
use stream_arch::{GatherView, Input, LaunchShape, Stream, StreamError};

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
    let write = out.block_mut(0, 9).unwrap();
    let shape = LaunchShape::new(1).writes::<Value>(9);
    let err = proc
        .launch_wide("too-much-output", shape, |ctx| {
            for (slot, v) in write[..9 * ctx.instances()].iter_mut().enumerate() {
                *v = Value::new(slot as f32, 0);
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
    let write = out.block_mut(0, 8).unwrap();
    let shape = LaunchShape::new(8).writes::<Node>(1);
    let err = proc
        .launch_wide("bad-gather", shape, |ctx| {
            ctx.for_each_instance(|ctx, i| {
                // A corrupted child pointer: gather far past the stream end.
                write[i] = ctx.gather(&gather, 1_000_000 + i);
            });
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
fn substreams_must_stay_within_their_stream() {
    let s: Stream<Value> = Stream::new("values", 16, Layout::Linear);
    let err = match Input::new(&s, 8, 16) {
        Err(e) => e,
        Ok(_) => panic!("out-of-bounds input was accepted"),
    };
    assert!(matches!(err, StreamError::SubStreamOutOfBounds { .. }));
    let mut s2: Stream<Value> = Stream::new("values2", 16, Layout::Linear);
    let err = match s2.block_mut(12, 8) {
        Err(e) => e,
        Ok(_) => panic!("out-of-bounds output block was accepted"),
    };
    assert!(matches!(err, StreamError::SubStreamOutOfBounds { .. }));
}

#[test]
fn input_underflow_and_output_overflow_abort_launches() {
    // A body that reads past its bound input, or writes past its output
    // block, is a bug in the kernel, not a charge: it panics out of the
    // launch, and the processor stays usable.
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    let input = Stream::from_vec("in", workloads::uniform(4, 1), Layout::Linear);
    let mut output: Stream<Value> = Stream::new("out", 4, Layout::Linear);
    // 4 instances × 2 elements = 8 reads or writes on a 4-element substream.
    let shape = LaunchShape::new(4).reads::<Value>(2).writes::<Value>(2);
    for overflow in [false, true] {
        let read = Input::new(&input, 0, 4).unwrap();
        let write = output.block_mut(0, 4).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            proc.launch_wide("underflow", shape, |ctx| {
                for i in 0..ctx.instances() {
                    if overflow {
                        write[2 * i..2 * i + 2].fill(Value::default());
                    } else {
                        let _ = ctx.read(&read, 2 * i, 2);
                    }
                }
            })
        }));
        assert!(caught.is_err(), "overflow {overflow} must reach the caller");
    }

    proc.take_counters();
    proc.launch_copy("copy", &input, &mut output, (0, 4), 2)
        .unwrap();
    assert_eq!(output.as_slice(), input.as_slice());
    let counters = proc.counters();
    assert_eq!((counters.launches, counters.kernel_instances), (1, 2));
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
