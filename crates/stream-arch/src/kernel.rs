//! Kernel-side stream access: the context, shapes and bindings of a
//! launch-wide kernel ([`crate::StreamProcessor::launch_wide`]).
//!
//! The access types mirror the paper's pseudo code (Appendix A):
//!
//! | paper construct                     | launch-wide kernel          |
//! |-------------------------------------|-----------------------------|
//! | `in stream<T>` + `read_from_stream` | [`Input`], [`LaunchCtx::read`] |
//! | `out stream<T>` + `push_onto_stream`| a `&mut [T]` block ([`crate::Stream::block_mut`]) |
//! | `gather stream<T>` + `s[i]`         | [`GatherView`], [`LaunchCtx::gather`] |
//! | `instance_index`                    | the body's loop index       |
//!
//! A kernel body runs once for all the instances of a launch, over plain
//! slices. Its [`LaunchShape`] states what each instance streams, writes,
//! iterates and compares, which the stream model fixes at bind time
//! (Section 3.2), and the launch charges that once. Instance `i` owns the
//! positions `i·r .. (i+1)·r` of each input and output block, where `r`
//! is its fixed per-instance element count. Iterator streams (the
//! hardware's index generator) are the body's own index arithmetic,
//! counted in the shape.
//!
//! Bindings and blocks are plain borrows of their streams, so the borrow
//! checker, not a runtime check, guarantees that no stream is read and
//! written by the same launch. Scatter (random-access writes) is the
//! architectural restriction the whole paper is designed around (Section
//! 3.2): a body writes instance `i`'s positions of its blocks, and nothing
//! gives it an indexed write into another stream.
//!
//! Plain event counts go into the processor's [`Counters`], and each
//! cached fetch (a streaming read or a gather) goes to the processor's
//! recorder in the order the body makes it, which feeds it to the one cost
//! model of [`crate::accounting`] — at once on the engine thread, or
//! through the fetch log a helper thread replays. The texture-cache
//! statistics are therefore complete only at a drain point
//! ([`crate::StreamProcessor::counters`] and its siblings), not inside a
//! launch. A binding remembers its stream's slot in the log's current
//! stream table (a `Cell`, so bindings are not `Sync`).

use crate::accounting::{BoundStream, FetchLog, FetchStream};
use crate::error::{Result, StreamError};
use crate::metrics::Counters;
use crate::stream::Stream;
use crate::value::StreamElement;

/// Number of 32-bit words an element of `bytes` bytes occupies (the unit
/// the per-access cost counters are kept in; the paper's GPUs shade
/// fragments in 32-bit channels, so reading a 16-byte node costs four times
/// as much shader time as reading a 4-byte index).
#[inline]
fn words(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(4).max(1)
}

/// A random-access (gather) input binding: the paper's `gather stream<T>`,
/// read by [`LaunchCtx::gather`].
///
/// It holds a shared borrow of its stream, so no output block of the
/// same stream can coexist with it:
///
/// ```compile_fail,E0502
/// use stream_arch::{GatherView, Layout, Stream};
///
/// let mut s: Stream<u32> = Stream::new("s", 8, Layout::Linear);
/// let gather = GatherView::new(&s);
/// let write = s.block_mut(0, 8).unwrap();
/// drop((gather, write));
/// ```
pub struct GatherView<'a, T> {
    data: &'a [T],
    stream: BoundStream,
}

impl<'a, T: StreamElement> GatherView<'a, T> {
    /// Bind a whole stream for gather access.
    pub fn new(stream: &'a Stream<T>) -> Self {
        GatherView {
            data: stream.as_slice(),
            stream: BoundStream::new(FetchStream::of(stream)),
        }
    }
}

/// What every instance of a launch-wide kernel streams, writes, iterates
/// and compares (see [`crate::StreamProcessor::launch_wide`]). Bind time
/// fixes all of it, so the launch charges it once, for all the instances
/// it ran.
///
/// Gathers are not part of the shape: whether one succeeds depends on
/// the data, so [`LaunchCtx::gather`] charges each as it happens. Nor are
/// comparisons whose count depends on the data, which the body charges
/// with [`LaunchCtx::count_comparisons`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LaunchShape {
    pub(crate) instances: usize,
    read_words: u64,
    write_words: u64,
    pub(crate) output_bytes: usize,
    iter_reads: u64,
    comparisons: u64,
}

impl LaunchShape {
    /// A launch of `instances` kernel instances that touch nothing yet.
    pub fn new(instances: usize) -> Self {
        LaunchShape {
            instances,
            ..LaunchShape::default()
        }
    }

    /// Each instance streaming-reads `count` elements of type `T`.
    pub fn reads<T: StreamElement>(mut self, count: usize) -> Self {
        self.read_words += count as u64 * words(T::BYTES);
        self
    }

    /// Each instance writes `count` elements of type `T`; they count
    /// against its output budget.
    pub fn writes<T: StreamElement>(mut self, count: usize) -> Self {
        self.write_words += count as u64 * words(T::BYTES);
        self.output_bytes += count * T::BYTES;
        self
    }

    /// Each instance reads `count` indices from an iterator stream (the
    /// hardware's index generator, which costs no memory traffic).
    pub fn iter_reads(mut self, count: u64) -> Self {
        self.iter_reads += count;
        self
    }

    /// Each instance makes `count` key comparisons.
    pub fn comparisons(mut self, count: u64) -> Self {
        self.comparisons += count;
        self
    }

    /// Charge `instances` instances and their fixed counts.
    pub(crate) fn charge(&self, counters: &mut Counters, instances: usize) {
        let n = instances as u64;
        counters.kernel_instances += n;
        counters.stream_reads += n * self.read_words;
        counters.stream_writes += n * self.write_words;
        counters.bytes_written += n * self.output_bytes as u64;
        counters.iter_reads += n * self.iter_reads;
        counters.comparisons += n * self.comparisons;
    }
}

/// A contiguous input substream bound for a launch-wide kernel: the
/// paper's `in stream<T>`, read by [`LaunchCtx::read`] as a plain slice.
///
/// Like a [`GatherView`], it holds a shared borrow of its stream:
///
/// ```compile_fail,E0502
/// use stream_arch::{Input, Layout, Stream};
///
/// let mut s: Stream<u32> = Stream::new("s", 8, Layout::Linear);
/// let read = Input::new(&s, 0, 8).unwrap();
/// let write = s.block_mut(0, 8).unwrap();
/// drop((read, write));
/// ```
pub struct Input<'a, T> {
    data: &'a [T],
    start: usize,
    stream: BoundStream,
}

impl<'a, T: StreamElement> Input<'a, T> {
    /// Bind elements `[start, start + len)` of `stream`.
    pub fn new(stream: &'a Stream<T>, start: usize, len: usize) -> Result<Self> {
        stream.check_range(start, len)?;
        Ok(Input {
            data: &stream.as_slice()[start..start + len],
            start,
            stream: BoundStream::new(FetchStream::of(stream)),
        })
    }
}

/// The context of a launch-wide kernel body, which runs once for all the
/// instances of a launch (see [`crate::StreamProcessor::launch_wide`]).
///
/// The body writes plain slices and reads through the context, which
/// hands every cached fetch to the processor's recorder in the order the
/// body makes it. The counts the [`LaunchShape`] fixes are charged by the
/// launch, not here. Gathers and data-dependent comparisons are charged
/// the moment they happen, so a launch that aborts — on an error or a
/// panicking body — keeps every one its instances made.
pub struct LaunchCtx<'a> {
    counters: &'a mut Counters,
    log: &'a mut FetchLog,
    error: Option<StreamError>,
    instances: usize,
    ran: usize,
}

impl<'a> LaunchCtx<'a> {
    pub(crate) fn new(counters: &'a mut Counters, log: &'a mut FetchLog, instances: usize) -> Self {
        LaunchCtx {
            counters,
            log,
            error: None,
            instances,
            ran: instances,
        }
    }

    /// The instances the body runs, `0..instances()`: all of the launch's,
    /// or only the first when its output exceeds the per-instance budget.
    #[inline]
    pub fn instances(&self) -> usize {
        self.instances
    }

    /// Record `n` key comparisons whose count depends on the data (a
    /// fixed per-instance count belongs in the [`LaunchShape`]).
    #[inline]
    pub fn count_comparisons(&mut self, n: u64) {
        self.counters.comparisons += n;
    }

    /// Streaming-read elements `[pos, pos + count)` of `input`'s block:
    /// the cached fetch goes to the recorder, and the elements come back
    /// as a slice.
    #[inline]
    pub fn read<'s, T: StreamElement>(
        &mut self,
        input: &Input<'s, T>,
        pos: usize,
        count: usize,
    ) -> &'s [T] {
        let elements = &input.data[pos..pos + count];
        self.log.record(&input.stream, input.start + pos, count);
        elements
    }

    /// Gather element `index` of `view` (the paper's
    /// `bitonicTrees[pidx]`): bounds-checked and charged on success; past
    /// the end it records the first error of the launch and returns the
    /// default value, so the instance can finish without panicking.
    #[inline]
    pub fn gather<T: StreamElement>(&mut self, view: &GatherView<'_, T>, index: usize) -> T {
        let Some(&v) = view.data.get(index) else {
            if self.error.is_none() {
                self.error = Some(StreamError::GatherOutOfBounds {
                    stream_len: view.data.len(),
                    index,
                });
            }
            return T::default();
        };
        self.charge_gathers(&view.stream, index, 1);
        v
    }

    /// Gather the consecutive elements `[start, start + out.len())` of
    /// `view` into `out`: one [`LaunchCtx::gather`] per element, charged
    /// as one block when the whole range is in bounds.
    #[inline]
    pub fn gather_range<T: StreamElement>(
        &mut self,
        view: &GatherView<'_, T>,
        start: usize,
        out: &mut [T],
    ) {
        if let Some(src) = view.data.get(start..start.saturating_add(out.len())) {
            self.charge_gathers(&view.stream, start, out.len());
            out.copy_from_slice(src);
            return;
        }
        for (i, v) in out.iter_mut().enumerate() {
            *v = self.gather(view, start.saturating_add(i));
        }
    }

    /// Charge `count` gathers of the consecutive elements from `first`.
    #[inline]
    fn charge_gathers(&mut self, stream: &BoundStream, first: usize, count: usize) {
        self.counters.gathers += count as u64 * words(stream.stream.bytes as usize);
        self.log.record(stream, first, count);
    }

    /// Run `instance` for every instance `0..instances()` in order, and
    /// stop after the first one in which a gather failed: the failing
    /// instance and its predecessors are charged. A body that gathers
    /// runs its instances through here.
    #[inline]
    pub fn for_each_instance(&mut self, mut instance: impl FnMut(&mut Self, usize)) {
        for i in 0..self.instances {
            instance(self, i);
            if self.error.is_some() {
                self.ran = i + 1;
                return;
            }
        }
    }

    /// The instances that ran and the launch's first error.
    pub(crate) fn finish(self) -> (usize, Option<StreamError>) {
        (self.ran, self.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::layout::Layout;
    use crate::per_access::PerAccess;
    use std::sync::{Arc, Mutex};

    fn test_log() -> FetchLog {
        FetchLog::new(CacheConfig::geforce_like(4))
    }

    #[test]
    fn read_returns_positions_of_the_bound_block() {
        let s = Stream::from_vec("s", (0u32..16).collect(), Layout::Linear);
        let input = Input::new(&s, 4, 8).unwrap();
        let mut c = Counters::new();
        let mut log = test_log();
        // Instance 1 of a launch reading two elements per instance.
        let mut ctx = LaunchCtx::new(&mut c, &mut log, 4);
        assert_eq!(ctx.read(&input, 2, 2), &[6, 7]);
        let model = log.drain();
        assert_eq!(model.stats().accesses, 2);
        assert!(model.bytes_read() > 0);
    }

    #[test]
    fn gather_counts_gathers_and_bounds_checks() {
        let s = Stream::from_vec("s", (0u32..8).collect(), Layout::Linear);
        let view = GatherView::new(&s);
        let mut c = Counters::new();
        let mut log = test_log();
        let mut ctx = LaunchCtx::new(&mut c, &mut log, 1);
        assert_eq!(ctx.gather(&view, 5), 5);
        assert_eq!(ctx.gather(&view, 100), 0);
        assert_eq!(ctx.gather(&view, 200), 0);
        // The first error of the launch is the one it reports.
        assert_eq!(
            ctx.finish().1,
            Some(StreamError::GatherOutOfBounds {
                stream_len: 8,
                index: 100
            })
        );
        assert_eq!(c.gathers, 1);
        assert_eq!(log.drain().stats().accesses, 1);
    }

    #[test]
    fn coalesced_cost_model_matches_the_per_access_replay_of_its_log() {
        // An interleaved read/gather pattern over two streams, then a
        // gathered range: the cost model's tile runs must give exactly the
        // cache statistics and fill bytes of probing every logged element
        // on its own.
        let nodes = Stream::from_vec(
            "nodes",
            (0u64..512).map(|i| i as u32).collect(),
            Layout::ZOrder,
        );
        let idxs = Stream::from_vec("idxs", (0u32..512).rev().collect(), Layout::ZOrder);
        let config = CacheConfig::geforce_like(4);
        let reference = Arc::new(Mutex::new(PerAccess::new(config)));
        let mut c = Counters::new();
        let mut log = FetchLog::new(config);
        let fed = Arc::clone(&reference);
        log.set_observer(Box::new(move |chunk| fed.lock().unwrap().replay(chunk)));
        let read = Input::new(&nodes, 0, 512).unwrap();
        let gather = GatherView::new(&idxs);
        let mut ctx = LaunchCtx::new(&mut c, &mut log, 128);
        ctx.for_each_instance(|ctx, instance| {
            for slot in 0..4 {
                let v = ctx.read(&read, 4 * instance + slot, 1)[0] as usize;
                let g = ctx.gather(&gather, (v * 7) % 512);
                ctx.count_comparisons(u64::from(g % 3));
            }
        });
        let mut grouped = [0u32; 16];
        ctx.gather_range(&gather, 100, &mut grouped);
        let model = log.drain();
        let reference = reference.lock().unwrap();
        let counters = Counters {
            cache: model.stats(),
            bytes_read: model.bytes_read(),
            ..c
        };
        assert_eq!(counters, reference.counters(&c));
        assert_eq!(model.stats().accesses, 512 + 512 + 16);
    }

    #[test]
    fn cached_reads_charge_block_fills() {
        let s = Stream::from_vec("s", (0u32..64).collect(), Layout::RowMajor { width: 8 });
        let input = Input::new(&s, 0, 64).unwrap();
        let mut c = Counters::new();
        let mut log = FetchLog::new(CacheConfig {
            block_edge: 4,
            num_blocks: 64,
            ways: 4,
            element_bytes: 4,
        });
        let mut ctx = LaunchCtx::new(&mut c, &mut log, 1);
        for slot in 0..64 {
            let _ = ctx.read(&input, slot, 1);
        }
        // 64 elements in an 8x8 texture with 4x4 cache tiles = 4 tiles.
        let model = log.drain();
        assert_eq!(model.stats().misses, 4);
        assert_eq!(model.bytes_read(), 4 * 16 * 4);
    }
}
