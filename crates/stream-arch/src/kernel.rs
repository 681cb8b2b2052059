//! Kernel-side stream access: the contexts and typed views a kernel uses
//! to touch stream memory, in the two launch forms of
//! [`crate::StreamProcessor`].
//!
//! The access types mirror the paper's pseudo code (Appendix A):
//!
//! | paper construct                     | per instance   | launch-wide         |
//! |-------------------------------------|----------------|---------------------|
//! | `in stream<T>` + `read_from_stream` | [`ReadView`]   | [`Input`]           |
//! | `out stream<T>` + `push_onto_stream`| [`WriteView`]  | a `&mut [T]` block  |
//! | `gather stream<T>` + `s[i]`         | [`GatherView`] | [`GatherView`]      |
//! | `instance_index`                    | [`KernelCtx::instance_index`] | the body's loop index |
//!
//! A **per-instance** kernel ([`crate::StreamProcessor::launch`]) runs once
//! per instance. Its linear access is positional: instance `i` owns the
//! logical positions `i·r .. (i+1)·r` of the substream, where `r` is the
//! fixed per-instance element count declared when the view is created,
//! and addresses them by *slot* (`0..r`) — the paper's sequence of
//! `read_from_stream` / `push_onto_stream` calls without per-instance
//! cursor state. Every access is charged as it happens, through the
//! [`KernelCtx`].
//!
//! A **launch-wide** kernel ([`crate::StreamProcessor::launch_wide`]) runs
//! once for all instances over plain slices. Its [`LaunchShape`] states
//! what each instance streams, writes and compares, which the stream model
//! fixes at bind time (Section 3.2), and the launch charges that once.
//! Iterator streams (the hardware's index generator) are the body's own
//! index arithmetic, counted in the shape.
//!
//! Either way, views and blocks are plain borrows of their streams, so
//! the borrow checker, not a runtime check, guarantees that no stream is
//! read and written by the same launch. Scatter (random-access writes) is
//! the architectural restriction the whole paper is designed around
//! (Section 3.2): a [`WriteView`] has no indexed write, and a launch-wide
//! body writes instance `i`'s positions `i·r .. (i+1)·r` of its blocks,
//! as the per-instance form would.
//!
//! Plain event counts go into the processor's [`Counters`], and each
//! cached fetch (a streaming read or a gather) goes to the processor's
//! recorder in instance order, which feeds it to the one cost model of
//! [`crate::accounting`] — at once on the engine thread, or through the
//! fetch log a helper thread replays. The texture-cache statistics are
//! therefore complete only at a drain point
//! ([`crate::StreamProcessor::counters`] and its siblings), not inside a
//! launch.

use crate::accounting::{FetchLog, FetchStream};
use crate::error::{Result, StreamError};
use crate::metrics::Counters;
use crate::stream::{BlockSet, Stream};
use crate::value::StreamElement;

/// Number of 32-bit words an element of `bytes` bytes occupies (the unit
/// the per-access cost counters are kept in; the paper's GPUs shade
/// fragments in 32-bit channels, so reading a 16-byte node costs four times
/// as much shader time as reading a 4-byte index).
#[inline]
fn words(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(4).max(1)
}

/// Per-instance execution context handed to the kernel closure.
///
/// It carries the instance index, the processor's counters and fetch log,
/// and the bytes the instance pushed so far (which the executor checks
/// against Section 7.1's 16 × 32-bit output budget). Charges land the
/// moment an access happens, so a launch that aborts — on an error or a
/// panicking kernel — keeps everything its instances touched.
pub struct KernelCtx<'a> {
    pub(crate) instance: usize,
    pub(crate) counters: &'a mut Counters,
    log: &'a mut FetchLog,
    pub(crate) bytes_pushed: usize,
    pub(crate) error: Option<StreamError>,
}

impl<'a> KernelCtx<'a> {
    /// Build a context for the instances of one launch (the executor
    /// resets the per-instance state via [`KernelCtx::begin_instance`]).
    pub(crate) fn new(counters: &'a mut Counters, log: &'a mut FetchLog) -> Self {
        KernelCtx {
            instance: 0,
            counters,
            log,
            bytes_pushed: 0,
            error: None,
        }
    }

    /// Reset the per-instance state (output budget, error) for the next
    /// instance of the launch.
    #[inline]
    pub(crate) fn begin_instance(&mut self, instance: usize) {
        self.instance = instance;
        self.bytes_pushed = 0;
        self.error = None;
    }

    /// The index of this kernel instance within the stream operation
    /// (the paper's `instance_index`).
    #[inline]
    pub fn instance_index(&self) -> usize {
        self.instance
    }

    /// Record `n` key comparisons (for the work-complexity experiments).
    #[inline]
    pub fn count_comparisons(&mut self, n: u64) {
        self.counters.comparisons += n;
    }

    /// True once any access of this instance failed; subsequent accesses
    /// return defaults so the kernel can finish without panicking.
    #[inline]
    pub fn failed(&self) -> bool {
        self.error.is_some()
    }

    #[inline]
    pub(crate) fn record_error(&mut self, e: StreamError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Charge `count` streaming reads of the consecutive elements from
    /// `first`.
    #[inline]
    fn charge_reads(&mut self, stream: FetchStream, first: usize, count: usize) {
        self.counters.stream_reads += count as u64 * words(stream.bytes as usize);
        self.log.record(stream, first, count);
    }

    /// Charge `count` gathers of the consecutive elements from `first`.
    #[inline]
    fn charge_gathers(&mut self, stream: FetchStream, first: usize, count: usize) {
        self.counters.gathers += count as u64 * words(stream.bytes as usize);
        self.log.record(stream, first, count);
    }

    /// Charge `count` linear writes of `bytes`-byte elements (writes
    /// bypass the texture cache, so this is pure arithmetic).
    #[inline]
    fn charge_writes(&mut self, count: usize, bytes: usize) {
        self.counters.stream_writes += count as u64 * words(bytes);
        self.counters.bytes_written += (count * bytes) as u64;
        self.bytes_pushed += count * bytes;
    }
}

/// A linear (streaming-read) input view: the paper's `in stream<T>`.
pub struct ReadView<'a, T> {
    data: &'a [T],
    stream: FetchStream,
    blocks: BlockSet,
    per_instance: usize,
}

impl<'a, T: StreamElement> ReadView<'a, T> {
    /// Bind an input substream. Each kernel instance reads exactly
    /// `per_instance` elements from it.
    pub fn new(stream: &'a Stream<T>, blocks: BlockSet, per_instance: usize) -> Result<Self> {
        stream.check_blocks(&blocks)?;
        Ok(ReadView {
            data: stream.as_slice(),
            stream: FetchStream::of(stream),
            blocks,
            per_instance,
        })
    }

    /// Convenience constructor for a single contiguous range.
    pub fn contiguous(
        stream: &'a Stream<T>,
        start: usize,
        len: usize,
        per_instance: usize,
    ) -> Result<Self> {
        Self::new(stream, BlockSet::contiguous(start, len), per_instance)
    }

    /// Read slot `slot` (0-based) of this instance's elements.
    #[inline]
    pub fn get(&self, ctx: &mut KernelCtx<'_>, slot: usize) -> T {
        debug_assert!(slot < self.per_instance, "slot out of range");
        let pos = ctx.instance * self.per_instance + slot;
        if pos >= self.blocks.total() {
            ctx.record_error(StreamError::InputUnderflow {
                capacity: self.blocks.total(),
                required: pos + 1,
            });
            return T::default();
        }
        let global = self.blocks.locate(pos);
        ctx.charge_reads(self.stream, global, 1);
        self.data[global]
    }
}

/// A random-access (gather) input view: the paper's `gather stream<T>`.
pub struct GatherView<'a, T> {
    data: &'a [T],
    stream: FetchStream,
}

impl<'a, T: StreamElement> GatherView<'a, T> {
    /// Bind a whole stream for gather access.
    pub fn new(stream: &'a Stream<T>) -> Self {
        GatherView {
            data: stream.as_slice(),
            stream: FetchStream::of(stream),
        }
    }

    /// Random read of element `index` (the paper's `bitonicTrees[pidx]`).
    #[inline]
    pub fn gather(&self, ctx: &mut KernelCtx<'_>, index: usize) -> T {
        let Some(&v) = self.data.get(index) else {
            ctx.record_error(StreamError::GatherOutOfBounds {
                stream_len: self.data.len(),
                index,
            });
            return T::default();
        };
        ctx.charge_gathers(self.stream, index, 1);
        v
    }
}

/// A linear output view: the paper's `out stream<T>` written with
/// `push_onto_stream`.
///
/// The view holds the exclusive borrow of its stream for as long as it
/// lives, so no read view of the same stream can coexist with it:
///
/// ```compile_fail,E0502
/// use stream_arch::{Layout, ReadView, Stream, WriteView};
///
/// let mut s: Stream<u32> = Stream::new("s", 8, Layout::Linear);
/// let read = ReadView::contiguous(&s, 0, 8, 1).unwrap();
/// let write = WriteView::contiguous(&mut s, 0, 8, 1).unwrap();
/// drop((read, write));
/// ```
///
/// and likewise for a [`GatherView`]:
///
/// ```compile_fail,E0502
/// use stream_arch::{GatherView, Layout, Stream, WriteView};
///
/// let mut s: Stream<u32> = Stream::new("s", 8, Layout::Linear);
/// let gather = GatherView::new(&s);
/// let write = WriteView::contiguous(&mut s, 0, 8, 1).unwrap();
/// drop((gather, write));
/// ```
pub struct WriteView<'a, T> {
    data: &'a mut [T],
    blocks: BlockSet,
    per_instance: usize,
}

impl<'a, T: StreamElement> WriteView<'a, T> {
    /// Bind an output substream. Each kernel instance writes exactly
    /// `per_instance` elements.
    pub fn new(stream: &'a mut Stream<T>, blocks: BlockSet, per_instance: usize) -> Result<Self> {
        stream.check_blocks(&blocks)?;
        Ok(WriteView {
            data: stream.as_mut_slice(),
            blocks,
            per_instance,
        })
    }

    /// Convenience constructor for a single contiguous range.
    pub fn contiguous(
        stream: &'a mut Stream<T>,
        start: usize,
        len: usize,
        per_instance: usize,
    ) -> Result<Self> {
        Self::new(stream, BlockSet::contiguous(start, len), per_instance)
    }

    /// Write `value` into slot `slot` of this instance's output positions
    /// (the paper's `push_onto_stream`). Writes bypass the texture cache
    /// (the ROP path), so only the write counters are charged.
    #[inline]
    pub fn set(&mut self, ctx: &mut KernelCtx<'_>, slot: usize, value: T) {
        debug_assert!(slot < self.per_instance, "slot out of range");
        let pos = ctx.instance * self.per_instance + slot;
        if pos >= self.blocks.total() {
            ctx.record_error(StreamError::OutputOverflow {
                capacity: self.blocks.total(),
                required: pos + 1,
            });
            return;
        }
        let global = self.blocks.locate(pos);
        ctx.charge_writes(1, T::BYTES);
        self.data[global] = value;
    }
}

/// What every instance of a launch-wide kernel streams, writes, iterates
/// and compares (see [`crate::StreamProcessor::launch_wide`]). Bind time
/// fixes all of it, so the launch charges it once, for all the instances
/// it ran.
///
/// Gathers are not part of the shape: whether one succeeds depends on
/// the data, so [`LaunchCtx::gather`] charges each as it happens.
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

    /// Charge the fixed counts of `instances` instances.
    pub(crate) fn charge(&self, counters: &mut Counters, instances: usize) {
        let n = instances as u64;
        counters.stream_reads += n * self.read_words;
        counters.stream_writes += n * self.write_words;
        counters.bytes_written += n * self.output_bytes as u64;
        counters.iter_reads += n * self.iter_reads;
        counters.comparisons += n * self.comparisons;
    }
}

/// A contiguous input substream bound for a launch-wide kernel: the
/// paper's `in stream<T>`, read by [`LaunchCtx::read`] as a plain slice.
pub struct Input<'a, T> {
    data: &'a [T],
    start: usize,
    stream: FetchStream,
}

impl<'a, T: StreamElement> Input<'a, T> {
    /// Bind elements `[start, start + len)` of `stream`.
    pub fn new(stream: &'a Stream<T>, start: usize, len: usize) -> Result<Self> {
        stream.check_blocks(&BlockSet::contiguous(start, len))?;
        Ok(Input {
            data: &stream.as_slice()[start..start + len],
            start,
            stream: FetchStream::of(stream),
        })
    }
}

/// The context of a launch-wide kernel body, which runs once for all the
/// instances of a launch (see [`crate::StreamProcessor::launch_wide`]).
///
/// The body writes plain slices and reads through the context, which
/// hands every cached fetch to the processor's recorder in the order the
/// body makes it. The counts the [`LaunchShape`] fixes are charged by the
/// launch, not here.
pub struct LaunchCtx<'a> {
    ctx: KernelCtx<'a>,
    instances: usize,
    ran: usize,
}

impl<'a> LaunchCtx<'a> {
    pub(crate) fn new(counters: &'a mut Counters, log: &'a mut FetchLog, instances: usize) -> Self {
        LaunchCtx {
            ctx: KernelCtx::new(counters, log),
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
        self.ctx.log.record(input.stream, input.start + pos, count);
        elements
    }

    /// Gather element `index` of `view`, exactly as [`GatherView::gather`]
    /// does in a per-instance launch: bounds-checked and charged on
    /// success; past the end it records the first error of the launch and
    /// returns the default value.
    #[inline]
    pub fn gather<T: StreamElement>(&mut self, view: &GatherView<'_, T>, index: usize) -> T {
        view.gather(&mut self.ctx, index)
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
            self.ctx.charge_gathers(view.stream, start, out.len());
            out.copy_from_slice(src);
            return;
        }
        for (i, v) in out.iter_mut().enumerate() {
            *v = view.gather(&mut self.ctx, start.saturating_add(i));
        }
    }

    /// Run `instance` for every instance `0..instances()` in order, and
    /// stop after the first one in which a gather failed: the abort of a
    /// per-instance launch, which charges the failing instance and its
    /// predecessors. A body that gathers runs its instances through here.
    #[inline]
    pub fn for_each_instance(&mut self, mut instance: impl FnMut(&mut Self, usize)) {
        for i in 0..self.instances {
            instance(self, i);
            if self.ctx.failed() {
                self.ran = i + 1;
                return;
            }
        }
    }

    /// The instances that ran and the launch's first error.
    pub(crate) fn finish(self) -> (usize, Option<StreamError>) {
        (self.ran, self.ctx.error)
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

    fn test_ctx<'a>(
        instance: usize,
        counters: &'a mut Counters,
        log: &'a mut FetchLog,
    ) -> KernelCtx<'a> {
        let mut ctx = KernelCtx::new(counters, log);
        ctx.begin_instance(instance);
        ctx
    }

    #[test]
    fn read_view_positional_access() {
        let s = Stream::from_vec("s", (0u32..16).collect(), Layout::Linear);
        let view = ReadView::contiguous(&s, 4, 8, 2).unwrap();
        let mut c = Counters::new();
        let mut log = test_log();
        let mut ctx = test_ctx(1, &mut c, &mut log);
        assert_eq!((view.get(&mut ctx, 0), view.get(&mut ctx, 1)), (6, 7));
        assert_eq!(c.stream_reads, 2);
        let model = log.drain();
        assert_eq!(model.stats().accesses, 2);
        assert!(model.bytes_read() > 0);
    }

    #[test]
    fn read_view_underflow_is_reported_not_panicking() {
        let s = Stream::from_vec("s", (0u32..4).collect(), Layout::Linear);
        let view = ReadView::contiguous(&s, 0, 4, 2).unwrap();
        let mut c = Counters::new();
        let mut log = test_log();
        let mut ctx = test_ctx(2, &mut c, &mut log); // instance 2 needs positions 4,5
        let _ = view.get(&mut ctx, 0);
        assert!(ctx.failed());
        assert!(matches!(
            ctx.error,
            Some(StreamError::InputUnderflow { .. })
        ));
    }

    #[test]
    fn gather_view_counts_gathers_and_bounds_checks() {
        let s = Stream::from_vec("s", (0u32..8).collect(), Layout::Linear);
        let view = GatherView::new(&s);
        let mut c = Counters::new();
        let mut log = test_log();
        {
            let mut ctx = test_ctx(0, &mut c, &mut log);
            assert_eq!(view.gather(&mut ctx, 5), 5);
            let _ = view.gather(&mut ctx, 100);
            assert!(matches!(
                ctx.error,
                Some(StreamError::GatherOutOfBounds { .. })
            ));
        }
        assert_eq!(c.gathers, 1);
        assert_eq!(log.drain().stats().accesses, 1);
    }

    #[test]
    fn write_view_writes_disjoint_positions() {
        let mut s: Stream<u32> = Stream::new("out", 8, Layout::Linear);
        {
            let mut view = WriteView::contiguous(&mut s, 0, 8, 2).unwrap();
            let mut c = Counters::new();
            let mut log = test_log();
            for instance in 0..4 {
                let mut ctx = test_ctx(instance, &mut c, &mut log);
                view.set(&mut ctx, 0, instance as u32 * 10);
                view.set(&mut ctx, 1, instance as u32 * 10 + 1);
            }
            assert_eq!(c.stream_writes, 8);
            assert_eq!(c.bytes_written, 8 * 4);
        }
        assert_eq!(s.as_slice(), &[0, 1, 10, 11, 20, 21, 30, 31]);
    }

    #[test]
    fn write_view_multi_block_destinations() {
        let mut s: Stream<u32> = Stream::new("out", 12, Layout::Linear);
        let blocks = BlockSet::multi(vec![(8, 2), (0, 4)]).unwrap();
        {
            let mut view = WriteView::new(&mut s, blocks, 2).unwrap();
            let mut c = Counters::new();
            let mut log = test_log();
            for instance in 0..3 {
                let mut ctx = test_ctx(instance, &mut c, &mut log);
                view.set(&mut ctx, 0, 100 + instance as u32);
                view.set(&mut ctx, 1, 200 + instance as u32);
            }
        }
        assert_eq!(&s.as_slice()[8..10], &[100, 200]);
        assert_eq!(&s.as_slice()[0..4], &[101, 201, 102, 202]);
    }

    #[test]
    fn write_view_overflow_reported() {
        let mut s: Stream<u32> = Stream::new("out", 4, Layout::Linear);
        let mut view = WriteView::contiguous(&mut s, 0, 4, 2).unwrap();
        let mut c = Counters::new();
        let mut log = test_log();
        let mut ctx = test_ctx(2, &mut c, &mut log);
        view.set(&mut ctx, 0, 1);
        assert!(matches!(
            ctx.error,
            Some(StreamError::OutputOverflow { .. })
        ));
    }

    #[test]
    fn coalesced_cost_model_matches_the_per_access_replay_of_its_log() {
        // An interleaved read/gather pattern over two streams, then a
        // launch-wide gathered range:
        // the cost model's tile runs must give exactly the cache statistics
        // and fill bytes of probing every logged element on its own.
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
        let mut ctx = KernelCtx::new(&mut c, &mut log);
        let read = ReadView::contiguous(&nodes, 0, 512, 4).unwrap();
        let gather = GatherView::new(&idxs);
        for instance in 0..128usize {
            ctx.begin_instance(instance);
            for slot in 0..4 {
                let v = read.get(&mut ctx, slot) as usize;
                let g = gather.gather(&mut ctx, (v * 7) % 512);
                ctx.count_comparisons(u64::from(g % 3));
            }
        }
        let mut grouped = [0u32; 16];
        LaunchCtx::new(&mut c, &mut log, 1).gather_range(&gather, 100, &mut grouped);
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
        let view = ReadView::contiguous(&s, 0, 64, 64).unwrap();
        let mut c = Counters::new();
        let mut log = FetchLog::new(CacheConfig {
            block_edge: 4,
            num_blocks: 64,
            ways: 4,
            element_bytes: 4,
        });
        let mut ctx = test_ctx(0, &mut c, &mut log);
        for slot in 0..64 {
            let _ = view.get(&mut ctx, slot);
        }
        // 64 elements in an 8x8 texture with 4x4 cache tiles = 4 tiles.
        let model = log.drain();
        assert_eq!(model.stats().misses, 4);
        assert_eq!(model.bytes_read(), 4 * 16 * 4);
    }
}
