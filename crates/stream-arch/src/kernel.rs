//! Kernel-side stream access: the per-instance context and the typed views
//! a kernel uses to touch stream memory.
//!
//! The access types mirror the paper's pseudo code (Appendix A):
//!
//! | paper construct                    | this module            |
//! |------------------------------------|------------------------|
//! | `in stream<T>` + `read_from_stream`| [`ReadView`]           |
//! | `out stream<T>` + `push_onto_stream`| [`WriteView`]         |
//! | `gather stream<T>` + `s[i]`        | [`GatherView`]         |
//! | `iter_stream<index_t>`             | [`IterStream`]         |
//! | `instance_index`                   | [`KernelCtx::instance_index`] |
//!
//! Linear (`in`/`out`) access is positional: kernel instance `i` owns the
//! logical positions `i·r .. (i+1)·r` of the substream, where `r` is the
//! fixed per-instance element count declared when the view is created. The
//! kernel addresses them by *slot* (`0..r`), which is equivalent to the
//! paper's sequence of `read_from_stream` / `push_onto_stream` calls but
//! keeps the views free of per-instance cursor state. Because positions are
//! derived from the instance index alone, distinct instances never write the
//! same location.
//!
//! The views are plain borrows of their streams: a [`ReadView`] or
//! [`GatherView`] holds `&[T]`, a [`WriteView`] holds `&mut [T]`. So the
//! borrow checker, not a runtime check, guarantees that no stream is read
//! and written by the same launch.
//!
//! Scatter (random-access writes) is simply not expressible: [`WriteView`]
//! has no indexed write method. This is the architectural restriction the
//! whole paper is designed around (Section 3.2).
//!
//! Every access is charged as it happens, through the [`KernelCtx`]: plain
//! event counts go into the processor's [`Counters`], and each cached
//! fetch (a streaming read or a gather) goes to the processor's recorder,
//! which feeds it to the one cost model of [`crate::accounting`] — at
//! once on the engine thread, or through the fetch log a helper thread
//! replays. The texture-cache statistics are therefore complete only at a
//! drain point ([`crate::StreamProcessor::counters`] and its siblings),
//! not inside a launch. The views' block accessors ([`ReadView::read_into`],
//! [`GatherView::gather_range`], [`WriteView::write_all`],
//! [`IterStream::pair`]) charge a whole contiguous range at once; their
//! per-element fallbacks (multi-block substreams, ranges that run past
//! the end) charge element by element, so the result is the same either
//! way.

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
    pub(crate) fn charge_reads(&mut self, stream: FetchStream, first: usize, count: usize) {
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
    pub(crate) fn charge_writes(&mut self, count: usize, bytes: usize) {
        self.counters.stream_writes += count as u64 * words(bytes);
        self.counters.bytes_written += (count * bytes) as u64;
        self.bytes_pushed += count * bytes;
    }

    /// Charge `count` iterator-stream reads.
    #[inline]
    fn charge_iter(&mut self, count: usize) {
        self.counters.iter_reads += count as u64;
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

    /// Total number of elements in the bound substream.
    pub fn capacity(&self) -> usize {
        self.blocks.total()
    }

    /// Elements read by each kernel instance.
    pub fn per_instance(&self) -> usize {
        self.per_instance
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

    /// Read the first two slots as a pair (`read_from_stream` twice).
    #[inline]
    pub fn pair(&self, ctx: &mut KernelCtx<'_>) -> (T, T) {
        let mut buf = [T::default(); 2];
        self.read_into(ctx, &mut buf);
        (buf[0], buf[1])
    }

    /// Read slots `0..out.len()` of this instance's elements into `out` —
    /// semantically identical to calling [`ReadView::get`] per slot
    /// (including the error and partial-charge behaviour on underflow),
    /// but located, bounds-checked and cost-charged as one block. This is
    /// the vectorized read path the GPU-ABiSort kernels use.
    #[inline]
    pub fn read_into(&self, ctx: &mut KernelCtx<'_>, out: &mut [T]) {
        debug_assert!(out.len() <= self.per_instance, "slot out of range");
        if let Some(start) = self.blocks.contiguous_start() {
            let pos0 = ctx.instance * self.per_instance;
            if pos0 + out.len() <= self.blocks.total() {
                let g0 = start + pos0;
                ctx.charge_reads(self.stream, g0, out.len());
                out.copy_from_slice(&self.data[g0..g0 + out.len()]);
                return;
            }
        }
        // Multi-block substreams and underflowing reads (which must error
        // after charging the slots before the failing one) go slot by
        // slot.
        for (slot, v) in out.iter_mut().enumerate() {
            *v = self.get(ctx, slot);
        }
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

    /// Length of the gather stream.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the gather stream is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
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

    /// Gather the consecutive elements `[start, start + out.len())` into
    /// `out` — semantically identical to one [`GatherView::gather`] per
    /// element (including the error behaviour past the end), but charged
    /// as one block.
    #[inline]
    pub fn gather_range(&self, ctx: &mut KernelCtx<'_>, start: usize, out: &mut [T]) {
        if let Some(src) = self.data.get(start..start.saturating_add(out.len())) {
            ctx.charge_gathers(self.stream, start, out.len());
            out.copy_from_slice(src);
            return;
        }
        for (i, v) in out.iter_mut().enumerate() {
            *v = self.gather(ctx, start.saturating_add(i));
        }
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
    stream_id: u64,
    blocks: BlockSet,
    per_instance: usize,
}

impl<'a, T: StreamElement> WriteView<'a, T> {
    /// Bind an output substream. Each kernel instance writes exactly
    /// `per_instance` elements.
    pub fn new(stream: &'a mut Stream<T>, blocks: BlockSet, per_instance: usize) -> Result<Self> {
        stream.check_blocks(&blocks)?;
        Ok(WriteView {
            stream_id: stream.id(),
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

    /// Total number of elements the bound substream can hold.
    pub fn capacity(&self) -> usize {
        self.blocks.total()
    }

    /// Elements written by each kernel instance.
    pub fn per_instance(&self) -> usize {
        self.per_instance
    }

    /// The global element index that slot `slot` of instance `instance`
    /// will be written to. This is what the paper's *iterator streams*
    /// expose to the previous phase so it can fix up child pointers; see
    /// [`IterStream::for_write_view`].
    pub fn destination_index(&self, instance: usize, slot: usize) -> usize {
        self.blocks.locate(instance * self.per_instance + slot)
    }

    /// The block set this view writes to.
    pub fn blocks(&self) -> &BlockSet {
        &self.blocks
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

    /// Write a pair into slots 0 and 1.
    #[inline]
    pub fn pair(&mut self, ctx: &mut KernelCtx<'_>, first: T, second: T) {
        self.write_all(ctx, &[first, second]);
    }

    /// Write `values` into slots `0..values.len()` of this instance's
    /// output positions — semantically identical to calling
    /// [`WriteView::set`] per slot (including the error and partial-charge
    /// behaviour on overflow), but located, budget-charged and stored as
    /// one block. This is the vectorized write path the GPU-ABiSort
    /// kernels use.
    #[inline]
    pub fn write_all(&mut self, ctx: &mut KernelCtx<'_>, values: &[T]) {
        debug_assert!(values.len() <= self.per_instance, "slot out of range");
        if let Some(start) = self.blocks.contiguous_start() {
            let pos0 = ctx.instance * self.per_instance;
            if pos0 + values.len() <= self.blocks.total() {
                let g0 = start + pos0;
                ctx.charge_writes(values.len(), T::BYTES);
                self.data[g0..g0 + values.len()].copy_from_slice(values);
                return;
            }
        }
        // Multi-block substreams and overflowing writes (which must error
        // after charging the slots before the failing one) go slot by
        // slot.
        for (slot, v) in values.iter().enumerate() {
            self.set(ctx, slot, *v);
        }
    }

    /// The stream this view writes into (for aliasing validation).
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }
}

/// An iterator stream: a read-only stream containing a linear ascending
/// sequence of indices, realised by the hardware's iterator unit without
/// memory lookups (paper, Section "Phase i > 0 kernel").
///
/// In this simulator an iterator stream yields, for each logical position,
/// the *global element index* of a target block set — exactly the
/// destination addresses the next phase's [`WriteView`] will write to.
pub struct IterStream {
    blocks: BlockSet,
    per_instance: usize,
}

impl IterStream {
    /// An iterator stream over an explicit block set.
    pub fn new(blocks: BlockSet, per_instance: usize) -> Self {
        IterStream {
            blocks,
            per_instance,
        }
    }

    /// An iterator stream over a contiguous index range
    /// (`iter_stream<index_t>(a .. b)` in the paper's pseudo code).
    pub fn range(start: usize, len: usize, per_instance: usize) -> Self {
        Self::new(BlockSet::contiguous(start, len), per_instance)
    }

    /// An iterator stream that yields the destination indices of an output
    /// view that will be used in a later phase, so the current phase can
    /// update child pointers to point at those future locations
    /// (Section 5.2).
    pub fn for_write_view<T: StreamElement>(view: &WriteView<'_, T>) -> Self {
        IterStream {
            blocks: view.blocks().clone(),
            per_instance: view.per_instance(),
        }
    }

    /// Number of indices available.
    pub fn capacity(&self) -> usize {
        self.blocks.total()
    }

    /// Read slot `slot` of this instance's indices.
    #[inline]
    pub fn get(&self, ctx: &mut KernelCtx<'_>, slot: usize) -> u32 {
        debug_assert!(slot < self.per_instance, "slot out of range");
        let pos = ctx.instance * self.per_instance + slot;
        if pos >= self.blocks.total() {
            ctx.record_error(StreamError::InputUnderflow {
                capacity: self.blocks.total(),
                required: pos + 1,
            });
            return 0;
        }
        ctx.charge_iter(1);
        self.blocks.locate(pos) as u32
    }

    /// Read the first two slots as a pair.
    #[inline]
    pub fn pair(&self, ctx: &mut KernelCtx<'_>) -> (u32, u32) {
        if let Some(start) = self.blocks.contiguous_start() {
            let pos0 = ctx.instance * self.per_instance;
            if pos0 + 2 <= self.blocks.total() {
                ctx.charge_iter(2);
                let g0 = (start + pos0) as u32;
                return (g0, g0 + 1);
            }
        }
        (self.get(ctx, 0), self.get(ctx, 1))
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
        assert_eq!(view.pair(&mut ctx), (6, 7));
        assert_eq!(view.capacity(), 8);
        assert_eq!(view.per_instance(), 2);
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
            assert_eq!(view.len(), 8);
            assert!(!view.is_empty());
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
                view.pair(&mut ctx, instance as u32 * 10, instance as u32 * 10 + 1);
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
            assert_eq!(view.destination_index(0, 0), 8);
            assert_eq!(view.destination_index(0, 1), 9);
            assert_eq!(view.destination_index(1, 0), 0);
            assert_eq!(view.destination_index(2, 1), 3);
            let mut c = Counters::new();
            let mut log = test_log();
            for instance in 0..3 {
                let mut ctx = test_ctx(instance, &mut c, &mut log);
                view.pair(&mut ctx, 100 + instance as u32, 200 + instance as u32);
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
    fn iter_stream_yields_destination_indices() {
        let mut s: Stream<u32> = Stream::new("out", 16, Layout::Linear);
        let next_phase_out = WriteView::contiguous(&mut s, 8, 8, 2).unwrap();
        let iter = IterStream::for_write_view(&next_phase_out);
        let mut c = Counters::new();
        let mut log = test_log();
        let mut ctx = test_ctx(1, &mut c, &mut log);
        assert_eq!(iter.pair(&mut ctx), (10, 11));
        assert_eq!(c.iter_reads, 2);
        // Iterator reads cost no memory traffic.
        let model = log.drain();
        assert_eq!(model.bytes_read(), 0);
        assert_eq!(model.stats().accesses, 0);
        assert_eq!(iter.capacity(), 8);
    }

    #[test]
    fn iter_stream_range_matches_paper_pseudocode() {
        // iter_stream(2*nextStart .. 2*(nextStart+len)-1) with per-instance 2
        let iter = IterStream::range(6, 8, 2);
        let mut c = Counters::new();
        let mut log = test_log();
        let mut ctx = test_ctx(0, &mut c, &mut log);
        assert_eq!(iter.pair(&mut ctx), (6, 7));
        let mut ctx = test_ctx(3, &mut c, &mut log);
        assert_eq!(iter.pair(&mut ctx), (12, 13));
    }

    #[test]
    fn coalesced_cost_model_matches_the_per_access_replay_of_its_log() {
        // An interleaved read/gather/write/iter pattern over two streams:
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
        let iter = IterStream::range(0, 512, 4);
        for instance in 0..128usize {
            ctx.begin_instance(instance);
            for slot in 0..4 {
                let v = read.get(&mut ctx, slot) as usize;
                let g = gather.gather(&mut ctx, (v * 7) % 512);
                let _ = iter.get(&mut ctx, slot);
                ctx.count_comparisons(u64::from(g % 3));
            }
        }
        let mut grouped = [0u32; 16];
        gather.gather_range(&mut ctx, 100, &mut grouped);
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
