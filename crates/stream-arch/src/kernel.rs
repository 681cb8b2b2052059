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

use crate::cache::CacheSim;
use crate::error::{Result, StreamError};
use crate::layout::Layout;
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

/// How a [`KernelCtx`] charges the per-access cost model.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum AccountingMode {
    /// Block accumulation (the default): accesses are summed into plain
    /// local counters, and consecutive cached fetches that land in the same
    /// cache tile are charged as one batched probe
    /// ([`CacheSim::access_tile_run`]). The counters, cache statistics and
    /// simulated times are byte-identical to [`AccountingMode::PerAccess`];
    /// only the host wall-clock cost of the accounting changes.
    #[default]
    Batched,
    /// The original reference model: every access updates the shared
    /// counters and probes the cache individually. The executable
    /// specification of the cost model: the identity tests and the
    /// accounting acceptance test compare the batched mode against it.
    PerAccess,
}

/// A pending run of consecutive cached fetches that all landed in the same
/// cache tile of the same stream; flushed as one batched probe.
#[derive(Copy, Clone)]
struct TileRun {
    stream_id: u64,
    /// Tile identity under the stream's layout (see [`tile_key`]); only
    /// comparable for the same `stream_id`.
    key: u64,
    /// Global element index of the first access of the run (tile
    /// coordinates are recomputed from it once, at flush time).
    first_idx: usize,
    layout: Layout,
    /// Element size, for the miss fill charge.
    bytes: usize,
    /// Accesses in the run; 0 means "no pending run".
    count: u64,
}

const NO_RUN: TileRun = TileRun {
    stream_id: 0,
    key: 0,
    first_idx: 0,
    layout: Layout::Linear,
    bytes: 0,
    count: 0,
};

/// One entry of the context's probe memo: where tile `(stream_id, key)`
/// was last found in the texture cache. A memo hit lets [`KernelCtx`]
/// service a whole run through [`CacheSim::try_fast_hit`] — no 1D→2D
/// conversion, no set hash, no way scan. Entries are only trusted after
/// the cache re-verifies the tag, so eviction can never be missed.
#[derive(Copy, Clone)]
struct ProbeMemo {
    stream_id: u64,
    key: u64,
    tag: u64,
    slot: u32,
}

const NO_MEMO: ProbeMemo = ProbeMemo {
    stream_id: u64::MAX,
    key: u64::MAX,
    tag: 0,
    slot: 0,
};

/// Probe-memo entries (a power of two; indexed by a multiplicative hash).
const PROBE_MEMO_ENTRIES: usize = 8;

#[inline]
fn memo_index(stream_id: u64, key: u64) -> usize {
    ((stream_id ^ key)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_shr(61)) as usize
        & (PROBE_MEMO_ENTRIES - 1)
}

/// Locally accumulated event counts, flushed into the shared
/// [`Counters`] once per launch instead of once per access.
#[derive(Copy, Clone, Default)]
struct PendingCounters {
    stream_reads: u64,
    stream_writes: u64,
    gathers: u64,
    iter_reads: u64,
    comparisons: u64,
    bytes_written: u64,
    bytes_read: u64,
}

/// The identity of the cache tile that element `idx` of a stream with the
/// given layout falls into, as a single comparable key. `shift` is
/// `log₂ block_edge`. Two accesses of one stream share a cache tile iff
/// their keys are equal; the key avoids the full 1D→2D conversion on the
/// hot path (for Z-order, the tile is just the index shifted by
/// `2·shift` — no bit de-interleaving per access).
#[inline]
fn tile_key(layout: Layout, idx: usize, shift: u32) -> u64 {
    match layout {
        Layout::Linear => ((idx as u32) >> shift) as u64,
        Layout::RowMajor { width } => {
            let w = width.trailing_zeros();
            let x = (idx as u32) & (width - 1);
            let y = (idx >> w) as u32;
            (((y >> shift) as u64) << 32) | ((x >> shift) as u64)
        }
        // Consecutive Morton indices interleave x/y bits, so dropping the
        // low 2·shift bits yields exactly (x >> shift, y >> shift) still
        // interleaved — a unique tile id.
        Layout::ZOrder => (idx >> (2 * shift)) as u64,
    }
}

/// Per-instance execution context handed to the kernel closure.
///
/// It carries the instance index, the processor's texture cache, the local
/// event counters and the bytes the instance pushed so far (which the
/// executor checks against Section 7.1's 16 × 32-bit output budget).
///
/// Under [`AccountingMode::Batched`] the context does not touch the shared
/// [`Counters`] per access: events accumulate into plain local fields and
/// cached fetches coalesce into per-tile runs, both flushed by the executor
/// once per launch (and at every early exit). The executor owns the flush
/// discipline; tests that build a context by hand must call the
/// crate-internal `KernelCtx::flush` before inspecting counters.
pub struct KernelCtx<'a> {
    pub(crate) instance: usize,
    pub(crate) counters: &'a mut Counters,
    pub(crate) cache: Option<&'a mut CacheSim>,
    pub(crate) bytes_pushed: usize,
    pub(crate) error: Option<StreamError>,
    batched: bool,
    /// `log₂ block_edge` of the cache (0 when there is no cache).
    edge_shift: u32,
    pending: PendingCounters,
    run: TileRun,
    probe_memo: [ProbeMemo; PROBE_MEMO_ENTRIES],
}

impl<'a> KernelCtx<'a> {
    /// Build a context for the instances of one launch (the executor
    /// resets the per-instance state via [`KernelCtx::begin_instance`]).
    pub(crate) fn new(
        counters: &'a mut Counters,
        cache: Option<&'a mut CacheSim>,
        batched: bool,
    ) -> Self {
        let edge_shift = cache
            .as_deref()
            .map(|c| c.config().block_edge.trailing_zeros())
            .unwrap_or(0);
        KernelCtx {
            instance: 0,
            counters,
            cache,
            bytes_pushed: 0,
            error: None,
            batched,
            edge_shift,
            pending: PendingCounters::default(),
            run: NO_RUN,
            probe_memo: [NO_MEMO; PROBE_MEMO_ENTRIES],
        }
    }

    /// Reset the per-instance state (output budget, error) for the next
    /// instance of the launch. Pending batched charges survive — a tile run
    /// may span instances, since consecutive instances of a linear view
    /// read consecutive elements.
    #[inline]
    pub(crate) fn begin_instance(&mut self, instance: usize) {
        self.instance = instance;
        self.bytes_pushed = 0;
        self.error = None;
    }

    /// Flush all pending batched charges into the shared counters and the
    /// cache model. Idempotent; a no-op in per-access mode.
    pub(crate) fn flush(&mut self) {
        self.flush_run();
        let p = self.pending;
        self.counters.stream_reads += p.stream_reads;
        self.counters.stream_writes += p.stream_writes;
        self.counters.gathers += p.gathers;
        self.counters.iter_reads += p.iter_reads;
        self.counters.comparisons += p.comparisons;
        self.counters.bytes_written += p.bytes_written;
        self.counters.bytes_read += p.bytes_read;
        self.pending = PendingCounters::default();
    }

    /// Flush the pending cache-tile run as one batched probe.
    fn flush_run(&mut self) {
        if self.run.count == 0 {
            return;
        }
        let run = self.run;
        self.run = NO_RUN;
        let cache = self
            .cache
            .as_deref_mut()
            .expect("a tile run exists only with a cache model");
        // Probe memo: a kernel alternates between a handful of tiles, so
        // the tile usually sits exactly where its last probe left it; a
        // verified fast hit skips the 1D→2D conversion, the set hash and
        // the way scan while producing byte-identical cache state.
        let mi = memo_index(run.stream_id, run.key);
        let memo = self.probe_memo[mi];
        if memo.stream_id == run.stream_id
            && memo.key == run.key
            && cache.try_fast_hit(memo.tag, memo.slot, run.count)
        {
            return;
        }
        let (x, y) = run.layout.to_2d(run.first_idx);
        let (hit, tag, slot) = cache.access_tile_run_slot(
            run.stream_id,
            x >> self.edge_shift,
            y >> self.edge_shift,
            run.count,
        );
        self.probe_memo[mi] = ProbeMemo {
            stream_id: run.stream_id,
            key: run.key,
            tag,
            slot,
        };
        if !hit {
            // One fill per missed tile, charged at the accessed element's
            // size (see `charge_cached_fetch`).
            let edge = cache.config().block_edge as u64;
            self.pending.bytes_read += edge * edge * run.bytes as u64;
        }
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
        if self.batched {
            self.pending.comparisons += n;
        } else {
            self.counters.comparisons += n;
        }
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

    #[inline]
    pub(crate) fn charge_read(
        &mut self,
        stream_id: u64,
        layout: Layout,
        global_idx: usize,
        bytes: usize,
    ) {
        if self.batched {
            self.pending.stream_reads += words(bytes);
        } else {
            self.counters.stream_reads += words(bytes);
        }
        self.charge_cached_fetch(stream_id, layout, global_idx, bytes);
    }

    #[inline]
    fn charge_gather(&mut self, stream_id: u64, layout: Layout, global_idx: usize, bytes: usize) {
        if self.batched {
            self.pending.gathers += words(bytes);
        } else {
            self.counters.gathers += words(bytes);
        }
        self.charge_cached_fetch(stream_id, layout, global_idx, bytes);
    }

    #[inline]
    fn charge_cached_fetch(
        &mut self,
        stream_id: u64,
        layout: Layout,
        global_idx: usize,
        bytes: usize,
    ) {
        if self.batched {
            match self.cache {
                Some(_) => {
                    // Extend the pending same-tile run, or flush it and
                    // start a new one. Linear streaming reads walk tiles in
                    // order (a Z-order tile holds `edge²` consecutive
                    // elements), so most accesses take the extend arm and
                    // skip the cache probe entirely.
                    let key = tile_key(layout, global_idx, self.edge_shift);
                    self.extend_run(stream_id, key, global_idx, layout, bytes, 1);
                }
                // No cache model: charge the raw element fetch.
                None => self.pending.bytes_read += bytes as u64,
            }
            return;
        }
        match self.cache.as_deref_mut() {
            Some(cache) => {
                let (x, y) = layout.to_2d(global_idx);
                let hit = cache.access(stream_id, x, y);
                if !hit {
                    // A miss fills a block_edge × block_edge tile of *this
                    // stream's* elements; charge the fill at the accessed
                    // element's size so that 4-byte index streams are not
                    // billed for 16-byte node tiles.
                    let edge = cache.config().block_edge as u64;
                    self.counters.bytes_read += edge * edge * bytes as u64;
                }
            }
            None => {
                // No cache model: charge the raw element fetch.
                self.counters.bytes_read += bytes as u64;
            }
        }
    }

    #[inline]
    pub(crate) fn charge_write(&mut self, bytes: usize) {
        if self.batched {
            self.pending.stream_writes += words(bytes);
            self.pending.bytes_written += bytes as u64;
        } else {
            self.counters.stream_writes += words(bytes);
            self.counters.bytes_written += bytes as u64;
        }
        self.bytes_pushed += bytes;
    }

    #[inline]
    fn charge_iter(&mut self) {
        if self.batched {
            self.pending.iter_reads += 1;
        } else {
            self.counters.iter_reads += 1;
        }
    }

    /// Continue the pending tile run with `count` accesses of tile `key`,
    /// or flush it and start a new run.
    #[inline]
    fn extend_run(
        &mut self,
        stream_id: u64,
        key: u64,
        first_idx: usize,
        layout: Layout,
        bytes: usize,
        count: u64,
    ) {
        if self.run.count > 0
            && self.run.stream_id == stream_id
            && self.run.key == key
            && self.run.bytes == bytes
        {
            self.run.count += count;
        } else {
            self.flush_run();
            self.run = TileRun {
                stream_id,
                key,
                first_idx,
                layout,
                bytes,
                count,
            };
        }
    }

    /// Bulk charge of `count` linear reads of the consecutive elements
    /// `[start_idx, start_idx + count)` — the block-accumulation fast path
    /// behind the views' bulk accessors. Byte-identical to `count`
    /// individual [`KernelCtx::charge_read`] calls; only reachable in
    /// batched mode (per-access mode goes through the per-element loop).
    #[inline]
    fn charge_read_range(
        &mut self,
        stream_id: u64,
        layout: Layout,
        start_idx: usize,
        count: usize,
        bytes: usize,
    ) {
        debug_assert!(self.batched);
        self.pending.stream_reads += count as u64 * words(bytes);
        self.charge_cached_fetch_range(stream_id, layout, start_idx, count, bytes);
    }

    /// Bulk charge of `count` gathers of consecutive elements (a common
    /// kernel shape: a whole aligned group re-read by every instance that
    /// works on it).
    #[inline]
    fn charge_gather_range(
        &mut self,
        stream_id: u64,
        layout: Layout,
        start_idx: usize,
        count: usize,
        bytes: usize,
    ) {
        debug_assert!(self.batched);
        self.pending.gathers += count as u64 * words(bytes);
        self.charge_cached_fetch_range(stream_id, layout, start_idx, count, bytes);
    }

    /// Charge a whole copy operation: `count` linear reads of
    /// `[start_idx, start_idx + count)` plus `count` linear writes (the
    /// executor's vectorized copy launch).
    #[inline]
    pub(crate) fn charge_copy_block(
        &mut self,
        stream_id: u64,
        layout: Layout,
        start_idx: usize,
        count: usize,
        bytes: usize,
    ) {
        self.charge_read_range(stream_id, layout, start_idx, count, bytes);
        self.charge_write_range(count, bytes);
    }

    /// Bulk charge of `count` linear writes (writes bypass the texture
    /// cache, so this is pure arithmetic).
    #[inline]
    fn charge_write_range(&mut self, count: usize, bytes: usize) {
        debug_assert!(self.batched);
        self.pending.stream_writes += count as u64 * words(bytes);
        self.pending.bytes_written += (count * bytes) as u64;
        self.bytes_pushed += count * bytes;
    }

    /// Bulk charge of `count` iterator-stream reads.
    #[inline]
    fn charge_iter_range(&mut self, count: usize) {
        debug_assert!(self.batched);
        self.pending.iter_reads += count as u64;
    }

    /// Charge `count` consecutive cached fetches, advancing the tile run
    /// segment-by-segment (one arithmetic step per tile crossed) instead of
    /// element-by-element.
    fn charge_cached_fetch_range(
        &mut self,
        stream_id: u64,
        layout: Layout,
        start_idx: usize,
        count: usize,
        bytes: usize,
    ) {
        if self.cache.is_none() {
            self.pending.bytes_read += (count * bytes) as u64;
            return;
        }
        let shift = self.edge_shift;
        let mut idx = start_idx;
        let end = start_idx + count;
        while idx < end {
            // The tile identity comes from the one canonical formula
            // (`tile_key`, shared with the per-element path — runs from
            // both producers must merge); the per-layout arithmetic below
            // only finds the first index past the tile.
            let key = tile_key(layout, idx, shift);
            let seg_end = match layout {
                // Aligned 2^(2·shift) element blocks are exactly the cache
                // tiles of the Morton layout.
                Layout::ZOrder => (((idx >> (2 * shift)) + 1) << (2 * shift)).min(end),
                Layout::Linear => (((idx >> shift) + 1) << shift).min(end),
                Layout::RowMajor { width } => {
                    // The walk leaves the tile at the next x-tile boundary
                    // or at the end of the row, whichever comes first.
                    let x = (idx as u32) & (width - 1);
                    let next_x_tile = (((x >> shift) + 1) << shift).min(width);
                    (idx + (next_x_tile - x) as usize).min(end)
                }
            };
            let n = (seg_end - idx) as u64;
            self.extend_run(stream_id, key, idx, layout, bytes, n);
            idx = seg_end;
        }
    }
}

/// A linear (streaming-read) input view: the paper's `in stream<T>`.
pub struct ReadView<'a, T> {
    data: &'a [T],
    stream_id: u64,
    layout: Layout,
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
            // The cache model keys on the stable name-derived tag so that
            // identical runs charge identical cache behaviour.
            stream_id: stream.cache_tag(),
            layout: stream.layout(),
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
        ctx.charge_read(self.stream_id, self.layout, global, T::BYTES);
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
    /// but located, bounds-checked and cost-charged as one block in
    /// batched-accounting mode. This is the vectorized read path the
    /// GPU-ABiSort kernels use.
    #[inline]
    pub fn read_into(&self, ctx: &mut KernelCtx<'_>, out: &mut [T]) {
        debug_assert!(out.len() <= self.per_instance, "slot out of range");
        if ctx.batched {
            if let Some(start) = self.blocks.contiguous_start() {
                let pos0 = ctx.instance * self.per_instance;
                if pos0 + out.len() <= self.blocks.total() {
                    let g0 = start + pos0;
                    ctx.charge_read_range(self.stream_id, self.layout, g0, out.len(), T::BYTES);
                    out.copy_from_slice(&self.data[g0..g0 + out.len()]);
                    return;
                }
            }
        }
        // Reference path: per-access mode, multi-block substreams, and
        // underflowing reads (which must error and charge element by
        // element exactly like the legacy engine).
        for (slot, v) in out.iter_mut().enumerate() {
            *v = self.get(ctx, slot);
        }
    }
}

/// A random-access (gather) input view: the paper's `gather stream<T>`.
pub struct GatherView<'a, T> {
    data: &'a [T],
    stream_id: u64,
    layout: Layout,
}

impl<'a, T: StreamElement> GatherView<'a, T> {
    /// Bind a whole stream for gather access.
    pub fn new(stream: &'a Stream<T>) -> Self {
        GatherView {
            data: stream.as_slice(),
            stream_id: stream.cache_tag(),
            layout: stream.layout(),
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
        ctx.charge_gather(self.stream_id, self.layout, index, T::BYTES);
        v
    }

    /// Gather the consecutive elements `[start, start + out.len())` into
    /// `out` — semantically identical to one [`GatherView::gather`] per
    /// element (including the error behaviour past the end), but charged
    /// as one block in batched-accounting mode.
    #[inline]
    pub fn gather_range(&self, ctx: &mut KernelCtx<'_>, start: usize, out: &mut [T]) {
        if ctx.batched {
            if let Some(src) = self.data.get(start..start.saturating_add(out.len())) {
                ctx.charge_gather_range(self.stream_id, self.layout, start, out.len(), T::BYTES);
                out.copy_from_slice(src);
                return;
            }
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
        ctx.charge_write(T::BYTES);
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
    /// one block in batched-accounting mode. This is the vectorized write
    /// path the GPU-ABiSort kernels use.
    #[inline]
    pub fn write_all(&mut self, ctx: &mut KernelCtx<'_>, values: &[T]) {
        debug_assert!(values.len() <= self.per_instance, "slot out of range");
        if ctx.batched {
            if let Some(start) = self.blocks.contiguous_start() {
                let pos0 = ctx.instance * self.per_instance;
                if pos0 + values.len() <= self.blocks.total() {
                    let g0 = start + pos0;
                    ctx.charge_write_range(values.len(), T::BYTES);
                    self.data[g0..g0 + values.len()].copy_from_slice(values);
                    return;
                }
            }
        }
        // Reference path: per-access mode, multi-block substreams, and
        // overflowing writes (which must error and charge element by
        // element exactly like the legacy engine).
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
        ctx.charge_iter();
        self.blocks.locate(pos) as u32
    }

    /// Read the first two slots as a pair.
    #[inline]
    pub fn pair(&self, ctx: &mut KernelCtx<'_>) -> (u32, u32) {
        if ctx.batched {
            if let Some(start) = self.blocks.contiguous_start() {
                let pos0 = ctx.instance * self.per_instance;
                if pos0 + 2 <= self.blocks.total() {
                    ctx.charge_iter_range(2);
                    let g0 = (start + pos0) as u32;
                    return (g0, g0 + 1);
                }
            }
        }
        (self.get(ctx, 0), self.get(ctx, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;

    fn test_ctx<'a>(
        instance: usize,
        counters: &'a mut Counters,
        cache: Option<&'a mut CacheSim>,
    ) -> KernelCtx<'a> {
        let mut ctx = KernelCtx::new(counters, cache, true);
        ctx.begin_instance(instance);
        ctx
    }

    #[test]
    fn read_view_positional_access() {
        let s = Stream::from_vec("s", (0u32..16).collect(), Layout::Linear);
        let view = ReadView::contiguous(&s, 4, 8, 2).unwrap();
        let mut c = Counters::new();
        let mut ctx = test_ctx(1, &mut c, None);
        assert_eq!(view.pair(&mut ctx), (6, 7));
        assert_eq!(view.capacity(), 8);
        assert_eq!(view.per_instance(), 2);
        ctx.flush();
        assert_eq!(c.stream_reads, 2);
        assert!(c.bytes_read > 0);
    }

    #[test]
    fn read_view_underflow_is_reported_not_panicking() {
        let s = Stream::from_vec("s", (0u32..4).collect(), Layout::Linear);
        let view = ReadView::contiguous(&s, 0, 4, 2).unwrap();
        let mut c = Counters::new();
        let mut ctx = test_ctx(2, &mut c, None); // instance 2 needs positions 4,5
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
        {
            let mut ctx = test_ctx(0, &mut c, None);
            assert_eq!(view.gather(&mut ctx, 5), 5);
            assert_eq!(view.len(), 8);
            assert!(!view.is_empty());
            let _ = view.gather(&mut ctx, 100);
            assert!(matches!(
                ctx.error,
                Some(StreamError::GatherOutOfBounds { .. })
            ));
            ctx.flush();
        }
        assert_eq!(c.gathers, 1);
    }

    #[test]
    fn write_view_writes_disjoint_positions() {
        let mut s: Stream<u32> = Stream::new("out", 8, Layout::Linear);
        {
            let mut view = WriteView::contiguous(&mut s, 0, 8, 2).unwrap();
            let mut c = Counters::new();
            for instance in 0..4 {
                let mut ctx = test_ctx(instance, &mut c, None);
                view.pair(&mut ctx, instance as u32 * 10, instance as u32 * 10 + 1);
                ctx.flush();
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
            for instance in 0..3 {
                let mut ctx = test_ctx(instance, &mut c, None);
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
        let mut ctx = test_ctx(2, &mut c, None);
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
        let mut ctx = test_ctx(1, &mut c, None);
        assert_eq!(iter.pair(&mut ctx), (10, 11));
        ctx.flush();
        assert_eq!(c.iter_reads, 2);
        // Iterator reads cost no memory traffic.
        assert_eq!(c.bytes_read, 0);
        assert_eq!(iter.capacity(), 8);
    }

    #[test]
    fn iter_stream_range_matches_paper_pseudocode() {
        // iter_stream(2*nextStart .. 2*(nextStart+len)-1) with per-instance 2
        let iter = IterStream::range(6, 8, 2);
        let mut c = Counters::new();
        let mut ctx = test_ctx(0, &mut c, None);
        assert_eq!(iter.pair(&mut ctx), (6, 7));
        let mut ctx = test_ctx(3, &mut c, None);
        assert_eq!(iter.pair(&mut ctx), (12, 13));
    }

    #[test]
    fn tile_key_matches_the_layout_tiling() {
        // Two indices share a tile key iff their 2D coordinates fall into
        // the same block_edge × block_edge cache tile — for every layout.
        for layout in [
            Layout::Linear,
            Layout::RowMajor { width: 32 },
            Layout::ZOrder,
        ] {
            for shift in [1u32, 2, 3] {
                for idx in 0..2048usize {
                    let (x, y) = layout.to_2d(idx);
                    let expected = (((y >> shift) as u64) << 32) | ((x >> shift) as u64);
                    let key = tile_key(layout, idx, shift);
                    for other in idx.saturating_sub(40)..idx {
                        let (ox, oy) = layout.to_2d(other);
                        let other_expected =
                            (((oy >> shift) as u64) << 32) | ((ox >> shift) as u64);
                        assert_eq!(
                            key == tile_key(layout, other, shift),
                            expected == other_expected,
                            "layout {layout:?} shift {shift} idx {idx} other {other}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_accounting_is_byte_identical_to_per_access() {
        // An interleaved read/gather/write/iter pattern over two streams
        // must produce identical counters and cache state under both
        // accounting modes once the batched context is flushed.
        let nodes = Stream::from_vec(
            "nodes",
            (0u64..512).map(|i| i as u32).collect(),
            Layout::ZOrder,
        );
        let idxs = Stream::from_vec("idxs", (0u32..512).rev().collect(), Layout::ZOrder);
        let run = |batched: bool| {
            let mut c = Counters::new();
            let mut cache = CacheSim::new(crate::cache::CacheConfig::geforce_like(4));
            let mut ctx = KernelCtx::new(&mut c, Some(&mut cache), batched);
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
            ctx.flush();
            (c, *cache.stats())
        };
        let (c_batched, cache_batched) = run(true);
        let (c_per_access, cache_per_access) = run(false);
        assert_eq!(c_batched, c_per_access);
        assert_eq!(cache_batched, cache_per_access);
        assert!(c_batched.cache == Default::default(), "merged later");
        assert!(cache_batched.accesses > 0);
    }

    #[test]
    fn cached_reads_charge_block_fills() {
        let s = Stream::from_vec("s", (0u32..64).collect(), Layout::RowMajor { width: 8 });
        let view = ReadView::contiguous(&s, 0, 64, 64).unwrap();
        let mut c = Counters::new();
        let mut cache = CacheSim::new(crate::cache::CacheConfig {
            block_edge: 4,
            num_blocks: 64,
            ways: 4,
            element_bytes: 4,
        });
        let mut ctx = test_ctx(0, &mut c, Some(&mut cache));
        for slot in 0..64 {
            let _ = view.get(&mut ctx, slot);
        }
        ctx.flush();
        // 64 elements in an 8x8 texture with 4x4 cache tiles = 4 tiles.
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(c.bytes_read, 4 * 16 * 4);
    }
}
