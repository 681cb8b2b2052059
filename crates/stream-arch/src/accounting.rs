//! Cost accounting of kernel-side stream access: a recorder on the engine
//! thread and one cost model that consumes what it records.
//!
//! Every access a kernel makes through a view is charged in two parts:
//!
//! * **Plain counters** — streaming reads and writes, gathers, iterator
//!   reads, comparisons, bytes written — are bumped at the access site
//!   into the processor's [`crate::Counters`].
//! * **Cached fetches** — streaming reads and gathers, which the paper's
//!   GPUs route through the texture cache (Section 6.2.2) — go to the
//!   processor's recorder as `count` consecutive elements from index
//!   `first` of one stream.
//!
//! One cost model consumes the fetches in record order. It splits each
//! fetch into the cache tiles it crosses, coalesces consecutive accesses
//! of one tile into a run, probes the [`CacheSim`] once per run (the probe
//! of [`CacheSim::access_tile_run`]) and charges a block fill to
//! `bytes_read` for every miss. A run of `k` accesses leaves the cache
//! exactly as `k` single accesses would, so the statistics equal those of
//! probing every element on its own — the per-access reference model,
//! which the identity tests replay from the same fetches.
//!
//! The cache is a set-associative LRU. Every access advances a clock, and
//! a probe stamps the way it touches with the clock. A miss evicts the
//! first empty way, else the first way with the oldest stamp. A filled
//! way's stamp is at least 1 and an empty way's is 0, so the rule is "the
//! first way with the smallest stamp"; a 4-way set finds it with a
//! two-level min tree, a smaller one with a loop.
//!
//! # One pass per chunk
//!
//! A logged chunk is charged in one pass. First a plan is built for each
//! slot of its stream table: how the stream's indices fall into tiles,
//! its share of the probe's tag and set hash, its fill bytes, and its
//! coalescing class — the first slot with the same tag, element size and
//! kind of tile key. Then one loop walks the fetches. The open run, the
//! clock, the miss count and `bytes_read` stay in locals until the chunk
//! is done, and the run still open at its end is probed then (splitting a
//! run changes nothing: the rest of it hits). A fetch inside one tile —
//! the common case — takes one pass of the tile loop. A tile is named by
//! a key (the Morton code of the tile under Z-order, its packed
//! coordinates otherwise), and a probe derives the tile coordinates from
//! the key. Keys of one class are comparable, so equal keys name one
//! tile: a Morton key and a coordinate key never share a run.
//!
//! When the engine thread charges and nobody observes the log, each fetch
//! is charged as it is recorded instead (the *direct path*), through the
//! same tiling, key-derived coordinates and probe.
//!
//! # The fetch log, the replay threads and drain points
//!
//! The recorder appends fetches to a log of raw [`Fetch`] entries in
//! fixed-size [`FetchChunk`]s, each with its own small stream table; a
//! fetch that continues the previous entry's stream merges into it. A
//! chunk is handed off when it is full or at a drain point
//! ([`crate::StreamProcessor::counters`], `simulated_time`,
//! `take_counters` and `reset`), never once per launch. Between two drain
//! points the fetches reach the cost model one of two ways:
//!
//! * on the **engine thread**: each fetch goes straight into the model as
//!   it is recorded, with no log at all (unless the log is observed, see
//!   [`crate::StreamProcessor::observe_fetches`]; then each chunk is
//!   replayed at its hand-off);
//! * on a **helper thread**, which the processor starts the first time it
//!   hands off a full chunk and keeps for its lifetime: the helper
//!   replays queued chunks while the engine thread runs the next kernels.
//!   The queue is bounded: once more than 4 chunks (192 KiB) wait, the
//!   engine thread pauses until the helper has caught up halfway. That
//!   only happens in bursts of scattered gathers, where replaying a fetch
//!   costs more than recording it, or when the helper lost its CPU after
//!   all — and then the pause is what gives the CPU back to it. A
//!   16-chunk queue measured no faster and held more memory.
//!
//! Each logged fetch names its stream by a slot of its chunk's stream
//! table. A kernel binding ([`crate::Input`], [`crate::GatherView`])
//! remembers the slot its stream got, together with the id of the table
//! that gave it. Every table gets a process-unique id whenever it is
//! cleared, so a remembered slot is used only while its table is the
//! recorder's current one; otherwise the table is searched, and the
//! binding remembers the new slot. The log is the same either way.
//!
//! Whoever replays takes the model's lock before taking a chunk off the
//! queue, so chunks are replayed in record order whichever thread runs
//! them, and a drain point replays whatever is left before it reads the
//! model. Counters, cache statistics and simulated times are therefore
//! byte-identical whichever thread replays.
//!
//! Offloading pays only when a CPU is free for the helper; on a busy or
//! one-CPU host the hand-offs and wake-ups are pure overhead. So every
//! drain point decides which thread replays until the next one: the
//! helper when the processors inside a launch, the helpers replaying and
//! this processor's own engine thread together leave a CPU of
//! [`std::thread::available_parallelism`] free, the engine thread
//! otherwise. A processor stays on the engine thread until it has charged
//! 2^22 fetches, so short-lived ones never start a helper.

use crate::cache::{CacheBatch, CacheConfig, CacheSim, CacheStats, StreamKey};
use crate::layout::{Layout, ZOrder2D};
use crate::stream::Stream;
use crate::value::StreamElement;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Fetches per chunk: 4096 entries of 12 bytes, a 48 KiB chunk.
pub(crate) const CHUNK_FETCHES: usize = 4096;

/// Full chunks that may wait for the helper (192 KiB). A 16-chunk queue
/// measured no faster and held more memory.
pub(crate) const MAX_BACKLOG: usize = 4;

/// Cached fetches a processor charges before it first offloads (about one
/// 2^16-element sort). A short-lived processor — a calibration's scratch
/// processor, say — would pay a thread start and its allocator arena for
/// little overlap.
pub(crate) const OFFLOAD_AFTER: u64 = 1 << 22;

/// A stream as the texture-cache model sees it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FetchStream {
    /// The stream's stable cache tag ([`crate::Stream::cache_tag`]).
    pub tag: u64,
    /// Its 1D→2D layout, which decides the tile an element falls into.
    pub layout: Layout,
    /// Bytes per element, the unit of the miss-fill charge.
    pub bytes: u32,
}

/// One raw cached fetch: `count` consecutive elements starting at element
/// `first` of the stream in slot `slot` of its chunk's stream table.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Fetch {
    /// Index of the first element fetched.
    pub first: u32,
    /// Number of consecutive elements fetched (at least 1).
    pub count: u32,
    /// Slot of the stream in [`FetchChunk::streams`].
    pub slot: u32,
}

impl FetchStream {
    /// The texture-cache identity of `stream`. The cache keys on the
    /// stable name-derived tag, so identical runs charge identical cache
    /// behaviour.
    pub(crate) fn of<T: StreamElement>(stream: &Stream<T>) -> Self {
        FetchStream {
            tag: stream.cache_tag(),
            layout: stream.layout(),
            bytes: T::BYTES as u32,
        }
    }
}

/// A kernel binding's stream, with its memo of the stream's slot in the
/// recorder's current stream table (see the module doc).
pub(crate) struct BoundStream {
    pub(crate) stream: FetchStream,
    /// The id of the table that gave `stream` a slot, and the slot; table
    /// id 0 names no table.
    slot: Cell<(u64, u32)>,
}

impl BoundStream {
    pub(crate) fn new(stream: FetchStream) -> Self {
        BoundStream {
            stream,
            slot: Cell::new((0, 0)),
        }
    }
}

/// The next stream-table id, process-wide: ids are never reused, so no
/// binding's memo can name a table that was cleared since.
static NEXT_TABLE: AtomicU64 = AtomicU64::new(1);

fn new_table_id() -> u64 {
    NEXT_TABLE.fetch_add(1, Ordering::Relaxed)
}

impl Fetch {
    /// The element indices this fetch covers.
    pub fn indices(&self) -> std::ops::Range<usize> {
        self.first as usize..self.first as usize + self.count as usize
    }
}

/// A bounded piece of the fetch log: up to 4096 fetches (48 KiB) in record
/// order, plus the table of the streams they name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FetchChunk {
    fetches: Vec<Fetch>,
    streams: Vec<FetchStream>,
}

impl FetchChunk {
    fn full_size() -> Self {
        FetchChunk {
            fetches: Vec::with_capacity(CHUNK_FETCHES),
            streams: Vec::new(),
        }
    }

    /// The fetches, in record order.
    pub fn fetches(&self) -> &[Fetch] {
        &self.fetches
    }

    /// The chunk's stream table.
    pub fn streams(&self) -> &[FetchStream] {
        &self.streams
    }

    /// The stream `fetch` reads.
    pub fn stream(&self, fetch: &Fetch) -> &FetchStream {
        &self.streams[fetch.slot as usize]
    }

    fn clear(&mut self) {
        self.fetches.clear();
        self.streams.clear();
    }
}

/// How the indices of a stream fall into cache tiles, as comparable tile
/// keys, and how a key maps back to the tile's coordinates. Two indices of
/// a stream share a tile iff their keys are equal.
#[derive(Copy, Clone)]
enum Tiling {
    /// Linear and Z-order layouts: the tiles are the aligned blocks of
    /// `2^log` consecutive indices, and a block's key is `index >> log`.
    /// For Z-order (`log = 2·shift`) the key is the tile's Morton code;
    /// for Linear (`log = shift`) it is the tile's x coordinate.
    Aligned { log: u32, morton: bool },
    /// Row-wise layout of width `2^width_log`: a tile is a square of
    /// `2^shift` rows by `2^shift` columns, keyed `(by << 32) | bx`. A walk
    /// along the indices leaves it at the next tile column or row end.
    Rows { width_log: u32, shift: u32 },
}

impl Tiling {
    /// The tiling of `layout` for tiles of edge `2^shift`.
    fn new(layout: Layout, shift: u32) -> Self {
        match layout {
            Layout::Linear => Tiling::Aligned {
                log: shift,
                morton: false,
            },
            Layout::ZOrder => Tiling::Aligned {
                log: 2 * shift,
                morton: true,
            },
            Layout::RowMajor { width } => Tiling::Rows {
                width_log: width.trailing_zeros(),
                shift,
            },
        }
    }

    /// Hand each tile that `count ≥ 1` consecutive indices from `first`
    /// cross to `f`, in order, as its key and the number of indices in it.
    /// The common fetch stays inside one tile and makes one pass of the
    /// loop; `f` has one call site, so it inlines.
    #[inline(always)]
    fn for_each_tile(self, first: u64, count: u64, mut f: impl FnMut(u64, u64)) {
        let end = first + count;
        let mut idx = first;
        loop {
            let (key, next) = match self {
                Tiling::Aligned { log, .. } => {
                    let key = idx >> log;
                    (key, ((key + 1) << log).min(end))
                }
                Tiling::Rows { width_log, shift } => {
                    let width = 1u64 << width_log;
                    let x = idx & (width - 1);
                    let y = idx >> width_log;
                    let next_x_tile = (((x >> shift) + 1) << shift).min(width);
                    (
                        ((y >> shift) << 32) | (x >> shift),
                        (idx + next_x_tile - x).min(end),
                    )
                }
            };
            f(key, next - idx);
            if next == end {
                return;
            }
            idx = next;
        }
    }

    /// The coordinates `(bx, by)` of the tile with key `key`: the element
    /// coordinates of [`Layout::to_2d`] divided by the tile edge.
    #[inline]
    fn tile_xy(self, key: u64) -> (u32, u32) {
        match self {
            // The Morton code of the tile interleaves its coordinates.
            Tiling::Aligned { morton: true, .. } if key >> 32 == 0 => {
                // Move the odd bits (by) to the high half, then compact
                // both halves at once.
                let mut v = (key & 0x5555_5555) | ((key & 0xAAAA_AAAA) << 31);
                v = (v | (v >> 1)) & 0x3333_3333_3333_3333;
                v = (v | (v >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
                v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
                v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
                (v as u32, (v >> 32) as u32)
            }
            Tiling::Aligned { morton: true, .. } => (
                ZOrder2D::compact_bits(key),
                ZOrder2D::compact_bits(key >> 1),
            ),
            _ => (key as u32, (key >> 32) as u32),
        }
    }
}

/// What the cost model needs of one stream to charge its fetches; the
/// chunk replay builds one per stream-table slot, once per chunk.
#[derive(Copy, Clone)]
struct StreamPlan {
    tiling: Tiling,
    /// The stream's share of every probe.
    key: StreamKey,
    /// `bytes_read` of a missed tile: `block_edge²` elements of this
    /// stream's size, so that 4-byte index streams are not billed for
    /// 16-byte node tiles.
    fill: u64,
}

impl StreamPlan {
    fn new(stream: &FetchStream, shift: u32) -> Self {
        StreamPlan {
            tiling: Tiling::new(stream.layout, shift),
            key: StreamKey::new(stream.tag),
            fill: (1u64 << (2 * shift)) * u64::from(stream.bytes),
        }
    }

    /// Charge a run of `count` accesses of the tile `key` with one probe;
    /// returns the block-fill bytes it costs.
    #[inline(always)]
    fn charge(&self, cache: &mut CacheBatch<'_>, key: u64, count: u64) -> u64 {
        let (bx, by) = self.tiling.tile_xy(key);
        if cache.probe(self.key, bx, by, count) {
            0
        } else {
            self.fill
        }
    }
}

/// Whether accesses of streams `a` and `b` to tiles with equal keys may
/// share one probe: same tag (so the same cache tile), same element size
/// (the fill charge) and comparable keys — a Morton key (Z-order) names
/// another tile than an equal coordinate key.
fn same_class(a: &FetchStream, b: &FetchStream) -> bool {
    a.tag == b.tag
        && a.bytes == b.bytes
        && (a.layout == Layout::ZOrder) == (b.layout == Layout::ZOrder)
}

/// The open run of the direct path: `count` accesses of the tile `key` of
/// `stream`, not yet probed (`count == 0`: none).
#[derive(Copy, Clone)]
struct TileRun {
    stream: FetchStream,
    key: u64,
    count: u64,
}

const NO_RUN: TileRun = TileRun {
    stream: FetchStream {
        tag: 0,
        layout: Layout::Linear,
        bytes: 0,
    },
    key: 0,
    count: 0,
};

/// The one cost model of cached fetches: tile segmentation, same-tile run
/// coalescing, the texture-cache probe and the miss-fill `bytes_read`
/// charge.
pub(crate) struct CostModel {
    cache: CacheSim,
    /// `log₂ block_edge`.
    shift: u32,
    /// The direct path's open run.
    run: TileRun,
    /// The replayed chunk's plan per stream-table slot, with its
    /// coalescing class: the first slot of a stream of the same class.
    plans: Vec<(StreamPlan, u32)>,
    bytes_read: u64,
    /// Cache probes so far (one per tile run).
    probes: u64,
}

impl CostModel {
    pub(crate) fn new(config: CacheConfig) -> Self {
        CostModel {
            cache: CacheSim::new(config),
            shift: config.block_edge.trailing_zeros(),
            run: NO_RUN,
            plans: Vec::new(),
            bytes_read: 0,
            probes: 0,
        }
    }

    /// Charge every fetch of `chunk`, in order, in one pass (see the
    /// module doc): the plans are built once, and the open run, the clock,
    /// the miss count and the fill bytes stay in locals until the chunk is
    /// done.
    fn replay(&mut self, chunk: &FetchChunk) {
        // A run the direct path left open comes first: a processor whose
        // log is observed from now on has charged directly until now.
        self.settle();
        let shift = self.shift;
        self.plans.clear();
        for (slot, stream) in chunk.streams.iter().enumerate() {
            let class = chunk.streams[..slot]
                .iter()
                .position(|earlier| same_class(earlier, stream))
                .unwrap_or(slot);
            self.plans
                .push((StreamPlan::new(stream, shift), class as u32));
        }
        let plans = &self.plans[..];
        let Some((first_plan, _)) = plans.first() else {
            return;
        };
        let mut cache = self.cache.batch();
        let (mut bytes_read, mut probes) = (0u64, 0u64);
        // The open run: `count` accesses of tile `key` of the streams of
        // class `class`, probed through `plan`.
        let (mut plan, mut class, mut key, mut count) = (first_plan, u32::MAX, 0u64, 0u64);
        for fetch in &chunk.fetches {
            let (fetch_plan, fetch_class) = &plans[fetch.slot as usize];
            let (first, n) = (u64::from(fetch.first), u64::from(fetch.count));
            fetch_plan.tiling.for_each_tile(first, n, |tile, n| {
                if tile == key && *fetch_class == class {
                    count += n;
                    return;
                }
                if count > 0 {
                    bytes_read += plan.charge(&mut cache, key, count);
                    probes += 1;
                }
                (plan, class, key, count) = (fetch_plan, *fetch_class, tile, n);
            });
        }
        if count > 0 {
            bytes_read += plan.charge(&mut cache, key, count);
            probes += 1;
        }
        drop(cache);
        self.bytes_read += bytes_read;
        self.probes += probes;
    }

    /// Charge `count` consecutive cached fetches of `stream` from element
    /// `first` as they are recorded, advancing the open run tile by tile.
    #[inline]
    fn fetch(&mut self, stream: FetchStream, first: u32, count: u32) {
        if count == 0 {
            return;
        }
        let shift = self.shift;
        Tiling::new(stream.layout, shift).for_each_tile(
            u64::from(first),
            u64::from(count),
            |key, n| {
                let run = &mut self.run;
                if run.count > 0 && run.key == key && same_class(&run.stream, &stream) {
                    run.count += n;
                } else {
                    self.flush_run();
                    self.run = TileRun {
                        stream,
                        key,
                        count: n,
                    };
                }
            },
        );
    }

    /// Charge the direct path's open run with one probe.
    fn flush_run(&mut self) {
        let run = std::mem::replace(&mut self.run, NO_RUN);
        if run.count == 0 {
            return;
        }
        let plan = StreamPlan::new(&run.stream, self.shift);
        self.bytes_read += plan.charge(&mut self.cache.batch(), run.key, run.count);
        self.probes += 1;
    }

    /// Charge the open run, so the statistics cover every fetch so far.
    /// Splitting a run here changes nothing: the rest of it hits.
    fn settle(&mut self) {
        self.flush_run();
    }

    /// Cache statistics of everything charged so far.
    pub(crate) fn stats(&self) -> CacheStats {
        *self.cache.stats()
    }

    /// Block-fill bytes charged so far.
    pub(crate) fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    fn reset(&mut self) {
        self.run = NO_RUN;
        self.bytes_read = 0;
        self.probes = 0;
        self.cache.reset();
    }
}

/// What the cost model charged for a fetch log (see [`replay_log`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Replayed {
    /// Texture-cache statistics.
    pub cache: CacheStats,
    /// Block-fill bytes, charged at each missed tile's element size.
    pub bytes_read: u64,
    /// Cache probes, one per tile run.
    pub probes: u64,
}

/// Charge `chunks`, in order, through a fresh cost model with the texture
/// cache `config`: what a processor with that cache charged for the fetches
/// it recorded since its last reset, when `chunks` is the log it handed to
/// [`crate::StreamProcessor::observe_fetches`] in that time.
pub fn replay_log(config: CacheConfig, chunks: &[FetchChunk]) -> Replayed {
    let mut model = CostModel::new(config);
    for chunk in chunks {
        model.replay(chunk);
    }
    model.settle();
    Replayed {
        cache: model.stats(),
        bytes_read: model.bytes_read,
        probes: model.probes,
    }
}

/// An observer of the raw fetch log (see
/// [`crate::StreamProcessor::observe_fetches`]).
pub type FetchObserver = Box<dyn FnMut(&FetchChunk) + Send>;

/// Processors currently inside a launch, process-wide.
static IN_LAUNCH: AtomicUsize = AtomicUsize::new(0);
/// Helper threads currently replaying, process-wide.
static REPLAYING: AtomicUsize = AtomicUsize::new(0);
/// Helper threads ever started, process-wide.
static HELPERS_STARTED: AtomicUsize = AtomicUsize::new(0);

/// How many replay helper threads processors of this process have started
/// so far (each processor starts at most one, the first time it offloads
/// a full chunk).
pub fn helpers_started() -> usize {
    HELPERS_STARTED.load(Ordering::Relaxed)
}

/// Marks the calling processor as inside a launch for as long as it lives
/// (unwinding included).
pub(crate) struct InLaunch(());

impl InLaunch {
    pub(crate) fn enter() -> Self {
        IN_LAUNCH.fetch_add(1, Ordering::Relaxed);
        InLaunch(())
    }
}

impl Drop for InLaunch {
    fn drop(&mut self) {
        IN_LAUNCH.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether a helper would get a CPU of its own: the processors inside a
/// launch, the helpers replaying and the calling (drained, so neither)
/// processor's engine thread leave one free.
fn cpu_free() -> bool {
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cpus = *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    IN_LAUNCH.load(Ordering::Relaxed) + REPLAYING.load(Ordering::Relaxed) + 1 < cpus
}

/// Chunks handed off to the helper and not yet replayed, and replayed
/// ones kept for reuse.
#[derive(Default)]
struct Queue {
    pending: VecDeque<FetchChunk>,
    spare: Vec<FetchChunk>,
    /// The helper is waiting for work.
    helper_idle: bool,
    /// The engine thread is waiting for room in `pending`.
    engine_waiting: bool,
    /// The processor is gone; the helper exits.
    closed: bool,
}

/// What the engine thread and the helper share. While the processor
/// offloads, `model` holds the live cost model; otherwise it holds a
/// stale one the engine thread swaps with its own at the next hand-off.
struct Shared {
    model: Mutex<CostModel>,
    queue: Mutex<Queue>,
    work: Condvar,
    /// Signals the engine thread that the helper replayed a chunk.
    room: Condvar,
}

impl Shared {
    fn new(config: CacheConfig) -> Self {
        Shared {
            model: Mutex::new(CostModel::new(config)),
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
            room: Condvar::new(),
        }
    }

    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("fetch queue poisoned")
    }

    fn model(&self) -> MutexGuard<'_, CostModel> {
        self.model.lock().expect("cost model poisoned")
    }

    /// Replay queued chunks in record order until the queue is empty, and
    /// return the model with nothing left to replay. Taking the model
    /// before taking a chunk keeps the replay order equal to the queue
    /// order whichever thread replays.
    fn replay_queued(&self) -> MutexGuard<'_, CostModel> {
        loop {
            let mut model = self.model();
            let Some(chunk) = self.queue().pending.pop_front() else {
                return model;
            };
            model.replay(&chunk);
            drop(model);
            self.recycle(chunk);
        }
    }

    fn recycle(&self, mut chunk: FetchChunk) {
        chunk.clear();
        let mut queue = self.queue();
        queue.spare.push(chunk);
        if queue.engine_waiting {
            self.room.notify_one();
        }
    }

    /// The helper thread: replay whatever is queued, sleep while nothing
    /// is, exit once the processor is gone.
    fn helper(&self) {
        loop {
            {
                let mut queue = self.queue();
                while queue.pending.is_empty() && !queue.closed {
                    queue.helper_idle = true;
                    queue = self.work.wait(queue).expect("fetch queue poisoned");
                }
                queue.helper_idle = false;
                if queue.closed {
                    return;
                }
            }
            REPLAYING.fetch_add(1, Ordering::Relaxed);
            drop(self.replay_queued());
            REPLAYING.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// The recorder of one processor: it feeds every cached fetch, in record
/// order, to the processor's one cost model.
///
/// Between two drain points the fetches take one of three paths, fixed
/// at the first of them:
///
/// * straight into the engine thread's model, access by access, when the
///   processor does not offload and nobody observes the log;
/// * into the chunked log, each chunk replayed on the engine thread at
///   its hand-off, when the log is observed;
/// * into the chunked log, full chunks queued for the helper, when the
///   processor offloads. The live model moves into the shared slot at the
///   first such hand-off and back at the next drain point.
pub(crate) struct FetchLog {
    /// The engine thread's model: the live one unless `model_shared`.
    model: CostModel,
    /// Charge fetches straight into `model` instead of logging them.
    direct: bool,
    /// Queue full chunks for the helper.
    offload: bool,
    /// The live model sits in `shared.model`.
    model_shared: bool,
    chunk: FetchChunk,
    /// The id of `chunk`'s stream table, new whenever the table is cleared.
    table: u64,
    /// Created at the first hand-off to the helper.
    shared: Option<Arc<Shared>>,
    helper: Option<JoinHandle<()>>,
    /// Cached fetches charged before the model's last reset.
    charged_before_reset: u64,
    observer: Option<FetchObserver>,
    /// Overrides the drain-point decision (tests pin each replay thread).
    #[cfg(test)]
    pub(crate) forced: Option<bool>,
}

impl FetchLog {
    pub(crate) fn new(config: CacheConfig) -> Self {
        FetchLog {
            model: CostModel::new(config),
            direct: true,
            offload: false,
            model_shared: false,
            // Grown on first use: a processor that never logs never
            // allocates one.
            chunk: FetchChunk::default(),
            table: new_table_id(),
            shared: None,
            helper: None,
            charged_before_reset: 0,
            observer: None,
            #[cfg(test)]
            forced: None,
        }
    }

    /// Observe the log from the next fetch on. An observed log is never
    /// bypassed.
    pub(crate) fn set_observer(&mut self, observer: FetchObserver) {
        self.observer = Some(observer);
        self.direct = false;
    }

    /// Record `count` consecutive cached fetches of `bound`'s stream from
    /// element `first`.
    #[inline]
    pub(crate) fn record(&mut self, bound: &BoundStream, first: usize, count: usize) {
        let first = u32::try_from(first).expect("stream index exceeds the fetch log's u32 range");
        let count = u32::try_from(count).expect("fetch count exceeds the fetch log's u32 range");
        if self.direct {
            self.model.fetch(bound.stream, first, count);
        } else if count > 0 {
            self.log(bound, first, count);
        }
    }

    /// Append a fetch to the current chunk, merging it into the last entry
    /// when it continues it.
    #[inline]
    fn log(&mut self, bound: &BoundStream, first: u32, count: u32) {
        let slot = self.slot(bound);
        if let Some(last) = self.chunk.fetches.last_mut() {
            if last.slot == slot
                && u64::from(last.first) + u64::from(last.count) == u64::from(first)
            {
                if let Some(merged) = last.count.checked_add(count) {
                    last.count = merged;
                    return;
                }
            }
        }
        if self.chunk.fetches.len() == CHUNK_FETCHES {
            self.hand_off();
            let slot = self.slot(bound);
            self.chunk.fetches.push(Fetch { first, count, slot });
            return;
        }
        self.chunk.fetches.push(Fetch { first, count, slot });
    }

    /// The slot of `bound`'s stream in the current chunk's table: the one
    /// its memo holds if the memo is of this table, else found or added
    /// by a search of the table, and memoised.
    #[inline]
    fn slot(&mut self, bound: &BoundStream) -> u32 {
        let (table, slot) = bound.slot.get();
        if table == self.table {
            return slot;
        }
        let streams = &mut self.chunk.streams;
        let slot = match streams.iter().position(|s| *s == bound.stream) {
            Some(slot) => slot as u32,
            None => {
                streams.push(bound.stream);
                streams.len() as u32 - 1
            }
        };
        bound.slot.set((self.table, slot));
        slot
    }

    /// Hand the current chunk on — to the observer, then to the engine
    /// thread's model or the helper's queue — and start an empty one.
    fn hand_off(&mut self) {
        if self.chunk.fetches.is_empty() {
            return;
        }
        if let Some(observer) = &mut self.observer {
            observer(&self.chunk);
        }
        // Both ways below leave an empty table.
        self.table = new_table_id();
        if !self.offload {
            self.model.replay(&self.chunk);
            self.chunk.clear();
            return;
        }
        let config = *self.model.cache.config();
        let shared = self
            .shared
            .get_or_insert_with(|| Arc::new(Shared::new(config)));
        if !self.model_shared {
            std::mem::swap(&mut self.model, &mut *shared.model());
            self.model_shared = true;
        }
        let mut queue = shared.queue();
        let fresh = queue.spare.pop().unwrap_or_else(FetchChunk::full_size);
        queue
            .pending
            .push_back(std::mem::replace(&mut self.chunk, fresh));
        let backlog = queue.pending.len();
        let wake = queue.helper_idle;
        drop(queue);
        if self.helper.is_none() {
            HELPERS_STARTED.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(shared);
            self.helper = Some(
                std::thread::Builder::new()
                    .name("fetch-replay".into())
                    .spawn(move || shared.helper())
                    .expect("failed to spawn the fetch replay thread"),
            );
        } else if wake {
            shared.work.notify_one();
        }
        if backlog > MAX_BACKLOG {
            self.wait_for_room();
        }
    }

    /// Wait until the helper has replayed half of the queue. A helper that
    /// died (a panicking replay poisons the model) leaves the queue to the
    /// engine thread, which then panics on the poisoned model too.
    fn wait_for_room(&self) {
        let shared = self.shared();
        let mut queue = shared.queue();
        while queue.pending.len() > MAX_BACKLOG / 2 {
            if self.helper.as_ref().is_some_and(|h| h.is_finished()) {
                drop(queue);
                drop(shared.replay_queued());
                return;
            }
            queue.engine_waiting = true;
            queue = shared
                .room
                .wait_timeout(queue, std::time::Duration::from_millis(10))
                .expect("fetch queue poisoned")
                .0;
        }
        queue.engine_waiting = false;
    }

    /// A drain point: charge everything recorded so far, decide how the
    /// fetches up to the next drain point are replayed, and return the
    /// settled model.
    pub(crate) fn drain(&mut self) -> &mut CostModel {
        // The partial chunk queues behind the others while the helper holds
        // the live model, and is replayed right here otherwise.
        self.offload = self.model_shared;
        self.hand_off();
        if self.model_shared {
            // Replay what the helper has not (alongside it, in queue
            // order) and take the live model back.
            let shared = self.shared.as_deref().expect("a shared model exists");
            let mut live = shared.replay_queued();
            std::mem::swap(&mut self.model, &mut *live);
            drop(live);
            self.model_shared = false;
        }
        self.model.settle();
        let charged = self.charged_before_reset + self.model.stats().accesses;
        self.offload = charged >= OFFLOAD_AFTER && cpu_free();
        #[cfg(test)]
        if let Some(forced) = self.forced {
            self.offload = forced;
        }
        self.direct = !self.offload && self.observer.is_none();
        &mut self.model
    }

    /// A drain point that also clears the model.
    pub(crate) fn reset(&mut self) {
        let model = self.drain();
        let charged = model.stats().accesses;
        model.reset();
        self.charged_before_reset += charged;
    }

    /// The state shared with the helper; it exists once the processor has
    /// offloaded a chunk.
    fn shared(&self) -> &Shared {
        self.shared
            .as_deref()
            .expect("the shared model exists once a chunk was offloaded")
    }

    /// Whether a helper thread was started.
    #[cfg(test)]
    pub(crate) fn has_helper(&self) -> bool {
        self.helper.is_some()
    }
}

impl Drop for FetchLog {
    fn drop(&mut self) {
        if let Some(helper) = self.helper.take() {
            let shared = self.shared();
            // No panic in a destructor: a poisoned queue still closes.
            let mut queue = shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Nobody reads the model any more: skip the backlog.
            queue.pending.clear();
            queue.closed = true;
            drop(queue);
            shared.work.notify_one();
            // A helper that panicked already poisoned the model; the
            // processor is being dropped, so there is nothing to report to.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::per_access::PerAccess;
    use proptest::prelude::*;

    /// The key of the one tile that index `idx` falls into.
    fn key_of(tiling: Tiling, idx: u64) -> u64 {
        let mut keys = Vec::new();
        tiling.for_each_tile(idx, 1, |key, n| keys.push((key, n)));
        assert_eq!(keys.len(), 1);
        keys[0].0
    }

    #[test]
    fn tile_keys_name_the_layouts_tiles() {
        // A key maps back to the tile of `to_2d`, two indices share a key
        // iff they share a tile, and a multi-tile walk hands over every
        // index under its own tile's key — for every layout.
        for layout in [
            Layout::Linear,
            Layout::RowMajor { width: 32 },
            Layout::RowMajor { width: 2 },
            Layout::ZOrder,
        ] {
            for shift in [0u32, 1, 2, 3] {
                let tiling = Tiling::new(layout, shift);
                let tile = |idx: usize| {
                    let (x, y) = layout.to_2d(idx);
                    (x >> shift, y >> shift)
                };
                for idx in 0..2048usize {
                    let key = key_of(tiling, idx as u64);
                    assert_eq!(tiling.tile_xy(key), tile(idx), "{layout:?} {shift} {idx}");
                    for other in idx.saturating_sub(40)..idx {
                        assert_eq!(
                            key == key_of(tiling, other as u64),
                            tile(idx) == tile(other),
                            "layout {layout:?} shift {shift} idx {idx} other {other}"
                        );
                    }
                }
                for (first, count) in [(0u64, 1u64), (3, 200), (17, 64), (64, 64), (1000, 1)] {
                    let mut idx = first;
                    tiling.for_each_tile(first, count, |key, n| {
                        assert!(n > 0);
                        for i in idx..idx + n {
                            assert_eq!(key_of(tiling, i), key, "{layout:?} {shift} {i}");
                        }
                        idx += n;
                    });
                    assert_eq!(idx, first + count);
                }
            }
        }
    }

    #[test]
    fn continuing_fetches_merge_and_full_chunks_hand_off() {
        let stream = FetchStream {
            tag: 7,
            layout: Layout::ZOrder,
            bytes: 16,
        };
        let other = FetchStream { tag: 8, ..stream };
        let chunks = Arc::new(Mutex::new(Vec::new()));
        let mut log = FetchLog::new(CacheConfig::geforce_like(16));
        let seen = Arc::clone(&chunks);
        log.set_observer(Box::new(move |c: &FetchChunk| {
            seen.lock().unwrap().push(c.clone())
        }));
        log.record(&BoundStream::new(stream), 10, 2);
        log.record(&BoundStream::new(stream), 12, 3); // continues the previous fetch
        log.record(&BoundStream::new(other), 15, 1); // another stream: a new entry
        log.record(&BoundStream::new(stream), 15, 1); // continues, but not the last entry
        assert_eq!(
            log.chunk.fetches,
            [
                Fetch {
                    first: 10,
                    count: 5,
                    slot: 0
                },
                Fetch {
                    first: 15,
                    count: 1,
                    slot: 1
                },
                Fetch {
                    first: 15,
                    count: 1,
                    slot: 0
                },
            ]
        );
        // Fill the chunk with non-continuing fetches: the next one hands
        // it off whole.
        for i in 3..CHUNK_FETCHES {
            log.record(&BoundStream::new(stream), 100 + 2 * i, 1);
        }
        assert!(chunks.lock().unwrap().is_empty());
        log.record(&BoundStream::new(stream), 1, 1);
        {
            let chunks = chunks.lock().unwrap();
            assert_eq!(chunks.len(), 1);
            assert_eq!(chunks[0].fetches().len(), CHUNK_FETCHES);
            assert_eq!(chunks[0].streams(), &[stream, other]);
        }
        assert_eq!(log.chunk.fetches.len(), 1);
        assert_eq!(log.chunk.streams, [stream]);
        let accesses = log.drain().stats().accesses;
        assert_eq!(accesses, (5 + 1 + 1 + CHUNK_FETCHES - 3 + 1) as u64);
        assert_eq!(
            chunks.lock().unwrap().len(),
            2,
            "the drain hands off the rest"
        );
    }

    /// Streams for the property test: one tag under all three layouts and
    /// two element sizes, and a second tag, so that one chunk holds
    /// streams of one tag that may share a probe and ones that may not.
    const STREAMS: [FetchStream; 6] = [
        FetchStream {
            tag: 1,
            layout: Layout::ZOrder,
            bytes: 16,
        },
        FetchStream {
            tag: 1,
            layout: Layout::Linear,
            bytes: 16,
        },
        FetchStream {
            tag: 1,
            layout: Layout::ZOrder,
            bytes: 4,
        },
        FetchStream {
            tag: 1,
            layout: Layout::RowMajor { width: 16 },
            bytes: 16,
        },
        FetchStream {
            tag: 2,
            layout: Layout::RowMajor { width: 4 },
            bytes: 4,
        },
        FetchStream {
            tag: 2,
            layout: Layout::ZOrder,
            bytes: 16,
        },
    ];

    /// `fetches` (stream, first, count) cut into chunks of the given
    /// lengths (cycled), each with its own stream table.
    fn chunked(fetches: &[(usize, u32, u32)], lengths: &[usize]) -> Vec<FetchChunk> {
        let mut chunks = Vec::new();
        let mut rest = fetches;
        for &len in lengths.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (now, later) = rest.split_at(len.min(rest.len()));
            let mut chunk = FetchChunk::default();
            for &(stream, first, count) in now {
                let stream = STREAMS[stream];
                let slot = match chunk.streams.iter().position(|s| *s == stream) {
                    Some(slot) => slot,
                    None => {
                        chunk.streams.push(stream);
                        chunk.streams.len() - 1
                    }
                };
                chunk.fetches.push(Fetch {
                    first,
                    count,
                    slot: slot as u32,
                });
            }
            chunks.push(chunk);
            rest = later;
        }
        chunks
    }

    fn fetches() -> impl Strategy<Value = Vec<(usize, u32, u32)>> {
        // Dense fetches make neighbours of different streams meet in
        // tiles with equal keys; wide ones cross many tiles.
        let first = prop_oneof![1 => 0u32..24, 1 => 0u32..600];
        let count = prop_oneof![4 => 1u32..5, 1 => 1u32..161];
        proptest::collection::vec((0..STREAMS.len(), first, count), 1..200)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The chunk replay, the direct path and the per-access reference
        /// charge any log identically: every layout, 1 to 4 ways (the
        /// 4-way min tree and the loop over fewer ways), tile edges 1 to
        /// 4, runs split at chunk boundaries and fetches across many tiles.
        #[test]
        fn replay_direct_path_and_per_access_reference_agree(
            ways in 1u32..5,
            shift in 0u32..3,
            sets_log in 0u32..4,
            fetches in fetches(),
            lengths in proptest::collection::vec(1usize..49, 1..8),
        ) {
            let config = CacheConfig {
                block_edge: 1 << shift,
                num_blocks: ways << sets_log,
                ways,
                element_bytes: 8,
            };
            let chunks = chunked(&fetches, &lengths);
            let replayed = replay_log(config, &chunks);

            let mut direct = CostModel::new(config);
            for &(stream, first, count) in &fetches {
                direct.fetch(STREAMS[stream], first, count);
            }
            direct.settle();

            let mut reference = PerAccess::new(config);
            for chunk in &chunks {
                reference.replay(chunk);
            }
            let counters = reference.counters(&crate::Counters::new());

            prop_assert_eq!((direct.stats(), direct.bytes_read()), (counters.cache, counters.bytes_read));
            prop_assert_eq!((replayed.cache, replayed.bytes_read), (counters.cache, counters.bytes_read));
            // The replay coalesces as the direct path does, except that it
            // splits a run at each chunk boundary.
            prop_assert!(direct.probes <= replayed.probes);
            prop_assert!(replayed.probes < direct.probes + chunks.len() as u64);
        }
    }

    #[test]
    fn a_log_observed_mid_run_charges_the_open_direct_run_first() {
        // One 1-way set: every tile evicts every other, so the order of
        // the probes decides the misses.
        let config = CacheConfig {
            block_edge: 4,
            num_blocks: 1,
            ways: 1,
            element_bytes: 16,
        };
        let a = FetchStream {
            tag: 4,
            layout: Layout::ZOrder,
            bytes: 16,
        };
        let b = FetchStream { tag: 5, ..a };
        let mut log = FetchLog::new(config);
        log.record(&BoundStream::new(a), 0, 2); // charged directly, its run still open
        log.set_observer(Box::new(|_: &FetchChunk| {}));
        log.record(&BoundStream::new(b), 0, 1);
        log.record(&BoundStream::new(a), 0, 1);
        // a misses, b evicts it, a misses again.
        assert_eq!(log.drain().stats().misses, 3);
    }

    /// Record `chunks` full chunks of scattered single-element fetches.
    fn fill(log: &mut FetchLog, stream: FetchStream, chunks: usize) {
        for i in 0..chunks * CHUNK_FETCHES {
            log.record(&BoundStream::new(stream), (i * 7919) % (1 << 20), 1);
        }
    }

    #[test]
    fn a_stalled_helper_holds_the_engine_back_in_record_order() {
        let stream = FetchStream {
            tag: 3,
            layout: Layout::ZOrder,
            bytes: 16,
        };
        let config = CacheConfig::geforce_like(16);
        let mut log = FetchLog::new(config);
        log.forced = Some(true);
        log.drain();
        fill(&mut log, stream, 1);
        log.record(&BoundStream::new(stream), 1, 1); // hands the first chunk to the helper
        assert!(log.model_shared && log.has_helper());

        // Stall the helper: hold the live model until the engine thread,
        // having queued more than MAX_BACKLOG chunks, waits for room.
        let shared = Arc::clone(log.shared.as_ref().unwrap());
        let (locked_tx, locked_rx) = std::sync::mpsc::channel();
        let staller = std::thread::spawn(move || {
            let _model = shared.model();
            locked_tx.send(()).unwrap();
            while !shared.queue().engine_waiting {
                std::thread::yield_now();
            }
        });
        locked_rx.recv().unwrap();
        fill(&mut log, stream, MAX_BACKLOG + 2);
        staller.join().unwrap();
        assert!(log.offload && log.model_shared);
        assert!(log.shared().queue().pending.len() <= MAX_BACKLOG + 1);

        // The fetches reached the model in record order all the same.
        let mut reference = CostModel::new(config);
        let scattered = |reference: &mut CostModel, chunks: usize| {
            for i in 0..chunks * CHUNK_FETCHES {
                reference.fetch(stream, ((i * 7919) % (1 << 20)) as u32, 1);
            }
        };
        scattered(&mut reference, 1);
        reference.fetch(stream, 1, 1);
        scattered(&mut reference, MAX_BACKLOG + 2);
        reference.settle();
        let model = log.drain();
        assert_eq!(model.stats(), reference.stats());
        assert_eq!(model.bytes_read(), reference.bytes_read());
    }

    #[test]
    fn a_processor_stays_on_the_engine_thread_until_it_charged_enough() {
        let stream = FetchStream {
            tag: 5,
            layout: Layout::ZOrder,
            bytes: 16,
        };
        let mut log = FetchLog::new(CacheConfig::geforce_like(16));
        log.reset();
        fill(&mut log, stream, 4);
        log.reset();
        assert!(!log.offload && log.direct, "4 chunks are below the bar");
        assert_eq!(log.charged_before_reset, 4 * CHUNK_FETCHES as u64);
        assert!(!log.has_helper());
    }

    #[test]
    fn dropping_an_offloading_log_mid_run_stops_its_helper() {
        let stream = FetchStream {
            tag: 9,
            layout: Layout::Linear,
            bytes: 4,
        };
        let mut log = FetchLog::new(CacheConfig::geforce_like(4));
        log.forced = Some(true);
        log.drain();
        fill(&mut log, stream, MAX_BACKLOG);
        assert!(log.has_helper());
        // Chunks may still be queued: the drop discards them and joins.
        drop(log);
    }
}
