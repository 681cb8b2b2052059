//! Texture-cache model.
//!
//! Current GPUs (in the paper's 2006 sense) route *all* reads — streaming
//! reads as well as gathers — through the texture cache, whose blocks hold
//! square or near-square 2D regions of the texture (Hakura & Gupta 1997,
//! cited in Section 6.2.2). The consequence the paper exploits is that
//! reading a long, skinny 1D range of a row-wise-mapped stream touches many
//! cache blocks and wastes most of each block fill, while the same range
//! under the Z-order mapping is a compact square tile.
//!
//! [`CacheSim`] models exactly that: a set-associative cache of
//! `block_edge × block_edge` element tiles with LRU replacement. A miss
//! charges a full tile fill to the memory-traffic counter; the resulting
//! read-bandwidth difference between the row-wise and Z-order layouts is
//! what separates GPU-ABiSort variants (a) and (b) in Table 2.
//!
//! Its replacement rule is stated in [`crate::accounting`], the module
//! that drives it.

use serde::{Deserialize, Serialize};

/// Configuration of the texture cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Edge length (in elements) of the square region covered by one cache
    /// block. 8 means an 8×8-element tile per block.
    pub block_edge: u32,
    /// Total number of cache blocks.
    pub num_blocks: u32,
    /// Associativity (blocks per set). `num_blocks` must be a multiple.
    pub ways: u32,
    /// Bytes of one stored element, used to charge fill traffic.
    pub element_bytes: u32,
}

impl CacheConfig {
    /// A cache resembling the texture-cache hierarchy of the paper's GPUs:
    /// 4×4-element tiles (a 256-byte cache block for the 16-byte `float4`
    /// texels GPU-ABiSort stores its nodes in — the square cache blocks of
    /// Hakura & Gupta that Section 6.2.2 refers to), 512 blocks (the
    /// combined effect of the per-pipe L1 and the shared L2 texture cache),
    /// 4-way set associative.
    pub const fn geforce_like(element_bytes: u32) -> Self {
        CacheConfig {
            block_edge: 4,
            num_blocks: 512,
            ways: 4,
            element_bytes,
        }
    }

    /// Bytes fetched from memory when one cache block is filled.
    #[inline]
    pub fn block_fill_bytes(&self) -> u64 {
        (self.block_edge as u64) * (self.block_edge as u64) * self.element_bytes as u64
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::geforce_like(8)
    }
}

/// Aggregated cache statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of element accesses routed through the cache.
    pub accesses: u64,
    /// Accesses served from the cache.
    pub hits: u64,
    /// Accesses that required a block fill.
    pub misses: u64,
    /// Bytes fetched from stream memory for block fills.
    pub fill_bytes: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 if there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Merge another unit's statistics into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.fill_bytes += other.fill_bytes;
    }
}

/// Most ways a set may have: one set's tags and LRU stamps fill exactly one
/// 64-byte line.
pub const MAX_WAYS: u32 = 4;

const EMPTY_TAG: u64 = u64::MAX;

/// One cache set: the tags of its ways (`EMPTY_TAG` for an empty way) and
/// their LRU stamps, packed into one 64-byte line so a probe touches one
/// line of host memory.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(align(64))]
struct Set {
    tags: [u64; MAX_WAYS as usize],
    stamps: [u64; MAX_WAYS as usize],
}

const EMPTY_SET: Set = Set {
    tags: [EMPTY_TAG; MAX_WAYS as usize],
    stamps: [0; MAX_WAYS as usize],
};

/// A set-associative LRU cache over 2D element tiles: the processor's one
/// texture cache.
///
/// The simulation is exact and order-dependent: the statistics after a
/// sequence of accesses depend on the whole sequence, so the accounting
/// feeds it every cached fetch of a processor in record order (see
/// [`crate::accounting`]).
#[derive(Clone, Debug)]
pub struct CacheSim {
    config: CacheConfig,
    /// `num_sets - 1`; the set count is a power of two.
    set_mask: u64,
    sets: Vec<Set>,
    clock: u64,
    stats: CacheStats,
}

impl CacheSim {
    /// Create an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.block_edge.is_power_of_two(),
            "block edge must be a power of two"
        );
        assert!(
            (1..=MAX_WAYS).contains(&config.ways) && config.num_blocks.is_multiple_of(config.ways),
            "ways must be in 1..=4 and divide num_blocks"
        );
        let num_sets = config.num_blocks / config.ways;
        assert!(
            num_sets.is_power_of_two(),
            "number of sets must be a power of two"
        );
        CacheSim {
            config,
            set_mask: num_sets as u64 - 1,
            sets: vec![EMPTY_SET; num_sets as usize],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Simulate a read of the element at 2D coordinate `(x, y)` of stream
    /// `stream_id`. Returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, stream_id: u64, x: u32, y: u32) -> bool {
        let shift = self.config.block_edge.trailing_zeros();
        self.access_tile_run(stream_id, x >> shift, y >> shift, 1)
    }

    /// Simulate `count` consecutive reads that all fall into the cache tile
    /// `(bx, by)` of stream `stream_id` (tile coordinates are element
    /// coordinates divided by the block edge). Returns `true` when the
    /// *first* of those reads hits.
    ///
    /// This is the batched form of [`CacheSim::access`]: after the first
    /// read of a run the tile is resident, so the remaining `count − 1`
    /// reads are hits that only advance the clock and refresh the tile's
    /// LRU stamp. One probe therefore charges the whole run with statistics,
    /// stamps and clock byte-identical to `count` single-element accesses.
    #[inline]
    pub fn access_tile_run(&mut self, stream_id: u64, bx: u32, by: u32, count: u64) -> bool {
        // A hard precondition even in release builds: the miss path charges
        // `count - 1` hits, which would wrap on an empty run.
        assert!(count > 0, "a tile run has at least one access");
        self.batch().probe(StreamKey::new(stream_id), bx, by, count)
    }

    /// Borrow the cache for a batch of probes ([`CacheBatch::probe`]),
    /// which keeps the clock and the miss count in its own fields.
    #[inline]
    pub(crate) fn batch(&mut self) -> CacheBatch<'_> {
        let CacheSim {
            config,
            set_mask,
            sets,
            clock,
            stats,
        } = self;
        CacheBatch {
            sets,
            set_mask: *set_mask,
            ways: config.ways,
            clock: *clock,
            misses: 0,
            start: *clock,
            fill_bytes: config.block_fill_bytes(),
            home: (clock, stats),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset contents and statistics. An untouched cache (every access
    /// bumps the clock) returns immediately, so resetting a processor that
    /// ran nothing since its last reset does not refill the sets.
    pub fn reset(&mut self) {
        if self.clock == 0 {
            return;
        }
        self.sets.fill(EMPTY_SET);
        self.clock = 0;
        self.stats = CacheStats::default();
    }
}

/// The part of a probe that depends only on the stream: the stream's
/// share of the tile tag and of the set hash. A caller that probes many
/// tiles of one stream computes it once.
#[derive(Copy, Clone)]
pub(crate) struct StreamKey {
    tag_high: u64,
    set_hash: u64,
}

impl StreamKey {
    /// The probe key of the stream with cache tag `stream_id`.
    #[inline]
    pub(crate) fn new(stream_id: u64) -> Self {
        StreamKey {
            tag_high: stream_id << 40,
            set_hash: stream_id.wrapping_mul(0x85EB_CA6B),
        }
    }
}

/// A [`CacheSim`] borrowed for a batch of probes. It counts only the clock
/// and the misses, which a caller's loop holds in registers: every access
/// advances the clock by one and is a hit or a miss, and every miss fills
/// one block, so the dropped batch adds the rest of the statistics up from
/// those two.
pub(crate) struct CacheBatch<'a> {
    sets: &'a mut [Set],
    set_mask: u64,
    ways: u32,
    clock: u64,
    misses: u64,
    /// The clock when the batch began.
    start: u64,
    fill_bytes: u64,
    home: (&'a mut u64, &'a mut CacheStats),
}

impl CacheBatch<'_> {
    /// Charge `count ≥ 1` consecutive reads of tile `(bx, by)` of `stream`:
    /// the one probe of [`CacheSim::access_tile_run`]. Returns `true` when
    /// the first read hits.
    #[inline(always)]
    pub(crate) fn probe(&mut self, stream: StreamKey, bx: u32, by: u32, count: u64) -> bool {
        debug_assert!(count > 0, "a tile run has at least one access");
        self.clock += count;
        let bx = u64::from(bx);
        let by = u64::from(by);
        // Tag combines the stream identity and the tile coordinate.
        let tag = stream.tag_high ^ (by << 20) ^ bx;
        let set_index = (bx ^ by.wrapping_mul(0x9E37_79B9) ^ stream.set_hash) & self.set_mask;
        let set = &mut self.sets[set_index as usize];

        // The mask of the ways holding the tag, built without
        // data-dependent branches (which way hits is random).
        let mut hits = 0u32;
        for w in 0..MAX_WAYS as usize {
            hits |= u32::from(set.tags[w] == tag) << w;
        }
        let hits = hits & ((1u32 << self.ways) - 1);
        if hits != 0 {
            set.stamps[hits.trailing_zeros() as usize] = self.clock;
            return true;
        }
        // Miss on the first access: evict the LRU way and fill; the rest
        // of the run hits the freshly filled tile.
        self.misses += 1;
        let victim = if self.ways == MAX_WAYS {
            oldest_of_four(&set.stamps)
        } else {
            oldest_of(&set.stamps[..self.ways as usize])
        };
        set.tags[victim] = tag;
        set.stamps[victim] = self.clock;
        false
    }
}

impl Drop for CacheBatch<'_> {
    #[inline]
    fn drop(&mut self) {
        let (clock, stats) = &mut self.home;
        let accesses = self.clock - self.start;
        **clock = self.clock;
        stats.accesses += accesses;
        stats.hits += accesses - self.misses;
        stats.misses += self.misses;
        stats.fill_bytes += self.misses * self.fill_bytes;
    }
}

/// The first way with the smallest stamp of a 4-way set: a two-level min
/// tree, with no branch that depends on the stamps.
#[inline]
fn oldest_of_four(stamps: &[u64; MAX_WAYS as usize]) -> usize {
    let (low, low_stamp) = if stamps[1] < stamps[0] {
        (1, stamps[1])
    } else {
        (0, stamps[0])
    };
    let (high, high_stamp) = if stamps[3] < stamps[2] {
        (3, stamps[3])
    } else {
        (2, stamps[2])
    };
    if high_stamp < low_stamp {
        high
    } else {
        low
    }
}

/// The first way with the smallest stamp among `stamps`, the live ways of
/// a set with fewer than 4.
fn oldest_of(stamps: &[u64]) -> usize {
    let mut victim = 0;
    for w in 1..stamps.len() {
        if stamps[w] < stamps[victim] {
            victim = w;
        }
    }
    victim
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> CacheSim {
        CacheSim::new(CacheConfig {
            block_edge: 4,
            num_blocks: 8,
            ways: 2,
            element_bytes: 8,
        })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache();
        assert!(!c.access(1, 0, 0));
        assert!(c.access(1, 0, 0));
        assert!(c.access(1, 3, 3)); // same 4x4 tile
        assert!(!c.access(1, 4, 0)); // next tile
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn different_streams_do_not_alias() {
        let mut c = small_cache();
        assert!(!c.access(1, 0, 0));
        assert!(!c.access(2, 0, 0));
        assert!(c.access(1, 0, 0) || c.access(2, 0, 0));
    }

    #[test]
    fn fill_bytes_charged_per_miss() {
        let mut c = small_cache();
        c.access(0, 0, 0);
        c.access(0, 100, 100);
        assert_eq!(c.stats().fill_bytes, 2 * 4 * 4 * 8);
    }

    #[test]
    fn square_walk_beats_row_walk() {
        // Walking a 32x32 square region (1024 elements) touches 64 tiles;
        // walking a 1x1024 row strip touches 256 tiles of which only 4
        // elements each are used. The square walk must produce a clearly
        // better hit rate — this is the mechanism behind Z-order vs
        // row-wise (Section 6.2.2).
        let mut sq = CacheSim::new(CacheConfig::geforce_like(8));
        for y in 0..32u32 {
            for x in 0..32u32 {
                sq.access(0, x, y);
            }
        }
        let mut row = CacheSim::new(CacheConfig::geforce_like(8));
        for x in 0..1024u32 {
            row.access(0, x, 0);
        }
        assert!(sq.stats().hit_rate() > row.stats().hit_rate());
        assert!(sq.stats().fill_bytes < row.stats().fill_bytes);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-way sets: touching three distinct tiles that map to the same set
        // evicts the first.
        let mut c = CacheSim::new(CacheConfig {
            block_edge: 4,
            num_blocks: 2,
            ways: 2,
            element_bytes: 8,
        });
        // With a single set, any three distinct tiles collide.
        assert!(!c.access(0, 0, 0));
        assert!(!c.access(0, 4, 0));
        assert!(!c.access(0, 8, 0));
        // (0,0) was evicted; (4,0) should still be resident.
        assert!(c.access(0, 4, 0));
        assert!(!c.access(0, 0, 0));
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = small_cache();
        c.access(0, 0, 0);
        c.access(0, 0, 0);
        c.reset();
        assert_eq!(c.stats(), &CacheStats::default());
        assert!(!c.access(0, 0, 0));
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = CacheStats {
            accesses: 10,
            hits: 6,
            misses: 4,
            fill_bytes: 1024,
        };
        let b = CacheStats {
            accesses: 2,
            hits: 1,
            misses: 1,
            fill_bytes: 256,
        };
        a.merge(&b);
        assert_eq!(a.accesses, 12);
        assert_eq!(a.hits, 7);
        assert_eq!(a.misses, 5);
        assert_eq!(a.fill_bytes, 1280);
        assert!((a.hit_rate() - 7.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn tile_run_is_byte_identical_to_repeated_accesses() {
        // Any interleaving of tile runs must leave the cache (tags, stamps,
        // clock) and statistics exactly as the per-access walk does — this
        // is what lets the cost model charge a whole run with one probe.
        let walk: Vec<(u64, u32, u32, u64)> = vec![
            (1, 0, 0, 7),  // 7 accesses inside tile (0,0)
            (1, 5, 1, 3),  // different tile, same stream
            (2, 0, 0, 4),  // same tile coordinate, different stream
            (1, 0, 0, 1),  // back to the first tile
            (1, 9, 9, 16), // a fresh tile
            (2, 0, 0, 2),
        ];
        let mut single = small_cache();
        for &(id, x, y, count) in &walk {
            for _ in 0..count {
                single.access(id, x, y);
            }
        }
        let mut batched = small_cache();
        let shift = batched.config().block_edge.trailing_zeros();
        for &(id, x, y, count) in &walk {
            batched.access_tile_run(id, x >> shift, y >> shift, count);
        }
        assert_eq!(single.stats(), batched.stats());
        assert_eq!(single.sets, batched.sets);
        assert_eq!(single.clock, batched.clock);
    }

    /// A textbook LRU cache with the same tags and set hash: each set a
    /// list of tags, most recently used first.
    struct Lru {
        sets: Vec<Vec<u64>>,
        ways: usize,
    }

    impl Lru {
        fn access(&mut self, stream_id: u64, bx: u32, by: u32) -> bool {
            let (bx, by) = (u64::from(bx), u64::from(by));
            let tag = (stream_id << 40) ^ (by << 20) ^ bx;
            let set = (bx ^ by.wrapping_mul(0x9E37_79B9) ^ stream_id.wrapping_mul(0x85EB_CA6B))
                as usize
                % self.sets.len();
            let set = &mut self.sets[set];
            let hit = match set.iter().position(|&t| t == tag) {
                Some(way) => {
                    set.remove(way);
                    true
                }
                None => {
                    set.truncate(self.ways - 1);
                    false
                }
            };
            set.insert(0, tag);
            hit
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The victim rule (first empty way, else the oldest stamp, by the
        /// min tree for 4 ways and by the loop for fewer) is LRU: every
        /// run hits or misses as in a textbook LRU cache.
        #[test]
        fn tile_runs_hit_and_miss_as_in_a_textbook_lru(
            ways in 1u32..5,
            sets_log in 0u32..3,
            runs in proptest::collection::vec((0u64..3, 0u32..6, 0u32..4, 1u64..4), 1..300),
        ) {
            let config = CacheConfig {
                block_edge: 4,
                num_blocks: ways << sets_log,
                ways,
                element_bytes: 8,
            };
            let mut cache = CacheSim::new(config);
            let mut lru = Lru {
                sets: vec![Vec::new(); 1 << sets_log],
                ways: ways as usize,
            };
            let mut misses = 0;
            for &(stream, bx, by, count) in &runs {
                let hit = cache.access_tile_run(stream, bx, by, count);
                proptest::prop_assert_eq!(hit, lru.access(stream, bx, by));
                misses += u64::from(!hit);
            }
            let accesses: u64 = runs.iter().map(|run| run.3).sum();
            proptest::prop_assert_eq!(
                *cache.stats(),
                CacheStats {
                    accesses,
                    hits: accesses - misses,
                    misses,
                    fill_bytes: misses * config.block_fill_bytes(),
                }
            );
        }
    }

    #[test]
    fn a_set_fills_one_cache_line() {
        assert_eq!(std::mem::size_of::<Set>(), 64);
        assert_eq!(std::mem::align_of::<Set>(), 64);
    }

    #[test]
    #[should_panic(expected = "ways must be in 1..=4")]
    fn rejects_more_ways_than_a_line_holds() {
        let _ = CacheSim::new(CacheConfig {
            block_edge: 4,
            num_blocks: 16,
            ways: 8,
            element_bytes: 8,
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_block_edge() {
        let _ = CacheSim::new(CacheConfig {
            block_edge: 3,
            num_blocks: 8,
            ways: 2,
            element_bytes: 8,
        });
    }
}
