//! `StreamArena` — recycling of stream backing buffers.
//!
//! Every GPU-ABiSort run allocates a handful of large intermediate streams
//! (two 2n-node tree streams, two 2n-index pq streams, two n-value scratch
//! streams, a padded copy of the input). A sorting service that executes
//! thousands of jobs on one pooled [`crate::StreamProcessor`] would pay
//! malloc/free — and the accompanying page faults — for each of them on
//! every job. The arena removes that churn: a `Vec<T>` that backed a stream
//! is handed back after the run and the next run of a similar size takes it
//! again instead of allocating.
//!
//! Buffers are binned by *capacity class* (the power of two at or below the
//! buffer's capacity) and by element type, so a request for `len` elements
//! is served by any pooled buffer of class `len.next_power_of_two()` — the
//! same quantization the sort's padded problem sizes already follow.
//!
//! # Zero-fill elision
//!
//! A recycled buffer keeps its elements and its length: the length is a
//! **write watermark**, everything below it was initialized by an earlier
//! run. [`StreamArena::take_stream_uninit`] serves the sort's working
//! streams (output trees, pq indices, scratch values), which are provably
//! *written before read* — every element a kernel reads was produced by an
//! earlier stream operation of the same run. It default-fills only the
//! portion above the watermark, so in steady state no element is touched
//! at all. The contents below the watermark are stale data from an earlier
//! run — well-defined values, never uninitialized memory — and the
//! write-before-read property makes them unobservable. The other takes
//! expose no stale data: [`StreamArena::take_capacity`] returns an empty
//! buffer and [`StreamArena::take_stream_from`] a copy of the caller's
//! data. So a warm processor's runs are byte-identical (outputs, counters,
//! simulated times) to runs on a fresh processor, whose takes all allocate;
//! `tests/arena_elision.rs` checks exactly that. Only host wall-clock time
//! changes.
//!
//! # Pool bound
//!
//! The pool has no cap and never evicts; how runs use it bounds it. A run
//! takes every buffer it needs before it hands any back, so after a run a
//! bin holds no more buffers than the most any one run had live at once in
//! that (type, class), and never more than `MAX_BUFFERS_PER_CLASS`. A
//! run's working set has the same shape at every size: per element type,
//! a fixed number `k` of buffers of the class its size maps to. Classes are
//! powers of two, so per element type the pooled bytes over every class up
//! to the largest one `C` form a geometric series,
//! `Σ k·c·size_of::<T>() < 2·k·C·size_of::<T>()`: the whole pool stays
//! below twice what one run of the largest size ever sorted leaves pooled.
//! A mixed-size soak in `tests/arena_elision.rs` asserts that bound.

use crate::layout::Layout;
use crate::stream::Stream;
use crate::value::StreamElement;
use std::any::{Any, TypeId};
use std::collections::HashMap;

/// Upper bound on pooled buffers per (type, capacity class) bin. A sort
/// run keeps at most a handful of same-class streams alive at once, so a
/// small bin bounds arena memory without ever missing in steady state.
const MAX_BUFFERS_PER_CLASS: usize = 8;

/// Cumulative arena behaviour, for reuse assertions and reports.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffer requests served.
    pub takes: u64,
    /// Requests served from the pool (no allocation).
    pub hits: u64,
    /// Requests that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers handed back and kept for reuse.
    pub recycled: u64,
    /// Buffers handed back but dropped: their bin already held
    /// `MAX_BUFFERS_PER_CLASS` buffers, or they had zero capacity.
    pub dropped: u64,
    /// Elements whose default refill was skipped by uninit takes (served
    /// below a recycled buffer's write watermark).
    pub elided_elements: u64,
}

/// Type-erased access to one element type's bins.
trait AnyPool: Send {
    fn class_count(&self) -> usize;
    fn buffer_count(&self) -> usize;
    fn pooled_bytes(&self) -> u64;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The bins for one element type: capacity class → pooled buffers.
struct TypedPool<T> {
    bins: HashMap<usize, Vec<Vec<T>>>,
}

impl<T: StreamElement> AnyPool for TypedPool<T> {
    fn class_count(&self) -> usize {
        self.bins.values().filter(|b| !b.is_empty()).count()
    }
    fn buffer_count(&self) -> usize {
        self.bins.values().map(Vec::len).sum()
    }
    fn pooled_bytes(&self) -> u64 {
        self.bins
            .values()
            .flatten()
            .map(|b| (b.capacity() * std::mem::size_of::<T>()) as u64)
            .sum()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A pool of reusable `Vec<T>` backing buffers keyed by element type and
/// capacity class. See the module documentation.
#[derive(Default)]
pub struct StreamArena {
    pools: HashMap<TypeId, Box<dyn AnyPool>>,
    stats: ArenaStats,
}

impl StreamArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes currently held by pooled buffers (capacity × element
    /// size, summed over every bin).
    pub fn pooled_bytes(&self) -> u64 {
        self.pools.values().map(|p| p.pooled_bytes()).sum()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Number of (element type, capacity class) bins currently holding at
    /// least one buffer. Steady-state workloads must not grow this — the
    /// reuse property the tests pin down.
    pub fn class_count(&self) -> usize {
        self.pools.values().map(|p| p.class_count()).sum()
    }

    /// Total pooled buffers across all bins.
    pub fn pooled_buffers(&self) -> usize {
        self.pools.values().map(|p| p.buffer_count()).sum()
    }

    /// The capacity class serving a request for `len` elements.
    #[inline]
    fn class_for(len: usize) -> usize {
        len.next_power_of_two().max(1)
    }

    /// Pop a pooled buffer of `class`, write watermark (length) intact,
    /// counting the take as a hit or a miss.
    fn pop_pooled<T: StreamElement>(&mut self, class: usize) -> Option<Vec<T>> {
        self.stats.takes += 1;
        let buf = self
            .pools
            .get_mut(&TypeId::of::<T>())
            .and_then(|p| p.as_any_mut().downcast_mut::<TypedPool<T>>())
            .and_then(|pool| pool.bins.get_mut(&class))
            .and_then(Vec::pop);
        match &buf {
            Some(buf) => {
                self.stats.hits += 1;
                debug_assert!(buf.capacity() >= class);
            }
            None => self.stats.misses += 1,
        }
        buf
    }

    /// An empty buffer with capacity for at least `min_capacity` elements —
    /// pooled if one of the right class is available, freshly allocated
    /// otherwise.
    pub fn take_capacity<T: StreamElement>(&mut self, min_capacity: usize) -> Vec<T> {
        let class = Self::class_for(min_capacity);
        match self.pop_pooled::<T>(class) {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::with_capacity(class),
        }
    }

    /// The backing buffer of [`StreamArena::take_stream_uninit`]. Its
    /// contents are always valid values of `T`, never uninitialized memory;
    /// "uninit" refers to the stream contract, not the memory state.
    fn take_vec_uninit<T: StreamElement>(&mut self, len: usize) -> Vec<T> {
        let class = Self::class_for(len);
        // A fresh allocation has no initialized prefix to reuse; exposing
        // truly uninitialized memory would be unsound, so a miss pays the
        // fill once. Steady-state takes hit the pool and skip it.
        let mut buf = self
            .pop_pooled::<T>(class)
            .unwrap_or_else(|| Vec::with_capacity(class));
        // Only the tail above the watermark needs initializing; in steady
        // state (same size class re-taken run after run) there is none.
        let watermark = buf.len();
        self.stats.elided_elements += watermark.min(len) as u64;
        buf.resize(len, T::default());
        buf
    }

    /// Hand a buffer back for reuse. The contents and length are *kept* —
    /// the length is the buffer's write watermark, which lets a later
    /// [`StreamArena::take_stream_uninit`] of the same class skip the
    /// default refill entirely. The buffer is binned under the largest
    /// capacity class it can serve. A buffer whose bin is full, or with
    /// zero capacity, is dropped.
    pub fn put_vec<T: StreamElement>(&mut self, v: Vec<T>) {
        let cap = v.capacity();
        if cap == 0 {
            self.stats.dropped += 1;
            return;
        }
        // Largest power of two ≤ cap: every take of that class fits.
        let class = 1usize << (usize::BITS - 1 - cap.leading_zeros());
        let pool = self
            .pools
            .entry(TypeId::of::<T>())
            .or_insert_with(|| {
                Box::new(TypedPool::<T> {
                    bins: HashMap::new(),
                })
            })
            .as_any_mut()
            .downcast_mut::<TypedPool<T>>()
            .expect("pool type mismatch");
        let bin = pool.bins.entry(class).or_default();
        if bin.len() >= MAX_BUFFERS_PER_CLASS {
            self.stats.dropped += 1;
            return;
        }
        bin.push(v);
        self.stats.recycled += 1;
    }

    /// A stream of `len` elements with **unspecified contents**, backed by
    /// a pooled buffer: stale data from an earlier run below the recycled
    /// buffer's write watermark, `T::default()` above it (and throughout on
    /// a pool miss). Only callers that write every element before reading
    /// it may use this (see the module documentation).
    pub fn take_stream_uninit<T: StreamElement>(
        &mut self,
        name: impl Into<String>,
        len: usize,
        layout: Layout,
    ) -> Stream<T> {
        Stream::from_vec(name, self.take_vec_uninit(len), layout)
    }

    /// A stream initialized from `data` backed by a pooled buffer (the
    /// arena counterpart of `Stream::from_vec(name, data.to_vec(), …)`).
    pub fn take_stream_from<T: StreamElement>(
        &mut self,
        name: impl Into<String>,
        data: &[T],
        layout: Layout,
    ) -> Stream<T> {
        let mut v = self.take_capacity::<T>(data.len());
        v.extend_from_slice(data);
        Stream::from_vec(name, v, layout)
    }

    /// Hand a stream's backing buffer back for reuse.
    pub fn recycle<T: StreamElement>(&mut self, stream: Stream<T>) {
        self.put_vec(stream.into_data());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Node, Value};

    #[test]
    fn take_and_put_round_trip_reuses_the_buffer() {
        let mut arena = StreamArena::new();
        let v = arena.take_capacity::<Value>(1000);
        assert!(v.is_empty());
        assert_eq!(v.capacity(), 1024);
        let ptr = v.as_ptr();
        arena.put_vec(v);
        assert_eq!(arena.pooled_buffers(), 1);
        let again = arena.take_capacity::<Value>(900); // same class (1024)
        assert_eq!(again.as_ptr(), ptr, "the pooled buffer must be reused");
        assert!(again.is_empty());
        let s = arena.stats();
        assert_eq!((s.takes, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn classes_separate_types_and_sizes() {
        let mut arena = StreamArena::new();
        arena.put_vec(arena_vec::<u32>(64));
        arena.put_vec(arena_vec::<u32>(128));
        arena.put_vec(arena_vec::<Node>(64));
        assert_eq!(arena.class_count(), 3);
        // A u32 request of class 64 must not consume the Node buffer.
        let _ = arena.take_capacity::<u32>(33);
        assert_eq!(arena.pooled_buffers(), 2);
    }

    fn arena_vec<T: StreamElement>(n: usize) -> Vec<T> {
        let mut v = Vec::with_capacity(n);
        v.resize(n, T::default());
        v
    }

    #[test]
    fn take_stream_from_copies_the_data_over_stale_contents() {
        let mut arena = StreamArena::new();
        arena.put_vec(vec![9u32; 128]);
        let data: Vec<u32> = (0..100).collect();
        let s = arena.take_stream_from("source", &data, Layout::ZOrder);
        assert_eq!(arena.stats().hits, 1);
        assert_eq!(s.into_data(), data);
    }

    #[test]
    fn bins_are_bounded() {
        let mut arena = StreamArena::new();
        for _ in 0..2 * MAX_BUFFERS_PER_CLASS {
            arena.put_vec(arena_vec::<u32>(64));
        }
        assert_eq!(arena.pooled_buffers(), MAX_BUFFERS_PER_CLASS);
        assert_eq!(arena.stats().dropped as usize, MAX_BUFFERS_PER_CLASS);
        arena.put_vec(Vec::<u32>::new());
        assert_eq!(arena.stats().dropped as usize, MAX_BUFFERS_PER_CLASS + 1);
    }

    #[test]
    fn uninit_take_below_the_watermark_keeps_stale_contents_and_elides() {
        let mut arena = StreamArena::new();
        let mut v: Vec<u32> = Vec::with_capacity(1024);
        v.extend(1..=1000);
        let ptr = v.as_ptr();
        arena.put_vec(v);
        let again = arena.take_vec_uninit::<u32>(900);
        assert_eq!(again.as_ptr(), ptr, "the pooled buffer must be reused");
        assert_eq!(again.len(), 900);
        // Unspecified contents = the previous run's data, untouched.
        assert!(again.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
        assert_eq!(arena.stats().elided_elements, 900);
    }

    #[test]
    fn uninit_take_above_the_watermark_fills_only_the_tail() {
        let mut arena = StreamArena::new();
        let mut v: Vec<u32> = Vec::with_capacity(1024);
        v.resize(500, 7);
        arena.put_vec(v);
        let taken = arena.take_vec_uninit::<u32>(800);
        assert_eq!(taken.len(), 800);
        assert!(taken[..500].iter().all(|&x| x == 7), "watermark preserved");
        assert!(taken[500..].iter().all(|&x| x == 0), "tail default-filled");
        assert_eq!(arena.stats().elided_elements, 500);
    }

    #[test]
    fn uninit_take_on_a_pool_miss_is_default_initialized() {
        let mut arena = StreamArena::new();
        let taken = arena.take_vec_uninit::<Value>(300);
        assert_eq!(taken.len(), 300);
        assert!(taken.iter().all(|&x| x == Value::default()));
        assert_eq!(arena.stats().misses, 1);
        assert_eq!(arena.stats().elided_elements, 0);
    }

    #[test]
    fn uninit_stream_round_trip_reaches_full_elision_in_steady_state() {
        let mut arena = StreamArena::new();
        let s = arena.take_stream_uninit::<Value>("w", 512, Layout::ZOrder);
        assert_eq!(s.len(), 512);
        arena.recycle(s);
        let before = arena.stats().elided_elements;
        let s2 = arena.take_stream_uninit::<Value>("w", 512, Layout::ZOrder);
        assert_eq!(s2.len(), 512);
        assert_eq!(s2.name(), "w");
        assert_eq!(
            arena.stats().elided_elements - before,
            512,
            "a same-class re-take must skip the whole refill"
        );
    }

    #[test]
    fn pooled_bytes_tracks_takes_and_hand_backs() {
        let mut arena = StreamArena::new();
        arena.put_vec(arena_vec::<u32>(64));
        assert_eq!(arena.pooled_bytes(), 256);
        let v = arena.take_capacity::<u32>(64);
        assert_eq!(arena.pooled_bytes(), 0);
        arena.put_vec(v);
        arena.put_vec(arena_vec::<Node>(32));
        let node_bytes = 32 * std::mem::size_of::<Node>() as u64;
        assert_eq!(arena.pooled_bytes(), 256 + node_bytes);
    }
}
