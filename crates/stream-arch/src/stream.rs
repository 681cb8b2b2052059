//! Streams, substreams and block sets.
//!
//! A [`Stream`] is an ordered set of elements in stream memory (Section 3.1
//! of the paper). Logically it is addressed with 1D indices; physically the
//! simulator associates a [`Layout`] with it that determines the 2D texture
//! coordinate of every element (Section 6.2) — the texture-cache model uses
//! that coordinate to decide which cache tile an access falls into.
//!
//! A substream is "a contiguous range of elements from a given stream", or
//! on hardware that supports it "multiple non-overlapping ranges of
//! elements" (Section 3.1). [`BlockSet`] is that description: an ordered
//! list of disjoint `(start, len)` ranges. Kernel instances read and write
//! substreams *linearly*: logical position `i` of the substream is the
//! `i`-th element when walking the blocks in order.

use crate::error::{Result, StreamError};
use crate::layout::Layout;
use crate::value::StreamElement;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_STREAM_ID: AtomicU64 = AtomicU64::new(1);

/// A stream of elements in simulated stream memory.
#[derive(Debug, Clone)]
pub struct Stream<T> {
    name: String,
    id: u64,
    cache_tag: u64,
    layout: Layout,
    data: Vec<T>,
}

/// FNV-1a hash of a stream name — the process-independent identity the
/// cache model keys on.
fn name_tag(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl<T: StreamElement> Stream<T> {
    /// Allocate a stream of `len` default-initialised elements.
    pub fn new(name: impl Into<String>, len: usize, layout: Layout) -> Self {
        let name = name.into();
        Stream {
            cache_tag: name_tag(&name),
            name,
            id: NEXT_STREAM_ID.fetch_add(1, Ordering::Relaxed),
            layout,
            data: vec![T::default(); len],
        }
    }

    /// Create a stream from existing data.
    pub fn from_vec(name: impl Into<String>, data: Vec<T>, layout: Layout) -> Self {
        let name = name.into();
        Stream {
            cache_tag: name_tag(&name),
            name,
            id: NEXT_STREAM_ID.fetch_add(1, Ordering::Relaxed),
            layout,
            data,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The stream's unique identity within the process (used by the
    /// input/output aliasing checks).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The stream's *stable* identity used by the texture-cache model:
    /// derived from the name, not from the process-global allocation
    /// counter, so two identical runs produce identical cache statistics
    /// (and therefore identical simulated times) regardless of how many
    /// streams the process allocated before them.
    pub fn cache_tag(&self) -> u64 {
        self.cache_tag
    }

    /// Debug name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The 1D→2D layout of this stream.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Host-side read of the whole stream (not charged; corresponds to
    /// reading back the texture for verification).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Host-side mutable access (not charged; corresponds to uploading data
    /// from the host).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Host-side read of one element.
    pub fn get(&self, index: usize) -> T {
        self.data[index]
    }

    /// Host-side write of one element.
    pub fn set(&mut self, index: usize, value: T) {
        self.data[index] = value;
    }

    /// Borrowed host-side read of a contiguous range. This is the
    /// zero-copy readback path: callers that only need to *look at* stream
    /// contents (verification, value extraction) borrow instead of paying
    /// a `to_vec()` copy.
    pub fn range(&self, start: usize, len: usize) -> &[T] {
        &self.data[start..start + len]
    }

    /// Consume the stream and return its backing buffer (the recycle hook
    /// used by [`crate::StreamArena`]).
    pub fn into_data(self) -> Vec<T> {
        self.data
    }

    /// Elements `[start, start + len)` as a mutable slice, for a
    /// launch-wide kernel to write; the block is checked as a view's is
    /// ([`Stream::check_blocks`]).
    pub fn block_mut(&mut self, start: usize, len: usize) -> Result<&mut [T]> {
        self.check_blocks(&BlockSet::contiguous(start, len))?;
        Ok(&mut self.data[start..start + len])
    }

    /// Validate that a block set lies within this stream. A block whose
    /// end does not fit in `usize` is out of bounds too; its reported `end`
    /// saturates at `usize::MAX`.
    pub fn check_blocks(&self, blocks: &BlockSet) -> Result<()> {
        for &(start, len) in blocks.blocks() {
            match start.checked_add(len) {
                Some(end) if end <= self.data.len() => {}
                end => {
                    return Err(StreamError::SubStreamOutOfBounds {
                        stream_len: self.data.len(),
                        start,
                        end: end.unwrap_or(usize::MAX),
                    })
                }
            }
        }
        Ok(())
    }
}

/// An ordered set of disjoint `(start, len)` element ranges describing a
/// substream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSet {
    repr: Blocks,
    /// Cached total element count, kept inline so the per-access bounds
    /// check does not chase the prefix vector.
    total: usize,
}

/// The two shapes of a [`BlockSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum Blocks {
    /// One contiguous range: the block set every sort driver builds on
    /// every launch. Stored inline, so it never touches the allocator, and
    /// [`BlockSet::locate`] degenerates to one addition.
    Single([(usize, usize); 1]),
    /// Several ranges, with the exclusive prefix sums of their lengths
    /// (plus the total at the end).
    Multi {
        blocks: Vec<(usize, usize)>,
        prefix: Vec<usize>,
    },
}

/// Whether two non-empty ranges share an element, without computing
/// either end (which may not fit in `usize`).
fn ranges_overlap((s1, l1): (usize, usize), (s2, l2): (usize, usize)) -> bool {
    l1 > 0 && l2 > 0 && if s1 <= s2 { s2 - s1 < l1 } else { s1 - s2 < l2 }
}

impl BlockSet {
    /// A substream consisting of a single contiguous range. Allocates
    /// nothing.
    pub fn contiguous(start: usize, len: usize) -> Self {
        BlockSet {
            repr: Blocks::Single([(start, len)]),
            total: len,
        }
    }

    /// A multi-block substream. Blocks keep the given order (the order
    /// defines the logical element order); they must be pairwise disjoint.
    pub fn multi(blocks: Vec<(usize, usize)>) -> Result<Self> {
        // Pairwise overlap check on the (small) block list.
        for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                let (s1, l1) = blocks[i];
                let (s2, l2) = blocks[j];
                if ranges_overlap((s1, l1), (s2, l2)) {
                    return Err(StreamError::OverlappingBlocks {
                        first: (s1, s1.saturating_add(l1)),
                        second: (s2, s2.saturating_add(l2)),
                    });
                }
            }
        }
        // A single-range set normalizes to the inline representation, so
        // `multi(vec![(s, l)])` and `contiguous(s, l)` compare equal.
        if let [(start, len)] = blocks.as_slice() {
            return Ok(Self::contiguous(*start, *len));
        }
        // Disjoint blocks that all end within `usize` sum to at most
        // `usize::MAX`; a sum that saturates belongs to a set with an
        // overflowing block, which `Stream::check_blocks` rejects.
        let mut prefix = Vec::with_capacity(blocks.len() + 1);
        let mut acc = 0usize;
        prefix.push(0);
        for &(_, len) in &blocks {
            acc = acc.saturating_add(len);
            prefix.push(acc);
        }
        Ok(BlockSet {
            repr: Blocks::Multi { blocks, prefix },
            total: acc,
        })
    }

    /// Total number of elements.
    #[inline]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks().len()
    }

    /// The raw blocks.
    #[inline]
    pub fn blocks(&self) -> &[(usize, usize)] {
        match &self.repr {
            Blocks::Single(single) => single,
            Blocks::Multi { blocks, .. } => blocks,
        }
    }

    /// Map a logical substream position to the global element index in the
    /// underlying stream.
    ///
    /// # Panics
    /// Panics if `pos >= self.total()`.
    #[inline]
    pub fn locate(&self, pos: usize) -> usize {
        debug_assert!(pos < self.total(), "position {pos} out of substream bounds");
        match &self.repr {
            // Single contiguous block (every block set the sort drivers
            // build): one addition, no memory traffic.
            Blocks::Single([(start, _)]) => start + pos,
            // The multi-block lists used by tests are tiny (a handful of
            // blocks), so a linear scan beats binary search in practice
            // and is branch-predictable.
            Blocks::Multi { blocks, prefix } => {
                let mut b = 0;
                while pos >= prefix[b + 1] {
                    b += 1;
                }
                blocks[b].0 + (pos - prefix[b])
            }
        }
    }

    /// True if any block of `self` overlaps any block of `other`.
    pub fn overlaps(&self, other: &BlockSet) -> bool {
        self.blocks()
            .iter()
            .any(|&a| other.blocks().iter().any(|&b| ranges_overlap(a, b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn stream_ids_are_unique() {
        let a: Stream<u32> = Stream::new("a", 4, Layout::Linear);
        let b: Stream<u32> = Stream::new("b", 4, Layout::Linear);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn stream_host_access_roundtrip() {
        let mut s: Stream<Value> = Stream::new("s", 8, Layout::Linear);
        s.set(3, Value::new(7.5, 1));
        assert_eq!(s.get(3), Value::new(7.5, 1));
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
    }

    #[test]
    fn contiguous_blockset_locates_identity() {
        let b = BlockSet::contiguous(10, 5);
        assert_eq!(b.total(), 5);
        assert_eq!(b.locate(0), 10);
        assert_eq!(b.locate(4), 14);
    }

    #[test]
    fn multi_blockset_locates_across_blocks() {
        let b = BlockSet::multi(vec![(0, 2), (8, 3), (4, 1)]).unwrap();
        assert_eq!(b.total(), 6);
        assert_eq!(b.locate(0), 0);
        assert_eq!(b.locate(1), 1);
        assert_eq!(b.locate(2), 8);
        assert_eq!(b.locate(4), 10);
        assert_eq!(b.locate(5), 4);
    }

    #[test]
    fn overlapping_blocks_rejected() {
        let err = BlockSet::multi(vec![(0, 4), (3, 2)]).unwrap_err();
        assert!(matches!(err, StreamError::OverlappingBlocks { .. }));
        // Touching blocks are fine.
        assert!(BlockSet::multi(vec![(0, 4), (4, 2)]).is_ok());
        // Zero-length blocks never overlap.
        assert!(BlockSet::multi(vec![(0, 4), (2, 0)]).is_ok());
    }

    #[test]
    fn blockset_overlap_query() {
        let a = BlockSet::contiguous(0, 4);
        let b = BlockSet::contiguous(4, 4);
        let c = BlockSet::multi(vec![(2, 1), (10, 2)]).unwrap();
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(!b.overlaps(&c));
    }

    #[test]
    fn check_blocks_rejects_out_of_bounds() {
        let s: Stream<u32> = Stream::new("s", 8, Layout::Linear);
        let err = s.check_blocks(&BlockSet::contiguous(4, 8)).unwrap_err();
        assert!(matches!(err, StreamError::SubStreamOutOfBounds { .. }));
        assert!(s.check_blocks(&BlockSet::contiguous(0, 8)).is_ok());
    }

    #[test]
    fn check_blocks_rejects_a_block_whose_end_overflows() {
        let s: Stream<u32> = Stream::new("s", 8, Layout::Linear);
        assert_eq!(
            s.check_blocks(&BlockSet::contiguous(usize::MAX - 2, 8)),
            Err(StreamError::SubStreamOutOfBounds {
                stream_len: 8,
                start: usize::MAX - 2,
                end: usize::MAX,
            })
        );
        let multi = BlockSet::multi(vec![(0, 2), (usize::MAX - 1, 4)]).unwrap();
        assert!(matches!(
            s.check_blocks(&multi),
            Err(StreamError::SubStreamOutOfBounds { start, .. }) if start == usize::MAX - 1
        ));
    }

    #[test]
    fn overlap_tests_do_not_overflow_at_the_top_of_the_index_space() {
        // Disjoint: [MAX-4, MAX-2) and [MAX-2, MAX+3) only touch.
        assert!(BlockSet::multi(vec![(usize::MAX - 4, 2), (usize::MAX - 2, 5)]).is_ok());
        let err = BlockSet::multi(vec![(usize::MAX - 4, 3), (usize::MAX - 2, 5)]).unwrap_err();
        assert_eq!(
            err,
            StreamError::OverlappingBlocks {
                first: (usize::MAX - 4, usize::MAX - 1),
                second: (usize::MAX - 2, usize::MAX),
            }
        );
        let top = BlockSet::contiguous(usize::MAX - 1, 9);
        assert!(top.overlaps(&BlockSet::contiguous(usize::MAX, 1)));
        assert!(!top.overlaps(&BlockSet::contiguous(0, usize::MAX - 1)));
    }

    #[test]
    fn a_contiguous_set_at_usize_max_stays_a_single_block() {
        // `usize::MAX` is an ordinary start, not a "multi-block" marker:
        // the set keeps its one block, so bounds checks see it and
        // `locate` stays the one-addition path.
        let b = BlockSet::contiguous(usize::MAX, 1);
        assert_eq!(b.blocks(), &[(usize::MAX, 1)]);
        assert_eq!(b.num_blocks(), 1);
        assert_eq!(b.locate(0), usize::MAX);
        let s: Stream<u32> = Stream::new("s", 8, Layout::Linear);
        assert!(matches!(
            s.check_blocks(&b),
            Err(StreamError::SubStreamOutOfBounds { .. })
        ));
        assert_eq!(BlockSet::multi(vec![(usize::MAX, 1)]).unwrap(), b);
    }
}
