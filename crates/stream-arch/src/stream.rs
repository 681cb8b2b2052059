//! Streams and substreams.
//!
//! A [`Stream`] is an ordered set of elements in stream memory (Section 3.1
//! of the paper). Logically it is addressed with 1D indices; physically the
//! simulator associates a [`Layout`] with it that determines the 2D texture
//! coordinate of every element (Section 6.2) — the texture-cache model uses
//! that coordinate to decide which cache tile an access falls into.
//!
//! A substream is "a contiguous range of elements from a given stream"
//! (Section 3.1), checked by [`Stream::check_range`]; kernel instances read
//! and write substreams *linearly*. Hardware that also takes "multiple
//! non-overlapping ranges of elements" as one substream (Section 5.4) runs
//! several such launches as one stream operation, which the cost model
//! charges through [`crate::StreamProcessor::record_step`].

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
    /// launch-wide kernel to write; the range is checked as an input's is
    /// ([`Stream::check_range`]).
    pub fn block_mut(&mut self, start: usize, len: usize) -> Result<&mut [T]> {
        self.check_range(start, len)?;
        Ok(&mut self.data[start..start + len])
    }

    /// Validate that the substream `[start, start + len)` lies within this
    /// stream. A range whose end does not fit in `usize` is out of bounds
    /// too; its reported `end` saturates at `usize::MAX`.
    pub fn check_range(&self, start: usize, len: usize) -> Result<()> {
        match start.checked_add(len) {
            Some(end) if end <= self.data.len() => Ok(()),
            end => Err(StreamError::SubStreamOutOfBounds {
                stream_len: self.data.len(),
                start,
                end: end.unwrap_or(usize::MAX),
            }),
        }
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
    fn check_range_rejects_out_of_bounds() {
        let s: Stream<u32> = Stream::new("s", 8, Layout::Linear);
        let err = s.check_range(4, 8).unwrap_err();
        assert!(matches!(err, StreamError::SubStreamOutOfBounds { .. }));
        assert!(s.check_range(0, 8).is_ok());
        assert!(s.check_range(8, 0).is_ok());
    }

    #[test]
    fn check_range_rejects_a_range_whose_end_overflows() {
        let s: Stream<u32> = Stream::new("s", 8, Layout::Linear);
        assert_eq!(
            s.check_range(usize::MAX - 2, 8),
            Err(StreamError::SubStreamOutOfBounds {
                stream_len: 8,
                start: usize::MAX - 2,
                end: usize::MAX,
            })
        );
        // `usize::MAX` is an ordinary start, checked like any other.
        assert_eq!(
            s.check_range(usize::MAX, 1),
            Err(StreamError::SubStreamOutOfBounds {
                stream_len: 8,
                start: usize::MAX,
                end: usize::MAX,
            })
        );
    }
}
