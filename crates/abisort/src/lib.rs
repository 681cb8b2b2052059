//! # abisort — adaptive bitonic sorting, sequential and on stream architectures
//!
//! This crate is the core contribution of the reproduced paper
//! (Greß & Zachmann, *GPU-ABiSort: Optimal Parallel Sorting on Stream
//! Architectures*, IPDPS 2006):
//!
//! * [`sequential`] — the classic and simplified adaptive bitonic merge and
//!   the sequential `O(n log n)` sort (Section 4), used as reference and
//!   for the operation-count experiments;
//! * [`tree`] — bitonic trees stored as flat node pools (Listing 1/2);
//! * [`stream_sort`] — **GPU-ABiSort** itself: the sort expressed as a
//!   stream program over the [`stream_arch`] simulator, with the Table-1
//!   output-stream layout, the overlapped-stage `O(log² n)` schedule
//!   (Section 5.4), the 2D layouts of Section 6.2 and the small-input
//!   optimizations of Section 7;
//! * [`config`] — the configuration knobs (layout, overlapping,
//!   optimizations) used by the experiments and ablations;
//! * [`verify`] — sortedness / permutation / bitonicity checkers.
//!
//! ## Quick start
//!
//! ```
//! use abisort::{GpuAbiSorter, SortConfig};
//! use stream_arch::{GpuProfile, StreamProcessor, Value};
//!
//! let input: Vec<Value> = (0..1024u32)
//!     .rev()
//!     .map(|i| Value::new(i as f32, i))
//!     .collect();
//!
//! let mut processor = StreamProcessor::new(GpuProfile::geforce_7800());
//! let sorter = GpuAbiSorter::new(SortConfig::default());
//! let sorted = sorter.sort(&mut processor, &input).unwrap();
//!
//! assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod sequential;
pub mod stream_sort;
pub mod tree;
pub mod verify;

pub use config::{LayoutChoice, SortConfig};
pub use sequential::{adaptive_bitonic_merge, adaptive_bitonic_sort, MergeVariant, SortStats};
pub use stream_sort::sort::{GpuAbiSorter, SegmentedRun, SortRun, TopKRun};
pub use tree::BitonicTree;
