//! # baselines — the comparison sorters of the GPU-ABiSort evaluation
//!
//! The paper compares GPU-ABiSort against two baselines (Section 8):
//!
//! * **CPU sort** — "the C++ STL sort function (an optimized quick sort
//!   implementation)" running sequentially on the host CPU. [`cpu`]
//!   provides an introsort-style quicksort plus a calibrated time model for
//!   the paper's Athlon-XP and Athlon-64 systems, so the data-dependent
//!   timing *ranges* of Tables 2 and 3 can be reproduced.
//! * **GPUSort** — Govindaraju et al.'s cache-efficient bitonic sorting
//!   network. [`gpusort`] implements the bitonic sorting network on the
//!   same [`stream_arch`] simulator GPU-ABiSort runs on, which preserves
//!   the comparison the paper makes: `O(n log² n)` network work versus
//!   `O(n log n)` adaptive work on the same machine.
//!
//! Two further related-work comparators are included for the
//! work-complexity experiments: Batcher's odd-even merge sort network
//! ([`oems`], the Kipfer et al. GPU sorter) and the periodic balanced
//! sorting network ([`pbsn`], the Govindaraju et al. 2005 sorter).
//!
//! All stream-architecture baselines share the per-pass compare-exchange
//! executor in [`network`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cpu;
pub mod gpusort;
pub mod network;
pub mod oems;
pub mod pbsn;

pub use cpu::{CpuSortModel, CpuSorter};
pub use gpusort::GpuSortBaseline;
pub use network::NetworkRun;
pub use oems::OddEvenMergeSort;
pub use pbsn::PeriodicBalancedSort;
