//! # stream-arch — a software stream-processor simulator
//!
//! This crate models the *target architecture* of the GPU-ABiSort paper
//! (Greß & Zachmann, IPDPS 2006): a stream processor in the spirit of the
//! 2005/2006-era programmable GPU fragment pipeline, programmed in the
//! stream programming model (Brook-style):
//!
//! * **Streams** are ordered sets of elements living in stream memory.
//!   Logically they are 1D; physically they are laid out in a 2D grid
//!   (GPU texture) through a configurable 1D→2D mapping
//!   ([`layout::RowMajor2D`] or [`layout::ZOrder2D`]).
//! * **Substreams** are contiguous ranges of a stream
//!   ([`stream::Stream::check_range`]). Hardware that takes sets of
//!   disjoint ranges as one substream runs several launches as one
//!   stream operation (Section 5.4), which the cost model charges per
//!   recorded step ([`executor::StreamProcessor::record_step`]).
//! * **Kernels** are per-element programs. A kernel instance may
//!   - read a fixed number of elements *linearly* from each input stream
//!     (streaming read),
//!   - read arbitrary elements from *gather* streams (random-access read),
//!   - read values from *iterator streams* (index generators that cost no
//!     memory traffic),
//!   - and write a fixed number of elements *linearly* to each output
//!     substream (`push_onto_stream`).
//!     Random-access *writes* (scatter) are not expressible — exactly
//!     the restriction the paper designs around.
//! * **Stream operations** launch a kernel over every element of a
//!   substream. Each operation carries a fixed launch overhead; the work of
//!   all kernel instances is distributed over `p` processor units. The
//!   simulator runs every launch in one form,
//!   [`executor::StreamProcessor::launch_wide`]: one body for all
//!   instances over plain slices, charged from the per-instance shape
//!   that bind time fixes ([`kernel::LaunchShape`]).
//!
//! On top of the functional simulation the crate keeps a detailed
//! [`metrics::Counters`] record (stream operations, kernel instances,
//! streaming reads/writes, gathers, texture-cache behaviour, bytes moved)
//! and converts it into a simulated running time via a calibrated
//! [`profile::GpuProfile`] cost model. This is the substitution for the
//! GeForce 6800 / 7800 hardware of the paper's evaluation: absolute times
//! differ, but the quantities the paper's claims rest on (operation counts,
//! total work, locality, scaling with `p`) are charged faithfully.
//!
//! The kernels are *actually executed* (on the calling host thread, by
//! [`executor::StreamProcessor`]), so every experiment also verifies
//! functional correctness of the sorting algorithms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accounting;
pub mod arena;
pub mod cache;
pub mod error;
pub mod executor;
pub mod kernel;
pub mod layout;
pub mod metrics;
pub mod padding;
pub mod profile;
pub mod stream;
pub mod telemetry;
pub mod transfer;
pub mod value;

pub use arena::{ArenaStats, StreamArena};
pub use cache::{CacheConfig, CacheSim, CacheStats};
pub use error::{Result, StreamError};
pub use executor::StreamProcessor;
pub use kernel::{GatherView, Input, LaunchCtx, LaunchShape};
pub use layout::{Addr2D, Layout, Mapping1Dto2D, RowMajor2D, ZOrder2D};
pub use metrics::{CostBreakdown, Counters, SimTime};
pub use profile::GpuProfile;
pub use stream::Stream;
pub use telemetry::{HistogramSummary, LogHistogram, TraceEvent, TraceSink};
pub use transfer::{BusKind, DeviceLink, TransferModel};
pub use value::{Node, StreamElement, Value, NULL_INDEX};

// The per-access reference model the unit tests replay fetch logs into; it
// names this crate the way its other users do.
#[cfg(test)]
extern crate self as stream_arch;
#[cfg(test)]
#[path = "../tests/per_access/mod.rs"]
mod per_access;
