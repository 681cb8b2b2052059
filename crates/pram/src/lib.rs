//! # pram — a PRAM simulator and the parallel sorts the paper positions itself against
//!
//! Adaptive bitonic sorting was originally proposed by Bilardi & Nicolau for
//! a shared-memory **EREW-PRAM** ("PRAC — parallel random access computer"),
//! where it sorts `n` values in `O(log² n)` parallel time with `O(n / log n)`
//! processors and fewer than `2 n log n` comparisons in total. The GPU-ABiSort
//! paper (Section 2.1) compares this pedigree against Batcher's bitonic
//! sorting network (`O(n log² n)` work) and against asymptotically optimal
//! PRAM sorts with large constants (AKS network, Cole's parallel merge sort).
//!
//! This crate provides the substrate those claims are stated on:
//!
//! * [`machine`] — a synchronous PRAM with exclusive-read/exclusive-write
//!   (EREW) or concurrent-read (CREW) access checking, step/work accounting,
//!   and a Brent-scheduling time model for running `t` tasks on `p`
//!   processors;
//! * [`sorters::abisort_pram`] — the Bilardi–Nicolau parallel adaptive
//!   bitonic sort with the overlapped-stage schedule (`2j − 1` steps per
//!   recursion level) that Section 5.4 of the paper ports to the stream
//!   machine;
//! * [`sorters::bitonic_network`] and [`sorters::oem_network`] — Batcher's
//!   bitonic and odd-even merge sort networks, the non-optimal-work
//!   comparison points. Each network is defined once, as the per-element
//!   roles of the `baselines` crate that the stream-machine baselines run;
//!   [`sorters::run_network`] steps those roles on the PRAM, one processor
//!   per comparator;
//! * [`sorters::rank_merge`] — a rank-based (binary-search) parallel merge
//!   sort: optimal `O(log² n)` time but `Θ(n log² n)` comparisons and CREW
//!   memory accesses. It stands in for the "asymptotically optimal but not
//!   fast in practice" PRAM sorts of Section 2.1 (Cole's pipelined merge
//!   sort itself is not reproduced; the substitution is recorded in
//!   DESIGN.md).
//!
//! The simulator *executes* every algorithm (the outputs are checked for
//! sortedness and permutation-of-input in the tests and experiments) while
//! recording exactly the quantities the complexity claims are about: parallel
//! steps, total work, shared-memory accesses, comparisons, and access
//! conflicts under the declared PRAM model.
//!
//! ## Quick start
//!
//! ```
//! use pram::{sorters, PramModel};
//! use stream_arch::Value;
//!
//! let input: Vec<Value> = (0..256u32).rev().map(|i| Value::new(i as f32, i)).collect();
//! let run = sorters::abisort_pram::sort(&input).unwrap();
//!
//! assert!(run.output.windows(2).all(|w| w[0] <= w[1]));
//! assert_eq!(run.stats.conflicts(PramModel::Erew), 0); // truly EREW
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod machine;
pub mod metrics;
pub mod sorters;

pub use error::{PramError, Result};
pub use machine::{Pram, PramModel, ProcCtx};
pub use metrics::{PramStats, StepRecord};
pub use sorters::SortRun;
