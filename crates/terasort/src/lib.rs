//! # terasort — hybrid out-of-core sorting on top of GPU-ABiSort
//!
//! Section 2.2 of the reproduced paper describes how Govindaraju et al.
//! embedded GPU-based sorting into a **hybrid CPU/GPU pipeline**
//! (GPUTeraSort) "capable of processing large out-of-core databases and
//! wide sort keys", with a key-generator stage and a reorder stage on the
//! CPU plus reader/writer stages that move data between disk and memory,
//! and notes that "this technique should also be transferable to
//! alternative GPU-based sorting approaches". This crate performs that
//! transfer: the in-core sorting stage is the paper's own GPU-ABiSort
//! (running on the `stream-arch` simulator), wrapped in the out-of-core
//! machinery the database scenario needs.
//!
//! * [`record`] — wide database records (10-byte keys, 100-byte rows, as in
//!   the sort benchmarks GPUTeraSort targets) and their generators;
//! * [`disk`] — a simulated disk with a seek + bandwidth cost model, the
//!   stand-in for the SCSI/RAID storage of the original system;
//! * [`keygen`] — the key-generator stage: wide keys are condensed into the
//!   32-bit partial keys the GPU sorts, plus the CPU *reorder/fix-up* stage
//!   that resolves partial-key ties with full-key comparisons;
//! * [`run_formation`] — reads memory-sized chunks, sorts each with a
//!   configurable in-core sorter (GPU-ABiSort, the GPUSort bitonic network
//!   baseline, or CPU quicksort) and writes sorted runs back to disk;
//! * [`external_merge`] — the CPU multi-way merge of the runs;
//! * [`pipeline`] — the [`pipeline::TeraSorter`] driver that combines the
//!   stages and accounts time per phase, with or without I/O–compute
//!   overlap;
//! * [`manifest`] — checkpointed run manifests: [`pipeline::TeraSorter::sort_durable`]
//!   persists every sorted run and the merged output (with checksums and
//!   key ranges) at the pipeline's two phase boundaries, so a crashed sort
//!   resumes at the last completed level instead of re-sorting.
//!
//! ## Quick start
//!
//! ```
//! use terasort::{disk::{DiskProfile, SimulatedDisk}, record, pipeline::{TeraSorter, TeraSortConfig}};
//!
//! let mut disk = SimulatedDisk::new(DiskProfile::hdd_2006());
//! let input = disk.create("input");
//! disk.append(input, &record::generate(10_000, 42));
//!
//! let sorter = TeraSorter::new(TeraSortConfig { run_size: 4096, ..TeraSortConfig::default() });
//! let report = sorter.sort(&mut disk, input).unwrap();
//!
//! let sorted = disk.read_all(report.output);
//! assert!(sorted.windows(2).all(|w| w[0].key <= w[1].key));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod disk;
pub mod external_merge;
pub mod keygen;
pub mod manifest;
pub mod pipeline;
pub mod record;
pub mod run_formation;

pub use disk::{DiskProfile, DiskStats, FileId, SimulatedDisk};
pub use manifest::{Manifest, ManifestError, RunEntry, Stage};
pub use pipeline::{CoreSorter, DurableSortReport, TeraSortConfig, TeraSortReport, TeraSorter};
pub use record::WideRecord;
