//! # bench — the experiment harness reproducing the paper's evaluation
//!
//! Every table and figure of the paper's Section 8 (plus the analytic
//! claims of Sections 2, 5 and 7) has a corresponding experiment function
//! here; the `repro` binary prints them in the paper's format. Host
//! wall-clock time is measured by the repository benchmark (`perfbench/`,
//! see `docs/BENCHMARKS.md`).
//!
//! | experiment id (DESIGN.md) | function |
//! |---------------------------|----------|
//! | E8 (Table 2 + chart)      | [`experiments::table2_geforce_6800`] |
//! | E9 (Table 3 + chart)      | [`experiments::table3_geforce_7800`] |
//! | E10 (data dependence)     | [`experiments::data_dependence`] |
//! | E11 (transfer overhead)   | [`experiments::transfer_overhead`] |
//! | E12 (stream-op counts)    | [`experiments::stream_operation_counts`] |
//! | E13 (work complexity)     | [`experiments::work_complexity`] |
//! | E14 (scaling with p)      | [`experiments::scaling_with_units`] |
//! | E15 (ablation)            | [`experiments::ablation`] |
//! | E16 (PRAM sorters)        | [`extended::pram_comparison`] |
//! | E17 (out-of-core pipeline)| [`extended::terasort_pipelines`] |
//! | E18 (padding overhead)    | [`extended::padding_overhead`] |
//! | E19 (sorting service)     | [`service::service_scenario`] |
//! | E20 (sharded scaling)     | [`sharded::sharded_scaling`] |
//! | E22 (networked soak)      | [`netsoak::netsoak`] |
//! | E23 (crash soak)          | [`crashsoak::crash_soak`] |
//! | E24 (typed queries)       | [`typed::typed_scenario`] |
//!
//! The layout figures (E3–E7) are regenerated by
//! `abisort::stream_sort::layout_plan` and printed by `repro --figures`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chart;
pub mod crashsoak;
pub mod experiments;
pub mod extended;
pub mod netsoak;
pub mod profiling;
pub mod report;
pub mod service;
pub mod sharded;
pub mod typed;

pub use crashsoak::CrashSoakRow;
pub use experiments::*;
pub use extended::{PaddingRow, PramRow, TeraSortRow};
pub use netsoak::NetSoakRow;
pub use report::{HostInfo, Report};
pub use service::ServiceRow;
pub use sharded::ShardedRow;
pub use typed::TypedRow;
