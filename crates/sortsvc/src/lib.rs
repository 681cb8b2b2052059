//! # sortsvc — a concurrent, batched sorting service on top of GPU-ABiSort
//!
//! The paper's evaluation (Section 8) establishes two economic facts about
//! sorting on stream architectures: per-stream-operation **launch overhead
//! dominates small problems** (which is why Section 7 exists), and **the
//! winning sorter depends on the problem size** (CPU quicksort below
//! roughly 32k keys, GPU-ABiSort above, the hybrid out-of-core pipeline
//! beyond device memory). This crate lifts both facts into a serving
//! layer, turning the benchmark reproduction into a system that can serve
//! sorting traffic:
//!
//! * [`job`] — [`SortJob`]s (value/pointer records + tenant, arrival time,
//!   distribution hint) and their results;
//! * [`queue`] — admission control with backpressure (bounded queue depth
//!   and in-flight memory) and per-tenant fair queueing;
//! * [`batch`] — the coalescer: many small jobs become one *segmented*
//!   device submission via [`abisort::GpuAbiSorter::sort_segments_run`],
//!   paying the stream operations of a single segment for the whole batch;
//! * [`keys`] — the [`SortKey`] codec layer: order-preserving encodings of
//!   floats, signed ints, composite tuples, and bounded strings into the
//!   u64 / `WideRecord` domain the engines sort natively (`docs/KEYS.md`);
//! * [`typed`] — the typed submission surface built on those codecs:
//!   [`TypedSortClient::submit_keys`], top-k, order-by over columnar
//!   batches, and percentile queries;
//! * [`policy`] — the engine-selection policy with a crossover calibrated
//!   against the service's [`stream_arch::GpuProfile`];
//! * [`shard`] — the [`ShardedSorter`] multi-device engine: splitter
//!   partition, concurrent per-device shard sorts, tournament p-way
//!   recombination charged with inter-device transfer costs;
//! * [`service`] — the [`SortService`] driver: deterministic planning, a
//!   `std::thread::scope` worker pool with one pooled
//!   [`stream_arch::StreamProcessor`] per device slot, and the simulated
//!   timeline;
//! * [`metrics`] — throughput, latency percentiles, batch occupancy,
//!   engine mix, device utilization;
//! * [`net`] — the framed-TCP front-end: a hand-rolled wire protocol
//!   (`docs/PROTOCOL.md`), a threaded [`SortServer`] feeding this
//!   pipeline, and a buffering [`SortClient`];
//! * [`telemetry`] — the simulated-timeline span tree of a service run,
//!   emitted into the process-wide [`stream_arch::telemetry`] trace sink
//!   (see `docs/OBSERVABILITY.md`);
//! * [`wal`] — the durability tier: an append-only, checksummed
//!   write-ahead job log with segment rotation, prefix compaction, and
//!   idempotent crash recovery (see `docs/DURABILITY.md`), surfaced
//!   through [`net::ServerConfig::durability_dir`] and
//!   [`SortService::recover`].
//!
//! ## Quick start
//!
//! ```
//! use sortsvc::{ServiceConfig, SortJob, SortService};
//!
//! let service = SortService::new(ServiceConfig::default());
//! let jobs = SortJob::from_requests(workloads::RequestMix::small_job_heavy(20).generate(42));
//!
//! let report = service.process(jobs).unwrap();
//! assert_eq!(report.metrics.jobs_completed, 20);
//! for result in &report.results {
//!     assert!(result.output.windows(2).all(|w| w[0] <= w[1]));
//! }
//! println!("p99 latency: {:.2} ms (simulated)", report.metrics.latency_p99_ms);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod job;
pub mod keys;
pub mod metrics;
pub mod net;
pub mod policy;
pub mod queue;
pub mod service;
pub mod shard;
pub mod telemetry;
pub mod typed;
pub mod wal;

pub use batch::{BatchOutcome, BatchPlan};
pub use job::{JobId, JobKind, JobResult, RejectReason, SortJob, TenantId};
pub use keys::{EncodedBatch, KeyError, SortKey, StrKey, StringDictionary, WideKey};
pub use metrics::ServiceMetrics;
pub use net::{
    ClientConfig, RetryPolicy, RetryingClient, ServerConfig, ServerStats, SortClient, SortServer,
};
pub use policy::{Engine, PolicyConfig, SortPolicy};
pub use queue::{AdmissionController, TenantQueues};
pub use service::{BatchSummary, RecoveredService, ServiceConfig, ServiceReport, SortService};
pub use shard::{ShardedConfig, ShardedRun, ShardedSorter};
pub use typed::{order_by, OrderByResult, TypedReport, TypedResult, TypedSortClient};
pub use wal::{AdmittedJob, Wal, WalConfig, WalError};
