//! # gpu-abisort — reproduction of "GPU-ABiSort: Optimal Parallel Sorting on Stream Architectures"
//!
//! This facade crate re-exports the workspace crates so applications can
//! depend on a single package:
//!
//! * [`stream_arch`] — the stream-processor simulator (the substitute for
//!   the paper's GeForce 6800/7800 hardware);
//! * [`abisort`] — the paper's contribution: sequential adaptive bitonic
//!   sorting and the GPU-ABiSort stream program;
//! * [`baselines`] — the comparison sorters of the paper's evaluation
//!   (CPU quicksort, GPUSort bitonic network, odd-even merge sort,
//!   periodic balanced sorting network);
//! * [`workloads`] — seeded input generators;
//! * [`pram`] — the EREW/CREW PRAM simulator with the parallel sorts the
//!   paper positions itself against (Section 2.1): the original
//!   Bilardi–Nicolau adaptive bitonic sort, Batcher's network, and a
//!   rank-based parallel merge sort;
//! * [`terasort`] — the GPUTeraSort-style hybrid out-of-core pipeline
//!   (Section 2.2) built on top of GPU-ABiSort;
//! * [`sortsvc`] — the concurrent, batched sorting service: admission
//!   control with backpressure, per-tenant fairness, coalescing of small
//!   jobs into shared segmented launches, and a policy engine with a
//!   calibrated CPU/GPU/out-of-core crossover.
//!
//! ## Quick start
//!
//! ```
//! use gpu_abisort::prelude::*;
//!
//! // 10 000 value/pointer pairs with random keys.
//! let input = workloads::uniform(10_000, 42);
//!
//! // A simulated GeForce 7800 GTX and the paper's default configuration
//! // (Z-order layout, overlapped stages, both Section-7 optimizations).
//! let mut gpu = StreamProcessor::new(GpuProfile::geforce_7800());
//! let sorter = GpuAbiSorter::new(SortConfig::default());
//!
//! let run = sorter.sort_run(&mut gpu, &input).unwrap();
//! assert!(run.output.windows(2).all(|w| w[0] <= w[1]));
//! println!("simulated time: {:.2} ms", run.sim_time.total_ms);
//! ```

#![forbid(unsafe_code)]

pub use abisort;
pub use baselines;
pub use pram;
pub use sortsvc;
pub use stream_arch;
pub use terasort;
pub use workloads;

/// The most commonly used types, importable with a single `use`.
pub mod prelude {
    pub use abisort::TopKRun;
    pub use abisort::{
        adaptive_bitonic_sort, BitonicTree, GpuAbiSorter, LayoutChoice, MergeVariant, SortConfig,
    };
    pub use baselines::{CpuSorter, GpuSortBaseline, OddEvenMergeSort, PeriodicBalancedSort};
    pub use pram::{PramModel, PramStats};
    pub use sortsvc::{
        ClientConfig, EncodedBatch, Engine, JobKind, JobResult, KeyError, OrderByResult,
        PolicyConfig, RetryPolicy, RetryingClient, ServerConfig, ServiceConfig, ServiceMetrics,
        ShardedConfig, ShardedSorter, SortClient, SortJob, SortKey, SortPolicy, SortServer,
        SortService, StrKey, StringDictionary, TypedReport, TypedResult, TypedSortClient,
        WalConfig, WideKey,
    };
    pub use stream_arch::{GpuProfile, Layout, Node, StreamProcessor, TransferModel, Value};
    pub use terasort::{CoreSorter, DiskProfile, SimulatedDisk, TeraSortConfig, TeraSorter};
    pub use workloads;
    pub use workloads::{Distribution, RequestMix};
}
