//! Cost accounting for the simulated stream processor.
//!
//! Every stream operation executed by [`crate::StreamProcessor`] updates a
//! [`Counters`] record. The counters capture the quantities the paper's
//! analysis is stated in:
//!
//! * number of **stream operations** (the bound on parallel running time,
//!   Section 3.1) — both raw kernel *launches* and merged *steps* (a step
//!   may combine several launches into one multi-block-substream operation
//!   on hardware that supports it, Section 5.4);
//! * number of **kernel instances** (total work);
//! * streaming reads / writes, gathers, iterator-stream reads;
//! * **comparisons** performed by sorting kernels (for the `< 2 n log n`
//!   bound of Bilardi & Nicolau cited in Section 2.1);
//! * texture-cache behaviour and bytes moved (the row-wise vs Z-order
//!   difference of Section 6.2).
//!
//! [`crate::GpuProfile::simulate`] turns a `Counters` record into a
//! [`SimTime`] using a calibrated cost model.

use crate::cache::CacheStats;
use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Event counters accumulated during simulation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Counters {
    /// Kernel launches (one per `StreamProcessor::launch_wide` call).
    pub launches: u64,
    /// Stream operations after merging the launches that share a step on
    /// hardware with multi-block substreams (Section 5.4). Algorithms call
    /// [`crate::StreamProcessor::record_step`] to delimit steps; if they
    /// never do, `steps == launches`.
    pub steps: u64,
    /// Total kernel instances executed.
    pub kernel_instances: u64,
    /// 32-bit words read linearly from input substreams (a 16-byte node
    /// element counts as four words).
    pub stream_reads: u64,
    /// 32-bit words written linearly to output substreams.
    pub stream_writes: u64,
    /// 32-bit words read by random-access (gather) reads.
    pub gathers: u64,
    /// Iterator-stream reads (no memory traffic).
    pub iter_reads: u64,
    /// Key comparisons performed by sorting kernels.
    pub comparisons: u64,
    /// Bytes written to stream memory.
    pub bytes_written: u64,
    /// Bytes read from stream memory, counted as cache-block fills.
    pub bytes_read: u64,
    /// Texture-cache statistics (all units merged).
    pub cache: CacheStats,
    /// Host↔device transfer bytes (charged by [`crate::TransferModel`]).
    pub transfer_bytes: u64,
}

impl Counters {
    /// A zeroed counter record.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of stream operations to charge launch overhead for:
    /// merged steps when the hardware supports multi-block substreams,
    /// raw launches otherwise.
    pub fn effective_ops(&self, multi_block: bool) -> u64 {
        if multi_block && self.steps > 0 {
            self.steps
        } else {
            self.launches
        }
    }

    /// Total memory traffic in bytes (reads as block fills + writes).
    pub fn traffic_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

impl AddAssign<&Counters> for Counters {
    fn add_assign(&mut self, rhs: &Counters) {
        self.launches += rhs.launches;
        self.steps += rhs.steps;
        self.kernel_instances += rhs.kernel_instances;
        self.stream_reads += rhs.stream_reads;
        self.stream_writes += rhs.stream_writes;
        self.gathers += rhs.gathers;
        self.iter_reads += rhs.iter_reads;
        self.comparisons += rhs.comparisons;
        self.bytes_written += rhs.bytes_written;
        self.bytes_read += rhs.bytes_read;
        self.cache.merge(&rhs.cache);
        self.transfer_bytes += rhs.transfer_bytes;
    }
}

/// A simulated running time with its component breakdown.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SimTime {
    /// Total simulated time in milliseconds.
    pub total_ms: f64,
    /// Component breakdown.
    pub breakdown: CostBreakdown,
}

/// Component breakdown of a [`SimTime`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Launch overhead of all stream operations (ms).
    pub op_overhead_ms: f64,
    /// Arithmetic / instruction time of all kernel instances, divided over
    /// the processor units (ms).
    pub compute_ms: f64,
    /// Memory-traffic time at the profile's bandwidth (ms).
    pub memory_ms: f64,
    /// Host↔device transfer time (ms), if any transfers were charged.
    pub transfer_ms: f64,
}

impl SimTime {
    /// Build a total from a breakdown. Compute and memory time overlap on a
    /// GPU (the fragment pipeline hides memory latency behind arithmetic as
    /// long as there are enough fragments in flight), so the body time is
    /// the maximum of the two; launch overhead and transfers serialize.
    pub fn from_breakdown(b: CostBreakdown) -> Self {
        SimTime {
            total_ms: b.op_overhead_ms + b.compute_ms.max(b.memory_ms) + b.transfer_ms,
            breakdown: b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut a = Counters::new();
        let mut b = Counters::new();
        b.launches = 3;
        b.steps = 2;
        b.kernel_instances = 100;
        b.stream_reads = 200;
        b.comparisons = 50;
        b.cache.accesses = 10;
        a += &b;
        a += &b;
        assert_eq!(a.launches, 6);
        assert_eq!(a.steps, 4);
        assert_eq!(a.kernel_instances, 200);
        assert_eq!(a.stream_reads, 400);
        assert_eq!(a.comparisons, 100);
        assert_eq!(a.cache.accesses, 20);
    }

    #[test]
    fn effective_ops_prefers_steps_when_multi_block() {
        let c = Counters {
            launches: 10,
            steps: 4,
            ..Counters::default()
        };
        assert_eq!(c.effective_ops(true), 4);
        assert_eq!(c.effective_ops(false), 10);
        let c2 = Counters {
            launches: 10,
            steps: 0,
            ..Counters::default()
        };
        assert_eq!(c2.effective_ops(true), 10);
    }

    #[test]
    fn sim_time_overlaps_compute_and_memory() {
        let t = SimTime::from_breakdown(CostBreakdown {
            op_overhead_ms: 1.0,
            compute_ms: 5.0,
            memory_ms: 3.0,
            transfer_ms: 2.0,
        });
        assert!((t.total_ms - 8.0).abs() < 1e-12);
        let t2 = SimTime::from_breakdown(CostBreakdown {
            op_overhead_ms: 1.0,
            compute_ms: 3.0,
            memory_ms: 5.0,
            transfer_ms: 0.0,
        });
        assert!((t2.total_ms - 6.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_is_reads_plus_writes() {
        let c = Counters {
            bytes_read: 100,
            bytes_written: 50,
            ..Counters::default()
        };
        assert_eq!(c.traffic_bytes(), 150);
    }
}
