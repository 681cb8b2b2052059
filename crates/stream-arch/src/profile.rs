//! Hardware profiles and the calibrated cost model.
//!
//! A [`GpuProfile`] captures the architectural parameters the paper's
//! analysis and evaluation depend on:
//!
//! * the number of fragment-processor units `p` (16 on the GeForce 6800
//!   Ultra, 24 on the GeForce 7800 GTX),
//! * the per-stream-operation launch overhead (Section 3.1: "the (constant)
//!   overhead associated with each stream operation"),
//! * per-access costs and memory bandwidth,
//! * the texture-cache geometry (Section 6.2.2),
//! * the architectural *restrictions*: maximum 2D stream dimension
//!   (Section 3.2), maximum kernel output size (Section 7.1: 16 × 32 bit),
//!   whether input and output streams must be distinct (Section 6.1), and
//!   whether substreams may consist of multiple memory blocks
//!   (Section 5.4).
//!
//! The constants are calibrated so that the *shape* of the paper's Tables 2
//! and 3 is reproduced (who wins, by roughly what factor, and how the gap
//! scales with n); the absolute milliseconds are a property of the
//! simulator, not of the original hardware.

use crate::cache::CacheConfig;
use crate::metrics::{CostBreakdown, Counters, SimTime};
use crate::transfer::BusKind;
use serde::{Deserialize, Serialize};

/// A stream-processor hardware profile.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GpuProfile {
    /// Human-readable name used in reports.
    pub name: String,
    /// Number of stream processor units (fragment pipes) `p`.
    pub units: usize,
    /// Launch overhead per stream operation, in microseconds.
    pub op_overhead_us: f64,
    /// Cost of one kernel instance's control/arithmetic work, in
    /// nanoseconds (excluding per-access costs below).
    pub instance_ns: f64,
    /// Cost of streaming-reading one 32-bit word, in nanoseconds.
    pub stream_read_ns: f64,
    /// Cost of gathering (random-access reading) one 32-bit word, in
    /// nanoseconds.
    pub gather_ns: f64,
    /// Cost of writing one 32-bit word, in nanoseconds.
    pub stream_write_ns: f64,
    /// Extra cost of a texture-cache miss, in nanoseconds.
    pub cache_miss_ns: f64,
    /// Stream-memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Configuration of the processor's one texture cache, shared by all
    /// units (see [`CacheConfig::geforce_like`]).
    pub cache: CacheConfig,
    /// Maximum number of elements along one dimension of a 2D stream.
    pub max_texture_dim: u32,
    /// Maximum bytes a single kernel instance may write (Section 7.1).
    pub max_kernel_output_bytes: usize,
    /// Whether a substream may consist of multiple disjoint memory blocks
    /// (needed for the O(log² n) stream-operation variant, Section 5.4).
    pub multi_block_substreams: bool,
    /// Whether input and output streams of one operation must be distinct
    /// (true for the paper's GPUs, Section 6.1).
    pub distinct_io: bool,
    /// Host bus used for input/output transfers (Section 8).
    pub bus: BusKind,
}

impl GpuProfile {
    /// GeForce 6800 Ultra-class profile (Table 2 system: AGP bus,
    /// 16 fragment pipes).
    pub fn geforce_6800() -> Self {
        GpuProfile {
            name: "GeForce 6800 Ultra (simulated)".into(),
            units: 16,
            op_overhead_us: 25.0,
            instance_ns: 18.0,
            stream_read_ns: 1.5,
            gather_ns: 3.0,
            stream_write_ns: 1.5,
            cache_miss_ns: 60.0,
            mem_bandwidth_gbs: 33.6,
            // The NV40 texture-cache hierarchy is considerably smaller than
            // the G70's; this is what makes the row-wise layout hurt more
            // on the 6800 system (the paper's Table 2 a/b split).
            cache: CacheConfig {
                block_edge: 4,
                num_blocks: 128,
                ways: 4,
                element_bytes: 16,
            },
            max_texture_dim: 2048,
            max_kernel_output_bytes: 16 * 4,
            multi_block_substreams: true,
            distinct_io: true,
            bus: BusKind::Agp8x,
        }
    }

    /// GeForce 7800 GTX-class profile (Table 3 system: PCI Express bus,
    /// 24 fragment pipes, higher bandwidth, lower per-op overhead).
    pub fn geforce_7800() -> Self {
        GpuProfile {
            name: "GeForce 7800 GTX (simulated)".into(),
            units: 24,
            op_overhead_us: 18.0,
            instance_ns: 10.0,
            stream_read_ns: 0.8,
            gather_ns: 1.6,
            stream_write_ns: 0.8,
            cache_miss_ns: 35.0,
            mem_bandwidth_gbs: 38.4,
            cache: CacheConfig::geforce_like(16),
            max_texture_dim: 4096,
            max_kernel_output_bytes: 16 * 4,
            multi_block_substreams: true,
            distinct_io: true,
            bus: BusKind::PciExpressX16,
        }
    }

    /// An idealised stream machine without the GPU-specific restrictions:
    /// unlimited texture size, relaxed input/output aliasing, multi-block
    /// substreams. Useful for algorithm-level experiments (operation counts,
    /// scaling with `p`) where hardware quirks would only add noise.
    pub fn idealized(units: usize) -> Self {
        GpuProfile {
            name: format!("idealized stream machine ({units} units)"),
            units,
            op_overhead_us: 10.0,
            instance_ns: 10.0,
            stream_read_ns: 0.5,
            gather_ns: 1.0,
            stream_write_ns: 0.5,
            cache_miss_ns: 20.0,
            mem_bandwidth_gbs: 256.0,
            cache: CacheConfig::geforce_like(16),
            max_texture_dim: 1 << 16,
            max_kernel_output_bytes: usize::MAX,
            multi_block_substreams: true,
            distinct_io: false,
            bus: BusKind::PciExpressX16,
        }
    }

    /// Same profile with a different number of processor units (for the
    /// scalability experiment E14).
    pub fn with_units(mut self, units: usize) -> Self {
        assert!(units >= 1, "at least one processor unit is required");
        self.units = units;
        self
    }

    /// Same profile with/without multi-block substream support (for the
    /// `p = n/log² n` vs `p = n/log n` distinction of Section 5.4).
    pub fn with_multi_block(mut self, enabled: bool) -> Self {
        self.multi_block_substreams = enabled;
        self
    }

    /// Maximum number of elements a single 2D stream can hold.
    pub fn max_stream_elements(&self) -> usize {
        (self.max_texture_dim as usize) * (self.max_texture_dim as usize)
    }

    /// Convert an event-counter record into a simulated running time.
    ///
    /// * launch overhead: `effective_ops × op_overhead`
    /// * compute: per-instance and per-access costs divided over `units`
    /// * memory: cache-fill plus write traffic at `mem_bandwidth`
    /// * compute and memory overlap (max), overhead and transfer serialize.
    pub fn simulate(&self, c: &Counters) -> SimTime {
        let ops = c.effective_ops(self.multi_block_substreams) as f64;
        let op_overhead_ms = ops * self.op_overhead_us / 1_000.0;

        let compute_ns = c.kernel_instances as f64 * self.instance_ns
            + c.stream_reads as f64 * self.stream_read_ns
            + c.gathers as f64 * self.gather_ns
            + c.stream_writes as f64 * self.stream_write_ns
            + c.cache.misses as f64 * self.cache_miss_ns;
        let compute_ms = compute_ns / self.units as f64 / 1_000_000.0;

        let memory_ms = c.traffic_bytes() as f64 / (self.mem_bandwidth_gbs * 1e9) * 1_000.0;

        let transfer_ms = self.bus.transfer_ms(c.transfer_bytes);

        SimTime::from_breakdown(CostBreakdown {
            op_overhead_ms,
            compute_ms,
            memory_ms,
            transfer_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_unit_counts() {
        assert_eq!(GpuProfile::geforce_6800().units, 16);
        assert_eq!(GpuProfile::geforce_7800().units, 24);
        assert_eq!(GpuProfile::idealized(4).units, 4);
    }

    #[test]
    fn with_units_scales_compute_time() {
        let c = Counters {
            kernel_instances: 1_000_000,
            launches: 10,
            ..Counters::default()
        };
        let p1 = GpuProfile::idealized(1).simulate(&c);
        let p4 = GpuProfile::idealized(4).simulate(&c);
        assert!(p1.breakdown.compute_ms > 3.9 * p4.breakdown.compute_ms);
    }

    #[test]
    fn op_overhead_proportional_to_ops() {
        let c1 = Counters {
            launches: 100,
            ..Counters::default()
        };
        let c2 = Counters {
            launches: 200,
            ..Counters::default()
        };
        let p = GpuProfile::geforce_6800();
        assert!(
            (2.0 * p.simulate(&c1).breakdown.op_overhead_ms
                - p.simulate(&c2).breakdown.op_overhead_ms)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn multi_block_profile_charges_steps_not_launches() {
        let c = Counters {
            launches: 100,
            steps: 10,
            ..Counters::default()
        };
        let multi = GpuProfile::geforce_6800();
        let single = GpuProfile::geforce_6800().with_multi_block(false);
        assert!(
            multi.simulate(&c).breakdown.op_overhead_ms
                < single.simulate(&c).breakdown.op_overhead_ms
        );
    }

    #[test]
    fn seventyeight_hundred_is_faster_than_six_eight_hundred() {
        let c = Counters {
            launches: 500,
            steps: 300,
            kernel_instances: 4_000_000,
            stream_reads: 8_000_000,
            gathers: 4_000_000,
            stream_writes: 8_000_000,
            bytes_read: 300_000_000,
            bytes_written: 150_000_000,
            ..Counters::default()
        };
        let t68 = GpuProfile::geforce_6800().simulate(&c).total_ms;
        let t78 = GpuProfile::geforce_7800().simulate(&c).total_ms;
        assert!(t78 < t68, "7800 ({t78} ms) should beat 6800 ({t68} ms)");
    }

    #[test]
    fn max_stream_elements_is_square_of_dim() {
        assert_eq!(
            GpuProfile::geforce_6800().max_stream_elements(),
            2048 * 2048
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_units_rejected() {
        let _ = GpuProfile::idealized(4).with_units(0);
    }
}
