//! Simulated device configurations.
//!
//! The default configuration models the NVIDIA Tesla C2050 (Fermi) used in
//! the paper's Table 2, with the published SM counts, per-SM resource limits
//! and bandwidths. All cost-model parameters live here so experiments can
//! ablate them.

use crate::SimError;

/// Static description of a simulated GPU.
///
/// # Examples
///
/// ```
/// use kw_gpu_sim::DeviceConfig;
/// let c2050 = DeviceConfig::fermi_c2050();
/// assert_eq!(c2050.sm_count, 14);
/// assert!(c2050.global_bytes_per_cycle() > 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name of the device.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// SIMD width of a warp.
    pub warp_size: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident CTAs per SM.
    pub max_ctas_per_sm: u32,
    /// Maximum threads per CTA.
    pub max_threads_per_cta: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Register allocation granularity (registers are allocated to warps in
    /// chunks of this many registers on Fermi).
    pub register_granularity: u32,
    /// Maximum registers addressable per thread.
    pub max_registers_per_thread: u32,
    /// Shared memory per SM, bytes.
    pub shared_mem_per_sm: u32,
    /// Shared-memory allocation granularity, bytes.
    pub shared_granularity: u32,
    /// Core clock, GHz.
    pub clock_ghz: f64,
    /// Off-chip global memory capacity, bytes.
    pub global_mem_bytes: u64,
    /// Peak global-memory bandwidth, GB/s.
    pub global_bandwidth_gbs: f64,
    /// Aggregate shared-memory bandwidth relative to global (Fermi's on-chip
    /// scratchpad sustains roughly an order of magnitude more than DRAM).
    pub shared_bandwidth_ratio: f64,
    /// Aggregate ALU throughput, operations per cycle across the device.
    pub alu_ops_per_cycle: f64,
    /// Fixed cost of one kernel launch, cycles (driver + dispatch).
    pub kernel_launch_cycles: u64,
    /// Cost of one CTA-wide barrier synchronization, cycles.
    pub barrier_cycles: u64,
    /// Occupancy at which global-memory bandwidth saturates; below this the
    /// achieved bandwidth degrades linearly (latency is no longer hidden).
    pub bandwidth_saturation_occupancy: f64,
    /// PCIe bandwidth, GB/s (each direction).
    pub pcie_bandwidth_gbs: f64,
    /// PCIe per-transfer latency, microseconds.
    pub pcie_latency_us: f64,
    /// Number of compute engines for streamed kernel launches. Fermi has a
    /// single kernel dispatcher, so streamed kernels serialize (1); raising
    /// this models later hardware where kernels from different streams
    /// overlap. The H2D/D2H copy engines are always separate.
    pub compute_engines: u32,
}

impl DeviceConfig {
    /// The NVIDIA Tesla C2050 (Fermi) configuration of the paper's Table 2.
    pub fn fermi_c2050() -> DeviceConfig {
        DeviceConfig {
            name: "NVIDIA Tesla C2050 (simulated)",
            sm_count: 14,
            warp_size: 32,
            max_threads_per_sm: 1536,
            max_warps_per_sm: 48,
            max_ctas_per_sm: 8,
            max_threads_per_cta: 1024,
            registers_per_sm: 32768,
            register_granularity: 64,
            max_registers_per_thread: 63,
            shared_mem_per_sm: 48 * 1024,
            shared_granularity: 128,
            clock_ghz: 1.15,
            global_mem_bytes: 3 * 1024 * 1024 * 1024,
            global_bandwidth_gbs: 144.0,
            shared_bandwidth_ratio: 8.0,
            alu_ops_per_cycle: 448.0,
            kernel_launch_cycles: 6_000,
            barrier_cycles: 8,
            bandwidth_saturation_occupancy: 0.25,
            pcie_bandwidth_gbs: 8.0,
            pcie_latency_us: 10.0,
            compute_engines: 1,
        }
    }

    /// A fused CPU+GPU die of the era the paper discusses in Section 2.3
    /// (Intel Sandy Bridge / AMD Fusion): the GPU shares system DDR3 with
    /// the CPU and "the PCIe bus is removed" — host↔device transfers are
    /// on-die copies at memory speed. Four of fusion's six benefits remain
    /// (all but *Reduction in PCIe Traffic* and *Larger Input Data*).
    pub fn fused_apu() -> DeviceConfig {
        DeviceConfig {
            name: "fused CPU+GPU APU (simulated)",
            sm_count: 5,
            max_threads_per_sm: 1536,
            max_warps_per_sm: 48,
            clock_ghz: 0.6,
            global_mem_bytes: 2 * 1024 * 1024 * 1024,
            global_bandwidth_gbs: 25.6, // shared DDR3
            alu_ops_per_cycle: 160.0,
            // "PCIe" = on-die copy through the shared memory controller.
            pcie_bandwidth_gbs: 25.6,
            pcie_latency_us: 0.5,
            ..DeviceConfig::fermi_c2050()
        }
    }

    /// A CPU execution target (the paper's Section 6 "Different Platform":
    /// via an execution-model translator like Ocelot, fused kernels can run
    /// on the CPU, where the smaller-footprint and larger-optimization-scope
    /// benefits still apply). Modeled as a 4-core, 3 GHz part with desktop
    /// DDR3 bandwidth, a large cache standing in for shared memory, and no
    /// accelerator bus.
    pub fn cpu_like() -> DeviceConfig {
        DeviceConfig {
            name: "4-core CPU via Ocelot (simulated)",
            sm_count: 4,
            warp_size: 8, // SIMD lanes
            max_threads_per_sm: 64,
            max_warps_per_sm: 8,
            max_ctas_per_sm: 4,
            max_threads_per_cta: 64,
            registers_per_sm: 1 << 14,
            shared_mem_per_sm: 256 * 1024, // L2 slice as scratchpad
            clock_ghz: 3.0,
            global_mem_bytes: 16 * 1024 * 1024 * 1024,
            global_bandwidth_gbs: 21.0,
            shared_bandwidth_ratio: 6.0,
            alu_ops_per_cycle: 32.0,
            kernel_launch_cycles: 600, // a function call, not a driver trip
            pcie_bandwidth_gbs: 21.0,  // "transfers" are memcpys
            pcie_latency_us: 0.2,
            ..DeviceConfig::fermi_c2050()
        }
    }

    /// A small debug device (2 SMs, tiny memory) for tests that want to
    /// exercise capacity limits cheaply.
    pub fn tiny() -> DeviceConfig {
        DeviceConfig {
            name: "tiny test device",
            global_mem_bytes: 1024 * 1024,
            sm_count: 2,
            ..DeviceConfig::fermi_c2050()
        }
    }

    /// Check that every field is physical: each float finite and positive,
    /// each integer at least 1. The cost model divides by most of them, so
    /// a zero, NaN or infinite field would panic or yield a non-finite, or
    /// even a smaller, simulated time instead of an error. Every kernel
    /// execution and every run entry point of the compiler checks it before
    /// its first device operation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the first field out of
    /// range, integer fields before float fields.
    ///
    /// # Examples
    ///
    /// ```
    /// use kw_gpu_sim::{DeviceConfig, SimError};
    /// assert!(DeviceConfig::fermi_c2050().validate().is_ok());
    /// let broken = DeviceConfig { warp_size: 0, ..DeviceConfig::fermi_c2050() };
    /// assert!(matches!(
    ///     broken.validate(),
    ///     Err(SimError::InvalidConfig { field: "warp_size", .. })
    /// ));
    /// ```
    pub fn validate(&self) -> Result<(), SimError> {
        let integers = [
            ("sm_count", u64::from(self.sm_count)),
            ("warp_size", u64::from(self.warp_size)),
            ("max_threads_per_sm", u64::from(self.max_threads_per_sm)),
            ("max_warps_per_sm", u64::from(self.max_warps_per_sm)),
            ("max_ctas_per_sm", u64::from(self.max_ctas_per_sm)),
            ("max_threads_per_cta", u64::from(self.max_threads_per_cta)),
            ("registers_per_sm", u64::from(self.registers_per_sm)),
            ("register_granularity", u64::from(self.register_granularity)),
            (
                "max_registers_per_thread",
                u64::from(self.max_registers_per_thread),
            ),
            ("shared_mem_per_sm", u64::from(self.shared_mem_per_sm)),
            ("shared_granularity", u64::from(self.shared_granularity)),
            ("global_mem_bytes", self.global_mem_bytes),
            ("kernel_launch_cycles", self.kernel_launch_cycles),
            ("barrier_cycles", self.barrier_cycles),
            ("compute_engines", u64::from(self.compute_engines)),
        ];
        let floats = [
            ("clock_ghz", self.clock_ghz),
            ("global_bandwidth_gbs", self.global_bandwidth_gbs),
            ("shared_bandwidth_ratio", self.shared_bandwidth_ratio),
            ("alu_ops_per_cycle", self.alu_ops_per_cycle),
            (
                "bandwidth_saturation_occupancy",
                self.bandwidth_saturation_occupancy,
            ),
            ("pcie_bandwidth_gbs", self.pcie_bandwidth_gbs),
            ("pcie_latency_us", self.pcie_latency_us),
        ];
        let invalid = |field: &'static str, value: String| SimError::InvalidConfig { field, value };
        if let Some(&(field, v)) = integers.iter().find(|(_, v)| *v == 0) {
            return Err(invalid(field, v.to_string()));
        }
        if let Some(&(field, v)) = floats.iter().find(|(_, v)| !(v.is_finite() && *v > 0.0)) {
            return Err(invalid(field, v.to_string()));
        }
        Ok(())
    }

    /// Global-memory bytes transferred per core cycle at peak bandwidth.
    pub fn global_bytes_per_cycle(&self) -> f64 {
        self.global_bandwidth_gbs / self.clock_ghz
    }

    /// Shared-memory bytes per cycle (aggregate).
    pub fn shared_bytes_per_cycle(&self) -> f64 {
        self.global_bytes_per_cycle() * self.shared_bandwidth_ratio
    }

    /// Convert core cycles to seconds.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Convert seconds to core cycles.
    pub fn seconds_to_cycles(&self, seconds: f64) -> u64 {
        (seconds * self.clock_ghz * 1e9).round() as u64
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::fermi_c2050()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c2050_parameters() {
        let c = DeviceConfig::fermi_c2050();
        assert_eq!(c.max_warps_per_sm * c.warp_size, c.max_threads_per_sm);
        assert_eq!(c.shared_mem_per_sm, 49152);
        // ~125 bytes per cycle at 144 GB/s / 1.15 GHz.
        assert!((c.global_bytes_per_cycle() - 125.2).abs() < 0.5);
    }

    #[test]
    fn time_conversions_roundtrip() {
        let c = DeviceConfig::fermi_c2050();
        let s = c.cycles_to_seconds(1_150_000_000);
        assert!((s - 1.0).abs() < 1e-9);
        assert_eq!(c.seconds_to_cycles(1.0), 1_150_000_000);
    }

    #[test]
    fn cycles_survive_a_seconds_round_trip() {
        // Reports carry latencies in seconds and the latency histograms are
        // rendered back in cycles, so the round trip must be exact from one
        // cycle up to about an hour of simulated time.
        let presets = [
            DeviceConfig::fermi_c2050(),
            DeviceConfig::fused_apu(),
            DeviceConfig::cpu_like(),
            DeviceConfig::tiny(),
        ];
        for c in presets {
            let mut cycles = 0u64;
            while cycles < 1 << 42 {
                for v in [cycles, cycles + 1, cycles + 7] {
                    assert_eq!(c.seconds_to_cycles(c.cycles_to_seconds(v)), v);
                }
                cycles = cycles * 3 + 1;
            }
            for v in 0..100_000 {
                assert_eq!(c.seconds_to_cycles(c.cycles_to_seconds(v)), v);
            }
        }
    }

    #[test]
    fn tiny_is_small() {
        assert!(
            DeviceConfig::tiny().global_mem_bytes < DeviceConfig::fermi_c2050().global_mem_bytes
        );
    }

    #[test]
    fn apu_removes_the_pcie_gap() {
        let gpu = DeviceConfig::fermi_c2050();
        let apu = DeviceConfig::fused_apu();
        // Discrete: order-of-magnitude gap between DRAM and the bus.
        assert!(gpu.global_bandwidth_gbs / gpu.pcie_bandwidth_gbs > 10.0);
        // APU: transfers run at shared-memory speed.
        assert!((apu.global_bandwidth_gbs - apu.pcie_bandwidth_gbs).abs() < 1e-9);
        assert!(apu.global_bandwidth_gbs < gpu.global_bandwidth_gbs);
    }

    #[test]
    fn cpu_target_is_in_papers_band() {
        let gpu = DeviceConfig::fermi_c2050();
        let cpu = DeviceConfig::cpu_like();
        // The paper cites 4x-40x GPU-over-CPU for the baseline; the
        // bandwidth ratio (what memory-bound RA ops track) sits inside it.
        let ratio = gpu.global_bandwidth_gbs / cpu.global_bandwidth_gbs;
        assert!(ratio > 4.0 && ratio < 40.0, "{ratio}");
        assert!(cpu.kernel_launch_cycles < gpu.kernel_launch_cycles);
    }
}
