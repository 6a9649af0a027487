//! Device specifications — the hardware parameters that drive the analytic
//! cost model. The presets mirror Table I of the paper (Tesla K20x) plus a
//! couple of neighbouring Kepler parts for sensitivity studies, and Table II
//! (the Sandy Bridge CPU test-bench) for the CPU-side model.

/// Parameters of a simulated CUDA device.
///
/// Every field participates in the cost model in `crate::cost`; none is
/// decorative.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. "Tesla K20x".
    pub name: String,
    /// CUDA compute capability, e.g. 3.5.
    pub compute_capability: f32,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Single-precision CUDA cores per SM.
    pub cores_per_sm: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Shared memory / L1 per SM, bytes (64 KB on Kepler).
    pub shared_mem_per_sm: usize,
    /// Read-only data cache per SM, bytes (48 KB on Kepler).
    pub readonly_cache_per_sm: usize,
    /// Device DRAM size in bytes.
    pub global_mem_bytes: usize,
    /// L2 cache size in bytes (1.5 MB on GK110).
    pub l2_bytes: usize,
    /// Peak global memory bandwidth, bytes/second.
    pub mem_bandwidth: f64,
    /// Achievable fraction of peak bandwidth for streaming kernels.
    pub mem_efficiency: f64,
    /// Global memory latency in nanoseconds (Kepler ≈ 230 cycles ≈ 300 ns
    /// including queueing).
    pub mem_latency_ns: f64,
    /// Threads per warp.
    pub warp_size: u32,
    /// Maximum resident warps per SM (64 on Kepler).
    pub max_warps_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Maximum kernels executing concurrently (32 on GK110).
    pub max_concurrent_kernels: u32,
    /// Kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Host↔device (PCIe) bandwidth, bytes/second.
    pub pcie_bandwidth: f64,
    /// Fixed per-transfer PCIe latency in microseconds.
    pub pcie_latency_us: f64,
    /// Nanoseconds to retire one atomic RMW when serialised on an address.
    pub atomic_ns: f64,
    /// Ratio of double-precision to single-precision throughput (1/3 on
    /// GK110 Tesla parts).
    pub fp64_ratio: f64,
    /// Memory transaction (cache line) size in bytes for coalesced access.
    pub transaction_bytes: usize,
    /// Transaction size for scattered (non-coalesced) access: Kepler issues
    /// 32-byte segments when L1 is bypassed.
    pub scatter_segment_bytes: usize,
}

impl DeviceSpec {
    /// NVIDIA Tesla K20x — the paper's test-bench (Table I): 14 SMs,
    /// 2688 cores, 732 MHz, 6 GB, 250 GB/s.
    pub fn tesla_k20x() -> Self {
        DeviceSpec {
            name: "Tesla K20x".into(),
            compute_capability: 3.5,
            sm_count: 14,
            cores_per_sm: 192,
            clock_ghz: 0.732,
            shared_mem_per_sm: 64 * 1024,
            readonly_cache_per_sm: 48 * 1024,
            global_mem_bytes: 6 * 1024 * 1024 * 1024,
            l2_bytes: 1536 * 1024,
            mem_bandwidth: 250.0e9,
            mem_efficiency: 0.75,
            mem_latency_ns: 320.0,
            warp_size: 32,
            max_warps_per_sm: 64,
            max_threads_per_block: 1024,
            max_concurrent_kernels: 32,
            launch_overhead_us: 5.0,
            pcie_bandwidth: 6.0e9,
            pcie_latency_us: 10.0,
            atomic_ns: 6.0,
            fp64_ratio: 1.0 / 3.0,
            transaction_bytes: 128,
            scatter_segment_bytes: 32,
        }
    }

    /// NVIDIA Tesla K40 — a slightly larger Kepler used for sensitivity
    /// checks (15 SMs, 288 GB/s).
    pub fn tesla_k40() -> Self {
        DeviceSpec {
            name: "Tesla K40".into(),
            sm_count: 15,
            clock_ghz: 0.745,
            global_mem_bytes: 12 * 1024 * 1024 * 1024,
            mem_bandwidth: 288.0e9,
            ..Self::tesla_k20x()
        }
    }

    /// NVIDIA Quadro K2000 — a slow/cheap Kepler (GK107) used as the
    /// budget tier of heterogeneous fleet studies: 2 SMX, 384 cores,
    /// 954 MHz, 2 GB, 64 GB/s.
    pub fn quadro_k2000() -> Self {
        DeviceSpec {
            name: "Quadro K2000".into(),
            compute_capability: 3.0,
            sm_count: 2,
            clock_ghz: 0.954,
            global_mem_bytes: 2 * 1024 * 1024 * 1024,
            l2_bytes: 256 * 1024,
            mem_bandwidth: 64.0e9,
            max_concurrent_kernels: 16,
            fp64_ratio: 1.0 / 24.0,
            ..Self::tesla_k20x()
        }
    }

    /// A deliberately tiny device for unit tests: small enough that
    /// occupancy limits and concurrency caps are hit by toy kernels.
    pub fn test_tiny() -> Self {
        DeviceSpec {
            name: "TestTiny".into(),
            compute_capability: 3.5,
            sm_count: 2,
            cores_per_sm: 32,
            clock_ghz: 1.0,
            shared_mem_per_sm: 16 * 1024,
            readonly_cache_per_sm: 8 * 1024,
            global_mem_bytes: 64 * 1024 * 1024,
            l2_bytes: 256 * 1024,
            mem_bandwidth: 10.0e9,
            mem_efficiency: 1.0,
            mem_latency_ns: 100.0,
            warp_size: 4,
            max_warps_per_sm: 8,
            max_threads_per_block: 64,
            max_concurrent_kernels: 4,
            launch_overhead_us: 1.0,
            pcie_bandwidth: 1.0e9,
            pcie_latency_us: 1.0,
            atomic_ns: 10.0,
            fp64_ratio: 0.5,
            transaction_bytes: 64,
            scatter_segment_bytes: 16,
        }
    }

    /// Peak double-precision FLOP rate (fused multiply-add counted as two).
    pub fn peak_fp64_flops(&self) -> f64 {
        self.sm_count as f64
            * self.cores_per_sm as f64
            * self.clock_ghz
            * 1e9
            * 2.0
            * self.fp64_ratio
    }

    /// Effective streaming bandwidth (peak × efficiency).
    pub fn effective_bandwidth(&self) -> f64 {
        self.mem_bandwidth * self.mem_efficiency
    }

    /// Renders the spec as the paper's Table I row.
    pub fn table_row(&self) -> String {
        format!(
            "{} | CC {:.1} | {} cores / {} SMs | {:.0} MHz | {} KB shared | {} GB | {:.0} GB/s",
            self.name,
            self.compute_capability,
            self.sm_count * self.cores_per_sm,
            self.sm_count,
            self.clock_ghz * 1000.0,
            self.shared_mem_per_sm / 1024,
            self.global_mem_bytes / (1024 * 1024 * 1024),
            self.mem_bandwidth / 1e9
        )
    }
}

/// Parameters of the CPU test-bench (paper Table II) used to convert
/// measured CPU work into modelled Sandy Bridge times where needed.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Marketing name.
    pub name: String,
    /// Microarchitecture label.
    pub architecture: String,
    /// Physical cores.
    pub cores: u32,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Last-level cache in bytes.
    pub llc_bytes: usize,
    /// DRAM size in bytes.
    pub dram_bytes: usize,
    /// Sustained memory bandwidth, bytes/second.
    pub mem_bandwidth: f64,
    /// Double-precision FLOPs per core per cycle (AVX: 8 on Sandy Bridge).
    pub flops_per_cycle: f64,
}

impl CpuSpec {
    /// Intel Xeon E5-2640 (Sandy Bridge) — the paper's CPU test-bench:
    /// 6 cores, 2.5 GHz, 15 MB L3, 64 GB DRAM.
    pub fn xeon_e5_2640() -> Self {
        CpuSpec {
            name: "Intel Xeon E5-2640".into(),
            architecture: "Sandy Bridge".into(),
            cores: 6,
            clock_ghz: 2.5,
            llc_bytes: 15 * 1024 * 1024,
            dram_bytes: 64 * 1024 * 1024 * 1024,
            mem_bandwidth: 42.6e9,
            flops_per_cycle: 8.0,
        }
    }

    /// Renders the spec as the paper's Table II row.
    pub fn table_row(&self) -> String {
        format!(
            "{} | {} | {} cores | {:.2} GHz | {} MB L3 | {} GB DRAM",
            self.name,
            self.architecture,
            self.cores,
            self.clock_ghz,
            self.llc_bytes / (1024 * 1024),
            self.dram_bytes / (1024 * 1024 * 1024)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20x_matches_table_one() {
        let s = DeviceSpec::tesla_k20x();
        assert_eq!(s.sm_count, 14);
        assert_eq!(s.sm_count * s.cores_per_sm, 2688);
        assert!((s.clock_ghz - 0.732).abs() < 1e-9);
        assert_eq!(s.global_mem_bytes, 6 * 1024 * 1024 * 1024);
        assert!((s.mem_bandwidth - 250.0e9).abs() < 1.0);
        assert_eq!(s.shared_mem_per_sm, 64 * 1024);
        assert_eq!(s.max_concurrent_kernels, 32);
    }

    #[test]
    fn k20x_peak_rates_are_sane() {
        let s = DeviceSpec::tesla_k20x();
        // ~1.31 TFLOP/s double precision on K20x.
        let tflops = s.peak_fp64_flops() / 1e12;
        assert!((1.0..1.6).contains(&tflops), "got {tflops} TFLOP/s");
        assert!(s.effective_bandwidth() < s.mem_bandwidth);
    }

    #[test]
    fn k40_is_bigger_than_k20x() {
        let a = DeviceSpec::tesla_k20x();
        let b = DeviceSpec::tesla_k40();
        assert!(b.sm_count > a.sm_count);
        assert!(b.mem_bandwidth > a.mem_bandwidth);
        assert_eq!(b.warp_size, a.warp_size);
    }

    #[test]
    fn k2000_is_the_budget_tier() {
        let cheap = DeviceSpec::quadro_k2000();
        let k20x = DeviceSpec::tesla_k20x();
        assert!(cheap.peak_fp64_flops() < k20x.peak_fp64_flops() / 4.0);
        assert!(cheap.mem_bandwidth < k20x.mem_bandwidth);
        assert!(cheap.global_mem_bytes < k20x.global_mem_bytes);
        assert_eq!(cheap.warp_size, k20x.warp_size);
    }

    #[test]
    fn table_rows_render() {
        assert!(DeviceSpec::tesla_k20x().table_row().contains("2688 cores"));
        assert!(CpuSpec::xeon_e5_2640().table_row().contains("Sandy Bridge"));
    }

    #[test]
    fn cpu_spec_matches_table_two() {
        let c = CpuSpec::xeon_e5_2640();
        assert_eq!(c.cores, 6);
        assert!((c.clock_ghz - 2.5).abs() < 1e-9);
        assert_eq!(c.llc_bytes, 15 * 1024 * 1024);
    }

    #[test]
    fn spec_debug_renders() {
        let d = format!("{:?}", DeviceSpec::tesla_k20x());
        assert!(d.contains("K20x"));
    }
}
