//! The analytic kernel cost model.
//!
//! A kernel's duration is the maximum of three resource times plus fixed
//! overheads — the standard roofline extended with a latency (Little's
//! law) term and an atomic-serialisation term:
//!
//! * **bandwidth**: `dram_bytes / effective_bandwidth`
//! * **latency**: `transactions × mem_latency / in_flight`, where
//!   `in_flight = resident_warps × MLP`. This is what punishes
//!   under-occupied kernels (e.g. Algorithm 2 launches only `B ≈ 4k`
//!   threads on a device that wants ~29k resident) and serial dependence
//!   chains (the pre-index-mapping recurrence) — exactly the effects the
//!   paper's optimisations target.
//! * **compute**: `flops / peak`, degraded at low occupancy where ALU
//!   latency cannot be hidden.
//! * **atomics**: the worst per-address serialisation depth times the
//!   per-RMW retire time (the contention cost the loop-partition kernel
//!   eliminates).
//!
//! Everything is deterministic: same kernel, same stats, same time.

use crate::metrics::KernelStats;
use crate::spec::DeviceSpec;

/// Warps per SM needed to hide ALU latency on Kepler-class cores.
const WARPS_FOR_ALU: f64 = 16.0;

/// Breakdown of a kernel's modelled duration, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCost {
    /// Bandwidth-limited time.
    pub t_bandwidth: f64,
    /// Latency-limited time (Little's law).
    pub t_latency: f64,
    /// Compute-limited time (occupancy-degraded).
    pub t_compute: f64,
    /// Atomic serialisation time.
    pub t_atomic: f64,
    /// Fixed launch overhead.
    pub t_launch: f64,
    /// Total modelled duration.
    pub total: f64,
}

/// Resident warps once occupancy limits (warp slots, shared memory,
/// blocks-per-SM) are applied.
pub fn resident_warps(spec: &DeviceSpec, stats: &KernelStats) -> f64 {
    let warps_per_block = stats.block_dim.div_ceil(spec.warp_size) as f64;
    let mut blocks_per_sm = (spec.max_warps_per_sm as f64 / warps_per_block)
        .floor()
        .max(1.0);
    // Kepler caps resident blocks per SM at 16.
    blocks_per_sm = blocks_per_sm.min(16.0);
    if stats.shared_mem_bytes > 0 {
        let by_shared = (spec.shared_mem_per_sm as f64 / stats.shared_mem_bytes as f64).floor();
        blocks_per_sm = blocks_per_sm.min(by_shared.max(1.0));
    }
    let per_sm_warps = (blocks_per_sm * warps_per_block).min(spec.max_warps_per_sm as f64);
    let device_capacity = per_sm_warps * spec.sm_count as f64;
    (stats.warps as f64).min(device_capacity).max(1.0)
}

/// Computes the modelled duration of one kernel launch.
pub fn kernel_cost(spec: &DeviceSpec, stats: &KernelStats) -> KernelCost {
    let resident = resident_warps(spec, stats);

    let t_bandwidth = stats.dram_bytes / spec.effective_bandwidth();

    let in_flight = resident * stats.mlp();
    let t_latency = if stats.transactions > 0.0 {
        stats.transactions * (spec.mem_latency_ns * 1e-9) / in_flight
    } else {
        0.0
    };

    let occupancy_util = (resident / (spec.sm_count as f64 * WARPS_FOR_ALU)).clamp(1e-6, 1.0);
    let t_compute = if stats.flops > 0.0 {
        stats.flops / spec.peak_fp64_flops() / occupancy_util
    } else {
        0.0
    };

    // Atomics serialise per address (worst-case conflict depth) and are
    // additionally bounded by aggregate L2 atomic throughput (~32 banks).
    const ATOMIC_BANKS: f64 = 32.0;
    let t_atomic = stats.atomic_max_conflict * spec.atomic_ns * 1e-9
        + stats.atomic_ops * spec.atomic_ns * 1e-9 / ATOMIC_BANKS;

    let t_launch = spec.launch_overhead_us * 1e-6;
    let total = t_launch + t_bandwidth.max(t_latency).max(t_compute) + t_atomic;
    KernelCost {
        t_bandwidth,
        t_latency,
        t_compute,
        t_atomic,
        t_launch,
        total,
    }
}

/// PCIe transfer time for `bytes` in one direction.
pub fn transfer_time(spec: &DeviceSpec, bytes: usize) -> f64 {
    spec.pcie_latency_us * 1e-6 + bytes as f64 / spec.pcie_bandwidth
}

/// Dominant resource of a kernel, for profiler reports.
pub fn bound_by(cost: &KernelCost) -> &'static str {
    let m = cost.t_bandwidth.max(cost.t_latency).max(cost.t_compute);
    if cost.t_atomic > m {
        "atomic"
    } else if m == cost.t_bandwidth {
        "bandwidth"
    } else if m == cost.t_latency {
        "latency"
    } else {
        "compute"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::LaunchConfig;

    fn stats(threads: u64, block_dim: u32) -> KernelStats {
        let cfg = LaunchConfig::for_elements(threads as usize, block_dim);
        KernelStats {
            name: "t".into(),
            threads: cfg.total_threads(),
            warps: cfg.total_warps(32),
            sampled_warps: 1,
            block_dim,
            grid_dim: cfg.grid_dim,
            ..Default::default()
        }
    }

    #[test]
    fn bandwidth_bound_kernel() {
        let spec = DeviceSpec::tesla_k20x();
        let mut s = stats(1 << 20, 256);
        s.dram_bytes = 1e9; // 1 GB of traffic
        s.transactions = 1e9 / 128.0;
        s.mem_ops = 1e9 / 16.0;
        s.ops_per_thread = s.mem_ops / s.threads as f64;
        let c = kernel_cost(&spec, &s);
        // 1 GB / 187.5 GB/s ≈ 5.3 ms
        assert!((c.t_bandwidth - 1e9 / 187.5e9).abs() / c.t_bandwidth < 1e-9);
        assert!(c.total >= c.t_bandwidth);
        assert_eq!(bound_by(&c), "bandwidth");
    }

    #[test]
    fn low_occupancy_is_latency_bound() {
        let spec = DeviceSpec::tesla_k20x();
        // 4096 threads, each doing 128 scattered dependent loads.
        let mut s = stats(4096, 256);
        s.transactions = 4096.0 * 128.0;
        s.mem_ops = s.transactions;
        s.dram_bytes = s.transactions * 32.0;
        s.ops_per_thread = 128.0;
        s.chain_len = 128.0;
        let c = kernel_cost(&spec, &s);
        assert!(
            c.t_latency > c.t_bandwidth,
            "under-occupied chained kernel must be latency bound: {c:?}"
        );
        assert_eq!(bound_by(&c), "latency");
    }

    #[test]
    fn full_occupancy_same_traffic_is_faster() {
        let spec = DeviceSpec::tesla_k20x();
        let total_txns = 4096.0 * 128.0;
        // Same total transactions, spread over many independent threads.
        let mut wide = stats(4096 * 128, 256);
        wide.transactions = total_txns;
        wide.mem_ops = total_txns;
        wide.dram_bytes = total_txns * 32.0;
        wide.ops_per_thread = 1.0;

        let mut narrow = stats(4096, 256);
        narrow.transactions = total_txns;
        narrow.mem_ops = total_txns;
        narrow.dram_bytes = total_txns * 32.0;
        narrow.ops_per_thread = 128.0;
        narrow.chain_len = 128.0;

        let cw = kernel_cost(&spec, &wide);
        let cn = kernel_cost(&spec, &narrow);
        assert!(
            cw.total < cn.total / 4.0,
            "wide {:.3e} should be ≫ faster than narrow {:.3e}",
            cw.total,
            cn.total
        );
    }

    #[test]
    fn atomic_contention_adds_serial_time() {
        let spec = DeviceSpec::tesla_k20x();
        let mut s = stats(1 << 16, 256);
        s.atomic_ops = 65536.0;
        s.atomic_max_conflict = 65536.0; // all threads on one address
        let c = kernel_cost(&spec, &s);
        let expected = 65536.0 * 6e-9 + 65536.0 * 6e-9 / 32.0;
        assert!((c.t_atomic - expected).abs() < 1e-12);
        assert_eq!(bound_by(&c), "atomic");
    }

    #[test]
    fn compute_bound_kernel() {
        let spec = DeviceSpec::tesla_k20x();
        let mut s = stats(1 << 22, 256);
        s.flops = 1e12;
        let c = kernel_cost(&spec, &s);
        assert!(c.t_compute > c.t_bandwidth);
        assert_eq!(bound_by(&c), "compute");
        // 1e12 flops at ~1.3 TF/s ≈ 0.76 s.
        assert!((0.1..10.0).contains(&c.t_compute));
    }

    #[test]
    fn low_occupancy_degrades_compute() {
        let spec = DeviceSpec::tesla_k20x();
        let mut few = stats(1024, 256);
        few.flops = 1e9;
        let mut many = stats(1 << 20, 256);
        many.flops = 1e9;
        let cf = kernel_cost(&spec, &few);
        let cm = kernel_cost(&spec, &many);
        assert!(cf.t_compute > cm.t_compute);
    }

    #[test]
    fn shared_memory_limits_occupancy() {
        let spec = DeviceSpec::tesla_k20x();
        let mut s = stats(1 << 20, 256);
        let baseline = resident_warps(&spec, &s);
        s.shared_mem_bytes = 32 * 1024; // 2 blocks per SM max
        let limited = resident_warps(&spec, &s);
        assert!(limited < baseline);
        assert_eq!(limited, 2.0 * 8.0 * 14.0); // 2 blocks × 8 warps × 14 SMs
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let spec = DeviceSpec::tesla_k20x();
        let t1 = transfer_time(&spec, 6_000_000);
        let t2 = transfer_time(&spec, 12_000_000);
        // Slope check net of fixed latency.
        let fixed = transfer_time(&spec, 0);
        assert!(((t2 - fixed) - 2.0 * (t1 - fixed)).abs() < 1e-12);
        assert!((fixed - 10e-6).abs() < 1e-12);
    }

    #[test]
    fn launch_overhead_always_charged() {
        let spec = DeviceSpec::tesla_k20x();
        let s = stats(32, 32);
        let c = kernel_cost(&spec, &s);
        assert!(c.total >= 4.9e-6);
    }

    #[test]
    fn cost_is_deterministic() {
        let spec = DeviceSpec::tesla_k20x();
        let mut s = stats(1 << 18, 256);
        s.dram_bytes = 12345678.0;
        s.transactions = 9999.0;
        s.flops = 1e8;
        assert_eq!(kernel_cost(&spec, &s), kernel_cost(&spec, &s));
    }
}
