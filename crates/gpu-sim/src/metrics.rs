//! Kernel-level statistics from the sampled blocks' tallies.
//!
//! The executor samples a subset of blocks. Each sampled block's task
//! traces its threads through one recorder ([`crate::trace`]), which
//! prices every warp as it ends into the block's `BlockTally`. The task
//! returns the tally, and `aggregate` folds the tallies in block order
//! into a [`KernelStats`], extrapolating by the sampling factor.
//! `KernelStats` is the sole input (besides the
//! [`crate::spec::DeviceSpec`]) to the cost model, so everything the
//! simulator "believes" about a kernel is inspectable here.

use crate::launch::LaunchConfig;

/// Per-launch statistics, extrapolated from the sampled blocks.
#[derive(Debug, Clone, Default)]
pub struct KernelStats {
    /// Kernel name (for reports).
    pub name: String,
    /// Total threads launched.
    pub threads: u64,
    /// Total warps launched.
    pub warps: u64,
    /// Warps actually traced.
    pub sampled_warps: u64,
    /// Double-precision flops (extrapolated).
    pub flops: f64,
    /// DRAM traffic in bytes (extrapolated, after coalescing analysis).
    pub dram_bytes: f64,
    /// DRAM transactions (extrapolated).
    pub transactions: f64,
    /// Total memory instructions (extrapolated).
    pub mem_ops: f64,
    /// Mean serial-dependence chain length per thread (weighted; an
    /// accumulator-chained load contributes 1/UNROLL).
    pub chain_len: f64,
    /// Mean memory ops per thread.
    pub ops_per_thread: f64,
    /// Atomic operations (extrapolated).
    pub atomic_ops: f64,
    /// Estimated worst per-address atomic multiplicity (extrapolated) —
    /// the serialisation depth the cost model charges.
    pub atomic_max_conflict: f64,
    /// Launch geometry.
    pub block_dim: u32,
    /// Launch geometry.
    pub grid_dim: u32,
    /// Dynamic shared memory per block.
    pub shared_mem_bytes: u32,
}

impl KernelStats {
    /// Memory-level parallelism: independent requests a warp keeps in
    /// flight, derived from ops-per-thread vs. chain length. A kernel
    /// with no serial dependence at all (pure gather/scatter) runs at the
    /// hardware maximum — the warp retires its load and the scheduler
    /// rotates, so outstanding requests are bounded by MSHRs, not by the
    /// kernel.
    pub fn mlp(&self) -> f64 {
        const MAX_MLP: f64 = 8.0;
        if self.ops_per_thread <= 0.0 {
            return 1.0;
        }
        if self.chain_len < 0.5 {
            return MAX_MLP;
        }
        (self.ops_per_thread / self.chain_len).clamp(1.0, MAX_MLP)
    }
}

/// What one sampled block's traced threads add up to. Every field but the
/// atomic addresses is a sum over the block's threads or warps; the worst
/// atomic conflict needs the addresses of the whole launch.
#[derive(Debug, Default)]
pub(crate) struct BlockTally {
    /// Threads traced.
    pub(crate) threads: u64,
    /// Warps traced; a partial last warp counts as one.
    pub(crate) warps: u64,
    /// Double-precision flops the threads reported.
    pub(crate) flops: u64,
    /// DRAM transactions, after coalescing analysis.
    pub(crate) transactions: u64,
    /// DRAM bytes, after coalescing analysis.
    pub(crate) bytes: u64,
    /// Memory instructions that reach DRAM (L2-resident ones excluded).
    pub(crate) mem_ops: u64,
    /// Weighted serial-dependence chain, summed over threads.
    pub(crate) chain_sum: f64,
    /// The address of every atomic access.
    pub(crate) atomic_addrs: Vec<u64>,
}

/// Builds kernel statistics from the tallies of the sampled blocks, in
/// block order. `sample_scale = grid_dim / sampled_blocks` extrapolates
/// sampled quantities to the full launch.
pub(crate) fn aggregate(
    name: &str,
    cfg: LaunchConfig,
    warp_size: u32,
    blocks: &[BlockTally],
    sample_scale: f64,
) -> KernelStats {
    let mut sum = BlockTally::default();
    for b in blocks {
        sum.threads += b.threads;
        sum.warps += b.warps;
        sum.flops += b.flops;
        sum.transactions += b.transactions;
        sum.bytes += b.bytes;
        sum.mem_ops += b.mem_ops;
        sum.chain_sum += b.chain_sum;
        sum.atomic_addrs.extend_from_slice(&b.atomic_addrs);
    }
    let atomic_ops = sum.atomic_addrs.len() as u64;
    let max_conflict = longest_run(&mut sum.atomic_addrs);
    let per_thread = |x: f64| {
        if sum.threads > 0 {
            x / sum.threads as f64
        } else {
            0.0
        }
    };

    KernelStats {
        name: name.to_string(),
        threads: cfg.total_threads(),
        warps: cfg.total_warps(warp_size),
        sampled_warps: sum.warps,
        flops: sum.flops as f64 * sample_scale,
        dram_bytes: sum.bytes as f64 * sample_scale,
        transactions: sum.transactions as f64 * sample_scale,
        mem_ops: sum.mem_ops as f64 * sample_scale,
        chain_len: per_thread(sum.chain_sum),
        ops_per_thread: per_thread(sum.mem_ops as f64),
        atomic_ops: atomic_ops as f64 * sample_scale,
        atomic_max_conflict: max_conflict as f64 * sample_scale,
        block_dim: cfg.block_dim,
        grid_dim: cfg.grid_dim,
        shared_mem_bytes: cfg.shared_mem_bytes,
    }
}

/// The most times one address occurs: the length of the longest run once
/// the addresses are sorted.
fn longest_run(addrs: &mut [u64]) -> u64 {
    addrs.sort_unstable();
    addrs
        .chunk_by(|a, b| a == b)
        .map(|run| run.len() as u64)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;
    use crate::trace::{AccessKind, Recorder};

    /// Traces one block at K20x sizes (32-lane warps, 128 B lines, 32 B
    /// segments); `lane(t, rec)` records thread `t`'s accesses.
    fn block(threads: u64, lane: impl Fn(u64, &mut Recorder)) -> BlockTally {
        let mut rec = Recorder::new(&DeviceSpec::tesla_k20x());
        for t in 0..threads {
            lane(t, &mut rec);
            rec.end_lane();
        }
        rec.finish()
    }

    /// One 32-thread block, each thread recording one 16 B access of
    /// `kind` at `addr(t)`.
    fn warp_of(kind: AccessKind, addr: impl Fn(u64) -> u64) -> KernelStats {
        let b = block(32, |t, r| r.record(addr(t), 16, kind));
        aggregate("k", LaunchConfig::new(1, 32), 32, &[b], 1.0)
    }

    #[test]
    fn coalesced_block_counts_few_transactions() {
        // 32 threads each load element tid (16 B) — one warp, 4×128 B lines.
        let s = warp_of(AccessKind::Read, |t| t * 16);
        assert_eq!(s.transactions as u64, 4);
        assert_eq!(s.dram_bytes as u64, 512);
        assert_eq!(s.mem_ops as u64, 32);
        assert!(
            (s.mlp() - 8.0).abs() < 1e-9,
            "chain-free kernel runs at max MLP"
        );
    }

    #[test]
    fn scattered_default_path_fetches_full_lines() {
        let s = warp_of(AccessKind::Read, |t| t * 100_000);
        assert_eq!(s.transactions as u64, 32);
        assert_eq!(s.dram_bytes as u64, 32 * 128, "default path: 128 B lines");
    }

    #[test]
    fn scattered_readonly_path_uses_segments() {
        let s = warp_of(AccessKind::ReadOnly, |t| t * 100_000);
        assert_eq!(s.transactions as u64, 32);
        assert_eq!(s.dram_bytes as u64, 32 * 32, "__ldg path: 32 B segments");
    }

    #[test]
    fn cached_scratch_traffic_is_free() {
        let s = warp_of(AccessKind::CachedRead, |t| t * 16);
        assert_eq!(s.transactions as u64, 0);
        assert_eq!(s.dram_bytes as u64, 0);
        assert_eq!(s.mem_ops as u64, 0);
    }

    #[test]
    fn sample_scale_extrapolates() {
        let cfg = LaunchConfig::new(10, 32); // 10 blocks, 1 sampled
        let b = block(32, |t, r| {
            r.record(t * 16, 16, AccessKind::Read);
            r.add_flops(10);
        });
        let s = aggregate("k", cfg, 32, &[b], 10.0);
        assert_eq!(s.flops as u64, 3200);
        assert_eq!(s.transactions as u64, 40);
        assert_eq!(s.threads, 320);
        assert_eq!(s.warps, 10);
        assert_eq!(s.sampled_warps, 1);
    }

    #[test]
    fn atomic_conflicts_tracked() {
        // All 32 threads hit the same atomic address; 16 hit another.
        let b = block(32, |t, r| {
            r.record(0, 4, AccessKind::Atomic);
            if t < 16 {
                r.record(64, 4, AccessKind::Atomic);
            }
        });
        let s = aggregate("k", LaunchConfig::new(1, 32), 32, &[b], 1.0);
        assert_eq!(s.atomic_ops as u64, 48);
        assert_eq!(s.atomic_max_conflict as u64, 32);
    }

    #[test]
    fn worst_atomic_conflict_spans_sampled_blocks() {
        // Each block alone hits address 0 at most 32 times; the launch
        // hits it 48 times.
        let first = block(32, |_, r| r.record(0, 4, AccessKind::Atomic));
        let second = block(32, |t, r| {
            let addr = if t < 16 { 0 } else { 64 + t * 4 };
            r.record(addr, 4, AccessKind::Atomic);
        });
        let s = aggregate("k", LaunchConfig::new(4, 32), 32, &[first, second], 2.0);
        assert_eq!(s.atomic_ops as u64, 128);
        assert_eq!(s.atomic_max_conflict as u64, 96, "48 hits, scaled by 2");
    }

    #[test]
    fn chain_length_reduces_mlp() {
        let b = block(32, |_, r| {
            for j in 0..8u64 {
                r.record(j * 4096, 16, AccessKind::ReadDependent);
            }
        });
        let s = aggregate("k", LaunchConfig::new(1, 32), 32, &[b], 1.0);
        assert!((s.chain_len - 8.0).abs() < 1e-9);
        assert!((s.mlp() - 1.0).abs() < 1e-9, "fully chained → mlp 1");
    }

    #[test]
    fn independent_ops_raise_mlp() {
        let b = block(32, |_, r| {
            for j in 0..8u64 {
                r.record(j * 4096, 16, AccessKind::Read);
            }
        });
        let s = aggregate("k", LaunchConfig::new(1, 32), 32, &[b], 1.0);
        assert!((s.mlp() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn empty_traces_are_safe() {
        let cfg = LaunchConfig::new(1, 32);
        let s = aggregate("k", cfg, 32, &[], 1.0);
        assert_eq!(s.transactions, 0.0);
        assert_eq!(s.mlp(), 1.0);
    }

    #[test]
    fn lanes_that_skip_an_access_shift_their_later_slots() {
        // Lane 0 is a padding lane: it skips the load of `a` and reads
        // only `b`, so its `b` load shares slot 0 with the other lanes'
        // `a` loads. Slot 0: `b[0]`'s line plus `a`'s 4 lines; slot 1:
        // `b[1..32]`, 4 lines. Grouping by source access would give 8.
        let (a, b) = (0u64, 1u64 << 20);
        let tally = block(32, |t, r| {
            if t > 0 {
                r.record(a + t * 16, 16, AccessKind::Read);
            }
            r.record(b + t * 16, 16, AccessKind::Read);
        });
        let s = aggregate("k", LaunchConfig::new(1, 32), 32, &[tally], 1.0);
        assert_eq!(s.transactions as u64, 9);
        assert_eq!(s.dram_bytes as u64, 9 * 128);
    }

    #[test]
    fn lane_that_returns_early_leaves_later_slots_to_the_rest() {
        // Lane 0 returns after its first load; slot 1 holds only lanes
        // 1..32, and lane 1 sets its kind (read-only: 32 B segments).
        let tally = block(32, |t, r| {
            r.record(t * 16, 16, AccessKind::Read);
            if t > 0 {
                r.record((1 << 20) + t * 4096, 16, AccessKind::ReadOnly);
            }
        });
        let s = aggregate("k", LaunchConfig::new(1, 32), 32, &[tally], 1.0);
        assert_eq!(s.transactions as u64, 4 + 31);
        assert_eq!(s.dram_bytes as u64, 512 + 31 * 32);
    }

    #[test]
    fn slot_kind_comes_from_its_first_lane_that_reaches_dram() {
        // Lane 0's access in slot 0 is L2-resident, so lane 1's plain read
        // sets the slot's kind: the read-only lanes after it are priced as
        // whole 128 B lines too.
        let tally = block(32, |t, r| {
            let kind = match t {
                0 => AccessKind::CachedRead,
                1 => AccessKind::Read,
                _ => AccessKind::ReadOnly,
            };
            r.record(t * 4096, 16, kind);
        });
        let s = aggregate("k", LaunchConfig::new(1, 32), 32, &[tally], 1.0);
        assert_eq!(s.mem_ops as u64, 31);
        assert_eq!(s.transactions as u64, 31);
        assert_eq!(s.dram_bytes as u64, 31 * 128);
    }

    #[test]
    fn l2_resident_access_uses_a_slot_without_a_transaction() {
        // Even lanes stage through L2 first, so their load of `a` lands in
        // slot 1 while odd lanes load `a` in slot 0: two half-warp
        // instructions of 4 lines each, and nothing for the L2 accesses.
        let tally = block(32, |t, r| {
            if t % 2 == 0 {
                r.record(1 << 20, 16, AccessKind::CachedRead);
                r.record(t * 16, 16, AccessKind::Read);
            } else {
                r.record(t * 16, 16, AccessKind::Read);
                r.record(1 << 20, 16, AccessKind::CachedWrite);
            }
        });
        let s = aggregate("k", LaunchConfig::new(1, 32), 32, &[tally], 1.0);
        assert_eq!(s.mem_ops as u64, 32);
        assert_eq!(s.transactions as u64, 8);
        assert_eq!(s.dram_bytes as u64, 8 * 128);
    }

    #[test]
    fn partial_last_warp_is_priced_on_its_own() {
        // 40 threads: a full warp (4 lines) and an 8-lane warp (1 line).
        let tally = block(40, |t, r| r.record(t * 16, 16, AccessKind::Read));
        let s = aggregate("k", LaunchConfig::new(1, 40), 32, &[tally], 1.0);
        assert_eq!(s.sampled_warps, 2);
        assert_eq!(s.transactions as u64, 5);
        assert_eq!(s.ops_per_thread, 1.0);
    }
}
