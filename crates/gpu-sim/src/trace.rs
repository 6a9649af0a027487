//! Memory-access tracing and per-warp coalescing analysis.
//!
//! Kernels access global memory through [`crate::gmem::Gmem`], which (for
//! sampled warps) records one [`Access`] per load/store. After a block
//! finishes, the executor groups the accesses of each warp by *slot* — the
//! per-thread instruction sequence number — and asks [`warp_transactions`]
//! how many DRAM transactions that warp instruction costs. This is the same
//! accounting a real profiler (`gld_transactions`) performs, and it is what
//! gives the simulator its sensitivity to the paper's coalescing
//! optimisations.

/// What kind of memory operation an access was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain global load, independent of previous loads (address known
    /// up-front — e.g. after the paper's *index mapping* rewrite).
    Read,
    /// Global load whose address depends on the previous load's result
    /// (a pointer-chase / recurrence — e.g. `index = (index + ai) % n`).
    /// These form a latency chain the cost model cannot overlap.
    ReadDependent,
    /// Read-only-cache load (`__ldg`): charged like a read but assumed to
    /// hit the 48 KB read-only path, so it does not join the latency chain
    /// and does not occupy DRAM MSHRs (excluded from the MLP calculation).
    ReadOnly,
    /// L2-resident producer-consumer read: data written by an immediately
    /// preceding kernel in the same stream whose working set fits in L2
    /// (the async-layout staging buffers). Free of DRAM traffic.
    CachedRead,
    /// Plain global store.
    Write,
    /// Store to an L2-resident scratch buffer that is consumed and
    /// discarded before eviction. Free of DRAM traffic.
    CachedWrite,
    /// Atomic read-modify-write.
    Atomic,
}

impl AccessKind {
    /// True for operations that extend the per-thread dependency chain.
    #[inline]
    pub fn is_dependent(self) -> bool {
        matches!(self, AccessKind::ReadDependent)
    }

    /// The transaction policy this access kind is serviced under.
    #[inline]
    pub fn policy(self) -> TxnPolicy {
        match self {
            AccessKind::Read | AccessKind::ReadDependent => TxnPolicy::CachedLine,
            _ => TxnPolicy::Segmented,
        }
    }
}

/// One recorded memory access by one thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Access {
    /// Per-thread instruction sequence number; lanes of a warp executing
    /// the same code see the same slot for the same source-level access.
    pub slot: u32,
    /// Byte address (buffer base ⊕ offset — the executor assigns disjoint
    /// synthetic base addresses per buffer).
    pub addr: u64,
    /// Access width in bytes.
    pub bytes: u32,
    /// Operation kind.
    pub kind: AccessKind,
}

/// The trace of a single (sampled) thread.
#[derive(Debug, Default, Clone)]
pub struct ThreadTrace {
    /// Recorded accesses in program order.
    pub accesses: Vec<Access>,
    /// Double-precision flops this thread reported.
    pub flops: u64,
    /// Weighted serial-dependence chain length. A fully dependent load
    /// contributes 1.0; an accumulator-chained load contributes `1/UNROLL`
    /// (the compiler can software-pipeline a modest unroll factor).
    pub chain_len: f32,
    next_slot: u32,
}

/// Overlap factor assumed for accumulator-chained loops
/// (`acc += a[i]*b[i]` with a per-iteration 64-bit mul/mod address
/// computation): on the in-order SMX such loops sustain ~1 outstanding
/// load per warp — the compiler cannot software-pipeline past the
/// accumulator and the address arithmetic. This is precisely the
/// inefficiency the paper's data-layout transformation removes.
pub const ACC_UNROLL: f32 = 1.0;

impl ThreadTrace {
    /// Records an access, assigning the next slot number.
    #[inline]
    pub fn record(&mut self, addr: u64, bytes: u32, kind: AccessKind) {
        let slot = self.next_slot;
        self.next_slot += 1;
        if kind.is_dependent() {
            self.chain_len += 1.0;
        }
        self.accesses.push(Access {
            slot,
            addr,
            bytes,
            kind,
        });
    }

    /// Records a load that feeds a serial accumulator: independent address
    /// (so it coalesces like a plain read) but partially chained execution.
    #[inline]
    pub fn record_acc(&mut self, addr: u64, bytes: u32) {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.chain_len += 1.0 / ACC_UNROLL;
        self.accesses.push(Access {
            slot,
            addr,
            bytes,
            kind: AccessKind::Read,
        });
    }

    /// Adds to the flop count.
    #[inline]
    pub fn add_flops(&mut self, n: u64) {
        self.flops += n;
    }
}

/// Result of coalescing analysis for one warp-level instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpTxn {
    /// Number of DRAM transactions issued.
    pub transactions: u64,
    /// Bytes of DRAM traffic generated.
    pub bytes: u64,
}

/// How a warp memory instruction is serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnPolicy {
    /// Default load path: whole `transaction_bytes`-wide cache lines are
    /// fetched per distinct line touched. Scattered access through this
    /// path suffers the full 128-byte amplification — the memory
    /// behaviour of the paper's *baseline* kernels.
    CachedLine,
    /// Read-only (`__ldg`) / store / atomic path: the hardware issues
    /// fine-grained `scatter_segment_bytes` segments when that moves less
    /// data (Kepler emits 32 B segments when L1 is bypassed).
    Segmented,
}

/// Computes the transactions one warp instruction generates, given the
/// addresses (and access width) of the participating lanes and the
/// service policy.
///
/// A fully coalesced warp touching 512 contiguous bytes costs 4×128 B
/// under either policy; a fully scattered warp of 16 B accesses costs
/// 32×128 B via [`TxnPolicy::CachedLine`] but only 32×32 B via
/// [`TxnPolicy::Segmented`].
pub fn warp_transactions(
    addrs: &[(u64, u32)],
    transaction_bytes: usize,
    scatter_segment_bytes: usize,
    policy: TxnPolicy,
) -> WarpTxn {
    if addrs.is_empty() {
        return WarpTxn {
            transactions: 0,
            bytes: 0,
        };
    }
    let lines = distinct_segments(addrs, transaction_bytes as u64);
    let line_bytes = lines * transaction_bytes as u64;
    if policy == TxnPolicy::CachedLine {
        return WarpTxn {
            transactions: lines,
            bytes: line_bytes,
        };
    }
    let segs = distinct_segments(addrs, scatter_segment_bytes as u64);
    let seg_bytes = segs * scatter_segment_bytes as u64;
    if line_bytes <= seg_bytes {
        WarpTxn {
            transactions: lines,
            bytes: line_bytes,
        }
    } else {
        WarpTxn {
            transactions: segs,
            bytes: seg_bytes,
        }
    }
}

/// Counts the distinct aligned segments of width `seg` touched by the given
/// `(addr, bytes)` accesses.
fn distinct_segments(addrs: &[(u64, u32)], seg: u64) -> u64 {
    let mut ids: Vec<u64> = Vec::with_capacity(addrs.len() * 2);
    for &(a, b) in addrs {
        let first = a / seg;
        let last = (a + b.max(1) as u64 - 1) / seg;
        for s in first..=last {
            ids.push(s);
        }
    }
    ids.sort_unstable();
    ids.dedup();
    ids.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_warp_uses_full_lines() {
        // 32 lanes × 16-byte complex, contiguous: 512 bytes = 4 lines.
        let addrs: Vec<(u64, u32)> = (0..32).map(|i| (i * 16, 16)).collect();
        let t = warp_transactions(&addrs, 128, 32, TxnPolicy::Segmented);
        assert_eq!(t.transactions, 4);
        assert_eq!(t.bytes, 512);
    }

    #[test]
    fn scattered_warp_uses_segments() {
        // 32 lanes reading 16 bytes each, 1 MB apart: 32 segments of 32 B.
        let addrs: Vec<(u64, u32)> = (0..32).map(|i| (i * 1_048_576, 16)).collect();
        let t = warp_transactions(&addrs, 128, 32, TxnPolicy::Segmented);
        assert_eq!(t.transactions, 32);
        assert_eq!(t.bytes, 32 * 32);
    }

    #[test]
    fn scattered_traffic_exceeds_coalesced() {
        let coalesced: Vec<(u64, u32)> = (0..32).map(|i| (i * 16, 16)).collect();
        let scattered: Vec<(u64, u32)> = (0..32).map(|i| (i * 4096, 16)).collect();
        let a = warp_transactions(&coalesced, 128, 32, TxnPolicy::Segmented);
        let b = warp_transactions(&scattered, 128, 32, TxnPolicy::Segmented);
        assert!(b.bytes == 2 * a.bytes, "32×32 B vs 4×128 B");
        assert!(b.transactions > a.transactions);
    }

    #[test]
    fn broadcast_is_one_transaction() {
        let addrs: Vec<(u64, u32)> = (0..32).map(|_| (4096, 8)).collect();
        let t = warp_transactions(&addrs, 128, 32, TxnPolicy::Segmented);
        assert_eq!(t.transactions, 1);
        assert_eq!(t.bytes, 32);
    }

    #[test]
    fn access_straddling_boundary_counts_both_segments() {
        // A 16-byte access starting 8 bytes before a 32 B boundary.
        let addrs = [(24u64, 16u32)];
        let t = warp_transactions(&addrs, 128, 32, TxnPolicy::Segmented);
        // 1 line of 128 B vs 2 segments of 32 B = 64 B: segments win.
        assert_eq!(t.bytes, 64);
        assert_eq!(t.transactions, 2);
    }

    #[test]
    fn empty_warp_is_free() {
        let t = warp_transactions(&[], 128, 32, TxnPolicy::Segmented);
        assert_eq!(t.transactions, 0);
        assert_eq!(t.bytes, 0);
    }

    #[test]
    fn strided_access_partial_coalescing() {
        // stride 64 bytes: 32 lanes touch 16 lines of 128 B, or 32 segments.
        let addrs: Vec<(u64, u32)> = (0..32).map(|i| (i * 64, 16)).collect();
        let t = warp_transactions(&addrs, 128, 32, TxnPolicy::Segmented);
        // 16 lines × 128 = 2048 vs 32 segs × 32 = 1024 → segments.
        assert_eq!(t.bytes, 1024);
    }

    #[test]
    fn thread_trace_slots_and_chain() {
        let mut tr = ThreadTrace::default();
        tr.record(0, 16, AccessKind::Read);
        tr.record(128, 16, AccessKind::ReadDependent);
        tr.record(256, 16, AccessKind::ReadDependent);
        tr.add_flops(10);
        assert_eq!(tr.accesses.len(), 3);
        assert_eq!(tr.accesses[0].slot, 0);
        assert_eq!(tr.accesses[2].slot, 2);
        assert_eq!(tr.chain_len, 2.0);
        assert_eq!(tr.flops, 10);
    }

    #[test]
    fn accumulator_load_partially_chains() {
        let mut tr = ThreadTrace::default();
        for i in 0..8u64 {
            tr.record_acc(i * 64, 16);
        }
        assert_eq!(tr.accesses.len(), 8);
        assert!((tr.chain_len - 8.0 / ACC_UNROLL).abs() < 1e-6);
        assert!(tr.accesses.iter().all(|a| a.kind == AccessKind::Read));
    }

    #[test]
    fn dependent_kind_flag() {
        assert!(AccessKind::ReadDependent.is_dependent());
        assert!(!AccessKind::Read.is_dependent());
        assert!(!AccessKind::ReadOnly.is_dependent());
        assert!(!AccessKind::Write.is_dependent());
    }
}
