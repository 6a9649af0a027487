//! Memory-access tracing and per-warp coalescing analysis.
//!
//! Kernels access global memory through [`crate::gmem::Gmem`]. In a
//! sampled block, every thread's gateway writes into the block's one
//! recorder, whose scratch the block's warps take turns reusing. Each
//! load or store takes the thread's next *slot* — its instruction
//! sequence number, so lanes of a warp running the same code see the same
//! slot for the same source-level access — and the recorder appends the
//! access with its slot. An L2-resident access (`ld_cached`, a store to
//! scratch) only uses up its slot: it costs no DRAM transaction.
//!
//! When a warp's last lane ends, the recorder groups the warp's accesses
//! by slot, takes each slot's [`AccessKind`] from its first lane, and
//! prices each group with the [`warp_transactions`] rule at the device's
//! own line and segment sizes, adding the result to the block's tally
//! (`crate::metrics`). This is the same accounting a real profiler
//! (`gld_transactions`) performs, and it is what gives the simulator its
//! sensitivity to the paper's coalescing optimisations.

use crate::metrics::BlockTally;
use crate::spec::DeviceSpec;

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

/// Overlap factor assumed for accumulator-chained loops
/// (`acc += a[i]*b[i]` with a per-iteration 64-bit mul/mod address
/// computation): on the in-order SMX such loops sustain ~1 outstanding
/// load per warp — the compiler cannot software-pipeline past the
/// accumulator and the address arithmetic. This is precisely the
/// inefficiency the paper's data-layout transformation removes.
pub const ACC_UNROLL: f32 = 1.0;

/// One DRAM access of the current warp, waiting for the warp to end.
#[derive(Debug, Clone, Copy)]
struct Pending {
    slot: u32,
    kind: AccessKind,
    addr: u64,
    bytes: u32,
}

/// The recorder the threads of one sampled block share, one after another.
///
/// Its scratch buffers are sized by the block's first warp and reused by
/// every later one, so a warm recorder's scratch allocates nothing per
/// thread, per slot or per warp. The block's atomic-address list is output,
/// not scratch: it grows with every atomic the block records.
#[derive(Debug)]
pub(crate) struct Recorder {
    warp_size: u32,
    /// DRAM line width (`DeviceSpec::transaction_bytes`).
    line: u64,
    /// Fine-grained segment width (`DeviceSpec::scatter_segment_bytes`).
    segment: u64,
    /// Lanes of the current warp that have ended.
    lanes: u32,
    /// The running lane's next slot.
    next_slot: u32,
    /// Lanes of the current warp that have appended so far.
    appends: u32,
    /// One past the highest slot of `pending`.
    slots: usize,
    /// The current warp's DRAM accesses, in lane order.
    pending: Vec<Pending>,
    /// Grouping scratch: per-slot offsets into `grouped`, and each slot's
    /// kind.
    offsets: Vec<u32>,
    kinds: Vec<AccessKind>,
    /// `pending`'s `(addr, bytes)`, grouped by slot.
    grouped: Vec<(u64, u32)>,
    counter: SegmentCounter,
    tally: BlockTally,
}

impl Recorder {
    /// An empty recorder pricing at `spec`'s warp, line and segment sizes.
    pub(crate) fn new(spec: &DeviceSpec) -> Self {
        Recorder {
            warp_size: spec.warp_size,
            line: spec.transaction_bytes as u64,
            segment: spec.scatter_segment_bytes as u64,
            lanes: 0,
            next_slot: 0,
            appends: 0,
            slots: 0,
            pending: Vec::new(),
            offsets: Vec::new(),
            kinds: Vec::new(),
            grouped: Vec::new(),
            counter: SegmentCounter::default(),
            tally: BlockTally::default(),
        }
    }

    /// Records an access by the running lane in its next slot.
    #[inline]
    pub(crate) fn record(&mut self, addr: u64, bytes: u32, kind: AccessKind) {
        let slot = self.next_slot;
        self.next_slot += 1;
        match kind {
            // L2-resident: the slot is used up, but there is no DRAM
            // traffic and no MSHR pressure to charge.
            AccessKind::CachedRead | AccessKind::CachedWrite => return,
            AccessKind::Atomic => self.tally.atomic_addrs.push(addr),
            _ => {}
        }
        if kind.is_dependent() {
            self.tally.chain_sum += 1.0;
        }
        self.tally.mem_ops += 1;
        self.slots = self.slots.max(slot as usize + 1);
        self.pending.push(Pending {
            slot,
            kind,
            addr,
            bytes,
        });
    }

    /// Records a load that feeds a serial accumulator: independent address
    /// (so it coalesces like a plain read) but partially chained execution.
    #[inline]
    pub(crate) fn record_acc(&mut self, addr: u64, bytes: u32) {
        self.tally.chain_sum += f64::from(1.0 / ACC_UNROLL);
        self.record(addr, bytes, AccessKind::Read);
    }

    /// Records a warp-aggregated append of one `u32` by the running lane.
    /// The warp's first appending lane charges one atomic on the cursor;
    /// every appending lane stores at `out_base + rank·4`, where rank is
    /// its position among the warp's appending lanes. The atomic's slot is
    /// taken by every appending lane, so the stores share one slot.
    pub(crate) fn record_append(&mut self, cursor_addr: u64, out_base: u64) {
        let rank = self.appends;
        self.appends += 1;
        if rank == 0 {
            self.record(cursor_addr, 4, AccessKind::Atomic);
        } else {
            self.next_slot += 1;
        }
        self.record(out_base + u64::from(rank) * 4, 4, AccessKind::Write);
    }

    /// Adds to the flop count.
    #[inline]
    pub(crate) fn add_flops(&mut self, n: u64) {
        self.tally.flops += n;
    }

    /// Ends the running lane; the warp's last lane prices the warp.
    pub(crate) fn end_lane(&mut self) {
        self.next_slot = 0;
        self.tally.threads += 1;
        self.lanes += 1;
        if self.lanes == self.warp_size {
            self.end_warp();
        }
    }

    /// Prices a partial last warp, if any, and returns the block's tally.
    pub(crate) fn finish(mut self) -> BlockTally {
        if self.lanes > 0 {
            self.end_warp();
        }
        self.tally
    }

    /// Groups the warp's accesses by slot and prices each warp
    /// instruction into the tally.
    fn end_warp(&mut self) {
        self.lanes = 0;
        self.appends = 0;
        self.tally.warps += 1;
        let slots = std::mem::take(&mut self.slots);
        // A counting sort on the slot, stable in lane order. While
        // counting, `offsets[s + 1]` is slot s's count, so a count of 0
        // marks the slot's first lane, which sets its kind.
        self.offsets.clear();
        self.offsets.resize(slots + 1, 0);
        self.kinds.resize(slots, AccessKind::Read);
        for p in &self.pending {
            let s = p.slot as usize;
            if self.offsets[s + 1] == 0 {
                self.kinds[s] = p.kind;
            }
            self.offsets[s + 1] += 1;
        }
        for s in 0..slots {
            self.offsets[s + 1] += self.offsets[s];
        }
        // Scattering advances `offsets[s]` from slot s's start to its end.
        self.grouped.resize(self.pending.len(), (0, 0));
        for p in &self.pending {
            let at = &mut self.offsets[p.slot as usize];
            self.grouped[*at as usize] = (p.addr, p.bytes);
            *at += 1;
        }
        let mut start = 0;
        for s in 0..slots {
            let end = self.offsets[s] as usize;
            if end > start {
                let policy = self.kinds[s].policy();
                let t =
                    self.counter
                        .price(&self.grouped[start..end], self.line, self.segment, policy);
                self.tally.transactions += t.transactions;
                self.tally.bytes += t.bytes;
            }
            start = end;
        }
        self.pending.clear();
    }

    /// The current warp's DRAM accesses so far, as `(slot, addr, kind)`.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> Vec<(u32, u64, AccessKind)> {
        self.pending
            .iter()
            .map(|p| (p.slot, p.addr, p.kind))
            .collect()
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
    SegmentCounter::default().price(
        addrs,
        transaction_bytes as u64,
        scatter_segment_bytes as u64,
        policy,
    )
}

/// Counts the distinct aligned segments a warp instruction touches, in a
/// buffer it reuses.
#[derive(Debug, Default)]
struct SegmentCounter {
    ids: Vec<u64>,
}

impl SegmentCounter {
    /// The [`warp_transactions`] rule: whole lines, or under
    /// [`TxnPolicy::Segmented`] fine segments when they move fewer bytes.
    fn price(
        &mut self,
        addrs: &[(u64, u32)],
        line: u64,
        segment: u64,
        policy: TxnPolicy,
    ) -> WarpTxn {
        if addrs.is_empty() {
            return WarpTxn {
                transactions: 0,
                bytes: 0,
            };
        }
        let lines = self.distinct(addrs, line);
        if policy == TxnPolicy::CachedLine {
            return WarpTxn {
                transactions: lines,
                bytes: lines * line,
            };
        }
        let segs = self.distinct(addrs, segment);
        if lines * line <= segs * segment {
            WarpTxn {
                transactions: lines,
                bytes: lines * line,
            }
        } else {
            WarpTxn {
                transactions: segs,
                bytes: segs * segment,
            }
        }
    }

    /// Counts the distinct aligned segments of width `seg` touched by the
    /// given `(addr, bytes)` accesses.
    fn distinct(&mut self, addrs: &[(u64, u32)], seg: u64) -> u64 {
        self.ids.clear();
        for &(a, b) in addrs {
            let first = a / seg;
            let last = (a + u64::from(b.max(1)) - 1) / seg;
            self.ids.push(first);
            if last > first {
                self.ids.extend(first + 1..=last);
            }
        }
        self.ids.sort_unstable();
        self.ids.dedup();
        self.ids.len() as u64
    }
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
    fn one_counter_prices_many_instructions() {
        // The reused buffer must not carry ids from one instruction into
        // the next.
        let mut c = SegmentCounter::default();
        let wide: Vec<(u64, u32)> = (0..32).map(|i| (i * 4096, 16)).collect();
        let narrow = [(0u64, 16u32)];
        assert_eq!(
            c.price(&wide, 128, 32, TxnPolicy::Segmented).transactions,
            32
        );
        let t = c.price(&narrow, 128, 32, TxnPolicy::Segmented);
        assert_eq!((t.transactions, t.bytes), (1, 32));
    }

    #[test]
    fn thread_trace_slots_and_chain() {
        let mut rec = Recorder::new(&DeviceSpec::tesla_k20x());
        rec.record(0, 16, AccessKind::Read);
        rec.record(128, 16, AccessKind::ReadDependent);
        rec.record(256, 16, AccessKind::ReadDependent);
        rec.add_flops(10);
        let pending = rec.pending();
        assert_eq!(pending.len(), 3);
        assert_eq!(pending[0].0, 0);
        assert_eq!(pending[2].0, 2);
        rec.end_lane();
        let tally = rec.finish();
        assert_eq!(tally.chain_sum, 2.0);
        assert_eq!(tally.flops, 10);
        assert_eq!((tally.threads, tally.warps), (1, 1));
    }

    #[test]
    fn accumulator_load_partially_chains() {
        let mut rec = Recorder::new(&DeviceSpec::tesla_k20x());
        for i in 0..8u64 {
            rec.record_acc(i * 64, 16);
        }
        let pending = rec.pending();
        assert_eq!(pending.len(), 8);
        assert!(pending.iter().all(|&(_, _, kind)| kind == AccessKind::Read));
        rec.end_lane();
        assert!((rec.finish().chain_sum - 8.0 / ACC_UNROLL as f64).abs() < 1e-6);
    }

    #[test]
    fn l2_resident_access_uses_a_slot_but_is_not_pending() {
        let mut rec = Recorder::new(&DeviceSpec::tesla_k20x());
        rec.record(0, 16, AccessKind::CachedRead);
        rec.record(4096, 16, AccessKind::Read);
        rec.record(8192, 16, AccessKind::CachedWrite);
        rec.record(0, 4, AccessKind::Atomic);
        assert_eq!(
            rec.pending(),
            vec![(1, 4096, AccessKind::Read), (3, 0, AccessKind::Atomic)]
        );
        rec.end_lane();
        let tally = rec.finish();
        assert_eq!(tally.mem_ops, 2);
        assert_eq!(tally.atomic_addrs, vec![0]);
    }

    #[test]
    fn warp_is_priced_when_its_last_lane_ends() {
        let spec = DeviceSpec::tesla_k20x();
        let mut rec = Recorder::new(&spec);
        for lane in 0..spec.warp_size as u64 {
            rec.record(lane * 16, 16, AccessKind::Read);
            rec.end_lane();
        }
        // The warp has been priced and its scratch emptied.
        assert!(rec.pending().is_empty());
        assert_eq!((rec.tally.warps, rec.tally.transactions), (1, 4));
        rec.record(0, 16, AccessKind::Read);
        assert_eq!(rec.pending(), vec![(0, 0, AccessKind::Read)]);
    }

    #[test]
    fn append_charges_one_cursor_atomic_per_warp_and_stores_by_rank() {
        let spec = DeviceSpec::tesla_k20x();
        let mut rec = Recorder::new(&spec);
        let (cursor, out) = (1 << 20, 1 << 24);
        // Two warps; the odd lanes append after one load each.
        for _ in 0..2 {
            for lane in 0..spec.warp_size as u64 {
                rec.record(lane * 8, 8, AccessKind::Read);
                if lane % 2 == 1 {
                    rec.record_append(cursor, out);
                }
                if lane == 3 {
                    let appends: Vec<_> = rec
                        .pending()
                        .into_iter()
                        .filter(|p| p.2 != AccessKind::Read)
                        .collect();
                    assert_eq!(
                        appends,
                        [
                            (1, cursor, AccessKind::Atomic),
                            (2, out, AccessKind::Write),
                            (2, out + 4, AccessKind::Write),
                        ]
                    );
                }
                rec.end_lane();
            }
        }
        let tally = rec.finish();
        assert_eq!(tally.atomic_addrs, vec![cursor; 2]);
        // Per warp: 32 loads, 1 atomic and 16 stores.
        assert_eq!(tally.mem_ops, 2 * (32 + 1 + 16));
        // Per warp: 2 lines of loads, 1 cursor segment and the 64 B of
        // stores in 2 segments.
        assert_eq!(tally.transactions, 2 * (2 + 1 + 2));
    }

    #[test]
    fn dependent_kind_flag() {
        assert!(AccessKind::ReadDependent.is_dependent());
        assert!(!AccessKind::Read.is_dependent());
        assert!(!AccessKind::ReadOnly.is_dependent());
        assert!(!AccessKind::Write.is_dependent());
    }
}
