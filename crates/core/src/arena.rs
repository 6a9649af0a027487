//! Per-worker execution arena: the typed buffer pools behind
//! allocation-free steady-state serving.
//!
//! Every device-resident scratch buffer the pipeline acquires per request
//! — bucket rows, async staging chunks, magnitude vectors, reconstruction
//! values, request signals — goes through one of these pools.
//! The first request of a group populates them (ordinary tracked
//! allocations, charged against the device `MemPool` and subject to the
//! allocation fault gate); subsequent same-shape acquisitions are free-list
//! hits with **zero** `MemPool` traffic and no fault gate, which is the
//! invariant `tests/steady_state_alloc.rs` pins via `MemPool::alloc_ops`.
//!
//! Determinism: the serving layer calls [`ExecArena::reset`] at every
//! group boundary, so a group's hit/miss pattern (and therefore its fault
//! ordinal sequence) is a pure function of the group itself — never of
//! which worker ran it or what ran before on the same worker. Reports stay
//! bit-identical across worker counts and pool widths.

use fft::cplx::Cplx;
use gpu_sim::{BufferPool, BufferPoolStats};

/// The typed buffer pools one worker (or one single-shot execution)
/// recycles across `prepare`/`run_batched_ffts`/`finish`.
#[derive(Debug, Clone, Default)]
pub struct ExecArena {
    /// Complex scratch: request signals, bucket rows, async staging
    /// chunks and partials, reconstruction values.
    pub cplx: BufferPool<Cplx>,
    /// Real scratch: bucket magnitude vectors.
    pub f64s: BufferPool<f64>,
}

/// Aggregated hit/miss counters across an arena's pools.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Acquisitions satisfied from a free list.
    pub reuse_hits: u64,
    /// Acquisitions that fell through to a fresh tracked allocation.
    pub fresh_misses: u64,
}

impl ArenaStats {
    fn add(&mut self, s: BufferPoolStats) {
        self.reuse_hits += s.reuse_hits;
        self.fresh_misses += s.fresh_misses;
    }
}

impl ExecArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every idle buffer in every pool (their `MemPool`
    /// reservations are released). Called at group boundaries so pool
    /// state never leaks across groups.
    pub fn reset(&self) {
        self.cplx.clear();
        self.f64s.clear();
    }

    /// Cumulative hit/miss counters summed over the typed pools.
    pub fn stats(&self) -> ArenaStats {
        let mut s = ArenaStats::default();
        s.add(self.cplx.stats());
        s.add(self.f64s.stats());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, GpuDevice, DEFAULT_STREAM};

    #[test]
    fn arena_stats_aggregate_across_typed_pools() {
        let device = GpuDevice::new(DeviceSpec::test_tiny());
        let arena = ExecArena::new();
        let a = device
            .try_alloc_zeroed_pooled(&arena.cplx, 16, DEFAULT_STREAM)
            .unwrap();
        drop(a);
        let _b = device
            .try_alloc_zeroed_pooled(&arena.cplx, 16, DEFAULT_STREAM)
            .unwrap();
        let _c = device
            .try_alloc_zeroed_pooled(&arena.f64s, 8, DEFAULT_STREAM)
            .unwrap();
        assert_eq!(
            arena.stats(),
            ArenaStats {
                reuse_hits: 1,
                fresh_misses: 2,
            }
        );
        arena.reset();
        assert_eq!(arena.cplx.idle(), 0);
    }
}
