//! Device atomics: the simulator's `atomicAdd` family.
//!
//! Four array types cover the paper's kernels:
//!
//! * [`DevAtomicU32`] — vote counters (`score[]` in Algorithm 4).
//! * [`DevAppendU32`] — an output array with its append cursor
//!   (`hits[atomicAdd(&num_hits, 1)]` in Algorithm 4, the fast-selection
//!   output), modelled warp-aggregated so that nothing traced depends on
//!   the cursor's value.
//! * [`DevAtomicF64`] — scalar accumulators.
//! * [`DevAtomicCplx`] — complex accumulation via two f64 CAS loops, the
//!   GPU-histogram bucket update of the *baseline* permutation/filter
//!   kernel (the optimized loop-partition kernel needs no atomics at all,
//!   which is precisely the paper's point).
//!
//! All operations are sequentially-consistent-enough for the algorithms
//! here (we only need atomicity, not ordering); contention statistics are
//! derived from the traced addresses by the executor.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use fft::Cplx;

use crate::buffer::alloc_addr;
use crate::gmem::Gmem;

/// An array of atomically-updatable `u32` cells in device memory.
pub struct DevAtomicU32 {
    cells: Vec<AtomicU32>,
    base_addr: u64,
}

impl DevAtomicU32 {
    /// Allocates `len` zero-initialised cells.
    pub fn zeroed(len: usize) -> Self {
        DevAtomicU32 {
            cells: (0..len).map(|_| AtomicU32::new(0)).collect(),
            base_addr: alloc_addr((len * 4) as u64),
        }
    }

    /// Cell count.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when there are no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// `atomicAdd(&cells[i], v)` — returns the previous value.
    #[inline]
    pub fn fetch_add(&self, gm: &mut Gmem<'_>, i: usize, v: u32) -> u32 {
        gm.note_atomic(self.base_addr + (i * 4) as u64, 4);
        self.cells[i].fetch_add(v, Ordering::Relaxed)
    }

    /// Plain load (still a global read; traced as atomic traffic since it
    /// shares the same path on Kepler).
    #[inline]
    pub fn load(&self, gm: &mut Gmem<'_>, i: usize) -> u32 {
        gm.note_atomic(self.base_addr + (i * 4) as u64, 4);
        self.cells[i].load(Ordering::Relaxed)
    }

    /// Host-side read of every cell (no device traffic charged).
    pub fn snapshot(&self) -> Vec<u32> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Host-side reset of every cell to zero.
    pub fn clear(&self) {
        for c in &self.cells {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// An append-only `u32` output array and its cursor: the compaction idiom
/// `out[atomicAdd(&cursor, 1)] = v`, as compaction kernels run it
/// warp-aggregated. The warp's first appending lane claims the warp's
/// slots with one atomic on the cursor; every appending lane then stores
/// at its rank among them. The trace takes the store's address from that
/// rank, never from the cursor's value, so it does not depend on how host
/// threads interleave blocks. Which cell holds which value does, so the
/// host read returns the values sorted.
pub struct DevAppendU32 {
    cells: Vec<AtomicU32>,
    cursor: AtomicU32,
    base_addr: u64,
    cursor_addr: u64,
}

impl DevAppendU32 {
    /// Allocates room for `capacity` appended values.
    pub fn with_capacity(capacity: usize) -> Self {
        DevAppendU32 {
            cells: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            cursor: AtomicU32::new(0),
            base_addr: alloc_addr((capacity * 4) as u64),
            cursor_addr: alloc_addr(4),
        }
    }

    /// Appends `v`. An append past the capacity advances the cursor but
    /// stores nothing.
    #[inline]
    pub fn push(&self, gm: &mut Gmem<'_>, v: u32) {
        gm.note_append(self.cursor_addr, self.base_addr);
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) as usize;
        if let Some(cell) = self.cells.get(slot) {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Host-side read of the cursor: every append so far, stored or not.
    pub fn claimed(&self) -> usize {
        self.cursor.load(Ordering::Relaxed) as usize
    }

    /// Host-side read of the stored values, sorted.
    pub fn snapshot(&self) -> Vec<u32> {
        let stored = self.claimed().min(self.cells.len());
        let mut v: Vec<u32> = self.cells[..stored]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        v.sort_unstable();
        v
    }
}

/// An array of atomically-updatable `f64` cells (CAS-loop `atomicAdd`,
/// exactly how pre-Pascal CUDA implements double atomics).
pub struct DevAtomicF64 {
    cells: Vec<AtomicU64>,
    base_addr: u64,
}

impl DevAtomicF64 {
    /// Allocates `len` zero-initialised cells.
    pub fn zeroed(len: usize) -> Self {
        DevAtomicF64 {
            cells: (0..len).map(|_| AtomicU64::new(0.0f64.to_bits())).collect(),
            base_addr: alloc_addr((len * 8) as u64),
        }
    }

    /// Cell count.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when there are no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// `atomicAdd(&cells[i], v)` via compare-and-swap.
    pub fn fetch_add(&self, gm: &mut Gmem<'_>, i: usize, v: f64) {
        gm.note_atomic(self.base_addr + (i * 8) as u64, 8);
        let cell = &self.cells[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Host-side read of every cell.
    pub fn snapshot(&self) -> Vec<f64> {
        self.cells
            .iter()
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
            .collect()
    }
}

/// An array of atomically-updatable complex cells: interleaved re/im f64
/// CAS loops. One `fetch_add` counts as a single 16-byte atomic for the
/// contention model (the two component RMWs serialise on the same line).
pub struct DevAtomicCplx {
    re: Vec<AtomicU64>,
    im: Vec<AtomicU64>,
    base_addr: u64,
}

impl DevAtomicCplx {
    /// Allocates `len` zero-initialised complex cells.
    pub fn zeroed(len: usize) -> Self {
        let zero = 0.0f64.to_bits();
        DevAtomicCplx {
            re: (0..len).map(|_| AtomicU64::new(zero)).collect(),
            im: (0..len).map(|_| AtomicU64::new(zero)).collect(),
            base_addr: alloc_addr((len * 16) as u64),
        }
    }

    /// Cell count.
    #[inline]
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// True when there are no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// `atomicAdd(&cells[i], v)` on both components.
    pub fn fetch_add(&self, gm: &mut Gmem<'_>, i: usize, v: Cplx) {
        gm.note_atomic(self.base_addr + (i * 16) as u64, 16);
        add_bits(&self.re[i], v.re);
        add_bits(&self.im[i], v.im);
    }

    /// Shared-memory-style atomic add: functional accumulation with no
    /// DRAM trace (used to model per-block sub-histograms, whose traffic
    /// stays on-chip).
    pub fn fetch_add_untraced(&self, i: usize, v: Cplx) {
        add_bits(&self.re[i], v.re);
        add_bits(&self.im[i], v.im);
    }

    /// Untraced load of one cell (shared-memory read in the merge phase).
    pub fn load_untraced(&self, i: usize) -> Cplx {
        Cplx::new(
            f64::from_bits(self.re[i].load(Ordering::Relaxed)),
            f64::from_bits(self.im[i].load(Ordering::Relaxed)),
        )
    }

    /// Host-side read of every cell.
    pub fn snapshot(&self) -> Vec<Cplx> {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(r, i)| {
                Cplx::new(
                    f64::from_bits(r.load(Ordering::Relaxed)),
                    f64::from_bits(i.load(Ordering::Relaxed)),
                )
            })
            .collect()
    }

    /// Host-side reset to zero.
    pub fn clear(&self) {
        let zero = 0.0f64.to_bits();
        for c in self.re.iter().chain(&self.im) {
            c.store(zero, Ordering::Relaxed);
        }
    }
}

fn add_bits(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_fetch_add_accumulates() {
        let a = DevAtomicU32::zeroed(4);
        let mut gm = Gmem::untraced();
        assert_eq!(a.fetch_add(&mut gm, 1, 5), 0);
        assert_eq!(a.fetch_add(&mut gm, 1, 3), 5);
        assert_eq!(a.load(&mut gm, 1), 8);
        assert_eq!(a.snapshot(), vec![0, 8, 0, 0]);
        a.clear();
        assert_eq!(a.snapshot(), vec![0; 4]);
    }

    #[test]
    fn append_stores_up_to_capacity_and_counts_every_claim() {
        let out = DevAppendU32::with_capacity(2);
        let mut gm = Gmem::untraced();
        for v in [8, 7, 9] {
            out.push(&mut gm, v);
        }
        assert_eq!(out.claimed(), 3);
        assert_eq!(out.snapshot(), vec![7, 8]);
    }

    #[test]
    fn f64_fetch_add_accumulates() {
        let a = DevAtomicF64::zeroed(2);
        let mut gm = Gmem::untraced();
        a.fetch_add(&mut gm, 0, 1.5);
        a.fetch_add(&mut gm, 0, 2.25);
        let s = a.snapshot();
        assert!((s[0] - 3.75).abs() < 1e-12);
        assert_eq!(s[1], 0.0);
    }

    #[test]
    fn cplx_fetch_add_accumulates() {
        let a = DevAtomicCplx::zeroed(3);
        let mut gm = Gmem::untraced();
        a.fetch_add(&mut gm, 2, Cplx::new(1.0, -2.0));
        a.fetch_add(&mut gm, 2, Cplx::new(0.5, 0.5));
        let s = a.snapshot();
        assert!(s[2].dist(Cplx::new(1.5, -1.5)) < 1e-12);
        assert_eq!(s[0], Cplx::new(0.0, 0.0));
        a.clear();
        assert!(a.snapshot()[2].abs() == 0.0);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        use rayon::prelude::*;
        let a = DevAtomicF64::zeroed(1);
        (0..1000usize).into_par_iter().for_each(|_| {
            let mut gm = Gmem::untraced();
            a.fetch_add(&mut gm, 0, 1.0);
        });
        assert_eq!(a.snapshot()[0], 1000.0);
    }

    #[test]
    fn concurrent_u32_adds() {
        use rayon::prelude::*;
        let a = DevAtomicU32::zeroed(8);
        (0..4096usize).into_par_iter().for_each(|i| {
            let mut gm = Gmem::untraced();
            a.fetch_add(&mut gm, i % 8, 1);
        });
        assert!(a.snapshot().iter().all(|&c| c == 512));
    }

    #[test]
    fn traced_atomics_record_kind() {
        use crate::spec::DeviceSpec;
        use crate::trace::{AccessKind, Recorder};
        let a = DevAtomicU32::zeroed(2);
        let mut rec = Recorder::new(&DeviceSpec::tesla_k20x());
        {
            let mut gm = Gmem::traced(&mut rec);
            a.fetch_add(&mut gm, 0, 1);
        }
        let pending = rec.pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].2, AccessKind::Atomic);
        rec.end_lane();
        assert_eq!(rec.finish().atomic_addrs, vec![a.base_addr]);
    }

    #[test]
    fn lens_and_empty() {
        assert_eq!(DevAtomicU32::zeroed(5).len(), 5);
        assert!(DevAtomicU32::zeroed(0).is_empty());
        assert_eq!(DevAtomicF64::zeroed(5).len(), 5);
        assert!(DevAtomicF64::zeroed(0).is_empty());
        assert_eq!(DevAtomicCplx::zeroed(5).len(), 5);
        assert!(DevAtomicCplx::zeroed(0).is_empty());
    }
}
