//! Device memory buffers.
//!
//! A [`DeviceBuffer`] owns its storage (a host `Vec` standing in for device
//! DRAM) plus a synthetic base address used by the coalescing analyzer.
//! Rust ownership gives us for free what CUDA programmers enforce by
//! convention: a buffer cannot be freed while a kernel borrows it, and
//! host code cannot read it without an explicit device-to-host copy.
//!
//! Allocations made through a device's fallible entry points
//! (`GpuDevice::try_alloc_zeroed` and friends) are charged against a
//! [`MemPool`] sized from `DeviceSpec::global_mem_bytes` (6 GB on the
//! paper's K20x) and release their reservation on `Drop` — so device
//! memory is bounded and OOM is a *typed* error, not an impossibility.
//! Direct `DeviceBuffer::zeroed`/`from_host` construction stays untracked
//! for plan setup and tests that do not model residency.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::GpuError;

/// Allocator for synthetic device addresses. Buffers get disjoint,
/// 256-byte-aligned address ranges so the transaction analyzer never
/// conflates accesses to different buffers.
static NEXT_ADDR: AtomicU64 = AtomicU64::new(0x1000);

pub(crate) fn alloc_addr(bytes: u64) -> u64 {
    let aligned = (bytes + 255) & !255;
    NEXT_ADDR.fetch_add(aligned.max(256), Ordering::Relaxed)
}

/// Device DRAM accounting: a capacity and the bytes currently reserved.
///
/// Shared (via `Arc`) between a `GpuDevice` and every tracked
/// [`DeviceBuffer`] it allocated; buffers release their reservation on
/// `Drop`, so `used()` always reflects live allocations only.
#[derive(Debug)]
pub struct MemPool {
    capacity: u64,
    used: AtomicU64,
    /// Successful reservations since creation (monotonic). Together with
    /// `release_ops` this makes "zero pool traffic per request after
    /// warmup" a testable invariant: a steady-state hot path must leave
    /// both counters unchanged across a request.
    alloc_ops: AtomicU64,
    /// Reservation releases since creation (monotonic).
    release_ops: AtomicU64,
}

impl MemPool {
    /// A pool of `capacity` bytes (from `DeviceSpec::global_mem_bytes`).
    pub fn new(capacity: u64) -> Self {
        MemPool {
            capacity,
            used: AtomicU64::new(0),
            alloc_ops: AtomicU64::new(0),
            release_ops: AtomicU64::new(0),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently reserved by live tracked buffers.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Bytes still available.
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used())
    }

    /// Reserves `bytes` (rounded up to the 256-byte allocation granule),
    /// or reports a typed OOM without changing the accounting.
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_reserve(&self, bytes: u64) -> Result<u64, GpuError> {
        let granule = ((bytes + 255) & !255).max(256);
        // CAS loop: never lets `used` exceed `capacity`, even under
        // concurrent allocation from several serve workers.
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let new = cur.saturating_add(granule);
            if new > self.capacity {
                return Err(GpuError::OutOfMemory {
                    requested: granule,
                    free: self.capacity.saturating_sub(cur),
                    capacity: self.capacity,
                });
            }
            match self
                .used
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.alloc_ops.fetch_add(1, Ordering::Relaxed);
                    return Ok(granule);
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Successful reservations since creation. Failed reservations (typed
    /// OOM) do not count: they changed no accounting.
    pub fn alloc_ops(&self) -> u64 {
        self.alloc_ops.load(Ordering::Relaxed)
    }

    /// Reservation releases since creation.
    pub fn release_ops(&self) -> u64 {
        self.release_ops.load(Ordering::Relaxed)
    }

    fn release(&self, granule: u64) {
        self.used.fetch_sub(granule, Ordering::Relaxed);
        self.release_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns a granule obtained from [`MemPool::try_reserve`]. For
    /// callers holding raw reservations (the fleet router's predicted
    /// working sets) rather than a [`DeviceBuffer`], whose drop releases
    /// automatically.
    pub fn release_reservation(&self, granule: u64) {
        self.release(granule);
    }
}

/// A typed allocation in simulated device memory.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    data: Vec<T>,
    base_addr: u64,
    /// Present on buffers allocated through a device's tracked `try_*`
    /// APIs: the pool to credit on drop and the reserved granule size.
    reservation: Option<(Arc<MemPool>, u64)>,
}

impl<T> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        if let Some((pool, granule)) = self.reservation.take() {
            pool.release(granule);
        }
    }
}

impl<T: Copy + Default> DeviceBuffer<T> {
    /// Allocates a zero/default-initialised buffer of `len` elements.
    ///
    /// Untracked: no capacity check, no pool accounting. Device-resident
    /// working memory should go through `GpuDevice::try_alloc_zeroed`.
    pub fn zeroed(len: usize) -> Self {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        DeviceBuffer {
            data: vec![T::default(); len],
            base_addr: alloc_addr(bytes),
            reservation: None,
        }
    }

    /// Allocates a zeroed buffer charged against `pool`, failing with a
    /// typed [`GpuError::OutOfMemory`] when the device is full.
    pub fn zeroed_in(len: usize, pool: &Arc<MemPool>) -> Result<Self, GpuError> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let granule = pool.try_reserve(bytes)?;
        Ok(DeviceBuffer {
            data: vec![T::default(); len],
            base_addr: alloc_addr(bytes),
            reservation: Some((Arc::clone(pool), granule)),
        })
    }
}

impl<T: Copy> DeviceBuffer<T> {
    /// Allocates a buffer holding a copy of `host` (the data movement cost
    /// is charged by [`crate::device::GpuDevice::try_htod`]).
    ///
    /// Untracked; see [`DeviceBuffer::zeroed`] for the distinction.
    pub fn from_host(host: &[T]) -> Self {
        let bytes = std::mem::size_of_val(host) as u64;
        DeviceBuffer {
            data: host.to_vec(),
            base_addr: alloc_addr(bytes),
            reservation: None,
        }
    }

    /// Like [`DeviceBuffer::from_host`] but charged against `pool`.
    pub fn from_host_in(host: &[T], pool: &Arc<MemPool>) -> Result<Self, GpuError> {
        let bytes = std::mem::size_of_val(host) as u64;
        let granule = pool.try_reserve(bytes)?;
        Ok(DeviceBuffer {
            data: host.to_vec(),
            base_addr: alloc_addr(bytes),
            reservation: Some((Arc::clone(pool), granule)),
        })
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<T>() * self.data.len()
    }

    /// Synthetic device base address (for the transaction analyzer).
    #[inline]
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Byte address of element `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> u64 {
        self.base_addr + (i * std::mem::size_of::<T>()) as u64
    }

    /// Read-only view for kernels (access it through
    /// [`crate::gmem::Gmem`] so traffic is accounted).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view — used by the executor for `try_launch_map` outputs; not
    /// normally touched by user code.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Copies device contents back to a fresh host vector *without* going
    /// through the device (test/debug helper; benchmark code should use
    /// [`crate::device::GpuDevice::try_dtoh`] so PCIe time is charged).
    pub fn peek(&self) -> Vec<T> {
        self.data.clone()
    }
}

impl<T> AsRef<DeviceBuffer<T>> for DeviceBuffer<T> {
    fn as_ref(&self) -> &DeviceBuffer<T> {
        self
    }
}

/// Snapshot of a [`BufferPool`]'s recycling behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Acquisitions satisfied from the free list — no `MemPool` traffic,
    /// no allocation fault gate.
    pub reuse_hits: u64,
    /// Acquisitions that fell through to a fresh tracked allocation.
    pub fresh_misses: u64,
}

#[derive(Debug)]
struct PoolShared<T> {
    /// Idle buffers keyed by exact element count. Acquisition pops the
    /// most recently returned buffer of that length, so the free-list
    /// state is a pure function of the acquire/release call sequence —
    /// never of thread timing (callers serialize per pool handle).
    free: Mutex<HashMap<usize, Vec<DeviceBuffer<T>>>>,
    reuse_hits: AtomicU64,
    fresh_misses: AtomicU64,
}

/// A recycling pool of *tracked* device buffers, keyed by exact element
/// count.
///
/// This is the arena primitive behind allocation-free steady-state
/// serving: the first acquisition of each shape allocates through the
/// device's fallible entry points (charged against the [`MemPool`],
/// subject to the allocation fault gate), and every buffer returns to
/// the pool on [`PooledBuffer`] drop instead of releasing its
/// reservation. A warmed pool therefore satisfies a steady-state
/// workload with **zero** `MemPool` traffic — the invariant the serve
/// layer's zero-allocation test pins via [`MemPool::alloc_ops`].
///
/// Reuse hits roll *no* allocation fault gate: pooling models exactly
/// the removal of per-request `cudaMalloc`, which is where injected OOM
/// lives. Fault-decision sequences stay deterministic because the serve
/// layer resets pools at group boundaries, making each group's
/// hit/miss pattern a pure function of the group itself.
#[derive(Debug)]
pub struct BufferPool<T> {
    shared: Arc<PoolShared<T>>,
}

impl<T> Clone for BufferPool<T> {
    fn clone(&self) -> Self {
        BufferPool {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BufferPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool {
            shared: Arc::new(PoolShared {
                free: Mutex::new(HashMap::new()),
                reuse_hits: AtomicU64::new(0),
                fresh_misses: AtomicU64::new(0),
            }),
        }
    }

    fn take(&self, len: usize) -> Option<DeviceBuffer<T>> {
        self.shared.free.lock().get_mut(&len).and_then(Vec::pop)
    }

    fn wrap(&self, buf: DeviceBuffer<T>) -> PooledBuffer<T> {
        PooledBuffer {
            inner: Some(buf),
            home: Arc::clone(&self.shared),
        }
    }

    /// Adopts an already-allocated tracked buffer into the pool's
    /// recycling discipline (it will return to the free list on drop).
    pub fn adopt(&self, buf: DeviceBuffer<T>) -> PooledBuffer<T> {
        self.wrap(buf)
    }

    /// Drops every idle buffer — their `MemPool` reservations are
    /// released — leaving the hit/miss counters intact. The serve layer
    /// calls this at group boundaries so pool state never leaks across
    /// groups (which would make fault ordinals depend on sharding).
    pub fn clear(&self) {
        self.shared.free.lock().clear();
    }

    /// Number of idle buffers currently parked in the free list.
    pub fn idle(&self) -> usize {
        self.shared.free.lock().values().map(Vec::len).sum()
    }

    /// Hit/miss counters since creation.
    pub fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            reuse_hits: self.shared.reuse_hits.load(Ordering::Relaxed),
            fresh_misses: self.shared.fresh_misses.load(Ordering::Relaxed),
        }
    }

    fn count_hit(&self) {
        self.shared.reuse_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a fall-through to a fresh allocation. Exposed so device
    /// helpers that allocate on the pool's behalf keep the counters
    /// truthful.
    pub(crate) fn count_miss(&self) {
        self.shared.fresh_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Reuses an idle buffer of exactly `len` elements, zero-filled, or
    /// reports `None` so the caller can allocate through the device. A
    /// hit touches no `MemPool` accounting and rolls no fault gate.
    pub fn reuse_zeroed(&self, len: usize) -> Option<PooledBuffer<T>>
    where
        T: Copy + Default,
    {
        let mut buf = self.take(len)?;
        self.count_hit();
        buf.as_mut_slice().fill(T::default());
        Some(self.wrap(buf))
    }

    /// Reuses an idle buffer of exactly `host.len()` elements,
    /// overwritten with `host`'s contents, or reports `None`. A hit
    /// touches no `MemPool` accounting and rolls no fault gate.
    pub fn reuse_resident(&self, host: &[T]) -> Option<PooledBuffer<T>>
    where
        T: Copy,
    {
        let mut buf = self.take(host.len())?;
        self.count_hit();
        buf.as_mut_slice().copy_from_slice(host);
        Some(self.wrap(buf))
    }
}

/// A tracked device buffer on loan from a [`BufferPool`]: derefs to
/// [`DeviceBuffer`] and returns to the pool's free list on drop (its
/// `MemPool` reservation stays alive for the next acquisition).
#[derive(Debug)]
pub struct PooledBuffer<T> {
    /// `Some` until drop. The option exists only so `Drop` can move the
    /// buffer back into the free list.
    inner: Option<DeviceBuffer<T>>,
    home: Arc<PoolShared<T>>,
}

impl<T> Deref for PooledBuffer<T> {
    type Target = DeviceBuffer<T>;

    fn deref(&self) -> &DeviceBuffer<T> {
        self.inner.as_ref().expect("pooled buffer present until drop")
    }
}

impl<T> DerefMut for PooledBuffer<T> {
    fn deref_mut(&mut self) -> &mut DeviceBuffer<T> {
        self.inner.as_mut().expect("pooled buffer present until drop")
    }
}

impl<T> AsRef<DeviceBuffer<T>> for PooledBuffer<T> {
    fn as_ref(&self) -> &DeviceBuffer<T> {
        self
    }
}

impl<T> Drop for PooledBuffer<T> {
    fn drop(&mut self) {
        if let Some(buf) = self.inner.take() {
            let len = buf.data.len();
            self.home.free.lock().entry(len).or_default().push(buf);
        }
    }
}

/// Snapshot of a [`StandbySlabs`]' failover traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StandbyStats {
    /// Total slots reserved at build.
    pub slots: usize,
    /// Slots currently on loan.
    pub in_use: usize,
    /// Successful acquisitions (free-list pops; no `MemPool` traffic).
    pub acquires: u64,
    /// Slot returns.
    pub releases: u64,
    /// Acquisition attempts that found the free list empty.
    pub exhausted: u64,
    /// High-water mark of simultaneously loaned slots.
    pub peak_in_use: u64,
}

/// Fixed-slot standby reservation for fleet failover, in the style of
/// wasmtime's pooling allocator: every slot's device memory is reserved
/// from the member's [`MemPool`] **when the fleet is built**, and a
/// failover acquires a slot by popping an index off a free list —
/// no `MemPool` traffic, no allocation fault gate, no hot-path
/// allocation of any kind. If the free list is empty the acquisition
/// fails loudly (`None`) and the caller falls back to the CPU tier;
/// standby capacity is a provisioning decision, never an emergency
/// allocation.
#[derive(Debug)]
pub struct StandbySlabs {
    pool: Arc<MemPool>,
    /// Granule actually reserved per slot (256-byte aligned request).
    slot_granule: u64,
    slots: usize,
    /// LIFO free list of slot indices. The list state is a pure function
    /// of the acquire/release call sequence (the fleet coordinator
    /// serializes calls in gid order), so which slot a failover lands on
    /// is deterministic.
    free: Mutex<Vec<usize>>,
    acquires: AtomicU64,
    releases: AtomicU64,
    exhausted: AtomicU64,
    peak_in_use: AtomicU64,
}

impl StandbySlabs {
    /// Reserves `slots` standby slabs of `slot_bytes` each against
    /// `pool`, or reports a typed OOM (after releasing any partial
    /// reservation) when the member cannot hold its standby budget.
    pub fn new(pool: &Arc<MemPool>, slots: usize, slot_bytes: u64) -> Result<Self, GpuError> {
        let mut reserved = Vec::with_capacity(slots);
        for _ in 0..slots {
            match pool.try_reserve(slot_bytes) {
                Ok(granule) => reserved.push(granule),
                Err(e) => {
                    for granule in reserved {
                        pool.release(granule);
                    }
                    return Err(e);
                }
            }
        }
        let slot_granule = reserved.first().copied().unwrap_or(0);
        // Free list starts as [slots-1, …, 0] so the first acquisition
        // takes slot 0 — a fixed, documented order.
        let free: Vec<usize> = (0..slots).rev().collect();
        Ok(StandbySlabs {
            pool: Arc::clone(pool),
            slot_granule,
            slots,
            free: Mutex::new(free),
            acquires: AtomicU64::new(0),
            releases: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
            peak_in_use: AtomicU64::new(0),
        })
    }

    /// Acquires a standby slot — a free-list pop, no allocation. `None`
    /// when every slot is on loan (counted in [`StandbyStats::exhausted`]).
    pub fn acquire(&self) -> Option<usize> {
        let mut free = self.free.lock();
        match free.pop() {
            Some(slot) => {
                self.acquires.fetch_add(1, Ordering::Relaxed);
                let in_use = (self.slots - free.len()) as u64;
                self.peak_in_use.fetch_max(in_use, Ordering::Relaxed);
                Some(slot)
            }
            None => {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Returns a slot to the free list.
    ///
    /// # Panics
    /// When `slot` is out of range or already free — both indicate a
    /// bookkeeping bug in the caller, not a runtime condition.
    pub fn release(&self, slot: usize) {
        assert!(slot < self.slots, "standby slot {slot} out of range");
        let mut free = self.free.lock();
        assert!(
            !free.contains(&slot),
            "standby slot {slot} released twice"
        );
        free.push(slot);
        self.releases.fetch_add(1, Ordering::Relaxed);
    }

    /// Traffic counters since build.
    pub fn stats(&self) -> StandbyStats {
        StandbyStats {
            slots: self.slots,
            in_use: self.slots - self.free.lock().len(),
            acquires: self.acquires.load(Ordering::Relaxed),
            releases: self.releases.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
            peak_in_use: self.peak_in_use.load(Ordering::Relaxed),
        }
    }
}

impl Drop for StandbySlabs {
    fn drop(&mut self) {
        for _ in 0..self.slots {
            self.pool.release(self.slot_granule);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_buffer() {
        let b: DeviceBuffer<f64> = DeviceBuffer::zeroed(100);
        assert_eq!(b.len(), 100);
        assert!(!b.is_empty());
        assert_eq!(b.size_bytes(), 800);
        assert!(b.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_host_copies() {
        let host = vec![1u32, 2, 3];
        let b = DeviceBuffer::from_host(&host);
        assert_eq!(b.peek(), host);
    }

    #[test]
    fn distinct_buffers_do_not_overlap() {
        let a: DeviceBuffer<f64> = DeviceBuffer::zeroed(64);
        let b: DeviceBuffer<f64> = DeviceBuffer::zeroed(64);
        let a_end = a.base_addr() + a.size_bytes() as u64;
        let b_end = b.base_addr() + b.size_bytes() as u64;
        assert!(a_end <= b.base_addr() || b_end <= a.base_addr());
    }

    #[test]
    fn addr_of_is_linear() {
        let b: DeviceBuffer<u64> = DeviceBuffer::zeroed(16);
        assert_eq!(b.addr_of(0), b.base_addr());
        assert_eq!(b.addr_of(3), b.base_addr() + 24);
    }

    #[test]
    fn empty_buffer() {
        let b: DeviceBuffer<u8> = DeviceBuffer::zeroed(0);
        assert!(b.is_empty());
        assert_eq!(b.size_bytes(), 0);
    }

    #[test]
    fn pool_accounts_and_releases() {
        let pool = Arc::new(MemPool::new(4096));
        assert_eq!(pool.free(), 4096);
        let a: DeviceBuffer<u8> = DeviceBuffer::zeroed_in(300, &pool).unwrap();
        // 300 B rounds up to the 512 B granule.
        assert_eq!(pool.used(), 512);
        assert_eq!(pool.free(), 4096 - 512);
        drop(a);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn pool_oom_is_typed() {
        let pool = Arc::new(MemPool::new(1024));
        let _a: DeviceBuffer<u8> = DeviceBuffer::zeroed_in(800, &pool).unwrap();
        let err = DeviceBuffer::<u8>::zeroed_in(800, &pool).unwrap_err();
        match err {
            GpuError::OutOfMemory {
                requested,
                free,
                capacity,
            } => {
                assert_eq!(requested, 1024);
                assert_eq!(free, 0);
                assert_eq!(capacity, 1024);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
        // Failed reservation leaves accounting untouched.
        assert_eq!(pool.used(), 1024);
    }

    #[test]
    fn zero_len_alloc_still_reserves_a_granule() {
        let pool = Arc::new(MemPool::new(1024));
        let b: DeviceBuffer<u8> = DeviceBuffer::zeroed_in(0, &pool).unwrap();
        assert_eq!(pool.used(), 256);
        drop(b);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn from_host_in_tracks() {
        let pool = Arc::new(MemPool::new(1024));
        let host = vec![1u32, 2, 3];
        let b = DeviceBuffer::from_host_in(&host, &pool).unwrap();
        assert_eq!(b.peek(), host);
        assert_eq!(pool.used(), 256);
    }

    #[test]
    fn mem_pool_counts_alloc_and_release_ops() {
        let pool = Arc::new(MemPool::new(4096));
        assert_eq!((pool.alloc_ops(), pool.release_ops()), (0, 0));
        let a: DeviceBuffer<u8> = DeviceBuffer::zeroed_in(100, &pool).unwrap();
        let b: DeviceBuffer<u8> = DeviceBuffer::zeroed_in(100, &pool).unwrap();
        assert_eq!((pool.alloc_ops(), pool.release_ops()), (2, 0));
        drop(a);
        assert_eq!((pool.alloc_ops(), pool.release_ops()), (2, 1));
        // A failed reservation counts nothing.
        assert!(DeviceBuffer::<u8>::zeroed_in(8192, &pool).is_err());
        assert_eq!((pool.alloc_ops(), pool.release_ops()), (2, 1));
        drop(b);
        assert_eq!((pool.alloc_ops(), pool.release_ops()), (2, 2));
    }

    #[test]
    fn buffer_pool_recycles_without_mem_pool_traffic() {
        let mem = Arc::new(MemPool::new(4096));
        let pool: BufferPool<f64> = BufferPool::new();
        // Miss: allocate through the tracked path, then adopt.
        assert!(pool.reuse_zeroed(8).is_none());
        pool.count_miss();
        let buf = pool.adopt(DeviceBuffer::zeroed_in(8, &mem).unwrap());
        let alloc_before = mem.alloc_ops();
        drop(buf); // returns to the free list — reservation stays alive
        assert_eq!(mem.release_ops(), 0);
        assert_eq!(pool.idle(), 1);
        // Hit: same length, zero-filled, no MemPool traffic.
        let mut again = pool.reuse_zeroed(8).expect("free-list hit");
        assert_eq!(mem.alloc_ops(), alloc_before);
        assert!(again.as_slice().iter().all(|&x| x == 0.0));
        again.as_mut_slice()[0] = 7.0;
        drop(again);
        // Wrong length misses; `reuse_resident` overwrites stale data.
        assert!(pool.reuse_zeroed(16).is_none());
        let host = [1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let res = pool.reuse_resident(&host).expect("free-list hit");
        assert_eq!(res.as_slice(), &host);
        drop(res);
        assert_eq!(
            pool.stats(),
            BufferPoolStats {
                reuse_hits: 2,
                fresh_misses: 1,
            }
        );
        // clear() finally releases the reservations.
        pool.clear();
        assert_eq!(pool.idle(), 0);
        assert_eq!(mem.used(), 0);
        assert_eq!(mem.release_ops(), 1);
    }

    #[test]
    fn standby_slabs_reserve_at_build_and_acquire_without_traffic() {
        let mem = Arc::new(MemPool::new(8192));
        let slabs = StandbySlabs::new(&mem, 3, 1024).unwrap();
        // All standby memory is reserved up front.
        assert_eq!(mem.used(), 3 * 1024);
        let alloc_at_build = mem.alloc_ops();
        assert_eq!(alloc_at_build, 3);
        // Acquisition order is fixed (slot 0 first) and touches no pool.
        assert_eq!(slabs.acquire(), Some(0));
        assert_eq!(slabs.acquire(), Some(1));
        assert_eq!(slabs.acquire(), Some(2));
        assert_eq!(slabs.acquire(), None, "exhausted fleet fails loudly");
        assert_eq!(mem.alloc_ops(), alloc_at_build);
        assert_eq!(mem.release_ops(), 0);
        slabs.release(1);
        assert_eq!(slabs.acquire(), Some(1), "LIFO reuse of returned slots");
        let stats = slabs.stats();
        assert_eq!(stats.slots, 3);
        assert_eq!(stats.in_use, 3);
        assert_eq!(stats.acquires, 4);
        assert_eq!(stats.releases, 1);
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.peak_in_use, 3);
        // Dropping the slabs returns the reservation to the pool.
        drop(slabs);
        assert_eq!(mem.used(), 0);
        assert_eq!(mem.release_ops(), 3);
    }

    #[test]
    fn standby_slabs_oom_is_typed_and_leak_free() {
        let mem = Arc::new(MemPool::new(2048));
        let err = StandbySlabs::new(&mem, 3, 1024).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
        // The partial reservation was rolled back.
        assert_eq!(mem.used(), 0);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn standby_double_release_panics() {
        let mem = Arc::new(MemPool::new(8192));
        let slabs = StandbySlabs::new(&mem, 2, 256).unwrap();
        let s = slabs.acquire().unwrap();
        slabs.release(s);
        slabs.release(s);
    }
}
