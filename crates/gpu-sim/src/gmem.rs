//! The global-memory access gateway handed to every kernel thread.
//!
//! Kernels never index device buffers directly; they go through [`Gmem`],
//! which (a) performs the actual load and (b) — for sampled warps — records
//! the address so the coalescing analyzer can charge transactions. For
//! unsampled threads the trace is `None` and the accessors compile down to
//! a bounds-checked slice read, keeping functional execution fast.

use crate::buffer::DeviceBuffer;
use crate::trace::{AccessKind, ThreadTrace};

/// Per-thread memory gateway. Created by the executor; one per thread.
pub struct Gmem<'a> {
    trace: Option<&'a mut ThreadTrace>,
}

impl<'a> Gmem<'a> {
    /// Gateway for an unsampled thread: no recording.
    #[inline]
    pub(crate) fn untraced() -> Self {
        Gmem { trace: None }
    }

    /// Gateway for a sampled thread: accesses are recorded into `trace`.
    #[inline]
    pub(crate) fn traced(trace: &'a mut ThreadTrace) -> Self {
        Gmem { trace: Some(trace) }
    }

    /// True when this thread's accesses are being recorded.
    #[inline]
    pub fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    #[inline]
    fn record(&mut self, addr: u64, bytes: u32, kind: AccessKind) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.record(addr, bytes, kind);
        }
    }

    /// Global load with an address that is independent of prior loads
    /// (e.g. computed from the thread id by *index mapping*).
    #[inline]
    pub fn ld<T: Copy>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        self.record(buf.addr_of(i), std::mem::size_of::<T>() as u32, AccessKind::Read);
        buf.as_slice()[i]
    }

    /// Global load whose address depends on a previous load — a serial
    /// latency chain the hardware cannot overlap (the pattern the paper's
    /// index-mapping optimisation eliminates).
    #[inline]
    pub fn ld_dep<T: Copy>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        self.record(
            buf.addr_of(i),
            std::mem::size_of::<T>() as u32,
            AccessKind::ReadDependent,
        );
        buf.as_slice()[i]
    }

    /// Global load with an independent address whose *result* feeds a
    /// serial accumulator (`acc += signal[idx] * filter[i]`): coalesces
    /// like [`Gmem::ld`] but only partially overlaps in the latency model.
    #[inline]
    pub fn ld_acc<T: Copy>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.record_acc(buf.addr_of(i), std::mem::size_of::<T>() as u32);
        }
        buf.as_slice()[i]
    }

    /// Read-only-cache load (`__ldg`).
    #[inline]
    pub fn ld_ro<T: Copy>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        self.record(
            buf.addr_of(i),
            std::mem::size_of::<T>() as u32,
            AccessKind::ReadOnly,
        );
        buf.as_slice()[i]
    }

    /// L2-resident producer-consumer load: the buffer was written by an
    /// immediately preceding kernel on the same stream and fits in L2
    /// (the caller is responsible for that invariant — the async-layout
    /// code checks the chunk size against [`crate::spec::DeviceSpec::l2_bytes`]).
    #[inline]
    pub fn ld_cached<T: Copy>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        self.record(
            buf.addr_of(i),
            std::mem::size_of::<T>() as u32,
            AccessKind::CachedRead,
        );
        buf.as_slice()[i]
    }

    /// Records the store the executor performs on this thread's behalf
    /// (used by `try_launch_map` for `out[tid] = …`). `cached` marks stores to
    /// L2-resident scratch that is consumed before eviction.
    #[inline]
    pub(crate) fn note_store(&mut self, addr: u64, bytes: u32, cached: bool) {
        self.record(
            addr,
            bytes,
            if cached {
                AccessKind::CachedWrite
            } else {
                AccessKind::Write
            },
        );
    }

    /// Records an atomic RMW (called by the device atomic types).
    #[inline]
    pub(crate) fn note_atomic(&mut self, addr: u64, bytes: u32) {
        self.record(addr, bytes, AccessKind::Atomic);
    }

    /// Reports `n` double-precision floating-point operations.
    #[inline]
    pub fn flops(&mut self, n: u64) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.add_flops(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_gateway_reads_without_recording() {
        let buf = DeviceBuffer::from_host(&[10u64, 20, 30]);
        let mut gm = Gmem::untraced();
        assert!(!gm.is_traced());
        assert_eq!(gm.ld(&buf, 1), 20);
        assert_eq!(gm.ld_dep(&buf, 2), 30);
        assert_eq!(gm.ld_ro(&buf, 0), 10);
        gm.flops(100); // no-op, must not panic
    }

    #[test]
    fn traced_gateway_records_accesses() {
        let buf = DeviceBuffer::from_host(&[1.0f64, 2.0, 3.0, 4.0]);
        let mut tr = ThreadTrace::default();
        {
            let mut gm = Gmem::traced(&mut tr);
            assert!(gm.is_traced());
            let _ = gm.ld(&buf, 0);
            let _ = gm.ld_dep(&buf, 2);
            let _ = gm.ld_ro(&buf, 3);
            gm.flops(7);
        }
        assert_eq!(tr.accesses.len(), 3);
        assert_eq!(tr.accesses[0].kind, AccessKind::Read);
        assert_eq!(tr.accesses[0].addr, buf.addr_of(0));
        assert_eq!(tr.accesses[1].kind, AccessKind::ReadDependent);
        assert_eq!(tr.accesses[1].addr, buf.addr_of(2));
        assert_eq!(tr.accesses[2].kind, AccessKind::ReadOnly);
        assert_eq!(tr.chain_len, 1.0);
        assert_eq!(tr.flops, 7);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_load_panics() {
        let buf = DeviceBuffer::from_host(&[1u8]);
        let mut gm = Gmem::untraced();
        let _ = gm.ld(&buf, 5);
    }
}
