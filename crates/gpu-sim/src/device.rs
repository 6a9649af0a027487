//! The simulated device: kernel launches, transfers, streams, and the
//! simulated clock.
//!
//! Kernels execute *functionally* on the host — thread-block chunks run
//! concurrently on the shared work-stealing pool behind the vendored
//! `rayon` (sized by `CUSFFT_HOST_THREADS`; `=1` is the sequential
//! path) — while a sampled subset of blocks is traced for the cost
//! model. Two launch shapes cover every kernel in the paper:
//!
//! * [`GpuDevice::try_launch_map`] — thread `tid` computes
//!   `out[tid] = f(tid)`. Safe scatter-free writes; the pool splits the
//!   output into disjoint per-block chunks.
//! * [`GpuDevice::try_launch_foreach`] — threads read global memory and
//!   update [`crate::atomic`] arrays; no plain writes. This is the
//!   histogram / voting shape.
//!
//! # Determinism under host parallelism
//!
//! Results and the analytic cost timeline are **bit-identical across
//! pool sizes** (and to sequential execution) by construction:
//!
//! * blocks write disjoint output chunks or go through the atomic cells;
//! * trace sampling is keyed on `block_idx` (`block_idx % sample_every`),
//!   not on which thread ran the block;
//! * `par_*` collects block traces positionally, so `finish_launch`
//!   aggregates them in block order no matter the completion order;
//! * every launch appends exactly one [`Op`] under the state lock after
//!   all blocks finish, so op order is the enqueue order.
//!
//! Every launch and transfer appends an [`Op`] with its modelled duration
//! to the timeline; [`GpuDevice::elapsed`] replays the stream schedule and
//! returns the simulated makespan.
//!
//! # Faults
//!
//! Every fallible entry point (`try_*`) consults the device's installed
//! [`FaultConfig`] (if any) *before* doing the work: a failed launch
//! executes no blocks and a failed transfer moves no data, so retrying
//! after a fault never double-applies side effects (atomics included).
//! Injected faults are recorded as timeline ops (`fault:<kind>:<name>`)
//! charging the time the failure wasted. Tracked allocations are charged
//! against a [`MemPool`] sized from `DeviceSpec::global_mem_bytes`, so
//! OOM can also happen for real.

use std::sync::Arc;

use parking_lot::Mutex;
use rayon::prelude::*;

use crate::buffer::{BufferPool, DeviceBuffer, MemPool, PooledBuffer};
use crate::cost::{bound_by, kernel_cost, transfer_time, KernelCost};
use crate::error::{GpuError, TransferDir};
use crate::fault::{FaultClass, FaultConfig, FaultState, SdcTarget};
use crate::gmem::Gmem;
use crate::launch::{LaunchConfig, ThreadCtx};
use crate::metrics::{aggregate, KernelStats};
use crate::spec::DeviceSpec;
use crate::timeline::{schedule, Engine, Op, StreamId};
use crate::trace::ThreadTrace;

/// Upper bound on traced threads per launch — keeps tracing overhead flat
/// regardless of problem size.
const MAX_SAMPLED_THREADS: u64 = 1 << 14;

/// One completed launch (or transfer), for profiler reports.
#[derive(Debug, Clone)]
pub struct LaunchRecord {
    /// Kernel or transfer label.
    pub name: String,
    /// Aggregated statistics (empty for transfers).
    pub stats: KernelStats,
    /// Modelled cost breakdown.
    pub cost: KernelCost,
    /// Stream the op ran on.
    pub stream: StreamId,
    /// Dominant resource ("bandwidth" / "latency" / "compute" / "atomic" /
    /// "pcie").
    pub bound: &'static str,
}

/// The default stream.
pub const DEFAULT_STREAM: StreamId = StreamId(0);

/// A recorded event: completion of everything enqueued on a stream at
/// record time (CUDA `cudaEventRecord`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId(usize);

struct DeviceState {
    ops: Vec<Op>,
    records: Vec<LaunchRecord>,
    next_stream: u32,
    /// Recorded events: the op id each event marks (None when the stream
    /// was empty at record time — an already-satisfied event).
    events: Vec<Option<usize>>,
    /// Event waits registered per stream, attached to that stream's next
    /// enqueued op (CUDA `cudaStreamWaitEvent`).
    pending_waits: Vec<(StreamId, usize)>,
    /// Installed fault plan, if any. Lives under the state lock so fault
    /// ordinals are consumed in op-enqueue order.
    fault: Option<FaultState>,
    /// Fault-domain salt XOR-ed into every scope passed to
    /// [`GpuDevice::set_fault_scope`]. 0 = no salt. The fleet layer sets
    /// a per-member salt in the high bits (≥ 44, disjoint from the
    /// serving layer's group/retry scope layout) so the same group rolls
    /// an independent fault timeline on each device it lands on.
    fault_scope_salt: u64,
    /// Current attribution tag stamped onto every enqueued op (see
    /// [`Op::tag`]). 0 = untagged.
    op_tag: u64,
}

/// A simulated CUDA device.
pub struct GpuDevice {
    spec: DeviceSpec,
    /// Device DRAM accounting for tracked allocations.
    pool: Arc<MemPool>,
    state: Mutex<DeviceState>,
}

impl GpuDevice {
    /// Creates a device with the given spec.
    pub fn new(spec: DeviceSpec) -> Self {
        let pool = Arc::new(MemPool::new(spec.global_mem_bytes as u64));
        GpuDevice {
            spec,
            pool,
            state: Mutex::new(DeviceState {
                ops: Vec::new(),
                records: Vec::new(),
                next_stream: 1,
                events: Vec::new(),
                pending_waits: Vec::new(),
                fault: None,
                fault_scope_salt: 0,
                op_tag: 0,
            }),
        }
    }

    /// Creates the paper's test-bench device (Tesla K20x).
    pub fn k20x() -> Self {
        Self::new(DeviceSpec::tesla_k20x())
    }

    /// Creates a device with `config`'s fault plan pre-installed (`None`
    /// provisions a clean device). The serving layer's execution backends
    /// route every device they construct through this, so provisioning
    /// has a single audited entry point.
    pub fn with_fault_plan(spec: DeviceSpec, config: Option<FaultConfig>) -> Self {
        let device = Self::new(spec);
        if let Some(fc) = config {
            device.install_fault_plan(fc);
        }
        device
    }

    /// Device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Installs a deterministic fault plan: subsequent `try_*` calls roll
    /// against it. Replaces any previous plan and resets its counters.
    pub fn install_fault_plan(&self, config: FaultConfig) {
        self.state.lock().fault = Some(FaultState::new(config));
    }

    /// Removes the fault plan; `try_*` calls stop faulting.
    pub fn clear_fault_plan(&self) {
        self.state.lock().fault = None;
    }

    /// Enters fault scope `scope` (see `crate::fault`): fault decisions
    /// become a pure function of `(seed, scope, op ordinal within the
    /// scope)`, independent of what ran on this device before. No-op
    /// without an installed plan.
    pub fn set_fault_scope(&self, scope: u64) {
        let mut st = self.state.lock();
        let salt = st.fault_scope_salt;
        if let Some(f) = st.fault.as_mut() {
            f.set_scope(scope ^ salt);
        }
    }

    /// Installs a fault-domain salt XOR-ed into every subsequent
    /// [`GpuDevice::set_fault_scope`] call (and applied to the current
    /// scope immediately). The fleet layer gives each member a salt in
    /// the high scope bits so identical workloads roll independent fault
    /// timelines per device — that is what makes fleet members distinct
    /// *fault domains* rather than replicas that all fail together.
    pub fn set_fault_scope_salt(&self, salt: u64) {
        let mut st = self.state.lock();
        st.fault_scope_salt = salt;
        if let Some(f) = st.fault.as_mut() {
            f.set_scope(salt);
        }
    }

    /// Number of faults injected since the plan was installed.
    pub fn faults_injected(&self) -> u64 {
        self.state.lock().fault.as_ref().map_or(0, |f| f.injected())
    }

    /// Sets the attribution tag stamped onto every subsequently enqueued
    /// op (see [`Op::tag`]). The simulator never interprets the value;
    /// telemetry layers use it to attach ops to spans. Pass 0 to clear.
    pub fn set_op_tag(&self, tag: u64) {
        self.state.lock().op_tag = tag;
    }

    /// Whether result-integrity checks should run against this device:
    /// true when an installed fault plan can silently corrupt
    /// device→host payloads. Pipelines gate their (non-free) residual
    /// checks on this so fault-free timelines stay bit-identical to the
    /// pre-SDC model.
    pub fn sdc_checks_enabled(&self) -> bool {
        self.state
            .lock()
            .fault
            .as_ref()
            .is_some_and(|f| f.config.sdc_rate > 0.0)
    }

    /// Total device memory (`DeviceSpec::global_mem_bytes`).
    pub fn capacity_bytes(&self) -> u64 {
        self.pool.capacity()
    }

    /// Bytes reserved by live tracked allocations.
    pub fn used_bytes(&self) -> u64 {
        self.pool.used()
    }

    /// Successful `MemPool` reservations since device creation
    /// (monotonic). The delta across a request is the per-request
    /// allocation traffic — zero in a warmed steady state.
    pub fn pool_alloc_ops(&self) -> u64 {
        self.pool.alloc_ops()
    }

    /// `MemPool` reservation releases since device creation (monotonic).
    pub fn pool_release_ops(&self) -> u64 {
        self.pool.release_ops()
    }

    /// Creates a new stream.
    pub fn create_stream(&self) -> StreamId {
        let mut st = self.state.lock();
        let id = st.next_stream;
        st.next_stream += 1;
        StreamId(id)
    }

    /// Records an event on `stream`: it fires when everything enqueued on
    /// the stream so far has completed (`cudaEventRecord`).
    pub fn record_event(&self, stream: StreamId) -> EventId {
        let mut st = self.state.lock();
        let last = st.ops.iter().rev().find(|o| o.stream == stream).map(|o| o.id);
        st.events.push(last);
        EventId(st.events.len() - 1)
    }

    /// Makes the *next* operation enqueued on `stream` wait for `event`
    /// (`cudaStreamWaitEvent`).
    pub fn stream_wait_event(&self, stream: StreamId, event: EventId) {
        let mut st = self.state.lock();
        if let Some(Some(op_id)) = st.events.get(event.0).copied() {
            st.pending_waits.push((stream, op_id));
        }
        // An event recorded on an empty stream is already satisfied.
    }

    fn take_waits(st: &mut DeviceState, stream: StreamId) -> Vec<usize> {
        let mut deps = Vec::new();
        st.pending_waits.retain(|&(s, d)| {
            if s == stream {
                deps.push(d);
                false
            } else {
                true
            }
        });
        deps
    }

    /// Rolls the fault decision for the next device op; must be called
    /// with the state lock held so ordinals follow op-enqueue order. The
    /// trailing `u64` is deterministic corruption entropy (used by the
    /// SDC class to pick the corrupted element and bit).
    fn decide_fault(
        st: &mut DeviceState,
        classes: &[FaultClass],
    ) -> Option<(FaultClass, FaultConfig, u64)> {
        let f = st.fault.as_mut()?;
        let cfg = f.config;
        f.decide(classes).map(|(c, entropy)| (c, cfg, entropy))
    }

    /// Records an injected fault as a timeline op charging the time the
    /// failure wasted (`fault:<kind>:<what>`).
    fn push_fault_op(
        st: &mut DeviceState,
        class: FaultClass,
        what: &str,
        engine: Engine,
        duration: f64,
        stream: StreamId,
    ) {
        let id = st.ops.len();
        let label = format!("fault:{}:{what}", class.label());
        let mut op = Op::new(id, stream, engine, duration, label.clone());
        op.wait_for = Self::take_waits(st, stream);
        op.tag = st.op_tag;
        st.ops.push(op);
        st.records.push(LaunchRecord {
            name: label,
            stats: KernelStats::default(),
            cost: KernelCost {
                total: duration,
                ..Default::default()
            },
            stream,
            bound: "fault",
        });
    }

    /// Host→device copy; charges PCIe time on `stream`. The allocation is
    /// tracked against device capacity; the copy can fault (injected OOM
    /// or transfer failure). A failed transfer still occupied the copy
    /// engine for its full duration (recorded as a `fault:` op) but moved
    /// no data.
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_htod<T: Copy>(
        &self,
        host: &[T],
        stream: StreamId,
    ) -> Result<DeviceBuffer<T>, GpuError> {
        let bytes = std::mem::size_of_val(host);
        {
            let mut st = self.state.lock();
            match Self::decide_fault(&mut st, &[FaultClass::Alloc, FaultClass::H2d]) {
                Some((FaultClass::Alloc, ..)) => {
                    Self::push_fault_op(&mut st, FaultClass::Alloc, "htod", Engine::Pcie, 0.0, stream);
                    return Err(GpuError::OutOfMemory {
                        requested: bytes as u64,
                        free: self.pool.free(),
                        capacity: self.pool.capacity(),
                    });
                }
                Some((FaultClass::H2d, ..)) => {
                    let dur = transfer_time(&self.spec, bytes);
                    Self::push_fault_op(&mut st, FaultClass::H2d, "htod", Engine::Pcie, dur, stream);
                    return Err(GpuError::TransferFailure {
                        dir: TransferDir::HostToDevice,
                        bytes,
                    });
                }
                _ => {}
            }
        }
        let buf = DeviceBuffer::from_host_in(host, &self.pool)?;
        self.push_transfer("htod", buf.size_bytes(), stream);
        Ok(buf)
    }

    /// Allocates a zeroed device buffer, tracked against device capacity
    /// (cudaMalloc+cudaMemset; modelled as time-free, matching the
    /// paper's timing which excludes allocation — but no longer
    /// *capacity*-free). Fails with a typed OOM when the device is full
    /// or an OOM fault is injected.
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_alloc_zeroed<T: Copy + Default>(
        &self,
        len: usize,
        stream: StreamId,
    ) -> Result<DeviceBuffer<T>, GpuError> {
        {
            let mut st = self.state.lock();
            if let Some((FaultClass::Alloc, ..)) = Self::decide_fault(&mut st, &[FaultClass::Alloc])
            {
                Self::push_fault_op(&mut st, FaultClass::Alloc, "alloc", Engine::Device, 0.0, stream);
                return Err(GpuError::OutOfMemory {
                    requested: (len * std::mem::size_of::<T>()) as u64,
                    free: self.pool.free(),
                    capacity: self.pool.capacity(),
                });
            }
        }
        DeviceBuffer::zeroed_in(len, &self.pool)
    }

    /// Makes `host` resident on the device as a tracked allocation
    /// *without* charging PCIe time — for data whose staging cost is
    /// accounted elsewhere (e.g. a serving request's signal, pinned once
    /// per batch). Subject to capacity and injected OOM.
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_resident<T: Copy>(
        &self,
        host: &[T],
        stream: StreamId,
    ) -> Result<DeviceBuffer<T>, GpuError> {
        {
            let mut st = self.state.lock();
            if let Some((FaultClass::Alloc, ..)) = Self::decide_fault(&mut st, &[FaultClass::Alloc])
            {
                Self::push_fault_op(&mut st, FaultClass::Alloc, "resident", Engine::Device, 0.0, stream);
                return Err(GpuError::OutOfMemory {
                    requested: std::mem::size_of_val(host) as u64,
                    free: self.pool.free(),
                    capacity: self.pool.capacity(),
                });
            }
        }
        DeviceBuffer::from_host_in(host, &self.pool)
    }

    /// Pool-recycling variant of [`GpuDevice::try_alloc_zeroed`]: reuses
    /// an idle buffer from `pool` when one of exactly `len` elements is
    /// parked — no `MemPool` traffic and **no allocation fault gate**,
    /// since pooling models the removal of per-request `cudaMalloc` —
    /// falling back to a fresh tracked allocation otherwise.
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_alloc_zeroed_pooled<T: Copy + Default>(
        &self,
        pool: &BufferPool<T>,
        len: usize,
        stream: StreamId,
    ) -> Result<PooledBuffer<T>, GpuError> {
        if let Some(buf) = pool.reuse_zeroed(len) {
            return Ok(buf);
        }
        pool.count_miss();
        Ok(pool.adopt(self.try_alloc_zeroed(len, stream)?))
    }

    /// Pool-recycling variant of [`GpuDevice::try_resident`]: reuses an
    /// idle buffer of exactly `host.len()` elements (overwritten with
    /// `host`, no `MemPool` traffic, no fault gate), falling back to a
    /// fresh tracked resident allocation. Like `try_resident`, no PCIe
    /// time is charged — staging cost is accounted by the caller (see
    /// [`GpuDevice::try_charge_htod`] for batched staging).
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_resident_pooled<T: Copy>(
        &self,
        pool: &BufferPool<T>,
        host: &[T],
        stream: StreamId,
    ) -> Result<PooledBuffer<T>, GpuError> {
        if let Some(buf) = pool.reuse_resident(host) {
            return Ok(buf);
        }
        pool.count_miss();
        Ok(pool.adopt(self.try_resident(host, stream)?))
    }

    /// Charges one aggregated host→device staging transfer of `bytes` on
    /// `stream` without materialising a buffer — the batched-transfer
    /// counterpart of the per-buffer paths: a serve group stages all its
    /// members' signals as **one** PCIe op (one `H2d` fault gate for the
    /// whole group) and the buffers themselves are made resident via
    /// [`GpuDevice::try_resident_pooled`], which charges nothing. A
    /// failed transfer still occupied the copy engine for its full
    /// duration but moved no data.
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_charge_htod(
        &self,
        label: &str,
        bytes: usize,
        stream: StreamId,
    ) -> Result<(), GpuError> {
        {
            let mut st = self.state.lock();
            if let Some((FaultClass::H2d, ..)) = Self::decide_fault(&mut st, &[FaultClass::H2d]) {
                let dur = transfer_time(&self.spec, bytes);
                Self::push_fault_op(&mut st, FaultClass::H2d, label, Engine::Pcie, dur, stream);
                return Err(GpuError::TransferFailure {
                    dir: TransferDir::HostToDevice,
                    bytes,
                });
            }
        }
        self.push_transfer(label, bytes, stream);
        Ok(())
    }

    /// Device→host copy; charges PCIe time on `stream`. Can fault with a
    /// transfer failure or a detected-uncorrectable ECC error (both
    /// transient: the copy engine time is charged, no data is returned,
    /// and a retry rolls a fresh decision), or — for susceptible payload
    /// types, when `sdc_rate > 0` — *succeed* with one element of the
    /// returned copy silently corrupted (a zero-duration
    /// `fault:sdc:dtoh` marker op records the injection on the timeline;
    /// the device-side buffer stays intact, so a retry after detection
    /// re-reads clean data under a fresh decision).
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_dtoh<T: Copy + SdcTarget>(
        &self,
        buf: &DeviceBuffer<T>,
        stream: StreamId,
    ) -> Result<Vec<T>, GpuError> {
        let bytes = buf.size_bytes();
        let classes: &[FaultClass] = if T::SUSCEPTIBLE {
            &[FaultClass::D2h, FaultClass::Ecc, FaultClass::Sdc]
        } else {
            &[FaultClass::D2h, FaultClass::Ecc]
        };
        {
            let mut st = self.state.lock();
            match Self::decide_fault(&mut st, classes) {
                Some((FaultClass::D2h, ..)) => {
                    let dur = transfer_time(&self.spec, bytes);
                    Self::push_fault_op(&mut st, FaultClass::D2h, "dtoh", Engine::Pcie, dur, stream);
                    return Err(GpuError::TransferFailure {
                        dir: TransferDir::DeviceToHost,
                        bytes,
                    });
                }
                Some((FaultClass::Ecc, ..)) => {
                    let dur = transfer_time(&self.spec, bytes);
                    Self::push_fault_op(&mut st, FaultClass::Ecc, "dtoh", Engine::Pcie, dur, stream);
                    return Err(GpuError::EccCorruption { buffer_bytes: bytes });
                }
                Some((FaultClass::Sdc, _, entropy)) => {
                    Self::push_fault_op(&mut st, FaultClass::Sdc, "dtoh", Engine::Host, 0.0, stream);
                    drop(st);
                    self.push_transfer("dtoh", bytes, stream);
                    let mut data = buf.peek();
                    if !data.is_empty() {
                        let idx = (entropy as usize) % data.len();
                        data[idx].corrupt(entropy >> 8);
                    }
                    return Ok(data);
                }
                _ => {}
            }
        }
        self.push_transfer("dtoh", bytes, stream);
        Ok(buf.peek())
    }

    /// Grouped device→host copy: one aggregated PCIe transfer record
    /// for the concatenated payload, with fault and corruption
    /// decisions rolled **per constituent buffer**. Batching result
    /// transfers must not launder fault exposure — corruption odds
    /// follow the payloads moved, not the number of `cudaMemcpy` calls
    /// that move them — so each constituent rolls the same
    /// `[D2h, Ecc, (Sdc)]` gates it would roll as a standalone
    /// transfer. A hard fault on any constituent fails the whole
    /// grouped transfer (charged at the aggregate's PCIe duration); an
    /// SDC decision corrupts one element of that constituent's
    /// returned copy only, leaving device-side data intact for retry.
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_dtoh_group<T: Copy + SdcTarget>(
        &self,
        bufs: &[&DeviceBuffer<T>],
        stream: StreamId,
    ) -> Result<Vec<Vec<T>>, GpuError> {
        let total_bytes: usize = bufs.iter().map(|b| b.size_bytes()).sum();
        let classes: &[FaultClass] = if T::SUSCEPTIBLE {
            &[FaultClass::D2h, FaultClass::Ecc, FaultClass::Sdc]
        } else {
            &[FaultClass::D2h, FaultClass::Ecc]
        };
        let mut out: Vec<Vec<T>> = Vec::with_capacity(bufs.len());
        {
            let mut st = self.state.lock();
            for buf in bufs {
                match Self::decide_fault(&mut st, classes) {
                    Some((FaultClass::D2h, ..)) => {
                        let dur = transfer_time(&self.spec, total_bytes);
                        Self::push_fault_op(
                            &mut st,
                            FaultClass::D2h,
                            "dtoh_group",
                            Engine::Pcie,
                            dur,
                            stream,
                        );
                        return Err(GpuError::TransferFailure {
                            dir: TransferDir::DeviceToHost,
                            bytes: total_bytes,
                        });
                    }
                    Some((FaultClass::Ecc, ..)) => {
                        let dur = transfer_time(&self.spec, total_bytes);
                        Self::push_fault_op(
                            &mut st,
                            FaultClass::Ecc,
                            "dtoh_group",
                            Engine::Pcie,
                            dur,
                            stream,
                        );
                        return Err(GpuError::EccCorruption {
                            buffer_bytes: total_bytes,
                        });
                    }
                    Some((FaultClass::Sdc, _, entropy)) => {
                        Self::push_fault_op(
                            &mut st,
                            FaultClass::Sdc,
                            "dtoh_group",
                            Engine::Host,
                            0.0,
                            stream,
                        );
                        let mut data = buf.peek();
                        if !data.is_empty() {
                            let idx = (entropy as usize) % data.len();
                            data[idx].corrupt(entropy >> 8);
                        }
                        out.push(data);
                    }
                    _ => out.push(buf.peek()),
                }
            }
        }
        self.push_transfer("dtoh_group", total_bytes, stream);
        Ok(out)
    }

    fn push_transfer(&self, label: &str, bytes: usize, stream: StreamId) {
        let dur = transfer_time(&self.spec, bytes);
        let mut st = self.state.lock();
        let id = st.ops.len();
        let mut op = Op::new(id, stream, Engine::Pcie, dur, label.to_string());
        op.wait_for = Self::take_waits(&mut st, stream);
        op.tag = st.op_tag;
        st.ops.push(op);
        st.records.push(LaunchRecord {
            name: format!("{label} ({bytes} B)"),
            stats: KernelStats::default(),
            cost: KernelCost {
                total: dur,
                ..Default::default()
            },
            stream,
            bound: "pcie",
        });
    }

    /// Rolls the launch-fault gate for a kernel named `name`: on a fault,
    /// records the wasted time (launch overhead for a failed launch, the
    /// watchdog window for a timeout) and reports the typed error — the
    /// kernel must then execute **no** blocks, so retries never
    /// double-apply side effects.
    fn launch_fault_gate(&self, name: &str, stream: StreamId) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        match Self::decide_fault(&mut st, &[FaultClass::Launch, FaultClass::Timeout]) {
            Some((FaultClass::Launch, ..)) => {
                let dur = self.spec.launch_overhead_us * 1e-6;
                Self::push_fault_op(&mut st, FaultClass::Launch, name, Engine::Device, dur, stream);
                Err(GpuError::LaunchFailure {
                    kernel: name.to_string(),
                })
            }
            Some((FaultClass::Timeout, cfg, _)) => {
                Self::push_fault_op(
                    &mut st,
                    FaultClass::Timeout,
                    name,
                    Engine::Device,
                    cfg.timeout_s,
                    stream,
                );
                Err(GpuError::LaunchTimeout {
                    kernel: name.to_string(),
                    waited_s: cfg.timeout_s,
                })
            }
            _ => Ok(()),
        }
    }

    /// Charges an externally-modelled device operation (used by the cuFFT
    /// model, whose internals we do not trace kernel-by-kernel). Subject
    /// to the same launch faults as a traced kernel.
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_charge_device_op(
        &self,
        label: &str,
        duration: f64,
        stream: StreamId,
    ) -> Result<(), GpuError> {
        self.launch_fault_gate(label, stream)?;
        let mut st = self.state.lock();
        let id = st.ops.len();
        let mut op = Op::new(id, stream, Engine::Device, duration, label.to_string());
        op.wait_for = Self::take_waits(&mut st, stream);
        op.tag = st.op_tag;
        st.ops.push(op);
        st.records.push(LaunchRecord {
            name: label.to_string(),
            stats: KernelStats::default(),
            cost: KernelCost {
                total: duration,
                ..Default::default()
            },
            stream,
            bound: "modelled",
        });
        Ok(())
    }

    /// Charges a host-side wait (retry backoff, watchdog recovery) on
    /// `stream`. Host ops occupy only their own stream — no device share,
    /// no kernel slot, no copy engine — and never fault.
    pub fn charge_host_op(&self, label: &str, duration: f64, stream: StreamId) {
        let mut st = self.state.lock();
        let id = st.ops.len();
        let mut op = Op::new(id, stream, Engine::Host, duration, label.to_string());
        op.wait_for = Self::take_waits(&mut st, stream);
        op.tag = st.op_tag;
        st.ops.push(op);
        st.records.push(LaunchRecord {
            name: label.to_string(),
            stats: KernelStats::default(),
            cost: KernelCost {
                total: duration,
                ..Default::default()
            },
            stream,
            bound: "host",
        });
    }

    /// Launches a map kernel: thread `tid` computes `out[tid] = f(ctx, gm)`
    /// for `tid < out.len()`. The grid must cover the output. On an
    /// injected launch fault no block executes and `out` is untouched.
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_launch_map<T, F>(
        &self,
        name: &str,
        cfg: LaunchConfig,
        stream: StreamId,
        out: &mut DeviceBuffer<T>,
        f: F,
    ) -> Result<(), GpuError>
    where
        T: Copy + Send + Sync,
        F: Fn(ThreadCtx, &mut Gmem<'_>) -> T + Sync,
    {
        self.launch_fault_gate(name, stream)?;
        self.launch_map_inner(name, cfg, stream, out, f, false);
        Ok(())
    }

    /// Like [`GpuDevice::try_launch_map`], but the output is an
    /// L2-resident scratch buffer consumed by the next kernel on the
    /// stream before it can be evicted: the stores are not charged as DRAM
    /// traffic. The caller must ensure `out` fits in L2
    /// ([`crate::spec::DeviceSpec::l2_bytes`]).
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_launch_map_scratch<T, F>(
        &self,
        name: &str,
        cfg: LaunchConfig,
        stream: StreamId,
        out: &mut DeviceBuffer<T>,
        f: F,
    ) -> Result<(), GpuError>
    where
        T: Copy + Send + Sync,
        F: Fn(ThreadCtx, &mut Gmem<'_>) -> T + Sync,
    {
        assert!(
            out.size_bytes() <= self.spec.l2_bytes,
            "scratch buffer ({} B) exceeds L2 ({} B)",
            out.size_bytes(),
            self.spec.l2_bytes
        );
        self.launch_fault_gate(name, stream)?;
        self.launch_map_inner(name, cfg, stream, out, f, true);
        Ok(())
    }

    fn launch_map_inner<T, F>(
        &self,
        name: &str,
        cfg: LaunchConfig,
        stream: StreamId,
        out: &mut DeviceBuffer<T>,
        f: F,
        cached_store: bool,
    ) where
        T: Copy + Send + Sync,
        F: Fn(ThreadCtx, &mut Gmem<'_>) -> T + Sync,
    {
        assert!(
            cfg.total_threads() >= out.len() as u64,
            "grid ({} threads) does not cover output ({} elements)",
            cfg.total_threads(),
            out.len()
        );
        let block_dim = cfg.block_dim as usize;
        let sample_every = sample_every(cfg);
        let out_base = out.base_addr();
        let elem = std::mem::size_of::<T>();

        // Blocks execute concurrently on the host pool as disjoint output
        // chunks; traces are collected positionally (by `block_idx`, never
        // completion order), so `finish_launch` sees the same input as a
        // sequential run. The traced/untraced decision is hoisted out of
        // the per-thread loop: the ~(1 − 1/sample_every) of blocks that
        // are never sampled take a fast path with one reusable stateless
        // gateway and no trace or store-note bookkeeping.
        let block_traces: Vec<Vec<ThreadTrace>> = out
            .as_mut_slice()
            .par_chunks_mut(block_dim)
            .enumerate()
            .filter_map(|(block_idx, chunk)| {
                if block_idx % sample_every == 0 {
                    let mut traces = vec![ThreadTrace::default(); chunk.len()];
                    for (t, slot) in chunk.iter_mut().enumerate() {
                        let ctx = ThreadCtx {
                            block_idx: block_idx as u32,
                            thread_idx: t as u32,
                            block_dim: cfg.block_dim,
                            grid_dim: cfg.grid_dim,
                        };
                        let tid = ctx.global_id();
                        let mut gm = Gmem::traced(&mut traces[t]);
                        let v = f(ctx, &mut gm);
                        gm.note_store(out_base + (tid * elem) as u64, elem as u32, cached_store);
                        *slot = v;
                    }
                    Some(traces)
                } else {
                    // Fast path: `note_store` is a no-op without a trace,
                    // so only the functional store remains.
                    let mut gm = Gmem::untraced();
                    for (t, slot) in chunk.iter_mut().enumerate() {
                        let ctx = ThreadCtx {
                            block_idx: block_idx as u32,
                            thread_idx: t as u32,
                            block_dim: cfg.block_dim,
                            grid_dim: cfg.grid_dim,
                        };
                        *slot = f(ctx, &mut gm);
                    }
                    None
                }
            })
            .collect();

        self.finish_launch(name, cfg, stream, block_traces);
    }

    /// Launches a side-effect kernel: every thread runs `f(ctx, gm)`;
    /// writes go through [`crate::atomic`] arrays captured by the closure.
    /// On an injected launch fault no block executes, so the atomics the
    /// closure captures are untouched — a retry starts from clean state.
    #[must_use = "this operation can fault; the error carries the recovery cue"]
    pub fn try_launch_foreach<F>(
        &self,
        name: &str,
        cfg: LaunchConfig,
        stream: StreamId,
        f: F,
    ) -> Result<(), GpuError>
    where
        F: Fn(ThreadCtx, &mut Gmem<'_>) + Sync,
    {
        self.launch_fault_gate(name, stream)?;
        self.launch_foreach_inner(name, cfg, stream, f);
        Ok(())
    }

    fn launch_foreach_inner<F>(&self, name: &str, cfg: LaunchConfig, stream: StreamId, f: F)
    where
        F: Fn(ThreadCtx, &mut Gmem<'_>) + Sync,
    {
        let sample_every = sample_every(cfg);
        // Blocks run concurrently on the host pool; side effects go
        // through the lock-free `crate::atomic` cells, and the sampled
        // traces are collected in block order (see `launch_map_inner` for
        // the hoisted traced/untraced fast path).
        let block_traces: Vec<Vec<ThreadTrace>> = (0..cfg.grid_dim as usize)
            .into_par_iter()
            .filter_map(|block_idx| {
                if block_idx % sample_every == 0 {
                    let mut traces = vec![ThreadTrace::default(); cfg.block_dim as usize];
                    for (t, trace) in traces.iter_mut().enumerate() {
                        let ctx = ThreadCtx {
                            block_idx: block_idx as u32,
                            thread_idx: t as u32,
                            block_dim: cfg.block_dim,
                            grid_dim: cfg.grid_dim,
                        };
                        let mut gm = Gmem::traced(trace);
                        f(ctx, &mut gm);
                    }
                    Some(traces)
                } else {
                    let mut gm = Gmem::untraced();
                    for t in 0..cfg.block_dim as usize {
                        let ctx = ThreadCtx {
                            block_idx: block_idx as u32,
                            thread_idx: t as u32,
                            block_dim: cfg.block_dim,
                            grid_dim: cfg.grid_dim,
                        };
                        f(ctx, &mut gm);
                    }
                    None
                }
            })
            .collect();

        self.finish_launch(name, cfg, stream, block_traces);
    }

    fn finish_launch(
        &self,
        name: &str,
        cfg: LaunchConfig,
        stream: StreamId,
        block_traces: Vec<Vec<ThreadTrace>>,
    ) {
        let sampled_blocks = block_traces.len().max(1);
        let scale = cfg.grid_dim as f64 / sampled_blocks as f64;
        let stats = aggregate(name, cfg, self.spec.warp_size, &block_traces, scale);
        let cost = kernel_cost(&self.spec, &stats);
        let mut st = self.state.lock();
        let id = st.ops.len();
        let mut op = Op::new(id, stream, Engine::Device, cost.total, name.to_string());
        op.wait_for = Self::take_waits(&mut st, stream);
        op.tag = st.op_tag;
        st.ops.push(op);
        let bound = bound_by(&cost);
        st.records.push(LaunchRecord {
            name: name.to_string(),
            stats,
            cost,
            stream,
            bound,
        });
    }

    /// Replays the stream schedule and returns the simulated elapsed time
    /// (seconds) of everything since the last [`GpuDevice::reset_clock`].
    pub fn elapsed(&self) -> f64 {
        let st = self.state.lock();
        schedule(&st.ops, self.spec.max_concurrent_kernels).makespan
    }

    /// Clears all recorded operations (the simulated clock returns to 0).
    pub fn reset_clock(&self) {
        let mut st = self.state.lock();
        st.ops.clear();
        st.records.clear();
        st.events.clear();
        st.pending_waits.clear();
    }

    /// Snapshot of all launch records since the last reset.
    pub fn records(&self) -> Vec<LaunchRecord> {
        self.state.lock().records.clone()
    }

    /// Snapshot of the raw timeline ops since the last reset — the input
    /// to [`crate::timeline::merge_op_groups`] when several private
    /// devices' recordings are combined into one serving timeline.
    pub fn ops(&self) -> Vec<Op> {
        self.state.lock().ops.clone()
    }

    /// Sum of modelled durations grouped by kernel name — the profiler view
    /// used to regenerate the paper's Figure 2.
    pub fn time_by_kernel(&self) -> Vec<(String, f64)> {
        let st = self.state.lock();
        let mut acc: Vec<(String, f64)> = Vec::new();
        for r in &st.records {
            match acc.iter_mut().find(|(n, _)| *n == r.name) {
                Some((_, t)) => *t += r.cost.total,
                None => acc.push((r.name.clone(), r.cost.total)),
            }
        }
        acc
    }

    /// Renders a per-kernel profile table.
    pub fn profile_report(&self) -> String {
        let st = self.state.lock();
        let mut s = String::from(
            "kernel                           | time(ms) | bound     | txns       | bytes      | warps\n",
        );
        for r in &st.records {
            s.push_str(&format!(
                "{:<32} | {:>8.4} | {:<9} | {:>10.0} | {:>10.0} | {:>6}\n",
                r.name,
                r.cost.total * 1e3,
                r.bound,
                r.stats.transactions,
                r.stats.dram_bytes,
                r.stats.warps
            ));
        }
        s
    }
}

/// Picks the block-sampling stride so that at most [`MAX_SAMPLED_THREADS`]
/// threads are traced.
fn sample_every(cfg: LaunchConfig) -> usize {
    let max_blocks = (MAX_SAMPLED_THREADS / cfg.block_dim as u64).max(1);
    (cfg.grid_dim as u64).div_ceil(max_blocks).max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::DevAtomicU32;
    use crate::spec::DeviceSpec;
    use fft::Cplx;

    #[test]
    fn map_kernel_computes_correct_values() {
        let dev = GpuDevice::new(DeviceSpec::test_tiny());
        let input = dev
            .try_htod(&(0..1000u64).collect::<Vec<_>>(), DEFAULT_STREAM)
            .unwrap();
        let mut out: DeviceBuffer<u64> = dev.try_alloc_zeroed(1000, DEFAULT_STREAM).unwrap();
        let cfg = LaunchConfig::for_elements(1000, 64);
        dev.try_launch_map("square", cfg, DEFAULT_STREAM, &mut out, |ctx, gm| {
            let v = gm.ld(&input, ctx.global_id());
            v * v
        })
        .unwrap();
        let host = dev.try_dtoh(&out, DEFAULT_STREAM).unwrap();
        for (i, v) in host.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn foreach_kernel_with_atomics() {
        let dev = GpuDevice::new(DeviceSpec::test_tiny());
        let hist = DevAtomicU32::zeroed(16);
        let cfg = LaunchConfig::for_elements(4096, 64);
        dev.try_launch_foreach("hist", cfg, DEFAULT_STREAM, |ctx, gm| {
            hist.fetch_add(gm, ctx.global_id() % 16, 1);
        })
        .unwrap();
        assert!(hist.snapshot().iter().all(|&c| c == 256));
    }

    #[test]
    fn elapsed_grows_with_work_and_resets() {
        let dev = GpuDevice::new(DeviceSpec::test_tiny());
        assert_eq!(dev.elapsed(), 0.0);
        let data: Vec<f64> = vec![1.0; 4096];
        let input = dev.try_htod(&data, DEFAULT_STREAM).unwrap();
        let mut out: DeviceBuffer<f64> = dev.try_alloc_zeroed(4096, DEFAULT_STREAM).unwrap();
        dev.try_launch_map(
            "copy",
            LaunchConfig::for_elements(4096, 64),
            DEFAULT_STREAM,
            &mut out,
            |ctx, gm| gm.ld(&input, ctx.global_id()),
        )
        .unwrap();
        let t1 = dev.elapsed();
        assert!(t1 > 0.0);
        dev.try_launch_map(
            "copy2",
            LaunchConfig::for_elements(4096, 64),
            DEFAULT_STREAM,
            &mut out,
            |ctx, gm| gm.ld(&input, ctx.global_id()),
        )
        .unwrap();
        assert!(dev.elapsed() > t1);
        dev.reset_clock();
        assert_eq!(dev.elapsed(), 0.0);
        assert!(dev.records().is_empty());
    }

    #[test]
    fn scattered_kernel_costs_more_than_coalesced() {
        let dev = GpuDevice::new(DeviceSpec::tesla_k20x());
        let n = 1usize << 20;
        let data: Vec<f64> = vec![1.0; n];
        let input = DeviceBuffer::from_host(&data); // skip transfer charge
        let cfg = LaunchConfig::for_elements(n, 256);

        let mut out: DeviceBuffer<f64> = dev.try_alloc_zeroed(n, DEFAULT_STREAM).unwrap();
        dev.try_launch_map("coalesced", cfg, DEFAULT_STREAM, &mut out, |ctx, gm| {
            gm.ld(&input, ctx.global_id())
        })
        .unwrap();
        let t_coal = dev.elapsed();
        dev.reset_clock();

        // 8-byte elements scattered into distinct 32 B segments: 4×
        // read-traffic amplification (8 B useful per 32 B segment).
        let stride = 999_983; // prime, co-prime with n → full scatter
        dev.try_launch_map("scattered", cfg, DEFAULT_STREAM, &mut out, |ctx, gm| {
            gm.ld(&input, (ctx.global_id() * stride) % n)
        })
        .unwrap();
        let t_scat = dev.elapsed();
        assert!(
            t_scat > 1.5 * t_coal,
            "scatter {t_scat:.2e} should cost well over coalesced {t_coal:.2e}"
        );
    }

    #[test]
    fn streams_overlap_transfers_with_kernels() {
        let dev = GpuDevice::new(DeviceSpec::test_tiny());
        let s1 = dev.create_stream();
        let s2 = dev.create_stream();
        assert_ne!(s1, s2);
        // Large transfer on s1, kernel on s2: makespan ≈ max, not sum.
        let big: Vec<f64> = vec![0.0; 1 << 16];
        let _buf = dev.try_htod(&big, s1).unwrap();
        dev.try_charge_device_op("k", transfer_time(dev.spec(), 8 << 16), s2)
            .unwrap();
        let serial: f64 = dev
            .records()
            .iter()
            .map(|r| r.cost.total)
            .sum();
        assert!(dev.elapsed() < serial * 0.75);
    }

    #[test]
    fn profiler_report_contains_kernels() {
        let dev = GpuDevice::new(DeviceSpec::test_tiny());
        let mut out: DeviceBuffer<u32> = dev.try_alloc_zeroed(128, DEFAULT_STREAM).unwrap();
        dev.try_launch_map(
            "mykernel",
            LaunchConfig::for_elements(128, 32),
            DEFAULT_STREAM,
            &mut out,
            |ctx, _| ctx.global_id() as u32,
        )
        .unwrap();
        let report = dev.profile_report();
        assert!(report.contains("mykernel"));
        let by_kernel = dev.time_by_kernel();
        assert_eq!(by_kernel.len(), 1);
        assert!(by_kernel[0].1 > 0.0);
    }

    #[test]
    fn sampling_still_estimates_full_traffic() {
        // Launch with far more threads than MAX_SAMPLED_THREADS and check
        // extrapolated bytes ≈ ideal.
        let dev = GpuDevice::new(DeviceSpec::tesla_k20x());
        let n = 1usize << 18;
        let data: Vec<Cplx> = vec![Cplx::new(0.0, 0.0); n];
        let input = DeviceBuffer::from_host(&data);
        let mut out: DeviceBuffer<Cplx> = dev.try_alloc_zeroed(n, DEFAULT_STREAM).unwrap();
        dev.try_launch_map(
            "stream",
            LaunchConfig::for_elements(n, 256),
            DEFAULT_STREAM,
            &mut out,
            |ctx, gm| gm.ld(&input, ctx.global_id()),
        )
        .unwrap();
        let rec = &dev.records()[0];
        let ideal = (n * 32) as f64; // 16 B read + 16 B write per element
        let ratio = rec.stats.dram_bytes / ideal;
        assert!(
            (0.9..1.1).contains(&ratio),
            "extrapolated traffic off by {ratio}"
        );
        assert!(rec.stats.sampled_warps < rec.stats.warps);
    }

    #[test]
    fn tracked_allocations_respect_capacity() {
        let dev = GpuDevice::new(DeviceSpec::test_tiny()); // 64 MiB
        assert_eq!(dev.capacity_bytes(), 64 * 1024 * 1024);
        assert_eq!(dev.used_bytes(), 0);
        let a: DeviceBuffer<u8> = dev
            .try_alloc_zeroed(48 * 1024 * 1024, DEFAULT_STREAM)
            .unwrap();
        assert_eq!(dev.used_bytes(), 48 * 1024 * 1024);
        let err = dev
            .try_alloc_zeroed::<u8>(32 * 1024 * 1024, DEFAULT_STREAM)
            .unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
        drop(a);
        assert_eq!(dev.used_bytes(), 0);
        assert!(dev
            .try_alloc_zeroed::<u8>(32 * 1024 * 1024, DEFAULT_STREAM)
            .is_ok());
    }

    #[test]
    fn htod_allocation_is_tracked_and_released() {
        let dev = GpuDevice::new(DeviceSpec::test_tiny());
        let host = vec![0u8; 1024];
        let buf = dev.try_htod(&host, DEFAULT_STREAM).unwrap();
        assert_eq!(dev.used_bytes(), 1024);
        drop(buf);
        assert_eq!(dev.used_bytes(), 0);
    }

    #[test]
    fn persistent_faults_fail_every_op_and_record_them() {
        let dev = GpuDevice::new(DeviceSpec::test_tiny());
        dev.install_fault_plan(FaultConfig::persistent(42));
        let host = vec![0f64; 256];
        assert!(dev.try_htod(&host, DEFAULT_STREAM).is_err());
        let mut out: DeviceBuffer<f64> = DeviceBuffer::zeroed(256);
        let err = dev
            .try_launch_map(
                "k",
                LaunchConfig::for_elements(256, 64),
                DEFAULT_STREAM,
                &mut out,
                |_, _| 1.0,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            GpuError::LaunchFailure { .. } | GpuError::LaunchTimeout { .. }
        ));
        // The failed launch executed no blocks.
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
        assert!(dev.try_dtoh(&out, DEFAULT_STREAM).is_err());
        assert!(dev.faults_injected() >= 3);
        // Every fault left an op on the timeline.
        let fault_ops = dev
            .ops()
            .iter()
            .filter(|o| o.label.starts_with("fault:"))
            .count();
        assert_eq!(fault_ops as u64, dev.faults_injected());
        // And the device works again once the plan is removed.
        dev.clear_fault_plan();
        assert!(dev.try_htod(&host, DEFAULT_STREAM).is_ok());
        assert_eq!(dev.faults_injected(), 0);
    }

    #[test]
    fn fault_decisions_replay_per_scope() {
        let run = |dev: &GpuDevice| -> Vec<bool> {
            dev.set_fault_scope(3);
            let host = vec![0u32; 64];
            (0..32)
                .map(|_| dev.try_htod(&host, DEFAULT_STREAM).is_err())
                .collect()
        };
        let mk = || {
            let dev = GpuDevice::new(DeviceSpec::test_tiny());
            dev.install_fault_plan(FaultConfig::uniform(9, 0.3));
            dev
        };
        let a = mk();
        let b = mk();
        // Different history on b before entering the scope.
        b.set_fault_scope(77);
        let _ = b.try_htod(&[0u32; 8], DEFAULT_STREAM);
        assert_eq!(run(&a), run(&b), "scope decisions must not depend on history");
    }

    #[test]
    fn scope_salt_makes_devices_distinct_fault_domains() {
        let run = |salt: u64| -> Vec<bool> {
            let dev = GpuDevice::new(DeviceSpec::test_tiny());
            dev.install_fault_plan(FaultConfig::uniform(9, 0.5));
            dev.set_fault_scope_salt(salt);
            dev.set_fault_scope(3);
            let host = vec![0u32; 64];
            (0..32)
                .map(|_| dev.try_htod(&host, DEFAULT_STREAM).is_err())
                .collect()
        };
        assert_eq!(run(0), run(0), "unsalted decisions replay");
        assert_eq!(run(1 << 44), run(1 << 44), "salted decisions replay");
        assert_ne!(
            run(1 << 44),
            run(2 << 44),
            "distinct salts must roll independent fault timelines"
        );
        // Salt 0 is the identity: legacy single-device behaviour intact.
        let dev = GpuDevice::new(DeviceSpec::test_tiny());
        dev.install_fault_plan(FaultConfig::uniform(9, 0.5));
        dev.set_fault_scope(3);
        let host = vec![0u32; 64];
        let unsalted: Vec<bool> = (0..32)
            .map(|_| dev.try_htod(&host, DEFAULT_STREAM).is_err())
            .collect();
        assert_eq!(unsalted, run(0));
    }

    #[test]
    fn host_ops_do_not_slow_the_device() {
        let dev = GpuDevice::new(DeviceSpec::test_tiny());
        dev.try_charge_device_op("k", 1e-3, DEFAULT_STREAM).unwrap();
        let t_kernel = dev.elapsed();
        let s2 = dev.create_stream();
        dev.charge_host_op("backoff", 0.5e-3, s2);
        // The concurrent host wait neither extends nor dilutes the kernel.
        assert!((dev.elapsed() - t_kernel).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "does not cover output")]
    fn undersized_grid_panics() {
        let dev = GpuDevice::new(DeviceSpec::test_tiny());
        let mut out: DeviceBuffer<u32> = dev.try_alloc_zeroed(1000, DEFAULT_STREAM).unwrap();
        dev.try_launch_map(
            "bad",
            LaunchConfig::new(1, 32),
            DEFAULT_STREAM,
            &mut out,
            |_, _| 0,
        )
        .unwrap();
    }
}
