//! Pluggable execution backends for the serving layer.
//!
//! The paper's headline claim is comparative — one algorithm (sFFT on
//! the GPU) against dense FFT and CPU sFFT across a regime of `(n, k)`
//! — but the pipeline used to be hard-wired to `gpu-sim` with a
//! bolted-on CPU degradation path. This module turns "how a plan
//! executes" into a first-class, registered capability, modeled on
//! wasmtime's wasi-nn backend registry: a small fixed enum of backend
//! kinds, an `Arc<dyn Backend>` slot per kind, and lookup by kind at
//! plan-build time. Three backends ship:
//!
//! * [`GpuSimBackend`] — the cusFFT pipeline on the simulated device
//!   (the paper's subject). Op sequences are bit-identical to the
//!   pre-registry serving layer.
//! * [`SfftCpuBackend`] — the CPU reference sFFT. Runs as host work
//!   (one zero-duration host op marks the execution on the timeline),
//!   so injected device faults cannot touch it: re-routing a request
//!   here *is* the degradation tier.
//! * [`DenseFftBackend`] — a brute-force dense-FFT oracle that keeps
//!   the top-`k` coefficients. Exact up to floating-point, used by the
//!   differential conformance suite as ground truth.
//!
//! ## Exactness classes
//!
//! Each backend's [`BackendCaps`] documents its contract with the
//! conformance suite (`tests/backend_differential.rs`):
//!
//! * `exact_vs_direct` — serving a request through [`ServeEngine`]
//!   must reproduce [`execute_direct`] *bit-for-bit* (true for every
//!   backend: execution is a pure function of `(params, signal,
//!   seed)`).
//! * `oracle_bound` — recovered coefficients must match the dense
//!   oracle within this per-coefficient ℓ1 bound on clean signals
//!   (`0.0` for the oracle itself).
//!
//! ## Determinism obligations
//!
//! A backend must be a pure function of `(params, variant, signal,
//! seed)` given a device state: no wall clocks, no ambient randomness,
//! no dependence on which worker thread runs it. Host-side backends
//! must only enqueue infallible host ops so fault plans cannot alter
//! their results.
//!
//! [`ServeEngine`]: crate::serve::ServeEngine

use std::any::Any;
use std::sync::Arc;

use fft::cplx::Cplx;
use gpu_sim::{transfer_time, DeviceBuffer, DeviceSpec, FaultConfig, GpuDevice, StreamId};
use sfft_cpu::{SfftParams, Tuning};
use signal::Recovered;

use crate::cufft::cufft_model_time;
use crate::error::CusFftError;
use crate::perm_filter::RemapKind;
use crate::pipeline::{ComputedRequest, CusFft, ExecStreams, PreparedRequest, Variant};
use crate::plan_cache::{PlanKey, ServeQos};

/// The fixed set of execution backends a request can be routed to.
/// Part of [`PlanKey`], so plans for different backends never alias in
/// the plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum BackendKind {
    /// The cusFFT pipeline on the simulated GPU (the default).
    #[default]
    GpuSim,
    /// The CPU reference sFFT (`crates/sfft-cpu`).
    SfftCpu,
    /// The brute-force dense-FFT oracle (`crates/fft`).
    DenseFft,
}

impl BackendKind {
    /// Every kind, in registry-slot order.
    pub fn all() -> [BackendKind; 3] {
        [
            BackendKind::GpuSim,
            BackendKind::SfftCpu,
            BackendKind::DenseFft,
        ]
    }

    /// Stable label used as a telemetry dimension (`backend:<kind>`).
    pub fn label(self) -> &'static str {
        cusfft_telemetry::backend_label(self.code())
    }

    /// The 2-bit telemetry op-tag code for this backend.
    pub fn code(self) -> u8 {
        match self {
            BackendKind::GpuSim => cusfft_telemetry::BACKEND_GPU_SIM,
            BackendKind::SfftCpu => cusfft_telemetry::BACKEND_SFFT_CPU,
            BackendKind::DenseFft => cusfft_telemetry::BACKEND_DENSE_FFT,
        }
    }

    /// Registry slot index.
    fn slot(self) -> usize {
        match self {
            BackendKind::GpuSim => 0,
            BackendKind::SfftCpu => 1,
            BackendKind::DenseFft => 2,
        }
    }
}

/// A backend's capability report: its exactness class and execution
/// shape, as documented contracts the conformance suite enforces.
/// Reports must be deterministic — repeated calls to
/// [`Backend::capabilities`] return equal values.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendCaps {
    /// The backend this report describes.
    pub kind: BackendKind,
    /// Serving through the engine reproduces [`execute_direct`]
    /// bit-for-bit.
    pub exact_vs_direct: bool,
    /// Execution enqueues device (kernel/PCIe) ops and rolls fault
    /// gates; `false` means host-only execution immune to injected
    /// device faults.
    pub uses_device: bool,
    /// `run_batched_ffts` actually batches across requests (vs. a
    /// no-op for host backends that complete in `prepare`).
    pub batched_ffts: bool,
    /// Per-coefficient bound on |coeff − dense oracle coeff| for the
    /// large coefficients of a clean signal (`0.0` = is the oracle).
    pub oracle_bound: f64,
}

/// Opaque per-request state between [`ExecutePlan::prepare`] and
/// [`ExecutePlan::finish`]. Each backend stores its own concrete type;
/// the serving layer only moves it around.
pub struct PreparedState(Box<dyn Any + Send>);

impl PreparedState {
    fn new<T: Any + Send>(state: T) -> Self {
        PreparedState(Box::new(state))
    }

    fn downcast_ref<T: Any>(&self) -> &T {
        self.0
            .downcast_ref()
            .expect("prepared state fed back to the backend that produced it")
    }

    fn downcast_mut<T: Any>(&mut self) -> &mut T {
        self.0
            .downcast_mut()
            .expect("prepared state fed back to the backend that produced it")
    }
}

/// An executable plan produced by a [`Backend`]: the three-phase
/// execution surface the serving layer drives. The phase split mirrors
/// the cusFFT pipeline (front half / batched FFTs / back half); host
/// backends complete their work in `prepare` and treat the FFT phase
/// as a no-op.
pub trait ExecutePlan: Send + Sync {
    /// Which backend built this plan.
    fn backend(&self) -> BackendKind;
    /// The sFFT parameters the plan was built for.
    fn params(&self) -> &SfftParams;
    /// The implementation tier.
    fn variant(&self) -> Variant;
    /// Auxiliary streams one execution wants (0 for host backends).
    fn num_streams(&self) -> usize;
    /// Front half: ingest `time` and run everything up to the batched
    /// FFT barrier. Includes the signal upload for device backends.
    fn prepare(
        &self,
        device: &GpuDevice,
        time: &[Cplx],
        seed: u64,
        streams: &ExecStreams,
    ) -> Result<PreparedState, CusFftError>;
    /// The batched-FFT barrier over every prepared request in `group`.
    fn run_batched_ffts(
        &self,
        device: &GpuDevice,
        group: &mut [&mut PreparedState],
        stream: StreamId,
    ) -> Result<(), CusFftError>;
    /// Back half: produce the sorted sparse spectrum and hit count.
    fn finish(
        &self,
        device: &GpuDevice,
        prep: &PreparedState,
        streams: &ExecStreams,
    ) -> Result<(Recovered, usize), CusFftError>;
    /// Pre-sizes per-worker scratch pools for a group of `group_size`
    /// same-shape requests, so steady-state acquisitions are free-list
    /// hits with zero `MemPool` traffic. Host backends (and backends
    /// without pooled scratch) need nothing.
    fn warm(
        &self,
        _device: &GpuDevice,
        _streams: &ExecStreams,
        _group_size: usize,
    ) -> Result<(), CusFftError> {
        Ok(())
    }
    /// Charges one aggregated host-to-device staging transfer for the
    /// group's combined signal payload of `bytes`, instead of paying
    /// per-request PCIe latency. Host backends transfer nothing.
    fn stage_group(
        &self,
        _device: &GpuDevice,
        _bytes: usize,
        _stream: StreamId,
    ) -> Result<(), CusFftError> {
        Ok(())
    }
    /// Back half over every surviving request of a group, letting the
    /// backend aggregate device-to-host transfers. Returns one result
    /// per entry of `preps`, in order. The default finishes requests
    /// one at a time.
    fn finish_group(
        &self,
        device: &GpuDevice,
        preps: &[&PreparedState],
        streams: &ExecStreams,
    ) -> Vec<Result<(Recovered, usize), CusFftError>> {
        preps
            .iter()
            .map(|p| self.finish(device, p, streams))
            .collect()
    }
}

/// An execution backend: builds [`ExecutePlan`]s for plan keys and
/// prices requests for the admission-control layer.
pub trait Backend: Send + Sync {
    /// The kind this backend registers as.
    fn kind(&self) -> BackendKind;
    /// The backend's capability report (deterministic across calls).
    fn capabilities(&self) -> BackendCaps;
    /// Builds the plan for `key` — default tuning for
    /// [`ServeQos::Full`], [`Tuning::degraded`] for
    /// [`ServeQos::Degraded`]. `device` hosts plan-lifetime state
    /// (filter uploads) for device backends.
    fn build_plan(&self, device: &Arc<GpuDevice>, key: PlanKey) -> Arc<dyn ExecutePlan>;
    /// Predicted service seconds for one request under `params`, used
    /// by the overload layer's deadline/queue admission model. Must be
    /// a pure function of its arguments.
    fn estimate_cost(&self, model_dev: &GpuDevice, spec: &DeviceSpec, params: &SfftParams) -> f64;
}

/// The tuning a key's QoS tier asks for.
fn tuning_for(qos: ServeQos) -> Tuning {
    match qos {
        ServeQos::Full => Tuning::default(),
        ServeQos::Degraded => Tuning::default().degraded(),
    }
}

fn params_for(key: PlanKey) -> Arc<SfftParams> {
    Arc::new(SfftParams::with_tuning(key.n, key.k, tuning_for(key.qos)))
}

// ---------------------------------------------------------------------
// GpuSimBackend
// ---------------------------------------------------------------------

/// The cusFFT pipeline on the simulated device — the current (and
/// default) serving path.
#[derive(Debug, Default, Clone, Copy)]
pub struct GpuSimBackend {
    /// Forces the permutation remap kernel for plans this backend
    /// builds. `None` (the default) lets each plan pick by modeled
    /// DRAM-transaction count (see `choose_remap`); the differential
    /// suite pins both forced variants bit-identical.
    pub remap: Option<RemapKind>,
}

/// Prepared state of the GPU path: the device-resident signal (kept
/// alive so its memory reservation spans the whole attempt) plus the
/// filtered bucket buffers. The signal is drawn from the worker arena,
/// so in steady state its upload is a free-list hit.
struct GpuPrepared {
    _signal: gpu_sim::PooledBuffer<Cplx>,
    prep: PreparedRequest,
}

impl ExecutePlan for CusFft {
    fn backend(&self) -> BackendKind {
        BackendKind::GpuSim
    }

    fn params(&self) -> &SfftParams {
        CusFft::params(self)
    }

    fn variant(&self) -> Variant {
        CusFft::variant(self)
    }

    fn num_streams(&self) -> usize {
        CusFft::num_streams(self)
    }

    fn prepare(
        &self,
        device: &GpuDevice,
        time: &[Cplx],
        seed: u64,
        streams: &ExecStreams,
    ) -> Result<PreparedState, CusFftError> {
        // Signal upload first (memory reserved; the PCIe cost is charged
        // group-wide by `stage_group`), then the front half.
        let signal = device.try_resident_pooled(&streams.arena.cplx, time, streams.main)?;
        let prep = CusFft::prepare(self, device, &signal, seed, streams)?;
        Ok(PreparedState::new(GpuPrepared {
            _signal: signal,
            prep,
        }))
    }

    fn run_batched_ffts(
        &self,
        device: &GpuDevice,
        group: &mut [&mut PreparedState],
        stream: StreamId,
    ) -> Result<(), CusFftError> {
        let mut preps: Vec<&mut PreparedRequest> = group
            .iter_mut()
            .map(|s| &mut s.downcast_mut::<GpuPrepared>().prep)
            .collect();
        CusFft::run_batched_ffts(self, device, &mut preps, stream)
    }

    fn finish(
        &self,
        device: &GpuDevice,
        prep: &PreparedState,
        streams: &ExecStreams,
    ) -> Result<(Recovered, usize), CusFftError> {
        CusFft::finish(
            self,
            device,
            &prep.downcast_ref::<GpuPrepared>().prep,
            streams,
        )
    }

    fn warm(
        &self,
        device: &GpuDevice,
        streams: &ExecStreams,
        group_size: usize,
    ) -> Result<(), CusFftError> {
        CusFft::warm_arena(self, device, streams, group_size)
    }

    fn stage_group(
        &self,
        device: &GpuDevice,
        bytes: usize,
        stream: StreamId,
    ) -> Result<(), CusFftError> {
        device.try_charge_htod("htod_group", bytes, stream)?;
        Ok(())
    }

    fn finish_group(
        &self,
        device: &GpuDevice,
        preps: &[&PreparedState],
        streams: &ExecStreams,
    ) -> Vec<Result<(Recovered, usize), CusFftError>> {
        // Per-request device compute first; then the two result
        // transfers (hit indices + values) are concatenated across the
        // group and copied back as one D2H pair, replacing per-request
        // PCIe round-trips.
        let computed: Vec<Result<ComputedRequest, CusFftError>> = preps
            .iter()
            .map(|p| {
                CusFft::finish_compute(self, device, &p.downcast_ref::<GpuPrepared>().prep, streams)
            })
            .collect();
        // Per-constituent buffers through a grouped transfer: PCIe is
        // charged once for the aggregate, but fault/corruption gates
        // roll per request — batching must not launder SDC exposure.
        let survivors: Vec<&ComputedRequest> = computed.iter().flatten().collect();
        let hits_bufs: Vec<&DeviceBuffer<u32>> = survivors.iter().map(|fc| &fc.hits_buf).collect();
        let vals_bufs: Vec<DeviceBuffer<Cplx>> = survivors
            .iter()
            .map(|fc| DeviceBuffer::from_host(&fc.vals))
            .collect();
        let vals_refs: Vec<&DeviceBuffer<Cplx>> = vals_bufs.iter().collect();
        let vals_host = device
            .try_dtoh_group(&hits_bufs, streams.main)
            .and_then(|_| device.try_dtoh_group(&vals_refs, streams.main));
        let vals_host = match vals_host {
            Ok(v) => v,
            Err(e) => {
                // A group-wide transfer failure fails every request
                // whose compute survived; compute failures keep their
                // own (earlier) error.
                let e: CusFftError = e.into();
                return computed
                    .into_iter()
                    .map(|fc| fc.and(Err(e.clone())))
                    .collect();
            }
        };
        let mut per_req = vals_host.into_iter();
        computed
            .into_iter()
            .zip(preps.iter())
            .map(|(fc, p)| {
                let fc = fc?;
                let vals = per_req.next().expect("one transfer per survivor");
                CusFft::finish_resolve(
                    self,
                    device,
                    &p.downcast_ref::<GpuPrepared>().prep,
                    &fc.hits,
                    vals,
                )
            })
            .collect()
    }
}

impl Backend for GpuSimBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::GpuSim
    }

    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            kind: BackendKind::GpuSim,
            exact_vs_direct: true,
            uses_device: true,
            batched_ffts: true,
            oracle_bound: ORACLE_BOUND_SFFT,
        }
    }

    fn build_plan(&self, device: &Arc<GpuDevice>, key: PlanKey) -> Arc<dyn ExecutePlan> {
        let mut plan = CusFft::new(Arc::clone(device), params_for(key), key.variant);
        if let Some(kind) = self.remap {
            plan = plan.with_remap(kind);
        }
        Arc::new(plan)
    }

    fn estimate_cost(&self, model_dev: &GpuDevice, spec: &DeviceSpec, p: &SfftParams) -> f64 {
        // The overload layer's analytic service model: both batched cuFFT
        // sides (×2 for the surrounding kernels, calibrated against the
        // step breakdown) plus the input transfer.
        2.0 * (cufft_model_time(model_dev, p.b_loc, p.loops_loc)
            + cufft_model_time(model_dev, p.b_est, p.loops_est))
            + transfer_time(spec, p.n * std::mem::size_of::<Cplx>())
    }
}

// ---------------------------------------------------------------------
// SfftCpuBackend
// ---------------------------------------------------------------------

/// The CPU reference sFFT as an execution backend. Host-only: the one
/// timeline op it enqueues is an infallible zero-duration host marker,
/// so injected device faults cannot reach it — which is exactly why the
/// serving layer re-routes fault-exhausted requests here.
#[derive(Debug, Default, Clone, Copy)]
pub struct SfftCpuBackend;

/// Per-coefficient ℓ1 bound vs. the dense oracle for the sFFT
/// recoveries (GPU and CPU alike), matching the accuracy floor pinned
/// by the end-to-end tests (`l1_error_per_coeff < 1e-3`).
pub const ORACLE_BOUND_SFFT: f64 = 1e-3;

/// Abstract host operations per second the admission pricer assumes
/// when converting [`SfftParams::host_work_estimate`] to seconds.
const HOST_OP_RATE: f64 = 1e9;

struct CpuPlan {
    params: Arc<SfftParams>,
    variant: Variant,
}

/// Spectrum computed eagerly in `prepare` by a host backend.
struct HostRecovered(Recovered);

impl SfftCpuBackend {
    /// The backend's pure computation, callable without a plan or a
    /// registry: the CPU reference recovery for `(params, time, seed)`.
    /// The serving layer's fallback and worker-loss recovery paths use
    /// this directly (bit-identical to serving through the backend) so
    /// they never touch the plan cache from worker threads.
    pub fn reference(params: &SfftParams, time: &[Cplx], seed: u64) -> Recovered {
        sfft_cpu::sfft(params, time, seed)
    }
}

impl ExecutePlan for CpuPlan {
    fn backend(&self) -> BackendKind {
        BackendKind::SfftCpu
    }

    fn params(&self) -> &SfftParams {
        &self.params
    }

    fn variant(&self) -> Variant {
        self.variant
    }

    fn num_streams(&self) -> usize {
        0
    }

    fn prepare(
        &self,
        device: &GpuDevice,
        time: &[Cplx],
        seed: u64,
        streams: &ExecStreams,
    ) -> Result<PreparedState, CusFftError> {
        if time.len() != self.params.n {
            return Err(CusFftError::BadRequest {
                reason: format!(
                    "signal length {} must match params.n {}",
                    time.len(),
                    self.params.n
                ),
            });
        }
        // One infallible host marker keeps the execution visible on the
        // merged timeline without rolling any fault gates.
        device.charge_host_op("sfft_cpu", 0.0, streams.main);
        Ok(PreparedState::new(HostRecovered(
            SfftCpuBackend::reference(&self.params, time, seed),
        )))
    }

    fn run_batched_ffts(
        &self,
        _device: &GpuDevice,
        _group: &mut [&mut PreparedState],
        _stream: StreamId,
    ) -> Result<(), CusFftError> {
        Ok(())
    }

    fn finish(
        &self,
        _device: &GpuDevice,
        prep: &PreparedState,
        _streams: &ExecStreams,
    ) -> Result<(Recovered, usize), CusFftError> {
        let rec = &prep.downcast_ref::<HostRecovered>().0;
        Ok((rec.clone(), rec.len()))
    }
}

impl Backend for SfftCpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::SfftCpu
    }

    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            kind: BackendKind::SfftCpu,
            exact_vs_direct: true,
            uses_device: false,
            batched_ffts: false,
            oracle_bound: ORACLE_BOUND_SFFT,
        }
    }

    fn build_plan(&self, _device: &Arc<GpuDevice>, key: PlanKey) -> Arc<dyn ExecutePlan> {
        Arc::new(CpuPlan {
            params: params_for(key),
            variant: key.variant,
        })
    }

    fn estimate_cost(&self, _model_dev: &GpuDevice, _spec: &DeviceSpec, p: &SfftParams) -> f64 {
        p.host_work_estimate() / HOST_OP_RATE
    }
}

// ---------------------------------------------------------------------
// DenseFftBackend
// ---------------------------------------------------------------------

/// The brute-force oracle: a full dense FFT whose `k` largest
/// coefficients ([`fft::Plan::forward_coefficients`], the same
/// convention sFFT recovers in) are the ground truth the sparse
/// recoveries are judged against.
#[derive(Debug, Default, Clone, Copy)]
pub struct DenseFftBackend;

struct DensePlan {
    params: Arc<SfftParams>,
    variant: Variant,
    fft: fft::Plan,
}

impl ExecutePlan for DensePlan {
    fn backend(&self) -> BackendKind {
        BackendKind::DenseFft
    }

    fn params(&self) -> &SfftParams {
        &self.params
    }

    fn variant(&self) -> Variant {
        self.variant
    }

    fn num_streams(&self) -> usize {
        0
    }

    fn prepare(
        &self,
        device: &GpuDevice,
        time: &[Cplx],
        _seed: u64,
        streams: &ExecStreams,
    ) -> Result<PreparedState, CusFftError> {
        if time.len() != self.params.n {
            return Err(CusFftError::BadRequest {
                reason: format!(
                    "signal length {} must match params.n {}",
                    time.len(),
                    self.params.n
                ),
            });
        }
        device.charge_host_op("dense_fft", 0.0, streams.main);
        let spectrum = self.fft.forward_coefficients(time);
        // Top-k by magnitude, ties broken low-frequency-first so the
        // selection is total-ordered and deterministic.
        let mut order: Vec<usize> = (0..spectrum.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            spectrum[b]
                .abs()
                .partial_cmp(&spectrum[a].abs())
                .expect("finite magnitudes")
                .then(a.cmp(&b))
        });
        order.truncate(self.params.k);
        order.sort_unstable();
        let recovered: Recovered = order.into_iter().map(|f| (f, spectrum[f])).collect();
        Ok(PreparedState::new(HostRecovered(recovered)))
    }

    fn run_batched_ffts(
        &self,
        _device: &GpuDevice,
        _group: &mut [&mut PreparedState],
        _stream: StreamId,
    ) -> Result<(), CusFftError> {
        Ok(())
    }

    fn finish(
        &self,
        _device: &GpuDevice,
        prep: &PreparedState,
        _streams: &ExecStreams,
    ) -> Result<(Recovered, usize), CusFftError> {
        let rec = &prep.downcast_ref::<HostRecovered>().0;
        Ok((rec.clone(), rec.len()))
    }
}

impl Backend for DenseFftBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::DenseFft
    }

    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            kind: BackendKind::DenseFft,
            exact_vs_direct: true,
            uses_device: false,
            batched_ffts: false,
            oracle_bound: 0.0,
        }
    }

    fn build_plan(&self, _device: &Arc<GpuDevice>, key: PlanKey) -> Arc<dyn ExecutePlan> {
        Arc::new(DensePlan {
            params: params_for(key),
            variant: key.variant,
            fft: fft::Plan::new(key.n),
        })
    }

    fn estimate_cost(&self, _model_dev: &GpuDevice, _spec: &DeviceSpec, p: &SfftParams) -> f64 {
        let n = p.n as f64;
        n * n.log2().max(1.0) / HOST_OP_RATE
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// A [`BackendKind`]-keyed registry of backends — one `Arc<dyn
/// Backend>` slot per kind, first registration wins (the wasi-nn
/// shape: a fixed enum of kinds, dynamic implementations behind them).
pub struct BackendRegistry {
    slots: [Option<Arc<dyn Backend>>; 3],
}

impl BackendRegistry {
    /// A registry with no backends.
    pub fn empty() -> Self {
        BackendRegistry {
            slots: [None, None, None],
        }
    }

    /// A registry with all three stock backends registered.
    pub fn with_defaults() -> Self {
        let mut r = Self::empty();
        r.register(Arc::new(GpuSimBackend::default()));
        r.register(Arc::new(SfftCpuBackend));
        r.register(Arc::new(DenseFftBackend));
        r
    }

    /// Registers `backend` under its own kind. Registration is
    /// idempotent with first-wins semantics: returns `true` if the
    /// slot was empty, `false` (leaving the existing backend in place)
    /// if the kind was already registered.
    pub fn register(&mut self, backend: Arc<dyn Backend>) -> bool {
        let slot = &mut self.slots[backend.kind().slot()];
        if slot.is_some() {
            return false;
        }
        *slot = Some(backend);
        true
    }

    /// The backend registered for `kind`, if any. Total for registered
    /// kinds: never fails once `register` returned for that kind.
    pub fn get(&self, kind: BackendKind) -> Option<&Arc<dyn Backend>> {
        self.slots[kind.slot()].as_ref()
    }

    /// The kinds currently registered, in slot order.
    pub fn kinds(&self) -> Vec<BackendKind> {
        BackendKind::all()
            .into_iter()
            .filter(|k| self.get(*k).is_some())
            .collect()
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

// ---------------------------------------------------------------------
// Device provisioning + direct execution
// ---------------------------------------------------------------------

/// The serving layer's home device: plan-lifetime state only (filter
/// uploads), never executed on, never faulted.
pub fn home_device(spec: &DeviceSpec) -> Arc<GpuDevice> {
    Arc::new(GpuDevice::with_fault_plan(spec.clone(), None))
}

/// A fresh private device for one worker or group execution, with the
/// engine's fault plan (if any) pre-installed.
pub fn worker_device(spec: &DeviceSpec, faults: Option<&FaultConfig>) -> GpuDevice {
    GpuDevice::with_fault_plan(spec.clone(), faults.cloned())
}

/// Executes `plan` once on a fresh fault-free device — the
/// single-request reference path the conformance suite compares served
/// spectra against. Bit-identical to serving the same request on a
/// clean engine: recovery depends only on `(params, time, seed)`, not
/// on stream ids or batch mates.
pub fn execute_direct(
    plan: &dyn ExecutePlan,
    spec: &DeviceSpec,
    time: &[Cplx],
    seed: u64,
) -> Result<Recovered, CusFftError> {
    let device = worker_device(spec, None);
    let streams = ExecStreams::on_device(&device, plan.num_streams());
    let mut prep = plan.prepare(&device, time, seed, &streams)?;
    plan.run_batched_ffts(&device, &mut [&mut prep], streams.main)?;
    let (recovered, _) = plan.finish(&device, &prep, &streams)?;
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::{MagnitudeModel, SparseSignal};

    #[test]
    fn kinds_round_trip_through_codes_and_labels() {
        for kind in BackendKind::all() {
            assert_eq!(cusfft_telemetry::backend_label(kind.code()), kind.label());
        }
        assert_eq!(BackendKind::default(), BackendKind::GpuSim);
    }

    #[test]
    fn default_registry_holds_all_three() {
        let r = BackendRegistry::default();
        assert_eq!(r.kinds(), BackendKind::all().to_vec());
        for kind in BackendKind::all() {
            assert_eq!(r.get(kind).unwrap().kind(), kind);
        }
    }

    #[test]
    fn dense_oracle_recovers_exact_support() {
        let n = 1 << 10;
        let k = 4;
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 7);
        let r = BackendRegistry::default();
        let spec = gpu_sim::DeviceSpec::tesla_k20x();
        let home = home_device(&spec);
        let key = PlanKey {
            n,
            k,
            variant: Variant::Optimized,
            qos: ServeQos::Full,
            backend: BackendKind::DenseFft,
        };
        let plan = r.get(BackendKind::DenseFft).unwrap().build_plan(&home, key);
        let rec = execute_direct(&*plan, &spec, &s.time, 3).unwrap();
        let support: Vec<usize> = rec.iter().map(|&(f, _)| f).collect();
        let mut want: Vec<usize> = s.coords.iter().map(|&(f, _)| f).collect();
        want.sort_unstable();
        assert_eq!(support, want);
        for (f, v) in &s.coords {
            let (_, got) = rec.iter().find(|(rf, _)| rf == f).unwrap();
            assert!(v.dist(*got) < 1e-9, "f={f}: {v:?} vs {got:?}");
        }
    }

    #[test]
    fn cost_estimates_are_positive_and_scale() {
        let spec = gpu_sim::DeviceSpec::tesla_k20x();
        let model = GpuDevice::new(spec.clone());
        let small = SfftParams::tuned(1 << 10, 4);
        let large = SfftParams::tuned(1 << 14, 16);
        for backend in [
            Arc::new(GpuSimBackend::default()) as Arc<dyn Backend>,
            Arc::new(SfftCpuBackend),
            Arc::new(DenseFftBackend),
        ] {
            let a = backend.estimate_cost(&model, &spec, &small);
            let b = backend.estimate_cost(&model, &spec, &large);
            assert!(a > 0.0 && b > a, "{:?}: {a} vs {b}", backend.kind());
        }
    }
}
