//! # `cusfft` — the paper's contribution: a sparse FFT on the (simulated) GPU
//!
//! This crate implements cusFFT (Wang, Chandrasekaran, Chapman — IPDPS
//! 2016) against the CUDA-shaped execution model in `gpu-sim`:
//!
//! * [`perm_filter`] — Algorithms 1-2 (index mapping, loop partition) and
//!   the Section V asynchronous data-layout transformation;
//! * [`cufft`] — the batched/dense cuFFT stand-in with a Kepler cost model;
//! * [`cutoff`] — Algorithm 3 (Thrust sort&select) and Algorithm 6 (fast
//!   k-selection);
//! * [`locate`] — Algorithm 4 (reverse-hash voting);
//! * [`reconstruct`] — Algorithm 5 (median magnitude reconstruction);
//! * [`pipeline`] — the full [`CusFft`] plan with [`Variant::Baseline`]
//!   and [`Variant::Optimized`] tiers (the two cusFFT curves of Figure 5);
//! * [`report`] — step-level timing breakdowns;
//! * [`plan_cache`] / [`serve`] — the concurrent serving layer: a keyed
//!   LRU plan cache and sharded multi-stream batch dispatch
//!   ([`ServeEngine`]), with cross-request cuFFT batching;
//! * [`overload`] — overload robustness for the serving layer:
//!   admission control with deadlines, brownout QoS, a per-device
//!   circuit breaker, straggler hedging and result-integrity
//!   verification ([`ServeEngine::serve_overload`]);
//! * [`observe`] — unified telemetry over a [`ServeReport`]: the
//!   structured span tree, the metrics registry, and Chrome/Perfetto
//!   trace export (built on the `cusfft-telemetry` crate);
//! * [`backend`] — pluggable execution backends behind a wasi-nn-style
//!   registry ([`BackendRegistry`]): the simulated-GPU pipeline, the
//!   CPU reference sFFT, and a dense-FFT oracle, all served through
//!   one [`Backend`]/[`ExecutePlan`] contract;
//! * [`fleet`] — heterogeneous device fleets over the serving layer:
//!   deterministic fault-domain routing, device-loss failover onto
//!   pre-reserved standby slabs, drain/recovery quarantine and
//!   capacity brownout ([`DeviceFleet`]);
//! * [`journal`] — crash-consistent serving: a write-ahead request
//!   journal with epoch checkpoints and exactly-once restart
//!   ([`ServeEngine::serve_journaled`] / [`ServeEngine::resume_from`]);
//! * [`audit`] — the policy flight recorder: every serving-policy
//!   decision as a causally-linked structured event, with
//!   [`explain`] decision chains, derived terminal
//!   causes, and multi-window SLO burn-rate alerting;
//! * [`chaos`] — a deterministic chaos explorer sweeping fault seeds,
//!   rate grids, host-crash epochs and fleet device loss, checking a
//!   reusable invariant suite and shrinking any violation to a minimal
//!   replayable schedule ([`explore`]).
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use cusfft::{CusFft, Variant};
//! use gpu_sim::GpuDevice;
//! use sfft_cpu::SfftParams;
//! use signal::{MagnitudeModel, SparseSignal};
//!
//! let n = 1 << 12;
//! let k = 8;
//! let signal = SparseSignal::generate(n, k, MagnitudeModel::Unit, 1);
//! let plan = CusFft::new(
//!     Arc::new(GpuDevice::k20x()),
//!     Arc::new(SfftParams::tuned(n, k)),
//!     Variant::Optimized,
//! );
//! let out = plan.execute(&signal.time, 42);
//! assert!(signal.coords.iter().all(|&(f, _)|
//!     out.recovered.iter().any(|&(g, _)| g == f)));
//! println!("simulated device time: {:.3} ms", out.sim_time * 1e3);
//! ```

pub mod arena;
pub mod audit;
pub mod backend;
pub mod chaos;
pub mod cufft;
pub mod cutoff;
pub mod error;
pub mod fleet;
pub mod journal;
pub mod locate;
pub mod observe;
pub mod overload;
pub mod perm_filter;
pub mod pipeline;
pub mod plan_cache;
pub mod reconstruct;
pub mod report;
pub mod serve;
mod serve_core;

pub use arena::{ArenaStats, ExecArena};
pub use audit::{
    derive_cause, explain, is_root_kind, AuditLog, AuditReport, BurnWindow, DecisionChain,
    SloAlert, SloConfig, SloReport,
};
pub use backend::{
    execute_direct, Backend, BackendCaps, BackendKind, BackendRegistry, DenseFftBackend,
    ExecutePlan, GpuSimBackend, SfftCpuBackend,
};
pub use chaos::{
    chaos_space, check_outcome_bijection, explore, shrink, ChaosOutcome, ChaosReport,
    ChaosSchedule, ChaosSpace, InvariantViolation,
};
pub use cufft::{batched_fft_rows, cufft_dense_baseline, cufft_model_time};
pub use error::CusFftError;
pub use fleet::{DeviceFleet, FleetConfig, FleetDeviceInfo, FleetMemberConfig, FleetTally};
pub use journal::{
    batch_fingerprint, Journal, JournalOptions, JournalRecord, JournalRun, JournalStats,
    JournalTally, ServeCrash,
};
pub use overload::{nominal_service, LatencyStats, OverloadConfig, OverloadTally, TimedRequest};
pub use perm_filter::{choose_remap, chunk_plan, ChunkPlan, RemapChoice, RemapKind};
pub use pipeline::{
    residual_tolerance, CusFft, CusFftOutput, ExecStreams, HostPhaseWalls, Variant,
};
pub use plan_cache::{CacheStats, PlanCache, PlanKey, ServeQos};
pub use report::StepBreakdown;
pub use serve::{
    FaultTally, GroupInfo, KernelRollup, PathLatency, PoolTally, RequestOutcome, ServeConfig,
    ServeEngine, ServePath, ServeReport, ServeRequest, ServeResponse, ServeTimeline,
};
