//! # `bench` — the reproduction harness
//!
//! One runner per table and figure of the paper's evaluation (Section VI),
//! plus ablations for the Section V design choices. The `reproduce`
//! binary drives these and prints the same rows/series the paper reports.
//! The two criterion benches under `benches/` (`selection`,
//! `fft_substrate`) take the CPU wall-clock measurements nothing else
//! does; host-clock costs of the pipeline and serving are perfbench's.
//!
//! * [`experiments::fig2a`] / [`experiments::fig2b`] — per-step profiles;
//! * [`experiments::fig5a`] / [`experiments::fig5b`] — runtime sweeps;
//! * [`experiments::fig5f`] — L1 error vs sparsity;
//! * [`experiments::filter_ablation`] / [`experiments::selection_ablation`]
//!   / [`experiments::batched_fft_ablation`] — Section V ablations;
//! * [`table`] — aligned-table + CSV output; [`host`] — Table II helpers;
//! * [`regress`] — the `check-regression` gate over the checked-in
//!   `BENCH_*.json` baselines.

pub mod audit;
pub mod experiments;
pub mod host;
pub mod regress;
pub mod table;
pub mod telemetry;
pub mod viz;

pub use audit::{audit_artifacts, audit_exports, AuditArtifacts};
pub use experiments::{
    backend_sweep, batched_fft_ablation, breaker_vs_retry, chaos_sweep, comb_ablation,
    device_sweep, fig2_gpu, fig2a, fig2b, fig5a, fig5b, fig5f, filter_ablation, fleet_sweep,
    host_parallel_bench, host_parallel_point, noise_sweep, overload_policy, overload_sweep,
    overload_trace, runtime_point, selection_ablation, serve_requests, serve_sweep,
    throughput_sweep, BackendPoint, ChaosSweep, CombAblation, FilterAblation, FleetPoint,
    GpuProfileRow, HostParallelPoint, NoisePoint, OverloadPoint, ProfileRow, RuntimePoint,
    SelectionAblation, ServePoint, ThroughputPoint,
};
pub use regress::check_file;
pub use table::{fmt_ratio, fmt_secs, Table};
pub use telemetry::{telemetry_artifacts, TelemetryArtifacts};
pub use viz::{render_chart, Series};
