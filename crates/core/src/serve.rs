//! `cusfft::serve` — a concurrent, fault-tolerant batch-serving layer
//! over the pipeline.
//!
//! A server receives many sparse-FFT requests over a handful of signal
//! geometries. Three mechanisms (mirroring what the paper's batching and
//! multi-stream sections do *within* one transform, lifted to the request
//! level) make that cheap:
//!
//! 1. **Plan caching** ([`PlanCache`]): one [`ExecutePlan`] per
//!    `(n, k, variant, qos, backend)`, shared across requests and
//!    worker threads.
//! 2. **Cross-request cuFFT batching**: all requests with the same plan
//!    are prepared together and their subsampled FFTs ride in a single
//!    batched cuFFT launch per bucket geometry
//!    ([`ExecutePlan::run_batched_ffts`]) — "compute cuFFT only once",
//!    amortised across requests as well as inner loops.
//! 3. **Sharded multi-stream dispatch**: geometry groups are dealt
//!    round-robin to worker threads, each owning a private stream family
//!    on the simulated device, so independent groups overlap on the
//!    simulated timeline exactly as concurrent streams overlap on real
//!    hardware (paper Fig. 4).
//!
//! Execution itself is pluggable: every request names a
//! [`BackendKind`], the engine resolves it through its
//! [`BackendRegistry`] (never constructing device pipelines or CPU
//! reference paths directly), and requests for different backends land
//! in different plan groups. See [`crate::backend`].
//!
//! ## Fault tolerance
//!
//! With a [`FaultConfig`] installed ([`ServeConfig::faults`]) the worker
//! devices inject deterministic faults (OOM, transfer failures, launch
//! failures/timeouts, detected ECC errors — see `gpu_sim::fault`), and
//! the engine recovers per request:
//!
//! * **Request isolation** — a request whose prepare/finish fails is
//!   evicted from its batch group; the group's surviving requests still
//!   share one batched cuFFT. A failed *batched* launch defers every
//!   survivor (no row was transformed, so re-preparing is safe).
//! * **Bounded retry** — evicted requests re-run individually, up to
//!   [`ServeConfig::max_retries`] attempts, each preceded by a
//!   deterministic exponential backoff charged to the timeline as a host
//!   op (which contends for no device resource).
//! * **Backend re-routing** — when retries are exhausted and
//!   [`ServeConfig::cpu_fallback`] is on, the request is re-routed to
//!   the [`SfftCpuBackend`] ([`ServePath::Cpu`],
//!   [`ServeResponse::backend`] = [`BackendKind::SfftCpu`]); otherwise
//!   it fails with a typed [`CusFftError`]. Degradation is ordinary
//!   backend selection, not a bolted-on special case.
//! * **Panic containment** — per-request work runs under `catch_unwind`,
//!   so a panicking request degrades like any fault; a lost worker thread
//!   fails over to the engine thread, which serves its requests on the
//!   CPU path.
//!
//! Determinism is load-bearing: outputs *and* the simulated timeline are
//! functions of `(requests, config)` alone — including the fault seed —
//! independent of OS thread scheduling and host pool width. Execution
//! itself lives in the serving core (`serve_core`), which every entry
//! point shares.
//!
//! [`ExecutePlan`]: crate::backend::ExecutePlan
//! [`ExecutePlan::run_batched_ffts`]: crate::backend::ExecutePlan::run_batched_ffts
//! [`SfftCpuBackend`]: crate::backend::SfftCpuBackend

use std::sync::Arc;

use fft::cplx::Cplx;
use gpu_sim::{ConcurrencyProfile, DeviceSpec, FaultConfig, GpuDevice};
use signal::Recovered;

use crate::backend::{home_device, BackendKind, BackendRegistry};
use crate::error::CusFftError;
use crate::overload::{LatencyStats, OverloadTally};
use crate::pipeline::Variant;
use crate::plan_cache::{CacheStats, PlanCache, PlanKey, ServeQos};

/// One sparse-FFT request: a signal plus the geometry to serve it under.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Time-domain signal; its length is the `n` of the plan key.
    pub time: Vec<Cplx>,
    /// Expected sparsity.
    pub k: usize,
    /// Implementation tier.
    pub variant: Variant,
    /// Seed for the request's random permutations.
    pub seed: u64,
    /// Execution backend to serve this request on — a per-request QoS
    /// policy, resolved through the engine's [`BackendRegistry`].
    pub backend: BackendKind,
}

impl ServeRequest {
    /// A request on the default backend ([`BackendKind::GpuSim`]).
    pub fn new(time: Vec<Cplx>, k: usize, variant: Variant, seed: u64) -> Self {
        ServeRequest {
            time,
            k,
            variant,
            seed,
            backend: BackendKind::GpuSim,
        }
    }

    /// Routes the request to `backend`.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// The cache key this request resolves to at full QoS. The overload
    /// path may re-key onto [`ServeQos::Degraded`] under queue pressure.
    pub fn plan_key(&self) -> PlanKey {
        PlanKey {
            n: self.time.len(),
            k: self.k,
            variant: self.variant,
            qos: ServeQos::Full,
            backend: self.backend,
        }
    }
}

/// Serving-engine settings.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads (each owns a private stream family). Must be ≥ 1.
    ///
    /// Workers are *orchestration* threads: the compute inside each
    /// request (block execution, batched FFT rows, CPU baselines) runs on
    /// the single process-wide host pool behind the vendored `rayon`
    /// (sized by `CUSFFT_HOST_THREADS`, default the logical CPU count
    /// capped at 16).
    /// `workers × pool threads` therefore never multiplies into
    /// oversubscription — all workers' parallel calls queue on the same
    /// pool — so `workers` should be sized for stream-overlap shape
    /// (number of independent geometry groups), not for host cores.
    pub workers: usize,
    /// LRU bound on the plan cache.
    pub cache_capacity: usize,
    /// Deterministic fault plan installed on every worker device; `None`
    /// serves fault-free.
    pub faults: Option<FaultConfig>,
    /// Individual retry attempts per evicted request before degrading.
    pub max_retries: u32,
    /// Re-route exhausted requests to the
    /// [`SfftCpuBackend`](crate::backend::SfftCpuBackend) instead of
    /// failing them.
    pub cpu_fallback: bool,
    /// Record the policy flight recorder ([`crate::audit`]): every
    /// serving-policy decision lands in [`ServeReport::audit`] as a
    /// causally-linked event, plus derived terminal causes and SLO
    /// burn-rate alerts. Off by default so unaudited reports (and their
    /// golden telemetry exports) are byte-identical to before.
    pub audit: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            cache_capacity: 8,
            faults: None,
            max_retries: 2,
            cpu_fallback: true,
            audit: false,
        }
    }
}

/// Which execution path produced a response. Orthogonal to
/// [`ServeResponse::backend`]: the path says *how the engine got there*
/// (first batch attempt, after retries, or fallback re-route), the
/// backend says *what executed*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServePath {
    /// First-attempt batch path on the request's own backend.
    Gpu,
    /// The request's own backend, after one or more individual retries.
    GpuRetry,
    /// Fallback re-route to the
    /// [`SfftCpuBackend`](crate::backend::SfftCpuBackend) after retries were
    /// exhausted (or a worker was lost).
    Cpu,
}

impl ServePath {
    /// Stable label used as a telemetry dimension.
    pub fn label(self) -> &'static str {
        match self {
            ServePath::Gpu => "gpu",
            ServePath::GpuRetry => "gpu_retry",
            ServePath::Cpu => "cpu",
        }
    }
}

/// Result for one request, in the order the requests were submitted.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// Recovered `(frequency, coefficient)` pairs, sorted by frequency —
    /// bit-identical to `CusFft::execute` on the same `(signal, seed)`
    /// for the GPU paths.
    pub recovered: Recovered,
    /// Number of located frequencies before estimation.
    pub num_hits: usize,
    /// The path that produced this response.
    pub path: ServePath,
    /// The accuracy tier the request was served at ([`ServeQos::Full`]
    /// everywhere except the overload path's brownout mode).
    pub qos: ServeQos,
    /// The backend that actually executed the request — the request's
    /// own [`ServeRequest::backend`] on the GPU paths,
    /// [`BackendKind::SfftCpu`] after a fallback re-route.
    pub backend: BackendKind,
}

/// Terminal outcome of one request. Requests fail individually; one bad
/// request never takes down its batch. The rejection variants
/// ([`RequestOutcome::Shed`], [`RequestOutcome::DeadlineExceeded`]) only
/// arise on the overload path ([`ServeEngine::serve_overload`]), which
/// refuses work *before* it touches the device — distinguishable from
/// [`RequestOutcome::Failed`], which means recovery was attempted and
/// exhausted.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// The request completed; see [`ServeResponse::path`] for how.
    Done(ServeResponse),
    /// The request failed after exhausting recovery.
    Failed {
        /// The last error recovery saw.
        error: CusFftError,
        /// Individual retry attempts made before giving up (`0` when the
        /// request never reached execution, e.g. failed validation).
        after_attempts: u32,
    },
    /// Admission control rejected the request: the queue was full at its
    /// arrival time. The request never executed.
    Shed {
        /// Predicted queue depth at the request's arrival.
        queue_depth: usize,
    },
    /// Admission control rejected the request: it could not finish
    /// within its deadline even at the front of the predicted queue. The
    /// request never executed.
    DeadlineExceeded {
        /// Predicted completion latency (seconds after arrival).
        predicted: f64,
        /// The request's deadline (seconds after arrival).
        deadline: f64,
    },
}

impl RequestOutcome {
    /// The response, if the request completed.
    pub fn response(&self) -> Option<&ServeResponse> {
        match self {
            RequestOutcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// The error, if the request failed after attempting execution.
    pub fn error(&self) -> Option<&CusFftError> {
        match self {
            RequestOutcome::Failed { error, .. } => Some(error),
            _ => None,
        }
    }

    /// Whether admission control rejected the request before execution
    /// (shed or past-deadline).
    pub fn is_rejected(&self) -> bool {
        matches!(
            self,
            RequestOutcome::Shed { .. } | RequestOutcome::DeadlineExceeded { .. }
        )
    }
}

/// Fault/recovery counters for one [`ServeEngine::serve_batch`] call.
/// Deterministic: a function of `(requests, config)`, invariant under
/// the worker count and host pool width.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Faults the devices injected (every class, every attempt).
    pub injected: u64,
    /// Individual retry attempts performed.
    pub retries: u64,
    /// Requests evicted from their batch group to the individual path.
    pub evictions: u64,
    /// Requests completed on the CPU fallback path.
    pub cpu_fallbacks: u64,
    /// Requests that terminally failed.
    pub failed: u64,
    /// Panics contained (per-request boundaries and lost workers).
    pub worker_panics: u64,
    /// Silent-data-corruption events caught by the sampled residual
    /// check (each one routed into retry/CPU recovery like a fault).
    pub sdc_detected: u64,
}

impl FaultTally {
    pub(crate) fn absorb(&mut self, other: &FaultTally) {
        self.injected += other.injected;
        self.retries += other.retries;
        self.evictions += other.evictions;
        self.cpu_fallbacks += other.cpu_fallbacks;
        self.failed += other.failed;
        self.worker_panics += other.worker_panics;
        self.sdc_detected += other.sdc_detected;
    }

    /// Counts a detected silent corruption when `e` is the residual
    /// check's rejection.
    pub(crate) fn note(&mut self, e: &CusFftError) {
        if matches!(e, CusFftError::SilentCorruption { .. }) {
            self.sdc_detected += 1;
        }
    }
}

/// The merged simulated timeline a serve call executed, kept on the
/// report so telemetry exporters can rebuild spans and traces without
/// re-running anything.
#[derive(Debug, Clone)]
pub struct ServeTimeline {
    /// Merged ops in deterministic merge order (see
    /// [`gpu_sim::merge_op_groups`]), attribution tags intact.
    pub ops: Vec<gpu_sim::Op>,
    /// The schedule computed over `ops`.
    pub sched: gpu_sim::Schedule,
}

impl Default for ServeTimeline {
    fn default() -> Self {
        ServeTimeline {
            ops: Vec::new(),
            sched: gpu_sim::Schedule {
                ops: Vec::new(),
                makespan: 0.0,
            },
        }
    }
}

/// Identity and disposition of one plan-key group, for telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupInfo {
    /// Global group index (the fault-scope base).
    pub gid: usize,
    /// Request indices served by this group, in submission order.
    pub indices: Vec<usize>,
    /// The plan key the group was served under (carries n, k, variant
    /// and the possibly-degraded QoS tier).
    pub key: PlanKey,
    /// Whether the breaker short-circuited the group (overload path).
    pub short_circuit: bool,
    /// Whether a speculative hedge duplicate ran (overload path).
    pub hedged: bool,
    /// Fleet member the group executed on (`None` outside the fleet
    /// path, and for fleet groups that were short-circuited to the CPU
    /// tier without touching any device). Indexes
    /// [`ServeReport::devices`].
    pub device: Option<usize>,
}

/// Deterministic simulated-latency summary for one (path, QoS) class,
/// computed from the telemetry histogram (overload path only — the plain
/// batch path has no arrival times).
#[derive(Debug, Clone, PartialEq)]
pub struct PathLatency {
    /// Execution path.
    pub path: ServePath,
    /// Accuracy tier.
    pub qos: ServeQos,
    /// Completed requests in this class.
    pub count: u64,
    /// Median latency (histogram nearest-rank, bucket upper bound).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The underlying fixed-bucket histogram.
    pub hist: cusfft_telemetry::Histogram,
}

/// Modeled execution totals for one kernel (or transfer) name over a
/// serve call, rolled up from the workers' recordings. Per-transfer
/// byte suffixes are stripped (`"dtoh (512 B)"` folds into `"dtoh"`),
/// so every launch of one kernel aggregates under one row.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRollup {
    /// Kernel or transfer label.
    pub name: String,
    /// Launches/transfers recorded under this name.
    pub launches: u64,
    /// Summed modeled duration (seconds).
    pub time: f64,
    /// Summed modeled DRAM transactions (zero for transfers).
    pub transactions: f64,
    /// Summed modeled DRAM bytes.
    pub dram_bytes: f64,
}

/// Device memory-pool and arena traffic over a serve call. After the
/// warmup allocations of each group, steady-state requests should add
/// nothing to `alloc_ops` — the invariant the zero-allocation test
/// pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolTally {
    /// Tracked `MemPool` allocations (fresh device reservations).
    pub alloc_ops: u64,
    /// Tracked `MemPool` releases.
    pub release_ops: u64,
    /// Arena acquisitions satisfied from a free list.
    pub reuse_hits: u64,
    /// Arena acquisitions that fell through to a fresh allocation.
    pub fresh_misses: u64,
}

impl PoolTally {
    pub(crate) fn absorb(&mut self, other: &PoolTally) {
        self.alloc_ops += other.alloc_ops;
        self.release_ops += other.release_ops;
        self.reuse_hits += other.reuse_hits;
        self.fresh_misses += other.fresh_misses;
    }
}

/// Outcome of one [`ServeEngine::serve_batch`] call.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-request outcomes, in submission order.
    pub outcomes: Vec<RequestOutcome>,
    /// Simulated makespan of the merged multi-stream timeline (seconds).
    pub makespan: f64,
    /// Completed requests per simulated second of makespan (`0` when
    /// the makespan is 0). Failed and rejected requests do not count.
    pub throughput: f64,
    /// Per-stream occupancy and concurrency over the merged timeline.
    pub concurrency: ConcurrencyProfile,
    /// Plan-cache counters after this batch.
    pub cache: CacheStats,
    /// Number of distinct plan groups the batch split into.
    pub groups: usize,
    /// Fault-injection and recovery counters for this batch.
    pub faults: FaultTally,
    /// Overload-control counters (all zero for [`ServeEngine::serve_batch`],
    /// which has no admission control).
    pub overload: OverloadTally,
    /// Simulated request-latency distribution (empty/zero for
    /// [`ServeEngine::serve_batch`], which has no arrival times).
    pub latency: LatencyStats,
    /// Circuit-breaker transitions, in decision order (empty for
    /// [`ServeEngine::serve_batch`]).
    pub breaker: Vec<gpu_sim::BreakerTransition>,
    /// The merged timeline this call executed, for telemetry export.
    pub timeline: ServeTimeline,
    /// Per-group identity/disposition, aligned with the span model.
    pub group_info: Vec<GroupInfo>,
    /// Per-(path, QoS) latency summaries (overload path only; empty for
    /// [`ServeEngine::serve_batch`]).
    pub path_latency: Vec<PathLatency>,
    /// Request arrival times in submission order (overload path only;
    /// empty for [`ServeEngine::serve_batch`]). A non-finite arrival,
    /// rejected at admission, reads 0.0.
    pub arrivals: Vec<f64>,
    /// Per-kernel modeled execution totals, rolled up across all groups
    /// and sorted by kernel name.
    pub kernels: Vec<KernelRollup>,
    /// Device memory-pool and arena traffic summed over all groups.
    pub pool: PoolTally,
    /// Fleet routing/failover counters (all zero outside
    /// [`crate::fleet::DeviceFleet::serve`]).
    pub fleet: crate::fleet::FleetTally,
    /// Per-member fleet summaries, indexed by member id (empty outside
    /// the fleet path). [`GroupInfo::device`] indexes into this.
    pub devices: Vec<crate::fleet::FleetDeviceInfo>,
    /// Request-journal counters (`None` outside the journaled paths
    /// [`ServeEngine::serve_journaled`] / [`ServeEngine::resume_from`]).
    pub journal: Option<crate::journal::JournalTally>,
    /// The policy flight recorder's output (`None` unless
    /// [`ServeConfig::audit`] is on): the decision event log, derived
    /// terminal causes, and the SLO burn-rate report.
    pub audit: Option<Box<crate::audit::AuditReport>>,
}

impl ServeReport {
    /// The responses of all completed requests, in submission order
    /// (skipping failed ones).
    pub fn responses(&self) -> impl Iterator<Item = &ServeResponse> {
        self.outcomes.iter().filter_map(|o| o.response())
    }
}

/// The concurrent serving engine: backend registry + plan cache +
/// sharded batch dispatch.
pub struct ServeEngine {
    pub(crate) spec: DeviceSpec,
    /// Device plans are built against. Plan buffers are host-backed and
    /// device-agnostic, so workers execute them on private devices.
    pub(crate) home: Arc<GpuDevice>,
    pub(crate) cache: PlanCache,
    pub(crate) config: ServeConfig,
    /// Execution backends, keyed by [`BackendKind`]. All plan builds and
    /// request pricing resolve through here.
    pub(crate) registry: BackendRegistry,
}

impl ServeEngine {
    /// Creates an engine simulating `spec` devices under `config`, with
    /// all stock backends registered. Rejects invalid configurations
    /// with a typed [`CusFftError::BadConfig`] instead of panicking.
    #[must_use = "the engine is returned, not installed; dropping it discards the construction"]
    pub fn new(spec: DeviceSpec, config: ServeConfig) -> Result<Self, CusFftError> {
        Self::with_registry(spec, config, BackendRegistry::with_defaults())
    }

    /// Creates an engine with an explicit backend registry — requests
    /// naming an unregistered [`BackendKind`] fail typed at admission.
    /// Rejects invalid configurations with [`CusFftError::BadConfig`].
    #[must_use = "the engine is returned, not installed; dropping it discards the construction"]
    pub fn with_registry(
        spec: DeviceSpec,
        config: ServeConfig,
        registry: BackendRegistry,
    ) -> Result<Self, CusFftError> {
        if config.workers < 1 {
            return Err(CusFftError::BadConfig {
                reason: "serve engine needs at least 1 worker".into(),
            });
        }
        if config.cache_capacity < 1 {
            return Err(CusFftError::BadConfig {
                reason: "plan cache capacity must be at least 1".into(),
            });
        }
        if spec.global_mem_bytes == 0 {
            return Err(CusFftError::BadConfig {
                reason: format!("device spec '{}' has zero memory capacity", spec.name),
            });
        }
        Ok(ServeEngine {
            home: home_device(&spec),
            spec,
            cache: PlanCache::new(config.cache_capacity),
            config,
            registry,
        })
    }

    /// The plan cache (counters persist across batches).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The engine's configuration.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// The engine's backend registry.
    pub fn registry(&self) -> &BackendRegistry {
        &self.registry
    }

    /// Serves a batch: groups requests by plan key, shards the groups
    /// across workers, and returns per-request outcomes (in submission
    /// order) plus the merged simulated timeline. Never panics on request
    /// content or injected faults — bad requests and exhausted failures
    /// come back as [`RequestOutcome::Failed`].
    ///
    /// This is the journaled epoch loop with no journal and a single
    /// epoch (see the crate-private `serve_core` module).
    pub fn serve_batch(&self, requests: &[ServeRequest]) -> ServeReport {
        self.serve_epochs(requests, None)
            .into_report()
            .expect("a run without a journal has no crash plan to fire")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::{MagnitudeModel, SparseSignal};

    fn request(n: usize, k: usize, variant: Variant, sig_seed: u64, seed: u64) -> ServeRequest {
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, sig_seed);
        ServeRequest::new(s.time, k, variant, seed)
    }

    #[test]
    fn empty_batch_is_empty_report() {
        let engine = ServeEngine::new(DeviceSpec::tesla_k20x(), ServeConfig::default()).unwrap();
        let report = engine.serve_batch(&[]);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.groups, 0);
        assert_eq!(report.throughput, 0.0);
        assert_eq!(report.faults, FaultTally::default());
    }

    #[test]
    fn same_geometry_requests_share_one_plan_and_group() {
        let engine = ServeEngine::new(DeviceSpec::tesla_k20x(), ServeConfig::default()).unwrap();
        let reqs: Vec<ServeRequest> = (0..4)
            .map(|i| request(1 << 10, 4, Variant::Optimized, 10 + i, 100 + i))
            .collect();
        let report = engine.serve_batch(&reqs);
        assert_eq!(report.groups, 1);
        assert_eq!(report.outcomes.len(), 4);
        assert!(report
            .outcomes
            .iter()
            .all(|o| o.response().is_some_and(|r| r.path == ServePath::Gpu)));
        let s = report.cache;
        assert_eq!(s.misses, 1, "one plan build");
        assert_eq!(s.hits, 3, "remaining requests hit the cache");
    }

    #[test]
    fn two_groups_on_two_workers_overlap_streams() {
        let engine = ServeEngine::new(
            DeviceSpec::tesla_k20x(),
            ServeConfig {
                workers: 2,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        ).unwrap();
        let reqs = vec![
            request(1 << 10, 4, Variant::Optimized, 1, 11),
            request(1 << 11, 4, Variant::Optimized, 2, 22),
        ];
        let report = engine.serve_batch(&reqs);
        assert_eq!(report.groups, 2);
        assert!(
            report.concurrency.max_concurrent_streams >= 2,
            "two workers' streams should overlap, got {}",
            report.concurrency.max_concurrent_streams
        );
        assert!(report.makespan > 0.0);
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn fair_sharing_conserves_work_across_worker_counts() {
        // Concurrent kernels share the SMs evenly and transfers serialise
        // on the one copy engine, so sharding the batch across workers
        // overlaps streams without inventing aggregate bandwidth: the
        // two-worker makespan stays within a few percent of the serial
        // one (copy-engine contention may add small bubbles).
        let reqs = vec![
            request(1 << 10, 4, Variant::Optimized, 1, 11),
            request(1 << 11, 4, Variant::Optimized, 2, 22),
        ];
        let one = ServeEngine::new(
            DeviceSpec::tesla_k20x(),
            ServeConfig {
                workers: 1,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        ).unwrap()
        .serve_batch(&reqs)
        .makespan;
        let two = ServeEngine::new(
            DeviceSpec::tesla_k20x(),
            ServeConfig {
                workers: 2,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        ).unwrap()
        .serve_batch(&reqs)
        .makespan;
        assert!(
            two <= one * 1.10,
            "two workers ({two:.3e}s) should stay near the serial makespan ({one:.3e}s)"
        );
        assert!(
            two >= one * 0.40,
            "fair sharing cannot halve total work: {two:.3e}s vs {one:.3e}s"
        );
    }

    #[test]
    fn responses_are_in_submission_order() {
        let engine = ServeEngine::new(
            DeviceSpec::tesla_k20x(),
            ServeConfig {
                workers: 3,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        ).unwrap();
        // Alternate geometries so consecutive requests land in different
        // groups (and hence workers).
        let reqs: Vec<ServeRequest> = (0..6)
            .map(|i| {
                let n = if i % 2 == 0 { 1 << 10 } else { 1 << 11 };
                request(n, 4, Variant::Optimized, i as u64, 7 * i as u64)
            })
            .collect();
        let report = engine.serve_batch(&reqs);
        let spec = DeviceSpec::tesla_k20x();
        let home = home_device(&spec);
        for (req, outcome) in reqs.iter().zip(&report.outcomes) {
            let plan = engine
                .registry()
                .get(req.backend)
                .unwrap()
                .build_plan(&home, req.plan_key());
            let direct = crate::backend::execute_direct(&*plan, &spec, &req.time, req.seed)
                .expect("fault-free direct execution");
            let resp = outcome.response().expect("fault-free batch completes");
            assert_eq!(resp.recovered, direct);
            assert_eq!(resp.backend, req.backend);
        }
    }

    #[test]
    fn invalid_requests_fail_typed_without_poisoning_the_batch() {
        let engine = ServeEngine::new(DeviceSpec::tesla_k20x(), ServeConfig::default()).unwrap();
        let reqs = vec![
            request(1 << 10, 4, Variant::Optimized, 1, 11),
            // Non-power-of-two length: the plan constructor would panic.
            ServeRequest::new(vec![fft::cplx::ZERO; 1000], 4, Variant::Optimized, 1),
            // k out of range for n.
            ServeRequest::new(vec![fft::cplx::ZERO; 1 << 10], 1 << 10, Variant::Optimized, 1),
        ];
        let report = engine.serve_batch(&reqs);
        assert!(report.outcomes[0].response().is_some());
        for bad in [1, 2] {
            match report.outcomes[bad].error() {
                Some(CusFftError::BadRequest { .. }) => {}
                other => panic!("expected BadRequest, got {other:?}"),
            }
        }
        assert_eq!(report.faults.failed, 2);
        assert_eq!(report.faults.worker_panics, 0, "rejected before any panic");
    }

    #[test]
    fn persistent_faults_degrade_every_request_to_cpu() {
        let engine = ServeEngine::new(
            DeviceSpec::tesla_k20x(),
            ServeConfig {
                faults: Some(FaultConfig::persistent(3)),
                ..ServeConfig::default()
            },
        ).unwrap();
        let reqs: Vec<ServeRequest> = (0..4)
            .map(|i| request(1 << 10, 4, Variant::Optimized, i, 100 + i))
            .collect();
        let report = engine.serve_batch(&reqs);
        assert_eq!(report.outcomes.len(), 4);
        for outcome in &report.outcomes {
            let resp = outcome.response().expect("cpu fallback completes");
            assert_eq!(resp.path, ServePath::Cpu);
            assert_eq!(resp.backend, BackendKind::SfftCpu, "re-routed backend");
        }
        assert_eq!(report.faults.cpu_fallbacks, 4);
        assert_eq!(report.faults.evictions, 4);
        assert!(report.faults.retries > 0);
        assert!(report.faults.injected > 0);
        assert_eq!(report.faults.failed, 0);
    }

    #[test]
    fn persistent_faults_without_fallback_fail_typed() {
        let engine = ServeEngine::new(
            DeviceSpec::tesla_k20x(),
            ServeConfig {
                faults: Some(FaultConfig::persistent(3)),
                cpu_fallback: false,
                ..ServeConfig::default()
            },
        ).unwrap();
        let reqs = vec![request(1 << 10, 4, Variant::Optimized, 1, 11)];
        let report = engine.serve_batch(&reqs);
        match report.outcomes[0].error() {
            Some(CusFftError::Gpu(_)) => {}
            other => panic!("expected a typed device error, got {other:?}"),
        }
        assert_eq!(report.faults.failed, 1);
        assert_eq!(report.faults.cpu_fallbacks, 0);
    }

    #[test]
    fn requests_route_to_their_named_backend() {
        let engine = ServeEngine::new(DeviceSpec::tesla_k20x(), ServeConfig::default()).unwrap();
        let reqs: Vec<ServeRequest> = BackendKind::all()
            .into_iter()
            .map(|b| request(1 << 10, 4, Variant::Optimized, 3, 17).with_backend(b))
            .collect();
        let report = engine.serve_batch(&reqs);
        // Same geometry, three backends: three groups, three plans.
        assert_eq!(report.groups, 3);
        for (req, outcome) in reqs.iter().zip(&report.outcomes) {
            let resp = outcome.response().expect("every backend serves clean");
            assert_eq!(resp.path, ServePath::Gpu);
            assert_eq!(resp.backend, req.backend);
        }
        for (info, req) in report.group_info.iter().zip(&reqs) {
            assert_eq!(info.key.backend, req.backend);
        }
    }

    #[test]
    fn unregistered_backend_fails_typed() {
        let mut registry = BackendRegistry::empty();
        registry.register(Arc::new(crate::backend::GpuSimBackend::default()));
        let engine = ServeEngine::with_registry(
            DeviceSpec::tesla_k20x(),
            ServeConfig::default(),
            registry,
        ).unwrap();
        let reqs = vec![
            request(1 << 10, 4, Variant::Optimized, 1, 11),
            request(1 << 10, 4, Variant::Optimized, 2, 12).with_backend(BackendKind::DenseFft),
        ];
        let report = engine.serve_batch(&reqs);
        assert!(report.outcomes[0].response().is_some());
        match report.outcomes[1].error() {
            Some(CusFftError::BadRequest { reason }) => {
                assert!(reason.contains("dense_fft"), "reason names the backend: {reason}");
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }
        assert_eq!(report.faults.failed, 1);
    }
}
