//! The serving core every public entry point runs on.
//!
//! [`ServeEngine::serve_batch`], [`ServeEngine::serve_overload`],
//! [`crate::fleet::DeviceFleet::serve`] and
//! [`ServeEngine::serve_journaled`] / [`ServeEngine::resume_from`] only
//! pick stages — admission, placement, durability and recording (see
//! DESIGN.md, "Serving core"). Everything they share exists once, here:
//!
//! * request validation and its `invalid` admission root
//!   ([`ServeEngine::check_request`], [`Served::reject`]);
//! * group execution with per-request fault recovery ([`run_group`]) and
//!   the CPU reference path ([`serve_on_cpu`]);
//! * threaded dispatch with lost-worker recovery ([`dispatch`]);
//! * the timeline merge, report assembly and audit sealing
//!   ([`ServeEngine::assemble`]).
//!
//! ## Two execution shapes
//!
//! * **Sharded** ([`ServeEngine::run_sharded`]; batch and journal): each
//!   epoch's groups are dealt round-robin to the workers, and each worker
//!   runs its shard back to back on one private device. Groups on one
//!   worker serialise on its stream family while shards overlap — the
//!   paper's multi-stream picture (Fig. 4) lifted to requests.
//! * **Fresh** ([`run_fresh`]; overload and fleet): every group runs on a
//!   fresh device of its placement target, so its recording, fault tally
//!   and duration are functions of the group alone. The breaker, the
//!   hedging race and the fleet's per-member lanes decide on those
//!   per-group durations.
//!
//! The two shapes merge into different timelines, and the checked-in
//! baselines and the benchmark's device-clock metrics pin both.
//!
//! Determinism is load-bearing: outputs and the simulated timeline are
//! functions of the inputs and config alone — including the fault seed
//! — never of OS thread scheduling or host pool width. Recordings merge
//! in a fixed order with [`gpu_sim::merge_op_groups`], and fault
//! decisions are scoped per *global group index* ([`scope_group`],
//! [`scope_retry`]), so outcomes and tallies are invariant under the
//! worker count.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cusfft_telemetry::{fmt_f64, tag_batch, tag_fallback, tag_retry};
use gpu_sim::{
    concurrency_profile, merge_op_groups, schedule, BreakerTransition, DeviceSpec, FaultConfig,
    GpuDevice, Op,
};

use crate::audit::{finalize_audit, AuditLog, GroupAuditEvent, SloConfig};
use crate::backend::{
    worker_device, Backend, BackendKind, ExecutePlan, PreparedState, SfftCpuBackend,
};
use crate::error::CusFftError;
use crate::fleet::{FleetDeviceInfo, FleetTally};
use crate::journal::{
    count_durable_done, Journal, JournalOptions, JournalRecord, JournalRun, JournalStats,
    JournalTally, ServeCrash,
};
use crate::overload::{LatencyStats, OverloadTally};
use crate::pipeline::ExecStreams;
use crate::plan_cache::{PlanKey, ServeQos};
use crate::serve::{
    FaultTally, GroupInfo, KernelRollup, PathLatency, PoolTally, RequestOutcome, ServeConfig,
    ServeEngine, ServePath, ServeReport, ServeRequest, ServeResponse, ServeTimeline,
};

/// A geometry group: every request index served by one plan.
pub(crate) struct Group {
    /// Global group index — the fault-scope base, so fault decisions are
    /// invariant under how groups are dealt to workers.
    pub(crate) gid: usize,
    pub(crate) plan: Arc<dyn ExecutePlan>,
    pub(crate) indices: Vec<usize>,
    /// Accuracy tier this group is served at ([`ServeQos::Full`] unless
    /// overload or fleet brownout re-keyed it onto a degraded plan).
    pub(crate) qos: ServeQos,
}

impl Group {
    /// The group's identity on the report, before any placement
    /// disposition is filled in.
    pub(crate) fn info(&self, requests: &[ServeRequest]) -> GroupInfo {
        GroupInfo {
            gid: self.gid,
            indices: self.indices.clone(),
            key: PlanKey {
                qos: self.qos,
                ..requests[self.indices[0]].plan_key()
            },
            short_circuit: false,
            hedged: false,
            device: None,
        }
    }
}

/// Appends request `idx` to the group keyed `key`, opening a new group
/// with the plan `plan()` returns on the key's first appearance.
/// Returns the gid.
pub(crate) fn group_into(
    groups: &mut Vec<Group>,
    index: &mut HashMap<PlanKey, usize>,
    key: PlanKey,
    idx: usize,
    plan: impl FnOnce() -> Arc<dyn ExecutePlan>,
) -> usize {
    let gid = *index.entry(key).or_insert_with(|| {
        groups.push(Group {
            gid: groups.len(),
            plan: plan(),
            indices: Vec::new(),
            qos: key.qos,
        });
        groups.len() - 1
    });
    groups[gid].indices.push(idx);
    gid
}

/// Kernel/pool telemetry captured around one [`run_group`] call. Deltas,
/// not cumulative counters, so merging is order-insensitive for the
/// integers and gid-ordered for the float sums.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupTelemetry {
    pub(crate) gid: usize,
    pub(crate) kernels: Vec<KernelRollup>,
    pub(crate) pool: PoolTally,
    /// Worker-side policy decisions (evictions, retries, fallbacks)
    /// buffered for the audit log; empty unless [`ServeConfig::audit`].
    pub(crate) audit: Vec<GroupAuditEvent>,
}

/// Rolls a recording slice up by normalized kernel name, sorted by name
/// for a deterministic report layout. Per-transfer byte suffixes are
/// stripped; accumulation follows record order, so float sums are
/// reproducible.
fn rollup_kernels(records: &[gpu_sim::LaunchRecord]) -> Vec<KernelRollup> {
    let mut map: BTreeMap<String, KernelRollup> = BTreeMap::new();
    for r in records {
        let name = r.name.split(" (").next().unwrap_or(&r.name);
        let e = map.entry(name.to_string()).or_insert_with(|| KernelRollup {
            name: name.to_string(),
            launches: 0,
            time: 0.0,
            transactions: 0.0,
            dram_bytes: 0.0,
        });
        e.launches += 1;
        e.time += r.cost.total;
        e.transactions += r.stats.transactions;
        e.dram_bytes += r.stats.dram_bytes;
    }
    map.into_values().collect()
}

/// Merges per-group rollups (callers pass them sorted by gid, making
/// the float accumulation order deterministic) into one name-sorted
/// report table.
fn merge_rollups(groups: &[GroupTelemetry]) -> Vec<KernelRollup> {
    let mut map: BTreeMap<String, KernelRollup> = BTreeMap::new();
    for g in groups {
        for k in &g.kernels {
            let e = map.entry(k.name.clone()).or_insert_with(|| KernelRollup {
                name: k.name.clone(),
                launches: 0,
                time: 0.0,
                transactions: 0.0,
                dram_bytes: 0.0,
            });
            e.launches += k.launches;
            e.time += k.time;
            e.transactions += k.transactions;
            e.dram_bytes += k.dram_bytes;
        }
    }
    map.into_values().collect()
}

/// Base backoff before the first individual retry; doubles per attempt.
const RETRY_BACKOFF_BASE: f64 = 50e-6;

/// Fault scope of group `g`'s batch attempt. Scopes only need to be
/// distinct (the fault plan hashes them); bit 19 separates the batch
/// attempt from the retry scopes below, bit 18 separates a hedged
/// duplicate from its primary (a hedge is an independent run, not a
/// replay of the primary's faults).
pub(crate) fn scope_group(g: usize, hedged: bool) -> u64 {
    ((g as u64) << 20) | (u64::from(hedged) << 18)
}

/// Fault scope of retry `attempt` for the request at position `j` of
/// group `g` (fits j < 2^14, attempt < 16 — far beyond practical use).
pub(crate) fn scope_retry(g: usize, j: usize, attempt: u32, hedged: bool) -> u64 {
    ((g as u64) << 20)
        | (1 << 19)
        | (u64::from(hedged) << 18)
        | ((j as u64) << 4)
        | u64::from(attempt)
}

impl ServeEngine {
    /// Validates `req` and resolves its backend. Geometries
    /// `SfftParams::tuned` would panic on, and backends the registry
    /// lacks, fail typed before any plan is built or device touched.
    pub(crate) fn check_request(&self, req: &ServeRequest) -> Result<&dyn Backend, CusFftError> {
        let n = req.time.len();
        let bad = |reason: String| Err(CusFftError::BadRequest { reason });
        if n == 0 {
            return bad("signal must be non-empty".into());
        }
        if !n.is_power_of_two() || n < 512 {
            return bad(format!("signal length {n} must be a power of two ≥ 512"));
        }
        if req.k == 0 || req.k > n / 8 {
            return bad(format!("sparsity k={} out of 1..={}", req.k, n / 8));
        }
        match self.registry.get(req.backend) {
            Some(b) => Ok(b.as_ref()),
            None => bad(format!("backend {} is not registered", req.backend.label())),
        }
    }

    /// The cached plan for a key whose backend passed
    /// [`ServeEngine::check_request`].
    pub(crate) fn plan(&self, key: PlanKey) -> Arc<dyn ExecutePlan> {
        self.cache
            .get_or_build(&self.home, &self.registry, key)
            .expect("checked requests resolve to registered backends")
    }

    /// Resolves each request's plan through the cache and groups request
    /// indices by plan, in first-appearance order. Requests that fail
    /// [`ServeEngine::check_request`] come back separately.
    pub(crate) fn group_requests(
        &self,
        requests: &[ServeRequest],
    ) -> (Vec<Group>, Vec<(usize, CusFftError)>) {
        let mut groups = Vec::new();
        let mut prefailed = Vec::new();
        let mut index = HashMap::new();
        for (idx, req) in requests.iter().enumerate() {
            if let Err(e) = self.check_request(req) {
                prefailed.push((idx, e));
                continue;
            }
            // Look up per request — cache counters reflect request
            // traffic, the signal a production cache sizes itself by.
            let plan = self.plan(req.plan_key());
            group_into(&mut groups, &mut index, req.plan_key(), idx, || plan);
        }
        (groups, prefailed)
    }

    /// Opens the flight recorder (when [`ServeConfig::audit`] is on) with
    /// the batch-level admission root: request and group counts, then
    /// `extra` attrs.
    pub(crate) fn open_audit(
        &self,
        requests: usize,
        groups: usize,
        extra: &[(&str, &str)],
    ) -> Option<AuditLog> {
        self.config.audit.then(|| {
            let mut attrs = vec![
                ("requests".to_string(), requests.to_string()),
                ("groups".to_string(), groups.to_string()),
            ];
            attrs.extend(extra.iter().map(|&(k, v)| (k.to_string(), v.to_string())));
            let mut a = AuditLog::new();
            a.record(0.0, None, None, "batch_admitted", attrs);
            a
        })
    }
}

/// Everything a serve call produced so far, accumulated across epochs
/// and waves.
pub(crate) struct Served {
    /// Per-request outcomes, in submission order (`None` until settled).
    pub(crate) outcomes: Vec<Option<RequestOutcome>>,
    pub(crate) faults: FaultTally,
    /// Device recordings, in timeline-merge order.
    pub(crate) op_groups: Vec<Vec<Op>>,
    pub(crate) tels: Vec<GroupTelemetry>,
}

impl Served {
    pub(crate) fn new(requests: usize) -> Self {
        Served {
            outcomes: (0..requests).map(|_| None).collect(),
            faults: FaultTally::default(),
            op_groups: Vec::new(),
            tels: Vec::new(),
        }
    }

    /// Takes a device run's recording, counters, telemetry and outcomes.
    pub(crate) fn absorb(&mut self, run: DeviceRun) {
        self.op_groups.push(run.ops);
        self.faults.absorb(&run.tally);
        self.tels.extend(run.tels);
        for (idx, outcome) in run.results {
            self.outcomes[idx] = Some(outcome);
        }
    }

    /// Fails request `idx` at admission because it failed validation:
    /// counted once in `faults.failed` and recorded as the request's
    /// `invalid` audit root at `ts`.
    pub(crate) fn reject(
        &mut self,
        idx: usize,
        error: CusFftError,
        ts: f64,
        alog: &mut Option<AuditLog>,
    ) {
        if let Some(a) = alog.as_mut() {
            a.record(
                ts,
                Some(idx),
                None,
                "invalid",
                vec![("reason".into(), error.to_string())],
            );
        }
        self.faults.failed += 1;
        self.outcomes[idx] = Some(RequestOutcome::Failed {
            error,
            after_attempts: 0,
        });
    }
}

/// Serves `req` on the CPU reference path — straight to the backend's
/// pure computation, never the plan cache, which worker threads must
/// not touch (its counters are part of the determinism contract).
pub(crate) fn serve_on_cpu(group: &Group, req: &ServeRequest) -> ServeResponse {
    let recovered = SfftCpuBackend::reference(group.plan.params(), &req.time, req.seed);
    ServeResponse {
        num_hits: recovered.len(),
        recovered,
        path: ServePath::Cpu,
        qos: group.qos,
        backend: BackendKind::SfftCpu,
    }
}

/// The terminal outcome of a request the device path gave up on: the
/// CPU reference path when [`ServeConfig::cpu_fallback`] allows it,
/// else `Failed` with `error`.
fn fall_back(
    group: &Group,
    req: &ServeRequest,
    cfg: &ServeConfig,
    tally: &mut FaultTally,
    error: CusFftError,
    after_attempts: u32,
) -> RequestOutcome {
    if cfg.cpu_fallback {
        tally.cpu_fallbacks += 1;
        RequestOutcome::Done(serve_on_cpu(group, req))
    } else {
        tally.failed += 1;
        RequestOutcome::Failed {
            error,
            after_attempts,
        }
    }
}

/// Runs `f` inside a panic boundary, converting a panic into a typed
/// [`CusFftError::Panic`] so one request cannot take down its worker.
fn run_caught<T>(
    tally: &mut FaultTally,
    where_: &str,
    f: impl FnOnce() -> Result<T, CusFftError>,
) -> Result<T, CusFftError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            tally.worker_panics += 1;
            Err(CusFftError::Panic {
                context: crate::error::panic_context(where_, payload.as_ref()),
            })
        }
    }
}

/// One group under fault recovery: batch attempt, per-request eviction,
/// individual retries with backoff, CPU fallback. Returns an outcome for
/// every index in the group, in group order. `hedged` selects the hedge
/// fault scopes so a hedged duplicate rolls independent fault decisions
/// from its primary.
#[allow(clippy::too_many_arguments)] // worker-call plumbing, not an API
fn run_group(
    device: &GpuDevice,
    group: &Group,
    requests: &[ServeRequest],
    streams: &ExecStreams,
    cfg: &ServeConfig,
    tally: &mut FaultTally,
    hedged: bool,
    audit: &mut Vec<GroupAuditEvent>,
) -> Vec<(usize, RequestOutcome)> {
    // Buffers a worker-side decision for the audit fold. Recording is
    // deferred (and gated) so the hot path stays allocation-free when
    // auditing is off and event ids stay worker-count invariant.
    let note = |audit: &mut Vec<GroupAuditEvent>,
                request: usize,
                kind: &'static str,
                attrs: Vec<(String, String)>| {
        if cfg.audit {
            audit.push(GroupAuditEvent {
                request: Some(request),
                kind,
                attrs,
            });
        }
    };
    let g = group.gid;
    let plan = &group.plan;
    let nreq = group.indices.len();
    let mut outcomes: Vec<Option<RequestOutcome>> = (0..nreq).map(|_| None).collect();
    // Group positions the batch attempt gave up on, with the stage and
    // error that evicted them, in eviction order.
    let mut evicted: Vec<(usize, &'static str, CusFftError)> = Vec::new();

    // Pool state must be a pure function of this group alone — never of
    // which worker ran it or what ran before on the same streams — so
    // the arena starts empty at every group boundary.
    streams.arena.reset();

    // Batch attempt. Every fault decision inside it rolls in the group's
    // own scope, so the sequence is invariant under worker placement.
    device.set_fault_scope(scope_group(g, hedged));
    device.set_op_tag(tag_batch(g, plan.backend().code(), hedged));

    // Pool warmup plus one aggregated H2D staging transfer for the
    // group's combined signal payload. Nothing request-specific has run
    // yet, so a failure is group-wide: every request is evicted to the
    // individual path (which rolls its own fault scopes).
    let mut staged = run_caught(tally, "warm", || plan.warm(device, streams, nreq));
    if staged.is_ok() {
        let bytes: usize = group
            .indices
            .iter()
            .map(|&idx| std::mem::size_of_val(requests[idx].time.as_slice()))
            .sum();
        staged = run_caught(tally, "stage", || {
            plan.stage_group(device, bytes, streams.main)
        });
    }

    let mut preps: Vec<Option<PreparedState>> = Vec::with_capacity(nreq);
    match staged {
        Err(e) => {
            tally.note(&e);
            evicted.extend((0..nreq).map(|j| (j, "stage", e.clone())));
            preps.resize_with(nreq, || None);
        }
        Ok(()) => {
            for (j, &idx) in group.indices.iter().enumerate() {
                let req = &requests[idx];
                let r = run_caught(tally, "prepare", || {
                    plan.prepare(device, &req.time, req.seed, streams)
                });
                match r {
                    Ok(p) => preps.push(Some(p)),
                    Err(e) => {
                        tally.note(&e);
                        evicted.push((j, "prepare", e));
                        preps.push(None);
                    }
                }
            }
        }
    }

    let survivors: Vec<usize> = (0..nreq).filter(|&j| preps[j].is_some()).collect();
    let mut batched_ok = true;
    if !survivors.is_empty() {
        let r = run_caught(tally, "batched cuFFT", || {
            let mut refs: Vec<&mut PreparedState> =
                preps.iter_mut().filter_map(|p| p.as_mut()).collect();
            plan.run_batched_ffts(device, &mut refs, streams.main)
        });
        if let Err(e) = r {
            // A failed batched launch transformed no row (and a failed
            // estimation batch poisons the half-transformed group), so
            // every survivor re-prepares from scratch individually.
            batched_ok = false;
            tally.note(&e);
            for &j in &survivors {
                evicted.push((j, "batched_fft", e.clone()));
                preps[j] = None;
            }
        }
    }

    if batched_ok && !survivors.is_empty() {
        // One back-half pass over the whole surviving group, so the
        // backend can aggregate its result transfers (D2H) group-wide
        // instead of paying PCIe latency per request. A panic anywhere
        // in the pass evicts every survivor (the aggregated transfers
        // make per-request attribution of a panic ambiguous).
        let prep_refs: Vec<&PreparedState> = survivors
            .iter()
            .map(|&j| {
                preps[j]
                    .as_ref()
                    .expect("survivors hold their prepared state")
            })
            .collect();
        let finished = run_caught(tally, "finish", || {
            Ok(plan.finish_group(device, &prep_refs, streams))
        });
        match finished {
            Ok(rs) => {
                debug_assert_eq!(rs.len(), survivors.len());
                for (&j, r) in survivors.iter().zip(rs) {
                    match r {
                        Ok((recovered, num_hits)) => {
                            outcomes[j] = Some(RequestOutcome::Done(ServeResponse {
                                recovered,
                                num_hits,
                                path: ServePath::Gpu,
                                qos: group.qos,
                                backend: plan.backend(),
                            }));
                        }
                        Err(e) => {
                            tally.note(&e);
                            evicted.push((j, "finish", e));
                        }
                    }
                }
            }
            Err(e) => {
                for &j in &survivors {
                    tally.note(&e);
                    evicted.push((j, "finish", e.clone()));
                }
            }
        }
    }

    let mut last_err: Vec<Option<CusFftError>> = (0..nreq).map(|_| None).collect();
    let mut individual: Vec<usize> = Vec::with_capacity(evicted.len());
    for (j, stage, e) in evicted {
        tally.evictions += 1;
        note(
            audit,
            group.indices[j],
            "evicted",
            vec![
                ("stage".into(), stage.into()),
                ("error".into(), e.class_label().into()),
            ],
        );
        last_err[j] = Some(e);
        individual.push(j);
    }

    // Individual path: bounded retries, then CPU fallback. Processed in
    // group-position order regardless of which stage evicted them.
    individual.sort_unstable();
    for &j in &individual {
        let req = &requests[group.indices[j]];
        let mut success: Option<ServeResponse> = None;
        for attempt in 1..=cfg.max_retries {
            tally.retries += 1;
            // Deterministic exponential backoff, visible on the timeline
            // but contending for no device resource.
            let backoff = RETRY_BACKOFF_BASE * (1u64 << (attempt - 1)) as f64;
            note(
                audit,
                group.indices[j],
                "retry_attempt",
                vec![
                    ("attempt".into(), attempt.to_string()),
                    ("backoff".into(), fmt_f64(backoff)),
                ],
            );
            device.set_op_tag(tag_retry(g, j, attempt, plan.backend().code(), hedged));
            device.charge_host_op("retry_backoff", backoff, streams.main);
            device.set_fault_scope(scope_retry(g, j, attempt, hedged));
            let r = run_caught(tally, "retry", || {
                let mut prep = plan.prepare(device, &req.time, req.seed, streams)?;
                plan.run_batched_ffts(device, &mut [&mut prep], streams.main)?;
                let (recovered, num_hits) = plan.finish(device, &prep, streams)?;
                Ok(ServeResponse {
                    recovered,
                    num_hits,
                    path: ServePath::GpuRetry,
                    qos: group.qos,
                    backend: plan.backend(),
                })
            });
            match r {
                Ok(resp) => {
                    success = Some(resp);
                    break;
                }
                Err(e) => {
                    tally.note(&e);
                    note(
                        audit,
                        group.indices[j],
                        "retry_failed",
                        vec![
                            ("attempt".into(), attempt.to_string()),
                            ("error".into(), e.class_label().into()),
                        ],
                    );
                    last_err[j] = Some(e);
                }
            }
        }
        outcomes[j] = Some(match success {
            Some(resp) => RequestOutcome::Done(resp),
            None => {
                if cfg.cpu_fallback {
                    note(
                        audit,
                        group.indices[j],
                        "cpu_fallback",
                        vec![("backend".into(), "sfft_cpu".into())],
                    );
                    // Zero-duration marker: the re-route is visible on the
                    // timeline without inventing a device cost for CPU work.
                    device.set_op_tag(tag_fallback(g, j, BackendKind::SfftCpu.code(), hedged));
                    device.charge_host_op("cpu_fallback", 0.0, streams.main);
                }
                let error = last_err[j].take().unwrap_or(CusFftError::Panic {
                    context: "request failed without a recorded error".into(),
                });
                fall_back(group, req, cfg, tally, error, cfg.max_retries)
            }
        });
    }

    // Return every pooled buffer (dropping the prepared states) before
    // the end-of-group reset, so the `MemPool` releases land in this
    // group's telemetry window — not the next group's, which may run on
    // a different worker under a different sharding.
    drop(preps);
    streams.arena.reset();

    group
        .indices
        .iter()
        .zip(outcomes)
        // Invariant: every position either finished on the batch path or
        // was evicted to `individual`, which always writes an outcome.
        .map(|(&idx, o)| (idx, o.expect("every group position resolves")))
        .collect()
}

/// What one private device produced: outcomes, the op recording, the
/// fault/recovery counters and per-group telemetry in run order.
pub(crate) struct DeviceRun {
    pub(crate) results: Vec<(usize, RequestOutcome)>,
    pub(crate) ops: Vec<Op>,
    pub(crate) tally: FaultTally,
    pub(crate) tels: Vec<GroupTelemetry>,
}

/// The device a placement runs groups on: a spec, its fault plan, and
/// the fault-domain salt XOR-ed into every fault scope (see
/// [`GpuDevice::set_fault_scope_salt`]; 0 on the engine's own device).
#[derive(Clone, Copy)]
pub(crate) struct Target<'a> {
    pub(crate) spec: &'a DeviceSpec,
    pub(crate) faults: Option<&'a FaultConfig>,
    pub(crate) salt: u64,
}

/// Executes `groups` back to back on one fresh private device with
/// `aux` auxiliary streams: prepare every request in a group, one
/// cross-request batched cuFFT per side, then finish each request —
/// recovering from injected faults per request. The stream family is
/// created once so consecutive groups genuinely serialise on it.
fn run_device(
    target: Target,
    groups: &[&Group],
    requests: &[ServeRequest],
    aux: usize,
    cfg: &ServeConfig,
    hedged: bool,
) -> DeviceRun {
    let device = worker_device(target.spec, target.faults);
    device.set_fault_scope_salt(target.salt);
    let streams = ExecStreams::on_device_private(&device, aux);
    let mut tally = FaultTally::default();
    let mut results = Vec::new();
    let mut tels = Vec::new();
    let mut rec_base = 0usize;
    for group in groups {
        let alloc0 = device.pool_alloc_ops();
        let release0 = device.pool_release_ops();
        let arena0 = streams.arena.stats();
        let mut audit = Vec::new();
        results.extend(run_group(
            &device, group, requests, &streams, cfg, &mut tally, hedged, &mut audit,
        ));
        // Everything recorded/charged since the previous group boundary
        // belongs to this group: run_group resets the arena on both
        // ends, so pool releases cannot leak across groups.
        let records = device.records();
        let arena1 = streams.arena.stats();
        tels.push(GroupTelemetry {
            gid: group.gid,
            kernels: rollup_kernels(&records[rec_base..]),
            pool: PoolTally {
                alloc_ops: device.pool_alloc_ops() - alloc0,
                release_ops: device.pool_release_ops() - release0,
                reuse_hits: arena1.reuse_hits - arena0.reuse_hits,
                fresh_misses: arena1.fresh_misses - arena0.fresh_misses,
            },
            audit,
        });
        rec_base = records.len();
    }
    tally.injected = device.faults_injected();
    DeviceRun {
        results,
        ops: device.ops(),
        tally,
        tels,
    }
}

/// Serves every request of `groups` without touching a device: on the
/// CPU path, or failed with `error` when fallback is off. `tally` starts
/// the run's counters.
pub(crate) fn off_device(
    groups: &[&Group],
    requests: &[ServeRequest],
    cfg: &ServeConfig,
    error: &CusFftError,
    mut tally: FaultTally,
) -> DeviceRun {
    let mut results = Vec::new();
    for group in groups {
        for &idx in &group.indices {
            let outcome = fall_back(group, &requests[idx], cfg, &mut tally, error.clone(), 0);
            results.push((idx, outcome));
        }
    }
    DeviceRun {
        results,
        ops: Vec::new(),
        tally,
        tels: Vec::new(),
    }
}

/// Failover for a device run whose worker thread died outside every
/// per-request panic boundary: its requests are served off-device by
/// the calling thread. The recording and the device-side counters are
/// lost with the worker.
fn lost_run(
    groups: &[&Group],
    requests: &[ServeRequest],
    cfg: &ServeConfig,
    payload: &(dyn std::any::Any + Send),
) -> DeviceRun {
    let error = CusFftError::Panic {
        context: crate::error::panic_context("serve worker", payload),
    };
    let tally = FaultTally {
        worker_panics: 1,
        ..FaultTally::default()
    };
    off_device(groups, requests, cfg, &error, tally)
}

/// Runs `units` on up to `threads` scoped worker threads — unit `i` on
/// thread `i mod threads` — and returns one result per unit, in unit
/// order. A thread that dies outside every per-request panic boundary
/// (which should not happen) fails over to `lost` for each of its units
/// on the calling thread.
///
/// The workers are cheap orchestration threads: their inner `par_*`
/// compute shares the one global host pool (see
/// [`ServeConfig::workers`]), which keeps results deterministic — the
/// pool's chunking is independent of how many workers are in flight.
fn dispatch<U: Sync, R: Send>(
    units: &[U],
    threads: usize,
    run: impl Fn(&U) -> R + Sync,
    lost: impl Fn(&U, &(dyn std::any::Any + Send)) -> R,
) -> Vec<R> {
    let threads = threads.clamp(1, units.len().max(1));
    let mine = |t: usize| units.iter().skip(t).step_by(threads);
    let per_thread: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let run = &run;
                scope.spawn(move || mine(t).map(run).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(t, h)| match h.join() {
                Ok(rs) => rs,
                Err(payload) => mine(t).map(|u| lost(u, &*payload)).collect(),
            })
            .collect()
    });
    let mut per_thread: Vec<_> = per_thread.into_iter().map(Vec::into_iter).collect();
    (0..units.len())
        .map(|i| {
            per_thread[i % threads]
                .next()
                .expect("thread t returns a result for every unit i ≡ t (mod threads)")
        })
        .collect()
}

/// One group's execution on its own fresh device — or its CPU
/// short-circuit — as the overload and fleet paths decide on it.
pub(crate) struct GroupRun {
    pub(crate) gid: usize,
    pub(crate) run: DeviceRun,
    /// Simulated makespan of this group's ops alone.
    pub(crate) duration: f64,
}

/// Runs each placed group on a fresh private device of its target,
/// dealt round-robin across the engine's workers; runs come back in
/// placement order.
pub(crate) fn run_fresh(
    placed: &[(&Group, Target)],
    requests: &[ServeRequest],
    cfg: &ServeConfig,
    hedged: bool,
) -> Vec<GroupRun> {
    dispatch(
        placed,
        cfg.workers,
        |&(group, target)| {
            let run = run_device(
                target,
                &[group],
                requests,
                group.plan.num_streams(),
                cfg,
                hedged,
            );
            GroupRun {
                gid: group.gid,
                duration: schedule(&run.ops, target.spec.max_concurrent_kernels).makespan,
                run,
            }
        },
        |&(group, _), payload| GroupRun {
            gid: group.gid,
            run: lost_run(&[group], requests, cfg, payload),
            duration: 0.0,
        },
    )
}

/// The durability stage of the sharded shape: journal epochs.
pub(crate) struct Epochs<'a> {
    pub(crate) journal: &'a mut Journal,
    pub(crate) opts: &'a JournalOptions,
    /// Number of the first epoch this call runs.
    pub(crate) first: u64,
    /// Whether request `idx`'s `Done` record is already durable.
    pub(crate) durable: &'a dyn Fn(usize) -> bool,
    /// Journal counters when this call started appending.
    pub(crate) stats0: JournalStats,
    /// What a resume restored from the journal (zero on a fresh run).
    pub(crate) recovered: JournalTally,
}

impl ServeEngine {
    /// The sharded execution shape, behind `serve_batch` and the
    /// journaled paths. `run` is split into epochs — a single epoch
    /// without a journal — and each epoch's groups are dealt round-robin
    /// to the workers, each executing its shard on one private device.
    /// With a journal every group is staged before it runs and every
    /// epoch is checkpointed, or the run dies at the armed crash epoch:
    /// the journal then holds exactly the durable prefix a dead host
    /// leaves on disk. `all` sizes the aux-stream family, so stream
    /// geometry (and with it every op sequence) is independent of which
    /// groups remain to run.
    pub(crate) fn run_sharded(
        &self,
        requests: &[ServeRequest],
        all: &[Group],
        run: &[&Group],
        mut epochs: Option<Epochs>,
        mut served: Served,
        mut alog: Option<AuditLog>,
    ) -> JournalRun {
        let workers = self.config.workers;
        let aux = all.iter().map(|g| g.plan.num_streams()).max().unwrap_or(0);
        let home = Target {
            spec: &self.spec,
            faults: self.config.faults.as_ref(),
            salt: 0,
        };
        let per_epoch = epochs
            .as_ref()
            .map_or(usize::MAX, |e| e.opts.epoch_groups.max(1));
        let first = epochs.as_ref().map_or(0, |e| e.first);
        let mut checkpoints = 0u64;
        for (i, chunk) in run.chunks(per_epoch).enumerate() {
            let epoch = first + i as u64;
            if let Some(e) = epochs.as_mut() {
                for g in chunk {
                    e.journal.append(&JournalRecord::GroupStaged {
                        gid: g.gid as u32,
                        epoch: epoch as u32,
                        indices: g.indices.iter().map(|&i| i as u32).collect(),
                    });
                }
            }
            let mut shards: Vec<Vec<&Group>> = vec![Vec::new(); workers];
            for (j, g) in chunk.iter().enumerate() {
                shards[j % workers].push(g);
            }
            let runs = dispatch(
                &shards,
                workers,
                |shard| run_device(home, shard, requests, aux, &self.config, false),
                |shard, payload| lost_run(shard, requests, &self.config, payload),
            );
            for r in runs {
                served.absorb(r);
            }
            if let Some(e) = epochs.as_mut() {
                // The host dies before the epoch's flush: its Done
                // records were appended but never made durable.
                if e.opts.crash.fires_at(epoch) {
                    e.journal.crash();
                    let wasted =
                        merge_timeline(&served.op_groups, self.spec.max_concurrent_kernels);
                    return JournalRun::Crashed(ServeCrash {
                        epoch,
                        durable_done: count_durable_done(e.journal),
                        wasted_makespan: wasted.sched.makespan,
                    });
                }
                let done: Vec<(usize, RequestOutcome)> = chunk
                    .iter()
                    .flat_map(|g| &g.indices)
                    .map(|&idx| {
                        let outcome = served.outcomes[idx].clone();
                        (idx, outcome.expect("an absorbed run settles its groups"))
                    })
                    .collect();
                self.checkpoint(e.journal, epoch, &done, e.durable);
                checkpoints += 1;
                record_checkpoint(&mut alog, epoch, e.journal);
            }
        }
        let journal = epochs.map(|e| {
            // An empty tail (everything recovered, or an empty batch)
            // still gets a final checkpoint so the journal visibly
            // terminates.
            if run.is_empty() {
                self.checkpoint(e.journal, e.first, &[], e.durable);
                checkpoints += 1;
                record_checkpoint(&mut alog, e.first, e.journal);
            }
            let stats = e.journal.stats();
            JournalTally {
                records_appended: stats.records_appended - e.stats0.records_appended,
                checkpoints,
                durable_bytes: stats.durable_bytes,
                groups_executed: run.len() as u64,
                ..e.recovered
            }
        });
        // This shape has no virtual clock: placements and the workers'
        // buffered decisions fold at ts 0.0, in gid order, once every
        // epoch ran — so event ids are invariant under the worker count.
        if let Some(a) = alog.as_mut() {
            for g in run {
                let head = &requests[g.indices[0]];
                a.record(
                    0.0,
                    None,
                    Some(g.gid),
                    "group_placed",
                    vec![
                        ("members".into(), g.indices.len().to_string()),
                        ("n".into(), head.time.len().to_string()),
                        ("k".into(), head.k.to_string()),
                        ("qos".into(), g.qos.label().into()),
                        ("backend".into(), g.plan.backend().label().into()),
                    ],
                );
                if let Some(t) = served.tels.iter().find(|t| t.gid == g.gid) {
                    a.fold_group(0.0, g.gid, &t.audit);
                }
            }
        }
        let stages = Stages {
            group_info: run.iter().map(|g| g.info(requests)).collect(),
            journal,
            ..Stages::default()
        };
        JournalRun::Completed(Box::new(self.assemble(all, served, alog, stages)))
    }
}

/// Records an epoch checkpoint on the flight recorder.
fn record_checkpoint(alog: &mut Option<AuditLog>, epoch: u64, journal: &Journal) {
    if let Some(a) = alog.as_mut() {
        a.record(
            epoch as f64,
            None,
            None,
            "checkpoint",
            vec![
                ("epoch".into(), epoch.to_string()),
                (
                    "durable_bytes".into(),
                    journal.stats().durable_bytes.to_string(),
                ),
            ],
        );
    }
}

/// Merges recordings in order and schedules the merged timeline once.
pub(crate) fn merge_timeline(op_groups: &[Vec<Op>], max_concurrent: u32) -> ServeTimeline {
    let ops = merge_op_groups(op_groups);
    let sched = schedule(&ops, max_concurrent);
    ServeTimeline { ops, sched }
}

/// The virtual clock of the fresh shape: each group's completion time,
/// and the order completions were recorded in (which fixes the order of
/// float sums in the latency summaries).
pub(crate) struct Clock {
    pub(crate) completion: Vec<f64>,
    pub(crate) order: Vec<usize>,
}

/// Stage outputs the assembler passes through or derives the report
/// from. The defaults are what a stage that did not run reports.
#[derive(Default)]
pub(crate) struct Stages {
    /// Control-plane markers (admission, breaker and fleet decisions),
    /// merged ahead of every device recording.
    pub(crate) control: Vec<Op>,
    /// Concurrent-kernel limit for the merged schedule; `None` uses the
    /// engine's device.
    pub(crate) max_concurrent: Option<u32>,
    /// The makespan, when it is not the merged schedule's (the fleet's
    /// slowest lane: one merged schedule would fair-share a single
    /// device's SMs across every member).
    pub(crate) makespan: Option<f64>,
    /// `None` on the clockless sharded shape, whose terminals carry
    /// request ordinals instead of times.
    pub(crate) clock: Option<Clock>,
    /// Arrival time per request (empty: every request arrived at 0).
    pub(crate) arrivals: Vec<f64>,
    pub(crate) group_info: Vec<GroupInfo>,
    pub(crate) overload: OverloadTally,
    pub(crate) breaker: Vec<BreakerTransition>,
    pub(crate) fleet: FleetTally,
    pub(crate) devices: Vec<FleetDeviceInfo>,
    pub(crate) journal: Option<JournalTally>,
}

impl ServeEngine {
    /// Assembles the report: merges the control markers and device
    /// recordings into one timeline and schedules it once, resolves
    /// every outcome, rolls kernel/pool telemetry up in gid order (so
    /// float sums are worker-count invariant), summarises latency on the
    /// virtual clock and seals the flight recorder.
    pub(crate) fn assemble(
        &self,
        groups: &[Group],
        served: Served,
        alog: Option<AuditLog>,
        stages: Stages,
    ) -> ServeReport {
        let Served {
            outcomes,
            faults,
            mut op_groups,
            mut tels,
        } = served;
        op_groups.insert(0, stages.control);
        let timeline = merge_timeline(
            &op_groups,
            stages
                .max_concurrent
                .unwrap_or(self.spec.max_concurrent_kernels),
        );
        let concurrency = concurrency_profile(&timeline.ops, &timeline.sched);
        let makespan = stages.makespan.unwrap_or(concurrency.makespan);
        let outcomes: Vec<RequestOutcome> = outcomes
            .into_iter()
            // Invariant: every request is rejected at admission, restored
            // from the journal, or served by exactly one group.
            .map(|o| o.expect("every request resolves to exactly one outcome"))
            .collect();
        let completed = outcomes.iter().filter(|o| o.response().is_some()).count();
        let throughput = if makespan > 0.0 {
            completed as f64 / makespan
        } else {
            0.0
        };

        tels.sort_by_key(|t| t.gid);
        let kernels = merge_rollups(&tels);
        let mut pool = PoolTally::default();
        for t in &tels {
            pool.absorb(&t.pool);
        }

        let arrival = |i: usize| stages.arrivals.get(i).copied().unwrap_or(0.0);
        let mut samples: Vec<(ServePath, ServeQos, f64)> = Vec::new();
        if let Some(clock) = &stages.clock {
            for &gid in &clock.order {
                for &idx in &groups[gid].indices {
                    if let Some(r) = outcomes[idx].response() {
                        samples.push((r.path, r.qos, clock.completion[gid] - arrival(idx)));
                    }
                }
            }
        }
        let latency = LatencyStats::from_latencies(samples.iter().map(|s| s.2).collect());
        let path_latency = path_latency_summary(&samples);

        // Terminals land at the group's virtual completion (at arrival
        // for requests no group served), or at the request ordinal on the
        // clockless shape.
        let audit = alog.map(|a| {
            let mut gid_of: Vec<Option<usize>> = vec![None; outcomes.len()];
            for g in groups {
                for &i in &g.indices {
                    gid_of[i] = Some(g.gid);
                }
            }
            let (ts_of, lat_of): (Vec<f64>, Vec<Option<f64>>) = (0..outcomes.len())
                .map(|i| match &stages.clock {
                    None => (i as f64, None),
                    Some(clock) => {
                        let ts = gid_of[i].map_or(arrival(i), |g| clock.completion[g]);
                        (ts, outcomes[i].response().map(|_| ts - arrival(i)))
                    }
                })
                .unzip();
            finalize_audit(
                a,
                &outcomes,
                &gid_of,
                &ts_of,
                &lat_of,
                &SloConfig::default(),
            )
        });

        ServeReport {
            outcomes,
            makespan,
            throughput,
            concurrency,
            cache: self.cache.stats(),
            groups: groups.len(),
            faults,
            overload: stages.overload,
            latency,
            breaker: stages.breaker,
            timeline,
            group_info: stages.group_info,
            path_latency,
            arrivals: stages.arrivals,
            kernels,
            pool,
            fleet: stages.fleet,
            devices: stages.devices,
            journal: stages.journal,
            audit,
        }
    }
}

/// Folds per-request `(path, qos, latency)` samples into deterministic
/// per-class summaries, scanning classes in a fixed order and keeping
/// only the non-empty ones.
fn path_latency_summary(samples: &[(ServePath, ServeQos, f64)]) -> Vec<PathLatency> {
    const CLASSES: [(ServePath, ServeQos); 6] = [
        (ServePath::Gpu, ServeQos::Full),
        (ServePath::Gpu, ServeQos::Degraded),
        (ServePath::GpuRetry, ServeQos::Full),
        (ServePath::GpuRetry, ServeQos::Degraded),
        (ServePath::Cpu, ServeQos::Full),
        (ServePath::Cpu, ServeQos::Degraded),
    ];
    let mut out = Vec::new();
    for (path, qos) in CLASSES {
        let mut hist = cusfft_telemetry::Histogram::default();
        for (p, q, lat) in samples {
            if *p == path && *q == qos {
                hist.observe(*lat);
            }
        }
        if hist.count > 0 {
            out.push(PathLatency {
                path,
                qos,
                count: hist.count,
                p50: hist.quantile(0.5),
                p95: hist.quantile(0.95),
                p99: hist.quantile(0.99),
                hist,
            });
        }
    }
    out
}
