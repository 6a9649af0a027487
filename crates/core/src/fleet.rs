//! `cusfft::fleet` — heterogeneous device fleets with fault-domain
//! routing, device-loss failover, and drain/recovery.
//!
//! A [`DeviceFleet`] serves the same request batches as
//! [`ServeEngine::serve_batch`], but across a pool of simulated devices
//! with *different* [`DeviceSpec`]s (a K20x next to a big-memory K40
//! next to a budget Quadro). Each member carries its own capacity
//! accounting ([`gpu_sim::MemPool`]), its own circuit breaker, its own
//! fault domain (a per-member scope salt, so the same group rolls
//! independent fault timelines on different members), and a health
//! score fed by the [`FaultTally`] of every group it executes.
//!
//! ## Routing
//!
//! Placement is decided per group, in global group order, on the
//! coordinator thread, from deterministic quantities only:
//!
//! * the backend's analytic cost estimate *on that member's model
//!   device* ([`crate::backend::Backend::estimate_cost`] — a slow
//!   member prices the same group higher),
//! * the member's virtual queue depth (sum of costs already routed to
//!   it this call),
//! * capacity headroom (the member's `MemPool` must hold the group's
//!   predicted working set), and
//! * breaker state (Open members take at most a HalfOpen probe).
//!
//! The chosen member minimises `(queue + cost) × (2 − health)` with
//! ties to the lowest member id. Nothing in the key depends on worker
//! count, host pool width, or OS scheduling, so the [`ServeReport`] is
//! bit-identical across `workers` settings — the same contract the
//! single-device serving layers honour.
//!
//! ## Failure lifecycle
//!
//! * **Device loss** — a member whose fault plan enables
//!   [`gpu_sim::FaultClass::DeviceLoss`] rolls one loss decision per
//!   epoch (never on the op path, see `gpu_sim::fault`); a lost member
//!   goes dark for the rest of the call.
//! * **Failover** — groups routed to a member that just went dark are
//!   re-routed to the best healthy member using *standby slabs*
//!   ([`gpu_sim::StandbySlabs`]): fixed slots reserved from each
//!   member's pool at fleet build, wasmtime-pooling style, so the
//!   failover hot path performs no allocation — acquiring a slot is a
//!   free-list pop. With no healthy member (or no free slot) the group
//!   completes on the CPU tier instead; requests never fail because a
//!   device died.
//! * **Drain** — a member whose breaker trips
//!   [`FleetConfig::drain_after_trips`] times is quarantined: routed
//!   around and barred from probing for
//!   [`FleetConfig::drain_cooldown_epochs`] epochs, after which
//!   HalfOpen probes resume and a clean probe re-admits it.
//! * **Brownout** — when the aggregate modeled speed of healthy members
//!   falls below [`FleetConfig::brownout_capacity_fraction`] of the
//!   fleet total, the epoch's full-QoS groups are re-keyed onto
//!   [`ServeQos::Degraded`] plans, shedding accuracy margin instead of
//!   requests.
//!
//! The simulated makespan is the slowest member's virtual clock (or the
//! CPU lane's), *not* the merged timeline's schedule: the merged
//! timeline fair-shares one device's SMs across all streams and would
//! model N members as one device at 1/N speed. The merged ops are still
//! kept on the report for span/trace export.
//!
//! [`FaultTally`]: crate::serve::FaultTally

use cusfft_telemetry::fmt_f64;
use gpu_sim::{
    fault_roll, BreakerConfig, BreakerDecision, CircuitBreaker, DeviceSpec, FaultClass,
    FaultConfig, GpuDevice, MemPool, StandbySlabs, StandbyStats, DEFAULT_STREAM,
};
use std::sync::Arc;

use crate::audit::AuditLog;
use crate::backend::{worker_device, Backend, BackendRegistry, GpuSimBackend};
use crate::error::CusFftError;
use crate::overload::OverloadTally;
use crate::plan_cache::{PlanKey, ServeQos};
use crate::serve::{
    GroupInfo, RequestOutcome, ServeConfig, ServeEngine, ServeReport, ServeRequest,
};
use crate::serve_core::{run_fresh, serve_on_cpu, Clock, Group, Served, Stages, Target};

/// One fleet member: a device spec plus an optional member-local fault
/// plan overriding [`ServeConfig::faults`] (this is how a test or
/// benchmark targets device loss at one member while the rest serve
/// clean).
#[derive(Debug, Clone)]
pub struct FleetMemberConfig {
    /// The member's device model.
    pub spec: DeviceSpec,
    /// Member-local fault plan; `None` inherits the engine's.
    pub faults: Option<FaultConfig>,
}

impl FleetMemberConfig {
    /// A member inheriting the engine's fault plan.
    pub fn new(spec: DeviceSpec) -> Self {
        FleetMemberConfig { spec, faults: None }
    }
}

/// Fleet topology and failure-lifecycle policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The members, in id order. Must be non-empty.
    pub members: Vec<FleetMemberConfig>,
    /// Per-member circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Groups per routing epoch (device-loss rolls happen at epoch
    /// granularity). Must be ≥ 1.
    pub epoch_groups: usize,
    /// Breaker trips after which a member is drained (quarantined).
    pub drain_after_trips: u64,
    /// Epochs a drained member sits out before HalfOpen probes resume.
    pub drain_cooldown_epochs: usize,
    /// Standby failover slots reserved per member at fleet build.
    pub standby_slots: usize,
    /// Bytes per standby slot.
    pub standby_slot_bytes: u64,
    /// Brownout trigger: when healthy modeled speed falls below this
    /// fraction of the fleet total, full-QoS groups degrade. In `0..=1`.
    pub brownout_capacity_fraction: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            members: Vec::new(),
            breaker: BreakerConfig::default(),
            epoch_groups: 4,
            drain_after_trips: 2,
            drain_cooldown_epochs: 2,
            standby_slots: 2,
            standby_slot_bytes: 8 << 20,
            brownout_capacity_fraction: 0.5,
        }
    }
}

impl FleetConfig {
    /// The paper's K20x next to a big-memory K40 and a budget Quadro
    /// K2000 — the heterogeneous pool the fleet benchmarks route over.
    pub fn heterogeneous() -> Self {
        FleetConfig {
            members: vec![
                FleetMemberConfig::new(DeviceSpec::tesla_k20x()),
                FleetMemberConfig::new(DeviceSpec::tesla_k40()),
                FleetMemberConfig::new(DeviceSpec::quadro_k2000()),
            ],
            ..FleetConfig::default()
        }
    }

    /// `n` identical K20x members.
    pub fn homogeneous(n: usize) -> Self {
        FleetConfig {
            members: (0..n)
                .map(|_| FleetMemberConfig::new(DeviceSpec::tesla_k20x()))
                .collect(),
            ..FleetConfig::default()
        }
    }
}

/// Fleet routing/failover counters for one [`DeviceFleet::serve`] call.
/// Deterministic: a function of `(requests, configs)` alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetTally {
    /// Groups placed on a fleet member by the router.
    pub routed_groups: u64,
    /// Groups re-routed off a member that went dark.
    pub failovers: u64,
    /// Whole-device losses rolled this call.
    pub device_losses: u64,
    /// Times a member entered drain quarantine.
    pub drains: u64,
    /// HalfOpen probe groups admitted to suspect members.
    pub drain_probes: u64,
    /// Groups re-keyed to [`ServeQos::Degraded`] by fleet brownout.
    pub brownout_groups: u64,
    /// Groups served on the CPU tier because no member could take them.
    pub cpu_served_groups: u64,
    /// Standby-slab acquisitions this call (failover placements).
    pub standby_acquires: u64,
    /// Failovers that found every standby slot of the target in use.
    pub standby_exhausted: u64,
}

/// Per-member summary on the [`ServeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDeviceInfo {
    /// Member id (index into [`FleetConfig::members`]).
    pub id: usize,
    /// The member's device-spec name (telemetry label `device=<id>/<spec>`).
    pub spec_name: String,
    /// Groups this member executed (including failover arrivals).
    pub groups: u64,
    /// Failover groups that landed here from a dark member.
    pub failovers_in: u64,
    /// Whether the member went dark during the call.
    pub lost: bool,
    /// Whether the member ended the call in drain quarantine.
    pub drained: bool,
    /// Times the member entered drain quarantine.
    pub drains: u64,
    /// Breaker trips over the call.
    pub trips: u64,
    /// Final health score in `0..=1` (EWMA of per-group fault severity).
    pub health: f64,
    /// The member's virtual-clock busy time (seconds).
    pub busy: f64,
}

/// A routed placement of one group on one member for the current epoch.
struct Placement {
    gid: usize,
    member: usize,
    /// The group's modeled cost on each member, as routing priced it.
    est: Vec<f64>,
    /// `MemPool` reservation granule (primary placements).
    granule: Option<u64>,
    /// Standby-slab slot (failover placements — no pool traffic).
    slab_slot: Option<usize>,
    /// Whether this placement is the member's HalfOpen probe.
    probe: bool,
}

/// Per-member fleet-salted fault scope: bits 44+ are disjoint from the
/// serving layer's per-group scope layout (`gid << 20`), so the same
/// group rolls independent fault timelines on different members.
fn member_salt(m: usize) -> u64 {
    ((m as u64) + 1) << 44
}

/// Abstract host operations per second the CPU emergency tier is
/// modeled at, in the *simulated* clock domain the member lanes run in.
/// The admission pricer's 1e9 ops/s (`SfftCpuBackend::estimate_cost`)
/// prices the planned, vectorised multi-core path in host wall seconds;
/// the emergency lane instead runs the scalar reference recovery,
/// serialised behind a single lane on cache-cold data, so it is modeled
/// latency-bound at 5e7 ops/s — slower than any fleet member, which is
/// why the tier is the last resort and not a routing candidate.
const CPU_TIER_OP_RATE: f64 = 5e7;

/// Modeled duration of one group's worth of requests on the CPU tier.
fn cpu_tier_cost(params: &sfft_cpu::SfftParams, requests: usize) -> f64 {
    params.host_work_estimate() / CPU_TIER_OP_RATE * requests as f64
}

/// Records member `m`'s breaker transitions that appeared since the
/// caller's last check as `breaker_transition` audit events, attributed
/// to the group whose admit/observe drove them.
fn audit_transitions(
    alog: &mut Option<AuditLog>,
    ts: f64,
    gid: Option<usize>,
    m: usize,
    breaker: &CircuitBreaker,
    seen: &mut usize,
) {
    let transitions = breaker.transitions();
    if let Some(a) = alog.as_mut() {
        for tr in &transitions[*seen..] {
            a.record(
                ts,
                None,
                gid,
                "breaker_transition",
                vec![
                    ("member".into(), m.to_string()),
                    ("from".into(), tr.from.label().into()),
                    ("to".into(), tr.to.label().into()),
                ],
            );
        }
    }
    *seen = transitions.len();
}

/// A heterogeneous pool of simulated devices behind one serving front.
///
/// Built from a [`FleetConfig`] plus the ordinary [`ServeConfig`] (whose
/// `workers`, retry and fallback policy apply per group execution). The
/// engine's plan cache and backend registry are shared fleet-wide; every
/// member gets its own capacity pool, standby slabs, breaker, health
/// score and fault domain.
pub struct DeviceFleet {
    engine: ServeEngine,
    fleet: FleetConfig,
    /// Per-member capacity accounting (reservations are routing state,
    /// not data: group working sets are predicted, reserved, released).
    pools: Vec<Arc<MemPool>>,
    /// Per-member standby failover slots, reserved at build.
    slabs: Vec<StandbySlabs>,
}

impl std::fmt::Debug for DeviceFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceFleet")
            .field("members", &self.fleet.members.len())
            .field("standby_slots", &self.fleet.standby_slots)
            .finish_non_exhaustive()
    }
}

impl DeviceFleet {
    /// Builds a fleet with all stock backends registered. Rejects
    /// invalid configurations with [`CusFftError::BadConfig`].
    #[must_use = "the engine is returned, not installed; dropping it discards the construction"]
    pub fn new(fleet: FleetConfig, serve: ServeConfig) -> Result<Self, CusFftError> {
        Self::with_registry(fleet, serve, BackendRegistry::with_defaults())
    }

    /// Builds a fleet with an explicit backend registry.
    #[must_use = "the engine is returned, not installed; dropping it discards the construction"]
    pub fn with_registry(
        fleet: FleetConfig,
        serve: ServeConfig,
        registry: BackendRegistry,
    ) -> Result<Self, CusFftError> {
        if fleet.members.is_empty() {
            return Err(CusFftError::BadConfig {
                reason: "fleet has no members".into(),
            });
        }
        if fleet.epoch_groups < 1 {
            return Err(CusFftError::BadConfig {
                reason: "fleet epoch_groups must be at least 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&fleet.brownout_capacity_fraction) {
            return Err(CusFftError::BadConfig {
                reason: format!(
                    "brownout_capacity_fraction {} outside 0..=1",
                    fleet.brownout_capacity_fraction
                ),
            });
        }
        for (m, member) in fleet.members.iter().enumerate() {
            if member.spec.global_mem_bytes == 0 {
                return Err(CusFftError::BadConfig {
                    reason: format!(
                        "fleet member {m} ('{}') has zero memory capacity",
                        member.spec.name
                    ),
                });
            }
        }
        let engine = ServeEngine::with_registry(fleet.members[0].spec.clone(), serve, registry)?;
        let pools: Vec<Arc<MemPool>> = fleet
            .members
            .iter()
            .map(|m| Arc::new(MemPool::new(m.spec.global_mem_bytes as u64)))
            .collect();
        let mut slabs = Vec::with_capacity(fleet.members.len());
        for (m, pool) in pools.iter().enumerate() {
            let slab = StandbySlabs::new(pool, fleet.standby_slots, fleet.standby_slot_bytes)
                .map_err(|e| CusFftError::BadConfig {
                    reason: format!(
                        "fleet member {m} ('{}') cannot hold its standby reservation: {e}",
                        fleet.members[m].spec.name
                    ),
                })?;
            slabs.push(slab);
        }
        Ok(DeviceFleet {
            engine,
            fleet,
            pools,
            slabs,
        })
    }

    /// The shared serving engine (plan cache, registry, serve config).
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// The fleet topology/policy.
    pub fn config(&self) -> &FleetConfig {
        &self.fleet
    }

    /// Per-member `(alloc_ops, release_ops)` pool traffic (cumulative).
    pub fn pool_traffic(&self) -> Vec<(u64, u64)> {
        self.pools
            .iter()
            .map(|p| (p.alloc_ops(), p.release_ops()))
            .collect()
    }

    /// Serves a batch across the fleet. Outcomes come back in
    /// submission order; the report is bit-identical across
    /// [`ServeConfig::workers`] settings and host pool widths for a
    /// fixed `(requests, configs)`.
    pub fn serve(&self, requests: &[ServeRequest]) -> ServeReport {
        let cfg = self.engine.config;
        let nmembers = self.fleet.members.len();
        let specs: Vec<DeviceSpec> = self.fleet.members.iter().map(|m| m.spec.clone()).collect();
        // Member fault plans: the member override, else the engine's.
        let member_faults: Vec<Option<FaultConfig>> = self
            .fleet
            .members
            .iter()
            .map(|m| m.faults.or(cfg.faults))
            .collect();
        // The estimators only read the spec/model device; one per member
        // prices every group.
        let model_devs: Vec<GpuDevice> = specs.iter().map(|s| worker_device(s, None)).collect();
        // Control-plane markers (routing, loss, failover, drain) record
        // on their own device, in decision order.
        let control = worker_device(&specs[0], None);

        let (mut groups, prefailed) = self.engine.group_requests(requests);
        let mut served = Served::new(requests.len());

        // Flight recorder: the batch root plus per-request invalid
        // verdicts up front; routing/lifecycle decisions stream in as
        // the coordinator makes them.
        let members = nmembers.to_string();
        let mut alog =
            self.engine
                .open_audit(requests.len(), groups.len(), &[("members", &members)]);
        for (idx, err) in prefailed {
            served.reject(idx, err, 0.0, &mut alog);
        }
        let mut seen_tr = vec![0usize; nmembers];

        // Standby counters are cumulative on the slabs; snapshot for a
        // per-call tally.
        let slab_base: Vec<StandbyStats> = self.slabs.iter().map(|s| s.stats()).collect();

        // ---- Per-call member state (coordinator-only). ----------------
        let mut breakers: Vec<CircuitBreaker> = (0..nmembers)
            .map(|_| CircuitBreaker::new(self.fleet.breaker))
            .collect();
        let mut lost = vec![false; nmembers];
        let mut drained = vec![false; nmembers];
        let mut drain_cooldown = vec![0usize; nmembers];
        let mut trips_baseline = vec![0u64; nmembers];
        let mut health = vec![1.0f64; nmembers];
        // Routing horizon: modeled cost already placed on each member.
        let mut queue_clock = vec![0.0f64; nmembers];
        // Completion model: each member is its own lane; the CPU tier is
        // one more.
        let mut member_clock = vec![0.0f64; nmembers];
        let mut cpu_clock = 0.0f64;
        let mut clock = Clock {
            completion: vec![0.0; groups.len()],
            order: Vec::with_capacity(groups.len()),
        };
        let mut member_groups = vec![0u64; nmembers];
        let mut member_failovers_in = vec![0u64; nmembers];
        let mut member_drains = vec![0u64; nmembers];
        let mut fleet_tally = FleetTally::default();
        let mut overload = OverloadTally::default();
        let mut final_member: Vec<Option<usize>> = vec![None; groups.len()];
        let mut cpu_short_circuit = vec![false; groups.len()];
        // Members a group may be placed on outright: up, not quarantined,
        // breaker closed.
        let healthy = |m: usize, lost: &[bool], drained: &[bool], breakers: &[CircuitBreaker]| {
            !lost[m] && !drained[m] && breakers[m].state() == gpu_sim::BreakerState::Closed
        };

        // Modeled relative speed per member, for the brownout trigger.
        // Priced on the first group's geometry (any fixed yardstick
        // works — only the healthy/total ratio matters).
        let speed: Vec<f64> = if let Some(g0) = groups.first() {
            model_devs
                .iter()
                .zip(&specs)
                .map(|(dev, spec)| {
                    1.0 / GpuSimBackend::default()
                        .estimate_cost(dev, spec, g0.plan.params())
                        .max(1e-12)
                })
                .collect()
        } else {
            vec![1.0; nmembers]
        };
        let total_speed: f64 = speed.iter().sum();

        let gid_list: Vec<usize> = (0..groups.len()).collect();
        for (epoch_idx, epoch) in gid_list.chunks(self.fleet.epoch_groups).enumerate() {
            // Routing-phase decisions are stamped with the fleet's
            // virtual clock at epoch start (the slowest lane so far).
            let epoch_ts = member_clock.iter().copied().fold(cpu_clock, f64::max);
            // ---- Brownout check (before routing). ---------------------
            let healthy_speed: f64 = (0..nmembers)
                .filter(|&m| {
                    !lost[m] && !drained[m] && breakers[m].state() != gpu_sim::BreakerState::Open
                })
                .map(|m| speed[m])
                .sum();
            if healthy_speed < self.fleet.brownout_capacity_fraction * total_speed {
                let mut rekeyed = false;
                for &gid in epoch {
                    if groups[gid].qos == ServeQos::Full {
                        let key = PlanKey {
                            qos: ServeQos::Degraded,
                            ..requests[groups[gid].indices[0]].plan_key()
                        };
                        groups[gid].plan = self.engine.plan(key);
                        groups[gid].qos = ServeQos::Degraded;
                        fleet_tally.brownout_groups += 1;
                        rekeyed = true;
                        if let Some(a) = alog.as_mut() {
                            a.record(
                                epoch_ts,
                                None,
                                Some(gid),
                                "brownout",
                                vec![
                                    ("healthy_speed".into(), fmt_f64(healthy_speed)),
                                    ("total_speed".into(), fmt_f64(total_speed)),
                                    (
                                        "fraction".into(),
                                        fmt_f64(self.fleet.brownout_capacity_fraction),
                                    ),
                                ],
                            );
                        }
                    }
                }
                if rekeyed {
                    control.charge_host_op("fleet:brownout", 0.0, DEFAULT_STREAM);
                }
            }

            // ---- Route the epoch's groups, in gid order. --------------
            let mut placements: Vec<Placement> = Vec::with_capacity(epoch.len());
            let mut cpu_gids: Vec<usize> = Vec::new();
            for &gid in epoch {
                let group = &groups[gid];
                // Invariant: groups only exist for registered backends.
                let backend = self
                    .engine
                    .registry
                    .get(requests[group.indices[0]].backend)
                    .expect("grouped requests resolve to registered backends");
                let est: Vec<f64> = (0..nmembers)
                    .map(|m| {
                        backend.estimate_cost(&model_devs[m], &specs[m], group.plan.params())
                            * group.indices.len() as f64
                    })
                    .collect();
                let predicted_bytes =
                    (2 * group.plan.params().n * std::mem::size_of::<fft::cplx::Cplx>()) as u64
                        * group.indices.len() as u64;

                // Snapshot every candidate's routing inputs before any
                // reservation mutates them: the placement event carries
                // the full scored field, not just the winner.
                let mut cand_attrs: Vec<(String, String)> = Vec::new();
                if cfg.audit {
                    for m in 0..nmembers {
                        let state = if lost[m] {
                            "lost"
                        } else if drained[m] {
                            "drained"
                        } else {
                            breakers[m].state().label()
                        };
                        cand_attrs.push((format!("m{m}.est"), fmt_f64(est[m])));
                        cand_attrs.push((format!("m{m}.queue"), fmt_f64(queue_clock[m])));
                        cand_attrs.push((format!("m{m}.health"), fmt_f64(health[m])));
                        cand_attrs.push((
                            format!("m{m}.headroom"),
                            (self.pools[m].free() >= predicted_bytes).to_string(),
                        ));
                        cand_attrs.push((
                            format!("m{m}.score"),
                            fmt_f64((queue_clock[m] + est[m]) * (2.0 - health[m])),
                        ));
                        cand_attrs.push((format!("m{m}.state"), state.into()));
                    }
                }

                // Open breakers first: a suspect member takes at most
                // its HalfOpen probe (drain quarantine bars even that
                // until its cooldown elapses).
                let mut probe = None;
                for m in 0..nmembers {
                    if lost[m]
                        || breakers[m].state() != gpu_sim::BreakerState::Open
                        || (drained[m] && drain_cooldown[m] > 0)
                    {
                        continue;
                    }
                    let decision = breakers[m].admit(gid);
                    audit_transitions(
                        &mut alog,
                        epoch_ts,
                        Some(gid),
                        m,
                        &breakers[m],
                        &mut seen_tr[m],
                    );
                    // ShortCircuit: the cooldown ticked and the member
                    // stays dark to this group.
                    if decision == BreakerDecision::Probe {
                        probe = self.pools[m]
                            .try_reserve(predicted_bytes)
                            .ok()
                            .map(|g| (m, g));
                        break;
                    }
                }
                let choice = match probe {
                    Some((m, granule)) => {
                        fleet_tally.drain_probes += 1;
                        overload.breaker_probes += 1;
                        control.charge_host_op("breaker:probe", 0.0, DEFAULT_STREAM);
                        Some((m, granule, true))
                    }
                    // Deterministic cost/queue/headroom/health argmin
                    // over healthy members.
                    None => argmin(
                        nmembers,
                        |m| {
                            healthy(m, &lost, &drained, &breakers)
                                && self.pools[m].free() >= predicted_bytes
                        },
                        |m| (queue_clock[m] + est[m]) * (2.0 - health[m]),
                    )
                    .map(|m| {
                        breakers[m].admit(gid);
                        audit_transitions(
                            &mut alog,
                            epoch_ts,
                            Some(gid),
                            m,
                            &breakers[m],
                            &mut seen_tr[m],
                        );
                        // Headroom was checked against free(); the
                        // reservation itself cannot race (coordinator
                        // only), so a failure here is a logic error.
                        let granule = self.pools[m]
                            .try_reserve(predicted_bytes)
                            .expect("routing checked capacity headroom");
                        (m, granule, false)
                    }),
                };
                if let Some(a) = alog.as_mut() {
                    let mut attrs = cand_attrs;
                    match choice {
                        Some((m, _, probe)) => {
                            attrs.push(("chosen".into(), format!("m{m}")));
                            attrs.push(("probe".into(), probe.to_string()));
                        }
                        None => {
                            attrs.push(("chosen".into(), "cpu".into()));
                            attrs.push(("reason".into(), "no_eligible_member".into()));
                        }
                    }
                    a.record(epoch_ts, None, Some(gid), "router_placement", attrs);
                }
                match choice {
                    Some((m, granule, probe)) => {
                        queue_clock[m] += est[m];
                        fleet_tally.routed_groups += 1;
                        placements.push(Placement {
                            gid,
                            member: m,
                            est,
                            granule: Some(granule),
                            slab_slot: None,
                            probe,
                        });
                    }
                    None => cpu_gids.push(gid),
                }
            }

            // ---- Epoch-granular device loss + failover. ---------------
            // Loss decisions come from the public fault-roll hash at
            // (member scope, epoch ordinal) — pure, off the op path, and
            // independent of routing.
            for m in 0..nmembers {
                let Some(f) = &member_faults[m] else { continue };
                if lost[m] || f.device_loss_rate <= 0.0 {
                    continue;
                }
                if fault_roll(
                    f.seed,
                    member_salt(m),
                    epoch_idx as u64,
                    FaultClass::DeviceLoss,
                ) < f.device_loss_rate
                {
                    lost[m] = true;
                    fleet_tally.device_losses += 1;
                    control.charge_host_op(
                        &format!("fault:device_loss:member{m}"),
                        0.0,
                        DEFAULT_STREAM,
                    );
                    if let Some(a) = alog.as_mut() {
                        a.record(
                            epoch_ts,
                            None,
                            None,
                            "device_loss",
                            vec![
                                ("member".into(), m.to_string()),
                                ("epoch".into(), epoch_idx.to_string()),
                            ],
                        );
                    }
                }
            }
            for p in placements.iter_mut().filter(|p| lost[p.member]) {
                let from = p.member;
                // Release the dark member's reservation (its pool
                // survives the device for accounting purposes).
                if let Some(granule) = p.granule.take() {
                    self.pools[from].release_reservation(granule);
                }
                // Failover target: best healthy member with a free
                // standby slot — no pool traffic on this path.
                let best = argmin(
                    nmembers,
                    |m| healthy(m, &lost, &drained, &breakers),
                    |m| (queue_clock[m] + p.est[m]) * (2.0 - health[m]),
                );
                let target = best.and_then(|m| self.slabs[m].acquire().map(|slot| (m, slot)));
                fleet_tally.failovers += 1;
                let (to, via) = match target {
                    Some((m, _)) => (format!("m{m}"), "standby_slab"),
                    // No healthy member (or standby slots dry): the
                    // group still completes, on the CPU tier.
                    None => ("cpu".to_string(), "no_healthy_member_or_slots"),
                };
                control.charge_host_op(
                    &format!("fleet:failover:m{from}:{to}"),
                    0.0,
                    DEFAULT_STREAM,
                );
                if let Some(a) = alog.as_mut() {
                    a.record(
                        epoch_ts,
                        None,
                        Some(p.gid),
                        "failover",
                        vec![
                            ("from".into(), format!("m{from}")),
                            ("to".into(), to),
                            ("via".into(), via.into()),
                        ],
                    );
                }
                match target {
                    Some((m, slot)) => {
                        member_failovers_in[m] += 1;
                        breakers[m].admit(p.gid);
                        audit_transitions(
                            &mut alog,
                            epoch_ts,
                            Some(p.gid),
                            m,
                            &breakers[m],
                            &mut seen_tr[m],
                        );
                        queue_clock[m] += p.est[m];
                        p.member = m;
                        p.slab_slot = Some(slot);
                        p.probe = false;
                    }
                    None => {
                        p.member = usize::MAX;
                        cpu_gids.push(p.gid);
                    }
                }
            }
            placements.retain(|p| p.member != usize::MAX);
            cpu_gids.sort_unstable();

            // ---- Execute the wave (deterministic per group). ----------
            let placed: Vec<(&Group, Target)> = placements
                .iter()
                .map(|p| {
                    let target = Target {
                        spec: &specs[p.member],
                        faults: member_faults[p.member].as_ref(),
                        salt: member_salt(p.member),
                    };
                    (&groups[p.gid], target)
                })
                .collect();
            let runs = run_fresh(&placed, requests, &cfg, false);

            // ---- Observe, in gid order, on the coordinator. -----------
            for (run, p) in runs.into_iter().zip(&placements) {
                debug_assert_eq!(run.gid, p.gid);
                let m = p.member;
                let faulted = run.run.tally.injected > 0;
                breakers[m].observe(p.gid, faulted);
                let t = &run.run.tally;
                let severity =
                    ((t.injected + t.retries + t.cpu_fallbacks + t.failed) as f64 / 8.0).min(1.0);
                health[m] = 0.75 * health[m] + 0.25 * (1.0 - severity);
                member_groups[m] += 1;
                member_clock[m] += run.duration;
                let completion = member_clock[m];
                clock.completion[p.gid] = completion;
                clock.order.push(p.gid);
                // Worker-buffered decisions fold here, in gid order, so
                // event ids are worker-count invariant; the observe's
                // breaker transitions follow them.
                if let Some(a) = alog.as_mut() {
                    for t in &run.run.tels {
                        a.fold_group(completion, p.gid, &t.audit);
                    }
                }
                audit_transitions(
                    &mut alog,
                    completion,
                    Some(p.gid),
                    m,
                    &breakers[m],
                    &mut seen_tr[m],
                );
                served.absorb(run.run);
                final_member[p.gid] = Some(m);

                // Return routing resources.
                if let Some(granule) = p.granule {
                    self.pools[m].release_reservation(granule);
                }
                if let Some(slot) = p.slab_slot {
                    self.slabs[m].release(slot);
                }

                // Drain entry: the breaker tripped too often since the
                // member's last clean probe.
                if !drained[m]
                    && breakers[m].trips() - trips_baseline[m] >= self.fleet.drain_after_trips
                    && self.fleet.drain_after_trips > 0
                {
                    drained[m] = true;
                    drain_cooldown[m] = self.fleet.drain_cooldown_epochs;
                    fleet_tally.drains += 1;
                    member_drains[m] += 1;
                    control.charge_host_op(&format!("fleet:drain:m{m}"), 0.0, DEFAULT_STREAM);
                    if let Some(a) = alog.as_mut() {
                        a.record(
                            completion,
                            None,
                            Some(p.gid),
                            "drain",
                            vec![
                                ("member".into(), m.to_string()),
                                ("trips".into(), breakers[m].trips().to_string()),
                                (
                                    "cooldown_epochs".into(),
                                    self.fleet.drain_cooldown_epochs.to_string(),
                                ),
                            ],
                        );
                    }
                }
                // Probe resolution: a clean probe closed the breaker and
                // re-admits the member; a faulted probe re-opened it and
                // restarts the quarantine clock.
                if p.probe {
                    if let Some(a) = alog.as_mut() {
                        a.record(
                            completion,
                            None,
                            Some(p.gid),
                            "drain_probe",
                            vec![
                                ("member".into(), m.to_string()),
                                ("clean".into(), (!faulted).to_string()),
                            ],
                        );
                    }
                    if breakers[m].state() == gpu_sim::BreakerState::Closed {
                        trips_baseline[m] = breakers[m].trips();
                        if drained[m] {
                            drained[m] = false;
                            control.charge_host_op(
                                &format!("fleet:recover:m{m}"),
                                0.0,
                                DEFAULT_STREAM,
                            );
                            if let Some(a) = alog.as_mut() {
                                a.record(
                                    completion,
                                    None,
                                    Some(p.gid),
                                    "recover",
                                    vec![("member".into(), m.to_string())],
                                );
                            }
                        }
                    } else if drained[m] {
                        drain_cooldown[m] = self.fleet.drain_cooldown_epochs;
                    }
                }
            }

            // ---- CPU tier, in gid order. ------------------------------
            for gid in cpu_gids {
                let group = &groups[gid];
                fleet_tally.cpu_served_groups += 1;
                cpu_short_circuit[gid] = true;
                let est = cpu_tier_cost(group.plan.params(), group.indices.len());
                control.charge_host_op(&format!("fleet:cpu_serve:g{gid}"), est, DEFAULT_STREAM);
                cpu_clock += est;
                clock.completion[gid] = cpu_clock;
                clock.order.push(gid);
                if let Some(a) = alog.as_mut() {
                    a.record(
                        cpu_clock,
                        None,
                        Some(gid),
                        "cpu_tier",
                        vec![
                            ("requests".into(), group.indices.len().to_string()),
                            ("est".into(), fmt_f64(est)),
                        ],
                    );
                }
                // A device loss never fails a request: the CPU tier
                // serves whatever no member could take.
                for &idx in &group.indices {
                    served.faults.cpu_fallbacks += 1;
                    let response = serve_on_cpu(group, &requests[idx]);
                    served.outcomes[idx] = Some(RequestOutcome::Done(response));
                }
            }

            // ---- Epoch end: quarantine clocks tick. -------------------
            for m in 0..nmembers {
                if drained[m] && drain_cooldown[m] > 0 {
                    drain_cooldown[m] -= 1;
                }
            }
        }

        // Breaker transitions onto the control timeline, member order.
        let mut breaker_log: Vec<gpu_sim::BreakerTransition> = Vec::new();
        for b in &breakers {
            for tr in b.transitions() {
                control.charge_host_op(&format!("breaker:{}", tr.to.label()), 0.0, DEFAULT_STREAM);
            }
            breaker_log.extend_from_slice(b.transitions());
            overload.breaker_trips += b.trips();
        }

        let slab_now: Vec<StandbyStats> = self.slabs.iter().map(|s| s.stats()).collect();
        for (now, base) in slab_now.iter().zip(&slab_base) {
            fleet_tally.standby_acquires += now.acquires - base.acquires;
            fleet_tally.standby_exhausted += now.exhausted - base.exhausted;
        }

        let devices: Vec<FleetDeviceInfo> = (0..nmembers)
            .map(|m| FleetDeviceInfo {
                id: m,
                spec_name: specs[m].name.clone(),
                groups: member_groups[m],
                failovers_in: member_failovers_in[m],
                lost: lost[m],
                drained: drained[m],
                drains: member_drains[m],
                trips: breakers[m].trips(),
                health: health[m],
                busy: member_clock[m],
            })
            .collect();

        let group_info: Vec<GroupInfo> = groups
            .iter()
            .map(|g| GroupInfo {
                short_circuit: cpu_short_circuit[g.gid],
                device: final_member[g.gid],
                ..g.info(requests)
            })
            .collect();

        let stages = Stages {
            control: control.ops(),
            // The merged timeline is kept for span/trace export only; the
            // makespan is the slowest lane (see the module docs).
            max_concurrent: specs.iter().map(|s| s.max_concurrent_kernels).max(),
            makespan: Some(member_clock.iter().copied().fold(cpu_clock, f64::max)),
            clock: Some(clock),
            group_info,
            overload,
            breaker: breaker_log,
            fleet: fleet_tally,
            devices,
            ..Stages::default()
        };
        self.engine.assemble(&groups, served, alog, stages)
    }
}

/// The eligible member minimising `score`, ties to the lowest id.
fn argmin(
    members: usize,
    eligible: impl Fn(usize) -> bool,
    score: impl Fn(usize) -> f64,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for m in (0..members).filter(|&m| eligible(m)) {
        let s = score(m);
        // Strict less-than: ties go to the lowest id.
        if best.is_none_or(|(_, b)| s < b) {
            best = Some((m, s));
        }
    }
    best.map(|(m, _)| m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Variant;
    use signal::{MagnitudeModel, SparseSignal};

    fn request(n: usize, k: usize, sig_seed: u64, seed: u64) -> ServeRequest {
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, sig_seed);
        ServeRequest::new(s.time, k, Variant::Optimized, seed)
    }

    #[test]
    fn empty_fleet_is_rejected_typed() {
        let err = DeviceFleet::new(FleetConfig::default(), ServeConfig::default()).unwrap_err();
        assert!(
            matches!(err, CusFftError::BadConfig { ref reason } if reason.contains("no members"))
        );
    }

    #[test]
    fn zero_capacity_member_is_rejected_typed() {
        let mut fleet = FleetConfig::homogeneous(2);
        fleet.members[1].spec.global_mem_bytes = 0;
        let err = DeviceFleet::new(fleet, ServeConfig::default()).unwrap_err();
        assert!(
            matches!(err, CusFftError::BadConfig { ref reason } if reason.contains("member 1"))
        );
    }

    #[test]
    fn oversized_standby_budget_is_rejected_typed() {
        let mut fleet = FleetConfig::homogeneous(1);
        fleet.standby_slot_bytes = 64 << 30;
        let err = DeviceFleet::new(fleet, ServeConfig::default()).unwrap_err();
        assert!(
            matches!(err, CusFftError::BadConfig { ref reason } if reason.contains("standby")),
            "got {err:?}"
        );
    }

    #[test]
    fn zero_workers_is_rejected_through_the_engine() {
        let err = DeviceFleet::new(
            FleetConfig::homogeneous(1),
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CusFftError::BadConfig { .. }));
    }

    #[test]
    fn heterogeneous_fleet_serves_and_reports_members() {
        let fleet = DeviceFleet::new(FleetConfig::heterogeneous(), ServeConfig::default()).unwrap();
        let reqs: Vec<ServeRequest> = (0..6)
            .map(|i| {
                let n = if i % 2 == 0 { 1 << 10 } else { 1 << 11 };
                request(n, 4, i as u64, 100 + i as u64)
            })
            .collect();
        let report = fleet.serve(&reqs);
        assert_eq!(report.outcomes.len(), 6);
        assert!(report.outcomes.iter().all(|o| o.response().is_some()));
        assert_eq!(report.devices.len(), 3);
        assert_eq!(report.fleet.routed_groups, report.groups as u64);
        assert_eq!(report.fleet.device_losses, 0);
        assert!(report.makespan > 0.0);
        // Every group landed on some member and says which.
        for info in &report.group_info {
            let m = info.device.expect("fault-free fleet groups run on devices");
            assert!(m < 3);
        }
        // Routing reservations were all returned; the only outstanding
        // reservations are the standby slots held since build.
        let standby = fleet.config().standby_slots as u64;
        for (alloc, release) in fleet.pool_traffic() {
            assert_eq!(alloc, release + standby);
        }
    }

    #[test]
    fn fleet_report_is_invariant_under_worker_count() {
        let reqs: Vec<ServeRequest> = (0..8)
            .map(|i| {
                let n = if i % 2 == 0 { 1 << 10 } else { 1 << 11 };
                request(n, 4, i as u64, 7 * i as u64)
            })
            .collect();
        let serve_with = |workers: usize| {
            let mut fleet_cfg = FleetConfig::heterogeneous();
            fleet_cfg.members[0].faults = Some(FaultConfig::uniform(9, 0.2).with_device_loss(1.0));
            let fleet = DeviceFleet::new(
                fleet_cfg,
                ServeConfig {
                    workers,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            fleet.serve(&reqs)
        };
        let a = serve_with(1);
        let b = serve_with(4);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.fleet, b.fleet);
        assert_eq!(a.devices, b.devices);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn certain_device_loss_fails_over_without_failing_requests() {
        let mut fleet_cfg = FleetConfig::homogeneous(2);
        // Member 0 goes dark at the first epoch; member 1 serves clean.
        fleet_cfg.members[0].faults = Some(FaultConfig::uniform(3, 0.0).with_device_loss(1.0));
        let fleet = DeviceFleet::new(fleet_cfg, ServeConfig::default()).unwrap();
        let reqs: Vec<ServeRequest> = (0..4)
            .map(|i| {
                let n = if i % 2 == 0 { 1 << 10 } else { 1 << 11 };
                request(n, 4, i as u64, 11 * i as u64)
            })
            .collect();
        let report = fleet.serve(&reqs);
        assert!(report.outcomes.iter().all(|o| o.response().is_some()));
        assert_eq!(report.fleet.device_losses, 1);
        assert!(report.devices[0].lost);
        assert!(!report.devices[1].lost);
        assert!(report.faults.failed == 0);
    }
}
