//! `cusfft::overload` — overload robustness for the serving layer.
//!
//! [`ServeEngine::serve_overload`] serves an *open-loop arrival trace*
//! (requests stamped with arrival times and optional deadlines) instead
//! of a closed batch, adding five mechanisms on top of the fault
//! recovery in [`crate::serve`]:
//!
//! 1. **Admission control** — a bounded virtual queue. A request whose
//!    predicted queue depth at arrival reaches
//!    [`OverloadConfig::queue_capacity`] is shed (newest-rejected,
//!    [`RequestOutcome::Shed`]) before it costs any device time.
//! 2. **Deadlines** — each admitted request's completion is predicted
//!    against the deterministic service-time model of its backend
//!    ([`crate::backend::Backend::estimate_cost`]); a request that
//!    cannot meet its deadline even now is rejected as
//!    [`RequestOutcome::DeadlineExceeded`] rather than served late.
//! 3. **Graceful brownout** — under queue pressure
//!    ([`OverloadConfig::brownout_depth`]) requests are re-planned onto
//!    [`ServeQos::Degraded`] — a reduced-loop sFFT plan that trades
//!    recovery margin for latency — and report the tier they were
//!    served at ([`ServeResponse::qos`]).
//! 4. **Circuit breaking** — a per-device
//!    [`gpu_sim::CircuitBreaker`] watches fault tallies over a sliding
//!    window of group indices; once tripped, groups are short-circuited
//!    straight to the CPU path instead of burning device time on
//!    retries that will only degrade anyway, with HalfOpen probes
//!    testing recovery.
//! 5. **Straggler hedging** — a group whose simulated duration exceeds
//!    a percentile-based budget is re-executed as a hedged duplicate
//!    under independent fault scopes; the first finisher (by simulated
//!    time, ties to the primary) wins, and both runs stay on the merged
//!    timeline — hedges cost device time and the accounting shows it.
//!
//! ## Determinism
//!
//! Everything above is a pure function of `(trace, config, policy)`:
//!
//! * Admission decisions replay a *virtual* single-server queue fed by
//!   arrival order and the analytic service model — no wall clocks.
//! * Each group executes on a **fresh private device** (the serving
//!   core's fresh shape), so its op recording, fault decisions (scoped
//!   by global group index) and simulated duration depend only on the
//!   group itself, never on which worker ran it or what ran before it on
//!   the same device.
//! * The breaker is driven on the coordinator thread in global group
//!   order (admit all, execute the epoch in parallel, observe all), so
//!   its transition log is invariant under the worker count.
//! * The hedging budget is a percentile of the deterministic per-group
//!   durations; the "first finisher" race is decided by comparing those
//!   durations, not by thread timing.
//! * The merged timeline interleaves recordings in a fixed order
//!   (control ops, groups by gid, hedge losers by gid) via
//!   [`gpu_sim::merge_op_groups`].
//!
//! [`ServeResponse::qos`]: crate::serve::ServeResponse::qos

use std::collections::HashMap;

use gpu_sim::{BreakerConfig, BreakerDecision, CircuitBreaker, DeviceSpec, DEFAULT_STREAM};
use sfft_cpu::SfftParams;

use cusfft_telemetry::fmt_f64;

use crate::audit::{AuditLog, GroupAuditEvent};
use crate::backend::{worker_device, Backend, GpuSimBackend};
use crate::error::CusFftError;
use crate::plan_cache::{PlanKey, ServeQos};
use crate::serve::{FaultTally, GroupInfo, RequestOutcome, ServeEngine, ServeReport, ServeRequest};
use crate::serve_core::{
    group_into, off_device, run_fresh, Clock, Group, GroupRun, Served, Stages, Target,
};

/// One request in an open-loop arrival trace.
#[derive(Debug, Clone)]
pub struct TimedRequest {
    /// The request itself.
    pub request: ServeRequest,
    /// Simulated arrival time (seconds). Admission replays a trace in
    /// arrival order, whatever order the trace lists it in.
    pub arrival: f64,
    /// Optional completion deadline, in seconds *after arrival*.
    pub deadline: Option<f64>,
}

impl TimedRequest {
    /// A request arriving at `arrival` with no deadline.
    pub fn at(request: ServeRequest, arrival: f64) -> Self {
        TimedRequest {
            request,
            arrival,
            deadline: None,
        }
    }

    /// Sets the deadline (seconds after arrival).
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Overload-control policy for [`ServeEngine::serve_overload`].
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Maximum predicted queue depth before new arrivals are shed.
    pub queue_capacity: usize,
    /// Predicted queue depth at which admitted requests are re-planned
    /// onto [`ServeQos::Degraded`]. Set ≥ `queue_capacity` to disable
    /// brownout.
    pub brownout_depth: usize,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Groups per breaker epoch: the breaker decides an epoch's
    /// admissions up front, the epoch executes in parallel, then the
    /// observations feed back. Smaller epochs react faster; 1 is fully
    /// sequential.
    pub epoch_groups: usize,
    /// Percentile of per-group simulated durations that anchors the
    /// hedging budget (e.g. 0.9 = p90).
    pub hedge_percentile: f64,
    /// Budget multiplier: a group is hedged when its duration strictly
    /// exceeds `percentile × hedge_factor`. Set very large to disable
    /// hedging.
    pub hedge_factor: f64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_capacity: 64,
            brownout_depth: 16,
            breaker: BreakerConfig::default(),
            epoch_groups: 4,
            hedge_percentile: 0.9,
            hedge_factor: 1.5,
        }
    }
}

/// Overload-control counters for one [`ServeEngine::serve_overload`]
/// call. Deterministic: a function of `(trace, config, policy)` alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadTally {
    /// Requests admitted past the queue and deadline checks.
    pub admitted: u64,
    /// Requests shed by the queue bound.
    pub shed: u64,
    /// Requests rejected because they could not meet their deadline.
    pub deadline_exceeded: u64,
    /// Admitted requests served at [`ServeQos::Degraded`].
    pub degraded: u64,
    /// Requests short-circuited past the device by an open breaker.
    pub breaker_short_circuits: u64,
    /// HalfOpen probe groups the breaker let through.
    pub breaker_probes: u64,
    /// Times the breaker tripped open (including failed probes).
    pub breaker_trips: u64,
    /// Straggler groups that got a hedged duplicate.
    pub hedges: u64,
    /// Hedged duplicates that beat their primary.
    pub hedge_wins: u64,
    /// Highest predicted queue depth the admission controller saw at
    /// any arrival (validated requests only, including ones then shed).
    pub peak_queue_depth: u64,
}

/// Simulated request-latency distribution over completed requests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Completed requests the stats cover.
    pub count: usize,
    /// Median latency (seconds).
    pub p50: f64,
    /// 99th-percentile latency (seconds).
    pub p99: f64,
    /// Worst latency (seconds).
    pub max: f64,
    /// Mean latency (seconds).
    pub mean: f64,
}

impl LatencyStats {
    /// Builds the distribution from raw latencies (empty → all zeros).
    pub fn from_latencies(mut lat: Vec<f64>) -> Self {
        if lat.is_empty() {
            return LatencyStats::default();
        }
        lat.sort_by(f64::total_cmp);
        let count = lat.len();
        let sum: f64 = lat.iter().sum();
        LatencyStats {
            count,
            p50: percentile(&lat, 0.5),
            p99: percentile(&lat, 0.99),
            max: lat[count - 1],
            mean: sum / count as f64,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let len = sorted.len();
    let idx = ((len as f64) * q).ceil() as usize;
    sorted[idx.clamp(1, len) - 1]
}

/// The admission controller's service-time estimate for an `(n, k)`
/// full-QoS request served by the simulated GPU on `spec`'s model
/// device (see [`crate::backend::Backend::estimate_cost`]). Benchmarks
/// use this as the pacing unit when constructing offered-load traces,
/// so "load 2.0" means arrivals twice as fast as the admission model
/// believes the server drains.
pub fn nominal_service(spec: &DeviceSpec, n: usize, k: usize) -> f64 {
    let dev = worker_device(spec, None);
    GpuSimBackend::default().estimate_cost(&dev, spec, &SfftParams::tuned(n, k))
}

/// A request admitted past the queue and deadline checks.
struct Admitted {
    idx: usize,
    key: PlanKey,
    /// Predicted completion time on the virtual server.
    finish: f64,
}

impl ServeEngine {
    /// Serves an open-loop arrival trace under overload policy: bounded
    /// admission, deadlines, brownout QoS, a per-device circuit breaker
    /// and straggler hedging on top of [`ServeEngine::serve_batch`]'s
    /// fault recovery. Admission replays the trace in arrival order
    /// (ties keep trace order), so the trace itself may come in any
    /// order.
    ///
    /// Returns outcomes in trace order; rejected requests come back as
    /// [`RequestOutcome::Shed`] / [`RequestOutcome::DeadlineExceeded`]
    /// without ever touching a device, and invalid ones — including a
    /// NaN or infinite arrival time — as `Failed` with
    /// [`CusFftError::BadRequest`]. The report is bit-identical for
    /// a fixed `(trace, config, policy)` regardless of worker count and
    /// host pool width.
    pub fn serve_overload(&self, trace: &[TimedRequest], policy: &OverloadConfig) -> ServeReport {
        let cfg = self.config;
        let mut overload = OverloadTally::default();
        // The flight recorder. Admission verdicts are recorded here in
        // arrival order (they root the decision forest); coordinator
        // decisions made during epoch execution are buffered per gid and
        // folded onto the phase-4 virtual clock, so event ids stay
        // invariant under worker count and epoch parallelism.
        let mut alog = cfg.audit.then(AuditLog::new);
        // Control-plane markers (sheds, breaker events) are recorded on
        // their own device so they merge into the timeline exactly once,
        // in decision order.
        let control = worker_device(&self.spec, None);
        // The estimator only reads the spec; one device prices all
        // requests.
        let model_dev = worker_device(&self.spec, None);
        let requests: Vec<ServeRequest> = trace.iter().map(|t| t.request.clone()).collect();
        let mut served = Served::new(trace.len());

        // ---- Phase 1: admission, in arrival order. --------------------
        // A virtual single-server queue: service times come from the
        // analytic model, so depth and completion predictions are
        // deterministic and need no execution feedback.
        //
        // A request whose arrival is not finite cannot be queued or
        // timed: it is rejected at admission, at time 0.0, and reported
        // as arriving then.
        let arrivals: Vec<f64> = trace
            .iter()
            .map(|t| {
                if t.arrival.is_finite() {
                    t.arrival
                } else {
                    0.0
                }
            })
            .collect();
        let mut arrival_order: Vec<usize> = (0..trace.len()).collect();
        arrival_order.sort_by(|&a, &b| arrivals[a].total_cmp(&arrivals[b]));
        let mut admitted: Vec<Admitted> = Vec::new();
        let mut server_free = 0.0f64;
        for idx in arrival_order {
            let t = &trace[idx];
            let checked = if t.arrival.is_finite() {
                self.check_request(&t.request)
            } else {
                Err(CusFftError::BadRequest {
                    reason: format!("arrival time {} is not finite", t.arrival),
                })
            };
            let backend = match checked {
                Ok(b) => b,
                Err(e) => {
                    served.reject(idx, e, arrivals[idx], &mut alog);
                    continue;
                }
            };
            let depth = admitted.iter().filter(|a| a.finish > t.arrival).count();
            overload.peak_queue_depth = overload.peak_queue_depth.max(depth as u64);
            if depth >= policy.queue_capacity {
                overload.shed += 1;
                control.charge_host_op("shed:queue", 0.0, DEFAULT_STREAM);
                if let Some(a) = alog.as_mut() {
                    a.record(
                        t.arrival,
                        Some(idx),
                        None,
                        "shed",
                        vec![
                            ("depth".into(), depth.to_string()),
                            ("capacity".into(), policy.queue_capacity.to_string()),
                        ],
                    );
                }
                served.outcomes[idx] = Some(RequestOutcome::Shed { queue_depth: depth });
                continue;
            }
            let qos = if depth >= policy.brownout_depth {
                ServeQos::Degraded
            } else {
                ServeQos::Full
            };
            let key = PlanKey {
                qos,
                ..t.request.plan_key()
            };
            let est = backend.estimate_cost(&model_dev, &self.spec, self.plan(key).params());
            let finish = server_free.max(t.arrival) + est;
            if let Some(deadline) = t.deadline {
                let predicted = finish - t.arrival;
                if predicted > deadline {
                    overload.deadline_exceeded += 1;
                    control.charge_host_op("shed:deadline", 0.0, DEFAULT_STREAM);
                    if let Some(a) = alog.as_mut() {
                        a.record(
                            t.arrival,
                            Some(idx),
                            None,
                            "deadline_rejected",
                            vec![
                                ("predicted".into(), fmt_f64(predicted)),
                                ("deadline".into(), fmt_f64(deadline)),
                                ("est".into(), fmt_f64(est)),
                            ],
                        );
                    }
                    served.outcomes[idx] = Some(RequestOutcome::DeadlineExceeded {
                        predicted,
                        deadline,
                    });
                    continue;
                }
            }
            overload.admitted += 1;
            if let Some(a) = alog.as_mut() {
                a.record(
                    t.arrival,
                    Some(idx),
                    None,
                    "admitted",
                    vec![
                        ("depth".into(), depth.to_string()),
                        ("qos".into(), qos.label().into()),
                        ("est".into(), fmt_f64(est)),
                        ("finish".into(), fmt_f64(finish)),
                    ],
                );
                if qos == ServeQos::Degraded {
                    // Chains under the admission via the request link.
                    a.record(
                        t.arrival,
                        Some(idx),
                        None,
                        "brownout",
                        vec![
                            ("depth".into(), depth.to_string()),
                            ("threshold".into(), policy.brownout_depth.to_string()),
                        ],
                    );
                }
            }
            if qos == ServeQos::Degraded {
                overload.degraded += 1;
            }
            server_free = finish;
            admitted.push(Admitted { idx, key, finish });
        }

        // ---- Group admitted requests by plan key. ---------------------
        // First-appearance order, like the batch path; a group's arrival
        // is its latest member's (it cannot start before all members
        // exist).
        let mut groups: Vec<Group> = Vec::new();
        let mut group_arrival: Vec<f64> = Vec::new();
        let mut index = HashMap::new();
        for a in &admitted {
            let gid = group_into(&mut groups, &mut index, a.key, a.idx, || self.plan(a.key));
            if gid == group_arrival.len() {
                group_arrival.push(0.0);
            }
            group_arrival[gid] = group_arrival[gid].max(trace[a.idx].arrival);
        }

        // ---- Phase 2: breaker-gated execution in epochs. --------------
        // Admit the epoch's groups in gid order, execute the admitted
        // ones in parallel, observe in gid order. The breaker only ever
        // runs on this thread.
        let home = Target {
            spec: &self.spec,
            faults: cfg.faults.as_ref(),
            salt: 0,
        };
        let mut breaker = CircuitBreaker::new(policy.breaker);
        let mut runs: Vec<Option<GroupRun>> = (0..groups.len()).map(|_| None).collect();
        // Groups the breaker kept off the device.
        let mut short_circuited = vec![false; groups.len()];
        // Coordinator decisions buffered per gid for the audit fold:
        // `pre` at the group's virtual start (admit-time breaker
        // decisions), `post` at its completion (observe-time transitions
        // and hedge outcomes).
        let mut pre: Vec<Vec<GroupAuditEvent>> = vec![Vec::new(); groups.len()];
        let mut post: Vec<Vec<GroupAuditEvent>> = vec![Vec::new(); groups.len()];
        let mut seen_tr = 0usize;
        // Pushes breaker transitions recorded since the last call onto
        // gid's buffer — called right after each admit/observe, so every
        // transition is attributed to the decision that caused it.
        fn note_transitions(
            buf: &mut Vec<GroupAuditEvent>,
            breaker: &CircuitBreaker,
            seen: &mut usize,
            enabled: bool,
        ) {
            let transitions = breaker.transitions();
            if enabled {
                for tr in &transitions[*seen..] {
                    buf.push(GroupAuditEvent {
                        request: None,
                        kind: "breaker_transition",
                        attrs: vec![
                            ("from".into(), tr.from.label().into()),
                            ("to".into(), tr.to.label().into()),
                        ],
                    });
                }
            }
            *seen = transitions.len();
        }
        let gids: Vec<usize> = (0..groups.len()).collect();
        for epoch in gids.chunks(policy.epoch_groups.max(1)) {
            let mut live: Vec<(&Group, Target)> = Vec::new();
            for &gid in epoch {
                let decision = breaker.admit(gid);
                note_transitions(&mut pre[gid], &breaker, &mut seen_tr, cfg.audit);
                match decision {
                    BreakerDecision::Admit => live.push((&groups[gid], home)),
                    BreakerDecision::Probe => {
                        overload.breaker_probes += 1;
                        control.charge_host_op("breaker:probe", 0.0, DEFAULT_STREAM);
                        if cfg.audit {
                            pre[gid].push(GroupAuditEvent {
                                request: None,
                                kind: "breaker_probe",
                                attrs: Vec::new(),
                            });
                        }
                        live.push((&groups[gid], home));
                    }
                    BreakerDecision::ShortCircuit => {
                        control.charge_host_op("breaker:short_circuit", 0.0, DEFAULT_STREAM);
                        if cfg.audit {
                            pre[gid].push(GroupAuditEvent {
                                request: None,
                                kind: "short_circuit",
                                attrs: vec![(
                                    "fallback".into(),
                                    if cfg.cpu_fallback { "cpu" } else { "fail" }.into(),
                                )],
                            });
                        }
                        let group = &groups[gid];
                        overload.breaker_short_circuits += group.indices.len() as u64;
                        let err = CusFftError::CircuitOpen;
                        let run =
                            off_device(&[group], &requests, &cfg, &err, FaultTally::default());
                        runs[gid] = Some(GroupRun {
                            gid,
                            run,
                            duration: 0.0,
                        });
                        short_circuited[gid] = true;
                    }
                }
            }
            for run in run_fresh(&live, &requests, &cfg, false) {
                let gid = run.gid;
                breaker.observe(gid, run.run.tally.injected > 0);
                note_transitions(&mut post[gid], &breaker, &mut seen_tr, cfg.audit);
                runs[gid] = Some(run);
            }
        }
        for tr in breaker.transitions() {
            control.charge_host_op(&format!("breaker:{}", tr.to.label()), 0.0, DEFAULT_STREAM);
        }
        overload.breaker_trips = breaker.trips();

        // ---- Phase 3: straggler hedging. ------------------------------
        // Budget = percentile of the deterministic per-group durations;
        // strict stragglers re-run as hedged duplicates under
        // independent fault scopes. The winner is the smaller duration
        // (a tie goes to the primary), so the race is itself
        // deterministic. Both runs stay on the timeline.
        let mut hedge_losers: Vec<GroupRun> = Vec::new();
        let mut hedged = vec![false; groups.len()];
        let mut durations: Vec<f64> = runs
            .iter()
            .flatten()
            .filter(|r| !short_circuited[r.gid])
            .map(|r| r.duration)
            .collect();
        if !durations.is_empty() {
            durations.sort_by(f64::total_cmp);
            let budget = percentile(&durations, policy.hedge_percentile) * policy.hedge_factor;
            let stragglers: Vec<(&Group, Target)> = runs
                .iter()
                .flatten()
                .filter(|r| !short_circuited[r.gid] && r.duration > budget)
                .map(|r| (&groups[r.gid], home))
                .collect();
            for hedge in run_fresh(&stragglers, &requests, &cfg, true) {
                overload.hedges += 1;
                let gid = hedge.gid;
                hedged[gid] = true;
                let primary = runs[gid].take().expect("straggler has a primary run");
                let hedge_won = hedge.duration < primary.duration;
                if cfg.audit {
                    post[gid].push(GroupAuditEvent {
                        request: None,
                        kind: "hedge_fired",
                        attrs: vec![
                            ("primary".into(), fmt_f64(primary.duration)),
                            ("hedge".into(), fmt_f64(hedge.duration)),
                            ("budget".into(), fmt_f64(budget)),
                        ],
                    });
                    post[gid].push(GroupAuditEvent {
                        request: None,
                        kind: "hedge_resolved",
                        attrs: vec![(
                            "winner".into(),
                            if hedge_won { "hedge" } else { "primary" }.into(),
                        )],
                    });
                }
                let (mut winner, loser) = if hedge_won {
                    overload.hedge_wins += 1;
                    (hedge, primary)
                } else {
                    (primary, hedge)
                };
                // The loser's results are discarded but its injected
                // faults happened on the simulated device — keep the
                // count (and, below, its ops) honest.
                winner.run.tally.injected += loser.run.tally.injected;
                hedge_losers.push(loser);
                runs[gid] = Some(winner);
            }
        }

        // ---- Phase 4: completions on a virtual device serving groups in
        // gid order (short-circuited groups complete instantly). Winner
        // runs settle in gid order; hedge losers' recordings merge after
        // them.
        let mut completion: Vec<f64> = vec![0.0; groups.len()];
        let mut group_info: Vec<GroupInfo> = Vec::with_capacity(groups.len());
        let mut clock = 0.0f64;
        for (gid, run) in runs.into_iter().enumerate() {
            let run = run.expect("every group resolves to a run");
            let start = clock.max(group_arrival[gid]);
            clock = start + run.duration;
            completion[gid] = clock;
            if let Some(a) = alog.as_mut() {
                // The group's placement links to its first member's
                // admission; everything buffered for the gid folds onto
                // the virtual clock (decisions at start, execution
                // events at completion) in gid order — invariant under
                // worker count and epoch chunking.
                let parent = groups[gid].indices.first().and_then(|&i| a.admission_of(i));
                a.record_linked(
                    start,
                    None,
                    Some(gid),
                    "group_placed",
                    vec![
                        ("members".into(), groups[gid].indices.len().to_string()),
                        ("qos".into(), groups[gid].qos.label().into()),
                        ("arrival".into(), fmt_f64(group_arrival[gid])),
                        ("duration".into(), fmt_f64(run.duration)),
                    ],
                    parent,
                );
                a.fold_group(start, gid, &pre[gid]);
                for t in &run.run.tels {
                    a.fold_group(clock, gid, &t.audit);
                }
                a.fold_group(clock, gid, &post[gid]);
            }
            group_info.push(GroupInfo {
                short_circuit: short_circuited[gid],
                hedged: hedged[gid],
                ..groups[gid].info(&requests)
            });
            served.absorb(run.run);
        }
        served
            .op_groups
            .extend(hedge_losers.into_iter().map(|l| l.run.ops));

        let order = (0..groups.len()).collect();
        let stages = Stages {
            control: control.ops(),
            clock: Some(Clock { completion, order }),
            arrivals,
            group_info,
            overload,
            breaker: breaker.transitions().to_vec(),
            ..Stages::default()
        };
        self.assemble(&groups, served, alog, stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.75), 3.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn latency_stats_from_latencies() {
        let s = LatencyStats::from_latencies(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p99, 4.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(LatencyStats::from_latencies(vec![]), LatencyStats::default());
    }

    #[test]
    fn service_estimate_scales_with_geometry() {
        let spec = DeviceSpec::tesla_k20x();
        let dev = worker_device(&spec, None);
        let est = |p: &SfftParams| GpuSimBackend::default().estimate_cost(&dev, &spec, p);
        let small = est(&SfftParams::tuned(1 << 10, 4));
        let large = est(&SfftParams::tuned(1 << 14, 4));
        assert!(small > 0.0);
        assert!(large > small, "bigger n must price higher: {large} vs {small}");
        let full = SfftParams::tuned(1 << 12, 8);
        let degraded =
            SfftParams::with_tuning(1 << 12, 8, sfft_cpu::Tuning::default().degraded());
        assert!(
            est(&degraded) < est(&full),
            "degraded plans must price cheaper"
        );
    }
}
