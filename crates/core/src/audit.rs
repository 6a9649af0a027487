//! `cusfft::audit` — the policy flight recorder.
//!
//! Every serving-policy decision — admission verdict, brownout re-key,
//! breaker transition, fleet placement, hedge, retry, failover, journal
//! checkpoint/resume — is recorded as a structured event in a
//! [`cusfft_telemetry::EventLog`], stamped with the simulated clock, the
//! request index and plan-group gid it belongs to, and a causal parent
//! link. The links form a forest rooted at admission events, so
//! [`explain`] can reconstruct the full decision chain behind any
//! outcome: "why was request 17 shed / degraded / routed to device 2?".
//!
//! On top of the log sit two derived layers:
//!
//! * **terminal causes** — a stable `class:detail` label per request
//!   (`shed:queue_full`, `degraded:brownout`, `failover:device_loss`,
//!   `done:gpu_retry`, …) derived from the outcome plus the kinds on its
//!   chain ([`derive_cause`]), exported as the `cause` dimension on
//!   `cusfft_served_total`;
//! * **SLO monitoring** — availability and latency objectives evaluated
//!   over sliding windows of the simulated clock with multi-window
//!   burn-rate alerts (fast/slow, Google-SRE style). Every fired alert
//!   carries the terminal-event ids that consumed the budget, so alerts
//!   are always attributable to audit events — an invariant the chaos
//!   suite checks.
//!
//! Determinism contract: the recorder only ever observes deterministic
//! coordinates (virtual-clock timestamps, gids, request indices, policy
//! measurements), events are appended in a deterministic order on every
//! serve path (coordinator decisions at decision points, worker-side
//! events folded in gid order), and ids are dense append ordinals — so
//! the rendered log, every [`DecisionChain`], and the SLO report are
//! byte-identical across worker counts, host-pool widths, and repeated
//! runs. Paths without a virtual clock (plain batch, journal) use `0.0`
//! for group-scope events and the request index as the terminal-event
//! ordinal, which keeps the same total order.

use std::collections::HashMap;
use std::fmt::Write as _;

use cusfft_telemetry::{fmt_f64, Event, EventLog};

use crate::error::CusFftError;
use crate::plan_cache::ServeQos;
use crate::serve::{RequestOutcome, ServePath, ServeReport};

/// Event kinds allowed to root a decision tree: the batch-level
/// admission marker plus the per-request admission verdicts. Everything
/// else must link (transitively) under one of these.
pub const ROOT_KINDS: [&str; 5] = [
    "batch_admitted",
    "admitted",
    "shed",
    "deadline_rejected",
    "invalid",
];

/// Whether `kind` is an admission root (see [`ROOT_KINDS`]).
pub fn is_root_kind(kind: &str) -> bool {
    ROOT_KINDS.contains(&kind)
}

/// One decision buffered inside a worker while it runs a group, folded
/// into the [`AuditLog`] later (in gid order) by the coordinating
/// thread. Buffering keeps recording off the workers' hot path and
/// makes the fold order — hence event ids — independent of which worker
/// ran the group.
#[derive(Debug, Clone)]
pub(crate) struct GroupAuditEvent {
    /// Request index the decision concerns, if request-scoped.
    pub(crate) request: Option<usize>,
    /// Event kind (snake_case, stable).
    pub(crate) kind: &'static str,
    /// Flat key/value payload.
    pub(crate) attrs: Vec<(String, String)>,
}

/// The flight recorder: an [`EventLog`] plus the causal-link state
/// needed to parent each new event deterministically.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    /// The underlying event log.
    pub events: EventLog,
    /// The batch-level admission root, if one was recorded.
    batch_root: Option<u64>,
    /// Per-request admission root (`admitted`/`shed`/…).
    admission: HashMap<usize, u64>,
    /// Most recent event carrying each request index.
    last_by_request: HashMap<usize, u64>,
    /// Most recent *group-scope* event (gid set, no request) per gid.
    last_group_by_gid: HashMap<usize, u64>,
}

impl AuditLog {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one decision, resolving its causal parent from the
    /// recorder state: root kinds get no parent; otherwise the request's
    /// previous event, else the gid's previous group-scope event, else
    /// the batch root. Returns the new event id.
    pub fn record(
        &mut self,
        ts: f64,
        request: Option<usize>,
        gid: Option<usize>,
        kind: &'static str,
        attrs: Vec<(String, String)>,
    ) -> u64 {
        let parent = self.resolve_parent(request, gid, kind);
        self.record_linked(ts, request, gid, kind, attrs, parent)
    }

    /// Records one decision under an explicit parent (used where the
    /// causal link crosses scopes, e.g. a group placement linking to the
    /// admission of its first member).
    pub fn record_linked(
        &mut self,
        ts: f64,
        request: Option<usize>,
        gid: Option<usize>,
        kind: &'static str,
        attrs: Vec<(String, String)>,
        parent: Option<u64>,
    ) -> u64 {
        let id = self.events.push(parent, ts, request, gid, kind, attrs);
        if kind == "batch_admitted" {
            self.batch_root = Some(id);
        }
        if let Some(r) = request {
            if is_root_kind(kind) {
                self.admission.insert(r, id);
            }
            self.last_by_request.insert(r, id);
        } else if let Some(g) = gid {
            self.last_group_by_gid.insert(g, id);
        }
        id
    }

    /// The default parent for a new `(request, gid, kind)` event.
    fn resolve_parent(
        &self,
        request: Option<usize>,
        gid: Option<usize>,
        kind: &'static str,
    ) -> Option<u64> {
        if is_root_kind(kind) {
            return None;
        }
        request
            .and_then(|r| self.last_by_request.get(&r).copied())
            .or_else(|| gid.and_then(|g| self.last_group_by_gid.get(&g).copied()))
            .or(self.batch_root)
    }

    /// The admission-root event of `request`, if recorded.
    pub fn admission_of(&self, request: usize) -> Option<u64> {
        self.admission.get(&request).copied()
    }

    /// Folds decisions a worker buffered for group `gid` into the log at
    /// timestamp `ts` (the group's completion on the path's virtual
    /// clock, or `0.0` on clockless paths). Callers fold groups in gid
    /// order so event ids are worker-count invariant.
    pub(crate) fn fold_group(&mut self, ts: f64, gid: usize, buffered: &[GroupAuditEvent]) {
        for e in buffered {
            self.record(ts, e.request, Some(gid), e.kind, e.attrs.clone());
        }
    }
}

/// Collects the event ids of `request`'s decision chain: every event
/// carrying the request index, every group-scope event of its gid, and
/// all their ancestors — deduplicated, in id order.
fn chain_ids(log: &EventLog, request: usize, gid: Option<usize>) -> Vec<u64> {
    let mut include = vec![false; log.events.len()];
    for e in &log.events {
        if e.request == Some(request) || (gid.is_some() && e.gid == gid && e.request.is_none()) {
            include[e.id as usize] = true;
        }
    }
    for i in (0..log.events.len()).rev() {
        if include[i] {
            let mut cur = &log.events[i];
            while let Some(p) = cur.parent {
                include[p as usize] = true;
                cur = &log.events[p as usize];
            }
        }
    }
    (0..log.events.len() as u64)
        .filter(|&i| include[i as usize])
        .collect()
}

/// The full causal decision path behind one request's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionChain {
    /// The request the chain explains.
    pub request: usize,
    /// Chain events in id (append) order: admission root first,
    /// terminal verdict last.
    pub events: Vec<Event>,
}

impl DecisionChain {
    /// Renders the chain as deterministic text, one event per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "request {}: {} decision events",
            self.request,
            self.events.len()
        );
        for e in &self.events {
            out.push_str("  ");
            out.push_str(&e.to_text());
            out.push('\n');
        }
        out
    }

    /// Renders the chain as one deterministic JSON object.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\"request\": {}, \"chain\": [", self.request);
        for (i, e) in self.events.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&e.to_json());
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

/// Reconstructs the decision chain behind `request`'s outcome from the
/// report's audit log. Returns `None` when the report carries no audit
/// log ([`crate::serve::ServeConfig::audit`] off) or the index is out of
/// range. For audited reports every request has a chain, and every
/// chain is non-empty (at minimum an admission root and a terminal).
pub fn explain(report: &ServeReport, request: usize) -> Option<DecisionChain> {
    let audit = report.audit.as_deref()?;
    if request >= report.outcomes.len() {
        return None;
    }
    let gid = report
        .group_info
        .iter()
        .find(|g| g.indices.contains(&request))
        .map(|g| g.gid);
    let ids = chain_ids(&audit.log, request, gid);
    Some(DecisionChain {
        request,
        events: ids
            .iter()
            .map(|&i| audit.log.events[i as usize].clone())
            .collect(),
    })
}

/// Derives the stable terminal-cause label (`class:detail`) for one
/// outcome from the event kinds on its decision chain. Precedence, most
/// specific first: admission rejections, typed failures, then — for
/// completed requests — fleet CPU-tier service, fleet failover, breaker
/// short-circuit, brownout QoS, CPU fallback, retry, clean first-attempt.
pub fn derive_cause(outcome: &RequestOutcome, chain_kinds: &[&str]) -> String {
    let has = |k: &str| chain_kinds.contains(&k);
    match outcome {
        RequestOutcome::Shed { .. } => "shed:queue_full".into(),
        RequestOutcome::DeadlineExceeded { .. } => "shed:deadline".into(),
        RequestOutcome::Failed {
            error: CusFftError::BadRequest { .. },
            ..
        } => "rejected:invalid".into(),
        RequestOutcome::Failed { error, .. } => format!("failed:{}", error.class_label()),
        RequestOutcome::Done(resp) => {
            if has("cpu_tier") {
                "failover:cpu_tier".into()
            } else if has("failover") {
                "failover:device_loss".into()
            } else if has("short_circuit") {
                "degraded:short_circuit".into()
            } else if resp.qos == ServeQos::Degraded {
                "degraded:brownout".into()
            } else if resp.path == ServePath::Cpu {
                "done:cpu_fallback".into()
            } else if resp.path == ServePath::GpuRetry {
                "done:gpu_retry".into()
            } else {
                "done:gpu".into()
            }
        }
    }
}

/// One burn-rate alerting window pair, Google-SRE style: the alert
/// fires when the error-budget burn rate exceeds `threshold` over
/// *both* the long window (sustained burn) and the short window (still
/// burning now), and de-arms when the long-window burn drops back under.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnWindow {
    /// Stable window name (`fast`, `slow`).
    pub name: String,
    /// Long-window length as a fraction of the observed sample span.
    pub long_frac: f64,
    /// Short-window length as a fraction of the observed sample span.
    pub short_frac: f64,
    /// Burn-rate threshold (multiple of the steady budget-consumption
    /// rate) both windows must exceed.
    pub threshold: f64,
}

/// Service-level objectives evaluated over the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Availability objective: fraction of requests that must complete
    /// (`Done`); sheds, deadline rejections and failures burn budget.
    pub availability_objective: f64,
    /// Latency objective: fraction of *latency-measured* completed
    /// requests that must finish within [`Self::latency_threshold`].
    pub latency_objective: f64,
    /// Latency threshold (simulated seconds).
    pub latency_threshold: f64,
    /// Burn-rate alert windows, evaluated independently per objective.
    pub windows: Vec<BurnWindow>,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            availability_objective: 0.99,
            latency_objective: 0.95,
            latency_threshold: 5e-3,
            windows: vec![
                BurnWindow {
                    name: "fast".into(),
                    long_frac: 0.25,
                    short_frac: 0.025,
                    threshold: 10.0,
                },
                BurnWindow {
                    name: "slow".into(),
                    long_frac: 1.0,
                    short_frac: 0.25,
                    threshold: 2.0,
                },
            ],
        }
    }
}

/// One terminal observation feeding the SLO monitor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SloSample {
    /// Simulated terminal timestamp.
    pub(crate) ts: f64,
    /// The request's terminal audit-event id — what makes every alert
    /// attributable back to the log.
    pub(crate) event: u64,
    /// Whether the request completed (availability numerator).
    pub(crate) good: bool,
    /// Measured simulated latency, when the path has arrival times.
    pub(crate) latency: Option<f64>,
}

/// One fired burn-rate alert.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// Which objective fired (`availability` or `latency`).
    pub slo: String,
    /// Which [`BurnWindow`] fired.
    pub window: String,
    /// Simulated timestamp of the firing sample.
    pub ts: f64,
    /// Long-window burn rate at fire time.
    pub long_burn: f64,
    /// Short-window burn rate at fire time.
    pub short_burn: f64,
    /// The threshold both burns exceeded.
    pub threshold: f64,
    /// Terminal audit-event ids of the budget-burning samples inside
    /// the short window at fire time — non-empty by construction.
    pub contributing: Vec<u64>,
}

impl SloAlert {
    /// Renders the alert as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let ids: Vec<String> = self.contributing.iter().map(|i| i.to_string()).collect();
        format!(
            "{{\"slo\": \"{}\", \"window\": \"{}\", \"ts\": {}, \"long_burn\": {}, \"short_burn\": {}, \"threshold\": {}, \"contributing\": [{}]}}",
            self.slo,
            self.window,
            fmt_f64(self.ts),
            fmt_f64(self.long_burn),
            fmt_f64(self.short_burn),
            fmt_f64(self.threshold),
            ids.join(", ")
        )
    }
}

/// SLO attainment plus every fired burn-rate alert for one serve call.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The objectives this report was evaluated against.
    pub config: SloConfig,
    /// Requests observed.
    pub total: u64,
    /// Requests that completed (availability numerator).
    pub good_availability: u64,
    /// Completed requests with a measured latency.
    pub latency_measured: u64,
    /// Latency-measured requests within the threshold.
    pub good_latency: u64,
    /// Achieved availability (`1.0` for an empty batch).
    pub availability: f64,
    /// Achieved latency attainment (`1.0` with nothing measured).
    pub latency_attainment: f64,
    /// Fired alerts, in evaluation order (objective, then window, then
    /// simulated time).
    pub alerts: Vec<SloAlert>,
}

impl SloReport {
    /// Renders the report as deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"objectives\": {{\"availability\": {}, \"latency\": {}, \"latency_threshold\": {}}},",
            fmt_f64(self.config.availability_objective),
            fmt_f64(self.config.latency_objective),
            fmt_f64(self.config.latency_threshold)
        );
        let _ = writeln!(
            out,
            "  \"totals\": {{\"requests\": {}, \"good_availability\": {}, \"latency_measured\": {}, \"good_latency\": {}}},",
            self.total, self.good_availability, self.latency_measured, self.good_latency
        );
        let _ = writeln!(
            out,
            "  \"attainment\": {{\"availability\": {}, \"latency\": {}}},",
            fmt_f64(self.availability),
            fmt_f64(self.latency_attainment)
        );
        out.push_str("  \"alerts\": [\n");
        for (i, a) in self.alerts.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&a.to_json());
            if i + 1 < self.alerts.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Evaluates the burn-rate windows over terminal samples (sorted by
/// `(ts, event)`), once per objective. Window lengths are fractions of
/// the observed sample span, so the math is independent of absolute
/// clock scale; a single-instant span fires nothing.
pub(crate) fn evaluate_slo(cfg: &SloConfig, samples: &[SloSample]) -> SloReport {
    let total = samples.len() as u64;
    let good_availability = samples.iter().filter(|s| s.good).count() as u64;
    let measured: Vec<&SloSample> = samples.iter().filter(|s| s.latency.is_some()).collect();
    let latency_measured = measured.len() as u64;
    let good_latency = measured
        .iter()
        .filter(|s| s.latency.unwrap_or(0.0) <= cfg.latency_threshold)
        .count() as u64;

    let ratio = |good: u64, tot: u64| {
        if tot == 0 {
            1.0
        } else {
            good as f64 / tot as f64
        }
    };
    let mut report = SloReport {
        config: cfg.clone(),
        total,
        good_availability,
        latency_measured,
        good_latency,
        availability: ratio(good_availability, total),
        latency_attainment: ratio(good_latency, latency_measured),
        alerts: Vec::new(),
    };

    // (objective name, budget, population, bad predicate)
    type Objective<'a> = (
        &'a str,
        f64,
        Vec<&'a SloSample>,
        &'a dyn Fn(&SloSample) -> bool,
    );
    let avail_bad = |s: &SloSample| !s.good;
    let lat_bad = |s: &SloSample| {
        s.latency
            .map(|l| l > cfg.latency_threshold)
            .unwrap_or(false)
    };
    let objectives: [Objective; 2] = [
        (
            "availability",
            (1.0 - cfg.availability_objective).max(1e-9),
            samples.iter().collect(),
            &avail_bad,
        ),
        (
            "latency",
            (1.0 - cfg.latency_objective).max(1e-9),
            measured,
            &lat_bad,
        ),
    ];

    for (slo, budget, pop, bad) in objectives {
        if pop.len() < 2 {
            continue;
        }
        let span = pop[pop.len() - 1].ts - pop[0].ts;
        if span <= 0.0 {
            continue;
        }
        for w in &cfg.windows {
            let long_len = w.long_frac * span;
            let short_len = w.short_frac * span;
            let mut active = false;
            for s in &pop {
                let now = s.ts;
                let rate_in = |len: f64| {
                    let in_win: Vec<&&SloSample> = pop
                        .iter()
                        .filter(|x| x.ts >= now - len && x.ts <= now)
                        .collect();
                    if in_win.is_empty() {
                        0.0
                    } else {
                        in_win.iter().filter(|x| bad(x)).count() as f64 / in_win.len() as f64
                    }
                };
                let long_burn = rate_in(long_len) / budget;
                let short_burn = rate_in(short_len) / budget;
                if !active && long_burn >= w.threshold && short_burn >= w.threshold {
                    active = true;
                    let contributing: Vec<u64> = pop
                        .iter()
                        .filter(|x| x.ts >= now - short_len && x.ts <= now && bad(x))
                        .map(|x| x.event)
                        .collect();
                    report.alerts.push(SloAlert {
                        slo: slo.to_string(),
                        window: w.name.clone(),
                        ts: now,
                        long_burn,
                        short_burn,
                        threshold: w.threshold,
                        contributing,
                    });
                } else if active && long_burn < w.threshold {
                    active = false;
                }
            }
        }
    }
    report
}

/// The flight-recorder output attached to an audited [`ServeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// The full decision log.
    pub log: EventLog,
    /// Terminal-cause label per request, in submission order.
    pub causes: Vec<String>,
    /// SLO attainment and fired burn-rate alerts.
    pub slo: SloReport,
}

impl AuditReport {
    /// Validates the forest contract: every event roots (transitively)
    /// at an admission event.
    pub fn validate(&self) -> Result<(), String> {
        self.log.validate_forest(|e| is_root_kind(&e.name))
    }
}

/// Seals an [`AuditLog`] into the report form: derives each request's
/// terminal cause from its chain, appends the terminal events (in
/// submission order — the last events of the log), builds the SLO
/// samples from `(ts_of, lat_of)` and evaluates the burn-rate windows.
pub(crate) fn finalize_audit(
    mut audit: AuditLog,
    outcomes: &[RequestOutcome],
    gid_of: &[Option<usize>],
    ts_of: &[f64],
    lat_of: &[Option<f64>],
    slo_cfg: &SloConfig,
) -> Box<AuditReport> {
    let mut causes = Vec::with_capacity(outcomes.len());
    let mut samples = Vec::with_capacity(outcomes.len());
    for (r, o) in outcomes.iter().enumerate() {
        let cause = {
            let ids = chain_ids(&audit.events, r, gid_of[r]);
            let kinds: Vec<&str> = ids
                .iter()
                .map(|&i| audit.events.events[i as usize].name.as_str())
                .collect();
            derive_cause(o, &kinds)
        };
        let tid = audit.record(
            ts_of[r],
            Some(r),
            gid_of[r],
            "terminal",
            vec![
                ("outcome".into(), crate::observe::outcome_label(o).into()),
                ("cause".into(), cause.clone()),
            ],
        );
        samples.push(SloSample {
            ts: ts_of[r],
            event: tid,
            good: matches!(o, RequestOutcome::Done(_)),
            latency: lat_of[r],
        });
        causes.push(cause);
    }
    samples.sort_by(|a, b| {
        a.ts.partial_cmp(&b.ts)
            .expect("terminal timestamps are never NaN")
            .then(a.event.cmp(&b.event))
    });
    let slo = evaluate_slo(slo_cfg, &samples);
    Box::new(AuditReport {
        log: audit.events,
        causes,
        slo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::serve::ServeResponse;
    use signal::Recovered;

    fn done(path: ServePath, qos: ServeQos) -> RequestOutcome {
        RequestOutcome::Done(ServeResponse {
            recovered: Recovered::default(),
            num_hits: 0,
            path,
            qos,
            backend: BackendKind::GpuSim,
        })
    }

    #[test]
    fn record_parents_follow_request_then_gid_then_batch() {
        let mut log = AuditLog::new();
        let root = log.record(0.0, None, None, "batch_admitted", vec![]);
        let adm = log.record(0.0, Some(3), None, "admitted", vec![]);
        assert_eq!(log.events.events[adm as usize].parent, None);
        let placed = log.record(0.0, None, Some(0), "group_placed", vec![]);
        assert_eq!(log.events.events[placed as usize].parent, Some(root));
        // Request-scoped follow-up chains to the request's last event,
        // not the group's.
        let ev = log.record(1.0, Some(3), Some(0), "evicted", vec![]);
        assert_eq!(log.events.events[ev as usize].parent, Some(adm));
        // Group-scoped follow-up chains to the group's last group event.
        let tr = log.record(1.0, None, Some(0), "breaker_transition", vec![]);
        assert_eq!(log.events.events[tr as usize].parent, Some(placed));
        // A request with no history falls back through gid to the
        // latest group-scope event.
        let t = log.record(2.0, Some(9), Some(0), "terminal", vec![]);
        assert_eq!(log.events.events[t as usize].parent, Some(tr));
        log.events
            .validate_forest(|e| is_root_kind(&e.name))
            .unwrap();
        assert_eq!(log.admission_of(3), Some(adm));
    }

    #[test]
    fn derive_cause_precedence() {
        assert_eq!(
            derive_cause(&RequestOutcome::Shed { queue_depth: 4 }, &[]),
            "shed:queue_full"
        );
        assert_eq!(
            derive_cause(
                &RequestOutcome::DeadlineExceeded {
                    predicted: 1.0,
                    deadline: 0.5
                },
                &[]
            ),
            "shed:deadline"
        );
        assert_eq!(
            derive_cause(
                &RequestOutcome::Failed {
                    error: CusFftError::CircuitOpen,
                    after_attempts: 0
                },
                &[]
            ),
            "failed:circuit_open"
        );
        assert_eq!(
            derive_cause(
                &RequestOutcome::Failed {
                    error: CusFftError::BadRequest { reason: "r".into() },
                    after_attempts: 0
                },
                &[]
            ),
            "rejected:invalid"
        );
        let d = done(ServePath::Gpu, ServeQos::Full);
        assert_eq!(derive_cause(&d, &["admitted", "terminal"]), "done:gpu");
        assert_eq!(
            derive_cause(&d, &["admitted", "failover"]),
            "failover:device_loss"
        );
        assert_eq!(
            derive_cause(&d, &["failover", "cpu_tier"]),
            "failover:cpu_tier"
        );
        assert_eq!(
            derive_cause(&done(ServePath::Cpu, ServeQos::Full), &[]),
            "done:cpu_fallback"
        );
        assert_eq!(
            derive_cause(&done(ServePath::GpuRetry, ServeQos::Degraded), &[]),
            "degraded:brownout"
        );
        assert_eq!(
            derive_cause(&done(ServePath::Gpu, ServeQos::Full), &["short_circuit"]),
            "degraded:short_circuit"
        );
    }

    #[test]
    fn finalize_appends_terminals_and_derives_causes() {
        let mut log = AuditLog::new();
        log.record(0.0, Some(0), None, "admitted", vec![]);
        log.record(0.1, Some(1), None, "shed", vec![]);
        let outcomes = [
            done(ServePath::Gpu, ServeQos::Full),
            RequestOutcome::Shed { queue_depth: 7 },
        ];
        let report = finalize_audit(
            log,
            &outcomes,
            &[None, None],
            &[0.5, 0.1],
            &[Some(0.5), None],
            &SloConfig::default(),
        );
        report.validate().unwrap();
        assert_eq!(report.causes, vec!["done:gpu", "shed:queue_full"]);
        assert_eq!(report.log.events.len(), 4);
        let terms: Vec<_> = report
            .log
            .events
            .iter()
            .filter(|e| e.name == "terminal")
            .collect();
        assert_eq!(terms.len(), 2);
        assert_eq!(report.slo.total, 2);
        assert_eq!(report.slo.good_availability, 1);
        assert_eq!(report.slo.latency_measured, 1);
    }

    #[test]
    fn burn_rate_alerts_fire_and_attribute() {
        // 20 samples over [0, 19]; the last quarter is all failures —
        // enough to push both windows of the availability objective
        // (budget 0.01) far past their thresholds.
        let samples: Vec<SloSample> = (0..20)
            .map(|i| SloSample {
                ts: i as f64,
                event: i as u64,
                good: i < 15,
                latency: Some(1e-3),
            })
            .collect();
        let report = evaluate_slo(&SloConfig::default(), &samples);
        assert!(!report.alerts.is_empty());
        for a in &report.alerts {
            assert!(!a.contributing.is_empty(), "alert {a:?} has no evidence");
            for id in &a.contributing {
                assert!(samples.iter().any(|s| s.event == *id && !s.good));
            }
        }
        // Deterministic rendering round-trips byte-identically.
        assert_eq!(report.to_json(), report.clone().to_json());
    }

    #[test]
    fn clean_slos_fire_nothing() {
        let samples: Vec<SloSample> = (0..10)
            .map(|i| SloSample {
                ts: i as f64,
                event: i as u64,
                good: true,
                latency: Some(1e-4),
            })
            .collect();
        let report = evaluate_slo(&SloConfig::default(), &samples);
        assert!(report.alerts.is_empty());
        assert_eq!(report.availability, 1.0);
        assert_eq!(report.latency_attainment, 1.0);
    }
}
