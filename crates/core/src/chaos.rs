//! `cusfft::chaos` — a deterministic chaos explorer for the serving
//! stack.
//!
//! FoundationDB-style testing, third layer: the fault plan makes device
//! failures deterministic, the journal makes host crashes recoverable —
//! this module *searches* that combined failure space. A
//! [`ChaosSchedule`] names one fully reproducible adversity scenario
//! (fault seed, per-class rate vector, an injected host-crash epoch, an
//! optional fleet device-loss rate, worker count, batch size, epoch
//! granularity). [`explore`] runs every schedule in a [`ChaosSpace`]
//! end-to-end through the serve/journal/fleet paths and checks a
//! reusable invariant suite:
//!
//! 1. **Outcome bijection** ([`check_outcome_bijection`]) — every
//!    submitted request resolves to exactly one outcome, and the plan
//!    groups partition the request indices (nothing lost, nothing
//!    double-served).
//! 2. **Oracle integrity** — every full-QoS response's recovered
//!    spectrum matches the dense-FFT oracle within the backend bound;
//!    a miss means a silently corrupted result was *served*, the one
//!    failure the stack must never produce.
//! 3. **Recovery invisibility** — killing the host at the scheduled
//!    epoch and resuming from the journal yields outcomes exactly equal
//!    to the uninterrupted run's.
//! 4. **Worker invariance** — the outcome vector is identical under a
//!    different worker count (the fault-scope determinism contract).
//! 5. **Replay stability** — fleet runs repeat bit-identically.
//!
//! On a violation, [`shrink`] greedily minimizes the schedule — drop
//! the crash, drop the device loss, zero rate classes, halve the batch,
//! collapse workers/epochs — re-running after each step and keeping
//! only changes that still fail. The minimal schedule round-trips
//! through JSON ([`ChaosSchedule::to_json`] / [`ChaosSchedule::from_json`])
//! so CI can attach it as a replayable artifact.
//!
//! Everything is a pure function of the schedule: no wall clock, no OS
//! randomness, so a violation found anywhere reproduces everywhere.

use gpu_sim::{CrashPlan, FaultClass, FaultConfig, FaultRates};

use crate::backend::ORACLE_BOUND_SFFT;
use crate::error::CusFftError;
use crate::fleet::{DeviceFleet, FleetConfig};
use crate::journal::{Journal, JournalOptions, JournalRun};
use crate::pipeline::Variant;
use crate::plan_cache::ServeQos;
use crate::serve::{RequestOutcome, ServeConfig, ServeEngine, ServeReport, ServeRequest};
use gpu_sim::DeviceSpec;
use signal::{MagnitudeModel, SparseSignal};

// ---------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------

/// One fully deterministic adversity scenario. Running the same
/// schedule twice — on any machine — produces bit-identical reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// Seed of the device fault plan.
    pub fault_seed: u64,
    /// Per-class injection rates.
    pub rates: FaultRates,
    /// Host-crash epoch for the journaled path (`None`: never crash).
    pub crash_epoch: Option<u64>,
    /// Fleet device-loss rate; `Some` routes the schedule through
    /// [`DeviceFleet::serve`] instead of the journaled engine path.
    pub device_loss: Option<f64>,
    /// Serve workers.
    pub workers: usize,
    /// Requests in the batch.
    pub requests: usize,
    /// Plan groups per journal/routing epoch.
    pub epoch_groups: usize,
}

impl Default for ChaosSchedule {
    fn default() -> Self {
        ChaosSchedule {
            fault_seed: 1,
            rates: FaultRates::zero(),
            crash_epoch: None,
            device_loss: None,
            workers: 2,
            requests: 5,
            epoch_groups: 1,
        }
    }
}

impl ChaosSchedule {
    /// Serializes to a replayable JSON object (only non-zero rates are
    /// emitted; floats use Rust's shortest round-trip formatting).
    pub fn to_json(&self) -> String {
        let mut rates = String::new();
        for class in FaultClass::ALL {
            let r = self.rates.get(class);
            if r > 0.0 {
                if !rates.is_empty() {
                    rates.push_str(", ");
                }
                rates.push_str(&format!("\"{}\": {}", class.label(), r));
            }
        }
        let crash = match self.crash_epoch {
            Some(e) => e.to_string(),
            None => "null".into(),
        };
        let loss = match self.device_loss {
            Some(l) => l.to_string(),
            None => "null".into(),
        };
        format!(
            "{{\"fault_seed\": {}, \"rates\": {{{}}}, \"crash_epoch\": {}, \
             \"device_loss\": {}, \"workers\": {}, \"requests\": {}, \"epoch_groups\": {}}}",
            self.fault_seed, rates, crash, loss, self.workers, self.requests, self.epoch_groups
        )
    }

    /// Parses a schedule previously emitted by [`ChaosSchedule::to_json`].
    pub fn from_json(text: &str) -> Result<Self, CusFftError> {
        let bad = |reason: String| CusFftError::BadConfig { reason };
        let v = cusfft_telemetry::parse_json(text)
            .map_err(|e| bad(format!("chaos schedule is not valid JSON: {e}")))?;
        let obj = v
            .as_object()
            .ok_or_else(|| bad("chaos schedule must be a JSON object".into()))?;
        let mut s = ChaosSchedule::default();
        let uint = |v: &cusfft_telemetry::JsonValue, key: &str| -> Result<u64, CusFftError> {
            let n = v
                .as_f64()
                .ok_or_else(|| bad(format!("field '{key}' must be a number")))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(bad(format!("field '{key}' must be a non-negative integer")));
            }
            Ok(n as u64)
        };
        for (key, val) in obj {
            match key.as_str() {
                "fault_seed" => s.fault_seed = uint(val, key)?,
                "workers" => s.workers = uint(val, key)? as usize,
                "requests" => s.requests = uint(val, key)? as usize,
                "epoch_groups" => s.epoch_groups = uint(val, key)? as usize,
                "crash_epoch" => {
                    s.crash_epoch = match val {
                        cusfft_telemetry::JsonValue::Null => None,
                        other => Some(uint(other, key)?),
                    }
                }
                "device_loss" => {
                    s.device_loss =
                        match val {
                            cusfft_telemetry::JsonValue::Null => None,
                            other => Some(other.as_f64().ok_or_else(|| {
                                bad("field 'device_loss' must be a number".into())
                            })?),
                        }
                }
                "rates" => {
                    let pairs = val
                        .as_object()
                        .ok_or_else(|| bad("field 'rates' must be an object".into()))?;
                    let mut rates = FaultRates::zero();
                    for (label, rate) in pairs {
                        let class = FaultClass::ALL
                            .into_iter()
                            .find(|c| c.label() == label)
                            .ok_or_else(|| bad(format!("unknown fault class '{label}'")))?;
                        let r = rate
                            .as_f64()
                            .ok_or_else(|| bad(format!("rate '{label}' must be a number")))?;
                        rates.set(class, r);
                    }
                    s.rates = rates;
                }
                other => return Err(bad(format!("unknown schedule field '{other}'"))),
            }
        }
        if s.workers == 0 || s.epoch_groups == 0 {
            return Err(bad("workers and epoch_groups must be at least 1".into()));
        }
        Ok(s)
    }
}

/// A deterministic enumeration of schedules to explore.
#[derive(Debug, Clone)]
pub struct ChaosSpace {
    /// The schedules, in exploration order.
    pub schedules: Vec<ChaosSchedule>,
}

/// The smoke/full schedule spaces. Both are deterministic enumerations:
/// fault seeds × rate patterns (uniform plus per-class one-hots, SDC
/// included) × injected crash epochs, plus a fleet slice sweeping
/// device-loss rates. The smoke space stays small enough for CI (every
/// schedule runs multiple end-to-end serves) while exceeding the
/// 50-schedule floor the acceptance criteria set.
pub fn chaos_space(smoke: bool) -> ChaosSpace {
    let seeds: &[u64] = if smoke { &[1, 7] } else { &[1, 7, 23] };
    let mut patterns: Vec<FaultRates> = vec![
        FaultRates::zero(),
        FaultRates::uniform(0.02),
        FaultRates::uniform(0.2),
        FaultRates::one_hot(FaultClass::Sdc, 0.3),
        FaultRates::one_hot(FaultClass::Launch, 0.5),
        FaultRates::one_hot(FaultClass::Alloc, 0.5),
        FaultRates::one_hot(FaultClass::Timeout, 0.3),
        FaultRates::one_hot(FaultClass::Ecc, 0.5),
        FaultRates::one_hot(FaultClass::H2d, 0.5),
        FaultRates::one_hot(FaultClass::D2h, 0.5),
    ];
    if !smoke {
        patterns.push(FaultRates::uniform(0.05));
        patterns.push(FaultRates::uniform(0.5));
        patterns.push(FaultRates::one_hot(FaultClass::Sdc, 0.8));
    }
    let crash_epochs: &[Option<u64>] = if smoke {
        &[None, Some(0), Some(1)]
    } else {
        &[None, Some(0), Some(1), Some(2)]
    };

    let mut schedules = Vec::new();
    for (si, &seed) in seeds.iter().enumerate() {
        for (pi, rates) in patterns.iter().enumerate() {
            for (ci, &crash) in crash_epochs.iter().enumerate() {
                // Vary geometry deterministically across the grid so the
                // space also covers worker/epoch shape without another
                // multiplicative axis.
                let twist = si + pi + ci;
                schedules.push(ChaosSchedule {
                    fault_seed: seed,
                    rates: *rates,
                    crash_epoch: crash,
                    device_loss: None,
                    workers: 1 + (twist % 2),
                    requests: if smoke { 5 } else { 8 },
                    epoch_groups: 1 + ((twist / 2) % 2),
                });
            }
        }
        // Fleet slice: device loss routed through failover, with and
        // without a background fault load.
        for &loss in &[0.3, 1.0] {
            for rates in [FaultRates::zero(), FaultRates::uniform(0.05)] {
                schedules.push(ChaosSchedule {
                    fault_seed: seed,
                    rates,
                    crash_epoch: None,
                    device_loss: Some(loss),
                    workers: 2,
                    requests: if smoke { 5 } else { 8 },
                    epoch_groups: 2,
                });
            }
        }
    }
    ChaosSpace { schedules }
}

// ---------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------

/// A checked invariant that did not hold for a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// The outcome vector is not a bijection with the submitted
    /// request ids, or the plan groups do not partition them.
    OutcomeBijection {
        /// What broke, precisely.
        detail: String,
    },
    /// A served full-QoS spectrum disagrees with the dense-FFT oracle —
    /// a silent corruption escaped into a response.
    SilentCorruption {
        /// Submission index of the corrupted response.
        request: usize,
        /// Worst per-coefficient deviation from the oracle.
        deviation: f64,
        /// The bound it had to stay within.
        bound: f64,
    },
    /// Crash + resume produced different outcomes than the
    /// uninterrupted run — recovery was visible.
    RecoveryVisible {
        /// What differed.
        detail: String,
    },
    /// A different worker count changed the outcome vector.
    WorkerVariance {
        /// The deviating worker count.
        workers: usize,
        /// What differed.
        detail: String,
    },
    /// The journal machinery itself failed (corrupt log, refused
    /// resume, unexpected crash state).
    JournalFault {
        /// The journal-layer error.
        detail: String,
    },
    /// A repeated fleet run was not bit-identical.
    ReplayUnstable {
        /// What differed.
        detail: String,
    },
    /// An audited run left a request without a complete decision chain
    /// (no admission root, no terminal, or a broken parent forest) —
    /// the flight recorder failed to explain an outcome.
    Unexplained {
        /// The request missing its explanation.
        request: usize,
        /// What was missing.
        detail: String,
    },
    /// A fired SLO alert could not be attributed to terminal audit
    /// events — an alarm with no evidence trail.
    UnattributableAlert {
        /// Which alert, precisely.
        detail: String,
    },
}

impl InvariantViolation {
    /// Stable snake_case label (JSON artifact key).
    pub fn label(&self) -> &'static str {
        match self {
            InvariantViolation::OutcomeBijection { .. } => "outcome_bijection",
            InvariantViolation::SilentCorruption { .. } => "silent_corruption",
            InvariantViolation::RecoveryVisible { .. } => "recovery_visible",
            InvariantViolation::WorkerVariance { .. } => "worker_variance",
            InvariantViolation::JournalFault { .. } => "journal_fault",
            InvariantViolation::ReplayUnstable { .. } => "replay_unstable",
            InvariantViolation::Unexplained { .. } => "unexplained",
            InvariantViolation::UnattributableAlert { .. } => "unattributable_alert",
        }
    }
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::OutcomeBijection { detail } => {
                write!(f, "outcome bijection broken: {detail}")
            }
            InvariantViolation::SilentCorruption {
                request,
                deviation,
                bound,
            } => write!(
                f,
                "request {request}: served spectrum off oracle by {deviation:.3e} (bound {bound:.3e})"
            ),
            InvariantViolation::RecoveryVisible { detail } => {
                write!(f, "recovery visible: {detail}")
            }
            InvariantViolation::WorkerVariance { workers, detail } => {
                write!(f, "outcomes differ at {workers} workers: {detail}")
            }
            InvariantViolation::JournalFault { detail } => write!(f, "journal fault: {detail}"),
            InvariantViolation::ReplayUnstable { detail } => {
                write!(f, "replay unstable: {detail}")
            }
            InvariantViolation::Unexplained { request, detail } => {
                write!(f, "request {request} unexplained: {detail}")
            }
            InvariantViolation::UnattributableAlert { detail } => {
                write!(f, "SLO alert without audit evidence: {detail}")
            }
        }
    }
}

/// Checks the exactly-once shape of a report against the number of
/// submitted requests: one outcome per request, and the executed plan
/// groups reference each request index at most once, all in range.
/// Reused by the proptest suite (`tests/outcome_invariants.rs`) and
/// every chaos run.
pub fn check_outcome_bijection(submitted: usize, report: &ServeReport) -> Result<(), String> {
    if report.outcomes.len() != submitted {
        return Err(format!(
            "{} outcomes for {} submitted requests",
            report.outcomes.len(),
            submitted
        ));
    }
    let mut seen = vec![false; submitted];
    for g in &report.group_info {
        for &idx in &g.indices {
            if idx >= submitted {
                return Err(format!(
                    "group {} references request {idx} out of range",
                    g.gid
                ));
            }
            if seen[idx] {
                return Err(format!("request {idx} appears in more than one plan group"));
            }
            seen[idx] = true;
        }
    }
    Ok(())
}

/// Worst per-coefficient deviation of a served spectrum from the dense
/// oracle of its own input signal (`None` when nothing was recovered).
fn oracle_deviation(req: &ServeRequest, recovered: &[(usize, fft::cplx::Cplx)]) -> Option<f64> {
    let dense = fft::Plan::new(req.time.len()).forward_coefficients(&req.time);
    recovered
        .iter()
        .map(|&(f, c)| {
            let d = dense[f];
            ((c.re - d.re).powi(2) + (c.im - d.im).powi(2)).sqrt()
        })
        .fold(None, |acc: Option<f64>, d| {
            Some(acc.map_or(d, |a| a.max(d)))
        })
}

fn check_oracle(
    requests: &[ServeRequest],
    report: &ServeReport,
    out: &mut Vec<InvariantViolation>,
) {
    for (i, outcome) in report.outcomes.iter().enumerate() {
        let Some(resp) = outcome.response() else {
            continue;
        };
        // Degraded-QoS responses trade accuracy for survival by
        // contract; the oracle bound only binds full-QoS serving.
        if resp.qos != ServeQos::Full {
            continue;
        }
        if let Some(dev) = oracle_deviation(&requests[i], &resp.recovered) {
            if dev > ORACLE_BOUND_SFFT {
                out.push(InvariantViolation::SilentCorruption {
                    request: i,
                    deviation: dev,
                    bound: ORACLE_BOUND_SFFT,
                });
            }
        }
    }
}

/// First index where two outcome vectors differ, rendered for a
/// violation detail.
fn first_outcome_diff(a: &[RequestOutcome], b: &[RequestOutcome]) -> String {
    if a.len() != b.len() {
        return format!("{} vs {} outcomes", a.len(), b.len());
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            return format!("first divergence at request {i}");
        }
    }
    "no divergence".into()
}

// ---------------------------------------------------------------------
// Running one schedule
// ---------------------------------------------------------------------

/// Everything one schedule's end-to-end run produced.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The schedule that ran.
    pub schedule: ChaosSchedule,
    /// Violations found (empty: all invariants held).
    pub violations: Vec<InvariantViolation>,
    /// Individual invariant checks performed.
    pub invariants_checked: u64,
    /// Relative cost of crashing and recovering vs the uninterrupted
    /// run — `(wasted + resume) / uninterrupted − 1` over simulated
    /// makespans (`None` for schedules without a crash).
    pub recovery_overhead: Option<f64>,
}

/// Deterministic request batch for a schedule: alternating geometries so
/// every run exercises multiple plan groups, seeds derived from the
/// fault seed so distinct schedules explore distinct signals.
fn build_requests(s: &ChaosSchedule) -> Vec<ServeRequest> {
    (0..s.requests)
        .map(|i| {
            let n = 512usize << (i % 2);
            let k = 4;
            let sig = SparseSignal::generate(
                n,
                k,
                MagnitudeModel::Unit,
                s.fault_seed.wrapping_mul(1009).wrapping_add(i as u64),
            );
            ServeRequest::new(sig.time, k, Variant::Optimized, 31 + 3 * i as u64)
        })
        .collect()
}

fn serve_config(s: &ChaosSchedule, workers: usize) -> ServeConfig {
    let faults = if s.rates.is_zero() && s.device_loss.is_none() {
        None
    } else {
        let mut fc = FaultConfig::from_rates(s.fault_seed, s.rates);
        if let Some(loss) = s.device_loss {
            fc = fc.with_device_loss(loss);
        }
        Some(fc)
    };
    ServeConfig {
        workers,
        faults,
        // Every chaos run flies with the recorder on: the suite checks
        // that each outcome is explainable and each alert attributable.
        audit: true,
        ..ServeConfig::default()
    }
}

/// Checks the flight-recorder invariants on an audited report: the
/// event forest roots at admission events, every request's decision
/// chain is complete (admission root → terminal), and every fired SLO
/// alert names terminal events that exist in the log.
fn check_audit(
    submitted: usize,
    report: &ServeReport,
    violations: &mut Vec<InvariantViolation>,
    checked: &mut u64,
) {
    *checked += 1;
    let Some(audit) = report.audit.as_deref() else {
        violations.push(InvariantViolation::Unexplained {
            request: 0,
            detail: "audited run produced no audit report".into(),
        });
        return;
    };
    if let Err(detail) = audit.validate() {
        violations.push(InvariantViolation::Unexplained { request: 0, detail });
    }
    for r in 0..submitted {
        let complete = crate::audit::explain(report, r).is_some_and(|c| {
            !c.events.is_empty()
                && c.events.iter().any(|e| crate::audit::is_root_kind(&e.name))
                && c.events.iter().any(|e| e.name == "terminal")
        });
        if !complete {
            violations.push(InvariantViolation::Unexplained {
                request: r,
                detail: "decision chain missing admission root or terminal".into(),
            });
        }
    }
    *checked += 1;
    for alert in &audit.slo.alerts {
        let attributable = !alert.contributing.is_empty()
            && alert.contributing.iter().all(|&id| {
                audit
                    .log
                    .events
                    .get(id as usize)
                    .is_some_and(|e| e.name == "terminal")
            });
        if !attributable {
            violations.push(InvariantViolation::UnattributableAlert {
                detail: format!(
                    "{}:{} at ts {} cites {} events",
                    alert.slo,
                    alert.window,
                    alert.ts,
                    alert.contributing.len()
                ),
            });
        }
    }
}

/// Runs one schedule end-to-end and checks every applicable invariant.
/// Pure: same schedule, same outcome, everywhere.
pub fn run_schedule(s: &ChaosSchedule) -> ChaosOutcome {
    let mut violations = Vec::new();
    let mut checked = 0u64;
    let mut recovery_overhead = None;
    let requests = build_requests(s);

    if s.device_loss.is_some() {
        run_fleet_schedule(s, &requests, &mut violations, &mut checked);
    } else {
        run_engine_schedule(
            s,
            &requests,
            &mut violations,
            &mut checked,
            &mut recovery_overhead,
        );
    }

    ChaosOutcome {
        schedule: s.clone(),
        violations,
        invariants_checked: checked,
        recovery_overhead,
    }
}

fn run_engine_schedule(
    s: &ChaosSchedule,
    requests: &[ServeRequest],
    violations: &mut Vec<InvariantViolation>,
    checked: &mut u64,
    recovery_overhead: &mut Option<f64>,
) {
    let engine =
        |workers: usize| ServeEngine::new(DeviceSpec::tesla_k20x(), serve_config(s, workers));
    let opts = JournalOptions {
        epoch_groups: s.epoch_groups,
        crash: CrashPlan::never(),
    };

    // Uninterrupted journaled run — the reference every other run is
    // compared against.
    let base = match engine(s.workers) {
        Ok(e) => {
            match e
                .serve_journaled(requests, &mut Journal::new(), &opts)
                .into_report()
            {
                Ok(r) => r,
                Err(c) => {
                    violations.push(InvariantViolation::JournalFault {
                        detail: format!("unarmed run crashed at epoch {}", c.epoch),
                    });
                    return;
                }
            }
        }
        Err(e) => {
            violations.push(InvariantViolation::JournalFault {
                detail: format!("engine construction failed: {e}"),
            });
            return;
        }
    };

    *checked += 1;
    if let Err(detail) = check_outcome_bijection(requests.len(), &base) {
        violations.push(InvariantViolation::OutcomeBijection { detail });
    }
    *checked += 1;
    check_oracle(requests, &base, violations);
    check_audit(requests.len(), &base, violations, checked);

    // Worker invariance: a different worker count must not change a
    // single outcome.
    let alt_workers = if s.workers == 1 { 2 } else { 1 };
    if let Ok(alt_engine) = engine(alt_workers) {
        let alt = alt_engine.serve_batch(requests);
        *checked += 1;
        if alt.outcomes != base.outcomes {
            violations.push(InvariantViolation::WorkerVariance {
                workers: alt_workers,
                detail: first_outcome_diff(&base.outcomes, &alt.outcomes),
            });
        }
    }

    // Crash + resume: recovery must be invisible in the outcomes.
    let Some(crash_epoch) = s.crash_epoch else {
        return;
    };
    let crash_opts = JournalOptions {
        epoch_groups: s.epoch_groups,
        crash: CrashPlan::at_epoch(crash_epoch),
    };
    let (Ok(crash_engine), Ok(resume_engine)) = (engine(s.workers), engine(s.workers)) else {
        return;
    };
    let mut journal = Journal::new();
    match crash_engine.serve_journaled(requests, &mut journal, &crash_opts) {
        JournalRun::Completed(done) => {
            // The armed epoch was beyond the run — equivalent to an
            // uninterrupted run, which must match the reference.
            *checked += 1;
            if done.outcomes != base.outcomes {
                violations.push(InvariantViolation::RecoveryVisible {
                    detail: first_outcome_diff(&base.outcomes, &done.outcomes),
                });
            }
        }
        JournalRun::Crashed(crash) => {
            match resume_engine.resume_from(requests, &mut journal, &opts) {
                Ok(JournalRun::Completed(resumed)) => {
                    *checked += 1;
                    if resumed.outcomes != base.outcomes {
                        violations.push(InvariantViolation::RecoveryVisible {
                            detail: first_outcome_diff(&base.outcomes, &resumed.outcomes),
                        });
                    }
                    // The resumed run must explain every outcome too —
                    // including the ones it restored from the journal.
                    check_audit(requests.len(), &resumed, violations, checked);
                    if base.makespan > 0.0 {
                        *recovery_overhead =
                            Some((crash.wasted_makespan + resumed.makespan) / base.makespan - 1.0);
                    }
                }
                Ok(JournalRun::Crashed(c)) => {
                    violations.push(InvariantViolation::JournalFault {
                        detail: format!(
                            "resume crashed at epoch {} without an armed plan",
                            c.epoch
                        ),
                    });
                }
                Err(e) => {
                    violations.push(InvariantViolation::JournalFault {
                        detail: format!("resume refused its own journal: {e}"),
                    });
                }
            }
        }
    }
}

fn run_fleet_schedule(
    s: &ChaosSchedule,
    requests: &[ServeRequest],
    violations: &mut Vec<InvariantViolation>,
    checked: &mut u64,
) {
    let build = || {
        let fleet_cfg = FleetConfig {
            epoch_groups: s.epoch_groups,
            ..FleetConfig::heterogeneous()
        };
        DeviceFleet::new(fleet_cfg, serve_config(s, s.workers))
    };
    let fleet = match build() {
        Ok(f) => f,
        Err(e) => {
            violations.push(InvariantViolation::JournalFault {
                detail: format!("fleet construction failed: {e}"),
            });
            return;
        }
    };
    let report = fleet.serve(requests);

    *checked += 1;
    if let Err(detail) = check_outcome_bijection(requests.len(), &report) {
        violations.push(InvariantViolation::OutcomeBijection { detail });
    }
    *checked += 1;
    check_oracle(requests, &report, violations);
    check_audit(requests.len(), &report, violations, checked);

    // Replay stability: a fresh fleet over the same schedule must be
    // bit-identical.
    if let Ok(again) = build() {
        let replay = again.serve(requests);
        *checked += 1;
        if replay.outcomes != report.outcomes {
            violations.push(InvariantViolation::ReplayUnstable {
                detail: first_outcome_diff(&report.outcomes, &replay.outcomes),
            });
        }
        *checked += 1;
        if replay.audit != report.audit {
            violations.push(InvariantViolation::ReplayUnstable {
                detail: "audit reports differ between identical fleet runs".into(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Shrinking & exploration
// ---------------------------------------------------------------------

/// Simpler variants of `s`, most aggressive first.
fn shrink_candidates(s: &ChaosSchedule) -> Vec<ChaosSchedule> {
    let mut out = Vec::new();
    if s.crash_epoch.is_some() {
        out.push(ChaosSchedule {
            crash_epoch: None,
            ..s.clone()
        });
    }
    if s.device_loss.is_some() {
        out.push(ChaosSchedule {
            device_loss: None,
            ..s.clone()
        });
    }
    for class in FaultClass::ALL {
        if s.rates.get(class) > 0.0 {
            let mut rates = s.rates;
            rates.set(class, 0.0);
            out.push(ChaosSchedule { rates, ..s.clone() });
        }
    }
    if s.requests > 1 {
        out.push(ChaosSchedule {
            requests: s.requests / 2,
            ..s.clone()
        });
    }
    if s.workers > 1 {
        out.push(ChaosSchedule {
            workers: 1,
            ..s.clone()
        });
    }
    if s.epoch_groups > 1 {
        out.push(ChaosSchedule {
            epoch_groups: 1,
            ..s.clone()
        });
    }
    out
}

/// Greedily minimizes a failing schedule: tries each simplification and
/// keeps it whenever the simplified schedule still violates an
/// invariant, until no simplification preserves the failure (or the
/// iteration cap trips). Returns the input unchanged if it does not
/// fail.
pub fn shrink(s: &ChaosSchedule) -> ChaosSchedule {
    if run_schedule(s).violations.is_empty() {
        return s.clone();
    }
    let mut cur = s.clone();
    for _ in 0..32 {
        let next = shrink_candidates(&cur)
            .into_iter()
            .find(|cand| !run_schedule(cand).violations.is_empty());
        match next {
            Some(simpler) => cur = simpler,
            None => break,
        }
    }
    cur
}

/// What an exploration swept and found.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Schedules executed.
    pub explored: usize,
    /// Individual invariant checks performed across all schedules.
    pub invariants_checked: u64,
    /// Violating runs, each with its schedule already shrunk minimal.
    pub violations: Vec<ChaosOutcome>,
    /// Crash schedules that measured a recovery overhead.
    pub crash_runs: usize,
    /// Mean relative recovery overhead across crash runs (`0` if none).
    pub mean_recovery_overhead: f64,
    /// Worst relative recovery overhead (`0` if none).
    pub max_recovery_overhead: f64,
}

/// Runs every schedule in the space, checks the invariant suite, and
/// shrinks any violation to a minimal failing schedule. Deterministic
/// end to end.
pub fn explore(space: &ChaosSpace) -> ChaosReport {
    let mut report = ChaosReport {
        explored: 0,
        invariants_checked: 0,
        violations: Vec::new(),
        crash_runs: 0,
        mean_recovery_overhead: 0.0,
        max_recovery_overhead: 0.0,
    };
    let mut overhead_sum = 0.0;
    for s in &space.schedules {
        let outcome = run_schedule(s);
        report.explored += 1;
        report.invariants_checked += outcome.invariants_checked;
        if let Some(ov) = outcome.recovery_overhead {
            report.crash_runs += 1;
            overhead_sum += ov;
            report.max_recovery_overhead = report.max_recovery_overhead.max(ov);
        }
        if !outcome.violations.is_empty() {
            let minimal = shrink(s);
            let minimal_outcome = run_schedule(&minimal);
            // Keep the minimal schedule's violations when the shrink
            // preserved them; otherwise report the original.
            report
                .violations
                .push(if minimal_outcome.violations.is_empty() {
                    outcome
                } else {
                    minimal_outcome
                });
        }
    }
    if report.crash_runs > 0 {
        report.mean_recovery_overhead = overhead_sum / report.crash_runs as f64;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_round_trips_through_json() {
        let s = ChaosSchedule {
            fault_seed: 7,
            rates: FaultRates::one_hot(FaultClass::Launch, 0.25),
            crash_epoch: Some(1),
            device_loss: None,
            workers: 2,
            requests: 5,
            epoch_groups: 2,
        };
        let back = ChaosSchedule::from_json(&s.to_json()).expect("round trip");
        assert_eq!(back, s);

        let fleet = ChaosSchedule {
            device_loss: Some(0.3),
            rates: FaultRates::uniform(0.05),
            ..ChaosSchedule::default()
        };
        assert_eq!(
            ChaosSchedule::from_json(&fleet.to_json()).expect("round trip"),
            fleet
        );
    }

    #[test]
    fn malformed_schedules_fail_typed() {
        for bad in [
            "not json",
            "[1, 2]",
            "{\"fault_seed\": -1}",
            "{\"rates\": {\"warp_drive\": 0.5}}",
            "{\"workers\": 0}",
            "{\"mystery\": 1}",
        ] {
            assert!(
                matches!(
                    ChaosSchedule::from_json(bad),
                    Err(CusFftError::BadConfig { .. })
                ),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn space_enumeration_is_deterministic_and_large_enough() {
        let a = chaos_space(true);
        let b = chaos_space(true);
        assert_eq!(a.schedules, b.schedules);
        assert!(
            a.schedules.len() >= 50,
            "smoke space has {} schedules, need ≥ 50",
            a.schedules.len()
        );
        assert!(chaos_space(false).schedules.len() > a.schedules.len());
    }

    #[test]
    fn clean_schedule_violates_nothing() {
        let outcome = run_schedule(&ChaosSchedule {
            requests: 3,
            ..ChaosSchedule::default()
        });
        assert!(
            outcome.violations.is_empty(),
            "clean run violated: {:?}",
            outcome.violations
        );
        assert!(outcome.invariants_checked >= 3);
    }

    #[test]
    fn bijection_checker_rejects_wrong_cardinality() {
        let s = ChaosSchedule {
            requests: 2,
            ..ChaosSchedule::default()
        };
        let requests = build_requests(&s);
        let engine =
            ServeEngine::new(DeviceSpec::tesla_k20x(), serve_config(&s, 1)).expect("valid config");
        let report = engine.serve_batch(&requests);
        assert!(check_outcome_bijection(requests.len(), &report).is_ok());
        assert!(check_outcome_bijection(requests.len() + 1, &report).is_err());
    }

    #[test]
    fn shrink_keeps_clean_schedules_untouched() {
        let s = ChaosSchedule {
            requests: 2,
            ..ChaosSchedule::default()
        };
        assert_eq!(shrink(&s), s);
    }
}
