//! `overload_faulty`: one `ServeEngine::serve_overload` trace of 32
//! arrivals paced on the device clock at 2×–4× the nominal service rate,
//! every 4th request with a deadline, under `FaultConfig::uniform(seed,
//! 0.002).with_sdc(0.01)` with the audit log on. Open loop: arrivals are
//! virtual device-clock times, so the generator cannot run late.
//!
//! Admission refuses work, brownout re-keys requests onto degraded plans,
//! the breaker short-circuits, hedges duplicate work, retries and CPU
//! fallback recover from faults, and the audit log records every
//! decision. Every plan key (full and degraded) fits in the cache, and
//! set-up builds them all, so every lookup in a timed op hits.

use cusfft::{
    nominal_service, CacheStats, OverloadConfig, ServeConfig, ServeEngine, ServeReport,
    ServeRequest, TimedRequest, Variant,
};
use fft::cplx::Cplx;
use std::time::Instant;

use gpu_sim::{schedule, DeviceSpec, FaultConfig};

use crate::common::{evenly, nearest_rank, quota, sorted, spec_json, Json, Rng, Tracer};
use crate::layers::{check_launches, gate_outcomes, report_layers, request_ends};
use crate::serve_mixed::{shapes, workers, Batch, Shape};
use crate::{add, OpOut, Scale, Workload};

/// Offered load of the timed traces, as multiples of the nominal rate.
const LOADS: (f64, f64) = (2.0, 4.0);
/// Seed of the fault plan. Fixed, so faults land on the same groups
/// whatever the workload seed; breaker trips and CPU fallbacks otherwise
/// dominate the spread between seeds.
const FAULT_SEED: u64 = 7;
/// Offered-load range and steps of the `dev_rate_at_slo` bisection.
const SWEEP: (f64, f64) = (0.25, 4.0);
const SWEEP_STEPS: usize = 8;

/// Latency limit L (dev ms). A group cannot start before its last member
/// arrives, so every latency includes the wait for its group to fill; L
/// sits above the p99 a trace reaches at the nominal rate.
pub const SLO_MS: f64 = 100.0;

pub struct Inputs {
    pub shapes: Vec<Shape>,
    /// The arrival traces, and the ground truth of each request.
    pub timed: Vec<Vec<TimedRequest>>,
    pub truth: Vec<Vec<Vec<(usize, Cplx)>>>,
    /// Offered load of each trace (multiple of the nominal rate).
    pub loads: Vec<f64>,
    /// Nominal service time of the largest geometry (dev seconds).
    pub nominal: f64,
    pub arrivals: usize,
    pub full: bool,
}

fn spec() -> DeviceSpec {
    DeviceSpec::tesla_k20x()
}

/// Paces `reqs` at `load` × the nominal rate; every 4th request carries
/// a deadline of 4 nominal service times.
fn pace(reqs: Vec<ServeRequest>, nominal: f64, load: f64) -> Vec<TimedRequest> {
    let gap = nominal / load;
    reqs.into_iter()
        .enumerate()
        .map(|(j, r)| {
            let t = TimedRequest::at(r, j as f64 * gap);
            if j % 4 == 3 {
                t.with_deadline(4.0 * nominal)
            } else {
                t
            }
        })
        .collect()
}

fn policy(arrivals: usize) -> OverloadConfig {
    OverloadConfig {
        queue_capacity: (arrivals / 2).max(2),
        brownout_depth: (arrivals / 4).max(1),
        hedge_percentile: 0.5,
        hedge_factor: 1.25,
        ..OverloadConfig::default()
    }
}

fn engine(inputs: &Inputs) -> ServeEngine {
    ServeEngine::new(
        spec(),
        ServeConfig {
            workers: workers(),
            cache_capacity: 2 * inputs.shapes.len(),
            faults: Some(FaultConfig::uniform(FAULT_SEED, 0.002).with_sdc(0.01)),
            audit: true,
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid")
}

/// Set-up trace, all at time 0: one request of each shape (served at full
/// QoS), filler up to the brownout depth, then each shape again (now
/// degraded) — so every plan key is cached before the timed ops.
fn warm_trace(inputs: &Inputs, policy: &OverloadConfig) -> Vec<TimedRequest> {
    let reqs: Vec<&ServeRequest> = inputs.timed[0].iter().map(|t| &t.request).collect();
    let of_shape: Vec<&ServeRequest> = inputs
        .shapes
        .iter()
        .map(|&(n, k, v)| {
            *reqs
                .iter()
                .find(|r| r.time.len() == n && r.k == k && r.variant == v)
                .expect("every trace holds every shape")
        })
        .collect();
    let filler = reqs
        .iter()
        .copied()
        .take(policy.brownout_depth.saturating_sub(of_shape.len()));
    of_shape
        .iter()
        .copied()
        .chain(filler)
        .chain(of_shape.iter().copied())
        .map(|r| TimedRequest::at(r.clone(), 0.0))
        .collect()
}

/// Device-clock latency of every completed request: its audit terminal
/// time minus its arrival. Checks that the nearest-rank p50/p99 equal
/// `ServeReport::latency`.
fn latencies(r: &ServeReport, errors: &mut Vec<String>) -> Vec<Option<f64>> {
    let mut lat = vec![None; r.outcomes.len()];
    let Some(audit) = &r.audit else {
        errors.push("audit log missing".into());
        return lat;
    };
    for e in &audit.log.events {
        if let (true, Some(idx)) = (e.name == "terminal", e.request) {
            if r.outcomes[idx].response().is_some() {
                lat[idx] = Some(e.ts - r.arrivals[idx]);
            }
        }
    }
    let done = sorted(lat.iter().flatten().copied().collect());
    if !done.is_empty() {
        let (p50, p99) = (nearest_rank(&done, 0.5), nearest_rank(&done, 0.99));
        if p50 != r.latency.p50 || p99 != r.latency.p99 || done.len() != r.latency.count {
            errors.push(format!(
                "latency p50/p99/count {p50}/{p99}/{} != ServeReport::latency {}/{}/{}",
                done.len(),
                r.latency.p50,
                r.latency.p99,
                r.latency.count
            ));
        }
    }
    lat
}

pub struct OverloadFaulty {
    engine: ServeEngine,
    cache: CacheStats,
}

impl Workload for OverloadFaulty {
    type Inputs = Inputs;
    type Raw = ServeReport;
    const NAME: &'static str = "overload_faulty";
    const ABSENT: &'static [(&'static str, &'static str)] = &[
        ("pipeline.", "estimated on paper_large and serve_mixed only"),
        ("plan.", "plans are built in set-up, never in a timed op"),
        ("plan_cache.miss_cost.", "every lookup hits"),
        ("serve.batch.", "serve_overload is timed as overload.serve"),
        ("serve.exec_est.", "estimated on serve_mixed only"),
        ("serve.control_est.", "estimated on serve_mixed only"),
        ("fleet.", "one device"),
        ("journal.", "no journal"),
    ];

    fn generate(scale: Scale, seed: u64) -> Inputs {
        use Variant::Optimized as O;
        let (shapes, traces, arrivals) = match scale {
            Scale::Full => (
                shapes(&[(13, 2, O), (13, 4, O), (14, 4, O), (14, 8, O)]),
                24,
                32,
            ),
            Scale::Tiny => (shapes(&[(13, 2, O), (14, 4, O)]), 2, 12),
        };
        let largest = shapes
            .iter()
            .map(|s| (s.0, s.1))
            .max()
            .expect("shapes exist");
        let nominal = nominal_service(&spec(), largest.0, largest.1);
        let mut rng = Rng::new(seed);
        // Offered loads spread evenly over 2x-4x, in seeded order; every
        // trace mixes the shapes equally.
        let mut loads = evenly(LOADS.0, LOADS.1, traces);
        rng.shuffle(&mut loads);
        let mix = quota(&vec![1.0; shapes.len()], arrivals);
        let (mut timed, mut truth) = (Vec::new(), Vec::new());
        for &load in &loads {
            let b = Batch::dealt(&mut rng, &shapes, &mix);
            timed.push(pace(b.requests, nominal, load));
            truth.push(b.truth);
        }
        Inputs {
            shapes,
            timed,
            truth,
            loads,
            nominal,
            arrivals,
            full: scale == Scale::Full,
        }
    }

    fn input_hash(inputs: &Inputs) -> u64 {
        let mut h = FAULT_SEED;
        for (t, truth) in inputs
            .timed
            .iter()
            .flatten()
            .zip(inputs.truth.iter().flatten())
        {
            h = h.rotate_left(5) ^ t.request.seed ^ t.arrival.to_bits();
            for (f, _) in truth {
                h = h.rotate_left(3) ^ *f as u64;
            }
        }
        h
    }

    fn dev_ops(inputs: &Inputs) -> usize {
        inputs.timed.len()
    }

    fn setup(inputs: &Inputs) -> Self {
        let engine = engine(inputs);
        let policy = policy(inputs.arrivals);
        let _ = engine.serve_overload(&warm_trace(inputs, &policy), &policy);
        let _ = engine.serve_overload(&inputs.timed[0], &policy);
        OverloadFaulty {
            cache: engine.cache().stats(),
            engine,
        }
    }

    fn call(&mut self, inputs: &Inputs, i: usize, tr: &mut Tracer) -> ServeReport {
        let trace = &inputs.timed[i % inputs.timed.len()];
        let policy = policy(inputs.arrivals);
        tr.span("overload.serve", |_| {
            self.engine.serve_overload(trace, &policy)
        })
    }

    fn digest(&mut self, inputs: &Inputs, i: usize, r: &ServeReport, dev: bool) -> OpOut {
        let at = i % inputs.timed.len();
        let mut o = OpOut::default();
        gate_outcomes(r, &inputs.truth[at], &mut o);
        let before = std::mem::replace(&mut self.cache, r.cache);
        let l = &mut o.layer;
        add(l, "plan_cache.hits", (r.cache.hits - before.hits) as f64);
        add(
            l,
            "plan_cache.misses",
            (r.cache.misses - before.misses) as f64,
        );
        add(
            l,
            "plan_cache.evictions",
            (r.cache.evictions - before.evictions) as f64,
        );
        if !dev {
            return o;
        }
        if let Err(e) = check_launches(r) {
            o.errors.push(e);
        }
        let lat = latencies(r, &mut o.errors);
        let ends = request_ends(r);
        let tree = cusfft::observe::span_tree(r);
        for (idx, l) in lat.iter().enumerate() {
            let Some(l) = *l else { continue };
            o.dev_lat.push(l);
            o.slo_ok += usize::from(l * 1e3 <= SLO_MS);
            // Queue wait: latency minus the group's own execution span.
            if ends[idx].is_some() {
                let name = format!("request {idx}");
                if let Some(s) = tree.spans.iter().find(|s| s.name == name) {
                    o.samples
                        .push(("serve.queue_wait.dev_ms_p50", (l - (s.end - s.start)) * 1e3));
                }
            }
        }
        o.makespan = r.makespan;
        report_layers(r, &spec(), &mut o.layer);
        o
    }

    fn estimate(
        &mut self,
        _inputs: &Inputs,
        _i: usize,
        r: &ServeReport,
        _tr: &Tracer,
        o: &mut OpOut,
    ) {
        let t = Instant::now();
        let _ = std::hint::black_box(schedule(&r.timeline.ops, spec().max_concurrent_kernels));
        add(
            &mut o.host,
            "gpu_sim.schedule.host_ms",
            t.elapsed().as_secs_f64() * 1e3,
        );
    }

    fn finish(
        &mut self,
        inputs: &Inputs,
        dev: &OpOut,
        sweep: bool,
        notes: &mut Vec<(&'static str, String)>,
        errors: &mut Vec<String>,
    ) -> Option<f64> {
        let count = |k: &str| dev.layer.get(k).copied().unwrap_or(0.0);
        for k in [
            "overload.deadline_rejected",
            "overload.degraded",
            "overload.breaker.trips",
            "overload.hedges",
        ] {
            if inputs.full && count(k) == 0.0 {
                errors.push(format!("{k} never happened in this run"));
            }
        }
        if !sweep {
            return None;
        }
        // The highest offered load at which p99 <= L and no arrival is
        // refused, by bisection on the first trace's requests.
        let policy = policy(inputs.arrivals);
        let requests: Vec<ServeRequest> =
            inputs.timed[0].iter().map(|t| t.request.clone()).collect();
        let mut probes = Vec::new();
        let mut meets = |load: f64| {
            let r = engine(inputs)
                .serve_overload(&pace(requests.clone(), inputs.nominal, load), &policy);
            let refused = r.overload.shed + r.overload.deadline_exceeded;
            probes.push(format!(
                "[{}, {}, {refused}]",
                Json::num(load),
                Json::num(r.latency.p99 * 1e3)
            ));
            refused == 0 && r.latency.count > 0 && r.latency.p99 * 1e3 <= SLO_MS
        };
        let (mut lo, mut hi) = SWEEP;
        let best = if !meets(lo) {
            0.0
        } else if meets(hi) {
            hi
        } else {
            for _ in 0..SWEEP_STEPS {
                let mid = 0.5 * (lo + hi);
                if meets(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        notes.push((
            "sweep_load_p99ms_refused",
            format!("[{}]", probes.join(", ")),
        ));
        if best == 0.0 {
            errors.push("no offered load meets the SLO".into());
        }
        Some(best / inputs.nominal)
    }

    fn manifest(inputs: &Inputs) -> Vec<(&'static str, String)> {
        let p = policy(inputs.arrivals);
        let loads: Vec<String> = inputs.loads.iter().map(|l| Json::num(*l)).collect();
        vec![
            ("loop", Json::str("open, 1 virtual arrival trace per op")),
            (
                "generator_lateness_s",
                Json::str("0: arrivals are virtual device-clock times"),
            ),
            ("device", spec_json(&spec())),
            ("workers", workers().to_string()),
            ("cache_capacity", (2 * inputs.shapes.len()).to_string()),
            ("arrivals_per_trace", inputs.arrivals.to_string()),
            ("offered_loads", format!("[{}]", loads.join(", "))),
            ("nominal_service_ms", Json::num(inputs.nominal * 1e3)),
            ("slo_ms", Json::num(SLO_MS)),
            (
                "deadline",
                Json::str("every 4th request, 4 x nominal service"),
            ),
            ("fault_rate", Json::num(0.002)),
            ("sdc_rate", Json::num(0.01)),
            ("fault_seed", FAULT_SEED.to_string()),
            ("queue_capacity", p.queue_capacity.to_string()),
            ("brownout_depth", p.brownout_depth.to_string()),
            ("hedge_percentile", Json::num(p.hedge_percentile)),
            ("hedge_factor", Json::num(p.hedge_factor)),
            (
                "sweep_range",
                format!("[{}, {}]", Json::num(SWEEP.0), Json::num(SWEEP.1)),
            ),
            (
                "dev_latency",
                Json::str("audit terminal time minus ServeReport::arrivals"),
            ),
        ]
    }
}
