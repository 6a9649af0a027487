//! Two-clock benchmark of `cusfft`.
//!
//! Four workloads drive the library's public entry points. Every number
//! names its clock: `host` is the real wall clock of this process, `dev`
//! is the simulated device clock, `count` is an exact tally and `model`
//! is a value the cost model computes rather than measures. Device-clock
//! values and counts are fixed by the seed; only host-clock values vary
//! between two runs of one seed.
//!
//! A run generates all inputs from the seed, sets up several times (the
//! median is `setup_s`), then runs ops until `--seconds` have passed and
//! at least the workload's fixed number of *dev ops* have run. Dev-clock
//! metrics and counts cover exactly the dev ops; host-clock metrics cover
//! every timed op. With `--trace 1` every second op runs with spans
//! around each call into a layer, and the run reports the per-layer
//! metrics instead of the end-to-end ones.

pub mod common;
pub mod layers;
pub mod overload;
pub mod paper_large;
pub mod recovery;
pub mod serve_mixed;

use std::collections::BTreeMap;
use std::time::Instant;

use common::{
    median, nearest_rank, peak_rss_mb, sorted, Json, Tracer, MAX_L1_FULL, MAX_L1_MISS_SHARE,
};

/// Named sums a workload reports per op.
pub type Layer = BTreeMap<String, f64>;

pub fn add(l: &mut Layer, key: &str, v: f64) {
    match l.get_mut(key) {
        Some(x) => *x += v,
        None => {
            l.insert(key.to_string(), v);
        }
    }
}

/// One end-to-end metric: `(name, unit, clock, better)`.
pub const END_TO_END: &[(&str, &str, &str, &str)] = &[
    ("setup_s", "s", "host", "lower"),
    ("host_ms_p50", "ms", "host", "lower"),
    ("host_ms_p90", "ms", "host", "lower"),
    ("host_req_per_s", "1/s", "host", "higher"),
    ("dev_ms_p50", "ms", "dev", "lower"),
    ("dev_ms_p90", "ms", "dev", "lower"),
    ("dev_ms_p99", "ms", "dev", "lower"),
    ("dev_req_per_s", "1/s", "dev", "higher"),
    ("ok_frac", "ratio", "count", "higher"),
    ("slo_attain", "ratio", "dev", "higher"),
    ("dev_rate_at_slo", "1/s", "dev", "higher"),
    ("full_qos_frac", "ratio", "count", "higher"),
    ("peak_rss_mb", "MB", "host", "lower"),
];

/// How a per-layer metric is formed from the per-op sums.
#[derive(Debug, Clone, Copy)]
pub enum Norm {
    /// Mean over dev ops of a deterministic sum.
    PerOp,
    /// Sum over dev ops divided by the requests they completed.
    PerReq,
    /// Mean over traced ops of a host-clock sum.
    HostPerOp,
    /// `a / b` over dev-op sums (0 when `b` is 0).
    Div(&'static str, &'static str),
    /// `a / (a + b)` over dev-op sums (0 when both are 0).
    Share(&'static str, &'static str),
    /// `1 - a / b` over dev-op sums (0 when `b` is 0).
    OneMinus(&'static str, &'static str),
    /// Median of the samples collected under the metric's name.
    P50,
    /// Traced host p50 over untraced host p50, minus 1.
    Overhead,
}

use Norm::*;

/// One per-layer metric: `(name, unit, clock, better, norm)`.
pub const PER_LAYER: &[(&str, &str, &str, &str, Norm)] = &[
    ("pipeline.prepare.host_ms", "ms", "host", "lower", HostPerOp),
    (
        "pipeline.batched_fft.host_ms",
        "ms",
        "host",
        "lower",
        HostPerOp,
    ),
    ("pipeline.finish.host_ms", "ms", "host", "lower", HostPerOp),
    (
        "pipeline.unattributed.host_ms",
        "ms",
        "host",
        "lower",
        HostPerOp,
    ),
    ("plan.params.host_ms", "ms", "host", "lower", HostPerOp),
    ("plan.build.host_ms", "ms", "host", "lower", HostPerOp),
    ("perm_filter.dev_ms", "ms", "dev", "lower", PerReq),
    ("perm_filter.txns", "count", "model", "lower", PerReq),
    ("perm_filter.dram_mb", "MB", "model", "lower", PerReq),
    ("cufft.dev_ms", "ms", "dev", "lower", PerReq),
    ("cufft.launches_per_req", "count", "count", "lower", PerReq),
    ("cutoff.dev_ms", "ms", "dev", "lower", PerReq),
    ("locate.dev_ms", "ms", "dev", "lower", PerReq),
    ("reconstruct.dev_ms", "ms", "dev", "lower", PerReq),
    ("transfer.dev_ms", "ms", "dev", "lower", PerReq),
    ("transfer.mb", "MB", "model", "lower", PerReq),
    (
        "device.overlap_ratio",
        "ratio",
        "dev",
        "higher",
        OneMinus("device.makespan_ms", "device.serial_ms"),
    ),
    ("kernel.txns_per_req", "count", "model", "lower", PerReq),
    ("kernel.dram_mb_per_req", "MB", "model", "lower", PerReq),
    ("recovery.dev_ms", "ms", "dev", "lower", PerReq),
    ("gpu_sim.timeline.ops", "count", "count", "lower", PerOp),
    ("gpu_sim.schedule.host_ms", "ms", "host", "lower", HostPerOp),
    (
        "gpu_sim.concurrency.max_streams",
        "count",
        "dev",
        "higher",
        PerOp,
    ),
    (
        "gpu_sim.concurrency.avg_streams",
        "count",
        "dev",
        "higher",
        PerOp,
    ),
    ("gpu_sim.pool.alloc_ops", "count", "count", "lower", PerOp),
    ("gpu_sim.pool.release_ops", "count", "count", "lower", PerOp),
    ("arena.reuse_hits", "count", "count", "higher", PerOp),
    ("arena.fresh_misses", "count", "count", "lower", PerOp),
    (
        "arena.hit_ratio",
        "ratio",
        "count",
        "higher",
        Share("arena.reuse_hits", "arena.fresh_misses"),
    ),
    ("plan_cache.hits", "count", "count", "higher", PerOp),
    ("plan_cache.misses", "count", "count", "lower", PerOp),
    ("plan_cache.evictions", "count", "count", "lower", PerOp),
    (
        "plan_cache.hit_ratio",
        "ratio",
        "count",
        "higher",
        Share("plan_cache.hits", "plan_cache.misses"),
    ),
    (
        "plan_cache.miss_cost.host_ms",
        "ms",
        "host",
        "lower",
        HostPerOp,
    ),
    ("serve.batch.host_ms", "ms", "host", "lower", HostPerOp),
    ("serve.exec_est.host_ms", "ms", "host", "lower", HostPerOp),
    (
        "serve.control_est.host_ms",
        "ms",
        "host",
        "lower",
        HostPerOp,
    ),
    ("serve.groups", "count", "count", "lower", PerOp),
    (
        "serve.reqs_per_group",
        "count",
        "count",
        "higher",
        Div("serve.requests", "serve.groups"),
    ),
    ("serve.faults.injected", "count", "count", "lower", PerOp),
    ("serve.retries", "count", "count", "lower", PerOp),
    ("serve.evictions", "count", "count", "lower", PerOp),
    ("serve.cpu_fallbacks", "count", "count", "lower", PerOp),
    ("serve.failed", "count", "count", "lower", PerOp),
    ("serve.sdc_detected", "count", "count", "lower", PerOp),
    (
        "serve.retry_useful_ratio",
        "ratio",
        "count",
        "higher",
        Div("serve.retry_completions", "serve.retries"),
    ),
    ("serve.queue_wait.dev_ms_p50", "ms", "dev", "lower", P50),
    ("overload.serve.host_ms", "ms", "host", "lower", HostPerOp),
    ("overload.admitted", "count", "count", "higher", PerOp),
    ("overload.shed", "count", "count", "lower", PerOp),
    (
        "overload.deadline_rejected",
        "count",
        "count",
        "lower",
        PerOp,
    ),
    (
        "overload.peak_queue_depth",
        "count",
        "count",
        "lower",
        PerOp,
    ),
    ("overload.degraded", "count", "count", "lower", PerOp),
    ("overload.hedges", "count", "count", "lower", PerOp),
    ("overload.hedge_wins", "count", "count", "higher", PerOp),
    (
        "overload.hedge_win_ratio",
        "ratio",
        "count",
        "higher",
        Div("overload.hedge_wins", "overload.hedges"),
    ),
    ("overload.breaker.trips", "count", "count", "lower", PerOp),
    (
        "overload.breaker.short_circuits",
        "count",
        "count",
        "lower",
        PerOp,
    ),
    ("overload.breaker.probes", "count", "count", "lower", PerOp),
    (
        "audit.events_per_req",
        "count",
        "count",
        "lower",
        Div("audit.events", "audit.requests"),
    ),
    ("audit.slo_alerts", "count", "count", "lower", PerOp),
    ("fleet.serve.host_ms", "ms", "host", "lower", HostPerOp),
    ("fleet.routed_groups", "count", "count", "higher", PerOp),
    ("fleet.failovers", "count", "count", "lower", PerOp),
    ("fleet.device_losses", "count", "count", "lower", PerOp),
    ("fleet.standby_acquires", "count", "count", "higher", PerOp),
    ("fleet.cpu_served_groups", "count", "count", "lower", PerOp),
    ("fleet.brownout_groups", "count", "count", "lower", PerOp),
    ("fleet.lane_imbalance", "ratio", "dev", "lower", PerOp),
    ("journal.serve.host_ms", "ms", "host", "lower", HostPerOp),
    ("journal.resume.host_ms", "ms", "host", "lower", HostPerOp),
    ("journal.records", "count", "count", "lower", PerOp),
    ("journal.checkpoints", "count", "count", "lower", PerOp),
    ("journal.durable_kb", "KB", "count", "lower", PerOp),
    (
        "journal.groups_recovered",
        "count",
        "count",
        "higher",
        PerOp,
    ),
    (
        "journal.groups_reexecuted",
        "count",
        "count",
        "lower",
        PerOp,
    ),
    ("journal.wasted.dev_ms", "ms", "dev", "lower", PerOp),
    ("op.unattributed.host_ms", "ms", "host", "lower", HostPerOp),
    ("trace.overhead_ratio", "ratio", "host", "lower", Overhead),
];

/// Input sizes: `Full` is the benchmark, `Tiny` keeps the package's own
/// tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What one op returns beyond its host time.
#[derive(Debug, Default)]
pub struct OpOut {
    /// Requests attempted.
    pub requests: usize,
    /// Requests that returned a spectrum (`RequestOutcome::Done`).
    pub completed: usize,
    /// Completed at degraded accuracy.
    pub degraded: usize,
    /// Summed L1 error of the degraded responses (reported, not gated).
    pub degraded_l1: f64,
    /// Failed, refused, or missing the correctness gate.
    pub not_ok: usize,
    /// Full-QoS responses above the gate's L1 bound.
    pub l1_misses: usize,
    /// Device-clock latency of each completed request (seconds).
    pub dev_lat: Vec<f64>,
    /// Requests that completed within the workload's latency limit.
    pub slo_ok: usize,
    /// Summed device-clock makespan of the op (seconds).
    pub makespan: f64,
    /// Deterministic per-layer sums.
    pub layer: Layer,
    /// Per-layer samples (for `Norm::P50` metrics).
    pub samples: Vec<(&'static str, f64)>,
    /// Host-clock per-layer values in ms (read on traced ops only).
    pub host: Layer,
    /// Failed checks: any entry fails the run.
    pub errors: Vec<String>,
}

/// A workload: inputs made from the seed, a set-up that ends with the
/// first (untimed) op, and ops whose timed part is `call`.
pub trait Workload: Sized {
    type Inputs;
    type Raw;
    const NAME: &'static str;
    /// Per-layer metrics (name prefixes) the workload cannot produce, and
    /// why; they read 0.
    const ABSENT: &'static [(&'static str, &'static str)];
    /// Makes every input from the seed, before anything is timed.
    fn generate(scale: Scale, seed: u64) -> Self::Inputs;
    /// Fingerprint of the inputs, so a test can see a seed change them.
    fn input_hash(inputs: &Self::Inputs) -> u64;
    /// Dev ops: the fixed number of ops the dev-clock metrics cover.
    fn dev_ops(inputs: &Self::Inputs) -> usize;
    /// Builds plans/engines and runs the first op.
    fn setup(inputs: &Self::Inputs) -> Self;
    /// The timed part of op `i`: calls into the library only.
    fn call(&mut self, inputs: &Self::Inputs, i: usize, tr: &mut Tracer) -> Self::Raw;
    /// Checks and digests op `i`'s results (untimed). `dev` is true for the
    /// dev ops, which must also produce the device-clock samples.
    fn digest(&mut self, inputs: &Self::Inputs, i: usize, raw: &Self::Raw, dev: bool) -> OpOut;
    /// Host-clock estimates on a traced op (untimed), added to `out.host`.
    fn estimate(
        &mut self,
        _inputs: &Self::Inputs,
        _i: usize,
        _raw: &Self::Raw,
        _tr: &Tracer,
        _out: &mut OpOut,
    ) {
    }
    /// Run-level checks over the dev ops' sums, and `dev_rate_at_slo`
    /// when the workload finds it by a load sweep (`sweep` is false on
    /// traced runs, which do not report it) rather than taking its
    /// closed-loop goodput. May add manifest entries to `notes`.
    fn finish(
        &mut self,
        _inputs: &Self::Inputs,
        _dev: &OpOut,
        _sweep: bool,
        _notes: &mut Vec<(&'static str, String)>,
        _errors: &mut Vec<String>,
    ) -> Option<f64> {
        None
    }
    /// The workload's configuration, for the manifest.
    fn manifest(inputs: &Self::Inputs) -> Vec<(&'static str, String)>;
}

/// The result of one run: everything the command prints.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit, clock)`, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str, &'static str)>,
    pub manifest: Vec<(&'static str, String)>,
    /// Traced runs: `(span, total ms per traced op, self ms per traced op)`.
    pub spans: Vec<(&'static str, f64, f64)>,
    pub errors: Vec<String>,
    /// Fingerprint of the generated inputs.
    pub input_hash: u64,
}

pub const WORKLOADS: [&str; 4] = ["paper_large", "serve_mixed", "overload_faulty", "recovery"];

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "paper_large" => Ok(drive::<paper_large::PaperLarge>(opts)),
        "serve_mixed" => Ok(drive::<serve_mixed::ServeMixed>(opts)),
        "overload_faulty" => Ok(drive::<overload::OverloadFaulty>(opts)),
        "recovery" => Ok(drive::<recovery::Recovery>(opts)),
        w => Err(format!(
            "unknown workload '{w}' (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn setup_reps(scale: Scale) -> usize {
    match scale {
        Scale::Full => 3,
        Scale::Tiny => 1,
    }
}

fn drive<W: Workload>(opts: &Opts) -> Outcome {
    let inputs = W::generate(opts.scale, opts.seed);
    let p = W::dev_ops(&inputs);

    // Set-up, several times; the median is `setup_s` and the last state
    // serves the timed ops.
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..setup_reps(opts.scale) {
        drop(state.take());
        let t = Instant::now();
        state = Some(W::setup(&inputs));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = state.expect("at least one set-up");

    let mut tr = Tracer::new(false);
    let mut errors: Vec<String> = Vec::new();
    let mut host_plain = Vec::new();
    let mut host_traced = Vec::new();
    let mut completed_all = 0usize;
    let (mut done, mut degraded, mut l1_misses) = (0usize, 0usize, 0usize);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut dev = OpOut::default();
    let mut host_layer = Layer::new();
    let mut span_acc: Vec<(&'static str, f64, f64)> = Vec::new();

    let start = Instant::now();
    let mut i = 0usize;
    while i < p || start.elapsed().as_secs_f64() < opts.seconds {
        tr.on = opts.trace && i % 2 == 1;
        tr.spans.clear();
        let t = Instant::now();
        let raw = tr.span("op", |tr| w.call(&inputs, i, tr));
        let host_s = t.elapsed().as_secs_f64();
        let is_dev = i < p;
        let mut out = w.digest(&inputs, i, &raw, is_dev);
        attempted += 1;
        done += out.completed;
        degraded += out.degraded;
        l1_misses += out.l1_misses;
        if !out.errors.is_empty() {
            failed += 1;
            for e in out.errors.drain(..) {
                if errors.len() < 20 {
                    errors.push(format!("op {i}: {e}"));
                }
            }
        }
        if tr.on {
            w.estimate(&inputs, i, &raw, &tr, &mut out);
            for (name, total, own) in tr.self_times() {
                add(&mut out.host, &format!("{name}.host_ms"), total * 1e3);
                match span_acc.iter_mut().find(|s| s.0 == name) {
                    Some(s) => {
                        s.1 += total * 1e3;
                        s.2 += own * 1e3;
                    }
                    None => span_acc.push((name, total * 1e3, own * 1e3)),
                }
                if name == "op" {
                    add(&mut out.host, "op.unattributed.host_ms", own * 1e3);
                }
            }
            for (k, v) in &out.host {
                add(&mut host_layer, k, *v);
            }
            host_traced.push(host_s);
        } else {
            host_plain.push(host_s);
            completed_all += out.completed;
        }
        if is_dev {
            dev.requests += out.requests;
            dev.completed += out.completed;
            dev.not_ok += out.not_ok;
            dev.degraded += out.degraded;
            dev.degraded_l1 += out.degraded_l1;
            dev.slo_ok += out.slo_ok;
            dev.makespan += out.makespan;
            dev.dev_lat.extend(out.dev_lat);
            dev.samples.extend(out.samples);
            for (k, v) in &out.layer {
                add(&mut dev.layer, k, *v);
            }
        }
        i += 1;
    }
    let full = done - degraded;
    if l1_misses as f64 > MAX_L1_MISS_SHARE * full as f64 {
        errors.push(format!(
            "{l1_misses} of {full} full-QoS responses exceed L1 {MAX_L1_FULL}, \
             more than the allowed share {MAX_L1_MISS_SHARE}"
        ));
    }
    let mut notes = Vec::new();
    let sweep = w.finish(&inputs, &dev, !opts.trace, &mut notes, &mut errors);

    let mut metrics = Vec::new();
    if opts.trace {
        let n = host_traced.len().max(1) as f64;
        let overhead = if host_plain.is_empty() || host_traced.is_empty() {
            0.0
        } else {
            median(&host_traced) / median(&host_plain) - 1.0
        };
        for &(name, unit, clock, _, norm) in PER_LAYER {
            let get = |k: &str| dev.layer.get(k).copied().unwrap_or(0.0);
            let div = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
            let v = match norm {
                PerOp => get(name) / p as f64,
                PerReq => div(get(name), dev.completed as f64),
                HostPerOp => host_layer.get(name).copied().unwrap_or(0.0) / n,
                Div(a, b) => div(get(a), get(b)),
                Share(a, b) => div(get(a), get(a) + get(b)),
                OneMinus(a, b) => {
                    if get(b) == 0.0 {
                        0.0
                    } else {
                        1.0 - get(a) / get(b)
                    }
                }
                P50 => {
                    let s: Vec<f64> = dev
                        .samples
                        .iter()
                        .filter(|(k, _)| *k == name)
                        .map(|(_, v)| *v)
                        .collect();
                    if s.is_empty() {
                        0.0
                    } else {
                        median(&s)
                    }
                }
                Overhead => overhead,
            };
            metrics.push((name, v, unit, clock));
        }
    } else {
        let host = sorted(host_plain.clone());
        let lat = sorted(dev.dev_lat.clone());
        let pct = |s: &[f64], q: f64| {
            if s.is_empty() {
                0.0
            } else {
                nearest_rank(s, q)
            }
        };
        let host_total: f64 = host.iter().sum();
        let div = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let goodput = div(dev.slo_ok as f64, dev.makespan);
        let values = [
            median(&setups),
            pct(&host, 0.5) * 1e3,
            pct(&host, 0.9) * 1e3,
            div(completed_all as f64, host_total),
            pct(&lat, 0.5) * 1e3,
            pct(&lat, 0.9) * 1e3,
            pct(&lat, 0.99) * 1e3,
            div(dev.completed as f64, dev.makespan),
            div(dev.requests as f64 - dev.not_ok as f64, dev.requests as f64),
            div(dev.slo_ok as f64, dev.requests as f64),
            sweep.unwrap_or(goodput),
            div(
                dev.completed as f64 - dev.degraded as f64,
                dev.completed as f64,
            ),
            peak_rss_mb(),
        ];
        for (&(name, unit, clock, _), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, v, unit, clock));
        }
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut manifest: Vec<(&'static str, String)> = vec![
        ("workload", Json::str(W::NAME)),
        ("seed", opts.seed.to_string()),
        ("seconds", Json::num(opts.seconds)),
        ("trace", opts.trace.to_string()),
        ("nproc", nproc.to_string()),
        (
            "host_pool_threads",
            rayon::current_num_threads().to_string(),
        ),
        ("setup_reps", setups.len().to_string()),
        ("dev_ops", p.to_string()),
        (
            "timed_ops",
            (host_plain.len() + host_traced.len()).to_string(),
        ),
        ("untraced_ops", host_plain.len().to_string()),
        ("traced_ops", host_traced.len().to_string()),
        (
            "host_samples_beyond_p90",
            (host_plain.len() - (host_plain.len() as f64 * 0.9).ceil() as usize).to_string(),
        ),
        ("dev_latency_samples", dev.dev_lat.len().to_string()),
        ("dev_requests", dev.requests.to_string()),
        ("full_qos_responses", full.to_string()),
        ("l1_misses", l1_misses.to_string()),
        (
            "degraded_l1_mean",
            Json::num(if dev.degraded == 0 {
                0.0
            } else {
                dev.degraded_l1 / dev.degraded as f64
            }),
        ),
    ];
    manifest.extend(W::manifest(&inputs));
    manifest.extend(notes);
    if opts.trace {
        let absent: Vec<(&str, String)> = W::ABSENT
            .iter()
            .map(|(k, why)| (*k, Json::str(why)))
            .collect();
        manifest.push(("absent", Json::obj(&absent)));
    }
    let clocks: Vec<String> = metrics
        .iter()
        .map(|(n, _, _, c)| format!("{}: {}", Json::str(n), Json::str(c)))
        .collect();
    manifest.push(("clocks", format!("{{{}}}", clocks.join(", "))));

    let traced = host_traced.len().max(1) as f64;
    Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        manifest,
        spans: span_acc
            .into_iter()
            .map(|(n, t, s)| (n, t / traced, s / traced))
            .collect(),
        errors,
        input_hash: W::input_hash(&inputs),
    }
}

impl Outcome {
    /// The last line of the command's output.
    pub fn result_json(&self) -> String {
        let metrics: Vec<(&str, String)> = self
            .metrics
            .iter()
            .map(|(n, v, u, _)| {
                (
                    *n,
                    Json::obj(&[("value", Json::num(*v)), ("unit", Json::str(u))]),
                )
            })
            .collect();
        Json::obj(&[
            ("correct", self.correct.to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", Json::obj(&metrics)),
        ])
    }

    /// Human-readable report printed before the result line.
    pub fn report(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("manifest {}\n", Json::obj(&self.manifest)));
        s.push_str(&format!(
            "{:<34} {:>16} {:<6} {}\n",
            "metric", "value", "unit", "clock"
        ));
        for (n, v, u, c) in &self.metrics {
            s.push_str(&format!("{n:<34} {v:>16.6} {u:<6} {c}\n"));
        }
        if !self.spans.is_empty() {
            s.push_str("spans (host ms per traced op): name total self\n");
            for (n, t, own) in &self.spans {
                s.push_str(&format!("span {n:<30} {t:>12.4} {own:>12.4}\n"));
            }
        }
        for e in &self.errors {
            s.push_str(&format!("CHECK FAILED: {e}\n"));
        }
        s
    }
}
