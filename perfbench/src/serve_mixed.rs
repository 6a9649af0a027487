//! `serve_mixed`: one `ServeEngine::serve_batch` of 24–48 small requests
//! (n = 2^13–2^15, k = 2–8, both variants) from one closed-loop client.
//! Nine plan keys compete for a four-entry plan cache with Zipf-skewed
//! popularity, so the hit ratio lies strictly between 0 and 1 and misses
//! rebuild plans. Per-request kernels are cheap, so the control plane,
//! cross-request batching, arena reuse, plan rebuilds and the timeline
//! scheduler take a large share of each op.

use std::sync::Arc;
use std::time::Instant;

use cusfft::{CacheStats, CusFft, ServeConfig, ServeEngine, ServeReport, ServeRequest, Variant};
use fft::cplx::Cplx;
use gpu_sim::{schedule, DeviceSpec, GpuDevice};
use sfft_cpu::SfftParams;
use signal::{MagnitudeModel, SparseSignal};

use crate::common::{evenly, quota, spec_json, Json, Rng, Tracer};
use crate::layers::{check_launches, gate_outcomes, report_layers, request_ends};
use crate::{add, OpOut, Scale, Workload};

/// A plan-key shape: `(n, k, variant)`.
pub type Shape = (usize, usize, Variant);

/// Plan-key shapes from `(log2 n, k, variant)`. The workloads keep
/// n >= 2^13 and k <= 8: at n = 2^11-2^12 or k = 16, 0.5-10% of
/// noiseless signals miss the gate's L1 bound (1000-signal probes).
pub fn shapes(list: &[(u32, usize, Variant)]) -> Vec<Shape> {
    list.iter().map(|&(l, k, v)| (1usize << l, k, v)).collect()
}

/// Generated requests and the ground truth each must recover.
#[derive(Default)]
pub struct Batch {
    pub requests: Vec<ServeRequest>,
    pub truth: Vec<Vec<(usize, Cplx)>>,
}

impl Batch {
    /// `counts[i]` requests of `shapes[i]`, in seeded order: unit-magnitude
    /// sparse signals with fresh permutation seeds.
    pub fn dealt(rng: &mut Rng, shapes: &[Shape], counts: &[usize]) -> Self {
        let mut picks: Vec<Shape> = shapes
            .iter()
            .zip(counts)
            .flat_map(|(&s, &c)| std::iter::repeat_n(s, c))
            .collect();
        rng.shuffle(&mut picks);
        let mut b = Batch::default();
        for (n, k, variant) in picks {
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, rng.next_u64());
            b.requests
                .push(ServeRequest::new(s.time, k, variant, rng.next_u64()));
            b.truth.push(s.coords);
        }
        b
    }
}

/// Fingerprint of generated batches.
pub fn hash_batches<'a>(batches: impl IntoIterator<Item = &'a Batch>) -> u64 {
    let mut h = 0u64;
    for b in batches {
        for (r, t) in b.requests.iter().zip(&b.truth) {
            h = h.rotate_left(5) ^ r.seed;
            for (f, _) in t {
                h = h.rotate_left(3) ^ *f as u64;
            }
        }
    }
    h
}

/// Serve workers: two, or fewer on a smaller host.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Latency limit (dev ms) on a request's completion within its batch.
pub const SLO_MS: f64 = 25.0;

pub struct Inputs {
    /// Plan-key shapes, most popular first, with their weights.
    pub shapes: Vec<Shape>,
    pub weights: Vec<f64>,
    pub cache_capacity: usize,
    pub batches: Vec<Batch>,
    pub batch_range: (usize, usize),
}

fn spec() -> DeviceSpec {
    DeviceSpec::tesla_k20x()
}

/// A plan built outside the serving engine, for the traced run's
/// estimates, with the host ms its parameters and build took.
struct DirectPlan {
    shape: Shape,
    plan: CusFft,
    params_ms: f64,
    build_ms: f64,
}

pub struct ServeMixed {
    engine: ServeEngine,
    cache: CacheStats,
    direct: Vec<DirectPlan>,
}

impl Workload for ServeMixed {
    type Inputs = Inputs;
    type Raw = ServeReport;
    const NAME: &'static str = "serve_mixed";
    const ABSENT: &'static [(&'static str, &'static str)] = &[
        ("serve.queue_wait.", "serve_batch has no arrival times"),
        ("overload.", "serve_batch has no admission control"),
        ("audit.", "the audit log is off"),
        ("fleet.", "one device"),
        ("journal.", "no journal"),
    ];

    fn generate(scale: Scale, seed: u64) -> Inputs {
        use Variant::{Baseline as B, Optimized as O};
        // Most popular first; the hot set mixes cheap and expensive plans.
        let (shapes, batches, batch_range, cache_capacity) = match scale {
            Scale::Full => (
                shapes(&[
                    (13, 2, O),
                    (13, 4, O),
                    (14, 4, O),
                    (13, 2, B),
                    (14, 2, O),
                    (14, 8, O),
                    (13, 4, B),
                    (15, 4, O),
                    (15, 8, O),
                ]),
                12,
                (24, 48),
                4,
            ),
            Scale::Tiny => (shapes(&[(13, 2, O), (13, 4, B), (13, 2, B)]), 2, (6, 10), 2),
        };
        let weights: Vec<f64> = (1..=shapes.len()).map(|r| (r as f64).powf(-1.2)).collect();
        let mut rng = Rng::new(seed);
        // Batch sizes spread evenly over the range, in seeded order.
        let mut sizes: Vec<usize> = evenly(batch_range.0 as f64, batch_range.1 as f64, batches)
            .into_iter()
            .map(|s| s.round() as usize)
            .collect();
        rng.shuffle(&mut sizes);
        let batches = sizes
            .into_iter()
            .map(|len| Batch::dealt(&mut rng, &shapes, &quota(&weights, len)))
            .collect();
        Inputs {
            shapes,
            weights,
            cache_capacity,
            batches,
            batch_range,
        }
    }

    fn input_hash(inputs: &Inputs) -> u64 {
        hash_batches(&inputs.batches)
    }

    fn dev_ops(inputs: &Inputs) -> usize {
        inputs.batches.len()
    }

    fn setup(inputs: &Inputs) -> Self {
        let engine = ServeEngine::new(
            spec(),
            ServeConfig {
                workers: workers(),
                cache_capacity: inputs.cache_capacity,
                ..ServeConfig::default()
            },
        )
        .expect("serve config is valid");
        let _ = engine.serve_batch(&inputs.batches[0].requests);
        ServeMixed {
            cache: engine.cache().stats(),
            engine,
            direct: Vec::new(),
        }
    }

    fn call(&mut self, inputs: &Inputs, i: usize, tr: &mut Tracer) -> ServeReport {
        let batch = &inputs.batches[i % inputs.batches.len()];
        tr.span("serve.batch", |_| self.engine.serve_batch(&batch.requests))
    }

    fn digest(&mut self, inputs: &Inputs, i: usize, r: &ServeReport, dev: bool) -> OpOut {
        let batch = &inputs.batches[i % inputs.batches.len()];
        let mut o = OpOut::default();
        gate_outcomes(r, &batch.truth, &mut o);
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
        for (idx, end) in request_ends(r).into_iter().enumerate() {
            if let (Some(end), Some(_)) = (end, r.outcomes[idx].response()) {
                o.dev_lat.push(end);
                o.slo_ok += usize::from(end * 1e3 <= SLO_MS);
            }
        }
        o.makespan = r.makespan;
        report_layers(r, &spec(), &mut o.layer);
        o
    }

    fn estimate(&mut self, inputs: &Inputs, i: usize, r: &ServeReport, tr: &Tracer, o: &mut OpOut) {
        let h = &mut o.host;
        let t = Instant::now();
        let _ = std::hint::black_box(schedule(&r.timeline.ops, spec().max_concurrent_kernels));
        let sched_ms = t.elapsed().as_secs_f64() * 1e3;
        add(h, "gpu_sim.schedule.host_ms", sched_ms);

        // Plan builds, timed once per key shape on first use.
        if self.direct.is_empty() {
            for &shape in &inputs.shapes {
                let t = Instant::now();
                let params = Arc::new(SfftParams::tuned(shape.0, shape.1));
                let params_ms = t.elapsed().as_secs_f64() * 1e3;
                let t = Instant::now();
                let plan = CusFft::new(Arc::new(GpuDevice::new(spec())), params, shape.2);
                let build_ms = t.elapsed().as_secs_f64() * 1e3;
                self.direct.push(DirectPlan {
                    shape,
                    plan,
                    params_ms,
                    build_ms,
                });
            }
        }
        let shapes = self.direct.len() as f64;
        let params_ms = self.direct.iter().map(|d| d.params_ms).sum::<f64>() / shapes;
        let build_ms = self.direct.iter().map(|d| d.build_ms).sum::<f64>() / shapes;
        add(h, "plan.params.host_ms", params_ms);
        add(h, "plan.build.host_ms", build_ms);
        let misses = o.layer.get("plan_cache.misses").copied().unwrap_or(0.0);
        add(
            h,
            "plan_cache.miss_cost.host_ms",
            misses * (params_ms + build_ms),
        );

        // The same requests executed directly, one `execute_profiled` each.
        let mut exec_ms = 0.0;
        for q in &inputs.batches[i % inputs.batches.len()].requests {
            let shape = (q.time.len(), q.k, q.variant);
            let d = self
                .direct
                .iter()
                .find(|d| d.shape == shape)
                .expect("every request has a generated shape");
            let t = Instant::now();
            let (_, walls) = d.plan.execute_profiled(&q.time, q.seed);
            let call = t.elapsed().as_secs_f64();
            exec_ms += call * 1e3;
            add(h, "pipeline.prepare.host_ms", walls.prepare * 1e3);
            add(h, "pipeline.batched_fft.host_ms", walls.batched_fft * 1e3);
            add(h, "pipeline.finish.host_ms", walls.finish * 1e3);
            add(
                h,
                "pipeline.unattributed.host_ms",
                (call - walls.total()) * 1e3,
            );
        }
        add(h, "serve.exec_est.host_ms", exec_ms);
        let batch_ms = tr.total("serve.batch") * 1e3;
        add(
            h,
            "serve.control_est.host_ms",
            batch_ms - exec_ms - sched_ms,
        );
    }

    fn manifest(inputs: &Inputs) -> Vec<(&'static str, String)> {
        let keys: Vec<String> = inputs
            .shapes
            .iter()
            .zip(&inputs.weights)
            .map(|(&(n, k, v), w)| {
                let v = cusfft::observe::variant_label(v);
                format!("[{n}, {k}, \"{v}\", {}]", Json::num(*w))
            })
            .collect();
        vec![
            ("loop", Json::str("closed, 1 client")),
            ("device", spec_json(&spec())),
            ("workers", workers().to_string()),
            ("cache_capacity", inputs.cache_capacity.to_string()),
            (
                "plan_keys_n_k_variant_weight",
                format!("[{}]", keys.join(", ")),
            ),
            ("batch_min", inputs.batch_range.0.to_string()),
            ("batch_max", inputs.batch_range.1.to_string()),
            ("distinct_batches", inputs.batches.len().to_string()),
            (
                "dev_latency",
                Json::str("group completion on the merged timeline (observe::span_tree)"),
            ),
            ("slo_ms", Json::num(SLO_MS)),
        ]
    }
}
