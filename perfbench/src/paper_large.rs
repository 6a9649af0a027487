//! `paper_large`: one `CusFft::execute_profiled` at the paper's Fig 5(a)
//! point (n = 2^20, k = 100, `Variant::Optimized`, Tesla K20x). The plan
//! is built once in set-up. Closed loop, one client.
//!
//! Each op takes a fresh permutation seed and the next signal of a ring of
//! pre-generated signals: a 2^20 signal is 16 MB, so the ring keeps memory
//! small while no two consecutive ops see the same signal.

use std::sync::Arc;
use std::time::Instant;

use cusfft::{nominal_service, CusFft, CusFftOutput, HostPhaseWalls, ServeQos, Variant};
use gpu_sim::{concurrency_profile, schedule, DeviceSpec, GpuDevice};
use sfft_cpu::SfftParams;
use signal::{MagnitudeModel, SparseSignal};

use crate::common::{spec_json, Json, Rng, Tracer};
use crate::layers::{judge, kernel_layers, rollup, step_of};
use crate::{add, OpOut, Scale, Workload};

pub struct Inputs {
    pub n: usize,
    pub k: usize,
    pub signals: Vec<SparseSignal>,
    /// Permutation seed of op `i` is `perm_seeds[i % len]`; the list is
    /// longer than any run, so every op gets a fresh one.
    pub perm_seeds: Vec<u64>,
    pub dev_ops: usize,
    /// Latency limit (dev seconds): 4 × the admission model's nominal
    /// service time.
    pub slo: f64,
}

pub struct PaperLarge {
    plan: CusFft,
    spec: DeviceSpec,
    pool_ops: (u64, u64),
    /// Host ms of `SfftParams::tuned` and `CusFft::new` in set-up.
    build_ms: (f64, f64),
}

fn spec() -> DeviceSpec {
    DeviceSpec::tesla_k20x()
}

impl Workload for PaperLarge {
    type Inputs = Inputs;
    type Raw = (CusFftOutput, HostPhaseWalls);
    const NAME: &'static str = "paper_large";
    const ABSENT: &'static [(&'static str, &'static str)] = &[
        (
            "plan_cache.",
            "the plan is built once, directly, with no cache",
        ),
        ("arena.", "execute_profiled keeps its arena private"),
        ("serve.", "no serving layer on this path"),
        ("overload.", "no admission control on this path"),
        ("audit.", "no audit log on this path"),
        ("fleet.", "one device"),
        ("journal.", "no journal on this path"),
    ];

    fn generate(scale: Scale, seed: u64) -> Inputs {
        let (log2_n, k, ring, dev_ops) = match scale {
            Scale::Full => (20, 100, 8, 100),
            Scale::Tiny => (14, 4, 2, 3),
        };
        let n = 1usize << log2_n;
        let mut rng = Rng::new(seed);
        let signals = (0..ring)
            .map(|_| SparseSignal::generate(n, k, MagnitudeModel::Unit, rng.next_u64()))
            .collect();
        let perm_seeds = (0..4096).map(|_| rng.next_u64()).collect();
        Inputs {
            n,
            k,
            signals,
            perm_seeds,
            dev_ops,
            slo: 4.0 * nominal_service(&spec(), n, k),
        }
    }

    fn input_hash(inputs: &Inputs) -> u64 {
        let mut h = inputs.perm_seeds[0];
        for s in &inputs.signals {
            for (f, _) in &s.coords {
                h = h.rotate_left(7) ^ *f as u64;
            }
        }
        h
    }

    fn dev_ops(inputs: &Inputs) -> usize {
        inputs.dev_ops
    }

    fn setup(inputs: &Inputs) -> Self {
        let t = Instant::now();
        let params = Arc::new(SfftParams::tuned(inputs.n, inputs.k));
        let params_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let plan = CusFft::new(Arc::new(GpuDevice::new(spec())), params, Variant::Optimized);
        let build_ms = (params_ms, t.elapsed().as_secs_f64() * 1e3);
        // The first op warms the plan's device state; it reuses the last
        // permutation seed, which no timed op reaches.
        let seed = *inputs.perm_seeds.last().expect("seeds are generated");
        let _ = plan.execute_profiled(&inputs.signals[0].time, seed);
        let dev = plan.device();
        let pool_ops = (dev.pool_alloc_ops(), dev.pool_release_ops());
        PaperLarge {
            plan,
            spec: spec(),
            pool_ops,
            build_ms,
        }
    }

    fn call(&mut self, inputs: &Inputs, i: usize, tr: &mut Tracer) -> Self::Raw {
        let signal = &inputs.signals[i % inputs.signals.len()];
        let seed = inputs.perm_seeds[i % (inputs.perm_seeds.len() - 1)];
        tr.span("pipeline.execute_profiled", |_| {
            self.plan.execute_profiled(&signal.time, seed)
        })
    }

    fn digest(&mut self, inputs: &Inputs, i: usize, raw: &Self::Raw, dev: bool) -> OpOut {
        let (out, _) = raw;
        let signal = &inputs.signals[i % inputs.signals.len()];
        let mut o = OpOut {
            requests: 1,
            ..OpOut::default()
        };
        judge(&mut o, &signal.coords, &out.recovered, ServeQos::Full);
        let device = self.plan.device();
        let pool_ops = (device.pool_alloc_ops(), device.pool_release_ops());
        let (alloc, release) = (pool_ops.0 - self.pool_ops.0, pool_ops.1 - self.pool_ops.1);
        self.pool_ops = pool_ops;
        if !dev {
            return o;
        }
        o.dev_lat.push(out.sim_time);
        o.makespan = out.sim_time;
        o.slo_ok = usize::from(out.sim_time <= inputs.slo);

        // Agreement: the benchmark's own per-step split of the launch
        // records equals `CusFftOutput::steps`, and the steps sum to
        // `StepBreakdown::total()`.
        let records = device.records();
        let s = &out.steps;
        let mut mine = [0.0f64; 8];
        let order = [
            "transfer",
            "perm_filter",
            "cufft",
            "cutoff",
            "locate",
            "reconstruct",
            "recovery",
            "other",
        ];
        for r in &records {
            let at = order
                .iter()
                .position(|x| *x == step_of(&r.name))
                .expect("known step");
            mine[at] += r.cost.total;
        }
        let theirs = [
            s.transfer,
            s.perm_filter,
            s.subsampled_fft,
            s.cutoff,
            s.locate,
            s.estimate,
            s.recovery,
            s.other,
        ];
        if mine != theirs {
            o.errors
                .push(format!("step split {mine:?} != StepBreakdown {theirs:?}"));
        }
        let sum: f64 = theirs.iter().sum();
        if (sum - s.total()).abs() > 1e-12 * s.total().abs() {
            o.errors.push(format!(
                "steps sum {sum} != StepBreakdown::total() {}",
                s.total()
            ));
        }

        let ops = device.ops();
        let sched = schedule(&ops, self.spec.max_concurrent_kernels);
        let conc = concurrency_profile(&ops, &sched);
        let l = &mut o.layer;
        kernel_layers(&rollup(&records), &self.spec, l);
        add(l, "device.makespan_ms", out.sim_time * 1e3);
        add(l, "gpu_sim.timeline.ops", ops.len() as f64);
        add(
            l,
            "gpu_sim.concurrency.max_streams",
            conc.max_concurrent_streams as f64,
        );
        add(
            l,
            "gpu_sim.concurrency.avg_streams",
            conc.avg_concurrent_streams,
        );
        add(l, "gpu_sim.pool.alloc_ops", alloc as f64);
        add(l, "gpu_sim.pool.release_ops", release as f64);
        o
    }

    fn estimate(
        &mut self,
        _inputs: &Inputs,
        _i: usize,
        raw: &Self::Raw,
        tr: &Tracer,
        o: &mut OpOut,
    ) {
        let (_, walls) = raw;
        let h = &mut o.host;
        add(h, "plan.params.host_ms", self.build_ms.0);
        add(h, "plan.build.host_ms", self.build_ms.1);
        add(h, "pipeline.prepare.host_ms", walls.prepare * 1e3);
        add(h, "pipeline.batched_fft.host_ms", walls.batched_fft * 1e3);
        add(h, "pipeline.finish.host_ms", walls.finish * 1e3);
        let call = tr.total("pipeline.execute_profiled");
        add(
            h,
            "pipeline.unattributed.host_ms",
            (call - walls.total()) * 1e3,
        );
        let ops = self.plan.device().ops();
        let t = Instant::now();
        let _ = std::hint::black_box(schedule(&ops, self.spec.max_concurrent_kernels));
        add(
            h,
            "gpu_sim.schedule.host_ms",
            t.elapsed().as_secs_f64() * 1e3,
        );
    }

    fn manifest(inputs: &Inputs) -> Vec<(&'static str, String)> {
        vec![
            ("loop", Json::str("closed, 1 client")),
            ("n", inputs.n.to_string()),
            ("k", inputs.k.to_string()),
            ("variant", Json::str("optimized")),
            ("device", spec_json(&spec())),
            ("signal_ring", inputs.signals.len().to_string()),
            ("slo_ms", Json::num(inputs.slo * 1e3)),
            (
                "dev_latency",
                Json::str("sim_time per transform, input already on the device"),
            ),
        ]
    }
}
