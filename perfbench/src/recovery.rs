//! `recovery`: one 16-request batch served through two failures. First on
//! the heterogeneous fleet (K20x/K40/K2000) with certain loss of the K20x
//! (`DeviceFleet::serve`); then on one K20x through `serve_journaled` with
//! a crash at the middle epoch, followed by `resume_from`. The journal is
//! written on the crashed run and read on resume. Closed loop.
//!
//! Fleet routing and failover and the journal are the layers no other
//! workload touches.

use std::time::Instant;

use cusfft::{
    CacheStats, CusFftError, DeviceFleet, FleetConfig, Journal, JournalOptions, JournalRun,
    ServeConfig, ServeEngine, ServeReport, Variant,
};
use gpu_sim::{schedule, CrashPlan, DeviceSpec, FaultConfig};

use crate::common::{quota, spec_json, Json, Rng, Tracer};
use crate::layers::{check_launches, gate_outcomes, report_layers, request_ends};
use crate::serve_mixed::{hash_batches, shapes, workers, Batch};
use crate::{add, OpOut, Scale, Workload};

/// Latency limit (dev ms) on a request's completion.
pub const SLO_MS: f64 = 30.0;

pub struct Inputs {
    pub batches: Vec<Batch>,
    /// Epoch the journaled run crashes in: the middle one (one plan group
    /// per epoch, and every batch holds every key).
    pub crash_epoch: u64,
    pub loss_seed: u64,
}

fn spec() -> DeviceSpec {
    DeviceSpec::tesla_k20x()
}

const EPOCH_GROUPS: usize = 1;

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: workers(),
        cache_capacity: 8,
        ..ServeConfig::default()
    }
}

pub struct Raw {
    fleet: ServeReport,
    crash: JournalRun,
    resume: Result<JournalRun, CusFftError>,
}

pub struct Recovery {
    fleet: DeviceFleet,
    engine: ServeEngine,
    caches: (CacheStats, CacheStats),
}

impl Recovery {
    fn op(&self, inputs: &Inputs, i: usize, tr: &mut Tracer) -> Raw {
        let at = i % inputs.batches.len();
        let reqs = &inputs.batches[at].requests;
        let fleet = tr.span("fleet.serve", |_| self.fleet.serve(reqs));
        let mut journal = Journal::new();
        let crash_opts = JournalOptions {
            epoch_groups: EPOCH_GROUPS,
            crash: CrashPlan::at_epoch(inputs.crash_epoch),
        };
        let crash = tr.span("journal.serve", |_| {
            self.engine.serve_journaled(reqs, &mut journal, &crash_opts)
        });
        let opts = JournalOptions {
            epoch_groups: EPOCH_GROUPS,
            crash: CrashPlan::never(),
        };
        let resume = tr.span("journal.resume", |_| {
            self.engine.resume_from(reqs, &mut journal, &opts)
        });
        Raw {
            fleet,
            crash,
            resume,
        }
    }
}

fn resumed(raw: &Raw) -> Option<&ServeReport> {
    match &raw.resume {
        Ok(JournalRun::Completed(r)) => Some(r),
        _ => None,
    }
}

impl Workload for Recovery {
    type Inputs = Inputs;
    type Raw = Raw;
    const NAME: &'static str = "recovery";
    const ABSENT: &'static [(&'static str, &'static str)] = &[
        ("pipeline.", "estimated on paper_large and serve_mixed only"),
        ("plan.", "estimated on paper_large and serve_mixed only"),
        ("plan_cache.miss_cost.", "estimated on serve_mixed only"),
        (
            "serve.batch.",
            "timed as fleet.serve, journal.serve and journal.resume",
        ),
        ("serve.exec_est.", "estimated on serve_mixed only"),
        ("serve.control_est.", "estimated on serve_mixed only"),
        ("serve.queue_wait.", "closed loop: no arrival times"),
        ("overload.", "no admission control"),
        ("audit.", "the audit log is off"),
    ];

    fn generate(scale: Scale, seed: u64) -> Inputs {
        use Variant::{Baseline as B, Optimized as O};
        let (shapes, batches, len) = match scale {
            Scale::Full => (
                shapes(&[(13, 2, O), (13, 4, O), (14, 4, O), (14, 8, O), (13, 2, B)]),
                12,
                16,
            ),
            Scale::Tiny => (shapes(&[(13, 2, O), (13, 4, B)]), 2, 8),
        };
        let mut rng = Rng::new(seed);
        let loss_seed = rng.next_u64();
        let mix = quota(&vec![1.0; shapes.len()], len);
        let batches = (0..batches)
            .map(|_| Batch::dealt(&mut rng, &shapes, &mix))
            .collect();
        let groups = mix.iter().filter(|&&c| c > 0).count();
        Inputs {
            batches,
            crash_epoch: (groups / EPOCH_GROUPS / 2) as u64,
            loss_seed,
        }
    }

    fn input_hash(inputs: &Inputs) -> u64 {
        hash_batches(&inputs.batches) ^ inputs.loss_seed
    }

    fn dev_ops(inputs: &Inputs) -> usize {
        inputs.batches.len()
    }

    fn setup(inputs: &Inputs) -> Self {
        let mut fleet = FleetConfig::heterogeneous();
        fleet.members[0].faults =
            Some(FaultConfig::uniform(inputs.loss_seed, 0.0).with_device_loss(1.0));
        let fleet = DeviceFleet::new(fleet, serve_config()).expect("fleet config is valid");
        let engine = ServeEngine::new(spec(), serve_config()).expect("serve config is valid");
        let mut w = Recovery {
            caches: (fleet.engine().cache().stats(), engine.cache().stats()),
            fleet,
            engine,
        };
        let _ = w.op(inputs, 0, &mut Tracer::new(false));
        w.caches = (w.fleet.engine().cache().stats(), w.engine.cache().stats());
        w
    }

    fn call(&mut self, inputs: &Inputs, i: usize, tr: &mut Tracer) -> Raw {
        self.op(inputs, i, tr)
    }

    fn digest(&mut self, inputs: &Inputs, i: usize, raw: &Raw, dev: bool) -> OpOut {
        let at = i % inputs.batches.len();
        let mut o = OpOut::default();
        let truth = &inputs.batches[at].truth;
        gate_outcomes(&raw.fleet, truth, &mut o);
        let Some(crash) = raw.crash.crash().copied() else {
            o.errors.push("the journaled run did not crash".into());
            return o;
        };
        let Some(resume) = resumed(raw) else {
            o.errors.push(format!(
                "resume did not complete: {:?}",
                raw.resume.as_ref().err()
            ));
            return o;
        };
        gate_outcomes(resume, truth, &mut o);
        let caches = (
            self.fleet.engine().cache().stats(),
            self.engine.cache().stats(),
        );
        let before = std::mem::replace(&mut self.caches, caches);
        if !dev {
            return o;
        }
        for r in [&raw.fleet, resume] {
            if let Err(e) = check_launches(r) {
                o.errors.push(e);
            }
        }
        // Fleet requests complete at their group's end; re-executed
        // requests after the crashed run's wasted makespan. Requests the
        // journal restored have no completion time in either report; they
        // were durable before the crash, so within L when the crashed run
        // was.
        let restored = resume.journal.map_or(0, |j| j.requests_recovered as usize);
        o.slo_ok += restored * usize::from(crash.wasted_makespan * 1e3 <= SLO_MS);
        for (ends, offset, r) in [
            (request_ends(&raw.fleet), 0.0, &raw.fleet),
            (request_ends(resume), crash.wasted_makespan, resume),
        ] {
            for (idx, end) in ends.into_iter().enumerate() {
                if let (Some(end), Some(_)) = (end, r.outcomes[idx].response()) {
                    o.dev_lat.push(offset + end);
                    o.slo_ok += usize::from((offset + end) * 1e3 <= SLO_MS);
                }
            }
        }
        o.makespan = raw.fleet.makespan + crash.wasted_makespan + resume.makespan;
        let l = &mut o.layer;
        report_layers(&raw.fleet, &spec(), l);
        report_layers(resume, &spec(), l);
        add(l, "device.makespan_ms", crash.wasted_makespan * 1e3);
        add(l, "journal.wasted.dev_ms", crash.wasted_makespan * 1e3);
        let busy: Vec<f64> = raw
            .fleet
            .devices
            .iter()
            .map(|d| d.busy)
            .filter(|b| *b > 0.0)
            .collect();
        if !busy.is_empty() {
            let mean = busy.iter().sum::<f64>() / busy.len() as f64;
            let max = busy.iter().copied().fold(0.0, f64::max);
            add(l, "fleet.lane_imbalance", max / mean);
        }
        for (now, was) in [(caches.0, before.0), (caches.1, before.1)] {
            add(l, "plan_cache.hits", (now.hits - was.hits) as f64);
            add(l, "plan_cache.misses", (now.misses - was.misses) as f64);
            add(
                l,
                "plan_cache.evictions",
                (now.evictions - was.evictions) as f64,
            );
        }
        o
    }

    fn estimate(&mut self, _inputs: &Inputs, _i: usize, raw: &Raw, _tr: &Tracer, o: &mut OpOut) {
        let t = Instant::now();
        for r in [Some(&raw.fleet), resumed(raw)].into_iter().flatten() {
            let _ = std::hint::black_box(schedule(&r.timeline.ops, spec().max_concurrent_kernels));
        }
        add(
            &mut o.host,
            "gpu_sim.schedule.host_ms",
            t.elapsed().as_secs_f64() * 1e3,
        );
    }

    fn manifest(inputs: &Inputs) -> Vec<(&'static str, String)> {
        let members: Vec<String> = FleetConfig::heterogeneous()
            .members
            .iter()
            .map(|m| spec_json(&m.spec))
            .collect();
        vec![
            ("loop", Json::str("closed, 1 client")),
            ("fleet_members", format!("[{}]", members.join(", "))),
            ("fleet_loss", Json::str("member 0 (K20x), device-loss rate 1.0")),
            ("journal_device", spec_json(&spec())),
            ("workers", workers().to_string()),
            ("cache_capacity", serve_config().cache_capacity.to_string()),
            ("batch", inputs.batches[0].requests.len().to_string()),
            ("distinct_batches", inputs.batches.len().to_string()),
            ("epoch_groups", EPOCH_GROUPS.to_string()),
            ("crash_epoch", inputs.crash_epoch.to_string()),
            ("slo_ms", Json::num(SLO_MS)),
            (
                "dev_latency",
                Json::str(
                    "fleet: group end on the merged timeline; journal: wasted makespan plus group end on resume (restored requests excluded)",
                ),
            ),
        ]
    }
}
