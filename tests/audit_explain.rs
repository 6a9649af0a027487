//! Flight-recorder contract tests — see DESIGN.md §16.
//!
//! Pinned contracts:
//!
//! 1. **Artifact bit-identity** — on every serving path (batch,
//!    overload, fleet) the rendered audit artifacts (decision log JSON
//!    and text, SLO report, every request's explain chain, the derived
//!    cause vector) are byte-identical across serve worker counts
//!    {1, 2, 4}, host pool widths {1, 8} and fault seeds {1, 7} (each
//!    seed compared against itself, of course — seeds change *which*
//!    decisions happen, never whether they replay identically).
//! 2. **Complete chains** — every submitted request explains: the
//!    chain is non-empty, starts at an admission root, and ends at the
//!    request's terminal event. In particular every non-`Done` outcome
//!    carries the decision trail that rejected or failed it.
//! 3. **Golden explain** — the rendered chain of a small fixed run is
//!    pinned byte for byte.
//! 4. **Forest contract (property)** — over random batch shapes and
//!    fault seeds, parent links always form a forest whose roots are
//!    admission events, and explain chains stay root-anchored.

use cusfft::{
    explain, is_root_kind, DeviceFleet, FleetConfig, OverloadConfig, ServeConfig, ServeEngine,
    ServeReport, ServeRequest, TimedRequest, Variant,
};
use gpu_sim::{DeviceSpec, FaultConfig};
use proptest::prelude::*;
use signal::{MagnitudeModel, SparseSignal};

/// A mixed-geometry batch producing several plan groups.
fn batch(len: usize, seed: u64) -> Vec<ServeRequest> {
    let geometries = [
        (1 << 10, 4, Variant::Optimized),
        (1 << 11, 8, Variant::Optimized),
        (1 << 12, 8, Variant::Optimized),
        (1 << 11, 8, Variant::Baseline),
    ];
    (0..len)
        .map(|i| {
            let (n, k, variant) = geometries[i % geometries.len()];
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, seed * 100 + i as u64);
            ServeRequest::new(s.time, k, variant, 19 * i as u64 + 5)
        })
        .collect()
}

/// Runs `f` on a dedicated host pool of the given width.
fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build is infallible")
        .install(f)
}

/// Every byte the flight recorder renders for a report, concatenated —
/// equality of this string is equality of all shipped artifacts.
fn audit_fingerprint(report: &ServeReport) -> String {
    let audit = report.audit.as_deref().expect("audited run");
    audit.validate().expect("audit log roots at admissions");
    let mut out = String::new();
    out.push_str(&audit.log.to_json());
    out.push_str(&audit.log.to_text());
    out.push_str(&audit.slo.to_json());
    for cause in &audit.causes {
        out.push_str(cause);
        out.push('\n');
    }
    for r in 0..report.outcomes.len() {
        let chain = explain(report, r).expect("every request has a chain");
        out.push_str(&chain.render_text());
        out.push_str(&chain.render_json());
    }
    out
}

/// Asserts contract 2 on a report: complete root-to-terminal chains.
fn assert_complete_chains(report: &ServeReport, what: &str) {
    for (r, outcome) in report.outcomes.iter().enumerate() {
        let chain = explain(report, r)
            .unwrap_or_else(|| panic!("{what}: request {r} has no decision chain"));
        assert!(
            !chain.events.is_empty(),
            "{what}: request {r} chain is empty"
        );
        assert!(
            is_root_kind(&chain.events[0].name),
            "{what}: request {r} chain starts at {:?}, not an admission root",
            chain.events[0].name
        );
        assert!(
            chain.events.iter().any(|e| e.name == "terminal"),
            "{what}: request {r} chain has no terminal event"
        );
        if outcome.response().is_none() {
            assert!(
                chain.events.len() >= 2,
                "{what}: non-served request {r} has a bare chain"
            );
        }
    }
}

fn engine(workers: usize, seed: u64) -> ServeEngine {
    ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        ServeConfig {
            workers,
            cache_capacity: 8,
            faults: Some(FaultConfig::uniform(seed, 0.05).with_sdc(0.02)),
            audit: true,
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid")
}

fn lossy_fleet(workers: usize, seed: u64) -> DeviceFleet {
    let mut fleet = FleetConfig::heterogeneous();
    fleet.members[0].faults = Some(FaultConfig::uniform(seed, 0.2).with_device_loss(1.0));
    fleet.members[2].faults = Some(FaultConfig::uniform(seed.wrapping_add(1), 0.1));
    DeviceFleet::new(
        fleet,
        ServeConfig {
            workers,
            cache_capacity: 8,
            audit: true,
            ..ServeConfig::default()
        },
    )
    .expect("fleet config is valid")
}

/// An overload trace paced at 2x the admission model's drain estimate,
/// with a deadline on every fourth request.
fn overload_trace(reqs: Vec<ServeRequest>) -> Vec<TimedRequest> {
    let spec = DeviceSpec::tesla_k20x();
    let nominal = cusfft::nominal_service(&spec, 1 << 11, 8);
    let gap = nominal / 2.0;
    reqs.into_iter()
        .enumerate()
        .map(|(i, req)| {
            let t = TimedRequest::at(req, i as f64 * gap);
            if i % 4 == 3 {
                t.with_deadline(4.0 * nominal)
            } else {
                t
            }
        })
        .collect()
}

fn overload_policy(batch: usize) -> OverloadConfig {
    OverloadConfig {
        queue_capacity: (batch / 2).max(2),
        brownout_depth: (batch / 4).max(1),
        hedge_percentile: 0.5,
        hedge_factor: 1.25,
        ..OverloadConfig::default()
    }
}

/// Contract 1 across the full matrix, on all three serving paths.
#[test]
fn artifacts_bit_identical_across_workers_pools_and_seeds() {
    for seed in [1u64, 7] {
        let reqs = batch(10, seed);
        let trace = overload_trace(batch(10, seed));
        let policy = overload_policy(10);

        let batch_ref = with_pool(1, || audit_fingerprint(&engine(1, seed).serve_batch(&reqs)));
        let over_ref = with_pool(1, || {
            audit_fingerprint(&engine(1, seed).serve_overload(&trace, &policy))
        });
        let fleet_ref = with_pool(1, || audit_fingerprint(&lossy_fleet(1, seed).serve(&reqs)));

        for workers in [1usize, 2, 4] {
            for pool in [1usize, 8] {
                let what = format!("seed={seed} workers={workers} pool={pool}");
                let b = with_pool(pool, || {
                    audit_fingerprint(&engine(workers, seed).serve_batch(&reqs))
                });
                assert!(b == batch_ref, "{what}: batch artifacts diverged");
                let o = with_pool(pool, || {
                    audit_fingerprint(&engine(workers, seed).serve_overload(&trace, &policy))
                });
                assert!(o == over_ref, "{what}: overload artifacts diverged");
                let f = with_pool(pool, || {
                    audit_fingerprint(&lossy_fleet(workers, seed).serve(&reqs))
                });
                assert!(f == fleet_ref, "{what}: fleet artifacts diverged");
            }
        }
    }
}

/// Contract 2 on all three paths, both fault seeds.
#[test]
fn every_request_explains_root_to_terminal() {
    for seed in [1u64, 7] {
        let reqs = batch(12, seed);
        assert_complete_chains(&engine(2, seed).serve_batch(&reqs), "batch");
        let trace = overload_trace(batch(12, seed));
        let report = engine(2, seed).serve_overload(&trace, &overload_policy(12));
        assert!(
            report.outcomes.iter().any(|o| o.response().is_none()),
            "sanity: the 2x overload trace rejects or fails something"
        );
        assert_complete_chains(&report, "overload");
        assert_complete_chains(&lossy_fleet(2, seed).serve(&reqs), "fleet");
    }
}

/// Contract 3: the explain rendering of a tiny fault-free run is pinned
/// byte for byte. A fixed 2-request single-group batch: admission root,
/// placement, terminal — any change to event naming, ordering, ids or
/// the text renderer shows up here.
#[test]
fn golden_explain_snapshot() {
    let reqs = batch(2, 3);
    let engine = ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        ServeConfig {
            workers: 2,
            cache_capacity: 8,
            audit: true,
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid");
    let report = engine.serve_batch(&reqs);
    let rendered: String = (0..reqs.len())
        .map(|r| explain(&report, r).expect("chain").render_text())
        .collect();
    let golden = "\
request 0: 3 decision events
  #0 [0] batch_admitted requests=2 groups=2 <- root
  #1 [0] group_placed(gid=0) members=1 n=1024 k=4 qos=full backend=gpu_sim <- #0
  #3 [0] terminal(request=0, gid=0) outcome=done cause=done:gpu <- #1
request 1: 3 decision events
  #0 [0] batch_admitted requests=2 groups=2 <- root
  #2 [0] group_placed(gid=1) members=1 n=2048 k=8 qos=full backend=gpu_sim <- #0
  #4 [1] terminal(request=1, gid=1) outcome=done cause=done:gpu <- #2
";
    assert_eq!(
        rendered, golden,
        "explain text drifted from the golden snapshot"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract 4: for random batch shapes, fault rates and seeds, the
    /// audit log is a forest rooted at admission events and every chain
    /// explain returns is anchored at a root.
    #[test]
    fn audit_log_is_admission_rooted_forest(
        len in 1usize..10,
        seed in 0u64..500,
        rate in 0.0f64..0.3,
        workers in 1usize..4,
    ) {
        let reqs = batch(len, seed);
        let engine = ServeEngine::new(
            DeviceSpec::tesla_k20x(),
            ServeConfig {
                workers,
                cache_capacity: 4,
                faults: Some(FaultConfig::uniform(seed, rate).with_sdc(rate / 2.0)),
                audit: true,
                ..ServeConfig::default()
            },
        )
        .expect("serve config is valid");
        let report = engine.serve_batch(&reqs);
        let audit = report.audit.as_deref().expect("audited run");
        prop_assert!(audit.validate().is_ok(), "forest violated: {:?}", audit.validate());
        for r in 0..len {
            let chain = explain(&report, r).expect("chain exists");
            prop_assert!(!chain.events.is_empty());
            prop_assert!(is_root_kind(&chain.events[0].name));
        }
    }
}
