//! Span-tree contract for the telemetry layer — see DESIGN.md §11.
//!
//! Pinned contracts:
//!
//! 1. **Total coverage** — over a fault + overload serve run, the span
//!    tree covers every op of the merged timeline exactly once, every
//!    span has a resolvable parent, and children nest inside their
//!    parents ([`cusfft_telemetry::SpanTree::validate`]).
//! 2. **Annotated recovery sub-trees** — retried and hedged executions
//!    show up as attempt spans under their group, and short-circuited
//!    groups / rejected requests still get (zero-width) spans.
//! 3. **Determinism** — the span tree, the metrics exposition and the
//!    Chrome trace JSON are byte-identical across serve worker counts
//!    and host pool widths.
//!
//! The fault seed honours `CUSFFT_FAULT_SEED` so CI can sweep seeds.

use cusfft::{
    observe, OverloadConfig, ServeConfig, ServeEngine, ServeReport, ServeRequest, TimedRequest,
    Variant,
};
use cusfft_telemetry::{validate_chrome_trace, SpanKind, SpanTree};
use gpu_sim::{BreakerConfig, DeviceSpec, FaultConfig};
use signal::{MagnitudeModel, SparseSignal};

/// Fault seed under test; CI sweeps this via the environment.
fn fault_seed() -> u64 {
    std::env::var("CUSFFT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn request(n: usize, k: usize, variant: Variant, sig_seed: u64, seed: u64) -> ServeRequest {
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, sig_seed);
    ServeRequest::new(s.time, k, variant, seed)
}

/// The stress workload: mixed geometries arriving at t = 0 under a tight
/// queue (sheds guaranteed), unmeetable deadlines on some requests,
/// faults with SDC, a hair-trigger breaker and an aggressive hedge
/// budget — every timeline-op family the serving layer can produce.
fn stress_report(workers: usize) -> ServeReport {
    let geometries = [
        (1 << 10, 4, Variant::Optimized),
        (1 << 11, 8, Variant::Optimized),
        (1 << 10, 4, Variant::Baseline),
    ];
    let trace: Vec<TimedRequest> = (0..12)
        .map(|i| {
            let (n, k, variant) = geometries[i % geometries.len()];
            let r = request(n, k, variant, 2000 + i as u64, 17 * i as u64 + 3);
            let t = TimedRequest::at(r, 0.0);
            match i % 5 {
                3 => t.with_deadline(0.0),
                4 => t.with_deadline(1e6),
                _ => t,
            }
        })
        .collect();
    let policy = OverloadConfig {
        queue_capacity: 6,
        brownout_depth: 3,
        breaker: BreakerConfig {
            window: 2,
            trip_faults: 2,
            cooldown: 1,
        },
        epoch_groups: 2,
        hedge_percentile: 0.5,
        hedge_factor: 1.0,
    };
    let engine = ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        ServeConfig {
            workers,
            cache_capacity: 8,
            faults: Some(FaultConfig::uniform(fault_seed(), 0.02).with_sdc(0.05)),
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid");
    engine.serve_overload(&trace, &policy)
}

/// Runs `f` on a dedicated host pool of the given width.
fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build is infallible")
        .install(f)
}

fn count_kind(tree: &SpanTree, kind: SpanKind) -> usize {
    tree.spans.iter().filter(|s| s.kind == kind).count()
}

/// Contract 1: every timeline op is covered by exactly one leaf span and
/// the tree's structure validates.
#[test]
fn span_tree_covers_every_timeline_op() {
    let report = stress_report(2);
    assert!(
        !report.timeline.ops.is_empty(),
        "the stress workload must produce a timeline"
    );
    let tree = observe::span_tree(&report);
    tree.validate(report.timeline.ops.len())
        .expect("span tree must validate");
    let op_leaves = count_kind(&tree, SpanKind::Op) + count_kind(&tree, SpanKind::HostPhase);
    assert_eq!(
        op_leaves,
        report.timeline.ops.len(),
        "one leaf span per timeline op"
    );
}

/// Contract 2: faulty/retried/hedged/short-circuited executions appear
/// as annotated sub-trees, and rejected requests still get spans.
#[test]
fn recovery_and_rejection_are_visible_in_the_tree() {
    let report = stress_report(2);
    let tree = observe::span_tree(&report);

    // The workload guarantees overload activity to annotate.
    assert!(report.overload.shed > 0, "workload must shed");
    assert!(report.overload.deadline_exceeded > 0);
    assert!(report.faults.injected > 0, "workload must fault");

    // One request span per request, rejected ones included.
    assert_eq!(
        count_kind(&tree, SpanKind::Request),
        report.outcomes.len(),
        "every request gets a span, rejected arrivals included"
    );
    // One group span per plan group.
    assert_eq!(count_kind(&tree, SpanKind::Group), report.group_info.len());
    // Retries show up as attempt spans beyond the per-group batch span.
    if report.faults.retries > 0 {
        let attempts = count_kind(&tree, SpanKind::Attempt);
        let executed = report
            .group_info
            .iter()
            .filter(|g| !g.short_circuit)
            .count();
        assert!(
            attempts > executed,
            "retries must add attempt spans: {attempts} attempts over {executed} executed groups"
        );
        assert!(
            tree.spans.iter().any(|s| s.name.starts_with("retry")),
            "retry attempts are named"
        );
    }
    // Hedged groups are flagged on the group span.
    if report.overload.hedges > 0 {
        assert!(
            tree.spans
                .iter()
                .any(|s| s.attrs.iter().any(|(k, v)| k == "hedged" && v == "true")),
            "hedged groups carry the hedged attribute"
        );
    }
    // Rejected requests get zero-width spans with their outcome attached.
    let rejected: Vec<_> = tree
        .spans
        .iter()
        .filter(|s| {
            s.kind == SpanKind::Request
                && s.attrs
                    .iter()
                    .any(|(k, v)| k == "outcome" && (v == "shed" || v == "deadline_exceeded"))
        })
        .collect();
    assert_eq!(
        rejected.len() as u64,
        report.overload.shed + report.overload.deadline_exceeded
    );
    for s in rejected {
        assert_eq!(s.start, s.end, "rejected requests are zero-width instants");
    }
}

/// Contract 3: the tree and both exports are invariant under worker
/// count and host pool width.
#[test]
fn telemetry_is_invariant_across_workers_and_pools() {
    let base = with_pool(1, || stress_report(1));
    let base_tree = observe::span_tree(&base);
    let base_prom = observe::metrics_registry(&base).render_prometheus();
    let base_trace = observe::chrome_trace_json(&base);
    validate_chrome_trace(&base_trace).expect("emitted trace validates");
    for (workers, pool) in [(2, 1), (4, 1), (1, 8), (4, 8)] {
        let report = with_pool(pool, || stress_report(workers));
        assert_eq!(
            base_tree,
            observe::span_tree(&report),
            "span tree, workers={workers} pool={pool}"
        );
        assert_eq!(
            base_prom,
            observe::metrics_registry(&report).render_prometheus(),
            "metrics exposition, workers={workers} pool={pool}"
        );
        assert_eq!(
            base_trace,
            observe::chrome_trace_json(&report),
            "chrome trace, workers={workers} pool={pool}"
        );
    }
}

/// Backend attribution: every leaf span (device op or host phase) on
/// the merged timeline resolves to exactly one backend — a single
/// `backend` attribute whose value is a known backend label (control
/// ops attribute to `control`). Group spans name the backend too.
#[test]
fn every_leaf_span_resolves_to_exactly_one_backend() {
    let report = stress_report(2);
    let tree = observe::span_tree(&report);
    let known = ["control", "gpu_sim", "sfft_cpu", "dense_fft"];
    let mut leaves = 0usize;
    for s in &tree.spans {
        if s.kind != SpanKind::Op && s.kind != SpanKind::HostPhase {
            continue;
        }
        leaves += 1;
        let backends: Vec<_> = s
            .attrs
            .iter()
            .filter(|(k, _)| k == "backend")
            .map(|(_, v)| v.as_str())
            .collect();
        assert_eq!(
            backends.len(),
            1,
            "leaf span {:?} must carry exactly one backend attribute, got {backends:?}",
            s.name
        );
        assert!(
            known.contains(&backends[0]),
            "leaf span {:?} resolves to unknown backend {:?}",
            s.name,
            backends[0]
        );
    }
    assert_eq!(leaves, report.timeline.ops.len(), "one leaf per op");
    // The workload runs on the default backend, so device-attributed
    // work must show up as gpu_sim leaves.
    assert!(
        tree.spans.iter().any(|s| s
            .attrs
            .iter()
            .any(|(k, v)| k == "backend" && v == "gpu_sim")),
        "gpu_sim work must be attributed"
    );
    // Every group span names its backend.
    for s in tree.spans.iter().filter(|s| s.kind == SpanKind::Group) {
        assert!(
            s.attrs
                .iter()
                .any(|(k, v)| k == "backend" && known.contains(&v.as_str())),
            "group span {:?} must name its backend",
            s.name
        );
    }
}

/// The per-(path, QoS) latency summary is consistent: class counts sum
/// to the completed-request count and quantiles are ordered.
#[test]
fn path_latency_summary_is_consistent() {
    let report = stress_report(2);
    let completed = report
        .outcomes
        .iter()
        .filter(|o| o.response().is_some())
        .count() as u64;
    let total: u64 = report.path_latency.iter().map(|pl| pl.count).sum();
    assert_eq!(total, completed, "latency classes partition completions");
    for pl in &report.path_latency {
        assert!(pl.count > 0, "empty classes are dropped");
        assert_eq!(pl.hist.count, pl.count);
        assert!(pl.p50 <= pl.p95 && pl.p95 <= pl.p99, "quantiles ordered");
    }
}
