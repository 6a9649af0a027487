//! Metrics-cardinality guard — see DESIGN.md §16.
//!
//! The flight recorder adds a `cause` label to `cusfft_served_total`
//! and three audit/SLO families. Labels multiply series, and series
//! cost real money on real metric backends, so this test pins the
//! vocabulary closed:
//!
//! 1. every exported `cause` value comes from the fixed
//!    `derive_cause` vocabulary (a closed prefix set, bounded count);
//! 2. every `cusfft_audit_events_total{kind}` value is a known
//!    decision-event kind;
//! 3. the whole audited registry stays under a hard series budget;
//! 4. unaudited registries export no audit families and no `cause`
//!    label at all (the golden-gating contract).

use std::collections::BTreeSet;

use cusfft::{observe, ServeConfig, ServeEngine, ServeRequest, Variant};
use gpu_sim::{DeviceSpec, FaultConfig};
use signal::{MagnitudeModel, SparseSignal};

fn batch(len: usize, seed: u64) -> Vec<ServeRequest> {
    let geometries = [
        (1 << 10, 4, Variant::Optimized),
        (1 << 11, 8, Variant::Optimized),
        (1 << 12, 8, Variant::Baseline),
    ];
    (0..len)
        .map(|i| {
            let (n, k, variant) = geometries[i % geometries.len()];
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, seed * 100 + i as u64);
            ServeRequest::new(s.time, k, variant, 19 * i as u64 + 5)
        })
        .collect()
}

fn prometheus(audit: bool, seed: u64) -> String {
    let engine = ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        ServeConfig {
            workers: 2,
            cache_capacity: 8,
            faults: Some(FaultConfig::uniform(seed, 0.1).with_sdc(0.05)),
            audit,
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid");
    let report = engine.serve_batch(&batch(12, seed));
    observe::metrics_registry(&report).render_prometheus()
}

/// Series lines of the exposition: `name{labels} value` or `name value`.
fn series_lines(prom: &str) -> Vec<&str> {
    prom.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect()
}

/// All values of one label across the exposition.
fn label_values<'a>(prom: &'a str, label: &str) -> BTreeSet<&'a str> {
    let needle = format!("{label}=\"");
    let mut out = BTreeSet::new();
    for line in series_lines(prom) {
        let mut rest = line;
        while let Some(at) = rest.find(&needle) {
            let tail = &rest[at + needle.len()..];
            let end = tail.find('"').expect("label value closes");
            out.insert(&tail[..end]);
            rest = &tail[end..];
        }
    }
    out
}

const CAUSE_PREFIXES: [&str; 6] = [
    "done:",
    "degraded:",
    "failover:",
    "shed:",
    "rejected:",
    "failed:",
];

const EVENT_KINDS: [&str; 27] = [
    "batch_admitted",
    "admitted",
    "shed",
    "deadline_rejected",
    "invalid",
    "group_placed",
    "brownout",
    "breaker_transition",
    "breaker_probe",
    "short_circuit",
    "hedge_fired",
    "hedge_resolved",
    "evicted",
    "retry_attempt",
    "retry_failed",
    "cpu_fallback",
    "terminal",
    "router_placement",
    "device_loss",
    "failover",
    "drain",
    "drain_probe",
    "recover",
    "cpu_tier",
    "checkpoint",
    "resume",
    "recovered",
];

#[test]
fn cause_vocabulary_is_closed_and_bounded() {
    for seed in [1u64, 7, 42] {
        let prom = prometheus(true, seed);
        let causes = label_values(&prom, "cause");
        assert!(!causes.is_empty(), "audited export carries cause labels");
        for cause in &causes {
            assert!(
                CAUSE_PREFIXES.iter().any(|p| cause.starts_with(p)),
                "cause {cause:?} is outside the closed vocabulary"
            );
        }
        // The full cross product of the vocabulary is small by design;
        // a run can only ever use a subset of it.
        assert!(
            causes.len() <= 16,
            "{} distinct causes: {causes:?}",
            causes.len()
        );
    }
}

#[test]
fn audit_event_kinds_are_known() {
    let prom = prometheus(true, 7);
    for line in series_lines(&prom) {
        if !line.starts_with("cusfft_audit_events_total") {
            continue;
        }
        let kinds = label_values(line, "kind");
        for kind in kinds {
            assert!(
                EVENT_KINDS.contains(&kind),
                "unknown audit event kind {kind:?}"
            );
        }
    }
}

#[test]
fn audited_registry_stays_under_series_budget() {
    for seed in [1u64, 7, 42] {
        let prom = prometheus(true, seed);
        let n = series_lines(&prom).len();
        assert!(n <= 400, "audited registry exports {n} series (budget 400)");
    }
}

#[test]
fn unaudited_registry_has_no_audit_families_or_cause_label() {
    let prom = prometheus(false, 7);
    assert!(
        label_values(&prom, "cause").is_empty(),
        "cause leaked into unaudited export"
    );
    for family in [
        "cusfft_audit_events_total",
        "cusfft_slo_",
        "cusfft_slo_alerts_total",
    ] {
        assert!(
            !prom.contains(family),
            "{family} leaked into the unaudited export"
        );
    }
}
