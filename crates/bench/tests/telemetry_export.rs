//! Exporter-determinism tests — see DESIGN.md §11.
//!
//! Pinned contracts:
//!
//! 1. **Golden snapshots** — the smoke-profile `trace.json` and
//!    `metrics.prom` written by `reproduce trace --smoke` match the
//!    checked-in goldens byte for byte (regenerate with
//!    `cargo run --release -p bench --bin reproduce -- trace --smoke`
//!    and copy from `results/` after an intentional format change).
//! 2. **Byte-identity** — all three artifacts are identical across
//!    serve worker counts {1, 2, 4} and host pool widths {1, 8}, at
//!    whatever fault seed `CUSFFT_FAULT_SEED` selects (CI sweeps 7).
//! 3. **Well-formedness** — the emitted trace passes the Trace Event
//!    schema validator and the hand-rolled summary JSON parses.

use bench::{telemetry_artifacts, TelemetryArtifacts};
use cusfft_telemetry::{parse_json, validate_chrome_trace};

/// The smoke profile of `reproduce trace --smoke` (seed there is the
/// binary's fixed 0xc0ffee, so the goldens are environment-independent).
fn smoke(workers: usize) -> TelemetryArtifacts {
    telemetry_artifacts(12, 8, 12, 0xc0ffee, workers)
}

/// Fault seed under test; CI sweeps this via the environment.
fn fault_seed() -> u64 {
    std::env::var("CUSFFT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Runs `f` on a dedicated host pool of the given width.
fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build is infallible")
        .install(f)
}

/// Contract 1: the smoke artifacts match the checked-in goldens.
#[test]
fn smoke_artifacts_match_goldens() {
    let art = smoke(4);
    assert_eq!(
        art.trace_json,
        include_str!("golden/trace.json"),
        "trace.json drifted from the golden — if intentional, regenerate \
         with `reproduce trace --smoke` and update crates/bench/tests/golden/"
    );
    assert_eq!(
        art.metrics_prom,
        include_str!("golden/metrics.prom"),
        "metrics.prom drifted from the golden — if intentional, regenerate \
         with `reproduce trace --smoke` and update crates/bench/tests/golden/"
    );
}

/// Contract 2: every artifact byte is invariant under worker count and
/// host pool width, at the environment-selected fault seed.
#[test]
fn exports_are_byte_identical_across_workers_and_pools() {
    let seed = fault_seed();
    let base = with_pool(1, || telemetry_artifacts(12, 8, 12, seed, 1));
    for (workers, pool) in [(2, 1), (4, 1), (1, 8), (2, 8), (4, 8)] {
        let art = with_pool(pool, || telemetry_artifacts(12, 8, 12, seed, workers));
        assert_eq!(
            base.trace_json, art.trace_json,
            "trace.json, workers={workers} pool={pool} seed={seed}"
        );
        assert_eq!(
            base.metrics_prom, art.metrics_prom,
            "metrics.prom, workers={workers} pool={pool} seed={seed}"
        );
        assert_eq!(
            base.summary_json, art.summary_json,
            "summary json, workers={workers} pool={pool} seed={seed}"
        );
    }
}

/// Contract 3: the artifacts are structurally sound — the trace passes
/// the schema validator, and both hand-rolled JSON documents parse.
#[test]
fn artifacts_are_well_formed() {
    let art = smoke(2);
    let summary = validate_chrome_trace(&art.trace_json).expect("trace event schema");
    assert!(summary.events > 0, "trace must carry events");
    assert!(summary.tracks >= 2, "device timeline plus span tracks");

    let parsed = parse_json(&art.summary_json).expect("summary is valid JSON");
    let obj = parsed.as_object().expect("summary is an object");
    for key in [
        "experiment",
        "profile",
        "trace",
        "spans",
        "outcomes",
        "path_latency",
        "metrics",
    ] {
        assert!(
            obj.iter().any(|(k, _)| k == key),
            "summary is missing key {key:?}"
        );
    }

    assert!(!art.metrics_prom.is_empty());
    assert!(
        art.metrics_prom
            .contains("# TYPE cusfft_requests_total counter"),
        "exposition carries typed families"
    );
    assert!(
        art.metrics_prom
            .contains("cusfft_request_latency_seconds_bucket"),
        "exposition carries latency histogram buckets"
    );
}
