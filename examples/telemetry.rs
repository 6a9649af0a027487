//! Telemetry: overload a flaky serving engine, then look at the run
//! through the three telemetry surfaces — the structured span tree, the
//! Prometheus-style metrics exposition, and a Chrome/Perfetto trace
//! written to `results/telemetry_example_trace.json` (open it at
//! ui.perfetto.dev or chrome://tracing).
//!
//! ```text
//! cargo run --release --example telemetry
//! ```

use cusfft::{
    observe, OverloadConfig, ServeConfig, ServeEngine, ServeRequest, TimedRequest, Variant,
};
use cusfft_telemetry::{validate_chrome_trace, SpanKind};
use gpu_sim::{BreakerConfig, DeviceSpec, FaultConfig};
use signal::{MagnitudeModel, SparseSignal};

fn main() {
    // The flaky-device + overload demo: a 2x-capacity burst over three
    // geometries on an engine that injects faults (including silent
    // corruptions), with a hedging budget and a touchy breaker — so the
    // trace shows sheds, brownout, retries, hedges and fault recovery.
    let geometries = [(1 << 12, 8), (1 << 13, 8), (1 << 12, 16)];
    let trace: Vec<TimedRequest> = (0..18)
        .map(|i| {
            let (n, k) = geometries[i % geometries.len()];
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 700 + i as u64);
            let req = ServeRequest::new(s.time, k, Variant::Optimized, 13 * i as u64 + 5);
            let t = TimedRequest::at(req, 0.0);
            if i % 6 == 5 {
                t.with_deadline(0.0) // cannot be met: service takes time
            } else {
                t
            }
        })
        .collect();
    let policy = OverloadConfig {
        queue_capacity: 9,
        brownout_depth: 4,
        breaker: BreakerConfig::default(),
        hedge_percentile: 0.5,
        hedge_factor: 1.25,
        ..OverloadConfig::default()
    };
    let engine = ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        ServeConfig {
            workers: 3,
            cache_capacity: 8,
            faults: Some(FaultConfig::uniform(42, 0.01).with_sdc(0.02)),
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid");
    let report = engine.serve_overload(&trace, &policy);
    println!(
        "served {} requests: {} admitted, {} shed, {} past-deadline, {} faults injected",
        trace.len(),
        report.overload.admitted,
        report.overload.shed,
        report.overload.deadline_exceeded,
        report.faults.injected,
    );

    // Surface 1: the span tree. Every op of the merged timeline hangs
    // off a request → group → attempt chain, so retries, hedges and
    // fallbacks are visible as sub-trees.
    let tree = observe::span_tree(&report);
    tree.validate(report.timeline.ops.len())
        .expect("span tree covers the timeline");
    let count = |k: SpanKind| tree.spans.iter().filter(|s| s.kind == k).count();
    println!(
        "\nspan tree: {} spans ({} requests, {} groups, {} attempts, {} op leaves)",
        tree.spans.len(),
        count(SpanKind::Request),
        count(SpanKind::Group),
        count(SpanKind::Attempt),
        count(SpanKind::Op) + count(SpanKind::HostPhase),
    );
    for span in tree.spans.iter().filter(|s| s.kind == SpanKind::Attempt) {
        println!(
            "  attempt {:>24}  [{:>9.3} ms, {:>9.3} ms]",
            span.name,
            span.start * 1e3,
            span.end * 1e3
        );
    }

    // Surface 2: the metrics registry, rendered as a Prometheus text
    // exposition (counters, gauges, and per-(path, QoS) latency
    // histograms).
    let registry = observe::metrics_registry(&report);
    println!("\nmetrics exposition:\n{}", registry.render_prometheus());

    // Surface 3: the Chrome/Perfetto trace. Streams are tracks; faults,
    // breaker decisions and hedge ops are instant events.
    let trace_json = observe::chrome_trace_json(&report);
    let summary = validate_chrome_trace(&trace_json).expect("trace conforms to the schema");
    let path = std::path::Path::new("results/telemetry_example_trace.json");
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(path, &trace_json).expect("write trace");
    println!(
        "wrote {} ({} events on {} tracks) — load it at ui.perfetto.dev",
        path.display(),
        summary.events,
        summary.tracks
    );
}
