//! Telemetry artifact builder: runs the standard flaky-device overload
//! workload and renders the three `reproduce trace` artifacts — Chrome
//! Trace Event JSON, the Prometheus metrics exposition, and a JSON
//! summary. Every byte is a pure function of `(profile, seed)`: the
//! exporter determinism tests pin that the same artifacts come out for
//! any worker count and host-pool width.

use cusfft::observe;
use cusfft_telemetry::fmt_f64;
use gpu_sim::DeviceSpec;

/// The rendered artifacts plus the report they came from.
pub struct TelemetryArtifacts {
    /// The serve report the artifacts were derived from.
    pub report: cusfft::ServeReport,
    /// Chrome/Perfetto Trace Event JSON (`results/trace.json`).
    pub trace_json: String,
    /// Prometheus text exposition (`results/metrics.prom`).
    pub metrics_prom: String,
    /// Run summary (`results/BENCH_telemetry.json`).
    pub summary_json: String,
    /// Spans in the tree.
    pub spans: usize,
    /// Events in the emitted trace (validated).
    pub trace_events: usize,
    /// Distinct (pid, tid) tracks carrying timed events.
    pub trace_tracks: usize,
}

/// Runs the telemetry workload — the overload trace at 2.0× offered
/// load on flaky devices (so faults, retries, hedges and breaker
/// activity all show up) — and renders the artifacts. The span tree and
/// the emitted trace are validated before returning, so a schema
/// regression fails loudly here rather than in a viewer.
pub fn telemetry_artifacts(
    log2_n: u32,
    k: usize,
    batch: usize,
    seed: u64,
    workers: usize,
) -> TelemetryArtifacts {
    let trace = crate::experiments::overload_trace(log2_n, k, batch, seed, 2.0);
    let policy = crate::experiments::overload_policy(batch);
    let engine = cusfft::ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        cusfft::ServeConfig {
            workers,
            cache_capacity: 8,
            faults: Some(gpu_sim::FaultConfig::uniform(seed, 0.01).with_sdc(0.01)),
            ..cusfft::ServeConfig::default()
        },
    )
    .expect("serve config is valid");
    let report = engine.serve_overload(&trace, &policy);

    let tree = observe::span_tree(&report);
    tree.validate(report.timeline.ops.len())
        .expect("span tree covers every timeline op");
    let registry = observe::metrics_registry(&report);
    let trace_json = observe::chrome_trace_json(&report);
    let summary =
        cusfft_telemetry::validate_chrome_trace(&trace_json).expect("emitted trace validates");
    let metrics_prom = registry.render_prometheus();

    let mut done = 0u64;
    let mut failed = 0u64;
    for o in &report.outcomes {
        match o.response() {
            Some(_) => done += 1,
            None if o.is_rejected() => {}
            None => failed += 1,
        }
    }

    // Hand-rolled JSON (no serde_json in the vendored set).
    let mut json = String::from("{\n");
    json.push_str("  \"experiment\": \"telemetry\",\n");
    // `workers` is deliberately absent from the profile: the summary,
    // like the trace and the exposition, is byte-identical across worker
    // counts, and recording one would belie that.
    json.push_str(&format!(
        "  \"profile\": {{\"n\": {}, \"k\": {k}, \"batch\": {batch}, \"seed\": {seed}, \"offered_load\": 2.0}},\n",
        1u64 << log2_n
    ));
    json.push_str(&format!(
        "  \"trace\": {{\"events\": {}, \"tracks\": {}, \"bytes\": {}}},\n",
        summary.events,
        summary.tracks,
        trace_json.len()
    ));
    json.push_str(&format!(
        "  \"spans\": {{\"total\": {}, \"timeline_ops\": {}}},\n",
        tree.spans.len(),
        report.timeline.ops.len()
    ));
    json.push_str(&format!(
        "  \"outcomes\": {{\"done\": {done}, \"failed\": {failed}, \"shed\": {}, \"deadline_exceeded\": {}}},\n",
        report.overload.shed, report.overload.deadline_exceeded
    ));
    json.push_str("  \"path_latency\": [\n");
    for (i, pl) in report.path_latency.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"path\": \"{}\", \"qos\": \"{}\", \"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}{}\n",
            pl.path.label(),
            pl.qos.label(),
            pl.count,
            fmt_f64(pl.p50),
            fmt_f64(pl.p95),
            fmt_f64(pl.p99),
            if i + 1 < report.path_latency.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"metrics\": ");
    // The registry snapshot is itself a JSON object; embed it verbatim.
    json.push_str(registry.to_json().trim_end());
    json.push_str("\n}\n");

    TelemetryArtifacts {
        report,
        trace_json,
        metrics_prom,
        summary_json: json,
        spans: tree.spans.len(),
        trace_events: summary.events,
        trace_tracks: summary.tracks,
    }
}
