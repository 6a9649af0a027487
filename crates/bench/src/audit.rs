//! Flight-recorder artifact builder: serves the flaky-device overload
//! workload with the policy audit enabled and renders every explain/SLO
//! artifact the `reproduce explain` target ships. Deterministic byte
//! for byte — independent of worker count, host-pool width and wall
//! clock.

use gpu_sim::DeviceSpec;

use cusfft::observe;

/// Everything `reproduce explain` writes, plus the report it came from.
pub struct AuditArtifacts {
    /// The audited serve report (owns the flight recorder).
    pub report: cusfft::ServeReport,
    /// Full decision log, JSON event list.
    pub audit_log_json: String,
    /// Full decision log, aligned text.
    pub audit_log_txt: String,
    /// Fired burn-rate alerts plus SLO attainment, JSON.
    pub slo_json: String,
    /// Per-request decision chains (`explain`) for every submitted
    /// request, rendered as text.
    pub explain_txt: String,
}

/// Serves `batch` paced requests at 2x offered load on one flaky K20x
/// with the flight recorder on, and renders the artifacts.
pub fn audit_artifacts(
    log2_n: u32,
    k: usize,
    batch: usize,
    seed: u64,
    workers: usize,
) -> AuditArtifacts {
    let trace = crate::experiments::overload_trace(log2_n, k, batch, seed, 2.0);
    let policy = crate::experiments::overload_policy(batch);
    let engine = cusfft::ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        cusfft::ServeConfig {
            workers,
            cache_capacity: 8,
            faults: Some(gpu_sim::FaultConfig::uniform(seed, 0.01).with_sdc(0.01)),
            audit: true,
            ..cusfft::ServeConfig::default()
        },
    )
    .expect("serve config is valid");
    let report = engine.serve_overload(&trace, &policy);

    let audit = report
        .audit
        .as_deref()
        .expect("audited run carries a flight recorder");
    audit.validate().expect("audit log roots at admissions");

    let audit_log_json = audit.log.to_json();
    let audit_log_txt = audit.log.to_text();
    let slo_json = audit.slo.to_json();

    let mut explain_txt = String::new();
    for r in 0..trace.len() {
        let chain = cusfft::explain(&report, r).expect("every request has a decision chain");
        explain_txt.push_str(&chain.render_text());
        explain_txt.push('\n');
    }

    AuditArtifacts {
        report,
        audit_log_json,
        audit_log_txt,
        slo_json,
        explain_txt,
    }
}

/// Validated metrics side of the same run: the Prometheus exposition
/// (with `cause` labels) and the annotated Perfetto trace.
pub fn audit_exports(report: &cusfft::ServeReport) -> (String, String) {
    let registry = observe::metrics_registry(report);
    let trace_json = observe::chrome_trace_json(report);
    cusfft_telemetry::validate_chrome_trace(&trace_json).expect("annotated trace validates");
    (registry.render_prometheus(), trace_json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_are_deterministic_across_workers() {
        let a = audit_artifacts(10, 4, 8, 7, 1);
        let b = audit_artifacts(10, 4, 8, 7, 4);
        assert_eq!(a.audit_log_json, b.audit_log_json);
        assert_eq!(a.audit_log_txt, b.audit_log_txt);
        assert_eq!(a.slo_json, b.slo_json);
        assert_eq!(a.explain_txt, b.explain_txt);
    }

    #[test]
    fn exports_carry_cause_labels_and_annotations() {
        let a = audit_artifacts(10, 4, 8, 7, 2);
        let (prom, trace) = audit_exports(&a.report);
        assert!(
            prom.contains("cause=\""),
            "served_total carries cause labels"
        );
        assert!(trace.contains("policy decisions") || !trace.contains("breaker:"));
    }
}
