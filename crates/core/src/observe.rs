//! `cusfft::observe` — adapts a [`ServeReport`] into the
//! `cusfft-telemetry` types: a span tree over the merged timeline, a
//! metrics registry, and Chrome/Perfetto trace JSON.
//!
//! Everything here is a pure function of the report, which is itself a
//! deterministic function of `(requests, config, policy)` — so the
//! exported bytes inherit the serving layer's determinism contract and
//! are pinned as golden snapshots in CI.

use cusfft_telemetry::{
    build_span_tree, chrome_trace_annotated, fmt_f64, GroupMeta, Registry, RequestMeta, SpanTree,
    TraceAnnotation,
};

use crate::serve::{RequestOutcome, ServeReport};
use crate::Variant;

/// Stable outcome label used as a telemetry dimension.
pub fn outcome_label(o: &RequestOutcome) -> &'static str {
    match o {
        RequestOutcome::Done(_) => "done",
        RequestOutcome::Failed { .. } => "failed",
        RequestOutcome::Shed { .. } => "shed",
        RequestOutcome::DeadlineExceeded { .. } => "deadline_exceeded",
    }
}

/// Stable variant label used as a telemetry dimension.
pub fn variant_label(v: Variant) -> &'static str {
    match v {
        Variant::Baseline => "baseline",
        Variant::Optimized => "optimized",
    }
}

/// Builds the hierarchical span tree for a serve call: root → control /
/// per-group attempt sub-trees → per-op leaves, plus annotated request
/// spans. Covers every op of the merged timeline exactly once (pinned by
/// `tests/telemetry_spans.rs`).
pub fn span_tree(report: &ServeReport) -> SpanTree {
    let groups: Vec<GroupMeta> = report
        .group_info
        .iter()
        .map(|g| {
            let mut attrs = vec![
                ("n".to_string(), g.key.n.to_string()),
                ("k".to_string(), g.key.k.to_string()),
                (
                    "variant".to_string(),
                    variant_label(g.key.variant).to_string(),
                ),
                ("qos".to_string(), g.key.qos.label().to_string()),
                ("backend".to_string(), g.key.backend.label().to_string()),
            ];
            if g.short_circuit {
                attrs.push(("short_circuit".to_string(), "true".to_string()));
            }
            if g.hedged {
                attrs.push(("hedged".to_string(), "true".to_string()));
            }
            // Fleet reports say which member executed the group
            // (`device` is always None outside the fleet path, so
            // non-fleet span trees are byte-identical to before).
            if let Some(m) = g.device {
                attrs.push(("device".to_string(), m.to_string()));
            }
            GroupMeta {
                gid: g.gid,
                label: format!(
                    "group {} (n={}, k={}, {}, {}, {})",
                    g.gid,
                    g.key.n,
                    g.key.k,
                    variant_label(g.key.variant),
                    g.key.qos.label(),
                    g.key.backend.label()
                ),
                members: g.indices.clone(),
                attrs,
            }
        })
        .collect();

    let mut gid_of_request: Vec<Option<usize>> = vec![None; report.outcomes.len()];
    for g in &report.group_info {
        for &idx in &g.indices {
            gid_of_request[idx] = Some(g.gid);
        }
    }

    let requests: Vec<RequestMeta> = report
        .outcomes
        .iter()
        .enumerate()
        .map(|(index, o)| RequestMeta {
            index,
            outcome: outcome_label(o).to_string(),
            path: o.response().map(|r| r.path.label().to_string()),
            qos: o.response().map(|r| r.qos.label().to_string()),
            arrival: report.arrivals.get(index).copied(),
            gid: gid_of_request[index],
        })
        .collect();

    build_span_tree(
        &report.timeline.ops,
        &report.timeline.sched,
        &groups,
        &requests,
    )
}

/// Builds the metrics registry for a serve call: request/served-path
/// outcomes, plan-cache counters, fault tallies by class, breaker
/// activity, overload admission counters, stream occupancy, and the
/// per-(path, QoS) latency histograms.
pub fn metrics_registry(report: &ServeReport) -> Registry {
    let mut r = Registry::new();

    // Fleet reports label served requests with the member that executed
    // them (`<id>/<spec>`, or `cpu` for CPU-tier groups). Non-fleet
    // reports have no devices and keep the legacy label set, so their
    // exports stay byte-identical.
    let device_of_request: Vec<Option<String>> = if report.devices.is_empty() {
        vec![None; report.outcomes.len()]
    } else {
        let mut by_request = vec![None; report.outcomes.len()];
        for g in &report.group_info {
            let label = match g.device {
                Some(m) => format!("{}/{}", m, report.devices[m].spec_name),
                None => "cpu".to_string(),
            };
            for &idx in &g.indices {
                by_request[idx] = Some(label.clone());
            }
        }
        by_request
    };

    // Request outcomes and served paths.
    for (idx, o) in report.outcomes.iter().enumerate() {
        r.counter_add(
            "cusfft_requests_total",
            "Requests by terminal outcome",
            &[("outcome", outcome_label(o))],
            1,
        );
        if let Some(resp) = o.response() {
            let help = "Completed requests by execution path, QoS tier and backend";
            let mut labels = vec![
                ("path", resp.path.label()),
                ("qos", resp.qos.label()),
                ("backend", resp.backend.label()),
            ];
            // Audited reports carry the derived terminal cause; gating
            // on presence keeps unaudited exports byte-identical.
            if let Some(audit) = report.audit.as_deref() {
                labels.push(("cause", audit.causes[idx].as_str()));
            }
            if let Some(device) = &device_of_request[idx] {
                labels.push(("device", device));
            }
            r.counter_add("cusfft_served_total", help, &labels, 1);
        }
    }

    // Fleet routing/failover counters, gated on the fleet path so
    // non-fleet registries are unchanged.
    if !report.devices.is_empty() {
        let fl = &report.fleet;
        let fleet_help = "Fleet routing and failure-lifecycle events";
        for (kind, value) in [
            ("routed_group", fl.routed_groups),
            ("failover", fl.failovers),
            ("device_loss", fl.device_losses),
            ("drain", fl.drains),
            ("drain_probe", fl.drain_probes),
            ("brownout_group", fl.brownout_groups),
            ("cpu_served_group", fl.cpu_served_groups),
            ("standby_acquire", fl.standby_acquires),
            ("standby_exhausted", fl.standby_exhausted),
        ] {
            r.counter_add(
                "cusfft_fleet_events_total",
                fleet_help,
                &[("kind", kind)],
                value,
            );
        }
        for d in &report.devices {
            let device = format!("{}/{}", d.id, d.spec_name);
            let labels = [("device", device.as_str())];
            r.counter_add(
                "cusfft_fleet_device_groups_total",
                "Groups executed per fleet member",
                &labels,
                d.groups,
            );
            r.counter_add(
                "cusfft_fleet_device_failovers_in_total",
                "Failover groups absorbed per fleet member",
                &labels,
                d.failovers_in,
            );
            r.counter_add(
                "cusfft_fleet_device_trips_total",
                "Breaker trips per fleet member",
                &labels,
                d.trips,
            );
            r.gauge_set(
                "cusfft_fleet_device_health",
                "Fault-severity health score per fleet member (1 = clean)",
                &labels,
                d.health,
            );
            r.gauge_set(
                "cusfft_fleet_device_busy_seconds",
                "Virtual-clock busy time per fleet member",
                &labels,
                d.busy,
            );
            r.gauge_set(
                "cusfft_fleet_device_lost",
                "Whether the member went dark this call",
                &labels,
                if d.lost { 1.0 } else { 0.0 },
            );
            r.gauge_set(
                "cusfft_fleet_device_drained",
                "Whether the member ended the call quarantined",
                &labels,
                if d.drained { 1.0 } else { 0.0 },
            );
        }
    }

    // Journal/recovery counters, gated on the journaled paths so
    // non-journal registries (and their goldens) are unchanged.
    if let Some(j) = &report.journal {
        let journal_help = "Request-journal write-ahead log and recovery events";
        for (kind, value) in [
            ("record_appended", j.records_appended),
            ("checkpoint", j.checkpoints),
            ("group_executed", j.groups_executed),
            ("group_recovered", j.groups_recovered),
            ("request_recovered", j.requests_recovered),
        ] {
            r.counter_add(
                "cusfft_journal_events_total",
                journal_help,
                &[("kind", kind)],
                value,
            );
        }
        r.gauge_set(
            "cusfft_journal_durable_bytes",
            "Durable journal size after the call",
            &[],
            j.durable_bytes as f64,
        );
    }

    // Flight-recorder and SLO series, gated on the audit report so
    // unaudited registries (and their goldens) are unchanged.
    if let Some(audit) = report.audit.as_deref() {
        let mut by_kind: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for e in &audit.log.events {
            *by_kind.entry(e.name.as_str()).or_insert(0) += 1;
        }
        for (kind, count) in by_kind {
            r.counter_add(
                "cusfft_audit_events_total",
                "Flight-recorder decision events by kind",
                &[("kind", kind)],
                count,
            );
        }
        r.gauge_set(
            "cusfft_slo_availability",
            "Fraction of terminated requests that produced a response",
            &[],
            audit.slo.availability,
        );
        r.gauge_set(
            "cusfft_slo_latency_attainment",
            "Fraction of responses meeting the latency objective",
            &[],
            audit.slo.latency_attainment,
        );
        for alert in &audit.slo.alerts {
            r.counter_add(
                "cusfft_slo_alerts_total",
                "Multi-window burn-rate alerts fired",
                &[("slo", &alert.slo), ("window", &alert.window)],
                1,
            );
        }
    }

    // Plan cache.
    let cache_help = "Plan cache counters";
    r.counter_add(
        "cusfft_plan_cache_hits_total",
        cache_help,
        &[],
        report.cache.hits,
    );
    r.counter_add(
        "cusfft_plan_cache_misses_total",
        cache_help,
        &[],
        report.cache.misses,
    );
    r.counter_add(
        "cusfft_plan_cache_evictions_total",
        cache_help,
        &[],
        report.cache.evictions,
    );
    r.gauge_set(
        "cusfft_plan_cache_entries",
        "Plans resident in the cache",
        &[],
        report.cache.len as f64,
    );

    // Faults by class, counted off the timeline's injected-fault ops.
    for op in &report.timeline.ops {
        if let Some(rest) = op.label.strip_prefix("fault:") {
            let class = rest.split(':').next().unwrap_or("unknown");
            r.counter_add(
                "cusfft_faults_injected_total",
                "Injected faults by class, from the merged timeline",
                &[("class", class)],
                1,
            );
        }
    }

    // Recovery tallies.
    let rec_help = "Fault-recovery actions";
    let f = &report.faults;
    r.counter_add(
        "cusfft_recovery_total",
        rec_help,
        &[("kind", "retry")],
        f.retries,
    );
    r.counter_add(
        "cusfft_recovery_total",
        rec_help,
        &[("kind", "eviction")],
        f.evictions,
    );
    r.counter_add(
        "cusfft_recovery_total",
        rec_help,
        &[("kind", "cpu_fallback")],
        f.cpu_fallbacks,
    );
    r.counter_add(
        "cusfft_recovery_total",
        rec_help,
        &[("kind", "worker_panic")],
        f.worker_panics,
    );
    r.counter_add(
        "cusfft_sdc_detected_total",
        "Silent corruptions caught by the residual check",
        &[],
        f.sdc_detected,
    );

    // Breaker.
    for tr in &report.breaker {
        r.counter_add(
            "cusfft_breaker_transitions_total",
            "Circuit-breaker state transitions",
            &[("from", tr.from.label()), ("to", tr.to.label())],
            1,
        );
    }
    let ov = &report.overload;
    r.counter_add(
        "cusfft_breaker_trips_total",
        "Times the breaker tripped open",
        &[],
        ov.breaker_trips,
    );
    r.counter_add(
        "cusfft_breaker_probes_total",
        "HalfOpen probe groups admitted",
        &[],
        ov.breaker_probes,
    );
    r.counter_add(
        "cusfft_breaker_short_circuits_total",
        "Requests short-circuited past the device",
        &[],
        ov.breaker_short_circuits,
    );

    // Overload admission.
    let adm_help = "Admission decisions";
    r.counter_add(
        "cusfft_admission_total",
        adm_help,
        &[("decision", "admitted")],
        ov.admitted,
    );
    r.counter_add(
        "cusfft_admission_total",
        adm_help,
        &[("decision", "shed")],
        ov.shed,
    );
    r.counter_add(
        "cusfft_admission_total",
        adm_help,
        &[("decision", "deadline_exceeded")],
        ov.deadline_exceeded,
    );
    r.counter_add(
        "cusfft_degraded_total",
        "Requests served at brownout QoS",
        &[],
        ov.degraded,
    );
    r.counter_add(
        "cusfft_hedges_total",
        "Straggler hedges launched",
        &[],
        ov.hedges,
    );
    r.counter_add(
        "cusfft_hedge_wins_total",
        "Hedged duplicates that beat their primary",
        &[],
        ov.hedge_wins,
    );
    r.gauge_set(
        "cusfft_queue_depth_peak",
        "Highest predicted queue depth at any arrival",
        &[],
        ov.peak_queue_depth as f64,
    );

    // Timeline shape.
    r.gauge_set(
        "cusfft_makespan_seconds",
        "Simulated makespan of the merged timeline",
        &[],
        report.makespan,
    );
    r.gauge_set(
        "cusfft_throughput_rps",
        "Completed requests per simulated second",
        &[],
        report.throughput,
    );
    r.gauge_set(
        "cusfft_groups",
        "Plan-key groups the call split into",
        &[],
        report.groups as f64,
    );
    r.gauge_set(
        "cusfft_streams",
        "Streams in the merged timeline",
        &[],
        report.concurrency.per_stream.len() as f64,
    );
    r.gauge_set(
        "cusfft_max_concurrent_streams",
        "Maximum simultaneously occupied streams",
        &[],
        report.concurrency.max_concurrent_streams as f64,
    );
    r.gauge_set(
        "cusfft_avg_concurrent_streams",
        "Time-averaged occupied streams",
        &[],
        report.concurrency.avg_concurrent_streams,
    );
    for s in &report.concurrency.per_stream {
        let id = s.stream.0.to_string();
        r.gauge_set(
            "cusfft_stream_busy_seconds",
            "Per-stream busy time",
            &[("stream", &id)],
            s.busy,
        );
        r.gauge_set(
            "cusfft_stream_utilisation",
            "Per-stream busy fraction of the makespan",
            &[("stream", &id)],
            s.utilisation,
        );
    }

    // Per-kernel modeled execution totals.
    for kr in &report.kernels {
        r.counter_add(
            "cusfft_kernel_launches_total",
            "Kernel/transfer launches by name",
            &[("kernel", &kr.name)],
            kr.launches,
        );
        r.gauge_set(
            "cusfft_kernel_transactions_total",
            "Summed modeled DRAM transactions by kernel",
            &[("kernel", &kr.name)],
            kr.transactions,
        );
        r.gauge_set(
            "cusfft_kernel_dram_bytes_total",
            "Summed modeled DRAM bytes by kernel",
            &[("kernel", &kr.name)],
            kr.dram_bytes,
        );
    }

    // Device memory-pool and arena traffic. In steady state the alloc
    // counter stays at each group's warmup cost; per-request traffic is
    // pure reuse.
    let pool_help = "Tracked MemPool operations";
    r.counter_add(
        "cusfft_pool_ops_total",
        pool_help,
        &[("op", "alloc")],
        report.pool.alloc_ops,
    );
    r.counter_add(
        "cusfft_pool_ops_total",
        pool_help,
        &[("op", "release")],
        report.pool.release_ops,
    );
    let arena_help = "Arena buffer acquisitions by result";
    r.counter_add(
        "cusfft_pool_requests_total",
        arena_help,
        &[("result", "hit")],
        report.pool.reuse_hits,
    );
    r.counter_add(
        "cusfft_pool_requests_total",
        arena_help,
        &[("result", "miss")],
        report.pool.fresh_misses,
    );

    // Latency histograms per (path, QoS).
    for pl in &report.path_latency {
        r.observe_hist(
            "cusfft_request_latency_seconds",
            "Simulated request latency by path and QoS tier",
            &[("path", pl.path.label()), ("qos", pl.qos.label())],
            &pl.hist,
        );
    }

    r
}

/// Renders the Chrome/Perfetto Trace Event JSON for a serve call (see
/// [`cusfft_telemetry::chrome`] for the track layout). Audited reports
/// gain a "policy decisions" process carrying breaker transitions and
/// SLO burn-rate alerts as instant events; unaudited output is
/// byte-identical to before.
pub fn chrome_trace_json(report: &ServeReport) -> String {
    let tree = span_tree(report);
    let notes = report
        .audit
        .as_deref()
        .map(trace_annotations)
        .unwrap_or_default();
    chrome_trace_annotated(&report.timeline.ops, &report.timeline.sched, &tree, &notes)
}

fn trace_annotations(audit: &crate::audit::AuditReport) -> Vec<TraceAnnotation> {
    let mut notes = Vec::new();
    for e in &audit.log.events {
        if e.name != "breaker_transition" {
            continue;
        }
        let attr = |key: &str| {
            e.attrs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .unwrap_or("?")
        };
        notes.push(TraceAnnotation {
            ts: e.ts,
            name: format!("breaker:{}->{}", attr("from"), attr("to")),
            cat: "breaker".into(),
            args: e.attrs.clone(),
        });
    }
    for alert in &audit.slo.alerts {
        notes.push(TraceAnnotation {
            ts: alert.ts,
            name: format!("slo_alert:{}", alert.slo),
            cat: "slo".into(),
            args: vec![
                ("slo".into(), alert.slo.clone()),
                ("window".into(), alert.window.clone()),
                ("long_burn".into(), fmt_f64(alert.long_burn)),
                ("short_burn".into(), fmt_f64(alert.short_burn)),
                ("threshold".into(), fmt_f64(alert.threshold)),
            ],
        });
    }
    notes
}
