//! Per-layer sums read from data the library already returns:
//! `ServeReport` sections and per-kernel rollups. Kernel names are split
//! into the paper's pipeline steps by the prefixes `cusfft::StepBreakdown`
//! uses.

use cusfft::{KernelRollup, RequestOutcome, ServePath, ServeQos, ServeReport};
use cusfft_telemetry::{decode_tag, OpAttribution};
use fft::cplx::Cplx;
use gpu_sim::{DeviceSpec, LaunchRecord};

use crate::common::{gate, Miss, MIN_RECALL};
use crate::{add, Layer, OpOut};

/// The pipeline step a kernel or transfer name belongs to.
pub fn step_of(name: &str) -> &'static str {
    let starts = |ps: &[&str]| ps.iter().any(|p| name.starts_with(p));
    if starts(&["htod", "dtoh"]) {
        "transfer"
    } else if starts(&["perm_filter", "remap", "exec", "bucket_reduce"]) {
        "perm_filter"
    } else if starts(&["cufft_batched"]) {
        "cufft"
    } else if starts(&["magnitude", "cutoff", "noise_floor"]) {
        "cutoff"
    } else if starts(&["locate"]) {
        "locate"
    } else if starts(&["reconstruct"]) {
        "reconstruct"
    } else if starts(&[
        "fault:",
        "breaker:",
        "shed:",
        "retry_backoff",
        "cpu_fallback",
        "hedge",
    ]) {
        "recovery"
    } else {
        "other"
    }
}

/// Rolls raw launch records up by name (transfer byte suffixes dropped),
/// the same shape as `ServeReport::kernels`.
pub fn rollup(records: &[LaunchRecord]) -> Vec<KernelRollup> {
    let mut out: Vec<KernelRollup> = Vec::new();
    for r in records {
        let name = r.name.split(" (").next().unwrap_or(&r.name);
        let i = match out.iter().position(|k| k.name == name) {
            Some(i) => i,
            None => {
                out.push(KernelRollup {
                    name: name.to_string(),
                    launches: 0,
                    time: 0.0,
                    transactions: 0.0,
                    dram_bytes: 0.0,
                });
                out.len() - 1
            }
        };
        let k = &mut out[i];
        k.launches += 1;
        k.time += r.cost.total;
        k.transactions += r.stats.transactions;
        k.dram_bytes += r.stats.dram_bytes;
    }
    out
}

/// Per-step device time, modeled DRAM transactions and bytes, and PCIe
/// bytes. Transfer bytes are not kept by the rollups, so they are
/// recovered by inverting the cost model's `latency + bytes / bandwidth`
/// with `spec`'s PCIe figures (a model value, not a measurement).
pub fn kernel_layers(kernels: &[KernelRollup], spec: &DeviceSpec, l: &mut Layer) {
    for k in kernels {
        let step = step_of(&k.name);
        let ms = k.time * 1e3;
        add(l, "device.serial_ms", ms);
        add(l, "kernel.txns_per_req", k.transactions);
        add(l, "kernel.dram_mb_per_req", k.dram_bytes / 1e6);
        match step {
            "perm_filter" => {
                add(l, "perm_filter.dev_ms", ms);
                add(l, "perm_filter.txns", k.transactions);
                add(l, "perm_filter.dram_mb", k.dram_bytes / 1e6);
            }
            "cufft" => {
                add(l, "cufft.dev_ms", ms);
                add(l, "cufft.launches_per_req", k.launches as f64);
            }
            "transfer" => {
                add(l, "transfer.dev_ms", ms);
                let latency = k.launches as f64 * spec.pcie_latency_us * 1e-6;
                add(
                    l,
                    "transfer.mb",
                    (k.time - latency).max(0.0) * spec.pcie_bandwidth / 1e6,
                );
            }
            "cutoff" | "locate" | "reconstruct" | "recovery" => {
                add(l, &format!("{step}.dev_ms"), ms);
            }
            _ => {}
        }
    }
}

/// Sums every tally a serve report carries (timeline, concurrency, pool,
/// faults, overload, audit, fleet and journal sections).
pub fn report_layers(r: &ServeReport, spec: &DeviceSpec, l: &mut Layer) {
    kernel_layers(&r.kernels, spec, l);
    add(l, "device.makespan_ms", r.makespan * 1e3);
    add(l, "gpu_sim.timeline.ops", r.timeline.ops.len() as f64);
    add(
        l,
        "gpu_sim.concurrency.max_streams",
        r.concurrency.max_concurrent_streams as f64,
    );
    add(
        l,
        "gpu_sim.concurrency.avg_streams",
        r.concurrency.avg_concurrent_streams,
    );
    add(l, "gpu_sim.pool.alloc_ops", r.pool.alloc_ops as f64);
    add(l, "gpu_sim.pool.release_ops", r.pool.release_ops as f64);
    add(l, "arena.reuse_hits", r.pool.reuse_hits as f64);
    add(l, "arena.fresh_misses", r.pool.fresh_misses as f64);
    add(l, "serve.groups", r.groups as f64);
    add(l, "serve.requests", r.outcomes.len() as f64);
    let f = &r.faults;
    add(l, "serve.faults.injected", f.injected as f64);
    add(l, "serve.retries", f.retries as f64);
    add(l, "serve.evictions", f.evictions as f64);
    add(l, "serve.cpu_fallbacks", f.cpu_fallbacks as f64);
    add(l, "serve.failed", f.failed as f64);
    add(l, "serve.sdc_detected", f.sdc_detected as f64);
    let retry_done = r
        .responses()
        .filter(|x| x.path == ServePath::GpuRetry)
        .count();
    add(l, "serve.retry_completions", retry_done as f64);
    let o = &r.overload;
    for (k, v) in [
        ("overload.admitted", o.admitted),
        ("overload.shed", o.shed),
        ("overload.deadline_rejected", o.deadline_exceeded),
        ("overload.peak_queue_depth", o.peak_queue_depth),
        ("overload.degraded", o.degraded),
        ("overload.hedges", o.hedges),
        ("overload.hedge_wins", o.hedge_wins),
        ("overload.breaker.trips", o.breaker_trips),
        ("overload.breaker.short_circuits", o.breaker_short_circuits),
        ("overload.breaker.probes", o.breaker_probes),
    ] {
        add(l, k, v as f64);
    }
    if let Some(a) = &r.audit {
        add(l, "audit.events", a.log.events.len() as f64);
        add(l, "audit.requests", r.outcomes.len() as f64);
        add(l, "audit.slo_alerts", a.slo.alerts.len() as f64);
    }
    let fl = &r.fleet;
    for (k, v) in [
        ("fleet.routed_groups", fl.routed_groups),
        ("fleet.failovers", fl.failovers),
        ("fleet.device_losses", fl.device_losses),
        ("fleet.standby_acquires", fl.standby_acquires),
        ("fleet.cpu_served_groups", fl.cpu_served_groups),
        ("fleet.brownout_groups", fl.brownout_groups),
    ] {
        add(l, k, v as f64);
    }
    if let Some(j) = &r.journal {
        add(l, "journal.records", j.records_appended as f64);
        add(l, "journal.checkpoints", j.checkpoints as f64);
        add(l, "journal.durable_kb", j.durable_bytes as f64 / 1024.0);
        add(l, "journal.groups_recovered", j.groups_recovered as f64);
        add(l, "journal.groups_reexecuted", j.groups_executed as f64);
    }
}

/// Gates one returned spectrum and counts it into `out`. Every response
/// counts as completed; a gate miss also counts as not ok. An L1 miss is
/// tallied against `MAX_L1_MISS_SHARE`; a recall miss fails the run.
pub fn judge(out: &mut OpOut, truth: &[(usize, Cplx)], recovered: &[(usize, Cplx)], qos: ServeQos) {
    out.completed += 1;
    let degraded = qos == ServeQos::Degraded;
    out.degraded += usize::from(degraded);
    match gate(truth, recovered, qos) {
        Ok(l1) if degraded => out.degraded_l1 += l1,
        Ok(_) => {}
        Err(Miss::L1(_)) => {
            out.not_ok += 1;
            out.l1_misses += 1;
        }
        Err(Miss::Recall(r)) => {
            out.not_ok += 1;
            out.errors
                .push(format!("k={}: recall {r} <= {MIN_RECALL}", truth.len()));
        }
    }
}

/// Gates every outcome of a report against the ground truth of its
/// request; failed and refused requests count as not ok.
pub fn gate_outcomes(r: &ServeReport, truth: &[Vec<(usize, Cplx)>], out: &mut OpOut) {
    out.requests += r.outcomes.len();
    for (o, t) in r.outcomes.iter().zip(truth) {
        match o {
            RequestOutcome::Done(resp) => judge(out, t, &resp.recovered, resp.qos),
            _ => out.not_ok += 1,
        }
    }
}

/// Agreement check: the kernel launches the benchmark counts on the
/// report's merged timeline equal `ServeReport::kernels`, per name.
///
/// A hedged group leaves both its primary's and its duplicate's ops on the
/// timeline, while the rollup keeps only the winner's. The check passes
/// when some choice of one attempt per hedged group matches every name.
pub fn check_launches(r: &ServeReport) -> Result<(), String> {
    let hedged: Vec<usize> = r
        .group_info
        .iter()
        .filter(|g| g.hedged)
        .map(|g| g.gid)
        .collect();
    if hedged.len() > 12 {
        return Ok(());
    }
    // counts[0] = ops outside hedged groups; then (primary, duplicate)
    // per hedged group.
    let names: Vec<&str> = r.kernels.iter().map(|k| k.name.as_str()).collect();
    let mut counts = vec![vec![0u64; names.len()]; 1 + 2 * hedged.len()];
    for op in &r.timeline.ops {
        let Some(n) = names.iter().position(|x| *x == op.label) else {
            continue;
        };
        let (gid, dup) = match decode_tag(op.tag) {
            OpAttribution::Control => (None, false),
            OpAttribution::Batch { gid, hedged, .. }
            | OpAttribution::Retry { gid, hedged, .. }
            | OpAttribution::Fallback { gid, hedged, .. } => (Some(gid), hedged),
        };
        let slot = match gid.and_then(|g| hedged.iter().position(|h| *h == g)) {
            Some(h) => 1 + 2 * h + usize::from(dup),
            None => 0,
        };
        counts[slot][n] += 1;
    }
    let want: Vec<u64> = r.kernels.iter().map(|k| k.launches).collect();
    for mask in 0u32..(1 << hedged.len()) {
        let mut seen = counts[0].clone();
        for h in 0..hedged.len() {
            let slot = 1 + 2 * h + ((mask >> h) & 1) as usize;
            for (s, c) in seen.iter_mut().zip(&counts[slot]) {
                *s += c;
            }
        }
        if seen == want {
            return Ok(());
        }
    }
    let seen: Vec<u64> = (0..names.len())
        .map(|n| counts.iter().map(|c| c[n]).sum())
        .collect();
    let (n, _) = seen
        .iter()
        .zip(&want)
        .enumerate()
        .find(|(_, (s, w))| s != w)
        .unwrap_or((0, (&0, &0)));
    Err(format!(
        "kernel '{}': {} timeline ops vs {} launches in ServeReport::kernels",
        names.get(n).unwrap_or(&"?"),
        seen.get(n).unwrap_or(&0),
        want.get(n).unwrap_or(&0)
    ))
}

/// Device-clock completion of each request on the report's merged
/// timeline, read from `cusfft::observe::span_tree` (the end of the
/// request's span, which mirrors its group). `None` for requests whose
/// group executed nothing in this report.
pub fn request_ends(r: &ServeReport) -> Vec<Option<f64>> {
    let tree = cusfft::observe::span_tree(r);
    let mut ends = vec![None; r.outcomes.len()];
    for s in &tree.spans {
        if s.kind == cusfft_telemetry::SpanKind::Request {
            let idx: usize = s
                .name
                .strip_prefix("request ")
                .and_then(|x| x.parse().ok())
                .expect("request spans are named 'request <index>'");
            if s.end > 0.0 {
                ends[idx] = Some(s.end);
            }
        }
    }
    ends
}
