//! `reproduce` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! reproduce [target] [--full] [--k K] [--out DIR]
//!
//! targets:
//!   table1    GPU test-bench (paper Table I)
//!   table2    CPU test-bench (paper Table II)
//!   fig1      toy inner-loop walk-through (paper Figure 1)
//!   fig2a     per-step profile vs n          fig2b  per-step profile vs k
//!   fig5a     runtime vs n                   fig5b  runtime vs k
//!   fig5c     speedup over cuFFT             fig5d  speedup over FFTW
//!   fig5e     speedup over PsFFT             fig5f  L1 error vs k
//!   ablation  Section V design-choice ablations
//!   backends  cross-backend comparison: every registered execution
//!             backend vs the dense oracle (explicit-only)
//!   hostperf  host execution engine: wall time vs pool width
//!             (explicit-only — sweeps to n = 2^24; `--smoke` shrinks it)
//!   throughput  served throughput + modeled DRAM transactions, direct
//!             vs tiled remap on the allocation-free hot path
//!             (explicit-only — `--smoke` for the CI profile)
//!   fleet     heterogeneous device-fleet serving: topology comparison
//!             plus serving *through* a device loss vs the degraded
//!             single-device floor (explicit-only — `--smoke` for CI)
//!   chaos     deterministic chaos exploration: fault seed × rate grid ×
//!             host-crash epoch × fleet device loss, invariant suite +
//!             minimal-schedule shrinking and measured recovery
//!             overhead (explicit-only — `--smoke` for CI)
//!   explain   policy flight recorder: audited overload run, full
//!             decision log, per-request explain chains and SLO
//!             burn-rate alerts (explicit-only — `--smoke` for CI)
//!   check-regression  compare freshly-generated `BENCH_*.json` files
//!             in `--out` against the checked-in baselines in
//!             `results/baselines` with per-metric tolerances
//!             (explicit-only; exits non-zero on drift)
//!   all       everything above except the explicit-only targets (default)
//! ```
//!
//! An unknown target or flag prints the target list to stderr and exits
//! with status 2.
//!
//! The default ("quick") profile scales the paper's sweep down to sizes a
//! laptop-class host handles in minutes (`n` up to 2^20, `k = 100`);
//! `--full` extends to `n = 2^24` and `k = 1000` (the paper's sparsity).
//! CSVs land in `results/` next to the printed tables.

use std::path::PathBuf;

use bench::{fmt_ratio, fmt_secs, Table};
use gpu_sim::{CpuSpec, DeviceSpec};

#[derive(Debug)]
struct Opts {
    target: String,
    full: bool,
    smoke: bool,
    k: Option<usize>,
    out: PathBuf,
    baseline: PathBuf,
}

/// Every target `main` dispatches, in `--help` order. Any other target
/// is a usage error.
const TARGETS: [&str; 27] = [
    "table1",
    "table2",
    "fig1",
    "fig2a",
    "fig2b",
    "fig2gpu",
    "fig5a",
    "fig5b",
    "fig5c",
    "fig5d",
    "fig5e",
    "fig5f",
    "ablation",
    "noise",
    "devices",
    "comb",
    "serve",
    "backends",
    "hostperf",
    "overload",
    "trace",
    "throughput",
    "fleet",
    "chaos",
    "explain",
    "check-regression",
    "all",
];

fn usage() -> String {
    format!(
        "targets: {}\nflags:   --full (paper-scale sweep)  --smoke (tiny CI sizes)  --k K  --out DIR  --baseline DIR",
        TARGETS.join(" ")
    )
}

/// Parses the command line (without the program name). `Ok(None)` asks
/// for the usage text; an unknown target or flag, or a flag without its
/// value, is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Opts>, String> {
    let mut opts = Opts {
        target: "all".to_string(),
        full: false,
        smoke: false,
        k: None,
        out: PathBuf::from("results"),
        baseline: PathBuf::from("results/baselines"),
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--full" => opts.full = true,
            "--smoke" => opts.smoke = true,
            "--baseline" => opts.baseline = PathBuf::from(value("--baseline")?),
            "--k" => {
                let v = value("--k")?;
                let k = v
                    .parse()
                    .map_err(|_| format!("--k needs an integer, got `{v}`"))?;
                opts.k = Some(k);
            }
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => return Ok(None),
            t if t.starts_with('-') => return Err(format!("unknown flag `{t}`")),
            t if TARGETS.contains(&t) => opts.target = t.to_string(),
            t => return Err(format!("unknown target `{t}`")),
        }
    }
    Ok(Some(opts))
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{}", usage());
            return;
        }
        Err(e) => {
            eprintln!("reproduce: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let seed = 0xc0ffee;

    // Sweep profile: quick (default) vs full (paper-scale).
    let (n_lo, n_hi) = if opts.full {
        (18u32, 24u32)
    } else {
        (14u32, 20u32)
    };
    let k = opts.k.unwrap_or(if opts.full { 1000 } else { 100 });
    let fixed_n = if opts.full { 24 } else { 20 };
    let ks: Vec<usize> = if opts.full {
        vec![100, 200, 400, 600, 800, 1000]
    } else {
        vec![25, 50, 100, 200, 400]
    };

    let run = |name: &str| opts.target == name || opts.target == "all";

    if run("table1") {
        table1(&opts);
    }
    if run("table2") {
        table2(&opts);
    }
    if run("fig1") {
        fig1();
    }
    if run("fig2a") {
        fig2a(&opts, n_lo, n_hi, k, seed);
    }
    if run("fig2b") {
        fig2b(&opts, fixed_n, &ks, seed);
    }
    // Figures 5(a)/(c)/(d)/(e) share one sweep.
    let sweep_needed = ["fig5a", "fig5c", "fig5d", "fig5e"].iter().any(|t| run(t));
    let sweep: Vec<bench::RuntimePoint> = if sweep_needed {
        eprintln!("[sweep] n = 2^{n_lo}..2^{n_hi}, k = {k} (this is the slow part)");
        bench::fig5a(n_lo..=n_hi, k, seed)
    } else {
        Vec::new()
    };
    if run("fig5a") {
        fig5a(&opts, &sweep);
    }
    if run("fig5b") {
        fig5b(&opts, fixed_n, &ks, seed);
    }
    if run("fig5c") {
        fig5c(&opts, &sweep);
    }
    if run("fig5d") {
        fig5d(&opts, &sweep);
    }
    if run("fig5e") {
        fig5e(&opts, &sweep);
    }
    if run("fig5f") {
        fig5f(&opts, fixed_n, &ks, seed);
    }
    if run("ablation") {
        ablation(&opts, n_lo, n_hi, k, seed);
    }
    if run("fig2gpu") {
        fig2gpu(&opts, n_lo, n_hi, k, seed);
    }
    if run("noise") {
        noise(&opts, fixed_n.min(18), k.min(64), seed);
    }
    if run("devices") {
        devices(&opts, fixed_n.min(18), k.min(64), seed);
    }
    if run("comb") {
        comb(&opts, n_lo, n_hi, k, seed);
    }
    if run("serve") {
        serve(&opts, fixed_n.min(16), k.min(32), seed);
    }
    // hostperf sweeps up to n = 2^24, so it runs only when asked for
    // explicitly (use --smoke for the small CI profile).
    if opts.target == "hostperf" {
        hostperf(&opts, seed);
    }
    // overload replays paced traces at several offered loads, so it too
    // runs only when asked for explicitly (--smoke for the CI profile).
    if opts.target == "overload" {
        overload(&opts, seed);
    }
    // trace exports the telemetry artifacts for one overload run; like
    // the other extensions it runs only when asked for explicitly.
    if opts.target == "trace" {
        trace(&opts, seed);
    }
    // backends serves one batch per registered execution backend and
    // scores each against the dense oracle; explicit-only like the
    // other extensions (--smoke for the small CI profile).
    if opts.target == "backends" {
        backends(&opts, seed);
    }
    // throughput compares served throughput and modeled DRAM
    // transactions between the direct and tiled remap flavours on the
    // allocation-free serving path; explicit-only (--smoke for CI).
    if opts.target == "throughput" {
        throughput(&opts, seed);
    }
    // fleet serves the same batch over single-device and multi-device
    // topologies, with and without a certain device loss; explicit-only
    // (--smoke for CI).
    if opts.target == "fleet" {
        fleet(&opts, seed);
    }
    // chaos explores the fault/crash/fleet failure space end-to-end,
    // checking the serving invariant suite and shrinking any violation
    // to a minimal replayable schedule; explicit-only (--smoke for CI).
    if opts.target == "chaos" {
        chaos(&opts);
    }
    // explain runs one audited overload serve and writes the flight
    // recorder's artifacts; explicit-only (--smoke for CI).
    if opts.target == "explain" {
        explain(&opts, seed);
    }
    // check-regression gates freshly generated BENCH_*.json artifacts
    // against the checked-in baselines; explicit-only, exits non-zero
    // on drift outside the per-metric tolerances.
    if opts.target == "check-regression" {
        check_regression(&opts);
    }
}

/// Extension: the policy flight recorder — one audited overload run
/// (flaky device, 2x offered load), the full decision log in JSON and
/// text, every request's explain chain, the SLO burn-rate report, and
/// the metrics/trace exports that carry the cause labels and the
/// annotated policy track. Every byte deterministic.
fn explain(opts: &Opts, seed: u64) {
    let (log2_n, k, batch): (u32, usize, usize) = if opts.smoke {
        (12, 8, 12)
    } else {
        (14, 16, 32)
    };
    eprintln!("[explain] n = 2^{log2_n}, k = {k}, batch = {batch}, offered load = 2.0x");

    let art = bench::audit_artifacts(log2_n, k, batch, seed, 4);
    let audit = art.report.audit.as_deref().expect("audited run");
    println!(
        "flight recorder: {} events over {} requests, availability {:.3}, latency attainment {:.3}, {} burn-rate alert(s)",
        audit.log.events.len(),
        art.report.outcomes.len(),
        audit.slo.availability,
        audit.slo.latency_attainment,
        audit.slo.alerts.len(),
    );

    let mut causes: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for c in &audit.causes {
        *causes.entry(c.as_str()).or_insert(0) += 1;
    }
    let mut t = Table::new("Terminal causes", &["cause", "requests"]);
    for (cause, count) in causes {
        t.row(vec![cause.to_string(), count.to_string()]);
    }
    print!("{}", t.render());

    let (metrics_prom, trace_json) = bench::audit_exports(&art.report);
    let _ = std::fs::create_dir_all(&opts.out);
    for (name, body) in [
        ("audit_log.json", &art.audit_log_json),
        ("audit_log.txt", &art.audit_log_txt),
        ("slo_alerts.json", &art.slo_json),
        ("explain.txt", &art.explain_txt),
        ("audit_metrics.prom", &metrics_prom),
        ("audit_trace.json", &trace_json),
    ] {
        let path = opts.out.join(name);
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

/// Extension: the regression gate — every `BENCH_*.json` under the
/// baseline directory must have a freshly-generated counterpart in
/// `--out` that matches shape-exactly and numerically within the
/// per-metric tolerances (counts exact, modeled times/rates ±5%).
fn check_regression(opts: &Opts) {
    let entries = match std::fs::read_dir(&opts.baseline) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot read baseline dir {}: {e}", opts.baseline.display());
            std::process::exit(2);
        }
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        eprintln!(
            "no BENCH_*.json baselines under {}",
            opts.baseline.display()
        );
        std::process::exit(2);
    }

    let mut failed = 0usize;
    for name in &names {
        let base = match std::fs::read_to_string(opts.baseline.join(name)) {
            Ok(s) => s,
            Err(e) => {
                println!("FAIL {name}: cannot read baseline: {e}");
                failed += 1;
                continue;
            }
        };
        let cand = match std::fs::read_to_string(opts.out.join(name)) {
            Ok(s) => s,
            Err(e) => {
                println!(
                    "FAIL {name}: no candidate in {} ({e}) — regenerate it first",
                    opts.out.display()
                );
                failed += 1;
                continue;
            }
        };
        match bench::check_file(&base, &cand, name.trim_end_matches(".json")) {
            Ok(diffs) if diffs.is_empty() => println!("ok   {name}"),
            Ok(diffs) => {
                println!("FAIL {name}: {} metric(s) drifted", diffs.len());
                for d in diffs.iter().take(20) {
                    println!("     {d}");
                }
                if diffs.len() > 20 {
                    println!("     ... and {} more", diffs.len() - 20);
                }
                failed += 1;
            }
            Err(e) => {
                println!("FAIL {name}: {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!(
            "REGRESSION: {failed}/{} baseline file(s) drifted (baselines in {})",
            names.len(),
            opts.baseline.display()
        );
        std::process::exit(1);
    }
    println!("all {} baseline file(s) within tolerance", names.len());
}

/// Extension: deterministic chaos exploration — every schedule in the
/// smoke/full space runs serve/journal/fleet end-to-end under its fault
/// seed, rate vector, injected host-crash epoch and device loss; the
/// invariant suite (outcome bijection, oracle integrity, recovery
/// invisibility, worker invariance, replay stability) must hold on all
/// of them. Emits `BENCH_chaos.json`, plus `chaos_minimal.json` with
/// the shrunken schedules if anything failed.
fn chaos(opts: &Opts) {
    let smoke = !opts.full;
    eprintln!(
        "[chaos] exploring the {} schedule space",
        if smoke { "smoke" } else { "full" }
    );
    let sweep = bench::chaos_sweep(smoke);

    let mut t = Table::new(
        "Chaos exploration: deterministic fault/crash/fleet schedules vs the serving invariant suite",
        &["metric", "value"],
    );
    t.row(vec![
        "schedules explored".into(),
        sweep.explored.to_string(),
    ]);
    t.row(vec![
        "invariant checks".into(),
        sweep.invariants_checked.to_string(),
    ]);
    t.row(vec![
        "violations".into(),
        sweep.violations.len().to_string(),
    ]);
    t.row(vec![
        "crash/recovery runs".into(),
        sweep.crash_runs.to_string(),
    ]);
    t.row(vec![
        "mean recovery overhead".into(),
        format!("{:+.1}%", sweep.mean_recovery_overhead * 100.0),
    ]);
    t.row(vec![
        "max recovery overhead".into(),
        format!("{:+.1}%", sweep.max_recovery_overhead * 100.0),
    ]);
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "chaos");

    // Hand-rolled JSON (no serde_json in the vendored set).
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"space\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!("  \"explored\": {},\n", sweep.explored));
    json.push_str(&format!(
        "  \"invariants_checked\": {},\n",
        sweep.invariants_checked
    ));
    json.push_str(&format!("  \"violations\": {},\n", sweep.violations.len()));
    json.push_str(&format!(
        "  \"recovery\": {{\"crash_runs\": {}, \"mean_overhead\": {:.6}, \"max_overhead\": {:.6}}},\n",
        sweep.crash_runs, sweep.mean_recovery_overhead, sweep.max_recovery_overhead
    ));
    json.push_str("  \"minimal_failing_schedules\": [\n");
    for (i, (labels, schedule)) in sweep.violations.iter().enumerate() {
        let labels_json: Vec<String> = labels.iter().map(|l| format!("\"{l}\"")).collect();
        json.push_str(&format!(
            "    {{\"invariants\": [{}], \"schedule\": {}}}{}\n",
            labels_json.join(", "),
            schedule,
            if i + 1 < sweep.violations.len() {
                ","
            } else {
                ""
            },
        ));
    }
    json.push_str("  ]\n}\n");
    let _ = std::fs::create_dir_all(&opts.out);
    let path = opts.out.join("BENCH_chaos.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    // Violations also land in a dedicated replay artifact CI uploads.
    if !sweep.violations.is_empty() {
        let mut artifact = String::from("[\n");
        for (i, (_, schedule)) in sweep.violations.iter().enumerate() {
            artifact.push_str(&format!(
                "  {}{}\n",
                schedule,
                if i + 1 < sweep.violations.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        artifact.push_str("]\n");
        let path = opts.out.join("chaos_minimal.json");
        let _ = std::fs::write(&path, artifact);
        eprintln!(
            "INVARIANT VIOLATIONS: {} minimal schedule(s) written to {}",
            sweep.violations.len(),
            path.display()
        );
        std::process::exit(1);
    }
}

/// Extension: heterogeneous device fleets — the same batch served by
/// one K20x, three K20x, and the K20x/K40/K2000 pool, then the
/// robustness headline: the heterogeneous pool serving *through* a
/// certain loss of its K20x member (failover onto standby slabs) vs the
/// degraded CPU-tier floor a single-device deployment falls to when its
/// only device dies. Emits `BENCH_fleet.json`.
fn fleet(opts: &Opts, seed: u64) {
    let (log2_n, k, batch): (u32, usize, usize) = if opts.smoke {
        (12, 8, 12)
    } else {
        (14, 16, 32)
    };
    eprintln!("[fleet] n = 2^{log2_n}, k = {k}, batch = {batch}");

    let rows = bench::fleet_sweep(log2_n, k, batch, seed);
    let mut t = Table::new(
        &format!("Fleet serving: topology and failure scenarios, batch of {batch}, n≈2^{log2_n}, k={k} (simulated)"),
        &["scenario", "members", "done", "makespan", "req/s", "losses", "failovers", "standby", "cpu groups", "brownout"],
    );
    for p in &rows {
        t.row(vec![
            p.scenario.to_string(),
            p.members.to_string(),
            format!("{}/{}", p.completed, p.requests),
            fmt_secs(p.makespan),
            format!("{:.0}", p.throughput),
            p.device_losses.to_string(),
            p.failovers.to_string(),
            p.standby_acquires.to_string(),
            p.cpu_served_groups.to_string(),
            p.brownout_groups.to_string(),
        ]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "fleet");

    let find = |name: &str| rows.iter().find(|p| p.scenario == name);
    let ratio = if let (Some(fleet), Some(single)) = (find("hetero-loss"), find("single-loss")) {
        let ratio = fleet.throughput / single.throughput.max(1e-12);
        println!(
            "served through device loss: fleet {} vs lone degraded device {} — {}",
            fmt_ratio(fleet.throughput / find("single").map(|p| p.throughput).unwrap_or(1.0)),
            fmt_ratio(single.throughput / find("single").map(|p| p.throughput).unwrap_or(1.0)),
            fmt_ratio(ratio),
        );
        ratio
    } else {
        0.0
    };

    // Hand-rolled JSON (no serde_json in the vendored set).
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!(
        "  \"config\": {{\"log2_n\": {log2_n}, \"k\": {k}, \"batch\": {batch}}},\n"
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"members\": {}, \"requests\": {}, \"completed\": {}, \"makespan_ms\": {:.3}, \"throughput\": {:.3}, \"device_losses\": {}, \"failovers\": {}, \"standby_acquires\": {}, \"cpu_served_groups\": {}, \"brownout_groups\": {}, \"drains\": {}}}{}\n",
            p.scenario,
            p.members,
            p.requests,
            p.completed,
            p.makespan * 1e3,
            p.throughput,
            p.device_losses,
            p.failovers,
            p.standby_acquires,
            p.cpu_served_groups,
            p.brownout_groups,
            p.drains,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"served_through_failure\": {{\"fleet_throughput\": {:.3}, \"degraded_single_throughput\": {:.3}, \"ratio\": {ratio:.3}}}\n",
        find("hetero-loss").map(|p| p.throughput).unwrap_or(0.0),
        find("single-loss").map(|p| p.throughput).unwrap_or(0.0),
    ));
    json.push_str("}\n");
    let _ = std::fs::create_dir_all(&opts.out);
    let path = opts.out.join("BENCH_fleet.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Extension: allocation-free steady-state serving — the same batch
/// served with the remap flavour pinned to direct (the PR baseline)
/// and tiled (the shared-memory tiling), with the layout-transform
/// step's modeled DRAM transactions and the arena/`MemPool` traffic
/// that shows warmup-only allocation. Emits
/// `BENCH_serve_throughput.json`.
fn throughput(opts: &Opts, seed: u64) {
    let (log2_n, k, batch): (u32, usize, usize) = if opts.smoke {
        (12, 8, 12)
    } else {
        (14, 16, 32)
    };
    eprintln!("[throughput] n = 2^{log2_n}, k = {k}, batch = {batch}");

    let rows = bench::throughput_sweep(log2_n, k, batch, seed);
    let mut t = Table::new(
        &format!("Serve throughput: direct vs tiled remap, batch of {batch}, n≈2^{log2_n}, k={k} (simulated)"),
        &["remap", "makespan", "req/s", "perm txns", "total txns", "pool alloc", "pool release", "arena hits", "arena misses"],
    );
    for p in &rows {
        t.row(vec![
            p.remap.to_string(),
            fmt_secs(p.makespan),
            format!("{:.0}", p.throughput),
            format!("{:.0}", p.perm_txns),
            format!("{:.0}", p.total_txns),
            p.pool_alloc_ops.to_string(),
            p.pool_release_ops.to_string(),
            p.arena_reuse_hits.to_string(),
            p.arena_fresh_misses.to_string(),
        ]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "throughput");
    if let (Some(d), Some(ti)) = (
        rows.iter().find(|p| p.remap == "direct"),
        rows.iter().find(|p| p.remap == "tiled"),
    ) {
        println!(
            "tiled remap: {} on the layout-transform step's modeled DRAM transactions \
             ({:.0} -> {:.0}), throughput {}",
            fmt_ratio(d.perm_txns / ti.perm_txns.max(1.0)),
            d.perm_txns,
            ti.perm_txns,
            fmt_ratio(ti.throughput / d.throughput),
        );
    }

    // Hand-rolled JSON (no serde_json in the vendored set).
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!(
        "  \"config\": {{\"log2_n\": {log2_n}, \"k\": {k}, \"batch\": {batch}}},\n"
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"remap\": \"{}\", \"requests\": {}, \"makespan_ms\": {:.3}, \"throughput\": {:.3}, \"perm_step_transactions\": {:.0}, \"total_transactions\": {:.0}, \"pool_alloc_ops\": {}, \"pool_release_ops\": {}, \"arena_reuse_hits\": {}, \"arena_fresh_misses\": {}}}{}\n",
            p.remap,
            p.requests,
            p.makespan * 1e3,
            p.throughput,
            p.perm_txns,
            p.total_txns,
            p.pool_alloc_ops,
            p.pool_release_ops,
            p.arena_reuse_hits,
            p.arena_fresh_misses,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let _ = std::fs::create_dir_all(&opts.out);
    let path = opts.out.join("BENCH_serve_throughput.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Extension: pluggable execution backends — the same batch served
/// through every backend in the default registry, with per-backend
/// capability flags, admission-pricer estimates, merged-timeline
/// makespan and accuracy against the dense-FFT oracle. Emits
/// `BENCH_backends.json`.
fn backends(opts: &Opts, seed: u64) {
    let (log2_n, k, batch): (u32, usize, usize) =
        if opts.smoke { (11, 8, 9) } else { (14, 16, 24) };
    eprintln!("[backends] n = 2^{log2_n}, k = {k}, batch = {batch}");

    let rows = bench::backend_sweep(log2_n, k, batch, seed);
    let mut t = Table::new(
        &format!("Backends: batch of {batch} requests, n≈2^{log2_n}, k={k} (simulated)"),
        &[
            "backend",
            "device",
            "batched",
            "groups",
            "makespan",
            "est svc",
            "L1 vs oracle",
            "recall",
        ],
    );
    for p in &rows {
        t.row(vec![
            p.backend.label().to_string(),
            if p.caps.uses_device { "yes" } else { "no" }.to_string(),
            if p.caps.batched_ffts { "yes" } else { "no" }.to_string(),
            p.groups.to_string(),
            fmt_secs(p.makespan),
            fmt_secs(p.est_service),
            format!("{:.2e}", p.l1_vs_oracle),
            format!("{:.3}", p.oracle_recall),
        ]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "backends");

    // Hand-rolled JSON (no serde_json in the vendored set).
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str("  \"points\": [\n");
    for (i, p) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"uses_device\": {}, \"batched_ffts\": {}, \"oracle_bound\": {:.1e}, \"requests\": {}, \"groups\": {}, \"makespan_ms\": {:.3}, \"est_service_ms\": {:.3}, \"l1_vs_oracle\": {:.6e}, \"oracle_recall\": {:.4}}}{}\n",
            p.backend.label(),
            p.caps.uses_device,
            p.caps.batched_ffts,
            p.caps.oracle_bound,
            p.requests,
            p.groups,
            p.makespan * 1e3,
            p.est_service * 1e3,
            p.l1_vs_oracle,
            p.oracle_recall,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let _ = std::fs::create_dir_all(&opts.out);
    let path = opts.out.join("BENCH_backends.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Extension: unified telemetry — serves the flaky-device overload
/// workload once and writes the three telemetry artifacts: a
/// Chrome/Perfetto trace (`trace.json`, load it at ui.perfetto.dev or
/// chrome://tracing), the Prometheus metrics exposition
/// (`metrics.prom`), and a run summary (`BENCH_telemetry.json`). Every
/// byte is deterministic: independent of worker count, host-pool width
/// and wall clock (pinned by `crates/bench/tests/telemetry_export.rs`).
fn trace(opts: &Opts, seed: u64) {
    let (log2_n, k, batch): (u32, usize, usize) = if opts.smoke {
        (12, 8, 12)
    } else {
        (14, 16, 32)
    };
    eprintln!("[trace] n = 2^{log2_n}, k = {k}, batch = {batch}, offered load = 2.0x");

    let art = bench::telemetry_artifacts(log2_n, k, batch, seed, 4);
    println!(
        "telemetry: {} spans over {} timeline ops, {} trace events on {} tracks, makespan {}",
        art.spans,
        art.report.timeline.ops.len(),
        art.trace_events,
        art.trace_tracks,
        fmt_secs(art.report.makespan),
    );

    let _ = std::fs::create_dir_all(&opts.out);
    for (name, body) in [
        ("trace.json", &art.trace_json),
        ("metrics.prom", &art.metrics_prom),
        ("BENCH_telemetry.json", &art.summary_json),
    ] {
        let path = opts.out.join(name);
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

/// Extension: overload robustness of the serving layer — shed/deadline
/// rates, brownout, hedging and breaker outcomes across offered loads,
/// plus the breaker-vs-retry throughput comparison on a persistently
/// faulting device. Emits `BENCH_serve_overload.json`.
fn overload(opts: &Opts, seed: u64) {
    let (log2_n, k, batch): (u32, usize, usize) = if opts.smoke {
        (12, 8, 12)
    } else {
        (14, 16, 32)
    };
    let loads: &[f64] = if opts.smoke {
        &[0.5, 2.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 4.0]
    };
    eprintln!("[overload] n = 2^{log2_n}, k = {k}, batch = {batch}, loads = {loads:?}");

    let rows = bench::overload_sweep(log2_n, k, batch, loads, seed);
    let mut t = Table::new(
        &format!("Overload: {batch} paced requests, n≈2^{log2_n}, k={k} (simulated)"),
        &[
            "load", "shed", "miss", "degr", "hedges", "wins", "trips", "p50 lat", "p99 lat",
            "req/s",
        ],
    );
    for p in &rows {
        t.row(vec![
            format!("{:.2}x", p.offered_load),
            format!("{:.0}%", p.shed_rate * 100.0),
            format!("{:.0}%", p.deadline_miss_rate * 100.0),
            p.degraded.to_string(),
            p.hedges.to_string(),
            p.hedge_wins.to_string(),
            p.breaker_trips.to_string(),
            fmt_secs(p.latency_p50),
            fmt_secs(p.latency_p99),
            format!("{:.0}", p.throughput),
        ]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "overload");

    let (breaker_tp, retry_tp) = bench::breaker_vs_retry(log2_n, k, batch.min(8), seed);
    println!(
        "breaker vs retry-every-request on a persistently faulting device: \
         {breaker_tp:.0} vs {retry_tp:.0} req/s ({})",
        fmt_ratio(breaker_tp / retry_tp)
    );

    // Hand-rolled JSON (no serde_json in the vendored set).
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!(
        "  \"breaker_vs_retry\": {{\"breaker_throughput\": {breaker_tp:.3}, \"retry_throughput\": {retry_tp:.3}, \"speedup\": {:.3}}},\n",
        breaker_tp / retry_tp
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in rows.iter().enumerate() {
        // Deterministic per-(path, QoS) latency summary from the
        // telemetry histograms (quantiles are bucket upper bounds).
        let classes: Vec<String> = p
            .path_latency
            .iter()
            .map(|pl| {
                format!(
                    "{{\"path\": \"{}\", \"qos\": \"{}\", \"count\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}",
                    pl.path.label(),
                    pl.qos.label(),
                    pl.count,
                    pl.p50 * 1e3,
                    pl.p95 * 1e3,
                    pl.p99 * 1e3,
                )
            })
            .collect();
        json.push_str(&format!(
            "    {{\"offered_load\": {:.2}, \"requests\": {}, \"shed_rate\": {:.4}, \"deadline_miss_rate\": {:.4}, \"degraded\": {}, \"hedges\": {}, \"hedge_wins\": {}, \"breaker_trips\": {}, \"breaker_short_circuits\": {}, \"sdc_detected\": {}, \"latency_p50_ms\": {:.3}, \"latency_p99_ms\": {:.3}, \"throughput\": {:.3}, \"path_latency\": [{}]}}{}\n",
            p.offered_load,
            p.requests,
            p.shed_rate,
            p.deadline_miss_rate,
            p.degraded,
            p.hedges,
            p.hedge_wins,
            p.breaker_trips,
            p.breaker_short_circuits,
            p.sdc_detected,
            p.latency_p50 * 1e3,
            p.latency_p99 * 1e3,
            p.throughput,
            classes.join(", "),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let _ = std::fs::create_dir_all(&opts.out);
    let path = opts.out.join("BENCH_serve_overload.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Extension: host execution engine — wall-clock speedup of the
/// work-stealing pool over its single-thread pinning on the same plan.
/// Emits `BENCH_host_parallel.json` for the perf record.
fn hostperf(opts: &Opts, seed: u64) {
    let (sizes, reps): (&[u32], usize) = if opts.smoke {
        (&[14, 16], 1)
    } else {
        (&[20, 22, 24], 3)
    };
    let k = opts.k.unwrap_or(100);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "[hostperf] n = {:?} (log2), k = {k}, pool = {} threads on {host_cpus} logical CPUs",
        sizes,
        rayon::current_num_threads(),
    );

    let rows = bench::host_parallel_bench(sizes.iter().copied(), k, seed, reps);

    let mut t = Table::new(
        "Host execution engine: wall time, pool=1 vs default pool",
        &[
            "log2(n)",
            "k",
            "threads",
            "wall seq",
            "wall par",
            "speedup",
            "prepare",
            "batch FFT",
            "finish",
        ],
    );
    for p in &rows {
        t.row(vec![
            p.log2_n.to_string(),
            p.k.to_string(),
            p.pool_threads.to_string(),
            fmt_secs(p.wall_sequential),
            fmt_secs(p.wall_parallel),
            fmt_ratio(p.speedup()),
            fmt_secs(p.phases.prepare),
            fmt_secs(p.phases.batched_fft),
            fmt_secs(p.phases.finish),
        ]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "hostperf");

    // Hand-rolled JSON (no serde_json in the vendored set).
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_logical_cpus\": {host_cpus},\n"));
    json.push_str(
        "  \"note\": \"wall times are best-of-reps host seconds; speedup ~1x is expected on single-core hosts (pool falls back to the inline sequential path)\",\n",
    );
    json.push_str("  \"points\": [\n");
    for (i, p) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"pool_threads\": {}, \"n\": {}, \"k\": {}, \"wall_ms_sequential\": {:.3}, \"wall_ms_parallel\": {:.3}, \"speedup\": {:.3}}}{}\n",
            p.pool_threads,
            1u64 << p.log2_n,
            p.k,
            p.wall_sequential * 1e3,
            p.wall_parallel * 1e3,
            p.speedup(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let _ = std::fs::create_dir_all(&opts.out);
    let path = opts.out.join("BENCH_host_parallel.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Extension: the serving layer — plan-cache hit rates and merged
/// multi-stream throughput across worker counts.
fn serve(opts: &Opts, log2_n: u32, k: usize, seed: u64) {
    let batch = if opts.full { 24 } else { 12 };
    let rows = bench::serve_sweep(log2_n, k, batch, &[1, 2, 4], seed);
    let mut t = Table::new(
        &format!("Serving: batch of {batch} requests, n≈2^{log2_n}, k={k} (simulated)"),
        &[
            "workers",
            "groups",
            "makespan",
            "req/s",
            "max streams",
            "avg streams",
            "cache h/m",
        ],
    );
    for p in &rows {
        t.row(vec![
            p.workers.to_string(),
            p.groups.to_string(),
            fmt_secs(p.makespan),
            format!("{:.0}", p.throughput),
            p.max_concurrent_streams.to_string(),
            format!("{:.2}", p.avg_concurrent_streams),
            format!("{}/{}", p.cache_hits, p.cache_misses),
        ]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "serve");
}

/// Extension: the device-clock analogue of Figure 2.
fn fig2gpu(opts: &Opts, n_lo: u32, n_hi: u32, k: usize, seed: u64) {
    let rows = bench::fig2_gpu(n_lo..=n_hi, k, seed);
    let mut t = Table::new(
        &format!("GPU step breakdown vs n (k={k}, optimized, simulated)"),
        &[
            "log2(n)",
            "perm+filter",
            "subFFT",
            "cutoff",
            "locate",
            "estimate",
            "transfer",
            "total",
        ],
    );
    for r in &rows {
        let s = r.steps;
        let total = s.total().max(f64::MIN_POSITIVE);
        t.row(vec![
            r.log2_n.to_string(),
            format!("{:.1}%", s.perm_filter / total * 100.0),
            format!("{:.1}%", s.subsampled_fft / total * 100.0),
            format!("{:.1}%", s.cutoff / total * 100.0),
            format!("{:.1}%", s.locate / total * 100.0),
            format!("{:.1}%", s.estimate / total * 100.0),
            format!("{:.1}%", s.transfer / total * 100.0),
            fmt_secs(total),
        ]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "fig2gpu");
}

/// Extension: AWGN robustness of the optimized pipeline.
fn noise(opts: &Opts, log2_n: u32, k: usize, seed: u64) {
    let snrs = [60.0, 40.0, 30.0, 20.0, 10.0];
    let rows = bench::noise_sweep(log2_n, k, &snrs, seed);
    let mut t = Table::new(
        &format!("Noise robustness (n=2^{log2_n}, k={k}, cusFFT optimized)"),
        &["SNR(dB)", "recall", "L1 error"],
    );
    for p in rows {
        t.row(vec![
            format!("{:.0}", p.snr_db),
            format!("{:.3}", p.recall),
            format!("{:.2e}", p.l1),
        ]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "noise");
}

/// Extension: device sensitivity (future-work architectures).
fn devices(opts: &Opts, log2_n: u32, k: usize, seed: u64) {
    let rows = bench::device_sweep(log2_n, k, seed);
    let mut t = Table::new(
        &format!("Device sensitivity (n=2^{log2_n}, k={k})"),
        &["device", "cusFFT-opt (sim)"],
    );
    for (name, time) in rows {
        t.row(vec![name, fmt_secs(time)]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "devices");
}

/// Extension: sFFT v1 vs v2 (comb pre-filter) on the CPU.
fn comb(opts: &Opts, n_lo: u32, n_hi: u32, k: usize, seed: u64) {
    let mut t = Table::new(
        "sFFT v1 vs v2 (comb pre-filter, CPU wall time)",
        &["log2(n)", "v1", "v2", "v1 hits", "v2 hits", "residues kept"],
    );
    for log2_n in (n_lo..=n_hi).step_by(2) {
        let a = bench::comb_ablation(log2_n, k.min((1usize << log2_n) / 8), seed);
        t.row(vec![
            a.log2_n.to_string(),
            fmt_secs(a.v1_wall),
            fmt_secs(a.v2_wall),
            a.v1_hits.to_string(),
            a.v2_hits.to_string(),
            a.residues_kept.to_string(),
        ]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "comb");
}

fn table1(opts: &Opts) {
    let mut t = Table::new(
        "Table I: GPU test-bench (simulated device)",
        &[
            "device",
            "cc",
            "cores/SMs",
            "clock",
            "shared",
            "global",
            "bandwidth",
        ],
    );
    for spec in [DeviceSpec::tesla_k20x(), DeviceSpec::tesla_k40()] {
        t.row(vec![
            spec.name.clone(),
            format!("{:.1}", spec.compute_capability),
            format!("{} / {}", spec.sm_count * spec.cores_per_sm, spec.sm_count),
            format!("{:.0} MHz", spec.clock_ghz * 1e3),
            format!("{} KB", spec.shared_mem_per_sm / 1024),
            format!("{} GB", spec.global_mem_bytes >> 30),
            format!("{:.0} GB/s", spec.mem_bandwidth / 1e9),
        ]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "table1");
}

fn table2(opts: &Opts) {
    let cpu = CpuSpec::xeon_e5_2640();
    let mut t = Table::new(
        "Table II: CPU test-bench",
        &["processor", "arch", "cores", "clock", "L3", "DRAM"],
    );
    t.row(vec![
        cpu.name.clone(),
        cpu.architecture.clone(),
        cpu.cores.to_string(),
        format!("{:.2} GHz", cpu.clock_ghz),
        format!("{} MB", cpu.llc_bytes >> 20),
        format!("{} GB", cpu.dram_bytes >> 30),
    ]);
    print!("{}", t.render());
    println!("note: {}", bench::host::current_host());
    let _ = t.write_csv(&opts.out, "table2");
}

/// Figure 1: a toy walk-through of one inner loop (binning a 3-sparse
/// spectrum into buckets).
fn fig1() {
    use fft::Plan;
    use sfft_cpu::inner::{perm_filter, subsample_fft};
    use sfft_cpu::{Permutation, SfftParams};
    use signal::{MagnitudeModel, SparseSignal};

    let n = 4096;
    let params = SfftParams::tuned(n, 3);
    let s = SparseSignal::generate(n, 3, MagnitudeModel::Unit, 7);
    let perm = Permutation::new(101, 0, n);
    let mut buckets = perm_filter(&s.time, &params.filter_loc, params.b_loc, &perm);
    subsample_fft(&mut buckets, &Plan::new(params.b_loc));

    println!(
        "== Fig 1: inner-loop example (n={n}, k=3, B={}) ==",
        params.b_loc
    );
    println!(
        "true frequencies: {:?}",
        s.coords.iter().map(|&(f, _)| f).collect::<Vec<_>>()
    );
    let n_div_b = n / params.b_loc;
    for &(f, _) in &s.coords {
        let g = perm.permuted_freq(f);
        let bucket = ((g + n_div_b / 2) / n_div_b) % params.b_loc;
        println!(
            "  f={f:5} -> permuted g={g:5} -> bucket {bucket:3}  |Z*n|={:.4}",
            buckets[bucket].abs() * n as f64
        );
    }
    let loud = buckets.iter().filter(|z| z.abs() * n as f64 > 0.1).count();
    println!("loud buckets: {loud} (out of {})", params.b_loc);
}

fn profile_table(title: &str, key: &str, rows: &[bench::ProfileRow], by_k: bool) -> Table {
    let mut t = Table::new(
        title,
        &[
            key,
            "perm+filter",
            "subFFT",
            "cutoff",
            "locate",
            "estimate",
            "total",
        ],
    );
    for r in rows {
        let sh = r.timings.shares();
        t.row(vec![
            if by_k {
                r.k.to_string()
            } else {
                r.log2_n.to_string()
            },
            format!("{:.1}%", sh[0] * 100.0),
            format!("{:.1}%", sh[1] * 100.0),
            format!("{:.1}%", sh[2] * 100.0),
            format!("{:.1}%", sh[3] * 100.0),
            format!("{:.1}%", sh[4] * 100.0),
            fmt_secs(r.timings.total),
        ]);
    }
    t
}

fn fig2a(opts: &Opts, n_lo: u32, n_hi: u32, k: usize, seed: u64) {
    let rows = bench::fig2a(n_lo..=n_hi, k, seed);
    let t = profile_table(
        &format!("Fig 2(a): sFFT per-step time vs n (k={k})"),
        "log2(n)",
        &rows,
        false,
    );
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "fig2a");
}

fn fig2b(opts: &Opts, log2_n: u32, ks: &[usize], seed: u64) {
    let rows = bench::fig2b(log2_n, ks, seed);
    let t = profile_table(
        &format!("Fig 2(b): sFFT per-step time vs k (n=2^{log2_n})"),
        "k",
        &rows,
        true,
    );
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "fig2b");
}

fn runtime_table(title: &str, key: &str, rows: &[bench::RuntimePoint], by_k: bool) -> Table {
    let mut t = Table::new(
        title,
        &[key, "cusFFT-base", "cusFFT-opt", "cuFFT", "PsFFT", "FFTW"],
    );
    for p in rows {
        t.row(vec![
            if by_k {
                p.k.to_string()
            } else {
                p.log2_n.to_string()
            },
            fmt_secs(p.cusfft_base),
            fmt_secs(p.cusfft_opt),
            fmt_secs(p.cufft),
            fmt_secs(p.psfft_wall),
            fmt_secs(p.fftw_wall),
        ]);
    }
    t
}

fn fig5a(opts: &Opts, sweep: &[bench::RuntimePoint]) {
    let t = runtime_table(
        "Fig 5(a): runtime vs n (GPU simulated, CPU host wall)",
        "log2(n)",
        sweep,
        false,
    );
    print!("{}", t.render());
    let series = vec![
        bench::Series::new(
            "cusFFT-opt",
            sweep
                .iter()
                .map(|p| (p.log2_n as f64, p.cusfft_opt))
                .collect(),
        ),
        bench::Series::new(
            "cusFFT-base",
            sweep
                .iter()
                .map(|p| (p.log2_n as f64, p.cusfft_base))
                .collect(),
        ),
        bench::Series::new(
            "cuFFT",
            sweep.iter().map(|p| (p.log2_n as f64, p.cufft)).collect(),
        ),
        bench::Series::new(
            "FFTW (wall)",
            sweep
                .iter()
                .map(|p| (p.log2_n as f64, p.fftw_wall))
                .collect(),
        ),
    ];
    if !sweep.is_empty() {
        print!(
            "{}",
            bench::render_chart("Fig 5(a) — seconds (log2 y) vs log2(n)", &series, 56, 16)
        );
    }
    let _ = t.write_csv(&opts.out, "fig5a");
}

fn fig5b(opts: &Opts, log2_n: u32, ks: &[usize], seed: u64) {
    eprintln!("[fig5b] n = 2^{log2_n}, k sweep {ks:?}");
    let rows = bench::fig5b(log2_n, ks, seed);
    let t = runtime_table(
        &format!("Fig 5(b): runtime vs k (n=2^{log2_n})"),
        "k",
        &rows,
        true,
    );
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "fig5b");
}

fn fig5c(opts: &Opts, sweep: &[bench::RuntimePoint]) {
    let mut t = Table::new(
        "Fig 5(c): speedup of cusFFT over cuFFT",
        &["log2(n)", "baseline", "optimized"],
    );
    for p in sweep {
        let (b, o) = p.speedup_over_cufft();
        t.row(vec![p.log2_n.to_string(), fmt_ratio(b), fmt_ratio(o)]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "fig5c");
}

fn fig5d(opts: &Opts, sweep: &[bench::RuntimePoint]) {
    let mut t = Table::new(
        "Fig 5(d): speedup of cusFFT (opt, incl. input transfer) over parallel FFTW",
        &["log2(n)", "speedup"],
    );
    for p in sweep {
        t.row(vec![p.log2_n.to_string(), fmt_ratio(p.speedup_over_fftw())]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "fig5d");
}

fn fig5e(opts: &Opts, sweep: &[bench::RuntimePoint]) {
    let mut t = Table::new(
        "Fig 5(e): speedup of cusFFT (opt, incl. input transfer) over PsFFT",
        &["log2(n)", "speedup"],
    );
    for p in sweep {
        t.row(vec![
            p.log2_n.to_string(),
            fmt_ratio(p.speedup_over_psfft()),
        ]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "fig5e");
}

fn fig5f(opts: &Opts, log2_n: u32, ks: &[usize], seed: u64) {
    eprintln!("[fig5f] n = 2^{log2_n}, k sweep {ks:?}");
    let rows = bench::fig5f(log2_n, ks, seed);
    let mut t = Table::new(
        &format!("Fig 5(f): L1 error per large coefficient (n=2^{log2_n})"),
        &["k", "baseline", "optimized"],
    );
    for (k, b, o) in rows {
        t.row(vec![k.to_string(), format!("{b:.2e}"), format!("{o:.2e}")]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "fig5f");
}

fn ablation(opts: &Opts, n_lo: u32, n_hi: u32, k: usize, seed: u64) {
    let mut t = Table::new(
        "Ablation A: perm+filter kernel (simulated time per invocation)",
        &["log2(n)", "atomic-hist", "loop-partition", "async-layout"],
    );
    for log2_n in (n_lo..=n_hi).step_by(2) {
        let a = bench::filter_ablation(log2_n, k.min((1usize << log2_n) / 8), seed);
        t.row(vec![
            a.log2_n.to_string(),
            fmt_secs(a.atomic),
            fmt_secs(a.partition),
            fmt_secs(a.async_layout),
        ]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(&opts.out, "ablation_filter");

    let mut t2 = Table::new(
        "Ablation B: cutoff selection (simulated)",
        &["B", "sort&select", "fast-select", "BucketSelect passes"],
    );
    for log2_b in [12u32, 14, 16] {
        let s = bench::selection_ablation(1 << log2_b, k, seed);
        t2.row(vec![
            s.b.to_string(),
            fmt_secs(s.sort),
            fmt_secs(s.fast),
            s.bucket_passes.to_string(),
        ]);
    }
    print!("{}", t2.render());
    let _ = t2.write_csv(&opts.out, "ablation_selection");

    let mut t3 = Table::new(
        "Ablation C: batched vs per-loop cuFFT (model)",
        &["B", "loops", "batched", "separate"],
    );
    for log2_b in [12u32, 15] {
        let (batched, separate) = bench::batched_fft_ablation(1 << log2_b, 16);
        t3.row(vec![
            (1usize << log2_b).to_string(),
            "16".into(),
            fmt_secs(batched),
            fmt_secs(separate),
        ]);
    }
    print!("{}", t3.render());
    let _ = t3.write_csv(&opts.out, "ablation_batched_fft");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Opts>, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parses_targets_and_flags() {
        let o = parse(&[]).unwrap().unwrap();
        assert_eq!(o.target, "all");
        let o = parse(&["chaos", "--smoke", "--k", "12"]).unwrap().unwrap();
        assert_eq!(o.target, "chaos");
        assert!(o.smoke && !o.full);
        assert_eq!(o.k, Some(12));
        let o = parse(&["--out", "o", "--baseline", "b"]).unwrap().unwrap();
        assert_eq!(o.out, PathBuf::from("o"));
        assert_eq!(o.baseline, PathBuf::from("b"));
        assert!(parse(&["--help"]).unwrap().is_none());
        for t in TARGETS {
            assert_eq!(parse(&[t]).unwrap().unwrap().target, t);
        }
    }

    #[test]
    fn rejects_unknown_targets_and_flags() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        assert_eq!(err(&["nosuchtarget"]), "unknown target `nosuchtarget`");
        assert_eq!(err(&["chaos", "--smok"]), "unknown flag `--smok`");
        assert_eq!(err(&["--k"]), "--k needs a value");
        assert_eq!(err(&["--k", "many"]), "--k needs an integer, got `many`");
        assert_eq!(err(&["--out"]), "--out needs a value");
    }
}
