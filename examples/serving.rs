//! Serving: push a mixed batch of sparse-FFT requests through the
//! concurrent serving engine and inspect the plan cache and the merged
//! multi-stream timeline — then overload it and watch admission
//! control, brownout QoS and the circuit breaker hold the line.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use cusfft::{
    OverloadConfig, RequestOutcome, ServeConfig, ServeEngine, ServePath, ServeQos, ServeRequest,
    TimedRequest, Variant,
};
use gpu_sim::{BreakerConfig, DeviceSpec, FaultConfig};
use signal::{MagnitudeModel, SparseSignal};

fn main() {
    // A request stream over three geometries — the server sees the same
    // few `(n, k)` shapes over and over, which is what the plan cache and
    // cross-request cuFFT batching exploit.
    let geometries = [(1 << 14, 16), (1 << 15, 16), (1 << 16, 32)];
    let requests: Vec<ServeRequest> = (0..12)
        .map(|i| {
            let (n, k) = geometries[i % geometries.len()];
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 90 + i as u64);
            ServeRequest::new(s.time, k, Variant::Optimized, 5 * i as u64 + 1)
        })
        .collect();
    println!(
        "batch: {} requests over {} geometries",
        requests.len(),
        geometries.len()
    );

    let engine = ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        ServeConfig {
            workers: 3,
            cache_capacity: 8,
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid");

    // First batch: every geometry misses once, then hits.
    let report = engine.serve_batch(&requests);
    println!("\nfirst batch:");
    print_report(&report);

    // Second batch of the same shapes: plans are all warm.
    let report2 = engine.serve_batch(&requests);
    println!("\nsecond batch (warm cache):");
    print_report(&report2);

    assert!(report2.cache.hits > report.cache.hits);
    assert!(report.concurrency.max_concurrent_streams >= 2);

    // Same batch on a flaky device: a deterministic fault plan injects
    // OOM/transfer/launch failures; the engine evicts failing requests
    // from their batch groups, retries them with backoff, and degrades
    // stragglers to the CPU reference path — every request completes.
    let flaky = ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        ServeConfig {
            workers: 3,
            cache_capacity: 8,
            faults: Some(FaultConfig::uniform(42, 0.002)),
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid");
    let report3 = flaky.serve_batch(&requests);
    println!("\nsame batch, 0.2% fault rate on every device op:");
    print_report(&report3);
    let t = report3.faults;
    println!(
        "  faults: {} injected, {} evictions, {} retries, {} cpu fallbacks, {} failed",
        t.injected, t.evictions, t.retries, t.cpu_fallbacks, t.failed
    );
    let count = |p: ServePath| report3.responses().filter(|r| r.path == p).count();
    println!(
        "  paths: {} gpu, {} gpu-after-retry, {} cpu",
        count(ServePath::Gpu),
        count(ServePath::GpuRetry),
        count(ServePath::Cpu)
    );
    assert_eq!(
        report3.outcomes.len(),
        requests.len(),
        "every request resolves even on a flaky device"
    );

    // Overload: 24 requests all arriving at once, some with unmeetable
    // deadlines, against a bounded queue. Admission control sheds the
    // overflow before it costs device time, queue pressure re-plans
    // later arrivals onto the degraded-accuracy tier, and everything
    // that is admitted completes.
    let trace: Vec<TimedRequest> = (0..24)
        .map(|i| {
            let (n, k) = geometries[i % geometries.len()];
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 400 + i as u64);
            let req = ServeRequest::new(s.time, k, Variant::Optimized, 11 * i as u64 + 2);
            let t = TimedRequest::at(req, 0.0);
            if i % 6 == 5 {
                t.with_deadline(0.0) // cannot be met: service takes time
            } else {
                t
            }
        })
        .collect();
    let policy = OverloadConfig {
        queue_capacity: 12,
        brownout_depth: 6,
        breaker: BreakerConfig::default(),
        ..OverloadConfig::default()
    };
    let report4 = engine.serve_overload(&trace, &policy);
    println!(
        "\noverload: {} requests at t=0 against a queue of {}:",
        trace.len(),
        policy.queue_capacity
    );
    print_report(&report4);
    let mut done = 0;
    let mut failed = 0;
    let mut shed = 0;
    let mut missed = 0;
    for o in &report4.outcomes {
        match o {
            RequestOutcome::Done(_) => done += 1,
            RequestOutcome::Failed { .. } => failed += 1,
            RequestOutcome::Shed { .. } => shed += 1,
            RequestOutcome::DeadlineExceeded { .. } => missed += 1,
        }
    }
    println!("  outcomes: {done} done, {failed} failed, {shed} shed, {missed} past-deadline");
    let degraded = report4
        .responses()
        .filter(|r| r.qos == ServeQos::Degraded)
        .count();
    let ov = report4.overload;
    println!(
        "  overload: {} admitted ({} degraded-QoS, {degraded} served degraded), \
         {} hedges ({} wins), {} breaker short-circuits",
        ov.admitted, ov.degraded, ov.hedges, ov.hedge_wins, ov.breaker_short_circuits
    );
    println!(
        "  latency: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms over {} completions",
        report4.latency.p50 * 1e3,
        report4.latency.p99 * 1e3,
        report4.latency.max * 1e3,
        report4.latency.count
    );
    assert_eq!(done + failed + shed + missed, trace.len());
    assert!(shed > 0, "a 2x-capacity burst must shed");
}

fn print_report(report: &cusfft::ServeReport) {
    println!(
        "  groups: {}   makespan: {:.3} ms   throughput: {:.0} req/s (simulated)",
        report.groups,
        report.makespan * 1e3,
        report.throughput
    );
    println!(
        "  cache: {} hits / {} misses / {} evictions ({} resident, hit rate {:.0}%)",
        report.cache.hits,
        report.cache.misses,
        report.cache.evictions,
        report.cache.len,
        report.cache.hit_rate() * 100.0
    );
    println!(
        "  streams: {} active, max {} concurrent, avg {:.2} concurrent",
        report.concurrency.per_stream.len(),
        report.concurrency.max_concurrent_streams,
        report.concurrency.avg_concurrent_streams
    );
    for s in &report.concurrency.per_stream {
        println!(
            "    stream {:>3}: {:>3} ops, busy {:>8.3} ms, utilisation {:>5.1}%",
            s.stream.0,
            s.ops,
            s.busy * 1e3,
            s.utilisation * 100.0
        );
    }
}
