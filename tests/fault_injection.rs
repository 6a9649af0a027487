//! Fault-injection tests: the deterministic fault layer in `gpu-sim` and
//! the serving layer's recovery machinery (request isolation, bounded
//! retry, CPU degradation) — see DESIGN.md §9.
//!
//! Three contracts are pinned:
//!
//! 1. **Recovery is invisible** — a request that completes on a GPU path
//!    (first attempt or retry) returns a spectrum **bit-identical** to
//!    the fault-free run; only explicit CPU degradation may differ (it
//!    runs the reference algorithm, not the device kernels).
//! 2. **Faults are deterministic** — per-request outcomes and fault
//!    tallies are a pure function of `(requests, config, fault seed)`,
//!    invariant under the serve worker count and the host pool width;
//!    the merged timeline is bit-identical across pool widths and reruns.
//! 3. **Persistent faults re-route, never fail** — with every device op
//!    faulting, a whole batch still completes by re-routing onto the
//!    `SfftCpu` backend, producing the same spectra a fault-free serve
//!    explicitly addressed to that backend returns, with the counters to
//!    prove the recovery machinery ran.
//!
//! The fault seed honours `CUSFFT_FAULT_SEED` so CI can sweep a matrix of
//! seeds over the same assertions.

use cusfft::{
    BackendKind, ServeConfig, ServeEngine, ServePath, ServeReport, ServeRequest, Variant,
};
use gpu_sim::{DeviceSpec, FaultConfig, GpuDevice, GpuError, DEFAULT_STREAM};
use proptest::prelude::*;
use signal::{MagnitudeModel, SparseSignal};

/// Fault seed under test; CI sweeps this via the environment.
fn fault_seed() -> u64 {
    std::env::var("CUSFFT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// A mixed-geometry batch exercising several plan groups and both tiers.
fn batch(len: usize) -> Vec<ServeRequest> {
    let geometries = [
        (1 << 10, 4, Variant::Optimized),
        (1 << 11, 8, Variant::Optimized),
        (1 << 10, 4, Variant::Baseline),
    ];
    (0..len)
        .map(|i| {
            let (n, k, variant) = geometries[i % geometries.len()];
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 2000 + i as u64);
            ServeRequest::new(s.time, k, variant, 17 * i as u64 + 3)
        })
        .collect()
}

fn engine(workers: usize, faults: Option<FaultConfig>) -> ServeEngine {
    ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        ServeConfig {
            workers,
            cache_capacity: 8,
            faults,
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid")
}

/// Runs `f` on a dedicated host pool of the given width (the same
/// `install` idiom as `host_parallel_determinism`).
fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build is infallible")
        .install(f)
}

/// Asserts the merged simulated timelines of two reports are
/// bit-identical (makespan, throughput, per-stream profile).
fn assert_same_timeline(a: &ServeReport, b: &ServeReport, what: &str) {
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{what}: makespan must be bit-identical"
    );
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits(), "{what}");
    assert_eq!(a.concurrency, b.concurrency, "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Contract 1: recovery is invisible. Any request the faulty engine
    /// completes on a GPU path matches the fault-free spectrum bit for
    /// bit; every request completes (CPU fallback catches stragglers).
    #[test]
    fn recovered_gpu_spectra_match_fault_free(seed in 0u64..1000, rate in 0.0f64..0.01) {
        let reqs = batch(6);
        let clean = engine(2, None).serve_batch(&reqs);
        let faulty = engine(2, Some(FaultConfig::uniform(seed, rate))).serve_batch(&reqs);
        prop_assert_eq!(faulty.outcomes.len(), reqs.len());
        for (i, (c, f)) in clean.outcomes.iter().zip(&faulty.outcomes).enumerate() {
            let c = c.response().expect("fault-free serving completes");
            let f = f.response().expect("recovery completes every request");
            if f.path != ServePath::Cpu {
                prop_assert_eq!(&c.recovered, &f.recovered, "request {} spectrum", i);
                prop_assert_eq!(c.num_hits, f.num_hits, "request {} hits", i);
            }
        }
    }
}

/// Contract 2: fault decisions are scoped per global group, so outcomes
/// and tallies cannot depend on how groups are dealt to workers, nor on
/// the host pool width; the timeline is a pure function of the config.
#[test]
fn fault_outcomes_invariant_across_workers_and_pools() {
    let reqs = batch(8);
    let fc = FaultConfig::uniform(fault_seed(), 0.02);
    let run = |workers: usize, pool: usize| {
        with_pool(pool, || engine(workers, Some(fc)).serve_batch(&reqs))
    };

    let reference = run(1, 1);
    assert!(
        reference.faults.injected > 0,
        "a 2% rate over this batch injects something (seed {})",
        fault_seed()
    );
    for workers in [1usize, 4] {
        for pool in [1usize, 8] {
            let report = run(workers, pool);
            assert_eq!(
                report.outcomes, reference.outcomes,
                "outcomes changed under workers={workers}, pool={pool}"
            );
            assert_eq!(
                report.faults, reference.faults,
                "fault tally changed under workers={workers}, pool={pool}"
            );
            if workers == 1 {
                // Same config ⇒ the merged timeline is also bit-identical
                // (across pool widths and reruns alike).
                assert_same_timeline(&report, &reference, "workers=1");
            }
        }
    }
}

/// Contract 3: a device where *every* op faults still serves the whole
/// batch — each request burns its retries and is re-routed onto the
/// `SfftCpu` backend, with the counters accounting for every step. The
/// re-route is ordinary backend selection: the spectra match a
/// fault-free serve that addresses the `SfftCpu` backend explicitly.
#[test]
fn persistent_faults_reroute_batch_to_cpu_backend() {
    let reqs = batch(16);
    let fc = FaultConfig::persistent(fault_seed());
    let reference = engine(1, Some(fc)).serve_batch(&reqs);

    // What the CPU backend computes when asked for by name, no faults.
    let cpu_reqs: Vec<ServeRequest> = reqs
        .iter()
        .cloned()
        .map(|r| r.with_backend(BackendKind::SfftCpu))
        .collect();
    let cpu_direct = engine(1, None).serve_batch(&cpu_reqs);

    assert_eq!(reference.outcomes.len(), 16);
    for (i, outcome) in reference.outcomes.iter().enumerate() {
        let resp = outcome
            .response()
            .unwrap_or_else(|| panic!("request {i} must complete via backend re-route"));
        assert_eq!(resp.path, ServePath::Cpu, "request {i}");
        assert_eq!(
            resp.backend,
            BackendKind::SfftCpu,
            "request {i} must report the backend that actually served it"
        );
        assert!(
            !resp.recovered.is_empty(),
            "request {i} recovered a spectrum"
        );
        let direct = cpu_direct.outcomes[i]
            .response()
            .expect("explicit CPU-backend serving completes");
        assert_eq!(
            resp.recovered, direct.recovered,
            "request {i}: re-routed spectrum must equal the explicit SfftCpu backend's"
        );
    }
    let t = reference.faults;
    assert_eq!(t.cpu_fallbacks, 16, "every request re-routed");
    assert_eq!(t.evictions, 16, "every request was evicted from its group");
    assert!(t.retries > 0, "retries were attempted before re-routing");
    assert!(t.injected > 0, "faults were recorded");
    assert_eq!(t.failed, 0, "no request terminally failed");

    // Worker-count invariance and rerun timeline reproducibility hold
    // even in the all-faulting regime: outcomes and fault tallies are
    // bit-identical whether 1 or 4 workers drained the batch.
    let wide = engine(4, Some(fc)).serve_batch(&reqs);
    assert_eq!(wide.outcomes, reference.outcomes);
    assert_eq!(wide.faults, reference.faults);
    let rerun = engine(1, Some(fc)).serve_batch(&reqs);
    assert_eq!(rerun.outcomes, reference.outcomes);
    assert_same_timeline(&rerun, &reference, "rerun");
}

/// The fault timeline records what was injected: every fault appears as
/// a `fault:<class>:<what>` op, so the wasted time is visible in the
/// simulated schedule rather than silently dropped.
#[test]
fn injected_faults_are_visible_on_the_timeline() {
    let device = GpuDevice::new(DeviceSpec::tesla_k20x());
    device.install_fault_plan(FaultConfig::persistent(fault_seed()));
    let host = vec![0.0f64; 1024];
    assert!(device.try_htod(&host, DEFAULT_STREAM).is_err());
    assert!(device
        .try_charge_device_op("k", 1e-6, DEFAULT_STREAM)
        .is_err());
    let fault_ops = device
        .ops()
        .iter()
        .filter(|op| op.label.starts_with("fault:"))
        .count();
    assert_eq!(fault_ops as u64, device.faults_injected());
    assert!(fault_ops >= 2);
}

/// Device memory is a real resource: tracked allocations debit the K20x
/// capacity, dropping them credits it back, and exceeding it is a typed
/// OOM — not a panic, and not an unbounded simulation.
#[test]
fn device_capacity_is_enforced_and_released() {
    let mut spec = DeviceSpec::tesla_k20x();
    spec.global_mem_bytes = 1 << 20; // shrink to 1 MiB to keep the test cheap
    let device = GpuDevice::new(spec);
    assert_eq!(device.capacity_bytes(), 1 << 20);
    assert_eq!(device.used_bytes(), 0);

    let buf = device
        .try_alloc_zeroed::<f64>(64 * 1024, DEFAULT_STREAM) // 512 KiB
        .expect("fits in capacity");
    assert!(device.used_bytes() >= 512 * 1024);
    match device.try_alloc_zeroed::<f64>(128 * 1024, DEFAULT_STREAM) {
        Err(GpuError::OutOfMemory {
            requested,
            free,
            capacity,
        }) => {
            assert!(requested > free, "{requested} vs {free}");
            assert_eq!(capacity, 1 << 20);
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
    drop(buf);
    assert_eq!(device.used_bytes(), 0, "drop releases the reservation");
    assert!(device
        .try_alloc_zeroed::<f64>(128 * 1024, DEFAULT_STREAM)
        .is_ok());
}

/// The single-shot fallible entry point surfaces injected faults as
/// typed errors and recovers completely once the plan is cleared.
#[test]
fn try_execute_surfaces_faults_and_recovers() {
    use std::sync::Arc;
    let n = 1 << 10;
    let k = 4;
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 7);
    let device = Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x()));
    let plan = cusfft::CusFft::new(
        Arc::clone(&device),
        Arc::new(sfft_cpu::SfftParams::tuned(n, k)),
        Variant::Optimized,
    );

    let clean = plan.try_execute(&s.time, 9).expect("fault-free run");

    device.install_fault_plan(FaultConfig::persistent(fault_seed()));
    match plan.try_execute(&s.time, 9) {
        Err(cusfft::CusFftError::Gpu(_)) => {}
        other => panic!("expected a typed device error, got {other:?}"),
    }

    device.clear_fault_plan();
    let recovered = plan.try_execute(&s.time, 9).expect("recovers after clear");
    assert_eq!(recovered.recovered, clean.recovered);

    // Malformed input is typed too, before the device is touched.
    match plan.try_execute(&s.time[..64], 9) {
        Err(cusfft::CusFftError::BadRequest { reason }) => {
            assert!(reason.contains("must match"), "{reason}");
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
}

/// Pins the `RequestOutcome::Failed::after_attempts` contract across
/// every recovery path (DESIGN.md §9/§15):
///
/// * exhausted retry under persistent faults with fallback disabled
///   reports exactly `max_retries` attempts — the retries genuinely ran
///   and are counted once each;
/// * pre-execution failures (validation) report `0` — nothing was
///   attempted;
/// * the counts are invariant under the worker count and identical on
///   the journaled path, for a known fault schedule.
#[test]
fn failed_attempt_counts_are_pinned_per_path() {
    use cusfft::{
        CusFftError, DeviceFleet, FleetConfig, Journal, JournalOptions, OverloadConfig,
        RequestOutcome, TimedRequest,
    };

    let mut reqs = batch(6);
    // One malformed request (k = 0) that fails validation, never runs.
    reqs.push(ServeRequest::new(
        reqs[0].time.clone(),
        0,
        Variant::Optimized,
        99,
    ));
    let fc = FaultConfig::persistent(fault_seed());
    let max_retries = 3u32;
    let config = |workers| ServeConfig {
        workers,
        faults: Some(fc),
        max_retries,
        cpu_fallback: false,
        ..ServeConfig::default()
    };
    let serve = |workers| {
        ServeEngine::new(DeviceSpec::tesla_k20x(), config(workers))
            .expect("serve config is valid")
            .serve_batch(&reqs)
    };

    let reference = serve(1);
    for (i, outcome) in reference.outcomes.iter().enumerate() {
        match outcome {
            cusfft::RequestOutcome::Failed {
                error,
                after_attempts,
            } => {
                if i == reqs.len() - 1 {
                    assert!(
                        matches!(error, CusFftError::BadRequest { .. }),
                        "request {i} fails validation"
                    );
                    assert_eq!(
                        *after_attempts, 0,
                        "request {i} never reached execution, attempts must be 0"
                    );
                } else {
                    assert!(
                        matches!(error, CusFftError::Gpu(_)),
                        "request {i} exhausts on a device error, got {error:?}"
                    );
                    assert_eq!(
                        *after_attempts, max_retries,
                        "request {i} must report exactly max_retries attempts"
                    );
                }
            }
            other => panic!("request {i}: expected Failed, got {other:?}"),
        }
    }
    assert_eq!(reference.faults.failed, reqs.len() as u64);
    assert_eq!(
        reference.faults.retries,
        (reqs.len() as u64 - 1) * u64::from(max_retries),
        "each executable request retried exactly max_retries times"
    );

    // Attempt accounting is invariant under the worker count…
    let wide = serve(4);
    assert_eq!(wide.outcomes, reference.outcomes);
    assert_eq!(wide.faults, reference.faults);

    // …and identical on the journaled path.
    let journaled = ServeEngine::new(DeviceSpec::tesla_k20x(), config(2))
        .expect("serve config is valid")
        .serve_journaled(&reqs, &mut Journal::new(), &JournalOptions::default())
        .into_report()
        .expect("unarmed journaled run completes");
    assert_eq!(journaled.outcomes, reference.outcomes);

    // Every entry point counts each terminal failure exactly once —
    // validation failures included — and reports throughput as completed
    // requests per second of makespan.
    let trace: Vec<TimedRequest> = reqs
        .iter()
        .cloned()
        .map(|r| TimedRequest::at(r, 0.0))
        .collect();
    let policy = OverloadConfig {
        queue_capacity: 1000,
        brownout_depth: 1000,
        hedge_factor: 1e12,
        ..OverloadConfig::default()
    };
    let overload = |config: ServeConfig| {
        ServeEngine::new(DeviceSpec::tesla_k20x(), config)
            .expect("serve config is valid")
            .serve_overload(&trace, &policy)
    };
    let fleet = DeviceFleet::new(FleetConfig::heterogeneous(), config(2))
        .expect("fleet config is valid")
        .serve(&reqs);
    let reports = [
        ("serve_batch", reference),
        ("serve_journaled", journaled),
        ("serve_overload", overload(config(2))),
        (
            "serve_overload fault-free",
            overload(ServeConfig::default()),
        ),
        ("DeviceFleet::serve", fleet),
    ];
    for (path, report) in &reports {
        let failed = report
            .outcomes
            .iter()
            .filter(|o| matches!(o, RequestOutcome::Failed { .. }))
            .count();
        assert_eq!(report.faults.failed, failed as u64, "{path}: faults.failed");
        let completed = report.responses().count() as f64;
        let throughput = if report.makespan > 0.0 {
            completed / report.makespan
        } else {
            0.0
        };
        assert_eq!(
            report.throughput.to_bits(),
            throughput.to_bits(),
            "{path}: throughput is completed requests per simulated second"
        );
    }
}
