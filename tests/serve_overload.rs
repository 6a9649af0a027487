//! Overload-robustness tests for the serving layer — see DESIGN.md §10.
//!
//! Pinned contracts:
//!
//! 1. **Determinism** — for a fixed `(trace, config, policy)` the whole
//!    [`cusfft::ServeReport`] (outcomes incl. shed/deadline/QoS, fault
//!    and overload tallies, breaker transition log, latency stats, and
//!    the merged timeline) is bit-identical across serve worker counts
//!    and host pool widths.
//! 2. **The breaker pays for itself** — under a persistent-fault device
//!    the breaker opens and steady-state throughput strictly beats the
//!    retry-every-request behaviour of `serve_batch` on the same
//!    requests.
//! 3. **Admission control rejects before spending** — queue sheds and
//!    deadline rejections produce typed outcomes and no device time.
//! 4. **Brownout degrades, never drops** — pressured requests are served
//!    at [`cusfft::ServeQos::Degraded`] and still complete.
//! 5. **Hedging is deterministic** — stragglers are hedged by the
//!    percentile budget; fault-free, the duplicate ties and the primary
//!    wins.
//! 6. **SDC is caught or bounded** — an injected device→host bit-flip is
//!    either detected by the sampled residual check (and the request
//!    recovers on a retry/CPU path) or the surviving deviation is below
//!    the check's documented bound of `2·k·1e-6` per coefficient.
//!
//! The fault seed honours `CUSFFT_FAULT_SEED` so CI can sweep seeds.

use cusfft::{
    OverloadConfig, RequestOutcome, ServeConfig, ServeEngine, ServePath, ServeQos, ServeReport,
    ServeRequest, TimedRequest, Variant,
};
use gpu_sim::{BreakerConfig, BreakerState, DeviceSpec, FaultConfig};
use proptest::prelude::*;
use signal::{MagnitudeModel, SparseSignal};

/// Fault seed under test; CI sweeps this via the environment.
fn fault_seed() -> u64 {
    std::env::var("CUSFFT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn request(n: usize, k: usize, variant: Variant, sig_seed: u64, seed: u64) -> ServeRequest {
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, sig_seed);
    ServeRequest::new(s.time, k, variant, seed)
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
            request(n, k, variant, 2000 + i as u64, 17 * i as u64 + 3)
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

/// Runs `f` on a dedicated host pool of the given width.
fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build is infallible")
        .install(f)
}

/// An all-at-once arrival trace: every request lands at t = 0, so the
/// predicted queue depth equals the number already admitted — shedding
/// and brownout thresholds are exercised exactly, independent of the
/// service-time model's constants.
fn trace_at_zero(reqs: Vec<ServeRequest>) -> Vec<TimedRequest> {
    reqs.into_iter().map(|r| TimedRequest::at(r, 0.0)).collect()
}

/// A hedging-free, breaker-quiet policy with generous bounds.
fn permissive_policy() -> OverloadConfig {
    OverloadConfig {
        queue_capacity: 1000,
        brownout_depth: 1000,
        hedge_factor: 1e12,
        ..OverloadConfig::default()
    }
}

fn assert_same_report(a: &ServeReport, b: &ServeReport, what: &str) {
    assert_eq!(a.outcomes, b.outcomes, "{what}: outcomes");
    assert_eq!(a.faults, b.faults, "{what}: fault tally");
    assert_eq!(a.overload, b.overload, "{what}: overload tally");
    assert_eq!(a.breaker, b.breaker, "{what}: breaker transition log");
    assert_eq!(a.latency, b.latency, "{what}: latency stats");
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{what}: makespan must be bit-identical"
    );
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits(), "{what}");
    assert_eq!(a.concurrency, b.concurrency, "{what}: concurrency profile");
    assert_eq!(a.groups, b.groups, "{what}: group count");
}

/// Contract 1: the full overload report — sheds, deadline rejections,
/// brownout QoS, breaker decisions, hedges, SDC recoveries, latency and
/// the merged timeline — is a pure function of `(trace, config,
/// policy)`, invariant under worker count and host pool width.
#[test]
fn overload_report_invariant_across_workers_and_pools() {
    // Arrivals at 0 with a tight queue: sheds are guaranteed. Some
    // requests carry an unmeetable deadline, some a trivial one. Faults
    // (incl. SDC) and an aggressive hedge budget exercise every path.
    let trace: Vec<TimedRequest> = batch(12)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let t = TimedRequest::at(r, 0.0);
            match i % 5 {
                3 => t.with_deadline(0.0),
                4 => t.with_deadline(1e6),
                _ => t,
            }
        })
        .collect();
    let policy = OverloadConfig {
        queue_capacity: 6,
        brownout_depth: 3,
        breaker: BreakerConfig {
            window: 2,
            trip_faults: 2,
            cooldown: 1,
        },
        epoch_groups: 2,
        hedge_percentile: 0.5,
        hedge_factor: 1.0,
    };
    let fc = FaultConfig::uniform(fault_seed(), 0.02).with_sdc(0.05);
    let run = |workers: usize, pool: usize| {
        with_pool(pool, || {
            engine(workers, Some(fc)).serve_overload(&trace, &policy)
        })
    };
    let baseline = run(1, 1);
    assert!(
        baseline.overload.shed > 0,
        "the trace must actually shed to pin anything"
    );
    assert!(baseline.overload.deadline_exceeded > 0);
    assert!(baseline.overload.degraded > 0);
    for (workers, pool) in [(2, 1), (4, 1), (1, 8), (2, 8), (4, 8)] {
        let report = run(workers, pool);
        assert_same_report(
            &baseline,
            &report,
            &format!("workers={workers} pool={pool}"),
        );
    }
}

/// Contract 2: under a persistently faulty device the breaker opens and
/// short-circuits straight to the CPU path, beating `serve_batch`'s
/// retry-every-request throughput on the same requests.
#[test]
fn breaker_opens_and_beats_retry_every_request() {
    // Eight single-request groups (distinct k) so the breaker sees a
    // stream of group observations.
    let reqs: Vec<ServeRequest> = (0..8)
        .map(|i| {
            request(
                1 << 11,
                2 + i,
                Variant::Optimized,
                300 + i as u64,
                900 + i as u64,
            )
        })
        .collect();
    let config = ServeConfig {
        workers: 2,
        cache_capacity: 16,
        faults: Some(FaultConfig::persistent(fault_seed())),
        ..ServeConfig::default()
    };
    let policy = OverloadConfig {
        breaker: BreakerConfig {
            window: 2,
            trip_faults: 2,
            cooldown: 50,
        },
        epoch_groups: 2,
        ..permissive_policy()
    };
    let over = ServeEngine::new(DeviceSpec::tesla_k20x(), config)
        .expect("serve config is valid")
        .serve_overload(&trace_at_zero(reqs.clone()), &policy);
    assert!(
        over.breaker.iter().any(|t| t.to == BreakerState::Open),
        "persistent faults must trip the breaker: {:?}",
        over.breaker
    );
    assert!(over.overload.breaker_trips >= 1);
    assert!(
        over.overload.breaker_short_circuits > 0,
        "groups after the trip must be short-circuited"
    );
    for o in &over.outcomes {
        let r = o.response().expect("every request still completes");
        assert_eq!(r.path, ServePath::Cpu, "persistent faults end on the CPU");
    }

    let legacy = ServeEngine::new(DeviceSpec::tesla_k20x(), config)
        .expect("serve config is valid")
        .serve_batch(&reqs);
    assert!(
        legacy.outcomes.iter().all(|o| o.response().is_some()),
        "both layers complete everything"
    );
    assert!(
        over.throughput > legacy.throughput,
        "short-circuiting must beat retrying every request: \
         overload {:.1} req/s vs legacy {:.1} req/s",
        over.throughput,
        legacy.throughput
    );
}

/// Admission replays a trace in arrival order whatever order the trace
/// lists it in: a shuffled trace with distinct arrival times gives every
/// request the outcome it gets in the sorted trace, and never panics.
#[test]
fn shuffled_trace_is_admitted_in_arrival_order() {
    let gap = cusfft::nominal_service(&DeviceSpec::tesla_k20x(), 1 << 10, 4) / 3.0;
    let sorted: Vec<TimedRequest> = batch(9)
        .into_iter()
        .enumerate()
        .map(|(j, r)| TimedRequest::at(r, j as f64 * gap))
        .collect();
    let perm = [4, 0, 7, 2, 8, 5, 1, 6, 3];
    let shuffled: Vec<TimedRequest> = perm.iter().map(|&j| sorted[j].clone()).collect();
    let policy = OverloadConfig {
        queue_capacity: 4,
        brownout_depth: 2,
        ..OverloadConfig::default()
    };
    let faults = Some(FaultConfig::uniform(fault_seed(), 0.05));
    let a = engine(2, faults).serve_overload(&sorted, &policy);
    let b = engine(2, faults).serve_overload(&shuffled, &policy);
    assert!(
        a.overload.shed > 0,
        "the queue bound must bite: {:?}",
        a.overload
    );
    for (pos, &j) in perm.iter().enumerate() {
        assert_eq!(
            b.outcomes[pos], a.outcomes[j],
            "request {j} at trace position {pos}"
        );
        assert_eq!(b.arrivals[pos].to_bits(), sorted[j].arrival.to_bits());
    }
    assert_eq!(b.overload, a.overload);
}

/// A NaN or infinite arrival time is invalid input, not a panic: the
/// request fails typed at admission, is counted once in
/// `faults.failed`, and reads as arriving at 0.0, so the audit seals
/// with finite timestamps. A zero-capacity queue, which sheds every
/// valid request, takes the same route.
#[test]
fn non_finite_arrivals_fail_typed_at_admission() {
    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let trace: Vec<TimedRequest> = batch(6)
        .into_iter()
        .enumerate()
        .map(|(j, r)| {
            let arrival = if j % 2 == 1 {
                bad[j / 2]
            } else {
                j as f64 * 1e-4
            };
            TimedRequest::at(r, arrival)
        })
        .collect();
    for queue_capacity in [0, 4] {
        let policy = OverloadConfig {
            queue_capacity,
            ..OverloadConfig::default()
        };
        let cfg = ServeConfig {
            workers: 2,
            audit: true,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::new(DeviceSpec::tesla_k20x(), cfg).expect("valid config");
        let report = engine.serve_overload(&trace, &policy);
        for (j, o) in report.outcomes.iter().enumerate() {
            if j % 2 == 1 {
                assert!(
                    matches!(
                        o,
                        RequestOutcome::Failed {
                            error: cusfft::CusFftError::BadRequest { .. },
                            after_attempts: 0
                        }
                    ),
                    "request {j} (arrival {}): {o:?}",
                    trace[j].arrival
                );
                assert_eq!(report.arrivals[j], 0.0);
            } else if queue_capacity == 0 {
                assert!(
                    matches!(o, RequestOutcome::Shed { .. }),
                    "request {j}: {o:?}"
                );
            } else {
                assert!(o.response().is_some(), "request {j}: {o:?}");
            }
        }
        assert_eq!(report.faults.failed, 3);
        let audit = report.audit.as_ref().expect("audit is on");
        audit.validate().expect("every event roots at an admission");
        assert!(audit.log.events.iter().all(|e| e.ts.is_finite()));
    }
}

/// Contract 3a: a full queue sheds the newest arrivals with a typed
/// outcome and zero device time.
#[test]
fn queue_bound_sheds_newest_arrivals() {
    let trace = trace_at_zero(
        (0..6)
            .map(|i| request(1 << 10, 4, Variant::Optimized, i, 50 + i))
            .collect(),
    );
    let policy = OverloadConfig {
        queue_capacity: 3,
        ..permissive_policy()
    };
    let report = engine(2, None).serve_overload(&trace, &policy);
    assert_eq!(report.overload.admitted, 3);
    assert_eq!(report.overload.shed, 3);
    for (i, o) in report.outcomes.iter().enumerate() {
        if i < 3 {
            assert!(o.response().is_some(), "request {i} admitted");
        } else {
            match o {
                RequestOutcome::Shed { queue_depth } => {
                    assert_eq!(*queue_depth, 3, "depth at shed time")
                }
                other => panic!("request {i}: expected Shed, got {other:?}"),
            }
        }
    }
    // All requests share one plan: sheds cannot split groups.
    assert_eq!(report.groups, 1);
}

/// Contract 3b: an unmeetable deadline is rejected at admission with the
/// predicted latency attached; generous deadlines sail through.
#[test]
fn unmeetable_deadlines_are_rejected_at_admission() {
    let reqs: Vec<ServeRequest> = (0..4)
        .map(|i| request(1 << 10, 4, Variant::Optimized, i, 70 + i))
        .collect();
    let trace: Vec<TimedRequest> = reqs
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let t = TimedRequest::at(r, 0.0);
            if i % 2 == 0 {
                t.with_deadline(1e6) // always met
            } else {
                t.with_deadline(0.0) // never met: service takes time
            }
        })
        .collect();
    let report = engine(1, None).serve_overload(&trace, &permissive_policy());
    assert_eq!(report.overload.deadline_exceeded, 2);
    assert_eq!(report.overload.admitted, 2);
    for (i, o) in report.outcomes.iter().enumerate() {
        if i % 2 == 0 {
            assert!(o.response().is_some(), "request {i} meets its deadline");
        } else {
            match o {
                RequestOutcome::DeadlineExceeded {
                    predicted,
                    deadline,
                } => {
                    assert!(*predicted > *deadline, "request {i}");
                    assert_eq!(*deadline, 0.0);
                }
                other => panic!("request {i}: expected DeadlineExceeded, got {other:?}"),
            }
        }
    }
}

/// Contract 4: past the brownout depth, admitted requests are re-planned
/// onto the degraded QoS tier — and still complete.
#[test]
fn brownout_serves_degraded_without_dropping() {
    let trace = trace_at_zero(
        (0..8)
            .map(|i| request(1 << 10, 4, Variant::Optimized, i, 80 + i))
            .collect(),
    );
    let policy = OverloadConfig {
        queue_capacity: 100,
        brownout_depth: 2,
        ..permissive_policy()
    };
    let report = engine(2, None).serve_overload(&trace, &policy);
    assert_eq!(report.overload.admitted, 8);
    assert_eq!(report.overload.degraded, 6);
    // Full and Degraded tiers are distinct plan groups.
    assert_eq!(report.groups, 2);
    for (i, o) in report.outcomes.iter().enumerate() {
        let r = o.response().expect("brownout degrades, never drops");
        let want = if i < 2 {
            ServeQos::Full
        } else {
            ServeQos::Degraded
        };
        assert_eq!(r.qos, want, "request {i} tier");
        assert!(r.num_hits > 0, "request {i} still recovers energy");
    }
}

/// Contract 5: a group whose duration exceeds the percentile budget gets
/// a hedged duplicate; fault-free the duplicate ties the primary and the
/// primary wins, and the whole race replays bit-for-bit.
#[test]
fn stragglers_get_hedged_deterministically() {
    // Three quick groups and one straggler (16× the signal length).
    let mut reqs: Vec<ServeRequest> = (0..3)
        .map(|i| {
            request(
                1 << 10,
                2 + i,
                Variant::Optimized,
                20 + i as u64,
                60 + i as u64,
            )
        })
        .collect();
    reqs.push(request(1 << 14, 4, Variant::Optimized, 33, 99));
    let trace = trace_at_zero(reqs);
    let policy = OverloadConfig {
        queue_capacity: 100,
        brownout_depth: 100,
        hedge_percentile: 0.5,
        hedge_factor: 1.0,
        ..OverloadConfig::default()
    };
    let a = engine(2, None).serve_overload(&trace, &policy);
    assert!(
        a.overload.hedges >= 1,
        "the 16×-length group must exceed the p50 budget"
    );
    assert_eq!(
        a.overload.hedge_wins, 0,
        "fault-free, a hedge ties its primary and the primary wins"
    );
    assert!(a
        .outcomes
        .iter()
        .all(|o| o.response().is_some_and(|r| r.path == ServePath::Gpu)));
    let b = engine(4, None).serve_overload(&trace, &policy);
    assert_same_report(&a, &b, "hedging across worker counts");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Breaker decisions are a function of the fault plan and the global
    /// group order alone — invariant under worker count and pool width
    /// (tentpole determinism, fuzzed over fault plans).
    #[test]
    fn breaker_decisions_invariant_under_worker_count(
        seed in 0u64..500,
        rate in 0.0f64..0.05,
    ) {
        let trace = trace_at_zero(batch(8));
        let policy = OverloadConfig {
            breaker: BreakerConfig { window: 2, trip_faults: 1, cooldown: 1 },
            epoch_groups: 1,
            ..permissive_policy()
        };
        let fc = FaultConfig::uniform(seed, rate);
        let run = |workers: usize, pool: usize| {
            with_pool(pool, || {
                engine(workers, Some(fc)).serve_overload(&trace, &policy)
            })
        };
        let base = run(1, 1);
        for (workers, pool) in [(2, 1), (4, 8)] {
            let r = run(workers, pool);
            prop_assert_eq!(&base.breaker, &r.breaker,
                "breaker log, workers={} pool={}", workers, pool);
            prop_assert_eq!(&base.overload, &r.overload,
                "overload tally, workers={} pool={}", workers, pool);
            prop_assert_eq!(&base.outcomes, &r.outcomes,
                "outcomes, workers={} pool={}", workers, pool);
        }
    }

    /// Contract 6, fuzzed: with SDC injection on, every request still
    /// completes, and any response served off a GPU path deviates from
    /// the clean run by at most the residual check's documented bound —
    /// a corruption either trips the check (and the request retries or
    /// degrades) or was too small to matter.
    #[test]
    fn sdc_is_caught_or_bounded(seed in 0u64..500, rate in 0.3f64..1.0) {
        let reqs = batch(6);
        let clean = engine(2, None).serve_batch(&reqs);
        let fc = FaultConfig::uniform(seed, 0.0).with_sdc(rate);
        let faulty = engine(2, Some(fc)).serve_batch(&reqs);
        for (i, (c, f)) in clean.outcomes.iter().zip(&faulty.outcomes).enumerate() {
            let c = c.response().expect("clean serving completes");
            let f = f.response().expect("SDC recovery completes every request");
            if f.path == ServePath::Cpu {
                continue; // reference path: different algorithm, not comparable bit-wise
            }
            prop_assert_eq!(c.recovered.len(), f.recovered.len(), "request {}", i);
            let bound = 2.0 * reqs[i].k as f64 * 1e-6;
            for ((cf, cv), (ff, fv)) in c.recovered.iter().zip(&f.recovered) {
                prop_assert_eq!(cf, ff, "request {} frequency set", i);
                let dev = cv.dist(*fv);
                prop_assert!(
                    dev <= bound,
                    "request {i}: surviving deviation {dev:.3e} exceeds bound {bound:.3e}"
                );
            }
        }
    }
}

/// Contract 6, pinned: at SDC rate 1.0 every GPU attempt's returned
/// spectrum is corrupted. The residual check detects the corruption
/// whenever it matters (`sdc_detected > 0`, requests visibly re-routed
/// through retry/CPU recovery via [`cusfft::ServePath`]); the only
/// survivors on the first-attempt GPU path are the documented
/// false-negative corner — a flipped bit on a spurious near-zero
/// coefficient, whose surviving deviation stays under the check's
/// `2·k·1e-6` bound. Verified under several seeds so the pin isn't a
/// single-seed accident.
#[test]
fn sdc_at_rate_one_is_detected_and_recovered() {
    let reqs = batch(6);
    let clean = engine(2, None).serve_batch(&reqs);
    for seed in [1, 7, fault_seed()] {
        let fc = FaultConfig::uniform(seed, 0.0).with_sdc(1.0);
        let report = engine(2, Some(fc)).serve_batch(&reqs);
        assert!(
            report.faults.sdc_detected > 0,
            "seed {seed}: rate-1.0 corruption must be detected"
        );
        assert_eq!(report.faults.failed, 0, "seed {seed}: recovery never fails");
        let mut off_gpu = 0;
        for (i, (c, f)) in clean.outcomes.iter().zip(&report.outcomes).enumerate() {
            let c = c.response().expect("clean serving completes");
            let f = f
                .response()
                .unwrap_or_else(|| panic!("seed {seed}: request {i} must complete"));
            if f.path != ServePath::Gpu {
                off_gpu += 1;
            }
            if f.path == ServePath::Cpu {
                continue; // reference path, not comparable bit-wise
            }
            // Anything still served from the device is corruption-free up
            // to the residual check's bound.
            let bound = 2.0 * reqs[i].k as f64 * 1e-6;
            assert_eq!(c.recovered.len(), f.recovered.len(), "seed {seed} req {i}");
            for ((cf, cv), (ff, fv)) in c.recovered.iter().zip(&f.recovered) {
                assert_eq!(cf, ff, "seed {seed} req {i}: frequency set");
                let dev = cv.dist(*fv);
                assert!(
                    dev <= bound,
                    "seed {seed} req {i}: surviving deviation {dev:.3e} > {bound:.3e}"
                );
            }
        }
        assert!(
            off_gpu > 0,
            "seed {seed}: detected corruptions must visibly re-route requests"
        );
    }
}
