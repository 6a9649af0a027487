//! Tests for the deterministic chaos explorer (DESIGN.md §15): a small
//! slice of the smoke space runs green, exploration is bit-reproducible,
//! schedules round-trip through their replay JSON, and the shrinker
//! minimizes a schedule whose failure is synthesized by an invariant
//! stand-in.

use cusfft::chaos::run_schedule;
use cusfft::{chaos_space, explore, shrink, ChaosSchedule, ChaosSpace};
use gpu_sim::{FaultClass, FaultRates};

/// A cheap sub-slice of the smoke space: every fifth schedule, capped.
fn small_space() -> ChaosSpace {
    let all = chaos_space(true);
    ChaosSpace {
        schedules: all.schedules.into_iter().step_by(5).take(8).collect(),
    }
}

/// The serving stack holds its invariants across a fault/crash/fleet
/// slice — zero violations, every schedule explored, crash schedules
/// measuring a recovery overhead.
#[test]
fn smoke_slice_runs_clean() {
    let space = small_space();
    let report = explore(&space);
    assert_eq!(report.explored, space.schedules.len());
    assert!(
        report.violations.is_empty(),
        "invariant violations: {:?}",
        report
            .violations
            .iter()
            .map(|v| (&v.schedule, &v.violations))
            .collect::<Vec<_>>()
    );
    assert!(report.invariants_checked >= report.explored as u64 * 2);
    if report.crash_runs > 0 {
        assert!(report.max_recovery_overhead.is_finite());
    }
}

/// Exploration is deterministic: two sweeps of the same space agree on
/// every counter.
#[test]
fn exploration_is_reproducible() {
    let space = small_space();
    let a = explore(&space);
    let b = explore(&space);
    assert_eq!(a.explored, b.explored);
    assert_eq!(a.invariants_checked, b.invariants_checked);
    assert_eq!(a.violations.len(), b.violations.len());
    assert_eq!(a.crash_runs, b.crash_runs);
    assert_eq!(
        a.mean_recovery_overhead.to_bits(),
        b.mean_recovery_overhead.to_bits()
    );
    assert_eq!(
        a.max_recovery_overhead.to_bits(),
        b.max_recovery_overhead.to_bits()
    );
}

/// A single crash schedule runs end-to-end: recovery is invisible and
/// its overhead is measured.
#[test]
fn crash_schedule_measures_recovery_overhead() {
    let outcome = run_schedule(&ChaosSchedule {
        fault_seed: 7,
        rates: FaultRates::uniform(0.05),
        crash_epoch: Some(0),
        epoch_groups: 1,
        requests: 4,
        ..ChaosSchedule::default()
    });
    assert!(
        outcome.violations.is_empty(),
        "violations: {:?}",
        outcome.violations
    );
    let overhead = outcome
        .recovery_overhead
        .expect("a crash schedule measures recovery overhead");
    assert!(overhead.is_finite());
    assert!(
        overhead > -0.5,
        "overhead {overhead} is implausibly negative"
    );
}

/// Every schedule in the smoke space replays exactly through its JSON
/// artifact encoding — the property CI relies on when it attaches a
/// minimal failing schedule.
#[test]
fn all_smoke_schedules_round_trip_through_json() {
    for s in &chaos_space(true).schedules {
        let back = ChaosSchedule::from_json(&s.to_json())
            .unwrap_or_else(|e| panic!("{}: {e}", s.to_json()));
        assert_eq!(&back, s);
    }
}

/// The shrinker is a no-op on passing schedules and monotone on the
/// schedule's complexity axes when it does run.
#[test]
fn shrink_never_grows_a_schedule() {
    let s = ChaosSchedule {
        fault_seed: 1,
        rates: FaultRates::one_hot(FaultClass::Launch, 0.5),
        crash_epoch: Some(1),
        requests: 4,
        workers: 2,
        epoch_groups: 2,
        ..ChaosSchedule::default()
    };
    let min = shrink(&s);
    assert!(min.requests <= s.requests);
    assert!(min.workers <= s.workers);
    assert!(min.epoch_groups <= s.epoch_groups);
    for class in FaultClass::ALL {
        assert!(min.rates.get(class) <= s.rates.get(class));
    }
}
