//! Crash-consistency tests for the journaled serving path — DESIGN.md
//! §15.
//!
//! The headline contract: **kill-at-any-epoch + resume equals the
//! uninterrupted run, exactly.** For every crash epoch in a sweep, a run
//! killed there and restarted from its durable journal produces a final
//! outcome vector bit-identical to the run that was never interrupted —
//! across worker counts and fault seeds, with zero requests lost and
//! zero double-completed. Supporting contracts: the journaled path is
//! outcome-identical to `serve_batch`, the journal's durable prefix
//! round-trips through bytes and disk, a crash discards exactly the
//! unflushed tail, and corrupt/mismatched journals are refused typed.
//!
//! The fault seed honours `CUSFFT_FAULT_SEED` so CI can sweep a matrix
//! of seeds over the same assertions.

use cusfft::journal::plan_group_count;
use cusfft::{
    CusFftError, Journal, JournalOptions, ServeConfig, ServeEngine, ServeRequest, Variant,
};
use gpu_sim::{CrashPlan, DeviceSpec, FaultConfig};
use signal::{MagnitudeModel, SparseSignal};

/// Fault seed under test; CI sweeps this via the environment.
fn fault_seed() -> u64 {
    std::env::var("CUSFFT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// A mixed-geometry batch spanning several plan groups and both tiers.
fn batch(len: usize) -> Vec<ServeRequest> {
    let geometries = [
        (1 << 10, 4, Variant::Optimized),
        (1 << 11, 8, Variant::Optimized),
        (1 << 10, 4, Variant::Baseline),
        (1 << 9, 4, Variant::Optimized),
    ];
    (0..len)
        .map(|i| {
            let (n, k, variant) = geometries[i % geometries.len()];
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 4000 + i as u64);
            ServeRequest::new(s.time, k, variant, 13 * i as u64 + 5)
        })
        .collect()
}

fn engine(workers: usize, faults: Option<FaultConfig>) -> ServeEngine {
    ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        ServeConfig {
            workers,
            faults,
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid")
}

/// The headline acceptance sweep: for every crash epoch, kill + resume
/// must reproduce the uninterrupted outcomes exactly, for worker counts
/// {1, 2, 4} × fault seeds {base, base+6}, with nothing lost and
/// nothing double-completed.
#[test]
fn crash_at_every_epoch_then_resume_is_invisible() {
    let requests = batch(8);
    for seed in [fault_seed(), fault_seed() + 6] {
        let faults = Some(FaultConfig::uniform(seed, 0.05));
        for workers in [1usize, 2, 4] {
            let opts = JournalOptions {
                epoch_groups: 1,
                crash: CrashPlan::never(),
            };
            let reference = engine(workers, faults)
                .serve_journaled(&requests, &mut Journal::new(), &opts)
                .into_report()
                .expect("unarmed run completes");
            let epochs = plan_group_count(&engine(workers, faults), &requests) as u64;
            assert!(epochs >= 2, "sweep needs multiple epochs to be meaningful");

            for crash_epoch in 0..epochs {
                let mut journal = Journal::new();
                let crash_opts = JournalOptions {
                    epoch_groups: 1,
                    crash: CrashPlan::at_epoch(crash_epoch),
                };
                let crash = engine(workers, faults)
                    .serve_journaled(&requests, &mut journal, &crash_opts)
                    .into_report()
                    .expect_err("armed crash fires inside the run");
                assert_eq!(crash.epoch, crash_epoch);
                assert!(
                    crash.durable_done < requests.len(),
                    "a crash mid-run must leave unfinished requests"
                );

                let resumed = engine(workers, faults)
                    .resume_from(&requests, &mut journal, &opts)
                    .expect("durable journal is valid")
                    .into_report()
                    .expect("resume completes");

                // Exactly-once: the full outcome vector — responses,
                // errors, attempt counts — is bit-identical to the
                // uninterrupted run. Equal length rules out losses;
                // exact per-index equality rules out double-completion
                // and any visible recovery artifact.
                assert_eq!(
                    resumed.outcomes, reference.outcomes,
                    "crash at epoch {crash_epoch} (workers={workers}, seed={seed}) \
                     changed the final outcomes"
                );
                let tally = resumed.journal.expect("resumed runs carry the tally");
                assert_eq!(
                    tally.groups_recovered, crash_epoch,
                    "exactly the checkpointed epochs must restore from the journal"
                );
                assert!(tally.groups_executed > 0, "the lost epoch must re-execute");
            }
        }
    }
}

/// The journaled path is outcome-identical to `serve_batch`, across
/// epoch granularities — checkpoint cadence must never shift a fault
/// scope.
#[test]
fn journaling_never_changes_outcomes() {
    let requests = batch(7);
    let faults = Some(FaultConfig::uniform(fault_seed(), 0.1));
    let plain = engine(2, faults).serve_batch(&requests);
    for epoch_groups in [1usize, 2, 3] {
        let opts = JournalOptions {
            epoch_groups,
            crash: CrashPlan::never(),
        };
        let journaled = engine(2, faults)
            .serve_journaled(&requests, &mut Journal::new(), &opts)
            .into_report()
            .expect("completes");
        assert_eq!(
            journaled.outcomes, plain.outcomes,
            "epoch_groups={epoch_groups} changed outcomes vs serve_batch"
        );
        assert_eq!(journaled.faults, plain.faults);
    }
}

/// The crashed journal survives a real round trip to disk: save the
/// durable prefix, load it in a "new process", resume from the loaded
/// copy — same guarantee.
#[test]
fn recovery_survives_a_disk_round_trip() {
    let requests = batch(6);
    let faults = Some(FaultConfig::uniform(fault_seed(), 0.05));
    let opts = JournalOptions {
        epoch_groups: 1,
        crash: CrashPlan::never(),
    };
    let reference = engine(2, faults)
        .serve_journaled(&requests, &mut Journal::new(), &opts)
        .into_report()
        .expect("completes");

    let mut journal = Journal::new();
    let crash_opts = JournalOptions {
        epoch_groups: 1,
        crash: CrashPlan::at_epoch(1),
    };
    engine(2, faults)
        .serve_journaled(&requests, &mut journal, &crash_opts)
        .into_report()
        .expect_err("crash fires");

    let dir = std::env::temp_dir().join("cusfft_journal_recovery_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("crash_seed_{}.cjn", fault_seed()));
    journal.save(&path).expect("save durable prefix");
    let mut loaded = Journal::load(&path).expect("load journal");
    std::fs::remove_file(&path).ok();

    let resumed = engine(2, faults)
        .resume_from(&requests, &mut loaded, &opts)
        .expect("loaded journal is valid")
        .into_report()
        .expect("resume completes");
    assert_eq!(resumed.outcomes, reference.outcomes);
}

/// A crash discards exactly the unflushed tail: resuming re-executes
/// the lost epoch's groups and only those.
#[test]
fn crash_loses_only_the_unflushed_epoch() {
    let requests = batch(6);
    let mut journal = Journal::new();
    let crash_opts = JournalOptions {
        epoch_groups: 1,
        crash: CrashPlan::at_epoch(2),
    };
    let eng = engine(2, None);
    let crash = eng
        .serve_journaled(&requests, &mut journal, &crash_opts)
        .into_report()
        .expect_err("crash fires");
    // Epochs 0 and 1 checkpointed durable; epoch 2's records are gone.
    let groups = plan_group_count(&engine(2, None), &requests);
    assert!(groups > 2);
    assert_eq!(crash.epoch, 2);
    let done: usize = journal
        .durable_records()
        .expect("valid durable prefix")
        .iter()
        .filter(|r| matches!(r, cusfft::JournalRecord::Done { .. }))
        .count();
    assert_eq!(done, crash.durable_done);
    assert!(done < requests.len());
}

/// Corrupt or mismatched journals are refused with a typed
/// [`CusFftError::Journal`] — never a panic, never a partial resume.
#[test]
fn bad_journals_are_refused_typed() {
    let requests = batch(4);
    let opts = JournalOptions {
        epoch_groups: 1,
        crash: CrashPlan::never(),
    };

    // Fingerprint mismatch: same count, different content.
    let mut journal = Journal::new();
    engine(1, None)
        .serve_journaled(&requests, &mut journal, &opts)
        .into_report()
        .expect("completes");
    let mut other = batch(4);
    other[0].seed += 1;
    match engine(1, None).resume_from(&other, &mut journal, &opts) {
        Err(CusFftError::Journal { reason }) => {
            assert!(reason.contains("different batch"), "{reason}");
        }
        other => panic!("expected typed journal error, got {other:?}"),
    }

    // An empty journal has no Admitted record.
    let mut empty = Journal::new();
    assert!(matches!(
        engine(1, None).resume_from(&requests, &mut empty, &opts),
        Err(CusFftError::Journal { .. })
    ));
}
