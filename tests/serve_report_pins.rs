//! Whole-report pins for every serving entry point.
//!
//! Each case serves a fixed batch through one public entry point and
//! compares an FNV-1a-64 digest of the report's `Debug` rendering with a
//! checked-in value. The `Debug` form covers every field — outcomes,
//! tallies, the merged timeline, group info, kernel roll-ups and the
//! audit log — and is deterministic: reports hold no hash maps, and
//! floats print in shortest round-trip form. A refactor of the serving
//! layers that changes any byte of any report fails here, and the
//! failure prints the digest the code now produces.
//!
//! The grid is workers {1, 2} × faults {none; uniform 2% plus 1% SDC;
//! persistent with CPU fallback off} × audit {off, on}. Every case
//! builds a fresh engine or fleet, so no cache state leaks between
//! cases, and nothing reads the environment.

use cusfft::{
    nominal_service, DeviceFleet, FleetConfig, Journal, JournalOptions, OverloadConfig,
    ServeConfig, ServeCrash, ServeEngine, ServeReport, ServeRequest, TimedRequest, Variant,
};
use gpu_sim::{CrashPlan, DeviceSpec, FaultConfig};
use signal::{MagnitudeModel, SparseSignal};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a64(format!("{value:?}").as_bytes())
}

/// Eleven valid requests over three signal lengths and both tiers.
fn requests() -> Vec<ServeRequest> {
    let geometries = [
        (1 << 9, 4, Variant::Optimized),
        (1 << 10, 4, Variant::Optimized),
        (1 << 11, 8, Variant::Optimized),
        (1 << 10, 4, Variant::Baseline),
    ];
    (0..11)
        .map(|i| {
            let (n, k, variant) = geometries[i % geometries.len()];
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 7000 + i as u64);
            ServeRequest::new(s.time, k, variant, 31 * i as u64 + 9)
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Faults {
    None,
    Uniform,
    Persistent,
}

/// The case grid, in digest-table order.
fn cases() -> Vec<(usize, Faults, bool)> {
    let mut out = Vec::new();
    for workers in [1, 2] {
        for faults in [Faults::None, Faults::Uniform, Faults::Persistent] {
            for audit in [false, true] {
                out.push((workers, faults, audit));
            }
        }
    }
    out
}

fn config(workers: usize, faults: Faults, audit: bool) -> ServeConfig {
    let (faults, cpu_fallback) = match faults {
        Faults::None => (None, true),
        Faults::Uniform => (Some(FaultConfig::uniform(7, 0.02).with_sdc(0.01)), true),
        Faults::Persistent => (Some(FaultConfig::persistent(7)), false),
    };
    ServeConfig {
        workers,
        faults,
        cpu_fallback,
        audit,
        ..ServeConfig::default()
    }
}

fn engine(cfg: ServeConfig) -> ServeEngine {
    ServeEngine::new(DeviceSpec::tesla_k20x(), cfg).expect("serve config is valid")
}

/// Runs every case through `serve`, which returns one or more digests
/// per case, and checks them against `pinned` (flattened in case
/// order). Reports every mismatch with its actual value before failing.
fn check(what: &str, pinned: &[u64], serve: impl Fn(ServeConfig) -> Vec<u64>) {
    let mut actual = Vec::new();
    let mut bad = Vec::new();
    for (workers, faults, audit) in cases() {
        let got = serve(config(workers, faults, audit));
        for (j, d) in got.into_iter().enumerate() {
            let i = actual.len();
            if pinned.get(i) != Some(&d) {
                let pin = pinned
                    .get(i)
                    .map_or("none".into(), |p| format!("{p:#018x}"));
                bad.push(format!(
                    "  workers={workers} faults={faults:?} audit={audit} digest#{j}: \
                     pinned {pin}, actual {d:#018x}"
                ));
            }
            actual.push(d);
        }
    }
    assert!(
        bad.is_empty() && actual.len() == pinned.len(),
        "{what}: {} of {} digests differ (pinned {}):\n{}\nactual table: [{}]",
        bad.len(),
        actual.len(),
        pinned.len(),
        bad.join("\n"),
        actual
            .iter()
            .map(|d| format!("{d:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

#[test]
fn serve_batch_reports_are_pinned() {
    let reqs = requests();
    check("serve_batch", &BATCH, |cfg| {
        vec![digest(&engine(cfg).serve_batch(&reqs))]
    });
}

#[test]
fn serve_overload_reports_are_pinned() {
    let spec = DeviceSpec::tesla_k20x();
    let reqs = requests();
    // Paced at 3× the admission model's drain rate, with a deadline on
    // every 4th request, so shedding, brownout and deadline rejection
    // all have work to do.
    let gap = nominal_service(&spec, 1 << 10, 4) / 3.0;
    let trace: Vec<TimedRequest> = reqs
        .into_iter()
        .enumerate()
        .map(|(j, r)| {
            let t = TimedRequest::at(r, j as f64 * gap);
            if j % 4 == 3 {
                t.with_deadline(4.0 * gap)
            } else {
                t
            }
        })
        .collect();
    let policy = OverloadConfig {
        queue_capacity: 4,
        brownout_depth: 2,
        hedge_percentile: 0.5,
        hedge_factor: 1.25,
        ..OverloadConfig::default()
    };
    check("serve_overload", &OVERLOAD, |cfg| {
        vec![digest(&engine(cfg).serve_overload(&trace, &policy))]
    });
}

#[test]
fn fleet_reports_are_pinned() {
    let reqs = requests();
    check("DeviceFleet::serve", &FLEET, |cfg| {
        let mut fleet = FleetConfig::heterogeneous();
        // Certain loss of the K20x at the first epoch.
        let base = cfg.faults.unwrap_or(FaultConfig::uniform(7, 0.0));
        fleet.members[0].faults = Some(base.with_device_loss(1.0));
        let fleet = DeviceFleet::new(fleet, cfg).expect("fleet config is valid");
        vec![digest(&fleet.serve(&reqs))]
    });
}

/// Crashes a journaled run at epoch 1, resumes it, and returns the
/// crash descriptor and the resumed report.
fn crash_and_resume(engine: &ServeEngine, reqs: &[ServeRequest]) -> (ServeCrash, ServeReport) {
    let mut journal = Journal::new();
    let crash_opts = JournalOptions {
        epoch_groups: 1,
        crash: CrashPlan::at_epoch(1),
    };
    let crash = engine
        .serve_journaled(reqs, &mut journal, &crash_opts)
        .crash()
        .copied()
        .expect("the crash plan fires at epoch 1");
    let opts = JournalOptions {
        epoch_groups: 1,
        crash: CrashPlan::never(),
    };
    let report = engine
        .resume_from(reqs, &mut journal, &opts)
        .expect("the durable journal is valid")
        .into_report()
        .expect("an unarmed resume completes");
    (crash, report)
}

#[test]
fn journaled_crash_and_resume_are_pinned() {
    let reqs = requests();
    check("serve_journaled + resume_from", &JOURNAL, |cfg| {
        let (crash, report) = crash_and_resume(&engine(cfg), &reqs);
        vec![digest(&crash), digest(&report)]
    });
}

/// The pins were generated before `throughput` became completed requests
/// over the makespan on every path; `serve_batch` and the journal used
/// to divide every submitted request. That changed exactly the eight
/// reports in which every request fails (persistent faults without CPU
/// fallback), where `throughput` is now 0. Restoring the old value in
/// those reports must give back the digests pinned before the change,
/// so `throughput` is the only byte that moved.
#[test]
fn all_failed_reports_differ_from_earlier_pins_only_in_throughput() {
    let reqs = requests();
    let old_digest = |mut r: ServeReport| {
        assert_eq!(r.throughput, 0.0, "every request fails: {:?}", r.faults);
        r.throughput = r.outcomes.len() as f64 / r.makespan;
        digest(&r)
    };
    let mut actual = Vec::new();
    for workers in [1, 2] {
        for audit in [false, true] {
            let cfg = config(workers, Faults::Persistent, audit);
            actual.push(old_digest(engine(cfg).serve_batch(&reqs)));
            actual.push(old_digest(crash_and_resume(&engine(cfg), &reqs).1));
        }
    }
    assert_eq!(
        actual,
        [
            0xcca99a9cca35bf59, // batch, workers 1, audit off
            0xff5f94f7713b151c, // resumed journal, workers 1, audit off
            0xc2c2ed707087a01d, // batch, workers 1, audit on
            0xe53d4e76df767fd3, // resumed journal, workers 1, audit on
            0xa831f395c7e9ab6f, // batch, workers 2, audit off
            0xff5f94f7713b151c, // resumed journal, workers 2, audit off
            0x01460a9230ca499f, // batch, workers 2, audit on
            0xe53d4e76df767fd3, // resumed journal, workers 2, audit on
        ]
    );
}

// Generated by this test's failure output; one row per case. Rows
// marked "(throughput)" are the eight reports the throughput definition
// changed; `all_failed_reports_differ_from_earlier_pins_only_in_throughput`
// holds their earlier digests.
const BATCH: [u64; 12] = [
    0xfdc44a126775dbe7, // workers 1, none, audit off
    0xa9ea7cca53b68260, // workers 1, none, audit on
    0xf3671e3b91b4302e, // workers 1, uniform, audit off
    0x83524e9dd9c3fb63, // workers 1, uniform, audit on
    0x6b40d9639d3cf964, // workers 1, persistent, audit off (throughput)
    0x65dbc465dce734a0, // workers 1, persistent, audit on (throughput)
    0x493df06d5ce333c6, // workers 2, none, audit off
    0xa3ecbb4c92ff0c9f, // workers 2, none, audit on
    0x393105ed2652484e, // workers 2, uniform, audit off
    0xc0bd3bfa32be23c3, // workers 2, uniform, audit on
    0x15fbaca3bc5fa484, // workers 2, persistent, audit off (throughput)
    0x0acb9c6ccb5c7640, // workers 2, persistent, audit on (throughput)
];
const OVERLOAD: [u64; 12] = [
    0xfacbee9990379a7e, // workers 1, none, audit off
    0xa542d496f521767d, // workers 1, none, audit on
    0xc7b4a1e22845e217, // workers 1, uniform, audit off
    0xd7fa14f21b87b7de, // workers 1, uniform, audit on
    0x44682ca8574417ee, // workers 1, persistent, audit off
    0x8c502cbc26737d50, // workers 1, persistent, audit on
    0xfacbee9990379a7e, // workers 2, none, audit off
    0xa542d496f521767d, // workers 2, none, audit on
    0xc7b4a1e22845e217, // workers 2, uniform, audit off
    0xd7fa14f21b87b7de, // workers 2, uniform, audit on
    0x44682ca8574417ee, // workers 2, persistent, audit off
    0x8c502cbc26737d50, // workers 2, persistent, audit on
];
const FLEET: [u64; 12] = [
    0xa955cb3da30c3b26, // workers 1, none, audit off
    0x14033955f64778e3, // workers 1, none, audit on
    0x67b3cbca6108bf60, // workers 1, uniform, audit off
    0xfd4b98a3da971357, // workers 1, uniform, audit on
    0x3b8521c3ed5dc30c, // workers 1, persistent, audit off
    0xfb4c20a0d23c2e86, // workers 1, persistent, audit on
    0xa955cb3da30c3b26, // workers 2, none, audit off
    0x14033955f64778e3, // workers 2, none, audit on
    0x67b3cbca6108bf60, // workers 2, uniform, audit off
    0xfd4b98a3da971357, // workers 2, uniform, audit on
    0x3b8521c3ed5dc30c, // workers 2, persistent, audit off
    0xfb4c20a0d23c2e86, // workers 2, persistent, audit on
];
// Per case: the `ServeCrash` of the run killed at epoch 1, then the
// resumed report.
const JOURNAL: [u64; 24] = [
    0x433328ff535331d9,
    0x54a7bcb197774db5, // workers 1, none, audit off
    0x433328ff535331d9,
    0xef6f8b044d3b4fb0, // workers 1, none, audit on
    0x3dfeb4f5948d41e0,
    0x64396a16e0285476, // workers 1, uniform, audit off
    0x3dfeb4f5948d41e0,
    0x7d9bca712c3a1d07, // workers 1, uniform, audit on
    0x3764ab66fb97e48a,
    0xfb01411ab83469b6, // workers 1, persistent, audit off (throughput)
    0x3764ab66fb97e48a,
    0x892e312e8d268455, // workers 1, persistent, audit on (throughput)
    0x433328ff535331d9,
    0x54a7bcb197774db5, // workers 2, none, audit off
    0x433328ff535331d9,
    0xef6f8b044d3b4fb0, // workers 2, none, audit on
    0x3dfeb4f5948d41e0,
    0x64396a16e0285476, // workers 2, uniform, audit off
    0x3dfeb4f5948d41e0,
    0x7d9bca712c3a1d07, // workers 2, uniform, audit on
    0x3764ab66fb97e48a,
    0xfb01411ab83469b6, // workers 2, persistent, audit off (throughput)
    0x3764ab66fb97e48a,
    0x892e312e8d268455, // workers 2, persistent, audit on (throughput)
];
