//! Fleet serving contract tests — see DESIGN.md §14.
//!
//! Pinned contracts:
//!
//! 1. **Routing determinism** — the fleet [`ServeReport`] (outcomes,
//!    makespan, fleet tally, per-device summaries, merged timeline) is
//!    **bit-identical** across serve worker counts and host pool widths:
//!    every routing, breaker, health and clock decision happens on the
//!    coordinator thread, in group order, from deterministic inputs.
//! 2. **Loss never fails a request** — under certain whole-device loss
//!    (even fleet-wide), every request still completes: failover onto
//!    standby slabs where a healthy member exists, the CPU tier where
//!    none does. `FaultTally::failed` stays zero.
//! 3. **Failover is allocation-free** — failover placements ride the
//!    standby slabs reserved at fleet build; the only pool allocations a
//!    serve call performs are the primary routing reservations, and all
//!    of them are returned by the end of the call.
//! 4. **Drain/recovery lifecycle** — a member whose breaker keeps
//!    tripping is quarantined, probed after its cooldown, and the fleet
//!    serves on around it.
//! 5. **Brownout** — when healthy capacity collapses, full-QoS groups
//!    degrade instead of requests failing.
//!
//! The fault seed honours `CUSFFT_FAULT_SEED` so CI can sweep seeds.

use cusfft::{
    observe, CusFftError, DeviceFleet, FleetConfig, ServeConfig, ServePath, ServeQos, ServeReport,
    ServeRequest, Variant,
};
use gpu_sim::{BreakerConfig, FaultConfig};
use signal::{MagnitudeModel, SparseSignal};

/// Fault seed under test; CI sweeps this via the environment.
fn fault_seed() -> u64 {
    std::env::var("CUSFFT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// A mixed-geometry batch producing several plan groups (grouping is by
/// plan key, so distinct `(n, variant)` pairs give distinct groups).
fn batch(len: usize) -> Vec<ServeRequest> {
    let geometries = [
        (1 << 10, 4, Variant::Optimized),
        (1 << 11, 8, Variant::Optimized),
        (1 << 12, 8, Variant::Optimized),
        (1 << 10, 4, Variant::Baseline),
        (1 << 11, 8, Variant::Baseline),
        (1 << 12, 8, Variant::Baseline),
    ];
    (0..len)
        .map(|i| {
            let (n, k, variant) = geometries[i % geometries.len()];
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 3000 + i as u64);
            ServeRequest::new(s.time, k, variant, 19 * i as u64 + 5)
        })
        .collect()
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

/// Asserts two fleet reports are bit-identical in every deterministic
/// dimension, including the merged op timeline.
fn assert_same_report(a: &ServeReport, b: &ServeReport, what: &str) {
    assert_eq!(a.outcomes, b.outcomes, "{what}: outcomes diverged");
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{what}: makespan diverged"
    );
    assert_eq!(a.fleet, b.fleet, "{what}: fleet tally diverged");
    assert_eq!(a.devices, b.devices, "{what}: device summaries diverged");
    assert_eq!(a.faults, b.faults, "{what}: fault tally diverged");
    let ops = |r: &ServeReport| -> Vec<String> {
        r.timeline.ops.iter().map(|o| format!("{o:?}")).collect()
    };
    assert_eq!(ops(a), ops(b), "{what}: merged timeline diverged");
}

/// A heterogeneous fleet with faults plus certain device loss targeted
/// at member 0 — the stress topology the determinism matrix runs.
fn lossy_fleet(workers: usize) -> DeviceFleet {
    let mut fleet = FleetConfig::heterogeneous();
    fleet.members[0].faults = Some(FaultConfig::uniform(fault_seed(), 0.2).with_device_loss(1.0));
    fleet.members[2].faults = Some(FaultConfig::uniform(fault_seed().wrapping_add(1), 0.1));
    DeviceFleet::new(
        fleet,
        ServeConfig {
            workers,
            cache_capacity: 8,
            ..ServeConfig::default()
        },
    )
    .expect("fleet config is valid")
}

#[test]
fn fleet_report_bit_identical_across_workers_and_pool_widths() {
    let reqs = batch(12);
    let reference = with_pool(1, || lossy_fleet(1).serve(&reqs));
    assert!(
        reference.outcomes.iter().all(|o| o.response().is_some()),
        "sanity: the stress batch completes"
    );
    assert!(
        reference.fleet.device_losses >= 1,
        "sanity: member 0 went dark"
    );
    for workers in [1usize, 2, 4] {
        for pool in [1usize, 8] {
            let report = with_pool(pool, || lossy_fleet(workers).serve(&reqs));
            assert_same_report(
                &reference,
                &report,
                &format!("workers={workers} pool={pool}"),
            );
        }
    }
}

#[test]
fn certain_loss_of_every_member_still_completes_on_cpu() {
    // Both members roll certain device loss at the first epoch: no
    // healthy failover target exists, so the whole batch lands on the
    // CPU tier — and still completes.
    let mut cfg = FleetConfig::homogeneous(2);
    for m in &mut cfg.members {
        m.faults = Some(FaultConfig::uniform(fault_seed(), 0.0).with_device_loss(1.0));
    }
    let fleet = DeviceFleet::new(cfg, ServeConfig::default()).expect("fleet config is valid");
    let reqs = batch(8);
    let report = fleet.serve(&reqs);
    assert!(report.outcomes.iter().all(|o| o.response().is_some()));
    assert_eq!(report.faults.failed, 0, "loss must never fail a request");
    assert_eq!(report.fleet.device_losses, 2);
    assert!(report.devices.iter().all(|d| d.lost));
    assert!(report.fleet.cpu_served_groups > 0);
    assert!(report.fleet.failovers > 0);
    for o in &report.outcomes {
        let resp = o.response().expect("checked above");
        assert_eq!(resp.path, ServePath::Cpu);
    }
    // CPU-served groups carry no device attribution.
    assert!(report.group_info.iter().all(|g| g.device.is_none()));
}

#[test]
fn failover_rides_standby_slabs_with_no_extra_pool_traffic() {
    // Member 0 goes dark at epoch 0; member 1 absorbs its placements
    // through the pre-reserved standby slots.
    let mut cfg = FleetConfig::homogeneous(2);
    cfg.members[0].faults = Some(FaultConfig::uniform(fault_seed(), 0.0).with_device_loss(1.0));
    let fleet = DeviceFleet::new(cfg, ServeConfig::default()).expect("fleet config is valid");
    let before = fleet.pool_traffic();
    let report = fleet.serve(&batch(8));
    let after = fleet.pool_traffic();

    assert!(report.outcomes.iter().all(|o| o.response().is_some()));
    assert_eq!(report.faults.failed, 0);
    assert!(report.fleet.failovers > 0, "loss must trigger failover");
    // Every failover that found a healthy member acquired a standby
    // slot; none of them touched a pool.
    let landed: u64 = report.devices.iter().map(|d| d.failovers_in).sum();
    assert_eq!(report.fleet.standby_acquires, landed);
    let allocs: u64 = after
        .iter()
        .zip(&before)
        .map(|((a, _), (b, _))| a - b)
        .sum();
    assert_eq!(
        allocs, report.fleet.routed_groups,
        "the only pool allocations are primary routing reservations"
    );
    // And every reservation taken during the call was returned.
    for ((alloc, release), (alloc0, release0)) in after.iter().zip(&before) {
        assert_eq!(alloc - alloc0, release - release0);
    }
}

#[test]
fn tripped_member_drains_probes_and_the_fleet_keeps_serving() {
    // Member 0 faults on every op (seed-independent), under a
    // hair-trigger breaker and a one-epoch quarantine: it trips, drains,
    // and is probed after cooldown; the probes keep faulting, so it ends
    // the call still quarantined — while every request completes.
    let mut cfg = FleetConfig::homogeneous(2);
    cfg.members[0].faults = Some(FaultConfig::persistent(fault_seed()));
    cfg.breaker = BreakerConfig {
        window: 2,
        trip_faults: 1,
        cooldown: 1,
    };
    cfg.drain_after_trips = 1;
    cfg.drain_cooldown_epochs = 1;
    cfg.epoch_groups = 2;
    let fleet = DeviceFleet::new(cfg, ServeConfig::default()).expect("fleet config is valid");
    let report = fleet.serve(&batch(12));

    assert!(report.outcomes.iter().all(|o| o.response().is_some()));
    assert_eq!(report.faults.failed, 0);
    assert!(report.fleet.drains >= 1, "member 0 must enter quarantine");
    assert!(
        report.fleet.drain_probes >= 1,
        "quarantine must be probed after its cooldown"
    );
    assert!(report.devices[0].trips >= 1);
    assert!(
        report.devices[0].drained,
        "persistent faults keep member 0 out"
    );
    assert!(!report.devices[1].drained);
    assert!(
        report.devices[1].groups > 0,
        "the healthy member carries the load"
    );
}

#[test]
fn capacity_collapse_degrades_qos_instead_of_shedding() {
    // The two fast members (K20x, K40) go dark at epoch 0, leaving only
    // the budget Quadro: healthy modeled speed collapses below the
    // brownout fraction, so later epochs re-key full-QoS groups to
    // Degraded plans rather than dropping them.
    let mut cfg = FleetConfig::heterogeneous();
    cfg.members[0].faults = Some(FaultConfig::uniform(fault_seed(), 0.0).with_device_loss(1.0));
    cfg.members[1].faults =
        Some(FaultConfig::uniform(fault_seed().wrapping_add(9), 0.0).with_device_loss(1.0));
    cfg.epoch_groups = 1;
    let fleet = DeviceFleet::new(cfg, ServeConfig::default()).expect("fleet config is valid");
    let report = fleet.serve(&batch(12));

    assert!(report.outcomes.iter().all(|o| o.response().is_some()));
    assert_eq!(report.faults.failed, 0);
    assert!(
        report.fleet.brownout_groups >= 1,
        "capacity collapse must trigger brownout: {:?}",
        report.fleet
    );
    assert!(
        report
            .outcomes
            .iter()
            .filter_map(|o| o.response())
            .any(|r| r.qos == ServeQos::Degraded),
        "browned-out groups serve degraded responses"
    );
    assert!(
        report
            .timeline
            .ops
            .iter()
            .any(|o| o.label == "fleet:brownout"),
        "the brownout decision is on the control timeline"
    );
}

#[test]
fn invalid_fleet_configs_are_typed_errors() {
    let empty = DeviceFleet::new(FleetConfig::default(), ServeConfig::default());
    assert!(matches!(
        empty.unwrap_err(),
        CusFftError::BadConfig { ref reason } if reason.contains("no members")
    ));

    let mut zero_epoch = FleetConfig::homogeneous(1);
    zero_epoch.epoch_groups = 0;
    assert!(matches!(
        DeviceFleet::new(zero_epoch, ServeConfig::default()).unwrap_err(),
        CusFftError::BadConfig { ref reason } if reason.contains("epoch_groups")
    ));

    let mut bad_fraction = FleetConfig::homogeneous(1);
    bad_fraction.brownout_capacity_fraction = 1.5;
    assert!(matches!(
        DeviceFleet::new(bad_fraction, ServeConfig::default()).unwrap_err(),
        CusFftError::BadConfig { ref reason } if reason.contains("brownout")
    ));

    let zero_workers = DeviceFleet::new(
        FleetConfig::homogeneous(1),
        ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        },
    );
    assert!(matches!(
        zero_workers.unwrap_err(),
        CusFftError::BadConfig { .. }
    ));
}

#[test]
fn fleet_telemetry_exports_the_device_dimension() {
    let report = lossy_fleet(2).serve(&batch(12));

    // The span tree still covers the merged timeline exactly once.
    let tree = observe::span_tree(&report);
    tree.validate(report.timeline.ops.len())
        .expect("fleet span tree must validate");

    // Loss and failover decisions are visible as control-plane ops.
    assert!(report
        .timeline
        .ops
        .iter()
        .any(|o| o.label.starts_with("fault:device_loss:member0")));
    assert!(report
        .timeline
        .ops
        .iter()
        .any(|o| o.label.starts_with("fleet:failover:m0:")));

    // The metrics exposition grows the device dimension and the fleet
    // event counters.
    let prom = observe::metrics_registry(&report).render_prometheus();
    assert!(prom.contains("cusfft_fleet_events_total"), "{prom}");
    assert!(prom.contains("kind=\"device_loss\""));
    assert!(prom.contains("kind=\"failover\""));
    assert!(prom.contains("cusfft_fleet_device_health"));
    assert!(
        prom.contains("device=\"0/Tesla K20x\""),
        "served/device metrics carry the id/spec label"
    );
}
