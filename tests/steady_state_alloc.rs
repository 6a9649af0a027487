//! Steady-state allocation invariant (DESIGN.md §13): after
//! `ExecutePlan::warm` has pre-sized the worker arena and one warmup
//! request has populated the exact-length free lists, serving further
//! identical-shape requests performs **zero** tracked `MemPool`
//! operations — every device-scratch acquisition is an arena hit. The
//! invariant is what makes the serving hot path allocation-free: pool
//! traffic is a one-time group-warmup cost, not a per-request cost.

use std::sync::Arc;

use cusfft::backend::worker_device;
use cusfft::{
    Backend, BackendKind, ExecStreams, ExecutePlan, GpuSimBackend, PlanKey, ServeConfig,
    ServeEngine, ServeQos, ServeRequest, Variant,
};
use fft::Cplx;
use gpu_sim::{DeviceSpec, GpuDevice};
use signal::{MagnitudeModel, SparseSignal};

/// One full request through the grouped `ExecutePlan` surface: stage the
/// upload, run the front half, the batched-FFT barrier, and the grouped
/// back half.
fn run_once(
    plan: &Arc<dyn ExecutePlan>,
    device: &GpuDevice,
    streams: &ExecStreams,
    time: &[Cplx],
    seed: u64,
) {
    plan.stage_group(device, std::mem::size_of_val(time), streams.main)
        .expect("fault-free staging");
    let mut prep = plan
        .prepare(device, time, seed, streams)
        .expect("fault-free prepare");
    plan.run_batched_ffts(device, &mut [&mut prep], streams.main)
        .expect("fault-free batched FFT");
    let results = plan.finish_group(device, &[&prep], streams);
    assert_eq!(results.len(), 1);
    results
        .into_iter()
        .next()
        .unwrap()
        .expect("fault-free finish");
}

/// After warm + one warmup request, N identical requests must leave the
/// device's `MemPool` op counters and the arena's miss counter exactly
/// where they were, while the arena hit counter keeps climbing.
fn assert_zero_alloc_steady_state(variant: Variant) {
    let n = 1 << 10;
    let k = 4;
    let spec = DeviceSpec::tesla_k20x();
    let home = Arc::new(worker_device(&spec, None));
    let plan = GpuSimBackend::default().build_plan(
        &home,
        PlanKey {
            n,
            k,
            variant,
            qos: ServeQos::Full,
            backend: BackendKind::GpuSim,
        },
    );

    let device = worker_device(&spec, None);
    let streams = ExecStreams::on_device_private(&device, plan.num_streams());
    let sig = SparseSignal::generate(n, k, MagnitudeModel::Unit, 11);

    plan.warm(&device, &streams, 1).expect("fault-free warm");
    // Warmup request: shapes the warm pass cannot know up front (the
    // estimation-value buffer is sized by the located-hit count) take
    // their one miss here.
    run_once(&plan, &device, &streams, &sig.time, 42);

    let alloc0 = device.pool_alloc_ops();
    let release0 = device.pool_release_ops();
    let stats0 = streams.arena.stats();

    for _ in 0..5 {
        run_once(&plan, &device, &streams, &sig.time, 42);
    }

    let stats1 = streams.arena.stats();
    assert_eq!(
        device.pool_alloc_ops(),
        alloc0,
        "{variant:?}: steady-state requests must not touch the MemPool (allocs)"
    );
    assert_eq!(
        device.pool_release_ops(),
        release0,
        "{variant:?}: steady-state requests must not touch the MemPool (releases)"
    );
    assert_eq!(
        stats1.fresh_misses, stats0.fresh_misses,
        "{variant:?}: every steady-state acquisition must be an arena hit"
    );
    assert!(
        stats1.reuse_hits > stats0.reuse_hits,
        "{variant:?}: steady state still acquires scratch — through the free list"
    );
}

#[test]
fn baseline_steady_state_allocates_nothing() {
    assert_zero_alloc_steady_state(Variant::Baseline);
}

#[test]
fn optimized_steady_state_allocates_nothing() {
    assert_zero_alloc_steady_state(Variant::Optimized);
}

/// The same invariant observed from the serving layer's own telemetry:
/// serving one group twice in a row costs the same warmup pool traffic
/// both times (each `serve_batch` call starts from a reset arena), and
/// a *wider* batch of the same shape costs proportionally more warmup
/// but identical per-request reuse — pool ops scale with groups, not
/// with requests.
#[test]
fn serve_report_pool_traffic_is_per_group_not_per_request() {
    let n = 1 << 10;
    let k = 4;
    let engine = ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid");
    let req = || {
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 11);
        ServeRequest::new(s.time, k, Variant::Optimized, 42)
    };

    let narrow = engine.serve_batch(&[req()]);
    let wide = engine.serve_batch(&[req(), req(), req(), req()]);

    assert!(narrow.pool.alloc_ops > 0, "warmup must reserve something");
    assert_eq!(
        narrow.pool.alloc_ops, narrow.pool.release_ops,
        "group-end arena reset returns every reservation"
    );
    assert_eq!(
        wide.pool.alloc_ops, wide.pool.release_ops,
        "group-end arena reset returns every reservation"
    );
    // Same-shape requests share the group's warmed pools: widening the
    // batch 4x must not multiply pool traffic 4x (request-lifetime
    // buffers scale with width; per-request scratch is recycled).
    assert!(
        wide.pool.alloc_ops < 4 * narrow.pool.alloc_ops,
        "pool traffic must be sublinear in batch width: narrow={}, wide={}",
        narrow.pool.alloc_ops,
        wide.pool.alloc_ops
    );
    assert!(
        wide.pool.reuse_hits > narrow.pool.reuse_hits,
        "wider batches reuse more"
    );
}
