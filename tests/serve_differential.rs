//! Differential tests for the serving layer: `cusfft::serve` must be a
//! pure batching/scheduling optimisation. For every request in a batch —
//! any batch composition, any worker count — the recovered spectrum must
//! be **bit-identical** to running `CusFft::execute` directly on a fresh
//! device, and the whole run (outputs *and* simulated timeline) must be
//! deterministic despite multi-threaded dispatch.

use std::sync::Arc;

use cusfft::{CusFft, ServeConfig, ServeEngine, ServeRequest, Variant};
use gpu_sim::{DeviceSpec, GpuDevice};
use sfft_cpu::SfftParams;
use signal::{MagnitudeModel, SparseSignal};

/// A mixed-geometry batch: three signal lengths, two sparsities, both
/// variants, distinct seeds — enough to populate several plan groups.
fn mixed_batch(len: usize) -> Vec<ServeRequest> {
    let geometries = [
        (1 << 10, 4, Variant::Optimized),
        (1 << 11, 8, Variant::Optimized),
        (1 << 10, 4, Variant::Baseline),
        (1 << 12, 8, Variant::Optimized),
    ];
    (0..len)
        .map(|i| {
            let (n, k, variant) = geometries[i % geometries.len()];
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 1000 + i as u64);
            ServeRequest::new(s.time, k, variant, 31 * i as u64 + 7)
        })
        .collect()
}

/// Direct single-shot execution of one request on a fresh device.
fn direct(req: &ServeRequest) -> (signal::Recovered, usize) {
    let plan = CusFft::new(
        Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x())),
        Arc::new(SfftParams::tuned(req.time.len(), req.k)),
        req.variant,
    );
    let out = plan.execute(&req.time, req.seed);
    (out.recovered, out.num_hits)
}

#[test]
fn serve_is_bit_identical_to_direct_execute() {
    for &batch_len in &[1usize, 3, 6, 8] {
        for &workers in &[1usize, 2, 4] {
            let engine = ServeEngine::new(
                DeviceSpec::tesla_k20x(),
                ServeConfig {
                    workers,
                    cache_capacity: 8,
                    ..ServeConfig::default()
                },
            )
            .expect("serve config is valid");
            let reqs = mixed_batch(batch_len);
            let report = engine.serve_batch(&reqs);
            assert_eq!(report.outcomes.len(), batch_len);
            for (i, (req, outcome)) in reqs.iter().zip(&report.outcomes).enumerate() {
                let (want, want_hits) = direct(req);
                let resp = outcome.response().expect("fault-free serving completes");
                assert_eq!(
                    resp.recovered, want,
                    "batch {batch_len}, workers {workers}, request {i}: \
                     served spectrum differs from direct execution"
                );
                assert_eq!(resp.num_hits, want_hits);
            }
        }
    }
}

#[test]
fn worker_count_never_changes_results() {
    let reqs = mixed_batch(6);
    let serve = |workers| {
        ServeEngine::new(
            DeviceSpec::tesla_k20x(),
            ServeConfig {
                workers,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        )
        .expect("serve config is valid")
        .serve_batch(&reqs)
    };
    let base = serve(1);
    for workers in 2..=4 {
        let report = serve(workers);
        for (a, b) in base.responses().zip(report.responses()) {
            assert_eq!(a.recovered, b.recovered, "workers={workers}");
            assert_eq!(a.num_hits, b.num_hits);
        }
        assert_eq!(base.outcomes.len(), report.outcomes.len());
    }
}

#[test]
fn repeated_runs_reproduce_spectra_and_timeline() {
    // Two engines, same config, same batch: outputs AND the merged
    // simulated timeline must match bit-for-bit — the deterministic op
    // merge makes the timeline a function of (requests, config), not of
    // OS thread scheduling.
    let reqs = mixed_batch(8);
    let run = || {
        ServeEngine::new(
            DeviceSpec::tesla_k20x(),
            ServeConfig {
                workers: 3,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        )
        .expect("serve config is valid")
        .serve_batch(&reqs)
    };
    let a = run();
    let b = run();
    for (ra, rb) in a.responses().zip(b.responses()) {
        assert_eq!(ra.recovered, rb.recovered);
        assert_eq!(ra.num_hits, rb.num_hits);
        assert_eq!(ra.path, rb.path);
    }
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "simulated makespan must be bit-identical across runs"
    );
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
    assert_eq!(
        a.concurrency, b.concurrency,
        "per-stream occupancy profile must be identical across runs"
    );
    assert_eq!(a.groups, b.groups);
}

#[test]
fn cache_counters_accumulate_across_batches() {
    let engine = ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        ServeConfig {
            workers: 2,
            cache_capacity: 8,
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid");
    let reqs = mixed_batch(8); // 4 distinct geometries, each twice
    let first = engine.serve_batch(&reqs);
    assert_eq!(first.cache.misses, 4, "one build per geometry");
    assert_eq!(first.cache.hits, 4, "second request of each geometry hits");
    let second = engine.serve_batch(&reqs);
    assert_eq!(second.cache.misses, 4, "no rebuilds on the second batch");
    assert_eq!(second.cache.hits, 12, "all eight requests hit");
    assert!(second.cache.hit_rate() > 0.7);
}

#[test]
fn multi_group_batches_occupy_concurrent_streams() {
    let engine = ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        ServeConfig {
            workers: 2,
            cache_capacity: 8,
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid");
    let report = engine.serve_batch(&mixed_batch(8));
    assert!(
        report.concurrency.max_concurrent_streams >= 2,
        "expected overlapping streams, got {}",
        report.concurrency.max_concurrent_streams
    );
    // Every worker's backbone stream shows up in the per-stream table.
    assert!(report.concurrency.per_stream.len() >= 2);
}
