//! Determinism tests for the host execution engine: the work-stealing
//! pool behind `gpu-sim`'s launch paths is a *host-side* optimisation
//! only. For any pool width — including the width-1 inline sequential
//! path — the recovered spectrum, the per-kernel [`KernelStats`], the
//! modelled cost timeline, and the simulated clock must be
//! **bit-identical**. The pool guarantees this by construction (chunk
//! boundaries depend only on the launch geometry, results are collected
//! in block order — see `third_party/rayon`), and these tests pin the
//! contract end to end through the full cusFFT pipeline and the serving
//! layer.
//!
//! [`KernelStats`]: gpu_sim::KernelStats

use std::sync::Arc;

use cusfft::{CusFft, ServeConfig, ServeEngine, ServeRequest, Variant};
use gpu_sim::{DeviceSpec, GpuDevice};
use sfft_cpu::SfftParams;
use signal::{MagnitudeModel, SparseSignal};

/// Pool widths exercised everywhere: the inline sequential path (1), a
/// minimal real pool (2), and a wider-than-this-host pool (8).
const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// Everything observable from one pipeline run, flattened to comparable
/// form. `KernelStats` and `Op` carry `f64`s without `PartialEq` on the
/// containing types, so we fingerprint through `Debug` — Rust's float
/// Debug is shortest-roundtrip, i.e. distinct bits give distinct text.
#[derive(PartialEq)]
struct RunFingerprint {
    recovered: signal::Recovered,
    num_hits: usize,
    sim_time_bits: u64,
    /// One line per launch record: label + aggregated KernelStats + cost.
    records: Vec<String>,
    /// The raw op timeline (enqueue order, durations, dependencies).
    ops: Vec<String>,
}

impl std::fmt::Debug for RunFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RunFingerprint {{ hits: {}, sim_time: {}, records: {}, ops: {} }}",
            self.num_hits,
            f64::from_bits(self.sim_time_bits),
            self.records.len(),
            self.ops.len()
        )
    }
}

/// Runs the full pipeline on a fresh device and captures the fingerprint.
fn run_once(variant: Variant, log2_n: u32, k: usize, seed: u64) -> RunFingerprint {
    let n = 1usize << log2_n;
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, seed);
    let device = Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x()));
    let plan = CusFft::new(device.clone(), Arc::new(SfftParams::tuned(n, k)), variant);
    let out = plan.execute(&s.time, seed);
    RunFingerprint {
        recovered: out.recovered,
        num_hits: out.num_hits,
        sim_time_bits: out.sim_time.to_bits(),
        records: device
            .records()
            .iter()
            .map(|r| {
                format!(
                    "{:?} {:?} {:?} {:?} {}",
                    r.name, r.stats, r.cost, r.stream, r.bound
                )
            })
            .collect(),
        ops: device.ops().iter().map(|o| format!("{o:?}")).collect(),
    }
}

/// The same closure under an explicit pool width.
fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build is infallible")
        .install(f)
}

#[test]
fn pipeline_outputs_identical_across_pool_sizes() {
    for variant in [Variant::Baseline, Variant::Optimized] {
        let reference = with_pool(1, || run_once(variant, 12, 8, 42));
        assert!(
            reference.num_hits > 0,
            "sanity: pipeline recovered something"
        );
        for threads in POOL_SIZES {
            let run = with_pool(threads, || run_once(variant, 12, 8, 42));
            assert!(
                run == reference,
                "{variant:?} with {threads} pool threads diverged from the \
                 sequential path: {run:?} vs {reference:?}"
            );
        }
        // And under whatever this host/CI configured as the default.
        let default_run = run_once(variant, 12, 8, 42);
        assert!(
            default_run == reference,
            "{variant:?} default pool diverged"
        );
    }
}

#[test]
fn kernel_stats_and_timeline_identical_across_pool_sizes() {
    // Zoom in on the two fingerprint components the pool could plausibly
    // corrupt: per-kernel aggregated stats (atomic accumulation order)
    // and the op timeline (append order under the state lock). From
    // n = 2^14 the selection and location kernels append from blocks that
    // run concurrently, so each width runs three times at 2^16.
    for (log2_n, runs) in [(13, 1), (16, 3)] {
        let reference = with_pool(1, || run_once(Variant::Optimized, log2_n, 16, 7));
        assert!(!reference.records.is_empty() && !reference.ops.is_empty());
        for threads in POOL_SIZES[1..].iter().copied() {
            for _ in 0..runs {
                let run = with_pool(threads, || run_once(Variant::Optimized, log2_n, 16, 7));
                assert_eq!(
                    run.records, reference.records,
                    "per-kernel KernelStats must not depend on pool width \
                     ({threads}) at n = 2^{log2_n}"
                );
                assert_eq!(
                    run.ops, reference.ops,
                    "merged op timeline must not depend on pool width \
                     ({threads}) at n = 2^{log2_n}"
                );
            }
        }
    }
}

/// A small mixed-geometry batch for the serving-layer check.
fn batch() -> Vec<ServeRequest> {
    let geometries = [(1usize << 10, 4), (1usize << 11, 8), (1usize << 10, 4)];
    (0..6)
        .map(|i| {
            let (n, k) = geometries[i % geometries.len()];
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 500 + i as u64);
            ServeRequest::new(s.time, k, Variant::Optimized, 13 * i as u64 + 1)
        })
        .collect()
}

#[test]
fn serve_engine_identical_across_pool_sizes() {
    // Serving stacks the pool *under* the engine's own worker threads:
    // workers orchestrate requests, every kernel launched on any worker
    // runs its blocks through the one process-wide pool. Neither layer
    // may leak into results or the merged simulated timeline.
    let reqs = batch();
    let serve = || {
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
    let reference = with_pool(1, serve);
    for threads in POOL_SIZES[1..].iter().copied() {
        let report = with_pool(threads, serve);
        for (i, (a, b)) in reference.responses().zip(report.responses()).enumerate() {
            assert_eq!(
                a.recovered, b.recovered,
                "request {i} spectrum changed under {threads} pool threads"
            );
            assert_eq!(a.num_hits, b.num_hits);
        }
        assert_eq!(
            reference.makespan.to_bits(),
            report.makespan.to_bits(),
            "merged-timeline makespan changed under {threads} pool threads"
        );
        assert_eq!(reference.concurrency, report.concurrency);
        assert_eq!(reference.groups, report.groups);
    }
}
