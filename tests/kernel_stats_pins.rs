//! Whole-launch pins of the simulator's kernel statistics.
//!
//! Each case runs kernels on a fresh device and compares an FNV-1a-64
//! digest over every launch record — name, `KernelStats` and
//! `KernelCost`, in `Debug` form — with a checked-in value. The `Debug`
//! form prints floats in shortest round-trip form, so any change to a
//! transaction count, a byte count, a chain length or an atomic conflict
//! depth, and any change to the cost model that prices them, fails here.
//! The failure prints the digests the code now produces.
//!
//! Every case runs on a one-thread and on a two-thread host pool, and
//! both must match the same pins: no traced count may depend on how host
//! threads interleave blocks.

use std::sync::Arc;

use cusfft::perm_filter::{perm_filter_atomic, try_perm_filter_shared};
use cusfft::{CusFft, Variant};
use fft::cplx::ZERO;
use gpu_sim::{DeviceBuffer, DeviceSpec, GpuDevice, LaunchRecord, DEFAULT_STREAM};
use sfft_cpu::{Permutation, SfftParams};
use signal::{MagnitudeModel, SparseSignal};

/// FNV-1a, 64-bit, continued from `h`.
fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of every launch record, in enqueue order.
fn digest(records: &[LaunchRecord]) -> u64 {
    records.iter().fold(0xcbf2_9ce4_8422_2325, |h, r| {
        fnv1a64(h, format!("{}{:?}{:?}", r.name, r.stats, r.cost).as_bytes())
    })
}

/// The host pool widths every case runs on.
const POOLS: [usize; 2] = [1, 2];

/// Runs `f` on a host pool of `threads` threads.
fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build is infallible")
        .install(f)
}

/// One `CusFft::execute`, returning the device's launch records.
fn execute(spec: DeviceSpec, variant: Variant, log2_n: u32, k: usize) -> Vec<LaunchRecord> {
    let n = 1usize << log2_n;
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 41 + log2_n as u64);
    let device = Arc::new(GpuDevice::new(spec));
    let plan = CusFft::new(device.clone(), Arc::new(SfftParams::tuned(n, k)), variant);
    plan.execute(&s.time, 5);
    device.records()
}

/// The perm+filter strawmen that update buckets with global atomics:
/// per-tap atomics, then shared-memory sub-histograms merged with
/// atomics.
fn atomic_strawmen(log2_n: u32, k: usize) -> Vec<LaunchRecord> {
    let n = 1usize << log2_n;
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 77);
    let params = SfftParams::tuned(n, k);
    let b = params.b_loc;
    let w = params.filter_loc.width();
    let mut taps = params.filter_loc.taps().to_vec();
    taps.resize(w.div_ceil(b) * b, ZERO);
    let device = GpuDevice::new(DeviceSpec::tesla_k20x());
    let signal = DeviceBuffer::from_host(&s.time);
    let taps = DeviceBuffer::from_host(&taps);
    let perm = Permutation::new((1001 % n) | 1, 3, n);
    perm_filter_atomic(&device, &signal, &taps, w, b, &perm, DEFAULT_STREAM);
    try_perm_filter_shared(&device, &signal, &taps, w, b, &perm, DEFAULT_STREAM)
        .expect("B fits in shared memory at this size");
    device.records()
}

/// Compares `actual`, measured on a `threads`-thread pool, with `pinned`,
/// reporting every case before failing.
fn check(threads: usize, actual: &[(&str, u64)], pinned: &[u64]) {
    let bad: Vec<String> = actual
        .iter()
        .enumerate()
        .filter(|&(i, &(_, d))| pinned.get(i) != Some(&d))
        .map(|(i, (case, d))| {
            let pin = pinned
                .get(i)
                .map_or("none".into(), |p| format!("{p:#018x}"));
            format!("  {case}: pinned {pin}, actual {d:#018x}")
        })
        .collect();
    assert!(
        bad.is_empty() && actual.len() == pinned.len(),
        "{} of {} kernel-stats digests differ on a {threads}-thread pool:\n{}\nactual table: [{}]",
        bad.len(),
        actual.len(),
        bad.join("\n"),
        actual
            .iter()
            .map(|(_, d)| format!("{d:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

#[test]
fn pipeline_launch_stats_are_pinned() {
    let cases = [
        (
            "K20x baseline 2^12",
            DeviceSpec::tesla_k20x(),
            Variant::Baseline,
        ),
        (
            "K20x optimized 2^12",
            DeviceSpec::tesla_k20x(),
            Variant::Optimized,
        ),
        (
            "K2000 baseline 2^12",
            DeviceSpec::quadro_k2000(),
            Variant::Baseline,
        ),
        (
            "K2000 optimized 2^12",
            DeviceSpec::quadro_k2000(),
            Variant::Optimized,
        ),
    ];
    for threads in POOLS {
        let actual: Vec<(&str, u64)> = with_pool(threads, || {
            cases
                .iter()
                .map(|(case, spec, variant)| {
                    (*case, digest(&execute(spec.clone(), *variant, 12, 8)))
                })
                .collect()
        });
        check(threads, &actual, &PIPELINE);
    }
}

#[test]
fn sampled_launch_stats_are_pinned() {
    for threads in POOLS {
        let records = with_pool(threads, || {
            execute(DeviceSpec::tesla_k20x(), Variant::Optimized, 18, 16)
        });
        assert!(
            records
                .iter()
                .any(|r| r.stats.sampled_warps > 0 && r.stats.sampled_warps < r.stats.warps),
            "some launch at n = 2^18 must trace only a sample of its warps"
        );
        check(
            threads,
            &[("K20x optimized 2^18", digest(&records))],
            &[SAMPLED],
        );
    }
}

#[test]
fn atomic_strawman_stats_are_pinned() {
    for threads in POOLS {
        let records = with_pool(threads, || atomic_strawmen(16, 16));
        let conflict = |name: &str| {
            let r = records.iter().find(|r| r.name == name).expect("launch ran");
            (
                r.stats.atomic_max_conflict,
                r.stats.sampled_warps < r.stats.warps,
            )
        };
        // Taps `b` apart share a bucket but run in different blocks, so
        // the worst conflict is a launch-wide maximum, not a per-block one.
        assert!(conflict("perm_filter_atomic").0 > 1.0);
        assert!(
            conflict("perm_filter_shared_merge").1,
            "the merge launch is sampled at n = 2^16"
        );
        check(
            threads,
            &[("perm_filter atomic + shared 2^16", digest(&records))],
            &[ATOMIC],
        );
    }
}

// Generated by the failure output of the tests above.
const PIPELINE: [u64; 4] = [
    0x31ffb0fee90592c9, // K20x baseline 2^12
    0x008e5ac85ed71b9f, // K20x optimized 2^12
    0x01d554bef042275c, // K2000 baseline 2^12
    0xdb00802794bd6f39, // K2000 optimized 2^12
];
const SAMPLED: u64 = 0xb165e9d3989501fa;
const ATOMIC: u64 = 0x2c3593959b60ca3a;
