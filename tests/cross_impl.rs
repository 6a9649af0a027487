//! Cross-implementation equivalence: with a shared seed the four
//! pipelines consume identical permutation sequences, so their outputs
//! must agree — bit-exactly between serial and PsFFT, and numerically
//! (different accumulation orders) for the GPU variants.

use std::sync::Arc;

use cusfft::{CusFft, Variant};
use gpu_sim::GpuDevice;
use sfft_cpu::{psfft, sfft, SfftParams};
use signal::{MagnitudeModel, Recovered, SparseSignal};

fn big_support(rec: &Recovered, threshold: f64) -> Vec<usize> {
    rec.iter()
        .filter(|(_, v)| v.abs() > threshold)
        .map(|&(f, _)| f)
        .collect()
}

#[test]
fn psfft_is_bit_identical_to_serial() {
    for seed in [1u64, 2, 3] {
        let (n, k) = (1 << 12, 8);
        let params = SfftParams::tuned(n, k);
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, seed);
        let a = sfft(&params, &s.time, seed * 31);
        let b = psfft(&params, &s.time, seed * 31);
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn gpu_variants_agree_with_each_other() {
    let (n, k) = (1 << 13, 16);
    let params = Arc::new(SfftParams::tuned(n, k));
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 9);
    let base = CusFft::new(
        Arc::new(GpuDevice::k20x()),
        params.clone(),
        Variant::Baseline,
    )
    .execute(&s.time, 42)
    .recovered;
    let opt = CusFft::new(Arc::new(GpuDevice::k20x()), params, Variant::Optimized)
        .execute(&s.time, 42)
        .recovered;
    assert_eq!(
        big_support(&base, 0.5),
        big_support(&opt, 0.5),
        "variants must locate the same large coefficients"
    );
    for (f, v) in base.iter().filter(|(_, v)| v.abs() > 0.5) {
        let (_, w) = opt.iter().find(|(g, _)| g == f).unwrap();
        assert!(v.dist(*w) < 1e-6, "f={f}: {v:?} vs {w:?}");
    }
}

#[test]
fn gpu_matches_cpu_reference_values() {
    let (n, k) = (1 << 12, 8);
    let params = Arc::new(SfftParams::tuned(n, k));
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 4);
    let cpu = sfft(&params, &s.time, 3);
    let gpu = CusFft::new(Arc::new(GpuDevice::k20x()), params, Variant::Baseline)
        .execute(&s.time, 3)
        .recovered;
    for (f, v) in cpu.iter().filter(|(_, v)| v.abs() > 0.5) {
        let (_, w) = gpu
            .iter()
            .find(|(g, _)| g == f)
            .unwrap_or_else(|| panic!("GPU missed f={f}"));
        assert!(v.dist(*w) < 1e-6, "f={f}: cpu {v:?} vs gpu {w:?}");
    }
}

#[test]
fn every_implementation_is_deterministic() {
    let (n, k) = (1 << 12, 8);
    let params = Arc::new(SfftParams::tuned(n, k));
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 6);

    assert_eq!(sfft(&params, &s.time, 5), sfft(&params, &s.time, 5));
    assert_eq!(psfft(&params, &s.time, 5), psfft(&params, &s.time, 5));
    let plan = CusFft::new(Arc::new(GpuDevice::k20x()), params, Variant::Optimized);
    let a = plan.execute(&s.time, 5);
    let b = plan.execute(&s.time, 5);
    assert_eq!(a.recovered, b.recovered);
    assert_eq!(a.num_hits, b.num_hits);
    assert!((a.sim_time - b.sim_time).abs() < 1e-15);
}

#[test]
fn random_tau_agrees_across_cpu_and_gpu() {
    let (n, k) = (1 << 12, 6);
    let params = Arc::new(SfftParams::tuned(n, k).with_random_tau());
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 12);
    let cpu = sfft(&params, &s.time, 8);
    let gpu = CusFft::new(Arc::new(GpuDevice::k20x()), params, Variant::Optimized)
        .execute(&s.time, 8)
        .recovered;
    assert_eq!(big_support(&cpu, 0.5), big_support(&gpu, 0.5));
}
