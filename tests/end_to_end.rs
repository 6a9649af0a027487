//! End-to-end integration: every implementation in the workspace —
//! sequential reference, PsFFT, cusFFT baseline, cusFFT optimized — must
//! recover the same sparse spectra on shared workloads, noiseless and
//! noisy.

use std::sync::Arc;

use cusfft::{CusFft, Variant};
use gpu_sim::GpuDevice;
use sfft_cpu::{psfft, sfft, SfftParams};
use signal::{
    add_awgn, l1_error_per_coeff, support_precision, support_recall, MagnitudeModel, Recovered,
    SparseSignal,
};

fn run_all(n: usize, k: usize, signal: &[fft::Cplx], seed: u64) -> [Recovered; 4] {
    let params = Arc::new(SfftParams::tuned(n, k));
    let serial = sfft(&params, signal, seed);
    let parallel = psfft(&params, signal, seed);
    let base = CusFft::new(
        Arc::new(GpuDevice::k20x()),
        params.clone(),
        Variant::Baseline,
    )
    .execute(signal, seed)
    .recovered;
    let opt = CusFft::new(Arc::new(GpuDevice::k20x()), params, Variant::Optimized)
        .execute(signal, seed)
        .recovered;
    [serial, parallel, base, opt]
}

#[test]
fn all_implementations_recover_noiseless_signal() {
    let (n, k) = (1 << 13, 16);
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 101);
    for (i, rec) in run_all(n, k, &s.time, 7).iter().enumerate() {
        let recall = support_recall(&s.coords, rec);
        let err = l1_error_per_coeff(&s.coords, rec);
        assert!(recall > 0.99, "impl {i}: recall {recall}");
        assert!(err < 1e-3, "impl {i}: L1 error {err}");
    }
}

#[test]
fn all_implementations_recover_varied_magnitudes() {
    let (n, k) = (1 << 13, 12);
    let s = SparseSignal::generate(n, k, MagnitudeModel::Uniform { lo: 1.0, hi: 8.0 }, 33);
    for (i, rec) in run_all(n, k, &s.time, 3).iter().enumerate() {
        assert!(
            support_recall(&s.coords, rec) > 0.9,
            "impl {i} missed coefficients"
        );
        assert!(
            l1_error_per_coeff(&s.coords, rec) < 0.05,
            "impl {i}: L1 error too high"
        );
    }
}

#[test]
fn robust_to_moderate_noise() {
    let (n, k) = (1 << 13, 8);
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 5);
    let mut noisy = s.time.clone();
    add_awgn(&mut noisy, 40.0, 77);
    for (i, rec) in run_all(n, k, &noisy, 11).iter().enumerate() {
        let recall = support_recall(&s.coords, rec);
        assert!(recall > 0.9, "impl {i}: recall under noise {recall}");
        // Large coefficients still accurate to ~the noise floor.
        for &(f, v) in &s.coords {
            if let Some(&(_, est)) = rec.iter().find(|&&(g, _)| g == f) {
                assert!(est.dist(v) < 0.15, "impl {i}, f={f}: {est:?} vs {v:?}");
            }
        }
    }
}

#[test]
fn spurious_coefficients_are_negligible() {
    let (n, k) = (1 << 13, 8);
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 21);
    for (i, rec) in run_all(n, k, &s.time, 13).iter().enumerate() {
        // Either precision is high, or every spurious entry is tiny.
        let precision = support_precision(&s.coords, rec);
        let worst_spurious = rec
            .iter()
            .filter(|&&(f, _)| s.coords.iter().all(|&(g, _)| g != f))
            .map(|(_, v)| v.abs())
            .fold(0.0f64, f64::max);
        assert!(
            precision > 0.5 || worst_spurious < 1e-3,
            "impl {i}: precision {precision}, worst spurious {worst_spurious}"
        );
    }
}

#[test]
fn clustered_support_degrades_gracefully() {
    // Adjacent-frequency clusters are the sFFT's known hard case: the
    // permutation maps a cluster to an arithmetic progression that can
    // still collide in buckets. Loose clusters must still recover well;
    // the experiment documents the behaviour rather than assuming it.
    use signal::clustered_signal;
    let n = 1 << 13;
    let k = 16;
    let params = Arc::new(SfftParams::tuned(n, k));

    let loose = clustered_signal(n, k, 2, 5);
    let rec_loose = CusFft::new(
        Arc::new(GpuDevice::k20x()),
        params.clone(),
        Variant::Optimized,
    )
    .execute(&loose.time, 3)
    .recovered;
    assert!(
        support_recall(&loose.coords, &rec_loose) > 0.9,
        "pairs of adjacent coefficients should mostly survive"
    );

    let tight = clustered_signal(n, k, 8, 5);
    let rec_tight = CusFft::new(Arc::new(GpuDevice::k20x()), params, Variant::Optimized)
        .execute(&tight.time, 3)
        .recovered;
    let recall_tight = support_recall(&tight.coords, &rec_tight);
    // Must still find most of the energy; exact recovery is not promised
    // for tight clusters (documented limitation).
    assert!(
        recall_tight > 0.5,
        "tight clusters lost too much: recall {recall_tight}"
    );
}

#[test]
fn cross_size_sweep_stays_accurate() {
    for (log2n, k) in [(11usize, 4usize), (12, 8), (14, 32)] {
        let n = 1 << log2n;
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, log2n as u64);
        let params = Arc::new(SfftParams::tuned(n, k));
        let out = CusFft::new(Arc::new(GpuDevice::k20x()), params, Variant::Optimized)
            .execute(&s.time, 1);
        assert!(
            support_recall(&s.coords, &out.recovered) > 0.99,
            "n=2^{log2n} k={k}"
        );
    }
}
