//! Timing-model integration: the paper's headline performance *shapes*
//! must emerge from the cost model — sub-linear sparse scaling, the
//! dense-FFT crossover, the optimized-vs-baseline gap, and sparsity
//! (in)sensitivity.

use std::sync::Arc;

use cusfft::{cufft_dense_baseline, cufft_model_time, CusFft, StepBreakdown, Variant};
use gpu_sim::{GpuDevice, DEFAULT_STREAM};
use sfft_cpu::SfftParams;
use signal::{MagnitudeModel, SparseSignal};

fn cusfft_time(log2n: u32, k: usize, variant: Variant) -> f64 {
    let n = 1usize << log2n;
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 3);
    let params = Arc::new(SfftParams::tuned(n, k));
    CusFft::new(Arc::new(GpuDevice::k20x()), params, variant)
        .execute(&s.time, 1)
        .sim_time
}

fn cufft_time(log2n: u32) -> f64 {
    let n = 1usize << log2n;
    let s = SparseSignal::generate(n, 4, MagnitudeModel::Unit, 3);
    let dev = GpuDevice::k20x();
    let _ = cufft_dense_baseline(&dev, &s.time, DEFAULT_STREAM);
    dev.elapsed()
}

#[test]
fn cusfft_scales_sublinearly_in_n() {
    // Quadrupling n (fixed k) must grow cusFFT's time by well under 4x —
    // the defining sub-linearity of Figure 5(a).
    let t_small = cusfft_time(14, 32, Variant::Optimized);
    let t_big = cusfft_time(16, 32, Variant::Optimized);
    let growth = t_big / t_small;
    assert!(
        growth < 3.0,
        "sub-linear growth expected: 4x data -> {growth:.2}x time"
    );
}

#[test]
fn cufft_scales_superlinearly_in_n() {
    let t_small = cufft_time(14);
    let t_big = cufft_time(18);
    assert!(
        t_big / t_small > 8.0,
        "dense FFT must pay ~n log n: got {:.2}x for 16x data",
        t_big / t_small
    );
}

#[test]
fn crossover_cusfft_beats_cufft_at_large_n() {
    // Figure 5(a): cuFFT wins small sizes, cusFFT wins large ones.
    let small = 12u32;
    let large = 19u32;
    let k = 64;
    assert!(
        cusfft_time(small, k.min((1 << small) / 8), Variant::Optimized) > cufft_time(small),
        "at n=2^{small}, dense should win"
    );
    assert!(
        cusfft_time(large, k, Variant::Optimized) < cufft_time(large),
        "at n=2^{large}, sparse should win"
    );
}

#[test]
fn optimized_beats_baseline_across_sizes() {
    for log2n in [13u32, 15, 17] {
        let k = 32;
        let b = cusfft_time(log2n, k, Variant::Baseline);
        let o = cusfft_time(log2n, k, Variant::Optimized);
        assert!(
            o < b,
            "n=2^{log2n}: optimized {o:.3e} should beat baseline {b:.3e}"
        );
    }
}

#[test]
fn optimized_speedup_is_paper_magnitude() {
    // "the optimized cusFFT is on average 2x faster than the baseline" —
    // accept a broad band around that.
    let b = cusfft_time(16, 64, Variant::Baseline);
    let o = cusfft_time(16, 64, Variant::Optimized);
    let speedup = b / o;
    assert!(
        (1.3..8.0).contains(&speedup),
        "optimized/baseline speedup {speedup:.2}x out of plausible band"
    );
}

#[test]
fn locate_is_a_minor_step_of_the_optimized_pipeline() {
    // Index mapping gives every (bucket, preimage) pair its own thread,
    // so location no longer dominates the device clock: at the size of
    // the speedup check above it takes under a tenth of the makespan.
    let n = 1 << 16;
    let s = SparseSignal::generate(n, 64, MagnitudeModel::Unit, 3);
    let device = Arc::new(GpuDevice::k20x());
    let params = Arc::new(SfftParams::tuned(n, 64));
    CusFft::new(device.clone(), params, Variant::Optimized).execute(&s.time, 1);
    let steps = StepBreakdown::from_records(&device.records());
    let share = steps.locate / steps.total();
    assert!(
        share < 0.10,
        "locate takes {:.1}% of the optimized pipeline at n = 2^16",
        share * 100.0
    );
}

#[test]
fn cusfft_grows_slowly_with_k() {
    // Figure 5(b): runtime increases "very slowly" with sparsity.
    let t1 = cusfft_time(16, 16, Variant::Optimized);
    let t2 = cusfft_time(16, 256, Variant::Optimized);
    assert!(t2 > t1 * 0.8, "more work with more coefficients");
    assert!(
        t2 < t1 * 8.0,
        "16x sparsity should cost well under 16x: {:.2}x",
        t2 / t1
    );
}

#[test]
fn cufft_is_independent_of_k() {
    // Dense FFT cost depends only on n.
    let a = cufft_model_time(&GpuDevice::k20x(), 1 << 20, 1);
    let b = cufft_model_time(&GpuDevice::k20x(), 1 << 20, 1);
    assert_eq!(a, b);
}

#[test]
fn simulated_times_are_host_independent() {
    // The simulated clock is a pure function of the workload — two
    // consecutive measurements are identical (unlike wall time).
    let a = cusfft_time(13, 16, Variant::Optimized);
    let b = cusfft_time(13, 16, Variant::Optimized);
    assert_eq!(a, b);
}

#[test]
fn input_transfer_scales_with_n() {
    let n1 = 1usize << 12;
    let n2 = 1usize << 14;
    let s1 = SparseSignal::generate(n1, 8, MagnitudeModel::Unit, 1);
    let s2 = SparseSignal::generate(n2, 8, MagnitudeModel::Unit, 1);
    let o1 = CusFft::new(
        Arc::new(GpuDevice::k20x()),
        Arc::new(SfftParams::tuned(n1, 8)),
        Variant::Optimized,
    )
    .execute(&s1.time, 1);
    let o2 = CusFft::new(
        Arc::new(GpuDevice::k20x()),
        Arc::new(SfftParams::tuned(n2, 8)),
        Variant::Optimized,
    )
    .execute(&s2.time, 1);
    assert!(o2.input_transfer > o1.input_transfer);
    // Fixed PCIe latency means not exactly 4x.
    assert!(o2.input_transfer < o1.input_transfer * 4.0);
}
