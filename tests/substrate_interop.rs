//! Substrate interop: the independent FFT implementations, the filter
//! construction, and the selection algorithms must all agree with each
//! other — each pair of implementations cross-checks the other.

use fft::cplx::Cplx;
use fft::{bluestein_fft, BatchPlan, Direction, ParallelPlan, Plan};

fn rand_signal(n: usize, seed: u64) -> Vec<Cplx> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = ((s >> 16) as u32 as f64) / u32::MAX as f64 - 0.5;
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let b = ((s >> 16) as u32 as f64) / u32::MAX as f64 - 0.5;
            Cplx::new(a, b)
        })
        .collect()
}

#[test]
fn fft_implementations_agree() {
    for log2 in [6u32, 9, 12] {
        let n = 1usize << log2;
        let x = rand_signal(n, log2 as u64);
        let reference = Plan::new(n).transform(&x, Direction::Forward);
        let candidates: Vec<(&str, Vec<Cplx>)> = vec![
            ("bluestein", bluestein_fft(&x, Direction::Forward)),
            ("parallel", ParallelPlan::new(n).transform(&x, Direction::Forward)),
        ];
        let tol = 1e-8 * (n as f64).sqrt();
        for (name, got) in candidates {
            for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
                assert!(
                    a.dist(*b) < tol,
                    "{name} vs plan at n=2^{log2}, elem {i}: {a:?} vs {b:?}"
                );
            }
        }
    }
}

#[test]
fn real_input_spectrum_is_conjugate_symmetric() {
    let n = 512;
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin() * (i as f64 * 0.031).cos()).collect();
    let as_complex: Vec<Cplx> = x.iter().map(|&v| Cplx::real(v)).collect();
    let full = Plan::new(n).transform(&as_complex, Direction::Forward);
    for f in 1..n / 2 {
        assert!(full[n - f].dist(full[f].conj()) < 1e-8);
    }
}

#[test]
fn batched_rows_agree_with_single_transforms() {
    let rows = 7;
    let len = 128;
    let data = rand_signal(rows * len, 42);
    let bp = BatchPlan::new(len, rows);
    let mut batched = data.clone();
    bp.process_parallel(&mut batched, Direction::Forward);
    let single = Plan::new(len);
    for r in 0..rows {
        let expect = single.transform(&data[r * len..(r + 1) * len], Direction::Forward);
        for (a, b) in batched[r * len..(r + 1) * len].iter().zip(&expect) {
            assert!(a.dist(*b) < 1e-10);
        }
    }
}

#[test]
fn filter_response_consistent_between_band_and_signal_path() {
    // Push a unit tone through perm_filter at τ=0, σ=1 (identity
    // permutation): the bucket spectrum must equal the filter's own
    // frequency response at the tone's offset, up to the 1/n convention.
    use filters::{FlatFilter, WindowKind};
    use sfft_cpu::inner::{perm_filter, subsample_fft};
    use sfft_cpu::Permutation;

    let n = 1 << 12;
    let b = 64;
    let filt = FlatFilter::design(n, (1.3 * n as f64 / 256.0) as usize, 0.002, 1e-6, n / b, WindowKind::DolphChebyshev);
    let f0 = 37 * (n / b); // exactly at a bucket centre
    let time: Vec<Cplx> = (0..n)
        .map(|t| Cplx::cis(std::f64::consts::TAU * ((f0 * t) % n) as f64 / n as f64).scale(1.0 / n as f64))
        .collect();
    let perm = Permutation::new(1, 0, n);
    let mut buckets = perm_filter(&time, &filt, b, &perm);
    subsample_fft(&mut buckets, &Plan::new(b));
    let expected = filt.freq_at(0).scale(1.0 / n as f64);
    assert!(
        buckets[37].dist(expected) < 1e-9,
        "bucket {:?} vs Ĝ(0)/n {:?}",
        buckets[37],
        expected
    );
}

#[test]
fn selection_algorithms_agree_on_distinct_values() {
    let values: Vec<f64> = (0..4096).map(|i| ((i * 2654435761usize) % 999983) as f64).collect();
    let k = 63;
    let mut a = kselect::sort_select(&values, k);
    let mut b = kselect::quickselect_top_k(&values, k);
    let c = kselect::bucket_select(&values, k);
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "quickselect finds the same set");
    for idx in &a {
        assert!(c.indices.contains(idx), "bucket_select missing {idx}");
    }
}

#[test]
fn dft_band_is_the_dense_transform_restriction() {
    let n = 1 << 10;
    let x = rand_signal(200, 3);
    let mut padded = x.clone();
    padded.resize(n, fft::cplx::ZERO);
    let dense = Plan::new(n).transform(&padded, Direction::Forward);
    let band = fft::dft_band(&x, n, 100, 50);
    for (i, v) in band.iter().enumerate() {
        assert!(v.dist(dense[100 + i]) < 1e-8);
    }
}
