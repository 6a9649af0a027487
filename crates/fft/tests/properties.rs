//! Property-based tests for the FFT substrate: the algebraic identities any
//! correct DFT implementation must satisfy, checked on arbitrary signals and
//! sizes with proptest.

use fft::cplx::Cplx;
use fft::{bluestein_fft, dft_band, Direction, ParallelPlan, Plan};
use proptest::prelude::*;

fn cplx_strategy() -> impl Strategy<Value = Cplx> {
    (-1.0e3..1.0e3f64, -1.0e3..1.0e3f64).prop_map(|(re, im)| Cplx::new(re, im))
}

fn signal(max_log2: u32) -> impl Strategy<Value = Vec<Cplx>> {
    (0..=max_log2).prop_flat_map(move |log2| prop::collection::vec(cplx_strategy(), 1usize << log2))
}

fn arbitrary_len_signal() -> impl Strategy<Value = Vec<Cplx>> {
    (1usize..200).prop_flat_map(|n| prop::collection::vec(cplx_strategy(), n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_roundtrip_recovers_input(x in signal(10)) {
        let p = Plan::new(x.len());
        let mut buf = x.clone();
        p.process(&mut buf, Direction::Forward);
        p.process(&mut buf, Direction::Inverse);
        let scale: f64 = x.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (a, b) in buf.iter().zip(&x) {
            prop_assert!(a.dist(*b) < 1e-9 * scale * x.len() as f64);
        }
    }

    #[test]
    fn plan_is_linear(x in signal(8), y_seed in 0u64..1000) {
        let n = x.len();
        let y: Vec<Cplx> = (0..n)
            .map(|i| Cplx::new(((i as u64 + y_seed) % 97) as f64, ((i as u64 * y_seed) % 31) as f64))
            .collect();
        let sum: Vec<Cplx> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let p = Plan::new(n);
        let fx = p.transform(&x, Direction::Forward);
        let fy = p.transform(&y, Direction::Forward);
        let fsum = p.transform(&sum, Direction::Forward);
        let scale: f64 = fsum.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for i in 0..n {
            prop_assert!(fsum[i].dist(fx[i] + fy[i]) < 1e-9 * scale);
        }
    }

    #[test]
    fn parseval_energy_conservation(x in signal(9)) {
        let n = x.len();
        let y = Plan::new(n).transform(&x, Direction::Forward);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum();
        prop_assert!((ey - n as f64 * ex).abs() <= 1e-8 * (ey.abs().max(1.0)));
    }

    #[test]
    fn bluestein_roundtrip_any_size(x in arbitrary_len_signal()) {
        let y = bluestein_fft(&x, Direction::Forward);
        let z = bluestein_fft(&y, Direction::Inverse);
        let scale: f64 = x.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (a, b) in z.iter().zip(&x) {
            prop_assert!(a.dist(*b) < 1e-7 * scale * x.len() as f64);
        }
    }

    #[test]
    fn bluestein_matches_plan_on_pow2(x in signal(7)) {
        let a = bluestein_fft(&x, Direction::Forward);
        let b = Plan::new(x.len()).transform(&x, Direction::Forward);
        let scale: f64 = b.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (u, v) in a.iter().zip(&b) {
            prop_assert!(u.dist(*v) < 1e-8 * scale);
        }
    }

    #[test]
    fn parallel_matches_sequential(x in signal(10)) {
        let n = x.len();
        let seq = Plan::new(n).transform(&x, Direction::Forward);
        let par = ParallelPlan::new(n).transform(&x, Direction::Forward);
        let scale: f64 = seq.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (a, b) in seq.iter().zip(&par) {
            prop_assert!(a.dist(*b) < 1e-9 * scale);
        }
    }

    #[test]
    fn band_agrees_with_full_transform(
        x in prop::collection::vec(cplx_strategy(), 1..64),
        n_log2 in 7u32..10,
        start in -100i64..100,
        m in 1usize..40,
    ) {
        let n = 1usize << n_log2;
        let mut padded = x.clone();
        padded.resize(n, fft::cplx::ZERO);
        let full = Plan::new(n).transform(&padded, Direction::Forward);
        let band = dft_band(&x, n, start, m);
        let scale: f64 = full.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (t, v) in band.iter().enumerate() {
            let f = (start + t as i64).rem_euclid(n as i64) as usize;
            prop_assert!(v.dist(full[f]) < 1e-8 * scale);
        }
    }

    #[test]
    fn impulse_position_becomes_phase_ramp(n_log2 in 2u32..9, pos_frac in 0.0..1.0f64) {
        let n = 1usize << n_log2;
        let pos = ((pos_frac * n as f64) as usize).min(n - 1);
        let mut x = vec![fft::cplx::ZERO; n];
        x[pos] = fft::cplx::ONE;
        let y = Plan::new(n).transform(&x, Direction::Forward);
        for (f, v) in y.iter().enumerate() {
            let expected = Cplx::cis(-std::f64::consts::TAU * (f * pos % n) as f64 / n as f64);
            prop_assert!(v.dist(expected) < 1e-9);
        }
    }
}
