//! Arbitrary-size transforms via the Bluestein / chirp-z decomposition.
//!
//! Two entry points:
//!
//! * [`bluestein_fft`] — full DFT of any length (the Dolph-Chebyshev window
//!   construction needs odd-length transforms, which the power-of-two plans
//!   cannot do).
//! * [`dft_band`] — a contiguous band `X[start .. start+m]` of the *n*-point
//!   DFT of a short signal. The sparse-FFT filters have time support `w ≪ n`
//!   but their frequency response is only ever evaluated within `±n/(2B)` of
//!   zero; this routine computes exactly that band in
//!   `O((w+m)·log(w+m))` without materialising a size-`n` spectrum
//!   (for n = 2²⁷ that spectrum alone would be 2 GiB).
//!
//! Both are built on the same chirp convolution: with `W = e^{-2πi/n}`,
//! `jm = (j² + m² − (m−j)²)/2`, so `X[m] = W^{m²/2} · Σ_j a[j]·W^{−(m−j)²/2}`
//! where `a[j] = x[j]·A^{j}·W^{j²/2}` — a linear convolution evaluated with
//! power-of-two FFTs. The quadratic phases are reduced `mod 2n` in exact
//! integer arithmetic before entering `f64`, so precision holds even for
//! `n = 2²⁷` where `j²` overflows the exact-integer range of `f64`.

use crate::cplx::{Cplx, ZERO};
use crate::plan::{next_pow2, Plan};
use crate::Direction;

/// `e^{-πi (j² mod 2n) / n}` with the square reduced exactly.
#[inline]
fn chirp(j: u64, n: u64) -> Cplx {
    let sq = ((j as u128 * j as u128) % (2 * n as u128)) as u64;
    Cplx::cis(-std::f64::consts::PI * sq as f64 / n as f64)
}

/// Computes `X[start + t]` for `t in 0..m`, where `X` is the `n`-point
/// forward DFT of `x` (zero-padded to length `n`; `x.len() <= n` required).
///
/// `start` may be negative; indices are interpreted mod `n`.
pub fn dft_band(x: &[Cplx], n: usize, start: i64, m: usize) -> Vec<Cplx> {
    assert!(n > 0, "dft_band requires n > 0");
    assert!(
        x.len() <= n,
        "signal of length {} longer than transform size {}",
        x.len(),
        n
    );
    if m == 0 {
        return Vec::new();
    }
    let l = x.len();
    if l == 0 {
        return vec![ZERO; m];
    }
    let nu = n as u64;
    let start_mod = start.rem_euclid(n as i64) as u64;

    // a[j] = x[j] · e^{-2πi·start·j/n} · W^{j²/2}
    let p = next_pow2(l + m - 1);
    let plan = Plan::new(p);
    let mut a = vec![ZERO; p];
    let tau = -std::f64::consts::TAU / n as f64;
    for (j, slot) in a.iter_mut().enumerate().take(l) {
        let lin = ((start_mod as u128 * j as u128) % nu as u128) as u64;
        *slot = x[j] * Cplx::cis(tau * lin as f64) * chirp(j as u64, nu);
    }
    // b[k] = conj(W^{k²/2}) for k in −(l−1) ..= m−1, wrapped into [0, p).
    let mut b = vec![ZERO; p];
    for k in 0..m as i64 {
        b[k as usize] = chirp(k as u64, nu).conj();
    }
    for k in 1..l as i64 {
        b[p - k as usize] = chirp(k as u64, nu).conj();
    }
    plan.process(&mut a, Direction::Forward);
    plan.process(&mut b, Direction::Forward);
    for (av, bv) in a.iter_mut().zip(&b) {
        *av *= *bv;
    }
    plan.process(&mut a, Direction::Inverse);

    (0..m).map(|t| a[t] * chirp(t as u64, nu)).collect()
}

/// Full forward/inverse DFT of arbitrary length using Bluestein's algorithm.
///
/// Delegates to the power-of-two [`Plan`] when possible. Matches the
/// workspace convention: forward unnormalised, inverse scaled by `1/n`.
pub fn bluestein_fft(x: &[Cplx], dir: Direction) -> Vec<Cplx> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    if crate::plan::is_pow2(n) {
        return Plan::new(n).transform(x, dir);
    }
    match dir {
        Direction::Forward => dft_band(x, n, 0, n),
        Direction::Inverse => {
            // ifft(x) = conj(fft(conj(x))) / n
            let conj_in: Vec<Cplx> = x.iter().map(|v| v.conj()).collect();
            let y = dft_band(&conj_in, n, 0, n);
            let inv = 1.0 / n as f64;
            y.into_iter().map(|v| v.conj().scale(inv)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;

    fn rand_signal(n: usize, seed: u64) -> Vec<Cplx> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = ((s >> 16) as u32 as f64) / u32::MAX as f64 - 0.5;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = ((s >> 16) as u32 as f64) / u32::MAX as f64 - 0.5;
                Cplx::new(a, b)
            })
            .collect()
    }

    fn assert_close(a: &[Cplx], b: &[Cplx], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(x.dist(*y) < tol, "mismatch at {i}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn matches_dft_odd_sizes() {
        for n in [3usize, 5, 7, 15, 31, 63, 101, 255] {
            let x = rand_signal(n, n as u64);
            assert_close(
                &bluestein_fft(&x, Direction::Forward),
                &dft(&x, Direction::Forward),
                1e-8 * n as f64,
            );
        }
    }

    #[test]
    fn matches_dft_even_nonpow2() {
        for n in [6usize, 12, 20, 48, 100] {
            let x = rand_signal(n, n as u64 + 1);
            assert_close(
                &bluestein_fft(&x, Direction::Forward),
                &dft(&x, Direction::Forward),
                1e-8 * n as f64,
            );
        }
    }

    #[test]
    fn pow2_path_delegates_to_plan() {
        let x = rand_signal(64, 5);
        assert_close(
            &bluestein_fft(&x, Direction::Forward),
            &dft(&x, Direction::Forward),
            1e-8,
        );
    }

    #[test]
    fn inverse_roundtrip_arbitrary_size() {
        for n in [9usize, 21, 50, 127] {
            let x = rand_signal(n, 77 + n as u64);
            let y = bluestein_fft(&x, Direction::Forward);
            let z = bluestein_fft(&y, Direction::Inverse);
            assert_close(&z, &x, 1e-8);
        }
    }

    #[test]
    fn inverse_matches_naive() {
        let n = 33;
        let x = rand_signal(n, 4);
        assert_close(
            &bluestein_fft(&x, Direction::Inverse),
            &dft(&x, Direction::Inverse),
            1e-9,
        );
    }

    #[test]
    fn band_matches_full_dft() {
        let n = 128;
        let x = rand_signal(40, 8); // short signal, zero-padded to n
        let mut padded = x.clone();
        padded.resize(n, ZERO);
        let full = dft(&padded, Direction::Forward);
        let band = dft_band(&x, n, 10, 30);
        for (t, v) in band.iter().enumerate() {
            assert!(v.dist(full[10 + t]) < 1e-8, "band offset {t}");
        }
    }

    #[test]
    fn band_with_negative_start_wraps() {
        let n = 64;
        let x = rand_signal(17, 3);
        let mut padded = x.clone();
        padded.resize(n, ZERO);
        let full = dft(&padded, Direction::Forward);
        let band = dft_band(&x, n, -5, 11); // covers f = 59..63, 0..5
        for (t, v) in band.iter().enumerate() {
            let f = ((-5 + t as i64).rem_euclid(n as i64)) as usize;
            assert!(v.dist(full[f]) < 1e-8, "band offset {t} -> f {f}");
        }
    }

    #[test]
    fn band_of_large_n_is_precise() {
        // n far beyond what a full transform would allow; verify against
        // direct per-coefficient summation.
        let n = 1usize << 27;
        let x = rand_signal(64, 12);
        let start = (n / 2 - 8) as i64;
        let band = dft_band(&x, n, start, 16);
        let tau = -std::f64::consts::TAU / n as f64;
        for (t, v) in band.iter().enumerate() {
            let f = start as u64 + t as u64;
            let mut acc = ZERO;
            for (j, &xv) in x.iter().enumerate() {
                let k = (f as u128 * j as u128 % n as u128) as u64;
                acc += xv * Cplx::cis(tau * k as f64);
            }
            assert!(v.dist(acc) < 1e-7, "offset {t}: {v:?} vs {acc:?}");
        }
    }

    #[test]
    fn empty_band_and_empty_signal() {
        assert!(dft_band(&rand_signal(4, 1), 8, 0, 0).is_empty());
        let z = dft_band(&[], 8, 0, 4);
        assert!(z.iter().all(|v| v.abs() == 0.0));
        assert!(bluestein_fft(&[], Direction::Forward).is_empty());
    }

    #[test]
    #[should_panic(expected = "longer than transform size")]
    fn signal_longer_than_n_panics() {
        dft_band(&rand_signal(16, 1), 8, 0, 4);
    }
}
