//! Chebyshev polynomials and the Dolph-Chebyshev window.
//!
//! The Dolph-Chebyshev window is the minimax window: for a given main-lobe
//! width, every sidelobe sits at exactly the prescribed attenuation. The
//! sparse FFT uses it because its frequency response decays to the design
//! tolerance `δ` immediately outside the lobe fraction — the spectral
//! "leakage" between buckets is bounded by `δ` by construction.
//!
//! Construction follows the classic recipe (and the MIT reference code):
//! sample the order-`(w−1)` Chebyshev polynomial on the frequency grid,
//! inverse-transform, and centre. `w` is kept odd so the window has a
//! well-defined centre tap.

use fft::cplx::Cplx;
use fft::{bluestein_fft, Direction};

/// Evaluates the Chebyshev polynomial `T_m(x)` for any real `x`.
///
/// Uses `cos(m·acos x)` inside `[-1, 1]` and `±cosh(m·acosh |x|)` outside;
/// both branches are exact continuations of the same polynomial.
pub fn cheb_poly(m: u64, x: f64) -> f64 {
    let ax = x.abs();
    let t = if ax <= 1.0 {
        (m as f64 * x.acos()).cos()
    } else {
        (m as f64 * ax.acosh()).cosh()
    };
    if x < -1.0 && m % 2 == 1 {
        -t
    } else {
        t
    }
}

/// Window width needed so that sidelobes beyond `lobefrac` (a fraction of
/// the signal length) are below `tolerance`:
/// `w = (1/π)·(1/lobefrac)·acosh(1/tolerance)`, forced odd.
pub fn dolph_width(lobefrac: f64, tolerance: f64) -> usize {
    assert!(lobefrac > 0.0 && lobefrac < 0.5, "lobefrac out of (0, 0.5)");
    assert!(
        tolerance > 0.0 && tolerance < 1.0,
        "tolerance out of (0, 1)"
    );
    let mut w =
        ((1.0 / std::f64::consts::PI) * (1.0 / lobefrac) * (1.0 / tolerance).acosh()) as usize;
    if w.is_multiple_of(2) {
        w = w.saturating_sub(1);
    }
    w.max(1)
}

/// Builds an odd-length Dolph-Chebyshev window of width `w` with sidelobe
/// level `tolerance`, normalised to a unit centre tap. The result is real
/// and symmetric about index `w/2`.
pub fn dolph_chebyshev(w: usize, tolerance: f64) -> Vec<f64> {
    assert!(w % 2 == 1, "window width must be odd, got {w}");
    assert!(tolerance > 0.0 && tolerance < 1.0);
    if w == 1 {
        return vec![1.0];
    }
    let m = (w - 1) as u64;
    let t0 = ((1.0 / tolerance).acosh() / m as f64).cosh();
    // Frequency samples of the window (real).
    let freq: Vec<Cplx> = (0..w)
        .map(|i| {
            Cplx::real(
                cheb_poly(m, t0 * (std::f64::consts::PI * i as f64 / w as f64).cos()) * tolerance,
            )
        })
        .collect();
    // Inverse transform to time domain; the result is real up to rounding.
    let mut time = bluestein_fft(&freq, Direction::Forward);
    // Centre the window: index 0 of the transform corresponds to tap 0;
    // rotate so the peak sits at w/2.
    fft::shift::rotate_right(&mut time, w / 2);
    let peak = time[w / 2].re;
    time.iter().map(|c| c.re / peak).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheb_poly_matches_recurrence() {
        // T_0=1, T_1=x, T_{n+1} = 2x T_n − T_{n−1}
        for &x in &[-2.5, -1.0, -0.3, 0.0, 0.7, 1.0, 3.0] {
            // (a, b) = (T_m, T_{m+1}) at the top of iteration m.
            let (mut a, mut b) = (1.0, x);
            for m in 0..10u64 {
                let direct = cheb_poly(m, x);
                assert!(
                    (direct - a).abs() < 1e-6 * a.abs().max(1.0),
                    "T_{m}({x}) = {direct}, recurrence {a}"
                );
                let next = 2.0 * x * b - a;
                a = b;
                b = next;
            }
        }
    }

    #[test]
    fn cheb_bounded_on_unit_interval() {
        for i in 0..100 {
            let x = -1.0 + 2.0 * i as f64 / 99.0;
            assert!(cheb_poly(25, x).abs() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn width_grows_with_tighter_tolerance() {
        let w1 = dolph_width(0.01, 1e-4);
        let w2 = dolph_width(0.01, 1e-8);
        assert!(w2 > w1);
        assert!(w1 % 2 == 1 && w2 % 2 == 1);
    }

    #[test]
    fn width_grows_with_narrower_lobe() {
        assert!(dolph_width(0.001, 1e-6) > dolph_width(0.01, 1e-6));
    }

    #[test]
    fn window_is_real_symmetric_unit_peak() {
        let w = 65;
        let win = dolph_chebyshev(w, 1e-6);
        assert_eq!(win.len(), w);
        assert!((win[w / 2] - 1.0).abs() < 1e-12, "centre tap is the peak");
        for i in 0..w {
            assert!(
                (win[i] - win[w - 1 - i]).abs() < 1e-8,
                "symmetry broken at {i}"
            );
            assert!(win[i] <= 1.0 + 1e-9, "no tap exceeds the peak");
        }
    }

    #[test]
    fn window_sidelobes_below_tolerance() {
        // Frequency response of the window itself: pad to n and check
        // sidelobes beyond the main lobe are ≤ tolerance (relative to the
        // DC response).
        let tol = 1e-5;
        let lobefrac = 0.05;
        let w = dolph_width(lobefrac, tol);
        let win = dolph_chebyshev(w, tol);
        let n = 1024;
        let mut padded = vec![fft::cplx::ZERO; n];
        for (i, &v) in win.iter().enumerate() {
            // centre at 0 (wrapped)
            let t = (i as i64 - (w / 2) as i64).rem_euclid(n as i64) as usize;
            padded[t] = Cplx::real(v);
        }
        let spec = fft::Plan::new(n).transform(&padded, Direction::Forward);
        let dc = spec[0].abs();
        let lobe_bins = (lobefrac * n as f64).ceil() as usize;
        for (f, v) in spec.iter().enumerate() {
            let dist = f.min(n - f);
            if dist > lobe_bins {
                assert!(
                    v.abs() / dc < tol * 3.0,
                    "sidelobe at {f}: {} vs tol {tol}",
                    v.abs() / dc
                );
            }
        }
    }

    #[test]
    fn degenerate_width_one() {
        assert_eq!(dolph_chebyshev(1, 1e-6), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_width_panics() {
        dolph_chebyshev(64, 1e-6);
    }

    #[test]
    #[should_panic(expected = "lobefrac")]
    fn bad_lobefrac_panics() {
        dolph_width(0.7, 1e-6);
    }
}
