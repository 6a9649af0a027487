//! Flat-window filters: a prototype window multiplied (in time) by a
//! Dirichlet kernel, which convolves its spectrum (in frequency) with a
//! width-`b` boxcar. The result is ≈1 across a `b`-bin passband, decays to
//! the window's tolerance outside it, and still has time support `w ≪ n` —
//! the property that makes the permute+filter+bin step sublinear.
//!
//! Conventions (consistent with the derivation in DESIGN.md):
//!
//! * taps are stored for time indices `t = i − w/2` (centred support);
//! * the frequency response is `Ĝ(f) = Σ_t g[t]·e^{-2πi f t/n}` with the
//!   *centred* t — no linear phase, so `Ĝ` is real-positive across the
//!   passband and estimation needs no phase unwinding beyond the
//!   permutation's own factor;
//! * only a band `|f| ≤ half_band` of `Ĝ` is materialised (via the chirp-z
//!   [`fft::dft_band`]); the sparse-FFT estimation step never looks
//!   outside `|f| ≤ n/(2B)`.

use fft::cplx::Cplx;
use fft::dft_band;

use crate::cheb::{dolph_chebyshev, dolph_width};
use crate::gauss::{gauss_width, gaussian};

/// Which prototype window to flatten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Dolph-Chebyshev (minimax sidelobes) — the reference choice.
    DolphChebyshev,
    /// Truncated Gaussian.
    Gaussian,
}

/// A flat-window filter: centred time taps plus a banded frequency
/// response.
#[derive(Debug, Clone)]
pub struct FlatFilter {
    /// Time-domain taps `g[i]` for `t = i − w/2`, complex because of the
    /// Dirichlet modulation.
    taps: Vec<Cplx>,
    /// Signal length the filter was designed for.
    n: usize,
    /// Boxcar width in bins (the flat passband width).
    b: usize,
    /// Frequency response at offsets `-half_band ..= half_band`.
    band: Vec<Cplx>,
    half_band: usize,
    /// Design parameters, kept for reports.
    kind: WindowKind,
    lobefrac: f64,
    tolerance: f64,
}

impl FlatFilter {
    /// Designs a flat-window filter for signals of length `n`:
    /// `b`-bin-wide flat passband, transition `lobefrac·n` bins, stopband
    /// level `tolerance`. `half_band` is how far (in bins from centre) the
    /// materialised frequency response extends; estimation requires at
    /// least `n/(2B)` where `B` is the bucket count.
    pub fn design(
        n: usize,
        b: usize,
        lobefrac: f64,
        tolerance: f64,
        half_band: usize,
        kind: WindowKind,
    ) -> Self {
        assert!(n > 0 && b > 0, "n and b must be positive");
        assert!(b < n, "passband wider than the whole spectrum");
        let w = match kind {
            WindowKind::DolphChebyshev => dolph_width(lobefrac, tolerance),
            WindowKind::Gaussian => gauss_width(lobefrac, tolerance),
        }
        .min(if n.is_multiple_of(2) { n - 1 } else { n });
        let proto = match kind {
            WindowKind::DolphChebyshev => dolph_chebyshev(w, tolerance),
            WindowKind::Gaussian => gaussian(w, tolerance),
        };

        // Multiply by the centred Dirichlet kernel: spectrum ⇐ boxcar over
        // frequencies j ∈ [−b/2, b/2).
        let j_lo = -((b / 2) as i64);
        let j_hi = j_lo + b as i64; // exclusive
        let half = (w / 2) as i64;
        let mut taps: Vec<Cplx> = Vec::with_capacity(w);
        for (i, &p) in proto.iter().enumerate() {
            let t = i as i64 - half;
            // D(t) = Σ_{j=j_lo}^{j_hi-1} e^{+2πi j t / n}, summed in closed
            // form via the geometric series when possible.
            let d = dirichlet(t, j_lo, j_hi, n);
            taps.push(d.scale(p));
        }

        // Banded frequency response with the centred-time convention:
        // Ĝ(f) = e^{+2πi f (w/2) / n} · DFT_n(taps_as_stored)(f).
        let start = -(half_band as i64);
        let m = 2 * half_band + 1;
        let raw = dft_band(&taps, n, start, m);
        let mut band: Vec<Cplx> = raw
            .into_iter()
            .enumerate()
            .map(|(idx, v)| {
                let f = start + idx as i64;
                let phase =
                    Cplx::cis(std::f64::consts::TAU * (f * half) as f64 / n as f64);
                v * phase
            })
            .collect();

        // Normalise to a unit passband (peak of |Ĝ|).
        let peak = band
            .iter()
            .map(|c| c.abs())
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        for t in &mut taps {
            *t = t.unscale(peak);
        }
        for v in &mut band {
            *v = v.unscale(peak);
        }

        FlatFilter {
            taps,
            n,
            b,
            band,
            half_band,
            kind,
            lobefrac,
            tolerance,
        }
    }

    /// Time-domain taps (`t = i − w/2`).
    #[inline]
    pub fn taps(&self) -> &[Cplx] {
        &self.taps
    }

    /// Time support `w`.
    #[inline]
    pub fn width(&self) -> usize {
        self.taps.len()
    }

    /// Designed signal length.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Flat passband width in bins.
    #[inline]
    pub fn passband(&self) -> usize {
        self.b
    }

    /// Extent of the materialised response, in bins from centre.
    #[inline]
    pub fn half_band(&self) -> usize {
        self.half_band
    }

    /// Window kind used for the prototype.
    #[inline]
    pub fn kind(&self) -> WindowKind {
        self.kind
    }

    /// Design lobe fraction.
    #[inline]
    pub fn lobefrac(&self) -> f64 {
        self.lobefrac
    }

    /// Design tolerance (stopband level).
    #[inline]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Frequency response at a signed offset from the centre frequency.
    ///
    /// Panics if `|offset| > half_band` — the sparse-FFT estimation step
    /// only ever asks within `±n/(2B)`, and a silent zero would corrupt
    /// magnitudes.
    #[inline]
    pub fn freq_at(&self, offset: i64) -> Cplx {
        let idx = offset + self.half_band as i64;
        assert!(
            (0..self.band.len() as i64).contains(&idx),
            "offset {offset} outside materialised band ±{}",
            self.half_band
        );
        self.band[idx as usize]
    }

    /// Full `n`-point frequency response (test/inspection helper — O(n·w),
    /// use only for small `n`).
    pub fn freq_full(&self) -> Vec<Cplx> {
        let n = self.n;
        let half = (self.width() / 2) as i64;
        let mut out = vec![fft::cplx::ZERO; n];
        for (f, slot) in out.iter_mut().enumerate() {
            let mut acc = fft::cplx::ZERO;
            for (i, &g) in self.taps.iter().enumerate() {
                let t = i as i64 - half;
                let k = (f as i64 * t).rem_euclid(n as i64);
                acc += g * Cplx::cis(-std::f64::consts::TAU * k as f64 / n as f64);
            }
            *slot = acc;
        }
        out
    }
}

/// Centred Dirichlet kernel `Σ_{j=j_lo}^{j_hi−1} e^{2πi j t / n}` in closed
/// form.
fn dirichlet(t: i64, j_lo: i64, j_hi: i64, n: usize) -> Cplx {
    let count = (j_hi - j_lo) as f64;
    if t.rem_euclid(n as i64) == 0 {
        return Cplx::real(count);
    }
    let theta = std::f64::consts::TAU * t as f64 / n as f64;
    // Geometric series: e^{iθ j_lo} · (e^{iθ c} − 1)/(e^{iθ} − 1)
    let c = j_hi - j_lo;
    let num = Cplx::cis(theta * c as f64) - fft::cplx::ONE;
    let den = Cplx::cis(theta) - fft::cplx::ONE;
    Cplx::cis(theta * j_lo as f64) * (num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design_small(kind: WindowKind) -> FlatFilter {
        let n = 4096;
        let buckets = 64; // B buckets → bucket width n/B = 64
        let b = (1.2 * n as f64 / buckets as f64) as usize; // ≈ 76
        FlatFilter::design(n, b, 0.004, 1e-6, n / buckets, kind)
    }

    #[test]
    fn dirichlet_matches_direct_sum() {
        let n = 256;
        for &t in &[-7i64, -1, 0, 1, 5, 100] {
            for (lo, hi) in [(-8i64, 8i64), (0, 5), (-3, 1)] {
                let direct: Cplx = (lo..hi)
                    .map(|j| Cplx::cis(std::f64::consts::TAU * (j * t) as f64 / n as f64))
                    .sum();
                let closed = dirichlet(t, lo, hi, n);
                assert!(
                    closed.dist(direct) < 1e-9,
                    "t={t} box=({lo},{hi}): {closed:?} vs {direct:?}"
                );
            }
        }
    }

    #[test]
    fn banded_response_matches_full_response() {
        let f = design_small(WindowKind::DolphChebyshev);
        let full = f.freq_full();
        let n = f.n();
        for off in -(f.half_band() as i64)..=(f.half_band() as i64) {
            let idx = off.rem_euclid(n as i64) as usize;
            let banded = f.freq_at(off);
            assert!(
                banded.dist(full[idx]) < 1e-7,
                "offset {off}: {banded:?} vs {:?}",
                full[idx]
            );
        }
    }

    #[test]
    fn passband_is_flat_and_unit() {
        let f = design_small(WindowKind::DolphChebyshev);
        let transition = (f.lobefrac() * f.n() as f64).ceil() as i64;
        let flat_edge = (f.passband() / 2) as i64 - transition;
        assert!(flat_edge > 2, "test setup must leave a flat region");
        for off in -flat_edge..=flat_edge {
            let v = f.freq_at(off).abs();
            assert!(
                (0.95..=1.000001).contains(&v),
                "passband not flat at {off}: {v}"
            );
        }
    }

    #[test]
    fn response_decays_outside_passband() {
        let f = design_small(WindowKind::DolphChebyshev);
        let n = f.n();
        let full = f.freq_full();
        let transition = (f.lobefrac() * n as f64).ceil() as i64;
        let stop_edge = (f.passband() / 2) as i64 + transition;
        for fr in 0..n as i64 {
            let dist = fr.min(n as i64 - fr);
            if dist > stop_edge {
                let v = full[fr as usize].abs();
                assert!(
                    v < 1e-3,
                    "stopband leakage at {fr} (dist {dist}): {v}"
                );
            }
        }
    }

    #[test]
    fn gaussian_variant_also_flat() {
        let f = design_small(WindowKind::Gaussian);
        let v0 = f.freq_at(0).abs();
        assert!((0.9..=1.000001).contains(&v0));
        // A few bins around centre stay close to 1.
        for off in -4i64..=4 {
            assert!(f.freq_at(off).abs() > 0.8);
        }
    }

    #[test]
    fn time_support_much_smaller_than_n() {
        let f = design_small(WindowKind::DolphChebyshev);
        assert!(f.width() < f.n() / 2, "w={} n={}", f.width(), f.n());
        assert_eq!(f.taps().len(), f.width());
    }

    #[test]
    fn accessors_report_design() {
        let f = design_small(WindowKind::DolphChebyshev);
        assert_eq!(f.n(), 4096);
        assert_eq!(f.kind(), WindowKind::DolphChebyshev);
        assert!((f.tolerance() - 1e-6).abs() < 1e-18);
        assert!((f.lobefrac() - 0.004).abs() < 1e-12);
        assert_eq!(f.half_band(), 64);
    }

    #[test]
    #[should_panic(expected = "outside materialised band")]
    fn out_of_band_query_panics() {
        let f = design_small(WindowKind::DolphChebyshev);
        f.freq_at(f.half_band() as i64 + 1);
    }

    #[test]
    #[should_panic(expected = "passband wider")]
    fn oversized_passband_panics() {
        FlatFilter::design(64, 64, 0.01, 1e-6, 8, WindowKind::DolphChebyshev);
    }

    #[test]
    fn width_capped_by_n() {
        // Tiny n with demanding tolerance: width must be clamped below n.
        let f = FlatFilter::design(128, 8, 0.001, 1e-9, 16, WindowKind::DolphChebyshev);
        assert!(f.width() <= 128);
    }
}
