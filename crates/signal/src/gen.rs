//! k-sparse spectrum signal generation — the paper's workload.
//!
//! The evaluation uses signals whose Fourier spectrum has exactly `k`
//! non-zero coefficients at uniformly random frequencies ("recovering the
//! exact 1000 non-zero coefficients"). The generator places `k` distinct
//! frequencies with configurable magnitudes and uniform random phases,
//! then inverse-transforms to the time domain.

use fft::cplx::{Cplx, ZERO};
use fft::{Direction, Plan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How coefficient magnitudes are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MagnitudeModel {
    /// All large coefficients have magnitude 1 (the reference benchmark).
    Unit,
    /// Magnitudes uniform in `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

/// A generated k-sparse signal: the ground-truth spectrum support plus the
/// time-domain samples.
///
/// ```
/// use signal::{SparseSignal, MagnitudeModel};
/// let s = SparseSignal::generate(1 << 10, 5, MagnitudeModel::Unit, 42);
/// assert_eq!(s.k(), 5);
/// assert_eq!(s.time.len(), 1 << 10);
/// // The spectrum really is 5-sparse:
/// assert_eq!(s.dense_spectrum().iter().filter(|c| c.abs() > 0.0).count(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct SparseSignal {
    /// Signal length.
    pub n: usize,
    /// Ground-truth non-zero coefficients, sorted by frequency.
    pub coords: Vec<(usize, Cplx)>,
    /// Time-domain samples (`x = ifft(x̂)`, inverse normalised by 1/n).
    pub time: Vec<Cplx>,
}

impl SparseSignal {
    /// Generates a k-sparse signal of length `n` (power of two) with the
    /// given magnitude model, deterministically from `seed`.
    pub fn generate(n: usize, k: usize, model: MagnitudeModel, seed: u64) -> Self {
        assert!(fft::is_pow2(n), "n must be a power of two, got {n}");
        assert!(k >= 1 && k <= n, "k={k} out of 1..={n}");
        let mut rng = StdRng::seed_from_u64(seed);

        // k distinct frequencies via partial Fisher-Yates over [0, n).
        // For k ≪ n a rejection sample is cheaper and allocation-free.
        let mut freqs: Vec<usize> = Vec::with_capacity(k);
        while freqs.len() < k {
            let f = rng.gen_range(0..n);
            if !freqs.contains(&f) {
                freqs.push(f);
            }
        }
        freqs.sort_unstable();

        let coords: Vec<(usize, Cplx)> = freqs
            .into_iter()
            .map(|f| {
                let mag = match model {
                    MagnitudeModel::Unit => 1.0,
                    MagnitudeModel::Uniform { lo, hi } => rng.gen_range(lo..=hi),
                };
                let phase = rng.gen_range(0.0..std::f64::consts::TAU);
                (f, Cplx::from_polar(mag, phase))
            })
            .collect();

        let mut spectrum = vec![ZERO; n];
        for &(f, v) in &coords {
            spectrum[f] = v;
        }
        let mut time = spectrum;
        Plan::new(n).process(&mut time, Direction::Inverse);

        SparseSignal { n, coords, time }
    }

    /// Sparsity of the generated spectrum.
    #[inline]
    pub fn k(&self) -> usize {
        self.coords.len()
    }

    /// Ground truth as a dense spectrum (test helper; O(n) memory).
    pub fn dense_spectrum(&self) -> Vec<Cplx> {
        let mut s = vec![ZERO; self.n];
        for &(f, v) in &self.coords {
            s[f] = v;
        }
        s
    }

    /// Looks up the true coefficient at `f` (zero if not in the support).
    pub fn coeff_at(&self, f: usize) -> Cplx {
        self.coords
            .binary_search_by_key(&f, |&(c, _)| c)
            .map(|i| self.coords[i].1)
            .unwrap_or(ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft::dft::dft_coefficient;

    #[test]
    fn generates_exactly_k_distinct_coords() {
        let s = SparseSignal::generate(1 << 12, 50, MagnitudeModel::Unit, 7);
        assert_eq!(s.k(), 50);
        let mut fs: Vec<usize> = s.coords.iter().map(|&(f, _)| f).collect();
        fs.dedup();
        assert_eq!(fs.len(), 50, "frequencies must be distinct");
        assert!(fs.windows(2).all(|w| w[0] < w[1]), "sorted");
    }

    #[test]
    fn unit_model_gives_unit_magnitudes() {
        let s = SparseSignal::generate(1 << 10, 20, MagnitudeModel::Unit, 3);
        for &(_, v) in &s.coords {
            assert!((v.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_model_respects_bounds() {
        let s =
            SparseSignal::generate(1 << 10, 30, MagnitudeModel::Uniform { lo: 2.0, hi: 5.0 }, 9);
        for &(_, v) in &s.coords {
            let m = v.abs();
            assert!((2.0 - 1e-9..=5.0 + 1e-9).contains(&m));
        }
    }

    #[test]
    fn time_domain_transforms_back_to_spectrum() {
        let s = SparseSignal::generate(1 << 8, 5, MagnitudeModel::Unit, 11);
        for &(f, v) in &s.coords {
            let got = dft_coefficient(&s.time, f);
            assert!(got.dist(v) < 1e-9, "coefficient {f}: {got:?} vs {v:?}");
        }
        // A frequency outside the support is ~zero.
        let outside = (0..s.n).find(|f| s.coeff_at(*f) == ZERO).unwrap();
        assert!(dft_coefficient(&s.time, outside).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed_and_differs_across_seeds() {
        let a = SparseSignal::generate(1 << 10, 10, MagnitudeModel::Unit, 42);
        let b = SparseSignal::generate(1 << 10, 10, MagnitudeModel::Unit, 42);
        let c = SparseSignal::generate(1 << 10, 10, MagnitudeModel::Unit, 43);
        assert_eq!(a.coords, b.coords);
        assert_ne!(a.coords, c.coords);
    }

    #[test]
    fn coeff_lookup() {
        let s = SparseSignal::generate(1 << 8, 3, MagnitudeModel::Unit, 5);
        let (f0, v0) = s.coords[0];
        assert_eq!(s.coeff_at(f0), v0);
        let dense = s.dense_spectrum();
        assert_eq!(dense[f0], v0);
        assert_eq!(dense.iter().filter(|c| c.abs() > 0.0).count(), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_panics() {
        SparseSignal::generate(1000, 5, MagnitudeModel::Unit, 1);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn k_zero_panics() {
        SparseSignal::generate(64, 0, MagnitudeModel::Unit, 1);
    }
}
