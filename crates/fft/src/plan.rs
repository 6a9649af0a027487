//! Power-of-two FFT plans: precomputed twiddle factors and bit-reversal
//! tables, executed as an iterative in-place radix-2 decimation-in-time
//! transform with a fused radix-4 first pass.
//!
//! A [`Plan`] is created once per transform size and reused; executing a
//! plan allocates nothing, which matters both for the CPU baselines (FFTW
//! plans behave the same way) and for the GPU simulator, whose kernels must
//! not allocate in their per-thread hot paths.

use crate::cplx::Cplx;
use crate::Direction;

/// A reusable FFT plan for a fixed power-of-two size.
///
/// ```
/// use fft::{Plan, Direction, Cplx};
/// let plan = Plan::new(8);
/// let x: Vec<Cplx> = (0..8).map(|i| Cplx::real(i as f64)).collect();
/// let spectrum = plan.transform(&x, Direction::Forward);
/// let back = plan.transform(&spectrum, Direction::Inverse);
/// assert!(back.iter().zip(&x).all(|(a, b)| a.dist(*b) < 1e-12));
/// ```
#[derive(Clone)]
pub struct Plan {
    n: usize,
    log2n: u32,
    /// Forward twiddles `e^{-2πi j / n}` for `j` in `0..n/2`.
    twiddles: Vec<Cplx>,
    /// Bit-reversal permutation indices (stored as u32: n ≤ 2^32).
    bitrev: Vec<u32>,
}

/// Returns true when `n` is a power of two (and nonzero).
#[inline]
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Smallest power of two `>= n`.
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

/// Largest power of two `<= n`; panics on 0.
#[inline]
pub fn floor_pow2(n: usize) -> usize {
    assert!(n > 0, "floor_pow2(0) is undefined");
    1usize << (usize::BITS - 1 - n.leading_zeros())
}

/// Why a plan could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The requested size is not a power of two.
    NotPowerOfTwo(usize),
    /// The requested size exceeds the 2^32 index range.
    TooLarge(usize),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NotPowerOfTwo(n) => {
                write!(f, "FFT plans require a power-of-two size, got {n}")
            }
            PlanError::TooLarge(n) => write!(f, "plan size {n} exceeds the 2^32 index range"),
        }
    }
}

impl std::error::Error for PlanError {}

impl Plan {
    /// Fallible constructor: returns a typed error instead of panicking.
    pub fn try_new(n: usize) -> Result<Self, PlanError> {
        if !is_pow2(n) {
            return Err(PlanError::NotPowerOfTwo(n));
        }
        if n > u32::MAX as usize {
            return Err(PlanError::TooLarge(n));
        }
        Ok(Self::new(n))
    }

    /// Builds a plan for an `n`-point transform. `n` must be a power of two.
    pub fn new(n: usize) -> Self {
        assert!(is_pow2(n), "Plan requires a power-of-two size, got {n}");
        assert!(n <= u32::MAX as usize, "Plan sizes above 2^32 unsupported");
        let log2n = n.trailing_zeros();
        let half = n / 2;
        let base = -std::f64::consts::TAU / n as f64;
        let twiddles: Vec<Cplx> = (0..half).map(|j| Cplx::cis(base * j as f64)).collect();
        let mut bitrev = vec![0u32; n];
        for (i, slot) in bitrev.iter_mut().enumerate() {
            *slot = (i as u32).reverse_bits() >> (32 - log2n.max(1));
        }
        if n == 1 {
            bitrev[0] = 0;
        }
        Plan {
            n,
            log2n,
            twiddles,
            bitrev,
        }
    }

    /// The transform size this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate 1-point plan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Forward twiddle table (`n/2` entries), exposed for the parallel
    /// executor in [`crate::parallel`].
    #[inline]
    pub(crate) fn twiddle_table(&self) -> &[Cplx] {
        &self.twiddles
    }

    /// Bit-reversal table, exposed for the parallel executor.
    #[inline]
    pub(crate) fn bitrev_table(&self) -> &[u32] {
        &self.bitrev
    }

    /// Applies the bit-reversal permutation in place.
    #[inline]
    pub(crate) fn permute(&self, data: &mut [Cplx]) {
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if j > i {
                data.swap(i, j);
            }
        }
    }

    /// Executes the transform in place.
    ///
    /// Forward is unnormalised; inverse divides by `n` (see [`crate::dft`]
    /// for the exact convention).
    pub fn process(&self, data: &mut [Cplx], dir: Direction) {
        assert_eq!(
            data.len(),
            self.n,
            "plan built for n={}, got buffer of len {}",
            self.n,
            data.len()
        );
        if self.n == 1 {
            return;
        }
        self.permute(data);
        self.butterflies(data, dir);
        if dir == Direction::Inverse {
            let inv = 1.0 / self.n as f64;
            for v in data.iter_mut() {
                *v = v.scale(inv);
            }
        }
    }

    /// All butterfly stages after the bit-reversal permutation.
    ///
    /// `data` must already be in bit-reversed order. No normalisation is
    /// applied here.
    pub(crate) fn butterflies(&self, data: &mut [Cplx], dir: Direction) {
        let conj = dir == Direction::Inverse;
        let n = self.n;
        // Stage len=2: twiddle is 1, plain add/sub.
        let mut len = 2;
        if len <= n {
            for chunk in data.chunks_exact_mut(2) {
                let a = chunk[0];
                let b = chunk[1];
                chunk[0] = a + b;
                chunk[1] = a - b;
            }
            len <<= 1;
        }
        // Stage len=4: twiddles are 1 and ∓i, still multiplication-free.
        if len <= n {
            for chunk in data.chunks_exact_mut(4) {
                let a = chunk[0];
                let b = chunk[1];
                let c = chunk[2];
                let d = chunk[3];
                // twiddle for j=1 is e^{-iπ/2} = -i forward, +i inverse.
                let d_tw = if conj {
                    Cplx::new(-d.im, d.re)
                } else {
                    Cplx::new(d.im, -d.re)
                };
                chunk[0] = a + c;
                chunk[2] = a - c;
                chunk[1] = b + d_tw;
                chunk[3] = b - d_tw;
            }
            len <<= 1;
        }
        // General stages with table lookups.
        while len <= n {
            let stride = n / len;
            let half = len / 2;
            for chunk in data.chunks_exact_mut(len) {
                let (lo, hi) = chunk.split_at_mut(half);
                for j in 0..half {
                    let mut w = self.twiddles[j * stride];
                    if conj {
                        w = w.conj();
                    }
                    let t = hi[j] * w;
                    let a = lo[j];
                    lo[j] = a + t;
                    hi[j] = a - t;
                }
            }
            len <<= 1;
        }
    }

    /// Convenience: out-of-place transform returning a fresh vector.
    pub fn transform(&self, input: &[Cplx], dir: Direction) -> Vec<Cplx> {
        let mut buf = input.to_vec();
        self.process(&mut buf, dir);
        buf
    }

    /// Forward transform into analysis coefficients `c_f` matching the
    /// repo-wide convention `x[t] = (1/n) Σ_f c_f e^{+2πi f t / n}`
    /// (the inverse here carries the `1/n`, so the plain forward is
    /// already in coefficient units). These are directly comparable
    /// with sFFT's recovered `(frequency, coefficient)` pairs.
    pub fn forward_coefficients(&self, input: &[Cplx]) -> Vec<Cplx> {
        self.transform(input, Direction::Forward)
    }
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("n", &self.n)
            .field("log2n", &self.log2n)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cplx::{ONE, ZERO};
    use crate::dft::dft;

    fn rand_signal(n: usize, seed: u64) -> Vec<Cplx> {
        // Small deterministic LCG so unit tests need no rand dependency here.
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
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
    fn pow2_helpers() {
        assert!(is_pow2(1));
        assert!(is_pow2(1024));
        assert!(!is_pow2(0));
        assert!(!is_pow2(6));
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(8), 8);
        assert_eq!(floor_pow2(5), 4);
        assert_eq!(floor_pow2(8), 8);
        assert_eq!(floor_pow2(1), 1);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_pow2_plan_panics() {
        Plan::new(12);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        assert!(Plan::try_new(64).is_ok());
        assert_eq!(
            Plan::try_new(12).err(),
            Some(crate::plan::PlanError::NotPowerOfTwo(12))
        );
        let msg = Plan::try_new(10).unwrap_err().to_string();
        assert!(msg.contains("power-of-two"));
    }

    #[test]
    #[should_panic(expected = "plan built for")]
    fn wrong_buffer_size_panics() {
        let p = Plan::new(8);
        let mut buf = vec![ZERO; 4];
        p.process(&mut buf, Direction::Forward);
    }

    #[test]
    fn one_point_plan_is_identity() {
        let p = Plan::new(1);
        let mut buf = vec![Cplx::new(3.0, 4.0)];
        p.process(&mut buf, Direction::Forward);
        assert_eq!(buf[0], Cplx::new(3.0, 4.0));
    }

    #[test]
    fn two_point_plan() {
        let p = Plan::new(2);
        let mut buf = vec![ONE, Cplx::real(2.0)];
        p.process(&mut buf, Direction::Forward);
        assert!(buf[0].dist(Cplx::real(3.0)) < 1e-12);
        assert!(buf[1].dist(Cplx::real(-1.0)) < 1e-12);
    }

    #[test]
    fn matches_naive_dft_small_sizes() {
        for log2 in 0..=10 {
            let n = 1usize << log2;
            let x = rand_signal(n, 42 + log2 as u64);
            let expected = dft(&x, Direction::Forward);
            let got = Plan::new(n).transform(&x, Direction::Forward);
            assert_close(&got, &expected, 1e-8 * n as f64);
        }
    }

    #[test]
    fn inverse_matches_naive_dft() {
        for log2 in 1..=8 {
            let n = 1usize << log2;
            let x = rand_signal(n, 7 + log2 as u64);
            let expected = dft(&x, Direction::Inverse);
            let got = Plan::new(n).transform(&x, Direction::Inverse);
            assert_close(&got, &expected, 1e-9 * n as f64);
        }
    }

    #[test]
    fn roundtrip_large() {
        let n = 1 << 14;
        let x = rand_signal(n, 9);
        let p = Plan::new(n);
        let mut buf = x.clone();
        p.process(&mut buf, Direction::Forward);
        p.process(&mut buf, Direction::Inverse);
        assert_close(&buf, &x, 1e-9);
    }

    #[test]
    fn plan_reuse_is_deterministic() {
        let p = Plan::new(256);
        let x = rand_signal(256, 1);
        let a = p.transform(&x, Direction::Forward);
        let b = p.transform(&x, Direction::Forward);
        assert_eq!(a.len(), b.len());
        for (u, v) in a.iter().zip(&b) {
            assert_eq!(u, v, "plan execution must be bit-reproducible");
        }
    }

    #[test]
    fn parseval_holds() {
        let n = 512;
        let x = rand_signal(n, 3);
        let y = Plan::new(n).transform(&x, Direction::Forward);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum();
        assert!((ey - n as f64 * ex).abs() < 1e-8 * ey);
    }

    #[test]
    fn time_shift_is_frequency_phase_ramp() {
        // x[(t-s) mod n]  ⇒  X[f] * e^{-2πi f s / n}
        let n = 64;
        let s = 5usize;
        let x = rand_signal(n, 11);
        let shifted: Vec<Cplx> = (0..n).map(|t| x[(t + n - s) % n]).collect();
        let p = Plan::new(n);
        let fx = p.transform(&x, Direction::Forward);
        let fs = p.transform(&shifted, Direction::Forward);
        for f in 0..n {
            let phase = Cplx::cis(-std::f64::consts::TAU * (f * s) as f64 / n as f64);
            assert!(fs[f].dist(fx[f] * phase) < 1e-9);
        }
    }
}
