//! # `fft` — the dense FFT substrate
//!
//! A from-scratch double-precision FFT library serving three roles in the
//! cusFFT reproduction:
//!
//! 1. the **B-dimensional subsampled FFT** inside the sparse pipeline,
//! 2. the **cuFFT baseline** (executed under the GPU simulator's cost
//!    model in the `cusfft` crate), and
//! 3. the **multithreaded FFTW baseline** on the CPU side
//!    ([`parallel::ParallelPlan`]).
//!
//! Transform convention throughout the workspace:
//!
//! * forward: `X[f] = Σ_t x[t]·e^{-2πi f t/n}` (unnormalised)
//! * inverse: `x[t] = (1/n)·Σ_f X[f]·e^{+2πi f t/n}`
//!
//! Modules: [`cplx`] (the complex type), [`dft`] (O(n²) oracle), [`plan`]
//! (power-of-two iterative plans), [`bluestein`] (arbitrary sizes and
//! banded spectra via chirp-z), [`batch`] (cuFFT-style batched mode),
//! [`parallel`] (rayon executor), [`shift`] (fftshift helpers).

pub mod batch;
pub mod bluestein;
pub mod cplx;
pub mod dft;
pub mod parallel;
pub mod plan;
pub mod shift;

pub use batch::BatchPlan;
pub use bluestein::{bluestein_fft, dft_band};
pub use cplx::Cplx;
pub use parallel::ParallelPlan;
pub use plan::{floor_pow2, is_pow2, next_pow2, Plan, PlanError};

/// Transform direction shared by every implementation in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Time → frequency, unnormalised.
    Forward,
    /// Frequency → time, scaled by `1/n`.
    Inverse,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn flip(self) -> Direction {
        match self {
            Direction::Forward => Direction::Inverse,
            Direction::Inverse => Direction::Forward,
        }
    }
}

/// One-shot FFT of any size (power-of-two fast path, Bluestein otherwise).
pub fn fft(input: &[Cplx]) -> Vec<Cplx> {
    bluestein_fft(input, Direction::Forward)
}

/// One-shot inverse FFT of any size.
pub fn ifft(input: &[Cplx]) -> Vec<Cplx> {
    bluestein_fft(input, Direction::Inverse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::Forward.flip(), Direction::Inverse);
        assert_eq!(Direction::Inverse.flip(), Direction::Forward);
    }

    #[test]
    fn oneshot_roundtrip_pow2_and_odd() {
        for n in [8usize, 13] {
            let x: Vec<Cplx> = (0..n).map(|i| Cplx::new(i as f64, -1.0)).collect();
            let back = ifft(&fft(&x));
            for (a, b) in back.iter().zip(&x) {
                assert!(a.dist(*b) < 1e-9);
            }
        }
    }
}
