//! # `sfft-cpu` — the sparse FFT on the CPU
//!
//! The MIT-style sFFT v1 pipeline (permute → flat-window filter → bin →
//! subsampled FFT → cutoff → location voting → median estimation), in two
//! forms:
//!
//! * [`serial::sfft`] — the sequential reference the paper starts from;
//! * [`parallel::psfft`] — the rayon port of the authors' OpenMP "PsFFT"
//!   baseline, bit-identical to the serial reference per seed.
//!
//! [`profile::sfft_profiled`] (per-step timings for Figure 2) and
//! [`v2::sfft_v2`] (sFFT v2's comb pre-filter) run the same sequential
//! loop as [`serial::sfft`]. The building blocks ([`inner`], [`estimate`], [`perm`], [`params`]) are
//! public because the GPU implementation in the `cusfft` crate reuses the
//! same math and is tested against them.

pub mod comb;
pub mod estimate;
pub mod inner;
pub mod parallel;
pub mod params;
pub mod perm;
pub mod profile;
pub mod serial;
pub mod v2;

pub use comb::CombParams;
pub use parallel::psfft;
pub use params::{ParamError, SfftParams, Tuning};
pub use perm::Permutation;
pub use profile::{sfft_profiled, StepTimings};
pub use serial::sfft;
pub use v2::{sfft_v2, V2Stats};
