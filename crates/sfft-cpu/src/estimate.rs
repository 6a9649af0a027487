//! Step 6: magnitude reconstruction.
//!
//! For each located frequency `f`, every loop contributes one estimate
//! `Z_r[hash_r(f)]·n / Ĝ_r(off_r) · e^{−2πi f τ_r / n}`; the reported
//! coefficient is the component-wise median over loops — robust to the
//! loops where `f` collided with another coefficient or landed in the
//! filter's transition region.

use fft::cplx::Cplx;
use kselect::median_cplx;
use rayon::prelude::*;

use crate::inner::LoopData;
use crate::params::SfftParams;
use crate::perm::mul_mod;

/// Minimum |Ĝ| we are willing to divide by; below this the loop's sample
/// carries no usable information about `f` and is skipped.
const MIN_FILTER_MAG: f64 = 1e-8;

/// Computes one loop's estimate of `x̂[f]`, or `None` when the filter
/// response at the hash offset is too small to divide by.
pub fn loop_estimate(f: usize, ld: &LoopData, params: &SfftParams) -> Option<Cplx> {
    let n = params.n;
    let (b, filter) = if ld.is_loc {
        (params.b_loc, &params.filter_loc)
    } else {
        (params.b_est, &params.filter_est)
    };
    let n_div_b = n / b;
    let g = ld.perm.permuted_freq(f);
    let mut hashed = g / n_div_b;
    let mut dist = (g % n_div_b) as i64;
    if dist > (n_div_b / 2) as i64 {
        hashed = (hashed + 1) % b;
        dist -= n_div_b as i64;
    }
    let gf = filter.freq_at(-dist);
    if gf.abs() < MIN_FILTER_MAG {
        return None;
    }
    let phase = Cplx::cis(-std::f64::consts::TAU * mul_mod(f, ld.perm.tau, n) as f64 / n as f64);
    Some(ld.buckets[hashed].scale(n as f64) / gf * phase)
}

/// Reconstructs the coefficients for all `hits` (sequential).
pub fn estimate(hits: &[usize], loops: &[LoopData], params: &SfftParams) -> Vec<(usize, Cplx)> {
    hits.iter()
        .map(|&f| (f, estimate_one(f, loops, params)))
        .collect()
}

/// Reconstructs in parallel over hits (the PsFFT/OpenMP form).
pub fn estimate_parallel(
    hits: &[usize],
    loops: &[LoopData],
    params: &SfftParams,
) -> Vec<(usize, Cplx)> {
    hits.par_iter()
        .map(|&f| (f, estimate_one(f, loops, params)))
        .collect()
}

fn estimate_one(f: usize, loops: &[LoopData], params: &SfftParams) -> Cplx {
    let vals: Vec<Cplx> = loops
        .iter()
        .filter_map(|ld| loop_estimate(f, ld, params))
        .collect();
    if vals.is_empty() {
        fft::cplx::ZERO
    } else {
        median_cplx(&vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inner::{perm_filter, subsample_fft};
    use crate::perm::Permutation;
    use fft::Plan;
    use signal::{MagnitudeModel, SparseSignal};

    fn build_loops(
        s: &SparseSignal,
        params: &SfftParams,
        seeds: &[usize],
        tau: usize,
    ) -> Vec<LoopData> {
        let plan_loc = Plan::new(params.b_loc);
        let plan_est = Plan::new(params.b_est);
        seeds
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let is_loc = i < params.loops_loc.min(seeds.len());
                let (b, filt, plan) = if is_loc {
                    (params.b_loc, &params.filter_loc, &plan_loc)
                } else {
                    (params.b_est, &params.filter_est, &plan_est)
                };
                let perm = Permutation::new(a, tau, s.n);
                let mut buckets = perm_filter(&s.time, filt, b, &perm);
                subsample_fft(&mut buckets, plan);
                LoopData {
                    perm,
                    buckets,
                    is_loc,
                }
            })
            .collect()
    }

    #[test]
    fn estimates_recover_sparse_coefficients() {
        let n = 1 << 12;
        let params = SfftParams::tuned(n, 8);
        let s = SparseSignal::generate(n, 8, MagnitudeModel::Unit, 21);
        let loops = build_loops(&s, &params, &[101, 2031, 333, 1097, 55, 777], 0);
        let hits: Vec<usize> = s.coords.iter().map(|&(f, _)| f).collect();
        let rec = estimate(&hits, &loops, &params);
        for ((f, est), &(tf, tv)) in rec.iter().zip(&s.coords) {
            assert_eq!(*f, tf);
            assert!(est.dist(tv) < 1e-3, "f={f}: estimated {est:?}, true {tv:?}");
        }
    }

    #[test]
    fn estimates_with_random_tau_phase_correction() {
        let n = 1 << 12;
        let params = SfftParams::tuned(n, 4).with_random_tau();
        let s = SparseSignal::generate(n, 4, MagnitudeModel::Unit, 5);
        let loops = build_loops(&s, &params, &[101, 2031, 333], 911);
        let hits: Vec<usize> = s.coords.iter().map(|&(f, _)| f).collect();
        let rec = estimate(&hits, &loops, &params);
        for ((_, est), &(_, tv)) in rec.iter().zip(&s.coords) {
            assert!(
                est.dist(tv) < 1e-3,
                "τ-corrected estimate {est:?} vs {tv:?}"
            );
        }
    }

    #[test]
    fn parallel_estimation_matches_sequential() {
        let n = 1 << 12;
        let params = SfftParams::tuned(n, 8);
        let s = SparseSignal::generate(n, 8, MagnitudeModel::Unit, 9);
        let loops = build_loops(&s, &params, &[101, 2031, 333, 1097], 0);
        let hits: Vec<usize> = s.coords.iter().map(|&(f, _)| f).collect();
        let a = estimate(&hits, &loops, &params);
        let b = estimate_parallel(&hits, &loops, &params);
        assert_eq!(a, b);
    }

    #[test]
    fn non_signal_frequency_estimates_near_zero() {
        let n = 1 << 12;
        let params = SfftParams::tuned(n, 4);
        let s = SparseSignal::generate(n, 4, MagnitudeModel::Unit, 31);
        let loops = build_loops(&s, &params, &[101, 2031, 333, 1097, 13], 0);
        // A frequency far from the support.
        let f = (0..n)
            .find(|f| s.coords.iter().all(|&(c, _)| c.abs_diff(*f) > 50))
            .unwrap();
        let rec = estimate(&[f], &loops, &params);
        assert!(
            rec[0].1.abs() < 1e-3,
            "noise estimate should be tiny: {:?}",
            rec[0].1
        );
    }
}
