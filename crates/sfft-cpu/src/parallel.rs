//! PsFFT — the multicore CPU sparse FFT (the paper's OpenMP baseline from
//! prior work \[6\]), reimplemented with rayon.
//!
//! Parallel structure mirrors the OpenMP version:
//!
//! * the permute+filter+bin step is partitioned *by bucket* (each worker
//!   owns a stride-B slice of the filter taps — the same decomposition as
//!   GPU Algorithm 2, which keeps the reduction collision-free);
//! * the independent inner loops run concurrently;
//! * estimation parallelises over hits.
//!
//! Voting is aggregated sequentially in loop order, so PsFFT is
//! bit-identical to the serial reference for the same seed — asserted by
//! tests, and the property the paper relies on when it claims "the same
//! numerical accuracy as the original sequential algorithm".

use fft::cplx::{Cplx, ZERO};
use fft::Plan;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use signal::Recovered;

use crate::estimate::estimate_parallel;
use crate::inner::{cutoff, locate, subsample_fft, LoopData};
use crate::params::SfftParams;
use crate::perm::Permutation;

/// Bucket-partitioned permute+filter (the loop-partition decomposition):
/// worker `tid` accumulates taps `i ≡ tid (mod B)` — collision-free.
pub fn perm_filter_partitioned(
    time: &[Cplx],
    filter: &filters::FlatFilter,
    b: usize,
    perm: &Permutation,
) -> Vec<Cplx> {
    let n = time.len();
    assert!(b > 0 && n.is_multiple_of(b), "B={b} must divide n={n}");
    let taps = filter.taps();
    let w = taps.len();
    let half = (w / 2) as i64;

    (0..b)
        .into_par_iter()
        .map(|tid| {
            // First loop position i with (i − w/2) mod B == tid.
            let first = (tid as i64 + half).rem_euclid(b as i64) as usize;
            let mut acc = ZERO;
            let mut i = first;
            while i < w {
                let t = i as i64 - half;
                let src = perm.source_index(t);
                acc += time[src] * taps[i];
                i += b;
            }
            acc
        })
        .collect()
}

/// Runs PsFFT. Deterministic and bit-identical to
/// [`crate::serial::sfft`] for the same `(params, time, seed)`.
pub fn psfft(params: &SfftParams, time: &[Cplx], seed: u64) -> Recovered {
    let n = params.n;
    assert_eq!(time.len(), n, "signal length must match params.n");
    let mut rng = StdRng::seed_from_u64(seed);

    // Draw all permutations up front (same RNG consumption order as the
    // serial reference).
    let perms: Vec<Permutation> = (0..params.loops_total())
        .map(|_| Permutation::random(&mut rng, n, params.random_tau))
        .collect();

    let plan_loc = Plan::new(params.b_loc);
    let plan_est = Plan::new(params.b_est);

    // Independent loops in parallel.
    let loops: Vec<LoopData> = perms
        .into_par_iter()
        .enumerate()
        .map(|(r, perm)| {
            let is_loc = r < params.loops_loc;
            let (b, filter, plan) = if is_loc {
                (params.b_loc, &params.filter_loc, &plan_loc)
            } else {
                (params.b_est, &params.filter_est, &plan_est)
            };
            let mut buckets = perm_filter_partitioned(time, filter, b, &perm);
            subsample_fft(&mut buckets, plan);
            LoopData {
                perm,
                buckets,
                is_loc,
            }
        })
        .collect();

    // Sequential vote aggregation in loop order (determinism).
    let mut score = vec![0u8; n];
    let mut hits: Vec<usize> = Vec::new();
    for ld in loops.iter().take(params.loops_loc) {
        let selected = cutoff(&ld.buckets, params.num_candidates);
        locate(
            &selected,
            &ld.perm,
            params.b_loc,
            params.loops_thresh,
            &mut score,
            &mut hits,
        );
    }

    let mut rec = estimate_parallel(&hits, &loops, params);
    rec.sort_unstable_by_key(|&(f, _)| f);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inner::perm_filter;
    use crate::serial::sfft;
    use signal::{support_recall, MagnitudeModel, SparseSignal};

    #[test]
    fn partitioned_filter_matches_sequential_filter() {
        let n = 1 << 12;
        let params = SfftParams::tuned(n, 8);
        let s = SparseSignal::generate(n, 8, MagnitudeModel::Unit, 17);
        let perm = Permutation::new(1001, 5, n);
        let seq = perm_filter(&s.time, &params.filter_loc, params.b_loc, &perm);
        let par = perm_filter_partitioned(&s.time, &params.filter_loc, params.b_loc, &perm);
        assert_eq!(seq.len(), par.len());
        for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
            assert!(a.dist(*b) < 1e-12, "bucket {i}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn psfft_matches_serial_reference_exactly() {
        let n = 1 << 12;
        let k = 8;
        let params = SfftParams::tuned(n, k);
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 23);
        let a = sfft(&params, &s.time, 555);
        let b = psfft(&params, &s.time, 555);
        assert_eq!(a.len(), b.len(), "same number of recovered coefficients");
        for ((fa, va), (fb, vb)) in a.iter().zip(&b) {
            assert_eq!(fa, fb);
            assert!(va.dist(*vb) < 1e-12, "f={fa}: {va:?} vs {vb:?}");
        }
    }

    #[test]
    fn psfft_recovers_support() {
        let n = 1 << 13;
        let k = 20;
        let params = SfftParams::tuned(n, k);
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 77);
        let rec = psfft(&params, &s.time, 1);
        assert!(support_recall(&s.coords, &rec) > 0.95);
    }

    #[test]
    fn psfft_with_random_tau() {
        let n = 1 << 12;
        let params = SfftParams::tuned(n, 6).with_random_tau();
        let s = SparseSignal::generate(n, 6, MagnitudeModel::Unit, 3);
        let a = sfft(&params, &s.time, 9);
        let b = psfft(&params, &s.time, 9);
        assert_eq!(a, b);
    }
}
