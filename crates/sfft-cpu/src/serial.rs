//! The sequential sFFT v1 pipeline — the reference the paper ports to the
//! GPU, and the ground truth every parallel implementation in this
//! workspace is tested against.

use std::time::Instant;

use fft::cplx::Cplx;
use fft::Plan;
use rand::rngs::StdRng;
use rand::SeedableRng;
use signal::Recovered;

use crate::estimate::estimate;
use crate::inner::{cutoff, locate, perm_filter, subsample_fft, LoopData};
use crate::params::SfftParams;
use crate::perm::Permutation;
use crate::profile::StepTimings;

/// Runs the full sparse FFT on `time` and returns the recovered
/// `(frequency, coefficient)` pairs sorted by frequency.
///
/// `seed` drives the random permutations; the result is fully
/// deterministic given `(params, time, seed)`.
///
/// ```
/// use sfft_cpu::{sfft, SfftParams};
/// use signal::{SparseSignal, MagnitudeModel};
/// let n = 1 << 11;
/// let s = SparseSignal::generate(n, 4, MagnitudeModel::Unit, 7);
/// let rec = sfft(&SfftParams::tuned(n, 4), &s.time, 1);
/// for (f, v) in &s.coords {
///     let (_, est) = rec.iter().find(|(g, _)| g == f).expect("recovered");
///     assert!(est.dist(*v) < 1e-3);
/// }
/// ```
pub fn sfft(params: &SfftParams, time: &[Cplx], seed: u64) -> Recovered {
    run_loops(params, time, &mut StdRng::seed_from_u64(seed), None, None)
}

/// The sequential v1 loop behind [`sfft`], [`crate::sfft_profiled`] and
/// [`crate::sfft_v2`]: per loop, permute, filter, FFT, and on location
/// loops cutoff and locate; then estimate and sort by frequency.
///
/// `rng` draws one permutation per loop, in loop order. `mask` is the
/// comb's residue mask (location votes only for frequencies whose
/// residue it keeps). With `timings`, each step's wall time is added to
/// its field; without, no clock is read.
pub(crate) fn run_loops(
    params: &SfftParams,
    time: &[Cplx],
    rng: &mut StdRng,
    mask: Option<&[bool]>,
    mut timings: Option<&mut StepTimings>,
) -> Recovered {
    let n = params.n;
    assert_eq!(time.len(), n, "signal length must match params.n");

    let plan_loc = Plan::new(params.b_loc);
    let plan_est = Plan::new(params.b_est);

    let thresh = params.loops_thresh;
    let mut score = vec![0u8; n];
    let mut hits: Vec<usize> = Vec::new();
    let mut loops: Vec<LoopData> = Vec::with_capacity(params.loops_total());

    for r in 0..params.loops_total() {
        let is_loc = r < params.loops_loc;
        let (b, filter, plan) = if is_loc {
            (params.b_loc, &params.filter_loc, &plan_loc)
        } else {
            (params.b_est, &params.filter_est, &plan_est)
        };
        let perm = Permutation::random(rng, n, params.random_tau);
        let mut buckets = timed(
            &mut timings,
            |t| &mut t.perm_filter,
            || perm_filter(time, filter, b, &perm),
        );
        timed(
            &mut timings,
            |t| &mut t.subsampled_fft,
            || subsample_fft(&mut buckets, plan),
        );
        if is_loc {
            let selected = timed(
                &mut timings,
                |t| &mut t.cutoff,
                || cutoff(&buckets, params.num_candidates),
            );
            timed(
                &mut timings,
                |t| &mut t.locate,
                || locate(&selected, &perm, b, thresh, &mut score, &mut hits, mask),
            );
        }
        loops.push(LoopData {
            perm,
            buckets,
            is_loc,
        });
    }

    let mut rec = timed(
        &mut timings,
        |t| &mut t.estimate,
        || estimate(&hits, &loops, params),
    );
    rec.sort_unstable_by_key(|&(f, _)| f);
    rec
}

/// Runs `f`; when profiling, adds its wall time to the step `field`
/// picks.
fn timed<T>(
    timings: &mut Option<&mut StepTimings>,
    field: fn(&mut StepTimings) -> &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let Some(t) = timings.as_deref_mut() else {
        return f();
    };
    let start = Instant::now();
    let out = f();
    *field(t) += start.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::{l1_error_per_coeff, support_recall, MagnitudeModel, SparseSignal};

    fn run(n: usize, k: usize, seed: u64) -> (SparseSignal, Recovered) {
        let params = SfftParams::tuned(n, k);
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, seed);
        let rec = sfft(&params, &s.time, seed ^ 0xabcdef);
        (s, rec)
    }

    #[test]
    fn recovers_all_coefficients_small() {
        let (s, rec) = run(1 << 12, 8, 1);
        assert!(
            support_recall(&s.coords, &rec) > 0.99,
            "missed coefficients: truth {:?}",
            s.coords.iter().map(|&(f, _)| f).collect::<Vec<_>>()
        );
        let err = l1_error_per_coeff(&s.coords, &rec);
        assert!(err < 1e-3, "L1 error {err}");
    }

    #[test]
    fn recovers_at_moderate_size_and_sparsity() {
        let (s, rec) = run(1 << 14, 50, 2);
        assert!(support_recall(&s.coords, &rec) > 0.98);
        let err = l1_error_per_coeff(&s.coords, &rec);
        assert!(err < 1e-2, "L1 error {err}");
    }

    #[test]
    fn deterministic_given_seed() {
        let params = SfftParams::tuned(1 << 12, 8);
        let s = SparseSignal::generate(1 << 12, 8, MagnitudeModel::Unit, 4);
        let a = sfft(&params, &s.time, 99);
        let b = sfft(&params, &s.time, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_same_support() {
        let params = SfftParams::tuned(1 << 12, 8);
        let s = SparseSignal::generate(1 << 12, 8, MagnitudeModel::Unit, 4);
        let a = sfft(&params, &s.time, 1);
        let b = sfft(&params, &s.time, 2);
        let fa: Vec<usize> = a
            .iter()
            .filter(|(_, v)| v.abs() > 0.5)
            .map(|&(f, _)| f)
            .collect();
        let fb: Vec<usize> = b
            .iter()
            .filter(|(_, v)| v.abs() > 0.5)
            .map(|&(f, _)| f)
            .collect();
        assert_eq!(fa, fb, "large coefficients must not depend on the seed");
    }

    #[test]
    fn random_tau_variant_recovers() {
        let n = 1 << 12;
        let params = SfftParams::tuned(n, 8).with_random_tau();
        let s = SparseSignal::generate(n, 8, MagnitudeModel::Unit, 10);
        let rec = sfft(&params, &s.time, 7);
        assert!(support_recall(&s.coords, &rec) > 0.99);
        assert!(l1_error_per_coeff(&s.coords, &rec) < 1e-3);
    }

    #[test]
    fn works_with_varied_magnitudes() {
        let n = 1 << 13;
        let k = 16;
        let params = SfftParams::tuned(n, k);
        let s = SparseSignal::generate(n, k, MagnitudeModel::Uniform { lo: 1.0, hi: 10.0 }, 6);
        let rec = sfft(&params, &s.time, 3);
        assert!(support_recall(&s.coords, &rec) > 0.9);
        // Relative error per coefficient magnitude.
        let err = l1_error_per_coeff(&s.coords, &rec);
        assert!(err < 0.1, "L1 error {err}");
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn wrong_signal_length_panics() {
        let params = SfftParams::tuned(1 << 12, 8);
        sfft(&params, &[fft::cplx::ZERO; 16], 1);
    }
}
