//! Fast k-selection by thresholding — the paper's Algorithm 6.
//!
//! "We assign a number of B threads and each thread processes one element
//! in the buckets. If the value in the buckets is greater than the
//! threshold, the element is chosen and its index is stored." One linear
//! pass, no sort. The catch is choosing the threshold: the paper picks it
//! "in the same order as the 'small' noise coefficients, obtained
//! empirically". [`noise_floor_threshold`] is the reproducible form of
//! that advice: a sampled median of the magnitudes (the noise floor, since
//! `k ≪ B` implies most buckets are noise), scaled by a safety factor.

use rayon::prelude::*;

/// Estimates the selection threshold from the data itself: `factor` times
/// the median magnitude of a deterministic sample of `values`.
///
/// The median of the bucket magnitudes is a robust noise-floor estimate
/// because at most `k` of the `B ≫ k` buckets hold signal.
///
/// ```
/// use kselect::{noise_floor_threshold, threshold_select};
/// let mut mags = vec![0.01; 100];
/// mags[7] = 5.0;
/// mags[42] = 3.0;
/// let thr = noise_floor_threshold(&mags, 32, 16.0);
/// assert_eq!(threshold_select(&mags, thr), vec![7, 42]);
/// ```
pub fn noise_floor_threshold(values: &[f64], sample: usize, factor: f64) -> f64 {
    assert!(factor > 0.0, "factor must be positive");
    if values.is_empty() {
        return 0.0;
    }
    let sample = sample.clamp(1, values.len());
    let stride = (values.len() / sample).max(1);
    let mut picks: Vec<f64> = values.iter().step_by(stride).copied().collect();
    let mid = picks.len() / 2;
    let (_, med, _) = picks.select_nth_unstable_by(mid, |a, b| {
        a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
    });
    *med * factor
}

/// Selects the indices of all elements `>= threshold`, sequentially.
pub fn threshold_select_seq(values: &[f64], threshold: f64) -> Vec<usize> {
    values
        .iter()
        .enumerate()
        .filter_map(|(i, &v)| if v >= threshold { Some(i) } else { None })
        .collect()
}

/// Parallel variant: each chunk filters independently (the per-thread
/// `atomicAdd(count)` of Algorithm 6 becomes a parallel collect; the
/// GPU-simulated version in the `cusfft` crate keeps the atomic cursor).
/// The result is sorted by index for determinism.
pub fn threshold_select(values: &[f64], threshold: f64) -> Vec<usize> {
    let mut out: Vec<usize> = values
        .par_iter()
        .enumerate()
        .filter_map(|(i, &v)| if v >= threshold { Some(i) } else { None })
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_at_or_above_threshold() {
        let v = [0.1, 5.0, 0.2, 7.0, 3.0];
        assert_eq!(threshold_select_seq(&v, 3.0), vec![1, 3, 4]);
        assert_eq!(threshold_select(&v, 3.0), vec![1, 3, 4]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let v: Vec<f64> = (0..50_000)
            .map(|i| ((i * 16807) % 2147483647) as f64)
            .collect();
        let t = 1e9;
        assert_eq!(threshold_select(&v, t), threshold_select_seq(&v, t));
    }

    #[test]
    fn noise_floor_separates_signal_from_noise() {
        // 10 spikes of magnitude ~100 in 10k noise values of magnitude ~1.
        let mut v: Vec<f64> = (0..10_000)
            .map(|i| 0.5 + ((i * 48271) % 1000) as f64 / 1000.0)
            .collect();
        for j in 0..10 {
            v[j * 997] = 100.0 + j as f64;
        }
        let thresh = noise_floor_threshold(&v, 256, 4.0);
        let selected = threshold_select(&v, thresh);
        assert_eq!(selected.len(), 10, "exactly the spikes: {selected:?}");
        for &i in &selected {
            assert!(v[i] > 50.0);
        }
    }

    #[test]
    fn threshold_too_low_selects_extra_but_never_misses() {
        // The paper notes a low threshold "will yield slightly more than
        // k elements, but this is ignored" — verify the superset property.
        let mut v = vec![1.0; 1000];
        for j in 0..5 {
            v[j * 199] = 50.0;
        }
        let selected = threshold_select(&v, 0.5);
        assert_eq!(selected.len(), 1000);
        for j in 0..5 {
            assert!(selected.contains(&(j * 199)));
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(noise_floor_threshold(&[], 16, 2.0), 0.0);
        assert!(threshold_select(&[], 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn bad_factor_panics() {
        noise_floor_threshold(&[1.0], 1, 0.0);
    }
}
