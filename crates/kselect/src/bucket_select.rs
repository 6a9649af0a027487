//! BucketSelect (Alabi et al., *Fast K-selection Algorithms for Graphics
//! Processing Units*, JEA 2012) — the GPU k-selection baseline the paper
//! compares its fast selection against.
//!
//! The algorithm histograms values into uniform buckets over the current
//! `[min, max]` range, walks the histogram from the top until `k` elements
//! are covered, and recurses into the single straddling bucket. On
//! uniformly distributed data it converges in one or two passes; on the
//! sFFT's spiky bucket magnitudes ("only very few of the buckets are large
//! while the rest are almost empty") most elements land in the bottom
//! bucket and many refinement passes are needed — exactly the weakness the
//! paper cites as its reason for a threshold-based selection instead.

/// Statistics from a BucketSelect run, exposed so the ablation bench can
/// show the pass-count blow-up on non-uniform data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketSelectStats {
    /// Refinement passes executed.
    pub passes: u32,
    /// Total histogram increments (work proxy).
    pub increments: u64,
}

/// Result of [`bucket_select`].
#[derive(Debug, Clone)]
pub struct BucketSelectResult {
    /// Indices of the k largest elements (index order).
    pub indices: Vec<usize>,
    /// The selection threshold found (value of the k-th largest).
    pub threshold: f64,
    /// Work statistics.
    pub stats: BucketSelectStats,
}

const NUM_BUCKETS: usize = 1024;
const MAX_PASSES: u32 = 64;

/// Selects the indices of the `k` largest values. With ties at the
/// threshold, may return more than `k` indices (like the other selectors
/// here).
pub fn bucket_select(values: &[f64], k: usize) -> BucketSelectResult {
    let k = k.min(values.len());
    if k == 0 {
        return BucketSelectResult {
            indices: Vec::new(),
            threshold: f64::INFINITY,
            stats: BucketSelectStats {
                passes: 0,
                increments: 0,
            },
        };
    }

    let mut lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let mut hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut passes = 0u32;
    let mut increments = 0u64;

    // Elements strictly above `hi` are already known to be in the top-k.
    // We narrow [lo, hi] around the k-th largest value.
    while passes < MAX_PASSES && hi > lo {
        passes += 1;
        let width = (hi - lo) / NUM_BUCKETS as f64;
        if width <= 0.0 || !width.is_finite() {
            break;
        }
        let mut hist = [0u64; NUM_BUCKETS];
        for &v in values {
            if v >= lo && v <= hi {
                let mut b = ((v - lo) / width) as usize;
                if b >= NUM_BUCKETS {
                    b = NUM_BUCKETS - 1;
                }
                hist[b] += 1;
                increments += 1;
            }
        }
        // Count above-range elements (> hi): they outrank everything here.
        let above: u64 = values.iter().filter(|&&v| v > hi).count() as u64;
        let mut covered = above;
        let mut straddle = None;
        for b in (0..NUM_BUCKETS).rev() {
            if covered + hist[b] >= k as u64 {
                straddle = Some(b);
                break;
            }
            covered += hist[b];
        }
        match straddle {
            Some(b) => {
                let new_lo = lo + b as f64 * width;
                let new_hi = lo + (b + 1) as f64 * width;
                // The k-th largest lies inside bucket b. If the bucket
                // completes the count exactly, its lower edge is a valid
                // threshold; otherwise recurse into it. (`above` is
                // recomputed from scratch each pass, so the target count
                // stays the global k.)
                if covered + hist[b] == k as u64
                    || new_hi - new_lo <= f64::EPSILON * hi.abs().max(1.0)
                {
                    lo = new_lo;
                    break;
                }
                lo = new_lo;
                hi = new_hi;
            }
            None => break,
        }
    }

    let threshold = lo;
    let indices: Vec<usize> = values
        .iter()
        .enumerate()
        .filter_map(|(i, &v)| if v >= threshold { Some(i) } else { None })
        .collect();
    BucketSelectResult {
        indices,
        threshold,
        stats: BucketSelectStats { passes, increments },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort_select::sort_select_seq;

    fn check_top_k(values: &[f64], k: usize) {
        let res = bucket_select(values, k);
        let oracle = sort_select_seq(values, k);
        // The k-th largest value from the oracle:
        let kth = values[*oracle.last().unwrap()];
        assert!(
            (res.threshold - kth).abs() <= 1e-9 * kth.abs().max(1.0) || res.threshold <= kth,
            "threshold {} vs true k-th {}",
            res.threshold,
            kth
        );
        // Every oracle element must be selected.
        for &i in &oracle {
            assert!(
                res.indices.contains(&i),
                "missing top-k element idx {i} (value {})",
                values[i]
            );
        }
        // And not too many extras (ties aside).
        assert!(res.indices.len() >= k);
    }

    #[test]
    fn uniform_data_converges_fast() {
        let v: Vec<f64> = (0..20_000)
            .map(|i| ((i * 48271) % 65537) as f64 / 65537.0)
            .collect();
        let res = bucket_select(&v, 100);
        assert!(
            res.stats.passes <= 3,
            "uniform: {} passes",
            res.stats.passes
        );
        check_top_k(&v, 100);
    }

    #[test]
    fn spiky_data_needs_more_passes_than_uniform() {
        // sFFT-like: few huge values, the rest tiny noise.
        let mut v: Vec<f64> = (0..20_000)
            .map(|i| 1e-9 * (((i * 48271) % 65537) as f64 / 65537.0))
            .collect();
        for j in 0..50 {
            v[j * 401] = 1.0 + j as f64;
        }
        let uniform: Vec<f64> = (0..20_000)
            .map(|i| ((i * 48271) % 65537) as f64 / 65537.0)
            .collect();
        let spiky_passes = bucket_select(&v, 100).stats.passes;
        let uniform_passes = bucket_select(&uniform, 100).stats.passes;
        assert!(
            spiky_passes >= uniform_passes,
            "spiky {spiky_passes} vs uniform {uniform_passes}"
        );
        check_top_k(&v, 50);
    }

    #[test]
    fn exact_small_cases() {
        check_top_k(&[3.0, 9.0, 1.0, 7.0, 5.0], 2);
        check_top_k(&[1.0], 1);
    }

    #[test]
    fn all_equal_values() {
        let v = vec![2.5; 100];
        let res = bucket_select(&v, 10);
        assert!(res.indices.len() >= 10);
        assert!(res.stats.passes <= MAX_PASSES);
    }

    #[test]
    fn k_zero() {
        let res = bucket_select(&[1.0, 2.0], 0);
        assert!(res.indices.is_empty());
        assert_eq!(res.stats.passes, 0);
    }
}
