//! The sFFT inner loop: permute+filter+bin (Steps 1-2), subsampled FFT
//! (Step 3), cutoff (Step 4), and location voting (Step 5).
//!
//! Time indices are *centred* on the filter support: loop position `i`
//! corresponds to time `t = i − w/2`, sampled from the permuted signal at
//! `x[(τ + t·σ⁻¹) mod n]` and binned into bucket `t mod B`. Keeping the
//! support centred makes the filter's frequency response phase-free (see
//! `filters::flat`), so estimation divides by a real-positive passband.

use fft::cplx::{Cplx, ZERO};
use fft::{Direction, Plan};
use filters::FlatFilter;

use crate::perm::{mul_mod, Permutation};

/// Permutes, filters and bins the signal into `b` buckets (sequential
/// recurrence form — the paper's Algorithm 1, plus centring).
pub fn perm_filter(time: &[Cplx], filter: &FlatFilter, b: usize, perm: &Permutation) -> Vec<Cplx> {
    let n = time.len();
    assert_eq!(n, perm.n, "permutation built for different n");
    assert_eq!(n, filter.n(), "filter designed for different n");
    assert!(b > 0 && n.is_multiple_of(b), "B={b} must divide n={n}");
    let taps = filter.taps();
    let w = taps.len();
    let half = (w / 2) as i64;

    let mut buckets = vec![ZERO; b];
    // Running state: src = (τ + t·σ⁻¹) mod n and bi = t mod B for t = i−w/2.
    let mut src = perm.source_index(-half);
    let mut bi = (-half).rem_euclid(b as i64) as usize;
    let ai = perm.ai;
    for &tap in taps {
        buckets[bi] += time[src] * tap;
        src += ai;
        if src >= n {
            src -= n;
        }
        bi += 1;
        if bi == b {
            bi = 0;
        }
    }
    buckets
}

/// Step 3: the B-dimensional FFT of the binned buckets, in place.
pub fn subsample_fft(buckets: &mut [Cplx], plan: &Plan) {
    plan.process(buckets, Direction::Forward);
}

/// Step 4 (reference cutoff): indices of the `num` buckets with the
/// largest squared magnitudes (ties may add a few extra — the algorithm
/// tolerates a superset).
pub fn cutoff(buckets: &[Cplx], num: usize) -> Vec<usize> {
    let samples: Vec<f64> = buckets.iter().map(|c| c.norm_sqr()).collect();
    kselect::quickselect_top_k(&samples, num)
}

/// Step 5: reverse the hash for every selected bucket and vote for the
/// candidate original frequencies. A frequency whose score *reaches*
/// `thresh` is appended to `hits` (exactly once).
///
/// With a comb `mask` (sFFT v2), candidates whose residue mod
/// `mask.len()` is not set are skipped — the comb pre-filter ruled them
/// out, so neither the vote nor the score write happens.
pub fn locate(
    selected: &[usize],
    perm: &Permutation,
    b: usize,
    thresh: usize,
    score: &mut [u8],
    hits: &mut Vec<usize>,
    mask: Option<&[bool]>,
) {
    let n = perm.n;
    assert_eq!(score.len(), n, "score array must have n entries");
    if let Some(mask) = mask {
        let m = mask.len();
        assert!(m > 0 && n.is_multiple_of(m), "mask length must divide n");
    }
    let n_div_b = n / b;
    let half = n_div_b / 2;
    let thresh = thresh.min(u8::MAX as usize) as u8;
    for &j in selected {
        // Permuted frequencies hashing to bucket j: [j·n/B − n/2B, …+n/B).
        let low = (j * n_div_b + n - half) % n;
        let mut loc = mul_mod(low, perm.a, n);
        for _ in 0..n_div_b {
            if mask.is_none_or(|mask| mask[loc % mask.len()]) {
                let s = &mut score[loc];
                if *s < u8::MAX {
                    *s += 1;
                    if *s == thresh {
                        hits.push(loc);
                    }
                }
            }
            loc += perm.a;
            if loc >= n {
                loc -= n;
            }
        }
    }
}

/// Data retained per loop for the estimation step.
#[derive(Debug, Clone)]
pub struct LoopData {
    /// The loop's permutation.
    pub perm: Permutation,
    /// Post-FFT bucket spectrum `Z[b]`.
    pub buckets: Vec<Cplx>,
    /// Whether this was a location loop (selects which filter applies).
    pub is_loc: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SfftParams;
    use signal::{MagnitudeModel, SparseSignal};

    /// The correctness anchor: for an isolated tone x̂[f]=v, the bucket
    /// value satisfies Z[hash(f)]·n / Ĝ(off) · e^{−2πi fτ/n} = v.
    #[test]
    fn single_tone_bucket_identity() {
        let n = 1 << 12;
        let params = SfftParams::tuned(n, 4);
        let b = params.b_loc;
        let plan = Plan::new(b);
        for (f0, tau) in [(137usize, 0usize), (2049, 97), (4000, 1234)] {
            let v = Cplx::new(0.8, -0.6);
            let mut spectrum = vec![ZERO; n];
            spectrum[f0] = v;
            let mut time = spectrum;
            Plan::new(n).process(&mut time, Direction::Inverse);

            let perm = Permutation::new(101, tau, n);
            let mut buckets = perm_filter(&time, &params.filter_loc, b, &perm);
            subsample_fft(&mut buckets, &plan);

            let n_div_b = n / b;
            let g = perm.permuted_freq(f0);
            let mut hashed = g / n_div_b;
            let mut dist = (g % n_div_b) as i64;
            if dist > (n_div_b / 2) as i64 {
                hashed = (hashed + 1) % b;
                dist -= n_div_b as i64;
            }
            let gf = params.filter_loc.freq_at(-dist);
            let phase = Cplx::cis(-std::f64::consts::TAU * mul_mod(f0, tau, n) as f64 / n as f64);
            let est = buckets[hashed].scale(n as f64) / gf * phase;
            assert!(
                est.dist(v) < 1e-4,
                "f0={f0} τ={tau}: estimated {est:?}, true {v:?} (|Ĝ|={})",
                gf.abs()
            );
        }
    }

    #[test]
    fn tone_lands_in_exactly_one_loud_bucket() {
        let n = 1 << 12;
        let params = SfftParams::tuned(n, 4);
        let b = params.b_loc;
        let s = SparseSignal::generate(n, 1, MagnitudeModel::Unit, 3);
        let perm = Permutation::new(77, 0, n);
        let mut buckets = perm_filter(&s.time, &params.filter_loc, b, &perm);
        subsample_fft(&mut buckets, &Plan::new(b));
        let loud: Vec<usize> = (0..b)
            .filter(|&i| buckets[i].abs() > 0.1 / n as f64 * n as f64 * 0.001)
            .collect();
        let mags: Vec<f64> = buckets.iter().map(|c| c.abs()).collect();
        let max = mags.iter().cloned().fold(0.0, f64::max);
        let big: Vec<usize> = (0..b).filter(|&i| mags[i] > max * 0.5).collect();
        assert!(big.len() <= 3, "tone should concentrate: {big:?} {loud:?}");
    }

    #[test]
    fn cutoff_returns_top_buckets() {
        let mut buckets = vec![ZERO; 16];
        buckets[3] = Cplx::real(10.0);
        buckets[9] = Cplx::real(5.0);
        buckets[12] = Cplx::real(7.0);
        let top = cutoff(&buckets, 2);
        assert!(top.contains(&3) && top.contains(&12));
    }

    #[test]
    fn locate_votes_cover_the_true_frequency() {
        let n = 1 << 10;
        let b = 64;
        let perm = Permutation::new(237, 0, n);
        // Put a tone at f0; its bucket is round(g·B/n).
        let f0 = 500;
        let g = perm.permuted_freq(f0);
        let n_div_b = n / b;
        let j = ((g + n_div_b / 2) / n_div_b) % b;
        let mut score = vec![0u8; n];
        let mut hits = Vec::new();
        locate(&[j], &perm, b, 1, &mut score, &mut hits, None);
        assert!(
            hits.contains(&f0),
            "true frequency {f0} must be among the candidates {hits:?}"
        );
        assert_eq!(hits.len(), n_div_b, "one candidate per preimage element");
    }

    #[test]
    fn locate_threshold_requires_repeat_votes() {
        let n = 256;
        let b = 16;
        let perm = Permutation::new(9, 0, n);
        let mut score = vec![0u8; n];
        let mut hits = Vec::new();
        locate(&[3], &perm, b, 2, &mut score, &mut hits, None);
        assert!(hits.is_empty(), "one vote is below threshold 2");
        locate(&[3], &perm, b, 2, &mut score, &mut hits, None);
        assert_eq!(hits.len(), n / b, "second pass pushes them over");
        // A third pass must not duplicate.
        locate(&[3], &perm, b, 2, &mut score, &mut hits, None);
        assert_eq!(hits.len(), n / b);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn b_must_divide_n() {
        let n = 1 << 12;
        let params = SfftParams::tuned(n, 4);
        let perm = Permutation::new(5, 0, n);
        perm_filter(&vec![ZERO; n], &params.filter_loc, 3, &perm);
    }
}
