//! The Comb-filter heuristic of sFFT v2 (Hassanieh et al., SODA 2012 —
//! reference \[2\] of the paper).
//!
//! Subsampling the time signal by `n/M` aliases the spectrum mod `M`:
//! every coefficient `x̂_f` folds onto residue `f mod M`. A handful of
//! such combs with random offsets reveals which residues carry energy;
//! the location loops can then ignore candidate frequencies whose residue
//! never lit up, cutting the location/voting work by roughly `M / (c·k)`.
//! The random offset τ rotates each coefficient's phase, so two
//! coefficients sharing a residue are unlikely to cancel in *every* comb.

use fft::cplx::Cplx;
use fft::{Direction, Plan};
use rand::Rng;

/// Parameters of the comb pre-filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombParams {
    /// Comb size `M` (power of two dividing n). Residues are taken mod M.
    pub comb_size: usize,
    /// Number of comb passes with independent offsets.
    pub comb_loops: usize,
    /// Residues kept, as a multiple of k (`c·k` loudest residues).
    pub keep_factor: usize,
}

impl CombParams {
    /// Reference-style defaults: `M = 8·⌊√(n·k)⌋₂`-ish capped to `n/8`,
    /// 2 comb passes, keep `4k` residues.
    pub fn tuned(n: usize, k: usize) -> Self {
        let target = 8 * ((n * k) as f64).sqrt() as usize;
        let comb_size = fft::floor_pow2(target.clamp(16, n / 8));
        CombParams {
            comb_size,
            comb_loops: 2,
            keep_factor: 4,
        }
    }
}

/// One comb pass: the aliased magnitude spectrum
/// `|Σ_{f ≡ j (mod M)} x̂_f·e^{2πi f τ / n}|` for every residue `j`.
pub fn comb_magnitudes(time: &[Cplx], plan_m: &Plan, tau: usize) -> Vec<f64> {
    let n = time.len();
    let m = plan_m.len();
    assert!(m > 0 && n.is_multiple_of(m), "comb size {m} must divide n={n}");
    let stride = n / m;
    let mut sub: Vec<Cplx> = (0..m).map(|i| time[(tau + i * stride) % n]).collect();
    plan_m.process(&mut sub, Direction::Forward);
    sub.into_iter().map(|z| z.abs()).collect()
}

/// Runs the comb pre-filter and returns the residue mask: `mask[f % M]`
/// is true when frequency `f` is still a candidate.
pub fn comb_mask<R: Rng>(
    time: &[Cplx],
    k: usize,
    comb: &CombParams,
    rng: &mut R,
) -> Vec<bool> {
    let n = time.len();
    let m = comb.comb_size;
    let plan = Plan::new(m);
    let mut score = vec![0.0f64; m];
    for _ in 0..comb.comb_loops {
        let tau = rng.gen_range(0..n);
        for (s, mag) in score.iter_mut().zip(comb_magnitudes(time, &plan, tau)) {
            *s = s.max(mag);
        }
    }
    let keep = (comb.keep_factor * k).min(m);
    let selected = kselect::quickselect_top_k(&score, keep);
    let mut mask = vec![false; m];
    for i in selected {
        mask[i] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft::cplx::ZERO;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use signal::{MagnitudeModel, SparseSignal};

    #[test]
    fn tuned_params_divide_n() {
        for (log2n, k) in [(12u32, 8usize), (16, 100), (20, 1000)] {
            let n = 1usize << log2n;
            let c = CombParams::tuned(n, k);
            assert!(c.comb_size.is_power_of_two());
            assert_eq!(n % c.comb_size, 0);
            assert!(c.comb_size <= n / 8);
        }
    }

    #[test]
    fn single_tone_folds_to_its_residue() {
        let n = 1 << 10;
        let m = 64;
        let f0 = 517;
        let mut spectrum = vec![ZERO; n];
        spectrum[f0] = Cplx::new(1.0, 0.5);
        let mut time = spectrum;
        Plan::new(n).process(&mut time, Direction::Inverse);
        let mags = comb_magnitudes(&time, &Plan::new(m), 3);
        let peak = mags.iter().cloned().fold(0.0f64, f64::max);
        let loud: Vec<usize> = (0..m).filter(|&j| mags[j] > 0.5 * peak).collect();
        assert_eq!(loud, vec![f0 % m], "tone must alias to f0 mod M");
    }

    #[test]
    fn comb_magnitude_scaling_matches_theory() {
        // |ŷ[f0 mod M]| = (M/n)·|x̂_f0| for an isolated tone.
        let n = 1 << 10;
        let m = 128;
        let f0 = 333;
        let mut spectrum = vec![ZERO; n];
        spectrum[f0] = Cplx::real(2.0);
        let mut time = spectrum;
        Plan::new(n).process(&mut time, Direction::Inverse);
        let mags = comb_magnitudes(&time, &Plan::new(m), 0);
        let expected = 2.0 * m as f64 / n as f64;
        assert!(
            (mags[f0 % m] - expected).abs() < 1e-9,
            "{} vs {expected}",
            mags[f0 % m]
        );
    }

    #[test]
    fn mask_keeps_all_true_residues() {
        let n = 1 << 14;
        let k = 20;
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 11);
        let comb = CombParams::tuned(n, k);
        let mut rng = StdRng::seed_from_u64(5);
        let mask = comb_mask(&s.time, k, &comb, &mut rng);
        for &(f, _) in &s.coords {
            assert!(
                mask[f % comb.comb_size],
                "true coefficient at {f} filtered out by the comb"
            );
        }
        // And the mask is actually restrictive.
        let kept = mask.iter().filter(|&&b| b).count();
        assert!(
            kept <= comb.keep_factor * k + k,
            "mask keeps {kept} of {} residues",
            comb.comb_size
        );
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn non_dividing_comb_panics() {
        let time = vec![ZERO; 100];
        comb_magnitudes(&time, &Plan::new(64), 0);
    }
}
