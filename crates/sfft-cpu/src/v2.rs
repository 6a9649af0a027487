//! sFFT v2: the v1 pipeline preceded by the Comb pre-filter.
//!
//! The comb restricts location candidates to `O(k)` residue classes mod
//! `M`, which shrinks the voting work and starves spurious hits of votes.
//! This is the second algorithm of the paper's reference \[2\]; cusFFT
//! ports v1, so v2 lives here as the extension the original authors list
//! among the variants ("more applications with denser spectra could also
//! achieve speedups").

use fft::cplx::Cplx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use signal::Recovered;

use crate::comb::{comb_mask, CombParams};
use crate::params::SfftParams;
use crate::serial::run_loops;

/// Statistics of a v2 run, for the comb-ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V2Stats {
    /// Residues the comb kept (out of `comb_size`).
    pub residues_kept: usize,
    /// Hits that reached the vote threshold.
    pub hits: usize,
}

/// Runs sFFT v2. Deterministic per `(params, comb, time, seed)`. The
/// comb draws its offsets from the seed's RNG before the permutations.
pub fn sfft_v2(
    params: &SfftParams,
    comb: &CombParams,
    time: &[Cplx],
    seed: u64,
) -> (Recovered, V2Stats) {
    assert_eq!(time.len(), params.n, "signal length must match params.n");
    let mut rng = StdRng::seed_from_u64(seed);
    let mask = comb_mask(time, params.k, comb, &mut rng);
    let rec = run_loops(params, time, &mut rng, Some(&mask), None);
    let stats = V2Stats {
        residues_kept: mask.iter().filter(|&&b| b).count(),
        hits: rec.len(),
    };
    (rec, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::sfft;
    use signal::{l1_error_per_coeff, support_recall, MagnitudeModel, SparseSignal};

    #[test]
    fn v2_recovers_sparse_spectrum() {
        let n = 1 << 13;
        let k = 16;
        let params = SfftParams::tuned(n, k);
        let comb = CombParams::tuned(n, k);
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 9);
        let (rec, stats) = sfft_v2(&params, &comb, &s.time, 4);
        assert!(support_recall(&s.coords, &rec) > 0.99);
        assert!(l1_error_per_coeff(&s.coords, &rec) < 1e-3);
        assert!(stats.residues_kept <= comb.keep_factor * k + k);
    }

    #[test]
    fn v2_produces_no_more_hits_than_v1() {
        let n = 1 << 13;
        let k = 8;
        let params = SfftParams::tuned(n, k);
        let comb = CombParams::tuned(n, k);
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 2);
        let v1 = sfft(&params, &s.time, 6);
        let (v2, _) = sfft_v2(&params, &comb, &s.time, 6);
        // The comb can only remove candidates (spurious hits), never add.
        assert!(
            v2.len() <= v1.len() + k,
            "v2 {} vs v1 {}",
            v2.len(),
            v1.len()
        );
        assert!(support_recall(&s.coords, &v2) > 0.99);
    }

    #[test]
    fn v2_deterministic() {
        let n = 1 << 12;
        let k = 8;
        let params = SfftParams::tuned(n, k);
        let comb = CombParams::tuned(n, k);
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 3);
        let a = sfft_v2(&params, &comb, &s.time, 5);
        let b = sfft_v2(&params, &comb, &s.time, 5);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn masked_locate_rejects_filtered_residues() {
        use crate::inner::locate;
        use crate::perm::Permutation;
        let n = 256;
        let b = 16;
        let perm = Permutation::new(9, 0, n);
        let mut score = vec![0u8; n];
        let mut hits = Vec::new();
        // Mask that allows nothing: no votes at all.
        let mask = vec![false; 16];
        locate(&[3], &perm, b, 1, &mut score, &mut hits, Some(&mask));
        assert!(hits.is_empty());
        assert!(score.iter().all(|&s| s == 0));
        // Mask that allows everything: same as unmasked.
        let mask = vec![true; 16];
        locate(&[3], &perm, b, 1, &mut score, &mut hits, Some(&mask));
        assert_eq!(hits.len(), n / b);
    }
}
