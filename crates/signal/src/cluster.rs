//! Clustered-spectrum workloads — the adversarial case for the sparse
//! FFT.
//!
//! The sFFT correctness argument assumes random permutations separate the
//! large coefficients into distinct buckets. When the true support is a
//! tight *cluster* of adjacent frequencies, a permutation maps the cluster
//! to an arithmetic progression that can still collide, and per-bucket
//! isolation degrades. The paper evaluates only uniform supports; this
//! module generates the hard case so the limits are measured rather than
//! assumed (see `tests/end_to_end.rs` and EXPERIMENTS.md).

use fft::cplx::{Cplx, ZERO};
use fft::{Direction, Plan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::SparseSignal;

/// Generates a k-sparse signal whose support consists of
/// `k / cluster_size` clusters of `cluster_size` *adjacent* frequencies.
///
/// `cluster_size = 1` reduces to the uniform model.
pub fn clustered_signal(n: usize, k: usize, cluster_size: usize, seed: u64) -> SparseSignal {
    assert!(fft::is_pow2(n), "n must be a power of two");
    assert!(cluster_size >= 1 && cluster_size <= k, "bad cluster size");
    assert!(k <= n / 4, "support too dense");
    let mut rng = StdRng::seed_from_u64(seed);

    // Draw random cluster starts until k distinct frequencies exist.
    let mut freqs: Vec<usize> = Vec::with_capacity(k);
    while freqs.len() < k {
        let start = rng.gen_range(0..n);
        for j in 0..cluster_size.min(k - freqs.len()) {
            let f = (start + j) % n;
            if !freqs.contains(&f) {
                freqs.push(f);
            }
        }
    }
    freqs.sort_unstable();

    let coords: Vec<(usize, Cplx)> = freqs
        .into_iter()
        .map(|f| {
            let phase = rng.gen_range(0.0..std::f64::consts::TAU);
            (f, Cplx::from_polar(1.0, phase))
        })
        .collect();

    let mut time = vec![ZERO; n];
    for &(f, v) in &coords {
        time[f] = v;
    }
    Plan::new(n).process(&mut time, Direction::Inverse);
    SparseSignal { n, coords, time }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft::dft::dft_coefficient;

    #[test]
    fn produces_k_distinct_coords() {
        let s = clustered_signal(1 << 12, 24, 4, 7);
        assert_eq!(s.coords.len(), 24);
        let mut fs: Vec<usize> = s.coords.iter().map(|&(f, _)| f).collect();
        fs.dedup();
        assert_eq!(fs.len(), 24);
    }

    #[test]
    fn clusters_are_adjacent() {
        let s = clustered_signal(1 << 12, 16, 4, 3);
        // At least one run of 4 adjacent frequencies must exist.
        let fs: Vec<usize> = s.coords.iter().map(|&(f, _)| f).collect();
        let has_run = fs.windows(4).any(|w| w[3] == w[0] + 3);
        assert!(has_run, "expected an adjacent cluster in {fs:?}");
    }

    #[test]
    fn cluster_size_one_is_uniform_like() {
        let s = clustered_signal(1 << 10, 8, 1, 5);
        assert_eq!(s.coords.len(), 8);
    }

    #[test]
    fn time_domain_matches_spectrum() {
        let s = clustered_signal(1 << 10, 8, 4, 9);
        for &(f, v) in &s.coords {
            assert!(dft_coefficient(&s.time, f).dist(v) < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "bad cluster size")]
    fn oversized_cluster_rejected() {
        clustered_signal(1 << 10, 4, 8, 1);
    }
}
