//! Per-step wall-clock profiling of the sequential sFFT — the
//! instrumentation behind the paper's Figure 2 ("time distribution for the
//! major steps in sFFT").

use std::time::Instant;

use fft::cplx::Cplx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use signal::Recovered;

use crate::params::SfftParams;
use crate::serial::run_loops;

/// Accumulated wall-clock seconds per sFFT step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepTimings {
    /// Steps 1-2: permutation + filtering + binning.
    pub perm_filter: f64,
    /// Step 3: B-dimensional FFTs.
    pub subsampled_fft: f64,
    /// Step 4: cutoff (top-k bucket selection).
    pub cutoff: f64,
    /// Step 5: reverse-hash location + voting.
    pub locate: f64,
    /// Step 6: magnitude reconstruction.
    pub estimate: f64,
    /// Whole-pipeline time (≥ the sum; includes bookkeeping).
    pub total: f64,
}

impl StepTimings {
    /// Sum of the per-step times.
    pub fn steps_sum(&self) -> f64 {
        self.perm_filter + self.subsampled_fft + self.cutoff + self.locate + self.estimate
    }

    /// Per-step shares of the step sum, in Figure-2 order.
    pub fn shares(&self) -> [f64; 5] {
        let s = self.steps_sum().max(f64::MIN_POSITIVE);
        [
            self.perm_filter / s,
            self.subsampled_fft / s,
            self.cutoff / s,
            self.locate / s,
            self.estimate / s,
        ]
    }

    /// Step labels matching [`StepTimings::shares`].
    pub const LABELS: [&'static str; 5] = [
        "perm+filter",
        "subsampled FFT",
        "cutoff",
        "locate",
        "estimate",
    ];
}

/// Runs the sequential sFFT, timing each step. Produces the same result
/// as [`crate::serial::sfft`] for the same seed.
pub fn sfft_profiled(params: &SfftParams, time: &[Cplx], seed: u64) -> (Recovered, StepTimings) {
    let t_start = Instant::now();
    let mut timings = StepTimings::default();
    let rec = run_loops(
        params,
        time,
        &mut StdRng::seed_from_u64(seed),
        None,
        Some(&mut timings),
    );
    timings.total = t_start.elapsed().as_secs_f64();
    (rec, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::sfft;
    use signal::{MagnitudeModel, SparseSignal};

    #[test]
    fn profiled_run_matches_plain_run() {
        let n = 1 << 12;
        let params = SfftParams::tuned(n, 8);
        let s = SparseSignal::generate(n, 8, MagnitudeModel::Unit, 2);
        let plain = sfft(&params, &s.time, 42);
        let (profiled, t) = sfft_profiled(&params, &s.time, 42);
        assert_eq!(plain, profiled);
        assert!(t.total > 0.0);
        assert!(t.steps_sum() <= t.total * 1.5);
    }

    #[test]
    fn shares_sum_to_one() {
        let n = 1 << 12;
        let params = SfftParams::tuned(n, 8);
        let s = SparseSignal::generate(n, 8, MagnitudeModel::Unit, 2);
        let (_, t) = sfft_profiled(&params, &s.time, 1);
        let sum: f64 = t.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(StepTimings::LABELS.len(), t.shares().len());
    }

    #[test]
    fn perm_filter_dominates_at_larger_n() {
        // Figure 2(a): permutation+filter is the most time-consuming step
        // as n grows with fixed k.
        let n = 1 << 16;
        let params = SfftParams::tuned(n, 64);
        let s = SparseSignal::generate(n, 64, MagnitudeModel::Unit, 5);
        // Wall-clock shares are noisy on a loaded host; accept the best
        // of three runs.
        let mut best: Option<[f64; 5]> = None;
        for attempt in 0..3 {
            let (_, t) = sfft_profiled(&params, &s.time, 3);
            let shares = t.shares();
            let max = shares.iter().cloned().fold(0.0, f64::max);
            if shares[0] >= max * 0.8 {
                return;
            }
            best = Some(shares);
            let _ = attempt;
        }
        panic!("perm+filter should be (near-)dominant: {best:?}");
    }
}
