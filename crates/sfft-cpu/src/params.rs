//! Tuned sFFT parameters.
//!
//! The reference implementation ships experimentally tuned constants per
//! `(n, k)`; the shapes below follow its recipe:
//!
//! * bucket counts `B = floor_pow2(Bcst·√(n·k / log₂ n))` with separate
//!   constants for the location and estimation filters,
//! * filter lobe fraction `0.5 / BB` and flat width `≈ 1.3·n/BB`,
//! * a handful of location loops with a majority-vote threshold and a
//!   larger set of estimation loops.

use filters::{FlatFilter, WindowKind};

/// All derived parameters for one `(n, k)` problem, including the two
/// designed filters (filters are the expensive part — build once, reuse).
#[derive(Debug, Clone)]
pub struct SfftParams {
    /// Signal length (power of two).
    pub n: usize,
    /// Target sparsity.
    pub k: usize,
    /// Buckets for location loops (power of two dividing n).
    pub b_loc: usize,
    /// Buckets for estimation loops.
    pub b_est: usize,
    /// Number of location loops.
    pub loops_loc: usize,
    /// Number of estimation-only loops (total loops = loc + est).
    pub loops_est: usize,
    /// Vote threshold: a frequency is a hit once it scores this many
    /// location-loop votes.
    pub loops_thresh: usize,
    /// Buckets selected per location loop (the cutoff size, ≈ 2k).
    pub num_candidates: usize,
    /// Whether permutations use random τ offsets (the reference fixes
    /// τ = 0; the general path is kept for testing Definition 1).
    pub random_tau: bool,
    /// Location filter.
    pub filter_loc: FlatFilter,
    /// Estimation filter (tighter tolerance).
    pub filter_est: FlatFilter,
}

/// Tuning constants (the reference's `Bcst` etc.).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tuning {
    /// Location bucket constant.
    pub bcst_loc: f64,
    /// Estimation bucket constant.
    pub bcst_est: f64,
    /// Location filter stopband level.
    pub tol_loc: f64,
    /// Estimation filter stopband level.
    pub tol_est: f64,
    /// Location loops.
    pub loops_loc: usize,
    /// Estimation loops.
    pub loops_est: usize,
    /// Vote threshold.
    pub loops_thresh: usize,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            bcst_loc: 4.0,
            bcst_est: 2.0,
            tol_loc: 1e-6,
            tol_est: 1e-8,
            loops_loc: 4,
            loops_est: 12,
            loops_thresh: 3,
        }
    }
}

impl Tuning {
    /// Brownout tuning: the serving layer's reduced-accuracy mode under
    /// queue pressure. Halves the location and estimation loop counts
    /// (the dominant runtime term — each loop is a full
    /// permute/filter/FFT/select round), trading recovery margin for
    /// latency per the accuracy/runtime curves in the sFFT survey
    /// literature. Floors keep the voting scheme functional: at least
    /// two location loops so a vote threshold exists, and enough
    /// estimation loops for the median to reject outliers.
    pub fn degraded(mut self) -> Self {
        self.loops_loc = (self.loops_loc / 2).max(2);
        self.loops_est = (self.loops_est / 2).max(3);
        self.loops_thresh = self.loops_thresh.min(self.loops_loc).max(1);
        self
    }
}

/// Why parameters could not be derived for a `(n, k)` problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamError {
    /// `n` is not a power of two.
    NotPowerOfTwo(usize),
    /// `n` is below the practical minimum.
    TooSmall(usize),
    /// `k` outside `1..=n/8`.
    BadSparsity {
        /// Requested sparsity.
        k: usize,
        /// Maximum supported for this n.
        max: usize,
    },
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::NotPowerOfTwo(n) => write!(f, "n={n} is not a power of two"),
            ParamError::TooSmall(n) => {
                write!(f, "n={n} is below 512; use a dense FFT at this size")
            }
            ParamError::BadSparsity { k, max } => {
                write!(f, "sparsity k={k} outside 1..={max}")
            }
        }
    }
}

impl std::error::Error for ParamError {}

impl SfftParams {
    /// Fallible parameter derivation: returns a typed error instead of
    /// panicking on bad problem shapes.
    pub fn try_tuned(n: usize, k: usize) -> Result<Self, ParamError> {
        if !fft::is_pow2(n) {
            return Err(ParamError::NotPowerOfTwo(n));
        }
        if n < 512 {
            return Err(ParamError::TooSmall(n));
        }
        if k == 0 || k > n / 8 {
            return Err(ParamError::BadSparsity { k, max: n / 8 });
        }
        Ok(Self::tuned(n, k))
    }

    /// Derives parameters for `(n, k)` with the default tuning.
    pub fn tuned(n: usize, k: usize) -> Self {
        Self::with_tuning(n, k, Tuning::default())
    }

    /// Derives parameters with explicit tuning constants.
    pub fn with_tuning(n: usize, k: usize, t: Tuning) -> Self {
        assert!(fft::is_pow2(n), "n must be a power of two, got {n}");
        assert!(n >= 512, "sFFT needs n ≥ 512 to beat direct methods");
        assert!(k >= 1 && k <= n / 8, "k={k} out of 1..={}", n / 8);
        assert!(
            t.loops_thresh <= t.loops_loc,
            "threshold exceeds loop count"
        );

        let (b_loc, filter_loc) = design_side(n, k, t.bcst_loc, t.tol_loc);
        let (b_est, filter_est) = design_side(n, k, t.bcst_est, t.tol_est);

        SfftParams {
            n,
            k,
            b_loc,
            b_est,
            loops_loc: t.loops_loc,
            loops_est: t.loops_est,
            loops_thresh: t.loops_thresh.max(1),
            num_candidates: (2 * k).min(b_loc),
            random_tau: false,
            filter_loc,
            filter_est,
        }
    }

    /// Enables random τ offsets (exercises the phase-correction path).
    pub fn with_random_tau(mut self) -> Self {
        self.random_tau = true;
        self
    }

    /// Total loops (location + estimation).
    #[inline]
    pub fn loops_total(&self) -> usize {
        self.loops_loc + self.loops_est
    }

    /// Deterministic abstract host-work estimate for one execution of
    /// these parameters, in arbitrary "operation" units: per loop, the
    /// filter convolution (`width` multiply-adds) plus the subsampled
    /// FFT (`B·log₂B`), plus one pass over the signal. Only *relative*
    /// consistency matters — admission-control pricers scale this by a
    /// constant rate — so degraded tunings (fewer loops) price cheaper
    /// and larger geometries price higher, with no wall clocks involved.
    pub fn host_work_estimate(&self) -> f64 {
        let side = |loops: usize, b: usize, width: usize| {
            loops as f64 * (width as f64 + b as f64 * (b as f64).log2().max(1.0))
        };
        side(self.loops_loc, self.b_loc, self.filter_loc.width())
            + side(self.loops_est, self.b_est, self.filter_est.width())
            + self.n as f64
    }
}

/// Designs one side (location or estimation): bucket count + filter.
fn design_side(n: usize, k: usize, bcst: f64, tol: f64) -> (usize, FlatFilter) {
    let log2n = (n as f64).log2();
    let bb = (bcst * ((n * k) as f64 / log2n).sqrt()).max(8.0);
    let mut b = fft::floor_pow2(bb as usize);
    // B must divide n and leave a sensible bucket width.
    b = b.clamp(8, n / 8);
    let lobefrac = 0.5 / bb;
    let flat_width = ((1.3 * n as f64 / bb) as usize).max(2);
    // Estimation reads Ĝ at offsets up to n/(2B); keep a margin.
    let half_band = n / b;
    (
        b,
        FlatFilter::design(
            n,
            flat_width.min(n - 1),
            lobefrac.min(0.49),
            tol,
            half_band,
            WindowKind::DolphChebyshev,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_sizes_are_consistent() {
        let p = SfftParams::tuned(1 << 14, 20);
        assert!(p.b_loc.is_power_of_two());
        assert!(p.b_est.is_power_of_two());
        assert!(p.b_loc > p.b_est, "Bcst_loc > Bcst_est ⇒ more loc buckets");
        assert_eq!(p.n % p.b_loc, 0);
        assert_eq!(p.n % p.b_est, 0);
        assert!(p.num_candidates <= p.b_loc);
        assert_eq!(p.loops_total(), 16);
    }

    #[test]
    fn filters_have_sublinear_support() {
        let p = SfftParams::tuned(1 << 16, 50);
        assert!(p.filter_loc.width() < p.n);
        assert!(p.filter_est.width() < p.n);
        // Estimation filter is tighter → wider in time.
        assert!(p.filter_est.width() >= p.filter_loc.width() / 4);
    }

    #[test]
    fn bucket_count_grows_with_k_and_n() {
        let a = SfftParams::tuned(1 << 14, 10);
        let b = SfftParams::tuned(1 << 14, 100);
        let c = SfftParams::tuned(1 << 18, 10);
        assert!(b.b_loc >= a.b_loc);
        assert!(c.b_loc >= a.b_loc);
    }

    #[test]
    fn degraded_tuning_halves_loops_and_stays_valid() {
        let d = Tuning::default().degraded();
        assert_eq!(d.loops_loc, 2);
        assert_eq!(d.loops_est, 6);
        assert!(d.loops_thresh <= d.loops_loc && d.loops_thresh >= 1);
        let p = SfftParams::with_tuning(1 << 14, 20, d);
        assert!(p.loops_total() < SfftParams::tuned(1 << 14, 20).loops_total());
        // Degrading an already-degraded tuning hits the floors, never 0.
        let dd = d.degraded().degraded();
        assert!(dd.loops_loc >= 2 && dd.loops_est >= 3 && dd.loops_thresh >= 1);
    }

    #[test]
    fn half_band_covers_estimation_range() {
        let p = SfftParams::tuned(1 << 14, 20);
        assert!(p.filter_loc.half_band() >= p.n / (2 * p.b_loc));
        assert!(p.filter_est.half_band() >= p.n / (2 * p.b_est));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        SfftParams::tuned(1000, 10);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn oversparse_rejected() {
        SfftParams::tuned(1 << 10, 1 << 9);
    }

    #[test]
    fn try_tuned_reports_typed_errors() {
        assert!(SfftParams::try_tuned(1 << 12, 8).is_ok());
        assert_eq!(
            SfftParams::try_tuned(1000, 8).err(),
            Some(super::ParamError::NotPowerOfTwo(1000))
        );
        assert_eq!(
            SfftParams::try_tuned(256, 8).err(),
            Some(super::ParamError::TooSmall(256))
        );
        assert_eq!(
            SfftParams::try_tuned(1 << 12, 4096).err(),
            Some(super::ParamError::BadSparsity { k: 4096, max: 512 })
        );
        let msg = SfftParams::try_tuned(256, 8).unwrap_err().to_string();
        assert!(msg.contains("dense FFT"));
    }

    #[test]
    fn custom_tuning_respected() {
        let t = Tuning {
            loops_loc: 6,
            loops_thresh: 4,
            ..Tuning::default()
        };
        let p = SfftParams::with_tuning(1 << 12, 8, t);
        assert_eq!(p.loops_loc, 6);
        assert_eq!(p.loops_thresh, 4);
    }
}
