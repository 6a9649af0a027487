//! # `kselect` — top-k selection algorithms
//!
//! The sFFT cutoff (Step 4) keeps the `k` largest of `B` bucket
//! magnitudes. This crate provides the paper's baseline and optimised
//! selectors plus the comparison baselines:
//!
//! * [`sort_select`](mod@sort_select) — full sort then take-k (the
//!   Thrust-based Algorithm 3 baseline, `O(B log B)`);
//! * [`quickselect`] — `nth_element`-style expected-linear selection (the
//!   CPU reference's approach);
//! * [`bucket_select`](mod@bucket_select) — Alabi et al.'s GPU
//!   BucketSelect, fast on uniform data, slow on the sFFT's spiky
//!   magnitudes (the paper's argument for not using it);
//! * [`threshold`] — the paper's Algorithm 6: one linear thresholding pass
//!   with a noise-floor-derived threshold;
//! * [`median`] — the component-wise complex medians of Step 6.

pub mod bucket_select;
pub mod median;
pub mod quickselect;
pub mod sort_select;
pub mod threshold;

pub use bucket_select::{bucket_select, BucketSelectResult, BucketSelectStats};
pub use median::{median_cplx, median_f64};
pub use quickselect::{kth_largest, quickselect_top_k};
pub use sort_select::{sort_select, sort_select_seq};
pub use threshold::{noise_floor_threshold, threshold_select, threshold_select_seq};
