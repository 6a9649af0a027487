//! # `signal` — workloads and metrics for the cusFFT evaluation
//!
//! * [`gen`] — k-sparse spectrum signals (the paper's benchmark input);
//! * [`noise`] — AWGN at a prescribed SNR;
//! * [`metrics`] — L1 error per large coefficient (Figure 5(f)) and
//!   support recall/precision;
//! * [`config`] — experiment descriptions.

pub mod cluster;
pub mod config;
pub mod gen;
pub mod metrics;
pub mod noise;

pub use cluster::clustered_signal;
pub use config::WorkloadConfig;
pub use gen::{MagnitudeModel, SparseSignal};
pub use metrics::{
    l1_error_dense, l1_error_per_coeff, support_precision, support_recall, Recovered,
};
pub use noise::{add_awgn, measure_snr_db};
