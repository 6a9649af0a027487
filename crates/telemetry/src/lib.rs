//! # `cusfft-telemetry` — deterministic observability for the serving stack
//!
//! Three layers over the `gpu-sim` timeline, all pure functions of
//! already-deterministic inputs:
//!
//! * [`span`] — a hierarchical span model (serve → control / group →
//!   attempt → op) decoded from the attribution tags the serving layer
//!   stamps onto every [`gpu_sim::Op`]; span IDs hash deterministic
//!   coordinates only, so trees are bit-identical across worker counts
//!   and host-pool widths;
//! * [`metrics`] — a registry of counters, gauges, and fixed-bucket
//!   log-linear histograms with Prometheus text exposition and a JSON
//!   snapshot;
//! * [`chrome`] — a Chrome/Perfetto Trace Event writer (streams as
//!   tracks, faults and breaker transitions as instant events) plus a
//!   schema validator built on the in-crate [`json`] parser;
//! * [`events`] — a causally-linked structured event log (dense ids,
//!   parent links forming a forest, deterministic text/JSON renderers)
//!   that `cusfft::audit` builds the policy flight recorder on.
//!
//! The crate depends only on `gpu-sim`; the `cusfft::observe` module
//! adapts `ServeReport`s into these types, and `reproduce trace` writes
//! the artifacts.

#![warn(missing_docs)]

pub mod chrome;
pub mod events;
pub mod json;
pub mod metrics;
pub mod span;

pub use chrome::{
    chrome_trace, chrome_trace_annotated, validate_chrome_trace, TraceAnnotation, TraceSummary,
};
pub use events::{Event, EventLog};
pub use json::{parse as parse_json, JsonValue};
pub use metrics::{fmt_f64, Histogram, MetricKind, Registry, Sample, HIST_BOUNDS};
pub use span::{
    backend_label, build_span_tree, decode_tag, op_category, tag_batch, tag_fallback, tag_retry,
    GroupMeta, OpAttribution, RequestMeta, Span, SpanKind, SpanTree, BACKEND_CONTROL,
    BACKEND_DENSE_FFT, BACKEND_GPU_SIM, BACKEND_SFFT_CPU,
};
