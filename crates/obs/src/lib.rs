//! Live telemetry for the dbTouch reproduction.
//!
//! The paper's interactivity contract — "there should always be a maximum
//! possible wait time for a single touch" (Section 4) — is only useful if it
//! can be *checked while the system runs*. This crate provides the primitives
//! that make that possible without perturbing the touch hot path:
//!
//! * [`Counter`] / [`Gauge`] / [`PeakGauge`] — wait-free sharded atomics.
//!   Writers pick a per-thread stripe and issue one relaxed `fetch_add`;
//!   readers sum the stripes on scrape. No locks, no contended cache line.
//! * [`LogHistogram`] / [`HistogramSnapshot`] — fixed-memory log2-bucket
//!   latency histograms with a guaranteed ≤2x quantile error bound. These
//!   replace the unbounded full-sample `Vec<u64>`s that sessions used to
//!   accumulate.
//! * [`SpanStore`] + [`SpanTree`] — per-touch span trees (decode →
//!   admission → queue wait → service → segments, plus late refinements),
//!   tail-sampled into a bounded ring, so a slow touch can be *explained*,
//!   not just counted. They are the crate's only trace instrument: every
//!   other lifecycle fact (cache hits, page faults, epochs, sheds) is a
//!   counter in some layer's scrape.
//! * [`Telemetry`] + [`MetricSource`] — the registry that aggregates every
//!   layer's stats structs into one [`MetricsSnapshot`], scrapeable mid-run.
//!
//! Everything here is deterministic-by-construction with respect to query
//! results: telemetry observes the execution, it never steers it, so session
//! digests are bit-identical with telemetry on or off.

pub mod counter;
pub mod ctx;
pub mod histogram;
pub mod registry;
pub mod stripe;
pub mod trace;

pub use counter::{Counter, Gauge, PeakGauge};
pub use ctx::{clear_trace_ctx, set_trace_ctx_span, trace_ctx, TraceCtx};
pub use histogram::{HistogramSnapshot, LogHistogram, BUCKETS};
pub use registry::{MetricSource, MetricValue, MetricsSnapshot, Telemetry};
pub use trace::{
    chrome_trace_json, chrome_trace_text, SpanConfig, SpanRecord, SpanStore, SpanTree,
    WireTraceContext, CLIENT_ID_BIT,
};
