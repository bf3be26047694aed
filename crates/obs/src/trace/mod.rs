//! Hierarchical causal tracing: spans, span trees, tail sampling, export.
//!
//! This module answers "where did *this* touch spend its time". Every
//! gesture trace executed with tracing enabled grows a bounded tree of
//! [`SpanRecord`]s — root per touch, children for frame decode, admission,
//! queue wait, worker service, claimed segment batches, and late remote
//! refinements — and the [`SpanStore`] retains completed trees whose root
//! latency crosses a tail threshold (plus a 1-in-N head-sampled baseline)
//! in a bounded ring. [`export`] renders retained trees as Chrome
//! trace-event JSON loadable in Perfetto.
//!
//! Like the rest of the crate, tracing observes execution and never steers
//! it: session digests are bit-identical with tracing on or off.

pub mod export;
pub mod span;

pub use export::{chrome_trace_json, chrome_trace_text};
pub use span::{SpanConfig, SpanRecord, SpanStore, SpanTree, WireTraceContext, CLIENT_ID_BIT};
