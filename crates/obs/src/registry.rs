//! The telemetry hub: source registry, event recording, and scraping.
//!
//! Every layer that already kept a stats struct (pager, caches, remote
//! executor, server) registers itself as a [`MetricSource`]; a scrape walks
//! the sources and folds their current values plus the event ring into one
//! [`MetricsSnapshot`]. Nothing is pushed through reports or plumbed through
//! call chains — the snapshot is assembled on demand, mid-run, without
//! quiescing anything.

use crate::counter::Counter;
use crate::ctx::trace_ctx;
use crate::events::{EventRing, TraceEvent, TraceEventKind};
use crate::histogram::HistogramSnapshot;
use crate::trace::span::{SpanConfig, SpanStore, SpanTree};
use dbtouch_types::json::{object, Json};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// One scraped metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time or high-water value.
    Gauge(u64),
    /// Derived ratio/rate.
    Float(f64),
    /// Full distribution (boxed: a snapshot is ~65 buckets wide and would
    /// otherwise dominate the enum's size).
    Histogram(Box<HistogramSnapshot>),
}

impl MetricValue {
    /// The value as JSON (histograms expand to their bucket object).
    pub fn to_json(&self) -> Json {
        match self {
            MetricValue::Counter(n) | MetricValue::Gauge(n) => Json::Number(*n as f64),
            MetricValue::Float(f) => Json::Number(*f),
            MetricValue::Histogram(h) => h.to_json(),
        }
    }
}

/// A layer that can be scraped. Implementations must be cheap and
/// non-blocking: a scrape runs concurrently with the hot path.
pub trait MetricSource: Send + Sync {
    /// Namespace for this source's metrics (e.g. `"pager"`). Snapshot keys are
    /// `"{name}.{metric}"`.
    fn source_name(&self) -> &'static str;

    /// Current values, as `(metric, value)` pairs.
    fn collect(&self) -> Vec<(&'static str, MetricValue)>;
}

/// A scraped view of the whole system at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `"{source}.{metric}"` → value, deterministically ordered.
    pub metrics: BTreeMap<String, MetricValue>,
    /// The retained tail of the event trace, oldest first.
    pub events: Vec<TraceEvent>,
    /// The retained (tail/head-sampled) span trees, oldest first.
    pub traces: Vec<SpanTree>,
    /// Nanoseconds since the hub was created.
    pub uptime_nanos: u64,
    /// Total events recorded (including ones the ring has since evicted).
    pub events_recorded: u64,
}

impl MetricsSnapshot {
    /// Look up a metric by its full `"{source}.{metric}"` key.
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.metrics.get(key)
    }

    /// Counter/gauge value by key, when present and scalar.
    pub fn scalar(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            MetricValue::Counter(n) | MetricValue::Gauge(n) => Some(*n),
            _ => None,
        }
    }

    /// JSON exposition: `{ uptime_nanos, metrics: {...}, events: [...] }`.
    pub fn to_json(&self) -> Json {
        let metrics = Json::Object(
            self.metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        let events = Json::Array(self.events.iter().map(TraceEvent::to_json).collect());
        let traces = Json::Array(self.traces.iter().map(SpanTree::to_json).collect());
        object([
            ("uptime_nanos", Json::Number(self.uptime_nanos as f64)),
            ("events_recorded", Json::Number(self.events_recorded as f64)),
            ("metrics", metrics),
            ("events", events),
            ("traces", traces),
        ])
    }

    /// Flat text exposition, one `key value` line per metric (histograms
    /// expand to `.count/.mean/.p50/.p90/.p99/.max` lines), suitable for
    /// dumping to a terminal or diffing between scrapes.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "uptime_nanos {}", self.uptime_nanos);
        let _ = writeln!(out, "events_recorded {}", self.events_recorded);
        for (key, value) in &self.metrics {
            match value {
                MetricValue::Counter(n) | MetricValue::Gauge(n) => {
                    let _ = writeln!(out, "{key} {n}");
                }
                MetricValue::Float(f) => {
                    let _ = writeln!(out, "{key} {f:.6}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "{key}.count {}", h.count());
                    let _ = writeln!(out, "{key}.mean {:.1}", h.mean());
                    let _ = writeln!(out, "{key}.p50 {}", h.quantile(50.0));
                    let _ = writeln!(out, "{key}.p90 {}", h.quantile(90.0));
                    let _ = writeln!(out, "{key}.p99 {}", h.quantile(99.0));
                    let _ = writeln!(out, "{key}.max {}", h.max());
                }
            }
        }
        out
    }
}

thread_local! {
    /// Per-thread tick for 1-in-N sampling of hot event kinds.
    static HOT_TICK: Cell<u32> = const { Cell::new(0) };
}

/// The telemetry hub. One per catalog/server; shared by `Arc` into every
/// layer. A disabled hub turns every recording call into a branch-and-return.
pub struct Telemetry {
    enabled: bool,
    hot_sample: u32,
    started: Instant,
    ring: EventRing,
    spans: SpanStore,
    next_trace: AtomicU64,
    /// Full scrapes taken ([`Telemetry::snapshot`] calls) — `obs.scrapes`.
    scrapes: Counter,
    sources: RwLock<Vec<Arc<dyn MetricSource>>>,
}

impl Telemetry {
    /// A live hub. `ring_capacity` bounds retained trace events;
    /// `hot_sample` records every Nth hot-path event (1 = record all).
    /// Span capture uses [`SpanConfig::default`]; use
    /// [`Telemetry::with_spans`] to tune it.
    pub fn new(ring_capacity: usize, hot_sample: u32) -> Self {
        Telemetry::with_spans(ring_capacity, hot_sample, SpanConfig::default())
    }

    /// A live hub with explicit span-capture knobs.
    pub fn with_spans(ring_capacity: usize, hot_sample: u32, spans: SpanConfig) -> Self {
        Telemetry {
            enabled: true,
            hot_sample: hot_sample.max(1),
            started: Instant::now(),
            ring: EventRing::new(ring_capacity),
            spans: SpanStore::new(spans),
            next_trace: AtomicU64::new(1),
            scrapes: Counter::new(),
            sources: RwLock::new(Vec::new()),
        }
    }

    /// A hub that records nothing and scrapes empty snapshots.
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            hot_sample: 1,
            started: Instant::now(),
            ring: EventRing::new(0),
            spans: SpanStore::new(SpanConfig::disabled()),
            next_trace: AtomicU64::new(1),
            scrapes: Counter::new(),
            sources: RwLock::new(Vec::new()),
        }
    }

    /// Whether this hub records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The hierarchical span store (disabled stores no-op every call).
    pub fn spans(&self) -> &SpanStore {
        &self.spans
    }

    /// Nanoseconds since the hub started — the clock every span timestamp
    /// lives on.
    pub fn now_nanos(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Register (or replace, matched by `source_name`) a scrape source.
    pub fn register(&self, source: Arc<dyn MetricSource>) {
        let mut sources = self.sources.write().unwrap();
        if let Some(slot) = sources
            .iter_mut()
            .find(|s| s.source_name() == source.source_name())
        {
            *slot = source;
        } else {
            sources.push(source);
        }
    }

    /// Allocate a trace id and attribute subsequent events on this thread to
    /// `(session, trace)`. Pair with [`Telemetry::end_trace`].
    pub fn begin_trace(&self, session: u64) -> u64 {
        let trace = self.next_trace.fetch_add(1, Ordering::Relaxed);
        if self.enabled {
            crate::ctx::set_trace_ctx(session, trace);
        }
        trace
    }

    /// Attribute subsequent events on this thread to a trace id minted
    /// elsewhere (a client-stamped wire id, [`crate::trace::CLIENT_ID_BIT`]
    /// set, so it cannot collide with [`Telemetry::begin_trace`] ids). Pair
    /// with [`Telemetry::end_trace`].
    pub fn adopt_trace(&self, session: u64, trace: u64) -> u64 {
        if self.enabled {
            crate::ctx::set_trace_ctx(session, trace);
        }
        trace
    }

    /// Clear this thread's trace attribution.
    pub fn end_trace(&self) {
        crate::ctx::clear_trace_ctx();
    }

    /// Record a lifecycle event unconditionally (rare kinds).
    #[inline]
    pub fn event(&self, kind: TraceEventKind, detail: u64) {
        if !self.enabled {
            return;
        }
        self.push_event(kind, detail);
    }

    /// Record a hot-path event, sampled 1-in-`hot_sample` per thread. The
    /// fast path (sampled out) is one thread-local increment.
    #[inline]
    pub fn hot_event(&self, kind: TraceEventKind, detail: u64) {
        if !self.enabled {
            return;
        }
        let fire = HOT_TICK.with(|t| {
            let next = t.get().wrapping_add(1);
            t.set(next);
            next % self.hot_sample == 0
        });
        if fire {
            self.push_event(kind, detail);
        }
    }

    fn push_event(&self, kind: TraceEventKind, detail: u64) {
        let ctx = trace_ctx();
        self.ring.push(TraceEvent {
            seq: 0, // assigned by the ring
            at_nanos: self.started.elapsed().as_nanos() as u64,
            session: ctx.map(|c| c.session),
            trace: ctx.map(|c| c.trace),
            kind,
            detail,
        });
    }

    /// The hub's own health under the `obs.` prefix: scrape count, ring
    /// saturation and span-sampler activity.
    fn own_metrics(&self) -> [(&'static str, MetricValue); 6] {
        [
            ("scrapes", MetricValue::Counter(self.scrapes.get())),
            ("events_dropped", MetricValue::Counter(self.ring.dropped())),
            (
                "traces_finished",
                MetricValue::Counter(self.spans.traces_finished()),
            ),
            (
                "traces_tail_sampled",
                MetricValue::Counter(self.spans.tail_sampled()),
            ),
            (
                "traces_head_sampled",
                MetricValue::Counter(self.spans.head_sampled()),
            ),
            (
                "spans_truncated",
                MetricValue::Counter(self.spans.spans_truncated()),
            ),
        ]
    }

    /// Read one metric by its full `"{source}.{metric}"` key without taking
    /// a scrape: only the named source is collected — no key map, no copy of
    /// the event ring or the retained span trees. The value equals what
    /// [`Telemetry::snapshot`] would report under the same key at the same
    /// instant. This is the read admission control takes per request.
    pub fn metric(&self, key: &str) -> Option<MetricValue> {
        let (prefix, name) = key.split_once('.')?;
        let values = if prefix == "obs" {
            self.own_metrics().to_vec()
        } else {
            let sources = self.sources.read().unwrap();
            sources
                .iter()
                .find(|s| s.source_name() == prefix)?
                .collect()
        };
        values.into_iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Scrape all sources and the event ring into a snapshot. Runs
    /// concurrently with writers; no quiescing.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.scrapes.inc();
        let mut metrics = BTreeMap::new();
        for source in self.sources.read().unwrap().iter() {
            let prefix = source.source_name();
            for (name, value) in source.collect() {
                metrics.insert(format!("{prefix}.{name}"), value);
            }
        }
        for (name, value) in self.own_metrics() {
            metrics.insert(format!("obs.{name}"), value);
        }
        MetricsSnapshot {
            metrics,
            events: self.ring.snapshot(),
            traces: self.spans.retained(),
            uptime_nanos: self.started.elapsed().as_nanos() as u64,
            events_recorded: self.ring.pushed(),
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("hot_sample", &self.hot_sample)
            .field("sources", &self.sources.read().unwrap().len())
            .field("events_recorded", &self.ring.pushed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::Counter;

    struct FakeSource {
        hits: Counter,
    }

    impl MetricSource for FakeSource {
        fn source_name(&self) -> &'static str {
            "fake"
        }
        fn collect(&self) -> Vec<(&'static str, MetricValue)> {
            vec![("hits", MetricValue::Counter(self.hits.get()))]
        }
    }

    #[test]
    fn snapshot_scrapes_registered_sources() {
        let hub = Telemetry::new(64, 1);
        let src = Arc::new(FakeSource {
            hits: Counter::new(),
        });
        hub.register(src.clone());
        src.hits.add(3);
        let snap = hub.snapshot();
        assert_eq!(snap.scalar("fake.hits"), Some(3));
        // Re-register replaces rather than duplicates (the other keys are
        // the hub's own obs.* health metrics).
        hub.register(src);
        let snap = hub.snapshot();
        assert_eq!(
            snap.metrics
                .keys()
                .filter(|k| k.starts_with("fake."))
                .count(),
            1
        );
        assert_eq!(snap.scalar("obs.events_dropped"), Some(0));
    }

    #[test]
    fn metric_reads_one_key_without_scraping() {
        let hub = Telemetry::new(64, 1);
        let src = Arc::new(FakeSource {
            hits: Counter::new(),
        });
        hub.register(src.clone());
        src.hits.add(7);
        assert_eq!(hub.metric("fake.hits"), Some(MetricValue::Counter(7)));
        assert_eq!(hub.metric("fake.misses"), None);
        assert_eq!(hub.metric("nosuch.hits"), None);
        assert_eq!(hub.metric("nodot"), None);
        // Narrow reads are not scrapes; snapshots are, and both readers
        // agree on every key.
        assert_eq!(hub.metric("obs.scrapes"), Some(MetricValue::Counter(0)));
        let snap = hub.snapshot();
        assert_eq!(hub.metric("obs.scrapes"), Some(MetricValue::Counter(1)));
        for (key, value) in &snap.metrics {
            assert_eq!(hub.metric(key).as_ref(), Some(value), "{key}");
        }
    }

    #[test]
    fn events_carry_trace_context() {
        let hub = Telemetry::new(64, 1);
        let trace = hub.begin_trace(7);
        hub.event(TraceEventKind::RemoteSubmitted, 11);
        hub.end_trace();
        hub.event(TraceEventKind::EpochPublished, 2);
        let snap = hub.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].session, Some(7));
        assert_eq!(snap.events[0].trace, Some(trace));
        assert_eq!(snap.events[1].session, None);
    }

    #[test]
    fn hot_events_are_sampled() {
        let hub = Telemetry::new(4096, 10);
        for i in 0..100 {
            hub.hot_event(TraceEventKind::TouchReceived, i);
        }
        let snap = hub.snapshot();
        assert_eq!(snap.events.len(), 10);
        assert_eq!(snap.events_recorded, 10);
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let hub = Telemetry::disabled();
        hub.begin_trace(1);
        hub.event(TraceEventKind::PageFault, 1);
        hub.hot_event(TraceEventKind::TouchReceived, 1);
        hub.end_trace();
        let snap = hub.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.events_recorded, 0);
        assert!(crate::ctx::trace_ctx().is_none());
    }

    #[test]
    fn exposition_renders_text_and_json() {
        let hub = Telemetry::new(64, 1);
        let src = Arc::new(FakeSource {
            hits: Counter::new(),
        });
        src.hits.add(5);
        hub.register(src);
        hub.event(TraceEventKind::EpochPublished, 3);
        let snap = hub.snapshot();
        let text = snap.render_text();
        assert!(text.contains("fake.hits 5"));
        let json = snap.to_json();
        assert_eq!(
            json.get("metrics")
                .and_then(|m| m.get("fake.hits"))
                .and_then(Json::as_u64),
            Some(5)
        );
        assert_eq!(
            json.get("events").and_then(Json::as_array).unwrap().len(),
            1
        );
        // Byte-stable rendering round-trips through the parser.
        assert!(dbtouch_types::json::parse(&json.pretty()).is_ok());
    }

    #[test]
    fn snapshot_carries_retained_span_trees() {
        let hub = Telemetry::with_spans(
            64,
            1,
            SpanConfig {
                tail_threshold_nanos: 0, // everything tail-samples
                ..SpanConfig::default()
            },
        );
        let trace = hub.begin_trace(4);
        let start = hub.now_nanos();
        hub.spans().ensure_root(4, trace, 0, start);
        hub.spans()
            .record_span(4, trace, 0, "service", start, 10, 0);
        hub.spans().trace_finish(4, trace, start + 20);
        hub.end_trace();
        let snap = hub.snapshot();
        assert_eq!(snap.traces.len(), 1);
        assert_eq!(snap.traces[0].trace, trace);
        assert_eq!(snap.scalar("obs.traces_finished"), Some(1));
        assert_eq!(snap.scalar("obs.traces_tail_sampled"), Some(1));
        let json = snap.to_json();
        assert_eq!(
            json.get("traces").and_then(Json::as_array).map(|a| a.len()),
            Some(1)
        );
    }

    #[test]
    fn adopt_trace_attributes_without_minting() {
        let hub = Telemetry::new(64, 1);
        let wire = crate::trace::CLIENT_ID_BIT | 9;
        assert_eq!(hub.adopt_trace(2, wire), wire);
        hub.event(TraceEventKind::TraceStarted, 0);
        hub.end_trace();
        let snap = hub.snapshot();
        assert_eq!(snap.events[0].trace, Some(wire));
        // The mint counter was not consumed.
        assert_eq!(hub.begin_trace(2), 1);
        hub.end_trace();
    }
}
