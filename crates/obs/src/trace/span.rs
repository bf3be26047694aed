//! Span records, per-trace buffers, and the tail-sampling span store.

use dbtouch_types::json::{object, Json};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Ids minted by a *client* (trace ids and root span ids stamped into wire
/// frames) carry this bit so they can never collide with server-minted ids,
/// which count up from 1.
pub const CLIENT_ID_BIT: u64 = 1 << 63;

/// The trace identity a client stamps into a `RunTrace` frame: the server
/// adopts both ids, so the tree it retains carries the ids the client chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTraceContext {
    /// Client-minted trace id ([`CLIENT_ID_BIT`] set).
    pub trace: u64,
    /// Client-minted id of the trace's root span.
    pub root_span: u64,
}

/// One span: a named interval with a parent, on the hub's monotonic clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within its store (client root ids carry
    /// [`CLIENT_ID_BIT`]).
    pub id: u64,
    /// Parent span id; 0 marks the trace's root.
    pub parent: u64,
    /// What the interval covers (`"touch"`, `"decode"`, `"queue_wait"`,
    /// `"service"`, `"segments"`, `"refinement"`, …).
    pub name: &'static str,
    /// Start, nanoseconds on the telemetry hub's monotonic clock.
    pub start_nanos: u64,
    /// Closed duration; `u64::MAX` while the span is open.
    pub duration_nanos: u64,
    /// Name-specific payload (bytes decoded, rows scanned, ticket, …).
    pub detail: u64,
    /// Landed after its trace finished (remote refinements): exempt from
    /// the parent-interval containment invariant.
    pub late: bool,
}

impl SpanRecord {
    /// Whether the span has not been closed yet.
    pub fn is_open(&self) -> bool {
        self.duration_nanos == u64::MAX
    }

    /// End of a closed span (start for an open one).
    pub fn end_nanos(&self) -> u64 {
        if self.is_open() {
            self.start_nanos
        } else {
            self.start_nanos.saturating_add(self.duration_nanos)
        }
    }

    /// Compact JSON exposition of one span.
    pub fn to_json(&self) -> Json {
        let num = |n: u64| Json::Number(n as f64);
        object([
            ("id", num(self.id)),
            ("parent", num(self.parent)),
            ("name", Json::String(self.name.to_string())),
            ("start_nanos", num(self.start_nanos)),
            ("duration_nanos", num(self.duration_nanos)),
            ("detail", num(self.detail)),
            ("late", Json::Bool(self.late)),
        ])
    }
}

/// One trace's completed span tree, as retained by the sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    /// Owning session.
    pub session: u64,
    /// Trace id (client-minted when the touch arrived over the wire).
    pub trace: u64,
    /// The spans, root first, in the order they were recorded.
    pub spans: Vec<SpanRecord>,
    /// Retained because the root crossed the tail latency threshold (as
    /// opposed to the 1-in-N head-sampled baseline).
    pub tail_sampled: bool,
    /// Spans dropped because the per-trace buffer hit its cap.
    pub truncated: u64,
}

impl SpanTree {
    /// The trace's root span.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent == 0)
    }

    /// JSON exposition of the whole tree.
    pub fn to_json(&self) -> Json {
        object([
            ("session", Json::Number(self.session as f64)),
            ("trace", Json::Number(self.trace as f64)),
            ("tail_sampled", Json::Bool(self.tail_sampled)),
            ("truncated", Json::Number(self.truncated as f64)),
            (
                "spans",
                Json::Array(self.spans.iter().map(SpanRecord::to_json).collect()),
            ),
        ])
    }
}

/// Span capture knobs, resolved from `KernelConfig` by the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanConfig {
    /// Master switch; a disabled store turns every call into a
    /// branch-and-return.
    pub enabled: bool,
    /// Retain the full tree of any trace whose root latency reaches this.
    pub tail_threshold_nanos: u64,
    /// Additionally retain every Nth finished trace as a baseline
    /// (0 disables head sampling).
    pub head_sample_every: u64,
    /// Completed trees kept; the oldest is evicted beyond this.
    pub retained_capacity: usize,
    /// Per-trace span cap; further spans are counted as truncated.
    pub max_spans: usize,
}

impl Default for SpanConfig {
    fn default() -> Self {
        SpanConfig {
            enabled: true,
            tail_threshold_nanos: 10_000_000, // 10 ms
            head_sample_every: 64,
            retained_capacity: 64,
            max_spans: 512,
        }
    }
}

impl SpanConfig {
    /// A configuration that records nothing.
    pub fn disabled() -> Self {
        SpanConfig {
            enabled: false,
            ..SpanConfig::default()
        }
    }
}

/// One in-flight trace's span buffer.
struct ActiveTrace {
    spans: Vec<SpanRecord>,
    truncated: u64,
}

/// The span store: active per-trace buffers plus the bounded ring of
/// retained (tail- or head-sampled) trees.
///
/// All methods are cheap no-ops when the store is disabled, and total when
/// a trace is unknown (a span recorded against a missing buffer is
/// silently dropped — observability must never fail a request).
pub struct SpanStore {
    config: SpanConfig,
    next_span: AtomicU64,
    active: Mutex<HashMap<(u64, u64), ActiveTrace>>,
    retained: Mutex<VecDeque<SpanTree>>,
    finished: AtomicU64,
    tail_sampled: AtomicU64,
    head_sampled: AtomicU64,
    truncated: AtomicU64,
}

impl SpanStore {
    /// A store with the given knobs.
    pub fn new(config: SpanConfig) -> SpanStore {
        SpanStore {
            config,
            next_span: AtomicU64::new(1),
            active: Mutex::new(HashMap::new()),
            retained: Mutex::new(VecDeque::new()),
            finished: AtomicU64::new(0),
            tail_sampled: AtomicU64::new(0),
            head_sampled: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
        }
    }

    /// Whether this store records anything.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The active configuration.
    pub fn config(&self) -> &SpanConfig {
        &self.config
    }

    /// Mint a server-side span id.
    fn mint(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Open `(session, trace)`'s root span if the trace has no buffer yet;
    /// returns the root span id either way (0 when disabled). `root_hint`
    /// is the client-minted root id from the wire (0 to mint one).
    pub fn ensure_root(&self, session: u64, trace: u64, root_hint: u64, start_nanos: u64) -> u64 {
        if !self.config.enabled {
            return 0;
        }
        let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        let entry = active.entry((session, trace)).or_insert_with(|| {
            let id = if root_hint != 0 {
                root_hint
            } else {
                self.mint()
            };
            ActiveTrace {
                spans: vec![SpanRecord {
                    id,
                    parent: 0,
                    name: "touch",
                    start_nanos,
                    duration_nanos: u64::MAX,
                    detail: 0,
                    late: false,
                }],
                truncated: 0,
            }
        });
        entry.spans.first().map_or(0, |root| root.id)
    }

    /// Append a span to an active buffer, respecting the per-trace cap.
    fn append(&self, entry: &mut ActiveTrace, mut span: SpanRecord) -> u64 {
        if entry.spans.len() >= self.config.max_spans {
            entry.truncated += 1;
            self.truncated.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        if span.parent == 0 {
            span.parent = entry.spans.first().map_or(0, |root| root.id);
        }
        let id = span.id;
        entry.spans.push(span);
        id
    }

    /// Record a closed span under `parent` (0 = under the root). Returns
    /// the span's id, or 0 when nothing was recorded.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        session: u64,
        trace: u64,
        parent: u64,
        name: &'static str,
        start_nanos: u64,
        duration_nanos: u64,
        detail: u64,
    ) -> u64 {
        if !self.config.enabled {
            return 0;
        }
        let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        let Some(entry) = active.get_mut(&(session, trace)) else {
            return 0;
        };
        let id = self.mint();
        self.append(
            entry,
            SpanRecord {
                id,
                parent,
                name,
                start_nanos,
                duration_nanos,
                detail,
                late: false,
            },
        )
    }

    /// Open a span under `parent` (0 = under the root); close it with
    /// [`SpanStore::close_span`]. Returns 0 when nothing was recorded.
    pub fn open_span(
        &self,
        session: u64,
        trace: u64,
        parent: u64,
        name: &'static str,
        start_nanos: u64,
        detail: u64,
    ) -> u64 {
        if !self.config.enabled {
            return 0;
        }
        let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        let Some(entry) = active.get_mut(&(session, trace)) else {
            return 0;
        };
        let id = self.mint();
        self.append(
            entry,
            SpanRecord {
                id,
                parent,
                name,
                start_nanos,
                duration_nanos: u64::MAX,
                detail,
                late: false,
            },
        )
    }

    /// Close a span opened with [`SpanStore::open_span`].
    pub fn close_span(&self, session: u64, trace: u64, span: u64, end_nanos: u64) {
        if !self.config.enabled || span == 0 {
            return;
        }
        let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = active.get_mut(&(session, trace)) {
            if let Some(s) = entry.spans.iter_mut().find(|s| s.id == span) {
                s.duration_nanos = end_nanos.saturating_sub(s.start_nanos);
            }
        }
    }

    /// Record a span that may land *after* its trace finished (remote
    /// refinements): appended to the active buffer when the trace is still
    /// running, else linked into the retained tree when the trace was
    /// sampled. Marked `late`, parented to the root either way.
    pub fn record_late_span(
        &self,
        session: u64,
        trace: u64,
        name: &'static str,
        start_nanos: u64,
        duration_nanos: u64,
        detail: u64,
    ) {
        if !self.config.enabled {
            return;
        }
        let span = |id: u64, parent: u64| SpanRecord {
            id,
            parent,
            name,
            start_nanos,
            duration_nanos,
            detail,
            late: true,
        };
        {
            let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = active.get_mut(&(session, trace)) {
                let id = self.mint();
                self.append(entry, span(id, 0));
                return;
            }
        }
        let mut retained = self.retained.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(tree) = retained
            .iter_mut()
            .find(|t| t.session == session && t.trace == trace)
        {
            if tree.spans.len() >= self.config.max_spans {
                tree.truncated += 1;
                self.truncated.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let root = tree.root().map_or(0, |r| r.id);
            tree.spans.push(span(self.mint(), root));
        }
    }

    /// Finish a trace: close its root (and clamp any span left open) at
    /// `end_nanos`, then tail/head-sample the tree into the retained ring.
    /// Returns whether the tree was retained.
    pub fn trace_finish(&self, session: u64, trace: u64, end_nanos: u64) -> bool {
        if !self.config.enabled {
            return false;
        }
        let entry = {
            let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
            active.remove(&(session, trace))
        };
        let Some(mut entry) = entry else {
            return false;
        };
        for span in &mut entry.spans {
            if span.is_open() {
                span.duration_nanos = end_nanos.saturating_sub(span.start_nanos);
            }
        }
        let tick = self.finished.fetch_add(1, Ordering::Relaxed);
        let root_duration = entry.spans.first().map_or(0, |root| root.duration_nanos);
        let tail = root_duration >= self.config.tail_threshold_nanos;
        let head =
            self.config.head_sample_every > 0 && tick.is_multiple_of(self.config.head_sample_every);
        if !(tail || head) || self.config.retained_capacity == 0 {
            return false;
        }
        if tail {
            self.tail_sampled.fetch_add(1, Ordering::Relaxed);
        } else {
            self.head_sampled.fetch_add(1, Ordering::Relaxed);
        }
        let tree = SpanTree {
            session,
            trace,
            spans: entry.spans,
            tail_sampled: tail,
            truncated: entry.truncated,
        };
        let mut retained = self.retained.lock().unwrap_or_else(|e| e.into_inner());
        if retained.len() == self.config.retained_capacity {
            retained.pop_front();
        }
        retained.push_back(tree);
        true
    }

    /// Drop a trace's buffer without sampling (shed or failed requests).
    pub fn trace_abort(&self, session: u64, trace: u64) {
        if !self.config.enabled {
            return;
        }
        let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        active.remove(&(session, trace));
    }

    /// The retained trees, oldest first.
    pub fn retained(&self) -> Vec<SpanTree> {
        let retained = self.retained.lock().unwrap_or_else(|e| e.into_inner());
        retained.iter().cloned().collect()
    }

    /// Traces finished (sampled or not).
    pub fn traces_finished(&self) -> u64 {
        self.finished.load(Ordering::Relaxed)
    }

    /// Trees retained because their root crossed the tail threshold.
    pub fn tail_sampled(&self) -> u64 {
        self.tail_sampled.load(Ordering::Relaxed)
    }

    /// Trees retained by the 1-in-N head-sampled baseline only.
    pub fn head_sampled(&self) -> u64 {
        self.head_sampled.load(Ordering::Relaxed)
    }

    /// Spans dropped by the per-trace cap, across all traces.
    pub fn spans_truncated(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for SpanStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanStore")
            .field("enabled", &self.config.enabled)
            .field("finished", &self.traces_finished())
            .field("tail_sampled", &self.tail_sampled())
            .field("head_sampled", &self.head_sampled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(config: SpanConfig) -> SpanStore {
        SpanStore::new(config)
    }

    #[test]
    fn tree_grows_under_the_root_and_finishes_closed() {
        let s = store(SpanConfig {
            tail_threshold_nanos: 0, // everything tail-samples
            ..SpanConfig::default()
        });
        let root = s.ensure_root(7, 99, 0, 1_000);
        assert_ne!(root, 0);
        // Idempotent: a second ensure returns the same root.
        assert_eq!(s.ensure_root(7, 99, 0, 5_000), root);
        let wait = s.record_span(7, 99, 0, "queue_wait", 1_000, 400, 0);
        let service = s.open_span(7, 99, 0, "service", 1_400, 3);
        let seg = s.record_span(7, 99, service, "segments", 1_500, 100, 4096);
        s.close_span(7, 99, service, 2_400);
        assert!(s.trace_finish(7, 99, 2_500));
        let trees = s.retained();
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert!(tree.tail_sampled);
        assert_eq!(tree.spans.len(), 4);
        let by_id = |id: u64| tree.spans.iter().find(|s| s.id == id).unwrap();
        assert_eq!(tree.root().unwrap().id, root);
        assert_eq!(tree.root().unwrap().duration_nanos, 1_500);
        assert_eq!(by_id(wait).parent, root);
        assert_eq!(by_id(service).duration_nanos, 1_000);
        assert_eq!(by_id(seg).parent, service);
        assert!(tree.spans.iter().all(|s| !s.is_open()));
    }

    #[test]
    fn wire_root_hint_is_adopted() {
        let s = store(SpanConfig {
            tail_threshold_nanos: 0,
            ..SpanConfig::default()
        });
        let client_root = CLIENT_ID_BIT | 17;
        let client_trace = CLIENT_ID_BIT | 16;
        assert_eq!(s.ensure_root(1, client_trace, client_root, 0), client_root);
        s.trace_finish(1, client_trace, 500);
        let trees = s.retained();
        assert_eq!(trees[0].trace, client_trace);
        assert_eq!(trees[0].root().unwrap().id, client_root);
    }

    #[test]
    fn tail_and_head_sampling_gate_retention() {
        let s = store(SpanConfig {
            tail_threshold_nanos: 1_000_000,
            head_sample_every: 4,
            ..SpanConfig::default()
        });
        for trace in 0..8 {
            s.ensure_root(1, trace, 0, 0);
            // Trace 5 is slow: crosses the tail threshold.
            let end = if trace == 5 { 2_000_000 } else { 10 };
            s.trace_finish(1, trace, end);
        }
        // Head keeps traces 0 and 4; tail keeps trace 5.
        let kept: Vec<(u64, bool)> = s
            .retained()
            .iter()
            .map(|t| (t.trace, t.tail_sampled))
            .collect();
        assert_eq!(kept, vec![(0, false), (4, false), (5, true)]);
        assert_eq!(s.traces_finished(), 8);
        assert_eq!(s.tail_sampled(), 1);
        assert_eq!(s.head_sampled(), 2);
    }

    #[test]
    fn retained_ring_is_bounded_and_spans_are_capped() {
        let s = store(SpanConfig {
            tail_threshold_nanos: 0,
            head_sample_every: 0,
            retained_capacity: 2,
            max_spans: 3,
            ..SpanConfig::default()
        });
        for trace in 0..4 {
            s.ensure_root(1, trace, 0, 0);
            for i in 0..5 {
                s.record_span(1, trace, 0, "segments", i, 1, i);
            }
            s.trace_finish(1, trace, 100);
        }
        let trees = s.retained();
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].trace, 2);
        assert_eq!(trees[1].trace, 3);
        assert!(trees.iter().all(|t| t.spans.len() == 3 && t.truncated == 3));
        assert_eq!(s.spans_truncated(), 12);
    }

    #[test]
    fn late_spans_land_in_active_or_retained_trees() {
        let s = store(SpanConfig {
            tail_threshold_nanos: 0,
            ..SpanConfig::default()
        });
        s.ensure_root(3, 40, 0, 0);
        s.record_late_span(3, 40, "refinement", 10, 5, 1);
        s.trace_finish(3, 40, 100);
        // The trace is retained: a second late span appends to the tree.
        s.record_late_span(3, 40, "refinement", 120, 30, 2);
        // Unknown traces are silently dropped.
        s.record_late_span(3, 999, "refinement", 0, 1, 3);
        let trees = s.retained();
        assert_eq!(trees.len(), 1);
        let late: Vec<&SpanRecord> = trees[0].spans.iter().filter(|s| s.late).collect();
        assert_eq!(late.len(), 2);
        assert!(late.iter().all(|s| s.parent == trees[0].root().unwrap().id));
        // The second landed after the root closed — allowed, because late.
        assert!(late[1].end_nanos() > trees[0].root().unwrap().end_nanos());
    }

    #[test]
    fn disabled_store_records_nothing() {
        let s = store(SpanConfig::disabled());
        assert_eq!(s.ensure_root(1, 1, 0, 0), 0);
        assert_eq!(s.record_span(1, 1, 0, "x", 0, 1, 0), 0);
        assert_eq!(s.open_span(1, 1, 0, "x", 0, 0), 0);
        s.record_late_span(1, 1, "x", 0, 1, 0);
        assert!(!s.trace_finish(1, 1, 10));
        assert!(s.retained().is_empty());
        assert_eq!(s.traces_finished(), 0);
    }

    #[test]
    fn abort_drops_the_buffer() {
        let s = store(SpanConfig {
            tail_threshold_nanos: 0,
            ..SpanConfig::default()
        });
        s.ensure_root(1, 7, 0, 0);
        s.trace_abort(1, 7);
        assert!(!s.trace_finish(1, 7, 100));
        assert!(s.retained().is_empty());
    }
}
