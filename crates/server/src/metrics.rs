//! Server-level telemetry: wait-free serving counters and the typed
//! metrics snapshot [`ExplorationServer::metrics_snapshot`] returns.
//!
//! Workers fold a trace's [`SessionStats`] into the shared
//! `ServerInstruments` once per completed trace — not per touch — so the
//! per-touch hot path stays instrumentation-free and the counters stay
//! wait-free (striped relaxed atomics, aggregated only on scrape).
//!
//! [`ExplorationServer::metrics_snapshot`]: crate::manager::ExplorationServer::metrics_snapshot
//! [`SessionStats`]: dbtouch_core::session::SessionStats

use dbtouch_core::session::SessionStats;
use dbtouch_obs::{
    Counter, HistogramSnapshot, LogHistogram, MetricSource, MetricValue, MetricsSnapshot,
    PeakGauge, SpanTree,
};
use dbtouch_types::json::Json;

/// Lifetime serving counters of one [`ExplorationServer`], registered with
/// the catalog's telemetry hub under the `server.` prefix.
///
/// Everything here is wait-free to record: counters stripe per thread,
/// peaks are a single `fetch_max`, and the latency histogram is a
/// fixed-size array of relaxed atomics.
///
/// [`ExplorationServer`]: crate::manager::ExplorationServer
#[derive(Debug, Default)]
pub(crate) struct ServerInstruments {
    /// Sessions ever opened (satellite of `worker_loads()`: the lifetime
    /// total the point-in-time loads cannot show).
    pub sessions_opened: Counter,
    /// Sessions closed by their worker.
    pub sessions_closed: Counter,
    /// Most live sessions pinned to any single worker at once.
    pub peak_worker_load: PeakGauge,
    /// Most live sessions across all workers at once.
    pub peak_live_sessions: PeakGauge,
    /// Gesture traces completed successfully.
    pub traces: Counter,
    /// Events whose processing errored (recorded in the session report).
    pub trace_errors: Counter,
    /// Touch samples consumed across all completed traces.
    pub touches: Counter,
    /// Result entries returned across all completed traces.
    pub entries: Counter,
    /// Rows read from storage across all completed traces.
    pub rows_touched: Counter,
    /// Per-trace mean per-touch nanoseconds, log-scale buckets.
    pub touch_nanos: LogHistogram,
    /// Worst single-touch nanoseconds observed in any trace.
    pub worst_touch_nanos: PeakGauge,
}

impl ServerInstruments {
    /// Fold one completed trace's statistics in (called once per trace).
    pub fn record_trace(&self, stats: &SessionStats, per_touch_mean_nanos: u64) {
        self.traces.inc();
        self.touches.add(stats.touches);
        self.entries.add(stats.entries_returned);
        self.rows_touched.add(stats.rows_touched);
        self.touch_nanos.record(per_touch_mean_nanos);
        self.worst_touch_nanos
            .observe(stats.max_touch_nanos.max(per_touch_mean_nanos));
    }
}

impl MetricSource for ServerInstruments {
    fn source_name(&self) -> &'static str {
        "server"
    }

    fn collect(&self) -> Vec<(&'static str, MetricValue)> {
        vec![
            (
                "sessions_opened",
                MetricValue::Counter(self.sessions_opened.get()),
            ),
            (
                "sessions_closed",
                MetricValue::Counter(self.sessions_closed.get()),
            ),
            (
                "peak_worker_load",
                MetricValue::Gauge(self.peak_worker_load.get()),
            ),
            (
                "peak_live_sessions",
                MetricValue::Gauge(self.peak_live_sessions.get()),
            ),
            ("traces", MetricValue::Counter(self.traces.get())),
            (
                "trace_errors",
                MetricValue::Counter(self.trace_errors.get()),
            ),
            ("touches", MetricValue::Counter(self.touches.get())),
            ("entries", MetricValue::Counter(self.entries.get())),
            (
                "rows_touched",
                MetricValue::Counter(self.rows_touched.get()),
            ),
            (
                "touch_nanos",
                MetricValue::Histogram(Box::new(self.touch_nanos.snapshot())),
            ),
            (
                "worst_touch_nanos",
                MetricValue::Gauge(self.worst_touch_nanos.get()),
            ),
        ]
    }
}

/// A typed point-in-time view of everything the server and the layers under
/// it expose: the hub's metric snapshot (server counters, catalog gauges,
/// pager/cache/remote sources, retained span trees) plus the per-worker
/// loads only the server itself knows.
///
/// Readable mid-run — taking it never blocks serving (sources are relaxed
/// atomics; the span store takes a short lock to copy its retained trees).
#[derive(Debug, Clone)]
pub struct ServerMetricsSnapshot {
    /// Live sessions pinned to each worker at snapshot time, worker order.
    pub worker_loads: Vec<usize>,
    /// The telemetry hub's snapshot: all registered sources and the retained
    /// span trees.
    pub inner: MetricsSnapshot,
}

impl ServerMetricsSnapshot {
    /// A scalar metric by full key (e.g. `"server.traces"`,
    /// `"pager.faults"`); `None` for unknown keys and histograms.
    pub fn scalar(&self, key: &str) -> Option<u64> {
        self.inner.scalar(key)
    }

    /// A histogram metric by full key (e.g. `"server.touch_nanos"`).
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        match self.inner.get(key)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Sessions ever opened on this server.
    pub fn sessions_served(&self) -> u64 {
        self.scalar("server.sessions_opened").unwrap_or(0)
    }

    /// Most live sessions observed at once across all workers.
    pub fn peak_live_sessions(&self) -> u64 {
        self.scalar("server.peak_live_sessions").unwrap_or(0)
    }

    /// Gesture traces completed.
    pub fn traces_run(&self) -> u64 {
        self.scalar("server.traces").unwrap_or(0)
    }

    /// The retained (tail- and head-sampled) span trees, oldest first.
    pub fn traces(&self) -> &[SpanTree] {
        &self.inner.traces
    }

    /// JSON exposition: the hub snapshot plus the server's worker loads.
    pub fn to_json(&self) -> Json {
        let Json::Object(mut fields) = self.inner.to_json() else {
            unreachable!("MetricsSnapshot::to_json returns an object");
        };
        fields.insert(
            "worker_loads".into(),
            Json::Array(
                self.worker_loads
                    .iter()
                    .map(|&l| Json::Number(l as f64))
                    .collect(),
            ),
        );
        Json::Object(fields)
    }

    /// Text exposition: one `key value` line per metric, worker loads last.
    pub fn render_text(&self) -> String {
        let mut out = self.inner.render_text();
        for (worker, load) in self.worker_loads.iter().enumerate() {
            out.push_str(&format!("server.worker_load.{worker} {load}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_fold_and_expose() {
        let instruments = ServerInstruments::default();
        let stats = SessionStats {
            touches: 40,
            entries_returned: 12,
            rows_touched: 300,
            max_touch_nanos: 9_000,
            ..Default::default()
        };
        instruments.record_trace(&stats, 1_500);
        instruments.sessions_opened.inc();
        instruments.peak_live_sessions.observe(3);

        let metrics = instruments.collect();
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("traces"), MetricValue::Counter(1));
        assert_eq!(get("touches"), MetricValue::Counter(40));
        assert_eq!(get("worst_touch_nanos"), MetricValue::Gauge(9_000));
        assert_eq!(get("peak_live_sessions"), MetricValue::Gauge(3));
        match get("touch_nanos") {
            MetricValue::Histogram(h) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
