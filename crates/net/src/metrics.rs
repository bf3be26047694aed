//! Network-layer instrumentation, published through the shared telemetry
//! hub as the `net` metric source.
//!
//! Registered into the served catalog's [`Telemetry`] registry, so
//! `net.connections`, `net.shed`, `net.frame_nanos` and friends appear in
//! the same [`metrics_snapshot`] scrape as the server and kernel metrics —
//! including over the wire via the `Metrics` request.
//!
//! [`Telemetry`]: dbtouch_obs::Telemetry
//! [`metrics_snapshot`]: dbtouch_server::ExplorationServer::metrics_snapshot

use dbtouch_obs::{Counter, Gauge, LogHistogram, MetricSource, MetricValue};

/// Counters and histograms of the TCP serving layer.
#[derive(Debug, Default)]
pub struct NetInstruments {
    /// Live client connections (gauge).
    pub connections: Gauge,
    /// Connections accepted since startup.
    pub accepted: Counter,
    /// Requests and connections rejected by load shedding (connection cap
    /// or admission control).
    pub shed: Counter,
    /// Wire bytes received (frame headers and checksums included).
    pub bytes_in: Counter,
    /// Wire bytes sent.
    pub bytes_out: Counter,
    /// Malformed frames observed: bad checksums, truncations, oversize
    /// lengths, undecodable payloads, unknown frame types.
    pub frame_errors: Counter,
    /// Wall-clock nanoseconds spent serving each request frame, from decoded
    /// request to written response (log-scale buckets).
    pub frame_nanos: LogHistogram,
    /// `DumpTraces` requests served (each walks the retained span-tree ring).
    pub traces_dumped: Counter,
}

impl MetricSource for NetInstruments {
    fn source_name(&self) -> &'static str {
        "net"
    }

    fn collect(&self) -> Vec<(&'static str, MetricValue)> {
        vec![
            ("connections", MetricValue::Gauge(self.connections.get())),
            ("accepted", MetricValue::Counter(self.accepted.get())),
            ("shed", MetricValue::Counter(self.shed.get())),
            ("bytes_in", MetricValue::Counter(self.bytes_in.get())),
            ("bytes_out", MetricValue::Counter(self.bytes_out.get())),
            (
                "frame_errors",
                MetricValue::Counter(self.frame_errors.get()),
            ),
            (
                "frame_nanos",
                MetricValue::Histogram(Box::new(self.frame_nanos.snapshot())),
            ),
            (
                "traces_dumped",
                MetricValue::Counter(self.traces_dumped.get()),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_all_net_metrics() {
        let n = NetInstruments::default();
        n.connections.set(3);
        n.accepted.add(5);
        n.shed.inc();
        n.bytes_in.add(100);
        n.bytes_out.add(200);
        n.frame_errors.inc();
        n.frame_nanos.record(1_000);
        n.traces_dumped.inc();
        let collected = n.collect();
        let get = |key: &str| {
            collected
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("connections"), MetricValue::Gauge(3));
        assert_eq!(get("accepted"), MetricValue::Counter(5));
        assert_eq!(get("shed"), MetricValue::Counter(1));
        assert_eq!(get("bytes_in"), MetricValue::Counter(100));
        assert_eq!(get("bytes_out"), MetricValue::Counter(200));
        assert_eq!(get("frame_errors"), MetricValue::Counter(1));
        assert_eq!(get("traces_dumped"), MetricValue::Counter(1));
        match get("frame_nanos") {
            MetricValue::Histogram(h) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
