//! Admission control: decide from live telemetry whether to serve or shed.
//!
//! The serving layer never queues work it cannot absorb. Before an
//! `OpenSession` or `RunTrace` is admitted, each threshold *configured* in
//! [`ShedConfig`] is checked against its live signal — the same numbers an
//! operator sees on the dashboard:
//!
//! * `server.sessions_opened - server.sessions_closed` — live sessions,
//!   gating new sessions;
//! * `remote_exec.backlog` — the remote executor's queued refinements,
//!   gating all traffic;
//! * `server.touch_nanos` p99 — the per-touch latency distribution, the
//!   paper's interactivity ceiling turned into an admission signal.
//!
//! Signals are read by key through a lookup. The serving loop passes one
//! over the telemetry hub ([`Telemetry::metric`]: only the named source is
//! collected, and with no threshold set nothing is read at all), so a request
//! never pays for a full [`metrics_snapshot`] scrape. [`Admission::admit_open`]
//! and [`Admission::admit_trace`] run the same thresholds over a scrape
//! already in hand.
//!
//! A tripped threshold produces a [`Verdict::Shed`] that the connection
//! handler turns into an explicit `Shed` frame with a suggested backoff —
//! the client sees *why* it was rejected and when to retry, instead of an
//! unbounded queue silently eating its latency budget.
//!
//! [`Telemetry::metric`]: dbtouch_obs::Telemetry::metric
//! [`metrics_snapshot`]: dbtouch_server::ExplorationServer::metrics_snapshot

use dbtouch_obs::MetricValue;
use dbtouch_server::{ServerMetricsSnapshot, ShedConfig};
use std::fmt;

/// Why a request or connection was shed, decided where the signal is read.
/// The `Shed` frame's text ([`fmt::Display`]) derives from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShedReason {
    /// `max_live_sessions` reached (gates new sessions only).
    LiveSessions { live: u64, max: u64 },
    /// `remote_exec.backlog` at or above `max_remote_backlog`.
    RemoteBacklog { backlog: u64, max: u64 },
    /// `server.touch_nanos` p99 above `max_touch_p99_nanos`.
    TouchP99 { p99_nanos: u64, max_nanos: u64 },
    /// `max_connections` live connections at accept time.
    ConnectionLimit,
    /// The accepted-but-undispatched connection queue is full.
    AcceptBacklogFull,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::LiveSessions { live, max } => {
                write!(f, "{live} live sessions at or above limit {max}")
            }
            ShedReason::RemoteBacklog { backlog, max } => {
                write!(
                    f,
                    "remote executor backlog {backlog} at or above limit {max}"
                )
            }
            ShedReason::TouchP99 {
                p99_nanos,
                max_nanos,
            } => write!(f, "per-touch p99 {p99_nanos}ns above limit {max_nanos}ns"),
            ShedReason::ConnectionLimit => write!(f, "connection limit reached"),
            ShedReason::AcceptBacklogFull => write!(f, "accept backlog full"),
        }
    }
}

/// The admission decision for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Serve the request.
    Admit,
    /// Reject the request up front.
    Shed {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
        /// The signal that tripped.
        reason: ShedReason,
    },
}

impl Verdict {
    /// True when the request was admitted.
    pub fn is_admit(&self) -> bool {
        matches!(self, Verdict::Admit)
    }
}

/// Stateless evaluator of [`ShedConfig`] thresholds against signals read by
/// their `"{source}.{metric}"` key.
#[derive(Debug, Clone)]
pub struct Admission {
    shed: ShedConfig,
}

fn scalar(value: Option<MetricValue>) -> u64 {
    match value {
        Some(MetricValue::Counter(n) | MetricValue::Gauge(n)) => n,
        _ => 0,
    }
}

impl Admission {
    pub fn new(shed: ShedConfig) -> Admission {
        Admission { shed }
    }

    fn shed_with(&self, reason: ShedReason) -> Verdict {
        Verdict::Shed {
            retry_after_ms: self.shed.retry_after_ms,
            reason,
        }
    }

    /// Decide whether a trace submission may proceed: the pressure checks
    /// shared by every request kind — remote-executor backlog and the
    /// server-wide per-touch p99 — each read through `lookup` only when its
    /// threshold is configured.
    pub(crate) fn admit_trace_with(&self, lookup: impl Fn(&str) -> Option<MetricValue>) -> Verdict {
        if let Some(max) = self.shed.max_remote_backlog {
            let backlog = scalar(lookup("remote_exec.backlog"));
            if backlog >= max {
                return self.shed_with(ShedReason::RemoteBacklog { backlog, max });
            }
        }
        if let Some(max_nanos) = self.shed.max_touch_p99_nanos {
            if let Some(MetricValue::Histogram(hist)) = lookup("server.touch_nanos") {
                if hist.count() > 0 {
                    let p99_nanos = hist.quantile(99.0);
                    if p99_nanos > max_nanos {
                        return self.shed_with(ShedReason::TouchP99 {
                            p99_nanos,
                            max_nanos,
                        });
                    }
                }
            }
        }
        Verdict::Admit
    }

    /// Decide whether a new session may open: the live-session cap, then the
    /// pressure checks of [`Admission::admit_trace_with`].
    pub(crate) fn admit_open_with(&self, lookup: impl Fn(&str) -> Option<MetricValue>) -> Verdict {
        if let Some(max) = self.shed.max_live_sessions {
            let opened = scalar(lookup("server.sessions_opened"));
            let closed = scalar(lookup("server.sessions_closed"));
            let live = opened.saturating_sub(closed);
            if live >= max {
                return self.shed_with(ShedReason::LiveSessions { live, max });
            }
        }
        self.admit_trace_with(lookup)
    }

    /// The session-open decision (live-session cap, then the pressure
    /// checks) over a scrape already in hand.
    pub fn admit_open(&self, snapshot: &ServerMetricsSnapshot) -> Verdict {
        self.admit_open_with(|key| snapshot.inner.get(key).cloned())
    }

    /// The trace-submission decision (the pressure checks) over a scrape
    /// already in hand.
    pub fn admit_trace(&self, snapshot: &ServerMetricsSnapshot) -> Verdict {
        self.admit_trace_with(|key| snapshot.inner.get(key).cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtouch_core::catalog::SharedCatalog;
    use dbtouch_core::kernel::TouchAction;
    use dbtouch_gesture::synthesizer::GestureSynthesizer;
    use dbtouch_server::{ExplorationServer, ServerConfig};
    use dbtouch_types::KernelConfig;
    use dbtouch_workload::concurrent::scenario_catalog;
    use dbtouch_workload::Scenario;
    use std::sync::Arc;

    fn server() -> ExplorationServer {
        let catalog = Arc::new(SharedCatalog::new(KernelConfig::default()));
        ExplorationServer::serve(ServerConfig::with_workers(1).with_catalog(catalog)).unwrap()
    }

    /// Both verdicts for `shed` on the server's current state, each checked
    /// to be the same whether the signals come from the hub by key (what the
    /// serving loop does) or from a scrape: `(open, trace)`.
    fn verdicts(server: &ExplorationServer, shed: ShedConfig) -> (Verdict, Verdict) {
        let admission = Admission::new(shed);
        let hub = server.catalog().telemetry();
        let snap = server.metrics_snapshot();
        let open = admission.admit_open_with(|key| hub.metric(key));
        let trace = admission.admit_trace_with(|key| hub.metric(key));
        assert_eq!(open, admission.admit_open(&snap));
        assert_eq!(trace, admission.admit_trace(&snap));
        (open, trace)
    }

    #[test]
    fn unlimited_config_admits_everything_and_reads_nothing() {
        let server = server();
        let (open, trace) = verdicts(&server, ShedConfig::default());
        assert!(open.is_admit() && trace.is_admit());
        let admission = Admission::new(ShedConfig::default());
        let unread = |key: &str| -> Option<MetricValue> { panic!("read {key}") };
        assert!(admission.admit_open_with(unread).is_admit());
        assert!(admission.admit_trace_with(unread).is_admit());
        server.shutdown();
    }

    #[test]
    fn live_session_cap_sheds_opens_but_not_traces() {
        let server = server();
        let shed = ShedConfig {
            max_live_sessions: Some(1),
            retry_after_ms: 42,
            ..ShedConfig::default()
        };
        let (open, _) = verdicts(&server, shed.clone());
        assert!(open.is_admit());
        let session = server.open_session();
        let (open, trace) = verdicts(&server, shed.clone());
        assert_eq!(
            open,
            Verdict::Shed {
                retry_after_ms: 42,
                reason: ShedReason::LiveSessions { live: 1, max: 1 },
            }
        );
        // The cap gates new sessions only; existing traffic still flows.
        assert!(trace.is_admit());
        session.close().unwrap();
        // With the session closed, opens are admitted again.
        let (open, _) = verdicts(&server, shed);
        assert!(open.is_admit());
        server.shutdown();
    }

    #[test]
    fn backlog_limit_sheds_all_traffic_as_overload() {
        let server = server();
        let limit = |max| ShedConfig {
            max_remote_backlog: Some(max),
            ..ShedConfig::default()
        };
        let (open, trace) = verdicts(&server, limit(0));
        assert_eq!(open, trace);
        match trace {
            Verdict::Shed { reason, .. } => {
                assert_eq!(reason, ShedReason::RemoteBacklog { backlog: 0, max: 0 });
                // A remote-executor backlog is overload pressure, not a
                // connection limit.
                assert_eq!(
                    reason.to_string(),
                    "remote executor backlog 0 at or above limit 0"
                );
            }
            Verdict::Admit => panic!("expected shed at a zero backlog limit"),
        }
        let (open, trace) = verdicts(&server, limit(1));
        assert!(open.is_admit() && trace.is_admit());
        server.shutdown();
    }

    #[test]
    fn touch_p99_limit_sheds_once_latencies_are_recorded() {
        let scenario = Scenario::sky_survey(2_000, 17);
        let (catalog, object) = scenario_catalog(&scenario, KernelConfig::default()).unwrap();
        let view = catalog.data(object).unwrap().base_view().clone();
        let server =
            ExplorationServer::serve(ServerConfig::with_workers(1).with_catalog(catalog)).unwrap();
        let limit = |max| ShedConfig {
            max_touch_p99_nanos: Some(max),
            ..ShedConfig::default()
        };
        // No latencies yet: nothing to judge.
        let (open, trace) = verdicts(&server, limit(0));
        assert!(open.is_admit() && trace.is_admit());

        let session = server.open_session();
        session.set_action(object, TouchAction::Scan).unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 0.2);
        session.run_trace(object, trace).unwrap();
        session.snapshot().unwrap(); // barrier: the trace ran and was recorded

        let (open, trace) = verdicts(&server, limit(0));
        assert_eq!(open, trace);
        match trace {
            Verdict::Shed { reason, .. } => {
                assert!(matches!(reason, ShedReason::TouchP99 { max_nanos: 0, .. }));
                assert!(reason.to_string().starts_with("per-touch p99 "));
            }
            Verdict::Admit => panic!("expected shed above an impossible p99"),
        }
        let (open, trace) = verdicts(&server, limit(u64::MAX));
        assert!(open.is_admit() && trace.is_admit());
        session.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn accept_time_sheds_are_connection_limits() {
        assert_eq!(
            ShedReason::ConnectionLimit.to_string(),
            "connection limit reached"
        );
        assert_eq!(
            ShedReason::AcceptBacklogFull.to_string(),
            "accept backlog full"
        );
    }
}
