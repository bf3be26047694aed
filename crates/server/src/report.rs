//! Session reports: what a served exploration session produced.

use crate::latency::LatencySummary;
use dbtouch_core::kernel::ObjectId;
use dbtouch_core::remote::RemoteStats;
use dbtouch_core::session::SessionOutcome;
use dbtouch_obs::HistogramSnapshot;

/// Identifier of a served session.
pub type SessionId = u64;

/// The outcome of one gesture trace run inside a served session.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOutcome {
    /// The object the trace explored.
    pub object: ObjectId,
    /// The per-touch results and statistics the session produced.
    pub outcome: SessionOutcome,
}

dbtouch_types::wire_struct!(TraceOutcome {
    object: ObjectId,
    outcome: SessionOutcome,
});

/// Everything a session produced: trace outcomes in submission order, a
/// per-touch latency histogram, the catalog epochs the session observed, and
/// any per-event errors (a bad trace or unknown object records an error
/// instead of killing the session).
#[derive(Debug, Clone, Default)]
pub struct SessionReport {
    /// The session this report describes.
    pub session_id: SessionId,
    /// One entry per completed `run_trace`, in submission order.
    pub outcomes: Vec<TraceOutcome>,
    /// Log-scale histogram of per-trace mean per-touch nanoseconds, one
    /// recorded value per completed trace. Fixed memory, so a long-lived
    /// session's report does not grow with every trace; percentiles read
    /// from it are upper bounds within 2x (log2 buckets).
    pub latency_hist: HistogramSnapshot,
    /// Worst single-touch processing time observed in any trace,
    /// nanoseconds (the paper's "maximum possible wait time for a single
    /// touch"). Tracked exactly alongside the histogram.
    pub max_touch_nanos: u64,
    /// The catalog epoch each completed trace ran against, parallel to
    /// `outcomes`. A trace observes the newest epoch at its gesture boundary
    /// and keeps it for the whole trace, so within a session this sequence is
    /// non-decreasing. Excluded from [`result_digest`](Self::result_digest):
    /// epochs depend on restructure timing, results must not.
    pub epochs: Vec<u64>,
    /// How many times a gesture-boundary refresh observed a restructure of an
    /// object this session explores (its state was rebuilt against new data).
    pub restructures_seen: u64,
    /// Real (wall-clock) latency of each remote refinement applied to this
    /// session, submit → applied, in nanoseconds and application order.
    /// Excluded from [`result_digest`](Self::result_digest): latencies vary
    /// run to run, results must not.
    pub refinement_latencies: Vec<u64>,
    /// Wall-clock nanoseconds the worker stalled at this session's drain
    /// barriers (snapshot/close) waiting for in-flight refinements. The
    /// smaller this is relative to the simulated remote wait, the better the
    /// overlap — see [`remote_overlap_ratio`](Self::remote_overlap_ratio).
    pub refinement_blocked_nanos: u64,
    /// Errors encountered while processing events, in order.
    pub errors: Vec<String>,
}

dbtouch_types::wire_struct!(SessionReport {
    session_id: u64,
    outcomes: Vec<TraceOutcome>,
    latency_hist: HistogramSnapshot,
    max_touch_nanos: u64,
    epochs: Vec<u64>,
    restructures_seen: u64,
    refinement_latencies: Vec<u64>,
    refinement_blocked_nanos: u64,
    errors: Vec<String>,
});

impl SessionReport {
    /// Number of traces that completed.
    pub fn traces_run(&self) -> usize {
        self.outcomes.len()
    }

    /// The newest catalog epoch this session observed (0 before any trace).
    pub fn last_epoch(&self) -> u64 {
        self.epochs.last().copied().unwrap_or(0)
    }

    /// Total touch samples consumed across all traces.
    pub fn total_touches(&self) -> u64 {
        self.outcomes.iter().map(|t| t.outcome.stats.touches).sum()
    }

    /// Total result entries returned across all traces.
    pub fn total_entries(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|t| t.outcome.stats.entries_returned)
            .sum()
    }

    /// Total rows read from storage across all traces.
    pub fn total_rows_touched(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|t| t.outcome.stats.rows_touched)
            .sum()
    }

    /// Summary windows this session answered from the shared cross-session
    /// result cache.
    pub fn total_shared_cache_hits(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|t| t.outcome.stats.shared_cache_hits)
            .sum()
    }

    /// Summary windows this session had to compute from storage.
    pub fn total_shared_cache_misses(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|t| t.outcome.stats.shared_cache_misses)
            .sum()
    }

    /// Window aggregates this session inserted into the shared cache.
    pub fn total_shared_cache_inserts(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|t| t.outcome.stats.shared_cache_inserts)
            .sum()
    }

    /// Shared-cache hit rate of this session in `[0, 1]` (0 when the session
    /// never consulted it).
    pub fn shared_cache_hit_rate(&self) -> f64 {
        let hits = self.total_shared_cache_hits();
        let total = hits + self.total_shared_cache_misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Per-touch latency summary of this session, read from its histogram
    /// (percentiles within 2x; the max is exact).
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary::from_histogram(&self.latency_hist, self.max_touch_nanos)
    }

    /// Latency summary across several sessions' reports, merged from their
    /// fixed-memory histograms (no per-sample copying).
    pub fn merged_latency_summary<'a>(
        reports: impl IntoIterator<Item = &'a SessionReport>,
    ) -> LatencySummary {
        let mut hist = HistogramSnapshot::default();
        let mut worst = 0u64;
        for report in reports {
            hist.merge(&report.latency_hist);
            worst = worst.max(report.max_touch_nanos);
        }
        LatencySummary::from_histogram(&hist, worst)
    }

    /// Device/cloud traffic accumulated across all traces (saturating).
    pub fn total_remote(&self) -> RemoteStats {
        let mut total = RemoteStats::default();
        for t in &self.outcomes {
            total.absorb(&t.outcome.stats.remote);
        }
        total
    }

    /// Refinements applied to this session's outcomes.
    pub fn total_refinements_applied(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|t| t.outcome.stats.remote_refinements_applied)
            .sum()
    }

    /// Refinements dropped because their object was rebuilt first.
    pub fn total_refinements_dropped(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|t| t.outcome.stats.remote_refinements_dropped)
            .sum()
    }

    /// Refinements still in flight (0 after a close or snapshot barrier).
    pub fn pending_refinements(&self) -> usize {
        self.outcomes.iter().map(|t| t.outcome.pending.len()).sum()
    }

    /// Mean real refinement latency in nanoseconds (0 when none landed).
    pub fn mean_refinement_latency_nanos(&self) -> u64 {
        let n = self.refinement_latencies.len() as u64;
        self.refinement_latencies
            .iter()
            .sum::<u64>()
            .checked_div(n)
            .unwrap_or(0)
    }

    /// How much of the simulated remote wait was hidden behind useful work,
    /// in `[0, 1]`: `1 -` (time actually stalled at drain barriers) `/`
    /// (total simulated remote wait). A session with no remote traffic
    /// reports 1.0 (nothing to hide).
    pub fn remote_overlap_ratio(&self) -> f64 {
        let waited = self.total_remote().remote_wait_micros;
        if waited == 0 {
            return 1.0;
        }
        let blocked = self.refinement_blocked_nanos / 1_000;
        (1.0 - blocked as f64 / waited as f64).clamp(0.0, 1.0)
    }

    /// Order-sensitive digest of the *deterministic* part of the outcomes
    /// (results, rows, aggregates — not wall-clock timings). Two runs of the
    /// same traces against the same catalog produce the same digest, whether
    /// they ran sequentially in a [`dbtouch_core::kernel::Kernel`] or
    /// concurrently through the server.
    pub fn result_digest(&self) -> u64 {
        digest_outcomes(self.outcomes.iter())
    }
}

/// FNV-1a digest over the deterministic fields of trace outcomes. Wall-clock
/// statistics (`compute_nanos`, `max_touch_nanos`) are excluded: they vary
/// run to run; everything the user *sees* is included.
pub fn digest_outcomes<'a>(outcomes: impl Iterator<Item = &'a TraceOutcome>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for t in outcomes {
        mix(&t.object.0.to_le_bytes());
        let s = &t.outcome.stats;
        for v in [
            s.touches,
            s.gesture_events,
            s.entries_returned,
            s.rows_touched,
            s.bytes_touched,
            s.duplicate_touches,
            s.index_skips,
        ] {
            mix(&v.to_le_bytes());
        }
        for r in t.outcome.results.results() {
            mix(&r.row.0.to_le_bytes());
            mix(format!("{:?}", r.values).as_bytes());
        }
        if let Some(a) = t.outcome.final_aggregate {
            mix(&a.to_bits().to_le_bytes());
        }
        for (group, value) in &t.outcome.final_groups {
            mix(format!("{group:?}").as_bytes());
            mix(&value.to_bits().to_le_bytes());
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtouch_core::result::{ResultKind, ResultStream, TouchResult};
    use dbtouch_types::wire::{decode, encode, Wire};
    use dbtouch_types::{RowId, Timestamp, Value};

    #[test]
    fn empty_report_encodes_to_min_bytes() {
        let report = SessionReport::default();
        assert_eq!(encode(&report).len(), SessionReport::MIN_BYTES);
    }

    /// A report whose last result is a tuple of small values: each `Bool`
    /// takes 2 bytes and each empty `Str` 5, fewer than the 9 a
    /// hand-counted guard once assumed for every value.
    #[test]
    fn reports_of_small_values_roundtrip() {
        for value in [Value::Bool(true), Value::Str(String::new())] {
            let mut results = ResultStream::default();
            results.push(TouchResult {
                row: RowId(1),
                position_fraction: 0.5,
                values: vec![value; 60],
                produced_at: Timestamp(3),
                kind: ResultKind::Tuple,
            });
            let report = SessionReport {
                session_id: 1,
                outcomes: vec![TraceOutcome {
                    object: ObjectId(2),
                    outcome: SessionOutcome {
                        results,
                        ..SessionOutcome::default()
                    },
                }],
                ..SessionReport::default()
            };
            let back: SessionReport = decode(&encode(&report)).unwrap();
            assert_eq!(back.outcomes, report.outcomes);
        }
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let a = TraceOutcome {
            object: ObjectId(0),
            outcome: SessionOutcome::default(),
        };
        let mut b = TraceOutcome {
            object: ObjectId(1),
            outcome: SessionOutcome::default(),
        };
        b.outcome.stats.entries_returned = 3;
        let d1 = digest_outcomes([a.clone(), b.clone()].iter());
        let d2 = digest_outcomes([a.clone(), b.clone()].iter());
        let d3 = digest_outcomes([b, a].iter());
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);
    }

    #[test]
    fn report_totals_sum_over_outcomes() {
        let mut report = SessionReport::default();
        for entries in [2u64, 5] {
            let mut outcome = SessionOutcome::default();
            outcome.stats.entries_returned = entries;
            outcome.stats.touches = entries * 10;
            outcome.stats.rows_touched = entries * 3;
            outcome.stats.shared_cache_hits = entries;
            outcome.stats.shared_cache_misses = 1;
            outcome.stats.shared_cache_inserts = 1;
            report.outcomes.push(TraceOutcome {
                object: ObjectId(0),
                outcome,
            });
        }
        assert_eq!(report.traces_run(), 2);
        assert_eq!(report.total_entries(), 7);
        assert_eq!(report.total_touches(), 70);
        assert_eq!(report.total_rows_touched(), 21);
        assert_eq!(report.total_shared_cache_hits(), 7);
        assert_eq!(report.total_shared_cache_misses(), 2);
        assert_eq!(report.total_shared_cache_inserts(), 2);
        assert!((report.shared_cache_hit_rate() - 7.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_has_zero_hit_rate() {
        let report = SessionReport::default();
        assert_eq!(report.shared_cache_hit_rate(), 0.0);
        assert_eq!(report.total_shared_cache_hits(), 0);
        assert_eq!(report.last_epoch(), 0);
        assert_eq!(report.restructures_seen, 0);
    }

    #[test]
    fn epochs_do_not_perturb_the_digest() {
        let outcome = TraceOutcome {
            object: ObjectId(0),
            outcome: SessionOutcome::default(),
        };
        let mut a = SessionReport::default();
        a.outcomes.push(outcome.clone());
        a.epochs.push(3);
        let mut b = SessionReport::default();
        b.outcomes.push(outcome);
        b.epochs.push(9);
        b.restructures_seen = 2;
        assert_eq!(a.result_digest(), b.result_digest());
        assert_eq!(a.last_epoch(), 3);
        assert_eq!(b.last_epoch(), 9);
    }
}
