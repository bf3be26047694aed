//! Bounded ring buffer of gesture-lifecycle trace events.
//!
//! Counters say *how often*; the event trace says *why this touch was slow*:
//! it records the lifecycle touch received → shared-cache hit/miss → page
//! fault → remote submit → refinement landed/dropped → epoch refresh, each
//! stamped with the session and per-gesture trace id from
//! [`crate::ctx`]. Memory is fixed: the ring keeps the most recent ~capacity
//! events and silently drops the oldest.
//!
//! The ring is striped across [`STRIPES`] small mutex-guarded deques keyed by
//! the writer's thread stripe, so concurrent workers almost never contend on
//! the same lock; ordering across stripes is reconstructed on scrape from a
//! global sequence number. (The wait-free claim in the crate docs applies to
//! counters/gauges/histograms; event recording takes one uncontended mutex —
//! still nanoseconds, and hot event kinds are additionally sampled by the
//! [`crate::Telemetry`] hub.)

use crate::stripe::{stripe, STRIPES};
use dbtouch_types::json::{object, Json};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What happened. Ordered roughly by lifecycle position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A gesture trace started executing on a worker (`detail` = touch count).
    TraceStarted,
    /// One touch was processed (`detail` = its latency in nanos). Hot; sampled.
    TouchReceived,
    /// Summary answered from the shared result cache (`detail` = 0). Hot; sampled.
    SharedCacheHit,
    /// Summary missed the shared result cache (`detail` = 0). Hot; sampled.
    SharedCacheMiss,
    /// A column segment was scanned (or index-answered) by the morsel pool
    /// (`detail` = segment row count). Hot; sampled.
    SegmentScanned,
    /// The buffer pool faulted a page in from disk (`detail` = page index).
    PageFault,
    /// A summary was submitted for remote refinement (`detail` = ticket).
    RemoteSubmitted,
    /// A remote refinement landed and was applied (`detail` = ticket).
    RefinementLanded,
    /// A remote refinement arrived stale and was dropped (`detail` = ticket).
    RefinementDropped,
    /// A session refreshed its state onto a newer catalog epoch (`detail` = epoch).
    EpochRefresh,
    /// A mutator published a new catalog epoch (`detail` = epoch).
    EpochPublished,
    /// A gesture trace finished (`detail` = total nanos).
    TraceFinished,
    /// Admission control rejected work (`detail` = shed-reason code, set
    /// from the typed reason at the decision: 0 = overloaded, 2 = connection
    /// limit; 1 = draining is reserved — drains answer `GoAway`). Stamped
    /// with the rejected request's trace context when the client sent one,
    /// so client-side `Overloaded` errors correlate with server state.
    Shed,
}

impl TraceEventKind {
    /// Stable identifier used in text/JSON exposition.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::TraceStarted => "trace_started",
            TraceEventKind::TouchReceived => "touch_received",
            TraceEventKind::SharedCacheHit => "shared_cache_hit",
            TraceEventKind::SharedCacheMiss => "shared_cache_miss",
            TraceEventKind::SegmentScanned => "segment_scanned",
            TraceEventKind::PageFault => "page_fault",
            TraceEventKind::RemoteSubmitted => "remote_submitted",
            TraceEventKind::RefinementLanded => "refinement_landed",
            TraceEventKind::RefinementDropped => "refinement_dropped",
            TraceEventKind::EpochRefresh => "epoch_refresh",
            TraceEventKind::EpochPublished => "epoch_published",
            TraceEventKind::TraceFinished => "trace_finished",
            TraceEventKind::Shed => "shed",
        }
    }

    /// Hot-path kinds fire per touch and are sampled 1-in-N by the hub; the
    /// rest are rare lifecycle transitions and always recorded.
    pub fn is_hot(self) -> bool {
        matches!(
            self,
            TraceEventKind::TouchReceived
                | TraceEventKind::SharedCacheHit
                | TraceEventKind::SharedCacheMiss
                | TraceEventKind::SegmentScanned
        )
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (total order across stripes).
    pub seq: u64,
    /// Nanoseconds since the telemetry hub started.
    pub at_nanos: u64,
    /// Owning session, when the emitting thread had a trace context.
    pub session: Option<u64>,
    /// Per-gesture trace id, when the emitting thread had a trace context.
    pub trace: Option<u64>,
    /// What happened.
    pub kind: TraceEventKind,
    /// Kind-specific payload (latency, page index, ticket, epoch).
    pub detail: u64,
}

impl TraceEvent {
    /// JSON exposition of one event.
    pub fn to_json(&self) -> Json {
        let num = |n: u64| Json::Number(n as f64);
        object([
            ("seq", num(self.seq)),
            ("at_nanos", num(self.at_nanos)),
            (
                "session",
                self.session.map_or(Json::Null, |s| Json::Number(s as f64)),
            ),
            (
                "trace",
                self.trace.map_or(Json::Null, |t| Json::Number(t as f64)),
            ),
            ("kind", Json::String(self.kind.name().to_string())),
            ("detail", num(self.detail)),
        ])
    }
}

/// Fixed-capacity, striped event ring. Keeps roughly the newest `capacity`
/// events (the bound is enforced per stripe, so a thread-skewed workload may
/// retain slightly fewer).
pub struct EventRing {
    shards: [Mutex<VecDeque<TraceEvent>>; STRIPES],
    per_shard: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl EventRing {
    /// A ring retaining about `capacity` events; `capacity == 0` disables
    /// retention (events are counted but not stored).
    pub fn new(capacity: usize) -> Self {
        EventRing {
            shards: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
            per_shard: capacity.div_ceil(STRIPES),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append an event (its `seq` field is assigned here). Takes one
    /// uncontended mutex on the caller's stripe.
    pub fn push(&self, mut event: TraceEvent) {
        event.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if self.per_shard == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut shard = self.shards[stripe()].lock().unwrap();
        if shard.len() == self.per_shard {
            shard.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shard.push_back(event);
    }

    /// Total events ever pushed (including ones since evicted).
    pub fn pushed(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events discarded because the ring was full (oldest evicted) or
    /// retention is disabled. A growing value on scrape means the ring is
    /// saturated: its capacity is too small for the scrape interval.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The retained events, oldest first (merged across stripes by sequence
    /// number).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().unwrap().iter().copied());
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("pushed", &self.pushed())
            .field("retained", &self.snapshot().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceEventKind, detail: u64) -> TraceEvent {
        TraceEvent {
            seq: 0,
            at_nanos: 0,
            session: Some(1),
            trace: Some(1),
            kind,
            detail,
        }
    }

    #[test]
    fn ring_keeps_newest_and_orders_by_seq() {
        let ring = EventRing::new(STRIPES * 4);
        for i in 0..200 {
            ring.push(ev(TraceEventKind::TouchReceived, i));
        }
        let events = ring.snapshot();
        // Single-threaded push: one stripe, so exactly per_shard retained.
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(events.last().unwrap().detail, 199);
        assert_eq!(ring.pushed(), 200);
        assert_eq!(ring.dropped(), 196);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let ring = EventRing::new(0);
        ring.push(ev(TraceEventKind::PageFault, 9));
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.pushed(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn concurrent_pushes_get_unique_seqs() {
        // per-shard capacity 512 >= 500 pushes per thread, so nothing evicts.
        let ring = std::sync::Arc::new(EventRing::new(8192));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        ring.push(ev(TraceEventKind::SharedCacheHit, i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 2000);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 2000);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(TraceEventKind::PageFault.name(), "page_fault");
        assert_eq!(TraceEventKind::SegmentScanned.name(), "segment_scanned");
        assert_eq!(TraceEventKind::Shed.name(), "shed");
        assert!(TraceEventKind::TouchReceived.is_hot());
        assert!(TraceEventKind::SegmentScanned.is_hot());
        assert!(!TraceEventKind::EpochPublished.is_hot());
        assert!(!TraceEventKind::Shed.is_hot());
    }
}
