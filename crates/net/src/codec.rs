//! Binary wire codec: fixed little-endian encodings for every value that
//! crosses the network boundary.
//!
//! The encodings are exact, not approximate: floats travel as their IEEE 754
//! bit patterns, so a [`SessionReport`] decoded from the wire digests
//! ([`SessionReport::result_digest`]) bit-identically to the in-process
//! report it was encoded from. That identity is what makes networked replay
//! verifiable against a sequential kernel replay.
//!
//! The decoder is *total*: any byte sequence either decodes or returns a
//! [`DbTouchError::ParseError`] — never a panic, never an abort. Three
//! defences do all the work:
//!
//! * every read checks the remaining length first;
//! * every length-prefixed sequence is validated against the bytes actually
//!   remaining before any allocation (a forged `u32::MAX` count cannot force
//!   a multi-gigabyte allocation);
//! * recursive structures ([`Predicate`]) carry an explicit depth limit.
//!
//! JSON appears on the wire in exactly two places — the version handshake
//! and the metrics debug dump — both as opaque text payloads; every data
//! structure uses this codec.

use dbtouch_core::kernel::{ObjectId, TouchAction};
use dbtouch_core::operators::aggregate::AggregateKind;
use dbtouch_core::operators::filter::{CompareOp, Predicate};
use dbtouch_core::remote::RemoteStats;
use dbtouch_core::remote_exec::{Contribution, PendingRefinement, RefinementLedger};
use dbtouch_core::result::{FadePolicy, ResultKind, ResultStream, TouchResult};
use dbtouch_core::session::{SessionOutcome, SessionStats};
use dbtouch_gesture::touch::{TouchEvent, TouchPhase};
use dbtouch_gesture::trace::GestureTrace;
use dbtouch_obs::{HistogramSnapshot, WireTraceContext, BUCKETS};
use dbtouch_server::{SessionReport, TraceOutcome};
use dbtouch_types::{DbTouchError, PointCm, Result, RowId, Timestamp, Value};

use crate::frame::tag;

/// Maximum nesting depth of an encoded [`Predicate`] tree.
const MAX_PREDICATE_DEPTH: usize = 64;

fn bad(msg: impl Into<String>) -> DbTouchError {
    DbTouchError::ParseError(msg.into())
}

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// A writer whose first byte is the frame type tag.
    pub fn with_tag(t: u8) -> WireWriter {
        WireWriter { buf: vec![t] }
    }

    /// The finished payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Exact bit pattern — `decode(encode(x))` is bit-identical, NaNs and
    /// signed zeros included.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn boolean(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Length-prefixed count of a following sequence.
    pub fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Raw bytes, no length prefix (the frame length already bounds them).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Optional value: presence flag, then the value.
    pub fn opt<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut WireWriter, &T)) {
        match v {
            Some(inner) => {
                self.u8(1);
                f(self, inner);
            }
            None => self.u8(0),
        }
    }
}

/// Bounds-checked little-endian byte reader.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless every byte was consumed — catches frames with trailing
    /// garbage that a lenient decoder would silently accept.
    pub fn finish(self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(bad(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(bad(format!(
                "truncated payload: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn boolean(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(bad(format!("invalid bool byte {other}"))),
        }
    }

    /// Sequence count, validated against the bytes actually remaining: each
    /// element needs at least `min_elem_bytes`, so a forged count cannot
    /// force an oversized allocation.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(bad(format!(
                "sequence of {n} elements does not fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    pub fn str(&mut self) -> Result<String> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("invalid UTF-8 in string"))
    }

    pub fn opt<T>(
        &mut self,
        mut f: impl FnMut(&mut WireReader<'a>) -> Result<T>,
    ) -> Result<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            other => Err(bad(format!("invalid option byte {other}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Gesture types
// ---------------------------------------------------------------------------

fn write_event(w: &mut WireWriter, e: &TouchEvent) {
    w.f64(e.location.x);
    w.f64(e.location.y);
    w.u64(e.timestamp.0);
    w.u8(match e.phase {
        TouchPhase::Began => 0,
        TouchPhase::Moved => 1,
        TouchPhase::Stationary => 2,
        TouchPhase::Ended => 3,
    });
    w.u8(e.finger);
}

fn read_event(r: &mut WireReader<'_>) -> Result<TouchEvent> {
    let x = r.f64()?;
    let y = r.f64()?;
    let timestamp = Timestamp(r.u64()?);
    let phase = match r.u8()? {
        0 => TouchPhase::Began,
        1 => TouchPhase::Moved,
        2 => TouchPhase::Stationary,
        3 => TouchPhase::Ended,
        other => return Err(bad(format!("invalid touch phase {other}"))),
    };
    let finger = r.u8()?;
    Ok(TouchEvent {
        location: PointCm { x, y },
        timestamp,
        phase,
        finger,
    })
}

/// 8+8+8+1+1 bytes per event.
const MIN_EVENT_BYTES: usize = 26;

pub(crate) fn write_trace(w: &mut WireWriter, trace: &GestureTrace) {
    w.str(&trace.target);
    w.len(trace.events.len());
    for e in &trace.events {
        write_event(w, e);
    }
}

pub(crate) fn read_trace(r: &mut WireReader<'_>) -> Result<GestureTrace> {
    let target = r.str()?;
    let n = r.len(MIN_EVENT_BYTES)?;
    let mut trace = GestureTrace::new(target);
    for _ in 0..n {
        trace.push(read_event(r)?);
    }
    Ok(trace)
}

// ---------------------------------------------------------------------------
// Actions, predicates, values
// ---------------------------------------------------------------------------

fn write_kind(w: &mut WireWriter, k: AggregateKind) {
    w.u8(match k {
        AggregateKind::Count => 0,
        AggregateKind::Sum => 1,
        AggregateKind::Avg => 2,
        AggregateKind::Min => 3,
        AggregateKind::Max => 4,
    });
}

fn read_kind(r: &mut WireReader<'_>) -> Result<AggregateKind> {
    Ok(match r.u8()? {
        0 => AggregateKind::Count,
        1 => AggregateKind::Sum,
        2 => AggregateKind::Avg,
        3 => AggregateKind::Min,
        4 => AggregateKind::Max,
        other => return Err(bad(format!("invalid aggregate kind {other}"))),
    })
}

fn write_value(w: &mut WireWriter, v: &Value) {
    match v {
        Value::Int(i) => {
            w.u8(0);
            w.i64(*i);
        }
        Value::Float(f) => {
            w.u8(1);
            w.f64(*f);
        }
        Value::Bool(b) => {
            w.u8(2);
            w.boolean(*b);
        }
        Value::Str(s) => {
            w.u8(3);
            w.str(s);
        }
        Value::Timestamp(t) => {
            w.u8(4);
            w.i64(*t);
        }
    }
}

fn read_value(r: &mut WireReader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Int(r.i64()?),
        1 => Value::Float(r.f64()?),
        2 => Value::Bool(r.boolean()?),
        3 => Value::Str(r.str()?),
        4 => Value::Timestamp(r.i64()?),
        other => return Err(bad(format!("invalid value tag {other}"))),
    })
}

fn write_predicate(w: &mut WireWriter, p: &Predicate) {
    match p {
        Predicate::Compare { op, value } => {
            w.u8(0);
            w.u8(match op {
                CompareOp::Eq => 0,
                CompareOp::Ne => 1,
                CompareOp::Lt => 2,
                CompareOp::Le => 3,
                CompareOp::Gt => 4,
                CompareOp::Ge => 5,
            });
            write_value(w, value);
        }
        Predicate::Between { low, high } => {
            w.u8(1);
            write_value(w, low);
            write_value(w, high);
        }
        Predicate::And(ps) => {
            w.u8(2);
            w.len(ps.len());
            for p in ps {
                write_predicate(w, p);
            }
        }
        Predicate::Or(ps) => {
            w.u8(3);
            w.len(ps.len());
            for p in ps {
                write_predicate(w, p);
            }
        }
        Predicate::Not(p) => {
            w.u8(4);
            write_predicate(w, p);
        }
    }
}

fn read_predicate(r: &mut WireReader<'_>, depth: usize) -> Result<Predicate> {
    if depth > MAX_PREDICATE_DEPTH {
        return Err(bad("predicate nesting exceeds maximum depth"));
    }
    Ok(match r.u8()? {
        0 => {
            let op = match r.u8()? {
                0 => CompareOp::Eq,
                1 => CompareOp::Ne,
                2 => CompareOp::Lt,
                3 => CompareOp::Le,
                4 => CompareOp::Gt,
                5 => CompareOp::Ge,
                other => return Err(bad(format!("invalid compare op {other}"))),
            };
            Predicate::Compare {
                op,
                value: read_value(r)?,
            }
        }
        1 => Predicate::Between {
            low: read_value(r)?,
            high: read_value(r)?,
        },
        2 => {
            let n = r.len(2)?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(read_predicate(r, depth + 1)?);
            }
            Predicate::And(ps)
        }
        3 => {
            let n = r.len(2)?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(read_predicate(r, depth + 1)?);
            }
            Predicate::Or(ps)
        }
        4 => Predicate::Not(Box::new(read_predicate(r, depth + 1)?)),
        other => return Err(bad(format!("invalid predicate tag {other}"))),
    })
}

pub(crate) fn write_action(w: &mut WireWriter, a: &TouchAction) {
    match a {
        TouchAction::Scan => w.u8(0),
        TouchAction::Aggregate(k) => {
            w.u8(1);
            write_kind(w, *k);
        }
        TouchAction::Summary { half_window, kind } => {
            w.u8(2);
            w.opt(half_window, |w, hw| w.u64(*hw));
            write_kind(w, *kind);
        }
        TouchAction::FilteredScan { predicate } => {
            w.u8(3);
            write_predicate(w, predicate);
        }
        TouchAction::FilteredAggregate { predicate, kind } => {
            w.u8(4);
            write_predicate(w, predicate);
            write_kind(w, *kind);
        }
        TouchAction::Tuple => w.u8(5),
        TouchAction::GroupBy {
            group_attribute,
            value_attribute,
            kind,
        } => {
            w.u8(6);
            w.u64(*group_attribute as u64);
            w.u64(*value_attribute as u64);
            write_kind(w, *kind);
        }
    }
}

pub(crate) fn read_action(r: &mut WireReader<'_>) -> Result<TouchAction> {
    Ok(match r.u8()? {
        0 => TouchAction::Scan,
        1 => TouchAction::Aggregate(read_kind(r)?),
        2 => TouchAction::Summary {
            half_window: r.opt(|r| r.u64())?,
            kind: read_kind(r)?,
        },
        3 => TouchAction::FilteredScan {
            predicate: read_predicate(r, 0)?,
        },
        4 => TouchAction::FilteredAggregate {
            predicate: read_predicate(r, 0)?,
            kind: read_kind(r)?,
        },
        5 => TouchAction::Tuple,
        6 => TouchAction::GroupBy {
            group_attribute: r.u64()? as usize,
            value_attribute: r.u64()? as usize,
            kind: read_kind(r)?,
        },
        other => return Err(bad(format!("invalid action tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Results, stats, outcomes
// ---------------------------------------------------------------------------

fn write_result(w: &mut WireWriter, res: &TouchResult) {
    w.u64(res.row.0);
    w.f64(res.position_fraction);
    w.len(res.values.len());
    for v in &res.values {
        write_value(w, v);
    }
    w.u64(res.produced_at.0);
    w.u8(match res.kind {
        ResultKind::Scan => 0,
        ResultKind::RunningAggregate => 1,
        ResultKind::Summary => 2,
        ResultKind::FilteredScan => 3,
        ResultKind::JoinMatch => 4,
        ResultKind::GroupResult => 5,
        ResultKind::Tuple => 6,
    });
}

fn read_result(r: &mut WireReader<'_>) -> Result<TouchResult> {
    let row = RowId(r.u64()?);
    let position_fraction = r.f64()?;
    let n = r.len(9)?; // value tag + at least 8 bytes
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(read_value(r)?);
    }
    let produced_at = Timestamp(r.u64()?);
    let kind = match r.u8()? {
        0 => ResultKind::Scan,
        1 => ResultKind::RunningAggregate,
        2 => ResultKind::Summary,
        3 => ResultKind::FilteredScan,
        4 => ResultKind::JoinMatch,
        5 => ResultKind::GroupResult,
        6 => ResultKind::Tuple,
        other => return Err(bad(format!("invalid result kind {other}"))),
    };
    Ok(TouchResult {
        row,
        position_fraction,
        values,
        produced_at,
        kind,
    })
}

fn write_stream(w: &mut WireWriter, s: &ResultStream) {
    let fade = s.fade();
    w.u64(fade.visible_ms);
    w.u64(fade.fade_ms);
    w.len(s.len());
    for res in s.results() {
        write_result(w, res);
    }
}

fn read_stream(r: &mut WireReader<'_>) -> Result<ResultStream> {
    let fade = FadePolicy {
        visible_ms: r.u64()?,
        fade_ms: r.u64()?,
    };
    // row + fraction + value count + produced_at + kind.
    let n = r.len(8 + 8 + 4 + 8 + 1)?;
    let mut stream = ResultStream::new(fade);
    for _ in 0..n {
        stream.push(read_result(r)?);
    }
    Ok(stream)
}

fn write_remote_stats(w: &mut WireWriter, s: &RemoteStats) {
    w.u64(s.local_requests);
    w.u64(s.remote_requests);
    w.u64(s.progressive_requests);
    w.u64(s.rows_shipped);
    w.u64(s.remote_wait_micros);
}

fn read_remote_stats(r: &mut WireReader<'_>) -> Result<RemoteStats> {
    Ok(RemoteStats {
        local_requests: r.u64()?,
        remote_requests: r.u64()?,
        progressive_requests: r.u64()?,
        rows_shipped: r.u64()?,
        remote_wait_micros: r.u64()?,
    })
}

fn write_stats(w: &mut WireWriter, s: &SessionStats) {
    w.u64(s.touches);
    w.u64(s.gesture_events);
    w.u64(s.entries_returned);
    w.u64(s.rows_touched);
    w.u64(s.bytes_touched);
    w.u64(s.duplicate_touches);
    w.u64(s.zooms);
    w.u64(s.rotations);
    w.u64(s.prefetches_issued);
    w.u64(s.refinements);
    w.u64(s.index_skips);
    w.u64(s.segments_scanned);
    w.u64(s.pruned_segments);
    w.u64(s.simulated_access_nanos);
    w.u64(s.compute_nanos);
    w.u64(s.max_touch_nanos);
    w.len(s.sample_level_usage.len());
    for (&level, &count) in &s.sample_level_usage {
        w.u8(level);
        w.u64(count);
    }
    w.u64(s.cache_hits);
    w.u64(s.cache_misses);
    w.u64(s.shared_cache_hits);
    w.u64(s.shared_cache_misses);
    w.u64(s.shared_cache_inserts);
    write_remote_stats(w, &s.remote);
    w.u64(s.remote_blocked_micros);
    w.u64(s.remote_refinements_applied);
    w.u64(s.remote_refinements_dropped);
}

// Field-by-field assignment keeps the read order literally aligned with
// `write_stats` above; a struct literal cannot interleave the mid-stream
// `sample_level_usage` map decode at its wire position.
#[allow(clippy::field_reassign_with_default)]
fn read_stats(r: &mut WireReader<'_>) -> Result<SessionStats> {
    let mut s = SessionStats::default();
    s.touches = r.u64()?;
    s.gesture_events = r.u64()?;
    s.entries_returned = r.u64()?;
    s.rows_touched = r.u64()?;
    s.bytes_touched = r.u64()?;
    s.duplicate_touches = r.u64()?;
    s.zooms = r.u64()?;
    s.rotations = r.u64()?;
    s.prefetches_issued = r.u64()?;
    s.refinements = r.u64()?;
    s.index_skips = r.u64()?;
    s.segments_scanned = r.u64()?;
    s.pruned_segments = r.u64()?;
    s.simulated_access_nanos = r.u64()?;
    s.compute_nanos = r.u64()?;
    s.max_touch_nanos = r.u64()?;
    let n = r.len(9)?;
    for _ in 0..n {
        let level = r.u8()?;
        let count = r.u64()?;
        s.sample_level_usage.insert(level, count);
    }
    s.cache_hits = r.u64()?;
    s.cache_misses = r.u64()?;
    s.shared_cache_hits = r.u64()?;
    s.shared_cache_misses = r.u64()?;
    s.shared_cache_inserts = r.u64()?;
    s.remote = read_remote_stats(r)?;
    s.remote_blocked_micros = r.u64()?;
    s.remote_refinements_applied = r.u64()?;
    s.remote_refinements_dropped = r.u64()?;
    Ok(s)
}

fn write_contribution(w: &mut WireWriter, c: &Contribution) {
    match c {
        Contribution::Ready {
            count,
            sum,
            min,
            max,
        } => {
            w.u8(0);
            w.u64(*count);
            w.f64(*sum);
            w.opt(min, |w, v| w.f64(*v));
            w.opt(max, |w, v| w.f64(*v));
        }
        Contribution::Pending { ticket } => {
            w.u8(1);
            w.u64(*ticket);
        }
        Contribution::Dropped { ticket } => {
            w.u8(2);
            w.u64(*ticket);
        }
    }
}

fn read_contribution(r: &mut WireReader<'_>) -> Result<Contribution> {
    Ok(match r.u8()? {
        0 => Contribution::Ready {
            count: r.u64()?,
            sum: r.f64()?,
            min: r.opt(|r| r.f64())?,
            max: r.opt(|r| r.f64())?,
        },
        1 => Contribution::Pending { ticket: r.u64()? },
        2 => Contribution::Dropped { ticket: r.u64()? },
        other => return Err(bad(format!("invalid contribution tag {other}"))),
    })
}

fn write_outcome(w: &mut WireWriter, o: &SessionOutcome) {
    write_stream(w, &o.results);
    write_stats(w, &o.stats);
    w.opt(&o.final_aggregate, |w, v| w.f64(*v));
    w.len(o.final_groups.len());
    for (group, value) in &o.final_groups {
        write_value(w, group);
        w.f64(*value);
    }
    w.len(o.pending.len());
    for p in &o.pending {
        w.u64(p.ticket);
        w.u64(p.object_identity);
        w.u64(p.result_index);
        w.u64(p.contrib_index);
        write_kind(w, p.kind);
        w.u8(p.level);
    }
    w.opt(&o.ledger.kind, |w, k| write_kind(w, *k));
    w.len(o.ledger.contribs.len());
    for c in &o.ledger.contribs {
        write_contribution(w, c);
    }
}

fn read_outcome(r: &mut WireReader<'_>) -> Result<SessionOutcome> {
    let results = read_stream(r)?;
    let stats = read_stats(r)?;
    let final_aggregate = r.opt(|r| r.f64())?;
    let n = r.len(9 + 8)?;
    let mut final_groups = Vec::with_capacity(n);
    for _ in 0..n {
        let group = read_value(r)?;
        let value = r.f64()?;
        final_groups.push((group, value));
    }
    let n = r.len(8 * 4 + 2)?;
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        pending.push(PendingRefinement {
            ticket: r.u64()?,
            object_identity: r.u64()?,
            result_index: r.u64()?,
            contrib_index: r.u64()?,
            kind: read_kind(r)?,
            level: r.u8()?,
        });
    }
    let kind = r.opt(read_kind)?;
    let n = r.len(9)?;
    let mut contribs = Vec::with_capacity(n);
    for _ in 0..n {
        contribs.push(read_contribution(r)?);
    }
    Ok(SessionOutcome {
        results,
        stats,
        final_aggregate,
        final_groups,
        pending,
        ledger: RefinementLedger { kind, contribs },
    })
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

fn write_histogram(w: &mut WireWriter, h: &HistogramSnapshot) {
    w.u64(h.count());
    w.u64(h.sum());
    w.u64(h.raw_min());
    w.u64(h.max());
    let counts = h.bucket_counts();
    let nonzero = counts.iter().filter(|&&c| c != 0).count();
    w.len(nonzero);
    for (i, &c) in counts.iter().enumerate() {
        if c != 0 {
            w.u8(i as u8);
            w.u64(c);
        }
    }
}

fn read_histogram(r: &mut WireReader<'_>) -> Result<HistogramSnapshot> {
    let count = r.u64()?;
    let sum = r.u64()?;
    let raw_min = r.u64()?;
    let max = r.u64()?;
    let n = r.len(9)?;
    let mut buckets = [0u64; BUCKETS];
    for _ in 0..n {
        let idx = r.u8()? as usize;
        let c = r.u64()?;
        if idx >= BUCKETS {
            return Err(bad(format!("histogram bucket index {idx} out of range")));
        }
        buckets[idx] = c;
    }
    Ok(HistogramSnapshot::from_parts(
        buckets, count, sum, raw_min, max,
    ))
}

pub(crate) fn write_report(w: &mut WireWriter, rep: &SessionReport) {
    w.u64(rep.session_id);
    w.len(rep.outcomes.len());
    for t in &rep.outcomes {
        w.u64(t.object.0);
        write_outcome(w, &t.outcome);
    }
    write_histogram(w, &rep.latency_hist);
    w.u64(rep.max_touch_nanos);
    w.len(rep.epochs.len());
    for &e in &rep.epochs {
        w.u64(e);
    }
    w.u64(rep.restructures_seen);
    w.len(rep.refinement_latencies.len());
    for &l in &rep.refinement_latencies {
        w.u64(l);
    }
    w.u64(rep.refinement_blocked_nanos);
    w.len(rep.errors.len());
    for e in &rep.errors {
        w.str(e);
    }
}

pub(crate) fn read_report(r: &mut WireReader<'_>) -> Result<SessionReport> {
    let session_id = r.u64()?;
    let n = r.len(8)?;
    let mut outcomes = Vec::with_capacity(n);
    for _ in 0..n {
        let object = ObjectId(r.u64()?);
        let outcome = read_outcome(r)?;
        outcomes.push(TraceOutcome { object, outcome });
    }
    let latency_hist = read_histogram(r)?;
    let max_touch_nanos = r.u64()?;
    let n = r.len(8)?;
    let mut epochs = Vec::with_capacity(n);
    for _ in 0..n {
        epochs.push(r.u64()?);
    }
    let restructures_seen = r.u64()?;
    let n = r.len(8)?;
    let mut refinement_latencies = Vec::with_capacity(n);
    for _ in 0..n {
        refinement_latencies.push(r.u64()?);
    }
    let refinement_blocked_nanos = r.u64()?;
    let n = r.len(4)?;
    let mut errors = Vec::with_capacity(n);
    for _ in 0..n {
        errors.push(r.str()?);
    }
    Ok(SessionReport {
        session_id,
        outcomes,
        latency_hist,
        max_touch_nanos,
        epochs,
        restructures_seen,
        refinement_latencies,
        refinement_blocked_nanos,
        errors,
    })
}

// ---------------------------------------------------------------------------
// Request / response payloads
// ---------------------------------------------------------------------------

/// A decoded request frame.
#[derive(Debug)]
pub enum Request {
    /// Open the connection's session.
    OpenSession,
    /// Set the touch action for an object.
    SetAction(ObjectId, TouchAction),
    /// Run one gesture trace, optionally carrying the client-stamped trace
    /// context (absent encodes as zero extra bytes).
    RunTrace(ObjectId, GestureTrace, Option<WireTraceContext>),
    /// Barrier + copy of the session report.
    Snapshot,
    /// Close the session, returning the final report.
    CloseSession,
    /// The server's metrics snapshot as JSON text.
    Metrics,
    /// Retained span trees as Chrome trace-event JSON.
    DumpTraces,
    /// The metrics snapshot as flat text exposition.
    MetricsText,
}

/// A decoded response frame.
#[derive(Debug)]
pub enum Response {
    /// The session is open; carries its id.
    SessionOpened(u64),
    /// The request completed with nothing to return.
    Ack,
    /// A session report (snapshot or close).
    Report(SessionReport),
    /// Metrics snapshot, JSON text.
    MetricsJson(String),
    /// The request failed; the connection stays usable.
    Error(String),
    /// Admission control rejected the request.
    Shed {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
        /// The admission signal that tripped.
        reason: String,
    },
    /// The server is draining; optionally carries the final session report.
    GoAway(Option<SessionReport>),
    /// Chrome trace-event JSON of retained span trees.
    TracesJson(String),
    /// Metrics snapshot as flat text exposition.
    MetricsText(String),
}

/// Encode a request into a frame payload (tag byte first).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::OpenSession => vec![tag::OPEN_SESSION],
        Request::SetAction(object, action) => {
            let mut w = WireWriter::with_tag(tag::SET_ACTION);
            w.u64(object.0);
            write_action(&mut w, action);
            w.into_bytes()
        }
        Request::RunTrace(object, trace, ctx) => {
            let mut w = WireWriter::with_tag(tag::RUN_TRACE);
            w.u64(object.0);
            write_trace(&mut w, trace);
            // Optional trailer: an untraced frame carries zero extra bytes.
            if let Some(ctx) = ctx {
                w.u8(1);
                w.u64(ctx.trace);
                w.u64(ctx.root_span);
            }
            w.into_bytes()
        }
        Request::Snapshot => vec![tag::SNAPSHOT],
        Request::CloseSession => vec![tag::CLOSE_SESSION],
        Request::Metrics => vec![tag::METRICS],
        Request::DumpTraces => vec![tag::DUMP_TRACES],
        Request::MetricsText => vec![tag::METRICS_TEXT],
    }
}

/// Decode a request frame payload. Total: malformed bytes produce
/// [`DbTouchError::ParseError`], never a panic.
pub fn decode_request(payload: &[u8]) -> Result<Request> {
    let mut r = WireReader::new(payload);
    let req = match r.u8()? {
        tag::OPEN_SESSION => Request::OpenSession,
        tag::SET_ACTION => {
            let object = ObjectId(r.u64()?);
            let action = read_action(&mut r)?;
            Request::SetAction(object, action)
        }
        tag::RUN_TRACE => {
            let object = ObjectId(r.u64()?);
            let trace = read_trace(&mut r)?;
            // Nothing left: an untraced frame, no context.
            let ctx = if r.remaining() == 0 {
                None
            } else {
                match r.u8()? {
                    1 => Some(WireTraceContext {
                        trace: r.u64()?,
                        root_span: r.u64()?,
                    }),
                    other => return Err(bad(format!("bad trace-context presence byte {other}"))),
                }
            };
            Request::RunTrace(object, trace, ctx)
        }
        tag::SNAPSHOT => Request::Snapshot,
        tag::CLOSE_SESSION => Request::CloseSession,
        tag::METRICS => Request::Metrics,
        tag::DUMP_TRACES => Request::DumpTraces,
        tag::METRICS_TEXT => Request::MetricsText,
        other => return Err(bad(format!("unknown request frame type 0x{other:02x}"))),
    };
    r.finish()?;
    Ok(req)
}

/// Encode a response into a frame payload (tag byte first).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::SessionOpened(id) => {
            let mut w = WireWriter::with_tag(tag::SESSION_OPENED);
            w.u64(*id);
            w.into_bytes()
        }
        Response::Ack => vec![tag::ACK],
        Response::Report(rep) => {
            let mut w = WireWriter::with_tag(tag::REPORT);
            write_report(&mut w, rep);
            w.into_bytes()
        }
        Response::MetricsJson(text) => {
            let mut w = WireWriter::with_tag(tag::METRICS_JSON);
            w.str(text);
            w.into_bytes()
        }
        Response::Error(msg) => {
            let mut w = WireWriter::with_tag(tag::ERROR);
            w.str(msg);
            w.into_bytes()
        }
        Response::Shed {
            retry_after_ms,
            reason,
        } => {
            let mut w = WireWriter::with_tag(tag::SHED);
            w.u64(*retry_after_ms);
            w.str(reason);
            w.into_bytes()
        }
        Response::GoAway(report) => {
            let mut w = WireWriter::with_tag(tag::GO_AWAY);
            w.opt(report, write_report);
            w.into_bytes()
        }
        Response::TracesJson(text) => {
            let mut w = WireWriter::with_tag(tag::TRACES_JSON);
            w.str(text);
            w.into_bytes()
        }
        Response::MetricsText(text) => {
            let mut w = WireWriter::with_tag(tag::METRICS_TEXT_REPLY);
            w.str(text);
            w.into_bytes()
        }
    }
}

/// Decode a response frame payload. Total, like [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response> {
    let mut r = WireReader::new(payload);
    let resp = match r.u8()? {
        tag::SESSION_OPENED => Response::SessionOpened(r.u64()?),
        tag::ACK => Response::Ack,
        tag::REPORT => Response::Report(read_report(&mut r)?),
        tag::METRICS_JSON => Response::MetricsJson(r.str()?),
        tag::ERROR => Response::Error(r.str()?),
        tag::SHED => Response::Shed {
            retry_after_ms: r.u64()?,
            reason: r.str()?,
        },
        tag::GO_AWAY => Response::GoAway(r.opt(read_report)?),
        tag::TRACES_JSON => Response::TracesJson(r.str()?),
        tag::METRICS_TEXT_REPLY => Response::MetricsText(r.str()?),
        other => return Err(bad(format!("unknown response frame type 0x{other:02x}"))),
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtouch_gesture::synthesizer::GestureSynthesizer;
    use dbtouch_types::SizeCm;

    fn sample_trace() -> GestureTrace {
        let view =
            dbtouch_gesture::view::View::for_column("col", 1_000, SizeCm::new(2.0, 10.0)).unwrap();
        GestureSynthesizer::new(60.0).slide_down(&view, 0.4)
    }

    #[test]
    fn trace_roundtrip_is_exact() {
        let trace = sample_trace();
        let mut w = WireWriter::default();
        write_trace(&mut w, &trace);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = read_trace(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn action_roundtrip_covers_every_variant() {
        let actions = vec![
            TouchAction::Scan,
            TouchAction::Tuple,
            TouchAction::Aggregate(AggregateKind::Avg),
            TouchAction::Summary {
                half_window: Some(32),
                kind: AggregateKind::Max,
            },
            TouchAction::Summary {
                half_window: None,
                kind: AggregateKind::Count,
            },
            TouchAction::FilteredScan {
                predicate: Predicate::And(vec![
                    Predicate::compare(CompareOp::Ge, 10.0),
                    Predicate::Not(Box::new(Predicate::Between {
                        low: Value::Int(3),
                        high: Value::Int(7),
                    })),
                    Predicate::Or(vec![Predicate::compare(CompareOp::Ne, Value::Bool(true))]),
                ]),
            },
            TouchAction::FilteredAggregate {
                predicate: Predicate::compare(CompareOp::Lt, Value::Str("zz".into())),
                kind: AggregateKind::Sum,
            },
            TouchAction::GroupBy {
                group_attribute: 2,
                value_attribute: 5,
                kind: AggregateKind::Min,
            },
        ];
        for action in actions {
            let mut w = WireWriter::default();
            write_action(&mut w, &action);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let back = read_action(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(action, back);
        }
    }

    #[test]
    fn value_roundtrip_preserves_float_bits() {
        for v in [
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(f64::INFINITY),
            Value::Int(i64::MIN),
            Value::Timestamp(-1),
            Value::Str("αβγ".into()),
        ] {
            let mut w = WireWriter::default();
            write_value(&mut w, &v);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let back = read_value(&mut r).unwrap();
            if let (Value::Float(a), Value::Float(b)) = (&v, &back) {
                assert_eq!(a.to_bits(), b.to_bits());
            } else {
                assert_eq!(v, back);
            }
        }
    }

    #[test]
    fn predicate_depth_limit_rejects_deep_nesting() {
        let mut p = Predicate::compare(CompareOp::Eq, 1.0);
        for _ in 0..(MAX_PREDICATE_DEPTH + 2) {
            p = Predicate::Not(Box::new(p));
        }
        let mut w = WireWriter::default();
        write_predicate(&mut w, &p);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(read_predicate(&mut r, 0).is_err());
    }

    #[test]
    fn histogram_roundtrip_is_exact() {
        let mut h = HistogramSnapshot::new();
        for v in [0, 1, 1, 7, 300, 1_000_000, u64::MAX / 2] {
            h.record(v);
        }
        let mut w = WireWriter::default();
        write_histogram(&mut w, &h);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = read_histogram(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(h, back);

        // Empty histogram too (min sentinel must survive).
        let empty = HistogramSnapshot::new();
        let mut w = WireWriter::default();
        write_histogram(&mut w, &empty);
        let bytes = w.into_bytes();
        let back = read_histogram(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(empty, back);
        assert_eq!(back.min(), None);
    }

    #[test]
    fn request_response_roundtrip() {
        let req = Request::RunTrace(ObjectId(4), sample_trace(), None);
        match decode_request(&encode_request(&req)).unwrap() {
            Request::RunTrace(object, trace, ctx) => {
                assert_eq!(object, ObjectId(4));
                assert_eq!(trace, sample_trace());
                assert_eq!(ctx, None);
            }
            other => panic!("wrong decode: {other:?}"),
        }

        let resp = Response::Shed {
            retry_after_ms: 250,
            reason: "live sessions at cap".into(),
        };
        match decode_response(&encode_response(&resp)).unwrap() {
            Response::Shed {
                retry_after_ms,
                reason,
            } => {
                assert_eq!(retry_after_ms, 250);
                assert_eq!(reason, "live sessions at cap");
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn decoder_is_total_on_malformed_bytes() {
        // Truncations of a valid frame at every length.
        let valid = encode_request(&Request::RunTrace(ObjectId(1), sample_trace(), None));
        for cut in 0..valid.len().min(200) {
            let _ = decode_request(&valid[..cut]); // must not panic
        }
        // Trailing garbage is rejected.
        let mut padded = encode_request(&Request::Snapshot);
        padded.push(0xee);
        assert!(decode_request(&padded).is_err());
        // A forged huge sequence count cannot allocate: the count exceeds
        // the remaining bytes and fails fast.
        let mut forged = vec![tag::RUN_TRACE];
        forged.extend_from_slice(&7u64.to_le_bytes());
        forged.extend_from_slice(&1u32.to_le_bytes());
        forged.push(b'c');
        forged.extend_from_slice(&u32::MAX.to_le_bytes()); // event count
        assert!(decode_request(&forged).is_err());
        // Unknown tags.
        assert!(decode_request(&[0x7f]).is_err());
        assert!(decode_response(&[0x7f]).is_err());
    }

    #[test]
    fn trace_context_roundtrips_and_absence_costs_no_bytes() {
        let ctx = WireTraceContext {
            trace: dbtouch_obs::CLIENT_ID_BIT | 7,
            root_span: dbtouch_obs::CLIENT_ID_BIT | 8,
        };
        let with = encode_request(&Request::RunTrace(ObjectId(2), sample_trace(), Some(ctx)));
        match decode_request(&with).unwrap() {
            Request::RunTrace(_, _, decoded) => assert_eq!(decoded, Some(ctx)),
            other => panic!("wrong decode: {other:?}"),
        }
        // An absent context adds no bytes.
        let without = encode_request(&Request::RunTrace(ObjectId(2), sample_trace(), None));
        assert_eq!(with.len(), without.len() + 17);
        assert_eq!(&with[..without.len()], &without[..]);
        // A corrupt presence byte is rejected, not panicked on.
        let mut forged = without.clone();
        forged.push(9);
        assert!(decode_request(&forged).is_err());

        // The admin requests round-trip.
        assert!(matches!(
            decode_request(&encode_request(&Request::DumpTraces)).unwrap(),
            Request::DumpTraces
        ));
        assert!(matches!(
            decode_request(&encode_request(&Request::MetricsText)).unwrap(),
            Request::MetricsText
        ));
        match decode_response(&encode_response(&Response::TracesJson("{}".into()))).unwrap() {
            Response::TracesJson(text) => assert_eq!(text, "{}"),
            other => panic!("wrong decode: {other:?}"),
        }
        match decode_response(&encode_response(&Response::MetricsText("a 1\n".into()))).unwrap() {
            Response::MetricsText(text) => assert_eq!(text, "a 1\n"),
            other => panic!("wrong decode: {other:?}"),
        }
    }
}
