//! Binary wire codec: fixed little-endian encodings for every value that
//! crosses the network boundary.
//!
//! Each layout is declared once — a struct's fields in wire order
//! (`wire_struct!`), a tagged enum's tag bytes and variant fields
//! (`wire_enum!`), or, where those cannot express it, one hand-written impl
//! with the encoder beside the decoder — and both directions follow that one
//! declaration, so encode and decode cannot disagree. `tests/codec_golden.rs`
//! pins the bytes to [`PROTOCOL_VERSION`](crate::PROTOCOL_VERSION).
//!
//! Floats travel as their IEEE 754 bit patterns, so a [`SessionReport`]
//! decoded from the wire digests ([`SessionReport::result_digest`])
//! bit-identically to the in-process report it was encoded from: that is
//! what makes networked replay verifiable against a sequential kernel replay.
//!
//! The decoder is *total*: any byte sequence either decodes or returns a
//! [`DbTouchError::ParseError`], never a panic. Every read checks the
//! remaining length first; a sequence count is checked against the smallest
//! encoding its element layout allows, and a sequence preallocates no more
//! than the remaining bytes could hold, so a forged `u32::MAX` count
//! allocates nothing; and sequences and boxes nest only so deep, so a forged
//! [`Predicate`] chain cannot recurse the decoder off its stack.
//!
//! JSON appears on the wire in exactly two places — the version handshake
//! and the metrics debug dump — both as opaque text payloads.

use std::collections::BTreeMap;
use std::mem::size_of;

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

/// How deep `Vec`s and `Box`es may nest in one payload. Every recursive
/// layout recurses through one of them, so this bounds the decoder's
/// recursion whatever the bytes say.
const MAX_NESTING: usize = 64;

fn bad(msg: impl Into<String>) -> DbTouchError {
    DbTouchError::ParseError(msg.into())
}

#[cold]
fn truncated(need: usize, have: usize) -> DbTouchError {
    bad(format!("truncated payload: need {need} bytes, have {have}"))
}

// ---------------------------------------------------------------------------
// The layout trait, its writer and reader
// ---------------------------------------------------------------------------

/// A wire layout: `put` appends a value, `get` reads one back, and
/// `MIN_BYTES` is the fewest bytes any value of the type encodes to — the
/// bound a sequence count is checked against.
pub(crate) trait Wire: Sized {
    const MIN_BYTES: usize;
    fn put(&self, w: &mut WireWriter);
    fn get(r: &mut WireReader<'_>) -> Result<Self>;
}

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub(crate) struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Length prefix of a following sequence.
    pub(crate) fn count(&mut self, n: usize) {
        (n as u32).put(self);
    }

    /// A length-prefixed sequence.
    pub(crate) fn seq<T: Wire>(&mut self, items: &[T]) {
        self.count(items.len());
        for item in items {
            item.put(self);
        }
    }
}

/// Bounds-checked little-endian byte reader.
#[derive(Debug)]
pub(crate) struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> WireReader<'a> {
    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(truncated(n, self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn get<T: Wire>(&mut self) -> Result<T> {
        T::get(self)
    }

    /// Length prefix of a sequence of `T`, validated against the bytes
    /// actually remaining: each element needs at least `T::MIN_BYTES`, so a
    /// forged count fails here, before anything is allocated for it.
    pub(crate) fn count<T: Wire>(&mut self) -> Result<usize> {
        let n = self.get::<u32>()? as usize;
        if n.saturating_mul(T::MIN_BYTES.max(1)) > self.remaining() {
            return Err(bad(format!(
                "sequence of {n} elements does not fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Run `f` one nesting level deeper, refusing past [`MAX_NESTING`].
    pub(crate) fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(bad("nesting exceeds maximum depth"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }
}

/// Encode one value into a fresh payload.
fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut w = WireWriter::default();
    v.put(&mut w);
    w.buf
}

/// Decode one value that must span the whole payload: trailing bytes are an
/// error, not something a lenient decoder silently drops.
fn decode<T: Wire>(payload: &[u8]) -> Result<T> {
    let mut r = WireReader {
        buf: payload,
        pos: 0,
        depth: 0,
    };
    let v = r.get()?;
    match r.remaining() {
        0 => Ok(v),
        n => Err(bad(format!("{n} trailing bytes after payload"))),
    }
}

// ---------------------------------------------------------------------------
// Primitives and generic containers
// ---------------------------------------------------------------------------

/// Fixed-width little-endian. Floats go through `to_le_bytes`, which is
/// their exact bit pattern: NaN payloads and signed zeros survive.
macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = size_of::<$t>();
            fn put(&self, w: &mut WireWriter) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut WireReader<'_>) -> Result<Self> {
                let bytes = r.take(size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returns exactly n bytes")))
            }
        }
    )*};
}

wire_le!(u8, u32, u64, i64, f64);

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut WireWriter) {
        (*self as u8).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(bad(format!("invalid bool byte {other}"))),
        }
    }
}

/// As a `u64`, whatever the platform's width.
impl Wire for usize {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn put(&self, w: &mut WireWriter) {
        (*self as u64).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(r.get::<u64>()? as usize)
    }
}

/// Length-prefixed UTF-8.
impl Wire for String {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, w: &mut WireWriter) {
        w.count(self.len());
        w.buf.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let n = r.count::<u8>()?;
        String::from_utf8(r.take(n)?.to_vec()).map_err(|_| bad("invalid UTF-8 in string"))
    }
}

/// Presence flag, then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = bool::MIN_BYTES;
    fn put(&self, w: &mut WireWriter) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(if r.get::<bool>()? {
            Some(r.get()?)
        } else {
            None
        })
    }
}

/// Count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, w: &mut WireWriter) {
        w.seq(self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        r.nested(|r| {
            let n = r.count::<T>()?;
            // An element may take far more memory than its wire minimum:
            // reserve no more than the remaining bytes could hold, and grow
            // past that only as real elements arrive.
            let mut items = Vec::with_capacity(n.min(r.remaining() / size_of::<T>().max(1)));
            for _ in 0..n {
                items.push(r.get()?);
            }
            Ok(items)
        })
    }
}

/// The boxed value. `MIN_BYTES` is 0: a boxed layout may be recursive, and a
/// recursive layout's minimum cannot be summed from itself.
impl<T: Wire> Wire for Box<T> {
    const MIN_BYTES: usize = 0;
    fn put(&self, w: &mut WireWriter) {
        (**self).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        r.nested(|r| r.get().map(Box::new))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, w: &mut WireWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok((r.get()?, r.get()?))
    }
}

/// Count, then the key-value pairs in key order.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, w: &mut WireWriter) {
        w.count(self.len());
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        r.nested(|r| (0..r.count::<(K, V)>()?).map(|_| r.get()).collect())
    }
}

// ---------------------------------------------------------------------------
// The layout macros
// ---------------------------------------------------------------------------

/// The smallest of `sizes`: a tagged enum's smallest variant.
const fn min_of(sizes: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < sizes.len() {
        if sizes[i] < min {
            min = sizes[i];
        }
        i += 1;
    }
    min
}

/// A struct's layout: `Name { field: Type, .. }`, the fields in wire order
/// (a tuple struct's fields are `0`, `1`, …). `get` builds a struct literal,
/// so a field the type has and the layout lacks does not compile. Both macros
/// mark `put`/`get` `#[inline]`: a report nests a dozen layouts per result,
/// and a call across codegen units at each level made decoding ~30 % slower.
macro_rules! wire_struct {
    ($ty:ident { $($field:tt: $fty:ty),* $(,)? }) => {
        impl Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as Wire>::MIN_BYTES)*;
            #[inline]
            fn put(&self, w: &mut WireWriter) {
                $(<$fty as Wire>::put(&self.$field, w);)*
            }
            #[inline]
            fn get(r: &mut WireReader<'_>) -> Result<Self> {
                Ok($ty { $($field: r.get::<$fty>()?),* })
            }
        }
    };
}

/// A tagged enum's layout: one tag byte, then the variant's fields. Each
/// variant is `tag => Name`, `tag => Name(field: Type, ..)` (a tuple variant,
/// its fields named for the layout only) or `tag => Name { field: Type, .. }`.
/// The `pub enum` form also declares the enum itself, attributes and docs
/// included, and its `name()`.
macro_rules! wire_enum {
    (
        $(#[$m:meta])*
        pub enum $ty:ident {
            $(
                $(#[$vm:meta])*
                $tag:path => $v:ident $(($($b:ident: $t:ty),*))?
                $({ $($(#[$fm:meta])* $f:ident: $ft:ty),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$m])*
        pub enum $ty {
            $($(#[$vm])* $v $(($($t),*))? $({ $($(#[$fm])* $f: $ft),* })?),*
        }

        impl $ty {
            /// The variant's name, for error messages.
            pub(crate) fn name(&self) -> &'static str {
                match self {
                    $($ty::$v { .. } => stringify!($v)),*
                }
            }
        }

        wire_enum!($ty { $($tag => $v $(($($b: $t),*))? $({ $($f: $ft),* })?),* });
    };
    ($ty:ident {
        $(
            $tag:expr => $v:ident $(($($b:ident: $t:ty),*))?
            $({ $($f:ident: $ft:ty),* $(,)? })?
        ),* $(,)?
    }) => {
        impl Wire for $ty {
            const MIN_BYTES: usize = u8::MIN_BYTES + min_of(&[$(
                0 $($(+ <$t as Wire>::MIN_BYTES)*)? $($(+ <$ft as Wire>::MIN_BYTES)*)?
            ),*]);
            #[inline]
            fn put(&self, w: &mut WireWriter) {
                match self {
                    $($ty::$v $(($($b),*))? $({ $($f),* })? => {
                        <u8 as Wire>::put(&$tag, w);
                        $($(<$t as Wire>::put($b, w);)*)?
                        $($(<$ft as Wire>::put($f, w);)*)?
                    })*
                }
            }
            #[inline]
            fn get(r: &mut WireReader<'_>) -> Result<Self> {
                let found = r.get::<u8>()?;
                $(if found == $tag {
                    return Ok($ty::$v $(($(r.get::<$t>()?),*))? $({ $($f: r.get::<$ft>()?),* })?);
                })*
                Err(bad(format!("invalid {} tag 0x{found:02x}", stringify!($ty))))
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Gestures, actions, predicates, values
// ---------------------------------------------------------------------------

wire_struct!(Timestamp { 0: u64 });
wire_struct!(RowId { 0: u64 });
wire_struct!(ObjectId { 0: u64 });
wire_struct!(PointCm { x: f64, y: f64 });

wire_enum!(TouchPhase {
    0 => Began,
    1 => Moved,
    2 => Stationary,
    3 => Ended,
});

wire_struct!(TouchEvent {
    location: PointCm,
    timestamp: Timestamp,
    phase: TouchPhase,
    finger: u8,
});

wire_struct!(GestureTrace {
    target: String,
    events: Vec<TouchEvent>,
});

wire_enum!(AggregateKind {
    0 => Count,
    1 => Sum,
    2 => Avg,
    3 => Min,
    4 => Max,
});

wire_enum!(CompareOp {
    0 => Eq,
    1 => Ne,
    2 => Lt,
    3 => Le,
    4 => Gt,
    5 => Ge,
});

wire_enum!(Value {
    0 => Int(v: i64),
    1 => Float(v: f64),
    2 => Bool(v: bool),
    3 => Str(v: String),
    4 => Timestamp(v: i64),
});

wire_enum!(Predicate {
    0 => Compare { op: CompareOp, value: Value },
    1 => Between { low: Value, high: Value },
    2 => And(all: Vec<Predicate>),
    3 => Or(any: Vec<Predicate>),
    4 => Not(inner: Box<Predicate>),
});

wire_enum!(TouchAction {
    0 => Scan,
    1 => Aggregate(kind: AggregateKind),
    2 => Summary { half_window: Option<u64>, kind: AggregateKind },
    3 => FilteredScan { predicate: Predicate },
    4 => FilteredAggregate { predicate: Predicate, kind: AggregateKind },
    5 => Tuple,
    6 => GroupBy { group_attribute: usize, value_attribute: usize, kind: AggregateKind },
});

// ---------------------------------------------------------------------------
// Results, stats, outcomes, reports
// ---------------------------------------------------------------------------

wire_enum!(ResultKind {
    0 => Scan,
    1 => RunningAggregate,
    2 => Summary,
    3 => FilteredScan,
    4 => JoinMatch,
    5 => GroupResult,
    6 => Tuple,
});

wire_struct!(TouchResult {
    row: RowId,
    position_fraction: f64,
    values: Vec<Value>,
    produced_at: Timestamp,
    kind: ResultKind,
});

wire_struct!(FadePolicy {
    visible_ms: u64,
    fade_ms: u64,
});

/// Hand-written because the fields are private: the fade policy, then the
/// results, rebuilt through `ResultStream::new` and `push`.
impl Wire for ResultStream {
    const MIN_BYTES: usize = FadePolicy::MIN_BYTES + Vec::<TouchResult>::MIN_BYTES;
    fn put(&self, w: &mut WireWriter) {
        self.fade().put(w);
        w.seq(self.results());
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let mut stream = ResultStream::new(r.get()?);
        for _ in 0..r.count::<TouchResult>()? {
            stream.push(r.get()?);
        }
        Ok(stream)
    }
}

wire_struct!(RemoteStats {
    local_requests: u64,
    remote_requests: u64,
    progressive_requests: u64,
    rows_shipped: u64,
    remote_wait_micros: u64,
});

wire_struct!(SessionStats {
    touches: u64,
    gesture_events: u64,
    entries_returned: u64,
    rows_touched: u64,
    bytes_touched: u64,
    duplicate_touches: u64,
    zooms: u64,
    rotations: u64,
    prefetches_issued: u64,
    refinements: u64,
    index_skips: u64,
    segments_scanned: u64,
    pruned_segments: u64,
    simulated_access_nanos: u64,
    compute_nanos: u64,
    max_touch_nanos: u64,
    sample_level_usage: BTreeMap<u8, u64>,
    cache_hits: u64,
    cache_misses: u64,
    shared_cache_hits: u64,
    shared_cache_misses: u64,
    shared_cache_inserts: u64,
    remote: RemoteStats,
    remote_blocked_micros: u64,
    remote_refinements_applied: u64,
    remote_refinements_dropped: u64,
});

wire_enum!(Contribution {
    0 => Ready { count: u64, sum: f64, min: Option<f64>, max: Option<f64> },
    1 => Pending { ticket: u64 },
    2 => Dropped { ticket: u64 },
});

wire_struct!(PendingRefinement {
    ticket: u64,
    object_identity: u64,
    result_index: u64,
    contrib_index: u64,
    kind: AggregateKind,
    level: u8,
});

wire_struct!(RefinementLedger {
    kind: Option<AggregateKind>,
    contribs: Vec<Contribution>,
});

wire_struct!(SessionOutcome {
    results: ResultStream,
    stats: SessionStats,
    final_aggregate: Option<f64>,
    final_groups: Vec<(Value, f64)>,
    pending: Vec<PendingRefinement>,
    ledger: RefinementLedger,
});

wire_struct!(TraceOutcome {
    object: ObjectId,
    outcome: SessionOutcome,
});

/// Hand-written because the buckets are sparse: count, sum, raw minimum and
/// maximum, then only the non-empty buckets as `(index, count)` pairs,
/// reassembled through `HistogramSnapshot::from_parts`.
impl Wire for HistogramSnapshot {
    const MIN_BYTES: usize = 4 * u64::MIN_BYTES + u32::MIN_BYTES;
    fn put(&self, w: &mut WireWriter) {
        for v in [self.count(), self.sum(), self.raw_min(), self.max()] {
            v.put(w);
        }
        let buckets = (0u8..).zip(self.bucket_counts().iter().copied());
        let nonzero: Vec<(u8, u64)> = buckets.filter(|&(_, c)| c != 0).collect();
        nonzero.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let [count, sum, raw_min, max] = [r.get()?, r.get()?, r.get()?, r.get()?];
        let mut buckets = [0u64; BUCKETS];
        for (i, c) in r.get::<Vec<(u8, u64)>>()? {
            *buckets
                .get_mut(i as usize)
                .ok_or_else(|| bad(format!("histogram bucket index {i} out of range")))? = c;
        }
        Ok(HistogramSnapshot::from_parts(
            buckets, count, sum, raw_min, max,
        ))
    }
}

wire_struct!(SessionReport {
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

// ---------------------------------------------------------------------------
// Request / response payloads
// ---------------------------------------------------------------------------

/// `RunTrace`'s trailer, hand-written because it is not an `Option`: an
/// untraced frame simply ends after the trace, so an absent context costs
/// zero bytes. It must be the last field of its frame.
impl Wire for Option<WireTraceContext> {
    const MIN_BYTES: usize = 0;
    fn put(&self, w: &mut WireWriter) {
        if let Some(ctx) = self {
            1u8.put(w);
            ctx.trace.put(w);
            ctx.root_span.put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        if r.remaining() == 0 {
            return Ok(None);
        }
        match r.get::<u8>()? {
            1 => Ok(Some(WireTraceContext {
                trace: r.get()?,
                root_span: r.get()?,
            })),
            other => Err(bad(format!("bad trace-context presence byte {other}"))),
        }
    }
}

wire_enum! {
    /// A decoded request frame.
    #[derive(Debug)]
    pub enum Request {
        /// Open the connection's session.
        tag::OPEN_SESSION => OpenSession,
        /// Set the touch action for an object.
        tag::SET_ACTION => SetAction(object: ObjectId, action: TouchAction),
        /// Run one gesture trace, optionally carrying the client-stamped trace
        /// context (absent encodes as zero extra bytes).
        tag::RUN_TRACE => RunTrace(
            object: ObjectId,
            trace: GestureTrace,
            ctx: Option<WireTraceContext>
        ),
        /// Barrier + copy of the session report.
        tag::SNAPSHOT => Snapshot,
        /// Close the session, returning the final report.
        tag::CLOSE_SESSION => CloseSession,
        /// The server's metrics snapshot as JSON text.
        tag::METRICS => Metrics,
        /// Retained span trees as Chrome trace-event JSON.
        tag::DUMP_TRACES => DumpTraces,
        /// The metrics snapshot as flat text exposition.
        tag::METRICS_TEXT => MetricsText,
    }
}

wire_enum! {
    /// A decoded response frame.
    #[derive(Debug)]
    pub enum Response {
        /// The session is open; carries its id.
        tag::SESSION_OPENED => SessionOpened(id: u64),
        /// The request completed with nothing to return.
        tag::ACK => Ack,
        /// A session report (snapshot or close).
        tag::REPORT => Report(report: SessionReport),
        /// Metrics snapshot, JSON text.
        tag::METRICS_JSON => MetricsJson(text: String),
        /// The request failed; the connection stays usable.
        tag::ERROR => Error(message: String),
        /// Admission control rejected the request.
        tag::SHED => Shed {
            /// Suggested client backoff, milliseconds.
            retry_after_ms: u64,
            /// The admission signal that tripped.
            reason: String,
        },
        /// The server is draining; optionally carries the final session report.
        tag::GO_AWAY => GoAway(report: Option<SessionReport>),
        /// Chrome trace-event JSON of retained span trees.
        tag::TRACES_JSON => TracesJson(text: String),
        /// Metrics snapshot as flat text exposition.
        tag::METRICS_TEXT_REPLY => MetricsText(text: String),
    }
}

/// Encode a request into a frame payload (tag byte first).
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode(req)
}

/// Decode a request frame payload. Total: malformed bytes produce
/// [`DbTouchError::ParseError`], never a panic.
pub fn decode_request(payload: &[u8]) -> Result<Request> {
    decode(payload)
}

/// Encode a response into a frame payload (tag byte first).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    encode(resp)
}

/// Decode a response frame payload. Total, like [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response> {
    decode(payload)
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

    fn roundtrip<T: Wire>(v: &T) -> T {
        decode(&encode(v)).unwrap()
    }

    #[test]
    fn trace_roundtrip_is_exact() {
        let trace = sample_trace();
        assert_eq!(roundtrip(&trace), trace);
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
            assert_eq!(roundtrip(&action), action);
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
            let back = roundtrip(&v);
            if let (Value::Float(a), Value::Float(b)) = (&v, &back) {
                assert_eq!(a.to_bits(), b.to_bits());
            } else {
                assert_eq!(v, back);
            }
        }
    }

    #[test]
    fn predicate_depth_limit_rejects_deep_nesting() {
        let nested = |levels, wrap: fn(Predicate) -> Predicate| {
            let mut p = Predicate::compare(CompareOp::Eq, 1.0);
            for _ in 0..levels {
                p = wrap(p);
            }
            encode(&p)
        };
        let not = |p| Predicate::Not(Box::new(p));
        let and = |p| Predicate::And(vec![p]);
        for wrap in [not as fn(Predicate) -> Predicate, and] {
            assert!(decode::<Predicate>(&nested(MAX_NESTING, wrap)).is_ok());
            assert!(decode::<Predicate>(&nested(MAX_NESTING + 1, wrap)).is_err());
        }
    }

    #[test]
    fn histogram_roundtrip_is_exact() {
        let mut h = HistogramSnapshot::new();
        for v in [0, 1, 1, 7, 300, 1_000_000, u64::MAX / 2] {
            h.record(v);
        }
        assert_eq!(roundtrip(&h), h);

        // Empty histogram too (min sentinel must survive).
        let back = roundtrip(&HistogramSnapshot::new());
        assert_eq!(back, HistogramSnapshot::new());
        assert_eq!(back.min(), None);
    }

    /// `MIN_BYTES` is what the smallest value of each layout actually
    /// encodes to: no sequence guard rejects a valid frame.
    #[test]
    fn min_bytes_is_the_smallest_encoding() {
        fn smallest<T: Wire>(v: T) {
            assert_eq!(
                encode(&v).len(),
                T::MIN_BYTES,
                "{}",
                std::any::type_name::<T>()
            );
        }
        smallest(Value::Bool(false));
        smallest(TouchAction::Scan);
        smallest(GestureTrace::new(""));
        smallest(TouchResult {
            row: RowId(0),
            position_fraction: 0.0,
            values: vec![],
            produced_at: Timestamp(0),
            kind: ResultKind::Scan,
        });
        smallest(Contribution::Pending { ticket: 0 });
        smallest(SessionOutcome::default());
        smallest(SessionReport::default());
        smallest(Response::Ack);
        smallest(Request::Snapshot);
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
            let bytes = encode_response(&Response::Report(report.clone()));
            match decode_response(&bytes).unwrap() {
                Response::Report(back) => assert_eq!(back.outcomes, report.outcomes),
                other => panic!("wrong decode: {other:?}"),
            }
        }
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
