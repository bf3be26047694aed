//! The frame payloads, [`Request`] and [`Response`], in the layout language
//! of [`dbtouch_types::wire`].
//!
//! Every value a payload carries — a gesture trace, a touch action, a
//! session report — declares its layout next to its own type, in its own
//! crate; this module declares only the two payload enums and `RunTrace`'s
//! trace-context trailer. `tests/codec_golden.rs` pins the bytes to
//! [`PROTOCOL_VERSION`](crate::PROTOCOL_VERSION).
//!
//! Floats travel as their IEEE 754 bit patterns, so a [`SessionReport`]
//! decoded from the wire digests ([`SessionReport::result_digest`])
//! bit-identically to the in-process report it was encoded from: that is
//! what makes networked replay verifiable against a sequential kernel replay.
//! The decoders are total: any byte sequence either decodes or returns a
//! [`DbTouchError::ParseError`], never a panic.
//!
//! JSON appears on the wire in exactly two places — the version handshake
//! and the metrics debug dump — both as opaque text payloads.

use dbtouch_core::kernel::{ObjectId, TouchAction};
use dbtouch_gesture::trace::GestureTrace;
use dbtouch_obs::WireTraceContext;
use dbtouch_server::SessionReport;
use dbtouch_types::wire::{decode, encode, Wire, WireReader, WireWriter};
use dbtouch_types::{DbTouchError, Result};

use crate::frame::tag;

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
    /// Barrier + what the session added since its previous report.
    Snapshot,
    /// Close the session, returning the rest of its report.
    CloseSession,
    /// The server's metrics snapshot as JSON text.
    Metrics,
    /// Retained span trees as Chrome trace-event JSON.
    DumpTraces,
    /// The metrics snapshot as flat text exposition.
    MetricsText,
}

impl Request {
    /// The variant's tag byte and name.
    fn tag(&self) -> (u8, &'static str) {
        match self {
            Request::OpenSession => (tag::OPEN_SESSION, "OpenSession"),
            Request::SetAction(..) => (tag::SET_ACTION, "SetAction"),
            Request::RunTrace(..) => (tag::RUN_TRACE, "RunTrace"),
            Request::Snapshot => (tag::SNAPSHOT, "Snapshot"),
            Request::CloseSession => (tag::CLOSE_SESSION, "CloseSession"),
            Request::Metrics => (tag::METRICS, "Metrics"),
            Request::DumpTraces => (tag::DUMP_TRACES, "DumpTraces"),
            Request::MetricsText => (tag::METRICS_TEXT, "MetricsText"),
        }
    }

    /// The variant's name, for error messages.
    pub(crate) fn name(&self) -> &'static str {
        self.tag().1
    }
}

/// One tag byte, then the variant's fields — the `wire_enum!` layout, written
/// out by hand for `RunTrace`'s trailer, which is not an `Option` layout: an
/// untraced frame simply ends after the trace, so an absent context costs
/// zero bytes, and a present one is a `1` byte and its two ids. The trailer
/// must be the last field of its frame.
impl Wire for Request {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, w: &mut WireWriter) {
        self.tag().0.put(w);
        match self {
            Request::SetAction(object, action) => {
                object.put(w);
                action.put(w);
            }
            Request::RunTrace(object, trace, ctx) => {
                object.put(w);
                trace.put(w);
                if let Some(ctx) = ctx {
                    1u8.put(w);
                    ctx.trace.put(w);
                    ctx.root_span.put(w);
                }
            }
            _ => {}
        }
    }
    #[inline]
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.get::<u8>()? {
            tag::OPEN_SESSION => Request::OpenSession,
            tag::SET_ACTION => Request::SetAction(r.get()?, r.get()?),
            tag::RUN_TRACE => Request::RunTrace(r.get()?, r.get()?, trace_context(r)?),
            tag::SNAPSHOT => Request::Snapshot,
            tag::CLOSE_SESSION => Request::CloseSession,
            tag::METRICS => Request::Metrics,
            tag::DUMP_TRACES => Request::DumpTraces,
            tag::METRICS_TEXT => Request::MetricsText,
            found => return Err(bad(format!("invalid Request tag 0x{found:02x}"))),
        })
    }
}

/// `RunTrace`'s trailer: nothing when the frame ends, else a presence byte
/// that must be `1`, then the trace and root-span ids.
fn trace_context(r: &mut WireReader<'_>) -> Result<Option<WireTraceContext>> {
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

fn bad(msg: String) -> DbTouchError {
    DbTouchError::ParseError(msg)
}

dbtouch_types::wire_enum! {
    /// A decoded response frame.
    #[derive(Debug)]
    pub enum Response {
        /// The session is open; carries its id.
        tag::SESSION_OPENED => SessionOpened(id: u64),
        /// The request completed with nothing to return.
        tag::ACK => Ack,
        /// A session report (snapshot or close) as a delta: its `Vec`s hold
        /// only what the session added since its previous report, its
        /// scalars their current values. The client rebuilds the whole
        /// report with `SessionReport::absorb`.
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
        /// The server is draining; optionally carries the session's last
        /// report delta (what it added since its previous `Report`).
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
    use dbtouch_core::operators::aggregate::AggregateKind;
    use dbtouch_core::operators::filter::{CompareOp, Predicate};
    use dbtouch_gesture::synthesizer::GestureSynthesizer;
    use dbtouch_obs::HistogramSnapshot;
    use dbtouch_types::{SizeCm, Value};

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

    /// `MIN_BYTES` is what the smallest payload actually encodes to.
    #[test]
    fn min_bytes_is_the_smallest_encoding() {
        assert_eq!(encode(&Response::Ack).len(), Response::MIN_BYTES);
        assert_eq!(encode(&Request::Snapshot).len(), Request::MIN_BYTES);
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

    /// The server's request cap leaves room for a trace one touch over
    /// `MAX_TRACE_TOUCHES`, so it is refused as an invalid gesture, not as an
    /// oversize frame.
    #[test]
    fn an_over_cap_trace_fits_under_the_request_cap() {
        let mut trace = sample_trace();
        let last = *trace.events.last().unwrap();
        trace
            .events
            .resize(dbtouch_gesture::trace::MAX_TRACE_TOUCHES + 1, last);
        let ctx = WireTraceContext {
            trace: dbtouch_obs::CLIENT_ID_BIT | 1,
            root_span: dbtouch_obs::CLIENT_ID_BIT | 2,
        };
        let frame = encode_request(&Request::RunTrace(ObjectId(u64::MAX), trace, Some(ctx)));
        assert!(
            frame.len() <= crate::MAX_REQUEST_LEN,
            "{} > {}",
            frame.len(),
            crate::MAX_REQUEST_LEN
        );
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
