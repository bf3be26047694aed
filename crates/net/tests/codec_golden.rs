//! The wire format, pinned to [`PROTOCOL_VERSION`]: a fixed corpus of
//! requests and responses, and the exact bytes each one encodes to.
//!
//! The corpus covers every `Request` and `Response` variant and every
//! variant of the types they carry (`Value`, `Predicate`, `CompareOp`,
//! `AggregateKind`, `TouchAction`, `TouchPhase`, `ResultKind`,
//! `Contribution`), a `SessionStats` whose fields all differ, and `RunTrace`
//! with and without a trace context. Any change to a layout changes a line
//! below, and that change must come with a `PROTOCOL_VERSION` bump: rerun
//! this test, paste the table it prints, and set
//! [`GOLDEN_PROTOCOL_VERSION`] to the new version.
//!
//! A version bump need not move a byte: version 7 changed what a `Report`
//! means (a delta of the session since its previous report, not the whole
//! report) and left every layout alone, so its corpus hex is byte-identical
//! to version 6's. Version 8 dropped the `ResultStream` fade policy (16
//! bytes per outcome that no reader used) and retired `ResultKind` tag 4.
//!
//! Every frame is at most [`MAX_GOLDEN_FRAME`] bytes, so exhaustive
//! mutation of the corpus (`codec_props.rs`) stays fast in debug builds.

use dbtouch_core::kernel::{ObjectId, TouchAction};
use dbtouch_core::operators::aggregate::AggregateKind;
use dbtouch_core::operators::filter::{CompareOp, Predicate};
use dbtouch_core::remote::RemoteStats;
use dbtouch_core::remote_exec::{Contribution, PendingRefinement, RefinementLedger};
use dbtouch_core::result::{ResultKind, ResultStream, TouchResult};
use dbtouch_core::session::{SessionOutcome, SessionStats};
use dbtouch_gesture::touch::{TouchEvent, TouchPhase};
use dbtouch_gesture::trace::GestureTrace;
use dbtouch_net::codec::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use dbtouch_net::PROTOCOL_VERSION;
use dbtouch_obs::{HistogramSnapshot, WireTraceContext};
use dbtouch_server::{SessionReport, TraceOutcome};
use dbtouch_types::{PointCm, RowId, Timestamp, Value};
use std::collections::BTreeMap;

/// The protocol version the hex below was generated under.
pub const GOLDEN_PROTOCOL_VERSION: u64 = 8;

/// Upper bound on any corpus frame.
pub const MAX_GOLDEN_FRAME: usize = 2 << 10;

/// One corpus entry: a request or a response.
pub enum Frame {
    Req(Request),
    Resp(Box<Response>),
}

impl Frame {
    fn encode(&self) -> Vec<u8> {
        match self {
            Frame::Req(r) => encode_request(r),
            Frame::Resp(r) => encode_response(r),
        }
    }
}

fn trace() -> GestureTrace {
    let event = |x, y, t, phase, finger| TouchEvent {
        location: PointCm { x, y },
        timestamp: Timestamp(t),
        phase,
        finger,
    };
    GestureTrace {
        target: "col".into(),
        events: vec![
            event(0.5, 1.0, 0, TouchPhase::Began, 0),
            event(0.5, 1.25, 16, TouchPhase::Moved, 0),
            event(0.5, 1.25, 33, TouchPhase::Stationary, 1),
            event(-0.0, 9.75, 50, TouchPhase::Ended, 1),
        ],
    }
}

/// A predicate tree with every `Predicate` variant, every `CompareOp` and
/// every `Value` variant.
fn predicate() -> Predicate {
    Predicate::And(vec![
        Predicate::compare(CompareOp::Eq, Value::Int(-3)),
        Predicate::compare(CompareOp::Ne, Value::Float(2.5)),
        Predicate::compare(CompareOp::Lt, Value::Bool(true)),
        Predicate::compare(CompareOp::Le, Value::Str("zz".into())),
        Predicate::compare(CompareOp::Gt, Value::Timestamp(1_700_000_000_000)),
        Predicate::compare(CompareOp::Ge, Value::Float(-0.0)),
        Predicate::Or(vec![
            Predicate::Between {
                low: Value::Int(1),
                high: Value::Int(9),
            },
            Predicate::Not(Box::new(Predicate::compare(
                CompareOp::Eq,
                Value::Bool(false),
            ))),
        ]),
        Predicate::Or(vec![]),
    ])
}

/// Every field set, each to a distinct value.
fn stats() -> SessionStats {
    SessionStats {
        touches: 101,
        gesture_events: 102,
        entries_returned: 103,
        rows_touched: 104,
        bytes_touched: 105,
        duplicate_touches: 106,
        zooms: 107,
        rotations: 108,
        refinements: 110,
        index_skips: 111,
        segments_scanned: 112,
        pruned_segments: 113,
        compute_nanos: 115,
        max_touch_nanos: 116,
        sample_level_usage: BTreeMap::from([(0, 117), (3, 118)]),
        shared_cache_hits: 121,
        shared_cache_misses: 122,
        shared_cache_inserts: 123,
        remote: RemoteStats {
            progressive_requests: 126,
            rows_shipped: 127,
            remote_wait_micros: 128,
        },
        remote_refinements_applied: 130,
        remote_refinements_dropped: 131,
    }
}

/// An outcome with one result per `ResultKind`, every `Value` variant,
/// pending refinements and every `Contribution` variant.
fn outcome() -> SessionOutcome {
    let kinds = [
        ResultKind::Scan,
        ResultKind::RunningAggregate,
        ResultKind::Summary,
        ResultKind::FilteredScan,
        ResultKind::GroupResult,
        ResultKind::Tuple,
    ];
    let mut results = ResultStream::new();
    for (i, kind) in kinds.into_iter().enumerate() {
        let values = match kind {
            ResultKind::Tuple => vec![
                Value::Int(7),
                Value::Float(f64::INFINITY),
                Value::Bool(true),
                Value::Str("αβ".into()),
                Value::Timestamp(-1),
            ],
            ResultKind::RunningAggregate => vec![],
            _ => vec![Value::Float(i as f64 * 0.5)],
        };
        results.push(TouchResult {
            row: RowId(1_000 + i as u64),
            position_fraction: i as f64 / 8.0,
            values,
            produced_at: Timestamp(16 * i as u64),
            kind,
        });
    }
    SessionOutcome {
        results,
        stats: stats(),
        final_aggregate: Some(3.25),
        final_groups: vec![(Value::Str("a".into()), 1.5), (Value::Bool(false), -2.0)],
        pending: vec![PendingRefinement {
            ticket: 5,
            object_identity: 6,
            result_index: 2,
            contrib_index: 1,
            kind: AggregateKind::Avg,
            level: 3,
        }],
        ledger: RefinementLedger {
            kind: Some(AggregateKind::Avg),
            contribs: vec![
                Contribution::Ready {
                    count: 4,
                    sum: 10.5,
                    min: Some(0.5),
                    max: None,
                },
                Contribution::Pending { ticket: 5 },
                Contribution::Dropped { ticket: 4 },
            ],
        },
    }
}

fn report() -> SessionReport {
    let mut latency_hist = HistogramSnapshot::new();
    for v in [0, 1, 900, 1_500, 1_000_000] {
        latency_hist.record(v);
    }
    SessionReport {
        session_id: 7,
        outcomes: vec![
            TraceOutcome {
                object: ObjectId(3),
                outcome: outcome(),
            },
            TraceOutcome {
                object: ObjectId(4),
                outcome: SessionOutcome::default(),
            },
        ],
        latency_hist,
        max_touch_nanos: 1_000_000,
        epochs: vec![1, 2],
        restructures_seen: 1,
        refinement_latencies: vec![40_000],
        refinement_blocked_nanos: 12_345,
        errors: vec!["unknown object 9".into(), String::new()],
    }
}

/// The corpus, in table order.
pub fn corpus() -> Vec<(&'static str, Frame)> {
    use Frame::Req;
    let resp = |r| Frame::Resp(Box::new(r));
    let action = |a| Req(Request::SetAction(ObjectId(3), a));
    vec![
        ("open_session", Req(Request::OpenSession)),
        ("set_action/scan", action(TouchAction::Scan)),
        (
            "set_action/aggregate",
            action(TouchAction::Aggregate(AggregateKind::Count)),
        ),
        (
            "set_action/summary",
            action(TouchAction::Summary {
                half_window: Some(32),
                kind: AggregateKind::Sum,
            }),
        ),
        (
            "set_action/summary_default_window",
            action(TouchAction::Summary {
                half_window: None,
                kind: AggregateKind::Avg,
            }),
        ),
        (
            "set_action/filtered_scan",
            action(TouchAction::FilteredScan {
                predicate: predicate(),
            }),
        ),
        (
            "set_action/filtered_aggregate",
            action(TouchAction::FilteredAggregate {
                predicate: Predicate::compare(CompareOp::Lt, 4.0),
                kind: AggregateKind::Max,
            }),
        ),
        ("set_action/tuple", action(TouchAction::Tuple)),
        (
            "set_action/group_by",
            action(TouchAction::GroupBy {
                group_attribute: 2,
                value_attribute: 5,
                kind: AggregateKind::Min,
            }),
        ),
        (
            "run_trace",
            Req(Request::RunTrace(ObjectId(3), trace(), None)),
        ),
        (
            "run_trace/traced",
            Req(Request::RunTrace(
                ObjectId(3),
                trace(),
                Some(WireTraceContext {
                    trace: (1 << 63) | 11,
                    root_span: (1 << 63) | 12,
                }),
            )),
        ),
        ("snapshot", Req(Request::Snapshot)),
        ("close_session", Req(Request::CloseSession)),
        ("metrics", Req(Request::Metrics)),
        ("dump_traces", Req(Request::DumpTraces)),
        ("metrics_text", Req(Request::MetricsText)),
        ("session_opened", resp(Response::SessionOpened(42))),
        ("ack", resp(Response::Ack)),
        ("report", resp(Response::Report(report()))),
        (
            "metrics_json",
            resp(Response::MetricsJson("{\"net.shed\": 0}".into())),
        ),
        ("error", resp(Response::Error("no session open".into()))),
        (
            "shed",
            resp(Response::Shed {
                retry_after_ms: 250,
                reason: "live sessions at cap".into(),
            }),
        ),
        ("go_away", resp(Response::GoAway(None))),
        (
            "go_away/report",
            resp(Response::GoAway(Some(SessionReport {
                session_id: 9,
                errors: vec!["drained".into()],
                ..SessionReport::default()
            }))),
        ),
        ("traces_json", resp(Response::TracesJson("[]".into()))),
        (
            "metrics_text_reply",
            resp(Response::MetricsText("net_shed 0\n".into())),
        ),
    ]
}

/// Each corpus entry's frame payload (tag byte first), as lowercase hex.
pub const GOLDEN: &[(&str, &str)] = &[
    ("open_session", "10"),
    ("set_action/scan", "11030000000000000000"),
    ("set_action/aggregate", "1103000000000000000100"),
    (
        "set_action/summary",
        "1103000000000000000201200000000000000001",
    ),
    (
        "set_action/summary_default_window",
        "110300000000000000020002",
    ),
    (
        "set_action/filtered_scan",
        "110300000000000000030208000000000000fdffffffffffffff000101000000\
         000000044000020201000303020000007a7a0004040068e5cf8b010000000501\
         0000000000000080030200000001000100000000000000000900000000000000\
         04000002000300000000",
    ),
    (
        "set_action/filtered_aggregate",
        "11030000000000000004000201000000000000104004",
    ),
    ("set_action/tuple", "11030000000000000005"),
    (
        "set_action/group_by",
        "110300000000000000060200000000000000050000000000000003",
    ),
    (
        "run_trace",
        "12030000000000000003000000636f6c04000000000000000000e03f00000000\
         0000f03f00000000000000000000000000000000e03f000000000000f43f1000\
         0000000000000100000000000000e03f000000000000f43f2100000000000000\
         02010000000000000080000000000080234032000000000000000301",
    ),
    (
        "run_trace/traced",
        "12030000000000000003000000636f6c04000000000000000000e03f00000000\
         0000f03f00000000000000000000000000000000e03f000000000000f43f1000\
         0000000000000100000000000000e03f000000000000f43f2100000000000000\
         02010000000000000080000000000080234032000000000000000301010b0000\
         00000000800c00000000000080",
    ),
    ("snapshot", "13"),
    ("close_session", "14"),
    ("metrics", "15"),
    ("dump_traces", "16"),
    ("metrics_text", "17"),
    ("session_opened", "202a00000000000000"),
    ("ack", "21"),
    (
        "report",
        "22070000000000000002000000030000000000000006000000e8030000000000\
         00000000000000000001000000010000000000000000000000000000000000e9\
         03000000000000000000000000c03f00000000100000000000000001ea030000\
         00000000000000000000d03f0100000001000000000000f03f20000000000000\
         0002eb03000000000000000000000000d83f0100000001000000000000f83f30\
         0000000000000003ec03000000000000000000000000e03f0100000001000000\
         0000000040400000000000000005ed03000000000000000000000000e43f0500\
         000000070000000000000001000000000000f07f02010304000000ceb1ceb204\
         ffffffffffffffff500000000000000006650000000000000066000000000000\
         006700000000000000680000000000000069000000000000006a000000000000\
         006b000000000000006c000000000000006e000000000000006f000000000000\
         0070000000000000007100000000000000730000000000000074000000000000\
         000200000000750000000000000003760000000000000079000000000000007a\
         000000000000007b000000000000007e000000000000007f0000000000000080\
         0000000000000082000000000000008300000000000000010000000000000a40\
         02000000030100000061000000000000f83f020000000000000000c001000000\
         0500000000000000060000000000000002000000000000000100000000000000\
         0203010203000000000400000000000000000000000000254001000000000000\
         e03f000105000000000000000204000000000000000400000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000500000000000000a14b0f0000000000000000000000000040420f0000\
         000000050000000001000000000000000101000000000000000a010000000000\
         00000b010000000000000014010000000000000040420f000000000002000000\
         01000000000000000200000000000000010000000000000001000000409c0000\
         0000000039300000000000000200000010000000756e6b6e6f776e206f626a65\
         6374203900000000",
    ),
    ("metrics_json", "230f0000007b226e65742e73686564223a20307d"),
    ("error", "240f0000006e6f2073657373696f6e206f70656e"),
    (
        "shed",
        "25fa00000000000000140000006c6976652073657373696f6e73206174206361\
         70",
    ),
    ("go_away", "2600"),
    (
        "go_away/report",
        "260109000000000000000000000000000000000000000000000000000000ffff\
         ffffffffffff0000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000100000007000000647261696e65\
         64",
    ),
    ("traces_json", "27020000005b5d"),
    ("metrics_text_reply", "280b0000006e65745f7368656420300a"),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The bytes of a golden hex string.
pub fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// The corpus encoded now, rendered as the source of [`GOLDEN`].
fn regenerated(corpus: &[(&str, Frame)]) -> String {
    let mut out = String::from("pub const GOLDEN: &[(&str, &str)] = &[\n");
    for (name, frame) in corpus {
        let hex = hex(&frame.encode());
        let lines: Vec<&str> = (0..hex.len())
            .step_by(64)
            .map(|i| &hex[i..(i + 64).min(hex.len())])
            .collect();
        out += &format!(
            "    (\n        \"{name}\",\n        \"{}\",\n    ),\n",
            lines.join("\\\n         ")
        );
    }
    out + "];\n"
}

#[test]
fn golden_corpus_is_for_this_protocol_version() {
    assert_eq!(GOLDEN_PROTOCOL_VERSION, PROTOCOL_VERSION);
}

#[test]
fn every_corpus_frame_encodes_to_its_golden_bytes() {
    let corpus = corpus();
    let names: Vec<&str> = corpus.iter().map(|(name, _)| *name).collect();
    let golden_names: Vec<&str> = GOLDEN.iter().map(|(name, _)| *name).collect();
    let same = names == golden_names
        && corpus
            .iter()
            .zip(GOLDEN)
            .all(|((_, frame), (_, golden))| hex(&frame.encode()) == *golden);
    assert!(
        same,
        "the wire format changed; if that is intended, bump PROTOCOL_VERSION and replace \
         GOLDEN with:\n{}",
        regenerated(&corpus)
    );
}

#[test]
fn every_golden_frame_decodes_and_reencodes_to_the_same_bytes() {
    for ((name, frame), (_, golden)) in corpus().iter().zip(GOLDEN) {
        let bytes = unhex(golden);
        let again = match frame {
            Frame::Req(_) => encode_request(&decode_request(&bytes).unwrap()),
            Frame::Resp(_) => encode_response(&decode_response(&bytes).unwrap()),
        };
        assert_eq!(hex(&again), *golden, "{name}");
    }
}

#[test]
fn golden_frames_stay_small() {
    for (name, golden) in GOLDEN {
        assert!(golden.len() / 2 <= MAX_GOLDEN_FRAME, "{name}");
    }
}
