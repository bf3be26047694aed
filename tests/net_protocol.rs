//! Integration tests of the network serving layer: loopback replay with
//! bit-identical digests, report deltas that assemble into the whole report
//! and keep a snapshot's bytes flat, malformed-frame robustness, load
//! shedding under deliberately tiny thresholds, and graceful drain.

use dbtouch::core::kernel::ObjectId;
use dbtouch::gesture::MAX_TRACE_TOUCHES;
use dbtouch::net::codec::{decode_response, encode_request, Request, Response};
use dbtouch::net::frame::{self, tag};
use dbtouch::net::{NetServer, TcpClient};
use dbtouch::server::{
    ClientSession, ExplorationClient, ExplorationServer, ServerConfig, SessionReport, ShedConfig,
    TraceOutcome,
};
use dbtouch::types::{DbTouchError, KernelConfig, RemoteSplitConfig};
use dbtouch::workload::concurrent::{
    drive_plans_over, plan_explorers, run_sequential, scenario_catalog, ExplorerPlan,
};
use dbtouch::workload::remote::{device_cloud_catalog, device_cloud_split, plan_device_cloud};
use dbtouch::workload::Scenario;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Bring up a loopback server over a seeded scenario catalog.
fn serve_scenario(
    rows: usize,
    config: ServerConfig,
) -> (
    NetServer,
    std::sync::Arc<dbtouch::core::catalog::SharedCatalog>,
    dbtouch::core::kernel::ObjectId,
) {
    let scenario = Scenario::sky_survey(rows, 17);
    let (catalog, object) = scenario_catalog(&scenario, KernelConfig::default()).unwrap();
    let server = NetServer::serve(
        config
            .with_catalog(std::sync::Arc::clone(&catalog))
            .with_listen_addr("127.0.0.1:0"),
    )
    .unwrap();
    (server, catalog, object)
}

#[test]
fn loopback_replay_digests_match_in_process() {
    let (server, catalog, object) = serve_scenario(20_000, ServerConfig::with_workers(2));
    let client = TcpClient::new(server.local_addr().to_string());

    // The same generic driver the in-process concurrency path uses, pointed
    // at the TCP transport instead.
    let plans = plan_explorers(&catalog, object, 4, 3, 1234).unwrap();
    let reports = drive_plans_over(&client, object, &plans).unwrap();
    assert_eq!(reports.len(), plans.len());
    for report in &reports {
        assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
        assert_eq!(report.traces_run(), 3);
    }

    // Bit-identical to a sequential single-user replay of the same plans:
    // the wire codec preserved every float bit and every result row.
    let networked: Vec<u64> = reports.iter().map(SessionReport::result_digest).collect();
    let sequential = run_sequential(&catalog, object, &plans).unwrap();
    assert_eq!(networked, sequential);

    // The net.* instruments saw the traffic.
    let snap = server.metrics_snapshot();
    assert_eq!(snap.scalar("net.accepted"), Some(4));
    assert!(snap.scalar("net.bytes_in").unwrap() > 0);
    assert!(snap.scalar("net.bytes_out").unwrap() > 0);
    assert_eq!(snap.scalar("net.frame_errors"), Some(0));
    assert!(snap.histogram("net.frame_nanos").unwrap().count() > 0);
    server.shutdown();
}

/// Run `plan` in one session of `client`, snapshotting after every gesture
/// when `snapshot_each`; returns those snapshots and the close report.
fn run_plan<C: ExplorationClient>(
    client: &C,
    object: ObjectId,
    plan: &ExplorerPlan,
    snapshot_each: bool,
) -> (Vec<SessionReport>, SessionReport) {
    let mut session = client.open_session().unwrap();
    session.set_action(object, plan.action.clone()).unwrap();
    let mut snapshots = Vec::new();
    for trace in &plan.traces {
        session.run_trace(object, trace.clone()).unwrap();
        if snapshot_each {
            snapshots.push(session.snapshot().unwrap());
        }
    }
    (snapshots, session.close().unwrap())
}

/// [`run_plan`] against a server of its own over a fresh catalog (so no
/// shared-cache entry of another session changes its accounting), reached
/// over loopback TCP or in-process.
fn run_plan_served(
    scenario: &Scenario,
    split: Option<RemoteSplitConfig>,
    tcp: bool,
    plan: &ExplorerPlan,
    snapshot_each: bool,
) -> (Vec<SessionReport>, SessionReport) {
    let (catalog, object) = device_cloud_catalog(scenario, split).unwrap();
    let config = ServerConfig::with_workers(1).with_catalog(catalog);
    if tcp {
        let server = NetServer::serve(config.with_listen_addr("127.0.0.1:0")).unwrap();
        let client = TcpClient::new(server.local_addr().to_string());
        let run = run_plan(&client, object, plan, snapshot_each);
        server.shutdown();
        run
    } else {
        let server = ExplorationServer::serve(config).unwrap();
        let run = run_plan(&server, object, plan, snapshot_each);
        server.shutdown();
        run
    }
}

/// A report's outcomes without their wall-clock fields, which differ run
/// to run.
fn timeless(report: &SessionReport) -> Vec<TraceOutcome> {
    let mut outcomes = report.outcomes.clone();
    for t in &mut outcomes {
        t.outcome.stats.compute_nanos = 0;
        t.outcome.stats.max_touch_nanos = 0;
    }
    outcomes
}

/// Session A snapshots after every gesture, so it receives its report as
/// deltas; session B runs the same plan and receives one report at close.
/// A's assembled report is B's, on both transports, over a plain object and
/// over a remote split whose refinements are in flight across gestures.
#[test]
fn assembled_deltas_equal_one_full_report() {
    let scenario = Scenario::sky_survey(60_000, 5);
    let (local, object) = device_cloud_catalog(&scenario, None).unwrap();
    let plans = plan_device_cloud(&local, object, 1, 4, 31).unwrap();
    let expected = run_sequential(&local, object, &plans).unwrap()[0];
    // A 2 ms link: without a snapshot in between, a slow slide's
    // refinements are typically still in flight when the next gesture runs.
    let remote = device_cloud_split(Some((2_000, 10_000)));
    for split in [None, Some(remote)] {
        for tcp in [true, false] {
            let case = format!("split {}, tcp {tcp}", split.is_some());
            let (snapshots, a) = run_plan_served(&scenario, split.clone(), tcp, &plans[0], true);
            let (_, b) = run_plan_served(&scenario, split.clone(), tcp, &plans[0], false);
            assert!(a.errors.is_empty(), "{case}: {:?}", a.errors);
            assert_eq!(a.errors, b.errors, "{case}");
            assert_eq!(a.traces_run(), plans[0].traces.len(), "{case}");
            assert_eq!(timeless(&a), timeless(&b), "{case}");
            assert_eq!(
                a.refinement_latencies.len(),
                b.refinement_latencies.len(),
                "{case}"
            );
            assert_eq!(a.result_digest(), expected, "{case}");
            assert_eq!(b.result_digest(), expected, "{case}");
            let progressive = a.total_remote().progressive_requests;
            assert_eq!(progressive > 0, split.is_some(), "{case}");
            assert_eq!(a.refinement_latencies.len() as u64, progressive, "{case}");
            // Snapshot k is a prefix of the final report.
            for (k, snapshot) in snapshots.iter().enumerate() {
                assert_eq!(snapshot.outcomes[..], a.outcomes[..=k], "{case}, {k}");
                assert_eq!(snapshot.epochs[..], a.epochs[..=k], "{case}, {k}");
                let landed = snapshot.refinement_latencies.len();
                assert_eq!(
                    snapshot.refinement_latencies[..],
                    a.refinement_latencies[..landed],
                    "{case}, {k}"
                );
            }
        }
    }
}

/// Send one request on a raw stream; returns the response and its frame's
/// size on the wire.
fn raw_call(stream: &mut TcpStream, req: &Request) -> (Response, u64) {
    frame::write_frame(stream, &encode_request(req)).unwrap();
    let (outcome, n) = frame::read_frame(stream, frame::MAX_FRAME_LEN).unwrap();
    match outcome {
        frame::ReadOutcome::Frame(p) => (decode_response(&p).unwrap(), n),
        other => panic!("expected a frame, got {other:?}"),
    }
}

/// A `Report` carries only what the session added since the previous one,
/// so the snapshot after gesture 32 of identical gestures costs what the
/// one after gesture 1 did. Judged on the server's own `net.bytes_out`
/// count, read once it has counted every byte the client received.
#[test]
fn snapshot_bytes_stay_flat_over_a_long_session() {
    let (server, catalog, object) = serve_scenario(5_000, ServerConfig::with_workers(1));
    let view = catalog.data(object).unwrap().base_view().clone();
    let trace = dbtouch::gesture::synthesizer::GestureSynthesizer::new(60.0).slide_down(&view, 0.3);
    let (mut stream, hello_ack) = raw_hello(&server, frame::PROTOCOL_VERSION);
    assert_eq!(hello_ack.first(), Some(&tag::HELLO_ACK));
    // Every frame is its payload plus a 4-byte length and a 4-byte checksum.
    let mut received = hello_ack.len() as u64 + 8;
    // The handler counts a frame just after writing it: wait for the count
    // to reach what the client holds.
    let counted = |received: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let out = server.metrics_snapshot().scalar("net.bytes_out").unwrap();
            if out == received {
                return out;
            }
            assert!(Instant::now() < deadline, "bytes_out {out} != {received}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let mut call = |req: &Request| {
        let (resp, n) = raw_call(&mut stream, req);
        received += n;
        (resp, received)
    };
    assert!(matches!(
        call(&Request::OpenSession).0,
        Response::SessionOpened(_)
    ));
    let scan = dbtouch::core::kernel::TouchAction::Scan;
    assert!(matches!(
        call(&Request::SetAction(object, scan)).0,
        Response::Ack
    ));
    let mut growth = Vec::new();
    let mut carried = Vec::new();
    for _ in 0..32 {
        let (ack, before) = call(&Request::RunTrace(object, trace.clone(), None));
        assert!(matches!(ack, Response::Ack));
        let before = counted(before);
        let (report, after) = call(&Request::Snapshot);
        growth.push(counted(after) - before);
        match report {
            Response::Report(delta) => carried.push(delta.traces_run()),
            other => panic!("expected a Report, got {other:?}"),
        }
    }
    let (first, last) = (growth[0], growth[31]);
    assert!(
        last * 10 <= first * 11,
        "snapshot bytes grew with the session: {first} B after gesture 1, {last} B after 32"
    );
    assert!(
        carried.iter().all(|&n| n == 1),
        "outcomes per report: {carried:?}"
    );
    assert!(matches!(
        call(&Request::CloseSession).0,
        Response::Report(_)
    ));
    drop(stream);
    server.shutdown();
}

#[test]
fn metrics_travel_over_the_wire() {
    let (server, _catalog, object) = serve_scenario(5_000, ServerConfig::with_workers(1));
    let client = TcpClient::new(server.local_addr().to_string());

    let mut session = client.open_session().unwrap();
    session
        .set_action(object, dbtouch::core::kernel::TouchAction::Scan)
        .unwrap();
    session.close().unwrap();

    let json = client.metrics_json().unwrap();
    let metrics = json.get("metrics").expect("metrics key");
    assert!(metrics.get("net.accepted").is_some());
    assert!(metrics.get("server.sessions_opened").is_some());
    server.shutdown();
}

/// A raw TCP peer that offers `version` in its HELLO; returns the stream and
/// the server's answer frame.
fn raw_hello(server: &NetServer, version: u64) -> (TcpStream, Vec<u8>) {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let hello = format!(
        "{{\"proto\": \"{}\", \"version\": {version}}}",
        frame::PROTOCOL_NAME
    );
    let mut payload = vec![tag::HELLO];
    payload.extend_from_slice(hello.as_bytes());
    frame::write_frame(&mut stream, &payload).unwrap();
    let (outcome, _) = frame::read_frame(&mut stream, frame::MAX_HANDSHAKE_LEN).unwrap();
    match outcome {
        frame::ReadOutcome::Frame(answer) => (stream, answer),
        other => panic!("handshake failed: {other:?}"),
    }
}

/// A raw TCP peer that completes the handshake and then misbehaves.
fn handshaken_raw_stream(server: &NetServer) -> TcpStream {
    let (stream, answer) = raw_hello(server, frame::PROTOCOL_VERSION);
    assert_eq!(answer.first(), Some(&tag::HELLO_ACK));
    stream
}

fn read_response(stream: &mut TcpStream) -> Vec<u8> {
    let (outcome, _) = frame::read_frame(stream, frame::MAX_FRAME_LEN).unwrap();
    match outcome {
        frame::ReadOutcome::Frame(p) => p,
        other => panic!("expected a frame, got {other:?}"),
    }
}

#[test]
fn other_protocol_versions_are_refused_with_a_typed_error() {
    let (server, _catalog, _object) = serve_scenario(2_000, ServerConfig::with_workers(1));
    let refused = [2, frame::PROTOCOL_VERSION - 1, frame::PROTOCOL_VERSION + 1];
    for version in refused {
        let (mut stream, answer) = raw_hello(&server, version);
        match decode_response(&answer).unwrap() {
            Response::Error(reason) => assert!(
                reason.contains("unsupported protocol version"),
                "reason: {reason}"
            ),
            other => panic!("expected an Error frame, got {other:?}"),
        }
        // The server hangs up after refusing; nothing else arrives.
        let (outcome, _) = frame::read_frame(&mut stream, frame::MAX_FRAME_LEN).unwrap();
        assert!(matches!(outcome, frame::ReadOutcome::Eof), "{outcome:?}");
    }
    let snap = server.metrics_snapshot();
    assert_eq!(snap.scalar("net.frame_errors"), Some(refused.len() as u64));
    // A current client is served as usual afterwards.
    let client = TcpClient::new(server.local_addr().to_string());
    client.open_session().unwrap().close().unwrap();
    server.shutdown();
}

#[test]
fn malformed_frames_get_errors_never_panics() {
    let (server, _catalog, object) = serve_scenario(2_000, ServerConfig::with_workers(1));

    // 1. Bad checksum: explicit error response, connection survives.
    {
        let mut stream = handshaken_raw_stream(&server);
        let payload = [tag::OPEN_SESSION];
        stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(&payload).unwrap();
        stream
            .write_all(&(frame::checksum(&payload) ^ 0xdead_beef).to_le_bytes())
            .unwrap();
        let resp = read_response(&mut stream);
        assert_eq!(resp.first(), Some(&tag::ERROR));
        // Same connection still serves a valid request afterwards.
        frame::write_frame(&mut stream, &[tag::OPEN_SESSION]).unwrap();
        let resp = read_response(&mut stream);
        assert_eq!(resp.first(), Some(&tag::SESSION_OPENED));
    }

    // 2. Unknown frame type: error response, connection survives.
    {
        let mut stream = handshaken_raw_stream(&server);
        frame::write_frame(&mut stream, &[0x7f, 1, 2, 3]).unwrap();
        let resp = read_response(&mut stream);
        assert_eq!(resp.first(), Some(&tag::ERROR));
        frame::write_frame(&mut stream, &[tag::METRICS]).unwrap();
        let resp = read_response(&mut stream);
        assert_eq!(resp.first(), Some(&tag::METRICS_JSON));
    }

    // 3. Undecodable payload (valid checksum, garbage body): error response.
    {
        let mut stream = handshaken_raw_stream(&server);
        let mut garbage = vec![tag::RUN_TRACE];
        garbage.extend_from_slice(&[0xff; 7]);
        frame::write_frame(&mut stream, &garbage).unwrap();
        let resp = read_response(&mut stream);
        assert_eq!(resp.first(), Some(&tag::ERROR));
    }

    // 4. Oversize length prefix: error response, then the connection closes.
    // A request is capped far below a response: one byte over the request
    // cap is refused before any payload arrives, not waited for.
    for len in [u32::MAX, frame::MAX_REQUEST_LEN as u32 + 1] {
        let mut stream = handshaken_raw_stream(&server);
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&len.to_le_bytes()).unwrap();
        let resp = read_response(&mut stream);
        assert_eq!(resp.first(), Some(&tag::ERROR), "length {len}");
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0);
    }

    // 5. Truncation: die mid-frame; the server cleans up without panicking.
    {
        let mut stream = handshaken_raw_stream(&server);
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[tag::RUN_TRACE, 1, 2, 3]).unwrap();
        drop(stream);
    }

    // Every abuse above was counted, and the server still works end to end.
    std::thread::sleep(Duration::from_millis(100));
    let snap = server.metrics_snapshot();
    assert!(
        snap.scalar("net.frame_errors").unwrap() >= 4,
        "frame_errors: {:?}",
        snap.scalar("net.frame_errors")
    );
    let client = TcpClient::new(server.local_addr().to_string());
    let mut session = client.open_session().unwrap();
    session
        .set_action(object, dbtouch::core::kernel::TouchAction::Scan)
        .unwrap();
    let report = session.close().unwrap();
    assert!(report.errors.is_empty());
    server.shutdown();
}

#[test]
fn tiny_thresholds_shed_explicitly() {
    let shed = ShedConfig {
        max_live_sessions: Some(1),
        retry_after_ms: 37,
        ..ShedConfig::default()
    };
    let (server, _catalog, object) =
        serve_scenario(2_000, ServerConfig::with_workers(1).with_shed(shed));
    let client = TcpClient::new(server.local_addr().to_string());

    // First session is admitted; the second is shed with the configured
    // backoff and an explanation, not queued and not hung.
    let mut first = client.open_session().unwrap();
    first
        .set_action(object, dbtouch::core::kernel::TouchAction::Scan)
        .unwrap();
    match client.open_session() {
        Err(DbTouchError::Overloaded {
            retry_after_ms,
            reason,
        }) => {
            assert_eq!(retry_after_ms, 37);
            assert!(reason.contains("live sessions"), "reason: {reason}");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(server.metrics_snapshot().scalar("net.shed").unwrap() >= 1);

    // Closing the first session frees the slot.
    first.close().unwrap();
    let second = client.open_session().unwrap();
    second.close().unwrap();

    // An impossible p99 target sheds traces on an already-open session:
    // the open and the first trace are admitted (no touch latencies yet),
    // then the recorded latencies trip the pressure check. `RunTrace` is
    // acked on enqueue, so a snapshot (a barrier) makes sure the first trace
    // has run and recorded its latency before the second is offered.
    let (traffic_server, traffic_catalog, object2) = serve_scenario(
        2_000,
        ServerConfig::with_workers(1).with_shed(ShedConfig {
            max_touch_p99_nanos: Some(0),
            retry_after_ms: 11,
            ..ShedConfig::default()
        }),
    );
    let traffic_client = TcpClient::new(traffic_server.local_addr().to_string());
    let mut session = traffic_client.open_session().unwrap();
    session
        .set_action(object2, dbtouch::core::kernel::TouchAction::Scan)
        .unwrap();
    let view = traffic_catalog.data(object2).unwrap().base_view().clone();
    let trace = dbtouch::gesture::synthesizer::GestureSynthesizer::new(60.0).slide_down(&view, 0.2);
    session.run_trace(object2, trace.clone()).unwrap();
    session.snapshot().unwrap();
    match session.run_trace(object2, trace) {
        Err(DbTouchError::Overloaded { retry_after_ms, .. }) => {
            assert_eq!(retry_after_ms, 11)
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    session.close().unwrap();

    server.shutdown();
    traffic_server.shutdown();
}

/// Admission reads its signals from the live instruments by key: serving
/// opens and traces never takes a `metrics_snapshot()` scrape, whether no
/// threshold is configured (nothing is read) or one is (one source is read).
#[test]
fn admission_takes_no_scrape_per_request() {
    for shed in [
        ShedConfig::default(),
        ShedConfig {
            max_touch_p99_nanos: Some(u64::MAX),
            ..ShedConfig::default()
        },
    ] {
        let (server, catalog, object) =
            serve_scenario(5_000, ServerConfig::with_workers(2).with_shed(shed));
        // `metric` is itself scrape-free, so the counter can be watched
        // without moving it.
        let scrapes = || catalog.telemetry().metric("obs.scrapes");
        let before = scrapes();
        assert!(before.is_some());

        let client = TcpClient::new(server.local_addr().to_string());
        let plans = plan_explorers(&catalog, object, 3, 4, 99).unwrap();
        let reports = drive_plans_over(&client, object, &plans).unwrap();
        assert_eq!(reports.iter().map(|r| r.traces_run()).sum::<usize>(), 12);
        assert_eq!(scrapes(), before);

        // A scrape moves it — by exactly one.
        let snap = server.metrics_snapshot();
        assert_eq!(snap.scalar("net.shed"), Some(0));
        assert_ne!(scrapes(), before);
        server.shutdown();
    }
}

/// A trace one touch over [`MAX_TRACE_TOUCHES`] is refused as an invalid
/// gesture before it is queued — `run_trace` returns the typed error — and
/// the session serves its next trace as if the refused one had never
/// arrived.
#[test]
fn a_trace_over_the_touch_cap_is_an_invalid_gesture() {
    let (server, catalog, object) = serve_scenario(10_000, ServerConfig::with_workers(1));
    let client = TcpClient::new(server.local_addr().to_string());
    let plans = plan_explorers(&catalog, object, 1, 1, 77).unwrap();
    let plan = &plans[0];
    let mut oversized = plan.traces[0].clone();
    let last = *oversized.events.last().unwrap();
    oversized.events.resize(MAX_TRACE_TOUCHES + 1, last);

    let mut session = client.open_session().unwrap();
    session.set_action(object, plan.action.clone()).unwrap();
    // Refused at the edge, before it is queued: the reply is a typed error.
    let refused = session
        .run_trace(object, oversized)
        .unwrap_err()
        .to_string();
    let invalid = DbTouchError::InvalidGesture(String::new()).to_string();
    assert!(refused.contains(&invalid), "{refused}");
    assert!(
        refused.contains(&(MAX_TRACE_TOUCHES + 1).to_string()),
        "{refused}"
    );
    session.run_trace(object, plan.traces[0].clone()).unwrap();
    assert_eq!(session.stamped_trace_ids().len(), 1);
    let report = session.close().unwrap();

    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.traces_run(), 1);
    let expected = run_sequential(&catalog, object, &plans).unwrap();
    assert_eq!(report.result_digest(), expected[0]);
    server.shutdown();
}

#[test]
fn graceful_drain_delivers_final_report() {
    let (server, catalog, object) = serve_scenario(10_000, ServerConfig::with_workers(1));
    let client = TcpClient::new(server.local_addr().to_string());
    let plans = plan_explorers(&catalog, object, 1, 4, 2024).unwrap();
    let plan = &plans[0];

    // Three gestures, each delivered by its own snapshot, then one more
    // trace acknowledged but not snapshotted.
    let mut session = client.open_session().unwrap();
    session.set_action(object, plan.action.clone()).unwrap();
    for (g, trace) in plan.traces[..3].iter().enumerate() {
        session.run_trace(object, trace.clone()).unwrap();
        assert_eq!(session.snapshot().unwrap().traces_run(), g + 1);
    }
    session.run_trace(object, plan.traces[3].clone()).unwrap();

    // Shut down while the client sits idle: the handler closes the session,
    // flushes the acknowledged trace through the close barrier and sends
    // GoAway with the rest of the report.
    let shutdown = std::thread::spawn(move || server.shutdown());
    // The client's next request crosses the drain and fails...
    let err = loop {
        match session.snapshot() {
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, DbTouchError::Remote(_) | DbTouchError::Io(_)));
    // ...but the whole session was delivered: every gesture from the first
    // on, the one acknowledged last included, digesting like the replay.
    let report = session
        .take_goaway_report()
        .expect("drain should deliver the final SessionReport");
    assert_eq!(report.traces_run(), 4);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let expected = run_sequential(&catalog, object, &plans).unwrap();
    assert_eq!(report.result_digest(), expected[0]);
    drop(session);
    shutdown.join().unwrap();

    // And a fresh connection is refused (the listener is gone).
    let refused = TcpClient::new("127.0.0.1:1".to_string());
    assert!(refused.open_session().is_err());
}
