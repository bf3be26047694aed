//! Acceptance tests for end-to-end causal tracing: a loopback TCP run under
//! 16 concurrent sessions, live catalog churn, and the overlapped remote
//! executor yields tail-sampled span trees that are rooted, acyclic, and
//! interval-nested; every tree carries the trace id the client stamped into
//! its `RunTrace` frame; the Perfetto export parses; and tracing never
//! steers results — digests are bit-identical with spans on or off.

use dbtouch::obs::{SpanRecord, SpanTree, CLIENT_ID_BIT};
use dbtouch::prelude::*;
use dbtouch::types::RemoteSplitConfig;
use dbtouch::workload::concurrent::{plan_hot_object, run_concurrent, scenario_catalog};
use dbtouch::workload::Scenario;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Every structural invariant a retained span tree must hold.
fn assert_tree_well_formed(tree: &SpanTree) {
    let by_id: std::collections::HashMap<u64, &SpanRecord> =
        tree.spans.iter().map(|s| (s.id, s)).collect();
    assert_eq!(by_id.len(), tree.spans.len(), "span ids unique per tree");

    // Exactly one root, and it is the first span recorded.
    let roots: Vec<&SpanRecord> = tree.spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "trace {} has one root", tree.trace);
    let root = roots[0];
    assert_eq!(tree.spans[0].id, root.id, "root recorded first");

    for span in &tree.spans {
        // Finished trees never leak open spans.
        assert_ne!(span.duration_nanos, u64::MAX, "{} closed", span.name);
        if span.parent == 0 {
            continue;
        }
        // Acyclic by construction: every parent already exists and, walking
        // up, terminates at the root.
        let parent = by_id
            .get(&span.parent)
            .unwrap_or_else(|| panic!("{} has a recorded parent", span.name));
        // Late spans (refinements landing after the touch answered) are
        // causally linked but exempt from interval containment.
        if span.late {
            assert_eq!(span.parent, root.id, "late spans hang off the root");
            continue;
        }
        let end = span.start_nanos + span.duration_nanos;
        let parent_end = parent.start_nanos + parent.duration_nanos;
        assert!(
            span.start_nanos >= parent.start_nanos && end <= parent_end,
            "{} [{}, {end}] nests inside {} [{}, {parent_end}]",
            span.name,
            span.start_nanos,
            parent.name,
            parent.start_nanos,
        );
    }
}

#[test]
fn loopback_tracing_yields_well_formed_tail_sampled_trees() {
    // Overlapped remote split on a fast simulated link, and a zero tail
    // threshold so every finished touch is tail-sampled.
    let split = RemoteSplitConfig::default()
        .with_local_min_level(11)
        .with_network(300, 10_000);
    let config = KernelConfig::default()
        .with_sample_levels(12)
        .with_remote_split(Some(split))
        .with_trace_tail_threshold_micros(0)
        .with_trace_retained_capacity(128);
    let catalog = Arc::new(SharedCatalog::new(config));
    let object = catalog
        .load_column("col", (0..60_000).collect(), SizeCm::new(2.0, 10.0))
        .unwrap();
    let table = Table::from_columns(
        "t",
        vec![
            Column::from_i64("id", (0..10_000).collect()),
            Column::from_f64("v", (0..10_000).map(|i| i as f64).collect()),
        ],
    )
    .unwrap();
    let tid = catalog.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
    let view = catalog.data(object).unwrap().base_view().clone();

    let server = NetServer::serve(
        ServerConfig::with_workers(4)
            .with_catalog(Arc::clone(&catalog))
            .with_listen_addr("127.0.0.1:0"),
    )
    .unwrap();
    let client = TcpClient::new(server.local_addr().to_string());

    // Live catalog churn while the explorers run.
    let done = Arc::new(AtomicBool::new(false));
    let churn = {
        let catalog = Arc::clone(&catalog);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                let cid = catalog
                    .drag_column_out(tid, "v", SizeCm::new(2.0, 10.0))
                    .unwrap();
                catalog.drag_column_into(tid, cid).unwrap();
            }
        })
    };

    // 16 concurrent TCP sessions, each stamping its own trace ids.
    let explorers: Vec<_> = (0..16)
        .map(|_| {
            let client = client.clone();
            let view = view.clone();
            std::thread::spawn(move || {
                let mut session = client.open_session().unwrap();
                for _ in 0..3 {
                    session
                        .run_trace(object, GestureSynthesizer::new(60.0).slide_down(&view, 0.4))
                        .unwrap();
                }
                let report = session.snapshot().unwrap();
                assert!(report.errors.is_empty(), "{:?}", report.errors);
                let stamped: Vec<u64> = session.stamped_trace_ids().to_vec();
                session.close().unwrap();
                stamped
            })
        })
        .collect();
    let stamped: HashSet<u64> = explorers
        .into_iter()
        .flat_map(|h| h.join().expect("explorer thread"))
        .collect();
    done.store(true, Ordering::Relaxed);
    churn.join().expect("churn thread");
    assert_eq!(stamped.len(), 48, "one client-minted id per trace");
    assert!(stamped.iter().all(|t| t & CLIENT_ID_BIT != 0));

    // Every retained tree is tail-sampled (threshold 0), structurally sound,
    // decomposes the touch into queue-wait and service, and carries the id
    // the client stamped on the wire.
    let snap = server.metrics_snapshot();
    assert!(
        !snap.traces().is_empty(),
        "tail sampler retained span trees"
    );
    assert!(snap.traces().iter().any(|t| t.tail_sampled));
    for tree in snap.traces() {
        assert_tree_well_formed(tree);
        assert!(
            tree.trace & CLIENT_ID_BIT != 0 && stamped.contains(&tree.trace),
            "trace {} was stamped client-side",
            tree.trace
        );
        let names: Vec<&str> = tree.spans.iter().map(|s| s.name).collect();
        for expected in ["touch", "decode", "queue_wait", "service"] {
            assert!(names.contains(&expected), "{expected} span in {names:?}");
        }
    }
    assert!(snap.scalar("obs.traces_tail_sampled").unwrap() >= 1);

    // The Perfetto export travels over the wire and parses: one complete
    // event per span, trace ids preserved in the args.
    let exported = client.dump_traces().unwrap();
    let events = exported
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let span_count: usize = snap.traces().iter().map(|t| t.spans.len()).sum();
    assert!(events.len() >= span_count, "≥1 event per retained span");
    assert!(events
        .iter()
        .all(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")));

    // Prometheus-style text exposition also crosses the wire.
    let text = client.metrics_text().unwrap();
    assert!(text.contains("net.accepted"), "text exposition: {text}");
    assert!(text.contains("obs.traces_finished"));

    server.shutdown();
}

#[test]
fn digests_are_bit_identical_with_tracing_on_and_off() {
    let scenario = Scenario::sky_survey(30_000, 17);
    let mut digests = Vec::new();
    for tracing in [false, true] {
        let (catalog, object) =
            scenario_catalog(&scenario, KernelConfig::default().with_tracing(tracing)).unwrap();
        let plans = plan_hot_object(&catalog, object, 4, 2, 7).unwrap();
        let run = run_concurrent(&catalog, object, &plans, ServerConfig::default()).unwrap();
        assert!(run.errors().is_empty(), "{:?}", run.errors());
        digests.push(run.digests());
    }
    assert_eq!(
        digests[0], digests[1],
        "tracing observes, it must never steer results"
    );
}
