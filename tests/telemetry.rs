//! Acceptance tests for the live telemetry subsystem: the metrics snapshot
//! is readable mid-run under 32 concurrent sessions with live catalog churn,
//! and telemetry never steers results — session digests are bit-identical
//! with the hub on or off.

use dbtouch::prelude::*;
use dbtouch::workload::concurrent::{plan_hot_object, run_concurrent, scenario_catalog};
use dbtouch::workload::Scenario;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn metrics_snapshot_is_readable_mid_run_under_churn() {
    let catalog = Arc::new(SharedCatalog::new(KernelConfig::default()));
    let id = catalog
        .load_column("col", (0..60_000).collect(), SizeCm::new(2.0, 10.0))
        .unwrap();
    let table = Table::from_columns(
        "t",
        vec![
            Column::from_i64("id", (0..20_000).collect()),
            Column::from_f64("v", (0..20_000).map(|i| i as f64).collect()),
        ],
    )
    .unwrap();
    let tid = catalog.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
    let view = catalog.data(id).unwrap().base_view().clone();
    let epoch_before = catalog.epoch();

    let server = Arc::new(
        ExplorationServer::serve(ServerConfig::with_workers(4).with_catalog(Arc::clone(&catalog)))
            .unwrap(),
    );

    // 32 concurrent explorers, each running several traces.
    let explorers: Vec<_> = (0..32)
        .map(|_| {
            let server = Arc::clone(&server);
            let view = view.clone();
            std::thread::spawn(move || {
                let session = server.open_session();
                for _ in 0..3 {
                    session
                        .run_trace(id, GestureSynthesizer::new(60.0).slide_down(&view, 0.4))
                        .unwrap();
                }
                session.close().unwrap()
            })
        })
        .collect();

    // Live catalog churn: restructure the table while the explorers run.
    let done = Arc::new(AtomicBool::new(false));
    let churn = {
        let catalog = Arc::clone(&catalog);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut restructures = 0u64;
            while !done.load(Ordering::Relaxed) {
                let cid = catalog
                    .drag_column_out(tid, "v", SizeCm::new(2.0, 10.0))
                    .unwrap();
                catalog.drag_column_into(tid, cid).unwrap();
                restructures += 2;
            }
            restructures
        })
    };

    // Mid-run scrapes: coherent and non-blocking while everything churns.
    let mut mid_run_scrapes = 0;
    while explorers.iter().any(|h| !h.is_finished()) {
        let metrics = server.metrics_snapshot();
        assert_eq!(metrics.worker_loads.len(), 4);
        assert!(metrics.scalar("catalog.epoch").is_some());
        assert!(metrics.scalar("server.sessions_opened").is_some());
        assert!(!metrics.render_text().is_empty());
        mid_run_scrapes += 1;
    }
    assert!(mid_run_scrapes > 0, "at least one scrape ran mid-serving");

    let reports: Vec<SessionReport> = explorers
        .into_iter()
        .map(|h| h.join().expect("explorer thread"))
        .collect();
    done.store(true, Ordering::Relaxed);
    let restructures = churn.join().expect("churn thread");
    assert!(restructures > 0, "churn published restructures");
    for report in &reports {
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.traces_run(), 3);
    }

    // Final snapshot: lifetime counters, peaks, and lifecycle counts.
    let metrics = server.metrics_snapshot();
    assert_eq!(metrics.sessions_served(), 32);
    assert_eq!(metrics.scalar("server.sessions_closed"), Some(32));
    assert!(
        metrics.peak_live_sessions() >= 4,
        "peak load under 32 threads"
    );
    assert!(metrics.scalar("server.peak_worker_load").unwrap() >= 1);
    assert_eq!(metrics.traces_run(), 96);
    assert!(
        metrics.scalar("catalog.epoch").unwrap() >= epoch_before + restructures,
        "every restructure publishes an epoch"
    );
    assert!(metrics.scalar("catalog.restructures").unwrap() >= restructures);
    let hist = metrics.histogram("server.touch_nanos").unwrap();
    assert_eq!(hist.count(), 96);
    assert_eq!(
        metrics.scalar("obs.traces_finished"),
        metrics.scalar("server.traces"),
        "every served trace finished its span tree"
    );
    // JSON exposition round-trips through the in-tree codec.
    let rendered = metrics.to_json().pretty();
    let parsed = dbtouch::types::json::parse(&rendered).unwrap();
    assert_eq!(
        parsed
            .get("metrics")
            .and_then(|m| m.get("server.traces"))
            .and_then(|v| v.as_u64()),
        Some(96)
    );
    if let Ok(server) = Arc::try_unwrap(server) {
        server.shutdown();
    }
}

#[test]
fn digests_are_bit_identical_with_telemetry_on_and_off() {
    let scenario = Scenario::sky_survey(30_000, 17);
    let mut digests = Vec::new();
    for telemetry in [false, true] {
        let (catalog, object) =
            scenario_catalog(&scenario, KernelConfig::default().with_telemetry(telemetry)).unwrap();
        let plans = plan_hot_object(&catalog, object, 4, 2, 7).unwrap();
        let run = run_concurrent(&catalog, object, &plans, ServerConfig::default()).unwrap();
        assert!(run.errors().is_empty(), "{:?}", run.errors());
        digests.push(run.digests());
    }
    assert_eq!(
        digests[0], digests[1],
        "telemetry observes, it must never steer results"
    );
}
