//! Golden scrape keys: every instrument a fully equipped server exposes,
//! pinned by name.
//!
//! One catalog with every metric source registered — a paged store, the
//! shared cache, a morsel pool, an overlapped remote split — served by a
//! `NetServer`. The sorted key set of its `metrics_snapshot()` must equal
//! [`GOLDEN_KEYS`], so removing or renaming an instrument is a visible diff
//! here rather than a silent zero in a dashboard or a benchmark that reads
//! the key by name (`touch_budget` reads `net.shed`, `pager.faults`,
//! `morsel.steals`, … from this scrape).

use dbtouch_core::catalog::SharedCatalog;
use dbtouch_gesture::synthesizer::GestureSynthesizer;
use dbtouch_net::{NetServer, TcpClient};
use dbtouch_server::{ClientSession, ExplorationClient, ServerConfig};
use dbtouch_types::json::Json;
use dbtouch_types::{KernelConfig, RemoteSplitConfig, SizeCm};
use std::sync::Arc;

/// Every key of the scrape, sorted, one source per line.
const GOLDEN_KEYS: &str = "
    catalog.epoch catalog.objects catalog.restructures
    encoding.bytes_saved encoding.dict_pages encoding.rle_pages encoding.run_skips
    morsel.pruned_segments morsel.queue_depth morsel.segments_scanned morsel.steals
    net.accepted net.bytes_in net.bytes_out net.connections net.frame_errors net.frame_nanos
    net.shed net.traces_dumped
    obs.scrapes obs.spans_truncated obs.traces_finished obs.traces_head_sampled
    obs.traces_tail_sampled
    pager.evictions pager.faults pager.len_pages pager.pool_hits pager.pool_pages
    pager.resident_pages
    remote_exec.backlog remote_exec.delivered remote_exec.submitted
    server.entries server.peak_live_sessions server.peak_worker_load server.rows_touched
    server.sessions_closed server.sessions_opened server.touch_nanos server.touches
    server.trace_errors server.traces server.worst_touch_nanos
    shared_cache.capacity shared_cache.entries shared_cache.flushes shared_cache.hit_rate
    shared_cache.hits shared_cache.inserts shared_cache.invalidated shared_cache.misses
";

#[test]
fn a_fully_equipped_server_scrapes_the_golden_keys() {
    let dir = std::env::temp_dir().join(format!("dbtouch-scrape-keys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = KernelConfig::default()
        .with_scan_parallelism(2)
        .with_remote_split(Some(RemoteSplitConfig::default().with_network(100, 0)));
    let catalog = Arc::new(SharedCatalog::open(&dir, config).unwrap());
    let object = catalog
        .load_column("col", (0..50_000).collect(), SizeCm::new(2.0, 10.0))
        .unwrap();
    let view = catalog.data(object).unwrap().base_view().clone();
    let server = NetServer::serve(
        ServerConfig::with_workers(1)
            .with_catalog(Arc::clone(&catalog))
            .with_listen_addr("127.0.0.1:0"),
    )
    .unwrap();

    // One served gesture, so no source is scraped only before first use.
    let client = TcpClient::new(server.local_addr().to_string());
    let mut session = client.open_session().unwrap();
    session
        .run_trace(object, GestureSynthesizer::new(60.0).slide_down(&view, 0.3))
        .unwrap();
    let report = session.close().unwrap();
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    let scrape = server.metrics_snapshot();
    let keys: Vec<&str> = scrape.inner.metrics.keys().map(String::as_str).collect();
    assert_eq!(keys, GOLDEN_KEYS.split_whitespace().collect::<Vec<_>>());

    // The JSON exposition, as a client receives it.
    let json = client.metrics_json().unwrap();
    let Json::Object(fields) = &json else {
        panic!("metrics JSON is an object: {json:?}");
    };
    let top: Vec<&str> = fields.keys().map(String::as_str).collect();
    assert_eq!(top, ["metrics", "traces", "uptime_nanos", "worker_loads"]);

    server.shutdown();
    drop(catalog);
    let _ = std::fs::remove_dir_all(&dir);
}
