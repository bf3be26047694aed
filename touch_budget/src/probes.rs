//! Probes: fixed-iteration, single-thread loops over one layer's public
//! functions, timed from outside the program.
//!
//! Codec, frame and admission probes take their inputs from the workload
//! itself (a trace of its plan, a report one of its sessions produced, a
//! scrape of its server). The storage probes run over one small probe store
//! that is the same for every workload, so a kernel's rows/s means the same
//! thing on every row of the baseline.

use crate::workloads::Env;
use dbtouch_core::catalog::SharedCatalog;
use dbtouch_core::epoch::EpochCell;
use dbtouch_core::morsel::{window_stats, MorselPool};
use dbtouch_net::admission::Admission;
use dbtouch_net::codec::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use dbtouch_net::frame::{checksum, read_frame, write_frame, MAX_FRAME_LEN};
use dbtouch_obs::WireTraceContext;
use dbtouch_server::{ServerMetricsSnapshot, SessionReport, ShedConfig};
use dbtouch_storage::column::Column;
use dbtouch_storage::encoding::EncodingPolicy;
use dbtouch_storage::index::ZoneMapIndex;
use dbtouch_storage::pager::{PagedColumn, Pager};
use dbtouch_storage::persist::CatalogStore;
use dbtouch_storage::shared_cache::{RangeAggregate, SharedResultCache, SummaryKey};
use dbtouch_types::{DbTouchError, KernelConfig, Result, RowRange, SizeCm};
use dbtouch_workload::Scenario;
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Named probe results, in probe order.
pub type Probed = Vec<(&'static str, f64)>;

/// Mean nanoseconds per call of `f` over `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let iters = iters.max(1);
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_nanos() as f64 / iters as f64
}

/// Median microseconds of `samples` single calls of `f`.
fn p50_us_of(samples: u64, mut f: impl FnMut() -> Result<()>) -> Result<f64> {
    let mut ns = Vec::with_capacity(samples as usize);
    for _ in 0..samples.max(1) {
        let started = Instant::now();
        f()?;
        ns.push(started.elapsed().as_nanos() as u64);
    }
    Ok(crate::stats::p50_us(&ns))
}

/// Wire layer: codec, frame, admission — inputs from the workload.
pub fn net_probes(
    env: &Env,
    report: &SessionReport,
    scrape: &ServerMetricsSnapshot,
    div: u64,
) -> Result<Probed> {
    let trace = env.plans[0].traces[0].clone();
    let ctx = Some(WireTraceContext {
        trace: dbtouch_obs::CLIENT_ID_BIT | 1,
        root_span: dbtouch_obs::CLIENT_ID_BIT | 2,
    });
    let request = Request::RunTrace(env.object, trace, ctx);
    let request_bytes = encode_request(&request);
    let response = Response::Report(report.clone());
    let report_bytes = encode_response(&response);
    // Round-trip once up front: a probe over bytes that do not decode would
    // time the error path.
    decode_request(&request_bytes)?;
    decode_response(&report_bytes)?;

    let mut out: Probed = vec![
        (
            "net.codec.encode_run_trace_ns",
            ns_per_call(20_000 / div, || {
                black_box(encode_request(black_box(&request)));
            }),
        ),
        (
            "net.codec.decode_run_trace_ns",
            ns_per_call(20_000 / div, || {
                black_box(decode_request(black_box(&request_bytes)).is_ok());
            }),
        ),
        (
            "net.codec.encode_report_ns",
            ns_per_call(2_000 / div, || {
                black_box(encode_response(black_box(&response)));
            }),
        ),
        (
            "net.codec.decode_report_ns",
            ns_per_call(2_000 / div, || {
                black_box(decode_response(black_box(&report_bytes)).is_ok());
            }),
        ),
        ("net.codec.report_bytes", report_bytes.len() as f64),
    ];

    let checksum_ns = ns_per_call(2_000 / div, || {
        black_box(checksum(black_box(&report_bytes)));
    });
    // bytes per nanosecond × 1000 = MB/s
    out.push((
        "net.frame.checksum_mb_s",
        report_bytes.len() as f64 / checksum_ns * 1e3,
    ));
    let mut wire = Vec::with_capacity(request_bytes.len() + 8);
    out.push((
        "net.frame.roundtrip_ns",
        ns_per_call(20_000 / div, || {
            wire.clear();
            write_frame(&mut wire, &request_bytes).expect("write to a Vec");
            black_box(read_frame(&mut Cursor::new(&wire), MAX_FRAME_LEN).is_ok());
        }),
    ));
    let admission = Admission::new(ShedConfig::default());
    out.push((
        "net.admission.admit_trace_ns",
        ns_per_call(200_000 / div, || {
            black_box(admission.admit_trace(black_box(scrape)));
        }),
    ));
    Ok(out)
}

/// Core layer: epoch cell, checkout, morsel dispatch.
pub fn core_probes(env: &Env, seed: u64, div: u64) -> Result<Probed> {
    let cell = EpochCell::new(Arc::new(0u64));
    let mut out: Probed = vec![
        (
            "core.epoch.load_ns",
            ns_per_call(2_000_000 / div, || {
                black_box(cell.load());
            }),
        ),
        (
            "core.catalog.checkout_ns",
            ns_per_call(20_000 / div, || {
                black_box(env.catalog.checkout(env.object).is_ok());
            }),
        ),
    ];

    // Dispatch cost per segment: the same window over many tiny segments
    // (64 rows: almost no scan work, unaligned so none is index-answered),
    // fanned out over a 2-worker pool versus folded inline.
    let rows = 400_000 / div.min(8) as usize;
    let catalog = SharedCatalog::new(KernelConfig::default());
    let object = catalog.load_column_typed(
        Scenario::monitoring_stream(rows, seed).signal_column_i64(),
        SizeCm::new(2.0, 12.0),
    )?;
    let data = catalog.data(object)?;
    let range = RowRange::new(0, rows as u64);
    let pool = MorselPool::start(1);
    let mut segments = 0;
    let mut time = |pool: Option<&MorselPool>| -> Result<f64> {
        let reps = (200 / div).max(2);
        let started = Instant::now();
        for _ in 0..reps {
            let scan = window_stats(&data, 0, 0, range, 64, pool, None)?;
            segments = scan.segments_scanned;
            black_box(scan);
        }
        Ok(started.elapsed().as_nanos() as f64 / reps as f64)
    };
    let (inline_ns, pooled_ns) = (time(None)?, time(Some(&pool))?);
    out.push((
        "core.morsel.dispatch_ns_per_segment",
        (pooled_ns - inline_ns) / segments.max(1) as f64,
    ));
    Ok(out)
}

/// Rows per second of `PagedColumn::segment_range_stats` over the whole
/// column with a warm pool.
fn kernel_rows_s(column: &PagedColumn, reps: u64) -> Result<f64> {
    let range = RowRange::new(0, column.rows());
    column.segment_range_stats(range)?; // fault everything in
    let reps = reps.max(1);
    let started = Instant::now();
    for _ in 0..reps {
        black_box(column.segment_range_stats(black_box(range))?);
    }
    Ok((column.rows() * reps) as f64 / started.elapsed().as_secs_f64())
}

fn io_error(what: &str, e: impl std::fmt::Display) -> DbTouchError {
    DbTouchError::Io(format!("{what}: {e}"))
}

/// Storage layer: scan kernels per encoding, zone map, pager, shared cache,
/// manifest commit — over a probe store under `dir`.
pub fn storage_probes(dir: &Path, seed: u64, div: u64) -> Result<Probed> {
    let rows = 500_000 / div.min(10) as usize;
    let scenario = Scenario::monitoring_stream(rows, seed);
    std::fs::create_dir_all(dir).map_err(|e| io_error("create probe dir", e))?;
    let pager = Arc::new(Pager::open_or_create(
        dir.join("probe-pages.dat"),
        crate::spec::PAGE_SIZE,
        4096,
    )?);
    let policy = EncodingPolicy::default();
    let raw = EncodingPolicy::disabled();
    let paged = |column: &Column, policy: &EncodingPolicy| -> Result<PagedColumn> {
        PagedColumn::new(
            Arc::clone(&pager),
            column.persist_to_encoded(&pager, policy)?,
        )
    };

    // Long constant runs pack as RLE; a short cycle over few values has no
    // runs to speak of and packs as a dictionary.
    let raw_i64 = paged(&scenario.signal_column_i64(), &raw)?;
    let before = pager.encoding_stats().rle_pages();
    let rle = paged(&scenario.signal_column_banded(6), &policy)?;
    let rle_pages = pager.encoding_stats().rle_pages() - before;
    let before = pager.encoding_stats().dict_pages();
    let cycle = Column::from_i64(
        "cycle",
        (0..rows as i64).map(|i| (i * 7 + i / 3) % 16).collect(),
    );
    let dict = paged(&cycle, &policy)?;
    let dict_pages = pager.encoding_stats().dict_pages() - before;
    if rle_pages == 0 || dict_pages == 0 {
        return Err(DbTouchError::Internal(format!(
            "probe columns did not pack as intended ({rle_pages} RLE pages, {dict_pages} dictionary pages)"
        )));
    }
    let raw_f64 = paged(&scenario.signal_column(), &raw)?;
    let reps = 20 / div.min(10);
    let mut out: Probed = vec![
        (
            "storage.kernel.raw_i64_rows_s",
            kernel_rows_s(&raw_i64, reps)?,
        ),
        (
            "storage.kernel.rle_i64_rows_s",
            kernel_rows_s(&rle, reps * 20)?,
        ),
        (
            "storage.kernel.dict_i64_rows_s",
            kernel_rows_s(&dict, reps)?,
        ),
        (
            "storage.kernel.raw_f64_rows_s",
            kernel_rows_s(&raw_f64, reps)?,
        ),
    ];

    let index = ZoneMapIndex::build(&scenario.signal_column_i64(), 4096)?;
    let aligned = RowRange::new(4096, (rows as u64 / 4096).min(17) * 4096);
    if index.segment_stats(aligned).is_none() {
        return Err(DbTouchError::Internal(
            "zone map did not answer an aligned segment".into(),
        ));
    }
    out.push((
        "storage.kernel.zonemap_aligned_ns",
        ns_per_call(200_000 / div, || {
            black_box(index.segment_stats(black_box(aligned)));
        }),
    ));

    // Pager: a resident page, then a pool of 8 cycling through 64 pages so
    // CLOCK evicts on every read.
    let first = raw_i64.extent().start_page;
    pager.read_page(first)?;
    out.push((
        "storage.pager.hit_ns",
        ns_per_call(200_000 / div, || {
            black_box(pager.read_page(first).is_ok());
        }),
    ));
    let small = Arc::new(Pager::open_or_create(
        dir.join("probe-pages.dat"),
        crate::spec::PAGE_SIZE,
        8,
    )?);
    let span = raw_i64.extent().page_count.min(64);
    let mut next = 0;
    let fault_ns = ns_per_call(20_000 / div, || {
        black_box(small.read_page(first + next % span).is_ok());
        next += 1;
    });
    if small.stats().pool_hits > 0 {
        return Err(DbTouchError::Internal(
            "fault probe was served from the pool".into(),
        ));
    }
    out.push(("storage.pager.fault_ns", fault_ns));

    let cache = SharedResultCache::new(1 << 16);
    let key = |i: u64| SummaryKey {
        object: 1,
        attribute: 0,
        level: 0,
        kind: 0,
        start: i * 10,
        end: i * 10 + 4001,
    };
    let value = RangeAggregate {
        count: 4001,
        sum: 1.0,
        min: Some(0.0),
        max: Some(1.0),
    };
    let mut i = 0;
    let insert_ns = ns_per_call(20_000 / div, || {
        cache.insert(key(i), value);
        i += 1;
    });
    let entries = i;
    let mut i = 0;
    let get_ns = ns_per_call(200_000 / div, || {
        black_box(cache.get(&key(i % entries)));
        i += 1;
    });
    if cache.stats().misses > 0 {
        return Err(DbTouchError::Internal("cache hit probe missed".into()));
    }
    out.push(("storage.shared_cache.get_hit_ns", get_ns));
    out.push(("storage.shared_cache.insert_ns", insert_ns));

    // Manifest commit: a small attached catalog gives a real manifest; the
    // store then commits successive epochs of it.
    let store_dir = dir.join("probe-store");
    {
        let catalog = SharedCatalog::open(&store_dir, KernelConfig::default())?;
        catalog.load_column("probe", (0..4096).collect(), SizeCm::new(2.0, 10.0))?;
    }
    let (store, manifest) = CatalogStore::open(&store_dir, 64, crate::spec::PAGE_SIZE)?;
    let mut manifest =
        manifest.ok_or_else(|| DbTouchError::Internal("probe store has no manifest".into()))?;
    out.push((
        "storage.persist.commit_us_p50",
        p50_us_of(60 / div.min(10), || {
            manifest.epoch += 1;
            store.commit(&manifest)
        })?,
    ));
    Ok(out)
}
