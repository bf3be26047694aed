//! Compression benchmark: scan throughput and bytes on disk, Raw vs
//! auto-encoded page spans, on low- and high-cardinality columns.
//!
//! Each point persists one integer column into a fresh on-disk catalog,
//! drops the writer, reopens the directory (so every read faults pages
//! through the buffer pool) and replays the same seeded segment-sweep plan a
//! single served session at a time. The encoded and raw runs of one scenario
//! share the plan, so the only things allowed to differ are the wall clock,
//! the page count and the buffer-pool traffic — the digests must match bit
//! for bit ([`dbtouch_storage::encoding`] keeps integer kernels in exact
//! `i128` whatever the page representation).
//!
//! The low-cardinality column is the monitoring signal coarsened to a few
//! severity bands ([`Scenario::signal_column_banded`]): long constant runs,
//! the shape RLE/dictionary pages exist for. The high-cardinality column is
//! the full-resolution milli-unit signal, which the packer must decline
//! (auto-encoding falls back to raw pages, costing nothing but the probe).

use dbtouch_core::catalog::SharedCatalog;
use dbtouch_server::ServerConfig;
use dbtouch_storage::column::Column;
use dbtouch_types::{DbTouchError, Result, SizeCm};
use dbtouch_workload::concurrent::{plan_segment_sweep, run_concurrent, segment_sweep_config};
use dbtouch_workload::Scenario;
use std::path::Path;
use std::sync::Arc;

/// One measured (scenario × encoding) point.
#[derive(Debug, Clone)]
pub struct CompressionPoint {
    /// Data shape: `"low_cardinality"` or `"high_cardinality"`.
    pub scenario: &'static str,
    /// Whether auto-encoding was enabled when the column was persisted.
    pub encoded: bool,
    /// Size of the store's `pages.dat` after the persist.
    pub disk_bytes: u64,
    /// RLE pages the persist wrote (0 when raw or nothing packed).
    pub rle_pages: u64,
    /// Dictionary pages the persist wrote.
    pub dict_pages: u64,
    /// Total touch samples processed by the replay.
    pub total_touches: u64,
    /// Throughput: touches per second of wall time.
    pub touches_per_sec: f64,
    /// Wall time of the replay in seconds.
    pub wall_secs: f64,
    /// Page reads that faulted from disk during the replay.
    pub pool_faults: u64,
    /// Whole RLE runs aggregated with one multiply during the replay.
    pub run_skips: u64,
    /// The session's result digest.
    pub digest: u64,
    /// Digest equals the raw run of the same scenario and the replay was
    /// error-free.
    pub verified: bool,
}

/// The full Raw-vs-encoded sweep.
#[derive(Debug, Clone)]
pub struct CompressionReport {
    /// Rows in each scanned column.
    pub rows: u64,
    /// Gesture traces the session performs per point.
    pub traces: usize,
    /// Summary half-window in rows.
    pub half_window: u64,
    /// Points in sweep order (raw before encoded within each scenario).
    pub points: Vec<CompressionPoint>,
}

/// The two swept data shapes.
const SCENARIOS: [(&str, bool); 2] = [("low_cardinality", true), ("high_cardinality", false)];

fn scenario_column(scenario: &Scenario, low_cardinality: bool) -> Column {
    if low_cardinality {
        scenario.signal_column_banded(6)
    } else {
        scenario.signal_column_i64()
    }
}

fn pages_file_bytes(dir: &Path) -> Result<u64> {
    let path = dir.join("pages.dat");
    Ok(std::fs::metadata(&path)
        .map_err(|e| DbTouchError::Io(format!("stat {}: {e}", path.display())))?
        .len())
}

/// Run the sweep: for each data shape, persist the column raw and
/// auto-encoded into fresh stores, reopen each and replay the identical
/// seeded plan (raw first — it is the digest baseline).
pub fn run_compression_sweep(rows: usize, traces: usize) -> Result<CompressionReport> {
    let scenario = Scenario::monitoring_stream(rows, 17);
    let half_window = (rows as u64 / 4).max(1);
    // Unaligned to zone-map blocks, as in the segment_scan bench: aligned
    // segments would be answered from the index without touching pages.
    let segment_rows = 50_000;
    let base =
        std::env::temp_dir().join(format!("dbtouch-bench-compression-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let mut points = Vec::with_capacity(SCENARIOS.len() * 2);
    for (name, low_cardinality) in SCENARIOS {
        let column = scenario_column(&scenario, low_cardinality);
        let mut plan = None;
        let mut baseline_digest = None;
        for encoded in [false, true] {
            let config = segment_sweep_config(1, segment_rows).with_encoding(encoded);
            let dir = base.join(format!("{name}-{encoded}"));
            let (rle_pages, dict_pages) = {
                let writer = SharedCatalog::open(&dir, config.clone())?;
                writer.load_column_typed(column.clone(), SizeCm::new(2.0, 12.0))?;
                let metrics = writer.telemetry().snapshot();
                (
                    metrics.scalar("encoding.rle_pages").unwrap_or(0),
                    metrics.scalar("encoding.dict_pages").unwrap_or(0),
                )
            };
            let disk_bytes = pages_file_bytes(&dir)?;

            let catalog = Arc::new(SharedCatalog::open(&dir, config)?);
            let id = catalog.object_id(column.name())?;
            let plan = match &plan {
                Some(p) => p,
                None => plan.insert(plan_segment_sweep(&catalog, id, traces, half_window, 99)?),
            };
            let run = run_concurrent(
                &catalog,
                id,
                std::slice::from_ref(plan),
                ServerConfig::with_workers(1),
            )?;
            let session = &run.sessions[0];
            let digest = session.result_digest();
            let baseline = *baseline_digest.get_or_insert(digest);
            let metrics = catalog.telemetry().snapshot();
            points.push(CompressionPoint {
                scenario: name,
                encoded,
                disk_bytes,
                rle_pages,
                dict_pages,
                total_touches: run.total_touches(),
                touches_per_sec: run.touches_per_sec(),
                wall_secs: run.wall_nanos as f64 / 1e9,
                pool_faults: catalog.pager_stats().map(|s| s.faults).unwrap_or(0),
                run_skips: metrics.scalar("encoding.run_skips").unwrap_or(0),
                digest,
                verified: digest == baseline && run.errors().is_empty(),
            });
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    Ok(CompressionReport {
        rows: rows as u64,
        traces,
        half_window,
        points,
    })
}

impl CompressionReport {
    /// The measured point for one scenario × encoding setting.
    pub fn point(&self, scenario: &str, encoded: bool) -> Option<&CompressionPoint> {
        self.points
            .iter()
            .find(|p| p.scenario == scenario && p.encoded == encoded)
    }

    /// On-disk shrink of the encoded store vs the raw store for one scenario
    /// (`raw_bytes / encoded_bytes`; > 1 means the encoded store is smaller).
    pub fn disk_shrink(&self, scenario: &str) -> Option<f64> {
        let raw = self.point(scenario, false)?;
        let enc = self.point(scenario, true).filter(|p| p.disk_bytes > 0)?;
        Some(raw.disk_bytes as f64 / enc.disk_bytes as f64)
    }

    /// Throughput of the encoded replay relative to the raw replay for one
    /// scenario (> 1 means the encoded scan is faster).
    pub fn speedup(&self, scenario: &str) -> Option<f64> {
        let raw = self
            .point(scenario, false)
            .filter(|p| p.touches_per_sec > 0.0)?;
        let enc = self.point(scenario, true)?;
        Some(enc.touches_per_sec / raw.touches_per_sec)
    }

    /// Render the sweep as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "compression sweep — {} rows, half-window {}, {} traces/point\n",
            self.rows, self.half_window, self.traces
        ));
        out.push_str(
            "scenario          encoded   disk bytes    rle   dict    touches   touches/s    wall s     faults   run skips   identical\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:<16}  {:>7}  {:>11}  {:>5}  {:>5}  {:>9}  {:>10.0}  {:>8.2}  {:>9}  {:>10}  {}\n",
                p.scenario,
                if p.encoded { "auto" } else { "raw" },
                p.disk_bytes,
                p.rle_pages,
                p.dict_pages,
                p.total_touches,
                p.touches_per_sec,
                p.wall_secs,
                p.pool_faults,
                p.run_skips,
                if p.verified { "yes" } else { "NO" },
            ));
        }
        for (name, _) in SCENARIOS {
            if let (Some(shrink), Some(speedup)) = (self.disk_shrink(name), self.speedup(name)) {
                out.push_str(&format!(
                    "{name}: {shrink:.2}x smaller on disk, {speedup:.2}x the raw throughput\n"
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_verifies_digests_and_shrinks_low_cardinality_storage() {
        let report = run_compression_sweep(400_000, 2).unwrap();
        assert_eq!(report.points.len(), 4);
        for point in &report.points {
            assert!(point.verified, "point {point:?}");
            assert!(point.total_touches > 0);
            assert!(point.disk_bytes > 0);
        }
        // Low-cardinality data must pack at least 2x smaller (the packer only
        // accepts factors that at least halve the page count) and must
        // actually exercise the run fast path on replay.
        let shrink = report.disk_shrink("low_cardinality").unwrap();
        assert!(shrink >= 2.0, "low-cardinality shrink only {shrink:.2}x");
        let enc = report.point("low_cardinality", true).unwrap();
        assert!(enc.rle_pages + enc.dict_pages > 0);
        assert!(enc.run_skips > 0 || enc.dict_pages > 0);
        let raw = report.point("low_cardinality", false).unwrap();
        assert!(
            enc.pool_faults < raw.pool_faults,
            "packed replays fault fewer pages"
        );
        // High-cardinality data must decline packing: same bytes, raw pages.
        let enc_hi = report.point("high_cardinality", true).unwrap();
        let raw_hi = report.point("high_cardinality", false).unwrap();
        assert_eq!(enc_hi.disk_bytes, raw_hi.disk_bytes);
        assert_eq!(enc_hi.rle_pages + enc_hi.dict_pages, 0);
    }
}
