//! Segment-scan benchmark: touches/s and per-touch latency vs
//! `scan_parallelism` on one large object.
//!
//! A single served session slides over a multi-million-row integer column
//! with summary windows wide enough that every touch decomposes into many
//! segment morsels (see `dbtouch_core::morsel`). The same seeded plan runs
//! once per `scan_parallelism` setting; the only thing that may change is
//! the wall clock. Every point is digest-verified against the
//! `scan_parallelism = 1` baseline — the segment kernel's merge is exact, so
//! parallel digests must equal the sequential ones bit for bit.
//!
//! `segment_rows` is deliberately *not* aligned to the zone-map block size:
//! aligned segments are answered from the index without touching data, which
//! is the fast path explorers want but would make this bench measure index
//! lookups instead of scan fan-out. Unaligned segments are always scanned.

use dbtouch_core::catalog::SharedCatalog;
use dbtouch_server::ServerConfig;
use dbtouch_types::{Result, SizeCm};
use dbtouch_workload::concurrent::{plan_segment_sweep, run_concurrent, segment_sweep_config};
use dbtouch_workload::Scenario;
use std::sync::Arc;

/// One measured `scan_parallelism` setting.
#[derive(Debug, Clone)]
pub struct SegmentScanPoint {
    /// The `KernelConfig::scan_parallelism` this point ran at.
    pub scan_parallelism: usize,
    /// Total touch samples processed.
    pub total_touches: u64,
    /// Throughput: touches per second of wall time.
    pub touches_per_sec: f64,
    /// Wall time of the run in seconds.
    pub wall_secs: f64,
    /// Median per-trace mean per-touch latency, microseconds.
    pub p50_touch_micros: f64,
    /// 99th-percentile per-trace mean per-touch latency, microseconds.
    pub p99_touch_micros: f64,
    /// Segments executed by the kernel (scanned or index-answered).
    pub segments_scanned: u64,
    /// Segments answered from zone-map block stats without reading data.
    pub pruned_segments: u64,
    /// Morsels claimed by pool helper threads (0 on the sequential path).
    pub steals: u64,
    /// The session's result digest.
    pub digest: u64,
    /// Digest equals the `scan_parallelism = 1` baseline and the run was
    /// error-free.
    pub verified: bool,
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct SegmentScanReport {
    /// Rows in the scanned integer column.
    pub rows: u64,
    /// Rows per segment morsel (unaligned to zone blocks; see module doc).
    pub segment_rows: u64,
    /// Summary half-window in rows: each touch aggregates up to
    /// `2 * half_window + 1` rows.
    pub half_window: u64,
    /// Gesture traces the session performs per point.
    pub traces: usize,
    /// One point per swept `scan_parallelism`, in sweep order.
    pub points: Vec<SegmentScanPoint>,
}

/// Run the sweep: the same seeded single-session plan at every
/// `scan_parallelism` in `parallelisms` (sweep 1 first — it is the digest
/// baseline the other points verify against).
pub fn run_segment_scan_sweep(
    rows: usize,
    parallelisms: &[usize],
    traces: usize,
) -> Result<SegmentScanReport> {
    let scenario = Scenario::monitoring_stream(rows, 17);
    // Wide windows (half the object at the center touch) over many unaligned
    // segments: the per-touch work a scan pool can actually split.
    let half_window = (rows as u64 / 4).max(1);
    let segment_rows = 50_000;

    let mut points = Vec::with_capacity(parallelisms.len());
    let mut plan = None;
    let mut baseline_digest = None;
    for &scan_parallelism in parallelisms {
        let catalog = Arc::new(SharedCatalog::new(segment_sweep_config(
            scan_parallelism,
            segment_rows,
        )));
        let id = catalog.load_column_typed(scenario.signal_column_i64(), SizeCm::new(2.0, 12.0))?;
        // Plan once: the seeded traces depend only on the (identical) view.
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
        let latency = run.latency_summary();
        let (mut segments_scanned, mut pruned_segments) = (0u64, 0u64);
        for outcome in &session.outcomes {
            segments_scanned += outcome.outcome.stats.segments_scanned;
            pruned_segments += outcome.outcome.stats.pruned_segments;
        }
        let steals = catalog
            .telemetry()
            .snapshot()
            .scalar("morsel.steals")
            .unwrap_or(0);
        points.push(SegmentScanPoint {
            scan_parallelism,
            total_touches: run.total_touches(),
            touches_per_sec: run.touches_per_sec(),
            wall_secs: run.wall_nanos as f64 / 1e9,
            p50_touch_micros: latency.p50_nanos as f64 / 1e3,
            p99_touch_micros: latency.p99_nanos as f64 / 1e3,
            segments_scanned,
            pruned_segments,
            steals,
            digest,
            verified: digest == baseline && run.errors().is_empty(),
        });
    }
    Ok(SegmentScanReport {
        rows: rows as u64,
        segment_rows,
        half_window,
        traces,
        points,
    })
}

impl SegmentScanReport {
    /// The measured point at `scan_parallelism`, if the sweep ran it.
    pub fn point(&self, scan_parallelism: usize) -> Option<&SegmentScanPoint> {
        self.points
            .iter()
            .find(|p| p.scan_parallelism == scan_parallelism)
    }

    /// Throughput speedup of each parallel point over `scan_parallelism = 1`,
    /// as `(scan_parallelism, speedup)`.
    pub fn speedups(&self) -> Vec<(usize, f64)> {
        let Some(baseline) = self.point(1).filter(|p| p.touches_per_sec > 0.0) else {
            return Vec::new();
        };
        self.points
            .iter()
            .filter(|p| p.scan_parallelism > 1)
            .map(|p| {
                (
                    p.scan_parallelism,
                    p.touches_per_sec / baseline.touches_per_sec,
                )
            })
            .collect()
    }

    /// Render the sweep as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "segment scan sweep — {} rows, segment_rows {}, half-window {}, {} traces/point\n",
            self.rows, self.segment_rows, self.half_window, self.traces
        ));
        out.push_str(
            "parallelism    touches   touches/s    wall s   p50 us/touch   p99 us/touch     segments   pruned     steals   identical\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>11}  {:>9}  {:>10.0}  {:>8.2}  {:>13.1}  {:>13.1}  {:>11}  {:>7}  {:>9}  {}\n",
                p.scan_parallelism,
                p.total_touches,
                p.touches_per_sec,
                p.wall_secs,
                p.p50_touch_micros,
                p.p99_touch_micros,
                p.segments_scanned,
                p.pruned_segments,
                p.steals,
                if p.verified { "yes" } else { "NO" },
            ));
        }
        for (parallelism, speedup) in self.speedups() {
            out.push_str(&format!(
                "parallelism {parallelism}: {speedup:.2}x the sequential throughput\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_digest_identical_and_counts_segments() {
        let report = run_segment_scan_sweep(120_000, &[1, 2, 4], 2).unwrap();
        assert_eq!(report.points.len(), 3);
        let baseline = report.point(1).unwrap();
        assert_eq!(baseline.steals, 0, "no pool at parallelism 1");
        for point in &report.points {
            assert!(point.verified, "point {point:?}");
            assert!(point.total_touches > 0);
            assert!(
                point.segments_scanned > point.total_touches,
                "wide windows must decompose into several segments per touch"
            );
            assert_eq!(point.digest, baseline.digest);
            // Unaligned segment_rows: nothing can be index-answered, every
            // segment does real scan work.
            assert_eq!(point.pruned_segments, 0);
            // Identical decomposition at every parallelism.
            assert_eq!(point.segments_scanned, baseline.segments_scanned);
        }
        assert_eq!(report.speedups().len(), 2);
    }
}
