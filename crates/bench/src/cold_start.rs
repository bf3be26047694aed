//! Cold-start benchmark: reopening a persisted catalog and exploring it
//! through buffer pools smaller than the dataset.
//!
//! The persistent backend's claim is that `SharedCatalog::open` is *lazy*:
//! no row is read at open, pages fault through the buffer pool on first
//! touch, and a catalog larger than the pool (or than RAM) streams under
//! exploration with memory bounded by `pool_pages * page_size`. This sweep
//! measures exactly that boundary:
//!
//! * **open latency** — recover the manifest and rebuild the object table
//!   (no row data),
//! * **open→first-touch latency** — the first probe trace, paying the first
//!   page faults,
//! * **steady touches/s** — the full seeded trace mix streaming through the
//!   pool, with fault/hit/eviction counts from the pager,
//!
//! at pool sizes of 100%, 50% and 10% of the dataset's pages. Every point is
//! verified: the digest of the whole trace sequence against the reopened
//! catalog must be bit-identical to the same sequence against the in-memory
//! catalog the directory was persisted from.

use crate::report::{fmt_count, fmt_f64, render_table};
use dbtouch_core::catalog::SharedCatalog;
use dbtouch_core::kernel::{Kernel, TouchAction};
use dbtouch_core::operators::aggregate::AggregateKind;
use dbtouch_gesture::synthesizer::GestureSynthesizer;
use dbtouch_gesture::trace::GestureTrace;
use dbtouch_server::{digest_outcomes, TraceOutcome};
use dbtouch_types::{DbTouchError, KernelConfig, Result, SizeCm};
use dbtouch_workload::Scenario;
use std::sync::Arc;
use std::time::Instant;

/// One measured pool size.
#[derive(Debug, Clone)]
pub struct ColdStartPoint {
    /// Pool size as a fraction of the dataset's pages.
    pub pool_fraction: f64,
    /// Pool capacity in pages.
    pub pool_pages: usize,
    /// `SharedCatalog::open` latency, microseconds.
    pub open_micros: u64,
    /// Latency of the first (probe) trace after open — the cold-fault path —
    /// microseconds.
    pub first_touch_micros: u64,
    /// Touch samples processed by the steady trace mix.
    pub touches: u64,
    /// Steady-state throughput, touches per second.
    pub touches_per_sec: f64,
    /// Pages faulted from disk across the whole run.
    pub faults: u64,
    /// Page reads served by the pool.
    pub pool_hits: u64,
    /// Pages evicted to respect the pool bound.
    pub evictions: u64,
    /// Whether the full-run digest matched the in-memory baseline.
    pub verified: bool,
}

/// The cold-start sweep.
#[derive(Debug, Clone)]
pub struct ColdStartReport {
    /// Rows of the persisted scenario column.
    pub rows: u64,
    /// Pages the dataset occupies on disk (page file size / page size).
    pub dataset_pages: u64,
    /// Traces in the steady mix (excluding the probe).
    pub traces: usize,
    /// Measured points, largest pool first.
    pub points: Vec<ColdStartPoint>,
}

impl ColdStartReport {
    /// Render the sweep as an aligned text table.
    pub fn table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.0}%", p.pool_fraction * 100.0),
                    fmt_count(p.pool_pages as u64),
                    fmt_count(p.open_micros),
                    fmt_count(p.first_touch_micros),
                    fmt_f64(p.touches_per_sec, 0),
                    fmt_count(p.faults),
                    fmt_count(p.pool_hits),
                    fmt_count(p.evictions),
                    if p.verified { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect();
        format!(
            "cold start: {} rows persisted as {} pages, {} steady traces\n{}",
            fmt_count(self.rows),
            fmt_count(self.dataset_pages),
            self.traces,
            render_table(
                &[
                    "pool",
                    "pages",
                    "open_us",
                    "first_touch_us",
                    "touches/s",
                    "faults",
                    "pool_hits",
                    "evictions",
                    "verified",
                ],
                &rows,
            )
        )
    }
}

/// The deterministic trace mix: one short probe (the "first touch"), then an
/// alternation of plain and exploratory slides over the whole object.
fn plan_traces(view: &dbtouch_gesture::view::View, traces: usize) -> Vec<GestureTrace> {
    let mut synthesizer = GestureSynthesizer::new(60.0);
    let mut out = Vec::with_capacity(traces + 1);
    out.push(synthesizer.slide_down(view, 0.1));
    for i in 0..traces {
        if i % 2 == 0 {
            out.push(synthesizer.slide_down(view, 1.0));
        } else {
            out.push(synthesizer.exploratory_slide(view, 2.0));
        }
    }
    out
}

fn run_all(
    catalog: &Arc<SharedCatalog>,
    object: dbtouch_core::kernel::ObjectId,
    traces: &[GestureTrace],
) -> Result<u64> {
    let mut kernel = Kernel::from_catalog(Arc::clone(catalog));
    kernel.set_action(
        object,
        TouchAction::Summary {
            half_window: Some(500),
            kind: AggregateKind::Avg,
        },
    )?;
    let mut outcomes = Vec::with_capacity(traces.len());
    for trace in traces {
        outcomes.push(TraceOutcome {
            object,
            outcome: kernel.run_trace(object, trace)?,
        });
    }
    Ok(digest_outcomes(outcomes.iter()))
}

/// Run the sweep: persist a seeded catalog once, then for each pool fraction
/// reopen it cold and measure open, first-touch and steady throughput.
pub fn run_cold_start_sweep(
    rows: usize,
    fractions: &[f64],
    traces: usize,
) -> Result<ColdStartReport> {
    let scenario = Scenario::sky_survey(rows, 29);
    // Adaptive sampling steers slides onto the (tiny) coarse sample levels,
    // which is the right default for interactivity but would let this bench
    // serve everything from a handful of pages. The point here is the
    // streaming boundary, so every touch reads base data through the pool.
    let config = KernelConfig::default().with_adaptive_sampling(false);
    let catalog = Arc::new(SharedCatalog::new(config.clone()));
    let object = catalog.load_column_typed(scenario.signal_column(), SizeCm::new(2.0, 12.0))?;
    let view = catalog.data(object)?.base_view().clone();
    let plan = plan_traces(&view, traces);
    let baseline = run_all(&catalog, object, &plan)?;

    let dir = std::env::temp_dir().join(format!("dbtouch-cold-start-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    catalog.persist_to(&dir)?;
    let page_file = std::fs::metadata(dir.join(dbtouch_storage::persist::PAGES_FILE))
        .map_err(|e| DbTouchError::Io(format!("stat page file: {e}")))?;
    let dataset_pages = page_file.len() / dbtouch_storage::page::DEFAULT_PAGE_SIZE as u64;
    drop(catalog);

    let mut points = Vec::with_capacity(fractions.len());
    for &fraction in fractions {
        let pool_pages = ((dataset_pages as f64 * fraction).ceil() as usize).max(8);
        let config = config.clone().with_buffer_pool_pages(pool_pages);

        let opened_at = Instant::now();
        let reopened = Arc::new(SharedCatalog::open(&dir, config)?);
        let open_micros = opened_at.elapsed().as_micros() as u64;
        let object = reopened.object_id(&scenario.name)?;

        let probe_at = Instant::now();
        let probe_digest = run_all(&reopened, object, &plan[..1])?;
        let first_touch_micros = probe_at.elapsed().as_micros() as u64;

        let steady_at = Instant::now();
        let steady_digest = run_all(&reopened, object, &plan)?;
        let steady_nanos = steady_at.elapsed().as_nanos().max(1) as u64;
        let touches: u64 = plan.iter().map(|t| t.len() as u64).sum();
        let stats = reopened
            .pager_stats()
            .ok_or_else(|| DbTouchError::Internal("reopened catalog has no pager".into()))?;

        // The digest of the full sequence is order-sensitive; the probe runs
        // as its own kernel session in both runs, so probe and steady are
        // each comparable to the in-memory baseline of the same traces.
        let baseline_probe = run_probe_baseline(&scenario, &plan[..1])?;
        points.push(ColdStartPoint {
            pool_fraction: fraction,
            pool_pages,
            open_micros,
            first_touch_micros,
            touches,
            touches_per_sec: touches as f64 / (steady_nanos as f64 / 1e9),
            faults: stats.faults,
            pool_hits: stats.pool_hits,
            evictions: stats.evictions,
            verified: steady_digest == baseline && probe_digest == baseline_probe,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(ColdStartReport {
        rows: rows as u64,
        dataset_pages,
        traces,
        points,
    })
}

/// Baseline digest of the probe trace against a fresh in-memory catalog of
/// the same scenario (cached across points by recomputation — cheap).
fn run_probe_baseline(scenario: &Scenario, probe: &[GestureTrace]) -> Result<u64> {
    let catalog = Arc::new(SharedCatalog::new(
        KernelConfig::default().with_adaptive_sampling(false),
    ));
    let object = catalog.load_column_typed(scenario.signal_column(), SizeCm::new(2.0, 12.0))?;
    run_all(&catalog, object, probe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_verified_at_small_pools() {
        let report = run_cold_start_sweep(20_000, &[1.0, 0.1], 2).unwrap();
        assert_eq!(report.points.len(), 2);
        for point in &report.points {
            assert!(point.verified, "digest diverged at {point:?}");
            assert!(point.touches_per_sec > 0.0);
            assert!(point.faults > 0, "cold open must fault pages");
        }
        // The 10% pool cannot hold the dataset: it must evict.
        let small = &report.points[1];
        assert!((small.pool_pages as u64) < report.dataset_pages);
        assert!(small.evictions > 0, "{small:?}");
        assert!(!report.table().is_empty());
    }
}
