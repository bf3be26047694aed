//! Morsel-driven segment scans with deterministic merge.
//!
//! A summary window used to be folded row-by-row on the one thread that
//! processed the touch, so a giant object was bounded by a single core. This
//! module fans the window out instead: the window is planned into
//! [`Segment`]s (fixed-row partitions at absolute boundaries, see
//! [`dbtouch_storage::segment`]), the segments become *morsels* on a shared
//! work queue, and a small pool of scan helpers — sized by
//! [`KernelConfig::scan_parallelism`](dbtouch_types::KernelConfig::scan_parallelism)
//! — steals them while the submitting session claims morsels of its own
//! batch, so progress never depends on a helper being free.
//!
//! **Hand-off.** Waking a parked helper costs a futex call and, when the
//! helper sits on another CPU, an inter-processor interrupt — tens of
//! microseconds under a hypervisor, more than a whole window of
//! run-length-encoded segments takes to scan. So the submitter starts on its
//! batch alone and publishes it to the helpers only once it has scanned for
//! [`HELPER_WAKE_AFTER`] and segments are still unclaimed: a cheap window
//! never leaves the submitting thread (its cost no longer depends on which
//! CPU the scheduler happened to put a helper on), an expensive one fans out
//! one wake-up's worth of time late.
//!
//! **Determinism.** Partial results land in a [`SegmentLedger`] — the same
//! ordered-contribution log as `remote_exec::RefinementLedger`, generalized
//! to segment slots — and are folded *in segment order* once the batch
//! completes. Integer columns accumulate exact `i128` sums, so the fold is
//! also independent of how the window was decomposed; float columns never
//! decompose (f64 addition is order-dependent). Either way, the digest of a
//! run is bit-identical at every `scan_parallelism` and `segment_rows`
//! setting, which is what lets the overlapped remote executor and the local
//! parallel scan compose: both paths compute windows through the one
//! [`window_stats`] kernel below.
//!
//! **Pruning.** At the base level, a segment that exactly covers zone-map
//! blocks of an integer column is *answered* from the index's stored block
//! sums and bounds — bit-identical to scanning it — and counted as pruned.
//!
//! With `scan_parallelism = 1` no pool exists and [`window_stats`] runs the
//! same plan inline on the calling thread: one segment for any window at
//! most `segment_rows` long, i.e. the existing sequential path.

use crate::catalog::ObjectData;
use dbtouch_obs::{trace_ctx, MetricSource, MetricValue, Telemetry, TraceCtx};
use dbtouch_storage::segment::{plan_segments, Segment, SegmentStats};
use dbtouch_types::{DbTouchError, Result, RowRange};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a submitter scans its own batch before it publishes the rest to
/// the helpers: a few wake-ups' worth, so the hand-off is paid only by
/// windows that outlast it.
pub const HELPER_WAKE_AFTER: Duration = Duration::from_micros(50);

/// The ordered per-segment contribution log of one fanned-out window:
/// `remote_exec::RefinementLedger`'s ordered-slot discipline, generalized
/// from refinement tickets to segment indexes. Slots resolve in any order
/// (whichever thread finishes first); [`fold`](SegmentLedger::fold) merges
/// them strictly in segment order.
#[derive(Debug)]
pub struct SegmentLedger {
    slots: Vec<Option<SegmentStats>>,
    resolved: usize,
    /// First error any segment produced; the fold is abandoned when set.
    error: Option<DbTouchError>,
    /// Segments answered from the zone-map index without reading data.
    pruned: u64,
}

impl SegmentLedger {
    /// A ledger with `len` unresolved slots.
    pub fn new(len: usize) -> SegmentLedger {
        SegmentLedger {
            slots: vec![None; len],
            resolved: 0,
            error: None,
            pruned: 0,
        }
    }

    /// Resolve slot `index` with its scanned (or index-answered) statistics.
    pub fn resolve(&mut self, index: usize, stats: SegmentStats) {
        debug_assert!(self.slots[index].is_none(), "segment resolved twice");
        self.slots[index] = Some(stats);
        self.resolved += 1;
    }

    /// Resolve slot `index` as failed, recording the first error.
    pub fn resolve_error(&mut self, error: DbTouchError) {
        self.error.get_or_insert(error);
        self.resolved += 1;
    }

    /// Whether every slot has resolved (successfully or not).
    pub fn is_complete(&self) -> bool {
        self.resolved == self.slots.len()
    }

    /// Fold the resolved contributions in segment order into the window's
    /// statistics. Call only when [`is_complete`](SegmentLedger::is_complete);
    /// returns the first recorded error, if any.
    pub fn fold(&mut self) -> Result<SegmentStats> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        let mut slots = self.slots.iter().flatten();
        let mut acc = *slots.next().expect("fold of an empty ledger");
        for stats in slots {
            acc.merge(stats);
        }
        Ok(acc)
    }
}

/// One fanned-out window scan: the shared immutable data, the planned
/// segments, a claim cursor, and the ledger the results land in.
struct ScanBatch {
    data: Arc<ObjectData>,
    attribute: usize,
    level: u8,
    segments: Vec<Segment>,
    /// Next unclaimed segment; claimed with one `fetch_add`, so the
    /// submitter and any number of helpers partition the batch without locks.
    next: AtomicUsize,
    ledger: Mutex<SegmentLedger>,
    done: Condvar,
    /// The submitting thread's trace context: every thread draining the
    /// batch, helpers included, parents its `segments` span to its service
    /// span.
    ctx: Option<TraceCtx>,
    /// The submitting session's telemetry hub, for `segments` spans.
    telemetry: Option<Arc<Telemetry>>,
}

impl ScanBatch {
    /// Claim the next unscanned segment, if any.
    fn claim(&self) -> Option<Segment> {
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        self.segments.get(index).copied()
    }

    /// Whether unclaimed segments remain.
    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.segments.len()
    }

    /// Scan (or index-answer) one claimed segment and resolve its slot.
    fn process(&self, segment: Segment, shared: &PoolShared, stolen: bool) {
        let result = scan_segment(&self.data, self.attribute, self.level, segment);
        shared.segments_scanned.fetch_add(1, Ordering::Relaxed);
        if stolen {
            shared.steals.fetch_add(1, Ordering::Relaxed);
        }
        let mut ledger = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
        match result {
            Ok((stats, answered)) => {
                if answered {
                    ledger.pruned += 1;
                    shared.pruned_segments.fetch_add(1, Ordering::Relaxed);
                }
                ledger.resolve(segment.index, stats);
            }
            Err(e) => ledger.resolve_error(e),
        }
        if ledger.is_complete() {
            self.done.notify_all();
        }
    }

    /// Claim and process segments until none remain, recording the run as
    /// one `"segments"` span (child of the submitting gesture's service
    /// span) when the submitter carried one — each participating thread
    /// contributes one span per batch, `detail` = segments it claimed.
    /// `between` runs after every processed segment.
    fn drain(&self, shared: &PoolShared, stolen: bool, mut between: impl FnMut()) {
        let spans = match (&self.telemetry, self.ctx) {
            (Some(telemetry), Some(ctx)) if ctx.span != 0 && telemetry.spans().is_enabled() => {
                Some((telemetry, ctx))
            }
            _ => None,
        };
        let start = spans.map(|(telemetry, _)| telemetry.now_nanos());
        let mut claimed = 0u64;
        while let Some(segment) = self.claim() {
            self.process(segment, shared, stolen);
            claimed += 1;
            between();
        }
        if claimed > 0 {
            if let (Some((telemetry, ctx)), Some(start)) = (spans, start) {
                let end = telemetry.now_nanos();
                telemetry.spans().record_span(
                    ctx.session,
                    ctx.trace,
                    ctx.span,
                    "segments",
                    start,
                    end.saturating_sub(start),
                    claimed,
                );
            }
        }
    }
}

#[derive(Default)]
struct PoolQueue {
    batches: Vec<Arc<ScanBatch>>,
    shutdown: bool,
}

/// State shared between the pool handle and its helper threads (helpers hold
/// this, not the pool, so dropping the last pool handle shuts them down).
struct PoolShared {
    queue: Mutex<PoolQueue>,
    available: Condvar,
    /// See [`HELPER_WAKE_AFTER`]; a field so tests can publish at once.
    wake_after: Duration,
    segments_scanned: AtomicU64,
    steals: AtomicU64,
    pruned_segments: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
}

/// The shared morsel work queue and its scan-helper pool.
///
/// One pool serves every session of a catalog. A submitted batch is executed
/// cooperatively: the submitter claims and scans segments of its own batch
/// (so a batch completes even when every helper is busy elsewhere) while idle
/// helpers steal segments from whichever queued batch still has work.
pub struct MorselPool {
    shared: Arc<PoolShared>,
    helpers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for MorselPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MorselPool")
            .field("helpers", &self.helpers.len())
            .finish()
    }
}

impl MorselPool {
    /// Spawn a pool with `helpers` scan-helper threads (the submitting
    /// session is the +1 that makes `scan_parallelism` total workers).
    pub fn start(helpers: usize) -> MorselPool {
        MorselPool::start_waking_after(helpers, HELPER_WAKE_AFTER)
    }

    fn start_waking_after(helpers: usize, wake_after: Duration) -> MorselPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue::default()),
            available: Condvar::new(),
            wake_after,
            segments_scanned: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            pruned_segments: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let helpers = (0..helpers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dbtouch-scan-{index}"))
                    .spawn(move || helper_loop(&shared))
                    .expect("spawn scan helper thread")
            })
            .collect();
        MorselPool { shared, helpers }
    }

    /// Number of scan-helper threads.
    pub fn helper_count(&self) -> usize {
        self.helpers.len()
    }

    /// Scan one planned window and block until every segment resolved. The
    /// calling thread starts on it alone and fans the rest out over the pool
    /// once it has scanned for [`HELPER_WAKE_AFTER`]; it keeps claiming
    /// segments like a helper, so the scan completes even on a saturated pool.
    /// Returns the in-order fold plus how many segments were index-answered.
    pub fn scan(
        &self,
        data: Arc<ObjectData>,
        attribute: usize,
        level: u8,
        segments: Vec<Segment>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<(SegmentStats, u64)> {
        let batch = Arc::new(ScanBatch {
            data,
            attribute,
            level,
            ledger: Mutex::new(SegmentLedger::new(segments.len())),
            segments,
            next: AtomicUsize::new(0),
            done: Condvar::new(),
            ctx: trace_ctx(),
            telemetry,
        });
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        // Work on our own batch first; the helpers hear of it only if it
        // outlasts the hand-off's cost (see the module docs).
        let started = Instant::now();
        let mut published = false;
        batch.drain(&self.shared, false, || {
            if !published && batch.has_work() && started.elapsed() >= self.shared.wake_after {
                let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                queue.batches.push(Arc::clone(&batch));
                self.shared.available.notify_all();
                published = true;
            }
        });
        // An unpublished batch was scanned here alone: already complete.
        let mut ledger = batch.ledger.lock().unwrap_or_else(|e| e.into_inner());
        while !ledger.is_complete() {
            ledger = batch.done.wait(ledger).unwrap_or_else(|e| e.into_inner());
        }
        let pruned = ledger.pruned;
        let folded = ledger.fold();
        drop(ledger);
        self.shared.completed.fetch_add(1, Ordering::Relaxed);
        if published {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.batches.retain(|b| !Arc::ptr_eq(b, &batch));
        }
        Ok((folded?, pruned))
    }
}

impl MetricSource for MorselPool {
    fn source_name(&self) -> &'static str {
        "morsel"
    }

    fn collect(&self) -> Vec<(&'static str, MetricValue)> {
        let s = &self.shared;
        let submitted = s.submitted.load(Ordering::Relaxed);
        let completed = s.completed.load(Ordering::Relaxed);
        vec![
            (
                "segments_scanned",
                MetricValue::Counter(s.segments_scanned.load(Ordering::Relaxed)),
            ),
            (
                "steals",
                MetricValue::Counter(s.steals.load(Ordering::Relaxed)),
            ),
            (
                "pruned_segments",
                MetricValue::Counter(s.pruned_segments.load(Ordering::Relaxed)),
            ),
            // Batches in flight: submitted but not yet folded. The counters
            // are read independently, so clamp at zero.
            (
                "queue_depth",
                MetricValue::Gauge(submitted.saturating_sub(completed)),
            ),
        ]
    }
}

impl Drop for MorselPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.shutdown = true;
            self.shared.available.notify_all();
        }
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
    }
}

/// A helper thread: steal a batch with unclaimed segments, drain what can
/// be claimed, repeat.
fn helper_loop(shared: &PoolShared) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(batch) = queue.batches.iter().find(|b| b.has_work()) {
                    break Arc::clone(batch);
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        batch.drain(shared, true, || {});
    }
}

/// Scan one segment — or answer it from the zone-map index when the segment
/// exactly covers blocks of an indexed integer base column (bit-identical to
/// scanning; see [`dbtouch_storage::ZoneMapIndex::segment_stats`]). Returns
/// the statistics and whether the index answered.
fn scan_segment(
    data: &ObjectData,
    attribute: usize,
    level: u8,
    segment: Segment,
) -> Result<(SegmentStats, bool)> {
    if level == 0 {
        if let Some(index) = data.indexes().get(attribute).and_then(|i| i.as_ref()) {
            if let Some(stats) = index.segment_stats(segment.range) {
                return Ok((stats, true));
            }
        }
    }
    let hierarchy = data
        .hierarchies()
        .get(attribute)
        .ok_or_else(|| DbTouchError::NotFound(format!("attribute {attribute}")))?;
    let column = hierarchy.level(level)?;
    Ok((column.segment_range_stats(segment.range)?, false))
}

/// The merged statistics of one summary window plus how it was executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowScan {
    /// Rows aggregated.
    pub count: u64,
    /// Sum of the values (converted from the exact integer sum at the end).
    pub sum: f64,
    /// Minimum value, `None` for an empty window.
    pub min: Option<f64>,
    /// Maximum value, `None` for an empty window.
    pub max: Option<f64>,
    /// Segments executed (scanned or index-answered); 1 for the sequential
    /// float path.
    pub segments_scanned: u64,
    /// Segments answered from the zone-map index without reading data.
    pub pruned_segments: u64,
}

/// The one window-statistics kernel every execution path computes through —
/// the session's summary scan, its pause-time refinement debt, and the
/// remote executor's server-side fetch — so no pair of paths can ever
/// disagree:
///
/// * **Integer columns** are planned into segments of `segment_rows` and
///   merged from exact `i128` partial sums: the result is bit-identical for
///   every decomposition, so `segment_rows` and `scan_parallelism` (and
///   local vs. remote) cannot perturb a digest. Windows of more than one
///   segment fan out over `pool` when one is given; otherwise the same plan
///   runs inline.
/// * **Float columns** are never decomposed (f64 addition is
///   order-dependent): one sequential ascending fold, exactly the legacy
///   arithmetic.
pub fn window_stats(
    data: &Arc<ObjectData>,
    attribute: usize,
    level: u8,
    range: RowRange,
    segment_rows: u64,
    pool: Option<&MorselPool>,
    telemetry: Option<&Arc<Telemetry>>,
) -> Result<WindowScan> {
    let hierarchy = data
        .hierarchies()
        .get(attribute)
        .ok_or_else(|| DbTouchError::NotFound(format!("attribute {attribute}")))?;
    let column = hierarchy.level(level)?;
    let range = range.clamp_to(column.len());
    if !column.data_type().is_integer() {
        let (count, sum, min, max) = column.numeric_range_stats(range)?;
        return Ok(WindowScan {
            count,
            sum,
            min,
            max,
            segments_scanned: 1,
            pruned_segments: 0,
        });
    }
    let segments = plan_segments(range, segment_rows);
    let total = segments.len() as u64;
    if segments.is_empty() {
        return Ok(WindowScan {
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
            segments_scanned: 0,
            pruned_segments: 0,
        });
    }
    let (stats, pruned) = match pool {
        Some(pool) if segments.len() > 1 => pool.scan(
            Arc::clone(data),
            attribute,
            level,
            segments,
            telemetry.cloned(),
        )?,
        _ => {
            let mut acc: Option<SegmentStats> = None;
            let mut pruned = 0;
            for segment in segments {
                let (stats, answered) = scan_segment(data, attribute, level, segment)?;
                if answered {
                    pruned += 1;
                }
                match acc.as_mut() {
                    Some(acc) => acc.merge(&stats),
                    None => acc = Some(stats),
                }
            }
            (acc.expect("at least one segment"), pruned)
        }
    };
    Ok(WindowScan {
        count: stats.count,
        sum: stats.sum.as_f64(),
        min: stats.min,
        max: stats.max,
        segments_scanned: total,
        pruned_segments: pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SharedCatalog;
    use dbtouch_storage::segment::SegmentSum;
    use dbtouch_types::{KernelConfig, SizeCm};

    fn object(rows: i64) -> Arc<ObjectData> {
        let catalog = SharedCatalog::new(KernelConfig::default());
        let id = catalog
            .load_column(
                "c",
                (0..rows).map(|v| v * 3 - rows).collect(),
                SizeCm::new(2.0, 10.0),
            )
            .unwrap();
        catalog.data(id).unwrap()
    }

    fn scan(
        data: &Arc<ObjectData>,
        range: RowRange,
        rows: u64,
        pool: Option<&MorselPool>,
    ) -> WindowScan {
        window_stats(data, 0, 0, range, rows, pool, None).unwrap()
    }

    #[test]
    fn window_is_identical_across_decompositions() {
        let data = object(100_000);
        let whole = scan(&data, RowRange::new(123, 99_321), u64::MAX, None);
        for segment_rows in [100, 4096, 7777, 65_536, 200_000] {
            let scanned = scan(&data, RowRange::new(123, 99_321), segment_rows, None);
            assert_eq!(
                (scanned.count, scanned.sum, scanned.min, scanned.max),
                (whole.count, whole.sum, whole.min, whole.max),
                "segment_rows={segment_rows}"
            );
        }
    }

    #[test]
    fn pooled_scan_matches_inline_scan() {
        let data = object(200_000);
        let range = RowRange::new(1_000, 180_000);
        let inline = scan(&data, range, 8192, None);
        // The default pool keeps a window this cheap on the submitter; a
        // zero delay publishes after the first segment, so the helpers'
        // path runs too.
        for pool in [
            MorselPool::start(3),
            MorselPool::start_waking_after(3, Duration::ZERO),
        ] {
            for _ in 0..4 {
                let pooled = scan(&data, range, 8192, Some(&pool));
                assert_eq!(pooled, inline);
            }
            let metrics = pool.collect();
            let counter = |name: &str| {
                metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| match v {
                        MetricValue::Counter(c) => *c,
                        MetricValue::Gauge(g) => *g,
                        _ => panic!("unexpected metric shape"),
                    })
                    .unwrap()
            };
            assert_eq!(counter("segments_scanned"), 4 * inline.segments_scanned);
            assert_eq!(counter("queue_depth"), 0);
            assert_eq!(counter("pruned_segments"), 4 * inline.pruned_segments);
            assert!(pool.shared.queue.lock().unwrap().batches.is_empty());
        }
        assert!(
            inline.pruned_segments > 0,
            "aligned segments must be answered"
        );
    }

    #[test]
    fn aligned_segments_are_answered_from_the_index() {
        let data = object(50_000);
        // 8192 = 2 zone blocks: interior segments cover whole blocks.
        let scanned = scan(&data, RowRange::new(0, 49_152), 8192, None);
        assert_eq!(scanned.segments_scanned, 6);
        assert_eq!(scanned.pruned_segments, 6);
        // An unaligned window still answers its aligned interior.
        let ragged = scan(&data, RowRange::new(5, 49_999), 8192, None);
        assert_eq!(ragged.segments_scanned, 7);
        assert_eq!(ragged.pruned_segments, 5);
        // Coarser levels have no index: everything is scanned.
        let coarse = window_stats(&data, 0, 2, RowRange::new(0, 8192), 4096, None, None).unwrap();
        assert_eq!(coarse.pruned_segments, 0);
    }

    #[test]
    fn float_windows_never_decompose() {
        let catalog = SharedCatalog::new(KernelConfig::default());
        let id = catalog
            .load_column_f64(
                "f",
                (0..100_000).map(|v| (v as f64) * 0.1).collect(),
                SizeCm::new(2.0, 10.0),
            )
            .unwrap();
        let data = catalog.data(id).unwrap();
        let pool = MorselPool::start(2);
        let scanned = scan(&data, RowRange::new(0, 100_000), 64, Some(&pool));
        assert_eq!(scanned.segments_scanned, 1);
        assert_eq!(scanned.pruned_segments, 0);
        let hierarchy = &data.hierarchies()[0];
        let (count, sum, min, max) = hierarchy
            .base()
            .numeric_range_stats(RowRange::new(0, 100_000))
            .unwrap();
        assert_eq!((scanned.count, scanned.sum), (count, sum));
        assert_eq!((scanned.min, scanned.max), (min, max));
    }

    #[test]
    fn ledger_folds_in_segment_order_and_surfaces_errors() {
        let mut ledger = SegmentLedger::new(3);
        assert!(!ledger.is_complete());
        let stats = |sum: i128, count: u64| SegmentStats {
            count,
            sum: SegmentSum::Int(sum),
            min: Some(0.0),
            max: Some(1.0),
        };
        // Resolved out of order; folded in slot order.
        ledger.resolve(2, stats(30, 3));
        ledger.resolve(0, stats(1, 1));
        ledger.resolve(1, stats(200, 2));
        assert!(ledger.is_complete());
        let folded = ledger.fold().unwrap();
        assert_eq!(folded.count, 6);
        assert_eq!(folded.sum, SegmentSum::Int(231));
        let mut failed = SegmentLedger::new(2);
        failed.resolve(0, stats(1, 1));
        failed.resolve_error(DbTouchError::Corrupt("bad page".into()));
        assert!(failed.is_complete());
        assert!(failed.fold().is_err());
    }

    #[test]
    fn empty_window_is_empty() {
        let data = object(1000);
        let scanned = scan(&data, RowRange::new(500, 500), 64, None);
        assert_eq!(scanned.count, 0);
        assert_eq!(scanned.segments_scanned, 0);
        assert_eq!((scanned.min, scanned.max), (None, None));
    }
}
