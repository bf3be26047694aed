//! Query sessions: gestures driving per-touch query processing.
//!
//! "In dbTouch, a query is a session of one or more continuous gestures and the
//! system needs to react to every touch, while the user is now in control of the
//! data flow."
//!
//! A [`Session`] runs a touch trace over one data object in two halves. The
//! [`TouchPlanner`] recognizes the gestures and, for every touch, (1) maps it
//! to a tuple identifier and (2) picks the granularity / sample level from the
//! gesture speed and object size; the session then (3) folds the object's
//! configured per-touch action over that plan and (4) appends the produced
//! value to the result stream. A summary window
//! over the per-touch row cap is answered from its first rows and refined —
//! the full window folded, the result patched in place — at the next pause or
//! at the end of the trace.

use crate::catalog::ObjectState;
use crate::kernel::TouchAction;
use crate::operators::aggregate::{AggregateKind, RunningAggregate};
use crate::operators::filter::Predicate;
use crate::operators::groupby::IncrementalGroupBy;
use crate::operators::scan::PointScan;
use crate::plan::{PlanStep, SummaryWindow, TouchPlan, TouchPlanner};
use crate::remote::RemoteStats;
use crate::remote_exec::{
    summary_value, Contribution, PendingRefinement, RangeStats, RefinementLedger, RemoteTier,
};
use crate::result::{ResultKind, ResultStream, TouchResult};
use dbtouch_gesture::trace::GestureTrace;
use dbtouch_storage::shared_cache::SummaryKey;
use dbtouch_types::{DbTouchError, KernelConfig, Result, RowId, RowRange, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Statistics collected while a session runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Raw touch samples consumed.
    pub touches: u64,
    /// Gesture events recognized.
    pub gesture_events: u64,
    /// Result values delivered (the paper's "# of data entries returned").
    pub entries_returned: u64,
    /// Rows read from storage (including summary windows and refinements).
    pub rows_touched: u64,
    /// Bytes read from storage.
    pub bytes_touched: u64,
    /// Touches skipped because they mapped to the same tuple as the previous
    /// touch (no new data requested).
    pub duplicate_touches: u64,
    /// Zoom gestures applied.
    pub zooms: u64,
    /// Rotate gestures applied.
    pub rotations: u64,
    /// Summary windows over the row cap that were answered from their first
    /// rows and then folded in full (at a pause or at the end of the trace).
    pub refinements: u64,
    /// Touches answered without reading data because the zone-map index proved
    /// the touched block cannot satisfy the filter predicate (Section 2.6,
    /// "Indexing": the slide becomes an index scan).
    pub index_skips: u64,
    /// Column segments executed by the segment kernel for this session's
    /// summary windows (scanned or index-answered); see [`crate::morsel`].
    #[serde(default)]
    pub segments_scanned: u64,
    /// Segments answered from the zone-map index's stored block statistics
    /// without reading data (segment-granularity pruning).
    #[serde(default)]
    pub pruned_segments: u64,
    /// Real compute time spent inside per-touch processing (nanoseconds).
    pub compute_nanos: u64,
    /// Maximum per-touch processing time observed (nanoseconds).
    pub max_touch_nanos: u64,
    /// Histogram of sample levels used: level -> touches served from it.
    pub sample_level_usage: BTreeMap<u8, u64>,
    /// Summary windows answered from the shared cross-session result cache.
    pub shared_cache_hits: u64,
    /// Summary windows the shared cache did not hold (computed from storage).
    pub shared_cache_misses: u64,
    /// Window aggregates this session inserted into the shared cache.
    pub shared_cache_inserts: u64,
    /// Device/cloud traffic of the session's remote split (all zero without
    /// one). Progressive requests are fine-level summaries answered coarse
    /// locally with an asynchronous refinement; `rows_shipped` and
    /// `remote_wait_micros` accrue when refinements land. The session never
    /// stalls on the link: any wait happens at the owner's drain barrier and
    /// is recorded there.
    #[serde(default)]
    pub remote: RemoteStats,
    /// Refinements applied to this session's outcomes so far.
    #[serde(default)]
    pub remote_refinements_applied: u64,
    /// Refinements dropped because the object was rebuilt before they landed.
    #[serde(default)]
    pub remote_refinements_dropped: u64,
}

dbtouch_types::wire_struct!(SessionStats {
    touches: u64,
    gesture_events: u64,
    entries_returned: u64,
    rows_touched: u64,
    bytes_touched: u64,
    duplicate_touches: u64,
    zooms: u64,
    rotations: u64,
    refinements: u64,
    index_skips: u64,
    segments_scanned: u64,
    pruned_segments: u64,
    compute_nanos: u64,
    max_touch_nanos: u64,
    sample_level_usage: BTreeMap<u8, u64>,
    shared_cache_hits: u64,
    shared_cache_misses: u64,
    shared_cache_inserts: u64,
    remote: RemoteStats,
    remote_refinements_applied: u64,
    remote_refinements_dropped: u64,
});

impl SessionStats {
    /// Mean per-touch processing time in nanoseconds (0 when no touches):
    /// the measured [`compute_nanos`](Self::compute_nanos) over all touches.
    pub fn mean_touch_nanos(&self) -> u64 {
        self.compute_nanos.checked_div(self.touches).unwrap_or(0)
    }
}

/// The outcome of running a gesture trace through a session.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionOutcome {
    /// The result stream produced, in production order.
    pub results: ResultStream,
    /// Statistics about the processing.
    pub stats: SessionStats,
    /// Final value of the running aggregate, if the action maintains one.
    /// Provisional while refinements are [`pending`](Self::pending); exact
    /// once drained.
    pub final_aggregate: Option<f64>,
    /// Final per-group aggregates, if the action is a group-by (sorted by
    /// group value).
    pub final_groups: Vec<(Value, f64)>,
    /// Refinements still in flight on the remote executor, in touch order.
    /// Empty for all-local sessions; drained by the outcome's owner (see
    /// [`crate::remote_exec::drain_outcome`]).
    #[serde(default)]
    pub pending: Vec<PendingRefinement>,
    /// The ordered aggregate-contribution log of a summary session on a
    /// device/cloud split (inactive otherwise); re-folded when refinements
    /// land so the drained aggregate is bit-identical to the all-local run.
    /// Every summary session keeps one, but only a split exports it: an
    /// all-local outcome has nothing left to fold.
    #[serde(default)]
    pub ledger: RefinementLedger,
}

dbtouch_types::wire_struct!(SessionOutcome {
    results: ResultStream,
    stats: SessionStats,
    final_aggregate: Option<f64>,
    final_groups: Vec<(Value, f64)>,
    pending: Vec<PendingRefinement>,
    ledger: RefinementLedger,
});

impl SessionOutcome {
    /// Whether every refinement has landed (always true for all-local runs).
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }
}

/// A query session over one data object.
///
/// A session borrows one [`ObjectState`] (per-session mutable exploration
/// state) and reads the shared, immutable object data through it. Sessions on
/// different states never contend: `dbtouch-server` runs many of them
/// concurrently over one [`crate::catalog::SharedCatalog`].
///
/// A run is the [`TouchPlanner`]'s steps, each folded here against the
/// object's data.
pub struct Session<'a> {
    object: &'a mut ObjectState,
    config: &'a KernelConfig,
    planner: TouchPlanner,
    aggregate: Option<RunningAggregate>,
    groupby: Option<IncrementalGroupBy>,
    results: ResultStream,
    stats: SessionStats,
    /// Refinements submitted to the remote executor during this run.
    pending: Vec<PendingRefinement>,
    /// Capped summary windows not yet folded in full.
    local: Vec<LocalRefinement>,
    /// Ordered aggregate contributions of a summary session (see
    /// [`RefinementLedger`]); inactive for every other action.
    ledger: RefinementLedger,
}

/// Assumed cost of aggregating one in-memory row, in nanoseconds. It is not
/// measured: it only turns `touch_budget_micros` into a row cap of the right
/// order of magnitude (`touch_budget_micros * 1000 / ASSUMED_NANOS_PER_ROW`).
pub const ASSUMED_NANOS_PER_ROW: u64 = 4;

/// A summary window over the row cap, answered from its first rows: the
/// provisional result and the ledger slot its full fold patches. A local
/// refinement is a remote one with a zero round trip, so it resolves inside
/// the run that issued it.
struct LocalRefinement {
    result_index: usize,
    contrib_index: usize,
    attribute: usize,
    level: u8,
    window: RowRange,
    kind: AggregateKind,
}

impl<'a> Session<'a> {
    /// Create a session over checked-out object state with the kernel
    /// configuration (use [`crate::catalog::SharedCatalog::checkout`] to
    /// obtain the state).
    pub fn new(object: &'a mut ObjectState, config: &'a KernelConfig) -> Session<'a> {
        let aggregate = match &object.action {
            TouchAction::Aggregate(kind) | TouchAction::FilteredAggregate { kind, .. } => {
                Some(RunningAggregate::new(*kind))
            }
            _ => None,
        };
        let groupby = match &object.action {
            TouchAction::GroupBy { kind, .. } => Some(IncrementalGroupBy::new(*kind)),
            _ => None,
        };
        // A summary session appends each window's contribution to the ledger
        // in touch order and folds it at the end, so a refinement that lands
        // later — locally at a pause, or from the remote executor — cannot
        // perturb the floating-point accumulation.
        let ledger = RefinementLedger {
            kind: match &object.action {
                TouchAction::Summary { kind, .. } => Some(*kind),
                _ => None,
            },
            contribs: Vec::new(),
        };
        let shapes = object
            .data
            .attributes()
            .iter()
            .map(|a| a.hierarchy().shape())
            .collect();
        let planner = TouchPlanner::new(object.view.clone(), shapes, &object.action, config);
        Session {
            object,
            config,
            planner,
            aggregate,
            groupby,
            results: ResultStream::new(),
            stats: SessionStats::default(),
            pending: Vec::new(),
            local: Vec::new(),
            ledger,
        }
    }

    /// Run a full gesture trace through the session and return its outcome.
    pub fn run(mut self, trace: &GestureTrace) -> Result<SessionOutcome> {
        trace.validate()?;
        let action = self.object.action.clone();
        for event in &trace.events {
            for gesture in self.planner.observe(event, &mut self.stats) {
                if let Some(step) = self.planner.plan(gesture, &mut self.stats)? {
                    self.execute(&action, step)?;
                }
            }
        }
        self.resolve_local()?;
        Ok(SessionOutcome {
            // A summary's aggregate is the in-order fold of its ledger
            // (provisional while remote refinements are pending — re-folded
            // at drain); otherwise the inline running aggregate.
            final_aggregate: match &self.aggregate {
                Some(aggregate) => aggregate.value(),
                None => self.ledger.fold_value(),
            },
            final_groups: self
                .groupby
                .as_ref()
                .map(|g| g.results())
                .unwrap_or_default(),
            ledger: if self.object.remote.is_some() {
                self.ledger
            } else {
                RefinementLedger::default()
            },
            results: self.results,
            stats: self.stats,
            pending: self.pending,
        })
    }

    fn execute(&mut self, action: &TouchAction, step: PlanStep) -> Result<()> {
        match step {
            PlanStep::Touch(plan) => {
                let started = Instant::now();
                self.process_touch(action, &plan)?;
                let elapsed = started.elapsed().as_nanos() as u64;
                self.stats.compute_nanos += elapsed;
                self.stats.max_touch_nanos = self.stats.max_touch_nanos.max(elapsed);
                Ok(())
            }
            PlanStep::Pause => self.resolve_local(),
            PlanStep::Pinch => {
                self.object.view.clone_from(self.planner.view());
                Ok(())
            }
            // Rotating the session's matrix rotates its view as the planner
            // rotated its own.
            PlanStep::Rotate => self.object.rotate_layout(),
        }
    }

    /// Fold one planned touch with the object's action.
    fn process_touch(&mut self, action: &TouchAction, plan: &TouchPlan) -> Result<()> {
        match action {
            TouchAction::Scan => self.do_scan(plan, None),
            TouchAction::FilteredScan { predicate } => self.do_scan(plan, Some(predicate)),
            TouchAction::Aggregate(_) => self.do_aggregate(plan, None),
            TouchAction::FilteredAggregate { predicate, .. } => {
                self.do_aggregate(plan, Some(predicate))
            }
            TouchAction::Summary { half_window, kind } => {
                let summary = plan.summary.expect("a summary touch plans its window");
                let half_window = half_window.unwrap_or(self.config.summary_half_window);
                self.do_summary(plan, summary, half_window, *kind)
            }
            TouchAction::Tuple => self.do_tuple(plan),
            TouchAction::GroupBy {
                group_attribute,
                value_attribute,
                ..
            } => self.do_group_by(plan, *group_attribute, *value_attribute),
        }
    }

    fn emit(&mut self, result: TouchResult) {
        self.stats.entries_returned += 1;
        self.results.push(result);
    }

    fn charge_rows(&mut self, rows: u64) {
        self.stats.rows_touched += rows;
        self.stats.bytes_touched += rows * 8; // fixed-width 8-byte numeric fields
    }

    /// The statistics of one summary window at `level` of `attribute`'s
    /// hierarchy.
    ///
    /// Concurrent explorers of the same object keep requesting the same
    /// windows; the shared cross-session cache serves the exact tuple a
    /// recomputation would produce, so a hit only saves the compute —
    /// results stay bit-identical with the cache on or off. Misses run
    /// through the shared segment kernel ([`crate::morsel::window_stats`]):
    /// planned into `segment_rows` morsels, fanned out over the catalog's scan
    /// pool when one exists, index-answered where the zone map covers whole
    /// blocks — and always bit-identical to the sequential scan.
    fn window_aggregate(
        &mut self,
        attribute: usize,
        level: u8,
        kind: AggregateKind,
        range: RowRange,
    ) -> Result<RangeStats> {
        let shared_cache = self.object.shared_cache.clone();
        let key = SummaryKey {
            object: self.object.data.identity(),
            attribute: attribute as u32,
            level,
            kind: kind as u8,
            start: range.start,
            end: range.end,
        };
        if let Some(cache) = shared_cache.as_ref() {
            if let Some(hit) = cache.get(&key) {
                self.stats.shared_cache_hits += 1;
                return Ok(hit);
            }
            self.stats.shared_cache_misses += 1;
        }
        let scan = crate::morsel::window_stats(
            &self.object.data,
            attribute,
            level,
            range,
            self.config.segment_rows,
            self.object.morsel.as_deref(),
            Some(&self.object.telemetry),
        )?;
        self.stats.segments_scanned += scan.segments_scanned;
        self.stats.pruned_segments += scan.pruned_segments;
        let stats = RangeStats {
            count: scan.count,
            sum: scan.sum,
            min: scan.min,
            max: scan.max,
        };
        if let Some(cache) = shared_cache {
            cache.insert(key, stats);
            self.stats.shared_cache_inserts += 1;
        }
        Ok(stats)
    }

    fn do_scan(&mut self, plan: &TouchPlan, predicate: Option<&Predicate>) -> Result<()> {
        // Index scan path (Section 2.6): if the predicate's bounds prove the
        // touched block cannot contain a match, answer without touching data.
        if let Some(p) = predicate {
            if self.index_proves_no_match(plan.row, plan.attribute, p) {
                self.stats.index_skips += 1;
                return Ok(());
            }
        }
        let value = PointScan::value(&self.object.matrix, plan.row, plan.attribute)?;
        self.charge_rows(1);
        let kind = if let Some(p) = predicate {
            if !p.eval(&value)? {
                return Ok(());
            }
            ResultKind::FilteredScan
        } else {
            ResultKind::Scan
        };
        self.emit(plan.result(vec![value], kind));
        Ok(())
    }

    /// True if the object's zone-map index proves that the block containing
    /// `row` has no value within the predicate's numeric bounds.
    fn index_proves_no_match(&self, row: RowId, attribute: usize, predicate: &Predicate) -> bool {
        let Some((lo, hi)) = predicate.numeric_bounds() else {
            return false;
        };
        match self
            .object
            .data()
            .attributes()
            .get(attribute)
            .and_then(|a| a.zone_map())
        {
            Some(index) => !index.row_block_may_match(row.0, lo, hi),
            None => false,
        }
    }

    fn do_group_by(
        &mut self,
        plan: &TouchPlan,
        group_attribute: usize,
        value_attribute: usize,
    ) -> Result<()> {
        let group = PointScan::value(&self.object.matrix, plan.row, group_attribute)?;
        let value = PointScan::value(&self.object.matrix, plan.row, value_attribute)?.as_f64()?;
        self.charge_rows(2);
        let groupby = self
            .groupby
            .as_mut()
            .expect("group-by action always has group-by state");
        groupby.update(group.clone(), value);
        let current = groupby.group(&group).expect("group just updated");
        self.emit(plan.result(vec![group, Value::Float(current)], ResultKind::GroupResult));
        Ok(())
    }

    fn do_aggregate(&mut self, plan: &TouchPlan, predicate: Option<&Predicate>) -> Result<()> {
        let value = PointScan::value(&self.object.matrix, plan.row, plan.attribute)?;
        self.charge_rows(1);
        if let Some(p) = predicate {
            if !p.eval(&value)? {
                return Ok(());
            }
        }
        let numeric = value.as_f64()?;
        let agg = self
            .aggregate
            .as_mut()
            .expect("aggregate action always has aggregate state");
        agg.update(numeric);
        let current = agg.value().expect("non-empty aggregate");
        self.emit(plan.result(vec![Value::Float(current)], ResultKind::RunningAggregate));
        Ok(())
    }

    /// An interactive summary (Section 2.7) over the window the planner
    /// picked for this touch.
    ///
    /// Section 4 asks that "results appear within the expected response time
    /// and then they are continuously refined": a window over the row cap
    /// answers from its first `row_cap` rows now and becomes a
    /// [`LocalRefinement`], folded in full at the next pause or at the end of
    /// the trace. A window finer than a device/cloud split's device holds is
    /// shipped whole instead ([`Self::do_summary_remote`]); that refinement
    /// is asynchronous, so the cap does not apply to it.
    fn do_summary(
        &mut self,
        plan: &TouchPlan,
        summary: SummaryWindow,
        half_window: u64,
        kind: AggregateKind,
    ) -> Result<()> {
        let SummaryWindow {
            level,
            window,
            read,
        } = summary;
        // Device/cloud split: a window at a level finer than the device
        // holds is served by the (simulated) server. (An empty window is
        // all-local trivially: nothing to ship.)
        let level_count = self.object.hierarchy(plan.attribute)?.level_count();
        let remote = match self.object.remote.as_ref() {
            Some(tier) if level < tier.effective_local_min(level_count) && !window.is_empty() => {
                Some(tier.clone())
            }
            _ => None,
        };
        if let Some(tier) = remote {
            return self.do_summary_remote(&tier, plan, half_window, kind, level, window);
        }

        let stats = self.window_aggregate(plan.attribute, level, kind, read)?;
        self.charge_rows(stats.count);
        let value = summary_value(kind, &stats);
        let contribution = if summary.capped() {
            self.local.push(LocalRefinement {
                result_index: self.results.len(),
                contrib_index: self.ledger.contribs.len(),
                attribute: plan.attribute,
                level,
                window,
                kind,
            });
            // Local slots are resolved before the outcome leaves the
            // session, so their ticket names nothing.
            Contribution::Pending { ticket: 0 }
        } else if value.is_some() {
            Contribution::ready(&stats)
        } else {
            return Ok(());
        };
        self.ledger.contribs.push(contribution);
        self.emit(plan.result(
            vec![Value::Float(value.unwrap_or(0.0))],
            ResultKind::Summary,
        ));
        Ok(())
    }

    /// Fold every capped window in full, at its own attribute and level:
    /// patch its provisional result in place, fill its ledger slot and charge
    /// its rows. Runs at each pause and at the end of the trace, so no capped
    /// window outlives the run that read it.
    fn resolve_local(&mut self) -> Result<()> {
        for refinement in std::mem::take(&mut self.local) {
            let stats = self.window_aggregate(
                refinement.attribute,
                refinement.level,
                refinement.kind,
                refinement.window,
            )?;
            let value = summary_value(refinement.kind, &stats)
                .ok_or_else(|| DbTouchError::Internal("refined window produced no value".into()))?;
            let patched = self
                .results
                .set_value(refinement.result_index, Value::Float(value));
            debug_assert!(patched, "a capped window's result is in the stream");
            self.ledger.contribs[refinement.contrib_index] = Contribution::ready(&stats);
            self.charge_rows(stats.count);
            self.stats.refinements += 1;
        }
        Ok(())
    }

    /// The remote path of one summary touch: answer immediately
    /// with the coarsest device-resident level's value over the same logical
    /// window (a *provisional* result), ship the fine-level window to the
    /// executor, and record the refinement handle that will patch this very
    /// result — and resolve this touch's ledger slot — when it lands.
    fn do_summary_remote(
        &mut self,
        tier: &RemoteTier,
        plan: &TouchPlan,
        half_window: u64,
        kind: AggregateKind,
        fine_level: u8,
        window: RowRange,
    ) -> Result<()> {
        let coarse = {
            let hierarchy = self.object.hierarchy(plan.attribute)?;
            let local_min = tier.effective_local_min(hierarchy.level_count());
            let coarse_column = hierarchy.level(local_min)?;
            let coarse_center = hierarchy.shape().map_row(plan.row, local_min)?;
            let coarse_window = RowRange::window(coarse_center, half_window, coarse_column.len());
            let (count, sum, min, max) = coarse_column.numeric_range_stats(coarse_window)?;
            RangeStats {
                count,
                sum,
                min,
                max,
            }
        };
        // The provisional value is display-only (it is patched before the
        // outcome is final), so its rows are progressive traffic, not part
        // of the deterministic row accounting the refinement will charge.
        let provisional = summary_value(kind, &coarse).unwrap_or(0.0);
        let ticket = tier.executor.submit(
            Arc::clone(&self.object.data),
            plan.attribute,
            fine_level,
            window,
            tier.queue(),
        )?;
        self.stats.remote.progressive_requests =
            self.stats.remote.progressive_requests.saturating_add(1);
        let contrib_index = self.ledger.contribs.len() as u64;
        self.ledger.contribs.push(Contribution::Pending { ticket });
        self.pending.push(PendingRefinement {
            ticket,
            object_identity: self.object.data.identity(),
            result_index: self.results.len() as u64,
            contrib_index,
            kind,
            level: fine_level,
        });
        self.emit(plan.result(vec![Value::Float(provisional)], ResultKind::Summary));
        Ok(())
    }

    fn do_tuple(&mut self, plan: &TouchPlan) -> Result<()> {
        let values = PointScan::tuple(&self.object.matrix, plan.row)?;
        self.charge_rows(1);
        self.emit(plan.result(values, ResultKind::Tuple));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, TouchAction};
    use crate::operators::filter::{CompareOp, Predicate};
    use dbtouch_gesture::recognizer::GestureEvent;
    use dbtouch_gesture::synthesizer::GestureSynthesizer;
    use dbtouch_types::wire::{encode, Wire};
    use dbtouch_types::SizeCm;
    use dbtouch_types::{PointCm, Timestamp};

    /// `MIN_BYTES` is what the smallest value of each layout actually
    /// encodes to: no sequence guard rejects a valid frame.
    #[test]
    fn min_bytes_is_the_smallest_encoding() {
        fn smallest<T: Wire>(v: T) {
            let name = std::any::type_name::<T>();
            assert_eq!(encode(&v).len(), T::MIN_BYTES, "{name}");
        }
        smallest(TouchAction::Scan);
        smallest(TouchResult {
            row: RowId(0),
            position_fraction: 0.0,
            values: vec![],
            produced_at: Timestamp(0),
            kind: ResultKind::Scan,
        });
        smallest(Contribution::Pending { ticket: 0 });
        smallest(SessionOutcome::default());
    }

    fn kernel_with_column(n: i64) -> (Kernel, crate::kernel::ObjectId) {
        let mut kernel = Kernel::new(KernelConfig::default());
        let id = kernel
            .load_column("col", (0..n).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        (kernel, id)
    }

    #[test]
    fn scan_session_returns_touched_values() {
        let (mut kernel, id) = kernel_with_column(100_000);
        kernel.set_action(id, TouchAction::Scan).unwrap();
        let view = kernel.view(id).unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
        let outcome = kernel.run_trace(id, &trace).unwrap();
        assert!(outcome.stats.entries_returned > 30);
        assert_eq!(
            outcome.stats.entries_returned as usize,
            outcome.results.len()
        );
        // values are the raw data and rows increase monotonically for a
        // top-to-bottom slide
        let rows: Vec<u64> = outcome.results.results().iter().map(|r| r.row.0).collect();
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        assert_eq!(rows, sorted);
        for r in outcome.results.results() {
            assert_eq!(r.value().unwrap(), &Value::Int(r.row.0 as i64));
        }
    }

    #[test]
    fn slower_slides_return_more_entries() {
        let (mut kernel, id) = kernel_with_column(1_000_000);
        kernel
            .set_action(
                id,
                TouchAction::Summary {
                    half_window: Some(5),
                    kind: AggregateKind::Avg,
                },
            )
            .unwrap();
        let view = kernel.view(id).unwrap();
        let fast = GestureSynthesizer::new(60.0).slide_down(&view, 0.5);
        let slow = GestureSynthesizer::new(60.0).slide_down(&view, 3.0);
        let fast_out = kernel.run_trace(id, &fast).unwrap();
        let slow_out = kernel.run_trace(id, &slow).unwrap();
        assert!(
            slow_out.stats.entries_returned > 3 * fast_out.stats.entries_returned,
            "slow {} vs fast {}",
            slow_out.stats.entries_returned,
            fast_out.stats.entries_returned
        );
    }

    #[test]
    fn aggregate_session_maintains_running_average() {
        let (mut kernel, id) = kernel_with_column(10_000);
        kernel
            .set_action(id, TouchAction::Aggregate(AggregateKind::Avg))
            .unwrap();
        let view = kernel.view(id).unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
        let outcome = kernel.run_trace(id, &trace).unwrap();
        let final_agg = outcome.final_aggregate.unwrap();
        // A full top-to-bottom slide over 0..10_000 should land near the middle.
        assert!(
            final_agg > 3_000.0 && final_agg < 7_000.0,
            "avg {final_agg}"
        );
        // The running aggregate is emitted per touch and changes over time.
        assert!(outcome.results.len() > 10);
    }

    #[test]
    fn filtered_scan_only_emits_matching_values() {
        let (mut kernel, id) = kernel_with_column(10_000);
        kernel
            .set_action(
                id,
                TouchAction::FilteredScan {
                    predicate: Predicate::compare(CompareOp::Ge, 5_000i64),
                },
            )
            .unwrap();
        let view = kernel.view(id).unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
        let outcome = kernel.run_trace(id, &trace).unwrap();
        assert!(!outcome.results.is_empty());
        for r in outcome.results.results() {
            assert!(r.value().unwrap().as_i64().unwrap() >= 5_000);
            assert_eq!(r.kind, ResultKind::FilteredScan);
        }
        // roughly half of the touches are filtered out
        assert!(outcome.stats.entries_returned < outcome.stats.touches);
    }

    #[test]
    fn summary_session_uses_sample_levels_adaptively() {
        let (mut kernel, id) = kernel_with_column(1_000_000);
        kernel
            .set_action(
                id,
                TouchAction::Summary {
                    half_window: Some(5),
                    kind: AggregateKind::Avg,
                },
            )
            .unwrap();
        let view = kernel.view(id).unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
        let outcome = kernel.run_trace(id, &trace).unwrap();
        // With default adaptive sampling on a 1M-row, 10cm object the kernel
        // should never read base data directly.
        assert!(outcome.stats.sample_level_usage.keys().all(|&l| l > 0));
        assert!(outcome.stats.rows_touched > 0);
        assert!(outcome.stats.entries_returned > 0);
    }

    #[test]
    fn naive_config_reads_base_data() {
        let mut kernel = Kernel::new(KernelConfig::naive());
        let id = kernel
            .load_column("col", (0..100_000i64).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        kernel
            .set_action(
                id,
                TouchAction::Summary {
                    half_window: Some(5),
                    kind: AggregateKind::Avg,
                },
            )
            .unwrap();
        let view = kernel.view(id).unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 0.5);
        let outcome = kernel.run_trace(id, &trace).unwrap();
        assert_eq!(
            outcome
                .stats
                .sample_level_usage
                .keys()
                .copied()
                .collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn duplicate_touches_are_skipped() {
        let (mut kernel, id) = kernel_with_column(10);
        kernel.set_action(id, TouchAction::Scan).unwrap();
        let view = kernel.view(id).unwrap();
        // A slow slide over a 10-row object maps many samples to the same rows.
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 2.0);
        let outcome = kernel.run_trace(id, &trace).unwrap();
        assert!(outcome.stats.duplicate_touches > 50);
        assert!(outcome.stats.entries_returned <= 10);
    }

    #[test]
    fn tuple_action_returns_full_rows() {
        let mut kernel = Kernel::new(KernelConfig::default());
        let table = dbtouch_storage::table::Table::from_columns(
            "t",
            vec![
                dbtouch_storage::column::Column::from_i64("id", (0..1000).collect()),
                dbtouch_storage::column::Column::from_f64(
                    "v",
                    (0..1000).map(|i| i as f64).collect(),
                ),
            ],
        )
        .unwrap();
        let id = kernel.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        kernel.set_action(id, TouchAction::Tuple).unwrap();
        let view = kernel.view(id).unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 0.5);
        let outcome = kernel.run_trace(id, &trace).unwrap();
        assert!(!outcome.results.is_empty());
        for r in outcome.results.results() {
            assert_eq!(r.values.len(), 2);
            assert_eq!(r.kind, ResultKind::Tuple);
        }
    }

    #[test]
    fn group_by_action_maintains_per_group_aggregates() {
        let mut kernel = Kernel::new(KernelConfig::default());
        let table = dbtouch_storage::table::Table::from_columns(
            "sales",
            vec![
                dbtouch_storage::column::Column::from_i64(
                    "region",
                    (0..50_000).map(|i| i % 4).collect(),
                ),
                dbtouch_storage::column::Column::from_f64(
                    "amount",
                    (0..50_000).map(|i| (i % 100) as f64).collect(),
                ),
            ],
        )
        .unwrap();
        let id = kernel.load_table(table, SizeCm::new(4.0, 10.0)).unwrap();
        kernel
            .set_action(
                id,
                TouchAction::GroupBy {
                    group_attribute: 0,
                    value_attribute: 1,
                    kind: AggregateKind::Count,
                },
            )
            .unwrap();
        let view = kernel.view(id).unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 2.0);
        let outcome = kernel.run_trace(id, &trace).unwrap();
        assert!(!outcome.final_groups.is_empty());
        assert!(outcome.final_groups.len() <= 4);
        let total: f64 = outcome.final_groups.iter().map(|(_, v)| v).sum();
        assert_eq!(total as u64, outcome.stats.entries_returned);
        for r in outcome.results.results() {
            assert_eq!(r.kind, ResultKind::GroupResult);
            assert_eq!(r.values.len(), 2);
        }
    }

    #[test]
    fn group_by_action_validation() {
        let (mut kernel, id) = kernel_with_column(100);
        // single-column object: value attribute 1 does not exist
        assert!(kernel
            .set_action(
                id,
                TouchAction::GroupBy {
                    group_attribute: 0,
                    value_attribute: 1,
                    kind: AggregateKind::Sum,
                },
            )
            .is_err());
    }

    #[test]
    fn filtered_scan_uses_index_to_skip_blocks() {
        // Sorted data: a selective predicate on the high end means most touched
        // blocks provably cannot match and are skipped without reading data.
        let (mut kernel, id) = kernel_with_column(1_000_000);
        kernel
            .set_action(
                id,
                TouchAction::FilteredScan {
                    predicate: Predicate::compare(CompareOp::Ge, 990_000i64),
                },
            )
            .unwrap();
        let view = kernel.view(id).unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 2.0);
        let outcome = kernel.run_trace(id, &trace).unwrap();
        assert!(
            outcome.stats.index_skips > 50,
            "skips {}",
            outcome.stats.index_skips
        );
        // skipped touches read no rows
        assert!(outcome.stats.rows_touched < outcome.stats.touches);
        // everything that was emitted satisfies the predicate
        for r in outcome.results.results() {
            assert!(r.value().unwrap().as_i64().unwrap() >= 990_000);
        }
    }

    #[test]
    fn session_stats_are_consistent() {
        let (mut kernel, id) = kernel_with_column(100_000);
        kernel.set_action(id, TouchAction::Scan).unwrap();
        let view = kernel.view(id).unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
        let outcome = kernel.run_trace(id, &trace).unwrap();
        let s = &outcome.stats;
        assert_eq!(s.touches as usize, trace.len());
        assert!(s.gesture_events > 0);
        assert!(s.rows_touched >= s.entries_returned);
        assert_eq!(s.bytes_touched, s.rows_touched * 8);
        assert!(s.mean_touch_nanos() > 0);
        assert!(s.max_touch_nanos >= s.compute_nanos / s.touches.max(1));
        // a scan session never consults the shared summary cache
        assert_eq!(s.shared_cache_hits + s.shared_cache_misses, 0);
        assert_eq!(s.shared_cache_inserts, 0);
    }

    #[test]
    fn shared_cache_lookups_match_summary_entries() {
        // Summary action: every emitted summary entry is exactly one
        // shared-cache lookup, and every shared miss is exactly one insert.
        let (mut kernel, id) = kernel_with_column(1_000_000);
        kernel
            .set_action(
                id,
                TouchAction::Summary {
                    half_window: Some(5),
                    kind: AggregateKind::Avg,
                },
            )
            .unwrap();
        let view = kernel.view(id).unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
        let outcome = kernel.run_trace(id, &trace).unwrap();
        let s = &outcome.stats;
        assert!(s.entries_returned > 0);
        assert_eq!(
            s.shared_cache_hits + s.shared_cache_misses,
            s.entries_returned
        );
        assert_eq!(s.shared_cache_inserts, s.shared_cache_misses);
    }

    #[test]
    fn shared_cache_counters_stay_zero_when_disabled() {
        let mut kernel = Kernel::new(KernelConfig::default().with_shared_cache(false));
        let id = kernel
            .load_column("col", (0..1_000_000i64).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        kernel
            .set_action(
                id,
                TouchAction::Summary {
                    half_window: Some(5),
                    kind: AggregateKind::Avg,
                },
            )
            .unwrap();
        let view = kernel.view(id).unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
        let outcome = kernel.run_trace(id, &trace).unwrap();
        let s = &outcome.stats;
        assert!(s.entries_returned > 0);
        assert_eq!(s.shared_cache_hits, 0);
        assert_eq!(s.shared_cache_misses, 0);
        assert_eq!(s.shared_cache_inserts, 0);
    }

    /// A window over the row cap is answered from its first `cap` rows and
    /// leaves a pending ledger slot; resolving it folds the full window at
    /// its own attribute and level and patches the result in place.
    #[test]
    fn a_capped_window_is_provisional_until_resolved() {
        use crate::catalog::SharedCatalog;

        // 10 µs at the assumed 4 ns per row: a cap of 2 500 rows.
        let mut config = KernelConfig::default().with_adaptive_sampling(false);
        config.touch_budget_micros = 10;
        let catalog = SharedCatalog::new(config);
        let id = catalog
            .load_column("col", (0..500_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let mut state = catalog.checkout(id).unwrap();
        state.set_action(TouchAction::Summary {
            half_window: Some(200_000),
            kind: AggregateKind::Avg,
        });
        let action = state.action().clone();
        let mut session = Session::new(&mut state, catalog.config());
        let tap = GestureEvent::Tap {
            location: PointCm::new(1.0, 5.0),
            timestamp: Timestamp::ZERO,
        };
        let step = session.planner.plan(tap, &mut session.stats).unwrap();
        let Some(PlanStep::Touch(plan)) = step else {
            panic!("a tap plans a touch: {step:?}");
        };
        assert_eq!(plan.summary.unwrap().read.len(), 2_500);
        session.execute(&action, PlanStep::Touch(plan)).unwrap();

        assert_eq!(session.stats.rows_touched, 2_500);
        assert!(matches!(
            session.ledger.contribs[..],
            [Contribution::Pending { .. }]
        ));
        let window = session.local[0].window;
        assert_eq!(window.len(), 400_001);
        let first_rows = (window.start..window.start + 2_500).sum::<u64>() as f64 / 2_500.0;
        assert_eq!(
            session.results.results()[0].value(),
            Some(&Value::Float(first_rows))
        );

        session.resolve_local().unwrap();
        assert!(session.local.is_empty());
        assert_eq!(session.stats.refinements, 1);
        assert_eq!(session.stats.rows_touched, 2_500 + 400_001);
        let full = (window.start..window.end).sum::<u64>() as f64 / 400_001.0;
        assert_eq!(
            session.results.results()[0].value(),
            Some(&Value::Float(full))
        );
        assert_eq!(session.ledger.fold_value(), Some(full));
    }

    #[test]
    fn remote_summaries_drain_to_the_all_local_outcome() {
        use crate::catalog::SharedCatalog;
        use crate::remote_exec::drain_outcome;
        use dbtouch_types::RemoteSplitConfig;
        use std::sync::Arc;

        // Deep hierarchy + a high device boundary: slow slides decide level
        // ~10, below the device's coarsest-resident level 11 -> remote. The
        // link is latency-only, so every refinement costs one round trip.
        let split = RemoteSplitConfig::default()
            .with_local_min_level(11)
            .with_network(2_000, 0);
        let remote_config = KernelConfig::default()
            .with_sample_levels(12)
            .with_remote_split(Some(split.clone()));
        let local_config = KernelConfig::default().with_sample_levels(12);

        let load = |config: KernelConfig| {
            let catalog = Arc::new(SharedCatalog::new(config));
            let id = catalog
                .load_column("col", (0..200_000).collect(), SizeCm::new(2.0, 10.0))
                .unwrap();
            (catalog, id)
        };
        let (local_catalog, local_id) = load(local_config);
        let (remote_catalog, remote_id) = load(remote_config);
        let view = local_catalog.data(local_id).unwrap().base_view().clone();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 3.0);
        let action = TouchAction::Summary {
            half_window: Some(5),
            kind: AggregateKind::Avg,
        };

        let baseline = {
            let mut state = local_catalog.checkout(local_id).unwrap();
            state.set_action(action.clone());
            Session::new(&mut state, local_catalog.config())
                .run(&trace)
                .unwrap()
        };
        assert!(baseline.is_drained());
        assert_eq!(baseline.stats.remote, crate::remote::RemoteStats::default());

        let mut state = remote_catalog.checkout(remote_id).unwrap();
        state.set_action(action);
        let queue = Arc::clone(state.remote_tier().unwrap().queue());
        let mut outcome = Session::new(&mut state, remote_catalog.config())
            .run(&trace)
            .unwrap();

        // Before the drain: provisional answers are on screen for every
        // fine-level touch, the ledger holds their pending slots, and the
        // deferred rows are not yet charged.
        assert!(!outcome.is_drained());
        assert_eq!(outcome.pending.len(), outcome.ledger.pending_count());
        assert_eq!(
            outcome.stats.remote.progressive_requests,
            outcome.pending.len() as u64
        );
        assert_eq!(outcome.stats.remote.rows_shipped, 0);
        assert!(outcome.stats.rows_touched < baseline.stats.rows_touched);
        let rows_before_drain = outcome.stats.rows_touched;
        assert_eq!(
            outcome.stats.entries_returned,
            baseline.stats.entries_returned
        );
        assert_ne!(outcome.results, baseline.results, "provisional != refined");

        // After the drain: bit-identical to the all-local run.
        let applied = drain_outcome(&mut outcome, &queue).unwrap();
        assert_eq!(applied, outcome.stats.remote_refinements_applied);
        assert!(applied > 20, "slow slide must ship many refinements");
        assert_eq!(outcome.results, baseline.results);
        assert_eq!(outcome.final_aggregate, baseline.final_aggregate);
        assert_eq!(outcome.stats.rows_touched, baseline.stats.rows_touched);
        assert_eq!(outcome.stats.bytes_touched, baseline.stats.bytes_touched);
        // Exactly the deferred fine-window rows were shipped (edge windows
        // clamp below the full 11 rows, so compare against the deficit the
        // provisional run left, not a per-window constant).
        assert_eq!(
            outcome.stats.remote.rows_shipped,
            baseline.stats.rows_touched - rows_before_drain
        );
        // Total simulated wait is exactly one round trip per refinement.
        assert_eq!(outcome.stats.remote.remote_wait_micros, applied * 2_000);
        assert_eq!(outcome.stats.remote_refinements_dropped, 0);
    }

    #[test]
    fn kernel_run_trace_returns_drained_outcomes_with_remote_split() {
        use crate::kernel::Kernel;
        use dbtouch_types::RemoteSplitConfig;

        let split = RemoteSplitConfig::default()
            .with_local_min_level(11)
            .with_network(1_000, 10_000);
        let mut remote = Kernel::new(
            KernelConfig::default()
                .with_sample_levels(12)
                .with_remote_split(Some(split)),
        );
        let mut local = Kernel::new(KernelConfig::default().with_sample_levels(12));
        let action = TouchAction::Summary {
            half_window: Some(5),
            kind: AggregateKind::Sum,
        };
        let rid = remote
            .load_column("col", (0..200_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let lid = local
            .load_column("col", (0..200_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        remote.set_action(rid, action.clone()).unwrap();
        local.set_action(lid, action).unwrap();
        let view = local.view(lid).unwrap();
        // Mixed speeds: the fast trace stays device-local, the slow one ships
        // refinements; both must match the all-local kernel exactly.
        for duration in [0.8, 3.0] {
            let trace = GestureSynthesizer::new(60.0).slide_down(&view, duration);
            let refined = remote.run_trace(rid, &trace).unwrap();
            let baseline = local.run_trace(lid, &trace).unwrap();
            assert!(refined.is_drained());
            assert_eq!(refined.results, baseline.results);
            assert_eq!(refined.final_aggregate, baseline.final_aggregate);
            assert_eq!(refined.stats.rows_touched, baseline.stats.rows_touched);
        }
    }

    #[test]
    fn shared_cache_serves_identical_windows_across_sessions() {
        use crate::catalog::SharedCatalog;
        use std::sync::Arc;

        let catalog = Arc::new(SharedCatalog::new(KernelConfig::default()));
        let id = catalog
            .load_column("col", (0..1_000_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let view = catalog.data(id).unwrap().base_view().clone();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
        let action = TouchAction::Summary {
            half_window: Some(5),
            kind: AggregateKind::Avg,
        };

        let run = |catalog: &Arc<SharedCatalog>| {
            let mut state = catalog.checkout(id).unwrap();
            state.set_action(action.clone());
            Session::new(&mut state, catalog.config())
                .run(&trace)
                .unwrap()
        };
        let first = run(&catalog);
        let second = run(&catalog);

        // The first session populates the cache; the second answers every
        // window from it.
        assert!(first.stats.shared_cache_misses > 0);
        assert_eq!(first.stats.shared_cache_hits, 0);
        assert_eq!(second.stats.shared_cache_misses, 0);
        assert_eq!(
            second.stats.shared_cache_hits,
            second.stats.entries_returned
        );
        assert_eq!(second.stats.shared_cache_inserts, 0);

        // Result transparency: hits change nothing the user (or the digest)
        // sees — results, aggregates and logical accounting are identical.
        assert_eq!(first.results, second.results);
        assert_eq!(first.final_aggregate, second.final_aggregate);
        assert_eq!(first.stats.rows_touched, second.stats.rows_touched);
        assert_eq!(first.stats.bytes_touched, second.stats.bytes_touched);
        assert_eq!(first.stats.entries_returned, second.stats.entries_returned);
        assert_eq!(
            catalog.shared_cache().unwrap().stats().inserts,
            first.stats.shared_cache_inserts
        );
    }
}
