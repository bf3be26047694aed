//! The dbTouch kernel: a single-user facade over the shared catalog.
//!
//! The kernel pairs one [`SharedCatalog`] (the immutable loaded data: matrixes,
//! sample hierarchies, zone-map indexes) with one [`ObjectState`] per object
//! (the mutable exploration state: view geometry, touch action, a private
//! rotated matrix). The public API mirrors what a dbTouch front-end needs:
//!
//! * load columns/tables ([`Kernel::load_column`], [`Kernel::load_table`]),
//! * choose the query action a gesture triggers ([`Kernel::set_action`]),
//! * run gesture traces ([`Kernel::run_trace`]) — the per-touch processing
//!   itself lives in [`crate::session`],
//! * apply schema/layout gestures: zoom, rotate, drag a column out of a table
//!   (and back in), group columns into a table (Section 2.8).
//!
//! The catalog is epoch-versioned: [`Kernel::run_trace`] is a gesture
//! boundary, so the touched object's state observes the newest catalog epoch
//! right before the trace runs and then keeps that exact view for the whole
//! trace — a restructure published mid-trace (by this kernel's catalog handle
//! or any concurrent session) becomes visible only at the next boundary.
//! [`Kernel::restructures_seen`] counts the restructures a kernel session
//! has observed.
//!
//! For many concurrent explorers over the same data, share the kernel's
//! catalog ([`Kernel::catalog`]) with `dbtouch-server`'s session manager —
//! every session checks out its own state and the loaded data is never copied.

use crate::catalog::{validate_action, ObjectState, SharedCatalog};
use crate::operators::aggregate::AggregateKind;
use crate::operators::filter::Predicate;
use crate::session::{Session, SessionOutcome};
use dbtouch_gesture::trace::GestureTrace;
use dbtouch_gesture::view::View;
use dbtouch_storage::column::Column;
use dbtouch_storage::index::ZoneMapIndex;
use dbtouch_storage::layout::Layout;
use dbtouch_storage::table::Table;
use dbtouch_types::{DbTouchError, KernelConfig, Result, SizeCm};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Identifier of a data object in the kernel's catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

dbtouch_types::wire_struct!(ObjectId { 0: u64 });

/// The per-touch query action configured for a data object.
///
/// "Users define the query they wish to run by choosing a few query actions
/// (say a scan or an aggregate for simplicity) and then they start a slide
/// gesture over a column or a table." (Section 2.3)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TouchAction {
    /// Deliver the touched raw value.
    Scan,
    /// Maintain a running aggregate of all touched values.
    Aggregate(AggregateKind),
    /// Interactive summaries: aggregate the `[id-k, id+k]` window around each
    /// touch (Section 2.7). `half_window = None` uses the kernel default.
    Summary {
        /// Half-window `k`; `None` uses [`KernelConfig::summary_half_window`].
        half_window: Option<u64>,
        /// Aggregate applied inside the window.
        kind: AggregateKind,
    },
    /// Deliver touched values that satisfy a where-restriction.
    FilteredScan {
        /// The where-restriction.
        predicate: Predicate,
    },
    /// Maintain a running aggregate of the touched values that satisfy a
    /// where-restriction.
    FilteredAggregate {
        /// The where-restriction.
        predicate: Predicate,
        /// The aggregate maintained over passing values.
        kind: AggregateKind,
    },
    /// Deliver the full tuple at the touched position (tables).
    Tuple,
    /// Incrementally group the touched tuples of a table object: the touched
    /// row's `group_attribute` value selects the group and its
    /// `value_attribute` value feeds that group's running aggregate
    /// (Section 2.9, hash-based grouping made non-blocking).
    GroupBy {
        /// Attribute index whose value identifies the group.
        group_attribute: usize,
        /// Attribute index whose (numeric) value is aggregated per group.
        value_attribute: usize,
        /// The per-group aggregate.
        kind: AggregateKind,
    },
}

dbtouch_types::wire_enum!(TouchAction {
    0 => Scan,
    1 => Aggregate(kind: AggregateKind),
    2 => Summary { half_window: Option<u64>, kind: AggregateKind },
    3 => FilteredScan { predicate: Predicate },
    4 => FilteredAggregate { predicate: Predicate, kind: AggregateKind },
    5 => Tuple,
    6 => GroupBy { group_attribute: usize, value_attribute: usize, kind: AggregateKind },
});

impl TouchAction {
    /// The aggregate kind this action maintains across touches, if any.
    pub fn aggregate_kind(&self) -> Option<AggregateKind> {
        match self {
            TouchAction::Aggregate(kind)
            | TouchAction::FilteredAggregate { kind, .. }
            | TouchAction::Summary { kind, .. } => Some(*kind),
            _ => None,
        }
    }
}

/// The dbTouch kernel.
///
/// ```
/// use dbtouch_core::kernel::{Kernel, TouchAction};
/// use dbtouch_core::operators::aggregate::AggregateKind;
/// use dbtouch_gesture::synthesizer::GestureSynthesizer;
/// use dbtouch_types::{KernelConfig, SizeCm};
///
/// let mut kernel = Kernel::new(KernelConfig::default());
/// let object = kernel
///     .load_column("readings", (0..100_000).collect(), SizeCm::new(2.0, 10.0))
///     .unwrap();
/// kernel
///     .set_action(object, TouchAction::Summary { half_window: Some(5), kind: AggregateKind::Avg })
///     .unwrap();
///
/// let view = kernel.view(object).unwrap();
/// let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
/// let outcome = kernel.run_trace(object, &trace).unwrap();
/// assert!(outcome.stats.entries_returned > 0);
/// assert!(outcome.stats.rows_touched < 100_000);
/// ```
#[derive(Debug)]
pub struct Kernel {
    catalog: Arc<SharedCatalog>,
    /// One state slot per catalog id; `None` marks an object removed from the
    /// catalog (its id is a permanent tombstone).
    states: Vec<Option<ObjectState>>,
}

impl Kernel {
    /// Create a kernel with the given configuration (and a fresh catalog).
    pub fn new(config: KernelConfig) -> Kernel {
        Kernel {
            catalog: Arc::new(SharedCatalog::new(config)),
            states: Vec::new(),
        }
    }

    /// A single-user kernel over an existing shared catalog (for comparing a
    /// sequential run against concurrent server sessions on the same data).
    /// State for the objects already loaded is checked out immediately.
    pub fn from_catalog(catalog: Arc<SharedCatalog>) -> Kernel {
        let mut kernel = Kernel {
            catalog,
            states: Vec::new(),
        };
        // Only fails for ids beyond the catalog's length, which cannot happen
        // while we hold the ids we are iterating.
        kernel.sync_states().expect("checkout of existing objects");
        kernel
    }

    /// The shared catalog behind this kernel. Hand a clone of this to
    /// `dbtouch-server` to serve the same data to many concurrent sessions.
    pub fn catalog(&self) -> &Arc<SharedCatalog> {
        &self.catalog
    }

    /// The kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        self.catalog.config()
    }

    /// Number of data objects in the catalog.
    pub fn object_count(&self) -> usize {
        self.catalog.object_count()
    }

    /// The names of all data objects, in load order. Just by glancing at this
    /// list (the screen), users know what data is available — no schema
    /// knowledge required (Section 2.2, "Schema-less Querying").
    pub fn catalog_names(&self) -> Vec<String> {
        self.catalog.names()
    }

    /// Look up an object id by name.
    pub fn object_id(&self, name: &str) -> Result<ObjectId> {
        self.catalog.object_id(name)
    }

    /// Bring this kernel's session state up to the newest catalog epoch:
    /// checkout objects it has no local state for yet (loaded through the
    /// catalog handle or another kernel), observe restructures of objects it
    /// does (cold caches, action kept when it still validates — see
    /// [`ObjectState::refresh`]) and drop state for removed objects. The
    /// mutating entry points call this automatically; call it explicitly
    /// before using the read-only accessors (`view`, `schema`, `row_count`,
    /// …) after the shared catalog handle changed.
    pub fn refresh(&mut self) -> Result<()> {
        self.sync_states()?;
        for slot in &mut self.states {
            let Some(state) = slot else { continue };
            match state.refresh(&self.catalog) {
                Ok(_) => {}
                Err(DbTouchError::NotFound(_)) => *slot = None,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn sync_states(&mut self) -> Result<()> {
        let snapshot = self.catalog.snapshot();
        while self.states.len() < snapshot.slot_count() {
            let id = ObjectId(self.states.len() as u64);
            self.states.push(match snapshot.object(id) {
                Ok(_) => Some(self.catalog.checkout_from(&snapshot, id)?),
                Err(_) => None,
            });
        }
        Ok(())
    }

    /// Gesture-boundary refresh of one object's state (the epoch semantics:
    /// a trace runs against exactly one snapshot, observed at its start).
    fn refresh_state(&mut self, id: ObjectId) -> Result<&mut ObjectState> {
        self.sync_states()?;
        let slot = self
            .states
            .get_mut(id.0 as usize)
            .ok_or_else(|| DbTouchError::NotFound(format!("object {}", id.0)))?;
        let refreshed = match slot.as_mut() {
            Some(state) => state.refresh(&self.catalog),
            None => Err(DbTouchError::NotFound(format!("object {}", id.0))),
        };
        match refreshed {
            Ok(_) => Ok(slot.as_mut().expect("state present: refresh succeeded")),
            Err(e) => {
                if matches!(e, DbTouchError::NotFound(_)) {
                    *slot = None;
                }
                Err(e)
            }
        }
    }

    fn state(&self, id: ObjectId) -> Result<&ObjectState> {
        self.states
            .get(id.0 as usize)
            .and_then(|slot| slot.as_ref())
            .ok_or_else(|| DbTouchError::NotFound(format!("object {}", id.0)))
    }

    fn state_mut(&mut self, id: ObjectId) -> Result<&mut ObjectState> {
        self.sync_states()?;
        self.states
            .get_mut(id.0 as usize)
            .and_then(|slot| slot.as_mut())
            .ok_or_else(|| DbTouchError::NotFound(format!("object {}", id.0)))
    }

    /// Load a column of integers as a new data object rendered at `size`.
    pub fn load_column(
        &mut self,
        name: impl Into<String>,
        values: Vec<i64>,
        size: SizeCm,
    ) -> Result<ObjectId> {
        let id = self.catalog.load_column(name, values, size)?;
        self.sync_states()?;
        Ok(id)
    }

    /// Load a column of floats as a new data object rendered at `size`.
    pub fn load_column_f64(
        &mut self,
        name: impl Into<String>,
        values: Vec<f64>,
        size: SizeCm,
    ) -> Result<ObjectId> {
        let id = self.catalog.load_column_f64(name, values, size)?;
        self.sync_states()?;
        Ok(id)
    }

    /// Load an already-built column as a new data object rendered at `size`.
    pub fn load_column_typed(&mut self, column: Column, size: SizeCm) -> Result<ObjectId> {
        let id = self.catalog.load_column_typed(column, size)?;
        self.sync_states()?;
        Ok(id)
    }

    /// Load a table as a single "fat rectangle" data object rendered at `size`.
    pub fn load_table(&mut self, table: Table, size: SizeCm) -> Result<ObjectId> {
        let id = self.catalog.load_table(table, size)?;
        self.sync_states()?;
        Ok(id)
    }

    /// Set the per-touch query action of an object (this kernel's sessions
    /// only; other sessions over the same catalog keep their own action).
    pub fn set_action(&mut self, id: ObjectId, action: TouchAction) -> Result<()> {
        // A gesture boundary, like the server's SetAction event: observe the
        // newest epoch first so the action is validated against the schema it
        // will actually run under — accepting it against a stale schema would
        // just silently fall back to the default at the next trace.
        let state = self.refresh_state(id)?;
        validate_action(&action, state.data().schema())?;
        state.action = action;
        Ok(())
    }

    /// The currently configured action of an object.
    pub fn action(&self, id: ObjectId) -> Result<&TouchAction> {
        Ok(self.state(id)?.action())
    }

    /// A copy of the object's current view (geometry, orientation, zoom).
    pub fn view(&self, id: ObjectId) -> Result<View> {
        Ok(self.state(id)?.view().clone())
    }

    /// The number of tuples in an object.
    pub fn row_count(&self, id: ObjectId) -> Result<u64> {
        Ok(self.state(id)?.row_count())
    }

    /// The current physical layout of an object (as this kernel sees it).
    pub fn layout(&self, id: ObjectId) -> Result<Layout> {
        Ok(self.state(id)?.matrix.layout())
    }

    /// The schema of an object as `(name, type)` pairs.
    pub fn schema(&self, id: ObjectId) -> Result<&[(String, dbtouch_types::DataType)]> {
        Ok(self.state(id)?.matrix.schema())
    }

    /// Read one cell of an object directly (used by join sessions and tests;
    /// ordinary exploration goes through gesture traces instead).
    pub fn cell(
        &self,
        id: ObjectId,
        row: dbtouch_types::RowId,
        attribute: usize,
    ) -> Result<dbtouch_types::Value> {
        self.state(id)?.matrix.get(row, attribute)
    }

    /// Run a gesture trace over an object, returning the produced results and
    /// statistics. This is the main query entry point: the trace plays the role
    /// the SQL string plays in a traditional system.
    ///
    /// The call is a gesture boundary: the object's state observes the newest
    /// catalog epoch first, then the whole trace runs against that one
    /// consistent snapshot.
    pub fn run_trace(&mut self, id: ObjectId, trace: &GestureTrace) -> Result<SessionOutcome> {
        let config = self.catalog.config().clone();
        let state = self.refresh_state(id)?;
        let queue = state.remote_tier().map(|tier| Arc::clone(tier.queue()));
        let mut outcome = Session::new(state, &config).run(trace)?;
        // The single-user kernel treats the end of a trace as a drain
        // barrier: remote refinements overlapped with the touches of *this*
        // trace, and the outcome handed back is fully refined — bit-identical
        // to the all-local configuration. (The server drains incrementally
        // across traces instead; see `dbtouch-server`.)
        if !outcome.pending.is_empty() {
            let queue = queue.expect("pending refinements imply a remote tier");
            crate::remote_exec::drain_outcome(&mut outcome, &queue)?;
        }
        Ok(outcome)
    }

    /// How many restructures of `id` this kernel's session has observed.
    pub fn restructures_seen(&self, id: ObjectId) -> Result<u64> {
        Ok(self.state(id)?.restructures_seen())
    }

    /// Apply a zoom directly (equivalent to a pinch gesture handled outside a
    /// session, e.g. from a UI button).
    pub fn zoom(&mut self, id: ObjectId, factor: f64) -> Result<View> {
        let state = self.state_mut(id)?;
        state.view = state.view.zoomed(factor)?;
        Ok(state.view.clone())
    }

    /// Apply the rotate gesture directly: flips both the on-screen orientation
    /// and the physical layout of the object (Section 2.8). The rotation is
    /// session-local: other sessions over the same catalog are undisturbed.
    pub fn rotate(&mut self, id: ObjectId) -> Result<Layout> {
        let state = self.state_mut(id)?;
        state.rotate_layout()?;
        Ok(state.matrix.layout())
    }

    /// Drag a column out of a table object into a new standalone column object
    /// (Section 2.8). The new object is rendered at `size` and the original
    /// table keeps its remaining columns. This restructures the shared
    /// catalog: new checkouts see the restructured table.
    pub fn drag_column_out(
        &mut self,
        table_id: ObjectId,
        column_name: &str,
        size: SizeCm,
    ) -> Result<ObjectId> {
        self.sync_states()?;
        self.state(table_id)?; // surface NotFound before touching the catalog
        let id = self.catalog.drag_column_out(table_id, column_name, size)?;
        // Observe the restructure immediately (the kernel performed it, so
        // this *is* its gesture boundary): the rebuilt table's state starts
        // from the new build's base view, while the configured action carries
        // across when it still validates (it describes intent, not data).
        // The newly registered column object is checked out alongside.
        self.refresh()?;
        Ok(id)
    }

    /// Drag a standalone column object back into a table — the inverse of
    /// [`Kernel::drag_column_out`]. The table is rebuilt with the column
    /// appended and the standalone object is removed from the catalog; its id
    /// becomes a permanent tombstone and this kernel's state for it is
    /// dropped.
    pub fn drag_column_into(&mut self, table_id: ObjectId, column_id: ObjectId) -> Result<()> {
        self.sync_states()?;
        self.state(table_id)?;
        self.state(column_id)?;
        self.catalog.drag_column_into(table_id, column_id)?;
        self.refresh()?;
        Ok(())
    }

    /// Group standalone column objects into a new table object (the "drag and
    /// drop actions in a table placeholder" of Section 2.8). The source column
    /// objects remain in the catalog; the new table starts with fresh session
    /// state — no view or action carries over from the source objects'
    /// sessions.
    pub fn group_into_table(
        &mut self,
        name: impl Into<String>,
        column_ids: &[ObjectId],
        size: SizeCm,
    ) -> Result<ObjectId> {
        self.sync_states()?;
        let id = self.catalog.group_into_table(name, column_ids, size)?;
        self.sync_states()?;
        Ok(id)
    }

    /// The zone-map index of an attribute, if one was built (numeric columns).
    pub fn index(&self, id: ObjectId, attribute: usize) -> Result<Option<&ZoneMapIndex>> {
        let state = self.state(id)?;
        Ok(state
            .data
            .attributes()
            .get(attribute)
            .and_then(|a| a.zone_map()))
    }

    /// Reveal a single value by tapping at a fraction of the object's extent —
    /// the schema-discovery interaction of Section 2.2 ("a single tap anywhere
    /// on a column data object reveals a single column value, allowing to
    /// easily recognize the data type of the column").
    pub fn tap(&mut self, id: ObjectId, fraction: f64) -> Result<SessionOutcome> {
        self.sync_states()?;
        let view = self.view(id)?;
        let mut synthesizer = dbtouch_gesture::synthesizer::GestureSynthesizer::new(
            self.catalog.config().touch_sample_rate_hz,
        );
        let trace = synthesizer.tap(&view, fraction.clamp(0.0, 1.0));
        self.run_trace(id, &trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtouch_types::Value;

    fn kernel() -> Kernel {
        Kernel::new(KernelConfig::default())
    }

    #[test]
    fn load_and_catalog() {
        let mut k = kernel();
        let a = k
            .load_column("a", (0..100).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let b = k
            .load_column_f64("b", vec![1.0; 50], SizeCm::new(2.0, 8.0))
            .unwrap();
        assert_eq!(k.object_count(), 2);
        assert_eq!(k.catalog_names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(k.object_id("a").unwrap(), a);
        assert_eq!(k.object_id("b").unwrap(), b);
        assert!(k.object_id("missing").is_err());
        assert_eq!(k.row_count(a).unwrap(), 100);
        assert_eq!(k.layout(a).unwrap(), Layout::ColumnMajor);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut k = kernel();
        k.load_column("a", vec![1, 2, 3], SizeCm::new(2.0, 10.0))
            .unwrap();
        assert!(matches!(
            k.load_column("a", vec![4, 5], SizeCm::new(2.0, 10.0)),
            Err(DbTouchError::AlreadyExists(_))
        ));
    }

    #[test]
    fn invalid_view_size_rejected() {
        let mut k = kernel();
        assert!(k.load_column("a", vec![1], SizeCm::new(0.0, 10.0)).is_err());
    }

    #[test]
    fn default_action_is_scan_and_can_change() {
        let mut k = kernel();
        let id = k
            .load_column("a", (0..10).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        assert_eq!(k.action(id).unwrap(), &TouchAction::Scan);
        k.set_action(id, TouchAction::Aggregate(AggregateKind::Sum))
            .unwrap();
        assert!(matches!(
            k.action(id).unwrap(),
            TouchAction::Aggregate(AggregateKind::Sum)
        ));
    }

    #[test]
    fn aggregate_action_requires_numeric_column() {
        let mut k = kernel();
        let strings = Column::from_strings("s", 4, &["a", "b", "c"]).unwrap();
        let id = k
            .load_column_typed(strings, SizeCm::new(2.0, 10.0))
            .unwrap();
        assert!(k
            .set_action(id, TouchAction::Aggregate(AggregateKind::Avg))
            .is_err());
        assert!(k.set_action(id, TouchAction::Scan).is_ok());
    }

    #[test]
    fn tap_reveals_a_value_for_schema_discovery() {
        let mut k = kernel();
        let id = k
            .load_column("a", (0..1000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let outcome = k.tap(id, 0.5).unwrap();
        assert_eq!(outcome.results.len(), 1);
        let v = outcome.results.latest().unwrap().value().unwrap().clone();
        assert!(matches!(v, Value::Int(_)));
    }

    #[test]
    fn zoom_updates_view_geometry() {
        let mut k = kernel();
        let id = k
            .load_column("a", (0..1000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let v = k.zoom(id, 2.0).unwrap();
        assert_eq!(v.size, SizeCm::new(4.0, 20.0));
        assert_eq!(k.view(id).unwrap().zoom, 2.0);
        assert!(k.zoom(id, 0.0).is_err());
    }

    #[test]
    fn rotate_flips_layout_and_view() {
        let mut k = kernel();
        let table = Table::from_columns(
            "t",
            vec![
                Column::from_i64("id", (0..500).collect()),
                Column::from_f64("v", (0..500).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        let id = k.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        assert_eq!(k.layout(id).unwrap(), Layout::ColumnMajor);
        assert_eq!(k.rotate(id).unwrap(), Layout::RowMajor);
        assert_eq!(
            k.view(id).unwrap().orientation,
            dbtouch_types::Orientation::Horizontal
        );
        assert_eq!(k.rotate(id).unwrap(), Layout::ColumnMajor);
    }

    #[test]
    fn drag_column_out_creates_new_object() {
        let mut k = kernel();
        let table = Table::from_columns(
            "t",
            vec![
                Column::from_i64("id", (0..100).collect()),
                Column::from_f64("price", (0..100).map(|i| i as f64).collect()),
                Column::from_i64("qty", (0..100).map(|i| i % 7).collect()),
            ],
        )
        .unwrap();
        let tid = k.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        let cid = k
            .drag_column_out(tid, "price", SizeCm::new(2.0, 10.0))
            .unwrap();
        assert_eq!(
            k.catalog_names(),
            vec!["t".to_string(), "price".to_string()]
        );
        assert_eq!(k.row_count(cid).unwrap(), 100);
        assert_eq!(k.view(tid).unwrap().attribute_count, 2);
        assert!(k
            .drag_column_out(tid, "missing", SizeCm::new(2.0, 10.0))
            .is_err());
    }

    #[test]
    fn drag_column_out_name_clash_leaves_table_intact() {
        let mut k = kernel();
        // A standalone object already claims the name "price".
        k.load_column("price", (0..10).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let table = Table::from_columns(
            "t",
            vec![
                Column::from_i64("id", (0..100).collect()),
                Column::from_f64("price", (0..100).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        let tid = k.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        assert!(matches!(
            k.drag_column_out(tid, "price", SizeCm::new(2.0, 10.0)),
            Err(DbTouchError::AlreadyExists(_))
        ));
        // The failed drag must not have stripped the column from the table.
        assert_eq!(k.schema(tid).unwrap().len(), 2);
        assert_eq!(k.view(tid).unwrap().attribute_count, 2);
    }

    #[test]
    fn refresh_exposes_late_catalog_loads_to_readers() {
        let mut a = kernel();
        a.load_column("first", (0..100).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let catalog = std::sync::Arc::clone(a.catalog());
        let late = catalog
            .load_column("late", (0..50).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        a.refresh().unwrap();
        assert_eq!(a.row_count(late).unwrap(), 50);
        assert_eq!(a.view(late).unwrap().tuple_count, 50);
        // tap() syncs on its own even without an explicit refresh.
        let mut b = Kernel::from_catalog(std::sync::Arc::clone(&catalog));
        let later = catalog
            .load_column("later", (0..30).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        assert_eq!(b.tap(later, 0.5).unwrap().results.len(), 1);
    }

    #[test]
    fn drag_column_out_preserves_session_action() {
        let mut k = kernel();
        let table = Table::from_columns(
            "t",
            vec![
                Column::from_i64("id", (0..200).collect()),
                Column::from_f64("price", (0..200).map(|i| i as f64).collect()),
                Column::from_i64("qty", (0..200).map(|i| i % 7).collect()),
            ],
        )
        .unwrap();
        let tid = k.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        k.set_action(tid, TouchAction::Aggregate(AggregateKind::Sum))
            .unwrap();
        k.drag_column_out(tid, "qty", SizeCm::new(2.0, 10.0))
            .unwrap();
        // The configured action survives the restructure...
        assert!(matches!(
            k.action(tid).unwrap(),
            TouchAction::Aggregate(AggregateKind::Sum)
        ));
        // ...but an action referencing a now-invalid attribute falls back.
        k.set_action(
            tid,
            TouchAction::GroupBy {
                group_attribute: 0,
                value_attribute: 1,
                kind: AggregateKind::Sum,
            },
        )
        .unwrap();
        k.drag_column_out(tid, "price", SizeCm::new(2.1, 10.0))
            .unwrap();
        assert_eq!(k.action(tid).unwrap(), &TouchAction::Scan);
    }

    #[test]
    fn drag_column_out_rebuilt_object_answers_a_fresh_trace() {
        let mut k = kernel();
        let table = Table::from_columns(
            "t",
            vec![
                Column::from_i64("id", (0..50_000).collect()),
                Column::from_f64("price", (0..50_000).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        let tid = k.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        let view = k.view(tid).unwrap();
        let trace = dbtouch_gesture::synthesizer::GestureSynthesizer::new(60.0)
            .exploratory_slide(&view, 2.0);
        k.run_trace(tid, &trace).unwrap();

        k.drag_column_out(tid, "price", SizeCm::new(2.0, 10.0))
            .unwrap();
        assert_eq!(k.restructures_seen(tid).unwrap(), 1);
        assert_eq!(k.view(tid).unwrap().attribute_count, 1);
        // The rebuilt object is still fully usable.
        let view = k.view(tid).unwrap();
        let trace =
            dbtouch_gesture::synthesizer::GestureSynthesizer::new(60.0).slide_down(&view, 0.5);
        let outcome = k.run_trace(tid, &trace).unwrap();
        assert!(outcome.stats.entries_returned > 0);
    }

    #[test]
    fn drag_last_column_out_rejected() {
        let mut k = kernel();
        let table =
            Table::from_columns("t", vec![Column::from_i64("only", vec![1, 2, 3])]).unwrap();
        let tid = k.load_table(table, SizeCm::new(2.0, 10.0)).unwrap();
        assert!(k
            .drag_column_out(tid, "only", SizeCm::new(2.0, 10.0))
            .is_err());
    }

    #[test]
    fn group_columns_into_table() {
        let mut k = kernel();
        let a = k
            .load_column("a", (0..50).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let b = k
            .load_column("b", (100..150).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let t = k
            .group_into_table("grouped", &[a, b], SizeCm::new(4.0, 10.0))
            .unwrap();
        assert_eq!(k.row_count(t).unwrap(), 50);
        assert_eq!(k.view(t).unwrap().attribute_count, 2);
        // mismatched lengths fail
        let c = k
            .load_column("c", (0..10).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        assert!(k
            .group_into_table("bad", &[a, c], SizeCm::new(4.0, 10.0))
            .is_err());
        assert!(k
            .group_into_table("empty", &[], SizeCm::new(4.0, 10.0))
            .is_err());
    }

    #[test]
    fn indexes_built_for_numeric_columns() {
        let mut k = kernel();
        let id = k
            .load_column("a", (0..10_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        assert!(k.index(id, 0).unwrap().is_some());
        let strings = Column::from_strings("s", 4, &["x", "y"]).unwrap();
        let sid = k
            .load_column_typed(strings, SizeCm::new(2.0, 10.0))
            .unwrap();
        assert!(k.index(sid, 0).unwrap().is_none());
        assert!(k.index(id, 5).unwrap().is_none());
    }

    #[test]
    fn unknown_object_errors() {
        let mut k = kernel();
        assert!(k.view(ObjectId(9)).is_err());
        assert!(k.set_action(ObjectId(9), TouchAction::Scan).is_err());
        assert!(k.rotate(ObjectId(9)).is_err());
    }

    #[test]
    fn group_into_table_starts_fresh_and_leaves_sources_untouched() {
        // The grouped table is a fresh object with fresh per-session state —
        // nothing from the source columns' sessions may leak into it.
        let mut k = kernel();
        let a = k
            .load_column("a", (0..50_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let b = k
            .load_column(
                "b",
                (0..50_000).map(|i| i * 2).collect(),
                SizeCm::new(2.0, 10.0),
            )
            .unwrap();
        // Explore a source column first, then give it a non-default action.
        let view = k.view(a).unwrap();
        let trace = dbtouch_gesture::synthesizer::GestureSynthesizer::new(60.0)
            .exploratory_slide(&view, 2.0);
        k.run_trace(a, &trace).unwrap();
        k.set_action(a, TouchAction::Aggregate(AggregateKind::Sum))
            .unwrap();

        let t = k
            .group_into_table("grouped", &[a, b], SizeCm::new(4.0, 10.0))
            .unwrap();
        // The source session's action does not leak either: the new object
        // starts from the default.
        assert_eq!(k.action(t).unwrap(), &TouchAction::Scan);
        // And the source objects are untouched (same data, same state).
        assert!(matches!(
            k.action(a).unwrap(),
            TouchAction::Aggregate(AggregateKind::Sum)
        ));
        assert_eq!(k.row_count(a).unwrap(), 50_000);
        assert_eq!(k.view(a).unwrap(), view);
    }

    #[test]
    fn run_trace_is_a_gesture_boundary_for_catalog_restructures() {
        let mut k = kernel();
        let table = Table::from_columns(
            "t",
            vec![
                Column::from_i64("id", (0..5_000).collect()),
                Column::from_f64("v", (0..5_000).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        let tid = k.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        k.set_action(tid, TouchAction::Tuple).unwrap();
        assert_eq!(k.restructures_seen(tid).unwrap(), 0);

        // A restructure published through the *catalog handle* (as another
        // session would): this kernel sees it at its next trace boundary.
        let catalog = std::sync::Arc::clone(k.catalog());
        catalog
            .drag_column_out(tid, "v", SizeCm::new(2.0, 10.0))
            .unwrap();
        assert_eq!(k.restructures_seen(tid).unwrap(), 0);
        assert_eq!(k.schema(tid).unwrap().len(), 2, "pre-boundary view");

        let view = k.view(tid).unwrap();
        let trace =
            dbtouch_gesture::synthesizer::GestureSynthesizer::new(60.0).slide_down(&view, 0.3);
        let outcome = k.run_trace(tid, &trace).unwrap();
        assert_eq!(k.restructures_seen(tid).unwrap(), 1);
        assert_eq!(k.schema(tid).unwrap().len(), 1, "post-boundary view");
        // The whole trace ran against the rebuilt single-column table.
        for r in outcome.results.results() {
            assert_eq!(r.values.len(), 1);
        }
    }

    #[test]
    fn drag_column_into_restores_table_and_drops_column_state() {
        let mut k = kernel();
        let table = Table::from_columns(
            "t",
            vec![
                Column::from_i64("id", (0..100).collect()),
                Column::from_f64("price", (0..100).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        let tid = k.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        let cid = k
            .drag_column_out(tid, "price", SizeCm::new(2.0, 10.0))
            .unwrap();
        assert_eq!(k.schema(tid).unwrap().len(), 1);
        k.drag_column_into(tid, cid).unwrap();
        assert_eq!(k.schema(tid).unwrap().len(), 2);
        assert_eq!(k.catalog_names(), vec!["t".to_string()]);
        // The removed object's id is a tombstone everywhere.
        assert!(k.view(cid).is_err());
        assert!(k
            .run_trace(cid, &dbtouch_gesture::trace::GestureTrace::default())
            .is_err());
        assert_eq!(k.restructures_seen(tid).unwrap(), 2);
    }

    #[test]
    fn kernel_from_shared_catalog_sees_loaded_objects() {
        let mut loader = kernel();
        let id = loader
            .load_column("a", (0..1000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let mut other = Kernel::from_catalog(std::sync::Arc::clone(loader.catalog()));
        let outcome = other.tap(id, 0.25).unwrap();
        assert_eq!(outcome.results.len(), 1);
        assert_eq!(other.row_count(id).unwrap(), 1000);
    }
}
