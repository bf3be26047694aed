//! The shared data catalog: epoch-versioned immutable snapshots, separated
//! from per-session exploration state.
//!
//! The seed reproduction bundled everything a touch session needs — the dense
//! matrix, sample hierarchies, zone-map indexes and view geometry — into one
//! mutable `DataObject`, which forced `&mut self`
//! through the whole kernel and limited the system to a single explorer. This
//! module splits that bundle along the concurrency boundary:
//!
//! * [`ObjectData`] — what was *loaded*: the matrix, one shared [`Attribute`]
//!   build per column (its sample hierarchy and zone map), plus the default
//!   view geometry and touch action. Immutable after load, shared across
//!   sessions behind `Arc`.
//! * [`ObjectState`] — what a *session* does with it: the session's view
//!   (zoom/rotation), its chosen touch action, and (after a rotate gesture)
//!   its privately rotated copy of the matrix. Cheap to create, owned by
//!   exactly one session.
//! * [`CatalogSnapshot`] — one immutable version of the whole catalog: an
//!   epoch number, a restructure counter, and the object table. Snapshots are
//!   never mutated; every catalog change builds a successor.
//! * [`SharedCatalog`] — the `Send + Sync` registry of loaded objects. The
//!   current snapshot lives in an [`EpochCell`]: readers
//!   ([`checkout`](SharedCatalog::checkout), [`data`](SharedCatalog::data),
//!   name lookups) take it with one wait-free atomic load and never block;
//!   mutators (`load_*`, [`drag_column_out`](SharedCatalog::drag_column_out),
//!   [`drag_column_into`](SharedCatalog::drag_column_into),
//!   [`group_into_table`](SharedCatalog::group_into_table)) build the
//!   successor snapshot entirely off-lock and publish it with a short
//!   compare-and-swap loop — a slow restructure can no longer stall a single
//!   checkout.
//!
//! **Epochs and live sessions.** Every publish advances the snapshot's epoch;
//! restructures additionally advance the restructure counter. A restructure
//! reassembles the attribute builds its objects already hold — it builds no
//! sample or zone map, only the new matrix and view. A checked-out
//! [`ObjectState`] records the epoch it was taken at and keeps that exact
//! view — same matrix, same schema — until its session reaches a gesture
//! boundary and calls [`ObjectState::refresh`]: only then does it observe the
//! newest epoch, rebuilding its state (base view, shared matrix, action kept
//! when it still validates) when its object's data identity changed. A
//! gesture trace therefore always runs against one consistent snapshot —
//! never a half-restructured object.
//!
//! The single-user [`crate::kernel::Kernel`] is now a thin facade: one
//! `SharedCatalog` plus one `ObjectState` per object. `dbtouch-server` runs
//! many sessions against the same catalog from worker threads.

use crate::epoch::EpochCell;
use crate::kernel::{ObjectId, TouchAction};
use crate::morsel::MorselPool;
use crate::remote::NetworkModel;
use crate::remote_exec::{CompletionQueue, RemoteExecutor, RemoteTier};
use dbtouch_gesture::view::View;
use dbtouch_obs::{Gauge, MetricSource, MetricValue, SpanConfig, Telemetry};
use dbtouch_storage::column::Column;
use dbtouch_storage::index::ZoneMapIndex;
use dbtouch_storage::matrix::Matrix;
use dbtouch_storage::rotation::RotationTask;
use dbtouch_storage::sample::SampleHierarchy;
use dbtouch_storage::shared_cache::{next_object_identity, SharedResultCache};
use dbtouch_storage::table::Table;
use dbtouch_types::{DataType, DbTouchError, KernelConfig, Result, SizeCm};
use std::sync::{Arc, Mutex};

/// Capacity of the shared cross-session result cache, in entries.
const SHARED_CACHE_CAPACITY: usize = 1 << 16;
/// Rows converted per step of an incremental layout rotation (Section 2.8).
const ROTATION_CHUNK_ROWS: u64 = 65_536;

/// One attribute of a loaded object: its sample hierarchy (level 0 is the
/// column itself) and, for numeric attributes, its zone map.
///
/// Built once, by the load that brought the column in, and shared behind
/// `Arc` by every object build that holds the column afterwards: a
/// restructure moves attributes between objects instead of rebuilding them,
/// and the attached store (`crate::persist`) writes each attribute's pages
/// once, keyed by its identity.
#[derive(Debug)]
pub struct Attribute {
    /// Process-unique identity of this build, from the generator object
    /// identities use ([`next_object_identity`]).
    identity: u64,
    hierarchy: SampleHierarchy,
    zone_map: Option<ZoneMapIndex>,
}

impl Attribute {
    /// Wrap built (or reopened) parts under a fresh identity.
    pub(crate) fn new(hierarchy: SampleHierarchy, zone_map: Option<ZoneMapIndex>) -> Attribute {
        Attribute {
            identity: next_object_identity(),
            hierarchy,
            zone_map,
        }
    }

    /// The identity of this attribute build.
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// The column (level 0 of the hierarchy).
    pub fn column(&self) -> &Column {
        self.hierarchy.base()
    }

    /// The sample hierarchy. Non-numeric attributes have a degenerate
    /// single-level hierarchy (base data only).
    pub fn hierarchy(&self) -> &SampleHierarchy {
        &self.hierarchy
    }

    /// The zone-map index (numeric attributes only).
    pub fn zone_map(&self) -> Option<&ZoneMapIndex> {
        self.zone_map.as_ref()
    }
}

/// The immutable, shareable part of a loaded data object.
///
/// Everything here is fixed at load (or restructure) time. Sessions read it
/// concurrently through `Arc<ObjectData>`; nothing in it ever mutates. A
/// restructure reassembles a new `ObjectData` from the [`Attribute`]s the old
/// objects hold; only the matrix and the view are new.
#[derive(Debug, Clone)]
pub struct ObjectData {
    /// Process-unique generation of this immutable object. A restructure
    /// (`drag_column_out`, `drag_column_into`) assembles fresh `ObjectData`
    /// with a fresh identity, which is what keys (and thereby invalidates)
    /// the shared cross-session result cache. Cloning with unchanged data
    /// (e.g. `set_default_action`) keeps the identity — cached results stay
    /// valid.
    identity: u64,
    matrix: Arc<Matrix>,
    /// One build per column, in schema order.
    attributes: Vec<Arc<Attribute>>,
    base_view: View,
    default_action: TouchAction,
}

impl ObjectData {
    /// Assemble an object from its matrix and already-built attributes under
    /// a fresh identity: loads, restructures and the reopen path of the
    /// persistent catalog (`crate::persist`) all end here.
    pub(crate) fn from_parts(
        matrix: Matrix,
        attributes: Vec<Arc<Attribute>>,
        base_view: View,
        default_action: TouchAction,
    ) -> ObjectData {
        ObjectData {
            identity: next_object_identity(),
            matrix: Arc::new(matrix),
            attributes,
            base_view,
            default_action,
        }
    }

    /// The object's catalog name.
    pub fn name(&self) -> &str {
        self.matrix.name()
    }

    /// The identity of this immutable build (see
    /// [`dbtouch_storage::shared_cache::next_object_identity`]).
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// The loaded matrix (base layout, before any per-session rotation).
    pub fn matrix(&self) -> &Arc<Matrix> {
        &self.matrix
    }

    /// The per-attribute builds, in schema order.
    pub fn attributes(&self) -> &[Arc<Attribute>] {
        &self.attributes
    }

    /// One attribute's build.
    pub fn attribute(&self, attribute: usize) -> Result<&Attribute> {
        self.attributes
            .get(attribute)
            .map(|a| &**a)
            .ok_or_else(|| DbTouchError::NotFound(format!("attribute {attribute}")))
    }

    /// Per-attribute sample hierarchies, in schema order.
    pub fn hierarchies(&self) -> Vec<&SampleHierarchy> {
        self.attributes.iter().map(|a| a.hierarchy()).collect()
    }

    /// The default view new sessions start from.
    pub fn base_view(&self) -> &View {
        &self.base_view
    }

    /// The default touch action new sessions start from.
    pub fn default_action(&self) -> &TouchAction {
        &self.default_action
    }

    /// Number of tuples.
    pub fn row_count(&self) -> u64 {
        self.matrix.row_count()
    }

    /// The schema as `(name, type)` pairs.
    pub fn schema(&self) -> &[(String, DataType)] {
        self.matrix.schema()
    }

    /// The attribute of a single-column object; tables of several columns
    /// cannot be dragged into a table or grouped.
    fn standalone_attribute(&self) -> Result<&Arc<Attribute>> {
        match self.attributes.as_slice() {
            [attribute] => Ok(attribute),
            _ => Err(DbTouchError::InvalidPlan(format!(
                "object {} is not a standalone column",
                self.name()
            ))),
        }
    }
}

/// One immutable version of the catalog: the epoch, the restructure counter
/// and the object table of that version.
///
/// Snapshots are what readers hold: everything read through one
/// `Arc<CatalogSnapshot>` is mutually consistent, no matter how many
/// publishes happen concurrently. Object ids are stable across versions — a
/// restructure replaces an object *in place* and an object removed by
/// [`SharedCatalog::drag_column_into`] leaves a permanent tombstone, so an id
/// never points at a different object later.
#[derive(Debug, Clone)]
pub struct CatalogSnapshot {
    /// Version number: +1 per successful publish of any kind.
    epoch: u64,
    /// How many publishes replaced or removed an existing object's data
    /// (`drag_column_out`, `drag_column_into`); loads and metadata edits do
    /// not count.
    restructures: u64,
    /// Object table indexed by `ObjectId`; `None` marks a removed object.
    slots: Vec<Option<Arc<ObjectData>>>,
}

impl CatalogSnapshot {
    /// Assemble a snapshot from persisted parts (`crate::persist`).
    pub(crate) fn from_parts(
        epoch: u64,
        restructures: u64,
        slots: Vec<Option<Arc<ObjectData>>>,
    ) -> CatalogSnapshot {
        CatalogSnapshot {
            epoch,
            restructures,
            slots,
        }
    }

    /// The object table, indexed by id; `None` marks a tombstone.
    pub(crate) fn slots(&self) -> &[Option<Arc<ObjectData>>] {
        &self.slots
    }

    /// The snapshot's version number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Restructures performed up to this version.
    pub fn restructures(&self) -> u64 {
        self.restructures
    }

    /// Number of live (non-removed) objects.
    pub fn object_count(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Number of ids ever allocated, including tombstones of removed objects.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The names of all live objects, in load order (the paper's "screen":
    /// glancing at it tells users what data exists, no schema required).
    pub fn names(&self) -> Vec<String> {
        self.slots
            .iter()
            .flatten()
            .map(|o| o.name().to_string())
            .collect()
    }

    /// Look up a live object's id by name.
    pub fn object_id(&self, name: &str) -> Result<ObjectId> {
        self.slots
            .iter()
            .position(|slot| slot.as_ref().is_some_and(|o| o.name() == name))
            .map(|i| ObjectId(i as u64))
            .ok_or_else(|| DbTouchError::NotFound(name.to_string()))
    }

    /// The shared data of a live object.
    pub fn object(&self, id: ObjectId) -> Result<&Arc<ObjectData>> {
        self.slots
            .get(id.0 as usize)
            .and_then(|slot| slot.as_ref())
            .ok_or_else(|| DbTouchError::NotFound(format!("object {}", id.0)))
    }

    /// Iterate the live objects with their ids.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, &Arc<ObjectData>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|o| (ObjectId(i as u64), o)))
    }
}

/// The mutable, per-session part of exploring one data object.
///
/// Owned by exactly one session; never shared. Holds `Arc` handles into the
/// shared [`ObjectData`], so creating one is cheap (no data copies) — until
/// the session rotates the object's layout, at which point it gets its own
/// rotated matrix without disturbing other sessions.
#[derive(Debug)]
pub struct ObjectState {
    /// The object this state explores (ids are stable across restructures).
    pub(crate) id: ObjectId,
    /// The catalog epoch this state last observed (at checkout or the most
    /// recent [`refresh`](ObjectState::refresh)).
    pub(crate) epoch: u64,
    /// Restructures of this object the state has observed via refresh.
    pub(crate) restructures_seen: u64,
    pub(crate) data: Arc<ObjectData>,
    /// The matrix this session reads: the shared one, or a session-private
    /// rotated copy after a rotate gesture.
    pub(crate) matrix: Arc<Matrix>,
    pub(crate) view: View,
    pub(crate) action: TouchAction,
    /// Handle to the catalog-wide cross-session result cache, `None` when the
    /// configuration disables it.
    pub(crate) shared_cache: Option<Arc<SharedResultCache>>,
    /// The session's device/cloud tier, `None` when the configuration has no
    /// remote split. See [`crate::remote_exec`].
    pub(crate) remote: Option<RemoteTier>,
    /// The catalog-wide morsel pool large summary windows fan out over,
    /// `None` when [`KernelConfig::scan_parallelism`] is 1 (sequential
    /// scans). See [`crate::morsel`].
    pub(crate) morsel: Option<Arc<MorselPool>>,
    /// The owning catalog's telemetry hub (a disabled hub when
    /// [`KernelConfig::telemetry_enabled`] is off). Fanned-out scans record
    /// their `segments` spans through this handle.
    pub(crate) telemetry: Arc<Telemetry>,
}

impl ObjectState {
    /// The id of the object this state explores.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The catalog epoch this state observed at checkout or its latest
    /// [`refresh`](ObjectState::refresh).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How many restructures of this object the state has observed.
    pub fn restructures_seen(&self) -> u64 {
        self.restructures_seen
    }

    /// The shared data this state explores.
    pub fn data(&self) -> &Arc<ObjectData> {
        &self.data
    }

    /// The session's current view (geometry, orientation, zoom).
    pub fn view(&self) -> &View {
        &self.view
    }

    /// The session's current touch action.
    pub fn action(&self) -> &TouchAction {
        &self.action
    }

    /// Change the session's touch action (validate against
    /// [`ObjectData::schema`] first via [`validate_action`]).
    pub fn set_action(&mut self, action: TouchAction) {
        self.action = action;
    }

    /// Number of tuples visible to this session.
    pub fn row_count(&self) -> u64 {
        self.matrix.row_count()
    }

    /// The sample hierarchy of an attribute. Non-numeric attributes have a
    /// degenerate single-level hierarchy (base data only).
    pub fn hierarchy(&self, attribute: usize) -> Result<&SampleHierarchy> {
        self.data.attribute(attribute).map(Attribute::hierarchy)
    }

    /// Flip the physical layout of this session's matrix, converting
    /// [`ROTATION_CHUNK_ROWS`] rows at a time (incremental rotation). Only
    /// this session sees the rotated copy; the shared catalog is untouched.
    ///
    /// The rotation reads through the shared `Arc<Matrix>` and builds only
    /// the rotated target chunk by chunk — the source is never deep-copied,
    /// so peak memory stays bounded by one extra (target) copy.
    pub(crate) fn rotate_layout(&mut self) -> Result<()> {
        let task = RotationTask::over(Arc::clone(&self.matrix), ROTATION_CHUNK_ROWS);
        self.matrix = Arc::new(task.finish()?);
        self.view = self.view.rotated();
        Ok(())
    }

    /// Observe the newest catalog epoch — the gesture-boundary step of the
    /// live-restructure semantics. Call between gesture traces, never inside
    /// one: a trace always runs against the single snapshot the state last
    /// observed.
    ///
    /// * Epoch unchanged: nothing to do.
    /// * Epoch advanced but this object's data identity is unchanged (other
    ///   objects were loaded or restructured, or only metadata changed): the
    ///   state keeps its view, action and any private rotation; only
    ///   the observed epoch moves forward.
    /// * This object was rebuilt (`drag_column_out` / `drag_column_into` on
    ///   it): the state is rebuilt against the new data — base view, shared
    ///   matrix (a private rotation is dropped). The session's
    ///   action carries over when it still *means the same thing*: it must
    ///   validate against the new schema AND any attribute it references by
    ///   index must still name the column it named before (a restructure may
    ///   reorder the schema — e.g. a dragged-out column returns at the end —
    ///   and silently retargeting an aggregate to a different column would be
    ///   worse than falling back). Otherwise it falls back to the object's
    ///   default.
    ///
    /// Returns `true` when the object's data changed (a restructure was
    /// observed). Errors with `NotFound` when the object was removed from
    /// the catalog ([`SharedCatalog::drag_column_into`] merged it away).
    pub fn refresh(&mut self, catalog: &SharedCatalog) -> Result<bool> {
        let snapshot = catalog.snapshot();
        if snapshot.epoch() == self.epoch {
            return Ok(false);
        }
        let data = snapshot.object(self.id)?.clone();
        self.epoch = snapshot.epoch();
        if data.identity == self.data.identity {
            // Same build (the publish that moved the epoch did not rebuild
            // this object's data): keep every piece of session state, track
            // any metadata-only edits through the newer Arc.
            self.data = data;
            return Ok(false);
        }
        let action = if action_survives_rebuild(&self.action, self.data.schema(), data.schema()) {
            self.action.clone()
        } else {
            data.default_action.clone()
        };
        let mut rebuilt = catalog.fresh_state(self.id, self.epoch, data);
        rebuilt.action = action;
        rebuilt.restructures_seen = self.restructures_seen + 1;
        // Refinements of earlier traces are still in flight toward this
        // session's completion queue: the rebuilt state must keep feeding it
        // (they are identity-stamped, so nothing from the old build can ever
        // be applied against the new one).
        if let (Some(rebuilt_tier), Some(old_tier)) =
            (rebuilt.remote.as_mut(), self.remote.as_ref())
        {
            rebuilt_tier.queue = Arc::clone(&old_tier.queue);
        }
        *self = rebuilt;
        Ok(true)
    }

    /// The shared cross-session result cache, when enabled.
    pub fn shared_cache(&self) -> Option<&Arc<SharedResultCache>> {
        self.shared_cache.as_ref()
    }

    /// The session's device/cloud tier, when the catalog runs with a remote
    /// split.
    pub fn remote_tier(&self) -> Option<&RemoteTier> {
        self.remote.as_ref()
    }

    /// The shared morsel pool, when the catalog scans in parallel.
    pub fn morsel_pool(&self) -> Option<&Arc<MorselPool>> {
        self.morsel.as_ref()
    }

    /// Point this state's remote refinements at a caller-owned completion
    /// queue. The server shares one queue across all of a session's states so
    /// its worker drains a single queue per session at event boundaries; must
    /// be called before the state runs a trace (pending refinements already
    /// in flight keep their original queue). No-op without a remote split.
    pub fn set_remote_queue(&mut self, queue: Arc<CompletionQueue>) {
        if let Some(tier) = self.remote.as_mut() {
            tier.queue = queue;
        }
    }
}

/// The concurrent registry of loaded data objects.
///
/// `SharedCatalog` is `Send + Sync`: any number of sessions on any threads
/// checkout per-session [`ObjectState`] and read the shared
/// `Arc<ObjectData>` concurrently. The read path is wait-free — one atomic
/// snapshot load, no lock of any kind — and mutators build successor
/// snapshots off-lock, publishing them with a compare-and-swap loop
/// (rebuilding against the fresh snapshot when they lose the race).
#[derive(Debug)]
pub struct SharedCatalog {
    config: KernelConfig,
    current: EpochCell<CatalogSnapshot>,
    /// Serializes mutators through [`publish`](SharedCatalog::publish) so a
    /// lost CAS race never throws away a completed build. Purely a
    /// write-side optimization: correctness rests on the CAS, and readers
    /// never touch this lock — the checkout/read path stays wait-free.
    mutators: Mutex<()>,
    /// The cross-session result cache every checkout of this catalog shares,
    /// `None` when [`KernelConfig::shared_cache_enabled`] is off.
    shared_cache: Option<Arc<SharedResultCache>>,
    /// The remote-processing executor every checkout of this catalog shares,
    /// `Some` exactly when [`KernelConfig::remote_split`] is set.
    remote_executor: Option<Arc<RemoteExecutor>>,
    /// The scan-helper pool every session's large summary windows fan out
    /// over, `Some` only when [`KernelConfig::scan_parallelism`] > 1.
    morsel: Option<Arc<MorselPool>>,
    /// The attached persistent store, when the catalog was opened from (or
    /// created in) a directory via [`SharedCatalog::open`]. Attached catalogs
    /// persist every published epoch; see `crate::persist`.
    persistence: Option<Arc<crate::persist::Persistence>>,
    /// The catalog's telemetry hub. Every layer below (pager, caches, remote
    /// executor) registers itself here; sessions and the server share the
    /// handle through [`ObjectState`] / [`SharedCatalog::telemetry`].
    telemetry: Arc<Telemetry>,
    /// Live catalog gauges scraped through the hub (epoch, restructures,
    /// object count), updated on every publish.
    gauges: Arc<CatalogGauges>,
}

/// Point-in-time catalog gauges registered with the telemetry hub.
#[derive(Debug, Default)]
struct CatalogGauges {
    epoch: Gauge,
    restructures: Gauge,
    objects: Gauge,
}

impl CatalogGauges {
    fn observe(&self, snapshot: &CatalogSnapshot) {
        self.epoch.set(snapshot.epoch);
        self.restructures.set(snapshot.restructures);
        self.objects.set(snapshot.object_count() as u64);
    }
}

impl MetricSource for CatalogGauges {
    fn source_name(&self) -> &'static str {
        "catalog"
    }

    fn collect(&self) -> Vec<(&'static str, MetricValue)> {
        vec![
            ("epoch", MetricValue::Gauge(self.epoch.get())),
            ("restructures", MetricValue::Gauge(self.restructures.get())),
            ("objects", MetricValue::Gauge(self.objects.get())),
        ]
    }
}

impl SharedCatalog {
    /// Create an empty catalog with the given kernel configuration.
    pub fn new(config: KernelConfig) -> SharedCatalog {
        let snapshot = CatalogSnapshot {
            epoch: 0,
            restructures: 0,
            slots: Vec::new(),
        };
        Self::assemble(config, snapshot, None)
    }

    /// Assemble a catalog around an initial snapshot — shared by [`new`]
    /// (empty, memory-only) and the persistent open path (`crate::persist`).
    ///
    /// [`new`]: SharedCatalog::new
    pub(crate) fn assemble(
        config: KernelConfig,
        snapshot: CatalogSnapshot,
        persistence: Option<Arc<crate::persist::Persistence>>,
    ) -> SharedCatalog {
        let shared_cache = config
            .shared_cache_enabled
            .then(|| Arc::new(SharedResultCache::new(SHARED_CACHE_CAPACITY)));
        let remote_executor = config.remote_split.as_ref().map(|split| {
            Arc::new(RemoteExecutor::start(
                split.io_threads,
                split.queue_depth,
                NetworkModel::from_split(split),
                config.segment_rows,
            ))
        });
        // scan_parallelism counts the submitting session as a worker, so the
        // pool runs one helper fewer.
        let morsel = (config.scan_parallelism > 1)
            .then(|| Arc::new(MorselPool::start(config.scan_parallelism - 1)));
        let telemetry = Arc::new(if config.telemetry_enabled {
            Telemetry::new(SpanConfig {
                enabled: config.tracing_enabled,
                tail_threshold_nanos: config.trace_tail_threshold_micros.saturating_mul(1_000),
                head_sample_every: config.trace_head_sample_every,
                retained_capacity: config.trace_retained_capacity,
                ..SpanConfig::default()
            })
        } else {
            Telemetry::disabled()
        });
        // Every stats-bearing layer registers itself as a scrape source; the
        // snapshot assembles their live values without any report plumbing.
        let gauges = Arc::new(CatalogGauges::default());
        gauges.observe(&snapshot);
        telemetry.register(Arc::clone(&gauges) as Arc<dyn MetricSource>);
        if let Some(cache) = &shared_cache {
            telemetry.register(Arc::clone(cache) as Arc<dyn MetricSource>);
        }
        if let Some(executor) = &remote_executor {
            telemetry.register(Arc::clone(executor) as Arc<dyn MetricSource>);
        }
        if let Some(pool) = &morsel {
            telemetry.register(Arc::clone(pool) as Arc<dyn MetricSource>);
        }
        if let Some(persistence) = &persistence {
            let pager = Arc::clone(persistence.pager());
            telemetry.register(Arc::clone(pager.encoding_stats()) as Arc<dyn MetricSource>);
            telemetry.register(pager as Arc<dyn MetricSource>);
        }
        SharedCatalog {
            config,
            current: EpochCell::new(Arc::new(snapshot)),
            mutators: Mutex::new(()),
            shared_cache,
            remote_executor,
            morsel,
            persistence,
            telemetry,
            gauges,
        }
    }

    /// The catalog's telemetry hub (disabled when the configuration turns
    /// telemetry off — recording through it is then a no-op).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The attached persistent store, if any.
    pub(crate) fn persistence(&self) -> Option<&Arc<crate::persist::Persistence>> {
        self.persistence.as_ref()
    }

    /// The kernel configuration sessions run under.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// The catalog-wide cross-session result cache, when enabled.
    pub fn shared_cache(&self) -> Option<&Arc<SharedResultCache>> {
        self.shared_cache.as_ref()
    }

    /// The remote-processing executor, when the catalog runs a device/cloud
    /// split.
    pub fn remote_executor(&self) -> Option<&Arc<RemoteExecutor>> {
        self.remote_executor.as_ref()
    }

    /// The catalog-wide morsel scan pool, when `scan_parallelism` > 1.
    pub fn morsel_pool(&self) -> Option<&Arc<MorselPool>> {
        self.morsel.as_ref()
    }

    /// The current catalog snapshot (wait-free). Everything read through the
    /// returned `Arc` is mutually consistent.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        self.current.load()
    }

    /// The current epoch: +1 per successful publish of any kind.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// How many publishes replaced or removed an existing object's data.
    pub fn restructure_count(&self) -> u64 {
        self.snapshot().restructures
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.snapshot().object_count()
    }

    /// The names of all live objects, in load order.
    pub fn names(&self) -> Vec<String> {
        self.snapshot().names()
    }

    /// Look up an object id by name.
    pub fn object_id(&self, name: &str) -> Result<ObjectId> {
        self.snapshot().object_id(name)
    }

    /// The shared data of an object.
    pub fn data(&self, id: ObjectId) -> Result<Arc<ObjectData>> {
        self.snapshot().object(id).cloned()
    }

    /// Create fresh per-session state for an object: the default view and
    /// action and the shared matrix. The
    /// state records the epoch it was taken at; see
    /// [`ObjectState::refresh`] for how it observes later epochs.
    pub fn checkout(&self, id: ObjectId) -> Result<ObjectState> {
        let snapshot = self.snapshot();
        self.checkout_from(&snapshot, id)
    }

    /// Checkout against an already-loaded snapshot (one consistent version
    /// for a batch of checkouts).
    pub(crate) fn checkout_from(
        &self,
        snapshot: &CatalogSnapshot,
        id: ObjectId,
    ) -> Result<ObjectState> {
        let data = snapshot.object(id)?.clone();
        Ok(self.fresh_state(id, snapshot.epoch, data))
    }

    fn fresh_state(&self, id: ObjectId, epoch: u64, data: Arc<ObjectData>) -> ObjectState {
        let config = &self.config;
        ObjectState {
            id,
            epoch,
            restructures_seen: 0,
            matrix: data.matrix.clone(),
            view: data.base_view.clone(),
            action: data.default_action.clone(),
            shared_cache: self.shared_cache.clone(),
            remote: config
                .remote_split
                .as_ref()
                .zip(self.remote_executor.as_ref())
                .map(|(split, executor)| RemoteTier {
                    local_min_level: split.local_min_level,
                    executor: Arc::clone(executor),
                    queue: Arc::new(CompletionQueue::new()),
                }),
            morsel: self.morsel.clone(),
            telemetry: Arc::clone(&self.telemetry),
            data,
        }
    }

    /// Load a column of integers as a new data object rendered at `size`.
    pub fn load_column(
        &self,
        name: impl Into<String>,
        values: Vec<i64>,
        size: SizeCm,
    ) -> Result<ObjectId> {
        self.load_column_typed(Column::from_i64(name.into(), values), size)
    }

    /// Load a column of floats as a new data object rendered at `size`.
    pub fn load_column_f64(
        &self,
        name: impl Into<String>,
        values: Vec<f64>,
        size: SizeCm,
    ) -> Result<ObjectId> {
        self.load_column_typed(Column::from_f64(name.into(), values), size)
    }

    /// Load an already-built column as a new data object rendered at `size`.
    pub fn load_column_typed(&self, column: Column, size: SizeCm) -> Result<ObjectId> {
        self.config.validate()?;
        let name = column.name().to_string();
        let tuple_count = column.len();
        let view = View::for_column(name, tuple_count, size)?;
        let matrix = Matrix::from_column(column);
        self.register(matrix, view)
    }

    /// Load a table as a single "fat rectangle" data object rendered at `size`.
    pub fn load_table(&self, table: Table, size: SizeCm) -> Result<ObjectId> {
        self.config.validate()?;
        let view = View::for_table(
            table.name().to_string(),
            table.row_count(),
            table.column_count(),
            size,
        )?;
        let matrix = Matrix::from_table(table);
        self.register(matrix, view)
    }

    /// Change the default touch action new sessions start from. Existing
    /// checked-out states are unaffected (they own their action). The action
    /// is validated against the exact snapshot the publish asserts, so a
    /// concurrent restructure cannot slip an invalid default in — the CAS
    /// fails and the edit revalidates against the fresh snapshot.
    pub fn set_default_action(&self, id: ObjectId, action: TouchAction) -> Result<()> {
        self.publish(|snapshot| {
            let obj = snapshot.object(id)?;
            validate_action(&action, obj.matrix.schema())?;
            let mut updated = (**obj).clone();
            updated.default_action = action.clone();
            let mut slots = snapshot.slots.clone();
            slots[id.0 as usize] = Some(Arc::new(updated));
            Ok((slots, 0, ()))
        })
    }

    /// Drag a column out of a table object into a new standalone column
    /// object (Section 2.8). The table keeps its other attributes and the
    /// standalone object takes the dragged one: both are reassembled from the
    /// attribute builds the table already holds, so nothing is re-sampled,
    /// re-indexed or re-persisted — only the two matrixes and views are new.
    /// The whole restructure — name-clash check, reassembly, registration of
    /// the standalone column — is built against one snapshot and published
    /// atomically, entirely off-lock: a concurrent load cannot leave the
    /// table restructured with the dragged column lost (the CAS fails and the
    /// restructure retries against the fresh snapshot). Sessions holding the
    /// old table `Arc` keep reading the old data until their next
    /// [`ObjectState::refresh`]; new checkouts see the restructured table
    /// immediately.
    pub fn drag_column_out(
        &self,
        table_id: ObjectId,
        column_name: &str,
        size: SizeCm,
    ) -> Result<ObjectId> {
        let (id, old_identity) = self.publish(|snapshot| {
            let obj = snapshot.object(table_id)?;
            let mut attributes = obj.attributes.clone();
            let attribute = attributes.remove(obj.matrix.column_index(column_name)?);
            if attributes.is_empty() {
                return Err(DbTouchError::InvalidPlan(
                    "cannot drag the last column out of a table".into(),
                ));
            }
            if snapshot.object_id(column_name).is_ok() {
                return Err(DbTouchError::AlreadyExists(column_name.to_string()));
            }
            let table = table_data(obj.name(), attributes, obj.base_view.size)?;
            let column = attribute.column().clone();
            let column_view = View::for_column(column_name.to_string(), column.len(), size)?;
            let standalone = ObjectData::from_parts(
                Matrix::from_column(column),
                vec![attribute],
                column_view,
                TouchAction::Scan,
            );
            let mut slots = snapshot.slots.clone();
            slots[table_id.0 as usize] = Some(Arc::new(table));
            let id = ObjectId(slots.len() as u64);
            slots.push(Some(Arc::new(standalone)));
            Ok((slots, 1, (id, obj.identity)))
        })?;
        // The restructured table carries a fresh identity, so shared-cache
        // entries computed against the old object can never be served for
        // it; eagerly dropping them just frees the memory sooner. Runs after
        // the publish — the O(cache-size) sweep must not sit inside the retry
        // loop.
        if let Some(cache) = &self.shared_cache {
            cache.invalidate_object(old_identity);
        }
        Ok(id)
    }

    /// Drag a standalone column object back into a table — the inverse of
    /// [`drag_column_out`](SharedCatalog::drag_column_out) (the "drag and
    /// drop actions in a table placeholder" of Section 2.8). The table is
    /// reassembled with the column's attribute build appended (nothing is
    /// rebuilt) and the standalone object is removed from the catalog; its id
    /// becomes a permanent tombstone (ids are never reused). Sessions still
    /// holding the removed object keep reading their `Arc`'d data; their next
    /// [`ObjectState::refresh`] reports `NotFound`.
    pub fn drag_column_into(&self, table_id: ObjectId, column_id: ObjectId) -> Result<()> {
        if table_id == column_id {
            return Err(DbTouchError::InvalidPlan(
                "cannot drag an object into itself".into(),
            ));
        }
        let (old_table_identity, old_column_identity) = self.publish(|snapshot| {
            let table = snapshot.object(table_id)?;
            let column_obj = snapshot.object(column_id)?;
            let mut attributes = table.attributes.clone();
            attributes.push(Arc::clone(column_obj.standalone_attribute()?));
            let merged = table_data(table.name(), attributes, table.base_view.size)?;
            let identities = (table.identity, column_obj.identity);
            let mut slots = snapshot.slots.clone();
            slots[table_id.0 as usize] = Some(Arc::new(merged));
            slots[column_id.0 as usize] = None;
            Ok((slots, 1, identities))
        })?;
        if let Some(cache) = &self.shared_cache {
            cache.invalidate_object(old_table_identity);
            cache.invalidate_object(old_column_identity);
        }
        Ok(())
    }

    /// Group standalone column objects into a new table object (Section 2.8).
    /// The source column objects remain in the catalog and share their
    /// attribute builds with the new table; the table is registered as a
    /// fresh object with fresh per-session state — nothing (view, actions)
    /// carries over from the sources.
    pub fn group_into_table(
        &self,
        name: impl Into<String>,
        column_ids: &[ObjectId],
        size: SizeCm,
    ) -> Result<ObjectId> {
        self.config.validate()?;
        if column_ids.is_empty() {
            return Err(DbTouchError::InvalidPlan(
                "grouping requires at least one column object".into(),
            ));
        }
        let name = name.into();
        self.publish(|snapshot| {
            if snapshot.object_id(&name).is_ok() {
                return Err(DbTouchError::AlreadyExists(name.clone()));
            }
            let attributes = column_ids
                .iter()
                .map(|id| Ok(Arc::clone(snapshot.object(*id)?.standalone_attribute()?)))
                .collect::<Result<_>>()?;
            let data = table_data(&name, attributes, size)?;
            let mut slots = snapshot.slots.clone();
            let id = ObjectId(slots.len() as u64);
            slots.push(Some(Arc::new(data)));
            Ok((slots, 0, id))
        })
    }

    /// The read-copy-update loop every mutator goes through: load the current
    /// snapshot, let `mutate` build the successor's slots with no reader
    /// blocked, publish with a compare-and-swap; if another publish won the
    /// race anyway, rebuild against the fresh snapshot. `mutate` returns the
    /// new slots, how many restructures the change performs (0 or 1) and the
    /// caller's result.
    ///
    /// Mutators are serialized by the `mutators` lock for the duration of
    /// their build, so under sustained churn each restructure build runs
    /// exactly once instead of being discarded and redone on every lost
    /// race. The CAS remains the actual publication step (and keeps the loop
    /// correct even for a publisher that bypassed the lock); readers are
    /// oblivious to all of this — `EpochCell::load` never blocks.
    fn publish<R>(
        &self,
        mut mutate: impl FnMut(&CatalogSnapshot) -> Result<(Vec<Option<Arc<ObjectData>>>, u64, R)>,
    ) -> Result<R> {
        let _serialized = self.mutators.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let current = self.current.load();
            let (slots, restructured, out) = mutate(&current)?;
            let next = Arc::new(CatalogSnapshot {
                epoch: current.epoch + 1,
                restructures: current.restructures + restructured,
                slots,
            });
            if self.current.publish_if_current(&current, Arc::clone(&next)) {
                self.gauges.observe(&next);
                // Attached catalogs persist the epoch they just published —
                // still under the mutators lock, so manifests land in epoch
                // order and a directory is always exactly one epoch. The
                // in-memory publish has already happened; a persist failure
                // is reported to the mutator as the durability error it is.
                if let Some(persistence) = &self.persistence {
                    persistence.persist_snapshot(&next)?;
                }
                return Ok(out);
            }
        }
    }

    fn register(&self, matrix: Matrix, view: View) -> Result<ObjectId> {
        // Cheap duplicate check first: building sample hierarchies and
        // indexes is O(rows), so don't pay it for a name that will be
        // rejected. The check is repeated inside the publish loop for the
        // race where two loaders register the same name concurrently.
        if self.object_id(matrix.name()).is_ok() {
            return Err(DbTouchError::AlreadyExists(matrix.name().to_string()));
        }
        let data = Arc::new(self.build_data(matrix, view)?);
        self.publish(|snapshot| {
            if snapshot.object_id(data.name()).is_ok() {
                return Err(DbTouchError::AlreadyExists(data.name().to_string()));
            }
            let mut slots = snapshot.slots.clone();
            let id = ObjectId(slots.len() as u64);
            slots.push(Some(Arc::clone(&data)));
            Ok((slots, 0, id))
        })
    }

    /// Build a loaded object: one [`Attribute`] (sample hierarchy and zone
    /// map) per column — the only place either is built.
    fn build_data(&self, matrix: Matrix, view: View) -> Result<ObjectData> {
        const INDEX_BLOCK_ROWS: u64 = 4096;
        let columns = matrix.columns().expect("loads build column-major matrixes");
        let attributes = columns
            .iter()
            .map(|column| {
                let numeric = column.data_type().is_numeric();
                let levels = if numeric {
                    self.config.sample_levels
                } else {
                    1
                };
                let hierarchy = SampleHierarchy::build(column.clone(), levels)?;
                let zone_map = numeric
                    .then(|| ZoneMapIndex::build(column, INDEX_BLOCK_ROWS).ok())
                    .flatten();
                Ok(Arc::new(Attribute::new(hierarchy, zone_map)))
            })
            .collect::<Result<_>>()?;
        Ok(ObjectData::from_parts(
            matrix,
            attributes,
            view,
            TouchAction::Scan,
        ))
    }
}

/// A table object over already-built attributes, under a fresh identity:
/// only the matrix (which shares each attribute's column buffer) and the view
/// are new.
fn table_data(name: &str, attributes: Vec<Arc<Attribute>>, size: SizeCm) -> Result<ObjectData> {
    let columns = attributes.iter().map(|a| a.column().clone()).collect();
    let matrix = Matrix::from_table(Table::from_columns(name, columns)?);
    let view = View::for_table(
        name.to_string(),
        matrix.row_count(),
        matrix.column_count(),
        size,
    )?;
    Ok(ObjectData::from_parts(
        matrix,
        attributes,
        view,
        TouchAction::Scan,
    ))
}

/// Whether a session's action carries across a rebuild from `old` schema to
/// `new` schema: it must validate against `new`, and any attribute it names
/// by index must still be the same column — otherwise a schema reorder (a
/// ping-ponged column returns at the end of the table) would silently
/// retarget the action to different data.
fn action_survives_rebuild(
    action: &TouchAction,
    old: &[(String, DataType)],
    new: &[(String, DataType)],
) -> bool {
    if validate_action(action, new).is_err() {
        return false;
    }
    match action {
        TouchAction::GroupBy {
            group_attribute,
            value_attribute,
            ..
        } => {
            let same_column =
                |i: usize| old.get(i).map(|(name, _)| name) == new.get(i).map(|(name, _)| name);
            same_column(*group_attribute) && same_column(*value_attribute)
        }
        // The remaining actions address whatever attribute the touch lands
        // on — no stored index to go stale.
        _ => true,
    }
}

/// Validate that `action` is runnable against `schema` (shared by the kernel,
/// the catalog and the server's session workers).
pub fn validate_action(action: &TouchAction, schema: &[(String, DataType)]) -> Result<()> {
    if action.aggregate_kind().is_some() {
        let numeric = schema.iter().any(|(_, dt)| dt.is_numeric());
        if !numeric {
            return Err(DbTouchError::TypeMismatch {
                expected: "numeric column".into(),
                found: "no numeric attribute in object".into(),
            });
        }
    }
    if let TouchAction::GroupBy {
        group_attribute,
        value_attribute,
        ..
    } = action
    {
        let value_type = schema
            .get(*value_attribute)
            .ok_or_else(|| DbTouchError::NotFound(format!("attribute {value_attribute}")))?
            .1;
        if schema.get(*group_attribute).is_none() {
            return Err(DbTouchError::NotFound(format!(
                "attribute {group_attribute}"
            )));
        }
        if !value_type.is_numeric() {
            return Err(DbTouchError::TypeMismatch {
                expected: "numeric value attribute".into(),
                found: value_type.name(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use dbtouch_gesture::synthesizer::GestureSynthesizer;
    use dbtouch_storage::layout::Layout;

    fn assert_send_sync<T: Send + Sync>() {}

    fn two_column_table(rows: i64) -> Table {
        Table::from_columns(
            "t",
            vec![
                Column::from_i64("id", (0..rows).collect()),
                Column::from_f64("v", (0..rows).map(|i| i as f64).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn shared_catalog_is_send_and_sync() {
        assert_send_sync::<SharedCatalog>();
        assert_send_sync::<Arc<ObjectData>>();
        assert_send_sync::<Arc<CatalogSnapshot>>();
        assert_send_sync::<ObjectState>();
    }

    #[test]
    fn checkout_shares_data_without_copying() {
        let catalog = SharedCatalog::new(KernelConfig::default());
        let id = catalog
            .load_column("a", (0..10_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let s1 = catalog.checkout(id).unwrap();
        let s2 = catalog.checkout(id).unwrap();
        assert!(Arc::ptr_eq(&s1.matrix, &s2.matrix));
        assert!(Arc::ptr_eq(&s1.data, &s2.data));
        assert_eq!(s1.row_count(), 10_000);
        assert_eq!(s1.id(), id);
        assert_eq!(s1.epoch(), catalog.epoch());
        assert_eq!(s1.restructures_seen(), 0);
    }

    #[test]
    fn per_session_rotation_does_not_disturb_other_sessions() {
        let catalog = SharedCatalog::new(KernelConfig::default());
        let id = catalog
            .load_table(two_column_table(100), SizeCm::new(6.0, 10.0))
            .unwrap();
        let mut s1 = catalog.checkout(id).unwrap();
        let s2 = catalog.checkout(id).unwrap();
        s1.rotate_layout().unwrap();
        assert_eq!(s1.matrix.layout(), Layout::RowMajor);
        assert_eq!(s2.matrix.layout(), Layout::ColumnMajor);
        assert_eq!(
            catalog.checkout(id).unwrap().matrix.layout(),
            Layout::ColumnMajor
        );
    }

    #[test]
    fn default_action_applies_to_new_checkouts_only() {
        let catalog = SharedCatalog::new(KernelConfig::default());
        let id = catalog
            .load_column("a", (0..100).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let before = catalog.checkout(id).unwrap();
        catalog
            .set_default_action(
                id,
                TouchAction::Aggregate(crate::operators::aggregate::AggregateKind::Sum),
            )
            .unwrap();
        let after = catalog.checkout(id).unwrap();
        assert_eq!(before.action(), &TouchAction::Scan);
        assert!(matches!(after.action(), TouchAction::Aggregate(_)));
    }

    #[test]
    fn duplicate_names_rejected() {
        let catalog = SharedCatalog::new(KernelConfig::default());
        catalog
            .load_column("a", vec![1, 2, 3], SizeCm::new(2.0, 10.0))
            .unwrap();
        assert!(matches!(
            catalog.load_column("a", vec![4], SizeCm::new(2.0, 10.0)),
            Err(DbTouchError::AlreadyExists(_))
        ));
    }

    #[test]
    fn epoch_advances_on_every_publish_restructures_only_on_rebuilds() {
        let catalog = SharedCatalog::new(KernelConfig::default());
        assert_eq!(catalog.epoch(), 0);
        assert_eq!(catalog.restructure_count(), 0);

        let tid = catalog
            .load_table(two_column_table(100), SizeCm::new(6.0, 10.0))
            .unwrap();
        assert_eq!(catalog.epoch(), 1);
        assert_eq!(catalog.restructure_count(), 0);

        catalog.set_default_action(tid, TouchAction::Tuple).unwrap();
        assert_eq!(catalog.epoch(), 2);
        assert_eq!(catalog.restructure_count(), 0);

        let cid = catalog
            .drag_column_out(tid, "v", SizeCm::new(2.0, 10.0))
            .unwrap();
        assert_eq!(catalog.epoch(), 3);
        assert_eq!(catalog.restructure_count(), 1);

        catalog.drag_column_into(tid, cid).unwrap();
        assert_eq!(catalog.epoch(), 4);
        assert_eq!(catalog.restructure_count(), 2);

        // A failed mutation publishes nothing.
        assert!(catalog
            .drag_column_out(tid, "missing", SizeCm::new(2.0, 10.0))
            .is_err());
        assert_eq!(catalog.epoch(), 4);
    }

    #[test]
    fn refresh_is_lazy_until_the_epoch_moves() {
        let catalog = SharedCatalog::new(KernelConfig::default());
        let id = catalog
            .load_column("a", (0..100).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let mut state = catalog.checkout(id).unwrap();
        assert!(!state.refresh(&catalog).unwrap());

        // An unrelated load moves the epoch but not this object's identity:
        // the session keeps everything, including a private rotation.
        catalog
            .load_table(two_column_table(50), SizeCm::new(6.0, 10.0))
            .unwrap();
        let mut rotated = catalog.checkout(catalog.object_id("t").unwrap()).unwrap();
        rotated.rotate_layout().unwrap();
        catalog
            .load_column("b", (0..10).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        assert!(!rotated.refresh(&catalog).unwrap());
        assert_eq!(rotated.matrix.layout(), Layout::RowMajor);
        assert_eq!(rotated.epoch(), catalog.epoch());
        assert!(!state.refresh(&catalog).unwrap());
        assert_eq!(state.epoch(), catalog.epoch());
        assert_eq!(state.restructures_seen(), 0);
    }

    #[test]
    fn refresh_observes_a_restructure_with_cold_caches() {
        let catalog = SharedCatalog::new(KernelConfig::default());
        let tid = catalog
            .load_table(two_column_table(50_000), SizeCm::new(6.0, 10.0))
            .unwrap();
        let mut state = catalog.checkout(tid).unwrap();
        state.set_action(TouchAction::Tuple);
        let view = state.view().clone();
        let trace = GestureSynthesizer::new(60.0).exploratory_slide(&view, 2.0);
        Session::new(&mut state, catalog.config())
            .run(&trace)
            .unwrap();

        catalog
            .drag_column_out(tid, "v", SizeCm::new(2.0, 10.0))
            .unwrap();
        // Until refresh, the session keeps its pre-restructure view.
        assert_eq!(state.data().schema().len(), 2);
        assert!(state.refresh(&catalog).unwrap());
        assert_eq!(state.data().schema().len(), 1);
        assert_eq!(state.restructures_seen(), 1);
        assert_eq!(state.epoch(), catalog.epoch());
        // Tuple still validates against the single-column table.
        assert_eq!(state.action(), &TouchAction::Tuple);
    }

    #[test]
    fn refresh_falls_back_to_default_action_when_invalidated() {
        let catalog = SharedCatalog::new(KernelConfig::default());
        let table = Table::from_columns(
            "t",
            vec![
                Column::from_i64("id", (0..100).collect()),
                Column::from_f64("v", (0..100).map(|i| i as f64).collect()),
                Column::from_i64("q", (0..100).map(|i| i % 5).collect()),
            ],
        )
        .unwrap();
        let tid = catalog.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        let mut state = catalog.checkout(tid).unwrap();
        state.set_action(TouchAction::GroupBy {
            group_attribute: 0,
            value_attribute: 2,
            kind: crate::operators::aggregate::AggregateKind::Sum,
        });
        catalog
            .drag_column_out(tid, "q", SizeCm::new(2.0, 10.0))
            .unwrap();
        assert!(state.refresh(&catalog).unwrap());
        assert_eq!(state.action(), &TouchAction::Scan);
    }

    #[test]
    fn refresh_never_retargets_an_index_action_across_a_schema_reorder() {
        // A drag-out/drag-in ping-pong re-appends the column at the end of
        // the table: [id, v, q] -> [id, q] -> [id, q, v]. A GroupBy that
        // aggregated attribute 1 ("v") would still *validate* against the
        // reordered schema ("q" is numeric too) but mean different data —
        // it must fall back to the default instead of silently retargeting.
        let catalog = SharedCatalog::new(KernelConfig::default());
        let table = Table::from_columns(
            "t",
            vec![
                Column::from_i64("id", (0..100).collect()),
                Column::from_f64("v", (0..100).map(|i| i as f64).collect()),
                Column::from_i64("q", (0..100).map(|i| i % 5).collect()),
            ],
        )
        .unwrap();
        let tid = catalog.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        let mut state = catalog.checkout(tid).unwrap();
        state.set_action(TouchAction::GroupBy {
            group_attribute: 0,
            value_attribute: 1,
            kind: crate::operators::aggregate::AggregateKind::Sum,
        });
        let cid = catalog
            .drag_column_out(tid, "v", SizeCm::new(2.0, 10.0))
            .unwrap();
        catalog.drag_column_into(tid, cid).unwrap();
        let schema: Vec<String> = catalog
            .data(tid)
            .unwrap()
            .schema()
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert_eq!(schema, vec!["id", "q", "v"], "ping-pong reorders");
        assert!(state.refresh(&catalog).unwrap());
        assert_eq!(
            state.action(),
            &TouchAction::Scan,
            "attribute 1 names a different column now: the action must not retarget"
        );

        // A GroupBy whose referenced attributes kept their names survives.
        let mut stable = catalog.checkout(tid).unwrap();
        stable.set_action(TouchAction::GroupBy {
            group_attribute: 0,
            value_attribute: 1,
            kind: crate::operators::aggregate::AggregateKind::Sum,
        });
        let cid = catalog
            .drag_column_out(tid, "v", SizeCm::new(2.0, 10.0))
            .unwrap();
        catalog.drag_column_into(tid, cid).unwrap();
        assert!(stable.refresh(&catalog).unwrap());
        assert!(
            matches!(stable.action(), TouchAction::GroupBy { .. }),
            "id/q kept their positions: the action still means the same thing"
        );
    }

    #[test]
    fn drag_column_into_merges_and_removes_the_standalone() {
        let catalog = SharedCatalog::new(KernelConfig::default());
        let tid = catalog
            .load_table(two_column_table(1_000), SizeCm::new(6.0, 10.0))
            .unwrap();
        let cid = catalog
            .drag_column_out(tid, "v", SizeCm::new(2.0, 10.0))
            .unwrap();
        assert_eq!(catalog.names(), vec!["t".to_string(), "v".to_string()]);

        let mut orphan = catalog.checkout(cid).unwrap();
        catalog.drag_column_into(tid, cid).unwrap();
        // The table got its column back; the standalone object is gone and
        // its id is a permanent tombstone.
        assert_eq!(catalog.names(), vec!["t".to_string()]);
        assert_eq!(catalog.object_count(), 1);
        let data = catalog.data(tid).unwrap();
        let schema: Vec<&str> = data.schema().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(schema, vec!["id", "v"]);
        assert!(catalog.data(cid).is_err());
        assert!(catalog.checkout(cid).is_err());
        // A session still holding the removed object keeps its data but its
        // refresh reports the removal.
        assert_eq!(orphan.row_count(), 1_000);
        assert!(matches!(
            orphan.refresh(&catalog),
            Err(DbTouchError::NotFound(_))
        ));
        // Ids of later loads are fresh, never the tombstone's.
        let next = catalog
            .load_column("x", vec![1, 2, 3], SizeCm::new(2.0, 10.0))
            .unwrap();
        assert!(next.0 > cid.0);
    }

    #[test]
    fn drag_column_into_rejects_bad_sources() {
        let catalog = SharedCatalog::new(KernelConfig::default());
        let tid = catalog
            .load_table(two_column_table(100), SizeCm::new(6.0, 10.0))
            .unwrap();
        let other_table = Table::from_columns(
            "t2",
            vec![
                Column::from_i64("a", (0..100).collect()),
                Column::from_i64("b", (0..100).collect()),
            ],
        )
        .unwrap();
        let t2 = catalog
            .load_table(other_table, SizeCm::new(6.0, 10.0))
            .unwrap();
        // A table is not a standalone column.
        assert!(catalog.drag_column_into(tid, t2).is_err());
        // An object cannot merge into itself.
        assert!(catalog.drag_column_into(tid, tid).is_err());
        // A duplicate column name is rejected.
        let dup = catalog
            .load_column("v", (0..100).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        assert!(matches!(
            catalog.drag_column_into(tid, dup),
            Err(DbTouchError::AlreadyExists(_))
        ));
        // Mismatched lengths are rejected and publish nothing.
        let short = catalog
            .load_column("short", vec![1, 2, 3], SizeCm::new(2.0, 10.0))
            .unwrap();
        let epoch = catalog.epoch();
        assert!(catalog.drag_column_into(tid, short).is_err());
        assert_eq!(catalog.epoch(), epoch);
    }

    #[test]
    fn group_into_table_registers_a_fresh_object() {
        let catalog = SharedCatalog::new(KernelConfig::default());
        let a = catalog
            .load_column("a", (0..50).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let b = catalog
            .load_column("b", (100..150).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let restructures = catalog.restructure_count();
        let t = catalog
            .group_into_table("grouped", &[a, b], SizeCm::new(4.0, 10.0))
            .unwrap();
        // Grouping creates; it does not rebuild the sources.
        assert_eq!(catalog.restructure_count(), restructures);
        assert_eq!(catalog.data(t).unwrap().schema().len(), 2);
        assert_eq!(catalog.object_count(), 3);
        assert!(matches!(
            catalog.group_into_table("grouped", &[a, b], SizeCm::new(4.0, 10.0)),
            Err(DbTouchError::AlreadyExists(_))
        ));
        assert!(catalog
            .group_into_table("empty", &[], SizeCm::new(4.0, 10.0))
            .is_err());
    }

    #[test]
    fn restructure_mints_fresh_identity_but_metadata_edits_keep_it() {
        let catalog = SharedCatalog::new(KernelConfig::default());
        let tid = catalog
            .load_table(two_column_table(100), SizeCm::new(6.0, 10.0))
            .unwrap();
        let original = catalog.data(tid).unwrap().identity();

        // Changing the default action does not change the data: identity (and
        // therefore any cached results) must survive.
        catalog
            .set_default_action(
                tid,
                TouchAction::Aggregate(crate::operators::aggregate::AggregateKind::Sum),
            )
            .unwrap();
        assert_eq!(catalog.data(tid).unwrap().identity(), original);
        let before = catalog.data(tid).unwrap().attributes().to_vec();

        // A restructure assembles new objects: both get fresh identities, so
        // stale cached windows can never be served...
        let cid = catalog
            .drag_column_out(tid, "v", SizeCm::new(2.0, 10.0))
            .unwrap();
        let rebuilt = catalog.data(tid).unwrap().identity();
        let standalone = catalog.data(cid).unwrap().identity();
        assert_ne!(rebuilt, original);
        assert_ne!(standalone, original);
        assert_ne!(rebuilt, standalone);
        // ... but it moves the attribute builds instead of rebuilding them.
        let attributes = |id| catalog.data(id).unwrap().attributes().to_vec();
        assert!(Arc::ptr_eq(&attributes(cid)[0], &before[1]));
        assert!(Arc::ptr_eq(&attributes(tid)[0], &before[0]));
    }

    #[test]
    fn restructure_drops_shared_cache_entries_of_the_old_build() {
        use crate::kernel::TouchAction;
        use dbtouch_gesture::synthesizer::GestureSynthesizer;

        let catalog = SharedCatalog::new(KernelConfig::default());
        let tid = catalog
            .load_table(two_column_table(200_000), SizeCm::new(6.0, 10.0))
            .unwrap();
        let view = catalog.data(tid).unwrap().base_view().clone();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
        let mut state = catalog.checkout(tid).unwrap();
        state.set_action(TouchAction::Summary {
            half_window: Some(5),
            kind: crate::operators::aggregate::AggregateKind::Avg,
        });
        Session::new(&mut state, catalog.config())
            .run(&trace)
            .unwrap();
        let cache = catalog.shared_cache().expect("enabled by default");
        assert!(!cache.is_empty(), "summary run must populate the cache");

        catalog
            .drag_column_out(tid, "v", SizeCm::new(2.0, 10.0))
            .unwrap();
        assert!(
            cache.is_empty(),
            "restructure must drop entries of the old build"
        );
        assert!(cache.stats().invalidated > 0);
    }

    #[test]
    fn concurrent_checkouts_run_identical_sessions() {
        let catalog = Arc::new(SharedCatalog::new(KernelConfig::default()));
        let id = catalog
            .load_column("col", (0..100_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let view = catalog.data(id).unwrap().base_view().clone();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
        let baseline = {
            let mut state = catalog.checkout(id).unwrap();
            Session::new(&mut state, catalog.config())
                .run(&trace)
                .unwrap()
        };
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let catalog = Arc::clone(&catalog);
                let trace = trace.clone();
                std::thread::spawn(move || {
                    let mut state = catalog.checkout(id).unwrap();
                    Session::new(&mut state, catalog.config())
                        .run(&trace)
                        .unwrap()
                })
            })
            .collect();
        for handle in handles {
            let outcome = handle.join().unwrap();
            assert_eq!(outcome.results, baseline.results);
            assert_eq!(
                outcome.stats.entries_returned,
                baseline.stats.entries_returned
            );
            assert_eq!(outcome.stats.rows_touched, baseline.stats.rows_touched);
        }
    }

    #[test]
    fn concurrent_restructures_and_checkouts_converge() {
        // Mutator threads ping-pong columns out of / back into one table
        // while reader threads checkout and refresh continuously. The CAS
        // loop must serialize every restructure (none lost), readers must
        // never observe an inconsistent object, and the table must end with
        // its full schema.
        const MUTATORS: usize = 2;
        const CYCLES: usize = 25;

        let catalog = Arc::new(SharedCatalog::new(KernelConfig::default()));
        let table = Table::from_columns(
            "t",
            vec![
                Column::from_i64("key", (0..512).collect()),
                Column::from_i64("m0", (0..512).collect()),
                Column::from_i64("m1", (0..512).collect()),
            ],
        )
        .unwrap();
        let tid = catalog.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();

        let mutators: Vec<_> = (0..MUTATORS)
            .map(|m| {
                let catalog = Arc::clone(&catalog);
                std::thread::spawn(move || {
                    let column = format!("m{m}");
                    for _ in 0..CYCLES {
                        let cid = catalog
                            .drag_column_out(tid, &column, SizeCm::new(2.0, 10.0))
                            .unwrap();
                        catalog.drag_column_into(tid, cid).unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let catalog = Arc::clone(&catalog);
                std::thread::spawn(move || {
                    let mut last_epoch = 0;
                    for _ in 0..400 {
                        let state = catalog.checkout(tid).unwrap();
                        // A checked-out state is always internally consistent:
                        // the view's attribute count matches the schema.
                        assert_eq!(
                            state.view().attribute_count as usize,
                            state.data().schema().len()
                        );
                        assert!(state.epoch() >= last_epoch, "epochs are monotone");
                        last_epoch = state.epoch();
                    }
                })
            })
            .collect();
        for m in mutators {
            m.join().unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
        // Every cycle is two publishes; none may be lost.
        assert_eq!(catalog.restructure_count(), (MUTATORS * CYCLES * 2) as u64);
        let data = catalog.data(tid).unwrap();
        let schema: Vec<&str> = data.schema().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(schema.len(), 3);
        assert!(schema.contains(&"key"));
        assert!(schema.contains(&"m0"));
        assert!(schema.contains(&"m1"));
    }
}
