//! Catalog persistence: `SharedCatalog::open` / `persist_to` over the paged
//! store in `dbtouch_storage::persist`.
//!
//! A persisted catalog directory is **exactly one published epoch**: the
//! manifest captures the epoch's object table — names, schemas, default
//! actions, view sizes, sample hierarchies, zone maps and tombstones — and
//! points every column (and every sample level) at a page extent in the
//! directory's page file.
//!
//! **Reopening is lazy.** [`SharedCatalog::open`] rebuilds `ObjectData` whose
//! columns are paged-backed readers: no row is read at open; pages fault
//! through the store's buffer pool ([`KernelConfig::buffer_pool_pages`]) on
//! first touch, so a catalog larger than the pool — or larger than RAM —
//! streams under exploration. The wait-free `EpochCell` checkout path is
//! untouched: sessions of a reopened catalog check out, refresh and explore
//! exactly as they do against a memory-born catalog, and replayed traces
//! produce bit-identical result digests (the paged readers decode the same
//! encoding with the same fold order).
//!
//! **Fresh identities.** Reopened objects and their attributes are stamped
//! with fresh generations of
//! [`next_object_identity`](dbtouch_storage::shared_cache::next_object_identity),
//! never the previous process's numbers: identity uniqueness is a
//! process-local invariant that keys the shared result cache and the
//! `ObjectState::refresh` rebuild detection.
//! Reusing persisted identities could collide with identities minted for new
//! loads and serve another object's cached windows.
//!
//! **Attached catalogs persist every publish.** A catalog opened from a
//! directory keeps the store attached and persists each published epoch
//! (loads, metadata edits and restructures alike) from inside the publish
//! path, so the directory tracks the live catalog and a crash loses at most
//! the epoch being written — never a published one. What is referenced is the
//! attribute, not the object: the store remembers the extents of every
//! attribute build the last manifest names, keyed by the attribute's
//! identity, and a manifest points at them again instead of rewriting them.
//! A load writes its columns' pages; a restructure, which only reassembles
//! attributes the catalog already holds, writes no pages — only one
//! manifest. Reopening seeds the memo from the manifest, so this holds on a
//! reopened catalog too.

use crate::catalog::{validate_action, Attribute, CatalogSnapshot, ObjectData, SharedCatalog};
use crate::kernel::TouchAction;
use dbtouch_gesture::view::View;
use dbtouch_storage::column::Column;
use dbtouch_storage::encoding::EncodingPolicy;
use dbtouch_storage::matrix::Matrix;
use dbtouch_storage::page::DEFAULT_PAGE_SIZE;
use dbtouch_storage::pager::{ColumnExtent, PagedColumn, PagerStats};
use dbtouch_storage::persist::{CatalogStore, ObjectRecord, StoreManifest};
use dbtouch_storage::sample::SampleHierarchy;
use dbtouch_storage::table::Table;
use dbtouch_types::wire;
use dbtouch_types::{DbTouchError, KernelConfig, Result, SizeCm};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Where one attribute build lives on disk.
#[derive(Debug, Clone)]
struct AttributeExtents {
    column: ColumnExtent,
    /// Sample levels `1..` (level 0 is the column).
    levels: Vec<ColumnExtent>,
}

/// A catalog's attached persistent store: the directory, the pager and the
/// attribute identity → extents memo. One `Persistence` serializes all
/// persists of its catalog through its interior mutex.
#[derive(Debug)]
pub(crate) struct Persistence {
    store: CatalogStore,
    /// The attributes the last persisted snapshot names, and where they are.
    extents: Mutex<HashMap<u64, AttributeExtents>>,
    /// Page-span encoding choices applied when attribute pages are written.
    policy: EncodingPolicy,
}

/// The encoding policy a catalog's knobs ask for; the dictionary cap is the
/// storage default.
fn encoding_policy(config: &KernelConfig) -> EncodingPolicy {
    EncodingPolicy {
        enabled: config.encoding_enabled,
        ..EncodingPolicy::default()
    }
}

impl Persistence {
    /// Persist one snapshot: append pages for attribute builds not yet on
    /// disk, then commit a manifest for the snapshot's epoch. Safe under live
    /// churn — the snapshot is immutable, so the manifest is one consistent
    /// epoch no matter what publishes concurrently.
    pub(crate) fn persist_snapshot(&self, snapshot: &CatalogSnapshot) -> Result<u64> {
        let mut extents = self.extents.lock().unwrap_or_else(|e| e.into_inner());
        let pager = self.store.pager();
        let mut live = HashSet::new();
        let mut slots = Vec::with_capacity(snapshot.slots().len());
        for slot in snapshot.slots() {
            let Some(data) = slot else {
                slots.push(None);
                continue;
            };
            write_new_attributes(pager, data.attributes(), &self.policy, &mut extents)?;
            let persisted: Vec<&AttributeExtents> = data
                .attributes()
                .iter()
                .map(|a| &extents[&a.identity()])
                .collect();
            live.extend(data.attributes().iter().map(|a| a.identity()));
            let schema = data.schema();
            slots.push(Some(ObjectRecord {
                name: data.name().to_string(),
                is_table: schema.len() > 1,
                size_w: data.base_view().size.width,
                size_h: data.base_view().size.height,
                action: wire::encode(data.default_action()),
                attribute_names: schema.iter().map(|(n, _)| n.clone()).collect(),
                row_count: data.row_count(),
                columns: persisted.iter().map(|p| p.column).collect(),
                sample_levels: persisted.iter().map(|p| p.levels.clone()).collect(),
                zone_maps: data
                    .attributes()
                    .iter()
                    .map(|a| a.zone_map().cloned())
                    .collect(),
            }));
        }
        // Attributes no object holds any more are never referenced again.
        extents.retain(|identity, _| live.contains(identity));
        let manifest = StoreManifest {
            epoch: snapshot.epoch(),
            restructures: snapshot.restructures(),
            page_size: pager.page_size(),
            committed_pages: pager.len_pages(),
            slots,
        };
        self.store.commit(&manifest)?;
        Ok(manifest.epoch)
    }

    /// Buffer-pool counters of the attached store.
    pub(crate) fn pager_stats(&self) -> PagerStats {
        self.store.pager().stats()
    }

    /// The attached store's buffer pool, for telemetry registration.
    pub(crate) fn pager(&self) -> &Arc<dbtouch_storage::pager::Pager> {
        self.store.pager()
    }

    /// The directory the store lives in.
    pub(crate) fn dir(&self) -> &Path {
        self.store.dir()
    }
}

/// Append the pages of the attributes not yet on disk — their columns in
/// schema order, then their sample levels — and remember where they went.
/// Zone maps travel inline in the manifest.
fn write_new_attributes(
    pager: &Arc<dbtouch_storage::pager::Pager>,
    attributes: &[Arc<Attribute>],
    policy: &EncodingPolicy,
    extents: &mut HashMap<u64, AttributeExtents>,
) -> Result<()> {
    let new: Vec<&Attribute> = attributes
        .iter()
        .filter(|a| !extents.contains_key(&a.identity()))
        .map(|a| &**a)
        .collect();
    let mut columns = Vec::with_capacity(new.len());
    for attribute in &new {
        columns.push(attribute.column().persist_to_encoded(pager, policy)?);
    }
    for (attribute, column) in new.into_iter().zip(columns) {
        let hierarchy = attribute.hierarchy();
        let mut levels = Vec::new();
        for level in 1..hierarchy.level_count() {
            levels.push(hierarchy.level(level)?.persist_to_encoded(pager, policy)?);
        }
        extents.insert(attribute.identity(), AttributeExtents { column, levels });
    }
    Ok(())
}

/// Rebuild one object from its manifest record: paged-backed attributes
/// (column, sample levels, inline zone map), re-derived base view, decoded
/// default action — and **fresh** identities, each attribute's recorded in
/// `extents` so re-persisting it writes no pages.
fn object_from_record(
    pager: &Arc<dbtouch_storage::pager::Pager>,
    record: &ObjectRecord,
    extents: &mut HashMap<u64, AttributeExtents>,
) -> Result<Arc<ObjectData>> {
    let mut columns = Vec::with_capacity(record.columns.len());
    let mut attributes = Vec::with_capacity(record.columns.len());
    let persisted = record
        .attribute_names
        .iter()
        .zip(&record.columns)
        .zip(&record.sample_levels)
        .zip(&record.zone_maps);
    for (((name, extent), levels), zone_map) in persisted {
        if extent.rows != record.row_count {
            return Err(DbTouchError::Corrupt(format!(
                "object {}: column {name} extent holds {} rows, object claims {}",
                record.name, extent.rows, record.row_count
            )));
        }
        let column = Column::paged(name.clone(), PagedColumn::new(Arc::clone(pager), *extent)?);
        let mut built = Vec::with_capacity(levels.len() + 1);
        built.push(column.clone());
        for level in levels {
            let reader = PagedColumn::new(Arc::clone(pager), *level)?;
            built.push(Column::paged(name.clone(), reader));
        }
        let attribute = Attribute::new(SampleHierarchy::from_levels(built)?, zone_map.clone());
        extents.insert(
            attribute.identity(),
            AttributeExtents {
                column: *extent,
                levels: levels.clone(),
            },
        );
        attributes.push(Arc::new(attribute));
        columns.push(column);
    }
    let size = SizeCm::new(record.size_w, record.size_h);
    let view = if record.is_table {
        View::for_table(record.name.clone(), record.row_count, columns.len(), size)?
    } else {
        View::for_column(record.name.clone(), record.row_count, size)?
    };
    let matrix = if record.is_table {
        Matrix::from_table(Table::from_columns(record.name.clone(), columns)?)
    } else {
        let single = columns.into_iter().next().ok_or_else(|| {
            DbTouchError::Corrupt(format!("object {} has no columns", record.name))
        })?;
        let mut matrix = Matrix::from_column(single);
        matrix.set_name(&record.name);
        matrix
    };
    let action: TouchAction = wire::decode(&record.action).map_err(|e| {
        DbTouchError::Corrupt(format!(
            "object {}: persisted default action: {e}",
            record.name
        ))
    })?;
    validate_action(&action, matrix.schema()).map_err(|e| {
        DbTouchError::Corrupt(format!(
            "object {}: persisted default action does not validate: {e}",
            record.name
        ))
    })?;
    Ok(Arc::new(ObjectData::from_parts(
        matrix, attributes, view, action,
    )))
}

impl SharedCatalog {
    /// Open a persistent catalog directory — or create it when it holds no
    /// persisted epoch yet — and attach it, so every subsequently published
    /// epoch is persisted.
    ///
    /// Reopening recovers the newest valid manifest (see
    /// [`dbtouch_storage::persist`] for the recovery rules) and rebuilds the
    /// catalog lazily: object columns become paged-backed readers that fault
    /// pages through a buffer pool of [`KernelConfig::buffer_pool_pages`]
    /// pages on first touch. Object ids, the epoch counter and the
    /// restructure counter continue exactly where the persisted catalog left
    /// off; object identities are freshly minted (they are process-local
    /// cache keys, not durable state).
    pub fn open(dir: impl AsRef<Path>, config: KernelConfig) -> Result<SharedCatalog> {
        config.validate()?;
        let (store, manifest) =
            CatalogStore::open(&dir, config.buffer_pool_pages, DEFAULT_PAGE_SIZE)?;
        let mut extents = HashMap::new();
        let snapshot = match &manifest {
            None => CatalogSnapshot::from_parts(0, 0, Vec::new()),
            Some(manifest) => {
                let pager = store.pager();
                let mut slots = Vec::with_capacity(manifest.slots.len());
                for record in &manifest.slots {
                    match record {
                        None => slots.push(None),
                        Some(record) => {
                            slots.push(Some(object_from_record(pager, record, &mut extents)?));
                        }
                    }
                }
                CatalogSnapshot::from_parts(manifest.epoch, manifest.restructures, slots)
            }
        };
        let persistence = Arc::new(Persistence {
            store,
            extents: Mutex::new(extents),
            policy: encoding_policy(&config),
        });
        // A fresh directory records epoch 0 immediately, so a server crash
        // before the first load still leaves a recognizable catalog.
        if manifest.is_none() {
            persistence.persist_snapshot(&snapshot)?;
        }
        Ok(SharedCatalog::assemble(config, snapshot, Some(persistence)))
    }

    /// Persist the current snapshot to `dir` and return the epoch written.
    ///
    /// When `dir` is the attached directory this is an incremental persist
    /// (attributes already on disk write no pages). Any other directory gets a full,
    /// self-contained copy of the current epoch — and stays detached: the
    /// catalog keeps persisting to its attached directory, if any.
    pub fn persist_to(&self, dir: impl AsRef<Path>) -> Result<u64> {
        let snapshot = self.snapshot();
        if let Some(persistence) = self.persistence() {
            // Compare canonicalized paths: "./data" and "data" (or a symlink)
            // are the same store, and opening a second `Pager` over the
            // attached pages.dat would append with a stale length and
            // overwrite committed pages. A target that cannot be
            // canonicalized does not exist yet, so it cannot be the attached
            // (existing) directory.
            let attached = std::fs::canonicalize(persistence.dir());
            let target = std::fs::canonicalize(dir.as_ref());
            if let (Ok(attached), Ok(target)) = (attached, target) {
                if attached == target {
                    return persistence.persist_snapshot(&snapshot);
                }
            }
        }
        let store = CatalogStore::create(&dir, DEFAULT_PAGE_SIZE, self.config().buffer_pool_pages)?;
        let persistence = Persistence {
            store,
            extents: Mutex::new(HashMap::new()),
            policy: encoding_policy(self.config()),
        };
        persistence.persist_snapshot(&snapshot)
    }

    /// The attached persistent directory, when the catalog was opened with
    /// [`SharedCatalog::open`].
    pub fn catalog_dir(&self) -> Option<PathBuf> {
        self.persistence().map(|p| p.dir().to_path_buf())
    }

    /// Buffer-pool counters of the attached store (`None` for memory-only
    /// catalogs). Faults and pool hits measure how a reopened catalog
    /// streams under exploration.
    pub fn pager_stats(&self) -> Option<PagerStats> {
        self.persistence().map(|p| p.pager_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::aggregate::AggregateKind;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    pub(crate) fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dbtouch-persist-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persist_then_open_round_trips_catalog_and_results() {
        use crate::session::Session;
        use dbtouch_gesture::synthesizer::GestureSynthesizer;

        let dir = temp_dir("round-trip");
        let catalog = SharedCatalog::new(KernelConfig::default());
        catalog
            .load_column(
                "signal",
                (0..60_000).map(|i| i % 997).collect(),
                SizeCm::new(2.0, 12.0),
            )
            .unwrap();
        let table = dbtouch_storage::table::Table::from_columns(
            "t",
            vec![
                dbtouch_storage::column::Column::from_i64("id", (0..500).collect()),
                dbtouch_storage::column::Column::from_f64(
                    "v",
                    (0..500).map(|i| i as f64 * 0.5).collect(),
                ),
            ],
        )
        .unwrap();
        let tid = catalog.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        catalog.set_default_action(tid, TouchAction::Tuple).unwrap();
        let persisted_epoch = catalog.persist_to(&dir).unwrap();
        assert_eq!(persisted_epoch, catalog.epoch());

        let reopened = SharedCatalog::open(&dir, KernelConfig::default()).unwrap();
        assert_eq!(reopened.epoch(), catalog.epoch());
        assert_eq!(reopened.restructure_count(), catalog.restructure_count());
        assert_eq!(reopened.names(), catalog.names());
        let sid = reopened.object_id("signal").unwrap();
        let original = catalog.data(catalog.object_id("signal").unwrap()).unwrap();
        let back = reopened.data(sid).unwrap();
        assert_eq!(back.schema(), original.schema());
        assert_eq!(back.row_count(), original.row_count());
        assert_eq!(
            back.hierarchies()[0].level_count(),
            original.hierarchies()[0].level_count()
        );
        // Paged-backed: no row data resident until touched.
        assert!(back.matrix().columns().unwrap()[0].paged_extent().is_some());
        let t_back = reopened.data(reopened.object_id("t").unwrap()).unwrap();
        assert_eq!(t_back.default_action(), &TouchAction::Tuple);

        // Same trace, bit-identical results against the reopened catalog.
        let view = original.base_view().clone();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.5);
        let run = |catalog: &SharedCatalog, id| {
            let mut state = catalog.checkout(id).unwrap();
            state.set_action(TouchAction::Summary {
                half_window: Some(50),
                kind: AggregateKind::Avg,
            });
            Session::new(&mut state, catalog.config())
                .run(&trace)
                .unwrap()
        };
        let a = run(&catalog, catalog.object_id("signal").unwrap());
        let b = run(&reopened, sid);
        assert_eq!(a.results, b.results);
        assert_eq!(a.stats.rows_touched, b.stats.rows_touched);
        let stats = reopened.pager_stats().unwrap();
        assert!(
            stats.faults > 0,
            "reopened reads must fault pages: {stats:?}"
        );
    }

    #[test]
    fn encoded_catalog_round_trips_and_exposes_encoding_metrics() {
        use crate::session::Session;
        use dbtouch_gesture::synthesizer::GestureSynthesizer;

        // The dictionary cap is not a knob: every persist uses the storage
        // default.
        let policy = encoding_policy(&KernelConfig::default());
        assert_eq!(policy.dict_max_cardinality, 64);
        assert_eq!(policy, EncodingPolicy::default());

        // Long constant runs: prime RLE territory for the page-span encoder.
        let rows: Vec<i64> = (0..60_000).map(|i| (i / 500) % 4).collect();
        let run = |config: KernelConfig, tag: &str| {
            let dir = temp_dir(&format!("encoded-rt-{tag}"));
            {
                // Attached open: the load's auto-persist packs pages through
                // this catalog's own pager, so pack counters land here.
                let writer = SharedCatalog::open(&dir, config.clone()).unwrap();
                writer
                    .load_column("steps", rows.clone(), SizeCm::new(2.0, 12.0))
                    .unwrap();
                let packed = writer.telemetry().snapshot();
                if config.encoding_enabled {
                    let rle = packed.scalar("encoding.rle_pages").unwrap();
                    let saved = packed.scalar("encoding.bytes_saved").unwrap();
                    assert!(rle > 0, "runs of 500 must pack as RLE: {rle}");
                    assert!(saved > 0, "packing must shrink the page count: {saved}");
                } else {
                    assert_eq!(packed.scalar("encoding.rle_pages"), Some(0));
                    assert_eq!(packed.scalar("encoding.bytes_saved"), Some(0));
                }
            }
            let reopened = SharedCatalog::open(&dir, config).unwrap();
            let id = reopened.object_id("steps").unwrap();
            let data = reopened.data(id).unwrap();
            let view = data.base_view().clone();
            let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.5);
            let mut state = reopened.checkout(id).unwrap();
            state.set_action(TouchAction::Summary {
                half_window: Some(200),
                kind: AggregateKind::Sum,
            });
            let outcome = Session::new(&mut state, reopened.config())
                .run(&trace)
                .unwrap();
            drop(state);
            (reopened, outcome)
        };

        let (encoded, enc_out) = run(KernelConfig::default(), "on");
        let (_, raw_out) = run(KernelConfig::default().with_encoding(false), "off");
        // Bit-identical answers regardless of the on-disk representation.
        assert_eq!(enc_out.results, raw_out.results);
        assert_eq!(enc_out.stats.rows_touched, raw_out.stats.rows_touched);

        // Drive the segment kernel straight at the reopened packed column
        // (zone maps answer aligned segments without touching pages, so the
        // session above may never fault one) and confirm the run fast path.
        let data = encoded.data(encoded.object_id("steps").unwrap()).unwrap();
        let col = &data.matrix().columns().unwrap()[0];
        assert!(col.paged_extent().is_some());
        let stats = col
            .segment_range_stats(dbtouch_types::RowRange::new(0, 60_000))
            .unwrap();
        assert_eq!(stats.count, 60_000);
        assert!(
            encoded
                .telemetry()
                .snapshot()
                .scalar("encoding.run_skips")
                .unwrap()
                > 0,
            "scans over reopened RLE pages must take the run fast path"
        );
    }

    /// Pages in the attached store, and whether its memo names exactly the
    /// live attributes.
    fn pages_and_memo(catalog: &SharedCatalog) -> (u64, bool) {
        let persistence = catalog.persistence().unwrap();
        let live: usize = catalog
            .snapshot()
            .objects()
            .map(|(_, data)| data.attributes().len())
            .sum();
        let memo = persistence.extents.lock().unwrap().len();
        (persistence.pager().len_pages(), memo == live)
    }

    #[test]
    fn attached_catalog_persists_every_publish_and_resumes() {
        let dir = temp_dir("attached");
        {
            let catalog = SharedCatalog::open(&dir, KernelConfig::default()).unwrap();
            assert_eq!(catalog.epoch(), 0);
            let table = dbtouch_storage::table::Table::from_columns(
                "t",
                vec![
                    dbtouch_storage::column::Column::from_i64("id", (0..2_000).collect()),
                    dbtouch_storage::column::Column::from_i64("m", (0..2_000).rev().collect()),
                ],
            )
            .unwrap();
            let tid = catalog.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
            let (loaded, exact) = pages_and_memo(&catalog);
            assert!(exact);
            let cid = catalog
                .drag_column_out(tid, "m", SizeCm::new(2.0, 10.0))
                .unwrap();
            catalog.drag_column_into(tid, cid).unwrap();
            assert_eq!(catalog.epoch(), 3);
            // A restructure reassembles attributes already on disk: the
            // drag cycle appended no page.
            assert_eq!(pages_and_memo(&catalog), (loaded, true));
            // No explicit persist_to: every publish persisted itself.
        }
        let reopened = SharedCatalog::open(&dir, KernelConfig::default()).unwrap();
        assert_eq!(reopened.epoch(), 3);
        assert_eq!(reopened.restructure_count(), 2);
        assert_eq!(reopened.names(), vec!["t".to_string()]);
        // The tombstone of the merged-away column survives the restart.
        assert_eq!(reopened.object_count(), 1);
        assert!(reopened.snapshot().slot_count() > 1);
        let tid = reopened.object_id("t").unwrap();
        let data = reopened.data(tid).unwrap();
        let schema: Vec<&str> = data.schema().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(schema, vec!["id", "m"]);
        // The reopened memo knows every attribute's extents: a drag cycle
        // on the reopened catalog appends no page either.
        let (reopened_pages, exact) = pages_and_memo(&reopened);
        assert!(exact);
        let cid = reopened
            .drag_column_out(tid, "id", SizeCm::new(2.0, 10.0))
            .unwrap();
        reopened.drag_column_into(tid, cid).unwrap();
        assert_eq!(pages_and_memo(&reopened), (reopened_pages, true));
        // Ids continue after the tombstones, never reusing them.
        let next = reopened
            .load_column("x", vec![1, 2, 3], SizeCm::new(2.0, 10.0))
            .unwrap();
        assert_eq!(next.0, reopened.snapshot().slot_count() as u64 - 1);
        assert_eq!(reopened.epoch(), 6);
        assert!(pages_and_memo(&reopened).1);
    }

    #[test]
    fn reopened_catalogs_mint_fresh_identities() {
        let dir = temp_dir("identities");
        let catalog = SharedCatalog::new(KernelConfig::default());
        let id = catalog
            .load_column("a", (0..100).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        catalog.persist_to(&dir).unwrap();
        let first = SharedCatalog::open(&dir, KernelConfig::default()).unwrap();
        let second = SharedCatalog::open(&dir, KernelConfig::default()).unwrap();
        // Identities key the shared result cache; two opens of the same
        // directory (or an open beside the original) must never collide.
        let originals = catalog.data(id).unwrap().identity();
        let a = first
            .data(first.object_id("a").unwrap())
            .unwrap()
            .identity();
        let b = second
            .data(second.object_id("a").unwrap())
            .unwrap()
            .identity();
        assert_ne!(a, b);
        assert_ne!(a, originals);
        assert_ne!(b, originals);
    }

    /// Dropping a reopened catalog frees its pager, buffer pool and telemetry
    /// hub: the hub scrapes the pager, so neither may keep the other alive.
    #[test]
    fn dropping_a_reopened_catalog_frees_its_pager_and_telemetry() {
        let dir = temp_dir("drop");
        SharedCatalog::open(&dir, KernelConfig::default())
            .unwrap()
            .load_column("c", (0..10_000).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        let catalog = SharedCatalog::open(&dir, KernelConfig::default()).unwrap();
        let pager = Arc::downgrade(catalog.persistence().unwrap().pager());
        let telemetry = Arc::downgrade(catalog.telemetry());
        drop(catalog);
        assert!(pager.upgrade().is_none(), "the pager outlived its catalog");
        assert!(
            telemetry.upgrade().is_none(),
            "the hub outlived its catalog"
        );
    }

    /// The kernel's `drag_column_out` rebuild guarantee, for the reopen path:
    /// a session on a *reopened* catalog that observes a restructure is
    /// rebuilt against the new build and still answers — reopening must not
    /// introduce any path that carries session state across a rebuild.
    #[test]
    fn reopened_catalog_refresh_starts_cold_after_restructure() {
        use crate::session::Session;
        use dbtouch_gesture::synthesizer::GestureSynthesizer;

        let dir = temp_dir("cold-refresh");
        {
            let catalog = SharedCatalog::open(&dir, KernelConfig::default()).unwrap();
            let table = dbtouch_storage::table::Table::from_columns(
                "t",
                vec![
                    dbtouch_storage::column::Column::from_i64("id", (0..50_000).collect()),
                    dbtouch_storage::column::Column::from_f64(
                        "v",
                        (0..50_000).map(|i| i as f64).collect(),
                    ),
                ],
            )
            .unwrap();
            catalog.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        }
        let catalog = SharedCatalog::open(&dir, KernelConfig::default()).unwrap();
        let tid = catalog.object_id("t").unwrap();
        let mut state = catalog.checkout(tid).unwrap();
        state.set_action(TouchAction::Tuple);
        let view = state.view().clone();
        let trace = GestureSynthesizer::new(60.0).exploratory_slide(&view, 2.0);
        let before = Session::new(&mut state, catalog.config())
            .run(&trace)
            .unwrap();
        assert!(before.stats.entries_returned > 0);

        catalog
            .drag_column_out(tid, "v", SizeCm::new(2.0, 10.0))
            .unwrap();
        assert!(state.refresh(&catalog).unwrap());
        assert_eq!(state.restructures_seen(), 1);
        assert_eq!(state.data().schema().len(), 1);
        let view = state.view().clone();
        let trace = GestureSynthesizer::new(60.0).exploratory_slide(&view, 2.0);
        let after = Session::new(&mut state, catalog.config())
            .run(&trace)
            .unwrap();
        assert!(
            after.stats.entries_returned > 0,
            "the rebuilt session must still answer on a reopened catalog"
        );
    }
}
