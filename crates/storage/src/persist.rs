//! The persistent catalog directory: one page file plus epoch manifests.
//!
//! A persisted catalog is exactly one published epoch of the in-memory
//! catalog. The on-disk protocol keeps the directory recoverable to its last
//! published epoch no matter where a crash lands:
//!
//! ```text
//! <catalog dir>/
//!   pages.dat               append-only page file (never overwritten)
//!   manifest-<epoch>.json   one manifest per persisted epoch, checksummed
//! ```
//!
//! **Append, then atomic rename.** A persist first appends the new epoch's
//! pages to `pages.dat` and syncs them, then writes
//! `manifest-<epoch>.json.tmp` and atomically renames it into place. The
//! manifest is the commit point: until the rename, no manifest references the
//! new pages, so a crash mid-persist leaves tail garbage that every reader
//! ignores. Older manifests are kept (pruned to a small window), so even a
//! corrupted *newest* manifest or its pages degrade recovery by one epoch,
//! never to an empty catalog.
//!
//! **Open-time validation.** [`CatalogStore::open`] walks manifests newest
//! first and picks the first one that (a) parses, declares this build's
//! [`MANIFEST_FORMAT`] and matches its embedded
//! whole-file checksum, (b) references only pages inside the committed bound,
//! and (c) passes a page-*header* scan of every referenced extent (magic +
//! page id, `PAGE_HEADER_BYTES` per page — cheap even for large catalogs).
//! Payload checksums are verified lazily when a page faults into the buffer
//! pool, keeping open-to-first-touch latency independent of payload size
//! while still turning bit rot into errors rather than wrong answers.
//!
//! **One format, no migration.** A manifest that declares another
//! [`MANIFEST_FORMAT`] is not rot: the whole store was written by another
//! build. `open` refuses it at once with an error naming both formats,
//! instead of recovering an older epoch or creating an empty store.
//!
//! The manifest's object records carry everything `dbtouch-core` needs to
//! rebuild `ObjectData` lazily: name, schema (from the extents), on-screen
//! size, the default touch action (an opaque JSON value owned by core),
//! per-attribute sample-hierarchy extents and zone maps. Storage stays
//! ignorant of what an "action" is — layering is preserved.

use crate::index::ZoneMapIndex;
use crate::page::PAGE_HEADER_BYTES;
use crate::pager::{io_err, ColumnExtent, Pager};
use dbtouch_types::checksum::checksum64;
use dbtouch_types::json::{self, Json};
use dbtouch_types::{DataType, DbTouchError, Result};
use std::collections::BTreeMap;
use std::collections::HashSet;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Store format version, bumped on any change to the bytes a store writes:
/// the manifest, the page layout (`crate::page`), a span encoding or the
/// checksum. `tests/disk_golden.rs` pins the bytes of this version. Format 2
/// checksums pages and manifests with [`checksum64`]; format 1 used FNV-1a.
pub const MANIFEST_FORMAT: u64 = 2;

/// Default retention window of epoch manifests (the `KernelConfig::manifest_keep`
/// knob overrides it per store). One would suffice for clean shutdowns; a
/// small window means a torn or rotted newest epoch costs one epoch of
/// history instead of the whole catalog.
pub const MANIFEST_KEEP: usize = 8;

/// File name of the page file inside a catalog directory.
pub const PAGES_FILE: &str = "pages.dat";

/// One persisted object slot (`None` in `StoreManifest::slots` is a
/// tombstone of a removed object — ids stay stable across restarts).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectRecord {
    /// Catalog name of the object.
    pub name: String,
    /// `true` when the object was loaded as a table ("fat rectangle"),
    /// `false` for a standalone column; decides how core rebuilds the view.
    pub is_table: bool,
    /// On-screen size in centimetres the object was rendered at.
    pub size_w: f64,
    /// See `size_w`.
    pub size_h: f64,
    /// The default touch action, encoded by `dbtouch-core` (opaque here).
    pub action: Json,
    /// Attribute names, in schema order (types live in `columns[i].dt`).
    pub attribute_names: Vec<String>,
    /// Number of rows.
    pub row_count: u64,
    /// One extent per attribute, in schema order.
    pub columns: Vec<ColumnExtent>,
    /// Per attribute: the extents of sample levels `1..` (level 0 is the
    /// attribute's own column extent and is not duplicated on disk).
    pub sample_levels: Vec<Vec<ColumnExtent>>,
    /// Per attribute: the zone-map index, for numeric attributes.
    pub zone_maps: Vec<Option<ZoneMapIndex>>,
}

/// One persisted catalog epoch: the commit point of a persist.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreManifest {
    /// The catalog epoch this manifest captures.
    pub epoch: u64,
    /// The catalog's restructure counter at that epoch.
    pub restructures: u64,
    /// Page size of `pages.dat`.
    pub page_size: usize,
    /// Pages of `pages.dat` this manifest may reference (the committed
    /// bound; bytes beyond `committed_pages * page_size` are tail garbage).
    pub committed_pages: u64,
    /// The object table, indexed by object id; `None` marks a tombstone.
    pub slots: Vec<Option<ObjectRecord>>,
}

fn num(v: u64) -> Json {
    Json::Number(v as f64)
}

fn float(v: f64) -> Json {
    if v.is_finite() {
        Json::Number(v)
    } else {
        // JSON has no NaN/inf; zone maps of defensively-empty blocks use
        // NaN. Encode as null and decode back to NaN.
        Json::Null
    }
}

fn get_u64(obj: &Json, key: &str) -> Result<u64> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| DbTouchError::Corrupt(format!("manifest: missing or non-integer {key:?}")))
}

fn get_f64(obj: &Json, key: &str) -> Result<f64> {
    match obj.get(key) {
        Some(Json::Null) => Ok(f64::NAN),
        Some(Json::Number(n)) => Ok(*n),
        _ => Err(DbTouchError::Corrupt(format!(
            "manifest: missing or non-number {key:?}"
        ))),
    }
}

fn get_str<'j>(obj: &'j Json, key: &str) -> Result<&'j str> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| DbTouchError::Corrupt(format!("manifest: missing or non-string {key:?}")))
}

fn get_array<'j>(obj: &'j Json, key: &str) -> Result<&'j [Json]> {
    obj.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| DbTouchError::Corrupt(format!("manifest: missing or non-array {key:?}")))
}

fn extent_to_json(e: &ColumnExtent) -> Json {
    let mut m = BTreeMap::new();
    m.insert("start_page".into(), num(e.start_page));
    m.insert("page_count".into(), num(e.page_count));
    m.insert("rows".into(), num(e.rows));
    m.insert("dt".into(), Json::String(e.dt.name()));
    // Compression keys are optional so manifests written before (or with
    // encoding disabled) keep parsing: absent means the raw layout.
    if let Some(rpp) = e.packed_rows_per_page {
        m.insert("packed_rows_per_page".into(), num(rpp));
    }
    m.insert("payload_bytes".into(), num(e.payload_bytes));
    Json::Object(m)
}

fn extent_from_json(j: &Json) -> Result<ColumnExtent> {
    let rows = get_u64(j, "rows")?;
    let dt = DataType::parse_name(get_str(j, "dt")?)
        .map_err(|e| DbTouchError::Corrupt(e.to_string()))?;
    let packed_rows_per_page = match j.get("packed_rows_per_page") {
        None | Some(Json::Null) => None,
        Some(_) => Some(get_u64(j, "packed_rows_per_page")?),
    };
    let payload_bytes = match j.get("payload_bytes") {
        // Pre-compression manifests carry no payload size; raw extents store
        // exactly rows × width.
        None => rows * dt.width_bytes() as u64,
        Some(_) => get_u64(j, "payload_bytes")?,
    };
    Ok(ColumnExtent {
        start_page: get_u64(j, "start_page")?,
        page_count: get_u64(j, "page_count")?,
        rows,
        dt,
        packed_rows_per_page,
        payload_bytes,
    })
}

fn zone_map_to_json(z: &ZoneMapIndex) -> Json {
    let mut m = BTreeMap::new();
    m.insert("block_rows".into(), num(z.block_rows()));
    m.insert("column_len".into(), num(z.column_len()));
    m.insert(
        "zones".into(),
        Json::Array(
            z.zones()
                .iter()
                .map(|&(lo, hi)| Json::Array(vec![float(lo), float(hi)]))
                .collect(),
        ),
    );
    if let Some(sums) = z.block_sums() {
        // i128 sums exceed what f64-backed JSON numbers carry exactly, so
        // they travel as decimal strings.
        m.insert(
            "sums".into(),
            Json::Array(sums.iter().map(|s| Json::String(s.to_string())).collect()),
        );
    }
    Json::Object(m)
}

fn zone_map_from_json(j: &Json) -> Result<ZoneMapIndex> {
    let zones = get_array(j, "zones")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .ok_or_else(|| DbTouchError::Corrupt("manifest: zone is not a pair".into()))?;
            let decode = |v: Option<&Json>| match v {
                Some(Json::Null) => Ok(f64::NAN),
                Some(Json::Number(n)) => Ok(*n),
                _ => Err(DbTouchError::Corrupt("manifest: zone bound".into())),
            };
            Ok((decode(pair.first())?, decode(pair.get(1))?))
        })
        .collect::<Result<Vec<_>>>()?;
    let index =
        ZoneMapIndex::from_parts(get_u64(j, "block_rows")?, get_u64(j, "column_len")?, zones)?;
    // Block sums are optional: manifests written before they existed (and
    // float columns) simply omit them.
    match j.get("sums") {
        None | Some(Json::Null) => Ok(index),
        Some(_) => {
            let sums = get_array(j, "sums")?
                .iter()
                .map(|s| {
                    s.as_str()
                        .and_then(|s| s.parse::<i128>().ok())
                        .ok_or_else(|| DbTouchError::Corrupt("manifest: zone block sum".into()))
                })
                .collect::<Result<Vec<_>>>()?;
            index.with_block_sums(sums)
        }
    }
}

fn object_to_json(o: &ObjectRecord) -> Json {
    let mut m = BTreeMap::new();
    m.insert("name".into(), Json::String(o.name.clone()));
    m.insert("is_table".into(), Json::Bool(o.is_table));
    m.insert("size_w".into(), float(o.size_w));
    m.insert("size_h".into(), float(o.size_h));
    m.insert("action".into(), o.action.clone());
    m.insert(
        "attribute_names".into(),
        Json::Array(
            o.attribute_names
                .iter()
                .map(|n| Json::String(n.clone()))
                .collect(),
        ),
    );
    m.insert("row_count".into(), num(o.row_count));
    m.insert(
        "columns".into(),
        Json::Array(o.columns.iter().map(extent_to_json).collect()),
    );
    m.insert(
        "sample_levels".into(),
        Json::Array(
            o.sample_levels
                .iter()
                .map(|levels| Json::Array(levels.iter().map(extent_to_json).collect()))
                .collect(),
        ),
    );
    m.insert(
        "zone_maps".into(),
        Json::Array(
            o.zone_maps
                .iter()
                .map(|z| z.as_ref().map_or(Json::Null, zone_map_to_json))
                .collect(),
        ),
    );
    Json::Object(m)
}

fn object_from_json(j: &Json) -> Result<ObjectRecord> {
    let attribute_names = get_array(j, "attribute_names")?
        .iter()
        .map(|n| {
            n.as_str()
                .map(str::to_string)
                .ok_or_else(|| DbTouchError::Corrupt("manifest: attribute name".into()))
        })
        .collect::<Result<Vec<_>>>()?;
    let columns = get_array(j, "columns")?
        .iter()
        .map(extent_from_json)
        .collect::<Result<Vec<_>>>()?;
    let sample_levels = get_array(j, "sample_levels")?
        .iter()
        .map(|levels| {
            levels
                .as_array()
                .ok_or_else(|| DbTouchError::Corrupt("manifest: sample levels".into()))?
                .iter()
                .map(extent_from_json)
                .collect::<Result<Vec<_>>>()
        })
        .collect::<Result<Vec<_>>>()?;
    let zone_maps = get_array(j, "zone_maps")?
        .iter()
        .map(|z| match z {
            Json::Null => Ok(None),
            other => zone_map_from_json(other).map(Some),
        })
        .collect::<Result<Vec<_>>>()?;
    let record = ObjectRecord {
        name: get_str(j, "name")?.to_string(),
        is_table: matches!(j.get("is_table"), Some(Json::Bool(true))),
        size_w: get_f64(j, "size_w")?,
        size_h: get_f64(j, "size_h")?,
        action: j
            .get("action")
            .cloned()
            .ok_or_else(|| DbTouchError::Corrupt("manifest: missing action".into()))?,
        attribute_names,
        row_count: get_u64(j, "row_count")?,
        columns,
        sample_levels,
        zone_maps,
    };
    let attrs = record.attribute_names.len();
    if record.columns.len() != attrs
        || record.sample_levels.len() != attrs
        || record.zone_maps.len() != attrs
    {
        return Err(DbTouchError::Corrupt(format!(
            "manifest: object {} has inconsistent attribute arity",
            record.name
        )));
    }
    Ok(record)
}

/// Why one epoch's manifest cannot be opened.
enum Rejected {
    /// The store was written in another format: no epoch of it is readable.
    Foreign(DbTouchError),
    /// This epoch is torn, rotted or inconsistent: an older one may be fine.
    Invalid(DbTouchError),
}

impl From<DbTouchError> for Rejected {
    fn from(e: DbTouchError) -> Rejected {
        Rejected::Invalid(e)
    }
}

impl StoreManifest {
    /// Serialize to the manifest file text: the body JSON plus an embedded
    /// [`checksum64`] of the body's canonical rendering, so any truncation
    /// or edit of the file itself is detected before its contents are
    /// believed.
    pub fn to_text(&self) -> String {
        let body = self.body_json();
        let digest = checksum64(body.pretty().as_bytes());
        let mut outer = BTreeMap::new();
        outer.insert("body".to_string(), body);
        outer.insert(
            "checksum".to_string(),
            Json::String(format!("{digest:016x}")),
        );
        Json::Object(outer).pretty()
    }

    fn body_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("format".into(), num(MANIFEST_FORMAT));
        m.insert("epoch".into(), num(self.epoch));
        m.insert("restructures".into(), num(self.restructures));
        m.insert("page_size".into(), num(self.page_size as u64));
        m.insert("committed_pages".into(), num(self.committed_pages));
        m.insert(
            "slots".into(),
            Json::Array(
                self.slots
                    .iter()
                    .map(|slot| slot.as_ref().map_or(Json::Null, object_to_json))
                    .collect(),
            ),
        );
        Json::Object(m)
    }

    /// Parse and checksum-verify a manifest file's text. The format is read
    /// first: another format's checksum is not this build's to check.
    pub fn from_text(text: &str) -> Result<StoreManifest> {
        Self::parse(text).map_err(|(Rejected::Foreign(e) | Rejected::Invalid(e))| e)
    }

    fn parse(text: &str) -> std::result::Result<StoreManifest, Rejected> {
        let outer =
            json::parse(text).map_err(|e| DbTouchError::Corrupt(format!("manifest parse: {e}")))?;
        let body = outer
            .get("body")
            .ok_or_else(|| DbTouchError::Corrupt("manifest: missing body".into()))?;
        let format = get_u64(body, "format")?;
        if format != MANIFEST_FORMAT {
            return Err(Rejected::Foreign(DbTouchError::Corrupt(format!(
                "store format {format} cannot be read: this build reads format \
                 {MANIFEST_FORMAT} only, and stores are not migrated"
            ))));
        }
        let stored = get_str(&outer, "checksum")?;
        let digest = checksum64(body.pretty().as_bytes());
        if stored != format!("{digest:016x}") {
            return Err(DbTouchError::Corrupt("manifest checksum mismatch".into()).into());
        }
        let slots = get_array(body, "slots")?
            .iter()
            .map(|slot| match slot {
                Json::Null => Ok(None),
                other => object_from_json(other).map(Some),
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(StoreManifest {
            epoch: get_u64(body, "epoch")?,
            restructures: get_u64(body, "restructures")?,
            page_size: get_u64(body, "page_size")? as usize,
            committed_pages: get_u64(body, "committed_pages")?,
            slots,
        })
    }

    /// Every extent the manifest references, deduplicated (sample level 0
    /// shares the column's extent; ping-ponged objects may share more).
    pub fn referenced_extents(&self) -> Vec<ColumnExtent> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for record in self.slots.iter().flatten() {
            for extent in record
                .columns
                .iter()
                .chain(record.sample_levels.iter().flatten())
            {
                if extent.page_count > 0 && seen.insert((extent.start_page, extent.page_count)) {
                    out.push(*extent);
                }
            }
        }
        out
    }

    /// Structural validation against the committed page bound.
    fn extents_in_bounds(&self) -> Result<()> {
        for extent in self.referenced_extents() {
            let end = extent
                .start_page
                .checked_add(extent.page_count)
                .ok_or_else(|| DbTouchError::Corrupt("extent overflows".into()))?;
            if end > self.committed_pages {
                return Err(DbTouchError::Corrupt(format!(
                    "extent [{}, {end}) exceeds committed bound {}",
                    extent.start_page, self.committed_pages
                )));
            }
        }
        Ok(())
    }
}

fn manifest_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("manifest-{epoch:016}.json"))
}

/// Epochs of all manifest files present in `dir`, newest first.
fn manifest_epochs(dir: &Path) -> Result<Vec<u64>> {
    let mut epochs = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        // A directory that does not exist yet holds no manifests; `open`
        // then creates it as a fresh, empty store.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(epochs),
        Err(e) => return Err(io_err("read catalog dir", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read catalog dir", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(epoch) = name
            .strip_prefix("manifest-")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            epochs.push(epoch);
        }
    }
    epochs.sort_unstable_by(|a, b| b.cmp(a));
    Ok(epochs)
}

fn sync_dir(dir: &Path) -> Result<()> {
    // Directory fsync makes the rename itself durable; best-effort on
    // filesystems that refuse to open directories.
    if let Ok(handle) = fs::File::open(dir) {
        handle
            .sync_all()
            .map_err(|e| io_err("sync catalog dir", e))?;
    }
    Ok(())
}

/// A catalog directory opened for reading and appending: the pager over
/// `pages.dat` plus the manifest commit/recover protocol.
#[derive(Debug)]
pub struct CatalogStore {
    dir: PathBuf,
    pager: Arc<Pager>,
    /// Epoch manifests retained by [`prune_manifests`](Self::prune_manifests)
    /// (always at least 1 — the newest manifest is never pruned).
    manifest_keep: usize,
}

impl CatalogStore {
    /// Create the directory (if needed) and its page file, retaining
    /// [`MANIFEST_KEEP`] manifests. Does not write a manifest: a store
    /// without manifests opens as an empty catalog.
    pub fn create(
        dir: impl AsRef<Path>,
        page_size: usize,
        pool_pages: usize,
    ) -> Result<CatalogStore> {
        Self::create_with_retention(dir, page_size, pool_pages, MANIFEST_KEEP)
    }

    /// [`create`](Self::create) with an explicit manifest retention window
    /// (clamped to at least 1: the newest manifest must survive).
    pub fn create_with_retention(
        dir: impl AsRef<Path>,
        page_size: usize,
        pool_pages: usize,
        manifest_keep: usize,
    ) -> Result<CatalogStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create catalog dir", e))?;
        let pager = Arc::new(Pager::open_or_create(
            dir.join(PAGES_FILE),
            page_size,
            pool_pages,
        )?);
        Ok(CatalogStore {
            dir,
            pager,
            manifest_keep: manifest_keep.max(1),
        })
    }

    /// The manifest retention window of this store.
    pub fn manifest_keep(&self) -> usize {
        self.manifest_keep
    }

    /// True when `dir` contains at least one manifest (i.e. a persisted
    /// catalog, possibly unrecoverable — `open` decides that).
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        manifest_epochs(dir.as_ref())
            .map(|e| !e.is_empty())
            .unwrap_or(false)
    }

    /// Open `dir` and recover the newest valid manifest: newest-first, skip
    /// any manifest that fails parsing, its embedded checksum, the committed
    /// page bound, or the page-header scan of its referenced extents. With
    /// no manifest at all the store is created empty with
    /// `create_page_size`-byte pages and returns `Ok(None)`; an existing
    /// store always uses the page size recorded in its manifest. With
    /// manifests present but none valid, the directory is unrecoverable and
    /// `open` errors rather than silently serving an empty catalog. A
    /// manifest of another [`MANIFEST_FORMAT`] fails `open` at once, naming
    /// both formats.
    pub fn open(
        dir: impl AsRef<Path>,
        pool_pages: usize,
        create_page_size: usize,
    ) -> Result<(CatalogStore, Option<StoreManifest>)> {
        Self::open_with_retention(dir, pool_pages, create_page_size, MANIFEST_KEEP)
    }

    /// [`open`](Self::open) with an explicit manifest retention window for
    /// subsequent commits (clamped to at least 1).
    pub fn open_with_retention(
        dir: impl AsRef<Path>,
        pool_pages: usize,
        create_page_size: usize,
        manifest_keep: usize,
    ) -> Result<(CatalogStore, Option<StoreManifest>)> {
        let dir = dir.as_ref().to_path_buf();
        let epochs = manifest_epochs(&dir)?;
        if epochs.is_empty() {
            let store = CatalogStore::create_with_retention(
                &dir,
                create_page_size,
                pool_pages,
                manifest_keep,
            )?;
            return Ok((store, None));
        }
        let mut last_error: Option<DbTouchError> = None;
        for epoch in &epochs {
            match Self::try_open_epoch(&dir, *epoch, pool_pages, manifest_keep) {
                Ok(opened) => return Ok(opened),
                Err(Rejected::Foreign(e)) => return Err(e),
                Err(Rejected::Invalid(e)) => last_error = Some(e),
            }
        }
        Err(DbTouchError::Corrupt(format!(
            "no recoverable manifest among {} candidates in {}: last error: {}",
            epochs.len(),
            dir.display(),
            last_error.expect("at least one candidate")
        )))
    }

    fn try_open_epoch(
        dir: &Path,
        epoch: u64,
        pool_pages: usize,
        manifest_keep: usize,
    ) -> std::result::Result<(CatalogStore, Option<StoreManifest>), Rejected> {
        let text = fs::read_to_string(manifest_path(dir, epoch))
            .map_err(|e| io_err("read manifest", e))?;
        let manifest = StoreManifest::parse(&text)?;
        if manifest.epoch != epoch {
            return Err(DbTouchError::Corrupt(format!(
                "manifest file for epoch {epoch} claims epoch {}",
                manifest.epoch
            ))
            .into());
        }
        manifest.extents_in_bounds()?;
        let pager = Arc::new(Pager::open_or_create(
            dir.join(PAGES_FILE),
            manifest.page_size,
            pool_pages,
        )?);
        if pager.len_pages() < manifest.committed_pages {
            return Err(DbTouchError::Corrupt(format!(
                "page file holds {} pages, manifest commits {}",
                pager.len_pages(),
                manifest.committed_pages
            ))
            .into());
        }
        for extent in manifest.referenced_extents() {
            pager.verify_extent_headers(&extent)?;
        }
        Ok((
            CatalogStore {
                dir: dir.to_path_buf(),
                pager,
                manifest_keep: manifest_keep.max(1),
            },
            Some(manifest),
        ))
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The pager (page file + buffer pool) backing this store.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// Commit a manifest: sync the page file (all of the manifest's extents
    /// must already be appended), write `manifest-<epoch>.json.tmp`, sync it,
    /// atomically rename it into place, sync the directory, and prune
    /// manifests beyond the retention window. After `commit` returns, a
    /// crash at any point leaves the directory recoverable to this epoch.
    pub fn commit(&self, manifest: &StoreManifest) -> Result<()> {
        if manifest.page_size != self.pager.page_size() {
            return Err(DbTouchError::Internal(
                "manifest page size differs from the store's".into(),
            ));
        }
        if manifest.committed_pages > self.pager.len_pages() {
            return Err(DbTouchError::Internal(
                "manifest commits pages that were never appended".into(),
            ));
        }
        manifest.extents_in_bounds()?;
        self.pager.sync()?;
        let path = manifest_path(&self.dir, manifest.epoch);
        let tmp = path.with_extension("json.tmp");
        {
            let mut file = fs::File::create(&tmp).map_err(|e| io_err("create manifest", e))?;
            file.write_all(manifest.to_text().as_bytes())
                .map_err(|e| io_err("write manifest", e))?;
            file.sync_all().map_err(|e| io_err("sync manifest", e))?;
        }
        fs::rename(&tmp, &path).map_err(|e| io_err("rename manifest", e))?;
        sync_dir(&self.dir)?;
        self.prune_manifests();
        Ok(())
    }

    /// Best-effort retention: drop manifest files beyond the store's window
    /// ([`MANIFEST_KEEP`] by default, [`KernelConfig::manifest_keep`] when
    /// the store was opened through the catalog).
    ///
    /// [`KernelConfig::manifest_keep`]: dbtouch_types::KernelConfig::manifest_keep
    fn prune_manifests(&self) {
        if let Ok(epochs) = manifest_epochs(&self.dir) {
            for epoch in epochs.into_iter().skip(self.manifest_keep) {
                let _ = fs::remove_file(manifest_path(&self.dir, epoch));
            }
        }
    }

    /// Exhaustively verify every page referenced by `manifest` (full payload
    /// checksums). O(data) — the `fsck` pass; regular opens rely on header
    /// scans plus fault-time verification.
    pub fn verify_all(&self, manifest: &StoreManifest) -> Result<()> {
        for extent in manifest.referenced_extents() {
            self.pager.verify_extent(&extent)?;
        }
        Ok(())
    }
}

/// Byte offset where a page's payload starts, exposed for crash-injection
/// tests that corrupt specific pages.
pub fn page_payload_offset(page_size: usize, page_id: u64) -> u64 {
    page_id * page_size as u64 + PAGE_HEADER_BYTES as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dbtouch-store-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn one_object_manifest(store: &CatalogStore, epoch: u64, values: &[i64]) -> StoreManifest {
        let column = Column::from_i64("c", values.to_vec());
        let extent = column.persist_to(store.pager()).unwrap();
        StoreManifest {
            epoch,
            restructures: 0,
            page_size: store.pager().page_size(),
            committed_pages: store.pager().len_pages(),
            slots: vec![Some(ObjectRecord {
                name: "c".into(),
                is_table: false,
                size_w: 2.0,
                size_h: 10.0,
                action: Json::String("scan".into()),
                attribute_names: vec!["c".into()],
                row_count: values.len() as u64,
                columns: vec![extent],
                sample_levels: vec![vec![]],
                zone_maps: vec![None],
            })],
        }
    }

    #[test]
    fn manifest_text_round_trip() {
        let dir = temp_dir("round-trip");
        let store = CatalogStore::create(&dir, 256, 8).unwrap();
        let manifest = one_object_manifest(&store, 3, &(0..100).collect::<Vec<_>>());
        let text = manifest.to_text();
        assert_eq!(StoreManifest::from_text(&text).unwrap(), manifest);
        // Any edit breaks the embedded checksum.
        let tampered = text.replace("\"rows\": 100", "\"rows\": 101");
        assert!(matches!(
            StoreManifest::from_text(&tampered),
            Err(DbTouchError::Corrupt(_))
        ));
    }

    #[test]
    fn commit_then_open_recovers_the_manifest() {
        let dir = temp_dir("commit-open");
        let store = CatalogStore::create(&dir, 256, 8).unwrap();
        let manifest = one_object_manifest(&store, 1, &(0..500).collect::<Vec<_>>());
        store.commit(&manifest).unwrap();
        drop(store);
        let (_store, recovered) = CatalogStore::open(&dir, 8, 256).unwrap();
        assert_eq!(recovered.unwrap(), manifest);
    }

    #[test]
    fn empty_dir_opens_as_no_manifest() {
        let dir = temp_dir("empty");
        let (_store, recovered) = CatalogStore::open(&dir, 8, 256).unwrap();
        assert!(recovered.is_none());
        // And a nonexistent dir is created.
        let fresh = dir.join("nested");
        let (_store, recovered) = CatalogStore::open(&fresh, 8, 256).unwrap();
        assert!(recovered.is_none());
    }

    #[test]
    fn commit_rejects_uncommitted_or_out_of_bound_extents() {
        let dir = temp_dir("bounds");
        let store = CatalogStore::create(&dir, 256, 8).unwrap();
        let mut manifest = one_object_manifest(&store, 1, &(0..100).collect::<Vec<_>>());
        manifest.committed_pages += 10;
        assert!(store.commit(&manifest).is_err());
        let mut manifest = one_object_manifest(&store, 2, &(0..100).collect::<Vec<_>>());
        manifest.slots[0].as_mut().unwrap().columns[0].start_page = 1_000;
        assert!(store.commit(&manifest).is_err());
    }

    #[test]
    fn manifests_are_pruned_to_the_window() {
        let dir = temp_dir("prune");
        let store = CatalogStore::create(&dir, 256, 8).unwrap();
        for epoch in 1..=(MANIFEST_KEEP as u64 + 4) {
            let manifest = one_object_manifest(&store, epoch, &[1, 2, 3]);
            store.commit(&manifest).unwrap();
        }
        let epochs = manifest_epochs(&dir).unwrap();
        assert_eq!(epochs.len(), MANIFEST_KEEP);
        assert_eq!(epochs[0], MANIFEST_KEEP as u64 + 4);
    }

    #[test]
    fn retention_window_is_configurable_and_survives_reopen() {
        let dir = temp_dir("prune-config");
        let store = CatalogStore::create_with_retention(&dir, 256, 8, 2).unwrap();
        assert_eq!(store.manifest_keep(), 2);
        for epoch in 1..=5 {
            let manifest = one_object_manifest(&store, epoch, &[1, 2, 3]);
            store.commit(&manifest).unwrap();
        }
        let epochs = manifest_epochs(&dir).unwrap();
        assert_eq!(epochs, vec![5, 4], "keep-2 retains the newest two epochs");

        // Reopening with a different window applies it to later commits.
        let (store, manifest) = CatalogStore::open_with_retention(&dir, 8, 256, 3).unwrap();
        assert_eq!(store.manifest_keep(), 3);
        assert_eq!(manifest.unwrap().epoch, 5);
        let manifest = one_object_manifest(&store, 6, &[1, 2, 3]);
        store.commit(&manifest).unwrap();
        assert_eq!(manifest_epochs(&dir).unwrap(), vec![6, 5, 4]);

        // A zero window clamps to 1: the newest manifest is never pruned.
        let clamped =
            CatalogStore::create_with_retention(temp_dir("prune-zero"), 256, 8, 0).unwrap();
        assert_eq!(clamped.manifest_keep(), 1);
    }
}
