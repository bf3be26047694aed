//! The persistent catalog directory: one page file plus epoch manifests.
//!
//! A persisted catalog is exactly one published epoch of the in-memory
//! catalog. The on-disk protocol keeps the directory recoverable to its last
//! published epoch no matter where a crash lands:
//!
//! ```text
//! <catalog dir>/
//!   pages.dat              append-only page file (never overwritten)
//!   manifest-<epoch>.bin   one binary manifest per persisted epoch, checksummed
//! ```
//!
//! **Append, then atomic rename.** A persist first appends the new epoch's
//! pages to `pages.dat` and syncs them, then writes
//! `manifest-<epoch>.bin.tmp` and atomically renames it into place. The
//! manifest is the commit point: until the rename, no manifest references the
//! new pages, so a crash mid-persist leaves tail garbage that every reader
//! ignores. Older manifests are kept (pruned to [`MANIFEST_KEEP`]), so even a
//! corrupted *newest* manifest or its pages degrade recovery by one epoch,
//! never to an empty catalog.
//!
//! **One layout language.** A manifest is the magic `DBTM`, the
//! [`MANIFEST_FORMAT`] as a `u64`, the [`StoreManifest`] in its
//! [`Wire`](dbtouch_types::wire::Wire) layout — the same layout language as
//! the network protocol — and a [`checksum64`] of everything before it.
//!
//! **Open-time validation.** [`CatalogStore::open`] walks manifests newest
//! first and picks the first one that (a) declares this build's
//! [`MANIFEST_FORMAT`], matches its checksum trailer and decodes, (b)
//! references only pages inside the committed bound, and (c) passes a
//! page-*header* scan of every referenced extent (magic + page id,
//! `PAGE_HEADER_BYTES` per page — cheap even for large catalogs). Payload
//! checksums are verified lazily when a page faults into the buffer pool,
//! keeping open-to-first-touch latency independent of payload size while
//! still turning bit rot into errors rather than wrong answers.
//!
//! **One format, no migration.** A manifest that declares another
//! [`MANIFEST_FORMAT`] is not rot: the whole store was written by another
//! build. `open` refuses it at once with an error naming both formats,
//! instead of recovering an older epoch or creating an empty store. Formats
//! 1 and 2 wrote JSON manifests (`manifest-<epoch>.json`); such a file is
//! read only as far as its format number, and refused the same way.
//!
//! The manifest's object records carry everything `dbtouch-core` needs to
//! rebuild `ObjectData` lazily: name, schema (from the extents), on-screen
//! size, the default touch action (opaque bytes, in a layout core owns),
//! per-attribute sample-hierarchy extents and zone maps. Storage stays
//! ignorant of what an "action" is — layering is preserved.

use crate::index::ZoneMapIndex;
use crate::pager::{io_err, ColumnExtent, Pager};
use dbtouch_types::checksum::checksum64;
use dbtouch_types::wire;
use dbtouch_types::{json, DbTouchError, Result};
use std::collections::HashSet;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Store format version, bumped on any change to the bytes a store writes:
/// the manifest, the page layout (`crate::page`), a span encoding or the
/// checksum. `tests/disk_golden.rs` pins the bytes of this version. Format 3
/// writes binary manifests; formats 1 (FNV-1a checksums) and 2 wrote JSON.
pub const MANIFEST_FORMAT: u64 = 3;

/// The first bytes of every manifest file.
const MANIFEST_MAGIC: [u8; 4] = *b"DBTM";

/// Magic plus format: the bytes read before the checksum is believed.
const MANIFEST_HEADER: usize = MANIFEST_MAGIC.len() + size_of::<u64>();

/// The checksum trailer.
const MANIFEST_TRAILER: usize = size_of::<u64>();

/// Retention window of epoch manifests. One would suffice for clean
/// shutdowns; a small window means a torn or rotted newest epoch costs one
/// epoch of history instead of the whole catalog.
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
    pub action: Vec<u8>,
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

dbtouch_types::wire_struct!(ObjectRecord {
    name: String,
    is_table: bool,
    size_w: f64,
    size_h: f64,
    action: Vec<u8>,
    attribute_names: Vec<String>,
    row_count: u64,
    columns: Vec<ColumnExtent>,
    sample_levels: Vec<Vec<ColumnExtent>>,
    zone_maps: Vec<Option<ZoneMapIndex>>,
});

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

dbtouch_types::wire_struct!(StoreManifest {
    epoch: u64,
    restructures: u64,
    page_size: usize,
    committed_pages: u64,
    slots: Vec<Option<ObjectRecord>>,
});

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

/// The refusal of a store written in another format, `found` naming it.
fn foreign(found: &str) -> Rejected {
    Rejected::Foreign(DbTouchError::Corrupt(format!(
        "{found} cannot be read: this build reads store format {MANIFEST_FORMAT} only, \
         and stores are not migrated"
    )))
}

fn corrupt(msg: impl std::fmt::Display) -> DbTouchError {
    DbTouchError::Corrupt(format!("manifest: {msg}"))
}

impl StoreManifest {
    /// Serialize to the manifest file bytes: the magic `DBTM`,
    /// [`MANIFEST_FORMAT`], the manifest's `Wire` layout, then a
    /// [`checksum64`] of all of that, so any truncation or edit of the file
    /// itself is detected before its contents are believed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let format = MANIFEST_FORMAT.to_le_bytes();
        let mut bytes = [&MANIFEST_MAGIC[..], &format, &wire::encode(self)].concat();
        bytes.extend_from_slice(&checksum64(&bytes).to_le_bytes());
        bytes
    }

    /// Parse and checksum-verify a manifest file's bytes. Total: any bytes
    /// either decode or return [`DbTouchError::Corrupt`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<StoreManifest> {
        Self::parse(bytes).map_err(|(Rejected::Foreign(e) | Rejected::Invalid(e))| e)
    }

    /// The format is read first: another format's checksum and layout are
    /// not this build's to check.
    fn parse(bytes: &[u8]) -> std::result::Result<StoreManifest, Rejected> {
        if bytes.len() < MANIFEST_HEADER + MANIFEST_TRAILER {
            return Err(corrupt(format!("{} bytes is too short", bytes.len())).into());
        }
        let (header, rest) = bytes.split_at(MANIFEST_HEADER);
        let (magic, format) = header.split_at(MANIFEST_MAGIC.len());
        if magic != MANIFEST_MAGIC {
            return Err(corrupt("bad magic").into());
        }
        let format = u64::from_le_bytes(format.try_into().expect("8 format bytes"));
        if format != MANIFEST_FORMAT {
            return Err(foreign(&format!("store format {format}")));
        }
        let (body, trailer) = rest.split_at(rest.len() - MANIFEST_TRAILER);
        let signed = &bytes[..bytes.len() - MANIFEST_TRAILER];
        if trailer != checksum64(signed).to_le_bytes() {
            return Err(corrupt("checksum mismatch").into());
        }
        let manifest: StoreManifest = wire::decode(body).map_err(corrupt)?;
        for record in manifest.slots.iter().flatten() {
            let attrs = record.attribute_names.len();
            if record.columns.len() != attrs
                || record.sample_levels.len() != attrs
                || record.zone_maps.len() != attrs
            {
                return Err(corrupt(format!(
                    "object {} has inconsistent attribute arity",
                    record.name
                ))
                .into());
            }
        }
        Ok(manifest)
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
    dir.join(format!("manifest-{epoch:016}.bin"))
}

/// The store format a JSON manifest of format 1 or 2 declares, read only as
/// far as naming it.
fn legacy_format(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap_or_default();
    match json::parse(&text)
        .ok()
        .and_then(|doc| doc.get("body")?.get("format")?.as_u64())
    {
        Some(format) => format!("store format {format}"),
        None => "a JSON manifest of unknown store format".into(),
    }
}

/// All manifest files in `dir` as `(epoch, path)`, newest first — JSON
/// manifests of formats 1 and 2 included, so `open` can refuse them.
fn manifest_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut files = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        // A directory that does not exist yet holds no manifests; `open`
        // then creates it as a fresh, empty store.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(files),
        Err(e) => return Err(io_err("read catalog dir", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read catalog dir", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(epoch) = name
            .strip_prefix("manifest-")
            .and_then(|rest| rest.strip_suffix(".bin").or(rest.strip_suffix(".json")))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            files.push((epoch, entry.path()));
        }
    }
    files.sort_unstable_by(|a, b| b.cmp(a));
    Ok(files)
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
}

impl CatalogStore {
    /// Create the directory (if needed) and its page file. Does not write a
    /// manifest: a store without manifests opens as an empty catalog.
    pub fn create(
        dir: impl AsRef<Path>,
        page_size: usize,
        pool_pages: usize,
    ) -> Result<CatalogStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create catalog dir", e))?;
        let pager = Arc::new(Pager::open_or_create(
            dir.join(PAGES_FILE),
            page_size,
            pool_pages,
        )?);
        Ok(CatalogStore { dir, pager })
    }

    /// True when `dir` contains at least one manifest (i.e. a persisted
    /// catalog, possibly unrecoverable — `open` decides that).
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        manifest_files(dir.as_ref())
            .map(|e| !e.is_empty())
            .unwrap_or(false)
    }

    /// Open `dir` and recover the newest valid manifest: newest-first, skip
    /// any manifest that fails its checksum, decoding, the committed page
    /// bound, or the page-header scan of its referenced extents. With no
    /// manifest at all the store is created empty with
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
        let dir = dir.as_ref().to_path_buf();
        let files = manifest_files(&dir)?;
        if files.is_empty() {
            let store = CatalogStore::create(&dir, create_page_size, pool_pages)?;
            return Ok((store, None));
        }
        let mut last_error: Option<DbTouchError> = None;
        for (epoch, path) in &files {
            match Self::try_open_epoch(&dir, *epoch, path, pool_pages) {
                Ok(opened) => return Ok(opened),
                Err(Rejected::Foreign(e)) => return Err(e),
                Err(Rejected::Invalid(e)) => last_error = Some(e),
            }
        }
        Err(DbTouchError::Corrupt(format!(
            "no recoverable manifest among {} candidates in {}: last error: {}",
            files.len(),
            dir.display(),
            last_error.expect("at least one candidate")
        )))
    }

    fn try_open_epoch(
        dir: &Path,
        epoch: u64,
        path: &Path,
        pool_pages: usize,
    ) -> std::result::Result<(CatalogStore, Option<StoreManifest>), Rejected> {
        if path.extension().is_some_and(|ext| ext == "json") {
            return Err(foreign(&legacy_format(path)));
        }
        let bytes = fs::read(path).map_err(|e| io_err("read manifest", e))?;
        let manifest = StoreManifest::parse(&bytes)?;
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
        let store = CatalogStore {
            dir: dir.to_path_buf(),
            pager,
        };
        Ok((store, Some(manifest)))
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
    /// must already be appended), write `manifest-<epoch>.bin.tmp`, sync it,
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
        let tmp = path.with_extension("bin.tmp");
        {
            let mut file = fs::File::create(&tmp).map_err(|e| io_err("create manifest", e))?;
            file.write_all(&manifest.to_bytes())
                .map_err(|e| io_err("write manifest", e))?;
            file.sync_all().map_err(|e| io_err("sync manifest", e))?;
        }
        fs::rename(&tmp, &path).map_err(|e| io_err("rename manifest", e))?;
        sync_dir(&self.dir)?;
        self.prune_manifests();
        Ok(())
    }

    /// Best-effort retention: drop manifest files beyond the newest
    /// [`MANIFEST_KEEP`].
    fn prune_manifests(&self) {
        if let Ok(files) = manifest_files(&self.dir) {
            for (_, path) in files.into_iter().skip(MANIFEST_KEEP) {
                let _ = fs::remove_file(path);
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
                action: vec![0],
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
        let mut bytes = manifest.to_bytes();
        assert_eq!(StoreManifest::from_bytes(&bytes).unwrap(), manifest);
        // Any edit breaks the checksum trailer.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        assert!(matches!(
            StoreManifest::from_bytes(&bytes),
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
        let files = manifest_files(&dir).unwrap();
        assert_eq!(files.len(), MANIFEST_KEEP);
        assert_eq!(files[0].0, MANIFEST_KEEP as u64 + 4);
    }
}
