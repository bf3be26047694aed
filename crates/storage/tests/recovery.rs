//! Crash-recovery tests of the persistent catalog store: a directory must
//! always open to its last *valid* manifest epoch — truncated appends,
//! corrupted pages and mangled manifests cost at most the broken epoch, and
//! payload corruption discovered after open surfaces as an error, never a
//! panic or a silent wrong answer. A store written in another format is not
//! damage: it is refused by name.

use dbtouch_storage::column::Column;
use dbtouch_storage::page::{PageHeader, PAGE_HEADER_BYTES};
use dbtouch_storage::pager::PagedColumn;
use dbtouch_storage::persist::{
    CatalogStore, ObjectRecord, StoreManifest, MANIFEST_FORMAT, PAGES_FILE,
};
use dbtouch_types::{DbTouchError, RowId, Value};
use std::fs::OpenOptions;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

const PAGE_SIZE: usize = 256;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dbtouch-recovery-{}-{}-{tag}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Persist a generation of the single object `c` holding `values`, as epoch
/// `epoch`. Returns the page-file length in bytes after the commit.
fn commit_epoch(store: &CatalogStore, epoch: u64, values: &[i64]) -> u64 {
    let column = Column::from_i64("c", values.to_vec());
    let extent = column.persist_to(store.pager()).unwrap();
    let manifest = StoreManifest {
        epoch,
        restructures: 0,
        page_size: store.pager().page_size(),
        committed_pages: store.pager().len_pages(),
        slots: vec![Some(ObjectRecord {
            name: "c".into(),
            is_table: false,
            size_w: 2.0,
            size_h: 10.0,
            action: vec![],
            attribute_names: vec!["c".into()],
            row_count: values.len() as u64,
            columns: vec![extent],
            sample_levels: vec![vec![]],
            zone_maps: vec![None],
        })],
    };
    store.commit(&manifest).unwrap();
    store.pager().len_pages() * store.pager().page_size() as u64
}

/// A directory with two committed epochs; returns `(dir, bytes committed by
/// epoch 1)` so tests can surgically break only epoch 2's pages.
fn two_epoch_dir(tag: &str) -> (PathBuf, u64) {
    let dir = temp_dir(tag);
    let store = CatalogStore::create(&dir, PAGE_SIZE, 16).unwrap();
    let epoch1_bytes = commit_epoch(&store, 1, &(0..500).collect::<Vec<_>>());
    commit_epoch(&store, 2, &(1000..1800).collect::<Vec<_>>());
    (dir, epoch1_bytes)
}

fn open_epoch(dir: &PathBuf) -> u64 {
    let (_store, manifest) = CatalogStore::open(dir, 16, PAGE_SIZE).unwrap();
    manifest.expect("a valid manifest must be recovered").epoch
}

#[test]
fn intact_directory_opens_to_newest_epoch() {
    let (dir, _) = two_epoch_dir("intact");
    assert_eq!(open_epoch(&dir), 2);
}

#[test]
fn truncated_page_file_recovers_to_previous_epoch() {
    // A crash mid-append: epoch 2's pages are partially written, epoch 1's
    // are intact. Open must fall back to epoch 1, not panic and not serve
    // epoch 2.
    let (dir, epoch1_bytes) = two_epoch_dir("truncate");
    let pages = dir.join(PAGES_FILE);
    let file = OpenOptions::new().write(true).open(&pages).unwrap();
    file.set_len(epoch1_bytes + (PAGE_SIZE / 2) as u64).unwrap();
    drop(file);
    assert_eq!(open_epoch(&dir), 1);
}

#[test]
fn corrupted_page_mid_file_recovers_to_previous_epoch() {
    // Bit rot (or a torn write) inside one of epoch 2's pages, hitting its
    // header: the open-time header scan rejects epoch 2 and recovers 1.
    let (dir, epoch1_bytes) = two_epoch_dir("corrupt-header");
    let pages = dir.join(PAGES_FILE);
    let mut bytes = std::fs::read(&pages).unwrap();
    let victim = epoch1_bytes as usize + PAGE_SIZE; // second page of epoch 2
    for b in &mut bytes[victim..victim + PAGE_HEADER_BYTES] {
        *b ^= 0xff;
    }
    std::fs::write(&pages, &bytes).unwrap();
    assert_eq!(open_epoch(&dir), 1);
}

#[test]
fn payload_corruption_is_an_error_at_fault_time_not_a_panic() {
    // Corruption that leaves headers intact passes the (cheap) open-time
    // scan; the checksum catches it when the page faults, as a Corrupt
    // error the session layer can surface.
    let (dir, epoch1_bytes) = two_epoch_dir("corrupt-payload");
    let pages = dir.join(PAGES_FILE);
    let mut bytes = std::fs::read(&pages).unwrap();
    let victim = epoch1_bytes as usize + PAGE_SIZE + PAGE_HEADER_BYTES + 8;
    bytes[victim] ^= 0xff;
    std::fs::write(&pages, &bytes).unwrap();

    let (store, manifest) = CatalogStore::open(&dir, 16, PAGE_SIZE).unwrap();
    let manifest = manifest.unwrap();
    assert_eq!(manifest.epoch, 2);
    let extent = manifest.slots[0].as_ref().unwrap().columns[0];
    let column = PagedColumn::new(Arc::clone(store.pager()), extent).unwrap();
    // Rows of the intact pages read fine; the corrupted page errors.
    assert_eq!(column.value_at(RowId(0)).unwrap(), Value::Int(1000));
    let result = (0..column.rows()).try_for_each(|r| column.value_at(RowId(r)).map(|_| ()));
    assert!(
        matches!(result, Err(DbTouchError::Corrupt(_))),
        "{result:?}"
    );
    // The exhaustive fsck pass pinpoints it too.
    assert!(store.verify_all(&manifest).is_err());
}

#[test]
fn mangled_manifest_recovers_to_previous_epoch() {
    let (dir, _) = two_epoch_dir("bad-manifest");
    let manifest2 = dir.join("manifest-0000000000000002.bin");
    // Flip one byte in the middle of the manifest: the checksum trailer
    // rejects it.
    let mut bytes = std::fs::read(&manifest2).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    std::fs::write(&manifest2, &bytes).unwrap();
    assert_eq!(open_epoch(&dir), 1);

    // An outright unparsable manifest is skipped the same way.
    std::fs::write(&manifest2, b"{not a manifest").unwrap();
    assert_eq!(open_epoch(&dir), 1);

    // An empty (crashed-before-write) manifest file too.
    std::fs::write(&manifest2, b"").unwrap();
    assert_eq!(open_epoch(&dir), 1);
}

#[test]
fn unrecoverable_directory_errors_instead_of_serving_empty() {
    let (dir, _) = two_epoch_dir("unrecoverable");
    // Destroy the page file wholesale: both manifests now point at garbage.
    std::fs::write(dir.join(PAGES_FILE), vec![0u8; 64]).unwrap();
    let result = CatalogStore::open(&dir, 16, PAGE_SIZE);
    assert!(
        matches!(result, Err(DbTouchError::Corrupt(_))),
        "open must refuse to silently drop all persisted epochs"
    );
}

#[test]
fn recovered_previous_epoch_reads_its_data_intact() {
    let (dir, epoch1_bytes) = two_epoch_dir("readback");
    let pages = dir.join(PAGES_FILE);
    let file = OpenOptions::new().write(true).open(&pages).unwrap();
    file.set_len(epoch1_bytes).unwrap();
    drop(file);
    let (store, manifest) = CatalogStore::open(&dir, 16, PAGE_SIZE).unwrap();
    let manifest = manifest.unwrap();
    assert_eq!(manifest.epoch, 1);
    let record = manifest.slots[0].as_ref().unwrap();
    let column = PagedColumn::new(Arc::clone(store.pager()), record.columns[0]).unwrap();
    assert_eq!(column.rows(), 500);
    for row in [0u64, 123, 499] {
        assert_eq!(column.value_at(RowId(row)).unwrap(), Value::Int(row as i64));
    }
    // Full checksum verification of the recovered epoch passes.
    store.verify_all(&manifest).unwrap();
}

#[test]
fn appends_after_recovery_commit_a_fresh_epoch() {
    // Recover to epoch 1 after a torn epoch 2, then write an epoch 3 on top:
    // the store must keep working, and the newest manifest wins again.
    let (dir, epoch1_bytes) = two_epoch_dir("append-after");
    let pages = dir.join(PAGES_FILE);
    let file = OpenOptions::new().write(true).open(&pages).unwrap();
    file.set_len(epoch1_bytes + 17).unwrap();
    drop(file);
    {
        let (store, manifest) = CatalogStore::open(&dir, 16, PAGE_SIZE).unwrap();
        assert_eq!(manifest.unwrap().epoch, 1);
        commit_epoch(&store, 3, &(5..55).collect::<Vec<_>>());
    }
    assert_eq!(open_epoch(&dir), 3);
}

/// Open `dir`, which must still recover epoch 2, and read every row of it.
fn read_epoch_2(dir: &PathBuf) -> dbtouch_types::Result<()> {
    let (store, manifest) = CatalogStore::open(dir, 16, PAGE_SIZE).unwrap();
    let manifest = manifest.unwrap();
    assert_eq!(manifest.epoch, 2, "the tear must pass the header scan");
    let extent = manifest.slots[0].as_ref().unwrap().columns[0];
    let column = PagedColumn::new(Arc::clone(store.pager()), extent).unwrap();
    (0..column.rows()).try_for_each(|r| column.value_at(RowId(r)).map(|_| ()))
}

#[test]
fn torn_pages_are_corrupt_at_fault_time_never_a_panic() {
    for tear in ["payload half-written", "header claims unwritten bytes"] {
        let (dir, _) = two_epoch_dir("torn");
        let pages = dir.join(PAGES_FILE);
        let mut bytes = std::fs::read(&pages).unwrap();
        // Epoch 2's last page holds 800 % 29 = 17 rows: 136 payload bytes.
        let last = bytes.len() - PAGE_SIZE;
        let len = PageHeader::decode(&bytes[last..], PAGE_SIZE)
            .unwrap()
            .payload_len as usize;
        assert_eq!(len, 136);
        let payload = last + PAGE_HEADER_BYTES;
        if tear == "payload half-written" {
            bytes[payload + len / 2..payload + len].fill(0);
        } else {
            bytes[last + 12..last + 16].copy_from_slice(&(len as u32 + 8).to_le_bytes());
        }
        std::fs::write(&pages, &bytes).unwrap();
        let result = read_epoch_2(&dir);
        assert!(
            matches!(result, Err(DbTouchError::Corrupt(_))),
            "{tear}: {result:?}"
        );
    }
}

/// JSON manifests of store formats 1 (FNV-1a checksums) and 2, verbatim
/// from those formats' golden disk corpora.
const LEGACY_MANIFESTS: [(u64, &str); 2] = [
    (1, include_str!("fixtures/manifest-format-1.json")),
    (2, include_str!("fixtures/manifest-format-2.json")),
];

#[test]
fn a_store_of_another_format_is_refused_by_name() {
    let refusal = |dir: &PathBuf, format: u64| {
        let err = CatalogStore::open(dir, 16, PAGE_SIZE).unwrap_err();
        let message = err.to_string();
        assert!(matches!(err, DbTouchError::Corrupt(_)), "{message}");
        assert!(
            message.contains(&format!("format {format}"))
                && message.contains(&format!("format {MANIFEST_FORMAT}")),
            "the refusal names both formats: {message}"
        );
    };
    for (format, text) in LEGACY_MANIFESTS {
        // Alone in its directory: refused, and no empty store is created.
        let dir = temp_dir(&format!("format-{format}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest-0000000000000001.json"), text).unwrap();
        refusal(&dir, format);
        assert!(!dir.join(PAGES_FILE).exists());

        // Newest in a directory whose older epochs are valid: refused at
        // once, not walked past to an older epoch.
        let (dir, _) = two_epoch_dir(&format!("format-{format}-newest"));
        std::fs::write(dir.join("manifest-0000000000000003.json"), text).unwrap();
        refusal(&dir, format);
    }

    // A binary manifest that declares another format is refused before its
    // checksum is checked.
    let (dir, _) = two_epoch_dir("format-next");
    let newest = dir.join("manifest-0000000000000002.bin");
    let mut bytes = std::fs::read(&newest).unwrap();
    bytes[4..12].copy_from_slice(&(MANIFEST_FORMAT + 1).to_le_bytes());
    std::fs::write(&newest, &bytes).unwrap();
    refusal(&dir, MANIFEST_FORMAT + 1);
    let err = StoreManifest::from_bytes(&bytes).unwrap_err();
    assert!(
        err.to_string()
            .contains(&format!("format {}", MANIFEST_FORMAT + 1)),
        "{err}"
    );
}
