//! The disk format, pinned to [`MANIFEST_FORMAT`]: a fixed catalog persisted
//! with 256-byte pages, and the exact bytes of every page and of the
//! manifest it commits.
//!
//! The catalog is one table of three `Int64` attributes, 64 rows each: one
//! persisted raw (three pages, with a zone map), one packed as a run-length
//! span and one packed as a dictionary span; a tombstoned slot follows it.
//! Any change to the page header, a span layout, the page checksum or the
//! manifest layout changes a line below, and that change must come with a
//! `MANIFEST_FORMAT` bump: rerun this test, paste the table it prints, and
//! set [`GOLDEN_STORAGE_FORMAT`] to the new format.

use dbtouch_storage::column::Column;
use dbtouch_storage::page::{verify_page, PageHeader, PAGE_HEADER_BYTES};
use dbtouch_storage::persist::{CatalogStore, ObjectRecord, StoreManifest, MANIFEST_FORMAT};
use dbtouch_storage::{EncodingPolicy, ZoneMapIndex};
use std::path::PathBuf;

/// The manifest format the bytes below were generated under.
pub const GOLDEN_STORAGE_FORMAT: u64 = 3;

/// Page size of the golden store: small, so the hex stays short.
const PAGE_SIZE: usize = 256;

const ROWS: i64 = 64;

/// Persist the golden catalog into a fresh directory and commit it as
/// epoch 1. Returns `(page file bytes, manifest file bytes, manifest)`.
fn persist_golden_catalog() -> (Vec<u8>, Vec<u8>, StoreManifest) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "dbtouch-disk-golden-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CatalogStore::create(&dir, PAGE_SIZE, 8).unwrap();
    let pager = store.pager();

    let raw = Column::from_i64("raw", (0..ROWS).map(|i| i * 1_000_003 - 7).collect());
    let runs = Column::from_i64("runs", (0..ROWS).map(|i| i / 16 - 2).collect());
    let codes = Column::from_i64("codes", (0..ROWS).map(|i| (i * 7) % 5 * 100).collect());

    let raw_extent = raw.persist_to(pager).unwrap();
    let runs_extent = runs
        .persist_to_encoded(pager, &EncodingPolicy::default())
        .unwrap();
    let codes_extent = codes
        .persist_to_encoded(pager, &EncodingPolicy::default())
        .unwrap();
    assert!(raw_extent.page_count >= 2, "the raw column spans pages");
    assert!(runs_extent.is_packed() && codes_extent.is_packed());
    let stats = pager.encoding_stats();
    assert_eq!((stats.rle_pages(), stats.dict_pages()), (1, 1));

    let manifest = StoreManifest {
        epoch: 1,
        restructures: 0,
        page_size: PAGE_SIZE,
        committed_pages: pager.len_pages(),
        slots: vec![
            Some(ObjectRecord {
                name: "golden".into(),
                is_table: true,
                size_w: 6.0,
                size_h: 10.5,
                // Opaque to storage: core's layout of `TouchAction::Scan`.
                action: vec![0],
                attribute_names: vec!["raw".into(), "runs".into(), "codes".into()],
                row_count: ROWS as u64,
                columns: vec![raw_extent, runs_extent, codes_extent],
                sample_levels: vec![vec![], vec![], vec![]],
                zone_maps: vec![Some(ZoneMapIndex::build(&raw, 16).unwrap()), None, None],
            }),
            None,
        ],
    };
    store.commit(&manifest).unwrap();
    let pages = std::fs::read(dir.join("pages.dat")).unwrap();
    let bytes = std::fs::read(dir.join("manifest-0000000000000001.bin")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (pages, bytes, manifest)
}

/// Every page image of the golden store, in page-id order, as lowercase hex.
pub const GOLDEN_PAGES: &[&str] = &[
    "444254500000000000000000e800000090536bdbcdb3d416f9ffffffffffffff\
     3c420f00000000007f841e0000000000c2c62d000000000005093d0000000000\
     484b4c00000000008b8d5b0000000000cecf6a000000000011127a0000000000\
     54548900000000009796980000000000dad8a700000000001d1bb70000000000\
     605dc60000000000a39fd50000000000e6e1e400000000002924f40000000000\
     6c66030100000000afa8120100000000f2ea210100000000352d310100000000\
     786f400100000000bbb14f0100000000fef35e010000000041366e0100000000\
     84787d0100000000c7ba8c01000000000afd9b01000000004d3fab0100000000",
    "444254500100000000000000e80000005b4bece721e2d9ba9081ba0100000000\
     d3c3c901000000001606d901000000005948e801000000009c8af70100000000\
     dfcc060200000000220f1602000000006551250200000000a893340200000000\
     ebd54302000000002e18530200000000715a620200000000b49c710200000000\
     f7de8002000000003a219002000000007d639f0200000000c0a5ae0200000000\
     03e8bd0200000000462acd0200000000896cdc0200000000ccaeeb0200000000\
     0ff1fa020000000052330a03000000009575190300000000d8b7280300000000\
     1bfa3703000000005e3c470300000000a17e560300000000e4c0650300000000",
    "4442545002000000000000003000000046378db3299385922703750300000000\
     6a45840300000000ad87930300000000f0c9a20300000000330cb20300000000\
     764ec10300000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000",
    "44425450030000000000000035000000eab29dff80195f820104000000100000\
     00feffffffffffffff10000000ffffffffffffffff1000000000000000000000\
     0010000000010000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000",
    "4442545004000000000000006f000000b491c06daa475e2d0240000000050000\
     00000000000000c800000000000000900100000000000064000000000000002c\
     0100000000000000010203040001020304000102030400010203040001020304\
     0001020304000102030400010203040001020304000102030400010203040001\
     0203040001020300000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000",
];

/// The golden store's manifest file, as lowercase hex.
pub const GOLDEN_MANIFEST: &str =
    "4442544d03000000000000000100000000000000000000000000000000010000\
     000000000500000000000000020000000106000000676f6c64656e0100000000\
     0000184000000000000025400100000000030000000300000072617704000000\
     72756e7305000000636f64657340000000000000000300000000000000000000\
     0003000000000000004000000000000000000000020000000000000300000000\
     0000000100000000000000400000000000000000014007000000000000350000\
     0000000000040000000000000001000000000000004000000000000000000140\
     070000000000006f000000000000000300000000000000000000000000000003\
     0000000110000000000000004000000000000000040000000000000000001cc0\
     000000c03c9c6c410000002085846e410000006061907d410000009085847e41\
     00000030526986410000004864e38641000000b0730a8e410104000000f80e27\
     07000000000000000000000000f8516916000000000000000000000000f894ab\
     25000000000000000000000000f8d7ed34000000000000000000000000000000\
     717b85eb850bd1b0";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The bytes of a golden hex string.
pub fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// Lowercase hex in lines of 32 bytes, as a Rust string literal body.
fn hex_lines(bytes: &[u8]) -> String {
    let hex = hex(bytes);
    let lines: Vec<&str> = (0..hex.len())
        .step_by(64)
        .map(|i| &hex[i..(i + 64).min(hex.len())])
        .collect();
    lines.join("\\\n     ")
}

/// The golden store persisted now, rendered as the source of
/// [`GOLDEN_PAGES`] and [`GOLDEN_MANIFEST`].
fn regenerated(pages: &[u8], manifest: &[u8]) -> String {
    let mut out = String::from("pub const GOLDEN_PAGES: &[&str] = &[\n");
    for page in pages.chunks(PAGE_SIZE) {
        out += &format!("    \"{}\",\n", hex_lines(page));
    }
    out + "];\n\npub const GOLDEN_MANIFEST: &str = \"" + &hex_lines(manifest) + "\";\n"
}

fn assert_golden(same: bool, what: &str, pages: &[u8], manifest: &[u8]) {
    assert!(
        same,
        "the disk format changed ({what}); if that is intended, bump MANIFEST_FORMAT \
         and replace the golden tables with:\n{}",
        regenerated(pages, manifest)
    );
}

#[test]
fn golden_corpus_is_for_this_storage_format() {
    assert_eq!(GOLDEN_STORAGE_FORMAT, MANIFEST_FORMAT);
}

#[test]
fn every_page_image_matches_its_golden_bytes() {
    let (pages, manifest, _) = persist_golden_catalog();
    let images: Vec<String> = pages.chunks(PAGE_SIZE).map(hex).collect();
    assert_golden(images == GOLDEN_PAGES, "page images", &pages, &manifest);
}

#[test]
fn manifest_text_matches_its_golden_text() {
    let (pages, manifest, _) = persist_golden_catalog();
    let same = hex(&manifest) == GOLDEN_MANIFEST;
    assert_golden(same, "manifest bytes", &pages, &manifest);
}

#[test]
fn every_golden_page_verifies_to_its_payload() {
    for (id, golden) in GOLDEN_PAGES.iter().enumerate() {
        let image = unhex(golden);
        let header = PageHeader::decode(&image, PAGE_SIZE).unwrap();
        let payload = &image[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + header.payload_len as usize];
        assert_eq!(
            verify_page(&image, id as u64, PAGE_SIZE).unwrap(),
            payload,
            "page {id}"
        );
    }
}

#[test]
fn golden_manifest_parses_to_the_persisted_catalog() {
    let (_, _, manifest) = persist_golden_catalog();
    let golden = unhex(GOLDEN_MANIFEST);
    assert_eq!(StoreManifest::from_bytes(&golden).unwrap(), manifest);
}
