//! The manifest decoder is total: every truncation, every single-bit flip
//! and any short run of appended bytes of the golden manifest is `Corrupt` —
//! never a panic, never another error, and never a manifest.

#[allow(dead_code)]
#[path = "disk_golden.rs"]
mod golden;

use dbtouch_storage::persist::StoreManifest;
use dbtouch_types::DbTouchError;
use proptest::prelude::*;

/// `bytes` must be refused as `Corrupt`.
fn refused(bytes: &[u8]) -> Result<(), String> {
    match StoreManifest::from_bytes(bytes) {
        Err(DbTouchError::Corrupt(_)) => Ok(()),
        other => Err(format!("{other:?}")),
    }
}

#[test]
fn the_golden_manifest_decodes() {
    StoreManifest::from_bytes(&golden::unhex(golden::GOLDEN_MANIFEST)).unwrap();
}

#[test]
fn every_truncation_is_corrupt() {
    let manifest = golden::unhex(golden::GOLDEN_MANIFEST);
    for cut in 0..manifest.len() {
        assert_eq!(refused(&manifest[..cut]), Ok(()), "cut at {cut}");
    }
}

#[test]
fn every_single_bit_flip_is_corrupt() {
    let mut manifest = golden::unhex(golden::GOLDEN_MANIFEST);
    for byte in 0..manifest.len() {
        for bit in 0..8 {
            manifest[byte] ^= 1 << bit;
            assert_eq!(refused(&manifest), Ok(()), "byte {byte} bit {bit}");
            manifest[byte] ^= 1 << bit;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn appended_bytes_are_corrupt(tail in prop::collection::vec(0u8..=255, 1..9)) {
        let mut manifest = golden::unhex(golden::GOLDEN_MANIFEST);
        manifest.extend_from_slice(&tail);
        prop_assert_eq!(refused(&manifest), Ok(()));
    }
}
