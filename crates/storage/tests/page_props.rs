//! The properties `net`'s frame checksum keeps (`frame_props.rs`), held where
//! pages use the same hash: a single flipped bit anywhere in a page's header
//! or payload makes the page `Corrupt`, and payloads that differ only in
//! trailing zero bytes get different checksums.

use dbtouch_storage::page::{encode_page, verify_page, PAGE_HEADER_BYTES};
use dbtouch_types::checksum::checksum64;
use dbtouch_types::DbTouchError;
use proptest::prelude::*;

/// Large enough for the longest generated payload (300 bytes).
const PAGE_SIZE: usize = 512;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_single_bit_flip_in_a_page_is_corrupt(
        payload in prop::collection::vec(0u8..=255, 0..301),
        page_id in 0u64..1 << 40,
    ) {
        let image = encode_page(page_id, &payload, PAGE_SIZE).unwrap();
        prop_assert_eq!(verify_page(&image, page_id, PAGE_SIZE).unwrap(), &payload[..]);
        let mut flipped = image.clone();
        for byte in 0..PAGE_HEADER_BYTES + payload.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                let verdict = verify_page(&flipped, page_id, PAGE_SIZE);
                prop_assert!(
                    matches!(verdict, Err(DbTouchError::Corrupt(_))),
                    "byte {byte} bit {bit} of a {}-byte payload: {verdict:?}",
                    payload.len()
                );
                flipped[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn appended_zero_bytes_change_the_checksum(
        payload in prop::collection::vec(0u8..=255, 0..301),
        zeros in 1usize..=17,
    ) {
        let mut padded = payload.clone();
        padded.resize(payload.len() + zeros, 0);
        prop_assert_ne!(checksum64(&padded), checksum64(&payload));
        // So the header of a page holding the padded payload differs too.
        let short = encode_page(0, &payload, PAGE_SIZE).unwrap();
        let long = encode_page(0, &padded, PAGE_SIZE).unwrap();
        prop_assert_ne!(&short[16..PAGE_HEADER_BYTES], &long[16..PAGE_HEADER_BYTES]);
    }
}
