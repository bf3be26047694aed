//! Properties the frame checksum must keep, whatever hash computes it: any
//! single flipped bit is caught, payloads that differ only in trailing zero
//! bytes differ, and every length around the 8-byte lane boundary survives a
//! write/read round trip.

use dbtouch_net::frame::{checksum, read_frame, write_frame, ReadOutcome, MAX_FRAME_LEN};
use proptest::prelude::*;
use std::io::Cursor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_single_bit_flip_changes_the_checksum(
        payload in prop::collection::vec(0u8..=255, 0..258),
    ) {
        let clean = checksum(&payload);
        let mut flipped = payload.clone();
        for byte in 0..payload.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                prop_assert_ne!(checksum(&flipped), clean);
                flipped[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn appended_zero_bytes_change_the_checksum(
        payload in prop::collection::vec(0u8..=255, 0..258),
        zeros in 1usize..=17,
    ) {
        let mut padded = payload.clone();
        padded.resize(payload.len() + zeros, 0);
        prop_assert_ne!(checksum(&padded), checksum(&payload));
    }

    #[test]
    fn lane_boundary_lengths_round_trip(
        seed in prop::collection::vec(0u8..=255, 17),
    ) {
        for len in [7, 8, 9, 15, 16, 17] {
            let payload = &seed[..len];
            let mut wire = Vec::new();
            let written = write_frame(&mut wire, payload).unwrap();
            prop_assert_eq!(written, wire.len() as u64);
            match read_frame(&mut Cursor::new(&wire), MAX_FRAME_LEN) {
                Ok((ReadOutcome::Frame(p), n)) => {
                    prop_assert_eq!(p.as_slice(), payload);
                    prop_assert_eq!(n, written);
                }
                other => return Err(format!("length {len}: {other:?}")),
            }
            // The trailer is the checksum of exactly these bytes.
            prop_assert_eq!(&wire[4 + len..], &checksum(payload).to_le_bytes()[..]);
        }
    }
}
