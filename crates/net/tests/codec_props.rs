//! The decoders are total on hostile bytes: every truncation, every
//! single-bit flip, every forged sequence count and any short run of
//! appended bytes of every golden frame decodes to `Ok` or a `ParseError` —
//! never a panic, never another error.

#[allow(dead_code)]
#[path = "codec_golden.rs"]
mod golden;

use dbtouch_net::codec::{decode_request, decode_response};
use dbtouch_net::frame::tag;
use dbtouch_types::DbTouchError;
use proptest::prelude::*;

/// Both decoders on `bytes`; each must answer `Ok` or `ParseError`.
fn total(bytes: &[u8]) -> Result<(), String> {
    let outcomes = [
        decode_request(bytes).map(drop),
        decode_response(bytes).map(drop),
    ];
    for outcome in outcomes {
        if let Err(e) = outcome {
            if !matches!(e, DbTouchError::ParseError(_)) {
                return Err(format!("{e:?} on {bytes:02x?}"));
            }
        }
    }
    Ok(())
}

fn golden_frames() -> impl Iterator<Item = (&'static str, Vec<u8>)> {
    golden::GOLDEN
        .iter()
        .map(|(name, hex)| (*name, golden::unhex(hex)))
}

#[test]
fn every_truncation_decodes_or_is_rejected() {
    for (name, frame) in golden_frames() {
        for cut in 0..frame.len() {
            assert_eq!(total(&frame[..cut]), Ok(()), "{name} cut at {cut}");
        }
    }
}

#[test]
fn every_single_bit_flip_decodes_or_is_rejected() {
    for (name, mut frame) in golden_frames() {
        for byte in 0..frame.len() {
            for bit in 0..8 {
                frame[byte] ^= 1 << bit;
                assert_eq!(total(&frame), Ok(()), "{name} byte {byte} bit {bit}");
                frame[byte] ^= 1 << bit;
            }
        }
    }
}

/// `u32::MAX` written over every 4-byte window: wherever a sequence count
/// sits, the forged count fails before it allocates.
#[test]
fn every_forged_count_decodes_or_is_rejected() {
    for (name, frame) in golden_frames() {
        for at in 0..frame.len().saturating_sub(3) {
            let mut forged = frame.clone();
            forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(total(&forged), Ok(()), "{name} at {at}");
        }
    }
}

/// Inputs named by hand: a `RunTrace` whose event count is `u32::MAX`,
/// trailing garbage after a complete frame, and unknown frame types.
#[test]
fn forged_counts_trailing_bytes_and_unknown_tags_are_parse_errors() {
    let mut forged = vec![tag::RUN_TRACE];
    forged.extend_from_slice(&7u64.to_le_bytes());
    forged.extend_from_slice(&1u32.to_le_bytes());
    forged.push(b'c');
    forged.extend_from_slice(&u32::MAX.to_le_bytes()); // event count
    for bytes in [&forged[..], &[tag::SNAPSHOT, 0xee], &[0x7f]] {
        assert!(matches!(
            decode_request(bytes),
            Err(DbTouchError::ParseError(_))
        ));
    }
    assert!(matches!(
        decode_response(&[0x7f]),
        Err(DbTouchError::ParseError(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn appended_bytes_decode_or_are_rejected(
        extra in prop::collection::vec(0u8..=255, 1..9),
    ) {
        for (name, mut frame) in golden_frames() {
            frame.extend_from_slice(&extra);
            total(&frame).map_err(|e| format!("{name} + {extra:02x?}: {e}"))?;
        }
    }
}
