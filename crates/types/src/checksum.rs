//! The one integrity hash: page payloads, manifests and wire frames are all
//! checked with [`checksum64`].
//!
//! It guards against accidents — torn writes, bit rot, a corrupted frame —
//! not against adversaries, so it is built for speed over 8 KiB pages: the
//! input is consumed a 64-bit word at a time, one multiply per word, instead
//! of FNV-1a's one multiply per byte.

const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash `bytes`: the state is seeded with the length, then every
/// little-endian 64-bit word (the last 1–7 bytes zero-padded into one more)
/// is absorbed with one multiply and one fold of the high half into the low
/// half, and a last multiply spreads the state.
///
/// Every absorb step is a bijection of the 64-bit state, so inputs of one
/// length that differ in one word never share a state, and the length seed
/// keeps inputs that differ only in trailing zero bytes apart. Stored on disk
/// by pages and manifests, and (its high half) on the wire by frames, so the
/// function is part of both formats: changing it is a `MANIFEST_FORMAT` and a
/// `PROTOCOL_VERSION` bump.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let absorb = |h: u64, word: u64| {
        let h = (h ^ word).wrapping_mul(MUL);
        h ^ (h >> 32)
    };
    let mut h = absorb(SEED, bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = absorb(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = absorb(h, u64::from_le_bytes(last));
    }
    h.wrapping_mul(MUL)
}
