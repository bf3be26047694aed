//! The fixed-size on-disk page: the unit of persistent column storage.
//!
//! dbTouch's catalog was memory-only; the persistent backend stores column
//! data in fixed-size pages so that faulting a touched region reads a bounded,
//! checksummed unit and the tuple-to-byte mapping stays pure arithmetic, just
//! like the in-memory dense arrays (Section 2.6). Every page starts with a
//! [`PageHeader`]:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "DBTP"
//!      4     8  page id (little endian) — the page's index in the page file
//!     12     4  payload length in bytes (little endian)
//!     16     8  FNV-1a checksum of the payload (little endian)
//! ```
//!
//! The payload is raw fixed-width row data: rows of one column stored
//! back-to-back in the column's [`DataType`](dbtouch_types::DataType) encoding (the same little-endian
//! encoding `Value::encode` uses for row-major matrixes). Whole rows never
//! straddle pages — a page holds `floor(payload_capacity / width)` rows — so
//! a row read touches exactly one page.
//!
//! Checksums are verified when a page faults into the buffer pool, turning
//! torn writes and bit rot into recoverable [`DbTouchError::Corrupt`] errors
//! instead of silent wrong answers.

use dbtouch_types::{DbTouchError, Result};

/// `"DBTP"`: dbTouch page.
pub const PAGE_MAGIC: [u8; 4] = *b"DBTP";

/// Size of the encoded [`PageHeader`] in bytes.
pub const PAGE_HEADER_BYTES: usize = 24;

/// Default page size in bytes. 8 KiB balances fault granularity against
/// per-page header overhead; the page size is a property of the store and is
/// recorded in its manifest, so stores written with other sizes open fine.
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// Smallest page size the store accepts: the header plus one widest row
/// (8-byte numerics; wider fixed strings need proportionally larger pages).
pub const MIN_PAGE_SIZE: usize = PAGE_HEADER_BYTES + 8;

/// FNV-1a 64-bit: tiny, dependency-free, and plenty for torn-write detection
/// (this is an integrity check against accidents, not an authenticity check
/// against adversaries).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The header at the start of every on-disk page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHeader {
    /// The page's index within the page file (offset = id * page size).
    pub page_id: u64,
    /// Number of payload bytes actually used in this page.
    pub payload_len: u32,
    /// FNV-1a checksum of the used payload bytes.
    pub checksum: u64,
}

impl PageHeader {
    /// Encode into the fixed `PAGE_HEADER_BYTES` prefix layout.
    pub fn encode(&self) -> [u8; PAGE_HEADER_BYTES] {
        let mut out = [0u8; PAGE_HEADER_BYTES];
        out[0..4].copy_from_slice(&PAGE_MAGIC);
        out[4..12].copy_from_slice(&self.page_id.to_le_bytes());
        out[12..16].copy_from_slice(&self.payload_len.to_le_bytes());
        out[16..24].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Decode and validate a header prefix (magic and length sanity only; the
    /// payload checksum is verified by [`verify_page`]).
    pub fn decode(bytes: &[u8], page_size: usize) -> Result<PageHeader> {
        if bytes.len() < PAGE_HEADER_BYTES {
            return Err(DbTouchError::Corrupt(format!(
                "page header truncated: {} bytes",
                bytes.len()
            )));
        }
        if bytes[0..4] != PAGE_MAGIC {
            return Err(DbTouchError::Corrupt("bad page magic".into()));
        }
        let page_id = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
        let payload_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        if payload_len as usize > page_size - PAGE_HEADER_BYTES {
            return Err(DbTouchError::Corrupt(format!(
                "page {page_id} claims {payload_len} payload bytes in a {page_size}-byte page"
            )));
        }
        let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        Ok(PageHeader {
            page_id,
            payload_len,
            checksum,
        })
    }
}

/// Payload bytes available in a page of `page_size` bytes.
pub fn payload_capacity(page_size: usize) -> usize {
    page_size.saturating_sub(PAGE_HEADER_BYTES)
}

/// Rows of `width`-byte values that fit in one page (at least 1 is required;
/// a width larger than the payload capacity is a configuration error caught
/// when the column is appended).
pub fn rows_per_page(page_size: usize, width: usize) -> u64 {
    if width == 0 {
        return 0;
    }
    (payload_capacity(page_size) / width) as u64
}

/// Build the full on-disk image of one page: header + payload, zero-padded to
/// `page_size`.
pub fn encode_page(page_id: u64, payload: &[u8], page_size: usize) -> Result<Vec<u8>> {
    if payload.len() > payload_capacity(page_size) {
        return Err(DbTouchError::Internal(format!(
            "page payload of {} bytes exceeds capacity {}",
            payload.len(),
            payload_capacity(page_size)
        )));
    }
    let header = PageHeader {
        page_id,
        payload_len: payload.len() as u32,
        checksum: checksum(payload),
    };
    let mut image = vec![0u8; page_size];
    image[..PAGE_HEADER_BYTES].copy_from_slice(&header.encode());
    image[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + payload.len()].copy_from_slice(payload);
    Ok(image)
}

/// Verify a full page image read from disk: magic, expected id, and payload
/// checksum. Returns the payload slice on success.
pub fn verify_page(image: &[u8], expected_id: u64, page_size: usize) -> Result<&[u8]> {
    if image.len() != page_size {
        return Err(DbTouchError::Corrupt(format!(
            "page {expected_id} truncated: {} of {page_size} bytes",
            image.len()
        )));
    }
    let header = PageHeader::decode(image, page_size)?;
    if header.page_id != expected_id {
        return Err(DbTouchError::Corrupt(format!(
            "page id mismatch: expected {expected_id}, found {}",
            header.page_id
        )));
    }
    let payload = &image[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + header.payload_len as usize];
    if checksum(payload) != header.checksum {
        return Err(DbTouchError::Corrupt(format!(
            "page {expected_id} payload checksum mismatch"
        )));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let h = PageHeader {
            page_id: 42,
            payload_len: 100,
            checksum: 0xdead_beef,
        };
        let enc = h.encode();
        assert_eq!(PageHeader::decode(&enc, DEFAULT_PAGE_SIZE).unwrap(), h);
    }

    #[test]
    fn decode_rejects_bad_magic_and_lengths() {
        let mut enc = PageHeader {
            page_id: 1,
            payload_len: 8,
            checksum: 0,
        }
        .encode();
        enc[0] = b'X';
        assert!(matches!(
            PageHeader::decode(&enc, DEFAULT_PAGE_SIZE),
            Err(DbTouchError::Corrupt(_))
        ));
        assert!(PageHeader::decode(&enc[..10], DEFAULT_PAGE_SIZE).is_err());
        let oversized = PageHeader {
            page_id: 1,
            payload_len: DEFAULT_PAGE_SIZE as u32,
            checksum: 0,
        }
        .encode();
        assert!(PageHeader::decode(&oversized, DEFAULT_PAGE_SIZE).is_err());
    }

    #[test]
    fn page_round_trip_and_corruption_detected() {
        let payload: Vec<u8> = (0..200u8).collect();
        let image = encode_page(7, &payload, 512).unwrap();
        assert_eq!(image.len(), 512);
        assert_eq!(verify_page(&image, 7, 512).unwrap(), &payload[..]);
        // Wrong id.
        assert!(verify_page(&image, 8, 512).is_err());
        // Flipped payload byte.
        let mut bad = image.clone();
        bad[PAGE_HEADER_BYTES + 10] ^= 0xff;
        assert!(matches!(
            verify_page(&bad, 7, 512),
            Err(DbTouchError::Corrupt(_))
        ));
        // Truncated image.
        assert!(verify_page(&image[..511], 7, 512).is_err());
    }

    #[test]
    fn geometry_helpers() {
        assert_eq!(payload_capacity(8192), 8192 - PAGE_HEADER_BYTES);
        assert_eq!(
            rows_per_page(8192, 8),
            (8192 - PAGE_HEADER_BYTES) as u64 / 8
        );
        assert_eq!(rows_per_page(8192, 0), 0);
        assert!(encode_page(0, &vec![0u8; 600], 512).is_err());
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }
}
