//! Page-span encodings: run-length and dictionary compression for paged
//! columns.
//!
//! A persisted column is split into page *spans* — the rows stored in one
//! page. Legacy raw extents store `rows × width` little-endian bytes with no
//! framing (PR 4's layout). *Packed* extents carry a one-byte tag per page so
//! each page says how its rows are laid out:
//!
//! * `Raw`  — `[0][u32 rows][rows × width bytes]`,
//! * `Rle`  — `[1][u32 runs][runs × (u32 length, width-byte value)]`,
//! * `Dict` — `[2][u32 rows][u16 dict][dict × width values][rows × u8 code]`.
//!
//! Because pages are fixed-size and zero-padded, shrinking a payload alone
//! saves nothing: compression only pays when *more logical rows* fit per
//! page. [`pack_row_bytes`] therefore picks a packing factor
//! `K ∈ {64, 32, 16, 8, 4, 2}` (highest that fits) and stores `K × base`
//! rows per page, each span individually encoded with whichever encoding is
//! smallest; if no factor fits — high-cardinality, run-free data — the
//! column stays raw and its on-disk size is unchanged. Selection is
//! deterministic (smallest payload; ties prefer `Rle`, then `Dict`, then
//! `Raw`), so re-persisting the same rows always yields the same bytes.
//!
//! Decoding is strict: [`span_view`] validates the whole span structure
//! (header arithmetic, run lengths, code bounds) before any value is served,
//! so scan kernels iterate infallibly and a rotted payload surfaces as
//! `DbTouchError::Corrupt` — never a wrong answer. Encoded payloads ride the
//! ordinary checksummed page path, so whole-page rot is caught even earlier,
//! at fault time.

use dbtouch_obs::{MetricSource, MetricValue};
use dbtouch_types::{DbTouchError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

const TAG_RAW: u8 = 0;
const TAG_RLE: u8 = 1;
const TAG_DICT: u8 = 2;

/// Packing factors tried highest-first: a packed page holds `K × base` rows.
pub const PACK_FACTORS: [u64; 6] = [64, 32, 16, 8, 4, 2];

/// How one page span's rows are laid out in its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Rows stored verbatim (tagged; the framed form of the legacy layout).
    Raw,
    /// Runs of identical values stored as `(length, value)` pairs.
    Rle,
    /// Distinct values stored once, rows as one-byte codes into that table.
    Dict,
}

impl Encoding {
    /// Human-readable name, for reports and bench tables.
    pub fn name(&self) -> &'static str {
        match self {
            Encoding::Raw => "raw",
            Encoding::Rle => "rle",
            Encoding::Dict => "dict",
        }
    }
}

/// What the persist path is allowed to do when packing a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingPolicy {
    /// Master switch: `false` persists every column raw (the PR 4 layout).
    pub enabled: bool,
    /// Most distinct values a span may hold and still dictionary-encode.
    /// Codes are one byte, so values above 256 behave as 256.
    pub dict_max_cardinality: u16,
}

impl Default for EncodingPolicy {
    fn default() -> EncodingPolicy {
        EncodingPolicy {
            enabled: true,
            dict_max_cardinality: 64,
        }
    }
}

impl EncodingPolicy {
    /// The policy that never packs: every persist stays raw.
    pub fn disabled() -> EncodingPolicy {
        EncodingPolicy {
            enabled: false,
            ..EncodingPolicy::default()
        }
    }
}

/// Counters accumulated across every pack decision and encoded scan of one
/// store, registered as the `encoding` [`MetricSource`].
#[derive(Debug, Default)]
pub struct EncodingStats {
    rle_pages: AtomicU64,
    dict_pages: AtomicU64,
    bytes_saved: AtomicU64,
    run_skips: AtomicU64,
}

impl EncodingStats {
    /// Record the outcome of one successful pack.
    pub fn record_pack(&self, rle_pages: u64, dict_pages: u64, bytes_saved: u64) {
        self.rle_pages.fetch_add(rle_pages, Ordering::Relaxed);
        self.dict_pages.fetch_add(dict_pages, Ordering::Relaxed);
        self.bytes_saved.fetch_add(bytes_saved, Ordering::Relaxed);
    }

    /// Record `n` runs a scan kernel aggregated with one multiply instead of
    /// decoding row by row.
    pub fn add_run_skips(&self, n: u64) {
        if n > 0 {
            self.run_skips.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Pages written RLE-encoded.
    pub fn rle_pages(&self) -> u64 {
        self.rle_pages.load(Ordering::Relaxed)
    }

    /// Pages written dictionary-encoded.
    pub fn dict_pages(&self) -> u64 {
        self.dict_pages.load(Ordering::Relaxed)
    }

    /// On-disk bytes saved versus the raw layout (whole pages not written).
    pub fn bytes_saved(&self) -> u64 {
        self.bytes_saved.load(Ordering::Relaxed)
    }

    /// Runs aggregated run-at-a-time by the scan kernels.
    pub fn run_skips(&self) -> u64 {
        self.run_skips.load(Ordering::Relaxed)
    }
}

impl MetricSource for EncodingStats {
    fn source_name(&self) -> &'static str {
        "encoding"
    }

    fn collect(&self) -> Vec<(&'static str, MetricValue)> {
        vec![
            ("rle_pages", MetricValue::Counter(self.rle_pages())),
            ("dict_pages", MetricValue::Counter(self.dict_pages())),
            ("bytes_saved", MetricValue::Counter(self.bytes_saved())),
            ("run_skips", MetricValue::Counter(self.run_skips())),
        ]
    }
}

/// A validated, borrowed view of one span payload. Produced by [`span_view`];
/// by the time a caller holds one, every length and code has been checked, so
/// iteration never fails.
#[derive(Debug, Clone, Copy)]
pub enum SpanView<'a> {
    /// `rows × width` verbatim row bytes.
    Raw {
        /// The row bytes.
        rows: &'a [u8],
    },
    /// Consecutive `(u32 length, width-byte value)` pairs; iterate with
    /// [`rle_runs`].
    Rle {
        /// The packed run records.
        runs: &'a [u8],
    },
    /// A value table plus one code byte per row.
    Dict {
        /// `dict_len × width` distinct values, in first-appearance order.
        dict: &'a [u8],
        /// One code per row; every code indexes `dict`.
        codes: &'a [u8],
    },
}

fn corrupt(msg: String) -> DbTouchError {
    DbTouchError::Corrupt(format!("encoded span: {msg}"))
}

fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[0..4].try_into().unwrap())
}

/// Parse and fully validate one tagged span payload, returning the typed
/// view and the number of rows it stores.
pub fn span_view(payload: &[u8], width: usize) -> Result<(SpanView<'_>, u64)> {
    if width == 0 {
        return Err(DbTouchError::Internal("span width must be nonzero".into()));
    }
    let Some((&tag, body)) = payload.split_first() else {
        return Err(corrupt("empty payload".into()));
    };
    match tag {
        TAG_RAW => {
            if body.len() < 4 {
                return Err(corrupt("raw span shorter than its header".into()));
            }
            let rows = read_u32(body) as usize;
            let data = &body[4..];
            if data.len() != rows * width {
                return Err(corrupt(format!(
                    "raw span claims {rows} rows of width {width} but holds {} bytes",
                    data.len()
                )));
            }
            Ok((SpanView::Raw { rows: data }, rows as u64))
        }
        TAG_RLE => {
            if body.len() < 4 {
                return Err(corrupt("rle span shorter than its header".into()));
            }
            let run_count = read_u32(body) as usize;
            let runs = &body[4..];
            let record = 4 + width;
            if runs.len() != run_count * record {
                return Err(corrupt(format!(
                    "rle span claims {run_count} runs but holds {} bytes",
                    runs.len()
                )));
            }
            let mut rows = 0u64;
            for r in 0..run_count {
                let len = read_u32(&runs[r * record..]);
                if len == 0 {
                    return Err(corrupt("zero-length run".into()));
                }
                rows += len as u64;
            }
            Ok((SpanView::Rle { runs }, rows))
        }
        TAG_DICT => {
            if body.len() < 6 {
                return Err(corrupt("dict span shorter than its header".into()));
            }
            let rows = read_u32(body) as usize;
            let dict_len = u16::from_le_bytes(body[4..6].try_into().unwrap()) as usize;
            let expected = 6 + dict_len * width + rows;
            if body.len() != expected {
                return Err(corrupt(format!(
                    "dict span claims {rows} rows / {dict_len} values but holds {} bytes",
                    body.len()
                )));
            }
            if rows > 0 && dict_len == 0 {
                return Err(corrupt("dict span has rows but no values".into()));
            }
            let dict = &body[6..6 + dict_len * width];
            let codes = &body[6 + dict_len * width..];
            if codes.iter().any(|&c| (c as usize) >= dict_len) {
                return Err(corrupt("code beyond the dictionary".into()));
            }
            Ok((SpanView::Dict { dict, codes }, rows as u64))
        }
        t => Err(corrupt(format!("unknown encoding tag {t}"))),
    }
}

/// Iterator over a validated RLE span's `(run length, value bytes)` pairs,
/// in row order.
pub struct RleRuns<'a> {
    runs: &'a [u8],
    width: usize,
}

impl<'a> Iterator for RleRuns<'a> {
    type Item = (u64, &'a [u8]);

    fn next(&mut self) -> Option<(u64, &'a [u8])> {
        if self.runs.is_empty() {
            return None;
        }
        let len = read_u32(self.runs) as u64;
        let value = &self.runs[4..4 + self.width];
        self.runs = &self.runs[4 + self.width..];
        Some((len, value))
    }
}

/// Iterate the runs of a [`SpanView::Rle`] payload (its `runs` field).
pub fn rle_runs(runs: &[u8], width: usize) -> RleRuns<'_> {
    RleRuns { runs, width }
}

/// Decode one span payload back to `rows × width` verbatim row bytes.
pub fn decode_span(payload: &[u8], width: usize) -> Result<Vec<u8>> {
    let (view, rows) = span_view(payload, width)?;
    let mut out = Vec::with_capacity(rows as usize * width);
    match view {
        SpanView::Raw { rows } => out.extend_from_slice(rows),
        SpanView::Rle { runs } => {
            for (len, value) in rle_runs(runs, width) {
                for _ in 0..len {
                    out.extend_from_slice(value);
                }
            }
        }
        SpanView::Dict { dict, codes } => {
            for &c in codes {
                let at = c as usize * width;
                out.extend_from_slice(&dict[at..at + width]);
            }
        }
    }
    Ok(out)
}

/// Byte offset (from the start of `payload`) of row `idx`'s value. Random
/// access for `value_at`-style reads: no allocation, and only the bytes on
/// the path to `idx` are validated — `O(1)` for raw and dictionary spans,
/// `O(runs before idx)` for RLE.
pub fn span_value_offset(payload: &[u8], width: usize, idx: u64) -> Result<usize> {
    let Some((&tag, body)) = payload.split_first() else {
        return Err(corrupt("empty payload".into()));
    };
    match tag {
        TAG_RAW => {
            if body.len() < 4 || (idx as usize) >= read_u32(body) as usize {
                return Err(corrupt(format!("row {idx} beyond the raw span")));
            }
            let at = 1 + 4 + idx as usize * width;
            if at + width > payload.len() {
                return Err(corrupt("raw span truncated".into()));
            }
            Ok(at)
        }
        TAG_RLE => {
            if body.len() < 4 {
                return Err(corrupt("rle span shorter than its header".into()));
            }
            let record = 4 + width;
            let runs = &body[4..];
            let mut cum = 0u64;
            let mut at = 0usize;
            while at + record <= runs.len() {
                let len = read_u32(&runs[at..]) as u64;
                if idx < cum + len {
                    return Ok(1 + 4 + at + 4);
                }
                cum += len;
                at += record;
            }
            Err(corrupt(format!("row {idx} beyond the rle span")))
        }
        TAG_DICT => {
            if body.len() < 6 {
                return Err(corrupt("dict span shorter than its header".into()));
            }
            let rows = read_u32(body) as usize;
            let dict_len = u16::from_le_bytes(body[4..6].try_into().unwrap()) as usize;
            let codes_at = 6 + dict_len * width;
            if idx as usize >= rows || body.len() != codes_at + rows {
                return Err(corrupt(format!("row {idx} beyond the dict span")));
            }
            let code = body[codes_at + idx as usize] as usize;
            if code >= dict_len {
                return Err(corrupt("code beyond the dictionary".into()));
            }
            Ok(1 + 6 + code * width)
        }
        t => Err(corrupt(format!("unknown encoding tag {t}"))),
    }
}

/// Frame a span's verbatim row bytes as a tagged `Raw` payload.
fn encode_raw(raw: &[u8], width: usize) -> Vec<u8> {
    let rows = (raw.len() / width) as u32;
    let mut out = Vec::with_capacity(1 + 4 + raw.len());
    out.push(TAG_RAW);
    out.extend_from_slice(&rows.to_le_bytes());
    out.extend_from_slice(raw);
    out
}

/// RLE-encode a span; `None` once the output would exceed `max_len`.
fn encode_rle(raw: &[u8], width: usize, max_len: usize) -> Option<Vec<u8>> {
    let rows = raw.len() / width;
    let mut out = vec![TAG_RLE, 0, 0, 0, 0];
    let mut runs = 0u32;
    let mut i = 0usize;
    while i < rows {
        let value = &raw[i * width..(i + 1) * width];
        let mut len = 1usize;
        while i + len < rows && &raw[(i + len) * width..(i + len + 1) * width] == value {
            len += 1;
        }
        out.extend_from_slice(&(len as u32).to_le_bytes());
        out.extend_from_slice(value);
        if out.len() > max_len {
            return None;
        }
        runs += 1;
        i += len;
    }
    out[1..5].copy_from_slice(&runs.to_le_bytes());
    Some(out)
}

/// Dictionary-encode a span; `None` when the cardinality exceeds
/// `max_cardinality` (bails at the first excess distinct value) or the
/// output would exceed `max_len`.
fn encode_dict(raw: &[u8], width: usize, max_cardinality: u16, max_len: usize) -> Option<Vec<u8>> {
    let rows = raw.len() / width;
    let cap = (max_cardinality.min(256) as usize).max(1);
    let mut order: Vec<&[u8]> = Vec::new();
    let mut index: HashMap<&[u8], u8> = HashMap::new();
    let mut codes: Vec<u8> = Vec::with_capacity(rows);
    for i in 0..rows {
        let v = &raw[i * width..(i + 1) * width];
        let code = match index.get(v) {
            Some(&c) => c,
            None => {
                if order.len() >= cap {
                    return None;
                }
                let c = order.len() as u8;
                order.push(v);
                index.insert(v, c);
                c
            }
        };
        codes.push(code);
    }
    let total = 1 + 4 + 2 + order.len() * width + rows;
    if total > max_len {
        return None;
    }
    let mut out = Vec::with_capacity(total);
    out.push(TAG_DICT);
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&(order.len() as u16).to_le_bytes());
    for v in &order {
        out.extend_from_slice(v);
    }
    out.extend_from_slice(&codes);
    Some(out)
}

/// Encode one span with the smallest encoding whose payload fits `max_len`.
/// Ties prefer `Rle`, then `Dict`, then `Raw` — a fixed order, so the choice
/// (and the persisted bytes) are deterministic. `None` when nothing fits.
pub fn encode_span(
    raw: &[u8],
    width: usize,
    policy: &EncodingPolicy,
    max_len: usize,
) -> Option<(Encoding, Vec<u8>)> {
    let candidates = [
        (Encoding::Rle, encode_rle(raw, width, max_len)),
        (
            Encoding::Dict,
            encode_dict(raw, width, policy.dict_max_cardinality, max_len),
        ),
        (Encoding::Raw, Some(encode_raw(raw, width))),
    ];
    let mut best: Option<(Encoding, Vec<u8>)> = None;
    for (enc, candidate) in candidates {
        if let Some(payload) = candidate {
            if payload.len() <= max_len
                && best.as_ref().is_none_or(|(_, b)| payload.len() < b.len())
            {
                best = Some((enc, payload));
            }
        }
    }
    best
}

/// The page payloads of one successfully packed column.
#[derive(Debug)]
pub struct PackedSpans {
    /// One encoded payload per page, in row order.
    pub payloads: Vec<Vec<u8>>,
    /// Rows per packed page: `K × base_rows_per_page`.
    pub rows_per_page: u64,
    /// Total encoded payload bytes across the pages.
    pub payload_bytes: u64,
    /// Pages that chose [`Encoding::Rle`].
    pub rle_pages: u64,
    /// Pages that chose [`Encoding::Dict`].
    pub dict_pages: u64,
}

/// Try to pack a column's verbatim row bytes into fewer pages. Walks
/// [`PACK_FACTORS`] highest-first; a factor `K` succeeds when *every* span of
/// `K × base_rows_per_page` rows encodes within `capacity` (incompressible
/// data fails each factor at its first span, so the whole probe stays cheap).
/// Returns `None` — persist raw — when the policy is disabled, the column
/// already fits one page, or no factor fits; `K ≥ 2` guarantees a packed
/// column writes at most half the raw page count.
pub fn pack_row_bytes(
    raw: &[u8],
    width: usize,
    base_rows_per_page: u64,
    capacity: usize,
    policy: &EncodingPolicy,
) -> Option<PackedSpans> {
    if !policy.enabled || base_rows_per_page == 0 || width == 0 {
        return None;
    }
    let rows = (raw.len() / width) as u64;
    if rows <= base_rows_per_page {
        return None;
    }
    'factors: for k in PACK_FACTORS {
        let rows_per_page = base_rows_per_page * k;
        let span_bytes = rows_per_page as usize * width;
        let mut payloads = Vec::with_capacity(rows.div_ceil(rows_per_page) as usize);
        let (mut payload_bytes, mut rle_pages, mut dict_pages) = (0u64, 0u64, 0u64);
        for span in raw.chunks(span_bytes) {
            let Some((enc, payload)) = encode_span(span, width, policy, capacity) else {
                continue 'factors;
            };
            payload_bytes += payload.len() as u64;
            match enc {
                Encoding::Rle => rle_pages += 1,
                Encoding::Dict => dict_pages += 1,
                Encoding::Raw => {}
            }
            payloads.push(payload);
        }
        return Some(PackedSpans {
            payloads,
            rows_per_page,
            payload_bytes,
            rle_pages,
            dict_pages,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i64_bytes(values: &[i64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn round_trip(raw: &[u8], width: usize, policy: &EncodingPolicy) -> Encoding {
        let (enc, payload) = encode_span(raw, width, policy, usize::MAX).unwrap();
        let decoded = decode_span(&payload, width).unwrap();
        assert_eq!(decoded, raw, "round trip through {:?}", enc);
        let (_, rows) = span_view(&payload, width).unwrap();
        assert_eq!(rows as usize, raw.len() / width);
        for idx in 0..rows {
            let at = span_value_offset(&payload, width, idx).unwrap();
            assert_eq!(
                &payload[at..at + width],
                &raw[idx as usize * width..(idx as usize + 1) * width]
            );
        }
        assert!(span_value_offset(&payload, width, rows).is_err());
        enc
    }

    #[test]
    fn single_run_picks_rle() {
        let raw = i64_bytes(&[7; 1000]);
        assert_eq!(
            round_trip(&raw, 8, &EncodingPolicy::default()),
            Encoding::Rle
        );
    }

    #[test]
    fn alternating_low_cardinality_picks_dict() {
        let values: Vec<i64> = (0..1000).map(|i| i % 2).collect();
        let raw = i64_bytes(&values);
        assert_eq!(
            round_trip(&raw, 8, &EncodingPolicy::default()),
            Encoding::Dict
        );
    }

    #[test]
    fn high_cardinality_falls_back_to_raw() {
        let values: Vec<i64> = (0..1000).collect();
        let raw = i64_bytes(&values);
        assert_eq!(
            round_trip(&raw, 8, &EncodingPolicy::default()),
            Encoding::Raw
        );
        // And with a tight budget, nothing fits at all.
        assert!(encode_span(&raw, 8, &EncodingPolicy::default(), 100).is_none());
    }

    #[test]
    fn empty_span_round_trips() {
        assert_eq!(
            round_trip(&[], 8, &EncodingPolicy::default()),
            Encoding::Rle
        );
    }

    #[test]
    fn dict_respects_cardinality_cap() {
        let values: Vec<i64> = (0..1000).map(|i| i % 9).collect();
        let raw = i64_bytes(&values);
        let tight = EncodingPolicy {
            enabled: true,
            dict_max_cardinality: 8,
        };
        // Nine distinct values exceed an eight-entry dictionary; RLE on
        // run-length-1 data is bigger than raw, so raw wins.
        let (enc, _) = encode_span(&raw, 8, &tight, usize::MAX).unwrap();
        assert_eq!(enc, Encoding::Raw);
        let (enc, _) = encode_span(&raw, 8, &EncodingPolicy::default(), usize::MAX).unwrap();
        assert_eq!(enc, Encoding::Dict);
    }

    #[test]
    fn pack_selects_highest_fitting_factor() {
        // Constant data: every span is one run, so K = 64 fits.
        let raw = i64_bytes(&vec![42i64; 5000]);
        let packed = pack_row_bytes(&raw, 8, 29, 232, &EncodingPolicy::default()).unwrap();
        assert_eq!(packed.rows_per_page, 29 * 64);
        assert_eq!(packed.payloads.len(), 5000usize.div_ceil(29 * 64));
        assert_eq!(packed.rle_pages, packed.payloads.len() as u64);
        assert_eq!(packed.dict_pages, 0);
        assert_eq!(
            packed.payload_bytes,
            packed.payloads.iter().map(|p| p.len() as u64).sum::<u64>()
        );
        let mut decoded = Vec::new();
        for p in &packed.payloads {
            decoded.extend(decode_span(p, 8).unwrap());
        }
        assert_eq!(decoded, raw);
    }

    #[test]
    fn pack_declines_incompressible_and_small_columns() {
        let unique: Vec<i64> = (0..5000).collect();
        assert!(
            pack_row_bytes(&i64_bytes(&unique), 8, 29, 232, &EncodingPolicy::default()).is_none()
        );
        // A noisy high-cardinality reading (what `cold_raw_sweep` stores) is
        // declined as well: it is persisted byte-identical to the raw column.
        let noisy: Vec<i64> = (0..5000i64).map(|i| i * 2654435761 % 100_003).collect();
        assert!(
            pack_row_bytes(&i64_bytes(&noisy), 8, 29, 232, &EncodingPolicy::default()).is_none()
        );
        // A column that already fits one page is never packed.
        let tiny = i64_bytes(&[1i64; 20]);
        assert!(pack_row_bytes(&tiny, 8, 29, 232, &EncodingPolicy::default()).is_none());
        // Disabled policy never packs.
        let constant = i64_bytes(&vec![1i64; 5000]);
        assert!(pack_row_bytes(&constant, 8, 29, 232, &EncodingPolicy::disabled()).is_none());
    }

    #[test]
    fn corrupt_spans_are_rejected_not_misread() {
        let raw = i64_bytes(&[3; 100]);
        let (_, mut payload) =
            encode_span(&raw, 8, &EncodingPolicy::default(), usize::MAX).unwrap();
        // Unknown tag.
        let mut bad = payload.clone();
        bad[0] = 9;
        assert!(span_view(&bad, 8).is_err());
        assert!(span_value_offset(&bad, 8, 0).is_err());
        // Truncation.
        assert!(span_view(&payload[..payload.len() - 1], 8).is_err());
        // Zero-length run.
        payload[5..9].copy_from_slice(&0u32.to_le_bytes());
        assert!(span_view(&payload, 8).is_err());
        // Dict code beyond the table.
        let values: Vec<i64> = (0..100).map(|i| i % 3).collect();
        let (enc, mut dict_payload) = encode_span(
            &i64_bytes(&values),
            8,
            &EncodingPolicy::default(),
            usize::MAX,
        )
        .unwrap();
        assert_eq!(enc, Encoding::Dict);
        let last = dict_payload.len() - 1;
        dict_payload[last] = 200;
        assert!(span_view(&dict_payload, 8).is_err());
        assert!(span_value_offset(&dict_payload, 8, 99).is_err());
        // Empty payload.
        assert!(span_view(&[], 8).is_err());
    }

    #[test]
    fn stats_accumulate_and_expose_metrics() {
        let stats = EncodingStats::default();
        stats.record_pack(3, 2, 4096);
        stats.add_run_skips(10);
        stats.add_run_skips(0);
        assert_eq!(
            (
                stats.rle_pages(),
                stats.dict_pages(),
                stats.bytes_saved(),
                stats.run_skips()
            ),
            (3, 2, 4096, 10)
        );
        assert_eq!(stats.source_name(), "encoding");
        let metrics = stats.collect();
        assert_eq!(metrics.len(), 4);
        assert!(metrics
            .iter()
            .any(|(n, v)| *n == "run_skips" && *v == MetricValue::Counter(10)));
    }
}
