//! Zone-map indexing per sample level.
//!
//! Section 2.6 ("Indexing"): "When querying an indexed column or sets of
//! columns, then the slide gesture becomes the equivalent of an index scan.
//! Having a hierarchy of samples directly affects indexing decisions; for
//! example, dbTouch can maintain a separate index for each sample level."
//!
//! A [`ZoneMapIndex`] partitions a column into fixed-size blocks and keeps the
//! minimum and maximum value of each block. Selection predicates can then skip
//! blocks whose `[min, max]` interval cannot contain matching rows, which is
//! what turns a slide over an indexed column into an index scan: touches that
//! land in skippable blocks are answered without reading the block at all.
//!
//! Encoded paged columns (see [`crate::encoding`]) need no special handling
//! here: [`ZoneMapIndex::build`] goes through `Column::segment_range_stats`,
//! which aggregates RLE runs and dictionary codes directly, so building over
//! an encoded column yields bit-identical zones (and exact block sums) at a
//! fraction of the decode work — a constant run is just the degenerate zone
//! map whose block min equals its max.

use crate::column::Column;
use crate::segment::{SegmentStats, SegmentSum};
use dbtouch_types::wire::{Wire, WireReader, WireWriter};
use dbtouch_types::{DbTouchError, Result, RowRange};
use serde::{Deserialize, Serialize};

/// Per-block minimum/maximum index over a numeric column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZoneMapIndex {
    block_rows: u64,
    column_len: u64,
    /// `(min, max)` per block, in block order.
    zones: Vec<(f64, f64)>,
    /// Exact per-block `i128` sums, kept for integer columns only. With them,
    /// a block-aligned segment can be *answered* from the index — count, sum,
    /// min and max — bit-identically to scanning it, so the segment kernel
    /// skips the data entirely (see [`segment_stats`](Self::segment_stats)).
    sums: Option<Vec<i128>>,
}

/// Hand-written so a decoded zone map passes the validation of
/// [`from_parts`](ZoneMapIndex::from_parts) and
/// [`with_block_sums`](ZoneMapIndex::with_block_sums): block rows, column
/// length, the zones, then the optional block sums.
impl Wire for ZoneMapIndex {
    const MIN_BYTES: usize =
        2 * u64::MIN_BYTES + Vec::<(f64, f64)>::MIN_BYTES + Option::<Vec<i128>>::MIN_BYTES;
    fn put(&self, w: &mut WireWriter) {
        self.block_rows.put(w);
        self.column_len.put(w);
        self.zones.put(w);
        self.sums.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let index = ZoneMapIndex::from_parts(r.get()?, r.get()?, r.get()?)?;
        match r.get()? {
            Some(sums) => index.with_block_sums(sums),
            None => Ok(index),
        }
    }
}

impl ZoneMapIndex {
    /// Build a zone map with `block_rows` rows per block over a numeric column.
    /// Integer columns also record exact per-block sums.
    pub fn build(column: &Column, block_rows: u64) -> Result<ZoneMapIndex> {
        if !column.data_type().is_numeric() {
            return Err(DbTouchError::TypeMismatch {
                expected: "numeric".into(),
                found: column.data_type().name(),
            });
        }
        let block_rows = block_rows.max(1);
        let len = column.len();
        let integer = column.data_type().is_integer();
        let block_count = len.div_ceil(block_rows);
        let mut zones = Vec::with_capacity(block_count as usize);
        let mut sums = integer.then(|| Vec::with_capacity(block_count as usize));
        for b in 0..block_count {
            let range = RowRange::new(b * block_rows, ((b + 1) * block_rows).min(len));
            let stats = column.segment_range_stats(range)?;
            // Blocks are never empty because block_count is derived from len.
            zones.push((stats.min.unwrap_or(f64::NAN), stats.max.unwrap_or(f64::NAN)));
            if let (Some(sums), SegmentSum::Int(s)) = (sums.as_mut(), stats.sum) {
                sums.push(s);
            }
        }
        Ok(ZoneMapIndex {
            block_rows,
            column_len: len,
            zones,
            sums,
        })
    }

    /// Rebuild a zone map from its persisted parts (inverse of
    /// [`zones`](ZoneMapIndex::zones) + the geometry accessors). The zone
    /// count must match the geometry. Block sums, if any, are attached with
    /// [`with_block_sums`](Self::with_block_sums).
    pub fn from_parts(
        block_rows: u64,
        column_len: u64,
        zones: Vec<(f64, f64)>,
    ) -> Result<ZoneMapIndex> {
        let block_rows = block_rows.max(1);
        if zones.len() as u64 != column_len.div_ceil(block_rows) {
            return Err(DbTouchError::Corrupt(format!(
                "zone map claims {} blocks for {column_len} rows of {block_rows}",
                zones.len()
            )));
        }
        Ok(ZoneMapIndex {
            block_rows,
            column_len,
            zones,
            sums: None,
        })
    }

    /// Attach persisted exact per-block sums (one per zone).
    pub fn with_block_sums(mut self, sums: Vec<i128>) -> Result<ZoneMapIndex> {
        if sums.len() != self.zones.len() {
            return Err(DbTouchError::Corrupt(format!(
                "zone map has {} blocks but {} block sums",
                self.zones.len(),
                sums.len()
            )));
        }
        self.sums = Some(sums);
        Ok(self)
    }

    /// Answer a block-aligned segment from the index alone, bit-identically
    /// to scanning it: exact `i128` sum from the stored block sums, min/max
    /// folded across block bounds (associative, so identical to the
    /// per-element fold). Returns `None` unless sums are present and `range`
    /// is non-empty, within the column, and block-aligned at both ends (the
    /// column end counts as aligned).
    pub fn segment_stats(&self, range: RowRange) -> Option<SegmentStats> {
        let sums = self.sums.as_ref()?;
        if range.start >= range.end
            || range.end > self.column_len
            || !range.start.is_multiple_of(self.block_rows)
            || (!range.end.is_multiple_of(self.block_rows) && range.end != self.column_len)
        {
            return None;
        }
        let first = (range.start / self.block_rows) as usize;
        let last = range.end.div_ceil(self.block_rows) as usize;
        let mut stats = SegmentStats::empty(true);
        let mut sum = 0i128;
        for (b, block_sum) in sums.iter().enumerate().take(last).skip(first) {
            let (bmin, bmax) = self.zones[b];
            sum += block_sum;
            stats.count += self.block_range(b).len();
            stats.min = Some(stats.min.map_or(bmin, |m| m.min(bmin)));
            stats.max = Some(stats.max.map_or(bmax, |m| m.max(bmax)));
        }
        stats.sum = SegmentSum::Int(sum);
        Some(stats)
    }

    /// The `(min, max)` pairs of every block, in block order.
    pub fn zones(&self) -> &[(f64, f64)] {
        &self.zones
    }

    /// Rows per block.
    pub fn block_rows(&self) -> u64 {
        self.block_rows
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.zones.len()
    }

    /// The row range covered by block `b`.
    pub fn block_range(&self, b: usize) -> RowRange {
        let start = b as u64 * self.block_rows;
        RowRange::new(start, (start + self.block_rows).min(self.column_len))
    }

    /// True if block `b` might contain a value in `[lo, hi]`.
    pub fn block_may_match(&self, b: usize, lo: f64, hi: f64) -> bool {
        match self.zones.get(b) {
            Some(&(bmin, bmax)) => bmax >= lo && bmin <= hi,
            None => false,
        }
    }

    /// True if the block containing `row` might contain a value in `[lo, hi]`.
    /// Rows beyond the column are reported as non-matching.
    pub fn row_block_may_match(&self, row: u64, lo: f64, hi: f64) -> bool {
        if row >= self.column_len {
            return false;
        }
        self.block_may_match((row / self.block_rows) as usize, lo, hi)
    }

    /// The row ranges of all blocks that may contain values in `[lo, hi]`.
    pub fn candidate_ranges(&self, lo: f64, hi: f64) -> Vec<RowRange> {
        (0..self.block_count())
            .filter(|&b| self.block_may_match(b, lo, hi))
            .map(|b| self.block_range(b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_column() -> Column {
        Column::from_i64("c", (0..100).collect())
    }

    #[test]
    fn build_and_block_geometry() {
        let idx = ZoneMapIndex::build(&sorted_column(), 10).unwrap();
        assert_eq!(idx.block_count(), 10);
        assert_eq!(idx.block_rows(), 10);
        assert_eq!(idx.block_range(0), RowRange::new(0, 10));
        assert_eq!(idx.block_range(9), RowRange::new(90, 100));
        assert_eq!(idx.zones()[3], (30.0, 39.0));
        assert_eq!(idx.zones().get(10), None);
    }

    #[test]
    fn uneven_last_block() {
        let c = Column::from_i64("c", (0..25).collect());
        let idx = ZoneMapIndex::build(&c, 10).unwrap();
        assert_eq!(idx.block_count(), 3);
        assert_eq!(idx.block_range(2), RowRange::new(20, 25));
        assert_eq!(idx.zones()[2], (20.0, 24.0));
    }

    #[test]
    fn block_matching() {
        let idx = ZoneMapIndex::build(&sorted_column(), 10).unwrap();
        assert!(idx.block_may_match(2, 25.0, 27.0));
        assert!(!idx.block_may_match(2, 35.0, 40.0));
        assert!(idx.row_block_may_match(22, 25.0, 27.0));
        assert!(!idx.row_block_may_match(55, 25.0, 27.0));
        assert!(!idx.row_block_may_match(1000, 0.0, 100.0));
    }

    #[test]
    fn candidate_ranges_and_selectivity() {
        let idx = ZoneMapIndex::build(&sorted_column(), 10).unwrap();
        let ranges = idx.candidate_ranges(15.0, 34.0);
        assert_eq!(
            ranges,
            vec![
                RowRange::new(10, 20),
                RowRange::new(20, 30),
                RowRange::new(30, 40)
            ]
        );
        // 7 of 10 blocks skipped; an all-covering predicate skips none, a
        // disjoint one every block.
        assert_eq!(idx.candidate_ranges(-100.0, 1000.0).len(), 10);
        assert!(idx.candidate_ranges(1000.0, 2000.0).is_empty());
    }

    #[test]
    fn integer_columns_record_exact_block_sums() {
        let idx = ZoneMapIndex::build(&sorted_column(), 10).unwrap();
        let block = idx.segment_stats(RowRange::new(30, 40)).unwrap();
        assert_eq!(block.sum, SegmentSum::Int((30..40).sum::<i128>()));
        let f = Column::from_f64("f", vec![1.0, 2.0, 3.0]);
        let fidx = ZoneMapIndex::build(&f, 2).unwrap();
        assert!(fidx.segment_stats(RowRange::new(0, 2)).is_none());
    }

    #[test]
    fn segment_stats_answer_equals_scanning() {
        let c = Column::from_i64("c", (0..95).map(|v| v * 7 - 300).collect());
        let idx = ZoneMapIndex::build(&c, 10).unwrap();
        // Block-aligned interior segment and ragged column tail.
        for (start, end) in [(20, 50), (0, 95), (90, 95)] {
            let answered = idx.segment_stats(RowRange::new(start, end)).unwrap();
            let scanned = c.segment_range_stats(RowRange::new(start, end)).unwrap();
            assert_eq!(answered, scanned);
        }
        // Unaligned, out-of-bounds, and empty segments are not answerable.
        assert!(idx.segment_stats(RowRange::new(5, 20)).is_none());
        assert!(idx.segment_stats(RowRange::new(20, 45)).is_none());
        assert!(idx.segment_stats(RowRange::new(0, 100)).is_none());
        assert!(idx.segment_stats(RowRange::new(10, 10)).is_none());
        // Float indexes have no sums, so they never answer.
        let f = Column::from_f64("f", (0..40).map(|v| v as f64).collect());
        let fidx = ZoneMapIndex::build(&f, 10).unwrap();
        assert!(fidx.segment_stats(RowRange::new(0, 40)).is_none());
    }

    #[test]
    fn with_block_sums_round_trip_and_validation() {
        let built = ZoneMapIndex::build(&sorted_column(), 10).unwrap();
        let restored = ZoneMapIndex::from_parts(10, 100, built.zones().to_vec()).unwrap();
        assert!(restored.segment_stats(RowRange::new(0, 10)).is_none());
        let sums = (0..10).map(|b| (b * 10..b * 10 + 10).sum()).collect();
        let restored = restored.with_block_sums(sums).unwrap();
        assert_eq!(restored, built);
        let bad = ZoneMapIndex::from_parts(10, 100, built.zones().to_vec()).unwrap();
        assert!(bad.with_block_sums(vec![0; 3]).is_err());
    }

    #[test]
    fn non_numeric_rejected() {
        let c = Column::from_strings("s", 4, &["a", "b"]).unwrap();
        assert!(ZoneMapIndex::build(&c, 10).is_err());
    }

    #[test]
    fn empty_column_index() {
        let c = Column::from_i64("c", vec![]);
        let idx = ZoneMapIndex::build(&c, 10).unwrap();
        assert_eq!(idx.block_count(), 0);
        assert!(idx.candidate_ranges(0.0, 1.0).is_empty());
    }

    #[test]
    fn encoded_paged_columns_index_identically() {
        use crate::encoding::EncodingPolicy;
        use crate::pager::{PagedColumn, Pager};
        use std::sync::Arc;
        // Long runs of a handful of values: packs RLE/dict under the default
        // policy.
        let c = Column::from_i64("c", (0..3000).map(|i| (i / 300) % 4).collect());
        let expected = ZoneMapIndex::build(&c, 128).unwrap();
        let dir = std::env::temp_dir().join(format!("dbtouch-index-enc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pager =
            std::sync::Arc::new(Pager::open_or_create(dir.join("pages.dat"), 256, 64).unwrap());
        for policy in [EncodingPolicy::disabled(), EncodingPolicy::default()] {
            let extent = c.persist_to_encoded(&pager, &policy).unwrap();
            assert_eq!(extent.is_packed(), policy.enabled);
            let paged = Column::paged("c", PagedColumn::new(Arc::clone(&pager), extent).unwrap());
            let idx = ZoneMapIndex::build(&paged, 128).unwrap();
            assert_eq!(idx, expected);
            // Constant blocks degenerate to min == max, so a predicate on
            // any other value prunes them without touching data.
            assert_eq!(idx.zones()[0], (0.0, 0.0));
            assert!(!idx.block_may_match(0, 1.0, 3.0));
            // Block-aligned segments answer from stored sums either way.
            let answered = idx.segment_stats(RowRange::new(128, 512)).unwrap();
            assert_eq!(
                answered,
                c.segment_range_stats(RowRange::new(128, 512)).unwrap()
            );
        }
    }

    #[test]
    fn zero_block_rows_clamped() {
        let idx = ZoneMapIndex::build(&sorted_column(), 0).unwrap();
        assert_eq!(idx.block_rows(), 1);
        assert_eq!(idx.block_count(), 100);
    }
}
