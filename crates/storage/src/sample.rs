//! Sample-based storage: hierarchies of progressively coarser samples.
//!
//! Section 2.6 ("Sample-based Storage"): querying via slide gestures is
//! equivalent to processing a sample of the underlying data, so "a better
//! approach would be to store separately various different samples of the base
//! data and depending on the object size and gesture speed feed from the proper
//! copy, minimizing the auxiliary data reads". The paper cites the Sciborg
//! hierarchy-of-samples idea.
//!
//! A [`SampleHierarchy`] keeps level 0 = base data and level `i` = every
//! `2^i`-th row of the base data. Its [`LevelShape`] — base rows and level
//! count, no values — is all a touch plan needs: given a requested
//! granularity (how many base rows one touch is expected to cover),
//! [`LevelShape::level_for_stride`] picks the coarsest level that still
//! distinguishes the touched rows, and [`LevelShape::map_row`] translates
//! base-data row identifiers into rows of that sample.

use crate::column::Column;
use dbtouch_types::{DbTouchError, Result, RowId};
use serde::{Deserialize, Serialize};

/// A hierarchy of strided samples over one column.
///
/// ```
/// use dbtouch_storage::column::Column;
/// use dbtouch_storage::sample::SampleHierarchy;
/// use dbtouch_types::RowId;
///
/// let hierarchy = SampleHierarchy::build(Column::from_i64("c", (0..1024).collect()), 6).unwrap();
/// let shape = hierarchy.shape();
/// // A gesture expected to skip ~16 base rows per touch reads level 4.
/// let level = shape.level_for_stride(16);
/// assert_eq!(level, 4);
/// assert_eq!(hierarchy.level(level).unwrap().len(), 64);
/// assert_eq!(shape.level_len(level).unwrap(), 64);
/// // Base row 500 maps to sample row 31 of that level.
/// assert_eq!(shape.map_row(RowId(500), level).unwrap(), RowId(31));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleHierarchy {
    /// `levels[0]` is the base column; `levels[i]` keeps every `2^i`-th row.
    levels: Vec<Column>,
}

impl SampleHierarchy {
    /// Build a hierarchy with `level_count` levels (including the base level).
    /// `level_count` is clamped to at least 1; levels whose stride exceeds the
    /// column length are not materialized. Errors only when the base is a
    /// paged-backed column whose pages fail to read.
    pub fn build(base: Column, level_count: u8) -> Result<SampleHierarchy> {
        let level_count = level_count.max(1);
        let base_len = base.len();
        // Stride a paged base from one in-memory copy: striding the paged
        // column directly would stream the whole column through the buffer
        // pool once per level. The copy is transient (dropped after build);
        // level 0 keeps the paged reader so the hierarchy itself stays lazy.
        let materialized = base
            .paged_extent()
            .is_some()
            .then(|| base.materialized())
            .transpose()?;
        let mut levels = Vec::with_capacity(level_count as usize);
        levels.push(base);
        for level in 1..level_count {
            let stride = 1u64 << level;
            if stride >= base_len.max(1) {
                break;
            }
            let sampled = materialized
                .as_ref()
                .unwrap_or(&levels[0])
                .strided_sample(stride)?;
            levels.push(sampled);
        }
        Ok(SampleHierarchy { levels })
    }

    /// Rebuild a hierarchy from already-materialized levels (the persistent
    /// catalog stores each level as its own paged column, so reopening a
    /// catalog does not re-stride the base data). `levels[0]` must be the
    /// base column; the caller is responsible for the levels actually being
    /// `2^i`-strided samples of it.
    pub fn from_levels(levels: Vec<Column>) -> Result<SampleHierarchy> {
        if levels.is_empty() {
            return Err(DbTouchError::Corrupt(
                "a sample hierarchy needs at least its base level".into(),
            ));
        }
        Ok(SampleHierarchy { levels })
    }

    /// Number of levels actually materialized (>= 1).
    pub fn level_count(&self) -> u8 {
        self.levels.len() as u8
    }

    /// The base column (level 0).
    pub fn base(&self) -> &Column {
        &self.levels[0]
    }

    /// Number of rows in the base data.
    pub fn base_len(&self) -> u64 {
        self.levels[0].len()
    }

    /// The column at a given level.
    pub fn level(&self, level: u8) -> Result<&Column> {
        self.levels
            .get(level as usize)
            .ok_or(DbTouchError::InvalidSampleLevel {
                level,
                max: self.level_count(),
            })
    }

    /// The stride (in base rows) between two consecutive rows of `level`.
    pub fn stride(&self, level: u8) -> u64 {
        1u64 << level
    }

    /// The hierarchy's shape: base rows and materialized levels.
    pub fn shape(&self) -> LevelShape {
        LevelShape {
            base_rows: self.base_len(),
            level_count: self.level_count(),
        }
    }

    /// Map a row of `level` back to the base-data row it was sampled from.
    pub fn unmap_row(&self, sample_row: RowId, level: u8) -> Result<RowId> {
        self.level(level)?; // validate level
        let base = RowId(sample_row.0 * self.stride(level));
        Ok(base.clamp_to(self.base_len()).unwrap_or(RowId::ZERO))
    }
}

/// The shape of a sample hierarchy: how many base rows it samples and how
/// many levels it materializes. Level `i` holds every `2^i`-th base row, so
/// the shape alone fixes every level's length and every row mapping — a
/// touch plan reads it and never a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelShape {
    /// Rows of the base data (level 0).
    pub base_rows: u64,
    /// Levels materialized (>= 1).
    pub level_count: u8,
}

impl LevelShape {
    /// Rows held by `level`: every `2^level`-th base row, the first included.
    pub fn level_len(&self, level: u8) -> Result<u64> {
        if level >= self.level_count {
            return Err(DbTouchError::InvalidSampleLevel {
                level,
                max: self.level_count,
            });
        }
        Ok(self.base_rows.div_ceil(1u64 << level))
    }

    /// Pick the coarsest level whose stride does not exceed `stride` (the
    /// expected number of base rows between two consecutive touches). A stride
    /// of 0 or 1 always selects the base level.
    pub fn level_for_stride(&self, stride: u64) -> u8 {
        if stride <= 1 {
            return 0;
        }
        // floor(log2(stride)), clamped to the materialized levels.
        let wanted = 63 - stride.leading_zeros() as u8;
        wanted.min(self.level_count.saturating_sub(1))
    }

    /// Map a base-data row identifier to the nearest row of `level`.
    pub fn map_row(&self, base_row: RowId, level: u8) -> Result<RowId> {
        let len = self.level_len(level)?;
        let mapped = RowId(base_row.0 >> level);
        Ok(mapped.clamp_to(len).unwrap_or(RowId::ZERO))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtouch_types::Value;

    fn hierarchy() -> SampleHierarchy {
        SampleHierarchy::build(Column::from_i64("c", (0..1000).collect()), 6).unwrap()
    }

    #[test]
    fn builds_expected_levels() {
        let h = hierarchy();
        assert_eq!(h.level_count(), 6);
        assert_eq!(h.base_len(), 1000);
        for level in 0..6 {
            assert_eq!(
                h.shape().level_len(level).unwrap(),
                h.level(level).unwrap().len()
            );
        }
        assert!(h.shape().level_len(6).is_err());
        assert_eq!(h.level(1).unwrap().len(), 500);
        assert_eq!(h.level(5).unwrap().len(), 1000 / 32 + 1);
        assert!(h.level(6).is_err());
    }

    #[test]
    fn level_values_come_from_base() {
        let h = hierarchy();
        // level 3 keeps every 8th value
        let l3 = h.level(3).unwrap();
        assert_eq!(l3.get(RowId(0)).unwrap(), Value::Int(0));
        assert_eq!(l3.get(RowId(5)).unwrap(), Value::Int(40));
    }

    #[test]
    fn small_columns_do_not_materialize_useless_levels() {
        let h = SampleHierarchy::build(Column::from_i64("c", (0..4).collect()), 8).unwrap();
        // strides 1, 2 are useful; stride 4 >= len so not materialized
        assert_eq!(h.level_count(), 2);
    }

    #[test]
    fn empty_column_has_single_level() {
        let h = SampleHierarchy::build(Column::from_i64("c", vec![]), 4).unwrap();
        assert_eq!(h.level_count(), 1);
        assert_eq!(h.base_len(), 0);
    }

    #[test]
    fn zero_level_count_clamped() {
        let h = SampleHierarchy::build(Column::from_i64("c", (0..10).collect()), 0).unwrap();
        assert_eq!(h.level_count(), 1);
    }

    #[test]
    fn level_for_stride_picks_coarsest_fitting() {
        let h = hierarchy().shape();
        assert_eq!(h.level_for_stride(0), 0);
        assert_eq!(h.level_for_stride(1), 0);
        assert_eq!(h.level_for_stride(2), 1);
        assert_eq!(h.level_for_stride(3), 1);
        assert_eq!(h.level_for_stride(8), 3);
        assert_eq!(h.level_for_stride(1000), 5); // clamped to materialized levels
    }

    #[test]
    fn map_row_and_back() {
        let h = hierarchy();
        let mapped = h.shape().map_row(RowId(100), 3).unwrap();
        assert_eq!(mapped, RowId(12));
        let back = h.unmap_row(mapped, 3).unwrap();
        assert_eq!(back, RowId(96));
        assert!(back.distance(RowId(100)) < h.stride(3));
    }

    #[test]
    fn auxiliary_bytes_less_than_base() {
        let h = hierarchy();
        let auxiliary: u64 = (1..h.level_count())
            .map(|level| h.level(level).unwrap().byte_size())
            .sum();
        assert!(auxiliary > 0);
        assert!(auxiliary < h.base().byte_size());
    }

    #[test]
    fn map_row_clamps_to_level_length() {
        let h = hierarchy();
        let last = h.shape().map_row(RowId(999), 5).unwrap();
        assert!(last.0 < h.level(5).unwrap().len());
    }
}
