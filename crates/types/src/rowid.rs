//! Tuple identifiers and row ranges.
//!
//! Section 2.4 of the paper ("From Touch to Tuple Identifiers") defines the core
//! translation: a touch at location `t` over an object of size `o` representing
//! `n` tuples addresses tuple identifier `id = n * t / o` (the Rule of Three).
//! `RowId` is the result of that mapping; `RowRange` captures the `[id-k, id+k]`
//! windows used by interactive summaries and the ranges the prefetch policy
//! plans.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// A tuple identifier (0-based position in a column or table).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct RowId(pub u64);

impl RowId {
    /// The zero row id.
    pub const ZERO: RowId = RowId(0);

    /// Underlying index as `usize` for slice indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Saturating addition: never exceeds `u64::MAX`.
    pub fn saturating_add(self, delta: u64) -> RowId {
        RowId(self.0.saturating_add(delta))
    }

    /// Saturating subtraction: never goes below zero.
    pub fn saturating_sub(self, delta: u64) -> RowId {
        RowId(self.0.saturating_sub(delta))
    }

    /// Clamp the row id to `[0, len)`. Returns `None` if `len == 0`.
    pub fn clamp_to(self, len: u64) -> Option<RowId> {
        if len == 0 {
            None
        } else {
            Some(RowId(self.0.min(len - 1)))
        }
    }

    /// Absolute distance (in rows) between two row ids.
    pub fn distance(self, other: RowId) -> u64 {
        self.0.abs_diff(other.0)
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u64> for RowId {
    fn from(v: u64) -> Self {
        RowId(v)
    }
}

impl From<usize> for RowId {
    fn from(v: usize) -> Self {
        RowId(v as u64)
    }
}

/// A half-open range of row identifiers `[start, end)`.
///
/// Used for interactive-summary windows, segment plans and planned prefetch
/// ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RowRange {
    /// First row in the range.
    pub start: u64,
    /// One past the last row in the range.
    pub end: u64,
}

impl RowRange {
    /// Create a new range; if `start > end` the range is normalized to empty at
    /// `start`.
    pub fn new(start: u64, end: u64) -> RowRange {
        if start > end {
            RowRange { start, end: start }
        } else {
            RowRange { start, end }
        }
    }

    /// An empty range positioned at `at`.
    pub fn empty(at: u64) -> RowRange {
        RowRange { start: at, end: at }
    }

    /// The centred window `[center-k, center+k]` (inclusive of both ends),
    /// clamped to `[0, len)`. This is exactly the interactive-summary window of
    /// Section 2.7. Returns an empty range when `len == 0`.
    pub fn window(center: RowId, k: u64, len: u64) -> RowRange {
        if len == 0 {
            return RowRange::empty(0);
        }
        let c = center.0.min(len - 1);
        let start = c.saturating_sub(k);
        let end = (c.saturating_add(k).saturating_add(1)).min(len);
        RowRange { start, end }
    }

    /// Number of rows covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True if no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True if the row lies inside the range.
    pub fn contains(&self, row: RowId) -> bool {
        row.0 >= self.start && row.0 < self.end
    }

    /// Clamp the range to `[0, len)`.
    pub fn clamp_to(&self, len: u64) -> RowRange {
        RowRange::new(self.start.min(len), self.end.min(len))
    }

    /// Iterate over the row ids in the range.
    pub fn iter(&self) -> impl Iterator<Item = RowId> {
        (self.start..self.end).map(RowId)
    }

    /// Convert to a `std::ops::Range<usize>` for slicing.
    pub fn as_usize_range(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

impl fmt::Display for RowRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl From<Range<u64>> for RowRange {
    fn from(r: Range<u64>) -> Self {
        RowRange::new(r.start, r.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowid_saturating_math() {
        assert_eq!(RowId(5).saturating_sub(10), RowId(0));
        assert_eq!(RowId(u64::MAX).saturating_add(1), RowId(u64::MAX));
        assert_eq!(RowId(3).saturating_add(4), RowId(7));
    }

    #[test]
    fn rowid_clamp() {
        assert_eq!(RowId(10).clamp_to(5), Some(RowId(4)));
        assert_eq!(RowId(2).clamp_to(5), Some(RowId(2)));
        assert_eq!(RowId(0).clamp_to(0), None);
    }

    #[test]
    fn rowid_distance_symmetric() {
        assert_eq!(RowId(3).distance(RowId(10)), 7);
        assert_eq!(RowId(10).distance(RowId(3)), 7);
        assert_eq!(RowId(4).distance(RowId(4)), 0);
    }

    #[test]
    fn range_normalizes_inverted() {
        let r = RowRange::new(10, 5);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn window_centred() {
        // center 10, k 2, len 100 -> [8, 13)
        let w = RowRange::window(RowId(10), 2, 100);
        assert_eq!(w, RowRange::new(8, 13));
        assert_eq!(w.len(), 5);
    }

    #[test]
    fn window_clamped_at_start_and_end() {
        assert_eq!(RowRange::window(RowId(1), 5, 100), RowRange::new(0, 7));
        assert_eq!(RowRange::window(RowId(99), 5, 100), RowRange::new(94, 100));
        // center beyond len clamps to the last row
        assert_eq!(RowRange::window(RowId(500), 2, 100), RowRange::new(97, 100));
    }

    #[test]
    fn window_empty_data() {
        assert!(RowRange::window(RowId(3), 2, 0).is_empty());
    }

    #[test]
    fn contains_and_overlaps() {
        let r = RowRange::new(5, 10);
        assert!(r.contains(RowId(5)));
        assert!(r.contains(RowId(9)));
        assert!(!r.contains(RowId(10)));
    }

    #[test]
    fn iter_yields_all_rows() {
        let rows: Vec<u64> = RowRange::new(3, 6).iter().map(|r| r.0).collect();
        assert_eq!(rows, vec![3, 4, 5]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(RowId(7).to_string(), "#7");
        assert_eq!(RowRange::new(1, 4).to_string(), "[1, 4)");
    }
}
