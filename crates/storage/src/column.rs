//! Fixed-width dense columns.
//!
//! A [`Column`] is the basic storage unit: a dense, fixed-width array of values
//! of a single data type. The paper's prototype stores data exactly this way
//! ("data is stored in fixed-width dense arrays or matrixes") because the
//! touch-to-tuple mapping and the tuple-to-byte-offset mapping must both be pure
//! arithmetic to keep per-touch response times low.

use crate::encoding::EncodingPolicy;
use crate::fold::{Elem, Exact, Ordered, RangeFold, Sum};
use crate::pager::{append_row_bytes_encoded, ColumnExtent, PagedColumn, Pager};
use crate::segment::SegmentStats;
use dbtouch_types::{DataType, DbTouchError, Result, RowId, RowRange, Value};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Typed storage for a column's values.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum ColumnData {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Bool(Vec<bool>),
    /// Fixed-width, zero-padded UTF-8 strings stored back-to-back.
    FixedStr {
        width: u16,
        bytes: Vec<u8>,
    },
    Timestamp(Vec<i64>),
    /// Rows live in a page extent of a persistent store and fault through
    /// the store's buffer pool on first touch (see [`crate::pager`]). A
    /// paged column is immutable and reads bit-identically to the in-memory
    /// column it was persisted from.
    Paged(PagedColumn),
}

/// A named, fixed-width, dense column.
///
/// ```
/// use dbtouch_storage::column::Column;
/// use dbtouch_types::{RowId, RowRange, Value};
///
/// let column = Column::from_i64("measurements", vec![10, 20, 30, 40]);
/// assert_eq!(column.len(), 4);
/// assert_eq!(column.get(RowId(2)).unwrap(), Value::Int(30));
///
/// // Range statistics are the building block of interactive summaries.
/// let (count, sum, min, max) = column.numeric_range_stats(RowRange::new(1, 4)).unwrap();
/// assert_eq!((count, sum), (3, 90.0));
/// assert_eq!((min, max), (Some(20.0), Some(40.0)));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Column {
    name: String,
    /// Shared by every clone and copied on the first push to a shared one,
    /// so a table's matrix, level 0 of its sample hierarchies and every
    /// object a restructure moves the column into hold one buffer.
    data: Arc<ColumnData>,
}

/// Columns compare by *logical content* — name, type and row values — so an
/// in-memory column equals the paged-backed column it was persisted as.
/// Inline columns of the same representation still compare storage-to-storage
/// (no per-row decoding).
impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        if self.name != other.name {
            return false;
        }
        match (&*self.data, &*other.data) {
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a == b,
            (ColumnData::Float64(a), ColumnData::Float64(b)) => a == b,
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a == b,
            (ColumnData::Timestamp(a), ColumnData::Timestamp(b)) => a == b,
            (
                ColumnData::FixedStr {
                    width: wa,
                    bytes: ba,
                },
                ColumnData::FixedStr {
                    width: wb,
                    bytes: bb,
                },
            ) => wa == wb && ba == bb,
            _ => {
                self.data_type() == other.data_type()
                    && self.len() == other.len()
                    && self.iter().eq(other.iter())
            }
        }
    }
}

/// Fold one in-memory span of typed values.
fn fold_values<T: Elem, S: Sum<T>>(values: &[T]) -> SegmentStats {
    let mut fold = RangeFold::<S>::default();
    fold.raw(values.iter().copied());
    fold.finish()
}

impl Column {
    /// Build an `Int64` column from raw values.
    pub fn from_i64(name: impl Into<String>, values: Vec<i64>) -> Column {
        Column {
            name: name.into(),
            data: Arc::new(ColumnData::Int64(values)),
        }
    }

    /// Build a `Float64` column from raw values.
    pub fn from_f64(name: impl Into<String>, values: Vec<f64>) -> Column {
        Column {
            name: name.into(),
            data: Arc::new(ColumnData::Float64(values)),
        }
    }

    /// Build a `Timestamp` column from raw millisecond values.
    pub fn from_timestamps(name: impl Into<String>, values: Vec<i64>) -> Column {
        Column {
            name: name.into(),
            data: Arc::new(ColumnData::Timestamp(values)),
        }
    }

    /// Build a fixed-width string column. Strings longer than `width` bytes are
    /// rejected.
    pub fn from_strings(
        name: impl Into<String>,
        width: u16,
        values: &[impl AsRef<str>],
    ) -> Result<Column> {
        let mut bytes = vec![0u8; values.len() * width as usize];
        for (i, s) in values.iter().enumerate() {
            let s = s.as_ref().as_bytes();
            if s.len() > width as usize {
                return Err(DbTouchError::TypeMismatch {
                    expected: format!("str{width}"),
                    found: format!("str of {} bytes", s.len()),
                });
            }
            bytes[i * width as usize..i * width as usize + s.len()].copy_from_slice(s);
        }
        Ok(Column {
            name: name.into(),
            data: Arc::new(ColumnData::FixedStr { width, bytes }),
        })
    }

    /// Build an empty column of the given type.
    pub fn empty(name: impl Into<String>, dt: DataType) -> Column {
        let data = match dt {
            DataType::Int64 => ColumnData::Int64(Vec::new()),
            DataType::Float64 => ColumnData::Float64(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::TimestampMillis => ColumnData::Timestamp(Vec::new()),
            DataType::FixedStr(w) => ColumnData::FixedStr {
                width: w,
                bytes: Vec::new(),
            },
        };
        Column {
            name: name.into(),
            data: Arc::new(data),
        }
    }

    /// Wrap a [`PagedColumn`] reader as a column: rows fault through the
    /// store's buffer pool on first touch instead of living in memory. This
    /// is how a reopened catalog's columns are built.
    pub fn paged(name: impl Into<String>, reader: PagedColumn) -> Column {
        Column {
            name: name.into(),
            data: Arc::new(ColumnData::Paged(reader)),
        }
    }

    /// The page extent behind this column, when it is paged-backed.
    pub fn paged_extent(&self) -> Option<ColumnExtent> {
        match &*self.data {
            ColumnData::Paged(p) => Some(p.extent()),
            _ => None,
        }
    }

    /// An in-memory copy of this column: a cheap clone when it is already
    /// inline, a full read through the buffer pool when it is paged-backed.
    /// The paged path decodes whole page payloads into the typed storage at
    /// once — no per-row `Value` boxing — so a page fault amortizes over all
    /// the rows it holds.
    pub fn materialized(&self) -> Result<Column> {
        let ColumnData::Paged(p) = &*self.data else {
            return Ok(self.clone());
        };
        let raw = p.raw_row_bytes()?;
        Column::from_raw_bytes(self.name.clone(), p.data_type(), raw)
    }

    /// Build a typed in-memory column from verbatim fixed-width row bytes
    /// (the layout `Value::encode` and the page path share).
    pub fn from_raw_bytes(name: impl Into<String>, dt: DataType, raw: Vec<u8>) -> Result<Column> {
        let name = name.into();
        let width = dt.width_bytes();
        if width == 0 || !raw.len().is_multiple_of(width) {
            return Err(DbTouchError::Corrupt(format!(
                "column {name:?}: {} raw bytes do not divide into width-{width} rows",
                raw.len()
            )));
        }
        let decode_i64s = |raw: &[u8]| -> Vec<i64> {
            raw.chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        let data = match dt {
            DataType::Int64 => ColumnData::Int64(decode_i64s(&raw)),
            DataType::TimestampMillis => ColumnData::Timestamp(decode_i64s(&raw)),
            DataType::Float64 => ColumnData::Float64(
                raw.chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            DataType::Bool => ColumnData::Bool(raw.iter().map(|&b| b != 0).collect()),
            DataType::FixedStr(width) => ColumnData::FixedStr { width, bytes: raw },
        };
        Ok(Column {
            name,
            data: Arc::new(data),
        })
    }

    /// Append this column's rows to a persistent store's page file in the raw
    /// layout, returning the extent written. The encoding is the same
    /// fixed-width little-endian layout row-major matrixes use
    /// (`Value::encode`), so paged reads decode bit-identically.
    pub fn persist_to(&self, pager: &Pager) -> Result<ColumnExtent> {
        self.persist_to_encoded(pager, &EncodingPolicy::disabled())
    }

    /// Append this column's rows to a persistent store's page file, packing
    /// them with whichever per-page encoding actually shrinks the page count
    /// under `policy` (see [`crate::encoding`]); incompressible columns fall
    /// back to the raw layout. Either way reads decode bit-identically.
    pub fn persist_to_encoded(
        &self,
        pager: &Pager,
        policy: &EncodingPolicy,
    ) -> Result<ColumnExtent> {
        let dt = self.data_type();
        let row_bytes: Vec<u8> = match &*self.data {
            ColumnData::Int64(v) | ColumnData::Timestamp(v) => {
                v.iter().flat_map(|x| x.to_le_bytes()).collect()
            }
            ColumnData::Float64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            ColumnData::Bool(v) => v.iter().map(|&b| u8::from(b)).collect(),
            ColumnData::FixedStr { bytes, .. } => bytes.clone(),
            // Decode to verbatim rows first: the destination store makes its
            // own packing decision (its policy or page size may differ).
            ColumnData::Paged(p) => p.raw_row_bytes()?,
        };
        append_row_bytes_encoded(pager, dt, self.len(), &row_bytes, policy)
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the column (used when a column is dragged out of a table into a
    /// new standalone object).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Data type of the column.
    pub fn data_type(&self) -> DataType {
        match &*self.data {
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::FixedStr { width, .. } => DataType::FixedStr(*width),
            ColumnData::Timestamp(_) => DataType::TimestampMillis,
            ColumnData::Paged(p) => p.data_type(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> u64 {
        match &*self.data {
            ColumnData::Int64(v) => v.len() as u64,
            ColumnData::Float64(v) => v.len() as u64,
            ColumnData::Bool(v) => v.len() as u64,
            ColumnData::FixedStr { width, bytes } => {
                if *width == 0 {
                    0
                } else {
                    (bytes.len() / *width as usize) as u64
                }
            }
            ColumnData::Timestamp(v) => v.len() as u64,
            ColumnData::Paged(p) => p.rows(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the column's data in bytes (used to account for bytes touched
    /// in the benchmarks and to size buffer pools). For paged-backed columns
    /// this is the *persisted* payload size — encoded columns report what
    /// they actually occupy on disk, not the logical fixed-width size.
    pub fn byte_size(&self) -> u64 {
        match &*self.data {
            ColumnData::Paged(p) => p.extent().payload_bytes,
            _ => self.len() * self.data_type().width_bytes() as u64,
        }
    }

    /// Append a value; its type must match the column type. Paged-backed
    /// columns are immutable (their rows live in a published on-disk extent)
    /// and reject every push.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (Arc::make_mut(&mut self.data), value) {
            (ColumnData::Paged(_), _) => {
                return Err(DbTouchError::InvalidPlan(
                    "paged columns are immutable; materialize before mutating".into(),
                ))
            }
            (ColumnData::Int64(v), Value::Int(x)) => v.push(x),
            (ColumnData::Float64(v), Value::Float(x)) => v.push(x),
            (ColumnData::Bool(v), Value::Bool(x)) => v.push(x),
            (ColumnData::Timestamp(v), Value::Timestamp(x)) => v.push(x),
            (ColumnData::FixedStr { width, bytes }, Value::Str(s)) => {
                let s = s.as_bytes();
                if s.len() > *width as usize {
                    return Err(DbTouchError::TypeMismatch {
                        expected: format!("str{width}"),
                        found: format!("str of {} bytes", s.len()),
                    });
                }
                let start = bytes.len();
                bytes.resize(start + *width as usize, 0);
                bytes[start..start + s.len()].copy_from_slice(s);
            }
            (_, v) => {
                return Err(DbTouchError::TypeMismatch {
                    expected: self.data_type().name(),
                    found: v.data_type().name(),
                })
            }
        }
        Ok(())
    }

    /// Read the value at `row`.
    pub fn get(&self, row: RowId) -> Result<Value> {
        let i = row.index();
        let len = self.len();
        if row.0 >= len {
            return Err(DbTouchError::RowOutOfBounds { row: row.0, len });
        }
        Ok(match &*self.data {
            ColumnData::Int64(v) => Value::Int(v[i]),
            ColumnData::Float64(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Timestamp(v) => Value::Timestamp(v[i]),
            ColumnData::FixedStr { width, bytes } => {
                let w = *width as usize;
                let slice = &bytes[i * w..(i + 1) * w];
                let end = slice.iter().position(|&b| b == 0).unwrap_or(w);
                Value::Str(String::from_utf8_lossy(&slice[..end]).into_owned())
            }
            ColumnData::Paged(p) => return p.value_at(row),
        })
    }

    /// Fast numeric accessor: the value at `row` as `f64`. Errors for
    /// non-numeric columns or out-of-bounds rows. This is the hot path used by
    /// running aggregates and interactive summaries.
    pub fn f64_at(&self, row: RowId) -> Result<f64> {
        let i = row.index();
        let len = self.len();
        if row.0 >= len {
            return Err(DbTouchError::RowOutOfBounds { row: row.0, len });
        }
        match &*self.data {
            ColumnData::Int64(v) => Ok(v[i] as f64),
            ColumnData::Float64(v) => Ok(v[i]),
            ColumnData::Timestamp(v) => Ok(v[i] as f64),
            ColumnData::Paged(p) => p.f64_at(row),
            _ => Err(DbTouchError::TypeMismatch {
                expected: "numeric".into(),
                found: self.data_type().name(),
            }),
        }
    }

    /// Materialize the values in a row range (clamped to the column length).
    pub fn slice(&self, range: RowRange) -> Vec<Value> {
        let range = range.clamp_to(self.len());
        range
            .iter()
            .map(|r| self.get(r).expect("clamped"))
            .collect()
    }

    /// Sum, count, minimum and maximum of the numeric values in `range`
    /// (clamped), folded in ascending row order. Returns `(count, sum, min,
    /// max)`; `min`/`max` are `None` when the clamped range is empty. Errors
    /// for non-numeric columns.
    pub fn numeric_range_stats(
        &self,
        range: RowRange,
    ) -> Result<(u64, f64, Option<f64>, Option<f64>)> {
        Ok(self.range_stats(range, false)?.as_tuple())
    }

    /// [`SegmentStats`] of the numeric values in `range` (clamped): the
    /// mergeable counterpart of [`numeric_range_stats`]. Integer columns
    /// accumulate their sum in exact `i128`, so segment results merge
    /// associatively and any decomposition of a window produces the same
    /// final value bit for bit; min/max fold the same `f64` conversions the
    /// sequential path folds. Float columns keep the ascending `f64` fold.
    ///
    /// [`numeric_range_stats`]: Column::numeric_range_stats
    pub fn segment_range_stats(&self, range: RowRange) -> Result<SegmentStats> {
        self.range_stats(range, true)
    }

    /// Present `range` to the one range fold ([`crate::fold`]) as a span of
    /// raw values; `exact` selects the `i128` sum for integer columns.
    fn range_stats(&self, range: RowRange, exact: bool) -> Result<SegmentStats> {
        if let ColumnData::Paged(p) = &*self.data {
            return p.range_stats(range, exact);
        }
        let rows = range.clamp_to(self.len()).as_usize_range();
        Ok(match &*self.data {
            ColumnData::Int64(v) | ColumnData::Timestamp(v) if exact => {
                fold_values::<_, Exact>(&v[rows])
            }
            ColumnData::Int64(v) | ColumnData::Timestamp(v) => fold_values::<_, Ordered>(&v[rows]),
            ColumnData::Float64(v) => fold_values::<_, Ordered>(&v[rows]),
            _ => {
                return Err(DbTouchError::TypeMismatch {
                    expected: "numeric".into(),
                    found: self.data_type().name(),
                })
            }
        })
    }

    /// Build a new column containing every `step`-th row starting at row 0.
    /// This is the primitive used to build the sample hierarchy. A `step` of 0
    /// is treated as 1. Errors only for paged-backed columns whose pages fail
    /// to read (I/O fault or corruption) — inline columns cannot fail.
    pub fn strided_sample(&self, step: u64) -> Result<Column> {
        let step = step.max(1) as usize;
        if let ColumnData::Paged(p) = &*self.data {
            // Sampling a paged column materializes the sample in memory (it
            // is a derived, smaller column). The page-at-a-time batch path
            // decodes each page once and faults only pages that hold a
            // sampled row — no per-row `get()` faults.
            let (raw, _) = p.strided_row_bytes(step as u64)?;
            return Column::from_raw_bytes(self.name.clone(), p.data_type(), raw);
        }
        let data = match &*self.data {
            ColumnData::Int64(v) => ColumnData::Int64(v.iter().step_by(step).copied().collect()),
            ColumnData::Float64(v) => {
                ColumnData::Float64(v.iter().step_by(step).copied().collect())
            }
            ColumnData::Bool(v) => ColumnData::Bool(v.iter().step_by(step).copied().collect()),
            ColumnData::Timestamp(v) => {
                ColumnData::Timestamp(v.iter().step_by(step).copied().collect())
            }
            ColumnData::FixedStr { width, bytes } => {
                let w = *width as usize;
                let n = bytes.len().checked_div(w).unwrap_or(0);
                let mut out = Vec::with_capacity((n / step + 1) * w);
                let mut i = 0;
                while i < n {
                    out.extend_from_slice(&bytes[i * w..(i + 1) * w]);
                    i += step;
                }
                ColumnData::FixedStr {
                    width: *width,
                    bytes: out,
                }
            }
            ColumnData::Paged(_) => unreachable!("materialized above"),
        };
        Ok(Column {
            name: self.name.clone(),
            data: Arc::new(data),
        })
    }

    /// Build a new column restricted to the rows of `range` (clamped).
    /// Errors only for paged-backed columns whose pages fail to read.
    pub fn project_range(&self, range: RowRange) -> Result<Column> {
        let range = range.clamp_to(self.len());
        if let ColumnData::Paged(p) = &*self.data {
            // Page-at-a-time batch decode: each page in the range faults and
            // decodes once, instead of one `get()` fault per row.
            let raw = p.range_raw_bytes(range)?;
            return Column::from_raw_bytes(self.name.clone(), p.data_type(), raw);
        }
        let r = range.as_usize_range();
        let data = match &*self.data {
            ColumnData::Int64(v) => ColumnData::Int64(v[r].to_vec()),
            ColumnData::Float64(v) => ColumnData::Float64(v[r].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[r].to_vec()),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(v[r].to_vec()),
            ColumnData::FixedStr { width, bytes } => {
                let w = *width as usize;
                ColumnData::FixedStr {
                    width: *width,
                    bytes: bytes[r.start * w..r.end * w].to_vec(),
                }
            }
            ColumnData::Paged(_) => unreachable!("materialized above"),
        };
        Ok(Column {
            name: self.name.clone(),
            data: Arc::new(data),
        })
    }

    /// Iterate over all values (allocates per string row only).
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(RowId(i)).expect("in bounds"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col() -> Column {
        Column::from_i64("c", (0..10).collect())
    }

    #[test]
    fn construction_and_metadata() {
        let c = int_col();
        assert_eq!(c.name(), "c");
        assert_eq!(c.len(), 10);
        assert!(!c.is_empty());
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.byte_size(), 80);
    }

    #[test]
    fn get_in_and_out_of_bounds() {
        let c = int_col();
        assert_eq!(c.get(RowId(3)).unwrap(), Value::Int(3));
        assert!(matches!(
            c.get(RowId(10)),
            Err(DbTouchError::RowOutOfBounds { row: 10, len: 10 })
        ));
    }

    #[test]
    fn f64_at_fast_path() {
        let c = int_col();
        assert_eq!(c.f64_at(RowId(7)).unwrap(), 7.0);
        let s = Column::from_strings("s", 4, &["a", "b"]).unwrap();
        assert!(s.f64_at(RowId(0)).is_err());
        assert!(c.f64_at(RowId(99)).is_err());
    }

    #[test]
    fn push_type_checked() {
        let mut c = Column::empty("x", DataType::Int64);
        c.push(Value::Int(5)).unwrap();
        assert!(c.push(Value::Float(1.0)).is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn string_column_round_trip() {
        let c = Column::from_strings("names", 8, &["ann", "bob", "charlie"]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(RowId(0)).unwrap(), Value::Str("ann".into()));
        assert_eq!(c.get(RowId(2)).unwrap(), Value::Str("charlie".into()));
        assert_eq!(c.data_type(), DataType::FixedStr(8));
    }

    #[test]
    fn string_too_wide_rejected() {
        assert!(Column::from_strings("names", 2, &["abc"]).is_err());
        let mut c = Column::empty("n", DataType::FixedStr(2));
        assert!(c.push(Value::Str("abc".into())).is_err());
    }

    #[test]
    fn from_values_dynamic() {
        let mut c = Column::empty("f", DataType::Float64);
        for v in [Value::Float(1.0), Value::Float(2.5)] {
            c.push(v).unwrap();
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(RowId(1)).unwrap(), Value::Float(2.5));
        assert!(Column::empty("f", DataType::Int64)
            .push(Value::Float(1.0))
            .is_err());
    }

    #[test]
    fn slice_clamps() {
        let c = int_col();
        let vals = c.slice(RowRange::new(8, 20));
        assert_eq!(vals, vec![Value::Int(8), Value::Int(9)]);
        assert!(c.slice(RowRange::new(20, 30)).is_empty());
    }

    #[test]
    fn numeric_range_stats_basic() {
        let c = int_col();
        let (count, sum, min, max) = c.numeric_range_stats(RowRange::new(2, 5)).unwrap();
        assert_eq!(count, 3);
        assert_eq!(sum, 2.0 + 3.0 + 4.0);
        assert_eq!(min, Some(2.0));
        assert_eq!(max, Some(4.0));
    }

    #[test]
    fn numeric_range_stats_empty_and_nonnumeric() {
        let c = int_col();
        let (count, sum, min, max) = c.numeric_range_stats(RowRange::new(10, 20)).unwrap();
        assert_eq!((count, sum, min, max), (0, 0.0, None, None));
        let s = Column::from_strings("s", 4, &["a"]).unwrap();
        assert!(s.numeric_range_stats(RowRange::new(0, 1)).is_err());
    }

    #[test]
    fn segment_range_stats_matches_numeric_range_stats() {
        let c = int_col();
        let seg = c.segment_range_stats(RowRange::new(2, 7)).unwrap();
        let (count, sum, min, max) = c.numeric_range_stats(RowRange::new(2, 7)).unwrap();
        assert_eq!(seg.as_tuple(), (count, sum, min, max));
        assert_eq!(seg.sum, crate::segment::SegmentSum::Int(2 + 3 + 4 + 5 + 6));
        let f = Column::from_f64("f", vec![0.5, 1.5, 2.5]);
        let seg = f.segment_range_stats(RowRange::new(0, 3)).unwrap();
        assert_eq!(seg.sum, crate::segment::SegmentSum::Float(4.5));
        let s = Column::from_strings("s", 4, &["a"]).unwrap();
        assert!(s.segment_range_stats(RowRange::new(0, 1)).is_err());
        // Clamped empty ranges are the typed identity.
        let empty = c.segment_range_stats(RowRange::new(50, 60)).unwrap();
        assert_eq!(empty, crate::segment::SegmentStats::empty(true));
    }

    #[test]
    fn segment_stats_merge_reconstructs_whole_window() {
        let c = int_col();
        let whole = c.segment_range_stats(RowRange::new(0, 10)).unwrap();
        let mut acc = crate::segment::SegmentStats::empty(true);
        for seg in crate::segment::plan_segments(RowRange::new(0, 10), 3) {
            acc.merge(&c.segment_range_stats(seg.range).unwrap());
        }
        assert_eq!(acc, whole);
    }

    #[test]
    fn strided_sample_every_other_row() {
        let c = int_col();
        let s = c.strided_sample(2).unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.get(RowId(2)).unwrap(), Value::Int(4));
        // step 0 behaves as step 1
        assert_eq!(c.strided_sample(0).unwrap().len(), 10);
    }

    #[test]
    fn strided_sample_strings() {
        let c = Column::from_strings("s", 4, &["a", "b", "c", "d", "e"]).unwrap();
        let s = c.strided_sample(2).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(RowId(1)).unwrap(), Value::Str("c".into()));
    }

    #[test]
    fn project_range_copies_rows() {
        let c = int_col();
        let p = c.project_range(RowRange::new(3, 6)).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.get(RowId(0)).unwrap(), Value::Int(3));
        let s = Column::from_strings("s", 4, &["a", "b", "c"]).unwrap();
        let sp = s.project_range(RowRange::new(1, 3)).unwrap();
        assert_eq!(sp.get(RowId(0)).unwrap(), Value::Str("b".into()));
    }

    #[test]
    fn iter_yields_everything() {
        let c = int_col();
        let total: i64 = c.iter().map(|v| v.as_i64().unwrap()).sum();
        assert_eq!(total, 45);
    }

    #[test]
    fn rename() {
        let mut c = int_col();
        c.set_name("renamed");
        assert_eq!(c.name(), "renamed");
    }

    #[test]
    fn empty_string_column_len() {
        let c = Column::empty("s", DataType::FixedStr(0));
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
    }

    fn paged_copy(col: &Column, policy: &EncodingPolicy, tag: &str) -> Column {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dbtouch-column-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let pager =
            std::sync::Arc::new(Pager::open_or_create(dir.join("pages.dat"), 256, 64).unwrap());
        let extent = col.persist_to_encoded(&pager, policy).unwrap();
        Column::paged(col.name(), PagedColumn::new(pager, extent).unwrap())
    }

    #[test]
    fn paged_byte_size_reports_persisted_payload() {
        let col = Column::from_i64("runs", (0..3000).map(|i| i / 500).collect());
        let raw = paged_copy(&col, &EncodingPolicy::disabled(), "size-raw");
        assert_eq!(raw.byte_size(), 3000 * 8);
        let packed = paged_copy(&col, &EncodingPolicy::default(), "size-packed");
        assert!(packed.paged_extent().unwrap().is_packed());
        assert!(
            packed.byte_size() < raw.byte_size() / 2,
            "encoded byte_size {} should be well under raw {}",
            packed.byte_size(),
            raw.byte_size()
        );
        assert_eq!(col.byte_size(), 3000 * 8);
    }

    #[test]
    fn paged_strided_sample_and_project_match_inline() {
        let col = Column::from_i64("runs", (0..3000).map(|i| (i / 100) % 5).collect());
        for policy in [EncodingPolicy::disabled(), EncodingPolicy::default()] {
            let paged = paged_copy(&col, &policy, "sample-project");
            for step in [1, 7, 997] {
                assert_eq!(
                    paged.strided_sample(step).unwrap(),
                    col.strided_sample(step).unwrap()
                );
            }
            for (start, end) in [(0, 3000), (250, 1777), (2999, 3000)] {
                assert_eq!(
                    paged.project_range(RowRange::new(start, end)).unwrap(),
                    col.project_range(RowRange::new(start, end)).unwrap()
                );
            }
            assert_eq!(paged.materialized().unwrap(), col);
            assert_eq!(paged, col);
        }
    }
}
