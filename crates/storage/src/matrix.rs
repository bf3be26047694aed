//! Dense matrixes: the physical storage behind a data object.
//!
//! "The underlying storage layout used in our current dbTouch is matrixes. Each
//! matrix may contain one or more columns and each column contains fixed-width
//! fields. The matrixes are dense and each matrix is associated with a given
//! data object." (Section 2.6, "Physical Layout".)
//!
//! A [`Matrix`] stores the same logical table either column-major (one dense
//! array per attribute) or row-major (tuples stored back-to-back in a single
//! byte buffer). Both layouts support random access by `(row, column)`, which
//! is all the kernel needs; the layouts differ in locality, and the rotate
//! gesture converts between them (see [`crate::rotation`]).

use crate::column::Column;
use crate::fold::{Ordered, RangeFold};
use crate::layout::Layout;
use crate::table::Table;
use dbtouch_types::{DataType, DbTouchError, Result, RowId, RowRange, Value};
use serde::{Deserialize, Serialize};

/// Row-major payload: fixed-width tuples stored back-to-back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RowMajorData {
    /// Byte offset of each column within a tuple.
    offsets: Vec<usize>,
    /// Width of one tuple in bytes.
    row_width: usize,
    /// The tuple bytes, `row_width * row_count` long.
    bytes: Vec<u8>,
}

/// The matrix payload in one of the two layouts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum MatrixData {
    Columns(Vec<Column>),
    Rows(RowMajorData),
}

/// A dense, fixed-width matrix associated with one data object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    name: String,
    schema: Vec<(String, DataType)>,
    row_count: u64,
    data: MatrixData,
}

impl Matrix {
    /// Build a column-major matrix from a table, moving its columns (no
    /// column data is copied).
    pub fn from_table(table: Table) -> Matrix {
        let schema = table.schema();
        let row_count = table.row_count();
        let name = table.name().to_string();
        let columns = table.into_columns();
        Matrix {
            name,
            schema,
            row_count,
            data: MatrixData::Columns(columns),
        }
    }

    /// Build a single-column, column-major matrix.
    pub fn from_column(column: Column) -> Matrix {
        let schema = vec![(column.name().to_string(), column.data_type())];
        let row_count = column.len();
        Matrix {
            name: column.name().to_string(),
            schema,
            row_count,
            data: MatrixData::Columns(vec![column]),
        }
    }

    /// Object name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the matrix.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Current physical layout.
    pub fn layout(&self) -> Layout {
        match &self.data {
            MatrixData::Columns(_) => Layout::ColumnMajor,
            MatrixData::Rows(_) => Layout::RowMajor,
        }
    }

    /// Schema as `(name, type)` pairs.
    pub fn schema(&self) -> &[(String, DataType)] {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.schema.len()
    }

    /// Total payload size in bytes.
    pub fn byte_size(&self) -> u64 {
        match &self.data {
            MatrixData::Columns(cols) => cols.iter().map(|c| c.byte_size()).sum(),
            MatrixData::Rows(r) => r.bytes.len() as u64,
        }
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.schema
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| DbTouchError::NotFound(format!("column {name}")))
    }

    /// The value at `(row, column_index)` regardless of layout.
    pub fn get(&self, row: RowId, column: usize) -> Result<Value> {
        if column >= self.schema.len() {
            return Err(DbTouchError::NotFound(format!("column index {column}")));
        }
        if row.0 >= self.row_count {
            return Err(DbTouchError::RowOutOfBounds {
                row: row.0,
                len: self.row_count,
            });
        }
        match &self.data {
            MatrixData::Columns(cols) => cols[column].get(row),
            MatrixData::Rows(r) => {
                let dt = self.schema[column].1;
                let start = row.index() * r.row_width + r.offsets[column];
                Value::decode(&r.bytes[start..start + dt.width_bytes()], dt)
            }
        }
    }

    /// Materialize a full tuple.
    pub fn get_row(&self, row: RowId) -> Result<Vec<Value>> {
        (0..self.column_count()).map(|c| self.get(row, c)).collect()
    }

    /// Direct access to the columns when the layout is column-major.
    pub fn columns(&self) -> Option<&[Column]> {
        match &self.data {
            MatrixData::Columns(cols) => Some(cols),
            MatrixData::Rows(_) => None,
        }
    }

    /// A borrowed column by name when the layout is column-major.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self.column_index(name)?;
        match &self.data {
            MatrixData::Columns(cols) => Ok(&cols[idx]),
            MatrixData::Rows(_) => Err(DbTouchError::InvalidPlan(format!(
                "column {name} requested from a row-major matrix; rotate it first"
            ))),
        }
    }

    /// Numeric statistics `(count, sum, min, max)` over `range` of one column,
    /// computed in whichever layout the matrix currently has.
    pub fn numeric_range_stats(
        &self,
        column: usize,
        range: RowRange,
    ) -> Result<(u64, f64, Option<f64>, Option<f64>)> {
        if column >= self.schema.len() {
            return Err(DbTouchError::NotFound(format!("column index {column}")));
        }
        match &self.data {
            MatrixData::Columns(cols) => cols[column].numeric_range_stats(range),
            MatrixData::Rows(_) => {
                let dt = self.schema[column].1;
                if !dt.is_numeric() {
                    return Err(DbTouchError::TypeMismatch {
                        expected: "numeric".into(),
                        found: dt.name(),
                    });
                }
                // A row-major cell is a one-value span of the one range fold.
                let mut fold = RangeFold::<Ordered>::default();
                for row in range.clamp_to(self.row_count).iter() {
                    fold.raw(std::iter::once(self.get(row, column)?.as_f64()?));
                }
                Ok(fold.finish().as_tuple())
            }
        }
    }

    /// Eagerly convert the whole matrix to the target layout, returning a new
    /// matrix. Converting to the current layout is a cheap clone.
    pub fn converted_to(&self, layout: Layout) -> Result<Matrix> {
        if layout == self.layout() {
            return Ok(self.clone());
        }
        match layout {
            Layout::RowMajor => self.to_row_major(),
            Layout::ColumnMajor => self.to_column_major(),
        }
    }

    /// Convert a row range to the target layout and return it as a new matrix
    /// (used by incremental rotation, Section 2.8: "Changing the layout can be
    /// done in steps").
    pub fn converted_range(&self, layout: Layout, range: RowRange) -> Result<Matrix> {
        let range = range.clamp_to(self.row_count);
        let partial = self.project_rows(range)?;
        partial.converted_to(layout)
    }

    /// Build a new matrix (same layout) containing only the rows of `range`.
    pub fn project_rows(&self, range: RowRange) -> Result<Matrix> {
        let range = range.clamp_to(self.row_count);
        match &self.data {
            MatrixData::Columns(cols) => {
                let projected: Vec<Column> = cols
                    .iter()
                    .map(|c| c.project_range(range))
                    .collect::<Result<_>>()?;
                Ok(Matrix {
                    name: self.name.clone(),
                    schema: self.schema.clone(),
                    row_count: range.len(),
                    data: MatrixData::Columns(projected),
                })
            }
            MatrixData::Rows(r) => {
                let start = range.start as usize * r.row_width;
                let end = range.end as usize * r.row_width;
                Ok(Matrix {
                    name: self.name.clone(),
                    schema: self.schema.clone(),
                    row_count: range.len(),
                    data: MatrixData::Rows(RowMajorData {
                        offsets: r.offsets.clone(),
                        row_width: r.row_width,
                        bytes: r.bytes[start..end].to_vec(),
                    }),
                })
            }
        }
    }

    /// Append all rows of `other` (same schema, same layout) to this matrix.
    /// Used to assemble incrementally rotated chunks.
    pub fn append(&mut self, other: &Matrix) -> Result<()> {
        if self.schema != other.schema {
            return Err(DbTouchError::InvalidPlan(
                "cannot append matrixes with different schemas".into(),
            ));
        }
        if self.layout() != other.layout() {
            return Err(DbTouchError::InvalidPlan(
                "cannot append matrixes with different layouts".into(),
            ));
        }
        match (&mut self.data, &other.data) {
            (MatrixData::Columns(a), MatrixData::Columns(b)) => {
                for (ca, cb) in a.iter_mut().zip(b.iter()) {
                    for v in cb.iter() {
                        ca.push(v)?;
                    }
                }
            }
            (MatrixData::Rows(a), MatrixData::Rows(b)) => {
                a.bytes.extend_from_slice(&b.bytes);
            }
            _ => unreachable!("layouts checked above"),
        }
        self.row_count += other.row_count;
        Ok(())
    }

    /// An empty matrix with the same schema, in the requested layout.
    pub fn empty_like(&self, layout: Layout) -> Matrix {
        match layout {
            Layout::ColumnMajor => {
                let cols = self
                    .schema
                    .iter()
                    .map(|(n, dt)| Column::empty(n.clone(), *dt))
                    .collect();
                Matrix {
                    name: self.name.clone(),
                    schema: self.schema.clone(),
                    row_count: 0,
                    data: MatrixData::Columns(cols),
                }
            }
            Layout::RowMajor => {
                let (offsets, row_width) = Self::row_offsets(&self.schema);
                Matrix {
                    name: self.name.clone(),
                    schema: self.schema.clone(),
                    row_count: 0,
                    data: MatrixData::Rows(RowMajorData {
                        offsets,
                        row_width,
                        bytes: Vec::new(),
                    }),
                }
            }
        }
    }

    fn row_offsets(schema: &[(String, DataType)]) -> (Vec<usize>, usize) {
        let mut offsets = Vec::with_capacity(schema.len());
        let mut acc = 0usize;
        for (_, dt) in schema {
            offsets.push(acc);
            acc += dt.width_bytes();
        }
        (offsets, acc)
    }

    fn to_row_major(&self) -> Result<Matrix> {
        let (offsets, row_width) = Self::row_offsets(&self.schema);
        let mut bytes = vec![0u8; row_width * self.row_count as usize];
        for row in 0..self.row_count {
            for (c, (_, dt)) in self.schema.iter().enumerate() {
                let v = self.get(RowId(row), c)?;
                let enc = v.encode(*dt)?;
                let start = row as usize * row_width + offsets[c];
                bytes[start..start + enc.len()].copy_from_slice(&enc);
            }
        }
        Ok(Matrix {
            name: self.name.clone(),
            schema: self.schema.clone(),
            row_count: self.row_count,
            data: MatrixData::Rows(RowMajorData {
                offsets,
                row_width,
                bytes,
            }),
        })
    }

    fn to_column_major(&self) -> Result<Matrix> {
        let mut cols: Vec<Column> = self
            .schema
            .iter()
            .map(|(n, dt)| Column::empty(n.clone(), *dt))
            .collect();
        for row in 0..self.row_count {
            for (c, col) in cols.iter_mut().enumerate() {
                col.push(self.get(RowId(row), c)?)?;
            }
        }
        Ok(Matrix {
            name: self.name.clone(),
            schema: self.schema.clone(),
            row_count: self.row_count,
            data: MatrixData::Columns(cols),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_table() -> Table {
        Table::from_columns(
            "t",
            vec![
                Column::from_i64("id", (0..6).collect()),
                Column::from_f64("price", vec![0.5, 1.5, 2.5, 3.5, 4.5, 5.5]),
                Column::from_strings("tag", 4, &["a", "b", "c", "d", "e", "f"]).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn column_major_access() {
        let m = Matrix::from_table(demo_table());
        assert_eq!(m.layout(), Layout::ColumnMajor);
        assert_eq!(m.row_count(), 6);
        assert_eq!(m.column_count(), 3);
        assert_eq!(m.get(RowId(2), 0).unwrap(), Value::Int(2));
        assert_eq!(m.get(RowId(2), 1).unwrap(), Value::Float(2.5));
        assert_eq!(m.get(RowId(2), 2).unwrap(), Value::Str("c".into()));
        assert!(m.get(RowId(6), 0).is_err());
        assert!(m.get(RowId(0), 5).is_err());
    }

    #[test]
    fn row_major_round_trip() {
        let cm = Matrix::from_table(demo_table());
        let rm = cm.converted_to(Layout::RowMajor).unwrap();
        assert_eq!(rm.layout(), Layout::RowMajor);
        assert_eq!(rm.row_count(), 6);
        for row in 0..6 {
            assert_eq!(
                rm.get_row(RowId(row)).unwrap(),
                cm.get_row(RowId(row)).unwrap()
            );
        }
        let back = rm.converted_to(Layout::ColumnMajor).unwrap();
        assert_eq!(back.layout(), Layout::ColumnMajor);
        for row in 0..6 {
            assert_eq!(
                back.get_row(RowId(row)).unwrap(),
                cm.get_row(RowId(row)).unwrap()
            );
        }
    }

    #[test]
    fn converted_to_same_layout_is_identity() {
        let m = Matrix::from_table(demo_table());
        let same = m.converted_to(Layout::ColumnMajor).unwrap();
        assert_eq!(same, m);
    }

    #[test]
    fn from_column_single_attribute() {
        let m = Matrix::from_column(Column::from_i64("x", vec![7, 8, 9]));
        assert_eq!(m.column_count(), 1);
        assert_eq!(m.get(RowId(1), 0).unwrap(), Value::Int(8));
        assert_eq!(m.name(), "x");
    }

    #[test]
    fn byte_size_consistent_across_layouts() {
        let cm = Matrix::from_table(demo_table());
        let rm = cm.converted_to(Layout::RowMajor).unwrap();
        assert_eq!(cm.byte_size(), rm.byte_size());
        assert_eq!(cm.byte_size(), 6 * (8 + 8 + 4));
    }

    #[test]
    fn numeric_stats_match_across_layouts() {
        let cm = Matrix::from_table(demo_table());
        let rm = cm.converted_to(Layout::RowMajor).unwrap();
        let a = cm.numeric_range_stats(1, RowRange::new(1, 5)).unwrap();
        let b = rm.numeric_range_stats(1, RowRange::new(1, 5)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.0, 4);
        assert!((a.1 - (1.5 + 2.5 + 3.5 + 4.5)).abs() < 1e-12);
        assert!(cm.numeric_range_stats(2, RowRange::new(0, 2)).is_err());
        assert!(rm.numeric_range_stats(2, RowRange::new(0, 2)).is_err());
    }

    #[test]
    fn project_rows_both_layouts() {
        let cm = Matrix::from_table(demo_table());
        let p = cm.project_rows(RowRange::new(2, 4)).unwrap();
        assert_eq!(p.row_count(), 2);
        assert_eq!(p.get(RowId(0), 0).unwrap(), Value::Int(2));
        let rm = cm.converted_to(Layout::RowMajor).unwrap();
        let pr = rm.project_rows(RowRange::new(2, 4)).unwrap();
        assert_eq!(pr.row_count(), 2);
        assert_eq!(pr.get(RowId(1), 2).unwrap(), Value::Str("d".into()));
    }

    #[test]
    fn append_and_empty_like() {
        let cm = Matrix::from_table(demo_table());
        let mut acc = cm.empty_like(Layout::ColumnMajor);
        assert_eq!(acc.row_count(), 0);
        acc.append(&cm.project_rows(RowRange::new(0, 3)).unwrap())
            .unwrap();
        acc.append(&cm.project_rows(RowRange::new(3, 6)).unwrap())
            .unwrap();
        assert_eq!(acc.row_count(), 6);
        for row in 0..6 {
            assert_eq!(
                acc.get_row(RowId(row)).unwrap(),
                cm.get_row(RowId(row)).unwrap()
            );
        }

        let rm = cm.converted_to(Layout::RowMajor).unwrap();
        let mut racc = cm.empty_like(Layout::RowMajor);
        racc.append(&rm.project_rows(RowRange::new(0, 6)).unwrap())
            .unwrap();
        assert_eq!(racc.row_count(), 6);
        assert_eq!(
            racc.get_row(RowId(5)).unwrap(),
            cm.get_row(RowId(5)).unwrap()
        );

        // mismatched layout append fails
        assert!(acc.append(&rm).is_err());
    }

    #[test]
    fn converted_range_partial_rotation() {
        let cm = Matrix::from_table(demo_table());
        let chunk = cm
            .converted_range(Layout::RowMajor, RowRange::new(0, 2))
            .unwrap();
        assert_eq!(chunk.layout(), Layout::RowMajor);
        assert_eq!(chunk.row_count(), 2);
        assert_eq!(chunk.get(RowId(1), 0).unwrap(), Value::Int(1));
    }

    #[test]
    fn column_borrow_only_in_column_major() {
        let cm = Matrix::from_table(demo_table());
        assert!(cm.column("id").is_ok());
        let rm = cm.converted_to(Layout::RowMajor).unwrap();
        assert!(rm.column("id").is_err());
        assert!(cm.column("missing").is_err());
    }

    #[test]
    fn from_table_with_layout() {
        let m = Matrix::from_table(demo_table())
            .converted_to(Layout::RowMajor)
            .unwrap();
        assert_eq!(m.layout(), Layout::RowMajor);
        assert_eq!(m.get(RowId(0), 2).unwrap(), Value::Str("a".into()));
    }
}
