//! Tables: named collections of equal-length columns.
//!
//! A table is visualized as a "fat rectangle" in dbTouch. A single tap over a
//! table reveals a full tuple; a vertical slide scans tuples; a horizontal slide
//! walks the attributes of one tuple (Section 2.4). Users can also break tables
//! apart (drag a column out) or build them up (drop columns into a table
//! placeholder); the catalog rebuilds a table from its columns for both, and
//! [`Table::add_column`] checks each one.

use crate::column::Column;
use dbtouch_types::{DataType, DbTouchError, Result, RowId, Value};
use serde::{Deserialize, Serialize};

/// A named collection of equal-length columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
}

impl Table {
    /// Create an empty table with no columns.
    pub fn new(name: impl Into<String>) -> Table {
        Table {
            name: name.into(),
            columns: Vec::new(),
        }
    }

    /// Create a table from columns, validating that all lengths match.
    pub fn from_columns(name: impl Into<String>, columns: Vec<Column>) -> Result<Table> {
        let mut t = Table::new(name);
        for c in columns {
            t.add_column(c)?;
        }
        Ok(t)
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows (0 for a table with no columns).
    pub fn row_count(&self) -> u64 {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Consume the table, returning its columns in order.
    pub fn into_columns(self) -> Vec<Column> {
        self.columns
    }

    /// Schema as `(name, type)` pairs.
    pub fn schema(&self) -> Vec<(String, DataType)> {
        self.columns
            .iter()
            .map(|c| (c.name().to_string(), c.data_type()))
            .collect()
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| DbTouchError::NotFound(format!("column {name}")))
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name() == name)
            .ok_or_else(|| DbTouchError::NotFound(format!("column {name}")))
    }

    /// Add a column. Its length must match the table's row count (unless the
    /// table has no columns yet) and its name must be unique.
    pub fn add_column(&mut self, column: Column) -> Result<()> {
        if self.columns.iter().any(|c| c.name() == column.name()) {
            return Err(DbTouchError::AlreadyExists(column.name().to_string()));
        }
        if !self.columns.is_empty() && column.len() != self.row_count() {
            return Err(DbTouchError::LengthMismatch {
                expected: self.row_count(),
                found: column.len(),
            });
        }
        self.columns.push(column);
        Ok(())
    }

    /// Materialize a full tuple (one value per column) at `row`. This is what a
    /// single tap over a table object reveals.
    pub fn row(&self, row: RowId) -> Result<Vec<Value>> {
        if row.0 >= self.row_count() {
            return Err(DbTouchError::RowOutOfBounds {
                row: row.0,
                len: self.row_count(),
            });
        }
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// Total size of the table's data in bytes.
    pub fn byte_size(&self) -> u64 {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_table() -> Table {
        Table::from_columns(
            "t",
            vec![
                Column::from_i64("id", vec![1, 2, 3]),
                Column::from_f64("price", vec![1.5, 2.5, 3.5]),
                Column::from_strings("tag", 4, &["a", "bb", "ccc"]).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_schema() {
        let t = demo_table();
        assert_eq!(t.name(), "t");
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.column_count(), 3);
        assert_eq!(
            t.schema(),
            vec![
                ("id".to_string(), DataType::Int64),
                ("price".to_string(), DataType::Float64),
                ("tag".to_string(), DataType::FixedStr(4)),
            ]
        );
        assert_eq!(t.byte_size(), 3 * (8 + 8 + 4) as u64);
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut t = Table::new("t");
        t.add_column(Column::from_i64("a", vec![1, 2, 3])).unwrap();
        let err = t.add_column(Column::from_i64("b", vec![1, 2]));
        assert!(matches!(
            err,
            Err(DbTouchError::LengthMismatch {
                expected: 3,
                found: 2
            })
        ));
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut t = Table::new("t");
        t.add_column(Column::from_i64("a", vec![1])).unwrap();
        assert!(matches!(
            t.add_column(Column::from_i64("a", vec![2])),
            Err(DbTouchError::AlreadyExists(_))
        ));
    }

    #[test]
    fn lookup_by_name_and_index() {
        let t = demo_table();
        assert_eq!(t.column("price").unwrap().data_type(), DataType::Float64);
        assert!(t.column("missing").is_err());
        assert_eq!(t.column_index("tag").unwrap(), 2);
    }

    #[test]
    fn row_materialization() {
        let t = demo_table();
        let row = t.row(RowId(1)).unwrap();
        assert_eq!(
            row,
            vec![Value::Int(2), Value::Float(2.5), Value::Str("bb".into())]
        );
        assert!(t.row(RowId(3)).is_err());
    }

    #[test]
    fn empty_table_has_zero_rows() {
        let t = Table::new("empty");
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.byte_size(), 0);
        assert!(t.row(RowId(0)).is_err());
    }
}
