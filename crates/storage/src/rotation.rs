//! Incremental layout rotation.
//!
//! Section 2.8: "Changing the layout can be done in steps as it is in general an
//! expensive operation, requiring a full copy of the data. Depending on the size
//! of the current object, dbTouch should choose to create the new format for
//! only a sample of the data, giving back to the user a quick response and new
//! data object(s) to query. When and if the user requests for more detail within
//! the new object [...] then more data can be retrieved from the old layout."
//!
//! [`RotationTask`] converts a matrix to the rotated layout chunk by chunk. The
//! partially converted matrix is queryable at any point: rows that have already
//! been converted are served from the new layout, the rest from the old one.

use crate::layout::Layout;
use crate::matrix::Matrix;
use dbtouch_types::{Result, RowId, RowRange, Value};
use std::sync::Arc;

/// A chunk-at-a-time conversion of a matrix to the rotated layout.
///
/// The source is held behind `Arc`, so starting a rotation never copies the
/// source data: peak memory is the (shared) source plus the incrementally
/// built target plus one in-flight chunk — never two full copies of the
/// source at once.
#[derive(Debug, Clone)]
pub struct RotationTask {
    source: Arc<Matrix>,
    target: Matrix,
    target_layout: Layout,
    converted_rows: u64,
    chunk_rows: u64,
}

impl RotationTask {
    /// Start rotating `source` to the opposite layout, converting `chunk_rows`
    /// rows per [`RotationTask::step`]. A chunk size of 0 is treated as 1.
    pub fn new(source: Matrix, chunk_rows: u64) -> RotationTask {
        RotationTask::over(Arc::new(source), chunk_rows)
    }

    /// Start rotating an already-shared matrix without copying it. This is
    /// the bounded-memory entry point sessions use: the catalog's matrix stays
    /// shared while only the rotated target is built, chunk by chunk.
    pub fn over(source: Arc<Matrix>, chunk_rows: u64) -> RotationTask {
        let target_layout = source.layout().rotated();
        let target = source.empty_like(target_layout);
        RotationTask {
            source,
            target,
            target_layout,
            converted_rows: 0,
            chunk_rows: chunk_rows.max(1),
        }
    }

    /// The layout being converted to.
    pub fn target_layout(&self) -> Layout {
        self.target_layout
    }

    /// Rows already converted.
    pub fn converted_rows(&self) -> u64 {
        self.converted_rows
    }

    /// Total rows to convert.
    pub fn total_rows(&self) -> u64 {
        self.source.row_count()
    }

    /// True once every row has been converted.
    pub fn is_complete(&self) -> bool {
        self.converted_rows >= self.total_rows()
    }

    /// Convert the next chunk. Returns the number of rows converted by this
    /// step (0 once complete).
    pub fn step(&mut self) -> Result<u64> {
        if self.is_complete() {
            return Ok(0);
        }
        let start = self.converted_rows;
        let end = (start + self.chunk_rows).min(self.total_rows());
        let chunk = self
            .source
            .converted_range(self.target_layout, RowRange::new(start, end))?;
        self.target.append(&chunk)?;
        self.converted_rows = end;
        Ok(end - start)
    }

    /// Run the conversion to completion and return the fully rotated matrix.
    pub fn finish(mut self) -> Result<Matrix> {
        while !self.is_complete() {
            self.step()?;
        }
        Ok(self.target)
    }

    /// Read a cell of the logical matrix during conversion: already-converted
    /// rows are served from the new layout, the rest from the old layout. This
    /// is what keeps the object queryable while the rotation proceeds in steps.
    pub fn get(&self, row: RowId, column: usize) -> Result<Value> {
        if row.0 < self.converted_rows {
            self.target.get(row, column)
        } else {
            self.source.get(row, column)
        }
    }

    /// Borrow the source matrix.
    pub fn source(&self) -> &Matrix {
        &self.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::table::Table;

    fn demo_matrix() -> Matrix {
        Matrix::from_table(
            Table::from_columns(
                "t",
                vec![
                    Column::from_i64("id", (0..100).collect()),
                    Column::from_f64("v", (0..100).map(|i| i as f64 / 2.0).collect()),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn full_rotation_preserves_data() {
        let m = demo_matrix();
        let rotated = RotationTask::new(m.clone(), 7).finish().unwrap();
        assert_eq!(rotated.layout(), Layout::RowMajor);
        assert_eq!(rotated.row_count(), 100);
        for row in [0u64, 33, 99] {
            assert_eq!(
                rotated.get_row(RowId(row)).unwrap(),
                m.get_row(RowId(row)).unwrap()
            );
        }
    }

    #[test]
    fn step_counts_and_progress() {
        let m = demo_matrix();
        let mut task = RotationTask::new(m, 40);
        assert_eq!(task.total_rows(), 100);
        assert_eq!(task.converted_rows(), 0);
        assert_eq!(task.step().unwrap(), 40);
        assert_eq!(task.step().unwrap(), 40);
        assert_eq!(task.converted_rows(), 80);
        assert_eq!(task.step().unwrap(), 20);
        assert!(task.is_complete());
        assert_eq!(task.step().unwrap(), 0);
        assert_eq!(task.converted_rows(), task.total_rows());
    }

    #[test]
    fn queryable_during_rotation() {
        let m = demo_matrix();
        let mut task = RotationTask::new(m.clone(), 30);
        task.step().unwrap();
        // converted region served from the new layout
        assert_eq!(
            task.get(RowId(10), 0).unwrap(),
            m.get(RowId(10), 0).unwrap()
        );
        // unconverted region served from the old layout
        assert_eq!(
            task.get(RowId(90), 1).unwrap(),
            m.get(RowId(90), 1).unwrap()
        );
        assert_eq!(task.converted_rows(), 30);
        assert_eq!(task.source().row_count(), 100);
    }

    #[test]
    fn double_rotation_round_trips() {
        let m = demo_matrix();
        let once = RotationTask::new(m.clone(), 13).finish().unwrap();
        let twice = RotationTask::new(once, 13).finish().unwrap();
        assert_eq!(twice.layout(), Layout::ColumnMajor);
        for row in [0u64, 50, 99] {
            assert_eq!(
                twice.get_row(RowId(row)).unwrap(),
                m.get_row(RowId(row)).unwrap()
            );
        }
    }

    #[test]
    fn zero_chunk_treated_as_one() {
        let m = demo_matrix();
        let mut task = RotationTask::new(m, 0);
        assert_eq!(task.step().unwrap(), 1);
    }

    #[test]
    fn over_shares_the_source_without_copying() {
        // A large-ish matrix: the task must read through the shared Arc, not a
        // private deep copy, so rotating doubles memory only by the target.
        let m = Arc::new(Matrix::from_column(Column::from_i64(
            "big",
            (0..200_000).collect(),
        )));
        let task = RotationTask::over(Arc::clone(&m), 4096);
        assert_eq!(task.source() as *const Matrix, Arc::as_ptr(&m));
        // Only the two handles exist — no hidden clone took a third.
        assert_eq!(Arc::strong_count(&m), 2);
        let rotated = task.finish().unwrap();
        assert_eq!(rotated.layout(), Layout::RowMajor);
        assert_eq!(rotated.row_count(), 200_000);
        assert_eq!(rotated.get(RowId(123_456), 0).unwrap(), Value::Int(123_456));
        // The shared source is untouched and still column-major.
        assert_eq!(m.layout(), Layout::ColumnMajor);
    }

    #[test]
    fn finish_honors_chunk_granularity() {
        let m = demo_matrix();
        let mut task = RotationTask::new(m.clone(), 9);
        let mut steps = 0;
        while !task.is_complete() {
            let converted = task.step().unwrap();
            assert!(converted <= 9, "chunk overshot: {converted}");
            steps += 1;
        }
        assert_eq!(steps, 100_u64.div_ceil(9));
        let rotated = task.finish().unwrap();
        assert_eq!(
            rotated.get_row(RowId(50)).unwrap(),
            m.get_row(RowId(50)).unwrap()
        );
    }

    #[test]
    fn empty_matrix_rotation() {
        let m = Matrix::from_column(Column::from_i64("x", vec![]));
        let task = RotationTask::new(m, 10);
        assert!(task.is_complete());
        assert_eq!(task.converted_rows(), task.total_rows());
        let rotated = task.finish().unwrap();
        assert_eq!(rotated.row_count(), 0);
        assert_eq!(rotated.layout(), Layout::RowMajor);
    }
}
