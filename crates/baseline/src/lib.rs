//! # dbtouch-baseline
//!
//! The naive engine: the simplest possible column store, and the answer
//! every dbTouch data path is checked against.
//!
//! The paper contrasts dbTouch with "state-of-the-art database systems": in
//! the Appendix A demo one participant explores data through dbTouch on a
//! tablet while another fires queries at "the open-source column store DBMS"
//! on a laptop. [`NaiveEngine`] is that laptop system reduced to what the
//! comparison needs, and it doubles as the reference the kernel's tests fold
//! against:
//!
//! * one decoded `Vec` per column;
//! * sample levels built by a plain loop — level `i` keeps every `2^i`-th
//!   row, as `dbtouch_storage::sample` does;
//! * a row-order [`fold`](NaiveEngine::fold) under the kernel's two sum
//!   disciplines: an exact `i128` sum over integer columns and one `f64`
//!   addition per row, in row order, over float columns;
//! * point reads ([`value`](NaiveEngine::value),
//!   [`tuple`](NaiveEngine::tuple));
//! * rows and bytes scanned, for the contest's "data touched" comparison.
//!
//! It has no pager, encoding, zone map, morsel, cache or remote tier: a fold
//! reads every row it covers, and a filter scans the whole column
//! ([`select_between`](NaiveEngine::select_between)) before anything is
//! returned — the blocking behaviour dbTouch is designed to avoid.

use dbtouch_storage::sample::LevelShape;
use dbtouch_storage::shared_cache::RangeAggregate;
use dbtouch_types::{DbTouchError, Result, Value};

/// Bytes charged per value read: every numeric field is 8 bytes wide.
pub const VALUE_BYTES: u64 = 8;

/// Rows and bytes an engine has read so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Values read.
    pub rows_scanned: u64,
    /// Bytes read ([`VALUE_BYTES`] per value).
    pub bytes_scanned: u64,
}

/// One column and its sample levels: `levels[0]` is the base data.
#[derive(Debug, Clone)]
struct NaiveColumn {
    /// Integer columns sum exactly; float columns in row order.
    integer: bool,
    levels: Vec<Vec<Value>>,
}

/// An in-memory table of decoded columns with a row-at-a-time executor.
///
/// ```
/// use dbtouch_baseline::NaiveEngine;
/// use dbtouch_types::Value;
///
/// let ids = (0..1000).map(Value::Int).collect();
/// let values = (0..1000).map(|i| Value::Float((i % 100) as f64)).collect();
/// let mut engine = NaiveEngine::new(vec![ids, values], 4);
/// // Blocking: finding rows 0..=99 scans the whole id column.
/// let rows = engine.select_between(0, 0, 99).unwrap();
/// let stats = engine.fold(1, 0, rows).unwrap();
/// assert_eq!(stats.sum / stats.count as f64, 49.5);
/// assert_eq!(engine.stats().rows_scanned, 1000 + 100);
/// ```
#[derive(Debug, Clone)]
pub struct NaiveEngine {
    columns: Vec<NaiveColumn>,
    stats: ScanStats,
}

impl NaiveEngine {
    /// An engine over `columns` (equal lengths, one `Value` variant each).
    /// Numeric columns get `sample_levels` levels (at least the base), minus
    /// any whose stride reaches the column length; other columns keep the
    /// base level only.
    pub fn new(columns: Vec<Vec<Value>>, sample_levels: u8) -> NaiveEngine {
        let columns = columns
            .into_iter()
            .map(|base| {
                let class = base.first().map(Value::data_type);
                let numeric = class.is_some_and(|t| t.is_numeric());
                let depth = if numeric { sample_levels.max(1) } else { 1 };
                let mut levels = Vec::new();
                for level in 1..depth {
                    let stride = 1usize << level;
                    if stride >= base.len() {
                        break;
                    }
                    let mut sampled = Vec::new();
                    let mut row = 0;
                    while row < base.len() {
                        sampled.push(base[row].clone());
                        row += stride;
                    }
                    levels.push(sampled);
                }
                levels.insert(0, base);
                NaiveColumn {
                    integer: class.is_some_and(|t| t.is_integer()),
                    levels,
                }
            })
            .collect();
        NaiveEngine {
            columns,
            stats: ScanStats::default(),
        }
    }

    /// Everything read so far.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// The shape of every attribute's sample levels, in attribute order.
    pub fn level_shapes(&self) -> Vec<LevelShape> {
        self.columns
            .iter()
            .map(|column| LevelShape {
                base_rows: column.levels[0].len() as u64,
                level_count: column.levels.len() as u8,
            })
            .collect()
    }

    /// The value of `attribute` at base row `row`.
    pub fn value(&mut self, attribute: usize, row: u64) -> Result<Value> {
        let value = read(self.column(attribute)?, 0, row)?.clone();
        self.charge(1);
        Ok(value)
    }

    /// Every attribute's value at base row `row`.
    pub fn tuple(&mut self, row: u64) -> Result<Vec<Value>> {
        (0..self.columns.len())
            .map(|attribute| self.value(attribute, row))
            .collect()
    }

    /// Count, sum, minimum and maximum of `attribute` at `level` over
    /// `rows`, folded one row at a time in the order given.
    pub fn fold(
        &mut self,
        attribute: usize,
        level: u8,
        rows: impl IntoIterator<Item = u64>,
    ) -> Result<RangeAggregate> {
        let column = self.column(attribute)?;
        let mut count = 0u64;
        let mut exact = 0i128;
        let mut ordered = 0.0f64;
        let mut min: Option<f64> = None;
        let mut max: Option<f64> = None;
        for row in rows {
            let x = match read(column, level, row)? {
                Value::Int(v) | Value::Timestamp(v) => {
                    exact += *v as i128;
                    *v as f64
                }
                Value::Float(v) => {
                    ordered += v;
                    *v
                }
                other => {
                    return Err(DbTouchError::TypeMismatch {
                        expected: "numeric".into(),
                        found: other.data_type().name(),
                    })
                }
            };
            count += 1;
            min = Some(min.map_or(x, |m| m.min(x)));
            max = Some(max.map_or(x, |m| m.max(x)));
        }
        let sum = if column.integer {
            exact as f64
        } else {
            ordered
        };
        self.charge(count);
        Ok(RangeAggregate {
            count,
            sum,
            min,
            max,
        })
    }

    /// The base rows whose `attribute` lies in `[low, high]`: a full scan of
    /// the column, charged in full, however few rows qualify.
    pub fn select_between(&mut self, attribute: usize, low: i64, high: i64) -> Result<Vec<u64>> {
        let base = &self.column(attribute)?.levels[0];
        let (low, high) = (Value::Int(low), Value::Int(high));
        let rows = base
            .iter()
            .enumerate()
            .filter(|(_, v)| v.total_cmp(&low).is_ge() && v.total_cmp(&high).is_le())
            .map(|(row, _)| row as u64)
            .collect();
        let scanned = base.len() as u64;
        self.charge(scanned);
        Ok(rows)
    }

    fn column(&self, attribute: usize) -> Result<&NaiveColumn> {
        self.columns
            .get(attribute)
            .ok_or_else(|| DbTouchError::NotFound(format!("attribute {attribute}")))
    }

    fn charge(&mut self, rows: u64) {
        self.stats.rows_scanned += rows;
        self.stats.bytes_scanned += rows * VALUE_BYTES;
    }
}

/// The value at `row` of `column`'s `level`.
fn read(column: &NaiveColumn, level: u8, row: u64) -> Result<&Value> {
    let values = column
        .levels
        .get(level as usize)
        .ok_or(DbTouchError::InvalidSampleLevel {
            level,
            max: column.levels.len() as u8,
        })?;
    values
        .get(row as usize)
        .ok_or_else(|| DbTouchError::NotFound(format!("row {row} of level {level}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(n: i64) -> Vec<Value> {
        (0..n).map(Value::Int).collect()
    }

    #[test]
    fn levels_keep_every_power_of_two_row_while_the_stride_fits() {
        let engine = NaiveEngine::new(vec![ints(1000), ints(4)], 6);
        let shape = engine.level_shapes()[0];
        assert_eq!((shape.base_rows, shape.level_count), (1000, 6));
        for level in 0..6u8 {
            let rows = shape.level_len(level).unwrap();
            assert_eq!(engine.columns[0].levels[level as usize].len() as u64, rows);
            let last = &engine.columns[0].levels[level as usize][rows as usize - 1];
            assert_eq!(last, &Value::Int(((rows - 1) << level) as i64));
        }
        // strides 1 and 2 fit a 4-row column; stride 4 does not
        assert_eq!(engine.level_shapes()[1].level_count, 2);
        // an empty or non-numeric column keeps its base only
        let other = NaiveEngine::new(vec![vec![], vec![Value::Bool(true); 64]], 6);
        assert_eq!(other.level_shapes()[0].level_count, 1);
        assert_eq!(other.level_shapes()[1].level_count, 1);
    }

    #[test]
    fn integer_folds_are_exact_and_float_folds_run_in_row_order() {
        let big = vec![Value::Int(i64::MAX), Value::Int(i64::MAX), Value::Int(-5)];
        let floats = vec![Value::Float(1e16), Value::Float(1.0), Value::Float(1.0)];
        let mut engine = NaiveEngine::new(vec![big, floats], 1);
        let exact = engine.fold(0, 0, 0..3).unwrap();
        assert_eq!(exact.sum, (2 * i64::MAX as i128 - 5) as f64);
        assert_eq!((exact.min, exact.max), (Some(-5.0), Some(i64::MAX as f64)));
        // each 1.0 is lost against 1e16 when added one row at a time
        assert_eq!(engine.fold(1, 0, 0..3).unwrap().sum, 1e16);
        let empty = engine.fold(1, 0, 2..2).unwrap();
        assert_eq!((empty.count, empty.min), (0, None));
        assert!(engine.fold(0, 1, 0..1).is_err());
        assert!(engine.fold(0, 0, 3..4).is_err());
        assert_eq!(engine.stats().rows_scanned, 6);
    }

    #[test]
    fn point_reads_and_a_blocking_filter_are_charged() {
        let mut engine = NaiveEngine::new(vec![ints(10), vec![Value::Str("x".into()); 10]], 3);
        assert_eq!(engine.value(0, 7).unwrap(), Value::Int(7));
        assert_eq!(
            engine.tuple(2).unwrap(),
            vec![Value::Int(2), Value::Str("x".into())]
        );
        assert!(engine.fold(1, 0, 0..1).is_err());
        assert_eq!(engine.select_between(0, 3, 5).unwrap(), vec![3, 4, 5]);
        assert_eq!(
            engine.stats(),
            ScanStats {
                rows_scanned: 1 + 2 + 10,
                bytes_scanned: 13 * VALUE_BYTES,
            }
        );
    }
}
