//! Joins under user-controlled data flow (Section 2.9).
//!
//! "The join is primarily a blocking operator as the hash-join is the typical
//! choice. [...] However, in dbTouch we do not know up front all the data we
//! are going to process. [...] As such, exploiting non blocking options is a
//! necessary path in dbTouch."
//!
//! [`SymmetricHashJoin`] is the non-blocking option: both inputs maintain a hash
//! table; a touched row from either side is inserted into its own table and
//! probed against the other side's table, producing matches immediately.
//! [`BlockingHashJoin`] is the classical build-then-probe hash join used as the
//! comparison point in the ablation benchmark: nothing is produced until the
//! entire build side has been consumed.

use dbtouch_types::{RowId, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which input of the join a touched row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinSide {
    /// The left input.
    Left,
    /// The right input.
    Right,
}

/// One produced join match.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinMatch {
    /// Row of the left input.
    pub left_row: RowId,
    /// Row of the right input.
    pub right_row: RowId,
    /// The join key value.
    pub key: Value,
}

/// Key normalization: numeric keys join across Int/Float/Timestamp by value.
fn key_of(value: &Value) -> String {
    match value.as_f64() {
        Ok(v) => format!("n:{v}"),
        Err(_) => format!("s:{value}"),
    }
}

/// A non-blocking symmetric hash join.
#[derive(Debug, Clone, Default)]
pub struct SymmetricHashJoin {
    left: HashMap<String, Vec<(RowId, Value)>>,
    right: HashMap<String, Vec<(RowId, Value)>>,
    matches_produced: u64,
    rows_consumed: u64,
}

impl SymmetricHashJoin {
    /// Create an empty join.
    pub fn new() -> SymmetricHashJoin {
        SymmetricHashJoin::default()
    }

    /// Feed one touched row from one side; returns the matches it produces
    /// immediately (possibly empty).
    pub fn push(&mut self, side: JoinSide, row: RowId, key: Value) -> Vec<JoinMatch> {
        self.rows_consumed += 1;
        let k = key_of(&key);
        let (own, other) = match side {
            JoinSide::Left => (&mut self.left, &self.right),
            JoinSide::Right => (&mut self.right, &self.left),
        };
        own.entry(k.clone()).or_default().push((row, key.clone()));
        let matches: Vec<JoinMatch> = other
            .get(&k)
            .map(|rows| {
                rows.iter()
                    .map(|(other_row, other_key)| match side {
                        JoinSide::Left => JoinMatch {
                            left_row: row,
                            right_row: *other_row,
                            key: other_key.clone(),
                        },
                        JoinSide::Right => JoinMatch {
                            left_row: *other_row,
                            right_row: row,
                            key: other_key.clone(),
                        },
                    })
                    .collect()
            })
            .unwrap_or_default();
        self.matches_produced += matches.len() as u64;
        matches
    }

    /// Total matches produced so far.
    pub fn matches_produced(&self) -> u64 {
        self.matches_produced
    }

    /// Total rows consumed (both sides).
    pub fn rows_consumed(&self) -> u64 {
        self.rows_consumed
    }
}

/// A classical blocking hash join: build the whole left side, then probe.
#[derive(Debug, Clone, Default)]
pub struct BlockingHashJoin {
    build: HashMap<String, Vec<(RowId, Value)>>,
    built: bool,
}

impl BlockingHashJoin {
    /// Create an empty blocking join.
    pub fn new() -> BlockingHashJoin {
        BlockingHashJoin::default()
    }

    /// Add one row to the build side. Panics if probing has already begun —
    /// that is exactly the rigidity the non-blocking join avoids.
    pub fn build_row(&mut self, row: RowId, key: Value) {
        assert!(!self.built, "cannot add build rows after probing started");
        self.build.entry(key_of(&key)).or_default().push((row, key));
    }

    /// Finish the build phase.
    pub fn finish_build(&mut self) {
        self.built = true;
    }

    /// Probe with one right-side row; only valid after `finish_build`.
    pub fn probe(&self, row: RowId, key: Value) -> Vec<JoinMatch> {
        assert!(self.built, "probe before finish_build");
        self.build
            .get(&key_of(&key))
            .map(|rows| {
                rows.iter()
                    .map(|(left_row, left_key)| JoinMatch {
                        left_row: *left_row,
                        right_row: row,
                        key: left_key.clone(),
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_join_produces_matches_immediately() {
        let mut j = SymmetricHashJoin::new();
        assert!(j.push(JoinSide::Left, RowId(0), Value::Int(7)).is_empty());
        let m = j.push(JoinSide::Right, RowId(10), Value::Int(7));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].left_row, RowId(0));
        assert_eq!(m[0].right_row, RowId(10));
        assert_eq!(j.matches_produced(), 1);
        assert_eq!(j.rows_consumed(), 2);
    }

    #[test]
    fn symmetric_join_handles_duplicates() {
        let mut j = SymmetricHashJoin::new();
        j.push(JoinSide::Left, RowId(0), Value::Int(1));
        j.push(JoinSide::Left, RowId(1), Value::Int(1));
        let m = j.push(JoinSide::Right, RowId(5), Value::Int(1));
        assert_eq!(m.len(), 2);
        // another right row with the same key matches both left rows again
        let m2 = j.push(JoinSide::Right, RowId(6), Value::Int(1));
        assert_eq!(m2.len(), 2);
        assert_eq!(j.matches_produced(), 4);
    }

    #[test]
    fn symmetric_join_no_match_for_missing_keys() {
        let mut j = SymmetricHashJoin::new();
        j.push(JoinSide::Left, RowId(0), Value::Int(1));
        assert!(j.push(JoinSide::Right, RowId(1), Value::Int(2)).is_empty());
        // Both unmatched rows are held: each matches its late partner.
        assert_eq!(j.push(JoinSide::Left, RowId(2), Value::Int(2)).len(), 1);
        assert_eq!(j.push(JoinSide::Right, RowId(3), Value::Int(1)).len(), 1);
    }

    #[test]
    fn numeric_keys_join_across_types() {
        let mut j = SymmetricHashJoin::new();
        j.push(JoinSide::Left, RowId(0), Value::Int(3));
        let m = j.push(JoinSide::Right, RowId(1), Value::Float(3.0));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn string_keys_join() {
        let mut j = SymmetricHashJoin::new();
        j.push(JoinSide::Left, RowId(0), Value::Str("eu".into()));
        let m = j.push(JoinSide::Right, RowId(1), Value::Str("eu".into()));
        assert_eq!(m.len(), 1);
        assert!(j
            .push(JoinSide::Right, RowId(2), Value::Str("us".into()))
            .is_empty());
    }

    #[test]
    fn symmetric_matches_blocking_results() {
        // Same inputs through both joins produce the same set of matched pairs.
        let left: Vec<(RowId, Value)> = (0..20)
            .map(|i| (RowId(i), Value::Int((i % 5) as i64)))
            .collect();
        let right: Vec<(RowId, Value)> = (0..15)
            .map(|i| (RowId(i), Value::Int((i % 7) as i64)))
            .collect();

        let mut sym = SymmetricHashJoin::new();
        let mut sym_pairs = Vec::new();
        for (row, key) in &left {
            sym_pairs.extend(sym.push(JoinSide::Left, *row, key.clone()));
        }
        for (row, key) in &right {
            sym_pairs.extend(sym.push(JoinSide::Right, *row, key.clone()));
        }

        let mut blocking = BlockingHashJoin::new();
        for (row, key) in &left {
            blocking.build_row(*row, key.clone());
        }
        blocking.finish_build();
        let mut blk_pairs = Vec::new();
        for (row, key) in &right {
            blk_pairs.extend(blocking.probe(*row, key.clone()));
        }

        let normalize = |mut v: Vec<JoinMatch>| {
            let mut pairs: Vec<(u64, u64)> =
                v.drain(..).map(|m| (m.left_row.0, m.right_row.0)).collect();
            pairs.sort_unstable();
            pairs
        };
        assert_eq!(normalize(sym_pairs), normalize(blk_pairs));
    }

    #[test]
    fn blocking_join_produces_nothing_until_built() {
        let mut b = BlockingHashJoin::new();
        b.build_row(RowId(0), Value::Int(1));
        b.finish_build();
        assert_eq!(b.probe(RowId(9), Value::Int(1)).len(), 1);
        assert!(b.probe(RowId(9), Value::Int(2)).is_empty());
    }

    #[test]
    #[should_panic(expected = "probe before finish_build")]
    fn blocking_join_probe_before_build_panics() {
        let b = BlockingHashJoin::new();
        b.probe(RowId(0), Value::Int(1));
    }

    #[test]
    #[should_panic(expected = "cannot add build rows")]
    fn blocking_join_build_after_probe_panics() {
        let mut b = BlockingHashJoin::new();
        b.finish_build();
        b.build_row(RowId(0), Value::Int(1));
    }
}
