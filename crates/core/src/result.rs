//! Result delivery: in-place result values.
//!
//! Section 2.3 ("Inspecting Results"): results appear in place as the gesture
//! progresses — "every single result value pops up from the position in the
//! data object where the raw value responsible for this result lies" — and
//! "soon after a result value becomes visible, it subsequently fades away,
//! making room for more results".
//!
//! The [`ResultStream`] keeps every produced [`TouchResult`] together with the
//! information a front-end needs to render that behaviour: where on the object
//! the value belongs (as a fraction of the object extent) and when it was
//! produced. How long a value stays visible is the front-end's choice.

use dbtouch_types::{RowId, Timestamp, Value};
use serde::{Deserialize, Serialize};

/// What kind of computation produced a result value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResultKind {
    /// A plain scan: the touched raw value itself.
    Scan,
    /// A running aggregate over everything touched so far.
    RunningAggregate,
    /// An interactive summary of a `[id-k, id+k]` window.
    Summary,
    /// A value that passed a where-restriction.
    FilteredScan,
    /// A group-by partial result (the value is the group's aggregate).
    GroupResult,
    /// A full tuple revealed by a tap on a table.
    Tuple,
}

dbtouch_types::wire_enum!(ResultKind {
    0 => Scan,
    1 => RunningAggregate,
    2 => Summary,
    3 => FilteredScan,
    // Tag 4 (a join match) is retired: no session produces it.
    5 => GroupResult,
    6 => Tuple,
});

/// One result value produced in response to one touch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TouchResult {
    /// The tuple identifier responsible for the result.
    pub row: RowId,
    /// Where the result appears on the object, as a fraction of its scroll
    /// extent in `[0, 1]` (used to render "in place").
    pub position_fraction: f64,
    /// The produced value(s). Scans and aggregates produce one value; tuple
    /// taps produce one value per attribute.
    pub values: Vec<Value>,
    /// When the result was produced (session-relative).
    pub produced_at: Timestamp,
    /// What produced it.
    pub kind: ResultKind,
}

dbtouch_types::wire_struct!(TouchResult {
    row: RowId,
    position_fraction: f64,
    values: Vec<Value>,
    produced_at: Timestamp,
    kind: ResultKind,
});

impl TouchResult {
    /// The first (usually only) value.
    pub fn value(&self) -> Option<&Value> {
        self.values.first()
    }
}

/// The ordered stream of results produced during a session.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResultStream {
    results: Vec<TouchResult>,
}

dbtouch_types::wire_struct!(ResultStream {
    results: Vec<TouchResult>,
});

impl ResultStream {
    /// Create an empty stream.
    pub fn new() -> ResultStream {
        ResultStream::default()
    }

    /// Append a result.
    pub fn push(&mut self, result: TouchResult) {
        self.results.push(result);
    }

    /// Number of results produced.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True if nothing has been produced.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// All results in production order.
    pub fn results(&self) -> &[TouchResult] {
        &self.results
    }

    /// Replace the value of the result at `index` in place — the progressive
    /// refinement of remote processing: a provisional coarse answer already
    /// on screen is upgraded to the fine answer without disturbing the
    /// stream's order. Returns `false` when `index` is out of bounds.
    pub fn set_value(&mut self, index: usize, value: Value) -> bool {
        match self.results.get_mut(index) {
            Some(result) => {
                result.values = vec![value];
                true
            }
            None => false,
        }
    }

    /// The most recent result (the boldest one on screen).
    pub fn latest(&self) -> Option<&TouchResult> {
        self.results.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_at(ms: u64, row: u64) -> TouchResult {
        TouchResult {
            row: RowId(row),
            position_fraction: row as f64 / 100.0,
            values: vec![Value::Int(row as i64)],
            produced_at: Timestamp::from_millis(ms),
            kind: ResultKind::Scan,
        }
    }

    #[test]
    fn stream_collects_results_in_order() {
        let mut s = ResultStream::default();
        assert!(s.is_empty());
        s.push(result_at(0, 1));
        s.push(result_at(10, 2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.latest().unwrap().row, RowId(2));
        assert_eq!(s.results()[0].row, RowId(1));
        assert!(s.results().iter().all(|r| r.kind == ResultKind::Scan));
    }

    #[test]
    fn the_retired_join_match_tag_is_refused() {
        use dbtouch_types::wire::decode;
        assert!(decode::<ResultKind>(&[4]).is_err());
        assert_eq!(decode::<ResultKind>(&[5]).unwrap(), ResultKind::GroupResult);
    }

    #[test]
    fn single_value_accessor() {
        let r = result_at(0, 7);
        assert_eq!(r.value(), Some(&Value::Int(7)));
        assert_eq!(r.position_fraction, 0.07);
    }
}
