//! Result delivery: in-place, fading result values.
//!
//! Section 2.3 ("Inspecting Results"): results appear in place as the gesture
//! progresses — "every single result value pops up from the position in the
//! data object where the raw value responsible for this result lies" — and
//! "soon after a result value becomes visible, it subsequently fades away,
//! making room for more results".
//!
//! The [`ResultStream`] keeps every produced [`TouchResult`] together with the
//! information a front-end needs to render that behaviour: where on the object
//! the value belongs (as a fraction of the object extent), when it was
//! produced, and the fade policy it is shown under.

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
    /// A join match (the value is the join key).
    JoinMatch,
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
    4 => JoinMatch,
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
    /// Convenience constructor for a single-value result.
    pub fn single(
        row: RowId,
        position_fraction: f64,
        value: Value,
        produced_at: Timestamp,
        kind: ResultKind,
    ) -> TouchResult {
        TouchResult {
            row,
            position_fraction,
            values: vec![value],
            produced_at,
            kind,
        }
    }

    /// The first (usually only) value.
    pub fn value(&self) -> Option<&Value> {
        self.values.first()
    }
}

/// The fade policy: how long results stay visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FadePolicy {
    /// Milliseconds a result stays fully visible.
    pub visible_ms: u64,
    /// Milliseconds over which it then fades to invisible.
    pub fade_ms: u64,
}

dbtouch_types::wire_struct!(FadePolicy {
    visible_ms: u64,
    fade_ms: u64,
});

impl Default for FadePolicy {
    fn default() -> Self {
        FadePolicy {
            visible_ms: 400,
            fade_ms: 800,
        }
    }
}

/// The ordered stream of results produced during a session.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResultStream {
    results: Vec<TouchResult>,
    fade: FadePolicy,
}

dbtouch_types::wire_struct!(ResultStream {
    fade: FadePolicy,
    results: Vec<TouchResult>,
});

impl ResultStream {
    /// Create an empty stream with the given fade policy.
    pub fn new(fade: FadePolicy) -> ResultStream {
        ResultStream {
            results: Vec::new(),
            fade,
        }
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

    /// The fade policy results are rendered under.
    pub fn fade(&self) -> FadePolicy {
        self.fade
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
        TouchResult::single(
            RowId(row),
            row as f64 / 100.0,
            Value::Int(row as i64),
            Timestamp::from_millis(ms),
            ResultKind::Scan,
        )
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
    fn single_value_accessor() {
        let r = result_at(0, 7);
        assert_eq!(r.value(), Some(&Value::Int(7)));
        assert_eq!(r.position_fraction, 0.07);
    }
}
