//! Incremental grouping.
//!
//! Hash-based grouping is blocking in the same way hash joins are (Section 2.9).
//! The incremental group-by keeps one running aggregate per group and absorbs
//! one `(group, value)` pair per touch, so partial group results are available
//! and continuously refined throughout the gesture.

use crate::operators::aggregate::{AggregateKind, RunningAggregate};
use dbtouch_types::Value;
use std::collections::HashMap;

/// An incrementally maintained group-by with one running aggregate per group.
#[derive(Debug, Clone)]
pub struct IncrementalGroupBy {
    kind: AggregateKind,
    groups: HashMap<String, (Value, RunningAggregate)>,
    rows_consumed: u64,
}

impl IncrementalGroupBy {
    /// Create a group-by maintaining the given aggregate per group.
    pub fn new(kind: AggregateKind) -> IncrementalGroupBy {
        IncrementalGroupBy {
            kind,
            groups: HashMap::new(),
            rows_consumed: 0,
        }
    }

    fn group_key(value: &Value) -> String {
        match value.as_f64() {
            Ok(v) => format!("n:{v}"),
            Err(_) => format!("s:{value}"),
        }
    }

    /// Absorb one `(group, value)` pair.
    pub fn update(&mut self, group: Value, value: f64) {
        self.rows_consumed += 1;
        let key = Self::group_key(&group);
        let entry = self
            .groups
            .entry(key)
            .or_insert_with(|| (group, RunningAggregate::new(self.kind)));
        entry.1.update(value);
    }

    /// Rows consumed so far.
    pub fn rows_consumed(&self) -> u64 {
        self.rows_consumed
    }

    /// The current `(group, aggregate value)` pairs, sorted by group for
    /// deterministic output.
    pub fn results(&self) -> Vec<(Value, f64)> {
        let mut out: Vec<(Value, f64)> = self
            .groups
            .values()
            .filter_map(|(g, agg)| agg.value().map(|v| (g.clone(), v)))
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// The aggregate for one specific group, if that group has been seen.
    pub fn group(&self, group: &Value) -> Option<f64> {
        self.groups
            .get(&Self::group_key(group))
            .and_then(|(_, agg)| agg.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_accumulate_independently() {
        let mut g = IncrementalGroupBy::new(AggregateKind::Sum);
        g.update(Value::Str("a".into()), 1.0);
        g.update(Value::Str("b".into()), 10.0);
        g.update(Value::Str("a".into()), 2.0);
        assert_eq!(g.results().len(), 2);
        assert_eq!(g.rows_consumed(), 3);
        assert_eq!(g.group(&Value::Str("a".into())), Some(3.0));
        assert_eq!(g.group(&Value::Str("b".into())), Some(10.0));
        assert_eq!(g.group(&Value::Str("c".into())), None);
    }

    #[test]
    fn results_sorted_by_group() {
        let mut g = IncrementalGroupBy::new(AggregateKind::Count);
        g.update(Value::Int(3), 0.0);
        g.update(Value::Int(1), 0.0);
        g.update(Value::Int(2), 0.0);
        g.update(Value::Int(1), 0.0);
        let results = g.results();
        assert_eq!(
            results,
            vec![
                (Value::Int(1), 2.0),
                (Value::Int(2), 1.0),
                (Value::Int(3), 1.0)
            ]
        );
    }

    #[test]
    fn avg_per_group() {
        let mut g = IncrementalGroupBy::new(AggregateKind::Avg);
        g.update(Value::Int(1), 10.0);
        g.update(Value::Int(1), 20.0);
        assert_eq!(g.group(&Value::Int(1)), Some(15.0));
    }

    #[test]
    fn numeric_groups_unify_across_types() {
        let mut g = IncrementalGroupBy::new(AggregateKind::Count);
        g.update(Value::Int(2), 0.0);
        g.update(Value::Float(2.0), 0.0);
        assert_eq!(g.results().len(), 1);
        assert_eq!(g.group(&Value::Int(2)), Some(2.0));
    }

    #[test]
    fn empty_group_by() {
        let g = IncrementalGroupBy::new(AggregateKind::Sum);
        assert_eq!(g.results().len(), 0);
        assert!(g.results().is_empty());
    }
}
