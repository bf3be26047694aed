//! Running aggregates.
//!
//! When an aggregation action is selected, dbTouch "computes a running aggregate
//! and continuously updates this result" as the slide progresses (Section 2.3).
//! [`RunningAggregate`] is that state: it absorbs one value per touch (or one
//! summary window per touch) and can report the current aggregate at any time.

use dbtouch_types::{DbTouchError, Result};
use serde::{Deserialize, Serialize};

/// The aggregate function being maintained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggregateKind {
    /// Number of values touched.
    Count,
    /// Sum of touched values.
    Sum,
    /// Arithmetic mean of touched values.
    Avg,
    /// Minimum touched value.
    Min,
    /// Maximum touched value.
    Max,
}

dbtouch_types::wire_enum!(AggregateKind {
    0 => Count,
    1 => Sum,
    2 => Avg,
    3 => Min,
    4 => Max,
});

impl AggregateKind {
    /// All supported aggregate kinds (useful for sweeps in tests/benches).
    pub const ALL: [AggregateKind; 5] = [
        AggregateKind::Count,
        AggregateKind::Sum,
        AggregateKind::Avg,
        AggregateKind::Min,
        AggregateKind::Max,
    ];

    /// Lowercase name (`count`, `sum`, ...).
    pub fn name(&self) -> &'static str {
        match self {
            AggregateKind::Count => "count",
            AggregateKind::Sum => "sum",
            AggregateKind::Avg => "avg",
            AggregateKind::Min => "min",
            AggregateKind::Max => "max",
        }
    }
}

/// Incrementally maintained aggregate over the values touched so far.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunningAggregate {
    kind: AggregateKind,
    count: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl RunningAggregate {
    /// Create an empty aggregate of the given kind.
    pub fn new(kind: AggregateKind) -> RunningAggregate {
        RunningAggregate {
            kind,
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    /// The aggregate kind.
    pub fn kind(&self) -> AggregateKind {
        self.kind
    }

    /// Absorb a single value.
    pub fn update(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Absorb a pre-aggregated batch described by `(count, sum, min, max)` —
    /// the shape produced by the storage layer's range statistics. This lets an
    /// interactive-summary window feed the running aggregate without
    /// re-touching individual rows.
    pub fn update_batch(&mut self, count: u64, sum: f64, min: Option<f64>, max: Option<f64>) {
        if count == 0 {
            return;
        }
        self.count += count;
        self.sum += sum;
        if let Some(m) = min {
            self.min = Some(self.min.map_or(m, |cur| cur.min(m)));
        }
        if let Some(m) = max {
            self.max = Some(self.max.map_or(m, |cur| cur.max(m)));
        }
    }

    /// Merge another running aggregate of the same kind into this one.
    pub fn merge(&mut self, other: &RunningAggregate) -> Result<()> {
        if self.kind != other.kind {
            return Err(DbTouchError::InvalidPlan(format!(
                "cannot merge {} aggregate into {} aggregate",
                other.kind.name(),
                self.kind.name()
            )));
        }
        self.update_batch(other.count, other.sum, other.min, other.max);
        Ok(())
    }

    /// Values absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The current value of the aggregate, or `None` before any input (except
    /// `Count`, which is 0).
    pub fn value(&self) -> Option<f64> {
        match self.kind {
            AggregateKind::Count => Some(self.count as f64),
            AggregateKind::Sum => {
                if self.count == 0 {
                    None
                } else {
                    Some(self.sum)
                }
            }
            AggregateKind::Avg => {
                if self.count == 0 {
                    None
                } else {
                    Some(self.sum / self.count as f64)
                }
            }
            AggregateKind::Min => self.min,
            AggregateKind::Max => self.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sum_avg_min_max() {
        let values = [3.0, 1.0, 4.0, 1.0, 5.0];
        let mut aggs: Vec<RunningAggregate> = AggregateKind::ALL
            .iter()
            .map(|k| RunningAggregate::new(*k))
            .collect();
        for v in values {
            for a in &mut aggs {
                a.update(v);
            }
        }
        assert_eq!(aggs[0].value(), Some(5.0)); // count
        assert_eq!(aggs[1].value(), Some(14.0)); // sum
        assert_eq!(aggs[2].value(), Some(2.8)); // avg
        assert_eq!(aggs[3].value(), Some(1.0)); // min
        assert_eq!(aggs[4].value(), Some(5.0)); // max
    }

    #[test]
    fn empty_aggregates() {
        assert_eq!(
            RunningAggregate::new(AggregateKind::Count).value(),
            Some(0.0)
        );
        assert_eq!(RunningAggregate::new(AggregateKind::Sum).value(), None);
        assert_eq!(RunningAggregate::new(AggregateKind::Avg).value(), None);
        assert_eq!(RunningAggregate::new(AggregateKind::Min).value(), None);
        assert_eq!(RunningAggregate::new(AggregateKind::Max).value(), None);
    }

    #[test]
    fn batch_update_matches_individual_updates() {
        let mut a = RunningAggregate::new(AggregateKind::Avg);
        let mut b = RunningAggregate::new(AggregateKind::Avg);
        for v in [2.0, 4.0, 6.0] {
            a.update(v);
        }
        b.update_batch(3, 12.0, Some(2.0), Some(6.0));
        assert_eq!(a.value(), b.value());
        assert_eq!(a.count(), b.count());
        // empty batch is a no-op
        b.update_batch(0, 100.0, Some(-5.0), Some(50.0));
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn merge_same_kind() {
        let mut a = RunningAggregate::new(AggregateKind::Max);
        a.update(3.0);
        let mut b = RunningAggregate::new(AggregateKind::Max);
        b.update(7.0);
        a.merge(&b).unwrap();
        assert_eq!(a.value(), Some(7.0));
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn merge_kind_mismatch_rejected() {
        let mut a = RunningAggregate::new(AggregateKind::Min);
        let b = RunningAggregate::new(AggregateKind::Max);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn running_avg_updates_continuously() {
        let mut a = RunningAggregate::new(AggregateKind::Avg);
        a.update(10.0);
        assert_eq!(a.value(), Some(10.0));
        a.update(20.0);
        assert_eq!(a.value(), Some(15.0));
        a.update(30.0);
        assert_eq!(a.value(), Some(20.0));
    }

    #[test]
    fn kind_names() {
        assert_eq!(AggregateKind::Avg.name(), "avg");
        assert_eq!(AggregateKind::ALL.len(), 5);
    }
}
