//! Ground-truthed pattern injection.
//!
//! The demo contest asks participants to "figure out the data properties and
//! patterns" hidden in the provided data sets. To make that measurable, every
//! injected pattern carries its ground truth (where it is and what it is), and
//! the explorers are scored by how close they get to it while touching as
//! little data as possible.

use serde::{Deserialize, Serialize};

/// The kind of anomaly injected into a signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PatternKind {
    /// A contiguous cluster of unusually large values.
    OutlierCluster {
        /// Value added to every sample of the cluster.
        magnitude: f64,
    },
    /// A persistent level shift starting at the pattern location.
    LevelShift {
        /// Value added to every sample from the location onwards.
        delta: f64,
    },
    /// A linear trend superimposed over the affected region.
    Trend {
        /// Total increase across the affected region.
        total_increase: f64,
    },
}

/// One injected pattern with its ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pattern {
    /// The kind of anomaly.
    pub kind: PatternKind,
    /// First affected row.
    pub start_row: u64,
    /// Number of affected rows (for [`PatternKind::LevelShift`] this is the
    /// shifted region's length; the shift persists through it).
    pub len_rows: u64,
}

impl Pattern {
    /// The centre of the affected region as a fraction of `total_rows`.
    pub fn center_fraction(&self, total_rows: u64) -> f64 {
        if total_rows == 0 {
            return 0.0;
        }
        (self.start_row as f64 + self.len_rows as f64 / 2.0) / total_rows as f64
    }

    /// Apply the pattern to a signal in place. Rows beyond the signal are
    /// ignored.
    pub fn apply(&self, data: &mut [f64]) {
        let start = self.start_row as usize;
        let end = ((self.start_row + self.len_rows) as usize).min(data.len());
        if start >= data.len() || start >= end {
            return;
        }
        match self.kind {
            PatternKind::OutlierCluster { magnitude } => {
                for v in &mut data[start..end] {
                    *v += magnitude;
                }
            }
            PatternKind::LevelShift { delta } => {
                for v in &mut data[start..end] {
                    *v += delta;
                }
            }
            PatternKind::Trend { total_increase } => {
                let n = (end - start).max(1) as f64;
                for (i, v) in data[start..end].iter_mut().enumerate() {
                    *v += total_increase * (i as f64 / n);
                }
            }
        }
    }

    /// Convenience constructor: an outlier cluster centred at a fraction of the
    /// data with a relative width.
    pub fn outlier_at(
        total_rows: u64,
        center_fraction: f64,
        width_fraction: f64,
        magnitude: f64,
    ) -> Pattern {
        let len = ((total_rows as f64 * width_fraction).round() as u64).max(1);
        let center = (total_rows as f64 * center_fraction.clamp(0.0, 1.0)) as u64;
        let start = center
            .saturating_sub(len / 2)
            .min(total_rows.saturating_sub(len));
        Pattern {
            kind: PatternKind::OutlierCluster { magnitude },
            start_row: start,
            len_rows: len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outlier_cluster_raises_values() {
        let mut data = vec![1.0; 100];
        let p = Pattern {
            kind: PatternKind::OutlierCluster { magnitude: 10.0 },
            start_row: 40,
            len_rows: 10,
        };
        p.apply(&mut data);
        assert_eq!(data[39], 1.0);
        assert_eq!(data[40], 11.0);
        assert_eq!(data[49], 11.0);
        assert_eq!(data[50], 1.0);
    }

    #[test]
    fn level_shift_and_trend() {
        let mut shift = vec![0.0; 10];
        Pattern {
            kind: PatternKind::LevelShift { delta: 3.0 },
            start_row: 5,
            len_rows: 5,
        }
        .apply(&mut shift);
        assert_eq!(
            shift,
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 3.0, 3.0, 3.0, 3.0]
        );

        let mut trend = vec![0.0; 10];
        Pattern {
            kind: PatternKind::Trend {
                total_increase: 10.0,
            },
            start_row: 0,
            len_rows: 10,
        }
        .apply(&mut trend);
        assert_eq!(trend[0], 0.0);
        assert!(trend[9] > trend[5]);
        assert!(trend[9] <= 10.0);
    }

    #[test]
    fn center_fraction() {
        let p = Pattern {
            kind: PatternKind::OutlierCluster { magnitude: 1.0 },
            start_row: 450,
            len_rows: 100,
        };
        assert!((p.center_fraction(1000) - 0.5).abs() < 1e-9);
        assert_eq!(p.center_fraction(0), 0.0);
    }

    #[test]
    fn outlier_at_constructor_clamps() {
        let p = Pattern::outlier_at(1000, 0.99, 0.1, 5.0);
        assert!(p.start_row + p.len_rows <= 1000);
        assert_eq!(p.len_rows, 100);
        let q = Pattern::outlier_at(1000, 0.5, 0.05, 5.0);
        assert!((q.center_fraction(1000) - 0.5).abs() < 0.05);
    }

    #[test]
    fn apply_out_of_bounds_is_safe() {
        let mut data = vec![1.0; 10];
        Pattern {
            kind: PatternKind::OutlierCluster { magnitude: 5.0 },
            start_row: 50,
            len_rows: 10,
        }
        .apply(&mut data);
        assert!(data.iter().all(|&v| v == 1.0));
        // partially overlapping tail
        Pattern {
            kind: PatternKind::OutlierCluster { magnitude: 5.0 },
            start_row: 8,
            len_rows: 10,
        }
        .apply(&mut data);
        assert_eq!(data[7], 1.0);
        assert_eq!(data[8], 6.0);
        assert_eq!(data[9], 6.0);
    }
}
