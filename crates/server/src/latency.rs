//! Per-touch latency accounting for served sessions.
//!
//! The paper's interactive-behaviour requirement (Section 4) — "there should
//! always be a maximum possible wait time for a single touch" — becomes, in a
//! serving context, a tail-latency requirement: the server must know its p99
//! per-touch time under load, not just its throughput.

use dbtouch_obs::HistogramSnapshot;

/// Summary of per-touch latency across many traces.
///
/// The percentiles are over each trace's *mean* per-touch time — the
/// distribution of how fast whole gestures were served. `max_nanos` is the
/// true worst single touch across every trace (not the worst mean), so the
/// tail a slow individual touch creates is never averaged away.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of traces measured.
    pub count: usize,
    /// Mean per-touch nanoseconds across traces.
    pub mean_nanos: u64,
    /// Median of per-trace mean per-touch nanoseconds.
    pub p50_nanos: u64,
    /// 90th percentile of per-trace mean per-touch nanoseconds.
    pub p90_nanos: u64,
    /// 99th percentile of per-trace mean per-touch nanoseconds.
    pub p99_nanos: u64,
    /// Worst single-touch nanoseconds observed in any trace.
    pub max_nanos: u64,
}

impl LatencySummary {
    /// Summarize a per-touch latency histogram (each recorded value one
    /// trace's mean per-touch nanoseconds). `max_touch_nanos` is the worst
    /// single touch tracked alongside the histogram; the larger of it and
    /// the histogram's own max is reported, so a caller that tracked no
    /// per-touch worst still gets the worst per-trace mean.
    ///
    /// Percentiles inherit the histogram's log-scale bucket resolution:
    /// each is an upper bound within 2x of the exact nearest-rank value
    /// (see [`HistogramSnapshot::quantile`]).
    pub fn from_histogram(hist: &HistogramSnapshot, max_touch_nanos: u64) -> LatencySummary {
        if hist.count() == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count: hist.count() as usize,
            mean_nanos: hist.mean() as u64,
            p50_nanos: hist.quantile(50.0),
            p90_nanos: hist.quantile(90.0),
            p99_nanos: hist.quantile(99.0),
            max_nanos: max_touch_nanos.max(hist.max()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank percentile over an already-sorted, non-empty slice: the
    /// exact value the histogram's estimate must bound.
    fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn histogram_summary_bounds_the_exact_percentiles() {
        let per_touch: Vec<u64> = (1..=200u64).map(|i| i * 1_000).collect();
        let mut hist = HistogramSnapshot::default();
        per_touch.iter().for_each(|&v| hist.record(v));
        // A tracked worst touch above every per-trace mean is reported as is.
        let summary = LatencySummary::from_histogram(&hist, 450_000);
        assert_eq!(summary.count, 200);
        assert_eq!(summary.max_nanos, 450_000, "max stays exact");
        for (est, p) in [
            (summary.p50_nanos, 50.0),
            (summary.p90_nanos, 90.0),
            (summary.p99_nanos, 99.0),
        ] {
            let want = percentile_sorted(&per_touch, p);
            assert!(est >= want, "histogram percentile is an upper bound");
            assert!(est < want * 2, "within the 2x log-bucket error bound");
        }
        // Without a tracked worst touch the worst per-trace mean stands in.
        assert_eq!(LatencySummary::from_histogram(&hist, 0).max_nanos, 200_000);
        assert_eq!(
            LatencySummary::from_histogram(&HistogramSnapshot::default(), 9),
            LatencySummary::default()
        );
    }
}
