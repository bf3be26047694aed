//! Order statistics: percentiles, Python-compatible quartiles, spread.

/// Sort a sample ascending (NaN-free by construction: timings and counts).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    values
}

/// Nearest-rank percentile `q` in `[0, 100]` of an ascending sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    percentile_with_failures(sorted, 0, q)
}

/// Nearest-rank percentile where `failed` further operations count as slower
/// than every measured one: a rank that lands among them has no finite
/// value, reported as `f64::MAX`.
pub fn percentile_with_failures(sorted: &[f64], failed: u64, q: f64) -> f64 {
    let n = sorted.len() as u64 + failed;
    if n == 0 {
        return 0.0;
    }
    let rank = ((q / 100.0 * n as f64).ceil() as u64).clamp(1, n);
    sorted.get(rank as usize - 1).copied().unwrap_or(f64::MAX)
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Median of integer nanosecond samples, in microseconds.
pub fn p50_us(nanos: &[u64]) -> f64 {
    let s = sorted(nanos.iter().map(|&n| n as f64 / 1e3).collect());
    percentile(&s, 50.0)
}

/// The percentiles a report may quote, lowest first, each with the `n` of
/// its "1 in n" tail.
const LADDER: [(f64, usize); 6] = [
    (50.0, 2),
    (90.0, 10),
    (95.0, 20),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// The highest percentile of the ladder with at least ten samples beyond it
/// (so p99 needs 1 000 samples, p99.9 needs 10 000). `None` below 20 samples.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    LADDER
        .iter()
        .filter(|(_, tail)| samples / tail >= 10)
        .map(|&(q, _)| q)
        .next_back()
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the driver computes spreads from. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_returns_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank_and_failures_rank_last() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        // Two failures out of 102: p99 (rank 101) lands on a failure.
        assert_eq!(percentile_with_failures(&s, 2, 99.0), f64::MAX);
        assert_eq!(percentile_with_failures(&s, 2, 50.0), 51.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 15.0, 22.5)));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
