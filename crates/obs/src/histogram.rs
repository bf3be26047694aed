//! Fixed-memory log-scale latency histograms.
//!
//! A touch latency is a `u64` nanosecond count; bucketing by the position of
//! its highest set bit gives 65 buckets covering the full `u64` range in a
//! few hundred bytes, with a hard quantile error bound: a value `v` lands in
//! the bucket `[2^(i-1), 2^i - 1]`, and quantiles report that bucket's upper
//! bound clamped to the tracked maximum, so the reported quantile is always in
//! `[exact, 2 * exact)` — the "~2x error" contract from the issue. That bound
//! is what lets these replace the unbounded full-sample `Vec<u64>`s in session
//! reports without losing the ability to check the paper's Section 4
//! interactivity ceiling.
//!
//! Two flavours share the bucketing:
//! * [`LogHistogram`] — atomic, for concurrent recording (server-wide touch
//!   latency). Wait-free `record`, consistent-enough `snapshot` on scrape.
//! * [`HistogramSnapshot`] — plain data, for single-owner accumulation
//!   (per-session latency inside a worker) and for merging/reporting.

use dbtouch_types::json::{object, Json};
use dbtouch_types::wire::{Wire, WireReader, WireWriter};
use dbtouch_types::{DbTouchError, Result};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: bucket 0 holds exact zeros, bucket `i >= 1` holds
/// values whose highest set bit is `i - 1`, i.e. `[2^(i-1), 2^i - 1]`.
pub const BUCKETS: usize = 65;

/// Bucket index for a value.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (`u64::MAX` for the top bucket).
#[inline]
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A concurrent log2-bucket histogram. All updates are single relaxed atomic
/// ops; `snapshot` reads the buckets without stopping writers (the snapshot is
/// internally consistent enough for monitoring: counts may trail `sum` by the
/// handful of records in flight).
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Wait-free: five relaxed atomic RMW ops, no CAS loop.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copy the current state into a plain [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// A plain-data log2-bucket histogram: the single-owner / post-scrape twin of
/// [`LogHistogram`]. Cheap to clone (a few hundred bytes, fixed), mergeable,
/// and queryable for nearest-rank quantiles with the ≤2x error bound.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    /// `u64::MAX` sentinel when empty.
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Hand-written because the buckets are sparse: count, sum, raw minimum
/// (the `u64::MAX` sentinel when empty) and maximum, then only the non-empty
/// buckets as `(index, count)` pairs, so a histogram round-trips exactly.
impl Wire for HistogramSnapshot {
    const MIN_BYTES: usize = 4 * u64::MIN_BYTES + u32::MIN_BYTES;
    fn put(&self, w: &mut WireWriter) {
        for v in [self.count, self.sum, self.min, self.max] {
            v.put(w);
        }
        let buckets = (0u8..).zip(self.buckets);
        let nonzero: Vec<(u8, u64)> = buckets.filter(|&(_, c)| c != 0).collect();
        nonzero.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let [count, sum, min, max] = [r.get()?, r.get()?, r.get()?, r.get()?];
        let mut buckets = [0u64; BUCKETS];
        for (i, c) in r.get::<Vec<(u8, u64)>>()? {
            *buckets.get_mut(i as usize).ok_or_else(|| {
                DbTouchError::ParseError(format!("histogram bucket index {i} out of range"))
            })? = c;
        }
        Ok(HistogramSnapshot {
            buckets,
            count,
            sum,
            min,
            max,
        })
    }
}

impl HistogramSnapshot {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value. (`sum` wraps at `u64::MAX` like the atomic flavour's
    /// `fetch_add`; unreachable for realistic nanosecond totals.)
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one. Associative and commutative, so
    /// per-session histograms can merge into a run-wide one in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate for `q` in `[0, 100]`.
    ///
    /// Returns the upper bound of the bucket holding the rank-th value,
    /// clamped to the observed maximum — so the estimate `e` for an exact
    /// nearest-rank quantile `x` satisfies `x <= e < 2 * max(x, 1)`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lower_bound, upper_bound, count)` triples — the
    /// wire form for exposition.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                (lo, bucket_upper(i), n)
            })
            .collect()
    }

    /// JSON exposition: summary quantiles plus the non-empty bucket list.
    pub fn to_json(&self) -> Json {
        let num = |n: u64| Json::Number(n as f64);
        let buckets = self
            .nonzero_buckets()
            .into_iter()
            .map(|(lo, hi, n)| object([("lo", num(lo)), ("hi", num(hi)), ("count", num(n))]))
            .collect();
        object([
            ("count", num(self.count)),
            ("sum", num(self.sum)),
            ("min", num(self.min().unwrap_or(0))),
            ("max", num(self.max)),
            ("mean", Json::Number(self.mean())),
            ("p50", num(self.quantile(50.0))),
            ("p90", num(self.quantile(90.0))),
            ("p99", num(self.quantile(99.0))),
            ("buckets", Json::Array(buckets)),
        ])
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("mean", &self.mean())
            .field("p50", &self.quantile(50.0))
            .field("p99", &self.quantile(99.0))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank quantile on a sorted copy, for comparison.
    fn exact_quantile(values: &[u64], q: f64) -> u64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Every bucket's bounds round-trip through bucket_of.
        for i in 1..64 {
            let lo = 1u64 << (i - 1);
            let hi = bucket_upper(i);
            assert_eq!(bucket_of(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_of(hi), i, "upper bound of bucket {i}");
        }
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = HistogramSnapshot::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_value_quantiles_are_exact_enough() {
        let mut h = HistogramSnapshot::new();
        h.record(1000);
        // 1000 lands in [512, 1023]; clamped to max => exactly 1000.
        assert_eq!(h.quantile(50.0), 1000);
        assert_eq!(h.quantile(99.0), 1000);
        assert_eq!(h.min(), Some(1000));
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn quantile_error_bound_on_fixed_sample() {
        let values: Vec<u64> = (1..=1000).map(|i| i * 37).collect();
        let mut h = HistogramSnapshot::new();
        for &v in &values {
            h.record(v);
        }
        for q in [1.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let exact = exact_quantile(&values, q);
            let est = h.quantile(q);
            assert!(est >= exact, "q{q}: est {est} < exact {exact}");
            assert!(est < exact * 2, "q{q}: est {est} >= 2x exact {exact}");
        }
    }

    #[test]
    fn merge_matches_bulk_record() {
        let a_vals: Vec<u64> = (1u64..200).map(|i| i * i).collect();
        let b_vals: Vec<u64> = (1u64..300).map(|i| i * 13).collect();
        let (mut a, mut b, mut both) = (
            HistogramSnapshot::new(),
            HistogramSnapshot::new(),
            HistogramSnapshot::new(),
        );
        for &v in &a_vals {
            a.record(v);
            both.record(v);
        }
        for &v in &b_vals {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn atomic_histogram_matches_plain() {
        let h = LogHistogram::new();
        let mut p = HistogramSnapshot::new();
        for v in [0u64, 1, 5, 900, 1_000_000, u64::MAX] {
            h.record(v);
            p.record(v);
        }
        assert_eq!(h.snapshot(), p);
    }

    #[test]
    fn concurrent_records_all_land() {
        let h = std::sync::Arc::new(LogHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i + 1);
                    }
                })
            })
            .collect();
        for hnd in handles {
            hnd.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 40_000);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), 40_000);
    }

    #[test]
    fn json_exposition_has_quantiles() {
        let mut h = HistogramSnapshot::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let j = h.to_json();
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(100));
        assert!(j.get("p99").and_then(Json::as_u64).unwrap() >= 99);
        assert!(!j
            .get("buckets")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
    }
}
