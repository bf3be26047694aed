//! The one range fold.
//!
//! Every window aggregate — `Column::{numeric,segment}_range_stats`, in
//! memory or paged, packed or not — is computed here. Producers present a row
//! range as a sequence of spans in ascending row order: *raw values* (a typed
//! vector slice, or the little-endian row bytes of an unpacked page) or a row
//! sub-range of an encoded page's [`SpanView`]. The fold runs under one of two
//! sum disciplines:
//!
//! * [`Ordered`] — an `f64` sum, one addition per row in row order. Float
//!   addition is not associative, so a repeated value is still added once per
//!   row and the bits equal a row-at-a-time loop over the decoded column.
//! * [`Exact`] — an `i128` sum over integer columns. Exact arithmetic is
//!   associative, so an RLE run costs one multiply and a dictionary page one
//!   multiply per distinct value, and partial results merge bit-identically
//!   however a window was decomposed.
//!
//! Min and max are idempotent, so both disciplines fold them once per run.
//! A new page encoding is one more [`SpanView`] arm in [`RangeFold::encoded`].

use crate::encoding::{rle_runs, SpanView};
use crate::segment::{SegmentStats, SegmentSum};

/// Byte width of every numeric element (`i64`, `f64`, timestamps).
pub(crate) const ELEM_BYTES: usize = 8;

/// A numeric element type as the fold reads it.
pub(crate) trait Elem: Copy + 'static {
    /// Decode from the first [`ELEM_BYTES`] little-endian bytes of `bytes`.
    fn from_le(bytes: &[u8]) -> Self;
    /// The value min/max (and the ordered sum) see.
    fn to_f64(self) -> f64;
}

impl Elem for i64 {
    fn from_le(bytes: &[u8]) -> i64 {
        i64::from_le_bytes(bytes[..ELEM_BYTES].try_into().expect("8-byte slice"))
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Elem for f64 {
    fn from_le(bytes: &[u8]) -> f64 {
        f64::from_le_bytes(bytes[..ELEM_BYTES].try_into().expect("8-byte slice"))
    }
    fn to_f64(self) -> f64 {
        self
    }
}

/// Raw values out of verbatim little-endian row bytes.
pub(crate) fn le_values<T: Elem>(bytes: &[u8]) -> impl ExactSizeIterator<Item = T> + '_ {
    bytes.chunks_exact(ELEM_BYTES).map(T::from_le)
}

/// A sum discipline over elements of type `T`.
pub(crate) trait Sum<T>: Default + Into<SegmentSum> {
    /// Whether `n` equal values may be added as one product (and a
    /// dictionary page by counting codes) without changing the result.
    const ASSOCIATIVE: bool;
    /// Add one value.
    fn add(&mut self, x: T);
    /// Add `n` consecutive rows that all hold `x`.
    fn add_repeated(&mut self, x: T, n: u64);
}

/// Row-ordered `f64` accumulation.
#[derive(Default)]
pub(crate) struct Ordered(f64);

impl<T: Elem> Sum<T> for Ordered {
    const ASSOCIATIVE: bool = false;
    #[inline]
    fn add(&mut self, x: T) {
        self.0 += x.to_f64();
    }
    fn add_repeated(&mut self, x: T, n: u64) {
        let x = x.to_f64();
        for _ in 0..n {
            self.0 += x;
        }
    }
}

impl From<Ordered> for SegmentSum {
    fn from(sum: Ordered) -> SegmentSum {
        SegmentSum::Float(sum.0)
    }
}

/// Exact `i128` accumulation of integer elements.
#[derive(Default)]
pub(crate) struct Exact(i128);

impl Sum<i64> for Exact {
    const ASSOCIATIVE: bool = true;
    #[inline]
    fn add(&mut self, x: i64) {
        self.0 += x as i128;
    }
    fn add_repeated(&mut self, x: i64, n: u64) {
        self.0 += x as i128 * n as i128;
    }
}

impl From<Exact> for SegmentSum {
    fn from(sum: Exact) -> SegmentSum {
        SegmentSum::Int(sum.0)
    }
}

/// Count, sum, min and max of the spans fed so far.
#[derive(Default)]
pub(crate) struct RangeFold<S> {
    count: u64,
    sum: S,
    min: Option<f64>,
    max: Option<f64>,
    /// RLE runs of two or more rows that cost one multiply instead of a
    /// row-by-row decode (`encoding.run_skips`).
    pub(crate) run_skips: u64,
}

impl<S> RangeFold<S> {
    #[inline]
    fn min_max(&mut self, x: f64) {
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Fold a span of raw values.
    #[inline]
    pub(crate) fn raw<T: Elem>(&mut self, values: impl ExactSizeIterator<Item = T>)
    where
        S: Sum<T>,
    {
        self.count += values.len() as u64;
        for x in values {
            self.sum.add(x);
            self.min_max(x.to_f64());
        }
    }

    /// Fold `n > 0` consecutive rows that all hold `x`.
    fn repeated<T: Elem>(&mut self, x: T, n: u64)
    where
        S: Sum<T>,
    {
        self.count += n;
        self.sum.add_repeated(x, n);
        self.min_max(x.to_f64());
    }

    /// Fold rows `lo..hi` of one validated encoded span without decoding it.
    /// The caller has checked that the span stores at least `hi` rows.
    pub(crate) fn encoded<T: Elem>(&mut self, view: SpanView<'_>, lo: usize, hi: usize)
    where
        S: Sum<T>,
    {
        match view {
            SpanView::Raw { rows } => {
                self.raw(le_values::<T>(&rows[lo * ELEM_BYTES..hi * ELEM_BYTES]));
            }
            SpanView::Rle { runs } => {
                let mut cum = 0usize;
                for (len, value) in rle_runs(runs, ELEM_BYTES) {
                    let start = cum;
                    cum += len as usize;
                    if cum <= lo {
                        continue;
                    }
                    if start >= hi {
                        break;
                    }
                    let overlap = (cum.min(hi) - start.max(lo)) as u64;
                    self.repeated(T::from_le(value), overlap);
                    if S::ASSOCIATIVE && overlap >= 2 {
                        self.run_skips += 1;
                    }
                }
            }
            SpanView::Dict { dict, codes } if S::ASSOCIATIVE => {
                let mut counts = [0u32; 256];
                for &c in &codes[lo..hi] {
                    counts[c as usize] += 1;
                }
                for (value, &n) in dict.chunks_exact(ELEM_BYTES).zip(&counts) {
                    if n > 0 {
                        self.repeated(T::from_le(value), n as u64);
                    }
                }
            }
            SpanView::Dict { dict, codes } => {
                let lookup = |&c: &u8| T::from_le(&dict[c as usize * ELEM_BYTES..]);
                self.raw(codes[lo..hi].iter().map(lookup));
            }
        }
    }

    /// The statistics of everything folded.
    pub(crate) fn finish(self) -> SegmentStats
    where
        S: Into<SegmentSum>,
    {
        SegmentStats {
            count: self.count,
            sum: self.sum.into(),
            min: self.min,
            max: self.max,
        }
    }
}
