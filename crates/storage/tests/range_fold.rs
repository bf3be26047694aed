//! The range fold against a naive reference.
//!
//! `Column::numeric_range_stats` and `Column::segment_range_stats` must agree
//! bit for bit (`f64::to_bits`, exact `i128`) with a row-at-a-time loop over
//! `Column::get`, whatever holds the rows — an in-memory vector, unpacked
//! pages, or packed pages whose spans are RLE, dictionary or raw — and
//! wherever the range starts and ends. The reference lives here, not in the
//! crate: it is the definition the one fold in `storage::fold` is held to.

use dbtouch_storage::column::Column;
use dbtouch_storage::encoding::EncodingPolicy;
use dbtouch_storage::page::rows_per_page;
use dbtouch_storage::pager::{ColumnExtent, PagedColumn, Pager};
use dbtouch_storage::segment::{SegmentStats, SegmentSum};
use dbtouch_types::{DataType, DbTouchError, RowId, RowRange, Value};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const PAGE_SIZE: usize = 256;
/// Rows of one unpacked page, and of one page at the highest pack factor.
const RAW_RPP: u64 = 29;
const MAX_PACKED_RPP: u64 = RAW_RPP * 64;

fn pager(tag: &str) -> Arc<Pager> {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dbtouch-range-fold-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let pager = Pager::open_or_create(dir.join("pages.dat"), PAGE_SIZE, 16).unwrap();
    // The pager reads through its open handle, so nothing is left in /tmp.
    std::fs::remove_dir_all(&dir).unwrap();
    Arc::new(pager)
}

/// Values whose `f64` sum depends on the order of addition (as integers and
/// scaled to floats alike) and whose exact sum needs more than 64 bits.
const PALETTE: [i64; 8] = [
    i64::MAX,
    -3,
    i64::MIN,
    (1 << 53) + 1,
    7,
    i64::MAX - 1,
    -((1 << 53) + 1),
    0,
];

/// How the rows are laid out, which decides what the packer does with them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Every value distinct: stays unpacked under any policy.
    Distinct,
    /// Long runs: packs to RLE spans.
    Runs,
    /// Few values, no runs: packs to dictionary spans.
    FewValues,
    /// One constant full span, then a short distinct tail: the tail's span
    /// is packed but raw.
    RunsThenRawTail,
}

fn column_of(dt: DataType, shape: Shape, rows: u64, salt: u64) -> Column {
    let mix = |i: u64| (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
    let pick = |i: u64| PALETTE[i as usize % PALETTE.len()];
    let value = |i: u64| match shape {
        Shape::Distinct => mix(i) as i64 - (1 << 40),
        Shape::Runs => pick(mix(i / (40 + salt % 90))),
        Shape::FewValues => pick(mix(i) % (2 + salt % 7)),
        Shape::RunsThenRawTail if i < MAX_PACKED_RPP => pick(salt),
        Shape::RunsThenRawTail => mix(i) as i64,
    };
    let values: Vec<i64> = (0..rows).map(value).collect();
    match dt {
        DataType::Int64 => Column::from_i64("c", values),
        DataType::TimestampMillis => Column::from_timestamps("c", values),
        _ => Column::from_f64("c", values.iter().map(|&v| v as f64 * 0.1).collect()),
    }
}

/// The definition: one row at a time through `Column::get`, an `f64` sum in
/// row order and, for integer columns, an exact `i128` sum beside it.
/// Returns what `numeric_range_stats` and `segment_range_stats` must equal.
fn reference(column: &Column, range: RowRange) -> (SegmentStats, SegmentStats) {
    let range = range.clamp_to(column.len());
    let (mut fsum, mut isum) = (0.0f64, 0i128);
    let (mut min, mut max): (Option<f64>, Option<f64>) = (None, None);
    for row in range.start..range.end {
        let x = match column.get(RowId(row)).unwrap() {
            Value::Int(v) | Value::Timestamp(v) => {
                isum += v as i128;
                v as f64
            }
            Value::Float(v) => v,
            other => panic!("not numeric: {other:?}"),
        };
        fsum += x;
        min = Some(min.map_or(x, |m| m.min(x)));
        max = Some(max.map_or(x, |m| m.max(x)));
    }
    let stats = |sum| SegmentStats {
        count: range.len(),
        sum,
        min,
        max,
    };
    let typed = if column.data_type().is_integer() {
        SegmentSum::Int(isum)
    } else {
        SegmentSum::Float(fsum)
    };
    (stats(SegmentSum::Float(fsum)), stats(typed))
}

/// Statistics as exactly comparable bits.
fn bits(s: SegmentStats) -> (u64, Result<i128, u64>, Option<u64>, Option<u64>) {
    let sum = match s.sum {
        SegmentSum::Int(exact) => Ok(exact),
        SegmentSum::Float(ordered) => Err(ordered.to_bits()),
    };
    (
        s.count,
        sum,
        s.min.map(f64::to_bits),
        s.max.map(f64::to_bits),
    )
}

/// Ranges every column is checked over: whole, inside one page, unaligned
/// across pages, empty, clamped, and beyond the end.
fn fixed_ranges(rows: u64) -> Vec<RowRange> {
    vec![
        RowRange::new(0, rows),
        RowRange::new(10, 20),
        RowRange::new(17, rows.saturating_sub(7)),
        RowRange::new(rows / 2, rows / 2),
        RowRange::new(rows.saturating_sub(3), rows + 50),
        RowRange::new(rows + 5, rows + 9),
    ]
}

/// Hold both public entry points to the reference over `ranges`, for the
/// column in memory, on unpacked pages, and on the pages the default policy
/// packs it to — after checking the packer chose what `shape` promises.
fn check_column(column: &Column, shape: Shape, ranges: &[RowRange]) -> Result<(), String> {
    let pager = pager("column");
    let paged = |policy: &EncodingPolicy| {
        let extent = column.persist_to_encoded(&pager, policy).unwrap();
        let reader = PagedColumn::new(Arc::clone(&pager), extent).unwrap();
        (extent, Column::paged("c", reader))
    };
    let (raw_extent, unpacked) = paged(&EncodingPolicy::disabled());
    let (extent, packed) = paged(&EncodingPolicy::default());
    let stats = pager.encoding_stats();
    let (rle, dict) = (stats.rle_pages(), stats.dict_pages());
    prop_assert!(!raw_extent.is_packed());
    prop_assert_eq!(extent.is_packed(), shape != Shape::Distinct);
    match shape {
        Shape::Distinct => {}
        Shape::Runs => prop_assert!(rle > 0, "no RLE page"),
        Shape::FewValues => prop_assert!(dict > 0, "no dictionary page"),
        Shape::RunsThenRawTail => prop_assert!(rle + dict < extent.page_count, "no raw span"),
    }
    let subjects = [
        ("in-memory", column),
        ("unpacked", &unpacked),
        ("packed", &packed),
    ];
    for (what, subject) in subjects {
        for &range in ranges {
            let (numeric, segment) = reference(column, range);
            let (count, sum, min, max) = subject.numeric_range_stats(range).unwrap();
            let sum = SegmentSum::Float(sum);
            let got_numeric = SegmentStats {
                count,
                sum,
                min,
                max,
            };
            let got_segment = subject.segment_range_stats(range).unwrap();
            let outcome = (|| {
                prop_assert_eq!(bits(got_numeric), bits(numeric));
                prop_assert_eq!(bits(got_segment), bits(segment));
                Ok(())
            })();
            outcome.map_err(|e: String| format!("{what} {shape:?} {range:?}: {e}"))?;
        }
    }
    Ok(())
}

const TYPES: [DataType; 3] = [
    DataType::Int64,
    DataType::TimestampMillis,
    DataType::Float64,
];
const SHAPES: [Shape; 4] = [
    Shape::Distinct,
    Shape::Runs,
    Shape::FewValues,
    Shape::RunsThenRawTail,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_representation_matches_the_per_row_reference(
        dt in 0usize..3,
        shape in 0usize..4,
        rows in 60u64..900,
        salt in 0u64..1_000_000,
        lo in 0u64..2_000,
        len in 0u64..2_000,
    ) {
        let shape = SHAPES[shape];
        // The raw tail must stay a partial span of its own (5 + 8·t bytes fit).
        let rows = match shape {
            Shape::RunsThenRawTail => MAX_PACKED_RPP + 3 + rows % 25,
            _ => rows,
        };
        let lo = lo % (rows + 40);
        let mut ranges = fixed_ranges(rows);
        ranges.push(RowRange::new(lo, lo + len));
        check_column(&column_of(TYPES[dt], shape, rows, salt), shape, &ranges)?;
    }
}

/// The inputs the pager's own unit tests used to check against each other,
/// now held to the reference; and the `run_skips` counter: only the exact
/// discipline skips runs, so only integer segment scans of RLE pages count.
#[test]
fn earlier_unit_test_inputs_and_run_skips() {
    let ramp = Column::from_i64("c", (0..1000).map(|v| v * 3 - 500).collect());
    let runs = Column::from_i64("c", (0..4000).map(|i| (i / 100) % 4 - 2).collect());
    let few = (0..4000i64).map(|i| (i * 2654435761 % 13) - 6).collect();
    let few = Column::from_i64("c", few);
    let float_runs = (0..4000).map(|i| ((i / 50) % 7) as f64 * 0.1 - 0.3);
    let float_runs = Column::from_f64("c", float_runs.collect());
    for (column, shape) in [
        (&ramp, Shape::Distinct),
        (&runs, Shape::Runs),
        (&few, Shape::FewValues),
        (&float_runs, Shape::Runs),
    ] {
        check_column(column, shape, &fixed_ranges(column.len())).unwrap();
    }

    let pager = pager("run-skips");
    let skips_of = |column: &Column, segment: bool| {
        let policy = EncodingPolicy::default();
        let extent = column.persist_to_encoded(&pager, &policy).unwrap();
        let paged = PagedColumn::new(Arc::clone(&pager), extent).unwrap();
        let before = pager.encoding_stats().run_skips();
        let whole = RowRange::new(0, column.len());
        if segment {
            paged.segment_range_stats(whole).unwrap();
        } else {
            paged.numeric_range_stats(whole).unwrap();
        }
        pager.encoding_stats().run_skips() - before
    };
    // 40 runs of 100 rows; a page boundary may split a run in two.
    assert!((40..=44).contains(&skips_of(&runs, true)));
    assert_eq!(skips_of(&runs, false), 0, "the ordered sum repeats runs");
    assert_eq!(skips_of(&float_runs, true), 0, "float sums are ordered");
    assert_eq!(skips_of(&few, true), 0, "dictionary pages have no runs");
}

/// An extent that claims more rows than its last page stores is a typed
/// error on unpacked and packed pages alike, not an out-of-bounds panic.
#[test]
fn a_page_short_of_its_rows_is_corrupt() {
    let pager = pager("short-page");
    let rows = 3 * RAW_RPP + 5;
    assert_eq!(rows_per_page(PAGE_SIZE, 8), RAW_RPP);
    let column = Column::from_i64("c", vec![7; rows as usize]);
    for policy in [EncodingPolicy::disabled(), EncodingPolicy::default()] {
        let honest = column.persist_to_encoded(&pager, &policy).unwrap();
        assert_eq!(honest.is_packed(), policy.enabled);
        let lying = ColumnExtent {
            rows: rows + 9,
            ..honest
        };
        let paged = PagedColumn::new(Arc::clone(&pager), lying).unwrap();
        assert!(paged.segment_range_stats(RowRange::new(0, rows)).is_ok());
        for end in [rows + 9, rows + 4] {
            let range = RowRange::new(rows - 1, end);
            let numeric = paged.numeric_range_stats(range);
            assert!(matches!(numeric, Err(DbTouchError::Corrupt(_))));
            let segment = paged.segment_range_stats(range);
            assert!(matches!(segment, Err(DbTouchError::Corrupt(_))));
        }
    }
}
