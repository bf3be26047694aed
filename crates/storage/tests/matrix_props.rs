//! Property tests for the storage substrate: matrix layout conversions,
//! projections and appends, and zone-map completeness.

use dbtouch_storage::column::Column;
use dbtouch_storage::index::ZoneMapIndex;
use dbtouch_storage::layout::Layout;
use dbtouch_storage::matrix::Matrix;
use dbtouch_storage::table::Table;
use dbtouch_types::{RowId, RowRange};
use proptest::prelude::*;

fn build_matrix(rows: u64) -> Matrix {
    Matrix::from_table(
        Table::from_columns(
            "t",
            vec![
                Column::from_i64("a", (0..rows as i64).map(|i| i * 7 - 3).collect()),
                Column::from_f64("b", (0..rows).map(|i| i as f64 * 0.25).collect()),
                Column::from_strings(
                    "c",
                    6,
                    &(0..rows)
                        .map(|i| format!("s{}", i % 100))
                        .collect::<Vec<_>>(),
                )
                .unwrap(),
            ],
        )
        .unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Projecting a row range and appending the projections back in order
    /// reconstructs the original matrix, in both layouts.
    #[test]
    fn project_and_append_reconstruct(rows in 1u64..300, split in 0u64..300) {
        let matrix = build_matrix(rows);
        let split = split % (rows + 1);
        for layout in [Layout::ColumnMajor, Layout::RowMajor] {
            let converted = matrix.converted_to(layout).unwrap();
            let mut rebuilt = converted.empty_like(layout);
            rebuilt.append(&converted.project_rows(RowRange::new(0, split)).unwrap()).unwrap();
            rebuilt.append(&converted.project_rows(RowRange::new(split, rows)).unwrap()).unwrap();
            prop_assert_eq!(rebuilt.row_count(), rows);
            for probe in [0, rows / 2, rows - 1] {
                prop_assert_eq!(
                    rebuilt.get_row(RowId(probe)).unwrap(),
                    matrix.get_row(RowId(probe)).unwrap()
                );
            }
        }
    }

    /// Layout conversion preserves numeric range statistics for every column.
    #[test]
    fn layout_conversion_preserves_stats(rows in 1u64..300, lo in 0u64..300, hi in 0u64..300) {
        let matrix = build_matrix(rows);
        let row_major = matrix.converted_to(Layout::RowMajor).unwrap();
        let range = RowRange::new(lo.min(hi) % rows, (lo.max(hi) % rows) + 1);
        for column in 0..2 {
            let a = matrix.numeric_range_stats(column, range).unwrap();
            let b = row_major.numeric_range_stats(column, range).unwrap();
            prop_assert_eq!(a.0, b.0);
            prop_assert!((a.1 - b.1).abs() < 1e-9);
            prop_assert_eq!(a.2, b.2);
            prop_assert_eq!(a.3, b.3);
        }
    }

    /// Zone maps are complete: every row whose value satisfies a range
    /// predicate lies in a block the index reports as a candidate.
    #[test]
    fn zone_map_is_complete(
        rows in 1u64..2_000,
        block in 1u64..200,
        lo in -1_000i64..1_000,
        width in 0i64..500,
    ) {
        let values: Vec<i64> = (0..rows as i64).map(|i| (i * 37 + 11) % 701 - 350).collect();
        let column = Column::from_i64("c", values.clone());
        let index = ZoneMapIndex::build(&column, block).unwrap();
        let hi = lo + width;
        let candidates = index.candidate_ranges(lo as f64, hi as f64);
        for (row, &v) in values.iter().enumerate() {
            if v >= lo && v <= hi {
                let covered = candidates.iter().any(|r| r.contains(RowId(row as u64)));
                prop_assert!(covered, "row {row} with value {v} not covered by candidates");
                prop_assert!(index.row_block_may_match(row as u64, lo as f64, hi as f64));
            }
        }
    }
}
