//! Cross-crate integration tests: full gesture-trace → kernel → result flows,
//! layout gestures and the exploration scenarios, all at a scale small enough
//! for CI.

use dbtouch::core::kernel::TouchAction;
use dbtouch::core::operators::aggregate::AggregateKind;
use dbtouch::core::operators::filter::{CompareOp, Predicate};
use dbtouch::gesture::synthesizer::SlideSegment;
use dbtouch::prelude::*;
use dbtouch::storage::column::Column as StorageColumn;
use dbtouch::workload::explorer::{DbTouchExplorer, SqlExplorer};
use dbtouch::workload::scenarios::Scenario;

fn loaded_kernel(rows: i64) -> (Kernel, dbtouch::core::kernel::ObjectId) {
    let mut kernel = Kernel::new(KernelConfig::default());
    let id = kernel
        .load_column("col", (0..rows).collect(), SizeCm::new(2.0, 10.0))
        .unwrap();
    (kernel, id)
}

#[test]
fn scan_slide_returns_values_in_touch_order() {
    let (mut kernel, id) = loaded_kernel(500_000);
    kernel.set_action(id, TouchAction::Scan).unwrap();
    let view = kernel.view(id).unwrap();
    let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.5);
    let outcome = kernel.run_trace(id, &trace).unwrap();
    assert!(outcome.stats.entries_returned > 50);
    let rows: Vec<u64> = outcome.results.results().iter().map(|r| r.row.0).collect();
    assert!(rows.windows(2).all(|w| w[0] < w[1]));
    // values equal the synthetic data at the touched rows
    for r in outcome.results.results() {
        assert_eq!(r.value().unwrap(), &Value::Int(r.row.0 as i64));
    }
}

#[test]
fn summary_slide_average_tracks_touched_region() {
    let (mut kernel, id) = loaded_kernel(1_000_000);
    kernel
        .set_action(
            id,
            TouchAction::Summary {
                half_window: Some(5),
                kind: AggregateKind::Avg,
            },
        )
        .unwrap();
    let view = kernel.view(id).unwrap();
    // slide only over the last quarter of the object
    let trace = GestureSynthesizer::new(60.0).slide_profile(
        &view,
        &[SlideSegment::movement(0.75, 1.0, 1.0)],
        Timestamp::ZERO,
    );
    let outcome = kernel.run_trace(id, &trace).unwrap();
    assert!(outcome.stats.entries_returned > 10);
    for r in outcome.results.results() {
        let v = r.value().unwrap().as_f64().unwrap();
        assert!(
            v >= 0.75 * 1_000_000.0 * 0.95,
            "summary {v} not from touched region"
        );
        assert!(r.position_fraction >= 0.74);
    }
}

#[test]
fn gesture_speed_controls_entries_and_granularity() {
    let (mut kernel, id) = loaded_kernel(2_000_000);
    kernel
        .set_action(
            id,
            TouchAction::Summary {
                half_window: Some(5),
                kind: AggregateKind::Avg,
            },
        )
        .unwrap();
    let view = kernel.view(id).unwrap();
    let mut synthesizer = GestureSynthesizer::new(60.0);
    let fast = kernel
        .run_trace(id, &synthesizer.slide_down(&view, 0.5))
        .unwrap();
    let slow = kernel
        .run_trace(id, &synthesizer.slide_down(&view, 4.0))
        .unwrap();
    assert!(slow.stats.entries_returned > 4 * fast.stats.entries_returned);
    // the faster slide is served from a coarser (or equal) sample level
    let max_level = |s: &dbtouch::core::session::SessionStats| {
        s.sample_level_usage.keys().copied().max().unwrap_or(0)
    };
    assert!(max_level(&fast.stats) >= max_level(&slow.stats));
}

#[test]
fn zoom_in_then_slide_returns_more_entries() {
    let (mut kernel, id) = loaded_kernel(2_000_000);
    kernel
        .set_action(
            id,
            TouchAction::Summary {
                half_window: Some(5),
                kind: AggregateKind::Avg,
            },
        )
        .unwrap();
    let mut synthesizer = GestureSynthesizer::new(60.0);
    let view = kernel.view(id).unwrap();
    // constant speed: the zoomed object takes proportionally longer to traverse
    let before = kernel
        .run_trace(id, &synthesizer.slide_down(&view, 1.0))
        .unwrap();
    let pinch = synthesizer.pinch(&view, 2.0, 0.4);
    kernel.run_trace(id, &pinch).unwrap();
    let zoomed_view = kernel.view(id).unwrap();
    assert!(zoomed_view.size.height > view.size.height * 1.5);
    let after = kernel
        .run_trace(id, &synthesizer.slide_down(&zoomed_view, 2.0))
        .unwrap();
    assert!(after.stats.entries_returned > before.stats.entries_returned * 3 / 2);
}

#[test]
fn filtered_aggregate_respects_predicate() {
    let (mut kernel, id) = loaded_kernel(100_000);
    kernel
        .set_action(
            id,
            TouchAction::FilteredAggregate {
                predicate: Predicate::compare(CompareOp::Ge, 50_000i64),
                kind: AggregateKind::Min,
            },
        )
        .unwrap();
    let view = kernel.view(id).unwrap();
    let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
    let outcome = kernel.run_trace(id, &trace).unwrap();
    // the minimum over passing values can never be below the predicate bound
    assert!(outcome.final_aggregate.unwrap() >= 50_000.0);
    assert!(outcome.results.len() < outcome.stats.touches as usize);
}

#[test]
fn rotate_gesture_flips_layout_and_data_survives() {
    let mut kernel = Kernel::new(KernelConfig::default());
    let table = Table::from_columns(
        "t",
        vec![
            StorageColumn::from_i64("id", (0..50_000).collect()),
            StorageColumn::from_f64("v", (0..50_000).map(|i| i as f64 * 0.5).collect()),
        ],
    )
    .unwrap();
    let id = kernel.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
    let mut synthesizer = GestureSynthesizer::new(60.0);
    let view = kernel.view(id).unwrap();
    kernel
        .run_trace(id, &synthesizer.rotate(&view, true, 0.5))
        .unwrap();
    assert_eq!(
        kernel.layout(id).unwrap(),
        dbtouch::storage::layout::Layout::RowMajor
    );
    // data is still correct after the physical rotation
    kernel.set_action(id, TouchAction::Tuple).unwrap();
    let tap = kernel.tap(id, 0.5).unwrap();
    let tuple = tap.results.latest().unwrap().values.clone();
    let row = tap.results.latest().unwrap().row.0;
    assert_eq!(tuple[0], Value::Int(row as i64));
    assert_eq!(tuple[1], Value::Float(row as f64 * 0.5));
}

#[test]
fn drag_out_and_group_round_trip() {
    let mut kernel = Kernel::new(KernelConfig::default());
    let table = Table::from_columns(
        "orders",
        vec![
            StorageColumn::from_i64("id", (0..10_000).collect()),
            StorageColumn::from_f64("amount", (0..10_000).map(|i| i as f64).collect()),
            StorageColumn::from_i64("region", (0..10_000).map(|i| i % 4).collect()),
        ],
    )
    .unwrap();
    let tid = kernel.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
    let amount = kernel
        .drag_column_out(tid, "amount", SizeCm::new(2.0, 10.0))
        .unwrap();
    assert_eq!(kernel.view(tid).unwrap().attribute_count, 2);
    let grouped = kernel
        .group_into_table("amounts", &[amount], SizeCm::new(2.0, 10.0))
        .unwrap();
    assert_eq!(kernel.row_count(grouped).unwrap(), 10_000);
    // the standalone column can be queried on its own
    kernel
        .set_action(amount, TouchAction::Aggregate(AggregateKind::Max))
        .unwrap();
    let view = kernel.view(amount).unwrap();
    let outcome = kernel
        .run_trace(
            amount,
            &GestureSynthesizer::new(60.0).slide_down(&view, 0.5),
        )
        .unwrap();
    assert!(outcome.final_aggregate.unwrap() > 9_000.0);
}

#[test]
fn exploration_contest_dbtouch_touches_less_data() {
    let scenario = Scenario::contest(120_000, 17);
    let dbtouch = DbTouchExplorer::new(KernelConfig::default())
        .explore(&scenario, 0.02)
        .unwrap();
    let sql = SqlExplorer::new().explore(&scenario, 0.02).unwrap();
    assert!(dbtouch.error_fraction < 0.05);
    assert!(sql.error_fraction < 0.05);
    assert!(dbtouch.rows_touched * 5 < sql.rows_touched);
}

#[test]
fn group_by_gesture_approximates_baseline_group_sizes() {
    // dbTouch group-by over a long slide vs. the exact group-by of the baseline
    // engine: relative group sizes should agree (all groups are equally likely).
    let rows = 40_000usize;
    let regions: Vec<i64> = (0..rows as i64).map(|i| i % 5).collect();
    let amounts: Vec<f64> = (0..rows).map(|i| (i % 10) as f64).collect();

    let mut db = dbtouch::baseline::engine::Database::new();
    db.register(
        Table::from_columns(
            "sales",
            vec![
                StorageColumn::from_i64("region", regions.clone()),
                StorageColumn::from_f64("amount", amounts.clone()),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let exact = db
        .run_sql("select region, count(*) from sales group by region")
        .unwrap();
    assert_eq!(exact.rows.len(), 5);

    let mut kernel = Kernel::new(KernelConfig::default());
    let table = Table::from_columns(
        "sales",
        vec![
            StorageColumn::from_i64("region", regions),
            StorageColumn::from_f64("amount", amounts),
        ],
    )
    .unwrap();
    let id = kernel.load_table(table, SizeCm::new(4.0, 10.0)).unwrap();
    kernel
        .set_action(
            id,
            TouchAction::GroupBy {
                group_attribute: 0,
                value_attribute: 1,
                kind: AggregateKind::Count,
            },
        )
        .unwrap();
    let view = kernel.view(id).unwrap();
    let outcome = kernel
        .run_trace(id, &GestureSynthesizer::new(60.0).slide_down(&view, 4.0))
        .unwrap();
    assert_eq!(outcome.final_groups.len(), 5);
    // groups are uniform, so the touched sample should be roughly balanced too
    let counts: Vec<f64> = outcome.final_groups.iter().map(|(_, c)| *c).collect();
    let max = counts.iter().cloned().fold(f64::MIN, f64::max);
    let min = counts.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max <= 3.0 * min.max(1.0), "groups unbalanced: {counts:?}");
}

#[test]
fn baseline_and_dbtouch_agree_on_the_data() {
    // The baseline's exact average and the dbTouch running average from a slow
    // slide should agree within a few percent on uniform data.
    let values: Vec<i64> = (0..200_000).collect();
    let mut db = dbtouch::baseline::engine::Database::new();
    db.register(
        Table::from_columns("t", vec![StorageColumn::from_i64("v", values.clone())]).unwrap(),
    )
    .unwrap();
    let exact = db
        .run_sql("select avg(v) from t")
        .unwrap()
        .scalar()
        .unwrap()
        .as_f64()
        .unwrap();

    let mut kernel = Kernel::new(KernelConfig::default());
    let id = kernel
        .load_column("v", values, SizeCm::new(2.0, 10.0))
        .unwrap();
    kernel
        .set_action(
            id,
            TouchAction::Summary {
                half_window: Some(20),
                kind: AggregateKind::Avg,
            },
        )
        .unwrap();
    let view = kernel.view(id).unwrap();
    let outcome = kernel
        .run_trace(id, &GestureSynthesizer::new(60.0).slide_down(&view, 4.0))
        .unwrap();
    let approx = outcome.final_aggregate.unwrap();
    let relative_error = (approx - exact).abs() / exact;
    assert!(relative_error < 0.05, "approx {approx} vs exact {exact}");
}
