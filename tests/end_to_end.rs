//! Cross-crate integration tests: full gesture-trace → kernel → result flows,
//! layout gestures and the exploration scenarios, all at a scale small enough
//! for CI.

use dbtouch::baseline::NaiveEngine;
use dbtouch::core::kernel::TouchAction;
use dbtouch::core::operators::aggregate::AggregateKind;
use dbtouch::core::operators::filter::{CompareOp, Predicate};
use dbtouch::gesture::synthesizer::SlideSegment;
use dbtouch::prelude::*;
use dbtouch::storage::column::Column as StorageColumn;
use dbtouch::types::RemoteSplitConfig;
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
    // dbTouch group-by over a long slide vs. the exact group sizes of the
    // data: relative group sizes should agree (all groups are equally likely).
    let rows = 40_000usize;
    let regions: Vec<i64> = (0..rows as i64).map(|i| i % 5).collect();
    let amounts: Vec<f64> = (0..rows).map(|i| (i % 10) as f64).collect();
    let mut exact = std::collections::BTreeMap::new();
    for region in &regions {
        *exact.entry(*region).or_insert(0u64) += 1;
    }
    assert_eq!(exact.len(), 5);
    assert!(exact.values().all(|&size| size == rows as u64 / 5));

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
    let groups: Vec<Value> = outcome
        .final_groups
        .iter()
        .map(|(g, _)| g.clone())
        .collect();
    let exact_groups: Vec<Value> = exact.keys().map(|&region| Value::Int(region)).collect();
    assert_eq!(groups, exact_groups);
    // groups are uniform, so the touched sample should be roughly balanced too
    let counts: Vec<f64> = outcome.final_groups.iter().map(|(_, c)| *c).collect();
    let max = counts.iter().cloned().fold(f64::MIN, f64::max);
    let min = counts.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max <= 3.0 * min.max(1.0), "groups unbalanced: {counts:?}");
}

#[test]
fn baseline_and_dbtouch_agree_on_the_data() {
    // The naive engine's exact average and the dbTouch running average from
    // a slow slide should agree within a few percent on uniform data.
    let values: Vec<i64> = (0..200_000).collect();
    let mut naive = NaiveEngine::new(vec![values.iter().copied().map(Value::Int).collect()], 1);
    let whole = naive.fold(0, 0, 0..values.len() as u64).unwrap();
    let exact = whole.sum / whole.count as f64;

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

/// A table of two f64 columns — constant 0.0, then `values` — shown
/// `height_cm` tall, whose slides touch column 1 (the middle of a
/// two-attribute view), with a summary window far wider than a 10 µs
/// budget's row cap.
fn two_column_summary(
    config: KernelConfig,
    values: Vec<f64>,
    height_cm: f64,
) -> (Kernel, ObjectId) {
    let mut kernel = Kernel::new(config);
    let table = Table::from_columns(
        "t",
        vec![
            StorageColumn::from_f64("zero", vec![0.0; values.len()]),
            StorageColumn::from_f64("touched", values),
        ],
    )
    .unwrap();
    let id = kernel
        .load_table(table, SizeCm::new(4.0, height_cm))
        .unwrap();
    kernel
        .set_action(
            id,
            TouchAction::Summary {
                half_window: Some(200_000),
                kind: AggregateKind::Avg,
            },
        )
        .unwrap();
    (kernel, id)
}

/// 10 µs at the session's assumed 4 ns per row.
const CAP_ROWS: u64 = 2_500;

/// The outcome of `trace` over column 1 (see [`two_column_summary`]) under
/// `config` with a 10 µs budget (a 2 500-row cap), and under the plain
/// `reference` config with no budget.
fn capped_and_uncapped(
    config: KernelConfig,
    reference: KernelConfig,
    values: Vec<f64>,
    height_cm: f64,
    trace: impl Fn(&View) -> dbtouch::gesture::GestureTrace,
) -> (SessionOutcome, SessionOutcome) {
    let mut capped = config;
    capped.touch_budget_micros = 10;
    let mut uncapped = reference;
    uncapped.touch_budget_micros = u64::MAX;
    let run = |config: KernelConfig| {
        let (mut kernel, id) = two_column_summary(config, values.clone(), height_cm);
        let view = kernel.view(id).unwrap();
        kernel.run_trace(id, &trace(&view)).unwrap()
    };
    (run(capped), run(uncapped))
}

/// A window over the row cap is answered from its first rows, then folded
/// in full on the column and at the level the touch read — at the slide's
/// pause or at the end of the trace — so the capped outcome is the uncapped
/// one, value for value.
#[test]
fn capped_summaries_refine_to_the_touched_column() {
    let config = KernelConfig::default().with_adaptive_sampling(false);
    let (capped, full) =
        capped_and_uncapped(config.clone(), config, vec![1.0; 500_000], 10.0, |v| {
            GestureSynthesizer::new(60.0).exploratory_slide(v, 2.0)
        });
    assert!(full.stats.entries_returned > 20);
    assert_eq!(full.final_aggregate, Some(1.0));
    assert_eq!(
        capped.final_aggregate.map(f64::to_bits),
        Some(1.0f64.to_bits())
    );
    assert_eq!(capped.results, full.results);
    // Every window (at least 200 001 rows) is over the cap, and each read
    // exactly `CAP_ROWS` rows before its full fold.
    assert_eq!(full.stats.refinements, 0);
    assert_eq!(capped.stats.refinements, capped.stats.entries_returned);
    assert_eq!(
        capped.stats.rows_touched,
        full.stats.rows_touched + capped.stats.refinements * CAP_ROWS
    );
}

/// The same at sample levels above 0: a fast slide picks coarse levels, and
/// each refinement reads its window in that level's row ids. Column 1 is a
/// ramp, so a fold at the wrong level would read other values.
#[test]
fn capped_summaries_refine_at_their_sample_level() {
    let ramp: Vec<f64> = (0..500_000).map(|i| i as f64).collect();
    let config = KernelConfig::default();
    let (capped, full) = capped_and_uncapped(config.clone(), config, ramp, 10.0, |v| {
        GestureSynthesizer::new(60.0).exploratory_slide(v, 0.6)
    });
    assert!(capped.stats.sample_level_usage.keys().all(|&l| l > 0));
    assert!(capped.stats.refinements > 0);
    assert_eq!(capped.stats.refinements, capped.stats.entries_returned);
    assert_eq!(capped.results, full.results);
    assert_eq!(
        capped.final_aggregate.map(f64::to_bits),
        full.final_aggregate.map(f64::to_bits)
    );
    assert_eq!(
        capped.stats.rows_touched,
        full.stats.rows_touched + capped.stats.refinements * CAP_ROWS
    );
}

/// On a device/cloud split the cap applies to device-local windows only: a
/// fine-level window ships whole to the remote executor. Drained, the capped
/// split outcome equals the all-local uncapped one.
#[test]
fn a_capped_split_drains_to_the_uncapped_all_local_outcome() {
    let ramp: Vec<f64> = (0..500_000).map(|i| i as f64).collect();
    let split = RemoteSplitConfig::default()
        .with_local_min_level(6)
        .with_network(500, 0);
    let config = KernelConfig::default().with_remote_split(Some(split));
    // 640 cm tall: the slow stretch reads level 5 (remote), the fast ones
    // level 7 (local, and over the cap).
    let (capped, full) = capped_and_uncapped(config, KernelConfig::default(), ramp, 640.0, |v| {
        GestureSynthesizer::new(60.0).slide_profile(
            v,
            &[
                SlideSegment::movement(0.0, 0.3, 0.3),
                SlideSegment::movement(0.3, 0.302, 1.0),
                SlideSegment::pause(0.302, 0.4),
                SlideSegment::movement(0.302, 1.0, 0.4),
            ],
            Timestamp::ZERO,
        )
    });
    assert!(capped.is_drained());
    let remote = capped.stats.remote;
    assert!(capped.stats.refinements > 0);
    assert!(remote.progressive_requests > 0);
    assert_eq!(
        capped.stats.refinements + remote.progressive_requests,
        capped.stats.entries_returned
    );
    // A shipped window is read whole, past the cap.
    assert!(remote.rows_shipped > remote.progressive_requests * CAP_ROWS);
    assert_eq!(capped.results, full.results);
    assert_eq!(
        capped.final_aggregate.map(f64::to_bits),
        full.final_aggregate.map(f64::to_bits)
    );
}
