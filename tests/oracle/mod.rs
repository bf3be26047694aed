//! The answer oracle: the outcome a session must produce, computed without
//! any of the kernel's data paths.
//!
//! [`expected_outcome`] runs the kernel's own [`TouchPlanner`] over a copy of
//! the object's starting view — so the oracle and the session fold the very
//! same plans — and folds every planned touch with the naive engine
//! ([`NaiveEngine`]), built from the values the test generated, never from a
//! catalog's pages. Around the fold it reuses core's `RunningAggregate`,
//! `IncrementalGroupBy`, `Predicate::eval` and `summary_value`. A capped
//! summary window is folded in full, as its refinement leaves it, so the
//! result is the drained outcome of the run.
//!
//! [`check`] compares an actual outcome with the oracle's, field by field:
//!
//! * `results`: length, then each result's `row`, `position_fraction`,
//!   `values`, `produced_at` and `kind` — every float by its bits;
//! * `final_aggregate` and `final_groups`, floats by their bits;
//! * the statistics the plan alone determines: `touches`, `gesture_events`,
//!   `entries_returned`, `duplicate_touches`, `zooms`, `rotations`,
//!   `sample_level_usage`, and `refinements` on all-local runs (a device/cloud
//!   split ships a capped window whole instead of refining it).
//!
//! Statistics that depend on the data path are not compared: rows and bytes
//! touched, `index_skips`, segments scanned and pruned, shared-cache hits,
//! misses and inserts, the remote split's traffic and refinement counts, and
//! compute time. A drained outcome has no `pending` refinements, which the
//! check asserts, and an exported `ledger` only ever re-derives
//! `final_aggregate`.

use dbtouch::baseline::NaiveEngine;
use dbtouch::core::operators::aggregate::RunningAggregate;
use dbtouch::core::operators::groupby::IncrementalGroupBy;
use dbtouch::core::plan::{PlanStep, TouchPlanner};
use dbtouch::core::remote_exec::summary_value;
use dbtouch::core::result::ResultKind;
use dbtouch::core::session::SessionStats;
use dbtouch::gesture::trace::GestureTrace;
use dbtouch::prelude::*;

/// The drained outcome `action` produces for `trace` over an object that
/// starts at `view` and holds `engine`'s columns.
pub fn expected_outcome(
    engine: &mut NaiveEngine,
    view: &View,
    action: &TouchAction,
    config: &KernelConfig,
    trace: &GestureTrace,
) -> SessionOutcome {
    let mut planner = TouchPlanner::new(view.clone(), engine.level_shapes(), action, config);
    let mut stats = SessionStats::default();
    let mut results = ResultStream::new();
    let mut aggregate = match action {
        TouchAction::Aggregate(kind)
        | TouchAction::FilteredAggregate { kind, .. }
        | TouchAction::Summary { kind, .. } => Some(RunningAggregate::new(*kind)),
        _ => None,
    };
    let mut groupby = match action {
        TouchAction::GroupBy { kind, .. } => Some(IncrementalGroupBy::new(*kind)),
        _ => None,
    };
    for event in &trace.events {
        for gesture in planner.observe(event, &mut stats) {
            let step = planner.plan(gesture, &mut stats).expect("the trace plans");
            let Some(PlanStep::Touch(plan)) = step else {
                continue;
            };
            let mut value = |attribute| engine.value(attribute, plan.row.0).expect("row read");
            let result: Option<TouchResult> = match action {
                TouchAction::Scan => {
                    Some(plan.result(vec![value(plan.attribute)], ResultKind::Scan))
                }
                TouchAction::FilteredScan { predicate } => {
                    let v = value(plan.attribute);
                    (predicate.eval(&v).expect("comparable"))
                        .then(|| plan.result(vec![v], ResultKind::FilteredScan))
                }
                TouchAction::Aggregate(_) | TouchAction::FilteredAggregate { .. } => {
                    let v = value(plan.attribute);
                    let passes = match action {
                        TouchAction::FilteredAggregate { predicate, .. } => {
                            predicate.eval(&v).expect("comparable")
                        }
                        _ => true,
                    };
                    passes.then(|| {
                        let running = aggregate.as_mut().expect("aggregate state");
                        running.update(v.as_f64().expect("numeric"));
                        let current = running.value().expect("non-empty aggregate");
                        plan.result(vec![Value::Float(current)], ResultKind::RunningAggregate)
                    })
                }
                TouchAction::Summary { kind, .. } => {
                    let window = plan.summary.expect("a summary plan");
                    if window.capped() {
                        stats.refinements += 1;
                    }
                    let rows = window.window.start..window.window.end;
                    let folded = engine
                        .fold(plan.attribute, window.level, rows)
                        .expect("window fold");
                    summary_value(*kind, &folded).map(|v| {
                        let running = aggregate.as_mut().expect("aggregate state");
                        running.update_batch(folded.count, folded.sum, folded.min, folded.max);
                        plan.result(vec![Value::Float(v)], ResultKind::Summary)
                    })
                }
                TouchAction::Tuple => Some(plan.result(
                    engine.tuple(plan.row.0).expect("tuple read"),
                    ResultKind::Tuple,
                )),
                TouchAction::GroupBy {
                    group_attribute,
                    value_attribute,
                    ..
                } => {
                    let group = value(*group_attribute);
                    let v = value(*value_attribute).as_f64().expect("numeric");
                    let groups = groupby.as_mut().expect("group-by state");
                    groups.update(group.clone(), v);
                    let current = groups.group(&group).expect("group just updated");
                    Some(plan.result(vec![group, Value::Float(current)], ResultKind::GroupResult))
                }
            };
            if let Some(result) = result {
                stats.entries_returned += 1;
                results.push(result);
            }
        }
    }
    SessionOutcome {
        results,
        stats,
        final_aggregate: aggregate.and_then(|a| a.value()),
        final_groups: groupby.map(|g| g.results()).unwrap_or_default(),
        ..SessionOutcome::default()
    }
}

/// `Ok` when `actual` equals the oracle's `expected` outcome in every field
/// the module doc lists; otherwise the first difference.
pub fn check(
    actual: &SessionOutcome,
    expected: &SessionOutcome,
    all_local: bool,
) -> std::result::Result<(), String> {
    if !actual.pending.is_empty() {
        return Err(format!(
            "{} refinements still pending",
            actual.pending.len()
        ));
    }
    let (got, want) = (actual.results.results(), expected.results.results());
    if got.len() != want.len() {
        return Err(format!("{} results, oracle {}", got.len(), want.len()));
    }
    for (i, (a, e)) in got.iter().zip(want).enumerate() {
        let same = a.row == e.row
            && a.position_fraction.to_bits() == e.position_fraction.to_bits()
            && a.values.len() == e.values.len()
            && a.values
                .iter()
                .zip(&e.values)
                .all(|(x, y)| same_value(x, y))
            && a.produced_at == e.produced_at
            && a.kind == e.kind;
        if !same {
            return Err(format!("result {i}: {a:?}, oracle {e:?}"));
        }
    }
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    if bits(actual.final_aggregate) != bits(expected.final_aggregate) {
        return Err(format!(
            "final_aggregate {:?}, oracle {:?}",
            actual.final_aggregate, expected.final_aggregate
        ));
    }
    let same_groups = actual.final_groups.len() == expected.final_groups.len()
        && (actual.final_groups.iter().zip(&expected.final_groups))
            .all(|((g, v), (h, w))| same_value(g, h) && v.to_bits() == w.to_bits());
    if !same_groups {
        return Err(format!(
            "final_groups {:?}, oracle {:?}",
            actual.final_groups, expected.final_groups
        ));
    }
    let (a, e) = (&actual.stats, &expected.stats);
    let mut counts = vec![
        ("touches", a.touches, e.touches),
        ("gesture_events", a.gesture_events, e.gesture_events),
        ("entries_returned", a.entries_returned, e.entries_returned),
        (
            "duplicate_touches",
            a.duplicate_touches,
            e.duplicate_touches,
        ),
        ("zooms", a.zooms, e.zooms),
        ("rotations", a.rotations, e.rotations),
    ];
    if all_local {
        counts.push(("refinements", a.refinements, e.refinements));
    }
    for (name, got, want) in counts {
        if got != want {
            return Err(format!("stats.{name} {got}, oracle {want}"));
        }
    }
    if a.sample_level_usage != e.sample_level_usage {
        return Err(format!(
            "stats.sample_level_usage {:?}, oracle {:?}",
            a.sample_level_usage, e.sample_level_usage
        ));
    }
    Ok(())
}

/// Equal values, floats compared by their bits.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}
