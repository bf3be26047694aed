//! Ablation studies for the design choices the paper calls out.
//!
//! The paper's own evaluation is limited to Figure 4; Section 2.6–2.9 and
//! Section 4, however, argue for a set of mechanisms (sample-based storage,
//! prefetching, caching, non-blocking joins, incremental layout rotation, a
//! per-touch response budget). Each function here isolates one of those
//! mechanisms and measures the quantity it is supposed to improve, with the
//! mechanism switched on and off. The README's "Paper experiment harnesses"
//! section maps the experiment ids A1–A6 to their paper sections.

use dbtouch_core::kernel::{Kernel, TouchAction};
use dbtouch_core::mapping::TouchMapper;
use dbtouch_core::operators::aggregate::AggregateKind;
use dbtouch_core::operators::join::{BlockingHashJoin, JoinSide, SymmetricHashJoin};
use dbtouch_core::prefetch_policy;
use dbtouch_core::session::{SessionOutcome, ASSUMED_NANOS_PER_ROW};
use dbtouch_gesture::kinematics::GestureKinematics;
use dbtouch_gesture::recognizer::{GestureEvent, GestureRecognizer};
use dbtouch_gesture::synthesizer::GestureSynthesizer;
use dbtouch_gesture::view::View;
use dbtouch_storage::column::Column;
use dbtouch_storage::matrix::Matrix;
use dbtouch_storage::rotation::RotationTask;
use dbtouch_storage::table::Table;
use dbtouch_types::{KernelConfig, Result, RowId, RowRange, SizeCm, Value};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A1 — sample-based storage (Section 2.6, "Sample-based Storage").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplesAblation {
    /// Entries returned with adaptive sample selection.
    pub adaptive_entries: u64,
    /// Entries returned when always reading base data.
    pub naive_entries: u64,
    /// Bytes of the array the adaptive run actually reads from (its working
    /// set: the dominant sample level).
    pub adaptive_working_set_bytes: u64,
    /// Bytes of the base array the naive run reads from.
    pub naive_working_set_bytes: u64,
    /// Wall-clock nanoseconds of the adaptive session.
    pub adaptive_wall_nanos: u64,
    /// Wall-clock nanoseconds of the naive session.
    pub naive_wall_nanos: u64,
}

/// Run ablation A1 on a column of `rows` integers with a ~1.5s slide.
pub fn ablation_samples(rows: u64) -> Result<SamplesAblation> {
    let run = |config: KernelConfig| -> Result<(u64, u64, u64)> {
        let mut kernel = Kernel::new(config);
        let id = kernel.load_column("a1", (0..rows as i64).collect(), SizeCm::new(2.0, 10.0))?;
        kernel.set_action(
            id,
            TouchAction::Summary {
                half_window: Some(5),
                kind: AggregateKind::Avg,
            },
        )?;
        let view = kernel.view(id)?;
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 1.5);
        let started = Instant::now();
        let outcome = kernel.run_trace(id, &trace)?;
        let wall = started.elapsed().as_nanos() as u64;
        let dominant = outcome
            .stats
            .sample_level_usage
            .iter()
            .max_by_key(|(_, c)| **c)
            .map(|(l, _)| *l)
            .unwrap_or(0);
        // Working set: the size of the array actually served from.
        let working_set = rows / (1 << dominant) * 8;
        Ok((outcome.stats.entries_returned, working_set, wall))
    };
    let (adaptive_entries, adaptive_ws, adaptive_wall) = run(KernelConfig::default())?;
    let (naive_entries, naive_ws, naive_wall) =
        run(KernelConfig::default().with_adaptive_sampling(false))?;
    Ok(SamplesAblation {
        adaptive_entries,
        naive_entries,
        adaptive_working_set_bytes: adaptive_ws,
        naive_working_set_bytes: naive_ws,
        adaptive_wall_nanos: adaptive_wall,
        naive_wall_nanos: naive_wall,
    })
}

/// A2 — prefetching (Section 2.6, "Prefetching Data").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefetchAblation {
    /// Pauses the gesture recognizer saw in the slide.
    pub pauses: u64,
    /// Row ranges the policy planned at those pauses.
    pub planned_ranges: u64,
    /// Distinct touched rows after the first pause.
    pub touches_after_pause: u64,
    /// Of those, rows inside a range planned at an earlier pause.
    pub planned_hits_with: u64,
    /// The same count without the policy, which plans nothing.
    pub planned_hits_without: u64,
}

/// Run ablation A2: replay an exploratory slide (pause, backtrack, resume)
/// over a column of `rows` rows through the session's recognizer and
/// kinematics, plan a range with [`prefetch_policy::plan`] at every pause,
/// and count the later touches that land inside a planned range — with the
/// policy and without it.
pub fn ablation_prefetch(rows: u64) -> Result<PrefetchAblation> {
    let view = View::for_column("a2", rows, SizeCm::new(2.0, 10.0))?;
    let trace = GestureSynthesizer::new(60.0).exploratory_slide(&view, 4.0);
    // Returns (pauses, planned ranges, touches after the first pause, hits).
    let replay = |policy: bool| -> Result<(u64, u64, u64, u64)> {
        let mut recognizer = GestureRecognizer::default();
        let mut kinematics = GestureKinematics::default();
        let mut planned: Vec<RowRange> = Vec::new();
        let (mut pauses, mut touches, mut hits) = (0, 0, 0);
        let mut last_row = None;
        for event in &trace.events {
            kinematics.observe(event);
            for gesture in recognizer.feed(event) {
                match gesture {
                    GestureEvent::SlidePaused { location, .. } => {
                        pauses += 1;
                        let Some(row) = TouchMapper::row_for_touch(&view, location)? else {
                            continue;
                        };
                        if policy {
                            planned.extend(prefetch_policy::plan(&view, &kinematics, row.0));
                        }
                    }
                    GestureEvent::Tap { location, .. }
                    | GestureEvent::SlideBegan { location, .. }
                    | GestureEvent::SlideStep { location, .. } => {
                        // Count distinct rows, as a session skips duplicates.
                        let Some(row) = TouchMapper::row_for_touch(&view, location)? else {
                            continue;
                        };
                        if last_row == Some(row) {
                            continue;
                        }
                        last_row = Some(row);
                        if pauses > 0 {
                            touches += 1;
                            hits += planned.iter().any(|range| range.contains(row)) as u64;
                        }
                    }
                    GestureEvent::SlideEnded { .. } => last_row = None,
                    _ => {}
                }
            }
        }
        Ok((pauses, planned.len() as u64, touches, hits))
    };
    let (pauses, planned_ranges, touches_after_pause, planned_hits_with) = replay(true)?;
    let (.., planned_hits_without) = replay(false)?;
    Ok(PrefetchAblation {
        pauses,
        planned_ranges,
        touches_after_pause,
        planned_hits_with,
        planned_hits_without,
    })
}

/// A3 — caching (Section 2.6, "Caching Data").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheAblation {
    /// Shared-cache hit rate of the second pass over the same region, cache
    /// enabled: `shared_cache_hits / (hits + misses)`.
    pub second_pass_hit_rate_with: f64,
    /// The same rate with the shared cache disabled.
    pub second_pass_hit_rate_without: f64,
    /// Shared-cache hits of the second pass with the cache enabled.
    pub second_pass_hits: u64,
}

/// Run ablation A3: summarize a region with a slide, then re-examine the same
/// region, with the shared result cache on and off.
pub fn ablation_cache(rows: u64) -> Result<CacheAblation> {
    let run = |config: KernelConfig| -> Result<(f64, u64)> {
        let mut kernel = Kernel::new(config);
        let id = kernel.load_column("a3", (0..rows as i64).collect(), SizeCm::new(2.0, 10.0))?;
        kernel.set_action(
            id,
            TouchAction::Summary {
                half_window: Some(5),
                kind: AggregateKind::Avg,
            },
        )?;
        let view = kernel.view(id)?;
        let mut synthesizer = GestureSynthesizer::new(60.0);
        // First pass over the middle region, then a second pass over the same region.
        let first = synthesizer.slide(&view, 0.4, 0.6, 1.0);
        kernel.run_trace(id, &first)?;
        let second = synthesizer.slide(&view, 0.4, 0.6, 1.0);
        let stats = kernel.run_trace(id, &second)?.stats;
        let total = stats.shared_cache_hits + stats.shared_cache_misses;
        let rate = if total == 0 {
            0.0
        } else {
            stats.shared_cache_hits as f64 / total as f64
        };
        Ok((rate, stats.shared_cache_hits))
    };
    let (with, hits) = run(KernelConfig::default())?;
    let (without, _) = run(KernelConfig::default().with_shared_cache(false))?;
    Ok(CacheAblation {
        second_pass_hit_rate_with: with,
        second_pass_hit_rate_without: without,
        second_pass_hits: hits,
    })
}

/// A4 — non-blocking joins (Section 2.9, "Joins").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinAblation {
    /// Rows consumed before the symmetric join produced its first match.
    pub symmetric_rows_to_first_match: u64,
    /// Rows consumed before the blocking join produced its first match (it
    /// must finish building its entire left side first).
    pub blocking_rows_to_first_match: u64,
    /// Total matches produced by both strategies (must agree).
    pub total_matches: u64,
    /// Wall-clock nanoseconds for the symmetric join.
    pub symmetric_wall_nanos: u64,
    /// Wall-clock nanoseconds for the blocking join.
    pub blocking_wall_nanos: u64,
}

/// Run ablation A4: the same interleaved stream of touched rows through a
/// symmetric hash join and a classical build-then-probe hash join.
pub fn ablation_join(rows_per_side: u64) -> Result<JoinAblation> {
    // Keys overlap on every 16th row so matches are sparse but present early.
    let left: Vec<(RowId, Value)> = (0..rows_per_side)
        .map(|i| {
            (
                RowId(i),
                Value::Int((i % (rows_per_side / 16).max(1)) as i64),
            )
        })
        .collect();
    let right: Vec<(RowId, Value)> = (0..rows_per_side)
        .map(|i| {
            (
                RowId(i),
                Value::Int((i % (rows_per_side / 16).max(1)) as i64),
            )
        })
        .collect();

    // Symmetric: the gesture interleaves both sides touch by touch.
    let started = Instant::now();
    let mut symmetric = SymmetricHashJoin::new();
    let mut sym_first = 0u64;
    let mut consumed = 0u64;
    let mut sym_total = 0u64;
    for i in 0..rows_per_side as usize {
        for (side, row) in [(JoinSide::Left, &left[i]), (JoinSide::Right, &right[i])] {
            consumed += 1;
            let matches = symmetric.push(side, row.0, row.1.clone());
            if !matches.is_empty() && sym_first == 0 {
                sym_first = consumed;
            }
            sym_total += matches.len() as u64;
        }
    }
    let symmetric_wall = started.elapsed().as_nanos() as u64;

    // Blocking: the entire left side must be consumed before probing begins.
    let started = Instant::now();
    let mut blocking = BlockingHashJoin::new();
    let mut consumed = 0u64;
    for (row, key) in &left {
        consumed += 1;
        blocking.build_row(*row, key.clone());
    }
    blocking.finish_build();
    let mut blk_first = 0u64;
    let mut blk_total = 0u64;
    for (row, key) in &right {
        consumed += 1;
        let matches = blocking.probe(*row, key.clone());
        if !matches.is_empty() && blk_first == 0 {
            blk_first = consumed;
        }
        blk_total += matches.len() as u64;
    }
    let blocking_wall = started.elapsed().as_nanos() as u64;

    debug_assert_eq!(sym_total, blk_total);
    Ok(JoinAblation {
        symmetric_rows_to_first_match: sym_first,
        blocking_rows_to_first_match: blk_first,
        total_matches: sym_total,
        symmetric_wall_nanos: symmetric_wall,
        blocking_wall_nanos: blocking_wall,
    })
}

/// A5 — incremental rotation (Section 2.8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RotationAblation {
    /// Nanoseconds until the object is first queryable in the new layout with
    /// eager (all-at-once) rotation: the full conversion time.
    pub eager_first_queryable_nanos: u64,
    /// Nanoseconds until the object is first queryable (first chunk converted)
    /// with incremental rotation.
    pub incremental_first_queryable_nanos: u64,
    /// Total nanoseconds for the incremental rotation to finish.
    pub incremental_total_nanos: u64,
    /// Rows converted per incremental step.
    pub chunk_rows: u64,
}

/// Run ablation A5 on a two-column table of `rows` rows.
pub fn ablation_rotation(rows: u64, chunk_rows: u64) -> Result<RotationAblation> {
    let table = Table::from_columns(
        "a5",
        vec![
            Column::from_i64("id", (0..rows as i64).collect()),
            Column::from_f64("v", (0..rows).map(|i| i as f64).collect()),
        ],
    )?;
    let matrix = Matrix::from_table(table);

    // Eager: first queryable only when the whole conversion is done.
    let started = Instant::now();
    let task = RotationTask::new(matrix.clone(), rows.max(1));
    let _rotated = task.finish()?;
    let eager = started.elapsed().as_nanos() as u64;

    // Incremental: queryable after the first chunk; total includes all chunks.
    let started = Instant::now();
    let mut task = RotationTask::new(matrix, chunk_rows.max(1));
    task.step()?;
    let first_chunk = started.elapsed().as_nanos() as u64;
    // The partially rotated object is queryable right now.
    let _ = task.get(RowId(0), 0)?;
    while !task.is_complete() {
        task.step()?;
    }
    let total = started.elapsed().as_nanos() as u64;

    Ok(RotationAblation {
        eager_first_queryable_nanos: eager,
        incremental_first_queryable_nanos: first_chunk,
        incremental_total_nanos: total,
        chunk_rows: chunk_rows.max(1),
    })
}

/// A6 — per-touch response budget (Section 4, "Interactive Behavior").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetAblation {
    /// The row cap the budget sets: `budget_micros` at the session's
    /// assumed [`ASSUMED_NANOS_PER_ROW`].
    pub cap_rows: u64,
    /// Rows read with the budget: each capped window's first `cap_rows`,
    /// then the whole window when it is refined.
    pub rows_with: u64,
    /// Rows read without a budget.
    pub rows_without: u64,
    /// Windows over the cap with the budget: each answered from its first
    /// `cap_rows` rows, then refined.
    pub refinements_with: u64,
    /// Windows over the cap without a budget.
    pub refinements_without: u64,
    /// Entries returned with the budget enabled.
    pub entries_with: u64,
    /// Entries returned without a budget.
    pub entries_without: u64,
    /// Every result value and the final aggregate are the same, to the bit,
    /// with and without the budget.
    pub identical: bool,
}

/// Run ablation A6: interactive summaries with an oversized half-window so a
/// full window cannot fit the per-touch budget of `budget_micros`
/// microseconds; the comparison run has no budget at all.
pub fn ablation_budget(rows: u64, half_window: u64, budget_micros: u64) -> Result<BudgetAblation> {
    let run = |budget_micros: u64| -> Result<SessionOutcome> {
        let mut config = KernelConfig::default().with_adaptive_sampling(false);
        config.touch_budget_micros = budget_micros;
        let mut kernel = Kernel::new(config);
        let id = kernel.load_column("a6", (0..rows as i64).collect(), SizeCm::new(2.0, 10.0))?;
        kernel.set_action(
            id,
            TouchAction::Summary {
                half_window: Some(half_window),
                kind: AggregateKind::Avg,
            },
        )?;
        let view = kernel.view(id)?;
        // An exploratory slide includes a pause, where the budgeted kernel
        // refines the windows it capped; the rest are refined at the end.
        let trace = GestureSynthesizer::new(60.0).exploratory_slide(&view, 2.0);
        kernel.run_trace(id, &trace)
    };
    let budget_micros = budget_micros.max(1);
    let with = run(budget_micros)?;
    let without = run(u64::MAX)?;
    Ok(BudgetAblation {
        cap_rows: budget_micros.saturating_mul(1000) / ASSUMED_NANOS_PER_ROW,
        rows_with: with.stats.rows_touched,
        rows_without: without.stats.rows_touched,
        refinements_with: with.stats.refinements,
        refinements_without: without.stats.refinements,
        entries_with: with.stats.entries_returned,
        entries_without: without.stats.entries_returned,
        identical: with.results == without.results
            && with.final_aggregate.map(f64::to_bits) == without.final_aggregate.map(f64::to_bits),
    })
}

impl BudgetAblation {
    /// A6's verdict: the budget capped windows (and only with it on), each
    /// capped window's provisional read was exactly `cap_rows` rows, and the
    /// refined answers are the unbudgeted ones.
    pub fn holds(&self) -> bool {
        self.refinements_with > 0
            && self.refinements_without == 0
            && self.rows_with.checked_sub(self.rows_without)
                == Some(self.refinements_with * self.cap_rows)
            && self.identical
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_samples_shrink_working_set() {
        let r = ablation_samples(400_000).unwrap();
        assert!(r.adaptive_working_set_bytes * 8 <= r.naive_working_set_bytes);
        // both runs deliver a comparable number of entries
        let ratio = r.adaptive_entries as f64 / r.naive_entries.max(1) as f64;
        assert!(ratio > 0.8 && ratio < 1.2, "ratio {ratio}");
    }

    #[test]
    fn a2_prefetching_warms_accesses() {
        let r = ablation_prefetch(400_000).unwrap();
        assert!(r.pauses > 0 && r.planned_ranges > 0, "{r:?}");
        assert!(r.planned_hits_with > 0, "{r:?}");
        assert!(r.planned_hits_with <= r.touches_after_pause);
        assert_eq!(r.planned_hits_without, 0);
    }

    #[test]
    fn a3_cache_hits_on_reexamination() {
        let r = ablation_cache(200_000).unwrap();
        assert!(
            r.second_pass_hit_rate_with > 0.5,
            "hit rate {}",
            r.second_pass_hit_rate_with
        );
        assert_eq!(r.second_pass_hit_rate_without, 0.0);
        assert!(r.second_pass_hits > 0);
    }

    #[test]
    fn a4_symmetric_join_produces_results_earlier() {
        let r = ablation_join(10_000).unwrap();
        assert!(r.symmetric_rows_to_first_match < 100);
        assert!(r.blocking_rows_to_first_match > 10_000);
        assert!(r.total_matches > 0);
    }

    #[test]
    fn a5_incremental_rotation_queryable_sooner() {
        let r = ablation_rotation(200_000, 10_000).unwrap();
        assert!(
            r.incremental_first_queryable_nanos * 2 < r.eager_first_queryable_nanos,
            "incremental {} vs eager {}",
            r.incremental_first_queryable_nanos,
            r.eager_first_queryable_nanos
        );
        assert!(r.incremental_total_nanos >= r.incremental_first_queryable_nanos);
    }

    #[test]
    fn a6_budget_caps_per_touch_work() {
        let r = ablation_budget(500_000, 100_000, 200).unwrap();
        assert_eq!(r.cap_rows, 50_000);
        assert!(r.holds(), "{r:?}");
        assert_eq!(r.refinements_with, r.entries_with);
        assert_eq!(r.entries_with, r.entries_without);
    }
}
