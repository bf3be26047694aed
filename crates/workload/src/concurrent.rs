//! Concurrent workload driver: K simultaneous explorers over one catalog.
//!
//! The paper imagines a *room* of analysts, each sliding over the same data
//! from their own device. This module simulates that: it plans a deterministic
//! gesture workload for each of K explorers (sky-survey or monitoring-stream
//! style), drives all of them concurrently through `dbtouch-server`'s session
//! manager, and — because every plan is seeded — can replay the exact same
//! workload sequentially through the single-user [`Kernel`] to prove the
//! concurrent results are identical.

use dbtouch_core::catalog::SharedCatalog;
use dbtouch_core::kernel::{Kernel, ObjectId, TouchAction};
use dbtouch_core::operators::aggregate::AggregateKind;
use dbtouch_core::operators::filter::{CompareOp, Predicate};
use dbtouch_gesture::synthesizer::GestureSynthesizer;
use dbtouch_gesture::trace::GestureTrace;
use dbtouch_server::{
    digest_outcomes, ClientSession, ExplorationClient, ExplorationServer, LatencySummary,
    ServerConfig, SessionReport, TraceOutcome,
};
use dbtouch_types::{KernelConfig, Result, SizeCm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

use crate::scenarios::Scenario;

/// The gesture plan of one simulated explorer: a touch action and a sequence
/// of gesture traces, all derived deterministically from a seed.
#[derive(Debug, Clone)]
pub struct ExplorerPlan {
    /// The per-touch action this explorer configures before sliding.
    pub action: TouchAction,
    /// The traces the explorer performs, in order.
    pub traces: Vec<GestureTrace>,
}

impl ExplorerPlan {
    /// Total touch samples across the plan's traces.
    pub fn touches(&self) -> u64 {
        self.traces.iter().map(|t| t.len() as u64).sum()
    }
}

/// Load a scenario's signal column into a fresh shared catalog.
pub fn scenario_catalog(
    scenario: &Scenario,
    config: KernelConfig,
) -> Result<(Arc<SharedCatalog>, ObjectId)> {
    let catalog = Arc::new(SharedCatalog::new(config));
    let id = catalog.load_column_typed(scenario.signal_column(), SizeCm::new(2.0, 12.0))?;
    Ok((catalog, id))
}

/// Plan workloads for `explorers` simultaneous users of `object`.
///
/// Explorers differ deterministically: the action cycles through a survey-ish
/// mix (interactive summaries, plain scans, running aggregates, selective
/// filtered scans) and each explorer's slide durations and pauses come from
/// its own seeded stream. Same seed → same plans → same results, bit for bit.
pub fn plan_explorers(
    catalog: &SharedCatalog,
    object: ObjectId,
    explorers: usize,
    traces_per_explorer: usize,
    seed: u64,
) -> Result<Vec<ExplorerPlan>> {
    let data = catalog.data(object)?;
    let view = data.base_view().clone();
    // Filtered explorers keep values above the column mean, so the predicate
    // stays selective-but-satisfiable whatever the scenario's value range is.
    let mean = {
        let base = data.attribute(0)?.column();
        let (count, sum, _, _) =
            base.numeric_range_stats(dbtouch_types::RowRange::new(0, base.len()))?;
        if count > 0 {
            sum / count as f64
        } else {
            0.0
        }
    };
    (0..explorers)
        .map(|index| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37 + index as u64 * 0x1_0001));
            let action = match index % 4 {
                0 => TouchAction::Summary {
                    half_window: Some(5),
                    kind: AggregateKind::Avg,
                },
                1 => TouchAction::Scan,
                2 => TouchAction::Aggregate(AggregateKind::Avg),
                _ => TouchAction::FilteredScan {
                    predicate: Predicate::compare(CompareOp::Ge, mean),
                },
            };
            let mut synthesizer = GestureSynthesizer::new(60.0);
            let traces = (0..traces_per_explorer)
                .map(|_| {
                    let duration = rng.gen_range(0.4f64..1.6);
                    if rng.gen_range(0.0f64..1.0) < 0.25 {
                        synthesizer.exploratory_slide(&view, duration + 1.0)
                    } else {
                        synthesizer.slide_down(&view, duration)
                    }
                })
                .collect();
            Ok(ExplorerPlan { action, traces })
        })
        .collect()
}

/// Plan a *skewed hot-object* workload: every explorer runs the identical
/// summary plan over the same object.
///
/// This models the other extreme from [`plan_explorers`]' survey mix — a
/// dashboard or a "room of analysts" where millions of users look at the same
/// hot data the same way. Each plan cycles through a small pool of seeded
/// slide traces, so the same summary windows recur both *within* a session
/// (a trace repeats later in the plan) and *across* sessions (all explorers
/// run the same traces). Without the shared result cache every session
/// recomputes every window; with it, one computation serves them all.
pub fn plan_hot_object(
    catalog: &SharedCatalog,
    object: ObjectId,
    explorers: usize,
    traces_per_explorer: usize,
    seed: u64,
) -> Result<Vec<ExplorerPlan>> {
    let data = catalog.data(object)?;
    let view = data.base_view().clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
    let mut synthesizer = GestureSynthesizer::new(60.0);
    // A small pool of distinct slides, cycled to plan length: even a single
    // session revisits each window once the pool wraps.
    let pool_size = (traces_per_explorer / 2).max(1);
    let pool: Vec<GestureTrace> = (0..pool_size)
        .map(|_| {
            let duration = rng.gen_range(0.5f64..1.2);
            synthesizer.slide_down(&view, duration)
        })
        .collect();
    let traces: Vec<GestureTrace> = (0..traces_per_explorer)
        .map(|i| pool[i % pool_size].clone())
        .collect();
    // Wide summary windows: a dashboard-style "aggregate the visible region"
    // touch that reads thousands of rows per window, so recomputation is
    // expensive enough for shared-cache hits to matter.
    let action = TouchAction::Summary {
        half_window: Some(2_000),
        kind: AggregateKind::Avg,
    };
    Ok((0..explorers)
        .map(|_| ExplorerPlan {
            action: action.clone(),
            traces: traces.clone(),
        })
        .collect())
}

/// A [`KernelConfig`] tuned so every summary window actually exercises the
/// segment kernel: base-level reads (no adaptive coarsening), a touch budget
/// that never truncates the window, and the shared result cache off so each
/// touch recomputes its window from storage. Used by the segment-sweep workload and
/// `touch_budget`'s `banded_sweep` / `cold_raw_sweep`; only the scan knobs
/// vary between swept points, so any digest difference is the scan path's
/// fault.
pub fn segment_sweep_config(scan_parallelism: usize, segment_rows: u64) -> KernelConfig {
    KernelConfig {
        touch_budget_micros: 10_000_000,
        ..KernelConfig::default()
            .with_scan_parallelism(scan_parallelism)
            .with_segment_rows(segment_rows)
            .with_adaptive_sampling(false)
            .with_shared_cache(false)
    }
}

/// Plan a *segment-sweep* workload: one explorer sliding over a large object
/// with summary windows wide enough (`half_window` rows each side) that every
/// touch decomposes into many segment morsels. Same seed → same traces, so
/// the identical plan can be replayed at every `scan_parallelism` ×
/// `segment_rows` point and the digests compared bit for bit.
pub fn plan_segment_sweep(
    catalog: &SharedCatalog,
    object: ObjectId,
    traces: usize,
    half_window: u64,
    seed: u64,
) -> Result<ExplorerPlan> {
    let view = catalog.data(object)?.base_view().clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e9_3e47);
    let mut synthesizer = GestureSynthesizer::new(60.0);
    let traces = (0..traces)
        .map(|_| {
            let duration = rng.gen_range(0.6f64..1.4);
            synthesizer.slide_down(&view, duration)
        })
        .collect();
    Ok(ExplorerPlan {
        action: TouchAction::Summary {
            half_window: Some(half_window),
            kind: AggregateKind::Avg,
        },
        traces,
    })
}

/// The outcome of driving a concurrent workload.
#[derive(Debug)]
pub struct ConcurrentRunReport {
    /// Per-explorer session reports, in explorer order.
    pub sessions: Vec<SessionReport>,
    /// Wall time from first submission to last session close.
    pub wall_nanos: u64,
}

impl ConcurrentRunReport {
    /// Total touch samples processed across all sessions.
    pub fn total_touches(&self) -> u64 {
        self.sessions.iter().map(SessionReport::total_touches).sum()
    }

    /// Total result entries returned across all sessions.
    pub fn total_entries(&self) -> u64 {
        self.sessions.iter().map(SessionReport::total_entries).sum()
    }

    /// Aggregate throughput in touches per second of wall time.
    pub fn touches_per_sec(&self) -> f64 {
        self.total_touches() as f64 / (self.wall_nanos.max(1) as f64 / 1e9)
    }

    /// Per-touch latency percentiles across every session's traces, merged
    /// from the sessions' fixed-memory histograms.
    pub fn latency_summary(&self) -> LatencySummary {
        SessionReport::merged_latency_summary(&self.sessions)
    }

    /// Per-explorer digests of the deterministic outcome (order matches the
    /// plans handed to [`run_concurrent`]).
    pub fn digests(&self) -> Vec<u64> {
        self.sessions
            .iter()
            .map(SessionReport::result_digest)
            .collect()
    }

    /// Errors across all sessions.
    pub fn errors(&self) -> Vec<&String> {
        self.sessions.iter().flat_map(|s| s.errors.iter()).collect()
    }

    /// Catalog restructures observed by sessions at gesture boundaries,
    /// across all sessions.
    pub fn total_restructures_seen(&self) -> u64 {
        self.sessions.iter().map(|s| s.restructures_seen).sum()
    }
}

/// Drive all `plans` against any exploration service — in-process server or
/// remote transport — through the [`ExplorationClient`] abstraction: one
/// session per explorer, one submitting thread per explorer. Sessions are
/// opened up front (so admission control rejects the whole run, not half of
/// it) and each thread closes its own session, returning the final report.
pub fn drive_plans_over<C: ExplorationClient>(
    client: &C,
    object: ObjectId,
    plans: &[ExplorerPlan],
) -> Result<Vec<SessionReport>> {
    let drivers: Vec<_> = plans
        .iter()
        .map(|plan| client.open_session().map(|session| (session, plan.clone())))
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .map(|(mut session, plan)| {
            std::thread::spawn(move || -> Result<SessionReport> {
                session.set_action(object, plan.action)?;
                for trace in plan.traces {
                    session.run_trace(object, trace)?;
                }
                session.close()
            })
        })
        .collect();
    let mut sessions = Vec::with_capacity(drivers.len());
    for driver in drivers {
        let report = driver.join().map_err(|_| {
            dbtouch_types::DbTouchError::Internal("driver thread panicked".into())
        })??;
        sessions.push(report);
    }
    Ok(sessions)
}

/// Drive all `plans` against an already-running in-process server. Shared by
/// [`run_concurrent`] and the churn driver
/// ([`crate::churn::run_concurrent_with_churn`]).
pub(crate) fn drive_plans(
    server: &ExplorationServer,
    object: ObjectId,
    plans: &[ExplorerPlan],
) -> Result<Vec<SessionReport>> {
    drive_plans_over(server, object, plans)
}

/// Drive all `plans` concurrently: one served session per explorer, one
/// submitting thread per explorer, all over one shared catalog.
pub fn run_concurrent(
    catalog: &Arc<SharedCatalog>,
    object: ObjectId,
    plans: &[ExplorerPlan],
    server_config: ServerConfig,
) -> Result<ConcurrentRunReport> {
    let server = ExplorationServer::serve(server_config.with_catalog(Arc::clone(catalog)))?;
    let started = Instant::now();
    let sessions = drive_plans(&server, object, plans)?;
    let wall_nanos = started.elapsed().as_nanos() as u64;
    server.shutdown();
    Ok(ConcurrentRunReport {
        sessions,
        wall_nanos,
    })
}

/// Replay the same plans one explorer at a time through the single-user
/// [`Kernel`], returning each explorer's outcome digest. Every explorer gets a
/// fresh kernel over the same catalog — exactly the state a served session
/// starts from.
pub fn run_sequential(
    catalog: &Arc<SharedCatalog>,
    object: ObjectId,
    plans: &[ExplorerPlan],
) -> Result<Vec<u64>> {
    plans
        .iter()
        .map(|plan| {
            let mut kernel = Kernel::from_catalog(Arc::clone(catalog));
            kernel.set_action(object, plan.action.clone())?;
            let mut outcomes = Vec::with_capacity(plan.traces.len());
            for trace in &plan.traces {
                outcomes.push(TraceOutcome {
                    object,
                    outcome: kernel.run_trace(object, trace)?,
                });
            }
            Ok(digest_outcomes(outcomes.iter()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic() {
        let scenario = Scenario::sky_survey(20_000, 7);
        let (catalog, object) = scenario_catalog(&scenario, KernelConfig::default()).unwrap();
        let a = plan_explorers(&catalog, object, 4, 3, 42).unwrap();
        let b = plan_explorers(&catalog, object, 4, 3, 42).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.action, y.action);
            assert_eq!(x.traces, y.traces);
        }
        let c = plan_explorers(&catalog, object, 4, 3, 43).unwrap();
        assert_ne!(a[0].traces, c[0].traces);
    }

    #[test]
    fn hot_object_plans_repeat_windows_within_and_across_sessions() {
        let scenario = Scenario::sky_survey(30_000, 5);
        let (catalog, object) = scenario_catalog(&scenario, KernelConfig::default()).unwrap();
        let plans = plan_hot_object(&catalog, object, 4, 4, 7).unwrap();
        assert_eq!(plans.len(), 4);
        for plan in &plans {
            assert_eq!(plan.action, plans[0].action);
            assert_eq!(plan.traces, plans[0].traces);
            // The pool cycles: the plan revisits its own traces.
            assert_eq!(plan.traces[0], plan.traces[2]);
        }
        let concurrent =
            run_concurrent(&catalog, object, &plans, ServerConfig::with_workers(2)).unwrap();
        assert!(concurrent.errors().is_empty(), "{:?}", concurrent.errors());
        // Repeated windows must be served from the shared cache...
        let hits: u64 = concurrent
            .sessions
            .iter()
            .map(SessionReport::total_shared_cache_hits)
            .sum();
        assert!(hits > 0, "hot-object workload must hit the shared cache");
        // ...without changing a single result bit vs. the sequential replay.
        let sequential = run_sequential(&catalog, object, &plans).unwrap();
        assert_eq!(concurrent.digests(), sequential);
    }

    #[test]
    fn segment_sweep_digests_are_invariant_across_scan_knobs() {
        use dbtouch_types::SizeCm;

        let scenario = Scenario::monitoring_stream(150_000, 13);
        // The integer signal decomposes; plan once (from any catalog — the
        // seeded traces depend only on the view) and replay everywhere.
        let build = |parallelism: usize, segment_rows: u64| {
            let catalog = Arc::new(SharedCatalog::new(segment_sweep_config(
                parallelism,
                segment_rows,
            )));
            let id = catalog
                .load_column_typed(scenario.signal_column_i64(), SizeCm::new(2.0, 12.0))
                .unwrap();
            (catalog, id)
        };
        let (baseline_catalog, baseline_id) = build(1, 65_536);
        let plan = plan_segment_sweep(&baseline_catalog, baseline_id, 2, 40_000, 21).unwrap();
        let baseline =
            run_sequential(&baseline_catalog, baseline_id, std::slice::from_ref(&plan)).unwrap()[0];
        for (parallelism, segment_rows) in [(2, 4096), (4, 7777), (8, 65_536)] {
            let (catalog, id) = build(parallelism, segment_rows);
            let digest = run_sequential(&catalog, id, std::slice::from_ref(&plan)).unwrap()[0];
            assert_eq!(
                digest, baseline,
                "digest drifted at scan_parallelism={parallelism}, segment_rows={segment_rows}"
            );
        }
    }

    #[test]
    fn concurrent_matches_sequential_on_monitoring_stream() {
        let scenario = Scenario::monitoring_stream(30_000, 11);
        let (catalog, object) = scenario_catalog(&scenario, KernelConfig::default()).unwrap();
        let plans = plan_explorers(&catalog, object, 6, 2, 99).unwrap();
        let concurrent =
            run_concurrent(&catalog, object, &plans, ServerConfig::with_workers(3)).unwrap();
        assert!(concurrent.errors().is_empty(), "{:?}", concurrent.errors());
        let sequential = run_sequential(&catalog, object, &plans).unwrap();
        assert_eq!(concurrent.digests(), sequential);
        assert!(concurrent.total_entries() > 0);
        assert!(concurrent.touches_per_sec() > 0.0);
    }
}
