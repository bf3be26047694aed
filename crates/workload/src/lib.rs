//! # dbtouch-workload
//!
//! Synthetic data, hidden patterns and simulated explorers for the dbTouch
//! evaluation.
//!
//! The paper motivates dbTouch with two exploration scenarios — an astronomer
//! browsing parts of the sky and an IT analyst browsing monitoring streams —
//! and evaluates the prototype's exploration value with a demo contest where a
//! dbTouch user and a SQL user race to discover hidden data properties
//! (Appendix A). This crate makes those scenarios executable and repeatable:
//!
//! * [`datagen`] — seeded generators for the base signals (uniform, Gaussian,
//!   Zipf-like, daily-periodic monitoring load).
//! * [`patterns`] — injectable, ground-truthed anomalies (outlier clusters,
//!   level shifts, linear trends) that the explorers are asked to find.
//! * [`scenarios`] — the packaged data sets: the sky survey and the monitoring
//!   stream, each a column (or table) plus the ground truth of what is hidden
//!   inside it.
//! * [`explorer`] — simulated users: a dbTouch explorer that slides, reads
//!   interactive summaries and zooms into suspicious regions, and a SQL
//!   explorer that fires aggregate queries at the baseline engine. Both report
//!   how much data they touched and how close they got to the hidden pattern.
//! * [`concurrent`] — K simultaneous explorers driven through
//!   `dbtouch-server` against one shared catalog, with a seeded sequential
//!   replay that proves the concurrent results are identical.
//! * [`churn`] — the live-restructure scenario: the same explorers while
//!   mutator threads continuously drag columns out of (and back into) a
//!   churn table, exercising the epoch-versioned catalog under write load.
//! * [`persistence`] — the durability round trip: build a catalog, serve
//!   concurrent sessions, persist, reopen (in a fresh process) and replay
//!   the same seeded workload to bit-identical digests from paged storage.
//! * [`remote`] — the device/cloud scenario: thin devices holding only
//!   coarse samples, slow detail slides going to a simulated cloud server —
//!   all-local vs. coarse-now, refine-later remote fetches, digest-verified.

pub mod churn;
pub mod concurrent;
pub mod datagen;
pub mod explorer;
pub mod patterns;
pub mod persistence;
pub mod remote;
pub mod scenarios;

pub use churn::{churn_catalog, run_concurrent_with_churn, ChurnOutcome, MAX_CHURN_MUTATORS};
pub use concurrent::{
    drive_plans_over, plan_explorers, plan_hot_object, plan_segment_sweep, run_concurrent,
    run_sequential, segment_sweep_config, ConcurrentRunReport, ExplorerPlan,
};
pub use datagen::DataGenerator;
pub use explorer::{DbTouchExplorer, DiscoveryReport, SqlExplorer, UnsteeredExplorer};
pub use patterns::{Pattern, PatternKind};
pub use persistence::{
    build_and_persist, replay_persisted, ReplayOutcome, RoundTripRecord, RoundTripSpec,
};
pub use remote::{
    device_cloud_catalog, device_cloud_config, device_cloud_split, fine_level_windows,
    plan_device_cloud,
};
pub use scenarios::Scenario;
