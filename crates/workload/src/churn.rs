//! Catalog-churn workload: explorers keep exploring while mutators
//! restructure the catalog underneath them.
//!
//! dbTouch promises an answer to every gesture in interactive time *even
//! while the user is reshaping the data*. This module makes that claim
//! testable at the serving layer: K seeded explorers run their usual plans
//! over a signal object while M mutator threads continuously restructure a
//! separate churn table — each mutator ping-pongs its own column out of and
//! back into the table (`drag_column_out` / `drag_column_into`), the
//! heaviest catalog publishes the system has.
//!
//! Because the churn table is disjoint from the explored object, the
//! explorers' results must be bit-identical to a churn-free sequential
//! replay: restructures move the catalog epoch, never other sessions'
//! answers. The `mixed_restructure` workload of `touch_budget` measures what
//! the churn *does* cost (`core.catalog.checkout_ns`,
//! `core.catalog.restructure_us_p50`, `gesture_p50_us`).

use crate::concurrent::{drive_plans, ConcurrentRunReport, ExplorerPlan};
use crate::scenarios::Scenario;
use dbtouch_core::catalog::SharedCatalog;
use dbtouch_core::kernel::ObjectId;
use dbtouch_server::{ExplorationServer, ServerConfig};
use dbtouch_storage::column::Column;
use dbtouch_storage::table::Table;
use dbtouch_types::{KernelConfig, Result, SizeCm};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Columns the churn table carries for mutators (`churn_c0`..); mutator `m`
/// ping-pongs column `churn_c{m}`, so at most this many mutators can run
/// against one churn catalog.
pub const MAX_CHURN_MUTATORS: usize = 8;

/// Load a scenario's signal column plus a dedicated churn table into a fresh
/// shared catalog. Returns `(catalog, signal object, churn table)`; explorers
/// run over the signal object, mutators restructure the churn table.
pub fn churn_catalog(
    scenario: &Scenario,
    config: KernelConfig,
    churn_rows: usize,
) -> Result<(Arc<SharedCatalog>, ObjectId, ObjectId)> {
    let catalog = Arc::new(SharedCatalog::new(config));
    let signal = catalog.load_column_typed(scenario.signal_column(), SizeCm::new(2.0, 12.0))?;
    let rows = churn_rows.max(1) as i64;
    // One never-dragged key column keeps the table legal when every mutator
    // column is out at once, plus one column per potential mutator.
    let mut columns = vec![Column::from_i64("churn_key", (0..rows).collect())];
    for m in 0..MAX_CHURN_MUTATORS {
        let factor = m as i64 + 1;
        columns.push(Column::from_i64(
            format!("churn_c{m}"),
            (0..rows).map(|i| i * factor).collect(),
        ));
    }
    let table = Table::from_columns("churn", columns)?;
    let churn = catalog.load_table(table, SizeCm::new(8.0, 10.0))?;
    Ok((catalog, signal, churn))
}

/// The outcome of a concurrent run under catalog churn.
#[derive(Debug)]
pub struct ChurnOutcome {
    /// The explorers' reports and wall time (same shape as a churn-free run).
    pub run: ConcurrentRunReport,
    /// Restructures the mutators performed (each ping-pong cycle is two).
    pub restructures: u64,
    /// Errors mutators hit (empty in a correct run: each mutator owns its
    /// column, so restructures never conflict semantically).
    pub mutator_errors: Vec<String>,
    /// Catalog epoch when the run started.
    pub first_epoch: u64,
    /// Catalog epoch when the run finished (monotone: `>= first_epoch`,
    /// strictly greater whenever a mutator ran).
    pub final_epoch: u64,
}

/// Drive all `plans` concurrently while `mutators` threads (capped at
/// [`MAX_CHURN_MUTATORS`]) continuously restructure `churn_table`. Each
/// mutator completes at least one full out-and-back cycle, and always
/// finishes the cycle it started — the churn table ends with its full
/// schema.
pub fn run_concurrent_with_churn(
    catalog: &Arc<SharedCatalog>,
    object: ObjectId,
    plans: &[ExplorerPlan],
    server_config: ServerConfig,
    churn_table: ObjectId,
    mutators: usize,
) -> Result<ChurnOutcome> {
    let first_epoch = catalog.epoch();
    let server = ExplorationServer::serve(server_config.with_catalog(Arc::clone(catalog)))?;
    let stop = Arc::new(AtomicBool::new(false));
    let mutator_threads: Vec<_> = (0..mutators.min(MAX_CHURN_MUTATORS))
        .map(|m| {
            let catalog = Arc::clone(catalog);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> (u64, Vec<String>) {
                let column = format!("churn_c{m}");
                let size = SizeCm::new(2.0, 8.0);
                let mut restructures = 0u64;
                let mut errors = Vec::new();
                loop {
                    match catalog.drag_column_out(churn_table, &column, size) {
                        Ok(standalone) => {
                            restructures += 1;
                            match catalog.drag_column_into(churn_table, standalone) {
                                Ok(()) => restructures += 1,
                                Err(e) => {
                                    errors.push(format!("drag_column_into({column}): {e}"));
                                    break;
                                }
                            }
                        }
                        Err(e) => {
                            errors.push(format!("drag_column_out({column}): {e}"));
                            break;
                        }
                    }
                    // Checked after a full cycle: the run always sees at
                    // least one restructure pair and the table ends intact.
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                (restructures, errors)
            })
        })
        .collect();

    let started = Instant::now();
    let driven = drive_plans(&server, object, plans);
    let wall_nanos = started.elapsed().as_nanos() as u64;
    // Stop the churn before propagating any driver error, or the mutator
    // threads would spin forever.
    stop.store(true, Ordering::Relaxed);
    let mut restructures = 0;
    let mut mutator_errors = Vec::new();
    for handle in mutator_threads {
        match handle.join() {
            Ok((done, errors)) => {
                restructures += done;
                mutator_errors.extend(errors);
            }
            Err(_) => mutator_errors.push("mutator thread panicked".into()),
        }
    }
    server.shutdown();
    let sessions = driven?;
    Ok(ChurnOutcome {
        run: ConcurrentRunReport {
            sessions,
            wall_nanos,
        },
        restructures,
        mutator_errors,
        first_epoch,
        final_epoch: catalog.epoch(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::{plan_explorers, run_sequential};

    #[test]
    fn churn_catalog_has_signal_and_churn_table() {
        let scenario = Scenario::sky_survey(5_000, 3);
        let (catalog, signal, churn) =
            churn_catalog(&scenario, KernelConfig::default(), 1_024).unwrap();
        assert_ne!(signal, churn);
        assert_eq!(
            catalog.data(churn).unwrap().schema().len(),
            MAX_CHURN_MUTATORS + 1
        );
        assert!(catalog.data(signal).unwrap().row_count() > 0);
    }

    #[test]
    fn churn_never_perturbs_unrelated_explorers() {
        let scenario = Scenario::sky_survey(20_000, 7);
        let (catalog, signal, churn) =
            churn_catalog(&scenario, KernelConfig::default(), 2_048).unwrap();
        let plans = plan_explorers(&catalog, signal, 4, 2, 42).unwrap();
        let outcome = run_concurrent_with_churn(
            &catalog,
            signal,
            &plans,
            ServerConfig::with_workers(2),
            churn,
            2,
        )
        .unwrap();
        assert!(
            outcome.mutator_errors.is_empty(),
            "mutators: {:?}",
            outcome.mutator_errors
        );
        assert!(
            outcome.run.errors().is_empty(),
            "{:?}",
            outcome.run.errors()
        );
        // Each mutator performs at least one full cycle; every restructure
        // moves the epoch.
        assert!(
            outcome.restructures >= 4,
            "restructures: {}",
            outcome.restructures
        );
        assert!(outcome.final_epoch >= outcome.first_epoch + outcome.restructures);
        // The explored object was never rebuilt, so no session observed a
        // restructure *of its object* — and results are bit-identical to the
        // churn-free sequential replay.
        assert_eq!(outcome.run.total_restructures_seen(), 0);
        let sequential = run_sequential(&catalog, signal, &plans).unwrap();
        assert_eq!(outcome.run.digests(), sequential);
        // With no mutator nothing publishes: same digests, epoch unmoved.
        let quiet = ServerConfig::with_workers(2);
        let still = run_concurrent_with_churn(&catalog, signal, &plans, quiet, churn, 0).unwrap();
        assert_eq!(still.restructures, 0);
        assert_eq!(still.final_epoch, still.first_epoch);
        assert_eq!(still.run.digests(), sequential);
    }

    #[test]
    fn churn_table_ends_with_full_schema() {
        let scenario = Scenario::sky_survey(8_000, 5);
        let (catalog, signal, churn) =
            churn_catalog(&scenario, KernelConfig::default(), 1_024).unwrap();
        let plans = plan_explorers(&catalog, signal, 2, 1, 7).unwrap();
        let outcome = run_concurrent_with_churn(
            &catalog,
            signal,
            &plans,
            ServerConfig::with_workers(2),
            churn,
            MAX_CHURN_MUTATORS + 3, // excess mutators are capped
        )
        .unwrap();
        assert!(outcome.mutator_errors.is_empty());
        let data = catalog.data(churn).unwrap();
        assert_eq!(data.schema().len(), MAX_CHURN_MUTATORS + 1);
        // All ping-pong cycles completed: only the churn table and the
        // signal column remain live.
        assert_eq!(catalog.object_count(), 2);
    }
}
