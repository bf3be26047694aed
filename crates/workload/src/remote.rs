//! The device/cloud exploration scenario: thin touch devices over a simulated
//! cloud server (Section 4, "Remote Processing").
//!
//! Every explorer runs interactive summaries over the scenario's signal
//! column from a device that holds only the coarse sample levels. Slow,
//! detail-seeking slides decide sample levels finer than the device holds and
//! go to the (simulated) server; fast skimming slides stay device-local. The
//! same plans run with and without a split —
//!
//! * **all-local** (no split): the ground truth,
//! * **device/cloud** split: fine-level windows answer provisionally from
//!   the coarsest local level and refine asynchronously through
//!   `core::remote_exec` —
//!
//! and a drained split run must produce bit-identical digests to the
//! all-local one, with exactly one progressive request per fine-level window
//! of the plans, which is what the `remote_overlap` benchmark verifies.

use crate::concurrent::ExplorerPlan;
use crate::scenarios::Scenario;
use dbtouch_core::catalog::SharedCatalog;
use dbtouch_core::kernel::{ObjectId, TouchAction};
use dbtouch_core::operators::aggregate::AggregateKind;
use dbtouch_gesture::synthesizer::GestureSynthesizer;
use dbtouch_server::SessionReport;
use dbtouch_types::{KernelConfig, RemoteSplitConfig, Result, SizeCm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Sample levels the device/cloud scenario builds per column. Deeper than
/// the kernel default so there is a meaningful tier boundary: the device
/// keeps only the coarsest level, everything finer lives on the server.
pub const DEVICE_CLOUD_SAMPLE_LEVELS: u8 = 12;

/// The device boundary: levels `>= 11` (the coarsest) are on-device.
pub const DEVICE_LOCAL_MIN_LEVEL: u8 = 11;

/// The split `network` describes, at the scenario's standard boundary.
/// `None` network uses the default WAN model (40ms round trip).
pub fn device_cloud_split(network: Option<(u64, u64)>) -> RemoteSplitConfig {
    let split = RemoteSplitConfig::default().with_local_min_level(DEVICE_LOCAL_MIN_LEVEL);
    match network {
        Some((round_trip_micros, rows_per_milli)) => {
            split.with_network(round_trip_micros, rows_per_milli)
        }
        None => split,
    }
}

/// The kernel configuration of a device/cloud run: a deep sample hierarchy
/// plus `split` (`None` is the all-local ground truth). Both share every
/// other knob, so results are comparable bit for bit.
pub fn device_cloud_config(split: Option<RemoteSplitConfig>) -> KernelConfig {
    KernelConfig::default()
        .with_sample_levels(DEVICE_CLOUD_SAMPLE_LEVELS)
        .with_remote_split(split)
}

/// Load the scenario's signal column into a fresh catalog configured with
/// `split`. The view geometry is identical with and without a split, so one
/// set of plans drives both.
pub fn device_cloud_catalog(
    scenario: &Scenario,
    split: Option<RemoteSplitConfig>,
) -> Result<(Arc<SharedCatalog>, ObjectId)> {
    let catalog = Arc::new(SharedCatalog::new(device_cloud_config(split)));
    let id = catalog.load_column_typed(scenario.signal_column(), SizeCm::new(2.0, 12.0))?;
    Ok((catalog, id))
}

/// Summary windows the sessions of `reports` decided at a sample level finer
/// than the device holds. On a split each is one progressive request (a
/// window the response budget admits no rows of has nothing to ship). It
/// depends only on the plans, so an all-local run states what a split run
/// must send.
pub fn fine_level_windows(reports: &[SessionReport]) -> u64 {
    reports
        .iter()
        .flat_map(|report| &report.outcomes)
        .flat_map(|trace| {
            trace
                .outcome
                .stats
                .sample_level_usage
                .range(..DEVICE_LOCAL_MIN_LEVEL)
        })
        .map(|(_, windows)| windows)
        .sum()
}

/// Plan `explorers` device/cloud users: every plan is summary-only and
/// alternates slow, detail-seeking slides (fine sample levels → remote
/// traffic) with fast skims (coarse levels → device-local), seeded per
/// explorer so any run can be replayed bit for bit.
pub fn plan_device_cloud(
    catalog: &SharedCatalog,
    object: ObjectId,
    explorers: usize,
    traces_per_explorer: usize,
    seed: u64,
) -> Result<Vec<ExplorerPlan>> {
    let view = catalog.data(object)?.base_view().clone();
    Ok((0..explorers)
        .map(|index| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0xdecade + index as u64 * 0x2_0003));
            let mut synthesizer = GestureSynthesizer::new(60.0);
            let traces = (0..traces_per_explorer)
                .map(|trace| {
                    // Even traces study (slow → fine → remote), odd traces
                    // skim (fast → coarse → local).
                    let duration = if trace % 2 == 0 {
                        rng.gen_range(2.6f64..3.2)
                    } else {
                        rng.gen_range(0.5f64..0.8)
                    };
                    synthesizer.slide_down(&view, duration)
                })
                .collect();
            ExplorerPlan {
                action: TouchAction::Summary {
                    half_window: Some(5),
                    kind: AggregateKind::Avg,
                },
                traces,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::{run_concurrent, run_sequential};
    use dbtouch_server::ServerConfig;

    // A fast link so the test suite does not sleep through WAN round trips.
    const FAST_LINK: Option<(u64, u64)> = Some((300, 10_000));

    #[test]
    fn plans_are_deterministic_and_mode_independent() {
        let scenario = Scenario::sky_survey(60_000, 3);
        let (local, object) = device_cloud_catalog(&scenario, None).unwrap();
        let (remote, robj) =
            device_cloud_catalog(&scenario, Some(device_cloud_split(FAST_LINK))).unwrap();
        assert_eq!(object, robj);
        let a = plan_device_cloud(&local, object, 3, 4, 99).unwrap();
        let b = plan_device_cloud(&remote, robj, 3, 4, 99).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.action, y.action);
            assert_eq!(x.traces, y.traces, "same view ⇒ same plans across modes");
        }
    }

    #[test]
    fn split_and_all_local_digest_identically() {
        let scenario = Scenario::sky_survey(120_000, 21);
        let (local, object) = device_cloud_catalog(&scenario, None).unwrap();
        let plans = plan_device_cloud(&local, object, 4, 2, 7).unwrap();
        let expected = run_sequential(&local, object, &plans).unwrap();

        let mut fine_windows = None;
        for split in [None, Some(device_cloud_split(FAST_LINK))] {
            let remote = split.is_some();
            let (catalog, id) = device_cloud_catalog(&scenario, split).unwrap();
            let run = run_concurrent(&catalog, id, &plans, ServerConfig::with_workers(2)).unwrap();
            assert!(
                run.errors().is_empty(),
                "split {remote}: {:?}",
                run.errors()
            );
            assert_eq!(
                run.digests(),
                expected,
                "split {remote}: digests must match"
            );
            let progressive: u64 = run
                .sessions
                .iter()
                .map(|s| s.total_remote().progressive_requests)
                .sum();
            let applied: u64 = run
                .sessions
                .iter()
                .map(|s| s.total_refinements_applied())
                .sum();
            match fine_windows {
                // All-local: nothing goes remote, and the plans' fine-level
                // windows are what the split run must send.
                None => {
                    assert_eq!(progressive, 0);
                    let windows = fine_level_windows(&run.sessions);
                    assert!(windows > 0, "slow slides must decide fine levels");
                    fine_windows = Some(windows);
                }
                Some(windows) => {
                    assert_eq!(progressive, windows, "one request per fine window");
                    assert_eq!(applied, progressive, "every refinement lands");
                }
            }
        }
    }
}
