//! Remote-overlap benchmark: all-local vs. the device/cloud split.
//!
//! The device/cloud scenario (see `dbtouch_workload::remote`) drives K
//! concurrent summary explorers whose slow slides need sample levels the
//! device does not hold. Two configurations run the *same* plans:
//!
//! * `all_local` — no split, the ground truth;
//! * `overlapped` — fine-level windows answer provisionally from the
//!   coarsest device level and refine asynchronously through the remote
//!   executor while the worker keeps processing touches.
//!
//! Every point is verified on digests and counts, never on wall time:
//! session digests must be bit-identical to the all-local sequential replay
//! (the drained refinements reconstruct the exact all-local results),
//! reports must be fully drained, the all-local run must ship nothing, and
//! the overlapped run must send exactly one progressive request per
//! fine-level window of the plans and apply every one — the paper's "use
//! local data to feed partial answers, while in the mean time more
//! fine-grained answers are produced and delivered by the server", checked.
//! Throughput and overlap ratio are reported, not judged.

use dbtouch_server::ServerConfig;
use dbtouch_types::Result;
use dbtouch_workload::concurrent::{run_concurrent, run_sequential};
use dbtouch_workload::remote::{
    device_cloud_catalog, device_cloud_split, fine_level_windows, plan_device_cloud,
};
use dbtouch_workload::Scenario;

/// One measured configuration at one session count.
#[derive(Debug, Clone)]
pub struct RemoteOverlapPoint {
    /// Simultaneous explorer sessions driven.
    pub sessions: usize,
    /// Which tier configuration ran (`all_local` or `overlapped`).
    pub mode: &'static str,
    /// Total touch samples processed.
    pub total_touches: u64,
    /// Aggregate throughput: touches per second of wall time.
    pub touches_per_sec: f64,
    /// Wall time of the run in seconds.
    pub wall_secs: f64,
    /// Summary windows decided at a sample level finer than the device
    /// holds. Plan-determined, so equal in both configurations.
    pub fine_windows: u64,
    /// Progressive (coarse-now, refine-later) requests across all sessions.
    pub progressive_requests: u64,
    /// Refinements applied across all sessions.
    pub refinements_applied: u64,
    /// Rows shipped from the simulated server.
    pub rows_shipped: u64,
    /// Simulated microseconds spent on the server link.
    pub remote_wait_micros: u64,
    /// Mean real submit→applied refinement latency, milliseconds (0 when no
    /// refinements ran).
    pub mean_refinement_latency_ms: f64,
    /// Mean per-session overlap ratio: the fraction of the simulated remote
    /// wait hidden behind useful work (1.0 = fully hidden).
    pub overlap_ratio: f64,
    /// Digests bit-identical to the all-local sequential replay, no errors,
    /// every refinement drained.
    pub verified: bool,
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct RemoteOverlapReport {
    /// Rows in the explored signal column.
    pub rows: u64,
    /// Gesture traces each session performs (even = slow/remote, odd =
    /// fast/local).
    pub traces_per_session: usize,
    /// Measured points: for each session count, one point per mode.
    pub points: Vec<RemoteOverlapPoint>,
}

/// Run the sweep at the default WAN model (40ms round trip): for each
/// session count, the same seeded plans with and without the split,
/// digest-verified against the all-local sequential replay.
pub fn run_remote_overlap_sweep(
    rows: usize,
    session_counts: &[usize],
    traces_per_session: usize,
) -> Result<RemoteOverlapReport> {
    let scenario = Scenario::sky_survey(rows, 23);
    let mut points = Vec::with_capacity(session_counts.len() * 2);
    for &sessions in session_counts {
        // Ground truth: the all-local sequential replay of these plans.
        let (local_catalog, object) = device_cloud_catalog(&scenario, None)?;
        let plans = plan_device_cloud(&local_catalog, object, sessions, traces_per_session, 4242)?;
        let expected = run_sequential(&local_catalog, object, &plans)?;

        for (mode, split) in [
            ("all_local", None),
            ("overlapped", Some(device_cloud_split(None))),
        ] {
            let (catalog, id) = device_cloud_catalog(&scenario, split)?;
            let run = run_concurrent(&catalog, id, &plans, ServerConfig::with_workers(16))?;
            let digests = run.digests();
            let drained: usize = run.sessions.iter().map(|s| s.pending_refinements()).sum();
            let verified = digests == expected && run.errors().is_empty() && drained == 0;

            let mut progressive = 0u64;
            let mut rows_shipped = 0u64;
            let mut remote_wait = 0u64;
            let mut latencies = 0u64;
            let mut latency_count = 0u64;
            let mut overlap_sum = 0.0;
            for session in &run.sessions {
                let remote = session.total_remote();
                progressive = progressive.saturating_add(remote.progressive_requests);
                rows_shipped = rows_shipped.saturating_add(remote.rows_shipped);
                remote_wait = remote_wait.saturating_add(remote.remote_wait_micros);
                latencies =
                    latencies.saturating_add(session.refinement_latencies.iter().sum::<u64>());
                latency_count += session.refinement_latencies.len() as u64;
                overlap_sum += session.remote_overlap_ratio();
            }
            points.push(RemoteOverlapPoint {
                sessions,
                mode,
                total_touches: run.total_touches(),
                touches_per_sec: run.touches_per_sec(),
                wall_secs: run.wall_nanos as f64 / 1e9,
                fine_windows: fine_level_windows(&run.sessions),
                progressive_requests: progressive,
                refinements_applied: run
                    .sessions
                    .iter()
                    .map(|s| s.total_refinements_applied())
                    .sum(),
                rows_shipped,
                remote_wait_micros: remote_wait,
                mean_refinement_latency_ms: if latency_count == 0 {
                    0.0
                } else {
                    latencies as f64 / latency_count as f64 / 1e6
                },
                overlap_ratio: overlap_sum / run.sessions.len().max(1) as f64,
                verified,
            });
        }
    }
    Ok(RemoteOverlapReport {
        rows: rows as u64,
        traces_per_session,
        points,
    })
}

impl RemoteOverlapReport {
    /// The measured point of `(sessions, mode)`, if the sweep ran it.
    pub fn point(&self, sessions: usize, mode: &str) -> Option<&RemoteOverlapPoint> {
        self.points
            .iter()
            .find(|p| p.sessions == sessions && p.mode == mode)
    }

    /// The count verdict at one session count: the all-local run sent and
    /// shipped nothing, and the overlapped run sent exactly one progressive
    /// request per fine-level window of the all-local run and applied every
    /// one. False when either point is missing or the plans never went
    /// remote.
    pub fn counts_hold(&self, sessions: usize) -> bool {
        let (Some(local), Some(split)) = (
            self.point(sessions, "all_local"),
            self.point(sessions, "overlapped"),
        ) else {
            return false;
        };
        local.progressive_requests == 0
            && local.rows_shipped == 0
            && local.fine_windows > 0
            && split.progressive_requests == local.fine_windows
            && split.refinements_applied == split.progressive_requests
    }

    /// Render the sweep as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "remote overlap sweep — {} rows, {} traces/session, default WAN (40ms RTT)\n",
            self.rows, self.traces_per_session
        ));
        out.push_str(
            "sessions  mode          touches   touches/s    wall s   fine windows   progressive   applied   rows shipped   sim wait s   refine ms   overlap   identical\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>8}  {:<10}  {:>9}  {:>10.0}  {:>8.2}  {:>12}  {:>12}  {:>8}  {:>13}  {:>11.2}  {:>9.1}  {:>8.2}  {}\n",
                p.sessions,
                p.mode,
                p.total_touches,
                p.touches_per_sec,
                p.wall_secs,
                p.fine_windows,
                p.progressive_requests,
                p.refinements_applied,
                p.rows_shipped,
                p.remote_wait_micros as f64 / 1e6,
                p.mean_refinement_latency_ms,
                p.overlap_ratio,
                if p.verified { "yes" } else { "NO" },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_verifies_digests_and_request_counts() {
        let report = run_remote_overlap_sweep(60_000, &[1, 2], 1).unwrap();
        assert_eq!(report.points.len(), 4);
        for point in &report.points {
            assert!(point.verified, "point {point:?}");
            assert!(point.total_touches > 0);
            match point.mode {
                "all_local" => {
                    assert_eq!(point.progressive_requests, 0);
                    assert_eq!(point.rows_shipped, 0);
                }
                "overlapped" => {
                    assert!(point.progressive_requests > 0);
                    assert_eq!(point.refinements_applied, point.progressive_requests);
                    assert!(point.mean_refinement_latency_ms >= 40.0);
                }
                other => panic!("unexpected mode {other}"),
            }
        }
        for sessions in [1, 2] {
            assert!(
                report.counts_hold(sessions),
                "{sessions} sessions: {report:?}"
            );
            let local = report.point(sessions, "all_local").unwrap();
            let split = report.point(sessions, "overlapped").unwrap();
            assert_eq!(split.progressive_requests, local.fine_windows);
            assert_eq!(split.fine_windows, local.fine_windows, "plan-determined");
        }
        assert!(
            !report.counts_hold(4),
            "a session count the sweep did not run"
        );
    }
}
