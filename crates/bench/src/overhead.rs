//! Observer overhead: proves the telemetry hub and causal span tracing are
//! effectively free on the serving hot path.
//!
//! Drives the identical seeded hot-object workload through the exploration
//! server with one observer ([`Switch`]) enabled and disabled: one untimed
//! warmup, then `trials` interleaved pairs whose in-pair order alternates
//! every trial (so CPU-frequency drift and cache warmth hit both
//! configurations equally), keeping each configuration's best trial. Asserts
//! the foundational invariant along the way: an observer observes, it never
//! steers — result digests must be bit-identical with it on or off, in every
//! trial.

use dbtouch_server::ServerConfig;
use dbtouch_types::{DbTouchError, KernelConfig, Result};
use dbtouch_workload::concurrent::{plan_hot_object, run_concurrent, scenario_catalog};
use dbtouch_workload::Scenario;

/// Which observer is flipped between the two configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Switch {
    /// The telemetry hub.
    Telemetry,
    /// Span tracing; telemetry stays on in both configurations, so the delta
    /// isolates the span subsystem.
    Trace,
}

impl Switch {
    /// The name the CLI takes and the table prints.
    pub fn label(self) -> &'static str {
        match self {
            Switch::Telemetry => "telemetry",
            Switch::Trace => "trace",
        }
    }

    fn config(self, on: bool) -> KernelConfig {
        match self {
            Switch::Telemetry => KernelConfig::default().with_telemetry(on),
            Switch::Trace => KernelConfig::default().with_tracing(on),
        }
    }
}

/// The measured comparison of one workload with the observer on vs. off.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// The observer that was flipped.
    pub switch: Switch,
    /// Rows in the hot object.
    pub rows: u64,
    /// Simultaneous sessions driven.
    pub sessions: usize,
    /// Gesture traces each session performs.
    pub traces_per_session: usize,
    /// Interleaved trials run per configuration (best kept).
    pub trials: usize,
    /// Touch samples processed per run (identical for both configurations).
    pub total_touches: u64,
    /// Best throughput with the observer disabled, touches/s.
    pub touches_per_sec_off: f64,
    /// Best throughput with the observer enabled, touches/s.
    pub touches_per_sec_on: f64,
    /// Result digests identical across every trial of both configurations.
    pub digests_identical: bool,
    /// What the enabled observer saw in its best trial, as two named counts:
    /// finished traces, then metric keys for the hub or retained span trees
    /// for tracing. The first is zero unless the hub recorded the run, so
    /// zero means the observer was not really on.
    pub observed: [(&'static str, u64); 2],
}

impl OverheadReport {
    /// Throughput lost to the observer, percent of the disabled throughput.
    /// Negative when the enabled run measured faster (noise).
    pub fn overhead_percent(&self) -> f64 {
        if self.touches_per_sec_off == 0.0 {
            return 0.0;
        }
        (1.0 - self.touches_per_sec_on / self.touches_per_sec_off) * 100.0
    }

    /// Render the comparison as text lines.
    pub fn table(&self) -> String {
        format!(
            "{} overhead — {} rows, {} sessions x {} traces, best of {} trials\n\
             touches/run          {}\n\
             touches/s  off       {:.0}\n\
             touches/s  on        {:.0}\n\
             overhead             {:+.2}%\n\
             digests identical    {}\n\
             {:<20} {}\n\
             {:<20} {}\n",
            self.switch.label(),
            self.rows,
            self.sessions,
            self.traces_per_session,
            self.trials,
            self.total_touches,
            self.touches_per_sec_off,
            self.touches_per_sec_on,
            self.overhead_percent(),
            self.digests_identical,
            self.observed[0].0,
            self.observed[0].1,
            self.observed[1].0,
            self.observed[1].1,
        )
    }
}

/// One timed run of the workload.
struct Run {
    touches_per_sec: f64,
    total_touches: u64,
    digests: Vec<u64>,
    observed: [(&'static str, u64); 2],
}

fn one_run(
    scenario: &Scenario,
    switch: Switch,
    on: bool,
    sessions: usize,
    traces_per_session: usize,
) -> Result<Run> {
    // A fresh catalog per run: a warm shared cache or buffer pool from a
    // previous run must not flatter either configuration.
    let (catalog, object) = scenario_catalog(scenario, switch.config(on))?;
    let plans = plan_hot_object(&catalog, object, sessions, traces_per_session, 99)?;
    let run = run_concurrent(&catalog, object, &plans, ServerConfig::default())?;
    if let Some(error) = run.errors().first() {
        return Err(DbTouchError::Internal(format!(
            "{} overhead run errored: {error}",
            switch.label()
        )));
    }
    let snapshot = catalog.telemetry().snapshot();
    let finished = (
        "traces finished",
        snapshot.scalar("obs.traces_finished").unwrap_or(0),
    );
    let observed = match switch {
        Switch::Telemetry => [finished, ("metric keys", snapshot.metrics.len() as u64)],
        Switch::Trace => [finished, ("trees retained", snapshot.traces.len() as u64)],
    };
    Ok(Run {
        touches_per_sec: run.touches_per_sec(),
        total_touches: run.total_touches(),
        digests: run.digests(),
        observed,
    })
}

/// Run the comparison: one untimed warmup, then `trials` interleaved off/on
/// pairs over the identical seeded workload, alternating the in-pair order
/// every trial and keeping each configuration's best throughput.
pub fn run_overhead(
    switch: Switch,
    rows: usize,
    sessions: usize,
    traces_per_session: usize,
    trials: usize,
) -> Result<OverheadReport> {
    let scenario = Scenario::sky_survey(rows, 17);
    let trials = trials.max(1);
    let run = |on: bool| one_run(&scenario, switch, on, sessions, traces_per_session);
    // Untimed warmup: faults in the binary, warms the allocator and branch
    // predictors so the first timed run doesn't penalize whichever
    // configuration happens to go first.
    let warmup = run(false)?;
    let mut report = OverheadReport {
        switch,
        rows: rows as u64,
        sessions,
        traces_per_session,
        trials,
        total_touches: warmup.total_touches,
        touches_per_sec_off: 0.0,
        touches_per_sec_on: 0.0,
        digests_identical: true,
        observed: warmup.observed,
    };
    for trial in 0..trials {
        // Alternate which configuration runs first so residual cache warmth
        // from the preceding run flatters each side equally often.
        let (off, on) = if trial % 2 == 0 {
            let off = run(false)?;
            (off, run(true)?)
        } else {
            let on = run(true)?;
            (run(false)?, on)
        };
        report.digests_identical &= off.digests == warmup.digests && on.digests == warmup.digests;
        report.touches_per_sec_off = report.touches_per_sec_off.max(off.touches_per_sec);
        if on.touches_per_sec > report.touches_per_sec_on {
            report.touches_per_sec_on = on.touches_per_sec;
            report.observed = on.observed;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_scale_run_is_transparent_for_both_observers() {
        for switch in [Switch::Telemetry, Switch::Trace] {
            let report = run_overhead(switch, 20_000, 2, 2, 1).unwrap();
            assert!(
                report.digests_identical,
                "{switch:?} must not steer results"
            );
            assert!(report.total_touches > 0);
            assert!(report.touches_per_sec_on > 0.0);
            assert!(
                report.observed[0].1 > 0,
                "the enabled {switch:?} observer must have seen the run: {:?}",
                report.observed
            );
            if switch == Switch::Telemetry {
                assert!(report.observed[1].1 > 0, "the hub's snapshot has keys");
            }
            let off = one_run(&Scenario::sky_survey(20_000, 17), switch, false, 2, 2).unwrap();
            assert_eq!(
                off.observed[0].1, 0,
                "the disabled {switch:?} observer saw nothing"
            );
            assert!(report.table().contains("digests identical    true"));
        }
    }

    #[test]
    fn overhead_math() {
        let mut report = run_overhead(Switch::Telemetry, 10_000, 1, 1, 1).unwrap();
        report.touches_per_sec_off = 100.0;
        report.touches_per_sec_on = 99.0;
        assert!((report.overhead_percent() - 1.0).abs() < 1e-9);
        report.touches_per_sec_on = 101.0;
        assert!(report.overhead_percent() < 0.0, "faster-on is negative");
    }
}
