//! The Appendix A exploration contest: dbTouch vs. a traditional DBMS.
//!
//! Two simulated participants receive the same data set with a hidden pattern:
//! one explores it through the dbTouch kernel (slides, summaries, zoom-in), the
//! other through SQL-style aggregate queries against the blocking naive engine.
//! The report compares localization accuracy, the amount of data each system
//! had to touch, the number of interactions and the estimated elapsed time.

use dbtouch_types::{KernelConfig, Result};
use dbtouch_workload::explorer::{DbTouchExplorer, DiscoveryReport, SqlExplorer};
use dbtouch_workload::scenarios::Scenario;
use serde::{Deserialize, Serialize};

/// Which scenario the contest runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContestScenario {
    /// The generic contest data set of Appendix A.
    Contest,
    /// The astronomy sky-survey scenario from the introduction.
    SkySurvey,
    /// The IT monitoring-stream scenario from the introduction.
    Monitoring,
}

impl ContestScenario {
    /// Build the scenario's data set.
    pub fn build(&self, rows: usize, seed: u64) -> Scenario {
        match self {
            ContestScenario::Contest => Scenario::contest(rows, seed),
            ContestScenario::SkySurvey => Scenario::sky_survey(rows, seed),
            ContestScenario::Monitoring => Scenario::monitoring_stream(rows, seed),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ContestScenario::Contest => "contest",
            ContestScenario::SkySurvey => "sky_survey",
            ContestScenario::Monitoring => "monitoring",
        }
    }
}

/// The side-by-side contest outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContestReport {
    /// Scenario name.
    pub scenario: String,
    /// Data set size in rows.
    pub rows: u64,
    /// Localization tolerance used (fraction of the data).
    pub tolerance: f64,
    /// The dbTouch participant's report.
    pub dbtouch: DiscoveryReport,
    /// The SQL participant's report.
    pub sql: DiscoveryReport,
}

impl ContestReport {
    /// The winner by estimated elapsed time ("dbtouch", "sql" or "tie").
    pub fn winner_by_time(&self) -> &'static str {
        if self.dbtouch.estimated_seconds < self.sql.estimated_seconds {
            "dbtouch"
        } else if self.sql.estimated_seconds < self.dbtouch.estimated_seconds {
            "sql"
        } else {
            "tie"
        }
    }

    /// How many times more rows the SQL side touched than the dbTouch side.
    pub fn data_touched_ratio(&self) -> f64 {
        self.sql.rows_touched as f64 / self.dbtouch.rows_touched.max(1) as f64
    }
}

/// Run the contest on one scenario.
pub fn run_contest(
    scenario: ContestScenario,
    rows: usize,
    seed: u64,
    tolerance: f64,
) -> Result<ContestReport> {
    let data = scenario.build(rows, seed);
    let dbtouch = DbTouchExplorer::new(KernelConfig::default()).explore(&data, tolerance)?;
    let sql = SqlExplorer::new().explore(&data, tolerance)?;
    Ok(ContestReport {
        scenario: scenario.name().to_string(),
        rows: data.rows(),
        tolerance,
        dbtouch,
        sql,
    })
}

/// Render the contest report as the table printed by the `contest` binary.
pub fn render_contest(report: &ContestReport) -> String {
    let row = |r: &DiscoveryReport| {
        vec![
            r.system.clone(),
            crate::report::fmt_f64(r.error_fraction, 4),
            if r.found { "yes".into() } else { "no".into() },
            crate::report::fmt_count(r.rows_touched),
            crate::report::fmt_count(r.bytes_touched),
            r.interactions.to_string(),
            crate::report::fmt_f64(r.estimated_seconds, 1),
        ]
    };
    format!(
        "exploration contest: {} ({} rows, tolerance {})\n{}\nwinner by time: {} | SQL touched {:.0}x more data\n",
        report.scenario,
        crate::report::fmt_count(report.rows),
        report.tolerance,
        crate::report::render_table(
            &[
                "system",
                "localization error",
                "found",
                "rows touched",
                "bytes touched",
                "interactions",
                "est. seconds",
            ],
            &[row(&report.dbtouch), row(&report.sql)],
        ),
        report.winner_by_time(),
        report.data_touched_ratio(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contest_runs_and_dbtouch_touches_less_data() {
        let report = run_contest(ContestScenario::Contest, 150_000, 9, 0.02).unwrap();
        assert_eq!(report.dbtouch.system, "dbtouch");
        assert_eq!(report.sql.system, "sql");
        assert!(report.data_touched_ratio() > 5.0);
        assert_eq!(report.winner_by_time(), "dbtouch");
        assert!(report.dbtouch.error_fraction < 0.1);
        assert!(report.sql.error_fraction < 0.1);
    }

    #[test]
    fn contest_render_contains_both_systems() {
        let report = run_contest(ContestScenario::SkySurvey, 80_000, 3, 0.05).unwrap();
        let text = render_contest(&report);
        assert!(text.contains("dbtouch"));
        assert!(text.contains("sql"));
        assert!(text.contains("winner by time"));
    }

    #[test]
    fn scenario_builders() {
        assert_eq!(ContestScenario::Contest.name(), "contest");
        assert_eq!(ContestScenario::SkySurvey.build(1000, 1).rows(), 1000);
        assert_eq!(ContestScenario::Monitoring.build(1000, 1).rows(), 1000);
    }
}
