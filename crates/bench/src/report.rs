//! What every `dbtouch-bench` subcommand prints: aligned plain-text tables
//! for people, and one machine-readable result line — the same
//! `{correct, attempted, failed, metrics}` shape `touch_budget` ends with.

/// The verdict of one subcommand run: how many checks it made (digest
/// comparisons, shape checks, gates), how many failed, and the numbers it
/// measured, each with a name and a unit.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// `(name, value, unit)` of every reported number, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Verdict {
    /// Record one check.
    pub fn check(&mut self, held: bool) {
        self.attempted += 1;
        self.failed += u64::from(!held);
    }

    /// Record one measured number.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// True when at least one check ran and none failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line (one line of JSON, the last thing a subcommand writes
    /// to stdout).
    pub fn line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a metric without a finite
                // value is a harness bug worth a loud number.
                let value = if value.is_finite() { *value } else { f64::MAX };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Render an aligned plain-text table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{:<width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&render_row(&sep, &widths));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format a float with a fixed number of decimals.
pub fn fmt_f64(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Format a large count with thousands separators.
pub fn fmt_count(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().rev().enumerate() {
        if i > 0 && i % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out.chars().rev().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtouch_types::json::Json;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "metric"],
            &[
                vec!["1".to_string(), "10".to_string()],
                vec!["200".to_string(), "3".to_string()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // all lines have equal width
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("metric"));
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(10_000_000), "10,000,000");
    }

    #[test]
    fn verdict_line_is_one_json_object_with_the_four_keys() {
        let mut verdict = Verdict::default();
        assert!(!verdict.correct(), "no check ran, so nothing is proven");
        verdict.check(true);
        assert!(verdict.correct());
        verdict.check(false);
        verdict.metric("speedup[4]", 2.5, "x");
        verdict.metric("unmeasured", f64::NAN, "us");
        let line = verdict.line();
        assert_eq!(line.lines().count(), 1);
        let doc = dbtouch_types::json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        let metrics = doc.get("metrics").unwrap();
        let speedup = metrics.get("speedup[4]").unwrap();
        assert_eq!(speedup.get("value").and_then(Json::as_f64), Some(2.5));
        assert_eq!(speedup.get("unit").and_then(Json::as_str), Some("x"));
        assert!(metrics.get("unmeasured").is_some());
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(2.0, 1), "2.0");
    }
}
