//! Parameter sweeps around the Figure 4 setup.
//!
//! The paper fixes the interactive-summary size ("10 data entries for each
//! summary") and the touch hardware (iPad 1). These sweeps vary the two
//! parameters the paper holds constant, to document how sensitive the headline
//! behaviour is to them:
//!
//! * [`sweep_summary_window`] — half-window `k` from 0 (point reads) to large
//!   windows: entries returned stay constant (they depend on touch input, not
//!   on `k`) while rows touched grow linearly with `k`.
//! * [`sweep_touch_rate`] — the device's touch sampling rate: entries returned
//!   grow roughly linearly with the rate until the touch-resolution limit of
//!   the object is reached.

use crate::figures::{build_kernel, FigureConfig};
use dbtouch_gesture::synthesizer::GestureSynthesizer;
use dbtouch_types::Result;
use serde::{Deserialize, Serialize};

/// One point of a parameter sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter value (half-window `k`, or touch rate in Hz).
    pub parameter: f64,
    /// Entries returned by a fixed 2-second top-to-bottom slide.
    pub entries_returned: u64,
    /// Rows read from storage during that slide.
    pub rows_touched: u64,
    /// Mean per-touch processing cost in nanoseconds.
    pub mean_touch_nanos: u64,
}

/// A completed sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// "summary_window" or "touch_rate".
    pub sweep: String,
    /// Data size used.
    pub rows: u64,
    /// The measured points.
    pub points: Vec<SweepPoint>,
}

fn run_slide(
    rows: u64,
    touch_rate_hz: f64,
    half_window: u64,
    slide_seconds: f64,
) -> Result<SweepPoint> {
    let (mut kernel, id) = build_kernel(&FigureConfig {
        rows,
        touch_rate_hz,
        summary_half_window: half_window,
        ..FigureConfig::default()
    })?;
    let view = kernel.view(id)?;
    let trace = GestureSynthesizer::new(touch_rate_hz).slide_down(&view, slide_seconds);
    let outcome = kernel.run_trace(id, &trace)?;
    Ok(SweepPoint {
        parameter: 0.0,
        entries_returned: outcome.stats.entries_returned,
        rows_touched: outcome.stats.rows_touched,
        mean_touch_nanos: outcome.stats.mean_touch_nanos(),
    })
}

/// Sweep the interactive-summary half-window `k` at a fixed 60 Hz, 2 s slide.
pub fn sweep_summary_window(rows: u64, half_windows: &[u64]) -> Result<SweepReport> {
    let ks: Vec<u64> = if half_windows.is_empty() {
        vec![0, 1, 2, 5, 10, 25, 50, 100]
    } else {
        half_windows.to_vec()
    };
    let mut points = Vec::with_capacity(ks.len());
    for &k in &ks {
        let mut p = run_slide(rows, 60.0, k, 2.0)?;
        p.parameter = k as f64;
        points.push(p);
    }
    Ok(SweepReport {
        sweep: "summary_window".to_string(),
        rows,
        points,
    })
}

/// Sweep the device touch sampling rate at a fixed `k = 5`, 2 s slide.
pub fn sweep_touch_rate(rows: u64, rates_hz: &[f64]) -> Result<SweepReport> {
    let rates: Vec<f64> = if rates_hz.is_empty() {
        vec![15.0, 30.0, 60.0, 120.0, 240.0]
    } else {
        rates_hz.to_vec()
    };
    let mut points = Vec::with_capacity(rates.len());
    for &hz in &rates {
        let mut p = run_slide(rows, hz, 5, 2.0)?;
        p.parameter = hz;
        points.push(p);
    }
    Ok(SweepReport {
        sweep: "touch_rate".to_string(),
        rows,
        points,
    })
}

/// Render a sweep as a plain-text table.
pub fn render_sweep(report: &SweepReport) -> String {
    let param_label = if report.sweep == "summary_window" {
        "half-window k"
    } else {
        "touch rate (Hz)"
    };
    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|p| {
            vec![
                crate::report::fmt_f64(p.parameter, 1),
                p.entries_returned.to_string(),
                crate::report::fmt_count(p.rows_touched),
                crate::report::fmt_count(p.mean_touch_nanos),
            ]
        })
        .collect();
    format!(
        "sweep: {} ({} rows, 2s slide)\n{}",
        report.sweep,
        crate::report::fmt_count(report.rows),
        crate::report::render_table(
            &[
                param_label,
                "# entries returned",
                "rows touched",
                "mean ns/touch"
            ],
            &rows,
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_window_sweep_scales_rows_not_entries() {
        let report = sweep_summary_window(200_000, &[0, 5, 50]).unwrap();
        assert_eq!(report.points.len(), 3);
        let entries: Vec<u64> = report.points.iter().map(|p| p.entries_returned).collect();
        // entries are driven by touch input, not by k (within a small tolerance)
        assert!(entries.iter().max().unwrap() - entries.iter().min().unwrap() <= 2);
        // rows touched grow with k
        assert!(report.points[2].rows_touched > 5 * report.points[0].rows_touched);
    }

    #[test]
    fn touch_rate_sweep_scales_entries() {
        let report = sweep_touch_rate(200_000, &[15.0, 60.0]).unwrap();
        assert!(report.points[1].entries_returned > 3 * report.points[0].entries_returned);
    }

    #[test]
    fn sweep_rendering() {
        let report = sweep_summary_window(50_000, &[0, 5]).unwrap();
        let text = render_sweep(&report);
        assert!(text.contains("half-window k"));
        assert_eq!(text.lines().count(), 5);
    }
}
