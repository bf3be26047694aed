//! Figure 4(a) and Figure 4(b) reproduction.
//!
//! Paper setup (Section 3, "Evaluation"): a vertical rectangle object
//! representing a column of 10^7 integer values, 10 centimetres tall. The query
//! is interactive summaries with an average aggregation and ~10 data entries per
//! summary.
//!
//! * **Figure 4(a)** — the slide gesture is applied top-to-bottom three times,
//!   each time completed at a different speed; the measurement is the number of
//!   data entries that appear (results returned). Slower gestures register more
//!   touch input and therefore return more entries.
//! * **Figure 4(b)** — a zoom-in gesture progressively doubles the object size;
//!   for each size a slide of the same *speed* is applied (so it takes twice as
//!   long on a twice-as-big object); the measurement is again the number of
//!   entries returned, which grows with the object size.
//!
//! We do not try to match the absolute counts of the 2012 iPad 1 (its touch
//! delivery rate while doing work was far below 60 Hz); the README's "Paper
//! experiment harnesses" section gives the commands for both a 60 Hz run and a
//! 15 Hz run, and the *shape* (roughly linear growth) is the reproduction
//! target.

use dbtouch_core::kernel::{Kernel, TouchAction};
use dbtouch_core::operators::aggregate::AggregateKind;
use dbtouch_gesture::synthesizer::GestureSynthesizer;
use dbtouch_types::{KernelConfig, Result, SizeCm};
use serde::{Deserialize, Serialize};

/// Configuration of a Figure 4 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureConfig {
    /// Number of integer values in the column (the paper uses 10^7).
    pub rows: u64,
    /// Height of the data object in centimetres (the paper uses 10).
    pub object_height_cm: f64,
    /// Touch sampling rate of the simulated device, in Hz.
    pub touch_rate_hz: f64,
    /// Half-window of the interactive summary (the paper uses ~10 entries per
    /// summary, i.e. a half-window of 5).
    pub summary_half_window: u64,
}

impl Default for FigureConfig {
    fn default() -> Self {
        FigureConfig {
            rows: 10_000_000,
            object_height_cm: 10.0,
            touch_rate_hz: 60.0,
            summary_half_window: 5,
        }
    }
}

impl FigureConfig {
    /// A reduced-scale configuration for tests.
    pub fn small() -> FigureConfig {
        FigureConfig {
            rows: 200_000,
            ..FigureConfig::default()
        }
    }

    /// A configuration approximating the iPad 1's effective touch delivery rate.
    pub fn ipad_like() -> FigureConfig {
        FigureConfig {
            touch_rate_hz: 15.0,
            ..FigureConfig::default()
        }
    }
}

/// One measured point of a Figure 4 series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Figure4Point {
    /// The x value: gesture completion time in seconds (4a) or object size in
    /// centimetres (4b).
    pub x: f64,
    /// Data entries returned (result values that appeared).
    pub entries_returned: u64,
    /// Rows read from storage to produce those entries.
    pub rows_touched: u64,
    /// Which sample level served most touches.
    pub dominant_sample_level: u8,
}

/// A full Figure 4 series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure4Report {
    /// "fig4a" or "fig4b".
    pub figure: String,
    /// The configuration used.
    pub config: FigureConfig,
    /// The measured points.
    pub points: Vec<Figure4Point>,
}

pub(crate) fn build_kernel(
    config: &FigureConfig,
) -> Result<(Kernel, dbtouch_core::kernel::ObjectId)> {
    let kernel_config = KernelConfig::figure4()
        .with_touch_sample_rate(config.touch_rate_hz)
        .with_summary_half_window(config.summary_half_window);
    let mut kernel = Kernel::new(kernel_config);
    let values: Vec<i64> = (0..config.rows as i64).collect();
    let id = kernel.load_column(
        "figure4_column",
        values,
        SizeCm::new(2.0, config.object_height_cm),
    )?;
    kernel.set_action(
        id,
        TouchAction::Summary {
            half_window: Some(config.summary_half_window),
            kind: AggregateKind::Avg,
        },
    )?;
    Ok((kernel, id))
}

/// Run Figure 4(a): vary the gesture completion time, measure entries returned.
/// `gesture_seconds` defaults to the paper's 0.5–4 s sweep when empty.
pub fn run_figure4a(config: &FigureConfig, gesture_seconds: &[f64]) -> Result<Figure4Report> {
    let durations: Vec<f64> = if gesture_seconds.is_empty() {
        vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    } else {
        gesture_seconds.to_vec()
    };
    let (mut kernel, id) = build_kernel(config)?;
    let mut synthesizer = GestureSynthesizer::new(config.touch_rate_hz);
    let mut points = Vec::with_capacity(durations.len());
    for &secs in &durations {
        let view = kernel.view(id)?;
        let trace = synthesizer.slide_down(&view, secs);
        let outcome = kernel.run_trace(id, &trace)?;
        points.push(Figure4Point {
            x: secs,
            entries_returned: outcome.stats.entries_returned,
            rows_touched: outcome.stats.rows_touched,
            dominant_sample_level: dominant_level(&outcome.stats.sample_level_usage),
        });
    }
    Ok(Figure4Report {
        figure: "fig4a".to_string(),
        config: config.clone(),
        points,
    })
}

/// Run Figure 4(b): progressively double the object size via zoom-in gestures;
/// slide at a constant speed (so the slide duration doubles with the size) and
/// measure entries returned. `doublings` is the number of zoom-in steps.
pub fn run_figure4b(config: &FigureConfig, doublings: u32) -> Result<Figure4Report> {
    let (mut kernel, id) = build_kernel(config)?;
    let mut synthesizer = GestureSynthesizer::new(config.touch_rate_hz);
    // Constant slide speed chosen so the initial object takes ~1.5s to traverse,
    // mirroring the paper's "same speed, double the time for double the size".
    let speed_cm_per_s = config.object_height_cm / 1.5;
    let mut points = Vec::new();
    for step in 0..=doublings {
        let view = kernel.view(id)?;
        let height = view.scroll_extent();
        let secs = height / speed_cm_per_s;
        let trace = synthesizer.slide_down(&view, secs);
        let outcome = kernel.run_trace(id, &trace)?;
        points.push(Figure4Point {
            x: height,
            entries_returned: outcome.stats.entries_returned,
            rows_touched: outcome.stats.rows_touched,
            dominant_sample_level: dominant_level(&outcome.stats.sample_level_usage),
        });
        if step < doublings {
            // Apply the zoom-in gesture through the normal gesture path.
            let pinch = synthesizer.pinch(&view, 2.0, 0.4);
            kernel.run_trace(id, &pinch)?;
        }
    }
    Ok(Figure4Report {
        figure: "fig4b".to_string(),
        config: config.clone(),
        points,
    })
}

fn dominant_level(usage: &std::collections::BTreeMap<u8, u64>) -> u8 {
    usage
        .iter()
        .max_by_key(|(_, count)| **count)
        .map(|(level, _)| *level)
        .unwrap_or(0)
}

/// Render a Figure 4 report as the table printed by the binaries.
pub fn render_report(report: &Figure4Report) -> String {
    let x_label = if report.figure == "fig4a" {
        "gesture time (s)"
    } else {
        "object size (cm)"
    };
    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|p| {
            vec![
                crate::report::fmt_f64(p.x, 2),
                p.entries_returned.to_string(),
                crate::report::fmt_count(p.rows_touched),
                p.dominant_sample_level.to_string(),
            ]
        })
        .collect();
    format!(
        "{} (rows={}, {} Hz touch rate)\n{}",
        report.figure,
        crate::report::fmt_count(report.config.rows),
        report.config.touch_rate_hz,
        crate::report::render_table(
            &[
                x_label,
                "# entries returned",
                "rows touched",
                "sample level"
            ],
            &rows,
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4a_entries_grow_with_slower_gestures() {
        let report = run_figure4a(&FigureConfig::small(), &[0.5, 1.0, 2.0, 4.0]).unwrap();
        assert_eq!(report.points.len(), 4);
        for pair in report.points.windows(2) {
            assert!(
                pair[1].entries_returned > pair[0].entries_returned,
                "expected monotone growth, got {:?}",
                report.points
            );
        }
        // roughly linear in duration: 4s returns ~8x what 0.5s returns (±40%)
        let ratio = report.points[3].entries_returned as f64
            / report.points[0].entries_returned.max(1) as f64;
        assert!(ratio > 4.5 && ratio < 12.0, "ratio {ratio}");
    }

    #[test]
    fn figure4b_entries_grow_with_object_size() {
        let report = run_figure4b(&FigureConfig::small(), 3).unwrap();
        assert_eq!(report.points.len(), 4);
        for pair in report.points.windows(2) {
            assert!(pair[1].x > pair[0].x);
            assert!(pair[1].entries_returned > pair[0].entries_returned);
        }
        // doubling the size roughly doubles the entries
        let ratio = report.points[1].entries_returned as f64
            / report.points[0].entries_returned.max(1) as f64;
        assert!(ratio > 1.5 && ratio < 2.8, "ratio {ratio}");
    }

    #[test]
    fn higher_touch_rate_returns_more_entries() {
        let slow_device = FigureConfig {
            touch_rate_hz: 15.0,
            ..FigureConfig::small()
        };
        let fast_device = FigureConfig {
            touch_rate_hz: 60.0,
            ..FigureConfig::small()
        };
        let slow = run_figure4a(&slow_device, &[2.0]).unwrap();
        let fast = run_figure4a(&fast_device, &[2.0]).unwrap();
        assert!(fast.points[0].entries_returned > 2 * slow.points[0].entries_returned);
    }

    #[test]
    fn report_rendering_contains_all_points() {
        let report = run_figure4a(&FigureConfig::small(), &[1.0, 2.0]).unwrap();
        let text = render_report(&report);
        assert!(text.contains("fig4a"));
        assert!(text.contains("gesture time"));
        assert_eq!(text.lines().count(), 5); // title + header + separator + 2 rows
    }
}
