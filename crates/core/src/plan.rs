//! Touch planning: the gesture half of a session.
//!
//! A [`TouchPlanner`] turns raw touch samples into [`PlanStep`]s: it runs the
//! gesture recognizer and the kinematics, maps each touch to a tuple
//! identifier and an attribute (Section 2.4), skips a touch that addresses
//! the tuple the previous one did, and — for an interactive summary — picks
//! the sample level from the gesture speed and object size (Sections 2.5,
//! 2.6) and the row window the touch folds. It reads only the view and each
//! attribute's [`LevelShape`], never a value, so the kernel's
//! [`Session`](crate::session::Session) and a naive reference engine can fold
//! the very same plans.

use crate::adaptive::GranularityPolicy;
use crate::kernel::TouchAction;
use crate::mapping::TouchMapper;
use crate::result::{ResultKind, TouchResult};
use crate::session::{SessionStats, ASSUMED_NANOS_PER_ROW};
use dbtouch_gesture::kinematics::GestureKinematics;
use dbtouch_gesture::recognizer::{GestureEvent, GestureRecognizer};
use dbtouch_gesture::touch::TouchEvent;
use dbtouch_gesture::view::View;
use dbtouch_storage::sample::LevelShape;
use dbtouch_types::{DbTouchError, KernelConfig, Result, RowId, RowRange, Timestamp, Value};

/// What one touch that addresses data asks the fold for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TouchPlan {
    /// The touched tuple.
    pub row: RowId,
    /// The touched attribute.
    pub attribute: usize,
    /// Where the result appears, as a fraction of the object's extent.
    pub position_fraction: f64,
    /// When the touch happened.
    pub timestamp: Timestamp,
    /// The summary window, for a summary action only.
    pub summary: Option<SummaryWindow>,
}

/// The window one summary touch folds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryWindow {
    /// The sample level the gesture speed picked.
    pub level: u8,
    /// The full window, in rows of that level.
    pub window: RowRange,
    /// Its first rows up to the per-touch row cap: what the touch reads
    /// before the rest becomes a refinement.
    pub read: RowRange,
}

impl TouchPlan {
    /// The result this touch shows: `values`, in place at the touched row.
    pub fn result(&self, values: Vec<Value>, kind: ResultKind) -> TouchResult {
        TouchResult {
            row: self.row,
            position_fraction: self.position_fraction,
            values,
            produced_at: self.timestamp,
            kind,
        }
    }
}

impl SummaryWindow {
    /// Whether the window is over the row cap.
    pub fn capped(&self) -> bool {
        self.read.len() < self.window.len()
    }
}

/// One planned step of a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanStep {
    /// A touch that addresses a new tuple.
    Touch(TouchPlan),
    /// The slide paused: capped windows are folded in full now.
    Pause,
    /// A rotate gesture (the planner's view is already rotated).
    Rotate,
    /// A pinch, already applied to the planner's view.
    Pinch,
}

/// The gesture half of a session over one data object.
pub struct TouchPlanner {
    view: View,
    shapes: Vec<LevelShape>,
    recognizer: GestureRecognizer,
    kinematics: GestureKinematics,
    granularity: GranularityPolicy,
    /// The summary half-window, `None` unless the action is a summary.
    half_window: Option<u64>,
    /// Rows one touch reads before its summary window becomes a refinement.
    row_cap: u64,
    last_row: Option<RowId>,
}

impl TouchPlanner {
    /// A planner over `view`, for an object whose attribute `i` has sample
    /// levels of shape `shapes[i]`, running `action`.
    pub fn new(
        view: View,
        shapes: Vec<LevelShape>,
        action: &TouchAction,
        config: &KernelConfig,
    ) -> TouchPlanner {
        let half_window = match action {
            TouchAction::Summary { half_window, .. } => {
                Some(half_window.unwrap_or(config.summary_half_window))
            }
            _ => None,
        };
        TouchPlanner {
            view,
            shapes,
            recognizer: GestureRecognizer::default(),
            kinematics: GestureKinematics::default(),
            granularity: GranularityPolicy::new(config.clone()),
            half_window,
            row_cap: config.touch_budget_micros.saturating_mul(1000) / ASSUMED_NANOS_PER_ROW,
            last_row: None,
        }
    }

    /// The view as the gestures planned so far left it.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Observe one raw touch sample and return the gestures it completes.
    pub fn observe(&mut self, event: &TouchEvent, stats: &mut SessionStats) -> Vec<GestureEvent> {
        stats.touches += 1;
        self.kinematics.observe(event);
        let gestures = self.recognizer.feed(event);
        stats.gesture_events += gestures.len() as u64;
        gestures
    }

    /// Plan one recognized gesture; `None` when it asks nothing of the data.
    pub fn plan(
        &mut self,
        gesture: GestureEvent,
        stats: &mut SessionStats,
    ) -> Result<Option<PlanStep>> {
        Ok(match gesture {
            GestureEvent::Tap {
                location,
                timestamp,
            }
            | GestureEvent::SlideBegan {
                location,
                timestamp,
            }
            | GestureEvent::SlideStep {
                location,
                timestamp,
            } => {
                let Some((row, attribute)) =
                    TouchMapper::row_and_attribute_for_touch(&self.view, location)?
                else {
                    return Ok(None);
                };
                if self.last_row == Some(row) {
                    stats.duplicate_touches += 1;
                    return Ok(None);
                }
                self.last_row = Some(row);
                Some(PlanStep::Touch(TouchPlan {
                    row,
                    attribute,
                    position_fraction: TouchMapper::fraction_for_row(&self.view, row),
                    timestamp,
                    summary: self.summary_window(row, attribute, stats)?,
                }))
            }
            GestureEvent::SlidePaused { .. } => Some(PlanStep::Pause),
            GestureEvent::SlideEnded { .. } => {
                self.last_row = None;
                None
            }
            GestureEvent::Pinch { scale, .. } => {
                self.view = self.view.zoomed(scale)?;
                stats.zooms += 1;
                Some(PlanStep::Pinch)
            }
            GestureEvent::Rotate { .. } => {
                self.view = self.view.rotated();
                stats.rotations += 1;
                Some(PlanStep::Rotate)
            }
        })
    }

    /// An interactive summary (Section 2.7) scans "all entries within the
    /// tuple identifier range [id_p − k, id_p + k]", at the sample level the
    /// gesture speed picks.
    fn summary_window(
        &self,
        row: RowId,
        attribute: usize,
        stats: &mut SessionStats,
    ) -> Result<Option<SummaryWindow>> {
        let Some(half_window) = self.half_window else {
            return Ok(None);
        };
        let shape = *self
            .shapes
            .get(attribute)
            .ok_or_else(|| DbTouchError::NotFound(format!("attribute {attribute}")))?;
        let level = self
            .granularity
            .decide(&self.view, shape, self.kinematics.speed_cm_per_s())
            .sample_level;
        *stats.sample_level_usage.entry(level).or_insert(0) += 1;
        let center = shape.map_row(row, level)?;
        let window = RowRange::window(center, half_window, shape.level_len(level)?);
        let read = RowRange::new(window.start, window.start + window.len().min(self.row_cap));
        Ok(Some(SummaryWindow {
            level,
            window,
            read,
        }))
    }
}
