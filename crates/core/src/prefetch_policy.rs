//! Prefetching policy: extrapolating the gesture into the rows it will reach.
//!
//! Section 2.6 ("Prefetching Data"): when a slide pauses or slows down, dbTouch
//! should extrapolate the gesture progression and fetch the entries it expects
//! the gesture to reach, so they are warm when the gesture resumes or speeds up.
//!
//! [`plan`] consumes the same kinematics estimate the kernel keeps per session
//! and returns the row range the gesture is expected to reach next. Nothing on
//! the touch path issues fetches from it yet; `dbtouch-bench`'s ablation A2
//! replays gestures through it and counts how many later touches land inside
//! the planned ranges.

use crate::mapping::TouchMapper;
use dbtouch_gesture::kinematics::GestureKinematics;
use dbtouch_gesture::view::View;
use dbtouch_types::RowRange;

/// How many rows ahead of the gesture a plan reaches at most when it
/// extrapolates the gesture movement (Section 2.6 "Prefetching Data").
const HORIZON_ROWS: u64 = 4096;

/// Extrapolation horizon in seconds (how far ahead of the finger we look).
const LOOKAHEAD_S: f64 = 0.25;

/// Given the current kinematics and the touched row, compute the row range
/// the gesture is expected to reach next. Returns `None` when the object is
/// empty, the gesture is not moving, or extrapolation leaves the object.
pub fn plan(view: &View, kinematics: &GestureKinematics, current_row: u64) -> Option<RowRange> {
    if view.tuple_count == 0 {
        return None;
    }
    let predicted = kinematics.extrapolate(LOOKAHEAD_S)?;
    let predicted_row = TouchMapper::row_for_touch(view, predicted).ok()??;
    if predicted_row.0 == current_row {
        return None;
    }
    // Plan from the current position towards the predicted position, bounded
    // by the horizon.
    let range = if predicted_row.0 > current_row {
        let end = predicted_row
            .0
            .saturating_add(1)
            .min(current_row.saturating_add(HORIZON_ROWS).saturating_add(1))
            .min(view.tuple_count);
        RowRange::new(current_row + 1, end)
    } else {
        let start = predicted_row
            .0
            .max(current_row.saturating_sub(HORIZON_ROWS));
        RowRange::new(start, current_row)
    };
    (!range.is_empty()).then_some(range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtouch_gesture::touch::{TouchEvent, TouchPhase};
    use dbtouch_types::{PointCm, SizeCm, Timestamp};

    fn view() -> View {
        View::for_column("c", 1_000_000, SizeCm::new(2.0, 10.0)).unwrap()
    }

    fn moving_kinematics() -> GestureKinematics {
        let mut k = GestureKinematics::default();
        k.observe(&TouchEvent::new(
            PointCm::new(1.0, 2.0),
            Timestamp::from_millis(0),
            TouchPhase::Began,
        ));
        k.observe(&TouchEvent::new(
            PointCm::new(1.0, 2.5),
            Timestamp::from_millis(100),
            TouchPhase::Moved,
        ));
        k // 5 cm/s downward at y = 2.5
    }

    #[test]
    fn plans_forward_range_for_downward_slide() {
        let k = moving_kinematics();
        let current_row = 250_000; // y=2.5 of 10cm over 1M rows
        let range = plan(&view(), &k, current_row).unwrap();
        assert!(range.start > current_row);
        assert!(range.end > range.start);
        // bounded by the horizon
        assert!(range.len() <= HORIZON_ROWS + 1);
    }

    #[test]
    fn plans_backward_range_for_upward_slide() {
        let mut k = GestureKinematics::default();
        k.observe(&TouchEvent::new(
            PointCm::new(1.0, 5.0),
            Timestamp::from_millis(0),
            TouchPhase::Began,
        ));
        k.observe(&TouchEvent::new(
            PointCm::new(1.0, 4.5),
            Timestamp::from_millis(100),
            TouchPhase::Moved,
        ));
        let current_row = 450_000;
        let range = plan(&view(), &k, current_row).unwrap();
        assert!(range.end <= current_row);
        assert!(range.start < current_row);
    }

    #[test]
    fn no_plan_when_stationary() {
        let mut still = GestureKinematics::default();
        still.observe(&TouchEvent::new(
            PointCm::new(1.0, 2.0),
            Timestamp::ZERO,
            TouchPhase::Began,
        ));
        // single sample: no velocity -> extrapolates to the same row -> no plan
        assert!(plan(&view(), &still, 200_000).is_none());
    }

    #[test]
    fn no_plan_for_empty_object() {
        let empty = View::for_column("e", 0, SizeCm::new(2.0, 10.0)).unwrap();
        assert!(plan(&empty, &moving_kinematics(), 0).is_none());
    }
}
