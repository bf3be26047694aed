//! Prefetching policy: extrapolating the gesture into prefetch requests.
//!
//! Section 2.6 ("Prefetching Data"): when a slide pauses or slows down, dbTouch
//! should extrapolate the gesture progression and fetch the entries it expects
//! the gesture to reach, so they are warm when the gesture resumes or speeds up.
//!
//! The policy consumes the same kinematics estimate the kernel keeps per
//! session and emits row ranges for the storage-level [`Prefetcher`].

use crate::mapping::TouchMapper;
use dbtouch_gesture::kinematics::GestureKinematics;
use dbtouch_gesture::view::View;
use dbtouch_storage::prefetch::Prefetcher;
use dbtouch_types::{KernelConfig, RowRange};

/// How many rows ahead of the gesture the prefetcher fetches when it
/// extrapolates the gesture movement (Section 2.6 "Prefetching Data").
const PREFETCH_HORIZON_ROWS: u64 = 4096;

/// Turns gesture kinematics into prefetch requests.
#[derive(Debug, Clone)]
pub struct PrefetchPolicy {
    horizon_rows: u64,
    enabled: bool,
    /// Extrapolation horizon in seconds (how far ahead of the finger we look).
    lookahead_s: f64,
}

impl PrefetchPolicy {
    /// Build the policy from the kernel configuration.
    pub fn new(config: &KernelConfig) -> PrefetchPolicy {
        PrefetchPolicy {
            horizon_rows: PREFETCH_HORIZON_ROWS,
            enabled: config.prefetch_enabled,
            lookahead_s: 0.25,
        }
    }

    /// Whether the policy issues prefetches at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Given the current kinematics and the touched row, compute the row range
    /// the gesture is expected to reach next. Returns `None` when prefetching
    /// is disabled, the gesture is not moving, or extrapolation leaves the
    /// object.
    pub fn plan(
        &self,
        view: &View,
        kinematics: &GestureKinematics,
        current_row: u64,
    ) -> Option<RowRange> {
        if !self.enabled || view.tuple_count == 0 {
            return None;
        }
        let predicted = kinematics.extrapolate(self.lookahead_s)?;
        let predicted_row = TouchMapper::row_for_touch(view, predicted).ok()??;
        if predicted_row.0 == current_row {
            return None;
        }
        // Prefetch from the current position towards the predicted position,
        // bounded by the configured horizon.
        let range = if predicted_row.0 > current_row {
            let end = predicted_row
                .0
                .saturating_add(1)
                .min(
                    current_row
                        .saturating_add(self.horizon_rows)
                        .saturating_add(1),
                )
                .min(view.tuple_count);
            RowRange::new(current_row + 1, end)
        } else {
            let start = predicted_row
                .0
                .max(current_row.saturating_sub(self.horizon_rows));
            RowRange::new(start, current_row)
        };
        (!range.is_empty()).then_some(range)
    }

    /// Plan and, if a range was produced, submit it to the storage prefetcher.
    pub fn plan_and_submit(
        &self,
        view: &View,
        kinematics: &GestureKinematics,
        current_row: u64,
        prefetcher: &mut Prefetcher,
    ) -> Option<RowRange> {
        let range = self.plan(view, kinematics, current_row)?;
        prefetcher.prefetch(range);
        Some(range)
    }
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
        let policy = PrefetchPolicy::new(&KernelConfig::default());
        let k = moving_kinematics();
        let current_row = 250_000; // y=2.5 of 10cm over 1M rows
        let range = policy.plan(&view(), &k, current_row).unwrap();
        assert!(range.start > current_row);
        assert!(range.end > range.start);
        // bounded by the horizon
        assert!(range.len() <= PREFETCH_HORIZON_ROWS + 1);
    }

    #[test]
    fn plans_backward_range_for_upward_slide() {
        let policy = PrefetchPolicy::new(&KernelConfig::default());
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
        let range = policy.plan(&view(), &k, current_row).unwrap();
        assert!(range.end <= current_row);
        assert!(range.start < current_row);
    }

    #[test]
    fn no_plan_when_disabled_or_stationary() {
        let disabled = PrefetchPolicy::new(&KernelConfig::naive());
        assert!(!disabled.is_enabled());
        assert!(disabled
            .plan(&view(), &moving_kinematics(), 250_000)
            .is_none());

        let policy = PrefetchPolicy::new(&KernelConfig::default());
        let mut still = GestureKinematics::default();
        still.observe(&TouchEvent::new(
            PointCm::new(1.0, 2.0),
            Timestamp::ZERO,
            TouchPhase::Began,
        ));
        // single sample: no velocity -> extrapolates to the same row -> no plan
        assert!(policy.plan(&view(), &still, 200_000).is_none());
    }

    #[test]
    fn no_plan_for_empty_object() {
        let policy = PrefetchPolicy::new(&KernelConfig::default());
        let empty = View::for_column("e", 0, SizeCm::new(2.0, 10.0)).unwrap();
        assert!(policy.plan(&empty, &moving_kinematics(), 0).is_none());
    }

    #[test]
    fn submit_records_request_in_prefetcher() {
        let policy = PrefetchPolicy::new(&KernelConfig::default());
        let mut prefetcher = Prefetcher::new(8);
        let range = policy
            .plan_and_submit(&view(), &moving_kinematics(), 250_000, &mut prefetcher)
            .unwrap();
        assert_eq!(prefetcher.stats().requests, 1);
        assert_eq!(prefetcher.stats().rows_prefetched, range.len());
    }
}
