//! Adaptive touch granularity and sample-level selection.
//!
//! Sections 2.5 and 2.6: the gesture speed and the object size together
//! determine how many tuples one touch should cover ("the slide speed
//! determines the granularity of the data observed"), and the kernel should
//! "depending on the object size and gesture speed feed from the proper copy
//! \[sample\], minimizing the auxiliary data reads".
//!
//! [`GranularityPolicy`] turns the observable quantities — object size, tuple
//! count, touch resolution, current gesture speed and sampling rate — into a
//! *stride*: the expected number of base rows between two consecutively touched
//! tuples. The stride then picks the sample level to read from.

use dbtouch_gesture::view::View;
use dbtouch_storage::sample::LevelShape;
use dbtouch_types::KernelConfig;
use serde::{Deserialize, Serialize};

/// The decision produced by the granularity policy for one touch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GranularityDecision {
    /// Expected number of base rows between consecutive touched tuples.
    pub stride_rows: u64,
    /// The sample level the kernel should read from (0 = base data).
    pub sample_level: u8,
    /// True if the decision came from the adaptive path (false = pinned to base
    /// data because adaptivity is disabled).
    pub adaptive: bool,
}

/// Chooses strides and sample levels from gesture dynamics and object geometry.
#[derive(Debug, Clone)]
pub struct GranularityPolicy {
    config: KernelConfig,
}

impl GranularityPolicy {
    /// Create a policy using the kernel configuration's resolution, sampling
    /// rate and adaptivity switches.
    pub fn new(config: KernelConfig) -> GranularityPolicy {
        GranularityPolicy { config }
    }

    /// The minimum stride imposed by physics: with a finite touch resolution,
    /// two adjacent distinguishable positions on the object are separated by
    /// this many rows regardless of speed.
    pub fn physical_stride(&self, view: &View) -> u64 {
        crate::mapping::TouchMapper::rows_per_touch_position(view, self.config.touch_resolution_cm)
    }

    /// The stride implied by the current gesture speed: a finger moving at
    /// `speed_cm_per_s` advances `speed / sample_rate` centimetres between two
    /// touch samples, which maps to this many rows of the object.
    pub fn speed_stride(&self, view: &View, speed_cm_per_s: f64) -> u64 {
        if view.tuple_count == 0 {
            return 1;
        }
        let extent = view.scroll_extent();
        if extent <= 0.0 || !speed_cm_per_s.is_finite() || speed_cm_per_s <= 0.0 {
            return 1;
        }
        let cm_per_sample = speed_cm_per_s / self.config.touch_sample_rate_hz;
        let rows_per_cm = view.tuple_count as f64 / extent;
        (cm_per_sample * rows_per_cm).round().max(1.0) as u64
    }

    /// Decide the stride and sample level for a touch given the current gesture
    /// speed. The stride is the larger of the physical stride and the speed
    /// stride; when adaptive sampling is disabled the sample level is pinned to
    /// base data.
    pub fn decide(
        &self,
        view: &View,
        shape: LevelShape,
        speed_cm_per_s: f64,
    ) -> GranularityDecision {
        let stride = self
            .physical_stride(view)
            .max(self.speed_stride(view, speed_cm_per_s));
        if !self.config.adaptive_sampling {
            return GranularityDecision {
                stride_rows: stride,
                sample_level: 0,
                adaptive: false,
            };
        }
        GranularityDecision {
            stride_rows: stride,
            sample_level: shape.level_for_stride(stride),
            adaptive: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtouch_storage::column::Column;
    use dbtouch_storage::sample::SampleHierarchy;
    use dbtouch_types::SizeCm;

    fn view(tuples: u64) -> View {
        View::for_column("c", tuples, SizeCm::new(2.0, 10.0)).unwrap()
    }

    fn shape(rows: u64) -> LevelShape {
        SampleHierarchy::build(Column::from_i64("c", (0..rows as i64).collect()), 10)
            .unwrap()
            .shape()
    }

    #[test]
    fn physical_stride_from_resolution() {
        let p = GranularityPolicy::new(KernelConfig::default());
        // 10cm / 0.05cm = 200 positions over 1M rows -> 5000 rows per position
        assert_eq!(p.physical_stride(&view(1_000_000)), 5_000);
        // zooming in halves the stride
        let zoomed = view(1_000_000).zoomed(2.0).unwrap();
        assert_eq!(p.physical_stride(&zoomed), 2_500);
    }

    #[test]
    fn speed_stride_scales_with_speed() {
        let p = GranularityPolicy::new(KernelConfig::default());
        let v = view(1_000_000);
        // 10 cm/s at 60Hz -> 1/6 cm per sample -> ~16667 rows
        let fast = p.speed_stride(&v, 10.0);
        let slow = p.speed_stride(&v, 2.0);
        assert!(fast > slow);
        assert!((fast as i64 - 16_667).abs() <= 1);
        assert!((slow as i64 - 3_333).abs() <= 1);
        // zero, negative or NaN speeds degrade to stride 1
        assert_eq!(p.speed_stride(&v, 0.0), 1);
        assert_eq!(p.speed_stride(&v, -3.0), 1);
        assert_eq!(p.speed_stride(&v, f64::NAN), 1);
    }

    #[test]
    fn decision_takes_max_of_both_strides() {
        let p = GranularityPolicy::new(KernelConfig::default());
        let v = view(100_000);
        let h = shape(100_000);
        // slow gesture: physical stride dominates (100k/200 = 500)
        let slow = p.decide(&v, h, 0.5);
        assert_eq!(slow.stride_rows, 500);
        // very fast gesture: speed stride dominates
        let fast = p.decide(&v, h, 50.0);
        assert!(fast.stride_rows > slow.stride_rows);
        assert!(fast.sample_level >= slow.sample_level);
        assert!(fast.adaptive);
    }

    #[test]
    fn adaptive_disabled_pins_base_level() {
        let p = GranularityPolicy::new(KernelConfig::naive());
        let v = view(1_000_000);
        let h = shape(100_000);
        let d = p.decide(&v, h, 20.0);
        assert_eq!(d.sample_level, 0);
        assert!(!d.adaptive);
        assert!(d.stride_rows > 1);
    }

    #[test]
    fn tiny_object_stride_is_one() {
        let p = GranularityPolicy::new(KernelConfig::default());
        let v = view(50);
        let h = shape(50);
        let d = p.decide(&v, h, 1.0);
        assert_eq!(d.stride_rows, 1);
        assert_eq!(d.sample_level, 0);
    }

    #[test]
    fn empty_object_safe() {
        let p = GranularityPolicy::new(KernelConfig::default());
        let v = view(0);
        assert_eq!(p.speed_stride(&v, 10.0), 1);
    }
}
