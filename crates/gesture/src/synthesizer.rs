//! Gesture synthesis: generating realistic touch traces.
//!
//! The paper's evaluation is driven by a human finger on an iPad. In this
//! reproduction the finger is replaced by the [`GestureSynthesizer`], which
//! emits touch traces with the same observable characteristics:
//!
//! * samples arrive at a fixed rate (60 Hz by default, like iOS),
//! * a slide covers a start-to-end path over the view at a controllable speed,
//!   possibly with pauses, speed changes and direction reversals,
//! * pinch and rotate gestures use two fingers.
//!
//! Because the kernel only ever sees `(location, timestamp, phase)` tuples, a
//! synthesized trace exercises exactly the same code paths as a physical
//! gesture; the number of entries processed in Figure 4 is a function of the
//! sampling rate, the gesture duration and the object size — all of which are
//! explicit parameters here.

use crate::touch::{TouchEvent, TouchPhase};
use crate::trace::GestureTrace;
use crate::view::View;
use dbtouch_types::{PointCm, Timestamp};

/// One segment of a slide: move from `from_fraction` to `to_fraction` of the
/// view's scroll extent over `duration_s` seconds. Equal fractions produce a
/// pause of the given duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlideSegment {
    /// Starting position as a fraction of the scroll extent in `[0, 1]`.
    pub from_fraction: f64,
    /// Ending position as a fraction of the scroll extent in `[0, 1]`.
    pub to_fraction: f64,
    /// Duration of the segment in seconds.
    pub duration_s: f64,
}

impl SlideSegment {
    /// A movement segment.
    pub fn movement(from_fraction: f64, to_fraction: f64, duration_s: f64) -> SlideSegment {
        SlideSegment {
            from_fraction,
            to_fraction,
            duration_s,
        }
    }

    /// A pause at a position.
    pub fn pause(at_fraction: f64, duration_s: f64) -> SlideSegment {
        SlideSegment {
            from_fraction: at_fraction,
            to_fraction: at_fraction,
            duration_s,
        }
    }
}

/// Synthesizes touch traces at a fixed sampling rate.
///
/// ```
/// use dbtouch_gesture::synthesizer::GestureSynthesizer;
/// use dbtouch_gesture::view::View;
/// use dbtouch_types::SizeCm;
///
/// let view = View::for_column("col", 10_000_000, SizeCm::new(2.0, 10.0)).unwrap();
/// let mut synthesizer = GestureSynthesizer::new(60.0);
/// // A two-second top-to-bottom slide registers ~120 touch samples.
/// let trace = synthesizer.slide_down(&view, 2.0);
/// assert!(trace.validate().is_ok());
/// assert!((trace.len() as i64 - 122).abs() < 10);
/// ```
#[derive(Debug, Clone)]
pub struct GestureSynthesizer {
    sample_rate_hz: f64,
}

impl GestureSynthesizer {
    /// Create a synthesizer sampling at `sample_rate_hz` events per second.
    /// Rates that are not finite and positive fall back to 60 Hz.
    pub fn new(sample_rate_hz: f64) -> GestureSynthesizer {
        let rate = if sample_rate_hz.is_finite() && sample_rate_hz > 0.0 {
            sample_rate_hz
        } else {
            60.0
        };
        GestureSynthesizer {
            sample_rate_hz: rate,
        }
    }

    /// The sampling rate in Hz.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// Interval between samples in milliseconds (at least 1).
    fn sample_interval_ms(&self) -> u64 {
        ((1000.0 / self.sample_rate_hz).round() as u64).max(1)
    }

    /// Position in view-local coordinates for a given fraction of the scroll
    /// extent; the cross-axis coordinate is the middle of the view.
    fn position_at_fraction(view: &View, fraction: f64) -> PointCm {
        let fraction = fraction.clamp(0.0, 1.0);
        let along = view.scroll_extent() * fraction;
        let across = view.cross_extent() / 2.0;
        match view.orientation {
            dbtouch_types::Orientation::Vertical => PointCm::new(across, along),
            dbtouch_types::Orientation::Horizontal => PointCm::new(along, across),
        }
    }

    /// A single tap at a fraction of the scroll extent.
    pub fn tap(&mut self, view: &View, at_fraction: f64) -> GestureTrace {
        self.tap_at(view, at_fraction, Timestamp::ZERO)
    }

    /// A single tap starting at `start` (for chaining gestures into sessions).
    pub fn tap_at(&mut self, view: &View, at_fraction: f64, start: Timestamp) -> GestureTrace {
        let p = Self::position_at_fraction(view, at_fraction);
        let mut trace = GestureTrace::new(view.name.clone());
        trace.push(TouchEvent::new(p, start, TouchPhase::Began));
        trace.push(TouchEvent::new(
            p,
            start + std::time::Duration::from_millis(60),
            TouchPhase::Ended,
        ));
        trace
    }

    /// A steady slide from the top of the object to the bottom (or left to
    /// right for horizontal objects) taking `duration_s` seconds. This is the
    /// gesture of the paper's Figure 4(a): varying `duration_s` varies the
    /// gesture speed.
    pub fn slide_down(&mut self, view: &View, duration_s: f64) -> GestureTrace {
        self.slide(view, 0.0, 1.0, duration_s)
    }

    /// A steady slide between two fractions of the scroll extent.
    pub fn slide(
        &mut self,
        view: &View,
        from_fraction: f64,
        to_fraction: f64,
        duration_s: f64,
    ) -> GestureTrace {
        self.slide_profile(
            view,
            &[SlideSegment::movement(
                from_fraction,
                to_fraction,
                duration_s,
            )],
            Timestamp::ZERO,
        )
    }

    /// A slide following an arbitrary profile of movement and pause segments,
    /// starting at time `start`. Segments are executed back to back with one
    /// continuous finger contact.
    pub fn slide_profile(
        &mut self,
        view: &View,
        segments: &[SlideSegment],
        start: Timestamp,
    ) -> GestureTrace {
        let mut trace = GestureTrace::new(view.name.clone());
        if segments.is_empty() {
            return trace;
        }
        let interval = self.sample_interval_ms();
        let mut now_ms = start.as_millis();
        let mut last_point = Self::position_at_fraction(view, segments[0].from_fraction);
        trace.push(TouchEvent::new(
            last_point,
            Timestamp::from_millis(now_ms),
            TouchPhase::Began,
        ));
        for seg in segments {
            let duration_ms = (seg.duration_s.max(0.0) * 1000.0).round() as u64;
            let steps = duration_ms / interval;
            let from = Self::position_at_fraction(view, seg.from_fraction);
            let to = Self::position_at_fraction(view, seg.to_fraction);
            for step in 1..=steps {
                now_ms += interval;
                let t = step as f64 / steps.max(1) as f64;
                let p = from.lerp(&to, t);
                let phase = if p.distance(&last_point) < 1e-9 {
                    TouchPhase::Stationary
                } else {
                    TouchPhase::Moved
                };
                trace.push(TouchEvent::new(p, Timestamp::from_millis(now_ms), phase));
                last_point = p;
            }
        }
        now_ms += interval;
        trace.push(TouchEvent::new(
            last_point,
            Timestamp::from_millis(now_ms),
            TouchPhase::Ended,
        ));
        trace
    }

    /// A slide that starts fast, pauses in the middle to inspect an interesting
    /// area, backtracks slightly, and then continues to the end. A convenient
    /// canned profile for the prefetching/caching experiments.
    pub fn exploratory_slide(&mut self, view: &View, total_duration_s: f64) -> GestureTrace {
        let d = total_duration_s.max(0.4);
        self.slide_profile(
            view,
            &[
                SlideSegment::movement(0.0, 0.55, d * 0.3),
                SlideSegment::pause(0.55, d * 0.2),
                SlideSegment::movement(0.55, 0.45, d * 0.15),
                SlideSegment::movement(0.45, 1.0, d * 0.35),
            ],
            Timestamp::ZERO,
        )
    }

    /// A two-finger pinch centred on the view. `scale > 1` spreads the fingers
    /// apart (zoom-in); `scale < 1` brings them together (zoom-out).
    pub fn pinch(&mut self, view: &View, scale: f64, duration_s: f64) -> GestureTrace {
        let center = PointCm::new(view.cross_extent() / 2.0, view.scroll_extent() / 2.0);
        let center = match view.orientation {
            dbtouch_types::Orientation::Vertical => center,
            dbtouch_types::Orientation::Horizontal => PointCm::new(center.y, center.x),
        };
        let scale = if scale.is_finite() && scale > 0.0 {
            scale
        } else {
            1.0
        };
        let start_half = 1.0_f64.min(view.scroll_extent() / 4.0).max(0.2);
        let end_half = start_half * scale;
        let interval = self.sample_interval_ms();
        let duration_ms = (duration_s.max(0.1) * 1000.0).round() as u64;
        let steps = (duration_ms / interval).max(1);

        let mut trace = GestureTrace::new(view.name.clone());
        let f0 = |half: f64| PointCm::new(center.x, center.y - half);
        let f1 = |half: f64| PointCm::new(center.x, center.y + half);
        trace.push(TouchEvent::new(
            f0(start_half),
            Timestamp::ZERO,
            TouchPhase::Began,
        ));
        trace.push(
            TouchEvent::new(f1(start_half), Timestamp::ZERO, TouchPhase::Began).with_finger(1),
        );
        let mut now_ms = 0;
        for step in 1..=steps {
            now_ms += interval;
            let t = step as f64 / steps as f64;
            let half = start_half + (end_half - start_half) * t;
            let ts = Timestamp::from_millis(now_ms);
            trace.push(TouchEvent::new(f0(half), ts, TouchPhase::Moved));
            trace.push(TouchEvent::new(f1(half), ts, TouchPhase::Moved).with_finger(1));
        }
        now_ms += interval;
        let ts = Timestamp::from_millis(now_ms);
        trace.push(TouchEvent::new(f0(end_half), ts, TouchPhase::Ended));
        trace.push(TouchEvent::new(f1(end_half), ts, TouchPhase::Ended).with_finger(1));
        trace
    }

    /// A two-finger rotation of roughly a quarter turn over the view, used to
    /// flip the physical layout (Section 2.8).
    pub fn rotate(&mut self, view: &View, clockwise: bool, duration_s: f64) -> GestureTrace {
        let center = PointCm::new(view.cross_extent() / 2.0, view.scroll_extent() / 2.0);
        let center = match view.orientation {
            dbtouch_types::Orientation::Vertical => center,
            dbtouch_types::Orientation::Horizontal => PointCm::new(center.y, center.x),
        };
        let radius = 1.0_f64.min(view.scroll_extent() / 4.0).max(0.2);
        let interval = self.sample_interval_ms();
        let duration_ms = (duration_s.max(0.1) * 1000.0).round() as u64;
        let steps = (duration_ms / interval).max(1);
        let total_angle = if clockwise {
            std::f64::consts::FRAC_PI_2
        } else {
            -std::f64::consts::FRAC_PI_2
        };

        let at_angle = |theta: f64, opposite: bool| {
            let theta = if opposite {
                theta + std::f64::consts::PI
            } else {
                theta
            };
            PointCm::new(
                center.x + radius * theta.cos(),
                center.y + radius * theta.sin(),
            )
        };

        let mut trace = GestureTrace::new(view.name.clone());
        trace.push(TouchEvent::new(
            at_angle(0.0, false),
            Timestamp::ZERO,
            TouchPhase::Began,
        ));
        trace.push(
            TouchEvent::new(at_angle(0.0, true), Timestamp::ZERO, TouchPhase::Began).with_finger(1),
        );
        let mut now_ms = 0;
        for step in 1..=steps {
            now_ms += interval;
            let t = step as f64 / steps as f64;
            let theta = total_angle * t;
            let ts = Timestamp::from_millis(now_ms);
            trace.push(TouchEvent::new(
                at_angle(theta, false),
                ts,
                TouchPhase::Moved,
            ));
            trace
                .push(TouchEvent::new(at_angle(theta, true), ts, TouchPhase::Moved).with_finger(1));
        }
        now_ms += interval;
        let ts = Timestamp::from_millis(now_ms);
        trace.push(TouchEvent::new(
            at_angle(total_angle, false),
            ts,
            TouchPhase::Ended,
        ));
        trace.push(
            TouchEvent::new(at_angle(total_angle, true), ts, TouchPhase::Ended).with_finger(1),
        );
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recognizer::{GestureEvent, GestureRecognizer};
    use dbtouch_types::SizeCm;

    fn view() -> View {
        View::for_column("col", 10_000_000, SizeCm::new(2.0, 10.0)).unwrap()
    }

    #[test]
    fn slide_sample_count_scales_with_duration() {
        let mut s = GestureSynthesizer::new(60.0);
        let fast = s.slide_down(&view(), 0.5);
        let slow = s.slide_down(&view(), 4.0);
        assert!(slow.len() > fast.len() * 6);
        // ~60 samples/second plus began/ended bookkeeping
        assert!((fast.len() as i64 - 32).abs() <= 4);
        assert!((slow.len() as i64 - 242).abs() <= 10);
    }

    #[test]
    fn slide_traces_are_valid_and_cover_the_object() {
        let mut s = GestureSynthesizer::new(60.0);
        let t = s.slide_down(&view(), 2.0);
        assert!(t.validate().is_ok());
        let first = t.events.first().unwrap().location;
        let last = t.events.last().unwrap().location;
        assert!(first.y.abs() < 1e-9);
        assert!((last.y - 10.0).abs() < 1e-9);
        // x stays within the view
        assert!(t
            .events
            .iter()
            .all(|e| e.location.x >= 0.0 && e.location.x <= 2.0));
    }

    #[test]
    fn slide_duration_matches_request() {
        let mut s = GestureSynthesizer::new(60.0);
        let t = s.slide_down(&view(), 2.0);
        let secs = t.duration().as_secs_f64();
        assert!((secs - 2.0).abs() < 0.1, "duration was {secs}");
    }

    #[test]
    fn horizontal_view_slides_along_x() {
        let mut s = GestureSynthesizer::new(60.0);
        let rotated = view().rotated();
        let t = s.slide_down(&rotated, 1.0);
        let last = t.events.last().unwrap().location;
        assert!((last.x - 10.0).abs() < 1e-9);
        assert!(last.y <= 2.0);
    }

    #[test]
    fn profile_with_pause_emits_stationary_samples() {
        let mut s = GestureSynthesizer::new(60.0);
        let t = s.slide_profile(
            &view(),
            &[
                SlideSegment::movement(0.0, 0.5, 0.5),
                SlideSegment::pause(0.5, 0.5),
                SlideSegment::movement(0.5, 1.0, 0.5),
            ],
            Timestamp::ZERO,
        );
        let stationary = t
            .events
            .iter()
            .filter(|e| e.phase == TouchPhase::Stationary)
            .count();
        assert!(stationary >= 25, "only {stationary} stationary samples");
        assert!(t.validate().is_ok());
    }

    #[test]
    fn exploratory_slide_reverses_direction() {
        let mut s = GestureSynthesizer::new(60.0);
        let t = s.exploratory_slide(&view(), 3.0);
        assert!(t.validate().is_ok());
        let ys: Vec<f64> = t.events.iter().map(|e| e.location.y).collect();
        let max_before_end = ys[..ys.len() - 10].iter().cloned().fold(f64::MIN, f64::max);
        // the slide backtracks: some later sample is lower than an earlier peak
        let reversed = ys.windows(2).any(|w| w[1] < w[0] - 1e-9);
        assert!(reversed);
        assert!(max_before_end > 5.0);
    }

    #[test]
    fn empty_profile_yields_empty_trace() {
        let mut s = GestureSynthesizer::new(60.0);
        let t = s.slide_profile(&view(), &[], Timestamp::ZERO);
        assert!(t.is_empty());
    }

    #[test]
    fn tap_recognized_by_recognizer() {
        let mut s = GestureSynthesizer::new(60.0);
        let t = s.tap(&view(), 0.3);
        let mut r = GestureRecognizer::default();
        let events = r.feed_trace(&t.events);
        assert!(matches!(events[0], GestureEvent::Tap { .. }));
    }

    #[test]
    fn pinch_recognized_as_zoom() {
        let mut s = GestureSynthesizer::new(60.0);
        let zoom_in = s.pinch(&view(), 2.0, 0.5);
        let mut r = GestureRecognizer::default();
        let events = r.feed_trace(&zoom_in.events);
        assert!(events
            .iter()
            .any(|e| matches!(e, GestureEvent::Pinch { scale, .. } if *scale > 1.2)));

        let zoom_out = s.pinch(&view(), 0.5, 0.5);
        let mut r = GestureRecognizer::default();
        let events = r.feed_trace(&zoom_out.events);
        assert!(events
            .iter()
            .any(|e| matches!(e, GestureEvent::Pinch { scale, .. } if *scale < 0.8)));
    }

    #[test]
    fn rotate_recognized() {
        let mut s = GestureSynthesizer::new(60.0);
        let t = s.rotate(&view(), true, 0.5);
        let mut r = GestureRecognizer::default();
        let events = r.feed_trace(&t.events);
        assert!(events.iter().any(|e| matches!(
            e,
            GestureEvent::Rotate {
                clockwise: true,
                ..
            }
        )));
    }

    #[test]
    fn bad_sample_rate_falls_back_to_60() {
        assert_eq!(GestureSynthesizer::new(f64::NAN).sample_rate_hz(), 60.0);
        assert_eq!(GestureSynthesizer::new(-5.0).sample_rate_hz(), 60.0);
    }

    #[test]
    fn higher_sample_rate_more_samples() {
        let view = view();
        let t60 = GestureSynthesizer::new(60.0).slide_down(&view, 1.0);
        let t120 = GestureSynthesizer::new(120.0).slide_down(&view, 1.0);
        assert!(t120.len() > t60.len());
    }
}
