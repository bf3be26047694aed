//! Gesture kinematics: speed and direction estimation plus extrapolation.
//!
//! The kernel's prefetching policy needs to "extrapolate the gesture progression
//! (speed and direction) and fetch the expected entries such that they are
//! readily available if the gesture resumes" (Section 2.6). The estimator keeps
//! a short sliding window of recent touch samples and derives the current
//! velocity from it; the extrapolation projects the touch position a given time
//! into the future.

use crate::touch::{TouchEvent, TouchPhase};
use dbtouch_types::PointCm;
use std::collections::VecDeque;

/// Estimates the velocity of an ongoing gesture from its recent touch samples.
#[derive(Debug, Clone)]
pub struct GestureKinematics {
    window: VecDeque<(f64, PointCm)>, // (seconds, location)
    window_len: usize,
}

impl Default for GestureKinematics {
    fn default() -> Self {
        GestureKinematics::new(6)
    }
}

impl GestureKinematics {
    /// Create an estimator averaging over the last `window_len` samples
    /// (minimum 2).
    pub fn new(window_len: usize) -> GestureKinematics {
        GestureKinematics {
            window: VecDeque::new(),
            window_len: window_len.max(2),
        }
    }

    /// Feed one touch sample. `Began` samples reset the window so that speed is
    /// never estimated across two separate gestures.
    pub fn observe(&mut self, event: &TouchEvent) {
        if event.phase == TouchPhase::Began {
            self.window.clear();
        }
        self.window
            .push_back((event.timestamp.as_secs_f64(), event.location));
        while self.window.len() > self.window_len {
            self.window.pop_front();
        }
    }

    /// Current velocity in centimetres per second as `(vx, vy)`, or `None` when
    /// fewer than two samples (or zero elapsed time) are available.
    pub fn velocity(&self) -> Option<(f64, f64)> {
        let (t0, p0) = *self.window.front()?;
        let (t1, p1) = *self.window.back()?;
        let dt = t1 - t0;
        if dt <= 0.0 || self.window.len() < 2 {
            return None;
        }
        Some(((p1.x - p0.x) / dt, (p1.y - p0.y) / dt))
    }

    /// Current speed (magnitude of the velocity) in centimetres per second.
    pub fn speed_cm_per_s(&self) -> f64 {
        match self.velocity() {
            Some((vx, vy)) => (vx * vx + vy * vy).sqrt(),
            None => 0.0,
        }
    }

    /// Extrapolate the touch location `horizon_s` seconds into the future,
    /// assuming the current velocity persists. Returns the last observed
    /// location when the velocity is unknown.
    pub fn extrapolate(&self, horizon_s: f64) -> Option<PointCm> {
        let (_, last) = *self.window.back()?;
        Some(match self.velocity() {
            Some((vx, vy)) => PointCm::new(last.x + vx * horizon_s, last.y + vy * horizon_s),
            None => last,
        })
    }

    /// True if the gesture appears paused: at least two samples and essentially
    /// zero speed.
    pub fn is_paused(&self) -> bool {
        self.window.len() >= 2 && self.speed_cm_per_s() < 0.05
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtouch_types::Timestamp;

    fn event(x: f64, y: f64, ms: u64, phase: TouchPhase) -> TouchEvent {
        TouchEvent::new(PointCm::new(x, y), Timestamp::from_millis(ms), phase)
    }

    #[test]
    fn velocity_of_steady_slide() {
        let mut k = GestureKinematics::default();
        k.observe(&event(1.0, 0.0, 0, TouchPhase::Began));
        k.observe(&event(1.0, 1.0, 100, TouchPhase::Moved));
        k.observe(&event(1.0, 2.0, 200, TouchPhase::Moved));
        let (vx, vy) = k.velocity().unwrap();
        assert!(vx.abs() < 1e-9);
        assert!((vy - 10.0).abs() < 1e-9); // 2cm over 0.2s
        assert!((k.speed_cm_per_s() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn no_velocity_with_single_sample() {
        let mut k = GestureKinematics::default();
        k.observe(&event(0.0, 0.0, 0, TouchPhase::Began));
        assert!(k.velocity().is_none());
        assert_eq!(k.speed_cm_per_s(), 0.0);
    }

    #[test]
    fn backward_direction() {
        let mut k = GestureKinematics::default();
        k.observe(&event(0.0, 5.0, 0, TouchPhase::Began));
        k.observe(&event(0.0, 4.0, 100, TouchPhase::Moved));
        let (_, vy) = k.velocity().unwrap();
        assert!((vy + 10.0).abs() < 1e-9); // 1 cm back over 0.1 s
    }

    #[test]
    fn began_resets_window() {
        let mut k = GestureKinematics::default();
        k.observe(&event(0.0, 0.0, 0, TouchPhase::Began));
        k.observe(&event(0.0, 5.0, 100, TouchPhase::Moved));
        // a new gesture starts far away much later: speed must not blend
        k.observe(&event(0.0, 0.0, 10_000, TouchPhase::Began));
        assert!(k.velocity().is_none());
        assert_eq!(k.extrapolate(1.0).unwrap(), PointCm::new(0.0, 0.0));
    }

    #[test]
    fn extrapolation_projects_forward() {
        let mut k = GestureKinematics::default();
        k.observe(&event(0.0, 0.0, 0, TouchPhase::Began));
        k.observe(&event(0.0, 1.0, 100, TouchPhase::Moved));
        let p = k.extrapolate(0.5).unwrap();
        assert!((p.y - 6.0).abs() < 1e-9); // 10 cm/s * 0.5s beyond y=1
        assert!(k.extrapolate(0.0).unwrap().y - 1.0 < 1e-9);
    }

    #[test]
    fn extrapolation_without_velocity_returns_last() {
        let mut k = GestureKinematics::default();
        assert!(k.extrapolate(1.0).is_none());
        k.observe(&event(2.0, 3.0, 0, TouchPhase::Began));
        assert_eq!(k.extrapolate(1.0).unwrap(), PointCm::new(2.0, 3.0));
    }

    #[test]
    fn pause_detection() {
        let mut k = GestureKinematics::default();
        k.observe(&event(0.0, 2.0, 0, TouchPhase::Began));
        k.observe(&event(0.0, 2.0, 100, TouchPhase::Stationary));
        k.observe(&event(0.0, 2.0, 200, TouchPhase::Stationary));
        assert!(k.is_paused());
        k.observe(&event(0.0, 4.0, 300, TouchPhase::Moved));
        assert!(!k.is_paused());
    }

    #[test]
    fn window_bounded() {
        let mut k = GestureKinematics::new(3);
        for i in 0..10u64 {
            k.observe(&event(0.0, (i * i) as f64, i * 16, TouchPhase::Moved));
        }
        // Only the last three samples (rows 7..=9) set the velocity.
        let (_, vy) = k.velocity().unwrap();
        assert!((vy - (81.0 - 49.0) / 0.032).abs() < 1e-6);
    }
}
