//! Raw touch events.
//!
//! A touch event is the smallest unit of input the kernel reacts to: "dbTouch
//! goes through these steps for every touch input on a data object"
//! (Section 3). Events carry the location *in the coordinate space of the view
//! they landed in*, a timestamp relative to the start of the session, the phase
//! of the touch, and which finger produced it (0 or 1 — the paper's gestures use
//! at most two fingers).

use dbtouch_types::{PointCm, Timestamp};
use serde::{Deserialize, Serialize};

/// The lifecycle phase of a touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TouchPhase {
    /// The finger has just made contact.
    Began,
    /// The finger moved while in contact.
    Moved,
    /// The finger is still in contact but has not moved since the last sample
    /// (a paused gesture keeps emitting `Stationary` samples).
    Stationary,
    /// The finger left the screen.
    Ended,
}

/// A single touch sample delivered by the (simulated) touch OS.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TouchEvent {
    /// Location of the touch, in centimetres, in the coordinates of the view it
    /// landed in (origin at the view's top-left corner).
    pub location: PointCm,
    /// Time of the sample relative to session start.
    pub timestamp: Timestamp,
    /// Phase of the touch.
    pub phase: TouchPhase,
    /// Finger index: 0 for the first finger, 1 for the second finger of a
    /// two-finger gesture.
    pub finger: u8,
}

dbtouch_types::wire_enum!(TouchPhase {
    0 => Began,
    1 => Moved,
    2 => Stationary,
    3 => Ended,
});

dbtouch_types::wire_struct!(TouchEvent {
    location: PointCm,
    timestamp: Timestamp,
    phase: TouchPhase,
    finger: u8,
});

impl TouchEvent {
    /// Convenience constructor for a single-finger event.
    pub fn new(location: PointCm, timestamp: Timestamp, phase: TouchPhase) -> TouchEvent {
        TouchEvent {
            location,
            timestamp,
            phase,
            finger: 0,
        }
    }

    /// Same event attributed to the given finger.
    pub fn with_finger(mut self, finger: u8) -> TouchEvent {
        self.finger = finger;
        self
    }

    /// True if this sample keeps the finger on the screen.
    pub fn is_active(&self) -> bool {
        !matches!(self.phase, TouchPhase::Ended)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_defaults_to_first_finger() {
        let e = TouchEvent::new(
            PointCm::new(1.0, 2.0),
            Timestamp::from_millis(5),
            TouchPhase::Began,
        );
        assert_eq!(e.finger, 0);
        assert_eq!(e.location.y, 2.0);
        assert!(e.is_active());
    }

    #[test]
    fn with_finger_sets_index() {
        let e = TouchEvent::new(PointCm::ORIGIN, Timestamp::ZERO, TouchPhase::Moved).with_finger(1);
        assert_eq!(e.finger, 1);
    }

    #[test]
    fn ended_is_not_active() {
        let e = TouchEvent::new(PointCm::ORIGIN, Timestamp::ZERO, TouchPhase::Ended);
        assert!(!e.is_active());
        let s = TouchEvent::new(PointCm::ORIGIN, Timestamp::ZERO, TouchPhase::Stationary);
        assert!(s.is_active());
    }
}
