//! Recorded gesture traces.
//!
//! A [`GestureTrace`] is an ordered sequence of touch events aimed at one data
//! object (view). Traces are what the synthesizer produces, what the kernel
//! consumes, and what the experiment harnesses serialize so that every figure
//! can be regenerated from the exact same input.

use crate::touch::{TouchEvent, TouchPhase};
use dbtouch_types::{DbTouchError, Result};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The most touch samples one trace may carry: 65 536, about nine minutes of
/// sliding at 120 Hz. A session is a sequence of traces, so the cap bounds the
/// work one request asks for, not how long a user explores.
pub const MAX_TRACE_TOUCHES: usize = 65_536;

/// An ordered sequence of touch events over a single view.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GestureTrace {
    /// Name of the view/data object the trace is aimed at (informational).
    pub target: String,
    /// The touch samples in time order.
    pub events: Vec<TouchEvent>,
}

dbtouch_types::wire_struct!(GestureTrace {
    target: String,
    events: Vec<TouchEvent>,
});

impl GestureTrace {
    /// Create an empty trace for a target object.
    pub fn new(target: impl Into<String>) -> GestureTrace {
        GestureTrace {
            target: target.into(),
            events: Vec::new(),
        }
    }

    /// Append an event.
    pub fn push(&mut self, event: TouchEvent) {
        self.events.push(event);
    }

    /// Number of touch samples.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Duration from the first to the last sample.
    pub fn duration(&self) -> Duration {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.timestamp.since(a.timestamp),
            _ => Duration::ZERO,
        }
    }

    /// The events of a specific finger.
    pub fn finger(&self, finger: u8) -> impl Iterator<Item = &TouchEvent> {
        self.events.iter().filter(move |e| e.finger == finger)
    }

    /// Validate the trace: it holds at most [`MAX_TRACE_TOUCHES`] samples,
    /// per-finger timestamps must be non-decreasing, every finger must begin
    /// with a `Began` phase and locations must be finite.
    pub fn validate(&self) -> Result<()> {
        if self.events.len() > MAX_TRACE_TOUCHES {
            return Err(DbTouchError::InvalidGesture(format!(
                "trace of {} touches exceeds the cap of {MAX_TRACE_TOUCHES}",
                self.events.len()
            )));
        }
        for finger in 0..=1u8 {
            let mut last_ts = None;
            let mut seen_any = false;
            for e in self.finger(finger) {
                if !e.location.is_finite() {
                    return Err(DbTouchError::InvalidGesture(format!(
                        "non-finite touch location {:?}",
                        e.location
                    )));
                }
                if !seen_any && e.phase != TouchPhase::Began {
                    return Err(DbTouchError::InvalidGesture(format!(
                        "finger {finger} does not start with a Began phase"
                    )));
                }
                if let Some(last) = last_ts {
                    if e.timestamp < last {
                        return Err(DbTouchError::InvalidGesture(format!(
                            "timestamps go backwards at {}",
                            e.timestamp
                        )));
                    }
                }
                last_ts = Some(e.timestamp);
                seen_any = true;
            }
        }
        Ok(())
    }

    /// Concatenate another trace after this one (a session of several gestures
    /// over the same object). The other trace's timestamps must not precede
    /// this trace's last timestamp.
    pub fn chain(mut self, other: &GestureTrace) -> Result<GestureTrace> {
        if let (Some(last), Some(first)) = (self.events.last(), other.events.first()) {
            if first.timestamp < last.timestamp {
                return Err(DbTouchError::InvalidGesture(
                    "chained trace starts before the current trace ends".into(),
                ));
            }
        }
        self.events.extend(other.events.iter().copied());
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtouch_types::wire::{encode, Wire};
    use dbtouch_types::{PointCm, Timestamp};

    #[test]
    fn empty_trace_encodes_to_min_bytes() {
        assert_eq!(
            encode(&GestureTrace::new("")).len(),
            GestureTrace::MIN_BYTES
        );
    }

    /// A validated trace over "col".
    fn trace(events: Vec<TouchEvent>) -> Result<GestureTrace> {
        let t = GestureTrace {
            target: "col".into(),
            events,
        };
        t.validate()?;
        Ok(t)
    }

    fn ev(y: f64, ms: u64, phase: TouchPhase) -> TouchEvent {
        TouchEvent::new(PointCm::new(1.0, y), Timestamp::from_millis(ms), phase)
    }

    fn valid_trace() -> GestureTrace {
        trace(vec![
            ev(0.0, 0, TouchPhase::Began),
            ev(1.0, 16, TouchPhase::Moved),
            ev(2.0, 33, TouchPhase::Moved),
            ev(2.0, 50, TouchPhase::Ended),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_duration() {
        let t = valid_trace();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.duration(), Duration::from_millis(50));
        assert_eq!(t.target, "col");
    }

    #[test]
    fn empty_trace_duration_zero() {
        let t = GestureTrace::new("x");
        assert!(t.is_empty());
        assert_eq!(t.duration(), Duration::ZERO);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validation_rejects_backwards_time() {
        let r = trace(vec![
            ev(0.0, 100, TouchPhase::Began),
            ev(1.0, 50, TouchPhase::Moved),
        ]);
        assert!(matches!(r, Err(DbTouchError::InvalidGesture(_))));
    }

    #[test]
    fn validation_caps_the_touch_count() {
        let mut t = GestureTrace::new("col");
        t.push(ev(0.0, 0, TouchPhase::Began));
        for i in 1..MAX_TRACE_TOUCHES as u64 {
            t.push(ev(1.0, i, TouchPhase::Moved));
        }
        assert!(t.validate().is_ok());
        t.push(ev(1.0, MAX_TRACE_TOUCHES as u64, TouchPhase::Moved));
        assert!(matches!(t.validate(), Err(DbTouchError::InvalidGesture(_))));
    }

    #[test]
    fn validation_rejects_missing_began() {
        let r = trace(vec![ev(0.0, 0, TouchPhase::Moved)]);
        assert!(r.is_err());
    }

    #[test]
    fn validation_rejects_nan_location() {
        let r = trace(vec![TouchEvent::new(
            PointCm::new(f64::NAN, 0.0),
            Timestamp::ZERO,
            TouchPhase::Began,
        )]);
        assert!(r.is_err());
    }

    #[test]
    fn per_finger_validation_is_independent() {
        // Finger 1 begins "later" than finger 0's moves; that is fine as long as
        // each finger starts with Began.
        let t = trace(vec![
            ev(0.0, 0, TouchPhase::Began),
            ev(0.0, 10, TouchPhase::Began).with_finger(1),
            ev(1.0, 20, TouchPhase::Moved),
            ev(1.0, 20, TouchPhase::Moved).with_finger(1),
        ]);
        assert!(t.is_ok());
        assert_eq!(t.unwrap().finger(1).count(), 2);
    }

    #[test]
    fn chain_traces() {
        let first = valid_trace();
        let second = trace(vec![
            ev(5.0, 100, TouchPhase::Began),
            ev(6.0, 120, TouchPhase::Ended),
        ])
        .unwrap();
        let chained = first.clone().chain(&second).unwrap();
        assert_eq!(chained.len(), 6);
        // chaining something that starts earlier fails
        assert!(second.chain(&first).is_err());
    }
}
