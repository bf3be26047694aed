//! # dbtouch-gesture
//!
//! The touch-input substrate of the dbTouch reproduction.
//!
//! The paper's prototype runs on an iPad: the operating system recognizes
//! touches and gestures and hands them to the dbTouch kernel (Figure 3:
//! *Recognize Touch → Recognize Gesture → Map touch to data → Execute*). This
//! crate reproduces the first two layers in simulation:
//!
//! * [`touch`] — raw touch events: a location inside a view, a timestamp and a
//!   phase (began / moved / ended), for one or two fingers.
//! * [`view`] — the view abstraction of touch operating systems (Section 2.4
//!   "Object Views"): each data object is rendered inside a view of known
//!   physical size; views can be zoomed, rotated and hit-tested.
//! * [`recognizer`] — a gesture recognizer that turns a stream of touch events
//!   into gesture events: tap, slide steps, pinch zoom-in/zoom-out, rotate and
//!   pan.
//! * [`kinematics`] — speed/direction estimation and extrapolation of a gesture,
//!   used by the kernel's prefetching policy.
//! * [`synthesizer`] — a gesture synthesizer that generates realistic touch
//!   traces (slides with speed profiles, pauses and reversals, pinches, taps) at
//!   a configurable sampling rate. This is the stand-in for a physical finger on
//!   a physical touch screen and is what the figure harnesses drive.
//! * [`trace`] — recorded gesture traces, so experiments are reproducible.

pub mod kinematics;
pub mod recognizer;
pub mod synthesizer;
pub mod touch;
pub mod trace;
pub mod view;

pub use kinematics::GestureKinematics;
pub use recognizer::{GestureEvent, GestureRecognizer};
pub use synthesizer::GestureSynthesizer;
pub use touch::{TouchEvent, TouchPhase};
pub use trace::{GestureTrace, MAX_TRACE_TOUCHES};
pub use view::View;
