//! Screen geometry in physical units.
//!
//! The paper reasons about data objects by their physical size on the touch
//! screen ("a column of a height of only a few centimeters may represent an
//! attribute with several millions of tuples", "the height of the object is 10
//! centimeters"). Physical size matters because the number of distinguishable
//! touch locations — and therefore the number of tuples one slide can address —
//! is bounded by the object size and the finger/touch resolution.
//!
//! All geometry here is expressed in centimetres as `f64`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A point within a view, in centimetres from the view's top-left corner.
///
/// `x` grows to the right; `y` grows downward (matching touch-OS view
/// coordinates, where a top-to-bottom slide has increasing `y`).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PointCm {
    /// Horizontal offset from the left edge.
    pub x: f64,
    /// Vertical offset from the top edge.
    pub y: f64,
}

impl PointCm {
    /// Construct a point.
    pub fn new(x: f64, y: f64) -> PointCm {
        PointCm { x, y }
    }

    /// Origin (top-left corner).
    pub const ORIGIN: PointCm = PointCm { x: 0.0, y: 0.0 };

    /// Euclidean distance to another point, in centimetres.
    pub fn distance(&self, other: &PointCm) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Component-wise linear interpolation: `t = 0` gives `self`, `t = 1` gives
    /// `other`.
    pub fn lerp(&self, other: &PointCm, t: f64) -> PointCm {
        PointCm {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }

    /// True if both coordinates are finite.
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for PointCm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})cm", self.x, self.y)
    }
}

/// The size of a view, in centimetres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SizeCm {
    /// Width.
    pub width: f64,
    /// Height.
    pub height: f64,
}

impl SizeCm {
    /// Construct a size.
    pub fn new(width: f64, height: f64) -> SizeCm {
        SizeCm { width, height }
    }

    /// True if both dimensions are finite and strictly positive.
    pub fn is_valid(&self) -> bool {
        self.width.is_finite() && self.height.is_finite() && self.width > 0.0 && self.height > 0.0
    }

    /// Scale both dimensions by a factor (used by zoom gestures).
    pub fn scaled(&self, factor: f64) -> SizeCm {
        SizeCm {
            width: self.width * factor,
            height: self.height * factor,
        }
    }

    /// Swap width and height (used when an object is rotated by 90 degrees).
    pub fn transposed(&self) -> SizeCm {
        SizeCm {
            width: self.height,
            height: self.width,
        }
    }

    /// The extent along the given orientation's scroll axis: height when the
    /// object stands vertically, width when it lies horizontally.
    pub fn extent_along(&self, orientation: Orientation) -> f64 {
        match orientation {
            Orientation::Vertical => self.height,
            Orientation::Horizontal => self.width,
        }
    }
}

impl fmt::Display for SizeCm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}x{:.2}cm", self.width, self.height)
    }
}

/// The orientation of a data object on screen.
///
/// Columns are rendered vertically by default; the rotate gesture (or rotating
/// the tablet itself) flips them. The orientation decides which touch dimension
/// drives the tuple-identifier mapping (Section 2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Orientation {
    /// The object stands vertically: the `y` coordinate addresses tuples.
    #[default]
    Vertical,
    /// The object lies horizontally: the `x` coordinate addresses tuples.
    Horizontal,
}

impl Orientation {
    /// The orientation after a 90-degree rotation.
    pub fn rotated(self) -> Orientation {
        match self {
            Orientation::Vertical => Orientation::Horizontal,
            Orientation::Horizontal => Orientation::Vertical,
        }
    }

    /// Pick the coordinate of `p` along the scroll axis for this orientation.
    pub fn scroll_coordinate(self, p: PointCm) -> f64 {
        match self {
            Orientation::Vertical => p.y,
            Orientation::Horizontal => p.x,
        }
    }

    /// Pick the coordinate of `p` across the scroll axis (used to select the
    /// attribute when sliding over a multi-column table).
    pub fn cross_coordinate(self, p: PointCm) -> f64 {
        match self {
            Orientation::Vertical => p.x,
            Orientation::Horizontal => p.y,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance_and_lerp() {
        let a = PointCm::new(0.0, 0.0);
        let b = PointCm::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        let mid = a.lerp(&b, 0.5);
        assert!((mid.x - 1.5).abs() < 1e-12);
        assert!((mid.y - 2.0).abs() < 1e-12);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
    }

    #[test]
    fn size_validity_and_scaling() {
        assert!(SizeCm::new(2.0, 10.0).is_valid());
        assert!(!SizeCm::new(0.0, 10.0).is_valid());
        assert!(!SizeCm::new(2.0, f64::NAN).is_valid());
        let s = SizeCm::new(2.0, 10.0).scaled(2.0);
        assert_eq!(s, SizeCm::new(4.0, 20.0));
        assert_eq!(s.transposed(), SizeCm::new(20.0, 4.0));
    }

    #[test]
    fn size_extent_along_orientation() {
        let s = SizeCm::new(2.0, 10.0);
        assert_eq!(s.extent_along(Orientation::Vertical), 10.0);
        assert_eq!(s.extent_along(Orientation::Horizontal), 2.0);
    }

    #[test]
    fn orientation_rotation_is_involutive() {
        assert_eq!(Orientation::Vertical.rotated(), Orientation::Horizontal);
        assert_eq!(
            Orientation::Vertical.rotated().rotated(),
            Orientation::Vertical
        );
    }

    #[test]
    fn orientation_coordinate_selection() {
        let p = PointCm::new(1.0, 7.0);
        assert_eq!(Orientation::Vertical.scroll_coordinate(p), 7.0);
        assert_eq!(Orientation::Horizontal.scroll_coordinate(p), 1.0);
        assert_eq!(Orientation::Vertical.cross_coordinate(p), 1.0);
        assert_eq!(Orientation::Horizontal.cross_coordinate(p), 7.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(PointCm::new(1.0, 2.0).to_string(), "(1.00, 2.00)cm");
        assert_eq!(SizeCm::new(2.0, 10.0).to_string(), "2.00x10.00cm");
    }
}
