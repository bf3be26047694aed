//! Views: the visual placeholders for data objects.
//!
//! Section 2.4 ("Object Views"): "In order to translate the location of a touch
//! to a tuple identifier, dbTouch exploits the view concept of modern
//! touch-based operating systems. Views are placeholders for visual objects
//! [...] Each view has a set of properties associated with it which are readily
//! accessible by the touch OS, such as the size of the view, the location of the
//! view within its master view, what kind of gestures are allowed over the view."
//!
//! dbTouch adds database properties to each view: the number of tuples the
//! object represents, the number of attributes, and the data types. [`View`]
//! models exactly this: geometry plus the dbTouch-specific properties that the
//! mapping layer of the kernel needs.

use dbtouch_types::{DbTouchError, Orientation, Result, SizeCm};
use serde::{Deserialize, Serialize};

/// A view representing one data object on the touch screen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct View {
    /// Name of the data object the view renders (column or table name).
    pub name: String,
    /// Physical size of the view.
    pub size: SizeCm,
    /// Orientation of the object: vertical objects are scrolled with vertical
    /// slides, horizontal objects with horizontal slides.
    pub orientation: Orientation,
    /// Number of tuples in the underlying data object (`n` in the Rule of
    /// Three).
    pub tuple_count: u64,
    /// Number of attributes rendered side by side (1 for a single column).
    pub attribute_count: usize,
    /// Current zoom factor relative to the view's initial size (1.0 = initial).
    pub zoom: f64,
}

impl View {
    /// Create a view for a single-column object standing vertically.
    pub fn for_column(name: impl Into<String>, tuple_count: u64, size: SizeCm) -> Result<View> {
        Self::validated(View {
            name: name.into(),
            size,
            orientation: Orientation::Vertical,
            tuple_count,
            attribute_count: 1,
            zoom: 1.0,
        })
    }

    /// Create a view for a table object with `attribute_count` attributes.
    pub fn for_table(
        name: impl Into<String>,
        tuple_count: u64,
        attribute_count: usize,
        size: SizeCm,
    ) -> Result<View> {
        if attribute_count == 0 {
            return Err(DbTouchError::InvalidGeometry(
                "a table view needs at least one attribute".into(),
            ));
        }
        Self::validated(View {
            name: name.into(),
            size,
            orientation: Orientation::Vertical,
            tuple_count,
            attribute_count,
            zoom: 1.0,
        })
    }

    fn validated(view: View) -> Result<View> {
        if !view.size.is_valid() {
            return Err(DbTouchError::InvalidGeometry(format!(
                "view {} has invalid size {}",
                view.name, view.size
            )));
        }
        Ok(view)
    }

    /// Extent of the view along the scroll axis (the axis that addresses
    /// tuples): the height for vertical objects, the width for horizontal ones.
    pub fn scroll_extent(&self) -> f64 {
        self.size.extent_along(self.orientation)
    }

    /// Extent across the scroll axis (the axis that addresses attributes).
    pub fn cross_extent(&self) -> f64 {
        self.size.extent_along(self.orientation.rotated())
    }

    /// Apply a zoom gesture: scale the view by `factor` (>1 zoom-in, <1
    /// zoom-out). The zoom factor is clamped so the view never collapses or
    /// explodes (between 1/64x and 64x of the original size).
    pub fn zoomed(&self, factor: f64) -> Result<View> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(DbTouchError::InvalidGeometry(format!(
                "zoom factor {factor} must be finite and positive"
            )));
        }
        let new_zoom = (self.zoom * factor).clamp(1.0 / 64.0, 64.0);
        let effective = new_zoom / self.zoom;
        let mut v = self.clone();
        v.zoom = new_zoom;
        v.size = self.size.scaled(effective);
        Ok(v)
    }

    /// Apply the rotate gesture: the view is transposed and its orientation
    /// flips. Touch-to-tuple mapping is unaffected because it always works along
    /// the (new) scroll axis (Section 2.4: "when we rotate an object [...]
    /// touches and identifiers calculated relative to the object view are not
    /// affected").
    pub fn rotated(&self) -> View {
        let mut v = self.clone();
        v.orientation = self.orientation.rotated();
        v.size = self.size.transposed();
        v
    }

    /// The distinct number of touch positions available along the scroll axis
    /// given a touch resolution in centimetres. This is the physical limit the
    /// paper discusses: a small object can only address a limited number of
    /// tuples per slide.
    pub fn addressable_positions(&self, touch_resolution_cm: f64) -> u64 {
        if touch_resolution_cm <= 0.0 {
            return u64::MAX;
        }
        (self.scroll_extent() / touch_resolution_cm)
            .floor()
            .max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column_view() -> View {
        // The paper's Figure 4 object: a 10cm tall column object.
        View::for_column("measurements", 10_000_000, SizeCm::new(2.0, 10.0)).unwrap()
    }

    #[test]
    fn construction_and_extents() {
        let v = column_view();
        assert_eq!(v.scroll_extent(), 10.0);
        assert_eq!(v.cross_extent(), 2.0);
        assert_eq!(v.attribute_count, 1);
        assert_eq!(v.zoom, 1.0);
    }

    #[test]
    fn invalid_geometry_rejected() {
        assert!(View::for_column("x", 10, SizeCm::new(0.0, 10.0)).is_err());
        assert!(View::for_table("t", 10, 0, SizeCm::new(2.0, 2.0)).is_err());
        assert!(View::for_column("x", 10, SizeCm::new(2.0, f64::NAN)).is_err());
    }

    #[test]
    fn zoom_in_doubles_size() {
        let v = column_view();
        let z = v.zoomed(2.0).unwrap();
        assert_eq!(z.size, SizeCm::new(4.0, 20.0));
        assert_eq!(z.zoom, 2.0);
        // zoom back out restores the original size
        let back = z.zoomed(0.5).unwrap();
        assert!((back.size.height - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zoom_clamped_to_bounds() {
        let v = column_view();
        let huge = v.zoomed(1e9).unwrap();
        assert_eq!(huge.zoom, 64.0);
        let tiny = v.zoomed(1e-9).unwrap();
        assert_eq!(tiny.zoom, 1.0 / 64.0);
        assert!(v.zoomed(0.0).is_err());
        assert!(v.zoomed(f64::NAN).is_err());
    }

    #[test]
    fn rotation_transposes_and_flips_axis() {
        let v = column_view();
        let r = v.rotated();
        assert_eq!(r.orientation, Orientation::Horizontal);
        assert_eq!(r.size, SizeCm::new(10.0, 2.0));
        assert_eq!(r.scroll_extent(), 10.0); // still 10cm along the scroll axis
        assert_eq!(r.rotated().orientation, Orientation::Vertical);
    }

    #[test]
    fn addressable_positions_scale_with_size() {
        let v = column_view();
        let fine = v.addressable_positions(0.05);
        assert_eq!(fine, 200);
        let zoomed = v.zoomed(2.0).unwrap();
        assert_eq!(zoomed.addressable_positions(0.05), 400);
        assert_eq!(v.addressable_positions(0.0), u64::MAX);
    }
}
