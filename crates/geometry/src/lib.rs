//! Integer geometry primitives for the OpenDRC design rule checking engine.
//!
//! All coordinates are signed 32-bit *database units* (dbu). At the
//! ASAP7-like scale used by the benchmark layouts, 1 dbu corresponds to
//! 1 nm. Arithmetic that can overflow 32 bits (areas, squared distances)
//! is carried out in `i64`.
//!
//! The crate provides:
//!
//! * [`Point`] — a 2-D integer point / vector,
//! * [`Rect`] — an axis-aligned rectangle (used for minimum bounding
//!   rectangles, "MBRs", throughout OpenDRC),
//! * [`Interval`] — a closed 1-D integer interval,
//! * [`Edge`] — a directed axis-aligned polygon edge,
//! * [`Polygon`] — a rectilinear polygon stored in clockwise order, as
//!   required by the edge-based check procedures of the paper (§IV-D),
//! * [`Transform`] — a GDSII-style placement transform (rotation by
//!   multiples of 90°, optional x-axis mirror, integer magnification and
//!   translation).
//!
//! # Examples
//!
//! ```
//! use odrc_geometry::{Point, Polygon, Rect};
//!
//! let poly = Polygon::rect(Rect::new(Point::new(0, 0), Point::new(40, 20)));
//! assert!(poly.is_rectilinear());
//! assert_eq!(poly.area(), 800);
//! assert_eq!(poly.mbr(), Rect::new(Point::new(0, 0), Point::new(40, 20)));
//! ```

#![forbid(unsafe_code)]

pub mod edge;
pub mod interval;
pub mod point;
pub mod polygon;
pub mod rect;
pub mod transform;

pub use edge::{Edge, EdgeDir, Orientation};
pub use interval::Interval;
pub use point::Point;
pub use polygon::{Polygon, PolygonError};
pub use rect::Rect;
pub use transform::{Rotation, Transform};

/// Database-unit coordinate type used across the engine.
pub type Coord = i32;

/// Wide type for products of coordinates (areas, squared distances).
pub type WideCoord = i64;
