//! GDSII-style placement transforms.
//!
//! A structure reference (`SREF`/`AREF`) places a cell under a transform
//! composed of an optional mirror about the x-axis, a rotation by a
//! multiple of 90°, an integer magnification, and a translation — in
//! that order, matching the GDSII `STRANS` semantics. Hierarchical
//! check-result reuse (§IV-C of the paper) depends on transforms
//! preserving the geometric invariants of a check, which for the
//! isometric part (mirror + rotation) is always true of distance and
//! area rules; magnification scales distances and is therefore excluded
//! from reuse unless it is 1.

use std::fmt;

use crate::{Point, Polygon, Rect};

/// A counter-clockwise rotation by a multiple of 90°.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rotation {
    /// No rotation.
    #[default]
    R0,
    /// 90° counter-clockwise.
    R90,
    /// 180°.
    R180,
    /// 270° counter-clockwise.
    R270,
}

impl Rotation {
    /// All four rotations, in increasing angle order.
    pub const ALL: [Rotation; 4] = [Rotation::R0, Rotation::R90, Rotation::R180, Rotation::R270];

    /// The rotation as a number of quarter turns (0..=3).
    #[inline]
    pub fn quarter_turns(self) -> u8 {
        match self {
            Rotation::R0 => 0,
            Rotation::R90 => 1,
            Rotation::R180 => 2,
            Rotation::R270 => 3,
        }
    }

    /// Builds a rotation from a number of quarter turns (taken mod 4).
    #[inline]
    pub fn from_quarter_turns(turns: i32) -> Rotation {
        match turns.rem_euclid(4) {
            0 => Rotation::R0,
            1 => Rotation::R90,
            2 => Rotation::R180,
            _ => Rotation::R270,
        }
    }

    /// Composition `self` followed by `other`.
    #[inline]
    pub fn then(self, other: Rotation) -> Rotation {
        Rotation::from_quarter_turns(
            i32::from(self.quarter_turns()) + i32::from(other.quarter_turns()),
        )
    }

    /// The inverse rotation.
    #[inline]
    pub fn inverse(self) -> Rotation {
        Rotation::from_quarter_turns(-i32::from(self.quarter_turns()))
    }

    /// Rotates a point about the origin.
    #[inline]
    pub fn apply(self, p: Point) -> Point {
        match self {
            Rotation::R0 => p,
            Rotation::R90 => Point::new(-p.y, p.x),
            Rotation::R180 => Point::new(-p.x, -p.y),
            Rotation::R270 => Point::new(p.y, -p.x),
        }
    }
}

/// A GDSII placement transform: mirror about the x-axis, then rotate,
/// then magnify, then translate.
///
/// # Examples
///
/// ```
/// use odrc_geometry::{Point, Rotation, Transform};
///
/// let t = Transform::new(true, Rotation::R90, 1, Point::new(100, 0));
/// // (10, 5) --mirror-x--> (10, -5) --R90--> (5, 10) --translate--> (105, 10)
/// assert_eq!(t.apply(Point::new(10, 5)), Point::new(105, 10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transform {
    mirror_x: bool,
    rotation: Rotation,
    mag: i32,
    translate: Point,
}

impl Default for Transform {
    fn default() -> Self {
        Transform::IDENTITY
    }
}

impl Transform {
    /// The identity transform.
    pub const IDENTITY: Transform = Transform {
        mirror_x: false,
        rotation: Rotation::R0,
        mag: 1,
        translate: Point::ORIGIN,
    };

    /// Creates a transform from its components.
    ///
    /// # Panics
    ///
    /// Panics if `mag < 1`; GDSII magnifications in this engine are
    /// positive integers (fractional magnification does not occur in the
    /// standard-cell layouts the engine targets).
    #[inline]
    pub fn new(mirror_x: bool, rotation: Rotation, mag: i32, translate: Point) -> Self {
        assert!(mag >= 1, "magnification must be >= 1, got {mag}");
        Transform {
            mirror_x,
            rotation,
            mag,
            translate,
        }
    }

    /// A pure translation.
    #[inline]
    pub fn translation(delta: Point) -> Self {
        Transform {
            translate: delta,
            ..Transform::IDENTITY
        }
    }

    /// Whether the transform mirrors about the x-axis before rotating.
    #[inline]
    pub fn mirror_x(&self) -> bool {
        self.mirror_x
    }

    /// The rotation component.
    #[inline]
    pub fn rotation(&self) -> Rotation {
        self.rotation
    }

    /// The integer magnification.
    #[inline]
    pub fn mag(&self) -> i32 {
        self.mag
    }

    /// The translation component.
    #[inline]
    pub fn translate(&self) -> Point {
        self.translate
    }

    /// Returns `true` for transforms that preserve distances (mag 1).
    ///
    /// Isometries preserve every distance- and area-rule verdict, which
    /// is what makes hierarchical check-result reuse sound (§IV-C).
    #[inline]
    pub fn is_isometry(&self) -> bool {
        self.mag == 1
    }

    /// Applies the transform to a point.
    #[inline]
    pub fn apply(&self, p: Point) -> Point {
        let m = if self.mirror_x {
            Point::new(p.x, -p.y)
        } else {
            p
        };
        let r = self.rotation.apply(m);
        Point::new(r.x * self.mag, r.y * self.mag) + self.translate
    }

    /// Applies the transform to a rectangle (result is re-normalized, as
    /// rotation/mirror may swap corners).
    #[inline]
    pub fn apply_rect(&self, r: Rect) -> Rect {
        Rect::spanning(self.apply(r.lo()), self.apply(r.hi()))
    }

    /// Applies the transform to a polygon. The result is re-normalized
    /// to clockwise order (a mirror flips orientation).
    pub fn apply_polygon(&self, poly: &Polygon) -> Polygon {
        Polygon::from_transformed(poly.vertices().iter().map(|&v| self.apply(v)).collect())
    }

    /// The composition that applies `self` first, then `outer`.
    ///
    /// Used when descending the hierarchy tree: a child reference's
    /// transform composes under its parent's.
    #[inline]
    pub fn then(&self, outer: &Transform) -> Transform {
        // outer(self(p)) = s2 R2 M2 (s1 R1 M1 p + t1) + t2.
        // Using M R = R⁻¹ M: the linear part has mirror m1^m2 and
        // rotation r2 + (m2 ? -r1 : r1); the translation is outer(t1).
        let rotation = if outer.mirror_x {
            outer.rotation.then(self.rotation.inverse())
        } else {
            outer.rotation.then(self.rotation)
        };
        Transform {
            mirror_x: self.mirror_x ^ outer.mirror_x,
            rotation,
            mag: self.mag * outer.mag,
            translate: outer.apply(self.translate),
        }
    }

    /// The inverse transform.
    ///
    /// # Panics
    ///
    /// Panics if the transform is not an isometry (`mag != 1`), as the
    /// inverse would not have integer coordinates.
    pub fn inverse(&self) -> Transform {
        assert!(
            self.is_isometry(),
            "cannot invert a magnifying transform (mag = {})",
            self.mag
        );
        // p' = R M p + t  =>  p = M⁻¹ R⁻¹ (p' - t) = (M R⁻¹) p' - M R⁻¹ t
        // with M² = I. The inverse transform in (mirror, rotation) form:
        // mirror stays, rotation becomes -r if no mirror, +r if mirrored.
        let rotation = if self.mirror_x {
            self.rotation
        } else {
            self.rotation.inverse()
        };
        let inv_linear = Transform {
            mirror_x: self.mirror_x,
            rotation,
            mag: 1,
            translate: Point::ORIGIN,
        };
        let t = inv_linear.apply(self.translate);
        Transform {
            translate: -t,
            ..inv_linear
        }
    }
}

impl fmt::Display for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{mirror_x: {}, rot: {:?}, mag: {}, at {}}}",
            self.mirror_x, self.rotation, self.mag, self.translate
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(x: i32, y: i32) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn rotation_basics() {
        assert_eq!(Rotation::R90.apply(p(1, 0)), p(0, 1));
        assert_eq!(Rotation::R180.apply(p(1, 2)), p(-1, -2));
        assert_eq!(Rotation::R270.apply(p(0, 1)), p(1, 0));
        assert_eq!(Rotation::R90.then(Rotation::R270), Rotation::R0);
        assert_eq!(Rotation::R90.inverse(), Rotation::R270);
        assert_eq!(Rotation::from_quarter_turns(-1), Rotation::R270);
        assert_eq!(Rotation::from_quarter_turns(6), Rotation::R180);
    }

    #[test]
    fn identity_is_noop() {
        let q = p(13, -7);
        assert_eq!(Transform::IDENTITY.apply(q), q);
        assert_eq!(Transform::default(), Transform::IDENTITY);
    }

    #[test]
    #[should_panic(expected = "magnification")]
    fn zero_mag_panics() {
        let _ = Transform::new(false, Rotation::R0, 0, Point::ORIGIN);
    }

    #[test]
    fn mirror_then_rotate_order() {
        let t = Transform::new(true, Rotation::R90, 1, Point::ORIGIN);
        // (1, 2) -mirror-> (1, -2) -R90-> (2, 1)
        assert_eq!(t.apply(p(1, 2)), p(2, 1));
    }

    #[test]
    fn magnification_scales_before_translation() {
        let t = Transform::new(false, Rotation::R0, 3, p(10, 0));
        assert_eq!(t.apply(p(2, 5)), p(16, 15));
        assert!(!t.is_isometry());
    }

    #[test]
    fn rect_transform_renormalizes() {
        let t = Transform::new(false, Rotation::R90, 1, Point::ORIGIN);
        let r = Rect::from_coords(1, 2, 5, 8);
        assert_eq!(t.apply_rect(r), Rect::from_coords(-8, 1, -2, 5));
    }

    #[test]
    fn polygon_transform_preserves_area() {
        let poly = Polygon::rect(Rect::from_coords(0, 0, 6, 3));
        for &rot in &Rotation::ALL {
            for &mx in &[false, true] {
                let t = Transform::new(mx, rot, 1, p(100, 50));
                let q = t.apply_polygon(&poly);
                assert_eq!(q.area(), poly.area(), "transform {t}");
                assert!(q.is_rectilinear());
            }
        }
    }

    fn arb_transform() -> impl Strategy<Value = Transform> {
        (proptest::bool::ANY, 0i32..4, -100i32..100, -100i32..100)
            .prop_map(|(m, r, x, y)| Transform::new(m, Rotation::from_quarter_turns(r), 1, p(x, y)))
    }

    proptest! {
        #[test]
        fn compose_matches_sequential_application(
            a in arb_transform(), b in arb_transform(),
            x in -50i32..50, y in -50i32..50,
        ) {
            let q = p(x, y);
            prop_assert_eq!(a.then(&b).apply(q), b.apply(a.apply(q)));
        }

        #[test]
        fn inverse_roundtrip(t in arb_transform(), x in -50i32..50, y in -50i32..50) {
            let q = p(x, y);
            prop_assert_eq!(t.inverse().apply(t.apply(q)), q);
            prop_assert_eq!(t.apply(t.inverse().apply(q)), q);
        }

        #[test]
        fn isometry_preserves_distance(
            t in arb_transform(),
            x0 in -50i32..50, y0 in -50i32..50,
            x1 in -50i32..50, y1 in -50i32..50,
        ) {
            let a = p(x0, y0);
            let b = p(x1, y1);
            prop_assert_eq!(t.apply(a).distance_sq(t.apply(b)), a.distance_sq(b));
        }
    }
}
