//! Per-polygon and polygon-pair check procedures.

use odrc_geometry::{Polygon, Rect, Transform};

use crate::checks::edge::SpaceSpec;
use crate::rules::{EnsureFn, PolygonInfo};
use crate::violation::{Violation, ViolationKind};

/// A violation in cell-local coordinates, before instantiation.
///
/// Hierarchical check-result reuse (§IV-C) stores violations in the
/// defining cell's coordinates and replays them through each placement
/// transform — sound because placements are isometries, under which
/// every distance and area verdict is invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LocalViolation {
    /// Rule family.
    pub kind: ViolationKind,
    /// Offense bounding box in local coordinates.
    pub location: Rect,
    /// Measured value (see [`Violation::measured`]).
    ///
    /// [`Violation::measured`]: crate::Violation::measured
    pub measured: i64,
}

impl LocalViolation {
    /// Instantiates the violation through a placement transform.
    pub fn instantiate(&self, transform: &Transform) -> LocalViolation {
        LocalViolation {
            kind: self.kind,
            location: transform.apply_rect(self.location),
            measured: self.measured,
        }
    }

    /// The violation of rule `rule` this one reports (its location read
    /// as top coordinates).
    pub fn named(self, rule: &str) -> Violation {
        Violation {
            rule: rule.to_owned(),
            kind: self.kind,
            location: self.location,
            measured: self.measured,
        }
    }
}

/// An intra-polygon rule, ready to run against single polygons.
#[derive(Clone)]
pub enum PolyRuleSpec {
    /// Minimum width.
    Width(i64),
    /// Minimum area.
    Area(i64),
    /// Must be rectilinear.
    Rectilinear,
    /// User predicate (label unused here; the engine attaches names).
    Ensures(EnsureFn),
}

/// Runs an intra-polygon rule against one polygon, appending local
/// violations. Width, area and rectilinear read `p.polygon` alone.
pub fn polygon_violations(p: PolygonInfo<'_>, spec: &PolyRuleSpec, out: &mut Vec<LocalViolation>) {
    let polygon = p.polygon;
    match spec {
        PolyRuleSpec::Width(min) => width_violations(polygon, *min, out),
        PolyRuleSpec::Area(min) => {
            let area = polygon.area();
            if area < *min {
                out.push(LocalViolation {
                    kind: ViolationKind::Area,
                    location: polygon.mbr(),
                    measured: area,
                });
            }
        }
        PolyRuleSpec::Rectilinear => {
            if !polygon.is_rectilinear() {
                out.push(LocalViolation {
                    kind: ViolationKind::Rectilinear,
                    location: polygon.mbr(),
                    measured: 0,
                });
            }
        }
        PolyRuleSpec::Ensures(pred) => {
            if !pred(p) {
                out.push(LocalViolation {
                    kind: ViolationKind::Ensures,
                    location: polygon.mbr(),
                    measured: 0,
                });
            }
        }
    }
}

/// Width check over one polygon: every interior-facing edge pair with
/// overlapping projections and distance below `min`.
pub fn width_violations(poly: &Polygon, min: i64, out: &mut Vec<LocalViolation>) {
    let edges: Vec<_> = poly.edges().collect();
    for i in 0..edges.len() {
        for j in i + 1..edges.len() {
            if let Some(d2) = super::edge::width_pair(edges[i], edges[j], min) {
                out.push(LocalViolation {
                    kind: ViolationKind::Width,
                    location: edges[i].mbr().hull(edges[j].mbr()),
                    measured: d2,
                });
            }
        }
    }
}

/// Spacing check within one polygon (notches: exterior-facing pairs of
/// the polygon's own edges).
pub fn notch_space_violations(poly: &Polygon, spec: SpaceSpec, out: &mut Vec<LocalViolation>) {
    let edges: Vec<_> = poly.edges().collect();
    for i in 0..edges.len() {
        for j in i + 1..edges.len() {
            if let Some(d2) = super::edge::space_pair_spec(edges[i], edges[j], spec) {
                out.push(LocalViolation {
                    kind: ViolationKind::Space,
                    location: edges[i].mbr().hull(edges[j].mbr()),
                    measured: d2,
                });
            }
        }
    }
}

/// Spacing check across two polygons: every exterior-facing edge pair
/// below `min`.
pub fn space_violations_between(
    a: &Polygon,
    b: &Polygon,
    spec: SpaceSpec,
    out: &mut Vec<LocalViolation>,
) {
    for ea in a.edges() {
        for eb in b.edges() {
            if let Some(d2) = super::edge::space_pair_spec(ea, eb, spec) {
                out.push(LocalViolation {
                    kind: ViolationKind::Space,
                    location: ea.mbr().hull(eb.mbr()),
                    measured: d2,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrc_db::LayerPolygon;
    use odrc_geometry::Point;
    use std::sync::Arc;

    fn lp(poly: Polygon) -> LayerPolygon {
        LayerPolygon {
            layer: 1,
            datatype: 0,
            polygon: poly,
            name: None,
        }
    }

    fn rect(x0: i32, y0: i32, x1: i32, y1: i32) -> Polygon {
        Polygon::rect(Rect::from_coords(x0, y0, x1, y1))
    }

    #[test]
    fn wide_bar_passes_width() {
        let mut out = Vec::new();
        polygon_violations(
            PolygonInfo::of(&lp(rect(0, 0, 20, 100))),
            &PolyRuleSpec::Width(18),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn narrow_bar_fails_width_both_axes() {
        let mut out = Vec::new();
        // 12 wide, 100 tall: one violating pair (vertical edges).
        polygon_violations(
            PolygonInfo::of(&lp(rect(0, 0, 12, 100))),
            &PolyRuleSpec::Width(18),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, ViolationKind::Width);
        assert_eq!(out[0].measured, 144);
        assert_eq!(out[0].location, Rect::from_coords(0, 0, 12, 100));
    }

    #[test]
    fn small_square_fails_width_twice() {
        let mut out = Vec::new();
        // 10x10: both the horizontal and vertical pair violate.
        polygon_violations(
            PolygonInfo::of(&lp(rect(0, 0, 10, 10))),
            &PolyRuleSpec::Width(18),
            &mut out,
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn l_shape_width_of_arms() {
        // L with 15-wide vertical arm and 15-wide horizontal arm.
        let l = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(0, 60),
            Point::new(15, 60),
            Point::new(15, 15),
            Point::new(60, 15),
            Point::new(60, 0),
        ])
        .unwrap();
        let mut out = Vec::new();
        width_violations(&l, 18, &mut out);
        // Vertical arm: left edge [x=0] vs inner right edge [x=15]
        // (projection y 15..60 overlaps); horizontal arm similarly.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| v.measured == 225));
        let mut out = Vec::new();
        width_violations(&l, 15, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn area_rule() {
        let mut out = Vec::new();
        polygon_violations(
            PolygonInfo::of(&lp(rect(0, 0, 20, 20))),
            &PolyRuleSpec::Area(500),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].measured, 400);
        out.clear();
        polygon_violations(
            PolygonInfo::of(&lp(rect(0, 0, 20, 25))),
            &PolyRuleSpec::Area(500),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn rectilinear_rule_passes_constructed_polygons() {
        let mut out = Vec::new();
        polygon_violations(
            PolygonInfo::of(&lp(rect(0, 0, 5, 5))),
            &PolyRuleSpec::Rectilinear,
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn ensures_rule_runs_predicate() {
        let pred: EnsureFn = Arc::new(|info: PolygonInfo<'_>| info.name.is_some());
        let mut out = Vec::new();
        polygon_violations(
            PolygonInfo::of(&lp(rect(0, 0, 5, 5))),
            &PolyRuleSpec::Ensures(pred.clone()),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, ViolationKind::Ensures);

        let mut named = lp(rect(0, 0, 5, 5));
        named.name = Some("net1".to_owned());
        out.clear();
        polygon_violations(
            PolygonInfo::of(&named),
            &PolyRuleSpec::Ensures(pred),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn notch_detected() {
        // U-shape with a 10-wide notch; spacing 18 violated inside it.
        let u = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(0, 50),
            Point::new(20, 50),
            Point::new(20, 20),
            Point::new(30, 20),
            Point::new(30, 50),
            Point::new(50, 50),
            Point::new(50, 0),
        ])
        .unwrap();
        let mut out = Vec::new();
        notch_space_violations(&u, SpaceSpec::simple(18), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].measured, 100);
        out.clear();
        notch_space_violations(&u, SpaceSpec::simple(10), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn pair_spacing_between_rects() {
        let a = rect(0, 0, 10, 50);
        let b = rect(22, 0, 32, 50);
        let mut out = Vec::new();
        space_violations_between(&a, &b, SpaceSpec::simple(18), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].measured, 144);
        out.clear();
        space_violations_between(&a, &b, SpaceSpec::simple(12), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn instantiate_transforms_location() {
        let v = LocalViolation {
            kind: ViolationKind::Width,
            location: Rect::from_coords(0, 0, 10, 20),
            measured: 5,
        };
        let t = Transform::translation(Point::new(100, 200));
        let vi = v.instantiate(&t);
        assert_eq!(vi.location, Rect::from_coords(100, 200, 110, 220));
        assert_eq!(vi.measured, 5);
    }
}
