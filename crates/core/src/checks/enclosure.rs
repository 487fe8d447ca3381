//! Enclosure checks (inter-layer distance rules).
//!
//! An enclosure rule requires shapes of an inner layer (typically vias)
//! to lie inside the outer layer's geometry with a minimum margin on
//! every side — "the minimum enclosure is to avoid layer misalignment
//! errors" (§II of the paper).
//!
//! A candidate's margin is found by binary search over inflations of
//! the inner rectangle, except on a rectangular candidate (four
//! vertices), where it has a closed form: the smallest of the four
//! side distances, clamped like the search. Most landings are
//! rectangles, so a landing placed by a cell reference ([`Placed`]) is
//! measured on its placed MBR, without building the placed polygon.

use std::borrow::Cow;

use odrc_geometry::{Orientation, Polygon, Rect, Transform};

/// A polygon where it is placed: as stored (a cell's local geometry,
/// a polygon already in top coordinates, or a rectangle stored as its
/// MBR) plus the placement that takes it to top coordinates, and its
/// MBR there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placed<'a> {
    /// The stored polygon; `None` for a rectangle that is its MBR.
    polygon: Option<&'a Polygon>,
    /// Its placement; `None` when it is stored in top coordinates.
    transform: Option<Transform>,
    /// Its MBR in top coordinates.
    mbr: Rect,
}

impl<'a> Placed<'a> {
    /// `polygon` placed by `transform` (`None`: as stored).
    #[inline]
    pub(crate) fn new(polygon: &'a Polygon, transform: Option<Transform>) -> Placed<'a> {
        let mbr = polygon.mbr();
        let mbr = transform.map_or(mbr, |t| t.apply_rect(mbr));
        Placed {
            polygon: Some(polygon),
            transform,
            mbr,
        }
    }

    /// The rectangle `mbr`, in top coordinates, borrowing no polygon.
    #[inline]
    pub(crate) fn rect(mbr: Rect) -> Placed<'a> {
        Placed {
            polygon: None,
            transform: None,
            mbr,
        }
    }

    /// Its MBR in top coordinates.
    #[inline]
    pub(crate) fn mbr(self) -> Rect {
        self.mbr
    }

    /// Whether the polygon is a rectangle, i.e. equal to its MBR.
    #[inline]
    pub(crate) fn is_rect(self) -> bool {
        self.polygon.is_none_or(|p| p.len() == 4)
    }

    /// The polygon in top coordinates: borrowed when it is stored
    /// there, built otherwise.
    pub(crate) fn to_polygon(self) -> Cow<'a, Polygon> {
        match (self.polygon, self.transform) {
            (None, _) => Cow::Owned(Polygon::rect(self.mbr)),
            (Some(p), None) => Cow::Borrowed(p),
            (Some(p), Some(t)) => Cow::Owned(t.apply_polygon(p)),
        }
    }
}

/// Returns `true` if the closed rectangle `r` lies entirely inside the
/// rectilinear polygon `poly`.
///
/// The test combines corner containment with a crossing test: no
/// polygon edge may pass strictly through the rectangle's interior
/// (corners inside alone would miss a notch cutting through the middle).
pub fn rect_inside_polygon(r: Rect, poly: &Polygon) -> bool {
    if !poly.mbr().contains_rect(r) {
        return false;
    }
    for corner in r.corners() {
        if !poly.contains(corner) {
            return false;
        }
    }
    for e in poly.edges() {
        match e.orientation() {
            Orientation::Vertical => {
                if r.lo().x < e.track()
                    && e.track() < r.hi().x
                    && e.span().overlaps_open(r.y_range())
                {
                    return false;
                }
            }
            Orientation::Horizontal => {
                if r.lo().y < e.track()
                    && e.track() < r.hi().y
                    && e.span().overlaps_open(r.x_range())
                {
                    return false;
                }
            }
        }
    }
    true
}

/// Computes the enclosure margin of `inner` within the candidate
/// `outers`, clamped to `[-min, min]`.
///
/// The margin of one candidate is the largest `m` such that the inner
/// MBR inflated by `m` still lies inside the candidate; the overall
/// margin is the best across candidates (a via needs *one* sufficient
/// landing). A rectangular candidate's margin is computed in closed
/// form; any other polygon's by a binary search over at most
/// `log₂(2·min)` steps. Values outside `[-min, min]` are clamped — the
/// check only needs to know whether the margin reaches `min`.
///
/// Returns the clamped margin; the rule is violated when the result is
/// strictly below `min`.
///
/// # Examples
///
/// ```
/// use odrc::checks::enclosure_margin;
/// use odrc_geometry::{Polygon, Rect};
///
/// let via = Rect::from_coords(10, 10, 20, 20);
/// let metal = Polygon::rect(Rect::from_coords(0, 5, 40, 25));
/// // Margins: left 10, right 20, bottom 5, top 5 -> 5.
/// assert_eq!(enclosure_margin(via, &[&metal], 8), 5);
/// assert_eq!(enclosure_margin(via, &[&metal], 4), 4); // clamped: passes
/// ```
pub fn enclosure_margin(inner: Rect, outers: &[&Polygon], min: i64) -> i64 {
    placed_enclosure_margin(inner, outers.iter().map(|p| Placed::new(p, None)), min)
}

/// [`enclosure_margin`] over placed candidates: a rectangular candidate
/// is measured on its placed MBR in closed form, any other one is
/// placed once and searched. Equal to [`enclosure_margin`] over the
/// placed copies.
pub(crate) fn placed_enclosure_margin<'a>(
    inner: Rect,
    outers: impl IntoIterator<Item = Placed<'a>>,
    min: i64,
) -> i64 {
    let min = min.max(1);
    let mut best = -min;
    for outer in outers {
        let margin = if outer.is_rect() {
            rect_margin(inner, outer.mbr, min)
        } else {
            searched_margin(inner, &outer.to_polygon(), min)
        };
        let Some(margin) = margin else {
            continue;
        };
        best = best.max(margin);
        if best >= min {
            break;
        }
    }
    best
}

/// The margin of `inner` in the rectangle `outer`, clamped to
/// `[-min, min]` (`min ≥ 1`), or `None` when even the deflation by
/// `min` does not fit: [`searched_margin`]'s result for a four-vertex
/// polygon, in closed form. The inflation by `m` fits exactly when
/// `max(m, -c) ≤ d`, with `d` the smallest side distance from `inner`
/// to `outer` and `c` the deflation clamp of [`inside_with_margin`].
fn rect_margin(inner: Rect, outer: Rect, min: i64) -> Option<i64> {
    let d = [
        i64::from(inner.lo().x) - i64::from(outer.lo().x),
        i64::from(inner.lo().y) - i64::from(outer.lo().y),
        i64::from(outer.hi().x) - i64::from(inner.hi().x),
        i64::from(outer.hi().y) - i64::from(inner.hi().y),
    ]
    .into_iter()
    .min()
    .expect("four sides");
    let c = (inner.width() / 2).min(inner.height() / 2);
    (d >= (-min).max(-c)).then(|| d.min(min))
}

/// The margin of `inner` in any polygon `outer`: the largest workable
/// inflation in `[-min, min]` (`min ≥ 1`) by binary search, or `None`
/// when even the deflation by `min` does not fit.
fn searched_margin(inner: Rect, outer: &Polygon, min: i64) -> Option<i64> {
    let (mut lo, mut hi) = (-min, min);
    // Quick reject: even deflated by min, not inside.
    if !inside_with_margin(inner, outer, lo) {
        return None;
    }
    while lo < hi {
        let mid = lo + (hi - lo + 1) / 2;
        if inside_with_margin(inner, outer, mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(lo)
}

fn inside_with_margin(inner: Rect, outer: &Polygon, margin: i64) -> bool {
    let m = margin as i32;
    // Negative margins deflate; an over-deflated rect collapses and is
    // trivially inside if its center region is.
    let half_w = (inner.width() / 2) as i32;
    let half_h = (inner.height() / 2) as i32;
    let m = m.max(-half_w.min(half_h));
    let r = inner.inflate(m);
    rect_inside_polygon(r, outer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrc_geometry::Point;
    use proptest::prelude::*;

    fn rect(x0: i32, y0: i32, x1: i32, y1: i32) -> Rect {
        Rect::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn rect_inside_simple() {
        let outer = Polygon::rect(rect(0, 0, 100, 100));
        assert!(rect_inside_polygon(rect(10, 10, 20, 20), &outer));
        assert!(rect_inside_polygon(rect(0, 0, 100, 100), &outer)); // exact
        assert!(!rect_inside_polygon(rect(-1, 10, 20, 20), &outer));
        assert!(!rect_inside_polygon(rect(90, 90, 110, 95), &outer));
    }

    #[test]
    fn rect_inside_l_shape_notch() {
        // L-shape: the notch is the upper-right quadrant.
        let l = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(0, 100),
            Point::new(50, 100),
            Point::new(50, 50),
            Point::new(100, 50),
            Point::new(100, 0),
        ])
        .unwrap();
        assert!(rect_inside_polygon(rect(10, 10, 40, 90), &l));
        assert!(rect_inside_polygon(rect(10, 10, 90, 40), &l));
        // Crosses into the notch.
        assert!(!rect_inside_polygon(rect(40, 40, 60, 60), &l));
        // Entirely inside the notch (outside the polygon); all corners
        // outside.
        assert!(!rect_inside_polygon(rect(60, 60, 90, 90), &l));
        // Spans the notch horizontally: corners at y<=50 inside, but the
        // rect pokes above.
        assert!(!rect_inside_polygon(rect(10, 40, 90, 60), &l));
    }

    #[test]
    fn margin_centered_via() {
        let via = rect(45, 45, 55, 55);
        let metal = Polygon::rect(rect(0, 0, 100, 100));
        assert_eq!(enclosure_margin(via, &[&metal], 10), 10); // clamped
        assert_eq!(enclosure_margin(via, &[&metal], 60), 45);
    }

    #[test]
    fn margin_off_center() {
        let via = rect(2, 45, 12, 55);
        let metal = Polygon::rect(rect(0, 0, 100, 100));
        assert_eq!(enclosure_margin(via, &[&metal], 10), 2);
    }

    #[test]
    fn margin_poking_out_is_negative() {
        let via = rect(-5, 45, 5, 55);
        let metal = Polygon::rect(rect(0, 0, 100, 100));
        let m = enclosure_margin(via, &[&metal], 10);
        assert!(m < 0, "margin {m}");
    }

    #[test]
    fn margin_no_candidates() {
        let via = rect(0, 0, 10, 10);
        assert_eq!(enclosure_margin(via, &[], 8), -8);
    }

    #[test]
    fn best_candidate_wins() {
        let via = rect(20, 20, 30, 30);
        let narrow = Polygon::rect(rect(18, 0, 32, 100)); // margin 2
        let wide = Polygon::rect(rect(0, 0, 100, 100)); // margin 20 (clamp)
        assert_eq!(enclosure_margin(via, &[&narrow], 8), 2);
        assert_eq!(enclosure_margin(via, &[&narrow, &wide], 8), 8);
    }

    #[test]
    fn thin_via_deflation_clamp_rejects_poking_out() {
        // A 4-wide via deflates by at most 2, so poking out by 3 rejects
        // the candidate even though `min` would allow a deeper deflation.
        let metal = Polygon::rect(rect(0, 0, 100, 100));
        for (via, margin) in [(rect(-3, 10, 1, 90), -8), (rect(-2, 10, 2, 90), -2)] {
            assert_eq!(enclosure_margin(via, &[&metal], 8), margin);
            let expected = (margin > -8).then_some(margin);
            assert_eq!(rect_margin(via, metal.mbr(), 8), expected);
            assert_eq!(searched_margin(via, &metal, 8), expected);
        }
    }

    proptest! {
        #[test]
        fn rect_closed_form_equals_the_search(
            (ix, iy, iw, ih) in (-30i32..30, -30i32..30, 0i32..12, 0i32..12),
            (ox, oy, ow, oh) in (-30i32..30, -30i32..30, 1i32..50, 1i32..50),
            min in 0i64..16,
        ) {
            // Thin vias (the clamp binds), vias poking out of or
            // outside the outer, and `min = 0` (clamped to 1).
            let via = rect(ix, iy, ix + iw, iy + ih);
            let metal = Polygon::rect(rect(ox, oy, ox + ow, oy + oh));
            let clamped = min.max(1);
            prop_assert_eq!(
                rect_margin(via, metal.mbr(), clamped),
                searched_margin(via, &metal, clamped)
            );
            let searched = searched_margin(via, &metal, clamped).unwrap_or(-clamped);
            prop_assert_eq!(enclosure_margin(via, &[&metal], min), searched);
        }
    }

    /// The eight orientations (mirror × quarter turn), each followed by
    /// the translation `(dx, dy)`.
    fn orientations(dx: i32, dy: i32) -> impl Iterator<Item = Transform> {
        use odrc_geometry::Rotation;
        [false, true].into_iter().flat_map(move |mirror| {
            Rotation::ALL
                .into_iter()
                .map(move |r| Transform::new(mirror, r, 1, Point::new(dx, dy)))
        })
    }

    /// The L-shaped polygon over `[0, w] × [0, h]` whose upper-right
    /// quadrant is notched out.
    fn l_shape(w: i32, h: i32) -> Polygon {
        let (hw, hh) = (w / 2, h / 2);
        Polygon::new(vec![
            Point::new(0, 0),
            Point::new(0, h),
            Point::new(hw, h),
            Point::new(hw, hh),
            Point::new(w, hh),
            Point::new(w, 0),
        ])
        .unwrap()
    }

    proptest! {
        /// A landing placed by a reference measures the margin of its
        /// placed copy, whether it is a rectangle (closed form on the
        /// placed MBR) or an L (searched in the placed polygon), under
        /// every orientation, just below, at and just above `min`.
        #[test]
        fn placed_margin_equals_the_margin_in_the_placed_copy(
            (w, h) in (60i32..120, 60i32..120),
            (vw, vh) in (2i32..12, 2i32..12),
            min in 1i64..9,
            l_shaped in proptest::bool::ANY,
            (dx, dy) in (-500i32..500, -500i32..500),
        ) {
            let landing = if l_shaped {
                l_shape(w, h)
            } else {
                Polygon::rect(rect(0, 0, w, h))
            };
            for m in [min - 1, min, min + 1] {
                // The via sits `m` from the landing's left and bottom
                // sides, well inside the other sides and off the notch.
                let m32 = m as i32;
                let local = rect(m32, m32, m32 + vw, m32 + vh);
                for t in orientations(dx, dy) {
                    let via = t.apply_rect(local);
                    let placed = Placed::new(&landing, Some(t));
                    prop_assert_eq!(placed.mbr(), t.apply_polygon(&landing).mbr());
                    let measured = placed_enclosure_margin(via, [placed], min);
                    let copy = t.apply_polygon(&landing);
                    prop_assert_eq!(measured, enclosure_margin(via, &[&copy], min));
                    prop_assert_eq!(measured, m.min(min));
                }
            }
        }
    }

    /// The overlap-area measure of a pair rule, read straight from the
    /// scenes, equals the area a [`Region`](odrc_infra::Region) finds
    /// between every flattened (placed-copy) inner shape and the whole
    /// flattened outer layer: a rectangle on one rectangle (the closed
    /// form), on an L, on two landings and on none, and an L-shaped
    /// shape, in a cell placed under all eight orientations, plus a
    /// pair drawn in the top cell.
    #[test]
    fn overlap_measure_equals_the_region_over_placed_copies() {
        use crate::engine::{EngineOptions, EngineStats};
        use crate::rules::PairsRule;
        use crate::scene::LayerScene;
        use crate::sequential::{PairsWork, RunContext};
        use crate::violation::ViolationKind;
        use odrc_db::Layout;
        use odrc_gdsii::{Element, Library, RefElement, Structure};
        use odrc_infra::{Profiler, Region};
        use std::sync::Arc;

        let (outer, inner) = (1, 2);
        let poly = |layer: i16, p: &Polygon| Element::boundary(layer, p.vertices().to_vec());
        let rect_el = |layer, r: Rect| poly(layer, &Polygon::rect(r));
        let mut unit = Structure::new("UNIT");
        unit.elements.extend([
            poly(outer, &l_shape(40, 40)),
            rect_el(outer, rect(50, 0, 70, 20)),
            rect_el(inner, rect(15, 15, 25, 25)), // across the L's notch
            rect_el(inner, rect(45, 5, 55, 15)),  // half on the rectangle
            rect_el(inner, rect(100, 100, 110, 110)), // on nothing
            rect_el(inner, rect(35, 5, 55, 10)),  // on both landings
        ]);
        let l_via = Polygon::new(vec![
            Point::new(60, 10),
            Point::new(60, 30),
            Point::new(65, 30),
            Point::new(65, 15),
            Point::new(75, 15),
            Point::new(75, 10),
        ])
        .unwrap();
        unit.elements.push(poly(inner, &l_via));
        let mut top = Structure::new("TOP");
        for (k, t) in orientations(0, 0).enumerate() {
            let mut r = RefElement::sref("UNIT", Point::new(300 * k as i32, 0));
            r.mirror_x = t.mirror_x();
            r.angle_deg = 90.0 * f64::from(t.rotation().quarter_turns());
            top.elements.push(Element::Ref(r));
        }
        top.elements
            .push(rect_el(outer, rect(-100, -100, -60, -60)));
        top.elements.push(rect_el(inner, rect(-70, -70, -50, -50)));
        let mut lib = Library::new("overlap");
        lib.structures = vec![unit, top];
        let layout = Layout::from_library(&lib).unwrap();

        let options = EngineOptions::default();
        let (mut profiler, mut stats) = (Profiler::default(), EngineStats::default());
        let mut ctx = RunContext::new(&layout, &options, &mut profiler, &mut stats);
        let pairs = PairsRule {
            kind: ViolationKind::OverlapArea,
            inner,
            outer,
            min: 100,
        };
        let host = odrc_infra::HostExecutor::new(1);
        let scene = |layer| Arc::new(LayerScene::build_on(&layout, layer, None, &host));
        let work = PairsWork::new(&mut ctx, pairs, scene(inner), scene(outer), None);
        let mut measured: Vec<(Rect, i64)> = (0..work.len())
            .map(|i| (work.mbrs[i], work.measure(i)))
            .collect();

        let flat = |layer| {
            let mut out = Vec::new();
            layout.collect_layer_polygons(layout.top(), Transform::IDENTITY, layer, &mut out);
            out.into_iter().map(|f| f.polygon).collect::<Vec<_>>()
        };
        let landings = Region::from_polygons(&flat(outer));
        let mut expected: Vec<(Rect, i64)> = flat(inner)
            .iter()
            .map(|p| {
                (
                    p.mbr(),
                    Region::from_polygons([p]).intersection(&landings).area(),
                )
            })
            .collect();
        measured.sort_unstable();
        expected.sort_unstable();
        assert_eq!(measured, expected);
        // Each placement shares 75 (notch), 50 (half), 0, 50 (both
        // landings) and 75 (the L-shaped via); the top pair shares 100.
        let mut areas: Vec<i64> = measured.iter().map(|&(_, a)| a).collect();
        let mut want = [75, 50, 0, 50, 75].repeat(8);
        want.push(100);
        areas.sort_unstable();
        want.sort_unstable();
        assert_eq!(areas, want);
    }

    #[test]
    fn via_on_wire_matches_generator_geometry() {
        // The generator's clean V1: 10x10 via centered on an 18-wide M1
        // bar -> margin 4 in x, large in y.
        let bar = Polygon::rect(rect(-9, 0, 9, 210));
        let via = rect(-5, 100, 5, 110);
        assert_eq!(enclosure_margin(via, &[&bar], 4), 4); // passes == min
        assert_eq!(enclosure_margin(via, &[&bar], 5), 4); // fails < 5
    }
}
