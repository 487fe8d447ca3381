//! Rectilinear polygons in clockwise vertex order.

use std::fmt;

use crate::{Edge, Point, Rect, WideCoord};

/// Error produced when validating polygon vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolygonError {
    /// A rectilinear polygon needs at least four vertices.
    TooFewVertices {
        /// Number of vertices supplied.
        count: usize,
    },
    /// Two consecutive vertices coincide.
    DegenerateEdge {
        /// Index of the edge's start vertex.
        index: usize,
    },
    /// An edge is neither horizontal nor vertical.
    NotRectilinear {
        /// Index of the offending edge's start vertex.
        index: usize,
    },
    /// The polygon encloses zero area.
    ZeroArea,
}

impl fmt::Display for PolygonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolygonError::TooFewVertices { count } => {
                write!(f, "polygon has {count} vertices, at least 4 are required")
            }
            PolygonError::DegenerateEdge { index } => {
                write!(f, "polygon edge starting at vertex {index} has zero length")
            }
            PolygonError::NotRectilinear { index } => {
                write!(
                    f,
                    "polygon edge starting at vertex {index} is not axis-aligned"
                )
            }
            PolygonError::ZeroArea => write!(f, "polygon encloses zero area"),
        }
    }
}

impl std::error::Error for PolygonError {}

/// A simple rectilinear polygon.
///
/// Vertices are stored **without** repeating the first vertex and are
/// normalized to **clockwise** order at construction, as the paper's
/// edge-based check procedures require (§IV-D). Collinear runs are
/// merged so every stored vertex is a real corner.
///
/// # Examples
///
/// ```
/// use odrc_geometry::{Point, Polygon};
///
/// // An L-shape, given counter-clockwise; the constructor normalizes it.
/// let poly = Polygon::new(vec![
///     Point::new(0, 0),
///     Point::new(20, 0),
///     Point::new(20, 10),
///     Point::new(10, 10),
///     Point::new(10, 30),
///     Point::new(0, 30),
/// ])?;
/// assert!(poly.is_rectilinear());
/// assert_eq!(poly.area(), 20 * 10 + 10 * 20);
/// assert_eq!(poly.edges().count(), 6);
/// # Ok::<(), odrc_geometry::PolygonError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Builds a polygon from its corner vertices (first vertex not
    /// repeated at the end; a repeated closing vertex is tolerated and
    /// dropped).
    ///
    /// The vertex list is validated to be rectilinear and is normalized:
    /// collinear intermediate vertices are merged, the orientation is
    /// made clockwise, and the vertex rotation starts at the
    /// lexicographically smallest corner so that equal shapes compare
    /// equal.
    ///
    /// # Errors
    ///
    /// Returns [`PolygonError`] if fewer than four corners remain after
    /// normalization, if an edge has zero length or is not axis-aligned,
    /// or if the polygon encloses zero area.
    pub fn new(mut vertices: Vec<Point>) -> Result<Self, PolygonError> {
        if vertices.len() >= 2 && vertices.first() == vertices.last() {
            vertices.pop();
        }
        if vertices.len() < 4 {
            return Err(PolygonError::TooFewVertices {
                count: vertices.len(),
            });
        }
        for (i, (a, b)) in cyclic_pairs(&vertices).enumerate() {
            if a == b {
                return Err(PolygonError::DegenerateEdge { index: i });
            }
            if a.x != b.x && a.y != b.y {
                return Err(PolygonError::NotRectilinear { index: i });
            }
        }
        normalize_vertices(&mut vertices);
        if vertices.len() < 4 {
            return Err(PolygonError::TooFewVertices {
                count: vertices.len(),
            });
        }
        let mut poly = Polygon { vertices };
        let signed = poly.signed_area2();
        if signed == 0 {
            return Err(PolygonError::ZeroArea);
        }
        // Shoelace is positive for counter-clockwise; flip to clockwise.
        if signed > 0 {
            poly.vertices.reverse();
        }
        poly.rotate_to_canonical_start();
        Ok(poly)
    }

    /// Builds the rectangle polygon covering `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is degenerate (zero width or height).
    pub fn rect(r: Rect) -> Self {
        assert!(
            !r.is_degenerate(),
            "cannot build a polygon from degenerate rect {r}"
        );
        Polygon::new(r.corners().to_vec()).expect("rect corners form a valid polygon")
    }

    /// The corner vertices in clockwise order.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of corners (== number of edges).
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always `false`: a constructed polygon has at least four corners.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over the directed edges in clockwise order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Edge::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Returns `true`: constructed polygons are always rectilinear.
    ///
    /// This is the predicate behind the `is_rectilinear()` rule of the
    /// programming interface (Listing 1 of the paper); it exists so that
    /// rule decks can assert the invariant on data that arrived through
    /// other paths.
    #[inline]
    pub fn is_rectilinear(&self) -> bool {
        cyclic_pairs(&self.vertices).all(|(a, b)| a.x == b.x || a.y == b.y)
    }

    /// Twice the signed area (positive for counter-clockwise input), by
    /// the Shoelace theorem. Exposed for testing; most callers want
    /// [`Polygon::area`].
    fn signed_area2(&self) -> WideCoord {
        cyclic_pairs(&self.vertices).map(|(a, b)| a.cross(b)).sum()
    }

    /// Enclosed area in square database units, by the Shoelace theorem
    /// (§IV-D: "OpenDRC computes polygon areas by the Shoelace Theorem").
    #[inline]
    pub fn area(&self) -> WideCoord {
        self.signed_area2().abs() / 2
    }

    /// Minimum bounding rectangle.
    pub fn mbr(&self) -> Rect {
        Rect::bounding(self.vertices.iter().copied()).expect("polygon has at least four vertices")
    }

    /// Returns `true` if `p` lies inside the polygon or on its boundary.
    ///
    /// Uses integer ray casting against the vertical edges, with the
    /// half-open span convention so vertices are counted once.
    pub fn contains(&self, p: Point) -> bool {
        // Boundary counts as inside.
        if self.edges().any(|e| {
            let m = e.mbr();
            m.contains(p)
        }) {
            return true;
        }
        let mut inside = false;
        for e in self.edges() {
            if e.orientation() != crate::Orientation::Vertical {
                continue;
            }
            let span = e.span();
            // Half-open [lo, hi) so a ray through a vertex toggles once.
            if span.lo() <= p.y && p.y < span.hi() && e.track() > p.x {
                inside = !inside;
            }
        }
        inside
    }

    /// The polygon translated by `delta`.
    pub fn translate(&self, delta: Point) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&v| v + delta).collect(),
        }
    }

    fn rotate_to_canonical_start(&mut self) {
        let start = self
            .vertices
            .iter()
            .enumerate()
            .min_by_key(|&(_, v)| v)
            .map(|(i, _)| i)
            .expect("non-empty vertex list");
        self.vertices.rotate_left(start);
    }

    /// Rebuilds the polygon from raw transformed vertices, re-validating
    /// and re-normalizing. Used by [`Transform::apply_polygon`].
    ///
    /// [`Transform::apply_polygon`]: crate::Transform::apply_polygon
    pub(crate) fn from_transformed(vertices: Vec<Point>) -> Polygon {
        Polygon::new(vertices).expect("transform of a valid polygon is valid")
    }
}

/// Each vertex with its successor, the last paired with the first.
fn cyclic_pairs(vertices: &[Point]) -> impl Iterator<Item = (Point, Point)> + '_ {
    let successors = vertices.iter().skip(1).chain(vertices.first());
    vertices.iter().copied().zip(successors.copied())
}

/// Removes adjacent duplicates and merges collinear runs until stable,
/// in place: a list that is already normal is only read. Spike removal
/// can create new duplicates, which in turn can create new collinear
/// runs, so a single pass is not enough.
fn normalize_vertices(vertices: &mut Vec<Point>) {
    loop {
        let before = vertices.len();
        // Drop adjacent duplicates, including across the wrap-around.
        vertices.dedup();
        while vertices.len() > 1 && vertices.first() == vertices.last() {
            vertices.pop();
        }
        let n = vertices.len();
        if n == 0 {
            return;
        }
        // Merge collinear runs (a spike's tip is also collinear),
        // judging each vertex by its neighbours before the merge: the
        // kept prefix never overtakes the vertex being read.
        let first = vertices[0];
        let mut prev = vertices[n - 1];
        let mut kept = 0;
        for i in 0..n {
            let cur = vertices[i];
            let next = if i + 1 < n { vertices[i + 1] } else { first };
            let collinear =
                (prev.x == cur.x && cur.x == next.x) || (prev.y == cur.y && cur.y == next.y);
            if !collinear {
                vertices[kept] = cur;
                kept += 1;
            }
            prev = cur;
        }
        vertices.truncate(kept);
        if kept == before || kept == 0 {
            return;
        }
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "polygon[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coord;
    use proptest::prelude::*;

    fn p(x: Coord, y: Coord) -> Point {
        Point::new(x, y)
    }

    fn lshape() -> Polygon {
        Polygon::new(vec![
            p(0, 0),
            p(20, 0),
            p(20, 10),
            p(10, 10),
            p(10, 30),
            p(0, 30),
        ])
        .unwrap()
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            Polygon::new(vec![p(0, 0), p(1, 0), p(1, 1)]),
            Err(PolygonError::TooFewVertices { count: 3 })
        );
        assert_eq!(
            Polygon::new(vec![p(0, 0), p(0, 0), p(1, 0), p(1, 1)]),
            Err(PolygonError::DegenerateEdge { index: 0 })
        );
        assert_eq!(
            Polygon::new(vec![p(0, 0), p(5, 5), p(5, 0), p(0, 0), p(0, 5)]),
            Err(PolygonError::NotRectilinear { index: 0 })
        );
        // A zero-area "blade": all vertices on one line collapse away
        // during collinear merging.
        assert_eq!(
            Polygon::new(vec![p(0, 0), p(0, 5), p(0, 9), p(0, 5)]),
            Err(PolygonError::TooFewVertices { count: 0 })
        );
        // A spike on an otherwise flat outline also collapses to nothing.
        assert_eq!(
            Polygon::new(vec![p(0, 0), p(0, 5), p(3, 5), p(3, 9), p(3, 5), p(0, 5)]),
            Err(PolygonError::TooFewVertices { count: 0 })
        );
    }

    #[test]
    fn closing_vertex_tolerated() {
        let a = Polygon::new(vec![p(0, 0), p(0, 5), p(5, 5), p(5, 0), p(0, 0)]).unwrap();
        let b = Polygon::new(vec![p(0, 0), p(0, 5), p(5, 5), p(5, 0)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn orientation_normalized_to_clockwise() {
        let cw = Polygon::new(vec![p(0, 0), p(0, 5), p(5, 5), p(5, 0)]).unwrap();
        let ccw = Polygon::new(vec![p(0, 0), p(5, 0), p(5, 5), p(0, 5)]).unwrap();
        assert_eq!(cw, ccw);
        // Clockwise: first edge from the lexicographically smallest vertex
        // goes up.
        assert_eq!(cw.vertices()[0], p(0, 0));
        assert_eq!(cw.vertices()[1], p(0, 5));
    }

    #[test]
    fn collinear_vertices_merged() {
        let with_extra =
            Polygon::new(vec![p(0, 0), p(0, 2), p(0, 5), p(5, 5), p(5, 0), p(2, 0)]).unwrap();
        let plain = Polygon::new(vec![p(0, 0), p(0, 5), p(5, 5), p(5, 0)]).unwrap();
        assert_eq!(with_extra, plain);
    }

    #[test]
    fn shoelace_area() {
        assert_eq!(Polygon::rect(Rect::from_coords(0, 0, 4, 7)).area(), 28);
        assert_eq!(lshape().area(), 400);
    }

    #[test]
    fn mbr_covers_shape() {
        assert_eq!(lshape().mbr(), Rect::from_coords(0, 0, 20, 30));
    }

    #[test]
    fn edge_iteration_clockwise_closed() {
        let sq = Polygon::rect(Rect::from_coords(0, 0, 5, 5));
        let edges: Vec<Edge> = sq.edges().collect();
        assert_eq!(edges.len(), 4);
        // The walk returns to the start.
        assert_eq!(edges[0].from, edges[3].to);
        // Interior is to the right of every clockwise edge.
        for e in &edges {
            assert!(e.interior_sign() == 1 || e.interior_sign() == -1);
        }
    }

    #[test]
    fn contains_points() {
        let l = lshape();
        assert!(l.contains(p(5, 5))); // inside lower arm
        assert!(l.contains(p(5, 25))); // inside upper arm
        assert!(!l.contains(p(15, 20))); // in the notch
        assert!(l.contains(p(0, 0))); // corner
        assert!(l.contains(p(10, 20))); // on inner boundary
        assert!(!l.contains(p(21, 5))); // outside right
        assert!(!l.contains(p(-1, 5))); // outside left
    }

    #[test]
    fn translate_preserves_shape() {
        let l = lshape();
        let t = l.translate(p(100, -50));
        assert_eq!(t.area(), l.area());
        assert_eq!(t.mbr(), l.mbr().translate(p(100, -50)));
    }

    #[test]
    fn rect_constructor_panics_on_degenerate() {
        let result = std::panic::catch_unwind(|| Polygon::rect(Rect::from_coords(0, 0, 0, 5)));
        assert!(result.is_err());
    }

    /// Strategy: a random rectilinear "staircase ring" polygon.
    fn arb_rectilinear() -> impl Strategy<Value = Polygon> {
        // Build from a random set of x/y cut coordinates forming a
        // histogram-like shape above a baseline.
        (2usize..8, 1i32..20).prop_flat_map(|(cols, _)| {
            proptest::collection::vec(1i32..20, cols).prop_map(move |raw| {
                // Force consecutive heights to differ so no vertical
                // step degenerates to a zero-length edge.
                let mut heights: Vec<i32> = Vec::with_capacity(raw.len());
                for h in raw {
                    match heights.last() {
                        Some(&prev) if prev == h => heights.push(h + 1),
                        _ => heights.push(h),
                    }
                }
                let mut verts = vec![Point::new(0, 0)];
                let mut x = 0;
                for (i, h) in heights.iter().enumerate() {
                    verts.push(Point::new(x, *h));
                    x += 5;
                    verts.push(Point::new(x, *h));
                    if i + 1 == heights.len() {
                        verts.push(Point::new(x, 0));
                    }
                }
                Polygon::new(verts).unwrap()
            })
        })
    }

    proptest! {
        #[test]
        fn area_matches_scanline_decomposition(poly in arb_rectilinear()) {
            // Integrate the histogram column areas directly.
            let mbr = poly.mbr();
            let mut brute: WideCoord = 0;
            for x in mbr.lo().x..mbr.hi().x {
                for y in mbr.lo().y..mbr.hi().y {
                    // Count unit cells whose center-ish representative
                    // (lower-left corner offset into the open cell) is inside.
                    if poly.contains(Point::new(x, y)) && poly.contains(Point::new(x + 1, y + 1))
                        && poly.contains(Point::new(x + 1, y)) && poly.contains(Point::new(x, y + 1)) {
                        brute += 1;
                    }
                }
            }
            // Every fully-contained unit cell contributes 1; boundary cells
            // are all inside for histogram shapes, so areas agree exactly.
            prop_assert_eq!(poly.area(), brute);
        }

        #[test]
        fn vertices_alternate_orientation(poly in arb_rectilinear()) {
            let edges: Vec<Edge> = poly.edges().collect();
            for w in edges.windows(2) {
                prop_assert_ne!(w[0].orientation(), w[1].orientation());
            }
        }

        #[test]
        fn translate_roundtrip(poly in arb_rectilinear(), dx in -100i32..100, dy in -100i32..100) {
            let t = poly.translate(Point::new(dx, dy)).translate(Point::new(-dx, -dy));
            prop_assert_eq!(t, poly);
        }

        #[test]
        fn normal_form_ignores_start_direction_and_collinear_vertices(
            poly in arb_rectilinear(),
            start in 0usize..64,
            reverse in proptest::bool::ANY,
            split in 0usize..64,
        ) {
            // A normal vertex list is kept in place: no new buffer.
            let normal = poly.vertices().to_vec();
            let buffer = normal.as_ptr();
            let again = Polygon::new(normal).unwrap();
            prop_assert_eq!(again.vertices().as_ptr(), buffer);
            prop_assert_eq!(&again, &poly);
            // Any start, either direction, with a vertex added in the
            // middle of one edge, normalizes to the same polygon.
            let mut raw = poly.vertices().to_vec();
            let n = raw.len();
            raw.rotate_left(start % n);
            if reverse {
                raw.reverse();
            }
            let i = split % n;
            let (a, b) = (raw[i], raw[(i + 1) % n]);
            let mid = Point::new(a.x + (b.x - a.x) / 2, a.y + (b.y - a.y) / 2);
            if mid != a && mid != b {
                raw.insert(i + 1, mid);
            }
            prop_assert_eq!(Polygon::new(raw).unwrap(), poly);
        }
    }
}
