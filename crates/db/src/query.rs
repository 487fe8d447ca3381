//! Hierarchical queries over the layout database.
//!
//! The layer range query of §IV-A descends the hierarchy tree from the
//! root and "prunes the whole subtree rooted at an element if its MBR
//! for the interested layer is empty" (or disjoint from the query
//! window), reducing the complexity from `O(n)` to `O(min(n, kh))`.

use odrc_geometry::{Polygon, Rect, Transform};

use crate::build::topo_order;
use crate::{CellId, FlatPolygon, Layer, Layout};

impl Layout {
    /// Visits every leaf polygon of `layer` whose MBR intersects
    /// `window`, instantiated into top-level coordinates.
    ///
    /// Subtrees whose layer MBR is absent or disjoint from the window
    /// are pruned without being visited.
    pub fn layer_query<F>(&self, layer: Layer, window: Rect, mut visit: F)
    where
        F: FnMut(FlatPolygon),
    {
        self.layer_query_in(self.top(), Transform::IDENTITY, layer, window, &mut visit);
    }

    fn layer_query_in<F>(
        &self,
        cell: CellId,
        transform: Transform,
        layer: Layer,
        window: Rect,
        visit: &mut F,
    ) where
        F: FnMut(FlatPolygon),
    {
        let c = self.cell(cell);
        // Prune on the subtree's layer MBR.
        match c.layer_mbr(layer) {
            None => return,
            Some(mbr) => {
                if !transform.apply_rect(mbr).overlaps(window) {
                    return;
                }
            }
        }
        for (pi, p) in c.polygons.iter().enumerate() {
            if p.layer != layer {
                continue;
            }
            let mbr = transform.apply_rect(p.polygon.mbr());
            if mbr.overlaps(window) {
                visit(FlatPolygon {
                    cell,
                    index: pi,
                    polygon: transform.apply_polygon(&p.polygon),
                });
            }
        }
        for r in &c.refs {
            self.layer_query_in(r.cell, r.transform.then(&transform), layer, window, visit);
        }
    }

    /// Instantiates every polygon of `layer` into top-level coordinates
    /// (a full flatten of one layer).
    pub fn flatten_layer(&self, layer: Layer) -> Vec<FlatPolygon> {
        let mut out = Vec::new();
        self.collect_layer_polygons(self.top(), Transform::IDENTITY, layer, &mut out);
        out
    }

    /// Collects the polygons of `layer` under `cell`, transformed by
    /// `base`, appending to `out`. This is the flattening primitive the
    /// engine's check executors use to pack edges for a subtree.
    pub fn collect_layer_polygons(
        &self,
        cell: CellId,
        base: Transform,
        layer: Layer,
        out: &mut Vec<FlatPolygon>,
    ) {
        let c = self.cell(cell);
        if c.layer_mbr(layer).is_none() {
            return; // layer-wise pruning
        }
        for (pi, p) in c.polygons.iter().enumerate() {
            if p.layer == layer {
                out.push(FlatPolygon {
                    cell,
                    index: pi,
                    polygon: base.apply_polygon(&p.polygon),
                });
            }
        }
        for r in &c.refs {
            self.collect_layer_polygons(r.cell, r.transform.then(&base), layer, out);
        }
    }

    /// Collects just the *geometry* of `layer` under `cell` (no
    /// provenance), for baseline checkers that flatten everything.
    pub fn flatten_layer_polygons(&self, layer: Layer) -> Vec<Polygon> {
        self.flatten_layer(layer)
            .into_iter()
            .map(|f| f.polygon)
            .collect()
    }

    /// Total number of instantiated polygons on a layer (with the
    /// hierarchy expanded), without materializing them.
    pub fn instance_count(&self, layer: Layer) -> usize {
        self.instance_count_in(
            &topo_order(self.cells()).expect("layout DAG is acyclic"),
            layer,
        )
    }

    /// [`Layout::instance_count`] over a children-before-parents
    /// `order` of every cell: one bottom-up pass that counts each cell
    /// once, however often it is placed.
    pub(crate) fn instance_count_in(&self, order: &[usize], layer: Layer) -> usize {
        let mut counts = vec![0usize; self.cell_count()];
        for &(cell, _) in self.layer_polygons(layer) {
            counts[cell.index()] += 1;
        }
        for &ci in order {
            let c = &self.cells()[ci];
            if c.layer_mbr(layer).is_some() {
                counts[ci] += c
                    .refs()
                    .iter()
                    .map(|r| counts[r.cell.index()])
                    .sum::<usize>();
            }
        }
        counts[self.top().index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrc_gdsii::{Element, Library, RefElement, Structure};
    use odrc_geometry::Point;

    fn p(x: i32, y: i32) -> Point {
        Point::new(x, y)
    }

    /// TOP places UNIT (one layer-1 square and one layer-2 square) at
    /// four spots; UNIT nests a SUB holding the layer-2 square.
    fn layout() -> Layout {
        let mut lib = Library::new("t");
        let mut sub = Structure::new("SUB");
        sub.elements.push(Element::boundary(
            2,
            vec![p(0, 0), p(0, 4), p(4, 4), p(4, 0)],
        ));
        lib.structures.push(sub);
        let mut unit = Structure::new("UNIT");
        unit.elements.push(Element::boundary(
            1,
            vec![p(0, 0), p(0, 10), p(10, 10), p(10, 0)],
        ));
        unit.elements.push(Element::sref("SUB", p(2, 2)));
        lib.structures.push(unit);
        let mut top = Structure::new("TOP");
        for (i, origin) in [p(0, 0), p(100, 0), p(0, 100), p(100, 100)]
            .into_iter()
            .enumerate()
        {
            let mut r = RefElement::sref("UNIT", origin);
            if i == 3 {
                r.angle_deg = 180.0;
            }
            top.elements.push(Element::Ref(r));
        }
        lib.structures.push(top);
        Layout::from_library(&lib).unwrap()
    }

    #[test]
    fn flatten_counts_all_instances() {
        let l = layout();
        assert_eq!(l.flatten_layer(1).len(), 4);
        assert_eq!(l.flatten_layer(2).len(), 4);
        assert_eq!(l.flatten_layer(3).len(), 0);
        assert_eq!(l.instance_count(1), 4);
        assert_eq!(l.instance_count(2), 4);
        assert_eq!(l.instance_count(9), 0);
    }

    #[test]
    fn flatten_applies_nested_transforms() {
        let l = layout();
        let polys = l.flatten_layer(2);
        let mbrs: Vec<Rect> = polys.iter().map(|f| f.polygon.mbr()).collect();
        // Instance at (0,0): SUB at (2,2) size 4.
        assert!(mbrs.contains(&Rect::from_coords(2, 2, 6, 6)));
        // Rotated-180 instance at (100,100): SUB occupies [-6,-2]^2 + (100,100).
        assert!(mbrs.contains(&Rect::from_coords(94, 94, 98, 98)));
    }

    #[test]
    fn window_query_prunes() {
        let l = layout();
        let mut hits = Vec::new();
        l.layer_query(1, Rect::from_coords(-5, -5, 20, 20), |f| hits.push(f));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].polygon.mbr(), Rect::from_coords(0, 0, 10, 10));

        let mut hits = Vec::new();
        l.layer_query(1, Rect::from_coords(50, 50, 60, 60), |f| hits.push(f));
        assert!(hits.is_empty());

        // Window covering everything returns all instances.
        let mut hits = Vec::new();
        l.layer_query(1, Rect::from_coords(-1000, -1000, 1000, 1000), |f| {
            hits.push(f)
        });
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn query_on_absent_layer_is_empty() {
        let l = layout();
        let mut hits = Vec::new();
        l.layer_query(42, Rect::from_coords(-1000, -1000, 1000, 1000), |f| {
            hits.push(f)
        });
        assert!(hits.is_empty());
    }

    #[test]
    fn flat_polygons_carry_provenance() {
        let l = layout();
        let unit = l.cell_by_name("UNIT").unwrap();
        let polys = l.flatten_layer(1);
        assert!(polys.iter().all(|f| f.cell == unit && f.index == 0));
    }

    #[test]
    fn query_window_touching_mbr_counts() {
        let l = layout();
        let mut hits = Vec::new();
        // Window touching the (0,0) square's right edge at x=10.
        l.layer_query(1, Rect::from_coords(10, 0, 20, 5), |f| hits.push(f));
        assert_eq!(hits.len(), 1);
    }
}
