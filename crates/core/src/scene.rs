//! Per-layer object scenes.
//!
//! Inter-polygon checks operate on *objects*: the direct placements
//! under the top cell plus the top cell's own polygons. A
//! [`LayerScene`] gathers, for one layer, each object's layer MBR (for
//! partitioning and pair pruning) and a per-cell cache of flattened
//! subtree polygons in cell-local coordinates — computed once per cell
//! definition no matter how many times the cell is placed, which is the
//! database half of the hierarchical reuse of §IV-C.
//!
//! A build has two passes. Pass 1 walks the top cell once and is kept as
//! a value, [`LayerObjects`]: the layer's objects in *proto order* with
//! their MBRs and their positions in the top cell. Pass 2 (`assemble`)
//! turns a sorted list of proto indices — the *members* — into a scene
//! in O(members). In-core, delta-window and shard scenes all go through
//! it, so a rule that builds many scenes of a layer walks it once.

use std::collections::HashMap;

use odrc_db::{CellId, CellRef, Layer, Layout};
use odrc_geometry::{Coord, Polygon, Rect, Transform};

/// What a scene object refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneSource {
    /// A placement of a cell under the top cell.
    Cell {
        /// The placed cell.
        cell: CellId,
        /// Its transform into top coordinates.
        transform: Transform,
    },
    /// A polygon drawn directly in the top cell.
    TopPolygon {
        /// Index into the scene's top-polygon list.
        index: usize,
    },
}

/// One object of the scene with its layer MBR in top coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SceneObject {
    /// Layer MBR in top coordinates.
    pub mbr: Rect,
    /// The referenced geometry.
    pub source: SceneSource,
}

/// All objects of one layer, with cached per-cell flat geometry.
#[derive(Debug)]
pub struct LayerScene {
    /// The layer this scene describes.
    pub layer: Layer,
    /// Objects in construction order (placements, then top polygons).
    pub objects: Vec<SceneObject>,
    /// Flattened subtree polygons per placed cell, local coordinates.
    local: HashMap<CellId, Vec<Polygon>>,
    /// The top cell's own polygons on this layer.
    top_polys: Vec<Polygon>,
}

/// The halo of a delta re-check: the dirty rects of an edit plus the
/// rule's interaction margin.
///
/// [`DirtyWindow::hits`] is the *one* overlap predicate of the delta
/// scheme: the delta checker drops an old violation exactly when it
/// hits the window, and keeps a re-discovered violation exactly when it
/// hits the window — using a single predicate on both sides is what
/// makes the splice exact.
#[derive(Debug, Clone, Copy)]
pub struct DirtyWindow<'a> {
    /// MBRs of the geometry that differs between the two layouts (both
    /// the old and the new extents).
    pub rects: &'a [Rect],
    /// The rule's interaction distance, clamped to coordinate range.
    pub margin: Coord,
}

impl DirtyWindow<'_> {
    /// Whether a violation location overlaps any inflated dirty rect.
    pub fn hits(&self, location: Rect) -> bool {
        self.rects
            .iter()
            .any(|d| d.inflate(self.margin).overlaps(location))
    }
}

impl LayerScene {
    /// Builds the scene for `layer`.
    pub fn build(layout: &Layout, layer: Layer) -> LayerScene {
        LayerScene::build_on(layout, layer, None, &odrc_infra::HostExecutor::new(1))
    }

    /// Builds the scene for `layer`, restricted to the objects that can
    /// participate in a violation overlapping `window` (when given).
    ///
    /// The filter is a two-ring construction around the dirty rects:
    ///
    /// * **seeds** — objects whose layer MBR overlaps a dirty rect
    ///   inflated by twice the margin: every violation location
    ///   overlapping the window is within the margin of one
    ///   participant's edge, so that participant's MBR lands in this
    ///   ring;
    /// * **neighbours** — objects whose MBR overlaps a seed's MBR
    ///   inflated by the margin: the second participant of a pairwise
    ///   violation is within the margin of the first.
    ///
    /// Cells whose placements are all filtered out are never flattened,
    /// which is where a small edit on a large layout saves its work.
    /// The per-cell subtree flattening fans out on `host`: the unique
    /// kept cells are collected in first-occurrence order, their flat
    /// polygon lists computed in parallel, and the scene assembled
    /// serially — the result is identical for any thread count.
    pub fn build_on(
        layout: &Layout,
        layer: Layer,
        window: Option<DirtyWindow<'_>>,
        host: &odrc_infra::HostExecutor,
    ) -> LayerScene {
        LayerScene::build_counted(layout, layer, window, host, &mut 0)
    }

    /// [`LayerScene::build_on`] for the engine: one pass 1 (added to
    /// `scanned`), the member list — every object, or the two-ring
    /// [`DirtyWindow`] filter over the proto MBRs — then pass 2.
    pub(crate) fn build_counted(
        layout: &Layout,
        layer: Layer,
        window: Option<DirtyWindow<'_>>,
        host: &odrc_infra::HostExecutor,
        scanned: &mut u64,
    ) -> LayerScene {
        let objects = LayerObjects::enumerate(layout, layer, scanned);
        let mbrs = &objects.mbrs;
        let members: Vec<usize> = match window {
            None => (0..mbrs.len()).collect(),
            Some(w) => {
                let seed_margin = w.margin.saturating_mul(2).saturating_add(2);
                let seeded: Vec<Rect> = w.rects.iter().map(|d| d.inflate(seed_margin)).collect();
                let seeds: Vec<bool> = mbrs
                    .iter()
                    .map(|m| seeded.iter().any(|s| s.overlaps(*m)))
                    .collect();
                let rings: Vec<Rect> = mbrs
                    .iter()
                    .zip(&seeds)
                    .filter(|(_, s)| **s)
                    .map(|(m, _)| m.inflate(w.margin.saturating_add(1)))
                    .collect();
                (0..mbrs.len())
                    .filter(|&i| seeds[i] || rings.iter().any(|r| r.overlaps(mbrs[i])))
                    .collect()
            }
        };
        assemble(layout, layer, &objects, &members, host)
    }

    /// Builds the scene restricted to the objects overlapping one
    /// window rectangle — the outer side of an out-of-core enclosure
    /// shard, whose members all live in a contiguous row band. One rect
    /// test per cached proto MBR keeps the filter linear in the layer
    /// population (the two-ring [`DirtyWindow`] filter is quadratic in
    /// dense scenes and only needed for scattered diff rects).
    pub(crate) fn build_window_on(
        layout: &Layout,
        layer: Layer,
        objects: &LayerObjects,
        window: Rect,
        host: &odrc_infra::HostExecutor,
    ) -> LayerScene {
        let members: Vec<usize> = (0..objects.mbrs.len())
            .filter(|&i| window.overlaps(objects.mbrs[i]))
            .collect();
        assemble(layout, layer, objects, &members, host)
    }

    /// The flattened local polygons of a placed cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell` was not placed in this scene.
    pub fn local_polygons(&self, cell: CellId) -> &[Polygon] {
        self.local
            .get(&cell)
            .expect("cell placed in this scene")
            .as_slice()
    }

    /// The unique placed cells of the scene.
    pub fn placed_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.local.keys().copied()
    }

    /// A top polygon by index.
    pub fn top_polygon(&self, index: usize) -> &Polygon {
        &self.top_polys[index]
    }

    /// All polygons of one object, in top coordinates.
    pub fn object_polygons(&self, obj: &SceneObject) -> Vec<Polygon> {
        let mut out = Vec::new();
        self.object_polygons_into(obj, &mut out);
        out
    }

    /// [`LayerScene::object_polygons`] appended into a caller-owned
    /// buffer — the allocation-free variant for hot loops that visit
    /// many objects (enclosure gathering).
    pub fn object_polygons_into(&self, obj: &SceneObject, out: &mut Vec<Polygon>) {
        match obj.source {
            SceneSource::Cell { cell, transform } => {
                let polys = self.local_polygons(cell);
                out.reserve(polys.len());
                out.extend(polys.iter().map(|p| transform.apply_polygon(p)));
            }
            SceneSource::TopPolygon { index } => out.push(self.top_polys[index].clone()),
        }
    }

    /// The polygons of one object whose top-coordinate MBR overlaps
    /// `window`. Transformation of a polygon happens only when its MBR
    /// passes the window filter, so border checks between two large
    /// placements touch only the border geometry.
    pub fn object_polygons_in(&self, obj: &SceneObject, window: Rect) -> Vec<Polygon> {
        let mut out = Vec::new();
        self.object_polygons_in_into(obj, window, &mut out);
        out
    }

    /// [`LayerScene::object_polygons_in`] appended into a caller-owned
    /// buffer — the allocation-free variant for the enclosure gather,
    /// which calls this once per candidate of every inner shape.
    pub fn object_polygons_in_into(&self, obj: &SceneObject, window: Rect, out: &mut Vec<Polygon>) {
        match obj.source {
            SceneSource::Cell { cell, transform } => out.extend(
                self.local_polygons(cell)
                    .iter()
                    .filter(|p| transform.apply_rect(p.mbr()).overlaps(window))
                    .map(|p| transform.apply_polygon(p)),
            ),
            SceneSource::TopPolygon { index } => {
                let p = &self.top_polys[index];
                if p.mbr().overlaps(window) {
                    out.push(p.clone());
                }
            }
        }
    }

    /// Total flat polygon count of the scene (hierarchy expanded).
    pub fn flat_polygon_count(&self) -> usize {
        self.objects
            .iter()
            .map(|o| match o.source {
                SceneSource::Cell { cell, .. } => self.local_polygons(cell).len(),
                SceneSource::TopPolygon { .. } => 1,
            })
            .sum()
    }

    /// Approximate resident size of the scene in bytes: object records
    /// plus every cached polygon's vertex storage (with a fixed
    /// per-polygon overhead for the `Vec` headers). This is the byte
    /// cost the out-of-core [`ShardPool`](crate::shard::ShardPool)
    /// charges against its budget — an accounting estimate, not an
    /// allocator measurement.
    pub(crate) fn approx_bytes(&self) -> u64 {
        const POLY_OVERHEAD: u64 = 48;
        let vertex = std::mem::size_of::<odrc_geometry::Point>() as u64;
        let mut bytes = (self.objects.len() * std::mem::size_of::<SceneObject>()) as u64;
        for polys in self.local.values() {
            for p in polys {
                bytes += POLY_OVERHEAD + p.vertices().len() as u64 * vertex;
            }
        }
        for p in &self.top_polys {
            bytes += POLY_OVERHEAD + p.vertices().len() as u64 * vertex;
        }
        bytes
    }
}

/// Pass 1 of a scene build, kept as a value: every object of `layer`
/// with its layer MBR in top coordinates — no flattening. The order is
/// the *proto order*: the top cell's references whose cell has `layer`,
/// then the top cell's polygons on `layer`, each group in top-cell
/// order. Object `i` of an unwindowed [`LayerScene::build_on`] is proto
/// `i`; member lists, `plan_shards`' partition and the shard hull all
/// index by it.
#[derive(Default)]
pub(crate) struct LayerObjects {
    /// Layer MBR of each object, proto order.
    pub mbrs: Vec<Rect>,
    /// `top.refs()` index of each reference object (protos `..refs.len()`).
    refs: Vec<u32>,
    /// `top.polygons()` index of each top-polygon object (the rest).
    polys: Vec<u32>,
}

impl LayerObjects {
    /// Walks the top cell's children once; `scanned` grows by their
    /// count ([`EngineStats::scene_objects_scanned`](crate::EngineStats)).
    pub(crate) fn enumerate(layout: &Layout, layer: Layer, scanned: &mut u64) -> LayerObjects {
        let top = layout.cell(layout.top());
        *scanned += (top.refs().len() + top.polygons().len()) as u64;
        // One MBR lookup per cell definition, not per placement.
        let cell_mbrs: Vec<Option<Rect>> =
            layout.cells().iter().map(|c| c.layer_mbr(layer)).collect();
        let index = |i: usize| u32::try_from(i).expect("top-cell child index fits u32");
        let mut objects = LayerObjects::default();
        for (i, r) in top.refs().iter().enumerate() {
            if let Some(local_mbr) = cell_mbrs[r.cell.index()] {
                objects.mbrs.push(r.transform.apply_rect(local_mbr));
                objects.refs.push(index(i));
            }
        }
        for (k, p) in top.polygons().iter().enumerate() {
            if p.layer == layer {
                objects.mbrs.push(p.polygon.mbr());
                objects.polys.push(index(k));
            }
        }
        objects
    }
}

/// Pass 2 of a scene build: derive the member objects (sorted proto
/// indices) from the top cell by index and flatten what they place.
/// Only the member objects survive, only their cells are flattened, and
/// only their top polygons are copied — this is the residency unit of
/// the out-of-core [`ShardPool`](crate::shard::ShardPool), and nothing
/// in it walks the layer: a rebuild after eviction costs O(members) too.
///
/// The expensive step — flattening each unique member cell's subtree —
/// fans out on the executor (first-occurrence order); the rest is
/// serial and O(members).
pub(crate) fn assemble(
    layout: &Layout,
    layer: Layer,
    protos: &LayerObjects,
    members: &[usize],
    host: &odrc_infra::HostExecutor,
) -> LayerScene {
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "sorted members");
    let top_cell = layout.cell(layout.top());
    // Sorted members: the references come first, as in proto order.
    let (placed, drawn) = members.split_at(members.partition_point(|&m| m < protos.refs.len()));
    let mut objects = Vec::with_capacity(members.len());
    let mut uniq: Vec<CellId> = Vec::new();
    let mut seen: std::collections::HashSet<CellId> = std::collections::HashSet::new();
    for &m in placed {
        let CellRef { cell, transform } = top_cell.refs()[protos.refs[m] as usize];
        if seen.insert(cell) {
            uniq.push(cell);
        }
        let source = SceneSource::Cell { cell, transform };
        let mbr = protos.mbrs[m];
        objects.push(SceneObject { mbr, source });
    }
    let flats = host.run("scene", uniq.len(), |i| {
        let mut flat = Vec::new();
        layout.collect_layer_polygons(uniq[i], Transform::IDENTITY, layer, &mut flat);
        flat.into_iter().map(|f| f.polygon).collect::<Vec<_>>()
    });
    let local: HashMap<CellId, Vec<Polygon>> = uniq.into_iter().zip(flats).collect();
    let mut top_polys = Vec::with_capacity(drawn.len());
    for &m in drawn {
        let index = top_polys.len();
        let source = SceneSource::TopPolygon { index };
        let mbr = protos.mbrs[m];
        objects.push(SceneObject { mbr, source });
        let k = protos.polys[m - protos.refs.len()] as usize;
        top_polys.push(top_cell.polygons()[k].polygon.clone());
    }
    LayerScene {
        layer,
        objects,
        local,
        top_polys,
    }
}

/// Enumerates, for every cell, the transforms of all its instantiations
/// in top coordinates (the top cell itself has the identity transform).
///
/// Hierarchical intra-polygon checks compute violations once per cell
/// and replay them through these transforms (§IV-C).
pub fn instance_transforms(layout: &Layout) -> HashMap<CellId, Vec<Transform>> {
    let mut map: HashMap<CellId, Vec<Transform>> = HashMap::new();
    fn rec(layout: &Layout, cell: CellId, t: Transform, map: &mut HashMap<CellId, Vec<Transform>>) {
        map.entry(cell).or_default().push(t);
        for r in layout.cell(cell).refs() {
            rec(layout, r.cell, r.transform.then(&t), map);
        }
    }
    rec(layout, layout.top(), Transform::IDENTITY, &mut map);
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrc_gdsii::{Element, Library, Structure};
    use odrc_geometry::Point;
    use odrc_layoutgen::{generate_layout, DesignSpec};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn p(x: i32, y: i32) -> Point {
        Point::new(x, y)
    }

    fn demo_layout() -> Layout {
        let mut lib = Library::new("t");
        let mut unit = Structure::new("UNIT");
        unit.elements.push(Element::boundary(
            1,
            vec![p(0, 0), p(0, 10), p(10, 10), p(10, 0)],
        ));
        unit.elements.push(Element::boundary(
            2,
            vec![p(20, 0), p(20, 4), p(24, 4), p(24, 0)],
        ));
        lib.structures.push(unit);
        let mut top = Structure::new("TOP");
        top.elements.push(Element::sref("UNIT", p(0, 0)));
        top.elements.push(Element::sref("UNIT", p(100, 0)));
        top.elements.push(Element::boundary(
            1,
            vec![p(0, 50), p(0, 54), p(40, 54), p(40, 50)],
        ));
        lib.structures.push(top);
        Layout::from_library(&lib).unwrap()
    }

    #[test]
    fn scene_objects_cover_placements_and_top_polys() {
        let layout = demo_layout();
        let scene = LayerScene::build(&layout, 1);
        assert_eq!(scene.objects.len(), 3); // two placements + one top poly
        assert_eq!(scene.flat_polygon_count(), 3);
        let scene2 = LayerScene::build(&layout, 2);
        assert_eq!(scene2.objects.len(), 2); // placements only
        let scene9 = LayerScene::build(&layout, 9);
        assert!(scene9.objects.is_empty());
    }

    #[test]
    fn local_cache_shared_between_instances() {
        let layout = demo_layout();
        let scene = LayerScene::build(&layout, 1);
        assert_eq!(scene.placed_cells().count(), 1); // UNIT cached once
        let unit = layout.cell_by_name("UNIT").unwrap();
        assert_eq!(scene.local_polygons(unit).len(), 1);
    }

    #[test]
    fn object_polygons_transformed() {
        let layout = demo_layout();
        let scene = LayerScene::build(&layout, 1);
        let second = &scene.objects[1];
        let polys = scene.object_polygons(second);
        assert_eq!(polys.len(), 1);
        assert_eq!(polys[0].mbr(), Rect::from_coords(100, 0, 110, 10));
    }

    #[test]
    fn windowed_polygons_filter() {
        let layout = demo_layout();
        let scene = LayerScene::build(&layout, 1);
        let obj = &scene.objects[0];
        assert_eq!(
            scene
                .object_polygons_in(obj, Rect::from_coords(-5, -5, 2, 2))
                .len(),
            1
        );
        assert!(scene
            .object_polygons_in(obj, Rect::from_coords(50, 50, 60, 60))
            .is_empty());
        // Top polygon object.
        let top_obj = &scene.objects[2];
        assert_eq!(
            scene
                .object_polygons_in(top_obj, Rect::from_coords(0, 50, 5, 52))
                .len(),
            1
        );
    }

    #[test]
    fn parallel_build_matches_serial() {
        let layout = demo_layout();
        for layer in [1, 2] {
            let serial = LayerScene::build(&layout, layer);
            for threads in [2, 8] {
                let host = odrc_infra::HostExecutor::new(threads);
                let par = LayerScene::build_on(&layout, layer, None, &host);
                assert_eq!(par.objects, serial.objects);
                assert_eq!(par.flat_polygon_count(), serial.flat_polygon_count());
                for obj in &serial.objects {
                    assert_eq!(par.object_polygons(obj), serial.object_polygons(obj));
                }
            }
        }
    }

    /// What `approx_bytes` charges for one cached polygon.
    fn poly_bytes(p: &Polygon) -> u64 {
        48 + std::mem::size_of_val(p.vertices()) as u64
    }

    /// `scene` must be `full` (the unwindowed scene of the same layer)
    /// filtered to the proto indices `members`: same objects in member
    /// order with top polygons renumbered densely, same geometry per
    /// object, exactly the members' cells flattened, and the residency
    /// cost the pool would have charged for that content.
    fn assert_is_subset(full: &LayerScene, members: &[usize], scene: &LayerScene) {
        assert_eq!(scene.layer, full.layer);
        assert_eq!(scene.objects.len(), members.len());
        let mut cells = BTreeSet::new();
        let mut bytes = (members.len() * std::mem::size_of::<SceneObject>()) as u64;
        let mut drawn = 0;
        for (obj, &m) in scene.objects.iter().zip(members) {
            let want = &full.objects[m];
            assert_eq!(obj.mbr, want.mbr);
            match want.source {
                SceneSource::Cell { cell, .. } => {
                    assert_eq!(obj.source, want.source);
                    cells.insert(cell);
                }
                SceneSource::TopPolygon { index } => {
                    assert_eq!(obj.source, SceneSource::TopPolygon { index: drawn });
                    drawn += 1;
                    bytes += poly_bytes(full.top_polygon(index));
                }
            }
            assert_eq!(scene.object_polygons(obj), full.object_polygons(want));
        }
        assert_eq!(scene.placed_cells().collect::<BTreeSet<_>>(), cells);
        for &cell in &cells {
            bytes += full
                .local_polygons(cell)
                .iter()
                .map(poly_bytes)
                .sum::<u64>();
        }
        assert_eq!(scene.approx_bytes(), bytes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The equivalence every shard scene rests on: a scene assembled
        /// from a member list is the full scene filtered to it, and a
        /// window build is the member build of the overlapping protos.
        #[test]
        fn member_and_window_builds_equal_the_filtered_full_scene(
            seed in 0u64..8,
            mask in proptest::collection::vec(proptest::bool::ANY, 1..48),
            corners in (0usize..1 << 16, 0usize..1 << 16),
        ) {
            let layout = generate_layout(&DesignSpec::tiny(seed));
            let top = layout.cell(layout.top());
            let host = odrc_infra::HostExecutor::new(2);
            for layer in layout.layers() {
                let mut scanned = 0;
                let objects = LayerObjects::enumerate(&layout, layer, &mut scanned);
                prop_assert_eq!(scanned as usize, top.refs().len() + top.polygons().len());
                // The proto-order contract `plan_shards` indexes by.
                let full = LayerScene::build_on(&layout, layer, None, &host);
                let mbrs: Vec<Rect> = full.objects.iter().map(|o| o.mbr).collect();
                prop_assert_eq!(&objects.mbrs, &mbrs);
                let all: Vec<usize> = (0..mbrs.len()).collect();
                assert_is_subset(&full, &all, &full);

                let members: Vec<usize> =
                    all.iter().copied().filter(|i| mask[i % mask.len()]).collect();
                let subset = assemble(&layout, layer, &objects, &members, &host);
                assert_is_subset(&full, &members, &subset);

                let empty = assemble(&layout, layer, &objects, &[], &host);
                prop_assert!(empty.objects.is_empty() && empty.placed_cells().next().is_none());
                prop_assert_eq!(empty.approx_bytes(), 0);

                if mbrs.is_empty() {
                    continue;
                }
                let window = mbrs[corners.0 % mbrs.len()].hull(mbrs[corners.1 % mbrs.len()]);
                let inside: Vec<usize> =
                    all.iter().copied().filter(|&i| window.overlaps(mbrs[i])).collect();
                let windowed =
                    LayerScene::build_window_on(&layout, layer, &objects, window, &host);
                assert_is_subset(&full, &inside, &windowed);
            }
        }
    }

    #[test]
    fn into_variants_append() {
        let layout = demo_layout();
        let scene = LayerScene::build(&layout, 1);
        let mut buf = Vec::new();
        for obj in &scene.objects {
            scene.object_polygons_into(obj, &mut buf);
        }
        assert_eq!(buf.len(), scene.flat_polygon_count());
        let window = Rect::from_coords(-5, -5, 2, 2);
        let before = buf.len();
        scene.object_polygons_in_into(&scene.objects[0], window, &mut buf);
        assert_eq!(buf.len() - before, 1); // appended, not cleared
    }

    #[test]
    fn instance_transforms_counts() {
        let layout = demo_layout();
        let map = instance_transforms(&layout);
        let unit = layout.cell_by_name("UNIT").unwrap();
        assert_eq!(map[&unit].len(), 2);
        assert_eq!(map[&layout.top()].len(), 1);
        assert_eq!(map[&layout.top()][0], Transform::IDENTITY);
    }
}
