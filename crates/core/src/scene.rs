//! Per-layer object scenes, and the one hierarchy walk ([`walk`]).
//!
//! Inter-polygon checks operate on *objects*: the walk's cut of a layer
//! — each leaf placement (a flat cell) and each polygon a frame (the top
//! cell, or a block placed in it) draws on the layer. On a one-level
//! design the objects are the top cell's placements and polygons. A
//! [`LayerScene`] gathers, for one layer, each object's layer MBR (for
//! partitioning and pair pruning) and each placed cell's polygons in
//! cell-local coordinates — copied once per cell definition no matter
//! how many times the cell is placed, which is the database half of the
//! hierarchical reuse of §IV-C; intra-polygon checks replay through the
//! walk's instance table, [`cell_instances`]. A scene keeps nothing the
//! layout or the scene already holds: a frame's rectangle is its
//! object's MBR ([`SceneSource::TopRect`]), since a frame placement maps
//! a rectangle onto its MBR, and only other frame polygons are placed
//! into top coordinates and stored. A spacing template counts its
//! placements ([`LayerScene::templates`]); the scene's objects are the
//! placements it is replayed through.
//!
//! A build has two passes. Pass 1 walks the cut once and is kept as a
//! value, [`LayerObjects`]: the layer's objects in *proto order* with
//! their MBRs and their positions in their frames. Pass 2 (`assemble`)
//! turns a sorted list of proto indices — the *members* — into a scene
//! in O(members). In-core, delta-window and shard scenes all go through
//! it, so a rule that builds many scenes of a layer walks it once.

use odrc_db::{Cell, CellId, Layer, Layout};
use odrc_geometry::{Coord, Polygon, Rect, Transform};

use crate::checks::Placed;

/// What a scene object refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneSource {
    /// A leaf placement of a flat cell.
    Cell {
        /// The placed cell.
        cell: CellId,
        /// Its transform into top coordinates.
        transform: Transform,
    },
    /// A non-rectangular polygon drawn in a frame, stored in top
    /// coordinates.
    TopPolygon {
        /// Index into the scene's top-polygon list.
        index: usize,
    },
    /// A rectangle drawn in a frame: the object's MBR, stored nowhere
    /// else.
    TopRect,
}

/// One object of the scene with its layer MBR in top coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SceneObject {
    /// Layer MBR in top coordinates.
    pub mbr: Rect,
    /// The referenced geometry.
    pub source: SceneSource,
}

/// All objects of one layer, with cached per-cell geometry.
#[derive(Debug)]
pub struct LayerScene {
    /// The layer this scene describes.
    pub layer: Layer,
    /// Objects in member (proto) order.
    pub objects: Vec<SceneObject>,
    /// Each placed cell's polygons, local coordinates, first occurrence
    /// first (`slot`: its index here by `CellId`).
    local: Vec<(CellId, Vec<Polygon>)>,
    slot: Vec<Option<u32>>,
    /// The frames' non-rectangular polygons on this layer, top
    /// coordinates.
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
    /// Builds the scene for `layer`, restricted to the objects that can
    /// participate in a violation overlapping `window` (when given; see
    /// [`LayerObjects::near`]). Cells whose placements are all filtered
    /// out are never copied, which is where a small edit on a large
    /// layout saves its work. The per-cell polygon copies fan out on
    /// `host`: the unique kept cells are collected in first-occurrence
    /// order, their polygon lists copied in parallel, and the scene
    /// assembled serially — the result is identical for any thread
    /// count.
    pub fn build_on(
        layout: &Layout,
        layer: Layer,
        window: Option<DirtyWindow<'_>>,
        host: &odrc_infra::HostExecutor,
    ) -> LayerScene {
        let objects = LayerObjects::enumerate(layout, layer, &mut 0);
        assemble(layout, layer, &objects, &objects.near(window), host)
    }

    /// The local polygons of a placed cell on the scene's layer.
    ///
    /// # Panics
    ///
    /// Panics if `cell` was not placed in this scene.
    pub fn local_polygons(&self, cell: CellId) -> &[Polygon] {
        let slot = self.slot[cell.index()].expect("cell placed in this scene");
        &self.local[slot as usize].1
    }

    /// The unique placed cells of the scene, first occurrence first.
    pub fn placed_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.local.iter().map(|(cell, _)| *cell)
    }

    /// Each placed cell, first occurrence first, with its placement
    /// count: the spacing templates (§IV-C), of which there are none
    /// without `pruning` (the flat pack keeps every polygon). The
    /// placements themselves are the scene's `Cell` objects.
    pub(crate) fn templates(&self, pruning: bool) -> Vec<(CellId, usize)> {
        if !pruning {
            return Vec::new();
        }
        let mut templates: Vec<_> = self.placed_cells().map(|c| (c, 0)).collect();
        for obj in &self.objects {
            if let SceneSource::Cell { cell, .. } = obj.source {
                let slot = self.slot[cell.index()].expect("a placed cell has a slot");
                templates[slot as usize].1 += 1;
            }
        }
        templates
    }

    /// A frame polygon by index, in top coordinates.
    pub fn top_polygon(&self, index: usize) -> &Polygon {
        &self.top_polys[index]
    }

    /// The polygons of one object where they are placed: a placed
    /// cell's local polygons in cache order, or the frame polygon.
    /// Nothing is copied; [`Placed::to_polygon`] builds a
    /// placed polygon where one is needed.
    pub(crate) fn placed_polygons(
        &self,
        obj: &SceneObject,
    ) -> impl Iterator<Item = Placed<'_>> + '_ {
        let (polys, transform) = self.stored(obj);
        let rect = (obj.source == SceneSource::TopRect).then(|| Placed::rect(obj.mbr));
        polys
            .iter()
            .map(move |p| Placed::new(p, transform))
            .chain(rect)
    }

    /// Polygon `k` of [`LayerScene::placed_polygons`] of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if the object has no polygon `k`.
    pub(crate) fn placed_polygon(&self, obj: &SceneObject, k: usize) -> Placed<'_> {
        if obj.source == SceneSource::TopRect {
            assert_eq!(k, 0, "a frame rectangle is one polygon");
            return Placed::rect(obj.mbr);
        }
        let (polys, transform) = self.stored(obj);
        Placed::new(&polys[k], transform)
    }

    /// One object's polygons as stored (none for a frame rectangle),
    /// and the placement that takes them to top coordinates.
    fn stored(&self, obj: &SceneObject) -> (&[Polygon], Option<Transform>) {
        match obj.source {
            SceneSource::Cell { cell, transform } => (self.local_polygons(cell), Some(transform)),
            SceneSource::TopPolygon { index } => {
                (std::slice::from_ref(&self.top_polys[index]), None)
            }
            SceneSource::TopRect => (&[], None),
        }
    }

    /// Approximate resident size of the scene in bytes: object records
    /// (a frame rectangle is nothing more) plus every stored polygon's
    /// vertex storage (with a fixed per-polygon overhead for the `Vec`
    /// headers). This is the byte cost the out-of-core
    /// [`ShardPool`](crate::shard::ShardPool) charges against its
    /// budget — an accounting estimate, not an allocator measurement.
    pub fn approx_bytes(&self) -> u64 {
        const POLY_OVERHEAD: u64 = 48;
        let vertex = std::mem::size_of::<odrc_geometry::Point>() as u64;
        let mut bytes = (self.objects.len() * std::mem::size_of::<SceneObject>()) as u64;
        for (_, polys) in &self.local {
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
/// with its layer MBR in top coordinates — no flattening. The *proto
/// order* is the walk's: frame by frame, each frame's leaf placements
/// and then its polygons on `layer` (on a one-level design, the top
/// cell's references and then its polygons). Object `i` of an
/// unwindowed [`LayerScene::build_on`] is proto `i`; member lists,
/// `plan_shards`' partition and the shard hull all index by it.
#[derive(Default)]
pub(crate) struct LayerObjects {
    /// Layer MBR of each object, proto order.
    pub mbrs: Vec<Rect>,
    /// Each object's `refs()` (a leaf) or `polygons()` index in its frame.
    child: Vec<u32>,
    /// Each frame, walk order: its cell and placement, its first proto
    /// and its first polygon proto.
    frames: Vec<(CellId, Transform, usize, usize)>,
}

impl LayerObjects {
    /// Walks the cut of `layer` once; `scanned` grows by each frame's
    /// child count ([`EngineStats::scene_objects_scanned`](crate::EngineStats)).
    pub(crate) fn enumerate(layout: &Layout, layer: Layer, scanned: &mut u64) -> LayerObjects {
        // One MBR lookup per cell definition, not per placement.
        let cell_mbrs: Vec<Option<Rect>> =
            layout.cells().iter().map(|c| c.layer_mbr(layer)).collect();
        let index = |i: usize| u32::try_from(i).expect("child index fits u32");
        let (mut objects, mut start) = (LayerObjects::default(), 0);
        walk(layout, &cell_mbrs, |leaf, cell, at| {
            if let Some(i) = leaf {
                let local = cell_mbrs[cell.index()].expect("a leaf is on the layer");
                objects.mbrs.push(at.apply_rect(local));
                objects.child.push(index(i));
                return;
            }
            let c = layout.cell(cell);
            *scanned += (c.refs().len() + c.polygons().len()) as u64;
            objects.frames.push((cell, at, start, objects.mbrs.len()));
            for (k, p) in c.polygons().iter().enumerate() {
                if p.layer == layer {
                    objects.mbrs.push(at.apply_rect(p.polygon.mbr()));
                    objects.child.push(index(k));
                }
            }
            start = objects.mbrs.len();
        });
        objects
    }

    /// The members a scene restricted to `window` keeps (every object
    /// without one): a two-ring construction around the dirty rects.
    ///
    /// * **seeds** — objects whose layer MBR overlaps a dirty rect
    ///   inflated by twice the margin: every violation location
    ///   overlapping the window is within the margin of one
    ///   participant's edge, so that participant's MBR lands in this
    ///   ring;
    /// * **neighbours** — objects whose MBR overlaps a seed's MBR
    ///   inflated by the margin: the second participant of a pairwise
    ///   violation is within the margin of the first.
    pub(crate) fn near(&self, window: Option<DirtyWindow<'_>>) -> Vec<usize> {
        let mbrs = &self.mbrs;
        let Some(w) = window else {
            return (0..mbrs.len()).collect();
        };
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

    /// The members overlapping one window rectangle — the outer side of
    /// an out-of-core enclosure shard, whose members all live in a
    /// contiguous row band. One rect test per proto MBR keeps the filter
    /// linear in the layer population ([`LayerObjects::near`] is
    /// quadratic in dense scenes and only needed for scattered diff
    /// rects).
    pub(crate) fn within(&self, window: Rect) -> Vec<usize> {
        (0..self.mbrs.len())
            .filter(|&i| window.overlaps(self.mbrs[i]))
            .collect()
    }
}

/// The one hierarchy walk (§IV-A's tree at every depth). A *frame* is
/// the top cell or an instance of a cell that places cells with
/// geometry; other cells are flat. Depth first, transforms composed, it
/// calls `f(Some(i), ..)` for each flat child `refs()[i]` of a frame that
/// is `on` (`on[child]` is set), then `f(None, ..)` for the frame, then
/// enters its frame children that are `on`. A block and its contents
/// drawn in place yield the same leaves.
fn walk(layout: &Layout, on: &[Option<Rect>], mut f: impl FnMut(Option<usize>, CellId, Transform)) {
    let cells = layout.cells();
    let frame: Vec<bool> = (cells.iter().map(Cell::refs))
        .map(|refs| refs.iter().any(|r| cells[r.cell.index()].mbr().is_some()))
        .collect();
    let mut stack = vec![(layout.top(), Transform::IDENTITY)];
    while let Some((cell, at)) = stack.pop() {
        let first = stack.len();
        for (i, r) in cells[cell.index()].refs().iter().enumerate() {
            if on[r.cell.index()].is_none() {
                continue;
            }
            let t = r.transform.then(&at);
            if frame[r.cell.index()] {
                stack.push((r.cell, t));
            } else {
                f(Some(i), r.cell, t);
            }
        }
        f(None, cell, at);
        stack[first..].reverse(); // frame children pop in `refs()` order
    }
}

/// Every instance of every cell with geometry, in top coordinates,
/// indexed by `CellId`: the [`walk`] with no layer filter. Intra-polygon
/// checks replay their per-cell results through it (§IV-C).
pub fn cell_instances(layout: &Layout) -> Vec<Vec<Transform>> {
    let mbrs: Vec<Option<Rect>> = layout.cells().iter().map(|c| c.mbr()).collect();
    let mut table = vec![Vec::new(); mbrs.len()];
    walk(layout, &mbrs, |_, cell, t| table[cell.index()].push(t));
    table
}

/// Pass 2 of a scene build: derive the member objects (sorted proto
/// indices) from their frames by index, copying each member cell's
/// polygons once and placing each member frame polygon that is not a
/// rectangle (a rectangle is its object's MBR). Only the member
/// objects survive — this is the residency unit of the out-of-core
/// [`ShardPool`](crate::shard::ShardPool), and nothing in it walks the
/// layer: a rebuild after eviction costs O(members) too. The cell copies
/// fan out on the executor (first-occurrence order).
pub(crate) fn assemble(
    layout: &Layout,
    layer: Layer,
    protos: &LayerObjects,
    members: &[usize],
    host: &odrc_infra::HostExecutor,
) -> LayerScene {
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "sorted members");
    let mut objects = Vec::with_capacity(members.len());
    let mut slot = vec![None; layout.cells().len()];
    let (mut uniq, mut top_polys) = (Vec::new(), Vec::new());
    let mut f = 0;
    for &m in members {
        while protos.frames.get(f + 1).is_some_and(|next| next.2 <= m) {
            f += 1;
        }
        let (frame, at, _, drawn) = protos.frames[f];
        let child = protos.child[m] as usize;
        let source = if m < drawn {
            let r = layout.cell(frame).refs()[child];
            let (cell, transform) = (r.cell, r.transform.then(&at));
            slot[cell.index()].get_or_insert_with(|| {
                uniq.push(cell);
                uniq.len() as u32 - 1
            });
            SceneSource::Cell { cell, transform }
        } else {
            let polygon = &layout.cell(frame).polygons()[child].polygon;
            if polygon.len() == 4 {
                SceneSource::TopRect
            } else {
                top_polys.push(match at {
                    Transform::IDENTITY => polygon.clone(),
                    t => t.apply_polygon(polygon),
                });
                let index = top_polys.len() - 1;
                SceneSource::TopPolygon { index }
            }
        };
        let mbr = protos.mbrs[m];
        objects.push(SceneObject { mbr, source });
    }
    let local = host.run("scene", uniq.len(), |i| {
        let polys = layout.cell(uniq[i]).polygons_on(layer);
        polys.map(|p| p.polygon.clone()).collect::<Vec<_>>()
    });
    LayerScene {
        layer,
        objects,
        slot,
        local: uniq.into_iter().zip(local).collect(),
        top_polys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrc_gdsii::{Element, Library, Structure};
    use odrc_geometry::Point;
    use odrc_layoutgen::{generate_layout, DesignSpec};
    use proptest::prelude::*;
    use std::borrow::Cow;
    use std::collections::BTreeSet;

    fn p(x: i32, y: i32) -> Point {
        Point::new(x, y)
    }

    /// The scene of `layer` on a one-thread executor.
    fn build(layout: &Layout, layer: Layer) -> LayerScene {
        LayerScene::build_on(layout, layer, None, &odrc_infra::HostExecutor::new(1))
    }

    /// Total placed polygon count of the scene.
    fn flat_count(scene: &LayerScene) -> usize {
        let objects = scene.objects.iter();
        objects.map(|o| scene.placed_polygons(o).count()).sum()
    }

    /// All polygons of one object, in top coordinates.
    fn polygons_of(scene: &LayerScene, obj: &SceneObject) -> Vec<Polygon> {
        scene
            .placed_polygons(obj)
            .map(|p| p.to_polygon().into_owned())
            .collect()
    }

    /// How many of one object's placed polygons meet `window`.
    fn count_in(scene: &LayerScene, obj: &SceneObject, window: Rect) -> usize {
        scene
            .placed_polygons(obj)
            .filter(|p| p.mbr().overlaps(window))
            .count()
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
        let scene = build(&layout, 1);
        assert_eq!(scene.objects.len(), 3); // two placements + one top poly
        assert_eq!(flat_count(&scene), 3);
        let scene2 = build(&layout, 2);
        assert_eq!(scene2.objects.len(), 2); // placements only
        let scene9 = build(&layout, 9);
        assert!(scene9.objects.is_empty());
    }

    #[test]
    fn local_cache_shared_between_instances() {
        let layout = demo_layout();
        let scene = build(&layout, 1);
        assert_eq!(scene.placed_cells().count(), 1); // UNIT cached once
        let unit = layout.cell_by_name("UNIT").unwrap();
        assert_eq!(scene.local_polygons(unit).len(), 1);
    }

    #[test]
    fn object_polygons_transformed() {
        let layout = demo_layout();
        let scene = build(&layout, 1);
        let second = &scene.objects[1];
        let polys = polygons_of(&scene, second);
        assert_eq!(polys.len(), 1);
        assert_eq!(polys[0].mbr(), Rect::from_coords(100, 0, 110, 10));
    }

    #[test]
    fn windowed_polygons_filter() {
        let layout = demo_layout();
        let scene = build(&layout, 1);
        let obj = &scene.objects[0];
        assert_eq!(count_in(&scene, obj, Rect::from_coords(-5, -5, 2, 2)), 1);
        assert_eq!(count_in(&scene, obj, Rect::from_coords(50, 50, 60, 60)), 0);
        // Top polygon object.
        let top_obj = &scene.objects[2];
        assert_eq!(
            count_in(&scene, top_obj, Rect::from_coords(0, 50, 5, 52)),
            1
        );
    }

    #[test]
    fn parallel_build_matches_serial() {
        let layout = demo_layout();
        for layer in [1, 2] {
            let serial = build(&layout, layer);
            for threads in [2, 8] {
                let host = odrc_infra::HostExecutor::new(threads);
                let par = LayerScene::build_on(&layout, layer, None, &host);
                assert_eq!(par.objects, serial.objects);
                assert_eq!(flat_count(&par), flat_count(&serial));
                for obj in &serial.objects {
                    assert_eq!(polygons_of(&par, obj), polygons_of(&serial, obj));
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
    /// order with stored top polygons renumbered densely (a frame
    /// rectangle stores nothing), same geometry per
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
                SceneSource::TopRect => assert_eq!(obj.source, want.source),
                SceneSource::TopPolygon { index } => {
                    assert_eq!(obj.source, SceneSource::TopPolygon { index: drawn });
                    drawn += 1;
                    bytes += poly_bytes(full.top_polygon(index));
                }
            }
            assert_eq!(polygons_of(scene, obj), polygons_of(full, want));
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
                assert_eq!(objects.within(window), inside);
                let windowed = assemble(&layout, layer, &objects, &inside, &host);
                assert_is_subset(&full, &inside, &windowed);
            }
        }
    }

    /// The L-shaped polygon over `[x, x + 20] × [y, y + 20]` whose
    /// upper-right quadrant is notched out.
    fn l_shape(x: i32, y: i32) -> Vec<Point> {
        let corners = [(0, 0), (0, 20), (10, 20), (10, 10), (20, 10), (20, 0)];
        corners.iter().map(|&(dx, dy)| p(x + dx, y + dy)).collect()
    }

    #[test]
    fn placed_polygons_borrow_what_is_stored_in_top_coordinates() {
        // `demo_layout` plus an L drawn in the top cell.
        let mut lib = demo_layout().to_library("t");
        let top = lib.structures.iter_mut().find(|s| s.name == "TOP").unwrap();
        top.elements.push(Element::boundary(1, l_shape(60, 60)));
        let layout = Layout::from_library(&lib).unwrap();
        let scene = build(&layout, 1);
        let placed: Vec<Placed<'_>> = scene
            .objects
            .iter()
            .flat_map(|obj| scene.placed_polygons(obj))
            .collect();
        assert_eq!(placed.len(), flat_count(&scene));
        for p in &placed {
            assert_eq!(p.to_polygon().mbr(), p.mbr());
        }
        // The placements' polygons are built, and so is the frame
        // rectangle, which only its MBR stores; the L is stored and
        // borrowed.
        let sources: Vec<SceneSource> = scene.objects.iter().map(|o| o.source).collect();
        assert!(matches!(
            sources[..2],
            [SceneSource::Cell { .. }, SceneSource::Cell { .. }]
        ));
        assert_eq!(
            sources[2..],
            [SceneSource::TopRect, SceneSource::TopPolygon { index: 0 }]
        );
        assert!(matches!(placed[1].to_polygon(), Cow::Owned(_)));
        assert!(placed[2].is_rect());
        assert!(
            matches!(placed[2].to_polygon(), Cow::Owned(q) if q == Polygon::rect(scene.objects[2].mbr))
        );
        assert!(!placed[3].is_rect());
        assert!(
            matches!(placed[3].to_polygon(), Cow::Borrowed(q) if std::ptr::eq(q, scene.top_polygon(0)))
        );
        assert_eq!(scene.top_polygon(0).vertices(), l_shape(60, 60));
        // The pool charges the object records and the stored polygons.
        let objects = 4 * std::mem::size_of::<SceneObject>() as u64;
        let unit = layout.cell_by_name("UNIT").unwrap();
        let stored = [&scene.local_polygons(unit)[0], scene.top_polygon(0)];
        let polys: u64 = stored.into_iter().map(poly_bytes).sum();
        assert_eq!(scene.approx_bytes(), objects + polys);
    }

    /// A frame's rectangle is a [`SceneSource::TopRect`] whose one
    /// placed polygon is its MBR, and that MBR is the layout's own
    /// rectangle placed into top coordinates — under each of the eight
    /// orientations of a frame one level down, and two levels down.
    #[test]
    fn a_frame_rectangle_is_its_mbr_under_every_orientation() {
        use odrc_geometry::Rotation;
        let flat = |layout: &Layout| {
            let mut out = Vec::new();
            layout.collect_layer_polygons(layout.top(), Transform::IDENTITY, 1, &mut out);
            let mut polys: Vec<Polygon> = out.into_iter().map(|f| f.polygon).collect();
            polys.sort_by_key(|q| q.vertices().to_vec());
            polys
        };
        for k in 0..8 {
            let t = Transform::new(k >= 4, Rotation::from_quarter_turns(k % 4), 1, p(7, -3));
            let once = wrap(demo_layout().to_library("t"), "TOP", "WRAP", t);
            let twice = wrap(once.clone(), "WRAP", "OUTER", t.then(&t));
            for lib in [once, twice] {
                let layout = Layout::from_library(&lib).unwrap();
                let scene = build(&layout, 1);
                let rects = scene
                    .objects
                    .iter()
                    .filter(|o| o.source == SceneSource::TopRect);
                assert_eq!(
                    rects.clone().count(),
                    lib.structures.len() - 1,
                    "one per frame"
                );
                for obj in rects {
                    let placed: Vec<Polygon> = polygons_of(&scene, obj);
                    assert_eq!(placed, [Polygon::rect(obj.mbr)]);
                }
                let mut all: Vec<Polygon> = (scene.objects.iter())
                    .flat_map(|o| polygons_of(&scene, o))
                    .collect();
                all.sort_by_key(|q| q.vertices().to_vec());
                assert_eq!(all, flat(&layout), "orientation {k}");
                assert_eq!(scene.approx_bytes(), {
                    let unit = layout.cell_by_name("UNIT").unwrap();
                    let cached = poly_bytes(&scene.local_polygons(unit)[0]);
                    (scene.objects.len() * std::mem::size_of::<SceneObject>()) as u64 + cached
                });
            }
        }
    }

    #[test]
    fn cell_instances_counts() {
        let layout = demo_layout();
        let table = cell_instances(&layout);
        let unit = layout.cell_by_name("UNIT").unwrap();
        assert_eq!(table[unit.index()].len(), 2);
        assert_eq!(table[layout.top().index()], [Transform::IDENTITY]);
    }

    /// `lib` one level down: its top cell `inner` placed by a new top
    /// `name` under `t`, which also draws one rectangle of its own.
    fn wrap(mut lib: Library, inner: &str, name: &str, t: Transform) -> Library {
        let mut wrap = Structure::new(name);
        let mut r = odrc_gdsii::RefElement::sref(inner, t.translate());
        r.mirror_x = t.mirror_x();
        r.angle_deg = f64::from(t.rotation().quarter_turns()) * 90.0;
        wrap.elements.push(Element::Ref(r));
        wrap.elements.push(Element::boundary(
            1,
            vec![p(0, -90), p(0, -80), p(10, -80), p(10, -90)],
        ));
        lib.structures.push(wrap);
        lib
    }

    /// `demo_layout` one level down, placed under `t` ([`wrap`]).
    fn wrapped_demo(t: Transform) -> Layout {
        Layout::from_library(&wrap(demo_layout().to_library("t"), "TOP", "WRAP", t)).unwrap()
    }

    #[test]
    fn a_wrapped_layout_is_cut_at_its_leaves() {
        let t = Transform::new(true, odrc_geometry::Rotation::R90, 1, p(7, -3));
        let (flat, wrapped) = (demo_layout(), wrapped_demo(t));
        let unit = wrapped.cell_by_name("UNIT").unwrap();
        for layer in [1, 2] {
            let (a, b) = (build(&flat, layer), build(&wrapped, layer));
            // Frames come in walk order: the wrapper's polygon first.
            let drawn = usize::from(layer == 1);
            assert_eq!(b.objects.len(), a.objects.len() + drawn);
            assert_eq!(b.placed_cells().collect::<Vec<_>>(), [unit]);
            for (x, y) in a.objects.iter().zip(&b.objects[drawn..]) {
                assert_eq!(t.apply_rect(x.mbr), y.mbr);
                let moved: Vec<Polygon> = polygons_of(&a, x)
                    .iter()
                    .map(|q| t.apply_polygon(q))
                    .collect();
                assert_eq!(moved, polygons_of(&b, y));
            }
        }
        let table = cell_instances(&wrapped);
        assert_eq!(table[unit.index()].len(), 2);
        let inner = wrapped.cell_by_name("TOP").unwrap();
        assert_eq!(table[inner.index()], [t]);
        let mut scanned = 0;
        LayerObjects::enumerate(&wrapped, 1, &mut scanned);
        assert_eq!(scanned, 2 + 3, "both frames' children");
    }
}
