//! The input axes besides the deck: generated designs, hand-built
//! elements, the hierarchy depth (a design wrapped, inlined or arrayed)
//! and the delta edit.

use std::path::PathBuf;

use odrc::{canonicalize, Violation};
use odrc_db::Layout;
use odrc_gdsii::{BoundaryElement, Element, RefElement, Structure};
use odrc_geometry::{Point, Rotation, Transform};
use odrc_layoutgen::{generate_layout, tech, DesignSpec};

/// The generated `tiny:seed` design.
pub fn tiny(seed: u64) -> Layout {
    generate_layout(&DesignSpec::tiny(seed))
}

/// The paper's design `name` at ×1.
pub fn paper(name: &str) -> Layout {
    generate_layout(&DesignSpec::paper(name).expect("paper design"))
}

/// The rectangle with corners `(x0, y0)` and `(x1, y1)` on `layer`.
pub fn rect_el(layer: i16, x0: i32, y0: i32, x1: i32, y1: i32) -> Element {
    let corners = [(x0, y0), (x0, y1), (x1, y1), (x1, y0)];
    Element::boundary(layer, corners.map(|(x, y)| Point::new(x, y)).to_vec())
}

/// A placement of `cell` under `t`.
pub fn sref(cell: &str, t: Transform) -> Element {
    let mut r = RefElement::sref(cell, t.translate());
    r.mirror_x = t.mirror_x();
    r.angle_deg = f64::from(t.rotation().quarter_turns()) * 90.0;
    Element::Ref(r)
}

/// The 8 orientations, each with a translation that is not a multiple
/// of the row pitch (nor of the site width), so the partition's row
/// boundaries move too.
pub fn placements() -> Vec<Transform> {
    let shift = Point::new(7 * tech::ROW_HEIGHT + 131, -3 * tech::ROW_HEIGHT - 97);
    (0..8)
        .map(|k| Transform::new(k >= 4, Rotation::from_quarter_turns(k % 4), 1, shift))
        .collect()
}

/// `base` one level deeper: its top cell placed by a new top cell, once
/// per transform in `at`.
pub fn wrapped(base: &Layout, at: &[Transform]) -> Layout {
    let mut lib = base.to_library("depth");
    let name = base.cell(base.top()).name().to_owned();
    let mut wrap = Structure::new("WRAP");
    wrap.elements.extend(at.iter().map(|&t| sref(&name, t)));
    lib.structures.push(wrap);
    Layout::from_library(&lib).expect("wrapped library")
}

/// The inlined twin of [`wrapped`]: the top cell's contents drawn once
/// per transform in `at` in a new top cell, one level deep.
pub fn inlined(base: &Layout, at: &[Transform]) -> Layout {
    let top = base.cell(base.top());
    let mut lib = base.to_library("depth");
    lib.structures.retain(|s| s.name != top.name());
    let mut flat = Structure::new("FLAT");
    for t in at {
        for p in top.polygons() {
            flat.elements.push(Element::Boundary(BoundaryElement {
                layer: p.layer,
                datatype: p.datatype,
                points: t.apply_polygon(&p.polygon).vertices().to_vec(),
                properties: Vec::new(),
            }));
        }
        for r in top.refs() {
            let name = base.cell(r.cell).name();
            flat.elements.push(sref(name, r.transform.then(t)));
        }
    }
    lib.structures.push(flat);
    Layout::from_library(&lib).expect("inlined library")
}

/// A 2×2 array of `base`'s top cell, far enough apart not to interact.
pub fn array_2x2(base: &Layout) -> Vec<Transform> {
    let mbr = base.cell(base.top()).mbr().expect("design has geometry");
    let pitch = |extent: i64| i32::try_from(2 * extent + 1000).expect("pitch fits i32");
    let (dx, dy) = (pitch(mbr.width()), pitch(mbr.height()));
    [(0, 0), (dx, 0), (0, dy), (dx, dy)]
        .into_iter()
        .map(|(x, y)| Transform::translation(Point::new(x, y)))
        .collect()
}

/// `violations` placed by each transform of `at`, canonicalized: the
/// report of `base` [`wrapped`] (or [`inlined`]) under `at`.
pub fn mapped(violations: &[Violation], at: &[Transform]) -> Vec<Violation> {
    let placed = at.iter().flat_map(|t| {
        violations.iter().map(move |v| Violation {
            location: t.apply_rect(v.location),
            ..v.clone()
        })
    });
    canonicalize(placed.collect())
}

/// The delta edit: `layout` without its top cell's first shape on
/// `layer` (a routing wire on a generated design).
pub fn without_top_wire(layout: &Layout, layer: i16) -> Layout {
    let mut edited = layout.clone();
    let top = edited.top();
    let wire = edited
        .cell(top)
        .polygons()
        .iter()
        .position(|p| p.layer == layer)
        .expect("a top-level wire on the layer");
    edited
        .remove_polygon(top, wire)
        .expect("remove a top-level wire");
    edited
}

/// A scratch directory of this test binary's own, emptied on entry so
/// a rerun never resumes from a stale journal.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("odrc-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
