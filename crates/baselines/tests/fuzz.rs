//! Property-based cross-engine fuzzing: random hierarchical layouts
//! must produce identical violation sets in every checker.
//!
//! This is the strongest correctness lever in the workspace: the
//! engines traverse the layout in completely different orders
//! (hierarchical + memoized vs flat vs tiled vs device kernels), so any
//! disagreement exposes a real semantic bug.

use odrc::{rule, RuleDeck};
use odrc_baselines::{Checker, DeepChecker, FlatChecker, TilingChecker, XCheck};
use odrc_db::Layout;
use odrc_gdsii::{Element, Library, Structure};
use odrc_geometry::{Point, Rotation, Transform};
use odrc_testkit::{assert_agree, decks, layouts, reference, Agree, Config};
use odrc_xpu::Device;
use proptest::prelude::*;

/// A random rectangle element: (layer, x, y, w, h).
fn rect_of((layer, x, y, w, h): (i16, i32, i32, i32, i32)) -> Element {
    layouts::rect_el(layer, x, y, x + w, y + h)
}

#[derive(Debug, Clone)]
struct FuzzSpec {
    /// Rects in each of two leaf cells: (layer 1|2, x, y, w, h).
    cell_a: Vec<(i16, i32, i32, i32, i32)>,
    cell_b: Vec<(i16, i32, i32, i32, i32)>,
    /// Placements in TOP: (which cell, x, y, rotation quarter-turns,
    /// mirror).
    placements: Vec<(bool, i32, i32, i32, bool)>,
    /// Loose rects in TOP.
    top_rects: Vec<(i16, i32, i32, i32, i32)>,
    /// An optional middle cell MID, making the hierarchy one level
    /// deeper above the leaves.
    middle: Option<Middle>,
}

/// MID takes the first `placements` placements and the first `rects`
/// loose rects from TOP, and TOP places MID at each of `at`: (x, y,
/// rotation quarter-turns, mirror).
#[derive(Debug, Clone)]
struct Middle {
    placements: usize,
    rects: usize,
    at: Vec<(i32, i32, i32, bool)>,
}

fn arb_rects(n: usize) -> impl Strategy<Value = Vec<(i16, i32, i32, i32, i32)>> {
    proptest::collection::vec(
        (
            prop_oneof![Just(1i16), Just(2i16)],
            -80i32..80,
            -80i32..80,
            4i32..60,
            4i32..60,
        ),
        0..n,
    )
}

fn arb_spec() -> impl Strategy<Value = FuzzSpec> {
    (
        arb_rects(5),
        arb_rects(5),
        proptest::collection::vec(
            (
                proptest::bool::ANY,
                -300i32..300,
                -300i32..300,
                0i32..4,
                proptest::bool::ANY,
            ),
            0..6,
        ),
        arb_rects(6),
        // Zero or one middle cell.
        proptest::collection::vec(
            (
                0usize..6,
                0usize..6,
                proptest::collection::vec(
                    (-300i32..300, -300i32..300, 0i32..4, proptest::bool::ANY),
                    1..3,
                ),
            ),
            0..2,
        ),
    )
        .prop_map(|(cell_a, cell_b, placements, top_rects, middle)| FuzzSpec {
            cell_a,
            cell_b,
            placements,
            top_rects,
            middle: middle
                .into_iter()
                .next()
                .map(|(placements, rects, at)| Middle {
                    placements,
                    rects,
                    at,
                }),
        })
}

/// A placement of `cell`: (x, y, rotation quarter-turns, mirror).
fn place(cell: &str, (x, y, rot, mirror): (i32, i32, i32, bool)) -> Element {
    let t = Transform::new(
        mirror,
        Rotation::from_quarter_turns(rot),
        1,
        Point::new(x, y),
    );
    layouts::sref(cell, t)
}

fn build_layout(spec: &FuzzSpec) -> Layout {
    let mut lib = Library::new("fuzz");
    let mut a = Structure::new("A");
    a.elements.extend(spec.cell_a.iter().copied().map(rect_of));
    let mut b = Structure::new("B");
    b.elements.extend(spec.cell_b.iter().copied().map(rect_of));
    // B also nests A, making the hierarchy two levels deep.
    b.elements.push(Element::sref("A", Point::new(200, 200)));
    lib.structures.push(a);
    lib.structures.push(b);

    let mut top = Structure::new("TOP");
    let mut mid = Structure::new("MID");
    let (placed, drawn) = spec.middle.as_ref().map_or((0, 0), |m| {
        (
            m.placements.min(spec.placements.len()),
            m.rects.min(spec.top_rects.len()),
        )
    });
    for (i, &(which_b, x, y, rot, mirror)) in spec.placements.iter().enumerate() {
        let cell = if which_b { "B" } else { "A" };
        let parent = if i < placed { &mut mid } else { &mut top };
        parent.elements.push(place(cell, (x, y, rot, mirror)));
    }
    for (i, &rect) in spec.top_rects.iter().enumerate() {
        let parent = if i < drawn { &mut mid } else { &mut top };
        parent.elements.push(rect_of(rect));
    }
    if let Some(m) = &spec.middle {
        top.elements
            .extend(m.at.iter().map(|&placement| place("MID", placement)));
        lib.structures.push(mid);
    }
    lib.structures.push(top);
    Layout::from_library(&lib).expect("fuzz layouts are structurally valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn all_engines_agree_on_random_layouts(spec in arb_spec()) {
        let layout = build_layout(&spec);
        let d = decks::fuzz();
        let want = reference(&layout, &d);
        // The same work too: random specs often leave a cell unplaced.
        let par = Config::par().device(2).check(&layout, &d);
        assert_agree("parallel", &par, &want, Agree::Shared, &[]);
        let flat = FlatChecker::new().check(&layout, &d);
        prop_assert_eq!(&want.violations, &flat.violations, "flat");
        let deep = DeepChecker::new().check(&layout, &d);
        prop_assert_eq!(&want.violations, &deep.violations, "deep");
        let tile = TilingChecker::new(3, 2).check(&layout, &d);
        prop_assert_eq!(&want.violations, &tile.violations, "tile");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn xcheck_agrees_on_its_supported_rules(spec in arb_spec()) {
        let layout = build_layout(&spec);
        // Width/space/enclosure only (no area, no overlap).
        let d = RuleDeck::new(vec![
            rule().layer(1).width().greater_than(10).named("F1.W"),
            rule().layer(1).space().greater_than(12).named("F1.S"),
            rule().layer(2).enclosed_by(1).greater_than(3).named("F2.EN"),
        ]);
        let x = XCheck::new(Device::new(2)).check(&layout, &d);
        prop_assert_eq!(&reference(&layout, &d).violations, &x.violations);
    }
}

/// Overlapping same-layer polygons are legal input; engines must not
/// disagree or panic on them.
#[test]
fn overlapping_polygons_handled() {
    let spec = FuzzSpec {
        cell_a: vec![(1, 0, 0, 40, 40), (1, 20, 20, 40, 40)],
        cell_b: vec![(1, 0, 0, 30, 30), (1, 0, 0, 30, 30)], // exact duplicates
        placements: vec![(false, 0, 0, 0, false), (true, 100, 0, 1, true)],
        top_rects: vec![(1, 50, 50, 40, 40), (1, 55, 55, 10, 10)], // nested
        middle: None,
    };
    let layout = build_layout(&spec);
    let d = decks::fuzz();
    let want = reference(&layout, &d);
    let par = Config::par().device(2).check(&layout, &d);
    assert_agree("parallel", &par, &want, Agree::Shared, &[]);
    let flat = FlatChecker::new().check(&layout, &d);
    assert_eq!(want.violations, flat.violations);
}
