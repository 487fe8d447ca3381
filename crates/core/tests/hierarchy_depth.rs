//! Metamorphic depth suite: the same design one level deeper.
//!
//! Every generated design is one level deep — the top cell places leaf
//! standard cells and draws the routing. Real inputs place blocks, and
//! a block placed once, or arrayed, is the same geometry. So each design
//! here is built in memory three ways:
//!
//! * as generated;
//! * wrapped in one SREF, under each of the 8 orientations and a
//!   translation that is not a multiple of the row pitch — its report is
//!   the generated report mapped through the placement;
//! * as a 2×2 SREF array, beside its *inlined twin*: the same four
//!   copies drawn one level deep. Both report the same violations.
//!
//! These relations need no second set of predicates. The reports must
//! hold in the default mode, with `--parallel`, after an edit (delta)
//! and with one partition row per shard. A wrapped design and its
//! inlined twin (the same placement applied to the top cell's contents)
//! must also do the same work, counter for counter but for the few the
//! wrapper's own frame moves (`DEPTH_VARIANT`): the engine's objects are
//! a cut through the hierarchy tree at its leaves, whatever the depth
//! above them.

use odrc::{
    canonicalize, rule, CounterClass, Engine, EngineOptions, EngineStats, RuleDeck, Violation,
};
use odrc_db::Layout;
use odrc_gdsii::{BoundaryElement, Element, Library, RefElement, Structure};
use odrc_geometry::{Point, Rect, Rotation, Transform};
use odrc_layoutgen::{generate_layout, tech, DesignSpec};
use odrc_xpu::Device;

/// Every rule family: width, area, two spacing rules on one layer, the
/// other routing layers' spacing, enclosure on every via pair, overlap
/// area and the layer-less rectilinear check.
fn deck() -> RuleDeck {
    RuleDeck::new(vec![
        rule()
            .layer(tech::M1)
            .width()
            .greater_than(tech::M1_WIDTH)
            .named("M1.W.1"),
        rule()
            .layer(tech::M2)
            .width()
            .greater_than(tech::M2_WIDTH)
            .named("M2.W.1"),
        rule()
            .layer(tech::M1)
            .area()
            .greater_than(tech::M1_AREA)
            .named("M1.A.1"),
        rule()
            .layer(tech::M1)
            .space()
            .greater_than(tech::M1_SPACE)
            .named("M1.S.1"),
        rule()
            .layer(tech::M1)
            .space()
            .when_projection_at_least(tech::M1_WIDTH)
            .greater_than(tech::M1_SPACE + 6)
            .named("M1.S.2"),
        rule()
            .layer(tech::M2)
            .space()
            .greater_than(tech::M2_SPACE)
            .named("M2.S.1"),
        rule()
            .layer(tech::M3)
            .space()
            .greater_than(tech::M3_SPACE)
            .named("M3.S.1"),
        rule()
            .layer(tech::V1)
            .enclosed_by(tech::M1)
            .greater_than(tech::V1_M1_ENCLOSURE)
            .named("V1.M1.EN.1"),
        rule()
            .layer(tech::V1)
            .enclosed_by(tech::M2)
            .greater_than(tech::V1_M2_ENCLOSURE)
            .named("V1.M2.EN.1"),
        rule()
            .layer(tech::V2)
            .enclosed_by(tech::M3)
            .greater_than(tech::V2_M3_ENCLOSURE)
            .named("V2.M3.EN.1"),
        rule()
            .layer(tech::V2)
            .overlapping(tech::M2)
            .area_at_least(80)
            .named("V2.M2.OV.1"),
        rule().polygons().is_rectilinear(),
    ])
}

/// The engines whose reports must agree: default, `--parallel`, and one
/// partition row per shard.
fn engines() -> [(&'static str, Engine); 3] {
    let sharded = EngineOptions {
        shard_rows: Some(1),
        ..EngineOptions::default()
    };
    [
        ("default", Engine::sequential()),
        ("parallel", Engine::parallel_on(Device::new(2))),
        ("shard_rows 1", Engine::sequential().with_options(sharded)),
    ]
}

/// The 8 orientations, each with a translation that is not a multiple
/// of the row pitch (nor of the site width), so the partition's row
/// boundaries move too.
fn placements() -> Vec<Transform> {
    let shift = Point::new(7 * tech::ROW_HEIGHT + 131, -3 * tech::ROW_HEIGHT - 97);
    (0..8)
        .map(|k| {
            let rotation = Rotation::from_quarter_turns(k % 4);
            Transform::new(k >= 4, rotation, 1, shift)
        })
        .collect()
}

fn sref(name: &str, t: Transform) -> Element {
    let mut r = RefElement::sref(name, t.translate());
    r.mirror_x = t.mirror_x();
    r.angle_deg = f64::from(t.rotation().quarter_turns()) * 90.0;
    Element::Ref(r)
}

/// `base` with its top cell placed by a new top cell, once per
/// transform in `at`.
fn wrapped(base: &Layout, at: &[Transform]) -> Layout {
    let mut lib = base.to_library("depth");
    let name = base.cell(base.top()).name().to_owned();
    let mut wrap = Structure::new("WRAP");
    wrap.elements.extend(at.iter().map(|&t| sref(&name, t)));
    lib.structures.push(wrap);
    Layout::from_library(&lib).expect("wrapped library")
}

/// The inlined twin of [`wrapped`]: the top cell's contents drawn once
/// per transform in `at` in a new top cell, one level deep.
fn inlined(base: &Layout, at: &[Transform]) -> Layout {
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
fn array_2x2(base: &Layout) -> Vec<Transform> {
    let mbr = base.cell(base.top()).mbr().expect("design has geometry");
    let pitch = |extent: i64| i32::try_from(2 * extent + 1000).expect("pitch fits i32");
    let (dx, dy) = (pitch(mbr.width()), pitch(mbr.height()));
    [(0, 0), (dx, 0), (0, dy), (dx, dy)]
        .into_iter()
        .map(|(x, y)| Transform::translation(Point::new(x, y)))
        .collect()
}

/// `violations` placed by each transform of `at`, canonicalized.
fn mapped(violations: &[Violation], at: &[Transform]) -> Vec<Violation> {
    let placed = at.iter().flat_map(|t| {
        violations.iter().map(move |v| Violation {
            location: t.apply_rect(v.location),
            ..v.clone()
        })
    });
    canonicalize(placed.collect())
}

/// The counters a wrapped design and its inlined twin may differ in,
/// each with its reason. Every other counter but scheduling telemetry
/// must be equal, so a counter added later is compared by default.
const DEPTH_VARIANT: [&str; 5] = [
    // An arrayed wrapper's own shapes are checked once, not per copy,
    "checks_computed",
    // and the memo answers their other copies.
    "checks_reused",
    // Fewer intra targets fan out as fewer tasks.
    "host_tasks",
    // The wrapper's frame is walked too.
    "scene_objects_scanned",
    // `--parallel` uploads those fewer intra targets.
    "bytes_uploaded",
];

/// The work a design and its inlined twin share: every non-telemetry
/// counter but [`DEPTH_VARIANT`]'s.
fn work(stats: &EngineStats) -> Vec<(&'static str, u64)> {
    let mut work = stats.counters(|class| class != CounterClass::Telemetry);
    work.retain(|(name, _)| !DEPTH_VARIANT.contains(name));
    work
}

/// `base` drawn under `at`, both ways: every engine's report on the
/// wrapped design is `expected`, and the wrapped design and its inlined
/// twin report alike and do the same work.
fn assert_depth_holds(what: &str, base: &Layout, at: &[Transform], expected: &[Violation]) {
    let deck = deck();
    let (deep, twin) = (wrapped(base, at), inlined(base, at));
    for (mode, engine) in engines() {
        let a = engine.check(&deep, &deck);
        let b = engine.check(&twin, &deck);
        assert_eq!(a.violations, expected, "{what}: {mode}: wrapped report");
        assert_eq!(b.violations, expected, "{what}: {mode}: inlined report");
        assert_eq!(
            work(&a.stats),
            work(&b.stats),
            "{what}: {mode}: wrapped and inlined work"
        );
    }
}

/// The generated `design` checked in the default mode.
fn base_report(base: &Layout) -> Vec<Violation> {
    Engine::sequential().check(base, &deck()).violations
}

#[test]
fn tiny_designs_wrapped_under_every_orientation() {
    for seed in [3, 10] {
        let base = generate_layout(&DesignSpec::tiny(seed));
        let report = base_report(&base);
        assert!(!report.is_empty(), "seed {seed}: the deck finds something");
        for t in placements() {
            let what = format!("tiny:{seed} under {t:?}");
            assert_depth_holds(&what, &base, &[t], &mapped(&report, &[t]));
        }
    }
}

#[test]
fn tiny_2x2_array_is_its_inlined_twin() {
    for seed in [3, 10] {
        let base = generate_layout(&DesignSpec::tiny(seed));
        let at = array_2x2(&base);
        let expected = mapped(&base_report(&base), &at);
        assert_depth_holds(&format!("tiny:{seed} 2x2"), &base, &at, &expected);
    }
}

/// The paper's `aes` at ×1 wrapped under a mirrored rotation.
#[test]
fn aes_wrapped_under_a_mirrored_rotation() {
    let base = generate_layout(&DesignSpec::paper("aes").expect("paper design"));
    let t = placements()[5];
    let expected = mapped(&base_report(&base), &[t]);
    assert_depth_holds(&format!("aes under {t:?}"), &base, &[t], &expected);
}

/// The paper's `jpeg` at ×1 arrayed 2×2: the design that fell off the
/// cliff when a scene's objects were the top cell's children.
#[test]
fn jpeg_2x2_array_is_its_inlined_twin() {
    let base = generate_layout(&DesignSpec::paper("jpeg").expect("paper design"));
    let at = array_2x2(&base);
    let expected = mapped(&base_report(&base), &at);
    assert_depth_holds("jpeg 2x2", &base, &at, &expected);
}

/// An edit inside the wrapped block: the delta re-check of the wrapped
/// design equals its full check, which is the edited design's report
/// mapped through the placement.
#[test]
fn delta_after_an_edit_inside_the_block() {
    let deck = deck();
    let base = generate_layout(&DesignSpec::tiny(10));
    let edited = {
        let mut lib: Library = base.to_library("depth");
        let top = base.cell(base.top()).name().to_owned();
        let top = lib
            .structures
            .iter_mut()
            .find(|s| s.name == top)
            .expect("top structure");
        // Drop one drawn shape and draw an M1 sliver near the first
        // placement: a width and a spacing violation inside the block.
        let dropped = top
            .elements
            .iter()
            .position(|e| matches!(e, Element::Boundary(_)))
            .expect("a drawn shape");
        top.elements.remove(dropped);
        let near = base.cell(base.top()).refs()[0].transform.translate();
        let sliver = Rect::from_coords(near.x - 20, near.y, near.x - 10, near.y + 40);
        top.elements
            .push(Element::boundary(tech::M1, sliver.corners().to_vec()));
        Layout::from_library(&lib).expect("edited library")
    };
    let expected_base = base_report(&edited);
    for t in [placements()[0], placements()[6]] {
        let (old, new) = (wrapped(&base, &[t]), wrapped(&edited, &[t]));
        for (mode, engine) in engines().into_iter().take(2) {
            let before = engine.check(&old, &deck);
            let delta = engine.check_delta(&old, &before.violations, &new, &deck);
            assert_eq!(
                delta.violations,
                mapped(&expected_base, &[t]),
                "{mode} under {t:?}: delta after the edit"
            );
        }
    }
}
