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

use odrc::{canonicalize, Violation, ViolationKind};
use odrc_db::Layout;
use odrc_gdsii::{Element, Library, Structure};
use odrc_geometry::{Point, Rect, Rotation, Transform};
use odrc_layoutgen::tech;
use odrc_testkit::layouts::{
    array_2x2, inlined, mapped, paper, placements, rect_el, sref, tiny, wrapped,
};
use odrc_testkit::{assert_agree, assert_degraded_iff_fired, decks, reference, Agree, Config};

/// The cells whose reports must agree: default, `--parallel`, and one
/// partition row per shard.
fn cells() -> [(&'static str, Config); 3] {
    [
        ("default", Config::seq()),
        ("parallel", Config::par().device(2)),
        ("shard_rows 1", Config::seq().shards(1)),
    ]
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

/// `base` drawn under `at`, both ways: every cell's report on the
/// wrapped design is `expected`, and the wrapped design and its inlined
/// twin report alike and do the same work.
fn assert_depth_holds(what: &str, base: &Layout, at: &[Transform], expected: &[Violation]) {
    let deck = decks::every_family();
    let (deep, twin) = (wrapped(base, at), inlined(base, at));
    for (mode, config) in cells() {
        let a = config.check(&deep, &deck);
        let b = config.check(&twin, &deck);
        assert_eq!(a.violations, expected, "{what}: {mode}: wrapped report");
        let what = format!("{what}: {mode}: wrapped and inlined");
        assert_agree(&what, &a, &b, Agree::Exact, &DEPTH_VARIANT);
    }
}

/// The generated design's reference report.
fn base_report(base: &Layout) -> Vec<Violation> {
    reference(base, &decks::every_family()).violations
}

#[test]
fn tiny_designs_wrapped_under_every_orientation() {
    for seed in [3, 10] {
        let base = tiny(seed);
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
        let base = tiny(seed);
        let at = array_2x2(&base);
        let expected = mapped(&base_report(&base), &at);
        assert_depth_holds(&format!("tiny:{seed} 2x2"), &base, &at, &expected);
    }
}

/// A wrapped design under `--parallel` with a seeded fault schedule:
/// its report is its inlined twin's, whatever fired, and each run
/// reports `degraded()` iff a fault fired.
#[test]
fn wrapped_design_under_seeded_faults_is_its_inlined_twin() {
    let deck = decks::every_family();
    let base = tiny(10);
    let t = placements()[3];
    let (deep, twin) = (wrapped(&base, &[t]), inlined(&base, &[t]));
    let want = reference(&twin, &deck);
    assert_eq!(want.violations, mapped(&base_report(&base), &[t]));
    let mut fired = 0;
    for fault_seed in 0..8 {
        for layout in [&deep, &twin] {
            let engine = Config::par().device(2).fault_seed(fault_seed).engine();
            let got = engine.check(layout, &deck);
            let what = format!("fault seed {fault_seed}");
            assert_agree(&what, &got, &want, Agree::Report, &[]);
            assert_degraded_iff_fired(&what, &engine, &got.stats);
            fired += usize::from(got.stats.degraded());
        }
    }
    assert!(fired > 0, "no seeded schedule fired a fault");
}

/// The paper's `aes` at ×1 wrapped under a mirrored rotation.
#[test]
fn aes_wrapped_under_a_mirrored_rotation() {
    let base = paper("aes");
    let t = placements()[5];
    let expected = mapped(&base_report(&base), &[t]);
    assert_depth_holds(&format!("aes under {t:?}"), &base, &[t], &expected);
}

/// The paper's `jpeg` at ×1 arrayed 2×2: the design that fell off the
/// cliff when a scene's objects were the top cell's children.
#[test]
fn jpeg_2x2_array_is_its_inlined_twin() {
    let base = paper("jpeg");
    let at = array_2x2(&base);
    let expected = mapped(&base_report(&base), &at);
    assert_depth_holds("jpeg 2x2", &base, &at, &expected);
}

/// An edit inside the wrapped block: the delta re-check of the wrapped
/// design equals its full check, which is the edited design's report
/// mapped through the placement.
#[test]
fn delta_after_an_edit_inside_the_block() {
    let deck = decks::every_family();
    let base = tiny(10);
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
        for (mode, config) in cells().into_iter().take(2) {
            let engine = config.engine();
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

/// A spacing template with a violation of its own, placed under each
/// of the 8 orientations, beside a frame rectangle 8 from a frame L:
/// every cell of the matrix, and a delta re-check whose window holds
/// every placement, reports the template's violation placed by each
/// orientation plus the frame pair's. The template is checked once and
/// replayed through the scene's placements.
#[test]
fn a_violating_template_replays_under_every_orientation() {
    let deck = decks::tech_deck(&["M1.S.1"]);
    let m1 = tech::M1;
    // Two bars 10 apart: at M1.S.1's 18, the facing sides violate.
    let mut bars = Structure::new("BARS");
    bars.elements
        .extend([rect_el(m1, 0, 0, 20, 40), rect_el(m1, 30, 0, 50, 40)]);
    let local = Rect::from_coords(20, 0, 30, 40);
    let mut top = Structure::new("TOP");
    let mut expected = Vec::new();
    for k in 0..8 {
        // Orientation `k`, its placed footprint moved to (200 k, 0).
        let turn = Transform::new(
            k >= 4,
            Rotation::from_quarter_turns(k % 4),
            1,
            Point::ORIGIN,
        );
        let lo = turn.apply_rect(Rect::from_coords(0, 0, 50, 40)).lo();
        let t = Transform::new(
            k >= 4,
            Rotation::from_quarter_turns(k % 4),
            1,
            Point::new(200 * k - lo.x, -lo.y),
        );
        top.elements.push(sref("BARS", t));
        expected.push((t.apply_rect(local), 100));
    }
    // A frame rectangle and an L 8 to its right, which a row checks.
    top.elements.push(rect_el(m1, 2000, 0, 2020, 40));
    let l = [
        (2028, 0),
        (2028, 40),
        (2048, 40),
        (2048, 20),
        (2068, 20),
        (2068, 0),
    ];
    top.elements.push(Element::boundary(
        m1,
        l.map(|(x, y)| Point::new(x, y)).to_vec(),
    ));
    expected.push((Rect::from_coords(2020, 0, 2028, 40), 64));
    let expected = canonicalize(
        expected
            .into_iter()
            .map(|(location, measured)| Violation {
                rule: "M1.S.1".to_owned(),
                kind: ViolationKind::Space,
                location,
                measured,
            })
            .collect(),
    );
    let mut lib = Library::new("template");
    lib.structures = vec![bars, top];
    let layout = Layout::from_library(&lib).expect("template library");
    // The edit: a wire 25 below everything, close enough that every
    // object is in the delta window.
    let mut wired = lib.clone();
    wired.structures[1]
        .elements
        .push(rect_el(m1, -100, -35, 2200, -25));
    let old = Layout::from_library(&wired).expect("wired library");
    for (mode, config) in cells() {
        let report = config.check(&layout, &deck);
        assert_eq!(report.violations, expected, "{mode}");
        assert_eq!(
            report.stats.checks_reused, 7,
            "{mode}: one template, 8 placements"
        );
    }
    for (mode, config) in cells().into_iter().take(2) {
        let engine = config.engine();
        let before = engine.check(&old, &deck);
        assert_eq!(
            before.violations, expected,
            "{mode}: the wire violates nothing"
        );
        let delta = engine.check_delta(&old, &before.violations, &layout, &deck);
        assert_eq!(delta.violations, expected, "{mode}: delta without the wire");
        assert_eq!(
            delta.stats.checks_reused, 7,
            "{mode}: the window holds every placement"
        );
    }
}
