//! Engine edge cases: degenerate layouts, deep hierarchies, absent
//! layers, extreme coordinates.

use odrc::{rule, CheckReport, Engine, EngineOptions, RuleDeck};
use odrc_db::Layout;
use odrc_gdsii::model::ArrayParams;
use odrc_gdsii::{Element, Library, RefElement, Structure};
use odrc_geometry::{Point, Rect};
use odrc_layoutgen::{generate_layout, tech, DesignSpec};
use odrc_testkit::layouts::rect_el;
use odrc_testkit::{decks, Config};
use odrc_xpu::{Device, Fault, FaultPlan};

#[test]
fn empty_top_cell() {
    let mut lib = Library::new("e");
    lib.structures.push(Structure::new("TOP"));
    let layout = Layout::from_library(&lib).unwrap();
    for engine in [Engine::sequential(), Engine::parallel_on(Device::new(2))] {
        let r = engine.check(&layout, &decks::edge());
        assert!(r.violations.is_empty());
    }
}

#[test]
fn empty_rule_deck() {
    let mut lib = Library::new("e");
    let mut top = Structure::new("TOP");
    top.elements.push(rect_el(1, 0, 0, 5, 5));
    lib.structures.push(top);
    let layout = Layout::from_library(&lib).unwrap();
    let r = Engine::sequential().check(&layout, &RuleDeck::default());
    assert!(r.violations.is_empty());
    assert_eq!(r.stats.checks_computed, 0);
}

#[test]
fn top_polygons_only_no_placements() {
    let mut lib = Library::new("e");
    let mut top = Structure::new("TOP");
    top.elements.push(rect_el(1, 0, 0, 8, 50)); // width 8 < 10, area 400
    top.elements.push(rect_el(1, 15, 0, 40, 50)); // 7 from the first
    lib.structures.push(top);
    let layout = Layout::from_library(&lib).unwrap();
    let seq = Engine::sequential().check(&layout, &decks::edge());
    let par = Engine::parallel_on(Device::new(2)).check(&layout, &decks::edge());
    assert_eq!(seq.violations, par.violations);
    assert_eq!(seq.violations_of("W").count(), 1);
    assert_eq!(seq.violations_of("S").count(), 1);
}

#[test]
fn six_level_hierarchy_with_transforms() {
    // L0 holds the geometry; L{k+1} places two L{k}s with alternating
    // rotations and mirrors -> 32 leaf instances.
    let mut lib = Library::new("deep");
    let mut leaf = Structure::new("L0");
    leaf.elements.push(rect_el(1, 0, 0, 8, 30)); // width violation
    lib.structures.push(leaf);
    for k in 1..=5 {
        let mut s = Structure::new(format!("L{k}"));
        let mut a = RefElement::sref(format!("L{}", k - 1), Point::new(0, 0));
        a.angle_deg = f64::from(k % 4) * 90.0;
        let mut b = RefElement::sref(format!("L{}", k - 1), Point::new(1000 * k, 500));
        b.mirror_x = k % 2 == 0;
        s.elements.push(Element::Ref(a));
        s.elements.push(Element::Ref(b));
        lib.structures.push(s);
    }
    let layout = Layout::from_library(&lib).unwrap();
    let only_width = RuleDeck::new(vec![rule().layer(1).width().greater_than(10).named("W")]);
    let seq = Engine::sequential().check(&layout, &only_width);
    assert_eq!(seq.violations.len(), 32, "one violation per leaf instance");
    // The check ran once; 31 instances reused it.
    assert_eq!(seq.stats.checks_computed, 1);
    assert_eq!(seq.stats.checks_reused, 31);
    let par = Engine::parallel_on(Device::new(2)).check(&layout, &only_width);
    assert_eq!(seq.violations, par.violations);
}

#[test]
fn enclosure_against_absent_layer_flags_everything() {
    let mut lib = Library::new("e");
    let mut top = Structure::new("TOP");
    top.elements.push(rect_el(2, 0, 0, 10, 10));
    top.elements.push(rect_el(2, 50, 0, 60, 10));
    lib.structures.push(top);
    let layout = Layout::from_library(&lib).unwrap();
    // Layer 1 does not exist: every layer-2 shape is unenclosed.
    let d = RuleDeck::new(vec![rule()
        .layer(2)
        .enclosed_by(1)
        .greater_than(3)
        .named("EN")]);
    let seq = Engine::sequential().check(&layout, &d);
    assert_eq!(seq.violations.len(), 2);
    assert!(seq.violations.iter().all(|v| v.measured == -3));
    let par = Engine::parallel_on(Device::new(2)).check(&layout, &d);
    assert_eq!(seq.violations, par.violations);
}

#[test]
fn far_flung_coordinates() {
    // Geometry spread across a quarter-billion-dbu die; distances and
    // areas stay exact.
    let m = 250_000_000;
    let mut lib = Library::new("far");
    let mut top = Structure::new("TOP");
    top.elements.push(rect_el(1, -m, -m, -m + 20, -m + 2000));
    top.elements.push(rect_el(1, m - 20, m - 2000, m, m));
    top.elements
        .push(rect_el(1, -m + 28, -m, -m + 48, -m + 2000)); // 8 from the first
    lib.structures.push(top);
    let layout = Layout::from_library(&lib).unwrap();
    let d = RuleDeck::new(vec![rule().layer(1).space().greater_than(12).named("S")]);
    let seq = Engine::sequential().check(&layout, &d);
    assert_eq!(seq.violations.len(), 1);
    assert_eq!(seq.violations[0].measured, 64);
    let par = Engine::parallel_on(Device::new(2)).check(&layout, &d);
    assert_eq!(seq.violations, par.violations);
}

#[test]
fn shared_cell_under_two_parents() {
    // The same leaf under two different parents: memoized once, all
    // four instances reported.
    let mut lib = Library::new("dag");
    let mut leaf = Structure::new("LEAF");
    leaf.elements.push(rect_el(1, 0, 0, 8, 40));
    lib.structures.push(leaf);
    for (name, dx) in [("P1", 0), ("P2", 5000)] {
        let mut p = Structure::new(name);
        p.elements.push(Element::sref("LEAF", Point::new(dx, 0)));
        p.elements
            .push(Element::sref("LEAF", Point::new(dx + 100, 0)));
        lib.structures.push(p);
    }
    let mut top = Structure::new("TOP");
    top.elements.push(Element::sref("P1", Point::new(0, 0)));
    top.elements.push(Element::sref("P2", Point::new(0, 10000)));
    lib.structures.push(top);
    let layout = Layout::from_library(&lib).unwrap();
    let d = RuleDeck::new(vec![rule().layer(1).width().greater_than(10).named("W")]);
    let r = Engine::sequential().check(&layout, &d);
    assert_eq!(r.violations.len(), 4);
    assert_eq!(r.stats.checks_computed, 1);
    assert_eq!(r.stats.checks_reused, 3);
}

// ---- Hierarchical row pack (parallel mode): a cell definition is
// checked once as a template and replayed through its placements; the
// partition rows hold only the polygons inside candidate-pair windows.
// Every layout below is small enough to state its answer.

const MIN: i32 = 12;

fn space_deck() -> RuleDeck {
    RuleDeck::new(vec![rule()
        .layer(1)
        .space()
        .greater_than(i64::from(MIN))
        .named("S")])
}

/// Checks `lib` in both modes, asserts they report the same `expected`
/// number of violations at the same locations and did the same
/// spacing work (both check the same packed templates and rows), and
/// returns `(sequential, parallel)`.
fn both_modes(lib: &Library, expected: usize, what: &str) -> (CheckReport, CheckReport) {
    let layout = Layout::from_library(lib).unwrap();
    let seq = Engine::sequential().check(&layout, &space_deck());
    let par = Config::par()
        .device(2)
        .engine()
        .check(&layout, &space_deck());
    assert_eq!(seq.violations.len(), expected, "{what}: sequential count");
    assert_eq!(
        par.violations, seq.violations,
        "{what}: parallel != sequential"
    );
    let work = |r: &CheckReport| {
        let s = r.stats;
        (
            s.checks_computed,
            s.checks_reused,
            s.candidate_pairs,
            s.rows,
            s.edges_packed,
        )
    };
    assert_eq!(work(&seq), work(&par), "{what}: work counters differ");
    (seq, par)
}

fn placed(sname: &str, at: Point, quarter_turns: i32, mirror_x: bool) -> RefElement {
    let mut r = RefElement::sref(sname, at);
    r.angle_deg = f64::from(quarter_turns) * 90.0;
    r.mirror_x = mirror_x;
    r
}

/// An L: a 10-wide, 40-tall bar on a 30-wide, 10-tall foot. Two of its
/// MBR's sides are covered full-length, so two copies in one
/// orientation side by side always face each other with projection.
fn l_cell() -> Structure {
    let mut s = Structure::new("L");
    let pts = [(0, 0), (0, 40), (10, 40), (10, 10), (30, 10), (30, 0)];
    s.elements.push(Element::boundary(
        1,
        pts.iter().map(|&(x, y)| Point::new(x, y)).collect(),
    ));
    s
}

#[test]
fn facing_placements_at_the_rule_distance_in_every_orientation() {
    let l_mbr = Rect::from_coords(0, 0, 30, 40);
    for mirror_x in [false, true] {
        for quarter_turns in 0..4 {
            for (gap, expected) in [(MIN - 1, 1), (MIN, 0), (MIN + 1, 0)] {
                let first = placed("L", Point::new(0, 0), quarter_turns, mirror_x);
                let pitch = first.transform().unwrap().apply_rect(l_mbr).width() as i32 + gap;
                let what = format!("turns {quarter_turns} mirror {mirror_x} gap {gap}");

                // Two SREFs ...
                let mut lib = Library::new("facing");
                lib.structures.push(l_cell());
                let mut top = Structure::new("TOP");
                let second = placed("L", Point::new(pitch, 0), quarter_turns, mirror_x);
                top.elements.push(Element::Ref(first.clone()));
                top.elements.push(Element::Ref(second));
                lib.structures.push(top);
                let (seq, par) = both_modes(&lib, expected, &format!("sref {what}"));
                assert_eq!(
                    par.stats.checks_reused, 1,
                    "{what}: one definition, two uses"
                );
                assert_eq!(par.stats.checks_reused, seq.stats.checks_reused);

                // ... and the same two placements as one AREF.
                let mut lib = Library::new("facing");
                lib.structures.push(l_cell());
                let mut top = Structure::new("TOP");
                let mut array = first;
                array.array = Some(ArrayParams {
                    cols: 2,
                    rows: 1,
                    col_step: Point::new(pitch, 0),
                    row_step: Point::new(0, 100),
                });
                top.elements.push(Element::Ref(array));
                lib.structures.push(top);
                let (_, aref) = both_modes(&lib, expected, &format!("aref {what}"));
                assert_eq!(aref.violations, par.violations, "aref {what} != srefs");
            }
        }
    }
}

#[test]
fn rail_over_a_row_of_cells_keeps_only_the_polygons_near_it() {
    // Each cell: a bottom pad and a top pad 50 apart. The top-level
    // rail runs MIN-1 or less above the top pads of six cells.
    const CELLS: i32 = 6;
    let mut lib = Library::new("rail");
    let mut pads = Structure::new("PADS");
    pads.elements.push(rect_el(1, 0, 0, 20, 10));
    pads.elements.push(rect_el(1, 0, 60, 20, 70));
    lib.structures.push(pads);
    let mut top = Structure::new("TOP");
    for i in 0..CELLS {
        // Cell i stands i higher: six distinct measured distances (one
        // long rail edge would otherwise give six equal violations).
        top.elements
            .push(Element::sref("PADS", Point::new(70 * i, i)));
    }
    let rail_y = 70 + MIN - 1;
    top.elements
        .push(rect_el(1, -10, rail_y, 70 * CELLS, rail_y + 10));
    lib.structures.push(top);
    let (_, par) = both_modes(&lib, CELLS as usize, "rail");
    // The template's two pads, the rail, and per cell only the top pad
    // (the bottom one is outside every window): rectangles, 4 edges.
    assert_eq!(par.stats.edges_packed, 4 * (2 + 1 + CELLS as u64));
    // The flat pack keeps both pads of every cell and has no template.
    let layout = Layout::from_library(&lib).unwrap();
    let flat = Engine::parallel_on(Device::new(2))
        .with_options(EngineOptions {
            pruning: false,
            ..EngineOptions::default()
        })
        .check(&layout, &space_deck());
    assert_eq!(flat.violations, par.violations);
    assert_eq!(flat.stats.edges_packed, 4 * (1 + 2 * CELLS as u64));
}

#[test]
fn placements_with_overlapping_mbrs() {
    // Two interlocked Ls (the second turned 180°): the MBRs overlap,
    // the polygons do not. The first L's foot sits MIN-1 under the
    // second's bar and its bar MIN-1 under the second's foot; the two
    // bars are 15 apart.
    let mut lib = Library::new("interlocked");
    lib.structures.push(l_cell());
    let mut top = Structure::new("TOP");
    top.elements.push(Element::sref("L", Point::new(0, 0)));
    top.elements
        .push(Element::Ref(placed("L", Point::new(35, 61), 2, false)));
    lib.structures.push(top);
    both_modes(&lib, 2, "interlocked Ls");
}

/// A U whose notch is `gap` wide: two 10-wide, 40-tall arms on a
/// 10-tall base, with the arms' inner edges facing across the notch.
fn u_shape(gap: i32) -> Element {
    let pts = [
        (0, 0),
        (0, 40),
        (10, 40),
        (10, 10),
        (10 + gap, 10),
        (10 + gap, 40),
        (20 + gap, 40),
        (20 + gap, 0),
    ];
    Element::boundary(1, pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
}

#[test]
fn notch_at_the_rule_distance_top_level_and_placed() {
    for (gap, expected) in [(MIN - 1, 1), (MIN, 0), (MIN + 1, 0)] {
        // A top-level polygon: its notch pair lives in the row.
        let mut lib = Library::new("notch");
        let mut top = Structure::new("TOP");
        top.elements.push(u_shape(gap));
        lib.structures.push(top);
        both_modes(&lib, expected, &format!("top-level notch {gap}"));

        // The same U as a cell, placed twice far apart (plain, and
        // mirrored and turned): its template finds the notch once.
        let mut lib = Library::new("notch");
        let mut cell = Structure::new("U");
        cell.elements.push(u_shape(gap));
        lib.structures.push(cell);
        let mut top = Structure::new("TOP");
        top.elements
            .push(Element::Ref(placed("U", Point::new(0, 0), 0, false)));
        top.elements
            .push(Element::Ref(placed("U", Point::new(500, 300), 1, true)));
        lib.structures.push(top);
        let (seq, _) = both_modes(&lib, 2 * expected, &format!("placed notch {gap}"));
        assert_eq!(seq.stats.checks_computed, expected, "one template record");
        assert_eq!(seq.stats.checks_reused, 1);
        assert!(seq
            .violations
            .iter()
            .all(|v| v.measured == i64::from(gap * gap)));
    }
}

/// A cell with one internal spacing violation: two bars MIN-1 apart.
fn tight_cell() -> Structure {
    let mut s = Structure::new("TIGHT");
    s.elements.push(rect_el(1, 0, 0, 10, 40));
    let x = 10 + MIN - 1;
    s.elements.push(rect_el(1, x, 0, x + 10, 40));
    s
}

/// `TIGHT` placed five times, far apart, in five orientations.
fn five_tight_placements() -> Library {
    let mut lib = Library::new("tight");
    lib.structures.push(tight_cell());
    let mut top = Structure::new("TOP");
    let orientations = [(0, false), (0, true), (1, false), (2, true), (3, false)];
    for (i, (quarter_turns, mirror_x)) in orientations.into_iter().enumerate() {
        let at = Point::new(300 * i as i32, 100);
        top.elements
            .push(Element::Ref(placed("TIGHT", at, quarter_turns, mirror_x)));
    }
    lib.structures.push(top);
    lib
}

#[test]
fn cell_internal_violation_is_checked_once_and_replayed() {
    let (seq, par) = both_modes(&five_tight_placements(), 5, "five placements");
    // One device record (the template's), replayed five times.
    assert_eq!(par.stats.checks_computed, 1);
    assert_eq!(par.stats.checks_reused, 4);
    assert_eq!(seq.stats.checks_reused, 4);
    // Isolated placements pack nothing beyond the template's two bars.
    assert_eq!(par.stats.edges_packed, 8);

    // Placed once: nothing to reuse, still found.
    let mut lib = Library::new("once");
    lib.structures.push(tight_cell());
    let mut top = Structure::new("TOP");
    top.elements.push(Element::sref("TIGHT", Point::new(7, 9)));
    lib.structures.push(top);
    let (seq, par) = both_modes(&lib, 1, "placed once");
    assert_eq!((par.stats.checks_computed, par.stats.checks_reused), (1, 0));
    assert_eq!(seq.stats.checks_reused, 0);
}

#[test]
fn border_pair_refound_by_the_row_kernel_is_reported_once() {
    // A lid exactly MIN above the first placement (no violation of its
    // own) makes the pair a candidate: both bars fall in the window, so
    // the row kernel re-finds the template's internal pair there.
    let mut lib = five_tight_placements();
    let lid_y = 100 + 40 + MIN;
    let top = lib.structures.last_mut().unwrap();
    top.elements.push(rect_el(1, 0, lid_y, 31, lid_y + 10));
    let (_, par) = both_modes(&lib, 5, "abutting lid");
    assert_eq!(par.stats.checks_computed, 2, "template record + re-found");
    assert_eq!(par.stats.edges_packed, 8 + 8 + 4);

    // A delta re-check after an unrelated edit (a far-away top polygon
    // that violates nothing) still reports each violation once.
    let old = Layout::from_library(&lib).unwrap();
    let top = lib.structures.last_mut().unwrap();
    top.elements.push(rect_el(1, 60, lid_y, 90, lid_y + 10));
    let new = Layout::from_library(&lib).unwrap();
    let expected = Engine::sequential().check(&new, &space_deck()).violations;
    assert_eq!(expected.len(), 5);
    for engine in [Engine::sequential(), Config::par().device(2).engine()] {
        let got = engine.check_delta(&old, &par.violations, &new, &space_deck());
        assert_eq!(got.violations, expected, "{:?} delta", engine.mode());
    }
}

/// Every device unit kind: the width and area maps, two spacing rules,
/// and the enclosure and overlap maps (`fault_injection.rs`'s deck).
fn every_unit_deck() -> RuleDeck {
    RuleDeck::new(vec![
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
            .enclosed_by(tech::M2)
            .greater_than(tech::V1_M2_ENCLOSURE)
            .named("V1.M2.EN.1"),
        rule()
            .layer(tech::V1)
            .overlapping(tech::M2)
            .area_at_least(100)
            .named("V1.M2.OVL.1"),
    ])
}

#[test]
fn every_single_device_fault_on_the_template_path_is_survived() {
    // Only cell-internal violations, plus a top-level polygon so the
    // run has a partition row behind the template.
    let mut lib = five_tight_placements();
    let top = lib.structures.last_mut().unwrap();
    top.elements.push(rect_el(1, 0, 400, 50, 410));
    let templates = Layout::from_library(&lib).unwrap();
    let generated = generate_layout(&DesignSpec::tiny(21));
    // `(layout, deck, fault-free violations, minimum live ordinals of
    // alloc / transfer / stream-op / launch at the default threshold and
    // at threshold 0)`: each spacing rule is one launch per phase.
    let inputs = [
        (&templates, space_deck(), 5, [[1, 5, 7, 1], [2, 6, 10, 2]]),
        (
            &generated,
            every_unit_deck(),
            9,
            [[6, 14, 26, 6], [8, 16, 32, 8]],
        ),
    ];
    for (layout, deck, expected, at_least) in inputs {
        let thresholds = [EngineOptions::default().sweep_threshold, 0];
        for (sweep_threshold, at_least) in thresholds.into_iter().zip(at_least) {
            // Threshold 0 sends every row through count -> scan -> emit.
            let engine = |device: Device| {
                Engine::parallel_on(device).with_options(EngineOptions {
                    sweep_threshold,
                    ..EngineOptions::default()
                })
            };
            let clean = engine(Device::new(2)).check(layout, &deck);
            assert_eq!(clean.violations.len(), expected);
            assert!(!clean.stats.degraded());
            let survives = |fault: Fault| {
                let device = Device::new(2);
                device.set_fault_plan(Some(FaultPlan::new().with(fault)));
                let report = engine(device.clone()).check(layout, &deck);
                assert_eq!(report.violations, clean.violations, "{fault:?}");
                let fired = device.faults_injected() > 0;
                assert_eq!(
                    report.stats.degraded(),
                    fired,
                    "{fault:?}: degraded iff fired"
                );
                // One one-shot fault costs one fresh-stream retry; a
                // retry that re-read a failed shared buffer would fail
                // again and reach the host.
                assert_eq!(report.stats.device_fallbacks, 0, "{fault:?}");
                fired
            };
            // Ordinals are dense from 0: sweep each kind until one lies
            // past the fault-free run's last operation and stays dormant.
            type MakeFault = fn(u64) -> Fault;
            let kinds: [MakeFault; 4] = [
                |nth| Fault::AllocOom { nth },
                |nth| Fault::TransferFail { nth },
                |nth| Fault::StreamStall { nth },
                |kernel| Fault::KernelPanic { kernel, thread: 0 },
            ];
            for (make, at_least) in kinds.into_iter().zip(at_least) {
                let fired = (0..).take_while(|&nth| survives(make(nth))).count() as u64;
                assert!(fired >= at_least, "{:?}: only {fired} operations", make(0));
            }
        }
    }
}
