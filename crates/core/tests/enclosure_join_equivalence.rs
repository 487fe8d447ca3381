//! Enclosure and overlap-area rules have one candidate-discovery and
//! measuring path — `PairsWork`, whose row join lets each inner window
//! binary-search the outer layer's rows and whose measure visits the
//! joined objects' polygons straight from the scenes — shared by the
//! in-core engine (host tasks and device kernels), delta windows, and
//! out-of-core shards. These tests pin
//! the consequence: on a design with injected off-centre vias, every way
//! of reaching that path reports the same canonical violations as the
//! single-threaded in-core sequential run.

use odrc::{rule, Engine, EngineOptions, Mode, RuleDeck, Violation, ViolationKind};
use odrc_db::{LayerPolygon, Layout};
use odrc_geometry::{Coord, Point, Polygon, Rect};
use odrc_layoutgen::{generate, tech, DesignSpec};
use odrc_xpu::Device;

const THREADS: [usize; 3] = [1, 2, 4];

/// Enclosure on both via layers against both of their metals, and the
/// overlap-area form of the same constraint (a via pushed off its wire
/// shares less than its full area with it).
fn deck() -> RuleDeck {
    let via_area = i64::from(tech::V1_SIZE) * i64::from(tech::V1_SIZE);
    RuleDeck::new(vec![
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
            .layer(tech::V1)
            .overlapping(tech::M2)
            .area_at_least(via_area)
            .named("V1.M2.OV.1"),
        rule()
            .layer(tech::V2)
            .overlapping(tech::M3)
            .area_at_least(via_area)
            .named("V2.M3.OV.1"),
    ])
}

/// A generated design where roughly a third of the vias are injected
/// off-centre.
fn dirty_design(seed: u64) -> Layout {
    let design = generate(&DesignSpec {
        violation_rate: 0.3,
        ..DesignSpec::tiny(seed)
    });
    assert!(
        design.stats.enclosure > 0,
        "no enclosure violation injected"
    );
    Layout::from_library(&design.library).expect("generated library imports")
}

fn engine(mode: Mode, options: EngineOptions) -> Engine {
    let base = match mode {
        Mode::Sequential => Engine::sequential(),
        Mode::Parallel => Engine::parallel_on(Device::new(3)),
    };
    base.with_options(EngineOptions { ..options })
}

fn threads(n: usize) -> EngineOptions {
    EngineOptions {
        host_threads: Some(n),
        ..EngineOptions::default()
    }
}

/// The single-threaded in-core sequential report every other
/// configuration must reproduce; asserts both rule kinds fire.
fn baseline(layout: &Layout) -> Vec<Violation> {
    let report = engine(Mode::Sequential, threads(1)).check(layout, &deck());
    for kind in [ViolationKind::Enclosure, ViolationKind::OverlapArea] {
        assert!(
            report.violations.iter().any(|v| v.kind == kind),
            "the design exercises no {kind:?} violation"
        );
    }
    report.violations
}

#[test]
fn in_core_reports_match_across_threads_and_modes() {
    let layout = dirty_design(41);
    let expected = baseline(&layout);
    for mode in [Mode::Sequential, Mode::Parallel] {
        for n in THREADS {
            let got = engine(mode, threads(n)).check(&layout, &deck());
            assert_eq!(
                got.violations, expected,
                "{mode:?} with {n} host thread(s) diverged"
            );
        }
    }
}

#[test]
fn sharded_reports_match_in_core() {
    let layout = dirty_design(42);
    let expected = baseline(&layout);
    // A budget far below one layer scene (every shard evicts or
    // degrades) and a roomy one, at two shard granularities.
    for (budget, shard_rows) in [(4 << 10, 1), (4 << 10, 3), (64 << 20, 2)] {
        for n in THREADS {
            let options = EngineOptions {
                memory_budget: Some(budget),
                shard_rows: Some(shard_rows),
                ..threads(n)
            };
            let got = engine(Mode::Sequential, options).check(&layout, &deck());
            assert!(got.stats.shards_checked > 0, "the run did not shard");
            assert_eq!(
                got.violations, expected,
                "budget {budget}, {shard_rows} row(s) per shard, {n} host thread(s) diverged"
            );
        }
    }
}

#[test]
fn delta_window_reports_match_a_fresh_check() {
    let old = dirty_design(43);
    let old_violations = baseline(&old);

    // Push one clean V1 via off its wire and drop the M2 wire under
    // another: both enclosure and overlap verdicts change near the dirt.
    let mut new = old.clone();
    let top = new.top();
    let clean_vias: Vec<(usize, Rect)> = new
        .cell(top)
        .polygons()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.layer == tech::V1)
        .map(|(i, p)| (i, p.polygon.mbr()))
        .filter(|(_, mbr)| !old_violations.iter().any(|v| v.location == *mbr))
        .collect();
    let (moved, at) = clean_vias[0];
    let shifted = at.translate(Point::new(0, 8));
    new.replace_polygon(
        top,
        moved,
        LayerPolygon {
            layer: tech::V1,
            datatype: 0,
            polygon: Polygon::rect(shifted),
            name: None,
        },
    )
    .expect("replace a top-cell via");
    let (_, orphan) = *clean_vias.last().expect("more than one clean via");
    let wire = new
        .cell(top)
        .polygons()
        .iter()
        .position(|p| p.layer == tech::M2 && p.polygon.mbr().contains_rect(orphan))
        .expect("a clean via sits on an M2 wire");
    new.remove_polygon(top, wire)
        .expect("remove a top-cell wire");

    let expected = baseline(&new);
    assert_ne!(expected, old_violations, "the edit changed no verdict");
    for mode in [Mode::Sequential, Mode::Parallel] {
        for n in THREADS {
            let got = engine(mode, threads(n)).check_delta(&old, &old_violations, &new, &deck());
            assert_eq!(
                got.violations, expected,
                "{mode:?} delta with {n} host thread(s) diverged"
            );
        }
    }
}

/// `layout` plus a top-level M2 wire across the layer's whole extent,
/// centred on a top-level V1 via. It starts the M2 row it lands in, so
/// that row's running maximum of right edges spans the row from its
/// first member on: the row join's worst case.
fn with_spanning_wire(layout: &Layout) -> Layout {
    let mut spanned = layout.clone();
    let top = spanned.top();
    let extent = spanned
        .cell(top)
        .layer_mbr(tech::M2)
        .expect("the design has M2");
    let via = spanned
        .cell(top)
        .polygons_on(tech::V1)
        .next()
        .expect("a top-level V1 via")
        .polygon
        .mbr();
    let reach = 2 * tech::V1_M2_ENCLOSURE as Coord;
    let wire = Rect::from_coords(
        extent.lo().x - 1,
        via.lo().y - reach,
        extent.hi().x,
        via.hi().y + reach,
    );
    spanned
        .add_polygon(
            top,
            LayerPolygon {
                layer: tech::M2,
                datatype: 0,
                polygon: Polygon::rect(wire),
                name: None,
            },
        )
        .expect("add a top-level wire");
    spanned
}

#[test]
fn a_row_spanning_outer_wire_matches_in_core_sharded_and_delta() {
    let old = dirty_design(44);
    let old_violations = baseline(&old);
    let new = with_spanning_wire(&old);
    let expected = baseline(&new);
    assert_ne!(expected, old_violations, "the wire changed no verdict");
    for mode in [Mode::Sequential, Mode::Parallel] {
        for n in THREADS {
            let got = engine(mode, threads(n)).check(&new, &deck());
            assert_eq!(got.violations, expected, "{mode:?} with {n} thread(s)");
            let got = engine(mode, threads(n)).check_delta(&old, &old_violations, &new, &deck());
            assert_eq!(
                got.violations, expected,
                "{mode:?} delta with {n} thread(s)"
            );
        }
    }
    for n in THREADS {
        let options = EngineOptions {
            memory_budget: Some(4 << 10),
            shard_rows: Some(1),
            ..threads(n)
        };
        let got = engine(Mode::Sequential, options).check(&new, &deck());
        assert!(got.stats.shards_checked > 0, "the run did not shard");
        assert_eq!(got.violations, expected, "sharded with {n} thread(s)");
    }
}
