//! Enclosure and overlap-area rules have one candidate-discovery and
//! measuring path — `PairsWork`, whose row join lets each inner window
//! binary-search the outer layer's rows and whose measure visits the
//! joined objects' polygons straight from the scenes — shared by the
//! in-core engine (host tasks and device kernels), delta windows, and
//! out-of-core shards. These tests pin
//! the consequence: on a design with injected off-centre vias, every way
//! of reaching that path reports the same canonical violations as the
//! single-threaded in-core sequential run.

use odrc::{CheckReport, Mode, ViolationKind};
use odrc_db::{LayerPolygon, Layout};
use odrc_geometry::{Coord, Point, Polygon, Rect};
use odrc_layoutgen::{generate, tech, DesignSpec};
use odrc_testkit::{assert_agree, decks, reference, Agree, Config};

const THREADS: [usize; 3] = [1, 2, 4];

/// Every in-core cell: both modes at every thread count.
fn in_core() -> impl Iterator<Item = Config> {
    [Mode::Sequential, Mode::Parallel]
        .into_iter()
        .flat_map(|mode| THREADS.map(|n| Config::of(mode).threads(n)))
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

/// The reference report every other cell must reproduce; asserts both
/// rule kinds fire.
fn vias_reference(layout: &Layout) -> CheckReport {
    let report = reference(layout, &decks::vias());
    for kind in [ViolationKind::Enclosure, ViolationKind::OverlapArea] {
        assert!(
            report.violations.iter().any(|v| v.kind == kind),
            "the design exercises no {kind:?} violation"
        );
    }
    report
}

#[test]
fn in_core_reports_match_across_threads_and_modes() {
    let layout = dirty_design(41);
    let want = vias_reference(&layout);
    for config in in_core() {
        let got = config.check(&layout, &decks::vias());
        assert_agree(&format!("{config:?}"), &got, &want, Agree::Shared, &[]);
    }
}

#[test]
fn sharded_reports_match_in_core() {
    let layout = dirty_design(42);
    let want = vias_reference(&layout);
    // A budget far below one layer scene (every shard evicts or
    // degrades) and a roomy one, at two shard granularities.
    for (budget, shard_rows) in [(4 << 10, 1), (4 << 10, 3), (64 << 20, 2)] {
        for n in THREADS {
            let config = Config::seq().threads(n).shards(shard_rows).budget(budget);
            let got = config.check(&layout, &decks::vias());
            assert!(got.stats.shards_checked > 0, "the run did not shard");
            assert_agree(&format!("{config:?}"), &got, &want, Agree::Report, &[]);
        }
    }
}

#[test]
fn delta_window_reports_match_a_fresh_check() {
    let old = dirty_design(43);
    let old_violations = vias_reference(&old).violations;

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

    let want = vias_reference(&new);
    assert_ne!(
        want.violations, old_violations,
        "the edit changed no verdict"
    );
    for config in in_core() {
        let got = config
            .engine()
            .check_delta(&old, &old_violations, &new, &decks::vias());
        assert_agree(
            &format!("{config:?} delta"),
            &got,
            &want,
            Agree::Report,
            &[],
        );
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
    let old_violations = vias_reference(&old).violations;
    let new = with_spanning_wire(&old);
    let want = vias_reference(&new);
    assert_ne!(
        want.violations, old_violations,
        "the wire changed no verdict"
    );
    for config in in_core() {
        let engine = config.engine();
        let got = engine.check(&new, &decks::vias());
        assert_agree(&format!("{config:?}"), &got, &want, Agree::Shared, &[]);
        let got = engine.check_delta(&old, &old_violations, &new, &decks::vias());
        assert_agree(
            &format!("{config:?} delta"),
            &got,
            &want,
            Agree::Report,
            &[],
        );
    }
    for n in THREADS {
        let config = Config::seq().threads(n).shards(1).budget(4 << 10);
        let got = config.check(&new, &decks::vias());
        assert!(got.stats.shards_checked > 0, "the run did not shard");
        assert_agree(&format!("{config:?}"), &got, &want, Agree::Report, &[]);
    }
}
