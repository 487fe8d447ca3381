//! Every deck the suites check, defined once. A rule on the generated
//! designs' layers is looked up by name in `tech_rule`, so one name is
//! one rule in every deck.

use odrc::{rule, Rule, RuleDeck};
use odrc_layoutgen::tech::*;

/// The generated designs' rule called `name`, at `tech`'s minimums.
fn tech_rule(name: &str) -> Rule {
    let via = |size: i32| i64::from(size) * i64::from(size);
    let r = match name {
        "M1.W.1" => rule().layer(M1).width().greater_than(M1_WIDTH),
        "M2.W.1" => rule().layer(M2).width().greater_than(M2_WIDTH),
        "M1.A.1" => rule().layer(M1).area().greater_than(M1_AREA),
        "M1.S.1" => rule().layer(M1).space().greater_than(M1_SPACE),
        // Projection-gated at `M1.S.1`'s distance: the two share one
        // row set under `--parallel`.
        "M1.S.2" => rule()
            .layer(M1)
            .space()
            .when_projection_at_least(M1_WIDTH)
            .greater_than(M1_SPACE),
        // Projection-gated and wider: a row set of its own.
        "M1.S.3" => rule()
            .layer(M1)
            .space()
            .when_projection_at_least(M1_WIDTH)
            .greater_than(M1_SPACE + 6),
        "M2.S.1" => rule().layer(M2).space().greater_than(M2_SPACE),
        "M2.S.2" => rule()
            .layer(M2)
            .space()
            .when_projection_at_least(M2_WIDTH)
            .greater_than(M2_SPACE),
        "M3.S.1" => rule().layer(M3).space().greater_than(M3_SPACE),
        "V1.M1.EN.1" => rule()
            .layer(V1)
            .enclosed_by(M1)
            .greater_than(V1_M1_ENCLOSURE),
        "V1.M2.EN.1" => rule()
            .layer(V1)
            .enclosed_by(M2)
            .greater_than(V1_M2_ENCLOSURE),
        "V2.M3.EN.1" => rule()
            .layer(V2)
            .enclosed_by(M3)
            .greater_than(V2_M3_ENCLOSURE),
        // A via pushed off its wire shares less than its whole area.
        "V1.M2.OV.1" => rule().layer(V1).overlapping(M2).area_at_least(via(V1_SIZE)),
        "V2.M3.OV.1" => rule().layer(V2).overlapping(M3).area_at_least(via(V2_SIZE)),
        "V2.M2.OV.1" => rule().layer(V2).overlapping(M2).area_at_least(80),
        "RECT.1" => rule().polygons().is_rectilinear(),
        _ => panic!("no tech rule is called {name}"),
    };
    r.named(name)
}

/// The `tech_rule`s called `names`, in that order.
pub fn tech_deck(names: &[&str]) -> RuleDeck {
    RuleDeck::new(names.iter().map(|name| tech_rule(name)).collect())
}

/// Every phase both modes run, with sharing to exploit: the two M1
/// spacing rules share one row set, width and area one polygon buffer,
/// and the enclosure's outer scene is M2's spacing scene.
pub fn shared() -> RuleDeck {
    tech_deck(&[
        "M1.W.1",
        "M1.A.1",
        "M1.S.1",
        "M1.S.2",
        "M2.S.1",
        "V1.M2.EN.1",
    ])
}

/// Every rule family: width, area, two spacing rules on one layer in
/// different row sets, the other routing layers' spacing, enclosure on
/// every via pair, overlap area and the layer-less rectilinear check.
pub fn every_family() -> RuleDeck {
    tech_deck(&[
        "M1.W.1",
        "M2.W.1",
        "M1.A.1",
        "M1.S.1",
        "M1.S.3",
        "M2.S.1",
        "M3.S.1",
        "V1.M1.EN.1",
        "V1.M2.EN.1",
        "V2.M3.EN.1",
        "V2.M2.OV.1",
        "RECT.1",
    ])
}

/// A whole-rule width unit beside every sharded family: plain and
/// projection-gated spacing, enclosure and overlap area.
pub fn sharded() -> RuleDeck {
    tech_deck(&["M1.W.1", "M1.S.1", "M2.S.2", "V1.M2.EN.1", "V1.M2.OV.1"])
}

/// Enclosure on both via layers against their metals, and the
/// overlap-area form of the same constraint.
pub fn vias() -> RuleDeck {
    tech_deck(&[
        "V1.M1.EN.1",
        "V1.M2.EN.1",
        "V2.M3.EN.1",
        "V1.M2.OV.1",
        "V2.M3.OV.1",
    ])
}

/// Every device path: the row-pipelined spacing kernels, the intra maps
/// (width, area) and the pair maps (enclosure, overlap). Its issue order
/// fixes which launch each seeded fault hits.
pub fn device_paths() -> RuleDeck {
    tech_deck(&[
        "M2.W.1",
        "M1.A.1",
        "M2.S.1",
        "M3.S.1",
        "V1.M2.EN.1",
        "V1.M2.OV.1",
    ])
}

/// [`shared`], the rectilinear check and a user predicate, which has no
/// stable signature: a resume re-runs it instead of restoring it.
pub fn resumable() -> RuleDeck {
    let mut rules = shared().rules().to_vec();
    rules.push(tech_rule("RECT.1"));
    // Flags every V1 polygon, deterministically.
    rules.push(rule().layer(V1).polygons().ensures("flagged", |_| false));
    RuleDeck::new(rules)
}

/// What every baseline checker supports: width, spacing and enclosure.
pub fn baselines() -> RuleDeck {
    tech_deck(&[
        "M1.W.1",
        "M2.W.1",
        "M1.S.1",
        "M2.S.1",
        "M3.S.1",
        "V1.M2.EN.1",
        "V2.M3.EN.1",
    ])
}

/// Every rule kind on hand-drawn layers 1 (wide shapes) and 2 (small
/// ones), tight enough that random rects regularly violate and pass.
pub fn edits() -> RuleDeck {
    RuleDeck::new(vec![
        rule().layer(1).space().greater_than(12).named("L1.S.1"),
        rule()
            .layer(1)
            .space()
            .when_projection_at_least(6)
            .greater_than(16)
            .named("L1.S.2"),
        rule().layer(2).space().greater_than(8).named("L2.S.1"),
        rule().layer(1).width().greater_than(8).named("L1.W.1"),
        rule().layer(1).area().greater_than(100).named("L1.A.1"),
        rule()
            .layer(2)
            .enclosed_by(1)
            .greater_than(3)
            .named("L2.L1.EN.1"),
        rule()
            .layer(2)
            .overlapping(1)
            .area_at_least(10)
            .named("L2.L1.OV.1"),
        rule().polygons().is_rectilinear(),
    ])
}

/// The fuzzed layouts' deck on layers 1 and 2.
pub fn fuzz() -> RuleDeck {
    RuleDeck::new(vec![
        rule().layer(1).width().greater_than(10).named("F1.W"),
        rule().layer(1).space().greater_than(12).named("F1.S"),
        rule().layer(2).space().greater_than(9).named("F2.S"),
        rule()
            .layer(1)
            .space()
            .when_projection_at_least(20)
            .greater_than(25)
            .named("F1.SP"),
        rule().layer(1).area().greater_than(400).named("F1.A"),
        rule()
            .layer(2)
            .enclosed_by(1)
            .greater_than(3)
            .named("F2.EN"),
        rule()
            .layer(2)
            .overlapping(1)
            .area_at_least(50)
            .named("F2.OVL"),
    ])
}

/// Width, spacing, area and enclosure on layers 1 and 2, for
/// hand-built edge-case layouts.
pub fn edge() -> RuleDeck {
    RuleDeck::new(vec![
        rule().layer(1).width().greater_than(10).named("W"),
        rule().layer(1).space().greater_than(12).named("S"),
        rule().layer(1).area().greater_than(100).named("A"),
        rule().layer(2).enclosed_by(1).greater_than(3).named("EN"),
    ])
}
