//! Execution-planner equivalence and accounting tests.
//!
//! The planner decides *when* work happens — one scene per layer, one
//! upload per row set, rules issued ahead of collection — but must
//! never change *what* is reported. The sequential mode (one rule at a
//! time, no device) is the reference: the parallel mode must report the
//! byte-identical canonical violation set and the modes' shared
//! counters, with and without injected device faults, and the sharing
//! counters must show the planner at work.

use odrc::{rule, RuleDeck};
use odrc_gdsii::{Element, Library, Structure};
use odrc_geometry::Point;
use odrc_layoutgen::tech;
use odrc_testkit::decks::{self, tech_deck};
use odrc_testkit::layouts::{rect_el, tiny};
use odrc_testkit::{assert_agree, assert_degraded_iff_fired, reference, Agree, Config};
use proptest::prelude::*;

#[test]
fn sequential_scene_memo_builds_each_layer_once() {
    // Two spacing rules on M1 and the enclosure reading M2: each
    // layer's scene is built exactly once per run.
    let deck = tech_deck(&["M1.S.1", "M1.S.2", "M2.S.1", "V1.M2.EN.1"]);
    let report = Config::seq().check(&tiny(31), &deck);
    // Scene reads: M1 twice (the two spacing rules), M2 twice (space +
    // enclosure outer), V1 once (enclosure inner) — three builds, two
    // memo hits.
    assert_eq!(report.stats.scenes_built, 3, "one build per layer");
    assert_eq!(report.stats.scenes_reused, 2, "every re-read is a memo hit");
}

#[test]
fn planner_shares_row_uploads_across_rules() {
    let layout = tiny(32);
    let seq = reference(&layout, &decks::shared());
    let par = Config::par().check(&layout, &decks::shared());
    assert_agree("parallel", &par, &seq, Agree::Shared, &[]);
    assert!(par.stats.scenes_reused > 0, "scene memo must hit");
    assert!(par.stats.uploads_elided > 0, "row buffers must be shared");
    // The dispatch layer's counter surfaces through `EngineStats`:
    // every rule's uploads and kernels ride fused batch dispatches.
    assert!(
        par.stats.launches_fused > 0,
        "a parallel run must count fused launches"
    );
    assert_eq!(seq.stats.launches_fused, 0, "no device work in sequential");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On generated designs, the planned concurrent engine reports the
    /// byte-identical canonical violations and the shared counters of
    /// the sequential one-rule-at-a-time loop.
    #[test]
    fn prop_planner_matches_per_rule_loop(design_seed in 0u64..1_000) {
        let layout = tiny(design_seed);
        let want = reference(&layout, &decks::shared());
        let got = Config::par().check(&layout, &decks::shared());
        assert_agree(&format!("design {design_seed}"), &got, &want, Agree::Shared, &[]);
    }

    /// Under seeded fault schedules, the planned concurrent engine
    /// still reports exactly the clean sequential reference.
    #[test]
    fn prop_planner_survives_fault_injection(
        design_seed in 0u64..100,
        fault_seed in 0u64..200,
    ) {
        let layout = tiny(design_seed);
        let want = reference(&layout, &decks::shared());
        let engine = Config::par().fault_seed(fault_seed).engine();
        let got = engine.check(&layout, &decks::shared());
        let what = format!("design {design_seed}, fault seed {fault_seed}");
        assert_agree(&what, &got, &want, Agree::Report, &[]);
        assert_degraded_iff_fired(&what, &engine, &got.stats);
    }
}

/// Two M1 spacing rules whose distances (17, 18) round to one
/// `RowSetKey` half: they share a single row set, built by whichever is
/// issued first with windows sized from the key — never from that
/// rule's own distance.
fn shared_half_deck(first: i64, second: i64) -> RuleDeck {
    let space = |min: i64| {
        rule()
            .layer(tech::M1)
            .space()
            .greater_than(min)
            .named(format!("M1.S.{min}"))
    };
    RuleDeck::new(vec![space(first), space(second)])
}

/// One bar cell placed four times in a row at gaps 16, 17 and 18.
fn bars_at_16_17_18() -> odrc_db::Layout {
    let mut lib = Library::new("bars");
    let mut bar = Structure::new("BAR");
    bar.elements.push(rect_el(tech::M1, 0, 0, 20, 100));
    lib.structures.push(bar);
    let mut top = Structure::new("TOP");
    for x in [0, 36, 73, 111] {
        top.elements.push(Element::sref("BAR", Point::new(x, 0)));
    }
    lib.structures.push(top);
    odrc_db::Layout::from_library(&lib).expect("valid library")
}

#[test]
fn rules_sharing_one_row_set_agree_in_either_issue_order() {
    let mut layouts = vec![bars_at_16_17_18()];
    layouts.extend((40..44).map(tiny));
    for (li, layout) in layouts.iter().enumerate() {
        for (first, second) in [(17, 18), (18, 17)] {
            let deck = shared_half_deck(first, second);
            let seq = reference(layout, &deck);
            let par = Config::par().check(layout, &deck);
            let what = format!("layout {li}: rules issued {first} then {second}");
            assert_agree(&what, &par, &seq, Agree::Shared, &[]);
            if li == 0 {
                // Gap 16 violates both rules, gap 17 only the wider.
                assert_eq!(seq.violations_of("M1.S.17").count(), 1);
                assert_eq!(seq.violations_of("M1.S.18").count(), 2);
            }
        }
    }
}

#[test]
fn edges_packed_depends_on_the_input_only() {
    let layout = tiny(33);
    let run = |config: Config| config.check(&layout, &decks::shared()).stats.edges_packed;
    let one = run(Config::par().threads(1));
    assert!(one > 0, "a parallel run packs edges");
    // The default mode packs the same units, but once per rule: only
    // the parallel mode shares M1's row set between M1.S.1 and M1.S.2.
    let sequential = run(Config::seq());
    assert!(sequential > one, "{sequential} vs {one}");
    for host_threads in [2, 8] {
        let packed = run(Config::par().threads(host_threads));
        assert_eq!(packed, one, "{host_threads} threads");
    }
    for fault_seed in 0..10 {
        let packed = run(Config::par().threads(2).fault_seed(fault_seed));
        assert_eq!(packed, one, "fault seed {fault_seed}");
    }
}

#[test]
fn parallel_mode_counts_reuse_like_the_sequential_memo() {
    for design_seed in 50..62 {
        let layout = tiny(design_seed);
        let seq = reference(&layout, &decks::shared());
        let par = Config::par().check(&layout, &decks::shared());
        assert!(seq.stats.checks_reused > 0);
        let what = format!("design {design_seed}");
        assert_agree(&what, &par, &seq, Agree::Shared, &[]);
    }
}
