//! Execution-planner equivalence and accounting tests.
//!
//! The planner decides *when* work happens — one scene per layer, one
//! upload per row set, rules issued ahead of collection — but must
//! never change *what* is reported. The sequential mode (one rule at a
//! time, no device) is the baseline: the parallel mode must report the
//! byte-identical canonical violation set, with and without injected
//! device faults, and the sharing counters must show the planner at
//! work.

use odrc::{rule, Engine, EngineOptions, Mode, RuleDeck, Violation};
use odrc_layoutgen::{generate_layout, tech, DesignSpec};
use odrc_xpu::{Device, FaultPlan};
use proptest::prelude::*;

/// A deck with several rules per layer so the planner has sharing to
/// exploit: the two M1 spacing rules share one partitioned row set
/// (same layer, same distance), width + area share the M1 polygon
/// buffer, and the enclosure's outer scene is the M2 spacing scene.
fn shared_deck() -> RuleDeck {
    RuleDeck::new(vec![
        rule()
            .layer(tech::M1)
            .width()
            .greater_than(tech::M1_WIDTH)
            .named("M1.W.1"),
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
            .greater_than(tech::M1_SPACE)
            .named("M1.S.2"),
        rule()
            .layer(tech::M2)
            .space()
            .greater_than(tech::M2_SPACE)
            .named("M2.S.1"),
        rule()
            .layer(tech::V1)
            .enclosed_by(tech::M2)
            .greater_than(tech::V1_M2_ENCLOSURE)
            .named("V1.M2.EN.1"),
    ])
}

fn engine(mode: Mode) -> Engine {
    let base = match mode {
        Mode::Sequential => Engine::sequential(),
        Mode::Parallel => Engine::parallel_on(Device::new(3)),
    };
    base.with_options(EngineOptions {
        ..EngineOptions::default()
    })
}

fn check(layout: &odrc_db::Layout, mode: Mode) -> odrc::CheckReport {
    engine(mode).check(layout, &shared_deck())
}

#[test]
fn sequential_scene_memo_builds_each_layer_once() {
    let layout = generate_layout(&DesignSpec::tiny(31));
    // Two spacing rules on M1 and the enclosure reading M2: each
    // layer's scene is built exactly once per run.
    let deck = RuleDeck::new(vec![
        rule()
            .layer(tech::M1)
            .space()
            .greater_than(tech::M1_SPACE)
            .named("M1.S.1"),
        rule()
            .layer(tech::M1)
            .space()
            .when_projection_at_least(tech::M1_WIDTH)
            .greater_than(tech::M1_SPACE)
            .named("M1.S.2"),
        rule()
            .layer(tech::M2)
            .space()
            .greater_than(tech::M2_SPACE)
            .named("M2.S.1"),
        rule()
            .layer(tech::V1)
            .enclosed_by(tech::M2)
            .greater_than(tech::V1_M2_ENCLOSURE)
            .named("V1.M2.EN.1"),
    ]);
    let report = Engine::sequential().check(&layout, &deck);
    // Scene reads: M1 twice (the two spacing rules), M2 twice (space +
    // enclosure outer), V1 once (enclosure inner) — three builds, two
    // memo hits.
    assert_eq!(report.stats.scenes_built, 3, "one build per layer");
    assert_eq!(report.stats.scenes_reused, 2, "every re-read is a memo hit");
}

#[test]
fn planner_shares_row_uploads_across_rules() {
    let layout = generate_layout(&DesignSpec::tiny(32));
    let par = check(&layout, Mode::Parallel);
    let seq = check(&layout, Mode::Sequential);
    assert_eq!(par.violations, seq.violations);
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
    /// byte-identical canonical violations of the sequential
    /// one-rule-at-a-time loop.
    #[test]
    fn prop_planner_matches_per_rule_loop(design_seed in 0u64..1_000) {
        let layout = generate_layout(&DesignSpec::tiny(design_seed));
        let baseline = check(&layout, Mode::Sequential).violations;
        let got = check(&layout, Mode::Parallel).violations;
        prop_assert_eq!(
            &got, &baseline,
            "parallel mode diverged on design seed {}",
            design_seed
        );
    }

    /// Under seeded fault schedules, the planned concurrent engine
    /// still reports exactly the clean sequential baseline.
    #[test]
    fn prop_planner_survives_fault_injection(
        design_seed in 0u64..100,
        fault_seed in 0u64..200,
    ) {
        let layout = generate_layout(&DesignSpec::tiny(design_seed));
        let baseline: Vec<Violation> = check(&layout, Mode::Sequential).violations;
        let device = Device::new(3);
        device.set_fault_plan(Some(FaultPlan::from_seed(fault_seed, 6)));
        let report = Engine::parallel_on(device.clone())
            .with_options(EngineOptions {
                ..EngineOptions::default()
            })
            .check(&layout, &shared_deck());
        prop_assert_eq!(
            &report.violations, &baseline,
            "fault seed {} changed the results on design {}",
            fault_seed, design_seed
        );
        prop_assert_eq!(
            report.stats.degraded(),
            device.faults_injected() > 0,
            "degradation must be reported iff faults fired"
        );
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
    use odrc_gdsii::{Element, Library, Structure};
    use odrc_geometry::Point;
    let mut lib = Library::new("bars");
    let mut bar = Structure::new("BAR");
    let corners = [(0, 0), (0, 100), (20, 100), (20, 0)];
    bar.elements.push(Element::boundary(
        tech::M1,
        corners.iter().map(|&(x, y)| Point::new(x, y)).collect(),
    ));
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
    layouts.extend((40..44).map(|seed| generate_layout(&DesignSpec::tiny(seed))));
    for (li, layout) in layouts.iter().enumerate() {
        for (first, second) in [(17, 18), (18, 17)] {
            let deck = shared_half_deck(first, second);
            let seq = engine(Mode::Sequential).check(layout, &deck);
            let par = engine(Mode::Parallel).check(layout, &deck);
            assert_eq!(
                par.violations, seq.violations,
                "layout {li}: rules issued {first} then {second}"
            );
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
    let layout = generate_layout(&DesignSpec::tiny(33));
    let run = |host_threads: usize, fault_seed: Option<u64>| {
        let device = Device::new(3);
        device.set_fault_plan(fault_seed.map(|seed| FaultPlan::from_seed(seed, 6)));
        Engine::parallel_on(device)
            .with_options(EngineOptions {
                host_threads: Some(host_threads),
                ..EngineOptions::default()
            })
            .check(&layout, &shared_deck())
            .stats
            .edges_packed
    };
    let reference = run(1, None);
    assert!(reference > 0, "a parallel run packs edges");
    // The default mode packs the same units, but once per rule: only
    // the parallel mode shares M1's row set between M1.S.1 and M1.S.2.
    let sequential = check(&layout, Mode::Sequential).stats.edges_packed;
    assert!(sequential > reference, "{sequential} vs {reference}");
    for host_threads in [2, 8] {
        assert_eq!(run(host_threads, None), reference, "{host_threads} threads");
    }
    for fault_seed in 0..10 {
        assert_eq!(
            run(2, Some(fault_seed)),
            reference,
            "fault seed {fault_seed}"
        );
    }
}

#[test]
fn parallel_mode_counts_reuse_like_the_sequential_memo() {
    for design_seed in 50..62 {
        let layout = generate_layout(&DesignSpec::tiny(design_seed));
        let seq = check(&layout, Mode::Sequential);
        let par = check(&layout, Mode::Parallel);
        assert!(seq.stats.checks_reused > 0);
        assert_eq!(
            par.stats.checks_reused, seq.stats.checks_reused,
            "design seed {design_seed}"
        );
    }
}
