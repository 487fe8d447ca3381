//! Engine-level integration tests: mode equivalence, ablation
//! equivalence, and detection of the generator's injected violations.

use odrc::{rule, Engine, EngineOptions, RuleDeck, ViolationKind};
use odrc_layoutgen::{generate, generate_layout, tech, DesignSpec};
use odrc_xpu::Device;

/// The standard rule deck over the generated technology: the paper's
/// four rule families (width, spacing, area, enclosure) across the
/// BEOL layers.
fn full_deck() -> RuleDeck {
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
            .layer(tech::M3)
            .width()
            .greater_than(tech::M3_WIDTH)
            .named("M3.W.1"),
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
            .enclosed_by(tech::M2)
            .greater_than(tech::V2_M2_ENCLOSURE)
            .named("V2.M2.EN.1"),
        rule()
            .layer(tech::V2)
            .enclosed_by(tech::M3)
            .greater_than(tech::V2_M3_ENCLOSURE)
            .named("V2.M3.EN.1"),
        rule().polygons().is_rectilinear(),
    ])
}

#[test]
fn clean_design_has_no_violations() {
    let mut spec = DesignSpec::tiny(100);
    spec.violation_rate = 0.0;
    let layout = generate_layout(&spec);
    let report = Engine::sequential().check(&layout, &full_deck());
    assert_eq!(
        report.violations,
        vec![],
        "clean design must be violation-free"
    );
}

#[test]
fn injected_violations_are_found() {
    let mut spec = DesignSpec::tiny(101);
    spec.violation_rate = 0.25;
    let design = generate(&spec);
    let layout = odrc_db::Layout::from_library(&design.library).unwrap();
    let report = Engine::sequential().check(&layout, &full_deck());

    let count = |k: ViolationKind| report.violations.iter().filter(|v| v.kind == k).count();
    let s = design.stats;
    assert!(
        s.width + s.space + s.area + s.enclosure > 0,
        "nothing injected"
    );
    if s.width > 0 {
        assert!(
            count(ViolationKind::Width) >= s.width,
            "width: found {} < injected {}",
            count(ViolationKind::Width),
            s.width
        );
    }
    if s.space > 0 {
        assert!(count(ViolationKind::Space) >= s.space);
    }
    if s.area > 0 {
        assert!(count(ViolationKind::Area) >= s.area);
    }
    if s.enclosure > 0 {
        assert!(count(ViolationKind::Enclosure) >= s.enclosure);
    }
}

#[test]
fn sequential_and_parallel_agree() {
    for seed in [1u64, 2, 3] {
        let layout = generate_layout(&DesignSpec::tiny(seed));
        let deck = full_deck();
        let seq = Engine::sequential().check(&layout, &deck);
        let par = Engine::parallel_on(Device::new(3)).check(&layout, &deck);
        assert_eq!(
            seq.violations, par.violations,
            "seed {seed}: sequential and parallel modes disagree"
        );
        assert!(
            !seq.violations.is_empty(),
            "seed {seed}: expected some violations"
        );
    }
}

#[test]
fn parallel_uses_both_executors() {
    // Force the sweepline executor by lowering the threshold to zero,
    // and the brute executor by raising it; results must not change.
    let layout = generate_layout(&DesignSpec::tiny(7));
    let deck = full_deck();
    let base = Engine::parallel_on(Device::new(2)).check(&layout, &deck);
    for threshold in [0usize, usize::MAX] {
        let opts = EngineOptions {
            sweep_threshold: threshold,
            ..EngineOptions::default()
        };
        let r = Engine::parallel_on(Device::new(2))
            .with_options(opts)
            .check(&layout, &deck);
        assert_eq!(base.violations, r.violations, "threshold {threshold}");
    }
}

#[test]
fn ablations_do_not_change_results() {
    let layout = generate_layout(&DesignSpec::tiny(9));
    let deck = full_deck();
    let base = Engine::sequential().check(&layout, &deck);
    for (pruning, partition) in [(false, true), (true, false), (false, false)] {
        let opts = EngineOptions {
            pruning,
            partition,
            ..EngineOptions::default()
        };
        let r = Engine::sequential()
            .with_options(opts)
            .check(&layout, &deck);
        assert_eq!(
            base.violations, r.violations,
            "pruning={pruning} partition={partition}"
        );
    }
}

#[test]
fn pruning_reuses_checks() {
    let layout = generate_layout(&DesignSpec::tiny(10));
    let deck = full_deck();
    for engine in [Engine::sequential, || Engine::parallel_on(Device::new(2))] {
        let mode = engine().mode();
        let with = engine().check(&layout, &deck);
        let without = engine()
            .with_options(EngineOptions {
                pruning: false,
                ..EngineOptions::default()
            })
            .check(&layout, &deck);
        assert!(
            with.stats.checks_reused > 0,
            "{mode:?}: hierarchy should enable reuse"
        );
        assert_eq!(without.stats.checks_reused, 0, "{mode:?}");
        assert!(
            without.stats.checks_computed > with.stats.checks_computed,
            "{mode:?}: pruning must reduce executed checks: {} vs {}",
            without.stats.checks_computed,
            with.stats.checks_computed
        );
    }
}

#[test]
fn parallel_pruning_ablation_maps_every_instance() {
    // With pruning off, the default mode recomputes a width check per
    // placed instance; the device must map as many threads as that
    // count says, and the report must not move.
    let layout = generate_layout(&DesignSpec::tiny(10));
    let deck = RuleDeck::new(vec![rule()
        .layer(tech::M1)
        .width()
        .greater_than(tech::M1_WIDTH)
        .named("M1.W.1")]);
    let off = || EngineOptions {
        pruning: false,
        ..EngineOptions::default()
    };
    let device = Device::new(2);
    let par = Engine::parallel_on(device.clone())
        .with_options(off())
        .check(&layout, &deck);
    let seq = Engine::sequential()
        .with_options(off())
        .check(&layout, &deck);
    let pruned = Engine::parallel_on(Device::new(2)).check(&layout, &deck);
    assert_eq!(
        device.stats().threads_executed(),
        par.stats.checks_computed as u64
    );
    assert_eq!(par.stats.checks_computed, seq.stats.checks_computed);
    assert!(par.stats.checks_computed > pruned.stats.checks_computed);
    assert_eq!(par.stats.checks_reused, 0);
    assert_eq!(par.violations, pruned.violations);
    assert_eq!(par.violations, seq.violations);
}

#[test]
fn partition_produces_rows() {
    let layout = generate_layout(&DesignSpec::tiny(11));
    let deck = RuleDeck::new(vec![rule()
        .layer(tech::M2)
        .space()
        .greater_than(tech::M2_SPACE)
        .named("M2.S.1")]);
    let report = Engine::sequential().check(&layout, &deck);
    // M2 stays within row bands: expect one partition row per placement
    // row.
    assert!(report.stats.rows >= 4, "rows = {}", report.stats.rows);
    let single = Engine::sequential()
        .with_options(EngineOptions {
            partition: false,
            ..EngineOptions::default()
        })
        .check(&layout, &deck);
    assert_eq!(single.stats.rows, 1);
}

#[test]
fn profile_has_paper_phases() {
    let layout = generate_layout(&DesignSpec::tiny(12));
    let deck = RuleDeck::new(vec![rule()
        .layer(tech::M2)
        .space()
        .greater_than(tech::M2_SPACE)
        .named("M2.S.1")]);
    let report = Engine::sequential().check(&layout, &deck);
    for phase in ["partition", "sweepline", "edge-check"] {
        assert!(
            report.profile.phase(phase).is_some(),
            "missing phase {phase}"
        );
    }
    // A pair rule charges its row join and its measurement each to a
    // phase of its own; candidates are visited where they are measured,
    // so there is no separate gather phase.
    let deck = RuleDeck::new(vec![rule()
        .layer(tech::V1)
        .enclosed_by(tech::M2)
        .greater_than(tech::V1_M2_ENCLOSURE)
        .named("V1.M2.EN.1")]);
    let report = Engine::sequential().check(&layout, &deck);
    for phase in ["sweepline", "enclosure-check"] {
        assert!(
            report.profile.phase(phase).is_some(),
            "missing phase {phase} for an enclosure deck"
        );
    }
    assert!(
        report.profile.phase("enclosure-gather").is_none(),
        "an enclosure deck still has a gather phase"
    );
}

#[test]
fn ensures_rule_flags_unnamed_polygons() {
    let layout = generate_layout(&DesignSpec::tiny(13));
    // Vias are unnamed; wires are named.
    let deck = RuleDeck::new(vec![
        rule()
            .layer(tech::M2)
            .polygons()
            .ensures("named", |p| p.name.is_some()),
        rule()
            .layer(tech::V1)
            .polygons()
            .ensures("named", |p| p.name.is_some()),
    ]);
    let report = Engine::sequential().check(&layout, &deck);
    let m2_unnamed = report
        .violations
        .iter()
        .filter(|v| v.rule.contains(&format!("L{}", tech::M2)))
        .count();
    let v1_unnamed = report
        .violations
        .iter()
        .filter(|v| v.rule.contains(&format!("L{}", tech::V1)))
        .count();
    assert_eq!(m2_unnamed, 0, "all wires are named");
    assert!(v1_unnamed > 0, "vias are unnamed");
}

#[test]
fn conditional_spacing_by_projection() {
    use odrc_db::Layout;
    use odrc_gdsii::{Element, Library, Structure};
    use odrc_geometry::Point;

    // Two pairs of bars on layer 1, both 30 apart:
    //  - a long-run pair (projection 500),
    //  - a short-run pair (projection 40).
    let mut lib = Library::new("cond");
    let mut top = Structure::new("TOP");
    let bar = |x0: i32, y0: i32, w: i32, h: i32| {
        Element::boundary(
            1,
            vec![
                Point::new(x0, y0),
                Point::new(x0, y0 + h),
                Point::new(x0 + w, y0 + h),
                Point::new(x0 + w, y0),
            ],
        )
    };
    top.elements.push(bar(0, 0, 20, 500));
    top.elements.push(bar(50, 0, 20, 500)); // long pair, gap 30
    top.elements.push(bar(1000, 0, 20, 40));
    top.elements.push(bar(1050, 0, 20, 40)); // short pair, gap 30
    lib.structures.push(top);
    let layout = Layout::from_library(&lib).unwrap();

    // Unconditional 40-spacing flags both pairs.
    let plain = RuleDeck::new(vec![rule().layer(1).space().greater_than(40)]);
    let r = Engine::sequential().check(&layout, &plain);
    assert_eq!(r.violations.len(), 2);

    // Conditional: 40-spacing only for runs of at least 100 — flags
    // only the long pair.
    let cond = RuleDeck::new(vec![rule()
        .layer(1)
        .space()
        .when_projection_at_least(100)
        .greater_than(40)]);
    let r = Engine::sequential().check(&layout, &cond);
    assert_eq!(r.violations.len(), 1);
    assert_eq!(r.violations[0].location.lo().x, 20);

    // All engines agree on the conditional rule.
    let par = Engine::parallel_on(Device::new(2)).check(&layout, &cond);
    assert_eq!(r.violations, par.violations);
}

#[test]
fn conditional_spacing_engines_agree_on_designs() {
    let layout = generate_layout(&DesignSpec::tiny(33));
    let deck = RuleDeck::new(vec![
        rule()
            .layer(tech::M2)
            .space()
            .when_projection_at_least(200)
            .greater_than(40),
        rule()
            .layer(tech::M3)
            .space()
            .when_projection_at_least(100)
            .greater_than(48),
    ]);
    let seq = Engine::sequential().check(&layout, &deck);
    let par = Engine::parallel_on(Device::new(2)).check(&layout, &deck);
    assert_eq!(seq.violations, par.violations);
}

#[test]
fn overlap_area_rule_known_values() {
    use odrc_db::Layout;
    use odrc_gdsii::{Element, Library, Structure};
    use odrc_geometry::Point;

    // A 10x10 via fully on metal; a second via half off the metal.
    let mut lib = Library::new("ovl");
    let mut top = Structure::new("TOP");
    let rect_el = |layer: i16, x0: i32, y0: i32, x1: i32, y1: i32| {
        Element::boundary(
            layer,
            vec![
                Point::new(x0, y0),
                Point::new(x0, y1),
                Point::new(x1, y1),
                Point::new(x1, y0),
            ],
        )
    };
    top.elements.push(rect_el(2, 0, 0, 100, 20)); // metal
    top.elements.push(rect_el(1, 10, 5, 20, 15)); // via fully on metal
    top.elements.push(rect_el(1, 95, 5, 105, 15)); // via half off: overlap 50
    top.elements.push(rect_el(1, 200, 5, 210, 15)); // via entirely off: 0
    lib.structures.push(top);
    let layout = Layout::from_library(&lib).unwrap();

    let deck = RuleDeck::new(vec![rule().layer(1).overlapping(2).area_at_least(100)]);
    let report = Engine::sequential().check(&layout, &deck);
    assert_eq!(report.violations.len(), 2);
    let measured: Vec<i64> = report.violations.iter().map(|v| v.measured).collect();
    assert!(measured.contains(&50));
    assert!(measured.contains(&0));
    assert!(report
        .violations
        .iter()
        .all(|v| v.kind == ViolationKind::OverlapArea));

    // Parallel mode and baselines agree.
    let par = Engine::parallel_on(Device::new(2)).check(&layout, &deck);
    assert_eq!(report.violations, par.violations);
}

#[test]
fn overlap_area_on_generated_vias() {
    // Clean V1 vias (10x10) land fully on M2 wires: overlap == 100.
    let mut spec = DesignSpec::tiny(55);
    spec.violation_rate = 0.0;
    let layout = generate_layout(&spec);
    let deck = RuleDeck::new(vec![rule()
        .layer(tech::V1)
        .overlapping(tech::M2)
        .area_at_least(100)
        .named("V1.M2.OVL.1")]);
    let report = Engine::sequential().check(&layout, &deck);
    assert_eq!(
        report.violations,
        vec![],
        "clean vias fully overlap their wires"
    );

    // With injections, off-center vias lose overlap area.
    let mut spec = DesignSpec::tiny(55);
    spec.violation_rate = 0.4;
    let layout = generate_layout(&spec);
    let seq = Engine::sequential().check(&layout, &deck);
    let par = Engine::parallel_on(Device::new(2)).check(&layout, &deck);
    assert_eq!(seq.violations, par.violations);
    assert!(!seq.violations.is_empty(), "offset vias must lose overlap");
}

#[test]
fn report_filters_by_rule() {
    let layout = generate_layout(&DesignSpec::tiny(14));
    let deck = full_deck();
    let report = Engine::sequential().check(&layout, &deck);
    let m2s: Vec<_> = report.violations_of("M2.S.1").collect();
    assert!(m2s.iter().all(|v| v.kind == ViolationKind::Space));
}

/// The engine and everything a check server must move across threads
/// are `Send` (and the share-by-reference pieces `Sync`). A server
/// spawns one worker per job, hands each an `Engine`, and shares the
/// layout, deck, and options across jobs — this pins the thread-safety
/// contract at compile time.
#[test]
fn engine_types_are_thread_safe() {
    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Engine>();
    assert_send::<odrc::CheckReport>();
    assert_send::<odrc::ResultCache>();
    assert_send_sync::<EngineOptions>();
    assert_send_sync::<RuleDeck>();
    assert_send_sync::<odrc_db::Layout>();
}

/// The progress hook fires exactly once per rule with `Completed`
/// (execution order may differ from deck order under the planner's
/// layer grouping), in both execution modes.
#[test]
fn progress_callback_reports_every_rule() {
    use std::sync::{Arc, Mutex};
    let layout = generate_layout(&DesignSpec::tiny(7));
    let deck = full_deck();
    let mut expected: Vec<String> = deck.rules().iter().map(|r| r.name.clone()).collect();
    expected.sort();
    for engine in [Engine::sequential(), Engine::parallel_on(Device::new(1))] {
        let seen: Arc<Mutex<Vec<(String, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let engine = engine.with_progress(Arc::new(move |name, status| {
            sink.lock()
                .unwrap()
                .push((name.to_string(), status.to_string()));
        }));
        engine.check(&layout, &deck);
        let seen = seen.lock().unwrap();
        let mut names: Vec<String> = seen.iter().map(|(n, _)| n.clone()).collect();
        names.sort();
        assert_eq!(names, expected, "one completion event per rule");
        assert!(seen.iter().all(|(_, s)| s == "completed"));
    }
}

/// A shared pool installed via `EngineOptions` carries an engine run's
/// fan-outs (in both modes) and outlives it, so a server-wide pool can
/// span concurrent jobs.
#[test]
fn shared_pool_is_used() {
    use std::sync::Arc;
    let pool = Arc::new(odrc_infra::Pool::new(3));
    let layout = generate_layout(&DesignSpec::tiny(9));
    let deck = full_deck();
    let options = EngineOptions {
        host_threads: Some(4),
        shared_pool: Some(Arc::clone(&pool)),
        ..EngineOptions::default()
    };
    let baseline = Engine::sequential().check(&layout, &deck);
    for engine in [Engine::sequential(), Engine::parallel_on(Device::new(2))] {
        let shared = engine.with_options(options.clone()).check(&layout, &deck);
        assert_eq!(baseline.violations, shared.violations);
    }
    assert!(pool.started(), "the runs published onto the shared pool");
    assert_eq!(Arc::strong_count(&pool), 2, "no run kept the pool");
}
