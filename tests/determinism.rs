//! Determinism and stability guarantees across the whole stack.

use odrc::{rule, CounterClass, Engine, EngineStats, RuleDeck};
use odrc_db::Layout;
use odrc_layoutgen::{generate, tech, DesignSpec};
use odrc_xpu::Device;

fn deck() -> RuleDeck {
    RuleDeck::new(vec![
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
            .layer(tech::M1)
            .width()
            .greater_than(tech::M1_WIDTH)
            .named("M1.W.1"),
        rule()
            .layer(tech::V1)
            .enclosed_by(tech::M2)
            .greater_than(tech::V1_M2_ENCLOSURE)
            .named("V1.M2.EN.1"),
    ])
}

#[test]
fn generation_and_streams_are_bit_stable() {
    let spec = DesignSpec::tiny(99);
    let a = odrc_gdsii::write(&generate(&spec).library).expect("write");
    let b = odrc_gdsii::write(&generate(&spec).library).expect("write");
    assert_eq!(a, b, "generated GDSII bytes must be identical per seed");
}

#[test]
fn repeated_checks_are_identical() {
    let layout = odrc_layoutgen::generate_layout(&DesignSpec::tiny(98));
    let first = Engine::sequential().check(&layout, &deck());
    for _ in 0..3 {
        let again = Engine::sequential().check(&layout, &deck());
        assert_eq!(first.violations, again.violations);
        assert_eq!(work_stats(&first.stats), work_stats(&again.stats));
    }
}

/// Every counter but scheduling telemetry (which worker joined which
/// fan-out, how often a device worker woke: race outcomes of one run,
/// not results of the check). The work counters — `candidate_pairs`,
/// `pairs_scanned`, `join_scanned` and the rest — must repeat exactly.
fn work_stats(stats: &EngineStats) -> Vec<(&'static str, u64)> {
    stats.counters(|class| class != CounterClass::Telemetry)
}

#[test]
fn parallel_mode_is_deterministic_across_device_sizes() {
    let layout = odrc_layoutgen::generate_layout(&DesignSpec::tiny(97));
    let d = deck();
    let reference = Engine::parallel_on(Device::new(1)).check(&layout, &d);
    for workers in [2usize, 3, 7] {
        let r = Engine::parallel_on(Device::new(workers)).check(&layout, &d);
        assert_eq!(
            reference.violations, r.violations,
            "device with {workers} workers diverged"
        );
        assert_eq!(
            work_stats(&reference.stats),
            work_stats(&r.stats),
            "device with {workers} workers moved the work counters"
        );
    }
}

#[test]
fn violation_order_is_canonical() {
    let layout = odrc_layoutgen::generate_layout(&DesignSpec::tiny(96));
    let report = Engine::sequential().check(&layout, &deck());
    let mut sorted = report.violations.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(
        report.violations, sorted,
        "reports are sorted and deduplicated"
    );
}

#[test]
fn layout_import_is_stable() {
    let design = generate(&DesignSpec::tiny(95));
    let l1 = Layout::from_library(&design.library).expect("import");
    let l2 = Layout::from_library(&design.library).expect("import");
    assert_eq!(l1.cell_count(), l2.cell_count());
    assert_eq!(l1.top(), l2.top());
    assert_eq!(l1.layers(), l2.layers());
    for layer in l1.layers() {
        assert_eq!(l1.flatten_layer(layer), l2.flatten_layer(layer));
    }
}
