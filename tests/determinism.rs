//! Determinism and stability guarantees across the whole stack.

use odrc_db::Layout;
use odrc_layoutgen::{generate, DesignSpec};
use odrc_testkit::layouts::tiny;
use odrc_testkit::{assert_agree, decks, reference, Agree, Config};

#[test]
fn generation_and_streams_are_bit_stable() {
    let spec = DesignSpec::tiny(99);
    let a = odrc_gdsii::write(&generate(&spec).library).expect("write");
    let b = odrc_gdsii::write(&generate(&spec).library).expect("write");
    assert_eq!(a, b, "generated GDSII bytes must be identical per seed");
}

/// Every counter but scheduling telemetry (which worker joined which
/// fan-out, how often a device worker woke: race outcomes of one run,
/// not results of the check) repeats exactly.
#[test]
fn repeated_checks_are_identical() {
    let layout = tiny(98);
    let first = reference(&layout, &decks::shared());
    for i in 0..3 {
        let again = reference(&layout, &decks::shared());
        assert_agree(&format!("repeat {i}"), &again, &first, Agree::Exact, &[]);
    }
}

#[test]
fn parallel_mode_is_deterministic_across_device_sizes() {
    let layout = tiny(97);
    let deck = decks::shared();
    let one = Config::par().device(1).check(&layout, &deck);
    for workers in [2usize, 3, 7] {
        let got = Config::par().device(workers).check(&layout, &deck);
        let what = format!("device with {workers} workers");
        assert_agree(&what, &got, &one, Agree::Exact, &[]);
    }
}

#[test]
fn violation_order_is_canonical() {
    let report = reference(&tiny(96), &decks::shared());
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
