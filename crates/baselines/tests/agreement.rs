//! All checkers must report the same canonical violation set as the
//! OpenDRC engine — runtime is the only thing the evaluation compares.

use odrc::{rule, RuleDeck};
use odrc_baselines::{Checker, DeepChecker, FlatChecker, TilingChecker, XCheck};
use odrc_testkit::decks::{self, tech_deck};
use odrc_testkit::layouts::tiny;
use odrc_testkit::reference;
use odrc_xpu::Device;

#[test]
fn flat_agrees_with_engine() {
    for seed in [21u64, 22] {
        let layout = tiny(seed);
        let want = reference(&layout, &decks::baselines());
        let flat = FlatChecker::new().check(&layout, &decks::baselines());
        assert_eq!(want.violations, flat.violations, "seed {seed}");
        assert!(!want.violations.is_empty());
    }
}

#[test]
fn deep_agrees_with_engine() {
    let layout = tiny(23);
    let deep = DeepChecker::new().check(&layout, &decks::baselines());
    assert_eq!(
        reference(&layout, &decks::baselines()).violations,
        deep.violations
    );
}

#[test]
fn tiling_agrees_with_engine() {
    let layout = tiny(24);
    let want = reference(&layout, &decks::baselines());
    for grid in [1usize, 3, 7] {
        let tile = TilingChecker::new(grid, 2).check(&layout, &decks::baselines());
        assert_eq!(want.violations, tile.violations, "grid {grid}");
    }
}

#[test]
fn xcheck_agrees_with_engine() {
    let layout = tiny(25);
    let x = XCheck::new(Device::new(2)).check(&layout, &decks::baselines());
    assert_eq!(
        reference(&layout, &decks::baselines()).violations,
        x.violations
    );
    assert!(x.skipped.is_empty());
}

#[test]
fn xcheck_skips_area_rules() {
    let layout = tiny(26);
    let area = tech_deck(&["M1.A.1"]);
    let want = reference(&layout, &area);
    let x = XCheck::new(Device::new(2)).check(&layout, &area);
    assert_eq!(x.skipped, vec!["M1.A.1".to_owned()]);
    assert!(x.violations.is_empty());
    // The engine itself does find area violations on this seed.
    assert!(
        want.violations.iter().all(|v| v.rule == "M1.A.1"),
        "engine handles area rules"
    );
}

#[test]
fn overlap_area_baselines_agree() {
    let layout = tiny(28);
    let deck = tech_deck(&["V1.M2.OV.1", "V2.M3.OV.1"]);
    let want = reference(&layout, &deck);
    for checker in [
        Box::new(FlatChecker::new()) as Box<dyn Checker>,
        Box::new(DeepChecker::new()),
        Box::new(TilingChecker::new(3, 2)),
    ] {
        let r = checker.check(&layout, &deck);
        assert_eq!(want.violations, r.violations, "{}", checker.name());
    }
    // X-Check skips overlap-area rules.
    let x = XCheck::new(Device::new(2)).check(&layout, &deck);
    assert_eq!(x.skipped.len(), 2);
}

#[test]
fn baselines_handle_empty_layers() {
    let layout = tiny(27);
    let ghost = RuleDeck::new(vec![
        rule().layer(99).space().greater_than(10).named("GHOST.S.1"),
        rule().layer(99).width().greater_than(10).named("GHOST.W.1"),
        rule()
            .layer(99)
            .enclosed_by(98)
            .greater_than(2)
            .named("GHOST.EN.1"),
    ]);
    let all = checkers();
    for checker in &all {
        let r = checker.check(&layout, &ghost);
        assert!(
            r.violations.is_empty(),
            "{} reported violations on an empty layer",
            checker.name()
        );
    }
    assert!(reference(&layout, &ghost).violations.is_empty());
}

#[test]
fn checker_names_are_stable() {
    let all = checkers();
    let names: Vec<&str> = all.iter().map(|c| c.name()).collect();
    // Bench tables key on these names.
    assert!(names.contains(&"klayout-flat"));
    assert!(names.contains(&"klayout-deep"));
    assert!(names.contains(&"klayout-tile"));
    assert!(names.contains(&"x-check"));
}

fn checkers() -> Vec<Box<dyn Checker>> {
    vec![
        Box::new(FlatChecker::new()),
        Box::new(DeepChecker::new()),
        Box::new(TilingChecker::new(4, 2)),
        Box::new(XCheck::new(Device::new(2))),
    ]
}
