//! Out-of-core sharded checking properties.
//!
//! The sharded pipeline's contract is *byte-identity*: for ANY memory
//! budget, shard geometry, engine mode, and crash interleaving, the
//! canonical violation set must equal the unbudgeted in-core run's.
//! These tests sweep (budget × shard size × cancel points × modes) and
//! additionally pin down the accounting: shard units conserve exactly
//! across an interrupt/resume pair, a second resume re-checks nothing
//! (idempotence), a zero budget degrades every load without aborting,
//! and an unlimited budget never evicts.

use odrc::scene::LayerScene;
use odrc::{
    rule, rule_signature, CheckpointJournal, Mode, ResultCache, RuleDeck, RuleStatus, RunKey,
    Violation,
};
use odrc_layoutgen::tech;
use odrc_testkit::decks::{self, tech_deck};
use odrc_testkit::layouts::{fresh_dir, tiny};
use odrc_testkit::{assert_agree, reference, Agree, Config};
use proptest::prelude::*;

/// Out of core in `mode`: `shard_rows` rows per shard under `budget`.
fn sharded(mode: Mode, budget: Option<u64>, shard_rows: usize) -> Config {
    Config {
        memory_budget: budget,
        ..Config::of(mode).shards(shard_rows)
    }
}

/// The shard count of each deck rule under this plan geometry, via a
/// single-rule out-of-core run (the plan is a pure function of layout,
/// rule, and `shard_rows`, so these counts are exact). Intra rules
/// count zero — they are whole-rule units.
fn per_rule_shards(layout: &odrc_db::Layout, deck: &RuleDeck, shard_rows: usize) -> Vec<usize> {
    let config = Config::seq().shards(shard_rows);
    deck.rules()
        .iter()
        .map(|r| {
            if r.is_intra_polygon() {
                return 0;
            }
            let one = RuleDeck::new(vec![r.clone()]);
            config.check(layout, &one).stats.shards_checked
        })
        .collect()
}

/// Byte-identity of a budgeted sharded run against the in-core run,
/// for any (budget, shard size, mode, pruning) combination and any
/// host thread count — with the shard units actually exercised.
fn equivalence_case(seed: u64, budget: Option<u64>, shard_rows: usize, mode: Mode, pruning: bool) {
    let layout = tiny(seed);
    let want = reference(&layout, &decks::sharded());
    let config = |threads| {
        sharded(mode, budget, shard_rows)
            .pruning(pruning)
            .threads(threads)
    };
    let case = |threads| format!("{:?}", config(threads));
    for threads in [1, 2, 4] {
        let got = config(threads).check(&layout, &decks::sharded());
        assert_agree(&case(threads), &got, &want, Agree::Report, &[]);
        assert!(got.stats.shards_checked > 0, "{}: no shard", case(threads));
        if budget.is_none() {
            let moved = got.stats.shards_evicted + got.stats.shards_degraded;
            assert_eq!(moved, 0, "unlimited budget must never evict or degrade");
        }
    }

    // Shards run the in-core row pipeline under one §IV-C memo per
    // rule, so on the spacing rules every work counter is the in-core
    // sequential run's — pruning on or off, for any thread count.
    let spacing = tech_deck(&["M1.S.1", "M2.S.2"]);
    let in_core = Config::seq().pruning(pruning).check(&layout, &spacing);
    assert!(
        in_core.stats.edges_packed > 0,
        "the in-core spacing run packed no edge"
    );
    let work = |s: &odrc::EngineStats| {
        let packed = s.edges_packed as usize;
        [
            s.candidate_pairs,
            s.checks_computed,
            s.checks_reused,
            packed,
        ]
    };
    let mut shards = None;
    for threads in [1, 2, 4] {
        let got = config(threads).check(&layout, &spacing);
        let what = format!("{}: sharded spacing", case(threads));
        assert_eq!(got.violations, in_core.violations, "{what}");
        assert_eq!(work(&got.stats), work(&in_core.stats), "{what}");
        let first = *shards.get_or_insert(got.stats.shards_checked);
        assert_eq!(got.stats.shards_checked, first, "{what}: shards_checked");
    }
}

/// Cancel at a seeded poll (a rule *or shard* boundary), resume from
/// the journal, and demand: byte-identical final set, exact unit
/// conservation, and double-resume idempotence (a third run restores
/// everything whole and checks nothing).
fn kill_resume_case(
    seed: u64,
    budget: Option<u64>,
    shard_rows: usize,
    mode: Mode,
    polls: usize,
    tag: &str,
) {
    let layout = tiny(seed);
    let deck = decks::sharded();
    let want = reference(&layout, &deck);
    let run_key = RunKey::compute(&layout, &deck);
    let counts = per_rule_shards(&layout, &deck, shard_rows);
    let total_shards: usize = counts.iter().sum();
    let config = sharded(mode, budget, shard_rows);
    let case = format!("{config:?}, seed {seed}, polls {polls}");

    // The uninterrupted out-of-core run agrees with the per-rule plan.
    let full = config.check(&layout, &deck);
    assert_agree(&case, &full, &want, Agree::Report, &[]);
    assert_eq!(
        full.stats.shards_checked, total_shards,
        "{case}: per-rule plans"
    );

    let dir = fresh_dir(tag);
    let resume = |config: &Config| {
        let mut journal = CheckpointJournal::open_dir(&dir, run_key).expect("open journal");
        config
            .engine()
            .check_resumable(&layout, &deck, None, Some(&mut journal))
    };
    // Run 1: cancelled at a deterministic poll boundary.
    let interrupted = resume(&config.clone().cancel_after(polls));

    // Shard units the first run completed inside rules it *finished*
    // (their whole-rule records supersede the shard records on resume)
    // versus inside the rule it was cancelled out of (these must be
    // restored shard by shard).
    let completed = |(_, status): &&(String, RuleStatus)| *status == RuleStatus::Completed;
    let finished_shards: usize = interrupted
        .rule_status
        .iter()
        .zip(&counts)
        .filter(|(s, _)| completed(s))
        .map(|(_, n)| *n)
        .sum();
    let mid_rule_shards = interrupted.stats.shards_checked - finished_shards;

    // Run 2: resume. Every journaled unit restores; the rest re-runs.
    let resumed = resume(&config);
    assert_eq!(resumed.interrupted, None, "{case}: resume was interrupted");
    assert_agree(
        &format!("{case}: resumed"),
        &resumed,
        &want,
        Agree::Report,
        &[],
    );
    let completed_rules = interrupted
        .rule_status
        .iter()
        .zip(deck.rules())
        .filter(|(s, r)| completed(s) && rule_signature(r).is_some())
        .count();
    let stats = &resumed.stats;
    assert_eq!(stats.rules_resumed, completed_rules, "{case}: whole rules");
    assert_eq!(
        stats.shards_resumed, mid_rule_shards,
        "{case}: mid-rule shards"
    );
    assert_eq!(
        stats.shards_checked,
        total_shards - finished_shards - mid_rule_shards,
        "{case}: re-checked shards"
    );

    // Run 3: double resume — everything restores whole, nothing runs.
    let again = resume(&config);
    assert_agree(
        &format!("{case}: double resume"),
        &again,
        &want,
        Agree::Report,
        &[],
    );
    let stats = &again.stats;
    assert_eq!(
        (stats.shards_checked, stats.shards_resumed),
        (0, 0),
        "{case}"
    );
    assert_eq!(stats.scene_objects_scanned, 0, "{case}: planned nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn sharded_equals_in_core(
        seed in 0u64..12,
        budget_class in 0usize..3,
        shard_rows in 1usize..5,
        parallel in proptest::bool::ANY,
        pruning in proptest::bool::ANY,
    ) {
        let budget = [None, Some(16 << 10), Some(4 << 20)][budget_class];
        let mode = if parallel { Mode::Parallel } else { Mode::Sequential };
        equivalence_case(seed, budget, shard_rows, mode, pruning);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn kill_resume_is_byte_identical(
        seed in 0u64..6,
        budget_class in 0usize..2,
        shard_rows in 1usize..4,
        parallel in proptest::bool::ANY,
        polls in 1usize..24,
    ) {
        let budget = [None, Some(16 << 10)][budget_class];
        let mode = if parallel { Mode::Parallel } else { Mode::Sequential };
        let tag = format!("kr-{seed}-{budget_class}-{shard_rows}-{parallel}-{polls}");
        kill_resume_case(seed, budget, shard_rows, mode, polls, &tag);
    }
}

/// One partition row per shard, in both modes: every host-thread count
/// reports the reference and does the same work as one thread.
#[test]
fn one_row_shards_agree_at_every_thread_count() {
    let layout = tiny(4);
    let want = reference(&layout, &decks::sharded());
    for mode in [Mode::Sequential, Mode::Parallel] {
        let one = Config::of(mode)
            .shards(1)
            .threads(1)
            .check(&layout, &decks::sharded());
        assert!(one.stats.shards_checked > 1, "{mode:?}: the rules sharded");
        assert_agree(&format!("{mode:?}"), &one, &want, Agree::Report, &[]);
        for threads in [2, 8] {
            let got = Config::of(mode)
                .shards(1)
                .threads(threads)
                .check(&layout, &decks::sharded());
            let what = format!("{mode:?}, shard_rows 1, {threads} host threads");
            assert_agree(&what, &got, &one, Agree::Exact, &[]);
        }
    }
}

/// A zero budget can cache nothing: every shard load degrades to
/// build-check-drop, nothing evicts (nothing was resident), and the
/// result still matches the in-core run.
#[test]
fn zero_budget_degrades_every_load_and_stays_correct() {
    let layout = tiny(7);
    let report = Config::seq()
        .shards(2)
        .budget(0)
        .check(&layout, &decks::sharded());
    assert_agree(
        "zero budget",
        &report,
        &reference(&layout, &decks::sharded()),
        Agree::Report,
        &[],
    );
    assert!(report.stats.shards_built > 0);
    assert_eq!(report.stats.shards_degraded, report.stats.shards_built);
    assert_eq!(report.stats.shards_evicted, 0);
    // Shard scene builds are charged to the phase in-core ones are.
    let scene = report.profile.phase("scene");
    assert!(scene.is_some_and(|d| !d.is_zero()), "scene: {scene:?}");
}

/// A budget that must evict: half of what the shard pool charges for
/// the largest whole-layer scene `deck` reads. Every shard scene holds
/// part of one, and a rule's shards together hold all of it.
fn tight_budget(layout: &odrc_db::Layout, deck: &RuleDeck) -> u64 {
    let host = odrc_infra::HostExecutor::new(1);
    let layers = deck.rules().iter().flat_map(|r| r.layers());
    let scene = |layer| LayerScene::build_on(layout, layer, None, &host).approx_bytes();
    layers.map(scene).max().expect("the deck reads a layer") / 2
}

/// A small (but non-zero) budget must evict under pressure and still
/// produce the in-core result.
#[test]
fn tight_budget_evicts_and_stays_correct() {
    let layout = tiny(3);
    let budget = tight_budget(&layout, &decks::sharded());
    let report = Config::seq()
        .shards(1)
        .budget(budget)
        .check(&layout, &decks::sharded());
    assert_agree(
        "tight budget",
        &report,
        &reference(&layout, &decks::sharded()),
        Agree::Report,
        &[],
    );
    assert!(
        report.stats.shards_evicted > 0,
        "expected evictions under a {budget}-byte budget; built {} degraded {}",
        report.stats.shards_built,
        report.stats.shards_degraded
    );
}

/// The top cell's child count: what one layer enumeration scans.
fn top_children(layout: &odrc_db::Layout) -> u64 {
    let top = layout.cell(layout.top());
    (top.refs().len() + top.polygons().len()) as u64
}

/// A sharded rule walks the top cell once for its plan and a pair rule
/// once more for its outer layer — however many shards the plan has,
/// however often the budget forces a rebuild or degrades a load, and
/// whatever the mode or thread count.
#[test]
fn scene_objects_scanned_counts_enumerations_not_shards() {
    let layout = tiny(5);
    let deck = decks::sharded();
    let sharded_rules = deck.rules().iter().filter(|r| !r.is_intra_polygon());
    let pairs = sharded_rules.clone().filter(|r| !r.name.contains(".S."));
    let expected = (sharded_rules.count() + pairs.count()) as u64 * top_children(&layout);
    assert_eq!(expected, 6 * top_children(&layout));
    let mut rebuilt = false;
    for shard_rows in [1, 2, 8] {
        for budget in [None, Some(0), Some(tight_budget(&layout, &deck))] {
            for (mode, host_threads) in [(Mode::Sequential, 1), (Mode::Parallel, 4)] {
                let config = sharded(mode, budget, shard_rows).threads(host_threads);
                let stats = config.check(&layout, &deck).stats;
                assert_eq!(
                    stats.scene_objects_scanned, expected,
                    "{config:?}: {stats:?}"
                );
                rebuilt |= stats.shards_evicted > 0 && stats.shards_built > stats.shards_checked;
            }
        }
    }
    assert!(rebuilt, "no configuration rebuilt a scene after eviction");
}

/// The outer layer of a pair rule is enumerated by the first shard the
/// journal does not restore: when the journal covers every shard, the
/// run plans each sharded rule and walks nothing else. Restore only
/// unions a rule's shard sets, so the journal is filled directly: each
/// sharded rule's reference set in shard 0 and empty records for its
/// other shards, and whole-rule records for the intra rules.
#[test]
fn fully_restored_rules_enumerate_their_plan_only() {
    let layout = tiny(9);
    let deck = decks::sharded();
    let want = reference(&layout, &deck);
    let dir = fresh_dir("lazy-outer");
    let mut journal = CheckpointJournal::open_dir(&dir, RunKey::compute(&layout, &deck)).unwrap();
    for (rule, shards) in deck.rules().iter().zip(per_rule_shards(&layout, &deck, 2)) {
        let sig = rule_signature(rule).expect("deck rules are signable");
        let own: Vec<Violation> = want.violations_of(&rule.name).cloned().collect();
        if shards == 0 {
            journal.record(&rule.name, sig, &own).unwrap();
            continue;
        }
        for shard in 0..shards as u32 {
            let vs: &[Violation] = if shard == 0 { &own } else { &[] };
            journal
                .record_shard(&rule.name, sig, shards as u32, shard, vs)
                .unwrap();
        }
    }
    let report =
        Config::seq()
            .shards(2)
            .engine()
            .check_resumable(&layout, &deck, None, Some(&mut journal));
    drop(journal);
    assert_agree("fully restored", &report, &want, Agree::Report, &[]);
    assert_eq!(report.stats.shards_checked, 0);
    let sharded_rules = deck
        .rules()
        .iter()
        .filter(|r| !r.is_intra_polygon())
        .count();
    assert_eq!(
        report.stats.scene_objects_scanned,
        sharded_rules as u64 * top_children(&layout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_spacing_consults_the_cache() {
    // tiny:1's M1 cells have internal violations at a distance of 24,
    // so the cached template entries are not empty; one-row shards
    // place a cell in several shards.
    let layout = tiny(1);
    let deck = RuleDeck::new(vec![
        rule()
            .layer(tech::M1)
            .space()
            .greater_than(24)
            .named("M1.S.24"),
        rule()
            .layer(tech::M1)
            .space()
            .when_projection_at_least(tech::M1_WIDTH)
            .greater_than(24)
            .named("M1.S.24P"),
    ]);
    let dir = fresh_dir("space-cache");
    std::fs::create_dir_all(&dir).unwrap();
    let mut saved = Vec::new();
    let mut warm = Vec::new();
    for (tag, config) in [
        ("in-core", Config::seq()),
        ("sharded", Config::seq().shards(1)),
    ] {
        let engine = config.engine();
        let mut cache = ResultCache::new();
        let cold = engine.check_with_cache(&layout, &deck, &mut cache);
        assert!(!cold.violations.is_empty(), "{tag}");
        let report = engine.check_with_cache(&layout, &deck, &mut cache);
        assert_eq!(report.violations, cold.violations, "{tag}");
        let path = dir.join(format!("{tag}.bin"));
        cache.save(&path).unwrap();
        saved.push(std::fs::read(&path).unwrap());
        warm.push(report);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(warm[1].stats.shards_checked > 1, "the rules really sharded");
    assert_agree("warm sharded", &warm[1], &warm[0], Agree::Report, &[]);
    assert_eq!(warm[0].stats.checks_computed, warm[1].stats.checks_computed);
    assert_eq!(warm[0].stats.checks_reused, warm[1].stats.checks_reused);
    assert_eq!(saved[0], saved[1], "both runs cache the same entries");
}
