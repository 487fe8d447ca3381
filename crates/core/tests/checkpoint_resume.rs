//! Kill/resume property tests.
//!
//! A cancelled run must be *restartable*, not merely survivable: the
//! checkpoint journal it leaves behind, fed back through `--resume`,
//! has to reproduce the uninterrupted violation set byte for byte.
//! These tests sweep seeded cancellation points (via
//! [`CancelToken::after_polls`], which trips the token at a
//! deterministic rule boundary) across engine modes and injected
//! device-fault schedules, and demand three properties of every
//! interrupted-then-resumed pair:
//!
//! 1. the interrupted run reports only whole-rule results (a subset of
//!    the baseline — no torn or partial rule output),
//! 2. the resume run restores exactly the rules the first run
//!    journaled ([`EngineStats::rules_resumed`]),
//! 3. the resumed violation set equals the uninterrupted baseline.

use odrc::{
    rule_signature, CancelReason, CheckpointJournal, Mode, RuleDeck, RuleStatus, RunKey, Violation,
};
use odrc_layoutgen::tech;
use odrc_testkit::layouts::{fresh_dir, paper, tiny, without_top_wire};
use odrc_testkit::{assert_agree, decks, reference, Agree, Config};
use odrc_xpu::{Fault, FaultPlan};
use std::path::Path;

/// A cell of the kill matrix: `mode`, and in parallel mode an optional
/// seeded fault schedule.
fn cell(mode: Mode, fault_seed: Option<u64>) -> Config {
    match fault_seed {
        Some(seed) => Config::of(mode).fault_seed(seed),
        None => Config::of(mode),
    }
}

/// How many of the run's rules were both completed *and* signable —
/// exactly the set the checkpoint journal records.
fn journaled_count(report: &odrc::CheckReport, deck: &RuleDeck) -> usize {
    deck.rules()
        .iter()
        .zip(&report.rule_status)
        .filter(|(r, (_, s))| *s == RuleStatus::Completed && rule_signature(r).is_some())
        .count()
}

fn is_subset(part: &[Violation], whole: &[Violation]) -> bool {
    // Both sets are canonical (sorted, deduped), so a merge walk works.
    let mut it = whole.iter();
    part.iter().all(|v| it.any(|w| w == v))
}

/// Interrupt a run at poll budget `polls`, then resume it from the
/// journal it left in `dir`; returns both reports.
fn kill_then_resume(
    layout: &odrc_db::Layout,
    mode: Mode,
    fault_seed: Option<u64>,
    polls: usize,
    dir: &Path,
) -> (odrc::CheckReport, odrc::CheckReport) {
    let deck = decks::resumable();
    let key = RunKey::compute(layout, &deck);
    let config = cell(mode, fault_seed);

    let mut journal = CheckpointJournal::open_dir(dir, key).expect("open fresh journal");
    assert!(journal.is_empty(), "fresh journal must start empty");
    let killed = config.clone().cancel_after(polls).engine().check_resumable(
        layout,
        &deck,
        None,
        Some(&mut journal),
    );

    // Reopen from disk — the resume run must work from the persisted
    // bytes, not the in-memory journal the killed run appended to.
    drop(journal);
    let mut journal = CheckpointJournal::open_dir(dir, key).expect("reopen journal");
    assert_eq!(
        journal.len(),
        journaled_count(&killed, &deck),
        "journal holds exactly the signable rules the killed run completed"
    );
    let resumed = config
        .engine()
        .check_resumable(layout, &deck, None, Some(&mut journal));
    (killed, resumed)
}

fn assert_kill_resume_matrix(
    layout: &odrc_db::Layout,
    configs: &[(Mode, Option<u64>)],
    poll_budgets: &[usize],
) {
    let baseline = reference(layout, &decks::resumable());
    assert!(
        !baseline.violations.is_empty(),
        "designs under test must actually violate something"
    );

    let mut saw_interrupted = false;
    let mut saw_complete = false;
    for &(mode, fault_seed) in configs {
        for &polls in poll_budgets {
            let tag = format!("{:?}-f{}-n{}", mode, fault_seed.unwrap_or(0), polls);
            let dir = fresh_dir(&tag);
            let (killed, resumed) = kill_then_resume(layout, mode, fault_seed, polls, &dir);

            match killed.interrupted {
                Some(reason) => {
                    saw_interrupted = true;
                    assert_eq!(reason, CancelReason::Interrupt, "{tag}");
                    assert!(killed.stats.rules_interrupted > 0, "{tag}");
                    assert!(
                        is_subset(&killed.violations, &baseline.violations),
                        "{tag}: interrupted run leaked partial-rule violations"
                    );
                }
                None => {
                    // Budget outlasted the run: it is simply a
                    // complete run that also wrote a journal.
                    saw_complete = true;
                    assert_eq!(killed.violations, baseline.violations, "{tag}");
                    assert_eq!(killed.stats.rules_interrupted, 0, "{tag}");
                }
            }

            assert_eq!(resumed.interrupted, None, "{tag}");
            assert_eq!(
                resumed.stats.rules_resumed,
                journaled_count(&killed, &decks::resumable()),
                "{tag}: resume must restore exactly the journaled rules"
            );
            let what = format!("{tag}: resumed against the uninterrupted run");
            assert_agree(&what, &resumed, &baseline, Agree::Report, &[]);

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    // The sweep itself must stay meaningful: at least one budget has to
    // kill mid-run and at least one has to outlast the run.
    assert!(saw_interrupted, "no poll budget actually interrupted a run");
    assert!(saw_complete, "no poll budget let a run finish");
}

/// The full matrix on uart: both modes, and seeded device-fault
/// schedules layered on top of the parallel config — a
/// kill must compose with the device layer's retry/degrade machinery.
#[test]
fn uart_kill_resume_is_byte_identical() {
    let layout = paper("uart");
    assert_kill_resume_matrix(
        &layout,
        &[
            (Mode::Sequential, None),
            (Mode::Parallel, None),
            (Mode::Parallel, Some(7)),
            (Mode::Parallel, Some(99)),
        ],
        &[0, 1, 2, 3, 4, 5, 6, 7, 9, 64],
    );
}

/// One denser design through the parallel path, to catch window/drain
/// interactions a small layout cannot reach.
#[test]
fn aes_kill_resume_is_byte_identical() {
    let layout = paper("aes");
    assert_kill_resume_matrix(&layout, &[(Mode::Parallel, Some(13))], &[1, 3, 5, 64]);
}

/// A rule whose device work faulted is completed at its own collect:
/// when the cancel token trips before the rest of the deck is issued,
/// the in-flight faulted rule is still recovered (fresh streams are born
/// poisoned after the trip, so on the host), finalized, journaled, and
/// reported with exactly the fault-free run's violations.
#[test]
fn faulted_rule_completes_at_its_own_collect() {
    let layout = paper("uart");
    let deck = decks::resumable();
    let baseline = Config::par().check(&layout, &deck);
    // The M1 group leads the issue order and M1.W.1 leads the group, so
    // its width kernel is the device's launch 0.
    let faulted = "M1.W.1";
    let expected: Vec<Violation> = baseline.violations_of(faulted).cloned().collect();
    assert!(!expected.is_empty(), "uart must violate {faulted}");

    let plan = FaultPlan::new().with(Fault::KernelPanic {
        kernel: 0,
        thread: 0,
    });
    let engine = Config::par().faults(plan).cancel_after(1).engine();
    let dir = fresh_dir("faulted-collect");
    let key = RunKey::compute(&layout, &deck);
    let mut journal = CheckpointJournal::open_dir(&dir, key).expect("open fresh journal");
    // The first poll passes and issues M1.W.1; the second trips.
    let killed = engine.check_resumable(&layout, &deck, None, Some(&mut journal));
    drop(journal);

    assert_eq!(
        engine.device().faults_injected(),
        1,
        "the kernel fault fired"
    );
    assert_eq!(killed.interrupted, Some(CancelReason::Interrupt));
    assert!(killed.stats.rules_interrupted > 0, "the deck was cut short");
    let status = killed
        .rule_status
        .iter()
        .find(|(name, _)| name == faulted)
        .map(|&(_, s)| s);
    assert_eq!(status, Some(RuleStatus::Completed));
    assert!(killed.stats.degraded());
    let got: Vec<Violation> = killed.violations_of(faulted).cloned().collect();
    assert_eq!(got, expected);

    let rule = deck.rules().iter().find(|r| r.name == faulted).unwrap();
    let sig = rule_signature(rule).expect("width rules are signable");
    let journal = CheckpointJournal::open_dir(&dir, key).expect("reopen journal");
    assert_eq!(
        journal.completed(sig).map(|v| v.as_slice()),
        Some(expected.as_slice()),
        "the faulted rule is journaled with the fault-free violations"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A cancel that trips inside the deck's last rule — between two shards
/// of an out-of-core rule, where no later rule boundary polls again —
/// is still reported as an interrupt.
#[test]
fn cancel_inside_the_last_sharded_rule_is_reported() {
    let layout = paper("uart");
    let deck = decks::tech_deck(&["M1.S.1"]);
    // The rule-boundary poll passes; the first shard's poll trips.
    let report = Config::seq()
        .shards(1)
        .cancel_after(1)
        .check(&layout, &deck);
    assert_eq!(
        report.rule_status,
        vec![("M1.S.1".to_owned(), RuleStatus::Interrupted)]
    );
    assert_eq!(report.interrupted, Some(CancelReason::Interrupt));
}

/// A journal written for one layout must be invisible to a resume
/// attempt against different content: rules are re-checked, not
/// wrongly restored.
#[test]
fn resume_ignores_journal_from_different_run() {
    let (layout_a, layout_b) = (tiny(11), tiny(12));
    let deck = decks::resumable();
    let dir = fresh_dir("wrong-run");

    let mut journal =
        CheckpointJournal::open_dir(&dir, RunKey::compute(&layout_a, &deck)).expect("open");
    let complete =
        Config::seq()
            .engine()
            .check_resumable(&layout_a, &deck, None, Some(&mut journal));
    assert_eq!(complete.stats.rules_completed, deck.rules().len());
    drop(journal);

    let mut journal =
        CheckpointJournal::open_dir(&dir, RunKey::compute(&layout_b, &deck)).expect("reopen");
    assert!(
        journal.is_empty(),
        "layout B must not see layout A's records"
    );
    let fresh = Config::seq()
        .engine()
        .check_resumable(&layout_b, &deck, None, Some(&mut journal));
    assert_eq!(fresh.stats.rules_resumed, 0);
    let want = reference(&layout_b, &deck);
    assert_agree("layout B", &fresh, &want, Agree::Report, &[]);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming twice in a row is idempotent: a second resume restores the
/// same rules and reports the same violations.
#[test]
fn double_resume_is_idempotent() {
    let layout = paper("uart");
    let dir = fresh_dir("double");
    let (_killed, first) = kill_then_resume(&layout, Mode::Parallel, None, 2, &dir);

    let deck = decks::resumable();
    let mut journal =
        CheckpointJournal::open_dir(&dir, RunKey::compute(&layout, &deck)).expect("reopen");
    assert_eq!(
        journal.len(),
        journal_len_all_signable(&deck),
        "first resume completed the journal"
    );
    let second = Config::par()
        .engine()
        .check_resumable(&layout, &deck, None, Some(&mut journal));
    assert_eq!(second.stats.rules_resumed, journal_len_all_signable(&deck));
    assert_agree("second resume", &second, &first, Agree::Report, &[]);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every signable rule in `deck` (the resumable universe).
fn journal_len_all_signable(deck: &RuleDeck) -> usize {
    deck.rules()
        .iter()
        .filter(|r| rule_signature(r).is_some())
        .count()
}

/// A delta re-check cancelled at any rule boundary, in either mode,
/// reports only whole rules: each rule's violations are either none or
/// exactly that rule's set from a full check of the edited layout, and
/// the report is flagged interrupted exactly when the poll budget ran
/// out before the deck did.
#[test]
fn cancelled_delta_reports_only_whole_rules() {
    let old = paper("uart");
    let new = without_top_wire(&old, tech::M2);
    let deck = decks::resumable();
    let rules = deck.rules().len();
    for mode in [Mode::Sequential, Mode::Parallel] {
        let old_violations = Config::of(mode).check(&old, &deck).violations;
        let full = Config::of(mode).check(&new, &deck);
        assert!(!full.violations.is_empty(), "uart violates the deck");
        for polls in 0..=rules {
            let report = Config::of(mode).cancel_after(polls).engine().check_delta(
                &old,
                &old_violations,
                &new,
                &deck,
            );
            let tag = format!("{mode:?} after {polls} poll(s)");
            assert!(!report.dirty.is_empty(), "{tag}: the edit dirtied nothing");
            assert_eq!(report.interrupted.is_some(), polls < rules, "{tag}");
            for rule in deck.rules() {
                let got: Vec<&Violation> = report
                    .violations
                    .iter()
                    .filter(|v| v.rule == rule.name)
                    .collect();
                let want: Vec<&Violation> = full.violations_of(&rule.name).collect();
                assert!(
                    got.is_empty() || got == want,
                    "{tag}: {} reported a partial set ({} of {})",
                    rule.name,
                    got.len(),
                    want.len()
                );
            }
            if polls == rules {
                assert_eq!(report.violations, full.violations, "{tag}");
            }
        }
    }
}
