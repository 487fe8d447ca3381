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
    rule, rule_signature, CancelReason, CancelToken, CheckpointJournal, Engine, EngineOptions,
    Mode, RuleDeck, RuleStatus, RunKey, Violation,
};
use odrc_layoutgen::{generate_layout, tech, DesignSpec};
use odrc_xpu::{Device, Fault, FaultPlan};
use std::path::{Path, PathBuf};

/// A deck exercising every checkpointable rule family — width, space
/// (plain and projection-gated), area, enclosure, rectilinearity —
/// plus an `ensures` rule, which has no stable signature and therefore
/// must be re-run (never restored) on resume.
fn deck() -> RuleDeck {
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
        rule().polygons().is_rectilinear().named("RECT.1"),
        // Unsigned: flags every V1 polygon, deterministically.
        rule()
            .layer(tech::V1)
            .polygons()
            .ensures("flagged", |_| false),
    ])
}

fn engine(mode: Mode, fault_seed: Option<u64>) -> Engine {
    let base = match mode {
        Mode::Sequential => Engine::sequential(),
        Mode::Parallel => {
            let device = Device::new(3);
            if let Some(seed) = fault_seed {
                device.set_fault_plan(Some(FaultPlan::from_seed(seed, 6)));
            }
            Engine::parallel_on(device)
        }
    };
    base.with_options(EngineOptions {
        ..EngineOptions::default()
    })
}

/// A private scratch directory, cleared on entry so reruns of the test
/// binary never resume from a stale journal.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("odrc-kill-resume-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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
    let deck = deck();
    let key = RunKey::compute(layout, &deck);

    let mut journal = CheckpointJournal::open_dir(dir, key).expect("open fresh journal");
    assert!(journal.is_empty(), "fresh journal must start empty");
    let killed = engine(mode, fault_seed)
        .with_cancel(CancelToken::after_polls(polls))
        .check_resumable(layout, &deck, None, Some(&mut journal));

    // Reopen from disk — the resume run must work from the persisted
    // bytes, not the in-memory journal the killed run appended to.
    drop(journal);
    let mut journal = CheckpointJournal::open_dir(dir, key).expect("reopen journal");
    assert_eq!(
        journal.len(),
        journaled_count(&killed, &deck),
        "journal holds exactly the signable rules the killed run completed"
    );
    let resumed = engine(mode, fault_seed).check_resumable(layout, &deck, None, Some(&mut journal));
    (killed, resumed)
}

fn assert_kill_resume_matrix(
    layout: &odrc_db::Layout,
    configs: &[(Mode, Option<u64>)],
    poll_budgets: &[usize],
) {
    let baseline = engine(Mode::Sequential, None).check(layout, &deck());
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
                journaled_count(&killed, &deck()),
                "{tag}: resume must restore exactly the journaled rules"
            );
            assert_eq!(
                resumed.violations, baseline.violations,
                "{tag}: resumed run must be byte-identical to uninterrupted baseline"
            );

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
    let layout = generate_layout(&DesignSpec::paper("uart").expect("paper design"));
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
    let layout = generate_layout(&DesignSpec::paper("aes").expect("paper design"));
    assert_kill_resume_matrix(&layout, &[(Mode::Parallel, Some(13))], &[1, 3, 5, 64]);
}

/// A rule whose device work faulted is completed at its own collect:
/// when the cancel token trips before the rest of the deck is issued,
/// the in-flight faulted rule is still recovered (fresh streams are born
/// poisoned after the trip, so on the host), finalized, journaled, and
/// reported with exactly the fault-free run's violations.
#[test]
fn faulted_rule_completes_at_its_own_collect() {
    let layout = generate_layout(&DesignSpec::paper("uart").expect("paper design"));
    let deck = deck();
    let baseline = engine(Mode::Parallel, None).check(&layout, &deck);
    // The M1 group leads the issue order and M1.W.1 leads the group, so
    // its width kernel is the device's launch 0.
    let faulted = "M1.W.1";
    let expected: Vec<Violation> = baseline.violations_of(faulted).cloned().collect();
    assert!(!expected.is_empty(), "uart must violate {faulted}");

    let device = Device::new(3);
    device.set_fault_plan(Some(FaultPlan::new().with(Fault::KernelPanic {
        kernel: 0,
        thread: 0,
    })));
    let dir = fresh_dir("faulted-collect");
    let key = RunKey::compute(&layout, &deck);
    let mut journal = CheckpointJournal::open_dir(&dir, key).expect("open fresh journal");
    // The first poll passes and issues M1.W.1; the second trips.
    let killed = Engine::parallel_on(device.clone())
        .with_cancel(CancelToken::after_polls(1))
        .check_resumable(&layout, &deck, None, Some(&mut journal));
    drop(journal);

    assert_eq!(device.faults_injected(), 1, "the kernel fault fired");
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
    let layout = generate_layout(&DesignSpec::paper("uart").expect("paper design"));
    let deck = RuleDeck::new(vec![rule()
        .layer(tech::M1)
        .space()
        .greater_than(tech::M1_SPACE)
        .named("M1.S.1")]);
    // The rule-boundary poll passes; the first shard's poll trips.
    let report = Engine::sequential()
        .with_options(EngineOptions {
            shard_rows: Some(1),
            ..EngineOptions::default()
        })
        .with_cancel(CancelToken::after_polls(1))
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
    let layout_a = generate_layout(&DesignSpec::tiny(11));
    let layout_b = generate_layout(&DesignSpec::tiny(12));
    let deck = deck();
    let dir = fresh_dir("wrong-run");

    let mut journal =
        CheckpointJournal::open_dir(&dir, RunKey::compute(&layout_a, &deck)).expect("open");
    let complete =
        engine(Mode::Sequential, None).check_resumable(&layout_a, &deck, None, Some(&mut journal));
    assert_eq!(complete.stats.rules_completed, deck.rules().len());
    drop(journal);

    let mut journal =
        CheckpointJournal::open_dir(&dir, RunKey::compute(&layout_b, &deck)).expect("reopen");
    assert!(
        journal.is_empty(),
        "layout B must not see layout A's records"
    );
    let fresh =
        engine(Mode::Sequential, None).check_resumable(&layout_b, &deck, None, Some(&mut journal));
    assert_eq!(fresh.stats.rules_resumed, 0);
    let baseline = engine(Mode::Sequential, None).check(&layout_b, &deck);
    assert_eq!(fresh.violations, baseline.violations);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming twice in a row is idempotent: a second resume restores the
/// same rules and reports the same violations.
#[test]
fn double_resume_is_idempotent() {
    let layout = generate_layout(&DesignSpec::paper("uart").expect("paper design"));
    let dir = fresh_dir("double");
    let (_killed, first) = kill_then_resume(&layout, Mode::Parallel, None, 2, &dir);

    let deck = deck();
    let mut journal =
        CheckpointJournal::open_dir(&dir, RunKey::compute(&layout, &deck)).expect("reopen");
    assert_eq!(
        journal.len(),
        journal_len_all_signable(&deck),
        "first resume completed the journal"
    );
    let second =
        engine(Mode::Parallel, None).check_resumable(&layout, &deck, None, Some(&mut journal));
    assert_eq!(second.stats.rules_resumed, journal_len_all_signable(&deck));
    assert_eq!(second.violations, first.violations);

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
    let old = generate_layout(&DesignSpec::paper("uart").expect("paper design"));
    let mut new = old.clone();
    let top = new.top();
    let wire = new
        .cell(top)
        .polygons()
        .iter()
        .position(|p| p.layer == tech::M2)
        .expect("a top-level M2 wire");
    new.remove_polygon(top, wire)
        .expect("remove a top-level wire");
    let deck = deck();
    let rules = deck.rules().len();
    for mode in [Mode::Sequential, Mode::Parallel] {
        let old_violations = engine(mode, None).check(&old, &deck).violations;
        let full = engine(mode, None).check(&new, &deck);
        assert!(!full.violations.is_empty(), "uart violates the deck");
        for polls in 0..=rules {
            let report = engine(mode, None)
                .with_cancel(CancelToken::after_polls(polls))
                .check_delta(&old, &old_violations, &new, &deck);
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
