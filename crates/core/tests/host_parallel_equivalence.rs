//! Host-executor equivalence tests.
//!
//! The pool-backed host executor (`infra::host`) changes *where* the
//! hot host phases run — scene flattening, row partitioning, row
//! checking, edge packing, canonicalization fan out across worker
//! threads — but must never change *what* is reported. Every test here
//! pits multi-threaded runs against the single-threaded reference
//! (`host_threads = 1`: the same code, with the executor running every
//! task inline on the caller) and demands byte-identical canonical
//! violation sets and identical work counters, across modes and
//! injected device faults.

use odrc::Mode;
use odrc_testkit::layouts::{tiny, without_top_wire};
use odrc_testkit::{assert_agree, assert_degraded_iff_fired, decks, reference, Agree, Config};
use proptest::prelude::*;

/// Thread counts under test: the serial reference, a minimal fan-out,
/// and an oversubscribed pool (more workers than this host has cores).
const THREADS: [usize; 3] = [1, 2, 8];

const MODES: [Mode; 2] = [Mode::Sequential, Mode::Parallel];

/// Running the exact same configuration repeatedly must reproduce the
/// exact same violations and work — which pool worker claims a chunk
/// changes from run to run, but the ordered merge erases every trace of
/// it.
#[test]
fn repeated_runs_are_deterministic() {
    let layout = tiny(77);
    for mode in MODES {
        let config = Config::of(mode).threads(8);
        let first = config.check(&layout, &decks::shared());
        for i in 0..4 {
            let again = config.check(&layout, &decks::shared());
            let what = format!("{mode:?} at 8 host threads, repeat {i}");
            assert_agree(&what, &again, &first, Agree::Exact, &[]);
        }
    }
}

/// There is no separate single-threaded code path: a one-thread run
/// hands its tasks to the same executor (which runs them inline, so
/// nothing is ever stolen) and reports the same violations and the same
/// work counters as any larger pool.
#[test]
fn one_thread_runs_the_same_pipeline() {
    let layout = tiny(78);
    let want = reference(&layout, &decks::shared());
    let stats = &want.stats;
    assert!(
        stats.join_candidates > 0,
        "the deck's enclosure rule found no candidate"
    );
    assert!(stats.candidate_pairs > 0, "no spacing candidate pair");
    assert!(
        stats.pairs_scanned >= stats.candidate_pairs as u64,
        "every candidate pair is one scan comparison"
    );
    for mode in MODES {
        let serial = Config::of(mode).threads(1).check(&layout, &decks::shared());
        assert!(
            serial.stats.host_tasks > 0,
            "{mode:?}: a one-thread run must still go through the executor"
        );
        assert_eq!(serial.stats.host_steals, 0);
        assert_agree(&format!("{mode:?}"), &serial, &want, Agree::Shared, &[]);
        for &threads in &THREADS[1..] {
            let fanned = Config::of(mode)
                .threads(threads)
                .check(&layout, &decks::shared());
            let what = format!("{mode:?} at {threads} host threads");
            assert_agree(&what, &fanned, &serial, Agree::Exact, &[]);
        }
    }
}

/// A delta re-check builds its window scenes on the run's executor, so
/// at every thread count it reports the same violations and hands the
/// executor the same tasks.
#[test]
fn delta_rechecks_fan_out_the_same_tasks_at_every_thread_count() {
    let deck = decks::shared();
    let old = tiny(79);
    let old_violations = reference(&old, &deck).violations;
    let new = without_top_wire(&old, odrc_layoutgen::tech::M2);
    let expected = reference(&new, &deck).violations;
    for mode in MODES {
        let delta = |threads| {
            Config::of(mode).threads(threads).engine().check_delta(
                &old,
                &old_violations,
                &new,
                &deck,
            )
        };
        let serial = delta(1);
        assert!(
            serial.stats.host_tasks > 0,
            "{mode:?}: the delta ran no task"
        );
        assert_eq!(serial.violations, expected, "{mode:?} delta");
        for &threads in &THREADS[1..] {
            let what = format!("{mode:?} delta at {threads} host threads");
            assert_agree(&what, &delta(threads), &serial, Agree::Exact, &[]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// On generated designs, every host-thread count reports violations
    /// byte-identical to the single-threaded run, in both modes — the
    /// modes' shared counters, and within one mode, every work counter.
    #[test]
    fn prop_host_threads_match_serial(design_seed in 0u64..1_000) {
        let layout = tiny(design_seed);
        let want = reference(&layout, &decks::shared());
        for mode in MODES {
            let serial = Config::of(mode).threads(1).check(&layout, &decks::shared());
            let what = format!("design {design_seed}: {mode:?}");
            assert_agree(&what, &serial, &want, Agree::Shared, &[]);
            for &threads in &THREADS[1..] {
                let got = Config::of(mode).threads(threads).check(&layout, &decks::shared());
                let what = format!("{what} at {threads} host threads");
                assert_agree(&what, &got, &serial, Agree::Exact, &[]);
            }
        }
    }

    /// Under a seeded fault schedule, multi-threaded runs still report
    /// exactly the fault-free reference, and degradation is reported iff
    /// faults actually fired.
    #[test]
    fn prop_host_threads_survive_fault_injection(
        design_seed in 0u64..100,
        fault_seed in 0u64..200,
    ) {
        let layout = tiny(design_seed);
        let want = reference(&layout, &decks::shared());
        for threads in THREADS {
            let engine = Config::par().threads(threads).fault_seed(fault_seed).engine();
            let got = engine.check(&layout, &decks::shared());
            let what = format!(
                "design {design_seed}, fault seed {fault_seed}, {threads} host threads"
            );
            assert_agree(&what, &got, &want, Agree::Report, &[]);
            assert_degraded_iff_fired(&what, &engine, &got.stats);
        }
    }
}
