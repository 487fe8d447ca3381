//! Host-executor equivalence tests.
//!
//! The pool-backed host executor (`infra::host`) changes *where* the
//! hot host phases run — scene flattening, row partitioning, row
//! checking, edge packing, canonicalization fan out across worker
//! threads — but must never change *what* is reported. Every test here
//! pits multi-threaded runs against the single-threaded baseline
//! (`host_threads = 1`: the same code, with the executor running every
//! task inline on the caller) and demands byte-identical canonical
//! violation sets and identical work counters, across modes and
//! injected device faults.

use odrc::{rule, CounterClass, Engine, EngineOptions, EngineStats, Mode, RuleDeck, Violation};
use odrc_layoutgen::{generate_layout, tech, DesignSpec};
use odrc_xpu::{Device, FaultPlan};
use proptest::prelude::*;

/// Thread counts under test: the serial baseline, a minimal fan-out,
/// and an oversubscribed pool (more workers than this host has cores).
const THREADS: [usize; 3] = [1, 2, 8];

/// A deck touching every parallelized phase: spacing (partition, pack,
/// row checks), width/area (intra fan-out), and enclosure (gather).
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
    ])
}

fn engine(mode: Mode, host_threads: usize) -> Engine {
    let base = match mode {
        Mode::Sequential => Engine::sequential(),
        Mode::Parallel => Engine::parallel_on(Device::new(3)),
    };
    base.with_options(EngineOptions {
        host_threads: Some(host_threads),
        ..EngineOptions::default()
    })
}

/// Every counter but scheduling telemetry: a function of the input and
/// the options only — never of how many workers shared the work, nor of
/// the run.
fn work(stats: &EngineStats) -> Vec<(&'static str, u64)> {
    stats.counters(|class| class != CounterClass::Telemetry)
}

/// The counters both modes share: they check the same templates and
/// rows, and gather their pair work through the one row join.
/// (`edges_packed` is not among them: M1.S.1 and M1.S.2 share one row
/// set in parallel mode, while the default mode packs per rule.)
fn shared(stats: &EngineStats) -> Vec<(&'static str, u64)> {
    stats.counters(|class| class == CounterClass::Shared)
}

fn check(layout: &odrc_db::Layout, mode: Mode, host_threads: usize) -> odrc::CheckReport {
    engine(mode, host_threads).check(layout, &deck())
}

/// Running the exact same configuration repeatedly must reproduce the
/// exact same violations and work — which pool worker claims a chunk
/// changes from run to run, but the ordered merge erases every trace of
/// it.
#[test]
fn repeated_runs_are_deterministic() {
    let layout = generate_layout(&DesignSpec::tiny(77));
    for (mode, threads) in [(Mode::Sequential, 8), (Mode::Parallel, 8)] {
        let first = check(&layout, mode, threads);
        for _ in 0..4 {
            let again = check(&layout, mode, threads);
            assert_eq!(
                again.violations, first.violations,
                "mode {mode:?} with {threads} host threads is not deterministic"
            );
            assert_eq!(
                work(&again.stats),
                work(&first.stats),
                "mode {mode:?} with {threads} host threads: work counters moved"
            );
        }
    }
}

/// There is no separate single-threaded code path: a one-thread run
/// hands its tasks to the same executor (which runs them inline, so
/// nothing is ever stolen) and reports the same violations and the same
/// work counters as any larger pool.
#[test]
fn one_thread_runs_the_same_pipeline() {
    let layout = generate_layout(&DesignSpec::tiny(78));
    let reference = check(&layout, Mode::Sequential, 1).stats;
    assert!(
        reference.join_candidates > 0,
        "the deck's enclosure rule found no candidate"
    );
    assert!(reference.candidate_pairs > 0, "no spacing candidate pair");
    assert!(
        reference.pairs_scanned >= reference.candidate_pairs as u64,
        "every candidate pair is one scan comparison"
    );
    for mode in [Mode::Sequential, Mode::Parallel] {
        let serial = check(&layout, mode, 1);
        assert!(
            serial.stats.host_tasks > 0,
            "{mode:?}: a one-thread run must still go through the executor"
        );
        assert_eq!(
            shared(&serial.stats),
            shared(&reference),
            "{mode:?}: shared counters"
        );
        assert_eq!(serial.stats.host_steals, 0);
        for threads in [2, 8] {
            let fanned = check(&layout, mode, threads);
            assert_eq!(fanned.violations, serial.violations);
            assert_eq!(
                work(&fanned.stats),
                work(&serial.stats),
                "{mode:?}: work counters moved with host_threads {threads}"
            );
            assert_eq!(
                shared(&fanned.stats),
                shared(&reference),
                "{mode:?}: host_threads {threads} left the modes' shared counters"
            );
        }
    }
}

/// A delta re-check builds its window scenes on the run's executor, so
/// at every thread count it reports the same violations and hands the
/// executor the same tasks.
#[test]
fn delta_rechecks_fan_out_the_same_tasks_at_every_thread_count() {
    let old = generate_layout(&DesignSpec::tiny(79));
    let old_violations = check(&old, Mode::Sequential, 1).violations;
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
    let expected = check(&new, Mode::Sequential, 1).violations;
    for mode in [Mode::Sequential, Mode::Parallel] {
        let serial = engine(mode, 1).check_delta(&old, &old_violations, &new, &deck());
        assert!(
            serial.stats.host_tasks > 0,
            "{mode:?}: the delta ran no task"
        );
        for threads in THREADS {
            let got = engine(mode, threads).check_delta(&old, &old_violations, &new, &deck());
            assert_eq!(
                got.violations, expected,
                "{mode:?} delta, {threads} threads"
            );
            assert_eq!(
                got.stats.host_tasks, serial.stats.host_tasks,
                "{mode:?} delta: host_tasks moved with {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// On generated designs, every host-thread count reports violations
    /// byte-identical to the single-threaded run, in both modes — and,
    /// within one mode, the same work counters.
    #[test]
    fn prop_host_threads_match_serial(design_seed in 0u64..1_000) {
        let layout = generate_layout(&DesignSpec::tiny(design_seed));
        let sequential = check(&layout, Mode::Sequential, 1);
        let baseline = sequential.violations;
        for mode in [Mode::Sequential, Mode::Parallel] {
            let mut serial_work = None;
            for threads in THREADS {
                let got = check(&layout, mode, threads);
                prop_assert_eq!(
                    &got.violations, &baseline,
                    "mode {:?} host_threads {} diverged on design seed {}",
                    mode, threads, design_seed
                );
                prop_assert_eq!(
                    shared(&got.stats), shared(&sequential.stats),
                    "mode {:?} host_threads {} left the modes' shared counters on design seed {}",
                    mode, threads, design_seed
                );
                prop_assert_eq!(
                    *serial_work.get_or_insert(work(&got.stats)), work(&got.stats),
                    "mode {:?} host_threads {} moved the work counters on design seed {}",
                    mode, threads, design_seed
                );
            }
        }
    }

    /// Under a seeded fault schedule, multi-threaded runs still report
    /// exactly the fault-free baseline, and degradation is reported iff
    /// faults actually fired.
    #[test]
    fn prop_host_threads_survive_fault_injection(
        design_seed in 0u64..100,
        fault_seed in 0u64..200,
    ) {
        let layout = generate_layout(&DesignSpec::tiny(design_seed));
        let baseline: Vec<Violation> =
            check(&layout, Mode::Sequential, 1).violations;
        for threads in THREADS {
            let device = Device::new(3);
            device.set_fault_plan(Some(FaultPlan::from_seed(fault_seed, 6)));
            let report = Engine::parallel_on(device.clone())
                .with_options(EngineOptions {
                    host_threads: Some(threads),
                    ..EngineOptions::default()
                })
                .check(&layout, &deck());
            prop_assert_eq!(
                &report.violations, &baseline,
                "host_threads {} fault seed {} changed the results on design {}",
                threads, fault_seed, design_seed
            );
            prop_assert_eq!(
                report.stats.degraded(),
                device.faults_injected() > 0,
                "host_threads {}: degradation must be reported iff faults fired",
                threads
            );
        }
    }
}
