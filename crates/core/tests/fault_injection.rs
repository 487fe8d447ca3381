//! Fault-injection integration tests: the engine must survive every
//! device failure the fault injector can produce, degrade gracefully
//! to the host, and report *identical* violations to a fault-free run.
//!
//! The property test at the bottom is the acceptance gate: 100 seeded
//! fault schedules across the paper's `uart` and `aes` layouts, each
//! compared byte-for-byte against the fault-free parallel run.

use odrc::{CheckReport, EngineStats};
use odrc_layoutgen::tech;
use odrc_testkit::layouts::{paper, tiny, without_top_wire};
use odrc_testkit::{assert_agree, assert_degraded_iff_fired, decks, Agree, Config};
use odrc_xpu::{Fault, FaultPlan};

/// Checks `tiny:seed` on a device faulted by `faults` and asserts the
/// degraded run matches the fault-free one exactly.
fn check_with_plan(seed: u64, faults: &[Fault], label: &str) -> EngineStats {
    let layout = tiny(seed);
    let clean = Config::par().check(&layout, &decks::device_paths());
    let plan = faults
        .iter()
        .fold(FaultPlan::new(), |plan, &f| plan.with(f));
    let got = Config::par()
        .faults(plan)
        .check(&layout, &decks::device_paths());
    assert_agree(label, &got, &clean, Agree::Report, &[]);
    got.stats
}

#[test]
fn fault_free_run_reports_no_degradation() {
    let report = Config::par().check(&tiny(21), &decks::device_paths());
    assert_eq!(report.stats.device_retries, 0);
    assert_eq!(report.stats.device_fallbacks, 0);
    assert!(!report.stats.degraded());
}

#[test]
fn engine_survives_injected_oom() {
    let oom = |nth| Fault::AllocOom { nth };
    let stats = check_with_plan(22, &[oom(0), oom(1), oom(5)], "oom");
    assert!(
        stats.degraded(),
        "injected OOMs must be visible in the stats"
    );
}

#[test]
fn engine_survives_injected_kernel_panics() {
    let panic = |kernel, thread| Fault::KernelPanic { kernel, thread };
    let stats = check_with_plan(23, &[panic(0, 0), panic(2, 1), panic(3, 0)], "kernel-panic");
    assert!(stats.degraded());
}

#[test]
fn engine_survives_injected_stream_stalls() {
    let stall = |nth| Fault::StreamStall { nth };
    let stats = check_with_plan(24, &[stall(0), stall(3), stall(7)], "stream-stall");
    assert!(stats.degraded());
}

#[test]
fn engine_survives_injected_transfer_failures() {
    let fail = |nth| Fault::TransferFail { nth };
    let stats = check_with_plan(25, &[fail(0), fail(2), fail(4)], "transfer-fail");
    assert!(stats.degraded());
}

#[test]
fn engine_survives_memory_budget_exhaustion() {
    // A budget too small for any real row forces every device
    // allocation down the OOM path; the engine must complete entirely
    // on the host with identical results.
    let layout = tiny(26);
    let clean = Config::par().check(&layout, &decks::device_paths());
    let report = Config::par()
        .device_budget(256)
        .check(&layout, &decks::device_paths());
    assert_agree("256-byte device", &report, &clean, Agree::Report, &[]);
    assert!(
        report.stats.device_fallbacks > 0,
        "a starved device must fall back to the host"
    );
}

#[test]
fn sequential_mode_ignores_device_faults() {
    // The sequential engine never touches the device: a hostile plan
    // on its (unused) device changes nothing.
    let layout = tiny(27);
    let clean = Config::seq().check(&layout, &decks::device_paths());
    let hostile = Config::seq().faults(FaultPlan::from_seed(99, 32));
    let report = hostile.check(&layout, &decks::device_paths());
    assert_agree("hostile plan", &report, &clean, Agree::Exact, &[]);
    assert!(!report.stats.degraded());
}

/// The acceptance property: for 100 seeded fault schedules across the
/// paper's `uart` and `aes` designs, the degraded engine produces a
/// violation set byte-identical to the fault-free parallel run, and
/// the stats report retries/fallbacks exactly when faults actually
/// fired.
///
/// Every schedule is also replayed through the out-of-core sharded
/// path, where shard loads tick the device's [`Fault::AllocFail`]
/// schedule: a fired fault degrades that load to build-check-drop, and
/// the violation set must still match byte for byte. The sweep asserts
/// at least one schedule per design actually degraded a shard load, so
/// the `AllocFail` arm of [`FaultPlan::from_seed`] cannot go dormant.
///
/// Every schedule also faults one delta re-check of an edited layout,
/// which must equal the fault-free delta.
#[test]
fn property_seeded_fault_schedules_preserve_results() {
    // `uart` is cheap, `aes` is the big design: split the 100 seeds to
    // keep debug-mode runtime reasonable while still hammering the
    // large layout.
    let designs = [("uart", 80u64..160), ("aes", 0u64..20)];
    for (name, seeds) in designs {
        let layout = paper(name);
        let deck = decks::device_paths();
        let clean: CheckReport = Config::par().check(&layout, &deck);
        assert!(
            !clean.violations.is_empty(),
            "{name}: paper designs carry injected violations"
        );
        assert!(!clean.stats.degraded());
        // One edit step: the delta keeps several windowed rules in
        // flight at once, each on its own stream.
        let edited = without_top_wire(&layout, tech::M2);
        let delta = |config: &Config| {
            let engine = config.engine();
            let report = engine.check_delta(&layout, &clean.violations, &edited, &deck);
            (engine, report)
        };
        let (_, clean_delta) = delta(&Config::par());
        assert!(!clean_delta.stats.degraded());
        let mut seeds_fired = 0usize;
        let mut shards_degraded = 0usize;
        let mut deltas_faulted = 0usize;
        let total_seeds = seeds.clone().count();
        for seed in seeds {
            let faulted = Config::par().fault_seed(seed);
            let what = format!("{name} seed {seed}");
            let engine = faulted.engine();
            let report = engine.check(&layout, &deck);
            assert_agree(&what, &report, &clean, Agree::Report, &[]);
            assert_degraded_iff_fired(&what, &engine, &report.stats);
            seeds_fired += usize::from(engine.device().faults_injected() > 0);

            // The same schedule through the out-of-core sharded path:
            // cache-missing shard loads consume the AllocFail faults.
            let ooc = faulted.clone().shards(2).check(&layout, &deck);
            assert_agree(
                &format!("{what} out of core"),
                &ooc,
                &clean,
                Agree::Report,
                &[],
            );
            shards_degraded += ooc.stats.shards_degraded;

            // The same schedule through a delta re-check.
            let (engine, got) = delta(&faulted);
            assert_agree(
                &format!("{what} delta"),
                &got,
                &clean_delta,
                Agree::Report,
                &[],
            );
            assert_eq!(got.delta, clean_delta.delta, "{what}: the delta");
            deltas_faulted += usize::from(engine.device().faults_injected() > 0);
        }
        // The property must not hold vacuously: the seeded schedules
        // target small ordinal ranges precisely so most of them hit.
        assert!(
            seeds_fired * 2 > total_seeds,
            "{name}: only {seeds_fired}/{total_seeds} schedules fired any fault"
        );
        assert!(
            shards_degraded > 0,
            "{name}: no seeded AllocFail ever degraded a shard load"
        );
        assert!(deltas_faulted > 0, "{name}: no schedule faulted a delta");
    }
}
