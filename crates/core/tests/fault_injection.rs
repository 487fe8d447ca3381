//! Fault-injection integration tests: the engine must survive every
//! device failure the fault injector can produce, degrade gracefully
//! to the host, and report *identical* violations to a fault-free run.
//!
//! The property test at the bottom is the PR's acceptance gate: 100
//! seeded fault schedules across the paper's `uart` and `aes` layouts,
//! each compared byte-for-byte against the fault-free parallel run.

use odrc::{rule, Engine, EngineOptions, RuleDeck};
use odrc_layoutgen::{generate_layout, tech, DesignSpec};
use odrc_xpu::{Device, Fault, FaultPlan};

/// A deck exercising every parallel code path: the row-pipelined space
/// kernels, the per-polygon intra kernels (width, area, rectilinear),
/// and the pair-based enclosure and overlap kernels.
fn deck() -> RuleDeck {
    RuleDeck::new(vec![
        rule()
            .layer(tech::M2)
            .width()
            .greater_than(tech::M2_WIDTH)
            .named("M2.W.1"),
        rule()
            .layer(tech::M1)
            .area()
            .greater_than(tech::M1_AREA)
            .named("M1.A.1"),
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
            .enclosed_by(tech::M2)
            .greater_than(tech::V1_M2_ENCLOSURE)
            .named("V1.M2.EN.1"),
        rule()
            .layer(tech::V1)
            .overlapping(tech::M2)
            .area_at_least(100)
            .named("V1.M2.OVL.1"),
    ])
}

fn parallel_engine(device: Device) -> Engine {
    Engine::parallel_on(device).with_options(EngineOptions {
        ..EngineOptions::default()
    })
}

/// Checks `layout` on a faulted device and asserts the degraded run
/// matches the fault-free `baseline` exactly.
fn check_with_plan(
    layout: &odrc_db::Layout,
    baseline: &[odrc::Violation],
    plan: FaultPlan,
    label: &str,
) -> odrc::EngineStats {
    let device = Device::new(3);
    device.set_fault_plan(Some(plan));
    let report = parallel_engine(device).check(layout, &deck());
    assert_eq!(
        report.violations, baseline,
        "{label}: degraded run must match the fault-free violation set"
    );
    report.stats
}

#[test]
fn fault_free_run_reports_no_degradation() {
    let layout = generate_layout(&DesignSpec::tiny(21));
    let report = parallel_engine(Device::new(3)).check(&layout, &deck());
    assert_eq!(report.stats.device_retries, 0);
    assert_eq!(report.stats.device_fallbacks, 0);
    assert!(!report.stats.degraded());
}

#[test]
fn engine_survives_injected_oom() {
    let layout = generate_layout(&DesignSpec::tiny(22));
    let baseline = parallel_engine(Device::new(3)).check(&layout, &deck());
    let plan = FaultPlan::new()
        .with(Fault::AllocOom { nth: 0 })
        .with(Fault::AllocOom { nth: 1 })
        .with(Fault::AllocOom { nth: 5 });
    let stats = check_with_plan(&layout, &baseline.violations, plan, "oom");
    assert!(
        stats.degraded(),
        "injected OOMs must be visible in the stats"
    );
}

#[test]
fn engine_survives_injected_kernel_panics() {
    let layout = generate_layout(&DesignSpec::tiny(23));
    let baseline = parallel_engine(Device::new(3)).check(&layout, &deck());
    let plan = FaultPlan::new()
        .with(Fault::KernelPanic {
            kernel: 0,
            thread: 0,
        })
        .with(Fault::KernelPanic {
            kernel: 2,
            thread: 1,
        })
        .with(Fault::KernelPanic {
            kernel: 3,
            thread: 0,
        });
    let stats = check_with_plan(&layout, &baseline.violations, plan, "kernel-panic");
    assert!(stats.degraded());
}

#[test]
fn engine_survives_injected_stream_stalls() {
    let layout = generate_layout(&DesignSpec::tiny(24));
    let baseline = parallel_engine(Device::new(3)).check(&layout, &deck());
    let plan = FaultPlan::new()
        .with(Fault::StreamStall { nth: 0 })
        .with(Fault::StreamStall { nth: 3 })
        .with(Fault::StreamStall { nth: 7 });
    let stats = check_with_plan(&layout, &baseline.violations, plan, "stream-stall");
    assert!(stats.degraded());
}

#[test]
fn engine_survives_injected_transfer_failures() {
    let layout = generate_layout(&DesignSpec::tiny(25));
    let baseline = parallel_engine(Device::new(3)).check(&layout, &deck());
    let plan = FaultPlan::new()
        .with(Fault::TransferFail { nth: 0 })
        .with(Fault::TransferFail { nth: 2 })
        .with(Fault::TransferFail { nth: 4 });
    let stats = check_with_plan(&layout, &baseline.violations, plan, "transfer-fail");
    assert!(stats.degraded());
}

#[test]
fn engine_survives_memory_budget_exhaustion() {
    // A budget too small for any real row forces every device
    // allocation down the OOM path; the engine must complete entirely
    // on the host with identical results.
    let layout = generate_layout(&DesignSpec::tiny(26));
    let baseline = parallel_engine(Device::new(3)).check(&layout, &deck());
    let device = Device::with_budget(3, 256);
    let report = parallel_engine(device).check(&layout, &deck());
    assert_eq!(report.violations, baseline.violations);
    assert!(
        report.stats.device_fallbacks > 0,
        "a starved device must fall back to the host"
    );
}

#[test]
fn sequential_mode_ignores_device_faults() {
    // The sequential engine never touches the device: a hostile plan
    // on its (unused) device changes nothing.
    let layout = generate_layout(&DesignSpec::tiny(27));
    let baseline = Engine::sequential().check(&layout, &deck());
    let engine = Engine::sequential();
    engine
        .device()
        .set_fault_plan(Some(FaultPlan::from_seed(99, 32)));
    let report = engine.check(&layout, &deck());
    assert_eq!(report.violations, baseline.violations);
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
        let spec = DesignSpec::paper(name).expect("paper design");
        let layout = generate_layout(&spec);
        let deck = deck();
        let baseline = parallel_engine(Device::new(3)).check(&layout, &deck);
        assert!(
            !baseline.violations.is_empty(),
            "{name}: paper designs carry injected violations"
        );
        assert!(!baseline.stats.degraded());
        // One edit step: the delta keeps several windowed rules in
        // flight at once, each on its own stream.
        let mut edited = layout.clone();
        let top = edited.top();
        let wire = edited
            .cell(top)
            .polygons()
            .iter()
            .position(|p| p.layer == tech::M2)
            .expect("a top-level M2 wire");
        edited
            .remove_polygon(top, wire)
            .expect("remove a top-level wire");
        let delta_baseline = parallel_engine(Device::new(3)).check_delta(
            &layout,
            &baseline.violations,
            &edited,
            &deck,
        );
        assert!(!delta_baseline.stats.degraded());
        let mut seeds_fired = 0usize;
        let mut shards_degraded = 0usize;
        let mut deltas_faulted = 0usize;
        let total_seeds = seeds.clone().count();
        for seed in seeds {
            let device = Device::new(3);
            device.set_fault_plan(Some(FaultPlan::from_seed(seed, 6)));
            let report = parallel_engine(device.clone()).check(&layout, &deck);
            assert_eq!(
                report.violations, baseline.violations,
                "{name} seed {seed}: fault injection changed the results"
            );
            let fired = device.faults_injected() > 0;
            seeds_fired += usize::from(fired);
            assert_eq!(
                report.stats.degraded(),
                fired,
                "{name} seed {seed}: stats must report degradation iff faults fired \
                 (injected={}, retries={}, fallbacks={})",
                device.faults_injected(),
                report.stats.device_retries,
                report.stats.device_fallbacks
            );

            // The same schedule through the out-of-core sharded path:
            // cache-missing shard loads consume the AllocFail faults.
            let ooc_device = Device::new(3);
            ooc_device.set_fault_plan(Some(FaultPlan::from_seed(seed, 6)));
            let ooc = Engine::parallel_on(ooc_device)
                .with_options(EngineOptions {
                    shard_rows: Some(2),
                    ..EngineOptions::default()
                })
                .check(&layout, &deck);
            assert_eq!(
                ooc.violations, baseline.violations,
                "{name} seed {seed}: out-of-core fault injection changed the results"
            );
            shards_degraded += ooc.stats.shards_degraded;

            // The same schedule through a delta re-check.
            let delta_device = Device::new(3);
            delta_device.set_fault_plan(Some(FaultPlan::from_seed(seed, 6)));
            let delta = parallel_engine(delta_device.clone()).check_delta(
                &layout,
                &baseline.violations,
                &edited,
                &deck,
            );
            assert_eq!(
                (&delta.violations, &delta.delta),
                (&delta_baseline.violations, &delta_baseline.delta),
                "{name} seed {seed}: fault injection changed the delta"
            );
            deltas_faulted += usize::from(delta_device.faults_injected() > 0);
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
