//! Benchmarks the engine pipeline on a multi-rule deck: both engine
//! modes plus the sharded (out-of-core) sequential engine, per design.
//! It prints each design's runs side by side, one row per counter of
//! `EngineStats::COUNTERS` that some run counted. With `--json`, writes
//! the machine-readable `BENCH_pipeline.json` (every counter of every
//! run, under its table name) so the perf trajectory is tracked across
//! PRs.
//!
//! `--scaling` instead sweeps the host executor's thread count
//! (1/2/4/max, deduplicated) over the sequential engine and
//! writes `BENCH_host.json` — the host-parallelism scaling table.
//!
//! `--gate <baseline.json>` re-measures the aes configurations against
//! a committed `BENCH_pipeline.json` (read with `odrc_infra::json`) and
//! exits nonzero if any `Shared` or `Exact` counter the baseline records
//! for a configuration differs from the fresh run's (the work vector is
//! compared by equality; `Telemetry` counters are not compared), on a
//! regression (>25% + 10ms grace) of the parallel mode's kernel-wait
//! phase or the sequential mode's sweepline phase, a parallel run
//! slower than 1.25x the sequential one beside it (+10ms), 2-thread
//! host scaling below 0.95x, a peak-RSS regression beyond 2x the
//! committed per-design high-water mark, or a
//! `sequential+ooc` run whose `scene` phase exceeds 4x the in-core one
//! (+5ms) or whose violations differ from the in-core run's — the CI
//! perf/memory gate.
//!
//! ```text
//! cargo run -p odrc-bench --release --bin pipeline -- \
//!     [--designs aes,jpeg] [--repeat N] [--host-threads N] [--json]
//! cargo run -p odrc-bench --release --bin pipeline -- \
//!     --scaling [--designs uart,aes] [--repeat N] [--json]
//! cargo run -p odrc-bench --release --bin pipeline -- \
//!     --gate BENCH_pipeline.json
//! ```

use std::time::Instant;

use odrc::{CheckReport, CounterClass, Engine, EngineOptions, EngineStats, Mode, RuleDeck};
use odrc_bench::{load_designs, pipeline_deck, BenchDesign};
use odrc_infra::json::{self, Value};

/// The sharded configuration's label.
const OOC: &str = "sequential+ooc";

/// One measured configuration: its label, the engine mode, whether the
/// engine shards (an unlimited `memory_budget`, no journal) and the host
/// thread count (`None` = the engine's default).
type Config = (&'static str, Mode, bool, Option<usize>);

/// The pipeline table's configurations, in order (the sharded one last).
fn table_configs(host_threads: Option<usize>) -> [Config; 3] {
    [
        ("sequential", Mode::Sequential, false, host_threads),
        ("parallel", Mode::Parallel, false, host_threads),
        (OOC, Mode::Sequential, true, host_threads),
    ]
}

/// The `--scaling` configurations: the sequential engine at each rung.
fn ladder_configs(ladder: &[usize]) -> Vec<Config> {
    let rung = |&threads| ("sequential", Mode::Sequential, false, Some(threads));
    ladder.iter().map(rung).collect()
}

struct RunResult {
    mode: &'static str,
    wall_ms: f64,
    report: Option<CheckReport>,
}

impl RunResult {
    fn report(&self) -> &CheckReport {
        self.report.as_ref().expect("configuration was run")
    }
}

fn engine((_, mode, sharded, host_threads): Config) -> Engine {
    let base = match mode {
        Mode::Sequential => Engine::sequential(),
        Mode::Parallel => Engine::parallel(),
    };
    base.with_options(EngineOptions {
        host_threads,
        memory_budget: sharded.then_some(u64::MAX),
        ..EngineOptions::default()
    })
}

/// Runs every configuration `repeat` times in round-robin order —
/// interleaving cancels drift (thermal, allocator growth) that would
/// otherwise systematically penalize later configurations — and keeps
/// each configuration's minimum wall time, the noise-robust statistic
/// for a CPU-bound simulated device.
///
/// The report (stats, phase profile) is kept from the *same* repeat
/// that produced the minimum wall time. Keeping the last repeat's
/// report instead used to let cumulative phase times (kernel-wait
/// summed across concurrent waiters) drift out of agreement with the
/// recorded wall — the table would show phase totals exceeding wall_ms
/// taken from a different, faster run.
fn run_configs(
    design: &BenchDesign,
    deck: &RuleDeck,
    repeat: usize,
    configs: &[Config],
) -> Vec<RunResult> {
    let mut results: Vec<RunResult> = configs
        .iter()
        .map(|&(mode, ..)| RunResult {
            mode,
            wall_ms: f64::INFINITY,
            report: None,
        })
        .collect();
    for _ in 0..repeat.max(1) {
        for (slot, &config) in results.iter_mut().zip(configs) {
            let e = engine(config);
            let start = Instant::now();
            let r = e.check(&design.layout, deck);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            if wall_ms < slot.wall_ms {
                slot.wall_ms = wall_ms;
                slot.report = Some(r);
            }
        }
    }
    results
}

/// The `--scaling` thread ladder: 1, 2, 4, and every core, deduplicated
/// (on small hosts the rungs collapse; the table is recorded anyway so
/// the scaling trajectory is comparable across machines).
fn scaling_ladder() -> Vec<usize> {
    let mut rungs = vec![1, 2, 4, odrc_infra::available_threads()];
    rungs.sort_unstable();
    rungs.dedup();
    rungs
}

fn write_scaling_json(
    path: &str,
    ladder: &[usize],
    results: &[(String, Vec<RunResult>)],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"host-scaling\",")?;
    writeln!(f, "  \"mode\": \"sequential\",")?;
    writeln!(f, "  \"designs\": [")?;
    for (di, (name, runs)) in results.iter().enumerate() {
        writeln!(f, "    {{")?;
        writeln!(f, "      \"name\": \"{name}\",")?;
        writeln!(f, "      \"runs\": [")?;
        let base = runs.first().map(|r| r.wall_ms).unwrap_or(f64::NAN);
        for (ri, (r, threads)) in runs.iter().zip(ladder).enumerate() {
            let s = &r.report().stats;
            writeln!(f, "        {{")?;
            writeln!(f, "          \"host_threads\": {threads},")?;
            writeln!(f, "          \"wall_ms\": {:.3},", r.wall_ms)?;
            writeln!(
                f,
                "          \"violations\": {},",
                r.report().violations.len()
            )?;
            write_counters(&mut f, s)?;
            writeln!(f, "          \"speedup_vs_1\": {:.3}", base / r.wall_ms)?;
            writeln!(
                f,
                "        }}{}",
                if ri + 1 < runs.len() { "," } else { "" }
            )?;
        }
        writeln!(f, "      ]")?;
        writeln!(f, "    }}{}", if di + 1 < results.len() { "," } else { "" })?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

/// Writes every counter of `stats`, one `"name": value,` line each, in
/// table order and at a run object's indentation.
fn write_counters(f: &mut impl std::io::Write, stats: &EngineStats) -> std::io::Result<()> {
    for (name, n) in stats.counters(|_| true) {
        writeln!(f, "          \"{name}\": {n},")?;
    }
    Ok(())
}

fn write_json(
    path: &str,
    results: &[(String, Option<u64>, Vec<RunResult>)],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"pipeline\",")?;
    writeln!(f, "  \"designs\": [")?;
    for (di, (name, peak_rss, runs)) in results.iter().enumerate() {
        writeln!(f, "    {{")?;
        writeln!(f, "      \"name\": \"{name}\",")?;
        match peak_rss {
            Some(bytes) => writeln!(f, "      \"peak_rss_bytes\": {bytes},")?,
            None => writeln!(f, "      \"peak_rss_bytes\": null,")?,
        }
        writeln!(f, "      \"runs\": [")?;
        for (ri, r) in runs.iter().enumerate() {
            let s = &r.report().stats;
            writeln!(f, "        {{")?;
            writeln!(f, "          \"mode\": \"{}\",", r.mode)?;
            writeln!(f, "          \"wall_ms\": {:.3},", r.wall_ms)?;
            writeln!(
                f,
                "          \"violations\": {},",
                r.report().violations.len()
            )?;
            write_counters(&mut f, s)?;
            writeln!(f, "          \"degraded\": {},", s.degraded())?;
            writeln!(f, "          \"phases_ms\": {{")?;
            let phases = r.report().profile.phases();
            for (pi, (phase, d)) in phases.iter().enumerate() {
                writeln!(
                    f,
                    "            \"{}\": {:.3}{}",
                    phase,
                    d.as_secs_f64() * 1e3,
                    if pi + 1 < phases.len() { "," } else { "" }
                )?;
            }
            writeln!(f, "          }}")?;
            writeln!(
                f,
                "        }}{}",
                if ri + 1 < runs.len() { "," } else { "" }
            )?;
        }
        writeln!(f, "      ]")?;
        writeln!(f, "    }}{}", if di + 1 < results.len() { "," } else { "" })?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

/// The profiler phase the gate holds each engine mode to: the device
/// wait of the parallel mode, the candidate sweeps of the sequential.
fn gated_phase(mode: &str) -> &'static str {
    if mode == "parallel" {
        "kernel-wait"
    } else {
        "sweepline"
    }
}

/// The member of the JSON array `list` whose string `key` is `value`.
fn find<'a>(list: Option<&'a Value>, key: &str, value: &str) -> Option<&'a Value> {
    let items = list.and_then(Value::as_array).unwrap_or_default();
    items
        .iter()
        .find(|item| item.get(key).and_then(Value::as_str) == Some(value))
}

/// Pulls a named phase (milliseconds) out of a run's profile.
fn phase_ms(report: &CheckReport, phase: &str) -> Option<f64> {
    report
        .profile
        .phases()
        .iter()
        .find(|(p, _)| p == phase)
        .map(|(_, d)| d.as_secs_f64() * 1e3)
}

/// The CI perf gate (`--gate <baseline.json>`): re-measures aes in
/// every configuration and fails (exit 1) if a configuration's work
/// vector left the committed one, if a mode's gated phase (parallel
/// kernel-wait, sequential sweepline) regressed more than 25% past the
/// committed baseline, if the parallel run loses to the sequential one,
/// if the sharded run fails its checks (both below), or if running the
/// sequential engine with two host threads costs more than 5% over one
/// thread (a second worker must at least pay for its own spawns). A
/// 10ms absolute grace keeps sub-noise baselines from tripping the
/// ratio.
fn run_gate(baseline_path: &str, deck: &RuleDeck, repeat: usize) -> bool {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("gate baseline '{baseline_path}' unreadable: {e}"));
    let baseline = json::parse(&text)
        .unwrap_or_else(|e| panic!("gate baseline '{baseline_path}' is not JSON: {e}"));
    let committed_aes = find(baseline.get("designs"), "name", "aes");
    let committed = |mode: &str| find(committed_aes?.get("runs"), "mode", mode);
    let design = load_designs(Some("aes"))
        .into_iter()
        .next()
        .expect("aes design exists");
    let mut ok = true;

    println!("=== Perf gate vs {baseline_path} ===");
    odrc_infra::reset_peak_rss();
    let runs = run_configs(&design, deck, repeat, &table_configs(None));
    let fresh_peak = odrc_infra::peak_rss_bytes();

    // The work vector: every Shared and Exact counter a committed run
    // records must equal the fresh run's (Telemetry may move).
    for r in &runs {
        let Some(base) = committed(r.mode) else {
            ok = false;
            println!("aes {}: baseline has no run .. FAIL", r.mode);
            continue;
        };
        let work = r.report().stats.counters(|c| c != CounterClass::Telemetry);
        let recorded: Vec<(&str, i64, u64)> = work
            .into_iter()
            .filter_map(|(name, n)| Some((name, base.get(name)?.as_i64()?, n)))
            .collect();
        let moved: Vec<String> = recorded
            .iter()
            .filter(|&&(_, was, n)| u64::try_from(was) != Ok(n))
            .map(|(name, was, n)| format!("{name} {was} -> {n}"))
            .collect();
        ok &= moved.is_empty();
        let verdict = if moved.is_empty() {
            "equal".to_string()
        } else {
            format!("MOVED: {}", moved.join(", "))
        };
        let checked = recorded.len();
        println!(
            "aes {}: {checked} work counters vs baseline .. {verdict}",
            r.mode
        );
    }

    let (ooc, in_core) = runs.split_last().expect("the sharded configuration");
    for r in in_core {
        let phase = gated_phase(r.mode);
        let base = committed(r.mode).and_then(|b| b.get("phases_ms")?.get(phase)?.as_f64());
        let fresh = phase_ms(r.report(), phase).unwrap_or(0.0);
        let label = format!("aes {}", r.mode);
        match base {
            Some(base) => {
                let limit = base * 1.25 + 10.0;
                let pass = fresh <= limit;
                ok &= pass;
                println!(
                    "{}: {} {:.1}ms vs baseline {:.1}ms (limit {:.1}ms) .. {}",
                    label,
                    phase,
                    fresh,
                    base,
                    limit,
                    if pass { "ok" } else { "REGRESSED" }
                );
            }
            None => {
                ok = false;
                println!("{label}: baseline has no {phase} entry .. FAIL");
            }
        }
    }

    // The parallel mode must not lose to the sequential run measured
    // beside it (1.25x + 10ms).
    let (seq, par) = (&in_core[0], &in_core[1]);
    let limit = seq.wall_ms * 1.25 + 10.0;
    let pass = par.wall_ms <= limit;
    ok &= pass;
    println!(
        "aes parallel: wall {:.1}ms vs sequential {:.1}ms (limit {limit:.1}ms) .. {}",
        par.wall_ms,
        seq.wall_ms,
        if pass { "ok" } else { "FAIL" }
    );

    // The sharded run is the in-core run plus shard planning: its scene
    // phase stays within 4x (+5ms) of the in-core one measured beside
    // it, and it reports the same violations.
    let scene = |r: &RunResult| phase_ms(r.report(), "scene").unwrap_or(0.0);
    let limit = scene(seq) * 4.0 + 5.0;
    let same = ooc.report().violations == seq.report().violations;
    let pass = scene(ooc) <= limit && same;
    ok &= pass;
    println!(
        "aes {OOC}: scene {:.1}ms vs in-core {:.1}ms (limit {limit:.1}ms), violations {} .. {}",
        scene(ooc),
        scene(seq),
        if same { "equal" } else { "DIFFER" },
        if pass { "ok" } else { "FAIL" }
    );

    // Memory gate: the checking phase's high-water mark (HWM reset just
    // before the runs) must stay within 2x of the committed aes peak.
    // The grace is the committed peak itself, so it scales with the
    // design: an absolute allowance would dwarf a small design's peak
    // and let a several-fold regression pass. Missing data (old
    // baseline, or a platform without procfs) skips the comparison
    // rather than failing.
    let base_peak = committed_aes.and_then(|d| d.get("peak_rss_bytes")?.as_i64());
    match (base_peak.map(|b| b as u64), fresh_peak) {
        (Some(base), Some(fresh)) => {
            let limit = 2 * base;
            let pass = fresh <= limit;
            ok &= pass;
            println!(
                "aes peak-RSS {:.1} MiB vs baseline {:.1} MiB (limit {:.1} MiB) .. {}",
                fresh as f64 / (1 << 20) as f64,
                base as f64 / (1 << 20) as f64,
                limit as f64 / (1 << 20) as f64,
                if pass { "ok" } else { "REGRESSED" }
            );
        }
        (None, _) => println!("aes peak-RSS: baseline has no entry .. skipped (regenerate)"),
        (_, None) => println!("aes peak-RSS: platform exposes no HWM .. skipped"),
    }

    let scale = run_configs(&design, deck, repeat, &ladder_configs(&[1, 2]));
    let ratio = scale[0].wall_ms / scale[1].wall_ms;
    let pass = ratio >= 0.95;
    ok &= pass;
    println!(
        "aes sequential host scaling 1t {:.1}ms / 2t {:.1}ms = {:.2}x .. {}",
        scale[0].wall_ms,
        scale[1].wall_ms,
        ratio,
        if pass { "ok" } else { "BELOW 0.95x" }
    );

    println!("perf gate: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// Prints one design's runs side by side: wall time, violations and
/// each counter that some run counted, in table order, one row each.
fn print_runs(design: &str, runs: &[RunResult]) {
    let row = |label: &str, cell: &dyn Fn(&RunResult) -> String| {
        let cells: String = runs.iter().map(|r| format!(" {:>14}", cell(r))).collect();
        println!("{label:<22}{cells}");
    };
    println!();
    row(design, &|r| r.mode.to_string());
    row("wall_ms", &|r| format!("{:.1}", r.wall_ms));
    row("violations", &|r| r.report().violations.len().to_string());
    for c in EngineStats::COUNTERS {
        let value = |r: &RunResult| (c.get)(&r.report().stats);
        if runs.iter().any(|r| value(r) > 0) {
            row(c.name, &|r| value(r).to_string());
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut designs: Option<String> = None;
    let mut repeat = 1usize;
    let mut json = false;
    let mut scaling = false;
    let mut gate: Option<String> = None;
    let mut host_threads: Option<usize> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--designs" if i + 1 < args.len() => {
                designs = Some(args[i + 1].clone());
                i += 2;
            }
            "--gate" if i + 1 < args.len() => {
                gate = Some(args[i + 1].clone());
                i += 2;
            }
            "--repeat" if i + 1 < args.len() => {
                repeat = args[i + 1].parse().unwrap_or(1).max(1);
                i += 2;
            }
            "--host-threads" if i + 1 < args.len() => {
                host_threads = Some(args[i + 1].parse().unwrap_or(1).max(1));
                i += 2;
            }
            "--scaling" => {
                scaling = true;
                i += 1;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            other => {
                eprintln!("ignoring unknown argument '{other}'");
                i += 1;
            }
        }
    }
    // The scaling sweep defaults to the small/medium pair so the table
    // stays cheap enough to regenerate every PR.
    let designs =
        designs.unwrap_or_else(|| if scaling { "uart,aes" } else { "aes,jpeg" }.to_owned());

    let deck = pipeline_deck();

    if let Some(baseline) = gate {
        let ok = run_gate(&baseline, &deck, repeat.max(3));
        std::process::exit(if ok { 0 } else { 1 });
    }

    if scaling {
        let ladder = scaling_ladder();
        println!(
            "\n=== Host executor scaling: sequential, {}-rule deck ===",
            deck.rules().len()
        );
        println!(
            "{:<10} {:>7} {:>8} {:>10} {:>10} {:>8} {:>9}",
            "design", "threads", "wall_ms", "#viol", "tasks", "joins", "speedup"
        );
        let mut results: Vec<(String, Vec<RunResult>)> = Vec::new();
        for design in load_designs(Some(&designs)) {
            let runs = run_configs(&design, &deck, repeat, &ladder_configs(&ladder));
            for (r, threads) in runs.iter().zip(&ladder) {
                // Every thread count must agree exactly with threads=1.
                assert_eq!(
                    runs[0].report().violations,
                    r.report().violations,
                    "host_threads={threads} changed the violation set on {}",
                    design.name
                );
                let s = &r.report().stats;
                println!(
                    "{:<10} {:>7} {:>8.1} {:>10} {:>10} {:>8} {:>8.2}x",
                    design.name,
                    threads,
                    r.wall_ms,
                    r.report().violations.len(),
                    s.host_tasks,
                    s.host_steals,
                    runs[0].wall_ms / r.wall_ms,
                );
            }
            results.push((design.name.clone(), runs));
        }
        if json {
            let path = "BENCH_host.json";
            write_scaling_json(path, &ladder, &results).expect("write BENCH_host.json");
            println!("\nwrote {path}");
        }
        return;
    }

    println!(
        "\n=== Pipeline: {}-rule deck, both engine modes + sharded ===",
        deck.rules().len()
    );
    let mut results: Vec<(String, Option<u64>, Vec<RunResult>)> = Vec::new();
    for design in load_designs(Some(&designs)) {
        // Per-design checking-phase high-water mark: the HWM is reset
        // (where the platform allows) before the configurations run, so
        // the recorded peak covers this design's checks, not whatever
        // the process touched earlier.
        odrc_infra::reset_peak_rss();
        let runs = run_configs(&design, &deck, repeat, &table_configs(host_threads));
        let peak_rss = odrc_infra::peak_rss_bytes();
        for r in &runs {
            // Every configuration must agree exactly.
            assert_eq!(
                runs[0].report().violations,
                r.report().violations,
                "{} mode changed the violation set on {}",
                r.mode,
                design.name
            );
        }
        print_runs(&design.name, &runs);
        if let Some(bytes) = peak_rss {
            println!(
                "{:<10} peak-RSS {:.1} MiB",
                design.name,
                bytes as f64 / (1 << 20) as f64
            );
        }
        results.push((design.name.clone(), peak_rss, runs));
    }

    if json {
        let path = "BENCH_pipeline.json";
        write_json(path, &results).expect("write BENCH_pipeline.json");
        println!("\nwrote {path}");
    }
}
