//! The `odrc` command-line checker.
//!
//! ```text
//! odrc <layout.gds> --rules <deck.rules> [--parallel] [--max-print N]
//!      [--cache <dir>] [--stats-json <file>] [--report out.csv]
//!      [--markers out.gds] [--device-budget BYTES] [--fault-seed N]
//!      [--host-threads N] [--deadline SECS] [--checkpoint-dir <dir>]
//!      [--resume <dir>] [--watchdog-ms N] [--out-of-core]
//!      [--memory-budget BYTES] [--shard-rows N]
//! odrc diff <old.gds> <new.gds> --rules <deck.rules> [--parallel]
//!      [--cache <dir>] [--max-print N] [--host-threads N]
//! odrc serve --help
//! odrc client --help
//! ```
//!
//! The default mode streams a GDSII layout into the layout database
//! (one loader for every mode; the `loaded ...` line reports its wall
//! time and the peak RSS after it), reads a plain-text rule deck (see
//! [`odrc::parse_deck`] for the format), runs the checks, prints the
//! violations and the phase breakdown, and exits non-zero when
//! violations were found. `--cache <dir>` keeps the per-cell result
//! memo in `<dir>/odrc-cache.bin` across runs, so a warm invocation
//! skips every cell whose content did not change.
//!
//! `odrc diff` checks `old.gds`, delta-checks `new.gds` against it,
//! and prints the violations the edit added and removed. It exits 0
//! when the edit added no violations, non-zero otherwise.
//!
//! `odrc serve` runs the multi-tenant check daemon (see
//! [`odrc_serve::server`]): clients open edit sessions, stream edits,
//! and submit concurrent check jobs that share one host-thread budget
//! and one result-cache tier. `odrc client` is the matching
//! command-line front end; its exit code follows the same 0–4 table
//! below, taken verbatim from the job's `done` event, so scripts
//! cannot tell the two front ends apart. SIGTERM drains the daemon
//! gracefully: running jobs finish and deliver, then the shared cache
//! tier is persisted.
//!
//! # Run lifecycle
//!
//! A check can be stopped cooperatively — SIGINT/SIGTERM (Ctrl-C), or
//! a `--deadline SECS` wall-clock budget. The engine stops issuing new
//! rules at the next rule boundary, drains in-flight device work, and
//! exits cleanly with code 4: `--stats-json` is still written
//! (atomically), the per-rule completion status is reported, and —
//! with `--checkpoint-dir <dir>` — every rule that *did* finish is
//! already journaled in `<dir>/odrc-journal.bin`. A follow-up
//! `odrc --resume <dir>` restores those rules without re-checking them
//! and runs only what is missing; the final violation set is
//! byte-identical to an uninterrupted run. An out-of-core run
//! (`--out-of-core`, `--memory-budget`, `--shard-rows`) also journals
//! each `(rule, shard)` unit as it finishes, so a process that is
//! killed outright resumes mid-rule the same way. `--watchdog-ms N`
//! (parallel mode) arms a per-operation stream watchdog so a genuinely
//! wedged device op surfaces as a stream timeout and flows through the
//! normal retry/fallback machinery instead of hanging the run.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | clean: no violations, no degradation |
//! | 1    | violations found (the check itself completed) |
//! | 2    | hard error: bad usage, unreadable layout/deck, I/O failure |
//! | 3    | degraded but complete: no violations, but some device work |
//! |      | was retried or recomputed on the host (see `--fault-seed`) |
//! | 4    | interrupted: signal or deadline stopped the run before all |
//! |      | rules finished (checkpoint saved if `--checkpoint-dir`)    |
//!
//! Violations take precedence over degradation: a degraded run that
//! found violations exits 1 (the summary still reports the retries).
//! Interruption takes precedence over both — a partial result is not a
//! verdict.
//!
//! # Fault injection
//!
//! `--fault-seed N` (parallel mode) installs a deterministic fault
//! schedule derived from seed `N` on the simulated device — injected
//! OOMs, kernel panics, transfer failures, and stream stalls — to
//! exercise the retry/fallback machinery reproducibly. `--device-budget
//! BYTES` bounds the stream-ordered allocator, making genuine OOM
//! degradation observable on real layouts.

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use odrc::{
    parse_deck, CheckReport, CheckpointJournal, Engine, ResultCache, RuleDeck, RunKey, CACHE_FILE,
};
use odrc_db::Layout;
use odrc_infra::{install_signal_handlers, CancelToken};
use odrc_serve::proto::job_exit_code;
use odrc_xpu::{Device, Fault, FaultPlan};

/// Faults drawn from `--fault-seed` (kept fixed so a seed alone
/// reproduces the schedule).
const FAULTS_PER_SEED: usize = 8;

struct Args {
    layout: String,
    old_layout: Option<String>,
    rules: String,
    parallel: bool,
    max_print: usize,
    report: Option<String>,
    markers: Option<String>,
    cache: Option<String>,
    stats_json: Option<String>,
    fault_seed: Option<u64>,
    device_budget: Option<usize>,
    host_threads: Option<usize>,
    deadline_secs: Option<f64>,
    checkpoint_dir: Option<String>,
    resume: bool,
    watchdog_ms: Option<u64>,
    memory_budget: Option<u64>,
    shard_rows: Option<usize>,
    out_of_core: bool,
    /// Hidden chaos switch: abort after the Nth shard is journaled.
    chaos_kill_at_shard: Option<u64>,
}

/// What a completed run reports back to `main` for the exit code.
struct Outcome {
    violations: usize,
    degraded: bool,
    interrupted: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: odrc <layout.gds> --rules <deck.rules> [--parallel] [--max-print N] \
         [--cache dir] [--stats-json out.json] [--report out.csv] [--markers out.gds] \
         [--device-budget BYTES] [--fault-seed N] [--host-threads N] [--deadline SECS] \
         [--checkpoint-dir dir] [--resume dir] [--watchdog-ms N] \
         [--out-of-core] [--memory-budget BYTES] [--shard-rows N]\n\
         \u{20}      odrc diff <old.gds> <new.gds> --rules <deck.rules> [--parallel] \
         [--cache dir] [--max-print N] [--host-threads N]\n\
         \u{20}      odrc serve --help   (the check daemon's flags)\n\
         \u{20}      odrc client --help  (the daemon's command-line front end)\n\
         exit codes: 0 clean, 1 violations found, 2 hard error, 3 degraded but clean, \
         4 interrupted (signal or deadline; checkpoint saved if --checkpoint-dir)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut positional: Vec<String> = Vec::new();
    let mut rules = None;
    let mut parallel = false;
    let mut max_print = 20usize;
    let mut report = None;
    let mut markers = None;
    let mut cache = None;
    let mut stats_json = None;
    let mut fault_seed = None;
    let mut device_budget = None;
    let mut host_threads = None;
    let mut deadline_secs = None;
    let mut checkpoint_dir = None;
    let mut resume = false;
    let mut watchdog_ms = None;
    let mut memory_budget = None;
    let mut shard_rows = None;
    let mut out_of_core = false;
    let mut chaos_kill_at_shard = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let diff_mode = argv.first().is_some_and(|a| a == "diff");
    let mut i = usize::from(diff_mode);
    while i < argv.len() {
        match argv[i].as_str() {
            "--rules" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                rules = Some(argv[i + 1].clone());
                i += 2;
            }
            "--parallel" => {
                parallel = true;
                i += 1;
            }
            "--report" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                report = Some(argv[i + 1].clone());
                i += 2;
            }
            "--markers" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                markers = Some(argv[i + 1].clone());
                i += 2;
            }
            "--cache" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                cache = Some(argv[i + 1].clone());
                i += 2;
            }
            "--stats-json" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                stats_json = Some(argv[i + 1].clone());
                i += 2;
            }
            "--max-print" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                max_print = argv[i + 1].parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--fault-seed" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                fault_seed = Some(argv[i + 1].parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--device-budget" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                device_budget = Some(argv[i + 1].parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--host-threads" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                let n: usize = argv[i + 1].parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                host_threads = Some(n);
                i += 2;
            }
            "--deadline" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                let secs: f64 = argv[i + 1].parse().unwrap_or_else(|_| usage());
                if !secs.is_finite() || secs < 0.0 {
                    usage();
                }
                deadline_secs = Some(secs);
                i += 2;
            }
            "--checkpoint-dir" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                checkpoint_dir = Some(argv[i + 1].clone());
                i += 2;
            }
            "--resume" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                checkpoint_dir = Some(argv[i + 1].clone());
                resume = true;
                i += 2;
            }
            "--watchdog-ms" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                let ms: u64 = argv[i + 1].parse().unwrap_or_else(|_| usage());
                if ms == 0 {
                    usage();
                }
                watchdog_ms = Some(ms);
                i += 2;
            }
            "--memory-budget" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                memory_budget = Some(argv[i + 1].parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--shard-rows" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                let n: usize = argv[i + 1].parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                shard_rows = Some(n);
                i += 2;
            }
            "--out-of-core" => {
                out_of_core = true;
                i += 1;
            }
            // Hidden chaos switch (testing): abort right after the Kth
            // shard of the run is journaled.
            "--chaos-kill-at-shard" => {
                if i + 1 >= argv.len() {
                    usage();
                }
                chaos_kill_at_shard = Some(argv[i + 1].parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => {
                positional.push(other.to_owned());
                i += 1;
            }
            _ => usage(),
        }
    }
    let Some(rules) = rules else { usage() };
    let (layout, old_layout) = match (diff_mode, positional.len()) {
        (false, 1) => (positional.pop().unwrap(), None),
        (true, 2) => {
            let new = positional.pop().unwrap();
            (new, positional.pop())
        }
        _ => usage(),
    };
    Args {
        layout,
        old_layout,
        rules,
        parallel,
        max_print,
        report,
        markers,
        cache,
        stats_json,
        fault_seed,
        device_budget,
        host_threads,
        deadline_secs,
        checkpoint_dir,
        resume,
        watchdog_ms,
        memory_budget,
        shard_rows,
        out_of_core,
        chaos_kill_at_shard,
    }
}

/// Writes the violations as CSV: rule, kind, x0, y0, x1, y1, measured.
fn write_report(path: &str, violations: &[odrc::Violation]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "rule,kind,x0,y0,x1,y1,measured")?;
    for v in violations {
        writeln!(
            f,
            "{},{},{},{},{},{},{}",
            v.rule,
            v.kind,
            v.location.lo().x,
            v.location.lo().y,
            v.location.hi().x,
            v.location.hi().y,
            v.measured
        )?;
    }
    Ok(())
}

/// Writes the run summary as JSON: the engine counters of
/// [`odrc_serve::wire::stats_to_json`] (the list a served job reports) plus
/// the run-level keys. The file is written atomically (temp + rename),
/// so an interrupted run — the case where the stats matter most —
/// never leaves a torn JSON behind.
fn write_stats_json(path: &str, report: &CheckReport) -> std::io::Result<()> {
    use odrc_serve::json::Value;
    let ms = |d: Duration| Value::Float(d.as_secs_f64() * 1e3);
    let mut doc = match odrc_serve::wire::stats_to_json(&report.stats) {
        Value::Object(pairs) => pairs,
        _ => unreachable!("stats_to_json returns an object"),
    };
    let rule_status = report
        .rule_status
        .iter()
        .map(|(name, st)| (name.clone(), Value::from(st.to_string())))
        .collect();
    let phases_ms = report
        .profile
        .phases()
        .iter()
        .map(|(name, d)| (name.clone(), ms(*d)))
        .collect();
    doc.extend(
        [
            ("violations", Value::from(report.violations.len())),
            (
                "peak_rss_bytes",
                odrc_infra::peak_rss_bytes().map_or(Value::Null, Value::from),
            ),
            (
                "interrupted",
                report
                    .interrupted
                    .map_or(Value::Null, |reason| Value::from(reason.to_string())),
            ),
            ("rule_status", Value::Object(rule_status)),
            ("total_ms", ms(report.profile.total())),
            ("phases_ms", Value::Object(phases_ms)),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    odrc_infra::write_atomic(Path::new(path), Value::Object(doc).to_json().as_bytes())
}

/// The one way a GDSII file becomes a [`Layout`] here (check and both
/// sides of `diff`, in-core or out-of-core alike): records stream from
/// the file into the layout database, and the line reports what that
/// cost.
fn load_layout(path: &str) -> Result<Layout, Box<dyn std::error::Error>> {
    let started = Instant::now();
    let file = std::fs::File::open(path).map_err(odrc_gdsii::ReadError::Io)?;
    let layout = Layout::from_gds(file)?;
    let peak = odrc_infra::peak_rss_bytes().map_or_else(String::new, |b| {
        format!(", peak RSS {:.1} MB", b as f64 / 1e6)
    });
    eprintln!(
        "loaded layout from {path} in {:.0} ms{peak}:\n{}",
        started.elapsed().as_secs_f64() * 1e3,
        layout.stats()
    );
    Ok(layout)
}

fn load_cache(dir: &str) -> ResultCache {
    let cache = ResultCache::load_or_cold(&Path::new(dir).join(CACHE_FILE));
    if !cache.is_empty() {
        eprintln!("loaded {} cached results from {dir}", cache.len());
    }
    cache
}

/// Merge-on-save under the sidecar's file lock: a concurrent run (or
/// a draining `odrc serve` sharing the directory) loses nothing.
fn save_cache(dir: &str, cache: &ResultCache) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    cache.save_merged(&Path::new(dir).join(CACHE_FILE))?;
    eprintln!("saved {} cached results to {dir}", cache.len());
    Ok(())
}

fn print_summary(report: &CheckReport, deck: &RuleDeck, max_print: usize) {
    for rule in deck.rules() {
        let n = report.violations_of(&rule.name).count();
        println!("{:<20} {:>8}", rule.name, n);
    }
    println!("{:<20} {:>8}", "total", report.violations.len());
    for v in report.violations.iter().take(max_print) {
        println!("  {v}");
    }
    if report.violations.len() > max_print {
        println!("  ... and {} more", report.violations.len() - max_print);
    }
}

fn print_stats(stats: &odrc::EngineStats) {
    let (joined, join_scanned) = (stats.join_candidates, stats.join_scanned);
    let (pairs, pairs_scanned) = (stats.candidate_pairs, stats.pairs_scanned);
    eprintln!(
        "checks computed: {}, reused: {}, candidate pairs: {pairs}, scanned: {pairs_scanned}, \
         rows: {}; join candidates: {joined}, scanned: {join_scanned}",
        stats.checks_computed, stats.checks_reused, stats.rows
    );
    let scanned = stats.scene_objects_scanned;
    let packed = stats.edges_packed;
    eprintln!(
        "scenes built: {}, reused: {}; uploads elided: {}, bytes uploaded: {}; \
         scene objects scanned: {scanned}; edges packed: {packed}",
        stats.scenes_built, stats.scenes_reused, stats.uploads_elided, stats.bytes_uploaded
    );
    if stats.host_tasks > 0 {
        eprintln!(
            "host executor: {} task(s) fanned out, {} pool join(s)",
            stats.host_tasks, stats.host_steals
        );
    }
    if stats.launches_fused > 0 || stats.worker_wakeups > 0 {
        eprintln!(
            "dispatch: {} launch(es) fused, {} pool join(s)",
            stats.launches_fused, stats.worker_wakeups
        );
    }
    if stats.degraded() {
        eprintln!(
            "degraded: device work retried {} time(s), {} unit(s) recomputed on the host \
             (results are complete and exact)",
            stats.device_retries, stats.device_fallbacks
        );
    }
    if stats.shards_checked > 0 || stats.shards_resumed > 0 {
        eprintln!(
            "out-of-core: {} shard(s) checked, {} built, {} evicted, {} resumed, {} degraded",
            stats.shards_checked,
            stats.shards_built,
            stats.shards_evicted,
            stats.shards_resumed,
            stats.shards_degraded
        );
    }
}

/// Opens the checkpoint journal for `--checkpoint-dir`/`--resume`. A
/// plain `--checkpoint-dir` starts fresh (any previous journal in the
/// directory is discarded); `--resume` keeps it so completed rules are
/// restored.
fn open_journal(
    args: &Args,
    layout: &Layout,
    deck: &RuleDeck,
) -> Result<Option<CheckpointJournal>, Box<dyn std::error::Error>> {
    let Some(dir) = &args.checkpoint_dir else {
        return Ok(None);
    };
    let dir = Path::new(dir);
    if !args.resume {
        match std::fs::remove_file(dir.join(odrc::JOURNAL_FILE)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    let journal = CheckpointJournal::open_dir(dir, RunKey::compute(layout, deck))?;
    if args.resume && !journal.is_empty() {
        eprintln!(
            "resuming: {} rule(s) already journaled in {}",
            journal.len(),
            dir.display()
        );
    }
    Ok(Some(journal))
}

/// The default mode: check one layout.
fn run_check(
    args: &Args,
    engine: &Engine,
    deck: &RuleDeck,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let layout = load_layout(&args.layout)?;
    let mut journal = open_journal(args, &layout, deck)?;
    let report = match &args.cache {
        Some(dir) => {
            let mut cache = load_cache(dir);
            let report = engine.check_resumable(&layout, deck, Some(&mut cache), journal.as_mut());
            save_cache(dir, &cache)?;
            report
        }
        None => engine.check_resumable(&layout, deck, None, journal.as_mut()),
    };
    print_summary(&report, deck, args.max_print);
    if let Some(path) = &args.report {
        write_report(path, &report.violations)?;
        eprintln!("wrote {} violations to {path}", report.violations.len());
    }
    if let Some(path) = &args.markers {
        // Markers on a layer beyond the BEOL stack, KLayout-style.
        let lib = odrc::markers::marker_library(&report.violations, 10_000);
        odrc_gdsii::write_file(&lib, path)?;
        eprintln!("wrote marker GDSII to {path}");
    }
    if let Some(path) = &args.stats_json {
        write_stats_json(path, &report)?;
        eprintln!("wrote stats to {path}");
    }
    eprintln!("\n{}", report.profile);
    print_stats(&report.stats);
    if report.stats.rules_resumed > 0 || report.stats.shards_resumed > 0 {
        eprintln!(
            "resumed {} rule(s) and {} shard(s) from the checkpoint journal",
            report.stats.rules_resumed, report.stats.shards_resumed
        );
    }
    if let Some(reason) = &report.interrupted {
        eprintln!("\nrun interrupted ({reason}); per-rule status:");
        for (name, st) in &report.rule_status {
            eprintln!("  {name:<20} {st}");
        }
        if let Some(j) = &journal {
            eprintln!(
                "checkpoint saved: {} completed rule(s) in {}; \
                 rerun with --resume to finish",
                j.len(),
                j.path().display()
            );
        } else {
            eprintln!("no --checkpoint-dir: completed rules were not journaled");
        }
    }
    Ok(Outcome {
        violations: report.violations.len(),
        degraded: report.stats.degraded(),
        interrupted: report.interrupted.is_some(),
    })
}

/// The diff mode: check `old`, delta-check `new` against it, print
/// what the edit changed. Counts *added* violations for the exit code.
fn run_diff(
    args: &Args,
    engine: &Engine,
    deck: &RuleDeck,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let old_path = args
        .old_layout
        .as_deref()
        .expect("diff mode has two layouts");
    let old = load_layout(old_path)?;
    let new = load_layout(&args.layout)?;

    let mut cache = match &args.cache {
        Some(dir) => load_cache(dir),
        None => ResultCache::new(),
    };
    let base = engine.check_with_cache(&old, deck, &mut cache);
    let report = engine.check_delta_with_cache(&old, &base.violations, &new, deck, &mut cache);
    if let Some(dir) = &args.cache {
        save_cache(dir, &cache)?;
    }

    println!(
        "baseline {}: {} violations",
        old_path,
        base.violations.len()
    );
    println!(
        "delta    {}: +{} -{} ({} unchanged, {} dirty rects)",
        args.layout,
        report.delta.added.len(),
        report.delta.removed.len(),
        report.delta.unchanged_count,
        report.dirty.len()
    );
    for v in report.delta.added.iter().take(args.max_print) {
        println!("  + {v}");
    }
    if report.delta.added.len() > args.max_print {
        println!(
            "  ... and {} more",
            report.delta.added.len() - args.max_print
        );
    }
    for v in report.delta.removed.iter().take(args.max_print) {
        println!("  - {v}");
    }
    if report.delta.removed.len() > args.max_print {
        println!(
            "  ... and {} more",
            report.delta.removed.len() - args.max_print
        );
    }
    eprintln!("\n{}", report.profile);
    print_stats(&report.stats);
    Ok(Outcome {
        violations: report.delta.added.len(),
        degraded: base.stats.degraded() || report.stats.degraded(),
        interrupted: false,
    })
}

fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let deck_text = std::fs::read_to_string(&args.rules)?;
    let deck = parse_deck(&deck_text)?;
    eprintln!("loaded {} rules from {}", deck.rules().len(), args.rules);

    let options = odrc::EngineOptions {
        host_threads: args.host_threads,
        memory_budget: args.memory_budget,
        out_of_core: args.out_of_core,
        shard_rows: args.shard_rows,
        ..odrc::EngineOptions::default()
    };
    // One fault schedule per run: the seeded device faults (--parallel
    // only) plus the chaos kill, a one-shot fault like any other.
    let mut faults = FaultPlan::new();
    if let (true, Some(seed)) = (args.parallel, args.fault_seed) {
        faults = FaultPlan::from_seed(seed, FAULTS_PER_SEED);
        eprintln!("fault injection on: seed {seed}, {FAULTS_PER_SEED} scheduled faults");
    }
    if let Some(k) = args.chaos_kill_at_shard {
        faults = faults.with(Fault::ShardKill {
            nth: k.saturating_sub(1),
        });
    }
    let mut engine = if args.parallel {
        let workers = odrc_infra::available_threads();
        let device = match args.device_budget {
            Some(bytes) => Device::with_budget(workers, bytes),
            None => Device::new(workers),
        };
        if let Some(ms) = args.watchdog_ms {
            device.set_watchdog(Some(Duration::from_millis(ms)));
            eprintln!("stream watchdog armed: {ms} ms per operation");
        }
        Engine::parallel_on(device).with_options(options)
    } else {
        if args.fault_seed.is_some() || args.device_budget.is_some() || args.watchdog_ms.is_some() {
            eprintln!(
                "note: --fault-seed/--device-budget/--watchdog-ms only apply to --parallel runs"
            );
        }
        Engine::sequential().with_options(options)
    };
    if !faults.is_empty() {
        engine.device().set_fault_plan(Some(faults));
    }
    if args.old_layout.is_some() {
        if args.deadline_secs.is_some() || args.checkpoint_dir.is_some() {
            eprintln!("note: --deadline/--checkpoint-dir/--resume only apply to check runs");
        }
        run_diff(args, &engine, &deck)
    } else {
        // Cooperative cancellation: SIGINT/SIGTERM and --deadline all
        // trip one token the engine polls at rule boundaries.
        let token = match args.deadline_secs {
            Some(secs) => CancelToken::with_deadline(Duration::from_secs_f64(secs)),
            None => CancelToken::new(),
        };
        let token = token.linked_to_signals();
        install_signal_handlers();
        engine = engine.with_cancel(token);
        run_check(args, &engine, &deck)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return run_serve(&argv[1..]),
        Some("client") => return run_client(&argv[1..]),
        _ => {}
    }
    let args = parse_args();
    match run(&args) {
        // The daemon's table, so both front ends exit alike.
        Ok(o) => ExitCode::from(job_exit_code(o.interrupted, o.violations, o.degraded) as u8),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// `odrc serve` — the multi-tenant check daemon.
// ---------------------------------------------------------------------------

fn usage_serve() -> ! {
    eprintln!(
        "usage: odrc serve [--addr HOST:PORT] [--workers N] [--host-threads N] \
         [--max-queue N] [--cache dir] [--device-budget BYTES] [--device-workers N] \
         [--port-file path] [--checkpoint-dir dir] [--io-timeout-ms N] \
         [--ping-max-misses N] [--session-idle-ms N] [--max-sessions N] \
         [--chaos-seed N] [--chaos-faults N] [--chaos-kill-at-rule N]\n\
         binds (port 0 = ephemeral), prints `listening on ADDR`, and serves until \
         SIGINT/SIGTERM or a `shutdown` verb, then drains in-flight jobs and \
         persists the shared cache tier\n\
         --checkpoint-dir makes keyed `check` submissions durable: admissions and \
         results are journaled there, and a restarted server replays the journal, \
         resuming interrupted jobs at the rule boundary\n\
         --chaos-* arm seeded fault injection (testing only)"
    );
    std::process::exit(2);
}

fn run_serve(argv: &[String]) -> ExitCode {
    let mut config = odrc_serve::ServerConfig::default();
    let mut port_file: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_faults: usize = 3;
    let mut chaos_kill_at_rule: Option<u64> = None;
    let mut i = 0;
    let value = |argv: &[String], i: usize| -> String {
        if i + 1 >= argv.len() {
            usage_serve();
        }
        argv[i + 1].clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => config.addr = value(argv, i),
            "--workers" => {
                config.workers = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--host-threads" => {
                let n: usize = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
                if n == 0 {
                    usage_serve();
                }
                config.host_threads = n;
            }
            "--max-queue" => {
                config.max_queue = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--cache" => config.cache_dir = Some(value(argv, i).into()),
            "--device-budget" => {
                config.device_budget =
                    Some(value(argv, i).parse().unwrap_or_else(|_| usage_serve()));
            }
            "--device-workers" => {
                config.device_workers = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--port-file" => port_file = Some(value(argv, i)),
            "--checkpoint-dir" => config.checkpoint_dir = Some(value(argv, i).into()),
            "--io-timeout-ms" => {
                config.io_timeout_ms = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--ping-max-misses" => {
                config.ping_max_misses = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--session-idle-ms" => {
                config.session_idle_ms = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--max-sessions" => {
                config.max_sessions = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--chaos-seed" => {
                chaos_seed = Some(value(argv, i).parse().unwrap_or_else(|_| usage_serve()));
            }
            "--chaos-faults" => {
                chaos_faults = value(argv, i).parse().unwrap_or_else(|_| usage_serve());
            }
            "--chaos-kill-at-rule" => {
                chaos_kill_at_rule = Some(value(argv, i).parse().unwrap_or_else(|_| usage_serve()));
            }
            _ => usage_serve(),
        }
        i += 2;
    }
    if chaos_seed.is_some() || chaos_kill_at_rule.is_some() {
        let mut plan = match chaos_seed {
            Some(seed) => odrc_serve::ServerFaultPlan::from_seed(seed, chaos_faults),
            None => odrc_serve::ServerFaultPlan::new(),
        };
        if let Some(nth) = chaos_kill_at_rule {
            plan = plan.with(odrc_serve::ServerFault::KillAtRule { nth });
        }
        eprintln!("chaos armed: {} fault(s) scheduled", plan.len());
        config.chaos = Some(plan);
    }

    let server = match odrc_serve::Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::from(2);
        }
    };
    // SIGINT/SIGTERM set the signal flag the server's drain token is
    // linked to: the daemon stops accepting, finishes in-flight jobs,
    // and persists the cache tier before exiting.
    install_signal_handlers();
    let addr = server.addr();
    println!("odrc serve listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            eprintln!("error: cannot write --port-file {path}: {e}");
            return ExitCode::from(2);
        }
    }
    match server.run() {
        Ok(summary) => {
            eprintln!(
                "drained: {} job(s) completed over this lifetime; cache tier holds \
                 {} entr(ies), served {} shared hit(s)",
                summary.jobs_completed, summary.cache_entries, summary.cache_hits_shared
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// `odrc client` — the command-line front end to a running daemon.
// ---------------------------------------------------------------------------

fn usage_client() -> ! {
    eprintln!(
        "usage: odrc client <layout.gds> --rules <deck.rules> --addr HOST:PORT \
         [--parallel] [--priority N] [--deadline-ms N] [--edits ops.jsonl] \
         [--report out.csv] [--stats-json out.json] [--max-print N] [--shutdown] \
         [--key ID] [--retries N] [--backoff-ms N] [--backoff-cap-ms N]\n\
         \u{20}      odrc client --addr HOST:PORT --shutdown\n\
         --key marks the check idempotent: resubmitting the same key (after a \
         dropped connection or a server restart) replays the journaled result or \
         attaches to the running job instead of checking twice; retries reconnect \
         with capped exponential backoff, honouring server retry_after_ms hints\n\
         exit codes match the one-shot checker: 0 clean, 1 violations, 2 hard error, \
         3 degraded but clean, 4 interrupted (cancel, deadline, or server drain)"
    );
    std::process::exit(2);
}

struct ClientArgs {
    addr: Option<String>,
    layout: Option<String>,
    rules: Option<String>,
    parallel: bool,
    priority: i64,
    deadline_ms: Option<u64>,
    edits: Option<String>,
    report: Option<String>,
    stats_json: Option<String>,
    max_print: usize,
    shutdown: bool,
    key: Option<String>,
    retries: u32,
    backoff_ms: u64,
    backoff_cap_ms: u64,
}

fn parse_client_args(argv: &[String]) -> ClientArgs {
    let mut args = ClientArgs {
        addr: None,
        layout: None,
        rules: None,
        parallel: false,
        priority: 0,
        deadline_ms: None,
        edits: None,
        report: None,
        stats_json: None,
        max_print: 20,
        shutdown: false,
        key: None,
        retries: 1,
        backoff_ms: 200,
        backoff_cap_ms: 5000,
    };
    let value = |argv: &[String], i: usize| -> String {
        if i + 1 >= argv.len() {
            usage_client();
        }
        argv[i + 1].clone()
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => {
                args.addr = Some(value(argv, i));
                i += 2;
            }
            "--rules" => {
                args.rules = Some(value(argv, i));
                i += 2;
            }
            "--parallel" => {
                args.parallel = true;
                i += 1;
            }
            "--priority" => {
                args.priority = value(argv, i).parse().unwrap_or_else(|_| usage_client());
                i += 2;
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(value(argv, i).parse().unwrap_or_else(|_| usage_client()));
                i += 2;
            }
            "--edits" => {
                args.edits = Some(value(argv, i));
                i += 2;
            }
            "--report" => {
                args.report = Some(value(argv, i));
                i += 2;
            }
            "--stats-json" => {
                args.stats_json = Some(value(argv, i));
                i += 2;
            }
            "--max-print" => {
                args.max_print = value(argv, i).parse().unwrap_or_else(|_| usage_client());
                i += 2;
            }
            "--shutdown" => {
                args.shutdown = true;
                i += 1;
            }
            "--key" => {
                args.key = Some(value(argv, i));
                i += 2;
            }
            "--retries" => {
                args.retries = value(argv, i).parse().unwrap_or_else(|_| usage_client());
                i += 2;
            }
            "--backoff-ms" => {
                args.backoff_ms = value(argv, i).parse().unwrap_or_else(|_| usage_client());
                i += 2;
            }
            "--backoff-cap-ms" => {
                args.backoff_cap_ms = value(argv, i).parse().unwrap_or_else(|_| usage_client());
                i += 2;
            }
            "--help" | "-h" => usage_client(),
            other if !other.starts_with('-') && args.layout.is_none() => {
                args.layout = Some(other.to_owned());
                i += 1;
            }
            _ => usage_client(),
        }
    }
    if args.addr.is_none() || (args.layout.is_none() && !args.shutdown) {
        usage_client();
    }
    if args.layout.is_some() && args.rules.is_none() {
        usage_client();
    }
    args
}

fn run_client(argv: &[String]) -> ExitCode {
    let args = parse_client_args(argv);
    match client_main(&args) {
        Ok(exit) => ExitCode::from(u8::try_from(exit).unwrap_or(2)),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Everything one attempt needs, loaded once — a local file error is
/// not worth a reconnect loop.
struct ClientInputs {
    gds: Vec<u8>,
    rules: String,
    edit_ops: Vec<odrc_serve::json::Value>,
}

fn client_main(args: &ClientArgs) -> Result<i64, Box<dyn std::error::Error>> {
    let addr = args.addr.as_deref().expect("checked by parse_client_args");
    let inputs = match &args.layout {
        Some(layout) => {
            let rules_path = args.rules.as_deref().expect("checked by parse_client_args");
            let edit_ops = match &args.edits {
                Some(path) => std::fs::read_to_string(path)?
                    .lines()
                    .filter(|l| !l.trim().is_empty())
                    .map(odrc_serve::json::parse)
                    .collect::<Result<Vec<_>, _>>()?,
                None => Vec::new(),
            };
            Some(ClientInputs {
                gds: std::fs::read(layout)?,
                rules: std::fs::read_to_string(rules_path)?,
                edit_ops,
            })
        }
        None => None,
    };
    // Each attempt redoes the whole unit of work: connect, open,
    // resubmit, wait. With --key the redo is free — the server
    // replays the journaled result or attaches to the running job.
    let policy = odrc_serve::RetryPolicy {
        attempts: args.retries.max(1),
        base_ms: args.backoff_ms,
        cap_ms: args.backoff_cap_ms,
    };
    let exit = policy.run(|attempt| {
        if attempt > 0 {
            eprintln!(
                "reconnecting to {addr} (attempt {}/{})",
                attempt + 1,
                args.retries.max(1)
            );
        }
        client_attempt(args, addr, inputs.as_ref())
    })?;
    Ok(exit)
}

fn client_attempt(
    args: &ClientArgs,
    addr: &str,
    inputs: Option<&ClientInputs>,
) -> Result<i64, odrc_serve::ClientError> {
    use odrc_serve::json::{obj, Value};

    let mut client = odrc_serve::Client::connect(addr)?;

    let mut exit = 0i64;
    if let Some(inputs) = inputs {
        let mode = if args.parallel {
            "parallel"
        } else {
            "sequential"
        };
        let session = client.open_bytes(&inputs.gds, &inputs.rules, mode)?;
        eprintln!("opened session {session} on {addr} ({mode})");

        if let Some(path) = &args.edits {
            let applied = client.edit(session, inputs.edit_ops.clone())?;
            eprintln!("applied {applied} edit op(s) from {path}");
        }

        let job = client.check_with_key(
            session,
            args.priority,
            args.deadline_ms,
            args.key.as_deref(),
        )?;
        // A terminal `error` event (internal failure, shed under
        // overload) becomes a ClientError here so the retry policy
        // sees its code and backoff hint.
        let outcome = client.wait(job)?.into_result()?;
        exit = outcome.exit;

        println!("{:<20} {:>8}", "total", outcome.violations.len());
        for v in outcome.violations.iter().take(args.max_print) {
            println!("  {}", v.to_csv_row());
        }
        if outcome.violations.len() > args.max_print {
            println!(
                "  ... and {} more",
                outcome.violations.len() - args.max_print
            );
        }
        eprintln!(
            "job {}: exit {}, {} rule(s) reported, {} shared cache hit(s), \
             queued {} ms",
            outcome.job,
            outcome.exit,
            outcome.rules.len(),
            outcome.stat("cache_hits_shared"),
            outcome.stat("queue_wait_ms"),
        );
        if let Some(reason) = &outcome.interrupted {
            eprintln!("run interrupted ({reason}); results are partial");
        }

        if let Some(path) = &args.report {
            odrc_infra::write_atomic(Path::new(path), outcome.report_csv().as_bytes())?;
            eprintln!("wrote {} violations to {path}", outcome.violations.len());
        }
        if let Some(path) = &args.stats_json {
            // Per-job engine counters (including cache_hits_shared and
            // queue_wait_ms) plus the server-wide admission counters
            // from the `stats` verb and the liveness snapshot from
            // `health`.
            let strip_ok = |v: Value| match v {
                Value::Object(pairs) => {
                    Value::Object(pairs.into_iter().filter(|(k, _)| k != "ok").collect())
                }
                other => other,
            };
            let server = strip_ok(client.stats()?);
            let health = strip_ok(client.health()?);
            let doc = obj([
                ("job", Value::from(outcome.job)),
                ("exit", Value::Int(outcome.exit)),
                ("violations", Value::from(outcome.violations.len())),
                (
                    "interrupted",
                    match &outcome.interrupted {
                        Some(reason) => Value::from(reason.as_str()),
                        None => Value::Null,
                    },
                ),
                ("full_run", Value::Bool(outcome.full_run)),
                ("stats", outcome.stats.clone()),
                ("server", server),
                ("health", health),
            ]);
            odrc_infra::write_atomic(Path::new(path), doc.to_json().as_bytes())?;
            eprintln!("wrote stats to {path}");
        }
        client.close(session)?;
    }

    if args.shutdown {
        client.shutdown()?;
        eprintln!("asked {addr} to drain and exit");
    }
    Ok(exit)
}
