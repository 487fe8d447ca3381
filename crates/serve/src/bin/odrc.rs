//! The `odrc` command-line checker: one binary with four entry points.
//! `odrc --help`, `odrc diff --help`, `odrc serve --help` and
//! `odrc client --help` list each one's flags; every list is generated
//! from the flag table that parses that command line.
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
//! (`--memory-budget`, `--shard-rows`) also journals each
//! `(rule, shard)` unit as it finishes, so a process that is killed
//! outright resumes mid-rule the same way. `--watchdog-ms N`
//! (parallel mode) arms a per-operation stream watchdog: a device op
//! that starts more than N ms late fails its stream with a stream
//! timeout and flows through the normal retry/host-fallback machinery.
//! A running op is not interrupted.
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

use std::num::{NonZeroU64, NonZeroUsize};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

use odrc::{
    parse_deck, CheckReport, CheckpointJournal, Engine, ResultCache, RuleDeck, RunKey, CACHE_FILE,
};
use odrc_db::Layout;
use odrc_infra::{install_signal_handlers, CancelToken};
use odrc_serve::proto::job_exit_code;
use odrc_serve::{ServerConfig, ServerFault, ServerFaultPlan};
use odrc_xpu::{Device, Fault, FaultPlan};

/// Faults drawn from `--fault-seed` (kept fixed so a seed alone
/// reproduces the schedule).
const FAULTS_PER_SEED: usize = 8;

/// Server faults drawn from `serve --chaos-seed`, fixed for the same
/// reason.
const CHAOS_FAULTS_PER_SEED: usize = 4;

// ---------------------------------------------------------------------------
// The flag tables: one per entry point. A table both parses its command
// line and generates its usage text, so the two cannot drift.
// ---------------------------------------------------------------------------

/// What a flag takes from the command line.
enum Arity<A> {
    /// Nothing: the flag is a switch.
    Switch(fn(&mut A)),
    /// The next word, named by the placeholder in the usage text. The
    /// setter returns `None` to reject the word.
    Arg(&'static str, fn(&mut A, &str) -> Option<()>),
}

use Arity::{Arg, Switch};

/// One row of a flag table: the flag, what it takes, its one-line help.
type Flag<A> = (&'static str, Arity<A>, &'static str);

/// One entry point's command line.
struct Command<A: 'static> {
    /// What follows `usage: `.
    synopsis: &'static str,
    flags: &'static [Flag<A>],
    /// Printed after the flag list.
    notes: &'static str,
}

/// Parses `v` into `slot`; `None` rejects it.
fn set<T: FromStr>(slot: &mut T, v: &str) -> Option<()> {
    v.parse().ok().map(|x| *slot = x)
}

/// [`set`] for a setting that is absent by default.
fn set_some<T: FromStr>(slot: &mut Option<T>, v: &str) -> Option<()> {
    v.parse().ok().map(|x| *slot = Some(x))
}

/// Parses `argv` with `cmd`'s table into `args` and returns the words
/// that are not flags. An unknown flag, a missing value or a value the
/// setter rejects exits 2 with the usage text.
fn parse<A>(cmd: &Command<A>, argv: &[String], mut args: A) -> (A, Vec<String>) {
    let mut positional = Vec::new();
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        if !word.starts_with('-') {
            positional.push(word.clone());
            continue;
        }
        match cmd.flags.iter().find(|(name, ..)| name == word) {
            Some((_, Switch(apply), _)) => apply(&mut args),
            Some((_, Arg(_, apply), _)) => {
                if words.next().and_then(|v| apply(&mut args, v)).is_none() {
                    usage(cmd);
                }
            }
            None => usage(cmd),
        }
    }
    (args, positional)
}

/// Prints `cmd`'s usage text, generated from its table, and exits 2.
fn usage<A>(cmd: &Command<A>) -> ! {
    eprintln!("usage: {}", cmd.synopsis);
    for (name, arity, help) in cmd.flags {
        let flag = match arity {
            Switch(_) => name.to_string(),
            Arg(placeholder, _) => format!("{name} {placeholder}"),
        };
        eprintln!("  {flag:<26} {help}");
    }
    eprintln!("{}", cmd.notes);
    std::process::exit(2);
}

/// The settings of a check or a diff run; `diff`'s table sets a subset.
#[derive(Default)]
struct Args {
    rules: Option<String>,
    parallel: bool,
    max_print: usize,
    report: Option<String>,
    markers: Option<String>,
    cache: Option<String>,
    stats_json: Option<String>,
    host_threads: Option<NonZeroUsize>,
    fault_seed: Option<u64>,
    device_budget: Option<usize>,
    watchdog_ms: Option<NonZeroU64>,
    deadline: Option<Duration>,
    checkpoint_dir: Option<String>,
    resume: bool,
    memory_budget: Option<u64>,
    shard_rows: Option<NonZeroUsize>,
    chaos_kill_at_shard: Option<u64>,
}

#[rustfmt::skip]
const CHECK: Command<Args> = Command {
    synopsis: "odrc <layout.gds> --rules <deck.rules> [flags]",
    flags: &[
        ("--rules", Arg("FILE", |a, v| set_some(&mut a.rules, v)),
            "the rule deck (required)"),
        ("--parallel", Switch(|a| a.parallel = true),
            "check on the simulated GPU"),
        ("--max-print", Arg("N", |a, v| set(&mut a.max_print, v)),
            "violations to print (default 20)"),
        ("--report", Arg("FILE", |a, v| set_some(&mut a.report, v)),
            "write the violations as CSV"),
        ("--markers", Arg("FILE", |a, v| set_some(&mut a.markers, v)),
            "write a GDSII marker per violation"),
        ("--stats-json", Arg("FILE", |a, v| set_some(&mut a.stats_json, v)),
            "write the run's counters as JSON"),
        ("--cache", Arg("DIR", |a, v| set_some(&mut a.cache, v)),
            "keep the per-cell result cache in DIR"),
        ("--host-threads", Arg("N", |a, v| set_some(&mut a.host_threads, v)),
            "host threads (default: all)"),
        ("--fault-seed", Arg("N", |a, v| set_some(&mut a.fault_seed, v)),
            "inject seeded device faults (--parallel)"),
        ("--device-budget", Arg("BYTES", |a, v| set_some(&mut a.device_budget, v)),
            "bound device memory (--parallel)"),
        ("--watchdog-ms", Arg("N", |a, v| set_some(&mut a.watchdog_ms, v)),
            "fail a device op that starts over N ms late (--parallel)"),
        ("--deadline", Arg("SECS", |a, v| {
            Duration::try_from_secs_f64(v.parse().ok()?).ok().map(|d| a.deadline = Some(d))
        }),
            "stop at the first rule boundary after SECS (exit 4)"),
        ("--checkpoint-dir", Arg("DIR", |a, v| set_some(&mut a.checkpoint_dir, v)),
            "journal finished rules in DIR"),
        ("--resume", Arg("DIR", |a, v| { a.resume = true; set_some(&mut a.checkpoint_dir, v) }),
            "restore the rules journaled in DIR, check the rest"),
        ("--memory-budget", Arg("BYTES", |a, v| set_some(&mut a.memory_budget, v)),
            "check out of core, shards within BYTES"),
        ("--shard-rows", Arg("N", |a, v| set_some(&mut a.shard_rows, v)),
            "check out of core, N rows a shard"),
        ("--chaos-kill-at-shard", Arg("K", |a, v| set_some(&mut a.chaos_kill_at_shard, v)),
            "abort after the Kth journaled shard (testing)"),
    ],
    notes: "other entry points: odrc diff --help, odrc serve --help, odrc client --help\n\
            exit codes: 0 clean, 1 violations found, 2 hard error, 3 degraded but clean, \
            4 interrupted (signal or deadline; checkpoint saved if --checkpoint-dir)",
};

#[rustfmt::skip]
const DIFF: Command<Args> = Command {
    synopsis: "odrc diff <old.gds> <new.gds> --rules <deck.rules> [flags]",
    flags: &[
        ("--rules", Arg("FILE", |a, v| set_some(&mut a.rules, v)),
            "the rule deck (required)"),
        ("--parallel", Switch(|a| a.parallel = true),
            "check on the simulated GPU"),
        ("--max-print", Arg("N", |a, v| set(&mut a.max_print, v)),
            "added and removed violations to print (default 20 each)"),
        ("--cache", Arg("DIR", |a, v| set_some(&mut a.cache, v)),
            "keep the per-cell result cache in DIR"),
        ("--host-threads", Arg("N", |a, v| set_some(&mut a.host_threads, v)),
            "host threads (default: all)"),
    ],
    notes: "checks old.gds, delta-checks new.gds against it, and prints the violations the edit \
            added (+) and removed (-)\n\
            exit codes: 0 none added, 1 violations added, 2 hard error, 3 degraded but none added",
};

/// What a completed run reports back to `main` for the exit code.
struct Outcome {
    violations: usize,
    degraded: bool,
    interrupted: bool,
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

/// The run's counters on stderr: `name: value` for each non-zero one,
/// under its `--stats-json` key and in table order, four to a line.
fn print_stats(stats: &odrc::EngineStats) {
    let nonzero: Vec<String> = stats
        .counters(|_| true)
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(name, n)| format!("{name}: {n}"))
        .collect();
    for line in nonzero.chunks(4) {
        eprintln!("{}", line.join(", "));
    }
    if stats.degraded() {
        eprintln!(
            "degraded: device work retried {} time(s), {} launch(es) recomputed on the host \
             (results are complete and exact)",
            stats.device_retries, stats.device_fallbacks
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

/// Parses a check or diff command line, which must name the deck and
/// `N` layouts: returns the settings, the deck path and the layouts.
fn parse_run<const N: usize>(cmd: &Command<Args>, argv: &[String]) -> (Args, String, [String; N]) {
    let defaults = Args {
        max_print: 20,
        ..Args::default()
    };
    let (mut args, paths) = parse(cmd, argv, defaults);
    match (args.rules.take(), <[String; N]>::try_from(paths)) {
        (Some(rules), Ok(paths)) => (args, rules, paths),
        _ => usage(cmd),
    }
}

fn load_deck(path: &str) -> Result<RuleDeck, Box<dyn std::error::Error>> {
    let deck = parse_deck(&std::fs::read_to_string(path)?)?;
    eprintln!("loaded {} rules from {path}", deck.rules().len());
    Ok(deck)
}

/// The engine `args` ask for.
fn build_engine(args: &Args) -> Engine {
    let options = odrc::EngineOptions {
        host_threads: args.host_threads.map(NonZeroUsize::get),
        memory_budget: args.memory_budget,
        shard_rows: args.shard_rows.map(NonZeroUsize::get),
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
    let engine = if args.parallel {
        let workers = odrc_infra::available_threads();
        let device = match args.device_budget {
            Some(bytes) => Device::with_budget(workers, bytes),
            None => Device::new(workers),
        };
        if let Some(ms) = args.watchdog_ms {
            device.set_watchdog(Some(Duration::from_millis(ms.get())));
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
    engine
}

/// The default mode: check one layout.
fn run_check(argv: &[String]) -> Result<Outcome, Box<dyn std::error::Error>> {
    let (args, rules, [layout_path]) = parse_run(&CHECK, argv);
    let deck = load_deck(&rules)?;
    // Cooperative cancellation: SIGINT/SIGTERM and --deadline all
    // trip one token the engine polls at rule boundaries.
    let token = match args.deadline {
        Some(budget) => CancelToken::with_deadline(budget),
        None => CancelToken::new(),
    };
    let engine = build_engine(&args).with_cancel(token.linked_to_signals());
    install_signal_handlers();

    let layout = load_layout(&layout_path)?;
    let mut journal = open_journal(&args, &layout, &deck)?;
    let report = match &args.cache {
        Some(dir) => {
            let mut cache = load_cache(dir);
            let report = engine.check_resumable(&layout, &deck, Some(&mut cache), journal.as_mut());
            save_cache(dir, &cache)?;
            report
        }
        None => engine.check_resumable(&layout, &deck, None, journal.as_mut()),
    };
    print_summary(&report, &deck, args.max_print);
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
fn run_diff(argv: &[String]) -> Result<Outcome, Box<dyn std::error::Error>> {
    let (args, rules, [old_path, new_path]) = parse_run(&DIFF, argv);
    let deck = load_deck(&rules)?;
    let engine = build_engine(&args);
    let old = load_layout(&old_path)?;
    let new = load_layout(&new_path)?;

    let mut cache = match &args.cache {
        Some(dir) => load_cache(dir),
        None => ResultCache::new(),
    };
    let base = engine.check_with_cache(&old, &deck, &mut cache);
    let report = engine.check_delta_with_cache(&old, &base.violations, &new, &deck, &mut cache);
    if let Some(dir) = &args.cache {
        save_cache(dir, &cache)?;
    }

    println!("baseline {old_path}: {} violations", base.violations.len());
    println!(
        "delta    {new_path}: +{} -{} ({} unchanged, {} dirty rects)",
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

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("serve") => return run_serve(&argv[1..]),
        Some("client") => return run_client(&argv[1..]),
        Some("diff") => run_diff(&argv[1..]),
        _ => run_check(&argv),
    };
    match outcome {
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

#[derive(Default)]
struct ServeArgs {
    config: ServerConfig,
    port_file: Option<String>,
    chaos_seed: Option<u64>,
    chaos_kill_at_rule: Option<u64>,
}

#[rustfmt::skip]
const SERVE: Command<ServeArgs> = Command {
    synopsis: "odrc serve [flags]",
    flags: &[
        ("--addr", Arg("HOST:PORT", |a, v| set(&mut a.config.addr, v)),
            "bind address; port 0 picks one (default 127.0.0.1:0)"),
        ("--port-file", Arg("FILE", |a, v| set_some(&mut a.port_file, v)),
            "write the bound address to FILE"),
        ("--workers", Arg("N", |a, v| set(&mut a.config.workers, v)),
            "concurrent job slots"),
        ("--host-threads", Arg("N", |a, v| {
            v.parse().ok().map(|n: NonZeroUsize| a.config.host_threads = n.get())
        }),
            "host threads shared by all jobs"),
        ("--max-queue", Arg("N", |a, v| set(&mut a.config.max_queue, v)),
            "queued jobs before the lowest priority is shed"),
        ("--cache", Arg("DIR", |a, v| set_some(&mut a.config.cache_dir, v)),
            "persist the shared cache tier in DIR"),
        ("--device-budget", Arg("BYTES", |a, v| set_some(&mut a.config.device_budget, v)),
            "bound device memory per parallel session"),
        ("--checkpoint-dir", Arg("DIR", |a, v| set_some(&mut a.config.checkpoint_dir, v)),
            "journal keyed jobs in DIR; a restart resumes them"),
        ("--io-timeout-ms", Arg("N", |a, v| set(&mut a.config.io_timeout_ms, v)),
            "socket timeout, paces heartbeats (0 = none)"),
        ("--ping-max-misses", Arg("N", |a, v| set(&mut a.config.ping_max_misses, v)),
            "unanswered pings before a connection closes"),
        ("--session-idle-ms", Arg("N", |a, v| set(&mut a.config.session_idle_ms, v)),
            "evict a session idle this long"),
        ("--max-sessions", Arg("N", |a, v| set(&mut a.config.max_sessions, v)),
            "open sessions before the stalest is evicted"),
        ("--chaos-seed", Arg("N", |a, v| set_some(&mut a.chaos_seed, v)),
            "inject seeded server faults (testing)"),
        ("--chaos-kill-at-rule", Arg("N", |a, v| set_some(&mut a.chaos_kill_at_rule, v)),
            "abort at the Nth rule boundary (testing)"),
    ],
    notes: "prints `listening on ADDR` and serves until SIGINT/SIGTERM or a client's --shutdown, \
            then drains in-flight jobs and persists the shared cache tier",
};

fn run_serve(argv: &[String]) -> ExitCode {
    let (mut args, positional) = parse(&SERVE, argv, ServeArgs::default());
    if !positional.is_empty() {
        usage(&SERVE);
    }
    if args.chaos_seed.is_some() || args.chaos_kill_at_rule.is_some() {
        let mut plan = match args.chaos_seed {
            Some(seed) => ServerFaultPlan::from_seed(seed, CHAOS_FAULTS_PER_SEED),
            None => ServerFaultPlan::new(),
        };
        if let Some(nth) = args.chaos_kill_at_rule {
            plan = plan.with(ServerFault::KillAtRule { nth });
        }
        eprintln!("chaos armed: {} fault(s) scheduled", plan.len());
        args.config.chaos = Some(plan);
    }

    let server = match odrc_serve::Server::bind(args.config) {
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
    if let Some(path) = &args.port_file {
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

#[derive(Default)]
struct ClientArgs {
    layout: Option<String>,
    addr: Option<String>,
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

#[rustfmt::skip]
const CLIENT: Command<ClientArgs> = Command {
    synopsis: "odrc client <layout.gds> --rules <deck.rules> --addr HOST:PORT [flags]\n\
               \u{20}      odrc client --addr HOST:PORT --shutdown",
    flags: &[
        ("--addr", Arg("HOST:PORT", |a, v| set_some(&mut a.addr, v)),
            "the daemon (required)"),
        ("--rules", Arg("FILE", |a, v| set_some(&mut a.rules, v)),
            "the rule deck (required with a layout)"),
        ("--parallel", Switch(|a| a.parallel = true),
            "check on the simulated GPU"),
        ("--priority", Arg("N", |a, v| set(&mut a.priority, v)),
            "queue priority; a full queue sheds the lowest (default 0)"),
        ("--deadline-ms", Arg("N", |a, v| set_some(&mut a.deadline_ms, v)),
            "interrupt the job after N ms (exit 4)"),
        ("--edits", Arg("FILE", |a, v| set_some(&mut a.edits, v)),
            "apply FILE's JSON edit ops, one a line, first"),
        ("--report", Arg("FILE", |a, v| set_some(&mut a.report, v)),
            "write the violations as CSV"),
        ("--stats-json", Arg("FILE", |a, v| set_some(&mut a.stats_json, v)),
            "write the job's and the daemon's counters as JSON"),
        ("--max-print", Arg("N", |a, v| set(&mut a.max_print, v)),
            "violations to print (default 20)"),
        ("--key", Arg("ID", |a, v| set_some(&mut a.key, v)),
            "idempotency key: a resubmit replays or attaches"),
        ("--retries", Arg("N", |a, v| set(&mut a.retries, v)),
            "attempts, reconnecting with backoff (default 1)"),
        ("--backoff-ms", Arg("N", |a, v| set(&mut a.backoff_ms, v)),
            "first backoff; doubles per attempt (default 200)"),
        ("--backoff-cap-ms", Arg("N", |a, v| set(&mut a.backoff_cap_ms, v)),
            "backoff cap (default 5000)"),
        ("--shutdown", Switch(|a| a.shutdown = true),
            "ask the daemon to drain and exit"),
    ],
    notes: "retries honour the server's retry_after_ms hints; \
            with --key a retry never checks twice\n\
            exit codes match the one-shot checker: 0 clean, 1 violations, 2 hard error, \
            3 degraded but clean, 4 interrupted (cancel, deadline, or server drain)",
};

fn run_client(argv: &[String]) -> ExitCode {
    let defaults = ClientArgs {
        max_print: 20,
        retries: 1,
        backoff_ms: 200,
        backoff_cap_ms: 5000,
        ..ClientArgs::default()
    };
    let (mut args, mut positional) = parse(&CLIENT, argv, defaults);
    args.layout = positional.pop();
    let checks = args.layout.is_some();
    if !positional.is_empty()
        || args.addr.is_none()
        || (checks && args.rules.is_none())
        || !(checks || args.shutdown)
    {
        usage(&CLIENT);
    }
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
    let addr = args.addr.as_deref().expect("checked by run_client");
    let inputs = match &args.layout {
        Some(layout) => {
            let rules_path = args.rules.as_deref().expect("checked by run_client");
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
