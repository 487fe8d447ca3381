//! `odrc-benchmark`: the repo benchmark's harness.
//!
//! ```text
//! odrc-benchmark --odrc <bin> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! odrc-benchmark --odrc <bin> [--seed <n>] [--seconds <s>] [--quick] [--aa]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! one pass, one JSON result line last on stdout. The second runs the
//! whole suite — every workload with tracing off, then each traced —
//! and prints every metric by name; `--aa` does it twice on the same
//! build and compares. `run.sh` builds both binaries and passes
//! `--odrc`. See `README.md` beside this crate.

mod gen;
mod layers;
mod metrics;
mod oneshot;
mod proc;
mod serve;
mod stats;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{
    Outcome, END_TO_END, EXACT_COUNTERS, PER_LAYER, RUN_SECONDS, SERVE_LATENCY_BOUND, WORKLOADS,
};
use trace::Span;

/// Where and how one invocation runs.
pub struct Ctx {
    /// The release `odrc` binary under test.
    pub odrc: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// `tiny` inputs, one repetition: a smoke run, not a measurement.
    pub quick: bool,
    /// Scratch directory of this invocation, removed at the end.
    pub run_dir: PathBuf,
    /// `benchmark/out`: where `trace.json` stays.
    pub out_dir: PathBuf,
    pub golden_dir: PathBuf,
}

struct Args {
    odrc: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
}

fn usage() -> String {
    format!(
        "usage: odrc-benchmark --odrc <bin> [--workload <{}>] [--seed N] [--seconds S] \
         [--trace 0|1] [--quick] [--aa]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        odrc: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        aa: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--odrc" => args.odrc = value()?.into(),
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.odrc.is_file() {
        return Err(format!("--odrc {}: no such binary", args.odrc.display()));
    }
    Ok(args)
}

/// Runs one pass of one workload; the traced pass also returns spans.
fn run_pass(ctx: &Ctx, workload: &str, traced: bool) -> std::io::Result<(Outcome, Vec<Span>)> {
    let (mut outcome, spans) = match (oneshot::Mode::of_workload(workload), traced) {
        (Some(mode), false) => (oneshot::run(ctx, mode)?, Vec::new()),
        (Some(mode), true) => layers::oneshot_pass(ctx, mode)?,
        (None, false) => (serve::run(ctx)?, Vec::new()),
        (None, true) => layers::serve_pass(ctx)?,
    };
    if traced {
        outcome.set("trace.spans", spans.len() as f64, 1);
    }
    Ok((outcome, spans))
}

fn report_failures(workload: &str, outcome: &Outcome) {
    for note in &outcome.notes {
        eprintln!("{workload}: FAILED CHECK: {note}");
    }
}

/// The suite's table: every metric by name, value, unit, sample count
/// and bound.
fn print_outcome(workload: &str, traced: bool, outcome: &Outcome) {
    println!(
        "## {workload} ({}): {} outputs checked, {} failed",
        if traced { "traced pass" } else { "tracing off" },
        outcome.attempted,
        outcome.failed
    );
    let row = |name: &str, value: f64, unit: &str, n: usize, bound: Option<f64>| {
        let bound = bound.map_or(String::new(), |b| format!("  bound {:.0} %", b * 100.0));
        println!("{name:<36} {value:>16.6} {unit:<8} n={n}{bound}");
    };
    let measured = |name: &str| outcome.metrics.get(name).copied().unwrap_or((0.0, 0));
    if traced {
        for (name, unit, _) in PER_LAYER {
            let (value, n) = measured(name);
            row(name, value, unit, n, None);
        }
    } else {
        for (name, unit, _, bound) in END_TO_END {
            let (value, n) = measured(name);
            row(name, value, unit, n, Some(bound));
        }
        for x in &outcome.extra {
            row(
                x.name,
                x.value,
                x.unit,
                x.samples,
                Some(SERVE_LATENCY_BOUND),
            );
        }
        let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        row(
            "failed_share",
            share,
            "ratio",
            outcome.attempted as usize,
            Some(0.0),
        );
    }
}

/// One full set: per workload `(untraced, traced)`.
type SuiteRun = Vec<(&'static str, Outcome, Outcome)>;

fn run_suite(ctx: &Ctx) -> std::io::Result<(SuiteRun, Vec<Span>)> {
    let mut set = Vec::new();
    let mut spans = Vec::new();
    for workload in WORKLOADS {
        eprintln!("== {workload}: tracing off");
        let (untraced, _) = run_pass(ctx, workload, false)?;
        report_failures(workload, &untraced);
        print_outcome(workload, false, &untraced);
        eprintln!("== {workload}: traced pass");
        let (traced, s) = run_pass(ctx, workload, true)?;
        report_failures(workload, &traced);
        print_outcome(workload, true, &traced);
        // Parent links index into the workload's own span list.
        let base = spans.len();
        spans.extend(s.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
        set.push((workload, untraced, traced));
    }
    Ok((set, spans))
}

fn suite_failed(set: &SuiteRun) -> bool {
    set.iter().any(|(_, u, t)| !u.correct() || !t.correct())
}

/// A/A: two sets from one build must agree within every end-to-end
/// metric's bound, and the exact counters must be equal.
fn compare_sets(a: &SuiteRun, b: &SuiteRun) -> bool {
    let mut ok = true;
    println!("## A/A: second set against the first");
    for ((workload, ua, ta), (_, ub, tb)) in a.iter().zip(b) {
        let e2e = END_TO_END
            .iter()
            .map(|&(name, _, higher, bound)| (name, higher, bound, ua.value(name), ub.value(name)));
        let extra = ua.extra.iter().zip(&ub.extra).map(|(x, y)| {
            (
                x.name,
                x.higher_is_better,
                SERVE_LATENCY_BOUND,
                x.value,
                y.value,
            )
        });
        for (name, higher, bound, first, second) in e2e.chain(extra) {
            let worse = if higher {
                (first - second) / first
            } else {
                (second - first) / first
            };
            let within = worse <= bound;
            ok &= within;
            println!(
                "{workload:<15} {name:<20} {first:>12.4} {second:>12.4}  {:>+7.2} % worse  \
                 bound {:.0} %  {}",
                worse * 100.0,
                bound * 100.0,
                if within { "ok" } else { "OUT OF BOUND" }
            );
        }
        for name in EXACT_COUNTERS {
            let (first, second) = (ta.value(name), tb.value(name));
            if first != second {
                ok = false;
                println!("{workload:<15} {name:<20} {first} vs {second}  COUNTER DIFFERS");
            }
        }
    }
    println!("## A/A: {}", if ok { "agree" } else { "DISAGREE" });
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("benchmark/out");
    let ctx = Ctx {
        odrc: args.odrc,
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        run_dir: out_dir.join(format!("run-{}", std::process::id())),
        out_dir,
        golden_dir: PathBuf::from("benchmark/golden"),
    };
    if !ctx.golden_dir.is_dir() {
        eprintln!("error: run from the repo root (benchmark/golden not found)");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.run_dir) {
        eprintln!("error: cannot create {}: {e}", ctx.run_dir.display());
        return ExitCode::from(2);
    }

    let result = (|| -> std::io::Result<bool> {
        if let Some(workload) = &args.workload {
            let (outcome, spans) = run_pass(&ctx, workload, args.trace)?;
            report_failures(workload, &outcome);
            if args.trace {
                trace::write_chrome(&ctx.out_dir.join("trace.json"), &spans)?;
            }
            println!("{}", outcome.result_line(args.trace));
            return Ok(true);
        }
        let (first, spans) = run_suite(&ctx)?;
        trace::write_chrome(&ctx.out_dir.join("trace.json"), &spans)?;
        println!(
            "## trace: {} spans in {}",
            spans.len(),
            ctx.out_dir.join("trace.json").display()
        );
        for (name, count, total, own) in trace::summarize(&spans) {
            println!("{name:<36} calls {count:>5}  total {total:>10.6} s  self {own:>10.6} s");
        }
        let mut ok = !suite_failed(&first);
        if args.aa {
            let (second, _) = run_suite(&ctx)?;
            ok &= !suite_failed(&second);
            ok &= compare_sets(&first, &second);
        }
        Ok(ok)
    })();
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: an output check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
