//! The three one-shot workloads: `odrc chip.gds --rules deck` spawned
//! as a process, timed from spawn to exit with the report on disk.

use std::path::PathBuf;
use std::time::Instant;

use crate::gen::{self, Design, Truth};
use crate::metrics::Outcome;
use crate::proc;
use crate::stats::median;
use crate::verify::{check_golden, check_truth, EXIT_VIOLATIONS};
use crate::Ctx;

/// The out-of-core residency budget: 32 MiB, about a quarter of the
/// in-core peak on the ×10 chip, so shards are evicted and rebuilt.
pub const MEMORY_BUDGET: u64 = 32 << 20;

/// How the one-shot process is asked to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The default mode: `core::sequential`.
    Seq,
    /// `--parallel`: `core::parallel` pack + `xpu` dispatch.
    Par,
    /// `--memory-budget` + `--checkpoint-dir`: streamed load, shard
    /// pool, `(rule, shard)` journal.
    Ooc,
}

impl Mode {
    /// The mode a workload name stands for (`None`: not a one-shot
    /// workload).
    pub fn of_workload(name: &str) -> Option<Mode> {
        [Mode::Seq, Mode::Par, Mode::Ooc]
            .into_iter()
            .find(|m| m.workload() == name)
    }

    pub fn workload(self) -> &'static str {
        match self {
            Mode::Seq => "oneshot_seq",
            Mode::Par => "oneshot_par",
            Mode::Ooc => "ooc_budget",
        }
    }

    /// Wall time of one repetition on the sizing host, seconds: turns
    /// `--seconds` into a repetition count, so two commits given the
    /// same `--seconds` do identical work.
    fn nominal_rep_s(self) -> f64 {
        match self {
            Mode::Seq => 1.9,
            Mode::Par => 2.5,
            Mode::Ooc => 3.0,
        }
    }
}

/// Fewest measured repetitions of a one-shot workload.
const MIN_REPS: usize = 5;
/// Input generation is repeated this often; `setup_s` is the median.
const SETUPS: usize = 9;

/// The generated files of one one-shot run.
pub struct Inputs {
    pub gds: PathBuf,
    pub deck: PathBuf,
    pub truth: Truth,
    pub design: Design,
}

/// Generates the chip and the deck into the run directory.
pub fn make_inputs(ctx: &Ctx) -> std::io::Result<Inputs> {
    let design = if ctx.quick {
        Design::Tiny
    } else {
        Design::Chip10
    };
    let input = gen::design(design, ctx.seed);
    let gds = ctx.run_dir.join(design.file_name());
    odrc_gdsii::write_file(&input.library, &gds).map_err(std::io::Error::other)?;
    let deck = ctx.run_dir.join("paper.rules");
    std::fs::write(&deck, gen::deck_text())?;
    Ok(Inputs {
        gds,
        deck,
        truth: input.truth,
        design,
    })
}

/// What one `odrc` run left behind.
pub struct Run {
    pub exit: proc::Exit,
    /// The `--report` CSV (empty when none was written).
    pub report: Vec<u8>,
    /// The `--stats-json` document.
    pub stats: String,
}

impl Run {
    /// The process's own `VmHWM` when it wrote its statistics, after
    /// the report: the peak of the checker itself. (`ru_maxrss` is not
    /// used for the metric: across `exec` the kernel folds the
    /// spawning process's resident set into it, so it never reads
    /// below the harness's own footprint.)
    pub fn peak_rss_mb(&self) -> f64 {
        stat(&self.stats, "peak_rss_bytes").unwrap_or(0.0) / 1e6
    }

    /// Exit code 1, and the kernel's accounting of the child no lower
    /// than the peak the program reports (give or take a megabyte).
    pub fn check(&self, outcome: &mut Outcome, what: &str) {
        outcome.check(self.exit.code == Some(EXIT_VIOLATIONS), || {
            format!("{what} exited {:?}", self.exit.code)
        });
        let own = self.peak_rss_mb();
        outcome.check(
            own > 0.0 && own <= self.exit.peak_rss_mb * 1.02 + 1.0,
            || {
                format!(
                    "{what}: program reports a {own:.1} MB peak, the kernel {:.1} MB",
                    self.exit.peak_rss_mb
                )
            },
        );
    }
}

/// One `odrc` run in `mode` on `inputs`.
pub fn run_once(ctx: &Ctx, inputs: &Inputs, mode: Mode) -> std::io::Result<Run> {
    let report = ctx.run_dir.join("report.csv");
    let stats = ctx.run_dir.join("stats.json");
    let _ = std::fs::remove_file(&report);
    let _ = std::fs::remove_file(&stats);
    let checkpoints = ctx.run_dir.join("checkpoints");
    let gds = inputs.gds.to_string_lossy();
    let deck = inputs.deck.to_string_lossy();
    let report_arg = report.to_string_lossy();
    let stats_arg = stats.to_string_lossy();
    let mut args = vec![
        &*gds,
        "--rules",
        &*deck,
        "--report",
        &*report_arg,
        "--stats-json",
        &*stats_arg,
        "--max-print",
        "0",
        "--host-threads",
        "2",
    ];
    let budget = MEMORY_BUDGET.to_string();
    let checkpoints_arg = checkpoints.to_string_lossy();
    match mode {
        Mode::Seq => {}
        Mode::Par => args.push("--parallel"),
        Mode::Ooc => {
            // A fresh directory per run: every run journals from
            // scratch, none resumes.
            let _ = std::fs::remove_dir_all(&checkpoints);
            args.extend([
                "--memory-budget",
                &budget,
                "--checkpoint-dir",
                &checkpoints_arg,
            ]);
        }
    }
    let exit = proc::run(&ctx.odrc, &args)?;
    Ok(Run {
        exit,
        report: std::fs::read(&report).unwrap_or_default(),
        stats: std::fs::read_to_string(&stats).unwrap_or_default(),
    })
}

/// A number out of the program's `--stats-json`.
pub fn stat(stats_json: &str, key: &str) -> Option<f64> {
    odrc_serve::json::parse(stats_json)
        .ok()?
        .get(key)
        .and_then(odrc_serve::json::Value::as_f64)
}

/// Runs the workload with tracing off and reports the end-to-end
/// metrics.
pub fn run(ctx: &Ctx, mode: Mode) -> std::io::Result<Outcome> {
    let mut outcome = Outcome::default();

    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..if ctx.quick { 1 } else { SETUPS } {
        let started = Instant::now();
        inputs = Some(make_inputs(ctx)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");

    // The reference report comes from the default mode, so the other
    // two modes are checked against it byte for byte.
    let reference = if mode == Mode::Seq {
        None
    } else {
        let run = run_once(ctx, &inputs, Mode::Seq)?;
        run.check(&mut outcome, "reference run");
        Some(run.report)
    };

    // Warm-up repetition, discarded from the timings.
    let warm = run_once(ctx, &inputs, mode)?;
    warm.check(&mut outcome, "warm-up run");
    let reference = reference.unwrap_or_else(|| warm.report.clone());
    outcome.check(warm.report == reference, || {
        format!("{} report differs from the sequential one", mode.workload())
    });
    let csv = String::from_utf8_lossy(&reference);
    check_truth(&mut outcome, mode.workload(), &csv, &inputs.truth);
    if inputs.design == Design::Chip10 {
        check_golden(
            &mut outcome,
            &ctx.golden_dir,
            ctx.seed,
            "chip10",
            &reference,
        );
    }

    let reps = if ctx.quick {
        1
    } else {
        ((ctx.seconds / mode.nominal_rep_s()).round() as usize).max(MIN_REPS)
    };
    let mut walls = Vec::with_capacity(reps);
    let mut rss = Vec::with_capacity(reps);
    let loop_started = Instant::now();
    for rep in 0..reps {
        let run = run_once(ctx, &inputs, mode)?;
        run.check(&mut outcome, &format!("run {rep}"));
        outcome.check(run.report == reference, || {
            format!("run {rep} wrote a different report")
        });
        if mode == Mode::Ooc && !ctx.quick {
            let evicted = stat(&run.stats, "shards_evicted").unwrap_or(0.0);
            outcome.check(evicted > 0.0, || {
                format!("run {rep} evicted no shard: the workload is not out of core")
            });
        }
        walls.push(run.exit.wall_s);
        rss.push(run.peak_rss_mb());
    }
    let loop_s = loop_started.elapsed().as_secs_f64();
    eprintln!("{}: run walls, s: {walls:.3?}", mode.workload());

    outcome.set("setup_s", median(&setups), setups.len());
    outcome.set("check_wall_s", median(&walls), reps);
    outcome.set("peak_rss_mb", median(&rss), reps);
    outcome.set("runs_per_s", reps as f64 / loop_s, reps);
    Ok(outcome)
}
