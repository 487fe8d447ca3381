//! The equivalence matrix behind the engine's byte-identity suites.
//!
//! The paper's claim is that hierarchical pruning, row partitioning and
//! the device mode change how fast a check runs, never what it reports.
//! Every suite that holds the engine to that claim is a set of rows of
//! one matrix. A [`Config`] picks a cell on the run axes: mode, host
//! threads, device size and budget, fault schedule, pruning, shard
//! geometry and memory budget, and cancel point. The input axes pick
//! what it checks: a named deck from [`decks`], and a layout, a delta
//! edit or a hierarchy depth from [`layouts`]. A row runs its cells and
//! compares each one with [`assert_agree`], against [`reference`] or
//! against another cell, and keeps only the asserts that are its own.
//!
//! Integration tests use the kit as a dev-dependency. Unit tests must
//! not: theirs is a second copy of `odrc`, not the one the kit links.

#![forbid(unsafe_code)]

pub mod decks;
pub mod layouts;

use odrc::delta::DeltaCheckReport;
use odrc::{
    CancelToken, CheckReport, CounterClass, Engine, EngineOptions, EngineStats, Mode, RuleDeck,
    Violation,
};
use odrc_db::Layout;
use odrc_xpu::{Device, FaultPlan};

/// One cell on the run axes. `Config::default()` is the CLI's default
/// run: the default mode, the host's thread count, in core.
#[derive(Debug, Clone)]
pub struct Config {
    pub mode: Mode,
    /// `None` sizes the executor to the host, as the CLI does.
    pub host_threads: Option<usize>,
    /// Device workers of a `--parallel` run.
    pub device: usize,
    /// A device memory budget in bytes (`Device::with_budget`).
    pub device_budget: Option<usize>,
    /// A fault schedule on the engine's device.
    pub faults: Option<FaultPlan>,
    pub pruning: bool,
    pub memory_budget: Option<u64>,
    pub shard_rows: Option<usize>,
    /// Trip the run's cancel token after this many polls.
    pub cancel_after: Option<usize>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            mode: Mode::Sequential,
            host_threads: None,
            device: 3,
            device_budget: None,
            faults: None,
            pruning: true,
            memory_budget: None,
            shard_rows: None,
            cancel_after: None,
        }
    }
}

impl Config {
    /// The default (sequential) mode.
    pub fn seq() -> Config {
        Config::default()
    }

    /// `--parallel`.
    pub fn par() -> Config {
        Config::of(Mode::Parallel)
    }

    pub fn of(mode: Mode) -> Config {
        Config {
            mode,
            ..Config::default()
        }
    }

    pub fn threads(self, host_threads: usize) -> Config {
        Config {
            host_threads: Some(host_threads),
            ..self
        }
    }

    pub fn device(self, workers: usize) -> Config {
        Config {
            device: workers,
            ..self
        }
    }

    pub fn device_budget(self, bytes: usize) -> Config {
        Config {
            device_budget: Some(bytes),
            ..self
        }
    }

    pub fn faults(self, plan: FaultPlan) -> Config {
        Config {
            faults: Some(plan),
            ..self
        }
    }

    /// The seeded schedule of every suite: six faults from `seed`.
    pub fn fault_seed(self, seed: u64) -> Config {
        self.faults(FaultPlan::from_seed(seed, 6))
    }

    pub fn pruning(self, pruning: bool) -> Config {
        Config { pruning, ..self }
    }

    /// Out of core, `rows` partition rows per shard.
    pub fn shards(self, rows: usize) -> Config {
        Config {
            shard_rows: Some(rows),
            ..self
        }
    }

    /// Out of core under a residency budget of `bytes`.
    pub fn budget(self, bytes: u64) -> Config {
        Config {
            memory_budget: Some(bytes),
            ..self
        }
    }

    pub fn cancel_after(self, polls: usize) -> Config {
        Config {
            cancel_after: Some(polls),
            ..self
        }
    }

    /// A fresh engine in this cell, on a device of its own.
    pub fn engine(&self) -> Engine {
        let engine = match self.mode {
            Mode::Sequential => Engine::sequential(),
            Mode::Parallel => Engine::parallel_on(match self.device_budget {
                Some(bytes) => Device::with_budget(self.device, bytes),
                None => Device::new(self.device),
            }),
        };
        engine.device().set_fault_plan(self.faults.clone());
        let engine = engine.with_options(EngineOptions {
            pruning: self.pruning,
            host_threads: self.host_threads,
            memory_budget: self.memory_budget,
            shard_rows: self.shard_rows,
            ..EngineOptions::default()
        });
        match self.cancel_after {
            Some(polls) => engine.with_cancel(CancelToken::after_polls(polls)),
            None => engine,
        }
    }

    /// Checks `layout` against `deck` on a fresh engine.
    pub fn check(&self, layout: &Layout, deck: &RuleDeck) -> CheckReport {
        self.engine().check(layout, deck)
    }
}

/// The run every row is held to: the default mode at one host thread,
/// in core.
pub fn reference(layout: &Layout, deck: &RuleDeck) -> CheckReport {
    Config::seq().threads(1).check(layout, deck)
}

/// What two runs of one input share besides the byte-identical
/// canonical report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agree {
    /// Nothing more: another checker, or work that a fault, a shard
    /// plan or a resume legitimately moves.
    Report,
    /// Every `Shared` counter: the two modes.
    Shared,
    /// Every counter but `Telemetry`: one mode at any host-thread
    /// count, device size or repeat.
    Exact,
}

/// A finished check, full or delta.
pub trait Outcome {
    fn violations(&self) -> &[Violation];
    fn stats(&self) -> &EngineStats;
}

impl Outcome for CheckReport {
    fn violations(&self) -> &[Violation] {
        &self.violations
    }
    fn stats(&self) -> &EngineStats {
        &self.stats
    }
}

impl Outcome for DeltaCheckReport {
    fn violations(&self) -> &[Violation] {
        &self.violations
    }
    fn stats(&self) -> &EngineStats {
        &self.stats
    }
}

/// The counters `agree` compares, but a row's named opt-outs: the one
/// mask over `EngineStats::COUNTERS`.
fn work(stats: &EngineStats, agree: Agree, except: &[&str]) -> Vec<(&'static str, u64)> {
    let mut work = stats.counters(|class| match agree {
        Agree::Report => false,
        Agree::Shared => class == CounterClass::Shared,
        Agree::Exact => class != CounterClass::Telemetry,
    });
    work.retain(|(name, _)| !except.contains(name));
    work
}

/// Asserts that `got` reproduces `want`: the same canonical report and
/// the counters `agree` names, but those in `except`.
pub fn assert_agree(
    what: &str,
    got: &impl Outcome,
    want: &impl Outcome,
    agree: Agree,
    except: &[&str],
) {
    assert_eq!(got.violations(), want.violations(), "{what}: report");
    assert_eq!(
        work(got.stats(), agree, except),
        work(want.stats(), agree, except),
        "{what}: {agree:?} counters"
    );
}

/// Asserts the fault contract: a run reports `degraded()` iff its
/// engine's device injected a fault.
pub fn assert_degraded_iff_fired(what: &str, engine: &Engine, stats: &EngineStats) {
    assert_eq!(
        stats.degraded(),
        engine.device().faults_injected() > 0,
        "{what}: degraded iff a fault fired ({} injected, {} retries, {} fallbacks)",
        engine.device().faults_injected(),
        stats.device_retries,
        stats.device_fallbacks
    );
}
