//! Baseline design rule checkers for the OpenDRC evaluation.
//!
//! The paper compares OpenDRC against KLayout (flat, deep, and tiling
//! modes) and against X-Check, a GPU sweepline checker whose vertical
//! sweep the authors reimplemented themselves (§VI). This crate does
//! the same, on the same substrates as the engine:
//!
//! * [`FlatChecker`] — flattens the hierarchy and checks every object
//!   instance independently (KLayout flat mode's strategy),
//! * [`DeepChecker`] — keeps per-cell reuse for intra-polygon rules but
//!   runs inter-polygon checks flat, without OpenDRC's row partition
//!   (KLayout deep/hierarchical mode's strategy),
//! * [`TilingChecker`] — flattens, cuts the layout into a grid of tiles
//!   with rule-distance halos, and checks tiles on a thread pool
//!   (KLayout tiling mode's strategy),
//! * [`XCheck`] — a flat, device-accelerated edge sweep without
//!   hierarchy or partitioning, unable to run area rules (X-Check's
//!   documented limitation).
//!
//! Every baseline reduces to the *same* edge predicates as the engine
//! (`odrc::checks`), so all checkers report identical canonical
//! violation sets on non-overlapping layouts — asserted by the
//! integration tests. Runtime differences therefore measure *strategy*
//! (hierarchy reuse, partitioning, parallelism), not differing rule
//! semantics. Note this makes our "KLayout" baselines strictly
//! *stronger* than the real tool, which pays for region boolean
//! operations on top; measured speedups are a lower bound on the
//! paper's.
//!
//! # Examples
//!
//! ```
//! use odrc::{rule, RuleDeck};
//! use odrc_baselines::{Checker, FlatChecker};
//! use odrc_layoutgen::{generate_layout, tech, DesignSpec};
//!
//! let layout = generate_layout(&DesignSpec::tiny(1));
//! let deck = RuleDeck::new(vec![
//!     rule().layer(tech::M2).space().greater_than(tech::M2_SPACE).named("M2.S.1"),
//! ]);
//! let report = FlatChecker::new().check(&layout, &deck);
//! assert!(report.skipped.is_empty());
//! ```

#![forbid(unsafe_code)]

mod common;
mod flat;
mod tile;
mod xcheck;

pub use flat::{DeepChecker, FlatChecker};
pub use tile::TilingChecker;
pub use xcheck::XCheck;

use odrc::{RuleDeck, Violation};
use odrc_db::Layout;
use odrc_infra::Profiler;

/// The result of a baseline run.
#[derive(Debug)]
pub struct BaselineReport {
    /// Canonical violations.
    pub violations: Vec<Violation>,
    /// Wall-clock per phase.
    pub profile: Profiler,
    /// Rules the checker cannot run (e.g. area rules under X-Check).
    pub skipped: Vec<String>,
}

/// A design rule checker under comparison.
pub trait Checker {
    /// Short display name for tables (e.g. `"klayout-flat"`).
    fn name(&self) -> &str;

    /// Checks the layout against the deck.
    fn check(&self, layout: &Layout, deck: &RuleDeck) -> BaselineReport;
}
