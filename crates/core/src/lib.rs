//! # OpenDRC — an efficient design rule checking engine
//!
//! A from-scratch Rust reproduction of *"OpenDRC: An Efficient
//! Open-Source Design Rule Checking Engine with Hierarchical GPU
//! Acceleration"* (He et al., DAC 2023).
//!
//! The engine checks hierarchical mask layouts against a deck of design
//! rules:
//!
//! * layouts are kept **hierarchical**, augmented with layer-wise
//!   bounding volume hierarchies (`odrc-db`, §IV-A of the paper),
//! * an **adaptive row-based partition** splits the layout into
//!   independent regions for pruning and parallelism (`odrc-infra`,
//!   §IV-B),
//! * redundant checks are **pruned** by reusing results across cell
//!   instances (§IV-C),
//! * the **sequential mode** runs cell-level MBR sweeps plus edge-based
//!   checks on the CPU (§IV-D),
//! * the **parallel mode** launches edge-based check kernels on a
//!   device, row by row, choosing a brute-force or a two-phase
//!   sweepline executor per row (`odrc-xpu`, §IV-E).
//!
//! # Quickstart
//!
//! Mirroring the paper's Listing 1:
//!
//! ```
//! use odrc::{rules::rule, Engine, RuleDeck};
//!
//! // let gds = std::fs::File::open("path-to-gdsii")?;
//! # let design = odrc_layoutgen::generate(&odrc_layoutgen::DesignSpec::tiny(42));
//! # let gds = &odrc_gdsii::write(&design.library)?[..];
//! let layout = odrc_db::Layout::from_gds(gds)?;
//!
//! let mut deck = RuleDeck::default();
//! deck.add_rules([
//!     rule().polygons().is_rectilinear(),
//!     rule().layer(19).width().greater_than(18),
//!     rule().layer(20).polygons().ensures("has-name", |p| p.name.is_some()),
//! ]);
//!
//! let report = Engine::sequential().check(&layout, &deck);
//! println!("{} violations", report.violations.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod checkpoint;
pub mod checks;
pub mod deck_parser;
pub mod delta;
pub mod engine;
pub mod markers;
pub mod parallel;
pub mod plan;
pub mod rules;
pub mod scene;
pub mod sequential;
pub mod shard;
pub mod violation;

pub use cache::{rule_signature, CacheKeys, ResultCache, CACHE_FILE};
pub use checkpoint::{CheckpointJournal, RunKey, JOURNAL_FILE};
pub use deck_parser::{parse_deck, ParseDeckError, ParseDeckErrorKind};
pub use delta::{dirty_rects, DeltaReport};
pub use engine::{
    CheckReport, Counter, CounterClass, Engine, EngineOptions, EngineStats, Mode, ProgressFn,
    RuleStatus,
};
pub use odrc_infra::{install_signal_handlers, CancelReason, CancelToken};
pub use plan::ExecutionPlan;
pub use rules::{rule, Rule, RuleDeck, RuleKind};
pub use violation::{canonicalize, Violation, ViolationKind};
