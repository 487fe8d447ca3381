//! # odrc-incremental — session-oriented incremental checking
//!
//! Turns the one-shot [`odrc::Engine`] into an edit-check loop:
//!
//! * **edits** are typed [`EditOp`]s applied through a [`Session`];
//!   the underlying `odrc_db::Layout` edit API keeps the layer-wise
//!   MBR hierarchy and inverted indices consistent in place, without a
//!   full rebuild (property-tested in `odrc-db`);
//! * **results persist**: the §IV-C per-cell memo is rekeyed by
//!   structural content hashes and serialized to a sidecar file
//!   (`odrc-cache.bin`), so a warm process reuses every verdict whose
//!   cell content did not change — an edit invalidates exactly the
//!   edited cell's ancestor chain;
//! * **re-checks are deltas**: [`Session::check`] diffs the layout
//!   against the last checked snapshot, re-runs only the checks inside
//!   the dirty halo ([`odrc::delta`]), and reports what changed as a
//!   [`DeltaReport`] — while always returning the *full* violation
//!   set, guaranteed equal to a from-scratch [`odrc::Engine::check`].
//!
//! # Examples
//!
//! ```
//! use odrc::{rules::rule, Engine, RuleDeck};
//! use odrc_incremental::{EditOp, Session};
//! use odrc_layoutgen::{generate_layout, tech, DesignSpec};
//!
//! let layout = generate_layout(&DesignSpec::tiny(1));
//! let deck = RuleDeck::new(vec![
//!     rule().layer(tech::M2).space().greater_than(tech::M2_SPACE).named("M2.S.1"),
//! ]);
//! let mut session = Session::new(layout, Engine::sequential(), deck);
//!
//! let first = session.check(); // full run, primes the baseline
//! assert!(first.full_run);
//!
//! // Edit: drop the first top-level placement, then re-check.
//! let top = session.layout().top();
//! session.apply(EditOp::RemoveRef { parent: top, index: 0 })?;
//! let second = session.check(); // windowed delta re-run
//! assert!(!second.full_run);
//! # Ok::<(), odrc_db::EditError>(())
//! ```

#![forbid(unsafe_code)]

use std::io;
use std::path::{Path, PathBuf};

use odrc::delta::DeltaReport;
use odrc::{CacheKeys, Engine, EngineStats, ResultCache, RuleDeck, Violation};
use odrc_db::{CellId, CellRef, EditError, LayerPolygon, Layout};
use odrc_geometry::{Rect, Transform};
use odrc_infra::{CancelReason, Profiler};

pub use odrc::CACHE_FILE;

/// A typed edit over the session's layout, mirroring the `odrc_db`
/// edit API. Every op is validated by the database layer (unknown ids,
/// out-of-range indices, non-isometric transforms, and reference
/// cycles are rejected without mutating anything).
#[derive(Debug, Clone)]
pub enum EditOp {
    /// Append a reference to `child` inside `parent`.
    AddRef {
        parent: CellId,
        child: CellId,
        transform: Transform,
    },
    /// Remove the `index`-th reference of `parent`.
    RemoveRef { parent: CellId, index: usize },
    /// Re-place the `index`-th reference of `parent`.
    MoveRef {
        parent: CellId,
        index: usize,
        transform: Transform,
    },
    /// Append a leaf polygon to `cell`.
    AddPolygon { cell: CellId, polygon: LayerPolygon },
    /// Remove the `index`-th leaf polygon of `cell`.
    RemovePolygon { cell: CellId, index: usize },
    /// Replace the `index`-th leaf polygon of `cell`.
    ReplacePolygon {
        cell: CellId,
        index: usize,
        polygon: LayerPolygon,
    },
    /// Replace the whole definition (geometry and references) of `cell`.
    SwapDefinition {
        cell: CellId,
        polygons: Vec<LayerPolygon>,
        refs: Vec<CellRef>,
    },
}

/// The layout snapshot the next delta re-check diffs against, with
/// its content keys so neither side is re-hashed on the next check.
struct Baseline {
    layout: Layout,
    keys: CacheKeys,
    violations: Vec<Violation>,
}

/// The result of one [`Session::check`].
#[derive(Debug)]
pub struct SessionReport {
    /// All violations of the current layout, canonicalized — equal to
    /// a from-scratch [`Engine::check`].
    pub violations: Vec<Violation>,
    /// The change relative to the previous check (on the first check,
    /// everything counts as added).
    pub delta: DeltaReport,
    /// Work accounting of the run.
    pub stats: EngineStats,
    /// Wall-clock per pipeline phase.
    pub profile: Profiler,
    /// The dirty rectangles the re-check was windowed to (empty on a
    /// full run).
    pub dirty: Vec<Rect>,
    /// True when this was a full run (the first check of a session),
    /// false for a windowed delta re-run.
    pub full_run: bool,
    /// `Some(reason)` when the run was cancelled before the whole deck
    /// finished. The violation set is then partial, and the session
    /// did **not** advance its baseline — the next [`Session::check`]
    /// re-runs against the last *completed* state, so an interrupted
    /// job can never seed a delta with half-checked results.
    pub interrupted: Option<CancelReason>,
}

/// An edit-check session over one layout.
///
/// Holds the layout, the engine and deck to check it with, a
/// persistent result cache, and the snapshot of the last checked
/// state. Edits accumulate through [`Session::apply`]; the next
/// [`Session::check`] re-runs only what they can affect.
pub struct Session {
    layout: Layout,
    engine: Engine,
    deck: RuleDeck,
    cache: ResultCache,
    cache_path: Option<PathBuf>,
    baseline: Option<Baseline>,
}

impl Session {
    /// A session with an in-memory cache only.
    pub fn new(layout: Layout, engine: Engine, deck: RuleDeck) -> Session {
        Session {
            layout,
            engine,
            deck,
            cache: ResultCache::new(),
            cache_path: None,
            baseline: None,
        }
    }

    /// Attaches a cache directory: loads `<dir>/odrc-cache.bin` if it
    /// exists (a missing file is an empty cache) and makes
    /// [`Session::save_cache`] write back there.
    ///
    /// A corrupted or truncated sidecar is *not* an error: the cache is
    /// a pure accelerator, so the session starts cold (with a warning
    /// on stderr) and overwrites the damaged file on the next save.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` is kept so genuine I/O
    /// failures can be surfaced without an API break.
    pub fn with_cache_dir(mut self, dir: impl AsRef<Path>) -> io::Result<Session> {
        let path = dir.as_ref().join(CACHE_FILE);
        self.cache = ResultCache::load_or_cold(&path);
        self.cache_path = Some(path);
        Ok(self)
    }

    /// The current layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The rule deck the session checks against.
    pub fn deck(&self) -> &RuleDeck {
        &self.deck
    }

    /// The persistent result cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Mutable access to the session's engine, for per-job plumbing a
    /// server wires up between checks: a fresh [`CancelToken`] per
    /// job, a progress callback streaming rule completions, or a job's
    /// option overrides.
    ///
    /// [`CancelToken`]: odrc_infra::CancelToken
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Swaps the session's result cache for `cache`, returning the old
    /// one. A multi-tenant server checks a shared cache snapshot *in*
    /// before a job and merges the enriched copy back *out* after it,
    /// so verdicts flow between sessions without aliasing one
    /// `ResultCache` across concurrent runs.
    pub fn swap_cache(&mut self, cache: ResultCache) -> ResultCache {
        std::mem::replace(&mut self.cache, cache)
    }

    /// Applies one edit to the layout.
    ///
    /// # Errors
    ///
    /// Forwards the database layer's validation error; the layout is
    /// unchanged on failure.
    pub fn apply(&mut self, op: EditOp) -> Result<(), EditError> {
        match op {
            EditOp::AddRef {
                parent,
                child,
                transform,
            } => {
                self.layout.add_ref(parent, child, transform)?;
            }
            EditOp::RemoveRef { parent, index } => {
                self.layout.remove_ref(parent, index)?;
            }
            EditOp::MoveRef {
                parent,
                index,
                transform,
            } => {
                self.layout.move_ref(parent, index, transform)?;
            }
            EditOp::AddPolygon { cell, polygon } => {
                self.layout.add_polygon(cell, polygon)?;
            }
            EditOp::RemovePolygon { cell, index } => {
                self.layout.remove_polygon(cell, index)?;
            }
            EditOp::ReplacePolygon {
                cell,
                index,
                polygon,
            } => {
                self.layout.replace_polygon(cell, index, polygon)?;
            }
            EditOp::SwapDefinition {
                cell,
                polygons,
                refs,
            } => {
                self.layout.swap_cell_definition(cell, polygons, refs)?;
            }
        }
        Ok(())
    }

    /// Applies a sequence of edits, stopping at the first failure.
    ///
    /// # Errors
    ///
    /// Forwards the first rejected op's error; earlier ops stay
    /// applied.
    pub fn apply_all(&mut self, ops: impl IntoIterator<Item = EditOp>) -> Result<(), EditError> {
        for op in ops {
            self.apply(op)?;
        }
        Ok(())
    }

    /// Checks the current layout.
    ///
    /// The first call runs the full deck (through the persistent
    /// cache, so a warm cache still skips unchanged cells). Subsequent
    /// calls diff against the last checked snapshot and re-run only
    /// the affected checks. Either way the returned violation set is
    /// the complete, canonical result for the current layout.
    pub fn check(&mut self) -> SessionReport {
        let keys = CacheKeys::compute(&self.layout);
        let (report, restore) = match self.baseline.take() {
            None => {
                let report = self.engine.check_with_cache_keyed(
                    &self.layout,
                    &keys,
                    &self.deck,
                    &mut self.cache,
                );
                let report = SessionReport {
                    delta: DeltaReport {
                        added: report.violations.clone(),
                        removed: Vec::new(),
                        unchanged_count: 0,
                    },
                    stats: report.stats,
                    profile: report.profile,
                    dirty: Vec::new(),
                    full_run: true,
                    interrupted: report.interrupted,
                    violations: report.violations,
                };
                (report, None)
            }
            Some(base) => {
                let report = self.engine.check_delta_keyed(
                    &base.layout,
                    &base.keys.subtree,
                    &base.violations,
                    &self.layout,
                    &keys,
                    &self.deck,
                    Some(&mut self.cache),
                );
                let report = SessionReport {
                    delta: report.delta,
                    stats: report.stats,
                    profile: report.profile,
                    dirty: report.dirty,
                    full_run: false,
                    interrupted: report.interrupted,
                    violations: report.violations,
                };
                (report, Some(base))
            }
        };
        if report.interrupted.is_none() {
            self.baseline = Some(Baseline {
                layout: self.layout.clone(),
                keys,
                violations: report.violations.clone(),
            });
        } else {
            // A cancelled run produced a partial violation set; keep
            // the previous completed baseline (or stay cold) so the
            // next check diffs against trustworthy results.
            self.baseline = restore;
        }
        report
    }

    /// Writes the cache back to the attached directory (no-op without
    /// one).
    ///
    /// # Errors
    ///
    /// Forwards filesystem errors from creating the directory or
    /// writing the file.
    pub fn save_cache(&self) -> io::Result<()> {
        if let Some(path) = &self.cache_path {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            // Merge-on-save under the sidecar's file lock: concurrent
            // sessions sharing one cache directory union their entries
            // instead of last-writer-wins clobbering.
            self.cache.save_merged(path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrc::rules::rule;
    use odrc_geometry::Point;
    use odrc_layoutgen::{generate_layout, tech, DesignSpec};

    fn deck() -> RuleDeck {
        // M1 lives inside the standard cells (the per-cell cache's
        // domain); M2/V1 routing is top-level geometry.
        RuleDeck::new(vec![
            rule()
                .layer(tech::M1)
                .space()
                .greater_than(tech::M1_SPACE)
                .named("M1.S.1"),
            rule()
                .layer(tech::M1)
                .width()
                .greater_than(tech::M1_WIDTH)
                .named("M1.W.1"),
            rule()
                .layer(tech::M2)
                .space()
                .greater_than(tech::M2_SPACE)
                .named("M2.S.1"),
            rule()
                .layer(tech::M2)
                .width()
                .greater_than(tech::M2_WIDTH)
                .named("M2.W.1"),
            rule()
                .layer(tech::V1)
                .enclosed_by(tech::M2)
                .greater_than(tech::V1_M2_ENCLOSURE)
                .named("V1.M2.EN.1"),
        ])
    }

    /// Nudges one leaf polygon on M2 by one unit.
    fn nudge_op(layout: &Layout) -> EditOp {
        let &(cell, index) = layout
            .layer_polygons(tech::M2)
            .first()
            .expect("generated design has M2 shapes");
        let mut polygon = layout.cell(cell).polygons()[index].clone();
        polygon.polygon = polygon.polygon.translate(Point::new(1, 0));
        EditOp::ReplacePolygon {
            cell,
            index,
            polygon,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("odrc-incr-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn session_check_equals_from_scratch_after_edits() {
        let layout = generate_layout(&DesignSpec::tiny(21));
        let mut session = Session::new(layout, Engine::sequential(), deck());
        let first = session.check();
        assert!(first.full_run);
        assert_eq!(first.delta.added.len(), first.violations.len());

        let op = nudge_op(session.layout());
        session.apply(op).unwrap();
        let second = session.check();
        assert!(!second.full_run);
        assert!(!second.dirty.is_empty());
        let scratch = Engine::sequential().check(session.layout(), &deck());
        assert_eq!(second.violations, scratch.violations);

        // A third check with no edits in between is a no-op delta.
        let third = session.check();
        assert!(third.delta.is_clean());
        assert_eq!(third.violations, second.violations);
    }

    #[test]
    fn warm_cache_skips_unchanged_cells_across_processes() {
        let dir = temp_dir("warm");
        let spec = DesignSpec::tiny(22);

        // Process 1: cold full run, persist the cache.
        let cold_session = {
            let mut s = Session::new(generate_layout(&spec), Engine::sequential(), deck())
                .with_cache_dir(&dir)
                .unwrap();
            let report = s.check();
            s.save_cache().unwrap();
            (report, s)
        };
        let (cold, _s) = cold_session;
        assert!(cold.stats.checks_computed > 0);

        // Process 2: same design with one cell edited; the warm cache
        // answers every unchanged cell, so strictly fewer checks run.
        let mut layout = generate_layout(&spec);
        let mut s2 = Session::new(layout.clone(), Engine::sequential(), deck())
            .with_cache_dir(&dir)
            .unwrap();
        let op = nudge_op(&layout);
        if let EditOp::ReplacePolygon {
            cell,
            index,
            polygon,
        } = op.clone()
        {
            layout.replace_polygon(cell, index, polygon).unwrap();
        }
        s2.apply(op).unwrap();
        let warm = s2.check();
        assert!(warm.full_run);
        assert!(warm.stats.checks_reused > 0, "warm run must reuse results");
        assert!(
            warm.stats.checks_computed < cold.stats.checks_computed,
            "warm run must compute strictly fewer checks ({} vs {})",
            warm.stats.checks_computed,
            cold.stats.checks_computed
        );
        let scratch = Engine::sequential().check(&layout, &deck());
        assert_eq!(warm.violations, scratch.violations);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_check_never_primes_the_baseline() {
        use odrc_infra::{CancelReason, CancelToken};
        let layout = generate_layout(&DesignSpec::tiny(24));
        let mut session = Session::new(layout, Engine::sequential(), deck());

        // First check arrives pre-cancelled: the full run is cut short
        // and must not become the delta baseline.
        let tok = CancelToken::new();
        tok.cancel(CancelReason::Interrupt);
        session.engine_mut().set_cancel(Some(tok));
        let cut = session.check();
        assert!(cut.full_run);
        assert!(cut.interrupted.is_some());

        // With the cancel cleared, the next check is again a *full*
        // run (the session stayed cold) and matches from-scratch.
        session.engine_mut().set_cancel(None);
        let first = session.check();
        assert!(first.full_run, "partial results must not seed a baseline");
        assert!(first.interrupted.is_none());
        let scratch = Engine::sequential().check(session.layout(), &deck());
        assert_eq!(first.violations, scratch.violations);

        // Now interrupt a *delta* run: the old baseline is restored,
        // so the following clean check diffs against completed state.
        let op = nudge_op(session.layout());
        session.apply(op).unwrap();
        let tok = CancelToken::new();
        tok.cancel(CancelReason::Interrupt);
        session.engine_mut().set_cancel(Some(tok));
        let cut = session.check();
        assert!(!cut.full_run);
        assert!(cut.interrupted.is_some());
        session.engine_mut().set_cancel(None);
        let healed = session.check();
        assert!(!healed.full_run, "completed baseline was kept");
        assert!(healed.interrupted.is_none());
        let scratch = Engine::sequential().check(session.layout(), &deck());
        assert_eq!(healed.violations, scratch.violations);
    }

    #[test]
    fn swap_cache_moves_verdicts_between_sessions() {
        let spec = DesignSpec::tiny(25);
        let mut warm = Session::new(generate_layout(&spec), Engine::sequential(), deck());
        let cold_report = warm.check();
        assert!(cold_report.stats.checks_computed > 0);

        // Check the warm cache out of one session and into another
        // over the same design: the second full run reuses verdicts.
        let shared = warm.swap_cache(ResultCache::new());
        let mut other = Session::new(generate_layout(&spec), Engine::sequential(), deck());
        let _empty = other.swap_cache(shared);
        let warm_report = other.check();
        assert!(warm_report.stats.checks_reused > 0);
        assert!(warm_report.stats.checks_computed < cold_report.stats.checks_computed);
        assert_eq!(warm_report.violations, cold_report.violations);
    }

    #[test]
    fn invalid_edit_leaves_session_usable() {
        let layout = generate_layout(&DesignSpec::tiny(23));
        let mut session = Session::new(layout, Engine::sequential(), deck());
        let top = session.layout().top();
        let err = session.apply(EditOp::RemoveRef {
            parent: top,
            index: usize::MAX,
        });
        assert!(err.is_err());
        let report = session.check();
        let scratch = Engine::sequential().check(session.layout(), &deck());
        assert_eq!(report.violations, scratch.violations);
    }
}
