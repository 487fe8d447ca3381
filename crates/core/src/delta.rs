//! Delta re-checking: re-run only the checks an edit can affect.
//!
//! Given a layout before and after an edit, [`dirty_rects`] localizes
//! the change to a set of top-level rectangles by a recursive structural
//! diff over the cell DAG (subtree content hashes prune unchanged
//! branches, so a leaf edit dirties only the edited geometry under each
//! instance path, not whole placements). [`Engine::check_delta`] then
//! re-runs each rule only inside an inflated halo around those rects and
//! splices the fresh results into the previous violation set.
//!
//! # Soundness
//!
//! The splice is exact, not approximate, because the engine's reported
//! violation locations are *local* to the participating geometry:
//!
//! * spacing violations locate at the hull of the two facing edges, and
//!   every point of that hull is within the rule distance `min` of the
//!   participating polygons (the edge relation only reports parallel
//!   facing pairs and near corners);
//! * enclosure / overlap violations locate at the inner shape's MBR,
//!   and outer geometry can only affect a shape within `min` of it.
//!
//! Hence a violation of the full run involves edited geometry **iff**
//! its location overlaps a dirty rect inflated by the rule's interaction
//! distance — the predicate [`DirtyWindow::hits`]. Both sides of the
//! splice use that one predicate: old violations failing it are kept
//! verbatim, and a windowed re-run (whose scene provably contains every
//! object that can participate in a predicate-positive violation)
//! replaces the rest. Intra-polygon rules (width, area, rectilinear,
//! user predicates) are instead recomputed whole — they are cheap per
//! unique cell through the §IV-C memo and the persistent cache — and
//! replace that rule's old violations entirely.
//!
//! The windowed re-run is the engine's own rule loop (`Engine::run_rules`,
//! the one a full check runs): the rule family's
//! [`interaction`](crate::rules::RuleFamily::interaction) distance is
//! the halo (`halo`), which the loop hands each rule's executor as an
//! argument, and the splice runs after the loop over the rules it
//! completed. A delta run opens and closes with the same `begin_run` /
//! `finish_run` pair as a full check, so it honours the cancel token on
//! the device and reports the same dispatch counters and
//! `device-wait-wall` phase.

use std::collections::HashMap;

use odrc_db::{CellId, LayerPolygon, Layout};
use odrc_geometry::{Coord, Point, Rect, Transform};
use odrc_infra::Profiler;

use crate::cache::{CacheHandle, CacheKeys, ResultCache};
use crate::engine::{Engine, EngineStats, RuleStatus};
use crate::rules::{Rule, RuleDeck};
use crate::scene::DirtyWindow;
use crate::sequential::RunContext;
use crate::violation::{canonicalize, Violation};

/// The outcome of a delta re-check, relative to the previous run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Violations present now but not before.
    pub added: Vec<Violation>,
    /// Violations present before but not now.
    pub removed: Vec<Violation>,
    /// Violations common to both runs.
    pub unchanged_count: usize,
}

impl DeltaReport {
    /// True when the edit changed no violations.
    pub fn is_clean(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// The result of [`Engine::check_delta`]: the full new violation set
/// plus its delta against the previous set.
#[derive(Debug)]
pub struct DeltaCheckReport {
    /// All violations of the edited layout, canonicalized — equal to
    /// what a from-scratch [`Engine::check`] would report.
    pub violations: Vec<Violation>,
    /// The change relative to the supplied previous violations.
    pub delta: DeltaReport,
    /// The dirty rectangles the re-check was windowed to.
    pub dirty: Vec<Rect>,
    /// Wall-clock per pipeline phase.
    pub profile: Profiler,
    /// Work accounting for the windowed re-run.
    pub stats: EngineStats,
    /// `Some(reason)` when the run was cancelled at a rule boundary
    /// before the whole deck re-ran. The violation set is then
    /// *partial* and must not be treated as the layout's full result
    /// (an edit session discards it instead of re-priming its
    /// baseline).
    pub interrupted: Option<odrc_infra::CancelReason>,
}

/// Transform key for multiset ref matching.
type TKey = (bool, u8, i32, i32, i32);

fn tkey(t: &Transform) -> TKey {
    (
        t.mirror_x(),
        t.rotation().quarter_turns(),
        t.mag(),
        t.translate().x,
        t.translate().y,
    )
}

/// Collision-free content key of one local polygon (layer, datatype,
/// vertices, name) — plain equality, no hashing caveats.
fn poly_key(p: &LayerPolygon) -> Vec<i64> {
    let mut k = Vec::with_capacity(4 + 2 * p.polygon.vertices().len());
    k.push(i64::from(p.layer));
    k.push(i64::from(p.datatype));
    for v in p.polygon.vertices() {
        k.push(i64::from(v.x));
        k.push(i64::from(v.y));
    }
    match &p.name {
        Some(n) => {
            k.push(1);
            k.extend(n.bytes().map(i64::from));
        }
        None => k.push(0),
    }
    k
}

/// Top-level rectangles covering everything that differs between the
/// two layouts: the MBR of every changed, added, or removed flat
/// polygon, on **both** the old and the new side (a moved shape dirties
/// its source and its destination).
///
/// The diff recurses over paired cells and stops wherever the subtree
/// content hashes agree, so the cost is proportional to the edited
/// region, not the design. Equal subtree hashes are trusted as equal
/// content (64-bit FNV — a collision forfeits one re-check, accepted at
/// 2⁻⁶⁴).
pub fn dirty_rects(old: &Layout, new: &Layout) -> Vec<Rect> {
    dirty_rects_keyed(old, new, &old.subtree_hashes(), &new.subtree_hashes())
}

/// [`dirty_rects`] with precomputed subtree hashes (see
/// [`CacheKeys`]) — the diff itself then touches only changed cells.
pub fn dirty_rects_keyed(
    old: &Layout,
    new: &Layout,
    old_subtree: &[u64],
    new_subtree: &[u64],
) -> Vec<Rect> {
    let mut out = Vec::new();
    let identity = Transform::translation(Point::new(0, 0));
    diff_cells(
        old,
        new,
        old_subtree,
        new_subtree,
        old.top(),
        new.top(),
        identity,
        &mut out,
    );
    out.sort_unstable_by_key(|r| (r.lo().x, r.lo().y, r.hi().x, r.hi().y));
    out.dedup();
    out
}

#[allow(clippy::too_many_arguments)]
fn diff_cells(
    old: &Layout,
    new: &Layout,
    oh: &[u64],
    nh: &[u64],
    oc: CellId,
    nc: CellId,
    t: Transform,
    out: &mut Vec<Rect>,
) {
    if oh[oc.index()] == nh[nc.index()] {
        return;
    }
    let ocell = old.cell(oc);
    let ncell = new.cell(nc);

    // Local polygons: multiset diff by content. Every unmatched polygon
    // on either side dirties its transformed MBR. Edits leave the
    // polygon list untouched except at the edit sites, so trim the
    // common prefix and suffix by direct equality first — the keyed
    // multiset only sees the (tiny) middle.
    let ops = ocell.polygons();
    let nps = ncell.polygons();
    let mut lo = 0;
    while lo < ops.len() && lo < nps.len() && ops[lo] == nps[lo] {
        lo += 1;
    }
    let (mut ohi, mut nhi) = (ops.len(), nps.len());
    while ohi > lo && nhi > lo && ops[ohi - 1] == nps[nhi - 1] {
        ohi -= 1;
        nhi -= 1;
    }
    let mut old_polys: HashMap<Vec<i64>, Vec<Rect>> = HashMap::new();
    for p in &ops[lo..ohi] {
        old_polys
            .entry(poly_key(p))
            .or_default()
            .push(p.polygon.mbr());
    }
    for p in &nps[lo..nhi] {
        match old_polys.get_mut(&poly_key(p)) {
            Some(v) if !v.is_empty() => {
                v.pop();
            }
            _ => out.push(t.apply_rect(p.polygon.mbr())),
        }
    }
    for rects in old_polys.values() {
        for &r in rects {
            out.push(t.apply_rect(r));
        }
    }

    // References: same positional trim, except a pair is only
    // unchanged when the placement matches AND the child subtrees hash
    // equal — an edit inside a child leaves the parent's ref list
    // bit-identical.
    let ors = ocell.refs();
    let nrs = ncell.refs();
    let same_ref = |a: &odrc_db::CellRef, b: &odrc_db::CellRef| {
        oh[a.cell.index()] == nh[b.cell.index()] && a.transform == b.transform
    };
    let mut rlo = 0;
    while rlo < ors.len() && rlo < nrs.len() && same_ref(&ors[rlo], &nrs[rlo]) {
        rlo += 1;
    }
    let (mut orhi, mut nrhi) = (ors.len(), nrs.len());
    while orhi > rlo && nrhi > rlo && same_ref(&ors[orhi - 1], &nrs[nrhi - 1]) {
        orhi -= 1;
        nrhi -= 1;
    }

    // Pass 1: multiset-match identical (subtree content, placement)
    // pairs among the rest — those contribute nothing.
    let mut old_refs: HashMap<(u64, TKey), Vec<CellId>> = HashMap::new();
    for r in &ors[rlo..orhi] {
        old_refs
            .entry((oh[r.cell.index()], tkey(&r.transform)))
            .or_default()
            .push(r.cell);
    }
    let mut new_unmatched: Vec<odrc_db::CellRef> = Vec::new();
    for r in &nrs[rlo..nrhi] {
        match old_refs.get_mut(&(nh[r.cell.index()], tkey(&r.transform))) {
            Some(v) if !v.is_empty() => {
                v.pop();
            }
            _ => new_unmatched.push(*r),
        }
    }
    // Pass 2: leftovers at the same placement are the same instance with
    // an edited definition — recurse to localize the change inside it.
    let mut old_left: HashMap<TKey, Vec<CellId>> = HashMap::new();
    for ((_, k), cells) in old_refs {
        old_left.entry(k).or_default().extend(cells);
    }
    for r in new_unmatched {
        let k = tkey(&r.transform);
        if let Some(ocid) = old_left.get_mut(&k).and_then(Vec::pop) {
            diff_cells(old, new, oh, nh, ocid, r.cell, r.transform.then(&t), out);
        } else if let Some(m) = new.cell(r.cell).mbr() {
            // Added or moved-in reference: its whole subtree is new here.
            out.push(r.transform.then(&t).apply_rect(m));
        }
    }
    for (k, cells) in old_left {
        for ocid in cells {
            if let Some(m) = old.cell(ocid).mbr() {
                let rt = Transform::new(
                    k.0,
                    odrc_geometry::Rotation::from_quarter_turns(i32::from(k.1)),
                    k.2,
                    Point::new(k.3, k.4),
                );
                out.push(rt.then(&t).apply_rect(m));
            }
        }
    }
}

/// Clamps a rule's i64 interaction distance into window coordinates.
fn clamp_margin(m: i64) -> Coord {
    m.clamp(0, i64::from(Coord::MAX)) as Coord
}

/// Merge-walk of two canonical (sorted, deduplicated) violation sets.
fn diff_canonical(old: &[Violation], new: &[Violation]) -> DeltaReport {
    let mut delta = DeltaReport::default();
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                delta.removed.push(old[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                delta.added.push(new[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                delta.unchanged_count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    delta.removed.extend(old[i..].iter().cloned());
    delta.added.extend(new[j..].iter().cloned());
    delta
}

impl Engine {
    /// Re-checks an edited layout against the deck, re-running only the
    /// checks the edit can affect.
    ///
    /// `old_violations` must be the violations a previous check of
    /// `old` reported with the **same deck and engine configuration**
    /// (rule names are the splice key, so they must be unique per
    /// deck). The returned `violations` equal a from-scratch
    /// [`Engine::check`] of `new` — the equivalence the incremental
    /// crate property-tests.
    pub fn check_delta(
        &self,
        old: &Layout,
        old_violations: &[Violation],
        new: &Layout,
        deck: &RuleDeck,
    ) -> DeltaCheckReport {
        let old_subtree = old.subtree_hashes();
        let new_keys = CacheKeys::compute(new);
        self.check_delta_keyed(
            old,
            &old_subtree,
            old_violations,
            new,
            &new_keys,
            deck,
            None,
        )
    }

    /// [`Engine::check_delta`] backed by a persistent result cache (see
    /// [`Engine::check_with_cache`]).
    pub fn check_delta_with_cache(
        &self,
        old: &Layout,
        old_violations: &[Violation],
        new: &Layout,
        deck: &RuleDeck,
        cache: &mut ResultCache,
    ) -> DeltaCheckReport {
        let old_subtree = old.subtree_hashes();
        let new_keys = CacheKeys::compute(new);
        self.check_delta_keyed(
            old,
            &old_subtree,
            old_violations,
            new,
            &new_keys,
            deck,
            Some(cache),
        )
    }

    /// [`Engine::check_delta`] with precomputed content keys: the
    /// layouts are not re-hashed, so the structural diff only touches
    /// changed cells. `old_subtree` must be `old.subtree_hashes()` and
    /// `new_keys` must be [`CacheKeys::compute`] of `new` — edit
    /// sessions carry both across checks.
    #[allow(clippy::too_many_arguments)]
    pub fn check_delta_keyed(
        &self,
        old: &Layout,
        old_subtree: &[u64],
        old_violations: &[Violation],
        new: &Layout,
        new_keys: &CacheKeys,
        deck: &RuleDeck,
        cache: Option<&mut ResultCache>,
    ) -> DeltaCheckReport {
        let mut profiler = Profiler::new();
        let dirty = profiler.time("dirty-diff", || {
            dirty_rects_keyed(old, new, old_subtree, &new_keys.subtree)
        });
        let old_canon = canonicalize(old_violations.to_vec());
        if dirty.is_empty() {
            // Structurally identical layouts: nothing to re-run.
            let unchanged_count = old_canon.len();
            return DeltaCheckReport {
                violations: old_canon,
                delta: DeltaReport {
                    unchanged_count,
                    ..DeltaReport::default()
                },
                dirty,
                profile: profiler,
                stats: EngineStats::default(),
                interrupted: None,
            };
        }

        let mut by_rule: HashMap<&str, Vec<Violation>> = HashMap::new();
        for v in &old_canon {
            by_rule.entry(v.rule.as_str()).or_default().push(v.clone());
        }

        let mut stats = EngineStats::default();
        let (fresh, status, interrupted);
        {
            let mut ctx = RunContext::new(new, &self.options, &mut profiler, &mut stats);
            if let Some(cache) = cache {
                ctx = ctx.with_cache(CacheHandle {
                    cache,
                    keys: new_keys,
                });
            }
            let scope = self.begin_run(&ctx);
            (fresh, status, interrupted) = self.run_rules(&mut ctx, deck, Some(&dirty), None);
            self.finish_run(&mut ctx, scope);
        }

        // Splice each completed rule; a rule the run was cancelled out
        // of contributes nothing, so its set is never partial.
        let mut violations = Vec::new();
        for ((rule, fresh), st) in deck.rules().iter().zip(fresh).zip(status) {
            if st != RuleStatus::Completed {
                continue;
            }
            let olds = by_rule.remove(rule.name.as_str()).unwrap_or_default();
            match halo(rule, &dirty) {
                // One predicate on both sides makes the splice exact: old
                // violations outside the influence window survive
                // verbatim, fresh windowed results replace everything
                // inside it.
                Some(w) => {
                    violations.extend(olds.into_iter().filter(|v| !w.hits(v.location)));
                    violations.extend(fresh.into_iter().filter(|v| w.hits(v.location)));
                }
                // The fresh set simply replaces the rule's old one.
                None => violations.extend(fresh),
            }
        }
        let violations = canonicalize(violations);
        let delta = diff_canonical(&old_canon, &violations);
        DeltaCheckReport {
            violations,
            delta,
            dirty,
            profile: profiler,
            stats,
            interrupted,
        }
    }
}

/// The window a delta re-check restricts `rule` to: its interaction
/// distance around the dirt. Overlap area only changes where geometry
/// actually intersects the dirt, so its halo is zero. Intra-polygon
/// rules get none: the per-cell memo plus the persistent cache already
/// make a full pass cheap.
pub(crate) fn halo<'a>(rule: &Rule, dirty: &'a [Rect]) -> Option<DirtyWindow<'a>> {
    rule.family().interaction().map(|(_, reach)| DirtyWindow {
        rects: dirty,
        margin: clamp_margin(reach),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::rule;
    use odrc_gdsii::{Element, Library, Structure};

    fn lib(shift: i32) -> Library {
        let mut lib = Library::new("delta");
        let mut leaf = Structure::new("LEAF");
        leaf.elements.push(Element::boundary(
            1,
            vec![
                Point::new(0, 0),
                Point::new(0, 10),
                Point::new(10, 10),
                Point::new(10, 0),
            ],
        ));
        lib.structures.push(leaf);
        let mut top = Structure::new("TOP");
        top.elements.push(Element::sref("LEAF", Point::new(0, 0)));
        top.elements
            .push(Element::sref("LEAF", Point::new(shift, 0)));
        top.elements
            .push(Element::sref("LEAF", Point::new(0, 1000)));
        lib.structures.push(top);
        lib
    }

    #[test]
    fn identical_layouts_have_no_dirt() {
        let a = Layout::from_library(&lib(100)).unwrap();
        let b = Layout::from_library(&lib(100)).unwrap();
        assert!(dirty_rects(&a, &b).is_empty());
    }

    #[test]
    fn moved_ref_dirties_source_and_destination() {
        let a = Layout::from_library(&lib(100)).unwrap();
        let b = Layout::from_library(&lib(50)).unwrap();
        let dirt = dirty_rects(&a, &b);
        assert!(!dirt.is_empty());
        let covers = |r: Rect| dirt.iter().any(|d| d.contains_rect(r));
        // Old and new positions of the moved instance are both dirty...
        assert!(covers(Rect::from_coords(100, 0, 110, 10)));
        assert!(covers(Rect::from_coords(50, 0, 60, 10)));
        // ...and the untouched far instance is not.
        assert!(!dirt
            .iter()
            .any(|d| d.overlaps(Rect::from_coords(0, 1000, 10, 1010))));
    }

    #[test]
    fn delta_matches_full_check_both_directions() {
        let deck = RuleDeck::new(vec![
            rule().layer(1).space().greater_than(8).named("L1.S.1"),
            rule().layer(1).width().greater_than(4).named("L1.W.1"),
        ]);
        let clean = Layout::from_library(&lib(100)).unwrap();
        let tight = Layout::from_library(&lib(15)).unwrap(); // gap 5 < 8
        for engine in [Engine::sequential(), Engine::parallel()] {
            let base = engine.check(&clean, &deck);
            let report = engine.check_delta(&clean, &base.violations, &tight, &deck);
            let full = engine.check(&tight, &deck);
            assert_eq!(report.violations, full.violations);
            assert!(!report.delta.added.is_empty());
            assert!(report.delta.removed.is_empty());
            // A delta run is a run: the edit dirties a spacing row, so a
            // device-mode delta reports its dispatch work like a full
            // check does.
            if engine.mode() == crate::Mode::Parallel {
                assert!(report.stats.launches_fused > 0);
                assert!(report.profile.phase("device-wait-wall").is_some());
            }

            // Fixing the edit removes exactly what it added.
            let back = engine.check_delta(&tight, &report.violations, &clean, &deck);
            assert_eq!(back.violations, base.violations);
            assert_eq!(back.delta.removed, report.delta.added);
        }
    }

    #[test]
    fn no_edit_short_circuits() {
        let deck = RuleDeck::new(vec![rule()
            .layer(1)
            .space()
            .greater_than(8)
            .named("L1.S.1")]);
        let a = Layout::from_library(&lib(15)).unwrap();
        let b = Layout::from_library(&lib(15)).unwrap();
        let engine = Engine::sequential();
        let base = engine.check(&a, &deck);
        let report = engine.check_delta(&a, &base.violations, &b, &deck);
        assert!(report.dirty.is_empty());
        assert_eq!(report.violations, base.violations);
        assert!(report.delta.is_clean());
        assert_eq!(report.stats, EngineStats::default());
    }
}
