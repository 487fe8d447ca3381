//! The sequential (CPU) mode (§IV-D of the paper).
//!
//! "The sequential mode of OpenDRC first detects potential violations
//! between objects by querying overlapping MBRs of polygons or cells,
//! and then performs edge-based checks among those object pairs."
//!
//! [`check_rule`] is the mode's one dispatcher: it matches on
//! [`Rule::family`](crate::rules::Rule::family) and runs the family's
//! pipeline over the run's memoized scenes — or, given a
//! [`DirtyWindow`], over scenes restricted to an edit's halo (the delta
//! checker). Out-of-core shards call the same per-family pipelines
//! ([`check_space_scene_rows`], [`check_pairs_scenes`]) with shard
//! scenes.
//!
//! The spacing pipeline:
//!
//! 1. **partition** — adaptive row partition of the layer's objects
//!    (§IV-B), with extents inflated by half the rule distance so rows
//!    cannot interact;
//! 2. **sweepline** — per row, candidate object pairs are the
//!    overlapping inflated object MBRs. §IV-D (Fig. 3) finds them with
//!    the top-down interval-tree sweepline; this engine bulk-loads an
//!    R-tree per row instead (`rtree_overlaps`: same pairs, measured
//!    faster) and keeps the phase name the profiles are read by
//!    ([`row_candidate_pairs`]; the parallel mode's row pack calls it
//!    too, inside its fan-out, where its time is part of `pack`);
//! 3. **edge-check** — intra-object violations come from the per-cell
//!    memo (computed once per cell definition, §IV-C) and candidate
//!    pairs get windowed edge-to-edge checks.
//!
//! The pair pipeline (enclosure, overlap area) gathers each inner
//! shape's candidate outer polygons through a row join — each inner
//! window binary-searches the outer layer's §IV-B rows
//! ([`enclosure_work`]) — and measures them with [`pairs_measure`], the
//! same closure the device kernels run.

use std::collections::HashMap;
use std::sync::Arc;

use odrc_db::{CellId, Layer, Layout};
use odrc_geometry::{Coord, Polygon, Rect};
use odrc_infra::host::HostExecutor;
use odrc_infra::partition::{partition_rows_on, row_join_on, Row, RowPartition};
use odrc_infra::rtree::rtree_overlaps;
use odrc_infra::sweep::sweep_overlaps;
use odrc_infra::Profiler;

use crate::cache::CacheHandle;
use crate::checks::poly::{
    notch_space_violations, polygon_violations, space_violations_between, LocalViolation,
    PolyRuleSpec,
};
use crate::checks::{enclosure_margin, SpaceSpec};
use crate::engine::{EngineOptions, EngineStats};
use crate::plan::{IntraData, PlanCache, RowSet, RowSetKey, SharedDeviceData};
use crate::rules::{PairsRule, Rule, RuleFamily, RuleKind};
use crate::scene::{instance_transforms, DirtyWindow, LayerScene, SceneObject, SceneSource};
use crate::violation::{Violation, ViolationKind};

/// Shared state across the rules of one `check()` run.
pub(crate) struct RunContext<'a> {
    pub layout: &'a Layout,
    pub options: &'a EngineOptions,
    pub profiler: &'a mut Profiler,
    pub stats: &'a mut EngineStats,
    /// Lazily computed instance transforms for intra-polygon reuse.
    pub instances: Option<HashMap<CellId, Vec<odrc_geometry::Transform>>>,
    /// Persistent result cache plus the layout's content keys, when the
    /// caller opted into cross-run reuse.
    pub cache: Option<CacheHandle<'a>>,
    /// The per-run caches (scenes, row sets, intra polygon lists).
    pub plan: PlanCache,
    /// The shared host executor every hot host phase fans out on. Sized
    /// by `options.host_threads`; a one-thread executor runs its tasks
    /// inline on the caller.
    pub host: Arc<HostExecutor>,
    /// Wall-clock spans of every device wait ([`Self::device_wait`]).
    /// The engine merges them into an interval union at the end of the
    /// run: cumulative `kernel-wait` can exceed wall time when several
    /// pipelined waits cover the same physical seconds, so the union is
    /// reported alongside it as `device-wait-wall`.
    pub wait_spans: Vec<(std::time::Instant, std::time::Instant)>,
    /// The out-of-core shard residency pool, budgeted by
    /// `options.memory_budget`. Idle (and empty) unless the run routes
    /// rules through the sharded path.
    pub shard_pool: crate::shard::ShardPool,
}

impl<'a> RunContext<'a> {
    pub fn new(
        layout: &'a Layout,
        options: &'a EngineOptions,
        profiler: &'a mut Profiler,
        stats: &'a mut EngineStats,
    ) -> Self {
        RunContext {
            layout,
            options,
            profiler,
            stats,
            instances: None,
            cache: None,
            plan: PlanCache::default(),
            host: Arc::new(match &options.shared_pool {
                Some(pool) => HostExecutor::with_shared_pool(
                    options.resolved_host_threads(),
                    Arc::clone(pool),
                ),
                None => HostExecutor::new(options.resolved_host_threads()),
            }),
            wait_spans: Vec::new(),
            shard_pool: crate::shard::ShardPool::new(options.memory_budget),
        }
    }

    /// Attaches a persistent cache handle.
    pub fn with_cache(mut self, cache: CacheHandle<'a>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The full scene of `layer`, memoized across the rules of the run.
    /// Windowed (delta) scenes never go through this memo — they are
    /// rule-specific.
    pub fn layer_scene(&mut self, layer: Layer) -> Arc<LayerScene> {
        if let Some(scene) = self.plan.scenes.get(&layer) {
            self.stats.scenes_reused += 1;
            return Arc::clone(scene);
        }
        let (layout, host) = (self.layout, Arc::clone(&self.host));
        let scanned = &mut self.stats.scene_objects_scanned;
        let scene = Arc::new(self.profiler.time("scene", || {
            LayerScene::build_counted(layout, layer, None, &host, scanned)
        }));
        self.stats.scenes_built += 1;
        self.plan.scenes.insert(layer, Arc::clone(&scene));
        scene
    }

    /// The scene of `layer` a rule checks: the memoized full scene, or
    /// under a delta `window` a fresh one restricted to the objects near
    /// the dirt (windowed scenes are rule-specific).
    pub fn scene_for(&mut self, layer: Layer, window: Option<DirtyWindow<'_>>) -> Arc<LayerScene> {
        let Some(w) = window else {
            return self.layer_scene(layer);
        };
        let (layout, host) = (self.layout, HostExecutor::new(1));
        let scanned = &mut self.stats.scene_objects_scanned;
        Arc::new(self.profiler.time("scene", || {
            LayerScene::build_counted(layout, layer, Some(w), &host, scanned)
        }))
    }

    /// The packed, sorted row set of `layer` for a rule distance of
    /// `min`, memoized by [`RowSetKey`].
    pub fn row_set(&mut self, layer: Layer, min: i64) -> Arc<RowSet> {
        let key = RowSetKey::new(layer, min, self.options.partition);
        if let Some(rows) = self.plan.rows.get(&key) {
            return Arc::clone(rows);
        }
        let scene = self.layer_scene(layer);
        let rows = Arc::new(RowSet::build(self, &scene, min));
        self.plan.rows.insert(key, Arc::clone(&rows));
        rows
    }

    /// The packed unique-polygon list of `layer` for device-side intra
    /// rules (width, area), memoized per layer.
    pub fn intra_data(&mut self, layer: Layer) -> Arc<IntraData> {
        if let Some(data) = self.plan.intra.get(&layer) {
            return Arc::clone(data);
        }
        let layout = self.layout;
        let data = self.profiler.time("pack", || {
            let targets: Vec<(CellId, usize)> = layout.layer_polygons(layer).to_vec();
            let polys: Vec<Polygon> = targets
                .iter()
                .map(|&(c, pi)| layout.cell(c).polygons()[pi].polygon.clone())
                .collect();
            Arc::new(IntraData {
                targets: Arc::new(targets),
                polys: Arc::new(SharedDeviceData::new(Arc::new(polys))),
            })
        });
        self.plan.intra.insert(layer, Arc::clone(&data));
        data
    }

    /// Times a blocking device wait: charges the cumulative
    /// `kernel-wait` profiler phase (as before) *and* records the
    /// wall-clock span for the run-level interval union (see
    /// [`Self::wait_spans`]).
    pub fn device_wait<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = self.profiler.time("kernel-wait", f);
        self.wait_spans.push((start, std::time::Instant::now()));
        out
    }

    /// Tallies one shared-buffer acquisition: an elided upload, or an
    /// actual (shallow) transfer of `bytes`.
    pub fn note_upload(&mut self, elided: bool, bytes: u64) {
        if elided {
            self.stats.uploads_elided += 1;
        } else {
            self.stats.bytes_uploaded += bytes;
        }
    }
}

/// The selected layer (`None` = every layer) and the poly-rule spec of
/// an intra-polygon rule.
fn intra_spec(rule: &Rule) -> (Option<Layer>, PolyRuleSpec) {
    match &rule.kind {
        RuleKind::Width { layer, min } => (Some(*layer), PolyRuleSpec::Width(*min)),
        RuleKind::Area { layer, min } => (Some(*layer), PolyRuleSpec::Area(*min)),
        RuleKind::Rectilinear { layer } => (*layer, PolyRuleSpec::Rectilinear),
        RuleKind::Ensures {
            layer, predicate, ..
        } => (*layer, PolyRuleSpec::Ensures(predicate.clone())),
        _ => unreachable!("not an intra-polygon rule"),
    }
}

/// The `(cell, polygon indices)` groups an intra rule must visit.
fn intra_targets(layout: &Layout, layer: Option<Layer>) -> Vec<(CellId, Vec<usize>)> {
    match layer {
        Some(l) => {
            let mut grouped: HashMap<CellId, Vec<usize>> = HashMap::new();
            for &(cell, pi) in layout.layer_polygons(l) {
                grouped.entry(cell).or_default().push(pi);
            }
            let mut v: Vec<_> = grouped.into_iter().collect();
            v.sort_by_key(|(c, _)| *c);
            v
        }
        None => layout
            .cell_ids()
            .map(|cell| {
                let n = layout.cell(cell).polygons().len();
                (cell, (0..n).collect::<Vec<_>>())
            })
            .filter(|(_, ps)| !ps.is_empty())
            .collect(),
    }
}

/// Runs an intra-polygon rule (width, area, rectilinear, ensures) with
/// per-cell memoization (§IV-C).
pub(crate) fn check_intra_rule(ctx: &mut RunContext<'_>, rule: &Rule, out: &mut Vec<Violation>) {
    let (layer, spec) = intra_spec(rule);
    let targets = intra_targets(ctx.layout, layer);
    let layout = ctx.layout;
    let pruning = ctx.options.pruning;
    // Persistent reuse is keyed by the cell's *local* content hash:
    // intra-polygon verdicts depend only on the cell's own geometry.
    let sig = if pruning {
        crate::cache::rule_signature(rule)
    } else {
        None
    };

    // Compute local violations per cell (once, under pruning), serving
    // them from the persistent cache when the content is known. Cache
    // consults stay on the calling thread (the handle is exclusive);
    // the polygon checks of the misses fan out and come back in target
    // order, so instantiation below never depends on the thread count.
    let start = std::time::Instant::now();
    let cached: Vec<Option<Arc<Vec<LocalViolation>>>> = targets
        .iter()
        .map(|(cell, _)| {
            let (sig, handle) = (sig?, ctx.cache.as_mut()?);
            handle.cache.get(sig, handle.keys.local[cell.index()])
        })
        .collect();
    let missing: Vec<usize> = (0..targets.len())
        .filter(|&ti| cached[ti].is_none())
        .collect();
    let mut fresh = ctx
        .host
        .run("edge-check", missing.len(), |i| {
            let (cell, polys) = &targets[missing[i]];
            let c = layout.cell(*cell);
            let mut local = Vec::new();
            for &pi in polys {
                polygon_violations(&c.polygons()[pi], &spec, &mut local);
            }
            Arc::new(local)
        })
        .into_iter();
    ctx.profiler.add("edge-check", start.elapsed());

    // Instantiate through every placement of the cell.
    let instances = ctx
        .instances
        .get_or_insert_with(|| instance_transforms(layout));
    let mut computed = 0usize;
    let mut reused = 0usize;
    for ((cell, polys), hit) in targets.iter().zip(cached) {
        let from_cache = hit.is_some();
        let local = hit.unwrap_or_else(|| {
            let arc = fresh.next().expect("one result per cache miss");
            if let (Some(sig), Some(handle)) = (sig, ctx.cache.as_mut()) {
                let key = handle.keys.local[cell.index()];
                handle.cache.insert(sig, key, Arc::clone(&arc));
            }
            arc
        });
        let Some(transforms) = instances.get(cell) else {
            continue; // defined but never instantiated
        };
        let polys = polys.len();
        if pruning {
            if from_cache {
                reused += polys;
            } else {
                computed += polys;
            }
            reused += polys * transforms.len().saturating_sub(1);
        } else {
            // Ablation: pretend each instance is checked independently.
            computed += polys * transforms.len();
            // Actually recompute to make the cost real.
            if transforms.len() > 1 {
                let c = layout.cell(*cell);
                ctx.profiler.time("edge-check", || {
                    for _ in 1..transforms.len() {
                        let mut scratch = Vec::new();
                        for p in c.polygons() {
                            if layer.map(|l| p.layer == l).unwrap_or(true) {
                                polygon_violations(p, &spec, &mut scratch);
                            }
                        }
                    }
                });
            }
        }
        for t in transforms {
            for v in local.iter() {
                let vi = v.instantiate(t);
                out.push(Violation {
                    rule: rule.name.clone(),
                    kind: vi.kind,
                    location: vi.location,
                    measured: vi.measured,
                });
            }
        }
    }
    ctx.stats.checks_computed += computed;
    ctx.stats.checks_reused += reused;
}

/// The §IV-C memo of one spacing rule: each placed cell's internal
/// violations, in cell-local coordinates.
pub(crate) type CellMemo = HashMap<CellId, Arc<Vec<LocalViolation>>>;

/// The row partition of a set of object MBRs for a rule distance of
/// `min` (extents inflated by half of it, so rows cannot interact) —
/// or, with the partition ablated, one row holding everything.
pub(crate) fn partition_mbrs(
    mbrs: &[Rect],
    min: i64,
    enabled: bool,
    profiler: &mut Profiler,
    host: &HostExecutor,
) -> RowPartition {
    let half = ((min + 1) / 2) as Coord;
    profiler.time("partition", || {
        if enabled {
            return partition_rows_on(mbrs, half, host);
        }
        let rows = mbrs.iter().copied().reduce(Rect::hull).map(|all| Row {
            y: all.y_range(),
            members: (0..mbrs.len()).collect(),
        });
        RowPartition::from_rows(rows.into_iter().collect())
    })
}

/// [`partition_mbrs`] over a scene's objects: row members are indices
/// into `scene.objects`.
pub(crate) fn partition_scene(
    scene: &LayerScene,
    min: i64,
    enabled: bool,
    profiler: &mut Profiler,
    host: &HostExecutor,
) -> RowPartition {
    let mbrs: Vec<Rect> = scene.objects.iter().map(|o| o.mbr).collect();
    partition_mbrs(&mbrs, min, enabled, profiler, host)
}

/// Runs one rule on the host — the sequential mode's dispatcher, for
/// full checks (`window` = `None`) and delta re-checks alike.
pub(crate) fn check_rule(
    ctx: &mut RunContext<'_>,
    rule: &Rule,
    window: Option<DirtyWindow<'_>>,
    out: &mut Vec<Violation>,
) {
    match rule.family() {
        RuleFamily::Space { layer, spec } => {
            let scene = ctx.scene_for(layer, window);
            let enabled = ctx.options.partition;
            let partition = partition_scene(&scene, spec.min, enabled, ctx.profiler, &ctx.host);
            ctx.stats.rows += partition.len();
            let rows: Vec<&[usize]> = partition.iter().map(|r| r.members.as_slice()).collect();
            let sig = crate::cache::rule_signature(rule);
            let mut memo = CellMemo::new();
            check_space_scene_rows(ctx, &rule.name, &scene, &rows, spec, sig, &mut memo, out);
        }
        RuleFamily::Pairs(pairs) => {
            let (inner_scene, outer_scene) = enclosure_scenes(ctx, pairs, window);
            check_pairs_scenes(
                ctx,
                &rule.name,
                pairs,
                &inner_scene,
                &outer_scene,
                window,
                out,
            );
        }
        RuleFamily::Intra => check_intra_rule(ctx, rule, out),
    }
}

/// The spacing row pipeline — the one row loop of the host path, shared
/// by in-core rules, delta windows and out-of-core shards. `rows` are
/// lists of indices into `scene.objects`; rows must not interact (a
/// partition inflated by half the rule distance guarantees it).
///
/// The per-cell memo (§IV-C) is resolved first on the calling thread,
/// so its bookkeeping — persistent-cache consults under `sig`, reuse
/// counters — follows first-occurrence order; then the rows run as
/// executor tasks (sweepline over inflated object MBRs, memoized
/// intra-object hits, windowed pair checks) and merge in row order. A
/// one-thread executor runs the same tasks inline, so the violation
/// list and every counter are identical for any thread count.
///
/// `memo` belongs to the *rule*: a per-cell result is in cell-local
/// coordinates, so a cell resolved by an earlier call (an earlier shard
/// of the same rule) is reused, not recomputed. Callers that check the
/// rule in one call pass an empty map.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_space_scene_rows(
    ctx: &mut RunContext<'_>,
    rule_name: &str,
    scene: &LayerScene,
    rows: &[&[usize]],
    spec: SpaceSpec,
    sig: Option<u64>,
    memo: &mut CellMemo,
    out: &mut Vec<Violation>,
) {
    let half = ((spec.min + 1) / 2) as Coord;
    let pruning = ctx.options.pruning;

    // Phase 1: resolve every unique cell once — memo hits for repeat
    // placements, persistent-cache consults in first-occurrence order,
    // and a fan-out over the actual misses.
    if pruning {
        let mut order: Vec<CellId> = Vec::new();
        let mut seen: std::collections::HashSet<CellId> = Default::default();
        let mut occurrences = 0usize;
        for &m in rows.iter().copied().flatten() {
            if let SceneSource::Cell { cell, .. } = scene.objects[m].source {
                occurrences += 1;
                if seen.insert(cell) {
                    order.push(cell);
                }
            }
        }
        ctx.stats.checks_reused += occurrences - order.len();
        let mut missing: Vec<CellId> = Vec::new();
        for &cell in &order {
            if memo.contains_key(&cell) {
                ctx.stats.checks_reused += 1;
                continue;
            }
            let mut hit = None;
            if let (Some(sig), Some(handle)) = (sig, ctx.cache.as_mut()) {
                let key = handle.keys.subtree[cell.index()];
                hit = handle.cache.get(sig, key);
            }
            match hit {
                Some(arc) => {
                    ctx.stats.checks_reused += 1;
                    memo.insert(cell, arc);
                }
                None => missing.push(cell),
            }
        }
        let start = std::time::Instant::now();
        let computed = ctx.host.run("edge-check", missing.len(), |i| {
            Arc::new(cell_internal_space(scene, missing[i], spec, half))
        });
        ctx.profiler.add("edge-check", start.elapsed());
        for (&cell, arc) in missing.iter().zip(computed) {
            ctx.stats.checks_computed += 1;
            if let (Some(sig), Some(handle)) = (sig, ctx.cache.as_mut()) {
                let key = handle.keys.subtree[cell.index()];
                handle.cache.insert(sig, key, Arc::clone(&arc));
            }
            memo.insert(cell, arc);
        }
    }

    // Phase 2: independent rows fan out; each task returns its hits in
    // row-local discovery order plus its phase timings and counters.
    struct RowOutput {
        hits: Vec<LocalViolation>,
        pairs: usize,
        computed: usize,
        sweep: std::time::Duration,
        check: std::time::Duration,
    }
    let memo = &*memo;
    let results: Vec<RowOutput> = ctx.host.run("edge-check", rows.len(), |ri| {
        let members = rows[ri];
        let sweep_start = std::time::Instant::now();
        let pairs = row_candidate_pairs(scene, members, half);
        let sweep = sweep_start.elapsed();

        let check_start = std::time::Instant::now();
        let mut hits: Vec<LocalViolation> = Vec::new();
        let mut computed = 0usize;
        for &m in members {
            match scene.objects[m].source {
                SceneSource::Cell { cell, transform } => {
                    if pruning {
                        let arc = memo.get(&cell).expect("memo covers every placed cell");
                        hits.extend(arc.iter().map(|v| v.instantiate(&transform)));
                    } else {
                        computed += 1;
                        let local = cell_internal_space(scene, cell, spec, half);
                        hits.extend(local.iter().map(|v| v.instantiate(&transform)));
                    }
                }
                SceneSource::TopPolygon { index } => {
                    notch_space_violations(scene.top_polygon(index), spec, &mut hits);
                }
            }
        }
        let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
        for &(a, b) in &pairs {
            cross_space(
                scene,
                &scene.objects[members[a]],
                &scene.objects[members[b]],
                spec,
                &mut buf_a,
                &mut buf_b,
                &mut hits,
            );
        }
        RowOutput {
            hits,
            pairs: pairs.len(),
            computed,
            sweep,
            check: check_start.elapsed(),
        }
    });

    // Phase 3: deterministic merge in row order.
    for r in results {
        ctx.stats.candidate_pairs += r.pairs;
        ctx.stats.checks_computed += r.computed;
        ctx.profiler.add("sweepline", r.sweep);
        ctx.profiler.add("edge-check", r.check);
        out.extend(r.hits.into_iter().map(|v| Violation {
            rule: rule_name.to_owned(),
            kind: v.kind,
            location: v.location,
            measured: v.measured,
        }));
    }
}

/// The candidate object pairs of one row, as positions `(a, b)` into
/// `members`, `a < b`: the members whose MBRs inflated by `half`
/// overlap. Both modes' meaning of "candidate" — the sequential row loop
/// edge-checks these pairs, [`RowSet::build`] packs inside their windows.
pub(crate) fn row_candidate_pairs(
    scene: &LayerScene,
    members: &[usize],
    half: Coord,
) -> Vec<(usize, usize)> {
    let inflated: Vec<Rect> = members
        .iter()
        .map(|&m| scene.objects[m].mbr.inflate(half))
        .collect();
    let mut pairs = Vec::new();
    rtree_overlaps(&inflated, |a, b| pairs.push((a, b)));
    pairs
}

/// Where two objects can violate a distance rule of at most `reach`
/// against each other: the intersection of their inflated MBRs. A point
/// of `a` within `reach` of `b` lies in it (and vice versa), so only
/// polygons overlapping the window take part in a cross-object violation.
pub(crate) fn pair_window(a: &SceneObject, b: &SceneObject, reach: Coord) -> Option<Rect> {
    a.mbr.inflate(reach).intersection(b.mbr.inflate(reach))
}

/// Spacing violations inside one cell's flattened subtree, in local
/// coordinates (this is the per-cell result §IV-C reuses).
fn cell_internal_space(
    scene: &LayerScene,
    cell: CellId,
    spec: SpaceSpec,
    half: Coord,
) -> Vec<LocalViolation> {
    let polys = scene.local_polygons(cell);
    let mut out = Vec::new();
    for p in polys {
        notch_space_violations(p, spec, &mut out);
    }
    let inflated: Vec<Rect> = polys.iter().map(|p| p.mbr().inflate(half)).collect();
    sweep_overlaps(&inflated, |a, b| {
        if polys[a].mbr().gap(polys[b].mbr()) < spec.min {
            space_violations_between(&polys[a], &polys[b], spec, &mut out);
        }
    });
    out
}

/// Edge checks between the near-border polygons of two objects.
///
/// `buf_a` / `buf_b` are caller-owned scratch buffers reused across
/// pairs (this runs once per candidate pair in every row — a fresh
/// `Vec<Polygon>` per call used to dominate the allocator here).
fn cross_space(
    scene: &LayerScene,
    a: &SceneObject,
    b: &SceneObject,
    spec: SpaceSpec,
    buf_a: &mut Vec<Polygon>,
    buf_b: &mut Vec<Polygon>,
    out: &mut Vec<LocalViolation>,
) {
    let Some(window) = pair_window(a, b, spec.min as Coord) else {
        return;
    };
    buf_a.clear();
    scene.object_polygons_in_into(a, window, buf_a);
    if buf_a.is_empty() {
        return;
    }
    buf_b.clear();
    scene.object_polygons_in_into(b, window, buf_b);
    for qa in buf_a.iter() {
        for qb in buf_b.iter() {
            if qa.mbr().gap(qb.mbr()) < spec.min {
                space_violations_between(qa, qb, spec, out);
            }
        }
    }
}

/// The `(inner, outer)` scene pair of an in-core enclosure / overlap
/// rule. Under a delta window only the inner objects near the dirt are
/// kept; the outer scene stays complete so every retained inner shape
/// sees its full candidate set and measures its exact margin.
pub(crate) fn enclosure_scenes(
    ctx: &mut RunContext<'_>,
    pairs: PairsRule,
    window: Option<DirtyWindow<'_>>,
) -> (Arc<LayerScene>, Arc<LayerScene>) {
    let inner_scene = ctx.scene_for(pairs.inner, window);
    (inner_scene, ctx.layer_scene(pairs.outer))
}

/// Gathers the enclosure work list: every flat inner shape (of those
/// hitting `window`, when given) paired with its candidate outer
/// polygons. This is the one candidate-discovery path of enclosure and
/// overlap-area rules — in-core (both modes), delta windows and
/// out-of-core shards differ only in the scenes they pass.
///
/// Candidate discovery is hierarchical and output-sensitive: the row
/// join (`row_join_on`) pairs the inner MBRs (inflated by the rule
/// margin) with the *object-level* layer MBRs of the outer scene; only
/// objects whose layer MBR overlaps an inner shape get their geometry
/// instantiated, and only the polygons inside the inner shape's window.
/// Each shape's objects are visited in ascending scene order, so the
/// candidate lists do not depend on the thread count.
pub(crate) fn enclosure_work(
    ctx: &mut RunContext<'_>,
    inner_scene: &LayerScene,
    outer_scene: &LayerScene,
    min: i64,
    window: Option<DirtyWindow<'_>>,
) -> Vec<(Polygon, Vec<Polygon>)> {
    let m = min as Coord;
    let mut inner_polys: Vec<Polygon> = Vec::new();
    for obj in &inner_scene.objects {
        inner_scene.object_polygons_into(obj, &mut inner_polys);
    }
    if let Some(w) = window {
        inner_polys.retain(|p| w.hits(p.mbr()));
    }
    let windows: Vec<Rect> = inner_polys.iter().map(|p| p.mbr().inflate(m)).collect();
    let outer_mbrs: Vec<Rect> = outer_scene.objects.iter().map(|o| o.mbr).collect();
    let host = Arc::clone(&ctx.host);
    let join = row_join_on(&windows, &outer_mbrs, &host);
    ctx.profiler.add("sweepline", join.busy);
    ctx.stats.join_candidates += join.hits.iter().map(|h| h.len() as u64).sum::<u64>();
    ctx.stats.join_scanned += join.scanned;
    let start = std::time::Instant::now();
    let candidates = host.run("enclosure-gather", inner_polys.len(), |i| {
        let mut candidates = Vec::new();
        for &oi in &join.hits[i] {
            outer_scene.object_polygons_in_into(
                &outer_scene.objects[oi],
                windows[i],
                &mut candidates,
            );
        }
        candidates
    });
    ctx.profiler.add("enclosure-gather", start.elapsed());
    inner_polys.into_iter().zip(candidates).collect()
}

/// The per-shape measurement of a pair rule, shared by the host
/// pipeline, the device kernel and its recovery paths: the enclosure
/// margin, or the shared (boolean AND) area with the candidates ("minimum
/// overlapping area constraints", §II).
pub(crate) fn pairs_measure(
    pairs: PairsRule,
) -> impl Fn(&Polygon, &[Polygon]) -> i64 + Send + Sync + Clone + 'static {
    move |poly, candidates| match pairs.kind {
        ViolationKind::Enclosure => {
            let refs: Vec<&Polygon> = candidates.iter().collect();
            enclosure_margin(poly.mbr(), &refs, pairs.min)
        }
        _ => {
            use odrc_infra::Region;
            let inner_region = Region::from_polygons([poly]);
            let outer_region = Region::from_polygons(candidates.iter());
            inner_region.intersection(&outer_region).area()
        }
    }
}

/// The pair pipeline over already-built scenes (the run memo's, a
/// delta window's, or an out-of-core shard's): gather each inner
/// shape's candidates, measure every `(shape, candidates)` unit as an
/// executor task, and report the shapes measuring below the rule's
/// minimum at their MBR, in work order.
pub(crate) fn check_pairs_scenes(
    ctx: &mut RunContext<'_>,
    rule_name: &str,
    pairs: PairsRule,
    inner_scene: &LayerScene,
    outer_scene: &LayerScene,
    window: Option<DirtyWindow<'_>>,
    out: &mut Vec<Violation>,
) {
    let work = enclosure_work(ctx, inner_scene, outer_scene, pairs.gather(), window);
    let phase = match pairs.kind {
        ViolationKind::Enclosure => "enclosure-check",
        _ => "overlap-check",
    };
    let value = pairs_measure(pairs);
    ctx.stats.checks_computed += work.len();
    let start = std::time::Instant::now();
    let measured = ctx.host.run(phase, work.len(), |i| {
        let (poly, candidates) = &work[i];
        let measured = value(poly, candidates);
        (measured < pairs.min).then(|| Violation {
            rule: rule_name.to_owned(),
            kind: pairs.kind,
            location: poly.mbr(),
            measured,
        })
    });
    ctx.profiler.add(phase, start.elapsed());
    out.extend(measured.into_iter().flatten());
}
