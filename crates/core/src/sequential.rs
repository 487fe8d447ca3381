//! The sequential (CPU) mode (§IV-D of the paper).
//!
//! "The sequential mode of OpenDRC first detects potential violations
//! between objects by querying overlapping MBRs of polygons or cells,
//! and then performs edge-based checks among those object pairs."
//!
//! [`check_rule`] is the host executor's rule body: it matches on
//! [`Rule::family`](crate::rules::Rule::family) and runs the family's
//! pipeline over the run's memoized scenes — or, given a
//! [`DirtyWindow`], over scenes restricted to an edit's halo (the delta
//! checker). The engine's one rule loop issues it for every rule of a
//! default-mode run, full or delta, and under `--parallel` for the rules
//! without a device body. Out-of-core shards call the same
//! per-family pipelines ([`check_space_scene_rows`],
//! [`check_pairs_scenes`]) with shard scenes.
//!
//! The spacing pipeline checks the parallel mode's units (the
//! [planner](crate::plan)'s templates and rows) with the device
//! kernels' host body, each packed, checked and dropped in one task:
//!
//! 1. **partition** — adaptive row partition of the layer's objects
//!    (§IV-B), with extents inflated by half the rule distance so rows
//!    cannot interact;
//! 2. **sweepline** — per row, candidate object pairs are the
//!    overlapping inflated object MBRs. §IV-D (Fig. 3) finds them with
//!    the top-down interval-tree sweepline; this engine scans the row's
//!    MBRs sorted by left edge against a short active list instead
//!    (`scan_overlaps`: same pairs, measured faster than the sweepline
//!    and than a per-row R-tree, both kept as its test references) and
//!    keeps the phase name the profiles are read by
//!    ([`row_candidate_pairs`]; the parallel mode's row pack calls it
//!    too, inside its fan-out, where its time is part of `pack`);
//! 3. **pack** — each placed cell once as a template ([`pack_cell`],
//!    §IV-C), each row as the edges in its pairs' windows ([`pack_row`]);
//! 4. **edge-check** — [`row_host_records`] per unit; a template's
//!    violations are memoized per cell and replayed per placement.
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
use odrc_infra::partition::{partition_rows, row_join_on, Row, RowPartition};
use odrc_infra::sweep::scan_overlaps;
use odrc_infra::Profiler;

use crate::cache::CacheHandle;
use crate::checks::poly::{polygon_violations, LocalViolation, PolyRuleSpec};
use crate::checks::{enclosure_margin, SpaceSpec};
use crate::engine::{EngineOptions, EngineStats};
use crate::parallel::{record_violation, row_host_records};
use crate::plan::{
    pack_cell, pack_row, templates_of, IntraData, PackedEdge, PlanCache, RowSet, RowSetKey,
    SharedDeviceData,
};
use crate::rules::{PairsRule, Rule, RuleFamily, RuleKind};
use crate::scene::{instance_transforms, DirtyWindow, LayerScene, SceneSource};
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
        let (layout, host) = (self.layout, Arc::clone(&self.host));
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
fn check_intra_rule(ctx: &mut RunContext<'_>, rule: &Rule, out: &mut Vec<Violation>) {
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
            out.extend(local.iter().map(|v| v.instantiate(t).named(&rule.name)));
        }
    }
    ctx.stats.checks_computed += computed;
    ctx.stats.checks_reused += reused;
}

/// The §IV-C memo of one spacing rule: each placed cell's internal
/// violations, in cell-local coordinates, indexed by cell (every row
/// consults it once per placement).
pub(crate) type CellMemo = Vec<Option<Arc<Vec<LocalViolation>>>>;

/// The row partition of a set of object MBRs for a rule distance of
/// `min` (extents inflated by half of it, so rows cannot interact) —
/// or, with the partition ablated, one row holding everything.
pub(crate) fn partition_mbrs(
    mbrs: &[Rect],
    min: i64,
    enabled: bool,
    profiler: &mut Profiler,
) -> RowPartition {
    let half = ((min + 1) / 2) as Coord;
    profiler.time("partition", || {
        if enabled {
            return partition_rows(mbrs, half);
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
) -> RowPartition {
    let mbrs: Vec<Rect> = scene.objects.iter().map(|o| o.mbr).collect();
    partition_mbrs(&mbrs, min, enabled, profiler)
}

/// Runs one rule on the host — the host executor's rule body, for full
/// checks (`window` = `None`) and delta re-checks alike.
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
            let partition = partition_scene(&scene, spec.min, enabled, ctx.profiler);
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

/// The spacing row pipeline — the one host spacing driver, shared by
/// in-core rules, delta windows and out-of-core shards. `rows` are
/// lists of indices into `scene.objects`; rows must not interact (a
/// partition inflated by half the rule distance guarantees it).
///
/// The templates (§IV-C) are resolved first, on the calling thread, so
/// their bookkeeping — persistent-cache consults under `sig`, reuse
/// counters — follows first-occurrence order; the misses are packed and
/// checked as one fan-out. Then each row is one executor task and the
/// tasks merge in row order. A one-thread executor runs the same tasks
/// inline, so the violation list and every counter are identical for
/// any thread count — and equal to the parallel mode's.
///
/// `memo` belongs to the *rule*: a template's violations are in
/// cell-local coordinates, so a cell resolved by an earlier call (an
/// earlier shard of the same rule) is reused, not recomputed. Callers
/// that check the rule in one call pass an empty map.
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
    // The row set's window reach, so both modes pack the same edges.
    let reach = half.saturating_mul(2);
    let pruning = ctx.options.pruning;
    memo.resize(ctx.layout.cell_count(), None);

    // Phase 1: resolve every unique cell once — memo hits for repeat
    // placements, persistent-cache consults in first-occurrence order,
    // and a fan-out over the actual misses.
    if pruning {
        let cells = templates_of(scene, rows.iter().flat_map(|r| r.iter().copied()));
        let occurrences: usize = cells.iter().map(|(_, placements)| placements.len()).sum();
        ctx.stats.checks_reused += occurrences - cells.len();
        let mut missing: Vec<CellId> = Vec::new();
        for &(cell, _) in &cells {
            let cached = || {
                let (sig, handle) = (sig?, ctx.cache.as_mut()?);
                handle.cache.get(sig, handle.keys.subtree[cell.index()])
            };
            match memo[cell.index()].clone().or_else(cached) {
                Some(arc) => {
                    ctx.stats.checks_reused += 1;
                    memo[cell.index()] = Some(arc);
                }
                None => missing.push(cell),
            }
        }
        let templates = ctx.host.run("edge-check", missing.len(), |i| {
            SpaceUnit::check(spec, RowPairs::default, |_| pack_cell(scene, missing[i]))
        });
        for (&cell, unit) in missing.iter().zip(templates) {
            let hits = Arc::new(unit.tally(ctx));
            if let (Some(sig), Some(handle)) = (sig, ctx.cache.as_mut()) {
                let key = handle.keys.subtree[cell.index()];
                handle.cache.insert(sig, key, Arc::clone(&hits));
            }
            memo[cell.index()] = Some(hits);
        }
    }

    // Phase 2: independent rows fan out.
    let memo = &*memo;
    let results = ctx.host.run("edge-check", rows.len(), |ri| {
        let members = rows[ri];
        let discover = || row_candidate_pairs(scene, members, half, pruning);
        let pack = |pairs: &[(usize, usize)]| pack_row(scene, members, pairs, reach, pruning);
        let mut unit = SpaceUnit::check(spec, discover, pack);
        // Each placement's own violations are its template's (none
        // without pruning: the flat row packed them).
        for &m in members {
            if let SceneSource::Cell { cell, transform } = scene.objects[m].source {
                let local = memo[cell.index()].iter().flat_map(|l| l.iter());
                unit.hits.extend(local.map(|v| v.instantiate(&transform)));
            }
        }
        unit
    });

    // Phase 3: deterministic merge in row order.
    for unit in results {
        let hits = unit.tally(ctx);
        out.extend(hits.into_iter().map(|v| v.named(rule_name)));
    }
}

/// One checked spacing unit (a template or a row): its violations in
/// the unit's coordinates, its counters and its phase times.
struct SpaceUnit {
    hits: Vec<LocalViolation>,
    records: usize,
    edges: usize,
    pairs: usize,
    scanned: u64,
    times: [std::time::Duration; 3],
}

impl SpaceUnit {
    /// Discovers pairs, packs, and runs [`row_host_records`].
    fn check(
        spec: SpaceSpec,
        discover: impl FnOnce() -> RowPairs,
        pack: impl FnOnce(&[(usize, usize)]) -> Vec<PackedEdge>,
    ) -> SpaceUnit {
        let start = std::time::Instant::now();
        let RowPairs { pairs, scanned } = discover();
        let packing = std::time::Instant::now();
        let edges = pack(&pairs);
        let checking = std::time::Instant::now();
        let hits: Vec<LocalViolation> = row_host_records(&edges, spec)
            .into_iter()
            .map(|rec| record_violation(&edges, rec))
            .collect();
        SpaceUnit {
            records: hits.len(),
            hits,
            edges: edges.len(),
            pairs: pairs.len(),
            scanned,
            times: [packing - start, checking - packing, checking.elapsed()],
        }
    }

    /// Charges the counters and times to the run; returns the hits.
    fn tally(self, ctx: &mut RunContext<'_>) -> Vec<LocalViolation> {
        ctx.stats.checks_computed += self.records;
        ctx.stats.edges_packed += self.edges as u64;
        ctx.stats.candidate_pairs += self.pairs;
        ctx.stats.pairs_scanned += self.scanned;
        for (phase, time) in ["sweepline", "pack", "edge-check"]
            .into_iter()
            .zip(self.times)
        {
            ctx.profiler.add(phase, time);
        }
        self.hits
    }
}

/// The candidate object pairs of one row and what finding them cost.
#[derive(Debug, Default)]
pub(crate) struct RowPairs {
    /// Positions `(a, b)` into the row's members, `a < b`.
    pub pairs: Vec<(usize, usize)>,
    /// The scan's active-list comparisons ([`EngineStats::pairs_scanned`]).
    pub scanned: u64,
}

/// The candidate object pairs of one row, as positions `(a, b)` into
/// `members`, `a < b`: the members whose MBRs inflated by `half`
/// overlap, found by [`scan_overlaps`]. Both modes' meaning of
/// "candidate" — the pack keeps only the polygons inside their windows
/// ([`pack_row`]). Without `pruning` there are none: the flat pack
/// keeps every polygon.
pub(crate) fn row_candidate_pairs(
    scene: &LayerScene,
    members: &[usize],
    half: Coord,
    pruning: bool,
) -> RowPairs {
    if !pruning {
        return RowPairs::default();
    }
    let inflated: Vec<Rect> = members
        .iter()
        .map(|&m| scene.objects[m].mbr.inflate(half))
        .collect();
    let mut pairs = Vec::new();
    let scanned = scan_overlaps(&inflated, |a, b| pairs.push((a, b)));
    RowPairs { pairs, scanned }
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
