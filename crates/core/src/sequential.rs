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
//! The spacing pipeline is [`SpaceWork`] in both modes. Its units are
//! the [planner](crate::plan)'s templates and rows, which the default
//! mode checks with the device kernels' host body, one task each:
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
//! 3. **pack** — each placed cell once as a template (§IV-C), each row
//!    as the edges in its pairs' windows ([`pack_unit`]);
//! 4. **edge-check** — [`row_host_records`] per unit. A template the
//!    memo or the persistent cache answers is not a unit;
//!    [`SpaceWork::finish`] replays every template through its
//!    placements, the scene's `Cell` objects.
//!
//! The intra-polygon pipeline (width, area, rectilinear, ensures) is
//! [`IntraWork`]: each placed cell's polygons on the rule's layer are
//! checked once (§IV-C), unless the persistent cache holds the cell's
//! verdicts, and the cell's local violations are replayed through its
//! instances. Both modes run it; only the fan-out differs (host tasks
//! over fixed blocks of targets here, one device thread per target in
//! the parallel mode).
//!
//! The pair pipeline (enclosure, overlap area) finds each inner shape's
//! candidate outer objects through a row join — each inner window
//! binary-searches the outer layer's §IV-B rows — and measures every
//! shape straight from the two scenes ([`PairsWork`]): host tasks over
//! fixed blocks of shapes call [`PairsWork::measure`], which the device
//! kernels run too. No per-shape work list is built.

use std::sync::Arc;

use odrc_db::{CellId, Layer, LayerPolygon, Layout};
use odrc_geometry::{Coord, Rect, Transform};
use odrc_infra::host::HostExecutor;
use odrc_infra::partition::{partition_rows, row_join_on, Row, RowJoin, RowPartition};
use odrc_infra::sweep::scan_overlaps;
use odrc_infra::Profiler;

use crate::cache::CacheHandle;
use crate::checks::poly::{polygon_violations, LocalViolation, PolyRuleSpec};
use crate::checks::{placed_enclosure_margin, Placed, SpaceSpec};
use crate::engine::{EngineOptions, EngineStats};
use crate::parallel::{record_violation, row_host_records};
use crate::plan::{pack_unit, PlanCache, RowSet, RowSetKey};
use crate::rules::{PairsRule, PolygonInfo, Rule, RuleFamily, RuleKind};
use crate::scene::{assemble, cell_instances, DirtyWindow, LayerObjects, LayerScene, SceneSource};
use crate::violation::{Violation, ViolationKind};

/// Shared state across the rules of one `check()` run.
pub(crate) struct RunContext<'a> {
    pub layout: &'a Layout,
    pub options: &'a EngineOptions,
    pub profiler: &'a mut Profiler,
    pub stats: &'a mut EngineStats,
    /// The intra rules' instance table ([`cell_instances`]), built at the
    /// first intra rule.
    pub instances: Option<Vec<Vec<Transform>>>,
    /// Persistent result cache plus the layout's content keys, when the
    /// caller opted into cross-run reuse.
    pub cache: Option<CacheHandle<'a>>,
    /// The per-run caches (scenes and row sets).
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
        let scene = Arc::new(self.build_scene(layer, None));
        self.stats.scenes_built += 1;
        self.plan.scenes.insert(layer, Arc::clone(&scene));
        scene
    }

    /// The scene of `layer` a rule checks: the memoized full scene, or
    /// under a delta `window` a fresh one restricted to the objects near
    /// the dirt (windowed scenes are rule-specific).
    pub fn scene_for(&mut self, layer: Layer, window: Option<DirtyWindow<'_>>) -> Arc<LayerScene> {
        match window {
            None => self.layer_scene(layer),
            Some(_) => Arc::new(self.build_scene(layer, window)),
        }
    }

    /// One scene build: pass 1 (added to `scene_objects_scanned`), the
    /// members [`LayerObjects::near`] `window`, then pass 2.
    fn build_scene(&mut self, layer: Layer, window: Option<DirtyWindow<'_>>) -> LayerScene {
        let (layout, host) = (self.layout, Arc::clone(&self.host));
        let scanned = &mut self.stats.scene_objects_scanned;
        self.profiler.time("scene", || {
            let objects = LayerObjects::enumerate(layout, layer, scanned);
            assemble(layout, layer, &objects, &objects.near(window), &host)
        })
    }

    /// The packed, sorted row set of `layer` for a rule distance of
    /// `min`, memoized by [`RowSetKey`] while the run's counted
    /// consumers of it remain ([`PlanCache::acquired`]).
    pub fn row_set(&mut self, layer: Layer, min: i64) -> Arc<RowSet> {
        let key = RowSetKey::new(layer, min, self.options.partition);
        let rows = match self.plan.rows.get(&key) {
            Some(rows) => Arc::clone(rows),
            None => {
                let scene = self.layer_scene(layer);
                Arc::new(RowSet::build(self, scene, min))
            }
        };
        self.plan.acquired(key, &rows);
        rows
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

/// One intra-polygon rule's work (width, area, rectilinear, ensures):
/// the one pipeline of both modes (§IV-C). Its cells are the placed
/// cells with polygons on the rule's layer (on any layer for a rule
/// without one), in `CellId` order; the persistent cache answers a
/// cell whole, and every other cell's polygons are the *targets* — one
/// per polygon, or per polygon and instance with `pruning` off. The
/// host fan-out, the device map and its recovery each run
/// [`IntraWork::violations`] on a target; [`IntraWork::finish`] replays
/// the results through the instances.
pub(crate) struct IntraWork {
    spec: PolyRuleSpec,
    /// The rule's layer; `None` reads every layer.
    pub layer: Option<Layer>,
    sig: Option<u64>,
    pruning: bool,
    /// Each cell's polygon count, and its local violations when the
    /// cache held them.
    #[allow(clippy::type_complexity)]
    cells: Vec<(CellId, usize, Option<Arc<Vec<LocalViolation>>>)>,
    /// The missing targets as `(cell, polygon index)`, grouped by cell
    /// in `cells` order; without pruning each polygon repeats once per
    /// instance, in instance order.
    targets: Vec<(CellId, u32)>,
    /// Checks the rule stands for: its polygons' placed instances.
    placed: usize,
}

impl IntraWork {
    /// Lists the rule's cells and targets, consulting the persistent
    /// cache once per cell on the calling thread (its handle is
    /// exclusive). `Layout::layer_polygons` is sorted by `(cell,
    /// index)`, so a cell's polygons arrive together.
    pub(crate) fn new(ctx: &mut RunContext<'_>, rule: &Rule) -> IntraWork {
        let (layer, spec) = match &rule.kind {
            RuleKind::Width { layer, min } => (Some(*layer), PolyRuleSpec::Width(*min)),
            RuleKind::Area { layer, min } => (Some(*layer), PolyRuleSpec::Area(*min)),
            RuleKind::Rectilinear { layer } => (*layer, PolyRuleSpec::Rectilinear),
            RuleKind::Ensures {
                layer, predicate, ..
            } => (*layer, PolyRuleSpec::Ensures(predicate.clone())),
            _ => unreachable!("not an intra-polygon rule"),
        };
        let layout = ctx.layout;
        let pruning = ctx.options.pruning;
        // Intra verdicts depend only on the cell's own geometry, so the
        // cache keys them by its local content hash.
        let sig = pruning
            .then(|| crate::cache::rule_signature(rule))
            .flatten();
        let instances = ctx.instances.get_or_insert_with(|| cell_instances(layout));
        let polygons: Box<dyn Iterator<Item = (CellId, usize)>> = match layer {
            Some(l) => Box::new(layout.layer_polygons(l).iter().copied()),
            None => Box::new(
                layout
                    .cell_ids()
                    .flat_map(|c| (0..layout.cell(c).polygons().len()).map(move |k| (c, k))),
            ),
        };
        let mut work = IntraWork {
            spec,
            layer,
            sig,
            pruning,
            cells: Vec::new(),
            targets: Vec::new(),
            placed: 0,
        };
        for (cell, k) in polygons {
            let n = instances[cell.index()].len();
            if n == 0 {
                continue; // defined but never placed
            }
            work.placed += n;
            if work.cells.last().is_none_or(|&(c, ..)| c != cell) {
                let hit = (sig.zip(ctx.cache.as_mut()))
                    .and_then(|(sig, h)| h.cache.get(sig, h.keys.local[cell.index()]));
                work.cells.push((cell, 0, hit));
            }
            let (_, polys, hit) = work.cells.last_mut().expect("pushed above");
            *polys += 1;
            if hit.is_none() {
                let reps = if pruning { 1 } else { n };
                let k = u32::try_from(k).expect("polygon index fits u32");
                work.targets.extend(std::iter::repeat_n((cell, k), reps));
            }
        }
        work
    }

    /// The number of targets.
    pub(crate) fn len(&self) -> usize {
        self.targets.len()
    }

    /// Target `i` as the layout stores it.
    pub(crate) fn target<'l>(&self, layout: &'l Layout, i: usize) -> &'l LayerPolygon {
        let (cell, k) = self.targets[i];
        &layout.cell(cell).polygons()[k as usize]
    }

    /// One target's local violations: the check the host task, the
    /// device kernel and its recovery all run.
    pub(crate) fn violations(&self, polygon: PolygonInfo<'_>) -> Vec<LocalViolation> {
        let mut found = Vec::new();
        polygon_violations(polygon, &self.spec, &mut found);
        found
    }

    /// Takes the targets' violations (`hits`, in target order): fills
    /// the cache with each missing cell's verdicts, counts the targets
    /// as computed and every other placed instance as reused, and
    /// replays each cell's local violations through its instances.
    pub(crate) fn finish(
        &self,
        ctx: &mut RunContext<'_>,
        rule_name: &str,
        hits: impl IntoIterator<Item = (usize, LocalViolation)>,
        out: &mut Vec<Violation>,
    ) {
        ctx.stats.checks_computed += self.targets.len();
        ctx.stats.checks_reused += self.placed - self.targets.len();
        let instances = ctx.instances.as_ref().expect("built by IntraWork::new");
        let mut hits = hits.into_iter().peekable();
        let mut end = 0; // one past the current cell's targets
        for (cell, polys, hit) in &self.cells {
            let transforms = &instances[cell.index()];
            let local = match hit {
                Some(local) => Arc::clone(local),
                None if self.pruning => {
                    end += polys;
                    let mine = std::iter::from_fn(|| hits.next_if(|&(t, _)| t < end));
                    let local = Arc::new(mine.map(|(_, v)| v).collect::<Vec<_>>());
                    if let (Some(sig), Some(handle)) = (self.sig, ctx.cache.as_mut()) {
                        let key = handle.keys.local[cell.index()];
                        handle.cache.insert(sig, key, Arc::clone(&local));
                    }
                    local
                }
                None => {
                    // Each instance's own checks, polygon-major.
                    let start = end;
                    end += polys * transforms.len();
                    while let Some((t, v)) = hits.next_if(|&(t, _)| t < end) {
                        let t = &transforms[(t - start) % transforms.len()];
                        out.push(v.instantiate(t).named(rule_name));
                    }
                    continue;
                }
            };
            if local.is_empty() {
                continue;
            }
            for t in transforms {
                out.extend(local.iter().map(|v| v.instantiate(t).named(rule_name)));
            }
        }
    }
}

/// Items per host task of [`run_blocks`]: a fixed block, so the task
/// count is a function of the input only.
const BLOCK: usize = 256;

/// Runs `f` on each of `0..n` in host tasks over fixed blocks of
/// [`BLOCK`] items, each task keeping only what its calls yield;
/// returns that in index order. The intra and pair rules' host fan-out.
fn run_blocks<T: Send, I: IntoIterator<Item = T>>(
    host: &HostExecutor,
    phase: &str,
    n: usize,
    f: impl Fn(usize) -> I + Sync,
) -> std::iter::Flatten<std::vec::IntoIter<Vec<T>>> {
    let blocks = host.run(phase, n.div_ceil(BLOCK), |b| {
        let items = b * BLOCK..n.min((b + 1) * BLOCK);
        items.flat_map(&f).collect::<Vec<_>>()
    });
    blocks.into_iter().flatten()
}

/// The §IV-C memo of one spacing rule: each placed cell's internal
/// violations, in cell-local coordinates, indexed by cell. It belongs to
/// the rule, so a cell an earlier shard resolved is not checked again.
pub(crate) type CellMemo = Vec<Option<Arc<Vec<LocalViolation>>>>;

/// The spacing templates of a scene ([`LayerScene::templates`]): each
/// placed cell and its placement count.
pub(crate) type Templates = Arc<Vec<(CellId, usize)>>;

/// One spacing rule's work over a scene's rows, in both modes, for
/// in-core rules, delta windows and out-of-core shards. Its *units* are
/// the templates (§IV-C) that neither the rule's memo nor the persistent
/// cache answers, then every row: packed and checked one per host task
/// ([`check_space_scene_rows`]), or launched from the row set
/// (`parallel::issue_space`). [`SpaceWork::finish`] takes what they found.
pub(crate) struct SpaceWork {
    sig: Option<u64>,
    templates: Templates,
    memo: CellMemo,
    /// The units, as indices into the templates followed by the rows.
    pub units: Vec<usize>,
}

impl SpaceWork {
    /// Resolves each template once on the calling thread (the cache
    /// handle is exclusive): from the rule's `memo`, else from the cache
    /// under `sig` and the cell's subtree hash. Every placement but one
    /// per template, and each resolved template, counts as reused.
    pub(crate) fn new(
        ctx: &mut RunContext<'_>,
        templates: &Templates,
        rows: usize,
        sig: Option<u64>,
        mut memo: CellMemo,
    ) -> SpaceWork {
        memo.resize(ctx.layout.cell_count(), None);
        let mut units = Vec::new();
        for (t, &(cell, placements)) in templates.iter().enumerate() {
            ctx.stats.checks_reused += placements - 1;
            let known = &mut memo[cell.index()];
            if known.is_none() {
                let handle = sig.zip(ctx.cache.as_mut());
                *known = handle.and_then(|(sig, h)| h.cache.get(sig, h.keys.subtree[cell.index()]));
            }
            match known {
                Some(_) => ctx.stats.checks_reused += 1,
                None => units.push(t),
            }
        }
        units.extend(templates.len()..templates.len() + rows);
        SpaceWork {
            sig,
            templates: Arc::clone(templates),
            memo,
            units,
        }
    }

    /// Takes each unit's local violations, in unit order: counts them as
    /// computed, stores each missing template's in the memo and the
    /// cache, names each row's, and replays each template's through its
    /// placements, the `Cell` objects of `scene` (the scene the
    /// templates were counted in). Returns the rule's memo.
    pub(crate) fn finish(
        mut self,
        ctx: &mut RunContext<'_>,
        scene: &LayerScene,
        rule_name: &str,
        checked: impl IntoIterator<Item = Vec<LocalViolation>>,
        out: &mut Vec<Violation>,
    ) -> CellMemo {
        for (&i, local) in self.units.iter().zip(checked) {
            ctx.stats.checks_computed += local.len();
            let Some(&(cell, _)) = self.templates.get(i) else {
                out.extend(local.into_iter().map(|v| v.named(rule_name)));
                continue;
            };
            let local = Arc::new(local);
            if let (Some(sig), Some(h)) = (self.sig, ctx.cache.as_mut()) {
                h.cache
                    .insert(sig, h.keys.subtree[cell.index()], Arc::clone(&local));
            }
            self.memo[cell.index()] = Some(local);
        }
        if self.templates.is_empty() {
            return self.memo; // the flat pack replays nothing
        }
        for obj in &scene.objects {
            if let SceneSource::Cell { cell, transform } = obj.source {
                let local = self.memo[cell.index()].as_deref().expect("checked");
                out.extend(
                    local
                        .iter()
                        .map(|v| v.instantiate(&transform).named(rule_name)),
                );
            }
        }
        self.memo
    }
}

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
                inner_scene,
                outer_scene,
                window,
                out,
            );
        }
        RuleFamily::Intra => {
            let work = IntraWork::new(ctx, rule);
            let (layout, start) = (ctx.layout, std::time::Instant::now());
            let hits = run_blocks(&ctx.host, "edge-check", work.len(), |i| {
                let local = work.violations(PolygonInfo::of(work.target(layout, i)));
                local.into_iter().map(move |v| (i, v))
            });
            ctx.profiler.add("edge-check", start.elapsed());
            work.finish(ctx, &rule.name, hits, out);
        }
    }
}

/// The host spacing driver: one [`SpaceWork`] over `rows` (lists of
/// indices into `scene.objects` that must not interact, which a
/// partition inflated by half the rule distance guarantees) and one
/// executor task per unit, which packs it, runs [`row_host_records`] and
/// drops the pack, so no packed row set is held. The tasks merge in unit
/// order, so the violations and every counter are the same for any
/// thread count, and equal to the parallel mode's.
///
/// `memo` is the rule's ([`CellMemo`]); callers that check the rule in
/// one call pass an empty one.
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
    let templates = Arc::new(scene.templates(pruning));
    let work = SpaceWork::new(ctx, &templates, rows.len(), sig, std::mem::take(memo));
    let units = ctx.host.run("edge-check", work.units.len(), |u| {
        let start = std::time::Instant::now();
        let (edges, found) = pack_unit(scene, &templates, rows, work.units[u], half, pruning);
        let (checking, packing) = (std::time::Instant::now(), start.elapsed() - found.busy);
        let records = row_host_records(&edges, spec).into_iter();
        SpaceUnit {
            hits: records.map(|rec| record_violation(&edges, rec)).collect(),
            edges: edges.len(),
            pairs: found.pairs.len(),
            scanned: found.scanned,
            times: [found.busy, packing, checking.elapsed()],
        }
    });
    let checked: Vec<_> = units.into_iter().map(|unit| unit.tally(ctx)).collect();
    *memo = work.finish(ctx, scene, rule_name, checked, out);
}

/// One checked spacing unit (a template or a row): its violations in
/// the unit's coordinates, its counters, and its `sweepline`, `pack`
/// and `edge-check` times.
struct SpaceUnit {
    hits: Vec<LocalViolation>,
    edges: usize,
    pairs: usize,
    scanned: u64,
    times: [std::time::Duration; 3],
}

impl SpaceUnit {
    /// Charges the pack's counters and the times to the run (the
    /// records are [`SpaceWork::finish`]'s); returns the hits.
    fn tally(self, ctx: &mut RunContext<'_>) -> Vec<LocalViolation> {
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
    /// The time the scan took.
    pub busy: std::time::Duration,
}

/// The candidate object pairs of one row, as positions `(a, b)` into
/// `members`, `a < b`: the members whose MBRs inflated by `half`
/// overlap, found by [`scan_overlaps`]. Both modes' meaning of
/// "candidate" — the pack keeps only the polygons inside their windows
/// ([`pack_unit`]). Without `pruning` there are none: the flat pack
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
    let start = std::time::Instant::now();
    let inflated: Vec<Rect> = members
        .iter()
        .map(|&m| scene.objects[m].mbr.inflate(half))
        .collect();
    let mut pairs = Vec::new();
    let scanned = scan_overlaps(&inflated, |a, b| pairs.push((a, b)));
    let busy = start.elapsed();
    RowPairs {
        pairs,
        scanned,
        busy,
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

/// One pair rule's work over two scenes, borrowed from them: every
/// inner shape (of those hitting a delta window, when given) and its
/// row-join hits among the outer scene's objects. This is the one
/// candidate-discovery and measuring path of enclosure and overlap-area
/// rules — in-core (a host task or a device kernel per shape), delta
/// windows and out-of-core shards differ only in the scenes they pass.
///
/// Candidate discovery is hierarchical and output-sensitive: the row
/// join (`row_join_on`) pairs the inner MBRs, inflated by the rule's
/// gather distance, with the *object-level* layer MBRs of the outer
/// scene; [`PairsWork::measure`] then visits, in ascending object
/// order, the joined objects' polygons whose placed MBR meets the
/// shape's window, so a measure does not depend on the thread count.
/// Nothing is copied per shape or candidate: a rectangle is measured on
/// its placed MBR, and any other polygon is placed where it is measured.
pub(crate) struct PairsWork {
    pairs: PairsRule,
    /// Each inner shape's MBR in top coordinates, its report rectangle.
    pub mbrs: Vec<Rect>,
    /// Each inner shape as `(scene object, index among the object's
    /// polygons)`; kept for the overlap-area kind only, which measures
    /// the polygon itself.
    shapes: Vec<(u32, u32)>,
    /// The row join of the shapes' windows against the outer objects.
    join: RowJoin,
    inner: Arc<LayerScene>,
    outer: Arc<LayerScene>,
}

impl PairsWork {
    /// Lists the inner shapes and joins them with the outer objects,
    /// charging the join to the `sweepline` phase and the join counters.
    pub(crate) fn new(
        ctx: &mut RunContext<'_>,
        pairs: PairsRule,
        inner: Arc<LayerScene>,
        outer: Arc<LayerScene>,
        window: Option<DirtyWindow<'_>>,
    ) -> PairsWork {
        let overlap = pairs.kind != ViolationKind::Enclosure;
        let index = |i: usize| u32::try_from(i).expect("scene index fits u32");
        let mut mbrs = Vec::with_capacity(inner.objects.len());
        let mut shapes = Vec::new();
        for (o, obj) in inner.objects.iter().enumerate() {
            for (k, shape) in inner.placed_polygons(obj).enumerate() {
                if window.is_some_and(|w| !w.hits(shape.mbr())) {
                    continue;
                }
                mbrs.push(shape.mbr());
                if overlap {
                    shapes.push((index(o), index(k)));
                }
            }
        }
        let gather = pairs.gather() as Coord;
        let window = |m: &Rect| m.inflate(gather);
        let join = row_join_on(&mbrs, window, &outer.objects, |o| o.mbr, &ctx.host);
        ctx.profiler.add("sweepline", join.busy);
        ctx.stats.join_candidates += join.hits.len() as u64;
        ctx.stats.join_scanned += join.scanned;
        PairsWork {
            pairs,
            mbrs,
            shapes,
            join,
            inner,
            outer,
        }
    }

    /// The number of inner shapes.
    pub(crate) fn len(&self) -> usize {
        self.mbrs.len()
    }

    /// Shape `i`'s candidates: the polygons of its joined outer objects
    /// whose placed MBR meets its window, in ascending object order.
    fn candidates(&self, i: usize) -> impl Iterator<Item = Placed<'_>> + '_ {
        let window = self.mbrs[i].inflate(self.pairs.gather() as Coord);
        let outer = &*self.outer;
        self.join.hits_of(i).iter().flat_map(move |&o| {
            outer
                .placed_polygons(&outer.objects[o as usize])
                .filter(move |c| c.mbr().overlaps(window))
        })
    }

    /// Shape `i`'s measure — its enclosure margin, or the area it
    /// shares (boolean AND) with its candidates ("minimum overlapping
    /// area constraints", §II). The host task, the device kernel and
    /// its recovery all call this.
    pub(crate) fn measure(&self, i: usize) -> i64 {
        if self.pairs.kind == ViolationKind::Enclosure {
            return placed_enclosure_margin(self.mbrs[i], self.candidates(i), self.pairs.min);
        }
        let (o, k) = self.shapes[i];
        let shape = self
            .inner
            .placed_polygon(&self.inner.objects[o as usize], k as usize);
        // A rectangle meeting at most one rectangle shares their
        // intersection.
        if shape.is_rect() {
            let mut candidates = self.candidates(i);
            match (candidates.next(), candidates.next()) {
                (None, _) => return 0,
                (Some(c), None) if c.is_rect() => {
                    return shape.mbr().intersection(c.mbr()).map_or(0, Rect::area);
                }
                _ => {}
            }
        }
        use odrc_infra::Region;
        let shape = shape.to_polygon();
        let candidates: Vec<_> = self.candidates(i).map(|c| c.to_polygon()).collect();
        let inner_region = Region::from_polygons([&*shape]);
        let outer_region = Region::from_polygons(candidates.iter().map(|c| &**c));
        inner_region.intersection(&outer_region).area()
    }

    /// Shape `i`'s violation of `rule_name`, if `measured` is below the
    /// rule's minimum; reported at the shape's MBR.
    pub(crate) fn violation(&self, rule_name: &str, i: usize, measured: i64) -> Option<Violation> {
        (measured < self.pairs.min).then(|| Violation {
            rule: rule_name.to_owned(),
            kind: self.pairs.kind,
            location: self.mbrs[i],
            measured,
        })
    }
}

/// The pair pipeline over already-built scenes (the run memo's, a
/// delta window's, or an out-of-core shard's): one [`PairsWork`], its
/// inner shapes measured in host tasks over fixed blocks
/// ([`run_blocks`]). Violations are the shapes measuring below the
/// rule's minimum, in shape order.
pub(crate) fn check_pairs_scenes(
    ctx: &mut RunContext<'_>,
    rule_name: &str,
    pairs: PairsRule,
    inner_scene: Arc<LayerScene>,
    outer_scene: Arc<LayerScene>,
    window: Option<DirtyWindow<'_>>,
    out: &mut Vec<Violation>,
) {
    let work = PairsWork::new(ctx, pairs, inner_scene, outer_scene, window);
    let phase = match pairs.kind {
        ViolationKind::Enclosure => "enclosure-check",
        _ => "overlap-check",
    };
    ctx.stats.checks_computed += work.len();
    let start = std::time::Instant::now();
    out.extend(run_blocks(&ctx.host, phase, work.len(), |i| {
        work.violation(rule_name, i, work.measure(i))
    }));
    ctx.profiler.add(phase, start.elapsed());
}
