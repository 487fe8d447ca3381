//! Out-of-core sharded checking.
//!
//! A full-chip layout does not fit the engine's working set: the
//! in-core pipeline materializes a whole layer scene (every placement's
//! flattened subtree plus every top polygon) per touched layer, and the
//! failure mode under memory pressure is an OOM abort. This module
//! trades that cliff for graceful degradation:
//!
//! * the existing adaptive row partition (§IV-B) is the **shard key** —
//!   rows inflated by half the rule distance cannot interact, so a
//!   *shard* (a contiguous group of partition rows) can be checked
//!   against a scene holding only its member objects — by the in-core
//!   pipelines themselves (`check_space_scene_rows`,
//!   `check_pairs_scenes`), handed the shard's scene and rows — and the
//!   union of per-shard violation sets canonicalizes to exactly the
//!   in-core result; the shard key is the rule family's
//!   [`interaction`](crate::rules::RuleFamily::interaction) `(layer,
//!   distance)`, and the §IV-C memo is owned by the rule, so a cell
//!   placed in several shards is computed once;
//! * shard scenes are built lazily behind a [`ShardPool`] with a hard
//!   byte budget and LRU eviction — evicted shards rebuild on demand,
//!   an oversized shard (or a seeded [`Fault::AllocFail`]) degrades to
//!   build-check-drop processing, and nothing ever aborts;
//! * each completed `(rule, shard)` unit is appended to the v3
//!   [`CheckpointJournal`], so a killed run — cancelled, or a process
//!   killed outright — resumes *mid-rule*, re-running only the shards
//!   the journal is missing. The journal is the crash boundary: a run
//!   is one process, and a crash loses its in-flight shard and nothing
//!   else.
//!
//! [`Fault::AllocFail`]: odrc_xpu::Fault::AllocFail

use std::collections::HashMap;
use std::sync::Arc;

use odrc_db::Layer;
use odrc_geometry::{Coord, Rect};
use odrc_infra::{CancelReason, CancelToken, Profiler};
use odrc_xpu::Device;

use crate::cache::rule_signature;
use crate::checkpoint::CheckpointJournal;
use crate::engine::{EngineOptions, EngineStats};
use crate::rules::{PairsRule, Rule, RuleFamily};
use crate::scene::{assemble, LayerObjects, LayerScene};
use crate::sequential::{
    check_pairs_scenes, check_space_scene_rows, partition_mbrs, CellMemo, RunContext,
};
use crate::violation::{canonicalize, Violation};

/// Target shard count when [`EngineOptions::shard_rows`] is unset: the
/// partition's rows are grouped into at most this many shards.
pub const DEFAULT_SHARDS: usize = 16;

/// Whether the engine is running in out-of-core mode at all.
pub(crate) fn out_of_core(options: &EngineOptions) -> bool {
    options.out_of_core || options.memory_budget.is_some() || options.shard_rows.is_some()
}

/// Whether `rule` takes the sharded host path under these options.
/// Inter-object rules shard by partition row; intra-polygon rules
/// (width, area, rectilinear, ensures) are per-cell already and run
/// whole, journaled at rule granularity.
pub(crate) fn sharded_rule(options: &EngineOptions, rule: &Rule) -> bool {
    out_of_core(options) && rule.family().interaction().is_some()
}

/// The deterministic shard decomposition of one rule: the primary
/// layer's objects (proto order) and the contiguous row groups.
pub(crate) struct ShardPlan {
    /// Pass 1 of the rule's primary layer — the one enumeration every
    /// subset scene of the rule (first build or rebuild after eviction)
    /// is assembled from. Lives and dies with the rule's plan.
    pub objects: LayerObjects,
    /// The shards, in row order.
    pub shards: Vec<ShardSpec>,
}

/// One shard: a contiguous group of partition rows.
pub(crate) struct ShardSpec {
    /// Sorted union of the row members (global object indices). Rows
    /// partition the object set, so shard member lists are disjoint
    /// across shards.
    pub members: Vec<usize>,
    /// The member lists of the shard's rows, as positions in `members`
    /// — which are the object indices of the shard's member-subset
    /// scene ([`assemble`] keeps member order).
    pub rows: Vec<Vec<usize>>,
}

/// Builds the shard plan for `(layer, min)`. The plan is a pure
/// function of the layout, the rule distance, and the partition/shard
/// options — two runs with the same inputs agree on shard identities,
/// which is what makes `(rule, shard)` journal records portable across
/// a crash and its `--resume`.
pub(crate) fn plan_shards(ctx: &mut RunContext<'_>, layer: Layer, min: i64) -> ShardPlan {
    let layout = ctx.layout;
    let scanned = &mut ctx.stats.scene_objects_scanned;
    let objects = ctx
        .profiler
        .time("scene", || LayerObjects::enumerate(layout, layer, scanned));
    let mbrs = &objects.mbrs;
    let partition = partition_mbrs(mbrs, min, ctx.options.partition, ctx.profiler);
    ctx.stats.rows += partition.len();
    let rows = partition.rows();
    let per_shard = ctx
        .options
        .shard_rows
        .unwrap_or_else(|| rows.len().div_ceil(DEFAULT_SHARDS))
        .max(1);
    let shards = rows
        .chunks(per_shard)
        .map(|chunk| {
            let mut members: Vec<usize> = chunk.iter().flat_map(|r| &r.members).copied().collect();
            members.sort_unstable();
            let subset = |g: &usize| members.binary_search(g).expect("row member");
            let rows = chunk
                .iter()
                .map(|r| r.members.iter().map(subset).collect())
                .collect();
            ShardSpec { members, rows }
        })
        .collect();
    ShardPlan { objects, shards }
}

/// Identity of one cached shard scene. The member set behind a key is a
/// pure function of `(layer, min, shard)` via [`plan_shards`], so two
/// rules sharing the key share the resident scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SceneKey {
    /// The member-subset scene of a shard's own objects.
    Subset { layer: Layer, min: i64, shard: u32 },
    /// The outer-layer scene windowed to a shard's member extents (the
    /// enclosure/overlap candidate side).
    Window {
        inner: Layer,
        outer: Layer,
        min: i64,
        shard: u32,
    },
}

#[derive(Debug)]
struct Resident {
    scene: Arc<LayerScene>,
    bytes: u64,
    stamp: u64,
}

/// The shard residency cache: scenes built on demand, held under a hard
/// byte budget, evicted LRU-first when an insert would overflow it.
///
/// Budget exhaustion never aborts: a scene that alone exceeds the
/// budget (and a scene whose load trips a seeded
/// [`odrc_xpu::Fault::AllocFail`]) is still built and checked, just
/// never cached — the degrade-to-sequential path, counted in
/// [`EngineStats::shards_degraded`].
#[derive(Debug, Default)]
pub(crate) struct ShardPool {
    budget: Option<u64>,
    resident: HashMap<SceneKey, Resident>,
    bytes: u64,
    clock: u64,
}

impl ShardPool {
    pub fn new(budget: Option<u64>) -> ShardPool {
        ShardPool {
            budget,
            ..ShardPool::default()
        }
    }

    /// The scene for `key`: resident (LRU-touched), or built via
    /// `build` (charged to the `scene` phase, like an in-core scene
    /// build) and cached if it fits the budget.
    pub fn get(
        &mut self,
        key: SceneKey,
        device: &Device,
        stats: &mut EngineStats,
        profiler: &mut Profiler,
        build: impl FnOnce() -> LayerScene,
    ) -> Arc<LayerScene> {
        self.clock += 1;
        if let Some(r) = self.resident.get_mut(&key) {
            r.stamp = self.clock;
            return Arc::clone(&r.scene);
        }
        // Every shard *load* (cache miss) ticks the device's seeded
        // allocation-failure schedule; a hit degrades this load to
        // build-check-drop instead of failing it.
        let alloc_failed = device.fault_shard_load();
        let scene = Arc::new(profiler.time("scene", build));
        stats.shards_built += 1;
        let cost = scene.approx_bytes();
        let oversized = self.budget.is_some_and(|b| cost > b);
        if alloc_failed || oversized {
            stats.shards_degraded += 1;
            return scene;
        }
        if let Some(budget) = self.budget {
            while self.bytes + cost > budget && !self.resident.is_empty() {
                let lru = self
                    .resident
                    .iter()
                    .min_by_key(|(_, r)| r.stamp)
                    .map(|(k, _)| *k)
                    .expect("non-empty");
                let evicted = self.resident.remove(&lru).expect("present");
                self.bytes -= evicted.bytes;
                stats.shards_evicted += 1;
            }
        }
        self.bytes += cost;
        self.resident.insert(
            key,
            Resident {
                scene: Arc::clone(&scene),
                bytes: cost,
                stamp: self.clock,
            },
        );
        scene
    }
}

/// Runs one sharded rule: plan, restore journaled shards, check the
/// missing ones (recording each as it completes), and extend `out` with
/// the union. Returns the cancel reason when the run was cancelled
/// mid-rule: the rule must then *not* be finalized (its completed
/// shards are already in the journal, and the engine discards the
/// partial buffer).
pub(crate) fn check_rule_sharded(
    ctx: &mut RunContext<'_>,
    device: &Device,
    rule: &Rule,
    journal: &mut Option<&mut CheckpointJournal>,
    cancel: Option<&CancelToken>,
    out: &mut Vec<Violation>,
) -> Option<CancelReason> {
    let family = rule.family();
    let (layer, min) = family.interaction().expect("only inter-object rules shard");
    let ShardPlan { objects, shards } = plan_shards(ctx, layer, min);
    let shard_count = shards.len() as u32;
    let sig = rule_signature(rule);
    let layout = ctx.layout;
    let host = Arc::clone(&ctx.host);
    // One §IV-C memo for the whole rule. Shards restored from the
    // journal never fill it; their cells are computed if a later shard
    // places them.
    let mut memo = CellMemo::new();
    // A pair rule's outer layer, enumerated on the first shard the
    // journal does not restore — a fully restored rule never pays it.
    let mut outer_objects: Option<LayerObjects> = None;
    for (sid, shard) in shards.iter().enumerate() {
        let shard_id = sid as u32;
        // Restore before polling: restores are free and a cancel must
        // not forfeit them.
        if let (Some(sig), Some(j)) = (sig, journal.as_deref_mut()) {
            if let Some(done) = j.completed_shard(sig, shard_count, shard_id) {
                out.extend(done.iter().cloned());
                ctx.stats.shards_resumed += 1;
                continue;
            }
        }
        if let Some(reason) = cancel.and_then(CancelToken::cancelled) {
            return Some(reason);
        }
        let mut buf: Vec<Violation> = Vec::new();
        match family {
            RuleFamily::Space { layer, spec } => {
                let key = SceneKey::Subset {
                    layer,
                    min: spec.min,
                    shard: shard_id,
                };
                let scene = ctx
                    .shard_pool
                    .get(key, device, ctx.stats, ctx.profiler, || {
                        assemble(layout, layer, &objects, &shard.members, &host)
                    });
                // The in-core row pipeline over the shard's rows; shard
                // units consult no persistent cache (no signature).
                let rows: Vec<&[usize]> = shard.rows.iter().map(Vec::as_slice).collect();
                check_space_scene_rows(
                    ctx, &rule.name, &scene, &rows, spec, None, &mut memo, &mut buf,
                );
            }
            RuleFamily::Pairs(pairs) => {
                let outer = outer_objects.get_or_insert_with(|| {
                    let scanned = &mut ctx.stats.scene_objects_scanned;
                    ctx.profiler.time("scene", || {
                        LayerObjects::enumerate(layout, pairs.outer, scanned)
                    })
                });
                let (inner_scene, outer_scene) =
                    shard_scene_pair(ctx, device, &objects, outer, shard, shard_id, pairs);
                check_pairs_scenes(
                    ctx,
                    &rule.name,
                    pairs,
                    &inner_scene,
                    &outer_scene,
                    None,
                    &mut buf,
                );
            }
            RuleFamily::Intra => unreachable!("only inter-object rules shard"),
        }
        // Canonicalize per shard so the journaled record (and therefore
        // a resumed run) is byte-stable; the rule-level finalize
        // re-canonicalizes the union.
        let vs = canonicalize(buf);
        ctx.stats.shards_checked += 1;
        if let (Some(sig), Some(j)) = (sig, journal.as_deref_mut()) {
            if let Err(e) = j.record_shard(&rule.name, sig, shard_count, shard_id, &vs) {
                eprintln!(
                    "odrc: warning: checkpoint journal write failed ({e}); checkpointing disabled"
                );
                *journal = None;
            }
        }
        // Deterministic chaos ([`odrc_xpu::Fault::ShardKill`]): die
        // *after* the record hits the journal, exactly like a SIGKILL
        // between shards — the resume path must pick up every shard
        // completed so far and nothing else.
        if device.fault_shard_done() {
            std::process::abort();
        }
        out.extend(vs);
    }
    None
}

/// The (inner subset, outer windowed) scene pair of a pair-rule shard,
/// both through the pool.
fn shard_scene_pair(
    ctx: &mut RunContext<'_>,
    device: &Device,
    inner_objects: &LayerObjects,
    outer_objects: &LayerObjects,
    shard: &ShardSpec,
    shard_id: u32,
    pairs: PairsRule,
) -> (Arc<LayerScene>, Arc<LayerScene>) {
    let (inner, outer, min) = (pairs.inner, pairs.outer, pairs.gather());
    let (layout, host) = (ctx.layout, Arc::clone(&ctx.host));
    let inner_scene = ctx.shard_pool.get(
        SceneKey::Subset {
            layer: inner,
            min,
            shard: shard_id,
        },
        device,
        ctx.stats,
        ctx.profiler,
        || assemble(layout, inner, inner_objects, &shard.members, &host),
    );
    // The outer side is windowed to the shard's row band plus the rule
    // margin. Members are a contiguous row group, so one hull rect
    // covers them; every outer object within the margin of any member
    // overlaps the inflated hull and survives the window — each inner
    // shape sees a superset of the candidates the per-poly gather
    // keeps, and the gather itself filters to the exact in-core set.
    let band = shard
        .members
        .iter()
        .map(|&g| inner_objects.mbrs[g])
        .reduce(Rect::hull);
    let outer_scene = ctx.shard_pool.get(
        SceneKey::Window {
            inner,
            outer,
            min,
            shard: shard_id,
        },
        device,
        ctx.stats,
        ctx.profiler,
        || match band {
            Some(b) => {
                let window = b.inflate((min as Coord).saturating_add(1));
                LayerScene::build_window_on(layout, outer, outer_objects, window, &host)
            }
            None => assemble(layout, outer, outer_objects, &[], &host),
        },
    );
    (inner_scene, outer_scene)
}
