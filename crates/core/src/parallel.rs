//! The parallel (device) mode (§IV-E of the paper).
//!
//! "After layout partitioning, OpenDRC performs parallel design rule
//! checks in a row-by-row manner, as cells belonging to different rows
//! will not produce any violation. Before checking, OpenDRC packs the
//! edges of relevant polygons into a flattened array, which is
//! transferred from the host memory to the device memory. Depending on
//! the complexity of each polygon or polygon pair, OpenDRC selects
//! either a brute-force executor or a sweepline executor."
//!
//! "Relevant" is decided by the hierarchy ([`RowSet`]): each placed cell
//! definition is packed once as a cell-local *template* — to the
//! executors just a small row, whose records [`replay_record`] replays
//! through the cell's placements — and the partition rows hold only the
//! polygons inside candidate-pair windows.
//!
//! Small rows run the **brute-force executor**: one kernel, one thread
//! per edge, plain `for` loops over the remaining edges. Large rows run
//! the **sweepline executor**: edges are sorted by track; a first
//! kernel determines each edge's check range and counts its violations,
//! an exclusive scan sizes the output, and a second kernel emits the
//! records — the two-kernel-launch structure the paper chose "for
//! efficient kernel code optimization (viz. for loops versus while
//! loops)".
//!
//! Every rule's device work is split into an **issue** half (host
//! preparation, shared zero-copy uploads, kernel launches — all enqueued on
//! the rule's own stream, returning in-flight handles immediately) and
//! a **collect** half (result waits, the scan+emit second phase,
//! recovery). [`issue_rule`] is the device executor's rule body: it
//! matches on [`Rule::family`] and takes the same optional
//! [`DirtyWindow`] as the host body. The engine's one rule loop, for
//! full and delta checks alike, keeps a window of issued rules ahead of
//! collection, so uploads and kernels of independent rules overlap
//! across streams with one deferred synchronization per stream (§V-C);
//! the [planner](crate::plan) additionally keeps packed row buffers
//! device-resident so N rules on one layer upload once. A rule the
//! host runs — an out-of-core shard loop, a rule without a device body
//! ([`has_device_body`]) — is an `InFlightRule::Host`, finished at issue.
//!
//! # Graceful degradation
//!
//! Every device interaction goes through the fallible `try_*` APIs.
//! When an operation fails (OOM against the device budget, a kernel
//! panic, a stalled or poisoned stream), the collect half that sees the
//! failure keeps the rows that already completed and [`recover`]s each
//! failed work unit — a spacing row or template, or a whole width, area
//! or pair rule — on the spot: up to [`DEVICE_RETRIES`] device attempts,
//! then a recomputation on the host with the same check logic. An
//! attempt is not a second copy of the unit's device code: it re-runs
//! the unit's own enqueue functions ([`enqueue_row_phase1`] and
//! [`enqueue_row_emit`] for a row, [`enqueue_map`] for a whole-rule
//! map) on a fresh stream and waits. Its shared buffers are
//! re-acquired through the [planner](crate::plan)'s cache, which elides
//! an intact upload and repairs a failed one. The final violation set
//! is therefore identical to a fault-free device run, and
//! [`collect_rule`] returns only once its rule is complete. Injected
//! faults are one-shot, so the attempts follow each other without a
//! backoff. Retries and fallbacks are tallied in
//! [`EngineStats::device_retries`] / [`EngineStats::device_fallbacks`].
//!
//! [`EngineStats::device_retries`]: crate::EngineStats::device_retries
//! [`EngineStats::device_fallbacks`]: crate::EngineStats::device_fallbacks

use std::ops::Range;
use std::sync::Arc;

use odrc_db::Layer;
use odrc_geometry::Polygon;
use odrc_xpu::{
    scan::exclusive_scan, Device, DeviceBuffer, LaunchBatch, LaunchConfig, Pending, Stream,
    XpuResult,
};

use crate::checks::edge::{space_pair_spec, SpaceSpec};
use crate::checks::poly::LocalViolation;
use crate::plan::{
    build_runs, span_lo, unpack, IntraData, PackedEdge, PlannedRow, RowSet, RunInfo,
    SharedDeviceData,
};
use crate::rules::{PairsRule, Rule, RuleFamily, RuleKind};
use crate::scene::{cell_instances, DirtyWindow};
use crate::sequential::{enclosure_scenes, PairsWork, RunContext};
use crate::violation::{Violation, ViolationKind};

/// A violation record of the spacing executors: edge indices `(a, b)`
/// into the row's packed array plus the squared distance.
type Record = (u32, u32, i64);

/// Per-edge brute-force hits: `(other edge index, measured)` lists.
type BruteHits = Vec<Vec<(u32, i64)>>;

/// One row's in-flight first device phase.
struct RowJob {
    row: Arc<PlannedRow>,
    /// Recorded launch geometry, reused by the emit phase.
    cfg: LaunchConfig,
    phase1: Phase1,
}

/// What a row's first phase downloads, by executor.
enum Phase1 {
    /// Brute force: every edge's hits, final.
    Brute(Pending<BruteHits>),
    /// Sweepline kernel 1: every edge's violation count, which sizes
    /// the emit kernel's output.
    Counts(Pending<Vec<usize>>),
}

/// The records of a brute-force row's per-edge hits.
fn brute_records(per_edge: &BruteHits) -> impl Iterator<Item = Record> + '_ {
    per_edge
        .iter()
        .enumerate()
        .flat_map(|(i, hits)| hits.iter().map(move |&(j, d2)| (i as u32, j, d2)))
}

/// Span window of a packed edge along its own axis, as `(lo, hi)`.
#[inline]
fn edge_window(e: PackedEdge) -> (i64, i64) {
    if e[0] == e[2] {
        (i64::from(e[1].min(e[3])), i64::from(e[1].max(e[3])))
    } else {
        (i64::from(e[0].min(e[2])), i64::from(e[0].max(e[2])))
    }
}

/// Index of the run containing edge `i` in a [`build_runs`] table.
#[inline]
fn run_index(runs: &[RunInfo], i: usize) -> usize {
    runs.partition_point(|run| (run.end as usize) <= i)
}

/// The windowed candidate enumeration every spacing executor shares:
/// visits the partners `j > i` of edge `i` (which lives in run `r`)
/// that could possibly violate `spec`, calling `hit(j, d2)` for each
/// actual violation. Count, emit, brute and host fallback all walk
/// this exact sequence, so their outputs agree pair for pair.
///
/// Why the pruning is conservative (never drops a violation):
///
/// * a violating pair is [`ExteriorFacing`](crate::checks::edge) —
///   parallel, same orientation, *different* tracks — so same-run
///   pairs (collinear) and cross-orientation runs contribute nothing;
/// * the violation predicate requires `d2 = gx² + gy² < min²` where
///   `gx` is the track gap: once a run's track is `min` or more away,
///   that run and (tracks sort ascending) everything after it within
///   the orientation is out of reach;
/// * within a reachable run (sorted by span-low) a partner reaches the
///   query window `[lo_i, hi_i]` only if its span-low lies in
///   `[lo_i − min − run.max_len, hi_i + min]`: below the lower bound
///   even the run's longest edge falls short of `lo_i − min`, above
///   the upper bound the span gap is already ≥ `min`. The window is
///   found by binary search and scanned to the break.
fn for_each_hit(
    edges: &[PackedEdge],
    runs: &[RunInfo],
    i: usize,
    r: usize,
    spec: SpaceSpec,
    hit: &mut dyn FnMut(u32, i64),
) {
    let ei = unpack(edges[i]);
    let me = runs[r];
    let (lo_i, hi_i) = edge_window(edges[i]);
    let hi_bound = hi_i.saturating_add(spec.min);
    for run in &runs[r + 1..] {
        if run.orient != me.orient || i64::from(run.track) - i64::from(me.track) >= spec.min {
            break;
        }
        let lo_bound = lo_i.saturating_sub(spec.min).saturating_sub(run.max_len);
        let seg = &edges[run.start as usize..run.end as usize];
        let off = seg.partition_point(|&e| i64::from(span_lo(e)) < lo_bound);
        for (k, &pe) in seg.iter().enumerate().skip(off) {
            if i64::from(span_lo(pe)) > hi_bound {
                break;
            }
            if let Some(d2) = space_pair_spec(ei, unpack(pe), spec) {
                hit((run.start as usize + k) as u32, d2);
            }
        }
    }
}

/// The brute-force executor's kernel body: one tile launch, each chunk
/// walking its edges' candidate windows with plain `for` loops.
#[allow(clippy::type_complexity)]
fn brute_kernel(
    edges: DeviceBuffer<PackedEdge>,
    runs: DeviceBuffer<RunInfo>,
    spec: SpaceSpec,
) -> impl Fn(Range<usize>, &mut [Vec<(u32, i64)>]) + Send + Sync + 'static {
    move |range, tile| {
        let edges = edges.read();
        let runs = runs.read();
        let mut r = run_index(&runs, range.start);
        for (slot, i) in tile.iter_mut().zip(range) {
            while (runs[r].end as usize) <= i {
                r += 1;
            }
            for_each_hit(&edges, &runs, i, r, spec, &mut |j, d2| slot.push((j, d2)));
        }
    }
}

/// The sweepline executor's first kernel: per-edge check range and
/// violation count over the windowed enumeration.
fn count_kernel(
    edges: DeviceBuffer<PackedEdge>,
    runs: DeviceBuffer<RunInfo>,
    spec: SpaceSpec,
) -> impl Fn(Range<usize>, &mut [usize]) + Send + Sync + 'static {
    move |range, tile| {
        let edges = edges.read();
        let runs = runs.read();
        let mut r = run_index(&runs, range.start);
        for (slot, i) in tile.iter_mut().zip(range) {
            while (runs[r].end as usize) <= i {
                r += 1;
            }
            let mut count = 0usize;
            for_each_hit(&edges, &runs, i, r, spec, &mut |_, _| count += 1);
            *slot = count;
        }
    }
}

/// The sweepline executor's second kernel: emit each edge's violations
/// into its scan-determined output range. Walks the same enumeration
/// as [`count_kernel`], so every range is filled exactly.
fn emit_kernel(
    edges: DeviceBuffer<PackedEdge>,
    runs: DeviceBuffer<RunInfo>,
    spec: SpaceSpec,
) -> impl Fn(Range<usize>, &mut [&mut [Record]]) + Send + Sync + 'static {
    move |range, tile| {
        let edges = edges.read();
        let runs = runs.read();
        let mut r = run_index(&runs, range.start);
        for (slot, i) in tile.iter_mut().zip(range) {
            while (runs[r].end as usize) <= i {
                r += 1;
            }
            let mut k = 0usize;
            for_each_hit(&edges, &runs, i, r, spec, &mut |j, d2| {
                slot[k] = (i as u32, j, d2);
                k += 1;
            });
        }
    }
}

/// An issued rule: finished at issue, or device work enqueued on the
/// rule's own stream whose results materialize at [`collect_rule`].
pub(crate) enum InFlightRule {
    /// A rule the host executor ran to completion at issue: the
    /// default mode's rules, out-of-core shard loops, and the rules
    /// without a device body in either mode.
    Host(Vec<Violation>),
    Device(DeviceRule),
}

/// A rule's device work, enqueued on the rule's own stream.
pub(crate) struct DeviceRule {
    stream: Stream,
    rule_name: String,
    kind: InFlightKind,
}

enum InFlightKind {
    Space(SpaceIssue),
    /// A width or area rule: one map over the layer's unique polygons,
    /// instantiated through their placements at collect.
    Intra {
        map: MapIssue<Polygon, Vec<LocalViolation>>,
        data: Arc<IntraData>,
    },
    /// An enclosure or overlap rule: one map over its inner shapes'
    /// indices, each thread measuring its shape straight from the
    /// scenes the [`PairsWork`] borrows (no per-shape work list), and
    /// thresholded at collect.
    Pairs {
        map: MapIssue<u32, i64>,
        work: Arc<PairsWork>,
    },
}

struct SpaceIssue {
    spec: SpaceSpec,
    jobs: Vec<RowJob>,
    failed: Vec<Arc<PlannedRow>>,
}

/// Whether `rule` has a device body: rectilinear and user-predicate
/// rules run on the host in both modes (user closures are host code).
pub(crate) fn has_device_body(rule: &Rule) -> bool {
    !matches!(
        rule.kind,
        RuleKind::Rectilinear { .. } | RuleKind::Ensures { .. }
    )
}

/// Issues one rule's device pipeline on a fresh stream of `device` and
/// returns without waiting for any device result. A delta `window`
/// restricts the rule to an edit's halo; windowed row sets are
/// rule-specific, so they bypass the planner's cache.
pub(crate) fn issue_rule(
    ctx: &mut RunContext<'_>,
    device: &Device,
    rule: &Rule,
    window: Option<DirtyWindow<'_>>,
) -> InFlightRule {
    let stream = device.stream();
    let kind = match rule.family() {
        RuleFamily::Space { layer, spec } => {
            let rows = match window {
                None => ctx.row_set(layer, spec.min),
                Some(_) => {
                    let scene = ctx.scene_for(layer, window);
                    Arc::new(RowSet::build(ctx, &scene, spec.min))
                }
            };
            InFlightKind::Space(issue_space(ctx, &stream, &rows, spec))
        }
        RuleFamily::Pairs(pairs) => issue_pairs(ctx, &stream, pairs, window),
        RuleFamily::Intra => match rule.kind {
            RuleKind::Width { layer, min } => issue_intra(ctx, &stream, layer, true, min),
            RuleKind::Area { layer, min } => issue_intra(ctx, &stream, layer, false, min),
            _ => unreachable!("a rule without a device body is never issued here"),
        },
    };
    InFlightRule::Device(DeviceRule {
        stream,
        rule_name: rule.name.clone(),
        kind,
    })
}

/// Waits for an issued rule's device results, runs the second
/// (scan+emit) phase where needed, recovers failed work units, and
/// drains the rule's stream. On return the rule is complete.
pub(crate) fn collect_rule(ctx: &mut RunContext<'_>, fl: InFlightRule, out: &mut Vec<Violation>) {
    let DeviceRule {
        stream,
        rule_name,
        kind,
    } = match fl {
        InFlightRule::Host(done) => return out.extend(done),
        InFlightRule::Device(issued) => issued,
    };
    match kind {
        InFlightKind::Space(issue) => collect_space(ctx, &stream, &rule_name, issue, out),
        InFlightKind::Intra { map, data } => {
            let found = collect_map(ctx, stream.device(), map);
            emit_intra(ctx, &rule_name, &data, &found, out);
        }
        InFlightKind::Pairs { map, work } => {
            let measures = collect_map(ctx, stream.device(), map);
            emit_pairs(ctx, &rule_name, &work, measures, out);
        }
    }
    // Errors were already handled per work unit; drain the stream
    // without re-raising them.
    let _ = stream.try_synchronize();
}

/// Issue half of the spacing pipeline: walk the row set, acquiring
/// each row's device-resident buffers and enqueuing its first kernel
/// phase. The whole phase goes through one fused [`LaunchBatch`], so
/// every row's uploads and kernels ride a single stream dispatch (one
/// worker wake per rule).
fn issue_space(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    rows: &RowSet,
    spec: SpaceSpec,
) -> SpaceIssue {
    ctx.stats.rows += rows.partition_rows;
    ctx.stats.candidate_pairs += rows.candidate_pairs;
    ctx.stats.pairs_scanned += rows.pairs_scanned;
    let mut jobs = Vec::with_capacity(rows.rows.len());
    let mut failed = Vec::new();
    let mut batch = stream.batch(true);
    for row in &rows.rows {
        // A template answers all but one of its placements from the
        // one check (the sequential memo's occurrences − definitions).
        if let Some(placements) = &row.instances {
            ctx.stats.checks_reused += placements.len() - 1;
        }
        match enqueue_row_phase1(ctx, &mut batch, row, spec) {
            Ok(job) => jobs.push(job),
            Err(_) => failed.push(Arc::clone(row)),
        }
    }
    batch.commit();
    SpaceIssue { spec, jobs, failed }
}

/// Collect half of the spacing pipeline: brute results, the
/// count→scan→emit second phase for sweepline rows, and recovery.
fn collect_space(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    rule_name: &str,
    issue: SpaceIssue,
    out: &mut Vec<Violation>,
) {
    let SpaceIssue {
        spec,
        jobs,
        mut failed,
    } = issue;
    let device = stream.device();
    let mut emits: Vec<(Arc<PlannedRow>, Pending<Vec<Record>>)> = Vec::new();
    let mut hits: Vec<Violation> = Vec::new();
    // Device records, not the violations a template replays them into.
    let mut records = 0usize;
    let mut replay = |row: &PlannedRow, recs: &mut dyn Iterator<Item = Record>| {
        for rec in recs {
            records += 1;
            replay_record(rule_name, row, rec, &mut hits);
        }
    };

    // Phase 2: for sweepline rows, scan the counts on the device and
    // enqueue the emit kernel; brute rows resolve directly.
    for RowJob { row, cfg, phase1 } in jobs {
        match phase1 {
            Phase1::Brute(pending) => match ctx.device_wait(|| pending.result()) {
                Ok(per_edge) => ctx.profiler.time("convert", || {
                    replay(&row, &mut brute_records(&per_edge));
                }),
                Err(_) => failed.push(row),
            },
            Phase1::Counts(pending) => {
                let emitted = ctx.device_wait(|| pending.result()).and_then(|counts| {
                    let offsets = ctx
                        .profiler
                        .time("scan", || exclusive_scan(device, &counts));
                    enqueue_row_emit(ctx, stream, &row, cfg, offsets, spec)
                });
                match emitted {
                    Ok(pending) => emits.push((row, pending)),
                    Err(_) => failed.push(row),
                }
            }
        }
    }

    // Phase 3: collect emit results.
    for (row, pending) in emits {
        match ctx.device_wait(|| pending.result()) {
            Ok(emitted) => ctx.profiler.time("convert", || {
                replay(&row, &mut emitted.into_iter());
            }),
            Err(_) => failed.push(row),
        }
    }

    // Recovery: completed rows above are salvaged as-is; each failed
    // row is recomputed here. A device attempt re-runs the row's own
    // phases on a fresh stream, synchronously.
    for row in failed {
        let recs = recover(
            ctx,
            device,
            |ctx, fresh| {
                let mut batch = fresh.batch(true);
                let RowJob { cfg, phase1, .. } = enqueue_row_phase1(ctx, &mut batch, &row, spec)?;
                batch.commit();
                match phase1 {
                    Phase1::Brute(pending) => Ok(brute_records(&pending.result()?).collect()),
                    Phase1::Counts(pending) => {
                        let offsets = exclusive_scan(fresh.device(), &pending.result()?);
                        enqueue_row_emit(ctx, fresh, &row, cfg, offsets, spec)?.result()
                    }
                }
            },
            || row_host_records(&row.edges.host, spec),
        );
        replay(&row, &mut recs.into_iter());
    }

    ctx.stats.checks_computed += records;
    out.extend(hits);
}

/// Enqueues one row's first device phase (brute kernel, or sweepline
/// count kernel) into `batch`, acquiring the shared device-resident
/// buffers through the same batch.
fn enqueue_row_phase1(
    ctx: &mut RunContext<'_>,
    batch: &mut LaunchBatch<'_>,
    row: &Arc<PlannedRow>,
    spec: SpaceSpec,
) -> XpuResult<RowJob> {
    let n = row.edges.host.len();
    // One thread per edge.
    let cfg = LaunchConfig::for_threads(n);
    let (dev_edges, elided) = row.edges.acquire_in(batch)?;
    ctx.note_upload(elided, row.edges.bytes());
    let (dev_runs, elided) = row.runs.acquire_in(batch)?;
    ctx.note_upload(elided, row.runs.bytes());
    let phase1 = if n <= ctx.options.sweep_threshold {
        // Brute-force executor: one tile launch, plain for loops.
        let out_buf = batch.try_alloc::<Vec<(u32, i64)>>(n)?;
        batch.try_launch_tiles(cfg, &out_buf, brute_kernel(dev_edges, dev_runs, spec))?;
        Phase1::Brute(batch.try_download(&out_buf)?)
    } else {
        // Sweepline executor, kernel 1: per-edge check range and
        // violation count.
        let counts_buf = batch.try_alloc::<usize>(n)?;
        batch.try_launch_tiles(cfg, &counts_buf, count_kernel(dev_edges, dev_runs, spec))?;
        Phase1::Counts(batch.try_download(&counts_buf)?)
    };
    Ok(RowJob {
        row: Arc::clone(row),
        cfg,
        phase1,
    })
}

/// Enqueues a sweepline row's emit kernel on `stream` (one fused batch
/// per row). The edges and run table are already device-resident from
/// phase 1, so this acquires (elides) rather than re-uploading.
fn enqueue_row_emit(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    row: &PlannedRow,
    cfg: LaunchConfig,
    offsets: Vec<usize>,
    spec: SpaceSpec,
) -> XpuResult<Pending<Vec<Record>>> {
    let total = *offsets.last().expect("scan returns n+1 entries");
    let mut batch = stream.batch(true);
    let (dev_edges, elided) = row.edges.acquire_in(&mut batch)?;
    ctx.note_upload(elided, row.edges.bytes());
    let (dev_runs, elided) = row.runs.acquire_in(&mut batch)?;
    ctx.note_upload(elided, row.runs.bytes());
    let out_buf = batch.try_alloc::<Record>(total)?;
    // Kernel 2: emit each edge's violations into its range.
    batch.try_launch_scatter_tiles(
        cfg,
        &out_buf,
        offsets,
        emit_kernel(dev_edges, dev_runs, spec),
    )?;
    let pending = batch.try_download(&out_buf)?;
    batch.commit();
    Ok(pending)
}

/// The host executor of one packed template or row: the same windowed
/// enumeration as the device kernels, run inline — guaranteeing an
/// identical record set (the executor choice does not change the
/// records, so no threshold is needed here). It is the default mode's
/// spacing check and the device units' host fallback.
pub(crate) fn row_host_records(edges: &[PackedEdge], spec: SpaceSpec) -> Vec<Record> {
    let runs = build_runs(edges);
    let mut recs = Vec::new();
    let mut r = 0usize;
    for i in 0..edges.len() {
        while (runs[r].end as usize) <= i {
            r += 1;
        }
        for_each_hit(edges, &runs, i, r, spec, &mut |j, d2| {
            recs.push((i as u32, j, d2));
        });
    }
    recs
}

/// Fresh-stream device attempts per failed work unit before it is
/// recomputed on the host.
const DEVICE_RETRIES: usize = 2;

/// Recovers one failed work unit where its collect saw the failure: up
/// to [`DEVICE_RETRIES`] device `attempt`s, each handed a fresh stream
/// (stream errors are sticky; the device itself survives kernel
/// panics) on which it re-runs the unit's own enqueue code to
/// completion, then the `host` recomputation. Either way the unit
/// yields the same result. Injected faults are one-shot, so the
/// attempts need no backoff; once the run's cancel token trips, fresh
/// streams are born poisoned and the unit goes straight to the host.
fn recover<T>(
    ctx: &mut RunContext<'_>,
    device: &Device,
    mut attempt: impl FnMut(&mut RunContext<'_>, &Stream) -> XpuResult<T>,
    host: impl FnOnce() -> T,
) -> T {
    for _ in 0..DEVICE_RETRIES {
        ctx.stats.device_retries += 1;
        if let Ok(done) = attempt(ctx, &device.stream()) {
            return done;
        }
    }
    ctx.stats.device_fallbacks += 1;
    host()
}

/// Turns one executor record `(a, b, d2)` of `row` into violations: one
/// for a partition row (top coordinates). A template's edges are
/// cell-local, and a violating pair inside a placement is the template's
/// pair under that placement's isometry — same `d2`, location
/// transformed — so the record is replayed through every placement, as
/// [`LocalViolation::instantiate`] does for the sequential memo.
pub(crate) fn replay_record(rule: &str, row: &PlannedRow, rec: Record, out: &mut Vec<Violation>) {
    let local = record_violation(&row.edges.host, rec);
    match &row.instances {
        None => out.push(local.named(rule)),
        Some(placements) => out.extend(placements.iter().map(|t| local.instantiate(t).named(rule))),
    }
}

/// The violation one executor record `(a, b, d2)` stands for, in the
/// coordinates of the packed array `edges`: the hull of the two edges.
pub(crate) fn record_violation(edges: &[PackedEdge], (a, b, d2): Record) -> LocalViolation {
    let ea = unpack(edges[a as usize]);
    let eb = unpack(edges[b as usize]);
    LocalViolation {
        kind: ViolationKind::Space,
        location: ea.mbr().hull(eb.mbr()),
        measured: d2,
    }
}

/// A whole-rule kernel body: one element's result, computed alike by a
/// device thread and by the host fallback.
type MapKernel<X, Y> = Arc<dyn Fn(&X) -> Y + Send + Sync>;

/// A rule whose device work is one map kernel over shared `data`: the
/// work unit retried and recomputed as a whole.
struct MapIssue<X, Y> {
    data: Arc<SharedDeviceData<X>>,
    kernel: MapKernel<X, Y>,
    /// `None` when `data` is empty or the map failed to enqueue (collect
    /// then goes straight to recovery).
    pending: Option<Pending<Vec<Y>>>,
}

/// Issue half of a map rule: enqueue [`enqueue_map`] on the rule's
/// stream unless there is nothing to map.
fn issue_map<X, Y>(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    data: Arc<SharedDeviceData<X>>,
    kernel: MapKernel<X, Y>,
) -> MapIssue<X, Y>
where
    X: Send + Sync + 'static,
    Y: Default + Clone + Send + Sync + 'static,
{
    let pending = if data.host.is_empty() {
        None
    } else {
        enqueue_map(ctx, stream, &data, &kernel).ok()
    };
    MapIssue {
        data,
        kernel,
        pending,
    }
}

/// Enqueues one map over `data` on `stream` in a fused batch: acquire
/// the shared buffer, one thread per element computing `kernel`, and
/// the download of the results.
fn enqueue_map<X, Y>(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    data: &SharedDeviceData<X>,
    kernel: &MapKernel<X, Y>,
) -> XpuResult<Pending<Vec<Y>>>
where
    X: Send + Sync + 'static,
    Y: Default + Clone + Send + Sync + 'static,
{
    let n = data.host.len();
    let mut batch = stream.batch(true);
    let (dev_data, elided) = data.acquire_in(&mut batch)?;
    ctx.note_upload(elided, data.bytes());
    let out_buf = batch.try_alloc::<Y>(n)?;
    let kernel = Arc::clone(kernel);
    batch.try_launch_map(LaunchConfig::for_threads(n), &out_buf, move |tctx, slot| {
        *slot = kernel(&dev_data.read()[tctx.global_id()]);
    })?;
    let pending = batch.try_download(&out_buf)?;
    batch.commit();
    Ok(pending)
}

/// Collect half of a map rule: wait for the map, recovering it on
/// failure, and tally one computed check per element.
fn collect_map<X, Y>(ctx: &mut RunContext<'_>, device: &Device, issue: MapIssue<X, Y>) -> Vec<Y>
where
    X: Send + Sync + 'static,
    Y: Default + Clone + Send + Sync + 'static,
{
    let MapIssue {
        data,
        kernel,
        pending,
    } = issue;
    ctx.stats.checks_computed += data.host.len();
    if data.host.is_empty() {
        return Vec::new();
    }
    match pending.map(|pending| ctx.device_wait(|| pending.result())) {
        Some(Ok(results)) => results,
        _ => recover(
            ctx,
            device,
            |ctx, fresh| enqueue_map(ctx, fresh, &data, &kernel)?.result(),
            || data.host.iter().map(|x| kernel(x)).collect(),
        ),
    }
}

/// Issue half of a width / area rule: a map over the layer's shared
/// unique-polygon buffer. The instantiation host work happens at
/// collect. The `pruning: false` ablation maps each placed instance of
/// every polygon instead, as the default mode recomputes each instance.
fn issue_intra(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    layer: Layer,
    is_width: bool,
    min: i64,
) -> InFlightKind {
    let data = ctx.intra_data(layer);
    let kernel: MapKernel<Polygon, Vec<LocalViolation>> = Arc::new(move |poly: &Polygon| {
        let mut found = Vec::new();
        if is_width {
            crate::checks::poly::width_violations(poly, min, &mut found);
        } else {
            let area = poly.area();
            if area < min {
                found.push(LocalViolation {
                    kind: ViolationKind::Area,
                    location: poly.mbr(),
                    measured: area,
                });
            }
        }
        found
    });
    let polys = if ctx.options.pruning {
        Arc::clone(&data.polys)
    } else {
        let layout = ctx.layout;
        let instances = ctx.instances.get_or_insert_with(|| cell_instances(layout));
        let placed: Vec<Polygon> = (data.targets.iter().zip(data.polys.host.iter()))
            .flat_map(|((cell, _), poly)| {
                std::iter::repeat_n(poly, instances[cell.index()].len()).cloned()
            })
            .collect();
        Arc::new(SharedDeviceData::new(Arc::new(placed)))
    };
    let map = issue_map(ctx, stream, polys, kernel);
    InFlightKind::Intra { map, data }
}

/// Host side of a width / area rule's collect: replays each cell's
/// local violations through all its instances. `found` holds one entry
/// per unique polygon, or (the `pruning: false` ablation) one per
/// placed instance, in target then instance order.
fn emit_intra(
    ctx: &mut RunContext<'_>,
    rule_name: &str,
    data: &IntraData,
    found: &[Vec<LocalViolation>],
    out: &mut Vec<Violation>,
) {
    // An empty layer needs no instance table and no convert phase.
    if found.is_empty() {
        return;
    }
    let layout = ctx.layout;
    let instances = ctx.instances.get_or_insert_with(|| cell_instances(layout));
    let targets = Arc::clone(&data.targets);
    let pruning = ctx.options.pruning;
    let reused = &mut ctx.stats.checks_reused;
    ctx.profiler.time("convert", || {
        let mut found = found.iter();
        let mut emit = |local: &Vec<LocalViolation>, t| {
            out.extend(local.iter().map(|v| v.instantiate(t).named(rule_name)));
        };
        for (cell, _) in targets.iter() {
            let transforms = &instances[cell.index()];
            if pruning {
                // Each further instance reuses the unique polygon's check.
                *reused += transforms.len().saturating_sub(1);
                let local = found.next().expect("one result per polygon");
                transforms.iter().for_each(|t| emit(local, t));
            } else {
                transforms
                    .iter()
                    .zip(found.by_ref())
                    .for_each(|(t, local)| emit(local, t));
            }
        }
    });
}

/// Issue half of an enclosure / overlap-area rule: join the inner
/// shapes with the outer objects on the host (through the memoized
/// scenes) and map [`PairsWork::measure`] over the shape indices.
fn issue_pairs(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    pairs: PairsRule,
    window: Option<DirtyWindow<'_>>,
) -> InFlightKind {
    let (inner_scene, outer_scene) = enclosure_scenes(ctx, pairs, window);
    let work = Arc::new(PairsWork::new(ctx, pairs, inner_scene, outer_scene, window));
    let shapes = u32::try_from(work.len()).expect("shape count fits u32");
    let measured = Arc::clone(&work);
    let kernel: MapKernel<u32, i64> = Arc::new(move |&i| measured.measure(i as usize));
    let data = Arc::new(SharedDeviceData::new(Arc::new((0..shapes).collect())));
    let map = issue_map(ctx, stream, data, kernel);
    InFlightKind::Pairs { map, work }
}

/// Thresholds a pair rule's per-shape measures into violations at the
/// shapes' MBRs.
fn emit_pairs(
    ctx: &mut RunContext<'_>,
    rule_name: &str,
    work: &PairsWork,
    measures: Vec<i64>,
    out: &mut Vec<Violation>,
) {
    if measures.is_empty() {
        return;
    }
    ctx.profiler.time("convert", || {
        let hits = measures.into_iter().enumerate();
        out.extend(hits.filter_map(|(i, measured)| work.violation(rule_name, i, measured)));
    });
}
