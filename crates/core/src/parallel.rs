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
//! executors just a small row — and the partition rows hold only the
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
//! Width, area and spacing rules are the default mode's [`IntraWork`]
//! and [`SpaceWork`] with the host fan-out swapped for device work (one
//! map kernel over the targets; the row set's packed units): the same
//! cache misses, the same predicate, the same finish.
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

use odrc_geometry::Polygon;
use odrc_xpu::{
    scan::exclusive_scan, Device, DeviceBuffer, LaunchBatch, LaunchConfig, Pending, Stream,
    XpuResult,
};

use crate::checks::edge::{space_pair_spec, SpaceSpec};
use crate::checks::poly::LocalViolation;
use crate::plan::{
    build_runs, span_lo, unpack, PackedEdge, PlannedRow, RowSet, RunInfo, SharedDeviceData,
};
use crate::rules::{PairsRule, PolygonInfo, Rule, RuleFamily, RuleKind};
use crate::scene::DirtyWindow;
use crate::sequential::{enclosure_scenes, CellMemo, IntraWork, PairsWork, RunContext, SpaceWork};
use crate::violation::{Violation, ViolationKind};

/// A violation record of the spacing executors: edge indices `(a, b)`
/// into the row's packed array plus the squared distance.
type Record = (u32, u32, i64);

/// Per-edge brute-force hits: `(other edge index, measured)` lists.
type BruteHits = Vec<Vec<(u32, i64)>>;

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
    Space(Box<SpaceIssue>),
    /// A width or area rule: one map over its [`IntraWork`]'s targets,
    /// finished (cache, counters, replay) at collect.
    Intra {
        map: MapIssue<Polygon, Vec<LocalViolation>>,
        work: Arc<IntraWork>,
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

/// A spacing rule's launched units: its [`SpaceWork`]'s, packed in the
/// row set.
struct SpaceIssue {
    spec: SpaceSpec,
    work: SpaceWork,
    rows: Arc<RowSet>,
    /// Each launched unit's in-flight first phase.
    jobs: Vec<(usize, Phase1)>,
    /// Units whose first phase failed to enqueue.
    failed: Vec<usize>,
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
            let sig = crate::cache::rule_signature(rule);
            InFlightKind::Space(Box::new(issue_space(ctx, &stream, rows, spec, sig)))
        }
        RuleFamily::Pairs(pairs) => issue_pairs(ctx, &stream, pairs, window),
        RuleFamily::Intra => issue_intra(ctx, &stream, rule),
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
    let device = stream.device();
    match kind {
        InFlightKind::Space(issue) => collect_space(ctx, &stream, &rule_name, *issue, out),
        InFlightKind::Intra { map, work } => {
            let found = collect_map(ctx, device, map).into_iter().enumerate();
            let hits = found.flat_map(|(i, local)| local.into_iter().map(move |v| (i, v)));
            let start = std::time::Instant::now();
            work.finish(ctx, &rule_name, hits, out);
            ctx.profiler.add("convert", start.elapsed());
        }
        InFlightKind::Pairs { map, work } => {
            let measures = collect_map(ctx, device, map).into_iter().enumerate();
            let start = std::time::Instant::now();
            out.extend(measures.filter_map(|(i, m)| work.violation(&rule_name, i, m)));
            ctx.profiler.add("convert", start.elapsed());
        }
    }
    // Errors were already handled per work unit; drain the stream
    // without re-raising them.
    let _ = stream.try_synchronize();
}

/// Issue half of the spacing pipeline: one [`SpaceWork`] over the row
/// set's templates and rows, and for each of its units (the missing
/// templates, then every row) the packed unit's device-resident buffers
/// and first kernel phase. The whole phase goes through one fused
/// [`LaunchBatch`], so every unit's uploads and kernels ride a single
/// stream dispatch (one worker wake per rule).
fn issue_space(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    rows: Arc<RowSet>,
    spec: SpaceSpec,
    sig: Option<u64>,
) -> SpaceIssue {
    ctx.stats.rows += rows.partition_rows;
    ctx.stats.candidate_pairs += rows.candidate_pairs;
    ctx.stats.pairs_scanned += rows.pairs_scanned;
    let partition_units = rows.units.len() - rows.templates.len();
    let work = SpaceWork::new(ctx, &rows.templates, partition_units, sig, CellMemo::new());
    let mut jobs = Vec::with_capacity(work.units.len());
    let mut failed = Vec::new();
    let mut batch = stream.batch(true);
    for (unit, &i) in work.units.iter().enumerate() {
        match enqueue_row_phase1(ctx, &mut batch, &rows.units[i], spec) {
            Ok(phase1) => jobs.push((unit, phase1)),
            Err(_) => failed.push(unit),
        }
    }
    batch.commit();
    SpaceIssue {
        spec,
        work,
        rows,
        jobs,
        failed,
    }
}

/// Collect half of the spacing pipeline: brute results, the
/// count→scan→emit second phase for sweepline units, recovery, and the
/// work's finish.
fn collect_space(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    rule_name: &str,
    issue: SpaceIssue,
    out: &mut Vec<Violation>,
) {
    let SpaceIssue {
        spec,
        work,
        rows,
        jobs,
        mut failed,
    } = issue;
    let device = stream.device();
    let row = |unit: usize| &rows.units[work.units[unit]];
    let mut records: Vec<Vec<Record>> = vec![Vec::new(); work.units.len()];
    let mut emits: Vec<(usize, Pending<Vec<Record>>)> = Vec::new();

    // Phase 2: for sweepline units, scan the counts on the device and
    // enqueue the emit kernel; brute units resolve directly.
    for (unit, phase1) in jobs {
        match phase1 {
            Phase1::Brute(pending) => match ctx.device_wait(|| pending.result()) {
                Ok(per_edge) => records[unit] = brute_records(&per_edge).collect(),
                Err(_) => failed.push(unit),
            },
            Phase1::Counts(pending) => {
                let emitted = ctx.device_wait(|| pending.result()).and_then(|counts| {
                    let offsets = ctx
                        .profiler
                        .time("scan", || exclusive_scan(device, &counts));
                    enqueue_row_emit(ctx, stream, row(unit), offsets, spec)
                });
                match emitted {
                    Ok(pending) => emits.push((unit, pending)),
                    Err(_) => failed.push(unit),
                }
            }
        }
    }

    // Phase 3: collect emit results.
    for (unit, pending) in emits {
        match ctx.device_wait(|| pending.result()) {
            Ok(emitted) => records[unit] = emitted,
            Err(_) => failed.push(unit),
        }
    }

    // Recovery: completed units above are salvaged as-is; each failed
    // unit is recomputed here. A device attempt re-runs the unit's own
    // phases on a fresh stream, synchronously.
    for unit in failed {
        let row = row(unit);
        records[unit] = recover(
            ctx,
            device,
            |ctx, fresh| {
                let mut batch = fresh.batch(true);
                let phase1 = enqueue_row_phase1(ctx, &mut batch, row, spec)?;
                batch.commit();
                match phase1 {
                    Phase1::Brute(pending) => Ok(brute_records(&pending.result()?).collect()),
                    Phase1::Counts(pending) => {
                        let offsets = exclusive_scan(fresh.device(), &pending.result()?);
                        enqueue_row_emit(ctx, fresh, row, offsets, spec)?.result()
                    }
                }
            },
            || row_host_records(&row.edges.host, spec),
        );
    }

    let start = std::time::Instant::now();
    let checked: Vec<Vec<LocalViolation>> = (records.into_iter().enumerate())
        .map(|(unit, recs)| {
            let edges = &row(unit).edges.host;
            recs.into_iter()
                .map(|rec| record_violation(edges, rec))
                .collect()
        })
        .collect();
    work.finish(ctx, rule_name, checked, out);
    ctx.profiler.add("convert", start.elapsed());
}

/// Enqueues one unit's first device phase (brute kernel, or sweepline
/// count kernel) into `batch`, acquiring the shared device-resident
/// buffers through the same batch.
fn enqueue_row_phase1(
    ctx: &mut RunContext<'_>,
    batch: &mut LaunchBatch<'_>,
    row: &PlannedRow,
    spec: SpaceSpec,
) -> XpuResult<Phase1> {
    let n = row.edges.host.len();
    // One thread per edge, in both phases.
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
    Ok(phase1)
}

/// Enqueues a sweepline row's emit kernel on `stream` (one fused batch
/// per row). The edges and run table are already device-resident from
/// phase 1, so this acquires (elides) rather than re-uploading.
fn enqueue_row_emit(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    row: &PlannedRow,
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
        LaunchConfig::for_threads(row.edges.host.len()),
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
/// failure.
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

/// Issue half of a width / area rule: one map of
/// [`IntraWork::violations`] over its targets. Kernels outlive the
/// layout's borrow, so the map's input is a copy of the target polygons:
/// that copy is the upload. Width and area read the geometry alone.
fn issue_intra(ctx: &mut RunContext<'_>, stream: &Stream, rule: &Rule) -> InFlightKind {
    let work = Arc::new(IntraWork::new(ctx, rule));
    let layout = ctx.layout;
    let polys: Vec<Polygon> = ctx.profiler.time("pack", || {
        let targets = (0..work.len()).map(|i| work.target(layout, i));
        targets.map(|p| p.polygon.clone()).collect()
    });
    let layer = work.layer.expect("width and area read one layer");
    let checked = Arc::clone(&work);
    let kernel: MapKernel<Polygon, Vec<LocalViolation>> = Arc::new(move |polygon| {
        checked.violations(PolygonInfo {
            layer,
            name: None,
            polygon,
        })
    });
    let data = Arc::new(SharedDeviceData::new(Arc::new(polys)));
    let map = issue_map(ctx, stream, data, kernel);
    InFlightKind::Intra { map, work }
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
    ctx.stats.checks_computed += work.len();
    let shapes = u32::try_from(work.len()).expect("shape count fits u32");
    let measured = Arc::clone(&work);
    let kernel: MapKernel<u32, i64> = Arc::new(move |&i| measured.measure(i as usize));
    let data = Arc::new(SharedDeviceData::new(Arc::new((0..shapes).collect())));
    let map = issue_map(ctx, stream, data, kernel);
    InFlightKind::Pairs { map, work }
}
