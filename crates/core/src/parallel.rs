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
//! "Relevant" is decided by the hierarchy ([`RowSet`]): the partition
//! rows hold only the polygons inside candidate-pair windows, and each
//! placed cell definition a rule has no verdict for is packed once as a
//! cell-local *template*. Each kind is one flattened, segmented array
//! ([`Segmented`]): the rows, shared by every rule that reads the row
//! set, and the rule's own templates. A spacing rule launches once per
//! phase over both, one thread per edge. A launch of at most
//! [`EngineOptions::sweep_threshold`] edges runs the **brute-force
//! executor** (one kernel, plain `for` loops); a larger one the
//! **sweepline executor**: a first kernel counts each edge's
//! violations, an exclusive scan sizes the output, and a second kernel
//! emits the records — the two-kernel-launch structure the paper chose
//! "for efficient kernel code optimization (viz. for loops versus while
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
//! collection: a rule's uploads and kernels are queued on its stream at
//! issue and run when a wait drains it, with one deferred
//! synchronization per stream (§V-C);
//! the [planner](crate::plan) additionally keeps packed row buffers
//! device-resident so N rules on one layer upload once. A rule the
//! host runs — an out-of-core shard loop, a rule without a device body
//! ([`has_device_body`]) — is an `InFlightRule::Host`, finished at issue.
//! Width, area and spacing rules are the default mode's [`IntraWork`]
//! and [`SpaceWork`] with the host fan-out swapped for device work (one
//! map kernel over the targets; one launch per phase over the units):
//! the same cache misses, the same predicate, the same finish.
//!
//! # Graceful degradation
//!
//! Every device interaction goes through the fallible `try_*` APIs.
//! When an operation fails (OOM against the device budget, a kernel
//! panic, a stalled or poisoned stream), the collect half that sees the
//! failure [`recover`]s the failed launch — a spacing rule's, or a
//! width, area or pair rule's map — on the spot: up to
//! [`DEVICE_RETRIES`] device attempts, each re-running the launch's own
//! enqueue functions on a fresh stream, then a recomputation on the
//! host with the same check logic (per unit, for spacing). Shared
//! buffers are re-acquired through the [planner](crate::plan)'s cache,
//! which elides an intact upload and repairs a failed one, so the final
//! violation set is identical to a fault-free device run, and
//! [`collect_rule`] returns only once its rule is complete. Injected
//! faults are one-shot, so the attempts need no backoff. Retries and
//! fallbacks are tallied in [`EngineStats::device_retries`] /
//! [`EngineStats::device_fallbacks`].
//!
//! [`EngineOptions::sweep_threshold`]: crate::EngineOptions::sweep_threshold
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
    build_runs, pack, span_lo, unpack, PackedEdge, RowSet, RunInfo, Segmented, SharedDeviceData,
};
use crate::rules::{PairsRule, PolygonInfo, Rule, RuleFamily, RuleKind};
use crate::scene::DirtyWindow;
use crate::sequential::{enclosure_scenes, CellMemo, IntraWork, PairsWork, RunContext, SpaceWork};
use crate::violation::{Violation, ViolationKind};

/// A violation record of the spacing executors: edge indices `(a, b)`
/// (a launch's arrays, one after another, or one unit's edges on the
/// host) plus the squared distance.
type Record = (u32, u32, i64);

/// What a launch's first phase downloads, by executor.
enum Phase1 {
    /// Brute force: every edge's records, final.
    Brute(Pending<Vec<Vec<Record>>>),
    /// Sweepline kernel 1: every edge's violation count, which sizes
    /// the emit kernel's output.
    Counts(Pending<Vec<usize>>),
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

/// The windowed candidate enumeration every spacing executor shares:
/// visits the partners `j > i` of edge `i` (which lives in run `r` of
/// its unit's run table `runs`) that could possibly violate `spec`,
/// calling `hit(j, d2)` for each actual violation. Count, emit, brute
/// and host fallback all walk this exact sequence, so their outputs
/// agree pair for pair. `runs` ends with the unit's last run, so the
/// walk never leaves the unit.
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

/// One [`Segmented`] array as a launch reads it: its device-resident
/// edges and runs, and its segment table (a kernel argument).
type DeviceArray = (
    DeviceBuffer<PackedEdge>,
    DeviceBuffer<RunInfo>,
    Arc<Vec<[u32; 2]>>,
);

/// The enumeration of one kernel tile: for each launch index `g` in
/// `range`, runs [`for_each_hit`] over the runs of `g`'s segment and
/// calls `hit(g - range.start, (g, j, d2))` for each violation. Array
/// sizes come from the segment tables, so a buffer a failed upload left
/// empty fails the launch instead of reading as no edges.
fn launch_hits(
    arrays: &[DeviceArray],
    range: Range<usize>,
    spec: SpaceSpec,
    mut hit: impl FnMut(usize, Record),
) {
    let mut base = 0;
    for (edges, runs, starts) in arrays {
        let (edges, runs, len) = (edges.read(), runs.read(), starts[starts.len() - 1][0]);
        let first = range.start.max(base) - base;
        let mut r = runs.partition_point(|run| (run.end as usize) <= first);
        let mut s = starts.partition_point(|start| (start[1] as usize) <= r);
        for i in first..range.end.saturating_sub(base).min(len as usize) {
            while (runs[r].end as usize) <= i {
                r += 1;
            }
            while (starts[s][1] as usize) <= r {
                s += 1;
            }
            let unit = &runs[starts[s - 1][1] as usize..starts[s][1] as usize];
            let (r, g) = (r - starts[s - 1][1] as usize, base + i);
            for_each_hit(&edges, unit, i, r, spec, &mut |j, d2| {
                hit(g - range.start, (g as u32, (base as u32) + j, d2));
            });
        }
        base += len as usize;
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

/// A spacing rule's launch: its missing templates, then the row set's
/// rows, whose segments are the [`SpaceWork`]'s units in order.
struct SpaceIssue {
    spec: SpaceSpec,
    work: SpaceWork,
    templates: Segmented,
    rows: Arc<RowSet>,
    /// The first phase, `None` when there is nothing to launch.
    phase1: Option<XpuResult<Phase1>>,
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
                    Arc::new(RowSet::build(ctx, scene, spec.min))
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
/// (scan+emit) phase where needed, recovers a failed launch, and
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
    // Errors were already handled per launch; drain the stream without
    // re-raising them.
    let _ = stream.try_synchronize();
}

/// Issue half of the spacing pipeline: one [`SpaceWork`] over the row
/// set's templates and rows, the host pack of the templates it is
/// missing, and one first-phase launch over both arrays. The phase goes
/// through one fused [`LaunchBatch`], so its uploads and kernel join the
/// stream's queue together.
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
    let units = rows.rows.segments().len();
    let work = SpaceWork::new(ctx, &rows.templates, units, sig, CellMemo::new());
    let missing = &work.units[..work.units.partition_point(|&u| u < rows.templates.len())];
    let (templates, ..) = pack(ctx, &rows.scene, &rows.templates, &[], missing, rows.half);
    // A template is a leaf on the layer: it keeps edges, one segment each.
    debug_assert_eq!(templates.segments().len(), missing.len());
    let phase1 = (!work.units.is_empty()).then(|| {
        let mut batch = stream.batch(true);
        let phase1 = enqueue_phase1(ctx, &mut batch, [&templates, &rows.rows], spec);
        batch.commit();
        phase1
    });
    SpaceIssue {
        spec,
        work,
        templates,
        rows,
        phase1,
    }
}

/// Collect half of the spacing pipeline: the launch's remaining phases,
/// its recovery, and the work's finish.
fn collect_space(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    rule_name: &str,
    issue: SpaceIssue,
    out: &mut Vec<Violation>,
) {
    let (spec, arrays) = (issue.spec, [&issue.templates, &issue.rows.rows]);
    let complete = |phase1| complete_launch(ctx, stream, arrays, spec, phase1);
    let checked = match issue.phase1.map(|phase1| phase1.and_then(complete)) {
        None => Vec::new(),
        Some(Ok(records)) => ctx
            .profiler
            .time("convert", || unit_violations(arrays, records)),
        // A device attempt re-runs the launch's own phases on a fresh
        // stream; the host runs each of its units.
        _ => recover(
            ctx,
            stream.device(),
            |ctx, fresh| {
                let mut batch = fresh.batch(true);
                let phase1 = enqueue_phase1(ctx, &mut batch, arrays, spec)?;
                batch.commit();
                let records = complete_launch(ctx, fresh, arrays, spec, phase1)?;
                Ok(unit_violations(arrays, records))
            },
            || {
                let host = |edges| {
                    let records = row_host_records(edges, spec).into_iter();
                    records.map(|rec| record_violation(edges, rec)).collect()
                };
                arrays.iter().flat_map(|a| a.segments()).map(host).collect()
            },
        ),
    };
    let start = std::time::Instant::now();
    issue
        .work
        .finish(ctx, &issue.rows.scene, rule_name, checked, out);
    ctx.profiler.add("convert", start.elapsed());
}

/// Acquires the shared device-resident buffers of a launch's non-empty
/// `arrays` through `batch`.
fn acquire_arrays(
    ctx: &mut RunContext<'_>,
    batch: &mut LaunchBatch<'_>,
    arrays: [&Segmented; 2],
) -> XpuResult<Vec<DeviceArray>> {
    let arrays = arrays.into_iter().filter(|a| !a.edges.host.is_empty());
    arrays
        .map(|array| {
            let (edges, elided) = array.edges.acquire_in(batch)?;
            ctx.note_upload(elided, array.edges.bytes());
            let (runs, elided) = array.runs.acquire_in(batch)?;
            ctx.note_upload(elided, array.runs.bytes());
            Ok((edges, runs, Arc::clone(&array.starts)))
        })
        .collect()
}

/// Enqueues a launch's first phase into `batch`, one thread per edge:
/// the brute-force kernel if the launch has at most
/// [`EngineOptions::sweep_threshold`] edges, else the sweepline's count
/// kernel.
///
/// [`EngineOptions::sweep_threshold`]: crate::EngineOptions::sweep_threshold
fn enqueue_phase1(
    ctx: &mut RunContext<'_>,
    batch: &mut LaunchBatch<'_>,
    arrays: [&Segmented; 2],
    spec: SpaceSpec,
) -> XpuResult<Phase1> {
    let n = arrays.iter().map(|array| array.edges.host.len()).sum();
    let cfg = LaunchConfig::for_threads(n);
    let acquired = acquire_arrays(ctx, batch, arrays)?;
    if n <= ctx.options.sweep_threshold {
        // Brute force: every edge's records, plain `for` loops.
        let out = batch.try_alloc::<Vec<Record>>(n)?;
        batch.try_launch_tiles(cfg, &out, move |range, tile: &mut [Vec<Record>]| {
            launch_hits(&acquired, range, spec, |slot, rec| tile[slot].push(rec));
        })?;
        Ok(Phase1::Brute(batch.try_download(&out)?))
    } else {
        // Sweepline kernel 1: every edge's violation count.
        let out = batch.try_alloc::<usize>(n)?;
        batch.try_launch_tiles(cfg, &out, move |range, tile: &mut [usize]| {
            tile.fill(0);
            launch_hits(&acquired, range, spec, |slot, _| tile[slot] += 1);
        })?;
        Ok(Phase1::Counts(batch.try_download(&out)?))
    }
}

/// Waits for a launch's first phase and runs the rest: brute records
/// are final; sweepline counts are scanned on the device and sized into
/// one emit launch (acquiring the already-resident arrays, which
/// elides their uploads) and one download.
fn complete_launch(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    arrays: [&Segmented; 2],
    spec: SpaceSpec,
    phase1: Phase1,
) -> XpuResult<Vec<Record>> {
    let counts = match phase1 {
        Phase1::Brute(pending) => return Ok(ctx.device_wait(|| pending.result())?.concat()),
        Phase1::Counts(pending) => ctx.device_wait(|| pending.result())?,
    };
    let scan = || exclusive_scan(stream.device(), &counts);
    let offsets = ctx.profiler.time("scan", scan);
    let cfg = LaunchConfig::for_threads(counts.len());
    let total = offsets[counts.len()];
    drop(counts);
    let mut batch = stream.batch(true);
    let acquired = acquire_arrays(ctx, &mut batch, arrays)?;
    let out = batch.try_alloc::<Record>(total)?;
    // Sweepline kernel 2: the count kernel's enumeration fills each edge's
    // scan-sized range exactly (its hits arrive together; `at` is its cursor).
    let emit = move |range, tile: &mut [&mut [Record]]| {
        let mut at = (usize::MAX, 0);
        launch_hits(&acquired, range, spec, |slot, rec| {
            if at.0 != slot {
                at = (slot, 0);
            }
            tile[slot][at.1] = rec;
            at.1 += 1;
        });
    };
    batch.try_launch_scatter_tiles(cfg, &out, offsets, emit)?;
    let pending = batch.try_download(&out)?;
    batch.commit();
    ctx.device_wait(|| pending.result())
}

/// A launch's records as each unit's local violations, in unit order:
/// a record belongs to the segment of its edge `a`.
fn unit_violations(arrays: [&Segmented; 2], records: Vec<Record>) -> Vec<Vec<LocalViolation>> {
    let [templates, rows] = arrays;
    let split = templates.edges.host.len() as u32;
    let first_row = templates.segments().len();
    let mut units = vec![Vec::new(); first_row + rows.segments().len()];
    for (a, b, d2) in records {
        let (array, first, a, b) = match a.checked_sub(split) {
            None => (templates, 0, a, b),
            Some(a) => (rows, first_row, a, b - split),
        };
        let k = array.starts.partition_point(|start| start[0] <= a) - 1;
        units[first + k].push(record_violation(&array.edges.host, (a, b, d2)));
    }
    units
}

/// The host executor of one packed template or row: the same windowed
/// enumeration as the device kernels, run inline — guaranteeing an
/// identical record set (the executor choice does not change the
/// records, so no threshold is needed here). It is the default mode's
/// spacing check and, per unit, a failed launch's host fallback.
pub(crate) fn row_host_records(edges: &[PackedEdge], spec: SpaceSpec) -> Vec<Record> {
    let mut runs = Vec::new();
    build_runs(edges, 0, &mut runs);
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

/// Fresh-stream device attempts per failed launch before it is
/// recomputed on the host.
const DEVICE_RETRIES: usize = 2;

/// Recovers one failed launch where its collect saw the failure: up to
/// [`DEVICE_RETRIES`] device `attempt`s, each handed a fresh stream
/// (stream errors are sticky; the device itself survives kernel
/// panics) on which it re-runs the launch's own enqueue code to
/// completion, then the `host` recomputation. Either way the launch
/// yields the same result. Injected faults are one-shot, so the
/// attempts need no backoff; once the run's cancel token trips, fresh
/// streams are born poisoned and the launch goes straight to the host.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn a_launch_over_a_failed_upload_fails() {
        // A faulted upload leaves its device buffer empty; a launch
        // whose segment table says the array holds edges must fail (and
        // be recovered), never read it as an array without violations.
        let stream = Device::new(1).stream();
        let edges: DeviceBuffer<PackedEdge> = stream.try_upload(Vec::new()).unwrap();
        let runs: DeviceBuffer<RunInfo> = stream.try_upload(Vec::new()).unwrap();
        let arrays = [(edges, runs, Arc::new(vec![[0, 0], [4, 2]]))];
        stream.try_synchronize().unwrap();
        launch_hits(&arrays, 0..4, SpaceSpec::simple(18), |_, _| {});
    }
}
