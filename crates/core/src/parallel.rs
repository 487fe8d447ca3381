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
//! gather, shared zero-copy uploads, kernel launches — all enqueued on
//! the rule's own stream, returning in-flight handles immediately) and
//! a **collect** half (result waits, the scan+emit second phase,
//! recovery). [`issue_rule`] is the mode's one dispatcher: it matches
//! on [`Rule::family`] and takes the same optional [`DirtyWindow`] as
//! the sequential dispatcher. The engine issues the whole deck before
//! collecting anything, so uploads and kernels of independent rules
//! overlap across streams with one deferred synchronization per stream
//! (§V-C); the [planner](crate::plan) additionally keeps packed row
//! buffers device-resident so N rules on one layer upload once. The
//! delta checker runs the same two calls per rule — [`issue_rule`]
//! with the edit's window, then [`collect_rule`].
//!
//! # Graceful degradation
//!
//! Every device interaction goes through the fallible `try_*` APIs.
//! When an operation fails (OOM against the device budget, a kernel
//! panic, a stalled or poisoned stream), the collect half that sees the
//! failure keeps the rows that already completed and [`recover`]s each
//! failed work unit — a spacing row or template, or a whole width, area
//! or pair rule — on the spot: up to [`DEVICE_RETRIES`] complete device
//! attempts, each on a fresh stream, then a recomputation on the host
//! with the same check logic. The final violation set is therefore
//! identical to a fault-free device run, and [`collect_rule`] returns
//! only once its rule is complete. Injected faults are one-shot, so the
//! attempts follow each other without a backoff. Retries and fallbacks
//! are tallied in [`EngineStats::device_retries`] /
//! [`EngineStats::device_fallbacks`].
//!
//! [`EngineStats::device_retries`]: crate::EngineStats::device_retries
//! [`EngineStats::device_fallbacks`]: crate::EngineStats::device_fallbacks

use std::ops::Range;
use std::sync::Arc;

use odrc_db::Layer;
use odrc_geometry::{Polygon, Rect};
use odrc_xpu::{
    scan::exclusive_scan, Device, DeviceBuffer, LaunchBatch, LaunchConfig, Pending, Stream,
    XpuResult,
};

use crate::checks::edge::{space_pair_spec, SpaceSpec};
use crate::checks::poly::LocalViolation;
use crate::plan::{build_runs, span_lo, IntraData, PackedEdge, PlannedRow, RowSet, RunInfo};
use crate::rules::{PairsRule, Rule, RuleFamily, RuleKind};
use crate::scene::DirtyWindow;
use crate::sequential::{enclosure_scenes, enclosure_work, pairs_measure, RunContext};
use crate::violation::{Violation, ViolationKind};

pub(crate) use crate::plan::unpack;

/// A violation record produced by device kernels: edge indices into the
/// row's packed array plus the squared distance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PairRecord {
    a: u32,
    b: u32,
    d2: i64,
}

/// Per-edge brute-force hits: `(other edge index, measured)` lists.
type BruteHits = Vec<Vec<(u32, i64)>>;

/// One row's in-flight first device phase.
struct RowJob {
    row: Arc<PlannedRow>,
    /// Recorded launch geometry, reused by the emit phase.
    cfg: LaunchConfig,
    brute: Option<Pending<BruteHits>>,
    counts: Option<Pending<Vec<usize>>>,
}

struct RowEmit {
    row: Arc<PlannedRow>,
    records: Pending<Vec<PairRecord>>,
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
) -> impl Fn(Range<usize>, &mut [&mut [PairRecord]]) + Send + Sync + 'static {
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
                slot[k] = PairRecord {
                    a: i as u32,
                    b: j,
                    d2,
                };
                k += 1;
            });
        }
    }
}

/// An issued rule: the device work is enqueued on `stream`; results
/// materialize at [`collect_rule`].
pub(crate) struct InFlightRule {
    stream: Stream,
    kind: InFlightKind,
}

enum InFlightKind {
    Space(SpaceIssue),
    Intra(IntraIssue),
    Pairs(PairsIssue),
    /// Host-only rules (rectilinear, user predicates) run synchronously
    /// at issue time; their result rides along.
    Host(Vec<Violation>),
}

struct SpaceIssue {
    rule_name: String,
    spec: SpaceSpec,
    jobs: Vec<RowJob>,
    failed: Vec<Arc<PlannedRow>>,
}

struct IntraIssue {
    rule_name: String,
    is_width: bool,
    min: i64,
    data: Arc<IntraData>,
    pending: Option<Pending<Vec<Vec<LocalViolation>>>>,
}

struct PairsIssue {
    rule_name: String,
    pairs: PairsRule,
    work: Arc<Vec<(Polygon, Vec<Polygon>)>>,
    rects: Vec<Rect>,
    pending: Option<Pending<Vec<i64>>>,
}

/// Issues one rule's device pipeline on `stream` (taking ownership of
/// the stream) and returns without waiting for any device result. A
/// delta `window` restricts the rule to an edit's halo; windowed row
/// sets are rule-specific, so they bypass the planner's cache.
pub(crate) fn issue_rule(
    ctx: &mut RunContext<'_>,
    stream: Stream,
    rule: &Rule,
    window: Option<DirtyWindow<'_>>,
) -> InFlightRule {
    let kind = match rule.family() {
        RuleFamily::Space { layer, spec } => {
            let rows = match window {
                None => ctx.row_set(layer, spec.min),
                Some(_) => {
                    let scene = ctx.scene_for(layer, window);
                    Arc::new(RowSet::build(ctx, &scene, spec.min))
                }
            };
            InFlightKind::Space(issue_space(ctx, &stream, &rule.name, &rows, spec))
        }
        RuleFamily::Pairs(pairs) => {
            InFlightKind::Pairs(issue_pairs(ctx, &stream, &rule.name, pairs, window))
        }
        RuleFamily::Intra => match rule.kind {
            RuleKind::Width { layer, min } => {
                InFlightKind::Intra(issue_intra(ctx, &stream, &rule.name, layer, true, min))
            }
            RuleKind::Area { layer, min } => {
                InFlightKind::Intra(issue_intra(ctx, &stream, &rule.name, layer, false, min))
            }
            _ => {
                // Rectilinear / user predicates run on the host in both
                // modes (user closures are host code).
                let mut host = Vec::new();
                crate::sequential::check_intra_rule(ctx, rule, &mut host);
                InFlightKind::Host(host)
            }
        },
    };
    InFlightRule { stream, kind }
}

/// Waits for an issued rule's device results, runs the second
/// (scan+emit) phase where needed, recovers failed work units, and
/// drains the rule's stream. On return the rule is complete.
pub(crate) fn collect_rule(ctx: &mut RunContext<'_>, fl: InFlightRule, out: &mut Vec<Violation>) {
    let InFlightRule { stream, kind } = fl;
    match kind {
        InFlightKind::Space(issue) => collect_space(ctx, &stream, issue, out),
        InFlightKind::Intra(issue) => collect_intra(ctx, stream.device(), issue, out),
        InFlightKind::Pairs(issue) => collect_pairs(ctx, stream.device(), issue, out),
        InFlightKind::Host(host) => out.extend(host),
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
    rule_name: &str,
    rows: &RowSet,
    spec: SpaceSpec,
) -> SpaceIssue {
    ctx.stats.rows += rows.partition_rows;
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
    SpaceIssue {
        rule_name: rule_name.to_owned(),
        spec,
        jobs,
        failed,
    }
}

/// Collect half of the spacing pipeline: brute results, the
/// count→scan→emit second phase for sweepline rows, and recovery.
fn collect_space(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    issue: SpaceIssue,
    out: &mut Vec<Violation>,
) {
    let SpaceIssue {
        rule_name,
        spec,
        jobs,
        mut failed,
    } = issue;
    let threshold = ctx.options.sweep_threshold;
    let device = stream.device();
    let mut emits: Vec<RowEmit> = Vec::new();
    let mut hits: Vec<Violation> = Vec::new();
    // Device records, not the violations a template replays them into.
    let mut records = 0usize;

    // Phase 2: for sweepline rows, scan the counts on the device and
    // enqueue the emit kernel; brute rows resolve directly.
    for job in jobs {
        let RowJob {
            row,
            cfg,
            brute,
            counts,
        } = job;
        if let Some(pending) = brute {
            match ctx.device_wait(|| pending.result()) {
                Ok(per_edge) => ctx.profiler.time("convert", || {
                    for (i, pairs) in per_edge.iter().enumerate() {
                        records += pairs.len();
                        for &(j, d2) in pairs {
                            replay_record(&rule_name, &row, (i as u32, j, d2), &mut hits);
                        }
                    }
                }),
                Err(_) => failed.push(row),
            }
        } else if let Some(pending) = counts {
            let counts = match ctx.device_wait(|| pending.result()) {
                Ok(counts) => counts,
                Err(_) => {
                    failed.push(row);
                    continue;
                }
            };
            let offsets = ctx
                .profiler
                .time("scan", || exclusive_scan(device, &counts));
            match enqueue_row_emit(ctx, stream, &row, cfg, offsets, spec) {
                Ok(records) => emits.push(RowEmit { row, records }),
                Err(_) => failed.push(row),
            }
        }
    }

    // Phase 3: collect emit results.
    for emit in emits {
        match ctx.device_wait(|| emit.records.result()) {
            Ok(emitted) => ctx.profiler.time("convert", || {
                records += emitted.len();
                for r in emitted {
                    replay_record(&rule_name, &emit.row, (r.a, r.b, r.d2), &mut hits);
                }
            }),
            Err(_) => failed.push(emit.row),
        }
    }

    // Recovery: completed rows above are salvaged as-is; each failed
    // row is recomputed here, on a fresh stream or on the host.
    for row in failed {
        let recs = recover(
            ctx,
            device,
            |fresh| row_device_records(fresh, &row.edges.host, threshold, spec),
            || row_host_records(&row.edges.host, spec),
        );
        records += recs.len();
        for rec in recs {
            replay_record(&rule_name, &row, rec, &mut hits);
        }
    }

    ctx.stats.checks_computed += records;
    out.extend(hits);
}

/// Enqueues one row's first device phase (brute kernel, or sweepline
/// count kernel) into the rule's launch batch, acquiring the shared
/// device-resident buffers through the same batch.
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
    if n <= ctx.options.sweep_threshold {
        // Brute-force executor: one tile launch, plain for loops.
        let out_buf = batch.try_alloc::<Vec<(u32, i64)>>(n)?;
        batch.try_launch_tiles(cfg, &out_buf, brute_kernel(dev_edges, dev_runs, spec))?;
        Ok(RowJob {
            row: Arc::clone(row),
            cfg,
            brute: Some(batch.try_download(&out_buf)?),
            counts: None,
        })
    } else {
        // Sweepline executor, kernel 1: per-edge check range and
        // violation count.
        let counts_buf = batch.try_alloc::<usize>(n)?;
        batch.try_launch_tiles(cfg, &counts_buf, count_kernel(dev_edges, dev_runs, spec))?;
        Ok(RowJob {
            row: Arc::clone(row),
            cfg,
            brute: None,
            counts: Some(batch.try_download(&counts_buf)?),
        })
    }
}

/// Enqueues a sweepline row's emit kernel on the rule's stream (one
/// fused batch per row). The edges and run table are already
/// device-resident from phase 1, so this acquires (elides) rather
/// than re-uploading.
fn enqueue_row_emit(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    row: &PlannedRow,
    cfg: LaunchConfig,
    offsets: Vec<usize>,
    spec: SpaceSpec,
) -> XpuResult<Pending<Vec<PairRecord>>> {
    let total = *offsets.last().expect("scan returns n+1 entries");
    let mut batch = stream.batch(true);
    let (dev_edges, elided) = row.edges.acquire_in(&mut batch)?;
    ctx.note_upload(elided, row.edges.bytes());
    let (dev_runs, elided) = row.runs.acquire_in(&mut batch)?;
    ctx.note_upload(elided, row.runs.bytes());
    let out_buf = batch.try_alloc::<PairRecord>(total)?;
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

/// One complete synchronous device attempt at a row, on the given
/// (fresh) stream. Runs the same executors as the pipelined path. The
/// run table is rebuilt here (the cached copy may be the failed one).
fn row_device_records(
    stream: &Stream,
    edges: &Arc<Vec<PackedEdge>>,
    threshold: usize,
    spec: SpaceSpec,
) -> XpuResult<Vec<(u32, u32, i64)>> {
    let n = edges.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let dev_edges = stream.try_upload_shared(Arc::clone(edges))?;
    let dev_runs = stream.try_upload_shared(Arc::new(build_runs(edges)))?;
    if n <= threshold {
        let out_buf = stream.try_alloc::<Vec<(u32, i64)>>(n)?;
        stream.try_launch_tiles(
            LaunchConfig::for_threads(n),
            &out_buf,
            brute_kernel(dev_edges, dev_runs, spec),
        )?;
        let per_edge = stream.try_download(&out_buf)?.result()?;
        let mut recs = Vec::new();
        for (i, pairs) in per_edge.iter().enumerate() {
            for &(j, d2) in pairs {
                recs.push((i as u32, j, d2));
            }
        }
        Ok(recs)
    } else {
        let counts_buf = stream.try_alloc::<usize>(n)?;
        stream.try_launch_tiles(
            LaunchConfig::for_threads(n),
            &counts_buf,
            count_kernel(dev_edges.clone(), dev_runs.clone(), spec),
        )?;
        let counts = stream.try_download(&counts_buf)?.result()?;
        let offsets = exclusive_scan(stream.device(), &counts);
        let total = *offsets.last().expect("scan returns n+1 entries");
        let out_buf = stream.try_alloc::<PairRecord>(total)?;
        stream.try_launch_scatter_tiles(
            LaunchConfig::for_threads(n),
            &out_buf,
            offsets,
            emit_kernel(dev_edges, dev_runs, spec),
        )?;
        let records = stream.try_download(&out_buf)?.result()?;
        Ok(records.into_iter().map(|r| (r.a, r.b, r.d2)).collect())
    }
}

/// The host (CPU) fallback for one row: the same windowed enumeration
/// as the device kernels, run inline — guaranteeing an identical
/// record set (the executor choice does not change the records, so no
/// threshold is needed here).
pub(crate) fn row_host_records(edges: &[PackedEdge], spec: SpaceSpec) -> Vec<(u32, u32, i64)> {
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
/// to [`DEVICE_RETRIES`] complete device `attempt`s, each on a fresh
/// stream (stream errors are sticky; the device itself survives kernel
/// panics), then the `host` recomputation. Either way the unit yields
/// the same result. Injected faults are one-shot, so the attempts need
/// no backoff; once the run's cancel token trips, fresh streams are
/// born poisoned and the unit goes straight to the host.
fn recover<T>(
    ctx: &mut RunContext<'_>,
    device: &Device,
    attempt: impl Fn(&Stream) -> XpuResult<T>,
    host: impl FnOnce() -> T,
) -> T {
    for _ in 0..DEVICE_RETRIES {
        ctx.stats.device_retries += 1;
        if let Ok(done) = attempt(&device.stream()) {
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
pub(crate) fn replay_record(
    rule: &str,
    row: &PlannedRow,
    (a, b, d2): (u32, u32, i64),
    out: &mut Vec<Violation>,
) {
    let local = make_violation(rule, &row.edges.host, a, b, d2);
    match &row.instances {
        None => out.push(local),
        Some(placements) => out.extend(placements.iter().map(|t| Violation {
            location: t.apply_rect(local.location),
            ..local.clone()
        })),
    }
}

fn make_violation(rule: &str, edges: &[PackedEdge], a: u32, b: u32, d2: i64) -> Violation {
    let ea = unpack(edges[a as usize]);
    let eb = unpack(edges[b as usize]);
    Violation {
        rule: rule.to_owned(),
        kind: ViolationKind::Space,
        location: ea.mbr().hull(eb.mbr()),
        measured: d2,
    }
}

/// Issue half of an intra-polygon width/area rule: acquire the layer's
/// shared polygon buffer and launch the per-polygon kernel. The
/// memoization and instantiation host work happens at collect.
fn issue_intra(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    rule_name: &str,
    layer: Layer,
    is_width: bool,
    min: i64,
) -> IntraIssue {
    let data = ctx.intra_data(layer);
    let n = data.polys.host.len();
    let pending = if n == 0 {
        None
    } else {
        // Issue-time failure: collect goes straight to recovery.
        enqueue_intra(ctx, stream, &data, is_width, min).ok()
    };
    IntraIssue {
        rule_name: rule_name.to_owned(),
        is_width,
        min,
        data,
        pending,
    }
}

fn enqueue_intra(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    data: &IntraData,
    is_width: bool,
    min: i64,
) -> XpuResult<Pending<Vec<Vec<LocalViolation>>>> {
    let n = data.polys.host.len();
    let mut batch = stream.batch(true);
    let (dev_polys, elided) = data.polys.acquire_in(&mut batch)?;
    ctx.note_upload(elided, data.polys.bytes());
    let out_buf = batch.try_alloc::<Vec<LocalViolation>>(n)?;
    let check = intra_local_check(is_width, min);
    batch.try_launch_map(LaunchConfig::for_threads(n), &out_buf, move |tctx, slot| {
        check(&dev_polys.read()[tctx.global_id()], slot);
    })?;
    let pending = batch.try_download(&out_buf)?;
    batch.commit();
    Ok(pending)
}

/// The whole-rule kernel body, shared by the device attempt and the
/// host fallback.
fn intra_local_check(
    is_width: bool,
    min: i64,
) -> impl Fn(&Polygon, &mut Vec<LocalViolation>) + Send + Sync + Clone + 'static {
    move |poly, slot| {
        if is_width {
            crate::checks::poly::width_violations(poly, min, slot);
        } else {
            let area = poly.area();
            if area < min {
                slot.push(LocalViolation {
                    kind: ViolationKind::Area,
                    location: poly.mbr(),
                    measured: area,
                });
            }
        }
    }
}

/// Collect half of an intra rule: wait for the per-polygon kernel,
/// recover on failure, then replay each cell's local violations
/// through all its instances on the host.
fn collect_intra(
    ctx: &mut RunContext<'_>,
    device: &Device,
    issue: IntraIssue,
    out: &mut Vec<Violation>,
) {
    let IntraIssue {
        rule_name,
        is_width,
        min,
        data,
        pending,
    } = issue;
    let n = data.polys.host.len();
    if n == 0 {
        return;
    }

    let waited = match pending {
        Some(pending) => ctx.device_wait(|| pending.result()),
        None => Err(odrc_xpu::XpuError::StreamTimeout { op: "issue" }),
    };
    // The whole rule is one work unit. A fresh attempt uploads the
    // polygons anew: the shared resident copy may be the failed one.
    let per_poly = match waited {
        Ok(per_poly) => per_poly,
        Err(_) => recover(
            ctx,
            device,
            |fresh| {
                let check = intra_local_check(is_width, min);
                let dev_polys = fresh.try_upload_shared(Arc::clone(&data.polys.host))?;
                let out_buf = fresh.try_alloc::<Vec<LocalViolation>>(n)?;
                fresh.try_launch_map(
                    LaunchConfig::for_threads(n),
                    &out_buf,
                    move |tctx, slot| {
                        check(&dev_polys.read()[tctx.global_id()], slot);
                    },
                )?;
                fresh.try_download(&out_buf)?.result()
            },
            || {
                let check = intra_local_check(is_width, min);
                data.polys
                    .host
                    .iter()
                    .map(|poly| {
                        let mut slot = Vec::new();
                        check(poly, &mut slot);
                        slot
                    })
                    .collect()
            },
        ),
    };
    emit_intra(ctx, &rule_name, &data, &per_poly, out);
}

/// Host side of an intra rule's collect: tallies the per-polygon
/// checks and replays each cell's local violations through all its
/// instances. Shared by the fault-free path and recovery.
fn emit_intra(
    ctx: &mut RunContext<'_>,
    rule_name: &str,
    data: &IntraData,
    per_poly: &[Vec<LocalViolation>],
    out: &mut Vec<Violation>,
) {
    ctx.stats.checks_computed += data.polys.host.len();
    let layout = ctx.layout;
    let instances = ctx
        .instances
        .get_or_insert_with(|| crate::scene::instance_transforms(layout));
    let targets = Arc::clone(&data.targets);
    ctx.profiler.time("convert", || {
        for (idx, (cell, _)) in targets.iter().enumerate() {
            let Some(transforms) = instances.get(cell) else {
                continue;
            };
            ctx.stats.checks_reused += transforms.len().saturating_sub(1);
            for t in transforms {
                for v in &per_poly[idx] {
                    let vi = v.instantiate(t);
                    out.push(Violation {
                        rule: rule_name.to_owned(),
                        kind: vi.kind,
                        location: vi.location,
                        measured: vi.measured,
                    });
                }
            }
        }
    });
}

/// Issue half of an enclosure / overlap-area rule: gather the work
/// list on the host (through the memoized scenes), upload it without a
/// staging copy, and launch the per-shape kernel.
fn issue_pairs(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    rule_name: &str,
    pairs: PairsRule,
    window: Option<DirtyWindow<'_>>,
) -> PairsIssue {
    let (inner_scene, outer_scene) = enclosure_scenes(ctx, pairs, window);
    let work: Arc<Vec<(Polygon, Vec<Polygon>)>> = Arc::new(enclosure_work(
        ctx,
        &inner_scene,
        &outer_scene,
        pairs.gather(),
        window,
    ));
    let rects: Vec<Rect> = work.iter().map(|(p, _)| p.mbr()).collect();
    let pending = if work.is_empty() {
        None
    } else {
        // Issue-time failure: collect goes straight to recovery.
        enqueue_pairs(ctx, stream, pairs, &work).ok()
    };
    PairsIssue {
        rule_name: rule_name.to_owned(),
        pairs,
        work,
        rects,
        pending,
    }
}

fn enqueue_pairs(
    ctx: &mut RunContext<'_>,
    stream: &Stream,
    pairs: PairsRule,
    work: &Arc<Vec<(Polygon, Vec<Polygon>)>>,
) -> XpuResult<Pending<Vec<i64>>> {
    let n = work.len();
    let bytes = (n * std::mem::size_of::<(Polygon, Vec<Polygon>)>()) as u64;
    let mut batch = stream.batch(true);
    let dev_work = batch.try_upload_shared(Arc::clone(work))?;
    ctx.note_upload(false, bytes);
    let measures = batch.try_alloc::<i64>(n)?;
    let measure = pairs_measure(pairs);
    batch.try_launch_map(
        LaunchConfig::for_threads(n),
        &measures,
        move |tctx, slot| {
            let work = dev_work.read();
            let (poly, candidates) = &work[tctx.global_id()];
            *slot = measure(poly, candidates);
        },
    )?;
    let pending = batch.try_download(&measures)?;
    batch.commit();
    Ok(pending)
}

/// Collect half of an enclosure / overlap rule: wait for the measure
/// kernel, recover on failure, threshold into violations.
fn collect_pairs(
    ctx: &mut RunContext<'_>,
    device: &Device,
    issue: PairsIssue,
    out: &mut Vec<Violation>,
) {
    let PairsIssue {
        rule_name,
        pairs,
        work,
        rects,
        pending,
    } = issue;
    if work.is_empty() {
        return;
    }
    ctx.stats.checks_computed += work.len();

    let waited = match pending {
        Some(pending) => ctx.device_wait(|| pending.result()),
        None => Err(odrc_xpu::XpuError::StreamTimeout { op: "issue" }),
    };
    // The whole rule is one work unit. The checks are already tallied
    // above: recovery recomputes, it does not re-count.
    let measures = match waited {
        Ok(measures) => measures,
        Err(_) => recover(
            ctx,
            device,
            |fresh| {
                let n = work.len();
                let measure = pairs_measure(pairs);
                let dev_work = fresh.try_upload_shared(Arc::clone(&work))?;
                let measures = fresh.try_alloc::<i64>(n)?;
                fresh.try_launch_map(
                    LaunchConfig::for_threads(n),
                    &measures,
                    move |tctx, slot| {
                        let w = dev_work.read();
                        let (poly, candidates) = &w[tctx.global_id()];
                        *slot = measure(poly, candidates);
                    },
                )?;
                fresh.try_download(&measures)?.result()
            },
            || {
                let measure = pairs_measure(pairs);
                work.iter()
                    .map(|(poly, cands)| measure(poly, cands))
                    .collect()
            },
        ),
    };
    emit_pairs(ctx, &rule_name, pairs, &rects, measures, out);
}

/// Thresholds a pair rule's per-shape measures into violations at the
/// shapes' report rectangles. Shared by the fault-free path and
/// recovery.
fn emit_pairs(
    ctx: &mut RunContext<'_>,
    rule_name: &str,
    pairs: PairsRule,
    rects: &[Rect],
    measures: Vec<i64>,
    out: &mut Vec<Violation>,
) {
    ctx.profiler.time("convert", || {
        for (rect, measured) in rects.iter().zip(measures) {
            if measured < pairs.min {
                out.push(Violation {
                    rule: rule_name.to_owned(),
                    kind: pairs.kind,
                    location: *rect,
                    measured,
                });
            }
        }
    });
}
