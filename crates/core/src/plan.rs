//! The cross-rule execution planner.
//!
//! A rule deck usually reads far fewer layers than it has rules: every
//! metal layer carries width, spacing and area constraints, and via
//! layers are read by several enclosure rules. Rebuilding the
//! [`LayerScene`] and re-uploading the packed edge arrays once *per
//! rule* would repeat that work; the paper's pipeline instead keeps
//! layer data device-resident and overlaps transfers with kernels
//! across concurrent streams (§IV-E, §V-C). Every run goes through
//! this module — there is no unplanned path.
//!
//! The planner contributes three pieces:
//!
//! * a **scene memo** ([`RunContext::layer_scene`]): one
//!   [`LayerScene`] per layer per run, shared by the sequential and
//!   parallel modes ([`EngineStats::scenes_built`] /
//!   [`EngineStats::scenes_reused`]);
//! * a **device-resident buffer cache** ([`RowSet`] keyed by
//!   [`RowSetKey`], a layer and a partition configuration): edge
//!   extraction, adaptive row partitioning and the host→device upload
//!   of the rows' one segmented array happen once per key and run;
//!   later spacing rules with the same key acquire the already-resident
//!   buffers through a cross-stream [`Event`]
//!   ([`EngineStats::uploads_elided`]). The cache holds a row set only
//!   until its last consuming rule is issued ([`PlanCache`]). Templates
//!   and intra-polygon rules share no buffer: each rule uploads its own
//!   cache misses ([`pack`], [`IntraWork`]);
//! * a **schedule** ([`ExecutionPlan`]): rules grouped by the layers
//!   they read, issued on independent streams and collected once at
//!   the end (deferred synchronization).
//!
//! # What a row set packs
//!
//! The hierarchy decides what is packed and how often a result is
//! replayed (§IV-C pruning, §IV-E "the edges of *relevant* polygons").
//! Both modes pack these units through one [`pack_unit`]; the default
//! mode checks each in a host task and drops it
//! ([`check_space_scene_rows`]), the parallel mode concatenates them
//! into [`Segmented`] arrays, and both finish through one
//! [`SpaceWork`]:
//!
//! * one **template** per placed cell definition ([`pack_cell`]) — its
//!   polygons' edges in cell-local coordinates, checked once unless the
//!   rule's memo or the persistent cache holds its verdicts (packed by
//!   the rule that misses it), and replayed through the cell's
//!   placements, the scene's `Cell` objects; the row set lists each
//!   template once with its placement count ([`RowSet::templates`]);
//! * the **partition rows** ([`pack_row`]), holding only what can take
//!   part in an *inter*-object violation: each candidate object pair of
//!   a row ([`row_candidate_pairs`]) contributes a window
//!   ([`pair_window`]) and a placed cell keeps the polygons whose MBR
//!   overlaps one of its windows. Top-level polygons keep every edge
//!   (their notch pairs have no template), a frame rectangle's straight
//!   from its object's MBR; a row that keeps nothing is not
//!   materialized.
//!
//! Windows reach `2 · half` of the [`RowSetKey`], never the checking
//! rule's own distance: a row set is shared by every rule that rounds to
//! the same `half`, and `2 · half ≥ min` for all of them. A pair `e ∈ A`,
//! `f ∈ B` closer than `min` has a point of `e`'s polygon inside both
//! MBRs inflated by the reach, i.e. inside the window, so both polygons
//! are kept. An intra-object pair a row re-finds among kept polygons is
//! the same [`Violation`] value as the template's replay;
//! canonicalization drops it. With `pruning` off there are no templates
//! and the same loop keeps every polygon: the flat pack
//! ([`EngineStats::edges_packed`] counts the edges either way).
//!
//! # Interaction with the failure model
//!
//! Sharing device buffers across streams must not widen the blast
//! radius of a fault. The upload is enqueued on the first acquiring
//! rule's stream and publishes a recording [`Event`]; events fire even
//! on poisoned streams, so a consumer never deadlocks. If the upload
//! op itself faults, the buffer stays empty: consumers that already
//! waited hit an out-of-bounds kernel panic on *their own* stream and
//! re-run through the normal per-launch recovery, while consumers
//! that acquire after the failure observe the event's error and repair
//! the cache entry with a fresh upload. A recovery attempt is such a
//! consumer: it re-acquires through [`SharedDeviceData::acquire_in`]
//! on its fresh stream, so it repairs a failed upload and elides an
//! intact one. Either way the result set is byte-identical to a
//! fault-free run.
//!
//! [`EngineStats::edges_packed`]: crate::EngineStats::edges_packed
//! [`EngineStats::scenes_built`]: crate::EngineStats::scenes_built
//! [`EngineStats::scenes_reused`]: crate::EngineStats::scenes_reused
//! [`EngineStats::uploads_elided`]: crate::EngineStats::uploads_elided
//! [`RunContext::layer_scene`]: crate::sequential::RunContext::layer_scene
//! [`check_space_scene_rows`]: crate::sequential::check_space_scene_rows
//! [`Violation`]: crate::Violation
//! [`IntraWork`]: crate::sequential::IntraWork
//! [`SpaceWork`]: crate::sequential::SpaceWork

use std::collections::HashMap;
use std::sync::Arc;

use odrc_db::{CellId, Layer};
use odrc_geometry::{Coord, Edge, Point, Rect, Transform};
use odrc_xpu::{DeviceBuffer, Event, LaunchBatch, XpuResult};
use parking_lot::Mutex;

use crate::rules::RuleDeck;
use crate::scene::{LayerScene, SceneObject, SceneSource};
use crate::sequential::{partition_scene, row_candidate_pairs, RowPairs, RunContext, Templates};

/// A packed edge: `[x0, y0, x1, y1]`, the device-side representation.
pub(crate) type PackedEdge = [i32; 4];

pub(crate) fn unpack(e: PackedEdge) -> Edge {
    Edge::new(Point::new(e[0], e[1]), Point::new(e[2], e[3]))
}

/// Lower span coordinate of a packed edge: the smaller endpoint along
/// the edge's own axis (y for vertical edges, x for horizontal ones).
#[inline]
pub(crate) fn span_lo(e: PackedEdge) -> i32 {
    if e[0] == e[2] {
        e[1].min(e[3])
    } else {
        e[0].min(e[2])
    }
}

/// The canonical sort key for a row's packed edges:
/// `(orientation, track, span-low, packed value)`, as one integer.
///
/// Grouping by orientation first keeps a vertical edge's x-tracks from
/// interleaving with horizontal edges' y-tracks, so a kernel walking
/// forward from an edge's run sees monotonically increasing tracks of
/// the *same* orientation and can stop at the rule distance. Ordering
/// within a run by span-low lets the kernel binary-search the earliest
/// possibly-reaching partner and stop once spans start past its window.
/// The trailing packed value makes the key a total order, so host and
/// device sorts produce byte-identical arrays.
///
/// Past span-low, the packed value orders a forward edge (`from` low)
/// before a backward one, then by the span's high end; the key stores
/// exactly those fields, so it is injective and compares as one integer.
#[inline]
pub(crate) fn edge_sort_key(e: PackedEdge) -> u128 {
    let vertical = e[0] == e[2];
    let (track, from, to) = if vertical {
        (e[0], e[1], e[3])
    } else {
        (e[1], e[0], e[2])
    };
    // Flipping the sign bit maps i32 order onto u32 order.
    let biased = |v: i32| u128::from(v as u32 ^ 0x8000_0000);
    (u128::from(vertical) << 97)
        | (biased(track) << 65)
        | (biased(from.min(to)) << 33)
        | (u128::from(from > to) << 32)
        | biased(from.max(to))
}

/// The edges of `keyed` in row order.
fn sorted_edges(mut keyed: Vec<(u128, PackedEdge)>) -> Vec<PackedEdge> {
    keyed.sort_unstable_by_key(|&(key, _)| key);
    keyed.into_iter().map(|(_, e)| e).collect()
}

/// Appends the edges of the clockwise polygon with vertices `v` placed
/// by `t`, keyed by [`edge_sort_key`], without building the placed
/// polygon: a mirror flips the orientation, so under one every edge
/// runs backwards (interior on the clockwise side).
fn placed_keys(v: &[Point], t: &Transform, keys: &mut Vec<(u128, PackedEdge)>) {
    let first = t.apply(v[0]);
    let mut from = first;
    for to in v[1..].iter().map(|&p| t.apply(p)).chain([first]) {
        let (a, b) = if t.mirror_x() { (to, from) } else { (from, to) };
        let e = [a.x, a.y, b.x, b.y];
        keys.push((edge_sort_key(e), e));
        from = to;
    }
}

/// Where two objects can violate a distance rule of at most `reach`
/// against each other: the intersection of their inflated MBRs.
fn pair_window(a: &SceneObject, b: &SceneObject, reach: Coord) -> Option<Rect> {
    a.mbr.inflate(reach).intersection(b.mbr.inflate(reach))
}

/// Unit `i` of a scene's `templates` followed by its `rows` (lists of
/// indices into `scene.objects`), packed and sorted — the one pack of
/// both modes: a template's cell-local edges ([`pack_cell`]), or the
/// edges in a row's candidate-pair windows of reach `2 · half`
/// ([`pack_row`]), with the row's pairs ([`row_candidate_pairs`]).
pub(crate) fn pack_unit(
    scene: &LayerScene,
    templates: &[(CellId, usize)],
    rows: &[&[usize]],
    i: usize,
    half: Coord,
    pruning: bool,
) -> (Vec<PackedEdge>, RowPairs) {
    if let Some(&(cell, _)) = templates.get(i) {
        return (pack_cell(scene, cell), RowPairs::default());
    }
    let members = rows[i - templates.len()];
    let found = row_candidate_pairs(scene, members, half, pruning);
    let reach = half.saturating_mul(2);
    let edges = pack_row(scene, members, &found.pairs, reach, pruning);
    (edges, found)
}

/// A cell template's sorted edges (see the [module docs](self)).
fn pack_cell(scene: &LayerScene, cell: CellId) -> Vec<PackedEdge> {
    let mut keys = Vec::new();
    for poly in scene.local_polygons(cell) {
        placed_keys(poly.vertices(), &Transform::IDENTITY, &mut keys);
    }
    sorted_edges(keys)
}

/// A partition row's sorted edges (see the [module docs](self)):
/// `pairs` ([`row_candidate_pairs`]) index `members`, and each opens a
/// window of `reach`. Without `pruning` every polygon is kept.
fn pack_row(
    scene: &LayerScene,
    members: &[usize],
    pairs: &[(usize, usize)],
    reach: Coord,
    pruning: bool,
) -> Vec<PackedEdge> {
    // Every member's windows, grouped by member position.
    let mut windows: Vec<(usize, Rect)> = Vec::with_capacity(2 * pairs.len());
    for &(a, b) in pairs {
        let (oa, ob) = (&scene.objects[members[a]], &scene.objects[members[b]]);
        if let Some(window) = pair_window(oa, ob, reach) {
            windows.push((a, window));
            windows.push((b, window));
        }
    }
    windows.sort_unstable_by_key(|&(pos, _)| pos);
    let mut rest = windows.as_slice();
    let mut keys = Vec::new();
    for (pos, &m) in members.iter().enumerate() {
        let own = rest.iter().take_while(|&&(p, _)| p == pos).count();
        let (near, tail) = rest.split_at(own);
        rest = tail;
        match scene.objects[m].source {
            // A placed cell's own pairs are the template's; the row
            // needs only what a candidate partner can reach.
            SceneSource::Cell { cell, transform } => {
                if pruning && near.is_empty() {
                    continue;
                }
                for poly in scene.local_polygons(cell) {
                    if !pruning || {
                        let mbr = transform.apply_rect(poly.mbr());
                        near.iter().any(|(_, w)| w.overlaps(mbr))
                    } {
                        placed_keys(poly.vertices(), &transform, &mut keys);
                    }
                }
            }
            // A top polygon's notch pairs live in the row; a frame
            // rectangle's edges are its MBR's.
            SceneSource::TopPolygon { index } => {
                let v = scene.top_polygon(index).vertices();
                placed_keys(v, &Transform::IDENTITY, &mut keys);
            }
            SceneSource::TopRect => {
                let v = scene.objects[m].mbr.corners();
                placed_keys(&v, &Transform::IDENTITY, &mut keys);
            }
        }
    }
    sorted_edges(keys)
}

/// One maximal same-`(orientation, track)` run of a row's sorted edges,
/// the unit the windowed check kernels iterate over. `max_len` (the
/// longest edge span in the run) bounds how far before a query window a
/// run member can start while still reaching into it, which makes the
/// per-run binary search conservative rather than lossy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RunInfo {
    /// First edge index of the run (into the sorted row).
    pub start: u32,
    /// One past the last edge index of the run.
    pub end: u32,
    /// The shared track coordinate.
    pub track: i32,
    /// 0 = horizontal, 1 = vertical (sorted horizontal-first).
    pub orient: u8,
    /// Longest edge span length in the run, in dbu.
    pub max_len: i64,
}

/// Appends the run table of the row `edges[from..]`, sorted by
/// [`edge_sort_key`], to `runs`, as indices into `edges`.
pub(crate) fn build_runs(edges: &[PackedEdge], from: usize, runs: &mut Vec<RunInfo>) {
    let first = runs.len();
    for (i, &e) in edges.iter().enumerate().skip(from) {
        let vertical = e[0] == e[2];
        let orient = u8::from(vertical);
        let track = if vertical { e[0] } else { e[1] };
        let len = if vertical {
            (i64::from(e[3]) - i64::from(e[1])).abs()
        } else {
            (i64::from(e[2]) - i64::from(e[0])).abs()
        };
        match runs[first..].last_mut() {
            Some(run) if run.orient == orient && run.track == track => {
                run.end = (i + 1) as u32;
                run.max_len = run.max_len.max(len);
            }
            _ => runs.push(RunInfo {
                start: i as u32,
                end: (i + 1) as u32,
                track,
                orient,
                max_len: len,
            }),
        }
    }
}

/// Host data with a lazily uploaded, cross-stream shared device
/// residency.
///
/// The first acquiring stream uploads (zero-copy, sharing the host
/// `Arc`) and records a readiness [`Event`]; later acquirers wait on
/// the event in stream order and reuse the resident buffer. See the
/// [module docs](self) for the failure-model contract.
pub(crate) struct SharedDeviceData<T> {
    /// The host copy, shared with the device buffer (no staging clone).
    pub host: Arc<Vec<T>>,
    device: Mutex<Option<(DeviceBuffer<T>, Event)>>,
}

impl<T: Send + Sync + 'static> SharedDeviceData<T> {
    pub fn new(host: Arc<Vec<T>>) -> Self {
        SharedDeviceData {
            host,
            device: Mutex::new(None),
        }
    }

    /// Size of the backing data in bytes (for transfer accounting).
    pub fn bytes(&self) -> u64 {
        (self.host.len() * std::mem::size_of::<T>()) as u64
    }

    /// Returns the device-resident buffer for use in `batch`'s stream,
    /// plus `true` when the upload was elided (already resident). The
    /// first call enqueues the upload through `batch`; an entry whose
    /// upload is known to have failed is repaired with a fresh upload
    /// here. A fused batch carries the upload (or the cross-stream
    /// event wait) inside the same dispatch as the kernels that
    /// consume it. Event record/wait pairs within one batch execute in
    /// enqueue order, so a same-batch consumer of a same-batch upload
    /// never deadlocks.
    pub fn acquire_in(&self, batch: &mut LaunchBatch<'_>) -> XpuResult<(DeviceBuffer<T>, bool)> {
        let mut slot = self.device.lock();
        if let Some((buf, ready)) = &*slot {
            // Repair a known-failed upload; an upload still in flight
            // is reused optimistically (a failure surfaces later as a
            // kernel panic on the consumer's stream, which recovers
            // per launch).
            let failed = ready.is_set() && ready.wait_result().is_err();
            if !failed {
                batch.wait_event(ready);
                return Ok((buf.clone(), true));
            }
        }
        let buf = batch.try_upload_shared(Arc::clone(&self.host))?;
        let ready = Event::new();
        batch.record_event(&ready);
        *slot = Some((buf.clone(), ready));
        Ok((buf, false))
    }
}

/// Packed units — partition rows or cell templates — concatenated into
/// one flattened edge array (§IV-E): a launch covers the whole array,
/// and a kernel never walks past the last run of its edge's *segment*.
pub(crate) struct Segmented {
    /// Packed edges, each segment sorted by [`edge_sort_key`].
    pub edges: SharedDeviceData<PackedEdge>,
    /// Each segment's run table ([`build_runs`]) in segment order, with
    /// edge indices into the whole array.
    pub runs: SharedDeviceData<RunInfo>,
    /// `[first edge, first run]` of each segment, then the totals.
    pub starts: Arc<Vec<[u32; 2]>>,
}

impl Segmented {
    /// Each segment's sorted edges, in order.
    pub fn segments(&self) -> impl ExactSizeIterator<Item = &[PackedEdge]> {
        let edges = &self.edges.host;
        (self.starts.windows(2)).map(|w| &edges[w[0][0] as usize..w[1][0] as usize])
    }
}

/// Packs `units` (indices into `templates` followed by `rows`, see
/// [`pack_unit`]) in one host fan-out — on the host, so pack-time sorts
/// never consume device fault ordinals; [`edge_sort_key`] is a total
/// order, so the array is the same whoever sorts it — and concatenates
/// the units that kept any edge into one [`Segmented`] array, consuming
/// each as it is appended. Also returns the rows' candidate pairs and
/// scans.
pub(crate) fn pack(
    ctx: &mut RunContext<'_>,
    scene: &LayerScene,
    templates: &[(CellId, usize)],
    rows: &[&[usize]],
    units: &[usize],
    half: Coord,
) -> (Segmented, usize, u64) {
    let start = std::time::Instant::now();
    let pruning = ctx.options.pruning;
    let packed = ctx.host.run("pack", units.len(), |k| {
        let (edges, found) = pack_unit(scene, templates, rows, units[k], half, pruning);
        (edges, found.pairs.len(), found.scanned)
    });
    ctx.profiler.add("pack", start.elapsed());
    let total = packed.iter().map(|(unit, ..)| unit.len()).sum();
    u32::try_from(total).expect("edge count fits u32");
    // At most one run per edge; the untouched tail is returned below.
    let (mut edges, mut runs) = (Vec::with_capacity(total), Vec::with_capacity(total));
    let (mut starts, mut pairs, mut scanned) = (Vec::new(), 0, 0);
    for (unit, unit_pairs, unit_scanned) in packed {
        (pairs, scanned) = (pairs + unit_pairs, scanned + unit_scanned);
        if !unit.is_empty() {
            let from = edges.len();
            starts.push([from as u32, runs.len() as u32]);
            edges.extend(unit);
            build_runs(&edges, from, &mut runs);
        }
    }
    runs.shrink_to_fit();
    starts.push([edges.len() as u32, runs.len() as u32]);
    ctx.stats.edges_packed += edges.len() as u64;
    let array = Segmented {
        edges: SharedDeviceData::new(Arc::new(edges)),
        runs: SharedDeviceData::new(Arc::new(runs)),
        starts: Arc::new(starts),
    };
    (array, pairs, scanned)
}

/// The partition rows of one layer under one partition configuration,
/// shared by every spacing rule that reads it, and what each rule
/// [`pack`]s its missing templates from.
pub(crate) struct RowSet {
    /// The scene's templates (first-occurrence cell order over its
    /// objects, none without `pruning`), each with its placement count.
    pub templates: Templates,
    /// The scene the rows and templates are packed from.
    pub scene: Arc<LayerScene>,
    /// The windows' half reach ([`RowSetKey::half`]).
    pub half: Coord,
    /// The partition rows that kept any edge, one segment each.
    pub rows: Segmented,
    /// Row count of the partition (including rows that packed zero
    /// edges), charged to [`EngineStats::rows`] per consuming rule.
    ///
    /// [`EngineStats::rows`]: crate::EngineStats::rows
    pub partition_rows: usize,
    /// Candidate object pairs the rows' pack found, charged per consuming
    /// rule like `partition_rows`.
    pub candidate_pairs: usize,
    /// The pair scans' active-list comparisons, charged like
    /// `candidate_pairs`.
    pub pairs_scanned: u64,
}

impl RowSet {
    /// Packs and sorts the partition rows of `scene` (see the [module
    /// docs](self)). `min` is the rule distance driving the partition
    /// inflation; two rules whose distances round to the same
    /// half-width share the same set.
    pub fn build(ctx: &mut RunContext<'_>, scene: Arc<LayerScene>, min: i64) -> RowSet {
        let partition = partition_scene(&scene, min, ctx.options.partition, ctx.profiler);
        let half = RowSetKey::new(scene.layer, min, ctx.options.partition).half;
        let members: Vec<&[usize]> = partition.iter().map(|r| r.members.as_slice()).collect();
        let all: Vec<usize> = (0..members.len()).collect();
        let (rows, candidate_pairs, pairs_scanned) = pack(ctx, &scene, &[], &members, &all, half);
        RowSet {
            templates: Arc::new(scene.templates(ctx.options.pruning)),
            scene,
            half,
            rows,
            partition_rows: partition.len(),
            candidate_pairs,
            pairs_scanned,
        }
    }
}

/// Cache key of a [`RowSet`]: the packed edges depend only on the
/// layer and the partition geometry (the half-distance inflation and
/// the partition ablation switch) — the rule's exact distance feeds
/// the kernels separately, so e.g. an unconditional and a conditional
/// spacing rule with the same minimum share one row set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RowSetKey {
    pub layer: Layer,
    pub half: Coord,
    pub partition: bool,
}

impl RowSetKey {
    pub fn new(layer: Layer, min: i64, partition: bool) -> RowSetKey {
        RowSetKey {
            layer,
            half: ((min + 1) / 2) as Coord,
            partition,
        }
    }
}

/// The per-run cache behind the planner: scenes and row sets, keyed so
/// that N rules reading one layer build and upload once. Lives on the
/// [`RunContext`].
///
/// A row set stays cached only while a counted consumer has yet to
/// acquire it ([`RunContext::row_set`]): the run counts, up front, the
/// rules that will acquire each key (`consumers`), and the last one
/// takes the entry out. Its in-flight rule's `Arc` keeps the rows alive
/// until the rule is collected, and no longer.
#[derive(Default)]
pub(crate) struct PlanCache {
    pub scenes: HashMap<Layer, Arc<LayerScene>>,
    pub rows: HashMap<RowSetKey, Arc<RowSet>>,
    /// Rules still to acquire each row set.
    pub consumers: HashMap<RowSetKey, usize>,
}

impl PlanCache {
    /// Notes one acquisition of `key`'s row set `rows`: keeps it cached
    /// while a counted consumer remains, and drops the entry otherwise.
    pub fn acquired(&mut self, key: RowSetKey, rows: &Arc<RowSet>) {
        match self.consumers.get_mut(&key) {
            Some(left) if *left > 1 => {
                *left -= 1;
                self.rows.entry(key).or_insert_with(|| Arc::clone(rows));
            }
            _ => {
                self.consumers.remove(&key);
                self.rows.remove(&key);
            }
        }
    }
}

/// The deck's rules in issue order: grouped by the first layer each
/// rule reads (first-occurrence order), layer-less rules last. With
/// deferred synchronization the order does not affect results
/// (violations are canonicalized); grouping same-layer rules
/// adjacently just lets the first rule of a group warm the caches
/// while the rest of the deck is still issuing.
#[derive(Debug)]
pub struct ExecutionPlan {
    /// Indices into `deck.rules()`.
    pub order: Vec<usize>,
}

impl ExecutionPlan {
    /// Groups `deck`'s rules by primary layer.
    pub fn build(deck: &RuleDeck) -> ExecutionPlan {
        let mut groups: Vec<(Layer, Vec<usize>)> = Vec::new();
        let mut global: Vec<usize> = Vec::new();
        for (i, rule) in deck.rules().iter().enumerate() {
            match rule.layers().first() {
                Some(&layer) => match groups.iter_mut().find(|(g, _)| *g == layer) {
                    Some((_, members)) => members.push(i),
                    None => groups.push((layer, vec![i])),
                },
                None => global.push(i),
            }
        }
        let mut order: Vec<usize> = groups.into_iter().flat_map(|(_, m)| m).collect();
        order.extend(global);
        ExecutionPlan { order }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::rule;
    use crate::sequential::{CellMemo, SpaceWork};
    use odrc_geometry::Polygon;
    use odrc_xpu::{Device, Fault, FaultPlan, Stream};

    #[test]
    fn plan_groups_rules_by_layer() {
        let deck = RuleDeck::new(vec![
            rule().layer(1).width().greater_than(5).named("A.W"),
            rule().layer(2).width().greater_than(5).named("B.W"),
            rule().layer(1).space().greater_than(5).named("A.S"),
            rule().polygons().is_rectilinear().named("GLOBAL"),
            rule().layer(2).space().greater_than(5).named("B.S"),
        ]);
        let plan = ExecutionPlan::build(&deck);
        // Layer 1 rules adjacent, then layer 2, then the global rule.
        assert_eq!(plan.order, vec![0, 2, 1, 4, 3]);
    }

    /// One acquisition through a fused batch on `stream`.
    fn acquire_once(data: &SharedDeviceData<u32>, stream: &Stream) -> (DeviceBuffer<u32>, bool) {
        let mut batch = stream.batch(true);
        let acquired = data.acquire_in(&mut batch).unwrap();
        batch.commit();
        acquired
    }

    #[test]
    fn shared_data_uploads_once_across_streams() {
        let device = Device::new(2);
        let data = SharedDeviceData::new(Arc::new(vec![1u32, 2, 3]));
        let a = device.stream();
        let b = device.stream();
        let (buf_a, elided_a) = acquire_once(&data, &a);
        let (buf_b, elided_b) = acquire_once(&data, &b);
        assert!(!elided_a);
        assert!(elided_b);
        b.try_synchronize().unwrap();
        assert_eq!(buf_a.to_vec(), vec![1, 2, 3]);
        assert_eq!(buf_b.to_vec(), vec![1, 2, 3]);
        a.try_synchronize().unwrap();
        // One simulated transfer, not two.
        assert_eq!(device.stats().bytes_h2d(), 12);
    }

    #[test]
    fn failed_upload_is_repaired_on_next_acquire() {
        let device = Device::new(2);
        // Stream op 0 is the first acquire's upload.
        device.set_fault_plan(Some(FaultPlan::new().with(Fault::StreamStall { nth: 0 })));
        let data = SharedDeviceData::new(Arc::new(vec![1u32, 2, 3]));
        let a = device.stream();
        assert!(!acquire_once(&data, &a).1);
        // The ready event fires carrying the stall.
        assert!(a.try_synchronize().is_err());
        assert_eq!(device.faults_injected(), 1);
        let b = device.stream();
        let (buf, elided) = acquire_once(&data, &b);
        assert!(!elided, "a failed upload is repaired, not reused");
        b.try_synchronize().unwrap();
        assert_eq!(buf.to_vec(), vec![1, 2, 3]);
        let c = device.stream();
        assert!(acquire_once(&data, &c).1, "the repaired upload is reused");
        c.try_synchronize().unwrap();
    }

    /// A host-only spacing check of `layer` through its row set: every
    /// unit runs `row_host_records`, and one `SpaceWork` finishes them.
    /// Returns the canonical violations and `edges_packed`.
    fn host_space(
        layout: &odrc_db::Layout,
        layer: Layer,
        min: i64,
        pruning: bool,
    ) -> (Vec<crate::Violation>, u64) {
        let options = crate::EngineOptions {
            pruning,
            host_threads: Some(1),
            ..Default::default()
        };
        let mut profiler = odrc_infra::Profiler::new();
        let mut stats = crate::EngineStats::default();
        let mut out = Vec::new();
        {
            let mut ctx = RunContext::new(layout, &options, &mut profiler, &mut stats);
            let spec = crate::checks::SpaceSpec::simple(min);
            let set = ctx.row_set(layer, min);
            assert!(pruning || set.templates.is_empty(), "no flat templates");
            let rows = set.rows.segments().len();
            let work = SpaceWork::new(&mut ctx, &set.templates, rows, None, CellMemo::new());
            let missing = set.templates.len();
            assert_eq!(
                work.units.len(),
                missing + rows,
                "no memo, no cache: every unit"
            );
            let (templates, ..) = pack(
                &mut ctx,
                &set.scene,
                &set.templates,
                &[],
                &work.units[..missing],
                set.half,
            );
            let units = templates.segments().chain(set.rows.segments());
            let checked = units.map(|edges| {
                let records = crate::parallel::row_host_records(edges, spec).into_iter();
                let local = records.map(|record| crate::parallel::record_violation(edges, record));
                local.collect::<Vec<_>>()
            });
            work.finish(&mut ctx, &set.scene, "S", checked, &mut out);
        }
        (crate::canonicalize(out), stats.edges_packed)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The equivalence the hierarchical pack rests on: templates
        /// replayed through their placements plus the windowed rows
        /// report exactly what the flat pack (`pruning: false`, every
        /// polygon of every instance) reports — from fewer edges.
        #[test]
        fn hierarchical_row_set_equals_the_flat_one(seed in 0u64..64) {
            use odrc_layoutgen::{generate_layout, DesignSpec};
            let layout = generate_layout(&DesignSpec::tiny(seed));
            for layer in layout.layers() {
                let host = odrc_infra::HostExecutor::new(1);
                let scene = LayerScene::build_on(&layout, layer, None, &host);
                let places_cells = scene.placed_cells().next().is_some();
                for min in [17, 18, 20, 24] {
                    let (pruned, pruned_edges) = host_space(&layout, layer, min, true);
                    let (flat, flat_edges) = host_space(&layout, layer, min, false);
                    proptest::prop_assert_eq!(
                        &pruned, &flat,
                        "seed {} layer {} min {}", seed, layer, min
                    );
                    proptest::prop_assert!(pruned_edges <= flat_edges);
                    if !places_cells {
                        proptest::prop_assert_eq!(pruned_edges, flat_edges);
                    }
                }
            }
        }
    }

    #[test]
    fn hierarchical_pack_is_smaller_where_cells_are_placed() {
        use odrc_layoutgen::{generate_layout, tech, DesignSpec};
        // Not vacuous: M1 lives in the standard cells, and at this
        // distance the tiny design has cell-internal violations.
        let layout = generate_layout(&DesignSpec::tiny(1));
        let (pruned, pruned_edges) = host_space(&layout, tech::M1, 24, true);
        let (flat, flat_edges) = host_space(&layout, tech::M1, 24, false);
        assert!(!pruned.is_empty());
        assert_eq!(pruned, flat);
        assert!(0 < pruned_edges && pruned_edges < flat_edges);
    }

    /// The tuple order [`edge_sort_key`] encodes.
    fn tuple_key(e: PackedEdge) -> (u8, i32, i32, PackedEdge) {
        let vertical = e[0] == e[2];
        let (orient, track) = if vertical { (1u8, e[0]) } else { (0u8, e[1]) };
        (orient, track, span_lo(e), e)
    }

    proptest::proptest! {
        /// The integer key orders edges as the `(orientation, track,
        /// span-low, packed value)` tuple does (ties included, so it is
        /// injective).
        #[test]
        fn edge_sort_key_is_the_tuple_order(
            raw in proptest::collection::vec(
                (proptest::bool::ANY, -3i32..3, -3i32..3, 1i32..3, proptest::bool::ANY),
                2..40,
            ),
            scale in proptest::prop_oneof![proptest::strategy::Just(1i32), proptest::strategy::Just(1 << 28)],
        ) {
            // Few distinct values, so ties on every key field occur;
            // the scale reaches both ends of the coordinate range.
            let edges: Vec<PackedEdge> = raw
                .into_iter()
                .map(|(vertical, track, lo, len, backward)| {
                    let (t, a) = (track * scale, lo * scale);
                    let b = a.saturating_add(len * scale);
                    let (from, to) = if backward { (b, a) } else { (a, b) };
                    if vertical { [t, from, t, to] } else { [from, t, to, t] }
                })
                .collect();
            let mut by_key = edges.clone();
            by_key.sort_by_key(|&e| edge_sort_key(e));
            let mut by_tuple = edges;
            by_tuple.sort_by_key(|&e| tuple_key(e));
            proptest::prop_assert_eq!(by_key, by_tuple);
        }
    }

    #[test]
    fn placed_keys_are_the_transformed_polygons_edges() {
        use odrc_geometry::Rotation;
        // An L: no symmetry hides a wrongly oriented edge.
        let corners = [(0, 0), (0, 40), (10, 40), (10, 10), (30, 10), (30, 0)];
        let poly = Polygon::new(corners.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap();
        for rotation in Rotation::ALL {
            for mirror in [false, true] {
                let t = Transform::new(mirror, rotation, 1, Point::new(-7, 50));
                let mut direct = Vec::new();
                placed_keys(poly.vertices(), &t, &mut direct);
                let mut rebuilt: Vec<(u128, PackedEdge)> = t
                    .apply_polygon(&poly)
                    .edges()
                    .map(|e| [e.from.x, e.from.y, e.to.x, e.to.y])
                    .map(|e| (edge_sort_key(e), e))
                    .collect();
                direct.sort_unstable();
                rebuilt.sort_unstable();
                assert_eq!(direct, rebuilt, "transform {t}");
            }
        }
    }

    /// A frame rectangle packs the edges of the layout's rectangle
    /// placed by its frame, straight from its MBR: under each of the
    /// eight orientations of a frame one level down, and two levels down.
    #[test]
    fn a_frame_rectangle_packs_its_placed_polygons_edges() {
        use odrc_gdsii::{Element, Library, RefElement, Structure};
        use odrc_geometry::Rotation;
        let rect = Polygon::rect(Rect::from_coords(3, 5, 40, 9));
        let place = |name: &str, inner: &str, t: Transform| {
            let mut r = RefElement::sref(inner, t.translate());
            r.mirror_x = t.mirror_x();
            r.angle_deg = f64::from(t.rotation().quarter_turns()) * 90.0;
            let mut s = Structure::new(name);
            s.elements.push(Element::Ref(r));
            s
        };
        for k in 0..8 {
            let t = Transform::new(
                k >= 4,
                Rotation::from_quarter_turns(k % 4),
                1,
                Point::new(-7, 50),
            );
            // TOP draws the rectangle and places a cell off the layer,
            // which makes it a frame.
            let mut unit = Structure::new("UNIT");
            unit.elements
                .push(Element::boundary(2, rect.vertices().to_vec()));
            let mut top = place("TOP", "UNIT", Transform::IDENTITY);
            top.elements
                .push(Element::boundary(1, rect.vertices().to_vec()));
            let mut once = Library::new("t");
            once.structures = vec![unit, top, place("WRAP", "TOP", t)];
            let mut twice = once.clone();
            twice.structures.push(place("OUTER", "WRAP", t));
            for (lib, at) in [(once, t), (twice, t.then(&t))] {
                let layout = odrc_db::Layout::from_library(&lib).unwrap();
                let options = crate::EngineOptions::default();
                let mut profiler = odrc_infra::Profiler::new();
                let mut stats = crate::EngineStats::default();
                let mut ctx = RunContext::new(&layout, &options, &mut profiler, &mut stats);
                let set = ctx.row_set(1, 18);
                let sources: Vec<_> = set.scene.objects.iter().map(|o| o.source).collect();
                assert_eq!(sources, [SceneSource::TopRect]);
                let mut keys = Vec::new();
                placed_keys(rect.vertices(), &at, &mut keys);
                assert_eq!(*set.rows.edges.host, sorted_edges(keys), "transform {at}");
            }
        }
    }

    #[test]
    fn a_row_set_leaves_the_cache_with_its_last_consumer() {
        use odrc_layoutgen::{generate_layout, tech, DesignSpec};
        let layout = generate_layout(&DesignSpec::tiny(1));
        let options = crate::EngineOptions {
            host_threads: Some(1),
            ..Default::default()
        };
        let mut profiler = odrc_infra::Profiler::new();
        let mut stats = crate::EngineStats::default();
        let mut ctx = RunContext::new(&layout, &options, &mut profiler, &mut stats);
        // 24 and 23 share a key.
        let key = RowSetKey::new(tech::M1, 24, options.partition);
        ctx.plan.consumers.insert(key, 2);
        let first = ctx.row_set(tech::M1, 24);
        assert!(ctx.plan.rows.contains_key(&key), "one consumer left");
        let packed = ctx.stats.edges_packed;
        assert!(packed > 0);
        let last = ctx.row_set(tech::M1, 23);
        assert!(
            Arc::ptr_eq(&first, &last),
            "the last consumer shares the set"
        );
        assert_eq!(ctx.stats.edges_packed, packed, "and packs nothing");
        assert!(ctx.plan.rows.is_empty() && ctx.plan.consumers.is_empty());
        // An uncounted acquisition packs afresh and caches nothing.
        let uncounted = ctx.row_set(tech::M1, 24);
        assert!(!Arc::ptr_eq(&first, &uncounted));
        assert_eq!(ctx.stats.edges_packed, 2 * packed);
        assert!(ctx.plan.rows.is_empty());
    }

    #[test]
    fn row_set_key_shares_rounded_half_distance() {
        // 17 and 18 both inflate by 9; 20 inflates by 10.
        assert_eq!(RowSetKey::new(5, 17, true), RowSetKey::new(5, 18, true));
        assert_ne!(RowSetKey::new(5, 18, true), RowSetKey::new(5, 20, true));
        assert_ne!(RowSetKey::new(5, 18, true), RowSetKey::new(6, 18, true));
        assert_ne!(RowSetKey::new(5, 18, true), RowSetKey::new(5, 18, false));
    }
}
