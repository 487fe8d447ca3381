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
//!   [`RowSetKey`], [`IntraData`] keyed by layer): edge extraction,
//!   adaptive row partitioning and the host→device upload happen once
//!   per `(layer, partition config)`; later rules on the same layer
//!   acquire the already-resident buffer through a cross-stream
//!   [`Event`] ([`EngineStats::uploads_elided`]);
//! * a **schedule** ([`ExecutionPlan`]): rules grouped by the layers
//!   they read, issued on independent streams and collected once at
//!   the end (deferred synchronization).
//!
//! # Interaction with the failure model
//!
//! Sharing device buffers across streams must not widen the blast
//! radius of a fault. The upload is enqueued on the first acquiring
//! rule's stream and publishes a recording [`Event`]; events fire even
//! on poisoned streams, so a consumer never deadlocks. If the upload
//! op itself faults, the buffer stays empty: consumers that already
//! waited hit an out-of-bounds kernel panic on *their own* stream and
//! re-run through the normal per-work-unit recovery (fresh stream,
//! then host), while consumers that acquire after the failure observe
//! the event's error and repair the cache entry with a fresh upload.
//! Either way the result set is byte-identical to a fault-free run.
//!
//! [`EngineStats::scenes_built`]: crate::EngineStats::scenes_built
//! [`EngineStats::scenes_reused`]: crate::EngineStats::scenes_reused
//! [`EngineStats::uploads_elided`]: crate::EngineStats::uploads_elided
//! [`RunContext::layer_scene`]: crate::sequential::RunContext::layer_scene

use std::collections::HashMap;
use std::sync::Arc;

use odrc_db::{CellId, Layer};
use odrc_geometry::{Coord, Edge, Point, Polygon};
use odrc_xpu::{DeviceBuffer, Event, LaunchBatch, Stream, XpuResult};
use parking_lot::Mutex;

use crate::rules::RuleDeck;
use crate::scene::LayerScene;
use crate::sequential::{partition_scene, RunContext};

/// A packed edge: `[x0, y0, x1, y1]`, the device-side representation.
pub(crate) type PackedEdge = [i32; 4];

pub(crate) fn unpack(e: PackedEdge) -> Edge {
    Edge::new(Point::new(e[0], e[1]), Point::new(e[2], e[3]))
}

pub(crate) fn pack(e: Edge) -> PackedEdge {
    [e.from.x, e.from.y, e.to.x, e.to.y]
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
/// `(orientation, track, span-low, packed value)`.
///
/// Grouping by orientation first keeps a vertical edge's x-tracks from
/// interleaving with horizontal edges' y-tracks, so a kernel walking
/// forward from an edge's run sees monotonically increasing tracks of
/// the *same* orientation and can stop at the rule distance. Ordering
/// within a run by span-low lets the kernel binary-search the earliest
/// possibly-reaching partner and stop once spans start past its window.
/// The trailing packed value makes the key a total order, so host and
/// device sorts produce byte-identical arrays.
#[inline]
pub(crate) fn edge_sort_key(e: PackedEdge) -> (u8, i32, i32, PackedEdge) {
    let vertical = e[0] == e[2];
    let (orient, track) = if vertical { (1u8, e[0]) } else { (0u8, e[1]) };
    (orient, track, span_lo(e), e)
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

/// Builds the run table of a row sorted by [`edge_sort_key`].
pub(crate) fn build_runs(edges: &[PackedEdge]) -> Vec<RunInfo> {
    let mut runs: Vec<RunInfo> = Vec::new();
    for (i, &e) in edges.iter().enumerate() {
        let vertical = e[0] == e[2];
        let orient = u8::from(vertical);
        let track = if vertical { e[0] } else { e[1] };
        let len = if vertical {
            (i64::from(e[3]) - i64::from(e[1])).abs()
        } else {
            (i64::from(e[2]) - i64::from(e[0])).abs()
        };
        match runs.last_mut() {
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
    runs
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

    /// Returns the device-resident buffer for use on `stream`, plus
    /// `true` when the upload was elided (already resident). The first
    /// call uploads on `stream`; an entry whose upload is known to have
    /// failed is repaired with a fresh upload here. (The engine paths
    /// go through [`Self::acquire_in`]; this unbatched form is kept
    /// for direct-stream consumers and tests.)
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn acquire(&self, stream: &Stream) -> XpuResult<(DeviceBuffer<T>, bool)> {
        let mut batch = stream.batch(false);
        let out = self.acquire_in(&mut batch);
        batch.commit();
        out
    }

    /// [`Self::acquire`] into an open launch batch: the upload (or the
    /// cross-stream event wait) is enqueued through `batch`, so a fused
    /// batch carries it inside the same dispatch as the kernels that
    /// consume it. Event record/wait pairs within one batch execute in
    /// enqueue order, so a same-batch consumer of a same-batch upload
    /// never deadlocks.
    pub fn acquire_in(&self, batch: &mut LaunchBatch<'_>) -> XpuResult<(DeviceBuffer<T>, bool)> {
        let mut slot = self.device.lock();
        if let Some((buf, ready)) = &*slot {
            // Repair a known-failed upload; an upload still in flight
            // is reused optimistically (a failure surfaces later as a
            // kernel panic on the consumer's stream, which recovers
            // per work unit).
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

/// One partition row, packed and sorted once, shared by every rule
/// that reads the `(layer, partition config)` it came from.
pub(crate) struct PlannedRow {
    /// Packed edges of the row, sorted by [`edge_sort_key`].
    pub edges: SharedDeviceData<PackedEdge>,
    /// Run table over the sorted edges ([`build_runs`]); both the
    /// brute and sweepline executors window their candidate scans
    /// through it.
    pub runs: SharedDeviceData<RunInfo>,
}

/// The packed rows of one layer under one partition configuration.
pub(crate) struct RowSet {
    pub rows: Vec<Arc<PlannedRow>>,
    /// Row count of the partition (including rows that packed zero
    /// edges), charged to [`EngineStats::rows`] per consuming rule.
    ///
    /// [`EngineStats::rows`]: crate::EngineStats::rows
    pub partition_rows: usize,
}

impl RowSet {
    /// Packs and sorts every partition row of `scene`. `min` is the
    /// rule distance driving the partition inflation; two rules whose
    /// distances round to the same half-width share the same set.
    pub fn build(ctx: &mut RunContext<'_>, scene: &LayerScene, min: i64) -> RowSet {
        let partition = partition_scene(scene, min, ctx.options.partition, ctx.profiler, &ctx.host);
        // Each task packs and sorts its row on the host. Every executor
        // windows through the run table, so rows sort unconditionally;
        // [`edge_sort_key`] is a total order on the packed values, so
        // the array is the same whoever sorts it — and keeping the
        // device out of the packing path means fault ordinals are never
        // consumed by pack-time sorts.
        let start = std::time::Instant::now();
        let packed = ctx.host.run("pack", partition.len(), |ri| {
            let mut polys = Vec::new();
            let mut edges: Vec<PackedEdge> = Vec::new();
            for &m in &partition.rows()[ri].members {
                polys.clear();
                scene.object_polygons_into(&scene.objects[m], &mut polys);
                for poly in &polys {
                    edges.extend(poly.edges().map(pack));
                }
            }
            edges.sort_unstable_by_key(|&e| edge_sort_key(e));
            if edges.is_empty() {
                return None;
            }
            let runs = SharedDeviceData::new(Arc::new(build_runs(&edges)));
            Some(Arc::new(PlannedRow {
                edges: SharedDeviceData::new(Arc::new(edges)),
                runs,
            }))
        });
        ctx.profiler.add("pack", start.elapsed());
        RowSet {
            rows: packed.into_iter().flatten().collect(),
            partition_rows: partition.len(),
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

/// Per-layer packed polygon list for intra-polygon device rules
/// (width, area): one entry per unique definition, shared by every
/// intra rule on the layer.
pub(crate) struct IntraData {
    /// `(cell, polygon index)` per packed polygon.
    pub targets: Arc<Vec<(CellId, usize)>>,
    /// The polygons, device-shareable.
    pub polys: SharedDeviceData<Polygon>,
}

/// The per-run cache behind the planner: scenes, row sets and intra
/// polygon lists, all keyed so that N rules reading one layer build
/// and upload once. Lives on the [`RunContext`].
#[derive(Default)]
pub(crate) struct PlanCache {
    pub scenes: HashMap<Layer, Arc<LayerScene>>,
    pub rows: HashMap<RowSetKey, Arc<RowSet>>,
    pub intra: HashMap<Layer, Arc<IntraData>>,
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
    use odrc_xpu::Device;

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

    #[test]
    fn shared_data_uploads_once_across_streams() {
        let device = Device::new(2);
        let data = SharedDeviceData::new(Arc::new(vec![1u32, 2, 3]));
        let a = device.stream();
        let b = device.stream();
        let (buf_a, elided_a) = data.acquire(&a).unwrap();
        let (buf_b, elided_b) = data.acquire(&b).unwrap();
        assert!(!elided_a);
        assert!(elided_b);
        b.synchronize();
        assert_eq!(buf_a.to_vec(), vec![1, 2, 3]);
        assert_eq!(buf_b.to_vec(), vec![1, 2, 3]);
        a.synchronize();
        // One simulated transfer, not two.
        assert_eq!(device.stats().bytes_h2d(), 12);
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
