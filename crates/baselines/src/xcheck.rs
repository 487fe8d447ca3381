//! A reimplementation of X-Check's vertical sweep (§4.1 of the X-Check
//! paper, reimplemented here as the OpenDRC authors did for §VI).
//!
//! X-Check is a *flat* GPU checker: it packs every edge of the layer
//! into device arrays (no hierarchy reuse, no layout partition), sorts
//! them, determines each edge's check range with a parallel scan, and
//! launches per-edge check kernels. It supports width, spacing, and
//! enclosure rules but **not area rules** — the paper notes "X-Check is
//! unable to perform area checks, so the column is empty" — which this
//! reimplementation preserves by reporting such rules as skipped.

use odrc::checks::edge::{space_pair_spec, width_pair, SpaceSpec};
use odrc::checks::enclosure_margin;
use odrc::rules::RuleKind;
use odrc::{canonicalize, RuleDeck, Violation, ViolationKind};
use odrc_db::Layout;
use odrc_geometry::{Edge, Point, Polygon, Rect};
use odrc_infra::sweep::sweep_overlaps;
use odrc_infra::Profiler;
use odrc_xpu::{scan::exclusive_scan, Device, LaunchConfig, Stream, XpuResult};

use crate::{BaselineReport, Checker};

/// A packed edge: coordinates plus the owning polygon id. Width pairs
/// must stay within one polygon (the interior between edges of two
/// disjoint polygons is not a width), so the id rides along to the
/// device.
type PackedEdge = ([i32; 4], u32);

fn pack(e: Edge, poly: u32) -> PackedEdge {
    ([e.from.x, e.from.y, e.to.x, e.to.y], poly)
}

fn unpack(e: PackedEdge) -> Edge {
    Edge::new(Point::new(e.0[0], e.0[1]), Point::new(e.0[2], e.0[3]))
}

/// For each sorted edge, the index of the first edge on a different
/// track: collinear edges never pair, so scans start past their run.
fn track_run_ends(edges: &[PackedEdge]) -> Vec<u32> {
    let n = edges.len();
    let mut run_end = vec![n as u32; n];
    let mut cur_end = n as u32;
    let mut cur_track = None;
    for i in (0..n).rev() {
        let t = unpack(edges[i]).track();
        if cur_track != Some(t) {
            cur_end = (i + 1) as u32;
            cur_track = Some(t);
        }
        run_end[i] = cur_end;
    }
    run_end
}

/// Why [`XCheck::check`] may `expect` its device results: the checker
/// never installs a fault plan or a memory budget on its device, so no
/// device operation can fail.
const NO_FAULTS: &str = "x-check installs no fault plan or budget";

/// The X-Check baseline.
#[derive(Debug)]
pub struct XCheck {
    device: Device,
}

impl Default for XCheck {
    fn default() -> Self {
        XCheck::new(Device::default())
    }
}

impl XCheck {
    /// Creates the checker on a device.
    pub fn new(device: Device) -> Self {
        XCheck { device }
    }

    /// Flat two-phase edge sweep: count kernel, device scan, emit
    /// kernel.
    #[allow(clippy::too_many_arguments)]
    fn edge_sweep(
        &self,
        stream: &Stream,
        profile: &mut Profiler,
        rule: &str,
        kind: ViolationKind,
        edges: Vec<PackedEdge>,
        min: i64,
        spec: SpaceSpec,
    ) -> XpuResult<Vec<Violation>> {
        if edges.is_empty() {
            return Ok(Vec::new());
        }
        let n = edges.len();
        let is_width = kind == ViolationKind::Width;
        let dev_edges = profile.time("transfer", || stream.try_upload(edges.clone()))?;
        let run_ends = track_run_ends(&edges);
        let dev_runs = profile.time("transfer", || stream.try_upload(run_ends))?;
        // Every hit of edge `i` in sorted-track order: the one scan both
        // kernels walk, so each emit range is filled exactly.
        let for_each_hit =
            move |edges: &[PackedEdge], runs: &[u32], i: usize, hit: &mut dyn FnMut(usize, i64)| {
                let ei = unpack(edges[i]);
                for j in runs[i] as usize..edges.len() {
                    let ej = unpack(edges[j]);
                    if i64::from(ej.track()) - i64::from(ei.track()) > min {
                        break;
                    }
                    let d2 = if is_width {
                        if edges[i].1 == edges[j].1 {
                            width_pair(ei, ej, min)
                        } else {
                            None
                        }
                    } else {
                        space_pair_spec(ei, ej, spec)
                    };
                    if let Some(d2) = d2 {
                        hit(j, d2);
                    }
                }
            };

        // Kernel 1: per-edge check range (sorted tracks) and count.
        let counts_buf = stream.try_alloc::<usize>(n)?;
        let (k1_edges, k1_runs) = (dev_edges.clone(), dev_runs.clone());
        stream.try_launch_map(
            LaunchConfig::for_threads(n),
            &counts_buf,
            move |ctx, slot| {
                let mut count = 0;
                for_each_hit(
                    &k1_edges.read(),
                    &k1_runs.read(),
                    ctx.global_id(),
                    &mut |_, _| count += 1,
                );
                *slot = count;
            },
        )?;
        let counts = profile.time("kernel", || stream.try_download(&counts_buf)?.result())?;
        let offsets = profile.time("scan", || exclusive_scan(&self.device, &counts));
        let total = *offsets.last().expect("scan output");

        // Kernel 2: emit each edge's hits into its scanned range, one
        // tile of edges per call.
        let out_buf = stream.try_alloc::<(u32, u32, i64)>(total)?;
        stream.try_launch_scatter_tiles(
            LaunchConfig::for_threads(n),
            &out_buf,
            offsets,
            move |range, slices| {
                let (edges, runs) = (dev_edges.read(), dev_runs.read());
                for (i, slice) in range.zip(slices.iter_mut()) {
                    let mut k = 0;
                    for_each_hit(&edges, &runs, i, &mut |j, d2| {
                        slice[k] = (i as u32, j as u32, d2);
                        k += 1;
                    });
                }
            },
        )?;
        let records = profile.time("kernel", || stream.try_download(&out_buf)?.result())?;
        Ok(records
            .into_iter()
            .map(|(a, b, d2)| {
                let ea = unpack(edges[a as usize]);
                let eb = unpack(edges[b as usize]);
                Violation {
                    rule: rule.to_owned(),
                    kind,
                    location: ea.mbr().hull(eb.mbr()),
                    measured: d2,
                }
            })
            .collect())
    }

    /// Enclosure margins: one device thread per inner shape, measuring
    /// it against its candidate outer shapes.
    fn enclosure_margins(
        stream: &Stream,
        profile: &mut Profiler,
        work: Vec<(Rect, Vec<Polygon>)>,
        min: i64,
    ) -> XpuResult<Vec<i64>> {
        let n = work.len();
        let dev_work = profile.time("transfer", || stream.try_upload(work))?;
        let margins = stream.try_alloc::<i64>(n)?;
        stream.try_launch_map(LaunchConfig::for_threads(n), &margins, move |ctx, slot| {
            let work = dev_work.read();
            let (rect, cands) = &work[ctx.global_id()];
            let refs: Vec<&Polygon> = cands.iter().collect();
            *slot = enclosure_margin(*rect, &refs, min);
        })?;
        profile.time("kernel", || stream.try_download(&margins)?.result())
    }
}

/// Packs and track-sorts every edge of a flat polygon list. The sort
/// runs on the device, as X-Check's GPU sort does.
fn pack_edges(device: &Device, polys: &[Polygon]) -> Vec<PackedEdge> {
    let mut edges: Vec<PackedEdge> = polys
        .iter()
        .enumerate()
        .flat_map(|(pi, p)| p.edges().map(move |e| pack(e, pi as u32)))
        .collect();
    odrc_xpu::sort::parallel_sort_by_key(device, &mut edges, |&e| (unpack(e).track(), e));
    edges
}

impl Checker for XCheck {
    fn name(&self) -> &str {
        "x-check"
    }

    fn check(&self, layout: &Layout, deck: &RuleDeck) -> BaselineReport {
        let mut profile = Profiler::new();
        let mut violations: Vec<Violation> = Vec::new();
        let mut skipped = Vec::new();
        let stream = self.device.stream();

        for rule in deck.rules() {
            match &rule.kind {
                RuleKind::Width { layer, min } => {
                    let polys = profile.time("flatten", || layout.flatten_layer_polygons(*layer));
                    let edges = profile.time("pack", || pack_edges(&self.device, &polys));
                    violations.extend(
                        self.edge_sweep(
                            &stream,
                            &mut profile,
                            &rule.name,
                            ViolationKind::Width,
                            edges,
                            *min,
                            SpaceSpec::simple(*min),
                        )
                        .expect(NO_FAULTS),
                    );
                }
                RuleKind::Space {
                    layer,
                    min,
                    min_projection,
                } => {
                    let polys = profile.time("flatten", || layout.flatten_layer_polygons(*layer));
                    let edges = profile.time("pack", || pack_edges(&self.device, &polys));
                    violations.extend(
                        self.edge_sweep(
                            &stream,
                            &mut profile,
                            &rule.name,
                            ViolationKind::Space,
                            edges,
                            *min,
                            SpaceSpec {
                                min: *min,
                                min_projection: *min_projection,
                            },
                        )
                        .expect(NO_FAULTS),
                    );
                }
                RuleKind::Enclosure { inner, outer, min } => {
                    let pi = profile.time("flatten", || layout.flatten_layer_polygons(*inner));
                    let po = profile.time("flatten", || layout.flatten_layer_polygons(*outer));
                    // Flat candidate discovery on the host, margin
                    // kernels on the device.
                    let m = *min as i32;
                    let work: Vec<(Rect, Vec<Polygon>)> = profile.time("pack", || {
                        let mut rects: Vec<Rect> = pi.iter().map(|p| p.mbr().inflate(m)).collect();
                        rects.extend(po.iter().map(|p| p.mbr()));
                        let mut cands: Vec<Vec<usize>> = vec![Vec::new(); pi.len()];
                        sweep_overlaps(&rects, |a, b| {
                            let (lo, hi) = (a.min(b), a.max(b));
                            if lo < pi.len() && hi >= pi.len() {
                                cands[lo].push(hi - pi.len());
                            }
                        });
                        pi.iter()
                            .zip(cands)
                            .map(|(p, cs)| {
                                (p.mbr(), cs.into_iter().map(|j| po[j].clone()).collect())
                            })
                            .collect()
                    });
                    if work.is_empty() {
                        continue;
                    }
                    let rects: Vec<Rect> = work.iter().map(|(r, _)| *r).collect();
                    let margins = XCheck::enclosure_margins(&stream, &mut profile, work, *min)
                        .expect(NO_FAULTS);
                    for (rect, margin) in rects.into_iter().zip(margins) {
                        if margin < *min {
                            violations.push(Violation {
                                rule: rule.name.clone(),
                                kind: ViolationKind::Enclosure,
                                location: rect,
                                measured: margin,
                            });
                        }
                    }
                }
                RuleKind::Area { .. } | RuleKind::OverlapArea { .. } => {
                    // X-Check cannot run area-based checks (§VI).
                    skipped.push(rule.name.clone());
                }
                RuleKind::Rectilinear { .. } | RuleKind::Ensures { .. } => {
                    // Shape predicates run on the host, flat.
                    profile.time("check", || {
                        crate::common::flat_intra(layout, rule, &mut violations)
                    });
                }
            }
        }
        BaselineReport {
            violations: canonicalize(violations),
            profile,
            skipped,
        }
    }
}
