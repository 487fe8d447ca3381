//! Shared flat-checking helpers.
//!
//! All helpers operate on flattened (top-coordinate) polygons and call
//! into `odrc::checks`, so their results are canonical-set-identical to
//! the engine's.

use odrc::checks::poly::{
    notch_space_violations, polygon_violations, space_violations_between, LocalViolation,
    PolyRuleSpec,
};
use odrc::checks::{enclosure_margin, SpaceSpec};
use odrc::rules::{PolygonInfo, Rule, RuleKind};
use odrc::{Violation, ViolationKind};
use odrc_db::{Layer, LayerPolygon, Layout};
use odrc_geometry::{Coord, Polygon, Rect};
use odrc_infra::sweep::sweep_overlaps;
use odrc_infra::Region;

/// Builds the per-polygon rule spec for an intra-polygon rule, plus the
/// restricting layer.
pub(crate) fn intra_spec(rule: &Rule) -> (Option<Layer>, PolyRuleSpec) {
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

/// Flat polygons of a layer together with their names (for `ensures`).
pub(crate) fn flat_layer(layout: &Layout, layer: Layer) -> Vec<LayerPolygon> {
    layout
        .flatten_layer(layer)
        .into_iter()
        .map(|f| {
            let original = &layout.cell(f.cell).polygons()[f.index];
            LayerPolygon {
                layer,
                datatype: original.datatype,
                name: original.name.clone(),
                polygon: f.polygon,
            }
        })
        .collect()
}

/// Every flat polygon of every layer (for unrestricted shape rules).
pub(crate) fn flat_all_layers(layout: &Layout) -> Vec<LayerPolygon> {
    layout
        .layers()
        .into_iter()
        .flat_map(|l| flat_layer(layout, l))
        .collect()
}

/// Converts local violations to named violations.
pub(crate) fn to_violations(rule: &str, locals: Vec<LocalViolation>) -> Vec<Violation> {
    locals
        .into_iter()
        .map(|v| Violation {
            rule: rule.to_owned(),
            kind: v.kind,
            location: v.location,
            measured: v.measured,
        })
        .collect()
}

/// Flat intra-polygon check: runs the rule on every instance.
pub(crate) fn flat_intra(layout: &Layout, rule: &Rule, out: &mut Vec<Violation>) {
    let (layer, spec) = intra_spec(rule);
    let polys = match layer {
        Some(l) => flat_layer(layout, l),
        None => flat_all_layers(layout),
    };
    let mut locals = Vec::new();
    for p in &polys {
        polygon_violations(PolygonInfo::of(p), &spec, &mut locals);
    }
    out.extend(to_violations(&rule.name, locals));
}

/// Flat spacing check over a polygon soup: one global sweepline over
/// inflated MBRs plus per-polygon notch checks.
pub(crate) fn flat_space(polys: &[Polygon], rule: &str, spec: SpaceSpec, out: &mut Vec<Violation>) {
    let mut locals = Vec::new();
    for p in polys {
        notch_space_violations(p, spec, &mut locals);
    }
    let half = ((spec.min + 1) / 2) as Coord;
    let inflated: Vec<Rect> = polys.iter().map(|p| p.mbr().inflate(half)).collect();
    sweep_overlaps(&inflated, |a, b| {
        if polys[a].mbr().gap(polys[b].mbr()) < spec.min {
            space_violations_between(&polys[a], &polys[b], spec, &mut locals);
        }
    });
    out.extend(to_violations(rule, locals));
}

/// Flat enclosure check: bipartite candidate discovery by one sweepline
/// over the union of inflated inner MBRs and outer MBRs.
pub(crate) fn flat_enclosure(
    inners: &[Polygon],
    outers: &[Polygon],
    rule: &str,
    min: i64,
    out: &mut Vec<Violation>,
) {
    let m = min as Coord;
    // Combined rect array: inners (inflated) first, then outers.
    let mut rects: Vec<Rect> = inners.iter().map(|p| p.mbr().inflate(m)).collect();
    rects.extend(outers.iter().map(|p| p.mbr()));
    let n_inner = inners.len();
    let mut candidates: Vec<Vec<usize>> = vec![Vec::new(); n_inner];
    sweep_overlaps(&rects, |a, b| {
        // Keep only inner-outer pairs.
        let (lo, hi) = (a.min(b), a.max(b));
        if lo < n_inner && hi >= n_inner {
            candidates[lo].push(hi - n_inner);
        }
    });
    for (i, cands) in candidates.iter().enumerate() {
        let refs: Vec<&Polygon> = cands.iter().map(|&j| &outers[j]).collect();
        let margin = enclosure_margin(inners[i].mbr(), &refs, min);
        if margin < min {
            out.push(Violation {
                rule: rule.to_owned(),
                kind: ViolationKind::Enclosure,
                location: inners[i].mbr(),
                measured: margin,
            });
        }
    }
}

/// Flat minimum-overlap-area check: bipartite candidate discovery, then
/// boolean AND areas per inner shape.
pub(crate) fn flat_overlap(
    inners: &[Polygon],
    outers: &[Polygon],
    rule: &str,
    min_area: i64,
    out: &mut Vec<Violation>,
) {
    let mut rects: Vec<Rect> = inners.iter().map(|p| p.mbr()).collect();
    rects.extend(outers.iter().map(|p| p.mbr()));
    let n_inner = inners.len();
    let mut candidates: Vec<Vec<usize>> = vec![Vec::new(); n_inner];
    sweep_overlaps(&rects, |a, b| {
        let (lo, hi) = (a.min(b), a.max(b));
        if lo < n_inner && hi >= n_inner {
            candidates[lo].push(hi - n_inner);
        }
    });
    for (i, cands) in candidates.iter().enumerate() {
        let inner_region = Region::from_polygons([&inners[i]]);
        let outer_region = Region::from_polygons(cands.iter().map(|&j| &outers[j]));
        let shared = inner_region.intersection(&outer_region).area();
        if shared < min_area {
            out.push(Violation {
                rule: rule.to_owned(),
                kind: ViolationKind::OverlapArea,
                location: inners[i].mbr(),
                measured: shared,
            });
        }
    }
}
