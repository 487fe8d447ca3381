//! KLayout-style flat and deep (hierarchical) checkers.

use odrc::rules::{PolygonInfo, RuleKind};
use odrc::{canonicalize, RuleDeck, Violation};
use odrc_db::Layout;
use odrc_infra::Profiler;

use crate::common::{flat_enclosure, flat_intra, flat_space};
use crate::{BaselineReport, Checker};

/// The flat-mode strategy: expand the hierarchy completely and check
/// every object instance independently — no reuse, no partition, no
/// layer-wise MBR pruning.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatChecker {
    merge: bool,
}

impl FlatChecker {
    /// Creates a flat checker operating on polygons as drawn.
    pub fn new() -> Self {
        FlatChecker { merge: false }
    }

    /// Creates a flat checker that first merges each layer's geometry
    /// into regions, as KLayout's region operations do. Merging changes
    /// semantics where drawn polygons overlap or abut: split wires pass
    /// area rules as one component, and spacing is measured between
    /// merged components rather than drawn fragments. Shape predicates
    /// (`rectilinear`, `ensures`) and width still run on drawn
    /// polygons — merging destroys names and per-shape identity.
    pub fn with_merge() -> Self {
        FlatChecker { merge: true }
    }

    fn merged_layer(layout: &Layout, layer: odrc_db::Layer) -> odrc_infra::Region {
        odrc_infra::Region::from_polygons(layout.flatten_layer_polygons(layer).iter())
    }

    fn region_polygons(region: &odrc_infra::Region) -> Vec<odrc_geometry::Polygon> {
        region
            .rects()
            .iter()
            .map(|&r| odrc_geometry::Polygon::rect(r))
            .collect()
    }
}

impl Checker for FlatChecker {
    fn name(&self) -> &str {
        if self.merge {
            "klayout-flat-merged"
        } else {
            "klayout-flat"
        }
    }

    fn check(&self, layout: &Layout, deck: &RuleDeck) -> BaselineReport {
        let mut profile = Profiler::new();
        let mut violations = Vec::new();
        for rule in deck.rules() {
            match &rule.kind {
                RuleKind::Space {
                    layer,
                    min,
                    min_projection,
                } => {
                    let spec = odrc::checks::SpaceSpec {
                        min: *min,
                        min_projection: *min_projection,
                    };
                    let polys = if self.merge {
                        let region = profile.time("merge", || Self::merged_layer(layout, *layer));
                        Self::region_polygons(&region)
                    } else {
                        profile.time("flatten", || layout.flatten_layer_polygons(*layer))
                    };
                    profile.time("check", || {
                        flat_space(&polys, &rule.name, spec, &mut violations)
                    });
                }
                RuleKind::Area { layer, min } if self.merge => {
                    // Merged semantics: area per connected component.
                    let region = profile.time("merge", || Self::merged_layer(layout, *layer));
                    profile.time("check", || {
                        for comp in region.components() {
                            let area = comp.area();
                            if area < *min {
                                violations.push(Violation {
                                    rule: rule.name.clone(),
                                    kind: odrc::ViolationKind::Area,
                                    location: comp.mbr().expect("non-empty component"),
                                    measured: area,
                                });
                            }
                        }
                    });
                }
                RuleKind::OverlapArea {
                    inner,
                    outer,
                    min_area,
                } => {
                    let (pi, po) = profile.time("flatten", || {
                        (
                            layout.flatten_layer_polygons(*inner),
                            layout.flatten_layer_polygons(*outer),
                        )
                    });
                    profile.time("check", || {
                        crate::common::flat_overlap(
                            &pi,
                            &po,
                            &rule.name,
                            *min_area,
                            &mut violations,
                        )
                    });
                }
                RuleKind::Enclosure { inner, outer, min } => {
                    let pi = profile.time("flatten", || layout.flatten_layer_polygons(*inner));
                    let po = if self.merge {
                        let region = profile.time("merge", || Self::merged_layer(layout, *outer));
                        Self::region_polygons(&region)
                    } else {
                        profile.time("flatten", || layout.flatten_layer_polygons(*outer))
                    };
                    profile.time("check", || {
                        flat_enclosure(&pi, &po, &rule.name, *min, &mut violations)
                    });
                }
                _ => profile.time("check", || flat_intra(layout, rule, &mut violations)),
            }
        }
        BaselineReport {
            violations: canonicalize(violations),
            profile,
            skipped: Vec::new(),
        }
    }
}

/// The deep-mode strategy: hierarchical evaluation of intra-polygon
/// rules (per-cell results reused across instances), but inter-polygon
/// rules still run over the flattened layout without OpenDRC's adaptive
/// partition.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeepChecker;

impl DeepChecker {
    /// Creates a deep checker.
    pub fn new() -> Self {
        DeepChecker
    }
}

impl Checker for DeepChecker {
    fn name(&self) -> &str {
        "klayout-deep"
    }

    fn check(&self, layout: &Layout, deck: &RuleDeck) -> BaselineReport {
        use odrc::checks::poly::polygon_violations;
        use odrc::scene::cell_instances;

        let mut profile = Profiler::new();
        let mut violations: Vec<Violation> = Vec::new();
        let instances = profile.time("hierarchy", || cell_instances(layout));
        for rule in deck.rules() {
            match &rule.kind {
                RuleKind::Space {
                    layer,
                    min,
                    min_projection,
                } => {
                    let spec = odrc::checks::SpaceSpec {
                        min: *min,
                        min_projection: *min_projection,
                    };
                    let polys = profile.time("flatten", || layout.flatten_layer_polygons(*layer));
                    profile.time("check", || {
                        flat_space(&polys, &rule.name, spec, &mut violations)
                    });
                }
                RuleKind::OverlapArea {
                    inner,
                    outer,
                    min_area,
                } => {
                    let (pi, po) = profile.time("flatten", || {
                        (
                            layout.flatten_layer_polygons(*inner),
                            layout.flatten_layer_polygons(*outer),
                        )
                    });
                    profile.time("check", || {
                        crate::common::flat_overlap(
                            &pi,
                            &po,
                            &rule.name,
                            *min_area,
                            &mut violations,
                        )
                    });
                }
                RuleKind::Enclosure { inner, outer, min } => {
                    let (pi, po) = profile.time("flatten", || {
                        (
                            layout.flatten_layer_polygons(*inner),
                            layout.flatten_layer_polygons(*outer),
                        )
                    });
                    profile.time("check", || {
                        flat_enclosure(&pi, &po, &rule.name, *min, &mut violations)
                    });
                }
                _ => {
                    // Hierarchical intra rule: once per definition,
                    // replayed per instance.
                    let (layer, spec) = crate::common::intra_spec(rule);
                    profile.time("check", || {
                        for cell_id in layout.cell_ids() {
                            let transforms = &instances[cell_id.index()];
                            let cell = layout.cell(cell_id);
                            let mut locals = Vec::new();
                            for p in cell.polygons() {
                                if layer.map(|l| p.layer == l).unwrap_or(true) {
                                    polygon_violations(PolygonInfo::of(p), &spec, &mut locals);
                                }
                            }
                            for t in transforms {
                                for v in &locals {
                                    let vi = v.instantiate(t);
                                    violations.push(Violation {
                                        rule: rule.name.clone(),
                                        kind: vi.kind,
                                        location: vi.location,
                                        measured: vi.measured,
                                    });
                                }
                            }
                        }
                    });
                }
            }
        }
        BaselineReport {
            violations: canonicalize(violations),
            profile,
            skipped: Vec::new(),
        }
    }
}
