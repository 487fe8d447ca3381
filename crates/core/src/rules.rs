//! The rule definition DSL (§V-B of the paper, Listing 1).
//!
//! Rules are described with chained *selectors* (which objects) and
//! *predicates* (what must hold), mirroring the paper's interface:
//!
//! ```cpp
//! // C++ original (Listing 1)
//! db.layer(19).width().greater_than(18)
//! db.polygons().is_rectilinear()
//! db.layer(20).polygons().ensures([](auto& p){ ... })
//! ```
//!
//! ```
//! use odrc::rules::{rule, RuleDeck};
//!
//! let deck = RuleDeck::new(vec![
//!     rule().layer(19).width().greater_than(18),
//!     rule().layer(19).space().greater_than(18),
//!     rule().layer(30).enclosed_by(19).greater_than(4),
//!     rule().layer(19).area().greater_than(1400),
//!     rule().polygons().is_rectilinear(),
//!     rule().layer(20).polygons().ensures("named", |p| p.name.is_some()),
//! ]);
//! assert_eq!(deck.rules().len(), 6);
//! ```

use std::fmt;
use std::sync::Arc;

use odrc_db::{Layer, LayerPolygon};
use odrc_geometry::Polygon;

use crate::checks::SpaceSpec;
use crate::violation::ViolationKind;

/// Information about a polygon handed to user predicates.
#[derive(Debug, Clone, Copy)]
pub struct PolygonInfo<'a> {
    /// The layer the polygon is drawn on.
    pub layer: Layer,
    /// The polygon's name (GDSII property 1), if any.
    pub name: Option<&'a str>,
    /// The geometry, in cell-local coordinates.
    pub polygon: &'a Polygon,
}

impl<'a> PolygonInfo<'a> {
    /// Builds the info view over a database polygon.
    pub fn of(p: &'a LayerPolygon) -> Self {
        PolygonInfo {
            layer: p.layer,
            name: p.name.as_deref(),
            polygon: &p.polygon,
        }
    }
}

/// A user predicate over polygons.
pub type EnsureFn = Arc<dyn Fn(PolygonInfo<'_>) -> bool + Send + Sync>;

/// The executable form of a rule.
#[derive(Clone)]
pub enum RuleKind {
    /// Minimum interior distance between facing edges of one polygon.
    Width {
        /// Checked layer.
        layer: Layer,
        /// Minimum width in dbu (violation when strictly below).
        min: i64,
    },
    /// Minimum exterior distance between facing edges.
    Space {
        /// Checked layer.
        layer: Layer,
        /// Minimum spacing in dbu.
        min: i64,
        /// Conditional-rule threshold: the spacing applies only to
        /// edge pairs whose projection overlap is at least this long
        /// (`0` = unconditional; §II "different spacing constraints
        /// given different projection lengths").
        min_projection: i64,
    },
    /// Minimum polygon area.
    Area {
        /// Checked layer.
        layer: Layer,
        /// Minimum area in dbu².
        min: i64,
    },
    /// Minimum margin by which `outer` must enclose shapes of `inner`.
    Enclosure {
        /// The enclosed layer (e.g. a via layer).
        inner: Layer,
        /// The enclosing layer (e.g. a metal layer).
        outer: Layer,
        /// Minimum margin in dbu.
        min: i64,
    },
    /// Minimum area of the boolean AND between a shape of `inner` and
    /// the geometry of `outer` ("minimum overlapping area constraints",
    /// §II) — e.g. a via must land on enough metal.
    OverlapArea {
        /// The layer whose shapes are measured (e.g. a via layer).
        inner: Layer,
        /// The layer overlapped against (e.g. a metal layer).
        outer: Layer,
        /// Minimum shared area in dbu².
        min_area: i64,
    },
    /// All selected polygons must be rectilinear.
    Rectilinear {
        /// Restrict to one layer; `None` checks every layer.
        layer: Option<Layer>,
    },
    /// A user-supplied predicate must hold for every selected polygon.
    Ensures {
        /// Restrict to one layer; `None` checks every layer.
        layer: Option<Layer>,
        /// Human-readable label for reports.
        label: String,
        /// The predicate; `true` means the polygon conforms.
        predicate: EnsureFn,
    },
}

impl fmt::Debug for RuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleKind::Width { layer, min } => write!(f, "Width(layer {layer} >= {min})"),
            RuleKind::Space {
                layer,
                min,
                min_projection,
            } => {
                if *min_projection > 0 {
                    write!(
                        f,
                        "Space(layer {layer} >= {min} when projection >= {min_projection})"
                    )
                } else {
                    write!(f, "Space(layer {layer} >= {min})")
                }
            }
            RuleKind::Area { layer, min } => write!(f, "Area(layer {layer} >= {min})"),
            RuleKind::Enclosure { inner, outer, min } => {
                write!(f, "Enclosure({inner} in {outer} >= {min})")
            }
            RuleKind::OverlapArea {
                inner,
                outer,
                min_area,
            } => write!(f, "OverlapArea({inner} and {outer} >= {min_area})"),
            RuleKind::Rectilinear { layer } => write!(f, "Rectilinear({layer:?})"),
            RuleKind::Ensures { layer, label, .. } => write!(f, "Ensures({layer:?}, {label})"),
        }
    }
}

/// A named design rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Report name (defaults to a `LAYER.KIND.1` style name).
    pub name: String,
    /// The executable rule.
    pub kind: RuleKind,
}

impl Rule {
    /// Renames the rule (paper-style names like `"M2.S.1"`).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Rule {
        self.name = name.into();
        self
    }

    /// The layers this rule reads. Used to decide which layers the
    /// partitioner must consider.
    pub fn layers(&self) -> Vec<Layer> {
        match self.kind {
            RuleKind::Width { layer, .. }
            | RuleKind::Space { layer, .. }
            | RuleKind::Area { layer, .. } => vec![layer],
            RuleKind::Enclosure { inner, outer, .. }
            | RuleKind::OverlapArea { inner, outer, .. } => vec![inner, outer],
            RuleKind::Rectilinear { layer } | RuleKind::Ensures { layer, .. } => {
                layer.map(|l| vec![l]).unwrap_or_default()
            }
        }
    }

    /// Returns `true` for rules whose result depends on one polygon at
    /// a time (width, area, rectilinear, ensures) — the "intra-polygon"
    /// checks of §IV-C, which memoize aggressively.
    pub fn is_intra_polygon(&self) -> bool {
        matches!(self.family(), RuleFamily::Intra)
    }

    /// The interaction distance of the rule: how far apart two objects
    /// can be and still violate it together. Zero for per-polygon rules.
    pub fn interaction_distance(&self) -> i64 {
        self.family().interaction().map_or(0, |(_, reach)| reach)
    }

    /// Classifies the rule into its check pipeline.
    pub(crate) fn family(&self) -> RuleFamily {
        match self.kind {
            RuleKind::Space {
                layer,
                min,
                min_projection,
            } => RuleFamily::Space {
                layer,
                spec: SpaceSpec {
                    min,
                    min_projection,
                },
            },
            RuleKind::Enclosure { inner, outer, min } => RuleFamily::Pairs(PairsRule {
                kind: ViolationKind::Enclosure,
                inner,
                outer,
                min,
            }),
            RuleKind::OverlapArea {
                inner,
                outer,
                min_area,
            } => RuleFamily::Pairs(PairsRule {
                kind: ViolationKind::OverlapArea,
                inner,
                outer,
                min: min_area,
            }),
            _ => RuleFamily::Intra,
        }
    }
}

/// The check pipeline a rule runs (§IV-B/D/E): same-layer spacing,
/// an inner/outer layer pair (enclosure, overlap area), or one polygon
/// at a time. [`Rule::family`] is the one classifier; the sequential,
/// parallel and out-of-core dispatchers each match on its result once.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RuleFamily {
    /// Partition → sweepline → edge check over one layer's objects.
    Space { layer: Layer, spec: SpaceSpec },
    /// Row join → per-shape measure over two layers.
    Pairs(PairsRule),
    /// Width, area, rectilinear, user predicates (§IV-C memo).
    Intra,
}

/// An enclosure or overlap-area rule: every shape of `inner` is
/// measured against its candidate polygons of `outer` and must reach
/// `min` (a margin in dbu, or a shared area in dbu²).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairsRule {
    /// [`ViolationKind::Enclosure`] or [`ViolationKind::OverlapArea`].
    pub kind: ViolationKind,
    pub inner: Layer,
    pub outer: Layer,
    pub min: i64,
}

impl PairsRule {
    /// How far from an inner shape a candidate outer polygon can lie:
    /// the margin for enclosure, zero for overlap area (only geometry
    /// that actually intersects the shape shares area with it).
    pub fn gather(&self) -> i64 {
        match self.kind {
            ViolationKind::Enclosure => self.min,
            _ => 0,
        }
    }
}

impl RuleFamily {
    /// The layer whose objects the rule partitions and the distance
    /// within which two objects can interact — the out-of-core shard
    /// key and the delta halo. `None` for intra-polygon rules, which
    /// neither shard nor window.
    pub fn interaction(&self) -> Option<(Layer, i64)> {
        match self {
            RuleFamily::Space { layer, spec } => Some((*layer, spec.min)),
            RuleFamily::Pairs(pairs) => Some((pairs.inner, pairs.gather())),
            RuleFamily::Intra => None,
        }
    }
}

/// An ordered list of rules.
#[derive(Debug, Clone, Default)]
pub struct RuleDeck {
    rules: Vec<Rule>,
}

impl RuleDeck {
    /// Builds a deck from rules.
    pub fn new(rules: Vec<Rule>) -> Self {
        RuleDeck { rules }
    }

    /// Adds more rules (the paper's `add_rules`).
    pub fn add_rules(&mut self, rules: impl IntoIterator<Item = Rule>) {
        self.rules.extend(rules);
    }

    /// The rules in order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }
}

impl FromIterator<Rule> for RuleDeck {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> Self {
        RuleDeck {
            rules: iter.into_iter().collect(),
        }
    }
}

impl Extend<Rule> for RuleDeck {
    fn extend<I: IntoIterator<Item = Rule>>(&mut self, iter: I) {
        self.rules.extend(iter);
    }
}

/// Starts a rule definition chain (the `db.` prefix of Listing 1).
pub fn rule() -> Selector {
    Selector
}

/// Entry point of the selector chain.
#[derive(Debug, Clone, Copy)]
pub struct Selector;

impl Selector {
    /// Selects objects on one layer.
    pub fn layer(self, layer: Layer) -> LayerSelector {
        LayerSelector { layer }
    }

    /// Selects polygons on every layer.
    pub fn polygons(self) -> PolygonSelector {
        PolygonSelector { layer: None }
    }
}

/// Selector scoped to one layer.
#[derive(Debug, Clone, Copy)]
pub struct LayerSelector {
    layer: Layer,
}

impl LayerSelector {
    /// Selects the widths of this layer's polygons.
    pub fn width(self) -> MetricSelector {
        MetricSelector {
            build: MetricKind::Width(self.layer),
        }
    }

    /// Selects the spacings between this layer's polygon edges.
    pub fn space(self) -> SpaceSelector {
        SpaceSelector {
            layer: self.layer,
            min_projection: 0,
        }
    }

    /// Selects the areas of this layer's polygons.
    pub fn area(self) -> MetricSelector {
        MetricSelector {
            build: MetricKind::Area(self.layer),
        }
    }

    /// Selects the enclosure margins of this layer's shapes within
    /// `outer`.
    pub fn enclosed_by(self, outer: Layer) -> MetricSelector {
        MetricSelector {
            build: MetricKind::Enclosure {
                inner: self.layer,
                outer,
            },
        }
    }

    /// Selects the overlap areas of this layer's shapes with `outer`.
    pub fn overlapping(self, outer: Layer) -> OverlapSelector {
        OverlapSelector {
            inner: self.layer,
            outer,
        }
    }

    /// Selects this layer's polygons for shape predicates.
    pub fn polygons(self) -> PolygonSelector {
        PolygonSelector {
            layer: Some(self.layer),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum MetricKind {
    Width(Layer),
    Area(Layer),
    Enclosure { inner: Layer, outer: Layer },
}

/// A selected spacing metric, supporting conditional (projection-based)
/// variants before the closing predicate.
#[derive(Debug, Clone, Copy)]
pub struct SpaceSelector {
    layer: Layer,
    min_projection: i64,
}

impl SpaceSelector {
    /// Restricts the rule to edge pairs whose parallel projection
    /// overlap is at least `length` — the conditional spacing form.
    ///
    /// ```
    /// use odrc::rules::rule;
    /// let r = rule().layer(20).space().when_projection_at_least(100).greater_than(40);
    /// assert_eq!(r.interaction_distance(), 40);
    /// ```
    #[must_use]
    pub fn when_projection_at_least(mut self, length: i64) -> SpaceSelector {
        self.min_projection = length;
        self
    }

    /// Requires the spacing to be at least `min`, finishing the rule.
    pub fn greater_than(self, min: i64) -> Rule {
        let name = if self.min_projection > 0 {
            format!("L{}.S.P{}", self.layer, self.min_projection)
        } else {
            format!("L{}.S.1", self.layer)
        };
        Rule {
            name,
            kind: RuleKind::Space {
                layer: self.layer,
                min,
                min_projection: self.min_projection,
            },
        }
    }

    /// Alias of [`SpaceSelector::greater_than`].
    pub fn at_least(self, min: i64) -> Rule {
        self.greater_than(min)
    }
}

/// A selected scalar metric awaiting its predicate.
#[derive(Debug, Clone, Copy)]
pub struct MetricSelector {
    build: MetricKind,
}

impl MetricSelector {
    /// Requires the metric to be at least `min` (violation when
    /// strictly below), finishing the rule. Named after the paper's
    /// `greater_than` predicate.
    pub fn greater_than(self, min: i64) -> Rule {
        let (name, kind) = match self.build {
            MetricKind::Width(layer) => (format!("L{layer}.W.1"), RuleKind::Width { layer, min }),
            MetricKind::Area(layer) => (format!("L{layer}.A.1"), RuleKind::Area { layer, min }),
            MetricKind::Enclosure { inner, outer } => (
                format!("L{inner}.L{outer}.EN.1"),
                RuleKind::Enclosure { inner, outer, min },
            ),
        };
        Rule { name, kind }
    }

    /// Alias of [`MetricSelector::greater_than`] reading as "at least".
    pub fn at_least(self, min: i64) -> Rule {
        self.greater_than(min)
    }
}

/// A selected inner-outer overlap awaiting its area predicate.
#[derive(Debug, Clone, Copy)]
pub struct OverlapSelector {
    inner: Layer,
    outer: Layer,
}

impl OverlapSelector {
    /// Requires every inner shape to share at least `min_area` dbu²
    /// with the outer layer, finishing the rule.
    ///
    /// ```
    /// use odrc::rules::rule;
    /// let r = rule().layer(30).overlapping(20).area_at_least(100);
    /// assert_eq!(r.layers(), vec![30, 20]);
    /// ```
    pub fn area_at_least(self, min_area: i64) -> Rule {
        Rule {
            name: format!("L{}.L{}.OVL.1", self.inner, self.outer),
            kind: RuleKind::OverlapArea {
                inner: self.inner,
                outer: self.outer,
                min_area,
            },
        }
    }
}

/// Selected polygons awaiting a shape predicate.
#[derive(Debug, Clone, Copy)]
pub struct PolygonSelector {
    layer: Option<Layer>,
}

impl PolygonSelector {
    /// Requires axis-aligned shapes.
    pub fn is_rectilinear(self) -> Rule {
        Rule {
            name: match self.layer {
                Some(l) => format!("L{l}.RECT.1"),
                None => "RECT.1".to_owned(),
            },
            kind: RuleKind::Rectilinear { layer: self.layer },
        }
    }

    /// Requires a user predicate to hold for every selected polygon
    /// (the paper's `ensures`, which "takes a callable as a parameter
    /// that enables user-defined predicates").
    pub fn ensures(
        self,
        label: impl Into<String>,
        predicate: impl Fn(PolygonInfo<'_>) -> bool + Send + Sync + 'static,
    ) -> Rule {
        let label = label.into();
        Rule {
            name: match self.layer {
                Some(l) => format!("L{l}.USER.{label}"),
                None => format!("USER.{label}"),
            },
            kind: RuleKind::Ensures {
                layer: self.layer,
                label,
                predicate: Arc::new(predicate),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing1_rules_build() {
        let deck = RuleDeck::new(vec![
            rule().polygons().is_rectilinear(),
            rule().layer(19).width().greater_than(18),
            rule().layer(20).polygons().ensures("nonempty-name", |p| {
                p.name.map(|n| !n.is_empty()).unwrap_or(false)
            }),
        ]);
        assert_eq!(deck.rules().len(), 3);
        assert!(matches!(
            deck.rules()[1].kind,
            RuleKind::Width { layer: 19, min: 18 }
        ));
    }

    #[test]
    fn default_names_follow_paper_style() {
        assert_eq!(rule().layer(20).space().greater_than(20).name, "L20.S.1");
        assert_eq!(
            rule().layer(30).enclosed_by(19).greater_than(4).name,
            "L30.L19.EN.1"
        );
        assert_eq!(
            rule()
                .layer(19)
                .width()
                .greater_than(18)
                .named("M1.W.1")
                .name,
            "M1.W.1"
        );
    }

    #[test]
    fn rule_layers_and_classification() {
        let w = rule().layer(19).width().greater_than(18);
        assert!(w.is_intra_polygon());
        assert_eq!(w.layers(), vec![19]);
        assert_eq!(w.interaction_distance(), 0);

        let s = rule().layer(20).space().at_least(20);
        assert!(!s.is_intra_polygon());
        assert_eq!(s.interaction_distance(), 20);

        let e = rule().layer(30).enclosed_by(19).greater_than(4);
        assert!(!e.is_intra_polygon());
        assert_eq!(e.layers(), vec![30, 19]);

        let r = rule().polygons().is_rectilinear();
        assert!(r.layers().is_empty());
    }

    #[test]
    fn deck_collects_and_extends() {
        let mut deck: RuleDeck = vec![rule().layer(1).width().at_least(5)]
            .into_iter()
            .collect();
        deck.extend([rule().layer(1).space().at_least(5)]);
        deck.add_rules([rule().layer(1).area().at_least(100)]);
        assert_eq!(deck.rules().len(), 3);
    }

    #[test]
    fn debug_formats() {
        let e = rule().layer(30).enclosed_by(19).greater_than(4);
        assert!(format!("{:?}", e.kind).contains("Enclosure"));
        let u = rule().polygons().ensures("x", |_| true);
        assert!(format!("{:?}", u.kind).contains("Ensures"));
    }
}
