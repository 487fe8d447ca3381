//! Seeded benchmark inputs with known answers.
//!
//! The designs come from `odrc_layoutgen`; on top of each this module
//! appends a strip of M1 rectangle pairs at gaps one below, at, and one
//! above the minimum spacing, so `M1.S.1` — clean on every generated
//! design — has an exact expected count across cell instances.

use odrc_db::{CellId, LayerPolygon, Layout};
use odrc_gdsii::{Element, Library, RefElement, Structure};
use odrc_geometry::{Point, Polygon, Rect};
use odrc_incremental::EditOp;
use odrc_layoutgen::{generate, tech, DesignSpec, InjectionStats};

/// Name of the one-rectangle cell the known-answer strip instantiates.
pub const STRIP_CELL: &str = "KA_M1";
/// Drawn size of the strip rectangle: wider than `M1_WIDTH`, larger
/// than `M1_AREA`, so only the spacing rule can fire on it.
const STRIP_W: i32 = 20;
const STRIP_H: i32 = 100;
/// Edits per served session.
pub const EDITS_PER_SESSION: usize = 8;

/// SplitMix64: the harness's own generator (the workspace `rand` shim
/// belongs to the program under test).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Which design a workload checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// `jpeg` scaled ×10: the one-shot and out-of-core chip.
    Chip10,
    /// `ethmac`: the served design.
    Ethmac,
    /// `tiny`: the `--quick` smoke input for every workload.
    Tiny,
}

impl Design {
    pub fn file_name(self) -> &'static str {
        match self {
            Design::Chip10 => "chip10.gds",
            Design::Ethmac => "ethmac.gds",
            Design::Tiny => "tiny.gds",
        }
    }

    fn spec(self, seed: u64) -> DesignSpec {
        let mut spec = match self {
            Design::Chip10 => DesignSpec::paper("jpeg")
                .expect("jpeg is a paper design")
                .scaled(10),
            Design::Ethmac => DesignSpec::paper("ethmac").expect("ethmac is a paper design"),
            Design::Tiny => DesignSpec::tiny(0),
        };
        // Same size and character for every seed, different geometry.
        spec.seed ^= SplitMix64::new(seed).next_u64();
        spec
    }

    fn strip_pairs(self) -> usize {
        match self {
            Design::Tiny => 6,
            _ => 24,
        }
    }
}

/// What the checker must report on a generated design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truth {
    /// Injected by the generator; width and area counts are exact,
    /// space and enclosure are lower bounds.
    pub injected: InjectionStats,
    /// Exact `M1.S.1` count: the strip pairs drawn one below minimum.
    pub m1_space: usize,
}

/// A generated design ready to hand to the program under test.
#[derive(Debug, Clone)]
pub struct DesignInput {
    pub library: Library,
    pub truth: Truth,
}

/// Generates `design` for `seed`, known-answer strip included.
pub fn design(design: Design, seed: u64) -> DesignInput {
    let spec = design.spec(seed);
    let generated = generate(&spec);
    let mut library = generated.library;
    let m1_space = append_strip(&mut library, &spec, design.strip_pairs(), seed);
    DesignInput {
        library,
        truth: Truth {
            injected: generated.stats,
            m1_space,
        },
    }
}

/// Appends the strip cell and `pairs` SREF pairs above the filler row;
/// returns how many pairs sit one below the minimum spacing.
fn append_strip(library: &mut Library, spec: &DesignSpec, pairs: usize, seed: u64) -> usize {
    let mut cell = Structure::new(STRIP_CELL);
    cell.elements.push(Element::boundary(
        tech::M1,
        Rect::from_coords(0, 0, STRIP_W, STRIP_H).corners().to_vec(),
    ));
    let mut top = library.structures.pop().expect("generator puts top last");
    library.structures.push(cell);

    // The generator's filler AREF occupies the row right above the
    // die; the strip goes one more row up, beyond any rule distance.
    let y = (spec.rows as i32 + 2) * tech::ROW_HEIGHT + tech::CELL_INSET;
    let min = i32::try_from(tech::M1_SPACE).expect("rule value fits a coordinate");
    let mut rng = SplitMix64::new(seed ^ 0x4B41_5F4D_315F_5331);
    let mut x = 100 + rng.below(200) as i32;
    let mut violating = 0;
    for i in 0..pairs {
        // One pair of each kind first, the rest drawn from the seed.
        let offset = match i {
            0 => -1,
            1 => 0,
            2 => 1,
            _ => rng.below(3) as i32 - 1,
        };
        let gap = min + offset;
        violating += usize::from(offset < 0);
        top.elements
            .push(Element::Ref(RefElement::sref(STRIP_CELL, Point::new(x, y))));
        top.elements.push(Element::Ref(RefElement::sref(
            STRIP_CELL,
            Point::new(x + STRIP_W + gap, y),
        )));
        x += 2 * STRIP_W + gap + 200 + rng.below(100) as i32;
    }
    library.structures.push(top);
    violating
}

/// The paper's eleven rules plus `rectilinear`, every threshold read
/// from `odrc_layoutgen::tech`.
pub fn deck_text() -> String {
    use tech::*;
    format!(
        "width layer={M1} min={M1_WIDTH} name=M1.W.1\n\
         width layer={M2} min={M2_WIDTH} name=M2.W.1\n\
         width layer={M3} min={M3_WIDTH} name=M3.W.1\n\
         area layer={M1} min={M1_AREA} name=M1.A.1\n\
         space layer={M1} min={M1_SPACE} name=M1.S.1\n\
         space layer={M2} min={M2_SPACE} name=M2.S.1\n\
         space layer={M3} min={M3_SPACE} name=M3.S.1\n\
         enclosure inner={V1} outer={M1} min={V1_M1_ENCLOSURE} name=V1.M1.EN.1\n\
         enclosure inner={V1} outer={M2} min={V1_M2_ENCLOSURE} name=V1.M2.EN.1\n\
         enclosure inner={V2} outer={M2} min={V2_M2_ENCLOSURE} name=V2.M2.EN.1\n\
         enclosure inner={V2} outer={M3} min={V2_M3_ENCLOSURE} name=V2.M3.EN.1\n\
         rectilinear name=RECT.1\n"
    )
}

/// One rule of [`deck_text`] as a deck of its own (the paper's tables
/// time rules one at a time).
pub fn one_rule_deck(name: &str) -> String {
    deck_text()
        .lines()
        .find(|l| l.ends_with(&format!("name={name}")))
        .map(|l| format!("{l}\n"))
        .unwrap_or_else(|| panic!("rule {name} is not in the benchmark deck"))
}

/// The seeded edit sequence of a served session: each op moves the top
/// edge of one top-level M2 wire by 8 dbu, narrowing a drawn-width wire
/// below `M2_WIDTH` or widening a narrow one back above it, so every
/// edit changes the report. Ops are cumulative (op `k` applies on top
/// of ops `0..k`) and touch distinct polygons.
pub fn session_edits(layout: &Layout, seed: u64) -> Vec<EditOp> {
    let top: CellId = layout.top();
    let wires: Vec<usize> = layout
        .cell(top)
        .polygons()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.layer == tech::M2)
        .map(|(i, _)| i)
        .collect();
    assert!(
        wires.len() >= EDITS_PER_SESSION,
        "design has too few top-level M2 wires to edit"
    );
    let mut rng = SplitMix64::new(seed ^ 0x4544_4954_5345_5131);
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < EDITS_PER_SESSION {
        let index = wires[rng.below(wires.len() as u64) as usize];
        if !picked.contains(&index) {
            picked.push(index);
        }
    }
    picked
        .into_iter()
        .map(|index| {
            let old: &LayerPolygon = &layout.cell(top).polygons()[index];
            let mbr = old.polygon.mbr();
            let narrow = mbr.height() < tech::M2_WIDTH;
            let top_edge = mbr.hi().y + if narrow { 8 } else { -8 };
            EditOp::ReplacePolygon {
                cell: top,
                index,
                polygon: LayerPolygon {
                    polygon: Polygon::rect(Rect::new(mbr.lo(), Point::new(mbr.hi().x, top_edge))),
                    ..old.clone()
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_bytes() {
        let a = odrc_gdsii::write(&design(Design::Tiny, 7).library).unwrap();
        let b = odrc_gdsii::write(&design(Design::Tiny, 7).library).unwrap();
        assert_eq!(a, b);
        let c = odrc_gdsii::write(&design(Design::Tiny, 8).library).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn strip_has_one_pair_of_each_kind_at_least() {
        for seed in 1..20 {
            let input = design(Design::Tiny, seed);
            let n = input.truth.m1_space;
            assert!((1..=Design::Tiny.strip_pairs() - 2).contains(&n), "{n}");
            let top = input.library.structures.last().unwrap();
            let strip_refs = top
                .elements
                .iter()
                .filter(|e| matches!(e, Element::Ref(r) if r.sname == STRIP_CELL))
                .count();
            assert_eq!(strip_refs, 2 * Design::Tiny.strip_pairs());
        }
    }

    #[test]
    fn strip_answer_is_what_the_engine_reports() {
        let input = design(Design::Tiny, 3);
        let layout = Layout::from_library(&input.library).unwrap();
        let deck = odrc::parse_deck(&one_rule_deck("M1.S.1")).unwrap();
        let report = odrc::Engine::sequential().check(&layout, &deck);
        assert_eq!(report.violations.len(), input.truth.m1_space);
    }

    #[test]
    fn deck_has_the_twelve_rules() {
        let deck = odrc::parse_deck(&deck_text()).unwrap();
        assert_eq!(deck.rules().len(), 12);
        assert_eq!(one_rule_deck("V1.M1.EN.1").lines().count(), 1);
    }

    #[test]
    fn edits_are_deterministic_and_apply() {
        let input = design(Design::Tiny, 5);
        let mut layout = Layout::from_library(&input.library).unwrap();
        let a = session_edits(&layout, 5);
        let b = session_edits(&layout, 5);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.len(), EDITS_PER_SESSION);
        let deck = odrc::parse_deck(&one_rule_deck("M2.W.1")).unwrap();
        let engine = odrc::Engine::sequential();
        let mut before = engine.check(&layout, &deck).violations.len();
        for op in a {
            let EditOp::ReplacePolygon {
                cell,
                index,
                polygon,
            } = op
            else {
                panic!("only polygon edits are generated");
            };
            layout.replace_polygon(cell, index, polygon).unwrap();
            let after = engine.check(&layout, &deck).violations.len();
            assert_eq!(after.abs_diff(before), 1, "every edit changes the report");
            before = after;
        }
    }
}
