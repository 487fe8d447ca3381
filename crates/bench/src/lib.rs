//! Benchmark harness regenerating the OpenDRC paper's evaluation
//! (§VI): Table I (intra-polygon checks), Table II (inter-polygon
//! checks), Fig. 4 (sequential runtime breakdown), and the ablation
//! studies DESIGN.md calls out.
//!
//! Run the binaries in release mode:
//!
//! ```text
//! cargo run -p odrc-bench --release --bin table1
//! cargo run -p odrc-bench --release --bin table2
//! cargo run -p odrc-bench --release --bin fig4
//! cargo run -p odrc-bench --release --bin ablation
//! ```
//!
//! Each binary accepts `--designs a,b,c` to restrict the design set and
//! `--repeat N` to average over `N` timed runs (default 1 after one
//! warm-up for the smallest design only, to bound total runtime).
//!
//! The ablations time the engine's infrastructure against reference
//! structures it does not run on, kept here beside them:
//!
//! * [`merge`] — Algorithm 1's pigeonhole interval merge and its
//!   sort-based alternative (§IV-B), ablation (a);
//! * [`sweep`] — the sweepline's pairs collected into a vector, and the
//!   quadratic enumeration, ablation (e);
//! * [`rtree`] — an STR-bulk-loaded R-tree and its overlap-pair
//!   enumeration, ablation (h).
//!
//! The crate's `tests/oracles.rs` checks the engine's row partition and
//! row pair discovery against them.

#![forbid(unsafe_code)]

pub mod merge;
pub mod rtree;
pub mod sweep;

use std::time::{Duration, Instant};

use odrc::{rule, Engine, EngineOptions, RuleDeck};
use odrc_baselines::{Checker, DeepChecker, FlatChecker, TilingChecker, XCheck};
use odrc_db::Layout;
use odrc_layoutgen::{generate_layout, tech, DesignSpec};
use odrc_xpu::Device;

/// A benchmark design: name plus imported layout.
pub struct BenchDesign {
    /// Design name (aes, ethmac, ibex, jpeg, sha3, uart).
    pub name: String,
    /// The generated layout.
    pub layout: Layout,
}

/// Generates the paper's six designs, optionally filtered to a
/// comma-separated subset.
pub fn load_designs(filter: Option<&str>) -> Vec<BenchDesign> {
    DesignSpec::all_paper()
        .into_iter()
        .filter(|s| match filter {
            Some(f) => f.split(',').any(|n| n.trim() == s.name),
            None => true,
        })
        .map(|spec| BenchDesign {
            name: spec.name.clone(),
            layout: generate_layout(&spec),
        })
        .collect()
}

/// Parses `--designs` / `--repeat` from `std::env::args`.
pub fn parse_args() -> (Option<String>, usize) {
    let args: Vec<String> = std::env::args().collect();
    let mut designs = None;
    let mut repeat = 1usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--designs" if i + 1 < args.len() => {
                designs = Some(args[i + 1].clone());
                i += 2;
            }
            "--repeat" if i + 1 < args.len() => {
                repeat = args[i + 1].parse().unwrap_or(1).max(1);
                i += 2;
            }
            other => {
                eprintln!("ignoring unknown argument '{other}'");
                i += 1;
            }
        }
    }
    (designs, repeat)
}

/// A named single-rule deck: the tables time one rule at a time, as the
/// paper does.
pub struct NamedRule {
    /// Paper-style rule name (e.g. `"M2.S.1"`).
    pub name: String,
    /// A deck holding just this rule.
    pub deck: RuleDeck,
}

fn named(name: &str, r: odrc::Rule) -> NamedRule {
    NamedRule {
        name: name.to_owned(),
        deck: RuleDeck::new(vec![r.named(name)]),
    }
}

/// Table I rules: intra-polygon width and area checks.
pub fn intra_rules() -> Vec<NamedRule> {
    vec![
        named(
            "M1.W.1",
            rule().layer(tech::M1).width().greater_than(tech::M1_WIDTH),
        ),
        named(
            "M2.W.1",
            rule().layer(tech::M2).width().greater_than(tech::M2_WIDTH),
        ),
        named(
            "M3.W.1",
            rule().layer(tech::M3).width().greater_than(tech::M3_WIDTH),
        ),
        named(
            "M1.A.1",
            rule().layer(tech::M1).area().greater_than(tech::M1_AREA),
        ),
    ]
}

/// Table II spacing rules.
pub fn space_rules() -> Vec<NamedRule> {
    vec![
        named(
            "M1.S.1",
            rule().layer(tech::M1).space().greater_than(tech::M1_SPACE),
        ),
        named(
            "M2.S.1",
            rule().layer(tech::M2).space().greater_than(tech::M2_SPACE),
        ),
        named(
            "M3.S.1",
            rule().layer(tech::M3).space().greater_than(tech::M3_SPACE),
        ),
    ]
}

/// Table II enclosure rules.
pub fn enclosure_rules() -> Vec<NamedRule> {
    vec![
        named(
            "V1.M1.EN.1",
            rule()
                .layer(tech::V1)
                .enclosed_by(tech::M1)
                .greater_than(tech::V1_M1_ENCLOSURE),
        ),
        named(
            "V2.M2.EN.1",
            rule()
                .layer(tech::V2)
                .enclosed_by(tech::M2)
                .greater_than(tech::V2_M2_ENCLOSURE),
        ),
        named(
            "V2.M3.EN.1",
            rule()
                .layer(tech::V2)
                .enclosed_by(tech::M3)
                .greater_than(tech::V2_M3_ENCLOSURE),
        ),
    ]
}

/// The checkers compared in the tables, in column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contender {
    /// KLayout flat mode.
    KFlat,
    /// KLayout deep (hierarchy) mode.
    KDeep,
    /// KLayout tiling mode (multi-threaded).
    KTile,
    /// X-Check (GPU, flat).
    XCheck,
    /// OpenDRC sequential mode.
    Seq,
    /// OpenDRC parallel mode.
    Par,
}

impl Contender {
    /// All contenders in the tables' column order.
    pub const ALL: [Contender; 6] = [
        Contender::KFlat,
        Contender::KDeep,
        Contender::KTile,
        Contender::XCheck,
        Contender::Seq,
        Contender::Par,
    ];

    /// Column header.
    pub fn label(self) -> &'static str {
        match self {
            Contender::KFlat => "KL-flat",
            Contender::KDeep => "KL-deep",
            Contender::KTile => "KL-tile",
            Contender::XCheck => "X-Check",
            Contender::Seq => "ODRC-seq",
            Contender::Par => "ODRC-par",
        }
    }
}

/// Outcome of one timed run.
#[derive(Debug, Clone, Copy)]
pub enum Cell {
    /// Runtime and violation count.
    Time(Duration, usize),
    /// The checker does not support the rule (X-Check × area).
    Unsupported,
}

impl Cell {
    /// Render for the table.
    pub fn render(self) -> String {
        match self {
            Cell::Time(d, _) => format!("{:8.3}", d.as_secs_f64()),
            Cell::Unsupported => format!("{:>8}", "-"),
        }
    }
}

/// Runs one contender on one deck, `repeat` times, returning the mean.
pub fn run_timed(c: Contender, layout: &Layout, deck: &RuleDeck, repeat: usize) -> Cell {
    let mut total = Duration::ZERO;
    let mut violations = 0usize;
    for _ in 0..repeat.max(1) {
        let start = Instant::now();
        match c {
            Contender::KFlat => {
                let r = FlatChecker::new().check(layout, deck);
                violations = r.violations.len();
            }
            Contender::KDeep => {
                let r = DeepChecker::new().check(layout, deck);
                violations = r.violations.len();
            }
            Contender::KTile => {
                let r = TilingChecker::default().check(layout, deck);
                violations = r.violations.len();
            }
            Contender::XCheck => {
                let r = XCheck::new(Device::default()).check(layout, deck);
                if !r.skipped.is_empty() {
                    return Cell::Unsupported;
                }
                violations = r.violations.len();
            }
            Contender::Seq => {
                let r = Engine::sequential().check(layout, deck);
                violations = r.violations.len();
            }
            Contender::Par => {
                let r = Engine::parallel().check(layout, deck);
                violations = r.violations.len();
            }
        }
        total += start.elapsed();
    }
    Cell::Time(total / repeat.max(1) as u32, violations)
}

/// Geometric mean of positive durations, in seconds.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-9).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Prints a paper-style table: one row per (design, rule), one column
/// per contender, then a normalized geometric-mean row ("the runtime is
/// the geometric mean of the column ... normalized against the parallel
/// mode of OpenDRC").
pub fn print_table(
    title: &str,
    designs: &[BenchDesign],
    rules: &[NamedRule],
    contenders: &[Contender],
    repeat: usize,
) {
    println!("\n=== {title} ===");
    print!("{:<10} {:<12}", "design", "rule");
    for c in contenders {
        print!(" {:>9}", c.label());
    }
    println!(" {:>8}", "#viol");

    let mut per_contender: Vec<Vec<f64>> = vec![Vec::new(); contenders.len()];
    for d in designs {
        for r in &rules_iter(rules) {
            print!("{:<10} {:<12}", d.name, r.name);
            let mut viol = None;
            for (ci, &c) in contenders.iter().enumerate() {
                let cell = run_timed(c, &d.layout, &r.deck, repeat);
                print!(" {:>9}", cell.render());
                if let Cell::Time(t, v) = cell {
                    per_contender[ci].push(t.as_secs_f64());
                    match viol {
                        None => viol = Some(v),
                        Some(prev) => assert_eq!(
                            prev, v,
                            "checkers disagree on {} {} ({prev} vs {v})",
                            d.name, r.name
                        ),
                    }
                }
            }
            println!(" {:>8}", viol.unwrap_or(0));
        }
    }

    // Normalized geometric means.
    let base = per_contender
        .last()
        .map(|xs| geomean(xs))
        .filter(|&g| g > 0.0)
        .unwrap_or(1.0);
    print!("{:<10} {:<12}", "geomean", "(norm)");
    for xs in &per_contender {
        if xs.is_empty() {
            print!(" {:>9}", "-");
        } else {
            print!(" {:>8.1}x", geomean(xs) / base);
        }
    }
    println!();
}

fn rules_iter(rules: &[NamedRule]) -> Vec<&NamedRule> {
    rules.iter().collect()
}

/// The execution-planner benchmark deck: every layer carries several
/// rules so the planner's scene memo and device-resident buffer cache
/// have sharing to exploit — width + area + unconditional and
/// conditional spacing on the metals (the two M1 spacing rules share
/// one partitioned row set), plus the via enclosures (whose outer
/// scenes are the metal scenes the spacing rules already built).
pub fn pipeline_deck() -> RuleDeck {
    RuleDeck::new(vec![
        rule()
            .layer(tech::M1)
            .width()
            .greater_than(tech::M1_WIDTH)
            .named("M1.W.1"),
        rule()
            .layer(tech::M1)
            .area()
            .greater_than(tech::M1_AREA)
            .named("M1.A.1"),
        rule()
            .layer(tech::M1)
            .space()
            .greater_than(tech::M1_SPACE)
            .named("M1.S.1"),
        rule()
            .layer(tech::M1)
            .space()
            .when_projection_at_least(tech::M1_WIDTH)
            .greater_than(tech::M1_SPACE)
            .named("M1.S.2"),
        rule()
            .layer(tech::M2)
            .width()
            .greater_than(tech::M2_WIDTH)
            .named("M2.W.1"),
        rule()
            .layer(tech::M2)
            .space()
            .greater_than(tech::M2_SPACE)
            .named("M2.S.1"),
        rule()
            .layer(tech::M3)
            .width()
            .greater_than(tech::M3_WIDTH)
            .named("M3.W.1"),
        rule()
            .layer(tech::M3)
            .space()
            .greater_than(tech::M3_SPACE)
            .named("M3.S.1"),
        rule()
            .layer(tech::V1)
            .enclosed_by(tech::M1)
            .greater_than(tech::V1_M1_ENCLOSURE)
            .named("V1.M1.EN.1"),
        rule()
            .layer(tech::V2)
            .enclosed_by(tech::M2)
            .greater_than(tech::V2_M2_ENCLOSURE)
            .named("V2.M2.EN.1"),
    ])
}

/// Engine options with pruning disabled (ablation).
pub fn no_pruning() -> EngineOptions {
    EngineOptions {
        pruning: false,
        ..EngineOptions::default()
    }
}

/// Engine options with the partition disabled (ablation).
pub fn no_partition() -> EngineOptions {
    EngineOptions {
        partition: false,
        ..EngineOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rule_sets_cover_paper() {
        assert_eq!(intra_rules().len(), 4);
        assert_eq!(space_rules().len(), 3);
        assert_eq!(enclosure_rules().len(), 3);
    }

    #[test]
    fn contender_labels_unique() {
        let labels: std::collections::HashSet<_> =
            Contender::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), Contender::ALL.len());
    }

    #[test]
    fn run_timed_smoke() {
        let designs = load_designs(Some("uart"));
        assert_eq!(designs.len(), 1);
        let r = &intra_rules()[0];
        for c in [Contender::Seq, Contender::KTile] {
            match run_timed(c, &designs[0].layout, &r.deck, 1) {
                Cell::Time(t, _) => assert!(t > Duration::ZERO),
                Cell::Unsupported => panic!("unexpected unsupported"),
            }
        }
        // X-Check on an area rule is unsupported.
        let area = &intra_rules()[3];
        assert!(matches!(
            run_timed(Contender::XCheck, &designs[0].layout, &area.deck, 1),
            Cell::Unsupported
        ));
    }
}
