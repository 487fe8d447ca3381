//! Quickstart: the paper's Listing 1 workflow.
//!
//! Reads a GDSII layout, defines a small rule deck with the chaining
//! selector/predicate interface, and runs the checks.
//!
//! ```text
//! cargo run -p odrc-bench --release --example quickstart
//! ```

use odrc::{rule, Engine, RuleDeck};
use odrc_db::Layout;
use odrc_layoutgen::{generate, tech, DesignSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // In a real flow the source would be `std::fs::File::open("chip.gds")?`.
    // Here we synthesize a small benchmark design and load it back from
    // its GDSII stream bytes to exercise the same interface.
    let design = generate(&DesignSpec::tiny(2024));
    let bytes = odrc_gdsii::write(&design.library)?;
    let layout = Layout::from_gds(&bytes[..])?;
    println!("loaded {} bytes of GDSII:\n{}", bytes.len(), layout.stats());

    // The rule deck, mirroring Listing 1 of the paper:
    //   db.polygons().is_rectilinear()
    //   db.layer(19).width().greater_than(18)
    //   db.layer(20).polygons().ensures(|p| !p.name.empty())
    let mut deck = RuleDeck::default();
    deck.add_rules([
        rule().polygons().is_rectilinear(),
        rule().layer(19).width().greater_than(18).named("M1.W.1"),
        rule().layer(20).polygons().ensures("non-empty-name", |p| {
            p.name.map(|n| !n.is_empty()).unwrap_or(false)
        }),
        rule()
            .layer(tech::M2)
            .space()
            .greater_than(tech::M2_SPACE)
            .named("M2.S.1"),
    ]);

    let report = Engine::sequential().check(&layout, &deck);
    println!("\n{} violations:", report.violations.len());
    for v in report.violations.iter().take(10) {
        println!("  {v}");
    }
    if report.violations.len() > 10 {
        println!("  ... and {} more", report.violations.len() - 10);
    }

    println!("\nruntime breakdown:\n{}", report.profile);
    println!(
        "checks computed: {}, reused from hierarchy: {}",
        report.stats.checks_computed, report.stats.checks_reused
    );
    Ok(())
}
