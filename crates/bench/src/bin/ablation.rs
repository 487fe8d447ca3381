//! Ablation studies for the design choices the paper (and DESIGN.md)
//! call out:
//!
//! (a) pigeonhole vs sort-based interval merging (§IV-B argues the
//!     `Θ(k + N)` array wins when `k ≫ N`),
//! (b) hierarchical check-result reuse on/off (§IV-C),
//! (c) adaptive row partition on/off (§IV-B),
//! (d) brute-force vs sweepline parallel executor threshold (§IV-E),
//! (e) interval-tree sweepline vs quadratic overlap enumeration
//!     (§IV-D),
//! (h) interval-tree sweepline vs R-tree vs x-sorted scan for row pair discovery.

use std::time::Instant;

use odrc::{Engine, EngineOptions};
use odrc_bench::merge::{merge_pigeonhole, merge_sorted};
use odrc_bench::sweep::{brute_force_overlap_pairs, sweep_overlap_pairs};
use odrc_bench::{load_designs, no_partition, no_pruning, parse_args, space_rules};
use odrc_geometry::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

fn main() {
    let (filter, _repeat) = parse_args();

    // (a) Interval merging: k intervals over a domain of N unique
    // coordinates, k >> N as in row partitioning.
    println!("\n=== Ablation (a): interval merging, k intervals over N-coordinate domain ===");
    println!(
        "{:>10} {:>8} {:>14} {:>14}",
        "k", "N", "pigeonhole(s)", "sorted(s)"
    );
    let mut rng = StdRng::seed_from_u64(7);
    for &(k, n) in &[
        (10_000usize, 64usize),
        (100_000, 64),
        (1_000_000, 64),
        (1_000_000, 4096),
    ] {
        let intervals: Vec<(usize, usize)> = (0..k)
            .map(|_| {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(a..n);
                (a, b)
            })
            .collect();
        let (tp, mp) = time(|| merge_pigeonhole(n, intervals.iter().copied()));
        let (ts, ms) = time(|| merge_sorted(intervals.clone()));
        assert_eq!(mp, ms, "merge variants disagree");
        println!("{k:>10} {n:>8} {tp:>14.4} {ts:>14.4}");
    }

    // (e) Overlap reporting: sweepline vs quadratic.
    println!("\n=== Ablation (e): MBR overlap reporting ===");
    println!(
        "{:>10} {:>14} {:>14} {:>10}",
        "rects", "sweepline(s)", "quadratic(s)", "pairs"
    );
    for &n in &[500usize, 2000, 8000] {
        let rects: Vec<Rect> = (0..n)
            .map(|_| {
                let x = rng.gen_range(-10_000..10_000);
                let y = rng.gen_range(-10_000..10_000);
                Rect::from_coords(x, y, x + rng.gen_range(1..200), y + rng.gen_range(1..200))
            })
            .collect();
        let (t1, p1) = time(|| sweep_overlap_pairs(&rects));
        let (t2, p2) = time(|| brute_force_overlap_pairs(&rects));
        assert_eq!(p1, p2);
        println!("{n:>10} {t1:>14.4} {t2:>14.4} {:>10}", p1.len());
    }

    // (f) Baseline strength: the as-drawn flat checker vs the
    // merged-region variant (closer to real KLayout's region engine).
    // The gap shows how much region machinery the paper's KLayout
    // numbers include that our stronger baseline does not.
    {
        use odrc_baselines::{Checker, FlatChecker};
        println!("\n=== Ablation (f): flat baseline, as-drawn vs merged regions ===");
        println!(
            "{:<10} {:<10} {:>12} {:>12}",
            "design", "rule", "as-drawn(s)", "merged(s)"
        );
        let designs = odrc_bench::load_designs(Some("uart,ibex"));
        for d in &designs {
            for r in &space_rules() {
                let (t_plain, a) = time(|| FlatChecker::new().check(&d.layout, &r.deck));
                let (t_merged, b) = time(|| FlatChecker::with_merge().check(&d.layout, &r.deck));
                assert_eq!(
                    a.violations, b.violations,
                    "disjoint layouts: merge must not change results"
                );
                println!(
                    "{:<10} {:<10} {t_plain:>12.4} {t_merged:>12.4}",
                    d.name, r.name
                );
            }
        }
    }

    // (h) Row pair discovery: §IV-D's interval-tree sweepline vs the
    // R-tree vs the x-sorted scan, over each M1 partition row's
    // rule-inflated object MBRs — exactly the rectangle sets both
    // engine modes' spacing rows hand to pair discovery.
    {
        use odrc::scene::LayerScene;
        use odrc_bench::rtree::rtree_overlaps;
        use odrc_infra::partition::partition_rows;
        use odrc_infra::sweep::{scan_overlaps, sweep_overlaps};
        use odrc_layoutgen::tech;
        println!(
            "\n=== Ablation (h): M1 row pair discovery, sweepline vs R-tree vs scan (the engine uses the scan) ==="
        );
        println!(
            "{:<10} {:>8} {:>10} {:>14} {:>12} {:>10}",
            "design", "rows", "pairs", "sweepline(s)", "rtree(s)", "scan(s)"
        );
        let half = ((tech::M1_SPACE + 1) / 2) as odrc_geometry::Coord;
        for d in &load_designs(Some("ibex,aes")) {
            let host = odrc_infra::HostExecutor::new(1);
            let scene = LayerScene::build_on(&d.layout, tech::M1, None, &host);
            let mbrs: Vec<Rect> = scene.objects.iter().map(|o| o.mbr).collect();
            let rows: Vec<Vec<Rect>> = partition_rows(&mbrs, half)
                .iter()
                .map(|row| row.members.iter().map(|&m| mbrs[m].inflate(half)).collect())
                .collect();
            let (t_sw, p_sw) = time(|| {
                let mut pairs = 0usize;
                for row in &rows {
                    sweep_overlaps(row, |_, _| pairs += 1);
                }
                pairs
            });
            let (t_rt, p_rt) = time(|| {
                let mut pairs = 0usize;
                for row in &rows {
                    rtree_overlaps(row, |_, _| pairs += 1);
                }
                pairs
            });
            let (t_sc, p_sc) = time(|| {
                let mut pairs = 0usize;
                for row in &rows {
                    scan_overlaps(row, |_, _| pairs += 1);
                }
                pairs
            });
            assert_eq!(p_sw, p_rt, "pair-discovery structures disagree");
            assert_eq!(p_sw, p_sc, "pair-discovery structures disagree");
            println!(
                "{:<10} {:>8} {p_sw:>10} {t_sw:>14.4} {t_rt:>12.4} {t_sc:>10.4}",
                d.name,
                rows.len()
            );
        }
    }

    // (b)-(d): engine ablations on the benchmark designs.
    let designs = load_designs(filter.as_deref());
    println!("\n=== Ablations (b)-(d): engine options on sequential/parallel space checks ===");
    println!(
        "{:<10} {:<10} {:>10} {:>12} {:>12} {:>11} {:>11}",
        "design", "rule", "seq(s)", "no-prune(s)", "no-part(s)", "par-sw(s)", "par-bf(s)"
    );
    for d in &designs {
        for r in &space_rules() {
            let (t_base, base) = time(|| Engine::sequential().check(&d.layout, &r.deck));
            let (t_noprune, a) = time(|| {
                Engine::sequential()
                    .with_options(no_pruning())
                    .check(&d.layout, &r.deck)
            });
            let (t_nopart, b) = time(|| {
                Engine::sequential()
                    .with_options(no_partition())
                    .check(&d.layout, &r.deck)
            });
            let (t_sw, c) = time(|| {
                Engine::parallel()
                    .with_options(EngineOptions {
                        sweep_threshold: 0,
                        ..EngineOptions::default()
                    })
                    .check(&d.layout, &r.deck)
            });
            let (t_bf, e) = time(|| {
                Engine::parallel()
                    .with_options(EngineOptions {
                        sweep_threshold: usize::MAX,
                        ..EngineOptions::default()
                    })
                    .check(&d.layout, &r.deck)
            });
            for other in [&a, &b, &c, &e] {
                assert_eq!(
                    base.violations, other.violations,
                    "ablation changed results"
                );
            }
            println!(
                "{:<10} {:<10} {:>10.4} {:>12.4} {:>12.4} {:>11.4} {:>11.4}",
                d.name, r.name, t_base, t_noprune, t_nopart, t_sw, t_bf
            );
        }
    }
}
