//! The engine's row partition and row pair discovery against the
//! ablations' reference structures: `partition_rows` against Algorithm
//! 1's pigeonhole merge, and `scan_overlaps` against the quadratic
//! enumeration and the R-tree.

use odrc_bench::merge::merge_pigeonhole;
use odrc_bench::rtree::rtree_overlaps;
use odrc_bench::sweep::brute_force_overlap_pairs;
use odrc_geometry::{Coord, Interval, Rect};
use odrc_infra::partition::{partition_rows, Row, RowPartition};
use odrc_infra::sweep::scan_overlaps;
use proptest::prelude::*;

fn r(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Rect {
    Rect::from_coords(x0, y0, x1, y1)
}

/// The partition as Algorithm 1 builds it: discretize the inflated
/// y-coordinates, merge with the pigeonhole array, and assign every
/// extent to the merged interval containing it, in index order.
fn pigeonhole_reference(mbrs: &[Rect], expand: Coord) -> RowPartition {
    let extents: Vec<Interval> = mbrs.iter().map(|m| m.y_range().inflate(expand)).collect();
    let mut coords: Vec<Coord> = extents.iter().flat_map(|e| [e.lo(), e.hi()]).collect();
    coords.sort_unstable();
    coords.dedup();
    let index_of = |c: Coord| coords.binary_search(&c).expect("collected above");
    let merged = merge_pigeonhole(
        coords.len(),
        extents.iter().map(|e| (index_of(e.lo()), index_of(e.hi()))),
    );
    let mut rows: Vec<Row> = merged
        .into_iter()
        .map(|(l, h)| Row {
            y: Interval::new(coords[l], coords[h]),
            members: Vec::new(),
        })
        .collect();
    for (i, e) in extents.iter().enumerate() {
        let row = rows
            .iter_mut()
            .find(|row| row.y.contains(e.lo()))
            .expect("covered");
        row.members.push(i);
    }
    RowPartition::from_rows(rows)
}

/// [`scan_overlaps`]'s pairs, sorted, and its comparison count.
fn scan_pairs(rects: &[Rect]) -> (Vec<(usize, usize)>, u64) {
    let mut pairs = Vec::new();
    let scanned = scan_overlaps(rects, |a, b| {
        assert!(a < b, "pair ({a}, {b}) out of order");
        pairs.push((a, b));
    });
    pairs.sort_unstable();
    (pairs, scanned)
}

proptest! {
    #[test]
    fn sort_scan_matches_the_pigeonhole_merge(
        specs in proptest::collection::vec(
            (-40i32..40, -40i32..40, 0i32..12, 0i32..12), 0..80),
        expand in 0i32..10,
    ) {
        // A 5-unit grid makes touching extents common, and zero
        // heights give degenerate ones.
        let mbrs: Vec<Rect> = specs.iter()
            .map(|&(x, y, w, h)| r(5 * x, 5 * y, 5 * (x + w), 5 * (y + h)))
            .collect();
        prop_assert_eq!(partition_rows(&mbrs, expand), pigeonhole_reference(&mbrs, expand));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn scan_matches_brute_force_and_rtree(
        specs in proptest::collection::vec(
            (-20i32..20, -4i32..4, 0i32..6, 0i32..4), 0..80),
        long in proptest::collection::vec((-20i32..20, -4i32..4, 0i32..2), 0..4),
        dups in proptest::collection::vec(0usize..80, 0..8),
    ) {
        // A 5-unit grid makes touching edges common, zero widths and
        // heights give degenerate rects, the long ones span the whole
        // row, and duplicated entries give identical rects.
        let mut rects: Vec<Rect> = specs.iter()
            .map(|&(x, y, w, h)| r(5 * x, 5 * y, 5 * (x + w), 5 * (y + h)))
            .collect();
        rects.extend(long.iter().map(|&(x, y, h)| r(5 * x, 5 * y, 5 * (x + 60), 5 * (y + h))));
        for d in dups {
            if let Some(&dup) = rects.get(d) {
                rects.push(dup);
            }
        }
        let (pairs, scanned) = scan_pairs(&rects);
        let mut rtree = Vec::new();
        rtree_overlaps(&rects, |a, b| rtree.push((a, b)));
        rtree.sort_unstable();
        prop_assert_eq!(&pairs, &brute_force_overlap_pairs(&rects));
        prop_assert_eq!(&pairs, &rtree);
        // One comparison per x-overlapping pair: the reported pairs
        // and the y-disjoint ones.
        let x_overlapping = (0..rects.len())
            .flat_map(|a| (a + 1..rects.len()).map(move |b| (a, b)))
            .filter(|&(a, b)| rects[a].x_range().overlaps(rects[b].x_range()))
            .count();
        prop_assert_eq!(scanned, x_overlapping as u64);
    }
}
