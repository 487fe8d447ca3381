//! Overlap-pair references for the ablations and the tests: §IV-D's
//! sweepline ([`odrc_infra::sweep_overlaps`]) collected into a sorted
//! vector, and the quadratic enumeration it is measured and checked
//! against.

use odrc_geometry::Rect;
use odrc_infra::sweep_overlaps;

/// Convenience wrapper collecting the overlap pairs into a vector,
/// sorted lexicographically.
pub fn sweep_overlap_pairs(rects: &[Rect]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    sweep_overlaps(rects, |a, b| pairs.push((a, b)));
    pairs.sort_unstable();
    pairs
}

/// Reference `O(n²)` overlap enumeration used by tests and ablation
/// benches.
pub fn brute_force_overlap_pairs(rects: &[Rect]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for i in 0..rects.len() {
        for j in i + 1..rects.len() {
            if rects[i].overlaps(rects[j]) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrc_geometry::Coord;
    use proptest::prelude::*;

    fn r(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Rect {
        Rect::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn empty_and_single() {
        assert!(sweep_overlap_pairs(&[]).is_empty());
        assert!(sweep_overlap_pairs(&[r(0, 0, 5, 5)]).is_empty());
    }

    #[test]
    fn disjoint_rects_report_nothing() {
        let rects = [r(0, 0, 5, 5), r(10, 0, 15, 5), r(0, 10, 5, 15)];
        assert!(sweep_overlap_pairs(&rects).is_empty());
    }

    #[test]
    fn overlapping_pair_reported_once() {
        let rects = [r(0, 0, 10, 10), r(5, 5, 15, 15)];
        assert_eq!(sweep_overlap_pairs(&rects), vec![(0, 1)]);
    }

    #[test]
    fn touching_edges_count() {
        // Horizontal touch.
        assert_eq!(
            sweep_overlap_pairs(&[r(0, 0, 5, 5), r(5, 0, 10, 5)]),
            vec![(0, 1)]
        );
        // Vertical touch (same sweep y for bottom of one, top of other).
        assert_eq!(
            sweep_overlap_pairs(&[r(0, 0, 5, 5), r(0, 5, 5, 10)]),
            vec![(0, 1)]
        );
        // Corner touch.
        assert_eq!(
            sweep_overlap_pairs(&[r(0, 0, 5, 5), r(5, 5, 10, 10)]),
            vec![(0, 1)]
        );
    }

    #[test]
    fn nested_rects_overlap() {
        let rects = [r(0, 0, 100, 100), r(10, 10, 20, 20), r(30, 30, 40, 40)];
        assert_eq!(sweep_overlap_pairs(&rects), vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn identical_rects() {
        let rects = [r(0, 0, 5, 5), r(0, 0, 5, 5), r(0, 0, 5, 5)];
        assert_eq!(sweep_overlap_pairs(&rects), vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn chain_of_overlaps() {
        let rects = [r(0, 0, 10, 4), r(8, 0, 18, 4), r(16, 0, 26, 4)];
        assert_eq!(sweep_overlap_pairs(&rects), vec![(0, 1), (1, 2)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn matches_brute_force(
            specs in proptest::collection::vec(
                (-100i32..100, -100i32..100, 0i32..40, 0i32..40), 0..80),
        ) {
            let rects: Vec<Rect> = specs.iter()
                .map(|&(x, y, w, h)| r(x, y, x + w, y + h))
                .collect();
            prop_assert_eq!(sweep_overlap_pairs(&rects), brute_force_overlap_pairs(&rects));
        }
    }
}
