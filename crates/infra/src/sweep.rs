//! The MBR overlap sweepline of §IV-D (Fig. 3).
//!
//! > "The sweepline algorithm moves a conceptual line across the plane
//! > from top to bottom, which scans through the top and bottom sides of
//! > all MBRs in descending y. When the top side of an MBR `m` is
//! > encountered, the corresponding horizontal interval is inserted into
//! > the interval tree, and a query to the interval tree reports all the
//! > MBRs overlapping with `m`. When the bottom side of `m` is
//! > encountered, the horizontal interval is removed from the interval
//! > tree."
//!
//! The engine finds a row's candidate pairs with [`scan_overlaps`]
//! instead: the rectangles sorted by left edge against a short active
//! list of those still reaching the current one. Inter-layer rules
//! (enclosure, overlap area) find their candidates through the row
//! partition ([`crate::partition::row_join_on`]). This module's tests
//! check the join against a brute-force reference; the sweepline and
//! the scan are checked in `odrc-bench`, against the reference
//! structures the ablations time them with.

use odrc_geometry::{Coord, Rect};

use crate::interval_tree::IntervalTree;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Top side: insert the MBR's x-interval. Processed before removals
    /// at the same y so that rectangles touching edge-to-edge are
    /// reported (closed-rectangle overlap semantics).
    Insert,
    /// Bottom side: remove the x-interval.
    Remove,
}

/// Reports every unordered pair of overlapping rectangles via `report`,
/// with the first index smaller than the second.
///
/// Touching rectangles count as overlapping, matching the closed MBR
/// semantics used by the check pruning (rule-inflated MBRs that touch
/// can still harbour a violation).
///
/// # Examples
///
/// ```
/// use odrc_geometry::Rect;
/// use odrc_infra::sweep::sweep_overlaps;
///
/// let rects = [
///     Rect::from_coords(0, 0, 10, 10),
///     Rect::from_coords(5, 5, 20, 20),
///     Rect::from_coords(100, 100, 110, 110),
/// ];
/// let mut pairs = Vec::new();
/// sweep_overlaps(&rects, |a, b| pairs.push((a, b)));
/// assert_eq!(pairs, vec![(0, 1)]);
/// ```
pub fn sweep_overlaps<F: FnMut(usize, usize)>(rects: &[Rect], mut report: F) {
    // Event list: (y, kind, rect index), descending y, inserts first.
    let mut events: Vec<(Coord, EventKind, usize)> = Vec::with_capacity(rects.len() * 2);
    let mut domain: Vec<Coord> = Vec::with_capacity(rects.len() * 2);
    for (i, r) in rects.iter().enumerate() {
        events.push((r.hi().y, EventKind::Insert, i));
        events.push((r.lo().y, EventKind::Remove, i));
        domain.push(r.lo().x);
        domain.push(r.hi().x);
    }
    events.sort_unstable_by(|a, b| {
        b.0.cmp(&a.0).then_with(|| {
            // Inserts before removes at equal y.
            let rank = |k: EventKind| match k {
                EventKind::Insert => 0,
                EventKind::Remove => 1,
            };
            rank(a.1).cmp(&rank(b.1))
        })
    });

    let mut tree: IntervalTree<usize> = IntervalTree::with_domain(domain);
    for (_, kind, i) in events {
        let x = rects[i].x_range();
        match kind {
            EventKind::Insert => {
                tree.query_into(x, &mut |&j| {
                    let (a, b) = if i < j { (i, j) } else { (j, i) };
                    report(a, b);
                });
                tree.insert(x, i);
            }
            EventKind::Remove => {
                tree.remove(x, &i);
            }
        }
    }
}

/// Reports every unordered pair of overlapping rectangles via `report`,
/// with the first index smaller than the second — the contract of
/// [`sweep_overlaps`] — and returns the number of active-list
/// comparisons the scan made.
///
/// The rectangles are visited in `(left edge, index)` order. An active
/// list holds the visited ones whose right edge still reaches the
/// current left edge; each of them overlaps the current rectangle in x,
/// so one y-overlap test per entry decides the pair. On rows of
/// standard cells the list stays short and the count is close to the
/// number of pairs reported.
///
/// # Examples
///
/// ```
/// use odrc_geometry::Rect;
/// use odrc_infra::sweep::scan_overlaps;
///
/// let rects = [
///     Rect::from_coords(0, 0, 10, 10),
///     Rect::from_coords(5, 20, 15, 30),  // x-overlaps 0, y-disjoint
///     Rect::from_coords(10, 10, 20, 20), // touches 0 at a corner, 1 along an edge
/// ];
/// let mut pairs = Vec::new();
/// let scanned = scan_overlaps(&rects, |a, b| pairs.push((a, b)));
/// assert_eq!(pairs, vec![(0, 2), (1, 2)]);
/// assert_eq!(scanned, 3);
/// ```
pub fn scan_overlaps<F: FnMut(usize, usize)>(rects: &[Rect], mut report: F) -> u64 {
    let mut order: Vec<(Rect, usize)> = rects.iter().copied().zip(0..).collect();
    order.sort_unstable_by_key(|&(r, i)| (r.lo().x, i));
    let mut active: Vec<(Rect, usize)> = Vec::new();
    let mut scanned = 0;
    for (r, i) in order {
        active.retain(|&(a, j)| {
            if a.hi().x < r.lo().x {
                return false;
            }
            scanned += 1;
            if a.y_range().overlaps(r.y_range()) {
                report(j.min(i), j.max(i));
            }
            true
        });
        active.push((r, i));
    }
    scanned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostExecutor;
    use crate::partition::{row_join_on, RowJoin, JOIN_CHUNK};
    use proptest::prelude::*;

    fn r(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Rect {
        Rect::from_coords(x0, y0, x1, y1)
    }

    /// `(inner, outer)` overlap pairs by exhaustive comparison.
    fn brute_force_join(inner: &[Rect], outer: &[Rect]) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for (i, a) in inner.iter().enumerate() {
            for (o, b) in outer.iter().enumerate() {
                if a.overlaps(*b) {
                    pairs.push((i, o));
                }
            }
        }
        pairs
    }

    /// [`row_join_on`] over two rectangle slices.
    fn rect_join(inner: &[Rect], outer: &[Rect], host: &HostExecutor) -> RowJoin {
        row_join_on(inner, |&w| w, outer, |&m| m, host)
    }

    /// The row join's `(inner, outer)` pairs, flattened in hit-list
    /// order (so an unsorted list fails a comparison with the reference),
    /// after checking that 1 and 3 threads agree on hits and scan count.
    fn join_pairs(inner: &[Rect], outer: &[Rect]) -> Vec<(usize, usize)> {
        let join = rect_join(inner, outer, &HostExecutor::new(1));
        let wide = rect_join(inner, outer, &HostExecutor::new(3));
        assert_eq!(
            join,
            RowJoin {
                busy: join.busy,
                ..wide
            }
        );
        if !inner.is_empty() {
            assert_eq!(join.offsets.len(), inner.len() + 1);
        }
        let pairs: Vec<(usize, usize)> = (0..inner.len())
            .flat_map(|i| join.hits_of(i).iter().map(move |&o| (i, o as usize)))
            .collect();
        assert!(join.scanned >= pairs.len() as u64);
        pairs
    }

    #[test]
    fn join_with_an_empty_side_reports_nothing() {
        let some = [r(0, 0, 5, 5)];
        assert!(join_pairs(&[], &some).is_empty());
        assert!(join_pairs(&some, &[]).is_empty());
        let join = rect_join(&some, &[], &HostExecutor::new(1));
        assert_eq!((join.hits, join.offsets), (vec![], vec![0, 0]));
        assert_eq!(join.scanned, 0);
    }

    #[test]
    fn join_never_pairs_one_side_with_itself() {
        // Three identical inners and two identical outers: 3 x 2 cross
        // pairs, none of the 3 + 1 same-side ones.
        let inner = [r(0, 0, 5, 5); 3];
        let outer = [r(0, 0, 5, 5); 2];
        assert_eq!(join_pairs(&inner, &outer), brute_force_join(&inner, &outer));
        assert_eq!(join_pairs(&inner, &outer).len(), 6);
    }

    #[test]
    fn join_counts_touching_and_degenerate_rects() {
        let inner = [r(0, 0, 5, 5), r(7, 7, 7, 7), r(20, 0, 20, 9)];
        let outer = [
            r(5, 0, 10, 5),  // edge touch with inner 0
            r(5, 5, 7, 7),   // corner touch with inner 0, contains point inner 1
            r(0, 5, 5, 5),   // zero-height segment on inner 0's top edge
            r(20, 9, 30, 9), // zero-area segments meeting at one point
        ];
        let expected = vec![(0, 0), (0, 1), (0, 2), (1, 1), (2, 3)];
        assert_eq!(brute_force_join(&inner, &outer), expected);
        assert_eq!(join_pairs(&inner, &outer), expected);
    }

    #[test]
    fn row_join_handles_inners_straddling_two_rows() {
        // Two rows of outers ([0, 10] and [20, 30] in y). Inners cross
        // the gap, touch a row's bottom or top edge, or sit in the gap.
        let outer: Vec<Rect> = (0..2)
            .flat_map(|row| (0..5).map(move |k| r(k * 10, row * 20, k * 10 + 6, row * 20 + 10)))
            .collect();
        let inner = [
            r(2, 5, 4, 25),    // straddles both rows
            r(5, 8, 12, 22),   // straddles both rows, between two columns
            r(30, 10, 32, 20), // touches row 0's top and row 1's bottom
            r(0, 12, 50, 18),  // in the gap: no hit
            r(-5, -5, 60, 40), // covers everything
        ];
        let expected = brute_force_join(&inner, &outer);
        assert_eq!(join_pairs(&inner, &outer), expected);
        assert_eq!(expected.iter().filter(|&&(i, _)| i == 2).count(), 2);
        assert!(expected.iter().all(|&(i, _)| i != 3));
    }

    #[test]
    fn row_join_handles_a_row_spanning_first_member() {
        // The row's first member spans it, so the running maximum of
        // right edges reaches every window's left edge at position 0 and
        // each query scans from the row start: the join's worst case.
        let mut outer = vec![r(0, 0, 1000, 10)];
        outer.extend((0..10).map(|k| r(k * 100, 2, k * 100 + 5, 8)));
        let inner: Vec<Rect> = (0..10).map(|k| r(k * 100 + 1, 4, k * 100 + 3, 6)).collect();
        let expected = brute_force_join(&inner, &outer);
        assert_eq!(join_pairs(&inner, &outer), expected);
        assert_eq!(expected.len(), 20);
        // Window k examines the spanning wire and the k + 1 members that
        // start left of its right edge.
        let join = rect_join(&inner, &outer, &HostExecutor::new(1));
        assert_eq!(join.scanned, (0..10).map(|k| k + 2).sum::<u64>());
    }

    #[test]
    fn row_join_scans_only_outers_meeting_the_inner_bounding_box() {
        // The inners' bounding box is (0, 0)-(30, 10). Outer 5 reaches
        // y = 40, so the kept outers form one row over [0, 40]; outers
        // 0, 2, 4 and 6 lie outside the box, 0, 2 and 6 inside that
        // row's y-range. They are filtered before the row partition, so
        // no window scans them: unfiltered, the row would sort as
        // 0, 6, 1, 3, 5, 2 and the windows would scan 2 + 4 members.
        let inner = [r(0, 0, 10, 10), r(20, 0, 30, 10)];
        let outer = [
            r(-50, 0, -40, 10), // left of the box, inside the row
            r(5, 2, 8, 8),      // hits inner 0
            r(40, 0, 60, 10),   // right of the box, inside the row
            r(12, 0, 18, 10),   // between the inners: scanned by neither
            r(-20, -5, 35, -1), // below the box
            r(25, 5, 45, 40),   // hits inner 1, stretches the row to 40
            r(0, 20, 30, 25),   // above the box, inside the row
        ];
        assert_eq!(join_pairs(&inner, &outer), vec![(0, 1), (1, 5)]);
        assert_eq!(join_pairs(&inner, &outer), brute_force_join(&inner, &outer));
        let join = rect_join(&inner, &outer, &HostExecutor::new(1));
        assert_eq!((join.hits, join.offsets), (vec![1, 5], vec![0, 1, 2]));
        // Inner 0 scans outer 1 and stops at 3; inner 1 starts past 3
        // (the running maximum 18 ends left of it) and scans 5.
        assert_eq!(join.scanned, 2);
    }

    #[test]
    fn row_join_chunking_depends_on_input_size_only() {
        // More inners than one chunk holds: the fan-out is the same task
        // count on any executor, and so is the result.
        let inner: Vec<Rect> = (0..(JOIN_CHUNK as Coord * 2 + 10))
            .map(|k| {
                r(
                    k % 100 * 10,
                    k / 100 * 10,
                    k % 100 * 10 + 4,
                    k / 100 * 10 + 4,
                )
            })
            .collect();
        let outer: Vec<Rect> = (0..200)
            .map(|k| r(0, k * 10 + 2, 1000, k * 10 + 3))
            .collect();
        let serial = HostExecutor::new(1);
        let wide = HostExecutor::new(4);
        let a = rect_join(&inner, &outer, &serial);
        let b = rect_join(&inner, &outer, &wide);
        assert_eq!(a, RowJoin { busy: a.busy, ..b });
        // The row build does not fan out; the queries run as three
        // chunks.
        assert_eq!(serial.tasks(), 3);
        assert_eq!(wide.tasks(), 3);
        assert_eq!(a.hits.len(), inner.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn join_matches_brute_force(
            inner in proptest::collection::vec(
                (-20i32..20, -20i32..20, 0i32..8, 0i32..8), 0..60),
            outer in proptest::collection::vec(
                (-20i32..20, -20i32..20, 0i32..24, 0i32..48), 0..60),
        ) {
            // A 5-unit grid makes touching edges common, zero widths and
            // heights give degenerate rects, and the tall outer ranges
            // merge rows and give members spanning them.
            let rect = |&(x, y, w, h): &(i32, i32, i32, i32)| {
                r(5 * x, 5 * y, 5 * (x + w), 5 * (y + h))
            };
            let inner: Vec<Rect> = inner.iter().map(rect).collect();
            let outer: Vec<Rect> = outer.iter().map(rect).collect();
            prop_assert_eq!(join_pairs(&inner, &outer), brute_force_join(&inner, &outer));
        }
    }
}
