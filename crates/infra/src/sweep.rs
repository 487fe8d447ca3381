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
//! # The bipartite variant
//!
//! Inter-layer rules (enclosure, overlap area) only ever ask which
//! *outer* objects an *inner* shape overlaps. Sweeping both layers as
//! one rectangle set also enumerates every inner–inner and outer–outer
//! overlap — hundreds of thousands of abutting cell MBRs and long wires
//! — just to discard them. [`sweep_join`] keeps one interval tree per
//! side instead: an inserted inner queries only the active outers and
//! an inserted outer only the active inners, so same-side pairs are
//! never generated. Overlap semantics are those of [`sweep_overlaps`]
//! (closed rectangles, touching counts).
//!
//! [`sweep_join_on`] fans the join out over contiguous y-bands of the
//! inner set. The band count depends on the input size only, never on
//! the executor, and every inner shape's hit list comes back sorted by
//! outer index: discovery order inside a sweep depends on where the
//! band boundaries fall and on which side's top edge came first, so the
//! index sort is what makes the candidate order — and everything
//! derived from it — independent of banding and scheduling.

use std::cmp::Reverse;
use std::time::{Duration, Instant};

use odrc_geometry::{Coord, Rect};

use crate::host::HostExecutor;
use crate::IntervalTree;

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
/// use odrc_infra::sweep::sweep_overlap_pairs;
///
/// let rects = [
///     Rect::from_coords(0, 0, 10, 10),
///     Rect::from_coords(5, 5, 20, 20),
///     Rect::from_coords(100, 100, 110, 110),
/// ];
/// assert_eq!(sweep_overlap_pairs(&rects), vec![(0, 1)]);
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

/// Which rectangle set a [`sweep_join`] event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Side {
    Inner,
    Outer,
}

/// Reports every `(inner index, outer index)` pair of overlapping
/// rectangles exactly once — the bipartite form of [`sweep_overlaps`]:
/// same closed-rectangle semantics, but pairs within one side are never
/// enumerated. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use odrc_geometry::Rect;
/// use odrc_infra::sweep::sweep_join;
///
/// let inner = [Rect::from_coords(4, 4, 6, 6), Rect::from_coords(50, 50, 52, 52)];
/// let outer = [Rect::from_coords(0, 0, 10, 10), Rect::from_coords(6, 6, 20, 20)];
/// let mut pairs = Vec::new();
/// sweep_join(&inner, &outer, |i, o| pairs.push((i, o)));
/// pairs.sort_unstable();
/// assert_eq!(pairs, vec![(0, 0), (0, 1)]); // corner touch counts
/// ```
pub fn sweep_join<F: FnMut(usize, usize)>(inner: &[Rect], outer: &[Rect], mut report: F) {
    if inner.is_empty() || outer.is_empty() {
        return;
    }
    // Descending y, inserts before removes at equal y (touching counts);
    // the trailing (side, index) keys only make the order total.
    let mut events: Vec<(Reverse<Coord>, EventKind, Side, usize)> =
        Vec::with_capacity((inner.len() + outer.len()) * 2);
    for (side, rects) in [(Side::Inner, inner), (Side::Outer, outer)] {
        for (i, r) in rects.iter().enumerate() {
            events.push((Reverse(r.hi().y), EventKind::Insert, side, i));
            events.push((Reverse(r.lo().y), EventKind::Remove, side, i));
        }
    }
    events.sort_unstable();

    let domain = |rects: &[Rect]| rects.iter().flat_map(|r| [r.lo().x, r.hi().x]).collect();
    let mut inners: IntervalTree<usize> = IntervalTree::with_domain(domain(inner));
    let mut outers: IntervalTree<usize> = IntervalTree::with_domain(domain(outer));
    for (_, kind, side, i) in events {
        match (side, kind) {
            (Side::Inner, EventKind::Insert) => {
                let x = inner[i].x_range();
                outers.query_into(x, &mut |&o| report(i, o));
                inners.insert(x, i);
            }
            (Side::Outer, EventKind::Insert) => {
                let x = outer[i].x_range();
                inners.query_into(x, &mut |&n| report(n, i));
                outers.insert(x, i);
            }
            (Side::Inner, EventKind::Remove) => {
                inners.remove(inner[i].x_range(), &i);
            }
            (Side::Outer, EventKind::Remove) => {
                outers.remove(outer[i].x_range(), &i);
            }
        }
    }
}

/// Inner rectangles per y-band of [`sweep_join_on`].
const JOIN_BAND: usize = 8192;

/// Upper bound on the band count: an outer rectangle spanning the whole
/// extent is swept once per band, so the duplication stays bounded.
const MAX_JOIN_BANDS: usize = 64;

/// [`sweep_join`] fanned out on a host executor: returns, for every
/// inner rectangle, the indices of the outer rectangles it overlaps,
/// sorted ascending, plus the summed sweep time of all bands (what a
/// caller charges to its `sweepline` phase).
///
/// The inner set is cut into contiguous bands of descending top edge,
/// each band sweeps against the outer rectangles whose y-range meets
/// the band's, and bands run as executor tasks (inline on a one-thread
/// executor). The result is identical for any thread count and any
/// banding; see the [module docs](self).
pub fn sweep_join_on(
    inner: &[Rect],
    outer: &[Rect],
    host: &HostExecutor,
) -> (Vec<Vec<usize>>, Duration) {
    let bands = inner.len().div_ceil(JOIN_BAND).min(MAX_JOIN_BANDS);
    join_banded(inner, outer, bands, host)
}

fn join_banded(
    inner: &[Rect],
    outer: &[Rect],
    bands: usize,
    host: &HostExecutor,
) -> (Vec<Vec<usize>>, Duration) {
    let mut hits: Vec<Vec<usize>> = vec![Vec::new(); inner.len()];
    if inner.is_empty() || outer.is_empty() {
        return (hits, Duration::ZERO);
    }
    let start = Instant::now();
    let mut order: Vec<usize> = (0..inner.len()).collect();
    order.sort_unstable_by_key(|&i| (Reverse(inner[i].hi().y), i));
    let chunks: Vec<&[usize]> = order.chunks(inner.len().div_ceil(bands)).collect();

    // Band k spans [bottoms[k], tops[k]]. Tops descend with k; `floor`
    // is the running minimum of the bottoms, so both ends of the band
    // range an outer rectangle can meet are found by binary search and
    // only the bands in between are tested exactly.
    let tops: Vec<Coord> = chunks.iter().map(|c| inner[c[0]].hi().y).collect();
    let bottoms: Vec<Coord> = chunks
        .iter()
        .map(|c| c.iter().map(|&i| inner[i].lo().y).min().expect("non-empty"))
        .collect();
    let floor: Vec<Coord> = bottoms
        .iter()
        .scan(Coord::MAX, |m, &b| {
            *m = (*m).min(b);
            Some(*m)
        })
        .collect();
    let mut band_outers: Vec<Vec<usize>> = vec![Vec::new(); chunks.len()];
    for (o, r) in outer.iter().enumerate() {
        let first = floor.partition_point(|&f| f > r.hi().y);
        let end = tops.partition_point(|&t| t >= r.lo().y);
        for k in first..end {
            if bottoms[k] <= r.hi().y {
                band_outers[k].push(o);
            }
        }
    }
    let mut busy = start.elapsed();

    let swept = host.run("sweepline", chunks.len(), |k| {
        let t0 = Instant::now();
        let (members, outers) = (chunks[k], &band_outers[k]);
        let band_inner: Vec<Rect> = members.iter().map(|&i| inner[i]).collect();
        let band_outer: Vec<Rect> = outers.iter().map(|&o| outer[o]).collect();
        let mut local: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
        sweep_join(&band_inner, &band_outer, |i, o| local[i].push(outers[o]));
        for list in &mut local {
            list.sort_unstable();
        }
        (local, t0.elapsed())
    });
    for (members, (local, elapsed)) in chunks.iter().zip(swept) {
        busy += elapsed;
        for (&i, list) in members.iter().zip(local) {
            hits[i] = list;
        }
    }
    (hits, busy)
}

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

    fn join_pairs(inner: &[Rect], outer: &[Rect]) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        sweep_join(inner, outer, |i, o| pairs.push((i, o)));
        pairs.sort_unstable();
        pairs
    }

    /// Flattens per-inner hit lists into `(inner, outer)` pairs, keeping
    /// each list's own order (so an unsorted list fails the comparison).
    fn hit_pairs(hits: &[Vec<usize>]) -> Vec<(usize, usize)> {
        hits.iter()
            .enumerate()
            .flat_map(|(i, list)| list.iter().map(move |&o| (i, o)))
            .collect()
    }

    #[test]
    fn join_with_an_empty_side_reports_nothing() {
        let some = [r(0, 0, 5, 5)];
        assert!(join_pairs(&[], &some).is_empty());
        assert!(join_pairs(&some, &[]).is_empty());
        let host = HostExecutor::new(1);
        assert_eq!(
            sweep_join_on(&some, &[], &host).0,
            vec![Vec::<usize>::new()]
        );
        assert!(sweep_join_on(&[], &some, &host).0.is_empty());
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
    fn banded_join_handles_spanning_outers_and_straddling_inners() {
        // Ten small inners stacked in y, one tall inner crossing all of
        // their bands, one outer spanning everything, one outer per row.
        let mut inner: Vec<Rect> = (0..10).map(|k| r(0, k * 10, 4, k * 10 + 4)).collect();
        inner.push(r(2, 0, 3, 100));
        let mut outer = vec![r(-5, -5, 50, 200)];
        outer.extend((0..10).map(|k| r(3, k * 10 + 4, 8, k * 10 + 6)));
        let expected = brute_force_join(&inner, &outer);
        for bands in [1, 2, 3, 11, 40] {
            for threads in [1, 3] {
                let host = HostExecutor::new(threads);
                let (hits, _) = join_banded(&inner, &outer, bands, &host);
                assert_eq!(
                    hit_pairs(&hits),
                    expected,
                    "bands={bands} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn default_banding_depends_on_input_size_only() {
        // More inners than one band holds: the fan-out is the same task
        // count on any executor, and so is the result.
        let inner: Vec<Rect> = (0..(JOIN_BAND as Coord * 2 + 10))
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
        let (a, _) = sweep_join_on(&inner, &outer, &serial);
        let (b, _) = sweep_join_on(&inner, &outer, &wide);
        assert_eq!(a, b);
        assert_eq!(serial.tasks(), 3);
        assert_eq!(wide.tasks(), 3);
        assert_eq!(hit_pairs(&a).len(), inner.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn join_matches_brute_force(
            inner in proptest::collection::vec(
                (-100i32..100, -100i32..100, 0i32..40, 0i32..40), 0..60),
            outer in proptest::collection::vec(
                (-100i32..100, -100i32..100, 0i32..120, 0i32..240), 0..60),
            bands in 1usize..9,
            threads in 1usize..4,
        ) {
            // Zero widths/heights give degenerate rects; the wide outer
            // ranges give rectangles spanning every band.
            let rect = |&(x, y, w, h): &(i32, i32, i32, i32)| r(x, y, x + w, y + h);
            let inner: Vec<Rect> = inner.iter().map(rect).collect();
            let outer: Vec<Rect> = outer.iter().map(rect).collect();
            let expected = brute_force_join(&inner, &outer);
            prop_assert_eq!(&join_pairs(&inner, &outer), &expected);
            let host = HostExecutor::new(threads);
            let (hits, _) = join_banded(&inner, &outer, bands, &host);
            prop_assert_eq!(hit_pairs(&hits), expected);
        }

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
