//! The adaptive row-based layout partition of §IV-B.
//!
//! Layouts are partitioned into non-overlapping regions (rows) along the
//! y-axis by merging the vertical extents of cell MBRs — one sort and a
//! running-maximum scan ([`partition_rows`]); cells in different rows
//! cannot interact, which enables both check pruning and row-level
//! parallelism. (The paper's second intuition, independent
//! *clips* along the x-axis within a row, is not used: the engine's row
//! units find their candidate pairs per row instead.)
//!
//! [`row_join_on`] puts the rows to work for inter-layer rules: it bins
//! the outer layer's MBRs into rows once, and each inner window finds
//! its candidates by binary search over the rows and within them.

use std::time::{Duration, Instant};

use odrc_geometry::{Coord, Interval, Rect};

use crate::host::HostExecutor;

/// One independent row of the partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Vertical extent of the row (inflated extents merged).
    pub y: Interval,
    /// Indices (into the input MBR slice) of the members of this row,
    /// in ascending index order.
    pub members: Vec<usize>,
}

/// The result of the adaptive row partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    rows: Vec<Row>,
}

impl RowPartition {
    /// Builds a partition from explicit rows (used by ablation modes
    /// that bypass the adaptive partition, e.g. a single all-covering
    /// row).
    pub fn from_rows(rows: Vec<Row>) -> Self {
        RowPartition { rows }
    }

    /// The rows in ascending y order.
    #[inline]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the input had no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over the rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }
}

impl<'a> IntoIterator for &'a RowPartition {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

/// Partitions cell MBRs into independent rows along the y-axis.
///
/// `expand` inflates every extent by the minimum rule distance before
/// merging, so that "different rows" really implies "no rule interaction
/// across rows" (§IV-C's MBR-inflation argument applied to rows). Rows
/// whose inflated extents share a coordinate are merged.
///
/// The rows are built by one sort and two scans: the extents sorted by
/// lower end, a running-maximum scan that opens a row wherever an
/// extent starts above every earlier one's upper end, and a
/// count-then-fill pass over the inputs in index order. This deviates
/// from §IV-B's `Θ(k + N)` pigeonhole merge (Algorithm 1, kept in
/// `odrc-bench` as ablation (a) and this function's test oracle):
/// discretizing the coordinates for it already costs a sort, so the
/// sort-scan is `Θ(k log k)` either way with one pass less.
///
/// # Examples
///
/// ```
/// use odrc_geometry::Rect;
/// use odrc_infra::partition::partition_rows;
///
/// let mbrs = [
///     Rect::from_coords(0, 0, 10, 8),
///     Rect::from_coords(12, 2, 30, 6),   // same band as the first
///     Rect::from_coords(0, 100, 10, 108),
/// ];
/// let part = partition_rows(&mbrs, 0);
/// assert_eq!(part.len(), 2);
/// assert_eq!(part.rows()[0].members, vec![0, 1]);
/// assert_eq!(part.rows()[1].members, vec![2]);
/// ```
pub fn partition_rows(mbrs: &[Rect], expand: Coord) -> RowPartition {
    let extent = |i: usize| mbrs[i].y_range().inflate(expand);
    let rows = partition_intervals(mbrs.len(), extent, |i| i);
    RowPartition {
        rows: rows
            .into_iter()
            .map(|(y, members)| Row { y, members })
            .collect(),
    }
}

/// [`partition_rows`]; the executor is unused, since the partition does
/// not fan out. Kept for callers compiled against this signature.
pub fn partition_rows_on(mbrs: &[Rect], expand: Coord, _host: &HostExecutor) -> RowPartition {
    partition_rows(mbrs, expand)
}

/// Inner windows per host task of [`row_join_on`].
pub(crate) const JOIN_CHUNK: usize = 2048;

/// The result of [`row_join_on`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowJoin {
    /// Every inner item's hits back to back: the indices of the outer
    /// items it overlaps, ascending ([`RowJoin::hits_of`]).
    pub hits: Vec<u32>,
    /// Inner item `i`'s hits are `hits[offsets[i]..offsets[i + 1]]`;
    /// `inner.len() + 1` entries (none for an empty join).
    pub offsets: Vec<u32>,
    /// Outer items the row scans examined; every hit is one of them,
    /// so `scanned - hits` is the scans' wasted work.
    pub scanned: u64,
    /// Summed index build and query time (what a caller charges to its
    /// `sweepline` phase).
    pub busy: Duration,
}

impl RowJoin {
    /// The outer items inner item `i` overlaps, ascending.
    #[inline]
    pub fn hits_of(&self, i: usize) -> &[u32] {
        &self.hits[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// One row of [`row_join_on`]'s index: the row's y-extent, its members
/// as outer indices sorted by `(left edge, index)`, and the running
/// maximum of their right edges.
struct JoinRow {
    y: Interval,
    members: Vec<u32>,
    reach: Vec<Coord>,
}

/// For every `inner` item, the indices of the `outer` items it overlaps
/// (closed rectangles: touching counts), found through the row
/// partition instead of a sweepline. `window` and `mbr` read each
/// item's rectangle from the caller's slices, so the join copies no
/// rectangle: its index holds 32-bit outer indices.
///
/// The outers meeting the bounding box of all inner windows are
/// partitioned into rows (§IV-B); inside a row they are sorted by left
/// edge with a running maximum of right edges. Each inner window
/// binary-searches the rows its y-range meets, then in each row the
/// first member whose running maximum reaches its left edge, and scans
/// while members start left of its right edge. The queries run as
/// executor tasks over fixed-size chunks of `inner` (a count that
/// depends on `inner.len()` only), so the result is identical for any
/// thread count.
///
/// # Examples
///
/// ```
/// use odrc_geometry::Rect;
/// use odrc_infra::host::HostExecutor;
/// use odrc_infra::partition::row_join_on;
///
/// let inner = [Rect::from_coords(4, 4, 6, 6), Rect::from_coords(50, 50, 52, 52)];
/// let outer = [Rect::from_coords(0, 0, 10, 10), Rect::from_coords(6, 6, 20, 20)];
/// let join = row_join_on(&inner, |&r| r, &outer, |&r| r, &HostExecutor::new(1));
/// assert_eq!(join.hits_of(0), [0, 1]); // corner touch counts
/// assert!(join.hits_of(1).is_empty());
/// assert_eq!(join.scanned, 2);
/// ```
pub fn row_join_on<I: Sync, O: Sync>(
    inner: &[I],
    window: impl Fn(&I) -> Rect + Sync,
    outer: &[O],
    mbr: impl Fn(&O) -> Rect + Sync,
    host: &HostExecutor,
) -> RowJoin {
    let Some(bbox) = inner.iter().map(&window).reduce(Rect::hull) else {
        return RowJoin::default();
    };
    let start = Instant::now();
    let n = u32::try_from(outer.len()).expect("outer count fits u32");
    let outer_mbr = |o: u32| mbr(&outer[o as usize]);
    let kept: Vec<u32> = (0..n).filter(|&o| outer_mbr(o).overlaps(bbox)).collect();
    let rows: Vec<JoinRow> =
        partition_intervals(kept.len(), |k| outer_mbr(kept[k]).y_range(), |k| kept[k])
            .into_iter()
            .map(|(y, mut members)| {
                members.sort_unstable_by_key(|&o| (outer_mbr(o).lo().x, o));
                let reach = members
                    .iter()
                    .scan(Coord::MIN, |h, &o| {
                        *h = (*h).max(outer_mbr(o).hi().x);
                        Some(*h)
                    })
                    .collect();
                JoinRow { y, members, reach }
            })
            .collect();
    drop(kept);
    // Appends window `w`'s hits to `hits`, ascending.
    let query = |w: Rect, hits: &mut Vec<u32>, scanned: &mut u64| {
        let from_hit = hits.len();
        let first = rows.partition_point(|row| row.y.hi() < w.lo().y);
        for row in rows[first..]
            .iter()
            .take_while(|row| row.y.lo() <= w.hi().y)
        {
            // Every member before `from` ends left of the window.
            let from = row.reach.partition_point(|&h| h < w.lo().x);
            for &o in &row.members[from..] {
                let r = outer_mbr(o);
                if r.lo().x > w.hi().x {
                    break;
                }
                *scanned += 1;
                if r.overlaps(w) {
                    hits.push(o);
                }
            }
        }
        hits[from_hit..].sort_unstable();
    };
    let busy = start.elapsed();
    // Each chunk returns its hits and the end of every window's list
    // within them.
    let chunks = host.run("sweepline", inner.len().div_ceil(JOIN_CHUNK), |c| {
        let t0 = Instant::now();
        let mut scanned = 0;
        let items = &inner[c * JOIN_CHUNK..inner.len().min((c + 1) * JOIN_CHUNK)];
        let mut hits = Vec::with_capacity(items.len());
        // Within the total, which is checked to fit below.
        let ends: Vec<u32> = items
            .iter()
            .map(|item| {
                query(window(item), &mut hits, &mut scanned);
                hits.len() as u32
            })
            .collect();
        (hits, ends, scanned, t0.elapsed())
    });
    let total = chunks.iter().map(|(hits, ..)| hits.len()).sum();
    u32::try_from(total).expect("join hit count fits u32");
    let mut join = RowJoin {
        hits: Vec::with_capacity(total),
        offsets: Vec::with_capacity(inner.len() + 1),
        scanned: 0,
        busy,
    };
    join.offsets.push(0);
    for (hits, ends, scanned, elapsed) in chunks {
        let base = join.hits.len() as u32;
        join.offsets.extend(ends.into_iter().map(|end| base + end));
        join.hits.extend(hits);
        join.scanned += scanned;
        join.busy += elapsed;
    }
    join
}

/// Shared 1-D machinery: merge the `n` (already inflated) extents into
/// rows and fill each row's members, `member(i)` for extent `i`, in
/// ascending `i` order. Returns each row's y-extent and members.
fn partition_intervals<M>(
    n: usize,
    extent: impl Fn(usize) -> Interval,
    member: impl Fn(usize) -> M,
) -> Vec<(Interval, Vec<M>)> {
    assert!(
        u32::try_from(n).is_ok(),
        "{n} extents overflow the 32-bit index of the sort key"
    );
    // One key per extent: the lower end, biased to sort as unsigned, in
    // the high half and the index in the low half.
    let mut keys: Vec<u64> = (0..n)
        .map(|i| (u64::from(extent(i).lo() as u32 ^ 0x8000_0000) << 32) | i as u64)
        .collect();
    keys.sort_unstable();

    // Running-maximum scan: a row ends where the next extent starts
    // above every upper end so far (touching extents merge).
    let mut rows: Vec<(Interval, Vec<M>)> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    let mut row_of = vec![0u32; n];
    for key in keys {
        let i = key as u32 as usize;
        let e = extent(i);
        match rows.last_mut() {
            Some((y, _)) if e.lo() <= y.hi() => {
                *y = y.hull(e);
                *counts.last_mut().expect("one count per row") += 1;
            }
            _ => {
                rows.push((e, Vec::new()));
                counts.push(1);
            }
        }
        row_of[i] = (rows.len() - 1) as u32;
    }

    // Count-then-fill in index order keeps member lists ascending.
    for ((_, members), count) in rows.iter_mut().zip(counts) {
        members.reserve_exact(count);
    }
    for (i, &r) in row_of.iter().enumerate() {
        rows[r as usize].1.push(member(i));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Rect {
        Rect::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn empty_layout() {
        let part = partition_rows(&[], 0);
        assert!(part.is_empty());
        assert_eq!(part.len(), 0);
    }

    #[test]
    fn single_cell_single_row() {
        let part = partition_rows(&[r(0, 0, 10, 10)], 0);
        assert_eq!(part.len(), 1);
        assert_eq!(part.rows()[0].y, Interval::new(0, 10));
        assert_eq!(part.rows()[0].members, vec![0]);
    }

    #[test]
    fn standard_cell_rows_separate() {
        // Three placement rows of height 8 with 2 units of space.
        let mut mbrs = Vec::new();
        for row in 0..3 {
            let y0 = row * 10;
            for col in 0..4 {
                mbrs.push(r(col * 20, y0, col * 20 + 15, y0 + 8));
            }
        }
        let part = partition_rows(&mbrs, 0);
        assert_eq!(part.len(), 3);
        for (i, row) in part.iter().enumerate() {
            assert_eq!(row.members.len(), 4);
            assert_eq!(row.y, Interval::new(i as Coord * 10, i as Coord * 10 + 8));
        }
    }

    #[test]
    fn expansion_merges_close_rows() {
        let mbrs = [r(0, 0, 10, 8), r(0, 10, 10, 18)];
        assert_eq!(partition_rows(&mbrs, 0).len(), 2);
        // Inflating by 1 leaves a gap ([−1,9] vs [9,19] touch at 9 — merged).
        assert_eq!(partition_rows(&mbrs, 1).len(), 1);
    }

    #[test]
    fn tall_cell_bridges_rows() {
        let mbrs = [
            r(0, 0, 10, 8),
            r(0, 20, 10, 28),
            r(50, 0, 60, 28), // spans both bands
        ];
        let part = partition_rows(&mbrs, 0);
        assert_eq!(part.len(), 1);
        assert_eq!(part.rows()[0].members, vec![0, 1, 2]);
    }

    proptest! {
        #[test]
        fn rows_are_disjoint_and_complete(
            specs in proptest::collection::vec(
                (-200i32..200, -200i32..200, 1i32..60, 1i32..60), 1..80),
            expand in 0i32..10,
        ) {
            let mbrs: Vec<Rect> = specs.iter()
                .map(|&(x, y, w, h)| r(x, y, x + w, y + h))
                .collect();
            let part = partition_rows(&mbrs, expand);

            // Every cell appears in exactly one row.
            let mut seen = vec![0usize; mbrs.len()];
            for row in &part {
                for &m in &row.members {
                    seen[m] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1));

            // Rows are ordered and their y-extents never overlap.
            for w in part.rows().windows(2) {
                prop_assert!(w[0].y.hi() < w[1].y.lo());
            }

            // No inflated cell extent crosses a row boundary, i.e. cells
            // of different rows are farther than 2*expand apart in y.
            for row in &part {
                for &m in &row.members {
                    let e = mbrs[m].y_range().inflate(expand);
                    prop_assert!(row.y.contains(e.lo()) && row.y.contains(e.hi()));
                }
            }
        }

        #[test]
        fn cross_row_cells_cannot_violate_spacing(
            specs in proptest::collection::vec(
                (-100i32..100, -100i32..100, 1i32..30, 1i32..30), 2..40),
            rule in 1i32..10,
        ) {
            let mbrs: Vec<Rect> = specs.iter()
                .map(|&(x, y, w, h)| r(x, y, x + w, y + h))
                .collect();
            // Inflate by the rule distance: the partition contract is that
            // any two cells in different rows have y-gap > 0 after
            // inflation by `rule`, hence real gap >= 2*rule > rule.
            let part = partition_rows(&mbrs, rule);
            for (ri, row_a) in part.rows().iter().enumerate() {
                for row_b in part.rows().iter().skip(ri + 1) {
                    for &a in &row_a.members {
                        for &b in &row_b.members {
                            prop_assert!(mbrs[a].gap(mbrs[b]) > i64::from(rule));
                        }
                    }
                }
            }
        }
    }
}
