//! A bulk-loaded R-tree.
//!
//! The paper lists "hierarchies of bounding volumes like \[the\] r-tree
//! and its variants" among the data-structure foundations of design
//! rule checking (§I). This is a static R-tree built with the
//! Sort-Tile-Recursive (STR) packing algorithm: entries are tiled into
//! vertical slices by x, sorted by y within each slice, and packed into
//! nodes of fixed fan-out, recursively.
//!
//! The engine runs on no R-tree: its object scenes use the layout's
//! own hierarchy as their BVH, and its rows find their candidate pairs
//! with the x-sorted scan [`odrc_infra::scan_overlaps`]. The tree is a
//! reference: [`rtree_overlaps`] enumerates overlap pairs for ablation
//! (h), beside §IV-D's interval-tree sweepline
//! ([`odrc_infra::sweep_overlaps`]) and the scan, and the scan is
//! tested against it.

use odrc_geometry::Rect;

const FANOUT: usize = 8;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        mbr: Rect,
        /// (rect, payload index into the original input).
        entries: Vec<(Rect, usize)>,
    },
    Inner {
        mbr: Rect,
        children: Vec<Node>,
    },
}

impl Node {
    fn mbr(&self) -> Rect {
        match self {
            Node::Leaf { mbr, .. } | Node::Inner { mbr, .. } => *mbr,
        }
    }
}

/// A static R-tree over rectangles, queried by window overlap.
///
/// # Examples
///
/// ```
/// use odrc_geometry::Rect;
/// use odrc_bench::rtree::RTree;
///
/// let rects: Vec<Rect> = (0..100)
///     .map(|i| Rect::from_coords(i * 10, 0, i * 10 + 5, 5))
///     .collect();
/// let tree = RTree::bulk_load(&rects);
/// let hits = tree.query(Rect::from_coords(22, 0, 38, 5));
/// assert_eq!(hits.len(), 2); // rects 2 and 3
/// ```
#[derive(Debug, Clone)]
pub struct RTree {
    root: Option<Node>,
    len: usize,
}

impl RTree {
    /// Builds the tree with STR bulk loading.
    pub fn bulk_load(rects: &[Rect]) -> RTree {
        if rects.is_empty() {
            return RTree { root: None, len: 0 };
        }
        let mut entries: Vec<(Rect, usize)> = rects
            .iter()
            .copied()
            .enumerate()
            .map(|(i, r)| (r, i))
            .collect();
        // STR: slice count s = ceil(sqrt(n / fanout)).
        let leaves = build_leaves(&mut entries);
        let root = build_upward(leaves);
        RTree {
            root: Some(root),
            len: rects.len(),
        }
    }

    /// Number of indexed rectangles.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree indexes nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Indices of all rectangles overlapping `window` (closed
    /// semantics), in ascending order.
    pub fn query(&self, window: Rect) -> Vec<usize> {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            query_node(root, window, &mut out);
        }
        out.sort_unstable();
        out
    }

    /// Visits the indices of all rectangles overlapping `window`.
    pub fn query_into(&self, window: Rect, visit: &mut dyn FnMut(usize)) {
        if let Some(root) = &self.root {
            let mut f = |i: usize| visit(i);
            query_node_fn(root, window, &mut f);
        }
    }

    /// Height of the tree (1 for a single leaf).
    pub fn height(&self) -> usize {
        fn depth(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Inner { children, .. } => 1 + depth(&children[0]),
            }
        }
        self.root.as_ref().map(depth).unwrap_or(0)
    }
}

/// Reports every unordered pair of overlapping rectangles via `report`,
/// with the first index smaller than the second: the contract of
/// [`odrc_infra::sweep_overlaps`] (closed rectangles, touching
/// counts), answered by bulk-loading the set and querying the tree
/// with each rectangle.
///
/// # Examples
///
/// ```
/// use odrc_geometry::Rect;
/// use odrc_bench::rtree::rtree_overlaps;
///
/// let rects = [
///     Rect::from_coords(0, 0, 10, 10),
///     Rect::from_coords(10, 10, 20, 20), // corner touch counts
///     Rect::from_coords(100, 100, 110, 110),
/// ];
/// let mut pairs = Vec::new();
/// rtree_overlaps(&rects, |a, b| pairs.push((a, b)));
/// assert_eq!(pairs, vec![(0, 1)]);
/// ```
pub fn rtree_overlaps<F: FnMut(usize, usize)>(rects: &[Rect], mut report: F) {
    let tree = RTree::bulk_load(rects);
    for (a, &ra) in rects.iter().enumerate() {
        tree.query_into(ra, &mut |b| {
            if a < b {
                report(a, b);
            }
        });
    }
}

fn build_leaves(entries: &mut [(Rect, usize)]) -> Vec<Node> {
    let n = entries.len();
    let leaf_count = n.div_ceil(FANOUT);
    let slices = (leaf_count as f64).sqrt().ceil() as usize;
    let per_slice = n.div_ceil(slices.max(1));
    entries.sort_unstable_by_key(|(r, _)| (r.lo().x, r.lo().y));
    let mut leaves = Vec::with_capacity(leaf_count);
    for slice in entries.chunks_mut(per_slice.max(1)) {
        slice.sort_unstable_by_key(|(r, _)| (r.lo().y, r.lo().x));
        for group in slice.chunks(FANOUT) {
            let mbr = group
                .iter()
                .map(|(r, _)| *r)
                .reduce(|a, b| a.hull(b))
                .expect("non-empty group");
            leaves.push(Node::Leaf {
                mbr,
                entries: group.to_vec(),
            });
        }
    }
    leaves
}

fn build_upward(mut level: Vec<Node>) -> Node {
    while level.len() > 1 {
        // Pack by x then y of child MBRs (STR again on the node level).
        level.sort_unstable_by_key(|n| (n.mbr().lo().x, n.mbr().lo().y));
        let mut next = Vec::with_capacity(level.len().div_ceil(FANOUT));
        // The children move into their parent: no subtree is cloned.
        let mut rest = level.into_iter().peekable();
        while rest.peek().is_some() {
            let children: Vec<Node> = rest.by_ref().take(FANOUT).collect();
            let mbr = children
                .iter()
                .map(|n| n.mbr())
                .reduce(|a, b| a.hull(b))
                .expect("non-empty group");
            next.push(Node::Inner { mbr, children });
        }
        level = next;
    }
    level.into_iter().next().expect("at least one node")
}

fn query_node(node: &Node, window: Rect, out: &mut Vec<usize>) {
    query_node_fn(node, window, &mut |i| out.push(i));
}

fn query_node_fn(node: &Node, window: Rect, visit: &mut impl FnMut(usize)) {
    match node {
        Node::Leaf { mbr, entries } => {
            if !mbr.overlaps(window) {
                return;
            }
            for (r, i) in entries {
                if r.overlaps(window) {
                    visit(*i);
                }
            }
        }
        Node::Inner { mbr, children } => {
            if !mbr.overlaps(window) {
                return;
            }
            for c in children {
                query_node_fn(c, window, visit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{brute_force_overlap_pairs, sweep_overlap_pairs};
    use proptest::prelude::*;

    fn r(x0: i32, y0: i32, x1: i32, y1: i32) -> Rect {
        Rect::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn empty_tree() {
        let t = RTree::bulk_load(&[]);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.query(r(-100, -100, 100, 100)).is_empty());
    }

    #[test]
    fn single_rect() {
        let t = RTree::bulk_load(&[r(0, 0, 10, 10)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.query(r(5, 5, 6, 6)), vec![0]);
        assert!(t.query(r(20, 20, 30, 30)).is_empty());
        // Touching counts (closed semantics).
        assert_eq!(t.query(r(10, 10, 20, 20)), vec![0]);
    }

    #[test]
    fn grid_queries() {
        let rects: Vec<Rect> = (0..10)
            .flat_map(|i| (0..10).map(move |j| r(i * 20, j * 20, i * 20 + 10, j * 20 + 10)))
            .collect();
        let t = RTree::bulk_load(&rects);
        assert_eq!(t.len(), 100);
        assert!(t.height() >= 2);
        // Window [75,125]² overlaps cell columns/rows 4, 5, 6 (cells at
        // [80,90], [100,110], [120,130]): a 3x3 block.
        let hits = t.query(r(75, 75, 125, 125));
        assert_eq!(hits.len(), 9);
    }

    #[test]
    fn visitor_matches_query() {
        let rects: Vec<Rect> = (0..50).map(|i| r(i, i, i + 10, i + 10)).collect();
        let t = RTree::bulk_load(&rects);
        let w = r(20, 20, 30, 30);
        let mut visited = Vec::new();
        t.query_into(w, &mut |i| visited.push(i));
        visited.sort_unstable();
        assert_eq!(visited, t.query(w));
    }

    proptest! {
        #[test]
        fn query_matches_brute_force(
            specs in proptest::collection::vec(
                (-200i32..200, -200i32..200, 0i32..60, 0i32..60), 0..150),
            wx in -200i32..200, wy in -200i32..200, ww in 0i32..100, wh in 0i32..100,
        ) {
            let rects: Vec<Rect> = specs.iter()
                .map(|&(x, y, w, h)| r(x, y, x + w, y + h))
                .collect();
            let t = RTree::bulk_load(&rects);
            let window = r(wx, wy, wx + ww, wy + wh);
            let brute: Vec<usize> = rects.iter().enumerate()
                .filter(|(_, rc)| rc.overlaps(window))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(t.query(window), brute);
        }

        #[test]
        fn overlaps_match_sweepline_and_brute_force(
            // A coarse grid: many zero-width/height and touching rects.
            specs in proptest::collection::vec(
                (-20i32..20, -20i32..20, 0i32..8, 0i32..8), 0..120),
        ) {
            let rects: Vec<Rect> = specs.iter()
                .map(|&(x, y, w, h)| r(x, y, x + w, y + h))
                .collect();
            let mut pairs = Vec::new();
            rtree_overlaps(&rects, |a, b| pairs.push((a, b)));
            pairs.sort_unstable();
            prop_assert_eq!(&pairs, &sweep_overlap_pairs(&rects));
            prop_assert_eq!(pairs, brute_force_overlap_pairs(&rects));
        }

        #[test]
        fn height_is_logarithmic(n in 1usize..2000) {
            let rects: Vec<Rect> = (0..n as i32).map(|i| r(i, 0, i + 1, 1)).collect();
            let t = RTree::bulk_load(&rects);
            // Fanout 8: height bounded by log8(n) + small slack from STR
            // slice rounding.
            let bound = ((n as f64).log(8.0).ceil() as usize).max(1) + 2;
            prop_assert!(t.height() <= bound, "height {} for n {}", t.height(), n);
        }
    }
}
