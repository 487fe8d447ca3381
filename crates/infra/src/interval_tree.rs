//! The interval tree of §IV-D.
//!
//! > "An interval tree is a binary search tree that stores an interval
//! > `I` in the highest node satisfying `u ∈ I`, where `u` is the key of
//! > this node. Specifically, every node of the interval tree maintains
//! > its intervals in two separate lists: one is sorted by left
//! > endpoints, and the other is sorted by right endpoints."
//!
//! The tree here is built over a *static key domain* — the sorted unique
//! interval endpoints, which the sweepline knows in advance — so the BST
//! is perfectly balanced without rotations. Intervals are inserted and
//! removed dynamically as the sweepline advances.
//!
//! [`crate::sweep::sweep_overlaps`] is the tree's one user.

use odrc_geometry::{Coord, Interval};

/// A value stored alongside its interval; typically an index identifying
/// the rectangle the interval belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry<T> {
    interval: Interval,
    payload: T,
}

/// "No child" marker in [`Link`].
const NIL: u32 = u32::MAX;

/// The search half of a node: everything a descent reads. Kept apart
/// from the interval lists so walking the tree touches 16 bytes per
/// level instead of a node's whole list headers — on chip-scale sweeps
/// the tree outgrows the cache and descents are what the time goes to.
#[derive(Debug, Clone, Copy)]
struct Link {
    key: Coord,
    left: u32,
    right: u32,
    /// Intervals stored anywhere in this node's subtree (its own lists
    /// included): queries skip a subtree that holds nothing, so their
    /// cost follows the number of *active* intervals, not the size of
    /// the domain.
    live: u32,
}

/// The storage half of a node.
#[derive(Debug, Clone)]
struct Lists<T> {
    /// Entries containing the node's key, ascending by `interval.lo()`.
    by_lo: Vec<Entry<T>>,
    /// Entries containing the node's key, ascending by `interval.hi()`.
    by_hi: Vec<Entry<T>>,
}

/// An interval tree over a fixed key domain supporting dynamic insertion,
/// removal, and overlap queries.
#[derive(Debug, Clone)]
pub(crate) struct IntervalTree<T> {
    /// Parallel arrays indexed by node.
    links: Vec<Link>,
    lists: Vec<Lists<T>>,
    root: u32,
}

impl<T: Clone + PartialEq> IntervalTree<T> {
    /// Builds a balanced tree over the given key domain.
    ///
    /// Keys are deduplicated and sorted; every interval later inserted
    /// must have both endpoints in the domain (this is naturally true
    /// for the sweepline, which collects all MBR x-coordinates first).
    ///
    /// # Panics
    ///
    /// Panics if the domain holds `u32::MAX` or more distinct keys.
    pub fn with_domain(mut keys: Vec<Coord>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        assert!(
            keys.len() < NIL as usize,
            "interval tree domain exceeds u32 node indices"
        );
        let mut links = Vec::with_capacity(keys.len());
        let root = Self::build(&keys, &mut links);
        let lists = vec![
            Lists {
                by_lo: Vec::new(),
                by_hi: Vec::new(),
            };
            links.len()
        ];
        IntervalTree { links, lists, root }
    }

    fn build(keys: &[Coord], links: &mut Vec<Link>) -> u32 {
        if keys.is_empty() {
            return NIL;
        }
        let mid = keys.len() / 2;
        let left = Self::build(&keys[..mid], links);
        let right = Self::build(&keys[mid + 1..], links);
        links.push(Link {
            key: keys[mid],
            left,
            right,
            live: 0,
        });
        (links.len() - 1) as u32
    }

    /// The highest node whose key lies inside `interval`, if any.
    fn home(&self, interval: Interval) -> Option<usize> {
        let mut cur = self.root;
        while cur != NIL {
            let link = &self.links[cur as usize];
            if interval.hi() < link.key {
                cur = link.left;
            } else if interval.lo() > link.key {
                cur = link.right;
            } else {
                return Some(cur as usize);
            }
        }
        None
    }

    /// Adds `delta` to the subtree counts on the path from the root to
    /// `home` (inclusive).
    fn count_path(&mut self, interval: Interval, home: usize, delta: i32) {
        let mut cur = self.root as usize;
        loop {
            let link = &mut self.links[cur];
            link.live = link.live.wrapping_add_signed(delta);
            if cur == home {
                return;
            }
            cur = if interval.hi() < link.key {
                link.left
            } else {
                link.right
            } as usize;
        }
    }

    /// Inserts `interval` with an identifying `payload`.
    ///
    /// # Panics
    ///
    /// Panics if the interval does not contain any domain key reachable
    /// on its search path (i.e. its endpoints were not part of the
    /// domain the tree was built with).
    pub fn insert(&mut self, interval: Interval, payload: T) {
        let Some(home) = self.home(interval) else {
            panic!("interval {interval} has no containing key in the tree domain");
        };
        let node = &mut self.lists[home];
        let entry = Entry { interval, payload };
        let lo_pos = node
            .by_lo
            .partition_point(|e| e.interval.lo() <= interval.lo());
        node.by_lo.insert(lo_pos, entry.clone());
        let hi_pos = node
            .by_hi
            .partition_point(|e| e.interval.hi() <= interval.hi());
        node.by_hi.insert(hi_pos, entry);
        self.count_path(interval, home, 1);
    }

    /// Removes one stored copy of `interval` with the given payload.
    ///
    /// Returns `true` if a matching entry was found and removed.
    pub fn remove(&mut self, interval: Interval, payload: &T) -> bool {
        let Some(home) = self.home(interval) else {
            return false;
        };
        let node = &mut self.lists[home];
        if !remove_entry(&mut node.by_lo, interval, payload) {
            return false;
        }
        remove_entry(&mut node.by_hi, interval, payload);
        self.count_path(interval, home, -1);
        true
    }

    /// Visits the payloads of all stored intervals overlapping `q`.
    ///
    /// The visitor form avoids allocation in the sweepline inner loop.
    pub fn query_into(&self, q: Interval, visit: &mut dyn FnMut(&T)) {
        self.query_node(self.root, q, visit);
    }

    fn query_node(&self, cur: u32, q: Interval, visit: &mut dyn FnMut(&T)) {
        if cur == NIL {
            return;
        }
        let link = self.links[cur as usize];
        if link.live == 0 {
            return;
        }
        if q.hi() < link.key {
            // Stored intervals contain link.key > q.hi, so they overlap q
            // iff their lo <= q.hi; by_lo is sorted ascending by lo.
            for e in &self.lists[cur as usize].by_lo {
                if e.interval.lo() > q.hi() {
                    break;
                }
                visit(&e.payload);
            }
            self.query_node(link.left, q, visit);
        } else if q.lo() > link.key {
            // Stored intervals contain link.key < q.lo, so they overlap q
            // iff their hi >= q.lo; walk by_hi from the largest hi down.
            for e in self.lists[cur as usize].by_hi.iter().rev() {
                if e.interval.hi() < q.lo() {
                    break;
                }
                visit(&e.payload);
            }
            self.query_node(link.right, q, visit);
        } else {
            // q contains the key: every stored interval overlaps q.
            for e in &self.lists[cur as usize].by_lo {
                visit(&e.payload);
            }
            self.query_node(link.left, q, visit);
            self.query_node(link.right, q, visit);
        }
    }
}

fn remove_entry<T: PartialEq>(list: &mut Vec<Entry<T>>, interval: Interval, payload: &T) -> bool {
    if let Some(pos) = list
        .iter()
        .position(|e| e.interval == interval && &e.payload == payload)
    {
        list.remove(pos);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<T: Clone + PartialEq> IntervalTree<T> {
        /// Number of intervals currently stored: the root's subtree
        /// count.
        fn len(&self) -> usize {
            match self.root {
                NIL => 0,
                root => self.links[root as usize].live as usize,
            }
        }

        fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Collects the payloads of all stored intervals overlapping
        /// `q` (closed-interval semantics: touching counts).
        fn query(&self, q: Interval) -> Vec<T> {
            let mut out = Vec::new();
            self.query_into(q, &mut |p| out.push(p.clone()));
            out
        }
    }

    fn iv(lo: Coord, hi: Coord) -> Interval {
        Interval::new(lo, hi)
    }

    fn tree_with(intervals: &[Interval]) -> IntervalTree<usize> {
        let mut domain = Vec::new();
        for i in intervals {
            domain.push(i.lo());
            domain.push(i.hi());
        }
        let mut t = IntervalTree::with_domain(domain);
        for (idx, &i) in intervals.iter().enumerate() {
            t.insert(i, idx);
        }
        t
    }

    #[test]
    fn empty_tree_queries_nothing() {
        let t: IntervalTree<usize> = IntervalTree::with_domain(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.query(iv(0, 100)), Vec::<usize>::new());
    }

    #[test]
    fn basic_insert_query_remove() {
        let ivs = [iv(0, 10), iv(5, 15), iv(20, 30)];
        let mut t = tree_with(&ivs);
        assert_eq!(t.len(), 3);

        let mut hits = t.query(iv(8, 12));
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);

        assert!(t.remove(iv(0, 10), &0));
        assert!(!t.remove(iv(0, 10), &0)); // already gone
        assert_eq!(t.query(iv(8, 12)), vec![1]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn char_payloads_query_and_remove() {
        let mut tree = IntervalTree::with_domain(vec![0, 5, 10, 15, 20]);
        tree.insert(Interval::new(0, 10), 'a');
        tree.insert(Interval::new(12, 20), 'b');

        let mut hits = tree.query(Interval::new(8, 13));
        hits.sort();
        assert_eq!(hits, vec!['a', 'b']);

        tree.remove(Interval::new(0, 10), &'a');
        assert_eq!(tree.query(Interval::new(8, 13)), vec!['b']);
    }

    #[test]
    fn touching_counts_as_overlap() {
        let t = tree_with(&[iv(0, 10)]);
        assert_eq!(t.query(iv(10, 20)), vec![0]);
        assert_eq!(t.query(iv(-5, 0)), vec![0]);
        assert!(t.query(iv(11, 20)).is_empty());
    }

    #[test]
    fn duplicate_intervals_distinct_payloads() {
        let mut t = IntervalTree::with_domain(vec![0, 10]);
        t.insert(iv(0, 10), 1usize);
        t.insert(iv(0, 10), 2usize);
        let mut hits = t.query(iv(5, 5));
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2]);
        assert!(t.remove(iv(0, 10), &1));
        assert_eq!(t.query(iv(5, 5)), vec![2]);
    }

    #[test]
    #[should_panic(expected = "no containing key")]
    fn insert_outside_domain_panics() {
        let mut t = IntervalTree::with_domain(vec![0, 10]);
        t.insert(iv(20, 30), 0usize);
    }

    #[test]
    fn query_through_subtrees() {
        // Many disjoint intervals; query windows spanning several.
        let ivs: Vec<Interval> = (0..20).map(|i| iv(i * 10, i * 10 + 5)).collect();
        let t = tree_with(&ivs);
        let mut hits = t.query(iv(23, 87));
        hits.sort_unstable();
        // Overlapping [23,87]: intervals 3..=8 ([30,35]..[80,85]) plus
        // interval 2 ([20,25]) since 23 <= 25.
        assert_eq!(hits, vec![2, 3, 4, 5, 6, 7, 8]);
    }

    proptest! {
        #[test]
        fn query_matches_brute_force(
            spans in proptest::collection::vec((0i32..200, 1i32..40), 1..60),
            qlo in 0i32..200, qlen in 0i32..60,
        ) {
            let ivs: Vec<Interval> = spans.iter().map(|&(l, w)| iv(l, l + w)).collect();
            let t = tree_with(&ivs);
            let q = iv(qlo, qlo + qlen);
            let mut fast = t.query(q);
            fast.sort_unstable();
            let brute: Vec<usize> = ivs.iter().enumerate()
                .filter(|(_, i)| i.overlaps(q))
                .map(|(idx, _)| idx)
                .collect();
            prop_assert_eq!(fast, brute);
        }

        #[test]
        fn removal_keeps_remainder_consistent(
            spans in proptest::collection::vec((0i32..100, 1i32..30), 2..40),
            remove_mask in proptest::collection::vec(proptest::bool::ANY, 2..40),
        ) {
            let ivs: Vec<Interval> = spans.iter().map(|&(l, w)| iv(l, l + w)).collect();
            let mut t = tree_with(&ivs);
            let mut kept = Vec::new();
            for (idx, &i) in ivs.iter().enumerate() {
                if remove_mask.get(idx).copied().unwrap_or(false) {
                    prop_assert!(t.remove(i, &idx));
                } else {
                    kept.push(idx);
                }
            }
            let q = iv(0, 200);
            let mut hits = t.query(q);
            hits.sort_unstable();
            prop_assert_eq!(hits, kept);
        }
    }
}
