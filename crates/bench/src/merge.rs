//! Interval merging for the adaptive layout partition (§IV-B,
//! Algorithm 1).
//!
//! The merging problem: given `k` intervals over a discretized domain of
//! `N` values, produce the non-overlapping intervals covering their
//! union. The paper solves it in `Θ(k + N)` with a "pigeonhole array"
//! that maintains right endpoints indexed by left endpoints, arguing that
//! `k` is typically much larger than `N` and that arrays have better
//! locality than the `Ω(k log k)` sort-based alternative. Both variants
//! are implemented here; ablation (a) compares them. The engine's
//! partition ([`odrc_infra::partition_rows`]) is a sort and a scan
//! instead, and is tested against [`merge_pigeonhole`].

/// Merges index intervals with the pigeonhole array of Algorithm 1.
///
/// `domain_size` is `N`, the number of unique discretized coordinates;
/// every input interval `(l, r)` must satisfy `l <= r < domain_size`.
/// The output is the ordered list of maximal merged intervals covering
/// the *union of the inputs* (indices not covered by any input are not
/// part of any output interval).
///
/// Note on fidelity: Algorithm 1 as printed initializes `A[i] = i`,
/// which makes its scan emit unit intervals for uncovered indices too
/// (the "cover of the domain"). Downstream, only intervals containing
/// cells matter, so this implementation initializes the array with a
/// sentinel and skips uncovered indices during the scan — the same scan,
/// minus the trivial intervals. [`merge_cover_pigeonhole`] reproduces
/// the verbatim behaviour for completeness.
///
/// # Examples
///
/// ```
/// use odrc_bench::merge::merge_pigeonhole;
///
/// let merged = merge_pigeonhole(10, [(0, 2), (1, 4), (7, 8)].iter().copied());
/// assert_eq!(merged, vec![(0, 4), (7, 8)]);
/// ```
///
/// # Panics
///
/// Panics if an interval is reversed or exceeds the domain.
pub fn merge_pigeonhole(
    domain_size: usize,
    intervals: impl IntoIterator<Item = (usize, usize)>,
) -> Vec<(usize, usize)> {
    const EMPTY: usize = usize::MAX;
    let mut ends = vec![EMPTY; domain_size];
    for (l, r) in intervals {
        assert!(
            l <= r && r < domain_size,
            "interval ({l}, {r}) out of domain {domain_size}"
        );
        // A[l] <- max(A[l], r)
        if ends[l] == EMPTY || ends[l] < r {
            ends[l] = r;
        }
    }
    let mut out = Vec::new();
    let mut cur: Option<(usize, usize)> = None;
    for (i, &r) in ends.iter().enumerate() {
        if r == EMPTY {
            continue;
        }
        match cur {
            Some((s, e)) if i <= e => {
                cur = Some((s, e.max(r)));
            }
            Some(done) => {
                out.push(done);
                cur = Some((i, r));
            }
            None => {
                cur = Some((i, r));
            }
        }
    }
    if let Some(done) = cur {
        out.push(done);
    }
    out
}

/// The verbatim Algorithm 1: initializes `A[i] = i` and scans the whole
/// array, so uncovered indices appear as unit intervals and the output
/// tiles the entire domain `[0, domain_size)`.
///
/// ```
/// use odrc_bench::merge::merge_cover_pigeonhole;
///
/// let cover = merge_cover_pigeonhole(6, [(1, 3)].iter().copied());
/// assert_eq!(cover, vec![(0, 0), (1, 3), (4, 4), (5, 5)]);
/// ```
pub fn merge_cover_pigeonhole(
    domain_size: usize,
    intervals: impl IntoIterator<Item = (usize, usize)>,
) -> Vec<(usize, usize)> {
    // Step 1: initialize an array A with indices.
    let mut a: Vec<usize> = (0..domain_size).collect();
    // Step 2: merge intervals.
    for (l, r) in intervals {
        assert!(
            l <= r && r < domain_size,
            "interval ({l}, {r}) out of domain {domain_size}"
        );
        a[l] = a[l].max(r);
    }
    // Step 3: scan to obtain the cover.
    let mut out = Vec::new();
    let mut end: Option<usize> = None; // e <- -1
    let mut start = 0;
    for (i, &r) in a.iter().enumerate() {
        match end {
            Some(e) if i <= e => {
                end = Some(e.max(r));
            }
            _ => {
                if let Some(e) = end {
                    out.push((start, e));
                }
                start = i;
                end = Some(r);
            }
        }
    }
    if let Some(e) = end {
        out.push((start, e));
    }
    out
}

/// The sort-based `Ω(k log k)` alternative mentioned in §IV-B: sort the
/// intervals by left endpoint and fold overlapping runs.
///
/// Produces the same merged union as [`merge_pigeonhole`] without
/// needing the domain size.
pub fn merge_sorted(mut intervals: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    intervals.sort_unstable();
    let mut out: Vec<(usize, usize)> = Vec::new();
    for (l, r) in intervals {
        assert!(l <= r, "interval ({l}, {r}) is reversed");
        match out.last_mut() {
            Some((_, e)) if l <= *e => {
                *e = (*e).max(r);
            }
            _ => out.push((l, r)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_input() {
        assert!(merge_pigeonhole(10, std::iter::empty()).is_empty());
        assert!(merge_sorted(vec![]).is_empty());
        assert_eq!(
            merge_cover_pigeonhole(3, std::iter::empty()),
            vec![(0, 0), (1, 1), (2, 2)]
        );
    }

    #[test]
    fn single_interval() {
        assert_eq!(merge_pigeonhole(10, [(2, 5)]), vec![(2, 5)]);
    }

    #[test]
    fn touching_intervals_merge() {
        // Index intervals [0,2] and [2,4] share index 2.
        assert_eq!(merge_pigeonhole(5, [(0, 2), (2, 4)]), vec![(0, 4)]);
    }

    #[test]
    fn adjacent_but_disjoint_stay_separate() {
        // [0,1] and [2,3] have no shared index.
        assert_eq!(merge_pigeonhole(4, [(0, 1), (2, 3)]), vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn nested_and_duplicate() {
        assert_eq!(
            merge_pigeonhole(10, [(0, 9), (2, 3), (0, 9), (5, 6)]),
            vec![(0, 9)]
        );
    }

    #[test]
    fn later_interval_extends_earlier_run() {
        // A chain where the scan must propagate the running maximum.
        assert_eq!(merge_pigeonhole(10, [(0, 3), (1, 7), (6, 9)]), vec![(0, 9)]);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_panics() {
        let _ = merge_pigeonhole(5, [(3, 5)]);
    }

    #[test]
    fn cover_variant_tiles_domain() {
        let cover = merge_cover_pigeonhole(8, [(1, 2), (2, 4)]);
        assert_eq!(cover, vec![(0, 0), (1, 4), (5, 5), (6, 6), (7, 7)]);
        // Union of the cover is the whole domain.
        let covered: usize = cover.iter().map(|&(l, r)| r - l + 1).sum();
        assert_eq!(covered, 8);
    }

    fn arb_intervals() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
        (4usize..60).prop_flat_map(|n| {
            let iv = (0..n)
                .prop_flat_map(move |l| (Just(l), l..n))
                .prop_map(|(l, r)| (l, r));
            (Just(n), proptest::collection::vec(iv, 0..100))
        })
    }

    proptest! {
        #[test]
        fn pigeonhole_matches_sorted((n, ivs) in arb_intervals()) {
            prop_assert_eq!(
                merge_pigeonhole(n, ivs.iter().copied()),
                merge_sorted(ivs.clone())
            );
        }

        #[test]
        fn merged_is_disjoint_and_covers_inputs((n, ivs) in arb_intervals()) {
            let merged = merge_pigeonhole(n, ivs.iter().copied());
            // Ordered output with no shared indices between runs.
            for w in merged.windows(2) {
                prop_assert!(w[0].1 < w[1].0);
            }
            // Every input lies inside exactly one merged interval.
            for &(l, r) in &ivs {
                let host = merged.iter().filter(|&&(ml, mr)| ml <= l && r <= mr).count();
                prop_assert_eq!(host, 1);
            }
        }

        #[test]
        fn cover_restricted_to_nontrivial_matches((n, ivs) in arb_intervals()) {
            // The verbatim cover, with input-free unit intervals removed,
            // equals the union merge — provided unit inputs are kept.
            let cover = merge_cover_pigeonhole(n, ivs.iter().copied());
            let merged = merge_pigeonhole(n, ivs.iter().copied());
            for &(l, r) in &merged {
                // Each merged interval appears in the cover as-is.
                prop_assert!(cover.contains(&(l, r)));
            }
        }
    }
}
