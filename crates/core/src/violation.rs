//! Design rule violations.

use std::fmt;

use odrc_geometry::Rect;

/// The family of rule a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationKind {
    /// Interior distance between facing edges below the minimum.
    Width,
    /// Exterior distance between facing edges below the minimum.
    Space,
    /// Polygon area below the minimum.
    Area,
    /// Inner-layer shape not enclosed by the outer layer with margin.
    Enclosure,
    /// Overlap area with the other layer below the minimum.
    OverlapArea,
    /// Shape is not rectilinear.
    Rectilinear,
    /// A user-supplied `ensures` predicate failed.
    Ensures,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::Width => "width",
            ViolationKind::Space => "space",
            ViolationKind::Area => "area",
            ViolationKind::Enclosure => "enclosure",
            ViolationKind::OverlapArea => "overlap-area",
            ViolationKind::Rectilinear => "rectilinear",
            ViolationKind::Ensures => "ensures",
        };
        f.write_str(s)
    }
}

/// One design rule violation.
///
/// Violations are value objects with a canonical total order, so the
/// result sets of different engines (sequential, parallel, baselines)
/// can be compared for exact equality — which the test suite does.
///
/// The meaning of [`Violation::measured`] depends on the kind:
///
/// * `Width` / `Space` — the **squared** Euclidean distance between the
///   offending edges, in dbu² (the engine never takes square roots;
///   rules are compared in squared space),
/// * `Area` — the polygon area in dbu²,
/// * `Enclosure` — the worst (smallest) margin in dbu, negative when
///   the inner shape pokes out of the outer layer entirely,
/// * `Rectilinear` / `Ensures` — zero.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Violation {
    /// Name of the violated rule (e.g. `"M2.S.1"`).
    pub rule: String,
    /// Rule family.
    pub kind: ViolationKind,
    /// Bounding box of the offense in top-level coordinates: the hull
    /// of the offending edge pair, or the polygon MBR for per-polygon
    /// rules.
    pub location: Rect,
    /// Measured value (see type-level docs for units per kind).
    pub measured: i64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}) at {}: measured {}",
            self.rule, self.kind, self.location, self.measured
        )
    }
}

/// Sorts and deduplicates violations into canonical order.
///
/// Engines may discover the same offense through different traversals
/// (e.g. a notch found from both sides); canonicalization makes result
/// sets comparable.
pub fn canonicalize(mut violations: Vec<Violation>) -> Vec<Violation> {
    violations.sort_unstable();
    violations.dedup();
    violations
}

/// [`canonicalize`] with the sort fanned out on the host executor:
/// chunks sort in parallel, then a serial chain of pairwise merges and
/// a dedup produce the canonical order. `Violation`'s order is total
/// (every field participates), so equal elements are indistinguishable
/// and the result is byte-identical to the serial sort for any thread
/// count. The chunk count depends on the input size only, never on the
/// executor, and is capped because every chunk is one more pass of the
/// merge chain.
pub fn canonicalize_on(
    host: &odrc_infra::HostExecutor,
    violations: Vec<Violation>,
) -> Vec<Violation> {
    const CHUNK: usize = 4096;
    const MAX_CHUNKS: usize = 4;
    if violations.len() <= CHUNK {
        return canonicalize(violations);
    }
    let n = violations.len();
    let chunks = n.div_ceil(CHUNK).min(MAX_CHUNKS);
    let per = n.div_ceil(chunks);
    let mut parts: Vec<Vec<Violation>> = Vec::with_capacity(chunks);
    let mut rest = violations;
    while rest.len() > per {
        let tail = rest.split_off(rest.len() - per);
        parts.push(tail);
    }
    parts.push(rest);
    let mut sorted = host.run("canonicalize", parts.len(), {
        let cells: Vec<std::sync::Mutex<Vec<Violation>>> =
            parts.into_iter().map(std::sync::Mutex::new).collect();
        move |i| {
            let mut part = std::mem::take(&mut *cells[i].lock().expect("chunk lock"));
            part.sort_unstable();
            part
        }
    });
    // Pairwise merges until one sorted run remains, then dedup.
    while sorted.len() > 1 {
        let b = sorted.pop().expect("len > 1");
        let a = sorted.pop().expect("len > 1");
        sorted.push(merge_sorted(a, b));
    }
    let mut out = sorted.pop().unwrap_or_default();
    out.dedup();
    out
}

fn merge_sorted(a: Vec<Violation>, b: Vec<Violation>) -> Vec<Violation> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ia = a.into_iter().peekable();
    let mut ib = b.into_iter().peekable();
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(x), Some(y)) => {
                if x <= y {
                    out.push(ia.next().expect("peeked"));
                } else {
                    out.push(ib.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.extend(ia.by_ref()),
            (None, _) => {
                out.extend(ib.by_ref());
                return out;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: &str, x: i32) -> Violation {
        Violation {
            rule: rule.to_owned(),
            kind: ViolationKind::Space,
            location: Rect::from_coords(x, 0, x + 5, 5),
            measured: 100,
        }
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        let out = canonicalize(vec![v("b", 10), v("a", 5), v("b", 10), v("a", 0)]);
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn parallel_canonicalize_matches_serial() {
        // Enough duplicates and collisions to exercise merge + dedup,
        // and enough elements to clear the parallel threshold.
        let raw: Vec<Violation> = (0..20_000)
            .map(|i| v(if i % 3 == 0 { "b" } else { "a" }, i % 101))
            .collect();
        let expected = canonicalize(raw.clone());
        for threads in [1, 2, 8] {
            let host = odrc_infra::HostExecutor::new(threads);
            assert_eq!(canonicalize_on(&host, raw.clone()), expected);
        }
    }

    #[test]
    fn display_is_informative() {
        let s = v("M2.S.1", 3).to_string();
        assert!(s.contains("M2.S.1"));
        assert!(s.contains("space"));
        assert!(s.contains("100"));
    }

    #[test]
    fn kind_display() {
        assert_eq!(ViolationKind::Width.to_string(), "width");
        assert_eq!(ViolationKind::Enclosure.to_string(), "enclosure");
    }
}
