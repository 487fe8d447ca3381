//! Heap traffic of the pair rules: enclosure and overlap-area checks
//! measure each inner shape straight from the layer scenes, so a check
//! allocates per rule and per row, not per placement, and its row join
//! holds a few bytes per outer object beyond the scenes.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. The counts are per thread, so the harness's own threads
//! do not disturb them; a one-thread executor runs the whole check on
//! the calling thread.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::sync::Arc;

use odrc::{rule, Engine, EngineOptions, RuleDeck, RuleStatus};
use odrc_db::Layout;
use odrc_gdsii::{Element, Library, Structure};
use odrc_geometry::{Point, Rect};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated less the bytes it freed (a free of
    /// another thread's allocation lowers it too).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`mark`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// `LIVE` at the last [`mark`].
    static MARK: Cell<isize> = const { Cell::new(0) };
}

/// Notes a change of `grow` live bytes, and an allocation if `counted`.
fn note(grow: isize, counted: bool) {
    // `try_with`: the allocator also runs while thread locals are torn
    // down.
    if counted {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grow);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's obligations under `GlobalAlloc` are `System`'s; the
// counters are const-initialized thread locals that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        note(layout.size() as isize, true);
        // SAFETY: forwarded from this method's own caller.
        unsafe { GlobalAlloc::alloc(&System, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        note(layout.size() as isize, true);
        // SAFETY: forwarded from this method's own caller.
        unsafe { GlobalAlloc::alloc_zeroed(&System, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize, true);
        // SAFETY: forwarded from this method's own caller.
        unsafe { GlobalAlloc::realloc(&System, ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        note(-(layout.size() as isize), false);
        // SAFETY: forwarded from this method's own caller.
        unsafe { GlobalAlloc::dealloc(&System, ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Restarts the peak at this thread's live bytes.
fn mark() {
    let live = LIVE.with(Cell::get);
    MARK.with(|m| m.set(live));
    PEAK.with(|p| p.set(live));
}

/// This thread's peak live bytes above the last [`mark`].
fn peak_above_mark() -> isize {
    PEAK.with(Cell::get) - MARK.with(Cell::get)
}

const LANDING: i16 = 1;
const VIA: i16 = 2;
/// Placements of the via cell: `COLS` per row, `ROWS` rows.
const COLS: i32 = 50;
const ROWS: i32 = 40;

/// TOP places VIACELL — a 10 × 10 via centred on a 40 × 40 landing —
/// `COLS × ROWS` times by SREF, 100 dbu apart.
fn layout() -> Layout {
    let rect = |layer, r: Rect| Element::boundary(layer, r.corners().to_vec());
    let mut cell = Structure::new("VIACELL");
    cell.elements
        .push(rect(LANDING, Rect::from_coords(0, 0, 40, 40)));
    cell.elements
        .push(rect(VIA, Rect::from_coords(15, 15, 25, 25)));
    let mut top = Structure::new("TOP");
    for row in 0..ROWS {
        top.elements.extend(
            (0..COLS).map(|col| Element::sref("VIACELL", Point::new(100 * col, 100 * row))),
        );
    }
    let mut lib = Library::new("pairs");
    lib.structures = vec![cell, top];
    Layout::from_library(&lib).expect("valid library")
}

#[test]
fn pair_rules_allocate_per_rule_not_per_placement() {
    let layout = layout();
    let placements = (COLS * ROWS) as usize;
    let engine = Engine::sequential().with_options(EngineOptions {
        host_threads: Some(1),
        ..EngineOptions::default()
    });
    let enclosure = RuleDeck::new(vec![rule()
        .layer(VIA)
        .enclosed_by(LANDING)
        .greater_than(15)
        .named("V.EN.1")]);
    let overlap = RuleDeck::new(vec![rule()
        .layer(VIA)
        .overlapping(LANDING)
        .area_at_least(100)
        .named("V.OV.1")]);
    for (what, deck) in [("enclosure", enclosure), ("overlap-area", overlap)] {
        let (report, n) = allocations(|| engine.check(&layout, &deck));
        // Clean at the boundary: every via measures exactly the minimum.
        assert_eq!(report.violations.len(), 0, "{what}");
        assert_eq!(report.stats.checks_computed, placements, "{what}");
        assert!(
            n < placements / 2,
            "an {what} check of {placements} placements made {n} allocations"
        );
    }
}

/// Live bytes an enclosure rule may hold above its scenes, per outer
/// object of the via grid: the row join's index and hit lists and the
/// inner shapes' MBRs, all in 32-bit indices and borrowed rectangles.
const JOIN_BYTES_PER_OUTER: usize = 64;

#[test]
fn an_enclosure_join_holds_a_few_bytes_per_outer_object() {
    let layout = layout();
    let placements = (COLS * ROWS) as usize;
    // Issue order follows the first layer read: the landing's spacing,
    // then the via's, then the enclosure, whose scenes both spacing
    // rules have built. The peak restarts when the second one is done.
    let deck = RuleDeck::new(vec![
        rule().layer(LANDING).space().greater_than(5).named("L.S.1"),
        rule().layer(VIA).space().greater_than(5).named("V.S.1"),
        rule()
            .layer(VIA)
            .enclosed_by(LANDING)
            .greater_than(15)
            .named("V.EN.1"),
    ]);
    let engine = Engine::sequential()
        .with_options(EngineOptions {
            host_threads: Some(1),
            ..EngineOptions::default()
        })
        .with_progress(Arc::new(|name: &str, status| {
            if name == "V.S.1" && status == RuleStatus::Completed {
                mark();
            }
        }));
    let report = engine.check(&layout, &deck);
    let above = peak_above_mark();
    assert_eq!(report.violations.len(), 0);
    assert_eq!(
        report.stats.scenes_reused, 2,
        "the enclosure reuses both scenes"
    );
    assert_eq!(report.stats.join_candidates, placements as u64);
    assert!(
        above <= (JOIN_BYTES_PER_OUTER * placements) as isize,
        "the enclosure rule held {above} bytes above its scenes for {placements} outer objects"
    );
}
