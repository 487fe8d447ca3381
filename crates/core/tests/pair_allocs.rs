//! Heap traffic of the scenes and of the rules that read them: a scene
//! copies each placed cell's polygons once and stores no frame
//! rectangle (its object's MBR is the rectangle); a spacing rule holds
//! no copy of the placements its templates are replayed through; and
//! enclosure and overlap-area checks measure each inner shape straight
//! from the layer scenes, so a check allocates per rule and per row,
//! not per placement, and its row join holds a few bytes per outer
//! object beyond the scenes.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. The counts are per thread, so the harness's own threads
//! do not disturb them; a one-thread executor runs the whole check on
//! the calling thread.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::sync::Arc;

use odrc::scene::{LayerScene, SceneSource};
use odrc::{rule, Engine, EngineOptions, RuleDeck, RuleStatus};
use odrc_db::Layout;
use odrc_gdsii::{Element, Library, Structure};
use odrc_geometry::{Point, Rect};
use odrc_infra::HostExecutor;
use odrc_layoutgen::{generate_layout, tech, DesignSpec};

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

/// Allocations a scene build may make beyond its cell copies and
/// stored frame polygons: the walk, the object and index vectors and
/// their growth.
const SCENE_SLACK: usize = 64;

#[test]
fn a_scene_allocates_per_cell_and_stored_polygon_not_per_frame_rectangle() {
    let layout = generate_layout(&DesignSpec::paper("uart").expect("paper design"));
    let host = HostExecutor::new(1);
    // A one-level design: the top cell is the only frame.
    let top = layout.cell(layout.top());
    let mut most_rects = 0;
    for layer in layout.layers() {
        let (scene, n) = allocations(|| LayerScene::build_on(&layout, layer, None, &host));
        let drawn = top.polygons().iter().filter(|p| p.layer == layer);
        let rects = drawn.clone().filter(|p| p.polygon.len() == 4).count();
        let stored = drawn.count() - rects;
        // Each placed cell: its polygon list and each polygon.
        let cells: usize = (scene.placed_cells())
            .map(|c| 1 + scene.local_polygons(c).len())
            .sum();
        let kept = scene
            .objects
            .iter()
            .filter(|o| o.source == SceneSource::TopRect);
        assert_eq!(kept.count(), rects, "layer {layer}");
        assert!(
            n <= cells + stored + SCENE_SLACK,
            "layer {layer}: {n} allocations for {cells} cell copies, {stored} stored and {rects} rectangle frame polygons"
        );
        most_rects = most_rects.max(rects);
    }
    // Not vacuous: one allocation per frame rectangle breaks the bound.
    assert!(
        most_rects > 4 * SCENE_SLACK,
        "{most_rects} frame rectangles"
    );
}

/// Live bytes a spacing rule may hold above its scene, per object: the
/// partition and the pack's working set. A template that copied its
/// placements' transforms (16 bytes each) would exceed it.
const SPACE_BYTES_PER_OBJECT: usize = 36;

#[test]
fn a_spacing_rule_holds_no_copy_of_its_placements() {
    let layout = generate_layout(&DesignSpec::paper("uart").expect("paper design"));
    // Both rules read one memoized M1 scene; the peak restarts when the
    // first is done, so the second's is measured above its scene.
    let deck = RuleDeck::new(vec![
        rule()
            .layer(tech::M1)
            .space()
            .greater_than(17)
            .named("M1.S.17"),
        rule()
            .layer(tech::M1)
            .space()
            .greater_than(18)
            .named("M1.S.18"),
    ]);
    let engine = Engine::sequential()
        .with_options(EngineOptions {
            host_threads: Some(1),
            ..EngineOptions::default()
        })
        .with_progress(Arc::new(|name: &str, status| {
            if name == "M1.S.17" && status == RuleStatus::Completed {
                mark();
            }
        }));
    let report = engine.check(&layout, &deck);
    let above = peak_above_mark();
    assert_eq!(
        report.stats.scenes_reused, 1,
        "the second rule reuses the scene"
    );
    let scene = LayerScene::build_on(&layout, tech::M1, None, &HostExecutor::new(1));
    let objects = scene.objects.len();
    let placed = (scene.objects.iter())
        .filter(|o| matches!(o.source, SceneSource::Cell { .. }))
        .count();
    assert!(
        placed * 2 > objects,
        "mostly placements: {placed} of {objects}"
    );
    assert!(
        above <= (SPACE_BYTES_PER_OBJECT * objects) as isize,
        "the spacing rule held {above} bytes above its scene for {objects} objects"
    );
}
