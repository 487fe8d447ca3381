//! Heap traffic of a layout load: `Layout::from_gds` allocates one
//! vertex list per polygon it keeps and nothing per reference.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. The count is per thread, so the harness's own threads do
//! not disturb it.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

use odrc_db::Layout;
use odrc_gdsii::model::ArrayParams;
use odrc_gdsii::{Element, Library, RefElement, Structure};
use odrc_geometry::Point;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while thread locals are torn
    // down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's obligations under `GlobalAlloc` are `System`'s; the
// counter is a const-initialized thread local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        note();
        // SAFETY: forwarded from this method's own caller.
        unsafe { GlobalAlloc::alloc(&System, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        note();
        // SAFETY: forwarded from this method's own caller.
        unsafe { GlobalAlloc::alloc_zeroed(&System, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: forwarded from this method's own caller.
        unsafe { GlobalAlloc::realloc(&System, ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
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

/// SREFs placed under TOP.
const SREFS: i32 = 2000;
/// Boundaries: LEAF's rectangle plus TOP's own.
const BOUNDARIES: i32 = 300;
/// What a load may allocate beyond one vertex list per polygon: the
/// refill window, the decode buffers' first growth, cell and interned
/// names, and the amortized growth of the layout's vectors and maps.
const SLACK: usize = 64;

/// TOP holds `SREFS` placements of LEAF, one 40 × 50 AREF of it, and
/// `BOUNDARIES - 1` rectangles of its own; LEAF holds one rectangle.
fn stream() -> Vec<u8> {
    let rect = |x: i32| {
        Element::boundary(
            1,
            vec![
                Point::new(x, 0),
                Point::new(x, 10),
                Point::new(x + 10, 10),
                Point::new(x + 10, 0),
            ],
        )
    };
    let mut leaf = Structure::new("LEAF");
    leaf.elements.push(rect(0));
    let mut top = Structure::new("TOP");
    top.elements
        .extend((0..SREFS).map(|i| Element::sref("LEAF", Point::new(20 * i, 100))));
    let mut array = RefElement::sref("LEAF", Point::new(0, 200));
    array.array = Some(ArrayParams {
        cols: 40,
        rows: 50,
        col_step: Point::new(20, 0),
        row_step: Point::new(0, 20),
    });
    top.elements.push(Element::Ref(array));
    top.elements.extend((1..BOUNDARIES).map(|i| rect(-20 * i)));
    let mut lib = Library::new("allocs");
    lib.structures = vec![top, leaf];
    odrc_gdsii::write(&lib).expect("serialize")
}

#[test]
fn load_allocates_per_polygon_not_per_reference() {
    let bytes = stream();
    let (layout, n) = allocations(|| Layout::from_gds(&bytes[..]).expect("valid stream"));
    let top = layout.cell(layout.top());
    assert_eq!(top.refs().len(), SREFS as usize + 40 * 50);
    let polygons: usize = layout.cells().iter().map(|c| c.polygons().len()).sum();
    assert_eq!(polygons, BOUNDARIES as usize);
    assert!(
        n <= polygons + SLACK,
        "loading {polygons} polygons and {} references made {n} allocations",
        top.refs().len()
    );
}
