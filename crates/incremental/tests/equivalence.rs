//! The incremental correctness anchor: for ANY edit sequence,
//! `Session::check` must report exactly the violations a from-scratch
//! `Engine::check` reports on the edited layout — in both modes, with
//! pruning on and off. 100 randomized cases per mode. A device-mode
//! delta runs the engine's own issue/collect/recovery calls, so it is
//! also held to the fault contract: under any seeded fault schedule it
//! reports what a clean sequential delta reports.

use odrc_db::{CellId, CellRef, LayerPolygon, Layout};
use odrc_gdsii::{Element, Library, Structure};
use odrc_geometry::{Point, Polygon, Rect, Rotation, Transform};
use odrc_incremental::{EditOp, Session};
use odrc_testkit::layouts::rect_el;
use odrc_testkit::{decks, Config};
use odrc_xpu::FaultPlan;
use proptest::prelude::*;

/// A randomized edit over the live layout. Raw targets are reduced
/// modulo the live cell/entry counts at apply time so most generated
/// ops are applicable; the few the database still rejects (cycles) are
/// skipped without mutating.
#[derive(Debug, Clone)]
enum Op {
    AddRef {
        parent: usize,
        child: usize,
        dx: i32,
        dy: i32,
        rot: i32,
        mirror: bool,
    },
    RemoveRef {
        parent: usize,
        index: usize,
    },
    MoveRef {
        parent: usize,
        index: usize,
        dx: i32,
        dy: i32,
    },
    AddPolygon {
        cell: usize,
        layer: u8,
        x: i32,
        y: i32,
        w: i32,
        h: i32,
    },
    RemovePolygon {
        cell: usize,
        index: usize,
    },
    ReplacePolygon {
        cell: usize,
        index: usize,
        layer: u8,
        x: i32,
        y: i32,
        w: i32,
        h: i32,
    },
    SwapDefinition {
        cell: usize,
        layer: u8,
        x: i32,
        y: i32,
        w: i32,
        h: i32,
        keep_refs: bool,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0usize..8,
            0usize..8,
            -80i32..80,
            -80i32..80,
            0i32..4,
            proptest::bool::ANY
        )
            .prop_map(|(parent, child, dx, dy, rot, mirror)| Op::AddRef {
                parent,
                child,
                dx,
                dy,
                rot,
                mirror
            }),
        (0usize..8, 0usize..8).prop_map(|(parent, index)| Op::RemoveRef { parent, index }),
        (0usize..8, 0usize..8, -80i32..80, -80i32..80).prop_map(|(parent, index, dx, dy)| {
            Op::MoveRef {
                parent,
                index,
                dx,
                dy,
            }
        }),
        (
            0usize..8,
            1u8..3,
            -60i32..60,
            -60i32..60,
            2i32..30,
            2i32..30
        )
            .prop_map(|(cell, layer, x, y, w, h)| Op::AddPolygon {
                cell,
                layer,
                x,
                y,
                w,
                h
            }),
        (0usize..8, 0usize..8).prop_map(|(cell, index)| Op::RemovePolygon { cell, index }),
        (
            0usize..8,
            0usize..8,
            1u8..3,
            -60i32..60,
            -60i32..60,
            2i32..30,
            2i32..30
        )
            .prop_map(|(cell, index, layer, x, y, w, h)| Op::ReplacePolygon {
                cell,
                index,
                layer,
                x,
                y,
                w,
                h
            }),
        (
            0usize..8,
            1u8..3,
            -60i32..60,
            -60i32..60,
            2i32..30,
            2i32..30,
            proptest::bool::ANY
        )
            .prop_map(|(cell, layer, x, y, w, h, keep_refs)| Op::SwapDefinition {
                cell,
                layer,
                x,
                y,
                w,
                h,
                keep_refs
            }),
    ]
}

fn rect_poly(layer: u8, x: i32, y: i32, w: i32, h: i32) -> LayerPolygon {
    LayerPolygon {
        layer: i16::from(layer),
        datatype: 0,
        polygon: Polygon::rect(Rect::from_coords(x, y, x + w, y + h)),
        name: None,
    }
}

/// TOP -> {MID, LEAF x2}, MID -> LEAF. Layer 1 carries wide shapes,
/// layer 2 small ones, so every deck rule can fire as edits land.
fn base_layout() -> Layout {
    let mut lib = Library::new("equivalence");
    let mut leaf = Structure::new("LEAF");
    leaf.elements.push(rect_el(1, 0, 0, 20, 20));
    leaf.elements.push(rect_el(2, 6, 6, 12, 12));
    lib.structures.push(leaf);
    let mut mid = Structure::new("MID");
    mid.elements.push(Element::sref("LEAF", Point::new(4, 4)));
    mid.elements.push(rect_el(1, 40, 0, 70, 30));
    lib.structures.push(mid);
    let mut top = Structure::new("TOP");
    top.elements.push(Element::sref("MID", Point::new(0, 0)));
    top.elements.push(Element::sref("LEAF", Point::new(100, 0)));
    top.elements.push(Element::sref("LEAF", Point::new(0, 60)));
    lib.structures.push(top);
    Layout::from_library(&lib).unwrap()
}

/// Maps a raw op onto live entries, or `None` when the target list is
/// empty.
fn map_op(layout: &Layout, op: &Op) -> Option<EditOp> {
    let ncells = layout.cell_count();
    let cell_at = |i: usize| CellId::from_index(i % ncells);
    match *op {
        Op::AddRef {
            parent,
            child,
            dx,
            dy,
            rot,
            mirror,
        } => Some(EditOp::AddRef {
            parent: cell_at(parent),
            child: cell_at(child),
            transform: Transform::new(
                mirror,
                Rotation::from_quarter_turns(rot),
                1,
                Point::new(dx, dy),
            ),
        }),
        Op::RemoveRef { parent, index } => {
            let p = cell_at(parent);
            let n = layout.cell(p).refs().len();
            (n > 0).then(|| EditOp::RemoveRef {
                parent: p,
                index: index % n,
            })
        }
        Op::MoveRef {
            parent,
            index,
            dx,
            dy,
        } => {
            let p = cell_at(parent);
            let n = layout.cell(p).refs().len();
            (n > 0).then(|| EditOp::MoveRef {
                parent: p,
                index: index % n,
                transform: Transform::translation(Point::new(dx, dy)),
            })
        }
        Op::AddPolygon {
            cell,
            layer,
            x,
            y,
            w,
            h,
        } => Some(EditOp::AddPolygon {
            cell: cell_at(cell),
            polygon: rect_poly(layer, x, y, w, h),
        }),
        Op::RemovePolygon { cell, index } => {
            let c = cell_at(cell);
            let n = layout.cell(c).polygons().len();
            (n > 0).then(|| EditOp::RemovePolygon {
                cell: c,
                index: index % n,
            })
        }
        Op::ReplacePolygon {
            cell,
            index,
            layer,
            x,
            y,
            w,
            h,
        } => {
            let c = cell_at(cell);
            let n = layout.cell(c).polygons().len();
            (n > 0).then(|| EditOp::ReplacePolygon {
                cell: c,
                index: index % n,
                polygon: rect_poly(layer, x, y, w, h),
            })
        }
        Op::SwapDefinition {
            cell,
            layer,
            x,
            y,
            w,
            h,
            keep_refs,
        } => {
            let c = cell_at(cell);
            let refs: Vec<CellRef> = if keep_refs {
                layout.cell(c).refs().to_vec()
            } else {
                Vec::new()
            };
            Some(EditOp::SwapDefinition {
                cell: c,
                polygons: vec![rect_poly(layer, x, y, w, h)],
                refs,
            })
        }
    }
}

/// A session in `config` checked after every op of `ops` against a
/// fresh full check of the edited layout in the same cell.
fn run_case(config: Config, ops: &[Op]) {
    let mut session = Session::new(base_layout(), config.engine(), decks::edits());
    session.check();
    for op in ops {
        if let Some(edit) = map_op(session.layout(), op) {
            // The database may still reject (e.g. a would-be cycle);
            // rejections must leave the layout untouched.
            let _ = session.apply(edit);
        }
        let errors = session.layout().consistency_errors();
        assert!(
            errors.is_empty(),
            "inconsistent db after {op:?}: {}",
            errors.join("\n")
        );
        let incremental = session.check();
        let scratch = config.check(session.layout(), &decks::edits());
        let what = format!("{config:?} after {op:?}");
        assert_eq!(incremental.violations, scratch.violations, "{what}");
        // The delta must reconcile with the full set.
        let delta = &incremental.delta;
        assert_eq!(
            delta.unchanged_count + delta.added.len(),
            incremental.violations.len(),
            "delta bookkeeping broken after {op:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]
    #[test]
    fn sequential_session_equals_from_scratch(
        ops in proptest::collection::vec(arb_op(), 1..8),
        pruning in proptest::bool::ANY,
    ) {
        run_case(Config::seq().pruning(pruning), &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]
    #[test]
    fn parallel_session_equals_from_scratch(
        ops in proptest::collection::vec(arb_op(), 1..8),
        pruning in proptest::bool::ANY,
    ) {
        run_case(Config::par().device(2).pruning(pruning), &ops);
    }
}

/// Device-mode deltas under a seeded fault schedule against clean
/// sequential deltas over the same edits: same violations, same delta,
/// and degradation reported exactly when a fault fired.
fn faulted_case(fault_seed: u64, ops: &[Op]) {
    let engine = Config::par().device(2).engine();
    let device = engine.device().clone();
    let mut clean = Session::new(base_layout(), Config::seq().engine(), decks::edits());
    let mut faulted = Session::new(base_layout(), engine, decks::edits());
    clean.check();
    faulted.check();
    // Only the deltas run under faults; the ordinals are device-wide,
    // so the schedule spreads over the session's checks.
    device.set_fault_plan(Some(FaultPlan::from_seed(fault_seed, 6)));
    let mut degraded = false;
    for op in ops {
        if let Some(edit) = map_op(clean.layout(), op) {
            let _ = clean.apply(edit.clone());
            let _ = faulted.apply(edit);
        }
        let want = clean.check();
        let got = faulted.check();
        let what = format!("fault seed {fault_seed} after {op:?}");
        let (got_delta, want_delta) = (
            (&got.violations, &got.delta),
            (&want.violations, &want.delta),
        );
        assert_eq!(got_delta, want_delta, "{what}");
        degraded |= got.stats.degraded();
    }
    assert_eq!(
        degraded,
        device.faults_injected() > 0,
        "fault seed {fault_seed}: degraded iff a fault fired ({} injected)",
        device.faults_injected()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]
    #[test]
    fn parallel_delta_survives_fault_injection(
        ops in proptest::collection::vec(arb_op(), 1..8),
        fault_seed in 0u64..200,
    ) {
        faulted_case(fault_seed, &ops);
    }
}
