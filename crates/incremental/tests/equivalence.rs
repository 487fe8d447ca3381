//! The incremental correctness anchor: for ANY edit sequence,
//! `Session::check` must report exactly the violations a from-scratch
//! `Engine::check` reports on the edited layout — in both modes, with
//! pruning on and off. 100 randomized cases per mode. A device-mode
//! delta runs the engine's own issue/collect/recovery calls, so it is
//! also held to the fault contract: under any seeded fault schedule it
//! reports what a clean sequential delta reports.

use odrc::{rules::rule, Engine, EngineOptions, RuleDeck};
use odrc_db::{CellId, CellRef, LayerPolygon, Layout};
use odrc_gdsii::{Element, Library, Structure};
use odrc_geometry::{Point, Polygon, Rect, Rotation, Transform};
use odrc_incremental::{EditOp, Session};
use odrc_xpu::{Device, FaultPlan};
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
    leaf.elements.push(Element::boundary(
        1,
        vec![
            Point::new(0, 0),
            Point::new(0, 20),
            Point::new(20, 20),
            Point::new(20, 0),
        ],
    ));
    leaf.elements.push(Element::boundary(
        2,
        vec![
            Point::new(6, 6),
            Point::new(6, 12),
            Point::new(12, 12),
            Point::new(12, 6),
        ],
    ));
    lib.structures.push(leaf);
    let mut mid = Structure::new("MID");
    mid.elements.push(Element::sref("LEAF", Point::new(4, 4)));
    mid.elements.push(Element::boundary(
        1,
        vec![
            Point::new(40, 0),
            Point::new(40, 30),
            Point::new(70, 30),
            Point::new(70, 0),
        ],
    ));
    lib.structures.push(mid);
    let mut top = Structure::new("TOP");
    top.elements.push(Element::sref("MID", Point::new(0, 0)));
    top.elements.push(Element::sref("LEAF", Point::new(100, 0)));
    top.elements.push(Element::sref("LEAF", Point::new(0, 60)));
    lib.structures.push(top);
    Layout::from_library(&lib).unwrap()
}

/// Every rule kind the engine supports, with thresholds tight enough
/// that random rects regularly violate and regularly pass.
fn deck() -> RuleDeck {
    RuleDeck::new(vec![
        rule().layer(1).space().greater_than(12).named("L1.S.1"),
        rule()
            .layer(1)
            .space()
            .when_projection_at_least(6)
            .greater_than(16)
            .named("L1.S.2"),
        rule().layer(2).space().greater_than(8).named("L2.S.1"),
        rule().layer(1).width().greater_than(8).named("L1.W.1"),
        rule().layer(1).area().greater_than(100).named("L1.A.1"),
        rule()
            .layer(2)
            .enclosed_by(1)
            .greater_than(3)
            .named("L2.L1.EN.1"),
        rule()
            .layer(2)
            .overlapping(1)
            .area_at_least(10)
            .named("L2.L1.OV.1"),
        rule().polygons().is_rectilinear(),
    ])
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

fn run_case(make_engine: &dyn Fn() -> Engine, pruning: bool, ops: &[Op]) -> Result<(), String> {
    let options = EngineOptions {
        pruning,
        ..EngineOptions::default()
    };
    let engine = make_engine().with_options(options.clone());
    let mut session = Session::new(base_layout(), engine, deck());
    session.check();
    for op in ops {
        if let Some(edit) = map_op(session.layout(), op) {
            // The database may still reject (e.g. a would-be cycle);
            // rejections must leave the layout untouched.
            let _ = session.apply(edit);
        }
        let errors = session.layout().consistency_errors();
        if !errors.is_empty() {
            return Err(format!(
                "inconsistent db after {op:?}: {}",
                errors.join("\n")
            ));
        }
        let incremental = session.check();
        let scratch = make_engine()
            .with_options(options.clone())
            .check(session.layout(), &deck());
        if incremental.violations != scratch.violations {
            return Err(format!(
                "divergence after {op:?} (pruning={pruning}): incremental {} vs scratch {}",
                incremental.violations.len(),
                scratch.violations.len()
            ));
        }
        // The delta must reconcile with the full set.
        if incremental.delta.unchanged_count + incremental.delta.added.len()
            != incremental.violations.len()
        {
            return Err(format!("delta bookkeeping broken after {op:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]
    #[test]
    fn sequential_session_equals_from_scratch(
        ops in proptest::collection::vec(arb_op(), 1..8),
        pruning in proptest::bool::ANY,
    ) {
        if let Err(msg) = run_case(&Engine::sequential, pruning, &ops) {
            prop_assert!(false, "{}", msg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]
    #[test]
    fn parallel_session_equals_from_scratch(
        ops in proptest::collection::vec(arb_op(), 1..8),
        pruning in proptest::bool::ANY,
    ) {
        if let Err(msg) = run_case(&|| Engine::parallel_on(Device::new(2)), pruning, &ops) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Device-mode deltas under a seeded fault schedule against clean
/// sequential deltas over the same edits: same violations, same delta,
/// and degradation reported exactly when a fault fired.
fn faulted_case(fault_seed: u64, ops: &[Op]) -> Result<(), String> {
    let options = EngineOptions {
        ..EngineOptions::default()
    };
    let device = Device::new(2);
    let mut clean = Session::new(
        base_layout(),
        Engine::sequential().with_options(options.clone()),
        deck(),
    );
    let mut faulted = Session::new(
        base_layout(),
        Engine::parallel_on(device.clone()).with_options(options),
        deck(),
    );
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
        if got.violations != want.violations || got.delta != want.delta {
            return Err(format!(
                "fault seed {fault_seed} changed the delta after {op:?}: {} vs {} violations",
                got.violations.len(),
                want.violations.len()
            ));
        }
        degraded |= got.stats.degraded();
    }
    if degraded != (device.faults_injected() > 0) {
        return Err(format!(
            "fault seed {fault_seed}: degraded {degraded} with {} fault(s) injected",
            device.faults_injected()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]
    #[test]
    fn parallel_delta_survives_fault_injection(
        ops in proptest::collection::vec(arb_op(), 1..8),
        fault_seed in 0u64..200,
    ) {
        if let Err(msg) = faulted_case(fault_seed, &ops) {
            prop_assert!(false, "{}", msg);
        }
    }
}
