//! Cross-query consistency of the layout database.

use odrc_db::{DbError, Layout};
use odrc_gdsii::model::ArrayParams;
use odrc_gdsii::{
    BoundaryElement, Element, Library, PathElement, RefElement, Structure, TextElement,
};
use odrc_geometry::{Point, Rect};
use proptest::prelude::*;

fn rect_bounds(layer: i16, x: i32, y: i32, w: i32, h: i32) -> BoundaryElement {
    BoundaryElement {
        layer,
        datatype: 0,
        points: vec![
            Point::new(x, y),
            Point::new(x, y + h),
            Point::new(x + w, y + h),
            Point::new(x + w, y),
        ],
        properties: vec![],
    }
}

fn rect_el(layer: i16, x: i32, y: i32, w: i32, h: i32) -> Element {
    Element::Boundary(rect_bounds(layer, x, y, w, h))
}

fn arb_library() -> impl Strategy<Value = Library> {
    let rects =
        proptest::collection::vec((1i16..4, -60i32..60, -60i32..60, 1i32..40, 1i32..40), 0..6);
    (
        rects.clone(),
        rects,
        proptest::collection::vec(
            (proptest::bool::ANY, -200i32..200, -200i32..200, 0i32..4),
            0..5,
        ),
    )
        .prop_map(|(ra, rb, places)| {
            let mut lib = Library::new("consistency");
            let mut a = Structure::new("A");
            for (l, x, y, w, h) in ra {
                a.elements.push(rect_el(l, x, y, w, h));
            }
            let mut b = Structure::new("B");
            for (l, x, y, w, h) in rb {
                b.elements.push(rect_el(l, x, y, w, h));
            }
            b.elements.push(Element::sref("A", Point::new(150, 150)));
            lib.structures.push(a);
            lib.structures.push(b);
            let mut top = Structure::new("TOP");
            for (which_b, x, y, rot) in places {
                let mut r = RefElement::sref(if which_b { "B" } else { "A" }, Point::new(x, y));
                r.angle_deg = f64::from(rot) * 90.0;
                top.elements.push(Element::Ref(r));
            }
            top.elements.push(rect_el(1, 0, 0, 10, 10));
            lib.structures.push(top);
            lib
        })
}

/// [`arb_library`] rearranged and grown to cover what a stream can
/// hold beyond rectangles and SREFs: TOP comes first (so every
/// reference is a forward one), B places A through an AREF, A carries a
/// path and a text, and an unreferenced SPARE cell competes for top
/// with a boundary named by `PROPATTR 1`.
fn arb_stream_library() -> impl Strategy<Value = Library> {
    (arb_library(), 1u16..4, 1u16..4, 1i32..6).prop_map(|(base, cols, rows, half)| {
        let [mut a, mut b, top]: [Structure; 3] = base.structures.try_into().expect("A, B, TOP");
        a.elements.push(Element::Path(PathElement {
            layer: 2,
            datatype: 0,
            path_type: 2,
            width: 2 * half,
            points: vec![Point::new(0, 0), Point::new(50, 0), Point::new(50, -30)],
            properties: vec![],
        }));
        a.elements.push(Element::Text(TextElement {
            layer: 63,
            texttype: 0,
            position: Point::new(1, 1),
            string: "pin".to_owned(),
        }));
        let mut array = RefElement::sref("A", Point::new(-300, 40));
        array.mirror_x = true;
        array.array = Some(ArrayParams {
            cols,
            rows,
            col_step: Point::new(90, 0),
            row_step: Point::new(0, 70),
        });
        b.elements.push(Element::Ref(array));
        let mut spare = Structure::new("SPARE");
        spare.elements.push(rect_el(3, 0, 0, 5, 5));
        spare.elements.push(Element::Boundary(BoundaryElement {
            properties: vec![(2, "other".to_owned()), (1, "net7".to_owned())],
            ..rect_bounds(1, 10, 0, 4, 6)
        }));
        let mut lib = Library::new("stream");
        lib.structures = vec![top, b, spare, a];
        lib
    })
}

/// A small fixed stream with one of everything, for exhaustive
/// corruption.
fn small_stream() -> Vec<u8> {
    let mut lib = Library::new("small");
    let mut top = Structure::new("TOP");
    let mut array = RefElement::sref("LEAF", Point::new(10, 10));
    array.array = Some(ArrayParams {
        cols: 2,
        rows: 3,
        col_step: Point::new(40, 0),
        row_step: Point::new(0, 40),
    });
    top.elements.push(Element::Ref(array));
    top.elements.push(Element::Path(PathElement {
        layer: 2,
        datatype: 0,
        path_type: 0,
        width: 4,
        points: vec![Point::new(0, 0), Point::new(20, 0)],
        properties: vec![(1, "net".to_owned())],
    }));
    lib.structures.push(top);
    let mut leaf = Structure::new("LEAF");
    leaf.elements.push(rect_el(1, 0, 0, 10, 10));
    lib.structures.push(leaf);
    odrc_gdsii::write(&lib).expect("serialize")
}

#[test]
fn every_truncation_and_bit_flip_loads_or_errors() {
    // Ok or Err, never a panic. The one allocation sized by a number
    // read from the stream is an AREF's instance list, and the exact
    // pitch check rejects an inflated COLROW before it is expanded.
    // The layout load and the element model read through one decoder,
    // so wherever the load stops at a stream error, `read` stops at
    // the same one (same variant, same offset).
    let bytes = small_stream();
    assert!(Layout::from_gds(&bytes[..]).is_ok());
    for cut in 0..bytes.len() {
        let read = odrc_gdsii::read(&bytes[..cut]).expect_err("a cut stream is unreadable");
        match Layout::from_gds(&bytes[..cut]) {
            Err(DbError::Read(e)) => assert_eq!(format!("{e:?}"), format!("{read:?}"), "cut {cut}"),
            other => panic!("cut {cut}: expected {read:?}, got {other:?}"),
        }
    }
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Err(DbError::Read(e)) = Layout::from_gds(&flipped[..]) {
            let read = odrc_gdsii::read(&flipped).expect_err("the load's stream error");
            assert_eq!(format!("{e:?}"), format!("{read:?}"), "bit {bit}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn streamed_load_equals_library_import(lib in arb_stream_library()) {
        let bytes = odrc_gdsii::write(&lib).expect("serialize");
        let streamed = Layout::from_gds(&bytes[..]).expect("valid stream");
        let imported = Layout::from_library(&lib).expect("valid library");
        prop_assert_eq!(streamed.subtree_hashes(), imported.subtree_hashes());
        prop_assert_eq!(streamed.top(), imported.top());
        prop_assert_eq!(
            odrc_gdsii::write(&streamed.to_library("x")).expect("serialize"),
            odrc_gdsii::write(&imported.to_library("x")).expect("serialize")
        );
    }

    #[test]
    fn instance_count_matches_flatten(lib in arb_library()) {
        let layout = Layout::from_library(&lib).expect("valid library");
        for layer in layout.layers() {
            prop_assert_eq!(
                layout.instance_count(layer),
                layout.flatten_layer(layer).len(),
                "layer {}", layer
            );
        }
    }

    #[test]
    fn window_query_matches_flatten_filter(lib in arb_library()) {
        let layout = Layout::from_library(&lib).expect("valid library");
        let window = Rect::from_coords(-100, -100, 120, 120);
        for layer in layout.layers() {
            let mut queried = Vec::new();
            layout.layer_query(layer, window, |f| queried.push(f.polygon));
            let mut filtered: Vec<_> = layout
                .flatten_layer(layer)
                .into_iter()
                .map(|f| f.polygon)
                .filter(|p| p.mbr().overlaps(window))
                .collect();
            queried.sort_by_key(|p| p.mbr());
            filtered.sort_by_key(|p| p.mbr());
            prop_assert_eq!(queried, filtered, "layer {}", layer);
        }
    }

    #[test]
    fn layer_mbr_bounds_all_instances(lib in arb_library()) {
        let layout = Layout::from_library(&lib).expect("valid library");
        let top = layout.cell(layout.top());
        for layer in layout.layers() {
            let flat = layout.flatten_layer(layer);
            let hull = flat
                .iter()
                .map(|f| f.polygon.mbr())
                .reduce(|a, b| a.hull(b));
            prop_assert_eq!(top.layer_mbr(layer), hull, "layer {}", layer);
        }
    }

    #[test]
    fn gdsii_roundtrip_preserves_layout_queries(lib in arb_library()) {
        let bytes = odrc_gdsii::write(&lib).expect("serialize");
        let back = odrc_gdsii::read(&bytes).expect("parse");
        let l1 = Layout::from_library(&lib).expect("valid");
        let l2 = Layout::from_library(&back).expect("valid");
        prop_assert_eq!(l1.layers(), l2.layers());
        for layer in l1.layers() {
            prop_assert_eq!(l1.flatten_layer(layer), l2.flatten_layer(layer));
        }
    }

    #[test]
    fn to_gds_streams_the_library_export(lib in arb_stream_library()) {
        let layout = Layout::from_library(&lib).expect("valid library");
        let sub = layout.top_subtree();
        // Every cell of `sub` is reachable from its top.
        prop_assert_eq!(sub.top_subtree().cell_count(), sub.cell_count());
        for l in [&layout, &sub] {
            prop_assert_eq!(
                l.to_gds("x").expect("encode"),
                odrc_gdsii::write(&l.to_library("x")).expect("serialize")
            );
        }
    }

    #[test]
    fn top_subtree_round_trips_through_to_gds(lib in arb_library(), spare in arb_stream_library()) {
        // `arb_library` leaves B unreferenced when TOP places only A, and
        // then B, the larger subtree, may win the top: the subtree of
        // TOP must still decode with TOP on top. SPARE is never reached.
        let mut lib = lib;
        lib.structures.extend(spare.structures.into_iter().filter(|s| s.name == "SPARE"));
        let layout = Layout::from_library_with_top(&lib, "TOP").expect("valid library");
        let sub = layout.top_subtree();
        prop_assert!(sub.consistency_errors().is_empty(), "{:?}", sub.consistency_errors());
        prop_assert!(sub.cell_by_name("SPARE").is_none());
        let back = Layout::from_gds(&sub.to_gds("sub").expect("encode")[..]).expect("decodes");
        prop_assert_eq!(back.cell(back.top()).name(), "TOP");
        let names = |l: &Layout| l.cells().iter().map(|c| c.name().to_owned()).collect::<Vec<_>>();
        prop_assert_eq!(names(&back), names(&sub));
        prop_assert_eq!(back.subtree_hashes(), sub.subtree_hashes());
        let top_hash = |l: &Layout| l.subtree_hashes()[l.top().index()];
        prop_assert_eq!(top_hash(&sub), top_hash(&layout));
    }
}
