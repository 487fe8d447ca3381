//! Cross-query consistency of the layout database.

use odrc_db::Layout;
use odrc_gdsii::model::ArrayParams;
use odrc_gdsii::{Element, Library, PathElement, RefElement, Structure, TextElement};
use odrc_geometry::{Point, Rect};
use proptest::prelude::*;

fn rect_el(layer: i16, x: i32, y: i32, w: i32, h: i32) -> Element {
    Element::boundary(
        layer,
        vec![
            Point::new(x, y),
            Point::new(x, y + h),
            Point::new(x + w, y + h),
            Point::new(x + w, y),
        ],
    )
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
/// path and a text, and an unreferenced SPARE cell competes for top.
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
    let bytes = small_stream();
    assert!(Layout::from_gds(&bytes[..]).is_ok());
    for cut in 0..bytes.len() {
        assert!(Layout::from_gds(&bytes[..cut]).is_err(), "cut {cut}");
    }
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = Layout::from_gds(&flipped[..]);
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
}
