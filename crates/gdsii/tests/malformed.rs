//! A malformed-file corpus for the GDSII parser.
//!
//! Each case derives a corrupt file from a valid serialized library,
//! writes it to disk, and asserts that [`read_file`] reports the
//! expected *typed* error — not just "something failed", and never a
//! panic. The corpus covers the failure classes a checker meets in the
//! wild: truncated headers, lying record lengths, unknown record
//! types, structures the stream never terminates, payload size
//! mismatches, and non-text string payloads.

use odrc_gdsii::record::RecordType;
use odrc_gdsii::stream::index_file;
use odrc_gdsii::{read, read_file, write, Element, Library, ReadError, Structure};
use odrc_geometry::Point;

fn sample_library() -> Library {
    let mut lib = Library::new("corpus");
    let mut leaf = Structure::new("LEAF");
    leaf.elements.push(Element::boundary(
        1,
        vec![
            Point::new(0, 0),
            Point::new(0, 40),
            Point::new(25, 40),
            Point::new(25, 0),
        ],
    ));
    lib.structures.push(leaf);
    let mut top = Structure::new("TOP");
    top.elements.push(Element::Ref(odrc_gdsii::RefElement::sref(
        "LEAF",
        Point::new(100, 0),
    )));
    lib.structures.push(top);
    lib
}

/// Walks the record stream, returning `(offset, total_len, code)` per
/// record — the corruption helpers target records by type code.
fn records(bytes: &[u8]) -> Vec<(usize, usize, u8)> {
    let mut out = Vec::new();
    let mut off = 0;
    while off + 4 <= bytes.len() {
        let len = u16::from_be_bytes([bytes[off], bytes[off + 1]]) as usize;
        if len < 4 {
            break;
        }
        out.push((off, len, bytes[off + 2]));
        off += len;
    }
    out
}

fn find_record(bytes: &[u8], rtype: RecordType) -> (usize, usize) {
    records(bytes)
        .into_iter()
        .find(|&(_, _, code)| code == rtype.code())
        .map(|(off, len, _)| (off, len))
        .unwrap_or_else(|| panic!("sample stream has no {rtype} record"))
}

/// Writes corpus bytes to a uniquely named file and hands its path to
/// `parse`.
fn with_corpus_file<T>(name: &str, bytes: &[u8], parse: impl FnOnce(&std::path::Path) -> T) -> T {
    let dir = std::env::temp_dir().join("odrc-gdsii-malformed");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    let result = parse(&path);
    std::fs::remove_file(&path).unwrap();
    result
}

/// Parses corpus bytes back from disk, through the same record decoder
/// and stream walk the CLI's loader runs on.
fn read_corpus_file(name: &str, bytes: &[u8]) -> Result<Library, ReadError> {
    with_corpus_file(name, bytes, |path| read_file(path))
}

#[test]
fn control_case_parses() {
    let lib = sample_library();
    let bytes = write(&lib).unwrap();
    assert_eq!(read_corpus_file("control.gds", &bytes).unwrap(), lib);
}

#[test]
fn truncated_header() {
    let bytes = write(&sample_library()).unwrap();
    // The file ends inside the very first record header.
    match read_corpus_file("truncated-header.gds", &bytes[..3]).unwrap_err() {
        ReadError::UnexpectedEof { offset: 0 } => {}
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn bad_record_length() {
    let mut bytes = write(&sample_library()).unwrap();
    let (off, _) = find_record(&bytes, RecordType::Units);
    // Odd lengths below the 4-byte header minimum are impossible.
    bytes[off] = 0;
    bytes[off + 1] = 3;
    match read_corpus_file("bad-record-length.gds", &bytes).unwrap_err() {
        ReadError::BadRecordLength { offset, len: 3 } => assert_eq!(offset, off),
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn record_length_past_eof() {
    let mut bytes = write(&sample_library()).unwrap();
    let (off, _) = find_record(&bytes, RecordType::BgnStr);
    // A length that runs past the end of the file.
    bytes[off] = 0xFF;
    bytes[off + 1] = 0xFE;
    match read_corpus_file("length-past-eof.gds", &bytes).unwrap_err() {
        ReadError::UnexpectedEof { offset } => assert_eq!(offset, off),
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn unknown_record_type() {
    let mut bytes = write(&sample_library()).unwrap();
    let (off, _) = find_record(&bytes, RecordType::Boundary);
    bytes[off + 2] = 0xEE;
    match read_corpus_file("unknown-record-type.gds", &bytes).unwrap_err() {
        ReadError::UnknownRecordType { offset, code: 0xEE } => assert_eq!(offset, off),
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn unterminated_structure() {
    let bytes = write(&sample_library()).unwrap();
    // Cut the stream at a record boundary just past the first STRNAME:
    // the structure body never sees an ENDSTR (or anything else).
    let (off, len) = find_record(&bytes, RecordType::StrName);
    match read_corpus_file("unterminated-structure.gds", &bytes[..off + len]).unwrap_err() {
        ReadError::MissingRecord { context } => {
            assert_eq!(context, "reading structure elements");
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn unterminated_element() {
    let bytes = write(&sample_library()).unwrap();
    // Cut right after the first XY record: the boundary never reaches
    // its ENDEL.
    let (off, len) = find_record(&bytes, RecordType::Xy);
    match read_corpus_file("unterminated-element.gds", &bytes[..off + len]).unwrap_err() {
        ReadError::MissingRecord { context } => {
            assert_eq!(context, "reading element properties");
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn wrong_payload_size() {
    let mut bytes = write(&sample_library()).unwrap();
    // Grow the LAYER record from one i16 to two by splicing in two
    // bytes and fixing its declared length: the framing stays valid,
    // but LAYER must carry exactly one i16.
    let (off, len) = find_record(&bytes, RecordType::Layer);
    assert_eq!(len, 6, "LAYER is a 2-byte-payload record");
    bytes[off + 1] = 8;
    bytes.splice(off + len..off + len, [0u8, 0u8]);
    match read_corpus_file("wrong-payload-size.gds", &bytes).unwrap_err() {
        ReadError::BadPayloadLength {
            offset,
            record: RecordType::Layer,
            len: 4,
        } => assert_eq!(offset, off),
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn non_text_string_payload() {
    let mut bytes = write(&sample_library()).unwrap();
    // LIBNAME payload bytes must decode as text; 0xFF never does.
    let (off, len) = find_record(&bytes, RecordType::LibName);
    assert!(len > 4, "LIBNAME carries the library name");
    bytes[off + 4] = 0xFF;
    match read_corpus_file("non-text-string.gds", &bytes).unwrap_err() {
        ReadError::BadString { offset } => assert_eq!(offset, off),
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn malformed_library_headers_fail_alike_everywhere() {
    let bytes = write(&sample_library()).unwrap();
    let (libname, libname_len) = find_record(&bytes, RecordType::LibName);
    let (units, units_len) = find_record(&bytes, RecordType::Units);
    assert_eq!(units_len, 20, "UNITS is two 8-byte reals");
    let resized_units = |payload: usize| {
        let mut b = bytes.clone();
        b[units + 1] = (4 + payload) as u8;
        b.splice(units + 4..units + units_len, vec![0x41; payload]);
        b
    };
    let mut cases = vec![
        ("wrong-first-record", {
            let mut b = bytes.clone();
            b[2] = RecordType::BgnLib.code();
            b
        }),
        ("missing-libname", {
            let mut b = bytes.clone();
            b.drain(libname..libname + libname_len);
            b
        }),
        ("units-8", resized_units(8)),
        ("units-24", resized_units(24)),
    ];
    // EOF inside, and at the end of, each of the four header records.
    for (off, len, _) in records(&bytes).into_iter().take(4) {
        cases.push(("eof-inside", bytes[..off + len / 2].to_vec()));
        cases.push(("eof-after", bytes[..off + len].to_vec()));
    }
    for (i, (name, corrupt)) in cases.iter().enumerate() {
        let expected = read(corrupt).unwrap_err().to_string();
        let file = format!("header-{i}-{name}.gds");
        let indexed = with_corpus_file(&file, corrupt, |path| index_file(path));
        assert_eq!(indexed.unwrap_err().to_string(), expected, "{name}");
        let from_file = read_corpus_file(&file, corrupt);
        assert_eq!(from_file.unwrap_err().to_string(), expected, "{name}");
    }
}

#[test]
fn grammar_violation_inside_structure() {
    let mut bytes = write(&sample_library()).unwrap();
    // Turn the first BOUNDARY into a COLROW: legal record, illegal
    // position.
    let (off, _) = find_record(&bytes, RecordType::Boundary);
    bytes[off + 2] = RecordType::Colrow.code();
    match read_corpus_file("grammar-violation.gds", &bytes).unwrap_err() {
        ReadError::UnexpectedRecord {
            offset,
            record: RecordType::Colrow,
            ..
        } => assert_eq!(offset, off),
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn missing_file_reports_io_error() {
    match read_file("/nonexistent/odrc-missing.gds").unwrap_err() {
        ReadError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("unexpected error {other:?}"),
    }
}
