//! GDSII stream parser.

use std::fmt;
use std::io::Read;
use std::path::Path;

use odrc_geometry::Point;

use crate::model::{
    ArrayParams, BoundaryElement, Element, Library, PathElement, RefElement, Structure,
    TextElement, Units,
};
use crate::record::{real8_to_f64, RecordType};

/// Error produced while parsing a GDSII stream.
///
/// Every variant carries the byte offset of the offending record so
/// corrupt files can be diagnosed with a hex dump.
#[derive(Debug)]
pub enum ReadError {
    /// The stream ended inside a record.
    UnexpectedEof {
        /// Offset where more bytes were required.
        offset: usize,
    },
    /// A record header declared an impossible length.
    BadRecordLength {
        /// Offset of the record header.
        offset: usize,
        /// The declared total length.
        len: u16,
    },
    /// A record type byte is not part of the format.
    UnknownRecordType {
        /// Offset of the record header.
        offset: usize,
        /// The unknown type byte.
        code: u8,
    },
    /// A known record carried the wrong payload size for its type.
    BadPayloadLength {
        /// Offset of the record header.
        offset: usize,
        /// The record type.
        record: RecordType,
        /// Actual payload size in bytes.
        len: usize,
    },
    /// A record appeared where the grammar does not allow it.
    UnexpectedRecord {
        /// Offset of the record header.
        offset: usize,
        /// The record type found.
        record: RecordType,
        /// What the parser was doing.
        context: &'static str,
    },
    /// The stream ended before the grammar was complete.
    MissingRecord {
        /// What the parser was expecting.
        context: &'static str,
    },
    /// An `AREF` lattice vector does not divide evenly by its count (or
    /// the quotient is not a coordinate).
    NonIntegerArrayPitch {
        /// Offset of the `XY` record.
        offset: usize,
    },
    /// `COLROW` holds non-positive counts.
    BadColrow {
        /// Offset of the record.
        offset: usize,
        /// Declared column count.
        cols: i16,
        /// Declared row count.
        rows: i16,
    },
    /// A string payload is not valid ASCII/UTF-8.
    BadString {
        /// Offset of the record.
        offset: usize,
    },
    /// Underlying I/O failure (file input only).
    Io(std::io::Error),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of stream at byte {offset}")
            }
            ReadError::BadRecordLength { offset, len } => {
                write!(f, "record at byte {offset} declares invalid length {len}")
            }
            ReadError::UnknownRecordType { offset, code } => {
                write!(f, "unknown record type {code:#04x} at byte {offset}")
            }
            ReadError::BadPayloadLength {
                offset,
                record,
                len,
            } => write!(
                f,
                "record {record} at byte {offset} has invalid payload length {len}"
            ),
            ReadError::UnexpectedRecord {
                offset,
                record,
                context,
            } => write!(f, "unexpected {record} at byte {offset} while {context}"),
            ReadError::MissingRecord { context } => {
                write!(f, "stream ended while {context}")
            }
            ReadError::NonIntegerArrayPitch { offset } => {
                write!(f, "AREF at byte {offset} has a non-integer lattice pitch")
            }
            ReadError::BadColrow { offset, cols, rows } => {
                write!(f, "AREF at byte {offset} has invalid COLROW {cols}x{rows}")
            }
            ReadError::BadString { offset } => {
                write!(f, "string record at byte {offset} is not valid text")
            }
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// One raw record: offset, type, payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawRecord<'a> {
    offset: usize,
    pub(crate) rtype: RecordType,
    data: &'a [u8],
}

impl<'a> RawRecord<'a> {
    /// The payload as a sequence of `N`-byte big-endian values.
    fn values<const N: usize, T>(
        &self,
        decode: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, ReadError> {
        if !self.data.len().is_multiple_of(N) {
            return Err(self.bad_len());
        }
        Ok(self
            .data
            .chunks_exact(N)
            .map(|c| decode(c.try_into().expect("chunk of N")))
            .collect())
    }

    /// The payload as exactly one `N`-byte value.
    fn single<const N: usize>(&self) -> Result<[u8; N], ReadError> {
        self.data.try_into().map_err(|_| self.bad_len())
    }

    fn single_i16(&self) -> Result<i16, ReadError> {
        self.single().map(i16::from_be_bytes)
    }

    fn single_i32(&self) -> Result<i32, ReadError> {
        self.single().map(i32::from_be_bytes)
    }

    fn reals(&self) -> Result<Vec<f64>, ReadError> {
        self.values(real8_to_f64)
    }

    fn string(&self) -> Result<String, ReadError> {
        let trimmed: &[u8] = match self.data.iter().rposition(|&b| b != 0) {
            Some(last) => &self.data[..=last],
            None => &[],
        };
        String::from_utf8(trimmed.to_vec()).map_err(|_| ReadError::BadString {
            offset: self.offset,
        })
    }

    fn points(&self) -> Result<Vec<Point>, ReadError> {
        self.values(|c: [u8; 8]| {
            Point::new(
                i32::from_be_bytes([c[0], c[1], c[2], c[3]]),
                i32::from_be_bytes([c[4], c[5], c[6], c[7]]),
            )
        })
    }

    fn bad_len(&self) -> ReadError {
        ReadError::BadPayloadLength {
            offset: self.offset,
            record: self.rtype,
            len: self.data.len(),
        }
    }

    pub(crate) fn unexpected(&self, context: &'static str) -> ReadError {
        ReadError::UnexpectedRecord {
            offset: self.offset,
            record: self.rtype,
            context,
        }
    }
}

/// Refill window of [`Parser`]. A record is at most 65 534 bytes, so
/// after compaction the window always has room for a whole one.
const WINDOW: usize = 128 * 1024;

/// The record decoder: pulls from any byte source through a fixed
/// refill window and exposes one whole record at a time.
pub(crate) struct Parser<R> {
    src: R,
    buf: Vec<u8>,
    /// `buf[pos..end]` is read but not yet consumed.
    pos: usize,
    end: usize,
    /// Stream offset of `buf[0]`.
    base: usize,
    /// The current record: header offset, type, payload start in `buf`
    /// (the payload runs up to `pos`).
    record: (usize, RecordType, usize),
}

impl<R: Read> Parser<R> {
    pub(crate) fn new(src: R) -> Self {
        Parser {
            src,
            buf: vec![0; WINDOW],
            pos: 0,
            end: 0,
            base: 0,
            record: (0, RecordType::Header, 0),
        }
    }

    /// Stream offset of the next unconsumed byte.
    pub(crate) fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Buffers `need` unconsumed bytes; `false` when the source ends
    /// first.
    fn fill(&mut self, need: usize) -> Result<bool, ReadError> {
        while self.end - self.pos < need {
            if self.pos + need > self.buf.len() {
                self.buf.copy_within(self.pos..self.end, 0);
                self.base += self.pos;
                self.end -= self.pos;
                self.pos = 0;
            }
            match self.src.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(true)
    }

    /// Whether everything up to the end of the stream is zero
    /// (consuming it): trailing NUL padding after ENDLIB (tape blocks)
    /// is tolerated, anything else there is not.
    fn rest_is_zero(&mut self) -> Result<bool, ReadError> {
        loop {
            if self.buf[self.pos..self.end].iter().any(|&b| b != 0) {
                return Ok(false);
            }
            self.pos = self.end;
            if !self.fill(1)? {
                return Ok(true);
            }
        }
    }

    /// Decodes the next record header and buffers its payload; `None`
    /// at a clean end of stream.
    fn advance(&mut self) -> Result<Option<RecordType>, ReadError> {
        let start = self.offset();
        if !self.fill(4)? {
            if self.rest_is_zero()? {
                return Ok(None);
            }
            return Err(ReadError::UnexpectedEof { offset: start });
        }
        let len = u16::from_be_bytes([self.buf[self.pos], self.buf[self.pos + 1]]);
        // A zero length word is padding iff nothing but zeros follows.
        if len == 0 && self.rest_is_zero()? {
            return Ok(None);
        }
        if len < 4 || !len.is_multiple_of(2) {
            return Err(ReadError::BadRecordLength { offset: start, len });
        }
        if !self.fill(usize::from(len))? {
            return Err(ReadError::UnexpectedEof { offset: start });
        }
        let code = self.buf[self.pos + 2];
        let rtype = RecordType::from_code(code).ok_or(ReadError::UnknownRecordType {
            offset: start,
            code,
        })?;
        self.record = (start, rtype, self.pos + 4);
        self.pos += usize::from(len);
        Ok(Some(rtype))
    }

    /// The record [`Parser::advance`] stopped at. It borrows the
    /// window, so it cannot be held across the next `advance`.
    fn current(&self) -> RawRecord<'_> {
        let (offset, rtype, data) = self.record;
        RawRecord {
            offset,
            rtype,
            data: &self.buf[data..self.pos],
        }
    }

    /// Reads the next raw record, or `None` at a clean end of stream.
    pub(crate) fn next(&mut self) -> Result<Option<RawRecord<'_>>, ReadError> {
        Ok(self.advance()?.map(|_| self.current()))
    }

    pub(crate) fn next_required(
        &mut self,
        context: &'static str,
    ) -> Result<RawRecord<'_>, ReadError> {
        self.next()?.ok_or(ReadError::MissingRecord { context })
    }

    fn expect(
        &mut self,
        rtype: RecordType,
        context: &'static str,
    ) -> Result<RawRecord<'_>, ReadError> {
        let rec = self.next_required(context)?;
        if rec.rtype != rtype {
            return Err(rec.unexpected(context));
        }
        Ok(rec)
    }

    /// The next library-level record: `BGNSTR` opens a structure
    /// (`Some`, see [`Parser::structure_name`]), `ENDLIB` ends the
    /// stream (`None`).
    pub(crate) fn next_structure(&mut self) -> Result<Option<(String, usize)>, ReadError> {
        let rec = self.next_required("reading structures")?;
        match rec.rtype {
            RecordType::BgnStr => self.structure_name().map(Some),
            RecordType::EndLib => Ok(None),
            _ => Err(rec.unexpected("reading structures")),
        }
    }

    /// `STRNAME`: the open structure's name and the record's offset,
    /// where a [`crate::stream::StructureEntry`] span starts.
    pub(crate) fn structure_name(&mut self) -> Result<(String, usize), ReadError> {
        let rec = self.expect(RecordType::StrName, "reading structure name")?;
        Ok((rec.string()?, rec.offset))
    }

    /// The next element of the open structure, or `None` at `ENDSTR`.
    pub(crate) fn next_element(&mut self) -> Result<Option<Element>, ReadError> {
        let rec = self.next_required("reading structure elements")?;
        let offset = rec.offset;
        Ok(Some(match rec.rtype {
            RecordType::EndStr => return Ok(None),
            RecordType::Boundary => parse_boundary(self)?,
            RecordType::Path => parse_path(self)?,
            RecordType::Sref => parse_ref(self, false, offset)?,
            RecordType::Aref => parse_ref(self, true, offset)?,
            RecordType::Text => parse_text(self)?,
            _ => return Err(rec.unexpected("reading structure elements")),
        }))
    }
}

/// One item of a GDSII stream, as [`Reader::next`] yields them.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A structure begins; the elements up to the next `Structure` (or
    /// the end of the stream) are its.
    Structure(String),
    /// One element of the open structure.
    Element(Element),
}

/// Pull reader over a GDSII stream: the library header up front, then
/// one [`Item`] per call — no [`Structure`] or [`Library`] is built.
///
/// This is the one stream walk: [`read()`] collects its items into a
/// [`Library`], `odrc_db::Layout::from_gds` feeds them to the layout
/// builder as they are decoded.
pub struct Reader<R> {
    /// Library name.
    pub name: String,
    /// Database units.
    pub units: Units,
    pub(crate) parser: Parser<R>,
    in_structure: bool,
}

impl<R: Read> Reader<R> {
    /// Reads the library header (`HEADER BGNLIB LIBNAME UNITS`).
    ///
    /// # Errors
    ///
    /// Returns [`ReadError`] for I/O failures and a malformed header.
    pub fn new(src: R) -> Result<Self, ReadError> {
        let mut p = Parser::new(src);
        p.expect(RecordType::Header, "reading stream header")?;
        p.expect(RecordType::BgnLib, "reading library begin")?;
        let name = p
            .expect(RecordType::LibName, "reading library name")?
            .string()?;
        let units_rec = p.expect(RecordType::Units, "reading units")?;
        let reals = units_rec.reals()?;
        if reals.len() != 2 {
            return Err(units_rec.bad_len());
        }
        Ok(Reader {
            name,
            units: Units {
                user_per_dbu: reals[0],
                meters_per_dbu: reals[1],
            },
            parser: p,
            in_structure: false,
        })
    }

    /// The next item, or `None` at `ENDLIB`.
    ///
    /// # Errors
    ///
    /// Returns [`ReadError`] with the byte offset of the first
    /// malformed record for truncated, corrupted, or grammatically
    /// invalid streams.
    // Not `Iterator`: a pull can fail, and `Option<Result<_>>` would
    // make every caller transpose before it can use `?`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Item>, ReadError> {
        if self.in_structure {
            if let Some(element) = self.parser.next_element()? {
                return Ok(Some(Item::Element(element)));
            }
        }
        let opened = self.parser.next_structure()?;
        self.in_structure = opened.is_some();
        Ok(opened.map(|(name, _)| Item::Structure(name)))
    }
}

/// Parses a GDSII stream from bytes.
///
/// # Errors
///
/// Returns [`ReadError`] with the byte offset of the first malformed
/// record for truncated, corrupted, or grammatically invalid streams.
///
/// # Examples
///
/// ```
/// use odrc_gdsii::{read, write, Library};
/// let lib = Library::new("roundtrip");
/// let back = read(&write(&lib)?)?;
/// assert_eq!(back.name, "roundtrip");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn read(bytes: &[u8]) -> Result<Library, ReadError> {
    let mut reader = Reader::new(bytes)?;
    let mut structures: Vec<Structure> = Vec::new();
    while let Some(item) = reader.next()? {
        match item {
            Item::Structure(name) => structures.push(Structure::new(name)),
            Item::Element(e) => structures
                .last_mut()
                .expect("an element follows its structure")
                .elements
                .push(e),
        }
    }
    Ok(Library {
        name: reader.name,
        units: reader.units,
        structures,
    })
}

/// Parses a GDSII file from disk into the element model. (To load a
/// layout, stream the file through `odrc_db::Layout::from_gds`.)
///
/// # Errors
///
/// Propagates [`read`] errors and file I/O errors.
pub fn read_file(path: impl AsRef<Path>) -> Result<Library, ReadError> {
    let bytes = std::fs::read(path)?;
    read(&bytes)
}

/// The first record of an element body, which must be `rtype` — after
/// the optional `ELFLAGS` / `PLEX` records, which this engine ignores.
fn expect_body<'p, R: Read>(
    p: &'p mut Parser<R>,
    rtype: RecordType,
    context: &'static str,
) -> Result<RawRecord<'p>, ReadError> {
    // `advance`, not `next_required`: a record returned from inside
    // the loop would keep `p` borrowed on the iterations that continue.
    loop {
        match p.advance()? {
            None => {
                return Err(ReadError::MissingRecord {
                    context: "reading element body",
                })
            }
            Some(RecordType::ElFlags | RecordType::Plex) => {}
            Some(found) if found == rtype => return Ok(p.current()),
            Some(_) => return Err(p.current().unexpected(context)),
        }
    }
}

/// Parses trailing `PROPATTR`/`PROPVALUE` pairs up to `ENDEL`.
fn parse_properties<R: Read>(p: &mut Parser<R>) -> Result<Vec<(i16, String)>, ReadError> {
    let mut props = Vec::new();
    loop {
        let rec = p.next_required("reading element properties")?;
        match rec.rtype {
            RecordType::EndEl => return Ok(props),
            RecordType::PropAttr => {
                let attr = rec.single_i16()?;
                let value = p
                    .expect(RecordType::PropValue, "reading property value")?
                    .string()?;
                props.push((attr, value));
            }
            _ => return Err(rec.unexpected("reading element properties")),
        }
    }
}

fn parse_boundary<R: Read>(p: &mut Parser<R>) -> Result<Element, ReadError> {
    let layer = expect_body(p, RecordType::Layer, "reading boundary layer")?.single_i16()?;
    let datatype = p
        .expect(RecordType::Datatype, "reading boundary datatype")?
        .single_i16()?;
    let xy = p.expect(RecordType::Xy, "reading boundary coordinates")?;
    let mut points = xy.points()?;
    if points.len() < 4 {
        return Err(xy.bad_len());
    }
    // Drop the repeated closing vertex.
    if points.len() >= 2 && points.first() == points.last() {
        points.pop();
    }
    let properties = parse_properties(p)?;
    Ok(Element::Boundary(BoundaryElement {
        layer,
        datatype,
        points,
        properties,
    }))
}

fn parse_path<R: Read>(p: &mut Parser<R>) -> Result<Element, ReadError> {
    let layer = expect_body(p, RecordType::Layer, "reading path layer")?.single_i16()?;
    let datatype = p
        .expect(RecordType::Datatype, "reading path datatype")?
        .single_i16()?;
    let mut path_type = 0i16;
    let mut width = 0i32;
    let xy = loop {
        let rec = p.next_required("reading path body")?;
        match rec.rtype {
            RecordType::PathType => path_type = rec.single_i16()?,
            RecordType::Width => width = rec.single_i32()?,
            RecordType::Xy => break rec,
            _ => return Err(rec.unexpected("reading path body")),
        }
    };
    let points = xy.points()?;
    if points.len() < 2 {
        return Err(xy.bad_len());
    }
    let properties = parse_properties(p)?;
    Ok(Element::Path(PathElement {
        layer,
        datatype,
        path_type,
        width,
        points,
        properties,
    }))
}

fn parse_text<R: Read>(p: &mut Parser<R>) -> Result<Element, ReadError> {
    let layer = expect_body(p, RecordType::Layer, "reading text layer")?.single_i16()?;
    let texttype = p
        .expect(RecordType::TextType, "reading text type")?
        .single_i16()?;
    // Optional presentation/strans records may precede the position.
    let xy = loop {
        let rec = p.next_required("reading text body")?;
        match rec.rtype {
            RecordType::Presentation | RecordType::Strans => continue,
            RecordType::Mag | RecordType::Angle => continue,
            RecordType::Xy => break rec,
            _ => return Err(rec.unexpected("reading text body")),
        }
    };
    let points = xy.points()?;
    if points.len() != 1 {
        return Err(xy.bad_len());
    }
    let string = p
        .expect(RecordType::String, "reading text string")?
        .string()?;
    // Consume up to ENDEL (texts may carry properties too; discard).
    let _ = parse_properties(p)?;
    Ok(Element::Text(TextElement {
        layer,
        texttype,
        position: points[0],
        string,
    }))
}

fn parse_ref<R: Read>(
    p: &mut Parser<R>,
    is_array: bool,
    start_offset: usize,
) -> Result<Element, ReadError> {
    let sname = expect_body(p, RecordType::Sname, "reading reference name")?.string()?;
    let mut mirror_x = false;
    let mut mag = 1.0f64;
    let mut angle_deg = 0.0f64;
    let mut colrow: Option<(i16, i16)> = None;
    let xy = loop {
        let rec = p.next_required("reading reference body")?;
        match rec.rtype {
            RecordType::Strans => {
                let flags = rec.single_i16()? as u16;
                mirror_x = flags & 0x8000 != 0;
            }
            RecordType::Mag => mag = rec.single().map(real8_to_f64)?,
            RecordType::Angle => angle_deg = rec.single().map(real8_to_f64)?,
            RecordType::Colrow => {
                let [c0, c1, r0, r1] = rec.single()?;
                colrow = Some((i16::from_be_bytes([c0, c1]), i16::from_be_bytes([r0, r1])));
            }
            RecordType::Xy => break rec,
            _ => return Err(rec.unexpected("reading reference body")),
        }
    };
    let points = xy.points()?;
    let array = if is_array {
        let (cols, rows) = colrow.ok_or(ReadError::MissingRecord {
            context: "reading AREF COLROW",
        })?;
        if cols <= 0 || rows <= 0 {
            return Err(ReadError::BadColrow {
                offset: start_offset,
                cols,
                rows,
            });
        }
        if points.len() != 3 {
            return Err(xy.bad_len());
        }
        let origin = points[0];
        // In i64: a corrupt corner can lie a full coordinate range
        // away from the origin.
        let pitch = |corner: i32, origin: i32, n: i16| -> Result<i32, ReadError> {
            let span = i64::from(corner) - i64::from(origin);
            i32::try_from(span / i64::from(n))
                .ok()
                .filter(|_| span % i64::from(n) == 0)
                .ok_or(ReadError::NonIntegerArrayPitch { offset: xy.offset })
        };
        let step = |corner: Point, n: i16| -> Result<Point, ReadError> {
            Ok(Point::new(
                pitch(corner.x, origin.x, n)?,
                pitch(corner.y, origin.y, n)?,
            ))
        };
        Some(ArrayParams {
            cols: cols as u16,
            rows: rows as u16,
            col_step: step(points[1], cols)?,
            row_step: step(points[2], rows)?,
        })
    } else {
        if points.len() != 1 {
            return Err(xy.bad_len());
        }
        None
    };
    let origin = points[0];
    let _ = parse_properties(p)?;
    Ok(Element::Ref(RefElement {
        sname,
        origin,
        mirror_x,
        angle_deg,
        mag,
        array,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ArrayParams, Library, Structure};
    use crate::write::write;

    fn p2(x: i32, y: i32) -> Point {
        Point::new(x, y)
    }

    fn sample_library() -> Library {
        let mut lib = Library::new("sample");
        let mut inv = Structure::new("INV");
        inv.elements.push(Element::Boundary(BoundaryElement {
            layer: 1,
            datatype: 0,
            points: vec![p2(0, 0), p2(0, 50), p2(30, 50), p2(30, 0)],
            properties: vec![(1, "poly0".to_owned())],
        }));
        inv.elements.push(Element::Path(PathElement {
            layer: 2,
            datatype: 0,
            path_type: 2,
            width: 10,
            points: vec![p2(0, 25), p2(100, 25)],
            properties: vec![],
        }));
        inv.elements.push(Element::Text(TextElement {
            layer: 63,
            texttype: 0,
            position: p2(5, 5),
            string: "label".to_owned(),
        }));
        lib.structures.push(inv);

        let mut top = Structure::new("TOP");
        let mut r = RefElement::sref("INV", p2(1000, 0));
        r.mirror_x = true;
        r.angle_deg = 90.0;
        top.elements.push(Element::Ref(r));
        let mut ar = RefElement::sref("INV", p2(0, 0));
        ar.array = Some(ArrayParams {
            cols: 4,
            rows: 2,
            col_step: p2(200, 0),
            row_step: p2(0, 300),
        });
        top.elements.push(Element::Ref(ar));
        lib.structures.push(top);
        lib
    }

    #[test]
    fn roundtrip_full_library() {
        let lib = sample_library();
        let bytes = write(&lib).unwrap();
        let back = read(&bytes).unwrap();
        assert_eq!(back, lib);
    }

    #[test]
    fn truncated_stream_reports_offset() {
        let bytes = write(&sample_library()).unwrap();
        let err = read(&bytes[..bytes.len() - 10]).unwrap_err();
        match err {
            ReadError::UnexpectedEof { .. } | ReadError::MissingRecord { .. } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn every_truncation_point_errors_cleanly() {
        let bytes = write(&sample_library()).unwrap();
        for cut in (0..bytes.len() - 1).step_by(7) {
            // Never panics; always a structured error.
            let _ = read(&bytes[..cut]).unwrap_err();
        }
    }

    #[test]
    fn corrupt_record_type_detected() {
        let mut bytes = write(&sample_library()).unwrap();
        bytes[2] = 0xEE; // clobber HEADER's record type
        match read(&bytes).unwrap_err() {
            ReadError::UnknownRecordType {
                offset: 0,
                code: 0xEE,
            } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn bad_record_length_detected() {
        let mut bytes = write(&sample_library()).unwrap();
        bytes[0] = 0;
        bytes[1] = 3; // odd length < 4
        match read(&bytes).unwrap_err() {
            ReadError::BadRecordLength { offset: 0, len: 3 } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn grammar_violation_detected() {
        // ENDLIB directly after UNITS is fine (empty library); but a
        // LAYER record at library level is not.
        let mut lib_bytes = write(&Library::new("x")).unwrap();
        // Splice a LAYER record before the trailing ENDLIB.
        let endlib = lib_bytes.split_off(lib_bytes.len() - 4);
        lib_bytes.extend_from_slice(&[0x00, 0x06, 0x0D, 0x02, 0x00, 0x01]);
        lib_bytes.extend_from_slice(&endlib);
        match read(&lib_bytes).unwrap_err() {
            ReadError::UnexpectedRecord {
                record: RecordType::Layer,
                ..
            } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn trailing_padding_tolerated() {
        let mut bytes = write(&sample_library()).unwrap();
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(read(&bytes).is_ok());
    }

    /// Hands out at most `chunks[call % len]` bytes per `read()`.
    struct Dribble<'a> {
        bytes: &'a [u8],
        chunks: &'a [usize],
        calls: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let chunk = self.chunks[self.calls % self.chunks.len()];
            self.calls += 1;
            let n = chunk.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Over 1 MiB, most of it in records at the format's 65 534-byte
    /// limit, their lengths staggered so record boundaries fall all
    /// over the refill window.
    fn big_library() -> Library {
        let mut lib = sample_library();
        for i in 0..17 {
            let mut s = Structure::new(format!("BIG{i}"));
            s.elements.push(Element::Text(TextElement {
                layer: 63,
                texttype: 0,
                position: p2(0, 0),
                string: "x".repeat(65_530 - 2 * 97 * i),
            }));
            if i == 9 {
                s.elements.push(Element::Path(PathElement {
                    layer: 2,
                    datatype: 0,
                    path_type: 0,
                    width: 2,
                    points: (0..8190).map(|k| p2(k, k % 2)).collect(),
                    properties: vec![],
                }));
            }
            s.elements
                .extend((0..40).map(|k| Element::sref("INV", p2(k, i as i32))));
            lib.structures.push(s);
        }
        lib
    }

    fn items(src: impl Read) -> Result<Vec<Item>, ReadError> {
        let mut reader = Reader::new(src)?;
        let mut items = Vec::new();
        while let Some(item) = reader.next()? {
            items.push(item);
        }
        Ok(items)
    }

    #[test]
    fn any_read_granularity_parses_like_the_slice() {
        let lib = big_library();
        let bytes = write(&lib).unwrap();
        assert!(bytes.len() > 1 << 20);
        assert_eq!(read(&bytes).unwrap(), lib);
        let expected = items(&bytes[..]).unwrap();
        for chunk in [1, 3, 7, 4096, 70_000, 200_000] {
            let source = Dribble {
                bytes: &bytes,
                chunks: &[chunk],
                calls: 0,
            };
            assert_eq!(items(source).unwrap(), expected, "chunk {chunk}");
        }
    }

    #[test]
    fn truncation_errors_do_not_depend_on_read_granularity() {
        let bytes = write(&big_library()).unwrap();
        for cut in (0..bytes.len()).step_by(257) {
            let source = Dribble {
                bytes: &bytes[..cut],
                chunks: &[1, 3, 7, 4096, 70_000, 200_000],
                calls: cut,
            };
            assert_eq!(
                items(source).unwrap_err().to_string(),
                read(&bytes[..cut]).unwrap_err().to_string(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn aref_pitch_division() {
        let lib = {
            let mut lib = Library::new("a");
            lib.structures.push(Structure::new("LEAF"));
            let mut top = Structure::new("TOP");
            let mut r = RefElement::sref("LEAF", p2(10, 10));
            r.array = Some(ArrayParams {
                cols: 3,
                rows: 5,
                col_step: p2(7, 0),
                row_step: p2(0, 11),
            });
            top.elements.push(Element::Ref(r));
            lib.structures.push(top);
            lib
        };
        let back = read(&write(&lib).unwrap()).unwrap();
        assert_eq!(back, lib);
    }

    #[test]
    fn boundary_without_closure_still_reads() {
        // Hand-build a boundary whose XY does not repeat the first point;
        // some tools emit this. The parser keeps all points.
        let mut lib = Library::new("l");
        let mut s = Structure::new("S");
        s.elements.push(Element::boundary(
            1,
            vec![p2(0, 0), p2(0, 4), p2(4, 4), p2(4, 0)],
        ));
        lib.structures.push(s);
        let back = read(&write(&lib).unwrap()).unwrap();
        assert_eq!(back, lib);
    }
}
