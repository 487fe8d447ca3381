//! GDSII stream writer.

use std::fmt;
use std::path::Path;

use bytes::BufMut;
use odrc_geometry::Point;

use crate::model::{ElementRef, Library, Units};
use crate::record::{real8_from_f64, DataType, RecordType};

/// Error produced while serializing a library.
#[derive(Debug)]
pub enum WriteError {
    /// A name or string exceeds the format's record capacity.
    StringTooLong {
        /// Length of the offending string in bytes.
        len: usize,
    },
    /// An `XY` list exceeds the format's record capacity.
    TooManyPoints {
        /// Number of points in the offending list.
        count: usize,
    },
    /// Underlying I/O failure (file output only).
    Io(std::io::Error),
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::StringTooLong { len } => {
                write!(f, "string of {len} bytes exceeds GDSII record capacity")
            }
            WriteError::TooManyPoints { count } => {
                write!(
                    f,
                    "coordinate list of {count} points exceeds GDSII record capacity"
                )
            }
            WriteError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WriteError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WriteError {
    fn from(e: std::io::Error) -> Self {
        WriteError::Io(e)
    }
}

/// Serializes a library to GDSII stream bytes: the library's
/// structures, in order, through one [`Writer`].
///
/// # Errors
///
/// Returns [`WriteError`] if a string or coordinate list exceeds the
/// 16-bit record length limit of the format.
///
/// # Examples
///
/// ```
/// use odrc_gdsii::{write, Library};
/// let bytes = write(&Library::new("empty"))?;
/// assert_eq!(&bytes[2..4], &[0x00, 0x02]); // HEADER record
/// # Ok::<(), odrc_gdsii::WriteError>(())
/// ```
pub fn write(lib: &Library) -> Result<Vec<u8>, WriteError> {
    let mut w = Writer::new(&lib.name, lib.units)?;
    for s in &lib.structures {
        w.begin_structure(&s.name)?;
        for e in &s.elements {
            w.element(e.view())?;
        }
        w.end_structure();
    }
    Ok(w.finish())
}

/// Serializes a library directly to a file.
///
/// # Errors
///
/// Propagates [`write()`] errors and file I/O errors.
pub fn write_file(lib: &Library, path: impl AsRef<Path>) -> Result<(), WriteError> {
    let bytes = write(lib)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

/// The GDSII stream encoder: a library header, then structures whose
/// elements arrive one at a time as borrowed [`ElementRef`] views, so a
/// caller that holds its own model (the layout database) streams it
/// out without building a [`Library`]. The inverse of
/// [`Reader::next_ref`](crate::Reader::next_ref); [`write()`] is this
/// encoder fed from a `Library`.
///
/// # Examples
///
/// ```
/// use odrc_gdsii::{ElementRef, Units, Writer};
/// use odrc_geometry::Point;
///
/// let mut w = Writer::new("demo", Units::default())?;
/// w.begin_structure("TOP")?;
/// let square = [
///     Point::new(0, 0),
///     Point::new(0, 4),
///     Point::new(4, 4),
///     Point::new(4, 0),
/// ];
/// w.element(ElementRef::Boundary {
///     layer: 1,
///     datatype: 0,
///     points: &square,
///     properties: &[],
/// })?;
/// w.end_structure();
/// let lib = odrc_gdsii::read(&w.finish()[..])?;
/// assert_eq!(lib.structures[0].elements.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a stream: the `HEADER`, `BGNLIB`, `LIBNAME` and `UNITS`
    /// records.
    ///
    /// # Errors
    ///
    /// [`WriteError::StringTooLong`] for an oversized library name.
    pub fn new(lib_name: &str, units: Units) -> Result<Writer, WriteError> {
        let mut w = Writer { buf: Vec::new() };
        w.record_i16(RecordType::Header, &[600]);
        w.record_i16(RecordType::BgnLib, &[0; 12]);
        w.record_str(RecordType::LibName, lib_name)?;
        w.record_real(
            RecordType::Units,
            &[units.user_per_dbu, units.meters_per_dbu],
        );
        Ok(w)
    }

    /// Opens a structure; the elements that follow are its, up to
    /// [`Writer::end_structure`].
    ///
    /// # Errors
    ///
    /// [`WriteError::StringTooLong`] for an oversized name.
    pub fn begin_structure(&mut self, name: &str) -> Result<(), WriteError> {
        self.record_i16(RecordType::BgnStr, &[0; 12]);
        self.record_str(RecordType::StrName, name)
    }

    /// Closes the open structure.
    pub fn end_structure(&mut self) {
        self.record_none(RecordType::EndStr);
    }

    /// Encodes one element into the open structure.
    ///
    /// # Errors
    ///
    /// [`WriteError`] for a string or coordinate list past the record
    /// capacity.
    pub fn element(&mut self, e: ElementRef<'_>) -> Result<(), WriteError> {
        match e {
            ElementRef::Boundary {
                layer,
                datatype,
                points,
                properties,
            } => {
                self.record_none(RecordType::Boundary);
                self.record_i16(RecordType::Layer, &[layer]);
                self.record_i16(RecordType::Datatype, &[datatype]);
                // GDSII repeats the first point to close the boundary.
                self.record_xy(points, points.first())?;
                self.properties(properties)?;
            }
            ElementRef::Path {
                layer,
                datatype,
                path_type,
                width,
                points,
                properties,
            } => {
                self.record_none(RecordType::Path);
                self.record_i16(RecordType::Layer, &[layer]);
                self.record_i16(RecordType::Datatype, &[datatype]);
                if path_type != 0 {
                    self.record_i16(RecordType::PathType, &[path_type]);
                }
                if width != 0 {
                    self.header(RecordType::Width, 4);
                    self.buf.put_i32(width);
                }
                self.record_xy(points, None)?;
                self.properties(properties)?;
            }
            ElementRef::Text {
                layer,
                texttype,
                position,
                string,
            } => {
                self.record_none(RecordType::Text);
                self.record_i16(RecordType::Layer, &[layer]);
                self.record_i16(RecordType::TextType, &[texttype]);
                self.record_xy(&[position], None)?;
                self.record_str(RecordType::String, string)?;
            }
            ElementRef::Ref { sname, placement } => {
                let p = placement;
                match p.array {
                    None => {
                        self.record_none(RecordType::Sref);
                        self.record_str(RecordType::Sname, sname)?;
                        self.strans(p.mirror_x, p.mag, p.angle_deg);
                        self.record_xy(&[p.origin], None)?;
                    }
                    Some(a) => {
                        self.record_none(RecordType::Aref);
                        self.record_str(RecordType::Sname, sname)?;
                        self.strans(p.mirror_x, p.mag, p.angle_deg);
                        self.record_i16(RecordType::Colrow, &[a.cols as i16, a.rows as i16]);
                        let col_ref = Point::new(
                            p.origin.x + a.col_step.x * i32::from(a.cols),
                            p.origin.y + a.col_step.y * i32::from(a.cols),
                        );
                        let row_ref = Point::new(
                            p.origin.x + a.row_step.x * i32::from(a.rows),
                            p.origin.y + a.row_step.y * i32::from(a.rows),
                        );
                        self.record_xy(&[p.origin, col_ref, row_ref], None)?;
                    }
                }
            }
        }
        self.record_none(RecordType::EndEl);
        Ok(())
    }

    /// Ends the stream with `ENDLIB` and returns its bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.record_none(RecordType::EndLib);
        self.buf
    }

    fn header(&mut self, rt: RecordType, payload_len: usize) {
        let total = payload_len + 4;
        debug_assert!(total <= usize::from(u16::MAX));
        let [hi, lo] = (total as u16).to_be_bytes();
        self.buf
            .put_slice(&[hi, lo, rt.code(), rt.data_type().code()]);
    }

    fn record_none(&mut self, rt: RecordType) {
        debug_assert_eq!(rt.data_type(), DataType::None);
        self.header(rt, 0);
    }

    fn record_i16(&mut self, rt: RecordType, values: &[i16]) {
        debug_assert_eq!(rt.data_type(), DataType::Int16);
        self.header(rt, values.len() * 2);
        for &v in values {
            self.buf.put_i16(v);
        }
    }

    fn record_real(&mut self, rt: RecordType, values: &[f64]) {
        debug_assert_eq!(rt.data_type(), DataType::Real64);
        self.header(rt, values.len() * 8);
        for &v in values {
            self.buf.put_slice(&real8_from_f64(v));
        }
    }

    /// An ASCII record, NUL-padded to an even length.
    fn record_str(&mut self, rt: RecordType, s: &str) -> Result<(), WriteError> {
        debug_assert_eq!(rt.data_type(), DataType::Ascii);
        let padded = s.len() + s.len() % 2;
        if padded + 4 > usize::from(u16::MAX) {
            return Err(WriteError::StringTooLong { len: s.len() });
        }
        self.header(rt, padded);
        self.buf.put_slice(s.as_bytes());
        if padded > s.len() {
            self.buf.put_u8(0);
        }
        Ok(())
    }

    /// An `XY` record of `points`, then `close` (a boundary's repeated
    /// first point) if given.
    fn record_xy(&mut self, points: &[Point], close: Option<&Point>) -> Result<(), WriteError> {
        let count = points.len() + usize::from(close.is_some());
        let payload = count * 8;
        if payload + 4 > usize::from(u16::MAX) {
            return Err(WriteError::TooManyPoints { count });
        }
        self.header(RecordType::Xy, payload);
        self.buf.reserve(payload);
        for p in points.iter().chain(close) {
            let ([x0, x1, x2, x3], [y0, y1, y2, y3]) = (p.x.to_be_bytes(), p.y.to_be_bytes());
            self.buf.put_slice(&[x0, x1, x2, x3, y0, y1, y2, y3]);
        }
        Ok(())
    }

    fn strans(&mut self, mirror_x: bool, mag: f64, angle_deg: f64) {
        if mirror_x || mag != 1.0 || angle_deg != 0.0 {
            let flags: i16 = if mirror_x { i16::MIN } else { 0 }; // bit 15
            self.record_i16(RecordType::Strans, &[flags]);
            if mag != 1.0 {
                self.record_real(RecordType::Mag, &[mag]);
            }
            if angle_deg != 0.0 {
                self.record_real(RecordType::Angle, &[angle_deg]);
            }
        }
    }

    fn properties(&mut self, props: &[(i16, String)]) -> Result<(), WriteError> {
        for (attr, value) in props {
            self.record_i16(RecordType::PropAttr, &[*attr]);
            self.record_str(RecordType::PropValue, value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Element, Structure};

    #[test]
    fn empty_library_layout() {
        let bytes = write(&Library::new("lib")).unwrap();
        // HEADER(6+4=... ) starts with length 6, type 0x00, dtype 0x02.
        assert_eq!(&bytes[..4], &[0x00, 0x06, 0x00, 0x02]);
        // Stream ends with ENDLIB (length 4, type 0x04, dtype 0x00).
        assert_eq!(&bytes[bytes.len() - 4..], &[0x00, 0x04, 0x04, 0x00]);
    }

    #[test]
    fn odd_length_names_padded() {
        let mut lib = Library::new("abc"); // 3 bytes -> padded to 4
        lib.structures.push(Structure::new("X"));
        let bytes = write(&lib).unwrap();
        // Every record length must be even.
        let mut off = 0;
        while off < bytes.len() {
            let len = u16::from_be_bytes([bytes[off], bytes[off + 1]]) as usize;
            assert!(len.is_multiple_of(2) && len >= 4);
            off += len;
        }
        assert_eq!(off, bytes.len());
    }

    #[test]
    fn boundary_closes_polygon() {
        let mut lib = Library::new("l");
        let mut s = Structure::new("S");
        s.elements.push(Element::boundary(
            5,
            vec![
                Point::new(0, 0),
                Point::new(0, 10),
                Point::new(10, 10),
                Point::new(10, 0),
            ],
        ));
        lib.structures.push(s);
        let bytes = write(&lib).unwrap();
        // Find the XY record (type 0x10): its payload must hold 5 points.
        let mut off = 0;
        let mut found = false;
        while off < bytes.len() {
            let len = u16::from_be_bytes([bytes[off], bytes[off + 1]]) as usize;
            if bytes[off + 2] == 0x10 {
                assert_eq!(len - 4, 5 * 8);
                found = true;
            }
            off += len;
        }
        assert!(found);
    }
}
