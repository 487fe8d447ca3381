//! Streaming (out-of-core) GDSII access.
//!
//! [`read()`](crate::read()) materializes the whole element model
//! before anything can be checked — on a chip-scale stream that
//! doubles the load-time footprint (raw bytes *and* the full
//! [`Library`](crate::Library)). This module splits the load into two
//! passes that never hold both:
//!
//! 1. [`index_file`] decodes record *headers* only, skipping over
//!    payloads, and produces a [`StreamIndex`]: library name, units,
//!    and one [`StructureEntry`] (name + byte span) per structure. The
//!    index is a few dozen bytes per structure regardless of how much
//!    geometry the structures hold.
//! 2. [`read_structure`] seeks back to one entry's span and parses
//!    just that structure with the ordinary grammar parser. Callers
//!    convert and drop each structure before fetching the next, so the
//!    peak footprint is one structure, not the library.
//!
//! Feeding each parsed structure straight into
//! `odrc_db::LayoutBuilder` yields the out-of-core load path `odrc`
//! takes under `--memory-budget` / `--out-of-core`.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

use crate::model::{Structure, Units};
use crate::read::{parse_structure, Parser, ReadError};
use crate::record::{real8_to_f64, RecordType};

/// Byte span of one structure within the stream.
///
/// The span starts at the `STRNAME` record (the grammar parser expects
/// `BGNSTR` to have been consumed) and ends just past `ENDSTR`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureEntry {
    /// Structure name, as declared by `STRNAME`.
    pub name: String,
    /// Offset of the `STRNAME` record.
    pub offset: u64,
    /// Span length in bytes, through the end of `ENDSTR`.
    pub len: u64,
}

/// Header-level index of a GDSII stream: everything needed to load
/// structures lazily, with none of their geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamIndex {
    /// Library name.
    pub name: String,
    /// Database units.
    pub units: Units,
    /// Structure spans, in stream order.
    pub entries: Vec<StructureEntry>,
}

impl StreamIndex {
    /// Finds a structure entry by name.
    pub fn entry(&self, name: &str) -> Option<&StructureEntry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

/// Minimal record-header scanner over a seekable stream.
///
/// Decodes the 4-byte header of each record and skips the payloads it
/// does not need. The reader is buffered and skips stay *inside* the
/// buffer whenever they can: GDSII records are tens of bytes, so a real
/// seek per record (which also throws the buffer away) costs a syscall
/// and a refill per record — far more than reading the stream once.
struct Scanner<R> {
    inner: BufReader<R>,
    offset: u64,
}

impl<R: Read + Seek> Scanner<R> {
    /// Reads the next record header: `(offset, type, payload length)`.
    fn next_header(&mut self) -> Result<(u64, RecordType, u64), ReadError> {
        let start = self.offset;
        let mut head = [0u8; 4];
        self.inner
            .read_exact(&mut head)
            .map_err(|_| ReadError::UnexpectedEof {
                offset: start as usize,
            })?;
        let len = u16::from_be_bytes([head[0], head[1]]);
        if len < 4 || !len.is_multiple_of(2) {
            return Err(ReadError::BadRecordLength {
                offset: start as usize,
                len,
            });
        }
        let rtype = RecordType::from_code(head[2]).ok_or(ReadError::UnknownRecordType {
            offset: start as usize,
            code: head[2],
        })?;
        self.offset = start + 4;
        Ok((start, rtype, u64::from(len) - 4))
    }

    /// Reads a payload of `len` bytes following the current header.
    fn payload(&mut self, len: u64) -> Result<Vec<u8>, ReadError> {
        let mut buf = vec![0u8; len as usize];
        self.inner
            .read_exact(&mut buf)
            .map_err(|_| ReadError::UnexpectedEof {
                offset: self.offset as usize,
            })?;
        self.offset += len;
        Ok(buf)
    }

    /// Skips a payload without decoding it (a real seek only when the
    /// payload ends beyond the buffered bytes).
    fn skip(&mut self, len: u64) -> Result<(), ReadError> {
        self.inner.seek_relative(len as i64)?;
        self.offset += len;
        Ok(())
    }
}

/// Trims trailing NUL padding and decodes a GDSII string payload.
fn decode_string(payload: &[u8], offset: u64) -> Result<String, ReadError> {
    let trimmed: &[u8] = match payload.iter().rposition(|&b| b != 0) {
        Some(last) => &payload[..=last],
        None => &[],
    };
    String::from_utf8(trimmed.to_vec()).map_err(|_| ReadError::BadString {
        offset: offset as usize,
    })
}

/// Indexes a GDSII stream without materializing any structure.
///
/// # Errors
///
/// Returns [`ReadError`] for I/O failures and for the same framing
/// and grammar problems [`read()`](crate::read()) rejects at the
/// library level. Element-level problems inside structures are *not*
/// detected here — they surface when the structure is parsed by
/// [`read_structure`].
fn index_reader<R: Read + Seek>(inner: R) -> Result<StreamIndex, ReadError> {
    let mut s = Scanner {
        inner: BufReader::new(inner),
        offset: 0,
    };

    let (off, rtype, len) = s.next_header()?;
    if rtype != RecordType::Header {
        return Err(ReadError::UnexpectedRecord {
            offset: off as usize,
            record: rtype,
            context: "reading stream header",
        });
    }
    s.skip(len)?;
    let (off, rtype, len) = s.next_header()?;
    if rtype != RecordType::BgnLib {
        return Err(ReadError::UnexpectedRecord {
            offset: off as usize,
            record: rtype,
            context: "reading library begin",
        });
    }
    s.skip(len)?;
    let (off, rtype, len) = s.next_header()?;
    if rtype != RecordType::LibName {
        return Err(ReadError::UnexpectedRecord {
            offset: off as usize,
            record: rtype,
            context: "reading library name",
        });
    }
    let name = decode_string(&s.payload(len)?, off)?;
    let (off, rtype, len) = s.next_header()?;
    if rtype != RecordType::Units || len != 16 {
        return Err(ReadError::UnexpectedRecord {
            offset: off as usize,
            record: rtype,
            context: "reading units",
        });
    }
    let payload = s.payload(len)?;
    let units = Units {
        user_per_dbu: real8_to_f64(payload[..8].try_into().expect("8 bytes")),
        meters_per_dbu: real8_to_f64(payload[8..].try_into().expect("8 bytes")),
    };

    let mut entries = Vec::new();
    loop {
        let (off, rtype, len) = s.next_header()?;
        match rtype {
            RecordType::EndLib => break,
            RecordType::BgnStr => {
                s.skip(len)?;
                let (start, rtype, len) = s.next_header()?;
                if rtype != RecordType::StrName {
                    return Err(ReadError::UnexpectedRecord {
                        offset: start as usize,
                        record: rtype,
                        context: "reading structure name",
                    });
                }
                let name = decode_string(&s.payload(len)?, start)?;
                // Seek to ENDSTR; structures do not nest.
                loop {
                    let (_, rtype, len) = s.next_header()?;
                    s.skip(len)?;
                    if rtype == RecordType::EndStr {
                        break;
                    }
                }
                entries.push(StructureEntry {
                    name,
                    offset: start,
                    len: s.offset - start,
                });
            }
            _ => {
                return Err(ReadError::UnexpectedRecord {
                    offset: off as usize,
                    record: rtype,
                    context: "reading structures",
                })
            }
        }
    }
    Ok(StreamIndex {
        name,
        units,
        entries,
    })
}

/// Indexes a GDSII file from disk; see the [module docs](self).
///
/// # Errors
///
/// Propagates I/O errors and library-level framing errors.
///
/// # Examples
///
/// ```no_run
/// let index = odrc_gdsii::stream::index_file("chip.gds")?;
/// println!("{} structures", index.entries.len());
/// # Ok::<(), odrc_gdsii::ReadError>(())
/// ```
pub fn index_file(path: impl AsRef<Path>) -> Result<StreamIndex, ReadError> {
    index_reader(File::open(path)?)
}

/// Indexes an in-memory GDSII stream.
///
/// # Errors
///
/// Same as [`index_file`], minus file I/O.
pub fn index(bytes: &[u8]) -> Result<StreamIndex, ReadError> {
    index_reader(std::io::Cursor::new(bytes))
}

/// Parses one indexed structure from a seekable stream.
///
/// Only `entry.len` bytes are read. Error offsets are relative to the
/// structure span, not the file.
///
/// # Errors
///
/// Returns [`ReadError`] for I/O failures and for grammar or payload
/// problems inside the span.
pub fn read_structure<R: Read + Seek>(
    source: &mut R,
    entry: &StructureEntry,
) -> Result<Structure, ReadError> {
    source.seek(SeekFrom::Start(entry.offset))?;
    let mut buf = vec![0u8; entry.len as usize];
    source
        .read_exact(&mut buf)
        .map_err(|_| ReadError::UnexpectedEof {
            offset: entry.offset as usize,
        })?;
    let mut p = Parser::at(&buf, 0);
    parse_structure(&mut p)
}

/// Parses one indexed structure from an in-memory stream.
///
/// # Errors
///
/// Same as [`read_structure`].
pub fn structure_at(bytes: &[u8], entry: &StructureEntry) -> Result<Structure, ReadError> {
    let end = entry
        .offset
        .checked_add(entry.len)
        .filter(|&e| e <= bytes.len() as u64)
        .ok_or(ReadError::UnexpectedEof {
            offset: entry.offset as usize,
        })? as usize;
    let mut p = Parser::at(&bytes[..end], entry.offset as usize);
    parse_structure(&mut p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Element, Library, RefElement, Structure};
    use crate::write::write;
    use odrc_geometry::Point;

    fn sample() -> Library {
        let mut lib = Library::new("streamed");
        for i in 0..5 {
            let mut s = Structure::new(format!("CELL{i}"));
            for j in 0..4 {
                let x = i * 100 + j * 20;
                s.elements.push(Element::boundary(
                    1,
                    vec![
                        Point::new(x, 0),
                        Point::new(x, 10),
                        Point::new(x + 10, 10),
                        Point::new(x + 10, 0),
                    ],
                ));
            }
            lib.structures.push(s);
        }
        let mut top = Structure::new("TOP");
        for i in 0..5 {
            top.elements.push(Element::Ref(RefElement::sref(
                format!("CELL{i}"),
                Point::new(i * 200, 0),
            )));
        }
        lib.structures.push(top);
        lib
    }

    #[test]
    fn index_lists_every_structure_in_order() {
        let lib = sample();
        let bytes = write(&lib).unwrap();
        let idx = index(&bytes).unwrap();
        assert_eq!(idx.name, "streamed");
        assert_eq!(idx.units, lib.units);
        let names: Vec<&str> = idx.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["CELL0", "CELL1", "CELL2", "CELL3", "CELL4", "TOP"]);
    }

    #[test]
    fn streamed_structures_equal_full_parse() {
        let lib = sample();
        let bytes = write(&lib).unwrap();
        let idx = index(&bytes).unwrap();
        for (entry, expected) in idx.entries.iter().zip(&lib.structures) {
            assert_eq!(&structure_at(&bytes, entry).unwrap(), expected);
            let mut cursor = std::io::Cursor::new(&bytes[..]);
            assert_eq!(&read_structure(&mut cursor, entry).unwrap(), expected);
        }
    }

    #[test]
    fn index_file_roundtrips_through_disk() {
        let lib = sample();
        let bytes = write(&lib).unwrap();
        let path = std::env::temp_dir().join(format!("odrc-stream-{}.gds", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let idx = index_file(&path).unwrap();
        assert_eq!(idx, index(&bytes).unwrap());
        let mut f = File::open(&path).unwrap();
        for (entry, expected) in idx.entries.iter().zip(&lib.structures) {
            assert_eq!(&read_structure(&mut f, entry).unwrap(), expected);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Counts what the scanner's buffered reader pulls from (and how
    /// often it repositions) the underlying stream.
    struct Counting<R> {
        inner: R,
        bytes: u64,
        seeks: u64,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.bytes += n as u64;
            Ok(n)
        }
    }

    impl<R: Seek> Seek for Counting<R> {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.seeks += 1;
            self.inner.seek(pos)
        }
    }

    #[test]
    fn indexing_reads_the_stream_about_once() {
        // Many small records: a seek per skipped payload would refill
        // the whole buffer for each of them.
        let mut lib = sample();
        for s in &mut lib.structures {
            let elements = s.elements.clone();
            for _ in 0..200 {
                s.elements.extend(elements.iter().cloned());
            }
        }
        let bytes = write(&lib).unwrap();
        assert!(bytes.len() > 64 * 1024, "stream spans many buffers");
        let mut source = Counting {
            inner: std::io::Cursor::new(&bytes[..]),
            bytes: 0,
            seeks: 0,
        };
        let idx = index_reader(&mut source).unwrap();
        assert_eq!(idx, index(&bytes).unwrap());
        assert!(
            source.bytes <= 2 * bytes.len() as u64,
            "pulled {} bytes from a {}-byte stream",
            source.bytes,
            bytes.len()
        );
        assert!(
            source.seeks <= 1 + bytes.len() as u64 / 4096,
            "{} seeks on a {}-byte stream",
            source.seeks,
            bytes.len()
        );
    }

    #[test]
    fn truncated_stream_reports_offset() {
        let bytes = write(&sample()).unwrap();
        for cut in [0, 7, bytes.len() / 2, bytes.len() - 3] {
            assert!(index(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn entry_past_end_rejected() {
        let bytes = write(&sample()).unwrap();
        let idx = index(&bytes).unwrap();
        let mut entry = idx.entries[0].clone();
        entry.len = bytes.len() as u64 + 100;
        assert!(structure_at(&bytes, &entry).is_err());
    }

    #[test]
    fn index_matches_materializing_reader() {
        // The two loaders must agree on which structures exist.
        let bytes = write(&sample()).unwrap();
        let full = crate::read(&bytes).unwrap();
        let idx = index(&bytes).unwrap();
        assert_eq!(full.structures.len(), idx.entries.len());
        for (s, e) in full.structures.iter().zip(&idx.entries) {
            assert_eq!(s.name, e.name);
        }
    }
}
