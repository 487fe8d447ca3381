//! Structure-granular GDSII access: a span index plus per-structure
//! parsing.
//!
//! [`index_file`] walks the record stream with payloads undecoded and
//! produces a [`StreamIndex`]: library name, units, and one
//! [`StructureEntry`] (name + byte span) per structure — a few dozen
//! bytes per structure regardless of how much geometry it holds.
//! [`read_structure`] seeks to one entry's span and parses just that
//! structure.
//!
//! Both run on the record decoder, header walk and element loop of
//! [`Reader`]; nothing here is a second parser. No product path loads
//! a layout this way — `odrc` and `odrc serve` ingest through
//! `odrc_db::Layout::from_gds`, which never builds a [`Structure`].
//! The module is kept for the benchmark's `gdsii.stream_index_s` /
//! `gdsii.stream_read_s` layer rows until they are re-pointed at that
//! loader, and for tools that want one cell out of a large stream.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use crate::model::{Structure, Units};
use crate::read::{next_element, Parser, ReadError, Reader, Scratch};
use crate::record::RecordType;

/// Byte span of one structure within the stream.
///
/// The span starts at the `STRNAME` record (`BGNSTR` carries only
/// timestamps) and ends just past `ENDSTR`.
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

/// Indexes a GDSII stream without materializing any structure.
///
/// # Errors
///
/// Returns [`ReadError`] for I/O failures and for the same framing
/// and grammar problems [`read()`](crate::read()) rejects at the
/// library level. Element-level problems inside structures are *not*
/// detected here — they surface when the structure is parsed by
/// [`read_structure`].
fn index_reader(src: impl Read) -> Result<StreamIndex, ReadError> {
    let mut reader = Reader::new(src)?;
    let p = &mut reader.parser;
    let mut entries = Vec::new();
    while let Some((name, offset)) = p.next_structure()? {
        let name = name.to_owned();
        // Skip to ENDSTR; structures do not nest.
        while p.next_required("reading structure elements")?.rtype != RecordType::EndStr {}
        entries.push(StructureEntry {
            name,
            offset: offset as u64,
            len: (p.offset() - offset) as u64,
        });
    }
    Ok(StreamIndex {
        name: reader.name,
        units: reader.units,
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

/// Parses one indexed structure from a seekable stream.
///
/// Only `entry.len` bytes are read. Error offsets are relative to the
/// structure span, not the file.
///
/// # Errors
///
/// Returns [`ReadError`] for I/O failures, for grammar or payload
/// problems inside the span, and for a span that does not end exactly
/// at the structure's `ENDSTR`.
pub fn read_structure<R: Read + Seek>(
    source: &mut R,
    entry: &StructureEntry,
) -> Result<Structure, ReadError> {
    source.seek(SeekFrom::Start(entry.offset))?;
    let mut p = Parser::new(source.take(entry.len));
    let mut structure = Structure::new(p.structure_name()?.0);
    let mut scratch = Scratch::default();
    while let Some(element) = next_element(&mut p, &mut scratch)? {
        structure.elements.push(element.to_owned());
    }
    match p.next()? {
        Some(rec) => Err(rec.unexpected("reading past the indexed structure")),
        None => Ok(structure),
    }
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
        let idx = index_reader(&bytes[..]).unwrap();
        assert_eq!(idx.name, "streamed");
        assert_eq!(idx.units, lib.units);
        let names: Vec<&str> = idx.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["CELL0", "CELL1", "CELL2", "CELL3", "CELL4", "TOP"]);
    }

    #[test]
    fn streamed_structures_equal_full_parse() {
        let lib = sample();
        let bytes = write(&lib).unwrap();
        let idx = index_reader(&bytes[..]).unwrap();
        let mut cursor = std::io::Cursor::new(&bytes[..]);
        for (entry, expected) in idx.entries.iter().zip(&lib.structures) {
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
        assert_eq!(idx, index_reader(&bytes[..]).unwrap());
        let mut f = File::open(&path).unwrap();
        for (entry, expected) in idx.entries.iter().zip(&lib.structures) {
            assert_eq!(&read_structure(&mut f, entry).unwrap(), expected);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Counts what the parser pulls from (and how often it
    /// repositions) the underlying stream.
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
        // Many small records, payloads skipped: one sequential pass, no
        // repositioning.
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
        assert_eq!(idx, index_reader(&bytes[..]).unwrap());
        assert!(
            source.bytes <= 2 * bytes.len() as u64,
            "pulled {} bytes from a {}-byte stream",
            source.bytes,
            bytes.len()
        );
        assert_eq!(source.seeks, 0);
    }

    #[test]
    fn truncated_stream_reports_offset() {
        let bytes = write(&sample()).unwrap();
        for cut in [0, 7, bytes.len() / 2, bytes.len() - 3] {
            assert!(index_reader(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn entry_past_end_rejected() {
        let bytes = write(&sample()).unwrap();
        let idx = index_reader(&bytes[..]).unwrap();
        let mut entry = idx.entries[0].clone();
        entry.len = bytes.len() as u64 + 100;
        assert!(read_structure(&mut std::io::Cursor::new(&bytes[..]), &entry).is_err());
    }

    #[test]
    fn entry_must_end_at_endstr() {
        let bytes = write(&sample()).unwrap();
        let idx = index_reader(&bytes[..]).unwrap();
        let mut cursor = std::io::Cursor::new(&bytes[..]);
        let exact = idx.entries[0].clone();
        assert!(read_structure(&mut cursor, &exact).is_ok());
        // One record (the 4-byte ENDSTR) short, and 100 bytes into the
        // next structure.
        for len in [exact.len - 4, exact.len + 100] {
            let entry = StructureEntry {
                len,
                ..exact.clone()
            };
            assert!(read_structure(&mut cursor, &entry).is_err(), "len {len}");
        }
    }

    #[test]
    fn index_matches_materializing_reader() {
        // The two loaders must agree on which structures exist.
        let bytes = write(&sample()).unwrap();
        let full = crate::read(&bytes).unwrap();
        let idx = index_reader(&bytes[..]).unwrap();
        assert_eq!(full.structures.len(), idx.entries.len());
        for (s, e) in full.structures.iter().zip(&idx.entries) {
            assert_eq!(s.name, e.name);
        }
    }
}
