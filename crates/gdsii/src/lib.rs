//! GDSII stream format reader and writer for OpenDRC.
//!
//! The GDSII stream format [Calma, 1987] is the interchange format for
//! hierarchical mask layouts. Its Backus-Naur structure (§IV-A of the
//! paper) defines a library as a list of *structures* (cells), each a
//! list of *elements*; an element can be a geometric primitive
//! (`BOUNDARY`, `PATH`, `TEXT`) or a reference to another structure
//! (`SREF`, `AREF`), which is how unbounded hierarchy arises.
//!
//! This crate provides:
//!
//! * [`Library`], [`Structure`], [`Element`] — a faithful in-memory
//!   model of the stream contents, and [`ElementRef`], an element
//!   borrowed from its decoder,
//! * [`Reader`] — the binary stream parser, with offset-carrying
//!   errors: it pulls one structure name or element at a time from any
//!   `std::io::Read`. [`Reader::next_ref`] lends each element out of
//!   buffers the reader reuses, so the walk allocates nothing per
//!   element (`odrc_db::Layout::from_gds` loads layouts this way);
//!   [`Reader::next`] is the same decode, owned,
//! * [`read()`] / [`read_file`] — the same reader, collected into a
//!   [`Library`],
//! * [`Writer`] — the binary stream encoder, the exact inverse of the
//!   parser: structures of borrowed [`ElementRef`]s in, bytes out
//!   (`odrc_db::Layout::to_gds` exports layouts this way);
//!   [`write()`] / [`write_file`] feed it a [`Library`],
//! * [`record`] — the low-level record codec (types, lengths, and the
//!   excess-64 base-16 8-byte real number format),
//! * [`stream`] — a structure span index (no geometry materialized)
//!   plus per-structure parsing, on the same reader; kept for the
//!   benchmark's layer rows, not a load path of `odrc`.
//!
//! # Examples
//!
//! ```
//! use odrc_gdsii::{Element, Library, Structure};
//! use odrc_geometry::Point;
//!
//! let mut lib = Library::new("demo");
//! let mut cell = Structure::new("INV");
//! cell.elements.push(Element::boundary(
//!     1,
//!     vec![
//!         Point::new(0, 0),
//!         Point::new(0, 50),
//!         Point::new(30, 50),
//!         Point::new(30, 0),
//!     ],
//! ));
//! lib.structures.push(cell);
//!
//! let bytes = odrc_gdsii::write(&lib)?;
//! let back = odrc_gdsii::read(&bytes)?;
//! assert_eq!(back, lib);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod model;
pub mod read;
pub mod record;
pub mod stream;
pub mod write;

pub use model::{
    BoundaryElement, Element, ElementRef, Library, PathElement, RefElement, Structure, TextElement,
    TransformError, Units,
};
pub use read::{read, read_file, Item, ItemRef, ReadError, Reader};
pub use write::{write, write_file, WriteError, Writer};
