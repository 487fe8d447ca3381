//! Conversion from a GDSII library into the layout database.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::Read;

use odrc_gdsii::{
    Element, Item, Library, PathElement, ReadError, Reader, Structure, TransformError,
};
#[cfg(test)]
use odrc_geometry::Point;
use odrc_geometry::{Polygon, PolygonError, Rect};

use crate::{Cell, CellId, CellRef, Layer, LayerPolygon, Layout};

/// Error importing a GDSII library into the database.
#[derive(Debug)]
pub enum DbError {
    /// The library defines no structures.
    EmptyLibrary,
    /// Two structures share a name.
    DuplicateStructure {
        /// The duplicated name.
        name: String,
    },
    /// A reference names a structure that does not exist.
    UnknownStructure {
        /// The referencing structure.
        referrer: String,
        /// The missing name.
        name: String,
    },
    /// The reference graph contains a cycle (infinite hierarchy).
    CircularReference {
        /// A structure on the cycle.
        name: String,
    },
    /// A boundary's vertices are not a valid rectilinear polygon.
    InvalidPolygon {
        /// The containing structure.
        cell: String,
        /// Element index within the structure.
        index: usize,
        /// The underlying validation failure.
        source: PolygonError,
    },
    /// A reference uses an angle or magnification the engine cannot
    /// represent exactly.
    UnsupportedTransform {
        /// The containing structure.
        cell: String,
        /// The underlying failure.
        source: TransformError,
    },
    /// A path uses round end caps or a non-positive width.
    UnsupportedPath {
        /// The containing structure.
        cell: String,
        /// Element index within the structure.
        index: usize,
    },
    /// The library has no top structure (everything is referenced).
    NoTopStructure,
    /// The GDSII stream itself is unreadable or malformed.
    Read(ReadError),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::EmptyLibrary => write!(f, "library defines no structures"),
            DbError::DuplicateStructure { name } => {
                write!(f, "structure '{name}' is defined more than once")
            }
            DbError::UnknownStructure { referrer, name } => {
                write!(
                    f,
                    "structure '{referrer}' references unknown structure '{name}'"
                )
            }
            DbError::CircularReference { name } => {
                write!(f, "structure '{name}' participates in a reference cycle")
            }
            DbError::InvalidPolygon {
                cell,
                index,
                source,
            } => write!(f, "invalid polygon in '{cell}' element {index}: {source}"),
            DbError::UnsupportedTransform { cell, source } => {
                write!(f, "unsupported transform in '{cell}': {source}")
            }
            DbError::UnsupportedPath { cell, index } => {
                write!(f, "unsupported path in '{cell}' element {index}")
            }
            DbError::NoTopStructure => write!(f, "library has no unreferenced top structure"),
            DbError::Read(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::InvalidPolygon { source, .. } => Some(source),
            DbError::UnsupportedTransform { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ReadError> for DbError {
    fn from(e: ReadError) -> Self {
        DbError::Read(e)
    }
}

impl Layout {
    /// Loads a GDSII stream.
    ///
    /// Each element goes to a [`LayoutBuilder`] as it is decoded, so
    /// the load never holds the element model ([`Library`],
    /// [`Structure`]) — only the growing layout and one element.
    ///
    /// The hierarchy is preserved — references become [`CellRef`]s
    /// holding cell ids, not copies (§IV-A). Array references are
    /// expanded into their individual instance transforms. Paths are
    /// converted to per-segment rectangle polygons. Text elements carry
    /// no mask geometry and are skipped. Among the unreferenced
    /// structures, the one with the largest expanded subtree becomes
    /// the root; ties go to stream order.
    ///
    /// After loading, per-layer subtree MBRs and the layer indices are
    /// computed bottom-up.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Read`] for an unreadable or malformed stream,
    /// and the other [`DbError`]s for structural problems: duplicate or
    /// missing structure names, reference cycles, invalid polygons,
    /// transforms the integer engine cannot represent
    /// (non-quarter-turn rotations, fractional magnification), or
    /// unsupported path styles.
    pub fn from_gds(src: impl Read) -> Result<Layout, DbError> {
        let mut reader = Reader::new(src)?;
        let mut builder = LayoutBuilder::new();
        while let Some(item) = reader.next()? {
            match item {
                Item::Structure(name) => builder.begin_structure(name)?,
                Item::Element(element) => builder.add_element(element)?,
            }
        }
        builder.finish()
    }

    /// Imports an in-memory GDSII library — the conversion of
    /// [`Layout::from_gds`], for callers that hold the element model
    /// (generators, [`crate::edit`], the benchmark's layer rows).
    ///
    /// # Errors
    ///
    /// The structural [`DbError`]s of [`Layout::from_gds`].
    pub fn from_library(lib: &Library) -> Result<Layout, DbError> {
        let mut builder = LayoutBuilder::new();
        for s in &lib.structures {
            builder.add_structure(s)?;
        }
        builder.finish()
    }

    /// Imports a GDSII library with an explicitly chosen top structure
    /// instead of the largest-unreferenced-subtree heuristic.
    ///
    /// Used when rebuilding an edited layout, where the design root is
    /// known and must not drift as edits change subtree sizes.
    ///
    /// # Errors
    ///
    /// Same as [`Layout::from_library`], plus
    /// [`DbError::NoTopStructure`] if `top` names no structure.
    pub fn from_library_with_top(lib: &Library, top: &str) -> Result<Layout, DbError> {
        let mut layout = Layout::from_library(lib)?;
        let id = layout.cell_by_name(top).ok_or(DbError::NoTopStructure)?;
        layout.top = id;
        Ok(layout)
    }
}

/// Incremental [`Layout`] construction.
///
/// The builder takes a structure name, then that structure's elements
/// one at a time; each element is converted into the open [`Cell`] on
/// the spot and consumed, so a load holds the growing layout and
/// nothing else. A reference is recorded as an interned name and
/// resolved in [`LayoutBuilder::finish`], so forward references work
/// in any feed order.
///
/// # Examples
///
/// ```
/// use odrc_db::LayoutBuilder;
/// use odrc_gdsii::Element;
/// use odrc_geometry::Point;
///
/// let mut b = LayoutBuilder::new();
/// b.begin_structure("TOP".to_owned())?;
/// b.add_element(Element::boundary(
///     1,
///     vec![
///         Point::new(0, 0),
///         Point::new(0, 4),
///         Point::new(4, 4),
///         Point::new(4, 0),
///     ],
/// ))?;
/// let layout = b.finish()?;
/// assert_eq!(layout.cell(layout.top()).name(), "TOP");
/// # Ok::<(), odrc_db::DbError>(())
/// ```
#[derive(Default)]
pub struct LayoutBuilder {
    /// Every structure name defined or referenced so far, interned.
    names: HashMap<String, u32>,
    /// Per interned name, the cell that defines it (if any yet).
    defined: Vec<Option<CellId>>,
    /// Until [`LayoutBuilder::finish`] resolves them, `refs` hold the
    /// interned *name* of their target in `CellRef::cell`: one flat
    /// entry per instance, and no second copy to build the final one
    /// from.
    cells: Vec<Cell>,
    /// Elements fed to the open structure so far.
    elements: usize,
}

impl LayoutBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        LayoutBuilder::default()
    }

    fn intern(&mut self, name: String) -> u32 {
        let next = self.defined.len() as u32;
        let id = *self.names.entry(name).or_insert(next);
        if id == next {
            self.defined.push(None);
        }
        id
    }

    /// Opens a new structure; the elements that follow are its.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::DuplicateStructure`] for a name already
    /// begun.
    pub fn begin_structure(&mut self, name: String) -> Result<(), DbError> {
        let id = self.intern(name.clone()) as usize;
        if self.defined[id].is_some() {
            return Err(DbError::DuplicateStructure { name });
        }
        self.defined[id] = Some(CellId(self.cells.len() as u32));
        self.elements = 0;
        self.cells.push(Cell {
            name,
            polygons: Vec::new(),
            refs: Vec::new(),
            layer_mbr: BTreeMap::new(),
            mbr: None,
        });
        Ok(())
    }

    /// Converts one element into the open structure's cell.
    ///
    /// # Errors
    ///
    /// Returns [`DbError`] for an invalid polygon, an unsupported
    /// transform, or an unsupported path.
    ///
    /// # Panics
    ///
    /// Panics when no structure was begun.
    pub fn add_element(&mut self, element: Element) -> Result<(), DbError> {
        let index = self.elements;
        self.elements += 1;
        let cell = self.cells.last_mut().expect("begin_structure comes first");
        match element {
            Element::Boundary(b) => {
                let polygon = Polygon::new(b.points).map_err(|source| DbError::InvalidPolygon {
                    cell: cell.name.clone(),
                    index,
                    source,
                })?;
                let name = b
                    .properties
                    .into_iter()
                    .find(|(attr, _)| *attr == 1)
                    .map(|(_, v)| v);
                cell.polygons.push(LayerPolygon {
                    layer: b.layer,
                    datatype: b.datatype,
                    polygon,
                    name,
                });
            }
            Element::Path(p) => {
                let polygons = path_to_polygons(&p).ok_or(DbError::UnsupportedPath {
                    cell: cell.name.clone(),
                    index,
                })?;
                cell.polygons
                    .extend(polygons.into_iter().map(|polygon| LayerPolygon {
                        layer: p.layer,
                        datatype: p.datatype,
                        polygon,
                        name: None,
                    }));
            }
            Element::Text(_) => {}
            Element::Ref(r) => {
                let transforms =
                    r.instance_transforms()
                        .map_err(|source| DbError::UnsupportedTransform {
                            cell: cell.name.clone(),
                            source,
                        })?;
                // Magnification breaks the isometry invariant that
                // hierarchical check-result reuse (§IV-C) depends
                // on: a cell's cached verdicts are only valid for
                // distance- and area-preserving placements.
                // Standard-cell layouts never magnify; reject
                // rather than silently mis-check.
                if let Some(t) = transforms.iter().find(|t| !t.is_isometry()) {
                    return Err(DbError::UnsupportedTransform {
                        cell: cell.name.clone(),
                        source: TransformError::UnsupportedMag {
                            mag: f64::from(t.mag()),
                        },
                    });
                }
                let target = CellId(self.intern(r.sname));
                let cell = self.cells.last_mut().expect("begin_structure comes first");
                cell.refs
                    .extend(transforms.into_iter().map(|transform| CellRef {
                        cell: target,
                        transform,
                    }));
            }
        }
        Ok(())
    }

    /// Converts one whole structure into a cell.
    ///
    /// # Errors
    ///
    /// Those of [`LayoutBuilder::begin_structure`] and
    /// [`LayoutBuilder::add_element`].
    pub fn add_structure(&mut self, s: &Structure) -> Result<(), DbError> {
        self.begin_structure(s.name.clone())?;
        s.elements
            .iter()
            .try_for_each(|e| self.add_element(e.clone()))
    }

    /// Resolves references and finishes the layout: topological order,
    /// bottom-up subtree MBRs, top-cell selection, and layer indices.
    ///
    /// # Errors
    ///
    /// Returns [`DbError`] when no structure was added, a reference
    /// names an unknown structure, the reference graph has a cycle, or
    /// no structure is unreferenced.
    pub fn finish(self) -> Result<Layout, DbError> {
        let mut cells = self.cells;
        if cells.is_empty() {
            return Err(DbError::EmptyLibrary);
        }
        for cell in &mut cells {
            for r in &mut cell.refs {
                let name = r.cell.0;
                r.cell = self.defined[name as usize].ok_or_else(|| DbError::UnknownStructure {
                    referrer: cell.name.clone(),
                    name: self
                        .names
                        .iter()
                        .find_map(|(n, &id)| (id == name).then(|| n.clone()))
                        .expect("every id was interned from a name"),
                })?;
            }
        }
        finish_cells(cells)
    }
}

/// Shared tail of layout construction over fully-resolved cells.
fn finish_cells(mut cells: Vec<Cell>) -> Result<Layout, DbError> {
    // Topological order (children before parents) + cycle check.
    let order = topo_order(&cells)?;

    // Bottom-up layer MBRs.
    for &ci in &order {
        let mut layer_mbr: BTreeMap<Layer, Rect> = BTreeMap::new();
        for p in &cells[ci].polygons {
            let mbr = p.polygon.mbr();
            layer_mbr
                .entry(p.layer)
                .and_modify(|r| *r = r.hull(mbr))
                .or_insert(mbr);
        }
        // Children are already computed thanks to topological order.
        let child_boxes: Vec<(Layer, Rect)> = cells[ci]
            .refs
            .iter()
            .flat_map(|r| {
                let child = &cells[r.cell.index()];
                child
                    .layer_mbr
                    .iter()
                    .map(|(&l, &m)| (l, r.transform.apply_rect(m)))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (l, m) in child_boxes {
            layer_mbr
                .entry(l)
                .and_modify(|r| *r = r.hull(m))
                .or_insert(m);
        }
        let mbr = layer_mbr.values().copied().reduce(|a, b| a.hull(b));
        cells[ci].layer_mbr = layer_mbr;
        cells[ci].mbr = mbr;
    }

    // Pick the top: among unreferenced structures, the one with the
    // largest expanded subtree (libraries often carry unused spare
    // cells which must not shadow the real design root); ties go to
    // stream order.
    let mut referenced = vec![false; cells.len()];
    for c in &cells {
        for r in &c.refs {
            referenced[r.cell.index()] = true;
        }
    }
    let mut subtree_size = vec![0usize; cells.len()];
    for &ci in &order {
        // Children precede parents in `order`.
        subtree_size[ci] = cells[ci].polygons.len()
            + cells[ci]
                .refs
                .iter()
                .map(|r| subtree_size[r.cell.index()])
                .sum::<usize>();
    }
    let top = (0..cells.len())
        .filter(|&i| !referenced[i])
        .max_by(|&a, &b| {
            subtree_size[a].cmp(&subtree_size[b]).then(b.cmp(&a)) // prefer earlier stream order on ties
        })
        .map(|i| CellId(i as u32))
        .ok_or(DbError::NoTopStructure)?;

    // Layer indices.
    let mut inverted: BTreeMap<Layer, Vec<(CellId, usize)>> = BTreeMap::new();
    for (ci, c) in cells.iter().enumerate() {
        for (pi, p) in c.polygons.iter().enumerate() {
            inverted
                .entry(p.layer)
                .or_default()
                .push((CellId(ci as u32), pi));
        }
    }
    let mut layer_cells: BTreeMap<Layer, Vec<CellId>> = BTreeMap::new();
    for (ci, c) in cells.iter().enumerate() {
        for &l in c.layer_mbr.keys() {
            layer_cells.entry(l).or_default().push(CellId(ci as u32));
        }
    }

    Ok(Layout {
        cells,
        top,
        inverted,
        layer_cells,
    })
}

/// Children-before-parents order over the reference DAG.
pub(crate) fn topo_order(cells: &[Cell]) -> Result<Vec<usize>, DbError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Gray,
        Black,
    }
    let mut marks = vec![Mark::White; cells.len()];
    let mut order = Vec::with_capacity(cells.len());

    // Iterative DFS with an explicit stack to survive deep hierarchies.
    for start in 0..cells.len() {
        if marks[start] != Mark::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        marks[start] = Mark::Gray;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let refs = &cells[node].refs;
            if *next < refs.len() {
                let child = refs[*next].cell.index();
                *next += 1;
                match marks[child] {
                    Mark::White => {
                        marks[child] = Mark::Gray;
                        stack.push((child, 0));
                    }
                    Mark::Gray => {
                        return Err(DbError::CircularReference {
                            name: cells[child].name.clone(),
                        });
                    }
                    Mark::Black => {}
                }
            } else {
                marks[node] = Mark::Black;
                order.push(node);
                stack.pop();
            }
        }
    }
    Ok(order)
}

/// Expands an axis-aligned path into per-segment rectangles.
///
/// Returns `None` for unsupported paths: round caps (`pathtype == 1`),
/// non-positive width, odd width (which would not center exactly on the
/// integer grid), or diagonal segments.
fn path_to_polygons(p: &PathElement) -> Option<Vec<Polygon>> {
    if p.path_type == 1 || p.width <= 0 || p.width % 2 != 0 {
        return None;
    }
    let half = p.width / 2;
    let extend = if p.path_type == 2 { half } else { 0 };
    let mut out = Vec::with_capacity(p.points.len().saturating_sub(1));
    for w in p.points.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a.x != b.x && a.y != b.y {
            return None; // diagonal segment
        }
        if a == b {
            return None; // degenerate segment
        }
        let rect = if a.x == b.x {
            // Vertical segment.
            let (lo, hi) = if a.y < b.y { (a.y, b.y) } else { (b.y, a.y) };
            Rect::from_coords(a.x - half, lo - extend, a.x + half, hi + extend)
        } else {
            let (lo, hi) = if a.x < b.x { (a.x, b.x) } else { (b.x, a.x) };
            Rect::from_coords(lo - extend, a.y - half, hi + extend, a.y + half)
        };
        out.push(Polygon::rect(rect));
    }
    if out.is_empty() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrc_gdsii::{BoundaryElement, Element, Library, RefElement, Structure};

    fn p(x: i32, y: i32) -> Point {
        Point::new(x, y)
    }

    fn square(layer: i16) -> Element {
        Element::boundary(layer, vec![p(0, 0), p(0, 10), p(10, 10), p(10, 0)])
    }

    #[test]
    fn empty_library_rejected() {
        assert!(matches!(
            Layout::from_library(&Library::new("x")),
            Err(DbError::EmptyLibrary)
        ));
    }

    #[test]
    fn duplicate_structure_rejected() {
        let mut lib = Library::new("x");
        lib.structures.push(Structure::new("A"));
        lib.structures.push(Structure::new("A"));
        assert!(matches!(
            Layout::from_library(&lib),
            Err(DbError::DuplicateStructure { .. })
        ));
    }

    #[test]
    fn unknown_reference_rejected() {
        let mut lib = Library::new("x");
        let mut s = Structure::new("A");
        s.elements.push(Element::sref("MISSING", p(0, 0)));
        lib.structures.push(s);
        match Layout::from_library(&lib) {
            Err(DbError::UnknownStructure { referrer, name }) => {
                assert_eq!(referrer, "A");
                assert_eq!(name, "MISSING");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reference_cycle_rejected() {
        let mut lib = Library::new("x");
        let mut a = Structure::new("A");
        a.elements.push(Element::sref("B", p(0, 0)));
        let mut b = Structure::new("B");
        b.elements.push(Element::sref("A", p(0, 0)));
        lib.structures.push(a);
        lib.structures.push(b);
        assert!(matches!(
            Layout::from_library(&lib),
            Err(DbError::CircularReference { .. })
        ));
    }

    #[test]
    fn self_reference_rejected() {
        let mut lib = Library::new("x");
        let mut a = Structure::new("A");
        a.elements.push(Element::sref("A", p(0, 0)));
        lib.structures.push(a);
        assert!(matches!(
            Layout::from_library(&lib),
            Err(DbError::CircularReference { .. })
        ));
    }

    #[test]
    fn invalid_polygon_reported_with_location() {
        let mut lib = Library::new("x");
        let mut s = Structure::new("BAD");
        s.elements.push(Element::boundary(
            1,
            vec![p(0, 0), p(5, 5), p(5, 0), p(0, 5)],
        ));
        lib.structures.push(s);
        match Layout::from_library(&lib) {
            Err(DbError::InvalidPolygon { cell, index, .. }) => {
                assert_eq!(cell, "BAD");
                assert_eq!(index, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unsupported_angle_reported() {
        let mut lib = Library::new("x");
        lib.structures.push(Structure::new("LEAF"));
        let mut top = Structure::new("TOP");
        let mut r = RefElement::sref("LEAF", p(0, 0));
        r.angle_deg = 30.0;
        top.elements.push(Element::Ref(r));
        lib.structures.push(top);
        assert!(matches!(
            Layout::from_library(&lib),
            Err(DbError::UnsupportedTransform { .. })
        ));
    }

    #[test]
    fn magnified_reference_rejected() {
        // mag != 1 would invalidate hierarchical check-result reuse.
        let mut lib = Library::new("x");
        let mut leaf = Structure::new("LEAF");
        leaf.elements.push(square(1));
        lib.structures.push(leaf);
        let mut top = Structure::new("TOP");
        let mut r = RefElement::sref("LEAF", p(0, 0));
        r.mag = 2.0;
        top.elements.push(Element::Ref(r));
        lib.structures.push(top);
        assert!(matches!(
            Layout::from_library(&lib),
            Err(DbError::UnsupportedTransform { .. })
        ));
    }

    #[test]
    fn aref_expansion_creates_refs() {
        let mut lib = Library::new("x");
        let mut leaf = Structure::new("LEAF");
        leaf.elements.push(square(3));
        lib.structures.push(leaf);
        let mut top = Structure::new("TOP");
        let mut r = RefElement::sref("LEAF", p(0, 0));
        r.array = Some(odrc_gdsii::model::ArrayParams {
            cols: 5,
            rows: 2,
            col_step: p(20, 0),
            row_step: p(0, 30),
        });
        top.elements.push(Element::Ref(r));
        lib.structures.push(top);
        let layout = Layout::from_library(&lib).unwrap();
        assert_eq!(layout.cell(layout.top()).refs().len(), 10);
        // MBR covers the whole array: x up to 4*20+10, y up to 30+10.
        assert_eq!(
            layout.cell(layout.top()).layer_mbr(3),
            Some(Rect::from_coords(0, 0, 90, 40))
        );
    }

    #[test]
    fn path_converted_to_rectangles() {
        let mut lib = Library::new("x");
        let mut s = Structure::new("WIRE");
        s.elements.push(Element::Path(PathElement {
            layer: 7,
            datatype: 0,
            path_type: 0,
            width: 4,
            points: vec![p(0, 0), p(20, 0), p(20, 30)],
            properties: vec![],
        }));
        lib.structures.push(s);
        let layout = Layout::from_library(&lib).unwrap();
        let cell = layout.cell(layout.top());
        assert_eq!(cell.polygons().len(), 2);
        assert_eq!(
            cell.polygons()[0].polygon.mbr(),
            Rect::from_coords(0, -2, 20, 2)
        );
        assert_eq!(
            cell.polygons()[1].polygon.mbr(),
            Rect::from_coords(18, 0, 22, 30)
        );
    }

    #[test]
    fn extended_caps_grow_segments() {
        let mut lib = Library::new("x");
        let mut s = Structure::new("WIRE");
        s.elements.push(Element::Path(PathElement {
            layer: 7,
            datatype: 0,
            path_type: 2,
            width: 4,
            points: vec![p(0, 0), p(20, 0)],
            properties: vec![],
        }));
        lib.structures.push(s);
        let layout = Layout::from_library(&lib).unwrap();
        assert_eq!(
            layout.cell(layout.top()).polygons()[0].polygon.mbr(),
            Rect::from_coords(-2, -2, 22, 2)
        );
    }

    #[test]
    fn round_caps_rejected() {
        let mut lib = Library::new("x");
        let mut s = Structure::new("WIRE");
        s.elements.push(Element::Path(PathElement {
            layer: 7,
            datatype: 0,
            path_type: 1,
            width: 4,
            points: vec![p(0, 0), p(20, 0)],
            properties: vec![],
        }));
        lib.structures.push(s);
        assert!(matches!(
            Layout::from_library(&lib),
            Err(DbError::UnsupportedPath { .. })
        ));
    }

    #[test]
    fn property_one_becomes_name() {
        let mut lib = Library::new("x");
        let mut s = Structure::new("S");
        s.elements.push(Element::Boundary(BoundaryElement {
            layer: 1,
            datatype: 0,
            points: vec![p(0, 0), p(0, 4), p(4, 4), p(4, 0)],
            properties: vec![(2, "other".into()), (1, "net42".into())],
        }));
        lib.structures.push(s);
        let layout = Layout::from_library(&lib).unwrap();
        assert_eq!(
            layout.cell(layout.top()).polygons()[0].name.as_deref(),
            Some("net42")
        );
    }

    #[test]
    fn deep_hierarchy_mbrs_compose() {
        // TOP -> MID (rotated 90, at (100, 0)) -> LEAF (at (10, 20)).
        let mut lib = Library::new("x");
        let mut leaf = Structure::new("LEAF");
        leaf.elements.push(square(1));
        lib.structures.push(leaf);
        let mut mid = Structure::new("MID");
        mid.elements.push(Element::sref("LEAF", p(10, 20)));
        lib.structures.push(mid);
        let mut top = Structure::new("TOP");
        let mut r = RefElement::sref("MID", p(100, 0));
        r.angle_deg = 90.0;
        top.elements.push(Element::Ref(r));
        lib.structures.push(top);

        let layout = Layout::from_library(&lib).unwrap();
        // LEAF local MBR [0,0,10,10]; in MID: [10,20,20,30]; R90 about
        // origin then +(100,0): [(-30,10),(-20,20)] + (100,0) = [70,10,80,20].
        assert_eq!(
            layout.cell(layout.top()).layer_mbr(1),
            Some(Rect::from_coords(70, 10, 80, 20))
        );
    }

    #[test]
    fn first_unreferenced_structure_is_top() {
        let mut lib = Library::new("x");
        let mut a = Structure::new("A");
        a.elements.push(square(1));
        lib.structures.push(a); // unreferenced, first in order
        let mut b = Structure::new("B");
        b.elements.push(square(1));
        lib.structures.push(b); // unreferenced too
        let layout = Layout::from_library(&lib).unwrap();
        assert_eq!(layout.cell(layout.top()).name(), "A");
    }
}
