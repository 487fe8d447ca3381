//! Hierarchical layout database for OpenDRC.
//!
//! OpenDRC "does not flatten the layout, but preserves the layout
//! hierarchy instead" (§IV-A of the paper). This crate turns a GDSII
//! stream (or a parsed [`Library`]) into a [`Layout`]: a DAG of
//! [`Cell`]s whose references store pointers (cell ids) to shared
//! definitions, augmented with per-layer minimum bounding rectangles
//! ("layer-wise bounding volume hierarchy") so that layer range queries
//! prune whole subtrees.
//!
//! The crate also builds the space-for-speed secondary indices described
//! in the paper: per-layer hierarchy membership (which cells contain a
//! layer anywhere below them) and element-level inverted indices (the
//! full list of leaf polygons per layer).
//!
//! [`Library`]: odrc_gdsii::Library
//!
//! # Examples
//!
//! ```
//! use odrc_gdsii::{Element, Library, Structure};
//! use odrc_geometry::Point;
//! use odrc_db::Layout;
//!
//! let mut lib = Library::new("demo");
//! let mut cell = Structure::new("UNIT");
//! cell.elements.push(Element::boundary(
//!     1,
//!     vec![Point::new(0, 0), Point::new(0, 10), Point::new(10, 10), Point::new(10, 0)],
//! ));
//! lib.structures.push(cell);
//! let mut top = Structure::new("TOP");
//! top.elements.push(Element::sref("UNIT", Point::new(0, 0)));
//! top.elements.push(Element::sref("UNIT", Point::new(100, 0)));
//! lib.structures.push(top);
//!
//! // A GDSII stream (a `File`, a byte slice, ...) loads in one pass.
//! let layout = Layout::from_gds(&odrc_gdsii::write(&lib)?[..])?;
//! assert_eq!(layout.cell(layout.top()).name(), "TOP");
//! assert_eq!(layout.flatten_layer(1).len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod build;
mod edit;
mod export;
mod hash;
mod query;

pub use build::{DbError, LayoutBuilder};
pub use edit::EditError;

use std::collections::BTreeMap;

use odrc_geometry::{Polygon, Rect, Transform};

/// Identifier of a cell within its [`Layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// The raw index (cells are stored densely in definition order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index. The id is only meaningful for a
    /// layout with at least `index + 1` cells; the edit API validates
    /// ids before use.
    #[inline]
    pub fn from_index(index: usize) -> CellId {
        CellId(index as u32)
    }
}

/// Layer number (GDSII layer).
pub type Layer = i16;

/// A polygon placed on a layer inside a cell definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerPolygon {
    /// The layer the polygon lives on.
    pub layer: Layer,
    /// GDSII datatype (carried through for completeness).
    pub datatype: i16,
    /// The geometry, in cell-local coordinates.
    pub polygon: Polygon,
    /// Object name (GDSII property 1), inspected by `ensures`-style
    /// user predicates.
    pub name: Option<String>,
}

/// A placement of another cell inside a cell definition
/// (an `SREF`, or one instance of an expanded `AREF`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRef {
    /// The referenced cell.
    pub cell: CellId,
    /// Placement transform, in the parent's coordinates.
    pub transform: Transform,
}

/// A cell (GDSII structure): leaf geometry plus references.
#[derive(Debug, Clone)]
pub struct Cell {
    name: String,
    polygons: Vec<LayerPolygon>,
    refs: Vec<CellRef>,
    /// Per-layer MBR of the whole subtree, in cell-local coordinates.
    layer_mbr: BTreeMap<Layer, Rect>,
    /// MBR over all layers, `None` for an empty cell.
    mbr: Option<Rect>,
}

impl Cell {
    /// Cell name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Leaf polygons defined directly in this cell.
    #[inline]
    pub fn polygons(&self) -> &[LayerPolygon] {
        &self.polygons
    }

    /// Leaf polygons of this cell on one layer.
    pub fn polygons_on(&self, layer: Layer) -> impl Iterator<Item = &LayerPolygon> {
        self.polygons.iter().filter(move |p| p.layer == layer)
    }

    /// Child references.
    #[inline]
    pub fn refs(&self) -> &[CellRef] {
        &self.refs
    }

    /// Returns `true` if the cell has no child references.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.refs.is_empty()
    }

    /// Subtree MBR for one layer (cell-local coordinates), or `None` if
    /// the layer is absent below this cell. This is the MBR that the
    /// augmented hierarchy tree uses to prune layer range queries
    /// (§IV-A).
    #[inline]
    pub fn layer_mbr(&self, layer: Layer) -> Option<Rect> {
        self.layer_mbr.get(&layer).copied()
    }

    /// Subtree MBR over all layers.
    #[inline]
    pub fn mbr(&self) -> Option<Rect> {
        self.mbr
    }

    /// Layers present anywhere in this cell's subtree.
    pub fn layers(&self) -> impl Iterator<Item = Layer> + '_ {
        self.layer_mbr.keys().copied()
    }
}

/// A leaf polygon instantiated into top-level coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatPolygon {
    /// The cell the polygon was defined in.
    pub cell: CellId,
    /// Index into that cell's polygon list.
    pub index: usize,
    /// The geometry in top-level coordinates.
    pub polygon: Polygon,
}

/// Per-layer polygon counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerStats {
    /// The layer number.
    pub layer: Layer,
    /// Polygons in cell definitions (each counted once).
    pub defined_polygons: usize,
    /// Polygons after hierarchy expansion.
    pub instantiated_polygons: usize,
}

/// Summary statistics of a layout, as printed by the CLI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutStats {
    /// Number of cell definitions.
    pub cells: usize,
    /// Direct placements under the top cell.
    pub top_placements: usize,
    /// Per-layer counts, ascending by layer.
    pub per_layer: Vec<LayerStats>,
}

impl std::fmt::Display for LayoutStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} cells, {} top placements",
            self.cells, self.top_placements
        )?;
        for l in &self.per_layer {
            writeln!(
                f,
                "  layer {:>5}: {:>8} defined, {:>10} instantiated",
                l.layer, l.defined_polygons, l.instantiated_polygons
            )?;
        }
        Ok(())
    }
}

/// The hierarchical layout database.
///
/// Loaded from a GDSII stream via [`Layout::from_gds`]; see the
/// [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Layout {
    cells: Vec<Cell>,
    top: CellId,
    /// Per-layer element-level inverted index: every leaf polygon of the
    /// layer as `(cell, polygon index)`.
    inverted: BTreeMap<Layer, Vec<(CellId, usize)>>,
    /// Per-layer hierarchy membership: cells whose subtree contains the
    /// layer (the "duplicated" per-layer hierarchy trees of §IV-A).
    layer_cells: BTreeMap<Layer, Vec<CellId>>,
}

impl Layout {
    /// The root cell of the hierarchy.
    #[inline]
    pub fn top(&self) -> CellId {
        self.top
    }

    /// Looks up a cell by id.
    ///
    /// # Panics
    ///
    /// Panics if the id belongs to a different layout.
    #[inline]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// All cells, in definition order.
    #[inline]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// All cell ids, in definition order.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.cells.len()).map(|i| CellId(i as u32))
    }

    /// Finds a cell by name.
    pub fn cell_by_name(&self, name: &str) -> Option<CellId> {
        self.cells
            .iter()
            .position(|c| c.name == name)
            .map(|i| CellId(i as u32))
    }

    /// Layers present anywhere in the layout, ascending.
    pub fn layers(&self) -> Vec<Layer> {
        self.inverted.keys().copied().collect()
    }

    /// The element-level inverted index for a layer: every leaf polygon
    /// as `(cell, polygon index)` (§IV-A "inverted indices").
    pub fn layer_polygons(&self, layer: Layer) -> &[(CellId, usize)] {
        self.inverted.get(&layer).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The cells whose subtree contains `layer` — the membership of the
    /// per-layer duplicated hierarchy tree (§IV-A).
    pub fn cells_with_layer(&self, layer: Layer) -> &[CellId] {
        self.layer_cells
            .get(&layer)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Summary statistics of the layout.
    pub fn stats(&self) -> LayoutStats {
        let order = build::topo_order(&self.cells).expect("layout DAG is acyclic");
        let mut per_layer = Vec::new();
        for layer in self.layers() {
            per_layer.push(LayerStats {
                layer,
                defined_polygons: self.layer_polygons(layer).len(),
                instantiated_polygons: self.instance_count_in(&order, layer),
            });
        }
        LayoutStats {
            cells: self.cell_count(),
            top_placements: self.cell(self.top).refs().len(),
            per_layer,
        }
    }

    /// Direct placements under the top cell, the unit of the adaptive
    /// row-based partition (§IV-B).
    pub fn top_placements(&self) -> &[CellRef] {
        self.cell(self.top).refs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrc_gdsii::{Element, Library, Structure};
    use odrc_geometry::Point;

    fn unit_square_lib() -> Library {
        let mut lib = Library::new("t");
        let mut cell = Structure::new("UNIT");
        cell.elements.push(Element::boundary(
            1,
            vec![
                Point::new(0, 0),
                Point::new(0, 10),
                Point::new(10, 10),
                Point::new(10, 0),
            ],
        ));
        lib.structures.push(cell);
        let mut top = Structure::new("TOP");
        top.elements.push(Element::sref("UNIT", Point::new(0, 0)));
        top.elements.push(Element::sref("UNIT", Point::new(50, 20)));
        lib.structures.push(top);
        lib
    }

    #[test]
    fn cell_accessors() {
        let layout = Layout::from_library(&unit_square_lib()).unwrap();
        let top = layout.cell(layout.top());
        assert_eq!(top.name(), "TOP");
        assert_eq!(top.refs().len(), 2);
        assert!(!top.is_leaf());
        let unit = layout.cell(layout.cell_by_name("UNIT").unwrap());
        assert!(unit.is_leaf());
        assert_eq!(unit.polygons().len(), 1);
        assert_eq!(unit.polygons_on(1).count(), 1);
        assert_eq!(unit.polygons_on(2).count(), 0);
        assert_eq!(unit.layers().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn layer_mbr_aggregates_subtree() {
        let layout = Layout::from_library(&unit_square_lib()).unwrap();
        let top = layout.cell(layout.top());
        assert_eq!(top.layer_mbr(1), Some(Rect::from_coords(0, 0, 60, 30)));
        assert_eq!(top.layer_mbr(2), None);
        assert_eq!(top.mbr(), Some(Rect::from_coords(0, 0, 60, 30)));
    }

    #[test]
    fn inverted_index_lists_leaves() {
        let layout = Layout::from_library(&unit_square_lib()).unwrap();
        let unit = layout.cell_by_name("UNIT").unwrap();
        assert_eq!(layout.layer_polygons(1), &[(unit, 0)]);
        assert!(layout.layer_polygons(9).is_empty());
        assert_eq!(layout.layers(), vec![1]);
    }

    #[test]
    fn layer_cells_membership() {
        let layout = Layout::from_library(&unit_square_lib()).unwrap();
        let unit = layout.cell_by_name("UNIT").unwrap();
        let cells = layout.cells_with_layer(1);
        assert!(cells.contains(&unit));
        assert!(cells.contains(&layout.top()));
        assert!(layout.cells_with_layer(5).is_empty());
    }

    #[test]
    fn stats_summarize_layout() {
        let layout = Layout::from_library(&unit_square_lib()).unwrap();
        let stats = layout.stats();
        assert_eq!(stats.cells, 2);
        assert_eq!(stats.top_placements, 2);
        assert_eq!(stats.per_layer.len(), 1);
        assert_eq!(stats.per_layer[0].layer, 1);
        assert_eq!(stats.per_layer[0].defined_polygons, 1);
        assert_eq!(stats.per_layer[0].instantiated_polygons, 2);
        let text = stats.to_string();
        assert!(text.contains("2 cells"));
        assert!(text.contains("layer     1"));
    }

    #[test]
    fn top_placements_enumerated() {
        let layout = Layout::from_library(&unit_square_lib()).unwrap();
        let placements = layout.top_placements();
        assert_eq!(placements.len(), 2);
        assert_eq!(placements[1].transform.translate(), Point::new(50, 20));
    }
}
