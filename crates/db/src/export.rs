//! Export of a [`Layout`] back into GDSII: streamed straight to bytes
//! ([`Layout::to_gds`]) or built as a [`Library`]
//! ([`Layout::to_library`]), and the top cell's subtree as a layout of
//! its own ([`Layout::top_subtree`]).
//!
//! The inverse of [`Layout::from_gds`], up to the lossy steps of the
//! import (paths become boundary rectangles, arrays are expanded into
//! individual `SREF`s, text elements are dropped). Re-importing the
//! export reproduces the same cells, geometry, and indices, which is
//! what the edit-layer consistency checks rely on.

use std::collections::BTreeMap;

use odrc_gdsii::model::RefPlacement;
use odrc_gdsii::{
    BoundaryElement, Element, ElementRef, Library, RefElement, Structure, Units, WriteError, Writer,
};

use crate::{Cell, CellId, CellRef, Layout};

impl Layout {
    /// Encodes the layout as a GDSII stream of a library named `name`,
    /// each cell's polygons and references streamed through one
    /// [`Writer`]: byte-identical to
    /// `odrc_gdsii::write(&self.to_library(name))`, without building
    /// the library.
    ///
    /// # Errors
    ///
    /// [`WriteError`] for a name or polygon past the format's record
    /// capacity.
    pub fn to_gds(&self, name: &str) -> Result<Vec<u8>, WriteError> {
        let mut w = Writer::new(name, Units::default())?;
        // A named polygon's one property, its value buffer reused.
        let mut named = [(1i16, String::new())];
        for cell in &self.cells {
            w.begin_structure(cell.name())?;
            for p in cell.polygons() {
                let properties: &[(i16, String)] = match &p.name {
                    Some(n) => {
                        named[0].1.clear();
                        named[0].1.push_str(n);
                        &named
                    }
                    None => &[],
                };
                w.element(ElementRef::Boundary {
                    layer: p.layer,
                    datatype: p.datatype,
                    points: p.polygon.vertices(),
                    properties,
                })?;
            }
            for r in cell.refs() {
                let t = &r.transform;
                w.element(ElementRef::Ref {
                    sname: self.cell(r.cell).name(),
                    placement: RefPlacement {
                        origin: t.translate(),
                        mirror_x: t.mirror_x(),
                        angle_deg: f64::from(t.rotation().quarter_turns()) * 90.0,
                        mag: f64::from(t.mag()),
                        array: None,
                    },
                })?;
            }
            w.end_structure();
        }
        Ok(w.finish())
    }

    /// The cells reachable from the top, as a layout of their own: in
    /// `CellId` order, references remapped, the same top. The top is
    /// its one unreferenced cell, so
    /// `Layout::from_gds(&sub.to_gds(..)?[..])` gives back `sub`: its
    /// top, cell ids, names and [`Layout::subtree_hashes`].
    pub fn top_subtree(&self) -> Layout {
        let mut reached = vec![false; self.cells.len()];
        reached[self.top.index()] = true;
        let mut stack = vec![self.top.index()];
        while let Some(ci) = stack.pop() {
            for r in &self.cells[ci].refs {
                if !reached[r.cell.index()] {
                    reached[r.cell.index()] = true;
                    stack.push(r.cell.index());
                }
            }
        }
        // New ids keep the old order, so every id-sorted list stays
        // sorted under the remap.
        let mut remap = vec![CellId(u32::MAX); self.cells.len()];
        let kept = remap.iter_mut().zip(&reached).filter(|(_, &kept)| kept);
        for (next, (id, _)) in kept.enumerate() {
            *id = CellId(next as u32);
        }
        let id = |c: CellId| remap[c.index()];
        let cells = self
            .cells
            .iter()
            .zip(&reached)
            .filter(|(_, &kept)| kept)
            .map(|(c, _)| Cell {
                name: c.name.clone(),
                polygons: c.polygons.clone(),
                refs: c
                    .refs
                    .iter()
                    .map(|r| CellRef {
                        cell: id(r.cell),
                        transform: r.transform,
                    })
                    .collect(),
                layer_mbr: c.layer_mbr.clone(),
                mbr: c.mbr,
            })
            .collect();
        let mut inverted = BTreeMap::new();
        for (&layer, polys) in &self.inverted {
            let kept: Vec<(CellId, usize)> = polys
                .iter()
                .filter(|(c, _)| reached[c.index()])
                .map(|&(c, pi)| (id(c), pi))
                .collect();
            if !kept.is_empty() {
                inverted.insert(layer, kept);
            }
        }
        let mut layer_cells = BTreeMap::new();
        for (&layer, members) in &self.layer_cells {
            let kept: Vec<CellId> = members
                .iter()
                .filter(|c| reached[c.index()])
                .map(|&c| id(c))
                .collect();
            if !kept.is_empty() {
                layer_cells.insert(layer, kept);
            }
        }
        Layout {
            cells,
            top: id(self.top),
            inverted,
            layer_cells,
        }
    }

    /// Serializes the layout into a GDSII library named `name`.
    ///
    /// Structures are emitted in cell-id order, so a round trip through
    /// [`Layout::from_library`] assigns every cell the same id.
    pub fn to_library(&self, name: &str) -> Library {
        let mut lib = Library::new(name);
        for cell in &self.cells {
            let mut s = Structure::new(cell.name());
            for p in cell.polygons() {
                let mut properties = Vec::new();
                if let Some(n) = &p.name {
                    properties.push((1i16, n.clone()));
                }
                s.elements.push(Element::Boundary(BoundaryElement {
                    layer: p.layer,
                    datatype: p.datatype,
                    points: p.polygon.vertices().to_vec(),
                    properties,
                }));
            }
            for r in cell.refs() {
                let t = &r.transform;
                let mut el = RefElement::sref(self.cell(r.cell).name(), t.translate());
                el.mirror_x = t.mirror_x();
                el.angle_deg = f64::from(t.rotation().quarter_turns()) * 90.0;
                el.mag = f64::from(t.mag());
                s.elements.push(Element::Ref(el));
            }
            lib.structures.push(s);
        }
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrc_geometry::Point;

    #[test]
    fn roundtrip_preserves_cells_and_indices() {
        let mut lib = Library::new("t");
        let mut unit = Structure::new("UNIT");
        unit.elements.push(Element::boundary(
            1,
            vec![
                Point::new(0, 0),
                Point::new(0, 10),
                Point::new(10, 10),
                Point::new(10, 0),
            ],
        ));
        lib.structures.push(unit);
        let mut top = Structure::new("TOP");
        let mut r = RefElement::sref("UNIT", Point::new(50, 20));
        r.angle_deg = 90.0;
        r.mirror_x = true;
        top.elements.push(Element::Ref(r));
        top.elements.push(Element::sref("UNIT", Point::new(0, 0)));
        lib.structures.push(top);

        let layout = Layout::from_library(&lib).unwrap();
        let exported = layout.to_library("t");
        let again = Layout::from_library(&exported).unwrap();

        assert_eq!(layout.cell_count(), again.cell_count());
        assert_eq!(layout.top(), again.top());
        for (a, b) in layout.cells().iter().zip(again.cells()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.polygons(), b.polygons());
            assert_eq!(a.refs(), b.refs());
            assert_eq!(a.mbr(), b.mbr());
        }
        assert_eq!(layout.layers(), again.layers());
        for layer in layout.layers() {
            assert_eq!(layout.layer_polygons(layer), again.layer_polygons(layer));
            assert_eq!(
                layout.cells_with_layer(layer),
                again.cells_with_layer(layer)
            );
        }
    }

    #[test]
    fn top_subtree_keeps_the_top_after_an_orphaning_edit() {
        let square = |x: i32| {
            Element::boundary(
                1,
                vec![
                    Point::new(x, 0),
                    Point::new(x, 10),
                    Point::new(x + 10, 10),
                    Point::new(x + 10, 0),
                ],
            )
        };
        let mut lib = Library::new("t");
        let mut top = Structure::new("TOP");
        top.elements.push(square(0));
        top.elements.push(Element::sref("A", Point::new(0, 100)));
        let mut a = Structure::new("A");
        a.elements.extend([square(0), square(50)]);
        lib.structures = vec![top, a];
        let mut layout = Layout::from_library(&lib).unwrap();
        layout.remove_ref(layout.top(), 0).unwrap();

        // The whole export has two unreferenced cells, and a loader
        // takes the larger one: A.
        let whole = Layout::from_gds(&layout.to_gds("t").unwrap()[..]).unwrap();
        assert_eq!(whole.cell(whole.top()).name(), "A");
        // The subtree holds TOP alone.
        let sub = layout.top_subtree();
        assert_eq!(sub.cell_count(), 1);
        assert!(sub.consistency_errors().is_empty());
        let back = Layout::from_gds(&sub.to_gds("t").unwrap()[..]).unwrap();
        assert_eq!(back.cell(back.top()).name(), "TOP");
        assert_eq!(back.subtree_hashes(), sub.subtree_hashes());
    }
}
