//! In-memory model of a GDSII library.

use std::fmt;

use odrc_geometry::{Point, Rotation, Transform};

/// Database units of a library.
///
/// GDSII stores two reals: the size of a database unit in *user units*
/// and in *meters*. The common convention (and this engine's default)
/// is 1 dbu = 1 nm with user units of 1 µm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Units {
    /// Database unit in user units (e.g. `1e-3` for nm within µm).
    pub user_per_dbu: f64,
    /// Database unit in meters (e.g. `1e-9` for nm).
    pub meters_per_dbu: f64,
}

impl Default for Units {
    fn default() -> Self {
        Units {
            user_per_dbu: 1e-3,
            meters_per_dbu: 1e-9,
        }
    }
}

/// A polygon element (`BOUNDARY`).
///
/// Vertices are stored without the closing point. Validation (closure,
/// rectilinearity) happens when the library is imported into the layout
/// database, not at parse time, so malformed input can still be
/// inspected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryElement {
    /// Layer number.
    pub layer: i16,
    /// Data type number.
    pub datatype: i16,
    /// Vertices (closing point omitted).
    pub points: Vec<Point>,
    /// `PROPATTR`/`PROPVALUE` pairs. Property 1 conventionally carries
    /// an object name, which the rule DSL's `name` predicates inspect.
    pub properties: Vec<(i16, String)>,
}

/// A wire element (`PATH`): a centerline with a width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathElement {
    /// Layer number.
    pub layer: i16,
    /// Data type number.
    pub datatype: i16,
    /// Path end-cap style: 0 = flush, 1 = round (unsupported for
    /// checking), 2 = extended by half width.
    pub path_type: i16,
    /// Wire width in database units.
    pub width: i32,
    /// Centerline vertices.
    pub points: Vec<Point>,
    /// Property pairs.
    pub properties: Vec<(i16, String)>,
}

/// A text label element (`TEXT`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextElement {
    /// Layer number.
    pub layer: i16,
    /// Text type number.
    pub texttype: i16,
    /// Anchor position.
    pub position: Point,
    /// Label contents.
    pub string: String,
}

/// A structure reference (`SREF`) or array reference (`AREF`).
#[derive(Debug, Clone, PartialEq)]
pub struct RefElement {
    /// Name of the referenced structure.
    pub sname: String,
    /// Origin of the (first) placement.
    pub origin: Point,
    /// Mirror about the x-axis before rotation (`STRANS` bit 15).
    pub mirror_x: bool,
    /// Rotation angle in degrees, counter-clockwise.
    pub angle_deg: f64,
    /// Magnification.
    pub mag: f64,
    /// Array geometry: `None` for `SREF`; for `AREF`, the per-column
    /// step vector, per-row step vector, and the column/row counts.
    pub array: Option<ArrayParams>,
}

/// `AREF` array parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayParams {
    /// Number of columns (>= 1).
    pub cols: u16,
    /// Number of rows (>= 1).
    pub rows: u16,
    /// Displacement between adjacent columns.
    pub col_step: Point,
    /// Displacement between adjacent rows.
    pub row_step: Point,
}

/// Error converting a reference's transform into the engine's exact
/// integer [`Transform`].
#[derive(Debug, Clone, PartialEq)]
pub enum TransformError {
    /// The rotation is not a multiple of 90 degrees.
    UnsupportedAngle {
        /// The offending angle in degrees.
        angle_deg: f64,
    },
    /// The magnification is not a positive integer.
    UnsupportedMag {
        /// The offending magnification.
        mag: f64,
    },
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::UnsupportedAngle { angle_deg } => {
                write!(f, "rotation of {angle_deg} degrees is not a multiple of 90")
            }
            TransformError::UnsupportedMag { mag } => {
                write!(f, "magnification {mag} is not a positive integer")
            }
        }
    }
}

impl std::error::Error for TransformError {}

impl RefElement {
    /// Creates a plain `SREF` with an identity orientation.
    pub fn sref(sname: impl Into<String>, origin: Point) -> Self {
        RefElement {
            sname: sname.into(),
            origin,
            mirror_x: false,
            angle_deg: 0.0,
            mag: 1.0,
            array: None,
        }
    }

    /// Everything of the reference but the structure name.
    pub fn placement(&self) -> RefPlacement {
        RefPlacement {
            origin: self.origin,
            mirror_x: self.mirror_x,
            angle_deg: self.angle_deg,
            mag: self.mag,
            array: self.array,
        }
    }

    /// The placement transform of the reference (of the first element,
    /// for an `AREF`); see [`RefPlacement::transform`].
    ///
    /// # Errors
    ///
    /// Returns [`TransformError`] for non-quarter-turn angles or
    /// non-integer magnifications.
    pub fn transform(&self) -> Result<Transform, TransformError> {
        self.placement().transform()
    }

    /// The placement transforms of every array instance (a single
    /// transform for an `SREF`); see [`RefPlacement::instance_transforms`].
    ///
    /// # Errors
    ///
    /// Same as [`RefElement::transform`].
    pub fn instance_transforms(&self) -> Result<InstanceTransforms, TransformError> {
        self.placement().instance_transforms()
    }
}

/// Where a reference (`SREF` / `AREF`) puts its structure: the origin,
/// orientation and, for an `AREF`, the lattice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefPlacement {
    /// Origin of the (first) placement.
    pub origin: Point,
    /// Mirror about the x-axis before rotation (`STRANS` bit 15).
    pub mirror_x: bool,
    /// Rotation angle in degrees, counter-clockwise.
    pub angle_deg: f64,
    /// Magnification.
    pub mag: f64,
    /// Array geometry: `None` for `SREF`.
    pub array: Option<ArrayParams>,
}

impl RefPlacement {
    /// The placement transform (of the first element, for an `AREF`).
    ///
    /// # Errors
    ///
    /// Returns [`TransformError`] for non-quarter-turn angles or
    /// non-integer magnifications, which mask layouts do not use and the
    /// exact integer engine does not support.
    #[inline]
    pub fn transform(&self) -> Result<Transform, TransformError> {
        let quarter = self.angle_deg / 90.0;
        let rounded = quarter.round();
        if (quarter - rounded).abs() > 1e-9 {
            return Err(TransformError::UnsupportedAngle {
                angle_deg: self.angle_deg,
            });
        }
        let mag_round = self.mag.round();
        if self.mag < 0.5 || (self.mag - mag_round).abs() > 1e-9 {
            return Err(TransformError::UnsupportedMag { mag: self.mag });
        }
        Ok(Transform::new(
            self.mirror_x,
            Rotation::from_quarter_turns(rounded as i32),
            mag_round as i32,
            self.origin,
        ))
    }

    /// Iterates over the placement transforms of every array instance,
    /// row by row (a single transform for an `SREF`).
    ///
    /// # Errors
    ///
    /// Same as [`RefPlacement::transform`].
    #[inline]
    pub fn instance_transforms(&self) -> Result<InstanceTransforms, TransformError> {
        let single = ArrayParams {
            cols: 1,
            rows: 1,
            col_step: Point::new(0, 0),
            row_step: Point::new(0, 0),
        };
        Ok(InstanceTransforms {
            base: self.transform()?,
            array: self.array.unwrap_or(single),
            next: 0,
        })
    }
}

/// The instance transforms of one reference, as
/// [`RefPlacement::instance_transforms`] yields them: computed on the
/// fly, so a reference allocates nothing however large its lattice.
#[derive(Debug, Clone)]
pub struct InstanceTransforms {
    base: Transform,
    array: ArrayParams,
    /// Row-major index of the next instance.
    next: u32,
}

impl InstanceTransforms {
    #[inline]
    fn total(&self) -> u32 {
        u32::from(self.array.cols) * u32::from(self.array.rows)
    }
}

impl Iterator for InstanceTransforms {
    type Item = Transform;

    #[inline]
    fn next(&mut self) -> Option<Transform> {
        if self.next == self.total() {
            return None;
        }
        let cols = u32::from(self.array.cols);
        let (row, col) = ((self.next / cols) as i32, (self.next % cols) as i32);
        self.next += 1;
        let (a, base) = (&self.array, &self.base);
        let dx = Point::new(
            a.col_step.x * col + a.row_step.x * row,
            a.col_step.y * col + a.row_step.y * row,
        );
        Some(Transform::new(
            base.mirror_x(),
            base.rotation(),
            base.mag(),
            base.translate() + dx,
        ))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.total() - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for InstanceTransforms {}

/// A structure element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Polygon.
    Boundary(BoundaryElement),
    /// Wire.
    Path(PathElement),
    /// Label.
    Text(TextElement),
    /// Structure or array reference.
    Ref(RefElement),
}

impl Element {
    /// Convenience constructor for an unnamed boundary.
    pub fn boundary(layer: i16, points: Vec<Point>) -> Element {
        Element::Boundary(BoundaryElement {
            layer,
            datatype: 0,
            points,
            properties: Vec::new(),
        })
    }

    /// Convenience constructor for an `SREF`.
    pub fn sref(sname: impl Into<String>, origin: Point) -> Element {
        Element::Ref(RefElement::sref(sname, origin))
    }

    /// The element, borrowed.
    pub fn view(&self) -> ElementRef<'_> {
        match self {
            Element::Boundary(b) => ElementRef::Boundary {
                layer: b.layer,
                datatype: b.datatype,
                points: &b.points,
                properties: &b.properties,
            },
            Element::Path(p) => ElementRef::Path {
                layer: p.layer,
                datatype: p.datatype,
                path_type: p.path_type,
                width: p.width,
                points: &p.points,
                properties: &p.properties,
            },
            Element::Text(t) => ElementRef::Text {
                layer: t.layer,
                texttype: t.texttype,
                position: t.position,
                string: &t.string,
            },
            Element::Ref(r) => ElementRef::Ref {
                sname: &r.sname,
                placement: r.placement(),
            },
        }
    }
}

/// An element borrowed from its decoder or from an [`Element`]: the
/// shape [`Reader::next_ref`](crate::Reader::next_ref) yields, so a
/// consumer that converts elements on the fly (the layout builder)
/// allocates nothing the result does not keep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ElementRef<'a> {
    /// Polygon; fields as in [`BoundaryElement`].
    Boundary {
        layer: i16,
        datatype: i16,
        points: &'a [Point],
        properties: &'a [(i16, String)],
    },
    /// Wire; fields as in [`PathElement`].
    Path {
        layer: i16,
        datatype: i16,
        path_type: i16,
        width: i32,
        points: &'a [Point],
        properties: &'a [(i16, String)],
    },
    /// Label; fields as in [`TextElement`].
    Text {
        layer: i16,
        texttype: i16,
        position: Point,
        string: &'a str,
    },
    /// Structure or array reference: a [`RefElement`]'s name and
    /// [`RefElement::placement`].
    Ref {
        sname: &'a str,
        placement: RefPlacement,
    },
}

impl ElementRef<'_> {
    /// The owned element.
    pub fn to_owned(self) -> Element {
        match self {
            ElementRef::Boundary {
                layer,
                datatype,
                points,
                properties,
            } => Element::Boundary(BoundaryElement {
                layer,
                datatype,
                points: points.to_vec(),
                properties: properties.to_vec(),
            }),
            ElementRef::Path {
                layer,
                datatype,
                path_type,
                width,
                points,
                properties,
            } => Element::Path(PathElement {
                layer,
                datatype,
                path_type,
                width,
                points: points.to_vec(),
                properties: properties.to_vec(),
            }),
            ElementRef::Text {
                layer,
                texttype,
                position,
                string,
            } => Element::Text(TextElement {
                layer,
                texttype,
                position,
                string: string.to_owned(),
            }),
            ElementRef::Ref { sname, placement } => Element::Ref(RefElement {
                sname: sname.to_owned(),
                origin: placement.origin,
                mirror_x: placement.mirror_x,
                angle_deg: placement.angle_deg,
                mag: placement.mag,
                array: placement.array,
            }),
        }
    }
}

/// A structure (cell): a named list of elements (§IV-A).
#[derive(Debug, Clone, PartialEq)]
pub struct Structure {
    /// Structure name (unique within the library).
    pub name: String,
    /// Elements in stream order.
    pub elements: Vec<Element>,
}

impl Structure {
    /// Creates an empty structure.
    pub fn new(name: impl Into<String>) -> Self {
        Structure {
            name: name.into(),
            elements: Vec::new(),
        }
    }
}

/// A GDSII library: units plus a list of structures.
///
/// The *top* structures (not referenced by any other) are the layout
/// roots; [`Library::top_structures`] finds them.
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    /// Library name.
    pub name: String,
    /// Database units.
    pub units: Units,
    /// Structures in stream order.
    pub structures: Vec<Structure>,
}

impl Library {
    /// Creates an empty library with default units (1 dbu = 1 nm).
    pub fn new(name: impl Into<String>) -> Self {
        Library {
            name: name.into(),
            units: Units::default(),
            structures: Vec::new(),
        }
    }

    /// Finds a structure by name.
    pub fn structure(&self, name: &str) -> Option<&Structure> {
        self.structures.iter().find(|s| s.name == name)
    }

    /// Names of structures that are not referenced by any other
    /// structure, in stream order. A well-formed single-design layout
    /// has exactly one.
    pub fn top_structures(&self) -> Vec<&str> {
        let mut referenced = std::collections::HashSet::new();
        for s in &self.structures {
            for e in &s.elements {
                if let Element::Ref(r) = e {
                    referenced.insert(r.sname.as_str());
                }
            }
        }
        self.structures
            .iter()
            .map(|s| s.name.as_str())
            .filter(|n| !referenced.contains(n))
            .collect()
    }

    /// Total element count across all structures (references counted
    /// once, not expanded).
    pub fn element_count(&self) -> usize {
        self.structures.iter().map(|s| s.elements.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: i32, y: i32) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn default_units_are_nanometers() {
        let u = Units::default();
        assert_eq!(u.user_per_dbu, 1e-3);
        assert_eq!(u.meters_per_dbu, 1e-9);
    }

    #[test]
    fn sref_transform_identity() {
        let r = RefElement::sref("CELL", p(100, 200));
        let t = r.transform().unwrap();
        assert_eq!(t.translate(), p(100, 200));
        assert_eq!(t.rotation(), Rotation::R0);
        assert!(!t.mirror_x());
    }

    #[test]
    fn transform_rejects_odd_angles() {
        let mut r = RefElement::sref("CELL", p(0, 0));
        r.angle_deg = 45.0;
        assert_eq!(
            r.transform(),
            Err(TransformError::UnsupportedAngle { angle_deg: 45.0 })
        );
        r.angle_deg = 270.0;
        assert_eq!(r.transform().unwrap().rotation(), Rotation::R270);
    }

    #[test]
    fn transform_rejects_fractional_mag() {
        let mut r = RefElement::sref("CELL", p(0, 0));
        r.mag = 1.5;
        assert!(matches!(
            r.transform(),
            Err(TransformError::UnsupportedMag { .. })
        ));
        r.mag = 2.0;
        assert_eq!(r.transform().unwrap().mag(), 2);
    }

    #[test]
    fn aref_expands_instances() {
        let mut r = RefElement::sref("CELL", p(10, 20));
        r.array = Some(ArrayParams {
            cols: 3,
            rows: 2,
            col_step: p(100, 0),
            row_step: p(0, 50),
        });
        let ts: Vec<_> = r.instance_transforms().unwrap().collect();
        assert_eq!(r.instance_transforms().unwrap().len(), 6);
        assert_eq!(ts.len(), 6);
        assert_eq!(ts[0].translate(), p(10, 20));
        assert_eq!(ts[2].translate(), p(210, 20));
        assert_eq!(ts[3].translate(), p(10, 70));
        assert_eq!(ts[5].translate(), p(210, 70));
    }

    #[test]
    fn every_element_kind_views_and_owns_back() {
        let mut aref = RefElement::sref("CELL", p(10, 20));
        aref.mirror_x = true;
        aref.angle_deg = 270.0;
        aref.mag = 2.0;
        aref.array = Some(ArrayParams {
            cols: 3,
            rows: 2,
            col_step: p(100, 0),
            row_step: p(0, 50),
        });
        let elements = [
            Element::Boundary(BoundaryElement {
                layer: 1,
                datatype: 2,
                points: vec![p(0, 0), p(0, 1), p(1, 1), p(1, 0)],
                properties: vec![(1, "net".to_owned()), (7, "x".to_owned())],
            }),
            Element::Path(PathElement {
                layer: 3,
                datatype: 0,
                path_type: 2,
                width: 4,
                points: vec![p(0, 0), p(9, 0)],
                properties: vec![],
            }),
            Element::Text(TextElement {
                layer: 63,
                texttype: 1,
                position: p(5, 5),
                string: "pin".to_owned(),
            }),
            Element::Ref(aref),
        ];
        for e in &elements {
            assert_eq!(&e.view().to_owned(), e);
        }
    }

    #[test]
    fn top_structures_excludes_referenced() {
        let mut lib = Library::new("lib");
        let mut top = Structure::new("TOP");
        top.elements.push(Element::sref("CHILD", p(0, 0)));
        lib.structures.push(top);
        lib.structures.push(Structure::new("CHILD"));
        lib.structures.push(Structure::new("ORPHAN"));
        assert_eq!(lib.top_structures(), vec!["TOP", "ORPHAN"]);
    }

    #[test]
    fn element_count_sums_structures() {
        let mut lib = Library::new("lib");
        let mut s = Structure::new("A");
        s.elements.push(Element::boundary(
            1,
            vec![p(0, 0), p(0, 1), p(1, 1), p(1, 0)],
        ));
        s.elements.push(Element::sref("B", p(0, 0)));
        lib.structures.push(s);
        lib.structures.push(Structure::new("B"));
        assert_eq!(lib.element_count(), 2);
        assert!(lib.structure("B").is_some());
        assert!(lib.structure("C").is_none());
    }
}
