//! Conversions between engine types and wire JSON.
//!
//! The serve protocol never ships Rust types; everything crosses the
//! socket as JSON built and parsed here. Violations serialize with the
//! exact fields of the CLI's CSV report (`rule,kind,x0,y0,x1,y1,
//! measured`) so a client-side report is byte-identical to a one-shot
//! run's; edit ops mirror [`odrc_incremental::EditOp`] field for
//! field; engine stats are [`EngineStats::COUNTERS`] by name, so no
//! counter is listed here.

use odrc::{EngineStats, Violation};
use odrc_db::{CellId, CellRef, LayerPolygon};
use odrc_geometry::{Point, Polygon, Rotation, Transform};
use odrc_incremental::EditOp;

use crate::json::{obj, Value};
use crate::proto::{req_i64, req_str, ServeError};

/// Serializes one violation with the CSV report's fields.
pub fn violation_to_json(v: &Violation) -> Value {
    obj([
        ("rule", Value::from(v.rule.as_str())),
        ("kind", Value::from(v.kind.to_string())),
        ("x0", Value::Int(i64::from(v.location.lo().x))),
        ("y0", Value::Int(i64::from(v.location.lo().y))),
        ("x1", Value::Int(i64::from(v.location.hi().x))),
        ("y1", Value::Int(i64::from(v.location.hi().y))),
        ("measured", Value::Int(v.measured)),
    ])
}

/// Serializes a violation list.
pub fn violations_to_json(violations: &[Violation]) -> Value {
    Value::Array(violations.iter().map(violation_to_json).collect())
}

/// A violation as received by a client: the wire fields, kept as
/// primitives (the client never needs engine types).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireViolation {
    pub rule: String,
    pub kind: String,
    pub x0: i64,
    pub y0: i64,
    pub x1: i64,
    pub y1: i64,
    pub measured: i64,
}

impl WireViolation {
    /// Parses one violation object from a `done` event.
    pub fn from_json(v: &Value) -> Result<WireViolation, ServeError> {
        Ok(WireViolation {
            rule: req_str(v, "rule")?.to_string(),
            kind: req_str(v, "kind")?.to_string(),
            x0: req_i64(v, "x0")?,
            y0: req_i64(v, "y0")?,
            x1: req_i64(v, "x1")?,
            y1: req_i64(v, "y1")?,
            measured: req_i64(v, "measured")?,
        })
    }

    /// The CSV row of the CLI's `--report` format (no trailing
    /// newline).
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{}",
            self.rule, self.kind, self.x0, self.y0, self.x1, self.y1, self.measured
        )
    }
}

/// Serializes engine stats: every counter of [`EngineStats::COUNTERS`]
/// under its name, then `degraded` — the one list behind both a served
/// job's `stats` object and the one-shot CLI's `--stats-json` file.
/// Extending is backward-compatible (clients ignore unknown keys).
pub fn stats_to_json(stats: &EngineStats) -> Value {
    let counters = stats.counters(|_| true).into_iter();
    let pairs = counters.map(|(name, n)| (name, Value::from(n)));
    obj(pairs.chain([("degraded", Value::Bool(stats.degraded()))]))
}

fn coord(v: &Value, key: &str) -> Result<i32, ServeError> {
    let n = req_i64(v, key)?;
    i32::try_from(n)
        .map_err(|_| ServeError::Protocol(format!("field {key:?} out of coordinate range")))
}

fn cell_id(v: &Value, key: &str) -> Result<CellId, ServeError> {
    let n = req_i64(v, key)?;
    u32::try_from(n)
        .map(|n| CellId::from_index(n as usize))
        .map_err(|_| ServeError::Protocol(format!("field {key:?} is not a cell id")))
}

fn index(v: &Value, key: &str) -> Result<usize, ServeError> {
    let n = req_i64(v, key)?;
    usize::try_from(n).map_err(|_| ServeError::Protocol(format!("field {key:?} is not an index")))
}

/// Parses a placement transform:
/// `{"mirror_x":bool,"rot":0..3,"mag":int,"dx":int,"dy":int}`
/// (all fields optional except the translation).
fn transform_from_json(v: &Value) -> Result<Transform, ServeError> {
    let mirror_x = match v.get("mirror_x") {
        None | Some(Value::Null) => false,
        Some(b) => b
            .as_bool()
            .ok_or_else(|| ServeError::Protocol("\"mirror_x\" must be a bool".to_string()))?,
    };
    let rot = match v.get("rot") {
        None | Some(Value::Null) => 0,
        Some(r) => r
            .as_i64()
            .ok_or_else(|| ServeError::Protocol("\"rot\" must be 0..=3".to_string()))?,
    };
    let mag = match v.get("mag") {
        None | Some(Value::Null) => 1,
        Some(m) => m
            .as_i64()
            .and_then(|m| i32::try_from(m).ok())
            .filter(|&m| m >= 1)
            .ok_or_else(|| ServeError::Protocol("\"mag\" must be a positive int".to_string()))?,
    };
    let rot = i32::try_from(rot)
        .ok()
        .filter(|r| (0..4).contains(r))
        .ok_or_else(|| ServeError::Protocol("\"rot\" must be 0..=3".to_string()))?;
    Ok(Transform::new(
        mirror_x,
        Rotation::from_quarter_turns(rot),
        mag,
        Point::new(coord(v, "dx")?, coord(v, "dy")?),
    ))
}

/// Parses a layer polygon:
/// `{"layer":int,"datatype":int?,"points":[[x,y],...],"name":str?}`.
fn polygon_from_json(v: &Value) -> Result<LayerPolygon, ServeError> {
    let layer = req_i64(v, "layer")?;
    let layer = i16::try_from(layer)
        .map_err(|_| ServeError::Protocol("\"layer\" out of range".to_string()))?;
    let datatype = match v.get("datatype") {
        None | Some(Value::Null) => 0,
        Some(d) => d
            .as_i64()
            .and_then(|d| i16::try_from(d).ok())
            .ok_or_else(|| ServeError::Protocol("\"datatype\" out of range".to_string()))?,
    };
    let points = v
        .get("points")
        .and_then(Value::as_array)
        .ok_or_else(|| ServeError::Protocol("missing \"points\" array".to_string()))?;
    let mut parsed = Vec::with_capacity(points.len());
    for p in points {
        let pair = p
            .as_array()
            .filter(|pair| pair.len() == 2)
            .ok_or_else(|| ServeError::Protocol("point must be [x,y]".to_string()))?;
        let x = pair[0]
            .as_i64()
            .and_then(|x| i32::try_from(x).ok())
            .ok_or_else(|| ServeError::Protocol("point coordinate out of range".to_string()))?;
        let y = pair[1]
            .as_i64()
            .and_then(|y| i32::try_from(y).ok())
            .ok_or_else(|| ServeError::Protocol("point coordinate out of range".to_string()))?;
        parsed.push(Point::new(x, y));
    }
    let polygon =
        Polygon::new(parsed).map_err(|e| ServeError::Protocol(format!("bad polygon: {e}")))?;
    let name = match v.get("name") {
        None | Some(Value::Null) => None,
        Some(n) => Some(
            n.as_str()
                .ok_or_else(|| ServeError::Protocol("\"name\" must be a string".to_string()))?
                .to_string(),
        ),
    };
    Ok(LayerPolygon {
        layer,
        datatype,
        polygon,
        name,
    })
}

/// Parses one edit op. The `"op"` tag selects the variant; fields
/// mirror [`EditOp`]'s:
///
/// ```text
/// {"op":"add_ref","parent":C,"child":C,"transform":T}
/// {"op":"remove_ref","parent":C,"index":I}
/// {"op":"move_ref","parent":C,"index":I,"transform":T}
/// {"op":"add_polygon","cell":C,"polygon":P}
/// {"op":"remove_polygon","cell":C,"index":I}
/// {"op":"replace_polygon","cell":C,"index":I,"polygon":P}
/// {"op":"swap_definition","cell":C,"polygons":[P,...],"refs":[{"cell":C,"transform":T},...]}
/// ```
pub fn edit_op_from_json(v: &Value) -> Result<EditOp, ServeError> {
    let op = req_str(v, "op")?;
    let required = |key: &str| {
        v.get(key)
            .ok_or_else(|| ServeError::Protocol(format!("missing field {key:?}")))
    };
    match op {
        "add_ref" => Ok(EditOp::AddRef {
            parent: cell_id(v, "parent")?,
            child: cell_id(v, "child")?,
            transform: transform_from_json(required("transform")?)?,
        }),
        "remove_ref" => Ok(EditOp::RemoveRef {
            parent: cell_id(v, "parent")?,
            index: index(v, "index")?,
        }),
        "move_ref" => Ok(EditOp::MoveRef {
            parent: cell_id(v, "parent")?,
            index: index(v, "index")?,
            transform: transform_from_json(required("transform")?)?,
        }),
        "add_polygon" => Ok(EditOp::AddPolygon {
            cell: cell_id(v, "cell")?,
            polygon: polygon_from_json(required("polygon")?)?,
        }),
        "remove_polygon" => Ok(EditOp::RemovePolygon {
            cell: cell_id(v, "cell")?,
            index: index(v, "index")?,
        }),
        "replace_polygon" => Ok(EditOp::ReplacePolygon {
            cell: cell_id(v, "cell")?,
            index: index(v, "index")?,
            polygon: polygon_from_json(required("polygon")?)?,
        }),
        "swap_definition" => {
            let polygons = required("polygons")?
                .as_array()
                .ok_or_else(|| ServeError::Protocol("\"polygons\" must be an array".to_string()))?
                .iter()
                .map(polygon_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            let refs = required("refs")?
                .as_array()
                .ok_or_else(|| ServeError::Protocol("\"refs\" must be an array".to_string()))?
                .iter()
                .map(|r| {
                    Ok(CellRef {
                        cell: cell_id(r, "cell")?,
                        transform: transform_from_json(r.get("transform").ok_or_else(|| {
                            ServeError::Protocol("missing field \"transform\"".to_string())
                        })?)?,
                    })
                })
                .collect::<Result<Vec<_>, ServeError>>()?;
            Ok(EditOp::SwapDefinition {
                cell: cell_id(v, "cell")?,
                polygons,
                refs,
            })
        }
        other => Err(ServeError::Protocol(format!("unknown edit op {other:?}"))),
    }
}

/// Serializes one edit op (the client-side inverse of
/// [`edit_op_from_json`]).
pub fn edit_op_to_json(op: &EditOp) -> Value {
    fn transform(t: &Transform) -> Value {
        obj([
            ("mirror_x", Value::Bool(t.mirror_x())),
            ("rot", Value::Int(i64::from(t.rotation().quarter_turns()))),
            ("mag", Value::Int(i64::from(t.mag()))),
            ("dx", Value::Int(i64::from(t.translate().x))),
            ("dy", Value::Int(i64::from(t.translate().y))),
        ])
    }
    fn polygon(p: &LayerPolygon) -> Value {
        obj([
            ("layer", Value::Int(i64::from(p.layer))),
            ("datatype", Value::Int(i64::from(p.datatype))),
            (
                "points",
                Value::Array(
                    p.polygon
                        .vertices()
                        .iter()
                        .map(|pt| {
                            Value::Array(vec![
                                Value::Int(i64::from(pt.x)),
                                Value::Int(i64::from(pt.y)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "name",
                match &p.name {
                    Some(n) => Value::from(n.as_str()),
                    None => Value::Null,
                },
            ),
        ])
    }
    match op {
        EditOp::AddRef {
            parent,
            child,
            transform: t,
        } => obj([
            ("op", Value::from("add_ref")),
            ("parent", Value::Int(parent.index() as i64)),
            ("child", Value::Int(child.index() as i64)),
            ("transform", transform(t)),
        ]),
        EditOp::RemoveRef { parent, index } => obj([
            ("op", Value::from("remove_ref")),
            ("parent", Value::Int(parent.index() as i64)),
            ("index", Value::from(*index)),
        ]),
        EditOp::MoveRef {
            parent,
            index,
            transform: t,
        } => obj([
            ("op", Value::from("move_ref")),
            ("parent", Value::Int(parent.index() as i64)),
            ("index", Value::from(*index)),
            ("transform", transform(t)),
        ]),
        EditOp::AddPolygon { cell, polygon: p } => obj([
            ("op", Value::from("add_polygon")),
            ("cell", Value::Int(cell.index() as i64)),
            ("polygon", polygon(p)),
        ]),
        EditOp::RemovePolygon { cell, index } => obj([
            ("op", Value::from("remove_polygon")),
            ("cell", Value::Int(cell.index() as i64)),
            ("index", Value::from(*index)),
        ]),
        EditOp::ReplacePolygon {
            cell,
            index,
            polygon: p,
        } => obj([
            ("op", Value::from("replace_polygon")),
            ("cell", Value::Int(cell.index() as i64)),
            ("index", Value::from(*index)),
            ("polygon", polygon(p)),
        ]),
        EditOp::SwapDefinition {
            cell,
            polygons,
            refs,
        } => obj([
            ("op", Value::from("swap_definition")),
            ("cell", Value::Int(cell.index() as i64)),
            (
                "polygons",
                Value::Array(polygons.iter().map(polygon).collect()),
            ),
            (
                "refs",
                Value::Array(
                    refs.iter()
                        .map(|r| {
                            obj([
                                ("cell", Value::Int(r.cell.index() as i64)),
                                ("transform", transform(&r.transform)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_ops_round_trip() {
        let poly = LayerPolygon {
            layer: 19,
            datatype: 0,
            polygon: Polygon::new(vec![
                Point::new(0, 0),
                Point::new(10, 0),
                Point::new(10, 5),
                Point::new(0, 5),
            ])
            .unwrap(),
            name: Some("net7".to_string()),
        };
        let t = Transform::new(true, Rotation::from_quarter_turns(3), 2, Point::new(-4, 9));
        let ops = vec![
            EditOp::AddRef {
                parent: CellId::from_index(0),
                child: CellId::from_index(3),
                transform: t,
            },
            EditOp::RemoveRef {
                parent: CellId::from_index(1),
                index: 4,
            },
            EditOp::MoveRef {
                parent: CellId::from_index(0),
                index: 2,
                transform: t,
            },
            EditOp::AddPolygon {
                cell: CellId::from_index(2),
                polygon: poly.clone(),
            },
            EditOp::RemovePolygon {
                cell: CellId::from_index(2),
                index: 0,
            },
            EditOp::ReplacePolygon {
                cell: CellId::from_index(2),
                index: 1,
                polygon: poly.clone(),
            },
            EditOp::SwapDefinition {
                cell: CellId::from_index(5),
                polygons: vec![poly],
                refs: vec![CellRef {
                    cell: CellId::from_index(1),
                    transform: t,
                }],
            },
        ];
        for op in ops {
            let json = edit_op_to_json(&op);
            let text = json.to_json();
            let back = edit_op_from_json(&crate::json::parse(&text).unwrap()).unwrap();
            // EditOp has no PartialEq; compare through the serializer.
            assert_eq!(edit_op_to_json(&back).to_json(), text);
        }
    }

    #[test]
    fn malformed_edit_ops_are_typed_errors() {
        for bad in [
            r#"{"parent":0}"#,
            r#"{"op":"explode"}"#,
            r#"{"op":"remove_ref","parent":-1,"index":0}"#,
            r#"{"op":"remove_ref","parent":0,"index":-2}"#,
            r#"{"op":"add_polygon","cell":0,"polygon":{"layer":99999,"points":[[0,0]]}}"#,
            r#"{"op":"add_polygon","cell":0,"polygon":{"layer":1,"points":[[0,0],[1,0]]}}"#,
            r#"{"op":"add_ref","parent":0,"child":1,"transform":{"rot":7,"dx":0,"dy":0}}"#,
        ] {
            let v = crate::json::parse(bad).unwrap();
            assert!(
                matches!(edit_op_from_json(&v), Err(ServeError::Protocol(_))),
                "should reject {bad}"
            );
        }
    }
}
