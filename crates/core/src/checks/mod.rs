//! Check primitives shared by every engine.
//!
//! The sequential mode, the parallel (device) mode, and the baseline
//! checkers in `odrc-baselines` all reduce to the predicates in this
//! module, which is what makes their violation sets bit-identical — a
//! property the integration tests assert.

pub mod edge;
pub mod enclosure;
pub mod poly;

pub use edge::{space_pair, space_pair_spec, width_pair, EdgeRelation, SpaceSpec};
pub use enclosure::{enclosure_margin, rect_inside_polygon};
pub(crate) use enclosure::{placed_enclosure_margin, Placed};
pub use poly::{polygon_violations, PolyRuleSpec};
