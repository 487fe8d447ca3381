//! Synthetic ASAP7-like benchmark layouts for OpenDRC.
//!
//! The paper evaluates on layouts "synthesized from OpenROAD with the
//! ASAP7 process design kit" (§VI). Neither tool is reproducible in a
//! self-contained Rust workspace, so this crate generates layouts with
//! the same *structural* properties the checks depend on (see DESIGN.md
//! §1): a hierarchical standard-cell placement in rows (odd rows
//! mirrored, one `AREF` filler strip), gridded M2/M3 routing, V1/V2
//! vias, realistic per-design size scaling for the six paper designs
//! (aes, ethmac, ibex, jpeg, sha3, uart), and a configurable rate of
//! injected rule violations.
//!
//! # Examples
//!
//! ```
//! use odrc_layoutgen::{generate_layout, tech, DesignSpec};
//!
//! let layout = generate_layout(&DesignSpec::tiny(1));
//! assert!(layout.layers().contains(&tech::M2));
//! ```

#![forbid(unsafe_code)]

pub mod cells;
mod generate;
pub mod tech;

pub use generate::{generate, generate_layout, DesignSpec, Generated, InjectionStats};
