//! Infrastructure algorithms for the OpenDRC design rule checking engine.
//!
//! This crate is the paper's "infrastructure layer" (§V-A): abstract data
//! structures and algorithms that the engine's application and algorithm
//! layers build upon. It holds what a run executes; the reference
//! structures the ablations time against it (an R-tree, Algorithm 1's
//! pigeonhole merge) live in `odrc-bench`.
//!
//! * [`sweep::sweep_overlaps`] — the top-to-bottom sweepline that reports
//!   all pairs of overlapping MBRs (§IV-D, Fig. 3) through a private
//!   interval tree whose nodes keep their intervals in two sorted lists
//!   (by left and by right endpoint); the flat baselines run it. And
//!   [`sweep::scan_overlaps`], the x-sorted active-list scan the engine
//!   finds a row's candidate pairs with.
//! * [`partition`] — the adaptive row-based layout partitioner (§IV-B),
//!   a sort of the extents, a running-maximum scan and an index-order
//!   member fill, and the row join
//!   [`partition::row_join_on`] that finds inter-layer candidates
//!   (enclosure, overlap area) through it.
//! * [`profile`] — phase timers backing the runtime breakdown of Fig. 4.
//! * [`host`] — the one persistent worker [`Pool`] and the shared host
//!   executor that fans the row/cell-parallel phases above out over it
//!   with deterministic index-ordered merges; the simulated device
//!   publishes its kernel launches onto the same pool. With
//!   [`cancel`]'s signal hook it holds all of the workspace's `unsafe`.
//! * [`cancel`] — the cooperative [`CancelToken`] threaded through the
//!   engine and the device layer so SIGINT/SIGTERM and
//!   wall-clock deadlines wind a run down at rule boundaries.
//! * [`atomic_io`] — crash-safe write-temp-then-rename sidecar writes
//!   (result cache, checkpoint journal, stats JSON).
//! * [`json`] — the workspace's one JSON value model, parser and
//!   writer: the serve wire protocol, `--stats-json` and the pipeline
//!   bench's baseline file all go through it.
//!
//! # Examples
//!
//! ```
//! use odrc_geometry::Rect;
//! use odrc_infra::partition::partition_rows;
//!
//! let mbrs = [
//!     Rect::from_coords(0, 0, 10, 10),
//!     Rect::from_coords(20, 2, 30, 9),
//!     Rect::from_coords(5, 40, 15, 50),
//! ];
//! let rows = partition_rows(&mbrs, 0);
//! assert_eq!(rows.len(), 2); // two independent rows along y
//! ```

pub mod atomic_io;
pub mod cancel;
pub mod host;
mod interval_tree;
pub mod journal;
pub mod json;
pub mod partition;
pub mod profile;
pub mod region;
pub mod rss;
pub mod sweep;

pub use atomic_io::{fsync_dir, write_atomic, FileLock};
pub use cancel::{install_signal_handlers, CancelReason, CancelToken};
pub use host::{available_threads, panic_message, HostExecutor, HostPanic, Pool};
pub use journal::{fnv1a64, RecordLog};
pub use partition::{partition_rows, Row, RowPartition};
pub use profile::Profiler;
pub use region::{BoolOp, Region};
pub use rss::{peak_rss_bytes, reset_peak_rss};
pub use sweep::{scan_overlaps, sweep_overlaps};
