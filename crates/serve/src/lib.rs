//! `odrc-serve`: a multi-tenant DRC check service.
//!
//! The one-shot CLI pays the full cost of every run: parse the
//! layout, build scenes, check every cell. A layout under active edit
//! is checked hundreds of times a day, by several engineers, against
//! the same deck — almost all of that work is repeated. This crate
//! keeps the engine warm behind a socket:
//!
//! * [`server`] — the `odrc serve` daemon. Clients hold **edit
//!   sessions** (a layout plus an [`odrc_incremental::Session`]) and
//!   submit check jobs; a bounded [`scheduler`] multiplexes the jobs
//!   over one process-wide host-thread budget, and a
//!   [`cache_tier::SharedCacheTier`] lets any client reuse cell
//!   verdicts any other client already computed.
//! * [`client`] — the synchronous client library behind `odrc client`.
//! * [`proto`] / [`json`] / [`wire`] — the newline-JSON protocol:
//!   hand-rolled (the build is offline, no serde; [`json`] is
//!   `odrc_infra::json`, re-exported), typed errors with stable codes,
//!   engine types in and out of wire JSON.
//!
//! The design constraint threaded through all of it: a job's result
//! must be **byte-identical** to what the one-shot CLI prints for the
//! same layout and deck — same violations, same CSV report, same exit
//! code — no matter how many tenants share the process.

#![forbid(unsafe_code)]

pub mod cache_tier;
pub mod chaos;
pub mod client;
pub mod journal;
pub mod proto;
pub mod scheduler;
pub mod server;
pub mod wire;

pub use cache_tier::SharedCacheTier;
pub use chaos::{ChaosState, ServerFault, ServerFaultPlan};
pub use client::{Client, ClientError, JobOutcome, RetryPolicy};
pub use journal::{JobJournal, JobSpec, ReplayedJob};
pub use odrc_infra::json;
pub use proto::{job_exit_code, ServeError, MAX_FRAME_BYTES};
pub use scheduler::Scheduler;
pub use server::{DrainSummary, Server, ServerConfig, ServerHandle};
pub use wire::WireViolation;
