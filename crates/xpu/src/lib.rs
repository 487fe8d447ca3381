//! A CUDA-like SPMD execution engine in software.
//!
//! The OpenDRC paper (§IV-E, §V-C) runs its parallel mode on an NVIDIA
//! GPU through CUDA: edge data is packed into flat arrays, copied to the
//! device asynchronously on *streams*, and processed by *kernels*
//! launched over a grid/block/thread hierarchy; a stream-ordered memory
//! allocator and events hide copy and compute latencies behind host-side
//! work.
//!
//! This crate reproduces that execution model in safe Rust so the
//! engine's parallel code paths are exercised verbatim on machines
//! without a GPU (see DESIGN.md §1 for the substitution rationale):
//!
//! * [`Device`] — the SPMD processor: launches kernels whose threads are
//!   identified by a [`ThreadCtx`] (block index, thread index, …) and
//!   executed by a worker pool,
//! * [`DeviceBuffer`] — device-resident memory with explicit host↔device
//!   copies,
//! * [`Stream`] — an ordered asynchronous command queue with
//!   [`Event`]-based cross-stream dependencies and stream-ordered
//!   allocation,
//! * [`scan`] — the device-side exclusive prefix sum
//!   used by the two-phase parallel sweepline,
//! * [`sort`] — device-side parallel merge sort (edge arrays are sorted
//!   on the device before sweeping, as in X-Check).
//!
//! Kernels launch only on a stream, in one of three shapes: *map* (thread
//! `i` owns `out[i]`), *tiles* (the kernel gets a contiguous range of
//! threads per call) and *scatter tiles* (thread `i` owns the output
//! range a prefix sum gave it). All three run one launch protocol: one
//! ordinal tick, one dispatch, and panics caught inside the launch as
//! [`XpuError::KernelPanic`]. Every stream op has a fallible `try_*`
//! form returning [`XpuResult`].
//!
//! # Examples
//!
//! ```
//! use odrc_xpu::{Device, LaunchConfig, XpuResult};
//!
//! fn squares(device: &Device) -> XpuResult<Vec<i64>> {
//!     let stream = device.stream();
//!     let input = stream.try_upload((0..1000i64).collect::<Vec<_>>())?;
//!     let squares = stream.try_alloc::<i64>(1000)?;
//!     stream.try_launch_map(
//!         LaunchConfig::for_threads(1000),
//!         &squares,
//!         move |ctx, out| {
//!             let x = input.read()[ctx.global_id()];
//!             *out = x * x;
//!         },
//!     )?;
//!     stream.try_download(&squares)?.result()
//! }
//!
//! assert_eq!(squares(&Device::new(4)).unwrap()[7], 49);
//! ```

#![forbid(unsafe_code)]

pub mod buffer;
pub mod device;
pub mod error;
pub mod fault;
pub mod scan;
pub mod sort;
pub mod stream;

pub use buffer::{BufferReadGuard, DeviceBuffer, Pending};
pub use device::{Device, DeviceStats, LaunchConfig, ThreadCtx};
pub use error::{TransferDirection, XpuError, XpuResult};
pub use fault::{Fault, FaultPlan};
pub use stream::{Event, LaunchBatch, Stream};
