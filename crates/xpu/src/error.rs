//! The device failure taxonomy.
//!
//! Real GPUs fail: allocations exhaust device memory, kernels trap on
//! bad accesses, streams wedge behind a hung operation, and transfers
//! abort mid-copy. The CUDA runtime surfaces all of these as
//! `cudaError_t` codes that most checkers ignore; *Fearless Concurrency
//! on the GPU* argues for routing them through the type system instead.
//! [`XpuError`] is that surface for the simulated device: every
//! fallible operation returns [`XpuResult`], and the engine's parallel
//! mode is written against it so a misbehaving device degrades the run
//! instead of killing it.

use std::fmt;

/// Direction of a host/device copy, for [`XpuError::TransferError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferDirection {
    /// Host memory to device memory (`upload`).
    HostToDevice,
    /// Device memory to host memory (`download`).
    DeviceToHost,
}

impl fmt::Display for TransferDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferDirection::HostToDevice => write!(f, "host-to-device"),
            TransferDirection::DeviceToHost => write!(f, "device-to-host"),
        }
    }
}

/// An error produced by the device layer.
///
/// The variants mirror the failure classes of a production GPU
/// runtime: memory exhaustion, kernel traps, wedged streams, failed
/// copies, and host-requested cancellation. All carry enough context to
/// log a reproducible diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XpuError {
    /// A stream-ordered allocation exceeded the device memory budget.
    Oom {
        /// Bytes the allocation requested.
        requested: usize,
        /// Bytes already reserved on the device.
        in_use: usize,
        /// The configured budget ([`Device::with_budget`]).
        ///
        /// [`Device::with_budget`]: crate::Device::with_budget
        budget: usize,
    },
    /// A kernel thread panicked; the launch failed but the worker pool
    /// survived (the panic is caught per thread in a map launch, per
    /// tile in a tile launch).
    KernelPanic {
        /// Device-wide launch ordinal of the failing kernel.
        kernel: u64,
        /// Global thread id (`blockIdx * blockDim + threadIdx`) of the
        /// first thread that panicked.
        global_id: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// A stream operation stalled past the watchdog.
    StreamTimeout {
        /// What the stream was doing.
        op: &'static str,
    },
    /// A host/device copy failed.
    TransferError {
        /// Copy direction.
        direction: TransferDirection,
        /// Bytes the copy attempted to move.
        bytes: usize,
    },
    /// The run was cancelled; streams created after cancellation are
    /// born poisoned so retry loops fail fast instead of re-issuing
    /// work the run is about to discard.
    Cancelled,
}

impl fmt::Display for XpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XpuError::Oom {
                requested,
                in_use,
                budget,
            } => write!(
                f,
                "device out of memory: {requested} bytes requested, \
                 {in_use} in use of {budget} budget"
            ),
            XpuError::KernelPanic {
                kernel,
                global_id,
                message,
            } => write!(
                f,
                "kernel #{kernel} panicked in thread {global_id}: {message}"
            ),
            XpuError::StreamTimeout { op } => {
                write!(f, "stream operation timed out while {op}")
            }
            XpuError::TransferError { direction, bytes } => {
                write!(f, "{direction} transfer of {bytes} bytes failed")
            }
            XpuError::Cancelled => f.write_str("operation cancelled"),
        }
    }
}

impl std::error::Error for XpuError {}

/// The result type of every fallible device operation.
pub type XpuResult<T> = Result<T, XpuError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = XpuError::Oom {
            requested: 1024,
            in_use: 96,
            budget: 1000,
        };
        let s = e.to_string();
        assert!(s.contains("1024") && s.contains("96") && s.contains("1000"));

        let e = XpuError::KernelPanic {
            kernel: 3,
            global_id: 517,
            message: "index out of bounds".to_owned(),
        };
        let s = e.to_string();
        assert!(s.contains("#3") && s.contains("517") && s.contains("index out of bounds"));

        let e = XpuError::StreamTimeout { op: "download" };
        assert!(e.to_string().contains("download"));

        let e = XpuError::TransferError {
            direction: TransferDirection::HostToDevice,
            bytes: 64,
        };
        assert!(e.to_string().contains("host-to-device"));
    }
}
