//! Device-resident memory.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::mpsc;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::device::MemReservation;
use crate::error::{TransferDirection, XpuError, XpuResult};

/// The backing store of a device buffer.
///
/// `Owned` is device-private memory (allocations, plain uploads).
/// `Shared` aliases host memory that was uploaded through
/// [`Stream::try_upload_shared`] without a staging copy; it is
/// read-only from kernels, like CUDA memory mapped with
/// `cudaHostRegisterReadOnly`.
///
/// [`Stream::try_upload_shared`]: crate::Stream::try_upload_shared
enum Repr<T> {
    Owned(Vec<T>),
    Shared(Arc<Vec<T>>),
}

impl<T> Repr<T> {
    fn as_slice(&self) -> &[T] {
        match self {
            Repr::Owned(v) => v,
            Repr::Shared(a) => a,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Repr::Owned(v) => v,
            Repr::Shared(_) => panic!(
                "kernel writes to a shared (zero-copy) device buffer; \
                 shared uploads are read-only"
            ),
        }
    }
}

/// Read access to a device buffer's contents; derefs to `[T]`.
pub struct BufferReadGuard<'a, T>(RwLockReadGuard<'a, Repr<T>>);

impl<T> Deref for BufferReadGuard<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.0.as_slice()
    }
}

/// Write access to a device buffer's contents; derefs to `[T]`.
///
/// # Panics
///
/// Dereferencing panics if the buffer is a shared (zero-copy) upload:
/// those are read-only by construction.
pub(crate) struct BufferWriteGuard<'a, T>(RwLockWriteGuard<'a, Repr<T>>);

impl<T> Deref for BufferWriteGuard<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.0.as_slice()
    }
}

impl<T> DerefMut for BufferWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.0.as_mut_slice()
    }
}

/// A device-resident buffer of `T`.
///
/// Like CUDA device memory, a `DeviceBuffer` lives on the device and is
/// populated through explicit copies ([`Stream::try_upload`],
/// [`Stream::try_download`]) or by kernels. The handle is cheap to
/// clone; all clones alias the same memory.
///
/// Reads from kernels use [`DeviceBuffer::read`]; writes happen through
/// a stream's kernel launches, which hand each SPMD thread a disjoint
/// slot or range — this is what makes the simulated kernels
/// data-race-free by construction.
///
/// Buffers obtained from a budgeted device's stream
/// ([`Stream::try_alloc`] / [`Stream::try_upload`]) carry a memory
/// reservation that is released when the last handle drops, mirroring
/// the stream-ordered allocator's accounting.
///
/// [`Stream::try_download`]: crate::Stream::try_download
/// [`Stream::try_alloc`]: crate::Stream::try_alloc
/// [`Stream::try_upload`]: crate::Stream::try_upload
pub struct DeviceBuffer<T> {
    data: Arc<RwLock<Repr<T>>>,
    /// Budget accounting for stream-ordered allocations; `None` for
    /// direct (unbudgeted) buffers and unlimited devices.
    reservation: Option<Arc<MemReservation>>,
}

impl<T> Clone for DeviceBuffer<T> {
    fn clone(&self) -> Self {
        DeviceBuffer {
            data: Arc::clone(&self.data),
            reservation: self.reservation.clone(),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeviceBuffer(len = {})", self.len())
    }
}

impl<T> DeviceBuffer<T> {
    /// Allocates a zero-initialized (default-initialized) buffer.
    ///
    /// Direct allocations bypass any device memory budget; only the
    /// stream-ordered allocator ([`Stream::try_alloc`]) is budgeted.
    ///
    /// [`Stream::try_alloc`]: crate::Stream::try_alloc
    pub fn alloc(len: usize) -> Self
    where
        T: Default + Clone,
    {
        DeviceBuffer::from_vec(vec![T::default(); len])
    }

    /// Wraps host data into a device buffer (a synchronous upload).
    pub fn from_vec(data: Vec<T>) -> Self {
        DeviceBuffer {
            data: Arc::new(RwLock::new(Repr::Owned(data))),
            reservation: None,
        }
    }

    /// An empty buffer carrying a budget reservation (the backing store
    /// materializes in stream order).
    pub(crate) fn reserved(reservation: Option<Arc<MemReservation>>) -> Self {
        DeviceBuffer {
            data: Arc::new(RwLock::new(Repr::Owned(Vec::new()))),
            reservation,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.read().as_slice().len()
    }

    /// Returns `true` for zero-length buffers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read access for kernels and host-side inspection.
    ///
    /// # Panics
    ///
    /// Deadlocks (or panics under `parking_lot` deadlock detection) if
    /// called from a kernel writing the same buffer; a kernel must not
    /// read its own output.
    pub fn read(&self) -> BufferReadGuard<'_, T> {
        BufferReadGuard(self.data.read())
    }

    /// Copies the contents back to host memory.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.data.read().as_slice().to_vec()
    }

    pub(crate) fn write(&self) -> BufferWriteGuard<'_, T> {
        BufferWriteGuard(self.data.write())
    }

    /// Replaces the entire contents (used by stream-ordered copies).
    pub(crate) fn replace(&self, data: Vec<T>) {
        *self.data.write() = Repr::Owned(data);
    }

    /// Points the buffer at shared host memory without copying (used by
    /// the zero-copy upload path). The buffer becomes read-only.
    pub(crate) fn replace_shared(&self, data: Arc<Vec<T>>) {
        *self.data.write() = Repr::Shared(data);
    }
}

/// A value that becomes available when the producing stream reaches the
/// corresponding operation — the result handle of an asynchronous
/// download.
///
/// If the producing stream fails before reaching the operation (a
/// sticky stream error, see [`Stream`]), [`Pending::result`] returns
/// that error instead of blocking forever.
///
/// [`Stream`]: crate::Stream
///
/// # Examples
///
/// ```
/// use odrc_xpu::Device;
///
/// let device = Device::new(2);
/// let stream = device.stream();
/// let buf = stream.try_upload(vec![1u32, 2, 3]).unwrap();
/// let pending = stream.try_download(&buf).unwrap();
/// assert_eq!(pending.result(), Ok(vec![1, 2, 3]));
/// ```
#[derive(Debug)]
pub struct Pending<T> {
    rx: mpsc::Receiver<T>,
    /// The producing stream's sticky error slot, consulted when the
    /// channel disconnects without delivering a value.
    err: Option<Arc<Mutex<Option<XpuError>>>>,
    /// Watchdog context: the producing stream's in-flight op marker and
    /// the armed limit. `None` when the device has no watchdog.
    watch: Option<StallWatch>,
}

/// What a watchdog-armed wait polls: the producing stream's in-flight
/// operation marker (shared with the stream worker) and the stall
/// limit.
pub(crate) struct StallWatch {
    pub(crate) in_flight: Arc<Mutex<Option<(&'static str, std::time::Instant)>>>,
    pub(crate) limit: std::time::Duration,
}

impl std::fmt::Debug for StallWatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StallWatch(limit = {:?})", self.limit)
    }
}

impl StallWatch {
    /// `Some(op)` when the in-flight operation has outlived the limit.
    pub(crate) fn stalled_op(&self) -> Option<&'static str> {
        let guard = self.in_flight.lock();
        match &*guard {
            Some((op, since)) if since.elapsed() > self.limit => Some(op),
            _ => None,
        }
    }

    /// The polling interval for timed waits under this watchdog: a
    /// fraction of the limit, bounded away from busy-spinning and from
    /// sluggish detection.
    pub(crate) fn tick(&self) -> std::time::Duration {
        (self.limit / 4).clamp(
            std::time::Duration::from_millis(1),
            std::time::Duration::from_millis(20),
        )
    }
}

impl<T> Pending<T> {
    pub(crate) fn with_watch(
        rx: mpsc::Receiver<T>,
        err: Arc<Mutex<Option<XpuError>>>,
        watch: Option<StallWatch>,
    ) -> Self {
        Pending {
            rx,
            err: Some(err),
            watch,
        }
    }

    /// Blocks until the value is produced or the producing stream
    /// fails. A skipped operation on a poisoned stream resolves to the
    /// stream's first (sticky) error. Under an armed watchdog
    /// ([`Device::set_watchdog`]) the wait also polls the producing
    /// stream's in-flight operation, and a genuine stall past the limit
    /// resolves to [`XpuError::StreamTimeout`], poisoning the stream.
    ///
    /// [`Device::set_watchdog`]: crate::Device::set_watchdog
    pub fn result(self) -> XpuResult<T> {
        if let Some(watch) = &self.watch {
            loop {
                match self.rx.recv_timeout(watch.tick()) {
                    Ok(value) => return Ok(value),
                    Err(mpsc::RecvTimeoutError::Disconnected) => return self.disconnected(),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // A stream that failed while we waited skips our
                        // job eventually; surface the sticky error now.
                        if let Some(slot) = &self.err {
                            if let Some(e) = slot.lock().clone() {
                                return Err(e);
                            }
                        }
                        if let Some(op) = watch.stalled_op() {
                            let e = XpuError::StreamTimeout { op };
                            if let Some(slot) = &self.err {
                                let mut s = slot.lock();
                                if s.is_none() {
                                    *s = Some(e.clone());
                                }
                            }
                            return Err(e);
                        }
                    }
                }
            }
        }
        match self.rx.recv() {
            Ok(value) => Ok(value),
            // The sender dropped without sending: the stream either hit
            // a sticky error (recorded before the job was dropped) or
            // was torn down. Consult the error slot first.
            Err(mpsc::RecvError) => self.disconnected(),
        }
    }

    /// The channel disconnected without a value: report the stream's
    /// sticky error, or a generic failed transfer.
    fn disconnected(&self) -> XpuResult<T> {
        if let Some(slot) = &self.err {
            if let Some(e) = slot.lock().clone() {
                return Err(e);
            }
        }
        Err(XpuError::TransferError {
            direction: TransferDirection::DeviceToHost,
            bytes: 0,
        })
    }

    /// Blocks until the value is produced.
    ///
    /// # Panics
    ///
    /// Panics if the producing stream failed or was dropped before
    /// executing the operation. Use [`Pending::result`] to recover
    /// instead.
    pub fn wait(self) -> T {
        self.result().expect("device operation failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_default_initialized() {
        let b: DeviceBuffer<i32> = DeviceBuffer::alloc(5);
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
        assert_eq!(b.to_vec(), vec![0; 5]);
    }

    #[test]
    fn clones_alias() {
        let a = DeviceBuffer::from_vec(vec![1, 2, 3]);
        let b = a.clone();
        a.replace(vec![9, 9]);
        assert_eq!(b.to_vec(), vec![9, 9]);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn read_guard_indexing() {
        let a = DeviceBuffer::from_vec(vec![10, 20, 30]);
        assert_eq!(a.read()[1], 20);
    }

    #[test]
    fn empty_buffer() {
        let b: DeviceBuffer<u8> = DeviceBuffer::alloc(0);
        assert!(b.is_empty());
        assert!(b.to_vec().is_empty());
    }

    #[test]
    fn shared_buffer_reads_without_copy() {
        let host = Arc::new(vec![1u32, 2, 3]);
        let buf: DeviceBuffer<u32> = DeviceBuffer::from_vec(Vec::new());
        buf.replace_shared(Arc::clone(&host));
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.read()[2], 3);
        assert_eq!(buf.to_vec(), vec![1, 2, 3]);
        // Still aliased: the Arc has two strong holders.
        assert_eq!(Arc::strong_count(&host), 2);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn shared_buffer_rejects_writes() {
        let buf: DeviceBuffer<u32> = DeviceBuffer::from_vec(Vec::new());
        buf.replace_shared(Arc::new(vec![1, 2]));
        let mut guard = buf.write();
        let _slots: &mut [u32] = &mut guard;
    }

    #[test]
    fn orphan_pending_resolves_to_error() {
        let (tx, rx) = mpsc::channel::<u8>();
        let pending = Pending {
            rx,
            err: None,
            watch: None,
        };
        drop(tx);
        assert!(pending.result().is_err());
    }

    #[test]
    fn orphan_pending_reports_sticky_error() {
        let (tx, rx) = mpsc::channel::<u8>();
        let slot = Arc::new(Mutex::new(Some(XpuError::StreamTimeout { op: "download" })));
        let pending = Pending::with_watch(rx, Arc::clone(&slot), None);
        drop(tx);
        assert_eq!(
            pending.result(),
            Err(XpuError::StreamTimeout { op: "download" })
        );
    }
}
