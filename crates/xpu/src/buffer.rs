//! Device-resident memory.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::device::MemReservation;
use crate::error::{TransferDirection, XpuError, XpuResult};
use crate::stream::Queue;

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
/// Waiting runs the producing stream on the waiting thread. If the
/// stream fails before reaching the operation (a sticky stream error,
/// see [`Stream`]), [`Pending::result`] returns that error.
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
    /// Filled by the download when the stream runs it.
    slot: Arc<Mutex<Option<T>>>,
    /// The producing stream, drained by [`Pending::result`].
    queue: Arc<Queue>,
}

impl<T> Pending<T> {
    pub(crate) fn new(slot: Arc<Mutex<Option<T>>>, queue: Arc<Queue>) -> Self {
        Pending { slot, queue }
    }

    /// Runs the producing stream up to and past the operation on the
    /// calling thread, then returns the value. A skipped operation on a
    /// poisoned stream resolves to the stream's first (sticky) error.
    pub fn result(self) -> XpuResult<T> {
        self.queue.drain();
        if let Some(value) = self.slot.lock().take() {
            return Ok(value);
        }
        Err(self.queue.error().unwrap_or(XpuError::TransferError {
            direction: TransferDirection::DeviceToHost,
            bytes: 0,
        }))
    }

    /// [`Pending::result`], panicking on device errors.
    ///
    /// # Panics
    ///
    /// Panics if the producing stream failed before executing the
    /// operation. Use [`Pending::result`] to recover instead.
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

    /// A pending value that no download fills, on a stream whose sticky
    /// error is `sticky`.
    fn orphan(sticky: Option<XpuError>) -> Pending<u8> {
        let stream = crate::Device::new(1).stream();
        if let Some(e) = sticky {
            stream.queue.set_sticky(e);
        }
        Pending::new(Arc::new(Mutex::new(None)), Arc::clone(&stream.queue))
    }

    #[test]
    fn orphan_pending_resolves_to_error() {
        assert!(orphan(None).result().is_err());
    }

    #[test]
    fn orphan_pending_reports_sticky_error() {
        let timeout = XpuError::StreamTimeout { op: "download" };
        assert_eq!(orphan(Some(timeout.clone())).result(), Err(timeout));
    }
}
