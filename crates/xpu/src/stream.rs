//! Asynchronous command streams and events.
//!
//! OpenDRC "utilizes asynchronous operations and \[a\] Stream Ordered
//! Memory Allocator to hide communication or computation latencies"
//! (§V-C). A [`Stream`] executes its operations in enqueue order on a
//! dedicated thread, so host code returns immediately from `try_upload`
//! / `try_launch_*` / `try_download` calls and overlaps its own work
//! (e.g. packing the next row's edges) with device work — the paper's
//! CPU/GPU latency-hiding pattern.
//!
//! # Failure model
//!
//! Streams fail the way CUDA streams do: the first error *poisons* the
//! stream (it is sticky), subsequent data operations are skipped, and
//! the error resurfaces from every later fallible call —
//! [`Stream::try_synchronize`], [`Pending::result`], and the `try_*`
//! enqueue methods. Control operations (event signalling) still
//! execute on a poisoned stream so waiters never deadlock. A poisoned
//! stream stays poisoned; recovery means retrying on a fresh stream
//! (streams are cheap).
//!
//! Every op is built in one place, a [`LaunchBatch`] method; the
//! `Stream::try_*` methods run it through an unfused batch, which
//! submits immediately. `alloc`, `upload`, `download`, `launch_map`,
//! `synchronize` and [`Pending::wait`] are `expect` wrappers over the
//! fallible forms, kept for the benchmark harness.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::buffer::{DeviceBuffer, Pending, StallWatch};
use crate::device::{Device, LaunchConfig, ThreadCtx};
use crate::error::{TransferDirection, XpuError, XpuResult};

/// A boxed fallible device-side operation carried by a data command.
type DataJob = Box<dyn FnOnce(&Device) -> XpuResult<()> + Send>;

/// A stream command. Data commands are skipped once the stream is
/// poisoned and are subject to stall injection; control commands
/// (event signalling) always run. A fused command carries a batch of
/// sub-commands delivered to the worker in one send — one wake — while
/// each sub-command still runs under the exact per-op protocol
/// (sticky-skip, in-flight marking, fault ordinal tick), so fused and
/// unfused execution are observably identical apart from queue traffic.
enum Cmd {
    Data { op: &'static str, job: DataJob },
    Control(Box<dyn FnOnce(&Device) + Send>),
    Fused(Vec<Cmd>),
}

/// Executes one command on the stream worker; the single definition of
/// the per-op protocol (shared by plain and fused delivery, so fault
/// and watchdog behavior cannot diverge between them).
fn execute_cmd(
    cmd: Cmd,
    device: &Device,
    err: &ErrorSlot,
    in_flight: &Arc<Mutex<Option<(&'static str, Instant)>>>,
) {
    match cmd {
        Cmd::Control(f) => f(device),
        Cmd::Fused(cmds) => {
            for sub in cmds {
                execute_cmd(sub, device, err, in_flight);
            }
        }
        Cmd::Data { op, job } => {
            if err.lock().is_some() {
                // Poisoned: skip the job. Dropping it disconnects any
                // per-op sender, and the sticky error is already
                // visible.
                return;
            }
            // Mark the op in flight *before* the fault hook: an
            // injected hang sleeps in there and must be visible to
            // watchdogs.
            *in_flight.lock() = Some((op, Instant::now()));
            if let Some(e) = device.fault_stream_op(op) {
                // Injected stall: poison *before* the job (and its
                // senders) drops, so a disconnected Pending sees the
                // error.
                set_sticky(err, e);
                *in_flight.lock() = None;
                return;
            }
            if let Err(e) = job(device) {
                set_sticky(err, e);
            }
            *in_flight.lock() = None;
        }
    }
}

type ErrorSlot = Arc<Mutex<Option<XpuError>>>;

/// Records the stream's first error; later errors are dropped (sticky
/// semantics, like `cudaGetLastError` reporting the first failure).
fn set_sticky(slot: &ErrorSlot, e: XpuError) {
    let mut s = slot.lock();
    if s.is_none() {
        *s = Some(e);
    }
}

#[derive(Debug, Default)]
struct EventState {
    set: bool,
    err: Option<XpuError>,
}

/// A cross-stream synchronization point, mirroring `cudaEvent_t`.
///
/// Record the event on one stream, wait on it from another (or from the
/// host). The event is triggered when the recording stream reaches it.
/// An event recorded on a poisoned stream still triggers — carrying the
/// stream's sticky error, observable via [`Event::wait_result`] — so
/// waiters never deadlock on a failed stream.
#[derive(Clone, Debug, Default)]
pub struct Event {
    state: Arc<(Mutex<EventState>, Condvar)>,
}

impl Event {
    /// Creates an untriggered event.
    pub fn new() -> Self {
        Event::default()
    }

    /// Blocks the calling thread until the event triggers.
    pub fn wait(&self) {
        let (lock, cvar) = &*self.state;
        let mut state = lock.lock();
        while !state.set {
            cvar.wait(&mut state);
        }
    }

    /// Blocks until the event triggers, then reports the recording
    /// stream's sticky error, if it had one when the event fired.
    pub fn wait_result(&self) -> XpuResult<()> {
        let (lock, cvar) = &*self.state;
        let mut state = lock.lock();
        while !state.set {
            cvar.wait(&mut state);
        }
        match &state.err {
            None => Ok(()),
            Some(e) => Err(e.clone()),
        }
    }

    /// Returns `true` if the event has triggered.
    pub fn is_set(&self) -> bool {
        self.state.0.lock().set
    }

    /// Timed [`Event::wait_result`]: `None` when `timeout` elapses
    /// before the event triggers.
    pub(crate) fn wait_result_for(&self, timeout: std::time::Duration) -> Option<XpuResult<()>> {
        let (lock, cvar) = &*self.state;
        let deadline = Instant::now() + timeout;
        let mut state = lock.lock();
        while !state.set {
            let left = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())?;
            let _ = cvar.wait_for(&mut state, left);
        }
        match &state.err {
            None => Some(Ok(())),
            Some(e) => Some(Err(e.clone())),
        }
    }

    fn set_with(&self, err: Option<XpuError>) {
        let (lock, cvar) = &*self.state;
        {
            let mut state = lock.lock();
            state.set = true;
            if state.err.is_none() {
                state.err = err;
            }
        }
        cvar.notify_all();
    }
}

/// An ordered asynchronous command queue on a [`Device`].
///
/// Operations enqueue and return immediately; they execute in order on
/// the stream's worker thread. [`Stream::try_synchronize`] blocks until
/// the queue drains. Dropping the stream waits for completion (the
/// destructor never drops queued work).
///
/// See the [module docs](self) for the failure model: errors are sticky
/// and recovery happens on a fresh stream.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Stream {
    device: Device,
    err: ErrorSlot,
    /// The data operation currently executing on the worker (shared
    /// with watchdog-armed waits), with its start time.
    in_flight: Arc<Mutex<Option<(&'static str, Instant)>>>,
    tx: Option<mpsc::Sender<Cmd>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Stream {
    pub(crate) fn new(device: Device) -> Self {
        let (tx, rx) = mpsc::channel::<Cmd>();
        let worker_device = device.clone();
        let err: ErrorSlot = Arc::new(Mutex::new(None));
        // Streams requested after the run is cancelled are born
        // poisoned: every data op fails fast with `Cancelled`, so
        // recovery loops wind down instead of re-running work.
        if let Some(e) = device.cancel_error() {
            set_sticky(&err, e);
        }
        let in_flight: Arc<Mutex<Option<(&'static str, Instant)>>> = Arc::new(Mutex::new(None));
        let worker_err = Arc::clone(&err);
        let worker_in_flight = Arc::clone(&in_flight);
        let worker = std::thread::Builder::new()
            .name("xpu-stream".to_owned())
            .spawn(move || {
                while let Ok(cmd) = rx.recv() {
                    execute_cmd(cmd, &worker_device, &worker_err, &worker_in_flight);
                }
            })
            .expect("spawn stream worker");
        Stream {
            device,
            err,
            in_flight,
            tx: Some(tx),
            worker: Some(worker),
        }
    }

    /// The watchdog context for waits on this stream; `None` when the
    /// device has no watchdog armed.
    fn stall_watch(&self) -> Option<StallWatch> {
        self.device.watchdog().map(|limit| StallWatch {
            in_flight: Arc::clone(&self.in_flight),
            limit,
        })
    }

    /// The device this stream executes on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The stream's sticky error, if it has failed.
    pub fn error(&self) -> Option<XpuError> {
        self.err.lock().clone()
    }

    fn check_sticky(&self) -> XpuResult<()> {
        match self.error() {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn submit(&self, cmd: Cmd) {
        self.tx
            .as_ref()
            .expect("stream channel open until drop")
            .send(cmd)
            .expect("stream worker alive until drop");
    }

    /// Fallible stream-ordered allocation: the buffer handle is
    /// returned immediately, and the default-initialization happens in
    /// stream order, like `cudaMallocAsync`. Fails fast (without
    /// poisoning the stream) when the device's memory budget would be
    /// exceeded or an alloc fault is injected.
    pub fn try_alloc<T>(&self, len: usize) -> XpuResult<DeviceBuffer<T>>
    where
        T: Default + Clone + Send + Sync + 'static,
    {
        self.batch(false).try_alloc(len)
    }

    /// [`Stream::try_alloc`], panicking on device errors.
    pub fn alloc<T>(&self, len: usize) -> DeviceBuffer<T>
    where
        T: Default + Clone + Send + Sync + 'static,
    {
        self.try_alloc(len).expect("device allocation failed")
    }

    /// Fallible asynchronous host → device copy; the host vector is
    /// moved into the operation. Fails fast on budget exhaustion or an
    /// injected transfer fault, leaving the stream healthy.
    pub fn try_upload<T>(&self, data: Vec<T>) -> XpuResult<DeviceBuffer<T>>
    where
        T: Send + Sync + 'static,
    {
        let bytes = std::mem::size_of_val(data.as_slice());
        self.batch(false)
            .upload(bytes, move |buf| buf.replace(data))
    }

    /// [`Stream::try_upload`], panicking on device errors.
    pub fn upload<T>(&self, data: Vec<T>) -> DeviceBuffer<T>
    where
        T: Send + Sync + 'static,
    {
        self.try_upload(data).expect("device upload failed")
    }

    /// Fallible zero-copy host → device upload: the device buffer
    /// aliases the shared host allocation instead of staging a private
    /// copy, so N streams uploading the same `Arc` move no bytes per
    /// call beyond the simulated transfer. The resulting buffer is
    /// read-only for kernels (writes panic), mirroring
    /// read-only-registered host memory.
    ///
    /// Transfer accounting, fault injection, and the memory budget
    /// behave exactly like [`Stream::try_upload`]: the simulated H2D
    /// transfer still happens — what is eliminated is the host-side
    /// staging clone.
    pub fn try_upload_shared<T>(&self, data: Arc<Vec<T>>) -> XpuResult<DeviceBuffer<T>>
    where
        T: Send + Sync + 'static,
    {
        self.batch(false).try_upload_shared(data)
    }

    /// Fallible asynchronous device → host copy. The returned
    /// [`Pending`] resolves when the stream reaches this operation;
    /// if the stream fails first, [`Pending::result`] reports the
    /// sticky error instead of blocking forever.
    pub fn try_download<T>(&self, buf: &DeviceBuffer<T>) -> XpuResult<Pending<Vec<T>>>
    where
        T: Clone + Send + Sync + 'static,
    {
        self.batch(false).try_download(buf)
    }

    /// [`Stream::try_download`], panicking if the stream is already
    /// poisoned.
    pub fn download<T>(&self, buf: &DeviceBuffer<T>) -> Pending<Vec<T>>
    where
        T: Clone + Send + Sync + 'static,
    {
        self.try_download(buf).expect("device download failed")
    }

    /// Fallibly enqueues a *map* kernel launch: thread `i` owns
    /// `out[i]`, and each thread runs behind its own panic boundary.
    /// Enqueueing succeeds on a healthy stream; a kernel panic during
    /// execution poisons the stream and surfaces from
    /// [`Stream::try_synchronize`] or any [`Pending::result`] as
    /// [`XpuError::KernelPanic`], naming the launch ordinal and the
    /// first panicking global thread id.
    pub fn try_launch_map<T, F>(
        &self,
        cfg: LaunchConfig,
        out: &DeviceBuffer<T>,
        kernel: F,
    ) -> XpuResult<()>
    where
        T: Send + Sync + 'static,
        F: Fn(ThreadCtx, &mut T) + Send + Sync + 'static,
    {
        self.batch(false).try_launch_map(cfg, out, kernel)
    }

    /// [`Stream::try_launch_map`], panicking if the stream is already
    /// poisoned.
    pub fn launch_map<T, F>(&self, cfg: LaunchConfig, out: &DeviceBuffer<T>, kernel: F)
    where
        T: Send + Sync + 'static,
        F: Fn(ThreadCtx, &mut T) + Send + Sync + 'static,
    {
        self.try_launch_map(cfg, out, kernel)
            .expect("device launch failed");
    }

    /// Fallibly enqueues a *tile* kernel launch: the kernel receives
    /// whole contiguous ranges of `out` (one call per dispatch chunk)
    /// instead of one call per element, so the panic boundary is paid
    /// once per tile. Ordinals tick once per launch, and an injected
    /// per-thread fault still fires for exactly its thread (the tile is
    /// split around it); a genuine tile panic names the tile's first
    /// global id.
    pub fn try_launch_tiles<T, F>(
        &self,
        cfg: LaunchConfig,
        out: &DeviceBuffer<T>,
        kernel: F,
    ) -> XpuResult<()>
    where
        T: Send + Sync + 'static,
        F: Fn(std::ops::Range<usize>, &mut [T]) + Send + Sync + 'static,
    {
        self.batch(false).try_launch_tiles(cfg, out, kernel)
    }

    /// Fallibly enqueues a *scatter tile* kernel launch: thread `i`
    /// owns `out[offsets[i]..offsets[i + 1]]`, and the kernel receives
    /// a tile of those slices per call, with the tile semantics of
    /// [`Stream::try_launch_tiles`].
    pub fn try_launch_scatter_tiles<T, F>(
        &self,
        cfg: LaunchConfig,
        out: &DeviceBuffer<T>,
        offsets: Vec<usize>,
        kernel: F,
    ) -> XpuResult<()>
    where
        T: Send + Sync + 'static,
        F: Fn(std::ops::Range<usize>, &mut [&mut [T]]) + Send + Sync + 'static,
    {
        self.batch(false)
            .try_launch_scatter_tiles(cfg, out, offsets, kernel)
    }

    /// Records `event` in stream order: it triggers once all previously
    /// enqueued operations have completed. The event carries the
    /// stream's sticky error, if any, and fires even on a poisoned
    /// stream (a control operation), so waiters never deadlock.
    pub fn record_event(&self, event: &Event) {
        self.batch(false).record_event(event);
    }

    /// Makes this stream wait (in stream order) for `event`. A control
    /// operation: it preserves cross-stream ordering even when this
    /// stream is poisoned, and is never a fault-injection target.
    pub fn wait_event(&self, event: &Event) {
        self.batch(false).wait_event(event);
    }

    /// Opens a batched enqueue scope on this stream. With `fused =
    /// true`, commands pushed into the batch are packed into a single
    /// [`Cmd::Fused`] delivered to the worker in one send (one wake)
    /// when the batch flushes; with `fused = false` the batch is a pure
    /// passthrough submitting each command immediately, byte-identical
    /// to calling the stream methods directly — the unfused ablation.
    ///
    /// Dropping the batch flushes it, so early error returns leave the
    /// queue in the same state an unfused caller would have (commands
    /// built before the error are already committed to execute).
    pub fn batch(&self, fused: bool) -> LaunchBatch<'_> {
        LaunchBatch {
            stream: self,
            cmds: Vec::new(),
            fused,
            launches: 0,
        }
    }

    /// Blocks until every previously enqueued operation has completed
    /// or been skipped, then reports the stream's sticky error, if any
    /// — the fallible `cudaStreamSynchronize`.
    ///
    /// Under an armed watchdog ([`Device::set_watchdog`]) the wait
    /// polls the in-flight operation: an op stalled past the limit
    /// poisons the stream with [`XpuError::StreamTimeout`] and returns
    /// it immediately, without waiting for the stall to resolve.
    pub fn try_synchronize(&self) -> XpuResult<()> {
        let event = Event::new();
        self.record_event(&event);
        let Some(watch) = self.stall_watch() else {
            return event.wait_result();
        };
        loop {
            if let Some(result) = event.wait_result_for(watch.tick()) {
                return result;
            }
            if let Some(op) = watch.stalled_op() {
                let e = XpuError::StreamTimeout { op };
                set_sticky(&self.err, e.clone());
                return Err(e);
            }
        }
    }

    /// [`Stream::try_synchronize`], panicking if the stream failed.
    pub fn synchronize(&self) {
        self.try_synchronize().expect("stream failed");
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        // Close the channel, then join: queued work always completes.
        self.tx.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// A batched enqueue scope created by [`Stream::batch`], and the one
/// place each stream op is built.
///
/// Every synchronous check (sticky error, fault ordinal, budget
/// reservation) runs at the call, on the caller thread, exactly as an
/// immediate enqueue would — only the handoff to the worker is deferred
/// and packed. Flushing (or dropping) a fused batch with two or more
/// commands submits one [`Cmd::Fused`] and credits the contained kernel
/// launches to [`DeviceStats::launches_fused`].
///
/// [`DeviceStats::launches_fused`]: crate::DeviceStats::launches_fused
pub struct LaunchBatch<'s> {
    stream: &'s Stream,
    cmds: Vec<Cmd>,
    fused: bool,
    launches: u64,
}

impl LaunchBatch<'_> {
    fn push(&mut self, cmd: Cmd) {
        if self.fused {
            self.cmds.push(cmd);
        } else {
            self.stream.submit(cmd);
        }
    }

    /// Batched [`Stream::try_alloc`].
    pub fn try_alloc<T>(&mut self, len: usize) -> XpuResult<DeviceBuffer<T>>
    where
        T: Default + Clone + Send + Sync + 'static,
    {
        let bytes = len * std::mem::size_of::<T>();
        self.reserve_cmd(
            "alloc",
            bytes,
            |device| device.fault_alloc(bytes),
            move |_, buf| buf.replace(vec![T::default(); len]),
        )
    }

    /// Batched [`Stream::try_upload_shared`].
    pub fn try_upload_shared<T>(&mut self, data: Arc<Vec<T>>) -> XpuResult<DeviceBuffer<T>>
    where
        T: Send + Sync + 'static,
    {
        let bytes = std::mem::size_of_val(data.as_slice());
        self.upload(bytes, move |buf| buf.replace_shared(data))
    }

    /// The upload op, plain or zero-copy: `store` fills the buffer in
    /// stream order.
    fn upload<T>(
        &mut self,
        bytes: usize,
        store: impl FnOnce(&DeviceBuffer<T>) + Send + 'static,
    ) -> XpuResult<DeviceBuffer<T>>
    where
        T: Send + Sync + 'static,
    {
        self.reserve_cmd(
            "upload",
            bytes,
            |device| device.fault_transfer(TransferDirection::HostToDevice, bytes),
            move |device, buf| {
                device.stats().record_h2d(bytes);
                store(buf);
            },
        )
    }

    /// The ops that produce a budgeted buffer (alloc, upload): the
    /// sticky check, the op's fault hook and the budget reservation run
    /// here, on the caller thread, and fail fast without poisoning the
    /// stream; `store` materializes the buffer in stream order. `fault`
    /// is a closure so that its ordinal ticks only once the sticky check
    /// has passed.
    fn reserve_cmd<T>(
        &mut self,
        op: &'static str,
        bytes: usize,
        fault: impl FnOnce(&Device) -> Option<XpuError>,
        store: impl FnOnce(&Device, &DeviceBuffer<T>) + Send + 'static,
    ) -> XpuResult<DeviceBuffer<T>>
    where
        T: Send + Sync + 'static,
    {
        let device = &self.stream.device;
        self.stream.check_sticky()?;
        if let Some(e) = fault(device) {
            return Err(e);
        }
        let buf: DeviceBuffer<T> = DeviceBuffer::reserved(device.try_reserve(bytes)?);
        let handle = buf.clone();
        self.push(Cmd::Data {
            op,
            job: Box::new(move |device| {
                store(device, &handle);
                Ok(())
            }),
        });
        Ok(buf)
    }

    /// Batched [`Stream::try_download`].
    pub fn try_download<T>(&mut self, buf: &DeviceBuffer<T>) -> XpuResult<Pending<Vec<T>>>
    where
        T: Clone + Send + Sync + 'static,
    {
        let stream = self.stream;
        stream.check_sticky()?;
        let (tx, rx) = mpsc::channel();
        let handle = buf.clone();
        let err = Arc::clone(&stream.err);
        self.push(Cmd::Data {
            op: "download",
            job: Box::new(move |device| {
                let data = handle.to_vec();
                let bytes = data.len() * std::mem::size_of::<T>();
                if let Some(e) = device.fault_transfer(TransferDirection::DeviceToHost, bytes) {
                    // Poison before `tx` drops so the waiting Pending
                    // observes the error, not a bare disconnect.
                    set_sticky(&err, e.clone());
                    return Err(e);
                }
                device.stats().record_d2h(bytes);
                let _ = tx.send(data);
                Ok(())
            }),
        });
        Ok(Pending::with_watch(
            rx,
            Arc::clone(&stream.err),
            stream.stall_watch(),
        ))
    }

    /// Batched [`Stream::try_launch_map`].
    pub fn try_launch_map<T, F>(
        &mut self,
        cfg: LaunchConfig,
        out: &DeviceBuffer<T>,
        kernel: F,
    ) -> XpuResult<()>
    where
        T: Send + Sync + 'static,
        F: Fn(ThreadCtx, &mut T) + Send + Sync + 'static,
    {
        let out = out.clone();
        self.launch_cmd("launch_map", move |device| {
            device.try_launch_threads_blocking(cfg, &out, kernel)
        })
    }

    /// Batched [`Stream::try_launch_tiles`].
    pub fn try_launch_tiles<T, F>(
        &mut self,
        cfg: LaunchConfig,
        out: &DeviceBuffer<T>,
        kernel: F,
    ) -> XpuResult<()>
    where
        T: Send + Sync + 'static,
        F: Fn(std::ops::Range<usize>, &mut [T]) + Send + Sync + 'static,
    {
        let out = out.clone();
        self.launch_cmd("launch_tiles", move |device| {
            device.try_launch_tiles_blocking(cfg, &out, kernel)
        })
    }

    /// Batched [`Stream::try_launch_scatter_tiles`].
    pub fn try_launch_scatter_tiles<T, F>(
        &mut self,
        cfg: LaunchConfig,
        out: &DeviceBuffer<T>,
        offsets: Vec<usize>,
        kernel: F,
    ) -> XpuResult<()>
    where
        T: Send + Sync + 'static,
        F: Fn(std::ops::Range<usize>, &mut [&mut [T]]) + Send + Sync + 'static,
    {
        let out = out.clone();
        self.launch_cmd("launch_scatter_tiles", move |device| {
            device.try_launch_scatter_tiles_blocking(cfg, &out, &offsets, kernel)
        })
    }

    /// The kernel launch ops: enqueueing fails only on a poisoned
    /// stream; `launch` runs on the worker, where a kernel panic
    /// poisons the stream.
    fn launch_cmd(
        &mut self,
        op: &'static str,
        launch: impl FnOnce(&Device) -> XpuResult<()> + Send + 'static,
    ) -> XpuResult<()> {
        self.stream.check_sticky()?;
        self.launches += 1;
        self.push(Cmd::Data {
            op,
            job: Box::new(launch),
        });
        Ok(())
    }

    /// Batched [`Stream::record_event`].
    pub fn record_event(&mut self, event: &Event) {
        let event = event.clone();
        let err = Arc::clone(&self.stream.err);
        self.push(Cmd::Control(Box::new(move |_| {
            event.set_with(err.lock().clone());
        })));
    }

    /// Batched [`Stream::wait_event`].
    pub fn wait_event(&mut self, event: &Event) {
        let event = event.clone();
        self.push(Cmd::Control(Box::new(move |_| event.wait())));
    }

    /// Submits everything accumulated so far. A single pending command
    /// is submitted plain (fusing it would only add wrapping); two or
    /// more are packed into one [`Cmd::Fused`].
    fn flush(&mut self) {
        if self.cmds.is_empty() {
            self.launches = 0;
            return;
        }
        let cmds = std::mem::take(&mut self.cmds);
        if cmds.len() == 1 {
            let cmd = cmds.into_iter().next().expect("len checked");
            self.stream.submit(cmd);
        } else {
            self.stream.device().stats().record_fused(self.launches);
            self.stream.submit(Cmd::Fused(cmds));
        }
        self.launches = 0;
    }

    /// Flushes and consumes the batch.
    pub fn commit(mut self) {
        self.flush();
    }
}

impl Drop for LaunchBatch<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
impl Stream {
    /// Enqueues an arbitrary device-side operation (the stream-ordering
    /// tests use it). Skipped if the stream is poisoned.
    pub(crate) fn enqueue<F>(&self, op: F)
    where
        F: FnOnce(&Device) + Send + 'static,
    {
        self.submit(Cmd::Data {
            op: "enqueue",
            job: Box::new(move |device| {
                op(device);
                Ok(())
            }),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn operations_execute_in_order() {
        let device = Device::new(2);
        let stream = device.stream();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            let log = Arc::clone(&log);
            stream.enqueue(move |_| log.lock().push(i));
        }
        stream.synchronize();
        assert_eq!(*log.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn upload_download_roundtrip() {
        let device = Device::new(2);
        let stream = device.stream();
        let buf = stream.upload(vec![5u8, 6, 7]);
        assert_eq!(stream.download(&buf).wait(), vec![5, 6, 7]);
        assert_eq!(device.stats().bytes_h2d(), 3);
        assert_eq!(device.stats().bytes_d2h(), 3);
    }

    #[test]
    fn shared_upload_aliases_host_memory() {
        let device = Device::new(2);
        let stream = device.stream();
        let host = Arc::new((0..64u32).collect::<Vec<_>>());
        let buf = stream.try_upload_shared(Arc::clone(&host)).unwrap();
        let out = stream.alloc::<u32>(64);
        let kernel_buf = buf.clone();
        stream.launch_map(LaunchConfig::for_threads(64), &out, move |ctx, slot| {
            *slot = kernel_buf.read()[ctx.global_id()] + 1;
        });
        let result = stream.download(&out).wait();
        assert_eq!(result[63], 64);
        // H2D bytes are still accounted (the transfer is simulated).
        assert_eq!(device.stats().bytes_h2d(), 64 * 4);
        // No staging copy: the host Arc is still aliased by the buffer
        // (one holder here, one inside the device buffer).
        assert_eq!(Arc::strong_count(&host), 2);
    }

    #[test]
    fn alloc_is_stream_ordered() {
        let device = Device::new(2);
        let stream = device.stream();
        let buf = stream.alloc::<u32>(16);
        // The handle exists immediately, but length materializes in order.
        stream.synchronize();
        assert_eq!(buf.len(), 16);
    }

    #[test]
    fn kernel_launch_computes() {
        let device = Device::new(3);
        let stream = device.stream();
        let input = stream.upload((0..257i64).collect::<Vec<_>>());
        let out = stream.alloc::<i64>(257);
        stream.launch_map(LaunchConfig::for_threads(257), &out, move |ctx, slot| {
            *slot = input.read()[ctx.global_id()] * 2;
        });
        let result = stream.download(&out).wait();
        assert_eq!(result[0], 0);
        assert_eq!(result[256], 512);
    }

    #[test]
    fn events_cross_streams() {
        let device = Device::new(2);
        let producer = device.stream();
        let consumer = device.stream();
        let flag = Arc::new(AtomicUsize::new(0));
        let event = Event::new();

        let f1 = Arc::clone(&flag);
        producer.enqueue(move |_| {
            std::thread::sleep(Duration::from_millis(20));
            f1.store(1, Ordering::SeqCst);
        });
        producer.record_event(&event);

        let f2 = Arc::clone(&flag);
        let observed = Arc::new(AtomicUsize::new(99));
        let obs = Arc::clone(&observed);
        consumer.wait_event(&event);
        consumer.enqueue(move |_| {
            obs.store(f2.load(Ordering::SeqCst), Ordering::SeqCst);
        });
        consumer.synchronize();
        assert_eq!(observed.load(Ordering::SeqCst), 1);
        assert!(event.is_set());
        assert!(event.wait_result().is_ok());
    }

    #[test]
    fn async_ops_overlap_host_work() {
        // The stream call returns before the work completes.
        let device = Device::new(2);
        let stream = device.stream();
        let started = std::time::Instant::now();
        stream.enqueue(|_| std::thread::sleep(Duration::from_millis(50)));
        let enqueue_latency = started.elapsed();
        assert!(enqueue_latency < Duration::from_millis(40));
        stream.synchronize();
        assert!(started.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn drop_completes_queued_work() {
        let device = Device::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        {
            let stream = device.stream();
            let d = Arc::clone(&done);
            stream.enqueue(move |_| {
                std::thread::sleep(Duration::from_millis(10));
                d.store(1, Ordering::SeqCst);
            });
        } // drop joins
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn kernel_panic_poisons_stream() {
        let device = Device::new(2);
        let stream = device.stream();
        let buf = stream.alloc::<u32>(100);
        stream
            .try_launch_map(LaunchConfig::for_threads(100), &buf, |ctx, _| {
                if ctx.global_id() == 42 {
                    panic!("kernel bug");
                }
            })
            .expect("enqueue succeeds on a healthy stream");
        let err = stream.try_synchronize().unwrap_err();
        assert!(matches!(err, XpuError::KernelPanic { global_id: 42, .. }));
        // Sticky: later enqueues fail fast with the same error.
        assert!(stream.try_alloc::<u32>(1).is_err());
        assert!(stream.error().is_some());
        // A fresh stream on the same device works fine.
        let fresh = device.stream();
        let b2 = fresh.try_upload(vec![1u8, 2]).unwrap();
        assert_eq!(
            fresh.try_download(&b2).unwrap().result().unwrap(),
            vec![1, 2]
        );
    }

    #[test]
    fn pending_on_poisoned_stream_reports_error() {
        let device = Device::new(2);
        let stream = device.stream();
        let buf = stream.upload(vec![0u32; 10]);
        // Hold the worker until both the failing launch and the
        // download are enqueued: without the hold, the launch can
        // execute (and poison the stream) before `try_download` runs,
        // which would fail the enqueue fast instead of exercising the
        // skipped-job path this test is about.
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        stream.submit(Cmd::Control(Box::new(move |_| {
            let _ = hold_rx.recv();
        })));
        stream
            .try_launch_map(LaunchConfig::for_threads(10), &buf, |_, _| {
                panic!("boom");
            })
            .unwrap();
        // The download is enqueued after the failing launch: it gets
        // skipped, and the Pending resolves to the sticky error.
        let pending = stream.try_download(&buf).unwrap();
        hold_tx.send(()).unwrap();
        assert!(matches!(
            pending.result(),
            Err(XpuError::KernelPanic { .. })
        ));
    }

    #[test]
    fn fused_batch_matches_unfused_results() {
        let run = |fused: bool| -> (Vec<i64>, u64) {
            let device = Device::new(2);
            let stream = device.stream();
            let mut batch = stream.batch(fused);
            let input = batch
                .try_upload_shared(Arc::new((0..300i64).collect::<Vec<_>>()))
                .unwrap();
            let out = batch.try_alloc::<i64>(300).unwrap();
            batch
                .try_launch_tiles(
                    LaunchConfig::for_threads(300),
                    &out,
                    move |range, tile: &mut [i64]| {
                        let inp = input.read();
                        for (i, slot) in range.zip(tile.iter_mut()) {
                            *slot = inp[i] * 3;
                        }
                    },
                )
                .unwrap();
            let pending = batch.try_download(&out).unwrap();
            batch.commit();
            let data = pending.result().unwrap();
            (data, device.stats().launches_fused())
        };
        let (fused, fused_count) = run(true);
        let (unfused, unfused_count) = run(false);
        assert_eq!(fused, unfused);
        assert_eq!(fused[299], 897);
        assert_eq!(fused_count, 1, "fused batch credits its launch");
        assert_eq!(unfused_count, 0, "passthrough batch fuses nothing");
    }

    #[test]
    fn fused_batch_preserves_fault_ordinals() {
        use crate::fault::{Fault, FaultPlan};
        // Stall stream op #2 (the third alloc) in both modes: the
        // fused delivery must tick per-op ordinals identically.
        let run = |fused: bool| -> XpuError {
            let device = Device::new(2);
            device.set_fault_plan(Some(FaultPlan::new().with(Fault::StreamStall { nth: 2 })));
            let stream = device.stream();
            let mut batch = stream.batch(fused);
            let _a = batch.try_alloc::<u32>(8).unwrap(); // op 0
            let _b = batch.try_alloc::<u32>(8).unwrap(); // op 1
            let out = batch.try_alloc::<u32>(8).unwrap(); // op 2: stalls
            batch
                .try_launch_tiles(LaunchConfig::for_threads(8), &out, |_, _: &mut [u32]| {})
                .unwrap();
            batch.commit();
            stream.try_synchronize().unwrap_err()
        };
        let fused_err = run(true);
        let unfused_err = run(false);
        assert_eq!(fused_err, unfused_err);
        assert!(matches!(fused_err, XpuError::StreamTimeout { op: "alloc" }));
    }

    #[test]
    fn tile_launch_on_stream_computes() {
        let device = Device::new(3);
        let stream = device.stream();
        let out = stream.alloc::<u64>(1000);
        stream
            .try_launch_tiles(LaunchConfig::for_threads(1000), &out, |range, tile| {
                for (i, slot) in range.zip(tile.iter_mut()) {
                    *slot = (i * i) as u64;
                }
            })
            .unwrap();
        let data = stream.download(&out).wait();
        assert_eq!(data[31], 961);
        assert_eq!(device.stats().threads_executed(), 1000);
        assert_eq!(device.stats().kernels_launched(), 1);
    }

    #[test]
    fn scatter_tile_launch_writes_ranges() {
        let device = Device::new(2);
        let stream = device.stream();
        let out = stream.alloc::<usize>(6);
        stream
            .try_launch_scatter_tiles(
                LaunchConfig::for_threads(3),
                &out,
                vec![0, 1, 4, 6],
                |range, slices| {
                    for (i, slice) in range.zip(slices.iter_mut()) {
                        for s in slice.iter_mut() {
                            *s = i + 1;
                        }
                    }
                },
            )
            .unwrap();
        assert_eq!(stream.download(&out).wait(), vec![1, 2, 2, 2, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "stream failed")]
    fn legacy_synchronize_panics_on_poisoned_stream() {
        let device = Device::new(2);
        let stream = device.stream();
        let buf = stream.alloc::<u8>(4);
        stream
            .try_launch_map(LaunchConfig::for_threads(4), &buf, |_, _| panic!("bug"))
            .unwrap();
        stream.synchronize();
    }

    #[test]
    fn watchdog_surfaces_genuine_hang_from_synchronize() {
        use crate::fault::{Fault, FaultPlan};
        let device = Device::new(2);
        device.set_fault_plan(Some(FaultPlan::new().with(Fault::StreamHang {
            nth: 0,
            millis: 300,
        })));
        device.set_watchdog(Some(Duration::from_millis(25)));
        let stream = device.stream();
        stream.enqueue(|_| {});
        let started = std::time::Instant::now();
        let err = stream.try_synchronize().unwrap_err();
        assert!(matches!(err, XpuError::StreamTimeout { op: "enqueue" }));
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "watchdog must fire before the hang resolves"
        );
        // The stream is poisoned like any other stream failure.
        assert!(stream.error().is_some());
        assert_eq!(device.faults_injected(), 1);
        // A fresh stream works: the hang was one-shot.
        let fresh = device.stream();
        fresh.enqueue(|_| {});
        assert!(fresh.try_synchronize().is_ok());
    }

    #[test]
    fn watchdog_surfaces_genuine_hang_from_pending() {
        use crate::fault::{Fault, FaultPlan};
        let device = Device::new(2);
        device.set_fault_plan(Some(FaultPlan::new().with(Fault::StreamHang {
            nth: 1,
            millis: 300,
        })));
        device.set_watchdog(Some(Duration::from_millis(25)));
        let stream = device.stream();
        let buf = stream.upload(vec![1u8, 2, 3]); // op 0
        let pending = stream.try_download(&buf).unwrap(); // op 1: hangs
        let err = pending.result().unwrap_err();
        assert!(matches!(err, XpuError::StreamTimeout { op: "download" }));
        assert!(stream.error().is_some());
    }

    #[test]
    fn hang_without_watchdog_is_just_slow() {
        use crate::fault::{Fault, FaultPlan};
        let device = Device::new(2);
        device.set_fault_plan(Some(
            FaultPlan::new().with(Fault::StreamHang { nth: 0, millis: 30 }),
        ));
        let stream = device.stream();
        let buf = stream.upload(vec![7u8]);
        assert!(stream.try_synchronize().is_ok());
        assert_eq!(stream.download(&buf).wait(), vec![7]);
    }

    #[test]
    fn watchdog_passes_healthy_ops() {
        let device = Device::new(2);
        device.set_watchdog(Some(Duration::from_millis(200)));
        let stream = device.stream();
        let buf = stream.upload((0..512u32).collect::<Vec<_>>());
        let out = stream.alloc::<u32>(512);
        let input = buf.clone();
        stream.launch_map(LaunchConfig::for_threads(512), &out, move |ctx, slot| {
            *slot = input.read()[ctx.global_id()] + 1;
        });
        assert!(stream.try_synchronize().is_ok());
        assert_eq!(stream.try_download(&out).unwrap().result().unwrap()[10], 11);
    }

    #[test]
    fn cancelled_device_births_poisoned_streams() {
        use odrc_infra::{CancelReason, CancelToken};
        let device = Device::new(2);
        let token = CancelToken::new();
        device.set_cancel(Some(token.clone()));
        // Streams created before cancellation keep working.
        let before = device.stream();
        token.cancel(CancelReason::Interrupt);
        let b = before.try_upload(vec![1u8, 2]).unwrap();
        assert_eq!(
            before.try_download(&b).unwrap().result().unwrap(),
            vec![1, 2]
        );
        // Streams created after cancellation fail fast.
        let after = device.stream();
        assert_eq!(after.try_alloc::<u8>(4).unwrap_err(), XpuError::Cancelled);
        assert_eq!(after.error(), Some(XpuError::Cancelled));
        // Detaching the token restores normal stream creation.
        device.set_cancel(None);
        let detached = device.stream();
        assert!(detached.try_alloc::<u8>(4).is_ok());
    }

    #[test]
    fn event_carries_stream_error() {
        let device = Device::new(2);
        let stream = device.stream();
        let buf = stream.alloc::<u8>(4);
        stream
            .try_launch_map(LaunchConfig::for_threads(4), &buf, |_, _| panic!("bug"))
            .unwrap();
        let event = Event::new();
        stream.record_event(&event);
        assert!(event.wait_result().is_err());
        assert!(event.is_set());
    }
}
