//! The simulated SPMD device.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use odrc_infra::{panic_message, Pool};
use parking_lot::Mutex;

use crate::buffer::DeviceBuffer;
use crate::error::{TransferDirection, XpuError, XpuResult};
use crate::fault::{FaultPlan, FaultState};
use crate::stream::Stream;

/// Per-thread identity inside a kernel launch, mirroring CUDA's
/// `blockIdx` / `threadIdx` / `blockDim` / `gridDim` built-ins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCtx {
    /// Index of this thread's block within the grid.
    pub block_idx: usize,
    /// Index of this thread within its block.
    pub thread_idx: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Blocks in the grid.
    pub grid_dim: usize,
}

impl ThreadCtx {
    /// The flattened global thread id
    /// (`blockIdx.x * blockDim.x + threadIdx.x`).
    #[inline]
    pub fn global_id(&self) -> usize {
        self.block_idx * self.block_dim + self.thread_idx
    }

    /// Total threads in the launch.
    #[inline]
    pub fn total_threads(&self) -> usize {
        self.block_dim * self.grid_dim
    }
}

/// A kernel launch configuration: grid and block dimensions.
///
/// Launches are 1-D; the engine's edge kernels never need 2-D/3-D
/// shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Blocks in the grid.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
}

impl LaunchConfig {
    /// The default CUDA-style block size.
    pub const DEFAULT_BLOCK: usize = 256;

    /// A config with at least `n` threads using the default block size
    /// (the usual `(n + B - 1) / B` grid computation).
    pub fn for_threads(n: usize) -> Self {
        Self::for_threads_with_block(n, Self::DEFAULT_BLOCK)
    }

    /// A config with at least `n` threads and the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_dim` is zero.
    pub fn for_threads_with_block(n: usize, block_dim: usize) -> Self {
        assert!(block_dim > 0, "block dimension must be positive");
        LaunchConfig {
            grid_dim: n.div_ceil(block_dim).max(1),
            block_dim,
        }
    }

    /// Total threads launched.
    #[inline]
    pub fn total_threads(&self) -> usize {
        self.grid_dim * self.block_dim
    }
}

/// Cumulative device statistics, useful for asserting that work really
/// executed on the device (e.g. that copies were hidden behind compute).
#[derive(Debug, Default)]
pub struct DeviceStats {
    kernels_launched: AtomicU64,
    threads_executed: AtomicU64,
    bytes_h2d: AtomicU64,
    bytes_d2h: AtomicU64,
    launches_fused: AtomicU64,
    worker_wakeups: AtomicU64,
}

impl DeviceStats {
    /// Number of kernel launches so far.
    pub fn kernels_launched(&self) -> u64 {
        self.kernels_launched.load(Ordering::Relaxed)
    }

    /// Number of SPMD threads executed so far.
    pub fn threads_executed(&self) -> u64 {
        self.threads_executed.load(Ordering::Relaxed)
    }

    /// Bytes copied host → device.
    pub fn bytes_h2d(&self) -> u64 {
        self.bytes_h2d.load(Ordering::Relaxed)
    }

    /// Bytes copied device → host.
    pub fn bytes_d2h(&self) -> u64 {
        self.bytes_d2h.load(Ordering::Relaxed)
    }

    /// Number of kernel launches that rode a fused batch instead of a
    /// dedicated stream command.
    pub fn launches_fused(&self) -> u64 {
        self.launches_fused.load(Ordering::Relaxed)
    }

    /// Pool workers that joined this device's launches (scheduling
    /// telemetry: it varies with how busy the pool was).
    pub fn worker_wakeups(&self) -> u64 {
        self.worker_wakeups.load(Ordering::Relaxed)
    }

    pub(crate) fn record_fused(&self, launches: u64) {
        self.launches_fused.fetch_add(launches, Ordering::Relaxed);
    }

    pub(crate) fn record_launch(&self, threads: usize) {
        self.kernels_launched.fetch_add(1, Ordering::Relaxed);
        self.threads_executed
            .fetch_add(threads as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_h2d(&self, bytes: usize) {
        self.bytes_h2d.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_d2h(&self, bytes: usize) {
        self.bytes_d2h.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

pub(crate) struct DeviceInner {
    workers: usize,
    stats: DeviceStats,
    /// Device-memory budget in bytes; `None` means unlimited.
    budget: Option<usize>,
    /// Bytes currently reserved by live stream-ordered buffers.
    mem_in_use: AtomicUsize,
    /// Deterministic ordinals addressed by [`FaultPlan`] entries.
    alloc_ordinal: AtomicU64,
    transfer_ordinal: AtomicU64,
    launch_ordinal: AtomicU64,
    stream_op_ordinal: AtomicU64,
    shard_load_ordinal: AtomicU64,
    shard_done_ordinal: AtomicU64,
    /// Installed fault schedule; `None` (the default) injects nothing.
    faults: Mutex<Option<FaultState>>,
    /// Fast-path flag mirroring `faults.is_some()` so the common
    /// fault-free case pays one relaxed load, not a mutex.
    faults_enabled: AtomicU64,
    /// The host executor's pool, installed for an engine run so kernel
    /// launches and host fan-outs share one set of workers; `None` (the
    /// default) launches on the device's own pool.
    host_pool: Mutex<Option<Arc<Pool>>>,
    /// Stream watchdog limit in nanoseconds; 0 means no watchdog. Waits
    /// on streams of this device poll the in-flight operation and
    /// surface ops stalled past the limit as
    /// [`XpuError::StreamTimeout`](crate::XpuError::StreamTimeout).
    watchdog_nanos: AtomicU64,
    /// The run's cancel token. Streams created after cancellation are
    /// born poisoned with [`XpuError::Cancelled`](crate::XpuError::Cancelled),
    /// so retry/recovery loops fail fast during shutdown.
    cancel: Mutex<Option<odrc_infra::CancelToken>>,
    /// The device's own `workers - 1` pool, used when no host pool is
    /// installed; its threads start at its first parallel launch.
    pool: Pool,
}

/// A device-memory reservation held by a [`DeviceBuffer`]; releases its
/// bytes when the last buffer handle drops.
pub(crate) struct MemReservation {
    inner: Arc<DeviceInner>,
    bytes: usize,
}

impl fmt::Debug for MemReservation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemReservation({} bytes)", self.bytes)
    }
}

impl Drop for MemReservation {
    fn drop(&mut self) {
        self.inner
            .mem_in_use
            .fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// The simulated SPMD device.
///
/// A `Device` is cheap to clone (it is a handle). Kernels launched on it
/// execute their threads in parallel across `workers` OS threads, in
/// SPMD style: every thread runs the same closure with its own
/// [`ThreadCtx`]. Kernels launch only on a [`Stream`].
///
/// # Failure model
///
/// The stream's `try_*` methods return [`XpuResult`]s; kernel panics are
/// caught inside the launch, so one bad thread fails the *launch*,
/// never the worker pool. A configurable memory budget
/// ([`Device::with_budget`]) bounds stream-ordered allocations, and a
/// deterministic [`FaultPlan`] ([`Device::set_fault_plan`]) injects
/// seeded OOM / panic / stall / transfer faults for testing recovery
/// paths.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("workers", &self.inner.workers)
            .field("kernels_launched", &self.stats().kernels_launched())
            .finish()
    }
}

impl Default for Device {
    /// A device sized to the host's available parallelism.
    fn default() -> Self {
        Device::new(odrc_infra::available_threads())
    }
}

impl Device {
    /// Creates a device with the given number of worker threads and no
    /// memory budget.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        Device::build(workers, None)
    }

    /// Creates a device with a memory budget: stream-ordered
    /// allocations ([`Stream::try_alloc`], [`Stream::try_upload`]) that
    /// would push the total reserved bytes past `budget_bytes` fail
    /// with [`XpuError::Oom`]. Bytes are released when the last handle
    /// to a buffer drops.
    ///
    /// [`Stream::try_alloc`]: crate::Stream::try_alloc
    /// [`Stream::try_upload`]: crate::Stream::try_upload
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_budget(workers: usize, budget_bytes: usize) -> Self {
        Device::build(workers, Some(budget_bytes))
    }

    fn build(workers: usize, budget: Option<usize>) -> Self {
        assert!(workers > 0, "device needs at least one worker");
        Device {
            inner: Arc::new(DeviceInner {
                workers,
                stats: DeviceStats::default(),
                budget,
                mem_in_use: AtomicUsize::new(0),
                alloc_ordinal: AtomicU64::new(0),
                transfer_ordinal: AtomicU64::new(0),
                launch_ordinal: AtomicU64::new(0),
                stream_op_ordinal: AtomicU64::new(0),
                shard_load_ordinal: AtomicU64::new(0),
                shard_done_ordinal: AtomicU64::new(0),
                faults: Mutex::new(None),
                faults_enabled: AtomicU64::new(0),
                host_pool: Mutex::new(None),
                watchdog_nanos: AtomicU64::new(0),
                cancel: Mutex::new(None),
                pool: Pool::new(workers - 1),
            }),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.inner.stats
    }

    /// The configured memory budget in bytes, if any.
    pub fn budget(&self) -> Option<usize> {
        self.inner.budget
    }

    /// Bytes currently reserved by live stream-ordered buffers.
    pub fn mem_in_use(&self) -> usize {
        self.inner.mem_in_use.load(Ordering::Relaxed)
    }

    /// Installs (or with `None` removes) the host executor's pool: while
    /// one is installed, kernel launches publish onto it instead of the
    /// device's own pool, so host fan-outs and device kernels share one
    /// set of workers. The launching thread always works its own
    /// launch, so a pool busy with host work degrades a launch to
    /// inline execution rather than a wait.
    pub fn set_host_pool(&self, pool: Option<Arc<Pool>>) {
        *self.inner.host_pool.lock() = pool;
    }

    /// Arms (or with `None` disarms) the stream watchdog: waits on this
    /// device's streams ([`Stream::try_synchronize`], [`Pending::result`])
    /// poll the stream's in-flight operation and surface any op stalled
    /// past `limit` as [`XpuError::StreamTimeout`] — poisoning the
    /// stream exactly like an injected stall, so the engine's
    /// retry-on-a-fresh-stream / CPU-fallback path handles genuine
    /// hangs the same way.
    ///
    /// The watchdog *detects* stalls; it cannot abort the wedged
    /// operation (neither can CUDA). The stalled op keeps the worker
    /// until it finishes, and dropping the stream joins the worker, so
    /// a truly infinite hang still blocks teardown — the policy is
    /// detect-and-route-around, not kill.
    ///
    /// [`Stream::try_synchronize`]: crate::Stream::try_synchronize
    /// [`Pending::result`]: crate::Pending::result
    pub fn set_watchdog(&self, limit: Option<std::time::Duration>) {
        let nanos = limit.map_or(0, |d| {
            u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1)
        });
        self.inner.watchdog_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The armed watchdog limit, if any.
    pub fn watchdog(&self) -> Option<std::time::Duration> {
        match self.inner.watchdog_nanos.load(Ordering::Relaxed) {
            0 => None,
            n => Some(std::time::Duration::from_nanos(n)),
        }
    }

    /// Attaches (or with `None` detaches) the run's cancel token.
    /// Streams created while the token reports cancelled are born
    /// poisoned with [`XpuError::Cancelled`], so recovery loops that
    /// retry on fresh streams fail fast during shutdown instead of
    /// re-issuing work the run is about to discard. Streams that
    /// already exist are unaffected — in-flight work drains normally.
    pub fn set_cancel(&self, token: Option<odrc_infra::CancelToken>) {
        *self.inner.cancel.lock() = token;
    }

    /// `Some(XpuError::Cancelled)` once the attached token (if any)
    /// reports cancelled.
    pub(crate) fn cancel_error(&self) -> Option<XpuError> {
        self.inner
            .cancel
            .lock()
            .as_ref()
            .filter(|t| t.is_cancelled())
            .map(|_| XpuError::Cancelled)
    }

    /// Installs (or with `None` removes) a fault schedule at runtime.
    /// Replacing a plan resets nothing else: ordinals keep counting, so
    /// a plan installed mid-run addresses operations by their absolute
    /// device-wide index.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        let mut guard = self.inner.faults.lock();
        self.inner
            .faults_enabled
            .store(u64::from(plan.is_some()), Ordering::Relaxed);
        *guard = plan.map(FaultState::new);
    }

    /// Number of faults the installed plans have actually delivered.
    pub fn faults_injected(&self) -> u64 {
        self.inner
            .faults
            .lock()
            .as_ref()
            .map(|s| s.injected())
            .unwrap_or(0)
    }

    #[inline]
    fn faults_on(&self) -> bool {
        self.inner.faults_enabled.load(Ordering::Relaxed) != 0
    }

    /// Ticks the allocation ordinal and reports an injected OOM, if the
    /// plan schedules one here.
    pub(crate) fn fault_alloc(&self, requested: usize) -> Option<XpuError> {
        let n = self.inner.alloc_ordinal.fetch_add(1, Ordering::Relaxed);
        if !self.faults_on() {
            return None;
        }
        let fired = self
            .inner
            .faults
            .lock()
            .as_mut()
            .is_some_and(|s| s.take_alloc(n));
        fired.then(|| XpuError::Oom {
            requested,
            in_use: self.mem_in_use(),
            budget: self.inner.budget.unwrap_or(usize::MAX),
        })
    }

    /// Ticks the shard-load ordinal and reports whether the plan
    /// schedules an injected allocation failure for this load.
    ///
    /// Shard loads are host-side scene builds, not device allocations,
    /// but they are addressed by the same deterministic-schedule
    /// machinery ([`Fault::AllocFail`](crate::Fault::AllocFail)) so the
    /// out-of-core evict/degrade path is exercised by the seeded fault
    /// sweeps. Like every fault consult this is one relaxed load when
    /// no plan is installed.
    pub fn fault_shard_load(&self) -> bool {
        let n = self
            .inner
            .shard_load_ordinal
            .fetch_add(1, Ordering::Relaxed);
        if !self.faults_on() {
            return false;
        }
        self.inner
            .faults
            .lock()
            .as_mut()
            .is_some_and(|s| s.take_shard_load(n))
    }

    /// Ticks the shard-completion ordinal and reports whether the plan
    /// schedules a [`Fault::ShardKill`](crate::Fault::ShardKill) here.
    /// The out-of-core checker calls this after journaling each
    /// `(rule, shard)` unit and aborts the process on `true`.
    pub fn fault_shard_done(&self) -> bool {
        let n = self
            .inner
            .shard_done_ordinal
            .fetch_add(1, Ordering::Relaxed);
        if !self.faults_on() {
            return false;
        }
        self.inner
            .faults
            .lock()
            .as_mut()
            .is_some_and(|s| s.take_shard_done(n))
    }

    /// Ticks the transfer ordinal and reports an injected transfer
    /// failure, if the plan schedules one here.
    pub(crate) fn fault_transfer(
        &self,
        direction: TransferDirection,
        bytes: usize,
    ) -> Option<XpuError> {
        let n = self.inner.transfer_ordinal.fetch_add(1, Ordering::Relaxed);
        if !self.faults_on() {
            return None;
        }
        let fired = self
            .inner
            .faults
            .lock()
            .as_mut()
            .is_some_and(|s| s.take_transfer(n));
        fired.then_some(XpuError::TransferError { direction, bytes })
    }

    /// Ticks the stream-op ordinal and reports an injected stall, if
    /// the plan schedules one here. A scheduled *hang*
    /// ([`Fault::StreamHang`]) sleeps for its duration right here — on
    /// the stream worker, with the op already marked in flight — so an
    /// armed watchdog observes a genuine stall; the op then proceeds
    /// normally.
    pub(crate) fn fault_stream_op(&self, op: &'static str) -> Option<XpuError> {
        let n = self.inner.stream_op_ordinal.fetch_add(1, Ordering::Relaxed);
        if !self.faults_on() {
            return None;
        }
        let (hang_millis, stalled) = match self.inner.faults.lock().as_mut() {
            Some(s) => (s.take_stream_hang(n), s.take_stream_op(n)),
            None => (None, false),
        };
        if let Some(millis) = hang_millis {
            std::thread::sleep(std::time::Duration::from_millis(millis));
        }
        stalled.then_some(XpuError::StreamTimeout { op })
    }

    /// Ticks the launch ordinal and returns `(ordinal, thread to panic
    /// in)` if the plan schedules a kernel fault for this launch.
    fn next_launch(&self, useful_threads: usize) -> (u64, Option<usize>) {
        let k = self.inner.launch_ordinal.fetch_add(1, Ordering::Relaxed);
        if !self.faults_on() {
            return (k, None);
        }
        let thread = self
            .inner
            .faults
            .lock()
            .as_mut()
            .and_then(|s| s.take_kernel(k, useful_threads));
        (k, thread)
    }

    /// Reserves `bytes` against the budget, failing with
    /// [`XpuError::Oom`] when the budget would be exceeded.
    pub(crate) fn try_reserve(&self, bytes: usize) -> XpuResult<Option<Arc<MemReservation>>> {
        let Some(budget) = self.inner.budget else {
            return Ok(None); // unlimited: skip the accounting entirely
        };
        // Optimistic reservation: add, then check, then roll back on
        // failure — correct under concurrent reservers.
        let prev = self.inner.mem_in_use.fetch_add(bytes, Ordering::Relaxed);
        if prev.saturating_add(bytes) > budget {
            self.inner.mem_in_use.fetch_sub(bytes, Ordering::Relaxed);
            return Err(XpuError::Oom {
                requested: bytes,
                in_use: prev,
                budget,
            });
        }
        Ok(Some(Arc::new(MemReservation {
            inner: Arc::clone(&self.inner),
            bytes,
        })))
    }

    /// Creates a new asynchronous command [`Stream`] on this device
    /// ("When OpenDRC starts, it creates CUDA stream objects that are
    /// responsible for asynchronous operations", §V-C).
    pub fn stream(&self) -> Stream {
        Stream::new(self.clone())
    }

    /// Runs a map launch: thread `i` receives exclusive access to
    /// `out[i]`. Surplus threads in the config (block-size round-up)
    /// are masked out, like the `if (tid < n) return;` guard of CUDA
    /// kernels. Each thread runs behind its own panic boundary
    /// ([`Launch::thread`]), so a panic names its exact global id.
    pub(crate) fn try_launch_threads_blocking<T, F>(
        &self,
        cfg: LaunchConfig,
        out: &DeviceBuffer<T>,
        kernel: F,
    ) -> XpuResult<()>
    where
        T: Send + Sync,
        F: Fn(ThreadCtx, &mut T) + Send + Sync,
    {
        self.launch(cfg, &mut out.write(), |launch, range, chunk| {
            for (global_id, slot) in range.zip(chunk.iter_mut()) {
                let ctx = ThreadCtx {
                    block_idx: global_id / cfg.block_dim,
                    thread_idx: global_id % cfg.block_dim,
                    block_dim: cfg.block_dim,
                    grid_dim: cfg.grid_dim,
                };
                launch.thread(global_id, || kernel(ctx, slot));
            }
        })
    }

    /// Runs a tile launch: the kernel is handed whole contiguous ranges
    /// of `out` (one call per dispatch chunk) instead of one call per
    /// element, so the per-element panic boundary and context
    /// construction are paid once per tile ([`Launch::tile`]).
    pub(crate) fn try_launch_tiles_blocking<T, F>(
        &self,
        cfg: LaunchConfig,
        out: &DeviceBuffer<T>,
        kernel: F,
    ) -> XpuResult<()>
    where
        T: Send + Sync,
        F: Fn(Range<usize>, &mut [T]) + Send + Sync,
    {
        self.launch(cfg, &mut out.write(), |launch, range, chunk| {
            launch.tile(range, chunk, &kernel)
        })
    }

    /// Runs a scatter tile launch: thread `i` owns the slice
    /// `out[offsets[i]..offsets[i + 1]]`, and the kernel receives a tile
    /// of those slices per call. This is the emit step of the parallel
    /// sweepline (§IV-E): a prefix sum of per-thread counts gives each
    /// thread its private output range.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` decrease or end past `out` (programmer
    /// errors, not device faults).
    pub(crate) fn try_launch_scatter_tiles_blocking<T, F>(
        &self,
        cfg: LaunchConfig,
        out: &DeviceBuffer<T>,
        offsets: &[usize],
        kernel: F,
    ) -> XpuResult<()>
    where
        T: Send + Sync,
        F: Fn(Range<usize>, &mut [&mut [T]]) + Send + Sync,
    {
        let mut guard = out.write();
        let mut rest: &mut [T] = &mut guard;
        assert!(
            offsets.last().copied().unwrap_or(0) <= rest.len(),
            "offsets end past the output buffer"
        );
        // Slice the output into per-thread disjoint ranges up front; the
        // split is sequential but O(n_threads) and cheap.
        let mut slices: Vec<&mut [T]> = Vec::with_capacity(offsets.len().saturating_sub(1));
        let mut consumed = 0usize;
        for w in offsets.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            assert!(lo <= hi, "offsets must be non-decreasing");
            let (_, tail) = rest.split_at_mut(lo - consumed);
            let (mine, tail) = tail.split_at_mut(hi - lo);
            slices.push(mine);
            rest = tail;
            consumed = hi;
        }
        self.launch(cfg, &mut slices, |launch, range, chunk| {
            launch.tile(range, chunk, &kernel)
        })
    }

    /// The one launch protocol behind every kernel shape: checks that
    /// the config covers `work`, ticks the launch ordinal (where the
    /// fault plan may schedule a panic), runs `body` over contiguous
    /// chunks of `work`, and turns the first caught panic into
    /// [`XpuError::KernelPanic`]. The pool survives a panic; the device
    /// stays usable.
    ///
    /// # Panics
    ///
    /// Panics if the config provides fewer threads than `work.len()`
    /// (a programmer error, not a device fault).
    fn launch<E, F>(&self, cfg: LaunchConfig, work: &mut [E], body: F) -> XpuResult<()>
    where
        E: Send,
        F: Fn(&Launch, Range<usize>, &mut [E]) + Sync,
    {
        let n = work.len();
        assert!(
            cfg.total_threads() >= n,
            "launch config provides {} threads for {n} work items",
            cfg.total_threads()
        );
        let (id, injected) = self.next_launch(n);
        self.inner.stats.record_launch(n);
        let launch = Launch {
            id,
            injected,
            panicked: Mutex::new(None),
        };
        self.dispatch_slices(work, |range, chunk| body(&launch, range, chunk));
        match launch.panicked.into_inner() {
            None => Ok(()),
            Some((global_id, message)) => Err(XpuError::KernelPanic {
                kernel: id,
                global_id,
                message,
            }),
        }
    }

    /// Runs `body(range, chunk)` for contiguous chunks of `work` on the
    /// installed host pool, else on the device's own pool.
    ///
    /// The launch publishes `min(workers, n)` chunks — fewer when the
    /// pool is narrower — so chunk boundaries derive from the device
    /// and pool widths, never from how many workers actually joined:
    /// a launch whose pool is busy runs the same chunks inline on the
    /// launching thread.
    pub(crate) fn dispatch_slices<T, F>(&self, work: &mut [T], body: F)
    where
        T: Send,
        F: Fn(Range<usize>, &mut [T]) + Sync,
    {
        let n = work.len();
        if n == 0 {
            return;
        }
        let host_pool = self.inner.host_pool.lock().clone();
        let pool = host_pool.as_deref().unwrap_or(&self.inner.pool);
        let joiners = (self.inner.workers.min(n) - 1).min(pool.width());
        let joins = pool.dispatch(
            work,
            n.div_ceil(joiners + 1),
            joiners,
            &|_, range, chunk| body(range, chunk),
        );
        self.inner
            .stats
            .worker_wakeups
            .fetch_add(joins as u64, Ordering::Relaxed);
    }
}

/// One launch's panic boundaries: a panic (genuine or injected) is
/// recorded here instead of propagating into the worker pool, and only
/// the first is kept.
struct Launch {
    /// The launch ordinal.
    id: u64,
    /// The thread an injected [`Fault::KernelPanic`] fires in.
    ///
    /// [`Fault::KernelPanic`]: crate::Fault::KernelPanic
    injected: Option<usize>,
    /// The first panic's global thread id and message.
    panicked: Mutex<Option<(usize, String)>>,
}

impl Launch {
    /// Runs SPMD thread `global_id` behind its own panic boundary; the
    /// injected fault fires instead of the body when it names this
    /// thread.
    fn thread(&self, global_id: usize, body: impl FnOnce()) {
        self.guard(global_id, || {
            if self.injected == Some(global_id) {
                panic!("injected fault: kernel #{} thread {global_id}", self.id);
            }
            body();
        });
    }

    /// Runs one tile of SPMD threads behind a single panic boundary. An
    /// injected fault splits the tile around the faulted thread, so its
    /// neighbours still execute and the error names exactly that
    /// thread. A genuine panic names the (sub-)tile's first global id:
    /// errors only feed recovery, which re-runs the whole unit.
    fn tile<E>(
        &self,
        range: Range<usize>,
        chunk: &mut [E],
        kernel: &impl Fn(Range<usize>, &mut [E]),
    ) {
        let run = |range: Range<usize>, chunk: &mut [E]| {
            if !range.is_empty() {
                self.guard(range.start, || kernel(range, chunk));
            }
        };
        match self.injected.filter(|p| range.contains(p)) {
            Some(p) => {
                let (lo, rest) = chunk.split_at_mut(p - range.start);
                run(range.start..p, lo);
                self.thread(p, || {});
                run(p + 1..range.end, &mut rest[1..]);
            }
            None => run(range, chunk),
        }
    }

    /// Runs `f` behind a panic boundary, recording a panic against
    /// `global_id` unless an earlier one was already recorded.
    fn guard(&self, global_id: usize, f: impl FnOnce()) {
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            let mut slot = self.panicked.lock();
            if slot.is_none() {
                *slot = Some((global_id, panic_message(payload.as_ref())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;

    #[test]
    fn launch_config_round_up() {
        let cfg = LaunchConfig::for_threads(1000);
        assert_eq!(cfg.block_dim, 256);
        assert_eq!(cfg.grid_dim, 4);
        assert_eq!(cfg.total_threads(), 1024);
        let one = LaunchConfig::for_threads(0);
        assert_eq!(one.grid_dim, 1);
    }

    #[test]
    #[should_panic(expected = "block dimension")]
    fn zero_block_panics() {
        let _ = LaunchConfig::for_threads_with_block(10, 0);
    }

    #[test]
    fn thread_ctx_global_id() {
        let ctx = ThreadCtx {
            block_idx: 3,
            thread_idx: 17,
            block_dim: 256,
            grid_dim: 8,
        };
        assert_eq!(ctx.global_id(), 3 * 256 + 17);
        assert_eq!(ctx.total_threads(), 2048);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = Device::new(0);
    }

    #[test]
    fn launch_map_validates_thread_count() {
        let d = Device::new(2);
        let buf = crate::buffer::DeviceBuffer::from_vec(vec![0u8; 10]);
        let cfg = LaunchConfig {
            grid_dim: 1,
            block_dim: 4, // 4 threads for 10 outputs
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = d.try_launch_threads_blocking(cfg, &buf, |_, _| {});
        }));
        assert!(result.is_err(), "undersized launch must panic");
    }

    #[test]
    fn launch_scatter_validates_offsets() {
        let d = Device::new(2);
        let buf = crate::buffer::DeviceBuffer::from_vec(vec![0u8; 4]);
        let launch = |offsets: &[usize]| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let cfg = LaunchConfig::for_threads(2);
                let _ = d.try_launch_scatter_tiles_blocking(cfg, &buf, offsets, |_, _| {});
            }))
        };
        assert!(launch(&[0, 3, 1]).is_err(), "non-monotonic offsets");
        assert!(launch(&[0, 2, 9]).is_err(), "offsets past the buffer end");
    }

    #[test]
    fn launch_scatter_empty_ranges_ok() {
        let d = Device::new(2);
        let buf = crate::buffer::DeviceBuffer::from_vec(vec![0u32; 3]);
        // Threads 0 and 2 own nothing; thread 1 owns everything.
        d.try_launch_scatter_tiles_blocking(
            LaunchConfig::for_threads(3),
            &buf,
            &[0, 0, 3, 3],
            |range, slices| {
                for (i, slice) in range.zip(slices.iter_mut()) {
                    slice.fill(i as u32 + 1);
                }
            },
        )
        .unwrap();
        assert_eq!(buf.to_vec(), vec![2, 2, 2]);
    }

    #[test]
    fn stats_accumulate() {
        let d = Device::new(2);
        let s = d.stream();
        let buf = s.alloc::<u64>(100);
        s.launch_map(LaunchConfig::for_threads(100), &buf, |ctx, out| {
            *out = ctx.global_id() as u64;
        });
        s.synchronize();
        assert_eq!(d.stats().kernels_launched(), 1);
        assert_eq!(d.stats().threads_executed(), 100);
    }

    #[test]
    fn genuine_kernel_panic_is_caught() {
        let d = Device::new(3);
        let buf = DeviceBuffer::from_vec(vec![0u32; 600]);
        let err = d
            .try_launch_threads_blocking(LaunchConfig::for_threads(600), &buf, |ctx, out| {
                if ctx.global_id() == 300 {
                    panic!("boom at {}", ctx.global_id());
                }
                *out = 1;
            })
            .unwrap_err();
        match err {
            XpuError::KernelPanic {
                global_id, message, ..
            } => {
                assert_eq!(global_id, 300);
                assert!(message.contains("boom"));
            }
            other => panic!("expected KernelPanic, got {other:?}"),
        }
        // The pool survived: the device still launches fine.
        d.try_launch_threads_blocking(LaunchConfig::for_threads(600), &buf, |_, out| *out = 2)
            .expect("the pool survives a kernel panic");
        assert!(buf.to_vec().iter().all(|&v| v == 2));
    }

    #[test]
    fn injected_kernel_panic_names_kernel_and_thread() {
        let d = Device::new(2);
        d.set_fault_plan(Some(FaultPlan::new().with(Fault::KernelPanic {
            kernel: 0,
            thread: 5,
        })));
        let buf = DeviceBuffer::from_vec(vec![0u8; 16]);
        let err = d
            .try_launch_threads_blocking(LaunchConfig::for_threads(16), &buf, |_, _| {})
            .unwrap_err();
        assert_eq!(
            err,
            XpuError::KernelPanic {
                kernel: 0,
                global_id: 5,
                message: "injected fault: kernel #0 thread 5".to_owned(),
            }
        );
        assert_eq!(d.faults_injected(), 1);
        // Consumed: the next launch succeeds.
        assert!(d
            .try_launch_threads_blocking(LaunchConfig::for_threads(16), &buf, |_, _| {})
            .is_ok());
    }

    /// Map, tiles and scatter tiles share one launch protocol: an
    /// injected fault names the same launch, thread and message in each
    /// shape, and every other thread still writes its element (the tile
    /// shapes split their tile around the faulted thread).
    #[test]
    fn injected_fault_is_one_protocol_across_shapes() {
        let check = |shape: &str, launch: &dyn Fn(&Device, &DeviceBuffer<u32>) -> XpuResult<()>| {
            let d = Device::new(2);
            d.set_fault_plan(Some(FaultPlan::new().with(Fault::KernelPanic {
                kernel: 0,
                thread: 5,
            })));
            let buf = DeviceBuffer::from_vec(vec![0u32; 16]);
            let expected = XpuError::KernelPanic {
                kernel: 0,
                global_id: 5,
                message: "injected fault: kernel #0 thread 5".to_owned(),
            };
            assert_eq!(launch(&d, &buf), Err(expected), "{shape}");
            let written: Vec<u32> = (0..16).map(|i| u32::from(i != 5)).collect();
            assert_eq!(buf.to_vec(), written, "{shape}");
        };
        let cfg = LaunchConfig::for_threads(16);
        check("map", &|d, buf| {
            d.try_launch_threads_blocking(cfg, buf, |_, v| *v = 1)
        });
        check("tiles", &|d, buf| {
            d.try_launch_tiles_blocking(cfg, buf, |_, tile| tile.fill(1))
        });
        let offsets: Vec<usize> = (0..=16).collect();
        check("scatter tiles", &|d, buf| {
            d.try_launch_scatter_tiles_blocking(cfg, buf, &offsets, |_, slices| {
                slices.iter_mut().for_each(|s| s.fill(1));
            })
        });
    }

    /// Chunk boundaries derive from the device and pool widths, never
    /// from how many workers joined: a tile panic names the same first
    /// id whether the pool's only worker is idle or held in another job.
    #[test]
    fn tile_panic_id_ignores_pool_availability() {
        use std::sync::atomic::AtomicBool;
        let pool = Arc::new(Pool::new(1));
        let d = Device::new(2);
        d.set_host_pool(Some(Arc::clone(&pool)));
        let buf = DeviceBuffer::from_vec(vec![0u32; 1000]);
        let launch = || {
            let result = d.try_launch_tiles_blocking(
                LaunchConfig::for_threads(1000),
                &buf,
                |range, _: &mut [u32]| {
                    if range.contains(&700) {
                        panic!("tile {range:?}");
                    }
                },
            );
            match result {
                Err(XpuError::KernelPanic { global_id, .. }) => global_id,
                other => panic!("expected KernelPanic, got {other:?}"),
            }
        };
        let idle = launch();
        let (entered, release) = (AtomicUsize::new(0), AtomicBool::new(false));
        let busy = std::thread::scope(|s| {
            s.spawn(|| {
                let mut work = [0u8; 2];
                pool.dispatch(&mut work, 1, 1, &|_, _, _: &mut [u8]| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
            });
            while entered.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            let id = std::panic::catch_unwind(std::panic::AssertUnwindSafe(launch));
            release.store(true, Ordering::SeqCst);
            id.unwrap_or_else(|p| std::panic::resume_unwind(p))
        });
        assert_eq!(idle, 500);
        assert_eq!(busy, idle);
    }

    /// Host tasks that each launch a kernel on a device sharing the
    /// executor's pool: nested dispatches on one pool never deadlock,
    /// and every launch computes its exact sum.
    #[test]
    fn host_tasks_launch_kernels_on_the_shared_pool() {
        for threads in [2, 4, 8] {
            let host = odrc_infra::HostExecutor::new(threads);
            let d = Device::new(threads);
            d.set_host_pool(host.pool());
            let sums = host.run("launch", 32, |task| {
                let buf = DeviceBuffer::from_vec(vec![0u64; 1000]);
                d.try_launch_threads_blocking(LaunchConfig::for_threads(1000), &buf, |ctx, out| {
                    *out = (ctx.global_id() * task) as u64;
                })
                .expect("no fault plan installed");
                buf.to_vec().iter().sum::<u64>()
            });
            let expected: Vec<u64> = (0..32).map(|t| (t * 999 * 1000 / 2) as u64).collect();
            assert_eq!(sums, expected, "threads={threads}");
        }
    }

    #[test]
    fn budget_reserve_and_release() {
        let d = Device::with_budget(2, 1000);
        let r1 = d.try_reserve(600).unwrap();
        assert_eq!(d.mem_in_use(), 600);
        let err = d.try_reserve(600).unwrap_err();
        assert!(matches!(err, XpuError::Oom { requested: 600, .. }));
        drop(r1);
        assert_eq!(d.mem_in_use(), 0);
        assert!(d.try_reserve(600).is_ok());
    }

    #[test]
    fn unlimited_device_skips_accounting() {
        let d = Device::new(1);
        assert!(d.try_reserve(usize::MAX).unwrap().is_none());
        assert_eq!(d.mem_in_use(), 0);
    }
}
