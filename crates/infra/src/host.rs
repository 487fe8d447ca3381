//! The one persistent worker pool and the host executor built on it.
//!
//! The paper's Fig. 4 attributes essentially all of the sequential
//! mode's runtime to host-side phases (partition ~15%, sweepline ~35%,
//! edge checks ~40-50%), and the row partition of §IV-B makes those
//! phases embarrassingly row-parallel; its parallel mode is kernel
//! launches (§IV-E, §V-C). Both kinds of work run on one [`Pool`]:
//! parked worker threads, started lazily at the first dispatch that
//! wants them and joined on drop, that execute *published jobs*. A
//! dispatcher publishes a job header — a slice cut into fixed chunks
//! plus a body — works chunks itself as participant 0, and idle workers
//! join and claim chunks with one `fetch_add` each. Before the
//! dispatcher's frame unwinds it retracts the job and waits for every
//! joined worker to leave. A busy pool therefore degrades a job to
//! inline execution on its dispatcher rather than to a wait, and a
//! nested dispatch (a host task that launches a device kernel on the
//! same pool) cannot deadlock. The pool's width is the budget: a fixed
//! set of workers bounds the threads every dispatcher together can use.
//! This module is the only place in the workspace with pool `unsafe`.
//!
//! [`HostExecutor`] turns an index range `0..n` of independent tasks
//! into one dispatch over a vector of result slots. A chunk is a block
//! of `max(1, n / (threads × 16))` indices: one claim and one busy-time
//! stamp cover the block, so a fan-out of a million sub-microsecond
//! tasks pays for sixteen claims per thread, not a million, while a
//! fan-out of a few heavy tasks still balances index by index. The
//! grain depends on `n` and the configured thread count, never on how
//! many workers joined, so chunk boundaries are reproducible.
//!
//! Determinism is the design constraint: `run` returns results in task
//! index order no matter which participant executed what, so callers
//! merge with byte-identical output regardless of thread count. An
//! executor with one thread runs every task inline on the caller with
//! no pool — the serial path is the parallel path with zero workers,
//! not a separate code shape. The simulated device (`odrc-xpu`)
//! publishes its kernel launches onto the executor's pool for the
//! duration of an engine run, so host phases and device kernels share
//! one set of threads instead of adding up.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::profile::Profiler;

/// The host's available parallelism, queried once per process. Every
/// default thread count in the workspace derives from this value.
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A task panicked inside a [`HostExecutor`] fan-out.
///
/// Task bodies run under `catch_unwind`, so a panicking task fails the
/// whole fan-out with this typed error instead of unwinding through the
/// pool job, and the executor stays usable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostPanic {
    /// Phase label the fan-out was running under.
    pub phase: String,
    /// Index of the first (lowest-indexed) panicking task.
    pub task: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for HostPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "host task {} panicked in phase '{}': {}",
            self.task, self.phase, self.message
        )
    }
}

impl std::error::Error for HostPanic {}

/// Stringifies a caught panic payload (`&str` and `String` payloads
/// cover `panic!` and runtime panics; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Locks `m`, ignoring poison: no pool critical section runs user code,
/// and the retract-then-wait protocol must complete even after a panic
/// elsewhere.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A persistent pool of parked worker threads (see the
/// [module docs](self)).
///
/// # Examples
///
/// ```
/// use odrc_infra::Pool;
///
/// let pool = Pool::new(3);
/// let mut squares: Vec<u64> = (0..100).collect();
/// pool.dispatch(&mut squares, 10, 3, &|_slot, range, chunk: &mut [u64]| {
///     for (i, v) in range.zip(chunk) {
///         *v = (i * i) as u64;
///     }
/// });
/// assert_eq!(squares[7], 49);
/// ```
pub struct Pool {
    width: usize,
    shared: Arc<PoolShared>,
    /// Worker join handles, spawned at the first dispatch that admits
    /// a worker.
    handles: OnceLock<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("width", &self.width)
            .field("started", &self.started())
            .finish()
    }
}

/// State shared between dispatching threads and pool workers.
struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here; signalled when a job is published or on
    /// shutdown.
    work_cv: Condvar,
    /// Dispatchers park here while draining a retracted job's last
    /// participants.
    done_cv: Condvar,
}

struct PoolState {
    /// Published jobs with unclaimed chunks. A job is retracted by its
    /// dispatcher (under this lock) before the dispatcher returns, so a
    /// handle in this list always points at a live header.
    jobs: Vec<JobHandle>,
    shutdown: bool,
}

/// Type-erased pointer to a dispatcher-owned [`JobHeader`]; only valid
/// while the job is published or the holder is a registered
/// participant.
#[derive(Clone, Copy, PartialEq, Eq)]
struct JobHandle(*const JobHeader);

// SAFETY: the pointee is shared across threads only under the
// publication/participation protocol documented on `PoolState::jobs`,
// and `JobHeader` itself is `Sync` (atomics + immutable fields).
unsafe impl Send for JobHandle {}

/// One job's chunk mailbox, living on the dispatcher's stack.
struct JobHeader {
    /// Next unclaimed chunk index; claimed with `fetch_add`.
    next: AtomicUsize,
    n_chunks: usize,
    /// Pool workers that have joined so far; a joiner's slot is its
    /// join order plus one. Mutated only under the pool state lock.
    joined: AtomicUsize,
    /// Pool workers currently executing chunks of this job. Mutated
    /// only while holding the pool state lock; the dispatcher waits for
    /// zero (under the same lock) before freeing the header.
    participants: AtomicUsize,
    /// Cap on pool workers that may join.
    max_workers: usize,
    /// Points at the dispatcher's [`ChunkSet`].
    data: *const (),
    /// Monomorphized chunk runner for `data`: `(data, slot, chunk)`.
    run: unsafe fn(*const (), usize, usize),
}

/// The typed side of a job: the work slice, its chunk size and the
/// body.
struct ChunkSet<'a, T, F> {
    base: *mut T,
    len: usize,
    chunk: usize,
    body: &'a F,
    /// First panic payload from any chunk; re-thrown by the dispatcher
    /// after the job completes.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Runs chunk `idx` of the [`ChunkSet`] behind `data` as participant
/// `slot`.
///
/// # Safety
///
/// `data` must point at a live `ChunkSet<'_, T, F>` and no two callers
/// may pass the same `idx`.
unsafe fn run_chunk<T, F>(data: *const (), slot: usize, idx: usize)
where
    T: Send,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    let set = &*(data as *const ChunkSet<'_, T, F>);
    let start = idx * set.chunk;
    let len = set.chunk.min(set.len - start);
    let chunk = std::slice::from_raw_parts_mut(set.base.add(start), len);
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
        (set.body)(slot, start..start + len, chunk)
    })) {
        let mut first = lock(&set.panic);
        if first.is_none() {
            *first = Some(payload);
        }
    }
}

/// Body of a persistent pool worker: park until a job is published,
/// register as a participant, drain chunks, deregister, repeat.
fn pool_worker(pool: Arc<PoolShared>) {
    let mut state = lock(&pool.state);
    loop {
        if state.shutdown {
            return;
        }
        // SAFETY: published handles point at live headers (see
        // `PoolState::jobs`) and we hold the state lock; registering as
        // a participant below keeps the header alive past the unlock —
        // the dispatcher retracts the job and then waits (under this
        // lock) for participants to reach zero before its frame unwinds.
        let found = state.jobs.iter().map(|j| unsafe { &*j.0 }).find(|h| {
            h.joined.load(Ordering::Relaxed) < h.max_workers
                && h.next.load(Ordering::Relaxed) < h.n_chunks
        });
        let Some(header) = found else {
            state = pool
                .work_cv
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        let slot = header.joined.fetch_add(1, Ordering::Relaxed) + 1;
        header.participants.fetch_add(1, Ordering::Relaxed);
        drop(state);
        loop {
            let idx = header.next.fetch_add(1, Ordering::Relaxed);
            if idx >= header.n_chunks {
                break;
            }
            // SAFETY: `fetch_add` hands out each index exactly once.
            unsafe { (header.run)(header.data, slot, idx) };
        }
        state = lock(&pool.state);
        header.participants.fetch_sub(1, Ordering::Relaxed);
        pool.done_cv.notify_all();
    }
}

impl Pool {
    /// A pool of `width` worker threads. No thread starts until the
    /// first dispatch that admits a worker; `width` 0 runs every job
    /// inline on its dispatcher.
    pub fn new(width: usize) -> Self {
        Pool {
            width,
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    jobs: Vec::new(),
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            handles: OnceLock::new(),
        }
    }

    /// Worker threads this pool runs once started.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether the worker threads have been spawned.
    pub fn started(&self) -> bool {
        self.handles.get().is_some()
    }

    fn start(&self) {
        self.handles.get_or_init(|| {
            (0..self.width)
                .map(|i| {
                    let shared = Arc::clone(&self.shared);
                    std::thread::Builder::new()
                        .name(format!("odrc-pool-{i}"))
                        .spawn(move || pool_worker(shared))
                        .expect("failed to spawn pool worker")
                })
                .collect()
        });
    }

    /// Runs `body(slot, range, chunk)` over `work` cut into chunks of
    /// `chunk` elements, with up to `max_workers` pool workers (capped
    /// by the pool's width) joining the calling thread. `range` is the
    /// chunk's index range in `work`; `slot` is the participant — 0 for
    /// the caller, `1..=joins` for workers in join order. Returns how
    /// many workers joined.
    ///
    /// Each chunk runs under its own `catch_unwind`; the first panic is
    /// re-raised on the caller once every participant has left the job,
    /// so a panicking body never strands a worker or the pool.
    pub fn dispatch<T, F>(
        &self,
        work: &mut [T],
        chunk: usize,
        max_workers: usize,
        body: &F,
    ) -> usize
    where
        T: Send,
        F: Fn(usize, Range<usize>, &mut [T]) + Sync,
    {
        let chunk = chunk.max(1);
        let n_chunks = work.len().div_ceil(chunk);
        let max_workers = max_workers.min(self.width).min(n_chunks.saturating_sub(1));
        let set = ChunkSet {
            base: work.as_mut_ptr(),
            len: work.len(),
            chunk,
            body,
            panic: Mutex::new(None),
        };
        let header = JobHeader {
            next: AtomicUsize::new(0),
            n_chunks,
            joined: AtomicUsize::new(0),
            participants: AtomicUsize::new(0),
            max_workers,
            data: &set as *const ChunkSet<'_, T, F> as *const (),
            run: run_chunk::<T, F>,
        };
        let handle = JobHandle(&header as *const JobHeader);
        let pool = &self.shared;
        if max_workers > 0 {
            self.start();
            lock(&pool.state).jobs.push(handle);
            pool.work_cv.notify_all();
        }
        // The dispatcher is participant zero: it drains chunks inline
        // rather than parking, so a job never blocks on a wake.
        loop {
            let idx = header.next.fetch_add(1, Ordering::Relaxed);
            if idx >= n_chunks {
                break;
            }
            // SAFETY: each index is claimed exactly once via fetch_add.
            unsafe { (header.run)(header.data, 0, idx) };
        }
        if max_workers > 0 {
            let mut state = lock(&pool.state);
            state.jobs.retain(|j| *j != handle);
            // Workers register/deregister under this lock, so once the
            // count reads zero with the job retracted, no worker can
            // touch the header or chunks again.
            while header.participants.load(Ordering::Relaxed) != 0 {
                state = pool
                    .done_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        if let Some(payload) = set
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
        header.joined.load(Ordering::Relaxed)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Some(handles) = self.handles.take() {
            lock(&self.shared.state).shutdown = true;
            self.shared.work_cv.notify_all();
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
}

/// Per-phase utilization sample accumulated by [`HostExecutor::run`].
struct UtilSample {
    phase: String,
    wall: Duration,
    busy: Vec<Duration>,
}

/// The shared host executor (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use odrc_infra::host::HostExecutor;
///
/// let host = HostExecutor::new(4);
/// let squares = host.run("demo", 100, |i| i * i);
/// assert_eq!(squares[7], 49); // results come back in index order
/// assert!(host.tasks() >= 100);
/// ```
pub struct HostExecutor {
    threads: usize,
    pool: Option<Arc<Pool>>,
    tasks: AtomicU64,
    joins: AtomicU64,
    util: Mutex<Vec<UtilSample>>,
}

impl std::fmt::Debug for HostExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostExecutor")
            .field("threads", &self.threads)
            .field("tasks", &self.tasks())
            .field("joins", &self.joins())
            .finish()
    }
}

impl HostExecutor {
    /// An executor sized to `threads` (clamped to at least 1) that owns
    /// a pool of `threads - 1` workers. One thread means strictly
    /// inline execution — no pool, no spawns.
    pub fn new(threads: usize) -> Self {
        let pool = Arc::new(Pool::new(threads.saturating_sub(1)));
        HostExecutor::with_shared_pool(threads, pool)
    }

    /// An executor whose fan-outs publish onto an *external* pool — the
    /// multi-tenant form: every engine run inside a server shares one
    /// process-wide pool, so concurrent runs' fan-outs (and, via
    /// [`HostExecutor::pool`], their devices' kernel launches) compete
    /// for the same workers and N simultaneous jobs never oversubscribe
    /// the machine; a job that finds the pool busy runs inline.
    ///
    /// `threads` caps how many threads (the caller included) *this*
    /// executor uses per fan-out. With `threads <= 1` the executor is
    /// serial and never touches the pool.
    pub fn with_shared_pool(threads: usize, pool: Arc<Pool>) -> Self {
        let threads = threads.max(1);
        HostExecutor {
            threads,
            pool: (threads > 1).then_some(pool),
            tasks: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            util: Mutex::new(Vec::new()),
        }
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool this executor publishes onto, for sharing it with other
    /// components (the device's kernel dispatch). `None` when serial.
    pub fn pool(&self) -> Option<Arc<Pool>> {
        self.pool.clone()
    }

    /// Tasks executed so far (across all `run` calls).
    pub fn tasks(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    /// Pool workers that joined this executor's fan-outs so far
    /// (scheduling telemetry: it varies with how busy the pool was).
    pub fn joins(&self) -> u64 {
        self.joins.load(Ordering::Relaxed)
    }

    /// Runs tasks `0..n` of `f`, returning the results in index order.
    ///
    /// Infallible wrapper over [`HostExecutor::try_run`]: a panicking
    /// task re-raises the panic on the caller — but only *after* the
    /// fan-out has wound down, so the executor stays usable.
    pub fn run<T, F>(&self, phase: &str, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.try_run(phase, n, f) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs tasks `0..n` of `f`, returning the results in index order,
    /// or a typed [`HostPanic`] if any task panicked.
    ///
    /// The fan-out is one [`Pool::dispatch`] over the result slots: the
    /// caller is participant 0 and up to `threads - 1` pool workers
    /// join. `phase` labels the per-participant busy time accumulated
    /// for [`HostExecutor::drain_utilization_into`].
    ///
    /// Each task body runs under `catch_unwind`; a panic ends only its
    /// own chunk, every other chunk still runs, and the error reports
    /// the lowest-indexed panicking task — chunks run to their own first
    /// panic, so that index does not depend on scheduling.
    pub fn try_run<T, F>(&self, phase: &str, n: usize, f: F) -> Result<Vec<T>, HostPanic>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.tasks.fetch_add(n as u64, Ordering::Relaxed);
        if n == 0 {
            return Ok(Vec::new());
        }
        let start = Instant::now();
        let busy_ns: Vec<AtomicU64> = (0..self.threads).map(|_| AtomicU64::new(0)).collect();
        let first_panic: Mutex<Option<(usize, String)>> = Mutex::new(None);
        let body = |slot: usize, range: Range<usize>, out: &mut [Option<T>]| {
            let t0 = Instant::now();
            for (i, out) in range.zip(out) {
                match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(v) => *out = Some(v),
                    Err(payload) => {
                        let mut first = lock(&first_panic);
                        if first.as_ref().is_none_or(|(j, _)| i < *j) {
                            *first = Some((i, panic_message(payload.as_ref())));
                        }
                        break;
                    }
                }
            }
            busy_ns[slot].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        };
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let joins = match &self.pool {
            // Indices per claim: sixteen chunks per thread balance
            // uneven tasks, and one claim plus one busy stamp per chunk
            // is what makes sub-microsecond tasks cheap.
            Some(pool) => {
                let grain = (n / (self.threads * 16)).max(1);
                pool.dispatch(&mut slots, grain, self.threads - 1, &body)
            }
            None => {
                body(0, 0..n, &mut slots);
                0
            }
        };
        self.joins.fetch_add(joins as u64, Ordering::Relaxed);
        let busy = busy_ns[..=joins]
            .iter()
            .map(|ns| Duration::from_nanos(ns.load(Ordering::Relaxed)))
            .collect();
        self.note_util(phase, start.elapsed(), busy);

        if let Some((task, message)) = first_panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(HostPanic {
                phase: phase.to_owned(),
                task,
                message,
            });
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every task index ran exactly once"))
            .collect())
    }

    fn note_util(&self, phase: &str, wall: Duration, busy: Vec<Duration>) {
        let mut util = lock(&self.util);
        if let Some(sample) = util.iter_mut().find(|s| s.phase == phase) {
            sample.wall += wall;
            for (i, b) in busy.into_iter().enumerate() {
                if i < sample.busy.len() {
                    sample.busy[i] += b;
                } else {
                    sample.busy.push(b);
                }
            }
        } else {
            util.push(UtilSample {
                phase: phase.to_owned(),
                wall,
                busy,
            });
        }
    }

    /// Moves the accumulated per-phase host-thread utilization into a
    /// profiler (busy vs idle per participant, keyed by phase).
    pub fn drain_utilization_into(&self, profiler: &mut Profiler) {
        let mut util = lock(&self.util);
        for sample in util.drain(..) {
            profiler.add_host_util(&sample.phase, sample.wall, &sample.busy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Runs `f` while every worker of `pool` is held inside another
    /// job, so `f`'s dispatches find the pool exhausted.
    fn with_pool_busy<R>(pool: &Pool, f: impl FnOnce() -> R) -> R {
        let held = pool.width() + 1;
        let entered = AtomicUsize::new(0);
        let release = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut work = vec![0u8; held];
                pool.dispatch(&mut work, 1, held, &|_, _, _: &mut [u8]| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
            });
            while entered.load(Ordering::SeqCst) < held {
                std::thread::yield_now();
            }
            let out = catch_unwind(AssertUnwindSafe(f));
            release.store(true, Ordering::SeqCst);
            out.unwrap_or_else(|p| resume_unwind(p))
        })
    }

    #[test]
    fn serial_executor_runs_inline() {
        let host = HostExecutor::new(1);
        assert!(host.pool().is_none());
        let out = host.run("t", 10, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        assert_eq!(host.tasks(), 10);
        assert_eq!(host.joins(), 0);
    }

    #[test]
    fn serial_executor_never_starts_a_pool_worker() {
        let pool = Arc::new(Pool::new(3));
        let host = HostExecutor::with_shared_pool(1, Arc::clone(&pool));
        assert_eq!(host.run("t", 1000, |i| i).len(), 1000);
        assert!(!pool.started());
        // A parallel executor on the same pool does start it.
        let wide = HostExecutor::with_shared_pool(4, Arc::clone(&pool));
        assert_eq!(wide.run("t", 1000, |i| i).len(), 1000);
        assert!(pool.started());
    }

    #[test]
    fn results_in_index_order_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let host = HostExecutor::new(threads);
            let out = host.run("t", 1000, |i| i * 3);
            assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
            // `tasks` counts indices, not chunks or workers.
            assert_eq!(host.tasks(), 1000, "threads={threads}");
        }
    }

    #[test]
    fn empty_run() {
        let host = HostExecutor::new(4);
        let out: Vec<usize> = host.run("t", 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_tasks_balance_via_stealing() {
        let host = HostExecutor::new(4);
        // A few heavy tasks at the front: one index per claim lets idle
        // participants take the light tail while the heavy ones run; on
        // any host the result must still come back in order.
        let out = host.run("t", 64, |i| {
            if i < 4 {
                let mut acc = 0u64;
                for k in 0..200_000u64 {
                    acc = acc.wrapping_add(k ^ i as u64);
                }
                acc & 1
            } else {
                (i as u64) & 1
            }
        });
        assert_eq!(out.len(), 64);
        for (i, v) in out.iter().enumerate().skip(4) {
            assert_eq!(*v, (i as u64) & 1);
        }
    }

    #[test]
    fn shared_gate_spans_executors() {
        // Two executors over one pool: workers serve either.
        let pool = Arc::new(Pool::new(3));
        let a = HostExecutor::with_shared_pool(4, Arc::clone(&pool));
        let b = HostExecutor::with_shared_pool(4, Arc::clone(&pool));
        assert!(Arc::ptr_eq(&a.pool().unwrap(), &b.pool().unwrap()));
        // With every worker held elsewhere both executors run inline
        // but still complete with index-ordered results.
        with_pool_busy(&pool, || {
            assert_eq!(a.run("t", 20, |i| i), (0..20).collect::<Vec<_>>());
            assert_eq!(b.run("t", 20, |i| i + 1), (1..=20).collect::<Vec<_>>());
        });
        assert_eq!(a.joins() + b.joins(), 0);
        // Released, the pool serves fan-outs again.
        assert_eq!(a.run("t", 200, |i| i).len(), 200);
    }

    #[test]
    fn shared_gate_serial_executor_ignores_gate() {
        let pool = Arc::new(Pool::new(2));
        let host = HostExecutor::with_shared_pool(1, Arc::clone(&pool));
        assert!(host.pool().is_none());
        assert_eq!(host.run("t", 5, |i| i), vec![0, 1, 2, 3, 4]);
        assert!(!pool.started());
    }

    #[test]
    fn utilization_accumulates_per_phase() {
        let host = HostExecutor::new(2);
        host.run("alpha", 50, |i| i);
        host.run("alpha", 50, |i| i);
        host.run("beta", 10, |i| i);
        let mut prof = Profiler::new();
        host.drain_utilization_into(&mut prof);
        let util = prof.host_util();
        assert_eq!(util.len(), 2);
        assert_eq!(util[0].phase, "alpha");
        assert!(!util[0].busy.is_empty());
        // Drained: a second drain adds nothing.
        let mut prof2 = Profiler::new();
        host.drain_utilization_into(&mut prof2);
        assert!(prof2.host_util().is_empty());
    }

    #[test]
    fn panicking_task_fails_with_typed_error_and_keeps_pool() {
        // (n, panicking task): one index per chunk, then 100-index
        // chunks with the panic in the middle of one.
        for (n, bad) in [(64, 17), (6400, 1617)] {
            let host = HostExecutor::new(4);
            let ran: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
            let err = host
                .try_run("t", n, |i| {
                    if i == bad {
                        panic!("task {i} exploded");
                    }
                    ran[i].store(true, Ordering::Relaxed);
                    i
                })
                .expect_err("one task panics");
            assert_eq!(err.task, bad);
            assert_eq!(err.phase, "t");
            assert!(err.message.contains("exploded"), "got: {}", err.message);
            // The chunk ran up to the panic and not one index past it;
            // every other chunk ran whole. Chunk boundaries depend on
            // `n` and the thread count alone.
            let grain = n / (4 * 16);
            let chunk_start = bad - bad % grain;
            let ran = |i: usize| ran[i].load(Ordering::Relaxed);
            assert!((0..bad).all(ran), "n={n}");
            assert!(!(bad..chunk_start + grain).any(ran), "n={n}");
            assert!((chunk_start + grain..n).all(ran), "n={n}");
            // The pool survives the panic.
            let out = host.run("t", 100, |i| i);
            assert_eq!(out, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panicking_task_fails_inline_path_too() {
        let host = HostExecutor::new(1);
        let err = host
            .try_run("serial", 8, |i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            })
            .expect_err("task 3 panics");
        assert_eq!(err.task, 3);
        assert!(err.message.contains("boom"));
    }

    #[test]
    fn run_repanics_after_releasing_gate() {
        let host = HostExecutor::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            host.run("t", 16, |i| {
                if i == 5 {
                    panic!("inner");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The fan-out wound down before the re-panic: the pool is idle
        // and the next run completes.
        assert_eq!(host.run("t", 16, |i| i), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn lowest_indexed_panic_wins() {
        // Several tasks panic; the reported task index must be the
        // minimum regardless of scheduling — with one index per chunk
        // (n = 64) and with task 4 inside a 100-index chunk.
        for n in [64, 6400] {
            for _ in 0..8 {
                let host = HostExecutor::new(4);
                let err = host
                    .try_run("t", n, |i| {
                        if i % 9 == 4 {
                            panic!("p{i}");
                        }
                        i
                    })
                    .expect_err("several tasks panic");
                assert_eq!(err.task, 4, "n={n}");
            }
        }
    }

    #[test]
    fn concurrent_dispatchers_claim_every_chunk_once() {
        const LEN: usize = 10_000;
        let pool = Pool::new(2);
        for chunk in [1, 3, LEN, LEN + 7] {
            let start = std::sync::Barrier::new(3);
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        let mut work: Vec<(usize, u32)> = (0..LEN).map(|i| (i, 0)).collect();
                        start.wait();
                        pool.dispatch(&mut work, chunk, 2, &|slot, range, out| {
                            assert!(slot <= 2);
                            assert!(range.len() <= chunk && range.len() == out.len());
                            for (i, (at, claims)) in range.zip(out) {
                                assert_eq!(i, *at, "chunk {chunk} handed a misplaced slice");
                                *claims += 1;
                            }
                        });
                        assert!(work.iter().all(|&(_, c)| c == 1), "chunk={chunk}");
                    });
                }
            });
        }
    }

    #[test]
    fn exhausted_pool_degrades_a_second_dispatcher_to_inline() {
        let pool = Pool::new(1);
        let me = std::thread::current().id();
        let joins = with_pool_busy(&pool, || {
            let mut work = vec![0u32; 64];
            let joins = pool.dispatch(&mut work, 1, 1, &|slot, range, out| {
                assert_eq!((slot, std::thread::current().id()), (0, me));
                out[0] = range.start as u32;
            });
            assert_eq!(work, (0..64).collect::<Vec<u32>>());
            joins
        });
        assert_eq!(joins, 0);
    }

    #[test]
    fn chunk_panic_is_reraised_after_the_job() {
        let pool = Pool::new(2);
        let ran: Vec<AtomicBool> = (0..30).map(|_| AtomicBool::new(false)).collect();
        let mut work = vec![0u8; 30];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(&mut work, 10, 2, &|_, range: Range<usize>, _: &mut [u8]| {
                if range.start == 10 {
                    panic!("chunk 1");
                }
                for i in range {
                    ran[i].store(true, Ordering::Relaxed);
                }
            })
        }));
        let payload = result.expect_err("chunk 1 panics");
        assert_eq!(panic_message(payload.as_ref()), "chunk 1");
        // Every other chunk still ran.
        assert!((0..10)
            .chain(20..30)
            .all(|i| ran[i].load(Ordering::Relaxed)));
    }
}
