//! The shared work-stealing host executor.
//!
//! The paper's Fig. 4 attributes essentially all of the sequential
//! mode's runtime to host-side phases (partition ~15%, sweepline ~35%,
//! edge checks ~40-50%), and the row partition of §IV-B makes those
//! phases embarrassingly row-parallel. [`HostExecutor`] turns an index
//! range `0..n` of independent tasks into per-worker work-stealing
//! deques: each worker claims a *block* of indices from the front of
//! its own deque and, when empty, steals the rear half of a victim's
//! deque — the classic Chase-Lev split between cheap owner pops and
//! contended steals, implemented here on a packed `AtomicU64` range (no
//! external deque crate; the workspace dependency list is fixed).
//!
//! The block is the unit of scheduling: one CAS and one busy-time stamp
//! cover `max(1, n / (workers × 16))` indices, so a fan-out of a
//! million sub-microsecond tasks pays for sixteen claims per worker,
//! not a million, while a fan-out of a few heavy tasks still balances
//! index by index. The grain depends on `n` and the number of workers
//! the gate granted, nothing else: the executor uses the threads it was
//! given and guesses nothing about what a task costs.
//!
//! Determinism is the design constraint: `run` returns results in task
//! index order no matter which worker executed what, so callers merge
//! with byte-identical output regardless of thread count or steal
//! interleaving. An executor with one thread (or an exhausted
//! [`ThreadGate`]) runs every task inline on the caller — the serial
//! path is the parallel path with zero workers, not a separate code
//! shape.
//!
//! # Sizing handshake
//!
//! The executor owns a [`ThreadGate`] holding `threads - 1` extra-thread
//! permits. Its own fan-outs draw worker threads from the gate, and the
//! simulated device can be handed the same gate so kernel dispatches
//! draw from the *same* budget — host phases and device kernels share
//! one pool-sized allowance instead of adding up, and nested fan-outs
//! (a task that launches a device sort) degrade to inline execution
//! instead of oversubscribing the machine.

use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::profile::Profiler;

/// A task panicked inside a [`HostExecutor`] fan-out.
///
/// Worker bodies run under `catch_unwind` (mirroring the xpu SPMD
/// pool), so a panicking task fails the whole fan-out with this typed
/// error instead of unwinding through the thread scope — which would
/// skip the gate release and permanently shrink the shared thread
/// budget ("poisoning" every later run down to inline execution).
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

/// Stringifies a caught panic payload (same shape as the xpu pool's
/// `panic_message`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// A budget of *extra* threads, shared between the host executor and
/// any other thread-spawning component (the simulated device's kernel
/// dispatch). Acquire-at-most semantics: a request returns however many
/// permits are available (possibly zero), never blocks, and the caller
/// runs inline with whatever it got — so sharing the gate can starve
/// parallelism but never deadlock.
#[derive(Debug)]
pub struct ThreadGate {
    permits: AtomicUsize,
}

impl ThreadGate {
    /// A gate holding `permits` extra-thread permits.
    pub fn new(permits: usize) -> Self {
        ThreadGate {
            permits: AtomicUsize::new(permits),
        }
    }

    /// Takes up to `want` permits, returning how many were granted.
    pub fn try_acquire(&self, want: usize) -> usize {
        if want == 0 {
            return 0;
        }
        let mut cur = self.permits.load(Ordering::Relaxed);
        loop {
            let take = cur.min(want);
            if take == 0 {
                return 0;
            }
            match self.permits.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(now) => cur = now,
            }
        }
    }

    /// Returns `n` permits to the gate.
    pub fn release(&self, n: usize) {
        if n > 0 {
            self.permits.fetch_add(n, Ordering::Release);
        }
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        self.permits.load(Ordering::Relaxed)
    }
}

/// One worker's deque: a half-open index range packed into an
/// `AtomicU64` (`lo` in the high word, `hi` in the low word). The owner
/// claims a block of indices from the front; thieves claim the rear
/// half; either is one CAS. Every transition only shrinks the current
/// range (or installs a freshly stolen one into an empty deque), so
/// each index is claimed exactly once.
struct RangeDeque(AtomicU64);

#[inline]
fn pack_range(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

#[inline]
fn unpack_range(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

impl RangeDeque {
    fn new(lo: usize, hi: usize) -> Self {
        RangeDeque(AtomicU64::new(pack_range(lo as u32, hi as u32)))
    }

    /// Owner side: claim the front `min(grain, remaining)` indices.
    fn pop_front(&self, grain: usize) -> Option<Range<usize>> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack_range(cur);
            if lo >= hi {
                return None;
            }
            let end = lo + ((hi - lo) as usize).min(grain) as u32;
            match self.0.compare_exchange_weak(
                cur,
                pack_range(end, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo as usize..end as usize),
                Err(now) => cur = now,
            }
        }
    }

    /// Thief side: claim the rear half (at least one index).
    fn steal_back(&self) -> Option<Range<usize>> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack_range(cur);
            if lo >= hi {
                return None;
            }
            let take = (hi - lo).div_ceil(2);
            match self.0.compare_exchange_weak(
                cur,
                pack_range(lo, hi - take),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((hi - take) as usize..hi as usize),
                Err(now) => cur = now,
            }
        }
    }

    /// Owner side: install a stolen range into this (empty) deque.
    fn install(&self, r: Range<usize>) {
        self.0
            .store(pack_range(r.start as u32, r.end as u32), Ordering::Release);
    }
}

/// What one worker brings back from a fan-out.
struct WorkerResult<T> {
    results: Vec<(usize, T)>,
    busy: Duration,
    /// First panicking task on this worker, if any.
    panic: Option<(usize, String)>,
}

/// Per-phase utilization sample accumulated by [`HostExecutor::run`].
struct UtilSample {
    phase: String,
    wall: Duration,
    busy: Vec<Duration>,
}

/// The shared work-stealing host executor (see the [module docs](self)).
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
    gate: Option<Arc<ThreadGate>>,
    cancel: Mutex<Option<CancelToken>>,
    tasks: AtomicU64,
    steals: AtomicU64,
    util: Mutex<Vec<UtilSample>>,
}

impl std::fmt::Debug for HostExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostExecutor")
            .field("threads", &self.threads)
            .field("tasks", &self.tasks())
            .field("steals", &self.steals())
            .finish()
    }
}

impl HostExecutor {
    /// An executor sized to `threads` (clamped to at least 1). One
    /// thread means strictly inline execution — no gate, no spawns.
    pub fn new(threads: usize) -> Self {
        let gate = Arc::new(ThreadGate::new(threads.saturating_sub(1)));
        HostExecutor::with_shared_gate(threads, gate)
    }

    /// An executor that draws its extra workers from an *external*
    /// gate instead of owning one — the multi-tenant generalization of
    /// the sizing handshake. Every engine run inside a server shares
    /// one process-wide permit budget: concurrent runs' fan-outs (and,
    /// via [`HostExecutor::gate`], their devices' kernel dispatches)
    /// contend for the same permits, so N simultaneous jobs never
    /// oversubscribe the machine — late-coming fan-outs degrade toward
    /// inline execution exactly like nested fan-outs always have.
    ///
    /// `threads` caps how many workers *this* executor will use per
    /// fan-out (it still never takes more than the gate can grant).
    /// With `threads <= 1` the executor is serial and the gate is
    /// untouched.
    pub fn with_shared_gate(threads: usize, gate: Arc<ThreadGate>) -> Self {
        let threads = threads.max(1);
        HostExecutor {
            threads,
            gate: (threads > 1).then_some(gate),
            cancel: Mutex::new(None),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            util: Mutex::new(Vec::new()),
        }
    }

    /// Attaches (or clears) the run's cancel token. A cancelled token
    /// makes workers stop *stealing*: every seeded task still executes
    /// exactly once — the deterministic index-ordered merge is
    /// unaffected — but load balancing stops, so an in-flight fan-out
    /// winds down on the cheapest path instead of redistributing work
    /// the run is about to discard.
    pub fn set_cancel(&self, token: Option<CancelToken>) {
        *self.cancel.lock().expect("cancel lock") = token;
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The extra-thread gate, for sharing the budget with other
    /// components (the device's kernel dispatch). `None` when serial.
    pub fn gate(&self) -> Option<Arc<ThreadGate>> {
        self.gate.clone()
    }

    /// Tasks executed so far (across all `run` calls).
    pub fn tasks(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    /// Successful steals so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Runs tasks `0..n` of `f`, returning the results in index order.
    ///
    /// Infallible wrapper over [`HostExecutor::try_run`]: a panicking
    /// task re-raises the panic on the caller — but only *after* the
    /// fan-out has wound down and the gate permits are back, so the
    /// executor stays usable.
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
    /// Tasks are distributed over up to `threads` workers (the caller
    /// is worker 0; extra workers are scoped threads drawn from the
    /// gate) with rear-half stealing for load balance. `phase` labels
    /// the per-worker busy time accumulated for
    /// [`HostExecutor::drain_utilization_into`].
    ///
    /// Each task body runs under `catch_unwind`; on a panic the
    /// affected worker abandons the rest of its block and stops
    /// claiming work, the other workers drain normally, the gate
    /// permits are released, and the error reports the lowest-indexed
    /// panicking task (deterministic regardless of scheduling).
    pub fn try_run<T, F>(&self, phase: &str, n: usize, f: F) -> Result<Vec<T>, HostPanic>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.tasks.fetch_add(n as u64, Ordering::Relaxed);
        if n == 0 {
            return Ok(Vec::new());
        }
        let want = self.threads.min(n);
        let extra = match &self.gate {
            Some(gate) => gate.try_acquire(want - 1),
            None => 0,
        };
        if extra == 0 {
            let start = Instant::now();
            let mut out: Vec<T> = Vec::with_capacity(n);
            for i in 0..n {
                match std::panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(v) => out.push(v),
                    Err(payload) => {
                        self.note_util(phase, start.elapsed(), vec![start.elapsed()]);
                        return Err(HostPanic {
                            phase: phase.to_owned(),
                            task: i,
                            message: panic_message(payload),
                        });
                    }
                }
            }
            self.note_util(phase, start.elapsed(), vec![start.elapsed()]);
            return Ok(out);
        }
        let workers = extra + 1;
        // Indices per owner claim: sixteen blocks per worker leave
        // thieves something to balance with, and one CAS plus one busy
        // stamp per block is what makes sub-microsecond tasks cheap.
        let grain = (n / (workers * 16)).max(1);

        // Seed per-worker deques with contiguous slices of the range.
        let chunk = n.div_ceil(workers);
        let deques: Vec<RangeDeque> = (0..workers)
            .map(|w| RangeDeque::new((w * chunk).min(n), ((w + 1) * chunk).min(n)))
            .collect();
        let deques = &deques;
        let f = &f;
        let steals = &self.steals;
        let cancel = self.cancel.lock().expect("cancel lock").clone();
        let cancel = &cancel;
        let worker_loop = move |w: usize| -> WorkerResult<T> {
            let mut out = WorkerResult {
                results: Vec::new(),
                busy: Duration::ZERO,
                panic: None,
            };
            loop {
                while let Some(block) = deques[w].pop_front(grain) {
                    let t0 = Instant::now();
                    for i in block {
                        // Caught per task, so a panic names its own
                        // index; the rest of its block never runs.
                        match std::panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                            Ok(v) => out.results.push((i, v)),
                            Err(payload) => {
                                out.panic = Some((i, panic_message(payload)));
                                break;
                            }
                        }
                    }
                    out.busy += t0.elapsed();
                    if out.panic.is_some() {
                        return out;
                    }
                }
                // A cancelled run stops load balancing: every seeded
                // task still runs exactly once (owners drain their own
                // deques), but nothing is redistributed.
                let stealing_allowed = cancel.as_ref().is_none_or(|t| !t.is_cancelled());
                let mut refilled = false;
                if stealing_allowed {
                    for off in 1..deques.len() {
                        let victim = (w + off) % deques.len();
                        if let Some(r) = deques[victim].steal_back() {
                            steals.fetch_add(1, Ordering::Relaxed);
                            deques[w].install(r);
                            refilled = true;
                            break;
                        }
                    }
                }
                if !refilled {
                    return out;
                }
            }
        };

        let start = Instant::now();
        let mut per_worker: Vec<WorkerResult<T>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers)
                .map(|w| scope.spawn(move || worker_loop(w)))
                .collect();
            per_worker.push(worker_loop(0));
            for h in handles {
                match h.join() {
                    Ok(r) => per_worker.push(r),
                    // Unreachable in practice (the task body is caught),
                    // but never let a join failure skip the gate release.
                    Err(payload) => per_worker.push(WorkerResult {
                        results: Vec::new(),
                        busy: Duration::ZERO,
                        panic: Some((usize::MAX, panic_message(payload))),
                    }),
                }
            }
        });
        let wall = start.elapsed();
        if let Some(gate) = &self.gate {
            gate.release(extra);
        }

        let busy: Vec<Duration> = per_worker.iter().map(|r| r.busy).collect();
        self.note_util(phase, wall, busy);

        // Deterministic failure: report the lowest-indexed panic no
        // matter which worker hit it first.
        if let Some((task, message)) = per_worker
            .iter()
            .filter_map(|r| r.panic.clone())
            .min_by_key(|(i, _)| *i)
        {
            return Err(HostPanic {
                phase: phase.to_owned(),
                task,
                message,
            });
        }

        // Deterministic merge: place every result by its task index.
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for r in per_worker {
            for (i, v) in r.results {
                debug_assert!(slots[i].is_none(), "task {i} claimed twice");
                slots[i] = Some(v);
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every task index claimed exactly once"))
            .collect())
    }

    fn note_util(&self, phase: &str, wall: Duration, busy: Vec<Duration>) {
        let mut util = self.util.lock().expect("utilization lock");
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
    /// profiler (busy vs idle per worker, keyed by phase).
    pub fn drain_utilization_into(&self, profiler: &mut Profiler) {
        let mut util = self.util.lock().expect("utilization lock");
        for sample in util.drain(..) {
            profiler.add_host_util(&sample.phase, sample.wall, &sample.busy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn serial_executor_runs_inline() {
        let host = HostExecutor::new(1);
        assert!(host.gate().is_none());
        let out = host.run("t", 10, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        assert_eq!(host.tasks(), 10);
        assert_eq!(host.steals(), 0);
    }

    #[test]
    fn results_in_index_order_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let host = HostExecutor::new(threads);
            let out = host.run("t", 1000, |i| i * 3);
            assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
            // `tasks` counts indices, not blocks or workers.
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
        // A few heavy tasks at the front force front-loaded deques to be
        // drained by thieves on multicore hosts; on any host the result
        // must still come back in order.
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
    fn gate_bounds_extra_threads() {
        let gate = ThreadGate::new(3);
        assert_eq!(gate.try_acquire(2), 2);
        assert_eq!(gate.try_acquire(5), 1);
        assert_eq!(gate.try_acquire(1), 0);
        gate.release(3);
        assert_eq!(gate.available(), 3);
        assert_eq!(gate.try_acquire(0), 0);
    }

    #[test]
    fn executor_shares_gate_budget() {
        let host = HostExecutor::new(4);
        let gate = host.gate().expect("parallel executor has a gate");
        assert_eq!(gate.available(), 3);
        // Drain the gate: the next run degrades to inline but completes.
        let taken = gate.try_acquire(3);
        assert_eq!(taken, 3);
        let out = host.run("t", 100, |i| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        gate.release(taken);
        assert_eq!(gate.available(), 3);
        // And after release the budget is intact for a parallel run.
        let out = host.run("t", 100, |i| i);
        assert_eq!(out.len(), 100);
        assert_eq!(gate.available(), 3);
    }

    #[test]
    fn shared_gate_spans_executors() {
        // Two executors over one gate: permits drawn by either come
        // from (and return to) the same budget.
        let gate = Arc::new(ThreadGate::new(3));
        let a = HostExecutor::with_shared_gate(4, Arc::clone(&gate));
        let b = HostExecutor::with_shared_gate(4, Arc::clone(&gate));
        assert!(Arc::ptr_eq(&a.gate().unwrap(), &b.gate().unwrap()));
        // Drain the shared budget: both executors degrade to inline
        // but still complete with index-ordered results.
        let taken = gate.try_acquire(3);
        assert_eq!(taken, 3);
        assert_eq!(a.run("t", 20, |i| i), (0..20).collect::<Vec<_>>());
        assert_eq!(b.run("t", 20, |i| i + 1), (1..=20).collect::<Vec<_>>());
        gate.release(taken);
        assert_eq!(gate.available(), 3);
        // With permits back, a fan-out returns them when done.
        let out = a.run("t", 200, |i| i);
        assert_eq!(out.len(), 200);
        assert_eq!(gate.available(), 3);
    }

    #[test]
    fn shared_gate_serial_executor_ignores_gate() {
        let gate = Arc::new(ThreadGate::new(2));
        let host = HostExecutor::with_shared_gate(1, Arc::clone(&gate));
        assert!(host.gate().is_none());
        assert_eq!(host.run("t", 5, |i| i), vec![0, 1, 2, 3, 4]);
        assert_eq!(gate.available(), 2);
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
        // (n, panicking task): one index per claim, then 100-index
        // blocks with the panic in the middle of worker 1's first one.
        for (n, bad) in [(64, 17), (6400, 1617)] {
            let host = HostExecutor::new(4);
            let gate = host.gate().expect("parallel executor has a gate");
            // No stealing, so block boundaries depend on `n` alone.
            let token = CancelToken::new();
            token.cancel(crate::cancel::CancelReason::Interrupt);
            host.set_cancel(Some(token));
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
            // The block ran up to the panic and not one index past it.
            let grain = n / (4 * 16);
            let block_start = bad - bad % grain;
            let ran = |i: usize| ran[i].load(Ordering::Relaxed);
            assert!((block_start..bad).all(ran), "n={n}");
            assert!(!(bad..block_start + grain).any(ran), "n={n}");
            // Regression: the fan-out used to unwind through the thread
            // scope, skipping the gate release and degrading every later
            // run to inline execution. The permits must all be back.
            assert_eq!(gate.available(), 3);
            host.set_cancel(None);
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
        let gate = host.gate().expect("gate");
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            host.run("t", 16, |i| {
                if i == 5 {
                    panic!("inner");
                }
                i
            })
        }));
        assert!(result.is_err());
        assert_eq!(gate.available(), 3);
    }

    #[test]
    fn lowest_indexed_panic_wins() {
        // Several tasks panic; the reported task index must be the
        // minimum regardless of worker scheduling — with one index per
        // claim (n = 64) and with task 4 inside a 100-index block.
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
    fn cancelled_token_still_runs_every_task() {
        let host = HostExecutor::new(4);
        let token = CancelToken::new();
        token.cancel(crate::cancel::CancelReason::Interrupt);
        host.set_cancel(Some(token));
        // Stealing is disabled, but all seeded tasks still execute and
        // merge deterministically.
        let out = host.run("t", 500, |i| i * 2);
        assert_eq!(out, (0..500).map(|i| i * 2).collect::<Vec<_>>());
        host.set_cancel(None);
    }

    #[test]
    fn range_deque_claims_each_index_once() {
        let d = RangeDeque::new(0, 10);
        let stolen = d.steal_back().expect("non-empty");
        assert_eq!(stolen, 5..10);
        assert_eq!(d.pop_front(1), Some(0..1));
        assert_eq!(d.pop_front(3), Some(1..4));
        assert_eq!(d.pop_front(3), Some(4..5));
        assert!(d.steal_back().is_none());
        assert!(d.pop_front(1).is_none());
    }

    #[test]
    fn range_deque_claims_each_index_once_under_concurrent_steals() {
        const LEN: usize = 10_000;
        for grain in [1, 3, LEN, LEN + 7] {
            let deque = RangeDeque::new(0, LEN);
            let claims: Vec<AtomicUsize> = (0..LEN).map(|_| AtomicUsize::new(0)).collect();
            let claim = |r: Range<usize>| {
                for i in r {
                    claims[i].fetch_add(1, Ordering::Relaxed);
                }
            };
            // Owner and both thieves start on the same barrier.
            let start = std::sync::Barrier::new(3);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        start.wait();
                        while let Some(r) = deque.steal_back() {
                            claim(r);
                        }
                    });
                }
                start.wait();
                while let Some(r) = deque.pop_front(grain) {
                    assert!(r.len() <= grain);
                    claim(r);
                }
            });
            assert!(
                claims.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "grain={grain}"
            );
        }
    }
}
