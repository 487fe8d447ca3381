//! The admission and scheduling layer: a bounded priority queue in
//! front of a fixed worker pool.
//!
//! This is the multi-tenant generalization of the engine's one pool. A
//! single run assumes it owns the machine: its `HostExecutor` owns a
//! [`Pool`] of `host_threads - 1` workers and installs it on the device
//! so kernel launches and host fan-outs share one set of threads. With
//! many concurrent jobs that assumption breaks — so the server owns one
//! process-wide pool, every job's engine is pointed at it via
//! `EngineOptions::shared_pool`, and this scheduler bounds how many
//! jobs run at once. Worker count caps *runs*; the pool caps *extra
//! threads across all runs*; the two together keep a fleet of jobs
//! from oversubscribing the host the same way one job never
//! oversubscribes it.
//!
//! Eligibility: jobs carry an optional exclusion key (the session id
//! — an edit session's layout and baseline are single-writer), and at
//! most one job per key runs at a time. The queue picks the
//! highest-priority eligible job, FIFO within a priority. Admission
//! is bounded (`max_queue`); a full queue or a draining server
//! rejects instead of buffering unboundedly.
//!
//! Every admitted job runs to a terminal state even when cancelled —
//! cancellation trips the job's [`CancelToken`] and the engine winds
//! down at the next rule boundary, reporting exit 4 through the
//! normal completion path. A panicking job is caught by its worker
//! (the pool survives), reported as a job error, and never wedges the
//! queue.
//!
//! [`Pool`]: odrc_infra::Pool

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use odrc_infra::{CancelReason, CancelToken};
use parking_lot::{Condvar, Mutex};

use crate::proto::ServeError;

/// What the scheduler hands a job when it finally runs.
pub struct JobRun {
    /// The admitted job's id.
    pub job_id: u64,
    /// Milliseconds the job sat in the queue before a worker picked
    /// it up.
    pub queue_wait_ms: u64,
}

type JobFn = Box<dyn FnOnce(&JobRun) + Send>;

/// Called with the server's `retry_after_ms` hint when a queued job is
/// shed to make room for higher-priority work.
pub type ShedFn = Box<dyn FnOnce(i64) + Send>;

struct QueuedJob {
    job_id: u64,
    exclusion: Option<u64>,
    priority: i64,
    seq: u64,
    enqueued: Instant,
    run: JobFn,
    /// Jobs without a shed handler are never chosen as shed victims —
    /// nobody could be told, so they would silently vanish.
    on_shed: Option<ShedFn>,
}

#[derive(Default)]
struct QueueState {
    pending: Vec<QueuedJob>,
    /// Exclusion keys of currently *running* jobs.
    running_keys: HashSet<u64>,
    running: usize,
    /// Cancel tokens of every live (queued or running) job, for the
    /// `cancel` verb.
    live: Vec<(u64, CancelToken)>,
    draining: bool,
    shutdown: bool,
    seq: u64,
}

/// Server-wide admission counters, exported via the `stats` verb and
/// stamped into each job's `done` event.
#[derive(Default)]
pub struct SchedulerStats {
    pub jobs_admitted: AtomicU64,
    pub jobs_rejected: AtomicU64,
    pub jobs_completed: AtomicU64,
    pub jobs_cancelled: AtomicU64,
    pub jobs_panicked: AtomicU64,
    /// Queued jobs evicted by higher-priority admissions under a full
    /// queue (each shed job's owner got a retry-after error).
    pub jobs_shed: AtomicU64,
}

/// The admission queue plus its worker pool.
pub struct Scheduler {
    state: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

struct Shared {
    queue: Mutex<QueueState>,
    cv: Condvar,
    max_queue: usize,
    next_job: AtomicU64,
    pub stats: SchedulerStats,
}

impl Scheduler {
    /// A scheduler with `workers` concurrent job slots and an
    /// admission queue bounded at `max_queue` waiting jobs.
    pub fn new(workers: usize, max_queue: usize) -> Scheduler {
        let state = Arc::new(Shared {
            queue: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            max_queue: max_queue.max(1),
            next_job: AtomicU64::new(1),
            stats: SchedulerStats::default(),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("odrc-job-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn job worker")
            })
            .collect();
        Scheduler {
            state,
            workers: Mutex::new(handles),
        }
    }

    /// Admits a job, or rejects it with a typed error (queue full /
    /// draining). `exclusion` serializes jobs sharing a key (one job
    /// per edit session); `cancel` is the token the `cancel` verb and
    /// client-disconnect teardown will trip.
    ///
    /// Returns the job id.
    pub fn submit(
        &self,
        exclusion: Option<u64>,
        priority: i64,
        cancel: CancelToken,
        run: impl FnOnce(&JobRun) + Send + 'static,
    ) -> Result<u64, ServeError> {
        let job_id = self.reserve_job_id();
        self.submit_with_shed(job_id, exclusion, priority, cancel, None, run)?;
        Ok(job_id)
    }

    /// [`Scheduler::submit`] under a caller-reserved `job_id` (from
    /// [`Scheduler::reserve_job_id`]), with overload shedding: under a
    /// full queue, an incoming job of strictly higher priority evicts
    /// the lowest-priority (newest within a priority) queued job that
    /// carries a shed handler — the victim's `on_shed` gets the
    /// retry-after hint, the newcomer takes its slot. A full queue
    /// with no lower-priority victim refuses the newcomer with
    /// [`ServeError::Overloaded`] instead of buffering unboundedly or
    /// stalling admission.
    pub fn submit_with_shed(
        &self,
        job_id: u64,
        exclusion: Option<u64>,
        priority: i64,
        cancel: CancelToken,
        on_shed: Option<ShedFn>,
        run: impl FnOnce(&JobRun) + Send + 'static,
    ) -> Result<(), ServeError> {
        let mut q = self.state.queue.lock();
        if q.draining || q.shutdown {
            self.state
                .stats
                .jobs_rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Rejected("server is draining".to_string()));
        }
        let mut shed: Option<(ShedFn, i64)> = None;
        if q.pending.len() >= self.state.max_queue {
            let retry_after_ms = self.retry_after_ms(&q);
            let victim = q
                .pending
                .iter()
                .enumerate()
                .filter(|(_, j)| j.on_shed.is_some() && j.priority < priority)
                .min_by(|(_, a), (_, b)| {
                    // Lowest priority loses; newest within a priority
                    // loses first (older jobs have waited longest).
                    a.priority.cmp(&b.priority).then(b.seq.cmp(&a.seq))
                })
                .map(|(i, _)| i);
            let Some(index) = victim else {
                self.state
                    .stats
                    .jobs_rejected
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded { retry_after_ms });
            };
            let evicted = q.pending.swap_remove(index);
            q.live.retain(|(id, _)| *id != evicted.job_id);
            self.state.stats.jobs_shed.fetch_add(1, Ordering::Relaxed);
            shed = Some((
                evicted.on_shed.expect("victims carry a handler"),
                retry_after_ms,
            ));
        }
        q.seq += 1;
        let seq = q.seq;
        q.live.push((job_id, cancel));
        q.pending.push(QueuedJob {
            job_id,
            exclusion,
            priority,
            seq,
            enqueued: Instant::now(),
            run: Box::new(run),
            on_shed,
        });
        self.state
            .stats
            .jobs_admitted
            .fetch_add(1, Ordering::Relaxed);
        drop(q);
        // Notify the victim outside the lock — its handler writes to a
        // client socket, which must never happen under the queue lock.
        if let Some((notify, retry_after_ms)) = shed {
            notify(retry_after_ms);
        }
        self.state.cv.notify_all();
        Ok(())
    }

    /// Backoff hint for overload responses: scales with how much work
    /// is already in flight, clamped to a sane range.
    fn retry_after_ms(&self, q: &QueueState) -> i64 {
        (250 * (q.running + q.pending.len()) as i64).clamp(250, 5000)
    }

    /// Trips a live job's cancel token. Queued jobs still run (and
    /// immediately wind down to exit 4 through the normal completion
    /// path, so the submitter always gets its terminal event); unknown
    /// ids report an error.
    pub fn cancel(&self, job_id: u64) -> Result<(), ServeError> {
        let q = self.state.queue.lock();
        match q.live.iter().find(|(id, _)| *id == job_id) {
            Some((_, token)) => {
                token.cancel(CancelReason::Interrupt);
                self.state
                    .stats
                    .jobs_cancelled
                    .fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            None => Err(ServeError::UnknownJob(job_id)),
        }
    }

    /// Jobs currently queued or running.
    pub fn live_jobs(&self) -> usize {
        let q = self.state.queue.lock();
        q.pending.len() + q.running
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.state.queue.lock().pending.len()
    }

    /// Workers currently running a job.
    pub fn workers_busy(&self) -> usize {
        self.state.queue.lock().running
    }

    /// Whether the scheduler has stopped admitting.
    pub fn is_draining(&self) -> bool {
        self.state.queue.lock().draining
    }

    /// Allocates a fresh job id — the one id allocator. The server
    /// reserves a job's id before admitting it, so a client attaching
    /// to a key is told the id the job's terminal frame will carry, and
    /// re-stamps a replayed journaled result with a reserved one (the
    /// stored id may collide with ids handed out since a restart).
    pub fn reserve_job_id(&self) -> u64 {
        self.state.next_job.fetch_add(1, Ordering::Relaxed)
    }

    /// Admission counters.
    pub fn stats(&self) -> &SchedulerStats {
        &self.state.stats
    }

    /// Stops admitting (`submit` now rejects) and blocks until every
    /// already-admitted job has finished. Running jobs are *not*
    /// cancelled — drain is graceful by definition; callers wanting a
    /// fast exit cancel jobs first.
    pub fn drain(&self) {
        let mut q = self.state.queue.lock();
        q.draining = true;
        while !q.pending.is_empty() || q.running > 0 {
            self.state.cv.wait(&mut q);
        }
    }

    /// Drains, then stops and joins the worker pool. The scheduler is
    /// unusable afterwards.
    pub fn shutdown(&self) {
        self.drain();
        {
            let mut q = self.state.queue.lock();
            q.shutdown = true;
        }
        self.state.cv.notify_all();
        let mut workers = self.workers.lock();
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(state: &Shared) {
    loop {
        let job = {
            let mut q = state.queue.lock();
            loop {
                if q.shutdown {
                    return;
                }
                if let Some(index) = pick_eligible(&q) {
                    let job = q.pending.swap_remove(index);
                    if let Some(key) = job.exclusion {
                        q.running_keys.insert(key);
                    }
                    q.running += 1;
                    break job;
                }
                state.cv.wait(&mut q);
            }
        };

        let run = JobRun {
            job_id: job.job_id,
            queue_wait_ms: job.enqueued.elapsed().as_millis() as u64,
        };
        // A panicking job must not take its worker down with it: the
        // job closure owns reporting (it already caught its own panic
        // into an `error` event if it could), and the pool lives on.
        let body = job.run;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || body(&run)));
        match outcome {
            Ok(()) => state.stats.jobs_completed.fetch_add(1, Ordering::Relaxed),
            Err(_) => state.stats.jobs_panicked.fetch_add(1, Ordering::Relaxed),
        };

        {
            let mut q = state.queue.lock();
            if let Some(key) = job.exclusion {
                q.running_keys.remove(&key);
            }
            q.running -= 1;
            q.live.retain(|(id, _)| *id != job.job_id);
        }
        // Wake both peers waiting for the freed exclusion key and any
        // drainer waiting for quiescence.
        state.cv.notify_all();
    }
}

/// Index of the best runnable job: eligible (exclusion key not
/// running), highest priority, FIFO within a priority.
fn pick_eligible(q: &QueueState) -> Option<usize> {
    q.pending
        .iter()
        .enumerate()
        .filter(|(_, j)| j.exclusion.is_none_or(|k| !q.running_keys.contains(&k)))
        .max_by(|(_, a), (_, b)| {
            a.priority.cmp(&b.priority).then(b.seq.cmp(&a.seq)) // lower seq = earlier = wins
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn runs_jobs_and_reports_wait() {
        let sched = Scheduler::new(2, 16);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            sched
                .submit(None, 0, CancelToken::new(), move |run| {
                    assert!(run.job_id > 0);
                    ran.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        sched.drain();
        assert_eq!(ran.load(Ordering::SeqCst), 8);
        assert_eq!(sched.stats().jobs_admitted.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn exclusion_keys_serialize_same_session() {
        let sched = Scheduler::new(4, 64);
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let concurrent = Arc::clone(&concurrent);
            let peak = Arc::clone(&peak);
            sched
                .submit(Some(7), 0, CancelToken::new(), move |_| {
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        sched.drain();
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "same-session jobs must never overlap"
        );
    }

    #[test]
    fn different_sessions_do_overlap() {
        let sched = Scheduler::new(4, 64);
        let peak = Arc::new(AtomicUsize::new(0));
        let concurrent = Arc::new(AtomicUsize::new(0));
        for key in 0..4u64 {
            let concurrent = Arc::clone(&concurrent);
            let peak = Arc::clone(&peak);
            sched
                .submit(Some(key), 0, CancelToken::new(), move |_| {
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(20));
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        sched.drain();
        assert!(
            peak.load(Ordering::SeqCst) > 1,
            "distinct sessions should run concurrently"
        );
    }

    /// A job that parks its worker until released, *and* signals when
    /// it has actually started — tests must not race the worker for
    /// queue slots (a parked job still in `pending` occupies one).
    struct ParkedJob {
        state: Arc<(Mutex<(bool, bool)>, Condvar)>, // (started, open)
    }

    impl ParkedJob {
        fn submit_to(sched: &Scheduler) -> ParkedJob {
            let state = Arc::new((Mutex::new((false, false)), Condvar::new()));
            {
                let state = Arc::clone(&state);
                sched
                    .submit(None, 0, CancelToken::new(), move |_| {
                        let (lock, cv) = &*state;
                        let mut s = lock.lock();
                        s.0 = true;
                        cv.notify_all();
                        while !s.1 {
                            cv.wait(&mut s);
                        }
                    })
                    .unwrap();
            }
            let parked = ParkedJob { state };
            let (lock, cv) = &*parked.state;
            let mut s = lock.lock();
            while !s.0 {
                cv.wait(&mut s);
            }
            drop(s);
            parked
        }

        fn release(&self) {
            let (lock, cv) = &*self.state;
            lock.lock().1 = true;
            cv.notify_all();
        }
    }

    impl Drop for ParkedJob {
        /// Release on unwind too: a failed assertion must fail the
        /// test, not wedge the scheduler's drop-drain forever.
        fn drop(&mut self) {
            self.release();
        }
    }

    #[test]
    fn priorities_pick_order() {
        // One worker; park it so the queue builds up, then observe
        // completion order.
        let sched = Scheduler::new(1, 64);
        let order = Arc::new(Mutex::new(Vec::new()));
        let parked = ParkedJob::submit_to(&sched);
        for (priority, tag) in [(0, "low-a"), (5, "high"), (0, "low-b"), (9, "urgent")] {
            let order = Arc::clone(&order);
            sched
                .submit(None, priority, CancelToken::new(), move |_| {
                    order.lock().push(tag);
                })
                .unwrap();
        }
        parked.release();
        sched.drain();
        assert_eq!(
            *order.lock(),
            vec!["urgent", "high", "low-a", "low-b"],
            "priority desc, fifo within"
        );
    }

    #[test]
    fn queue_limit_rejects_with_retry_hint() {
        let sched = Scheduler::new(1, 2);
        let parked = ParkedJob::submit_to(&sched);
        // Worker busy; queue holds 2; an equal-priority third submit
        // must bounce with a typed retry-after (nothing to shed: the
        // newcomer is not *more* important than what is queued).
        sched.submit(None, 0, CancelToken::new(), |_| {}).unwrap();
        sched.submit(None, 0, CancelToken::new(), |_| {}).unwrap();
        let err = sched.submit(None, 0, CancelToken::new(), |_| {});
        match err {
            Err(ServeError::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms >= 250, "hint present: {retry_after_ms}");
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        assert_eq!(sched.stats().jobs_rejected.load(Ordering::Relaxed), 1);
        parked.release();
        sched.drain();
    }

    #[test]
    fn overload_sheds_lowest_priority_newest_victim() {
        let sched = Scheduler::new(1, 2);
        let parked = ParkedJob::submit_to(&sched);
        let shed_log = Arc::new(Mutex::new(Vec::new()));
        let ran = Arc::new(Mutex::new(Vec::new()));
        let submit = |tag: &'static str, priority: i64| {
            let shed_log = Arc::clone(&shed_log);
            let ran = Arc::clone(&ran);
            sched
                .submit_with_shed(
                    sched.reserve_job_id(),
                    None,
                    priority,
                    CancelToken::new(),
                    Some(Box::new(move |retry_ms| {
                        assert!(retry_ms > 0);
                        shed_log.lock().push(tag);
                    })),
                    move |_| ran.lock().push(tag),
                )
                .unwrap();
        };
        submit("low-old", 1);
        submit("low-new", 1);
        // Queue is full; a higher-priority job sheds the *newest* of
        // the lowest-priority victims.
        submit("urgent", 5);
        assert_eq!(*shed_log.lock(), vec!["low-new"]);
        assert_eq!(sched.stats().jobs_shed.load(Ordering::Relaxed), 1);
        // A second urgent job now sheds the remaining low one.
        submit("urgent-2", 5);
        assert_eq!(*shed_log.lock(), vec!["low-new", "low-old"]);
        // Equal priority has no victim left: typed overload.
        let err = sched.submit(None, 5, CancelToken::new(), |_| {});
        assert!(matches!(err, Err(ServeError::Overloaded { .. })));
        parked.release();
        sched.drain();
        assert_eq!(*ran.lock(), vec!["urgent", "urgent-2"]);
    }

    #[test]
    fn jobs_without_shed_handler_are_never_shed() {
        let sched = Scheduler::new(1, 1);
        let parked = ParkedJob::submit_to(&sched);
        sched.submit(None, 0, CancelToken::new(), |_| {}).unwrap();
        // Higher priority, but the queued job carries no handler.
        let err = sched.submit(None, 9, CancelToken::new(), |_| {});
        assert!(matches!(err, Err(ServeError::Overloaded { .. })));
        parked.release();
        sched.drain();
    }

    #[test]
    fn cancel_trips_the_token_and_jobs_still_complete() {
        let sched = Scheduler::new(1, 16);
        // Park the lone worker so the cancel target is still queued —
        // otherwise it can run to completion before cancel() lands.
        let parked = ParkedJob::submit_to(&sched);
        let observed = Arc::new(Mutex::new(Vec::new()));
        let token = CancelToken::new();
        let id = {
            let observed = Arc::clone(&observed);
            let token = token.clone();
            sched
                .submit(None, 0, token.clone(), move |_| {
                    observed.lock().push(token.is_cancelled());
                })
                .unwrap()
        };
        sched.cancel(id).unwrap();
        parked.release();
        sched.drain();
        assert_eq!(*observed.lock(), vec![true], "job saw its cancellation");
        assert!(matches!(
            sched.cancel(9999),
            Err(ServeError::UnknownJob(9999))
        ));
    }

    #[test]
    fn draining_rejects_new_jobs() {
        let sched = Scheduler::new(1, 16);
        sched.drain();
        let err = sched.submit(None, 0, CancelToken::new(), |_| {});
        assert!(matches!(err, Err(ServeError::Rejected(_))));
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let sched = Scheduler::new(1, 16);
        sched
            .submit(None, 0, CancelToken::new(), |_| panic!("job exploded"))
            .unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let ran = Arc::clone(&ran);
            sched
                .submit(None, 0, CancelToken::new(), move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        sched.drain();
        assert_eq!(ran.load(Ordering::SeqCst), 1, "pool survived the panic");
        assert_eq!(sched.stats().jobs_panicked.load(Ordering::Relaxed), 1);
    }
}
