//! The `odrc serve` daemon: TCP accept loop, per-connection protocol
//! handling, edit-session registry, and job execution.
//!
//! One connection = one client = any number of edit sessions. The
//! connection thread parses frames and answers cheap verbs inline;
//! `check` admits a job into the shared [`Scheduler`] and returns
//! immediately — the job's lifecycle then streams back as event
//! frames (`queued`, `running`, per-`rule` progress, `done`/`error`)
//! written through the connection's shared writer, interleaved with
//! later responses.
//!
//! Jobs come in two kinds that differ only in what they check: a
//! session job checks its edit session in place, a keyed job checks a
//! journaled snapshot of it. Both share one lifecycle — one admission
//! (deadline token, shed handler, scheduler submission), one run body
//! (`running` and `rule` events, stats, the `done` frame or a code-110
//! `error` frame), and one terminal path that also settles a keyed
//! job's key and tells the connections attached to it.
//!
//! Resource sharing across tenants:
//!
//! * **threads** — one process-wide [`Pool`] of `host_threads - 1`
//!   workers; every job's host fan-outs and kernel launches publish
//!   onto it (`EngineOptions::shared_pool`), so N concurrent jobs share
//!   one set of threads instead of assuming N machines — a job that
//!   finds the pool busy runs its fan-outs inline.
//! * **results** — one [`SharedCacheTier`]; each job checks out a
//!   snapshot and merges back what it computed, so a layout one
//!   client already checked warms every other client's jobs.
//! * **devices** — per *session*, never shared: `Device` knobs
//!   (`set_cancel`, `set_host_pool`) are device-global, so concurrent
//!   jobs on one device would trample each other. Devices are cheap
//!   (their own pool never starts while the shared one is installed),
//!   and the session exclusion key guarantees one job per session at a
//!   time.
//!
//! Crash safety: with a `checkpoint_dir`, a `check` submitted with an
//! idempotency `key` is **durable** — the [`JobJournal`] records its
//! admission (layout snapshot included) before the submission is
//! acknowledged, the run checkpoints per-rule into its own
//! [`CheckpointJournal`], and its terminal frame is journaled. A
//! restarted server replays the journal: finished keys answer
//! resubmits with the journaled frame verbatim; unfinished keys are
//! re-admitted as headless jobs that resume at the rule boundary where
//! the kill landed. A key is looked up and reserved in one registry
//! critical section, so concurrent first submissions of a key attach
//! to one run, and an attacher is told the job id that run's terminal
//! frame carries. See `DESIGN.md` §5 for the full crash matrix.
//!
//! Liveness: accepted sockets carry read/write timeouts; an idle
//! connection is pinged and evicted after `ping_max_misses` unanswered
//! heartbeats, idle sessions are evicted past `session_idle_ms` (LRU
//! under the `max_sessions` cap), and a full queue sheds its
//! lowest-priority job — or refuses the newcomer — with a typed
//! `retry_after_ms` error instead of stalling admission.
//!
//! Teardown: a client disconnect cancels that client's live
//! *non-durable* jobs (the engine winds down at the next rule
//! boundary) and closes its sessions; durable jobs keep running so a
//! reconnecting client can attach. A `shutdown` verb or SIGTERM trips
//! the drain token: the accept loop stops, admission rejects,
//! in-flight jobs finish and deliver their results, the cache tier is
//! persisted, and `run` returns.
//!
//! [`Pool`]: odrc_infra::Pool
//! [`CheckpointJournal`]: odrc::CheckpointJournal

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odrc::{
    parse_deck, CheckpointJournal, Engine, EngineOptions, EngineStats, ProgressFn, ResultCache,
    RunKey, Violation,
};
use odrc_db::Layout;
use odrc_incremental::Session;
use odrc_infra::{fnv1a64, panic_message, CancelReason, CancelToken, Pool};
use odrc_xpu::Device;
use parking_lot::Mutex;

use crate::cache_tier::SharedCacheTier;
use crate::chaos::{ChaosState, ServerFaultPlan};
use crate::journal::{JobJournal, JobSpec, ReplayedJob};
use crate::json::{base64, obj, Value};
use crate::proto::{
    self, job_exit_code, opt_i64, opt_str, read_frame_step, req_i64, req_str, write_frame,
    FrameStep, ServeError,
};
use crate::scheduler::{JobRun, Scheduler, ShedFn};
use crate::wire;

/// Server tuning. `Default` sizes to the host.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::addr`]).
    pub addr: String,
    /// Concurrent job slots (scheduler workers).
    pub workers: usize,
    /// Process-wide host-thread budget shared by all concurrent jobs
    /// — the multi-tenant analogue of the CLI's `--host-threads`.
    pub host_threads: usize,
    /// Waiting jobs the admission queue holds before shedding.
    pub max_queue: usize,
    /// Directory for the shared result-cache sidecar; `None` keeps
    /// the tier in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Stream-ordered allocator budget per parallel-mode session.
    pub device_budget: Option<usize>,
    /// Directory for the durable job journal and per-job checkpoint
    /// journals. `None` disables durability: keyed submissions still
    /// dedupe in memory, but nothing survives a restart.
    pub checkpoint_dir: Option<PathBuf>,
    /// Socket read/write timeout. Reads that time out drive the
    /// heartbeat; writes that time out count as a dead client. 0
    /// disables both (a stalled reader can then pin its connection
    /// thread — only sensible in tests).
    pub io_timeout_ms: u64,
    /// Consecutive unanswered heartbeats before an idle connection is
    /// evicted.
    pub ping_max_misses: u32,
    /// Idle time after which a session (not touched by open/edit/
    /// check) may be evicted.
    pub session_idle_ms: u64,
    /// Hard cap on concurrently open sessions; opening past it evicts
    /// the least-recently-used idle session, or rejects when every
    /// session is busy.
    pub max_sessions: usize,
    /// Seeded fault-injection schedule (tests only). `None` — the
    /// default — injects nothing.
    pub chaos: Option<ServerFaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let par = odrc_infra::available_threads();
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: par.clamp(1, 4),
            host_threads: par,
            max_queue: 64,
            cache_dir: None,
            device_budget: None,
            checkpoint_dir: None,
            io_timeout_ms: 10_000,
            ping_max_misses: 3,
            session_idle_ms: 600_000,
            max_sessions: 256,
            chaos: None,
        }
    }
}

/// One client's edit session as the server stores it.
struct SessionSlot {
    session: Mutex<Session>,
    /// Whether jobs on this session consult the shared cache tier.
    shared_cache: bool,
    /// Rule deck source text, kept for durable job specs.
    rules: String,
    /// Engine mode (`"sequential"` or `"parallel"`), ditto.
    mode: String,
    /// Milliseconds since server start at last use, for LRU eviction.
    last_used: AtomicU64,
}

impl SessionSlot {
    fn touch(&self, shared: &ServerShared) {
        self.last_used.store(shared.now_ms(), Ordering::Relaxed);
    }
}

/// Per-idempotency-key state.
enum KeyState {
    /// The job is queued or running; `waiters` are connections that
    /// resubmitted the key and get the terminal frame when it lands.
    Active {
        job_id: u64,
        waiters: Vec<Arc<Mutex<TcpStream>>>,
    },
    /// The job finished; `frame` is the terminal event (JSON text)
    /// replayed verbatim (with a fresh job id) to resubmits.
    Done { frame: String },
}

struct ServerShared {
    config: ServerConfig,
    scheduler: Scheduler,
    tier: SharedCacheTier,
    pool: Arc<Pool>,
    sessions: Mutex<HashMap<u64, Arc<SessionSlot>>>,
    next_session: AtomicU64,
    drain: CancelToken,
    started: Instant,
    /// Durable job journal (present iff `checkpoint_dir` is set).
    journal: Option<Mutex<JobJournal>>,
    /// In-memory idempotency-key registry, seeded from the journal.
    registry: Mutex<HashMap<String, KeyState>>,
    /// Armed fault-injection state (tests only).
    chaos: Option<ChaosState>,
    /// Dispatch-layer counters summed over every completed job, so the
    /// `stats` verb can report fleet totals (per-job values ride in
    /// each job's own `stats` object).
    dispatch_totals: DispatchTotals,
}

/// Process-cumulative dispatch counters (see [`ServerShared`]).
#[derive(Default)]
struct DispatchTotals {
    launches_fused: AtomicU64,
    worker_wakeups: AtomicU64,
}

impl DispatchTotals {
    fn add(&self, stats: &odrc::EngineStats) {
        self.launches_fused
            .fetch_add(stats.launches_fused, Ordering::Relaxed);
        self.worker_wakeups
            .fetch_add(stats.worker_wakeups, Ordering::Relaxed);
    }
}

impl ServerShared {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn chaos(&self) -> Option<&ChaosState> {
        self.chaos.as_ref()
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks until
/// drained; [`Server::handle`] hands out the remote-shutdown trigger
/// first.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<ServerShared>,
}

/// Clonable shutdown trigger for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    drain: CancelToken,
}

impl ServerHandle {
    /// Starts a graceful drain: stop accepting, finish in-flight
    /// jobs, persist the cache tier, return from [`Server::run`].
    pub fn shutdown(&self) {
        self.drain.cancel(CancelReason::Interrupt);
    }
}

/// What a drained server reports back.
#[derive(Debug)]
pub struct DrainSummary {
    /// Jobs that ran to a terminal state over the server's lifetime.
    pub jobs_completed: u64,
    /// Entries in the shared cache tier at shutdown.
    pub cache_entries: usize,
    /// Shared-tier lookups answered for jobs over the lifetime.
    pub cache_hits_shared: u64,
}

impl Server {
    /// Binds the listener, spins up the scheduler, replays the job
    /// journal (re-admitting every unfinished durable job), and arms
    /// the chaos plan if one is configured. No connections are
    /// accepted until [`Server::run`].
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let tier = match &config.cache_dir {
            Some(dir) => SharedCacheTier::with_dir(dir),
            None => SharedCacheTier::new(),
        };
        // `host_threads` total: each running job's own thread plus one
        // pool shared by every job.
        let pool = Arc::new(Pool::new(config.host_threads.saturating_sub(1)));
        let (journal, replayed) = match &config.checkpoint_dir {
            Some(dir) => {
                let (journal, replayed) = JobJournal::open_dir(dir)?;
                (Some(Mutex::new(journal)), replayed)
            }
            None => (None, HashMap::new()),
        };
        let chaos = config.chaos.clone().map(ServerFaultPlan::arm);
        let shared = Arc::new(ServerShared {
            scheduler: Scheduler::new(config.workers, config.max_queue),
            tier,
            pool,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            // Linked to the signal flag so the daemon drains on
            // SIGINT/SIGTERM once handlers are installed (the bin does
            // that); programmatic ServerHandle::shutdown works always.
            drain: CancelToken::new().linked_to_signals(),
            started: Instant::now(),
            journal,
            registry: Mutex::new(HashMap::new()),
            chaos,
            dispatch_totals: DispatchTotals::default(),
            config,
        });
        // Replay: finished keys answer future resubmits from memory;
        // unfinished keys go straight back into the queue, headless —
        // their owners are gone, but their results get journaled and a
        // resubmitting client replays or attaches.
        for (key, job) in replayed {
            match job {
                ReplayedJob::Done(frame) => {
                    shared.registry.lock().insert(key, KeyState::Done { frame });
                }
                ReplayedJob::Pending(spec) => {
                    // Already journaled; a failed re-admission (queue
                    // full of replays) leaves the admit record pending
                    // for the *next* restart or resubmit.
                    let job_id = shared.scheduler.reserve_job_id();
                    shared.registry.lock().insert(
                        key,
                        KeyState::Active {
                            job_id,
                            waiters: Vec::new(),
                        },
                    );
                    let _ = admit_keyed(&shared, spec, job_id, None);
                }
            }
        }
        Ok(Server {
            listener,
            addr,
            shared,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The remote-shutdown trigger.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            drain: self.shared.drain.clone(),
        }
    }

    /// Accepts connections until the drain token trips, then drains
    /// the scheduler, persists the cache tier, and returns.
    pub fn run(self) -> std::io::Result<DrainSummary> {
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut last_sweep = Instant::now();
        while self.shared.drain.cancelled().is_none() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    conns.push(
                        std::thread::Builder::new()
                            .name("odrc-conn".to_string())
                            .spawn(move || handle_connection(stream, &shared))
                            .expect("spawn connection thread"),
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
            conns.retain(|h| !h.is_finished());
            if last_sweep.elapsed() >= Duration::from_secs(1) {
                sweep_idle_sessions(&self.shared);
                last_sweep = Instant::now();
            }
        }
        // Drain: no new admissions, in-flight jobs finish and deliver.
        self.shared.scheduler.drain();
        self.shared.tier.persist()?;
        Ok(DrainSummary {
            jobs_completed: self
                .shared
                .scheduler
                .stats()
                .jobs_completed
                .load(Ordering::Relaxed),
            cache_entries: self.shared.tier.len(),
            cache_hits_shared: self.shared.tier.hits_shared(),
        })
    }
}

/// Evicts sessions idle past `session_idle_ms`. A session whose mutex
/// is held (a job is running on it) is never evicted, no matter how
/// stale its timestamp.
fn sweep_idle_sessions(shared: &ServerShared) {
    let now = shared.now_ms();
    let idle_cap = shared.config.session_idle_ms;
    if idle_cap == 0 {
        return;
    }
    shared.sessions.lock().retain(|_, slot| {
        now.saturating_sub(slot.last_used.load(Ordering::Relaxed)) < idle_cap
            || slot.session.try_lock().is_none()
    });
}

/// Per-connection state the dispatcher tracks.
struct ConnState {
    /// Sessions this connection opened (closed on disconnect).
    sessions: Vec<u64>,
    /// Non-durable jobs this connection submitted, with their cancel
    /// tokens (tripped on disconnect so an orphaned job winds down).
    /// Durable jobs are deliberately absent: they outlive their
    /// submitter by design.
    jobs: Vec<(u64, CancelToken)>,
}

fn handle_connection(stream: TcpStream, shared: &Arc<ServerShared>) {
    // Stalled-reader defense: reads wake up every `io_timeout_ms` to
    // drive heartbeats; writes that block past it count as a dead
    // peer. The timeouts live on the fd, so the writer clone below
    // inherits them.
    if shared.config.io_timeout_ms > 0 {
        let t = Duration::from_millis(shared.config.io_timeout_ms);
        let _ = stream.set_read_timeout(Some(t));
        let _ = stream.set_write_timeout(Some(t));
    }
    let writer: Arc<Mutex<TcpStream>> = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut conn = ConnState {
        sessions: Vec::new(),
        jobs: Vec::new(),
    };
    let mut partial: Vec<u8> = Vec::new();
    let mut pings_unanswered: u32 = 0;

    loop {
        let frame = match read_frame_step(&mut reader, &mut partial) {
            Ok(FrameStep::Frame(line)) => {
                pings_unanswered = 0;
                line
            }
            Ok(FrameStep::Eof) => break, // clean disconnect
            Ok(FrameStep::Idle) => {
                // Heartbeat tick: ping an idle client; give up on one
                // that has ignored too many pings (half-open socket,
                // wedged process) instead of pinning this thread.
                if pings_unanswered >= shared.config.ping_max_misses {
                    break;
                }
                pings_unanswered += 1;
                if emit(
                    shared.chaos(),
                    &writer,
                    &obj([("event", Value::from("ping"))]),
                )
                .is_err()
                {
                    break;
                }
                continue;
            }
            Err(e) => {
                let _ = emit(shared.chaos(), &writer, &e.to_frame());
                if e.fatal_to_connection() {
                    break;
                }
                continue;
            }
        };
        match dispatch(&frame, shared, &writer, &mut conn) {
            Ok(Dispatch::Reply(response)) => {
                if emit(shared.chaos(), &writer, &response).is_err() {
                    break;
                }
            }
            Ok(Dispatch::Goodbye(response)) => {
                let _ = emit(shared.chaos(), &writer, &response);
                break;
            }
            Err(e) => {
                let fatal = e.fatal_to_connection();
                if emit(shared.chaos(), &writer, &e.to_frame()).is_err() || fatal {
                    break;
                }
            }
        }
    }

    // Teardown: orphaned non-durable jobs wind down at the next rule
    // boundary; this client's sessions go away once their jobs release
    // them.
    for (_, token) in &conn.jobs {
        token.cancel(CancelReason::Interrupt);
    }
    let mut sessions = shared.sessions.lock();
    for id in &conn.sessions {
        sessions.remove(id);
    }
}

enum Dispatch {
    Reply(Value),
    /// Reply, then close the connection (the `shutdown` ack).
    Goodbye(Value),
}

fn dispatch(
    line: &str,
    shared: &Arc<ServerShared>,
    writer: &Arc<Mutex<TcpStream>>,
    conn: &mut ConnState,
) -> Result<Dispatch, ServeError> {
    let frame = proto::parse_frame(line)?;
    let verb = req_str(&frame, "verb")?;
    match verb {
        "hello" => Ok(Dispatch::Reply(obj([
            ("ok", Value::Bool(true)),
            ("server", Value::from("odrc-serve")),
            ("protocol", Value::Int(1)),
        ]))),
        "open" => open_session(&frame, shared, conn),
        "edit" => edit_session(&frame, shared),
        "check" => submit_check(&frame, shared, writer, conn),
        "cancel" => {
            let job = req_i64(&frame, "job")?;
            let job = u64::try_from(job)
                .map_err(|_| ServeError::Protocol("\"job\" must be non-negative".to_string()))?;
            shared.scheduler.cancel(job)?;
            Ok(Dispatch::Reply(obj([
                ("ok", Value::Bool(true)),
                ("job", Value::from(job)),
            ])))
        }
        "stats" => Ok(Dispatch::Reply(server_stats(shared))),
        "health" => Ok(Dispatch::Reply(health_frame(shared))),
        "ping" => Ok(Dispatch::Reply(obj([
            ("ok", Value::Bool(true)),
            ("pong", Value::Bool(true)),
        ]))),
        "close" => {
            let id = session_id(&frame)?;
            let removed = shared.sessions.lock().remove(&id).is_some();
            if !removed {
                return Err(ServeError::UnknownSession(id));
            }
            conn.sessions.retain(|s| *s != id);
            Ok(Dispatch::Reply(obj([
                ("ok", Value::Bool(true)),
                ("session", Value::from(id)),
            ])))
        }
        "shutdown" => {
            shared.drain.cancel(CancelReason::Interrupt);
            Ok(Dispatch::Goodbye(obj([
                ("ok", Value::Bool(true)),
                ("draining", Value::Bool(true)),
            ])))
        }
        other => Err(ServeError::UnknownVerb(other.to_string())),
    }
}

fn session_id(frame: &Value) -> Result<u64, ServeError> {
    let id = req_i64(frame, "session")?;
    u64::try_from(id)
        .map_err(|_| ServeError::Protocol("\"session\" must be non-negative".to_string()))
}

fn find_session(shared: &ServerShared, id: u64) -> Result<Arc<SessionSlot>, ServeError> {
    let slot = shared
        .sessions
        .lock()
        .get(&id)
        .cloned()
        .ok_or(ServeError::UnknownSession(id))?;
    slot.touch(shared);
    Ok(slot)
}

fn open_session(
    frame: &Value,
    shared: &Arc<ServerShared>,
    conn: &mut ConnState,
) -> Result<Dispatch, ServeError> {
    // Layout: inline base64 GDSII, or a server-side path.
    let layout = match (opt_str(frame, "gds_b64")?, opt_str(frame, "path")?) {
        (Some(b64), _) => {
            let bytes = base64::decode(b64).map_err(ServeError::Layout)?;
            Layout::from_gds(&bytes[..])
        }
        (None, Some(path)) => std::fs::File::open(path)
            .map_err(|e| odrc_gdsii::ReadError::Io(e).into())
            .and_then(Layout::from_gds),
        (None, None) => {
            return Err(ServeError::Protocol(
                "open needs \"gds_b64\" or \"path\"".to_string(),
            ))
        }
    }
    .map_err(|e| ServeError::Layout(e.to_string()))?;
    let rules_text = req_str(frame, "rules")?.to_string();
    let deck = parse_deck(&rules_text).map_err(|e| ServeError::Rules(e.to_string()))?;
    let mode = opt_str(frame, "mode")?.unwrap_or("sequential");
    let shared_cache = match frame.get("shared_cache") {
        None | Some(Value::Null) => true,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ServeError::Protocol("\"shared_cache\" must be a bool".to_string()))?,
    };

    let engine = build_engine(shared, mode)?;

    let cells = layout.cells().len();
    let slot = Arc::new(SessionSlot {
        session: Mutex::new(Session::new(layout, engine, deck)),
        shared_cache,
        rules: rules_text,
        mode: mode.to_string(),
        last_used: AtomicU64::new(shared.now_ms()),
    });
    let id = {
        let mut sessions = shared.sessions.lock();
        if sessions.len() >= shared.config.max_sessions.max(1) {
            // LRU cap: evict the stalest idle session; if every
            // session is mid-job, refuse rather than grow unboundedly.
            let victim = sessions
                .iter()
                .filter(|(_, s)| s.session.try_lock().is_some())
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    sessions.remove(&id);
                }
                None => {
                    return Err(ServeError::Rejected(format!(
                        "session table full ({} busy sessions)",
                        sessions.len()
                    )));
                }
            }
        }
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        sessions.insert(id, slot);
        id
    };
    conn.sessions.push(id);
    Ok(Dispatch::Reply(obj([
        ("ok", Value::Bool(true)),
        ("session", Value::from(id)),
        ("cells", Value::from(cells)),
    ])))
}

/// Builds a job engine wired to the shared pool and thread budget.
fn build_engine(shared: &ServerShared, mode: &str) -> Result<Engine, ServeError> {
    let options = EngineOptions {
        host_threads: Some(shared.config.host_threads),
        shared_pool: Some(Arc::clone(&shared.pool)),
        ..EngineOptions::default()
    };
    match mode {
        "sequential" => Ok(Engine::sequential().with_options(options)),
        "parallel" => {
            // Per-session device: its knobs are device-global, so it
            // must never be shared across concurrently running jobs.
            let workers = odrc_infra::available_threads();
            let device = match shared.config.device_budget {
                Some(bytes) => Device::with_budget(workers, bytes),
                None => Device::new(workers),
            };
            Ok(Engine::parallel_on(device).with_options(options))
        }
        other => Err(ServeError::Protocol(format!(
            "mode must be \"sequential\" or \"parallel\", got {other:?}"
        ))),
    }
}

fn edit_session(frame: &Value, shared: &Arc<ServerShared>) -> Result<Dispatch, ServeError> {
    let id = session_id(frame)?;
    let slot = find_session(shared, id)?;
    let ops = frame
        .get("ops")
        .and_then(Value::as_array)
        .ok_or_else(|| ServeError::Protocol("missing \"ops\" array".to_string()))?;
    let parsed = ops
        .iter()
        .map(wire::edit_op_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let applied = parsed.len();
    // Serialized against any running job on this session by the slot
    // mutex: edits land strictly before or after a check, never mid-run.
    let mut session = slot.session.lock();
    session
        .apply_all(parsed)
        .map_err(|e| ServeError::Edit(e.to_string()))?;
    Ok(Dispatch::Reply(obj([
        ("ok", Value::Bool(true)),
        ("session", Value::from(id)),
        ("applied", Value::from(applied)),
    ])))
}

/// How a `check` is acknowledged: the job id, the reply's `replayed`
/// or `attached` flag, and for a replay the journaled terminal frame.
struct Ack {
    job_id: u64,
    flag: Option<&'static str>,
    replay: Option<Value>,
}

fn submit_check(
    frame: &Value,
    shared: &Arc<ServerShared>,
    writer: &Arc<Mutex<TcpStream>>,
    conn: &mut ConnState,
) -> Result<Dispatch, ServeError> {
    let id = session_id(frame)?;
    let slot = find_session(shared, id)?;
    let priority = opt_i64(frame, "priority")?.unwrap_or(0);
    let deadline_ms = match opt_i64(frame, "deadline_ms")? {
        Some(ms) if ms < 0 => {
            return Err(ServeError::Protocol(
                "\"deadline_ms\" must be non-negative".to_string(),
            ))
        }
        other => other,
    };
    let ack = match opt_str(frame, "key")? {
        Some(key) => submit_keyed(shared, &slot, writer, key, priority, deadline_ms)?,
        None => {
            let job = Job::new(
                shared.scheduler.reserve_job_id(),
                Some(Arc::clone(writer)),
                None,
                deadline_ms,
            );
            let (job_id, token) = (job.id, job.token.clone());
            let job_shared = Arc::clone(shared);
            admit(shared, job, id, priority, move |token, progress| {
                check_session(&job_shared, &slot, token, progress)
            })?;
            conn.jobs.push((job_id, token));
            Ack {
                job_id,
                flag: None,
                replay: None,
            }
        }
    };
    let _ = emit(
        shared.chaos(),
        writer,
        &obj([
            ("event", Value::from("queued")),
            ("job", Value::from(ack.job_id)),
        ]),
    );
    if let Some(replay) = &ack.replay {
        let _ = emit(shared.chaos(), writer, replay);
    }
    let mut reply = vec![("ok", Value::Bool(true)), ("job", Value::from(ack.job_id))];
    reply.extend(ack.flag.map(|flag| (flag, Value::Bool(true))));
    Ok(Dispatch::Reply(obj(reply)))
}

/// A `check` carrying an idempotency key: replay the key's finished
/// result, attach to its live job, or reserve the key and admit a
/// fresh job on a journaled snapshot of the session.
fn submit_keyed(
    shared: &Arc<ServerShared>,
    slot: &SessionSlot,
    writer: &Arc<Mutex<TcpStream>>,
    key: &str,
    priority: i64,
    deadline_ms: Option<i64>,
) -> Result<Ack, ServeError> {
    if key.is_empty() || key.len() > 256 {
        return Err(ServeError::Protocol(
            "\"key\" must be 1..=256 characters".to_string(),
        ));
    }
    if let Some(ack) = join_key(shared, &mut shared.registry.lock(), key, writer) {
        return Ok(ack);
    }
    // The snapshot makes the job re-runnable on a restarted server with
    // no sessions. It is exported outside the registry lock, because a
    // session job holds its slot for its whole check.
    let spec = {
        let session = slot.session.lock();
        JobSpec {
            key: key.to_string(),
            gds: odrc_gdsii::write(&session.layout().to_library("odrc"))
                .map_err(|e| ServeError::Layout(e.to_string()))?,
            rules: slot.rules.clone(),
            mode: slot.mode.clone(),
            priority,
            deadline_ms,
        }
    };
    let job_id = {
        // Look up and reserve in one critical section, so concurrent
        // first submissions of a key attach to one run. The admit
        // record is fsynced before the key turns active: an attacher
        // only ever finds a key that is on disk.
        let mut registry = shared.registry.lock();
        if let Some(ack) = join_key(shared, &mut registry, key, writer) {
            return Ok(ack);
        }
        if let Some(journal) = &shared.journal {
            journal.lock().record_admit(&spec, shared.chaos())?;
        }
        let job_id = shared.scheduler.reserve_job_id();
        registry.insert(
            key.to_string(),
            KeyState::Active {
                job_id,
                waiters: Vec::new(),
            },
        );
        job_id
    };
    // Admitted outside the registry lock: a shed victim's handler takes
    // it inside this submission.
    admit_keyed(shared, spec, job_id, Some(Arc::clone(writer)))?;
    Ok(Ack {
        job_id,
        flag: None,
        replay: None,
    })
}

/// Answers a known key under the registry lock: a finished key replays
/// its journaled frame re-stamped with a fresh job id (the stored id
/// may collide with ids handed out since a restart); a live key gains
/// `writer` as a waiter. `None` when the key is vacant.
fn join_key(
    shared: &ServerShared,
    registry: &mut HashMap<String, KeyState>,
    key: &str,
    writer: &Arc<Mutex<TcpStream>>,
) -> Option<Ack> {
    Some(match registry.get_mut(key)? {
        KeyState::Done { frame } => {
            let job_id = shared.scheduler.reserve_job_id();
            Ack {
                job_id,
                flag: Some("replayed"),
                replay: Some(patch_job_id(frame, job_id)),
            }
        }
        KeyState::Active { job_id, waiters } => {
            waiters.push(Arc::clone(writer));
            Ack {
                job_id: *job_id,
                flag: Some("attached"),
                replay: None,
            }
        }
    })
}

/// Rewrites the `job` field of a journaled terminal frame.
fn patch_job_id(frame_text: &str, job_id: u64) -> Value {
    let mut value = crate::json::parse(frame_text).unwrap_or(Value::Null);
    if let Value::Object(pairs) = &mut value {
        match pairs.iter_mut().find(|(k, _)| k == "job") {
            Some(pair) => pair.1 = Value::from(job_id),
            None => pairs.push(("job".to_string(), Value::from(job_id))),
        }
    }
    value
}

/// Admits a keyed job whose key is already reserved active under
/// `job_id`. `owner` is absent for a job re-admitted at bind.
fn admit_keyed(
    shared: &Arc<ServerShared>,
    spec: JobSpec,
    job_id: u64,
    owner: Option<Arc<Mutex<TcpStream>>>,
) -> Result<(), ServeError> {
    // A keyed job never touches a session, so its exclusion domain is
    // the key itself, offset into the upper half so it cannot collide
    // with session ids.
    let exclusion = fnv1a64(spec.key.as_bytes()) | (1 << 63);
    let priority = spec.priority;
    let job = Job::new(job_id, owner, Some(spec.key.clone()), spec.deadline_ms);
    let job_shared = Arc::clone(shared);
    admit(shared, job, exclusion, priority, move |token, progress| {
        check_keyed(&job_shared, &spec, token, progress)
    })
}

/// An admitted job's identity and listeners, shared by its shed
/// handler, its run body and its progress callback. The listeners are
/// the owner plus, for a keyed job, the key's waiters in the registry.
#[derive(Clone)]
struct Job {
    id: u64,
    /// The submitting connection; absent for a keyed job re-admitted
    /// from the journal at bind.
    owner: Option<Arc<Mutex<TcpStream>>>,
    /// A keyed job's idempotency key.
    key: Option<String>,
    token: CancelToken,
}

impl Job {
    /// Arms the job's token at admission. The deadline clock starts
    /// here: a job stuck behind a full queue burns its budget waiting,
    /// like the CLI's wall-clock `--deadline`. A keyed job re-admitted
    /// at bind gets a fresh clock — the budget bounds *a* run, and a
    /// crashed run was not the client's doing.
    fn new(
        id: u64,
        owner: Option<Arc<Mutex<TcpStream>>>,
        key: Option<String>,
        deadline_ms: Option<i64>,
    ) -> Job {
        let token = match deadline_ms {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms as u64)),
            None => CancelToken::new(),
        };
        Job {
            id,
            owner,
            key,
            token,
        }
    }

    /// Sends a progress event to the owner. A lost owner cancels an
    /// un-keyed job — nobody is left to read its result — but not a
    /// keyed one, which computes on for the journal and its waiters.
    fn tell_owner(&self, shared: &ServerShared, frame: &Value) {
        if let Some(owner) = &self.owner {
            if emit(shared.chaos(), owner, frame).is_err() && self.key.is_none() {
                self.token.cancel(CancelReason::Interrupt);
            }
        }
    }

    /// The one terminal path. A keyed job journals a replayable frame
    /// and moves its key to `Done` — or back to vacant, so the next
    /// submission runs again — collecting the key's waiters; then every
    /// listener gets the frame.
    fn finish(&self, shared: &ServerShared, frame: &Value, replayable: bool) {
        let waiters = match &self.key {
            Some(key) => {
                let text = frame.to_json();
                if replayable {
                    if let Some(journal) = &shared.journal {
                        let _ = journal.lock().record_done(key, &text, shared.chaos());
                    }
                }
                let mut registry = shared.registry.lock();
                let previous = if replayable {
                    registry.insert(key.clone(), KeyState::Done { frame: text })
                } else {
                    registry.remove(key)
                };
                match previous {
                    Some(KeyState::Active { waiters, .. }) => waiters,
                    _ => Vec::new(),
                }
            }
            None => Vec::new(),
        };
        for listener in self.owner.iter().chain(&waiters) {
            let _ = emit(shared.chaos(), listener, frame);
        }
    }
}

/// What a job's check produced — the one shape both job kinds return.
struct Checked {
    violations: Vec<Violation>,
    stats: EngineStats,
    interrupted: Option<CancelReason>,
    full_run: bool,
    cache_hits_shared: u64,
}

/// Admits a job of either kind with the one shed handler and the one
/// run body around `check`. A shed job's listeners get code 111 with
/// the backoff hint, and a shed key is vacant again: a retry
/// re-journals and re-admits (the stale admit record is deduped on
/// replay). A refused keyed job releases its key the same way, telling
/// any waiter that attached meanwhile; its owner gets the refusal as
/// the reply.
fn admit(
    shared: &Arc<ServerShared>,
    job: Job,
    exclusion: u64,
    priority: i64,
    check: impl FnOnce(&CancelToken, ProgressFn) -> Result<Checked, String> + Send + 'static,
) -> Result<(), ServeError> {
    let on_shed: ShedFn = {
        let (shared, job) = (Arc::clone(shared), job.clone());
        Box::new(move |retry_ms| {
            let message = format!("job shed: server overloaded; retry after {retry_ms} ms");
            job.finish(
                &shared,
                &error_event(job.id, None, message, 111, Some(retry_ms)),
                false,
            );
        })
    };
    let body = {
        let (shared, job) = (Arc::clone(shared), job.clone());
        move |run: &JobRun| run_job(&shared, &job, run, check)
    };
    let admitted = shared.scheduler.submit_with_shed(
        job.id,
        Some(exclusion),
        priority,
        job.token.clone(),
        Some(on_shed),
        body,
    );
    if let Err(e) = &admitted {
        let frame = error_event(
            job.id,
            job.key.as_deref(),
            e.to_string(),
            e.code(),
            e.retry_after_ms(),
        );
        Job { owner: None, ..job }.finish(shared, &frame, false);
    }
    admitted
}

/// The one run body: journals a keyed job's start, streams `running`
/// and per-`rule` progress to the owner, runs `check`, and finishes
/// with the `done` frame — or a code-110 `error` frame for a hard
/// error or a caught panic.
fn run_job(
    shared: &Arc<ServerShared>,
    job: &Job,
    run: &JobRun,
    check: impl FnOnce(&CancelToken, ProgressFn) -> Result<Checked, String>,
) {
    if let (Some(key), Some(journal)) = (&job.key, &shared.journal) {
        let _ = journal.lock().record_start(key, shared.chaos());
    }
    job.tell_owner(
        shared,
        &obj([
            ("event", Value::from("running")),
            ("job", Value::from(job.id)),
        ]),
    );
    let progress: ProgressFn = {
        let (shared, job) = (Arc::clone(shared), job.clone());
        Arc::new(move |rule: &str, status| {
            if shared.chaos().is_some_and(ChaosState::on_rule_event) {
                // The in-process model of `kill -9` at this exact rule
                // boundary; the harness restarts the server.
                std::process::abort();
            }
            job.tell_owner(
                &shared,
                &obj([
                    ("event", Value::from("rule")),
                    ("job", Value::from(job.id)),
                    ("rule", Value::from(rule)),
                    ("status", Value::from(status.to_string())),
                ]),
            );
        })
    };
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if shared.chaos().is_some_and(ChaosState::on_job_start) {
            panic!("chaos: worker panic at job start");
        }
        check(&job.token, progress)
    }));

    let key = job.key.as_deref();
    let (frame, replayable) = match outcome {
        Ok(Ok(checked)) => {
            shared.dispatch_totals.add(&checked.stats);
            let Value::Object(mut stats) = wire::stats_to_json(&checked.stats) else {
                unreachable!("stats_to_json returns an object");
            };
            stats.push((
                "cache_hits_shared".to_string(),
                Value::from(checked.cache_hits_shared),
            ));
            stats.push(("queue_wait_ms".to_string(), Value::from(run.queue_wait_ms)));
            let exit = job_exit_code(
                checked.interrupted.is_some(),
                checked.violations.len(),
                checked.stats.degraded(),
            );
            let head = [("event", Value::from("done")), ("job", Value::from(job.id))];
            let done = head
                .into_iter()
                .chain(key.map(|key| ("key", Value::from(key))))
                .chain([
                    ("exit", Value::Int(exit)),
                    ("full_run", Value::Bool(checked.full_run)),
                    (
                        "interrupted",
                        checked
                            .interrupted
                            .map_or(Value::Null, |reason| Value::from(reason.to_string())),
                    ),
                    ("violations", wire::violations_to_json(&checked.violations)),
                    ("stats", Value::Object(stats)),
                ]);
            // Terminal policy: a completed run — and a deadline-expired
            // one, whose partial result is the deterministic outcome of
            // the client's own budget — is replayable. An *interrupt*
            // (cancel verb) leaves a key pending so the next submission
            // re-runs from the checkpoint.
            let replayable = checked.interrupted != Some(CancelReason::Interrupt);
            (obj(done), replayable)
        }
        // A hard error (unreadable journaled layout, bad deck) is
        // deterministic: resubmits replay it instead of re-failing.
        Ok(Err(message)) => (error_event(job.id, key, message, 110, None), true),
        // A panic is presumed transient (chaos injection, resource
        // exhaustion): a key goes back to vacant and a resubmit — or
        // the next restart — tries again. A session's slot mutex was
        // unlocked by the unwind, and its next job re-wires the engine.
        Err(panic) => {
            let message = format!("job panicked: {}", panic_message(panic.as_ref()));
            (error_event(job.id, key, message, 110, None), false)
        }
    };
    job.finish(shared, &frame, replayable);
}

/// A terminal `error` event; a keyed job's run errors carry its `key`,
/// an overload its `retry_after_ms`.
fn error_event(
    job_id: u64,
    key: Option<&str>,
    error: String,
    code: i64,
    retry_after_ms: Option<i64>,
) -> Value {
    let head = [
        ("event", Value::from("error")),
        ("job", Value::from(job_id)),
    ];
    obj(head
        .into_iter()
        .chain(key.map(|key| ("key", Value::from(key))))
        .chain([("error", Value::from(error)), ("code", Value::Int(code))])
        .chain(retry_after_ms.map(|ms| ("retry_after_ms", Value::Int(ms))))
        .chain([("exit", Value::Int(2))]))
}

/// A session job's check: the session's own engine, wired to this
/// job's token and progress, on a private checkout of the shared tier
/// when the session opted in. Edits serialize against it on the slot
/// mutex.
fn check_session(
    shared: &ServerShared,
    slot: &SessionSlot,
    token: &CancelToken,
    progress: ProgressFn,
) -> Result<Checked, String> {
    let mut session = slot.session.lock();
    session.engine_mut().set_cancel(Some(token.clone()));
    session.engine_mut().set_progress(Some(progress));
    let hits_before = slot.shared_cache.then(|| {
        let snapshot = shared.tier.checkout();
        let hits = snapshot.hits();
        session.swap_cache(snapshot);
        hits
    });
    let report = session.check();
    session.engine_mut().set_cancel(None);
    session.engine_mut().set_progress(None);
    // Merge what this job learned back into the tier; the session keeps
    // the enriched snapshot (a superset of what it had).
    let cache_hits_shared = hits_before.map_or(0, |before| {
        let enriched = session.swap_cache(ResultCache::new());
        let hits = shared.tier.merge_back(&enriched, before);
        session.swap_cache(enriched);
        hits
    });
    Ok(Checked {
        violations: report.violations,
        stats: report.stats,
        interrupted: report.interrupted,
        full_run: report.full_run,
        cache_hits_shared,
    })
}

/// A keyed job's check: its journaled snapshot on a fresh engine, with
/// the per-key [`CheckpointJournal`] so a killed run resumes at the
/// rule boundary, against a checkout of the shared tier. It always
/// runs the whole deck (never an incremental recheck).
fn check_keyed(
    shared: &ServerShared,
    spec: &JobSpec,
    token: &CancelToken,
    progress: ProgressFn,
) -> Result<Checked, String> {
    let layout = Layout::from_gds(&spec.gds[..]).map_err(|e| e.to_string())?;
    let deck = parse_deck(&spec.rules).map_err(|e| e.to_string())?;
    let mut engine = build_engine(shared, &spec.mode).map_err(|e| e.to_string())?;
    engine.set_cancel(Some(token.clone()));
    engine.set_progress(Some(progress));
    let ckpt_dir = shared.config.checkpoint_dir.as_ref().map(|dir| {
        dir.join("jobs")
            .join(format!("{:016x}", fnv1a64(spec.key.as_bytes())))
    });
    let mut ckpt = match &ckpt_dir {
        Some(dir) => Some(
            CheckpointJournal::open_dir(dir, RunKey::compute(&layout, &deck))
                .map_err(|e| format!("checkpoint journal: {e}"))?,
        ),
        None => None,
    };
    let mut cache = shared.tier.checkout();
    let hits_before = cache.hits();
    let report = engine.check_resumable(&layout, &deck, Some(&mut cache), ckpt.as_mut());
    let cache_hits_shared = shared.tier.merge_back(&cache, hits_before);
    if let (None, Some(dir)) = (report.interrupted, &ckpt_dir) {
        // The run is complete; its checkpoint directory is dead weight
        // (the journaled result now answers resubmits).
        drop(ckpt);
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(Checked {
        violations: report.violations,
        stats: report.stats,
        interrupted: report.interrupted,
        full_run: true,
        cache_hits_shared,
    })
}

/// The `health` probe: cheap, side-effect-free, load-balancer-shaped.
fn health_frame(shared: &ServerShared) -> Value {
    let draining = shared.drain.cancelled().is_some() || shared.scheduler.is_draining();
    obj([
        ("ok", Value::Bool(true)),
        ("uptime_ms", Value::from(shared.now_ms())),
        ("queue_depth", Value::from(shared.scheduler.queue_depth())),
        ("workers_busy", Value::from(shared.scheduler.workers_busy())),
        ("workers", Value::from(shared.config.workers)),
        ("draining", Value::Bool(draining)),
        ("sessions", Value::from(shared.sessions.lock().len())),
        ("live_jobs", Value::from(shared.scheduler.live_jobs())),
        (
            "durable",
            Value::Bool(shared.config.checkpoint_dir.is_some()),
        ),
    ])
}

fn server_stats(shared: &ServerShared) -> Value {
    let sched = shared.scheduler.stats();
    obj([
        ("ok", Value::Bool(true)),
        (
            "jobs_admitted",
            Value::from(sched.jobs_admitted.load(Ordering::Relaxed)),
        ),
        (
            "jobs_rejected",
            Value::from(sched.jobs_rejected.load(Ordering::Relaxed)),
        ),
        (
            "jobs_completed",
            Value::from(sched.jobs_completed.load(Ordering::Relaxed)),
        ),
        (
            "jobs_cancelled",
            Value::from(sched.jobs_cancelled.load(Ordering::Relaxed)),
        ),
        (
            "jobs_panicked",
            Value::from(sched.jobs_panicked.load(Ordering::Relaxed)),
        ),
        (
            "jobs_shed",
            Value::from(sched.jobs_shed.load(Ordering::Relaxed)),
        ),
        ("live_jobs", Value::from(shared.scheduler.live_jobs())),
        ("queue_depth", Value::from(shared.scheduler.queue_depth())),
        ("workers_busy", Value::from(shared.scheduler.workers_busy())),
        ("uptime_ms", Value::from(shared.now_ms())),
        ("cache_hits_shared", Value::from(shared.tier.hits_shared())),
        ("cache_entries", Value::from(shared.tier.len())),
        (
            "cache_entries_merged",
            Value::from(shared.tier.entries_merged()),
        ),
        ("sessions", Value::from(shared.sessions.lock().len())),
        ("host_threads", Value::from(shared.config.host_threads)),
        (
            "launches_fused",
            Value::from(
                shared
                    .dispatch_totals
                    .launches_fused
                    .load(Ordering::Relaxed),
            ),
        ),
        (
            "worker_wakeups",
            Value::from(
                shared
                    .dispatch_totals
                    .worker_wakeups
                    .load(Ordering::Relaxed),
            ),
        ),
    ])
}

fn emit(
    chaos: Option<&ChaosState>,
    writer: &Arc<Mutex<TcpStream>>,
    frame: &Value,
) -> std::io::Result<()> {
    if let Some(chaos) = chaos {
        if chaos.on_frame_write() {
            // A real reset severs the transport, not just this write:
            // the peer must observe the failure (and reconnect/retry),
            // and the connection's read loop must wind down — leaving
            // the socket open would model a fault no real network
            // produces and strand a client waiting on a dead stream.
            let _ = writer.lock().shutdown(std::net::Shutdown::Both);
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "chaos: injected socket reset",
            ));
        }
    }
    let mut stream = writer.lock();
    write_frame(&mut *stream, frame)
}
