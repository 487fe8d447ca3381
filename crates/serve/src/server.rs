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
//! the kill landed. See `DESIGN.md` §5 for the full crash matrix.
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
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odrc::{parse_deck, CheckpointJournal, Engine, EngineOptions, ProgressFn, ResultCache, RunKey};
use odrc_db::Layout;
use odrc_incremental::Session;
use odrc_infra::{fnv1a64, CancelReason, CancelToken, Pool};
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
    /// Device worker threads per parallel-mode session.
    pub device_workers: usize,
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
            device_workers: par,
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
                    let _ = admit_durable(&shared, spec, None, false);
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
            let device = match shared.config.device_budget {
                Some(bytes) => Device::with_budget(shared.config.device_workers, bytes),
                None => Device::new(shared.config.device_workers),
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
    if let Some(key) = opt_str(frame, "key")? {
        return submit_check_durable(shared, &slot, writer, key, priority, deadline_ms);
    }

    // The deadline clock starts at admission: a job stuck behind a
    // full queue burns its budget waiting, exactly like the CLI's
    // wall-clock `--deadline`.
    let token = match deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms as u64)),
        None => CancelToken::new(),
    };

    let job_writer = Arc::clone(writer);
    let job_shared = Arc::clone(shared);
    let job_token = token.clone();
    // Shed notice: the victim's submitter learns its queued job was
    // dropped for higher-priority work, with the backoff hint.
    let shed_job = Arc::new(AtomicU64::new(0));
    let on_shed: ShedFn = {
        let shed_shared = Arc::clone(shared);
        let shed_writer = Arc::clone(writer);
        let shed_job = Arc::clone(&shed_job);
        Box::new(move |retry_ms| {
            let _ = emit(
                shed_shared.chaos(),
                &shed_writer,
                &shed_event(shed_job.load(Ordering::Relaxed), retry_ms),
            );
        })
    };
    let job_id = shared.scheduler.submit_with_shed(
        Some(id),
        priority,
        token.clone(),
        Some(on_shed),
        move |run| {
            execute_job(&job_shared, &slot, &job_writer, &job_token, run);
        },
    )?;
    shed_job.store(job_id, Ordering::Relaxed);
    conn.jobs.push((job_id, token));
    let _ = emit(
        shared.chaos(),
        writer,
        &obj([
            ("event", Value::from("queued")),
            ("job", Value::from(job_id)),
        ]),
    );
    Ok(Dispatch::Reply(obj([
        ("ok", Value::Bool(true)),
        ("job", Value::from(job_id)),
    ])))
}

/// The terminal event a shed job's owner receives.
fn shed_event(job_id: u64, retry_ms: i64) -> Value {
    obj([
        ("event", Value::from("error")),
        ("job", Value::from(job_id)),
        (
            "error",
            Value::from(format!(
                "job shed: server overloaded; retry after {retry_ms} ms"
            )),
        ),
        ("code", Value::Int(111)),
        ("retry_after_ms", Value::Int(retry_ms)),
        ("exit", Value::Int(2)),
    ])
}

/// A `check` carrying an idempotency key: replay a finished result,
/// attach to the running job, or journal-then-admit a fresh one.
fn submit_check_durable(
    shared: &Arc<ServerShared>,
    slot: &Arc<SessionSlot>,
    writer: &Arc<Mutex<TcpStream>>,
    key: &str,
    priority: i64,
    deadline_ms: Option<i64>,
) -> Result<Dispatch, ServeError> {
    if key.is_empty() || key.len() > 256 {
        return Err(ServeError::Protocol(
            "\"key\" must be 1..=256 characters".to_string(),
        ));
    }
    // Fast paths under the registry lock: replay or attach.
    {
        let mut registry = shared.registry.lock();
        match registry.get_mut(key) {
            Some(KeyState::Done { frame }) => {
                // Replay with a fresh job id — the journaled id may
                // collide with ids handed out since the restart.
                let job_id = shared.scheduler.reserve_job_id();
                let replayed = patch_job_id(frame, job_id);
                drop(registry);
                let _ = emit(
                    shared.chaos(),
                    writer,
                    &obj([
                        ("event", Value::from("queued")),
                        ("job", Value::from(job_id)),
                    ]),
                );
                let _ = emit(shared.chaos(), writer, &replayed);
                return Ok(Dispatch::Reply(obj([
                    ("ok", Value::Bool(true)),
                    ("job", Value::from(job_id)),
                    ("replayed", Value::Bool(true)),
                ])));
            }
            Some(KeyState::Active { job_id, waiters }) => {
                let job_id = *job_id;
                waiters.push(Arc::clone(writer));
                drop(registry);
                let _ = emit(
                    shared.chaos(),
                    writer,
                    &obj([
                        ("event", Value::from("queued")),
                        ("job", Value::from(job_id)),
                    ]),
                );
                return Ok(Dispatch::Reply(obj([
                    ("ok", Value::Bool(true)),
                    ("job", Value::from(job_id)),
                    ("attached", Value::Bool(true)),
                ])));
            }
            None => {}
        }
    }

    // Fresh durable submission: snapshot the session into a
    // self-contained spec (the job must be re-runnable on a restarted
    // server with no sessions), journal it, then admit.
    let spec = {
        let session = slot.session.lock();
        let gds = odrc_gdsii::write(&session.layout().to_library("odrc"))
            .map_err(|e| ServeError::Layout(e.to_string()))?;
        JobSpec {
            key: key.to_string(),
            gds,
            rules: slot.rules.clone(),
            mode: slot.mode.clone(),
            priority,
            deadline_ms,
        }
    };
    let job_id = admit_durable(shared, spec, Some(Arc::clone(writer)), true)?;
    let _ = emit(
        shared.chaos(),
        writer,
        &obj([
            ("event", Value::from("queued")),
            ("job", Value::from(job_id)),
        ]),
    );
    Ok(Dispatch::Reply(obj([
        ("ok", Value::Bool(true)),
        ("job", Value::from(job_id)),
    ])))
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

/// Journals (optionally) and admits a durable job. `owner` is the
/// submitting connection's writer, absent for restart replays.
fn admit_durable(
    shared: &Arc<ServerShared>,
    spec: JobSpec,
    owner: Option<Arc<Mutex<TcpStream>>>,
    journal_admit: bool,
) -> Result<u64, ServeError> {
    if journal_admit {
        if let Some(journal) = &shared.journal {
            journal.lock().record_admit(&spec, shared.chaos())?;
        }
    }
    let key = spec.key.clone();
    shared.registry.lock().insert(
        key.clone(),
        KeyState::Active {
            job_id: 0,
            waiters: Vec::new(),
        },
    );
    // Durable jobs restart their deadline clock on re-admission: the
    // budget bounds *a* run, and a crashed run was not the client's
    // doing.
    let token = match spec.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms as u64)),
        None => CancelToken::new(),
    };
    // Keyed jobs never touch a session, so their exclusion domain is
    // the key itself, offset into the upper half so it cannot collide
    // with session ids.
    let exclusion = fnv1a64(key.as_bytes()) | (1 << 63);
    let priority = spec.priority;

    let shed_job = Arc::new(AtomicU64::new(0));
    let on_shed: ShedFn = {
        let shed_shared = Arc::clone(shared);
        let shed_key = key.clone();
        let shed_owner = owner.clone();
        let shed_job = Arc::clone(&shed_job);
        Box::new(move |retry_ms| {
            // The key goes back to vacant: a retry re-journals and
            // re-admits (the stale admit record is deduped on replay).
            let waiters = match shed_shared.registry.lock().remove(&shed_key) {
                Some(KeyState::Active { waiters, .. }) => waiters,
                _ => Vec::new(),
            };
            let event = shed_event(shed_job.load(Ordering::Relaxed), retry_ms);
            if let Some(w) = &shed_owner {
                let _ = emit(shed_shared.chaos(), w, &event);
            }
            for w in &waiters {
                let _ = emit(shed_shared.chaos(), w, &event);
            }
        })
    };

    let job_shared = Arc::clone(shared);
    let job_token = token.clone();
    let submitted = shared.scheduler.submit_with_shed(
        Some(exclusion),
        priority,
        token.clone(),
        Some(on_shed),
        move |run| {
            execute_durable(&job_shared, &spec, owner.as_ref(), &job_token, run);
        },
    );
    let job_id = match submitted {
        Ok(id) => id,
        Err(e) => {
            shared.registry.lock().remove(&key);
            return Err(e);
        }
    };
    shed_job.store(job_id, Ordering::Relaxed);
    if let Some(KeyState::Active { job_id: id, .. }) = shared.registry.lock().get_mut(&key) {
        // The job may already have finished (entry replaced/removed);
        // only a still-active placeholder needs the real id.
        if *id == 0 {
            *id = job_id;
        }
    }
    Ok(job_id)
}

/// Runs one *durable* job from its self-contained spec: parses the
/// journaled layout and deck, wires the per-key [`CheckpointJournal`]
/// so a killed run resumes at the rule boundary, and applies the
/// terminal policy — journal the result for completed (or
/// deadline-expired) runs; put the key back to pending for
/// interrupted ones so a resubmit re-runs from the checkpoint.
fn execute_durable(
    shared: &Arc<ServerShared>,
    spec: &JobSpec,
    owner: Option<&Arc<Mutex<TcpStream>>>,
    token: &CancelToken,
    run: &JobRun,
) {
    let job_id = run.job_id;
    if let Some(journal) = &shared.journal {
        let _ = journal.lock().record_start(&spec.key, shared.chaos());
    }
    if let Some(w) = owner {
        // Plain emit, never emit_or_cancel: a durable job computes on
        // for the journal even when its submitter is gone.
        let _ = emit(
            shared.chaos(),
            w,
            &obj([
                ("event", Value::from("running")),
                ("job", Value::from(job_id)),
            ]),
        );
    }

    let body = std::panic::AssertUnwindSafe(|| -> Result<(Value, Option<CancelReason>), String> {
        if let Some(chaos) = shared.chaos() {
            if chaos.on_job_start() {
                panic!("chaos: worker panic at job start");
            }
        }
        let layout = Layout::from_gds(&spec.gds[..]).map_err(|e| e.to_string())?;
        let deck = parse_deck(&spec.rules).map_err(|e| e.to_string())?;
        let mut engine = build_engine(shared, &spec.mode).map_err(|e| e.to_string())?;
        engine.set_cancel(Some(token.clone()));
        let progress_shared = Arc::clone(shared);
        let progress_owner = owner.cloned();
        let progress: ProgressFn = Arc::new(move |rule: &str, status| {
            if let Some(chaos) = progress_shared.chaos() {
                if chaos.on_rule_event() {
                    // The in-process model of `kill -9` at this exact
                    // rule boundary; the harness restarts the server.
                    std::process::abort();
                }
            }
            if let Some(w) = &progress_owner {
                let _ = emit(
                    progress_shared.chaos(),
                    w,
                    &obj([
                        ("event", Value::from("rule")),
                        ("job", Value::from(job_id)),
                        ("rule", Value::from(rule)),
                        ("status", Value::from(status.to_string())),
                    ]),
                );
            }
        });
        engine.set_progress(Some(progress));

        // Per-key checkpoint journal: the resume half of kill/resume.
        let ckpt_dir = shared.config.checkpoint_dir.as_ref().map(|dir| {
            dir.join("jobs")
                .join(format!("{:016x}", fnv1a64(spec.key.as_bytes())))
        });
        let mut ckpt = match &ckpt_dir {
            Some(dir) => CheckpointJournal::open_dir(dir, RunKey::compute(&layout, &deck))
                .map_err(|e| format!("checkpoint journal: {e}"))
                .map(Some)?,
            None => None,
        };

        let mut cache = shared.tier.checkout();
        let hits_before = cache.hits();
        let report = engine.check_resumable(&layout, &deck, Some(&mut cache), ckpt.as_mut());
        let cache_hits_shared = shared.tier.merge_back(&cache, hits_before);
        shared.dispatch_totals.add(&report.stats);

        let mut stats = match wire::stats_to_json(&report.stats) {
            Value::Object(pairs) => pairs,
            _ => unreachable!("stats_to_json returns an object"),
        };
        stats.push((
            "cache_hits_shared".to_string(),
            Value::from(cache_hits_shared),
        ));
        stats.push(("queue_wait_ms".to_string(), Value::from(run.queue_wait_ms)));

        let interrupted = report.interrupted;
        let done = obj([
            ("event", Value::from("done")),
            ("job", Value::from(job_id)),
            ("key", Value::from(spec.key.as_str())),
            (
                "exit",
                Value::Int(job_exit_code(
                    interrupted.is_some(),
                    report.violations.len(),
                    report.stats.degraded(),
                )),
            ),
            // A durable job always runs the whole deck against its
            // journaled snapshot (never an incremental recheck).
            ("full_run", Value::Bool(true)),
            (
                "interrupted",
                match interrupted {
                    Some(reason) => Value::from(reason.to_string()),
                    None => Value::Null,
                },
            ),
            ("violations", wire::violations_to_json(&report.violations)),
            ("stats", Value::Object(stats)),
        ]);
        if interrupted.is_none() {
            // The run is complete; its checkpoint directory is dead
            // weight (the journaled result now answers resubmits).
            if let Some(dir) = &ckpt_dir {
                drop(ckpt.take());
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        Ok((done, interrupted))
    });

    let (frame, durable) = match std::panic::catch_unwind(body) {
        // Terminal policy: a completed run — and a deadline-expired
        // one, whose partial result is the deterministic outcome of
        // the client's own budget — is journaled and replayable. An
        // *interrupt* (cancel verb) leaves the key pending so the next
        // submission re-runs from the checkpoint.
        Ok(Ok((frame, interrupted))) => {
            let durable = !matches!(interrupted, Some(CancelReason::Interrupt));
            (frame, durable)
        }
        // A hard error (unreadable journaled layout, bad deck) is
        // deterministic: journal it so resubmits replay the error
        // instead of re-failing.
        Ok(Err(message)) => (
            obj([
                ("event", Value::from("error")),
                ("job", Value::from(job_id)),
                ("key", Value::from(spec.key.as_str())),
                ("error", Value::from(message)),
                ("code", Value::Int(110)),
                ("exit", Value::Int(2)),
            ]),
            true,
        ),
        // A panic is presumed transient (chaos injection, resource
        // exhaustion): the key goes back to pending and a resubmit —
        // or the next restart — tries again.
        Err(panic) => (
            obj([
                ("event", Value::from("error")),
                ("job", Value::from(job_id)),
                ("key", Value::from(spec.key.as_str())),
                (
                    "error",
                    Value::from(format!("job panicked: {}", panic_message(&panic))),
                ),
                ("code", Value::Int(110)),
                ("exit", Value::Int(2)),
            ]),
            false,
        ),
    };

    if durable {
        if let Some(journal) = &shared.journal {
            let _ = journal
                .lock()
                .record_done(&spec.key, &frame.to_json(), shared.chaos());
        }
    }
    // Swap the registry entry and collect everyone waiting on the key.
    let waiters = {
        let mut registry = shared.registry.lock();
        let previous = if durable {
            registry.insert(
                spec.key.clone(),
                KeyState::Done {
                    frame: frame.to_json(),
                },
            )
        } else {
            registry.remove(&spec.key)
        };
        match previous {
            Some(KeyState::Active { waiters, .. }) => waiters,
            _ => Vec::new(),
        }
    };
    if let Some(w) = owner {
        let _ = emit(shared.chaos(), w, &frame);
    }
    for w in &waiters {
        let _ = emit(shared.chaos(), w, &frame);
    }
}

/// Runs one admitted session-bound check job on a scheduler worker:
/// wires the job's cancel token and progress stream into the session's
/// engine, checks the shared cache tier in and out, and emits the
/// terminal event.
fn execute_job(
    shared: &Arc<ServerShared>,
    slot: &Arc<SessionSlot>,
    writer: &Arc<Mutex<TcpStream>>,
    token: &CancelToken,
    run: &JobRun,
) {
    let job_id = run.job_id;
    emit_or_cancel(
        shared,
        writer,
        token,
        &obj([
            ("event", Value::from("running")),
            ("job", Value::from(job_id)),
        ]),
    );

    let body = std::panic::AssertUnwindSafe(|| -> Value {
        if let Some(chaos) = shared.chaos() {
            if chaos.on_job_start() {
                panic!("chaos: worker panic at job start");
            }
        }
        let mut session = slot.session.lock();

        // Per-job engine plumbing. The progress callback streams rule
        // completions; a write failure (client gone) trips the job's
        // own token so the engine winds down instead of checking for
        // a dead socket.
        let progress_shared = Arc::clone(shared);
        let progress_writer = Arc::clone(writer);
        let progress_token = token.clone();
        let progress: ProgressFn = Arc::new(move |rule: &str, status| {
            if let Some(chaos) = progress_shared.chaos() {
                if chaos.on_rule_event() {
                    std::process::abort();
                }
            }
            emit_or_cancel(
                &progress_shared,
                &progress_writer,
                &progress_token,
                &obj([
                    ("event", Value::from("rule")),
                    ("job", Value::from(job_id)),
                    ("rule", Value::from(rule)),
                    ("status", Value::from(status.to_string())),
                ]),
            );
        });
        session.engine_mut().set_cancel(Some(token.clone()));
        session.engine_mut().set_progress(Some(progress));

        // Shared-tier checkout: the job runs on a private snapshot.
        let hits_before = if slot.shared_cache {
            let snapshot = shared.tier.checkout();
            let hits = snapshot.hits();
            let _previous = session.swap_cache(snapshot);
            Some(hits)
        } else {
            None
        };

        let report = session.check();

        session.engine_mut().set_cancel(None);
        session.engine_mut().set_progress(None);

        // Merge what this job learned back into the tier; the session
        // keeps the enriched snapshot (a superset of what it had).
        let cache_hits_shared = match hits_before {
            Some(before) => {
                let enriched = session.swap_cache(ResultCache::new());
                let job_hits = shared.tier.merge_back(&enriched, before);
                let _empty = session.swap_cache(enriched);
                job_hits
            }
            None => 0,
        };
        shared.dispatch_totals.add(&report.stats);

        let mut stats = match wire::stats_to_json(&report.stats) {
            Value::Object(pairs) => pairs,
            _ => unreachable!("stats_to_json returns an object"),
        };
        stats.push((
            "cache_hits_shared".to_string(),
            Value::from(cache_hits_shared),
        ));
        stats.push(("queue_wait_ms".to_string(), Value::from(run.queue_wait_ms)));

        obj([
            ("event", Value::from("done")),
            ("job", Value::from(job_id)),
            (
                "exit",
                Value::Int(job_exit_code(
                    report.interrupted.is_some(),
                    report.violations.len(),
                    report.stats.degraded(),
                )),
            ),
            ("full_run", Value::Bool(report.full_run)),
            (
                "interrupted",
                match report.interrupted {
                    Some(reason) => Value::from(reason.to_string()),
                    None => Value::Null,
                },
            ),
            ("violations", wire::violations_to_json(&report.violations)),
            ("stats", Value::Object(stats)),
        ])
    });

    match std::panic::catch_unwind(body) {
        Ok(done) => {
            let _ = emit(shared.chaos(), writer, &done);
        }
        Err(panic) => {
            // The job died; the session slot may hold partial engine
            // plumbing but its mutex is unlocked (guard dropped during
            // unwind) and the next job re-wires everything anyway.
            let message = panic_message(&panic);
            let _ = emit(
                shared.chaos(),
                writer,
                &obj([
                    ("event", Value::from("error")),
                    ("job", Value::from(job_id)),
                    ("error", Value::from(format!("job panicked: {message}"))),
                    ("code", Value::Int(110)),
                    ("exit", Value::Int(2)),
                ]),
            );
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
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

/// Emits an event; on a dead socket, trips the job token so the run
/// winds down instead of computing for nobody.
fn emit_or_cancel(
    shared: &ServerShared,
    writer: &Arc<Mutex<TcpStream>>,
    token: &CancelToken,
    frame: &Value,
) {
    if emit(shared.chaos(), writer, frame).is_err() {
        token.cancel(CancelReason::Interrupt);
    }
}
