//! Crash-safe serving: idempotency keys, the durable job journal, and
//! restart replay. Every test drives a live in-process server; the
//! "restart" tests bind a second server on the same checkpoint
//! directory, which is exactly what a process restart does.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use odrc_layoutgen::{generate, DesignSpec};
use odrc_serve::json::{self, base64, Value};
use odrc_serve::{
    Client, JobJournal, JobSpec, Server, ServerConfig, ServerFault, ServerFaultPlan, ServerHandle,
};

const RULES: &str = "width layer=19 min=18 name=M1.W.1\n\
                     space layer=20 min=20 name=M2.S.1\n\
                     area layer=19 min=1400 name=M1.A.1\n";

fn tiny_gds(seed: u64) -> Vec<u8> {
    odrc_gdsii::write(&generate(&DesignSpec::tiny(seed)).library).expect("write gds")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("odrc-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

struct TestServer {
    addr: std::net::SocketAddr,
    handle: ServerHandle,
    join: Option<std::thread::JoinHandle<odrc_serve::DrainSummary>>,
}

impl TestServer {
    fn start(config: ServerConfig) -> TestServer {
        let server = Server::bind(config).expect("bind test server");
        let addr = server.addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().expect("server run"));
        TestServer {
            addr,
            handle,
            join: Some(join),
        }
    }

    fn durable(checkpoint_dir: &std::path::Path) -> TestServer {
        TestServer::start(ServerConfig {
            workers: 2,
            host_threads: 2,
            max_queue: 8,
            checkpoint_dir: Some(checkpoint_dir.to_path_buf()),
            ..ServerConfig::default()
        })
    }

    fn shutdown(mut self) -> odrc_serve::DrainSummary {
        self.handle.shutdown();
        self.join
            .take()
            .expect("not yet joined")
            .join()
            .expect("join server")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn server_stat(client: &mut Client, key: &str) -> i64 {
    let stats = client.stats().expect("stats");
    stats.get(key).and_then(Value::as_i64).unwrap_or(-1)
}

/// Polls the `health` verb until its `key` reads `want`.
fn wait_for(client: &mut Client, key: &str, want: i64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let health = client.health().expect("health");
        if health.get(key).and_then(Value::as_i64) == Some(want) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "health never read {key} = {want}: {}",
            health.to_json()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A one-worker server that never times a socket out, so a job can
/// hold the worker (see [`HeldWorker`]).
fn one_worker(checkpoint_dir: &std::path::Path, max_queue: usize) -> TestServer {
    TestServer::start(ServerConfig {
        workers: 1,
        host_threads: 2,
        max_queue,
        io_timeout_ms: 0,
        checkpoint_dir: Some(checkpoint_dir.to_path_buf()),
        ..ServerConfig::default()
    })
}

/// A raw protocol connection, for the reply flags and the exact
/// frames that `Client` hides.
struct Raw {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect raw");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Raw { stream, reader }
    }

    fn send(&mut self, frame: Value) {
        self.stream
            .write_all((frame.to_json() + "\n").as_bytes())
            .expect("send frame");
    }

    fn read(&mut self) -> Value {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read frame");
        json::parse(line.trim_end()).expect("json frame")
    }

    /// Sends a request and returns its reply, dropping the events that
    /// arrive first.
    fn request(&mut self, frame: Value) -> Value {
        self.send(frame);
        loop {
            let frame = self.read();
            if frame.get("event").is_none() {
                return frame;
            }
        }
    }

    fn open(&mut self, gds: &[u8], rules: &str) -> i64 {
        let reply = self.request(json::obj([
            ("verb", Value::from("open")),
            ("gds_b64", Value::from(base64::encode(gds))),
            ("rules", Value::from(rules)),
        ]));
        reply
            .get("session")
            .and_then(Value::as_i64)
            .expect("session")
    }

    fn check_key(&mut self, session: i64, key: &str, priority: i64) -> Value {
        self.request(json::obj([
            ("verb", Value::from("check")),
            ("session", Value::Int(session)),
            ("priority", Value::Int(priority)),
            ("key", Value::from(key)),
        ]))
    }

    /// Reads until job `job`'s terminal frame.
    fn terminal(&mut self, job: i64) -> Value {
        loop {
            let frame = self.read();
            let event = frame.get("event").and_then(Value::as_str);
            if frame.get("job").and_then(Value::as_i64) == Some(job)
                && matches!(event, Some("done" | "error"))
            {
                return frame;
            }
        }
    }
}

fn job_of(reply: &Value) -> i64 {
    reply.get("job").and_then(Value::as_i64).expect("job id")
}

fn flag(reply: &Value, name: &str) -> bool {
    reply.get(name).and_then(Value::as_bool) == Some(true)
}

/// Holds a [`one_worker`] server's worker until dropped. A connection
/// that never reads runs a job whose `done` frame — 286 violations,
/// each naming a 32 KiB rule, about 9 MiB — outgrows what a loopback
/// socket buffers (about 4 MiB), so the worker blocks writing it until
/// the connection closes.
struct HeldWorker {
    _conn: Raw,
}

impl HeldWorker {
    fn hold(addr: SocketAddr, watch: &mut Client) -> HeldWorker {
        let mut raw = Raw::connect(addr);
        let rules = format!(
            "area layer=19 min=999999999 name={}\n",
            "H".repeat(32 << 10)
        );
        let session = raw.open(&tiny_gds(11), &rules);
        raw.send(json::obj([
            ("verb", Value::from("check")),
            ("session", Value::Int(session)),
        ]));
        wait_for(watch, "workers_busy", 1);
        HeldWorker { _conn: raw }
    }
}

#[test]
fn keyed_resubmit_replays_the_result_without_rerunning() {
    let dir = temp_dir("replay");
    let server = TestServer::durable(&dir);
    let gds = tiny_gds(11);

    let mut client = Client::connect(server.addr).expect("connect");
    let session = client.open_bytes(&gds, RULES, "sequential").expect("open");
    let job = client
        .check_with_key(session, 0, None, Some("nightly-11"))
        .expect("submit");
    let first = client.wait(job).expect("wait").into_result().expect("run");
    assert!(first.exit == 0 || first.exit == 1, "clean terminal run");
    let completed_after_first = server_stat(&mut client, "jobs_completed");

    // Same key, fresh connection: the journaled result comes back
    // byte-identical (CSV report and exit code) and nothing re-runs.
    let mut again = Client::connect(server.addr).expect("reconnect");
    let session = again.open_bytes(&gds, RULES, "sequential").expect("open");
    let job = again
        .check_with_key(session, 0, None, Some("nightly-11"))
        .expect("resubmit");
    let second = again.wait(job).expect("wait").into_result().expect("run");
    assert_eq!(second.report_csv(), first.report_csv(), "byte-identical");
    assert_eq!(second.exit, first.exit);
    assert_eq!(
        server_stat(&mut again, "jobs_completed"),
        completed_after_first,
        "a replayed key must not admit a second run"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn raw_resubmit_carries_the_replayed_flag_and_a_fresh_job_id() {
    let dir = temp_dir("flag");
    let server = TestServer::durable(&dir);
    let gds = tiny_gds(12);

    let mut client = Client::connect(server.addr).expect("connect");
    let session = client.open_bytes(&gds, RULES, "sequential").expect("open");
    let job = client
        .check_with_key(session, 0, None, Some("k-flag"))
        .expect("submit");
    let first = client.wait(job).expect("wait").into_result().expect("run");

    // Resubmit over a raw socket so the response envelope is visible.
    let mut stream = TcpStream::connect(server.addr).expect("connect raw");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let open = json::obj([
        ("verb", Value::from("open")),
        ("gds_b64", Value::from(base64::encode(&gds))),
        ("rules", Value::from(RULES)),
    ]);
    stream
        .write_all((open.to_json() + "\n").as_bytes())
        .expect("send open");
    let mut line = String::new();
    reader.read_line(&mut line).expect("open reply");
    let open_reply = json::parse(line.trim_end()).expect("json");
    let raw_session = open_reply.get("session").and_then(Value::as_i64).unwrap();

    let check = json::obj([
        ("verb", Value::from("check")),
        ("session", Value::Int(raw_session)),
        ("key", Value::from("k-flag")),
    ]);
    stream
        .write_all((check.to_json() + "\n").as_bytes())
        .expect("send check");

    // Three frames come back: the queued event, the journaled
    // terminal frame, and the ok-reply with the replayed flag.
    let mut saw_replayed_reply = false;
    let mut terminal: Option<Value> = None;
    for _ in 0..8 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read frame");
        let frame = json::parse(line.trim_end()).expect("json frame");
        if frame.get("ok").and_then(Value::as_bool) == Some(true)
            && frame.get("replayed").and_then(Value::as_bool) == Some(true)
        {
            saw_replayed_reply = true;
        }
        if frame.get("event").and_then(Value::as_str) == Some("done") {
            terminal = Some(frame);
        }
        if saw_replayed_reply && terminal.is_some() {
            break;
        }
    }
    assert!(saw_replayed_reply, "reply must carry replayed:true");
    let terminal = terminal.expect("terminal frame replayed");
    let replay_job = terminal.get("job").and_then(Value::as_i64).unwrap();
    assert_ne!(
        replay_job as u64, first.job,
        "replayed frames get a fresh job id"
    );
    assert_eq!(
        terminal.get("exit").and_then(Value::as_i64),
        Some(first.exit),
        "journaled exit code survives the replay"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_replays_finished_jobs_from_the_journal() {
    let dir = temp_dir("restart-done");
    let gds = tiny_gds(13);

    let first = {
        let server = TestServer::durable(&dir);
        let mut client = Client::connect(server.addr).expect("connect");
        let session = client.open_bytes(&gds, RULES, "sequential").expect("open");
        let job = client
            .check_with_key(session, 0, None, Some("k-restart"))
            .expect("submit");
        let outcome = client.wait(job).expect("wait").into_result().expect("run");
        server.shutdown();
        outcome
    };

    // A new server on the same checkpoint directory — the process
    // restart — must answer the key from the journal without running
    // anything.
    let server = TestServer::durable(&dir);
    let mut client = Client::connect(server.addr).expect("connect");
    let session = client.open_bytes(&gds, RULES, "sequential").expect("open");
    let job = client
        .check_with_key(session, 0, None, Some("k-restart"))
        .expect("resubmit");
    let second = client.wait(job).expect("wait").into_result().expect("run");
    assert_eq!(second.report_csv(), first.report_csv());
    assert_eq!(second.exit, first.exit);
    assert_eq!(
        server_stat(&mut client, "jobs_completed"),
        0,
        "replay must not re-run the job"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_re_admits_interrupted_jobs_and_finishes_them_headless() {
    let dir = temp_dir("restart-pending");
    let gds = tiny_gds(14);

    // Model a server killed between admission and completion: the
    // journal holds the admit record (with the layout snapshot) and
    // nothing else — exactly what a crash mid-run leaves behind.
    {
        let (mut journal, replayed) = JobJournal::open_dir(&dir).expect("open journal");
        assert!(replayed.is_empty());
        journal
            .record_admit(
                &JobSpec {
                    key: "k-pending".to_string(),
                    gds: gds.clone(),
                    rules: RULES.to_string(),
                    mode: "sequential".to_string(),
                    priority: 0,
                    deadline_ms: None,
                },
                None,
            )
            .expect("journal admit");
    }

    // Bind replays the journal and re-admits the job headless; it
    // runs to completion with no client attached.
    let server = TestServer::durable(&dir);
    let mut client = Client::connect(server.addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(60);
    while server_stat(&mut client, "jobs_completed") < 1 {
        assert!(
            Instant::now() < deadline,
            "re-admitted job must finish on its own"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The resubmitting client now replays the headless run's result,
    // byte-identical to submitting against a fresh server.
    let session = client.open_bytes(&gds, RULES, "sequential").expect("open");
    let job = client
        .check_with_key(session, 0, None, Some("k-pending"))
        .expect("resubmit");
    let replayed = client.wait(job).expect("wait").into_result().expect("run");

    let baseline = {
        let bdir = temp_dir("restart-pending-baseline");
        let bserver = TestServer::durable(&bdir);
        let mut bclient = Client::connect(bserver.addr).expect("connect");
        let session = bclient.open_bytes(&gds, RULES, "sequential").expect("open");
        let outcome = bclient
            .check_wait(session, 0, None)
            .expect("baseline check");
        bserver.shutdown();
        let _ = std::fs::remove_dir_all(&bdir);
        outcome
    };
    assert_eq!(replayed.report_csv(), baseline.report_csv());
    assert_eq!(replayed.exit, baseline.exit);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_panic_leaves_the_key_retryable_and_the_retry_converges() {
    let dir = temp_dir("panic-retry");
    let gds = tiny_gds(15);
    // One injected worker panic on the first job start; the plan is
    // one-shot, so the resubmission runs clean.
    let server = TestServer::start(ServerConfig {
        workers: 2,
        host_threads: 2,
        max_queue: 8,
        checkpoint_dir: Some(dir.clone()),
        chaos: Some(ServerFaultPlan::new().with(ServerFault::WorkerPanic { nth: 0 })),
        ..ServerConfig::default()
    });

    let mut client = Client::connect(server.addr).expect("connect");
    let session = client.open_bytes(&gds, RULES, "sequential").expect("open");
    let job = client
        .check_with_key(session, 0, None, Some("k-panic"))
        .expect("submit");
    let crashed = client.wait(job).expect("wait");
    assert!(crashed.error.is_some(), "injected panic reaches the client");
    assert_eq!(crashed.error_code, Some(110));

    // A panic is transient by policy: the journal still holds the
    // admission, the registry no longer pins the key, so the same key
    // re-runs — this time to completion.
    let job = client
        .check_with_key(session, 0, None, Some("k-panic"))
        .expect("resubmit");
    let ok = client.wait(job).expect("wait").into_result().expect("run");
    assert!(ok.error.is_none());
    assert!(ok.exit == 0 || ok.exit == 1);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn health_reports_liveness_and_durability() {
    let dir = temp_dir("health");
    let server = TestServer::durable(&dir);
    let mut client = Client::connect(server.addr).expect("connect");
    client.ping().expect("ping round-trips");
    let health = client.health().expect("health");
    assert_eq!(health.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(health.get("draining").and_then(Value::as_bool), Some(false));
    assert_eq!(health.get("durable").and_then(Value::as_bool), Some(true));
    assert!(health.get("uptime_ms").and_then(Value::as_i64).is_some());
    assert_eq!(health.get("queue_depth").and_then(Value::as_i64), Some(0));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_first_submissions_of_one_key_admit_once() {
    const ROUNDS: usize = 10;
    const SUBMITTERS: usize = 6;
    let dir = temp_dir("concurrent-key");
    let server = TestServer::durable(&dir);
    let gds = Arc::new(tiny_gds(17));
    let mut watch = Client::connect(server.addr).expect("connect");

    for round in 0..ROUNDS {
        let key = format!("race-{round}");
        let admitted = server_stat(&mut watch, "jobs_admitted");
        // Every submitter has its session open before any submits, so
        // the submissions race on the key and nothing else.
        let barrier = Arc::new(Barrier::new(SUBMITTERS));
        let (tx, rx) = mpsc::channel();
        for _ in 0..SUBMITTERS {
            let (addr, gds, key) = (server.addr, Arc::clone(&gds), key.clone());
            let (barrier, tx) = (Arc::clone(&barrier), tx.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let session = client.open_bytes(&gds, RULES, "sequential").expect("open");
                barrier.wait();
                let job = client
                    .check_with_key(session, 0, None, Some(&key))
                    .expect("submit");
                let outcome = client.wait(job).expect("wait").into_result().expect("run");
                let _ = tx.send(outcome.report_csv());
            });
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let reports: Vec<String> = (0..SUBMITTERS)
            .map(|_| {
                let left = deadline.saturating_duration_since(Instant::now());
                rx.recv_timeout(left)
                    .unwrap_or_else(|_| panic!("round {round}: a submitter got no terminal frame"))
            })
            .collect();
        assert!(
            reports.iter().all(|r| *r == reports[0]),
            "round {round}: every submitter sees the one run's report"
        );
        assert_eq!(
            server_stat(&mut watch, "jobs_admitted"),
            admitted + 1,
            "round {round}: concurrent first submissions of one key admit one run"
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resubmitting_a_queued_key_attaches_to_its_run() {
    let dir = temp_dir("attach-queued");
    let server = one_worker(&dir, 8);
    let gds = tiny_gds(18);
    let mut watch = Client::connect(server.addr).expect("connect");
    let held = HeldWorker::hold(server.addr, &mut watch);
    let admitted = server_stat(&mut watch, "jobs_admitted");

    let mut owner = Raw::connect(server.addr);
    let session = owner.open(&gds, RULES);
    let reply = owner.check_key(session, "k-queued", 0);
    assert!(!flag(&reply, "attached") && !flag(&reply, "replayed"));
    let job = job_of(&reply);
    wait_for(&mut watch, "queue_depth", 1);

    let mut attacher = Raw::connect(server.addr);
    let session = attacher.open(&gds, RULES);
    let reply = attacher.check_key(session, "k-queued", 0);
    assert!(flag(&reply, "attached"), "{}", reply.to_json());
    assert_eq!(job_of(&reply), job, "the attacher learns the run's job id");

    drop(held);
    let frame = owner.terminal(job);
    assert_eq!(frame.get("event").and_then(Value::as_str), Some("done"));
    assert_eq!(attacher.terminal(job).to_json(), frame.to_json());
    assert_eq!(
        server_stat(&mut watch, "jobs_admitted"),
        admitted + 1,
        "one run for both submissions"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shedding_releases_a_queued_key_and_tells_its_waiters() {
    let dir = temp_dir("shed-key");
    let server = one_worker(&dir, 1);
    let gds = tiny_gds(19);
    let mut watch = Client::connect(server.addr).expect("connect");
    let held = HeldWorker::hold(server.addr, &mut watch);
    let shed = |outcome: &odrc_serve::JobOutcome| {
        assert_eq!(outcome.error_code, Some(111), "{:?}", outcome.error);
        assert!(outcome.retry_after_ms.is_some_and(|ms| ms > 0));
    };

    // A queued session job is shed by a keyed job of higher priority...
    let mut plain = Client::connect(server.addr).expect("connect");
    let session = plain.open_bytes(&gds, RULES, "sequential").expect("open");
    let plain_job = plain.check(session, 0, None).expect("submit");
    let mut keyed = Client::connect(server.addr).expect("connect");
    let keyed_session = keyed.open_bytes(&gds, RULES, "sequential").expect("open");
    let keyed_job = keyed
        .check_with_key(keyed_session, 5, None, Some("k-shed"))
        .expect("submit keyed");
    shed(&plain.wait(plain_job).expect("wait"));

    // ... which is shed in turn, along with the connection attached to
    // its key.
    let mut waiter = Raw::connect(server.addr);
    let waiter_session = waiter.open(&gds, RULES);
    let reply = waiter.check_key(waiter_session, "k-shed", 0);
    assert!(flag(&reply, "attached"), "{}", reply.to_json());
    let mut urgent = Client::connect(server.addr).expect("connect");
    let urgent_session = urgent.open_bytes(&gds, RULES, "sequential").expect("open");
    let urgent_job = urgent.check(urgent_session, 9, None).expect("submit");
    shed(&keyed.wait(keyed_job).expect("wait"));
    let frame = waiter.terminal(keyed_job as i64);
    assert_eq!(frame.get("code").and_then(Value::as_i64), Some(111));
    assert!(frame
        .get("retry_after_ms")
        .and_then(Value::as_i64)
        .is_some());
    assert_eq!(server_stat(&mut watch, "jobs_shed"), 2);

    drop(held);
    let outcome = urgent.wait(urgent_job).expect("wait");
    assert!(outcome.error.is_none(), "{:?}", outcome.error);

    // The shed key is vacant: resubmitting it admits a fresh run.
    let admitted = server_stat(&mut watch, "jobs_admitted");
    let job = keyed
        .check_with_key(keyed_session, 0, None, Some("k-shed"))
        .expect("resubmit");
    let outcome = keyed.wait(job).expect("wait").into_result().expect("run");
    assert!(outcome.exit == 0 || outcome.exit == 1);
    assert_eq!(server_stat(&mut watch, "jobs_admitted"), admitted + 1);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keyed_job_outlives_its_owner_and_replays_without_rerunning() {
    let dir = temp_dir("orphan-key");
    let server = one_worker(&dir, 8);
    let gds = tiny_gds(20);
    let mut watch = Client::connect(server.addr).expect("connect");
    let held = HeldWorker::hold(server.addr, &mut watch);

    // The owner submits and disconnects while its job is still queued.
    let mut owner = Raw::connect(server.addr);
    let session = owner.open(&gds, RULES);
    owner.check_key(session, "k-orphan", 0);
    wait_for(&mut watch, "queue_depth", 1);
    drop(owner);

    drop(held);
    wait_for(&mut watch, "live_jobs", 0);
    let admitted = server_stat(&mut watch, "jobs_admitted");
    let mut client = Client::connect(server.addr).expect("connect");
    let session = client.open_bytes(&gds, RULES, "sequential").expect("open");
    let job = client
        .check_with_key(session, 0, None, Some("k-orphan"))
        .expect("resubmit");
    let outcome = client.wait(job).expect("wait").into_result().expect("run");
    assert!(outcome.exit == 0 || outcome.exit == 1, "the run completed");
    assert_eq!(
        server_stat(&mut watch, "jobs_admitted"),
        admitted,
        "the resubmission replays the orphaned run"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// TOP (one narrow M1 bar) places A (ten narrow bars). Once the edit
/// below removes that placement, A is unreferenced and holds the larger
/// subtree, so a loader picking its own top from an export of the whole
/// session would check A; the session's top is still TOP.
fn orphaning_gds() -> Vec<u8> {
    use odrc_gdsii::{Element, Library, Structure};
    use odrc_geometry::Point;
    let bar = |x: i32| {
        Element::boundary(
            19,
            vec![
                Point::new(x, 0),
                Point::new(x, 100),
                Point::new(x + 10, 100),
                Point::new(x + 10, 0),
            ],
        )
    };
    let mut lib = Library::new("orphan");
    let mut top = Structure::new("TOP");
    top.elements.push(bar(0));
    top.elements.push(Element::sref("A", Point::new(0, 1000)));
    let mut a = Structure::new("A");
    a.elements.extend((0..10).map(|i| bar(i * 50)));
    lib.structures = vec![top, a];
    odrc_gdsii::write(&lib).expect("write gds")
}

/// Opens the orphaning layout and removes TOP's placement of A.
fn open_orphaned(client: &mut Client) -> u64 {
    let rules = "width layer=19 min=18 name=M1.W.1\n";
    let session = client
        .open_bytes(&orphaning_gds(), rules, "sequential")
        .expect("open");
    let remove = json::obj([
        ("op", Value::from("remove_ref")),
        ("parent", Value::Int(0)),
        ("index", Value::Int(0)),
    ]);
    assert_eq!(client.edit(session, vec![remove]).expect("edit"), 1);
    session
}

#[test]
fn keyed_job_checks_the_session_top_after_an_edit_orphans_a_cell() {
    // Live: the keyed job and the session job report the same one
    // violation, TOP's bar.
    let dir = temp_dir("orphan-live");
    let server = TestServer::durable(&dir);
    let mut client = Client::connect(server.addr).expect("connect");
    let session = open_orphaned(&mut client);
    let job = client
        .check_with_key(session, 0, None, Some("k-orphan-live"))
        .expect("submit keyed");
    let keyed = client.wait(job).expect("wait").into_result().expect("run");
    let plain = client
        .check_wait(session, 0, None)
        .expect("session check")
        .into_result()
        .expect("run");
    assert_eq!(plain.violations.len(), 1, "the session checks TOP alone");
    assert_eq!(
        keyed.report_csv(),
        plain.report_csv(),
        "keyed vs session job"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Replayed: a job that died at its start leaves its admit record
    // pending; a restart re-admits it from the journal alone.
    let dir = temp_dir("orphan-replay");
    let server = TestServer::start(ServerConfig {
        workers: 2,
        host_threads: 2,
        max_queue: 8,
        checkpoint_dir: Some(dir.clone()),
        chaos: Some(ServerFaultPlan::new().with(ServerFault::WorkerPanic { nth: 0 })),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr).expect("connect");
    let session = open_orphaned(&mut client);
    let job = client
        .check_with_key(session, 0, None, Some("k-orphan-replay"))
        .expect("submit keyed");
    let crashed = client.wait(job).expect("wait");
    assert_eq!(crashed.error_code, Some(110), "the injected panic");
    server.shutdown();

    let server = TestServer::durable(&dir);
    let mut client = Client::connect(server.addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(60);
    while server_stat(&mut client, "jobs_completed") < 1 {
        assert!(Instant::now() < deadline, "the re-admitted job finishes");
        std::thread::sleep(Duration::from_millis(20));
    }
    let session = open_orphaned(&mut client);
    let job = client
        .check_with_key(session, 0, None, Some("k-orphan-replay"))
        .expect("resubmit");
    let replayed = client.wait(job).expect("wait").into_result().expect("run");
    assert_eq!(
        replayed.report_csv(),
        plain.report_csv(),
        "restart re-admission vs session job"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
