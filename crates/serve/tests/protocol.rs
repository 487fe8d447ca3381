//! Protocol robustness: a hostile or sloppy client must get typed
//! errors — never a panic — and must not be able to poison the server
//! for other tenants. Each test speaks to a live in-process server
//! over real sockets.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use odrc_layoutgen::{generate, DesignSpec};
use odrc_serve::json::{self, Value};
use odrc_serve::{Client, ClientError, Server, ServerConfig, ServerHandle};

const RULES: &str = "width layer=19 min=18 name=M1.W.1\n\
                     space layer=20 min=20 name=M2.S.1\n\
                     area layer=19 min=1400 name=M1.A.1\n";

fn tiny_gds(seed: u64) -> Vec<u8> {
    odrc_gdsii::write(&generate(&DesignSpec::tiny(seed)).library).expect("write gds")
}

struct TestServer {
    addr: std::net::SocketAddr,
    handle: ServerHandle,
    join: Option<std::thread::JoinHandle<odrc_serve::DrainSummary>>,
}

impl TestServer {
    fn start() -> TestServer {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            host_threads: 2,
            max_queue: 8,
            cache_dir: None,
            device_budget: None,
            ..ServerConfig::default()
        })
        .expect("bind test server");
        let addr = server.addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().expect("server run"));
        TestServer {
            addr,
            handle,
            join: Some(join),
        }
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

fn send_line(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Value {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    json::parse(line.trim_end()).expect("response is json")
}

fn error_code(v: &Value) -> i64 {
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{v:?}");
    v.get("code").and_then(Value::as_i64).expect("error code")
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let server = TestServer::start();
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Garbage JSON, wrong top-level type, unknown verb, missing
    // fields, dangling ids — every one a typed code, none fatal.
    for (frame, code) in [
        ("this is not json", 100),
        ("[1,2,3]", 100),
        ("{\"verb\":42}", 100),
        ("{\"no_verb\":true}", 100),
        ("{\"verb\":\"frobnicate\"}", 102),
        ("{\"verb\":\"check\"}", 100),
        ("{\"verb\":\"check\",\"session\":9999}", 103),
        ("{\"verb\":\"cancel\",\"job\":9999}", 104),
        ("{\"verb\":\"close\",\"session\":9999}", 103),
        ("{\"verb\":\"edit\",\"session\":9999,\"ops\":[]}", 103),
        ("{\"verb\":\"open\",\"rules\":\"width layer=1 min=2\"}", 100),
        (
            "{\"verb\":\"open\",\"gds_b64\":\"!!!\",\"rules\":\"x\"}",
            107,
        ),
    ] {
        send_line(&mut stream, frame);
        let response = read_response(&mut reader);
        assert_eq!(
            error_code(&response),
            code,
            "frame {frame:?} -> {response:?}"
        );
    }

    // Same connection still answers a well-formed request.
    send_line(&mut stream, "{\"verb\":\"hello\"}");
    let hello = read_response(&mut reader);
    assert_eq!(hello.get("ok").and_then(Value::as_bool), Some(true));

    server.shutdown();
}

#[test]
fn bad_rule_decks_and_bad_layouts_are_typed_errors() {
    let server = TestServer::start();
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Valid base64 that is not GDSII.
    send_line(
        &mut stream,
        "{\"verb\":\"open\",\"gds_b64\":\"aGVsbG8=\",\"rules\":\"width layer=1 min=2\"}",
    );
    assert_eq!(error_code(&read_response(&mut reader)), 107);

    // Valid GDSII, garbage deck.
    let b64 = json::base64::encode(&tiny_gds(1));
    send_line(
        &mut stream,
        &format!("{{\"verb\":\"open\",\"gds_b64\":\"{b64}\",\"rules\":\"frob quux\"}}"),
    );
    assert_eq!(error_code(&read_response(&mut reader)), 108);

    // Valid GDSII + valid deck + bogus mode.
    send_line(
        &mut stream,
        &format!(
            "{{\"verb\":\"open\",\"gds_b64\":\"{b64}\",\"rules\":\"width layer=19 min=18\",\
             \"mode\":\"quantum\"}}"
        ),
    );
    assert_eq!(error_code(&read_response(&mut reader)), 100);

    server.shutdown();
}

/// `open` has two layout sources and one loader: the same file by
/// server-side `path` and inline as `gds_b64` opens to the same cells
/// and checks to the same bytes.
#[test]
fn open_by_path_and_by_bytes_load_the_same_layout() {
    let server = TestServer::start();
    let gds = tiny_gds(5);
    let path = std::env::temp_dir().join(format!("odrc-protocol-open-{}.gds", std::process::id()));
    std::fs::write(&path, &gds).expect("write gds");

    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let rules = Value::from(RULES).to_json();
    let sources = [
        format!(
            "\"path\":{}",
            Value::from(path.to_str().expect("utf-8 path")).to_json()
        ),
        format!("\"gds_b64\":\"{}\"", json::base64::encode(&gds)),
    ];
    let mut client = Client::connect(server.addr).expect("connect client");
    let opened = sources.map(|source| {
        send_line(
            &mut stream,
            &format!("{{\"verb\":\"open\",{source},\"rules\":{rules}}}"),
        );
        let response = read_response(&mut reader);
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{response:?}"
        );
        let cells = response
            .get("cells")
            .and_then(Value::as_i64)
            .expect("cells");
        let session = response
            .get("session")
            .and_then(Value::as_i64)
            .expect("session");
        let outcome = client.check_wait(session as u64, 0, None).expect("check");
        (cells, outcome.exit, outcome.report_csv())
    });
    assert!(opened[0].0 > 0);
    assert_eq!(opened[0], opened[1]);

    // A path that does not open is a layout error, like bad bytes.
    send_line(
        &mut stream,
        &format!("{{\"verb\":\"open\",\"path\":\"/nonexistent/odrc.gds\",\"rules\":{rules}}}"),
    );
    assert_eq!(error_code(&read_response(&mut reader)), 107);

    let _ = std::fs::remove_file(&path);
    server.shutdown();
}

#[test]
fn oversized_frame_is_reported_and_fatal_but_server_lives_on() {
    let server = TestServer::start();
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Stream > MAX_FRAME_BYTES without a newline. The server reports
    // code 101 and drops the connection; depending on timing our
    // writes may start failing first (the socket is already closed),
    // which is equally acceptable — what matters is the server's
    // health afterwards.
    let chunk = vec![b'a'; 1 << 20];
    let mut sent = 0usize;
    let mut write_failed = false;
    while sent <= odrc_serve::MAX_FRAME_BYTES {
        match stream.write_all(&chunk) {
            Ok(()) => sent += chunk.len(),
            Err(_) => {
                write_failed = true;
                break;
            }
        }
    }
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => {
            let response = json::parse(line.trim_end()).expect("error frame");
            assert_eq!(error_code(&response), 101);
            // And then the connection is gone.
            line.clear();
            assert!(matches!(reader.read_line(&mut line), Ok(0) | Err(_)));
        }
        // The error frame can be lost to the connection reset; the
        // contract that matters is termination, which reaching here
        // proves (read_line returned instead of blocking forever).
        _ => {
            let _ = write_failed;
        }
    }

    // A fresh connection is served normally.
    let client = Client::connect(server.addr);
    assert!(client.is_ok(), "server must survive an oversized frame");

    server.shutdown();
}

#[test]
fn half_closed_socket_mid_frame_is_an_error_not_a_hang() {
    let server = TestServer::start();
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Send half a frame, then close our write side. The server must
    // answer with a protocol error (EOF inside a frame), then see the
    // clean EOF and hang up — without wedging the accept loop.
    stream.write_all(b"{\"verb\":\"hel").expect("send partial");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let response = read_response(&mut reader);
    assert_eq!(error_code(&response), 100);
    let mut rest = String::new();
    assert!(matches!(reader.read_line(&mut rest), Ok(0) | Err(_)));

    let client = Client::connect(server.addr);
    assert!(client.is_ok(), "server must survive a half-closed peer");

    server.shutdown();
}

#[test]
fn disconnect_mid_job_cancels_it_and_the_scheduler_stays_healthy() {
    let server = TestServer::start();
    let gds = tiny_gds(7);

    // Client A opens a session, submits a job, and vanishes without
    // reading a single event.
    {
        let mut a = Client::connect(server.addr).expect("connect a");
        let session = a.open_bytes(&gds, RULES, "sequential").expect("open");
        let _job = a.check(session, 0, None).expect("submit");
        // Drop without wait(): the TCP teardown is client A's exit.
    }

    // Client B is unaffected: its own job runs to completion, and the
    // orphaned job winds down (live_jobs reaches 0) instead of
    // wedging a worker or the session registry.
    let mut b = Client::connect(server.addr).expect("connect b");
    let session = b.open_bytes(&gds, RULES, "sequential").expect("open b");
    let outcome = b.check_wait(session, 0, None).expect("check b");
    assert!(outcome.error.is_none(), "{:?}", outcome.error);
    assert_eq!(outcome.exit, 1, "tiny layouts carry injected violations");

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = b.stats().expect("stats");
        if stats.get("live_jobs").and_then(Value::as_i64) == Some(0) {
            assert!(
                stats
                    .get("jobs_admitted")
                    .and_then(Value::as_i64)
                    .unwrap_or(0)
                    >= 2
            );
            break;
        }
        assert!(Instant::now() < deadline, "orphaned job never wound down");
        std::thread::sleep(Duration::from_millis(25));
    }

    server.shutdown();
}

#[test]
fn expired_deadline_reports_exit_4_with_partial_results() {
    let server = TestServer::start();
    let gds = tiny_gds(3);
    let mut client = Client::connect(server.addr).expect("connect");
    let session = client.open_bytes(&gds, RULES, "sequential").expect("open");

    // A zero deadline is already expired when the job runs: the engine
    // winds down at the first rule boundary and the job reports the
    // CLI's interrupted exit code through the normal done event.
    let outcome = client.check_wait(session, 0, Some(0)).expect("check");
    assert_eq!(outcome.exit, 4, "expired deadline must exit 4");
    assert_eq!(outcome.interrupted.as_deref(), Some("deadline exceeded"));

    // The session survives interruption: a follow-up unbounded job
    // completes normally.
    let outcome = client.check_wait(session, 0, None).expect("recheck");
    assert_eq!(outcome.exit, 1);
    assert!(outcome.interrupted.is_none());

    server.shutdown();
}

#[test]
fn draining_server_rejects_new_jobs_but_finishes_old_ones() {
    let server = TestServer::start();
    let gds = tiny_gds(9);
    let mut client = Client::connect(server.addr).expect("connect");
    let session = client.open_bytes(&gds, RULES, "sequential").expect("open");
    let job = client.check(session, 0, None).expect("submit before drain");

    server.handle.shutdown();

    // The in-flight job still delivers its terminal event.
    let outcome = client.wait(job).expect("wait across drain");
    assert!(outcome.error.is_none());
    assert_eq!(outcome.exit, 1);

    // New submissions bounce with the typed rejection. The accept
    // loop flips the drain flag within one poll interval of the
    // trigger, so a submission can race in just ahead of it — such a
    // job still runs to completion (drain is graceful); retry until
    // the flag lands.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client.check(session, 0, None) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, 105, "rejection must use the Rejected code");
                break;
            }
            Ok(job) => {
                let raced = client.wait(job).expect("raced-in job still completes");
                assert!(raced.error.is_none());
            }
            Err(other) => panic!("expected rejection, got {other:?}"),
        }
        assert!(Instant::now() < deadline, "drain flag never landed");
        std::thread::sleep(Duration::from_millis(25));
    }

    let summary = server.shutdown();
    assert!(summary.jobs_completed >= 1);
}
