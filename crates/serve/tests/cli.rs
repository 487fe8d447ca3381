//! The `odrc` command line end to end, through the real binary: the
//! usage errors every entry point shares, `odrc diff`, and each flag of
//! check, `serve` and `client` whose effect no other suite observes.
//! Every test asserts the flag's documented effect, not just that it
//! parses.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::time::{Duration, Instant};

use odrc::{parse_deck, Engine};
use odrc_db::{LayerPolygon, Layout};
use odrc_geometry::{Polygon, Rect};
use odrc_incremental::EditOp;
use odrc_layoutgen::{generate, DesignSpec};
use odrc_serve::json::Value;
use odrc_serve::{Client, ClientError, ServeError};

const RULES: &str = "width layer=19 min=18 name=M1.W.1\n\
                     space layer=19 min=18 name=M1.S.1\n\
                     space layer=20 min=20 name=M2.S.1\n\
                     area layer=19 min=1400 name=M1.A.1\n\
                     enclosure inner=30 outer=19 min=4 name=V1.M1.EN.1\n";

fn tiny(violation_rate: f64) -> Vec<u8> {
    let spec = DesignSpec {
        violation_rate,
        ..DesignSpec::tiny(7)
    };
    odrc_gdsii::write(&generate(&spec).library).expect("write gds")
}

/// A scratch directory holding `tiny.gds` and `deck.rules`; every
/// `odrc` it runs starts there, so paths in arguments are file names.
struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("odrc-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let fx = Fixture { dir };
        fx.write("tiny.gds", &tiny(0.1));
        fx.write("deck.rules", RULES.as_bytes());
        fx
    }

    fn write(&self, name: &str, bytes: &[u8]) {
        std::fs::write(self.dir.join(name), bytes).expect("write fixture file");
    }

    fn read(&self, name: &str) -> Vec<u8> {
        std::fs::read(self.dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
    }

    fn text(&self, name: &str) -> String {
        String::from_utf8(self.read(name)).expect("utf-8 output")
    }

    fn odrc(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_odrc"));
        cmd.args(args).current_dir(&self.dir);
        cmd
    }

    fn run(&self, args: &[&str]) -> Output {
        self.odrc(args).output().expect("run odrc")
    }

    /// `odrc tiny.gds --rules deck.rules --max-print 0` plus `args`.
    fn check(&self, args: &[&str]) -> Output {
        self.run(
            &[
                &["tiny.gds", "--rules", "deck.rules", "--max-print", "0"],
                args,
            ]
            .concat(),
        )
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn code(out: &Output) -> i32 {
    out.status
        .code()
        .unwrap_or_else(|| panic!("killed by a signal: {out:?}"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The integer value of `"key":N` in a compact stats document.
fn stat(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} missing: {json}"))
        + pat.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a counter")
}

/// Polls until `done` holds, for at most ten seconds.
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// An `odrc serve` process on an ephemeral port, killed on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(fx: &Fixture, flags: &[&str]) -> Daemon {
        let port_file = fx.dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let mut child = fx
            .odrc(&["serve", "--addr", "127.0.0.1:0", "--port-file", "port"])
            .args(flags)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn odrc serve");
        let mut addr = String::new();
        eventually("the port file", || {
            assert!(matches!(child.try_wait(), Ok(None)), "odrc serve exited");
            addr = std::fs::read_to_string(&port_file).unwrap_or_default();
            addr = addr.trim().to_string();
            !addr.is_empty()
        });
        Daemon { child, addr }
    }

    /// `odrc client` against this daemon, in `fx`'s directory.
    fn client(&self, fx: &Fixture, args: &[&str]) -> Command {
        let mut cmd = fx.odrc(&["client", "--addr", &self.addr]);
        cmd.args(args).stdout(Stdio::null()).stderr(Stdio::piped());
        cmd
    }

    /// `odrc client tiny.gds --rules deck.rules` plus `args`.
    fn check(&self, fx: &Fixture, args: &[&str]) -> Command {
        let mut cmd = self.client(fx, &["tiny.gds", "--rules", "deck.rules"]);
        cmd.args(args);
        cmd
    }

    fn connect(&self) -> Client {
        Client::connect(self.addr.as_str()).expect("connect")
    }

    fn server_stat(&self, key: &str) -> i64 {
        let stats = self.connect().stats().expect("stats");
        stats
            .get(key)
            .and_then(Value::as_i64)
            .expect("server counter")
    }

    /// Waits for the daemon to exit; returns its status and stderr.
    fn wait(&mut self) -> (ExitStatus, String) {
        let mut err = String::new();
        self.child
            .stderr
            .take()
            .expect("stderr is piped")
            .read_to_string(&mut err)
            .expect("read daemon stderr");
        (self.child.wait().expect("wait for odrc serve"), err)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Whether a request failed because its session is unknown (or evicted).
fn is_unknown_session(result: Result<u64, ClientError>) -> bool {
    let unknown = ServeError::UnknownSession(0).code();
    matches!(result, Err(ClientError::Server { code, .. }) if code == unknown)
}

#[test]
fn usage_errors_exit_2_with_the_generated_usage() {
    let fx = Fixture::new("usage");
    for argv in [
        &["--help"][..],
        &["diff", "--help"],
        &["serve", "--help"],
        &["client", "--help"],
        &["tiny.gds", "--rules"],
        &["tiny.gds", "--rules", "deck.rules", "--max-print", "x"],
        &["tiny.gds", "--rules", "deck.rules", "--host-threads", "0"],
        &["tiny.gds", "--rules", "deck.rules", "--deadline", "-1"],
        &["tiny.gds", "deck.rules"],
        &["serve", "--workers"],
        &["client", "tiny.gds", "--rules", "deck.rules"],
    ] {
        let out = fx.run(argv);
        assert_eq!(code(&out), 2, "{argv:?}");
        assert!(stderr(&out).starts_with("usage: odrc"), "{argv:?}: {out:?}");
    }
}

#[test]
fn markers_hold_one_marker_per_violation_at_its_location() {
    let fx = Fixture::new("markers");
    let out = fx.check(&["--report", "r.csv", "--markers", "m.gds"]);
    assert_eq!(code(&out), 1, "{out:?}");
    let lib = odrc_gdsii::read_file(fx.dir.join("m.gds")).expect("read markers");
    let mut markers: Vec<[i32; 4]> = lib
        .structures
        .iter()
        .flat_map(|s| &s.elements)
        .map(|e| match e {
            odrc_gdsii::Element::Boundary(b) => {
                let xs = b.points.iter().map(|p| p.x);
                let ys = b.points.iter().map(|p| p.y);
                let (x0, x1) = (xs.clone().min().unwrap(), xs.max().unwrap());
                let (y0, y1) = (ys.clone().min().unwrap(), ys.max().unwrap());
                [x0, y0, x1, y1]
            }
            other => panic!("marker file holds a non-boundary element: {other:?}"),
        })
        .collect();
    // A degenerate violation box is drawn one unit wide.
    let mut located: Vec<[i32; 4]> = fx
        .text("r.csv")
        .lines()
        .skip(1)
        .map(|row| {
            let f: Vec<i32> = row
                .split(',')
                .skip(2)
                .take(4)
                .map(|v| v.parse().unwrap())
                .collect();
            [f[0], f[1], f[2].max(f[0] + 1), f[3].max(f[1] + 1)]
        })
        .collect();
    assert!(!located.is_empty(), "the fixture must have violations");
    markers.sort_unstable();
    located.sort_unstable();
    assert_eq!(markers, located);
}

#[test]
fn device_budget_degrades_the_parallel_run_but_not_its_report() {
    let fx = Fixture::new("budget");
    let free = fx.check(&["--parallel", "--report", "free.csv"]);
    let tight = fx.check(&[
        "--parallel",
        "--device-budget",
        "200",
        "--report",
        "tight.csv",
        "--stats-json",
        "tight.json",
    ]);
    assert_eq!(code(&tight), code(&free), "{tight:?}");
    assert_eq!(fx.read("tight.csv"), fx.read("free.csv"));
    let stats = fx.text("tight.json");
    assert!(
        stat(&stats, "device_retries") + stat(&stats, "device_fallbacks") > 0,
        "a 200-byte device recovered nothing: {stats}"
    );
}

#[test]
fn watchdog_arms_without_changing_the_report() {
    let fx = Fixture::new("watchdog");
    let plain = fx.check(&["--parallel", "--report", "plain.csv"]);
    let armed = fx.check(&[
        "--parallel",
        "--watchdog-ms",
        "60000",
        "--report",
        "armed.csv",
    ]);
    assert_eq!(code(&armed), code(&plain), "{armed:?}");
    assert_eq!(fx.read("armed.csv"), fx.read("plain.csv"));
    assert!(
        stderr(&armed).contains("stream watchdog armed"),
        "{armed:?}"
    );
    assert_eq!(code(&fx.check(&["--parallel", "--watchdog-ms", "0"])), 2);
}

/// `clean.gds` has no violations and `dirty.gds` is the same design
/// with injected ones.
fn diff_fixture(tag: &str) -> Fixture {
    let fx = Fixture::new(tag);
    fx.write("clean.gds", &tiny(0.0));
    fx.write("dirty.gds", &tiny(0.6));
    fx
}

#[test]
fn diff_exits_by_added_violations_and_prints_check_delta() {
    let fx = diff_fixture("diff");
    let deck = parse_deck(RULES).expect("deck");
    let engine = Engine::sequential();
    let layout = |name: &str| Layout::from_gds(&fx.read(name)[..]).expect("layout");
    for (old, new, exit) in [("clean.gds", "dirty.gds", 1), ("dirty.gds", "clean.gds", 0)] {
        let out = fx.run(&["diff", old, new, "--rules", "deck.rules"]);
        assert_eq!(code(&out), exit, "{old} -> {new}: {out:?}");
        let (old, new) = (layout(old), layout(new));
        let base = engine.check(&old, &deck);
        let delta = engine
            .check_delta(&old, &base.violations, &new, &deck)
            .delta;
        assert_eq!(delta.added.is_empty(), exit == 0);
        let counts = format!("+{} -{} (", delta.added.len(), delta.removed.len());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&counts), "want {counts}: {stdout}");
    }
}

#[test]
fn diff_parallel_prints_identical_stdout() {
    let fx = diff_fixture("diff-par");
    let seq = fx.run(&["diff", "clean.gds", "dirty.gds", "--rules", "deck.rules"]);
    let par = fx.run(&[
        "diff",
        "clean.gds",
        "dirty.gds",
        "--rules",
        "deck.rules",
        "--parallel",
    ]);
    assert_eq!(code(&par), code(&seq));
    assert_eq!(par.stdout, seq.stdout);
}

#[test]
fn diff_rejects_flags_it_does_not_read() {
    let fx = diff_fixture("diff-flags");
    for flag in [
        &["--report", "x.csv"][..],
        &["--stats-json", "x.json"],
        &["--markers", "x.gds"],
        &["--deadline", "1"],
        &["--checkpoint-dir", "ck"],
        &["--resume", "ck"],
        &["--memory-budget", "1"],
        &["--fault-seed", "1"],
    ] {
        let argv = [
            &["diff", "clean.gds", "dirty.gds", "--rules", "deck.rules"],
            flag,
        ]
        .concat();
        let out = fx.run(&argv);
        assert_eq!(code(&out), 2, "{flag:?}: {out:?}");
        assert!(stderr(&out).starts_with("usage: odrc diff"), "{flag:?}");
    }
    assert!(!fx.dir.join("x.csv").exists());
}

#[test]
fn max_sessions_evicts_the_least_recently_used_session() {
    let fx = Fixture::new("lru");
    let daemon = Daemon::spawn(&fx, &["--max-sessions", "1"]);
    let mut a = daemon.connect();
    let session = a
        .open_bytes(&fx.read("tiny.gds"), RULES, "sequential")
        .expect("open A");
    let b = daemon.check(&fx, &[]).output().expect("run client B");
    assert!([0, 1].contains(&code(&b)), "{b:?}");
    assert!(is_unknown_session(a.check(session, 0, None)));
}

#[test]
fn session_idle_ms_evicts_an_idle_session() {
    let fx = Fixture::new("idle");
    let daemon = Daemon::spawn(&fx, &["--session-idle-ms", "40"]);
    let mut a = daemon.connect();
    let session = a
        .open_bytes(&fx.read("tiny.gds"), RULES, "sequential")
        .expect("open");
    eventually("the idle sweep", || daemon.server_stat("sessions") == 0);
    assert!(is_unknown_session(a.check(session, 0, None)));
}

#[test]
fn ping_max_misses_closes_a_silent_connection() {
    let fx = Fixture::new("ping");
    let daemon = Daemon::spawn(&fx, &["--io-timeout-ms", "30", "--ping-max-misses", "1"]);
    let silent = TcpStream::connect(&daemon.addr).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // Read, never answer: one ping arrives, then the server hangs up.
    let frames: Vec<String> = BufReader::new(silent)
        .lines()
        .map(|l| l.expect("the server closes the socket, not the read timeout"))
        .collect();
    assert_eq!(frames, [r#"{"event":"ping"}"#]);
}

#[test]
fn max_queue_sheds_the_lowest_priority_job_for_a_higher_one() {
    let fx = Fixture::new("shed");
    // No socket timeout, so a client that stops reading holds its job's
    // worker (see `hold`).
    let flags = ["--workers", "1", "--max-queue", "1", "--io-timeout-ms", "0"];
    let daemon = Daemon::spawn(&fx, &flags);
    let held = hold(&daemon);
    let low = daemon.check(&fx, &[]).spawn().expect("spawn low client");
    eventually("the queued job", || daemon.server_stat("queue_depth") == 1);
    let high = daemon
        .check(&fx, &["--priority", "5", "--report", "high.csv"])
        .spawn()
        .expect("spawn high client");

    let low = low.wait_with_output().expect("low client");
    assert_eq!(code(&low), 2, "{low:?}");
    assert!(stderr(&low).contains("shed"), "{low:?}");
    assert_eq!(daemon.server_stat("jobs_shed"), 1);

    drop(held);
    let high = high.wait_with_output().expect("high client");
    let one_shot = fx.check(&["--report", "one-shot.csv"]);
    assert_eq!(code(&high), code(&one_shot), "{high:?}");
    assert_eq!(fx.read("high.csv"), fx.read("one-shot.csv"));
}

/// Occupies the daemon's worker until the returned client drops: the
/// client never reads, and its job's `done` frame (286 violations, each
/// naming a 32 KiB rule) outgrows what a loopback socket buffers, so
/// the worker blocks writing it.
fn hold(daemon: &Daemon) -> Client {
    let rule = format!(
        "area layer=19 min=999999999 name={}\n",
        "H".repeat(32 << 10)
    );
    let gds = odrc_gdsii::write(&generate(&DesignSpec::tiny(11)).library).expect("write gds");
    let mut client = daemon.connect();
    let session = client.open_bytes(&gds, &rule, "sequential").expect("open");
    client.check(session, 0, None).expect("submit");
    eventually("the held worker", || {
        daemon.server_stat("workers_busy") == 1
    });
    client
}

#[test]
fn serve_device_budget_degrades_parallel_jobs_but_not_their_report() {
    let fx = Fixture::new("serve-budget");
    let daemon = Daemon::spawn(&fx, &["--device-budget", "200"]);
    let served = daemon
        .check(
            &fx,
            &["--parallel", "--report", "s.csv", "--stats-json", "s.json"],
        )
        .output()
        .expect("run client");
    let one_shot = fx.check(&["--parallel", "--report", "o.csv"]);
    assert_eq!(code(&served), code(&one_shot), "{served:?}");
    assert_eq!(fx.read("s.csv"), fx.read("o.csv"));
    let stats = fx.text("s.json");
    assert!(
        stat(&stats, "device_retries") + stat(&stats, "device_fallbacks") > 0,
        "a 200-byte session device recovered nothing: {stats}"
    );
}

#[test]
fn client_edits_report_equals_a_one_shot_run_on_the_edited_layout() {
    let fx = Fixture::new("edits");
    let mut layout = Layout::from_gds(&fx.read("tiny.gds")[..]).expect("layout");
    let top = layout.top();
    // A 10-unit-wide M1 bar: under M1.W.1's 18.
    let bar = LayerPolygon {
        layer: 19,
        datatype: 0,
        polygon: Polygon::rect(Rect::from_coords(0, -400, 10, -200)),
        name: None,
    };
    let op = EditOp::AddPolygon {
        cell: top,
        polygon: bar.clone(),
    };
    fx.write(
        "ops.jsonl",
        format!("{}\n", odrc_serve::wire::edit_op_to_json(&op).to_json()).as_bytes(),
    );
    layout.add_polygon(top, bar).expect("edit");
    fx.write(
        "edited.gds",
        &odrc_gdsii::write(&layout.to_library("edited")).expect("write"),
    );

    let daemon = Daemon::spawn(&fx, &[]);
    let served = daemon
        .check(&fx, &["--edits", "ops.jsonl", "--report", "served.csv"])
        .output()
        .expect("run client");
    let one_shot = fx.run(&[
        "edited.gds",
        "--rules",
        "deck.rules",
        "--report",
        "edited.csv",
    ]);
    assert_eq!(code(&served), code(&one_shot), "{served:?}");
    assert_eq!(fx.text("served.csv"), fx.text("edited.csv"));
    fx.check(&["--report", "before.csv"]);
    assert_ne!(
        fx.read("before.csv"),
        fx.read("edited.csv"),
        "the edit changed nothing"
    );
}

#[test]
fn client_deadline_ms_0_interrupts_the_job() {
    let fx = Fixture::new("deadline");
    let daemon = Daemon::spawn(&fx, &[]);
    let out = daemon
        .check(&fx, &["--deadline-ms", "0"])
        .output()
        .expect("run client");
    assert_eq!(code(&out), 4, "{out:?}");
}

#[test]
fn client_shutdown_drains_the_daemon() {
    let fx = Fixture::new("shutdown");
    let mut daemon = Daemon::spawn(&fx, &[]);
    let out = daemon
        .client(&fx, &["--shutdown"])
        .output()
        .expect("run client");
    assert_eq!(code(&out), 0, "{out:?}");
    let (status, err) = daemon.wait();
    assert!(status.success(), "{status}: {err}");
    assert!(err.contains("drained:"), "{err}");
}
