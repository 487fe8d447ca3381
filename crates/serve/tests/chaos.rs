//! The server-level chaos sweep: a real `odrc serve` process with a
//! seeded fault plan (socket resets, torn journal tails, worker
//! panics, SIGKILL-modelled aborts at journal and rule ordinals) is
//! driven by a real `odrc client` process retrying one idempotency
//! key. Whatever the faults do — including killing the server
//! outright, after which the harness restarts it on the same
//! checkpoint and cache directories — the client must end up with a
//! report byte-identical to the fault-free baseline and the same exit
//! code, and the server must still be serving.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use odrc_layoutgen::{generate, DesignSpec};

const RULES: &str = "width layer=19 min=18 name=M1.W.1\n\
                     space layer=20 min=20 name=M2.S.1\n\
                     area layer=19 min=1400 name=M1.A.1\n";

const SEEDS: u64 = 25;

fn odrc_bin() -> &'static str {
    env!("CARGO_BIN_EXE_odrc")
}

/// Kills the server process on drop so a failing assertion never
/// leaks a daemon into the test environment.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// Spawns `odrc serve` on an ephemeral port and waits for its
    /// port file. `chaos_seed` arms the fault plan; `None` runs clean.
    fn spawn(dir: &Path, tag: &str, chaos_seed: Option<u64>) -> ServerProc {
        let port_file = dir.join(format!("port-{tag}"));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(odrc_bin());
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(["--host-threads", "2", "--io-timeout-ms", "2000"])
            .arg("--port-file")
            .arg(&port_file)
            .arg("--checkpoint-dir")
            .arg(dir.join("ckpt"))
            .arg("--cache")
            .arg(dir.join("cache"))
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(seed) = chaos_seed {
            cmd.args(["--chaos-seed", &seed.to_string()]);
        }
        let mut child = cmd.spawn().expect("spawn odrc serve");
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                let text = text.trim().to_string();
                if !text.is_empty() {
                    break text;
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                panic!("server {tag} exited before binding: {status}");
            }
            assert!(Instant::now() < deadline, "server {tag} never bound");
            std::thread::sleep(Duration::from_millis(20));
        };
        ServerProc { child, addr }
    }

    fn is_alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Fixture {
    gds: PathBuf,
    rules: PathBuf,
}

fn make_fixture(dir: &Path) -> Fixture {
    let gds = dir.join("tiny.gds");
    let rules = dir.join("deck.rules");
    let bytes = odrc_gdsii::write(&generate(&DesignSpec::tiny(42)).library).expect("write gds");
    std::fs::write(&gds, bytes).expect("write layout");
    std::fs::write(&rules, RULES).expect("write rules");
    Fixture { gds, rules }
}

/// One `odrc client` invocation with internal reconnect/backoff;
/// returns (exit_code, report_bytes_if_written).
fn run_client(fixture: &Fixture, addr: &str, key: &str, report: &Path) -> (i32, Option<Vec<u8>>) {
    let _ = std::fs::remove_file(report);
    let mut child = Command::new(odrc_bin())
        .arg("client")
        .arg(&fixture.gds)
        .arg("--rules")
        .arg(&fixture.rules)
        .args(["--addr", addr, "--key", key])
        .args([
            "--retries",
            "3",
            "--backoff-ms",
            "50",
            "--backoff-cap-ms",
            "250",
        ])
        .arg("--report")
        .arg(report)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("run odrc client");
    // Watchdog: a client stranded by an unmodelled fault counts as a
    // failed attempt, never as a hung sweep.
    let deadline = Instant::now() + Duration::from_secs(120);
    let code = loop {
        match child.try_wait().expect("poll client") {
            Some(status) => break status.code().unwrap_or(-1),
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break -1;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    (code, std::fs::read(report).ok())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("odrc-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn seeded_kill_restart_resubmit_sweep_preserves_reports_and_exit_codes() {
    // Fault-free baseline, once: the report and exit code every seed
    // must reproduce exactly.
    let base_dir = temp_dir("baseline");
    let fixture = make_fixture(&base_dir);
    let (baseline_exit, baseline_report) = {
        let server = ServerProc::spawn(&base_dir, "base", None);
        run_client(
            &fixture,
            &server.addr,
            "baseline",
            &base_dir.join("base.csv"),
        )
    };
    let baseline_report = baseline_report.expect("baseline report written");
    assert!(
        (0..=4).contains(&baseline_exit),
        "baseline exit {baseline_exit} out of the CLI range"
    );

    for seed in 1..=SEEDS {
        let dir = temp_dir(&format!("seed-{seed}"));
        let fixture = make_fixture(&dir);
        let key = format!("sweep-{seed}");
        let report = dir.join("report.csv");

        let mut server = ServerProc::spawn(&dir, "chaos", Some(seed));
        let mut result: Option<(i32, Vec<u8>)> = None;
        let mut restarts = 0u32;
        for _attempt in 0..12 {
            let (exit, bytes) = run_client(&fixture, &server.addr, &key, &report);
            if (0..=4).contains(&exit) && exit != 2 {
                if let Some(bytes) = bytes {
                    result = Some((exit, bytes));
                    break;
                }
            }
            if !server.is_alive() {
                // The fault plan killed the process — the crash half
                // of the contract. Restart clean on the same
                // directories; the journal replay is the recovery
                // half.
                server = ServerProc::spawn(&dir, &format!("restart-{restarts}"), None);
                restarts += 1;
            }
        }
        let (exit, bytes) = result.unwrap_or_else(|| {
            panic!("seed {seed}: no successful run in 12 attempts ({restarts} restarts)")
        });
        assert_eq!(
            exit, baseline_exit,
            "seed {seed}: exit code diverged after {restarts} restart(s)"
        );
        assert_eq!(
            bytes, baseline_report,
            "seed {seed}: report bytes diverged after {restarts} restart(s)"
        );

        // The server (original or restarted) must still be serving:
        // the same key replays the journaled result byte-identically.
        assert!(server.is_alive(), "seed {seed}: server gone after success");
        let replay = dir.join("replay.csv");
        let (replay_exit, replay_bytes) = run_client(&fixture, &server.addr, &key, &replay);
        assert_eq!(replay_exit, baseline_exit, "seed {seed}: replay exit");
        assert_eq!(
            replay_bytes.expect("replay report"),
            baseline_report,
            "seed {seed}: replayed report diverged"
        );

        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base_dir);
}
