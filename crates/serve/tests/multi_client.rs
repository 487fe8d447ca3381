//! The acceptance anchor for `odrc serve`: concurrent tenants get
//! byte-identical results to a single-shot engine run, the shared
//! cache tier actually serves hits across clients, and a graceful
//! drain loses nothing in flight.

use std::fmt::Write as _;

use odrc::{parse_deck, Engine};
use odrc_db::Layout;
use odrc_layoutgen::{generate, DesignSpec};
use odrc_serve::json::Value;
use odrc_serve::{Client, Server, ServerConfig};

/// The ci.sh BEOL deck (minus the via rule — tiny generated layouts
/// carry layers 19/20/30, uart carries all of them).
const RULES: &str = "width     layer=19 min=18   name=M1.W.1\n\
                     space     layer=20 min=20   name=M2.S.1\n\
                     area      layer=19 min=1400 name=M1.A.1\n\
                     enclosure inner=30 outer=19 min=4 name=V1.M1.EN.1\n\
                     rectilinear\n";

fn uart_bytes() -> Vec<u8> {
    let spec = DesignSpec::paper("uart").expect("uart is a paper design");
    odrc_gdsii::write(&generate(&spec).library).expect("write gds")
}

/// What the one-shot path reports: the CLI `--report` CSV plus the
/// violation count, straight from a solo sequential engine.
fn single_shot_csv(gds: &[u8]) -> (usize, String) {
    let lib = odrc_gdsii::read(gds).expect("read gds");
    let layout = Layout::from_library(&lib).expect("layout");
    let deck = parse_deck(RULES).expect("deck");
    let report = Engine::sequential().check(&layout, &deck);
    let mut csv = String::from("rule,kind,x0,y0,x1,y1,measured\n");
    for v in &report.violations {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{}",
            v.rule,
            v.kind,
            v.location.lo().x,
            v.location.lo().y,
            v.location.hi().x,
            v.location.hi().y,
            v.measured
        );
    }
    (report.violations.len(), csv)
}

#[test]
fn concurrent_clients_match_single_shot_and_share_the_cache() {
    let gds = uart_bytes();
    let (expected_count, expected_csv) = single_shot_csv(&gds);
    assert!(expected_count > 0, "uart carries injected violations");

    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        host_threads: 4,
        max_queue: 16,
        cache_dir: None,
        device_budget: None,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    // Four clients, truly concurrent: every one opens its own session
    // on the same layout and deck and submits a check. All four jobs
    // multiplex over the shared ThreadGate and scheduler — and every
    // one must report exactly what the solo engine reports.
    let outcomes: Vec<_> = (0..4)
        .map(|i| {
            let gds = gds.clone();
            let expected_csv = expected_csv.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let session = client
                    .open_bytes(&gds, RULES, "sequential")
                    .expect("open session");
                let outcome = client
                    .check_wait(session, i as i64, None)
                    .expect("check job");
                assert!(outcome.error.is_none(), "client {i}: {:?}", outcome.error);
                assert_eq!(outcome.exit, 1, "client {i} must see the violations");
                assert_eq!(
                    outcome.report_csv(),
                    expected_csv,
                    "client {i}'s report must be byte-identical to the single-shot run"
                );
                // Every rule of the deck reported progress.
                let mut rules: Vec<&str> = outcome
                    .rules
                    .iter()
                    .map(|(name, _)| name.as_str())
                    .collect();
                rules.sort_unstable();
                rules.dedup();
                assert_eq!(rules.len(), 5, "five deck rules streamed progress");
                client.close(session).expect("close");
                (
                    outcome.stat("cache_hits_shared"),
                    outcome.stat("queue_wait_ms"),
                )
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    assert_eq!(outcomes.len(), 4);

    // A fifth client submits the identical layout afterwards: by now
    // at least one job has merged its verdicts into the shared tier,
    // so this job must be served from it — same bytes out, nonzero
    // shared-hit stat.
    let mut fifth = Client::connect(addr).expect("connect fifth");
    let session = fifth
        .open_bytes(&gds, RULES, "sequential")
        .expect("open fifth");
    let outcome = fifth.check_wait(session, 0, None).expect("check fifth");
    assert_eq!(outcome.exit, 1);
    assert_eq!(
        outcome.report_csv(),
        expected_csv,
        "a cache-served job must still be byte-identical"
    );
    assert!(
        outcome.stat("cache_hits_shared") > 0,
        "fifth client must hit the shared cache tier, stats: {}",
        outcome.stats.to_json()
    );

    // The server-wide counters agree.
    let stats = fifth.stats().expect("stats verb");
    assert_eq!(
        stats.get("jobs_admitted").and_then(Value::as_i64),
        Some(5),
        "{}",
        stats.to_json()
    );
    assert!(
        stats
            .get("cache_hits_shared")
            .and_then(Value::as_i64)
            .unwrap_or(0)
            > 0
    );
    assert!(
        stats
            .get("cache_entries")
            .and_then(Value::as_i64)
            .unwrap_or(0)
            > 0
    );

    // Graceful drain: all five jobs completed, nothing lost.
    handle.shutdown();
    let summary = server_thread.join().expect("join server");
    assert_eq!(summary.jobs_completed, 5);
    assert!(summary.cache_hits_shared > 0);
}

#[test]
fn edits_diverge_sessions_and_results_stay_isolated() {
    // Two tenants on the same layout; one deletes a polygon from the
    // top cell. Their results must diverge exactly as two solo runs
    // would — sessions share the cache tier, never state.
    let gds = uart_bytes();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        host_threads: 2,
        max_queue: 8,
        cache_dir: None,
        device_budget: None,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    let mut untouched = Client::connect(addr).expect("connect untouched");
    let keep = untouched
        .open_bytes(&gds, RULES, "sequential")
        .expect("open untouched");

    let mut editor = Client::connect(addr).expect("connect editor");
    let edited = editor
        .open_bytes(&gds, RULES, "sequential")
        .expect("open edited");

    // Baseline check on both sessions, then edit only one.
    let before_keep = untouched.check_wait(keep, 0, None).expect("baseline keep");
    let before_edit = editor.check_wait(edited, 0, None).expect("baseline edit");
    assert_eq!(before_keep.report_csv(), before_edit.report_csv());

    // Cell 0's polygon 0 goes away in the edited session. (The
    // generated designs give every cell some geometry, so index 0
    // exists; if generation ever changes, the typed Edit error makes
    // the failure obvious.)
    let op = odrc_serve::json::parse(r#"{"op":"remove_polygon","cell":0,"index":0}"#).unwrap();
    editor.edit(edited, vec![op]).expect("apply edit");

    let after_keep = untouched.check_wait(keep, 0, None).expect("recheck keep");
    let after_edit = editor.check_wait(edited, 0, None).expect("recheck edit");

    assert_eq!(
        after_keep.report_csv(),
        before_keep.report_csv(),
        "the untouched session must be unaffected by the other tenant's edit"
    );
    assert!(
        !after_edit.full_run,
        "the edited session re-checks incrementally, not from scratch"
    );

    // The edited session's report must equal a solo engine run on the
    // equivalently edited layout.
    let lib = odrc_gdsii::read(&gds).expect("read gds");
    let layout = Layout::from_library(&lib).expect("layout");
    let deck = parse_deck(RULES).expect("deck");
    let mut solo = odrc_incremental::Session::new(layout, Engine::sequential(), deck);
    solo.check();
    solo.apply(odrc_incremental::EditOp::RemovePolygon {
        cell: odrc_db::CellId::from_index(0),
        index: 0,
    })
    .expect("solo edit");
    let solo_report = solo.check();
    let mut solo_csv = String::from("rule,kind,x0,y0,x1,y1,measured\n");
    for v in &solo_report.violations {
        let _ = writeln!(
            solo_csv,
            "{},{},{},{},{},{},{}",
            v.rule,
            v.kind,
            v.location.lo().x,
            v.location.lo().y,
            v.location.hi().x,
            v.location.hi().y,
            v.measured
        );
    }
    assert_eq!(
        after_edit.report_csv(),
        solo_csv,
        "served incremental result must match a solo incremental session"
    );

    handle.shutdown();
    server_thread.join().expect("join server");
}
