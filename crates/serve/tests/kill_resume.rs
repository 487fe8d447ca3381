//! A real process kill mid-rule, recovered by `--resume`: an
//! out-of-core `odrc` run is aborted by the chaos hook right after a
//! `(rule, shard)` unit is journaled, and a `--resume` run on the same
//! checkpoint directory must exit like the in-core run, write a
//! byte-identical report, and re-check exactly the shards the journal
//! is missing.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use odrc_layoutgen::{generate, DesignSpec};

/// Two spacing rules and two enclosure rules: every rule shards.
const RULES: &str = "space layer=19 min=18 name=M1.S.1\n\
                     space layer=19 min=36 projection=100 name=M1.S.2\n\
                     space layer=20 min=20 name=M2.S.1\n\
                     enclosure inner=30 outer=19 min=4 name=V1.M1.EN.1\n\
                     enclosure inner=31 outer=20 min=6 name=V2.M2.EN.1\n";

/// Abort after this many shards are journaled: inside the first rule,
/// so no rule is complete when the process dies.
const KILL_AT_SHARD: u64 = 2;

/// Out-of-core with two partition rows per shard (`--shard-rows`
/// alone turns out-of-core mode on).
const SHARDED: &[&str] = &["--shard-rows", "2"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("odrc-kill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `odrc <dir>/tiny.gds --rules <dir>/deck.rules` with the
/// `mode` flags and then `extra`, in `dir`.
fn odrc(dir: &Path, mode: &[&str], extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_odrc"))
        .arg(dir.join("tiny.gds"))
        .arg("--rules")
        .arg(dir.join("deck.rules"))
        .args(["--max-print", "0"])
        .args(mode)
        .args(extra)
        .current_dir(dir)
        .output()
        .expect("run odrc")
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

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file)).expect("read run output")
}

#[test]
fn killed_sharded_run_resumes_to_the_in_core_report() {
    let dir = temp_dir("resume");
    let bytes = odrc_gdsii::write(&generate(&DesignSpec::tiny(7)).library).expect("write gds");
    std::fs::write(dir.join("tiny.gds"), bytes).expect("write layout");
    std::fs::write(dir.join("deck.rules"), RULES).expect("write rules");

    let in_core = odrc(&dir, &[], &["--report", "incore.csv"]);
    let in_core_code = in_core.status.code().expect("in-core run exits");
    assert!([0, 1].contains(&in_core_code), "in-core run: {in_core:?}");
    let full = odrc(&dir, SHARDED, &["--stats-json", "full.json"]);
    assert_eq!(full.status.code(), Some(in_core_code), "{full:?}");
    let total = stat(&read(&dir, "full.json"), "shards_checked");
    assert!(
        total > KILL_AT_SHARD,
        "only {total} shard(s): the kill must land mid-run"
    );

    let kill = KILL_AT_SHARD.to_string();
    let killed = odrc(
        &dir,
        SHARDED,
        &["--checkpoint-dir", "ck", "--chaos-kill-at-shard", &kill],
    );
    assert_eq!(
        killed.status.code(),
        None,
        "the chaos kill must end the process by a signal: {killed:?}"
    );

    let resumed = odrc(
        &dir,
        SHARDED,
        &[
            "--resume",
            "ck",
            "--report",
            "resumed.csv",
            "--stats-json",
            "resumed.json",
        ],
    );
    assert_eq!(resumed.status.code(), Some(in_core_code), "{resumed:?}");
    assert_eq!(
        std::fs::read(dir.join("resumed.csv")).unwrap(),
        std::fs::read(dir.join("incore.csv")).unwrap(),
        "resumed report differs from the in-core run"
    );
    let stats = read(&dir, "resumed.json");
    assert_eq!(stat(&stats, "rules_resumed"), 0, "{stats}");
    assert_eq!(stat(&stats, "shards_resumed"), KILL_AT_SHARD, "{stats}");
    assert_eq!(
        stat(&stats, "shards_checked") + stat(&stats, "shards_resumed"),
        total,
        "shard units are not conserved across the kill: {stats}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
