//! Durable job journal: the server's crash-safe memory of admitted,
//! running, and completed jobs.
//!
//! Every `check` submitted with a client-supplied **idempotency key**
//! is recorded in an append-only [`RecordLog`] (the same checksummed
//! framing as the engine's checkpoint journal) *before* it is
//! acknowledged. Three record kinds, JSON payloads:
//!
//! * `admit` — the full job spec (layout GDS bytes base64'd, rules
//!   text, mode, priority, optional deadline), keyed by the
//!   idempotency key. Written at admission.
//! * `start` — the key, written when a worker picks the job up.
//!   Purely diagnostic today (a pending job is re-admitted on replay
//!   whether or not it started), but it pins down *where* a crash
//!   landed when a human reads the journal.
//! * `done` — the key plus the terminal result frame the owner was
//!   sent. Written only for results worth replaying verbatim (see
//!   the terminal policy in `server.rs`): a completed or
//!   deadline-expired job, never one interrupted by cancel/disconnect/
//!   drain — those stay pending and resume on restart.
//!
//! On open the journal replays the log, reduces it to per-key state
//! (`done` wins over `admit`), and **compacts** the file: finished
//! keys keep only their `done` record (capped at
//! [`MAX_DONE_RETAINED`], oldest evicted first), pending keys keep
//! their `admit`. The server re-admits every pending spec as a
//! headless job — each wired to its per-key `CheckpointJournal`, so a
//! job killed mid-rule resumes at the rule boundary, not from scratch.
//!
//! Chaos: when a [`ChaosState`](crate::chaos::ChaosState) is armed,
//! every append first consults [`ChaosState::on_journal_append`] and
//! honors crash fates — aborting the process outright, or writing
//! exactly half the frame first so the next open must heal a torn
//! tail. The abort happens *here*, at the journal's own frame
//! boundary, which is what makes the torn-tail byte offset
//! deterministic per seed.
//!
//! [`ChaosState::on_journal_append`]: crate::chaos::ChaosState::on_journal_append

use std::collections::HashMap;
use std::io;
use std::path::Path;

use odrc_infra::RecordLog;

use crate::chaos::{ChaosState, JournalFate};
use crate::json::{self, base64, obj, Value};

/// File name of the job journal inside the checkpoint directory.
pub const JOB_JOURNAL_FILE: &str = "odrc-jobs.bin";

/// Format tag for the job journal's record log.
const MAGIC: &[u8; 8] = b"ODRCJOB1";

/// How many finished jobs' terminal frames survive compaction. Bounds
/// the journal (and the idempotency window) without a clock: the
/// oldest `done` records are evicted first, after which a resubmit of
/// that key re-runs the check — correct, just not cached.
pub const MAX_DONE_RETAINED: usize = 256;

/// Everything needed to re-run a journaled job from scratch: the
/// layout snapshot (GDS bytes), the rules text, and the scheduling
/// knobs the original submission carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Client-supplied idempotency key.
    pub key: String,
    /// The session layout at submission time, exported as GDSII.
    pub gds: Vec<u8>,
    /// Rule deck source text.
    pub rules: String,
    /// Engine mode (`"sequential"` or `"parallel"`).
    pub mode: String,
    /// Scheduling priority.
    pub priority: i64,
    /// Wall-clock deadline in milliseconds, if the submission had one.
    pub deadline_ms: Option<i64>,
}

impl JobSpec {
    fn to_admit_payload(&self) -> Vec<u8> {
        let mut pairs = vec![
            ("rec", Value::Str("admit".into())),
            ("key", Value::Str(self.key.clone())),
            ("gds_b64", Value::Str(base64::encode(&self.gds))),
            ("rules", Value::Str(self.rules.clone())),
            ("mode", Value::Str(self.mode.clone())),
            ("priority", Value::Int(self.priority)),
        ];
        if let Some(d) = self.deadline_ms {
            pairs.push(("deadline_ms", Value::Int(d)));
        }
        obj(pairs).to_json().into_bytes()
    }

    fn from_admit(v: &Value) -> Option<JobSpec> {
        Some(JobSpec {
            key: v.get("key")?.as_str()?.to_string(),
            gds: base64::decode(v.get("gds_b64")?.as_str()?).ok()?,
            rules: v.get("rules")?.as_str()?.to_string(),
            mode: v.get("mode")?.as_str()?.to_string(),
            priority: v.get("priority")?.as_i64()?,
            deadline_ms: v.get("deadline_ms").and_then(Value::as_i64),
        })
    }
}

/// Reduced per-key state after replaying the log.
#[derive(Debug)]
pub enum ReplayedJob {
    /// Admitted (whether or not started) but never finished: the spec
    /// to re-admit.
    Pending(JobSpec),
    /// Finished: the terminal frame (JSON text) the owner was sent.
    Done(String),
}

/// The durable job journal. All appends are synchronous and fsynced —
/// a job is only acknowledged after its `admit` record is on disk.
#[derive(Debug)]
pub struct JobJournal {
    log: RecordLog,
    /// Insertion-ordered keys of retained `done` records, oldest
    /// first, for [`MAX_DONE_RETAINED`] eviction.
    done_order: Vec<String>,
}

impl JobJournal {
    /// Opens (or creates) the journal in `dir`, replays it, compacts
    /// the file, and returns the handle plus the reduced per-key
    /// state.
    pub fn open_dir(dir: &Path) -> io::Result<(JobJournal, HashMap<String, ReplayedJob>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOB_JOURNAL_FILE);
        let (mut log, records) = RecordLog::open(&path, MAGIC)?;

        let mut jobs: HashMap<String, ReplayedJob> = HashMap::new();
        let mut order: Vec<String> = Vec::new(); // first-seen key order
        for rec in &records {
            let Ok(text) = std::str::from_utf8(rec) else {
                continue; // undecodable record: skip, never veto
            };
            let Ok(v) = json::parse(text) else { continue };
            let (Some(kind), Some(key)) = (
                v.get("rec").and_then(Value::as_str),
                v.get("key").and_then(Value::as_str),
            ) else {
                continue;
            };
            match kind {
                "admit" => {
                    if let Some(spec) = JobSpec::from_admit(&v) {
                        if !jobs.contains_key(key) {
                            order.push(key.to_string());
                        }
                        // A re-admit of a done key does not resurrect
                        // it; the done record stays authoritative.
                        jobs.entry(key.to_string())
                            .or_insert(ReplayedJob::Pending(spec));
                    }
                }
                "start" => {} // diagnostic only
                "done" => {
                    if let Some(result) = v.get("result") {
                        if !jobs.contains_key(key) {
                            order.push(key.to_string());
                        }
                        jobs.insert(key.to_string(), ReplayedJob::Done(result.to_json()));
                    }
                }
                _ => {}
            }
        }

        // Evict the oldest done records past the retention cap.
        let mut done_order: Vec<String> = order
            .iter()
            .filter(|k| matches!(jobs.get(*k), Some(ReplayedJob::Done(_))))
            .cloned()
            .collect();
        while done_order.len() > MAX_DONE_RETAINED {
            let evicted = done_order.remove(0);
            jobs.remove(&evicted);
        }

        // Compact: pending keys keep their admit record, done keys
        // keep only the done record.
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        for key in &order {
            match jobs.get(key) {
                Some(ReplayedJob::Pending(spec)) => payloads.push(spec.to_admit_payload()),
                Some(ReplayedJob::Done(frame)) => payloads.push(done_payload(key, frame)),
                None => {} // evicted
            }
        }
        log.rewrite(MAGIC, payloads.iter().map(Vec::as_slice))?;

        Ok((JobJournal { log, done_order }, jobs))
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Records a job's admission. Must succeed before the submission
    /// is acknowledged to the client.
    pub fn record_admit(&mut self, spec: &JobSpec, chaos: Option<&ChaosState>) -> io::Result<()> {
        self.append(&spec.to_admit_payload(), chaos)
    }

    /// Records that a worker picked the job up.
    pub fn record_start(&mut self, key: &str, chaos: Option<&ChaosState>) -> io::Result<()> {
        let payload = obj([
            ("rec", Value::Str("start".into())),
            ("key", Value::Str(key.to_string())),
        ])
        .to_json()
        .into_bytes();
        self.append(&payload, chaos)
    }

    /// Records a job's terminal result frame (JSON text). Evicts the
    /// oldest retained result past [`MAX_DONE_RETAINED`] by compacting
    /// in place.
    pub fn record_done(
        &mut self,
        key: &str,
        result_frame: &str,
        chaos: Option<&ChaosState>,
    ) -> io::Result<()> {
        self.append(&done_payload(key, result_frame), chaos)?;
        self.done_order.push(key.to_string());
        Ok(())
    }

    fn append(&mut self, payload: &[u8], chaos: Option<&ChaosState>) -> io::Result<()> {
        if let Some(chaos) = chaos {
            match chaos.on_journal_append() {
                JournalFate::Proceed => {}
                JournalFate::TearAndAbort => {
                    let frame = RecordLog::frame(payload);
                    let _ = self.log.append_raw(&frame[..frame.len() / 2]);
                    std::process::abort();
                }
                JournalFate::Abort => std::process::abort(),
            }
        }
        self.log.append(payload)
    }
}

fn done_payload(key: &str, result_frame: &str) -> Vec<u8> {
    // The stored result is the parsed Value re-serialized, so replay
    // emits exactly what compaction will reproduce after a restart.
    let result = json::parse(result_frame).unwrap_or(Value::Null);
    obj([
        ("rec", Value::Str("done".into())),
        ("key", Value::Str(key.to_string())),
        ("result", result),
    ])
    .to_json()
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("odrc-jobjnl-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(key: &str) -> JobSpec {
        JobSpec {
            key: key.to_string(),
            gds: vec![0, 1, 2, 0xff, 0x80],
            rules: "width layer=1 min=10 name=W".to_string(),
            mode: "sequential".to_string(),
            priority: 3,
            deadline_ms: Some(5000),
        }
    }

    #[test]
    fn pending_job_survives_restart() {
        let dir = tempdir("pending");
        {
            let (mut j, jobs) = JobJournal::open_dir(&dir).expect("open");
            assert!(jobs.is_empty());
            j.record_admit(&spec("job-a"), None).expect("admit");
            j.record_start("job-a", None).expect("start");
        }
        let (_, jobs) = JobJournal::open_dir(&dir).expect("reopen");
        match jobs.get("job-a") {
            Some(ReplayedJob::Pending(s)) => assert_eq!(*s, spec("job-a")),
            other => panic!("expected pending job, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_job_replays_its_result_frame() {
        let dir = tempdir("done");
        let frame = r#"{"event":"done","job":7,"exit":0,"violations":0}"#;
        {
            let (mut j, _) = JobJournal::open_dir(&dir).expect("open");
            j.record_admit(&spec("job-a"), None).expect("admit");
            j.record_done("job-a", frame, None).expect("done");
        }
        let (_, jobs) = JobJournal::open_dir(&dir).expect("reopen");
        match jobs.get("job-a") {
            Some(ReplayedJob::Done(text)) => {
                let v = json::parse(text).expect("stored frame parses");
                assert_eq!(v.get("event").and_then(Value::as_str), Some("done"));
                assert_eq!(v.get("exit").and_then(Value::as_i64), Some(0));
            }
            other => panic!("expected done job, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_superseded_records() {
        let dir = tempdir("compact");
        {
            let (mut j, _) = JobJournal::open_dir(&dir).expect("open");
            j.record_admit(&spec("a"), None).expect("admit");
            j.record_start("a", None).expect("start");
            j.record_done("a", r#"{"event":"done","exit":0}"#, None)
                .expect("done");
            j.record_admit(&spec("b"), None).expect("admit b");
        }
        let before = std::fs::metadata(dir.join(JOB_JOURNAL_FILE)).unwrap().len();
        let (j, jobs) = JobJournal::open_dir(&dir).expect("reopen compacts");
        assert_eq!(jobs.len(), 2);
        let after = std::fs::metadata(j.path()).unwrap().len();
        assert!(
            after < before,
            "compaction must shrink the log ({after} >= {before})"
        );
        // The compacted file still replays identically.
        drop(j);
        let (_, jobs) = JobJournal::open_dir(&dir).expect("re-reopen");
        assert!(matches!(jobs.get("a"), Some(ReplayedJob::Done(_))));
        assert!(matches!(jobs.get("b"), Some(ReplayedJob::Pending(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_heals_and_keeps_prefix() {
        let dir = tempdir("torn");
        {
            let (mut j, _) = JobJournal::open_dir(&dir).expect("open");
            j.record_admit(&spec("keep"), None).expect("admit");
            j.record_admit(&spec("lose"), None).expect("admit");
        }
        let path = dir.join(JOB_JOURNAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let (_, jobs) = JobJournal::open_dir(&dir).expect("lenient open");
        assert_eq!(jobs.len(), 1);
        assert!(matches!(jobs.get("keep"), Some(ReplayedJob::Pending(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_retention_evicts_oldest_first() {
        let dir = tempdir("retention");
        {
            let (mut j, _) = JobJournal::open_dir(&dir).expect("open");
            for i in 0..(MAX_DONE_RETAINED + 3) {
                let key = format!("k{i}");
                j.record_admit(&spec(&key), None).expect("admit");
                j.record_done(&key, r#"{"event":"done","exit":0}"#, None)
                    .expect("done");
            }
        }
        let (_, jobs) = JobJournal::open_dir(&dir).expect("reopen");
        assert_eq!(jobs.len(), MAX_DONE_RETAINED);
        assert!(!jobs.contains_key("k0"), "oldest evicted");
        assert!(!jobs.contains_key("k2"), "three oldest evicted");
        assert!(jobs.contains_key("k3"));
        assert!(jobs.contains_key(&format!("k{}", MAX_DONE_RETAINED + 2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admit_after_done_does_not_resurrect() {
        let dir = tempdir("resurrect");
        {
            let (mut j, _) = JobJournal::open_dir(&dir).expect("open");
            j.record_admit(&spec("a"), None).expect("admit");
            j.record_done("a", r#"{"event":"done","exit":0}"#, None)
                .expect("done");
            j.record_admit(&spec("a"), None).expect("re-admit");
        }
        let (_, jobs) = JobJournal::open_dir(&dir).expect("reopen");
        assert!(
            matches!(jobs.get("a"), Some(ReplayedJob::Done(_))),
            "done record stays authoritative over a later admit"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
