//! Checkpoint journal for interrupted runs.
//!
//! A long check that is cancelled (SIGINT, `--deadline`) should not
//! forfeit the rules it already finished. The engine appends each
//! completed rule's canonical violation set to an on-disk *journal*;
//! a later `--resume` run opens the journal, restores every completed
//! rule's results without re-checking, and re-runs only what is
//! missing. Because the journal stores *canonical* (sorted, deduped)
//! per-rule sets and the final report re-canonicalizes the union, an
//! interrupted-then-resumed run is byte-identical to an uninterrupted
//! one.
//!
//! Records are keyed by `(deck signature, layout content hash, rule
//! signature, shard)` — the same content-addressed discipline as the
//! result cache ([`crate::cache`]): edit the layout or the deck and
//! stale checkpoints simply stop matching. Rules without a stable
//! signature (user `ensures` predicates are host closures) are never
//! journaled.
//!
//! Since format v3 the key carries a *shard* coordinate so out-of-core
//! runs can checkpoint mid-rule: a sharded checker records each
//! `(rule, shard)` unit as it finishes, and a whole-rule record (the
//! sentinel shard id [`WHOLE_RULE_SHARD`]) supersedes them when the
//! rule completes.
//!
//! The file format is append-oriented so a kill at any byte offset is
//! survivable: the framing (magic header, per-record checksum, lenient
//! open that heals a torn or corrupt tail to the longest valid prefix)
//! is [`odrc_infra::RecordLog`] — the shared crash-safe record-log
//! idiom this journal pioneered, now also backing the serve layer's
//! durable job journal. This module owns only the record *payload*
//! encoding: run key, rule identity, and the canonical violation set.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

use odrc_db::Layout;
use odrc_geometry::Rect;
use odrc_infra::RecordLog;

use crate::cache::{bad_data, kind_from_u8, kind_to_u8, rule_signature, ByteReader, Sig};
use crate::rules::RuleDeck;
use crate::violation::Violation;

/// File name of the journal inside a checkpoint directory.
pub const JOURNAL_FILE: &str = "odrc-journal.bin";

/// Format version 3: v1 carried hand-rolled framing with a trailing
/// checksum per record; v2 frames payloads through [`RecordLog`]; v3
/// inserts a `(shard id, shard count)` pair after the rule signature
/// so out-of-core runs checkpoint per `(rule, shard)`. A leftover v1
/// or v2 file fails the magic check and heals to an empty journal (its
/// rules re-run).
const MAGIC: &[u8; 8] = b"ODRCJNL3";

/// Sentinel shard id of a whole-rule record. A record carrying this id
/// (with shard count 0) means the rule's *complete* canonical set was
/// journaled, superseding any per-shard records of the same rule.
pub const WHOLE_RULE_SHARD: u32 = u32::MAX;

/// Bytes per serialized violation: kind (1) + 4 coordinates (4×4) +
/// measured (8). Used to bound pre-allocation on load.
const ENTRY_BYTES: usize = 25;

/// Identity of one (layout, deck) run. Checkpoints recorded under a
/// different key are invisible to this run — resuming against an
/// edited layout or deck re-checks everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunKey {
    /// Ordered FNV over every rule's signature (with a marker for
    /// unsignable rules, so adding an `ensures` rule changes the key).
    pub deck_sig: u64,
    /// FNV over the layout's per-cell subtree content hashes.
    pub layout_hash: u64,
}

impl RunKey {
    /// Computes the run key for a layout/deck pair.
    pub fn compute(layout: &Layout, deck: &RuleDeck) -> RunKey {
        let mut d = Sig::new();
        for rule in deck.rules() {
            match rule_signature(rule) {
                Some(sig) => {
                    d.i64(1).i64(sig as i64);
                }
                None => {
                    // Unsignable rules still shape deck identity.
                    d.i64(0).bytes(rule.name.as_bytes());
                }
            }
        }
        let mut l = Sig::new();
        for h in layout.subtree_hashes() {
            l.i64(h as i64);
        }
        RunKey {
            deck_sig: d.0,
            layout_hash: l.0,
        }
    }
}

/// A journaled unit's payload: the rule name it was recorded under and
/// its canonical violations.
type JournalEntry = (String, Arc<Vec<Violation>>);

/// An append-oriented journal of completed rules for one run.
///
/// See the [module docs](self) for the format and recovery story.
#[derive(Debug)]
pub struct CheckpointJournal {
    log: RecordLog,
    run: RunKey,
    /// Completed rules of *this* run: rule signature → entry.
    entries: HashMap<u64, JournalEntry>,
    /// Completed `(rule, shard)` units of this run: (rule signature,
    /// shard count, shard id) → canonical shard-local violations. Only
    /// meaningful while the whole rule has not completed; a whole-rule
    /// record supersedes these on restore.
    shards: HashMap<(u64, u32, u32), JournalEntry>,
}

impl CheckpointJournal {
    /// Opens (or creates) the journal in `dir` for the given run.
    ///
    /// Creates the directory if needed. An existing journal is parsed
    /// leniently ([`RecordLog`] drops and heals a torn or corrupt
    /// tail), so one bad tail never poisons future appends. Valid
    /// records from *other* runs are preserved on disk but not loaded.
    pub fn open_dir(dir: &Path, run: RunKey) -> io::Result<CheckpointJournal> {
        std::fs::create_dir_all(dir)?;
        let (log, records) = RecordLog::open(&dir.join(JOURNAL_FILE), MAGIC)?;
        let mut entries = HashMap::new();
        let mut shards = HashMap::new();
        for rec in &records {
            // A record with an intact checksum but an undecodable
            // payload (a future format extension, say) is skipped, not
            // fatal — a checkpoint is an accelerator, never a veto.
            if let Ok(parsed) = parse_record(rec) {
                if parsed.key != run {
                    continue;
                }
                if parsed.shard_id == WHOLE_RULE_SHARD {
                    entries.insert(parsed.rule_sig, (parsed.name, Arc::new(parsed.violations)));
                } else {
                    shards.insert(
                        (parsed.rule_sig, parsed.shard_count, parsed.shard_id),
                        (parsed.name, Arc::new(parsed.violations)),
                    );
                }
            }
        }
        Ok(CheckpointJournal {
            log,
            run,
            entries,
            shards,
        })
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// The run key this journal was opened for.
    pub fn run_key(&self) -> RunKey {
        self.run
    }

    /// Number of completed rules restored or recorded for this run.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no rule of this run has completed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The journaled canonical violations of the rule with signature
    /// `rule_sig`, if that rule already completed under this run key.
    pub fn completed(&self, rule_sig: u64) -> Option<&Arc<Vec<Violation>>> {
        self.entries.get(&rule_sig).map(|(_, v)| v)
    }

    /// The journaled violations of one `(rule, shard)` unit, if that
    /// shard already completed under this run key *with the same shard
    /// count*. A run that re-plans to a different shard count sees
    /// nothing — shard ids are only meaningful within one plan.
    pub fn completed_shard(
        &self,
        rule_sig: u64,
        shard_count: u32,
        shard_id: u32,
    ) -> Option<&Arc<Vec<Violation>>> {
        self.shards
            .get(&(rule_sig, shard_count, shard_id))
            .map(|(_, v)| v)
    }

    /// How many shards of `rule_sig` (under `shard_count`-way
    /// sharding) have completed so far.
    pub fn shard_progress(&self, rule_sig: u64, shard_count: u32) -> usize {
        self.shards
            .keys()
            .filter(|(sig, count, _)| *sig == rule_sig && *count == shard_count)
            .count()
    }

    /// Names of the completed rules restored or recorded so far.
    pub fn completed_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.entries.values().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Appends one completed rule's canonical violation set and
    /// flushes it to stable storage, so a kill immediately after still
    /// finds the record on resume.
    pub fn record(
        &mut self,
        rule_name: &str,
        rule_sig: u64,
        violations: &[Violation],
    ) -> io::Result<()> {
        let rec = self.encode(rule_name, rule_sig, WHOLE_RULE_SHARD, 0, violations);
        self.log.append(&rec)?;
        let restored = violations
            .iter()
            .map(|v| Violation {
                rule: rule_name.to_string(),
                ..v.clone()
            })
            .collect();
        self.entries
            .insert(rule_sig, (rule_name.to_string(), Arc::new(restored)));
        Ok(())
    }

    /// Appends one completed `(rule, shard)` unit's violations and
    /// flushes them, so a kill mid-rule loses at most the in-flight
    /// shard. `shard_id` must be a real shard (`< shard_count`), never
    /// the whole-rule sentinel.
    pub fn record_shard(
        &mut self,
        rule_name: &str,
        rule_sig: u64,
        shard_count: u32,
        shard_id: u32,
        violations: &[Violation],
    ) -> io::Result<()> {
        debug_assert!(shard_id < shard_count);
        let rec = self.encode(rule_name, rule_sig, shard_id, shard_count, violations);
        self.log.append(&rec)?;
        let restored = violations
            .iter()
            .map(|v| Violation {
                rule: rule_name.to_string(),
                ..v.clone()
            })
            .collect();
        self.shards.insert(
            (rule_sig, shard_count, shard_id),
            (rule_name.to_string(), Arc::new(restored)),
        );
        Ok(())
    }

    /// Serializes one record payload (v3 layout).
    fn encode(
        &self,
        rule_name: &str,
        rule_sig: u64,
        shard_id: u32,
        shard_count: u32,
        violations: &[Violation],
    ) -> Vec<u8> {
        let mut rec = Vec::with_capacity(44 + rule_name.len() + violations.len() * ENTRY_BYTES);
        rec.extend_from_slice(&self.run.deck_sig.to_le_bytes());
        rec.extend_from_slice(&self.run.layout_hash.to_le_bytes());
        rec.extend_from_slice(&rule_sig.to_le_bytes());
        rec.extend_from_slice(&shard_id.to_le_bytes());
        rec.extend_from_slice(&shard_count.to_le_bytes());
        rec.extend_from_slice(&(rule_name.len() as u32).to_le_bytes());
        rec.extend_from_slice(rule_name.as_bytes());
        rec.extend_from_slice(&(violations.len() as u32).to_le_bytes());
        for v in violations {
            rec.push(kind_to_u8(v.kind));
            for c in [
                v.location.lo().x,
                v.location.lo().y,
                v.location.hi().x,
                v.location.hi().y,
            ] {
                rec.extend_from_slice(&c.to_le_bytes());
            }
            rec.extend_from_slice(&v.measured.to_le_bytes());
        }
        rec
    }
}

/// One decoded journal record.
struct ParsedRecord {
    key: RunKey,
    rule_sig: u64,
    shard_id: u32,
    shard_count: u32,
    name: String,
    violations: Vec<Violation>,
}

/// Decodes one record payload (framing and checksum already verified
/// by [`RecordLog`]). Trailing or missing bytes are a decode error —
/// the payload must be consumed exactly.
fn parse_record(payload: &[u8]) -> io::Result<ParsedRecord> {
    let mut r = ByteReader {
        buf: payload,
        pos: 0,
    };
    let key = RunKey {
        deck_sig: r.u64()?,
        layout_hash: r.u64()?,
    };
    let rule_sig = r.u64()?;
    let shard_id = r.u32()?;
    let shard_count = r.u32()?;
    if (shard_id == WHOLE_RULE_SHARD) != (shard_count == 0) {
        return Err(bad_data());
    }
    if shard_id != WHOLE_RULE_SHARD && shard_id >= shard_count {
        return Err(bad_data());
    }
    let name_len = r.u32()? as usize;
    let name = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| bad_data())?
        .to_string();
    let count = r.u32()? as usize;
    // Never trust an untrusted length for pre-allocation: cap it by
    // what the remaining bytes could actually encode.
    let mut violations = Vec::with_capacity(count.min(r.remaining() / ENTRY_BYTES));
    for _ in 0..count {
        let kind = kind_from_u8(r.u8()?).ok_or_else(bad_data)?;
        let (x0, y0) = (r.i32()?, r.i32()?);
        let (x1, y1) = (r.i32()?, r.i32()?);
        let measured = r.i64()?;
        violations.push(Violation {
            rule: name.clone(),
            kind,
            location: Rect::from_coords(x0, y0, x1, y1),
            measured,
        });
    }
    if r.remaining() != 0 {
        return Err(bad_data());
    }
    Ok(ParsedRecord {
        key,
        rule_sig,
        shard_id,
        shard_count,
        name,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violation::ViolationKind;
    use odrc_geometry::Rect;
    use std::path::PathBuf;

    fn run_key(a: u64, b: u64) -> RunKey {
        RunKey {
            deck_sig: a,
            layout_hash: b,
        }
    }

    fn violation(rule: &str, x: i32) -> Violation {
        Violation {
            rule: rule.to_string(),
            kind: ViolationKind::Space,
            location: Rect::from_coords(x, 0, x + 3, 3),
            measured: i64::from(x),
        }
    }

    #[test]
    fn roundtrip_restores_completed_rules() {
        let dir = tempdir("jnl-roundtrip");
        let key = run_key(11, 22);
        {
            let mut j = CheckpointJournal::open_dir(&dir, key).expect("open");
            assert!(j.is_empty());
            j.record("M1.S", 101, &[violation("M1.S", 4), violation("M1.S", 9)])
                .expect("record");
            j.record("M2.W", 202, &[]).expect("record");
            assert_eq!(j.len(), 2);
        }
        let j = CheckpointJournal::open_dir(&dir, key).expect("reopen");
        assert_eq!(j.len(), 2);
        assert_eq!(
            j.completed(101).expect("M1.S journaled").as_slice(),
            &[violation("M1.S", 4), violation("M1.S", 9)]
        );
        assert!(j.completed(202).expect("M2.W journaled").is_empty());
        assert_eq!(j.completed(303), None);
        assert_eq!(j.completed_names(), ["M1.S", "M2.W"]);
        cleanup(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_prefix_survives() {
        let dir = tempdir("jnl-torn");
        let key = run_key(1, 2);
        {
            let mut j = CheckpointJournal::open_dir(&dir, key).expect("open");
            j.record("A", 1, &[violation("A", 1)]).expect("record");
            j.record("B", 2, &[violation("B", 2)]).expect("record");
        }
        let path = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&path).expect("read journal");
        // Tear the file mid-way through the last record.
        let torn = &bytes[..bytes.len() - 5];
        std::fs::write(&path, torn).expect("tear");
        let j = CheckpointJournal::open_dir(&dir, key).expect("lenient open");
        assert_eq!(j.len(), 1, "record B's torn tail must be dropped");
        assert!(j.completed(1).is_some());
        assert_eq!(j.completed(2), None);
        // The rewrite healed the file: reopening parses it fully.
        let j = CheckpointJournal::open_dir(&dir, key).expect("reopen healed");
        assert_eq!(j.len(), 1);
        cleanup(&dir);
    }

    #[test]
    fn corrupt_record_is_rejected_by_checksum() {
        let dir = tempdir("jnl-corrupt");
        let key = run_key(7, 7);
        {
            let mut j = CheckpointJournal::open_dir(&dir, key).expect("open");
            j.record("A", 1, &[violation("A", 1)]).expect("record");
        }
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = MAGIC.len() + 30;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).expect("corrupt");
        let j = CheckpointJournal::open_dir(&dir, key).expect("lenient open");
        assert!(j.is_empty(), "flipped bit must invalidate the record");
        // Appending after healing works.
        cleanup(&dir);
    }

    #[test]
    fn wrong_run_key_is_invisible_but_preserved() {
        let dir = tempdir("jnl-runkey");
        let old = run_key(1, 1);
        {
            let mut j = CheckpointJournal::open_dir(&dir, old).expect("open");
            j.record("A", 1, &[violation("A", 1)]).expect("record");
        }
        // A run against an edited layout sees nothing...
        let j = CheckpointJournal::open_dir(&dir, run_key(1, 99)).expect("open new");
        assert!(j.is_empty());
        drop(j);
        // ...but the old run's record is still on disk.
        let j = CheckpointJournal::open_dir(&dir, old).expect("reopen old");
        assert_eq!(j.len(), 1);
        cleanup(&dir);
    }

    #[test]
    fn garbage_file_heals_to_empty_journal() {
        // A well-framed file of the previous format is as foreign as
        // plain garbage: the magic mismatches, nothing is restored.
        let mut v2 = b"ODRCJNL2".to_vec();
        v2.extend_from_slice(&odrc_infra::RecordLog::frame(b"old-format-record"));
        for (tag, bytes) in [
            ("jnl-garbage", b"not a journal at all".to_vec()),
            ("jnl-v2", v2),
        ] {
            let dir = tempdir(tag);
            let path = dir.join(JOURNAL_FILE);
            std::fs::create_dir_all(&dir).expect("mkdir");
            std::fs::write(&path, &bytes).expect("write foreign file");
            let key = run_key(3, 4);
            {
                let mut j = CheckpointJournal::open_dir(&dir, key).expect("open");
                assert!(j.is_empty(), "{tag}");
                j.record("A", 1, &[]).expect("record after heal");
            }
            assert_eq!(&std::fs::read(&path).expect("read")[..8], MAGIC, "{tag}");
            let j = CheckpointJournal::open_dir(&dir, key).expect("reopen");
            assert_eq!(j.len(), 1, "{tag}");
            cleanup(&dir);
        }
    }

    #[test]
    fn rerecorded_rule_takes_latest() {
        let dir = tempdir("jnl-latest");
        let key = run_key(5, 6);
        {
            let mut j = CheckpointJournal::open_dir(&dir, key).expect("open");
            j.record("A", 1, &[violation("A", 1)]).expect("record");
            j.record("A", 1, &[violation("A", 2)]).expect("re-record");
        }
        let j = CheckpointJournal::open_dir(&dir, key).expect("reopen");
        assert_eq!(j.completed(1).expect("A").as_slice(), &[violation("A", 2)]);
        cleanup(&dir);
    }

    #[test]
    fn run_key_tracks_deck_and_layout_content() {
        use crate::rules::rule;
        let design = odrc_layoutgen::generate(&odrc_layoutgen::DesignSpec::tiny(42));
        let layout = Layout::from_library(&design.library).expect("layout");
        let mut deck = RuleDeck::default();
        deck.add_rules([rule().layer(1).width().greater_than(10)]);
        let a = RunKey::compute(&layout, &deck);
        let b = RunKey::compute(&layout, &deck);
        assert_eq!(a, b, "run key is deterministic");
        let mut deck2 = RuleDeck::default();
        deck2.add_rules([rule().layer(1).width().greater_than(12)]);
        assert_ne!(
            a,
            RunKey::compute(&layout, &deck2),
            "editing the deck changes the key"
        );
        let mut deck3 = RuleDeck::default();
        deck3.add_rules([
            rule().layer(1).width().greater_than(10),
            rule().polygons().ensures("named", |p| p.name.is_some()),
        ]);
        assert_ne!(
            a,
            RunKey::compute(&layout, &deck3),
            "unsignable rules still shape deck identity"
        );
    }

    #[test]
    fn shard_records_roundtrip_and_track_shard_count() {
        let dir = tempdir("jnl-shards");
        let key = run_key(9, 9);
        {
            let mut j = CheckpointJournal::open_dir(&dir, key).expect("open");
            j.record_shard("M1.S", 101, 4, 0, &[violation("M1.S", 1)])
                .expect("record shard 0");
            j.record_shard("M1.S", 101, 4, 2, &[])
                .expect("record shard 2");
            assert_eq!(j.shard_progress(101, 4), 2);
            // Shard records do not make the rule "completed".
            assert_eq!(j.completed(101), None);
        }
        let j = CheckpointJournal::open_dir(&dir, key).expect("reopen");
        assert_eq!(
            j.completed_shard(101, 4, 0).expect("shard 0").as_slice(),
            &[violation("M1.S", 1)]
        );
        assert!(j.completed_shard(101, 4, 2).expect("shard 2").is_empty());
        assert_eq!(j.completed_shard(101, 4, 1), None);
        // A different shard count is a different plan: invisible.
        assert_eq!(j.completed_shard(101, 8, 0), None);
        assert_eq!(j.shard_progress(101, 4), 2);
        assert_eq!(j.shard_progress(101, 8), 0);
        cleanup(&dir);
    }

    #[test]
    fn whole_rule_record_supersedes_shards() {
        let dir = tempdir("jnl-supersede");
        let key = run_key(10, 10);
        {
            let mut j = CheckpointJournal::open_dir(&dir, key).expect("open");
            j.record_shard("A", 1, 2, 0, &[violation("A", 1)])
                .expect("shard");
            j.record("A", 1, &[violation("A", 1), violation("A", 5)])
                .expect("whole");
        }
        let j = CheckpointJournal::open_dir(&dir, key).expect("reopen");
        assert_eq!(
            j.completed(1).expect("whole rule").as_slice(),
            &[violation("A", 1), violation("A", 5)]
        );
        cleanup(&dir);
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("odrc-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cleanup(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}
