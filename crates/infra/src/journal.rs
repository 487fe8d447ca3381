//! A generic append-only record log with crash-safe framing.
//!
//! Several subsystems need the same on-disk shape: a file a process
//! can append to and be killed over at any byte offset, where a later
//! open recovers every record that was fully written and drops a torn
//! or corrupt tail. The engine's checkpoint journal pioneered the
//! idiom (magic header, self-checksummed records, lenient open that
//! heals the file to its longest valid prefix via
//! [`crate::write_atomic`]); this module factors it out so the serve
//! layer's durable job journal — and anything after it — shares one
//! audited implementation instead of re-rolling the recovery logic.
//!
//! # Format
//!
//! ```text
//! file   := magic(8) record*
//! record := len:u32le payload[len] fnv1a64(payload):u64le
//! ```
//!
//! The payload is opaque to the log; callers bring their own encoding
//! (binary for the checkpoint journal, JSON for the job journal).
//! An append writes the length, the payload and the checksum, then
//! `sync_data`s, so a record either survives a kill in full or is
//! dropped in full by the next lenient open.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::atomic_io::write_atomic;

/// FNV-1a over a byte slice — the same cheap, dependency-free content
/// hash the result cache uses for its signatures.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bytes of framing around each payload: length prefix + checksum.
const FRAME_OVERHEAD: usize = 4 + 8;

/// An append-only, checksummed record log. See the [module
/// docs](self) for the format and recovery contract.
#[derive(Debug)]
pub struct RecordLog {
    path: PathBuf,
    file: File,
}

impl RecordLog {
    /// Opens (or creates) the log at `path`, returning the append
    /// handle and every intact record's payload in file order.
    ///
    /// The open is *lenient*: a wrong magic, a corrupt record, or a
    /// torn tail drops everything from the first bad byte onward, and
    /// the file is atomically rewritten to its longest valid prefix so
    /// one bad tail never poisons future appends.
    pub fn open(path: &Path, magic: &[u8; 8]) -> io::Result<(RecordLog, Vec<Vec<u8>>)> {
        let mut buf = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let (records, valid_len) = parse(&buf, magic);
        if valid_len != buf.len() || buf.is_empty() {
            let mut prefix = Vec::with_capacity(valid_len.max(magic.len()));
            if valid_len == 0 {
                prefix.extend_from_slice(magic);
            } else {
                prefix.extend_from_slice(&buf[..valid_len]);
            }
            write_atomic(path, &prefix)?;
        }
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok((
            RecordLog {
                path: path.to_path_buf(),
                file,
            },
            records,
        ))
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frames one payload as it would appear on disk (length prefix,
    /// payload, trailing checksum). Exposed so fault-injection tests
    /// can write deliberately torn records via [`RecordLog::append_raw`].
    pub fn frame(payload: &[u8]) -> Vec<u8> {
        let mut rec = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(payload);
        rec.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        rec
    }

    /// Appends one record and flushes it to stable storage: a kill
    /// immediately after still finds the record on the next open. The
    /// bytes are [`RecordLog::frame`]'s, written from the payload in
    /// place rather than through a copy.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "record over 4 GiB"))?;
        self.file.write_all(&len.to_le_bytes())?;
        self.file.write_all(payload)?;
        self.file.write_all(&fnv1a64(payload).to_le_bytes())?;
        self.file.sync_data()
    }

    /// Writes raw bytes verbatim (no framing) and syncs. This exists
    /// for fault injection — writing half a frame models a process
    /// killed mid-append — and for nothing else.
    pub fn append_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)?;
        self.file.sync_data()
    }

    /// Atomically replaces the log's contents with `payloads`
    /// (compaction). The append handle is re-opened on the new file.
    pub fn rewrite<'a>(
        &mut self,
        magic: &[u8; 8],
        payloads: impl IntoIterator<Item = &'a [u8]>,
    ) -> io::Result<()> {
        let mut out = Vec::new();
        out.extend_from_slice(magic);
        for p in payloads {
            out.extend_from_slice(&RecordLog::frame(p));
        }
        write_atomic(&self.path, &out)?;
        self.file = std::fs::OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }
}

/// Parses `buf` leniently: intact record payloads in order, plus the
/// byte length of the longest valid prefix (0 if the magic is wrong).
fn parse(buf: &[u8], magic: &[u8; 8]) -> (Vec<Vec<u8>>, usize) {
    if buf.len() < magic.len() || &buf[..magic.len()] != magic {
        return (Vec::new(), 0);
    }
    let mut records = Vec::new();
    let mut pos = magic.len();
    let mut valid = pos;
    while buf.len() - pos >= FRAME_OVERHEAD {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let Some(end) = pos.checked_add(4 + len + 8) else {
            break;
        };
        if end > buf.len() {
            break; // torn tail
        }
        let payload = &buf[pos + 4..pos + 4 + len];
        let stored = u64::from_le_bytes(buf[pos + 4 + len..end].try_into().unwrap());
        if fnv1a64(payload) != stored {
            break; // corrupt record
        }
        records.push(payload.to_vec());
        pos = end;
        valid = pos;
    }
    (records, valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"TESTLOG1";

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("odrc-rlog-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("log.bin")
    }

    fn cleanup(path: &Path) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn appends_and_replays_in_order() {
        let path = temp("order");
        {
            let (mut log, records) = RecordLog::open(&path, MAGIC).expect("open");
            assert!(records.is_empty());
            log.append(b"alpha").expect("append");
            log.append(b"").expect("append empty");
            log.append(b"gamma").expect("append");
        }
        let (_, records) = RecordLog::open(&path, MAGIC).expect("reopen");
        assert_eq!(
            records,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma".to_vec()]
        );
        cleanup(&path);
    }

    #[test]
    fn append_writes_the_framed_bytes() {
        let path = temp("frame");
        let payloads: [&[u8]; 4] = [b"alpha", b"", &[0xff; 3000], b"omega"];
        {
            let (mut log, _) = RecordLog::open(&path, MAGIC).expect("open");
            for p in payloads {
                log.append(p).expect("append");
            }
        }
        let mut framed = MAGIC.to_vec();
        for p in payloads {
            framed.extend_from_slice(&RecordLog::frame(p));
        }
        assert_eq!(std::fs::read(&path).expect("read"), framed);
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_dropped_and_healed() {
        let path = temp("torn");
        {
            let (mut log, _) = RecordLog::open(&path, MAGIC).expect("open");
            log.append(b"keep").expect("append");
            log.append(b"lose").expect("append");
        }
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear");
        let (_, records) = RecordLog::open(&path, MAGIC).expect("lenient open");
        assert_eq!(records, vec![b"keep".to_vec()]);
        // The heal rewrote the file: a byte-level reopen parses fully.
        let healed = std::fs::read(&path).expect("read healed");
        let (reparsed, valid) = parse(&healed, MAGIC);
        assert_eq!(valid, healed.len());
        assert_eq!(reparsed.len(), 1);
        cleanup(&path);
    }

    #[test]
    fn corrupt_record_truncates_from_there() {
        let path = temp("corrupt");
        {
            let (mut log, _) = RecordLog::open(&path, MAGIC).expect("open");
            log.append(b"first").expect("append");
            log.append(b"second").expect("append");
        }
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a payload byte of the first record: both records drop
        // (the log cannot trust framing after a corrupt length/body).
        bytes[MAGIC.len() + 5] ^= 0xff;
        std::fs::write(&path, &bytes).expect("corrupt");
        let (mut log, records) = RecordLog::open(&path, MAGIC).expect("lenient open");
        assert!(records.is_empty());
        log.append(b"fresh").expect("append after heal");
        let (_, records) = RecordLog::open(&path, MAGIC).expect("reopen");
        assert_eq!(records, vec![b"fresh".to_vec()]);
        cleanup(&path);
    }

    #[test]
    fn wrong_magic_heals_to_empty() {
        let path = temp("magic");
        std::fs::write(&path, b"not a log file").expect("write garbage");
        let (_, records) = RecordLog::open(&path, MAGIC).expect("open");
        assert!(records.is_empty());
        let bytes = std::fs::read(&path).expect("read");
        assert_eq!(&bytes, MAGIC);
        cleanup(&path);
    }

    #[test]
    fn torn_half_frame_from_append_raw_is_recoverable() {
        let path = temp("halfframe");
        {
            let (mut log, _) = RecordLog::open(&path, MAGIC).expect("open");
            log.append(b"whole").expect("append");
            let framed = RecordLog::frame(b"torn-record-payload");
            log.append_raw(&framed[..framed.len() / 2]).expect("tear");
        }
        let (mut log, records) = RecordLog::open(&path, MAGIC).expect("lenient open");
        assert_eq!(records, vec![b"whole".to_vec()]);
        log.append(b"after").expect("append after heal");
        let (_, records) = RecordLog::open(&path, MAGIC).expect("reopen");
        assert_eq!(records, vec![b"whole".to_vec(), b"after".to_vec()]);
        cleanup(&path);
    }

    #[test]
    fn rewrite_compacts_in_place() {
        let path = temp("rewrite");
        let (mut log, _) = RecordLog::open(&path, MAGIC).expect("open");
        for payload in [b"a".as_slice(), b"b", b"c"] {
            log.append(payload).expect("append");
        }
        log.rewrite(MAGIC, [b"b".as_slice(), b"c"])
            .expect("rewrite");
        log.append(b"d").expect("append after rewrite");
        drop(log);
        let (_, records) = RecordLog::open(&path, MAGIC).expect("reopen");
        assert_eq!(records, vec![b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);
        cleanup(&path);
    }

    #[test]
    fn hostile_length_prefix_does_not_overallocate() {
        let path = temp("hostile");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(b"short");
        std::fs::write(&path, &bytes).expect("write");
        let (_, records) = RecordLog::open(&path, MAGIC).expect("open");
        assert!(records.is_empty(), "absurd length must read as a torn tail");
        cleanup(&path);
    }
}
