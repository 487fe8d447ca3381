//! Wire protocol: newline-delimited JSON frames, typed errors, and the
//! exit-code mapping shared with the one-shot CLI.
//!
//! # Frame grammar
//!
//! One frame = one JSON object on one line, terminated by `\n`:
//!
//! ```text
//! frame     := object NL
//! request   := { "verb": verb, ...verb fields }
//! response  := { "ok": true, ...result } | { "ok": false, "error": string, "code": int }
//! event     := { "event": "queued"|"running"|"rule"|"done"|"error", "job": int, ... }
//! ```
//!
//! Requests and their fields:
//!
//! | verb       | fields                                                            |
//! |------------|-------------------------------------------------------------------|
//! | `hello`    | —                                                                 |
//! | `open`     | `gds_b64` *or* `path`, `rules` (deck text), `mode`, `cache_dir`?  |
//! | `edit`     | `session`, `ops` (array of edit objects)                          |
//! | `check`    | `session`, `priority`?, `deadline_ms`?, `key`?                    |
//! | `cancel`   | `job`                                                             |
//! | `stats`    | —                                                                 |
//! | `health`   | —                                                                 |
//! | `ping`     | —                                                                 |
//! | `close`    | `session`                                                         |
//! | `shutdown` | —                                                                 |
//!
//! `check` with a `key` (a client-chosen idempotency key) is durable:
//! the server journals the submission before acknowledging it, a
//! resubmit of the same key attaches to the running job or replays the
//! journaled result, and a server restart re-admits the job. The
//! server may also send unsolicited `{"event":"ping"}` frames on an
//! idle connection; a live client answers with a `ping` request
//! (response `{"ok":true,"pong":true}`) — a client that never answers
//! is evicted.
//!
//! Every request gets exactly one response frame. A successful `check`
//! response (`{"ok":true,"job":N}`) is followed by asynchronous event
//! frames for job `N` — `queued`, `running`, zero or more `rule`
//! events, and finally exactly one `done` (carrying the violations,
//! stats, and `exit`) or `error`. Event frames may interleave with
//! responses to later requests on the same connection; clients
//! demultiplex by the presence of the `event` key.
//!
//! Frames are capped at [`MAX_FRAME_BYTES`]; an oversized frame is a
//! protocol error and the server drops the connection after reporting
//! it (the stream can no longer be trusted to be frame-aligned).

use std::io::{BufRead, Write};

use crate::json::{self, obj, Value};

/// Hard cap on one frame's length, newline included. Generous enough
/// for a multi-megabyte base64 GDSII upload, small enough that a
/// stream of garbage cannot balloon server memory.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Typed failure modes of the serve layer. Each maps to a stable wire
/// `code` so clients can branch without string matching.
#[derive(Debug)]
pub enum ServeError {
    /// The frame was not valid JSON / not an object / missing or
    /// ill-typed fields. The connection survives.
    Protocol(String),
    /// The frame exceeded [`MAX_FRAME_BYTES`]. The connection is
    /// dropped after the error response — framing is unrecoverable.
    TooLarge { limit: usize },
    /// The `verb` field named no known request.
    UnknownVerb(String),
    /// A `session` id that was never opened (or already closed).
    UnknownSession(u64),
    /// A `job` id that was never admitted.
    UnknownJob(u64),
    /// The scheduler refused the job (queue full, or draining).
    Rejected(String),
    /// The database layer rejected an edit op.
    Edit(String),
    /// The layout payload failed to parse.
    Layout(String),
    /// The rule deck text failed to parse.
    Rules(String),
    /// An underlying I/O failure (socket or filesystem).
    Io(std::io::Error),
    /// The queue is full of work at least as important as this job.
    /// Carries the server's backoff hint; a well-behaved client waits
    /// `retry_after_ms` and resubmits (idempotency keys make the
    /// retry safe).
    Overloaded { retry_after_ms: i64 },
}

impl ServeError {
    /// The stable wire code for this error.
    pub fn code(&self) -> i64 {
        match self {
            ServeError::Protocol(_) => 100,
            ServeError::TooLarge { .. } => 101,
            ServeError::UnknownVerb(_) => 102,
            ServeError::UnknownSession(_) => 103,
            ServeError::UnknownJob(_) => 104,
            ServeError::Rejected(_) => 105,
            ServeError::Edit(_) => 106,
            ServeError::Layout(_) => 107,
            ServeError::Rules(_) => 108,
            ServeError::Io(_) => 109,
            ServeError::Overloaded { .. } => 111,
        }
    }

    /// True when the connection's framing can no longer be trusted and
    /// the server should drop it after responding.
    pub fn fatal_to_connection(&self) -> bool {
        matches!(self, ServeError::TooLarge { .. } | ServeError::Io(_))
    }

    /// The error response frame for this failure.
    pub fn to_frame(&self) -> Value {
        let mut pairs = vec![
            ("ok", Value::Bool(false)),
            ("error", Value::from(self.to_string())),
            ("code", Value::Int(self.code())),
        ];
        if let Some(ms) = self.retry_after_ms() {
            pairs.push(("retry_after_ms", Value::Int(ms)));
        }
        obj(pairs)
    }

    /// The server's backoff hint, carried by an overload.
    pub fn retry_after_ms(&self) -> Option<i64> {
        match self {
            ServeError::Overloaded { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::TooLarge { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            ServeError::UnknownVerb(v) => write!(f, "unknown verb {v:?}"),
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::UnknownJob(id) => write!(f, "unknown job {id}"),
            ServeError::Rejected(m) => write!(f, "job rejected: {m}"),
            ServeError::Edit(m) => write!(f, "edit rejected: {m}"),
            ServeError::Layout(m) => write!(f, "layout error: {m}"),
            ServeError::Rules(m) => write!(f, "rule deck error: {m}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<json::ParseError> for ServeError {
    fn from(e: json::ParseError) -> ServeError {
        ServeError::Protocol(e.to_string())
    }
}

/// Reads one newline-terminated frame, enforcing the length cap
/// *while* reading (a hostile peer cannot make the server buffer an
/// unbounded line). Returns `Ok(None)` on clean EOF at a frame
/// boundary; EOF mid-frame is a protocol error.
pub fn read_frame(reader: &mut impl BufRead) -> Result<Option<String>, ServeError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(ServeError::Protocol("eof inside frame".to_string()))
            };
        }
        let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => (&buf[..nl], true),
            None => (buf, false),
        };
        if line.len() + chunk.len() > MAX_FRAME_BYTES {
            // Leave the stream as-is; the caller must drop the
            // connection (fatal_to_connection) — resynchronizing on a
            // 64 MiB garbage line is not worth the memory.
            return Err(ServeError::TooLarge {
                limit: MAX_FRAME_BYTES,
            });
        }
        line.extend_from_slice(chunk);
        let consumed = chunk.len() + usize::from(done);
        reader.consume(consumed);
        if done {
            let text = String::from_utf8(line)
                .map_err(|_| ServeError::Protocol("frame is not utf-8".to_string()))?;
            return Ok(Some(text));
        }
    }
}

/// One step of a timeout-tolerant frame read ([`read_frame_step`]).
#[derive(Debug)]
pub enum FrameStep {
    /// A complete frame arrived.
    Frame(String),
    /// Clean EOF at a frame boundary.
    Eof,
    /// The read timed out with no (or only a partial) frame; the
    /// partial bytes stay in the caller's buffer. The caller may run
    /// liveness bookkeeping (heartbeats, eviction) and call again.
    Idle,
}

/// Like [`read_frame`], but built for sockets with a read timeout: a
/// `WouldBlock`/`TimedOut` read returns [`FrameStep::Idle`] instead of
/// failing, and any bytes of a partially received frame persist in
/// `partial` — the caller owns the buffer precisely so a slow writer
/// whose frame straddles two timeouts loses nothing.
pub fn read_frame_step(
    reader: &mut impl BufRead,
    partial: &mut Vec<u8>,
) -> Result<FrameStep, ServeError> {
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(FrameStep::Idle);
            }
            Err(e) => return Err(ServeError::Io(e)),
        };
        if buf.is_empty() {
            return if partial.is_empty() {
                Ok(FrameStep::Eof)
            } else {
                // Drop the torn prefix so the caller's next step sees
                // the clean EOF instead of re-reporting this forever.
                partial.clear();
                Err(ServeError::Protocol("eof inside frame".to_string()))
            };
        }
        let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => (&buf[..nl], true),
            None => (buf, false),
        };
        if partial.len() + chunk.len() > MAX_FRAME_BYTES {
            return Err(ServeError::TooLarge {
                limit: MAX_FRAME_BYTES,
            });
        }
        partial.extend_from_slice(chunk);
        let consumed = chunk.len() + usize::from(done);
        reader.consume(consumed);
        if done {
            let text = String::from_utf8(std::mem::take(partial))
                .map_err(|_| ServeError::Protocol("frame is not utf-8".to_string()))?;
            return Ok(FrameStep::Frame(text));
        }
    }
}

/// Parses a frame into its JSON object.
pub fn parse_frame(text: &str) -> Result<Value, ServeError> {
    let value = json::parse(text.trim_end_matches('\r'))?;
    match value {
        Value::Object(_) => Ok(value),
        _ => Err(ServeError::Protocol(
            "frame must be a json object".to_string(),
        )),
    }
}

/// Writes one frame (JSON + newline) and flushes — events must reach
/// the client promptly, not sit in a BufWriter.
pub fn write_frame(writer: &mut impl Write, frame: &Value) -> std::io::Result<()> {
    let mut text = frame.to_json();
    text.push('\n');
    writer.write_all(text.as_bytes())?;
    writer.flush()
}

/// Required string field of a request object.
pub fn req_str<'a>(frame: &'a Value, key: &str) -> Result<&'a str, ServeError> {
    frame
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::Protocol(format!("missing string field {key:?}")))
}

/// Required integer field of a request object.
pub fn req_i64(frame: &Value, key: &str) -> Result<i64, ServeError> {
    frame
        .get(key)
        .and_then(Value::as_i64)
        .ok_or_else(|| ServeError::Protocol(format!("missing integer field {key:?}")))
}

/// Optional integer field (absent or `null` → `None`; wrong type is an
/// error, not a silent default).
pub fn opt_i64(frame: &Value, key: &str) -> Result<Option<i64>, ServeError> {
    match frame.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_i64()
            .map(Some)
            .ok_or_else(|| ServeError::Protocol(format!("field {key:?} must be an integer"))),
    }
}

/// Optional string field.
pub fn opt_str<'a>(frame: &'a Value, key: &str) -> Result<Option<&'a str>, ServeError> {
    match frame.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| ServeError::Protocol(format!("field {key:?} must be a string"))),
    }
}

/// How a finished job exits — the same 0–4 semantics as the one-shot
/// CLI, so a client can `exit(frame.exit)` and scripts behave
/// identically against either front end:
///
/// * `0` — clean: the deck ran to completion and found nothing.
/// * `1` — violations: the deck ran to completion and found some.
/// * `2` — hard error: the job never produced a result (bad layout,
///   bad deck, internal failure). Reported via an `error` event, not
///   a `done` frame.
/// * `3` — degraded-clean: no violations, but device work was retried
///   or recomputed on the host, so the fast path was not exercised
///   end to end.
/// * `4` — interrupted: the run was cancelled (client cancel,
///   deadline, or server drain) before every rule finished; results
///   are partial.
///
/// Interruption dominates violations, which dominate degradation —
/// matching the CLI's precedence exactly.
pub fn job_exit_code(interrupted: bool, violations: usize, degraded: bool) -> i64 {
    if interrupted {
        4
    } else if violations > 0 {
        1
    } else if degraded {
        3
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        let frame = obj([("verb", Value::from("hello")), ("n", Value::Int(3))]);
        write_frame(&mut buf, &frame).unwrap();
        write_frame(&mut buf, &frame).unwrap();
        let mut reader = BufReader::new(&buf[..]);
        for _ in 0..2 {
            let line = read_frame(&mut reader).unwrap().unwrap();
            let parsed = parse_frame(&line).unwrap();
            assert_eq!(parsed, frame);
        }
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean eof");
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut reader = BufReader::new(&b"{\"verb\":\"hel"[..]);
        let err = read_frame(&mut reader).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
    }

    #[test]
    fn oversized_frame_is_fatal() {
        struct Endless;
        impl std::io::Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                buf.fill(b'a');
                Ok(buf.len())
            }
        }
        let mut reader = BufReader::new(Endless);
        let err = read_frame(&mut reader).unwrap_err();
        assert!(matches!(err, ServeError::TooLarge { .. }), "{err}");
        assert!(err.fatal_to_connection());
    }

    #[test]
    fn non_object_frames_are_rejected() {
        for bad in ["[1,2]", "\"hi\"", "42", "not json at all"] {
            assert!(parse_frame(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn frame_step_preserves_partial_across_timeouts() {
        /// Yields each step in order; `None` models a read timeout.
        struct TimesOut {
            steps: Vec<Option<Vec<u8>>>,
        }
        impl std::io::Read for TimesOut {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.steps.pop() {
                    Some(Some(chunk)) => {
                        buf[..chunk.len()].copy_from_slice(&chunk);
                        Ok(chunk.len())
                    }
                    Some(None) | None => Err(std::io::Error::from(std::io::ErrorKind::WouldBlock)),
                }
            }
        }
        // One frame delivered in two reads with a timeout in between
        // (steps pop LIFO, so they are listed in reverse).
        let mut reader = BufReader::new(TimesOut {
            steps: vec![
                Some(b"\"b\"}\n".to_vec()),
                None,
                Some(b"{\"verb\":".to_vec()),
            ],
        });
        let mut partial = Vec::new();
        // First read buffers the prefix, then hits the timeout.
        let step = read_frame_step(&mut reader, &mut partial).unwrap();
        assert!(matches!(step, FrameStep::Idle), "{step:?}");
        assert_eq!(partial, b"{\"verb\":");
        // The second read delivers the rest and completes the frame.
        let step = read_frame_step(&mut reader, &mut partial).unwrap();
        match step {
            FrameStep::Frame(text) => assert_eq!(text, "{\"verb\":\"b\"}"),
            other => panic!("expected frame, got {other:?}"),
        }
        assert!(partial.is_empty(), "buffer drained after a full frame");
    }

    #[test]
    fn frame_step_reports_clean_eof() {
        let mut reader = BufReader::new(&b""[..]);
        let mut partial = Vec::new();
        assert!(matches!(
            read_frame_step(&mut reader, &mut partial).unwrap(),
            FrameStep::Eof
        ));
        let mut reader = BufReader::new(&b"{\"trunc"[..]);
        let err = read_frame_step(&mut reader, &mut partial).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
    }

    #[test]
    fn overloaded_frame_carries_retry_hint() {
        let e = ServeError::Overloaded {
            retry_after_ms: 250,
        };
        assert_eq!(e.code(), 111);
        assert!(!e.fatal_to_connection());
        let frame = e.to_frame();
        assert_eq!(frame.get("code").and_then(Value::as_i64), Some(111));
        assert_eq!(
            frame.get("retry_after_ms").and_then(Value::as_i64),
            Some(250)
        );
    }

    #[test]
    fn exit_code_precedence_matches_cli() {
        assert_eq!(job_exit_code(false, 0, false), 0);
        assert_eq!(job_exit_code(false, 5, false), 1);
        assert_eq!(job_exit_code(false, 0, true), 3);
        assert_eq!(
            job_exit_code(false, 5, true),
            1,
            "violations beat degradation"
        );
        assert_eq!(job_exit_code(true, 5, true), 4, "interruption beats both");
    }

    #[test]
    fn field_accessors_type_check() {
        let frame = parse_frame(r#"{"verb":"check","session":7,"priority":null}"#).unwrap();
        assert_eq!(req_str(&frame, "verb").unwrap(), "check");
        assert_eq!(req_i64(&frame, "session").unwrap(), 7);
        assert_eq!(opt_i64(&frame, "priority").unwrap(), None);
        assert_eq!(opt_i64(&frame, "missing").unwrap(), None);
        assert!(req_str(&frame, "session").is_err(), "int is not a string");
        let bad = parse_frame(r#"{"priority":"high"}"#).unwrap();
        assert!(opt_i64(&bad, "priority").is_err(), "typed optionals reject");
    }
}
