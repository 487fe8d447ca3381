//! Synchronous client for the serve protocol.
//!
//! A [`Client`] owns one connection. Requests are strictly
//! request/response; the complication is that a running job's event
//! frames (`queued`, `running`, `rule`, `done`, `error`) arrive on the
//! same stream and may interleave with later responses. The client
//! demultiplexes by the `event` key: anything with it is buffered for
//! [`Client::wait`], anything without it answers the in-flight
//! request.
//!
//! The blocking [`Client::check_wait`] round trip is what `odrc
//! client check` uses; callers that want to overlap jobs submit with
//! [`Client::check`] on several clients and [`Client::wait`]
//! afterwards.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

use crate::json::{base64, obj, Value};
use crate::proto::{parse_frame, read_frame, write_frame, ServeError};
use crate::wire::WireViolation;

/// What can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write).
    Io(std::io::Error),
    /// The server sent something the protocol does not allow — or
    /// closed the connection mid-conversation.
    Protocol(String),
    /// The server answered with `{"ok":false,...}`; `code` is the
    /// stable [`ServeError`] wire code. Overload errors (code 111)
    /// carry the server's backoff hint in `retry_after_ms`.
    Server {
        code: i64,
        message: String,
        retry_after_ms: Option<i64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, message, .. } => {
                write!(f, "server error {code}: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ServeError> for ClientError {
    fn from(e: ServeError) -> ClientError {
        match e {
            ServeError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// A finished job as the client sees it: the `done`/`error` event
/// unpacked into primitives, plus the rule-progress trail.
#[derive(Debug)]
pub struct JobOutcome {
    pub job: u64,
    /// The CLI-parity exit code (0 clean, 1 violations, 2 hard error,
    /// 3 degraded-clean, 4 interrupted).
    pub exit: i64,
    pub violations: Vec<WireViolation>,
    /// Whether the engine ran the full deck (vs. an incremental delta).
    pub full_run: bool,
    /// Why the run stopped early, if it did (`"interrupt"` or
    /// `"deadline"`).
    pub interrupted: Option<String>,
    /// The `done` event's stats object (engine counters plus
    /// `cache_hits_shared` and `queue_wait_ms`), kept as JSON for
    /// pass-through into `--stats-json`.
    pub stats: Value,
    /// `(rule, status)` pairs in completion order.
    pub rules: Vec<(String, String)>,
    /// The server's message when the terminal event was `error`.
    pub error: Option<String>,
    /// The error event's stable code (e.g. 110 internal, 111 shed)
    /// and backoff hint, for callers that retry on job-level errors.
    pub error_code: Option<i64>,
    pub retry_after_ms: Option<i64>,
}

impl JobOutcome {
    /// Re-expresses a job-level `error` event as a [`ClientError`],
    /// so terminal errors can flow through [`RetryPolicy::run`] — a
    /// shed job (code 111) then retries with the server's hint.
    pub fn into_result(self) -> Result<JobOutcome, ClientError> {
        match &self.error {
            Some(message) => Err(ClientError::Server {
                code: self.error_code.unwrap_or(110),
                message: message.clone(),
                retry_after_ms: self.retry_after_ms,
            }),
            None => Ok(self),
        }
    }
}

impl JobOutcome {
    /// A named counter out of the stats object (0 when absent).
    pub fn stat(&self, key: &str) -> i64 {
        self.stats.get(key).and_then(Value::as_i64).unwrap_or(0)
    }

    /// Renders the CLI `--report` CSV (header plus one row per
    /// violation) — byte-identical to a one-shot run on the same
    /// layout and deck.
    pub fn report_csv(&self) -> String {
        let mut out = String::from("rule,kind,x0,y0,x1,y1,measured\n");
        for v in &self.violations {
            out.push_str(&v.to_csv_row());
            out.push('\n');
        }
        out
    }
}

/// One protocol connection. Not thread-safe by design — open one
/// client per thread; the server multiplexes.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Event frames that arrived while a response was awaited.
    pending: Vec<Value>,
    /// Heartbeats answered but not yet acknowledged: each server
    /// `ping` event is answered with a `ping` request, whose
    /// `{"ok":true,"pong":true}` response arrives *later* in the
    /// stream and must be skipped, not mistaken for the answer to a
    /// real request.
    pongs_owed: usize,
}

impl Client {
    /// Connects and validates the `hello` handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
            pending: Vec::new(),
            pongs_owed: 0,
        };
        let hello = client.request(obj([("verb", Value::from("hello"))]))?;
        match hello.get("protocol").and_then(Value::as_i64) {
            Some(1) => Ok(client),
            other => Err(ClientError::Protocol(format!(
                "unsupported server protocol {other:?}"
            ))),
        }
    }

    /// Opens an edit session from in-memory GDSII bytes. Returns the
    /// session id.
    pub fn open_bytes(&mut self, gds: &[u8], rules: &str, mode: &str) -> Result<u64, ClientError> {
        self.open_frame(obj([
            ("verb", Value::from("open")),
            ("gds_b64", Value::from(base64::encode(gds))),
            ("rules", Value::from(rules)),
            ("mode", Value::from(mode)),
        ]))
    }

    fn open_frame(&mut self, frame: Value) -> Result<u64, ClientError> {
        let response = self.request(frame)?;
        field_u64(&response, "session")
    }

    /// Streams edit ops (already in wire JSON — see
    /// [`crate::wire::edit_op_to_json`]) into a session. Returns how
    /// many were applied.
    pub fn edit(&mut self, session: u64, ops: Vec<Value>) -> Result<u64, ClientError> {
        let response = self.request(obj([
            ("verb", Value::from("edit")),
            ("session", Value::from(session)),
            ("ops", Value::Array(ops)),
        ]))?;
        field_u64(&response, "applied")
    }

    /// Submits a check job; returns the job id immediately. Follow
    /// with [`Client::wait`].
    pub fn check(
        &mut self,
        session: u64,
        priority: i64,
        deadline_ms: Option<u64>,
    ) -> Result<u64, ClientError> {
        self.check_with_key(session, priority, deadline_ms, None)
    }

    /// [`Client::check`] with an optional idempotency key. A keyed
    /// submission is journaled server-side before it is acknowledged:
    /// resubmitting the same key replays the journaled result or
    /// attaches to the already-running job, and a restarted server
    /// resumes the job from its checkpoint. Keys make blind retries
    /// safe — the check never runs twice.
    pub fn check_with_key(
        &mut self,
        session: u64,
        priority: i64,
        deadline_ms: Option<u64>,
        key: Option<&str>,
    ) -> Result<u64, ClientError> {
        let mut pairs = vec![
            ("verb", Value::from("check")),
            ("session", Value::from(session)),
            ("priority", Value::Int(priority)),
            (
                "deadline_ms",
                match deadline_ms {
                    Some(ms) => Value::from(ms),
                    None => Value::Null,
                },
            ),
        ];
        if let Some(key) = key {
            pairs.push(("key", Value::from(key)));
        }
        let response = self.request(obj(pairs))?;
        field_u64(&response, "job")
    }

    /// Blocks until job `job` reaches its terminal event, collecting
    /// the rule-progress trail along the way.
    pub fn wait(&mut self, job: u64) -> Result<JobOutcome, ClientError> {
        let mut rules = Vec::new();
        loop {
            let event = self.next_event(job)?;
            match event.get("event").and_then(Value::as_str) {
                Some("queued") | Some("running") => {}
                Some("rule") => {
                    if let (Some(rule), Some(status)) = (
                        event.get("rule").and_then(Value::as_str),
                        event.get("status").and_then(Value::as_str),
                    ) {
                        rules.push((rule.to_string(), status.to_string()));
                    }
                }
                Some("done") => {
                    let violations = event
                        .get("violations")
                        .and_then(Value::as_array)
                        .unwrap_or(&[])
                        .iter()
                        .map(WireViolation::from_json)
                        .collect::<Result<Vec<_>, _>>()?;
                    return Ok(JobOutcome {
                        job,
                        exit: event.get("exit").and_then(Value::as_i64).unwrap_or(2),
                        violations,
                        full_run: event
                            .get("full_run")
                            .and_then(Value::as_bool)
                            .unwrap_or(true),
                        interrupted: event
                            .get("interrupted")
                            .and_then(Value::as_str)
                            .map(str::to_string),
                        stats: event.get("stats").cloned().unwrap_or(Value::Null),
                        rules,
                        error: None,
                        error_code: None,
                        retry_after_ms: None,
                    });
                }
                Some("error") => {
                    return Ok(JobOutcome {
                        job,
                        exit: event.get("exit").and_then(Value::as_i64).unwrap_or(2),
                        violations: Vec::new(),
                        full_run: true,
                        interrupted: None,
                        stats: Value::Null,
                        rules,
                        error: Some(
                            event
                                .get("error")
                                .and_then(Value::as_str)
                                .unwrap_or("unknown server error")
                                .to_string(),
                        ),
                        error_code: event.get("code").and_then(Value::as_i64),
                        retry_after_ms: event.get("retry_after_ms").and_then(Value::as_i64),
                    });
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected event {other:?} for job {job}"
                    )))
                }
            }
        }
    }

    /// Submit-and-block convenience.
    pub fn check_wait(
        &mut self,
        session: u64,
        priority: i64,
        deadline_ms: Option<u64>,
    ) -> Result<JobOutcome, ClientError> {
        let job = self.check(session, priority, deadline_ms)?;
        self.wait(job)
    }

    /// Asks the server to cancel a job. The job still winds down to a
    /// terminal event (exit 4), which [`Client::wait`] observes.
    pub fn cancel(&mut self, job: u64) -> Result<(), ClientError> {
        self.request(obj([
            ("verb", Value::from("cancel")),
            ("job", Value::from(job)),
        ]))?;
        Ok(())
    }

    /// Fetches the server-wide counters (`jobs_admitted`,
    /// `jobs_rejected`, `cache_hits_shared`, ...).
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        self.request(obj([("verb", Value::from("stats"))]))
    }

    /// Fetches the liveness probe (`uptime_ms`, `queue_depth`,
    /// `workers_busy`, `draining`) — the load-balancer `health` verb.
    pub fn health(&mut self) -> Result<Value, ClientError> {
        self.request(obj([("verb", Value::from("health"))]))
    }

    /// Round-trips a heartbeat to check the connection is alive.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(obj([("verb", Value::from("ping"))]))?;
        Ok(())
    }

    /// Closes an edit session.
    pub fn close(&mut self, session: u64) -> Result<(), ClientError> {
        self.request(obj([
            ("verb", Value::from("close")),
            ("session", Value::from(session)),
        ]))?;
        Ok(())
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(obj([("verb", Value::from("shutdown"))]))?;
        Ok(())
    }

    /// One request/response round trip; event frames that arrive first
    /// are buffered for [`Client::wait`], heartbeats are answered
    /// inline.
    fn request(&mut self, frame: Value) -> Result<Value, ClientError> {
        write_frame(&mut self.writer, &frame)?;
        loop {
            let response = self.read_value()?;
            if self.absorb_ping(&response)? {
                continue;
            }
            if response.get("event").is_some() {
                self.pending.push(response);
                continue;
            }
            if self.skip_pong(&response) {
                continue;
            }
            return check_ok(response);
        }
    }

    /// The next event for `job`: drains the buffer first, then the
    /// socket. Events for *other* jobs stay buffered; heartbeats are
    /// answered inline.
    fn next_event(&mut self, job: u64) -> Result<Value, ClientError> {
        loop {
            if let Some(at) = self
                .pending
                .iter()
                .position(|e| e.get("job").and_then(Value::as_i64) == Some(job as i64))
            {
                return Ok(self.pending.remove(at));
            }
            let frame = self.read_value()?;
            if self.absorb_ping(&frame)? {
                continue;
            }
            if frame.get("event").is_some() {
                self.pending.push(frame);
            } else if !self.skip_pong(&frame) {
                return Err(ClientError::Protocol(
                    "response frame with no request in flight".to_string(),
                ));
            }
        }
    }

    /// Answers a server heartbeat (`{"event":"ping"}`) with a `ping`
    /// request, noting that its pong response must later be skipped.
    /// Returns whether the frame was a heartbeat.
    fn absorb_ping(&mut self, frame: &Value) -> Result<bool, ClientError> {
        if frame.get("event").and_then(Value::as_str) != Some("ping") {
            return Ok(false);
        }
        write_frame(&mut self.writer, &obj([("verb", Value::from("ping"))]))?;
        self.pongs_owed += 1;
        Ok(true)
    }

    /// Swallows the response to an earlier heartbeat answer. Returns
    /// whether the frame was such a pong.
    fn skip_pong(&mut self, frame: &Value) -> bool {
        if self.pongs_owed > 0 && frame.get("pong").and_then(Value::as_bool) == Some(true) {
            self.pongs_owed -= 1;
            true
        } else {
            false
        }
    }

    fn read_value(&mut self) -> Result<Value, ClientError> {
        let line = read_frame(&mut self.reader)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".to_string()))?;
        Ok(parse_frame(&line)?)
    }
}

/// Reconnect-and-resubmit policy: capped exponential backoff, honoring
/// the server's `retry_after_ms` hint when one is present.
///
/// What counts as retryable is deliberately narrow: socket failures,
/// a torn protocol stream (the server died mid-frame), and the typed
/// transient server errors — draining (105), server i/o (109),
/// internal job failure (110), overloaded (111). Everything else
/// (bad layout, bad deck, unknown session) will fail identically on
/// every attempt and is surfaced immediately.
///
/// Blind retries are safe only when the submission carries an
/// idempotency key ([`Client::check_with_key`]); the policy does not
/// enforce that, the caller must.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 0 behaves as 1.
    pub attempts: u32,
    /// Delay before the first retry, doubling each attempt.
    pub base_ms: u64,
    /// Ceiling on any single delay.
    pub cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base_ms: 200,
            cap_ms: 5000,
        }
    }
}

impl RetryPolicy {
    /// Whether an error is worth retrying at all.
    pub fn retryable(err: &ClientError) -> bool {
        match err {
            ClientError::Io(_) | ClientError::Protocol(_) => true,
            ClientError::Server { code, .. } => matches!(code, 105 | 109 | 110 | 111),
        }
    }

    /// The server's backoff hint carried by an error, if any.
    pub fn hint(err: &ClientError) -> Option<i64> {
        match err {
            ClientError::Server { retry_after_ms, .. } => *retry_after_ms,
            _ => None,
        }
    }

    /// Delay before retry number `attempt` (0-based), folding in the
    /// server's hint: the client never comes back *sooner* than the
    /// server asked, and never later than the cap.
    pub fn delay_ms(&self, attempt: u32, server_hint_ms: Option<i64>) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.cap_ms);
        match server_hint_ms {
            Some(h) if h > 0 => exp.max(h as u64).min(self.cap_ms),
            _ => exp,
        }
    }

    /// Drives `f` until it succeeds, the error stops being retryable,
    /// or the attempts run out. `f` receives the 0-based attempt
    /// number and must redo the whole unit of work (connect, open,
    /// resubmit) — with an idempotency key that redo is free on the
    /// server.
    pub fn run<T>(
        &self,
        mut f: impl FnMut(u32) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let attempts = self.attempts.max(1);
        let mut attempt = 0;
        loop {
            match f(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if attempt + 1 < attempts && RetryPolicy::retryable(&e) => {
                    let delay = self.delay_ms(attempt, RetryPolicy::hint(&e));
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn check_ok(response: Value) -> Result<Value, ClientError> {
    match response.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(response),
        Some(false) => Err(ClientError::Server {
            code: response.get("code").and_then(Value::as_i64).unwrap_or(-1),
            message: response
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown error")
                .to_string(),
            retry_after_ms: response.get("retry_after_ms").and_then(Value::as_i64),
        }),
        None => Err(ClientError::Protocol(
            "response frame without \"ok\"".to_string(),
        )),
    }
}

fn field_u64(response: &Value, key: &str) -> Result<u64, ClientError> {
    response
        .get(key)
        .and_then(Value::as_i64)
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| ClientError::Protocol(format!("response missing {key:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_err(code: i64, hint: Option<i64>) -> ClientError {
        ClientError::Server {
            code,
            message: "x".to_string(),
            retry_after_ms: hint,
        }
    }

    #[test]
    fn retryable_is_narrow() {
        assert!(RetryPolicy::retryable(&ClientError::Io(
            std::io::Error::from(std::io::ErrorKind::ConnectionReset)
        )));
        assert!(RetryPolicy::retryable(&ClientError::Protocol(
            "torn".into()
        )));
        for code in [105, 109, 110, 111] {
            assert!(RetryPolicy::retryable(&server_err(code, None)), "{code}");
        }
        for code in [100, 102, 103, 104, 106, 107, 108] {
            assert!(!RetryPolicy::retryable(&server_err(code, None)), "{code}");
        }
    }

    #[test]
    fn backoff_doubles_caps_and_honors_hints() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay_ms(0, None), 200);
        assert_eq!(p.delay_ms(1, None), 400);
        assert_eq!(p.delay_ms(2, None), 800);
        assert_eq!(p.delay_ms(10, None), 5000, "capped");
        assert_eq!(p.delay_ms(0, Some(900)), 900, "hint raises the floor");
        assert_eq!(
            p.delay_ms(4, Some(900)),
            3200,
            "backoff beyond the hint wins"
        );
        assert_eq!(p.delay_ms(0, Some(60_000)), 5000, "hint is capped too");
        let huge = RetryPolicy {
            attempts: 99,
            base_ms: u64::MAX / 2,
            cap_ms: u64::MAX,
        };
        assert_eq!(huge.delay_ms(63, None), u64::MAX, "no overflow");
    }

    #[test]
    fn run_retries_then_surfaces_terminal_errors() {
        let p = RetryPolicy {
            attempts: 3,
            base_ms: 0,
            cap_ms: 0,
        };
        let mut seen = Vec::new();
        let out: Result<u32, _> = p.run(|attempt| {
            seen.push(attempt);
            if attempt < 2 {
                Err(server_err(111, Some(0)))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.unwrap(), 2);
        assert_eq!(seen, vec![0, 1, 2]);

        // Non-retryable: one attempt only.
        let mut calls = 0;
        let out: Result<(), _> = p.run(|_| {
            calls += 1;
            Err(server_err(107, None))
        });
        assert!(matches!(out, Err(ClientError::Server { code: 107, .. })));
        assert_eq!(calls, 1);

        // Retryable but attempts exhausted.
        let mut calls = 0;
        let out: Result<(), _> = p.run(|_| {
            calls += 1;
            Err(server_err(111, Some(0)))
        });
        assert!(matches!(out, Err(ClientError::Server { code: 111, .. })));
        assert_eq!(calls, 3);
    }
}
