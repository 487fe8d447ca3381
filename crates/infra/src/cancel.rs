//! Cooperative run cancellation.
//!
//! Full-chip decks run for minutes; the dominant run-level failure mode
//! is not a bad kernel (the device layer handles those) but a killed or
//! over-budget *process*. [`CancelToken`] is the one signal threaded
//! through the engine's issue/collect window, the out-of-core shard
//! loop, and the device layer: anything that observes
//! `cancelled()` stops starting new work, drains what is already in
//! flight, and returns partial-but-valid results.
//!
//! Three producers can trip a token:
//!
//! * an explicit [`CancelToken::cancel`] call (tests, embedding code),
//! * a wall-clock deadline ([`CancelToken::with_deadline`]),
//! * the process-wide SIGINT/SIGTERM flag set by
//!   [`install_signal_handlers`], which tokens opt into via
//!   [`CancelToken::linked_to_signals`].
//!
//! Cancellation is *cooperative and monotone*: once a token reports a
//! reason it keeps reporting the same reason, and no API forcibly stops
//! a running task. The engine checks the token only at rule boundaries
//! — the same granularity as the checkpoint journal — so a cancelled
//! run never tears a rule's result set in half.

use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a run was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// The process received SIGINT/SIGTERM, or `cancel()` was called.
    Interrupt,
    /// The `--deadline` wall-clock budget elapsed.
    Deadline,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Interrupt => f.write_str("interrupted"),
            CancelReason::Deadline => f.write_str("deadline exceeded"),
        }
    }
}

const STATE_LIVE: u8 = 0;
const STATE_INTERRUPT: u8 = 1;
const STATE_DEADLINE: u8 = 2;

#[derive(Debug)]
struct Inner {
    /// Latched cancellation state; first writer wins.
    state: AtomicU8,
    /// Wall-clock budget, measured from token creation.
    deadline: Option<Instant>,
    /// Whether `cancelled()` also consults the process signal flag.
    watch_signals: bool,
    /// Deterministic test hook: trip after this many polls (`usize::MAX`
    /// = disabled). Decremented on every `cancelled()` call.
    polls_left: AtomicUsize,
}

/// A cloneable, thread-safe cancellation flag (see the
/// [module docs](self)).
///
/// Clones share state: cancelling one cancels all.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token that only trips on an explicit [`cancel`](Self::cancel).
    pub fn new() -> Self {
        CancelToken::build(None, false, usize::MAX)
    }

    /// A token that trips with [`CancelReason::Deadline`] once `budget`
    /// wall-clock time has elapsed from this call.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken::build(Some(Instant::now() + budget), false, usize::MAX)
    }

    /// A deterministic test token that trips with
    /// [`CancelReason::Interrupt`] after `polls` calls to
    /// [`cancelled`](Self::cancelled). The engine polls the token from
    /// its single-threaded control loop at every rule boundary, so a
    /// poll budget selects a reproducible cancellation point.
    pub fn after_polls(polls: usize) -> Self {
        CancelToken::build(None, false, polls)
    }

    /// Makes this token also trip on the process-wide SIGINT/SIGTERM
    /// flag (see [`install_signal_handlers`]).
    #[must_use]
    pub fn linked_to_signals(self) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(self.inner.state.load(Ordering::Relaxed)),
                deadline: self.inner.deadline,
                watch_signals: true,
                polls_left: AtomicUsize::new(self.inner.polls_left.load(Ordering::Relaxed)),
            }),
        }
    }

    fn build(deadline: Option<Instant>, watch_signals: bool, polls: usize) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(STATE_LIVE),
                deadline,
                watch_signals,
                polls_left: AtomicUsize::new(polls),
            }),
        }
    }

    /// Latches the token as cancelled. The first reason wins; later
    /// calls (and later deadline expiry) do not change it.
    pub fn cancel(&self, reason: CancelReason) {
        let state = match reason {
            CancelReason::Interrupt => STATE_INTERRUPT,
            CancelReason::Deadline => STATE_DEADLINE,
        };
        let _ = self.inner.state.compare_exchange(
            STATE_LIVE,
            state,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Polls the token: `Some(reason)` once cancelled, `None` while
    /// live. Checks, in order: the latched state, the deterministic
    /// poll budget, the process signal flag (if linked), the deadline.
    pub fn cancelled(&self) -> Option<CancelReason> {
        match self.inner.state.load(Ordering::Acquire) {
            STATE_INTERRUPT => return Some(CancelReason::Interrupt),
            STATE_DEADLINE => return Some(CancelReason::Deadline),
            _ => {}
        }
        if self.inner.polls_left.load(Ordering::Relaxed) != usize::MAX {
            let left = self.inner.polls_left.fetch_sub(1, Ordering::Relaxed);
            if left == 0 {
                // Keep the budget from wrapping toward MAX (= disabled).
                self.inner.polls_left.store(0, Ordering::Relaxed);
                self.cancel(CancelReason::Interrupt);
                return Some(CancelReason::Interrupt);
            }
        }
        if self.inner.watch_signals && signal_flag().load(Ordering::Relaxed) {
            self.cancel(CancelReason::Interrupt);
            return Some(CancelReason::Interrupt);
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.cancel(CancelReason::Deadline);
                return Some(CancelReason::Deadline);
            }
        }
        None
    }

    /// Non-consuming peek: `true` once the token is cancelled.
    ///
    /// Unlike [`cancelled`](Self::cancelled) this never decrements the
    /// [`after_polls`](Self::after_polls) budget, so other observers
    /// (the device's stream factory) can check freely without
    /// perturbing the deterministic cancellation point chosen by the
    /// control loop.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.state.load(Ordering::Acquire) != STATE_LIVE {
            return true;
        }
        if self.inner.watch_signals && signal_flag().load(Ordering::Relaxed) {
            self.cancel(CancelReason::Interrupt);
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.cancel(CancelReason::Deadline);
                return true;
            }
        }
        false
    }
}

/// The process-wide flag flipped by the SIGINT/SIGTERM handlers.
fn signal_flag() -> &'static AtomicBool {
    static FLAG: AtomicBool = AtomicBool::new(false);
    &FLAG
}

/// Test/embedding hook: raises or clears the process signal flag as if
/// a SIGINT had arrived.
pub fn set_signal_flag(raised: bool) {
    signal_flag().store(raised, Ordering::Relaxed);
}

/// Installs SIGINT and SIGTERM handlers that set the process-wide flag
/// consulted by [`CancelToken::linked_to_signals`]. The handler only
/// stores to an `AtomicBool` (async-signal-safe); all draining and
/// flushing happens cooperatively on the normal control path.
///
/// Idempotent; a no-op on non-Unix targets.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        // std already links libc; declare the two symbols we need
        // instead of depending on the `libc` crate (the workspace
        // dependency list is fixed).
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_signal(_signum: i32) {
            signal_flag().store(true, Ordering::Relaxed);
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_latches_first_reason() {
        let token = CancelToken::new();
        assert_eq!(token.cancelled(), None);
        token.cancel(CancelReason::Deadline);
        assert_eq!(token.cancelled(), Some(CancelReason::Deadline));
        token.cancel(CancelReason::Interrupt);
        assert_eq!(token.cancelled(), Some(CancelReason::Deadline));
    }

    #[test]
    fn clones_share_state() {
        let token = CancelToken::new();
        let other = token.clone();
        other.cancel(CancelReason::Interrupt);
        assert_eq!(token.cancelled(), Some(CancelReason::Interrupt));
    }

    #[test]
    fn deadline_trips_after_budget() {
        let token = CancelToken::with_deadline(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(token.cancelled(), Some(CancelReason::Deadline));
        // Latched: the reason survives further polls.
        assert_eq!(token.cancelled(), Some(CancelReason::Deadline));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(token.cancelled(), Some(CancelReason::Deadline));
    }

    #[test]
    fn poll_budget_is_deterministic() {
        let token = CancelToken::after_polls(3);
        assert_eq!(token.cancelled(), None);
        assert_eq!(token.cancelled(), None);
        assert_eq!(token.cancelled(), None);
        assert_eq!(token.cancelled(), Some(CancelReason::Interrupt));
        assert_eq!(token.cancelled(), Some(CancelReason::Interrupt));
    }

    #[test]
    fn peek_does_not_consume_poll_budget() {
        let token = CancelToken::after_polls(1);
        assert!(!token.is_cancelled());
        assert!(!token.is_cancelled());
        assert_eq!(token.cancelled(), None);
        assert_eq!(token.cancelled(), Some(CancelReason::Interrupt));
        assert!(token.is_cancelled());
    }

    #[test]
    fn signal_flag_only_observed_when_linked() {
        set_signal_flag(true);
        let unlinked = CancelToken::new();
        assert_eq!(unlinked.cancelled(), None);
        let linked = CancelToken::new().linked_to_signals();
        assert_eq!(linked.cancelled(), Some(CancelReason::Interrupt));
        set_signal_flag(false);
        // Latched even after the flag clears.
        assert_eq!(linked.cancelled(), Some(CancelReason::Interrupt));
    }

    #[test]
    fn install_handlers_is_idempotent() {
        install_signal_handlers();
        install_signal_handlers();
    }
}
