//! Cooperative cancellation for long-running simulations.
//!
//! A [`CancelToken`] is a cheap, cloneable flag shared between a
//! controller (a driver enforcing a wall-clock budget, a Ctrl-C handler)
//! and workers (the batch simulation loop, sweep searches, Monte-Carlo
//! folds). The controller calls [`CancelToken::cancel`]; workers poll
//! [`CancelToken::is_cancelled`] at bounded intervals and unwind with a
//! typed error ([`BatchError::Cancelled`](crate::BatchError::Cancelled))
//! instead of running to completion on cores nobody is waiting for. The
//! event-driven simulator is a single-vector reference oracle and takes
//! no token: its callers poll between vectors.
//!
//! Tokens may carry a deadline ([`CancelToken::with_deadline`]): once the
//! deadline passes, the token reports cancelled without anyone calling
//! [`CancelToken::cancel`] — the polling thread latches the flag itself,
//! so the `Instant` comparison happens at most once per poll site until
//! the latch sticks.
//!
//! Cancellation is *cooperative and lossless*: a worker observing the
//! flag stops at the next check point (every few hundred nets in the
//! batch engine), never mid-write, so any state it already published
//! (checkpoint frames, completed folds) remains valid.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The typed payload of a cancelled operation.
///
/// Doubles as a panic payload: layers whose signatures are infallible
/// propagate cancellation by `std::panic::panic_any(Cancelled)`, and the
/// guard thread that owns the token downcasts the payload back to this
/// type to distinguish an orderly stop from a genuine panic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "operation cancelled")
    }
}

impl std::error::Error for Cancelled {}

#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cancellation flag with an optional deadline.
///
/// Cloning is cheap (one `Arc` bump); all clones observe the same flag.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh token that only cancels when [`CancelToken::cancel`] is
    /// called.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken { inner: Arc::new(Inner { flag: AtomicBool::new(false), deadline: None }) }
    }

    /// A token that self-cancels once `budget` wall-clock time has
    /// elapsed (measured from construction). [`CancelToken::cancel`]
    /// still works for early cancellation.
    #[must_use]
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: Instant::now().checked_add(budget),
            }),
        }
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] was called or the deadline (if
    /// any) has passed. A passed deadline latches the flag, so later
    /// polls skip the clock read.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                self.inner.flag.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// `Err(Cancelled)` once the token is cancelled — the `?`-friendly
    /// form of [`CancelToken::is_cancelled`].
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token is cancelled.
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live_and_cancel_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        let clone = t.clone();
        t.cancel();
        assert!(t.is_cancelled());
        assert!(clone.is_cancelled(), "clones share the flag");
        assert_eq!(clone.check(), Err(Cancelled));
    }

    #[test]
    fn deadline_latches_without_explicit_cancel() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled(), "zero budget is immediately expired");
        let slow = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!slow.is_cancelled());
    }

    #[test]
    fn cancelled_displays_and_errors() {
        assert_eq!(Cancelled.to_string(), "operation cancelled");
        let e: Box<dyn std::error::Error> = Box::new(Cancelled);
        assert!(e.to_string().contains("cancelled"));
    }
}
