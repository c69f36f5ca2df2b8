//! # Resilience: cancellation and crash-safe artifacts.
//!
//! The paper's thesis is graceful degradation at the circuit level — an
//! overclocked online datapath loses accuracy smoothly instead of failing
//! catastrophically. This module applies the same principle at the system
//! level, for the multi-hour reproduction sweeps:
//!
//! * **Cooperative cancellation** — an *ambient* (thread-local)
//!   [`CancelToken`] that the sampling engines ([`crate::empirical`],
//!   [`crate::campaign`], [`crate::montecarlo`]) and the
//!   [`crate::parallel`] work-stealing pool poll between work units.
//!   Because most of those APIs are infallible by design, cancellation
//!   propagates as an unwind carrying the typed [`Cancelled`] payload
//!   ([`check_cancelled`]); the guard thread that owns the token catches
//!   the unwind and downcasts it back ([`is_cancel_payload`]) to tell an
//!   orderly stop from a genuine panic.
//! * **Crash-safe artifacts** — [`atomic_write`] (write `<path>.tmp`,
//!   then rename) so no crash point leaves a truncated CSV/PGM/manifest,
//!   [`retry_io`] with bounded backoff for transient io errors, and the
//!   append-only SHA-256-framed [`checkpoint`] log that `repro --resume`
//!   replays.
//! * **Chaos hooks** — the [`chaos`] submodule reads `OLA_CHAOS_*`
//!   environment variables so the `chaos_check` harness can inject
//!   deterministic failures (torn frames, aborts, panics, cache rot) into
//!   an otherwise-unmodified binary. Its boolean switches,
//!   `OLA_PROVE_REWRITES` and `OLA_BATCH_CHECK_INCREMENTAL` (the fault
//!   campaigns' cross-check, see [`crate::campaign`]) share one grammar:
//!   [`env_flag`]. A malformed frame count, and an `OLA_CHAOS_PANIC`
//!   that names no experiment, warn the same way.

pub mod checkpoint;

pub use checkpoint::{open_resumable, read_frames, CheckpointWriter, ReadOutcome, CHAOS_EXIT};
pub use ola_netlist::{CancelToken, Cancelled};

use std::cell::RefCell;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Error taxonomy

/// The crate-spanning resilience error: everything a guarded experiment
/// run can fail (or stop) with, in one typed enum.
#[derive(Debug)]
#[non_exhaustive]
pub enum ResilienceError {
    /// The run's [`CancelToken`] fired (wall-clock budget, user abort).
    Cancelled,
    /// An io failure that survived [`retry_io`]'s bounded retries.
    Io {
        /// What was being attempted (for the operator, not for matching).
        context: String,
        /// The final underlying error.
        source: io::Error,
    },
    /// A checkpoint frame failed validation (bad magic, digest mismatch,
    /// truncation, unparseable payload).
    CorruptFrame {
        /// The checkpoint file.
        path: PathBuf,
        /// Zero-based index of the first bad frame.
        frame: u64,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilienceError::Cancelled => write!(f, "run cancelled"),
            ResilienceError::Io { context, source } => write!(f, "{context}: {source}"),
            ResilienceError::CorruptFrame { path, frame, reason } => {
                write!(f, "corrupt checkpoint frame {frame} in {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for ResilienceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResilienceError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<Cancelled> for ResilienceError {
    fn from(_: Cancelled) -> Self {
        ResilienceError::Cancelled
    }
}

// ---------------------------------------------------------------------------
// Ambient cancellation

thread_local! {
    /// Stack of installed tokens; the innermost wins. A stack (not a slot)
    /// so nested guarded scopes restore their outer token on drop, and a
    /// thread-local (not a process global) so concurrently running tests
    /// cannot cancel each other.
    static AMBIENT: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`install_ambient`]; uninstalls on drop.
#[must_use = "dropping the guard uninstalls the ambient token"]
pub struct AmbientGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|a| a.borrow_mut().pop());
    }
}

/// Installs `token` as this thread's ambient cancellation token until the
/// returned guard drops. The [`crate::parallel`] pool re-installs the
/// spawning thread's ambient token inside each worker, so cancellation
/// reaches every fold of a parallel accumulation.
pub fn install_ambient(token: CancelToken) -> AmbientGuard {
    AMBIENT.with(|a| a.borrow_mut().push(token));
    AmbientGuard { _not_send: std::marker::PhantomData }
}

/// This thread's innermost ambient token, if one is installed.
#[must_use]
pub fn ambient_token() -> Option<CancelToken> {
    AMBIENT.with(|a| a.borrow().last().cloned())
}

/// True once the ambient token (if any) is cancelled.
#[must_use]
pub fn is_cancelled() -> bool {
    ambient_token().is_some_and(|t| t.is_cancelled())
}

/// Unwinds with the typed [`Cancelled`] payload if the ambient token is
/// cancelled — the cancellation point for infallible APIs. The guard that
/// installed the token catches the unwind and recognizes the payload via
/// [`is_cancel_payload`]; no other code observes it.
pub fn check_cancelled() {
    if is_cancelled() {
        std::panic::panic_any(Cancelled);
    }
}

/// True if a caught panic payload is the [`Cancelled`] signal (an orderly
/// cooperative stop), as opposed to a genuine panic.
#[must_use]
pub fn is_cancel_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<Cancelled>()
}

// ---------------------------------------------------------------------------
// Crash-safe io

/// Attempts per [`retry_io`] call (1 initial + 2 retries).
pub const IO_ATTEMPTS: usize = 3;

fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs `f`, retrying transient io errors (interrupted / would-block /
/// timed-out) up to [`IO_ATTEMPTS`] times with doubling backoff starting
/// at 10 ms. Non-transient errors fail immediately.
///
/// # Errors
///
/// [`ResilienceError::Io`] wrapping the last underlying error.
pub fn retry_io<T>(
    context: &str,
    mut f: impl FnMut() -> io::Result<T>,
) -> Result<T, ResilienceError> {
    let mut backoff = Duration::from_millis(10);
    for attempt in 1.. {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < IO_ATTEMPTS && is_transient(&e) => {
                crate::obs::registry().counter("ola.resilience.io_retries").inc();
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            Err(e) => return Err(ResilienceError::Io { context: context.to_string(), source: e }),
        }
    }
    unreachable!("loop exits via return")
}

/// Writes `bytes` to `path` atomically: the content lands in a sibling
/// `<name>.tmp` first (created, written, fsynced), then renames over the
/// destination. A crash at any point leaves either the old file or the
/// new one — never a truncated hybrid for `manifest_check` to trip over.
///
/// # Errors
///
/// Propagates filesystem errors from the write or the rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut name = path.file_name().map(std::ffi::OsString::from).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "atomic_write needs a file name")
    })?;
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Boolean environment switches

/// Reads the boolean switch `var`: `1` or `true` is on; `0`, `false`,
/// empty or unset is off (case and surrounding whitespace ignored). Any
/// other value warns once per variable on stderr and counts as off, so a
/// misspelt switch is neither armed nor silently ignored.
#[must_use]
pub fn env_flag(var: &str) -> bool {
    let raw = std::env::var_os(var).unwrap_or_default();
    match raw.to_str().map(str::trim) {
        Some("1") => true,
        Some("0" | "") => false,
        Some(v) if v.eq_ignore_ascii_case("true") => true,
        Some(v) if v.eq_ignore_ascii_case("false") => false,
        _ => {
            warn_once(var, &raw, "one of 1|true|0|false; it stays off");
            false
        }
    }
}

/// Warns on stderr, the first time only for each `var`, that its value
/// `raw` is not `expected`.
pub(crate) fn warn_once(var: &str, raw: &std::ffi::OsStr, expected: &str) {
    static WARNED: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());
    let mut warned = WARNED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if !warned.iter().any(|w| w == var) {
        warned.push(var.to_owned());
        eprintln!("[ola] warning: {var}={raw:?} is not {expected}");
    }
}

// ---------------------------------------------------------------------------
// Chaos hooks

/// Deterministic failure injection for the chaos harness, driven by
/// `OLA_CHAOS_*` environment variables. All hooks default off; production
/// runs never set them. Reading the environment at each call keeps the
/// hooks honest about process-wide state (the variables are set before
/// spawn and never mutated mid-run).
pub mod chaos {
    /// Aborts the process (exit [`CHAOS_EXIT`](super::CHAOS_EXIT)) after
    /// this many checkpoint frames have been durably appended — a
    /// SIGKILL at a clean frame boundary.
    pub const ABORT_AFTER_FRAMES: &str = "OLA_CHAOS_ABORT_AFTER_FRAMES";
    /// Aborts the process mid-append of this (1-based) checkpoint frame,
    /// leaving half a frame on disk — a SIGKILL mid-write.
    pub const TORN_FRAME: &str = "OLA_CHAOS_TORN_FRAME";
    /// Names an experiment that must panic at its start — a synthetic
    /// crash inside experiment code.
    pub const PANIC: &str = "OLA_CHAOS_PANIC";
    /// Makes every `ola-serve` worker panic mid-request (set to `1`, see
    /// [`env_flag`](super::env_flag)) — the request must become a 500 and
    /// the server must stay up.
    pub const SERVE_PANIC: &str = "OLA_CHAOS_SERVE_PANIC";
    /// Makes the content-addressed cache flip one byte of every payload
    /// it *stores* (set to `1`, see [`env_flag`](super::env_flag)) — reads
    /// must detect the digest mismatch and recompute, never serve rot.
    pub const CACHE_TAMPER: &str = "OLA_CHAOS_CACHE_TAMPER";

    fn num(var: &str) -> Option<u64> {
        parse_num(var, &std::env::var_os(var)?)
    }

    /// A frame count: a non-negative integer (surrounding whitespace
    /// ignored). Empty is unset; anything else warns once, like
    /// [`env_flag`](super::env_flag), and leaves the hook off.
    pub(super) fn parse_num(var: &str, raw: &std::ffi::OsStr) -> Option<u64> {
        let v = raw.to_str().map(str::trim);
        let n = v.and_then(|v| v.parse().ok());
        if n.is_none() && v != Some("") {
            super::warn_once(var, raw, "a non-negative integer; the hook stays off");
        }
        n
    }

    /// The [`ABORT_AFTER_FRAMES`] threshold, if set.
    #[must_use]
    pub fn abort_after_frames() -> Option<u64> {
        num(ABORT_AFTER_FRAMES)
    }

    /// The [`TORN_FRAME`] index, if set.
    #[must_use]
    pub fn torn_frame() -> Option<u64> {
        num(TORN_FRAME)
    }

    /// The experiment named by [`PANIC`], if set to one of `names`.
    #[must_use]
    pub fn panic_target<'a>(names: &[&'a str]) -> Option<&'a str> {
        parse_panic_target(&std::env::var_os(PANIC)?, names)
    }

    /// An experiment name: one of `names` (surrounding whitespace
    /// ignored). Empty is unset; anything else warns once, like
    /// [`env_flag`](super::env_flag), and arms nothing.
    pub(super) fn parse_panic_target<'a>(
        raw: &std::ffi::OsStr,
        names: &[&'a str],
    ) -> Option<&'a str> {
        let v = raw.to_str().map(str::trim);
        let name = names.iter().copied().find(|n| v == Some(*n));
        if name.is_none() && v != Some("") {
            super::warn_once(PANIC, raw, "an experiment name; no experiment panics");
        }
        name
    }

    /// True when [`SERVE_PANIC`] is on.
    #[must_use]
    pub fn serve_panic_forced() -> bool {
        super::env_flag(SERVE_PANIC)
    }

    /// True when [`CACHE_TAMPER`] is on.
    #[must_use]
    pub fn cache_tamper_forced() -> bool {
        super::env_flag(CACHE_TAMPER)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boolean_switches_share_one_grammar() {
        for (value, want) in [
            ("1", true),
            ("true", true),
            ("TRUE", true),
            (" 1 ", true),
            ("0", false),
            ("false", false),
            ("False", false),
            ("", false),
            // Anything else warns and counts as off.
            ("on", false),
            ("off", false),
            ("yes", false),
            ("2", false),
        ] {
            // Through a variable only this test sets.
            let var = "OLA_TEST_FLAG_GRAMMAR";
            std::env::set_var(var, value);
            assert_eq!(env_flag(var), want, "{var}={value:?}");
            std::env::remove_var(var);
            assert!(!env_flag(var), "unset is off");
        }
    }

    #[test]
    fn frame_counts_parse_or_warn() {
        for (raw, want) in [
            ("0", Some(0)),
            ("2", Some(2)),
            (" 17 ", Some(17)),
            ("", None),
            ("  ", None),
            // Anything else warns and leaves the hook off.
            ("-1", None),
            ("1.5", None),
            ("two", None),
            ("2x", None),
        ] {
            assert_eq!(chaos::parse_num(chaos::TORN_FRAME, raw.as_ref()), want, "{raw:?}");
        }
    }

    #[test]
    fn panic_targets_name_an_experiment_or_warn() {
        let names = ["sta", "fig4"];
        for (raw, want) in [
            ("sta", Some("sta")),
            (" fig4 ", Some("fig4")),
            ("", None),
            // Anything else warns and arms nothing.
            ("nosuch", None),
            ("STA", None),
            ("sta fig4", None),
        ] {
            assert_eq!(chaos::parse_panic_target(raw.as_ref(), &names), want, "{raw:?}");
        }
    }

    #[test]
    fn ambient_tokens_nest_and_uninstall() {
        assert!(ambient_token().is_none());
        let outer = CancelToken::new();
        let g1 = install_ambient(outer.clone());
        assert!(!is_cancelled());
        {
            let inner = CancelToken::new();
            let _g2 = install_ambient(inner.clone());
            inner.cancel();
            assert!(is_cancelled(), "innermost token wins");
        }
        assert!(!is_cancelled(), "outer token restored after inner guard drops");
        outer.cancel();
        assert!(is_cancelled());
        drop(g1);
        assert!(ambient_token().is_none());
    }

    #[test]
    fn check_cancelled_unwinds_with_the_typed_payload() {
        let tok = CancelToken::new();
        let _g = install_ambient(tok.clone());
        check_cancelled(); // live token: no-op
        tok.cancel();
        let payload =
            std::panic::catch_unwind(check_cancelled).expect_err("must unwind once cancelled");
        assert!(is_cancel_payload(payload.as_ref()));
        assert!(!is_cancel_payload(Box::new("plain panic").as_ref()));
    }

    #[test]
    fn error_taxonomy_wraps_and_displays() {
        let e: ResilienceError = Cancelled.into();
        assert!(matches!(e, ResilienceError::Cancelled));
        assert_eq!(e.to_string(), "run cancelled");
        assert!(std::error::Error::source(&e).is_none());
        let e =
            ResilienceError::Io { context: "writing x".into(), source: io::Error::other("boom") };
        assert!(e.to_string().contains("writing x"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn retry_io_retries_transient_and_fails_fast_on_hard_errors() {
        // Transient errors are retried up to the attempt budget.
        let mut calls = 0;
        let out: Result<u32, _> = retry_io("flaky", || {
            calls += 1;
            if calls < IO_ATTEMPTS {
                Err(io::Error::new(io::ErrorKind::Interrupted, "blip"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls, IO_ATTEMPTS);

        // Hard errors fail on the first attempt.
        let mut calls = 0;
        let out: Result<(), _> = retry_io("denied", || {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::PermissionDenied, "nope"))
        });
        assert!(matches!(out, Err(ResilienceError::Io { .. })));
        assert_eq!(calls, 1);

        // Persistent transient errors exhaust the budget.
        let mut calls = 0;
        let out: Result<(), _> = retry_io("stuck", || {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::TimedOut, "still stuck"))
        });
        assert!(out.is_err());
        assert_eq!(calls, IO_ATTEMPTS);
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("ola_resilience_atomic_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!path.with_file_name("out.csv.tmp").exists(), "tmp renamed away");
        assert!(atomic_write(Path::new("/"), b"x").is_err(), "no file name");
    }
}
