//! Lightweight hierarchical tracing spans.
//!
//! [`span`] returns a guard; the enclosed work is timed from construction
//! to drop. Spans nest per thread (a thread-local depth counter), carry
//! both wall-clock and monotonic timestamps, and are recorded into a
//! bounded ring buffer that the `repro` binary drains into each
//! experiment's run manifest ([`drain_spans`]).
//!
//! Live emission is controlled by `OLA_TRACE`:
//!
//! * `off` (default) — record into the ring buffer only;
//! * `pretty` — additionally print one indented line per completed span to
//!   stderr;
//! * `json` — additionally print one JSON object per completed span to
//!   stderr (machine-tailable).
//!
//! Overhead discipline: spans are placed at *run* granularity (a sweep, a
//! campaign, a batch compile) — never per sample or per event — so the
//! cost with `OLA_TRACE=off` is two `Instant::now` calls and one short
//! mutex-guarded ring push per span. [`set_recording(false)`](set_recording)
//! turns even that off, leaving a depth-counter-only guard; the CI overhead
//! smoke holds the difference under the documented budget.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Live span emission mode (`OLA_TRACE`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Ring buffer only (the default).
    #[default]
    Off,
    /// Indented human-readable lines on stderr.
    Pretty,
    /// One JSON object per span on stderr.
    Json,
}

impl TraceMode {
    /// Parses an `OLA_TRACE` / `--trace` value.
    #[must_use]
    pub fn parse(s: &str) -> Option<TraceMode> {
        match s {
            "off" => Some(TraceMode::Off),
            "pretty" => Some(TraceMode::Pretty),
            "json" => Some(TraceMode::Json),
            _ => None,
        }
    }

    /// The flag spelling of this mode.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Pretty => "pretty",
            TraceMode::Json => "json",
        }
    }
}

const MODE_UNSET: u8 = u8::MAX;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);
static RECORDING: AtomicBool = AtomicBool::new(true);

fn encode(mode: TraceMode) -> u8 {
    match mode {
        TraceMode::Off => 0,
        TraceMode::Pretty => 1,
        TraceMode::Json => 2,
    }
}

/// The active trace mode, reading `OLA_TRACE` on first use. An invalid
/// value warns once on stderr and falls back to `off`.
#[must_use]
pub fn mode() -> TraceMode {
    match MODE.load(Ordering::Relaxed) {
        0 => TraceMode::Off,
        1 => TraceMode::Pretty,
        2 => TraceMode::Json,
        _ => {
            let m = match std::env::var("OLA_TRACE") {
                Ok(v) => {
                    let v = v.trim();
                    TraceMode::parse(v).unwrap_or_else(|| {
                        if !v.is_empty() {
                            eprintln!(
                                "[ola] warning: OLA_TRACE={v:?} is not one of off|pretty|json; \
                                 tracing stays off"
                            );
                        }
                        TraceMode::Off
                    })
                }
                Err(_) => TraceMode::Off,
            };
            MODE.store(encode(m), Ordering::Relaxed);
            m
        }
    }
}

/// Overrides the trace mode (e.g. from `repro --trace`).
pub fn set_mode(mode: TraceMode) {
    MODE.store(encode(mode), Ordering::Relaxed);
}

/// Enables or disables span recording entirely (on by default).
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// One completed span, as stored in the ring buffer and in run manifests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (static at most call sites; `experiment.*` names are
    /// built dynamically by the `repro` binary).
    pub name: Cow<'static, str>,
    /// Small per-process thread ordinal (main thread observes 1-ish;
    /// ordinals are assigned in first-span order).
    pub thread: u64,
    /// Nesting depth on its thread (0 = root).
    pub depth: u32,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub start_unix_ms: u64,
    /// Monotonic start, microseconds since the process's first span.
    pub start_us: u64,
    /// Duration, microseconds (monotonic).
    pub dur_us: u64,
}

const RING_CAP: usize = 4096;

static RING: Mutex<VecDeque<SpanRecord>> = Mutex::new(VecDeque::new());
static THREAD_SEQ: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static THREAD_ORDINAL: Cell<u64> = const { Cell::new(0) };
}

fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|c| {
        let mut v = c.get();
        if v == 0 {
            v = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
            c.set(v);
        }
        v
    })
}

/// An in-flight span; the timed region ends when the guard drops.
#[must_use = "a span measures the region until the guard drops"]
pub struct Span {
    name: Cow<'static, str>,
    depth: u32,
    start: Instant,
    start_unix_ms: u64,
    recorded: bool,
}

/// Opens a span. The guard must be held for the duration of the timed
/// region (bind it to `_span`, not `_`).
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    let recorded = RECORDING.load(Ordering::Relaxed);
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    let (start, start_unix_ms) = if recorded {
        let now = Instant::now();
        let _ = epoch(); // pin the process epoch no later than the first span
        let unix =
            SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or(Duration::ZERO).as_millis();
        (now, u64::try_from(unix).unwrap_or(u64::MAX))
    } else {
        (epoch(), 0)
    };
    Span { name: name.into(), depth, start, start_unix_ms, recorded }
}

impl Drop for Span {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if !self.recorded {
            return;
        }
        let dur = self.start.elapsed();
        let record = SpanRecord {
            name: std::mem::replace(&mut self.name, Cow::Borrowed("")),
            thread: thread_ordinal(),
            depth: self.depth,
            start_unix_ms: self.start_unix_ms,
            start_us: u64::try_from(self.start.saturating_duration_since(epoch()).as_micros())
                .unwrap_or(u64::MAX),
            dur_us: u64::try_from(dur.as_micros()).unwrap_or(u64::MAX),
        };
        match mode() {
            TraceMode::Off => {}
            TraceMode::Pretty => {
                let indent = "  ".repeat(record.depth as usize);
                eprintln!(
                    "[trace] {indent}{} {:.3}ms (t{})",
                    record.name,
                    record.dur_us as f64 / 1000.0,
                    record.thread
                );
            }
            TraceMode::Json => {
                eprintln!(
                    "{{\"type\":\"span\",\"name\":\"{}\",\"thread\":{},\"depth\":{},\
                     \"start_unix_ms\":{},\"start_us\":{},\"dur_us\":{}}}",
                    crate::obs::json::escape(&record.name),
                    record.thread,
                    record.depth,
                    record.start_unix_ms,
                    record.start_us,
                    record.dur_us
                );
            }
        }
        let mut ring = RING.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == RING_CAP {
            ring.pop_front();
        }
        ring.push_back(record);
    }
}

/// Drains every recorded span (oldest first), emptying the ring buffer.
/// The `repro` binary calls this per experiment so each manifest carries
/// only its own spans.
#[must_use]
pub fn drain_spans() -> Vec<SpanRecord> {
    let mut ring = RING.lock().unwrap_or_else(PoisonError::into_inner);
    ring.drain(..).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this module share the global ring; serialize them.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_and_record() {
        let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_recording(true);
        let _ = drain_spans();
        {
            let _outer = span("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span("inner");
            }
        }
        let spans = drain_spans();
        assert_eq!(spans.len(), 2, "inner closes first, then outer");
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert!(spans[1].dur_us >= spans[0].dur_us, "outer contains inner");
        assert!(spans[1].dur_us >= 2_000, "slept 2ms inside outer");
        assert_eq!(spans[0].thread, spans[1].thread);
    }

    #[test]
    fn disabled_recording_skips_the_ring() {
        let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_recording(true);
        let _ = drain_spans();
        set_recording(false);
        {
            let _s = span("ghost");
        }
        set_recording(true);
        assert!(drain_spans().is_empty(), "disabled spans leave no trace");
    }

    #[test]
    fn ring_is_bounded() {
        let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_recording(true);
        let _ = drain_spans();
        for i in 0..(RING_CAP + 10) {
            let _s = span(format!("s{i}"));
        }
        let spans = drain_spans();
        assert_eq!(spans.len(), RING_CAP);
        assert_eq!(spans.last().unwrap().name, format!("s{}", RING_CAP + 9));
    }

    #[test]
    fn mode_parses_and_roundtrips() {
        for m in [TraceMode::Off, TraceMode::Pretty, TraceMode::Json] {
            assert_eq!(TraceMode::parse(m.label()), Some(m));
        }
        assert_eq!(TraceMode::parse("verbose"), None);
        set_mode(TraceMode::Json);
        assert_eq!(mode(), TraceMode::Json);
        set_mode(TraceMode::Off);
        assert_eq!(mode(), TraceMode::Off);
    }
}
