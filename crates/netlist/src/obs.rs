//! Observability hooks for the simulation engines.
//!
//! `ola-netlist` deliberately has no dependency on the `ola-core`
//! observability layer (or any other consumer). Instead it exposes a tiny
//! [`SimObserver`] trait plus a process-global registration point
//! ([`install_observer`]): a downstream crate installs one observer and the
//! engines report coarse, *deterministic* facts about their work — one call
//! per simulation run / batch pass / compile, never per event.
//!
//! Design constraints:
//!
//! * **Near-free when uninstalled.** The fast path is a single relaxed
//!   atomic load (see `with_observer`); no observer means no virtual
//!   call, no allocation, nothing.
//! * **Deterministic payloads.** Every quantity handed to the observer is
//!   simulation-domain (event counts, settle times in time units, lane
//!   counts) — never wall-clock time — so an observer that sums them gets
//!   totals independent of thread interleaving and thread count.
//! * **Hot-loop free.** Hooks fire at run granularity. The event
//!   simulator's settle loop is *summarized* (`events`, `settle_time`)
//!   rather than instrumented per event; the batch engine reports per
//!   pass, not per level.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Coarse-grained observer of the simulation engines.
///
/// All methods have no-op defaults; implement only what you consume. Every
/// argument is deterministic simulation-domain data (see the module docs).
pub trait SimObserver: Sync {
    /// One event-driven simulation run settled: `events` net transitions
    /// were recorded and the last one happened at `settle_time`.
    fn event_run(&self, events: u64, settle_time: u64) {
        let _ = (events, settle_time);
    }

    /// One event-driven run aborted via [`SimError::Unsettled`]
    /// (combinational cycle / runaway oscillation): `processed` scheduled
    /// events exhausted the `budget`.
    ///
    /// [`SimError::Unsettled`]: crate::SimError::Unsettled
    fn event_unsettled(&self, processed: u64, budget: u64) {
        let _ = (processed, budget);
    }

    /// One batch program was compiled: `nets` nets levelized into `depth`
    /// topological levels.
    fn batch_compile(&self, nets: u64, depth: u64) {
        let _ = (nets, depth);
    }

    /// One batch pass completed over `lanes` active lanes, storing
    /// `word_steps` word-level waveform steps that represent
    /// `lane_transitions` per-lane transitions.
    fn batch_run(&self, lanes: u64, word_steps: u64, lane_transitions: u64) {
        let _ = (lanes, word_steps, lane_transitions);
    }
}

static INSTALLED: AtomicBool = AtomicBool::new(false);
static OBSERVER: OnceLock<&'static dyn SimObserver> = OnceLock::new();

/// Installs the process-global simulation observer.
///
/// Only the first installation wins (the slot is write-once); returns
/// `true` when `observer` was installed, `false` when another observer was
/// already in place. The observer must be `'static` — typically a
/// `&'static` to a lazily-initialized singleton.
pub fn install_observer(observer: &'static dyn SimObserver) -> bool {
    let won = OBSERVER.set(observer).is_ok();
    if won {
        INSTALLED.store(true, Ordering::Release);
    }
    won
}

/// Runs `f` with the installed observer, if any.
///
/// The uninstalled fast path is a single relaxed atomic load.
#[inline]
pub(crate) fn with_observer<F: FnOnce(&dyn SimObserver)>(f: F) {
    if INSTALLED.load(Ordering::Relaxed) {
        if let Some(obs) = OBSERVER.get() {
            f(*obs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    struct CountingObserver {
        runs: AtomicU64,
    }

    impl SimObserver for CountingObserver {
        fn event_run(&self, _events: u64, _settle_time: u64) {
            self.runs.fetch_add(1, Ordering::Relaxed);
        }
    }

    static TEST_OBSERVER: CountingObserver = CountingObserver { runs: AtomicU64::new(0) };

    #[test]
    fn install_is_write_once_and_hooks_fire() {
        // This test binary installs exactly one observer; whether this
        // particular call wins depends on test ordering, but afterwards an
        // observer is definitely installed.
        let _ = install_observer(&TEST_OBSERVER);
        assert!(INSTALLED.load(Ordering::Relaxed));
        // Second install is rejected.
        assert!(!install_observer(&TEST_OBSERVER));

        // Run a tiny simulation; if our observer won the race, its counter
        // moves.
        let before = TEST_OBSERVER.runs.load(Ordering::Relaxed);
        let mut nl = crate::Netlist::new();
        let a = nl.input("a");
        let b = nl.not(a);
        nl.set_output("z", vec![b]);
        let _ = crate::simulate_from_zero(&nl, &crate::UnitDelay, &[true]);
        let after = TEST_OBSERVER.runs.load(Ordering::Relaxed);
        assert!(after >= before, "counter never goes backwards");
        assert_eq!(after, before + 1, "one run, one hook call");
    }

    #[test]
    fn default_methods_are_no_ops() {
        struct Inert;
        impl SimObserver for Inert {}
        let inert = Inert;
        inert.event_run(1, 2);
        inert.event_unsettled(3, 4);
        inert.batch_compile(5, 6);
        inert.batch_run(7, 8, 9);
    }
}
