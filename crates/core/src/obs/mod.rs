//! # Observability: tracing spans, metrics registry, run manifests.
//!
//! Three cooperating pieces, all zero-dependency:
//!
//! * [`trace`] — hierarchical span guards ([`span`]) with a bounded ring
//!   buffer and optional live emission (`OLA_TRACE=pretty|json`);
//! * [`mod@registry`] — the process-global typed metrics [`Registry`]
//!   ([`registry()`]): counters, gauges, and log₂ histograms updated with
//!   relaxed atomics. Only *deterministic, simulation-domain* values are
//!   recorded, so snapshots are bit-identical across `OLA_THREADS`
//!   settings;
//! * [`manifest`] — per-experiment [`RunManifest`]s binding spans, metric
//!   deltas, seeds, environment, and the SHA-256 ([`sha256`]) of every
//!   emitted file into one versioned JSON document ([`json`]).
//!
//! Calling [`registry()`] (or [`init`]) once also installs the
//! [`ola_netlist::obs::SimObserver`] bridge, so the netlist engines feed
//! `ola.sim.*` / `ola.batch.*` metrics without `ola-netlist` depending on
//! this crate.
//!
//! ## Metric naming
//!
//! Dotted, lowercase, subsystem-first: `ola.<subsystem>.<what>` (e.g.
//! `ola.sim.event.runs`, `ola.batch.lane_transitions`). Histograms
//! expand in snapshots to `name/count`, `name/sum`, `name/bl<k>`.

pub mod json;
pub mod manifest;
pub mod registry;
pub mod sha256;
pub mod trace;

pub use manifest::{engine_label, git_describe, OutputRecord, RunManifest, ThreadsRecord, SCHEMA};
pub use registry::{Counter, Gauge, Histogram, MetricSnapshot, Registry};
pub use trace::{drain_spans, mode, set_mode, set_recording, span, Span, SpanRecord, TraceMode};

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The bridge from `ola-netlist`'s engine hooks into the global registry.
/// Handles are resolved once at install time so each hook call is a couple
/// of relaxed atomic adds.
struct NetlistHook {
    event_runs: Arc<Counter>,
    event_events: Arc<Counter>,
    event_settle: Arc<Histogram>,
    batch_compiles: Arc<Counter>,
    batch_depth: Arc<Gauge>,
    batch_runs: Arc<Counter>,
    batch_lanes: Arc<Counter>,
    batch_word_steps: Arc<Counter>,
    batch_lane_transitions: Arc<Counter>,
}

impl ola_netlist::obs::SimObserver for NetlistHook {
    fn event_run(&self, events: u64, settle_time: u64) {
        self.event_runs.inc();
        self.event_events.add(events);
        self.event_settle.observe(settle_time);
    }

    fn batch_compile(&self, nets: u64, depth: u64) {
        let _ = nets;
        self.batch_compiles.inc();
        self.batch_depth.set(i64::try_from(depth).unwrap_or(i64::MAX));
    }

    fn batch_run(&self, lanes: u64, word_steps: u64, lane_transitions: u64) {
        self.batch_runs.inc();
        self.batch_lanes.add(lanes);
        self.batch_word_steps.add(word_steps);
        self.batch_lane_transitions.add(lane_transitions);
    }
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();
static HOOK: OnceLock<NetlistHook> = OnceLock::new();

/// The process-global metrics registry.
///
/// First access installs the netlist [`SimObserver`] bridge, so any code
/// that records or snapshots metrics automatically sees engine activity.
///
/// [`SimObserver`]: ola_netlist::obs::SimObserver
#[must_use]
pub fn registry() -> &'static Registry {
    let reg = REGISTRY.get_or_init(Registry::new);
    let hook = HOOK.get_or_init(|| NetlistHook {
        event_runs: reg.counter("ola.sim.event.runs"),
        event_events: reg.counter("ola.sim.event.events"),
        event_settle: reg.histogram("ola.sim.event.settle_time"),
        batch_compiles: reg.counter("ola.batch.compiles"),
        batch_depth: reg.gauge("ola.batch.depth"),
        batch_runs: reg.counter("ola.batch.runs"),
        batch_lanes: reg.counter("ola.batch.lanes"),
        batch_word_steps: reg.counter("ola.batch.word_steps"),
        batch_lane_transitions: reg.counter("ola.batch.lane_transitions"),
    });
    // Write-once: losing the race (e.g. to a test observer) is fine.
    let _ = ola_netlist::obs::install_observer(hook);
    reg
}

/// Eagerly initializes the observability layer (registry + engine bridge).
/// Idempotent; `repro` calls this at startup so even experiments that never
/// touch a metric still get engine counters.
pub fn init() {
    let _ = registry();
}

thread_local! {
    /// Stack of installed annotation scopes; the innermost wins. Mirrors
    /// the ambient-cancellation stack in [`crate::resilience`]: a stack so
    /// nested scopes restore the outer one on drop, a thread-local so
    /// concurrent requests cannot capture each other's provenance.
    static SCOPES: std::cell::RefCell<Vec<AnnotationScope>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// What one scope has captured, each list in recording order.
#[derive(Default)]
struct Provenance {
    annotations: Vec<(String, String)>,
    outputs: Vec<(String, PathBuf)>,
}

/// The provenance sink of one logical unit of work: one `repro`
/// experiment, one checkpoint work unit, one `ola-serve` request. While
/// installed on a thread ([`AnnotationScope::install`]) — and on any
/// [`crate::parallel`] workers spawned from it — every [`annotate`] and
/// [`note_output`] call lands here, so concurrent or abandoned work never
/// writes into another unit's manifest. With no scope installed, both
/// record nothing. Clones share the sink.
#[derive(Clone, Default)]
pub struct AnnotationScope {
    sink: Arc<Mutex<Provenance>>,
}

/// RAII guard returned by [`AnnotationScope::install`]; uninstalls on drop.
#[must_use = "dropping the guard uninstalls the annotation scope"]
pub struct ScopeGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPES.with(|s| s.borrow_mut().pop());
    }
}

impl AnnotationScope {
    /// A fresh, empty scope.
    #[must_use]
    pub fn new() -> AnnotationScope {
        AnnotationScope::default()
    }

    /// Installs this scope as the thread's annotation sink until the
    /// returned guard drops.
    pub fn install(&self) -> ScopeGuard {
        SCOPES.with(|s| s.borrow_mut().push(self.clone()));
        ScopeGuard { _not_send: std::marker::PhantomData }
    }

    /// Drains every annotation captured so far (recording order).
    #[must_use]
    pub fn drain(&self) -> Vec<(String, String)> {
        std::mem::take(&mut self.lock().annotations)
    }

    /// Drains every output file noted so far (recording order).
    #[must_use]
    pub fn drain_outputs(&self) -> Vec<(String, PathBuf)> {
        std::mem::take(&mut self.lock().outputs)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Provenance> {
        self.sink.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// This thread's innermost annotation scope, if one is installed. The
/// [`crate::parallel`] pool captures it and re-installs it in each worker,
/// exactly as it does the ambient cancellation token.
#[must_use]
pub fn current_scope() -> Option<AnnotationScope> {
    SCOPES.with(|s| s.borrow().last().cloned())
}

/// Records a free-form `key = value` annotation for the current
/// experiment's manifest (Ts grids, sweep shapes, input models, …) in the
/// thread's installed [`AnnotationScope`]; without one it records nothing.
pub fn annotate(key: impl Into<String>, value: impl std::fmt::Display) {
    if let Some(scope) = current_scope() {
        scope.lock().annotations.push((key.into(), value.to_string()));
    }
}

/// Registers a results file the current experiment emitted (e.g. a PGM
/// written deep inside an experiment) in the thread's installed
/// [`AnnotationScope`], so the manifest writer can hash it; without a
/// scope it records nothing. `label` is the path as it should appear in
/// the manifest.
pub fn note_output(label: impl Into<String>, path: impl AsRef<Path>) {
    if let Some(scope) = current_scope() {
        scope.lock().outputs.push((label.into(), path.as_ref().to_path_buf()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_a_singleton_and_bridges_the_engines() {
        let before = registry().snapshot();
        assert!(std::ptr::eq(registry(), registry()));

        // Unless another observer won the install race in this test binary
        // (there is none in ola-core's unit tests), a simulation run must
        // move the event counters.
        let mut nl = ola_netlist::Netlist::new();
        let a = nl.input("a");
        let b = nl.not(a);
        nl.set_output("z", vec![b]);
        let _ = ola_netlist::simulate_from_zero(&nl, &ola_netlist::UnitDelay, &[true]);

        let d = registry().snapshot().diff(&before);
        assert_eq!(d.counters.get("ola.sim.event.runs"), Some(&1));
        assert!(d.counters["ola.sim.event.events"] >= 1);
        assert_eq!(d.counters.get("ola.sim.event.settle_time/count"), Some(&1));
    }

    #[test]
    fn batch_activity_is_bridged() {
        let before = registry().snapshot();
        let mut nl = ola_netlist::Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.and(a, b);
        nl.set_output("z", vec![x]);
        let program =
            ola_netlist::batch::BatchProgram::compile(&nl, &ola_netlist::UnitDelay).unwrap();
        let prev = ola_netlist::batch::BatchInputs::zeros(2, 1).unwrap();
        let new = ola_netlist::batch::BatchInputs::pack(&[vec![true, true]]).unwrap();
        let _ = program.run(&prev, &new).unwrap();

        let snap = registry().snapshot();
        let d = snap.diff(&before);
        assert_eq!(d.counters.get("ola.batch.compiles"), Some(&1));
        assert_eq!(d.counters.get("ola.batch.runs"), Some(&1));
        assert_eq!(d.counters.get("ola.batch.lanes"), Some(&1));
        assert_eq!(snap.gauges.get("ola.batch.depth"), Some(&2), "1 logic level + inputs");
    }

    #[test]
    fn scopes_are_the_only_provenance_sink() {
        // Without a scope, nothing is recorded: a scope installed later
        // starts empty.
        assert!(current_scope().is_none());
        annotate("orphan.key", 1);
        note_output("results/orphan.pgm", "/tmp/orphan.pgm");

        let scope = AnnotationScope::new();
        {
            let _g = scope.install();
            assert!(scope.drain().is_empty() && scope.drain_outputs().is_empty());
            annotate("req.width", 8);
            note_output("results/a.pgm", "/tmp/a.pgm");
            {
                // A nested scope captures while installed, then hands the
                // thread back to the outer one.
                let inner = AnnotationScope::new();
                let _g2 = inner.install();
                annotate("inner.only", "x");
                note_output("results/inner.pgm", "/tmp/inner.pgm");
                assert_eq!(inner.drain(), vec![("inner.only".into(), "x".into())]);
                assert_eq!(
                    inner.drain_outputs(),
                    vec![("results/inner.pgm".into(), PathBuf::from("/tmp/inner.pgm"))]
                );
            }
            // Pool workers feed the scope installed on the caller.
            let _ = crate::parallel::parallel_map(&[1u64, 2, 3, 4], |_, &x| {
                annotate(format!("worker.{x}"), x);
                note_output(format!("results/w{x}.pgm"), format!("/tmp/w{x}.pgm"));
            });
            annotate("req.style", "online");
            note_output("results/b.pgm", "/tmp/b.pgm");
        }
        assert!(current_scope().is_none());

        let notes = scope.drain();
        assert_eq!(notes.len(), 6);
        assert_eq!(notes[0], ("req.width".into(), "8".into()));
        assert_eq!(notes[5], ("req.style".into(), "online".into()));
        let mut workers = notes[1..5].to_vec();
        workers.sort();
        assert_eq!(workers[0], ("worker.1".into(), "1".into()));
        assert_eq!(workers[3], ("worker.4".into(), "4".into()));
        let outputs = scope.drain_outputs();
        assert_eq!(outputs.len(), 6);
        assert_eq!(outputs[0].0, "results/a.pgm");
        assert_eq!(outputs[5].0, "results/b.pgm");
        assert!(scope.drain().is_empty() && scope.drain_outputs().is_empty(), "drains empty");
    }
}
