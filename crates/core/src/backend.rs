//! Pluggable simulation backends and their observability counters.
//!
//! Every gate-level experiment in this crate boils down to *simulate many
//! vectors, sample at many clock periods `Ts`*. Two engines can answer
//! that question with bit-identical results:
//!
//! * **event** — the event-driven simulator
//!   ([`ola_netlist::simulate`]), one vector per run, any delay model;
//! * **batch** — the bit-parallel engine ([`ola_netlist::batch`]), 64
//!   vectors per lane word, for any delay model: every model is a
//!   deterministic per-gate function, so it compiles to an exact program
//!   (a [`JitteredDelay`](ola_netlist::JitteredDelay) to one program per
//!   placement).
//!
//! [`SimBackend`] selects between them per workload; [`SimBackend::Auto`]
//! and [`SimBackend::Batch`] run batch and fall back to the event engine
//! only when a netlist fails to compile
//! ([`crate::resilience::compile_batch_or_degrade`]).
//! [`BackendStats`] carries the cheap counters each experiment accumulates
//! — vectors simulated, `(vector × Ts)` sample points, word-level steps,
//! lane utilization — which the `repro` binary surfaces in its summary.

use std::fmt;
use std::time::Duration;

/// Which simulation engine an experiment should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub enum SimBackend {
    /// Batch, event-driven when the netlist fails to compile.
    #[default]
    Auto,
    /// Always the event-driven simulator.
    Event,
    /// The bit-parallel batch engine; falls back to event-driven when the
    /// netlist fails to compile.
    Batch,
}

impl SimBackend {
    /// Parses a CLI flag value (`auto` / `event` / `batch`).
    #[must_use]
    pub fn parse(s: &str) -> Option<SimBackend> {
        match s {
            "auto" => Some(SimBackend::Auto),
            "event" => Some(SimBackend::Event),
            "batch" => Some(SimBackend::Batch),
            _ => None,
        }
    }

    /// The flag spelling of this selection.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SimBackend::Auto => "auto",
            SimBackend::Event => "event",
            SimBackend::Batch => "batch",
        }
    }

    /// True if this selection should *try* batch compilation (the compile
    /// itself may still fail, e.g. on a broken topology — callers then fall
    /// back to the event engine).
    #[must_use]
    pub fn wants_batch(self) -> bool {
        !matches!(self, SimBackend::Event)
    }
}

impl fmt::Display for SimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether sweeps may take the static-timing fast path.
///
/// Every delay model in this workspace is a deterministic per-gate
/// function, so the forward STA pass ([`ola_netlist::analyze`]) is a sound
/// upper bound on event-driven settling: a `(bus, Ts)` sample point with
/// worst-case bus arrival `≤ Ts` provably samples the settled value for
/// *every* input vector. With the gate [`StaGate::On`], such points skip
/// the decode/judge work entirely — recording "no violation, zero error"
/// implicitly — which is bit-identical to judging them (the equivalence
/// proptest suite holds the two paths to that standard). [`StaGate::Off`]
/// judges every point dynamically; it exists for that suite and for
/// measuring the fast path's effect.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub enum StaGate {
    /// Skip `(bus, Ts)` points whose settlement STA certifies.
    #[default]
    On,
    /// Judge every sample point dynamically.
    Off,
}

impl StaGate {
    /// Parses a CLI flag value (`on` / `off`).
    #[must_use]
    pub fn parse(s: &str) -> Option<StaGate> {
        match s {
            "on" => Some(StaGate::On),
            "off" => Some(StaGate::Off),
            _ => None,
        }
    }

    /// The flag spelling of this selection.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StaGate::On => "on",
            StaGate::Off => "off",
        }
    }

    /// True when the fast path is enabled.
    #[must_use]
    pub fn is_on(self) -> bool {
        matches!(self, StaGate::On)
    }
}

impl fmt::Display for StaGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Lane words per batch pass, resolved once from `OLA_LANE_WORDS`.
///
/// `1` selects the legacy 64-lane single-word engine, `2`/`8` the narrower
/// and wider multi-word blocks; anything else (including unset) selects the
/// default 4-word / 256-lane engine. Lane width never changes *results* —
/// samples fold in sample order inside fixed 256-sample chunks regardless
/// of how many lanes one engine pass carries — only throughput.
pub(crate) fn lane_words() -> usize {
    static WORDS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORDS.get_or_init(|| match std::env::var("OLA_LANE_WORDS").as_deref() {
        Ok("1") => 1,
        Ok("2") => 2,
        Ok("8") => 8,
        _ => 4,
    })
}

/// Cheap observability counters for one experiment's simulation work.
///
/// Deliberately *not* part of any result struct compared for
/// reproducibility: wall time varies run to run, results must not.
#[derive(Clone, Debug, Default)]
pub struct BackendStats {
    /// The engine that actually ran (`"event"`, `"batch"`, or
    /// `"batch+event"` when an experiment mixed both).
    pub backend: &'static str,
    /// Input vectors simulated.
    pub vectors: u64,
    /// `(vector × Ts)` sample points extracted.
    pub ts_points: u64,
    /// Batch engine passes executed.
    pub batch_runs: u64,
    /// Event-driven simulations executed.
    pub event_runs: u64,
    /// Sum of active lanes over all batch passes.
    pub lanes_used: u64,
    /// Lanes one batch pass can carry (64 per lane word; 0 when no batch
    /// pass ran — [`BackendStats::lane_utilization`] then assumes the
    /// legacy single-word width).
    pub lane_capacity: u64,
    /// Word-level waveform steps stored by the batch engine.
    pub word_steps: u64,
    /// Per-lane transitions the batch engine represented (the equivalent
    /// event-driven work).
    pub lane_transitions: u64,
    /// `(vector × Ts)` points whose judging the STA fast path skipped
    /// because the whole bus was statically certified settled at that
    /// period (see [`StaGate`]). Not counted in
    /// [`BackendStats::ts_points`].
    pub sta_skipped_points: u64,
    /// Wall-clock time of the simulation phase.
    pub wall: Duration,
}

impl BackendStats {
    /// Folds another stats block into this one (wall times add).
    pub fn merge(&mut self, other: &BackendStats) {
        self.backend = match (self.backend, other.backend) {
            (a, b) if a == b || b.is_empty() => a,
            ("", b) => b,
            _ => "batch+event",
        };
        self.vectors += other.vectors;
        self.ts_points += other.ts_points;
        self.batch_runs += other.batch_runs;
        self.event_runs += other.event_runs;
        self.lanes_used += other.lanes_used;
        self.lane_capacity = self.lane_capacity.max(other.lane_capacity);
        self.word_steps += other.word_steps;
        self.lane_transitions += other.lane_transitions;
        self.sta_skipped_points += other.sta_skipped_points;
        self.wall += other.wall;
    }

    /// Mean fraction of the available lanes occupied per batch pass (1.0
    /// when every pass was full). Uses [`BackendStats::lane_capacity`];
    /// stats merged from sources that never set it fall back to the legacy
    /// 64-lane width.
    #[must_use]
    pub fn lane_utilization(&self) -> f64 {
        if self.batch_runs == 0 {
            0.0
        } else {
            let cap = if self.lane_capacity == 0 { 64 } else { self.lane_capacity };
            self.lanes_used as f64 / (cap as f64 * self.batch_runs as f64)
        }
    }

    /// Simulated vectors per second of wall time.
    #[must_use]
    pub fn vectors_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.vectors as f64 / s
        } else {
            0.0
        }
    }

    /// `(vector × Ts)` sample points per second of wall time — the
    /// throughput figure the paper-reproduction workloads care about.
    #[must_use]
    pub fn ts_points_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.ts_points as f64 / s
        } else {
            0.0
        }
    }

    /// Publishes these counters into the global metrics registry
    /// ([`crate::obs::registry`]) under `ola.backend.*`.
    ///
    /// This is the compatibility shim between the per-experiment
    /// `BackendStats` blocks (still returned by value and printed by
    /// `repro`) and the process-wide observability layer: every field is a
    /// deterministic simulation-domain count, so publishing keeps metric
    /// snapshots thread-count independent. [`BackendStats::wall`] is
    /// deliberately *not* published — wall time belongs to tracing spans.
    pub fn publish(&self) {
        let reg = crate::obs::registry();
        if !self.backend.is_empty() {
            reg.counter(&format!("ola.backend.selected.{}", self.backend)).inc();
        }
        reg.counter("ola.backend.vectors").add(self.vectors);
        reg.counter("ola.backend.ts_points").add(self.ts_points);
        reg.counter("ola.backend.batch_runs").add(self.batch_runs);
        reg.counter("ola.backend.event_runs").add(self.event_runs);
        reg.counter("ola.backend.lanes_used").add(self.lanes_used);
        reg.counter("ola.backend.word_steps").add(self.word_steps);
        reg.counter("ola.backend.lane_transitions").add(self.lane_transitions);
        reg.counter("ola.backend.sta_skipped_points").add(self.sta_skipped_points);
    }

    /// One-line human summary for the `repro` report.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut line = format!(
            "backend={} vectors={} ts_points={} ({:.0} vec/s, {:.0} pts/s)",
            if self.backend.is_empty() { "event" } else { self.backend },
            self.vectors,
            self.ts_points,
            self.vectors_per_sec(),
            self.ts_points_per_sec(),
        );
        if self.batch_runs > 0 {
            line.push_str(&format!(
                " batch_runs={} lane_util={:.0}% word_steps={} lane_transitions={}",
                self.batch_runs,
                100.0 * self.lane_utilization(),
                self.word_steps,
                self.lane_transitions,
            ));
        }
        if self.event_runs > 0 {
            line.push_str(&format!(" event_runs={}", self.event_runs));
        }
        if self.sta_skipped_points > 0 {
            line.push_str(&format!(" sta_skipped={}", self.sta_skipped_points));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_labels() {
        for b in [SimBackend::Auto, SimBackend::Event, SimBackend::Batch] {
            assert_eq!(SimBackend::parse(b.label()), Some(b));
            assert_eq!(format!("{b}"), b.label());
        }
        assert_eq!(SimBackend::parse("nope"), None);
        assert_eq!(SimBackend::default(), SimBackend::Auto);
    }

    #[test]
    fn only_the_event_selection_declines_batch() {
        assert!(SimBackend::Auto.wants_batch());
        assert!(SimBackend::Batch.wants_batch());
        assert!(!SimBackend::Event.wants_batch());
    }

    #[test]
    fn stats_merge_and_rates() {
        let mut a = BackendStats {
            backend: "batch",
            vectors: 64,
            ts_points: 640,
            batch_runs: 1,
            lanes_used: 64,
            wall: Duration::from_secs(1),
            ..BackendStats::default()
        };
        let b = BackendStats {
            backend: "batch",
            vectors: 32,
            ts_points: 320,
            batch_runs: 1,
            lanes_used: 32,
            ..BackendStats::default()
        };
        a.merge(&b);
        assert_eq!(a.vectors, 96);
        assert_eq!(a.backend, "batch");
        assert!((a.lane_utilization() - 0.75).abs() < 1e-12);
        assert!((a.vectors_per_sec() - 96.0).abs() < 1e-9);
        let ev = BackendStats { backend: "event", event_runs: 5, ..BackendStats::default() };
        a.merge(&ev);
        assert_eq!(a.backend, "batch+event");
        assert!(a.summary().contains("batch_runs=2"));
        assert!(a.summary().contains("event_runs=5"));
    }

    #[test]
    fn publish_feeds_the_registry_without_wall_time() {
        let before = crate::obs::registry().snapshot();
        let stats = BackendStats {
            backend: "batch",
            vectors: 10,
            ts_points: 20,
            batch_runs: 2,
            lanes_used: 12,
            wall: Duration::from_secs(3600),
            ..BackendStats::default()
        };
        stats.publish();
        let d = crate::obs::registry().snapshot().diff(&before);
        assert_eq!(d.counters.get("ola.backend.vectors"), Some(&10));
        assert_eq!(d.counters.get("ola.backend.ts_points"), Some(&20));
        assert_eq!(d.counters.get("ola.backend.batch_runs"), Some(&2));
        assert_eq!(d.counters.get("ola.backend.selected.batch"), Some(&1));
        assert!(
            !d.counters.keys().any(|k| k.contains("wall")),
            "wall time must stay out of the registry"
        );
    }

    #[test]
    fn sta_gate_parses_and_defaults_on() {
        assert_eq!(StaGate::default(), StaGate::On);
        for g in [StaGate::On, StaGate::Off] {
            assert_eq!(StaGate::parse(g.label()), Some(g));
            assert_eq!(format!("{g}"), g.label());
        }
        assert_eq!(StaGate::parse("maybe"), None);
        assert!(StaGate::On.is_on());
        assert!(!StaGate::Off.is_on());
    }

    #[test]
    fn skipped_points_merge_and_render() {
        let mut a = BackendStats { sta_skipped_points: 3, ..BackendStats::default() };
        let b = BackendStats { sta_skipped_points: 4, ..BackendStats::default() };
        a.merge(&b);
        assert_eq!(a.sta_skipped_points, 7);
        assert!(a.summary().contains("sta_skipped=7"));
        let clean = BackendStats::default();
        assert!(!clean.summary().contains("sta_skipped"));
    }
}
