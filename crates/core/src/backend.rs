//! The simulation engine selection and its observability counters.
//!
//! Every gate-level experiment in this crate boils down to *simulate many
//! vectors, sample at many clock periods `Ts`*. Production sweeps and
//! campaigns answer that question on the bit-parallel batch engine
//! ([`ola_netlist::batch`]), 256 vectors per pass. Every
//! delay model is a deterministic per-gate function, so it compiles to an
//! exact program (a [`JitteredDelay`](ola_netlist::JitteredDelay) to one
//! program per placement), and the netlists the generators and
//! `elaborate` produce are acyclic, so compilation cannot fail on them.
//!
//! The event-driven simulator ([`ola_netlist::simulate`]), one vector per
//! run, stays as the **reference oracle**: [`SimBackend::Event`] selects
//! it for the equivalence tests and the `repro` cross-checks, which hold
//! the two engines to bit-identical results.
//! [`BackendStats`] carries the cheap counters each experiment accumulates
//! — vectors simulated, `(vector × Ts)` sample points, word-level steps,
//! lane utilization — which the `repro` binary surfaces in its summary.

use std::fmt;
use std::time::Duration;

/// Which simulation engine an experiment should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub enum SimBackend {
    /// The batch engine; the same engine as [`SimBackend::Batch`].
    #[default]
    Auto,
    /// The event-driven reference oracle, for tests and cross-checks.
    Event,
    /// The bit-parallel batch engine.
    Batch,
}

impl SimBackend {
    /// The label of this selection (`auto` / `event` / `batch`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SimBackend::Auto => "auto",
            SimBackend::Event => "event",
            SimBackend::Batch => "batch",
        }
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

/// The lane word every batch pass in this crate runs on: four 64-bit
/// words, 256 lanes per pass. Lane width never changes *results* —
/// samples fold in sample order inside fixed-size chunks — only
/// throughput.
pub(crate) type BatchLanes = ola_netlist::batch::LaneBlock<4>;

/// Cheap observability counters for one experiment's simulation work.
///
/// Deliberately *not* part of any result struct compared for
/// reproducibility: wall time varies run to run, results must not.
#[derive(Clone, Debug, Default)]
pub struct BackendStats {
    /// The engine that ran (`"batch"`, or `"event"` for the oracle).
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
    /// Lanes one batch pass carries (256; 0 when no batch pass ran).
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
    /// Folds another stats block into this one (wall times add). The
    /// engine label is the first non-empty one: callers merge blocks of
    /// one engine.
    pub fn merge(&mut self, other: &BackendStats) {
        if self.backend.is_empty() {
            self.backend = other.backend;
        }
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
    /// when every pass was full; 0.0 when no batch pass ran).
    #[must_use]
    pub fn lane_utilization(&self) -> f64 {
        if self.batch_runs == 0 {
            0.0
        } else {
            self.lanes_used as f64 / (self.lane_capacity as f64 * self.batch_runs as f64)
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
    /// ([`crate::obs::registry()`]) under `ola.backend.*`.
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
    fn labels_and_default() {
        let labels: Vec<&str> =
            [SimBackend::Auto, SimBackend::Event, SimBackend::Batch].map(SimBackend::label).into();
        assert_eq!(labels, ["auto", "event", "batch"]);
        assert_eq!(format!("{}", SimBackend::Batch), "batch");
        assert_eq!(SimBackend::default(), SimBackend::Auto);
    }

    #[test]
    fn stats_merge_and_rates() {
        let mut a = BackendStats::default();
        let b = BackendStats {
            backend: "batch",
            vectors: 256,
            ts_points: 2560,
            batch_runs: 1,
            lanes_used: 256,
            lane_capacity: 256,
            wall: Duration::from_secs(1),
            ..BackendStats::default()
        };
        let c = BackendStats {
            backend: "batch",
            vectors: 128,
            ts_points: 1280,
            batch_runs: 1,
            lanes_used: 128,
            lane_capacity: 256,
            ..BackendStats::default()
        };
        a.merge(&b);
        a.merge(&c);
        assert_eq!(a.vectors, 384);
        assert_eq!(a.backend, "batch", "an empty block takes the merged engine label");
        assert!((a.lane_utilization() - 0.75).abs() < 1e-12);
        assert!((a.vectors_per_sec() - 384.0).abs() < 1e-9);
        assert!(a.summary().contains("batch_runs=2"));
        // The event oracle's runs fold into the same block; the first
        // non-empty engine label wins.
        a.merge(&BackendStats { backend: "event", event_runs: 5, ..BackendStats::default() });
        assert_eq!(a.backend, "batch");
        assert_eq!(a.event_runs, 5);
        assert!(a.summary().contains("event_runs=5"));
        assert_eq!(BackendStats::default().lane_utilization(), 0.0, "no pass, no utilization");
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
