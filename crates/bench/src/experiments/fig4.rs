//! Figure 4: expectation of overclocking error — analytic model vs
//! stage-wave Monte-Carlo (top row) and vs gate-level "FPGA" simulation
//! with jittered delays (bottom row), for 8- and 12-digit multipliers.
//!
//! The gate-level sweep runs on the bit-parallel batch engine: the
//! paper's jittered-delay emulation is a pure function of `(seed, net)`,
//! so it compiles to an exact batch program for its placement. The
//! experiments' oracle tests (`oracle.rs`) hold the first samples of the
//! same sweep to the event-driven reference simulator.

use super::Scale;
use crate::report::{fmt_f, Table};
use ola_arith::online::{Selection, DELTA};
use ola_arith::synth::{online_multiplier, OnlineMultiplierCircuit};
use ola_core::empirical::{om_gate_level_curve_with, GateLevelCurve};
use ola_core::{model, montecarlo, BackendStats, InputModel, SimBackend, StaGate};
use ola_netlist::{analyze, FpgaDelay, JitteredDelay};

/// Runs the Figure-4 experiment. Returns one stage-domain table and one
/// gate-level table per word length; each `(domain, N)` pair is its own
/// checkpoint unit, so an interrupted run resumes mid-figure.
///
/// # Errors
///
/// Never fails on its own; the `Result` carries checkpoint-replay errors.
pub fn fig4(run: &crate::resume::ExperimentCtx, scale: Scale) -> Result<Vec<Table>, String> {
    let mut tables = Vec::new();
    for n in [8usize, 12] {
        tables.extend(run.unit(&format!("stage.n{n}"), || Ok(vec![stage_domain(n, scale)]))?);
        tables.extend(run.unit(&format!("gate.n{n}"), || Ok(vec![gate_domain(n, scale)]))?);
    }
    Ok(tables)
}

fn stage_domain(n: usize, scale: Scale) -> Table {
    let mc = montecarlo::om_monte_carlo(
        n,
        Selection::default(),
        InputModel::UniformDigits,
        scale.mc_samples(),
        41,
    );
    // Calibrate the model's per-digit error factor once per word length at
    // the first overlapping point (the paper likewise matches curves up to
    // the unmodelled absolute scale).
    let gamma = calibrate_gamma(n, &mc.curve.mean_abs_error);
    let mut t = Table::new(
        format!("Fig4 stage domain N={n} (model vs Monte-Carlo)"),
        &["b", "Ts/T0", "model E_ovc", "mc E_ovc", "mc violation rate"],
    );
    for (b, ts_norm, err, viol) in mc.curve.points() {
        t.push_row(vec![
            b.to_string(),
            format!("{ts_norm:.3}"),
            fmt_f(model::expected_error(n, b, gamma)),
            fmt_f(err),
            fmt_f(viol),
        ]);
    }
    t
}

fn calibrate_gamma(n: usize, mc_err: &[f64]) -> f64 {
    for (b, &e) in mc_err.iter().enumerate().skip(DELTA + 1) {
        let m = model::expected_error(n, b, 1.0);
        if e > 0.0 && m > 0.0 {
            return e / m;
        }
    }
    1.0
}

/// The N-digit gate-level sweep's inputs: the multiplier, its jittered
/// placement and the `Ts` grid up to the placement's rated period.
pub(super) struct GateSweep {
    circuit: OnlineMultiplierCircuit,
    delay: JitteredDelay<FpgaDelay>,
    rated: u64,
    ts: Vec<u64>,
}

impl GateSweep {
    pub(super) fn new(n: usize, scale: Scale) -> Self {
        let circuit = online_multiplier(n, 3);
        let delay = JitteredDelay::new(FpgaDelay::default(), 15, 2014);
        let rated = analyze(&circuit.netlist, &delay).critical_path();
        let points = scale.grid_points();
        let ts = (1..=points).map(|k| rated * k as u64 / points as u64).collect();
        GateSweep { circuit, delay, rated, ts }
    }

    /// The curve over the first `samples` samples of the sweep's
    /// deterministic stream, on `backend`.
    pub(super) fn curve(
        &self,
        samples: usize,
        backend: SimBackend,
    ) -> (GateLevelCurve, BackendStats) {
        om_gate_level_curve_with(
            &self.circuit,
            &self.delay,
            InputModel::UniformDigits,
            &self.ts,
            samples,
            42,
            backend,
            StaGate::On,
        )
    }
}

fn gate_domain(n: usize, scale: Scale) -> Table {
    let sweep = GateSweep::new(n, scale);
    let (ts, points) = (&sweep.ts, sweep.ts.len());
    ola_core::obs::annotate(
        format!("fig4.n{n}.ts_grid"),
        format_args!("{points} points, {}..={} (rated {})", ts[0], ts[points - 1], sweep.rated),
    );
    let (curve, stats) = sweep.curve(scale.gate_samples(), SimBackend::Batch);
    eprintln!("  [fig4] gate level N={n}: {}", stats.summary());
    let mut t = Table::new(
        format!("Fig4 gate level N={n} (jittered-delay netlist)"),
        &["Ts", "Ts/rated", "mean |error|", "violation rate"],
    );
    for (ts, norm, err, viol) in curve.points() {
        t.push_row(vec![ts.to_string(), format!("{norm:.3}"), fmt_f(err), fmt_f(viol)]);
    }
    t
}
