//! Acceptance tests for the `repro sta` static-analysis experiment: the
//! STA-certified analytic error bound must upper-bound the *measured*
//! mean error at every swept period, and the bound must be exactly zero
//! wherever the whole bus is certified.
//!
//! Gate-level sweeps are release-mode workloads; the bound comparison runs
//! hundreds of vectors per grid point, so this suite lives in the bench
//! crate's integration tests (CI runs them under `--release`).

use ola_arith::synth::online_multiplier;
use ola_bench::experiments::{om_certification, om_digit_weights};
use ola_core::empirical::om_gate_level_curve_with;
use ola_core::{InputModel, SimBackend, StaGate};
use ola_netlist::{analyze, FpgaDelay, JitteredDelay};

/// Shared sweep: `points` periods up to (and including) the rated period.
fn ts_grid(rated: u64, points: u64) -> Vec<u64> {
    (1..=points).map(|k| rated * k / points).collect()
}

/// The machine-checked bridge between the static and dynamic halves: for
/// each swept `Ts`, `Σ_{at-risk k} 2^{δ−k}` (pure STA, no simulation) must
/// dominate the empirical mean |error| (hundreds of simulated vectors).
#[test]
fn analytic_bound_dominates_empirical_mean_error() {
    for n in [6usize, 8] {
        let circuit = online_multiplier(n, 3);
        let delay = FpgaDelay::default();
        let rated = analyze(&circuit.netlist, &delay).critical_path();
        let ts = ts_grid(rated, 12);

        let cert = om_certification(&circuit, &delay, &ts);
        let weights = om_digit_weights(cert.digits());
        let (curve, _) = om_gate_level_curve_with(
            &circuit,
            &delay,
            InputModel::UniformDigits,
            &ts,
            200,
            2014,
            SimBackend::Auto,
            StaGate::On,
        );

        for (i, &t) in ts.iter().enumerate() {
            let bound = cert.error_bound(i, &weights);
            let measured = curve.mean_abs_error[i];
            assert!(
                measured <= bound + 1e-12,
                "N={n} Ts={t}: measured {measured} exceeds analytic bound {bound}"
            );
            if cert.all_certified(i) {
                assert_eq!(bound, 0.0);
                assert_eq!(measured, 0.0, "certified period must be error-free");
            }
        }
        // The sweep must include at least one certified and one at-risk
        // period, or the comparison proves nothing.
        assert!(cert.all_certified(ts.len() - 1), "rated period certifies the whole bus");
        assert!(!cert.all_certified(0), "deep overclock leaves digits at risk");
    }
}

/// The bound is a *worst-case structural* statement, so it also holds for
/// the jittered-delay emulation as long as certification is computed under
/// the same (deterministic) model the simulator uses.
#[test]
fn analytic_bound_holds_under_jittered_delays() {
    let circuit = online_multiplier(8, 3);
    let delay = JitteredDelay::new(FpgaDelay::default(), 15, 99);
    let rated = analyze(&circuit.netlist, &delay).critical_path();
    let ts = ts_grid(rated, 8);
    let cert = om_certification(&circuit, &delay, &ts);
    let weights = om_digit_weights(cert.digits());
    let (curve, stats) = om_gate_level_curve_with(
        &circuit,
        &delay,
        InputModel::UniformDigits,
        &ts,
        120,
        7,
        SimBackend::Auto,
        StaGate::On,
    );
    assert_eq!(stats.backend, "batch", "jitter is batch-exact");
    for (i, _) in ts.iter().enumerate() {
        assert!(curve.mean_abs_error[i] <= cert.error_bound(i, &weights) + 1e-12);
    }
}
