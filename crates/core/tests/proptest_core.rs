//! Property-based tests of the overclocking analysis layer.

use ola_core::{metrics, model, timing};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stage_budget_is_tight_ceiling(ts in 1u64..100_000, mu in 1u64..1_000) {
        let b = timing::stage_budget(ts, mu) as u64;
        prop_assert!(b * mu >= ts);
        prop_assert!((b - 1) * mu < ts);
    }

    #[test]
    fn chain_worst_case_below_structural(n in 1usize..128, mu in 1u64..100) {
        prop_assert!(timing::chain_worst_case_delay(n, mu) <= timing::structural_delay(n, mu));
    }

    #[test]
    fn scenario_probability_mass_is_finite(n in 1usize..48) {
        // Expected number of chains per multiplication is bounded by the
        // per-stage generation probability (≤ 8/9 each).
        let total: f64 = model::chain_scenarios(n).iter().map(|s| s.probability).sum();
        prop_assert!(total <= (n as f64 + 3.0) * (8.0 / 9.0) + 1e-9);
        prop_assert!(total >= 0.0);
    }

    #[test]
    fn violation_probability_monotone_and_bounded(n in 2usize..32) {
        let mut last = f64::INFINITY;
        for b in 0..=(n + 4) {
            for p in [
                model::violation_probability_union(n, b),
                model::violation_probability_independent(n, b),
            ] {
                prop_assert!((0.0..=1.0).contains(&p), "n={n} b={b} p={p}");
            }
            let u = model::violation_probability_union(n, b);
            prop_assert!(u <= last + 1e-12);
            last = u;
        }
    }

    #[test]
    fn expected_error_monotone_in_budget(n in 2usize..32, gamma in 0.5f64..2.0) {
        let mut last = f64::INFINITY;
        for b in 0..=(n + 4) {
            let e = model::expected_error(n, b, gamma);
            prop_assert!(e >= 0.0 && e <= last + 1e-12);
            last = e;
        }
        prop_assert_eq!(model::expected_error(n, n + 4, gamma), 0.0);
    }

    #[test]
    fn snr_and_mre_agree_on_perfection(vals in prop::collection::vec(-1.0f64..1.0, 1..50)) {
        prop_assert_eq!(metrics::mre_percent(&vals, &vals), Ok(0.0));
        prop_assert_eq!(metrics::snr_db(&vals, &vals), Ok(f64::INFINITY));
    }

    #[test]
    fn snr_decreases_with_noise(
        vals in prop::collection::vec(0.1f64..1.0, 4..40),
        noise in 0.001f64..0.1,
    ) {
        let small: Vec<f64> = vals.iter().map(|v| v + noise / 2.0).collect();
        let big: Vec<f64> = vals.iter().map(|v| v + noise).collect();
        prop_assert!(
            metrics::snr_db(&vals, &small).unwrap() > metrics::snr_db(&vals, &big).unwrap()
        );
    }

    #[test]
    fn mre_reduction_is_exact_arithmetic(t in 0.001f64..100.0, o in 0.0f64..100.0) {
        let r = metrics::mre_reduction_percent(t, o);
        prop_assert!((r - (t - o) / t * 100.0).abs() < 1e-9);
    }

    #[test]
    fn geometric_mean_between_min_and_max(vals in prop::collection::vec(0.01f64..100.0, 1..20)) {
        let g = metrics::geometric_mean(&vals);
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(0.0, f64::max);
        prop_assert!(g >= min - 1e-9 && g <= max + 1e-9);
    }

    #[test]
    fn normalized_frequency_round_trip(t0 in 100u64..100_000, nf in 1.0f64..2.0) {
        let ts = timing::period_for_normalized_frequency(t0, nf);
        let back = timing::normalized_frequency(ts, t0);
        prop_assert!((back - nf).abs() / nf < 0.02);
    }

}

/// The STA fast path must be invisible in results: for any delay model in
/// the workspace (batch-exact or not), any backend, and a Ts grid
/// straddling the critical path, gating produces bit-identical
/// [`GateLevelCurve`]s to judging every point — it may only be *faster*.
mod sta_gate_equivalence {
    use ola_arith::synth::online_multiplier;
    use ola_core::empirical::om_gate_level_curve_with;
    use ola_core::{InputModel, SimBackend, StaGate};
    use ola_netlist::{analyze, DelayModel, FpgaDelay, JitteredDelay, UnitDelay};
    use proptest::prelude::*;

    fn curves_match<M: DelayModel + Sync>(
        n: usize,
        delay: &M,
        backend: SimBackend,
        grid: &[u64],
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let circuit = online_multiplier(n, 3);
        let cp = analyze(&circuit.netlist, delay).critical_path();
        // Scale the unit-interval grid onto [cp/4, 5·cp/4] so some points
        // are certified (≥ cp) and some are not; always include the top of
        // the interval so at least one point is provably settled.
        let ts: Vec<u64> = grid
            .iter()
            .chain(std::iter::once(&100))
            .map(|&g| (cp / 4 + cp * g / 100).max(1))
            .collect();
        let run = |gate| {
            om_gate_level_curve_with(
                &circuit,
                delay,
                InputModel::UniformDigits,
                &ts,
                24,
                seed,
                backend,
                gate,
            )
        };
        let (gated, gated_stats) = run(StaGate::On);
        let (full, full_stats) = run(StaGate::Off);
        prop_assert_eq!(gated, full, "STA gating changed the curve");
        prop_assert_eq!(full_stats.sta_skipped_points, 0);
        prop_assert_eq!(
            gated_stats.ts_points + gated_stats.sta_skipped_points,
            full_stats.ts_points,
            "skipped + judged must cover the full workload"
        );
        // The forced top-of-grid point (Ts = 5·cp/4 ≥ arrival) is provably
        // settled, so the gate must actually skip something.
        prop_assert!(gated_stats.sta_skipped_points > 0);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn gated_curves_are_bit_identical(
            n in 4usize..7,
            grid in prop::collection::vec(0u64..=100, 3..7),
            model_sel in 0usize..3,
            backend_sel in 0usize..3,
            seed in 0u64..1000,
        ) {
            let backend = [SimBackend::Auto, SimBackend::Event, SimBackend::Batch][backend_sel];
            match model_sel {
                0 => curves_match(n, &UnitDelay, backend, &grid, seed)?,
                1 => curves_match(n, &FpgaDelay::default(), backend, &grid, seed)?,
                // Per-gate jitter: gating stays sound, and batch compiles it
                // exactly, because the jitter is a deterministic per-net
                // function.
                _ => curves_match(n, &JitteredDelay::new(FpgaDelay::default(), 15, seed), backend, &grid, seed)?,
            }
        }
    }
}
