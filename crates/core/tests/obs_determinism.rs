//! The observability layer's determinism contract, end to end.
//!
//! The metrics registry may only record *simulation-domain* quantities
//! (event counts, settle times, lane counts, probe counts) — never
//! wall-clock time and never the worker-thread count. Sums of such values
//! are commutative, so the metric snapshot delta of a workload must be
//! bit-identical whether it runs on one thread or four. This test drives
//! the real instrumented stack (Monte-Carlo sweep, gate-level curve with
//! both engines, fault campaign) under `OLA_THREADS=1` and `=4` and
//! demands equality; any instrumentation site that sneaks a
//! non-deterministic value into the registry fails here. One sweep draws
//! a single chunk of more than 64 samples, so its one 256-lane pass runs
//! on the whole worker budget: one worker, then four, and its curve must
//! not move either.
//!
//! Env-var discipline: this binary's tests mutate `OLA_THREADS`, so they
//! share one lock and restore the variable when done.

use ola_arith::online::Selection;
use ola_arith::synth::online_multiplier;
use ola_core::campaign::{online_fault_campaign_with_stats, CampaignConfig, FaultClass};
use ola_core::empirical::{om_gate_level_curve_with, GateLevelCurve};
use ola_core::obs::MetricSnapshot;
use ola_core::{montecarlo, obs, InputModel, SimBackend, StaGate};
use ola_netlist::FpgaDelay;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// The instrumented workload: MC sweep + gate-level curve (batch and
/// event) + a small fault campaign + a synthesis design-space sweep.
/// Deterministic by construction; the question is whether the
/// *instrumentation* stays deterministic too. Returns the curve of the
/// one-pass 256-lane sweep.
fn workload() -> GateLevelCurve {
    let _ = montecarlo::om_monte_carlo(6, Selection::default(), InputModel::UniformDigits, 600, 7);
    let circuit = online_multiplier(4, 3);
    // The synthesis compiler's `ola.synth.*` metrics (nodes folded,
    // variants explored, certification skips) are under the same
    // contract: simulation-domain quantities only.
    let dfg = ola_synth::parse_dfg(
        "y = a * 0.5 + b * 0.25 + 0.125",
        ola_synth::InputFmt { msd_pos: 1, digits: 4 },
    )
    .expect("program parses");
    let _ = ola_synth::explore(
        &dfg,
        &ola_synth::ExploreConfig {
            widths: vec![4],
            ts_points: 4,
            samples: 8,
            seed: 5,
            ..ola_synth::ExploreConfig::default()
        },
    );
    // The fused-MAC DSP subsystem (`ola.dsp.*`, `ola.synth.mac.*`): kernel
    // generation, both Mac lowerings, and the accumulation-length axis of
    // the explorer — all simulation-domain counts.
    let fir = ola_synth::fir_bank(
        2,
        ola_synth::MacFusion::Fused,
        ola_synth::InputFmt { msd_pos: 1, digits: 4 },
    );
    let _ = ola_synth::elaborate(&fir, &ola_synth::ElabOptions::new(ola_synth::Style::Online));
    let _ =
        ola_synth::elaborate(&fir, &ola_synth::ElabOptions::new(ola_synth::Style::Conventional));
    let _ = ola_synth::explore_mac(
        &ola_synth::ExploreConfig {
            widths: vec![3],
            ts_points: 3,
            samples: 4,
            seed: 5,
            ..ola_synth::ExploreConfig::default()
        },
        &[2],
    );
    for backend in [SimBackend::Batch, SimBackend::Event] {
        let _ = om_gate_level_curve_with(
            &circuit,
            &FpgaDelay::default(),
            InputModel::UniformDigits,
            &[200, 1000, 40_000],
            12,
            11,
            backend,
            StaGate::On,
        );
    }
    let cfg = CampaignConfig {
        samples_per_site: 3,
        max_sites: Some(6),
        seed: 99,
        ..CampaignConfig::default()
    };
    let _ = online_fault_campaign_with_stats(
        &circuit,
        &FpgaDelay::default(),
        InputModel::UniformDigits,
        FaultClass::StuckAt1,
        &cfg,
    );
    // 200 samples: one chunk, one pass on the 256-lane word.
    let (wide, _) = om_gate_level_curve_with(
        &circuit,
        &FpgaDelay::default(),
        InputModel::UniformDigits,
        &[200, 1000, 40_000],
        200,
        13,
        SimBackend::Batch,
        StaGate::Off,
    );
    wide
}

/// Runs the workload under a given `OLA_THREADS` and returns the wide
/// sweep's curve and the metric delta the workload produced.
fn delta_with_threads(threads: &str) -> (GateLevelCurve, MetricSnapshot) {
    std::env::set_var("OLA_THREADS", threads);
    let before = obs::registry().snapshot();
    let curve = workload();
    (curve, obs::registry().snapshot().diff(&before))
}

#[test]
fn metric_snapshots_are_bit_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let saved = std::env::var("OLA_THREADS").ok();

    let (single_curve, single) = delta_with_threads("1");
    let (quad_curve, quad) = delta_with_threads("4");

    match saved {
        Some(v) => std::env::set_var("OLA_THREADS", v),
        None => std::env::remove_var("OLA_THREADS"),
    }

    // The workload actually exercised every subsystem...
    for key in [
        "ola.mc.samples",
        "ola.parallel.jobs",
        "ola.sim.event.runs",
        "ola.sim.event.events",
        "ola.batch.runs",
        "ola.batch.lanes",
        "ola.campaign.sites",
        "ola.backend.vectors",
        "ola.synth.nodes_folded",
        "ola.synth.elaborated",
        "ola.synth.variants_explored",
        "ola.synth.certified_points_skipped",
        "ola.synth.pareto_points",
        "ola.synth.mac.fused_lowered",
        "ola.synth.mac.conventional_lowered",
        "ola.synth.mac.terms",
        "ola.synth.mac.explored",
        "ola.dsp.fir_graphs",
        "ola.dsp.inner_products",
    ] {
        assert!(single.counters.contains_key(key), "workload never moved {key}: {single:?}");
    }
    // ...and the whole delta — every counter, histogram bucket, and gauge
    // — is independent of the worker-thread count.
    assert_eq!(single, quad, "metric delta must not depend on OLA_THREADS");
    assert_eq!(single_curve, quad_curve, "a 256-lane pass must not depend on its workers");
}

/// Span recording must be close to free: with it on, the Monte-Carlo
/// sweep may cost at most a few percent more than with it off
/// ([`obs::set_recording`]); the per-sweep span is constant work, so at
/// this sample count the difference should vanish into noise.
///
/// Wall-clock comparisons are inherently jittery, so this is an opt-in
/// smoke test (`--ignored`); CI runs it in the observability job where a
/// real regression (per-sample spans, lock contention on the hot path)
/// shows up as an order-of-magnitude blowout, not a few percent.
#[test]
#[ignore = "wall-clock smoke test; run with --ignored"]
fn span_recording_overhead_is_small() {
    let _guard = ENV_LOCK.lock().unwrap();
    let time_it = |recording: bool| {
        obs::set_recording(recording);
        // Warm up, then take the best of several runs to shed scheduler
        // noise.
        let run = || {
            let t = std::time::Instant::now();
            let _ = montecarlo::om_monte_carlo(
                8,
                Selection::default(),
                InputModel::UniformDigits,
                4_000,
                13,
            );
            t.elapsed()
        };
        run();
        (0..5).map(|_| run()).min().expect("non-empty")
    };
    let on = time_it(true);
    let off = time_it(false);
    obs::set_recording(true);
    let ratio = on.as_secs_f64() / off.as_secs_f64().max(1e-9);
    assert!(
        ratio < 1.05,
        "span recording costs {:.1}% (on {on:?}, off {off:?})",
        (ratio - 1.0) * 100.0
    );
}
