//! `fig4_jitter`: Figure 4 of the paper, both rows.
//!
//! The top row is the stage-wave Monte-Carlo sweep of the 8- and 12-digit
//! online multipliers; the bottom row is the gate-level curve of the
//! 8-digit multiplier netlist under jittered delays. Jitter is not
//! batch-exact, so the gate-level sweep runs on the event engine.

use crate::layers::ProbeSubject;
use crate::round::{Clock, Ctx, Outcome};
use ola_arith::online::Selection;
use ola_arith::synth::online_multiplier;
use ola_core::empirical::om_gate_level_curve_with;
use ola_core::montecarlo::om_monte_carlo;
use ola_core::{InputModel, SimBackend, StaGate};
use ola_netlist::{analyze, FpgaDelay, JitteredDelay};

struct Sizes {
    mc_samples: usize,
    gate_samples: usize,
    ts_points: u64,
}

/// The event sweep is what this workload measures, so it takes about 95%
/// of the timed region. The Monte-Carlo sweep stays small: on a shared
/// two-core host its time swung by up to 2.6× between rounds, against
/// 1.3× for the event sweep. A round's event work varies by about 4%
/// (coefficient of variation) between seeds at 12 samples.
const FULL: Sizes = Sizes { mc_samples: 1_000, gate_samples: 12, ts_points: 10 };
const TINY: Sizes = Sizes { mc_samples: 600, gate_samples: 3, ts_points: 4 };

/// Operand digits of the two Monte-Carlo sweeps.
const MC_DIGITS: [usize; 2] = [8, 12];
/// Operand digits of the gate-level multiplier.
const GATE_DIGITS: usize = 8;
/// Amplitude and seed of the emulated place-and-route variation: one
/// fixed placement, so every `--seed` simulates the same netlist timing.
const JITTER: u64 = 15;
const PLACEMENT: u64 = 2014;

/// Runs the workload.
pub fn run(ctx: &Ctx, clock: &mut Clock) -> Outcome {
    let s = if ctx.tiny { TINY } else { FULL };
    let mut out = Outcome::new(vec![
        ("mc_samples", s.mc_samples as u64),
        ("gate_samples", s.gate_samples as u64),
        ("ts_points", s.ts_points),
        ("gate_digits", GATE_DIGITS as u64),
        ("jitter", JITTER),
    ]);
    let delay = JitteredDelay::new(FpgaDelay::default(), JITTER, PLACEMENT);

    clock.begin();
    let mc: Vec<_> = MC_DIGITS
        .iter()
        .map(|&n| {
            ctx.layer("layer.montecarlo", || {
                om_monte_carlo(
                    n,
                    Selection::default(),
                    InputModel::UniformDigits,
                    s.mc_samples,
                    ctx.seed_for(n as u64),
                )
            })
        })
        .collect();
    let circuit = ctx.layer("layer.arith", || online_multiplier(GATE_DIGITS, 3));
    let rated = ctx.layer("layer.sta", || analyze(&circuit.netlist, &delay).critical_path());
    let ts: Vec<u64> = (1..=s.ts_points).map(|k| rated * k / s.ts_points).collect();
    let (curve, _) = ctx.layer("layer.empirical", || {
        om_gate_level_curve_with(
            &circuit,
            &delay,
            InputModel::UniformDigits,
            &ts,
            s.gate_samples,
            ctx.seed_for(0x6A7E),
            SimBackend::Auto,
            StaGate::On,
        )
    });
    clock.end();

    for (m, n) in mc.iter().zip(MC_DIGITS) {
        let c = &m.curve;
        out.check(c.samples == s.mc_samples, || format!("mc N={n}: {} samples", c.samples));
        out.check(c.mean_abs_error.last() == Some(&0.0), || {
            format!("mc N={n}: error at the structural budget is not 0")
        });
        out.check(c.violation_rate.iter().all(|v| (0.0..=1.0).contains(v)), || {
            format!("mc N={n}: violation rate outside [0, 1]")
        });
        out.digest.u64(n as u64);
        out.digest.f64s(&c.mean_abs_error);
        out.digest.f64s(&c.violation_rate);
        out.digest.u64(m.profile.len() as u64);
        for p in &m.profile {
            out.digest.u64(p.delay as u64);
            out.digest.f64(p.probability);
            out.digest.f64(p.error_magnitude);
        }
    }
    out.check(curve.samples == s.gate_samples, || format!("gate: {} samples", curve.samples));
    out.check(curve.mean_abs_error.last() == Some(&0.0), || {
        "gate: error at the rated period is not 0".to_owned()
    });
    out.check(curve.violation_rate.iter().all(|v| (0.0..=1.0).contains(v)), || {
        "gate: violation rate outside [0, 1]".to_owned()
    });
    for &t in &curve.ts {
        out.digest.u64(t);
    }
    out.digest.f64s(&curve.mean_abs_error);
    out.digest.f64s(&curve.violation_rate);
    out.digest.u64(curve.critical_path);
    out.digest.u64(curve.max_settle);
    out.digest.u64(curve.samples as u64);

    out.nets = circuit.netlist.len() as u64;
    if ctx.traced {
        out.probe = Some(ProbeSubject::multiplier(&circuit, ts, Some(delay), ctx.seed_for(0x9A0B)));
    }
    out
}
