//! `dsp_pack`: the full `repro dsp` kernel pack on the batch engine.
//!
//! Every kernel instance is compiled fused and unfused
//! (`optimize` → `elaborate` → `analyze`) and each flavour's overclocking
//! error curve is swept over a Ts grid shared by the pair. Every sweep is
//! one full 256-lane batch pass.

use crate::layers::{random_stimulus, ProbeSubject};
use crate::round::{mix, Clock, Ctx, Outcome};
use ola_core::SimBackend;
use ola_netlist::{analyze, FpgaDelay};
use ola_synth::{
    conv2d_separable, elaborate, fir_bank, matvec, optimize, ts_grid, variant_error_curve,
    AdderStructure, Dfg, ElabOptions, InputFmt, MacFusion, Style, SynthesizedDatapath,
};

#[derive(Clone, Copy)]
enum Kernel {
    Fir(usize),
    Conv2d(usize),
    Matvec(usize, usize),
}

impl Kernel {
    fn build(self, fusion: MacFusion, width: usize) -> Dfg {
        let fmt = InputFmt { msd_pos: 1, digits: width };
        match self {
            Kernel::Fir(taps) => fir_bank(taps, fusion, fmt),
            Kernel::Conv2d(k) => conv2d_separable(k, fusion, fmt),
            Kernel::Matvec(rows, cols) => matvec(rows, cols, fusion, fmt),
        }
    }

    fn label(self) -> String {
        match self {
            Kernel::Fir(taps) => format!("fir{taps}"),
            Kernel::Conv2d(k) => format!("conv2d{k}x{k}"),
            Kernel::Matvec(rows, cols) => format!("matvec{rows}x{cols}"),
        }
    }
}

struct Sizes {
    pack: &'static [(Kernel, &'static [usize])],
    samples: usize,
    ts_points: usize,
}

const FULL: Sizes = Sizes {
    pack: &[
        (Kernel::Fir(4), &[4, 8]),
        (Kernel::Fir(8), &[8]),
        (Kernel::Fir(16), &[8, 16]),
        (Kernel::Conv2d(3), &[4, 8]),
        (Kernel::Matvec(3, 3), &[4, 8]),
    ],
    samples: 256,
    ts_points: 20,
};

const TINY: Sizes = Sizes {
    pack: &[(Kernel::Fir(3), &[4]), (Kernel::Matvec(2, 2), &[4])],
    samples: 24,
    ts_points: 6,
};

const FLAVOURS: [MacFusion; 2] = [MacFusion::Fused, MacFusion::Unfused];

/// Runs the workload.
pub fn run(ctx: &Ctx, clock: &mut Clock) -> Outcome {
    let s = if ctx.tiny { TINY } else { FULL };
    let variants: u64 = s.pack.iter().map(|(_, w)| 2 * w.len() as u64).sum();
    let mut out = Outcome::new(vec![
        ("variants", variants),
        ("samples", s.samples as u64),
        ("ts_points", s.ts_points as u64),
    ]);
    let delay = FpgaDelay::default();
    // The kernel generators are the workload's input.
    let graphs: Vec<(Kernel, usize, [Dfg; 2])> = s
        .pack
        .iter()
        .flat_map(|&(k, widths)| {
            widths.iter().map(move |&w| (k, w, FLAVOURS.map(|f| k.build(f, w))))
        })
        .collect();

    clock.begin();
    let mut probe: Option<(SynthesizedDatapath, Vec<u64>)> = None;
    let mut variant = 0u64;
    for (kernel, width, dfgs) in &graphs {
        let dps = dfgs.clone().map(|dfg| {
            let opt =
                ctx.layer("layer.synth.optimize", || optimize(&dfg, AdderStructure::BalancedTree));
            let dp = ctx.layer("layer.synth.elaborate", || {
                elaborate(&opt, &ElabOptions::new(Style::Online))
            });
            let critical = ctx.layer("layer.sta", || analyze(&dp.netlist, &delay).critical_path());
            (dp, critical)
        });
        let span = dps.iter().map(|(_, c)| *c).max().unwrap_or(1).max(1);
        let grid = ts_grid(span, s.ts_points);
        let mut transitions = [0u64; 2];
        for (i, (fusion, (dp, critical))) in FLAVOURS.iter().zip(&dps).enumerate() {
            out.digest.str(&kernel.label());
            out.digest.u64(*width as u64);
            out.digest.str(fusion.name());
            out.digest.u64(*critical);
            out.nets += dp.netlist.len() as u64;
            variant += 1;
            // Every variant draws its own stimulus stream.
            let seed = mix(ctx.seed, variant);
            let (curve, stats) = ctx.layer("layer.empirical", || {
                variant_error_curve(dp, &delay, &grid, s.samples, seed, SimBackend::Batch)
            });
            let what = || format!("{} W={width} {}", kernel.label(), fusion.name());
            out.check(curve.samples == s.samples, || format!("{}: samples", what()));
            out.check(curve.mean_abs_error.last() == Some(&0.0), || {
                format!("{}: error at the grid's end is not 0", what())
            });
            out.check(curve.violation_rate.iter().all(|v| (0.0..=1.0).contains(v)), || {
                format!("{}: violation rate outside [0, 1]", what())
            });
            for &t in &curve.ts {
                out.digest.u64(t);
            }
            out.digest.f64s(&curve.mean_abs_error);
            out.digest.f64s(&curve.violation_rate);
            out.digest.u64(curve.max_settle);
            out.digest.u64(stats.lane_transitions);
            transitions[i] = stats.lane_transitions;
        }
        let (fused, unfused) = (&dps[0], &dps[1]);
        out.check(fused.1 < unfused.1 || transitions[0] < transitions[1], || {
            format!(
                "{} W={width}: the fused MAC dominates on neither latency nor activity",
                kernel.label()
            )
        });
        // The largest unfused datapath (the 16-tap, 16-digit FIR) carries
        // the probes.
        if ctx.traced && probe.as_ref().is_none_or(|p| unfused.0.netlist.len() > p.0.netlist.len())
        {
            probe = Some((unfused.0.clone(), grid));
        }
    }
    clock.end();

    if let Some((dp, grid)) = probe {
        let inputs = dp.netlist.inputs().len();
        out.probe = Some(ProbeSubject {
            wires: dp.output_wires(),
            stimulus: random_stimulus(inputs, 256, ctx.seed_for(0x9A0B)),
            netlist: dp.netlist,
            grid,
            jitter: None,
            event_vectors: 1,
            query: r#"{"kind":"dsp","kernel":"fir","size":4,"width":8,"ts_points":4,"samples":4}"#
                .to_owned(),
        });
    }
    out
}
