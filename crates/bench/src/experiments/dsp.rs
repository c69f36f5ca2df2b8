//! `repro dsp`: the fused-MAC DSP workload pack.
//!
//! Three kernel families come out of the [`ola_synth::dsp`] generators —
//! FIR tap banks, a separable 2-D convolution, and a small dense
//! mat-vec — each compiled twice through the online elaborator: once
//! through the fused [`Op::Mac`](ola_synth::Op) lowering (digit-serial
//! partial products folded into one redundant carry-save accumulation,
//! never collapsed between terms) and once as the unfused
//! tree-of-multiplies. Per `(kernel, size, width, fusion)` variant the
//! sweep records:
//!
//! * **LUT area** and the **STA rated frequency** of the online netlist;
//! * the empirical **overclocking error curve** over a Ts grid shared
//!   between the fused and unfused flavours (so their error columns are
//!   comparable point for point), on the wide-lane batch engine (the
//!   experiments' oracle tests, `oracle.rs`, hold every variant's curve
//!   to the event-driven reference simulator);
//! * the batch engine's **lane-transition count** — the equivalent
//!   event-driven work, used here as the switching-activity /
//!   interconnect-energy proxy;
//! * a per-point soundness check of the abstract interpreter's
//!   [`sampling_bounds`](ola_synth::sampling_bounds) against the
//!   measured curve (every measured mean error must sit at or below its
//!   bound).
//!
//! The experiment *fails* unless, at every swept `(kernel, size, width)`
//! triple, the fused datapath beats the unfused one on settled latency
//! (STA critical path) or on transition-count activity — the fused-MAC
//! dominance claim — and unless every bounds check is sound. Two CSVs:
//! `dsp_fused_vs_unfused_online_macs.csv` (one row per variant) and
//! `dsp_fused_dominance_by_width.csv` (one row per triple). All columns
//! are simulation-domain counts — no wall-clock figures — so every
//! recomputation, and every checkpoint replay, renders bit-identical
//! tables at any thread count. The benchmark's `dsp_pack` workload
//! times the pack.

use super::Scale;
use crate::report::{fmt_f, Table};
use ola_core::empirical::GateLevelCurve;
use ola_core::{BackendStats, SimBackend};
use ola_netlist::{analyze, area, FpgaDelay};
use ola_synth::{
    conv2d_separable, elaborate, fir_bank, matvec, optimize, sampling_bounds, ts_grid,
    variant_error_curve, AdderStructure, Dfg, ElabOptions, InputFmt, MacFusion, Style,
    SynthesizedDatapath,
};

/// Master seed for the empirical error curves (recorded in the run
/// manifest via [`super::master_seeds`]).
pub(crate) const SEED: u64 = 0xD5_90AC;

/// One kernel instance of the pack: `rows` is only meaningful for the
/// mat-vec kernel (its column count is `size`).
#[derive(Clone, Copy)]
pub(super) struct Kernel {
    kind: &'static str,
    size: usize,
    rows: usize,
}

impl Kernel {
    pub(super) fn label(self) -> String {
        match self.kind {
            "matvec" => format!("matvec {}x{}", self.rows, self.size),
            "conv2d" => format!("conv2d {0}x{0}", self.size),
            _ => format!("fir {} taps", self.size),
        }
    }

    fn build(self, fusion: MacFusion, width: usize) -> Dfg {
        let fmt = InputFmt { msd_pos: 1, digits: width };
        match self.kind {
            "matvec" => matvec(self.rows, self.size, fusion, fmt),
            "conv2d" => conv2d_separable(self.size, fusion, fmt),
            _ => fir_bank(self.size, fusion, fmt),
        }
    }
}

/// The swept `(kernel, widths)` pack per scale. Full scale includes the
/// 16-tap / 16-digit FIR, the largest variant.
pub(super) fn pack(scale: Scale) -> Vec<(Kernel, Vec<usize>)> {
    let fir = |size| Kernel { kind: "fir", size, rows: 0 };
    let conv = |size| Kernel { kind: "conv2d", size, rows: 0 };
    let mv = |rows, size| Kernel { kind: "matvec", size, rows };
    match scale {
        Scale::Quick => vec![(fir(4), vec![4, 6]), (conv(2), vec![4]), (mv(2, 2), vec![4])],
        Scale::Full => vec![
            (fir(4), vec![4, 8]),
            (fir(8), vec![8]),
            (fir(16), vec![8, 16]),
            (conv(3), vec![4, 8]),
            (mv(3, 3), vec![4, 8]),
        ],
    }
}

/// Error-sweep samples per variant. Deliberately smaller than
/// [`Scale::gate_samples`]: the oracle tests sweep every variant on the
/// event-driven simulator too, where the width-16 unfused tree (45k
/// nets) costs seconds per sample — and the dominance and soundness
/// checks are about deterministic counts, not Monte-Carlo depth.
pub(super) fn samples(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 24,
        Scale::Full => 64,
    }
}

/// One elaborated `(kernel, width, fusion)` variant and the seed its
/// error sweep draws from.
pub(super) struct Flavour {
    dp: SynthesizedDatapath,
    seed: u64,
}

impl Flavour {
    /// The variant's error curve over `grid`, on `backend`.
    pub(super) fn curve(
        &self,
        grid: &[u64],
        samples: usize,
        delay: &FpgaDelay,
        backend: SimBackend,
    ) -> (GateLevelCurve, BackendStats) {
        variant_error_curve(&self.dp, delay, grid, samples, self.seed, backend)
    }
}

/// Both flavours of `kernel` at `width`, fused first, and the `points`-
/// point Ts grid they share. The grid spans the *slower* flavour's
/// critical path, so the fused and unfused error columns sample identical
/// periods.
pub(super) fn flavours(
    kernel: Kernel,
    width: usize,
    points: usize,
    delay: &FpgaDelay,
) -> ([Flavour; 2], Vec<u64>) {
    let flavour = |fusion| {
        let dfg = optimize(&kernel.build(fusion, width), AdderStructure::BalancedTree);
        let seed = SEED ^ ((width as u64) << 16) ^ (kernel.size as u64) << 4 ^ fusion as u64;
        Flavour { dp: elaborate(&dfg, &ElabOptions::new(Style::Online)), seed }
    };
    let both = [flavour(MacFusion::Fused), flavour(MacFusion::Unfused)];
    let span =
        both.iter().map(|f| analyze(&f.dp.netlist, delay).critical_path()).max().unwrap_or(1);
    (both, ts_grid(span.max(1), points))
}

/// Everything measured for one `(kernel, width, fusion)` variant.
struct Measured {
    luts: usize,
    critical: u64,
    rated_mhz: Option<f64>,
    mean_error: f64,
    worst_violation: f64,
    sta_skipped: u64,
    transitions: u64,
    sound: bool,
}

/// Sweeps one flavour over `grid` and checks its absint bounds.
fn measure(flavour: &Flavour, grid: &[u64], samples: usize, delay: &FpgaDelay) -> Measured {
    let report = analyze(&flavour.dp.netlist, delay);
    let (curve, stats) = flavour.curve(grid, samples, delay, SimBackend::Batch);
    let bounds = sampling_bounds(&flavour.dp, delay, grid);
    let sound = (0..grid.len()).all(|i| curve.mean_abs_error[i] <= bounds.total_f64(i));
    let mean = curve.mean_abs_error.iter().sum::<f64>() / curve.mean_abs_error.len() as f64;
    let worst = curve.violation_rate.iter().copied().fold(0.0f64, f64::max);
    ola_core::obs::registry().counter("ola.dsp.variants_evaluated").inc();
    Measured {
        luts: area::estimate(&flavour.dp.netlist, 4).luts,
        critical: report.critical_path(),
        rated_mhz: report.rated_frequency(),
        mean_error: mean,
        worst_violation: worst,
        sta_skipped: stats.sta_skipped_points,
        transitions: stats.lane_transitions,
        sound,
    }
}

/// Runs the DSP workload pack.
///
/// # Errors
///
/// If the fused flavour fails to dominate the unfused one on settled
/// latency or activity at any swept `(kernel, size, width)`, or if any
/// measured error point exceeds its abstract-interpretation bound.
pub fn dsp(run: &crate::resume::ExperimentCtx, scale: Scale) -> Result<Vec<Table>, String> {
    run.unit("pack", || dsp_inner(scale))
}

fn dsp_inner(scale: Scale) -> Result<Vec<Table>, String> {
    ola_core::obs::annotate(
        "dsp.pack",
        format_args!(
            "{} kernel instances, {} Ts points x {} samples",
            pack(scale).len(),
            scale.grid_points(),
            samples(scale)
        ),
    );
    let delay = FpgaDelay::default();
    let samples = samples(scale);
    let points = scale.grid_points();

    let mut variants = Table::new(
        "DSP fused vs unfused online MACs",
        &[
            "kernel",
            "width",
            "fusion",
            "luts",
            "critical_path",
            "rated_mhz",
            "mean_error",
            "worst_violation_rate",
            "sta_skipped",
            "transitions",
            "bounds_sound",
        ],
    );
    let mut dominance = Table::new(
        "DSP fused dominance by width",
        &[
            "kernel",
            "width",
            "latency_fused",
            "latency_unfused",
            "transitions_fused",
            "transitions_unfused",
            "dominates",
        ],
    );
    let mut bad: Vec<String> = Vec::new();

    for (kernel, widths) in pack(scale) {
        for width in widths {
            let ([fused, unfused], grid) = flavours(kernel, width, points, &delay);
            let fused = measure(&fused, &grid, samples, &delay);
            let unfused = measure(&unfused, &grid, samples, &delay);
            let name = kernel.label();
            for (fusion, m) in [("fused", &fused), ("unfused", &unfused)] {
                if !m.sound {
                    bad.push(format!(
                        "{name} W={width} {fusion}: measured error exceeds its absint bound"
                    ));
                }
                variants.push_row(vec![
                    name.clone(),
                    width.to_string(),
                    fusion.to_string(),
                    m.luts.to_string(),
                    m.critical.to_string(),
                    m.rated_mhz.map_or_else(|| "-".to_string(), fmt_f),
                    fmt_f(m.mean_error),
                    fmt_f(m.worst_violation),
                    m.sta_skipped.to_string(),
                    m.transitions.to_string(),
                    m.sound.to_string(),
                ]);
            }
            let dominates =
                fused.critical < unfused.critical || fused.transitions < unfused.transitions;
            if !dominates {
                bad.push(format!(
                    "{name} W={width}: fused MAC dominates on neither settled latency \
                     ({} vs {}) nor activity ({} vs {})",
                    fused.critical, unfused.critical, fused.transitions, unfused.transitions
                ));
            }
            dominance.push_row(vec![
                name,
                width.to_string(),
                fused.critical.to_string(),
                unfused.critical.to_string(),
                fused.transitions.to_string(),
                unfused.transitions.to_string(),
                dominates.to_string(),
            ]);
        }
    }

    if bad.is_empty() {
        Ok(vec![variants, dominance])
    } else {
        Err(format!("{} dsp check(s) failed: {}", bad.len(), bad.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pack_shows_fused_dominance_everywhere() {
        let tables = dsp(&crate::resume::ExperimentCtx::ephemeral("dsp"), Scale::Quick).unwrap();
        assert_eq!(tables.len(), 2);
        let variants = &tables[0];
        // 4 (kernel, width) pairs x 2 fusion flavours.
        assert_eq!(variants.rows.len(), 8);
        for row in &variants.rows {
            assert_eq!(row[10], "true", "unsound bound: {row:?}");
        }
        let dom = &tables[1];
        assert_eq!(dom.rows.len(), 4);
        for row in &dom.rows {
            assert_eq!(row[6], "true", "fused fails to dominate: {row:?}");
        }
        // The fused flavour's settled latency is strictly lower on the
        // 4-tap FIR (log-depth fold vs serial product chains).
        let fir = &dom.rows[0];
        assert!(
            fir[2].parse::<u64>().unwrap() < fir[3].parse::<u64>().unwrap(),
            "fir latency row: {fir:?}"
        );
    }

    #[test]
    fn csv_slugs_match_the_documented_output_names() -> std::io::Result<()> {
        let dir = std::env::temp_dir().join("ola_dsp_slug_test");
        let t = Table::new("DSP fused vs unfused online MACs", &["a"]);
        assert!(t.write_csv(&dir)?.ends_with("dsp_fused_vs_unfused_online_macs.csv"));
        let d = Table::new("DSP fused dominance by width", &["a"]);
        assert!(d.write_csv(&dir)?.ends_with("dsp_fused_dominance_by_width.csv"));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}
