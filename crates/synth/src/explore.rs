//! The design-space explorer: style × adder allocation × width, with a
//! Pareto frontier over (LUT area, rated period, mean overclocking
//! error).
//!
//! For every variant the explorer runs the full compilation pipeline
//! ([`optimize`] → [`elaborate`]), then evaluates three axes:
//!
//! * **Latency**: STA rated period/frequency under [`FpgaDelay`]. A
//!   variant that folds to pure constants has no timed logic — its rated
//!   frequency is [`None`] and it is excluded from the frontier rather
//!   than unwrapped into a panic.
//! * **Area**: [`area::estimate`] with K = 4 LUTs.
//! * **Accuracy under overclocking**: empirical mean error over a shared
//!   absolute Ts grid via the `ola-core` engine
//!   ([`datapath_gate_level_curve_with`]), with STA-certified points
//!   skipped (counted, not simulated).
//!
//! Everything is deterministic: one seeded RNG per variant, and the
//! shared Ts grid is derived from the worst critical path across all
//! variants so the error axis is comparable between them.

use crate::elab::{elaborate, ElabOptions, PortShape, Style, SynthesizedDatapath};
use crate::ir::Dfg;
use crate::passes::{optimize, AdderStructure};
use ola_core::empirical::datapath_gate_level_curve_with;
use ola_core::{BackendStats, SimBackend, StaGate};
use ola_netlist::area::{self, AreaReport};
use ola_netlist::{analyze, FpgaDelay};
use ola_redundant::{SdNumber, Q};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Explorer configuration: the enumeration axes and the evaluation
/// budget.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Input digit widths to sweep (the `n` axis).
    pub widths: Vec<usize>,
    /// Arithmetic styles to compare.
    pub styles: Vec<Style>,
    /// Adder-structure allocations to compare.
    pub allocations: Vec<AdderStructure>,
    /// Online selection granularity `t` (≥ 3).
    pub frac_digits: i32,
    /// Number of clock periods in the shared Ts grid.
    pub ts_points: usize,
    /// Monte-Carlo samples per (variant, Ts).
    pub samples: usize,
    /// Base RNG seed (each variant derives its own stream).
    pub seed: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            widths: vec![4, 8],
            styles: vec![Style::Online, Style::Conventional],
            allocations: vec![
                AdderStructure::LinearChain,
                AdderStructure::BalancedTree,
                AdderStructure::OnlineChained,
            ],
            frac_digits: 3,
            ts_points: 12,
            samples: 48,
            seed: 2024,
        }
    }
}

/// One evaluated variant of the design space.
#[derive(Clone, Debug)]
pub struct DesignPoint {
    /// Arithmetic style.
    pub style: Style,
    /// Adder allocation used by [`optimize`].
    pub allocation: AdderStructure,
    /// Input digit width.
    pub width: usize,
    /// LUT/slice area estimate.
    pub area: AreaReport,
    /// STA critical path (time units), or [`None`] when the variant has
    /// no timed logic (e.g. it folded to constants).
    pub rated_period: Option<u64>,
    /// STA rated frequency (operations per megaunit), propagated as-is
    /// from [`TimingReport::rated_frequency`](ola_netlist::TimingReport).
    pub rated_mhz: Option<f64>,
    /// Mean of the per-Ts mean absolute output errors over the shared
    /// grid (0 for untimed variants — they are always settled).
    pub mean_error: f64,
    /// Worst per-Ts violation rate over the shared grid.
    pub worst_violation_rate: f64,
    /// `(bus, Ts)` sample points the engine skipped because settlement
    /// was STA-certified.
    pub certified_skipped: u64,
    /// True if the point is on the Pareto frontier of
    /// (LUT area, rated period, mean error).
    pub pareto: bool,
    /// Accumulation length (tap count) for fused-MAC sweeps
    /// ([`explore_mac`]); [`None`] for plain [`explore`] rows.
    pub mac_len: Option<usize>,
}

impl DesignPoint {
    /// Stable variant label for logs and CSV rows, e.g.
    /// `online/tree/w8`, or `online/tree/w8/k16` for MAC sweeps.
    #[must_use]
    pub fn label(&self) -> String {
        let base = format!("{}/{}/w{}", self.style.name(), self.allocation.name(), self.width);
        match self.mac_len {
            Some(len) => format!("{base}/k{len}"),
            None => base,
        }
    }
}

/// The explorer's output: every evaluated point plus the shared Ts grid.
#[derive(Clone, Debug)]
pub struct ExploreResult {
    /// All evaluated design points, in enumeration order
    /// (style-major, then allocation, then width).
    pub points: Vec<DesignPoint>,
    /// The shared absolute clock-period grid used for the error axis.
    pub ts_grid: Vec<u64>,
}

impl ExploreResult {
    /// The Pareto-frontier points, in enumeration order.
    #[must_use]
    pub fn frontier(&self) -> Vec<&DesignPoint> {
        self.points.iter().filter(|p| p.pareto).collect()
    }
}

/// Builds the canonical `points`-point absolute `Ts` grid over
/// `[1, span]` and deduplicates it.
///
/// The raw grid is `(span * i).div_ceil(points)` for `i = 1..=points`,
/// clamped to at least 1. When `span < points` the integer division
/// repeats values; a sweep over such a grid would silently double-count
/// those periods, and the batch sampler's
/// [`try_sweep`](ola_netlist::batch::LaneBusWaves::try_sweep) rejects them
/// with [`DuplicateTs`](ola_netlist::BatchError::DuplicateTs). Every
/// grid producer in this crate routes through this helper so the
/// duplicates never reach the engine.
#[must_use]
pub fn ts_grid(span: u64, points: usize) -> Vec<u64> {
    let n = points.max(1) as u64;
    let mut grid: Vec<u64> = (1..=n).map(|i| (span * i).div_ceil(n).max(1)).collect();
    grid.dedup();
    grid
}

struct Variant {
    style: Style,
    allocation: AdderStructure,
    width: usize,
    mac_len: Option<usize>,
    datapath: SynthesizedDatapath,
    area: AreaReport,
    critical: u64,
    rated_mhz: Option<f64>,
}

/// Compiles one variant: [`optimize`] at `width` digits, elaborate in
/// `style`, then STA and area.
fn compile_variant(
    dfg: &Dfg,
    style: Style,
    allocation: AdderStructure,
    width: usize,
    mac_len: Option<usize>,
    frac_digits: i32,
    delay: &FpgaDelay,
) -> Variant {
    let opt = optimize(&dfg.with_input_digits(width), allocation);
    let opts = ElabOptions::new(style).with_frac_digits(frac_digits);
    let datapath = elaborate(&opt, &opts);
    let report = analyze(&datapath.netlist, delay);
    let area = area::estimate(&datapath.netlist, 4);
    Variant {
        style,
        allocation,
        width,
        mac_len,
        area,
        critical: report.critical_path(),
        rated_mhz: report.rated_frequency(),
        datapath,
    }
}

fn check_axes(cfg: &ExploreConfig) {
    assert!(!cfg.widths.is_empty(), "need at least one width");
    assert!(!cfg.styles.is_empty(), "need at least one style");
    assert!(!cfg.allocations.is_empty(), "need at least one allocation");
    assert!(cfg.ts_points > 0, "need at least one Ts point");
    assert!(cfg.samples > 0, "need at least one sample");
}

/// Phases 2–3 of the explorer: one shared absolute Ts grid spanning the
/// worst rated period across *all* variants (so error curves are
/// comparable), empirical overclocking error per variant, and Pareto
/// marking.
fn evaluate_variants(variants: &[Variant], cfg: &ExploreConfig) -> ExploreResult {
    let delay = FpgaDelay::default();
    let worst = variants.iter().map(|v| v.critical).max().unwrap_or(0).max(1);
    let grid = ts_grid(worst, cfg.ts_points);

    let mut points = Vec::with_capacity(variants.len());
    for (k, v) in variants.iter().enumerate() {
        let (mean_error, worst_violation_rate, certified_skipped) =
            if v.datapath.netlist.logic_gate_count() == 0 {
                // Untimed variant (typically folded to constants): its
                // outputs are always settled — nothing to simulate, and
                // its rated frequency stays `None` instead of panicking.
                (0.0, 0.0, 0)
            } else {
                let (curve, stats) = variant_error_curve(
                    &v.datapath,
                    &delay,
                    &grid,
                    cfg.samples,
                    cfg.seed.wrapping_add(k as u64),
                    SimBackend::Batch,
                );
                let mean =
                    curve.mean_abs_error.iter().sum::<f64>() / curve.mean_abs_error.len() as f64;
                let worst_v = curve.violation_rate.iter().copied().fold(0.0f64, f64::max);
                (mean, worst_v, stats.sta_skipped_points)
            };
        points.push(DesignPoint {
            style: v.style,
            allocation: v.allocation,
            width: v.width,
            area: v.area,
            rated_period: (v.critical > 0).then_some(v.critical),
            rated_mhz: v.rated_mhz,
            mean_error,
            worst_violation_rate,
            certified_skipped,
            pareto: false,
            mac_len: v.mac_len,
        });
    }

    mark_pareto(&mut points);

    let reg = ola_core::obs::registry();
    reg.counter("ola.synth.variants_explored").add(points.len() as u64);
    reg.counter("ola.synth.pareto_points").add(points.iter().filter(|p| p.pareto).count() as u64);
    reg.counter("ola.synth.certified_points_skipped")
        .add(points.iter().map(|p| p.certified_skipped).sum());

    ExploreResult { points, ts_grid: grid }
}

/// Enumerates and evaluates the design space of `dfg`.
///
/// # Panics
///
/// Panics if any axis of `cfg` is empty, `cfg.frac_digits < 3`,
/// `cfg.ts_points == 0`, or `cfg.samples == 0`.
#[must_use]
pub fn explore(dfg: &Dfg, cfg: &ExploreConfig) -> ExploreResult {
    check_axes(cfg);
    let _span = ola_core::obs::span("synth.explore");
    let delay = FpgaDelay::default();

    // Phase 1: compile every variant, collect STA + area.
    let mut variants = Vec::new();
    for &style in &cfg.styles {
        for &allocation in &cfg.allocations {
            for &width in &cfg.widths {
                variants.push(compile_variant(
                    dfg,
                    style,
                    allocation,
                    width,
                    None,
                    cfg.frac_digits,
                    &delay,
                ));
            }
        }
    }
    evaluate_variants(&variants, cfg)
}

/// Explores the fused-MAC design space: style × adder allocation × width
/// × accumulation length, over the canonical FIR inner product
/// ([`crate::dsp::fir_bank`], fused flavour) at each length in `lens`.
///
/// All lengths share one absolute Ts grid (spanning the worst rated
/// period across the whole sweep), so the error axis is comparable both
/// across widths *and* across accumulation depths — which is what makes
/// the length axis an actual trade-off dimension rather than a family of
/// incomparable frontiers. Rows carry
/// [`mac_len`](DesignPoint::mac_len)` = Some(len)` and labels like
/// `online/tree/w8/k16`.
///
/// # Panics
///
/// Panics if `lens` is empty or any axis of `cfg` is empty (as
/// [`explore`]).
#[must_use]
pub fn explore_mac(cfg: &ExploreConfig, lens: &[usize]) -> ExploreResult {
    check_axes(cfg);
    assert!(!lens.is_empty(), "need at least one accumulation length");
    let _span = ola_core::obs::span("synth.explore_mac");
    let delay = FpgaDelay::default();

    let mut variants = Vec::new();
    for &len in lens {
        let dfg = crate::dsp::fir_bank(
            len,
            crate::dsp::MacFusion::Fused,
            crate::ir::InputFmt { msd_pos: 1, digits: cfg.widths[0] },
        );
        for &style in &cfg.styles {
            for &allocation in &cfg.allocations {
                for &width in &cfg.widths {
                    variants.push(compile_variant(
                        &dfg,
                        style,
                        allocation,
                        width,
                        Some(len),
                        cfg.frac_digits,
                        &delay,
                    ));
                }
            }
        }
    }
    ola_core::obs::registry().counter("ola.synth.mac.explored").add(variants.len() as u64);
    evaluate_variants(&variants, cfg)
}

/// Runs the shared-engine empirical sweep for one synthesized variant:
/// random in-range port values in, per-port exact value comparison out.
///
/// Public so single-variant consumers (the `ola-serve` sweep query) share
/// the explorer's exact sampling discipline — same draw encoding, same
/// judge — and therefore produce curves comparable to explorer rows.
/// `backend` is the batch engine for every production caller;
/// [`SimBackend::Event`] runs the event-driven reference oracle, which
/// only tests select (the `ola-bench` oracle tests sweep every `repro dsp`
/// variant on it).
///
/// # Panics
///
/// Panics if the datapath has no timed logic (callers check
/// `logic_gate_count() > 0` first, as [`explore`] does).
#[must_use]
pub fn variant_error_curve(
    dp: &SynthesizedDatapath,
    delay: &FpgaDelay,
    ts_grid: &[u64],
    samples: usize,
    seed: u64,
    backend: SimBackend,
) -> (ola_core::empirical::GateLevelCurve, BackendStats) {
    let wires = dp.output_wires();
    let in_shapes: Vec<PortShape> = dp.inputs.iter().map(|p| p.shape).collect();
    let draw = move |rng: &mut ChaCha8Rng| -> Vec<bool> {
        let mut bits = Vec::new();
        for &shape in &in_shapes {
            match shape {
                PortShape::Online { digits, .. } => {
                    let bound = (1i128 << digits) - 1;
                    let v = Q::new(rng.gen_range(-bound..=bound), digits as u32);
                    let sd = SdNumber::from_value(v, digits).expect("in range");
                    for d in &sd {
                        bits.push(d.to_bits().0);
                    }
                    for d in &sd {
                        bits.push(d.to_bits().1);
                    }
                }
                PortShape::Tc { width, .. } => {
                    let bound = (1i128 << (width - 1)) - 1;
                    let units = rng.gen_range(-bound..=bound);
                    for i in 0..width {
                        bits.push(units >> i & 1 == 1);
                    }
                }
            }
        }
        bits
    };
    let ports = dp.outputs.len();
    let judge = |sampled: &[bool], settled: &[bool]| -> (bool, f64) {
        let mut err = Q::ZERO;
        for port in 0..ports {
            err += (dp.decode_output(port, sampled) - dp.decode_output(port, settled)).abs();
        }
        (!err.is_zero(), err.to_f64().abs())
    };
    datapath_gate_level_curve_with(
        &dp.netlist,
        &wires,
        delay,
        ts_grid,
        samples,
        seed,
        backend,
        StaGate::On,
        draw,
        judge,
    )
}

/// Marks the non-dominated points in (LUT area, rated period, mean
/// error), all minimized. Untimed points (no rated period) are kept as
/// rows but never enter the frontier.
fn mark_pareto(points: &mut [DesignPoint]) {
    let n = points.len();
    for i in 0..n {
        let Some(pi) = points[i].rated_period else { continue };
        let dominated = (0..n).any(|j| {
            if i == j {
                return false;
            }
            let Some(pj) = points[j].rated_period else { return false };
            let le = points[j].area.luts <= points[i].area.luts
                && pj <= pi
                && points[j].mean_error <= points[i].mean_error;
            let lt = points[j].area.luts < points[i].area.luts
                || pj < pi
                || points[j].mean_error < points[i].mean_error;
            le && lt
        });
        points[i].pareto = !dominated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::InputFmt;
    use crate::parser::parse_dfg;

    fn small_cfg() -> ExploreConfig {
        ExploreConfig { widths: vec![2, 3], ts_points: 4, samples: 6, ..ExploreConfig::default() }
    }

    #[test]
    fn ts_grid_spans_evenly_without_duplicates() {
        assert_eq!(ts_grid(100, 4), vec![25, 50, 75, 100]);
        assert_eq!(ts_grid(12, 12), (1..=12).collect::<Vec<u64>>());
    }

    #[test]
    fn ts_grid_dedupes_when_span_is_below_point_count() {
        // span=3, points=8: the raw div_ceil grid repeats 1, 2, and 3.
        assert_eq!(ts_grid(3, 8), vec![1, 2, 3]);
        assert_eq!(ts_grid(1, 5), vec![1]);
        for span in 1..40u64 {
            for points in 1..20usize {
                let g = ts_grid(span, points);
                assert!(g.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
                assert_eq!(*g.last().expect("nonempty"), span.max(1));
            }
        }
    }

    #[test]
    fn explorer_produces_a_nonempty_frontier() {
        let dfg = parse_dfg("y = a * g + b", InputFmt { msd_pos: 1, digits: 2 }).expect("valid");
        let res = explore(&dfg, &small_cfg());
        assert_eq!(res.points.len(), 2 * 3 * 2);
        assert!(!res.frontier().is_empty(), "at least one non-dominated point");
        for p in &res.points {
            assert!(p.rated_period.is_some(), "timed variants have a rated period");
            assert!(p.area.luts > 0);
        }
    }

    #[test]
    fn constant_folded_datapath_yields_untimed_points_without_panicking() {
        // The whole program folds to constants: no timed logic anywhere.
        let dfg = parse_dfg("y = 0.5 * 0.25 + 0.125", InputFmt::default()).expect("valid");
        let res = explore(
            &dfg,
            &ExploreConfig { widths: vec![4], ts_points: 3, samples: 4, ..Default::default() },
        );
        assert!(!res.points.is_empty());
        for p in &res.points {
            assert_eq!(p.rated_period, None, "constants have no critical path");
            assert_eq!(p.rated_mhz, None, "rated frequency propagates as None");
            assert_eq!(p.mean_error, 0.0);
            assert!(!p.pareto, "untimed points stay off the frontier");
        }
    }

    #[test]
    fn pareto_marking_rejects_dominated_points() {
        let mk = |luts: usize, period: u64, err: f64| DesignPoint {
            style: Style::Online,
            allocation: AdderStructure::BalancedTree,
            width: 4,
            area: AreaReport { luts, slices: luts.div_ceil(4), gates: luts, inputs: 1 },
            rated_period: Some(period),
            rated_mhz: Some(1.0e6 / period as f64),
            mean_error: err,
            worst_violation_rate: 0.0,
            certified_skipped: 0,
            pareto: false,
            mac_len: None,
        };
        let mut pts = vec![mk(10, 100, 0.5), mk(20, 200, 0.6), mk(5, 300, 0.1)];
        mark_pareto(&mut pts);
        assert!(pts[0].pareto);
        assert!(!pts[1].pareto, "dominated by the first point");
        assert!(pts[2].pareto);
    }

    #[test]
    fn mac_exploration_sweeps_the_accumulation_axis() {
        let cfg = ExploreConfig {
            widths: vec![3],
            allocations: vec![AdderStructure::BalancedTree],
            ts_points: 4,
            samples: 6,
            ..ExploreConfig::default()
        };
        let res = explore_mac(&cfg, &[2, 4]);
        // 2 lens × 2 styles × 1 allocation × 1 width.
        assert_eq!(res.points.len(), 4);
        for p in &res.points {
            assert!(p.mac_len.is_some());
            assert!(p.label().contains("/k"), "label {} carries the length", p.label());
            assert!(p.rated_period.is_some());
        }
        // Deeper accumulation means strictly more logic at equal width.
        let luts = |len: usize, style: Style| {
            res.points
                .iter()
                .find(|p| p.mac_len == Some(len) && p.style == style)
                .expect("row exists")
                .area
                .luts
        };
        for style in [Style::Online, Style::Conventional] {
            assert!(luts(4, style) > luts(2, style));
        }
        assert!(!res.frontier().is_empty());
    }

    #[test]
    fn exploration_is_deterministic() {
        let dfg = parse_dfg("y = a * g + b", InputFmt { msd_pos: 1, digits: 2 }).expect("valid");
        let cfg = small_cfg();
        let a = explore(&dfg, &cfg);
        let b = explore(&dfg, &cfg);
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.mean_error.to_bits(), y.mean_error.to_bits());
            assert_eq!(x.certified_skipped, y.certified_skipped);
        }
    }
}
