//! Property-based soundness of the abstract interpreter
//! ([`ola_synth::absint`]): on random dataflow programs, the certified
//! sampling bounds must dominate the error the gate-level batch engine
//! actually measures, at every point of the Ts grid, for both
//! implementation styles. This is the blanket version of the hand-picked
//! kernels in the unit tests — any random DAG whose bound is ever beaten
//! by a measurement is an unsoundness in the inaccurate-adder model.

// Integration-test helpers sit outside `#[test]` fns, so clippy's
// `allow-unwrap-in-tests` doesn't reach them; a loud panic is still the
// right failure mode here.
#![allow(clippy::unwrap_used)]

use ola_netlist::{analyze, FpgaDelay};
use ola_redundant::{BsVector, SdNumber, Q};
use ola_synth::{
    elaborate, interpret, optimize, parse_dfg, sampling_bounds, variant_error_curve,
    AdderStructure, ElabOptions, InputFmt, PortShape, Style, SynthesizedDatapath,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Renders a random dyadic coefficient `k/8` as an exact literal the
/// parser accepts (`0.1`-style inexact literals are rejected by design).
fn coeff(k: i32) -> String {
    format!("({})", f64::from(k) / 8.0)
}

/// A recipe for one random expression node: (op selector, two operand
/// selectors, coefficient selector).
type ExprRecipe = (u8, u8, u8, i8);

/// Folds recipes over the leaves `a`, `b`, `c` into a random expression
/// DAG (rendered as text, so shared subexpressions duplicate — the
/// parser rebuilds the sharing via the bound intermediate in the test's
/// program). The operator set — adds, subs, constant multiplications —
/// is what every style elaborates at small widths; the recipe count stays
/// low enough that conventional operand widths clear the Baugh–Wooley
/// 31-bit cap.
fn build_expr(recipes: &[ExprRecipe]) -> String {
    let mut exprs: Vec<String> = vec!["a".to_string(), "b".to_string(), "c".to_string()];
    for &(op, x, y, k) in recipes {
        let pick = |s: u8| exprs[s as usize % exprs.len()].clone();
        let k = i32::from(k).rem_euclid(7) + 1; // 1..=7, never zero
        let e = match op % 3 {
            0 => format!("({} + {})", pick(x), pick(y)),
            1 => format!("({} - {})", pick(x), pick(y)),
            _ => format!("({} * {})", pick(x), coeff(k)),
        };
        exprs.push(e);
    }
    exprs.last().expect("leaves are nonempty").clone()
}

fn expr() -> impl Strategy<Value = String> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<i8>()), 1..5)
        .prop_map(|rs| build_expr(&rs))
}

proptest! {
    // Each case elaborates and simulates two gate-level datapaths, so
    // the case count stays deliberately small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For a random two-output program (sharing a common subexpression,
    /// so the graph is a DAG rather than a tree), the certified sampling
    /// bound dominates the measured mean error at every Ts for both
    /// styles, and collapses to zero at the critical path.
    #[test]
    fn sampling_bounds_dominate_measured_error(
        e1 in expr(),
        e2 in expr(),
        digits in 3usize..5,
    ) {
        let src = format!("t = {e1}\ny = t + {e2}\nz = t - ({e2})");
        let dfg = parse_dfg(&src, InputFmt { msd_pos: 1, digits }).unwrap();
        let opt = optimize(&dfg, AdderStructure::BalancedTree);
        let delay = FpgaDelay::default();
        for style in [Style::Online, Style::Conventional] {
            let dp = elaborate(&opt, &ElabOptions::new(style));
            // An all-constant draw folds to zero gates: nothing to time.
            if dp.netlist.logic_gate_count() == 0 {
                continue;
            }
            let critical = analyze(&dp.netlist, &delay).critical_path().max(1);
            let points = 6u64;
            let ts_grid: Vec<u64> =
                (1..=points).map(|i| (critical * i).div_ceil(points).max(1)).collect();
            let bounds = sampling_bounds(&dp, &delay, &ts_grid);
            let (curve, _) = variant_error_curve(
                &dp,
                &delay,
                &ts_grid,
                16,
                0xAB5_1147 ^ digits as u64,
                ola_core::SimBackend::Auto,
            );
            for (k, &measured) in curve.mean_abs_error.iter().enumerate() {
                let bound = bounds.total_f64(k);
                prop_assert!(
                    measured <= bound + 1e-12,
                    "{} Ts={}: measured {measured} > certified {bound} ({src})",
                    style.name(),
                    ts_grid[k],
                );
            }
            // The last grid point is the critical path: fully settled,
            // so the certified bound must be exactly zero.
            prop_assert!(
                bounds.total_f64(ts_grid.len() - 1) == 0.0,
                "{}: nonzero bound at the critical path ({src})",
                style.name(),
            );
        }
    }

    /// The interpreter's *settled* bound dominates the real thing: a
    /// fully settled gate-level evaluation of either style decodes to
    /// within `settled_error_bounds()[0]` of the IR-level exact value,
    /// on random input values.
    #[test]
    fn settled_bounds_cover_decoded_settled_outputs(
        e1 in expr(),
        digits in 3usize..5,
        seed in any::<u64>(),
    ) {
        // `+ a` guarantees at least one primary input survives folding.
        let src = format!("y = {e1} + a");
        let dfg = parse_dfg(&src, InputFmt { msd_pos: 1, digits }).unwrap();
        let opt = optimize(&dfg, AdderStructure::BalancedTree);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let limit = (1i128 << digits) - 1;
        for _ in 0..4 {
            let values: Vec<Q> = opt
                .inputs()
                .iter()
                .map(|_| Q::new(rng.gen_range(-limit..=limit), digits as u32))
                .collect();
            let exact = opt.eval_exact(&values)[0];
            for style in [Style::Online, Style::Conventional] {
                let bound = interpret(&opt, style).settled_error_bounds()[0];
                let dp = elaborate(&opt, &ElabOptions::new(style));
                let decoded = settle(&dp, &values, digits);
                let err = (decoded - exact).abs();
                prop_assert!(
                    err <= bound,
                    "{}: |{decoded:?} − {exact:?}| = {err:?} > settled bound {bound:?} ({src})",
                    style.name(),
                );
            }
        }
    }
}

/// Encodes `values` for the datapath's input discipline, evaluates the
/// netlist to settlement, and decodes output port 0.
fn settle(dp: &SynthesizedDatapath, values: &[Q], digits: usize) -> Q {
    let bits = match dp.inputs[0].shape {
        PortShape::Online { .. } => {
            let windows: Vec<BsVector> = values
                .iter()
                .map(|&v| BsVector::from_sd(&SdNumber::from_value(v, digits).unwrap()))
                .collect();
            dp.encode_inputs_online(&windows)
        }
        PortShape::Tc { .. } => dp.encode_inputs_tc(values),
    };
    let vals = dp.netlist.eval(&bits);
    let sampled: Vec<bool> = dp.output_wires().iter().map(|w| vals[w.index()]).collect();
    dp.decode_output(0, &sampled)
}
