//! Abstract interpretation of dataflow graphs: interval value ranges,
//! affine error forms, and certified overclocking error bounds.
//!
//! The explorer's accuracy axis is empirical — sample, simulate, decode,
//! compare. This module is the *static* counterpart, grounding the same
//! quantities in proofs (ROADMAP item 5, after Kedem & Muntimadugu's
//! generalized inaccurate-adder model, arXiv 1606.01753):
//!
//! * **Interval ranges** ([`interpret`]): every IR node gets an exact
//!   rational interval `[lo, hi]` containing its settled value for all
//!   in-range inputs, by standard interval arithmetic over the exact
//!   semantics ([`Dfg::eval_exact`]).
//! * **Settled error forms** ([`interpret`]): every node also gets a
//!   bound `err` on |online settled value − exact value|. Online adds,
//!   subtracts and negates are exact on represented values, so errors
//!   propagate additively; each online multiplier contributes its local
//!   truncation bound `(3/2)·2^-(n+1)` (the Algorithm-1 residual bound
//!   with the hardware selection estimate), denormalized through the
//!   δ-composition shifts, plus the affine cross terms
//!   `max|a|·err(b) + max|b|·err(a) + err(a)·err(b)`. The per-output
//!   bound is the analytically-certified tolerance for "online ≡
//!   conventional at settled Ts" — exactly zero for multiplier-free
//!   graphs. Conventional elaboration is exact, so its forms carry
//!   `err = 0`.
//! * **Sampling bounds** ([`sampling_bounds`]): per (variant, Ts), a
//!   certified upper bound on the decoded sampled-vs-settled output
//!   error — the very quantity [`variant_error_curve`]'s judge measures.
//!   Per output port the bound is the *minimum* of two sound bounds:
//!   the flat per-wire STA bound `Σ_{arrival > Ts} w_k` (an output bit
//!   whose worst-case arrival meets the period provably equals its
//!   settled value — the [`certify`](ola_netlist::sta::certify()) theorem,
//!   at single-wire granularity), and the interval clamp `hi − lo` of
//!   the port's decodable range (any bit pattern decodes into the bus
//!   range, so no sampling accident can escape it). No simulation runs.
//!
//! Both halves are cross-checked in tests and in the `repro equiv`
//! experiment: sampling bounds must dominate every measured empirical
//! error point, settled forms must dominate the observed
//! online-vs-exact discrepancy, and the flat half must never exceed the
//! coarser per-digit certification bound.
//!
//! [`variant_error_curve`]: crate::explore::variant_error_curve

use crate::elab::{PortShape, Style, SynthesizedDatapath};
use crate::ir::{Dfg, NodeId, Op};
use ola_netlist::{analyze, DelayModel};
use ola_redundant::Q;

/// The abstract value of one IR node: an exact-semantics interval plus a
/// bound on the online settled-value deviation from exact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ValueForm {
    /// Lower bound of the node's exact settled value.
    pub lo: Q,
    /// Upper bound of the node's exact settled value.
    pub hi: Q,
    /// Bound on |online settled value − exact value| (0 when the style
    /// is exact, i.e. conventional, or the cone is multiplier-free).
    pub err: Q,
}

impl ValueForm {
    /// Largest absolute exact value the node can take.
    #[must_use]
    pub fn mag(&self) -> Q {
        qmax(self.lo.abs(), self.hi.abs())
    }
}

/// The result of abstractly interpreting a [`Dfg`].
#[derive(Clone, Debug)]
pub struct AbsintReport {
    style: Style,
    forms: Vec<ValueForm>,
    outputs: Vec<(String, NodeId)>,
}

impl AbsintReport {
    /// The style the interpretation modelled.
    #[must_use]
    pub fn style(&self) -> Style {
        self.style
    }

    /// The abstract form of node `id`.
    #[must_use]
    pub fn form(&self, id: NodeId) -> &ValueForm {
        &self.forms[id.index()]
    }

    /// Per-output settled-error bounds, in [`Dfg::outputs`] order: the
    /// certified tolerance within which the style's settled outputs match
    /// the exact semantics. Zero everywhere for conventional datapaths
    /// and for multiplier-free online datapaths.
    #[must_use]
    pub fn settled_error_bounds(&self) -> Vec<Q> {
        self.outputs.iter().map(|&(_, node)| self.forms[node.index()].err).collect()
    }

    /// True when every output is settled-exact (so "online ≡
    /// conventional at settled Ts" must hold *bit-for-value*, tolerance
    /// zero).
    #[must_use]
    pub fn settled_exact(&self) -> bool {
        self.outputs.iter().all(|&(_, node)| self.forms[node.index()].err.is_zero())
    }
}

/// Abstractly interprets `dfg` under `style`, producing interval ranges
/// and settled error forms for every node.
///
/// Input nodes range over their full representable window `[−R, R]`
/// (which coincides for the two styles: an online window of `d` digits
/// starting at `msd_pos = m` and the conventional `(d+1)`-bit port at
/// `frac = m + d − 1` both represent exactly `[−R, R]` with
/// `R = 2^{1−m} − 2^{1−m−d}`).
#[must_use]
pub fn interpret(dfg: &Dfg, style: Style) -> AbsintReport {
    let windows = dfg.online_windows();
    let mut forms: Vec<ValueForm> = Vec::with_capacity(dfg.len());
    for (id, op) in dfg.nodes() {
        let f = match *op {
            Op::Input { fmt, .. } => {
                let r = window_range(fmt.msd_pos, fmt.digits);
                ValueForm { lo: -r, hi: r, err: Q::ZERO }
            }
            Op::Const(c) => ValueForm { lo: c, hi: c, err: Q::ZERO },
            Op::Add(a, b) => {
                let (fa, fb) = (&forms[a.index()], &forms[b.index()]);
                ValueForm { lo: fa.lo + fb.lo, hi: fa.hi + fb.hi, err: fa.err + fb.err }
            }
            Op::Sub(a, b) => {
                let (fa, fb) = (&forms[a.index()], &forms[b.index()]);
                ValueForm { lo: fa.lo - fb.hi, hi: fa.hi - fb.lo, err: fa.err + fb.err }
            }
            Op::Neg(a) => {
                let fa = &forms[a.index()];
                ValueForm { lo: -fa.hi, hi: -fa.lo, err: fa.err }
            }
            Op::Mul(a, b) => {
                let (fa, fb) = (forms[a.index()], forms[b.index()]);
                let (lo, hi) = interval_mul(&fa, &fb);
                let err = match style {
                    Style::Conventional => Q::ZERO,
                    Style::Online => {
                        mul_affine_err(&fa, &fb)
                            + mul_truncation(windows[a.index()], windows[b.index()])
                    }
                };
                ValueForm { lo, hi, err }
            }
            Op::ConstMul(c, a) => {
                let fa = forms[a.index()];
                let fc = ValueForm { lo: c, hi: c, err: Q::ZERO };
                let (lo, hi) = interval_mul(&fc, &fa);
                let err = match style {
                    Style::Conventional => Q::ZERO,
                    Style::Online => {
                        let (sd, k) = crate::ir::const_sd(c);
                        mul_affine_err(&fc, &fa)
                            + mul_truncation((1 - k, sd.len()), windows[a.index()])
                    }
                };
                ValueForm { lo, hi, err }
            }
            Op::Mac(ref terms) => {
                // Fused accumulation never digitizes between terms: no
                // per-product truncation, only the operands' affine cross
                // terms, summed in accumulation order.
                let mut lo = Q::ZERO;
                let mut hi = Q::ZERO;
                let mut err = Q::ZERO;
                for &(a, b) in terms {
                    let (fa, fb) = (forms[a.index()], forms[b.index()]);
                    let (l, h) = interval_mul(&fa, &fb);
                    lo += l;
                    hi += h;
                    if let Style::Online = style {
                        err += mul_affine_err(&fa, &fb);
                    }
                }
                ValueForm { lo, hi, err }
            }
        };
        debug_assert!(f.lo <= f.hi, "interval inverted at node {}", id.index());
        debug_assert!(f.err >= Q::ZERO, "negative error bound at node {}", id.index());
        forms.push(f);
    }
    ola_core::obs::registry().counter("ola.verify.absint_runs").add(1);
    AbsintReport { style, forms, outputs: dfg.outputs().to_vec() }
}

/// `R = Σ_{i=0}^{d−1} 2^{−(m+i)}`: the magnitude bound of a signed-digit
/// window (and of the matching conventional port's sampled range).
fn window_range(msd_pos: i32, digits: usize) -> Q {
    let mut r = Q::ZERO;
    for i in 0..digits {
        r += pow2(-(msd_pos + i as i32));
    }
    r
}

/// `2^e` as an exact rational (either sign of `e`).
fn pow2(e: i32) -> Q {
    if e >= 0 {
        Q::ONE << e as u32
    } else {
        Q::pow2_neg((-e) as u32)
    }
}

fn qmax(a: Q, b: Q) -> Q {
    if a < b {
        b
    } else {
        a
    }
}

fn qmin(a: Q, b: Q) -> Q {
    if b < a {
        b
    } else {
        a
    }
}

/// Standard interval multiplication: extremes among the four corner
/// products.
fn interval_mul(a: &ValueForm, b: &ValueForm) -> (Q, Q) {
    let c = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
    let mut lo = c[0];
    let mut hi = c[0];
    for &x in &c[1..] {
        lo = qmin(lo, x);
        hi = qmax(hi, x);
    }
    (lo, hi)
}

/// Affine cross terms for a product of two inexact operands: with
/// `x̂ = x + e_x`, `ŷ = y + e_y`, `|x̂·ŷ − x·y| ≤ max|x|·E_y +
/// max|y|·E_x + E_x·E_y`.
fn mul_affine_err(a: &ValueForm, b: &ValueForm) -> Q {
    a.mag() * b.err + b.mag() * a.err + a.err * b.err
}

/// Local truncation bound of one online multiplier over operand windows
/// `(ma, la)` and `(mb, lb)`: the Algorithm-1 residual bound with the
/// hardware selection estimate is `|x·y − Z| ≤ (3/2)·2^{−(n+1)}` on
/// MSD-position-1 operands padded to `n = max(la, lb, 1)` digits;
/// denormalizing through the δ-composition shifts `sx = ma − 1`,
/// `sy = mb − 1` scales it by `2^{−(sx+sy)}` — i.e. `3·2^{−(n+2+sx+sy)}`.
fn mul_truncation(a: (i32, usize), b: (i32, usize)) -> Q {
    let (ma, la) = a;
    let (mb, lb) = b;
    let n = la.max(lb).max(1) as i32;
    let e = n + 2 + (ma - 1) + (mb - 1);
    Q::new(3, 0) * pow2(-e)
}

/// Certified sampling-error bounds for one synthesized datapath over a
/// `Ts` grid.
///
/// Produced by [`sampling_bounds`]; rows are grid points, columns output
/// ports.
#[derive(Clone, Debug)]
pub struct SamplingBounds {
    ts: Vec<u64>,
    /// `per_port[port][ts_index]`, exact.
    per_port: Vec<Vec<Q>>,
}

impl SamplingBounds {
    /// The `Ts` grid the bounds were computed against, in caller order.
    #[must_use]
    pub fn ts_grid(&self) -> &[u64] {
        &self.ts
    }

    /// The certified bound on the total decoded error
    /// `Σ_ports |sampled − settled|` at grid point `ts_index` — the
    /// quantity the explorer's empirical judge measures, so every
    /// measured error at this period must be `≤ total(ts_index)`.
    #[must_use]
    pub fn total(&self, ts_index: usize) -> Q {
        let mut t = Q::ZERO;
        for port in &self.per_port {
            t += port[ts_index];
        }
        t
    }

    /// [`SamplingBounds::total`] as `f64` (for comparison against the
    /// `f64` empirical curves; the conversion rounds once, at the end).
    #[must_use]
    pub fn total_f64(&self, ts_index: usize) -> f64 {
        self.total(ts_index).to_f64()
    }
}

/// Computes certified sampling-error bounds for `dp` against `ts_grid`
/// under worst-case structural arrivals of `delay` — no simulation.
///
/// Per port and period the bound is
/// `min(Σ_{output wires with arrival > Ts} weight, port range width)`:
/// the first term is the single-wire refinement of the per-digit
/// certification bound (sound because a wire that meets the period
/// provably carries its settled value), the second is sound because any
/// sampled bit pattern still decodes into the port's representable
/// range.
#[must_use]
pub fn sampling_bounds<M: DelayModel + ?Sized>(
    dp: &SynthesizedDatapath,
    delay: &M,
    ts_grid: &[u64],
) -> SamplingBounds {
    let report = analyze(&dp.netlist, delay);
    let mut per_port = Vec::with_capacity(dp.outputs.len());
    for port in &dp.outputs {
        // (arrival, weight) of every wire of this port.
        let wires: Vec<(u64, Q)> = match port.shape {
            PortShape::Online { msd_pos, digits } => {
                let p = dp.netlist.output(&format!("{}p", port.name));
                let n = dp.netlist.output(&format!("{}n", port.name));
                p.iter()
                    .chain(n)
                    .enumerate()
                    .map(|(i, &w)| (report.arrival(w), pow2(-(msd_pos + (i % digits) as i32))))
                    .collect()
            }
            PortShape::Tc { frac, .. } => dp
                .netlist
                .output(&port.name)
                .iter()
                .enumerate()
                .map(|(i, &w)| (report.arrival(w), pow2(i as i32 - frac)))
                .collect(),
        };
        let clamp = match port.shape {
            // Any online bit pattern decodes into [−R, R].
            PortShape::Online { msd_pos, digits } => window_range(msd_pos, digits) * Q::new(2, 0),
            // Any `w`-bit pattern decodes into [−2^{w−1}, 2^{w−1}−1]·ulp.
            PortShape::Tc { width, frac } => (pow2(width as i32) - Q::ONE) * pow2(-frac),
        };
        let bounds: Vec<Q> = ts_grid
            .iter()
            .map(|&ts| {
                let mut flat = Q::ZERO;
                for &(arrival, weight) in &wires {
                    if arrival > ts {
                        flat += weight;
                    }
                }
                qmin(flat, clamp)
            })
            .collect();
        per_port.push(bounds);
    }
    ola_core::obs::registry().counter("ola.verify.sampling_bounds").add(1);
    SamplingBounds { ts: ts_grid.to_vec(), per_port }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::elab::{elaborate, ElabOptions};
    use crate::explore::variant_error_curve;
    use crate::ir::InputFmt;
    use crate::parser::parse_dfg;
    use ola_core::SimBackend;
    use ola_netlist::sta::certify;
    use ola_netlist::{analyze, FpgaDelay};
    use ola_redundant::{BsVector, SdNumber};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn filter(digits: usize) -> Dfg {
        parse_dfg("y = a * 0.25 + b * 0.5 + c * 0.25", InputFmt { msd_pos: 1, digits })
            .expect("valid program")
    }

    #[test]
    fn add_only_graphs_are_settled_exact_in_both_styles() {
        let dfg = parse_dfg("y = a + b - c", InputFmt { msd_pos: 1, digits: 4 }).unwrap();
        for style in [Style::Online, Style::Conventional] {
            let rep = interpret(&dfg, style);
            assert!(rep.settled_exact(), "{style:?} adds are exact");
            assert_eq!(rep.settled_error_bounds(), vec![Q::ZERO]);
        }
    }

    #[test]
    fn conventional_is_always_settled_exact() {
        let rep = interpret(&filter(6), Style::Conventional);
        assert!(rep.settled_exact());
    }

    #[test]
    fn intervals_contain_every_exact_evaluation() {
        let digits = 4;
        let dfg = filter(digits);
        let rep = interpret(&dfg, Style::Online);
        let out = dfg.outputs()[0].1;
        let f = rep.form(out);
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let bound = (1i128 << digits) - 1;
        for _ in 0..200 {
            let ins: Vec<Q> =
                (0..3).map(|_| Q::new(rng.gen_range(-bound..=bound), digits as u32)).collect();
            let v = dfg.eval_exact(&ins)[0];
            assert!(f.lo <= v && v <= f.hi, "{v:?} outside [{:?}, {:?}]", f.lo, f.hi);
        }
    }

    #[test]
    fn settled_error_bound_dominates_the_online_reference() {
        // |eval_online − eval_exact| ≤ the affine settled bound, across
        // random in-range inputs and several widths.
        for digits in [3usize, 4, 6] {
            let dfg = filter(digits);
            let rep = interpret(&dfg, Style::Online);
            let bound = rep.settled_error_bounds()[0];
            let mut rng = ChaCha8Rng::seed_from_u64(97 + digits as u64);
            let m = (1i128 << digits) - 1;
            for _ in 0..100 {
                let qs: Vec<Q> =
                    (0..3).map(|_| Q::new(rng.gen_range(-m..=m), digits as u32)).collect();
                let bs: Vec<BsVector> = qs
                    .iter()
                    .map(|&q| BsVector::from_sd(&SdNumber::from_value(q, digits).unwrap()))
                    .collect();
                let exact = dfg.eval_exact(&qs)[0];
                let online = dfg.eval_online(&bs, 3)[0].value();
                let err = (online - exact).abs();
                assert!(
                    err <= bound,
                    "w={digits}: |{online:?} − {exact:?}| = {err:?} > bound {bound:?}"
                );
            }
        }
    }

    #[test]
    fn sampling_bounds_dominate_measured_error_curves() {
        let delay = FpgaDelay::default();
        for style in [Style::Online, Style::Conventional] {
            let dp = elaborate(&filter(4), &ElabOptions::new(style));
            let critical = analyze(&dp.netlist, &delay).critical_path();
            let ts_grid: Vec<u64> = (1..=8u64).map(|i| (critical * i).div_ceil(8)).collect();
            let bounds = sampling_bounds(&dp, &delay, &ts_grid);
            let (curve, _) =
                variant_error_curve(&dp, &delay, &ts_grid, 24, 0xAB5, SimBackend::Auto);
            for (k, &measured) in curve.mean_abs_error.iter().enumerate() {
                let b = bounds.total_f64(k);
                assert!(
                    measured <= b,
                    "{style:?} Ts={}: measured {measured} > certified {b}",
                    ts_grid[k]
                );
            }
            // At the critical path everything settles: the bound is 0.
            assert_eq!(bounds.total(ts_grid.len() - 1), Q::ZERO);
        }
    }

    #[test]
    fn flat_half_never_exceeds_the_per_digit_certification_bound() {
        let delay = FpgaDelay::default();
        let dp = elaborate(&filter(4), &ElabOptions::new(Style::Online));
        let critical = analyze(&dp.netlist, &delay).critical_path();
        let ts_grid: Vec<u64> = (1..=6u64).map(|i| (critical * i).div_ceil(6)).collect();
        let bounds = sampling_bounds(&dp, &delay, &ts_grid);

        // Per-digit certification: digit k of the (single) online output
        // bus weighs 2·2^{−(m+k)} (a redundant digit can swing its full
        // range).
        let groups = dp.output_digit_groups();
        let rep = certify(&dp.netlist, &delay, &groups, &ts_grid);
        let PortShape::Online { msd_pos, digits } = dp.outputs[0].shape else {
            panic!("online datapath has an online port");
        };
        let weights: Vec<f64> =
            (0..digits).map(|k| 2.0 * pow2(-(msd_pos + k as i32)).to_f64()).collect();
        for (k, &ts) in ts_grid.iter().enumerate() {
            let fine = bounds.total_f64(k);
            let coarse = rep.error_bound(k, &weights);
            assert!(
                fine <= coarse + 1e-12,
                "Ts={ts}: single-wire bound {fine} exceeds per-digit bound {coarse}"
            );
        }
    }

    fn mac_filter(digits: usize) -> Dfg {
        let mut dfg = Dfg::new();
        let fmt = InputFmt { msd_pos: 1, digits };
        let a = dfg.input("a", fmt);
        let b = dfg.input("b", fmt);
        let c = dfg.input("c", fmt);
        let q = dfg.constant(Q::new(1, 2));
        let h = dfg.constant(Q::new(1, 1));
        let y = dfg.mac(&[(a, q), (b, h), (c, q)]);
        dfg.mark_output("y", y);
        dfg
    }

    #[test]
    fn fused_mac_graphs_are_settled_exact_with_exact_operands() {
        // The fused accumulator never digitizes between terms, so a MAC
        // over exact operands carries err = 0 in *both* styles — unlike
        // the Mul/Add tree, which pays one truncation per product online.
        for style in [Style::Online, Style::Conventional] {
            let rep = interpret(&mac_filter(5), style);
            assert!(rep.settled_exact(), "{style:?}");
        }
        let tree = filter(5);
        assert!(!interpret(&tree, Style::Online).settled_exact(), "unfused tree truncates");
    }

    #[test]
    fn mac_intervals_contain_every_exact_evaluation() {
        let digits = 4;
        let dfg = mac_filter(digits);
        let rep = interpret(&dfg, Style::Online);
        let f = rep.form(dfg.outputs()[0].1);
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let bound = (1i128 << digits) - 1;
        for _ in 0..200 {
            let ins: Vec<Q> =
                (0..3).map(|_| Q::new(rng.gen_range(-bound..=bound), digits as u32)).collect();
            let v = dfg.eval_exact(&ins)[0];
            assert!(f.lo <= v && v <= f.hi, "{v:?} outside [{:?}, {:?}]", f.lo, f.hi);
        }
    }

    #[test]
    fn mac_sampling_bounds_dominate_measured_error_curves() {
        let delay = FpgaDelay::default();
        for style in [Style::Online, Style::Conventional] {
            let dp = elaborate(&mac_filter(4), &ElabOptions::new(style));
            let critical = analyze(&dp.netlist, &delay).critical_path();
            let ts_grid: Vec<u64> = (1..=8u64).map(|i| (critical * i).div_ceil(8)).collect();
            let bounds = sampling_bounds(&dp, &delay, &ts_grid);
            let (curve, _) =
                variant_error_curve(&dp, &delay, &ts_grid, 24, 0xAB6, SimBackend::Auto);
            for (k, &measured) in curve.mean_abs_error.iter().enumerate() {
                let b = bounds.total_f64(k);
                assert!(
                    measured <= b,
                    "{style:?} Ts={}: measured {measured} > certified {b}",
                    ts_grid[k]
                );
            }
            assert_eq!(bounds.total(ts_grid.len() - 1), Q::ZERO);
        }
    }

    #[test]
    fn mac_settled_error_bound_dominates_the_online_reference() {
        for digits in [3usize, 4, 6] {
            let dfg = mac_filter(digits);
            let rep = interpret(&dfg, Style::Online);
            let bound = rep.settled_error_bounds()[0];
            let mut rng = ChaCha8Rng::seed_from_u64(131 + digits as u64);
            let m = (1i128 << digits) - 1;
            for _ in 0..100 {
                let qs: Vec<Q> =
                    (0..3).map(|_| Q::new(rng.gen_range(-m..=m), digits as u32)).collect();
                let bs: Vec<BsVector> = qs
                    .iter()
                    .map(|&q| BsVector::from_sd(&SdNumber::from_value(q, digits).unwrap()))
                    .collect();
                let exact = dfg.eval_exact(&qs)[0];
                let online = dfg.eval_online(&bs, 3)[0].value();
                let err = (online - exact).abs();
                assert!(err <= bound, "w={digits}: err {err:?} > bound {bound:?}");
            }
        }
    }

    #[test]
    fn truncation_bound_matches_the_residual_theorem_shape() {
        // Canonical fractional operands (msd 1): τ = 3·2^{−(n+2)}.
        assert_eq!(mul_truncation((1, 4), (1, 4)), Q::new(3, 6));
        // Padding to the longer operand.
        assert_eq!(mul_truncation((1, 2), (1, 6)), Q::new(3, 8));
        // Denormalization shifts scale the bound.
        assert_eq!(mul_truncation((0, 4), (1, 4)), Q::new(3, 5));
        assert_eq!(mul_truncation((2, 4), (2, 4)), Q::new(3, 8));
    }

    #[test]
    fn window_range_is_the_geometric_sum() {
        // m=1, d=3: 1/2 + 1/4 + 1/8 = 7/8.
        assert_eq!(window_range(1, 3), Q::new(7, 3));
        // m=0, d=2: 1 + 1/2 = 3/2.
        assert_eq!(window_range(0, 2), Q::new(3, 1));
    }

    #[test]
    fn interpretation_is_deterministic() {
        let dfg = filter(5);
        let a = interpret(&dfg, Style::Online);
        let b = interpret(&dfg, Style::Online);
        assert_eq!(a.settled_error_bounds(), b.settled_error_bounds());
        for (id, _) in dfg.nodes() {
            assert_eq!(a.form(id), b.form(id));
        }
    }
}
