//! Netlist generators for the online operators.
//!
//! [`online_multiplier`] synthesizes Algorithm 1 into the digit-parallel
//! structure of Figure 3, stage by stage, gate for gate matching the
//! bit-true model in [`crate::online`]. The settled netlist output equals
//! [`bittrue_mult`](crate::online::bittrue_mult)'s digits exactly — the
//! equivalence tests below are the proof that the "hardware" and the model
//! compute the same function.

use crate::online::DELTA;
use crate::synth::bits::{add_signed, ripple_add, sign_extend};
use crate::synth::bsnets::{bs_add_gates, sdvm_gates, BsSignals};
use ola_netlist::cells::{and_tree, or_tree};
use ola_netlist::sta::prune_dead;
use ola_netlist::{NetId, Netlist};
use ola_redundant::SdNumber;

/// A synthesized digit-parallel online adder with its I/O bookkeeping.
#[derive(Clone, Debug)]
pub struct OnlineAdderCircuit {
    /// The netlist. Inputs: `xp, xn, yp, yn` (MSD-first, `n` bits each).
    /// Outputs: buses `zp`, `zn` (`n + 1` digits, MSD first, MSD at weight
    /// `2^0`).
    pub netlist: Netlist,
    /// Operand digit count.
    pub n: usize,
}

/// Synthesizes the `n`-digit radix-2 unrolled online adder (Figure 2).
#[must_use]
pub fn online_adder(n: usize) -> OnlineAdderCircuit {
    assert!(n > 0, "adder width must be positive");
    let mut nl = Netlist::new();
    let xp = nl.input_bus("xp", n);
    let xn = nl.input_bus("xn", n);
    let yp = nl.input_bus("yp", n);
    let yn = nl.input_bus("yn", n);
    let x = BsSignals::from_nets(1, xp, xn);
    let y = BsSignals::from_nets(1, yp, yn);
    let z = bs_add_gates(&mut nl, &x, &y);
    let (p, nneg) = z.flat_nets();
    nl.set_output("zp", p);
    nl.set_output("zn", nneg);
    let nl = prune_dead(&nl);
    OnlineAdderCircuit { netlist: nl, n }
}

/// A synthesized digit-parallel online multiplier.
#[derive(Clone, Debug)]
pub struct OnlineMultiplierCircuit {
    /// The netlist. Inputs: `xp, xn, yp, yn` (MSD-first, `n` bits each).
    /// Outputs: buses `zp`, `zn` — the `n + δ` result digits
    /// `z_{−δ} ..= z_{n−1}`, MSD first.
    pub netlist: Netlist,
    /// Operand digit count `N`.
    pub n: usize,
    /// Selection-estimate granularity (fractional positions).
    pub frac_digits: i32,
}

impl OnlineMultiplierCircuit {
    /// Encodes a pair of operands as the simulator input vector.
    ///
    /// # Panics
    ///
    /// Panics if an operand length differs from `n`.
    #[must_use]
    pub fn encode_inputs(&self, x: &SdNumber, y: &SdNumber) -> Vec<bool> {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        let mut bits = Vec::with_capacity(4 * self.n);
        for op in [x, y] {
            for d in op {
                bits.push(d.to_bits().0);
            }
        }
        // Input bus order is xp, xn, yp, yn — regroup.
        let mut out = Vec::with_capacity(4 * self.n);
        let (xp, yp) = bits.split_at(self.n);
        out.extend_from_slice(xp);
        out.extend(x.iter().map(|d| d.to_bits().1));
        out.extend_from_slice(yp);
        out.extend(y.iter().map(|d| d.to_bits().1));
        out
    }
}

/// Synthesizes the `n`-digit unrolled online multiplier with a selection
/// estimate of `frac_digits` fractional positions.
///
/// # Panics
///
/// Panics if `n == 0` or `frac_digits < 3` (the recurrence does not
/// converge with a narrower estimate; see [`crate::online::Selection`]).
#[must_use]
pub fn online_multiplier(n: usize, frac_digits: i32) -> OnlineMultiplierCircuit {
    assert!(n > 0, "multiplier width must be positive");
    let mut nl = Netlist::new();
    let xp = nl.input_bus("xp", n);
    let xn = nl.input_bus("xn", n);
    let yp = nl.input_bus("yp", n);
    let yn = nl.input_bus("yn", n);
    let x = BsSignals::from_nets(1, xp, xn);
    let y = BsSignals::from_nets(1, yp, yn);
    let (zp_out, zn_out) = online_multiplier_core(&mut nl, &x, &y, n, frac_digits);
    nl.set_output("zp", zp_out);
    nl.set_output("zn", zn_out);
    // The unrolled recurrence leaves dead logic behind (the last stage's
    // residual update is never read): prune it so the shipped circuit is
    // lint-clean and simulation does no unobservable work.
    let nl = prune_dead(&nl);
    OnlineMultiplierCircuit { netlist: nl, n, frac_digits }
}

/// Emits the unrolled multiplier datapath for arbitrary operand signals
/// (inputs, constants, or internal nets); returns the result digit planes
/// `z_{−δ} ..= z_{n−1}` (MSD first; digit `z_j` has weight `2^{−(j+1)}`).
/// Operands must occupy positions `1..=n`. Used by [`online_multiplier`]
/// and the `ola-synth` elaborator.
///
/// The settled outputs are bit-exact against
/// [`bittrue_mult_bits`](crate::online::bittrue_mult_bits) for *any*
/// borrow-save operand encoding, canonical or not.
///
/// # Panics
///
/// Panics if `frac_digits < 3`.
pub fn online_multiplier_core(
    nl: &mut Netlist,
    x: &BsSignals,
    y: &BsSignals,
    n: usize,
    frac_digits: i32,
) -> (Vec<NetId>, Vec<NetId>) {
    assert!(frac_digits >= 3, "selection estimate must cover ≥ 3 fractional digits");
    let t = frac_digits;
    let delta = DELTA as i32;
    let mut p_res = BsSignals::zero(nl, 0, 0);
    let mut zp_out = Vec::with_capacity(n + DELTA);
    let mut zn_out = Vec::with_capacity(n + DELTA);

    for j in -delta..=(n as i32 - 1) {
        let idx = j + delta + 1; // index of the digit appended this stage
        let (xd_p, xd_n) = x.bits(nl, idx);
        let (yd_p, yd_n) = y.bits(nl, idx);

        // Appending logic: operand windows (wires only).
        let y_j1 = window(nl, y, idx.min(n as i32));
        let x_j = window(nl, x, (idx - 1).min(n as i32));

        // SDVM + online adder → H = 2^-δ (A + B).
        let a = sdvm_gates(nl, xd_p, xd_n, &y_j1);
        let b = sdvm_gates(nl, yd_p, yd_n, &x_j);
        let h = bs_add_gates(nl, &a, &b).shifted(-delta);

        // W = P + H.
        let w = bs_add_gates(nl, &p_res, &h);

        // Selection: E = Ŵ · 2^t. The estimate digits sit at distinct
        // powers of two, so E is a single borrow subtraction of two *wired*
        // bit vectors — the short selection CPA of the paper.
        let e = accumulate_estimate(nl, &w, t);
        let zp = ge_pow2(nl, &e, (t - 1) as usize);
        let zn = lt_neg_pow2(nl, &e, (t - 1) as usize);
        zp_out.push(zp);
        zn_out.push(zn);

        // E' = E − 2^t·z: subtract the selected digit directly (−z is the
        // swapped digit pair) — one short adder, no speculative variants.
        let mut rem = sub_digit_multiple(nl, &e, zp, zn, t);
        let w_bits = t as usize + 2; // |values| ≤ 2^t − 1 throughout
        rem = sign_extend(nl, &rem, w_bits);

        let tail_end = (w.end_pos() - 1).max(t);
        let mut pp = Vec::with_capacity(tail_end as usize);
        let mut pn = Vec::with_capacity(tail_end as usize);
        for pos in 0..t {
            let m = (t - 1 - pos).max(0) as usize; // digit weight 2^m
            let k = m.saturating_sub(1); // threshold 2^(m-1), or 1 when m = 0
            let dp = ge_pow2(nl, &rem, k);
            let dn = le_neg_pow2(nl, &rem, k);
            pp.push(dp);
            pn.push(dn);
            rem = sub_digit_multiple(nl, &rem, dp, dn, t - 1 - pos);
            rem = sign_extend(nl, &rem, w_bits);
        }
        // Tail: wires from W (shifted up by one position).
        for pos in t..tail_end {
            let (wp, wn) = w.bits(nl, pos + 1);
            pp.push(wp);
            pn.push(wn);
        }
        p_res = BsSignals::from_nets(0, pp, pn);
    }

    (zp_out, zn_out)
}

/// The operand prefix window `positions 1..=k` (appending logic: wires).
fn window(nl: &mut Netlist, v: &BsSignals, k: i32) -> BsSignals {
    let len = k.max(0) as usize;
    let mut p = Vec::with_capacity(len);
    let mut n = Vec::with_capacity(len);
    for pos in 1..=k {
        let (bp, bn) = v.bits(nl, pos);
        p.push(bp);
        n.push(bn);
    }
    BsSignals::from_nets(1, p, n)
}

/// Computes `E = Ŵ·2^t = Σ_{pos ≤ t} digit(pos)·2^{t−pos}`. The digit
/// weights are distinct powers of two, so the positive and negative bit
/// planes need no summation — `E = P − N` is one two's-complement
/// subtraction of two wired vectors.
fn accumulate_estimate(nl: &mut Netlist, w: &BsSignals, t: i32) -> Vec<NetId> {
    let zero = nl.constant(false);
    let one = nl.constant(true);
    let width = (t - w.msd_pos() + 2).max(2) as usize;
    let mut pbits = vec![zero; width];
    let mut nbits = vec![zero; width];
    for pos in w.msd_pos()..=t {
        let (p, n) = w.bits(nl, pos);
        let k = (t - pos) as usize;
        pbits[k] = p;
        nbits[k] = n;
    }
    // E = P + ¬N + 1; |E| < 2^(width−1), so the two's-complement result is
    // exact with no overflow.
    let ninv: Vec<NetId> = nbits.iter().map(|&b| nl.not(b)).collect();
    ripple_add(nl, &pbits, &ninv, one).0
}

/// `E ≥ 2^k` for an LSB-first two's-complement vector: non-negative and any
/// bit at or above `k` set.
fn ge_pow2(nl: &mut Netlist, e: &[NetId], k: usize) -> NetId {
    let sign = *e.last().expect("non-empty");
    let hi = or_tree(nl, &e[k..e.len() - 1]);
    let nsign = nl.not(sign);
    nl.and(nsign, hi)
}

/// `E < −2^k`: negative and not all bits `k..` set (the all-ones suffix is
/// exactly the range `[−2^k, −1]`).
fn lt_neg_pow2(nl: &mut Netlist, e: &[NetId], k: usize) -> NetId {
    let sign = *e.last().expect("non-empty");
    let hi = and_tree(nl, &e[k..e.len() - 1]);
    let nhi = nl.not(hi);
    nl.and(sign, nhi)
}

/// `E ≤ −2^k`: strictly below, or exactly `−2^k` (all high bits set, all
/// low bits clear).
fn le_neg_pow2(nl: &mut Netlist, e: &[NetId], k: usize) -> NetId {
    let sign = *e.last().expect("non-empty");
    let hi = and_tree(nl, &e[k..e.len() - 1]);
    let nhi = nl.not(hi);
    let lo = or_tree(nl, &e[..k]);
    let nlo = nl.not(lo);
    let eq_or_lt = nl.or(nhi, nlo);
    nl.and(sign, eq_or_lt)
}

/// `a − d·2^shift` for a signed-digit `d` given as its `(p, n)` bit pair:
/// `−d` is the swapped pair, encoded as a 2-bit signed addend.
fn sub_digit_multiple(
    nl: &mut Netlist,
    a: &[NetId],
    dp: NetId,
    dn: NetId,
    shift: i32,
) -> Vec<NetId> {
    let zero = nl.constant(false);
    // −d = (n − p): low bit p ⊕ n, sign bit p ∧ ¬n.
    let low = nl.xor(dp, dn);
    let notn = nl.not(dn);
    let sign = nl.and(dp, notn);
    let mut addend = vec![zero; shift.max(0) as usize];
    addend.push(low);
    addend.push(sign);
    add_signed(nl, a, &addend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{bittrue_mult, bs_add, Selection};
    use ola_netlist::{analyze, simulate_from_zero, UnitDelay};
    use ola_redundant::{random, BsVector, Digit, Q};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn adder_netlist_matches_behavioral() {
        let circuit = online_adder(4);
        let nl = &circuit.netlist;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..200 {
            let x = random::uniform_digits(&mut rng, 4);
            let y = random::uniform_digits(&mut rng, 4);
            let mut inputs: Vec<bool> = Vec::new();
            inputs.extend(x.iter().map(|d| d.to_bits().0));
            inputs.extend(x.iter().map(|d| d.to_bits().1));
            inputs.extend(y.iter().map(|d| d.to_bits().0));
            inputs.extend(y.iter().map(|d| d.to_bits().1));
            let vals = nl.eval(&inputs);
            let zp = nl.output("zp");
            let zn = nl.output("zn");
            let mut got = BsVector::zero(0, zp.len());
            for i in 0..zp.len() {
                got.set_bits(i as i32, vals[zp[i].index()], vals[zn[i].index()]);
            }
            let want = bs_add(&BsVector::from_sd(&x), &BsVector::from_sd(&y));
            assert_eq!(got.value(), want.value(), "x={x:?} y={y:?}");
        }
    }

    #[test]
    fn adder_critical_path_is_constant_in_width() {
        let d4 = analyze(&online_adder(4).netlist, &UnitDelay).critical_path();
        let d16 = analyze(&online_adder(16).netlist, &UnitDelay).critical_path();
        let d64 = analyze(&online_adder(64).netlist, &UnitDelay).critical_path();
        assert_eq!(d4, d16, "online adder delay must not grow with width");
        assert_eq!(d16, d64);
    }

    #[test]
    fn multiplier_netlist_matches_bittrue_exhaustively_small() {
        let n = 2;
        let circuit = online_multiplier(n, 3);
        let limit = (1i128 << n) - 1;
        for xv in -limit..=limit {
            for yv in -limit..=limit {
                let x = SdNumber::from_value(Q::new(xv, n as u32), n).unwrap();
                let y = SdNumber::from_value(Q::new(yv, n as u32), n).unwrap();
                check_equivalence(&circuit, &x, &y);
            }
        }
    }

    #[test]
    fn multiplier_netlist_matches_bittrue_random() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in [4usize, 8] {
            let circuit = online_multiplier(n, 3);
            for _ in 0..60 {
                let x = random::uniform_digits(&mut rng, n);
                let y = random::uniform_digits(&mut rng, n);
                check_equivalence(&circuit, &x, &y);
            }
        }
    }

    /// Decodes sampled `zp`/`zn` bus values into result digits.
    fn decode(zp: &[bool], zn: &[bool]) -> Vec<Digit> {
        zp.iter().zip(zn).map(|(&p, &n)| Digit::from_bits(p, n)).collect()
    }

    fn check_equivalence(circuit: &OnlineMultiplierCircuit, x: &SdNumber, y: &SdNumber) {
        let inputs = circuit.encode_inputs(x, y);
        let vals = circuit.netlist.eval(&inputs);
        let zp: Vec<bool> = circuit.netlist.output("zp").iter().map(|b| vals[b.index()]).collect();
        let zn: Vec<bool> = circuit.netlist.output("zn").iter().map(|b| vals[b.index()]).collect();
        let got = decode(&zp, &zn);
        let want = bittrue_mult(x, y, Selection::Estimate { frac_digits: circuit.frac_digits });
        assert_eq!(got, want.digits, "x={x:?} y={y:?}");
    }

    #[test]
    fn multiplier_settled_timing_simulation_agrees() {
        // Event-driven simulation must settle to the functional values.
        let circuit = online_multiplier(6, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..10 {
            let x = random::uniform_digits(&mut rng, 6);
            let y = random::uniform_digits(&mut rng, 6);
            let inputs = circuit.encode_inputs(&x, &y);
            let res = simulate_from_zero(&circuit.netlist, &UnitDelay, &inputs);
            let zp: Vec<bool> =
                circuit.netlist.output("zp").iter().map(|&b| res.final_value(b)).collect();
            let zn: Vec<bool> =
                circuit.netlist.output("zn").iter().map(|&b| res.final_value(b)).collect();
            let got = decode(&zp, &zn);
            let want = bittrue_mult(&x, &y, Selection::default());
            assert_eq!(got, want.digits);
        }
    }

    #[test]
    fn multiplier_core_matches_bits_model_on_arbitrary_encodings() {
        // Feed the raw digit planes: every (p, n) combination, including
        // the non-canonical (1, 1) zero, must match the bit-level reference
        // model digit for digit. This is the contract ola-synth relies on.
        use crate::online::bittrue_mult_bits;
        use rand::Rng;
        for n in [2usize, 5] {
            let mut nl = Netlist::new();
            let xp = nl.input_bus("xp", n);
            let xn = nl.input_bus("xn", n);
            let yp = nl.input_bus("yp", n);
            let yn = nl.input_bus("yn", n);
            let x = BsSignals::from_nets(1, xp, xn);
            let y = BsSignals::from_nets(1, yp, yn);
            let (zp, zn) = online_multiplier_core(&mut nl, &x, &y, n, 3);
            nl.set_output("zp", zp);
            nl.set_output("zn", zn);
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            for _ in 0..120 {
                let inputs: Vec<bool> = (0..4 * n).map(|_| rng.gen()).collect();
                let mut xv = BsVector::zero(1, n);
                let mut yv = BsVector::zero(1, n);
                for i in 0..n {
                    xv.set_bits(1 + i as i32, inputs[i], inputs[n + i]);
                    yv.set_bits(1 + i as i32, inputs[2 * n + i], inputs[3 * n + i]);
                }
                let vals = nl.eval(&inputs);
                let got: Vec<Digit> = nl
                    .output("zp")
                    .iter()
                    .zip(nl.output("zn"))
                    .map(|(&p, &m)| Digit::from_bits(vals[p.index()], vals[m.index()]))
                    .collect();
                let want = bittrue_mult_bits(&xv, &yv, 3);
                assert_eq!(got, want, "n={n} x={xv:?} y={yv:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "≥ 3 fractional digits")]
    fn narrow_estimate_is_rejected() {
        let _ = online_multiplier(8, 2);
    }
}
