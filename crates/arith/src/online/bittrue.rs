//! Bit-true model of the digit-parallel (unrolled) online multiplier.
//!
//! [`om_stage`] reproduces, signal for signal, one stage of Figure 3(b):
//!
//! ```text
//!            x_{j+δ+1}   Y[j+1]      y_{j+δ+1}   X[j]
//!                 └─ SDVM ─┘              └─ SDVM ─┘
//!                     A                        B
//!                     └───── online adder ─────┘        (2 FA levels)
//!                                H = 2^-δ (A + B)
//!     P[j] ───────────── online adder ──────────┘        (2 FA levels)
//!                                W
//!                     ┌── selection (short CPA) ──→ z_j
//!                     └── P[j+1] = 2(W − z_j)     (top-digit recode + wires)
//! ```
//!
//! The stage splits at `H`. Everything above it (`stage_operand_term`) is
//! a function of the operands and `j` only; everything below it
//! (`stage_residual`) also reads `P[j]`. [`om_stage`] is the composition.
//!
//! All vectors are borrow-save ([`BsVector`]); the residual update is the
//! *top-digit recode*: only the digits covered by the selection estimate are
//! rewritten, the tail passes through as wires. This is what makes the
//! residual path two FA delays per stage — the `μ` of the paper's timing
//! model — and it is why residual chains propagate MSD→LSD.

use crate::online::{bs_add, estimate, select_exact, Selection, DELTA};
use ola_redundant::{BsVector, Digit, SdNumber, Q};

/// All signals produced by one multiplier stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageIo {
    /// The residual `W[j] = P[j] + H[j]` (borrow-save).
    pub w: BsVector,
    /// The next residual `P[j+1] = 2(W[j] − z_j)` (borrow-save).
    pub p_out: BsVector,
    /// The selected output digit `z_j`.
    pub z: Digit,
    /// True if the top-digit recode saturated (impossible for estimate
    /// granularities ≥ 3; possible in under-provisioned ablations).
    pub saturated: bool,
}

/// Granularity (fractional positions) used for the residual top-digit
/// recode under a policy. The recode must at least cover the provably
/// convergent estimate width.
fn recode_granularity(policy: Selection) -> i32 {
    match policy {
        Selection::Exact => 3,
        Selection::Estimate { frac_digits } => frac_digits,
    }
}

/// Evaluates stage `j ∈ −δ ..= n−1` of an `n`-digit unrolled multiplier.
///
/// `p_in` is the incoming residual `P[j]` (pass an empty vector for the
/// first stage). Operand digits beyond position `j+δ+1` are not examined —
/// exactly like the hardware's appending logic.
///
/// A stage has two halves, and this is their composition:
/// `stage_operand_term` builds `H[j]` from the operands alone, and
/// `stage_residual` adds the incoming residual, selects `z_j` and
/// recodes `P[j+1]`. A caller that evaluates the same stage against many
/// residuals (the stage-wave model) builds `H[j]` once and runs only the
/// second half.
#[must_use]
pub fn om_stage(x: &SdNumber, y: &SdNumber, j: i32, p_in: &BsVector, policy: Selection) -> StageIo {
    stage_residual(&stage_operand_term(x, y, j), p_in, policy)
}

/// The operand half of stage `j`: the appending logic, the two SDVMs and
/// the online adder that give `H[j] = 2^-δ (A + B)`. It depends on
/// `(x, y, j)` only, never on the residual.
#[must_use]
pub(crate) fn stage_operand_term(x: &SdNumber, y: &SdNumber, j: i32) -> BsVector {
    let delta = DELTA as i32;
    debug_assert!(j >= -delta && j < x.len() as i32);
    let idx = (j + delta + 1) as usize;
    let xd = x.digit(idx);
    let yd = y.digit(idx);

    // Online input windows (appending logic): Y[j+1] ends at digit j+δ+1,
    // X[j] one earlier. Digits beyond N are zero, so clamp the windows.
    let y_j1 = operand_window(y, idx);
    let x_j = operand_window(x, idx - 1);

    // SDVM: ±operand or zero, selected by the newly appended digit.
    let a = sdvm(xd, &y_j1);
    let b = sdvm(yd, &x_j);

    // H = 2^-δ (A + B); the online adder gives msd position 0, shifting by
    // δ moves it to position δ.
    bs_add(&a, &b).shifted(-delta)
}

/// The residual half of a stage: `W = P[j] + H[j]`, the selection of
/// `z_j`, and the top-digit recode `P[j+1] = 2(W − z_j)`. `h` is the
/// stage's [`stage_operand_term`].
#[must_use]
pub(crate) fn stage_residual(h: &BsVector, p_in: &BsVector, policy: Selection) -> StageIo {
    // W = P + H.
    let w = bs_add(p_in, h);

    // Selection.
    let t = recode_granularity(policy);
    let w_hat = estimate(&w, t);
    let z = match policy {
        Selection::Exact => select_exact(w.value()),
        Selection::Estimate { .. } => select_exact(w_hat),
    };

    // P[j+1] = 2(W − z): recode the estimate window, wire the tail through.
    let (p_out, saturated) = residual_update(&w, w_hat, z, t);
    debug_assert!(
        saturated || p_out.value() == (w.value() - z.weighted(0)) << 1,
        "residual update must be exact"
    );
    StageIo { w, p_out, z, saturated }
}

fn operand_window(v: &SdNumber, last_digit: usize) -> BsVector {
    let len = last_digit.min(v.len());
    let mut out = BsVector::zero(1, len);
    for i in 1..=len {
        out.set_digit(i as i32, v.digit(i));
    }
    out
}

/// Signed-digit vector multiple: `d · v` for `d ∈ {−1, 0, 1}` — muxes only.
#[must_use]
pub fn sdvm(d: Digit, v: &BsVector) -> BsVector {
    match d {
        Digit::Zero => BsVector::zero(v.msd_pos(), v.len()),
        Digit::One => v.clone(),
        Digit::NegOne => v.negated(),
    }
}

fn residual_update(w: &BsVector, w_hat: Q, z: Digit, t: i32) -> (BsVector, bool) {
    // E' = (Ŵ − z) · 2^t: the new top of the residual, in units of 2^-t.
    let e_prime = (w_hat - z.weighted(0))
        .scaled_to(t as u32)
        .expect("estimate is a multiple of 2^-t by construction");
    let max = (1i128 << t) - 1;
    let saturated = e_prime.abs() > max;
    let e = e_prime.clamp(-max, max);

    // P' spans positions 0 .. max(t, w.end − 1) − 1 … concretely:
    //  positions 0..=t−1   ← greedy recode of E'
    //  positions t..       ← W's positions t+1.. shifted up by one.
    let tail_end = (w.end_pos() - 1).max(t);
    let mut p = BsVector::zero(0, tail_end as usize);
    let mut rem = e; // remainder in units of 2^-t
    for pos in 0..t {
        let weight = 1i128 << (t - 1 - pos); // 2^{t-1-pos} units
        let d = if 2 * rem >= weight {
            Digit::One
        } else if 2 * rem <= -weight {
            Digit::NegOne
        } else {
            Digit::Zero
        };
        rem -= i128::from(d.value()) * weight;
        p.set_digit(pos, d);
    }
    debug_assert!(saturated || rem == 0, "recode must be exact when in range");
    let _ = rem;
    for pos in t..tail_end {
        let (bp, bn) = w.bits(pos + 1);
        p.set_bits(pos, bp, bn);
    }
    (p, saturated)
}

/// Signed-digit vector multiple at the *bit* level: mirrors
/// [`sdvm_gates`](crate::synth::sdvm_gates) per position —
/// `p_out = dp·vp ∨ dn·vn`, `n_out = dp·vn ∨ dn·vp`.
///
/// For canonical digits this agrees with [`sdvm`]; for the non-canonical
/// `(1, 1)` selector (value 0) it produces `p == n` planes rather than the
/// all-zero encoding, exactly like the hardware. Downstream estimates see
/// different digit patterns for the two encodings, so a reference model of
/// the *netlist* must use this form.
#[must_use]
pub fn sdvm_bits(dp: bool, dn: bool, v: &BsVector) -> BsVector {
    let mut out = BsVector::zero(v.msd_pos(), v.len());
    for i in 0..v.len() {
        let pos = v.msd_pos() + i as i32;
        let (vp, vn) = v.bits(pos);
        out.set_bits(pos, (dp && vp) || (dn && vn), (dp && vn) || (dn && vp));
    }
    out
}

/// The operand prefix window `positions 1..=k`, copied bit for bit
/// (appending logic: wires only).
fn window_bits(v: &BsVector, k: i32) -> BsVector {
    let len = k.max(0) as usize;
    let mut out = BsVector::zero(1, len);
    for pos in 1..=k {
        let (p, n) = v.bits(pos);
        out.set_bits(pos, p, n);
    }
    out
}

/// One stage of the unrolled multiplier, *bit-exact against the netlist*
/// for arbitrary borrow-save operand encodings (including non-canonical
/// `(1, 1)` digit pairs, which [`om_stage`]'s digit-valued operands cannot
/// express). Returns `(P[j+1], z_j)`.
///
/// Mirrors `online_multiplier_core` in `crate::synth`: the selection
/// integer `E = Ŵ·2^t` is accumulated from `W`'s *encoded* digit pairs,
/// the output digit uses thresholds `E ≥ 2^{t−1}` / `E < −2^{t−1}`, and
/// the top-digit recode uses `rem ≥ 2^{max(m−1,0)}` / `rem ≤ −2^{max(m−1,0)}`
/// — note the asymmetric strictness, copied from the gates.
#[must_use]
pub fn om_stage_bits(
    x: &BsVector,
    y: &BsVector,
    n: usize,
    j: i32,
    p_in: &BsVector,
    frac_digits: i32,
) -> (BsVector, Digit) {
    let delta = DELTA as i32;
    let t = frac_digits;
    debug_assert!(t >= 3 && j >= -delta && j < n as i32);
    let idx = j + delta + 1;
    let (xd_p, xd_n) = x.bits(idx);
    let (yd_p, yd_n) = y.bits(idx);

    // Appending logic: operand windows, then SDVM and the two online adders.
    let y_j1 = window_bits(y, idx.min(n as i32));
    let x_j = window_bits(x, (idx - 1).min(n as i32));
    let a = sdvm_bits(xd_p, xd_n, &y_j1);
    let b = sdvm_bits(yd_p, yd_n, &x_j);
    let h = bs_add(&a, &b).shifted(-delta);
    let w = bs_add(p_in, &h);

    // Selection: E = Ŵ·2^t from the *encoded* digits of W.
    let mut e: i128 = 0;
    for pos in w.msd_pos()..=t {
        let (p, n_) = w.bits(pos);
        e += (i128::from(p) - i128::from(n_)) << (t - pos) as u32;
    }
    let half = 1i128 << (t - 1) as u32;
    let z = Digit::from_bits(e >= half, e < -half);
    let mut rem = e - (i128::from(z.value()) << t as u32);

    // P[j+1] = 2(W − z): greedy top-digit recode + tail wires.
    let tail_end = (w.end_pos() - 1).max(t);
    let mut p = BsVector::zero(0, tail_end as usize);
    for pos in 0..t {
        let m = t - 1 - pos;
        let thr = 1i128 << m.max(1) as u32 >> 1; // 2^{max(m−1, 0)}
        let d = Digit::from_bits(rem >= thr, rem <= -thr);
        rem -= i128::from(d.value()) << m as u32;
        p.set_digit(pos, d);
    }
    for pos in t..tail_end {
        let (bp, bn) = w.bits(pos + 1);
        p.set_bits(pos, bp, bn);
    }
    (p, z)
}

/// Runs the full unrolled multiplier bit-true over *borrow-save* operands
/// (positions `1..=n`, any encoding). Bit-exact against the settled
/// outputs of the gate-level `online_multiplier_core` netlist — this is
/// the reference model `ola-synth` verifies elaborated datapaths against.
///
/// # Panics
///
/// Panics if the operands are empty, differ in window, do not start at
/// position 1, or if `frac_digits < 3`.
#[must_use]
pub fn bittrue_mult_bits(x: &BsVector, y: &BsVector, frac_digits: i32) -> Vec<Digit> {
    let n = x.len();
    assert_eq!(n, y.len(), "operands must have equal digit counts");
    assert!(n > 0, "operands must be non-empty");
    assert_eq!(x.msd_pos(), 1, "operands start at position 1");
    assert_eq!(y.msd_pos(), 1, "operands start at position 1");
    assert!(frac_digits >= 3, "selection estimate must cover ≥ 3 fractional digits");
    let delta = DELTA as i32;
    let mut p = BsVector::zero(0, 0);
    let mut digits = Vec::with_capacity(n + DELTA);
    for j in -delta..=(n as i32 - 1) {
        let (p_out, z) = om_stage_bits(x, y, n, j, &p, frac_digits);
        p = p_out;
        digits.push(z);
    }
    digits
}

/// Result of a bit-true digit-parallel multiplication.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitTrueProduct {
    /// Output digits `z_j`, `j = −δ ..= n−1`, MSD first.
    pub digits: Vec<Digit>,
    /// Final residual `P[N]` (borrow-save).
    pub residual: BsVector,
    /// Per-stage signals, first stage first.
    pub stages: Vec<StageIo>,
}

impl BitTrueProduct {
    /// The exact value `Z = Σ z_j 2^-(j+1)`.
    #[must_use]
    pub fn value(&self) -> Q {
        digits_value(&self.digits)
    }
}

/// Value of a `z_{−δ} .. z_{n−1}` digit vector (digit `z_j` has weight
/// `2^-(j+1)`; see [`online_mult`](crate::online::online_mult)).
#[must_use]
pub fn digits_value(digits: &[Digit]) -> Q {
    let mut acc = Q::ZERO;
    for (k, &d) in digits.iter().enumerate() {
        let w = k as i32 - DELTA as i32 + 1; // digit weight 2^-w
        acc += match w.cmp(&0) {
            std::cmp::Ordering::Less => d.weighted(0) << (-w) as u32,
            _ => d.weighted(w as u32),
        };
    }
    acc
}

/// Runs the full unrolled multiplier (all `n + δ` stages) bit-true.
///
/// # Panics
///
/// Panics if the operands differ in length or are empty.
#[must_use]
pub fn bittrue_mult(x: &SdNumber, y: &SdNumber, policy: Selection) -> BitTrueProduct {
    let n = x.len();
    assert_eq!(n, y.len(), "operands must have equal digit counts");
    assert!(n > 0, "operands must be non-empty");
    let delta = DELTA as i32;
    let mut p = BsVector::zero(0, 0);
    let mut digits = Vec::with_capacity(n + DELTA);
    let mut stages = Vec::with_capacity(n + DELTA);
    for j in -delta..=(n as i32 - 1) {
        let io = om_stage(x, y, j, &p, policy);
        p = io.p_out.clone();
        digits.push(io.z);
        stages.push(io);
    }
    BitTrueProduct { digits, residual: p, stages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_redundant::random;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check(x: &SdNumber, y: &SdNumber, policy: Selection, c_bound: Q) {
        let n = x.len();
        let prod = bittrue_mult(x, y, policy);
        let exact = x.value() * y.value();
        assert!(
            prod.stages.iter().all(|s| !s.saturated),
            "recode saturation at t≥3 must be impossible (x={x:?} y={y:?})"
        );
        // Residual bound |P[j]| ≤ c at every stage.
        for s in &prod.stages {
            assert!(
                s.p_out.value().abs() <= c_bound,
                "|P| = {} exceeds {:?} (x={x:?} y={y:?})",
                s.p_out.value(),
                c_bound
            );
            assert!(
                s.w.value().abs() <= c_bound + Q::new(1, 2),
                "|W| exceeds bound (x={x:?} y={y:?})"
            );
        }
        // Exact invariant: x·y − Z = 2^-(N+1) · P[N].
        assert_eq!(
            exact - prod.value(),
            prod.residual.value() >> (n as u32 + 1),
            "invariant broken (x={x:?} y={y:?})"
        );
    }

    #[test]
    fn exhaustive_three_digit_operands() {
        for n in 1..=3usize {
            let limit = (1i128 << n) - 1;
            for xv in -limit..=limit {
                for yv in -limit..=limit {
                    let x = SdNumber::from_value(Q::new(xv, n as u32), n).unwrap();
                    let y = SdNumber::from_value(Q::new(yv, n as u32), n).unwrap();
                    check(&x, &y, Selection::default(), Q::new(3, 1));
                    check(&x, &y, Selection::Exact, Q::new(3, 1));
                }
            }
        }
    }

    #[test]
    fn random_operands_all_widths() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for n in [4usize, 6, 8, 12, 16, 32] {
            for _ in 0..120 {
                let x = random::uniform_digits(&mut rng, n);
                let y = random::uniform_digits(&mut rng, n);
                check(&x, &y, Selection::default(), Q::new(3, 1));
            }
        }
    }

    #[test]
    fn random_noncanonical_encodings() {
        // Digit-uniform inputs exercise non-canonical encodings; also verify
        // against the golden recurrence *value* within the accuracy bound.
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        for _ in 0..300 {
            let x = random::uniform_digits(&mut rng, 8);
            let y = random::uniform_digits(&mut rng, 8);
            let bt = bittrue_mult(&x, &y, Selection::default());
            let exact = x.value() * y.value();
            let bound = Q::new(3, 1) >> 9;
            assert!((exact - bt.value()).abs() <= bound);
        }
    }

    #[test]
    fn wider_estimates_also_converge() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for t in [3u32, 4, 5, 8] {
            let policy = Selection::Estimate { frac_digits: t as i32 };
            for _ in 0..60 {
                let x = random::uniform_digits(&mut rng, 10);
                let y = random::uniform_digits(&mut rng, 10);
                check(&x, &y, policy, Q::new(3, 1));
            }
        }
    }

    #[test]
    fn sdvm_selects_plus_minus_zero() {
        let v = BsVector::from_sd(&SdNumber::from_value(Q::new(5, 3), 3).unwrap());
        assert_eq!(sdvm(Digit::One, &v).value(), v.value());
        assert_eq!(sdvm(Digit::NegOne, &v).value(), -v.value());
        assert_eq!(sdvm(Digit::Zero, &v).value(), Q::ZERO);
        assert_eq!(sdvm(Digit::Zero, &v).len(), v.len());
    }

    #[test]
    fn first_stage_accepts_empty_residual() {
        let x = SdNumber::from_value(Q::new(3, 3), 3).unwrap();
        let io = om_stage(&x, &x, -(DELTA as i32), &BsVector::zero(0, 0), Selection::default());
        assert_eq!(io.z, Digit::Zero, "first stage can never select ±1");
    }

    #[test]
    fn digits_value_weights_indices_correctly() {
        // z_{-3}..z_{1} = [0,0,0,1,-1]: value = 2^-1 - 2^-2 = 1/4.
        let digits = vec![Digit::Zero, Digit::Zero, Digit::Zero, Digit::One, Digit::NegOne];
        assert_eq!(digits_value(&digits), Q::new(1, 2));
    }

    /// Uniform random borrow-save bit pattern over positions `1..=n`,
    /// including the non-canonical `(1, 1)` encoding of zero.
    fn random_bs(rng: &mut ChaCha8Rng, n: usize) -> BsVector {
        use rand::Rng;
        let mut v = BsVector::zero(1, n);
        for pos in 1..=n as i32 {
            v.set_bits(pos, rng.gen(), rng.gen());
        }
        v
    }

    #[test]
    fn bits_model_matches_digit_model_on_canonical_operands() {
        // On canonical (SD-encoded) operands the two models see identical
        // digit patterns, so their outputs agree digit for digit.
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for n in [1usize, 2, 4, 7, 12] {
            for t in [3i32, 4, 6] {
                for _ in 0..40 {
                    let x = random::uniform_digits(&mut rng, n);
                    let y = random::uniform_digits(&mut rng, n);
                    let got = bittrue_mult_bits(&BsVector::from_sd(&x), &BsVector::from_sd(&y), t);
                    let want = bittrue_mult(&x, &y, Selection::Estimate { frac_digits: t });
                    assert_eq!(got, want.digits, "n={n} t={t} x={x:?} y={y:?}");
                }
            }
        }
    }

    #[test]
    fn bits_model_converges_on_noncanonical_encodings() {
        // (1, 1) pairs are zeros with a different encoding: the digit-level
        // model cannot express them, but the bit-level recurrence must still
        // converge to the product within the online accuracy bound.
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        for n in [2usize, 4, 8] {
            for _ in 0..150 {
                let x = random_bs(&mut rng, n);
                let y = random_bs(&mut rng, n);
                let z = digits_value(&bittrue_mult_bits(&x, &y, 3));
                let exact = x.value() * y.value();
                let bound = Q::new(3, 1) >> (n as u32 + 1);
                assert!((exact - z).abs() <= bound, "x={x:?} y={y:?} z={z:?} exact={exact:?}");
            }
        }
    }

    #[test]
    fn sdvm_bits_matches_digit_sdvm_on_canonical_selectors() {
        let v = BsVector::from_sd(&SdNumber::from_value(Q::new(5, 3), 3).unwrap());
        for d in [Digit::Zero, Digit::One, Digit::NegOne] {
            let (p, n) = d.to_bits();
            assert_eq!(sdvm_bits(p, n, &v), sdvm(d, &v), "digit {d:?}");
        }
        // The (1, 1) selector ors the planes together: value 0, p == n.
        let s = sdvm_bits(true, true, &v);
        assert_eq!(s.value(), Q::ZERO);
        for pos in 1..=3 {
            let (p, n) = s.bits(pos);
            assert_eq!(p, n, "pos {pos}");
        }
        let (vp, vn) = v.bits(1);
        let (sp, _) = s.bits(1);
        assert_eq!(sp, vp || vn);
    }

    #[test]
    fn residual_tail_passes_through_unchanged() {
        // A deep tail digit of W must appear, shifted, in P'.
        let mut w = BsVector::zero(-1, 10); // positions -1..=8
        w.set_digit(7, Digit::One);
        let (p, sat) = residual_update(&w, Q::ZERO, Digit::Zero, 3);
        assert!(!sat);
        assert_eq!(p.digit(6), Digit::One, "W pos 7 → P pos 6");
        assert_eq!(p.value(), w.value() << 1);
    }
}
