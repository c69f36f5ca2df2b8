//! Gate-level fused online multiply-accumulate (inner product).
//!
//! Mirrors [`fused_mac_bits`](crate::online::fused_mac_bits) signal for
//! signal: per term the operands are normalized to msd position 1 (pure
//! wiring) and padded to a common digit count `n`, each digit pair
//! `(x_j, y_j)` drives two [`sdvm_gates`] muxes against the opposite
//! operand's prefix window, one [`bs_add_gates`] forms the row
//! `H_j = x_j·Y[j] + y_j·X[j−1]`, and every row of every term feeds one
//! balanced [`bs_add_gates`] reduction tree. Nothing in the datapath
//! digitizes: there is no selection CPA and no residual recode, so the
//! settled output is the *exact* borrow-save inner product and the
//! critical path is `⌈log2(rows)⌉ + 1` two-FA adder levels instead of the
//! unfused `n + δ` selection stages per product.

use crate::online::fused_mac_window;
use crate::synth::bsnets::{bs_add_gates, decode_planes_value, sdvm_gates, BsSignals};
use ola_netlist::sta::prune_dead;
use ola_netlist::{NetId, Netlist};
use ola_redundant::{SdNumber, Q};

/// Operand planes padded to positions `1..=n` (constant zeros where the
/// source window ends early).
fn pad_to(nl: &mut Netlist, v: &BsSignals, n: usize) -> (Vec<NetId>, Vec<NetId>) {
    let mut p = Vec::with_capacity(n);
    let mut nn = Vec::with_capacity(n);
    for pos in 1..=n as i32 {
        let (bp, bn) = v.bits(nl, pos);
        p.push(bp);
        nn.push(bn);
    }
    (p, nn)
}

/// Builds the fused online MAC datapath over borrow-save operand pairs
/// and returns the redundant accumulator bus. The output window obeys
/// [`fused_mac_window`](crate::online::fused_mac_window) — the
/// δ-composition-under-accumulation rule the `ola-synth` IR replays.
///
/// # Panics
///
/// Panics if `terms` is empty.
#[must_use]
pub fn fused_mac_gates(nl: &mut Netlist, terms: &[(BsSignals, BsSignals)]) -> BsSignals {
    assert!(!terms.is_empty(), "fused MAC needs at least one term");
    let mut rows = Vec::new();
    for (x, y) in terms {
        let sx = x.msd_pos() - 1;
        let sy = y.msd_pos() - 1;
        let n = x.len().max(y.len()).max(1);
        let (xp, xn) = pad_to(nl, &x.shifted(sx), n);
        let (yp, yn) = pad_to(nl, &y.shifted(sy), n);
        for j in 1..=n {
            let yw = BsSignals::from_nets(1, yp[..j].to_vec(), yn[..j].to_vec());
            let xw = BsSignals::from_nets(1, xp[..j - 1].to_vec(), xn[..j - 1].to_vec());
            let a = sdvm_gates(nl, xp[j - 1], xn[j - 1], &yw);
            let b = sdvm_gates(nl, yp[j - 1], yn[j - 1], &xw);
            rows.push(bs_add_gates(nl, &a, &b).shifted(-(j as i32 + sx + sy)));
        }
    }
    let mut level = rows;
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    bs_add_gates(nl, &pair[0], &pair[1])
                } else {
                    pair[0].clone()
                }
            })
            .collect();
    }
    let sum = level.pop().expect("non-empty");
    debug_assert_eq!(
        (sum.msd_pos(), sum.len()),
        fused_mac_window(
            &terms
                .iter()
                .map(|(x, y)| ((x.msd_pos(), x.len()), (y.msd_pos(), y.len())))
                .collect::<Vec<_>>()
        ),
        "gate-level window drifted from the accumulation rule"
    );
    sum
}

/// A synthesized *fused* online constant-coefficient dot product: one
/// redundant accumulator in place of a tree of online multipliers and
/// adders.
#[derive(Clone, Debug)]
pub struct FusedMacCircuit {
    /// Netlist. Inputs: per tap `k`, buses `x{k}p`, `x{k}n` (MSD first,
    /// `n` digits). Outputs: `sump`, `sumn` — the borrow-save sum digits.
    pub netlist: Netlist,
    /// Operand digit count `N`.
    pub n: usize,
    /// The coefficients, in tap order.
    pub coefficients: Vec<SdNumber>,
    /// Weight position of the sum's most significant digit.
    pub sum_msd_pos: i32,
}

impl FusedMacCircuit {
    /// Encodes one operand per tap as the simulator input vector.
    ///
    /// # Panics
    ///
    /// Panics if the operand count or any length mismatches.
    #[must_use]
    pub fn encode_inputs(&self, xs: &[SdNumber]) -> Vec<bool> {
        assert_eq!(xs.len(), self.coefficients.len(), "one operand per tap");
        let mut bits = Vec::with_capacity(2 * self.n * xs.len());
        for x in xs {
            assert_eq!(x.len(), self.n);
            for d in x {
                bits.push(d.to_bits().0);
            }
            for d in x {
                bits.push(d.to_bits().1);
            }
        }
        bits
    }

    /// Decodes sampled `sump`/`sumn` values into the exact sum value.
    #[must_use]
    pub fn decode_sum(&self, sump: &[bool], sumn: &[bool]) -> Q {
        decode_planes_value(self.sum_msd_pos, sump, sumn)
    }
}

/// Synthesizes a fused online dot product `Σ c_k · x_k` with fixed
/// coefficients. The accumulator never leaves redundant form, so the
/// settled sum is exact (no per-product online truncation) and no
/// selection-estimate parameter exists to pick.
///
/// # Panics
///
/// Panics if `coefficients` is empty or lengths differ.
#[must_use]
pub fn fused_online_mac(coefficients: &[SdNumber]) -> FusedMacCircuit {
    assert!(!coefficients.is_empty(), "at least one tap");
    let n = coefficients[0].len();
    assert!(coefficients.iter().all(|c| c.len() == n), "equal coefficient widths");
    let mut nl = Netlist::new();
    let mut terms = Vec::with_capacity(coefficients.len());
    for (k, coeff) in coefficients.iter().enumerate() {
        let xp = nl.input_bus(&format!("x{k}p"), n);
        let xn = nl.input_bus(&format!("x{k}n"), n);
        let x = BsSignals::from_nets(1, xp, xn);
        let c = BsSignals::constant(&mut nl, coeff);
        terms.push((x, c));
    }
    let sum = fused_mac_gates(&mut nl, &terms);
    let sum_msd_pos = sum.msd_pos();
    let (p, nneg) = sum.flat_nets();
    nl.set_output("sump", p);
    nl.set_output("sumn", nneg);
    let nl = prune_dead(&nl);
    FusedMacCircuit { netlist: nl, n, coefficients: coefficients.to_vec(), sum_msd_pos }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::online::fused_mac_bits;
    use ola_redundant::{random, BsVector};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn coeffs(n: usize) -> Vec<SdNumber> {
        [5i128, -3, 7]
            .iter()
            .map(|&v| SdNumber::from_value(Q::new(v, n as u32), n).expect("fits"))
            .collect()
    }

    fn settled_sum(mac: &FusedMacCircuit, xs: &[SdNumber]) -> Q {
        let inputs = mac.encode_inputs(xs);
        let vals = mac.netlist.eval(&inputs);
        let sump: Vec<bool> = mac.netlist.output("sump").iter().map(|b| vals[b.index()]).collect();
        let sumn: Vec<bool> = mac.netlist.output("sumn").iter().map(|b| vals[b.index()]).collect();
        mac.decode_sum(&sump, &sumn)
    }

    #[test]
    fn fused_mac_is_exact_at_settlement() {
        let n = 8;
        let cs = coeffs(n);
        let mac = fused_online_mac(&cs);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..60 {
            let xs: Vec<SdNumber> = (0..3).map(|_| random::uniform_digits(&mut rng, n)).collect();
            let want: Q =
                xs.iter().zip(&cs).map(|(x, c)| x.value() * c.value()).fold(Q::ZERO, |a, v| a + v);
            assert_eq!(settled_sum(&mac, &xs), want, "xs={xs:?}");
        }
    }

    #[test]
    fn netlist_matches_the_bit_true_model_digit_for_digit() {
        let n = 6;
        let cs = coeffs(n);
        let mac = fused_online_mac(&cs);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..40 {
            let xs: Vec<SdNumber> = (0..3).map(|_| random::uniform_digits(&mut rng, n)).collect();
            let inputs = mac.encode_inputs(&xs);
            let vals = mac.netlist.eval(&inputs);
            let sump: Vec<bool> =
                mac.netlist.output("sump").iter().map(|b| vals[b.index()]).collect();
            let sumn: Vec<bool> =
                mac.netlist.output("sumn").iter().map(|b| vals[b.index()]).collect();
            let terms: Vec<(BsVector, BsVector)> = xs
                .iter()
                .zip(&cs)
                .map(|(x, c)| (BsVector::from_sd(x), BsVector::from_sd(c)))
                .collect();
            let want = fused_mac_bits(&terms);
            assert_eq!(mac.sum_msd_pos, want.msd_pos());
            assert_eq!(sump.len(), want.len());
            for (i, (&p, &n_)) in sump.iter().zip(&sumn).enumerate() {
                let pos = want.msd_pos() + i as i32;
                assert_eq!((p, n_), want.bits(pos), "pos {pos} xs={xs:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_fused_mac_rejected() {
        let _ = fused_online_mac(&[]);
    }
}
