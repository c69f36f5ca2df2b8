//! Constant-coefficient multiply-accumulate (dot-product) datapaths —
//! "datapath synthesis" in the paper's title sense.
//!
//! Given fixed coefficients, each multiplier's coefficient operand is tied
//! to constants; the builder's constant folding then *specializes* the
//! hardware per tap (an SDVM against a zero digit vanishes, Baugh-Wooley
//! rows against zero bits vanish), exactly as a synthesis tool would. The
//! products feed an adder tree of the same arithmetic family:
//!
//! * [`online_mac`] — online multipliers + signed-digit adder tree
//!   (constant-depth accumulation, MSD-first end to end);
//! * [`traditional_mac`] — Baugh-Wooley arrays + ripple-carry adder tree
//!   (the conventional Core-Generator-style equivalent).

use crate::online::DELTA;
use crate::synth::bits::add_signed;
use crate::synth::bsnets::{bs_add_gates, BsSignals};
use crate::synth::conventional::array_multiplier_core;
use crate::synth::online::online_multiplier_core;
use ola_netlist::sta::prune_dead;
use ola_netlist::{NetId, Netlist};
use ola_redundant::{SdNumber, Q};

/// A synthesized online (signed-digit) constant-coefficient dot product.
#[derive(Clone, Debug)]
pub struct OnlineMacCircuit {
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

impl OnlineMacCircuit {
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

/// Synthesizes an online dot product `Σ c_k · x_k` with fixed coefficients.
///
/// # Panics
///
/// Panics if `coefficients` is empty, lengths differ, or
/// `frac_digits < 3`.
#[must_use]
pub fn online_mac(coefficients: &[SdNumber], frac_digits: i32) -> OnlineMacCircuit {
    assert!(!coefficients.is_empty(), "at least one tap");
    let n = coefficients[0].len();
    assert!(coefficients.iter().all(|c| c.len() == n), "equal coefficient widths");
    let mut nl = Netlist::new();

    let mut products = Vec::with_capacity(coefficients.len());
    for (k, coeff) in coefficients.iter().enumerate() {
        let xp = nl.input_bus(&format!("x{k}p"), n);
        let xn = nl.input_bus(&format!("x{k}n"), n);
        let x = BsSignals::from_nets(1, xp, xn);
        let c = BsSignals::constant(&mut nl, coeff);
        let (zp, zn) = online_multiplier_core(&mut nl, &x, &c, n, frac_digits);
        // Product digit k has weight 2^-(k-δ+1): MSD position 1−δ.
        products.push(BsSignals::from_nets(1 - DELTA as i32, zp, zn));
    }
    let mut level = products;
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    bs_add_gates(&mut nl, &pair[0], &pair[1])
                } else {
                    pair[0].clone()
                }
            })
            .collect();
    }
    let sum = level.pop().expect("non-empty");
    let sum_msd_pos = sum.msd_pos();
    let (p, nneg) = sum.flat_nets();
    nl.set_output("sump", p);
    nl.set_output("sumn", nneg);
    let nl = prune_dead(&nl);
    OnlineMacCircuit { netlist: nl, n, coefficients: coefficients.to_vec(), sum_msd_pos }
}

/// A synthesized conventional constant-coefficient dot product.
#[derive(Clone, Debug)]
pub struct TraditionalMacCircuit {
    /// Netlist. Inputs: per tap `k`, bus `x{k}` (LSB-first two's
    /// complement, `width` bits). Output: `sum` (LSB-first signed, at the
    /// adder tree's natural width — every bus position distinctly driven).
    pub netlist: Netlist,
    /// Operand bit width.
    pub width: usize,
    /// The raw coefficient values, in tap order.
    pub coefficients: Vec<i64>,
}

impl TraditionalMacCircuit {
    /// Encodes one raw operand per tap.
    ///
    /// # Panics
    ///
    /// Panics if the operand count mismatches or a value is out of range.
    #[must_use]
    pub fn encode_inputs(&self, xs: &[i64]) -> Vec<bool> {
        assert_eq!(xs.len(), self.coefficients.len(), "one operand per tap");
        let lim = 1i64 << (self.width - 1);
        let mut bits = Vec::with_capacity(self.width * xs.len());
        for &x in xs {
            assert!(x >= -lim && x < lim, "operand out of range");
            for i in 0..self.width {
                bits.push(x >> i & 1 == 1);
            }
        }
        bits
    }

    /// Decodes the sampled `sum` bus into a raw signed integer (scale
    /// `2^(2·(width−1))` relative to fraction semantics).
    #[must_use]
    pub fn decode_sum(&self, bits: &[bool]) -> i64 {
        crate::synth::bits::decode_signed(bits)
    }
}

/// Synthesizes a conventional dot product `Σ c_k · x_k` with fixed
/// coefficients.
///
/// # Panics
///
/// Panics if `coefficients` is empty, `width` unsupported, or a coefficient
/// does not fit `width` bits.
#[must_use]
pub fn traditional_mac(coefficients: &[i64], width: usize) -> TraditionalMacCircuit {
    assert!(!coefficients.is_empty(), "at least one tap");
    assert!(width > 0 && width <= 31, "unsupported width");
    let lim = 1i64 << (width - 1);
    let mut nl = Netlist::new();
    let mut products: Vec<Vec<NetId>> = Vec::with_capacity(coefficients.len());
    for (k, &c) in coefficients.iter().enumerate() {
        assert!(c >= -lim && c < lim, "coefficient out of range");
        let x = nl.input_bus(&format!("x{k}"), width);
        let cbits: Vec<NetId> = (0..width).map(|i| nl.constant(c >> i & 1 == 1)).collect();
        products.push(array_multiplier_core(&mut nl, &x, &cbits));
    }
    let mut level = products;
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    add_signed(&mut nl, &pair[0], &pair[1])
                } else {
                    pair[0].clone()
                }
            })
            .collect();
    }
    let mut sum = level.pop().expect("non-empty");
    // Cap the output at the normalized width, but never *extend*: the
    // adder tree's natural width already covers the full dot-product
    // range, and padding the port by repeating the sign net would leave
    // a bus position without a distinct driver (the exact defect
    // `LintIssue::OutputWidthMismatch` exists to catch). Decoding is
    // width-agnostic either way (`decode_signed` sign-extends).
    let out_w = 2 * width + coefficients.len().next_power_of_two().trailing_zeros() as usize + 1;
    sum.truncate(out_w);
    nl.set_output("sum", sum);
    let nl = prune_dead(&nl);
    TraditionalMacCircuit { netlist: nl, width, coefficients: coefficients.to_vec() }
}

/// Decodes sampled `p`/`n` digit planes, MSD first at weight position
/// `msd_pos`, into their exact value.
#[must_use]
pub fn decode_planes_value(msd_pos: i32, p: &[bool], n: &[bool]) -> Q {
    let mut v = ola_redundant::BsVector::zero(msd_pos, p.len());
    for (i, (&p, &n)) in p.iter().zip(n).enumerate() {
        v.set_bits(msd_pos + i as i32, p, n);
    }
    v.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{bittrue_mult, Selection};
    use crate::synth::{array_multiplier, online_multiplier};
    use ola_netlist::{analyze, UnitDelay};
    use ola_redundant::random;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn coeffs(n: usize) -> Vec<SdNumber> {
        [19i128, -45, 77]
            .iter()
            .map(|&v| SdNumber::from_value(Q::new(v, n as u32), n).expect("fits"))
            .collect()
    }

    #[test]
    fn online_mac_matches_sum_of_bittrue_products() {
        let n = 8;
        let cs = coeffs(n);
        let mac = online_mac(&cs, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..40 {
            let xs: Vec<SdNumber> = (0..3).map(|_| random::uniform_digits(&mut rng, n)).collect();
            let inputs = mac.encode_inputs(&xs);
            let vals = mac.netlist.eval(&inputs);
            let sump: Vec<bool> =
                mac.netlist.output("sump").iter().map(|b| vals[b.index()]).collect();
            let sumn: Vec<bool> =
                mac.netlist.output("sumn").iter().map(|b| vals[b.index()]).collect();
            let got = mac.decode_sum(&sump, &sumn);
            let want: Q = xs
                .iter()
                .zip(&cs)
                .map(|(x, c)| bittrue_mult(x, c, Selection::default()).value())
                .fold(Q::ZERO, |a, v| a + v);
            assert_eq!(got, want, "xs={xs:?}");
        }
    }

    #[test]
    fn traditional_mac_is_exact() {
        let w = 9;
        let cs = [19i64, -45, 77];
        let mac = traditional_mac(&cs, w);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..100 {
            let xs: Vec<i64> = (0..3).map(|_| rng.gen_range(-256..256)).collect();
            let inputs = mac.encode_inputs(&xs);
            let vals = mac.netlist.eval(&inputs);
            let bits: Vec<bool> =
                mac.netlist.output("sum").iter().map(|b| vals[b.index()]).collect();
            let want: i64 = xs.iter().zip(&cs).map(|(x, c)| x * c).sum();
            assert_eq!(mac.decode_sum(&bits), want, "xs={xs:?}");
        }
    }

    #[test]
    fn constant_folding_shrinks_the_datapath() {
        // A constant-coefficient multiplier must be smaller than the generic
        // one for both arithmetic families.
        let n = 8;
        let c = coeffs(n);
        let online = online_mac(&c[..1], 3);
        let generic = online_multiplier(n, 3);
        assert!(
            online.netlist.logic_gate_count() < generic.netlist.logic_gate_count(),
            "online: {} vs generic {}",
            online.netlist.logic_gate_count(),
            generic.netlist.logic_gate_count()
        );
        let trad = traditional_mac(&[77], 9);
        let generic_t = array_multiplier(9);
        assert!(
            trad.netlist.logic_gate_count() < generic_t.netlist.logic_gate_count(),
            "traditional: {} vs generic {}",
            trad.netlist.logic_gate_count(),
            generic_t.netlist.logic_gate_count()
        );
    }

    #[test]
    fn online_mac_critical_path_below_taps_times_multiplier() {
        // The tree adds only constant depth per level.
        let n = 8;
        let mac = online_mac(&coeffs(n), 3);
        let single = online_multiplier(n, 3);
        let mac_cp = analyze(&mac.netlist, &UnitDelay).critical_path();
        let single_cp = analyze(&single.netlist, &UnitDelay).critical_path();
        assert!(
            mac_cp < single_cp + 3000,
            "tree depth must be constant-ish: {mac_cp} vs {single_cp}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_mac_rejected() {
        let _ = online_mac(&[], 3);
    }
}
