//! Little-endian two's-complement bit-vector gadgets over a [`Netlist`].
//!
//! Used for the short carry-propagate adders inside the online multiplier's
//! selection function and for the conventional baselines. All vectors are
//! LSB-first; the last bit is the sign.

use ola_netlist::cells::full_adder;
use ola_netlist::{NetId, Netlist};

/// Encodes the signed constant `k` as `width` bits.
///
/// # Panics
///
/// Panics if `k` does not fit `width` bits in two's complement.
pub fn encode_const(nl: &mut Netlist, k: i64, width: usize) -> Vec<NetId> {
    assert!((1..=63).contains(&width), "unsupported constant width {width}");
    assert!(
        k >= -(1 << (width - 1)) && k < (1 << (width - 1)),
        "constant {k} does not fit {width} bits"
    );
    (0..width).map(|i| nl.constant(k >> i & 1 == 1)).collect()
}

/// Sign-extends (or truncates) a vector to `width` bits.
pub fn sign_extend(nl: &mut Netlist, a: &[NetId], width: usize) -> Vec<NetId> {
    let sign = match a.last() {
        Some(&s) => s,
        None => nl.constant(false),
    };
    (0..width).map(|i| a.get(i).copied().unwrap_or(sign)).collect()
}

/// Ripple-carry addition of two equal-width vectors; returns
/// `(sum_bits, carry_out)`.
///
/// # Panics
///
/// Panics if the widths differ.
pub fn ripple_add(nl: &mut Netlist, a: &[NetId], b: &[NetId], cin: NetId) -> (Vec<NetId>, NetId) {
    assert_eq!(a.len(), b.len(), "ripple_add operand widths differ");
    let mut carry = cin;
    let mut sum = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        let (s, c) = full_adder(nl, x, y, carry);
        sum.push(s);
        carry = c;
    }
    (sum, carry)
}

/// Full-precision signed addition: result width `max(|a|, |b|) + 1`, never
/// wraps.
pub fn add_signed(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    let width = a.len().max(b.len()) + 1;
    let ax = sign_extend(nl, a, width);
    let bx = sign_extend(nl, b, width);
    let zero = nl.constant(false);
    ripple_add(nl, &ax, &bx, zero).0
}

/// Decodes a signed vector from simulated values (test/debug helper).
#[must_use]
pub fn decode_signed(bits: &[bool]) -> i64 {
    let mut v: i64 = 0;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            v |= 1 << i;
        }
    }
    if let Some(true) = bits.last() {
        v -= 1 << bits.len();
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_vec(nl: &Netlist, inputs: &[bool], bits: &[NetId]) -> i64 {
        let vals = nl.eval(inputs);
        decode_signed(&bits.iter().map(|b| vals[b.index()]).collect::<Vec<_>>())
    }

    #[test]
    fn constants_encode_correctly() {
        for k in -8i64..8 {
            let mut nl = Netlist::new();
            let bits = encode_const(&mut nl, k, 4);
            assert_eq!(eval_vec(&nl, &[], &bits), k, "k={k}");
        }
    }

    #[test]
    fn add_signed_is_exact_over_small_ranges() {
        for a in -4i64..4 {
            for b in -4i64..4 {
                let mut nl = Netlist::new();
                let av = nl.input_bus("a", 3);
                let bv = nl.input_bus("b", 3);
                let s = add_signed(&mut nl, &av, &bv);
                let mut inputs = Vec::new();
                for i in 0..3 {
                    inputs.push(a >> i & 1 == 1);
                }
                for i in 0..3 {
                    inputs.push(b >> i & 1 == 1);
                }
                assert_eq!(eval_vec(&nl, &inputs, &s), a + b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn sign_extension_preserves_value() {
        for a in -4i64..4 {
            let mut nl = Netlist::new();
            let av = nl.input_bus("a", 3);
            let wide = sign_extend(&mut nl, &av, 8);
            let inputs: Vec<bool> = (0..3).map(|i| a >> i & 1 == 1).collect();
            assert_eq!(eval_vec(&nl, &inputs, &wide), a);
        }
    }

    #[test]
    fn decode_signed_handles_negatives() {
        assert_eq!(decode_signed(&[true, false, false]), 1);
        assert_eq!(decode_signed(&[false, false, true]), -4);
        assert_eq!(decode_signed(&[true, true, true]), -1);
        assert_eq!(decode_signed(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_constant_panics() {
        let mut nl = Netlist::new();
        let _ = encode_const(&mut nl, 8, 4);
    }
}
