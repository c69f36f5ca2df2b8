//! Reusable cell constructors: adders' building blocks.

use crate::{NetId, Netlist};

/// Builds a full adder; returns `(sum, carry)`.
///
/// Structure: `sum = a ⊕ b ⊕ c`, `carry = ab + c(a ⊕ b)` — two XORs on the
/// sum path, which is the `μ`-defining cell delay of every datapath in this
/// workspace.
pub fn full_adder(nl: &mut Netlist, a: NetId, b: NetId, c: NetId) -> (NetId, NetId) {
    let axb = nl.xor(a, b);
    let sum = nl.xor(axb, c);
    let ab = nl.and(a, b);
    let c_axb = nl.and(c, axb);
    let carry = nl.or(ab, c_axb);
    (sum, carry)
}

/// A PPM ("plus-plus-minus") cell: computes `a + b − m = 2·carry − not_sum`
/// where `carry` is positively and `not_sum` negatively weighted.
///
/// Implemented as a full adder with the negative input and the sum output
/// complemented; this identity is what lets borrow-save adders avoid
/// correction constants. Returns `(carry_pos, sum_neg)`.
pub fn ppm_cell(nl: &mut Netlist, a: NetId, b: NetId, m: NetId) -> (NetId, NetId) {
    let mb = nl.not(m);
    let (s, c) = full_adder(nl, a, b, mb);
    let sn = nl.not(s);
    (c, sn)
}

/// An MMP ("minus-minus-plus") cell: computes `p − a − b = not_sum − 2·carry`
/// where `not_sum` is positively and `carry` negatively weighted.
/// Returns `(carry_neg, sum_pos)`.
pub fn mmp_cell(nl: &mut Netlist, p: NetId, a: NetId, b: NetId) -> (NetId, NetId) {
    let pb = nl.not(p);
    let (s, c) = full_adder(nl, a, b, pb);
    let sp = nl.not(s);
    (c, sp)
}

/// Balanced OR-tree: "any bit set". The empty tree is constant `false`.
pub fn or_tree(nl: &mut Netlist, bits: &[NetId]) -> NetId {
    match bits {
        [] => nl.constant(false),
        [only] => *only,
        _ => {
            let mut layer: Vec<NetId> = bits.to_vec();
            while layer.len() > 1 {
                layer = layer
                    .chunks(2)
                    .map(|c| if c.len() == 2 { nl.or(c[0], c[1]) } else { c[0] })
                    .collect();
            }
            layer[0]
        }
    }
}

/// Balanced AND-tree: "all bits set". The empty tree is constant `true`.
pub fn and_tree(nl: &mut Netlist, bits: &[NetId]) -> NetId {
    match bits {
        [] => nl.constant(true),
        [only] => *only,
        _ => {
            let mut layer: Vec<NetId> = bits.to_vec();
            while layer.len() > 1 {
                layer = layer
                    .chunks(2)
                    .map(|c| if c.len() == 2 { nl.and(c[0], c[1]) } else { c[0] })
                    .collect();
            }
            layer[0]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval3<F: Fn(&mut Netlist, NetId, NetId, NetId) -> (NetId, NetId)>(
        f: F,
        a: bool,
        b: bool,
        c: bool,
    ) -> (bool, bool) {
        let mut nl = Netlist::new();
        let ia = nl.input("a");
        let ib = nl.input("b");
        let ic = nl.input("c");
        let (x, y) = f(&mut nl, ia, ib, ic);
        let vals = nl.eval(&[a, b, c]);
        (vals[x.index()], vals[y.index()])
    }

    #[test]
    fn full_adder_truth_table() {
        for n in 0..8u8 {
            let (a, b, c) = (n & 1 == 1, n & 2 == 2, n & 4 == 4);
            let (s, cy) = eval3(full_adder, a, b, c);
            let total = u8::from(a) + u8::from(b) + u8::from(c);
            assert_eq!(u8::from(s) + 2 * u8::from(cy), total);
        }
    }

    #[test]
    fn ppm_identity_holds() {
        // a + b − m == 2·carry − not_sum for all inputs.
        for n in 0..8u8 {
            let (a, b, m) = (n & 1 == 1, n & 2 == 2, n & 4 == 4);
            let (carry, nsum) = eval3(ppm_cell, a, b, m);
            let lhs = i8::from(a) + i8::from(b) - i8::from(m);
            let rhs = 2 * i8::from(carry) - i8::from(nsum);
            assert_eq!(lhs, rhs, "a={a} b={b} m={m}");
        }
    }

    #[test]
    fn mmp_identity_holds() {
        // p − a − b == sum_pos − 2·carry_neg for all inputs.
        for n in 0..8u8 {
            let (p, a, b) = (n & 1 == 1, n & 2 == 2, n & 4 == 4);
            let (carry, psum) = eval3(mmp_cell, p, a, b);
            let lhs = i8::from(p) - i8::from(a) - i8::from(b);
            let rhs = i8::from(psum) - 2 * i8::from(carry);
            assert_eq!(lhs, rhs, "p={p} a={a} b={b}");
        }
    }

    #[test]
    fn or_tree_is_any() {
        for width in [0usize, 1, 2, 5, 8] {
            for pattern in 0..(1u32 << width) {
                let mut nl = Netlist::new();
                let xs = nl.input_bus("x", width);
                let z = or_tree(&mut nl, &xs);
                let inputs: Vec<bool> = (0..width).map(|i| pattern >> i & 1 == 1).collect();
                let vals = nl.eval(&inputs);
                assert_eq!(vals[z.index()], pattern != 0);
            }
        }
    }

    #[test]
    fn and_tree_is_all() {
        for width in [0usize, 1, 2, 5, 8] {
            for pattern in 0..(1u32 << width) {
                let mut nl = Netlist::new();
                let xs = nl.input_bus("x", width);
                let z = and_tree(&mut nl, &xs);
                let inputs: Vec<bool> = (0..width).map(|i| pattern >> i & 1 == 1).collect();
                let vals = nl.eval(&inputs);
                assert_eq!(vals[z.index()], pattern == (1u32 << width) - 1);
            }
        }
    }
}
