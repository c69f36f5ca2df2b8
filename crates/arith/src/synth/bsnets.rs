//! Borrow-save signal bundles: [`BsVector`](ola_redundant::BsVector) with
//! nets instead of bits, plus the gate-level online adder and SDVM.

use ola_netlist::cells::{mmp_cell, ppm_cell};
use ola_netlist::{NetId, Netlist};
use ola_redundant::{BsVector, Q};

/// A borrow-save bus: one `(p, n)` net pair per weight position, mirroring
/// [`BsVector`] exactly (position `pos` has weight `2^-pos`).
#[derive(Clone, Debug)]
pub struct BsSignals {
    msd_pos: i32,
    p: Vec<NetId>,
    n: Vec<NetId>,
}

impl BsSignals {
    /// An all-zero bus over `msd_pos ..= msd_pos + len − 1`.
    pub fn zero(nl: &mut Netlist, msd_pos: i32, len: usize) -> Self {
        let z = nl.constant(false);
        BsSignals { msd_pos, p: vec![z; len], n: vec![z; len] }
    }

    /// A constant bus encoding a signed-digit operand (positions `1..=N`).
    pub fn constant(nl: &mut Netlist, value: &ola_redundant::SdNumber) -> Self {
        let mut p = Vec::with_capacity(value.len());
        let mut n = Vec::with_capacity(value.len());
        for d in value {
            let (bp, bn) = d.to_bits();
            p.push(nl.constant(bp));
            n.push(nl.constant(bn));
        }
        BsSignals { msd_pos: 1, p, n }
    }

    /// Builds a bus from explicit net pairs (`p[0]` is the MSD).
    ///
    /// # Panics
    ///
    /// Panics if the two planes differ in length.
    #[must_use]
    pub fn from_nets(msd_pos: i32, p: Vec<NetId>, n: Vec<NetId>) -> Self {
        assert_eq!(p.len(), n.len(), "p and n planes must have equal length");
        BsSignals { msd_pos, p, n }
    }

    /// Position of the most significant digit.
    #[must_use]
    pub fn msd_pos(&self) -> i32 {
        self.msd_pos
    }

    /// One past the least significant position.
    #[must_use]
    pub fn end_pos(&self) -> i32 {
        self.msd_pos + self.p.len() as i32
    }

    /// Number of digit positions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// True if the bus has no positions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }

    /// The `(p, n)` nets at `pos`, or constant zeros outside the window.
    pub fn bits(&self, nl: &mut Netlist, pos: i32) -> (NetId, NetId) {
        let off = pos - self.msd_pos;
        if off >= 0 && (off as usize) < self.len() {
            (self.p[off as usize], self.n[off as usize])
        } else {
            let z = nl.constant(false);
            (z, z)
        }
    }

    /// Multiplies by `2^k` (pure rewiring).
    #[must_use]
    pub fn shifted(&self, k: i32) -> Self {
        BsSignals { msd_pos: self.msd_pos - k, p: self.p.clone(), n: self.n.clone() }
    }

    /// Negation: swaps the planes (pure rewiring).
    #[must_use]
    pub fn negated(&self) -> Self {
        BsSignals { msd_pos: self.msd_pos, p: self.n.clone(), n: self.p.clone() }
    }

    /// All nets, `p` plane then `n` plane, MSD first (for output buses).
    #[must_use]
    pub fn flat_nets(&self) -> (Vec<NetId>, Vec<NetId>) {
        (self.p.clone(), self.n.clone())
    }

    /// Reads the bus from a functional evaluation.
    #[must_use]
    pub fn eval(&self, vals: &[bool]) -> BsVector {
        let mut v = BsVector::zero(self.msd_pos, self.len());
        for i in 0..self.len() {
            let pos = self.msd_pos + i as i32;
            v.set_bits(pos, vals[self.p[i].index()], vals[self.n[i].index()]);
        }
        v
    }
}

/// Gate-level digit-parallel online adder (Figure 2): two FA levels per
/// digit, mirroring [`bs_add`](crate::online::bs_add) cell for cell.
pub fn bs_add_gates(nl: &mut Netlist, x: &BsSignals, y: &BsSignals) -> BsSignals {
    let msd = x.msd_pos().min(y.msd_pos()) - 1;
    let end = x.end_pos().max(y.end_pos());
    let len = (end - msd) as usize;

    let mut c1 = Vec::with_capacity(len + 1);
    let mut s1 = Vec::with_capacity(len + 1);
    for pos in msd..=end {
        let (xp, xn) = x.bits(nl, pos);
        let (yp, _) = y.bits(nl, pos);
        let (c, s) = ppm_cell(nl, xp, yp, xn);
        c1.push(c);
        s1.push(s);
    }
    let mut zp = Vec::with_capacity(len);
    let mut carry_neg = Vec::with_capacity(len);
    for (slot, pos) in (msd..end).enumerate() {
        let (_, yn) = y.bits(nl, pos);
        let (cn, sp) = mmp_cell(nl, c1[slot + 1], s1[slot], yn);
        zp.push(sp);
        carry_neg.push(cn);
    }
    let zero = nl.constant(false);
    let zn: Vec<NetId> =
        (0..len).map(|slot| carry_neg.get(slot + 1).copied().unwrap_or(zero)).collect();
    BsSignals { msd_pos: msd, p: zp, n: zn }
}

/// Gate-level signed-digit vector multiple: `d · v` where the digit `d` is
/// given as its borrow-save net pair. Two AND-OR pairs per digit.
pub fn sdvm_gates(nl: &mut Netlist, dp: NetId, dn: NetId, v: &BsSignals) -> BsSignals {
    let mut p = Vec::with_capacity(v.len());
    let mut n = Vec::with_capacity(v.len());
    for i in 0..v.len() {
        let pos = v.msd_pos() + i as i32;
        let (vp, vn) = v.bits(nl, pos);
        let pp = nl.and(dp, vp);
        let pn = nl.and(dn, vn);
        p.push(nl.or(pp, pn));
        let np = nl.and(dp, vn);
        let nn = nl.and(dn, vp);
        n.push(nl.or(np, nn));
    }
    BsSignals { msd_pos: v.msd_pos(), p, n }
}

/// Decodes sampled `p`/`n` digit planes, MSD first at weight position
/// `msd_pos`, into their exact value.
#[must_use]
pub fn decode_planes_value(msd_pos: i32, p: &[bool], n: &[bool]) -> Q {
    let mut v = BsVector::zero(msd_pos, p.len());
    for (i, (&p, &n)) in p.iter().zip(n).enumerate() {
        v.set_bits(msd_pos + i as i32, p, n);
    }
    v.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_redundant::{Digit, SdNumber};

    /// Builds input buses for an SD operand and returns (signals, encoder).
    fn operand_inputs(nl: &mut Netlist, name: &str, n: usize) -> BsSignals {
        let p = nl.input_bus(&format!("{name}p"), n);
        let nn = nl.input_bus(&format!("{name}n"), n);
        BsSignals::from_nets(1, p, nn)
    }

    fn encode(x: &SdNumber) -> Vec<bool> {
        let mut bits = Vec::new();
        for d in x {
            bits.push(d.to_bits().0);
        }
        for d in x {
            bits.push(d.to_bits().1);
        }
        bits
    }

    #[test]
    fn gate_adder_matches_behavioral_exhaustively() {
        use crate::online::bs_add;
        let n = 3;
        let mut nl = Netlist::new();
        let x = operand_inputs(&mut nl, "x", n);
        let y = operand_inputs(&mut nl, "y", n);
        let z = bs_add_gates(&mut nl, &x, &y);
        for xv in 0..3usize.pow(n as u32) {
            for yv in 0..3usize.pow(n as u32) {
                let xd = decode_trits(xv, n);
                let yd = decode_trits(yv, n);
                let mut inputs = encode(&xd);
                inputs.extend(encode(&yd));
                let vals = nl.eval(&inputs);
                let got = z.eval(&vals);
                let want = bs_add(
                    &ola_redundant::BsVector::from_sd(&xd),
                    &ola_redundant::BsVector::from_sd(&yd),
                );
                assert_eq!(got, want, "x={xd:?} y={yd:?}");
            }
        }
    }

    fn decode_trits(mut k: usize, n: usize) -> SdNumber {
        (0..n)
            .map(|_| {
                let d = Digit::try_from((k % 3) as i8 - 1).unwrap();
                k /= 3;
                d
            })
            .collect()
    }

    #[test]
    fn sdvm_gates_select_sign() {
        let n = 4;
        for (dig, factor) in [(Digit::One, 1i64), (Digit::NegOne, -1), (Digit::Zero, 0)] {
            let mut nl = Netlist::new();
            let dp = nl.input("dp");
            let dn = nl.input("dn");
            let v = operand_inputs(&mut nl, "v", n);
            let out = sdvm_gates(&mut nl, dp, dn, &v);
            let x = SdNumber::from_value(Q::new(5, 4), n).unwrap();
            let (bp, bn) = dig.to_bits();
            let mut inputs = vec![bp, bn];
            inputs.extend(encode(&x));
            let vals = nl.eval(&inputs);
            assert_eq!(out.eval(&vals).value(), x.value() * factor, "digit {dig:?}");
        }
    }

    #[test]
    fn shifting_and_negation_are_rewiring() {
        let mut nl = Netlist::new();
        let v = operand_inputs(&mut nl, "v", 3);
        let before = nl.len();
        let s = v.shifted(2);
        let m = v.negated();
        assert_eq!(nl.len(), before, "no gates added");
        assert_eq!(s.msd_pos(), -1);
        assert_eq!(m.msd_pos(), 1);
    }

    #[test]
    fn out_of_window_bits_are_constant_zero() {
        let mut nl = Netlist::new();
        let v = operand_inputs(&mut nl, "v", 2);
        let (p, n) = v.bits(&mut nl, 99);
        let vals = nl.eval(&[true, true, true, true]);
        assert!(!vals[p.index()] && !vals[n.index()]);
    }
}
