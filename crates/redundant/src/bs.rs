//! Borrow-save bit-level representation of signed-digit numbers.
//!
//! Hardware implementations of radix-2 online arithmetic encode each signed
//! digit as a pair of wires `(p, n)` with digit value `p − n`. A
//! [`BsVector`] is a window of such digit pairs over arbitrary (possibly
//! integer) weight positions, mirroring exactly the buses inside the
//! unrolled online operators. Unlike [`SdNumber`](crate::SdNumber), the pair
//! `(1, 1)` (value 0) is allowed — it arises naturally inside borrow-save
//! adders.

use crate::{Digit, Q};
use std::fmt;

/// A borrow-save number: signed digits at weight positions
/// `msd_pos ..= msd_pos + len - 1`, where position `p` has weight `2^-p`.
///
/// Positions may be zero or negative, giving integer-weight digits — the
/// internal residuals `W` and `P` of the online multiplier need an integer
/// position.
///
/// # Examples
///
/// ```
/// use ola_redundant::{BsVector, Digit, Q};
///
/// let mut w = BsVector::zero(0, 4); // positions 0..=3, weights 1, 1/2, 1/4, 1/8
/// w.set_digit(0, Digit::One);
/// w.set_digit(2, Digit::NegOne);
/// assert_eq!(w.value(), Q::new(3, 2)); // 1 - 1/4
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BsVector {
    msd_pos: i32,
    p: Vec<bool>,
    n: Vec<bool>,
}

impl BsVector {
    /// An all-zero vector spanning positions `msd_pos ..= msd_pos + len - 1`.
    #[must_use]
    pub fn zero(msd_pos: i32, len: usize) -> Self {
        BsVector { msd_pos, p: vec![false; len], n: vec![false; len] }
    }

    /// Builds from a fractional [`SdNumber`](crate::SdNumber) (digit `i` at
    /// position `i`).
    #[must_use]
    pub fn from_sd(x: &crate::SdNumber) -> Self {
        let mut v = BsVector::zero(1, x.len());
        for (idx, d) in x.iter().enumerate() {
            let (p, n) = d.to_bits();
            v.p[idx] = p;
            v.n[idx] = n;
        }
        v
    }

    /// Position of the most significant digit (weight `2^-msd_pos`).
    #[must_use]
    pub fn msd_pos(&self) -> i32 {
        self.msd_pos
    }

    /// Position just past the least significant digit.
    #[must_use]
    pub fn end_pos(&self) -> i32 {
        self.msd_pos + self.len() as i32
    }

    /// Number of digit positions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// True if the vector has no positions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }

    /// The `(p, n)` bit pair at weight position `pos`; `(false, false)` if
    /// outside the window.
    #[must_use]
    pub fn bits(&self, pos: i32) -> (bool, bool) {
        match self.index_of(pos) {
            Some(i) => (self.p[i], self.n[i]),
            None => (false, false),
        }
    }

    /// The digit value at weight position `pos` (zero outside the window).
    #[must_use]
    pub fn digit(&self, pos: i32) -> Digit {
        let (p, n) = self.bits(pos);
        Digit::from_bits(p, n)
    }

    /// Sets the bit pair at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is outside the window.
    pub fn set_bits(&mut self, pos: i32, p: bool, n: bool) {
        let i = self.index_of(pos).expect("position outside borrow-save window");
        self.p[i] = p;
        self.n[i] = n;
    }

    /// Sets the digit at position `pos` using the canonical encoding.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is outside the window.
    pub fn set_digit(&mut self, pos: i32, d: Digit) {
        let (p, n) = d.to_bits();
        self.set_bits(pos, p, n);
    }

    /// The exact value `Σ (p_i − n_i) · 2^-pos(i)`.
    #[must_use]
    pub fn value(&self) -> Q {
        let mut acc: i128 = 0;
        for i in 0..self.len() {
            acc = (acc << 1) + i128::from(self.p[i]) - i128::from(self.n[i]);
        }
        // acc is the value scaled by 2^(end_pos - 1).
        let scale = self.end_pos() - 1;
        if scale >= 0 {
            Q::new(acc, scale as u32)
        } else {
            Q::new(acc, 0) << (-scale) as u32
        }
    }

    /// Multiplies by `2^k` (shifts every position up by `k`).
    #[must_use]
    pub fn shifted(&self, k: i32) -> Self {
        BsVector { msd_pos: self.msd_pos - k, p: self.p.clone(), n: self.n.clone() }
    }

    /// Exact negation: swaps the `p` and `n` bit planes.
    #[must_use]
    pub fn negated(&self) -> Self {
        BsVector { msd_pos: self.msd_pos, p: self.n.clone(), n: self.p.clone() }
    }

    /// Copies into a new window, zero-filling positions not covered by
    /// `self`. Digits of `self` that fall outside the new window are dropped:
    /// the caller asserts (and our tests verify) they are zero.
    #[must_use]
    pub fn rewindowed(&self, msd_pos: i32, len: usize) -> Self {
        let mut out = BsVector::zero(msd_pos, len);
        for i in 0..len {
            let pos = msd_pos + i as i32;
            let (p, n) = self.bits(pos);
            out.p[i] = p;
            out.n[i] = n;
        }
        out
    }

    /// Iterates `(pos, digit)` pairs, MSD first.
    pub fn iter_digits(&self) -> impl Iterator<Item = (i32, Digit)> + '_ {
        (0..self.len())
            .map(move |i| (self.msd_pos + i as i32, Digit::from_bits(self.p[i], self.n[i])))
    }

    fn index_of(&self, pos: i32) -> Option<usize> {
        let off = pos - self.msd_pos;
        if off >= 0 && (off as usize) < self.len() {
            Some(off as usize)
        } else {
            None
        }
    }
}

impl fmt::Debug for BsVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BsVector@{}[", self.msd_pos)?;
        for i in 0..self.len() {
            let d = Digit::from_bits(self.p[i], self.n[i]);
            write!(f, "{d}")?;
        }
        write!(f, "] = {}", self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SdNumber;

    #[test]
    fn zero_vector_has_zero_value() {
        assert_eq!(BsVector::zero(-2, 8).value(), Q::ZERO);
        assert_eq!(BsVector::zero(3, 0).value(), Q::ZERO);
    }

    #[test]
    fn from_sd_preserves_value() {
        for n in 1..=6usize {
            let limit = (1i128 << n) - 1;
            for v in (-limit..=limit).step_by(3) {
                let q = Q::new(v, n as u32);
                let x = SdNumber::from_value(q, n).unwrap();
                assert_eq!(BsVector::from_sd(&x).value(), q);
            }
        }
    }

    #[test]
    fn integer_positions_have_integer_weights() {
        let mut w = BsVector::zero(-1, 3); // weights 2, 1, 1/2
        w.set_digit(-1, Digit::One);
        w.set_digit(1, Digit::NegOne);
        assert_eq!(w.value(), Q::new(3, 1)); // 2 - 1/2
    }

    #[test]
    fn redundant_pair_is_zero_valued() {
        let mut w = BsVector::zero(1, 2);
        w.set_bits(1, true, true);
        assert_eq!(w.value(), Q::ZERO);
        assert_eq!(w.digit(1), Digit::Zero);
    }

    #[test]
    fn shifting_scales_by_powers_of_two() {
        let x = BsVector::from_sd(&SdNumber::from_value(Q::new(3, 3), 3).unwrap());
        assert_eq!(x.shifted(1).value(), Q::new(3, 2));
        assert_eq!(x.shifted(-2).value(), Q::new(3, 5));
        assert_eq!(x.shifted(3).value(), Q::from_int(3));
    }

    #[test]
    fn negation_swaps_planes() {
        let x = BsVector::from_sd(&SdNumber::from_value(Q::new(5, 3), 3).unwrap());
        assert_eq!(x.negated().value(), -x.value());
        assert_eq!(x.negated().negated(), x);
    }

    #[test]
    fn rewindow_round_trips_when_it_fits() {
        let x = BsVector::from_sd(&SdNumber::from_value(Q::new(5, 3), 3).unwrap());
        let y = x.rewindowed(0, 6);
        assert_eq!(y.value(), x.value());
    }

    #[test]
    fn out_of_window_reads_are_zero() {
        let x = BsVector::zero(1, 2);
        assert_eq!(x.digit(0), Digit::Zero);
        assert_eq!(x.digit(17), Digit::Zero);
        assert_eq!(x.bits(-5), (false, false));
    }

    #[test]
    #[should_panic(expected = "position outside")]
    fn out_of_window_writes_panic() {
        let mut x = BsVector::zero(1, 2);
        x.set_digit(3, Digit::One);
    }

    #[test]
    fn iter_digits_yields_positions_msd_first() {
        let mut w = BsVector::zero(0, 3);
        w.set_digit(1, Digit::One);
        let v: Vec<(i32, Digit)> = w.iter_digits().collect();
        assert_eq!(v, vec![(0, Digit::Zero), (1, Digit::One), (2, Digit::Zero)]);
    }
}
