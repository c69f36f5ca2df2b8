//! On-the-fly conversion of MSD-first digit streams to non-redundant form.
//!
//! Online operators emit result digits most-significant first in the
//! redundant set {−1, 0, 1}. Converting to conventional (non-redundant)
//! binary with a carry-propagate adder would reintroduce the very carry
//! chains online arithmetic avoids, so hardware uses Ercegovac's
//! *on-the-fly conversion*: two candidate prefixes `Q` and `QM = Q − ulp`
//! are maintained and extended by appends only — no carries.

use crate::{Digit, Q};

/// Carry-free MSD-first converter from signed digits to two's-complement.
///
/// # Examples
///
/// ```
/// use ola_redundant::{Digit, OnTheFlyConverter, Q};
///
/// let mut c = OnTheFlyConverter::new();
/// // 0.1 1̄ 1 = 1/2 - 1/4 + 1/8 = 3/8
/// c.push(Digit::One);
/// c.push(Digit::NegOne);
/// c.push(Digit::One);
/// assert_eq!(c.value(), Q::new(3, 3));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OnTheFlyConverter {
    q: i128,
    qm: i128,
    ndigits: u32,
}

impl OnTheFlyConverter {
    /// A converter that has consumed no digits (value 0).
    #[must_use]
    pub fn new() -> Self {
        OnTheFlyConverter { q: 0, qm: -1, ndigits: 0 }
    }

    /// Appends the next digit (one position less significant than the last).
    ///
    /// Each of the three cases extends either `Q` or `QM` with a single new
    /// bit — the integer doublings below correspond to wiring, not adders.
    pub fn push(&mut self, d: Digit) {
        let (q, qm) = (self.q, self.qm);
        match d {
            Digit::One => {
                self.q = 2 * q + 1;
                self.qm = 2 * q;
            }
            Digit::Zero => {
                self.q = 2 * q;
                self.qm = 2 * qm + 1;
            }
            Digit::NegOne => {
                self.q = 2 * qm + 1;
                self.qm = 2 * qm;
            }
        }
        self.ndigits += 1;
    }

    /// The exact value of the digits consumed so far.
    #[must_use]
    pub fn value(&self) -> Q {
        Q::new(self.q, self.ndigits)
    }

    /// The converted result as a scaled integer `value · 2^ndigits`.
    #[must_use]
    pub fn scaled(&self) -> i128 {
        self.q
    }

    /// Consumes a whole digit sequence and returns its exact value.
    #[must_use]
    pub fn convert<I: IntoIterator<Item = Digit>>(digits: I) -> Q {
        let mut c = OnTheFlyConverter::new();
        for d in digits {
            c.push(d);
        }
        c.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SdNumber;

    #[test]
    fn matches_direct_evaluation_exhaustively() {
        // All 3^7 seven-digit numbers.
        for n in 0..3usize.pow(7) {
            let mut digits = Vec::new();
            let mut k = n;
            for _ in 0..7 {
                digits.push(Digit::try_from((k % 3) as i8 - 1).unwrap());
                k /= 3;
            }
            let sd = SdNumber::new(digits.clone());
            assert_eq!(OnTheFlyConverter::convert(digits), sd.value());
        }
    }

    #[test]
    fn qm_invariant_holds_while_streaming() {
        let mut c = OnTheFlyConverter::new();
        for d in [Digit::One, Digit::Zero, Digit::NegOne, Digit::NegOne, Digit::One] {
            c.push(d);
            assert_eq!(c.qm, c.q - 1, "QM must always be Q - ulp");
        }
    }

    #[test]
    fn empty_converter_is_zero() {
        assert_eq!(OnTheFlyConverter::new().value(), Q::ZERO);
    }

    #[test]
    fn prefix_values_are_online_prefixes() {
        let x = SdNumber::from_value(Q::new(-23, 6), 6).unwrap();
        let mut c = OnTheFlyConverter::new();
        for (i, d) in x.iter().enumerate() {
            c.push(d);
            assert_eq!(c.value(), x.prefix_value(i + 1));
        }
    }
}
