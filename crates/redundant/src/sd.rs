//! Fractional signed-digit numbers.

use crate::{Digit, Q};
use std::fmt;
use std::ops::Neg;

/// A fixed-point radix-2 signed-digit number with `N` fractional digits.
///
/// Digit `i` (1-indexed, as in Eq. (1) of the paper) has weight `2^-i`, so an
/// `N`-digit number represents any multiple of `2^-N` in
/// `[-(1 - 2^-N), 1 - 2^-N]`. The representation is *redundant*: most values
/// have several encodings (e.g. `0.111`, `0.101̄1` and `0.101̄1̄`… all differ
/// only in encoding). [`SdNumber::value`] is always exact.
///
/// # Examples
///
/// ```
/// use ola_redundant::{Digit, Q, SdNumber};
///
/// // 0.1 0 1̄ = 1/2 - 1/8 = 3/8
/// let x = SdNumber::new(vec![Digit::One, Digit::Zero, Digit::NegOne]);
/// assert_eq!(x.value(), Q::new(3, 3));
///
/// // Same value, different encoding.
/// let y = SdNumber::from_value(Q::new(3, 3), 3)?;
/// assert_eq!(x.value(), y.value());
/// # Ok::<(), ola_redundant::RangeError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct SdNumber {
    digits: Vec<Digit>,
}

/// Error returned when a value does not fit the representable range or
/// granularity of an `N`-digit signed-digit number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeError {
    /// The value that failed to convert.
    pub value: Q,
    /// The number of digits that were available.
    pub digits: usize,
}

impl fmt::Display for RangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value {} is not representable with {} signed digits", self.value, self.digits)
    }
}

impl std::error::Error for RangeError {}

impl SdNumber {
    /// Creates a number from its digit vector (`digits[0]` is the MSD, weight
    /// `2^-1`).
    #[must_use]
    pub fn new(digits: Vec<Digit>) -> Self {
        SdNumber { digits }
    }

    /// The `n`-digit zero.
    #[must_use]
    pub fn zero(n: usize) -> Self {
        SdNumber { digits: vec![Digit::Zero; n] }
    }

    /// Number of digits `N`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.digits.len()
    }

    /// True if the number has no digits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.digits.is_empty()
    }

    /// The digits, MSD first.
    #[must_use]
    pub fn digits(&self) -> &[Digit] {
        &self.digits
    }

    /// Digit at 1-indexed position `i` (weight `2^-i`), or `Digit::Zero` when
    /// `i` is outside `1..=N`. The zero-extension mirrors the appending logic
    /// of the digit-parallel operators, which consume zeros past the LSD.
    #[must_use]
    pub fn digit(&self, i: usize) -> Digit {
        if i == 0 {
            return Digit::Zero;
        }
        self.digits.get(i - 1).copied().unwrap_or(Digit::Zero)
    }

    /// The exact value `Σ digits[i-1] · 2^-i`.
    #[must_use]
    pub fn value(&self) -> Q {
        let mut acc: i128 = 0;
        for &d in &self.digits {
            acc = (acc << 1) + i128::from(d.value());
        }
        Q::new(acc, self.digits.len() as u32)
    }

    /// The online prefix value `X_{[j]} = Σ_{i=1}^{k} x_i 2^-i` of the first
    /// `k` digits (Eq. (1)). `k` may exceed `N`; extra digits are zero.
    #[must_use]
    pub fn prefix_value(&self, k: usize) -> Q {
        let k = k.min(self.digits.len());
        let mut acc: i128 = 0;
        for &d in &self.digits[..k] {
            acc = (acc << 1) + i128::from(d.value());
        }
        Q::new(acc, k as u32)
    }

    /// Encodes an exact value into `n` signed digits, MSD-first greedy.
    ///
    /// The returned encoding is the *canonical borrow-free* one produced by
    /// rounding the remainder at each position.
    ///
    /// # Errors
    ///
    /// Returns [`RangeError`] if `value` is not a multiple of `2^-n` or lies
    /// outside `[-(1 - 2^-n), 1 - 2^-n]`.
    pub fn from_value(value: Q, n: usize) -> Result<Self, RangeError> {
        let err = || RangeError { value, digits: n };
        let scaled = value.scaled_to(n as u32).ok_or_else(err)?;
        let limit = (1i128 << n) - 1;
        if scaled.abs() > limit {
            return Err(err());
        }
        let mut digits = Vec::with_capacity(n);
        let mut rem = scaled; // remainder over denominator 2^n
        for i in 1..=n {
            let w = 1i128 << (n - i); // weight of digit i over 2^n
            let d = if 2 * rem >= w {
                Digit::One
            } else if 2 * rem <= -w {
                Digit::NegOne
            } else {
                Digit::Zero
            };
            rem -= i128::from(d.value()) * w;
            digits.push(d);
        }
        debug_assert_eq!(rem, 0, "greedy SD recoding must terminate exactly");
        Ok(SdNumber { digits })
    }

    /// True if `self` and `other` denote the same value (possibly through
    /// different digit encodings).
    #[must_use]
    pub fn value_eq(&self, other: &SdNumber) -> bool {
        self.value() == other.value()
    }

    /// The number with every digit negated (exact negation).
    #[must_use]
    pub fn negated(&self) -> Self {
        SdNumber { digits: self.digits.iter().map(|&d| -d).collect() }
    }

    /// Widens (or truncates) to `n` digits. Truncation drops LSDs and loses
    /// their value contribution.
    #[must_use]
    pub fn resized(&self, n: usize) -> Self {
        let mut digits = self.digits.clone();
        digits.resize(n, Digit::Zero);
        SdNumber { digits }
    }

    /// Iterates over digits MSD first.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Digit>> {
        self.digits.iter().copied()
    }
}

impl Neg for SdNumber {
    type Output = SdNumber;
    fn neg(self) -> SdNumber {
        self.negated()
    }
}

impl Neg for &SdNumber {
    type Output = SdNumber;
    fn neg(self) -> SdNumber {
        self.negated()
    }
}

impl FromIterator<Digit> for SdNumber {
    fn from_iter<T: IntoIterator<Item = Digit>>(iter: T) -> Self {
        SdNumber { digits: iter.into_iter().collect() }
    }
}

impl<'a> IntoIterator for &'a SdNumber {
    type Item = Digit;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Digit>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for SdNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SdNumber({self} = {})", self.value())
    }
}

impl fmt::Display for SdNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("0.")?;
        for d in &self.digits {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sd(digits: &[i8]) -> SdNumber {
        digits.iter().map(|&d| Digit::try_from(d).unwrap()).collect()
    }

    #[test]
    fn value_of_simple_encodings() {
        assert_eq!(sd(&[1, 0, -1]).value(), Q::new(3, 3));
        assert_eq!(sd(&[1, 1, 1]).value(), Q::new(7, 3));
        assert_eq!(sd(&[-1, -1, -1]).value(), Q::new(-7, 3));
        assert_eq!(SdNumber::zero(5).value(), Q::ZERO);
    }

    #[test]
    fn redundant_encodings_share_a_value() {
        // 0.111 == 0.101̄ is false; the paper's example: 0.111 = 0.10 1̄ is for
        // 7/8 vs 3/8 — verify actual redundancy instead: 1 0 -1 == 0 1 1.
        assert_eq!(sd(&[1, 0, -1]).value(), sd(&[0, 1, 1]).value());
        assert!(sd(&[1, 0, -1]).value_eq(&sd(&[0, 1, 1])));
    }

    #[test]
    fn from_value_round_trips_exhaustively() {
        for n in 1..=8usize {
            let limit = (1i128 << n) - 1;
            for v in -limit..=limit {
                let q = Q::new(v, n as u32);
                let x = SdNumber::from_value(q, n).unwrap();
                assert_eq!(x.value(), q, "n={n} v={v}");
                assert_eq!(x.len(), n);
            }
        }
    }

    #[test]
    fn from_value_rejects_out_of_range() {
        assert!(SdNumber::from_value(Q::ONE, 4).is_err());
        assert!(SdNumber::from_value(Q::new(-1, 0), 4).is_err());
        assert!(SdNumber::from_value(Q::new(1, 5), 4).is_err()); // too fine
        let e = SdNumber::from_value(Q::ONE, 4).unwrap_err();
        assert_eq!(e.digits, 4);
        assert!(e.to_string().contains("4 signed digits"));
    }

    #[test]
    fn negation_negates_value() {
        let x = sd(&[1, 0, -1, 1]);
        assert_eq!((-&x).value(), -x.value());
    }

    #[test]
    fn prefix_values_follow_equation_one() {
        let x = sd(&[1, -1, 0, 1]);
        assert_eq!(x.prefix_value(0), Q::ZERO);
        assert_eq!(x.prefix_value(1), Q::new(1, 1));
        assert_eq!(x.prefix_value(2), Q::new(1, 2));
        assert_eq!(x.prefix_value(4), x.value());
        assert_eq!(x.prefix_value(9), x.value());
    }

    #[test]
    fn digit_accessor_is_one_indexed_and_zero_extended() {
        let x = sd(&[1, -1]);
        assert_eq!(x.digit(0), Digit::Zero);
        assert_eq!(x.digit(1), Digit::One);
        assert_eq!(x.digit(2), Digit::NegOne);
        assert_eq!(x.digit(3), Digit::Zero);
    }

    #[test]
    fn resize_preserves_prefix() {
        let x = sd(&[1, -1, 1]);
        let wide = x.resized(6);
        assert_eq!(wide.len(), 6);
        assert_eq!(wide.value(), x.value());
        let narrow = x.resized(2);
        assert_eq!(narrow.value(), Q::new(1, 2));
    }

    #[test]
    fn display_formats_digits() {
        assert_eq!(sd(&[1, 0]).to_string(), "0.10");
    }
}
