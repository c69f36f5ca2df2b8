//! Exact dyadic rationals: values of the form `num / 2^scale`.
//!
//! Every quantity flowing through an online-arithmetic datapath is a dyadic
//! rational (a finite binary fraction), so [`Q`] can represent datapath
//! values *exactly*. All comparisons and arithmetic are integer-exact;
//! floating point only appears at the reporting boundary via [`Q::to_f64`].

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Shl, Shr, Sub, SubAssign};

/// An exact dyadic rational `num / 2^scale`.
///
/// The representation is kept normalized: `num` is odd or zero, and zero is
/// always stored as `0 / 2^0`. This keeps `scale` small so products never
/// overflow `i128` for the word lengths used in this workspace (≤ 64 digits).
///
/// # Examples
///
/// ```
/// use ola_redundant::Q;
///
/// let half = Q::new(1, 1);      // 1 / 2^1
/// let quarter = Q::new(1, 2);   // 1 / 2^2
/// assert_eq!(half + quarter, Q::new(3, 2));
/// assert_eq!(half * quarter, Q::new(1, 3));
/// assert!(half > quarter);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Q {
    num: i128,
    scale: u32,
}

impl Q {
    /// The value zero.
    pub const ZERO: Q = Q { num: 0, scale: 0 };
    /// The value one.
    pub const ONE: Q = Q { num: 1, scale: 0 };

    /// Creates the exact value `num / 2^scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale > 120` (guards against overflow in later products).
    #[must_use]
    pub fn new(num: i128, scale: u32) -> Self {
        assert!(scale <= MAX_SCALE, "Q scale {scale} too large");
        Q { num, scale }.normalized()
    }

    /// Creates an integer value.
    #[must_use]
    pub fn from_int(v: i64) -> Self {
        Q::new(i128::from(v), 0)
    }

    /// The exact value `2^-k`.
    #[must_use]
    pub fn pow2_neg(k: u32) -> Self {
        Q::new(1, k)
    }

    /// Numerator after normalization (odd or zero).
    #[must_use]
    pub fn numerator(self) -> i128 {
        self.num
    }

    /// Power-of-two denominator exponent after normalization.
    #[must_use]
    pub fn scale(self) -> u32 {
        self.scale
    }

    /// Returns the numerator when the value is expressed over denominator
    /// `2^scale`, or `None` if the value is not representable at that scale.
    ///
    /// ```
    /// use ola_redundant::Q;
    /// assert_eq!(Q::new(3, 2).scaled_to(4), Some(12)); // 3/4 == 12/16
    /// assert_eq!(Q::new(1, 3).scaled_to(2), None);     // 1/8 not a multiple of 1/4
    /// ```
    #[must_use]
    pub fn scaled_to(self, scale: u32) -> Option<i128> {
        if scale >= self.scale {
            self.num.checked_shl(scale - self.scale)
        } else {
            let shift = self.scale - scale;
            if self.num.trailing_zeros() >= shift || self.num == 0 {
                Some(self.num >> shift)
            } else {
                None
            }
        }
    }

    /// True if the value is zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Sign of the value: −1, 0 or 1.
    #[must_use]
    pub fn signum(self) -> i32 {
        self.num.signum() as i32
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(self) -> Self {
        Q { num: self.num.abs(), scale: self.scale }
    }

    /// Converts to `f64` (inexact for very fine scales; reporting only).
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / (self.scale as f64).exp2()
    }

    /// Compares against the exact value `num / 2^scale` without constructing
    /// an intermediate `Q`.
    #[must_use]
    pub fn cmp_frac(self, num: i128, scale: u32) -> Ordering {
        cmp_aligned(self.num, self.scale, num, scale)
    }

    /// `self + rhs`, or `None` when the exact sum is not representable
    /// (its numerator overflows `i128` or its scale exceeds 120).
    #[must_use]
    pub fn checked_add(self, rhs: Q) -> Option<Q> {
        let scale = self.scale.max(rhs.scale);
        let a = shl_exact(self.num, scale - self.scale)?;
        let b = shl_exact(rhs.num, scale - rhs.scale)?;
        Q { num: a.checked_add(b)?, scale }.normalized().bounded()
    }

    /// `self − rhs`, or `None` when the exact difference is not
    /// representable.
    #[must_use]
    pub fn checked_sub(self, rhs: Q) -> Option<Q> {
        self.checked_add(rhs.checked_neg()?)
    }

    /// `−self`, or `None` for the one numerator (`i128::MIN`) whose
    /// negation overflows.
    #[must_use]
    pub fn checked_neg(self) -> Option<Q> {
        Some(Q { num: self.num.checked_neg()?, scale: self.scale })
    }

    /// `self · rhs`, or `None` when the exact product is not
    /// representable.
    ///
    /// ```
    /// use ola_redundant::Q;
    ///
    /// let big = Q::new(1 << 64, 0);
    /// assert_eq!(big.checked_mul(Q::new(1, 1)), Some(Q::new(1 << 63, 0)));
    /// assert_eq!(big.checked_mul(big), None); // 2^128 overflows i128
    /// ```
    #[must_use]
    pub fn checked_mul(self, rhs: Q) -> Option<Q> {
        let num = self.num.checked_mul(rhs.num)?;
        Q { num, scale: self.scale.checked_add(rhs.scale)? }.normalized().bounded()
    }

    fn bounded(self) -> Option<Q> {
        (self.scale <= MAX_SCALE).then_some(self)
    }

    fn normalized(mut self) -> Self {
        if self.num == 0 {
            return Q::ZERO;
        }
        let tz = self.num.trailing_zeros().min(self.scale);
        self.num >>= tz;
        self.scale -= tz;
        self
    }
}

/// Largest scale [`Q::new`] accepts (guards against overflow in later
/// products).
const MAX_SCALE: u32 = 120;

/// `num · 2^k`, or `None` when bits would be shifted out of the `i128`.
fn shl_exact(num: i128, k: u32) -> Option<i128> {
    if num == 0 {
        return Some(0);
    }
    num.checked_mul(2i128.checked_pow(k)?)
}

fn cmp_aligned(an: i128, asc: u32, bn: i128, bsc: u32) -> Ordering {
    let common = asc.max(bsc);
    let a = an << (common - asc);
    let b = bn << (common - bsc);
    a.cmp(&b)
}

impl Default for Q {
    fn default() -> Self {
        Q::ZERO
    }
}

impl fmt::Debug for Q {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q({}/2^{})", self.num, self.scale)
    }
}

impl fmt::Display for Q {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl PartialOrd for Q {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Q {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_aligned(self.num, self.scale, other.num, other.scale)
    }
}

impl Add for Q {
    type Output = Q;
    fn add(self, rhs: Q) -> Q {
        let scale = self.scale.max(rhs.scale);
        let a = self.num << (scale - self.scale);
        let b = rhs.num << (scale - rhs.scale);
        Q { num: a + b, scale }.normalized()
    }
}

impl AddAssign for Q {
    fn add_assign(&mut self, rhs: Q) {
        *self = *self + rhs;
    }
}

impl Sub for Q {
    type Output = Q;
    fn sub(self, rhs: Q) -> Q {
        self + (-rhs)
    }
}

impl SubAssign for Q {
    fn sub_assign(&mut self, rhs: Q) {
        *self = *self - rhs;
    }
}

impl Neg for Q {
    type Output = Q;
    fn neg(self) -> Q {
        Q { num: -self.num, scale: self.scale }
    }
}

impl Mul for Q {
    type Output = Q;
    fn mul(self, rhs: Q) -> Q {
        Q { num: self.num * rhs.num, scale: self.scale + rhs.scale }.normalized()
    }
}

impl Mul<i64> for Q {
    type Output = Q;
    fn mul(self, rhs: i64) -> Q {
        Q { num: self.num * i128::from(rhs), scale: self.scale }.normalized()
    }
}

/// Multiplication by `2^rhs`.
impl Shl<u32> for Q {
    type Output = Q;
    fn shl(self, rhs: u32) -> Q {
        if self.num == 0 {
            return Q::ZERO;
        }
        if rhs >= self.scale {
            Q { num: self.num << (rhs - self.scale), scale: 0 }
        } else {
            Q { num: self.num, scale: self.scale - rhs }
        }
    }
}

/// Division by `2^rhs` (exact: increases the scale).
impl Shr<u32> for Q {
    type Output = Q;
    fn shr(self, rhs: u32) -> Q {
        if self.num == 0 {
            return Q::ZERO;
        }
        Q::new(self.num, self.scale + rhs)
    }
}

impl From<i64> for Q {
    fn from(v: i64) -> Self {
        Q::from_int(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_canonical() {
        assert_eq!(Q::new(0, 17), Q::ZERO);
        assert!(Q::new(0, 3).is_zero());
        assert_eq!(Q::default(), Q::ZERO);
    }

    #[test]
    fn normalization_reduces_even_numerators() {
        let q = Q::new(8, 5); // 8/32 = 1/4
        assert_eq!(q.numerator(), 1);
        assert_eq!(q.scale(), 2);
        assert_eq!(q, Q::new(1, 2));
    }

    #[test]
    fn add_aligns_scales() {
        assert_eq!(Q::new(1, 1) + Q::new(1, 3), Q::new(5, 3));
        assert_eq!(Q::new(1, 1) + Q::new(-1, 1), Q::ZERO);
        assert_eq!(Q::from_int(3) + Q::new(1, 2), Q::new(13, 2));
    }

    #[test]
    fn sub_and_neg() {
        assert_eq!(Q::new(3, 2) - Q::new(1, 2), Q::new(1, 1));
        assert_eq!(-Q::new(3, 2), Q::new(-3, 2));
        assert_eq!(Q::new(3, 2) - Q::new(3, 2), Q::ZERO);
    }

    #[test]
    fn mul_is_exact() {
        assert_eq!(Q::new(3, 2) * Q::new(5, 3), Q::new(15, 5));
        assert_eq!(Q::new(-1, 1) * Q::new(1, 1), Q::new(-1, 2));
        assert_eq!(Q::from_int(4) * Q::new(1, 2), Q::ONE);
    }

    #[test]
    fn checked_ops_agree_in_range_and_refuse_to_wrap() {
        let (a, b) = (Q::new(3, 2), Q::new(-5, 7));
        assert_eq!(a.checked_add(b), Some(a + b));
        assert_eq!(a.checked_sub(b), Some(a - b));
        assert_eq!(a.checked_mul(b), Some(a * b));
        assert_eq!(b.checked_neg(), Some(-b));
        assert_eq!(Q::ZERO.checked_add(Q::new(1, 120)), Some(Q::new(1, 120)));

        let max = Q::new(i128::MAX, 0);
        assert_eq!(max.checked_add(Q::ONE), None);
        assert_eq!(Q::new(i128::MIN, 0).checked_neg(), None);
        assert_eq!(Q::new(-max.numerator(), 0).checked_sub(Q::new(2, 0)), None);
        // Aligning 1/2 to 2^-120 shifts the large numerator out of range.
        assert_eq!(Q::new(1 << 100, 0).checked_add(Q::new(1, 120)), None);
        // The scale bound of `Q::new` holds for products too.
        assert_eq!(Q::new(1, 100).checked_mul(Q::new(1, 100)), None);
    }

    #[test]
    fn shifts() {
        assert_eq!(Q::new(1, 3) << 3, Q::ONE);
        assert_eq!(Q::new(1, 3) << 5, Q::from_int(4));
        assert_eq!(Q::ONE >> 4, Q::new(1, 4));
        assert_eq!(Q::ZERO << 7, Q::ZERO);
        assert_eq!(Q::ZERO >> 7, Q::ZERO);
    }

    #[test]
    fn ordering_is_value_based() {
        assert!(Q::new(1, 1) > Q::new(1, 2));
        assert!(Q::new(-1, 1) < Q::ZERO);
        assert_eq!(Q::new(2, 2).cmp(&Q::new(1, 1)), Ordering::Equal);
        assert_eq!(Q::new(1, 1).cmp_frac(1, 1), Ordering::Equal);
        assert_eq!(Q::new(1, 2).cmp_frac(1, 1), Ordering::Less);
    }

    #[test]
    fn scaled_to_round_trips() {
        assert_eq!(Q::new(3, 2).scaled_to(4), Some(12));
        assert_eq!(Q::new(1, 3).scaled_to(2), None);
        assert_eq!(Q::ZERO.scaled_to(10), Some(0));
        assert_eq!(Q::new(-5, 3).scaled_to(3), Some(-5));
    }

    #[test]
    fn to_f64_matches() {
        assert_eq!(Q::new(1, 1).to_f64(), 0.5);
        assert_eq!(Q::new(-3, 2).to_f64(), -0.75);
    }

    #[test]
    fn abs_and_signum() {
        assert_eq!(Q::new(-3, 2).abs(), Q::new(3, 2));
        assert_eq!(Q::new(-3, 2).signum(), -1);
        assert_eq!(Q::ZERO.signum(), 0);
        assert_eq!(Q::new(3, 2).signum(), 1);
    }
}
