//! The digit-parallel radix-2 online (signed-digit) adder — behavioral model.
//!
//! This is Figure 2 of the paper: a redundant adder built from two levels of
//! full-adder cells per digit, so its delay is **two FA delays regardless of
//! word length** — carries never propagate more than one position. That is
//! why "it is unlikely that timing violations happen on the online adder".
//!
//! The construction uses the PPM/MMP full-adder identities
//! (`a + b − m = 2c − s̄` and `p − a − b = s̄ − 2c`, see
//! [`ola_netlist::cells`]): with the right input/output complementations the
//! `−1` correction constants cancel per position, leaving a pure two-level
//! carry-free array. The behavioral code below mirrors that gate structure
//! bit for bit; [`crate::synth::online_adder`] emits the same structure as a
//! netlist.

use ola_redundant::BsVector;

/// One PPM cell on bits: returns `(carry_pos, sum_neg)` with
/// `a + b − m == 2·carry_pos − sum_neg`.
#[inline]
#[must_use]
pub fn ppm(a: bool, b: bool, m: bool) -> (bool, bool) {
    let (s, c) = full_add(a, b, !m);
    (c, !s)
}

/// One MMP cell on bits: returns `(carry_neg, sum_pos)` with
/// `p − a − b == sum_pos − 2·carry_neg`.
#[inline]
#[must_use]
pub fn mmp(p: bool, a: bool, b: bool) -> (bool, bool) {
    let (s, c) = full_add(a, b, !p);
    (c, !s)
}

#[inline]
fn full_add(a: bool, b: bool, c: bool) -> (bool, bool) {
    let axb = a ^ b;
    (axb ^ c, (a & b) | (c & axb))
}

/// Adds two borrow-save numbers with the two-level carry-free array.
///
/// The result window spans one position above the widest operand MSD (the
/// sum may need an extra integer digit) down to the least significant
/// operand position. The addition is exact:
/// `bs_add(x, y).value() == x.value() + y.value()`.
///
/// # Examples
///
/// ```
/// use ola_arith::online::bs_add;
/// use ola_redundant::{BsVector, Q, SdNumber};
///
/// let a = BsVector::from_sd(&SdNumber::from_value(Q::new(3, 3), 3)?);
/// let b = BsVector::from_sd(&SdNumber::from_value(Q::new(-5, 3), 3)?);
/// assert_eq!(bs_add(&a, &b).value(), Q::new(-2, 3));
/// # Ok::<(), ola_redundant::RangeError>(())
/// ```
#[must_use]
pub fn bs_add(x: &BsVector, y: &BsVector) -> BsVector {
    let msd = x.msd_pos().min(y.msd_pos()) - 1;
    let end = x.end_pos().max(y.end_pos());
    let len = (end - msd) as usize;
    let mut out = BsVector::zero(msd, len);

    // Level 1: PPM(xp, yp, xn) at every position → c1 (weight ×2), s1 (neg).
    // Level 2: MMP(c1 from one position below, s1, yn) → zp and zn (weight ×2).
    // `c1[pos]` is indexed by the position it was *generated* at.
    let mut c1 = vec![false; len + 1];
    let mut s1 = vec![false; len + 1];
    for (slot, pos) in (msd..end + 1).enumerate() {
        let (xp, xn) = x.bits(pos);
        let (yp, _) = y.bits(pos);
        let (c, s) = ppm(xp, yp, xn);
        c1[slot] = c;
        s1[slot] = s;
    }
    let mut zn_up = vec![false; len + 1];
    for (slot, pos) in (msd..end).enumerate() {
        // Inputs at weight 2^-pos: carry generated one position below (slot+1),
        // the local negative interim sum, and y's negative bit.
        let (_, yn) = y.bits(pos);
        let (carry_neg, sum_pos) = mmp(c1[slot + 1], s1[slot], yn);
        let (p_cur, _) = out.bits(pos);
        debug_assert!(!p_cur);
        out.set_bits(pos, sum_pos, false);
        zn_up[slot] = carry_neg;
    }
    // carry_neg generated at position pos lands at pos-1; slot s of zn_up
    // corresponds to position msd+s, so its carry lands at msd+s-1 → the
    // carry consumed *at* position pos is zn_up from slot (pos - msd) + 1.
    for (slot, pos) in (msd..end).enumerate() {
        let (p, _) = out.bits(pos);
        let n = zn_up.get(slot + 1).copied().unwrap_or(false);
        out.set_bits(pos, p, n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_redundant::{SdNumber, Q};

    fn all_sd(n: usize) -> impl Iterator<Item = SdNumber> {
        (0..3usize.pow(n as u32)).map(move |mut k| {
            (0..n)
                .map(|_| {
                    let d = ola_redundant::Digit::try_from((k % 3) as i8 - 1).unwrap();
                    k /= 3;
                    d
                })
                .collect()
        })
    }

    #[test]
    fn ppm_and_mmp_bit_identities() {
        for bits in 0..8u8 {
            let (a, b, m) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let (c, s) = ppm(a, b, m);
            assert_eq!(i8::from(a) + i8::from(b) - i8::from(m), 2 * i8::from(c) - i8::from(s));
            let (c, s) = mmp(a, b, m);
            assert_eq!(i8::from(a) - i8::from(b) - i8::from(m), i8::from(s) - 2 * i8::from(c));
        }
    }

    #[test]
    fn addition_is_exact_exhaustively() {
        // Every pair of 4-digit signed-digit numbers (81 × 81 encodings).
        for x in all_sd(4) {
            let bx = BsVector::from_sd(&x);
            for y in all_sd(4) {
                let by = BsVector::from_sd(&y);
                let z = bs_add(&bx, &by);
                assert_eq!(z.value(), x.value() + y.value(), "x={x:?} y={y:?} z={z:?}");
            }
        }
    }

    #[test]
    fn addition_handles_mixed_windows() {
        // Operands over different weight windows (as inside the multiplier).
        let x = BsVector::from_sd(&SdNumber::from_value(Q::new(5, 3), 3).unwrap());
        let y = x.shifted(-2); // value / 4, positions 3..=5
        let z = bs_add(&x, &y);
        assert_eq!(z.value(), x.value() + y.value());
        assert_eq!(z.msd_pos(), 0);
    }

    #[test]
    fn adding_zero_is_identity_in_value() {
        let zero = BsVector::zero(1, 4);
        for x in all_sd(4) {
            let bx = BsVector::from_sd(&x);
            assert_eq!(bs_add(&bx, &zero).value(), x.value());
            assert_eq!(bs_add(&zero, &bx).value(), x.value());
        }
    }

    #[test]
    fn result_window_is_one_wider() {
        let x = BsVector::zero(1, 4);
        let z = bs_add(&x, &x);
        assert_eq!(z.msd_pos(), 0);
        assert_eq!(z.end_pos(), 5);
    }

    #[test]
    fn integer_position_operands() {
        // Residual-style operands with an integer digit.
        let mut a = BsVector::zero(0, 4);
        a.set_digit(0, ola_redundant::Digit::One);
        a.set_digit(2, ola_redundant::Digit::NegOne);
        let mut b = BsVector::zero(0, 4);
        b.set_digit(1, ola_redundant::Digit::NegOne);
        b.set_digit(3, ola_redundant::Digit::One);
        let z = bs_add(&a, &b);
        assert_eq!(z.value(), a.value() + b.value());
    }
}
