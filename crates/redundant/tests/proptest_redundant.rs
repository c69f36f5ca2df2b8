//! Property-based tests for the signed-digit number system.

use ola_redundant::{BsVector, Digit, OnTheFlyConverter, SdNumber, Q};
use proptest::prelude::*;

fn digit_strategy() -> impl Strategy<Value = Digit> {
    prop_oneof![Just(Digit::NegOne), Just(Digit::Zero), Just(Digit::One),]
}

fn sd_strategy(max_len: usize) -> impl Strategy<Value = SdNumber> {
    prop::collection::vec(digit_strategy(), 1..=max_len).prop_map(SdNumber::new)
}

fn q_strategy() -> impl Strategy<Value = Q> {
    (-(1i128 << 40)..(1i128 << 40), 0u32..40).prop_map(|(n, s)| Q::new(n, s))
}

proptest! {
    #[test]
    fn q_addition_is_commutative_and_associative(a in q_strategy(), b in q_strategy(), c in q_strategy()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn q_multiplication_distributes(a in q_strategy(), b in q_strategy(), c in q_strategy()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn q_sub_is_add_neg(a in q_strategy(), b in q_strategy()) {
        prop_assert_eq!(a - b, a + (-b));
        prop_assert_eq!(a - a, Q::ZERO);
    }

    #[test]
    fn q_shifts_invert(a in q_strategy(), k in 0u32..30) {
        prop_assert_eq!((a >> k) << k, a);
    }

    #[test]
    fn q_ordering_matches_f64(a in q_strategy(), b in q_strategy()) {
        // f64 is exact for these magnitudes (< 2^40 over ≤ 40 bits scale is
        // not exact in general, so only check when values differ clearly).
        if (a.to_f64() - b.to_f64()).abs() > 1e-6 {
            prop_assert_eq!(a < b, a.to_f64() < b.to_f64());
        }
    }

    #[test]
    fn sd_from_value_is_exact(v in -1000i128..=1000, n in 10usize..=20) {
        let q = Q::new(v, n as u32);
        let x = SdNumber::from_value(q, n).expect("in range");
        prop_assert_eq!(x.value(), q);
    }

    #[test]
    fn sd_negation_is_involutive(x in sd_strategy(24)) {
        prop_assert_eq!(x.negated().negated(), x.clone());
        prop_assert_eq!(x.negated().value(), -x.value());
    }

    #[test]
    fn sd_prefix_values_are_monotone_refinements(x in sd_strategy(16)) {
        // |X - X_[k]| ≤ 2^-k: prefixes converge geometrically.
        let full = x.value();
        for k in 0..=x.len() {
            let err = (full - x.prefix_value(k)).abs();
            prop_assert!(err <= Q::pow2_neg(k as u32));
        }
    }

    #[test]
    fn bs_round_trip_preserves_value(x in sd_strategy(20)) {
        let b = BsVector::from_sd(&x);
        prop_assert_eq!(b.value(), x.value());
        prop_assert_eq!(b.negated().value(), -x.value());
        prop_assert_eq!(b.shifted(3).value(), x.value() << 3);
        prop_assert_eq!(b.shifted(-2).value(), x.value() >> 2);
    }

    #[test]
    fn bs_rewindow_is_lossless_when_it_fits(x in sd_strategy(12), pad in 0i32..4) {
        let b = BsVector::from_sd(&x);
        let msd = b.msd_pos() - pad;
        let len = b.len() + 2 * pad as usize;
        prop_assert_eq!(b.rewindowed(msd, len).value(), b.value());
    }

    #[test]
    fn otfc_matches_direct_value(x in sd_strategy(30)) {
        let v = OnTheFlyConverter::convert(x.iter());
        prop_assert_eq!(v, x.value());
    }

    #[test]
    fn digit_encoding_round_trips(d in digit_strategy()) {
        let (p, n) = d.to_bits();
        prop_assert_eq!(Digit::from_bits(p, n), d);
        prop_assert!(!(p && n), "canonical encoding never sets both bits");
    }
}
