//! Property-based tests for the arithmetic operators: exactness of the
//! online adder, accuracy invariants of every multiplier model, and the
//! conventional baselines.

use ola_arith::conventional::TcFormat;
use ola_arith::online::{bittrue_mult, bs_add, online_mult, Selection, StagedMultiplier};
use ola_redundant::{BsVector, Digit, SdNumber, Q};
use proptest::prelude::*;

fn digit_strategy() -> impl Strategy<Value = Digit> {
    prop_oneof![Just(Digit::NegOne), Just(Digit::Zero), Just(Digit::One)]
}

fn sd_strategy(len: usize) -> impl Strategy<Value = SdNumber> {
    prop::collection::vec(digit_strategy(), len).prop_map(SdNumber::new)
}

fn sd_pair(max_len: usize) -> impl Strategy<Value = (SdNumber, SdNumber)> {
    (1..=max_len).prop_flat_map(|n| (sd_strategy(n), sd_strategy(n)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn online_adder_is_exact((x, y) in sd_pair(24)) {
        let z = bs_add(&BsVector::from_sd(&x), &BsVector::from_sd(&y));
        prop_assert_eq!(z.value(), x.value() + y.value());
    }

    #[test]
    fn online_adder_handles_shifted_windows((x, y) in sd_pair(16), k in -3i32..=3) {
        let a = BsVector::from_sd(&x);
        let b = BsVector::from_sd(&y).shifted(k);
        let z = bs_add(&a, &b);
        prop_assert_eq!(z.value(), a.value() + b.value());
    }

    #[test]
    fn golden_multiplier_meets_accuracy_bound((x, y) in sd_pair(20)) {
        let n = x.len() as u32;
        for (policy, c) in [(Selection::Exact, Q::ONE), (Selection::default(), Q::new(3, 1))] {
            let p = online_mult(&x, &y, policy);
            let err = (x.value() * y.value() - p.value()).abs();
            prop_assert!(err <= c >> (n + 1), "{policy:?}");
            // Exact invariant relating error and residual.
            prop_assert_eq!(x.value() * y.value() - p.value(), p.error());
        }
    }

    #[test]
    fn bittrue_equals_its_own_invariant((x, y) in sd_pair(16)) {
        let n = x.len() as u32;
        let p = bittrue_mult(&x, &y, Selection::default());
        prop_assert!(p.stages.iter().all(|s| !s.saturated));
        prop_assert_eq!(
            x.value() * y.value() - p.value(),
            p.residual.value() >> (n + 1)
        );
    }

    #[test]
    fn staged_settles_to_bittrue((x, y) in sd_pair(12)) {
        let bt = bittrue_mult(&x, &y, Selection::default());
        let sm = StagedMultiplier::new(x, y, Selection::default());
        let settled = sm.settled();
        prop_assert_eq!(settled.digits(), &bt.digits[..]);
        prop_assert!(sm.settling_ticks() <= sm.stage_count());
    }

    #[test]
    fn undersampled_error_is_bounded_by_remaining_digit_weight((x, y) in sd_pair(12), b in 4usize..16) {
        let sm = StagedMultiplier::new(x, y, Selection::default());
        let correct = sm.settled().value();
        let sampled = sm.sample(b).value();
        // Digits j ≤ b−1−δ are final after b waves; the rest carry at most
        // weight 4·2^-(b-δ) in total (each |Δz| ≤ 2).
        let envelope = Q::new(4, 0) >> (b as u32).saturating_sub(4);
        prop_assert!((sampled - correct).abs() <= envelope);
    }

    #[test]
    fn multiplication_is_commutative_in_value((x, y) in sd_pair(14)) {
        let xy = online_mult(&x, &y, Selection::Exact);
        let yx = online_mult(&y, &x, Selection::Exact);
        // Digit streams may differ, but both sit within the bound of the
        // same exact product; their difference is at most two residuals.
        let diff = (xy.value() - yx.value()).abs();
        prop_assert!(diff <= Q::new(1, x.len() as u32));
    }

    #[test]
    fn tc_round_trip(raw in -256i64..256) {
        let fmt = TcFormat::new(8);
        let bits = fmt.encode_raw(raw);
        prop_assert_eq!(fmt.decode_raw(&bits), raw);
    }

    #[test]
    fn tc_quantize_is_within_half_ulp(num in -1000i128..1000) {
        let fmt = TcFormat::new(6);
        let v = Q::new(num, 10);
        let q = fmt.quantize(v);
        // Clamped at the range edge; otherwise within half an ulp.
        if q > Q::new(-1, 0) && q < Q::new(63, 6) {
            prop_assert!((q - v).abs() <= Q::new(1, 7));
        }
    }

}

/// Every generated netlist family must come out of its generator
/// lint-clean — the generators prune their own dead logic, and the lint
/// pass ([`ola_netlist::sta::lint::check`]) is the machine check.
mod generated_netlists_are_lint_clean {
    use ola_arith::synth::{array_multiplier, online_adder, online_multiplier};
    use ola_netlist::sta::lint::check;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn online_operators(n in 4usize..14) {
            let issues = check(&online_multiplier(n, 3).netlist);
            prop_assert!(issues.is_empty(), "online mult N={n}: {issues:?}");
            let issues = check(&online_adder(n).netlist);
            prop_assert!(issues.is_empty(), "online adder N={n}: {issues:?}");
        }

        #[test]
        fn conventional_multipliers(w in 2usize..14) {
            let issues = check(&array_multiplier(w).netlist);
            prop_assert!(issues.is_empty(), "array mult W={w}: {issues:?}");
        }
    }
}
