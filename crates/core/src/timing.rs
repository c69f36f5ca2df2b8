//! Clock-period bookkeeping for overclocked datapaths.
//!
//! The paper's timing model: every multiplier stage has delay `μ`; a clock
//! period `Ts` lets residual chains propagate through `b = ⌈Ts/μ⌉` stages
//! (Eq. (4)). Frequencies are always reported *normalized* — to the
//! structural (rated) period or to the maximum error-free period — because
//! absolute time units are uncalibrated in both the paper's FPGA and our
//! simulator.

use ola_arith::online::DELTA;

/// The stage budget `b = ⌈Ts/μ⌉` (Eq. (4)).
///
/// # Examples
///
/// ```
/// use ola_core::timing::stage_budget;
/// assert_eq!(stage_budget(500, 100), 5);
/// assert_eq!(stage_budget(501, 100), 6);
/// assert_eq!(stage_budget(99, 100), 1);
/// ```
///
/// # Panics
///
/// Panics if `mu == 0`.
#[must_use]
pub fn stage_budget(ts: u64, mu: u64) -> usize {
    assert!(mu > 0, "stage delay must be positive");
    (ts.div_ceil(mu)) as usize
}

/// The structural (worst-case-by-construction) delay of an `n`-digit online
/// multiplier: `(N + δ)·μ` — what naive structural timing analysis reports.
#[must_use]
pub fn structural_delay(n: usize, mu: u64) -> u64 {
    (n + DELTA) as u64 * mu
}

/// The *actual* worst-case delay of an `n`-digit online multiplier from the
/// paper's chain analysis: chains annihilate, so
/// `μ_OM = (⌊(N−1)/2⌋ + 4)·μ` — strictly less than the structural bound for
/// `N > 7`. This gap is "free" overclocking headroom.
///
/// Static timing analysis of the *synthesized* netlists
/// ([`ola_netlist::sta::analyze`]) lands on [`structural_delay`], not on
/// this bound: chain annihilation is a data-dependent effect no structural
/// pass can certify. The golden test `golden_sta.rs` pins the
/// correspondence — under [`UnitDelay`](ola_netlist::UnitDelay) the
/// netlists rate at `structural_delay(n, 3900) − 1900` (a constant 39
/// gate-levels per digit stage plus a pipeline-head offset), so the
/// formula-vs-netlist gap *is* the structural-vs-chain gap, and it widens
/// linearly with `N`.
#[must_use]
pub fn chain_worst_case_delay(n: usize, mu: u64) -> u64 {
    assert!(n >= 1);
    let stages = (n - 1) / 2 + 4;
    (stages as u64 * mu).min(structural_delay(n, mu))
}

/// Normalized frequency `f/f0 = T0/Ts`.
#[must_use]
pub fn normalized_frequency(ts: u64, t0: u64) -> f64 {
    t0 as f64 / ts as f64
}

/// The period achieving a given normalized frequency: `Ts = T0 / nf`
/// (rounded to the nearest time unit).
#[must_use]
pub fn period_for_normalized_frequency(t0: u64, nf: f64) -> u64 {
    assert!(nf > 0.0, "normalized frequency must be positive");
    ((t0 as f64 / nf).round() as u64).max(1)
}

/// Relative frequency improvement in percent when the period shrinks from
/// `t_base` to `t_fast`: `(t_base/t_fast − 1) × 100`.
///
/// # Panics
///
/// Panics if `t_fast == 0`.
#[must_use]
pub fn frequency_speedup_percent(t_base: u64, t_fast: u64) -> f64 {
    assert!(t_fast > 0, "period must be positive");
    (t_base as f64 / t_fast as f64 - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_budget_is_ceiling() {
        assert_eq!(stage_budget(100, 100), 1);
        assert_eq!(stage_budget(101, 100), 2);
        assert_eq!(stage_budget(1, 100), 1);
        assert_eq!(stage_budget(0, 100), 0);
    }

    #[test]
    fn structural_delay_counts_all_stages() {
        assert_eq!(structural_delay(8, 100), 1100);
        assert_eq!(structural_delay(12, 1), 15);
    }

    #[test]
    fn chain_bound_matches_paper_formula() {
        // Paper: μ_OM = (N−1)/2 + 4 for odd N, (N−2)/2 + 4 for even N
        // (both equal ⌊(N−1)/2⌋ + 4).
        assert_eq!(chain_worst_case_delay(9, 1), 8); // (9−1)/2 + 4
        assert_eq!(chain_worst_case_delay(8, 1), 7); // (8−2)/2 + 4
        assert_eq!(chain_worst_case_delay(32, 1), 19);
        // For very small N the structural bound is the binding one.
        assert!(chain_worst_case_delay(2, 1) <= structural_delay(2, 1));
    }

    #[test]
    fn headroom_grows_with_width() {
        for n in [8usize, 12, 16, 32] {
            let gap = structural_delay(n, 100) - chain_worst_case_delay(n, 100);
            assert!(gap > 0, "n={n}");
        }
        let gap8 = structural_delay(8, 100) - chain_worst_case_delay(8, 100);
        let gap32 = structural_delay(32, 100) - chain_worst_case_delay(32, 100);
        assert!(gap32 > gap8);
    }

    #[test]
    fn normalized_frequency_round_trips() {
        let t0 = 1100;
        for nf in [1.0, 1.05, 1.10, 1.25] {
            let ts = period_for_normalized_frequency(t0, nf);
            let back = normalized_frequency(ts, t0);
            assert!((back - nf).abs() < 0.01, "nf={nf} back={back}");
        }
    }

    #[test]
    fn speedup_percent() {
        assert!((frequency_speedup_percent(110, 100) - 10.0).abs() < 1e-9);
        assert_eq!(frequency_speedup_percent(100, 100), 0.0);
        assert!(frequency_speedup_percent(90, 100) < 0.0);
    }
}
