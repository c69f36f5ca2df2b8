//! The paper's probabilistic model of overclocking error (Section 3).
//!
//! A residual chain generated at stage `τ` with length `d(τ)` causes a
//! timing violation when sampled with stage budget `b < d(τ)` (Eqs. (5–7)).
//! Chain generation depends on the digit pair appended at `τ`
//! (cases `C1..C4`, Eq. (8), probabilities 1/9, 4/9, 2/9, 2/9 under
//! digit-uniform inputs); the chain's length equals the word length of the
//! residual it creates (Eqs. (9–10)), shrinking by one per stage until it
//! annihilates. A violated chain that would annihilate at stage
//! `λ = τ + d − 1` corrupts output digits `λ..N−1`, an error of magnitude
//! `≈ 2^-(λ+1)` (Eq. (11)); Algorithm 2 accumulates the scenario
//! probabilities and Eq. (12) combines them into the expected overclocking
//! error.
//!
//! Where the paper is ambiguous we chose the reading that matches the
//! stage-wave Monte-Carlo (see `DESIGN.md` §4 and the `model_verification`
//! experiment):
//!
//! * the `C3`/`C4` recursion is folded into a geometric distribution over
//!   the distance `k` to the most recent nonzero appended digit
//!   (`P(k) = (2/3)·(1/3)^{k-1}`), truncated at stage `−δ`;
//! * at `τ = −δ` only the both-digits-nonzero case generates a chain (we
//!   read the paper's "C(−δ) = C_1" as a typo for `C_2`);
//! * overlapping chains are treated independently; the violation
//!   probability offers both the union-bound and the independent-stage
//!   composition.

use ola_arith::online::DELTA;

/// One chain-generation scenario enumerated by the model.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub struct ChainScenario {
    /// Stage at which the chain is generated.
    pub tau: i32,
    /// Chain length in stages (= delay in units of μ).
    pub length: usize,
    /// Scenario probability under digit-uniform inputs.
    pub probability: f64,
}

impl ChainScenario {
    /// The modelled error magnitude if this chain is cut off at its
    /// annihilation stage `λ = τ + d − 1`: digits `λ..N−1` may be wrong,
    /// dominated by digit `λ` of weight `2^-(λ+1)` (Eq. (11)).
    #[must_use]
    pub fn error_magnitude(&self) -> f64 {
        let lambda = self.tau + self.length as i32 - 1;
        (-(lambda as f64 + 1.0)).exp2()
    }
}

/// Enumerates every chain-generation scenario of an `n`-digit online
/// multiplier under digit-uniform inputs.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn chain_scenarios(n: usize) -> Vec<ChainScenario> {
    assert!(n > 0);
    let delta = DELTA as i32;
    let n_i = n as i32;
    let mut out = Vec::new();
    for tau in -delta..n_i {
        let cap = (n_i - 1 - tau).max(0) as usize; // Eq. (7): cannot pass stage N−1
        let word = (tau + 2 * delta + 1).max(0) as usize; // Eq. (9): D = τ+2δ+1
        if tau == -delta {
            // First stage: P[−δ+1] = 2^{−δ+1}·x₁·Y[−δ+1]; a chain needs both
            // first digits nonzero (probability 4/9).
            let d = word.min(cap);
            if d > 0 {
                out.push(ChainScenario { tau, length: d, probability: 4.0 / 9.0 });
            }
            continue;
        }
        // C2: both appended digits nonzero — maximum word length.
        let d = word.min(cap);
        if d > 0 {
            out.push(ChainScenario { tau, length: d, probability: 4.0 / 9.0 });
        }
        // C3/C4 (combined probability 4/9): one appended digit zero; the
        // live operand prefix is shorter by k, the distance to the most
        // recent nonzero digit of the zero side (geometric, truncated at the
        // operand MSD).
        let max_k = (tau + delta) as usize; // digits τ+δ … 1 can be zero
        for k in 1..=max_k {
            let p_k = (4.0 / 9.0) * (2.0 / 3.0) * (1.0f64 / 3.0).powi(k as i32 - 1);
            let d = word.saturating_sub(k).min(cap);
            if d > 0 {
                out.push(ChainScenario { tau, length: d, probability: p_k });
            }
        }
        // All previous digits zero → the prefix is zero → no chain.
    }
    out
}

/// Probability that *some* chain exceeds the stage budget `b` — Algorithm 2
/// with the union-bound composition (clamped at 1).
#[must_use]
pub fn violation_probability_union(n: usize, b: usize) -> f64 {
    let p: f64 = chain_scenarios(n).iter().filter(|s| s.length > b).map(|s| s.probability).sum();
    p.min(1.0)
}

/// Probability of a timing violation treating the per-stage chain events as
/// independent: `1 − Π (1 − p_τ(d > b))`.
#[must_use]
pub fn violation_probability_independent(n: usize, b: usize) -> f64 {
    let delta = DELTA as i32;
    let mut survive = 1.0f64;
    for tau in -delta..n as i32 {
        let p_tau: f64 = chain_scenarios(n)
            .iter()
            .filter(|s| s.tau == tau && s.length > b)
            .map(|s| s.probability)
            .sum();
        survive *= 1.0 - p_tau.min(1.0);
    }
    1.0 - survive
}

/// Eq. (12): the expected overclocking error at stage budget `b`,
/// `E_ovc = Σ_{d > b} P_d · ε_d`. `gamma` scales the per-digit error
/// magnitude (`E|z − z'|`, between 1 and 2; 1.0 by default — calibrated
/// against Monte-Carlo in the `model_verification` experiment).
#[must_use]
pub fn expected_error(n: usize, b: usize, gamma: f64) -> f64 {
    chain_scenarios(n)
        .iter()
        .filter(|s| s.length > b)
        .map(|s| s.probability * gamma * s.error_magnitude())
        .sum()
}

/// One point of the Figure-5 profile: chains of one specific delay.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub struct ChainDelayPoint {
    /// Chain delay `d` in units of μ.
    pub delay: usize,
    /// Probability that a chain of exactly this delay is generated.
    pub probability: f64,
    /// Mean error magnitude of those chains when cut off.
    pub error_magnitude: f64,
}

impl ChainDelayPoint {
    /// The delay's contribution to the error expectation (probability ×
    /// magnitude) — the third curve of Figure 5.
    #[must_use]
    pub fn expectation(&self) -> f64 {
        self.probability * self.error_magnitude
    }
}

/// The per-delay profile of Figure 5: `P_d`, `ε_d` and their product for
/// every chain delay occurring in an `n`-digit multiplier.
#[must_use]
pub fn chain_delay_profile(n: usize) -> Vec<ChainDelayPoint> {
    let scenarios = chain_scenarios(n);
    let max_d = scenarios.iter().map(|s| s.length).max().unwrap_or(0);
    (1..=max_d)
        .map(|d| {
            let of_d: Vec<&ChainScenario> = scenarios.iter().filter(|s| s.length == d).collect();
            let probability: f64 = of_d.iter().map(|s| s.probability).sum();
            let error_magnitude = if probability > 0.0 {
                of_d.iter().map(|s| s.probability * s.error_magnitude()).sum::<f64>() / probability
            } else {
                0.0
            };
            ChainDelayPoint { delay: d, probability, error_magnitude }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_probabilities_are_plausible() {
        for s in chain_scenarios(8) {
            assert!(s.probability > 0.0 && s.probability <= 4.0 / 9.0);
            assert!(s.length >= 1);
            assert!(s.tau >= -(DELTA as i32) && s.tau < 8);
        }
    }

    #[test]
    fn chain_lengths_respect_both_bounds() {
        let delta = DELTA as i32;
        for s in chain_scenarios(12) {
            assert!(s.length as i32 <= s.tau + 2 * delta + 1, "word-length bound");
            assert!(s.length as i32 <= 12 - 1 - s.tau, "stage bound");
        }
    }

    #[test]
    fn longest_chain_matches_paper_worst_case() {
        // max_τ min(τ+2δ+1, N−1−τ) — the annihilation-aware critical path.
        for n in [8usize, 9, 12, 16, 32] {
            let max_len = chain_scenarios(n).iter().map(|s| s.length).max().unwrap();
            let expected = (-(DELTA as i32)..n as i32)
                .map(|t| ((t + 7).min(n as i32 - 1 - t)).max(0))
                .max()
                .unwrap() as usize;
            assert_eq!(max_len, expected, "n={n}");
        }
    }

    #[test]
    fn violation_probability_is_monotone_in_budget() {
        for n in [8usize, 12] {
            let mut last = f64::INFINITY;
            for b in 0..(n + DELTA) {
                let p = violation_probability_union(n, b);
                assert!(p <= last + 1e-12, "n={n} b={b}");
                assert!((0.0..=1.0).contains(&p));
                last = p;
            }
            // Sampling after the longest chain: no violations.
            assert_eq!(violation_probability_union(n, n + DELTA), 0.0);
        }
    }

    #[test]
    fn independent_composition_is_below_union() {
        for b in 0..10 {
            let u = violation_probability_union(12, b);
            let i = violation_probability_independent(12, b);
            assert!(i <= u + 1e-12, "b={b}: {i} > {u}");
            assert!((0.0..=1.0).contains(&i));
        }
    }

    #[test]
    fn expected_error_decreases_with_budget() {
        let mut last = f64::INFINITY;
        for b in 0..16 {
            let e = expected_error(12, b, 1.0);
            assert!(e <= last + 1e-15, "b={b}");
            assert!(e >= 0.0);
            last = e;
        }
    }

    #[test]
    fn error_magnitude_decays_exponentially_with_delay() {
        // Figure 5, middle curve: past its peak (short delays only arise
        // from late, low-weight stages), ε_d shrinks geometrically with d.
        let profile = chain_delay_profile(16);
        let eps: Vec<f64> = profile.iter().map(|p| p.error_magnitude).collect();
        let peak =
            eps.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap();
        for w in eps[peak..].windows(2) {
            assert!(w[1] < w[0], "ε_d must decay past the peak: {eps:?}");
        }
        // And by a large overall factor.
        assert!(eps[peak] / *eps.last().unwrap() > 100.0);
    }

    #[test]
    fn per_delay_expectation_declines_for_long_chains() {
        // Figure 5's key observation: probability grows slower than the
        // magnitude shrinks, so the expectation falls for long chains.
        let profile = chain_delay_profile(16);
        let last = profile.last().unwrap();
        let mid = &profile[profile.len() / 2];
        assert!(last.expectation() < mid.expectation());
    }

    #[test]
    fn gamma_scales_linearly() {
        let e1 = expected_error(8, 4, 1.0);
        let e2 = expected_error(8, 4, 2.0);
        assert!((e2 - 2.0 * e1).abs() < 1e-15);
    }
}
