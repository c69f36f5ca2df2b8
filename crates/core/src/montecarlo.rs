//! Monte-Carlo engines over the stage-wave timing model.
//!
//! These produce the empirical curves the paper verifies its model against
//! (Figure 4 top row, Figure 5's simulated counterparts): sample random
//! operands, run the staged multiplier's settling wave, and record what a
//! register would capture at every stage budget `b`.

use crate::parallel::parallel_accumulate_batched;
use ola_arith::online::{Selection, StagedMultiplier, DELTA};
use ola_redundant::{random, SdNumber, Q};
use rand::Rng;

/// Operand distribution for Monte-Carlo runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InputModel {
    /// Digits i.i.d. uniform over {−1, 0, 1} — the model's assumption.
    #[default]
    UniformDigits,
    /// Values uniform over the representable range, canonically encoded —
    /// the paper's "Uniform Independent (UI) inputs".
    UniformValue,
    /// Non-negative uniform values (normalized image pixels).
    NonNegValue,
}

impl InputModel {
    /// Draws one operand.
    pub fn draw<R: Rng + ?Sized>(self, rng: &mut R, n: usize) -> SdNumber {
        match self {
            InputModel::UniformDigits => random::uniform_digits(rng, n),
            InputModel::UniformValue => random::uniform_value(rng, n),
            InputModel::NonNegValue => random::uniform_nonneg_value(rng, n),
        }
    }
}

/// Mean overclocking error and violation rate per stage budget.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct OverclockingCurve {
    /// Operand digit count.
    pub n: usize,
    /// `mean_abs_error[b]` — mean `|sampled − correct|` at stage budget `b`.
    pub mean_abs_error: Vec<f64>,
    /// `violation_rate[b]` — fraction of samples whose output was wrong.
    pub violation_rate: Vec<f64>,
    /// Number of samples.
    pub samples: usize,
}

impl OverclockingCurve {
    /// Number of stage budgets covered (0 ..= N+δ).
    #[must_use]
    pub fn budgets(&self) -> usize {
        self.mean_abs_error.len()
    }

    /// Iterator of `(b, normalized_ts, mean_error, violation_rate)` where
    /// `normalized_ts = b / (N + δ)` (periods normalized to structural).
    pub fn points(&self) -> impl Iterator<Item = (usize, f64, f64, f64)> + '_ {
        let total = (self.n + DELTA) as f64;
        self.mean_abs_error
            .iter()
            .zip(&self.violation_rate)
            .enumerate()
            .map(move |(b, (&e, &v))| (b, b as f64 / total, e, v))
    }
}

#[derive(Clone)]
struct CurveAcc {
    err: Vec<f64>,
    viol: Vec<u64>,
    settle_count: Vec<u64>,
    settle_err: Vec<f64>,
    samples: usize,
}

impl CurveAcc {
    fn new(budgets: usize) -> Self {
        CurveAcc {
            err: vec![0.0; budgets],
            viol: vec![0; budgets],
            settle_count: vec![0; budgets],
            settle_err: vec![0.0; budgets],
            samples: 0,
        }
    }

    fn merge(mut self, other: &CurveAcc) -> CurveAcc {
        for i in 0..self.err.len() {
            self.err[i] += other.err[i];
            self.viol[i] += other.viol[i];
            self.settle_count[i] += other.settle_count[i];
            self.settle_err[i] += other.settle_err[i];
        }
        self.samples += other.samples;
        self
    }
}

/// Full Monte-Carlo sweep of an `n`-digit online multiplier: overclocking
/// curve plus the empirical settling/per-delay profile, in one pass.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct OmMonteCarlo {
    /// Error and violation rate per stage budget.
    pub curve: OverclockingCurve,
    /// Empirical per-delay profile (Figure 5's simulated counterpart).
    pub profile: Vec<EmpiricalDelayPoint>,
}

/// Empirical statistics of samples whose output settled after exactly
/// `delay` waves.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub struct EmpiricalDelayPoint {
    /// Settling delay in units of μ.
    pub delay: usize,
    /// Fraction of samples settling at exactly this delay.
    pub probability: f64,
    /// Mean `|error|` when sampled one wave early (`b = delay − 1`).
    pub error_magnitude: f64,
}

impl EmpiricalDelayPoint {
    /// Probability × magnitude — the per-delay error expectation.
    #[must_use]
    pub fn expectation(&self) -> f64 {
        self.probability * self.error_magnitude
    }
}

/// Runs the Monte-Carlo sweep.
///
/// # Panics
///
/// Panics if `n == 0` or `samples == 0`.
#[must_use]
pub fn om_monte_carlo(
    n: usize,
    policy: Selection,
    model: InputModel,
    samples: usize,
    seed: u64,
) -> OmMonteCarlo {
    assert!(n > 0 && samples > 0);
    let _span = crate::obs::span("mc.sweep");
    crate::obs::registry().counter("ola.mc.samples").add(samples as u64);
    let budgets = n + DELTA + 1;
    let acc = parallel_accumulate_batched(
        samples,
        seed,
        1,
        || CurveAcc::new(budgets),
        |rng| StagedMultiplier::new(model.draw(rng, n), model.draw(rng, n), policy),
        |group: &[StagedMultiplier], acc| {
            for sm in group {
                crate::resilience::check_cancelled();
                let vals: Vec<Q> = sm.sampled_values();
                let correct = *vals.last().expect("history non-empty");
                let mut settle = 0usize;
                for b in 0..budgets {
                    let v = vals.get(b).copied().unwrap_or(correct);
                    let e = (v - correct).abs().to_f64();
                    acc.err[b] += e;
                    if v != correct {
                        acc.viol[b] += 1;
                        settle = b + 1;
                    }
                }
                acc.settle_count[settle.min(budgets - 1)] += 1;
                if settle > 0 {
                    let v = vals.get(settle - 1).copied().unwrap_or(correct);
                    acc.settle_err[settle.min(budgets - 1)] += (v - correct).abs().to_f64();
                }
                acc.samples += 1;
            }
        },
        CurveAcc::merge,
    );

    let s = acc.samples as f64;
    let curve = OverclockingCurve {
        n,
        mean_abs_error: acc.err.iter().map(|&e| e / s).collect(),
        violation_rate: acc.viol.iter().map(|&v| v as f64 / s).collect(),
        samples: acc.samples,
    };
    let profile = (1..budgets)
        .filter(|&d| acc.settle_count[d] > 0)
        .map(|d| EmpiricalDelayPoint {
            delay: d,
            probability: acc.settle_count[d] as f64 / s,
            error_magnitude: acc.settle_err[d] / acc.settle_count[d] as f64,
        })
        .collect();
    OmMonteCarlo { curve, profile }
}

/// The maximum settling delay observed over `samples` random draws — an
/// empirical check of the chain-analysis worst case
/// ([`chain_worst_case_delay`](crate::timing::chain_worst_case_delay)).
#[must_use]
pub fn max_observed_settling(
    n: usize,
    policy: Selection,
    model: InputModel,
    samples: usize,
    seed: u64,
) -> usize {
    parallel_accumulate_batched(
        samples,
        seed,
        1,
        || 0usize,
        |rng| StagedMultiplier::new(model.draw(rng, n), model.draw(rng, n), policy),
        |group: &[StagedMultiplier], acc| {
            for sm in group {
                crate::resilience::check_cancelled();
                *acc = (*acc).max(sm.settling_ticks());
            }
        },
        |a, b| a.max(*b),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing;

    #[test]
    fn error_curve_is_monotone_and_vanishes() {
        let mc = om_monte_carlo(8, Selection::default(), InputModel::UniformDigits, 400, 1);
        let e = &mc.curve.mean_abs_error;
        // Vanishes at the structural budget.
        assert_eq!(*e.last().unwrap(), 0.0);
        assert_eq!(*mc.curve.violation_rate.last().unwrap(), 0.0);
        // Large when sampled immediately, decaying overall.
        assert!(e[0] > 0.0);
        assert!(e[e.len() - 2] <= e[1]);
    }

    #[test]
    fn violation_rate_bounds() {
        let mc = om_monte_carlo(8, Selection::default(), InputModel::UniformValue, 300, 2);
        for &v in &mc.curve.violation_rate {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn profile_probabilities_sum_to_at_most_one() {
        let mc = om_monte_carlo(8, Selection::default(), InputModel::UniformDigits, 500, 3);
        let total: f64 = mc.profile.iter().map(|p| p.probability).sum();
        assert!(total <= 1.0 + 1e-9);
        assert!(total > 0.5, "most samples need at least one wave");
    }

    #[test]
    fn deeper_settling_has_smaller_cutoff_error() {
        // Figure 5's mechanism, observed empirically: late-settling samples
        // have their last error in low-weight digits.
        let mc = om_monte_carlo(12, Selection::default(), InputModel::UniformDigits, 1500, 4);
        let first = mc.profile.iter().find(|p| p.probability > 0.01).unwrap();
        let last = mc.profile.iter().rev().find(|p| p.probability > 0.001).unwrap();
        assert!(
            last.error_magnitude < first.error_magnitude,
            "late chains must hurt less: {:?} vs {:?}",
            first,
            last
        );
    }

    #[test]
    fn observed_settling_respects_chain_worst_case() {
        for n in [8usize, 9, 12] {
            let max =
                max_observed_settling(n, Selection::default(), InputModel::UniformDigits, 800, 5);
            let bound = timing::chain_worst_case_delay(n, 1) as usize;
            // The paper's bound is on residual-chain delay; selection adds
            // at most one extra wave of latency in our stage-wave model.
            assert!(max <= bound + 1, "n={n}: observed {max} exceeds chain bound {bound} + 1");
            // And the structural bound is never exceeded.
            assert!(max <= n + DELTA);
        }
    }

    #[test]
    fn reproducible_given_seed() {
        let a = om_monte_carlo(6, Selection::default(), InputModel::UniformDigits, 100, 7);
        let b = om_monte_carlo(6, Selection::default(), InputModel::UniformDigits, 100, 7);
        assert_eq!(a, b);
    }
}
