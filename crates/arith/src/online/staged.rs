//! Stage-wave timing model of the unrolled online multiplier.
//!
//! Section 3 of the paper models "the delay of each stage within an online
//! multiplier to be a constant value μ" and asks what a register sampling
//! the outputs after `b = ⌈Ts/μ⌉` stage delays (Eq. (4)) captures. This
//! module implements that timing semantics exactly: the multiplier is a
//! cascade of `N + δ` stages, every stage is a delay-μ element, all
//! residuals start at zero (the paper's reset assumption), and the cascade
//! is iterated as a synchronous wave — after `k` waves, stage `j`'s outputs
//! reflect residual propagation through at most `k` stages.
//!
//! * wave `k = N + δ` (or a detected fixpoint) ⇒ the settled, correct
//!   product — identical to [`bittrue_mult`](crate::online::bittrue_mult);
//! * wave `k = b < settling` ⇒ the overclocked sample, with exactly the
//!   truncated-chain errors the paper's probabilistic model describes.
//!
//! [`StagedMultiplier::step`] and [`StagedMultiplier::sample`] are the
//! reference: every stage recomputes on every wave. The methods that run
//! to the fixpoint ([`history`](StagedMultiplier::history),
//! [`sampled_values`](StagedMultiplier::sampled_values),
//! [`settling_ticks`](StagedMultiplier::settling_ticks),
//! [`settled`](StagedMultiplier::settled)) share one incremental loop that
//! yields the same states. It hoists each stage's operand term
//! `H[j] = 2^-δ(A + B)` out of the wave loop, since it depends only on the
//! operands and `j`, and after the first wave it re-evaluates a stage only
//! if its input residual changed on the previous wave. A residual change
//! moves one stage per wave, so `p[s]` is final after `s` waves and every
//! stage behind the wave front is skipped: on random operands the loop
//! runs about half the residual evaluations of the full wave, and builds
//! each `H[j]` once instead of once per wave.

use crate::online::bittrue::{digits_value, stage_operand_term, stage_residual};
use crate::online::{om_stage, Selection, DELTA};
use ola_redundant::{BsVector, Digit, SdNumber, Q};

/// The unrolled multiplier viewed as a cascade of delay-μ stages.
#[derive(Clone, Debug)]
pub struct StagedMultiplier {
    x: SdNumber,
    y: SdNumber,
    policy: Selection,
}

/// The state of every inter-stage residual and output digit after some
/// number of wave steps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaveState {
    /// `p[s]` = residual entering stage `s` (stage 0 is `j = −δ`).
    p: Vec<BsVector>,
    /// `z[s]` = output digit of stage `s` as currently latched.
    z: Vec<Digit>,
}

impl WaveState {
    /// The output digits `z_{−δ} ..= z_{N−1}` currently visible.
    #[must_use]
    pub fn digits(&self) -> &[Digit] {
        &self.z
    }

    /// The value of the currently visible output digits.
    #[must_use]
    pub fn value(&self) -> Q {
        digits_value(&self.z)
    }
}

impl StagedMultiplier {
    /// A staged multiplier for equal-length operands.
    ///
    /// # Panics
    ///
    /// Panics if the operands differ in length or are empty.
    #[must_use]
    pub fn new(x: SdNumber, y: SdNumber, policy: Selection) -> Self {
        assert_eq!(x.len(), y.len(), "operands must have equal digit counts");
        assert!(!x.is_empty(), "operands must be non-empty");
        StagedMultiplier { x, y, policy }
    }

    /// Number of stages, `N + δ`.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.x.len() + DELTA
    }

    /// The reset state: every residual and output digit is zero.
    #[must_use]
    pub fn initial(&self) -> WaveState {
        WaveState {
            p: vec![BsVector::zero(0, 0); self.stage_count() + 1],
            z: vec![Digit::Zero; self.stage_count()],
        }
    }

    /// One synchronous wave step: every stage recomputes from the residual
    /// its predecessor produced on the *previous* step (each stage is one μ
    /// of delay).
    #[must_use]
    pub fn step(&self, state: &WaveState) -> WaveState {
        let delta = DELTA as i32;
        let count = self.stage_count();
        let mut p = Vec::with_capacity(count + 1);
        let mut z = Vec::with_capacity(count);
        p.push(BsVector::zero(0, 0));
        for s in 0..count {
            let j = s as i32 - delta;
            let io = om_stage(&self.x, &self.y, j, &state.p[s], self.policy);
            p.push(io.p_out);
            z.push(io.z);
        }
        WaveState { p, z }
    }

    /// Runs `ticks` wave steps from reset and returns the sampled state —
    /// what registers clocked at `Ts = ticks · μ` capture.
    #[must_use]
    pub fn sample(&self, ticks: usize) -> WaveState {
        let mut s = self.initial();
        for _ in 0..ticks {
            s = self.step(&s);
        }
        s
    }

    /// Runs to the fixpoint and returns every intermediate state:
    /// `history()[k]` is the state after `k` waves (`history()[0]` is the
    /// reset state, the last entry is settled).
    ///
    /// The fixpoint is always reached within `N + δ + 1` steps.
    #[must_use]
    pub fn history(&self) -> Vec<WaveState> {
        let mut out = Vec::new();
        self.run_waves(|state, _| out.push(state.clone()));
        out
    }

    /// The settled (timing-violation-free) state.
    #[must_use]
    pub fn settled(&self) -> WaveState {
        self.run_waves(|_, _| {})
    }

    /// Number of wave steps until the *output digits* stop changing — the
    /// multiplier's actual settling time in units of μ for these operands.
    /// Sampling with `b ≥ settling_ticks()` is error-free.
    #[must_use]
    pub fn settling_ticks(&self) -> usize {
        let (mut wave, mut last_change) = (0, 0);
        self.run_waves(|_, z_changed| {
            if z_changed {
                last_change = wave;
            }
            wave += 1;
        });
        last_change
    }

    /// The per-tick sampled values: entry `b` is the output value when
    /// sampled after `b` waves. The last entry is the correct product.
    #[must_use]
    pub fn sampled_values(&self) -> Vec<Q> {
        let mut out: Vec<Q> = Vec::new();
        self.run_waves(|state, z_changed| {
            let value = match out.last() {
                Some(&last) if !z_changed => last,
                _ => state.value(),
            };
            out.push(value);
        });
        out
    }

    /// The incremental wave loop behind [`history`](Self::history) and its
    /// siblings. It calls `on_wave(state, z_changed)` for the reset state
    /// and for every wave up to the fixpoint, where `z_changed` says
    /// whether any output digit changed on that wave, then returns the
    /// settled state.
    ///
    /// Each stage's operand term `H[j]` is built once. The first wave
    /// evaluates every stage. After it, a stage runs only if its input
    /// residual `p[s]` changed on the previous wave: the residual half of a
    /// stage is a pure function of `(H[j], p[s])`, so a stage with an
    /// unchanged input keeps its latched `p[s+1]` and `z[s]`. Stages run
    /// from the last to the first, so stage `s` still reads the `p[s]` of
    /// the previous wave when it overwrites `p[s+1]`. A wave that changes
    /// nothing is the fixpoint. The result is the state sequence of
    /// [`step`](Self::step), state for state.
    fn run_waves(&self, mut on_wave: impl FnMut(&WaveState, bool)) -> WaveState {
        let count = self.stage_count();
        let delta = DELTA as i32;
        let h: Vec<BsVector> =
            (0..count).map(|s| stage_operand_term(&self.x, &self.y, s as i32 - delta)).collect();
        let mut state = self.initial();
        on_wave(&state, false);
        // changed[s]: p[s] changed on the previous wave (p[0] never does).
        let mut changed = vec![false; count + 1];
        for wave in 1.. {
            let (mut any_p, mut any_z) = (false, false);
            for s in (0..count).rev() {
                if wave > 1 && !changed[s] {
                    changed[s + 1] = false;
                    continue;
                }
                let io = stage_residual(&h[s], &state.p[s], self.policy);
                changed[s + 1] = io.p_out != state.p[s + 1];
                if changed[s + 1] {
                    state.p[s + 1] = io.p_out;
                    any_p = true;
                }
                if io.z != state.z[s] {
                    state.z[s] = io.z;
                    any_z = true;
                }
            }
            if !(any_p || any_z) {
                break;
            }
            assert!(wave <= count + 1, "wave failed to settle within N + δ + 1 steps");
            on_wave(&state, any_z);
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::bittrue_mult;
    use ola_redundant::random;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn mk(n: usize, seed: u64) -> (SdNumber, SdNumber) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (random::uniform_digits(&mut rng, n), random::uniform_digits(&mut rng, n))
    }

    #[test]
    fn settled_state_matches_bittrue() {
        for (n, seed) in [(4usize, 1u64), (8, 2), (8, 3), (12, 4), (16, 5)] {
            let (x, y) = mk(n, seed);
            let sm = StagedMultiplier::new(x.clone(), y.clone(), Selection::default());
            let settled = sm.settled();
            let bt = bittrue_mult(&x, &y, Selection::default());
            assert_eq!(settled.digits(), &bt.digits[..], "n={n} seed={seed}");
            assert_eq!(settled.value(), bt.value());
        }
    }

    #[test]
    fn settles_within_stage_count_waves() {
        for (n, seed) in [(4usize, 11u64), (8, 12), (12, 13)] {
            let (x, y) = mk(n, seed);
            let sm = StagedMultiplier::new(x, y, Selection::default());
            assert!(sm.settling_ticks() <= sm.stage_count());
        }
    }

    #[test]
    fn sampling_after_settling_is_error_free() {
        let (x, y) = mk(8, 21);
        let sm = StagedMultiplier::new(x, y, Selection::default());
        let settle = sm.settling_ticks();
        let correct = sm.settled().value();
        for b in settle..=sm.stage_count() {
            assert_eq!(sm.sample(b).value(), correct, "b={b}");
        }
    }

    #[test]
    fn undersampling_errors_are_in_low_digits() {
        // The headline property: a too-early sample differs from the correct
        // product by at most the weight of the digits the truncated chains
        // could not update. With b ≥ δ+1 waves the first output digits are
        // correct, so the error is bounded by ~2^{-(b-δ-1)} — decaying
        // geometrically in b — while remaining nonzero for some b < settle.
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for _ in 0..40 {
            let x = random::uniform_digits(&mut rng, 12);
            let y = random::uniform_digits(&mut rng, 12);
            let sm = StagedMultiplier::new(x, y, Selection::default());
            let vals = sm.sampled_values();
            let correct = *vals.last().unwrap();
            for (b, v) in vals.iter().enumerate().skip(DELTA + 1) {
                let err = (*v - correct).abs();
                // Error bound: digits with weight ≥ 2^{-(b-δ)} have settled…
                // use a loose but meaningful geometric envelope.
                let envelope = Q::new(4, 0) >> (b as u32).saturating_sub(DELTA as u32 + 1);
                assert!(
                    err <= envelope,
                    "b={b}: error {} exceeds envelope {}",
                    err.to_f64(),
                    envelope.to_f64()
                );
            }
        }
    }

    #[test]
    fn initial_state_is_all_zero() {
        let (x, y) = mk(6, 41);
        let sm = StagedMultiplier::new(x, y, Selection::default());
        let s0 = sm.initial();
        assert_eq!(s0.value(), Q::ZERO);
        assert!(s0.digits().iter().all(|d| d.is_zero()));
        assert_eq!(sm.sample(0), s0);
    }

    #[test]
    fn zero_operands_settle_instantly() {
        let sm = StagedMultiplier::new(SdNumber::zero(8), SdNumber::zero(8), Selection::default());
        assert_eq!(sm.settling_ticks(), 0);
        assert_eq!(sm.settled().value(), Q::ZERO);
    }

    #[test]
    fn history_is_consistent_with_sample() {
        let (x, y) = mk(8, 51);
        let sm = StagedMultiplier::new(x, y, Selection::default());
        let hist = sm.history();
        for (k, state) in hist.iter().enumerate() {
            assert_eq!(sm.sample(k), *state, "tick {k}");
        }
    }

    #[test]
    fn exact_selection_also_settles() {
        let (x, y) = mk(8, 61);
        let sm = StagedMultiplier::new(x.clone(), y.clone(), Selection::Exact);
        let bt = bittrue_mult(&x, &y, Selection::Exact);
        assert_eq!(sm.settled().digits(), &bt.digits[..]);
    }
}
