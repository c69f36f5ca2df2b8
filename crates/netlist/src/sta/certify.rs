//! Per-digit settlement certification over a `Ts` grid.
//!
//! The paper's overclocking argument (Fig. 4/5) is empirical — sweep `Ts`,
//! measure error. This module is the *static* counterpart: for each output
//! digit, compare its worst-case arrival time (under a delay model) against
//! each candidate period. A digit whose arrival is `≤ Ts` is **certified**:
//! no input pattern can make it sample a non-settled value, so simulation
//! at that `(digit, Ts)` point is provably redundant. The remaining
//! *at-risk* digits yield an analytic error-magnitude upper bound
//! `Σ_{at-risk k} w_k` (the caller supplies the per-digit weights `w_k`,
//! e.g. `2·r^{-k}` for a redundant radix-`r` bus), which must upper-bound
//! every empirical error curve — a machine-checked bridge between the
//! static and dynamic halves of the repo.

use super::arrival::analyze;
use crate::{DelayModel, NetId, Netlist};

/// Static verdict for one `(digit, Ts)` point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DigitStatus {
    /// Worst-case arrival ≤ `Ts`: the sampled value provably equals the
    /// settled value for *every* input pattern. Simulation may be skipped.
    Certified,
    /// Worst-case arrival > `Ts`: some structural path misses the period,
    /// so the digit may (but need not) sample a stale value.
    AtRisk,
}

/// Certification of every output digit against a grid of target periods.
///
/// Produced by [`certify`]; rows are `Ts` grid points (in the caller's
/// order), columns are digits (in the caller's order).
#[derive(Clone, Debug)]
pub struct CertificationReport {
    ts: Vec<u64>,
    /// Worst-case arrival per digit (max over the digit's nets).
    arrival: Vec<u64>,
}

impl CertificationReport {
    /// Rebuilds a report from its `Ts` grid and per-digit worst-case
    /// arrivals — the inverse of ([`CertificationReport::ts_grid`],
    /// [`CertificationReport::arrivals`]), used by memoization layers that
    /// persist the arrival table keyed by netlist digest. The caller is
    /// responsible for the arrivals actually belonging to the netlist the
    /// key claims (a content-addressed store makes that sound).
    #[must_use]
    pub fn from_parts(ts: Vec<u64>, arrival: Vec<u64>) -> CertificationReport {
        CertificationReport { ts, arrival }
    }

    /// Worst-case arrival per digit, in digit order — the entire
    /// netlist-dependent content of the report (everything else derives
    /// from these and the grid).
    #[must_use]
    pub fn arrivals(&self) -> &[u64] {
        &self.arrival
    }

    /// The `Ts` grid the report was computed against, in caller order.
    #[must_use]
    pub fn ts_grid(&self) -> &[u64] {
        &self.ts
    }

    /// Number of digits covered by the report.
    #[must_use]
    pub fn digits(&self) -> usize {
        self.arrival.len()
    }

    /// Worst-case arrival of digit `digit` (max over its nets) — the
    /// smallest period at which the digit is certified.
    #[must_use]
    pub fn digit_arrival(&self, digit: usize) -> u64 {
        self.arrival[digit]
    }

    /// Static verdict for grid point `ts_index` and digit `digit`.
    #[must_use]
    pub fn status(&self, ts_index: usize, digit: usize) -> DigitStatus {
        if self.arrival[digit] <= self.ts[ts_index] {
            DigitStatus::Certified
        } else {
            DigitStatus::AtRisk
        }
    }

    /// Number of certified digits at grid point `ts_index`.
    #[must_use]
    pub fn certified_count(&self, ts_index: usize) -> usize {
        let ts = self.ts[ts_index];
        self.arrival.iter().filter(|&&a| a <= ts).count()
    }

    /// True when every digit is certified at grid point `ts_index` — the
    /// whole bus provably settles, so a sweep can skip simulation at this
    /// period entirely.
    #[must_use]
    pub fn all_certified(&self, ts_index: usize) -> bool {
        self.certified_count(ts_index) == self.digits()
    }

    /// Indices of the at-risk digits at grid point `ts_index`, ascending.
    #[must_use]
    pub fn at_risk(&self, ts_index: usize) -> Vec<usize> {
        let ts = self.ts[ts_index];
        (0..self.arrival.len()).filter(|&k| self.arrival[k] > ts).collect()
    }

    /// Analytic error-magnitude upper bound at grid point `ts_index`:
    /// `Σ_{at-risk k} weights[k]`. The caller supplies the worst-case
    /// magnitude contribution of each digit (for a redundant radix-`r`
    /// digit of weight `r^{-k}` that is `2·r^{-k}`: the sampled and settled
    /// digits can differ by at most the full digit range).
    ///
    /// Certified digits contribute exactly zero — that is the theorem this
    /// report encodes.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from [`CertificationReport::digits`].
    #[must_use]
    pub fn error_bound(&self, ts_index: usize, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.arrival.len(), "one weight per certified digit required");
        let ts = self.ts[ts_index];
        self.arrival.iter().zip(weights).filter(|(&a, _)| a > ts).map(|(_, &w)| w).sum()
    }
}

/// Certifies each digit of an output bus (given as groups of nets — e.g. a
/// borrow-save digit is its `{plus, minus}` bit pair) against every period
/// in `ts_grid`, under the worst-case structural arrivals of `delay`.
///
/// # Panics
///
/// Panics if a digit references a net outside `netlist`.
#[must_use]
pub fn certify<M: DelayModel + ?Sized>(
    netlist: &Netlist,
    delay: &M,
    digits: &[Vec<NetId>],
    ts_grid: &[u64],
) -> CertificationReport {
    let report = analyze(netlist, delay);
    let arrival = digits.iter().map(|nets| report.arrival_of(nets)).collect();
    CertificationReport { ts: ts_grid.to_vec(), arrival }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnitDelay;

    const U: u64 = UnitDelay::UNIT;

    /// Two output digits: digit 0 shallow (1 gate), digit 1 deep (3 gates).
    fn two_digit_netlist() -> (Netlist, Vec<Vec<NetId>>) {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let shallow = nl.not(a);
        let d1 = nl.not(a);
        let d2 = nl.not(d1);
        let deep = nl.not(d2);
        nl.set_output("z", vec![shallow, deep]);
        (nl, vec![vec![shallow], vec![deep]])
    }

    #[test]
    fn statuses_follow_arrivals() {
        let (nl, digits) = two_digit_netlist();
        let ts = [0, U, 2 * U, 3 * U];
        let rep = certify(&nl, &UnitDelay, &digits, &ts);
        assert_eq!(rep.digits(), 2);
        assert_eq!(rep.ts_grid(), &ts);
        assert_eq!(rep.digit_arrival(0), U);
        assert_eq!(rep.digit_arrival(1), 3 * U);
        // Ts = 0: nothing certified.
        assert_eq!(rep.status(0, 0), DigitStatus::AtRisk);
        assert_eq!(rep.certified_count(0), 0);
        assert_eq!(rep.at_risk(0), vec![0, 1]);
        // Ts = U: the shallow digit is exactly on time.
        assert_eq!(rep.status(1, 0), DigitStatus::Certified);
        assert_eq!(rep.status(1, 1), DigitStatus::AtRisk);
        assert_eq!(rep.at_risk(1), vec![1]);
        // Ts = 3U: everything settles.
        assert!(rep.all_certified(3));
        assert!(!rep.all_certified(2));
    }

    #[test]
    fn error_bound_sums_at_risk_weights() {
        let (nl, digits) = two_digit_netlist();
        let rep = certify(&nl, &UnitDelay, &digits, &[0, U, 3 * U]);
        let weights = [1.0, 0.25];
        assert!((rep.error_bound(0, &weights) - 1.25).abs() < 1e-12);
        assert!((rep.error_bound(1, &weights) - 0.25).abs() < 1e-12);
        assert_eq!(rep.error_bound(2, &weights), 0.0, "all certified: zero bound");
    }

    #[test]
    #[should_panic(expected = "one weight per certified digit")]
    fn error_bound_checks_weight_arity() {
        let (nl, digits) = two_digit_netlist();
        let rep = certify(&nl, &UnitDelay, &digits, &[U]);
        let _ = rep.error_bound(0, &[1.0]);
    }

    #[test]
    fn multi_net_digits_take_the_worst_arrival() {
        // A borrow-save-style digit: {plus, minus} with different depths.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let plus = nl.not(a);
        let m1 = nl.not(plus);
        let minus = nl.not(m1);
        nl.set_output("z", vec![plus, minus]);
        let rep = certify(&nl, &UnitDelay, &[vec![plus, minus]], &[U, 3 * U]);
        assert_eq!(rep.digit_arrival(0), 3 * U, "digit settles when its last bit does");
        assert_eq!(rep.status(0, 0), DigitStatus::AtRisk);
        assert_eq!(rep.status(1, 0), DigitStatus::Certified);
    }
}
