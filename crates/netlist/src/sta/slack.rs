//! Backward required-time propagation: per-net slack at a target period.
//!
//! The forward pass ([`super::analyze`]) answers *when does each net
//! settle, worst case?*; this backward pass answers the dual question —
//! *how late may each net settle for every output to still be captured
//! correctly at period `Ts`?* The difference is **slack**: positive slack
//! is timing headroom, negative slack names exactly the nets a given
//! overclock `Ts` puts at risk. Per-output-digit slack is what turns the
//! paper's Fig. 3 argument (online datapaths route their deep chains into
//! the least-significant digits) into a machine-checked artifact.

use super::arrival::{analyze, TimingReport};
use crate::{DelayModel, NetId, Netlist};

/// Per-net slack against a target clock period.
#[derive(Clone, Debug)]
pub struct SlackReport {
    period: u64,
    arrival: Vec<u64>,
    /// Latest permissible arrival per net; `None` for nets that feed no
    /// output (their timing is unconstrained).
    required: Vec<Option<u64>>,
}

impl SlackReport {
    /// The target clock period the report was computed against.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Worst-case arrival of one net (as in [`TimingReport::arrival`]).
    #[must_use]
    pub fn arrival(&self, net: NetId) -> u64 {
        self.arrival[net.index()]
    }

    /// Latest arrival of `net` for which every downstream output is still
    /// captured correctly at the target period, or `None` when the net
    /// feeds no output.
    ///
    /// `required` may be "negative" conceptually (a path deeper than the
    /// period); it is clamped at 0, with the deficit visible via
    /// [`SlackReport::slack`].
    #[must_use]
    pub fn required(&self, net: NetId) -> Option<u64> {
        self.required[net.index()]
    }

    /// Slack of one net: `required − arrival`. Negative slack means the
    /// worst-case path through this net misses the period. `None` for
    /// nets that feed no output.
    #[must_use]
    pub fn slack(&self, net: NetId) -> Option<i64> {
        self.required[net.index()].map(|r| r as i64 - self.arrival[net.index()] as i64)
    }

    /// Worst slack over a bus (`None` if no bus net is constrained).
    #[must_use]
    pub fn slack_of(&self, nets: &[NetId]) -> Option<i64> {
        nets.iter().filter_map(|&n| self.slack(n)).min()
    }

    /// The minimum slack over all constrained nets, with one witness net —
    /// the start of a worst path. `None` on a netlist with no constrained
    /// nets.
    #[must_use]
    pub fn worst(&self) -> Option<(NetId, i64)> {
        (0..self.required.len())
            .filter_map(|i| {
                let net = NetId::from_index(i);
                self.slack(net).map(|s| (net, s))
            })
            .min_by_key(|&(net, s)| (s, net))
    }
}

/// Computes per-net slack against `period`: a forward arrival pass
/// followed by a backward required-time pass from every output-bus net.
#[must_use]
pub fn analyze_slack<M: DelayModel + ?Sized>(
    netlist: &Netlist,
    delay: &M,
    period: u64,
) -> SlackReport {
    let report = analyze(netlist, delay);
    slack_from_arrival(netlist, delay, &report, period)
}

/// The backward pass alone, reusing an existing forward [`TimingReport`]
/// (useful when sweeping several periods: arrivals do not depend on the
/// period). The report must come from the same `(netlist, delay)` pair.
#[must_use]
pub fn slack_from_arrival<M: DelayModel + ?Sized>(
    netlist: &Netlist,
    delay: &M,
    report: &TimingReport,
    period: u64,
) -> SlackReport {
    let n = netlist.len();
    let mut required: Vec<Option<u64>> = vec![None; n];
    for (_, nets) in netlist.outputs() {
        for &net in nets {
            required[net.index()] = Some(period);
        }
    }
    // Reverse net order is reverse topological order.
    for i in (0..n).rev() {
        let net = NetId::from_index(i);
        let kind = netlist.kind(net);
        if !kind.is_logic() {
            continue;
        }
        let Some(r) = required[i] else { continue };
        let d = delay.gate_delay(kind, net);
        // The gate consumes `d` of its consumers' budget; clamp at zero so
        // required times stay in u64 (the deficit shows up as negative
        // slack at the endpoint itself).
        let r_in = r.saturating_sub(d);
        for inp in netlist.gate_inputs(net) {
            let slot = &mut required[inp.index()];
            *slot = Some(slot.map_or(r_in, |cur| cur.min(r_in)));
        }
    }
    SlackReport { period, arrival: report.arrivals().to_vec(), required }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnitDelay;

    const U: u64 = UnitDelay::UNIT;

    /// a → not → not → z, plus a side tap after the first inverter.
    fn chain() -> (Netlist, NetId, NetId, NetId) {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let n1 = nl.not(a);
        let n2 = nl.not(n1);
        nl.set_output("z", vec![n2]);
        (nl, a, n1, n2)
    }

    #[test]
    fn slack_is_period_minus_depth_on_a_chain() {
        let (nl, a, n1, n2) = chain();
        let rep = analyze_slack(&nl, &UnitDelay, 5 * U);
        assert_eq!(rep.period(), 5 * U);
        // Endpoint: required = 5U, arrival = 2U → slack 3U.
        assert_eq!(rep.slack(n2), Some(3 * U as i64));
        // One gate upstream: required 4U, arrival U.
        assert_eq!(rep.required(n1), Some(4 * U));
        assert_eq!(rep.slack(n1), Some(3 * U as i64));
        // The input inherits the whole downstream budget.
        assert_eq!(rep.slack(a), Some(3 * U as i64));
        assert_eq!(rep.worst(), Some((a, 3 * U as i64)));
    }

    #[test]
    fn negative_slack_under_overclocking() {
        let (nl, a, n1, n2) = chain();
        let rep = analyze_slack(&nl, &UnitDelay, U);
        assert_eq!(rep.slack(n2), Some(-(U as i64)), "2U path at period U: 1U short");
        // n1 (required 0, arrival U) and n2 miss; the input itself still
        // arrives at its (clamped) required time 0.
        assert_eq!(rep.slack(n1), Some(-(U as i64)));
        assert_eq!(rep.slack(a), Some(0));
        assert!(rep.slack_of(&[n1, n2]).unwrap() < 0);
    }

    #[test]
    fn unconstrained_nets_have_no_slack() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let used = nl.not(a);
        let dangling = nl.not(a);
        let z = nl.not(used);
        nl.set_output("z", vec![z]);
        let rep = analyze_slack(&nl, &UnitDelay, 10 * U);
        assert_eq!(rep.slack(dangling), None, "feeds no output");
        assert!(rep.slack(used).is_some());
        assert!(rep.required(dangling).is_none());
    }

    #[test]
    fn reconvergence_takes_the_tightest_required_time() {
        // a feeds both a deep path and a shallow path into the output.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let d1 = nl.not(a);
        let d2 = nl.not(d1);
        let d3 = nl.not(d2);
        let z = nl.and(a, d3);
        nl.set_output("z", vec![z]);
        let rep = analyze_slack(&nl, &UnitDelay, 4 * U);
        // Through the deep branch a must arrive by 4U − 4 gates = 0.
        assert_eq!(rep.required(a), Some(0));
        assert_eq!(rep.slack(a), Some(0));
        assert_eq!(rep.slack(z), Some(0), "critical at exactly the period");
    }
}
