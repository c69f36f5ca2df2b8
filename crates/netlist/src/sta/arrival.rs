//! Forward arrival-time propagation — the front half of static timing
//! analysis.
//!
//! Computes worst-case arrival times by longest-path propagation — the
//! "structural" timing a synthesis tool would report, which the paper calls
//! `(N + δ)·μ` for the online multiplier. The gap between this structural
//! bound and the *actual* settling times observed by the event-driven
//! simulator is exactly the overclocking headroom the paper exploits.

use crate::{DelayModel, NetId, Netlist};

/// Worst-case arrival times for every net of a netlist.
#[derive(Clone, Debug)]
pub struct TimingReport {
    arrival: Vec<u64>,
    critical: u64,
}

impl TimingReport {
    /// Worst-case arrival time of one net.
    #[must_use]
    pub fn arrival(&self, net: NetId) -> u64 {
        self.arrival[net.index()]
    }

    /// Worst-case arrival over a bus.
    #[must_use]
    pub fn arrival_of(&self, nets: &[NetId]) -> u64 {
        nets.iter().map(|&n| self.arrival(n)).max().unwrap_or(0)
    }

    /// Worst-case arrival of every net, indexed by [`NetId::index`].
    #[must_use]
    pub fn arrivals(&self) -> &[u64] {
        &self.arrival
    }

    /// The critical-path delay of the whole netlist: the minimum clock
    /// period for guaranteed-correct ("rated") operation.
    #[must_use]
    pub fn critical_path(&self) -> u64 {
        self.critical
    }

    /// Rated frequency in "operations per megaunit" — `1e6 / critical_path`
    /// — or `None` for a netlist with no timed logic (an empty or
    /// all-wires netlist has no rated period, and the old behaviour of
    /// returning `inf` poisoned every downstream ratio). Only ratios of
    /// this number are meaningful.
    #[must_use]
    pub fn rated_frequency(&self) -> Option<f64> {
        if self.critical == 0 {
            None
        } else {
            Some(1.0e6 / self.critical as f64)
        }
    }
}

/// Runs static timing analysis under a delay model: one forward pass in
/// net order, which the builder makes a topological order.
#[must_use]
pub fn analyze<M: DelayModel + ?Sized>(netlist: &Netlist, delay: &M) -> TimingReport {
    let mut arrival = vec![0u64; netlist.len()];
    let mut critical = 0;
    for i in 0..netlist.len() {
        let net = NetId::from_index(i);
        let kind = netlist.kind(net);
        if !kind.is_logic() {
            continue;
        }
        let worst_in =
            netlist.gate_inputs(net).iter().map(|inp| arrival[inp.index()]).max().unwrap_or(0);
        arrival[i] = worst_in + delay.gate_delay(kind, net);
        critical = critical.max(arrival[i]);
    }
    TimingReport { arrival, critical }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, UnitDelay};

    const U: u64 = UnitDelay::UNIT;

    #[test]
    fn chain_depth_equals_critical_path() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let mut cur = a;
        for _ in 0..7 {
            cur = nl.not(cur);
        }
        nl.set_output("z", vec![cur]);
        let rep = analyze(&nl, &UnitDelay);
        assert_eq!(rep.critical_path(), 7 * U);
        assert_eq!(rep.arrival(cur), 7 * U);
        assert_eq!(rep.arrival(a), 0);
        assert_eq!(rep.arrivals().len(), nl.len());
    }

    #[test]
    fn reconvergent_paths_take_the_max() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let slow1 = nl.not(a);
        let slow2 = nl.not(slow1);
        let z = nl.and(a, slow2);
        let rep = analyze(&nl, &UnitDelay);
        assert_eq!(rep.arrival(z), 3 * U);
        assert_eq!(rep.arrival_of(&[z, slow1]), 3 * U);
    }

    #[test]
    fn sta_upper_bounds_event_simulation() {
        // For any input pair, settling never exceeds the structural bound.
        let mut nl = Netlist::new();
        let xs = nl.input_bus("x", 6);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            let t = nl.xor(acc, x);
            acc = nl.and(t, x);
        }
        nl.set_output("z", vec![acc]);
        let rep = analyze(&nl, &UnitDelay);
        for pattern in 0..64u32 {
            let inputs: Vec<bool> = (0..6).map(|i| pattern >> i & 1 == 1).collect();
            let prev: Vec<bool> = (0..6).map(|i| pattern >> i & 2 == 2).collect();
            let res = simulate(&nl, &UnitDelay, &prev, &inputs);
            assert!(res.settle_time() <= rep.critical_path());
        }
    }

    #[test]
    fn rated_frequency_is_reciprocal() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.not(a);
        let _c = nl.not(b);
        let rep = analyze(&nl, &UnitDelay);
        assert_eq!(rep.critical_path(), 2 * U);
        let f = rep.rated_frequency().expect("timed logic has a rated period");
        assert!((f - 1.0e6 / (2.0 * U as f64)).abs() < 1e-9);
    }

    #[test]
    fn empty_netlist_has_zero_critical_path_and_no_rated_frequency() {
        let nl = Netlist::new();
        let rep = analyze(&nl, &UnitDelay);
        assert_eq!(rep.critical_path(), 0);
        assert_eq!(rep.rated_frequency(), None, "no logic: no finite rated frequency");
    }
}
