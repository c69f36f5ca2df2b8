//! Top-K critical-path enumeration with named endpoints.
//!
//! A single scalar critical path says *how slow* a netlist is; the ranked
//! path list says *why*: which output digit the deep logic terminates in,
//! and which gate chain builds the depth. For online operators the ranked
//! list makes the paper's structural claim inspectable — the longest
//! chains all end in the least-significant output digits.
//!
//! The enumeration is exact: a per-net dynamic program keeps the `K`
//! longest suffix-disjoint path delays (with predecessor links), merged in
//! topological order, so reconstruction is a simple backward walk.

use crate::{DelayModel, GateKind, NetId, Netlist};

/// One gate (or source net) on a reported path, in source→endpoint order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// The net/gate.
    pub net: NetId,
    /// Its gate kind (sources report [`GateKind::Input`] /
    /// [`GateKind::Const`]).
    pub kind: GateKind,
    /// The gate's own delay contribution.
    pub delay: u64,
    /// Cumulative delay after this step along *this* path (not the net's
    /// global worst-case arrival).
    pub path_arrival: u64,
}

/// A ranked critical path ending at a named output-bus bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// Endpoint net (a member of an output bus).
    pub endpoint: NetId,
    /// `bus[bit]` label of the endpoint (first bus containing the net, in
    /// bus-name order).
    pub endpoint_label: String,
    /// Total path delay.
    pub delay: u64,
    /// Source→endpoint gate chain.
    pub steps: Vec<PathStep>,
}

impl CriticalPath {
    /// Number of logic gates on the path.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.steps.iter().filter(|s| s.kind.is_logic()).count()
    }

    /// A compact one-line rendering: `src → Kind → … = delay` (long chains
    /// keep every step; callers can truncate for terminals).
    #[must_use]
    pub fn render(&self) -> String {
        let chain: Vec<String> =
            self.steps.iter().map(|s| format!("{:?}{:?}", s.kind, s.net)).collect();
        format!("{} = {} via {}", self.endpoint_label, self.delay, chain.join(" > "))
    }
}

/// Per-net top-K entry: best path delay into this net and the predecessor
/// `(input net, rank within that input's list)` that produced it.
#[derive(Clone, Copy, Debug)]
struct Cand {
    delay: u64,
    pred: Option<(NetId, usize)>,
}

/// Enumerates the `k` longest structural paths ending at output-bus nets,
/// globally ranked by total delay (ties broken by endpoint id then rank,
/// so the order is deterministic).
#[must_use]
pub fn critical_paths<M: DelayModel + ?Sized>(
    netlist: &Netlist,
    delay: &M,
    k: usize,
) -> Vec<CriticalPath> {
    if k == 0 || netlist.is_empty() {
        return Vec::new();
    }

    // Forward DP: per net, the top-k path delays with predecessor links.
    let mut tops: Vec<Vec<Cand>> = Vec::with_capacity(netlist.len());
    for net in netlist.nets() {
        let kind = netlist.kind(net);
        if !kind.is_logic() {
            tops.push(vec![Cand { delay: 0, pred: None }]);
            continue;
        }
        let d = delay.gate_delay(kind, net);
        let mut merged: Vec<Cand> = Vec::new();
        for &inp in netlist.gate_inputs(net) {
            for (rank, c) in tops[inp.index()].iter().enumerate() {
                merged.push(Cand { delay: c.delay + d, pred: Some((inp, rank)) });
            }
        }
        // Deterministic order: delay desc, then predecessor net asc.
        merged.sort_by(|a, b| {
            b.delay.cmp(&a.delay).then_with(|| a.pred.map(|p| p.0).cmp(&b.pred.map(|p| p.0)))
        });
        merged.truncate(k);
        tops.push(merged);
    }

    // Endpoint labels: first bus (bus-name order) containing each net.
    let mut label: Vec<Option<String>> = vec![None; netlist.len()];
    for (bus, nets) in netlist.outputs() {
        for (bit, &net) in nets.iter().enumerate() {
            let slot = &mut label[net.index()];
            if slot.is_none() {
                *slot = Some(format!("{bus}[{bit}]"));
            }
        }
    }

    // Global ranking across all endpoints.
    let mut ranked: Vec<(u64, NetId, usize)> = Vec::new();
    for net in netlist.nets() {
        if label[net.index()].is_none() {
            continue;
        }
        for (rank, c) in tops[net.index()].iter().enumerate() {
            ranked.push((c.delay, net, rank));
        }
    }
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)).then_with(|| a.2.cmp(&b.2)));
    ranked.truncate(k);

    let mut out = Vec::with_capacity(ranked.len());
    for (total, endpoint, mut rank) in ranked {
        // Backward walk endpoint → source, then reverse.
        let mut rev: Vec<(NetId, u64)> = Vec::new();
        let mut net = endpoint;
        loop {
            let c = tops[net.index()][rank];
            rev.push((net, c.delay));
            match c.pred {
                Some((p, r)) => {
                    net = p;
                    rank = r;
                }
                None => break,
            }
        }
        rev.reverse();
        let steps = rev
            .into_iter()
            .map(|(n, path_arrival)| {
                let kind = netlist.kind(n);
                PathStep { net: n, kind, delay: delay.gate_delay(kind, n), path_arrival }
            })
            .collect();
        out.push(CriticalPath {
            endpoint,
            endpoint_label: label[endpoint.index()].clone().expect("ranked nets are labelled"),
            delay: total,
            steps,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, UnitDelay};

    const U: u64 = UnitDelay::UNIT;

    #[test]
    fn single_chain_reports_one_path() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.not(a);
        let c = nl.not(b);
        nl.set_output("z", vec![c]);
        let paths = critical_paths(&nl, &UnitDelay, 4);
        // k=4 requested but only 1 simple path exists into z.
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.delay, 2 * U);
        assert_eq!(p.endpoint, c);
        assert_eq!(p.endpoint_label, "z[0]");
        assert_eq!(p.depth(), 2);
        assert_eq!(p.steps.len(), 3, "source + 2 gates");
        assert_eq!(p.steps[0].net, a);
        assert_eq!(p.steps[0].path_arrival, 0);
        assert_eq!(p.steps[2].path_arrival, 2 * U);
        assert!(p.render().contains("z[0]"));
    }

    #[test]
    fn top_k_ranks_reconvergent_paths() {
        // Two paths into z: deep (3 gates) and shallow (1 gate).
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let d1 = nl.not(a);
        let d2 = nl.not(d1);
        let z = nl.and(a, d2);
        nl.set_output("z", vec![z]);
        let paths = critical_paths(&nl, &UnitDelay, 2);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].delay, 3 * U, "deep path first");
        assert_eq!(paths[1].delay, U, "direct a→z path second");
        assert!(paths[0].delay >= paths[1].delay);
        // Rank-1 path delay must equal the analyze() critical path.
        assert_eq!(paths[0].delay, analyze(&nl, &UnitDelay).critical_path());
    }

    #[test]
    fn endpoints_span_buses() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let s = nl.not(a);
        let t = nl.not(s);
        nl.set_output("fast", vec![s]);
        nl.set_output("slow", vec![t]);
        let paths = critical_paths(&nl, &UnitDelay, 10);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].endpoint_label, "slow[0]");
        assert_eq!(paths[1].endpoint_label, "fast[0]");
    }

    #[test]
    fn k_zero_yields_no_paths() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let n1 = nl.not(a);
        let n2 = nl.not(n1);
        nl.set_output("z", vec![n2]);
        assert!(critical_paths(&nl, &UnitDelay, 0).is_empty());
    }
}
