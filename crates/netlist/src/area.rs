//! FPGA area estimation by greedy LUT covering.
//!
//! Stand-in for the vendor tool's LUT/Slice report (Table 4 of the paper).
//! Gates are covered by K-input LUTs with a simple greedy cone-packing: a
//! LUT absorbs single-fanout fanin gates while its leaf count stays ≤ K.
//! Absolute counts are technology-mapping-dependent; the experiment only
//! uses the *ratio* between the online and the traditional datapath.

use crate::{NetId, Netlist};
use std::collections::BTreeSet;

/// LUT-level area summary of a netlist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AreaReport {
    /// Estimated number of K-input LUTs.
    pub luts: usize,
    /// Estimated number of slices (4 LUTs per slice).
    pub slices: usize,
    /// Raw logic gate count before covering.
    pub gates: usize,
    /// Number of primary inputs.
    pub inputs: usize,
}

/// Estimates area when mapped onto `k`-input LUTs (use `k = 4` to mirror the
/// paper's device generation, `k = 6` for modern fabrics).
///
/// # Panics
///
/// Panics if `k < 2`.
#[must_use]
pub fn estimate(netlist: &Netlist, k: usize) -> AreaReport {
    assert!(k >= 2, "LUTs need at least 2 inputs");
    let fanout = netlist.fanout_counts();
    let is_output_root: BTreeSet<NetId> =
        netlist.outputs().flat_map(|(_, nets)| nets.iter().copied()).collect();

    let mut counted = vec![false; netlist.len()];
    let mut luts = 0usize;
    // Roots: every output net that is a logic gate.
    let mut work: Vec<NetId> =
        is_output_root.iter().copied().filter(|&n| netlist.kind(n).is_logic()).collect();

    while let Some(root) = work.pop() {
        if counted[root.index()] {
            continue;
        }
        counted[root.index()] = true;
        luts += 1;

        // Grow the cone rooted at `root`.
        let mut absorbed: BTreeSet<NetId> = BTreeSet::new();
        absorbed.insert(root);
        let mut leaves: BTreeSet<NetId> = netlist.gate_inputs(root).iter().copied().collect();
        loop {
            let candidate = leaves.iter().copied().find(|&leaf| {
                netlist.kind(leaf).is_logic()
                    && fanout[leaf.index()] == 1
                    && !is_output_root.contains(&leaf)
                    && !counted[leaf.index()]
                    && cone_leaf_count_after(netlist, &leaves, leaf) <= k
            });
            match candidate {
                Some(leaf) => {
                    leaves.remove(&leaf);
                    absorbed.insert(leaf);
                    counted[leaf.index()] = true;
                    for &inp in netlist.gate_inputs(leaf) {
                        if !absorbed.contains(&inp) {
                            leaves.insert(inp);
                        }
                    }
                }
                None => break,
            }
        }
        // Remaining logic leaves need their own LUTs.
        for leaf in leaves {
            if netlist.kind(leaf).is_logic() && !counted[leaf.index()] {
                work.push(leaf);
            }
        }
    }

    AreaReport {
        luts,
        slices: luts.div_ceil(4),
        gates: netlist.logic_gate_count(),
        inputs: netlist.inputs().len(),
    }
}

fn cone_leaf_count_after(netlist: &Netlist, leaves: &BTreeSet<NetId>, absorb: NetId) -> usize {
    let mut set: BTreeSet<NetId> = leaves.clone();
    set.remove(&absorb);
    for &inp in netlist.gate_inputs(absorb) {
        set.insert(inp);
    }
    set.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder(nl: &mut Netlist) -> (NetId, NetId) {
        let a = nl.input("a");
        let b = nl.input("b");
        let c = nl.input("c");
        let axb = nl.xor(a, b);
        let s = nl.xor(axb, c);
        let ab = nl.and(a, b);
        let cax = nl.and(c, axb);
        let cout = nl.or(ab, cax);
        (s, cout)
    }

    #[test]
    fn single_gate_is_one_lut() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let z = nl.and(a, b);
        nl.set_output("z", vec![z]);
        let rep = estimate(&nl, 4);
        assert_eq!(rep.luts, 1);
        assert_eq!(rep.slices, 1);
        assert_eq!(rep.gates, 1);
    }

    #[test]
    fn full_adder_packs_into_two_4luts() {
        // A full adder has two 3-input functions of (a, b, c): sum and carry.
        let mut nl = Netlist::new();
        let (s, cout) = full_adder(&mut nl);
        nl.set_output("z", vec![s, cout]);
        let rep = estimate(&nl, 4);
        // The shared a^b gate can be absorbed into only one cone (fanout 2),
        // so greedy gives 2 or 3 LUTs; must not exceed gate count (5).
        assert!(rep.luts >= 2 && rep.luts <= 3, "luts = {}", rep.luts);
    }

    #[test]
    fn deep_single_fanout_chain_collapses() {
        // A chain of NOTs has 1 leaf; it all fits in one LUT.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let mut cur = a;
        for _ in 0..10 {
            cur = nl.not(cur);
        }
        nl.set_output("z", vec![cur]);
        assert_eq!(estimate(&nl, 4).luts, 1);
    }

    #[test]
    fn wide_xor_tree_obeys_lut_capacity() {
        // 8-input xor tree: with 4-LUTs needs ceil(7 gates / cones of ≤3) ≥ 3;
        // optimal is 3 (two 4-input LUTs + combiner packed with one of them
        // is impossible: combiner has 2 leaves) → greedy should find ≤ 4.
        let mut nl = Netlist::new();
        let xs = nl.input_bus("x", 8);
        let mut layer: Vec<NetId> = xs;
        while layer.len() > 1 {
            layer = layer.chunks(2).map(|c| nl.xor(c[0], c[1])).collect();
        }
        nl.set_output("z", vec![layer[0]]);
        let rep = estimate(&nl, 4);
        assert!(rep.luts >= 3 && rep.luts <= 4, "luts = {}", rep.luts);
        // With 6-LUTs it should do at least as well.
        assert!(estimate(&nl, 6).luts <= rep.luts);
    }

    #[test]
    fn output_nets_are_never_absorbed() {
        // Intermediate net exposed as an output must keep its own LUT.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let m = nl.and(a, b);
        let z = nl.not(m);
        nl.set_output("mid", vec![m]);
        nl.set_output("z", vec![z]);
        assert_eq!(estimate(&nl, 4).luts, 2);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_luts_rejected() {
        let nl = Netlist::new();
        let _ = estimate(&nl, 1);
    }
}
