//! Structural netlist lint: static detection of dead logic, under-driven
//! output ports, constant-foldable gates and suspicious fanout.
//!
//! The builder refuses any fanin at or after the new net, so every netlist
//! is a DAG and no loop can be built. The lint pass finds the quieter
//! structural defects a generator can accumulate: unused inputs, floating
//! nets, whole dead cones that feed no output, gates fed by constants, and
//! nets whose fanout is suspicious for a gate-level design.
//!
//! [`prune_dead`] is the companion transform: it rebuilds a netlist
//! keeping only the live cone (and every primary input, to preserve the
//! evaluation interface), so generated datapaths can be shipped lint-clean.

use crate::netlist::eval_gate;
use crate::{GateKind, NetId, Netlist};
use std::fmt;

/// One structural defect found by [`check`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LintIssue {
    /// The netlist declares no output nets, so every gate is dead and
    /// nothing constrains timing.
    NoOutputs,
    /// An output bus that declares more bits than it actually drives:
    /// the same *logic* net appears at more than one bus position, or the
    /// bus is empty. Shared constant bits are exempt — constants are
    /// deduplicated per polarity by construction
    /// ([`Netlist::constant`](crate::Netlist::constant)), so repeating a
    /// constant net is the normal way to zero-pad a port, while repeating
    /// a computed net means the generator declared a wider port than it
    /// synthesized.
    OutputWidthMismatch {
        /// The output bus name.
        bus: String,
        /// The declared port width (bus positions).
        declared: usize,
        /// Positions backed by a distinct driver (constants always count).
        driven: usize,
    },
    /// A primary input that no gate reads and no output exposes.
    UnusedInput {
        /// The unused input net.
        net: NetId,
    },
    /// A logic gate whose result no gate reads and no output exposes.
    FloatingNet {
        /// The floating net.
        net: NetId,
    },
    /// Logic that cannot reach any output net — simulated work that can
    /// never be observed. [`prune_dead`] removes exactly this set.
    DeadCone {
        /// Every dead logic net, ascending.
        nets: Vec<NetId>,
    },
    /// A logic gate with at least one constant input — synthesis would
    /// have folded it ([`Netlist::and`] and friends do; raw
    /// [`Netlist::try_gate`] does not).
    ConstantFoldable {
        /// The foldable gate.
        net: NetId,
        /// The gate's settled value when *all* inputs are constant, or
        /// `None` when only part of the fanin is constant.
        value: Option<bool>,
    },
    /// A net read by more gates than [`FANOUT_LIMIT`] — in a gate-level
    /// model usually a generator bug rather than a real design.
    HighFanout {
        /// The heavily-loaded net.
        net: NetId,
        /// Its observed fanout.
        fanout: u32,
        /// The limit it exceeded ([`FANOUT_LIMIT`]).
        limit: u32,
    },
}

impl LintIssue {
    /// A stable short code for machine consumption (CSV columns, CI greps).
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            LintIssue::NoOutputs => "no-outputs",
            LintIssue::OutputWidthMismatch { .. } => "output-width-mismatch",
            LintIssue::UnusedInput { .. } => "unused-input",
            LintIssue::FloatingNet { .. } => "floating-net",
            LintIssue::DeadCone { .. } => "dead-cone",
            LintIssue::ConstantFoldable { .. } => "const-foldable",
            LintIssue::HighFanout { .. } => "high-fanout",
        }
    }
}

impl fmt::Display for LintIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintIssue::NoOutputs => write!(f, "netlist declares no output nets"),
            LintIssue::OutputWidthMismatch { bus, declared, driven } => {
                if *declared == 0 {
                    write!(f, "output bus {bus:?} declares no bits")
                } else {
                    write!(
                        f,
                        "output bus {bus:?} declares {declared} bit(s) but only {driven} are distinctly driven (a logic net repeats)"
                    )
                }
            }
            LintIssue::UnusedInput { net } => write!(f, "primary input {net:?} is never read"),
            LintIssue::FloatingNet { net } => {
                write!(f, "net {net:?} drives nothing and is not an output")
            }
            LintIssue::DeadCone { nets } => {
                write!(f, "{} logic net(s) cannot reach any output", nets.len())
            }
            LintIssue::ConstantFoldable { net, value } => match value {
                Some(v) => write!(f, "gate {net:?} is constant-valued ({v})"),
                None => write!(f, "gate {net:?} has a constant input and could fold"),
            },
            LintIssue::HighFanout { net, fanout, limit } => {
                write!(f, "net {net:?} fans out to {fanout} gates (limit {limit})")
            }
        }
    }
}

/// Fanout above this is reported as [`LintIssue::HighFanout`]. It sits
/// far above anything the workspace generators produce (their broadcast
/// nets reach `2N` readers).
pub const FANOUT_LIMIT: u32 = 512;

/// Runs the full lint catalogue. An empty issue list means the netlist is
/// lint-clean. Issues are reported in a deterministic order:
/// output/liveness defects first, then local gate defects.
#[must_use]
pub fn check(netlist: &Netlist) -> Vec<LintIssue> {
    let n = netlist.len();
    let mut issues = Vec::new();

    // --- Liveness. ---
    let mut is_output = vec![false; n];
    let mut any_output = false;
    for (_, nets) in netlist.outputs() {
        for net in nets {
            is_output[net.index()] = true;
            any_output = true;
        }
    }
    if !any_output {
        issues.push(LintIssue::NoOutputs);
    }
    for (bus, nets) in netlist.outputs() {
        let mut seen = vec![false; n];
        let mut driven = 0usize;
        for &net in nets {
            let dup = std::mem::replace(&mut seen[net.index()], true);
            if !dup || netlist.kind(net) == GateKind::Const {
                driven += 1;
            }
        }
        if nets.is_empty() || driven != nets.len() {
            issues.push(LintIssue::OutputWidthMismatch {
                bus: bus.to_string(),
                declared: nets.len(),
                driven,
            });
        }
    }
    let live = live_set(netlist, &is_output);
    let fanout = netlist.fanout_counts();

    for net in netlist.nets() {
        if netlist.kind(net) == GateKind::Input
            && fanout[net.index()] == 0
            && !is_output[net.index()]
        {
            issues.push(LintIssue::UnusedInput { net });
        }
    }
    for net in netlist.nets() {
        if netlist.kind(net).is_logic() && fanout[net.index()] == 0 && !is_output[net.index()] {
            issues.push(LintIssue::FloatingNet { net });
        }
    }
    if any_output {
        let dead: Vec<NetId> = netlist
            .nets()
            .filter(|&net| netlist.kind(net).is_logic() && !live[net.index()])
            .collect();
        if !dead.is_empty() {
            issues.push(LintIssue::DeadCone { nets: dead });
        }
    }

    // --- Local gate defects. ---
    for net in netlist.nets() {
        if !netlist.kind(net).is_logic() {
            continue;
        }
        let inputs = netlist.gate_inputs(net);
        let consts: Vec<Option<bool>> = inputs.iter().map(|&i| const_value(netlist, i)).collect();
        if consts.iter().any(Option::is_some) {
            let value = if consts.iter().all(Option::is_some) {
                Some(eval_gate(netlist.kind(net), |k| consts[k].expect("all const")))
            } else {
                None
            };
            issues.push(LintIssue::ConstantFoldable { net, value });
        }
    }
    for net in netlist.nets() {
        let f = fanout[net.index()];
        if f > FANOUT_LIMIT {
            issues.push(LintIssue::HighFanout { net, fanout: f, limit: FANOUT_LIMIT });
        }
    }
    issues
}

/// Rebuilds `netlist` keeping every primary input (the evaluation
/// interface is preserved: same input count and order) but only the logic
/// and constants that can reach an output net. Gate structure inside the
/// live cone is copied verbatim — no re-folding — so the timing of every
/// surviving net under an index-independent delay model is unchanged.
///
/// Net *ids* are remapped (the live cone is renumbered densely); callers
/// holding `NetId`s into the old netlist must re-derive them from the
/// returned netlist's buses.
#[must_use]
pub fn prune_dead(netlist: &Netlist) -> Netlist {
    let n = netlist.len();
    let mut is_output = vec![false; n];
    for (_, nets) in netlist.outputs() {
        for net in nets {
            is_output[net.index()] = true;
        }
    }
    let live = live_set(netlist, &is_output);

    let mut out = Netlist::new();
    let mut map: Vec<Option<NetId>> = vec![None; n];
    for net in netlist.nets() {
        let i = net.index();
        match netlist.kind(net) {
            GateKind::Input => map[i] = Some(out.input("in")),
            GateKind::Const => {
                if live[i] {
                    let v = const_value(netlist, net).expect("const net has a value");
                    map[i] = Some(out.constant(v));
                }
            }
            kind => {
                if live[i] {
                    let inputs: Vec<NetId> = netlist
                        .gate_inputs(net)
                        .iter()
                        .map(|p| map[p.index()].expect("inputs of a live gate are live"))
                        .collect();
                    map[i] =
                        Some(out.try_gate(kind, &inputs).expect("copied gate keeps its arity"));
                }
            }
        }
    }
    for (bus, nets) in netlist.outputs() {
        let mapped: Vec<NetId> =
            nets.iter().map(|p| map[p.index()].expect("output nets are live")).collect();
        out.set_output(bus, mapped);
    }
    out
}

/// Backward reachability from the output nets (DFS with a visited set).
fn live_set(netlist: &Netlist, is_output: &[bool]) -> Vec<bool> {
    let mut live = vec![false; netlist.len()];
    let mut stack: Vec<NetId> = netlist.nets().filter(|net| is_output[net.index()]).collect();
    while let Some(net) = stack.pop() {
        if std::mem::replace(&mut live[net.index()], true) {
            continue;
        }
        if netlist.kind(net).is_logic() {
            stack.extend(netlist.gate_inputs(net).iter().copied());
        }
    }
    live
}

fn const_value(netlist: &Netlist, net: NetId) -> Option<bool> {
    let node = &netlist.gate_nodes()[net.index()];
    if node.kind == GateKind::Const {
        Some(node.const_value)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, UnitDelay};

    fn codes(issues: &[LintIssue]) -> Vec<&'static str> {
        issues.iter().map(LintIssue::code).collect()
    }

    #[test]
    fn clean_netlist_has_no_issues() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let s = nl.xor(a, b);
        let c = nl.and(a, b);
        nl.set_output("sum", vec![s, c]);
        assert!(check(&nl).is_empty());
    }

    #[test]
    fn duplicated_output_bits_are_flagged_but_constant_padding_is_not() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let s = nl.xor(a, b);
        let zero = nl.constant(false);
        // `s` repeats (a fake sign extension); the shared zero pad is fine.
        nl.set_output("z", vec![zero, s, s, zero]);
        let issues = check(&nl);
        assert!(issues.contains(&LintIssue::OutputWidthMismatch {
            bus: "z".to_string(),
            declared: 4,
            driven: 3,
        }));

        let mut ok = Netlist::new();
        let a = ok.input("a");
        let g = ok.not(a);
        let zero = ok.constant(false);
        ok.set_output("z", vec![zero, g, zero]);
        assert!(
            !check(&ok).iter().any(|i| i.code() == "output-width-mismatch"),
            "constant padding alone is legitimate"
        );
    }

    #[test]
    fn empty_output_buses_are_flagged() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let g = nl.not(a);
        nl.set_output("z", vec![g]);
        nl.set_output("empty", Vec::new());
        let issues = check(&nl);
        assert!(issues.contains(&LintIssue::OutputWidthMismatch {
            bus: "empty".to_string(),
            declared: 0,
            driven: 0,
        }));
        assert!(issues.iter().any(|i| i.to_string().contains("declares no bits")));
    }

    #[test]
    fn dead_and_floating_logic_is_flagged() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let live = nl.not(a);
        let dead1 = nl.not(a);
        let dead2 = nl.not(dead1); // floating tip of a 2-gate dead cone
        nl.set_output("z", vec![live]);
        let issues = check(&nl);
        assert!(issues.contains(&LintIssue::FloatingNet { net: dead2 }));
        assert!(issues.contains(&LintIssue::DeadCone { nets: vec![dead1, dead2] }));
        assert!(!codes(&issues).contains(&"unused-input"), "a is read by live logic");
    }

    #[test]
    fn unused_inputs_and_no_outputs_are_flagged() {
        let mut nl = Netlist::new();
        let _a = nl.input("a");
        let issues = check(&nl);
        assert_eq!(codes(&issues), vec!["no-outputs", "unused-input"]);
    }

    #[test]
    fn const_fed_gates_are_flagged_with_their_value() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let t = nl.constant(true);
        let f = nl.constant(false);
        // Raw gate construction bypasses the builders' folding.
        let full = nl.try_gate(GateKind::Nand, &[t, f]).unwrap();
        let part = nl.try_gate(GateKind::And, &[a, t]).unwrap();
        nl.set_output("z", vec![full, part]);
        let issues = check(&nl);
        assert!(issues.contains(&LintIssue::ConstantFoldable { net: full, value: Some(true) }));
        assert!(issues.contains(&LintIssue::ConstantFoldable { net: part, value: None }));
    }

    #[test]
    fn high_fanout_is_flagged_just_past_the_limit() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let mut outs: Vec<NetId> = (0..FANOUT_LIMIT).map(|_| nl.not(a)).collect();
        nl.set_output("z", outs.clone());
        assert!(check(&nl).is_empty(), "exactly FANOUT_LIMIT readers is fine");
        outs.push(nl.not(a));
        nl.set_output("z", outs);
        let issues = check(&nl);
        assert_eq!(
            issues,
            vec![LintIssue::HighFanout { net: a, fanout: FANOUT_LIMIT + 1, limit: FANOUT_LIMIT }]
        );
        assert_eq!(issues[0].code(), "high-fanout");
    }

    #[test]
    fn prune_dead_removes_exactly_the_dead_cone() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let live = nl.xor(a, b);
        let dead1 = nl.and(a, b);
        let _dead2 = nl.not(dead1);
        nl.set_output("z", vec![live]);
        let pruned = prune_dead(&nl);
        assert_eq!(pruned.len(), nl.len() - 2);
        assert_eq!(pruned.inputs().len(), 2, "inputs always survive");
        // Function on the outputs is preserved.
        for pat in 0..4u8 {
            let ins = [pat & 1 == 1, pat & 2 == 2];
            let old = nl.eval(&ins);
            let new = pruned.eval(&ins);
            let oz = nl.output("z")[0];
            let nz = pruned.output("z")[0];
            assert_eq!(old[oz.index()], new[nz.index()], "pattern {pat}");
        }
        // And the pruned netlist is lint-clean.
        assert!(check(&pruned).is_empty());
    }

    #[test]
    fn prune_preserves_output_arrival_times() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let mut cur = a;
        for _ in 0..5 {
            cur = nl.not(cur);
        }
        // A deeper dead chain must not influence the live critical path.
        let mut dead = a;
        for _ in 0..9 {
            dead = nl.not(dead);
        }
        nl.set_output("z", vec![cur]);
        let pruned = prune_dead(&nl);
        let before = analyze(&nl, &UnitDelay).arrival_of(nl.output("z"));
        let after = analyze(&pruned, &UnitDelay);
        assert_eq!(after.arrival_of(pruned.output("z")), before);
        assert_eq!(after.critical_path(), before, "dead chain no longer dominates");
    }

    #[test]
    fn prune_keeps_live_constants() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let t = nl.constant(true);
        let g = nl.try_gate(GateKind::And, &[a, t]).unwrap();
        let dead_const = nl.constant(false);
        let _ = dead_const;
        nl.set_output("z", vec![g]);
        let pruned = prune_dead(&nl);
        assert_eq!(pruned.len(), 3, "input + live const + gate; dead const dropped");
        assert!(pruned.eval(&[true])[pruned.output("z")[0].index()]);
    }
}
