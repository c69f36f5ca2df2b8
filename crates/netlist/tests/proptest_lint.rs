//! Property-based tests of the lint pass ([`ola_netlist::sta::lint`]) and
//! of the builder invariant every analysis relies on: the builder refuses
//! any fanin at or after the new net, so every netlist is a DAG in net
//! order; seeded defects are always flagged; and [`prune_dead`] removes
//! exactly the dead logic without changing any observable output.

use ola_netlist::sta::lint::{check, prune_dead, LintIssue};
use ola_netlist::{GateKind, NetId, Netlist, NetlistError};
use proptest::prelude::*;

/// A recipe for one random gate: (kind selector, input selectors).
type GateRecipe = (u8, u8, u8, u8);

/// Builds a random DAG netlist; the last four nets form the output bus, so
/// random recipes routinely leave dead cones behind — exactly what the
/// dead-logic lints and `prune_dead` are for.
fn build_random_netlist(inputs: usize, recipes: &[GateRecipe]) -> Netlist {
    let mut nl = Netlist::new();
    let mut nets: Vec<NetId> = (0..inputs).map(|i| nl.input(&format!("i{i}"))).collect();
    for &(kind, a, b, c) in recipes {
        let pick = |sel: u8, nets: &[NetId]| nets[sel as usize % nets.len()];
        let x = pick(a, &nets);
        let y = pick(b, &nets);
        let z = pick(c, &nets);
        let out = match kind % 8 {
            0 => nl.not(x),
            1 => nl.and(x, y),
            2 => nl.or(x, y),
            3 => nl.xor(x, y),
            4 => nl.nand(x, y),
            5 => nl.nor(x, y),
            6 => nl.xnor(x, y),
            _ => nl.mux(x, y, z),
        };
        nets.push(out);
    }
    let out_slice: Vec<NetId> = nets.iter().rev().take(4).copied().collect();
    nl.set_output("z", out_slice);
    nl
}

fn recipes() -> impl Strategy<Value = Vec<GateRecipe>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..60)
}

fn has_code(issues: &[LintIssue], code: &str) -> bool {
    issues.iter().any(|i| i.code() == code)
}

/// One step of a random builder program: (kind selector, fanin
/// selectors, forward-reference mask, forward offsets), one byte or 2-bit
/// field per fanin. A fanin whose mask field is 0 references net
/// `len() + offset`, where offset 0 is the id the new gate itself would
/// get.
type BuildStep = (u8, u32, u8, u8);

fn build_steps() -> impl Strategy<Value = Vec<BuildStep>> {
    prop::collection::vec((any::<u8>(), any::<u32>(), any::<u8>(), any::<u8>()), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random builder programs, some of whose fanins name the gate's own
    /// id or a later net: `try_gate` refuses every such reference with
    /// `DanglingInput` and leaves the netlist unchanged, and every netlist
    /// that gets built reads only nets created before each gate.
    #[test]
    fn builder_refuses_every_forward_fanin(steps in build_steps()) {
        const KINDS: [GateKind; 8] = [
            GateKind::Not,
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xnor,
            GateKind::Mux,
        ];
        let mut nl = Netlist::new();
        nl.input("i0");
        for (kind, sels, mask, offsets) in steps {
            if kind % 9 == 8 {
                nl.input("i");
                continue;
            }
            let kind = KINDS[kind as usize % 8];
            let arity = match kind {
                GateKind::Not => 1,
                GateKind::Mux => 3,
                _ => 2,
            };
            let len = nl.len();
            let fanins: Vec<NetId> = (0..arity)
                .map(|j| {
                    if mask >> (2 * j) & 3 == 0 {
                        NetId::from_index(len + (offsets >> (2 * j) & 3) as usize)
                    } else {
                        NetId::from_index((sels >> (8 * j) & 0xff) as usize % len)
                    }
                })
                .collect();
            let first_forward = fanins.iter().copied().find(|f| f.index() >= len);
            match (nl.try_gate(kind, &fanins), first_forward) {
                (Err(e), Some(net)) => {
                    prop_assert_eq!(e, NetlistError::DanglingInput { net, len });
                    prop_assert_eq!(nl.len(), len, "a refused gate must not be appended");
                }
                (Ok(id), None) => prop_assert_eq!(id.index(), len),
                (res, fwd) => prop_assert!(false, "try_gate gave {res:?} for forward fanin {fwd:?}"),
            }
        }
        for g in nl.nets() {
            for &f in nl.gate_inputs(g) {
                prop_assert!(f.index() < g.index(), "{g:?} reads {f:?}");
            }
        }
    }

    /// Gates appended after the output bus is fixed can never be observed;
    /// the lint must report them as dead (floating tip and/or dead cone),
    /// and [`prune_dead`] must make the report clean again.
    #[test]
    fn appended_dead_gates_are_always_flagged_and_pruned(
        rs in recipes(),
        extra in 1usize..8,
        tap in any::<u8>(),
    ) {
        let mut nl = build_random_netlist(5, &rs);
        let nets: Vec<NetId> = nl.nets().collect();
        let mut cur = nets[tap as usize % nets.len()];
        let mut appended = Vec::new();
        for _ in 0..extra {
            cur = nl.not(cur);
            appended.push(cur);
        }
        let issues = check(&nl);
        prop_assert!(
            has_code(&issues, "dead-cone") || has_code(&issues, "floating-net"),
            "appended gates not reported: {issues:?}"
        );
        let dead: Vec<NetId> = issues
            .iter()
            .find_map(|i| match i {
                LintIssue::DeadCone { nets } => Some(nets.clone()),
                _ => None,
            })
            .unwrap_or_default();
        for g in &appended {
            prop_assert!(dead.contains(g), "{g:?} missing from dead cone {dead:?}");
        }
        let pruned = prune_dead(&nl);
        let after = check(&pruned);
        prop_assert!(!has_code(&after, "dead-cone"), "prune left dead logic: {after:?}");
        prop_assert!(!has_code(&after, "floating-net"));
    }

    /// `prune_dead` is semantics-preserving: for any input vector, the
    /// output bus evaluates identically before and after pruning (and the
    /// pruned netlist is never larger).
    #[test]
    fn prune_preserves_outputs_on_all_vectors(rs in recipes(), bits in any::<u32>()) {
        let inputs = 5;
        let nl = build_random_netlist(inputs, &rs);
        let pruned = prune_dead(&nl);
        prop_assert!(pruned.len() <= nl.len());
        let vals: Vec<bool> = (0..inputs).map(|i| bits >> i & 1 == 1).collect();
        let a = nl.eval(&vals);
        let b = pruned.eval(&vals);
        let before: Vec<bool> = nl.output("z").iter().map(|n| a[n.index()]).collect();
        let after: Vec<bool> = pruned.output("z").iter().map(|n| b[n.index()]).collect();
        prop_assert_eq!(before, after);
    }
}
