//! Property-based tests of the equivalence checker
//! ([`ola_netlist::equiv`]): on random ≤12-input netlists its verdict
//! always agrees with brute-force exhaustive evaluation, a `Mismatch`
//! always carries a replayable counterexample, and every stage of the
//! staged strategy (structural, BDD, exhaustive, random-batch) upholds
//! both properties when forced to decide on its own.

// Integration-test helpers sit outside `#[test]` fns, so clippy's
// `allow-unwrap-in-tests` doesn't reach them; a loud panic is still the
// right failure mode here.
#![allow(clippy::unwrap_used)]

use ola_netlist::sta::lint::prune_dead;
use ola_netlist::{
    check_equiv, check_equiv_with, Counterexample, EquivOptions, EquivVerdict, NetId, Netlist,
};
use proptest::prelude::*;

/// A recipe for one random gate: (kind selector, input selectors).
type GateRecipe = (u8, u8, u8, u8);

/// Builds a random DAG netlist over `inputs` primary inputs; the last
/// four nets form the output bus `z`, matching interfaces across
/// independently generated recipe lists.
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
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 4..40)
}

/// Ground truth: enumerate all `2^n` vectors and compare every output
/// bus bit by bit.
fn brute_force_equal(a: &Netlist, b: &Netlist) -> bool {
    let n = a.inputs().len();
    assert!(n <= 12, "brute force is exponential");
    for pat in 0u32..1 << n {
        let ins: Vec<bool> = (0..n).map(|i| pat >> i & 1 == 1).collect();
        let va = a.eval(&ins);
        let vb = b.eval(&ins);
        for (bus, nets) in a.outputs() {
            let other = b.output(bus);
            for (na, nb) in nets.iter().zip(other) {
                if va[na.index()] != vb[nb.index()] {
                    return false;
                }
            }
        }
    }
    true
}

/// Replays a counterexample exactly as its docs promise: evaluate both
/// sides on `inputs` and compare bit `bit` of bus `bus`.
fn assert_replays(cx: &Counterexample, a: &Netlist, b: &Netlist) {
    assert_ne!(cx.left, cx.right, "a counterexample must distinguish");
    let va = a.eval(&cx.inputs);
    let vb = b.eval(&cx.inputs);
    let la = a.output(&cx.bus)[cx.bit];
    let rb = b.output(&cx.bus)[cx.bit];
    assert_eq!(va[la.index()], cx.left, "left side replay");
    assert_eq!(vb[rb.index()], cx.right, "right side replay");
}

/// Option sets that force each fallback stage to decide alone:
/// structural hashing always runs first, then (BDD, exhaustive,
/// random-batch) as configured.
fn forced_stages() -> [EquivOptions; 3] {
    let base = EquivOptions::default();
    [
        base, // full pipeline: BDD gets first shot after structural
        EquivOptions { bdd_node_budget: 0, ..base }, // straight to exhaustive
        EquivOptions { bdd_node_budget: 0, exhaustive_input_limit: 0, ..base }, // random only
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two independently random netlists over the same interface:
    /// whenever the checker returns a *proof* it must agree with brute
    /// force, and a `Mismatch` from any stage must replay. (Random pairs
    /// exercise both verdicts: they almost always differ, while the
    /// occasional coincidence lands on the equivalent side.)
    #[test]
    fn verdicts_agree_with_brute_force(
        ra in recipes(),
        rb in recipes(),
        inputs in 2usize..13,
    ) {
        let a = build_random_netlist(inputs, &ra);
        let b = build_random_netlist(inputs, &rb);
        let truth = brute_force_equal(&a, &b);
        for opts in forced_stages() {
            let verdict = check_equiv_with(&a, &b, &opts).unwrap();
            match &verdict {
                EquivVerdict::Mismatch { counterexample, .. } => {
                    prop_assert!(!truth, "checker found a counterexample on equal functions");
                    assert_replays(counterexample, &a, &b);
                }
                EquivVerdict::Equivalent { .. } => {
                    prop_assert!(truth, "checker proved different functions equal");
                }
                // Sampling can miss a difference; it must only ever
                // hedge, never assert a proof.
                EquivVerdict::ProbablyEquivalent { .. } => {
                    prop_assert!(!verdict.is_proof());
                }
            }
        }
    }

    /// Semantics-preserving transforms are always proven equivalent:
    /// `prune_dead` (structural twin) and a double-negated output cone
    /// (structurally different, so the proof has to come from BDD or
    /// exhaustive evaluation).
    #[test]
    fn equivalent_transforms_always_prove(rs in recipes(), inputs in 2usize..7) {
        let a = build_random_netlist(inputs, &rs);
        let pruned = prune_dead(&a);
        let v = check_equiv(&a, &pruned).unwrap();
        prop_assert!(v.is_equivalent() && v.is_proof(), "prune: {v:?}");

        let mut doubled = a.clone();
        let z: Vec<NetId> = doubled.output("z").to_vec();
        let negated: Vec<NetId> = z
            .iter()
            .map(|&bit| {
                let n1 = doubled.not(bit);
                doubled.not(n1)
            })
            .collect();
        doubled.set_output("z", negated);
        let v = check_equiv(&a, &doubled).unwrap();
        prop_assert!(v.is_equivalent() && v.is_proof(), "double negation: {v:?}");
        prop_assert!(brute_force_equal(&a, &doubled));
    }

    /// An inverted output bit is inequivalent on *every* vector, so all
    /// stages — including the probabilistic random batch — must return
    /// `Mismatch` with a replayable counterexample.
    #[test]
    fn inverted_bit_mismatches_under_every_stage(rs in recipes(), inputs in 2usize..7) {
        let a = build_random_netlist(inputs, &rs);
        let mut broken = a.clone();
        let mut z: Vec<NetId> = broken.output("z").to_vec();
        z[0] = broken.not(z[0]);
        broken.set_output("z", z);
        prop_assert!(!brute_force_equal(&a, &broken));
        for opts in forced_stages() {
            let verdict = check_equiv_with(&a, &broken, &opts).unwrap();
            match &verdict {
                EquivVerdict::Mismatch { counterexample, .. } => {
                    assert_replays(counterexample, &a, &broken);
                }
                other => prop_assert!(false, "stage missed an always-on defect: {other:?}"),
            }
        }
    }
}
