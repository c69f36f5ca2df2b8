//! Semantics-preserving optimization passes over the [`Dfg`].
//!
//! Every pass rebuilds the graph front to back, remapping operands — node
//! order stays topological and deterministic, which matters because the
//! elaborator emits gates in node order and downstream delay models key
//! off net identity. "Semantics-preserving" means *exact* ([`Q`])
//! semantics of every output: the online style's truncating multipliers
//! make bit-level semantics a property of the post-pass graph (each
//! elaboration is verified against the reference evaluator of the *same*
//! graph), while the exact value of every output never changes.
//!
//! [`allocate_adders`] is the chains-of-consecutive-additions decision:
//! how a flat list of addends is built into a two-input adder structure
//! dominates latency (and, for online arithmetic, the MSD window growth),
//! so it is a pluggable [`AdderStructure`] swept by the explorer.

use crate::ir::{Dfg, NodeId, Op};
use ola_redundant::Q;
use std::collections::HashMap;

/// How a chain of consecutive additions is allocated to two-input adders.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AdderStructure {
    /// Left-leaning chain in operand order: `((a+b)+c)+d`. Linear depth,
    /// minimal wiring — the naive allocation of a compiler front-end.
    LinearChain,
    /// Iterative pairwise reduction (`chunks(2)` rounds): logarithmic
    /// depth, the classic balanced adder tree.
    BalancedTree,
    /// Chain ordered by operand depth (shallowest first): each addition
    /// feeds the next while deeper operands are still producing digits —
    /// the allocation that overlaps online operators digit-serially.
    OnlineChained,
}

impl AdderStructure {
    /// Stable lowercase name for reports and CSV rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AdderStructure::LinearChain => "chain",
            AdderStructure::BalancedTree => "tree",
            AdderStructure::OnlineChained => "online-chain",
        }
    }
}

/// Copies one op into `out` with operands remapped through `map`,
/// returning the new id.
fn copy_op(out: &mut Dfg, map: &[NodeId], op: &Op) -> NodeId {
    match *op {
        Op::Input { ref name, fmt } => out.input(name, fmt),
        Op::Const(c) => out.constant(c),
        Op::Add(a, b) => out.add(map[a.index()], map[b.index()]),
        Op::Sub(a, b) => out.sub(map[a.index()], map[b.index()]),
        Op::Neg(a) => out.neg(map[a.index()]),
        Op::Mul(a, b) => out.mul(map[a.index()], map[b.index()]),
        Op::ConstMul(c, a) => out.const_mul(c, map[a.index()]),
        Op::Mac(ref terms) => {
            let mapped: Vec<(NodeId, NodeId)> =
                terms.iter().map(|&(a, b)| (map[a.index()], map[b.index()])).collect();
            out.mac(&mapped)
        }
    }
}

fn copy_outputs(dfg: &Dfg, out: &mut Dfg, map: &[NodeId]) {
    for (name, node) in dfg.outputs() {
        out.mark_output(name, map[node.index()]);
    }
}

/// Constant folding and algebraic canonicalization: all-constant
/// subtrees collapse to [`Op::Const`], `Const × x` canonicalizes to
/// [`Op::ConstMul`], and the identities `x + 0`, `x − 0`, `0 − x`,
/// `−(−x)`, `1·x`, `(−1)·x`, `0·x` simplify. Exact output values are
/// unchanged (multiplication folds exactly — the fold is the *exact*
/// product, which for the online style can only shrink the error budget
/// by removing a truncating operator).
///
/// # Panics
///
/// Panics if a folded constant overflows [`Q`] — never for graphs from
/// [`parse_dfg`](crate::parse_dfg), which bounds every constant
/// subexpression.
#[must_use]
pub fn constant_fold(dfg: &Dfg) -> Dfg {
    let mut out = Dfg::new();
    let mut map: Vec<NodeId> = Vec::with_capacity(dfg.len());
    // Exact constant value of each *new* node, when known.
    let mut cv: HashMap<NodeId, Q> = HashMap::new();
    let mut folded = 0u64;
    for (_, op) in dfg.nodes() {
        let cof = |map: &[NodeId], cv: &HashMap<NodeId, Q>, n: NodeId| -> Option<Q> {
            cv.get(&map[n.index()]).copied()
        };
        let new = match *op {
            Op::Input { .. } | Op::Const(_) => copy_op(&mut out, &map, op),
            Op::Add(a, b) => match (cof(&map, &cv, a), cof(&map, &cv, b)) {
                (Some(x), Some(y)) => {
                    folded += 1;
                    out.constant(exact(x.checked_add(y)))
                }
                (Some(x), None) if x.is_zero() => {
                    folded += 1;
                    map[b.index()]
                }
                (None, Some(y)) if y.is_zero() => {
                    folded += 1;
                    map[a.index()]
                }
                _ => copy_op(&mut out, &map, op),
            },
            Op::Sub(a, b) => match (cof(&map, &cv, a), cof(&map, &cv, b)) {
                (Some(x), Some(y)) => {
                    folded += 1;
                    out.constant(exact(x.checked_sub(y)))
                }
                (None, Some(y)) if y.is_zero() => {
                    folded += 1;
                    map[a.index()]
                }
                (Some(x), None) if x.is_zero() => {
                    folded += 1;
                    out.neg(map[b.index()])
                }
                _ => copy_op(&mut out, &map, op),
            },
            Op::Neg(a) => {
                let na = map[a.index()];
                if let Some(x) = cv.get(&na).copied() {
                    folded += 1;
                    out.constant(exact(x.checked_neg()))
                } else if let Op::Neg(inner) = *out.op(na) {
                    folded += 1;
                    inner
                } else {
                    out.neg(na)
                }
            }
            Op::Mul(a, b) => match (cof(&map, &cv, a), cof(&map, &cv, b)) {
                (Some(x), Some(y)) => {
                    folded += 1;
                    out.constant(exact(x.checked_mul(y)))
                }
                (Some(x), None) => {
                    folded += 1;
                    fold_const_mul(&mut out, x, map[b.index()])
                }
                (None, Some(y)) => {
                    folded += 1;
                    fold_const_mul(&mut out, y, map[a.index()])
                }
                _ => copy_op(&mut out, &map, op),
            },
            Op::ConstMul(c, a) => {
                if let Some(x) = cof(&map, &cv, a) {
                    folded += 1;
                    out.constant(exact(c.checked_mul(x)))
                } else {
                    fold_const_mul(&mut out, c, map[a.index()])
                }
            }
            Op::Mac(ref terms) => {
                // All-constant terms fold into one exact addend; terms
                // with a zero factor vanish. The accumulation order of
                // the surviving terms is preserved.
                let mut csum = Q::ZERO;
                let mut dropped = false;
                let mut kept: Vec<(NodeId, NodeId)> = Vec::new();
                for &(a, b) in terms {
                    match (cof(&map, &cv, a), cof(&map, &cv, b)) {
                        (Some(x), Some(y)) => {
                            dropped = true;
                            csum = exact(x.checked_mul(y).and_then(|p| csum.checked_add(p)));
                        }
                        (Some(x), None) if x.is_zero() => dropped = true,
                        (None, Some(y)) if y.is_zero() => dropped = true,
                        _ => kept.push((map[a.index()], map[b.index()])),
                    }
                }
                if kept.is_empty() {
                    folded += 1;
                    out.constant(csum)
                } else {
                    if dropped {
                        folded += 1;
                    }
                    let m = out.mac(&kept);
                    if csum.is_zero() {
                        m
                    } else {
                        let c = out.constant(csum);
                        out.add(m, c)
                    }
                }
            }
        };
        if let Op::Const(c) = *out.op(new) {
            cv.insert(new, c);
        }
        map.push(new);
    }
    copy_outputs(dfg, &mut out, &map);
    ola_core::obs::registry().counter("ola.synth.nodes_folded").add(folded);
    crate::verify::debug_prove_rewrite("const-fold", dfg, &out);
    out
}

/// A folded constant's exact value. Folding never wraps: `parse_dfg`
/// rejects constant subexpressions outside the `i64` range, and the DSP
/// generators only emit narrow dyadic coefficients.
fn exact(value: Option<Q>) -> Q {
    value.expect("folded constant overflows Q: constants must stay in the i64 range")
}

/// `c · x` with the multiplicative identities applied.
fn fold_const_mul(out: &mut Dfg, c: Q, x: NodeId) -> NodeId {
    if c.is_zero() {
        out.constant(Q::ZERO)
    } else if c == Q::ONE {
        x
    } else if c == -Q::ONE {
        out.neg(x)
    } else {
        out.const_mul(c, x)
    }
}

/// Structural key for CSE; commutative operands are sorted so `a + b`
/// and `b + a` share one node (the first occurrence — and its operand
/// order — is kept, so gate-level operand wiring never changes for the
/// surviving node).
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Const(i128, u32),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Neg(NodeId),
    Mul(NodeId, NodeId),
    ConstMul(i128, u32, NodeId),
    Mac(Vec<(NodeId, NodeId)>),
}

/// Common-subexpression elimination: structurally identical non-input
/// nodes (same op, same remapped operands, commutative ops order-blind)
/// collapse to their first occurrence.
#[must_use]
pub fn cse(dfg: &Dfg) -> Dfg {
    let mut out = Dfg::new();
    let mut map: Vec<NodeId> = Vec::with_capacity(dfg.len());
    let mut seen: HashMap<Key, NodeId> = HashMap::new();
    let mut merged = 0u64;
    for (_, op) in dfg.nodes() {
        let key = match *op {
            Op::Input { .. } => None,
            Op::Const(c) => Some(Key::Const(c.numerator(), c.scale())),
            Op::Add(a, b) => {
                let (x, y) = commute(map[a.index()], map[b.index()]);
                Some(Key::Add(x, y))
            }
            Op::Sub(a, b) => Some(Key::Sub(map[a.index()], map[b.index()])),
            Op::Neg(a) => Some(Key::Neg(map[a.index()])),
            Op::Mul(a, b) => {
                let (x, y) = commute(map[a.index()], map[b.index()]);
                Some(Key::Mul(x, y))
            }
            Op::ConstMul(c, a) => Some(Key::ConstMul(c.numerator(), c.scale(), map[a.index()])),
            // Each factor pair is order-blind (x·y = y·x, and the fused
            // window algebra is symmetric per term); the accumulation
            // order of terms is structural and kept.
            Op::Mac(ref terms) => Some(Key::Mac(
                terms.iter().map(|&(a, b)| commute(map[a.index()], map[b.index()])).collect(),
            )),
        };
        let new = match key {
            Some(k) => {
                if let Some(&hit) = seen.get(&k) {
                    merged += 1;
                    hit
                } else {
                    let id = copy_op(&mut out, &map, op);
                    seen.insert(k, id);
                    id
                }
            }
            None => copy_op(&mut out, &map, op),
        };
        map.push(new);
    }
    copy_outputs(dfg, &mut out, &map);
    ola_core::obs::registry().counter("ola.synth.cse_merged").add(merged);
    crate::verify::debug_prove_rewrite("cse", dfg, &out);
    out
}

fn commute(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Dead-node elimination: drops nodes no output depends on. Primary
/// inputs are always kept — the graph's interface (and hence the
/// elaborated netlist's input vector layout) is stable across passes.
#[must_use]
pub fn eliminate_dead(dfg: &Dfg) -> Dfg {
    let mut live = vec![false; dfg.len()];
    for &(_, n) in dfg.outputs() {
        live[n.index()] = true;
    }
    for (id, op) in dfg.nodes().collect::<Vec<_>>().into_iter().rev() {
        if live[id.index()] {
            for o in op.operands() {
                live[o.index()] = true;
            }
        }
    }
    let mut out = Dfg::new();
    let mut map: Vec<NodeId> = Vec::with_capacity(dfg.len());
    let mut removed = 0u64;
    for (id, op) in dfg.nodes() {
        let keep = live[id.index()] || matches!(op, Op::Input { .. });
        let new = if keep {
            copy_op(&mut out, &map, op)
        } else {
            removed += 1;
            // Placeholder; dead nodes are never referenced by live ones.
            NodeId::placeholder()
        };
        map.push(new);
    }
    copy_outputs(dfg, &mut out, &map);
    ola_core::obs::registry().counter("ola.synth.dead_removed").add(removed);
    crate::verify::debug_prove_rewrite("eliminate-dead", dfg, &out);
    out
}

/// Re-associates chains of consecutive additions per `structure`.
///
/// An *add tree* is a maximal region of [`Op::Add`] nodes in which every
/// internal node has fan-out 1 and is not itself an output; its leaves
/// (in left-to-right order) are gathered and rebuilt per the chosen
/// [`AdderStructure`]. Bypassed internal adds become dead and are swept
/// by [`eliminate_dead`] (which [`optimize`] runs afterwards). Exact
/// output values are preserved — addition is associative and commutative
/// over `Q`.
#[must_use]
pub fn allocate_adders(dfg: &Dfg, structure: AdderStructure) -> Dfg {
    // Fan-out (operand uses + output references) per node.
    let mut uses = vec![0usize; dfg.len()];
    for (_, op) in dfg.nodes() {
        for o in op.operands() {
            uses[o.index()] += 1;
        }
    }
    let mut is_output = vec![false; dfg.len()];
    for &(_, n) in dfg.outputs() {
        is_output[n.index()] = true;
        uses[n.index()] += 1;
    }
    // Internal = an Add consumed exactly once, by an Add, and not an output.
    let mut consumed_by_add = vec![false; dfg.len()];
    for (_, op) in dfg.nodes() {
        if let Op::Add(a, b) = op {
            consumed_by_add[a.index()] = true;
            consumed_by_add[b.index()] = true;
        }
    }
    let internal = |id: NodeId| {
        matches!(dfg.op(id), Op::Add(..))
            && uses[id.index()] == 1
            && consumed_by_add[id.index()]
            && !is_output[id.index()]
    };

    // Node depth (longest path from a source) for OnlineChained ordering.
    let mut depth = vec![0usize; dfg.len()];
    for (id, op) in dfg.nodes() {
        depth[id.index()] = op.operands().iter().map(|o| depth[o.index()] + 1).max().unwrap_or(0);
    }

    fn leaves(dfg: &Dfg, id: NodeId, internal: &dyn Fn(NodeId) -> bool, acc: &mut Vec<NodeId>) {
        match *dfg.op(id) {
            Op::Add(a, b) if internal(a) => {
                leaves(dfg, a, internal, acc);
                if internal(b) {
                    leaves(dfg, b, internal, acc);
                } else {
                    acc.push(b);
                }
            }
            Op::Add(a, b) => {
                acc.push(a);
                if internal(b) {
                    leaves(dfg, b, internal, acc);
                } else {
                    acc.push(b);
                }
            }
            _ => acc.push(id),
        }
    }

    let mut out = Dfg::new();
    let mut map: Vec<NodeId> = Vec::with_capacity(dfg.len());
    for (id, op) in dfg.nodes() {
        let is_root = matches!(op, Op::Add(..)) && !internal(id);
        let new = if is_root {
            let mut ls = Vec::new();
            leaves(dfg, id, &internal, &mut ls);
            if ls.len() < 3 {
                copy_op(&mut out, &map, op)
            } else {
                let mapped: Vec<(NodeId, usize)> =
                    ls.iter().map(|l| (map[l.index()], depth[l.index()])).collect();
                build_structure(&mut out, &mapped, structure)
            }
        } else {
            copy_op(&mut out, &map, op)
        };
        map.push(new);
    }
    copy_outputs(dfg, &mut out, &map);
    crate::verify::debug_prove_rewrite("allocate-adders", dfg, &out);
    out
}

/// Builds one addend list into adders per the chosen structure.
fn build_structure(out: &mut Dfg, leaves: &[(NodeId, usize)], s: AdderStructure) -> NodeId {
    match s {
        AdderStructure::LinearChain => {
            let mut acc = leaves[0].0;
            for &(l, _) in &leaves[1..] {
                acc = out.add(acc, l);
            }
            acc
        }
        AdderStructure::OnlineChained => {
            // Stable sort by depth: shallow (early-settling) addends first,
            // so each adder's output streams into the next while the deep
            // operands are still producing digits.
            let mut sorted: Vec<(NodeId, usize)> = leaves.to_vec();
            sorted.sort_by_key(|&(_, d)| d);
            let mut acc = sorted[0].0;
            for &(l, _) in &sorted[1..] {
                acc = out.add(acc, l);
            }
            acc
        }
        AdderStructure::BalancedTree => {
            let mut level: Vec<NodeId> = leaves.iter().map(|&(l, _)| l).collect();
            while level.len() > 1 {
                level = level
                    .chunks(2)
                    .map(|pair| if pair.len() == 2 { out.add(pair[0], pair[1]) } else { pair[0] })
                    .collect();
            }
            level[0]
        }
    }
}

/// The standard pipeline: fold → CSE → adder allocation → dead-node
/// elimination. Publishes `ola.synth.*` counters for each pass.
#[must_use]
pub fn optimize(dfg: &Dfg, structure: AdderStructure) -> Dfg {
    let _span = ola_core::obs::span("synth.optimize");
    eliminate_dead(&allocate_adders(&cse(&constant_fold(dfg)), structure))
}

impl NodeId {
    /// A sentinel for dead-node map slots; never dereferenced.
    fn placeholder() -> NodeId {
        // Index usize::MAX can never be a real node.
        NodeId::from_raw(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::InputFmt;
    use crate::parser::parse_dfg;
    use ola_redundant::{BsVector, SdNumber};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn fmt(n: usize) -> InputFmt {
        InputFmt { msd_pos: 1, digits: n }
    }

    /// Exact-semantics equivalence on random inputs.
    fn assert_equivalent(a: &Dfg, b: &Dfg) {
        assert_eq!(a.inputs().len(), b.inputs().len(), "interface must be stable");
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for _ in 0..50 {
            let ins: Vec<Q> = a
                .inputs()
                .iter()
                .map(|&(_, _, f)| {
                    let lim = (1i128 << f.digits) - 1;
                    Q::new(rng.gen_range(-lim..=lim), f.digits as u32)
                        << (1 - f.msd_pos).unsigned_abs()
                        >> (f.msd_pos - 1).max(0) as u32
                })
                .collect();
            // The shifts above cancel for msd_pos = 1; for other formats we
            // only need *some* representable value, so this is fine.
            assert_eq!(a.eval_exact(&ins), b.eval_exact(&ins));
        }
    }

    #[test]
    fn constant_subtrees_fold_away() {
        let d = parse_dfg("y = a + (0.5 * 0.5 + 0.25) - 0.5", fmt(4)).unwrap();
        let f = eliminate_dead(&constant_fold(&d));
        assert_equivalent(&d, &f);
        let consts = f.nodes().filter(|(_, op)| matches!(op, Op::Const(_))).count();
        assert!(f.len() < d.len(), "folded + dead-eliminated graph shrinks: {f:?}");
        assert!(consts >= 1);
    }

    #[test]
    fn mul_by_const_canonicalizes() {
        let d = parse_dfg("y = 0.25 * a + b * 0.5 + 1 * c + -1 * e + 0 * f", fmt(4)).unwrap();
        let f = eliminate_dead(&constant_fold(&d));
        assert_equivalent(&d, &f);
        let cm = f.nodes().filter(|(_, op)| matches!(op, Op::ConstMul(..))).count();
        let mul = f.nodes().filter(|(_, op)| matches!(op, Op::Mul(..))).count();
        assert_eq!((cm, mul), (2, 0), "{f:?}");
        // 1*c → alias, −1*e → Neg, 0*f → const zero (then x+0 folds).
        assert!(f.nodes().any(|(_, op)| matches!(op, Op::Neg(_))));
    }

    #[test]
    fn whole_graph_can_fold_to_a_constant() {
        let d = parse_dfg("y = 0.5 * 0.5 + 0.25", fmt(4)).unwrap();
        let f = eliminate_dead(&constant_fold(&d));
        assert_eq!(f.eval_exact(&[]), vec![Q::new(1, 1)]);
        assert!(f.nodes().all(|(_, op)| matches!(op, Op::Const(_))), "{f:?}");
    }

    #[test]
    fn cse_merges_duplicates_keeping_first_operand_order() {
        let mut d = Dfg::new();
        let a = d.input("a", fmt(4));
        let b = d.input("b", fmt(4));
        let s1 = d.add(a, b);
        let s2 = d.add(b, a); // commuted duplicate
        let m = d.mul(s1, s2);
        d.mark_output("y", m);
        let c = cse(&d);
        assert_equivalent(&d, &c);
        let adds: Vec<_> = c
            .nodes()
            .filter_map(|(id, op)| match op {
                Op::Add(x, y) => Some((id, *x, *y)),
                _ => None,
            })
            .collect();
        assert_eq!(adds.len(), 1, "duplicate add merged");
        // First occurrence's operand order (a, b) survives.
        assert_eq!((adds[0].1, adds[0].2), (NodeId::from_raw(0), NodeId::from_raw(1)));
    }

    #[test]
    fn dce_keeps_inputs_and_drops_dead_math() {
        let mut d = Dfg::new();
        let a = d.input("a", fmt(4));
        let b = d.input("b", fmt(4));
        let dead = d.mul(a, b);
        let _dead2 = d.neg(dead);
        let live = d.add(a, b);
        d.mark_output("y", live);
        let e = eliminate_dead(&d);
        assert_equivalent(&d, &e);
        assert_eq!(e.inputs().len(), 2, "inputs always survive");
        assert_eq!(e.len(), 3, "a, b, add");
    }

    #[test]
    fn allocations_are_semantics_preserving_and_shaped() {
        let d = parse_dfg("y = a + b + c + e + f", fmt(4)).unwrap();
        for s in [
            AdderStructure::LinearChain,
            AdderStructure::BalancedTree,
            AdderStructure::OnlineChained,
        ] {
            let r = optimize(&d, s);
            assert_equivalent(&d, &r);
            let adds = r.nodes().filter(|(_, op)| matches!(op, Op::Add(..))).count();
            assert_eq!(adds, 4, "{s:?} keeps 4 two-input adders");
        }
        // Depth differs: balanced tree is shallower than the chain.
        let chain = optimize(&d, AdderStructure::LinearChain);
        let tree = optimize(&d, AdderStructure::BalancedTree);
        assert!(max_depth(&tree) < max_depth(&chain));
    }

    fn max_depth(d: &Dfg) -> usize {
        let mut depth = vec![0usize; d.len()];
        let mut m = 0;
        for (id, op) in d.nodes() {
            depth[id.index()] =
                op.operands().iter().map(|o| depth[o.index()] + 1).max().unwrap_or(0);
            m = m.max(depth[id.index()]);
        }
        m
    }

    #[test]
    fn online_chained_orders_by_depth() {
        // f is behind a multiplier (deep); chain must put it last.
        let d = parse_dfg("y = f*g + a + b", fmt(4)).unwrap();
        let r = optimize(&d, AdderStructure::OnlineChained);
        assert_equivalent(&d, &r);
        let last_add = r
            .nodes()
            .filter_map(|(id, op)| match op {
                Op::Add(..) => Some(id),
                _ => None,
            })
            .last()
            .unwrap();
        if let Op::Add(_, rhs) = *r.op(last_add) {
            assert!(matches!(r.op(rhs), Op::Mul(..)), "deep multiplier addend chained last: {r:?}");
        }
    }

    #[test]
    fn fanout_and_output_boundaries_stop_reassociation() {
        // t is an output and also feeds y: it must survive reassociation.
        let d = parse_dfg("t = a + b + c\ny = t + e + f\nz = t", fmt(4)).unwrap();
        let r = optimize(&d, AdderStructure::BalancedTree);
        assert_equivalent(&d, &r);
        // `t` is read by `y`, so the alias `z` is the exported name.
        let t_node = r.outputs().iter().find(|(n, _)| n == "z").unwrap().1;
        let y_node = r.outputs().iter().find(|(n, _)| n == "y").unwrap().1;
        assert!(matches!(r.op(t_node), Op::Add(..)));
        assert!(matches!(r.op(y_node), Op::Add(..)));
    }

    #[test]
    fn mac_terms_fold_and_vanish() {
        // (a, 0.5) stays; (0.25, 0.5) folds to a constant addend;
        // (b, 0) vanishes.
        let mut d = Dfg::new();
        let a = d.input("a", fmt(4));
        let b = d.input("b", fmt(4));
        let half = d.constant(Q::new(1, 1));
        let quarter = d.constant(Q::new(1, 2));
        let zero = d.constant(Q::ZERO);
        let m = d.mac(&[(a, half), (quarter, half), (b, zero)]);
        d.mark_output("y", m);
        let f = eliminate_dead(&constant_fold(&d));
        assert_equivalent(&d, &f);
        let macs: Vec<_> = f
            .nodes()
            .filter_map(|(_, op)| match op {
                Op::Mac(t) => Some(t.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(macs.len(), 1);
        assert_eq!(macs[0].len(), 1, "only the live term survives: {f:?}");
        // The folded constant product re-enters through an Add.
        assert!(f.nodes().any(|(_, op)| matches!(op, Op::Add(..))));
    }

    #[test]
    fn all_constant_mac_folds_to_a_constant() {
        let mut d = Dfg::new();
        let h = d.constant(Q::new(1, 1));
        let q = d.constant(Q::new(1, 2));
        let m = d.mac(&[(h, q), (q, q)]);
        d.mark_output("y", m);
        let f = eliminate_dead(&constant_fold(&d));
        assert_eq!(
            f.eval_exact(&[]),
            vec![Q::new(1, 2) * Q::new(1, 1) + Q::new(1, 2) * Q::new(1, 2)]
        );
        assert!(f.nodes().all(|(_, op)| matches!(op, Op::Const(_))), "{f:?}");
    }

    #[test]
    fn cse_merges_macs_with_commuted_factor_pairs() {
        let mut d = Dfg::new();
        let a = d.input("a", fmt(4));
        let b = d.input("b", fmt(4));
        let c = d.input("c", fmt(4));
        let m1 = d.mac(&[(a, b), (b, c)]);
        let m2 = d.mac(&[(b, a), (c, b)]); // factor pairs commuted
        let s = d.add(m1, m2);
        d.mark_output("y", s);
        let r = cse(&d);
        assert_equivalent(&d, &r);
        let macs = r.nodes().filter(|(_, op)| matches!(op, Op::Mac(_))).count();
        assert_eq!(macs, 1, "commuted-pair duplicate merged: {r:?}");
    }

    #[test]
    fn optimize_preserves_online_reference_semantics_of_result() {
        // The post-pass graph evaluates consistently online: same graph,
        // same reference — sanity that passes produce valid graphs.
        let d = parse_dfg("y = 0.25*a + 0.5*b + 0.25*c", fmt(6)).unwrap();
        let r = optimize(&d, AdderStructure::BalancedTree);
        let ins: Vec<BsVector> = [5i128, -11, 19]
            .iter()
            .map(|&v| BsVector::from_sd(&SdNumber::from_value(Q::new(v, 6), 6).unwrap()))
            .collect();
        let got = r.eval_online(&ins, 3);
        let exact = r.eval_exact(&[Q::new(5, 6), Q::new(-11, 6), Q::new(19, 6)]);
        assert_eq!(got.len(), 1);
        assert!((got[0].value() - exact[0]).abs() <= Q::new(9, 7) << 1);
    }
}
