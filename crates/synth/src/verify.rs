//! Prove-after-rewrite: formal equivalence gates for the compiler.
//!
//! Every semantics-preserving pass claims it leaves the exact value of
//! every output untouched. This module turns that claim into a theorem
//! on demand: elaborate the graph before and after the rewrite in the
//! *conventional* style (which is exact against [`Dfg::eval_exact`] by
//! construction), align the output buses to a common two's-complement
//! format (pure wiring — zero LSB padding and sign extension), and hand
//! the pair to the netlist-level equivalence checker
//! ([`ola_netlist::equiv`]). Bit-level equivalence of the aligned buses
//! is then exactly value-level equivalence of the IR outputs.
//!
//! The gates are off by default (a BDD proof per pass invocation is not
//! free) and enabled by setting [`PROVE_REWRITES`] (`OLA_PROVE_REWRITES`)
//! to `1` or `true` ([`ola_core::resilience::env_flag`]'s grammar) — CI's
//! `verify` job and the `repro equiv` experiment run with it on. A failed proof panics with the
//! replayable counterexample: a pass that miscompiles must never limp
//! on.
//!
//! Outcomes land in deterministic `ola.verify.*` counters:
//! `ola.verify.rewrites_proved`, `ola.verify.rewrite_mismatches`, and
//! `ola.verify.prove_skipped` (graphs whose widths exceed the
//! conventional lowering caps — e.g. a 40-digit multiplier operand —
//! cannot take this route and are counted, not silently dropped).

use crate::elab::{elaborate, ElabOptions, PortShape, Style};
use crate::ir::{Dfg, Op};
use ola_netlist::{check_equiv, EquivVerdict, Netlist};

/// Environment variable enabling the prove-after-rewrite gates (`1` or
/// `true` = on, see [`ola_core::resilience::env_flag`]).
pub const PROVE_REWRITES: &str = "OLA_PROVE_REWRITES";

/// True when [`PROVE_REWRITES`] requests prove-after-rewrite gates.
#[must_use]
pub fn prove_gate_enabled() -> bool {
    ola_core::resilience::env_flag(PROVE_REWRITES)
}

/// True when `dfg` fits the conventional lowering's width caps
/// (multiplier operands ≤ 31 bits, constants ≤ 63 bits) — the
/// precondition for the equivalence-proof route.
#[must_use]
pub fn conventional_caps_ok(dfg: &Dfg) -> bool {
    let formats = dfg.tc_formats();
    dfg.nodes().all(|(_, op)| match op {
        Op::Const(c) => crate::ir::const_tc_format(*c).0 <= 63,
        Op::Mul(a, b) => formats[a.index()].0.max(formats[b.index()].0) <= 31,
        Op::ConstMul(c, a) => {
            let (wc, _) = crate::ir::const_tc_format(*c);
            wc <= 63 && wc.max(formats[a.index()].0) <= 31
        }
        Op::Mac(terms) => {
            terms.iter().all(|&(a, b)| formats[a.index()].0.max(formats[b.index()].0) <= 31)
        }
        _ => true,
    })
}

/// Elaborates `before` and `after` conventionally and aligns every
/// output bus pair to a common `(width, frac)` by zero-padding LSBs and
/// sign-extending MSBs — pure wiring, so bit-level equivalence of the
/// aligned netlists is value-level equivalence of the graphs.
///
/// Returns [`None`] when either graph exceeds the conventional width
/// caps (the route is unavailable, not failed).
#[must_use]
pub fn aligned_conventional_pair(before: &Dfg, after: &Dfg) -> Option<(Netlist, Netlist)> {
    if !conventional_caps_ok(before) || !conventional_caps_ok(after) {
        return None;
    }
    let opts = ElabOptions::new(Style::Conventional);
    let mut a = elaborate(before, &opts);
    let mut b = elaborate(after, &opts);
    for (pa, pb) in a.outputs.clone().iter().zip(b.outputs.clone().iter()) {
        debug_assert_eq!(pa.name, pb.name, "passes preserve output order");
        let (PortShape::Tc { width: wa, frac: fa }, PortShape::Tc { width: wb, frac: fb }) =
            (pa.shape, pb.shape)
        else {
            unreachable!("conventional datapaths have tc ports");
        };
        let frac = fa.max(fb);
        let width = (wa + (frac - fa) as usize).max(wb + (frac - fb) as usize);
        align_bus(&mut a.netlist, &pa.name, frac - fa, width);
        align_bus(&mut b.netlist, &pb.name, frac - fb, width);
    }
    Some((a.netlist, b.netlist))
}

/// Re-registers output bus `name` with `pad` constant-zero LSBs and sign
/// extension up to `width` bits.
fn align_bus(nl: &mut Netlist, name: &str, pad: i32, width: usize) {
    let old = nl.output(name).to_vec();
    let sign = *old.last().expect("elaborated buses are non-empty");
    let mut bits = Vec::with_capacity(width);
    for _ in 0..pad {
        bits.push(nl.constant(false));
    }
    bits.extend_from_slice(&old);
    while bits.len() < width {
        bits.push(sign);
    }
    nl.set_output(name, bits);
}

/// Proves that `after` computes the same exact value as `before` on
/// every output, via conventional elaboration and the staged netlist
/// equivalence checker. Returns the verdict, or [`None`] when the
/// conventional route is unavailable (width caps).
///
/// # Panics
///
/// Panics if the graphs' interfaces drifted (passes must keep inputs and
/// output order stable) — that is a compiler bug, not an input error.
#[must_use]
pub fn prove_pass_equivalence(before: &Dfg, after: &Dfg) -> Option<EquivVerdict> {
    let (a, b) = aligned_conventional_pair(before, after)?;
    match check_equiv(&a, &b) {
        Ok(verdict) => Some(verdict),
        Err(e) => panic!("rewrite changed the datapath interface: {e}"),
    }
}

/// The debug gate the passes call: no-op unless [`prove_gate_enabled`],
/// otherwise prove and panic on MISMATCH with the replayable
/// counterexample.
pub(crate) fn debug_prove_rewrite(pass: &str, before: &Dfg, after: &Dfg) {
    if !prove_gate_enabled() {
        return;
    }
    let reg = ola_core::obs::registry();
    match prove_pass_equivalence(before, after) {
        None => reg.counter("ola.verify.prove_skipped").add(1),
        Some(v) if v.is_equivalent() => {
            reg.counter("ola.verify.rewrites_proved").add(1);
        }
        Some(EquivVerdict::Mismatch { method, counterexample }) => {
            reg.counter("ola.verify.rewrite_mismatches").add(1);
            panic!(
                "pass {pass:?} miscompiled: outputs differ ({} found by {}): {counterexample}",
                counterexample.bus,
                method.name()
            );
        }
        Some(_) => unreachable!("non-mismatch verdicts are equivalent"),
    }
}

/// The debug gate for netlist-level rewrites (today: `prune_dead` inside
/// elaboration): both netlists share interfaces, so no alignment is
/// needed. No-op unless [`prove_gate_enabled`].
pub(crate) fn debug_prove_netlist_rewrite(pass: &str, before: &Netlist, after: &Netlist) {
    if !prove_gate_enabled() {
        return;
    }
    let reg = ola_core::obs::registry();
    match check_equiv(before, after) {
        Ok(v) if v.is_equivalent() => {
            reg.counter("ola.verify.rewrites_proved").add(1);
        }
        Ok(EquivVerdict::Mismatch { method, counterexample }) => {
            reg.counter("ola.verify.rewrite_mismatches").add(1);
            panic!(
                "netlist pass {pass:?} miscompiled ({} found by {}): {counterexample}",
                counterexample.bus,
                method.name()
            );
        }
        Ok(_) => unreachable!("non-mismatch verdicts are equivalent"),
        Err(e) => panic!("netlist pass {pass:?} changed the interface: {e}"),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::ir::InputFmt;
    use crate::parser::parse_dfg;
    use crate::passes::{constant_fold, cse, eliminate_dead, optimize, AdderStructure};
    use ola_redundant::Q;

    fn fmt(n: usize) -> InputFmt {
        InputFmt { msd_pos: 1, digits: n }
    }

    #[test]
    fn every_pass_is_provably_equivalent() {
        let d = parse_dfg("y = a * 0.25 + b * 0.5 + a * 0.25 + (0.5 - 0.25)", fmt(4)).unwrap();
        let stages: Vec<(&str, Dfg)> = vec![
            ("const-fold", constant_fold(&d)),
            ("cse", cse(&constant_fold(&d))),
            ("dce", eliminate_dead(&cse(&constant_fold(&d)))),
            ("chain", optimize(&d, AdderStructure::LinearChain)),
            ("tree", optimize(&d, AdderStructure::BalancedTree)),
            ("online-chain", optimize(&d, AdderStructure::OnlineChained)),
        ];
        for (pass, after) in &stages {
            let v = prove_pass_equivalence(&d, after).expect("within conventional caps");
            assert!(v.is_equivalent(), "{pass}: {v:?}");
            assert!(v.is_proof(), "{pass}: pass proofs must not be probabilistic");
        }
    }

    #[test]
    fn a_broken_rewrite_is_caught_with_a_replayable_counterexample() {
        // A deliberately wrong "rewrite": y = a + b  ↛  y = a - b.
        let before = parse_dfg("y = a + b", fmt(3)).unwrap();
        let after = parse_dfg("y = a - b", fmt(3)).unwrap();
        let v = prove_pass_equivalence(&before, &after).expect("within caps");
        let EquivVerdict::Mismatch { counterexample, .. } = v else {
            panic!("expected mismatch, got {v:?}");
        };
        // Replay through the aligned netlists.
        let (a, b) = aligned_conventional_pair(&before, &after).unwrap();
        let av = a.eval(&counterexample.inputs);
        let bv = b.eval(&counterexample.inputs);
        let abit = a.output(&counterexample.bus)[counterexample.bit];
        let bbit = b.output(&counterexample.bus)[counterexample.bit];
        assert_ne!(av[abit.index()], bv[bbit.index()]);
    }

    #[test]
    fn alignment_reconciles_diverging_output_formats() {
        // Constant folding changes the output's tc width/frac drastically.
        let before = parse_dfg("y = a * 0.5 + (0.25 * 0.5)", fmt(4)).unwrap();
        let after = eliminate_dead(&constant_fold(&before));
        assert!(after.len() < before.len());
        let v = prove_pass_equivalence(&before, &after).expect("within caps");
        assert!(v.is_equivalent(), "{v:?}");
    }

    #[test]
    fn width_capped_graphs_are_skipped_not_failed() {
        // 40-digit operands exceed the 31-bit conventional multiplier cap.
        let d = parse_dfg("y = a * b", fmt(40)).unwrap();
        assert!(!conventional_caps_ok(&d));
        assert!(prove_pass_equivalence(&d, &d).is_none());
    }

    #[test]
    fn whole_graph_constant_folds_still_prove() {
        let before = parse_dfg("y = 0.5 * 0.5 + 0.25", fmt(4)).unwrap();
        let after = eliminate_dead(&constant_fold(&before));
        let v = prove_pass_equivalence(&before, &after).expect("within caps");
        assert!(v.is_equivalent(), "{v:?}");
    }

    #[test]
    fn gate_env_parsing() {
        // Uses the raw parser logic rather than mutating process env in
        // parallel tests.
        let on = |v: &str| !v.is_empty() && v != "0";
        assert!(on("1"));
        assert!(on("true"));
        assert!(!on("0"));
        assert!(!on(""));
    }

    #[test]
    fn multi_output_graphs_align_every_bus() {
        let before = parse_dfg("t = a + b\ny = t * 0.5\nz = t - 0.25", fmt(3)).unwrap();
        // `t` is read by later statements, so the outputs are y and z.
        assert_eq!(before.eval_exact(&[Q::ZERO, Q::ZERO]).len(), 2);
        let after = optimize(&before, AdderStructure::BalancedTree);
        let v = prove_pass_equivalence(&before, &after).expect("within caps");
        assert!(v.is_equivalent(), "{v:?}");
        assert!(v.is_proof());
    }
}
