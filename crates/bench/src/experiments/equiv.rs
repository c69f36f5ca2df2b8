//! `repro equiv`: the formal-verification gate over the synthesis
//! pipeline.
//!
//! Three units, three CSVs:
//!
//! * **rewrites** (`equiv_pass_rewrites.csv`) — every variant of the lint
//!   suite (the `ola-arith` generators, the 3-tap MAC kernel in both
//!   styles, and every `ola-synth` style × allocation variant of the 1×3
//!   convolution kernel, same widths as `repro lint`) is checked
//!   pass-before vs pass-after:
//!   [`prune_dead`](ola_netlist::sta::prune_dead) must preserve the
//!   netlist bit-for-bit, and the optimizer pipeline
//!   ([`ola_synth::optimize`]) must preserve the IR's exact values —
//!   proved through [`ola_synth::prove_pass_equivalence`] (conventional
//!   elaboration + the staged equivalence checker). Any `MISMATCH` fails
//!   the experiment with the replayable counterexample in the message,
//!   which is what lets CI run `repro equiv` as a gate.
//! * **settled** (`equiv_online_vs_conventional.csv`) — for each kernel
//!   variant, the *online* and *conventional* elaborations are compared
//!   at settled `Ts` on a seeded random input stream: the conventional
//!   netlist must decode to exactly [`Dfg::eval_exact`]
//!   (it is exact by construction), and the online netlist must agree
//!   within the abstract interpreter's settled error bound
//!   ([`ola_synth::interpret`]) — the multiplier-truncation budget.
//! * **bounds** (`equiv_absint_bounds.csv`) — the explorer's empirical
//!   overclocking error curve ([`ola_synth::variant_error_curve`]) is
//!   swept against the abstract interpreter's per-`Ts` sampling bound
//!   ([`ola_synth::sampling_bounds`]); every measured point must sit at
//!   or below its bound.
//!
//! Everything here is deterministic (seeded streams, fixed grids);
//! verdict counters land under `ola.verify.*` in the run manifest's
//! metric delta.

use super::{lint, synth, Scale};
use crate::report::Table;
use crate::resume::ExperimentCtx;
use ola_core::SimBackend;
use ola_netlist::sta::prune_dead;
use ola_netlist::{analyze, check_equiv_with, EquivOptions, EquivVerdict, FpgaDelay, Netlist};
use ola_redundant::{BsVector, SdNumber, Q};
use ola_synth::{
    elaborate, interpret, optimize, parse_dfg, prove_pass_equivalence, sampling_bounds,
    AdderStructure, Dfg, ElabOptions, InputFmt, Style, SynthesizedDatapath,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Master seed for the settled-comparison input stream (recorded in the
/// run manifest via [`super::master_seeds`]).
pub(crate) const SEED: u64 = 0xE9_01AB;

/// Random settled-comparison vectors per kernel variant.
fn settled_samples(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 32,
        Scale::Full => 128,
    }
}

/// Equivalence options for the rewrite sweep: the node budget is kept
/// modest because multiplier netlists are ROBDD-hostile — the checker
/// falls through to the 64-lane random batch quickly instead of grinding.
fn sweep_options() -> EquivOptions {
    EquivOptions { bdd_node_budget: 1 << 18, ..EquivOptions::default() }
}

const ALLOCATIONS: [AdderStructure; 3] =
    [AdderStructure::LinearChain, AdderStructure::BalancedTree, AdderStructure::OnlineChained];

fn kernel_dfg(n: usize) -> Dfg {
    parse_dfg(synth::EXPR, InputFmt { msd_pos: 1, digits: n }).expect("kernel parses")
}

/// The fused-MAC counterpart of the convolution kernel: a 3-tap FIR bank
/// lowered through the [`Op::Mac`](ola_synth::Op) node, in both fusion
/// flavours so the rewrite unit can prove fused ≡ tree-of-multiplies.
fn mac_dfg(n: usize, fusion: ola_synth::MacFusion) -> Dfg {
    ola_synth::fir_bank(3, fusion, InputFmt { msd_pos: 1, digits: n })
}

/// Runs the formal-verification experiment; `all` extends the width sweep
/// to match `repro lint --all`.
///
/// # Errors
///
/// If any rewrite proof mismatches, any settled comparison exceeds its
/// bound, or any measured error point exceeds its abstract-interpretation
/// bound.
pub fn equiv(run: &ExperimentCtx, scale: Scale, all: bool) -> Result<Vec<Table>, String> {
    let mut tables = run.unit("rewrites", || rewrites_unit(all))?;
    tables.extend(run.unit("settled", move || settled_unit(scale, all))?);
    tables.extend(run.unit("bounds", move || bounds_unit(scale))?);
    Ok(tables)
}

/// Records a verdict in the `ola.verify.*` counters and renders its label.
fn tally(verdict: &EquivVerdict) -> String {
    let reg = ola_core::obs::registry();
    reg.counter("ola.verify.equiv_checks").inc();
    if !verdict.is_equivalent() {
        reg.counter("ola.verify.equiv_mismatches").inc();
    }
    format!("{} ({})", verdict.label(), verdict.method().name())
}

fn rewrites_unit(all: bool) -> Result<Vec<Table>, String> {
    let mut t = Table::new(
        "Equiv pass rewrites",
        &["circuit", "rewrite", "nets before", "nets after", "verdict"],
    );
    let mut bad: Vec<String> = Vec::new();
    let opts = sweep_options();

    fn prune_row(
        t: &mut Table,
        bad: &mut Vec<String>,
        opts: &EquivOptions,
        name: &str,
        nl: &Netlist,
    ) {
        let pruned = prune_dead(nl);
        let verdict = check_equiv_with(nl, &pruned, opts)
            .unwrap_or_else(|e| panic!("{name}: prune changed the interface: {e}"));
        if let EquivVerdict::Mismatch { counterexample, .. } = &verdict {
            bad.push(format!("{name}: prune-dead mismatch: {counterexample}"));
        }
        let label = tally(&verdict);
        t.push_row(vec![
            name.to_owned(),
            "prune-dead".into(),
            nl.len().to_string(),
            pruned.len().to_string(),
            label,
        ]);
    }

    for &n in lint::widths(all) {
        // `ola-arith` generators: they prune themselves, so this re-proves
        // idempotence (structural hit) — and would catch a prune_dead
        // regression on every generator shape.
        for (name, nl) in lint::circuits(n) {
            prune_row(&mut t, &mut bad, &opts, &name, &nl);
        }
        // The MAC kernel: prove the elaborator's prune, unpruned vs pruned.
        for (name, nl) in lint::mac_kernel(n, false) {
            prune_row(&mut t, &mut bad, &opts, &name, &nl);
        }
        // Compiler-generated variants: prove the elaborator's prune for
        // real (unpruned vs pruned netlists differ), and the optimizer
        // pipeline at the IR level via conventional elaboration.
        if n >= 31 {
            continue; // Baugh–Wooley operand cap, as in the lint sweep.
        }
        let dfg = kernel_dfg(n);
        for style in [Style::Online, Style::Conventional] {
            for alloc in ALLOCATIONS {
                let name = format!("synth {}/{} N={n}", style.name(), alloc.name());
                let opt = optimize(&dfg, alloc);
                let unpruned = elaborate(&opt, &ElabOptions::new(style).with_prune(false)).netlist;
                prune_row(&mut t, &mut bad, &opts, &name, &unpruned);
                if style == Style::Conventional {
                    // The pipeline proof is style-independent (it runs on
                    // the conventional lowering); one row per allocation.
                    match prove_pass_equivalence(&dfg, &opt) {
                        None => {
                            ola_core::obs::registry().counter("ola.verify.prove_skipped").inc();
                            t.push_row(vec![
                                name.clone(),
                                "optimize".into(),
                                dfg.len().to_string(),
                                opt.len().to_string(),
                                "SKIPPED (width caps)".into(),
                            ]);
                        }
                        Some(verdict) => {
                            if let EquivVerdict::Mismatch { counterexample, .. } = &verdict {
                                bad.push(format!("{name}: optimize mismatch: {counterexample}"));
                            }
                            let label = tally(&verdict);
                            t.push_row(vec![
                                name,
                                "optimize".into(),
                                dfg.len().to_string(),
                                opt.len().to_string(),
                                label,
                            ]);
                        }
                    }
                }
            }
        }
        // Fusion proof: the fused MAC graph must compute exactly what the
        // unfused tree-of-multiplies computes — proved in the conventional
        // domain through the staged checker. Wide operands overflow the
        // Baugh–Wooley product cap and are reported as SKIPPED, like the
        // optimizer proofs.
        let fused = mac_dfg(n, ola_synth::MacFusion::Fused);
        let unfused = mac_dfg(n, ola_synth::MacFusion::Unfused);
        let name = format!("mac fused-vs-unfused N={n}");
        match prove_pass_equivalence(&unfused, &fused) {
            None => {
                ola_core::obs::registry().counter("ola.verify.prove_skipped").inc();
                t.push_row(vec![
                    name,
                    "fuse-mac".into(),
                    unfused.len().to_string(),
                    fused.len().to_string(),
                    "SKIPPED (width caps)".into(),
                ]);
            }
            Some(verdict) => {
                if let EquivVerdict::Mismatch { counterexample, .. } = &verdict {
                    bad.push(format!("{name}: fuse-mac mismatch: {counterexample}"));
                }
                let label = tally(&verdict);
                t.push_row(vec![
                    name,
                    "fuse-mac".into(),
                    unfused.len().to_string(),
                    fused.len().to_string(),
                    label,
                ]);
            }
        }
    }

    if bad.is_empty() {
        Ok(vec![t])
    } else {
        Err(format!("{} rewrite proof(s) failed: {}", bad.len(), bad.join("; ")))
    }
}

/// Draws one in-range exact value per kernel input.
fn draw_values(rng: &mut ChaCha8Rng, digits: usize, count: usize) -> Vec<Q> {
    let bound = (1i128 << digits) - 1;
    (0..count).map(|_| Q::new(rng.gen_range(-bound..=bound), digits as u32)).collect()
}

/// Encodes exact values into the online datapath's flat input bits via
/// the datapath's own borrow-save encoder.
fn encode_online(dp: &SynthesizedDatapath, values: &[Q], digits: usize) -> Vec<bool> {
    let windows: Vec<_> = values
        .iter()
        .map(|&v| BsVector::from_sd(&SdNumber::from_value(v, digits).expect("in range")))
        .collect();
    dp.encode_inputs_online(&windows)
}

/// Runs one settled online-vs-conventional comparison and appends its
/// row; unsound variants land in `bad`.
#[allow(clippy::too_many_arguments)]
fn settled_variant(
    t: &mut Table,
    bad: &mut Vec<String>,
    name: &str,
    dfg: &Dfg,
    alloc: AdderStructure,
    n: usize,
    samples: usize,
    seed: u64,
) {
    let opt = optimize(dfg, alloc);
    let online = elaborate(&opt, &ElabOptions::new(Style::Online));
    let tc = elaborate(&opt, &ElabOptions::new(Style::Conventional));
    let bound = interpret(&opt, Style::Online).settled_error_bounds()[0];
    // `Netlist::eval` answers per-net; `decode_output` reads the
    // `output_wires()` projection of that answer.
    let settle = |dp: &SynthesizedDatapath, bits: &[bool]| -> Q {
        let vals = dp.netlist.eval(bits);
        let wires = dp.output_wires();
        let sampled: Vec<bool> = wires.iter().map(|w| vals[w.index()]).collect();
        dp.decode_output(0, &sampled)
    };
    let inputs = dfg.inputs().len();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut worst = Q::ZERO;
    let mut tc_exact = true;
    for _ in 0..samples {
        let values = draw_values(&mut rng, n, inputs);
        let exact = dfg.eval_exact(&values)[0];
        let diff = (settle(&online, &encode_online(&online, &values, n)) - exact).abs();
        if diff > worst {
            worst = diff;
        }
        tc_exact &= settle(&tc, &tc.encode_inputs_tc(&values)) == exact;
    }
    let sound = worst <= bound && tc_exact;
    if !sound {
        bad.push(format!(
            "{name}: worst online error {} vs bound {} (tc exact: {tc_exact})",
            worst.to_f64(),
            bound.to_f64()
        ));
    }
    ola_core::obs::registry().counter("ola.verify.settled_comparisons").inc();
    t.push_row(vec![
        name.to_owned(),
        samples.to_string(),
        tc_exact.to_string(),
        format!("{:.3e}", worst.to_f64()),
        format!("{:.3e}", bound.to_f64()),
        if sound { "yes" } else { "NO" }.to_string(),
    ]);
}

fn settled_unit(scale: Scale, all: bool) -> Result<Vec<Table>, String> {
    let mut t = Table::new(
        "Equiv online vs conventional",
        &["variant", "samples", "tc exact", "worst online error", "absint bound", "sound"],
    );
    let mut bad: Vec<String> = Vec::new();
    let samples = settled_samples(scale);
    for &n in lint::widths(all) {
        if n >= 31 {
            continue;
        }
        let dfg = kernel_dfg(n);
        let mac = mac_dfg(n, ola_synth::MacFusion::Fused);
        for alloc in ALLOCATIONS {
            let seed = SEED ^ ((n as u64) << 8) ^ alloc as u64;
            settled_variant(
                &mut t,
                &mut bad,
                &format!("kernel {} N={n}", alloc.name()),
                &dfg,
                alloc,
                n,
                samples,
                seed,
            );
            // The fused MAC is settled-*exact*: its absint bound is zero,
            // so this row demands bit-for-bit agreement with `eval_exact`.
            settled_variant(
                &mut t,
                &mut bad,
                &format!("mac fused {} N={n}", alloc.name()),
                &mac,
                alloc,
                n,
                samples,
                seed ^ 0x11AC,
            );
        }
    }
    if bad.is_empty() {
        Ok(vec![t])
    } else {
        Err(format!("{} settled comparison(s) unsound: {}", bad.len(), bad.join("; ")))
    }
}

fn bounds_unit(scale: Scale) -> Result<Vec<Table>, String> {
    let mut t = Table::new(
        "Equiv absint bounds",
        &["variant", "ts", "measured mean error", "absint bound", "sound"],
    );
    let mut bad: Vec<String> = Vec::new();
    let delay = FpgaDelay::default();
    let points = scale.grid_points();
    for &n in &[4usize, 8] {
        let dfgs = [("kernel", kernel_dfg(n)), ("mac", mac_dfg(n, ola_synth::MacFusion::Fused))];
        for ((label, dfg), style) in
            dfgs.iter().flat_map(|d| [Style::Online, Style::Conventional].map(move |s| (d, s)))
        {
            let dp: SynthesizedDatapath =
                elaborate(&optimize(dfg, AdderStructure::BalancedTree), &ElabOptions::new(style));
            let critical = analyze(&dp.netlist, &delay).critical_path().max(1);
            let ts_grid: Vec<u64> = (1..=points as u64)
                .map(|i| (critical * i).div_ceil(points as u64).max(1))
                .collect();
            let bounds = sampling_bounds(&dp, &delay, &ts_grid);
            let (curve, _) = ola_synth::variant_error_curve(
                &dp,
                &delay,
                &ts_grid,
                scale.gate_samples(),
                SEED,
                SimBackend::Batch,
            );
            for (i, &ts) in ts_grid.iter().enumerate() {
                let measured = curve.mean_abs_error[i];
                let bound = bounds.total_f64(i);
                let sound = measured <= bound;
                let name = format!("{label} {} tree N={n}", style.name());
                if !sound {
                    bad.push(format!("{name} ts={ts}: measured {measured} > bound {bound}"));
                }
                t.push_row(vec![
                    name,
                    ts.to_string(),
                    format!("{measured:.3e}"),
                    format!("{bound:.3e}"),
                    if sound { "yes" } else { "NO" }.to_string(),
                ]);
            }
        }
    }
    if bad.is_empty() {
        Ok(vec![t])
    } else {
        Err(format!("{} bound violation(s): {}", bad.len(), bad.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_default_sweep_is_sound() {
        let tables = equiv(&ExperimentCtx::ephemeral("equiv"), Scale::Quick, false).unwrap();
        assert_eq!(tables.len(), 3);
        // Every verdict row is equivalent/probably-equivalent, never
        // MISMATCH (a failure would have surfaced as Err).
        for row in &tables[0].rows {
            assert!(!row[4].starts_with("mismatch"), "row: {row:?}");
        }
        for row in &tables[1].rows {
            assert_eq!(row[5], "yes", "unsound settled row: {row:?}");
        }
        for row in &tables[2].rows {
            assert_eq!(row[4], "yes", "unsound bound row: {row:?}");
        }
    }
}
