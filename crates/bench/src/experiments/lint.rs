//! `repro lint`: runs the netlist lint catalogue
//! ([`ola_netlist::sta::lint`]) over every generated operator family and
//! reports one row per circuit.
//!
//! Two halves:
//!
//! * **clean sweep** — every generator in the workspace must produce a
//!   lint-clean netlist (the generators call
//!   [`prune_dead`](ola_netlist::sta::prune_dead) themselves, so any issue
//!   here is a regression). The sweep covers the single-operator
//!   generators and the fused online MAC, the 3-tap constant-coefficient
//!   MAC kernel as `ola-synth` elaborates it in both styles, and every
//!   `ola-synth` style × adder-allocation variant of the 1×3 convolution
//!   datapath. A non-empty issue list fails the experiment, which is what
//!   lets CI run `repro lint --all` as a gate.
//! * **detector self-checks** — defects the builder API can make are
//!   deliberately seeded into copies of generated circuits, and the lint
//!   pass must flag each *statically*, with no simulation: an extra input
//!   nothing reads (`unused-input`), an output bus widened by repeating a
//!   logic net (`output-width-mismatch`, on an adder and on a fused MAC),
//!   a gate that reads a live net but reaches no output (`floating-net`
//!   and `dead-cone`), and a raw [`try_gate`](ola_netlist::Netlist::try_gate)
//!   AND with a constant wired into an output bus (`const-foldable`). Each
//!   self-check's row appears in the table with the expected codes so the
//!   CSV documents the detectors working.

use crate::report::Table;
use ola_arith::synth::{
    array_multiplier, carry_select_adder, fused_online_mac, online_adder, online_multiplier,
    ripple_carry_adder,
};
use ola_netlist::sta::lint::{check, LintIssue};
use ola_netlist::{GateKind, Netlist};
use ola_redundant::{SdNumber, Q};
use ola_synth::{elaborate, optimize, AdderStructure, ElabOptions, InputFmt, Style};

/// Fused-MAC taps `5/16, −3/16, 7/16`: large enough that every operand
/// digit influences the output, and they fit every linted width (≥ 4
/// digits). (Taps near the representable minimum constant-fold away the
/// trailing operand digits entirely, which the lint then — correctly —
/// reports as unused inputs.)
fn online_taps(n: usize) -> Vec<SdNumber> {
    [5, -3, 7].iter().map(|&v| SdNumber::from_value(Q::new(v, 4), n).expect("taps fit")).collect()
}

/// The same three taps as a constant-coefficient MAC kernel for
/// `ola-synth`.
const MAC_KERNEL: &str = "y = a * 0.3125 - b * 0.1875 + c * 0.4375";

/// Operand widths linted per family: `--all` extends the sweep. Shared
/// with the `equiv` experiment so the two gates cover the same variants.
pub(crate) fn widths(all: bool) -> &'static [usize] {
    if all {
        &[4, 8, 12, 16, 24, 31]
    } else {
        &[8, 16]
    }
}

/// Every `ola-arith` generator at width `n`, by name.
pub(crate) fn circuits(n: usize) -> Vec<(String, Netlist)> {
    vec![
        (format!("online adder N={n}"), online_adder(n).netlist),
        (format!("online mult N={n}"), online_multiplier(n, 3).netlist),
        (format!("fused online mac N={n}"), fused_online_mac(&online_taps(n)).netlist),
        (format!("ripple adder W={n}"), ripple_carry_adder(n).netlist),
        (format!("carry-select adder W={n}"), carry_select_adder(n, 4).netlist),
        (format!("array mult W={n}"), array_multiplier(n).netlist),
    ]
}

/// The 3-tap MAC kernel at input width `n`, elaborated in each style with
/// its products summed by a balanced adder tree; `prune` is the
/// elaborator's dead-logic pruning. Shared with the `equiv` experiment,
/// which proves the pruned netlist against the unpruned one.
pub(crate) fn mac_kernel(n: usize, prune: bool) -> Vec<(String, Netlist)> {
    let dfg = ola_synth::parse_dfg(MAC_KERNEL, InputFmt { msd_pos: 1, digits: n })
        .expect("MAC kernel parses");
    let opt = optimize(&dfg, AdderStructure::BalancedTree);
    // The Baugh–Wooley operand cap, as in `synth_circuits`.
    let styles: &[Style] =
        if n >= 31 { &[Style::Online] } else { &[Style::Online, Style::Conventional] };
    styles
        .iter()
        .map(|&style| {
            let dp = elaborate(&opt, &ElabOptions::new(style).with_prune(prune));
            (format!("synth mac {}/tree N={n}", style.name()), dp.netlist)
        })
        .collect()
}

/// Every `ola-synth` style × adder-allocation variant of the 1×3
/// convolution datapath at input width `n`.
pub(crate) fn synth_circuits(n: usize) -> Vec<(String, Netlist)> {
    // The conventional style lowers an n-digit input to an (n+1)-bit
    // two's-complement operand, and the Baugh–Wooley array caps operands
    // at 31 bits — skip the one sweep width that would overflow it.
    if n >= 31 {
        return Vec::new();
    }
    let dfg = ola_synth::parse_dfg(
        "y = a * 0.25 + b * 0.5 + c * 0.25",
        InputFmt { msd_pos: 1, digits: n },
    )
    .expect("convolution program parses");
    let mut out = Vec::new();
    for style in [Style::Online, Style::Conventional] {
        for alloc in [
            AdderStructure::LinearChain,
            AdderStructure::BalancedTree,
            AdderStructure::OnlineChained,
        ] {
            let dp = elaborate(&optimize(&dfg, alloc), &ElabOptions::new(style));
            out.push((format!("synth {}/{} N={n}", style.name(), alloc.name()), dp.netlist));
        }
    }
    out
}

fn issue_codes(issues: &[LintIssue]) -> String {
    if issues.is_empty() {
        "-".to_string()
    } else {
        let mut codes: Vec<&str> = issues.iter().map(LintIssue::code).collect();
        codes.dedup();
        codes.join(" ")
    }
}

/// Runs the lint experiment; `all` extends the width sweep for CI's
/// `repro lint --all` gate.
///
/// # Errors
///
/// If any generated circuit has lint issues, or a seeded self-check
/// defect is not reported with its expected codes — either means the
/// static analyzer or a generator regressed.
pub fn lint(run: &crate::resume::ExperimentCtx, all: bool) -> Result<Vec<Table>, String> {
    run.unit("sweep", || lint_inner(all))
}

fn lint_inner(all: bool) -> Result<Vec<Table>, String> {
    let mut t =
        Table::new("Lint generated netlists", &["circuit", "nets", "issues", "codes", "details"]);
    let mut dirty: Vec<String> = Vec::new();
    for &n in widths(all) {
        for (name, nl) in
            circuits(n).into_iter().chain(mac_kernel(n, true)).chain(synth_circuits(n))
        {
            let issues = check(&nl);
            let details = issues.first().map_or_else(String::new, ToString::to_string);
            t.push_row(vec![
                name.clone(),
                nl.len().to_string(),
                issues.len().to_string(),
                issue_codes(&issues),
                details,
            ]);
            if !issues.is_empty() {
                dirty.push(format!("{name}: {}", issue_codes(&issues)));
            }
        }
    }

    // Self-check 1: an extra primary input that nothing reads.
    let mut unread = online_multiplier(8, 3).netlist;
    let _ = unread.input("unread");
    self_check(&mut t, "online mult N=8 + unread input", &unread, &["unused-input"])?;

    // Self-check 2: a duplicated output bit — the adder's sum port widened
    // by repeating its MSB logic net must trip `output-width-mismatch`.
    let mut dup = ripple_carry_adder(8).netlist;
    let mut widened = dup.output("sum").to_vec();
    let msb = *widened.last().expect("sum bus is nonempty");
    widened.push(msb);
    dup.set_output("sum", widened);
    self_check(&mut t, "ripple adder W=8 + repeated sum MSB", &dup, &["output-width-mismatch"])?;

    // Self-check 3: a gate that reads a live output net but reaches no
    // output — a one-gate dead cone whose tip floats.
    let mut stray = online_adder(8).netlist;
    let live = first_logic_bit(&stray, "zp");
    let _ = stray.not(live);
    self_check(&mut t, "online adder N=8 + floating gate", &stray, &["floating-net", "dead-cone"])?;

    // Self-check 4 (MAC family): the fused MAC's redundant sum bus widened
    // by repeating one of its computed digits must trip
    // `output-width-mismatch` just like a conventional bus would. (The bus
    // ends in constant padding, which may legitimately repeat — pick a
    // *logic* net.)
    let mut mac_wide = fused_online_mac(&online_taps(8)).netlist;
    let mut widened = mac_wide.output("sump").to_vec();
    widened.push(first_logic_bit(&mac_wide, "sump"));
    mac_wide.set_output("sump", widened);
    self_check(
        &mut t,
        "fused online mac N=8 + repeated sump MSD",
        &mac_wide,
        &["output-width-mismatch"],
    )?;

    // Self-check 5 (MAC family): a raw AND with constant 1 spliced into
    // the sum bus. The folding builders would have returned the net
    // itself; `try_gate` does not fold, so the lint must.
    let mut mac_const = fused_online_mac(&online_taps(8)).netlist;
    let mut bus = mac_const.output("sump").to_vec();
    let pos = bus
        .iter()
        .position(|&net| mac_const.kind(net).is_logic())
        .expect("sump bus carries computed digits");
    let one = mac_const.constant(true);
    bus[pos] = mac_const.try_gate(GateKind::And, &[bus[pos], one]).expect("both fanins exist");
    mac_const.set_output("sump", bus);
    self_check(
        &mut t,
        "fused online mac N=8 + unfolded AND with 1",
        &mac_const,
        &["const-foldable"],
    )?;

    if !dirty.is_empty() {
        return Err(format!("{} circuit(s) have lint issues: {}", dirty.len(), dirty.join("; ")));
    }
    Ok(vec![t])
}

/// The first logic net of output bus `bus`.
fn first_logic_bit(nl: &Netlist, bus: &str) -> ola_netlist::NetId {
    *nl.output(bus)
        .iter()
        .find(|&&net| nl.kind(net).is_logic())
        .expect("the bus carries computed bits")
}

/// Lints a netlist with a seeded defect, adds its row to `t`, and fails
/// unless every code in `expect` is reported.
fn self_check(t: &mut Table, name: &str, nl: &Netlist, expect: &[&str]) -> Result<(), String> {
    let issues = check(nl);
    let caught = expect.iter().all(|&code| issues.iter().any(|i| i.code() == code));
    t.push_row(vec![
        name.to_string(),
        nl.len().to_string(),
        issues.len().to_string(),
        issue_codes(&issues),
        format!("caught={caught}"),
    ]);
    if caught {
        Ok(())
    } else {
        Err(format!("{name}: expected {} (got: {})", expect.join(" "), issue_codes(&issues)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_is_clean_and_catches_every_seeded_defect() {
        let tables = lint(&crate::resume::ExperimentCtx::ephemeral("lint"), false).unwrap();
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        // 2 widths × (6 generators + 2 MAC kernel styles + 6 synth
        // style/allocation variants) + the five seeded detector
        // self-check rows.
        assert_eq!(t.rows.len(), 33);
        let expected = [
            "unused-input",
            "output-width-mismatch",
            "floating-net dead-cone",
            "output-width-mismatch",
            "const-foldable",
        ];
        for (row, codes) in t.rows[t.rows.len() - 5..].iter().zip(expected) {
            assert_eq!(row[3], codes, "self-check row: {row:?}");
            assert_eq!(row[4], "caught=true", "self-check row: {row:?}");
        }
        // Every generated row is clean.
        for row in &t.rows[..t.rows.len() - 5] {
            assert_eq!(row[2], "0", "unexpected lint issues: {row:?}");
        }
    }

    #[test]
    fn all_flag_extends_the_width_sweep() {
        assert!(widths(true).len() > widths(false).len());
    }
}
