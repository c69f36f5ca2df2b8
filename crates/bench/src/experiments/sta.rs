//! `repro sta`: the static-analysis counterpart of the empirical sweeps.
//!
//! Three artifact families per word length, all computed without running a
//! single input vector:
//!
//! * **`sta_paths_*.csv`** — top-K critical paths with named endpoints
//!   (`zp[k]` / `product[i]`), making the paper's Fig. 3 structure
//!   inspectable: online multipliers terminate their deepest chains in the
//!   *least*-significant digits, conventional multipliers in the *most*-
//!   significant bits;
//! * **`sta_slack_*.csv`** — per-digit arrival and slack at the rated
//!   period (backward required-time pass), the quantitative version of the
//!   same claim;
//! * **`sta_certification_*.csv`** — per-digit settlement certification
//!   over an overclocking `Ts` grid, with the analytic error bound
//!   `Σ_{at-risk k} 2^{δ−k}` that must upper-bound every empirical error
//!   curve (a release-mode test holds it to that).

use super::Scale;
use crate::report::{fmt_f, Table};
use ola_arith::online::DELTA;
use ola_arith::synth::{array_multiplier, online_multiplier, OnlineMultiplierCircuit};
use ola_netlist::sta::{certify, critical_paths, slack_from_arrival, CertificationReport};
use ola_netlist::{analyze, DelayModel, FpgaDelay, NetId, Netlist};

/// Paths reported per circuit.
const TOP_K: usize = 5;

/// Word lengths analyzed at each scale. STA is cheap (linear passes), so
/// even `full` stays in milliseconds; `quick` trims for log brevity only.
fn word_lengths(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Quick => &[8, 16],
        Scale::Full => &[8, 16, 32],
    }
}

/// The online multiplier's output-digit groups: digit `k` is the
/// borrow-save pair `{zp[k], zn[k]}`, `k = 0` the MSD (`z_{−δ}`).
fn om_digits(netlist: &Netlist) -> Vec<Vec<NetId>> {
    let zp = netlist.output("zp");
    let zn = netlist.output("zn");
    zp.iter().zip(zn).map(|(&p, &n)| vec![p, n]).collect()
}

/// Worst-case magnitude contribution of each online output digit on the
/// `digits_value` scale: digit `k` has weight `2^{−(k−δ+1)}` and a
/// redundant digit can be off by at most the full range `2`, so the bound
/// is `2^{δ−k}`.
pub fn om_digit_weights(digits: usize) -> Vec<f64> {
    (0..digits).map(|k| (2.0f64).powi(DELTA as i32 - k as i32)).collect()
}

/// Certifies every output digit of an online multiplier against `ts_grid`
/// (shared with the release-mode bound test so the experiment and the test
/// describe the same artifact).
#[must_use]
pub fn om_certification<M: DelayModel + ?Sized>(
    circuit: &OnlineMultiplierCircuit,
    delay: &M,
    ts_grid: &[u64],
) -> CertificationReport {
    certify(&circuit.netlist, delay, &om_digits(&circuit.netlist), ts_grid)
}

/// Runs the static-analysis experiment. Pure analysis — no simulation.
/// Each word length is one checkpointable work unit.
///
/// # Errors
///
/// None: the analysis cannot fail. The `Result` is the signature every
/// experiment shares.
pub fn sta(run: &crate::resume::ExperimentCtx, scale: Scale) -> Result<Vec<Table>, String> {
    let delay = FpgaDelay::default();
    let mut tables = Vec::new();
    for &n in word_lengths(scale) {
        tables.extend(run.unit(&format!("n{n}"), || {
            let om = online_multiplier(n, 3);
            // The array multiplier caps at width 31 (exact i64 products).
            let w = n.min(31);
            let am = array_multiplier(w);
            Ok(vec![
                paths_table(format!("STA paths online mult N={n}"), &om.netlist, &delay),
                paths_table(format!("STA paths array mult W={w}"), &am.netlist, &delay),
                slack_table(n, &om.netlist, w, &am.netlist, &delay),
                certification_table(&om, &delay, scale),
            ])
        })?);
    }
    Ok(tables)
}

fn paths_table<M: DelayModel + ?Sized>(title: String, netlist: &Netlist, delay: &M) -> Table {
    let paths = critical_paths(netlist, delay, TOP_K);
    let mut t = Table::new(title, &["rank", "endpoint", "delay_ps", "depth"]);
    for (rank, p) in paths.iter().enumerate() {
        t.push_row(vec![
            (rank + 1).to_string(),
            p.endpoint_label.clone(),
            p.delay.to_string(),
            p.depth().to_string(),
        ]);
    }
    t
}

/// Slack vs digit significance, online and conventional side by side (each
/// at its own rated period): `weight_exp` is the digit's binary weight
/// exponent. Two slack notions are reported. `slack_ps` is the whole-
/// netlist slack from the backward required-time pass — for the online
/// multiplier it is 0 on *every* digit, because each digit output also
/// feeds the downstream residual logic and so sits on a rated-critical
/// path. `sample_slack_ps` is the digit's own sampling headroom
/// `rated − arrival` — the margin before an overclocked sample at `Ts`
/// reaches that digit. Its profile is the paper's Fig. 3 claim in one
/// column: for the online rows it *grows with digit significance* (the
/// deep chains end in the LSDs, so the first digits claimed by
/// overclocking are the least significant), while for the conventional
/// rows it collapses toward the MSBs (the sign end is claimed first).
fn slack_table<M: DelayModel + ?Sized>(
    n: usize,
    om: &Netlist,
    w: usize,
    am: &Netlist,
    delay: &M,
) -> Table {
    let mut t = Table::new(
        format!("STA slack per digit N={n}"),
        &["circuit", "digit", "weight_exp", "arrival_ps", "slack_ps", "sample_slack_ps"],
    );
    {
        let report = analyze(om, delay);
        let rated = report.critical_path();
        let slack = slack_from_arrival(om, delay, &report, rated);
        for (k, digit) in om_digits(om).iter().enumerate() {
            // Digit k is z_{k−δ}, weight 2^{−(k−δ+1)}.
            let weight_exp = -(k as i64 - DELTA as i64 + 1);
            let arrival = report.arrival_of(digit);
            t.push_row(vec![
                format!("online N={n}"),
                k.to_string(),
                weight_exp.to_string(),
                arrival.to_string(),
                slack.slack_of(digit).map_or_else(String::new, |s| s.to_string()),
                (rated - arrival).to_string(),
            ]);
        }
    }
    {
        let report = analyze(am, delay);
        let rated = report.critical_path();
        let slack = slack_from_arrival(am, delay, &report, rated);
        for (i, &bit) in am.output("product").iter().enumerate() {
            let arrival = report.arrival(bit);
            t.push_row(vec![
                format!("array W={w}"),
                i.to_string(),
                i.to_string(), // product is LSB-first: bit i has weight 2^i
                arrival.to_string(),
                slack.slack(bit).map_or_else(String::new, |s| s.to_string()),
                (rated - arrival).to_string(),
            ]);
        }
    }
    t
}

fn certification_table<M: DelayModel + ?Sized>(
    circuit: &OnlineMultiplierCircuit,
    delay: &M,
    scale: Scale,
) -> Table {
    let n = circuit.n;
    let rated = analyze(&circuit.netlist, delay).critical_path();
    let points = scale.grid_points();
    let ts: Vec<u64> = (1..=points).map(|k| rated * k as u64 / points as u64).collect();
    let rep = om_certification(circuit, delay, &ts);
    let weights = om_digit_weights(rep.digits());
    let mut t = Table::new(
        format!("STA certification online mult N={n}"),
        &["Ts", "Ts/rated", "certified", "at_risk", "analytic_bound"],
    );
    for (i, &t_s) in rep.ts_grid().iter().enumerate() {
        t.push_row(vec![
            t_s.to_string(),
            format!("{:.3}", t_s as f64 / rated as f64),
            format!("{}/{}", rep.certified_count(i), rep.digits()),
            rep.at_risk(i).len().to_string(),
            fmt_f(rep.error_bound(i, &weights)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_decay_geometrically_from_the_msd() {
        let w = om_digit_weights(5);
        assert_eq!(w[0], 8.0, "MSD z_{{-3}} bound: 2^δ");
        for pair in w.windows(2) {
            assert_eq!(pair[0] / pair[1], 2.0);
        }
    }

    #[test]
    fn quick_scale_emits_four_tables_per_word_length() {
        let tables = sta(&crate::resume::ExperimentCtx::ephemeral("sta"), Scale::Quick).unwrap();
        assert_eq!(tables.len(), 8);
        assert!(tables[0].title.starts_with("STA paths online"));
        assert!(tables[3].title.starts_with("STA certification"));
    }

    #[test]
    fn online_sample_slack_grows_with_digit_significance() {
        // The Fig. 3 monotonicity pinned directly: each online digit's
        // sampling headroom (rated − arrival) strictly grows with its
        // significance, so overclocking claims the LSDs first.
        let om = online_multiplier(8, 3);
        let delay = FpgaDelay::default();
        let report = analyze(&om.netlist, &delay);
        let rated = report.critical_path();
        let headroom: Vec<u64> =
            om_digits(&om.netlist).iter().map(|d| rated - report.arrival_of(d)).collect();
        for pair in headroom.windows(2) {
            assert!(pair[0] > pair[1], "sample slack must fall toward the LSDs: {headroom:?}");
        }
        assert_eq!(*headroom.last().unwrap(), 0, "the LSD is the rated endpoint");
    }

    #[test]
    fn online_deep_paths_end_in_low_significance_digits() {
        // The structural half of Fig. 3: every top-ranked online path
        // terminates in the lower half of the digit bus, and the rated-Ts
        // bound certifies everything (bound 0 at the last grid point).
        let om = online_multiplier(8, 3);
        let delay = FpgaDelay::default();
        let paths = critical_paths(&om.netlist, &delay, 3);
        let digits = om.netlist.output("zp").len();
        for p in &paths {
            let bit: usize = p.endpoint_label
                [p.endpoint_label.find('[').unwrap() + 1..p.endpoint_label.len() - 1]
                .parse()
                .unwrap();
            assert!(bit >= digits / 2, "deep chain ends at {} (bus of {digits})", p.endpoint_label);
        }
        let rated = analyze(&om.netlist, &delay).critical_path();
        let rep = om_certification(&om, &delay, &[rated]);
        assert!(rep.all_certified(0));
        assert_eq!(rep.error_bound(0, &om_digit_weights(rep.digits())), 0.0);
    }
}
