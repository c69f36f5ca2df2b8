//! Table 4: area comparison between the two filter datapaths (LUTs and
//! slices, with the online/traditional overhead ratio).

use crate::report::Table;
use ola_imaging::filter::{Filter, FilterConfig};
use ola_netlist::area;

/// Runs the Table-4 experiment on the paper-default filter configuration.
///
/// # Errors
///
/// Never fails on its own; the `Result` carries checkpoint-replay errors.
pub fn table4(run: &crate::resume::ExperimentCtx) -> Result<Vec<Table>, String> {
    run.unit("area", || Ok(vec![table4_inner()]))
}

fn table4_inner() -> Table {
    let online = Filter::online(&FilterConfig::paper_default());
    let trad = Filter::traditional(&FilterConfig::paper_default());

    // The paper reports the datapath area; ours is one multiplier plus the
    // 9-tap adder tree per design (identical structure on both sides).
    let o_mult = area::estimate(online.multiplier_netlist(), 4);
    let o_tree = area::estimate(online.tree_netlist(), 4);
    let t_mult = area::estimate(trad.multiplier_netlist(), 4);
    let t_tree = area::estimate(trad.tree_netlist(), 4);

    let o_luts = o_mult.luts + o_tree.luts;
    let t_luts = t_mult.luts + t_tree.luts;
    let o_slices = o_mult.slices + o_tree.slices;
    let t_slices = t_mult.slices + t_tree.slices;

    let mut t =
        Table::new("Table4 area comparison", &["Metric", "Traditional", "Online", "Overhead"]);
    t.push_row(vec![
        "LUTs".into(),
        t_luts.to_string(),
        o_luts.to_string(),
        format!("{:.2}", o_luts as f64 / t_luts as f64),
    ]);
    t.push_row(vec![
        "Slices".into(),
        t_slices.to_string(),
        o_slices.to_string(),
        format!("{:.2}", o_slices as f64 / t_slices as f64),
    ]);
    t.push_row(vec![
        "LUTs (multiplier only)".into(),
        t_mult.luts.to_string(),
        o_mult.luts.to_string(),
        format!("{:.2}", o_mult.luts as f64 / t_mult.luts as f64),
    ]);
    t.push_row(vec![
        "raw gates".into(),
        (t_mult.gates + t_tree.gates).to_string(),
        (o_mult.gates + o_tree.gates).to_string(),
        format!(
            "{:.2}",
            (o_mult.gates + o_tree.gates) as f64 / (t_mult.gates + t_tree.gates) as f64
        ),
    ]);
    t
}
