//! `repro synth`: the datapath-synthesis Pareto sweep of the paper's 1×3
//! convolution kernel.
//!
//! The [`ola_synth`] compiler lowers the Gaussian tap program
//! `y = a·0.25 + b·0.5 + c·0.25` through every style × adder-allocation ×
//! width variant and the explorer evaluates each one: STA rated frequency
//! on the FPGA delay model, LUT area, and an empirical overclocking-error
//! curve over a shared Ts grid on the batch engine. One row per design
//! point lands in
//! `results/synth_pareto_online_vs_conventional.csv`, with the `pareto`
//! column marking the non-dominated frontier in (area, rated period,
//! mean error).
//!
//! The experiment fails if the frontier is degenerate (fewer than three
//! non-dominated points): that would mean the latency–accuracy–area
//! trade-off the paper is about has collapsed, i.e. one implementation
//! style dominates everywhere — a regression in either the explorer or
//! an operator generator.

use super::Scale;
use crate::report::{fmt_f, Table};
use ola_synth::{explore, AdderStructure, ExploreConfig, InputFmt, Style};

/// Master seed for the explorer's empirical error curves (recorded in the
/// run manifest via [`super::master_seeds`]).
pub(crate) const SEED: u64 = 0x01A_5EED;

/// The 1×3 convolution widths swept per scale.
fn widths(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![4, 6],
        Scale::Full => vec![4, 8, 12],
    }
}

/// The convolution program every sweep compiles (shared with the `equiv`
/// experiment so the verification gate covers the explored kernel).
pub(crate) const EXPR: &str = "y = a * 0.25 + b * 0.5 + c * 0.25";

/// Runs the synthesis Pareto sweep and renders one row per design point.
///
/// The sweep is one checkpoint unit: the explorer's shared Ts grid
/// depends on the worst critical path across *all* variants, so a
/// partial-variant resume would shift the grid and break bit-identity —
/// the table checkpoints whole or not at all.
///
/// # Errors
///
/// If the Pareto frontier has fewer than three non-dominated points, or
/// no variant received a rated frequency at all.
pub fn synth(run: &crate::resume::ExperimentCtx, scale: Scale) -> Result<Vec<Table>, String> {
    run.unit("pareto", || synth_inner(scale))
}

fn synth_inner(scale: Scale) -> Result<Vec<Table>, String> {
    let cfg = ExploreConfig {
        widths: widths(scale),
        styles: vec![Style::Online, Style::Conventional],
        allocations: vec![
            AdderStructure::LinearChain,
            AdderStructure::BalancedTree,
            AdderStructure::OnlineChained,
        ],
        frac_digits: 3,
        ts_points: scale.grid_points(),
        samples: scale.gate_samples(),
        seed: SEED,
    };
    ola_core::obs::annotate(
        "synth.sweep",
        format_args!(
            "1x3 convolution, {} styles x {} allocations x {:?}, {} Ts points x {} samples",
            cfg.styles.len(),
            cfg.allocations.len(),
            cfg.widths,
            cfg.ts_points,
            cfg.samples
        ),
    );

    let dfg = ola_synth::parse_dfg(EXPR, InputFmt { msd_pos: 1, digits: 8 })
        .map_err(|e| format!("convolution program failed to parse: {e}"))?;
    let result = explore(&dfg, &cfg);

    let mut t = Table::new(
        "Synth Pareto online vs conventional",
        &[
            "style",
            "allocation",
            "width",
            "luts",
            "rated_period",
            "rated_mhz",
            "mean_error",
            "worst_violation_rate",
            "certified_skipped",
            "pareto",
        ],
    );
    for p in &result.points {
        t.push_row(vec![
            p.style.name().to_string(),
            p.allocation.name().to_string(),
            p.width.to_string(),
            p.area.luts.to_string(),
            p.rated_period.map_or_else(|| "-".to_string(), |v| v.to_string()),
            p.rated_mhz.map_or_else(|| "-".to_string(), fmt_f),
            fmt_f(p.mean_error),
            fmt_f(p.worst_violation_rate),
            p.certified_skipped.to_string(),
            p.pareto.to_string(),
        ]);
    }

    let frontier = result.frontier();
    if result.points.iter().all(|p| p.rated_period.is_none()) {
        return Err("no design point received a rated frequency".to_string());
    }
    if frontier.len() < 3 {
        return Err(format!(
            "degenerate Pareto frontier: {} non-dominated point(s) of {} (expected >= 3)",
            frontier.len(),
            result.points.len()
        ));
    }
    eprintln!(
        "  [synth] {} design points, {} on the frontier, Ts grid {:?}",
        result.points.len(),
        frontier.len(),
        result.ts_grid
    );
    Ok(vec![t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_emits_a_nondegenerate_frontier() {
        let tables =
            synth(&crate::resume::ExperimentCtx::ephemeral("synth"), Scale::Quick).unwrap();
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        // 2 styles × 3 allocations × 2 widths.
        assert_eq!(t.rows.len(), 12);
        let frontier = t.rows.iter().filter(|r| r[9] == "true").count();
        assert!(frontier >= 3, "degenerate frontier: {frontier} points");
        // Both styles appear among the rows, and every row carries a
        // numeric LUT count.
        assert!(t.rows.iter().any(|r| r[0] == "online"));
        assert!(t.rows.iter().any(|r| r[0] == "conventional"));
        assert!(t.rows.iter().all(|r| r[3].parse::<u64>().is_ok()));
    }

    #[test]
    fn csv_slug_matches_the_documented_output_name() -> std::io::Result<()> {
        let t = Table::new("Synth Pareto online vs conventional", &["a"]);
        let dir = std::env::temp_dir().join("ola_synth_slug_test");
        let path = t.write_csv(&dir)?;
        assert!(path.ends_with("synth_pareto_online_vs_conventional.csv"), "{path:?}");
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}
