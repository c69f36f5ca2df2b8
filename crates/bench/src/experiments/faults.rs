//! Fault-sensitivity campaign: single-fault resilience of the online
//! (MSD-first) multiplier versus the conventional two's-complement array
//! multiplier at equal operand width.
//!
//! For every fault class (stuck-at-0/1, transient SEU, delay push) a
//! deterministic campaign injects one fault per logic site, samples the
//! output register at the rated clock period and measures the numeric
//! damage, Razor-style detection coverage and MSB vulnerability — see
//! [`ola_core::campaign`]. The headline: the worst normalized single-fault
//! error of the online design is strictly below the conventional design's
//! (which exposes its full-scale sign bit).

use super::Scale;
use crate::report::{fmt_f, Table};
use ola_core::campaign::{
    array_fault_campaign_with_stats, online_fault_campaign_with_stats, CampaignConfig,
    CampaignReport, FaultClass,
};
use ola_core::{BackendStats, InputModel, SimBackend};
use ola_netlist::UnitDelay;

/// Runs the fault-sensitivity campaigns and renders the comparison tables.
///
/// The campaigns run on the batch engine, which evaluates up to 256 fault
/// scenarios per pass. A spot-check then re-judges a small campaign on the
/// event-driven reference oracle as well and fails the experiment on any
/// disagreement.
///
/// The first table's CSV lands in
/// `results/fault_sensitivity_online_vs_conventional.csv`.
///
/// # Errors
///
/// If the batch/event spot-check campaigns disagree.
pub fn faults(run: &crate::resume::ExperimentCtx, scale: Scale) -> Result<Vec<Table>, String> {
    run.unit("campaigns", || faults_inner(scale))
}

fn faults_inner(scale: Scale) -> Result<Vec<Table>, String> {
    let (width, sites, samples) = match scale {
        Scale::Quick => (5usize, 24usize, 4usize),
        Scale::Full => (8, 64, 12),
    };
    ola_core::obs::annotate(
        "faults.campaign",
        format_args!("width {width}, {sites} sites x {samples} samples/site"),
    );
    let cfg = CampaignConfig {
        samples_per_site: samples,
        max_sites: Some(sites),
        seed: 0xFA_517E5,
        backend: SimBackend::Batch,
        ..CampaignConfig::default()
    };
    let om = ola_arith::synth::online_multiplier(width, 3);
    let am = ola_arith::synth::array_multiplier(width);

    let mut t = Table::new(
        "Fault sensitivity online vs conventional",
        &[
            "arch",
            "fault_class",
            "sites",
            "samples_per_site",
            "error_rate",
            "mean_error",
            "worst_error",
            "worst_error_raw",
            "detection_coverage",
            "false_alarm_rate",
            "msb_vulnerability",
            "unsettled",
        ],
    );
    let mut reports: Vec<CampaignReport> = Vec::new();
    let mut stats = BackendStats::default();
    for class in FaultClass::ALL {
        let (r, s) = online_fault_campaign_with_stats(
            &om,
            &UnitDelay,
            InputModel::UniformDigits,
            class,
            &cfg,
        );
        reports.push(r);
        stats.merge(&s);
        let (r, s) = array_fault_campaign_with_stats(&am, &UnitDelay, class, &cfg);
        reports.push(r);
        stats.merge(&s);
    }
    eprintln!("  [faults] {}", stats.summary());
    spot_check(&om, &am, &cfg, scale)?;
    for r in &reports {
        t.push_row(vec![
            r.arch.clone(),
            r.fault_class.label().to_owned(),
            r.sites.to_string(),
            r.samples_per_site.to_string(),
            fmt_f(r.error_rate),
            fmt_f(r.mean_error),
            fmt_f(r.worst_error),
            fmt_f(r.worst_error_raw),
            fmt_f(r.detection_coverage),
            fmt_f(r.false_alarm_rate),
            fmt_f(r.msb_vulnerability),
            r.unsettled.to_string(),
        ]);
    }

    // Headline verdict over the hard-fault and SEU classes.
    let worst = |arch: &str| {
        reports
            .iter()
            .filter(|r| {
                r.arch == arch
                    && matches!(
                        r.fault_class,
                        FaultClass::StuckAt0 | FaultClass::StuckAt1 | FaultClass::Transient
                    )
            })
            .map(|r| r.worst_error)
            .fold(0.0f64, f64::max)
    };
    let (on, conv) = (worst("online"), worst("conventional"));
    eprintln!(
        "  [faults] worst normalized single-fault error (stuck-at/SEU), width {width}: \
         online {on:.4} vs conventional {conv:.4} -> {}",
        if on < conv { "online wins" } else { "NO IMPROVEMENT" }
    );

    Ok(vec![t, rank_table(&reports)])
}

/// Re-runs a shrunken campaign (transient class: the one whose fault plans
/// consume per-sample randomness) on both engines and demands
/// bit-identical reports.
fn spot_check(
    om: &ola_arith::synth::OnlineMultiplierCircuit,
    am: &ola_arith::synth::ArrayMultiplierCircuit,
    cfg: &CampaignConfig,
    scale: Scale,
) -> Result<(), String> {
    let samples = scale.spot_check_samples().min(cfg.samples_per_site);
    let small = |backend| CampaignConfig {
        samples_per_site: samples,
        max_sites: Some(6),
        backend,
        ..cfg.clone()
    };
    let (ev, _) = online_fault_campaign_with_stats(
        om,
        &UnitDelay,
        InputModel::UniformDigits,
        FaultClass::Transient,
        &small(SimBackend::Event),
    );
    let (ba, _) = online_fault_campaign_with_stats(
        om,
        &UnitDelay,
        InputModel::UniformDigits,
        FaultClass::Transient,
        &small(SimBackend::Batch),
    );
    if ev != ba {
        return Err("faults: online batch/event spot-check mismatch".to_string());
    }
    let (ev, _) = array_fault_campaign_with_stats(
        am,
        &UnitDelay,
        FaultClass::Transient,
        &small(SimBackend::Event),
    );
    let (ba, _) = array_fault_campaign_with_stats(
        am,
        &UnitDelay,
        FaultClass::Transient,
        &small(SimBackend::Batch),
    );
    if ev != ba {
        return Err("faults: array batch/event spot-check mismatch".to_string());
    }
    eprintln!(
        "  [faults] event spot-check OK (transient campaign, {samples} samples x 6 sites, both archs)"
    );
    Ok(())
}

/// Per-significance-rank corruption profile for the stuck-at-1 class: how
/// often each output position (0 = most significant) is corrupted.
fn rank_table(reports: &[CampaignReport]) -> Table {
    let mut t = Table::new(
        "Fault corruption profile by output significance",
        &["rank_msb_first", "online_hit_rate", "conventional_hit_rate"],
    );
    let pick = |arch: &str| {
        reports
            .iter()
            .find(|r| r.arch == arch && r.fault_class == FaultClass::StuckAt1)
            .expect("stuck-at-1 campaign ran")
    };
    let (on, conv) = (pick("online"), pick("conventional"));
    let ranks = on.rank_profile.len().max(conv.rank_profile.len());
    for k in 0..ranks {
        t.push_row(vec![
            k.to_string(),
            fmt_f(on.rank_profile.get(k).copied().unwrap_or(0.0)),
            fmt_f(conv.rank_profile.get(k).copied().unwrap_or(0.0)),
        ]);
    }
    t
}
