//! `faults12`: single-fault campaigns over the 12-digit online multiplier
//! and the 12-bit array multiplier, every fault class.
//!
//! Per fault site the batch engine runs one clean pass and one
//! `run_incremental` dirty-cone pass; sites fan out across threads.

use crate::layers::ProbeSubject;
use crate::round::{Clock, Ctx, Outcome};
use ola_arith::synth::{array_multiplier, online_multiplier};
use ola_core::campaign::{
    array_fault_campaign_with_stats, online_fault_campaign_with_stats, CampaignConfig,
    CampaignReport, FaultClass,
};
use ola_core::{InputModel, SimBackend};
use ola_netlist::{analyze, FpgaDelay};

struct Sizes {
    width: usize,
    sites: usize,
    samples: usize,
}

const FULL: Sizes = Sizes { width: 12, sites: 6, samples: 64 };
const TINY: Sizes = Sizes { width: 5, sites: 6, samples: 8 };

/// The harness span around both architectures' campaigns of one class.
fn class_span(class: FaultClass) -> &'static str {
    match class {
        FaultClass::StuckAt0 => "layer.campaign.stuck_at_0",
        FaultClass::StuckAt1 => "layer.campaign.stuck_at_1",
        FaultClass::Transient => "layer.campaign.transient",
        FaultClass::DelayPush => "layer.campaign.delay_push",
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, clock: &mut Clock) -> Outcome {
    let s = if ctx.tiny { TINY } else { FULL };
    let mut out = Outcome::new(vec![
        ("width", s.width as u64),
        ("sites", s.sites as u64),
        ("samples_per_site", s.samples as u64),
        ("classes", FaultClass::ALL.len() as u64),
    ]);
    let cfg = CampaignConfig {
        samples_per_site: s.samples,
        max_sites: Some(s.sites),
        seed: ctx.seed_for(0xFA17),
        backend: SimBackend::Auto,
        ..CampaignConfig::default()
    };
    let delay = FpgaDelay::default();

    clock.begin();
    let om = ctx.layer("layer.arith", || online_multiplier(s.width, 3));
    let am = ctx.layer("layer.arith", || array_multiplier(s.width));
    let mut reports: Vec<CampaignReport> = Vec::new();
    for class in FaultClass::ALL {
        ctx.layer(class_span(class), || {
            let om_model = InputModel::UniformDigits;
            reports.push(online_fault_campaign_with_stats(&om, &delay, om_model, class, &cfg).0);
            reports.push(array_fault_campaign_with_stats(&am, &delay, class, &cfg).0);
        });
    }
    clock.end();

    for r in &reports {
        let what = || format!("{} {}", r.arch, r.fault_class.label());
        out.check(r.sites == s.sites && r.site_reports.len() == s.sites, || {
            format!("{}: {} sites", what(), r.sites)
        });
        out.check(r.samples_per_site == s.samples && r.unsettled == 0, || {
            format!("{}: {} unsettled samples", what(), r.unsettled)
        });
        let rates = [r.error_rate, r.detection_coverage, r.false_alarm_rate, r.msb_vulnerability];
        out.check(rates.iter().all(|v| (0.0..=1.0).contains(v)), || {
            format!("{}: a rate outside [0, 1]", what())
        });
        digest_report(&mut out, r);
    }
    out.nets = (om.netlist.len() + am.netlist.len()) as u64;
    if ctx.traced {
        let grid = ola_synth::ts_grid(analyze(&om.netlist, &delay).critical_path(), 20);
        out.probe = Some(ProbeSubject::multiplier(&om, grid, None, ctx.seed_for(0x9A0B)));
    }
    out
}

/// Absorbs every field of a campaign report.
fn digest_report(out: &mut Outcome, r: &CampaignReport) {
    let d = &mut out.digest;
    d.str(&r.arch);
    d.str(r.fault_class.label());
    for v in [r.sites, r.samples_per_site, r.unsettled] {
        d.u64(v as u64);
    }
    d.u64(r.seed);
    d.u64(r.critical_path);
    for v in [
        r.error_rate,
        r.mean_error,
        r.worst_error,
        r.worst_error_raw,
        r.detection_coverage,
        r.false_alarm_rate,
        r.msb_vulnerability,
    ] {
        d.f64(v);
    }
    d.f64s(&r.rank_profile);
    d.u64(r.site_reports.len() as u64);
    for site in &r.site_reports {
        d.u64(site.site as u64);
        for v in [site.error_rate, site.mean_error, site.worst_error, site.detected_rate] {
            d.f64(v);
        }
    }
}
