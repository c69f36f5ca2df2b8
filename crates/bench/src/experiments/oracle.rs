//! The event-driven oracle for the experiments that measure on the batch
//! engine.
//!
//! `fig4`, `faults` and `dsp` run the batch engine only. These tests build
//! their inputs with the experiments' own builders, at the same seeds and
//! sample counts, run them on both engines and demand bit-identical
//! results, so the oracle checks exactly what the experiments measure:
//!
//! * fig4: the N=8 and N=12 jittered gate-level curves over the first
//!   [`spot_samples`] samples of the sweep's stream;
//! * faults: small transient campaigns (the class whose fault plans draw
//!   per-sample randomness) for both architectures;
//! * dsp: every variant of the pack, at the experiment's sample count.
//!
//! The quick-scale tests run by default. The full-scale ones are ignored,
//! since the event simulator takes minutes on them; run them with
//! `cargo test --release -p ola-bench oracle -- --ignored`. One of them
//! gates merges all the same: CI's dsp job runs
//! `dsp_full_variants_match_the_event_oracle`, the full pack with its
//! 16-tap / 16-digit FIR, on every change.

use super::{dsp, faults, fig4, Scale};
use ola_core::campaign::{
    array_fault_campaign_with_stats, online_fault_campaign_with_stats, CampaignConfig, FaultClass,
};
use ola_core::{InputModel, SimBackend};
use ola_netlist::{FpgaDelay, UnitDelay};

/// How many samples of a stream the event oracle re-judges: the first
/// ones of fig4's sweep, and per site of a faults campaign (capped at the
/// campaign's own count).
fn spot_samples(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 16,
        Scale::Full => 64,
    }
}

fn fig4_curves_agree(scale: Scale) {
    let spot = spot_samples(scale);
    for n in [8, 12] {
        let sweep = fig4::GateSweep::new(n, scale);
        let curve = |backend| sweep.curve(spot, backend).0;
        assert_eq!(
            curve(SimBackend::Event),
            curve(SimBackend::Batch),
            "fig4 N={n}, {spot} samples"
        );
    }
}

fn fault_campaigns_agree(scale: Scale) {
    let (om, am, cfg) = faults::campaign_inputs(scale);
    let small = |backend| CampaignConfig {
        samples_per_site: spot_samples(scale).min(cfg.samples_per_site),
        max_sites: Some(6),
        backend,
        ..cfg.clone()
    };
    let online = |backend| {
        online_fault_campaign_with_stats(
            &om,
            &UnitDelay,
            InputModel::UniformDigits,
            FaultClass::Transient,
            &small(backend),
        )
        .0
    };
    assert_eq!(online(SimBackend::Event), online(SimBackend::Batch), "faults: online transient");
    let array = |backend| {
        array_fault_campaign_with_stats(&am, &UnitDelay, FaultClass::Transient, &small(backend)).0
    };
    assert_eq!(array(SimBackend::Event), array(SimBackend::Batch), "faults: array transient");
}

fn dsp_variants_agree(scale: Scale) {
    let delay = FpgaDelay::default();
    let samples = dsp::samples(scale);
    for (kernel, widths) in dsp::pack(scale) {
        for width in widths {
            let (flavours, grid) = dsp::flavours(kernel, width, scale.grid_points(), &delay);
            for (flavour, fusion) in flavours.iter().zip(["fused", "unfused"]) {
                let curve = |backend| flavour.curve(&grid, samples, &delay, backend).0;
                assert_eq!(
                    curve(SimBackend::Event),
                    curve(SimBackend::Batch),
                    "dsp {} W={width} {fusion}",
                    kernel.label()
                );
            }
        }
    }
}

#[test]
fn fig4_quick_curves_match_the_event_oracle() {
    fig4_curves_agree(Scale::Quick);
}

#[test]
fn fault_quick_campaigns_match_the_event_oracle() {
    fault_campaigns_agree(Scale::Quick);
}

#[test]
fn dsp_quick_variants_match_the_event_oracle() {
    dsp_variants_agree(Scale::Quick);
}

#[test]
#[ignore = "full scale, minutes on the event simulator"]
fn fig4_full_curves_match_the_event_oracle() {
    fig4_curves_agree(Scale::Full);
}

#[test]
#[ignore = "full scale, minutes on the event simulator"]
fn fault_full_campaigns_match_the_event_oracle() {
    fault_campaigns_agree(Scale::Full);
}

#[test]
#[ignore = "full scale, minutes on the event simulator"]
fn dsp_full_variants_match_the_event_oracle() {
    dsp_variants_agree(Scale::Full);
}
