//! End-to-end case study smoke test: both filter datapaths, built from
//! netlists up, produce correct settled images and the expected asymmetric
//! degradation when overclocked.

use ola::core::metrics;
use ola::imaging::filter::{filter_exact, Filter, FilterConfig};
use ola::imaging::synthetic::Benchmark;
use ola::imaging::Kernel;
use ola::netlist::area;
use std::sync::OnceLock;

fn small_cfg() -> FilterConfig {
    FilterConfig {
        digits: 8,
        kernel: Kernel::gaussian(3, 1.0, 8),
        jitter_amplitude: 12,
        jitter_seed: 77,
    }
}

/// Warm filters are expensive (multiplier product passes under jittered
/// delays), so the whole suite shares one instance per design.
fn online() -> &'static Filter {
    static S: OnceLock<Filter> = OnceLock::new();
    S.get_or_init(|| Filter::online(&small_cfg()))
}

fn traditional() -> &'static Filter {
    static S: OnceLock<Filter> = OnceLock::new();
    S.get_or_init(|| Filter::traditional(&small_cfg()))
}

#[test]
fn settled_designs_agree_with_each_other_and_the_ideal() {
    let img = Benchmark::SailboatLike.generate(8, 8, 5);
    let cfg = small_cfg();
    let ideal = filter_exact(&img, &cfg.kernel);
    let online = online();
    let trad = traditional();
    let o = online.apply_sweep(&img, &[online.rated_period()]);
    let t = trad.apply_sweep(&img, &[trad.rated_period()]);
    for (name, settled) in [("online", &o.settled_image), ("traditional", &t.settled_image)] {
        for (a, b) in settled.pixels().iter().zip(ideal.pixels()) {
            assert!((i16::from(*a) - i16::from(*b)).abs() <= 8, "{name}: settled {a} vs ideal {b}");
        }
    }
    // The two designs' settled outputs agree up to their quantization.
    let snr = metrics::snr_db(&o.settled, &t.settled).expect("equal-length settled buffers");
    assert!(snr > 35.0, "designs should match closely, SNR {snr}");
}

#[test]
fn overclocked_online_filter_beats_traditional_at_every_depth() {
    let img = Benchmark::LenaLike.generate(8, 8, 6);
    let online = online();
    let trad = traditional();
    let depths = [0.75f64, 0.6];
    let mk = |rated: u64| -> Vec<u64> {
        depths.iter().map(|d| ((rated as f64 * d).round() as u64).max(1)).collect()
    };
    let o = online.apply_sweep(&img, &mk(online.rated_period()));
    let t = trad.apply_sweep(&img, &mk(trad.rated_period()));
    for (i, d) in depths.iter().enumerate() {
        let (om, tm) = (o.runs[i].mre_percent, t.runs[i].mre_percent);
        assert!(om <= tm, "depth {d}: online MRE {om}% must not exceed traditional {tm}%");
    }
    // At the deepest point the traditional design must be visibly broken
    // while online stays usable (tens-of-dB SNR gap, Table-2 shape).
    let gap = o.runs[1].snr_db.min(200.0) - t.runs[1].snr_db;
    assert!(gap > 10.0, "SNR gap {gap} dB too small");
}

#[test]
fn area_overhead_is_in_the_paper_ballpark() {
    // Table 4: online costs about 2× the LUTs of the traditional design.
    // Compare whole datapaths (multiplier + adder tree), as the paper does;
    // the multiplier alone is pricier because our generated selection logic
    // has no hand-mapped equivalent on the traditional side.
    let online = online();
    let trad = traditional();
    let o = area::estimate(online.multiplier_netlist(), 4).luts
        + area::estimate(online.tree_netlist(), 4).luts;
    let t = area::estimate(trad.multiplier_netlist(), 4).luts
        + area::estimate(trad.tree_netlist(), 4).luts;
    let overhead = o as f64 / t as f64;
    assert!(
        overhead > 1.2 && overhead < 4.0,
        "online/traditional LUT ratio {overhead} outside plausible range"
    );
}

#[test]
fn real_like_images_tolerate_more_overclocking_than_noise() {
    // The paper's "real inputs" observation: correlated images produce
    // fewer long chains, so at the same overclock the MRE is smaller.
    let online = online();
    let rated = online.rated_period();
    let ts = [(rated as f64 * 0.7).round() as u64];
    let natural = Benchmark::LenaLike.generate(8, 8, 7);
    let noise = Benchmark::Uniform.generate(8, 8, 7);
    let mre_nat = online.apply_sweep(&natural, &ts).runs[0].mre_percent;
    let mre_noise = online.apply_sweep(&noise, &ts).runs[0].mre_percent;
    assert!(mre_nat <= mre_noise * 1.5 + 1e-9, "natural {mre_nat}% vs noise {mre_noise}%");
}
