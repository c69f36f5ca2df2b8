//! Deterministic fault-injection campaigns over synthesized datapaths.
//!
//! A *campaign* enumerates single-fault sites of a gate-level netlist
//! ([`logic_fault_sites`]), injects one fault class per site
//! (stuck-at-0/1, transient SEU, or delay push — see
//! [`ola_netlist::FaultPlan`]), and measures the numeric damage at the
//! output registers when the circuit is clocked at its rated period.
//! A Razor-style shadow register (Ernst et al., 2004: a second register
//! sampled one timing margin later, flagging a violation whenever the two
//! disagree) classifies each erroneous sample as *detected*
//! (main ≠ shadow) or *silent*.
//!
//! The paper's resilience argument falls out of the numbers: in an online
//! (MSD-first) multiplier every output wire carries a bounded digit weight,
//! so the worst single-wire corruption is a fixed fraction of full scale —
//! whereas a conventional two's-complement multiplier exposes a sign bit
//! whose corruption is *all* of full scale. Errors are therefore reported
//! normalized to each architecture's representable output range so the two
//! encodings are comparable (raw worst-case values are also retained).
//!
//! Campaigns are seed-reproducible and independent of the worker-thread
//! count: sites fan out through [`parallel_map`](crate::parallel) and each
//! site's samples run through the one sampling loop of every Monte-Carlo
//! experiment in this crate
//! ([`parallel_accumulate_batched`](crate::parallel)), each group of up to
//! 256 samples as one `SitePass` on the selected engine.
//!
//! Campaigns run on the bit-parallel engine, which evaluates a group in
//! one timed pass on the narrowest lane word that holds it — each lane
//! carrying a *different* fault plan
//! ([`ola_netlist::batch::LaneFaultSet`]). That faulty pass is a sampled
//! pass: it returns the output bus at the main and shadow register times
//! only, and keeps only the steps that can still reach those registers
//! ([`BatchProgram::run_bus_at`]). Each sample is judged against the
//! settled fault-free output, which a combinational DAG reaches whatever
//! its delays, so the batch engine computes it in one zero-delay pass per
//! group ([`BatchProgram::settled_bus`]) and runs no clean timed pass.
//! [`CampaignConfig::backend`] selects the event-driven reference oracle
//! instead; only tests select it (the `ola-bench` oracle tests hold
//! `repro`'s campaigns to it, and `repro` itself runs the batch engine
//! only). It simulates a group's samples across the worker budget and
//! folds them in sample order.
//!
//! Setting `OLA_BATCH_CHECK_INCREMENTAL=1` (read once per campaign, under
//! [`env_flag`](crate::resilience::env_flag)'s grammar) holds both batch
//! evaluations to full passes: every group's settled words to a full clean
//! pass's final words, and its sampled words to a full faulty pass's at the
//! same times. Any difference panics. Unlike the engine's property tests,
//! which draw random netlists, this checks the campaign's own netlists in
//! every fault class.
//!
//! [`BatchProgram::run_bus_at`]: ola_netlist::batch::BatchProgram::run_bus_at
//! [`BatchProgram::settled_bus`]: ola_netlist::batch::BatchProgram::settled_bus

use crate::backend::{run_group, BackendStats, BatchLanes, Engine, GroupPass, SimBackend};
use crate::montecarlo::InputModel;
use crate::parallel::{parallel_accumulate_batched, parallel_map};
use ola_arith::online::digits_value;
use ola_arith::synth::{ArrayMultiplierCircuit, OnlineMultiplierCircuit};
use ola_netlist::batch::{BatchProgram, LaneFaultSet, LaneInputs, LaneWord};
use ola_netlist::fault::logic_fault_sites;
use ola_netlist::{
    analyze, simulate_from_zero, simulate_from_zero_with_faults, DelayModel, FaultPlan, NetId,
    Netlist,
};
use ola_redundant::Digit;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Which single-fault class a campaign injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum FaultClass {
    /// Net permanently reads 0 (hard fault).
    StuckAt0,
    /// Net permanently reads 1 (hard fault).
    StuckAt1,
    /// Single-event upset: the net reads inverted for a bounded window at a
    /// random time inside the clock period.
    Transient,
    /// The driving gate slows down by a fixed amount (local variation),
    /// converting marginal paths into real timing violations.
    DelayPush,
}

impl FaultClass {
    /// All campaign classes, in reporting order.
    pub const ALL: [FaultClass; 4] =
        [FaultClass::StuckAt0, FaultClass::StuckAt1, FaultClass::Transient, FaultClass::DelayPush];

    /// Short machine-readable label (used in CSV rows).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::StuckAt0 => "stuck_at_0",
            FaultClass::StuckAt1 => "stuck_at_1",
            FaultClass::Transient => "transient",
            FaultClass::DelayPush => "delay_push",
        }
    }

    /// Builds the single-fault plan for one sample at `site`.
    fn plan(
        self,
        site: NetId,
        rng: &mut ChaCha8Rng,
        period: u64,
        cfg: &CampaignConfig,
    ) -> FaultPlan {
        match self {
            FaultClass::StuckAt0 => FaultPlan::new().stuck_at(site, false),
            FaultClass::StuckAt1 => FaultPlan::new().stuck_at(site, true),
            FaultClass::Transient => {
                let at = rng.gen_range(0..period.max(1));
                FaultPlan::new().transient(site, at, cfg.transient_duration)
            }
            FaultClass::DelayPush => FaultPlan::new().delay_push(site, cfg.delay_push),
        }
    }
}

/// Knobs of a fault campaign. [`Default`] gives a small, fast campaign
/// suitable for tests; the `repro` binary scales it up.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct CampaignConfig {
    /// Monte-Carlo operand draws per fault site.
    pub samples_per_site: usize,
    /// Evenly subsample the fault-site list down to at most this many sites
    /// (`None` = exhaustive).
    pub max_sites: Option<usize>,
    /// Master seed; `(seed, site, chunk)` fully determines every draw.
    pub seed: u64,
    /// Razor shadow-register margin as a fraction of the rated period.
    pub shadow_margin_frac: f64,
    /// Duration of transient upsets, in time units
    /// ([`Transient`](FaultClass::Transient) class only).
    pub transient_duration: u64,
    /// Extra gate delay, in time units ([`DelayPush`](FaultClass::DelayPush)
    /// class only).
    pub delay_push: u64,
    /// Which simulation engine evaluates the samples: the batch engine
    /// ([`SimBackend::Auto`] and [`SimBackend::Batch`] alike) or the
    /// event-driven oracle ([`SimBackend::Event`]), which only tests
    /// select. Results are bit-identical across engines.
    pub backend: SimBackend,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            samples_per_site: 16,
            max_sites: Some(48),
            seed: 0xDA11_F417,
            shadow_margin_frac: 0.25,
            transient_duration: 150,
            delay_push: 200,
            backend: SimBackend::Auto,
        }
    }
}

/// Per-site summary of a campaign.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct SiteReport {
    /// Raw net index of the faulted site.
    pub site: usize,
    /// Fraction of samples whose main-register value was corrupted.
    pub error_rate: f64,
    /// Mean normalized error over all samples at this site.
    pub mean_error: f64,
    /// Worst normalized error at this site.
    pub worst_error: f64,
    /// Of the corrupted samples, the fraction the Razor shadow flagged.
    pub detected_rate: f64,
}

/// Aggregate result of one (architecture, fault class) campaign.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct CampaignReport {
    /// Architecture label (`"online"` / `"conventional"`).
    pub arch: String,
    /// The injected fault class.
    pub fault_class: FaultClass,
    /// Number of fault sites actually exercised.
    pub sites: usize,
    /// Samples per site.
    pub samples_per_site: usize,
    /// Master seed used.
    pub seed: u64,
    /// Rated (STA) clock period; the main register samples here.
    pub critical_path: u64,
    /// Fraction of evaluated samples with a corrupted main value.
    pub error_rate: f64,
    /// Mean normalized error over all evaluated samples.
    pub mean_error: f64,
    /// Worst normalized error (`|faulty − correct| / full_scale`).
    pub worst_error: f64,
    /// Worst raw (unnormalized) error on the architecture's native scale.
    pub worst_error_raw: f64,
    /// Of the corrupted samples, the fraction detected by the Razor shadow.
    pub detection_coverage: f64,
    /// Of the clean samples, the fraction the shadow falsely flagged.
    pub false_alarm_rate: f64,
    /// Fraction of corrupted samples whose most-significant corrupted
    /// output position lies in the top quarter of the output significance
    /// range.
    pub msb_vulnerability: f64,
    /// Per-significance-rank corruption frequency (rank 0 = most
    /// significant output position; fraction of evaluated samples).
    pub rank_profile: Vec<f64>,
    /// Always 0: every netlist is a DAG, so every faulty simulation
    /// settles. The fault CSVs keep the column.
    pub unsettled: usize,
    /// Per-site breakdowns, in site order.
    pub site_reports: Vec<SiteReport>,
}

/// Per-site accumulator of the sampling loop.
#[derive(Clone)]
struct Acc {
    samples: usize,
    errors: usize,
    err_sum: f64,
    worst: f64,
    worst_raw: f64,
    detected: usize,
    false_alarms: usize,
    msb_hits: usize,
    rank_hits: Vec<u64>,
    stats: BackendStats,
}

impl Acc {
    fn new(n_ranks: usize) -> Acc {
        Acc {
            samples: 0,
            errors: 0,
            err_sum: 0.0,
            worst: 0.0,
            worst_raw: 0.0,
            detected: 0,
            false_alarms: 0,
            msb_hits: 0,
            rank_hits: vec![0; n_ranks],
            stats: BackendStats::default(),
        }
    }

    fn merge(mut a: Acc, b: &Acc) -> Acc {
        a.samples += b.samples;
        a.errors += b.errors;
        a.err_sum += b.err_sum;
        a.worst = a.worst.max(b.worst);
        a.worst_raw = a.worst_raw.max(b.worst_raw);
        a.detected += b.detected;
        a.false_alarms += b.false_alarms;
        a.msb_hits += b.msb_hits;
        for (x, y) in a.rank_hits.iter_mut().zip(&b.rank_hits) {
            *x += y;
        }
        a.stats.merge(&b.stats);
        a
    }
}

/// Evenly subsamples the canonical fault sites down to `cfg.max_sites`.
fn select_sites(netlist: &Netlist, cfg: &CampaignConfig) -> Vec<NetId> {
    let all = logic_fault_sites(netlist);
    match cfg.max_sites {
        Some(m) if m > 0 && all.len() > m => (0..m).map(|i| all[i * all.len() / m]).collect(),
        _ => all,
    }
}

/// The seed of the `site_idx`-th selected site's sampling loop.
fn site_seed(seed: u64, site_idx: usize) -> u64 {
    seed ^ (site_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// When the main register (at the rated `period`) and the Razor shadow
/// (a margin of at least one time unit later) sample the output bus.
fn register_times(period: u64, cfg: &CampaignConfig) -> [u64; 2] {
    let margin = ((period as f64) * cfg.shadow_margin_frac).round() as u64;
    [period, period + margin.max(1)]
}

/// The per-sample recorder a fault-site loop folds observations through:
/// `(acc, settled_bits, faulty_main_bits, faulty_shadow_bits)`.
type RecordFn<'a> = dyn Fn(&mut Acc, &[bool], &[bool], &[bool]) + Sync + 'a;

/// One group of a fault site's sampling loop. On the batch engine it is a
/// zero-delay evaluation of the fault-free bus ([`BatchProgram::settled_bus`])
/// for the settled correct bits, then one timed faulty pass carrying a
/// different fault plan per lane that returns only the bus words at the
/// main and shadow sample times ([`BatchProgram::run_bus_at`]). The
/// settled words equal a clean timed pass's final words, and the sampled
/// pass keeps only the steps of each net that can still reach a register
/// at those times while its words equal a full faulty pass's (the
/// engine's property tests pin both down), so the campaign report cannot
/// depend on which path produced it. With `cross_check` set, every batch
/// group is also held to full passes ([`cross_check_group`]). On the event
/// oracle each sample takes a clean and a faulty simulation of its own.
///
/// [`BatchProgram::settled_bus`]: ola_netlist::batch::BatchProgram::settled_bus
/// [`BatchProgram::run_bus_at`]: ola_netlist::batch::BatchProgram::run_bus_at
struct SitePass<'a, M> {
    engine: Engine<'a, M>,
    wires: &'a [NetId],
    t_main: u64,
    t_shadow: u64,
    cross_check: bool,
    record: &'a RecordFn<'a>,
}

/// The `OLA_BATCH_CHECK_INCREMENTAL` cross-check of one batch group, from
/// all-zero previous inputs to `new`: the `settled` words the group
/// observed ([`BatchProgram::settled_bus`]) must equal a full clean pass's
/// final bus words, and its `sampled` words at each of `times`
/// ([`BatchProgram::run_bus_at`] under `faults`) must equal a full faulty
/// pass's bus words at the same time.
///
/// # Panics
///
/// Panics on any difference.
fn cross_check_group<B: LaneWord>(
    prog: &BatchProgram,
    new: &LaneInputs<B>,
    faults: &LaneFaultSet<B>,
    wires: &[NetId],
    times: [u64; 2],
    settled: &[B],
    sampled: [&[B]; 2],
) {
    let prev = LaneInputs::<B>::zeros(prog.num_inputs(), new.lanes())
        .expect("the group fits the lane word");
    let clean = prog.run(&prev, new).expect("the packed inputs fit the program");
    let want: Vec<B> = wires.iter().map(|&net| clean.wave(net).final_word()).collect();
    assert!(settled == want, "settled/full divergence (OLA_BATCH_CHECK_INCREMENTAL)");
    let full =
        prog.run_with_faults(&prev, new, faults).expect("fault set compiled for this program");
    let want = full.bus_waves(wires).expect("bus nets exist").sweep(&times);
    for (ti, words) in sampled.into_iter().enumerate() {
        assert!(
            words == want.words_at(ti),
            "sampled/full divergence (OLA_BATCH_CHECK_INCREMENTAL)"
        );
    }
}

impl<M: DelayModel + Sync> GroupPass for SitePass<'_, M> {
    type Sample = (Vec<bool>, FaultPlan);
    type Acc = Acc;

    fn run<B: LaneWord>(&self, group: &[(Vec<bool>, FaultPlan)], acc: &mut Acc) {
        let lanes = group.len() as u32;
        acc.stats.vectors += u64::from(lanes);
        match &self.engine {
            Engine::Batch(prog) => {
                let vectors: Vec<Vec<bool>> = group.iter().map(|(v, _)| v.clone()).collect();
                let plans: Vec<FaultPlan> = group.iter().map(|(_, p)| p.clone()).collect();
                let prev = LaneInputs::<B>::zeros(prog.num_inputs(), lanes)
                    .expect("the group fits the lane word");
                let new = LaneInputs::<B>::pack(&vectors).expect("draw produces full vectors");
                let settled = prog
                    .settled_bus(&new, self.wires)
                    .expect("the packed inputs fit the program, bus nets exist");
                let faults = LaneFaultSet::<B>::compile(&plans, prog.num_nets())
                    .expect("plans target in-range nets");
                let times = [self.t_main, self.t_shadow];
                let faulty = prog
                    .run_bus_at(&prev, &new, Some(&faults), self.wires, &times)
                    .expect("fault set compiled for this program, bus nets exist, times distinct");
                let sampled = faulty.sweep();
                if self.cross_check {
                    let words = [sampled.words_at(0), sampled.words_at(1)];
                    cross_check_group(prog, &new, &faults, self.wires, times, &settled, words);
                }
                for lane in 0..lanes {
                    let correct: Vec<bool> = settled.iter().map(|w| w.bit(lane)).collect();
                    (self.record)(
                        acc,
                        &correct,
                        &sampled.lane_bits(0, lane),
                        &sampled.lane_bits(1, lane),
                    );
                }
                acc.stats.ts_points += 2 * u64::from(lanes);
                acc.stats.record_batch::<B>(
                    1,
                    lanes,
                    faulty.word_steps(),
                    faulty.lane_transitions(),
                );
            }
            Engine::Event { netlist, delay } => {
                let runs = parallel_map(group, |_, (inputs, plan)| {
                    crate::resilience::check_cancelled();
                    let clean = simulate_from_zero(netlist, *delay, inputs);
                    let faulty = simulate_from_zero_with_faults(netlist, *delay, inputs, plan)
                        .expect("plans target in-range nets, inputs fit the netlist");
                    [
                        clean.final_bus(self.wires),
                        faulty.sample_bus(self.wires, self.t_main),
                        faulty.sample_bus(self.wires, self.t_shadow),
                    ]
                });
                for [correct, main, shadow] in runs {
                    acc.stats.ts_points += 2;
                    (self.record)(acc, &correct, &main, &shadow);
                }
                acc.stats.backend = "event";
                acc.stats.event_runs += 2 * u64::from(lanes);
            }
        }
    }
}

/// The generic campaign engine. `draw` encodes one random operand pair as
/// the simulator input vector; `value` decodes an output-bus bit vector to
/// a *normalized* numeric value (full scale = 1.0); `raw_scale` converts a
/// normalized error back to the architecture's native scale for
/// `worst_error_raw`; `rank_of` maps an output-wire position to its
/// significance rank (0 = MSB).
///
/// Each site's samples run in groups of up to 256 ([`BatchLanes`]), each
/// group one [`SitePass`] on the selected engine, and every sample is
/// judged by the same `record`, folded in sample order.
#[allow(clippy::too_many_arguments)]
fn run_campaign<M, D, V>(
    arch: &str,
    netlist: &Netlist,
    wires: &[NetId],
    n_ranks: usize,
    rank_of: &(dyn Fn(usize) -> usize + Sync),
    raw_scale: f64,
    delay: &M,
    draw: D,
    value: V,
    class: FaultClass,
    cfg: &CampaignConfig,
) -> (CampaignReport, BackendStats)
where
    M: DelayModel + Sync,
    D: Fn(&mut ChaCha8Rng) -> Vec<bool> + Sync,
    V: Fn(&[bool]) -> f64 + Sync,
{
    assert!(cfg.samples_per_site > 0, "campaign needs at least one sample per site");
    let _span = crate::obs::span(format!("campaign.{arch}"));
    let sites = select_sites(netlist, cfg);
    crate::obs::registry().counter("ola.campaign.sites").add(sites.len() as u64);
    let period = analyze(netlist, delay).critical_path();
    let [t_main, t_shadow] = register_times(period, cfg);
    let msb_cut = n_ranks.div_ceil(4);

    // The backend-independent per-sample judgement: compare the
    // main-register capture against the settled clean value, classify the
    // Razor shadow's verdict, and profile which significance ranks broke.
    let record = |acc: &mut Acc, correct_bits: &[bool], main: &[bool], shadow: &[bool]| {
        acc.samples += 1;
        let correct = value(correct_bits);
        let err = (value(main) - correct).abs();
        if main != correct_bits || err > 0.0 {
            acc.errors += 1;
            acc.err_sum += err;
            acc.worst = acc.worst.max(err);
            acc.worst_raw = acc.worst_raw.max(err * raw_scale);
            if main != shadow {
                acc.detected += 1;
            }
            let mut best_rank = usize::MAX;
            for (pos, (&m, &c)) in main.iter().zip(correct_bits).enumerate() {
                if m != c {
                    let r = rank_of(pos);
                    acc.rank_hits[r] += 1;
                    best_rank = best_rank.min(r);
                }
            }
            if best_rank < msb_cut {
                acc.msb_hits += 1;
            }
        } else if main != shadow {
            acc.false_alarms += 1;
        }
    };

    let engine = if cfg.backend == SimBackend::Event {
        Engine::Event { netlist, delay }
    } else {
        Engine::Batch(crate::memo::batch_program(netlist, delay))
    };
    let cross_check = crate::resilience::env_flag("OLA_BATCH_CHECK_INCREMENTAL");
    let pass = SitePass { engine, wires, t_main, t_shadow, cross_check, record: &record };
    let started = Instant::now();

    let per_site: Vec<Acc> = parallel_map(&sites, |site_idx, &site| {
        crate::resilience::check_cancelled();
        parallel_accumulate_batched(
            cfg.samples_per_site,
            site_seed(cfg.seed, site_idx),
            BatchLanes::LANES as usize,
            || Acc::new(n_ranks),
            |rng| (draw(rng), class.plan(site, rng, period, cfg)),
            |group: &[(Vec<bool>, FaultPlan)], acc: &mut Acc| {
                crate::resilience::check_cancelled();
                run_group(&pass, group, acc);
            },
            Acc::merge,
        )
    });

    let mut total = per_site.iter().fold(Acc::new(n_ranks), Acc::merge);
    total.stats.wall = started.elapsed();
    total.stats.publish();
    let evaluated = total.samples.max(1) as f64;
    let clean_samples = (total.samples - total.errors).max(1) as f64;
    let site_reports = sites
        .iter()
        .zip(&per_site)
        .map(|(&site, a)| {
            let s = a.samples.max(1) as f64;
            SiteReport {
                site: site.index(),
                error_rate: a.errors as f64 / s,
                mean_error: a.err_sum / s,
                worst_error: a.worst,
                detected_rate: if a.errors > 0 { a.detected as f64 / a.errors as f64 } else { 1.0 },
            }
        })
        .collect();

    let report = CampaignReport {
        arch: arch.to_string(),
        fault_class: class,
        sites: sites.len(),
        samples_per_site: cfg.samples_per_site,
        seed: cfg.seed,
        critical_path: period,
        error_rate: total.errors as f64 / evaluated,
        mean_error: total.err_sum / evaluated,
        worst_error: total.worst,
        worst_error_raw: total.worst_raw,
        detection_coverage: if total.errors > 0 {
            total.detected as f64 / total.errors as f64
        } else {
            1.0
        },
        false_alarm_rate: total.false_alarms as f64 / clean_samples,
        msb_vulnerability: if total.errors > 0 {
            total.msb_hits as f64 / total.errors as f64
        } else {
            0.0
        },
        rank_profile: total.rank_hits.iter().map(|&h| h as f64 / evaluated).collect(),
        unsettled: 0,
        site_reports,
    };
    (report, total.stats)
}

/// Full-scale value of an online result bus: every digit at `+1`.
fn online_full_scale(digits: usize) -> f64 {
    digits_value(&vec![Digit::from_bits(true, false); digits]).to_f64()
}

/// Runs a single-fault campaign over a synthesized online (MSD-first)
/// multiplier, and returns its report with the backend's observability
/// counters.
///
/// Errors are normalized by the representable output range (all output
/// digits at `+1`), so the worst possible single-digit corruption —
/// flipping the most-significant digit `z_{−δ}` by two units — is about
/// half of full scale.
///
/// # Panics
///
/// Panics if `cfg.samples_per_site` is zero.
#[must_use]
pub fn online_fault_campaign_with_stats<M: DelayModel + Sync>(
    circuit: &OnlineMultiplierCircuit,
    delay: &M,
    model: InputModel,
    class: FaultClass,
    cfg: &CampaignConfig,
) -> (CampaignReport, BackendStats) {
    let zp = circuit.netlist.output("zp").to_vec();
    let zn = circuit.netlist.output("zn").to_vec();
    let digits = zp.len();
    let wires: Vec<NetId> = zp.iter().chain(&zn).copied().collect();
    let n = circuit.n;
    let full_scale = online_full_scale(digits);
    run_campaign(
        "online",
        &circuit.netlist,
        &wires,
        digits,
        &move |pos| pos % digits,
        full_scale,
        delay,
        |rng| {
            let x = model.draw(rng, n);
            let y = model.draw(rng, n);
            circuit.encode_inputs(&x, &y)
        },
        |bits| {
            let (p, q) = bits.split_at(digits);
            let ds: Vec<Digit> = p.iter().zip(q).map(|(&a, &b)| Digit::from_bits(a, b)).collect();
            digits_value(&ds).to_f64() / full_scale
        },
        class,
        cfg,
    )
}

/// Runs a single-fault campaign over a synthesized two's-complement array
/// multiplier, and returns its report with the backend's observability
/// counters.
///
/// Errors are normalized by the representable product range `2^(2w−1)`, so
/// a corrupted sign bit is exactly full scale — the conventional encoding's
/// catastrophic failure mode.
///
/// # Panics
///
/// Panics if `cfg.samples_per_site` is zero.
#[must_use]
pub fn array_fault_campaign_with_stats<M: DelayModel + Sync>(
    circuit: &ArrayMultiplierCircuit,
    delay: &M,
    class: FaultClass,
    cfg: &CampaignConfig,
) -> (CampaignReport, BackendStats) {
    let wires = circuit.netlist.output("product").to_vec();
    let bits = wires.len();
    let w = circuit.width;
    let lim = 1i64 << (w - 1);
    let full_scale = ((2 * w - 1) as f64).exp2();
    run_campaign(
        "conventional",
        &circuit.netlist,
        &wires,
        bits,
        &move |pos| bits - 1 - pos,
        full_scale,
        delay,
        |rng| {
            let a = rng.gen_range(-lim..lim);
            let b = rng.gen_range(-lim..lim);
            circuit.encode_inputs(a, b)
        },
        |out| circuit.decode_product(out) as f64 / full_scale,
        class,
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_arith::synth::{array_multiplier, online_multiplier};
    use ola_netlist::UnitDelay;

    /// A campaign over `om` under unit delays and digit-uniform inputs.
    fn online(
        om: &OnlineMultiplierCircuit,
        class: FaultClass,
        cfg: &CampaignConfig,
    ) -> (CampaignReport, BackendStats) {
        online_fault_campaign_with_stats(om, &UnitDelay, InputModel::UniformDigits, class, cfg)
    }

    fn quick_cfg() -> CampaignConfig {
        CampaignConfig {
            samples_per_site: 4,
            max_sites: Some(10),
            seed: 11,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaigns_are_seed_reproducible() {
        let om = online_multiplier(4, 3);
        let run = || online(&om, FaultClass::StuckAt1, &quick_cfg()).0;
        assert_eq!(run(), run());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let om = online_multiplier(4, 3);
        let run = || online(&om, FaultClass::Transient, &quick_cfg()).0;
        let _env =
            crate::parallel::ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::set_var("OLA_THREADS", "1");
        let serial = run();
        std::env::set_var("OLA_THREADS", "4");
        let parallel = run();
        std::env::remove_var("OLA_THREADS");
        assert_eq!(serial, parallel);
    }

    /// The event oracle spreads a group's samples over the worker budget:
    /// a one-chunk sweep and a one-site campaign hand all three workers to
    /// their single group, and still come out the same as on one worker.
    #[test]
    fn event_oracle_does_not_depend_on_thread_count() {
        use crate::backend::StaGate;
        use crate::empirical::om_gate_level_curve_with;
        let om = online_multiplier(4, 3);
        let cp = analyze(&om.netlist, &UnitDelay).critical_path();
        let ts = [cp / 4, cp / 2, cp * 3 / 4];
        let cfg = CampaignConfig {
            samples_per_site: 200,
            max_sites: Some(1),
            backend: SimBackend::Event,
            ..quick_cfg()
        };
        let run = || {
            let (curve, stats) = om_gate_level_curve_with(
                &om,
                &UnitDelay,
                InputModel::UniformDigits,
                &ts,
                200,
                23,
                SimBackend::Event,
                StaGate::Off,
            );
            assert_eq!((stats.backend, stats.event_runs), ("event", 200));
            let report = online(&om, FaultClass::Transient, &cfg).0;
            (curve, report)
        };
        let _env =
            crate::parallel::ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::set_var("OLA_THREADS", "1");
        let serial = run();
        std::env::set_var("OLA_THREADS", "3");
        let parallel = run();
        std::env::remove_var("OLA_THREADS");
        assert_eq!(serial, parallel);
    }

    #[test]
    fn stuck_at_faults_hurt_conventional_more_than_online() {
        // The resilience headline: worst normalized single-fault damage.
        let om = online_multiplier(5, 3);
        let am = array_multiplier(6);
        let cfg = CampaignConfig { samples_per_site: 6, max_sites: None, ..quick_cfg() };
        let mut worst_on: f64 = 0.0;
        let mut worst_conv: f64 = 0.0;
        for class in [FaultClass::StuckAt0, FaultClass::StuckAt1] {
            let on = online(&om, class, &cfg).0;
            let conv = array_fault_campaign_with_stats(&am, &UnitDelay, class, &cfg).0;
            assert!(on.error_rate > 0.0 && conv.error_rate > 0.0);
            worst_on = worst_on.max(on.worst_error);
            worst_conv = worst_conv.max(conv.worst_error);
        }
        assert!(
            worst_on < worst_conv,
            "online worst {worst_on} must beat conventional worst {worst_conv}"
        );
        // And the conventional sign bit really is reachable: full scale.
        assert!(worst_conv > 0.9, "conventional worst {worst_conv} should approach full scale");
    }

    #[test]
    fn report_shapes_are_consistent() {
        let om = online_multiplier(4, 3);
        let cfg = quick_cfg();
        let rep = online(&om, FaultClass::Transient, &cfg).0;
        assert_eq!(rep.sites, rep.site_reports.len());
        assert!(rep.sites <= 10);
        assert_eq!(rep.rank_profile.len(), om.n + 3);
        assert!(rep.error_rate >= 0.0 && rep.error_rate <= 1.0);
        assert!(rep.detection_coverage >= 0.0 && rep.detection_coverage <= 1.0);
        assert!(rep.worst_error_raw >= rep.worst_error, "raw scale is larger");
    }

    #[test]
    fn exhaustive_sites_and_subsampling_agree_on_shape() {
        let om = online_multiplier(3, 3);
        let n_all = logic_fault_sites(&om.netlist).len();
        let cfg = CampaignConfig { max_sites: None, samples_per_site: 2, ..quick_cfg() };
        let rep = online(&om, FaultClass::StuckAt0, &cfg).0;
        assert_eq!(rep.sites, n_all);
    }

    #[test]
    fn batch_and_event_campaigns_are_bit_identical() {
        // Transient plans consume rng *after* the operand draw, so this
        // also pins the shared random-stream ordering across backends.
        let om = online_multiplier(4, 3);
        let am = array_multiplier(5);
        for class in FaultClass::ALL {
            let cfg_ev = CampaignConfig { backend: SimBackend::Event, ..quick_cfg() };
            let cfg_ba = CampaignConfig { backend: SimBackend::Batch, ..quick_cfg() };
            let (ev, ev_stats) = online(&om, class, &cfg_ev);
            let (ba, ba_stats) = online(&om, class, &cfg_ba);
            assert_eq!(ev, ba, "online {class:?} reports must match");
            assert_eq!(ev_stats.backend, "event");
            assert_eq!(ba_stats.backend, "batch");
            assert_eq!(ev_stats.vectors, ba_stats.vectors);
            let ev = array_fault_campaign_with_stats(&am, &UnitDelay, class, &cfg_ev).0;
            let ba = array_fault_campaign_with_stats(&am, &UnitDelay, class, &cfg_ba).0;
            assert_eq!(ev, ba, "array {class:?} reports must match");
        }
    }

    /// Every lane word a group can run on — `u64` (12, 64), 256 lanes
    /// (65, 129), and a 256 + 44 split across two words (300) — holds
    /// batch to the event oracle bit for bit.
    #[test]
    fn batch_matches_event_at_every_lane_width() {
        let om = online_multiplier(4, 3);
        let am = array_multiplier(4);
        for (samples, capacity, slots_per_site) in
            [(12, 64, 64), (64, 64, 64), (65, 256, 256), (129, 256, 256), (300, 256, 320)]
        {
            for class in FaultClass::ALL {
                let cfg = |backend| CampaignConfig {
                    samples_per_site: samples,
                    max_sites: Some(2),
                    backend,
                    ..quick_cfg()
                };
                let (cfg_ev, cfg_ba) = (cfg(SimBackend::Event), cfg(SimBackend::Batch));
                let (ev, _) = online(&om, class, &cfg_ev);
                let (ba, stats) = online(&om, class, &cfg_ba);
                assert_eq!(ev, ba, "online {class:?} at {samples} samples");
                assert_eq!(stats.lane_capacity, capacity, "{samples} samples");
                // Two sites, one faulty pass per group.
                assert_eq!(stats.lanes_used, 2 * samples as u64);
                assert_eq!(stats.lane_slots, 2 * slots_per_site);
                let ev = array_fault_campaign_with_stats(&am, &UnitDelay, class, &cfg_ev).0;
                let ba = array_fault_campaign_with_stats(&am, &UnitDelay, class, &cfg_ba).0;
                assert_eq!(ev, ba, "array {class:?} at {samples} samples");
            }
        }
    }

    /// A batch campaign runs one timed pass per group, the sampled faulty
    /// one: the correct bits come from a zero-delay evaluation, which
    /// counts no pass, word step or transition.
    #[test]
    fn batch_campaigns_run_one_faulty_pass_per_group() {
        use rand::SeedableRng;
        let am = array_multiplier(4);
        let class = FaultClass::Transient;
        let run = |samples_per_site| {
            let cfg = CampaignConfig {
                samples_per_site,
                max_sites: Some(3),
                backend: SimBackend::Batch,
                ..quick_cfg()
            };
            (array_fault_campaign_with_stats(&am, &UnitDelay, class, &cfg).1, cfg)
        };
        // 300 samples per site: a 256-sample chunk and a 44-sample chunk,
        // one group each.
        assert_eq!(run(300).0.batch_runs, 3 * 2);

        // 48 samples per site: one group, drawn from the site's seed.
        // Replaying each site's faulty pass gives the campaign's counters.
        let (stats, cfg) = run(48);
        assert_eq!(stats.batch_runs, 3);
        let prog = BatchProgram::compile(&am.netlist, &UnitDelay).unwrap();
        let wires = am.netlist.output("product").to_vec();
        let period = analyze(&am.netlist, &UnitDelay).critical_path();
        let lim = 1i64 << (am.width - 1);
        let (mut word_steps, mut lane_transitions) = (0, 0);
        for (site_idx, &site) in select_sites(&am.netlist, &cfg).iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(site_seed(cfg.seed, site_idx));
            let (vectors, plans): (Vec<_>, Vec<_>) = (0..48)
                .map(|_| {
                    let a = rng.gen_range(-lim..lim);
                    let b = rng.gen_range(-lim..lim);
                    (am.encode_inputs(a, b), class.plan(site, &mut rng, period, &cfg))
                })
                .unzip();
            let prev = LaneInputs::<u64>::zeros(prog.num_inputs(), 48).unwrap();
            let new = LaneInputs::pack(&vectors).unwrap();
            let faults = LaneFaultSet::compile(&plans, prog.num_nets()).unwrap();
            let times = register_times(period, &cfg);
            let pass = prog.run_bus_at(&prev, &new, Some(&faults), &wires, &times).unwrap();
            word_steps += pass.word_steps();
            lane_transitions += pass.lane_transitions();
        }
        assert!(lane_transitions > 0, "transients switch the faulty pass");
        assert_eq!((stats.word_steps, stats.lane_transitions), (word_steps, lane_transitions));
    }

    /// Hands `cross_check_group` one transient group of a 4-bit array
    /// multiplier as a campaign observes it, after `tamper` edits the
    /// settled and sampled words.
    fn cross_check_tampered(tamper: impl FnOnce(&mut [u64], &mut [Vec<u64>; 2])) {
        use rand::SeedableRng;
        let am = array_multiplier(4);
        let cfg = quick_cfg();
        let prog = BatchProgram::compile(&am.netlist, &UnitDelay).unwrap();
        let wires = am.netlist.output("product").to_vec();
        let period = analyze(&am.netlist, &UnitDelay).critical_path();
        let site = select_sites(&am.netlist, &cfg)[0];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (vectors, plans): (Vec<_>, Vec<_>) = (0..16)
            .map(|i| {
                let plan = FaultClass::Transient.plan(site, &mut rng, period, &cfg);
                (am.encode_inputs(i - 8, 7 - i), plan)
            })
            .unzip();
        let prev = LaneInputs::<u64>::zeros(prog.num_inputs(), 16).unwrap();
        let new = LaneInputs::pack(&vectors).unwrap();
        let faults = LaneFaultSet::compile(&plans, prog.num_nets()).unwrap();
        let times = register_times(period, &cfg);
        let mut settled = prog.settled_bus(&new, &wires).unwrap();
        let pass = prog.run_bus_at(&prev, &new, Some(&faults), &wires, &times).unwrap();
        let mut sampled = [0, 1].map(|ti| pass.sweep().words_at(ti).to_vec());
        tamper(&mut settled, &mut sampled);
        let [main, shadow] = &sampled;
        cross_check_group(&prog, &new, &faults, &wires, times, &settled, [main, shadow]);
    }

    #[test]
    fn cross_check_accepts_the_words_a_group_observed() {
        cross_check_tampered(|_, _| {});
    }

    #[test]
    #[should_panic(expected = "settled/full divergence")]
    fn cross_check_catches_one_flipped_settled_bit() {
        cross_check_tampered(|settled, _| settled[2] ^= 1 << 5);
    }

    #[test]
    #[should_panic(expected = "sampled/full divergence")]
    fn cross_check_catches_one_flipped_sampled_bit() {
        cross_check_tampered(|_, sampled| sampled[1][3] ^= 1 << 9);
    }

    #[test]
    fn jittered_campaigns_run_on_batch_bit_identically() {
        use ola_netlist::JitteredDelay;
        let om = online_multiplier(3, 3);
        let delay = JitteredDelay::new(UnitDelay, 15, 3);
        let run = |backend| {
            let cfg = CampaignConfig { backend, ..quick_cfg() };
            online_fault_campaign_with_stats(
                &om,
                &delay,
                InputModel::UniformDigits,
                FaultClass::StuckAt0,
                &cfg,
            )
        };
        let (batch, stats) = run(SimBackend::Auto);
        assert_eq!(stats.backend, "batch", "jitter is batch-exact");
        assert!(stats.batch_runs > 0);
        let (event, _) = run(SimBackend::Event);
        assert_eq!(batch, event, "backend choice must not leak into the report");
    }

    #[test]
    fn delay_push_on_rated_clock_is_mostly_harmless_online() {
        // A single slower gate rarely breaks the rated period of an online
        // multiplier — settling finishes well before the structural bound.
        let om = online_multiplier(5, 3);
        let cfg = quick_cfg();
        let rep = online(&om, FaultClass::DelayPush, &cfg).0;
        assert!(rep.error_rate <= 0.5, "delay pushes should be mostly absorbed");
    }
}
