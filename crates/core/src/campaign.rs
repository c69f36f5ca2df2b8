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
//! site's samples run through the same deterministic chunk seeding as every
//! other Monte-Carlo experiment in this crate
//! ([`parallel_accumulate`](crate::parallel)).
//!
//! Campaigns run on the bit-parallel engine, which evaluates up to 256
//! samples per pass — each lane carrying a *different* fault plan
//! ([`ola_netlist::batch::LaneFaultSet`]). [`CampaignConfig::backend`]
//! selects the event-driven reference oracle instead for tests and the
//! `repro` cross-check; it draws the identical random stream and folds
//! samples in the identical order, so the two engines produce
//! bit-identical [`CampaignReport`]s.

use crate::backend::{BackendStats, BatchLanes, SimBackend};
use crate::montecarlo::InputModel;
use crate::parallel::{parallel_accumulate, parallel_accumulate_batched, parallel_map};
use ola_arith::online::digits_value;
use ola_arith::synth::{ArrayMultiplierCircuit, OnlineMultiplierCircuit};
use ola_netlist::batch::{BatchProgram, LaneFaultSet, LaneInputs, LaneWord};
use ola_netlist::fault::logic_fault_sites;
use ola_netlist::{
    analyze, default_event_budget, simulate_from_zero, simulate_from_zero_with_faults, DelayModel,
    FaultPlan, NetId, Netlist,
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
    /// event-driven oracle ([`SimBackend::Event`]). Results are
    /// bit-identical across engines.
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
    /// Samples whose faulty simulation exhausted its event budget
    /// (excluded from the statistics above).
    pub unsettled: usize,
    /// Per-site breakdowns, in site order.
    pub site_reports: Vec<SiteReport>,
}

/// Per-site accumulator folded by [`parallel_accumulate`].
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
    unsettled: usize,
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
            unsettled: 0,
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
        a.unsettled += b.unsettled;
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

/// The per-sample recorder a fault-site loop folds observations through:
/// `(acc, clean_bits, faulty_main_bits, faulty_shadow_bits)`.
type RecordFn<'a> = dyn Fn(&mut Acc, &[bool], &[bool], &[bool]) + Sync + 'a;

/// One fault site's batch sampling loop.
///
/// Each group of up to [`BatchLanes`] samples takes two engine passes: a clean
/// full pass, then a faulty pass derived from it *incrementally* — the
/// inputs are identical, so [`BatchProgram::run_incremental`] recomputes
/// only the levelized fanout cone of each lane's fault site and shares the
/// clean waveforms everywhere else. The result is bit-identical to a full
/// faulty recompute (the engine's equivalence tests pin that down), so the
/// campaign report cannot depend on which path produced it.
#[allow(clippy::too_many_arguments)] // internal: mirrors run_campaign's captures
fn batch_site_accumulate<D>(
    prog: &BatchProgram,
    wires: &[NetId],
    t_main: u64,
    t_shadow: u64,
    n_ranks: usize,
    site_seed: u64,
    site: NetId,
    period: u64,
    class: FaultClass,
    cfg: &CampaignConfig,
    draw: &D,
    record: &RecordFn<'_>,
) -> Acc
where
    D: Fn(&mut ChaCha8Rng) -> Vec<bool> + Sync,
{
    parallel_accumulate_batched(
        cfg.samples_per_site,
        site_seed,
        BatchLanes::LANES as usize,
        || Acc::new(n_ranks),
        // Inputs before plan — the exact rng order of the event path.
        |rng| (draw(rng), class.plan(site, rng, period, cfg)),
        |group: &[(Vec<bool>, FaultPlan)], acc: &mut Acc| {
            crate::resilience::check_cancelled();
            let lanes = group.len() as u32;
            let vectors: Vec<Vec<bool>> = group.iter().map(|(v, _)| v.clone()).collect();
            let plans: Vec<FaultPlan> = group.iter().map(|(_, p)| p.clone()).collect();
            let prev = LaneInputs::<BatchLanes>::zeros(prog.num_inputs(), lanes)
                .expect("group size bounded by BatchLanes::LANES");
            let new = LaneInputs::<BatchLanes>::pack(&vectors).expect("draw produces full vectors");
            let clean = prog.run(&prev, &new).expect("shapes validated above");
            let faults = LaneFaultSet::<BatchLanes>::compile(&plans, prog.num_nets())
                .expect("plans target in-range nets");
            let faulty = prog
                .run_incremental(&clean, &prev, &new, Some(&faults))
                .expect("fault set compiled against this program");
            for lane in 0..lanes {
                // Batch programs are compiled from validated DAGs,
                // so no lane can oscillate: `unsettled` stays 0,
                // exactly as the event path finds on these netlists.
                record(
                    acc,
                    &clean.final_bus(wires, lane),
                    &faulty.sample_bus(wires, lane, t_main),
                    &faulty.sample_bus(wires, lane, t_shadow),
                );
            }
            acc.stats.backend = "batch";
            acc.stats.vectors += u64::from(lanes);
            acc.stats.ts_points += 2 * u64::from(lanes);
            acc.stats.batch_runs += 2;
            acc.stats.lanes_used += 2 * u64::from(lanes);
            acc.stats.lane_capacity = u64::from(BatchLanes::LANES);
            acc.stats.word_steps += clean.word_steps() + faulty.word_steps();
            acc.stats.lane_transitions += clean.lane_transitions() + faulty.lane_transitions();
        },
        Acc::merge,
    )
}

/// The generic campaign engine. `draw` encodes one random operand pair as
/// the simulator input vector; `value` decodes an output-bus bit vector to
/// a *normalized* numeric value (full scale = 1.0); `raw_scale` converts a
/// normalized error back to the architecture's native scale for
/// `worst_error_raw`; `rank_of` maps an output-wire position to its
/// significance rank (0 = MSB).
///
/// Samples run in groups of up to 256 ([`BatchLanes`]) on the batch
/// engine, or one at a time on the event-driven oracle when
/// [`CampaignConfig::backend`] selects it. A batch group takes one clean
/// pass, then one *incremental* pass carrying a different fault plan per
/// lane — the faulty pass shares every input with the clean pass, so only
/// each fault's fanout cone is recomputed
/// ([`BatchProgram::run_incremental`]). Both paths share the same random
/// stream (inputs drawn before the plan, sample for sample) and the same
/// per-sample judgement (`record`), folded in sample order — so the
/// reports are bit-identical.
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
    let t_main = period;
    let margin = ((period as f64) * cfg.shadow_margin_frac).round() as u64;
    let t_shadow = period + margin.max(1);
    let budget = default_event_budget(netlist);
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

    let prog = (cfg.backend != SimBackend::Event).then(|| {
        crate::memo::batch_program(netlist, delay).expect(
            "generator netlists are acyclic, and lint rejects cycles, \
             so every campaign netlist compiles to a batch program",
        )
    });
    let started = Instant::now();

    let per_site: Vec<Acc> = parallel_map(&sites, |site_idx, &site| {
        crate::resilience::check_cancelled();
        let site_seed = cfg.seed ^ (site_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match &prog {
            Some(prog) => batch_site_accumulate(
                prog, wires, t_main, t_shadow, n_ranks, site_seed, site, period, class, cfg, &draw,
                &record,
            ),
            None => parallel_accumulate(
                cfg.samples_per_site,
                site_seed,
                || Acc::new(n_ranks),
                |rng, acc| {
                    crate::resilience::check_cancelled();
                    let inputs = draw(rng);
                    let plan = class.plan(site, rng, period, cfg);
                    let clean = simulate_from_zero(netlist, delay, &inputs);
                    let correct_bits = clean.final_bus(wires);
                    acc.stats.backend = "event";
                    acc.stats.vectors += 1;
                    acc.stats.event_runs += 2;
                    let Ok(faulty) =
                        simulate_from_zero_with_faults(netlist, delay, &inputs, &plan, budget)
                    else {
                        acc.unsettled += 1;
                        return;
                    };
                    acc.stats.ts_points += 2;
                    record(
                        acc,
                        &correct_bits,
                        &faulty.sample_bus(wires, t_main),
                        &faulty.sample_bus(wires, t_shadow),
                    );
                },
                Acc::merge,
            ),
        }
    });

    let mut total = per_site.iter().fold(Acc::new(n_ranks), Acc::merge);
    total.stats.wall = started.elapsed();
    total.stats.publish();
    crate::obs::registry().counter("ola.campaign.unsettled").add(total.unsettled as u64);
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
        unsettled: total.unsettled,
        site_reports,
    };
    (report, total.stats)
}

/// Full-scale value of an online result bus: every digit at `+1`.
fn online_full_scale(digits: usize) -> f64 {
    digits_value(&vec![Digit::from_bits(true, false); digits]).to_f64()
}

/// Runs a single-fault campaign over a synthesized online (MSD-first)
/// multiplier.
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
pub fn online_fault_campaign<M: DelayModel + Sync>(
    circuit: &OnlineMultiplierCircuit,
    delay: &M,
    model: InputModel,
    class: FaultClass,
    cfg: &CampaignConfig,
) -> CampaignReport {
    online_fault_campaign_with_stats(circuit, delay, model, class, cfg).0
}

/// [`online_fault_campaign`] plus the backend's observability counters.
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
/// multiplier.
///
/// Errors are normalized by the representable product range `2^(2w−1)`, so
/// a corrupted sign bit is exactly full scale — the conventional encoding's
/// catastrophic failure mode.
///
/// # Panics
///
/// Panics if `cfg.samples_per_site` is zero.
#[must_use]
pub fn array_fault_campaign<M: DelayModel + Sync>(
    circuit: &ArrayMultiplierCircuit,
    delay: &M,
    class: FaultClass,
    cfg: &CampaignConfig,
) -> CampaignReport {
    array_fault_campaign_with_stats(circuit, delay, class, cfg).0
}

/// [`array_fault_campaign`] plus the backend's observability counters.
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
        let run = || {
            online_fault_campaign(
                &om,
                &UnitDelay,
                InputModel::UniformDigits,
                FaultClass::StuckAt1,
                &quick_cfg(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let om = online_multiplier(4, 3);
        let run = || {
            online_fault_campaign(
                &om,
                &UnitDelay,
                InputModel::UniformDigits,
                FaultClass::Transient,
                &quick_cfg(),
            )
        };
        let _env =
            crate::parallel::ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::set_var("OLA_THREADS", "1");
        let serial = run();
        std::env::set_var("OLA_THREADS", "4");
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
            let on = online_fault_campaign(&om, &UnitDelay, InputModel::UniformDigits, class, &cfg);
            let conv = array_fault_campaign(&am, &UnitDelay, class, &cfg);
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
        let rep = online_fault_campaign(
            &om,
            &UnitDelay,
            InputModel::UniformDigits,
            FaultClass::Transient,
            &cfg,
        );
        assert_eq!(rep.sites, rep.site_reports.len());
        assert!(rep.sites <= 10);
        assert_eq!(rep.rank_profile.len(), om.n + 3);
        assert!(rep.error_rate >= 0.0 && rep.error_rate <= 1.0);
        assert!(rep.detection_coverage >= 0.0 && rep.detection_coverage <= 1.0);
        assert!(rep.worst_error_raw >= rep.worst_error, "raw scale is larger");
        assert_eq!(rep.unsettled, 0, "multiplier netlists are acyclic");
    }

    #[test]
    fn exhaustive_sites_and_subsampling_agree_on_shape() {
        let om = online_multiplier(3, 3);
        let n_all = logic_fault_sites(&om.netlist).len();
        let cfg = CampaignConfig { max_sites: None, samples_per_site: 2, ..quick_cfg() };
        let rep = online_fault_campaign(
            &om,
            &UnitDelay,
            InputModel::UniformDigits,
            FaultClass::StuckAt0,
            &cfg,
        );
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
            let (ev, ev_stats) = online_fault_campaign_with_stats(
                &om,
                &UnitDelay,
                InputModel::UniformDigits,
                class,
                &cfg_ev,
            );
            let (ba, ba_stats) = online_fault_campaign_with_stats(
                &om,
                &UnitDelay,
                InputModel::UniformDigits,
                class,
                &cfg_ba,
            );
            assert_eq!(ev, ba, "online {class:?} reports must match");
            assert_eq!(ev_stats.backend, "event");
            assert_eq!(ba_stats.backend, "batch");
            assert_eq!(ev_stats.vectors, ba_stats.vectors);
            let ev = array_fault_campaign(&am, &UnitDelay, class, &cfg_ev);
            let ba = array_fault_campaign(&am, &UnitDelay, class, &cfg_ba);
            assert_eq!(ev, ba, "array {class:?} reports must match");
        }
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
        let rep = online_fault_campaign(
            &om,
            &UnitDelay,
            InputModel::UniformDigits,
            FaultClass::DelayPush,
            &cfg,
        );
        assert!(rep.error_rate <= 0.5, "delay pushes should be mostly absorbed");
    }
}
