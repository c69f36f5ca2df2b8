//! Gate-level ("FPGA") overclocking curves.
//!
//! The counterpart of the paper's post-place-and-route results (Figure 4,
//! bottom row): instead of the stage-wave abstraction, run the synthesized
//! netlists through a timing simulator under a (jittered) delay model and
//! sample the output registers at a sweep of clock periods.
//!
//! Every curve runs through one sampling loop,
//! [`datapath_gate_level_curve_with`]: samples are drawn in fixed chunks
//! ([`parallel_accumulate_batched`]) and each group of up to 256 runs as
//! one pass on the selected engine. Production sweeps run the
//! bit-parallel batch engine (one pass per group, on the narrowest lane
//! word that holds it, [`ola_netlist::batch`]). A batch pass is the
//! bus-only streaming pass ([`BatchProgram::run_bus`]): it keeps only the
//! sampled output bus's waveforms and drops every other net's after its
//! last fanout, so its memory is the netlist's live frontier plus the
//! bus. Every delay model compiles to an exact batch program, jittered
//! placements ([`JitteredDelay`](ola_netlist::JitteredDelay)) included,
//! and the netlists swept here are acyclic, so compilation cannot fail.
//!
//! [`SimBackend::Event`] selects the event-driven simulator (one vector
//! per run) as the reference oracle; only tests select it (the
//! `ola-bench` oracle tests hold `repro`'s sweeps to it, and `repro`
//! itself runs the batch engine only). It simulates a group's samples
//! across the worker budget and folds them in sample order. An ambient [`crate::CancelToken`] (see
//! [`crate::resilience::install_ambient`]) is honored per group, per
//! event-simulated sample and inside the batch engine's settling loop.
//!
//! [`BatchProgram::run_bus`]: ola_netlist::batch::BatchProgram::run_bus

use crate::backend::{run_group, BackendStats, BatchLanes, Engine, GroupPass, SimBackend, StaGate};
use crate::montecarlo::InputModel;
use crate::parallel::{parallel_accumulate_batched, parallel_map, pass_workers};
use crate::resilience::{ambient_token, check_cancelled};
use ola_arith::online::digits_value;
use ola_arith::synth::{ArrayMultiplierCircuit, OnlineMultiplierCircuit};
use ola_netlist::batch::{LaneInputs, LaneWord};
use ola_netlist::{
    analyze, simulate_from_zero, CancelToken, Cancelled, DelayModel, NetId, Netlist,
};
use ola_redundant::Digit;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Mean error per sampled clock period for one synthesized operator.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct GateLevelCurve {
    /// The clock periods swept (time units).
    pub ts: Vec<u64>,
    /// Mean `|sampled − correct|` per period, on the operand value scale.
    pub mean_abs_error: Vec<f64>,
    /// Fraction of samples with any output error, per period.
    pub violation_rate: Vec<f64>,
    /// Structural critical path (rated period) from STA.
    pub critical_path: u64,
    /// Largest settling time observed across the samples.
    pub max_settle: u64,
    /// Sample count.
    pub samples: usize,
}

impl GateLevelCurve {
    /// `(ts, ts/critical_path, mean_error, violation_rate)` tuples.
    pub fn points(&self) -> impl Iterator<Item = (u64, f64, f64, f64)> + '_ {
        self.ts
            .iter()
            .zip(self.mean_abs_error.iter().zip(&self.violation_rate))
            .map(|(&t, (&e, &v))| (t, t as f64 / self.critical_path as f64, e, v))
    }
}

#[derive(Clone)]
struct Acc {
    err: Vec<f64>,
    viol: Vec<u64>,
    max_settle: u64,
    samples: usize,
    stats: BackendStats,
}

impl Acc {
    fn new(ts_len: usize) -> Acc {
        Acc {
            err: vec![0.0; ts_len],
            viol: vec![0; ts_len],
            max_settle: 0,
            samples: 0,
            stats: BackendStats::default(),
        }
    }

    /// Folds one `(sampled, settled)` judgement into slot `i`.
    fn record(&mut self, i: usize, violation: bool, abs_error: f64) {
        if violation {
            self.viol[i] += 1;
        }
        self.err[i] += abs_error;
    }
}

fn merge(mut a: Acc, b: &Acc) -> Acc {
    for i in 0..a.err.len() {
        a.err[i] += b.err[i];
        a.viol[i] += b.viol[i];
    }
    a.max_settle = a.max_settle.max(b.max_settle);
    a.samples += b.samples;
    a.stats.merge(&b.stats);
    a
}

/// One group of the sampling loop. On the batch engine it is a bus-only
/// pass over the group's drawn vectors (span `empirical.settle`), run on
/// [`pass_workers`] threads, then the sweep of the whole judged `Ts` grid,
/// decoded and judged lane by lane (`empirical.judge`). On the event
/// oracle each sample is simulated and judged on its own.
struct SweepPass<'a, M, J> {
    engine: Engine<'a, M>,
    wires: &'a [NetId],
    judged: &'a [(usize, u64)],
    active_ts: Vec<u64>,
    skipped: u64,
    cancel: Option<&'a CancelToken>,
    judge: &'a J,
}

impl<M, J> GroupPass for SweepPass<'_, M, J>
where
    M: DelayModel + Sync,
    J: Fn(&[bool], &[bool]) -> (bool, f64) + Sync,
{
    type Sample = Vec<bool>;
    type Acc = Acc;

    fn run<B: LaneWord>(&self, group: &[Vec<bool>], acc: &mut Acc) {
        let lanes = group.len() as u32;
        match &self.engine {
            Engine::Batch(prog) => {
                let prev = LaneInputs::<B>::zeros(prog.num_inputs(), lanes)
                    .expect("the group fits the lane word");
                let new = LaneInputs::<B>::pack(group).expect("draw produces full input vectors");
                let workers = pass_workers::<B>();
                let settle_span = crate::obs::span("empirical.settle");
                let res = prog
                    .run_bus(&prev, &new, self.wires, self.cancel, workers)
                    .unwrap_or_else(|e| {
                        if matches!(e, ola_netlist::BatchError::Cancelled) {
                            std::panic::panic_any(Cancelled)
                        }
                        panic!("shapes validated above, output bus nets exist: {e}")
                    });
                drop(settle_span);
                let _judge_span = crate::obs::span("empirical.judge");
                let bus = res.bus();
                let sweep = bus.sweep(&self.active_ts);
                for lane in 0..lanes {
                    acc.max_settle = acc.max_settle.max(res.settle_time(lane));
                    let settled = bus.settled_lane(lane);
                    for (si, &(i, _)) in self.judged.iter().enumerate() {
                        let (violation, abs_error) =
                            (self.judge)(&sweep.lane_bits(si, lane), &settled);
                        acc.record(i, violation, abs_error);
                    }
                }
                acc.stats.record_batch::<B>(1, lanes, res.word_steps(), res.lane_transitions());
            }
            Engine::Event { netlist, delay } => {
                let judged = parallel_map(group, |_, inputs| {
                    check_cancelled();
                    let res = simulate_from_zero(netlist, *delay, inputs);
                    let settled = res.final_bus(self.wires);
                    let verdicts: Vec<(bool, f64)> = self
                        .judged
                        .iter()
                        .map(|&(_, t)| (self.judge)(&res.sample_bus(self.wires, t), &settled))
                        .collect();
                    (res.settle_time(), verdicts)
                });
                for (settle, verdicts) in judged {
                    acc.max_settle = acc.max_settle.max(settle);
                    for (&(i, _), (violation, abs_error)) in self.judged.iter().zip(verdicts) {
                        acc.record(i, violation, abs_error);
                    }
                }
                acc.stats.backend = "event";
                acc.stats.event_runs += u64::from(lanes);
            }
        }
        acc.samples += group.len();
        acc.stats.vectors += u64::from(lanes);
        acc.stats.ts_points += u64::from(lanes) * self.judged.len() as u64;
        acc.stats.sta_skipped_points += u64::from(lanes) * self.skipped;
    }
}

/// Sweeps an *arbitrary* synthesized datapath at the given clock periods —
/// the sampling loop behind every gate-level curve, and its public entry
/// for compilers sitting on top of the operator generators (notably
/// `ola-synth`).
///
/// `wires` is the output bus to sample (typically every output-port net,
/// concatenated); `draw` produces one already-encoded primary-input vector
/// per sample, and `judge` compares a sampled output-bus bit pattern
/// against the settled one, returning `(any_violation, abs_error)`. The
/// judge works on *bit patterns* in the caller's native number system
/// (redundant digit values, exact `i64` products), never pre-flattened
/// `f64`s.
///
/// The batch engine compiles the netlist once (memoized by content digest,
/// see [`crate::memo`]) and runs groups of up to 256 vectors, each on the
/// narrowest lane word that holds it, sampling the whole `Ts` grid with
/// one sweep per pass; the event oracle ([`SimBackend::Event`]) simulates
/// one vector per run. Both engines fold the judgements of a group in
/// sample order, `Ts` inside sample, through the one sampling loop
/// ([`parallel_accumulate_batched`]).
///
/// With [`StaGate::On`], `Ts` points at or above the bus's worst-case STA
/// arrival are never judged: every sample at such a point is provably
/// settled, so the judge would return exactly `(false, 0.0)` (the judge
/// contract requires `judge(x, x) == (false, 0.0)`), and folding `+0.0`
/// into the non-negative accumulators is a bitwise no-op. The produced
/// curve is therefore bit-identical to [`StaGate::Off`] — the equivalence
/// proptests in `tests/proptest_core.rs` pin that down.
///
/// # Panics
///
/// Panics if `ts_points` or `samples` is empty/zero.
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors the engine's knobs one-for-one
pub fn datapath_gate_level_curve_with<M, D, J>(
    netlist: &Netlist,
    wires: &[NetId],
    delay: &M,
    ts_points: &[u64],
    samples: usize,
    seed: u64,
    backend: SimBackend,
    sta_gate: StaGate,
    draw: D,
    judge: J,
) -> (GateLevelCurve, BackendStats)
where
    M: DelayModel + Sync,
    D: Fn(&mut ChaCha8Rng) -> Vec<bool> + Sync,
    J: Fn(&[bool], &[bool]) -> (bool, f64) + Sync,
{
    assert!(!ts_points.is_empty() && samples > 0);
    let _span = crate::obs::span("empirical.curve");
    let report = {
        let _s = crate::obs::span("empirical.sta_analyze");
        analyze(netlist, delay)
    };
    let bus_arrival = report.arrival_of(wires);
    // `(slot, Ts)` pairs that still need dynamic judging; certified slots
    // keep their implicit (no violation, zero error) zeros.
    let judged: Vec<(usize, u64)> = ts_points
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, t)| !(sta_gate.is_on() && t >= bus_arrival))
        .collect();
    let engine = if backend == SimBackend::Event {
        Engine::Event { netlist, delay }
    } else {
        let _s = crate::obs::span("empirical.batch_compile");
        Engine::Batch(crate::memo::batch_program(netlist, delay))
    };
    // Captured once here and used by the sampling loop on worker threads:
    // in-run cancellation polls must not depend on each worker's own
    // thread-local stack being populated yet.
    let cancel = ambient_token();
    let pass = SweepPass {
        engine,
        wires,
        judged: &judged,
        active_ts: judged.iter().map(|&(_, t)| t).collect(),
        skipped: (ts_points.len() - judged.len()) as u64,
        cancel: cancel.as_ref(),
        judge: &judge,
    };
    let started = Instant::now();
    let _sample_span = crate::obs::span("empirical.sample");
    let mut acc = parallel_accumulate_batched(
        samples,
        seed,
        BatchLanes::LANES as usize,
        || Acc::new(ts_points.len()),
        |rng| draw(rng),
        |group: &[Vec<bool>], acc: &mut Acc| {
            check_cancelled();
            run_group(&pass, group, acc);
        },
        merge,
    );
    acc.stats.wall = started.elapsed();
    drop(_sample_span);
    acc.stats.publish();
    let critical_path = report.critical_path();
    let s = acc.samples as f64;
    let curve = GateLevelCurve {
        ts: ts_points.to_vec(),
        mean_abs_error: acc.err.iter().map(|&e| e / s).collect(),
        violation_rate: acc.viol.iter().map(|&v| v as f64 / s).collect(),
        critical_path,
        max_settle: acc.max_settle,
        samples: acc.samples,
    };
    (curve, acc.stats)
}

/// Sweeps a synthesized online multiplier at the given clock periods on a
/// chosen [`SimBackend`], returning the curve and the backend's
/// observability counters.
///
/// # Panics
///
/// Panics if `ts_points` or `samples` is empty/zero.
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors the engine's knobs one-for-one
pub fn om_gate_level_curve_with<M: DelayModel + Sync>(
    circuit: &OnlineMultiplierCircuit,
    delay: &M,
    model: InputModel,
    ts_points: &[u64],
    samples: usize,
    seed: u64,
    backend: SimBackend,
    sta_gate: StaGate,
) -> (GateLevelCurve, BackendStats) {
    let mut wires = circuit.netlist.output("zp").to_vec();
    let zp_len = wires.len();
    wires.extend_from_slice(circuit.netlist.output("zn"));
    let n = circuit.n;
    datapath_gate_level_curve_with(
        &circuit.netlist,
        &wires,
        delay,
        ts_points,
        samples,
        seed,
        backend,
        sta_gate,
        |rng| {
            let x = model.draw(rng, n);
            let y = model.draw(rng, n);
            circuit.encode_inputs(&x, &y)
        },
        |sampled, settled| {
            // Compare on the redundant-digit *value* scale: distinct digit
            // vectors can represent the same number, and the paper counts
            // those as correct.
            let v = digits_value(&decode(&sampled[..zp_len], &sampled[zp_len..]));
            let correct = digits_value(&decode(&settled[..zp_len], &settled[zp_len..]));
            (v != correct, (v - correct).abs().to_f64())
        },
    )
}

/// Sweeps a synthesized online multiplier at the given clock periods.
///
/// Equivalent to [`om_gate_level_curve_with`] on the batch engine,
/// discarding the stats.
///
/// # Panics
///
/// Panics if `ts_points` or `samples` is empty/zero.
#[must_use]
pub fn om_gate_level_curve<M: DelayModel + Sync>(
    circuit: &OnlineMultiplierCircuit,
    delay: &M,
    model: InputModel,
    ts_points: &[u64],
    samples: usize,
    seed: u64,
) -> GateLevelCurve {
    om_gate_level_curve_with(
        circuit,
        delay,
        model,
        ts_points,
        samples,
        seed,
        SimBackend::Auto,
        StaGate::On,
    )
    .0
}

/// Sweeps a synthesized two's-complement array multiplier at the given
/// clock periods on a chosen [`SimBackend`], returning the curve and the
/// backend's observability counters. Operands are drawn uniformly over the
/// full raw range; errors are reported on the fraction scale
/// (`raw / 2^(width−1)` operands, products in `(−1, 1)`).
///
/// # Panics
///
/// Panics if `ts_points` or `samples` is empty/zero.
#[must_use]
pub fn array_gate_level_curve_with<M: DelayModel + Sync>(
    circuit: &ArrayMultiplierCircuit,
    delay: &M,
    ts_points: &[u64],
    samples: usize,
    seed: u64,
    backend: SimBackend,
    sta_gate: StaGate,
) -> (GateLevelCurve, BackendStats) {
    let wires = circuit.netlist.output("product").to_vec();
    let w = circuit.width;
    let lim = 1i64 << (w - 1);
    let scale = ((2 * (w - 1)) as f64).exp2();
    datapath_gate_level_curve_with(
        &circuit.netlist,
        &wires,
        delay,
        ts_points,
        samples,
        seed,
        backend,
        sta_gate,
        |rng| {
            let a = rng.gen_range(-lim..lim);
            let b = rng.gen_range(-lim..lim);
            circuit.encode_inputs(a, b)
        },
        |sampled, settled| {
            // Exact i64 comparison before any float: 2(w−1)-bit products
            // exceed f64's integer range at w = 32.
            let v = circuit.decode_product(sampled);
            let correct = circuit.decode_product(settled);
            (v != correct, (v - correct).abs() as f64 / scale)
        },
    )
}

/// Sweeps a synthesized two's-complement array multiplier at the given
/// clock periods.
///
/// Equivalent to [`array_gate_level_curve_with`] on the batch engine,
/// discarding the stats.
///
/// # Panics
///
/// Panics if `ts_points` or `samples` is empty/zero.
#[must_use]
pub fn array_gate_level_curve<M: DelayModel + Sync>(
    circuit: &ArrayMultiplierCircuit,
    delay: &M,
    ts_points: &[u64],
    samples: usize,
    seed: u64,
) -> GateLevelCurve {
    array_gate_level_curve_with(
        circuit,
        delay,
        ts_points,
        samples,
        seed,
        SimBackend::Auto,
        StaGate::On,
    )
    .0
}

fn decode(zp: &[bool], zn: &[bool]) -> Vec<Digit> {
    zp.iter().zip(zn).map(|(&p, &n)| Digit::from_bits(p, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_arith::synth::{array_multiplier, online_multiplier};
    use ola_netlist::{FpgaDelay, JitteredDelay, UnitDelay};

    #[test]
    fn om_curve_settles_at_critical_path() {
        let circuit = online_multiplier(6, 3);
        let rep = analyze(&circuit.netlist, &UnitDelay);
        let ts = vec![rep.critical_path() / 4, rep.critical_path() / 2, rep.critical_path()];
        let curve =
            om_gate_level_curve(&circuit, &UnitDelay, InputModel::UniformDigits, &ts, 40, 1);
        assert_eq!(*curve.mean_abs_error.last().unwrap(), 0.0);
        assert_eq!(*curve.violation_rate.last().unwrap(), 0.0);
        assert!(curve.mean_abs_error[0] > 0.0, "hard undersampling must err");
        assert!(curve.max_settle <= rep.critical_path());
    }

    #[test]
    fn om_actual_settling_beats_structural_bound() {
        // The headroom claim at gate level: observed settling is well below
        // the structural critical path for wide operands.
        let circuit = online_multiplier(12, 3);
        let rep = analyze(&circuit.netlist, &UnitDelay);
        let curve = om_gate_level_curve(
            &circuit,
            &UnitDelay,
            InputModel::UniformDigits,
            &[rep.critical_path()],
            60,
            2,
        );
        assert!(
            (curve.max_settle as f64) < 0.9 * rep.critical_path() as f64,
            "settle {} vs critical {}",
            curve.max_settle,
            rep.critical_path()
        );
    }

    #[test]
    fn array_curve_behaves() {
        let circuit = array_multiplier(6);
        let rep = analyze(&circuit.netlist, &UnitDelay);
        let ts = vec![rep.critical_path() / 3, rep.critical_path()];
        let curve = array_gate_level_curve(&circuit, &UnitDelay, &ts, 60, 3);
        assert_eq!(*curve.mean_abs_error.last().unwrap(), 0.0);
        assert!(curve.mean_abs_error[0] > 0.0);
    }

    #[test]
    fn online_errors_smaller_than_traditional_at_matched_underclock() {
        // The paper's core comparison at operator level: sample both
        // multipliers at 70% of their own rated period; online errors are
        // orders of magnitude smaller.
        let om = online_multiplier(8, 3);
        let am = array_multiplier(9); // equal range: N+1 bits traditional
        let delay = JitteredDelay::new(UnitDelay, 20, 99);
        let om_rated = analyze(&om.netlist, &delay).critical_path();
        let am_rated = analyze(&am.netlist, &delay).critical_path();
        let om_curve =
            om_gate_level_curve(&om, &delay, InputModel::UniformValue, &[om_rated * 7 / 10], 80, 4);
        let am_curve = array_gate_level_curve(&am, &delay, &[am_rated * 7 / 10], 80, 4);
        let e_om = om_curve.mean_abs_error[0];
        let e_am = am_curve.mean_abs_error[0];
        assert!(
            e_om < e_am / 5.0 || (e_om == 0.0 && e_am > 0.0),
            "online {e_om} vs traditional {e_am}"
        );
    }

    #[test]
    fn jitter_changes_the_curve_but_not_correctness() {
        let circuit = online_multiplier(6, 3);
        let delay = JitteredDelay::new(UnitDelay, 30, 7);
        let rep = analyze(&circuit.netlist, &delay);
        let curve = om_gate_level_curve(
            &circuit,
            &delay,
            InputModel::UniformDigits,
            &[rep.critical_path()],
            30,
            5,
        );
        assert_eq!(*curve.mean_abs_error.last().unwrap(), 0.0);
    }

    #[test]
    fn om_batch_and_event_curves_are_bit_identical() {
        let circuit = online_multiplier(6, 3);
        for delay in [FpgaDelay::default(), FpgaDelay { not: 10, two_input: 70, mux: 90 }] {
            let rep = analyze(&circuit.netlist, &delay);
            let ts: Vec<u64> = (1..=5).map(|k| rep.critical_path() * k / 5).collect();
            let (ev, ev_stats) = om_gate_level_curve_with(
                &circuit,
                &delay,
                InputModel::UniformDigits,
                &ts,
                100,
                9,
                SimBackend::Event,
                StaGate::Off,
            );
            let (ba, ba_stats) = om_gate_level_curve_with(
                &circuit,
                &delay,
                InputModel::UniformDigits,
                &ts,
                100,
                9,
                SimBackend::Batch,
                StaGate::Off,
            );
            assert_eq!(ev, ba, "curves must be bit-identical");
            assert_eq!(ev_stats.backend, "event");
            assert_eq!(ba_stats.backend, "batch");
            assert_eq!(ba_stats.lane_capacity, 256);
            assert_eq!(ba_stats.batch_runs, 1, "100 samples fit one pass");
            assert_eq!(ba_stats.vectors, 100);
            assert_eq!(ev_stats.ts_points, 500);
            assert_eq!(ba_stats.ts_points, 500);
        }
    }

    #[test]
    fn sta_gate_skips_certified_points_bit_identically() {
        let circuit = online_multiplier(6, 3);
        let rep = analyze(&circuit.netlist, &UnitDelay);
        // Two certified points (≥ critical path) and two at-risk points.
        let cp = rep.critical_path();
        let ts = vec![cp / 2, cp * 3 / 4, cp, cp + 50];
        for backend in [SimBackend::Event, SimBackend::Batch] {
            let (gated, gated_stats) = om_gate_level_curve_with(
                &circuit,
                &UnitDelay,
                InputModel::UniformDigits,
                &ts,
                70,
                12,
                backend,
                StaGate::On,
            );
            let (full, full_stats) = om_gate_level_curve_with(
                &circuit,
                &UnitDelay,
                InputModel::UniformDigits,
                &ts,
                70,
                12,
                backend,
                StaGate::Off,
            );
            assert_eq!(gated, full, "fast path must be bit-identical ({backend})");
            assert_eq!(gated_stats.sta_skipped_points, 2 * 70, "2 certified Ts × 70 samples");
            assert_eq!(full_stats.sta_skipped_points, 0);
            assert_eq!(
                gated_stats.ts_points + gated_stats.sta_skipped_points,
                full_stats.ts_points,
                "skipped + judged covers the whole grid"
            );
            assert_eq!(*gated.mean_abs_error.last().unwrap(), 0.0);
            assert_eq!(*gated.violation_rate.last().unwrap(), 0.0);
        }
    }

    #[test]
    fn array_batch_and_event_curves_are_bit_identical() {
        let circuit = array_multiplier(7);
        let rep = analyze(&circuit.netlist, &UnitDelay);
        let ts = vec![rep.critical_path() / 3, rep.critical_path() * 7 / 10, rep.critical_path()];
        let (ev, _) = array_gate_level_curve_with(
            &circuit,
            &UnitDelay,
            &ts,
            90,
            11,
            SimBackend::Event,
            StaGate::On,
        );
        let (ba, stats) = array_gate_level_curve_with(
            &circuit,
            &UnitDelay,
            &ts,
            90,
            11,
            SimBackend::Batch,
            StaGate::On,
        );
        assert_eq!(ev, ba);
        assert_eq!(stats.lanes_used, 90, "every sample occupies one lane");
        assert_eq!(stats.batch_runs, 1);
        assert!((stats.lane_utilization() - 90.0 / 256.0).abs() < 1e-12);
    }

    /// Regression guard for tail-lane handling: 65 samples fill the first
    /// 64-bit word of the 256-lane block plus one lane of the second, so
    /// the pass carries unused high lanes in a partly used word and two
    /// empty words. Those lanes hold engine-internal values that must be
    /// masked out of every reduction (violation counts, error sums, settle
    /// times) — any leak breaks bit-identity with the event path.
    #[test]
    fn tail_lanes_stay_out_of_reductions_at_population_65() {
        let circuit = online_multiplier(6, 3);
        let rep = analyze(&circuit.netlist, &UnitDelay);
        let cp = rep.critical_path();
        let ts: Vec<u64> = vec![cp / 3, cp / 2, cp * 3 / 4, cp];
        let (ev, ev_stats) = om_gate_level_curve_with(
            &circuit,
            &UnitDelay,
            InputModel::UniformDigits,
            &ts,
            65,
            21,
            SimBackend::Event,
            StaGate::Off,
        );
        let (ba, ba_stats) = om_gate_level_curve_with(
            &circuit,
            &UnitDelay,
            InputModel::UniformDigits,
            &ts,
            65,
            21,
            SimBackend::Batch,
            StaGate::Off,
        );
        assert_eq!(ev, ba, "tail lanes leaked into a reduction");
        assert_eq!(ev_stats.vectors, 65);
        assert_eq!(ba_stats.vectors, 65, "exactly the requested population, no phantom lanes");
        assert_eq!(ba_stats.lanes_used, 65);
        assert_eq!(ba_stats.batch_runs, 1);
    }

    /// Every lane word a group can run on — `u64` (12, 64), 256 lanes
    /// (65, 129), and a 256 + 44 split across two words (300) — holds
    /// batch to the event oracle bit for bit.
    #[test]
    fn batch_matches_event_at_every_lane_width() {
        let circuit = online_multiplier(4, 3);
        let cp = analyze(&circuit.netlist, &UnitDelay).critical_path();
        let ts: Vec<u64> = vec![cp / 4, cp / 2, cp * 3 / 4, cp];
        for (samples, capacity, slots) in
            [(12, 64, 64), (64, 64, 64), (65, 256, 256), (129, 256, 256), (300, 256, 320)]
        {
            let run = |backend| {
                om_gate_level_curve_with(
                    &circuit,
                    &UnitDelay,
                    InputModel::UniformDigits,
                    &ts,
                    samples,
                    17,
                    backend,
                    StaGate::Off,
                )
            };
            let (ev, _) = run(SimBackend::Event);
            let (ba, stats) = run(SimBackend::Batch);
            assert_eq!(ev, ba, "{samples} samples");
            assert_eq!(stats.lane_capacity, capacity, "{samples} samples");
            assert_eq!(stats.lanes_used, samples as u64);
            assert_eq!(stats.lane_slots, slots, "{samples} samples");
        }
    }

    #[test]
    fn jittered_sweeps_run_on_batch_bit_identically() {
        let circuit = online_multiplier(5, 3);
        let delay = JitteredDelay::new(UnitDelay, 25, 13);
        let cp = analyze(&circuit.netlist, &delay).critical_path();
        let ts = vec![cp / 3, cp * 2 / 3, cp];
        let run = |backend| {
            om_gate_level_curve_with(
                &circuit,
                &delay,
                InputModel::UniformDigits,
                &ts,
                20,
                6,
                backend,
                StaGate::Off,
            )
        };
        let (batch, stats) = run(SimBackend::Batch);
        assert_eq!(stats.backend, "batch", "jitter is batch-exact");
        assert_eq!(stats.batch_runs, 1);
        let (auto, auto_stats) = run(SimBackend::Auto);
        assert_eq!(auto_stats.backend, "batch");
        let (event, _) = run(SimBackend::Event);
        assert_eq!(batch, event, "curves must be bit-identical");
        assert_eq!(auto, event);
    }

    #[test]
    fn auto_backend_picks_batch_for_deterministic_delays() {
        let circuit = online_multiplier(5, 3);
        let ts = vec![analyze(&circuit.netlist, &UnitDelay).critical_path() / 2];
        let (_, stats) = om_gate_level_curve_with(
            &circuit,
            &UnitDelay,
            InputModel::UniformDigits,
            &ts,
            30,
            8,
            SimBackend::Auto,
            StaGate::On,
        );
        assert_eq!(stats.backend, "batch");
        assert!(stats.word_steps > 0);
        assert!(stats.lane_transitions >= stats.word_steps);
    }
}
