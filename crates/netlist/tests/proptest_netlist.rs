//! Property-based tests of the netlist substrate: on randomly generated
//! DAG netlists, the event-driven simulator must settle to the functional
//! evaluation, never later than the static timing bound, and sampling must
//! be consistent with the recorded waveforms.
//!
//! The second block pins the batch (bit-parallel) engine to the
//! event-driven ground truth: on random netlists under uniform, per-gate-type
//! and jittered (per-gate) delay models, every lane's waveform, every
//! `Ts`-grid sample, and every per-lane fault scenario must be bit-identical
//! to a one-vector event-driven run; and the bus-only streaming pass must
//! report exactly what a full pass does.

#![allow(clippy::unwrap_used)]

use ola_netlist::batch::{
    BatchFaultSet, BatchInputs, BatchProgram, LaneBlock, LaneInputs, LaneWord,
};
use ola_netlist::{
    analyze, area, simulate, simulate_from_zero_with_faults, BatchError, CancelToken, DelayModel,
    FaultPlan, FpgaDelay, JitteredDelay, NetId, Netlist, UnitDelay,
};
use proptest::prelude::*;

/// A recipe for one random gate: (kind selector, input selectors).
type GateRecipe = (u8, u8, u8, u8);

fn build_random_netlist(inputs: usize, recipes: &[GateRecipe]) -> Netlist {
    let mut nl = Netlist::new();
    let mut nets: Vec<NetId> = (0..inputs).map(|i| nl.input(&format!("i{i}"))).collect();
    for &(kind, a, b, c) in recipes {
        let pick = |sel: u8, nets: &[NetId]| nets[sel as usize % nets.len()];
        let x = pick(a, &nets);
        let y = pick(b, &nets);
        let z = pick(c, &nets);
        let out = match kind % 8 {
            0 => nl.not(x),
            1 => nl.and(x, y),
            2 => nl.or(x, y),
            3 => nl.xor(x, y),
            4 => nl.nand(x, y),
            5 => nl.nor(x, y),
            6 => nl.xnor(x, y),
            _ => nl.mux(x, y, z),
        };
        nets.push(out);
    }
    let out_slice: Vec<NetId> = nets.iter().rev().take(4).copied().collect();
    nl.set_output("z", out_slice);
    nl
}

fn recipes() -> impl Strategy<Value = Vec<GateRecipe>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..60)
}

/// Deeper netlists where every other gate is an XOR or XNOR, whose
/// unequal fanin paths glitch: many waveforms take more than 8 word
/// steps, and single lanes flip several times on one net.
fn glitchy_recipes() -> impl Strategy<Value = Vec<GateRecipe>> {
    let gate = (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
        .prop_map(|(k, a, b, c)| (if k % 2 == 0 { 3 + 3 * (k / 2 % 2) } else { k / 2 }, a, b, c));
    prop::collection::vec(gate, 20..100)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simulation_settles_to_functional_eval(
        rs in recipes(),
        prev_bits in any::<u32>(),
        next_bits in any::<u32>(),
    ) {
        let inputs = 6;
        let nl = build_random_netlist(inputs, &rs);
        let prev: Vec<bool> = (0..inputs).map(|i| prev_bits >> i & 1 == 1).collect();
        let next: Vec<bool> = (0..inputs).map(|i| next_bits >> i & 1 == 1).collect();
        let res = simulate(&nl, &UnitDelay, &prev, &next);
        let want = nl.eval(&next);
        for net in nl.nets() {
            prop_assert_eq!(res.final_value(net), want[net.index()], "net {:?}", net);
        }
    }

    #[test]
    fn settling_never_exceeds_sta(
        rs in recipes(),
        prev_bits in any::<u32>(),
        next_bits in any::<u32>(),
        jitter in 0u64..40,
    ) {
        let inputs = 6;
        let nl = build_random_netlist(inputs, &rs);
        let delay = JitteredDelay::new(UnitDelay, jitter, 3);
        let rep = analyze(&nl, &delay);
        let prev: Vec<bool> = (0..inputs).map(|i| prev_bits >> i & 1 == 1).collect();
        let next: Vec<bool> = (0..inputs).map(|i| next_bits >> i & 1 == 1).collect();
        let res = simulate(&nl, &delay, &prev, &next);
        prop_assert!(res.settle_time() <= rep.critical_path());
    }

    /// Per-net (not just whole-netlist) soundness of the forward STA pass,
    /// across every delay-model family in the workspace: no net ever
    /// transitions after its statically computed worst-case arrival. This
    /// is the exact property the sweep fast path ([`StaGate`] in
    /// `ola-core`) relies on to skip certified `(bus, Ts)` points.
    #[test]
    fn per_net_sta_arrival_bounds_every_transition(
        rs in recipes(),
        prev_bits in any::<u32>(),
        next_bits in any::<u32>(),
        delay_sel in 0u8..6,
        jitter in 0u64..40,
    ) {
        let inputs = 6;
        let nl = build_random_netlist(inputs, &rs);
        let base = delay_model(delay_sel);
        let prev: Vec<bool> = (0..inputs).map(|i| prev_bits >> i & 1 == 1).collect();
        let next: Vec<bool> = (0..inputs).map(|i| next_bits >> i & 1 == 1).collect();
        // A random model and a jittered wrap of the unit model: both are
        // deterministic per-net functions, so STA covers both.
        let jittered = JitteredDelay::new(UnitDelay, jitter, delay_sel as u64 + 1);
        let models: [&dyn DelayModel; 2] = [base.as_ref(), &jittered];
        for delay in models {
            let rep = analyze(&nl, delay);
            let res = simulate(&nl, delay, &prev, &next);
            for net in nl.nets() {
                let last = res.waveform(net).last().map_or(0, |&(t, _)| t);
                prop_assert!(
                    last <= rep.arrival(net),
                    "net {:?} transitioned at {} after its STA arrival {}",
                    net, last, rep.arrival(net)
                );
            }
        }
    }

    #[test]
    fn sampling_after_settle_equals_final(
        rs in recipes(),
        next_bits in any::<u32>(),
        extra in 0u64..1000,
    ) {
        let inputs = 6;
        let nl = build_random_netlist(inputs, &rs);
        let prev = vec![false; inputs];
        let next: Vec<bool> = (0..inputs).map(|i| next_bits >> i & 1 == 1).collect();
        let res = simulate(&nl, &UnitDelay, &prev, &next);
        for &net in nl.output("z") {
            prop_assert_eq!(
                res.value_at(net, res.settle_time() + extra),
                res.final_value(net)
            );
            // Time zero shows the previous settled state.
            let before = nl.eval(&prev);
            if res.waveform(net).first().is_none_or(|&(t, _)| t > 0) {
                prop_assert_eq!(res.value_at(net, 0), before[net.index()]);
            }
        }
    }

    #[test]
    fn area_estimate_is_sane(rs in recipes()) {
        let nl = build_random_netlist(5, &rs);
        let rep = area::estimate(&nl, 4);
        prop_assert!(rep.luts <= rep.gates, "cover never exceeds gate count");
        // Bigger LUTs should not cost substantially more (greedy covering
        // admits small anomalies, so allow a little slack).
        let rep6 = area::estimate(&nl, 6);
        prop_assert!(rep6.luts <= rep.luts + 2);
    }

    #[test]
    fn constant_folding_preserves_function(rs in recipes(), bits in any::<u32>()) {
        // Building the same recipes against constant inputs must evaluate to
        // the same outputs as feeding those constants at runtime.
        let inputs = 6;
        let dynamic = build_random_netlist(inputs, &rs);
        let vals: Vec<bool> = (0..inputs).map(|i| bits >> i & 1 == 1).collect();
        let dyn_eval = dynamic.eval(&vals);

        let mut folded = Netlist::new();
        let nets: Vec<NetId> = vals.iter().map(|&v| folded.constant(v)).collect();
        let mut all = nets;
        for &(kind, a, b, c) in &rs {
            let pick = |sel: u8, nets: &[NetId]| nets[sel as usize % nets.len()];
            let x = pick(a, &all);
            let y = pick(b, &all);
            let z = pick(c, &all);
            let out = match kind % 8 {
                0 => folded.not(x),
                1 => folded.and(x, y),
                2 => folded.or(x, y),
                3 => folded.xor(x, y),
                4 => folded.nand(x, y),
                5 => folded.nor(x, y),
                6 => folded.xnor(x, y),
                _ => folded.mux(x, y, z),
            };
            all.push(out);
        }
        // Everything folded to constants: no logic gates remain.
        prop_assert_eq!(folded.logic_gate_count(), 0);
        let folded_vals = folded.eval(&[]);
        // Compare the final four outputs (same selection as the builder).
        let dyn_outs: Vec<bool> =
            dynamic.output("z").iter().map(|n| dyn_eval[n.index()]).collect();
        let fold_outs: Vec<bool> =
            all.iter().rev().take(4).map(|n| folded_vals[n.index()]).collect();
        prop_assert_eq!(dyn_outs, fold_outs);
    }
}

/// A randomly selected delay model: uniform, the FPGA table, two skewed
/// per-gate-type tables (including an all-ones corner), and two jittered
/// placements whose delays differ gate by gate — the second with an
/// amplitude above the inverter delay, so the clamp to 1 is exercised.
fn delay_model(sel: u8) -> Box<dyn DelayModel> {
    match sel % 6 {
        0 => Box::new(UnitDelay),
        1 => Box::new(FpgaDelay::default()),
        2 => Box::new(FpgaDelay { not: 7, two_input: 120, mux: 35 }),
        3 => Box::new(FpgaDelay { not: 1, two_input: 1, mux: 1 }),
        4 => Box::new(JitteredDelay::new(FpgaDelay::default(), 15, 2014)),
        _ => Box::new(JitteredDelay::new(FpgaDelay::default(), 40, 7)),
    }
}

fn unpack(bits: u32, shift: u32, width: usize) -> Vec<bool> {
    (0..width).map(|i| bits >> (shift + i as u32) & 1 == 1).collect()
}

/// `lanes` random input vectors of `width` bits drawn from `seed`.
fn random_vectors(lanes: usize, width: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut x = seed;
    (0..lanes)
        .map(|_| {
            (0..width)
                .map(|_| {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    x >> 63 == 1
                })
                .collect()
        })
        .collect()
}

/// Runs the bus-only pass at 1, 2 and 3 workers and a full pass at lane
/// word `B` and asserts they agree on everything the bus-only pass
/// reports; a cancelled token must stop the bus-only pass with a typed
/// error.
fn bus_pass_matches_full<B: LaneWord>(
    prog: &BatchProgram,
    prev_vecs: &[Vec<bool>],
    new_vecs: &[Vec<bool>],
    bus: &[NetId],
) -> Result<(), TestCaseError> {
    let prev = LaneInputs::<B>::pack(prev_vecs).unwrap();
    let new = LaneInputs::<B>::pack(new_vecs).unwrap();
    let full = prog.run(&prev, &new).unwrap();
    let want = full.bus_waves(bus).unwrap();
    for workers in 1..=3 {
        let streamed = prog.run_bus(&prev, &new, bus, None, workers).unwrap();
        prop_assert_eq!(streamed.bus(), &want, "{} workers", workers);
        prop_assert_eq!(streamed.settle_times(), full.settle_times());
        prop_assert_eq!(streamed.word_steps(), full.word_steps());
        prop_assert_eq!(streamed.lane_transitions(), full.lane_transitions());
    }
    let cancelled = CancelToken::new();
    cancelled.cancel();
    prop_assert_eq!(
        prog.run_bus(&prev, &new, bus, Some(&cancelled), 3).unwrap_err(),
        BatchError::Cancelled
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fault-free ground truth: every lane's per-net waveform (and settle
    /// time) out of one batch pass is the identical list the event-driven
    /// simulator records for that vector, and the pass's lane transitions
    /// are the total length of those lists.
    #[test]
    fn batch_lanes_match_event_waveforms(
        rs in glitchy_recipes(),
        lane_bits in prop::collection::vec(any::<u32>(), 1..=64),
        delay_sel in 0u8..6,
    ) {
        let inputs = 6;
        let nl = build_random_netlist(inputs, &rs);
        let delay = delay_model(delay_sel);
        let prog = BatchProgram::compile(&nl, delay.as_ref()).unwrap();
        let prev_vecs: Vec<Vec<bool>> =
            lane_bits.iter().map(|&b| unpack(b, 0, inputs)).collect();
        let new_vecs: Vec<Vec<bool>> =
            lane_bits.iter().map(|&b| unpack(b, 8, inputs)).collect();
        let prev = BatchInputs::pack(&prev_vecs).unwrap();
        let new = BatchInputs::pack(&new_vecs).unwrap();
        let res = prog.run(&prev, &new).unwrap();
        let mut listed = 0;
        for (lane, (p, q)) in prev_vecs.iter().zip(&new_vecs).enumerate() {
            let ev = simulate(&nl, delay.as_ref(), p, q);
            let l = lane as u32;
            for net in nl.nets() {
                let wave = res.lane_waveform(net, l);
                listed += wave.len() as u64;
                prop_assert_eq!(wave, ev.waveform(net).to_vec(), "net {:?} lane {}", net, lane);
                prop_assert_eq!(res.value_at(net, l, 0), ev.value_at(net, 0));
            }
            prop_assert_eq!(res.settle_time(l), ev.settle_time(), "lane {}", lane);
        }
        prop_assert_eq!(res.lane_transitions(), listed);
    }

    /// Multi-`Ts` sampling: the whole-grid sweep (ascending fast path and
    /// arbitrary-order fallback alike) returns exactly what the
    /// event-driven simulator's register capture answers per grid point.
    #[test]
    fn batch_ts_sweep_matches_event_sampling(
        rs in recipes(),
        lane_bits in prop::collection::vec(any::<u32>(), 1..=16),
        mut grid in prop::collection::vec(0u64..4_000, 1..12),
        ascending in any::<bool>(),
        delay_sel in 0u8..6,
    ) {
        let inputs = 6;
        let nl = build_random_netlist(inputs, &rs);
        let delay = delay_model(delay_sel);
        if ascending {
            grid.sort_unstable();
        }
        let prog = BatchProgram::compile(&nl, delay.as_ref()).unwrap();
        let zeros = vec![false; inputs];
        let new_vecs: Vec<Vec<bool>> =
            lane_bits.iter().map(|&b| unpack(b, 0, inputs)).collect();
        let prev = BatchInputs::zeros(inputs, new_vecs.len() as u32).unwrap();
        let new = BatchInputs::pack(&new_vecs).unwrap();
        let res = prog.run(&prev, &new).unwrap();
        let bus = res.bus_waves(nl.output("z")).unwrap();
        let sweep = bus.sweep(&grid);
        for (lane, q) in new_vecs.iter().enumerate() {
            let ev = simulate(&nl, delay.as_ref(), &zeros, q);
            for (ti, &t) in grid.iter().enumerate() {
                let want: Vec<bool> =
                    nl.output("z").iter().map(|&net| ev.value_at(net, t)).collect();
                prop_assert_eq!(
                    sweep.lane_bits(ti, lane as u32),
                    want,
                    "lane {} t {}", lane, t
                );
            }
        }
    }

    /// Per-lane fault divergence: each lane carries its own random fault
    /// plan (stuck-at / transient / delay push at random sites); sampled
    /// values must agree with a faulted event-driven run at every waveform
    /// step time and its neighbours. (Raw step lists may differ in
    /// representation at transient boundaries, so values are compared.)
    #[test]
    fn batch_faulted_lanes_match_event_sampled_values(
        rs in recipes(),
        lanes in prop::collection::vec(
            (
                any::<u32>(),
                prop::collection::vec((any::<u8>(), 0u8..4, 0u64..2_000, 0u64..400), 0..3),
            ),
            1..8,
        ),
        delay_sel in 0u8..6,
    ) {
        let inputs = 6;
        let nl = build_random_netlist(inputs, &rs);
        let delay = delay_model(delay_sel);
        let nets: Vec<NetId> = nl.nets().collect();
        let plans: Vec<FaultPlan> = lanes
            .iter()
            .map(|(_, specs)| {
                let mut plan = FaultPlan::new();
                for &(site_sel, kind, at, amount) in specs {
                    let site = nets[site_sel as usize % nets.len()];
                    plan = match kind % 4 {
                        0 => plan.stuck_at(site, false),
                        1 => plan.stuck_at(site, true),
                        2 => plan.transient(site, at, amount),
                        _ => plan.delay_push(site, amount),
                    };
                }
                plan
            })
            .collect();
        let new_vecs: Vec<Vec<bool>> =
            lanes.iter().map(|&(b, _)| unpack(b, 0, inputs)).collect();

        let prog = BatchProgram::compile(&nl, delay.as_ref()).unwrap();
        let prev = BatchInputs::zeros(inputs, new_vecs.len() as u32).unwrap();
        let new = BatchInputs::pack(&new_vecs).unwrap();
        let fs = BatchFaultSet::compile(&plans, nl.len()).unwrap();
        let res = prog.run_with_faults(&prev, &new, &fs).unwrap();

        for (lane, (q, plan)) in new_vecs.iter().zip(&plans).enumerate() {
            let ev = simulate_from_zero_with_faults(&nl, delay.as_ref(), q, plan).unwrap();
            let l = lane as u32;
            for net in nl.nets() {
                let mut ts: Vec<u64> = ev.waveform(net).iter().map(|&(t, _)| t).collect();
                ts.extend(res.lane_waveform(net, l).iter().map(|&(t, _)| t));
                ts.push(0);
                ts.push(ev.settle_time().max(res.settle_time(l)) + 1);
                for &t in &ts.clone() {
                    ts.push(t.saturating_sub(1));
                    ts.push(t + 1);
                }
                for t in ts {
                    prop_assert_eq!(
                        res.value_at(net, l, t),
                        ev.value_at(net, t),
                        "net {:?} lane {} t {}", net, lane, t
                    );
                }
            }
        }
    }

    /// A jittered model compiles like any other, to one deterministic
    /// program per placement, keyed by amplitude, seed and inner model.
    #[test]
    fn jittered_models_compile_one_program_per_placement(
        rs in recipes(),
        amp in 1u64..50,
        seed in any::<u64>(),
    ) {
        let nl = build_random_netlist(6, &rs);
        let delay = JitteredDelay::new(UnitDelay, amp, seed);
        let prog = BatchProgram::compile(&nl, &delay).unwrap();
        prop_assert_eq!(BatchProgram::compile(&nl, &delay).unwrap(), prog);
        prop_assert_eq!(delay.cache_key(), Some(format!("jitter/{amp}/{seed}/unit/100")));
        prop_assert_ne!(JitteredDelay::new(UnitDelay, amp, seed ^ 1).cache_key(), delay.cache_key());
        prop_assert_ne!(JitteredDelay::new(UnitDelay, amp + 1, seed).cache_key(), delay.cache_key());
    }

    /// The bus-only streaming pass reports for its bus exactly what a full
    /// pass does — waveforms, per-lane settle times, word steps and lane
    /// transitions — on random netlists and delay models, at 1..=64 lanes
    /// on `u64` words and 1..=256 on `LaneBlock<4>` blocks, for buses that
    /// mix an input, a constant, interior and fanout-free nets.
    #[test]
    fn bus_only_pass_matches_full_run(
        rs in recipes(),
        lanes in 1usize..=256,
        seed in any::<u64>(),
        picks in prop::collection::vec(any::<u16>(), 0..10),
        delay_sel in 0u8..6,
    ) {
        let inputs = 6;
        let mut nl = build_random_netlist(inputs, &rs);
        let one = nl.constant(true);
        let nets: Vec<NetId> = nl.nets().collect();
        let mut bus = vec![nl.inputs()[0], one];
        bus.extend_from_slice(nl.output("z"));
        bus.extend(picks.iter().map(|&p| nets[p as usize % nets.len()]));
        let prog = BatchProgram::compile(&nl, delay_model(delay_sel).as_ref()).unwrap();
        let prev_vecs = random_vectors(lanes, inputs, seed);
        let new_vecs = random_vectors(lanes, inputs, !seed);
        let narrow = lanes.min(64);
        bus_pass_matches_full::<u64>(&prog, &prev_vecs[..narrow], &new_vecs[..narrow], &bus)?;
        bus_pass_matches_full::<LaneBlock<4>>(&prog, &prev_vecs, &new_vecs, &bus)?;
    }
}
