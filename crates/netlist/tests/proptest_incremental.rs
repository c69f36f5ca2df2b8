//! Property tests for the dirty-cone incremental resimulation path.
//!
//! `BatchProgram::run_incremental` promises bit-identity with a full
//! pass for *any* stimulus/fault delta against *any* base run. These
//! tests drive that promise over random netlists, random delay models
//! (jittered placements included), and random dirty sets (lane-sparse input flips,
//! added/removed fault plans, and the no-op delta), at both the legacy
//! 64-lane word and the multi-word 128-lane block.

#![allow(clippy::unwrap_used)]

use ola_netlist::batch::{
    BatchProgram, LaneBlock, LaneFaultSet, LaneInputs, LaneSimResult, LaneWord,
};
use ola_netlist::{
    BatchError, DelayModel, FaultPlan, FpgaDelay, JitteredDelay, NetId, Netlist, UnitDelay,
};
use proptest::prelude::*;

/// A recipe for one random gate: (kind selector, input selectors).
type GateRecipe = (u8, u8, u8, u8);

const INPUTS: usize = 6;

fn build_random_netlist(recipes: &[GateRecipe]) -> Netlist {
    let mut nl = Netlist::new();
    let mut nets: Vec<NetId> = (0..INPUTS).map(|i| nl.input(&format!("i{i}"))).collect();
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

/// Uniform, per-gate-type and jittered (per-gate) delay models.
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

fn unpack(bits: u32, shift: u32) -> Vec<bool> {
    (0..INPUTS).map(|i| bits >> (shift + i as u32) & 1 == 1).collect()
}

fn plan_from_specs(specs: &[(u8, u8, u64, u64)], nets: &[NetId]) -> FaultPlan {
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
}

/// Asserts two results agree on every lane waveform, sampled value, and
/// settle time of every net.
fn assert_bit_identical<B: LaneWord>(
    nl: &Netlist,
    lanes: u32,
    got: &LaneSimResult<B>,
    want: &LaneSimResult<B>,
) -> Result<(), TestCaseError> {
    for net in nl.nets() {
        for lane in 0..lanes {
            prop_assert_eq!(
                got.lane_waveform(net, lane),
                want.lane_waveform(net, lane),
                "net {:?} lane {}",
                net,
                lane
            );
        }
    }
    for lane in 0..lanes {
        prop_assert_eq!(got.settle_time(lane), want.settle_time(lane), "lane {}", lane);
    }
    Ok(())
}

/// One random base run and the stimulus and fault-set delta applied to
/// it.
struct Scenario<B: LaneWord> {
    nl: Netlist,
    prog: BatchProgram,
    lanes: u32,
    prev: LaneInputs<B>,
    base_new: LaneInputs<B>,
    new: LaneInputs<B>,
    base_faults: LaneFaultSet<B>,
    new_faults: LaneFaultSet<B>,
    base: LaneSimResult<B>,
}

fn scenario<B: LaneWord>(
    rs: &[GateRecipe],
    delay_sel: u8,
    base_lanes: &[(u32, u32)],
    flips: &[(u8, u32)],
    base_fault_specs: &[Vec<(u8, u8, u64, u64)>],
    new_fault_specs: &[Vec<(u8, u8, u64, u64)>],
) -> Scenario<B> {
    let nl = build_random_netlist(rs);
    let delay = delay_model(delay_sel);
    let prog = BatchProgram::compile(&nl, delay.as_ref()).unwrap();
    let nets: Vec<NetId> = nl.nets().collect();

    let prev_vecs: Vec<Vec<bool>> = base_lanes.iter().map(|&(p, _)| unpack(p, 0)).collect();
    let base_new_vecs: Vec<Vec<bool>> = base_lanes.iter().map(|&(_, q)| unpack(q, 0)).collect();
    // The delta: flip selected input bits on selected lanes of the new
    // stimulus, leaving the rest of the batch untouched (lane-sparse
    // dirt, the campaign/explorer access pattern).
    let mut new_vecs = base_new_vecs.clone();
    for &(lane_sel, bits) in flips {
        let lane = lane_sel as usize % new_vecs.len();
        for (i, v) in new_vecs[lane].iter_mut().enumerate() {
            *v ^= bits >> i & 1 == 1;
        }
    }

    let prev = LaneInputs::<B>::pack(&prev_vecs).unwrap();
    let base_new = LaneInputs::<B>::pack(&base_new_vecs).unwrap();
    let new = LaneInputs::<B>::pack(&new_vecs).unwrap();
    let base_plans: Vec<FaultPlan> =
        base_fault_specs.iter().map(|s| plan_from_specs(s, &nets)).collect();
    let new_plans: Vec<FaultPlan> =
        new_fault_specs.iter().map(|s| plan_from_specs(s, &nets)).collect();
    let base_faults = LaneFaultSet::<B>::compile(&base_plans, nl.len()).unwrap();
    let new_faults = LaneFaultSet::<B>::compile(&new_plans, nl.len()).unwrap();
    let base = prog.run_with_faults(&prev, &base_new, &base_faults).unwrap();
    Scenario {
        nl,
        prog,
        lanes: base_lanes.len() as u32,
        prev,
        base_new,
        new,
        base_faults,
        new_faults,
        base,
    }
}

/// One randomized incremental-vs-full trial at lane word `B`.
fn incremental_trial<B: LaneWord>(s: &Scenario<B>) -> Result<(), TestCaseError> {
    let Scenario { nl, prog, lanes, prev, base_new, new, base_faults, new_faults, base } = s;

    // Fault-set delta (and input delta) against a faulted base.
    let inc = prog.run_incremental(base, prev, new, Some(new_faults)).unwrap();
    let full = prog.run_with_faults(prev, new, new_faults).unwrap();
    assert_bit_identical(nl, *lanes, &inc, &full)?;

    // Dropping the fault set entirely is also just a delta.
    let inc_clean = prog.run_incremental(base, prev, new, None).unwrap();
    let full_clean = prog.run(prev, new).unwrap();
    assert_bit_identical(nl, *lanes, &inc_clean, &full_clean)?;

    // The no-op delta must reproduce the base run exactly.
    let noop = prog.run_incremental(base, prev, base_new, Some(base_faults)).unwrap();
    assert_bit_identical(nl, *lanes, &noop, base)?;

    // A stimulus of another lane count than the base is a typed error.
    let wider = LaneInputs::<B>::zeros(prog.num_inputs(), lanes + 1).unwrap();
    prop_assert_eq!(
        prog.run_incremental(base, &wider, &wider, None).unwrap_err(),
        BatchError::LaneMismatch { prev: *lanes, new: lanes + 1 }
    );
    Ok(())
}

fn fault_specs(max_plans: usize) -> impl Strategy<Value = Vec<Vec<(u8, u8, u64, u64)>>> {
    prop::collection::vec(
        prop::collection::vec((any::<u8>(), 0u8..4, 0u64..2_000, 0u64..400), 0..3),
        0..=max_plans,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental == full at the legacy 64-lane word, over random
    /// netlists, delay models, input deltas, and fault-set deltas.
    #[test]
    fn incremental_matches_full_u64(
        rs in recipes(),
        delay_sel in 0u8..6,
        base_lanes in prop::collection::vec((any::<u32>(), any::<u32>()), 1..=16),
        flips in prop::collection::vec((any::<u8>(), any::<u32>()), 0..6),
        base_faults in fault_specs(4),
        new_faults in fault_specs(4),
    ) {
        let s = scenario::<u64>(&rs, delay_sel, &base_lanes, &flips, &base_faults, &new_faults);
        incremental_trial(&s)?;
    }

    /// The same property at a two-word 128-lane block, with populations
    /// that cross the 64-lane word boundary so both words carry dirt.
    #[test]
    fn incremental_matches_full_multiword(
        rs in recipes(),
        delay_sel in 0u8..6,
        base_lanes in prop::collection::vec((any::<u32>(), any::<u32>()), 60..=80),
        flips in prop::collection::vec((any::<u8>(), any::<u32>()), 0..6),
        base_faults in fault_specs(3),
        new_faults in fault_specs(3),
    ) {
        let s = scenario::<LaneBlock<2>>(
            &rs, delay_sel, &base_lanes, &flips, &base_faults, &new_faults,
        );
        incremental_trial(&s)?;
    }
}
