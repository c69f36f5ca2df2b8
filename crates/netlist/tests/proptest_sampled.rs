//! Property tests for the sampled bus pass.
//!
//! `BatchProgram::run_bus_at` clips every net's waveform to the spans in
//! which it can still reach a sampled register, and promises the bus words
//! of a full pass at the sample times anyway. These tests hold it to the
//! full pass over random netlists, delay models (jittered placements
//! included), per-lane stuck, transient and delay-push plans (on inputs
//! and bus nets too) and one to four sample times, among them 0 and times
//! past settling, at the 64-lane word and the 256-lane block.
//!
//! `BatchProgram::settled_bus` evaluates the fault-free bus with no delays
//! at all, and promises the final bus words of a timed pass from any
//! previous input. Its tests hold it to `run(prev, new)` over the same
//! random netlists (with constants added) and delay models, from random
//! previous inputs.
//!
//! Each case draws from a stream seeded by the test's name and case index,
//! so every run replays the same cases.

#![allow(clippy::unwrap_used)]

use ola_netlist::batch::{BatchProgram, LaneBlock, LaneFaultSet, LaneInputs, LaneWord};
use ola_netlist::{
    BatchError, DelayModel, FaultPlan, FpgaDelay, JitteredDelay, NetId, Netlist, NetlistError,
    UnitDelay,
};
use proptest::prelude::*;

/// A recipe for one random gate: (kind selector, input selectors).
type GateRecipe = (u8, u8, u8, u8);

/// One fault of a lane's plan: (site selector, kind, at, amount).
type FaultSpec = (u8, u8, u64, u64);

const INPUTS: usize = 6;

/// Past the settling of any netlist these tests build.
const LATE: u64 = 1_000_000;

/// A random netlist over `INPUTS` inputs; with `consts`, its gates may also
/// read a constant 0 and a constant 1.
fn build_random_netlist(recipes: &[GateRecipe], consts: bool) -> Netlist {
    let mut nl = Netlist::new();
    let mut nets: Vec<NetId> = (0..INPUTS).map(|i| nl.input(&format!("i{i}"))).collect();
    if consts {
        nets.extend([nl.constant(false), nl.constant(true)]);
    }
    for &(kind, a, b, c) in recipes {
        let pick = |sel: u8| nets[sel as usize % nets.len()];
        let (x, y, z) = (pick(a), pick(b), pick(c));
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
    nl
}

/// Uniform, per-gate-type and jittered (per-gate) delay models.
fn delay_model(sel: u8) -> Box<dyn DelayModel> {
    match sel % 5 {
        0 => Box::new(UnitDelay),
        1 => Box::new(FpgaDelay::default()),
        2 => Box::new(FpgaDelay { not: 7, two_input: 120, mux: 35 }),
        3 => Box::new(FpgaDelay { not: 1, two_input: 1, mux: 1 }),
        _ => Box::new(JitteredDelay::new(FpgaDelay::default(), 40, 7)),
    }
}

/// One plan per lane. Sites are drawn from every net, then again from the
/// bus and the inputs, so plans on those nets are common.
fn plans(specs: &[Vec<FaultSpec>], nl: &Netlist, bus: &[NetId]) -> Vec<FaultPlan> {
    let mut sites: Vec<NetId> = nl.nets().collect();
    sites.extend_from_slice(bus);
    sites.extend_from_slice(nl.inputs());
    let plan = |spec: &Vec<FaultSpec>| {
        spec.iter().fold(FaultPlan::new(), |plan, &(site_sel, kind, at, amount)| {
            let site = sites[site_sel as usize % sites.len()];
            match kind % 4 {
                0 => plan.stuck_at(site, false),
                1 => plan.stuck_at(site, true),
                2 => plan.transient(site, at, amount),
                _ => plan.delay_push(site, amount),
            }
        })
    };
    specs.iter().map(plan).collect()
}

/// Sample times: a selector picks 0, a time past settling, or `t`.
/// Repeats are left in, so the duplicate-time error is exercised too.
fn sample_times(sel: &[(u8, u64)]) -> Vec<u64> {
    sel.iter()
        .map(|&(s, t)| match s % 6 {
            0 => 0,
            1 => LATE,
            _ => t,
        })
        .collect()
}

/// One trial at lane word `B`: with and without the fault set, the sampled
/// pass returns what a full pass's bus sweep returns, errors included.
fn sampled_trial<B: LaneWord>(
    rs: &[GateRecipe],
    delay_sel: u8,
    vectors: &[(u32, u32)],
    specs: &[Vec<FaultSpec>],
    bus_sel: &[u8],
    time_sel: &[(u8, u64)],
) -> Result<(), TestCaseError> {
    let nl = build_random_netlist(rs, false);
    let prog = BatchProgram::compile(&nl, delay_model(delay_sel).as_ref()).unwrap();
    let nets: Vec<NetId> = nl.nets().collect();
    let mut bus: Vec<NetId> = nets.iter().rev().take(4).copied().collect();
    bus.extend(bus_sel.iter().map(|&b| nets[b as usize % nets.len()]));
    let unpack = |bits: u32| (0..INPUTS).map(|i| bits >> i & 1 == 1).collect::<Vec<_>>();
    let prev = LaneInputs::<B>::pack(&vectors.iter().map(|&(p, _)| unpack(p)).collect::<Vec<_>>())
        .unwrap();
    let new = LaneInputs::<B>::pack(&vectors.iter().map(|&(_, q)| unpack(q)).collect::<Vec<_>>())
        .unwrap();
    let fs = LaneFaultSet::<B>::compile(&plans(specs, &nl, &bus), nl.len()).unwrap();
    let times = sample_times(time_sel);

    for faults in [Some(&fs), None] {
        let got = prog.run_bus_at(&prev, &new, faults, &bus, &times).map(|s| s.sweep().clone());
        let full = match faults {
            Some(fs) => prog.run_with_faults(&prev, &new, fs),
            None => prog.run(&prev, &new),
        };
        let want = full.unwrap().bus_waves(&bus).unwrap().try_sweep(&times);
        prop_assert_eq!(got, want, "faults {}, times {:?}", faults.is_some(), &times);
    }

    let outside = NetId::from_index(nl.len());
    prop_assert_eq!(
        prog.run_bus_at(&prev, &new, None, &[bus[0], outside], &times).unwrap_err(),
        BatchError::InvalidBus(NetlistError::NetOutOfRange { index: nl.len(), len: nl.len() })
    );
    let alien = LaneFaultSet::<B>::compile(&[], nl.len() + 1).unwrap();
    prop_assert!(matches!(
        prog.run_bus_at(&prev, &new, Some(&alien), &bus, &times).unwrap_err(),
        BatchError::InvalidFault(_)
    ));
    Ok(())
}

/// One trial at lane word `B`: the zero-delay evaluation equals the final
/// bus words of a timed pass from `prev`, and malformed calls fail typed.
fn settled_trial<B: LaneWord>(
    rs: &[GateRecipe],
    delay_sel: u8,
    vectors: &[(u32, u32)],
    bus_sel: &[u8],
) -> Result<(), TestCaseError> {
    let nl = build_random_netlist(rs, true);
    let prog = BatchProgram::compile(&nl, delay_model(delay_sel).as_ref()).unwrap();
    let nets: Vec<NetId> = nl.nets().collect();
    let mut bus: Vec<NetId> = nets.iter().rev().take(4).copied().collect();
    bus.extend(bus_sel.iter().map(|&b| nets[b as usize % nets.len()]));
    let pack = |width: usize, pick: fn(&(u32, u32)) -> u32| {
        let unpack = |bits: u32| (0..width).map(|i| bits >> i & 1 == 1).collect::<Vec<_>>();
        LaneInputs::<B>::pack(&vectors.iter().map(|v| unpack(pick(v))).collect::<Vec<_>>()).unwrap()
    };
    let prev = pack(INPUTS, |&(p, _)| p);
    let new = pack(INPUTS, |&(_, q)| q);

    let want = prog.run(&prev, &new).unwrap().bus_waves(&bus).unwrap().sample_words(u64::MAX);
    prop_assert_eq!(prog.settled_bus(&new, &bus).unwrap(), want);

    prop_assert_eq!(
        prog.settled_bus(&pack(INPUTS + 1, |&(_, q)| q), &bus).unwrap_err(),
        BatchError::InputArity { expected: INPUTS, got: INPUTS + 1 }
    );
    let outside = NetId::from_index(nl.len());
    prop_assert_eq!(
        prog.settled_bus(&new, &[bus[0], outside]).unwrap_err(),
        BatchError::InvalidBus(NetlistError::NetOutOfRange { index: nl.len(), len: nl.len() })
    );
    Ok(())
}

fn recipes() -> impl Strategy<Value = Vec<GateRecipe>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..60)
}

fn fault_specs(lanes: usize) -> impl Strategy<Value = Vec<Vec<FaultSpec>>> {
    prop::collection::vec(
        prop::collection::vec((any::<u8>(), 0u8..4, 0u64..2_000, 0u64..400), 0..3),
        0..=lanes,
    )
}

fn times() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((any::<u8>(), 0u64..3_000), 1..=4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sampled pass equals the full pass's sweep at the 64-lane word.
    #[test]
    fn sampled_bus_matches_full_sweep_u64(
        rs in recipes(),
        delay_sel in 0u8..5,
        vectors in prop::collection::vec((any::<u32>(), any::<u32>()), 1..=64),
        specs in fault_specs(64),
        bus_sel in prop::collection::vec(any::<u8>(), 0..4),
        time_sel in times(),
    ) {
        sampled_trial::<u64>(&rs, delay_sel, &vectors, &specs, &bus_sel, &time_sel)?;
    }

    /// The same property at the 256-lane block, with populations that
    /// reach past its first 64-lane word.
    #[test]
    fn sampled_bus_matches_full_sweep_wide(
        rs in recipes(),
        delay_sel in 0u8..5,
        vectors in prop::collection::vec((any::<u32>(), any::<u32>()), 60..=256),
        specs in fault_specs(256),
        bus_sel in prop::collection::vec(any::<u8>(), 0..4),
        time_sel in times(),
    ) {
        sampled_trial::<LaneBlock<4>>(&rs, delay_sel, &vectors, &specs, &bus_sel, &time_sel)?;
    }

    /// The zero-delay settled bus equals a timed pass's final words at the
    /// 64-lane word.
    #[test]
    fn settled_bus_matches_final_words_u64(
        rs in recipes(),
        delay_sel in 0u8..5,
        vectors in prop::collection::vec((any::<u32>(), any::<u32>()), 1..=64),
        bus_sel in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        settled_trial::<u64>(&rs, delay_sel, &vectors, &bus_sel)?;
    }

    /// The same property at the 256-lane block.
    #[test]
    fn settled_bus_matches_final_words_wide(
        rs in recipes(),
        delay_sel in 0u8..5,
        vectors in prop::collection::vec((any::<u32>(), any::<u32>()), 60..=256),
        bus_sel in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        settled_trial::<LaneBlock<4>>(&rs, delay_sel, &vectors, &bus_sel)?;
    }
}
