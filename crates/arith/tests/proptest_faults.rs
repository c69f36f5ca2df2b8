//! Property-based tests for fault injection on synthesized netlists:
//! arbitrary [`FaultPlan`]s on real adder/multiplier circuits never panic
//! and always settle, and the empty plan is bit-identical to the
//! fault-free simulator.

use ola_arith::synth::{array_multiplier, online_adder};
use ola_netlist::{simulate, simulate_with_faults, FaultPlan, NetId, Netlist, SimError, UnitDelay};
use proptest::prelude::*;

/// One arbitrary fault, described net-index-free so the same description
/// can be applied to differently sized netlists.
#[derive(Clone, Debug)]
struct FaultSpec {
    /// Net selector, reduced modulo the netlist size.
    site: usize,
    /// 0/1 → stuck-at, 2 → transient, 3 → delay push.
    kind: u8,
    at: u64,
    duration: u64,
    push: u64,
}

fn fault_spec() -> impl Strategy<Value = FaultSpec> {
    (any::<usize>(), 0u8..4, 0u64..3000, 0u64..400, 0u64..300)
        .prop_map(|(site, kind, at, duration, push)| FaultSpec { site, kind, at, duration, push })
}

fn plan_for(netlist: &Netlist, specs: &[FaultSpec]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for s in specs {
        let net = NetId::from_index(s.site % netlist.len());
        plan = match s.kind {
            0 => plan.stuck_at(net, false),
            1 => plan.stuck_at(net, true),
            2 => plan.transient(net, s.at, s.duration),
            _ => plan.delay_push(net, s.push),
        };
    }
    plan
}

fn input_vector(netlist: &Netlist, bits: &[bool]) -> Vec<bool> {
    (0..netlist.inputs().len()).map(|i| bits[i % bits.len()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary plans on an online adder: the simulation returns `Ok`
    /// (acyclic netlists always settle) and never panics, whatever the
    /// fault mix.
    #[test]
    fn adder_with_arbitrary_faults_never_panics(
        n in 1usize..=5,
        specs in prop::collection::vec(fault_spec(), 0..6),
        bits in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let circuit = online_adder(n);
        let nl = &circuit.netlist;
        let plan = plan_for(nl, &specs);
        let inputs = input_vector(nl, &bits);
        let zeros = vec![false; inputs.len()];
        let res = simulate_with_faults(nl, &UnitDelay, &zeros, &inputs, &plan);
        prop_assert!(res.is_ok(), "acyclic netlist must settle: {res:?}");
    }

    /// The same property on a conventional array multiplier, whose carry
    /// chains re-converge — historically the glitchiest structure here.
    #[test]
    fn multiplier_with_arbitrary_faults_never_panics(
        w in 2usize..=4,
        specs in prop::collection::vec(fault_spec(), 0..6),
        bits in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let circuit = array_multiplier(w);
        let nl = &circuit.netlist;
        let plan = plan_for(nl, &specs);
        let inputs = input_vector(nl, &bits);
        let zeros = vec![false; inputs.len()];
        let res = simulate_with_faults(nl, &UnitDelay, &zeros, &inputs, &plan);
        prop_assert!(res.is_ok(), "acyclic netlist must settle: {res:?}");
    }

    /// A zero-fault plan is the identity: every waveform of every net is
    /// bit-identical to the fault-free simulator at every time step.
    #[test]
    fn empty_plan_is_bit_identical_to_fault_free(
        n in 1usize..=5,
        bits in prop::collection::vec(any::<bool>(), 1..8),
        prev_bits in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let circuit = online_adder(n);
        let nl = &circuit.netlist;
        let inputs = input_vector(nl, &bits);
        let prev = input_vector(nl, &prev_bits);
        let plain = simulate(nl, &UnitDelay, &prev, &inputs);
        let faulted =
            simulate_with_faults(nl, &UnitDelay, &prev, &inputs, &FaultPlan::new()).unwrap();
        prop_assert_eq!(plain, faulted);
    }

    /// Plans naming nets outside the netlist fail with a typed
    /// `InvalidFault` error instead of panicking.
    #[test]
    fn out_of_range_sites_are_typed_errors(extra in 1usize..1000) {
        let circuit = online_adder(2);
        let nl = &circuit.netlist;
        let bad = FaultPlan::new().stuck_at(NetId::from_index(nl.len() + extra), true);
        let inputs = vec![false; nl.inputs().len()];
        let res = simulate_with_faults(nl, &UnitDelay, &inputs, &inputs, &bad);
        prop_assert!(matches!(res, Err(SimError::InvalidFault(_))), "got {res:?}");
    }
}
