//! Event-driven timing simulation with overclocked sampling.
//!
//! This is the workspace's substitute for post-place-and-route FPGA timing
//! simulation. Given the input vector of the *previous* clock cycle and the
//! new input vector applied at `t = 0`, the simulator propagates changes
//! through the netlist under a [`DelayModel`] (transport-delay semantics)
//! and records the full settling waveform of every net.
//! [`SimResult::value_at`] then answers the overclocking question: *what
//! would a register clocked with period `Ts` capture?*

use crate::fault::{FaultOverlay, FaultPlan};
use crate::netlist::eval_gate;
use crate::{DelayModel, GateKind, NetId, Netlist, NetlistError, SimError};

/// The settling history of one simulation run.
///
/// `PartialEq`/`Eq` compare the full recorded waveforms, so two results are
/// equal only if the simulations were *bit-identical at every time step* —
/// the property the fault-injection equivalence tests rely on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    initial: Vec<bool>,
    waveforms: Vec<Vec<(u64, bool)>>,
    settle_time: u64,
    events: usize,
}

impl SimResult {
    /// The value of `net` at time `t` — what a register clocked `t` time
    /// units after the inputs switched would capture.
    #[must_use]
    pub fn value_at(&self, net: NetId, t: u64) -> bool {
        let wf = &self.waveforms[net.index()];
        match wf.partition_point(|&(time, _)| time <= t) {
            0 => self.initial[net.index()],
            k => wf[k - 1].1,
        }
    }

    /// Like [`SimResult::value_at`], but validates the net reference (for
    /// sampling paths driven by external/untrusted net indices).
    ///
    /// # Errors
    ///
    /// [`NetlistError::NetOutOfRange`] if `net` is not a net of the
    /// simulated netlist.
    pub fn try_value_at(&self, net: NetId, t: u64) -> Result<bool, NetlistError> {
        if net.index() >= self.waveforms.len() {
            return Err(NetlistError::NetOutOfRange {
                index: net.index(),
                len: self.waveforms.len(),
            });
        }
        Ok(self.value_at(net, t))
    }

    /// Like [`SimResult::sample_bus`], but validates every net reference.
    ///
    /// # Errors
    ///
    /// [`NetlistError::NetOutOfRange`] naming the first invalid net.
    pub fn try_sample_bus(&self, nets: &[NetId], t: u64) -> Result<Vec<bool>, NetlistError> {
        nets.iter().map(|&n| self.try_value_at(n, t)).collect()
    }

    /// The fully settled (correct) value of `net`.
    #[must_use]
    pub fn final_value(&self, net: NetId) -> bool {
        match self.waveforms[net.index()].last() {
            Some(&(_, v)) => v,
            None => self.initial[net.index()],
        }
    }

    /// Samples a bus at time `t`.
    #[must_use]
    pub fn sample_bus(&self, nets: &[NetId], t: u64) -> Vec<bool> {
        nets.iter().map(|&n| self.value_at(n, t)).collect()
    }

    /// Samples the settled values of a bus.
    #[must_use]
    pub fn final_bus(&self, nets: &[NetId]) -> Vec<bool> {
        nets.iter().map(|&n| self.final_value(n)).collect()
    }

    /// Time of the last transition anywhere in the netlist. Sampling at or
    /// after this time is guaranteed error-free *for this input pair*.
    #[must_use]
    pub fn settle_time(&self) -> u64 {
        self.settle_time
    }

    /// Time of the last transition on any of `nets` (settling time of an
    /// output bus).
    #[must_use]
    pub fn settle_time_of(&self, nets: &[NetId]) -> u64 {
        nets.iter()
            .filter_map(|&n| self.waveforms[n.index()].last().map(|&(t, _)| t))
            .max()
            .unwrap_or(0)
    }

    /// Number of applied transitions (simulator work; useful for benches).
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.events
    }

    /// The transition history `(time, new_value)` of one net.
    #[must_use]
    pub fn waveform(&self, net: NetId) -> &[(u64, bool)] {
        &self.waveforms[net.index()]
    }

    /// The value of `net` before the inputs switched.
    #[must_use]
    pub fn initial_value(&self, net: NetId) -> bool {
        self.initial[net.index()]
    }

    /// Extracts a compact, re-sampleable copy of one bus's waveforms.
    #[must_use]
    pub fn bus_waveforms(&self, nets: &[NetId]) -> BusWaveforms {
        BusWaveforms {
            initial: nets.iter().map(|&n| self.initial_value(n)).collect(),
            waveforms: nets.iter().map(|&n| self.waveform(n).to_vec()).collect(),
        }
    }
}

/// The settling history of one output bus, detached from its simulation —
/// small enough to memoize, sampleable at any time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BusWaveforms {
    initial: Vec<bool>,
    waveforms: Vec<Vec<(u64, bool)>>,
}

impl BusWaveforms {
    /// Number of nets in the bus.
    #[must_use]
    pub fn len(&self) -> usize {
        self.initial.len()
    }

    /// True if the bus is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.initial.is_empty()
    }

    /// The bus values a register clocked at period `t` would capture.
    #[must_use]
    pub fn sample(&self, t: u64) -> Vec<bool> {
        (0..self.len())
            .map(|i| {
                let wf = &self.waveforms[i];
                match wf.partition_point(|&(time, _)| time <= t) {
                    0 => self.initial[i],
                    k => wf[k - 1].1,
                }
            })
            .collect()
    }

    /// The settled bus values.
    #[must_use]
    pub fn settled(&self) -> Vec<bool> {
        (0..self.len())
            .map(|i| self.waveforms[i].last().map_or(self.initial[i], |&(_, v)| v))
            .collect()
    }
}

/// A generous event budget for well-formed (acyclic) netlists: large
/// enough that no legitimate settling run comes anywhere near it, small
/// enough to stop a combinational cycle in bounded time.
///
/// Glitch activity under de-aligned (jittered) path delays grows
/// *superlinearly* with netlist depth — a few-thousand-gate multiplier
/// under 30% jitter legitimately processes thousands of events per net —
/// so the budget is quadratic in netlist size with a constant floor for
/// tiny circuits.
#[must_use]
pub fn default_event_budget(netlist: &Netlist) -> usize {
    let n = netlist.len();
    n.saturating_mul(n).saturating_mul(16).saturating_add(1 << 20)
}

/// Functional (zero-delay) evaluation under a fault overlay: returns
/// `(raw, observed)` values for every net, where `raw` is what each driver
/// computes from the *observed* (possibly faulted) values of its fanin and
/// `observed` applies the net's own permanent faults. Transients are not
/// active before `t = 0`.
fn eval_with_overlay(
    netlist: &Netlist,
    inputs: &[bool],
    overlay: &FaultOverlay,
) -> (Vec<bool>, Vec<bool>) {
    let n = netlist.len();
    let mut raw = vec![false; n];
    let mut observed = vec![false; n];
    let mut next_input = 0;
    for (i, g) in netlist.gate_nodes().iter().enumerate() {
        let r = match g.kind {
            GateKind::Input => {
                let v = inputs[next_input];
                next_input += 1;
                v
            }
            GateKind::Const => g.const_value,
            _ => eval_gate(g.kind, g.input_slice(), &observed),
        };
        raw[i] = r;
        observed[i] = overlay.observe(i, None, r);
    }
    (raw, observed)
}

/// The shared event-driven core. `overlay` injects faults (`None` = the
/// fault-free fast path), `budget` bounds the number of *processed*
/// scheduled events so oscillating (cyclic) netlists terminate with
/// [`SimError::Unsettled`] instead of looping forever.
fn simulate_core<M: DelayModel + ?Sized>(
    netlist: &Netlist,
    delay: &M,
    prev_inputs: &[bool],
    new_inputs: &[bool],
    overlay: Option<&FaultOverlay>,
    budget: usize,
) -> Result<SimResult, SimError> {
    let arity = netlist.inputs().len();
    for got in [new_inputs.len(), prev_inputs.len()] {
        if got != arity {
            return Err(SimError::InputArity { expected: arity, got });
        }
    }

    let n = netlist.len();
    // `raw` holds driver outputs, `current` the observed (post-fault)
    // values downstream gates actually see; without faults they coincide.
    let (mut raw, initial) = match overlay {
        Some(ov) => eval_with_overlay(netlist, prev_inputs, ov),
        None => {
            let vals = netlist.try_eval(prev_inputs).expect("arity checked above");
            (vals.clone(), vals)
        }
    };
    let mut current = initial.clone();
    let fanout = netlist.fanout_lists();
    let mut waveforms: Vec<Vec<(u64, bool)>> = vec![Vec::new(); n];

    // Time-indexed bucket queue: delays are small integers, so a calendar
    // of per-tick event lists beats a binary heap by a wide margin.
    // `None` payloads re-apply the stored raw value (used at transient
    // fault window boundaries, where the observed value changes without
    // any driver event).
    let mut buckets: Vec<Vec<(u32, Option<bool>)>> = vec![Vec::new()];
    let mut pending = 0usize;
    let schedule = |buckets: &mut Vec<Vec<(u32, Option<bool>)>>,
                    pending: &mut usize,
                    t: usize,
                    ev: (u32, Option<bool>)| {
        if t >= buckets.len() {
            buckets.resize(t + 1, Vec::new());
        }
        buckets[t].push(ev);
        *pending += 1;
    };

    for (net, (&prev, &new)) in netlist.inputs().iter().zip(prev_inputs.iter().zip(new_inputs)) {
        if prev != new {
            // A delay push on an input net models a late-arriving operand.
            let t0 = overlay.map_or(0, |ov| ov.push(net.index())) as usize;
            schedule(&mut buckets, &mut pending, t0, (net.0, Some(new)));
        }
    }
    if let Some(ov) = overlay {
        for (net, t) in ov.boundary_events() {
            schedule(&mut buckets, &mut pending, t as usize, (net, None));
        }
    }

    let mut settle_time = 0;
    let mut events = 0usize;
    let mut processed = 0usize;
    let mut dirty: Vec<u32> = Vec::new();
    let mut dirty_flag = vec![false; n];

    let mut t = 0usize;
    while pending > 0 {
        debug_assert!(t < buckets.len(), "pending events must exist");
        if buckets[t].is_empty() {
            t += 1;
            continue;
        }
        // Apply every event scheduled for time `t`.
        dirty.clear();
        let batch = std::mem::take(&mut buckets[t]);
        pending -= batch.len();
        processed += batch.len();
        if processed > budget {
            crate::obs::with_observer(|o| o.event_unsettled(processed as u64, budget as u64));
            return Err(SimError::Unsettled { events: processed, budget });
        }
        for (net, val) in batch {
            let idx = net as usize;
            if let Some(v) = val {
                raw[idx] = v;
            }
            let obs = match overlay {
                Some(ov) => ov.observe(idx, Some(t as u64), raw[idx]),
                None => raw[idx],
            };
            if current[idx] != obs {
                current[idx] = obs;
                waveforms[idx].push((t as u64, obs));
                settle_time = settle_time.max(t as u64);
                events += 1;
                for &g in &fanout[idx] {
                    if !dirty_flag[g.index()] {
                        dirty_flag[g.index()] = true;
                        dirty.push(g.0);
                    }
                }
            }
        }
        // Re-evaluate affected gates and schedule their (possibly unchanged)
        // outputs: scheduling equal values cancels stale in-flight events.
        for &g in &dirty {
            dirty_flag[g as usize] = false;
            let gid = NetId(g);
            let kind = netlist.kind(gid);
            debug_assert!(kind.is_logic(), "inputs/constants have no fanin");
            let newv = eval_gate(kind, netlist.gate_inputs(gid), &current);
            let push = overlay.map_or(0, |ov| ov.push(g as usize));
            let d = (delay.gate_delay(kind, gid) + push).max(1) as usize;
            schedule(&mut buckets, &mut pending, t + d, (g, Some(newv)));
        }
    }

    crate::obs::with_observer(|o| o.event_run(events as u64, settle_time));
    Ok(SimResult { initial, waveforms, settle_time, events })
}

/// Simulates the transition from `prev_inputs` (settled before `t = 0`) to
/// `new_inputs` (applied at `t = 0`).
///
/// All internal nets start at their settled value under `prev_inputs` —
/// pass all-`false` as `prev_inputs` for the paper's "all internal signals
/// reset to 0 initially" scenario.
///
/// # Panics
///
/// Panics if either input slice length differs from the netlist's input
/// count, or if the netlist oscillates past [`default_event_budget`] (only
/// possible after [`Netlist::rewire_input`] broke the DAG invariant — use
/// [`simulate_budgeted`] for such netlists).
#[must_use]
pub fn simulate<M: DelayModel + ?Sized>(
    netlist: &Netlist,
    delay: &M,
    prev_inputs: &[bool],
    new_inputs: &[bool],
) -> SimResult {
    simulate_budgeted(netlist, delay, prev_inputs, new_inputs, default_event_budget(netlist))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`simulate`] with an explicit event budget.
///
/// # Errors
///
/// * [`SimError::InputArity`] on input-slice length mismatch;
/// * [`SimError::Unsettled`] if more than `budget` scheduled events are
///   processed before the netlist settles (a combinational cycle created
///   via [`Netlist::rewire_input`], or a budget far too small).
pub fn simulate_budgeted<M: DelayModel + ?Sized>(
    netlist: &Netlist,
    delay: &M,
    prev_inputs: &[bool],
    new_inputs: &[bool],
    budget: usize,
) -> Result<SimResult, SimError> {
    simulate_core(netlist, delay, prev_inputs, new_inputs, None, budget)
}

/// Simulates with a [`FaultPlan`] overlay and an event budget.
///
/// The plan transforms the observed value of faulted nets (stuck-at,
/// transient bit-flip windows) and the scheduling delay of pushed gates;
/// the netlist itself is untouched. An empty plan is bit-identical to
/// [`simulate_budgeted`].
///
/// # Errors
///
/// * [`SimError::InvalidFault`] if the plan references nets outside the
///   netlist;
/// * [`SimError::InputArity`] / [`SimError::Unsettled`] as for
///   [`simulate_budgeted`].
pub fn simulate_with_faults<M: DelayModel + ?Sized>(
    netlist: &Netlist,
    delay: &M,
    prev_inputs: &[bool],
    new_inputs: &[bool],
    plan: &FaultPlan,
    budget: usize,
) -> Result<SimResult, SimError> {
    plan.validate(netlist)?;
    let overlay = plan.compile(netlist.len());
    simulate_core(netlist, delay, prev_inputs, new_inputs, Some(&overlay), budget)
}

/// Convenience wrapper: simulate from the all-zero previous input vector
/// (the paper's reset assumption).
#[must_use]
pub fn simulate_from_zero<M: DelayModel + ?Sized>(
    netlist: &Netlist,
    delay: &M,
    new_inputs: &[bool],
) -> SimResult {
    let zeros = vec![false; netlist.inputs().len()];
    simulate(netlist, delay, &zeros, new_inputs)
}

/// [`simulate_with_faults`] from the all-zero previous input vector.
///
/// # Errors
///
/// As for [`simulate_with_faults`].
pub fn simulate_from_zero_with_faults<M: DelayModel + ?Sized>(
    netlist: &Netlist,
    delay: &M,
    new_inputs: &[bool],
    plan: &FaultPlan,
    budget: usize,
) -> Result<SimResult, SimError> {
    let zeros = vec![false; netlist.inputs().len()];
    simulate_with_faults(netlist, delay, &zeros, new_inputs, plan, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnitDelay;

    const U: u64 = UnitDelay::UNIT;

    fn xor_chain(n: usize) -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let mut cur = a;
        for _ in 0..n {
            let b = nl.input("b");
            cur = nl.xor(cur, b);
        }
        nl.set_output("z", vec![cur]);
        nl
    }

    #[test]
    fn final_values_match_functional_eval() {
        let nl = xor_chain(5);
        let inputs = [true, false, true, true, false, true];
        let res = simulate_from_zero(&nl, &UnitDelay, &inputs);
        let evald = nl.eval(&inputs);
        let out = nl.output("z")[0];
        assert_eq!(res.final_value(out), evald[out.index()]);
    }

    #[test]
    fn settle_time_tracks_logic_depth() {
        // Flipping the head input of an n-deep xor chain ripples through all
        // n gates: settle time = n * unit delay.
        let nl = xor_chain(6);
        let mut prev = vec![false; 7];
        let mut next = prev.clone();
        next[0] = true;
        let res = simulate(&nl, &UnitDelay, &prev, &next);
        assert_eq!(res.settle_time(), 6 * U);
        // Flipping only the last input touches one gate.
        prev = vec![false; 7];
        let mut next2 = prev.clone();
        next2[6] = true;
        let res2 = simulate(&nl, &UnitDelay, &prev, &next2);
        assert_eq!(res2.settle_time(), U);
    }

    #[test]
    fn early_sampling_reads_stale_values() {
        let nl = xor_chain(4);
        let prev = vec![false; 5];
        let mut next = prev.clone();
        next[0] = true; // output will become 1 after 4 gate delays
        let res = simulate(&nl, &UnitDelay, &prev, &next);
        let out = nl.output("z")[0];
        assert!(!res.value_at(out, 0), "before propagation: old value");
        assert!(!res.value_at(out, 4 * U - 1), "one tick early: still old");
        assert!(res.value_at(out, 4 * U), "at arrival: new value");
        assert!(res.final_value(out));
    }

    #[test]
    fn no_input_change_means_no_events() {
        let nl = xor_chain(3);
        let inputs = [true, false, true, false];
        let res = simulate(&nl, &UnitDelay, &inputs, &inputs);
        assert_eq!(res.settle_time(), 0);
        assert_eq!(res.event_count(), 0);
        let out = nl.output("z")[0];
        assert_eq!(res.value_at(out, 0), nl.eval(&inputs)[out.index()]);
    }

    #[test]
    fn glitches_are_recorded() {
        // z = a XOR a' where a' = NOT(NOT(a)): a rising edge causes a glitch
        // on z because the inverter path is slower.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let n1 = nl.not(a);
        let n2 = nl.not(n1);
        let z = nl.xor(a, n2);
        nl.set_output("z", vec![z]);
        let res = simulate(&nl, &UnitDelay, &[false], &[true]);
        // a flips at 0; z sees a at U (goes 0^0=0 -> 1^0=1), n2 catches up at
        // 2U, z returns to 0 at 3U.
        assert!(!res.value_at(z, 0));
        assert!(res.value_at(z, U));
        assert!(res.value_at(z, 3 * U - 1));
        assert!(!res.value_at(z, 3 * U));
        assert!(!res.final_value(z));
        assert_eq!(res.waveform(z).len(), 2, "one glitch pulse: up then down");
    }

    #[test]
    fn cancelled_events_do_not_corrupt_state() {
        // Same circuit; verify the settled value equals functional eval for
        // both edges (exercises the schedule-equal-value cancellation path).
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let n1 = nl.not(a);
        let n2 = nl.not(n1);
        let z = nl.and(a, n2);
        nl.set_output("z", vec![z]);
        for (p, q) in [(false, true), (true, false)] {
            let res = simulate(&nl, &UnitDelay, &[p], &[q]);
            assert_eq!(res.final_value(z), nl.eval(&[q])[z.index()]);
        }
    }

    #[test]
    fn sample_bus_orders_like_input() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.not(a);
        let y = nl.not(b);
        nl.set_output("z", vec![x, y]);
        let res = simulate_from_zero(&nl, &UnitDelay, &[true, false]);
        assert_eq!(res.sample_bus(&[x, y], U), vec![false, true]);
        assert_eq!(res.final_bus(&[x, y]), vec![false, true]);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let nl = xor_chain(5);
        let prev = vec![false; 6];
        let next = vec![true, false, true, true, false, true];
        let clean = simulate(&nl, &UnitDelay, &prev, &next);
        let faulty = simulate_with_faults(
            &nl,
            &UnitDelay,
            &prev,
            &next,
            &FaultPlan::new(),
            default_event_budget(&nl),
        )
        .unwrap();
        for net in nl.nets() {
            assert_eq!(clean.waveform(net), faulty.waveform(net));
            assert_eq!(clean.initial_value(net), faulty.initial_value(net));
        }
        assert_eq!(clean.settle_time(), faulty.settle_time());
        assert_eq!(clean.event_count(), faulty.event_count());
    }

    #[test]
    fn stuck_at_overrides_driver_and_initial_state() {
        let nl = xor_chain(3);
        let out = nl.output("z")[0];
        let plan = FaultPlan::new().stuck_at(out, true);
        // Even with all-zero inputs (fault-free output 0), the stuck net
        // reads 1 from the very start.
        let res =
            simulate_with_faults(&nl, &UnitDelay, &[false; 4], &[false; 4], &plan, 10_000).unwrap();
        assert!(res.initial_value(out));
        assert!(res.final_value(out));
        assert_eq!(res.event_count(), 0, "stuck net never transitions");
    }

    #[test]
    fn stuck_at_propagates_downstream() {
        // z = NOT(m), m = AND(a, b): stuck-at-1 on m forces z low.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let m = nl.and(a, b);
        let z = nl.not(m);
        nl.set_output("z", vec![z]);
        let plan = FaultPlan::new().stuck_at(m, true);
        let res =
            simulate_with_faults(&nl, &UnitDelay, &[false, false], &[true, false], &plan, 10_000)
                .unwrap();
        assert!(res.initial_value(m) && !res.initial_value(z));
        assert!(!res.final_value(z), "downstream sees the stuck value");
    }

    #[test]
    fn transient_flips_value_inside_window_only() {
        // A single buffer-ish circuit: z = NOT(a), constant input.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let z = nl.not(a);
        nl.set_output("z", vec![z]);
        let plan = FaultPlan::new().transient(z, 5 * U, 2 * U);
        let res = simulate_with_faults(&nl, &UnitDelay, &[false], &[false], &plan, 10_000).unwrap();
        assert!(res.final_value(z), "settled back after the upset");
        assert!(res.value_at(z, 5 * U - 1));
        assert!(!res.value_at(z, 5 * U), "flipped inside the window");
        assert!(!res.value_at(z, 7 * U - 1));
        assert!(res.value_at(z, 7 * U), "recovered at window end");
        assert_eq!(res.event_count(), 2, "one down flank, one up flank");
    }

    #[test]
    fn delay_push_slows_one_gate() {
        let nl = xor_chain(4);
        let out = nl.output("z")[0];
        let prev = vec![false; 5];
        let mut next = prev.clone();
        next[0] = true;
        let clean = simulate(&nl, &UnitDelay, &prev, &next);
        let plan = FaultPlan::new().delay_push(out, 3 * U);
        let slow = simulate_with_faults(&nl, &UnitDelay, &prev, &next, &plan, 100_000).unwrap();
        assert_eq!(slow.settle_time_of(&[out]), clean.settle_time_of(&[out]) + 3 * U);
        assert_eq!(slow.final_value(out), clean.final_value(out));
    }

    #[test]
    fn cyclic_netlist_returns_unsettled() {
        // Gated ring oscillator: n1 = NAND(a, n3), n2 = NOT(n1),
        // n3 = NOT(n2) — built as a DAG, then rewired into a loop. With
        // a = 1 the loop has three inversions and oscillates forever.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let n1 = nl.nand(a, a);
        let n2 = nl.not(n1);
        let n3 = nl.not(n2);
        nl.set_output("z", vec![n3]);
        nl.rewire_input(n1, 1, n3).unwrap();
        let err = simulate_budgeted(&nl, &UnitDelay, &[false], &[true], 500).unwrap_err();
        assert!(matches!(err, SimError::Unsettled { budget: 500, .. }), "{err}");
        // The faulty path hits the same guard: an SEU kicks the (enabled)
        // ring even without any input edge.
        let plan = FaultPlan::new().transient(n2, 0, U);
        let err2 = simulate_with_faults(&nl, &UnitDelay, &[true], &[true], &plan, 500).unwrap_err();
        assert!(matches!(err2, SimError::Unsettled { .. }), "{err2}");
    }

    #[test]
    fn arity_and_fault_validation_errors_are_typed() {
        let nl = xor_chain(2);
        let err = simulate_budgeted(&nl, &UnitDelay, &[false; 3], &[false; 2], 100).unwrap_err();
        assert!(matches!(err, SimError::InputArity { expected: 3, got: 2 }));
        let plan = FaultPlan::new().stuck_at(NetId(999), false);
        let err = simulate_with_faults(&nl, &UnitDelay, &[false; 3], &[false; 3], &plan, 100)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidFault(NetlistError::NetOutOfRange { index: 999, .. })
        ));
    }

    #[test]
    fn try_sampling_validates_net_indices() {
        let nl = xor_chain(2);
        let res = simulate_from_zero(&nl, &UnitDelay, &[true, false, true]);
        let out = nl.output("z")[0];
        assert_eq!(res.try_value_at(out, 0).unwrap(), res.value_at(out, 0));
        assert!(res.try_value_at(NetId(500), 0).is_err());
        assert!(res.try_sample_bus(&[out, NetId(500)], 0).is_err());
    }

    #[test]
    fn settle_time_of_bus_subset() {
        let nl = xor_chain(5);
        let prev = vec![false; 6];
        let mut next = prev.clone();
        next[0] = true;
        let res = simulate(&nl, &UnitDelay, &prev, &next);
        let out = nl.output("z");
        assert_eq!(res.settle_time_of(out), 5 * U);
        // The first xor settles earlier than the chain output. Nets are
        // created interleaved: a=0, then (b=1, xor=2), (b=3, xor=4), ...
        let first_gate = NetId(2);
        assert_eq!(res.settle_time_of(&[first_gate]), U);
    }
}
