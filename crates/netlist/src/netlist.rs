//! Structural gate-level netlists.

use crate::NetlistError;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a net (equivalently, of the gate driving it).
///
/// Nets are created in topological order: a gate may only reference nets
/// created before it, so every netlist is a DAG by construction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index of the net.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A `NetId` from a raw index. No validity check is performed — the
    /// fallible APIs ([`Netlist::try_net`], [`FaultPlan::validate`]) are
    /// the place where out-of-range references turn into typed errors, so
    /// fault-site tooling can construct speculative ids freely.
    ///
    /// [`FaultPlan::validate`]: crate::FaultPlan::validate
    #[must_use]
    pub fn from_index(index: usize) -> NetId {
        NetId(index as u32)
    }
}

impl fmt::Debug for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The logic function of a gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// A primary input (driven externally).
    Input,
    /// A constant driver.
    Const,
    /// Inverter.
    Not,
    /// 2-input AND.
    And,
    /// 2-input OR.
    Or,
    /// 2-input XOR.
    Xor,
    /// 2-input NAND.
    Nand,
    /// 2-input NOR.
    Nor,
    /// 2-input XNOR.
    Xnor,
    /// 2:1 multiplexer: `sel ? a : b`.
    Mux,
}

impl GateKind {
    /// True for gates that compute a function of other nets.
    #[must_use]
    pub fn is_logic(self) -> bool {
        !matches!(self, GateKind::Input | GateKind::Const)
    }
}

#[derive(Clone, Debug)]
pub(crate) struct GateNode {
    pub(crate) kind: GateKind,
    pub(crate) inputs: [NetId; 3],
    pub(crate) num_inputs: u8,
    pub(crate) const_value: bool,
}

impl GateNode {
    pub(crate) fn input_slice(&self) -> &[NetId] {
        &self.inputs[..self.num_inputs as usize]
    }
}

/// A combinational gate-level netlist with named output buses.
///
/// Build nets with the gate constructors, group result nets into output
/// buses with [`Netlist::set_output`], then evaluate functionally with
/// [`Netlist::eval`] or with full timing via
/// [`simulate`](crate::sim::simulate).
///
/// # Examples
///
/// ```
/// use ola_netlist::Netlist;
///
/// let mut nl = Netlist::new();
/// let a = nl.input("a");
/// let b = nl.input("b");
/// let sum = nl.xor(a, b);
/// let carry = nl.and(a, b);
/// nl.set_output("sum", vec![sum, carry]);
///
/// let vals = nl.eval(&[true, true]);
/// assert!(!vals[sum.index()] && vals[carry.index()]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    gates: Vec<GateNode>,
    inputs: Vec<NetId>,
    outputs: BTreeMap<String, Vec<NetId>>,
    const_false: Option<NetId>,
    const_true: Option<NetId>,
}

impl Netlist {
    /// An empty netlist.
    #[must_use]
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Number of nets (gates) in the netlist.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True if the netlist has no nets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// A deterministic byte encoding of the netlist's structure: gates
    /// (kind, fanins, constant values), primary inputs, and named output
    /// buses in sorted order. Two netlists produce the same bytes iff they
    /// are structurally identical, so a content hash of this encoding is a
    /// sound memoization key for anything derived purely from the netlist
    /// (compiled batch programs, certification tables). Input *names* are
    /// documentation only and deliberately excluded.
    #[must_use]
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.gates.len() * 16);
        out.extend_from_slice(b"olanl/1\n");
        let push_u32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
        push_u32(&mut out, self.gates.len() as u32);
        for g in &self.gates {
            out.push(g.kind as u8);
            out.push(g.num_inputs);
            out.push(u8::from(g.const_value));
            for inp in g.input_slice() {
                push_u32(&mut out, inp.0);
            }
        }
        push_u32(&mut out, self.inputs.len() as u32);
        for id in &self.inputs {
            push_u32(&mut out, id.0);
        }
        push_u32(&mut out, self.outputs.len() as u32);
        for (name, nets) in &self.outputs {
            push_u32(&mut out, name.len() as u32);
            out.extend_from_slice(name.as_bytes());
            push_u32(&mut out, nets.len() as u32);
            for id in nets {
                push_u32(&mut out, id.0);
            }
        }
        out
    }

    /// The primary inputs in declaration order. `eval`/`simulate` take input
    /// values in this order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The named output buses.
    pub fn outputs(&self) -> impl Iterator<Item = (&str, &[NetId])> {
        self.outputs.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// The nets of the output bus `name`.
    ///
    /// # Panics
    ///
    /// Panics if no output bus has that name; see [`Netlist::try_output`]
    /// for the fallible variant.
    #[must_use]
    pub fn output(&self, name: &str) -> &[NetId] {
        self.try_output(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The nets of the output bus `name`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::UnknownOutput`] if no output bus has that name.
    pub fn try_output(&self, name: &str) -> Result<&[NetId], NetlistError> {
        self.outputs
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| NetlistError::UnknownOutput { name: name.to_owned() })
    }

    /// Declares a primary input. The `_name` is documentation only.
    pub fn input(&mut self, _name: &str) -> NetId {
        let id = self.push(GateKind::Input, &[], false);
        self.inputs.push(id);
        id
    }

    /// Declares `n` primary inputs forming a bus.
    pub fn input_bus(&mut self, name: &str, n: usize) -> Vec<NetId> {
        (0..n).map(|i| self.input(&format!("{name}[{i}]"))).collect()
    }

    /// A constant net (deduplicated per polarity).
    pub fn constant(&mut self, value: bool) -> NetId {
        let slot = if value { &mut self.const_true } else { &mut self.const_false };
        if let Some(id) = *slot {
            return id;
        }
        let id = self.push_raw(GateKind::Const, &[], value);
        if value {
            self.const_true = Some(id);
        } else {
            self.const_false = Some(id);
        }
        id
    }

    /// Inverter. Constant inputs are folded away, as synthesis would.
    pub fn not(&mut self, a: NetId) -> NetId {
        match self.const_value_of(a) {
            Some(v) => self.constant(!v),
            None => self.push(GateKind::Not, &[a], false),
        }
    }

    /// 2-input AND (constant-folding).
    pub fn and(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value_of(a), self.const_value_of(b)) {
            (Some(false), _) | (_, Some(false)) => self.constant(false),
            (Some(true), _) => b,
            (_, Some(true)) => a,
            _ => self.push(GateKind::And, &[a, b], false),
        }
    }

    /// 2-input OR (constant-folding).
    pub fn or(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value_of(a), self.const_value_of(b)) {
            (Some(true), _) | (_, Some(true)) => self.constant(true),
            (Some(false), _) => b,
            (_, Some(false)) => a,
            _ => self.push(GateKind::Or, &[a, b], false),
        }
    }

    /// 2-input XOR (constant-folding).
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value_of(a), self.const_value_of(b)) {
            (Some(false), _) => b,
            (_, Some(false)) => a,
            (Some(true), _) => self.not(b),
            (_, Some(true)) => self.not(a),
            _ => self.push(GateKind::Xor, &[a, b], false),
        }
    }

    /// 2-input NAND (constant-folding).
    pub fn nand(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value_of(a), self.const_value_of(b)) {
            (Some(false), _) | (_, Some(false)) => self.constant(true),
            (Some(true), _) => self.not(b),
            (_, Some(true)) => self.not(a),
            _ => self.push(GateKind::Nand, &[a, b], false),
        }
    }

    /// 2-input NOR (constant-folding).
    pub fn nor(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value_of(a), self.const_value_of(b)) {
            (Some(true), _) | (_, Some(true)) => self.constant(false),
            (Some(false), _) => self.not(b),
            (_, Some(false)) => self.not(a),
            _ => self.push(GateKind::Nor, &[a, b], false),
        }
    }

    /// 2-input XNOR (constant-folding).
    pub fn xnor(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value_of(a), self.const_value_of(b)) {
            (Some(true), _) => b,
            (_, Some(true)) => a,
            (Some(false), _) => self.not(b),
            (_, Some(false)) => self.not(a),
            _ => self.push(GateKind::Xnor, &[a, b], false),
        }
    }

    /// 2:1 multiplexer `sel ? a : b` (constant-folding).
    pub fn mux(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        if a == b {
            return a;
        }
        match self.const_value_of(sel) {
            Some(true) => a,
            Some(false) => b,
            None => match (self.const_value_of(a), self.const_value_of(b)) {
                (Some(true), Some(false)) => sel,
                (Some(false), Some(true)) => self.not(sel),
                (Some(false), None) => {
                    let ns = self.not(sel);
                    self.and(ns, b)
                }
                (Some(true), None) => self.or(sel, b),
                (None, Some(false)) => self.and(sel, a),
                (None, Some(true)) => {
                    let ns = self.not(sel);
                    self.or(ns, a)
                }
                _ => self.push(GateKind::Mux, &[sel, a, b], false),
            },
        }
    }

    fn const_value_of(&self, net: NetId) -> Option<bool> {
        let g = self.gates.get(net.index())?;
        if g.kind == GateKind::Const {
            Some(g.const_value)
        } else {
            None
        }
    }

    /// Registers (or replaces) a named output bus.
    pub fn set_output<I: IntoIterator<Item = NetId>>(&mut self, name: &str, nets: I) {
        self.outputs.insert(name.to_owned(), nets.into_iter().collect());
    }

    /// The net with the given index (nets are densely indexed `0..len()`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`; see [`Netlist::try_net`] for the
    /// fallible variant.
    #[must_use]
    pub fn net(&self, index: usize) -> NetId {
        self.try_net(index).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The net with the given index.
    ///
    /// # Errors
    ///
    /// [`NetlistError::NetOutOfRange`] if `index >= len()`.
    pub fn try_net(&self, index: usize) -> Result<NetId, NetlistError> {
        if index < self.gates.len() {
            Ok(NetId(index as u32))
        } else {
            Err(NetlistError::NetOutOfRange { index, len: self.gates.len() })
        }
    }

    /// Iterates over every net id.
    pub fn nets(&self) -> impl Iterator<Item = NetId> {
        (0..self.gates.len() as u32).map(NetId)
    }

    /// The kind of the gate driving `net`.
    #[must_use]
    pub fn kind(&self, net: NetId) -> GateKind {
        self.gates[net.index()].kind
    }

    /// The input nets of the gate driving `net`.
    #[must_use]
    pub fn gate_inputs(&self, net: NetId) -> &[NetId] {
        self.gates[net.index()].input_slice()
    }

    /// Functional (zero-delay) evaluation: returns the settled value of every
    /// net given values for the primary inputs (in [`Netlist::inputs`] order).
    ///
    /// # Panics
    ///
    /// Panics if `input_values.len()` differs from the number of inputs;
    /// see [`Netlist::try_eval`] for the fallible variant.
    #[must_use]
    pub fn eval(&self, input_values: &[bool]) -> Vec<bool> {
        self.try_eval(input_values).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Functional (zero-delay) evaluation.
    ///
    /// # Errors
    ///
    /// [`NetlistError::InputArity`] if `input_values.len()` differs from
    /// the number of primary inputs.
    pub fn try_eval(&self, input_values: &[bool]) -> Result<Vec<bool>, NetlistError> {
        if input_values.len() != self.inputs.len() {
            return Err(NetlistError::InputArity {
                expected: self.inputs.len(),
                got: input_values.len(),
            });
        }
        let mut vals = vec![false; self.gates.len()];
        let mut next_input = 0;
        for (i, g) in self.gates.iter().enumerate() {
            vals[i] = match g.kind {
                GateKind::Input => {
                    let v = input_values[next_input];
                    next_input += 1;
                    v
                }
                GateKind::Const => g.const_value,
                _ => eval_gate(g.kind, |k| vals[g.input_slice()[k].index()]),
            };
        }
        Ok(vals)
    }

    /// Number of logic gates (excluding inputs and constants).
    #[must_use]
    pub fn logic_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.kind.is_logic()).count()
    }

    /// For every net, how many gates read it.
    #[must_use]
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut fan = vec![0u32; self.gates.len()];
        for g in &self.gates {
            for i in g.input_slice() {
                fan[i.index()] += 1;
            }
        }
        fan
    }

    /// For every net, the list of gate (net) ids that read it.
    #[must_use]
    pub fn fanout_lists(&self) -> Vec<Vec<NetId>> {
        let mut fan = vec![Vec::new(); self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            for inp in g.input_slice() {
                fan[inp.index()].push(NetId(i as u32));
            }
        }
        fan
    }

    /// Appends a logic gate without constant folding, validating input
    /// references. The supported arities are 1 ([`GateKind::Not`]), 2 (the
    /// two-input gates) and 3 ([`GateKind::Mux`]).
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DanglingInput`] if an input net does not exist;
    /// * [`NetlistError::NotALogicGate`] for [`GateKind::Input`] /
    ///   [`GateKind::Const`] (use [`Netlist::input`] / [`Netlist::constant`]);
    /// * [`NetlistError::NoSuchGateInput`] if the input count does not
    ///   match the gate's arity.
    pub fn try_gate(&mut self, kind: GateKind, inputs: &[NetId]) -> Result<NetId, NetlistError> {
        if !kind.is_logic() {
            return Err(NetlistError::NotALogicGate { net: NetId(self.gates.len() as u32) });
        }
        let arity = match kind {
            GateKind::Not => 1,
            GateKind::Mux => 3,
            _ => 2,
        };
        if inputs.len() != arity {
            return Err(NetlistError::NoSuchGateInput {
                net: NetId(self.gates.len() as u32),
                index: inputs.len(),
                arity,
            });
        }
        for i in inputs {
            if i.index() >= self.gates.len() {
                return Err(NetlistError::DanglingInput { net: *i, len: self.gates.len() });
            }
        }
        Ok(self.push_raw(kind, inputs, false))
    }

    pub(crate) fn gate_nodes(&self) -> &[GateNode] {
        &self.gates
    }

    fn push(&mut self, kind: GateKind, inputs: &[NetId], const_value: bool) -> NetId {
        for i in inputs {
            if i.index() >= self.gates.len() {
                let e = NetlistError::DanglingInput { net: *i, len: self.gates.len() };
                panic!("{e}");
            }
        }
        self.push_raw(kind, inputs, const_value)
    }

    fn push_raw(&mut self, kind: GateKind, inputs: &[NetId], const_value: bool) -> NetId {
        let id = NetId(u32::try_from(self.gates.len()).expect("netlist too large"));
        let mut arr = [NetId(0); 3];
        arr[..inputs.len()].copy_from_slice(inputs);
        self.gates.push(GateNode {
            kind,
            inputs: arr,
            num_inputs: inputs.len() as u8,
            const_value,
        });
        id
    }
}

/// The bool truth table of a logic gate, with `v(k)` the value of fanin
/// `k`: the one behind [`Netlist::eval`], the event simulator and lint's
/// constant folding. The batch engine's word table is written apart from
/// it on purpose, so holding one engine to the other tests both tables.
pub(crate) fn eval_gate(kind: GateKind, v: impl Fn(usize) -> bool) -> bool {
    match kind {
        GateKind::Not => !v(0),
        GateKind::And => v(0) & v(1),
        GateKind::Or => v(0) | v(1),
        GateKind::Xor => v(0) ^ v(1),
        GateKind::Nand => !(v(0) & v(1)),
        GateKind::Nor => !(v(0) | v(1)),
        GateKind::Xnor => !(v(0) ^ v(1)),
        GateKind::Mux => {
            if v(0) {
                v(1)
            } else {
                v(2)
            }
        }
        GateKind::Input | GateKind::Const => unreachable!("not a logic gate"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_input_gates_match_truth_tables() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let nets =
            [nl.and(a, b), nl.or(a, b), nl.xor(a, b), nl.nand(a, b), nl.nor(a, b), nl.xnor(a, b)];
        for (av, bv) in [(false, false), (false, true), (true, false), (true, true)] {
            let vals = nl.eval(&[av, bv]);
            let expect = [av & bv, av | bv, av ^ bv, !(av & bv), !(av | bv), !(av ^ bv)];
            for (net, e) in nets.iter().zip(expect) {
                assert_eq!(vals[net.index()], e, "{:?} a={av} b={bv}", nl.kind(*net));
            }
        }
    }

    #[test]
    fn mux_selects() {
        let mut nl = Netlist::new();
        let s = nl.input("s");
        let a = nl.input("a");
        let b = nl.input("b");
        let m = nl.mux(s, a, b);
        assert!(nl.eval(&[true, true, false])[m.index()]);
        assert!(!nl.eval(&[false, true, false])[m.index()]);
    }

    #[test]
    fn constants_are_deduplicated() {
        let mut nl = Netlist::new();
        let t1 = nl.constant(true);
        let t2 = nl.constant(true);
        let f1 = nl.constant(false);
        assert_eq!(t1, t2);
        assert_ne!(t1, f1);
        assert_eq!(nl.len(), 2);
    }

    #[test]
    fn not_inverts_and_chains() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let n1 = nl.not(a);
        let n2 = nl.not(n1);
        let vals = nl.eval(&[true]);
        assert!(!vals[n1.index()]);
        assert!(vals[n2.index()]);
    }

    #[test]
    fn output_buses_are_named() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let n = nl.not(a);
        nl.set_output("z", vec![n, a]);
        assert_eq!(nl.output("z"), &[n, a]);
        assert_eq!(nl.outputs().count(), 1);
    }

    #[test]
    #[should_panic(expected = "no output bus")]
    fn missing_output_panics() {
        let nl = Netlist::new();
        let _ = nl.output("nope");
    }

    #[test]
    fn fanout_counts_are_correct() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.xor(a, b);
        let _y = nl.and(a, x);
        let fan = nl.fanout_counts();
        assert_eq!(fan[a.index()], 2);
        assert_eq!(fan[b.index()], 1);
        assert_eq!(fan[x.index()], 1);
        let lists = nl.fanout_lists();
        assert_eq!(lists[a.index()].len(), 2);
    }

    #[test]
    fn logic_gate_count_excludes_inputs() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let _ = nl.and(a, b);
        let _ = nl.and(a, b);
        let _ = nl.xor(a, b);
        assert_eq!(nl.logic_gate_count(), 3);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_references_are_rejected() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let bogus = NetId(100);
        let _ = nl.and(a, bogus);
    }

    #[test]
    #[should_panic(expected = "expected 2 input values")]
    fn eval_checks_input_arity() {
        let mut nl = Netlist::new();
        let _ = nl.input("a");
        let _ = nl.input("b");
        let _ = nl.eval(&[true]);
    }

    #[test]
    fn fallible_accessors_return_typed_errors() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let n = nl.not(a);
        nl.set_output("z", vec![n]);

        assert_eq!(nl.try_output("z").unwrap(), &[n]);
        assert!(matches!(nl.try_output("nope"), Err(NetlistError::UnknownOutput { .. })));
        assert_eq!(nl.try_net(0).unwrap(), a);
        assert!(matches!(nl.try_net(99), Err(NetlistError::NetOutOfRange { index: 99, .. })));
        assert!(matches!(nl.try_eval(&[]), Err(NetlistError::InputArity { expected: 1, got: 0 })));
        assert_eq!(nl.try_eval(&[true]).unwrap(), nl.eval(&[true]));
    }

    #[test]
    fn try_gate_validates_arity_and_references() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let g = nl.try_gate(GateKind::And, &[a, b]).unwrap();
        assert_eq!(nl.kind(g), GateKind::And);
        assert!(matches!(
            nl.try_gate(GateKind::Not, &[a, b]),
            Err(NetlistError::NoSuchGateInput { .. })
        ));
        assert!(matches!(
            nl.try_gate(GateKind::And, &[a, NetId(50)]),
            Err(NetlistError::DanglingInput { .. })
        ));
        assert!(matches!(
            nl.try_gate(GateKind::Input, &[]),
            Err(NetlistError::NotALogicGate { .. })
        ));
    }
}
