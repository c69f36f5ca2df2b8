//! Combinational equivalence checking over settled netlists.
//!
//! Answers *do two netlists compute the same Boolean function at full
//! settlement?* — the property every semantics-preserving rewrite
//! (constant folding, CSE, dead-code elimination, adder re-allocation,
//! [`prune_dead`](crate::sta::prune_dead)) must preserve, and the
//! property that makes "online ≡ conventional at settled Ts" a theorem
//! rather than a sampled observation.
//!
//! The checker is staged, cheapest-first:
//!
//! 1. **Structural hashing** — both netlists are hash-consed into shared
//!    structural classes (commutative operands sorted, constants folded
//!    by polarity). If every output bit of the left netlist lands in the
//!    same class as its counterpart on the right, the netlists are
//!    syntactically identical modulo sharing — a proof with no search.
//! 2. **ROBDD** — a hand-rolled reduced ordered BDD (unique table +
//!    memoized apply) built bottom-up over the levelized topological
//!    order, with input variable ordering derived from the earliest
//!    level at which each input feeds logic. Canonicity makes
//!    per-output-bit equivalence a pointer comparison; a mismatch walks
//!    the XOR of the two functions to a satisfying path, yielding a
//!    concrete counterexample input vector. Construction aborts when the
//!    node table exceeds [`EquivOptions::bdd_node_budget`].
//! 3. **Exhaustive batch evaluation** — below
//!    [`EquivOptions::exhaustive_input_limit`] primary inputs, all
//!    `2^n` vectors are swept 64 lanes at a time through a local
//!    word-parallel evaluator (the same bit-slicing trick as the batch
//!    engine). Still a proof, just by enumeration.
//! 4. **Random batch evaluation** — the last resort above both budgets:
//!    [`EquivOptions::random_vectors`] seeded pseudo-random vectors. A
//!    clean pass is reported as the *weaker*
//!    [`EquivVerdict::ProbablyEquivalent`]; any hit is still a hard
//!    [`EquivVerdict::Mismatch`] with a replayable counterexample.
//!
//! Verdicts are typed: [`EquivVerdict::Mismatch`] carries a
//! [`Counterexample`] (primary-input vector plus the first differing
//! output bus/bit and both observed values) that replays through
//! [`Netlist::eval`] on either side.

use crate::batch::{eval_word, LaneWord};
use crate::netlist::{GateKind, NetId, Netlist};
use std::collections::HashMap;
use std::fmt;

/// Tuning knobs for [`check_equiv_with`].
#[derive(Clone, Copy, Debug)]
pub struct EquivOptions {
    /// Maximum number of live ROBDD nodes before construction aborts and
    /// the checker falls back to batch evaluation.
    pub bdd_node_budget: usize,
    /// Exhaustive enumeration is attempted when the netlists have at
    /// most this many primary inputs (cost `2^n / 64` word passes).
    pub exhaustive_input_limit: u32,
    /// Number of seeded pseudo-random vectors for the final fallback.
    pub random_vectors: u64,
    /// Seed for the random-vector fallback (recorded so mismatches are
    /// replayable).
    pub seed: u64,
}

impl Default for EquivOptions {
    fn default() -> Self {
        EquivOptions {
            bdd_node_budget: 1 << 20,
            exhaustive_input_limit: 20,
            random_vectors: 4096,
            seed: 0x0E9_11A1,
        }
    }
}

/// How a verdict was reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EquivMethod {
    /// Structural hash-consing found every output pair in one class.
    Structural,
    /// Canonical ROBDDs compared equal (or produced the mismatch path).
    Bdd,
    /// All `2^n` input vectors were enumerated.
    Exhaustive,
    /// Seeded random vectors (probabilistic on the equivalent side).
    RandomBatch,
}

impl EquivMethod {
    /// Stable lowercase label for CSV rows and metrics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EquivMethod::Structural => "structural",
            EquivMethod::Bdd => "bdd",
            EquivMethod::Exhaustive => "exhaustive",
            EquivMethod::RandomBatch => "random-batch",
        }
    }
}

/// A concrete distinguishing input: replay with `left.eval(&inputs)` /
/// `right.eval(&inputs)` and compare bit `bit` of output bus `bus`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// Primary-input vector, in [`Netlist::inputs`] order.
    pub inputs: Vec<bool>,
    /// Name of the first differing output bus.
    pub bus: String,
    /// Bit position within the bus.
    pub bit: usize,
    /// Value the left netlist settles to.
    pub left: bool,
    /// Value the right netlist settles to.
    pub right: bool,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits: String = self.inputs.iter().map(|&b| if b { '1' } else { '0' }).collect();
        write!(
            f,
            "inputs={bits} {}[{}]: left={} right={}",
            self.bus, self.bit, self.left as u8, self.right as u8
        )
    }
}

/// The checker's typed answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquivVerdict {
    /// The netlists compute the same function on every input (a proof).
    Equivalent {
        /// The stage that produced the proof.
        method: EquivMethod,
    },
    /// No distinguishing vector was found, but the method was sampling,
    /// not exhaustive — equivalence is *likely*, not proven.
    ProbablyEquivalent {
        /// Always [`EquivMethod::RandomBatch`] today.
        method: EquivMethod,
        /// How many vectors were checked.
        vectors: u64,
    },
    /// The netlists differ; `counterexample` replays the disagreement.
    Mismatch {
        /// The stage that found the distinguishing vector.
        method: EquivMethod,
        /// A concrete input on which the outputs differ.
        counterexample: Counterexample,
    },
}

impl EquivVerdict {
    /// True for both [`Equivalent`](Self::Equivalent) and
    /// [`ProbablyEquivalent`](Self::ProbablyEquivalent).
    #[must_use]
    pub fn is_equivalent(&self) -> bool {
        !matches!(self, EquivVerdict::Mismatch { .. })
    }

    /// True only when the verdict is a proof (structural, BDD, or
    /// exhaustive — not random sampling).
    #[must_use]
    pub fn is_proof(&self) -> bool {
        matches!(self, EquivVerdict::Equivalent { .. } | EquivVerdict::Mismatch { .. })
    }

    /// The method that decided the verdict.
    #[must_use]
    pub fn method(&self) -> EquivMethod {
        match self {
            EquivVerdict::Equivalent { method }
            | EquivVerdict::ProbablyEquivalent { method, .. }
            | EquivVerdict::Mismatch { method, .. } => *method,
        }
    }

    /// Stable lowercase label ("equivalent" / "probably-equivalent" /
    /// "mismatch") for CSV rows and metrics.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            EquivVerdict::Equivalent { .. } => "equivalent",
            EquivVerdict::ProbablyEquivalent { .. } => "probably-equivalent",
            EquivVerdict::Mismatch { .. } => "mismatch",
        }
    }
}

/// Why a comparison could not even start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquivError {
    /// The netlists declare different numbers of primary inputs.
    InputCountMismatch {
        /// Inputs on the left netlist.
        left: usize,
        /// Inputs on the right netlist.
        right: usize,
    },
    /// An output bus exists on one side only, or with different widths.
    /// Width `None` means the bus is absent on that side.
    OutputBusMismatch {
        /// The offending bus name.
        bus: String,
        /// Bus width on the left (if present).
        left: Option<usize>,
        /// Bus width on the right (if present).
        right: Option<usize>,
    },
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivError::InputCountMismatch { left, right } => {
                write!(f, "input count mismatch: left has {left}, right has {right}")
            }
            EquivError::OutputBusMismatch { bus, left, right } => {
                let w = |o: &Option<usize>| {
                    o.map_or_else(|| "absent".to_owned(), |n| format!("{n} bit(s)"))
                };
                write!(f, "output bus {bus:?}: left {}, right {}", w(left), w(right))
            }
        }
    }
}

impl std::error::Error for EquivError {}

/// Checks combinational equivalence with [`EquivOptions::default`].
///
/// # Errors
///
/// [`EquivError`] if the interfaces don't line up (input counts, output
/// bus names/widths).
pub fn check_equiv(left: &Netlist, right: &Netlist) -> Result<EquivVerdict, EquivError> {
    check_equiv_with(left, right, &EquivOptions::default())
}

/// Checks combinational equivalence of two netlists.
///
/// Inputs are matched positionally (in [`Netlist::inputs`] order),
/// outputs by bus name and bit position. The staged strategy is
/// described in the [module docs](self).
///
/// # Errors
///
/// [`EquivError`] if the interfaces don't line up; disagreements about
/// *values* are a verdict, not an error.
pub fn check_equiv_with(
    left: &Netlist,
    right: &Netlist,
    opts: &EquivOptions,
) -> Result<EquivVerdict, EquivError> {
    check_interfaces(left, right)?;

    if structurally_equal(left, right) {
        return Ok(EquivVerdict::Equivalent { method: EquivMethod::Structural });
    }

    let order = variable_order(left, right);
    if let Ok(verdict) = bdd_compare(left, right, &order, opts.bdd_node_budget) {
        return Ok(verdict);
    }

    let n = left.inputs().len();
    if n as u32 <= opts.exhaustive_input_limit {
        return Ok(exhaustive_compare(left, right));
    }
    Ok(random_compare(left, right, opts.random_vectors, opts.seed))
}

fn check_interfaces(left: &Netlist, right: &Netlist) -> Result<(), EquivError> {
    if left.inputs().len() != right.inputs().len() {
        return Err(EquivError::InputCountMismatch {
            left: left.inputs().len(),
            right: right.inputs().len(),
        });
    }
    for (name, bits) in left.outputs() {
        match right.try_output(name) {
            Ok(r) if r.len() == bits.len() => {}
            Ok(r) => {
                return Err(EquivError::OutputBusMismatch {
                    bus: name.to_owned(),
                    left: Some(bits.len()),
                    right: Some(r.len()),
                })
            }
            Err(_) => {
                return Err(EquivError::OutputBusMismatch {
                    bus: name.to_owned(),
                    left: Some(bits.len()),
                    right: None,
                })
            }
        }
    }
    for (name, bits) in right.outputs() {
        if left.try_output(name).is_err() {
            return Err(EquivError::OutputBusMismatch {
                bus: name.to_owned(),
                left: None,
                right: Some(bits.len()),
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Stage 1: structural hashing
// ---------------------------------------------------------------------------

/// Structural class key: gate kind (with constants folded into two
/// polarity kinds), plus operand class ids — sorted for commutative
/// kinds so `and(a, b)` and `and(b, a)` share a class.
#[derive(Clone, Copy, Hash, PartialEq, Eq)]
enum ClassKey {
    Input(u32),
    Const(bool),
    Gate(GateKind, [u32; 3]),
}

fn commutative(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::And
            | GateKind::Or
            | GateKind::Xor
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Xnor
    )
}

/// Hash-conses `netlist` into `classes`, returning each net's class id.
fn classify(netlist: &Netlist, classes: &mut HashMap<ClassKey, u32>) -> Vec<u32> {
    let input_pos: HashMap<NetId, u32> =
        netlist.inputs().iter().enumerate().map(|(i, &n)| (n, i as u32)).collect();
    // One zero-input pass recovers every constant's (input-independent)
    // settled polarity.
    let const_vals = netlist.eval(&vec![false; netlist.inputs().len()]);
    let mut class_of = vec![0u32; netlist.len()];
    for net in netlist.nets() {
        let key = match netlist.kind(net) {
            GateKind::Input => ClassKey::Input(input_pos[&net]),
            GateKind::Const => ClassKey::Const(const_vals[net.index()]),
            kind => {
                let ins = netlist.gate_inputs(net);
                let mut ops = [u32::MAX; 3];
                for (slot, &i) in ops.iter_mut().zip(ins) {
                    *slot = class_of[i.index()];
                }
                if commutative(kind) {
                    ops[..ins.len()].sort_unstable();
                }
                ClassKey::Gate(kind, ops)
            }
        };
        let next = classes.len() as u32;
        class_of[net.index()] = *classes.entry(key).or_insert(next);
    }
    class_of
}

fn structurally_equal(left: &Netlist, right: &Netlist) -> bool {
    let mut classes = HashMap::new();
    let lc = classify(left, &mut classes);
    let rc = classify(right, &mut classes);
    left.outputs().all(|(name, lbits)| {
        let rbits = right.output(name);
        lbits.iter().zip(rbits).all(|(&l, &r)| lc[l.index()] == rc[r.index()])
    })
}

// ---------------------------------------------------------------------------
// Stage 2: ROBDD
// ---------------------------------------------------------------------------

/// Input variable ordering: inputs that feed logic *earlier* (shallower
/// levels, in the levelized topological order the batch engine also
/// uses) get smaller variable indices. Related digits of the two
/// operands tend to interleave under this order, which is the classic
/// good ordering for adder-shaped circuits; a poor order here only costs
/// BDD size, never soundness.
fn variable_order(left: &Netlist, right: &Netlist) -> Vec<u32> {
    let n = left.inputs().len();
    let mut first_use = vec![u64::MAX; n];
    for (nl_idx, nl) in [left, right].into_iter().enumerate() {
        let input_pos: HashMap<NetId, usize> =
            nl.inputs().iter().enumerate().map(|(i, &net)| (net, i)).collect();
        // Levelize: level 0 for sources, 1 + max(input levels) for logic.
        let mut level = vec![0u64; nl.len()];
        for net in nl.nets() {
            if nl.kind(net).is_logic() {
                level[net.index()] =
                    1 + nl.gate_inputs(net).iter().map(|i| level[i.index()]).max().unwrap_or(0);
            }
        }
        for net in nl.nets() {
            for &src in nl.gate_inputs(net) {
                if let Some(&pos) = input_pos.get(&src) {
                    // Key on (level of first consumer, net index) so ties
                    // break deterministically; fold both netlists in.
                    let key = level[net.index()] * (nl.len() as u64 + 1)
                        + net.index() as u64
                        + nl_idx as u64;
                    first_use[pos] = first_use[pos].min(key);
                }
            }
        }
    }
    let mut by_use: Vec<u32> = (0..n as u32).collect();
    by_use.sort_by_key(|&p| (first_use[p as usize], p));
    // rank[input position] = BDD variable index.
    let mut rank = vec![0u32; n];
    for (var, &pos) in by_use.iter().enumerate() {
        rank[pos as usize] = var as u32;
    }
    rank
}

struct BudgetExceeded;

const BDD_FALSE: u32 = 0;
const BDD_TRUE: u32 = 1;

#[derive(Clone, Copy)]
struct BddNode {
    var: u32,
    lo: u32,
    hi: u32,
}

/// A reduced ordered BDD forest with a unique table and memoized binary
/// apply. Node ids are canonical: two equal functions share one id.
struct Bdd {
    nodes: Vec<BddNode>,
    unique: HashMap<(u32, u32, u32), u32>,
    apply_cache: HashMap<(u8, u32, u32), u32>,
    budget: usize,
}

/// Binary operations `apply` understands, as truth-table nibbles
/// (bit `2*a + b` of the nibble is `op(a, b)`).
const OP_AND: u8 = 0b1000;
const OP_OR: u8 = 0b1110;
const OP_XOR: u8 = 0b0110;

impl Bdd {
    fn new(budget: usize) -> Self {
        let terminal = |_: u32| BddNode { var: u32::MAX, lo: 0, hi: 0 };
        Bdd {
            nodes: vec![terminal(0), terminal(1)],
            unique: HashMap::new(),
            apply_cache: HashMap::new(),
            budget,
        }
    }

    fn is_terminal(&self, id: u32) -> bool {
        id <= BDD_TRUE
    }

    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> Result<u32, BudgetExceeded> {
        if lo == hi {
            return Ok(lo);
        }
        if let Some(&id) = self.unique.get(&(var, lo, hi)) {
            return Ok(id);
        }
        if self.nodes.len() >= self.budget {
            return Err(BudgetExceeded);
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(BddNode { var, lo, hi });
        self.unique.insert((var, lo, hi), id);
        Ok(id)
    }

    fn var(&mut self, var: u32) -> Result<u32, BudgetExceeded> {
        self.mk(var, BDD_FALSE, BDD_TRUE)
    }

    fn constant(&self, value: bool) -> u32 {
        if value {
            BDD_TRUE
        } else {
            BDD_FALSE
        }
    }

    fn eval_op(op: u8, a: bool, b: bool) -> bool {
        (op >> (2 * a as u8 + b as u8)) & 1 == 1
    }

    fn apply(&mut self, op: u8, a: u32, b: u32) -> Result<u32, BudgetExceeded> {
        if self.is_terminal(a) && self.is_terminal(b) {
            return Ok(self.constant(Self::eval_op(op, a == BDD_TRUE, b == BDD_TRUE)));
        }
        // AND/OR/XOR are commutative: normalize the cache key.
        let key = if a <= b { (op, a, b) } else { (op, b, a) };
        if let Some(&id) = self.apply_cache.get(&key) {
            return Ok(id);
        }
        let (va, vb) = (self.nodes[a as usize].var, self.nodes[b as usize].var);
        let split = va.min(vb);
        let (alo, ahi) = if va == split {
            (self.nodes[a as usize].lo, self.nodes[a as usize].hi)
        } else {
            (a, a)
        };
        let (blo, bhi) = if vb == split {
            (self.nodes[b as usize].lo, self.nodes[b as usize].hi)
        } else {
            (b, b)
        };
        let lo = self.apply(op, alo, blo)?;
        let hi = self.apply(op, ahi, bhi)?;
        let id = self.mk(split, lo, hi)?;
        self.apply_cache.insert(key, id);
        Ok(id)
    }

    fn not(&mut self, a: u32) -> Result<u32, BudgetExceeded> {
        self.apply(OP_XOR, a, BDD_TRUE)
    }

    fn mux(&mut self, sel: u32, a: u32, b: u32) -> Result<u32, BudgetExceeded> {
        // sel ? a : b == (sel & a) | (!sel & b)
        let sa = self.apply(OP_AND, sel, a)?;
        let ns = self.not(sel)?;
        let nsb = self.apply(OP_AND, ns, b)?;
        self.apply(OP_OR, sa, nsb)
    }

    /// Builds the BDD of every net, in topological (index) order.
    fn build(&mut self, nl: &Netlist, rank: &[u32]) -> Result<Vec<u32>, BudgetExceeded> {
        let input_pos: HashMap<NetId, usize> =
            nl.inputs().iter().enumerate().map(|(i, &net)| (net, i)).collect();
        let const_vals = nl.eval(&vec![false; nl.inputs().len()]);
        let mut f = vec![BDD_FALSE; nl.len()];
        for net in nl.nets() {
            let i = net.index();
            let ins: Vec<u32> = nl.gate_inputs(net).iter().map(|src| f[src.index()]).collect();
            f[i] = match nl.kind(net) {
                GateKind::Input => self.var(rank[input_pos[&net]])?,
                GateKind::Const => self.constant(const_vals[i]),
                GateKind::Not => self.not(ins[0])?,
                GateKind::And => self.apply(OP_AND, ins[0], ins[1])?,
                GateKind::Or => self.apply(OP_OR, ins[0], ins[1])?,
                GateKind::Xor => self.apply(OP_XOR, ins[0], ins[1])?,
                GateKind::Nand => {
                    let x = self.apply(OP_AND, ins[0], ins[1])?;
                    self.not(x)?
                }
                GateKind::Nor => {
                    let x = self.apply(OP_OR, ins[0], ins[1])?;
                    self.not(x)?
                }
                GateKind::Xnor => {
                    let x = self.apply(OP_XOR, ins[0], ins[1])?;
                    self.not(x)?
                }
                GateKind::Mux => self.mux(ins[0], ins[1], ins[2])?,
            };
        }
        Ok(f)
    }

    /// Walks any path from `id` to the TRUE terminal, assigning variables
    /// along the way. Every non-terminal ROBDD node reaches both
    /// terminals, so greedily preferring the non-FALSE branch terminates
    /// at TRUE. Unconstrained variables stay `false`.
    fn satisfying_assignment(&self, mut id: u32, num_vars: usize) -> Vec<bool> {
        let mut assign = vec![false; num_vars];
        while !self.is_terminal(id) {
            let node = self.nodes[id as usize];
            if node.hi == BDD_FALSE {
                id = node.lo;
            } else {
                assign[node.var as usize] = true;
                id = node.hi;
            }
        }
        debug_assert_eq!(id, BDD_TRUE, "walked a FALSE BDD");
        assign
    }
}

fn bdd_compare(
    left: &Netlist,
    right: &Netlist,
    rank: &[u32],
    budget: usize,
) -> Result<EquivVerdict, BudgetExceeded> {
    let mut bdd = Bdd::new(budget);
    let lf = bdd.build(left, rank)?;
    let rf = bdd.build(right, rank)?;
    for (name, lbits) in left.outputs() {
        let rbits = right.output(name);
        for (bit, (&l, &r)) in lbits.iter().zip(rbits).enumerate() {
            let (fl, fr) = (lf[l.index()], rf[r.index()]);
            if fl == fr {
                continue;
            }
            // Canonical ids differ, so the XOR is satisfiable.
            let diff = bdd.apply(OP_XOR, fl, fr)?;
            debug_assert_ne!(diff, BDD_FALSE, "unequal canonical BDDs must differ somewhere");
            let by_var = bdd.satisfying_assignment(diff, rank.len());
            // Map variable indices back to input positions.
            let mut inputs = vec![false; rank.len()];
            for (pos, &var) in rank.iter().enumerate() {
                inputs[pos] = by_var[var as usize];
            }
            let lv = left.eval(&inputs)[l.index()];
            let rv = right.eval(&inputs)[r.index()];
            debug_assert_ne!(lv, rv, "BDD counterexample must replay");
            return Ok(EquivVerdict::Mismatch {
                method: EquivMethod::Bdd,
                counterexample: Counterexample {
                    inputs,
                    bus: name.to_owned(),
                    bit,
                    left: lv,
                    right: rv,
                },
            });
        }
    }
    Ok(EquivVerdict::Equivalent { method: EquivMethod::Bdd })
}

// ---------------------------------------------------------------------------
// Stages 3 & 4: word-parallel batch evaluation
// ---------------------------------------------------------------------------

/// Evaluates every net 64 lanes at a time: `words[i]` carries input `i`'s
/// value across 64 vectors, bit `l` = lane `l`. Same bit-slicing and
/// gate table ([`eval_word`]) as the batch engine, but functional
/// (settled values only).
fn eval_words(nl: &Netlist, const_vals: &[bool], words: &[u64]) -> Vec<u64> {
    let mut vals = vec![0u64; nl.len()];
    let mut next_input = 0;
    for net in nl.nets() {
        let i = net.index();
        let ins = nl.gate_inputs(net);
        let v = |k: usize| ins.get(k).map_or(0, |p| vals[p.index()]);
        vals[i] = match nl.kind(net) {
            GateKind::Input => {
                let w = words[next_input];
                next_input += 1;
                w
            }
            GateKind::Const => u64::splat(const_vals[i]),
            kind => eval_word::<u64>(kind, v(0), v(1), v(2)),
        };
    }
    vals
}

/// Compares outputs for one 64-lane batch; on a difference within
/// `lane_mask`, decodes the lowest differing lane into a counterexample.
/// Settled constant polarities for both sides, computed once per
/// comparison (not per 64-lane batch).
struct ConstVals {
    left: Vec<bool>,
    right: Vec<bool>,
}

impl ConstVals {
    fn of(left: &Netlist, right: &Netlist) -> ConstVals {
        ConstVals {
            left: left.eval(&vec![false; left.inputs().len()]),
            right: right.eval(&vec![false; right.inputs().len()]),
        }
    }
}

fn compare_batch(
    left: &Netlist,
    right: &Netlist,
    consts: &ConstVals,
    words: &[u64],
    lane_mask: u64,
    method: EquivMethod,
) -> Option<EquivVerdict> {
    let lv = eval_words(left, &consts.left, words);
    let rv = eval_words(right, &consts.right, words);
    for (name, lbits) in left.outputs() {
        let rbits = right.output(name);
        for (bit, (&l, &r)) in lbits.iter().zip(rbits).enumerate() {
            let diff = (lv[l.index()] ^ rv[r.index()]) & lane_mask;
            if diff != 0 {
                let lane = diff.trailing_zeros();
                let inputs: Vec<bool> = words.iter().map(|&w| (w >> lane) & 1 == 1).collect();
                return Some(EquivVerdict::Mismatch {
                    method,
                    counterexample: Counterexample {
                        inputs,
                        bus: name.to_owned(),
                        bit,
                        left: (lv[l.index()] >> lane) & 1 == 1,
                        right: (rv[r.index()] >> lane) & 1 == 1,
                    },
                });
            }
        }
    }
    None
}

fn exhaustive_compare(left: &Netlist, right: &Netlist) -> EquivVerdict {
    let n = left.inputs().len();
    let total: u64 = 1u64 << n;
    let lane_mask = if total >= 64 { !0 } else { (1u64 << total) - 1 };
    // Lane `l` of chunk `c` is vector `c * 64 + l`: inputs 0..6 cycle
    // within the word, inputs 6.. select the chunk.
    let low_patterns: Vec<u64> =
        (0..n.min(6)).map(|i| (0..64).fold(0u64, |acc, l| acc | (((l >> i) & 1) << l))).collect();
    let chunks = total.div_ceil(64);
    let consts = ConstVals::of(left, right);
    let mut words = vec![0u64; n];
    for c in 0..chunks {
        for (i, w) in words.iter_mut().enumerate() {
            *w = if i < 6 {
                low_patterns[i]
            } else if (c >> (i - 6)) & 1 == 1 {
                !0
            } else {
                0
            };
        }
        if let Some(v) =
            compare_batch(left, right, &consts, &words, lane_mask, EquivMethod::Exhaustive)
        {
            return v;
        }
    }
    EquivVerdict::Equivalent { method: EquivMethod::Exhaustive }
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_compare(left: &Netlist, right: &Netlist, vectors: u64, seed: u64) -> EquivVerdict {
    let n = left.inputs().len();
    let chunks = vectors.div_ceil(64).max(1);
    let consts = ConstVals::of(left, right);
    let mut state = seed;
    let mut words = vec![0u64; n];
    for c in 0..chunks {
        let lanes = (vectors - c * 64).min(64);
        let lane_mask = if lanes >= 64 { !0 } else { (1u64 << lanes) - 1 };
        for w in &mut words {
            *w = splitmix64(&mut state);
        }
        if let Some(v) =
            compare_batch(left, right, &consts, &words, lane_mask, EquivMethod::RandomBatch)
        {
            return v;
        }
    }
    EquivVerdict::ProbablyEquivalent { method: EquivMethod::RandomBatch, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively confirms a verdict against `Netlist::eval`.
    fn brute_agrees(left: &Netlist, right: &Netlist) -> bool {
        let n = left.inputs().len();
        assert!(n <= 16, "brute force check is exponential");
        (0..1u64 << n).all(|v| {
            let inputs: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
            let lv = left.eval(&inputs);
            let rv = right.eval(&inputs);
            left.outputs().all(|(name, lbits)| {
                lbits.iter().zip(right.output(name)).all(|(&l, &r)| lv[l.index()] == rv[r.index()])
            })
        })
    }

    fn xor3_direct() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let c = nl.input("c");
        let ab = nl.xor(a, b);
        let abc = nl.xor(ab, c);
        nl.set_output("y", [abc]);
        nl
    }

    fn xor3_via_muxes() -> Netlist {
        // Same function, structurally different: xor as mux(sel, !x, x).
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let c = nl.input("c");
        let nb = nl.not(b);
        let ab = nl.mux(a, nb, b);
        let nab = nl.not(ab);
        let abc = nl.mux(c, nab, ab);
        nl.set_output("y", [abc]);
        nl
    }

    #[test]
    fn identical_construction_is_structurally_equivalent() {
        let v = check_equiv(&xor3_direct(), &xor3_direct()).unwrap();
        assert_eq!(v, EquivVerdict::Equivalent { method: EquivMethod::Structural });
    }

    #[test]
    fn commuted_operands_are_structurally_equivalent() {
        let mut a = Netlist::new();
        let (x, y) = (a.input("x"), a.input("y"));
        let g = a.and(x, y);
        a.set_output("z", [g]);
        let mut b = Netlist::new();
        let (x, y) = (b.input("x"), b.input("y"));
        let g = b.and(y, x);
        b.set_output("z", [g]);
        let v = check_equiv(&a, &b).unwrap();
        assert_eq!(v, EquivVerdict::Equivalent { method: EquivMethod::Structural });
    }

    #[test]
    fn functionally_equal_but_structurally_different_proved_by_bdd() {
        let v = check_equiv(&xor3_direct(), &xor3_via_muxes()).unwrap();
        assert_eq!(v, EquivVerdict::Equivalent { method: EquivMethod::Bdd });
        assert!(brute_agrees(&xor3_direct(), &xor3_via_muxes()));
    }

    #[test]
    fn mismatch_yields_replayable_counterexample() {
        let mut wrong = xor3_direct();
        // Re-tag the output to an AND of the first two inputs: wrong.
        let a = wrong.net(0);
        let b = wrong.net(1);
        let g = wrong.and(a, b);
        wrong.set_output("y", [g]);
        let good = xor3_direct();
        let v = check_equiv(&good, &wrong).unwrap();
        let EquivVerdict::Mismatch { method, counterexample } = v else {
            panic!("expected mismatch, got {v:?}");
        };
        assert_eq!(method, EquivMethod::Bdd);
        // The counterexample replays through plain eval on both sides.
        let lv = good.eval(&counterexample.inputs);
        let rv = wrong.eval(&counterexample.inputs);
        let lbit = good.output(&counterexample.bus)[counterexample.bit];
        let rbit = wrong.output(&counterexample.bus)[counterexample.bit];
        assert_eq!(lv[lbit.index()], counterexample.left);
        assert_eq!(rv[rbit.index()], counterexample.right);
        assert_ne!(counterexample.left, counterexample.right);
    }

    #[test]
    fn budget_blowout_falls_back_to_exhaustive_proof() {
        let opts = EquivOptions { bdd_node_budget: 4, ..EquivOptions::default() };
        let v = check_equiv_with(&xor3_direct(), &xor3_via_muxes(), &opts).unwrap();
        assert_eq!(v, EquivVerdict::Equivalent { method: EquivMethod::Exhaustive });
    }

    #[test]
    fn budget_and_input_blowout_fall_back_to_random_sampling() {
        // 24 inputs exceeds the (reduced) exhaustive limit; the random
        // stage still finds the single-bit discrepancy injected at a
        // specific input combination? No — random sampling proves
        // nothing, but a clean run must say so honestly.
        let wide = |flip: bool| {
            let mut nl = Netlist::new();
            let ins: Vec<NetId> = (0..24).map(|i| nl.input(&format!("i{i}"))).collect();
            let mut acc = ins[0];
            for &i in &ins[1..] {
                acc = nl.xor(acc, i);
            }
            if flip {
                acc = nl.not(acc);
            }
            nl.set_output("y", [acc]);
            nl
        };
        let opts = EquivOptions {
            bdd_node_budget: 4,
            exhaustive_input_limit: 12,
            random_vectors: 256,
            ..EquivOptions::default()
        };
        let v = check_equiv_with(&wide(false), &wide(false), &opts).unwrap();
        // Identical constructions short-circuit structurally even with a
        // tiny BDD budget.
        assert_eq!(v, EquivVerdict::Equivalent { method: EquivMethod::Structural });

        let v = check_equiv_with(&wide(false), &wide(true), &opts).unwrap();
        let EquivVerdict::Mismatch { method, counterexample } = v else {
            panic!("inverted output must mismatch, got {v:?}");
        };
        assert_eq!(method, EquivMethod::RandomBatch);
        assert_ne!(counterexample.left, counterexample.right);
    }

    #[test]
    fn interface_mismatches_are_errors_not_verdicts() {
        let mut one_in = Netlist::new();
        let a = one_in.input("a");
        one_in.set_output("y", [a]);
        let err = check_equiv(&xor3_direct(), &one_in).unwrap_err();
        assert_eq!(err, EquivError::InputCountMismatch { left: 3, right: 1 });

        let mut renamed = xor3_direct();
        let bit = renamed.output("y")[0];
        renamed.set_output("z", [bit]);
        // `renamed` now has both "y" and "z"; the right side misses "z".
        let err = check_equiv(&renamed, &xor3_direct()).unwrap_err();
        assert_eq!(
            err,
            EquivError::OutputBusMismatch { bus: "z".into(), left: Some(1), right: None }
        );
    }

    #[test]
    fn constants_fold_into_polarity_classes() {
        let mut a = Netlist::new();
        let x = a.input("x");
        let t = a.constant(true);
        let g = a.try_gate(GateKind::And, &[x, t]).unwrap();
        a.set_output("y", [g]);
        let mut b = Netlist::new();
        let x = b.input("x");
        b.set_output("y", [x]);
        // Not structurally equal (different shapes) but BDD-provable.
        let v = check_equiv(&a, &b).unwrap();
        assert_eq!(v, EquivVerdict::Equivalent { method: EquivMethod::Bdd });
    }

    #[test]
    fn zero_input_netlists_compare() {
        let mk = |v: bool| {
            let mut nl = Netlist::new();
            let c = nl.constant(v);
            nl.set_output("y", [c]);
            nl
        };
        assert!(check_equiv(&mk(true), &mk(true)).unwrap().is_equivalent());
        let v = check_equiv(&mk(true), &mk(false)).unwrap();
        assert!(!v.is_equivalent());
    }

    #[test]
    fn exhaustive_stage_covers_all_lanes_of_partial_chunks() {
        // 3 inputs → 8 vectors in one partially-masked 64-lane word; a
        // function differing only at the all-ones vector must be caught.
        let mk = |and_all: bool| {
            let mut nl = Netlist::new();
            let a = nl.input("a");
            let b = nl.input("b");
            let c = nl.input("c");
            let ab = nl.and(a, b);
            let abc = nl.and(ab, c);
            let out = if and_all { abc } else { nl.constant(false) };
            nl.set_output("y", [out]);
            nl
        };
        let opts = EquivOptions { bdd_node_budget: 4, ..EquivOptions::default() };
        let v = check_equiv_with(&mk(true), &mk(false), &opts).unwrap();
        let EquivVerdict::Mismatch { method, counterexample } = v else {
            panic!("expected mismatch, got {v:?}");
        };
        assert_eq!(method, EquivMethod::Exhaustive);
        assert_eq!(counterexample.inputs, vec![true, true, true]);
    }

    #[test]
    fn counterexample_display_is_compact() {
        let cex = Counterexample {
            inputs: vec![true, false, true],
            bus: "y".into(),
            bit: 0,
            left: true,
            right: false,
        };
        assert_eq!(cex.to_string(), "inputs=101 y[0]: left=1 right=0");
    }
}
