//! The elaborator: lowers a [`Dfg`] to one flat gate-level
//! [`Netlist`] in either arithmetic style.
//!
//! * **Online** ([`Style::Online`]): every edge is a borrow-save digit
//!   bus (MSD-first `(p, n)` planes). Adds and subtracts compose the
//!   digit-parallel online adder ([`bs_add_gates`]); multiplies compose
//!   the unrolled online multiplier core
//!   ([`online_multiplier_core`]) after normalizing both operands to MSD
//!   position 1 and zero-padding them to a common length — the
//!   δ-composition rule of [`Dfg::online_windows`]. The settled netlist
//!   is bit-exact against [`Dfg::eval_online`], including multiplier
//!   truncation and non-canonical digit encodings.
//! * **Conventional** ([`Style::Conventional`]): every edge is an
//!   LSB-first two's-complement vector with a fractional weight
//!   ([`Dfg::tc_formats`]). Adds/subtracts are full-precision ripple
//!   CPAs, multiplies are Baugh–Wooley arrays
//!   ([`array_multiplier_core`]); the result is exact against
//!   [`Dfg::eval_exact`].
//!
//! Either way the bus shapes of the produced [`SynthesizedDatapath`]
//! equal the IR's format bookkeeping, so harnesses can encode inputs and
//! decode outputs without consulting the netlist.

use crate::ir::{Dfg, Op};
use ola_arith::synth::bits::{add_signed, encode_const, ripple_add, sign_extend};
use ola_arith::synth::{
    array_multiplier_core, bs_add_gates, fused_mac_gates, online_multiplier_core, BsSignals,
};
use ola_netlist::sta::prune_dead;
use ola_netlist::{NetId, Netlist};
use ola_redundant::{BsVector, Q};

/// The two datapath styles the elaborator can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Style {
    /// MSD-first signed-digit (borrow-save) online arithmetic.
    Online,
    /// LSB-first two's-complement conventional arithmetic.
    Conventional,
}

impl Style {
    /// Stable lowercase name for CSV rows and manifests.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Style::Online => "online",
            Style::Conventional => "conventional",
        }
    }
}

/// Elaboration options.
#[derive(Clone, Copy, Debug)]
pub struct ElabOptions {
    /// Target arithmetic style.
    pub style: Style,
    /// Selection-estimate granularity `t` of every online multiplier
    /// (ignored by the conventional style). Must be ≥ 3.
    pub frac_digits: i32,
    /// Prune logic that cannot reach an output (the unrolled multiplier
    /// recurrence always leaves some behind). Disable only when a harness
    /// needs gate-index-stable netlists (e.g. jittered-delay seeds).
    pub prune: bool,
}

impl ElabOptions {
    /// Defaults for `style`: `frac_digits = 3`, pruning on.
    #[must_use]
    pub fn new(style: Style) -> Self {
        ElabOptions { style, frac_digits: 3, prune: true }
    }

    /// Sets the online selection granularity.
    #[must_use]
    pub fn with_frac_digits(mut self, t: i32) -> Self {
        self.frac_digits = t;
        self
    }

    /// Enables or disables dead-logic pruning.
    #[must_use]
    pub fn with_prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }
}

/// Shape of one I/O port of a synthesized datapath.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortShape {
    /// A borrow-save digit window: the netlist carries the `p` plane then
    /// the `n` plane, MSD first (`digits` nets each).
    Online {
        /// Most significant digit position (weight `2^-msd_pos`).
        msd_pos: i32,
        /// Number of digit positions.
        digits: usize,
    },
    /// An LSB-first two's-complement vector; bit `i` has weight
    /// `2^(i - frac)`.
    Tc {
        /// Number of bits (the last is the sign).
        width: usize,
        /// Fractional weight of the LSB (`2^-frac`).
        frac: i32,
    },
}

impl PortShape {
    /// Number of netlist wires the port occupies.
    #[must_use]
    pub fn wire_count(self) -> usize {
        match self {
            PortShape::Online { digits, .. } => 2 * digits,
            PortShape::Tc { width, .. } => width,
        }
    }
}

/// One named I/O port with its bus shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Port {
    /// Port name (the DFG input/output name).
    pub name: String,
    /// Bus shape.
    pub shape: PortShape,
}

/// A DFG lowered to one flat netlist, with enough port metadata to drive
/// the `ola-core` backends: input encoders, output wire lists, and
/// per-port decoders.
#[derive(Clone, Debug)]
pub struct SynthesizedDatapath {
    /// The gate-level netlist. Online output buses are named
    /// `"{name}p"`/`"{name}n"`; conventional buses are named `"{name}"`.
    pub netlist: Netlist,
    /// The style it was elaborated in.
    pub style: Style,
    /// Input ports, in [`Dfg::inputs`] order (also the netlist's input
    /// ordering).
    pub inputs: Vec<Port>,
    /// Output ports, in [`Dfg::outputs`] order.
    pub outputs: Vec<Port>,
    /// The online selection granularity used (3 for conventional).
    pub frac_digits: i32,
}

impl SynthesizedDatapath {
    /// All output nets, concatenated in port order (online: `p` plane
    /// then `n` plane per port). This is the wire list to watch in the
    /// simulation backends; [`SynthesizedDatapath::decode_output`] reads
    /// values back out of a slice with this layout.
    #[must_use]
    pub fn output_wires(&self) -> Vec<NetId> {
        let mut wires = Vec::new();
        for port in &self.outputs {
            match port.shape {
                PortShape::Online { .. } => {
                    wires.extend_from_slice(self.netlist.output(&format!("{}p", port.name)));
                    wires.extend_from_slice(self.netlist.output(&format!("{}n", port.name)));
                }
                PortShape::Tc { .. } => {
                    wires.extend_from_slice(self.netlist.output(&port.name));
                }
            }
        }
        wires
    }

    /// Per-digit output bit groups for [`ola_netlist::sta::certify()`]: one
    /// group per borrow-save digit (its `p` and `n` nets) or per
    /// two's-complement bit.
    #[must_use]
    pub fn output_digit_groups(&self) -> Vec<Vec<NetId>> {
        let mut groups = Vec::new();
        for port in &self.outputs {
            match port.shape {
                PortShape::Online { digits, .. } => {
                    let p = self.netlist.output(&format!("{}p", port.name)).to_vec();
                    let n = self.netlist.output(&format!("{}n", port.name)).to_vec();
                    for i in 0..digits {
                        groups.push(vec![p[i], n[i]]);
                    }
                }
                PortShape::Tc { .. } => {
                    for &net in self.netlist.output(&port.name) {
                        groups.push(vec![net]);
                    }
                }
            }
        }
        groups
    }

    /// Encodes one borrow-save vector per input port (windows must match)
    /// into the netlist's flat input-bit vector.
    ///
    /// # Panics
    ///
    /// Panics on a port-count, shape, or style mismatch.
    #[must_use]
    pub fn encode_inputs_online(&self, values: &[BsVector]) -> Vec<bool> {
        assert_eq!(self.style, Style::Online, "online encoding on a conventional datapath");
        assert_eq!(values.len(), self.inputs.len(), "input port count mismatch");
        let mut bits = Vec::new();
        for (port, v) in self.inputs.iter().zip(values) {
            let PortShape::Online { msd_pos, digits } = port.shape else {
                unreachable!("online datapaths have online ports");
            };
            assert_eq!(v.msd_pos(), msd_pos, "window MSD mismatch on {:?}", port.name);
            assert_eq!(v.len(), digits, "window length mismatch on {:?}", port.name);
            for i in 0..digits {
                bits.push(v.bits(msd_pos + i as i32).0);
            }
            for i in 0..digits {
                bits.push(v.bits(msd_pos + i as i32).1);
            }
        }
        bits
    }

    /// Encodes one exact rational per input port into the netlist's flat
    /// input-bit vector (two's-complement at each port's format).
    ///
    /// # Panics
    ///
    /// Panics on a port-count or style mismatch, or when a value does not
    /// fit a port's `(width, frac)` format.
    #[must_use]
    pub fn encode_inputs_tc(&self, values: &[Q]) -> Vec<bool> {
        assert_eq!(self.style, Style::Conventional, "tc encoding on an online datapath");
        assert_eq!(values.len(), self.inputs.len(), "input port count mismatch");
        let mut bits = Vec::new();
        for (port, &v) in self.inputs.iter().zip(values) {
            let PortShape::Tc { width, frac } = port.shape else {
                unreachable!("conventional datapaths have tc ports");
            };
            let units = q_to_units(v, frac)
                .unwrap_or_else(|| panic!("{v:?} not representable at frac {frac}"));
            assert!(
                units >= -(1i128 << (width - 1)) && units < (1i128 << (width - 1)),
                "{v:?} does not fit {width} bits at frac {frac}"
            );
            for i in 0..width {
                bits.push(units >> i & 1 == 1);
            }
        }
        bits
    }

    /// Decodes output port `port` from a value slice laid out like
    /// [`SynthesizedDatapath::output_wires`] — settled backend samples,
    /// `Netlist::eval` projections, and the empirical-curve judge all use
    /// this. Online ports decode their (possibly non-canonical)
    /// borrow-save digits to the represented value; conventional ports
    /// decode two's complement. Exact either way — no floating point.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range or `bits` is shorter than the
    /// concatenated output layout.
    #[must_use]
    pub fn decode_output(&self, port: usize, bits: &[bool]) -> Q {
        let mut off = 0usize;
        for p in &self.outputs[..port] {
            off += p.shape.wire_count();
        }
        match self.outputs[port].shape {
            PortShape::Online { msd_pos, digits } => {
                let mut v = BsVector::zero(msd_pos, digits);
                for i in 0..digits {
                    v.set_bits(msd_pos + i as i32, bits[off + i], bits[off + digits + i]);
                }
                v.value()
            }
            PortShape::Tc { width, frac } => {
                let mut units: i128 = 0;
                for i in 0..width {
                    if bits[off + i] {
                        units |= 1 << i;
                    }
                }
                if bits[off + width - 1] {
                    units -= 1 << width;
                }
                units_to_q(units, frac)
            }
        }
    }

    /// Decodes output port `port` as a raw borrow-save vector (online
    /// style only) — the bit-level view [`Dfg::eval_online`] is compared
    /// against.
    ///
    /// # Panics
    ///
    /// Panics on a conventional datapath or an out-of-range port.
    #[must_use]
    pub fn decode_output_bs(&self, port: usize, bits: &[bool]) -> BsVector {
        let mut off = 0usize;
        for p in &self.outputs[..port] {
            off += p.shape.wire_count();
        }
        let PortShape::Online { msd_pos, digits } = self.outputs[port].shape else {
            panic!("decode_output_bs on a conventional port");
        };
        let mut v = BsVector::zero(msd_pos, digits);
        for i in 0..digits {
            v.set_bits(msd_pos + i as i32, bits[off + i], bits[off + digits + i]);
        }
        v
    }
}

/// `v · 2^frac` when that is an integer (`frac` may be negative).
fn q_to_units(v: Q, frac: i32) -> Option<i128> {
    if frac >= 0 {
        v.scaled_to(frac as u32)
    } else {
        let div = 1i128 << (-frac) as u32;
        let n = v.scaled_to(0)?;
        (n % div == 0).then(|| n / div)
    }
}

/// `units · 2^-frac` as an exact rational (`frac` may be negative).
fn units_to_q(units: i128, frac: i32) -> Q {
    if frac >= 0 {
        Q::new(units, frac as u32)
    } else {
        Q::new(units, 0) << (-frac) as u32
    }
}

/// Lowers `dfg` to one flat netlist in the requested style.
///
/// # Panics
///
/// Panics if the graph has no outputs, if `opts.frac_digits < 3`, or (in
/// the conventional style) if a multiplier operand exceeds 31 bits or a
/// constant exceeds 63 bits.
#[must_use]
pub fn elaborate(dfg: &Dfg, opts: &ElabOptions) -> SynthesizedDatapath {
    assert!(!dfg.outputs().is_empty(), "datapath has no outputs");
    assert!(opts.frac_digits >= 3, "selection estimate must cover ≥ 3 fractional digits");
    let _span = ola_core::obs::span("synth.elaborate");
    let datapath = match opts.style {
        Style::Online => elaborate_online(dfg, opts),
        Style::Conventional => elaborate_conventional(dfg, opts),
    };
    ola_core::obs::registry().counter("ola.synth.elaborated").add(1);
    datapath
}

fn elaborate_online(dfg: &Dfg, opts: &ElabOptions) -> SynthesizedDatapath {
    let t = opts.frac_digits;
    let windows = dfg.online_windows();
    let mut nl = Netlist::new();
    let mut sigs: Vec<BsSignals> = Vec::with_capacity(dfg.len());
    let mut inputs = Vec::new();

    for (id, op) in dfg.nodes() {
        let sig = match *op {
            Op::Input { ref name, fmt } => {
                let p = nl.input_bus(&format!("{name}p"), fmt.digits);
                let n = nl.input_bus(&format!("{name}n"), fmt.digits);
                inputs.push(Port {
                    name: name.clone(),
                    shape: PortShape::Online { msd_pos: fmt.msd_pos, digits: fmt.digits },
                });
                BsSignals::from_nets(fmt.msd_pos, p, n)
            }
            Op::Const(c) => {
                let (sd, k) = crate::ir::const_sd(c);
                BsSignals::constant(&mut nl, &sd).shifted(k)
            }
            Op::Add(a, b) => bs_add_gates(&mut nl, &sigs[a.index()], &sigs[b.index()]),
            Op::Sub(a, b) => {
                let nb = sigs[b.index()].negated();
                bs_add_gates(&mut nl, &sigs[a.index()], &nb)
            }
            Op::Neg(a) => sigs[a.index()].negated(),
            Op::Mul(a, b) => {
                let (xa, xb) = (sigs[a.index()].clone(), sigs[b.index()].clone());
                mul_gates(&mut nl, &xa, &xb, t)
            }
            Op::ConstMul(c, a) => {
                let (sd, k) = crate::ir::const_sd(c);
                let cs = BsSignals::constant(&mut nl, &sd).shifted(k);
                let xa = sigs[a.index()].clone();
                mul_gates(&mut nl, &cs, &xa, t)
            }
            Op::Mac(ref terms) => {
                // Fused lowering: redundant accumulation end to end — no
                // selection CPAs, no per-product digitization.
                let pairs: Vec<(BsSignals, BsSignals)> = terms
                    .iter()
                    .map(|&(a, b)| (sigs[a.index()].clone(), sigs[b.index()].clone()))
                    .collect();
                let reg = ola_core::obs::registry();
                reg.counter("ola.synth.mac.fused_lowered").add(1);
                reg.counter("ola.synth.mac.terms").add(terms.len() as u64);
                fused_mac_gates(&mut nl, &pairs)
            }
        };
        debug_assert_eq!(
            (sig.msd_pos(), sig.len()),
            windows[id.index()],
            "elaborated window drifted from the IR bookkeeping"
        );
        sigs.push(sig);
    }

    let mut outputs = Vec::new();
    for (name, node) in dfg.outputs() {
        let sig = &sigs[node.index()];
        let (p, n) = sig.flat_nets();
        nl.set_output(&format!("{name}p"), p);
        nl.set_output(&format!("{name}n"), n);
        outputs.push(Port {
            name: name.clone(),
            shape: PortShape::Online { msd_pos: sig.msd_pos(), digits: sig.len() },
        });
    }

    let nl = if opts.prune { prune_with_gate(&nl) } else { nl };
    SynthesizedDatapath { netlist: nl, style: Style::Online, inputs, outputs, frac_digits: t }
}

/// Prunes unreachable logic, proving — under the [`crate::verify`]
/// `OLA_PROVE_REWRITES` debug gate — that the surviving cone is
/// bit-for-bit equivalent to the full netlist on every output bus.
fn prune_with_gate(nl: &Netlist) -> Netlist {
    let pruned = prune_dead(nl);
    crate::verify::debug_prove_netlist_rewrite("prune-dead", nl, &pruned);
    pruned
}

/// The online multiply lowering: normalize both operands to MSD position
/// 1 (pure rewiring), zero-pad to a common length, instantiate the
/// unrolled multiplier core, and shift the product window back —
/// mirroring [`crate::ir::Dfg::eval_online`]'s `mul_online` exactly.
fn mul_gates(nl: &mut Netlist, x: &BsSignals, y: &BsSignals, t: i32) -> BsSignals {
    let delta = ola_arith::online::DELTA as i32;
    let (sx, sy) = (x.msd_pos() - 1, y.msd_pos() - 1);
    let n = x.len().max(y.len()).max(1);
    let xs = pad_to(nl, &x.shifted(sx), n);
    let ys = pad_to(nl, &y.shifted(sy), n);
    let (zp, zn) = online_multiplier_core(nl, &xs, &ys, n, t);
    BsSignals::from_nets(1 - delta, zp, zn).shifted(-(sx + sy))
}

/// Zero-pads a MSD-position-1 bus to `n` digit positions (wires only).
fn pad_to(nl: &mut Netlist, v: &BsSignals, n: usize) -> BsSignals {
    let mut p = Vec::with_capacity(n);
    let mut nn = Vec::with_capacity(n);
    for pos in 1..=n as i32 {
        let (bp, bn) = v.bits(nl, pos);
        p.push(bp);
        nn.push(bn);
    }
    BsSignals::from_nets(1, p, nn)
}

/// A conventional edge: LSB-first bits plus the fractional weight of the
/// LSB.
struct TcSignal {
    bits: Vec<NetId>,
    frac: i32,
}

fn elaborate_conventional(dfg: &Dfg, opts: &ElabOptions) -> SynthesizedDatapath {
    let formats = dfg.tc_formats();
    let mut nl = Netlist::new();
    let mut sigs: Vec<TcSignal> = Vec::with_capacity(dfg.len());
    let mut inputs = Vec::new();

    for (id, op) in dfg.nodes() {
        let sig = match *op {
            Op::Input { ref name, fmt } => {
                let width = fmt.digits + 1;
                let frac = fmt.msd_pos + fmt.digits as i32 - 1;
                let bits = nl.input_bus(name, width);
                inputs.push(Port { name: name.clone(), shape: PortShape::Tc { width, frac } });
                TcSignal { bits, frac }
            }
            Op::Const(c) => {
                let (width, frac) = crate::ir::const_tc_format(c);
                let units = if c.is_zero() { 0 } else { c.numerator() };
                assert!(width <= 63, "constant too wide for the conventional lowering");
                let bits = encode_const(&mut nl, units as i64, width);
                TcSignal { bits, frac }
            }
            Op::Add(a, b) => {
                let (av, bv) = align(&mut nl, &sigs[a.index()], &sigs[b.index()]);
                let frac = sigs[a.index()].frac.max(sigs[b.index()].frac);
                TcSignal { bits: add_signed(&mut nl, &av, &bv), frac }
            }
            Op::Sub(a, b) => {
                let (av, bv) = align(&mut nl, &sigs[a.index()], &sigs[b.index()]);
                let frac = sigs[a.index()].frac.max(sigs[b.index()].frac);
                let width = av.len().max(bv.len()) + 1;
                let ax = sign_extend(&mut nl, &av, width);
                let bx = sign_extend(&mut nl, &bv, width);
                let nb: Vec<NetId> = bx.iter().map(|&x| nl.not(x)).collect();
                let one = nl.constant(true);
                TcSignal { bits: ripple_add(&mut nl, &ax, &nb, one).0, frac }
            }
            Op::Neg(a) => {
                let width = sigs[a.index()].bits.len() + 1;
                let ax = sign_extend(&mut nl, &sigs[a.index()].bits, width);
                let na: Vec<NetId> = ax.iter().map(|&x| nl.not(x)).collect();
                let zeros = vec![nl.constant(false); width];
                let one = nl.constant(true);
                TcSignal {
                    bits: ripple_add(&mut nl, &na, &zeros, one).0,
                    frac: sigs[a.index()].frac,
                }
            }
            Op::Mul(a, b) => {
                let (ab, af) = (sigs[a.index()].bits.clone(), sigs[a.index()].frac);
                let (bb, bf) = (sigs[b.index()].bits.clone(), sigs[b.index()].frac);
                mul_tc(&mut nl, &ab, af, &bb, bf)
            }
            Op::ConstMul(c, a) => {
                let (width, frac) = crate::ir::const_tc_format(c);
                let units = if c.is_zero() { 0 } else { c.numerator() };
                assert!(width <= 63, "constant too wide for the conventional lowering");
                let cb = encode_const(&mut nl, units as i64, width);
                let (ab, af) = (sigs[a.index()].bits.clone(), sigs[a.index()].frac);
                mul_tc(&mut nl, &cb, frac, &ab, af)
            }
            Op::Mac(ref terms) => {
                // Conventional MAC: per-term Baugh–Wooley arrays into one
                // balanced signed adder tree (exact, paper-style baseline).
                let reg = ola_core::obs::registry();
                reg.counter("ola.synth.mac.conventional_lowered").add(1);
                reg.counter("ola.synth.mac.terms").add(terms.len() as u64);
                let prods: Vec<TcSignal> = terms
                    .iter()
                    .map(|&(a, b)| {
                        let (ab, af) = (sigs[a.index()].bits.clone(), sigs[a.index()].frac);
                        let (bb, bf) = (sigs[b.index()].bits.clone(), sigs[b.index()].frac);
                        mul_tc(&mut nl, &ab, af, &bb, bf)
                    })
                    .collect();
                mac_tc_tree(&mut nl, prods)
            }
        };
        debug_assert_eq!(
            (sig.bits.len(), sig.frac),
            formats[id.index()],
            "elaborated format drifted from the IR bookkeeping"
        );
        sigs.push(sig);
    }

    let mut outputs = Vec::new();
    for (name, node) in dfg.outputs() {
        let sig = &sigs[node.index()];
        nl.set_output(name, sig.bits.clone());
        outputs.push(Port {
            name: name.clone(),
            shape: PortShape::Tc { width: sig.bits.len(), frac: sig.frac },
        });
    }

    let nl = if opts.prune { prune_with_gate(&nl) } else { nl };
    SynthesizedDatapath {
        netlist: nl,
        style: Style::Conventional,
        inputs,
        outputs,
        frac_digits: opts.frac_digits,
    }
}

/// Aligns two conventional signals to a common fractional weight by
/// prepending constant-zero LSBs to the coarser one.
fn align(nl: &mut Netlist, a: &TcSignal, b: &TcSignal) -> (Vec<NetId>, Vec<NetId>) {
    let frac = a.frac.max(b.frac);
    let pad = |nl: &mut Netlist, s: &TcSignal| {
        let zeros = (frac - s.frac) as usize;
        let mut v = vec![nl.constant(false); zeros];
        v.extend_from_slice(&s.bits);
        v
    };
    (pad(nl, a), pad(nl, b))
}

/// Folds conventional product signals with a balanced `chunks(2)` signed
/// adder tree — the format walk of [`crate::ir`]'s `mac_tc_fold`, in
/// gates.
fn mac_tc_tree(nl: &mut Netlist, prods: Vec<TcSignal>) -> TcSignal {
    let mut level = prods;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(x) = it.next() {
            match it.next() {
                Some(y) => {
                    let (av, bv) = align(nl, &x, &y);
                    let frac = x.frac.max(y.frac);
                    next.push(TcSignal { bits: add_signed(nl, &av, &bv), frac });
                }
                None => next.push(x),
            }
        }
        level = next;
    }
    level.pop().expect("fused MAC needs at least one term")
}

/// Exact signed multiply: pad both operands to a common width `w ≤ 31`,
/// Baugh–Wooley array → `2w` product bits at `frac = fa + fb`.
fn mul_tc(nl: &mut Netlist, a: &[NetId], fa: i32, b: &[NetId], fb: i32) -> TcSignal {
    let w = a.len().max(b.len());
    assert!(w <= 31, "conventional multiplier operand exceeds 31 bits");
    let ax = sign_extend(nl, a, w);
    let bx = sign_extend(nl, b, w);
    TcSignal { bits: array_multiplier_core(nl, &ax, &bx), frac: fa + fb }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsp::{fir_bank, MacFusion};
    use crate::ir::InputFmt;
    use crate::parser::parse_dfg;
    use crate::passes::{optimize, AdderStructure};
    use ola_redundant::SdNumber;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn filter_dfg(digits: usize) -> Dfg {
        parse_dfg("y = a * 0.5 + b * 0.5 + c * 0.25", InputFmt { msd_pos: 1, digits })
            .expect("valid program")
    }

    fn random_operand(rng: &mut ChaCha8Rng, digits: usize) -> BsVector {
        let bound = (1i128 << digits) - 1;
        let v = Q::new(rng.gen_range(-bound..=bound), digits as u32);
        BsVector::from_sd(&SdNumber::from_value(v, digits).expect("in range"))
    }

    #[test]
    fn online_elaboration_is_bit_true_against_the_ir_reference() {
        let digits = 4;
        let dfg = filter_dfg(digits);
        let dp = elaborate(&dfg, &ElabOptions::new(Style::Online));
        let wires = dp.output_wires();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..40 {
            let ins: Vec<BsVector> = (0..3).map(|_| random_operand(&mut rng, digits)).collect();
            let want = dfg.eval_online(&ins, 3);
            let vals = dp.netlist.eval(&dp.encode_inputs_online(&ins));
            let bits: Vec<bool> = wires.iter().map(|w| vals[w.index()]).collect();
            let got = dp.decode_output_bs(0, &bits);
            assert_eq!(got, want[0], "inputs {ins:?}");
        }
    }

    #[test]
    fn conventional_elaboration_is_exact_against_eval_exact() {
        let digits = 4;
        let dfg = filter_dfg(digits);
        let dp = elaborate(&dfg, &ElabOptions::new(Style::Conventional));
        let wires = dp.output_wires();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..40 {
            let ins: Vec<Q> =
                (0..3).map(|_| Q::new(rng.gen_range(-15i128..=15), digits as u32)).collect();
            let want = dfg.eval_exact(&ins);
            let vals = dp.netlist.eval(&dp.encode_inputs_tc(&ins));
            let bits: Vec<bool> = wires.iter().map(|w| vals[w.index()]).collect();
            assert_eq!(dp.decode_output(0, &bits), want[0], "inputs {ins:?}");
        }
    }

    #[test]
    fn online_decode_output_value_matches_bs_view() {
        let dfg = filter_dfg(3);
        let dp = elaborate(&dfg, &ElabOptions::new(Style::Online));
        let wires = dp.output_wires();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ins: Vec<BsVector> = (0..3).map(|_| random_operand(&mut rng, 3)).collect();
        let vals = dp.netlist.eval(&dp.encode_inputs_online(&ins));
        let bits: Vec<bool> = wires.iter().map(|w| vals[w.index()]).collect();
        assert_eq!(dp.decode_output(0, &bits), dp.decode_output_bs(0, &bits).value());
    }

    #[test]
    fn subtraction_and_negation_lower_exactly_in_both_styles() {
        let mut dfg = Dfg::new();
        let fmt = InputFmt { msd_pos: 1, digits: 3 };
        let a = dfg.input("a", fmt);
        let b = dfg.input("b", fmt);
        let d = dfg.sub(a, b);
        let n = dfg.neg(d);
        dfg.mark_output("d", d);
        dfg.mark_output("m", n);

        // Conventional: exact.
        let dp = elaborate(&dfg, &ElabOptions::new(Style::Conventional));
        let wires = dp.output_wires();
        for (av, bv) in [(3i128, -5i128), (-7, -7), (0, 6), (5, 7)] {
            let ins = [Q::new(av, 3), Q::new(bv, 3)];
            let vals = dp.netlist.eval(&dp.encode_inputs_tc(&ins));
            let bits: Vec<bool> = wires.iter().map(|w| vals[w.index()]).collect();
            assert_eq!(dp.decode_output(0, &bits), ins[0] - ins[1]);
            assert_eq!(dp.decode_output(1, &bits), ins[1] - ins[0]);
        }

        // Online: adds/subs are exact too (no truncation).
        let dp = elaborate(&dfg, &ElabOptions::new(Style::Online));
        let wires = dp.output_wires();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..20 {
            let ins: Vec<BsVector> = (0..2).map(|_| random_operand(&mut rng, 3)).collect();
            let vals = dp.netlist.eval(&dp.encode_inputs_online(&ins));
            let bits: Vec<bool> = wires.iter().map(|w| vals[w.index()]).collect();
            let (x, y) = (ins[0].value(), ins[1].value());
            assert_eq!(dp.decode_output(0, &bits), x - y);
            assert_eq!(dp.decode_output(1, &bits), y - x);
        }
    }

    #[test]
    fn mixed_format_graphs_elaborate_with_matching_bookkeeping() {
        // Different MSD positions and widths exercise alignment (tc) and
        // δ-composition shifts (online).
        let mut dfg = Dfg::new();
        let a = dfg.input("a", InputFmt { msd_pos: 0, digits: 4 });
        let b = dfg.input("b", InputFmt { msd_pos: 2, digits: 3 });
        let m = dfg.mul(a, b);
        let s = dfg.add(m, a);
        dfg.mark_output("y", s);

        let dp = elaborate(&dfg, &ElabOptions::new(Style::Conventional));
        let w = dfg.tc_formats();
        let PortShape::Tc { width, frac } = dp.outputs[0].shape else { panic!() };
        assert_eq!((width, frac), w[s.index()]);

        let dp = elaborate(&dfg, &ElabOptions::new(Style::Online));
        let w = dfg.online_windows();
        let PortShape::Online { msd_pos, digits } = dp.outputs[0].shape else { panic!() };
        assert_eq!((msd_pos, digits), w[s.index()]);
    }

    fn mac_filter_dfg(digits: usize) -> Dfg {
        let mut dfg = Dfg::new();
        let fmt = InputFmt { msd_pos: 1, digits };
        let a = dfg.input("a", fmt);
        let b = dfg.input("b", fmt);
        let c = dfg.input("c", fmt);
        let q = dfg.constant(Q::new(1, 2));
        let h = dfg.constant(Q::new(1, 1));
        let y = dfg.mac(&[(a, q), (b, h), (c, q)]);
        dfg.mark_output("y", y);
        dfg
    }

    #[test]
    fn mac_online_elaboration_is_bit_true_against_the_ir_reference() {
        let digits = 4;
        let dfg = mac_filter_dfg(digits);
        let dp = elaborate(&dfg, &ElabOptions::new(Style::Online));
        let wires = dp.output_wires();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for _ in 0..40 {
            let ins: Vec<BsVector> = (0..3).map(|_| random_operand(&mut rng, digits)).collect();
            let want = dfg.eval_online(&ins, 3);
            let vals = dp.netlist.eval(&dp.encode_inputs_online(&ins));
            let bits: Vec<bool> = wires.iter().map(|w| vals[w.index()]).collect();
            assert_eq!(dp.decode_output_bs(0, &bits), want[0], "inputs {ins:?}");
        }
    }

    #[test]
    fn mac_online_elaboration_is_settled_exact() {
        // The fused accumulator never digitizes, so the settled value is
        // the exact inner product — not just the online reference.
        let digits = 5;
        let dfg = mac_filter_dfg(digits);
        let dp = elaborate(&dfg, &ElabOptions::new(Style::Online));
        let wires = dp.output_wires();
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        for _ in 0..40 {
            let ins: Vec<BsVector> = (0..3).map(|_| random_operand(&mut rng, digits)).collect();
            let want = dfg.eval_exact(&[ins[0].value(), ins[1].value(), ins[2].value()]);
            let vals = dp.netlist.eval(&dp.encode_inputs_online(&ins));
            let bits: Vec<bool> = wires.iter().map(|w| vals[w.index()]).collect();
            assert_eq!(dp.decode_output(0, &bits), want[0], "inputs {ins:?}");
        }
    }

    #[test]
    fn mac_conventional_elaboration_is_exact_against_eval_exact() {
        let digits = 4;
        let dfg = mac_filter_dfg(digits);
        let dp = elaborate(&dfg, &ElabOptions::new(Style::Conventional));
        let wires = dp.output_wires();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for _ in 0..40 {
            let ins: Vec<Q> =
                (0..3).map(|_| Q::new(rng.gen_range(-15i128..=15), digits as u32)).collect();
            let want = dfg.eval_exact(&ins);
            let vals = dp.netlist.eval(&dp.encode_inputs_tc(&ins));
            let bits: Vec<bool> = wires.iter().map(|w| vals[w.index()]).collect();
            assert_eq!(dp.decode_output(0, &bits), want[0], "inputs {ins:?}");
        }
    }

    #[test]
    fn mac_of_variable_pairs_handles_mixed_formats() {
        // Different MSD positions and widths exercise the accumulation
        // window rule and the conventional alignment fold.
        let mut dfg = Dfg::new();
        let a = dfg.input("a", InputFmt { msd_pos: 0, digits: 4 });
        let b = dfg.input("b", InputFmt { msd_pos: 2, digits: 3 });
        let y = dfg.mac(&[(a, b), (b, b)]);
        dfg.mark_output("y", y);

        let dp = elaborate(&dfg, &ElabOptions::new(Style::Conventional));
        let PortShape::Tc { width, frac } = dp.outputs[0].shape else { panic!() };
        assert_eq!((width, frac), dfg.tc_formats()[y.index()]);
        let wires = dp.output_wires();
        for (av, bv) in [(7i128, 3i128), (-8, -4), (0, 3), (5, -2)] {
            // a: msd 0, 4 digits → frac 3; b: msd 2, 3 digits → frac 4.
            let ins = [Q::new(av, 3), Q::new(bv, 4)];
            let vals = dp.netlist.eval(&dp.encode_inputs_tc(&ins));
            let bits: Vec<bool> = wires.iter().map(|w| vals[w.index()]).collect();
            assert_eq!(dp.decode_output(0, &bits), ins[0] * ins[1] + ins[1] * ins[1]);
        }

        let dp = elaborate(&dfg, &ElabOptions::new(Style::Online));
        let PortShape::Online { msd_pos, digits } = dp.outputs[0].shape else { panic!() };
        assert_eq!((msd_pos, digits), dfg.online_windows()[y.index()]);
    }

    #[test]
    fn pruning_preserves_input_order_and_values() {
        let dfg = filter_dfg(3);
        let pruned = elaborate(&dfg, &ElabOptions::new(Style::Online));
        let unpruned = elaborate(&dfg, &ElabOptions::new(Style::Online).with_prune(false));
        assert!(pruned.netlist.len() < unpruned.netlist.len(), "pruning removes dead logic");
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let ins: Vec<BsVector> = (0..3).map(|_| random_operand(&mut rng, 3)).collect();
        let bits_in = pruned.encode_inputs_online(&ins);
        let pv = pruned.netlist.eval(&bits_in);
        let uv = unpruned.netlist.eval(&bits_in);
        let pw = pruned.output_wires();
        let uw = unpruned.output_wires();
        let pbits: Vec<bool> = pw.iter().map(|w| pv[w.index()]).collect();
        let ubits: Vec<bool> = uw.iter().map(|w| uv[w.index()]).collect();
        assert_eq!(pbits, ubits);
    }

    fn elaborate_src(src: &str, digits: usize, style: Style) -> Netlist {
        let dfg = parse_dfg(src, InputFmt { msd_pos: 1, digits }).expect("valid program");
        elaborate(&dfg, &ElabOptions::new(style)).netlist
    }

    fn unit_critical_path(nl: &Netlist) -> u64 {
        ola_netlist::analyze(nl, &ola_netlist::UnitDelay).critical_path()
    }

    #[test]
    fn constant_coefficients_shrink_the_multiplier() {
        // Tying one operand to a constant lets the builder's folding
        // specialize the array in both styles.
        for style in [Style::Online, Style::Conventional] {
            let constant = elaborate_src("y = a * 0.3125", 8, style).logic_gate_count();
            let generic = elaborate_src("y = a * b", 8, style).logic_gate_count();
            assert!(constant < generic, "{style:?}: constant {constant} vs generic {generic}");
        }
    }

    #[test]
    fn fused_fir_settles_faster_than_unfused() {
        // No selection chains means the fused critical path is strictly
        // shorter (about a tenth of the unfused one at these widths).
        for n in [4usize, 8, 16] {
            let fmt = InputFmt { msd_pos: 1, digits: n };
            let cp = |fusion| {
                let dfg = fir_bank(3, fusion, fmt);
                unit_critical_path(&elaborate(&dfg, &ElabOptions::new(Style::Online)).netlist)
            };
            let (fused, unfused) = (cp(MacFusion::Fused), cp(MacFusion::Unfused));
            assert!(fused < unfused, "n={n}: fused {fused} vs unfused {unfused}");
        }
    }

    #[test]
    fn balanced_mac_tree_adds_constant_depth() {
        // Three products summed by a balanced online adder tree settle
        // within a constant of one multiplier (+1000 at these widths).
        for n in [4usize, 8, 16] {
            let fmt = InputFmt { msd_pos: 1, digits: n };
            let dfg =
                parse_dfg("y = a * 0.3125 - b * 0.1875 + c * 0.4375", fmt).expect("valid program");
            let opt = optimize(&dfg, AdderStructure::BalancedTree);
            let mac =
                unit_critical_path(&elaborate(&opt, &ElabOptions::new(Style::Online)).netlist);
            let mul = unit_critical_path(&elaborate_src("y = a * b", n, Style::Online));
            assert!(mac < mul + 3000, "n={n}: mac {mac} vs multiplier {mul}");
        }
    }

    #[test]
    fn digit_groups_cover_every_output_wire() {
        let dfg = filter_dfg(3);
        for style in [Style::Online, Style::Conventional] {
            let dp = elaborate(&dfg, &ElabOptions::new(style));
            let groups = dp.output_digit_groups();
            let flat: usize = groups.iter().map(Vec::len).sum();
            assert_eq!(flat, dp.output_wires().len());
        }
    }
}
