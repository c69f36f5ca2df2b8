//! Compiling a [`Netlist`] into a flat batch program.
//!
//! [`BatchProgram::compile`] freezes three things once, ahead of any number
//! of simulation runs: the gate structure in struct-of-arrays form, the
//! per-gate delays sampled from the [`DelayModel`], and the
//! topological levelization (validated so every fanin points to a lower
//! net id, and exposed as per-net levels plus a depth statistic), plus each
//! net's readers, which the settling pass's dependency counts start from.
//! [`LaneInputs`] packs input vectors into lane words:
//! bit `l` of word `i` is input `i` of vector `l`. The word type decides
//! the batch width — [`BatchInputs`] (= `LaneInputs<u64>`) carries up to
//! [`MAX_LANES`] vectors, [`WideInputs<W>`] carries up to `64·W`.
//!
//! A compiled program is width-agnostic: the same [`BatchProgram`] runs
//! 64-lane and 512-lane batches, so compile-once memoization (keyed by the
//! netlist digest — see [`BatchProgram::to_bytes`] and
//! `ola_core::memo`) pays off across every width.

use crate::batch::block::{LaneBlock, LaneWord};
use crate::{BatchError, DelayModel, GateKind, NetId, Netlist};

/// A [`Netlist`] compiled into a flat, struct-of-arrays program for the
/// bit-parallel batch engine.
///
/// Compilation is the expensive-once part of batch simulation: it samples
/// every gate's delay from the [`DelayModel`] exactly once (models are
/// deterministic per gate, so the program is exact for its model), verifies
/// the netlist is a DAG in net-id order, and computes the levelization. The
/// program borrows nothing, so one compile can be shared across threads and
/// reused for any number of [`run`](BatchProgram::run) /
/// [`run_with_faults`](BatchProgram::run_with_faults) calls — at any lane
/// width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchProgram {
    pub(crate) kinds: Vec<GateKind>,
    pub(crate) in0: Vec<u32>,
    pub(crate) in1: Vec<u32>,
    pub(crate) in2: Vec<u32>,
    /// Raw per-gate delay sampled from the model (0 for inputs/constants).
    pub(crate) delays: Vec<u64>,
    /// `true` for `Const` nets driving 1, `false` elsewhere.
    pub(crate) const_ones: Vec<bool>,
    /// Net index of each primary input, in declaration order.
    pub(crate) input_nets: Vec<u32>,
    /// Topological level of each net (inputs/constants are 0, a gate is one
    /// more than its deepest fanin).
    pub(crate) levels: Vec<u32>,
    /// The readers of each net in CSR form: net `i` is read by
    /// `readers[reader_at[i]..reader_at[i + 1]]`, once per fanin slot that
    /// reads it. The settling pass starts a net once its fanins are done
    /// and releases a waveform once its readers are. Derived from the
    /// fanin arrays, never serialized.
    reader_at: Vec<u32>,
    readers: Vec<u32>,
    depth: u32,
}

/// Magic + version tag of the [`BatchProgram::to_bytes`] wire format.
const PROGRAM_MAGIC: &[u8; 8] = b"olabp/1\n";

impl BatchProgram {
    /// Compiles `netlist` under `delay` into a batch program.
    ///
    /// # Errors
    ///
    /// [`BatchError::TopologyBroken`] if the netlist is not topologically
    /// ordered (a combinational cycle was created via
    /// [`Netlist::rewire_input`]).
    pub fn compile<M: DelayModel + ?Sized>(
        netlist: &Netlist,
        delay: &M,
    ) -> Result<BatchProgram, BatchError> {
        let n = netlist.len();
        let mut kinds = Vec::with_capacity(n);
        let mut in0 = vec![0u32; n];
        let mut in1 = vec![0u32; n];
        let mut in2 = vec![0u32; n];
        let mut delays = vec![0u64; n];
        let mut const_ones = vec![false; n];
        let mut levels = vec![0u32; n];
        let mut depth = 0u32;

        for (i, g) in netlist.gate_nodes().iter().enumerate() {
            kinds.push(g.kind);
            let id = NetId(i as u32);
            delays[i] = delay.gate_delay(g.kind, id);
            match g.kind {
                GateKind::Input => {}
                GateKind::Const => {
                    const_ones[i] = g.const_value;
                }
                _ => {
                    let mut level = 0u32;
                    for (slot, inp) in g.input_slice().iter().enumerate() {
                        if inp.index() >= i {
                            return Err(BatchError::TopologyBroken { net: id });
                        }
                        level = level.max(levels[inp.index()] + 1);
                        match slot {
                            0 => in0[i] = inp.0,
                            1 => in1[i] = inp.0,
                            _ => in2[i] = inp.0,
                        }
                    }
                    levels[i] = level;
                    depth = depth.max(level);
                }
            }
        }

        let input_nets = netlist.inputs().iter().map(|id| id.0).collect();
        crate::obs::with_observer(|o| o.batch_compile(n as u64, u64::from(depth) + 1));
        let mut program = BatchProgram {
            kinds,
            in0,
            in1,
            in2,
            delays,
            const_ones,
            input_nets,
            levels,
            reader_at: Vec::new(),
            readers: Vec::new(),
            depth,
        };
        program.link_readers();
        Ok(program)
    }

    /// The number of fanins of net `i`: none for inputs and constants.
    pub(crate) fn arity(&self, i: usize) -> usize {
        match self.kinds[i] {
            GateKind::Input | GateKind::Const => 0,
            GateKind::Not => 1,
            GateKind::Mux => 3,
            _ => 2,
        }
    }

    /// The fanin nets of net `i` in slot order (the unused slots of the
    /// fanin arrays hold net 0).
    pub(crate) fn fanins(&self, i: usize) -> impl Iterator<Item = usize> {
        [self.in0[i], self.in1[i], self.in2[i]].into_iter().take(self.arity(i)).map(|f| f as usize)
    }

    /// The readers of net `i`, one entry per fanin slot that reads it.
    pub(crate) fn readers(&self, i: usize) -> &[u32] {
        &self.readers[self.reader_at[i] as usize..self.reader_at[i + 1] as usize]
    }

    /// The input slot (position in the packed input words) of input net
    /// `i`. Input nets are listed in increasing net order.
    pub(crate) fn input_slot(&self, i: usize) -> usize {
        self.input_nets.binary_search(&(i as u32)).expect("an Input net is a listed input")
    }

    /// Builds the reader lists from the fanin arrays (a counting sort by
    /// fanin net, readers in increasing order).
    fn link_readers(&mut self) {
        let n = self.num_nets();
        let mut at = vec![0u32; n + 1];
        for i in 0..n {
            for f in self.fanins(i) {
                at[f + 1] += 1;
            }
        }
        for i in 0..n {
            at[i + 1] += at[i];
        }
        let mut fill = at.clone();
        let mut readers = vec![0u32; at[n] as usize];
        for i in 0..n {
            for f in self.fanins(i) {
                readers[fill[f] as usize] = i as u32;
                fill[f] += 1;
            }
        }
        self.reader_at = at;
        self.readers = readers;
    }

    /// Number of nets in the compiled netlist.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.kinds.len()
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.input_nets.len()
    }

    /// The topological level of `net` (0 for inputs and constants).
    #[must_use]
    pub fn level(&self, net: NetId) -> u32 {
        self.levels[net.index()]
    }

    /// The logic depth of the netlist in levels.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of logic gates (excluding inputs and constants).
    #[must_use]
    pub fn logic_gate_count(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_logic()).count()
    }

    /// Serializes the program to a deterministic byte string (the payload
    /// stored by the compile-memoization tier, `ola_core::memo`).
    ///
    /// The format is a private little-endian framing; the only contract is
    /// that [`BatchProgram::from_bytes`] round-trips it exactly and that
    /// equal programs serialize to equal bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.num_nets();
        let mut out = Vec::with_capacity(16 + n * 22);
        out.extend_from_slice(PROGRAM_MAGIC);
        let push_u32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
        let push_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        push_u32(&mut out, n as u32);
        push_u32(&mut out, self.input_nets.len() as u32);
        push_u32(&mut out, self.depth);
        for k in &self.kinds {
            out.push(*k as u8);
        }
        for i in 0..n {
            push_u32(&mut out, self.in0[i]);
            push_u32(&mut out, self.in1[i]);
            push_u32(&mut out, self.in2[i]);
            push_u32(&mut out, self.levels[i]);
            push_u64(&mut out, self.delays[i]);
            out.push(u8::from(self.const_ones[i]));
        }
        for inp in &self.input_nets {
            push_u32(&mut out, *inp);
        }
        out
    }

    /// Deserializes a program produced by [`BatchProgram::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`BatchError::MalformedProgram`] if the bytes are not a valid
    /// serialized program (wrong magic, truncated, or inconsistent counts).
    pub fn from_bytes(bytes: &[u8]) -> Result<BatchProgram, BatchError> {
        let fail = |reason: &'static str| BatchError::MalformedProgram { reason };
        let (magic, mut rest) = bytes
            .split_at_checked(PROGRAM_MAGIC.len())
            .ok_or(fail("shorter than the magic tag"))?;
        if magic != PROGRAM_MAGIC {
            return Err(fail("wrong magic tag"));
        }
        let take_u32 = |rest: &mut &[u8]| -> Result<u32, BatchError> {
            let (head, tail) = rest.split_at_checked(4).ok_or(fail("truncated header field"))?;
            *rest = tail;
            Ok(u32::from_le_bytes(head.try_into().map_err(|_| fail("truncated header field"))?))
        };
        let n = take_u32(&mut rest)? as usize;
        let num_inputs = take_u32(&mut rest)? as usize;
        let depth = take_u32(&mut rest)?;
        let (kind_bytes, mut rest) =
            rest.split_at_checked(n).ok_or(fail("truncated gate-kind table"))?;
        let mut kinds = Vec::with_capacity(n);
        for &b in kind_bytes {
            kinds.push(*GateKind::ALL.get(b as usize).ok_or(fail("unknown gate kind"))?);
        }
        let mut in0 = vec![0u32; n];
        let mut in1 = vec![0u32; n];
        let mut in2 = vec![0u32; n];
        let mut levels = vec![0u32; n];
        let mut delays = vec![0u64; n];
        let mut const_ones = vec![false; n];
        for i in 0..n {
            let (row, tail) = rest.split_at_checked(25).ok_or(fail("truncated net row"))?;
            rest = tail;
            let u32_at = |o: usize| {
                row[o..o + 4].try_into().map(u32::from_le_bytes).map_err(|_| fail("bad net row"))
            };
            in0[i] = u32_at(0)?;
            in1[i] = u32_at(4)?;
            in2[i] = u32_at(8)?;
            levels[i] = u32_at(12)?;
            delays[i] =
                row[16..24].try_into().map(u64::from_le_bytes).map_err(|_| fail("bad net row"))?;
            const_ones[i] = row[24] != 0;
            // Fanin slots must point strictly backwards so the program
            // stays acyclic and every net of a pass becomes ready, even on
            // a tampered payload.
            if kinds[i].is_logic() && [in0[i], in1[i], in2[i]].iter().any(|&x| x as usize >= i) {
                return Err(fail("fanin does not point strictly backwards"));
            }
        }
        let mut input_nets = Vec::with_capacity(num_inputs);
        for _ in 0..num_inputs {
            let id = take_u32(&mut rest)?;
            if id as usize >= n {
                return Err(fail("input net out of range"));
            }
            input_nets.push(id);
        }
        if !rest.is_empty() {
            return Err(fail("trailing bytes"));
        }
        // The engine finds an input net's word by its position in this
        // list, so the list must be exactly the Input nets, in net order.
        let listed =
            kinds.iter().enumerate().filter(|(_, &k)| k == GateKind::Input).map(|(i, _)| i);
        if !listed.eq(input_nets.iter().map(|&id| id as usize)) {
            return Err(fail("input list is not the Input nets in order"));
        }
        let mut program = BatchProgram {
            kinds,
            in0,
            in1,
            in2,
            delays,
            const_ones,
            input_nets,
            levels,
            reader_at: Vec::new(),
            readers: Vec::new(),
            depth,
        };
        program.link_readers();
        Ok(program)
    }
}

/// Input vectors packed into lane words of type `B`.
///
/// Word `i` holds input `i` of every vector: bit `l` of word `i` is input
/// `i` of vector (lane) `l`. Unused high lanes are always zero, so the
/// engine's word-level change detection never sees junk bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneInputs<B: LaneWord = u64> {
    pub(crate) words: Vec<B>,
    pub(crate) lanes: u32,
}

/// The legacy 64-lane input batch (up to [`MAX_LANES`](super::MAX_LANES) vectors).
pub type BatchInputs = LaneInputs<u64>;

/// A multi-word input batch carrying up to `64·W` vectors.
pub type WideInputs<const W: usize> = LaneInputs<LaneBlock<W>>;

impl<B: LaneWord> LaneInputs<B> {
    /// Packs `vectors[l]` into lane `l`.
    ///
    /// # Errors
    ///
    /// * [`BatchError::TooManyLanes`] for more than `B::LANES` vectors;
    /// * [`BatchError::InputArity`] if the vectors have differing lengths
    ///   (`expected` reports the first vector's length).
    pub fn pack(vectors: &[Vec<bool>]) -> Result<LaneInputs<B>, BatchError> {
        if vectors.len() > B::LANES as usize {
            return Err(BatchError::TooManyLanes { got: vectors.len(), cap: B::LANES });
        }
        let lanes = vectors.len() as u32;
        let width = vectors.first().map_or(0, Vec::len);
        let mut words = vec![B::ZERO; width];
        for (l, v) in vectors.iter().enumerate() {
            if v.len() != width {
                return Err(BatchError::InputArity { expected: width, got: v.len() });
            }
            for (i, &bit) in v.iter().enumerate() {
                if bit {
                    words[i] = words[i].or(B::lane_bit(l as u32));
                }
            }
        }
        Ok(LaneInputs { words, lanes })
    }

    /// An all-zero batch (the paper's reset assumption) of `num_inputs`
    /// words carrying `lanes` lanes.
    ///
    /// # Errors
    ///
    /// [`BatchError::TooManyLanes`] if `lanes > B::LANES`.
    pub fn zeros(num_inputs: usize, lanes: u32) -> Result<LaneInputs<B>, BatchError> {
        if lanes > B::LANES {
            return Err(BatchError::TooManyLanes { got: lanes as usize, cap: B::LANES });
        }
        Ok(LaneInputs { words: vec![B::ZERO; num_inputs], lanes })
    }

    /// Number of lanes (vectors) carried.
    #[must_use]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Number of input words (the netlist's input arity).
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.words.len()
    }

    /// The packed lane words, one per primary input.
    #[must_use]
    pub fn words(&self) -> &[B] {
        &self.words
    }

    /// Extracts one lane back into a scalar input vector.
    #[must_use]
    pub fn lane(&self, lane: u32) -> Vec<bool> {
        self.words.iter().map(|w| w.bit(lane)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FpgaDelay, JitteredDelay, UnitDelay};

    fn chain() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.xor(a, b);
        let y = nl.not(x);
        nl.set_output("z", vec![y]);
        nl
    }

    #[test]
    fn compile_samples_delays_and_levels() {
        let nl = chain();
        let p = BatchProgram::compile(&nl, &FpgaDelay::default()).unwrap();
        assert_eq!(p.num_nets(), 4);
        assert_eq!(p.num_inputs(), 2);
        assert_eq!(p.level(nl.net(0)), 0);
        assert_eq!(p.level(nl.net(2)), 1);
        assert_eq!(p.level(nl.net(3)), 2);
        assert_eq!(p.depth(), 2);
        assert_eq!(p.logic_gate_count(), 2);
        assert_eq!(p.delays[2], FpgaDelay::default().two_input);
        assert_eq!(p.delays[3], FpgaDelay::default().not);
        // a and b are read by the XOR, the XOR by the NOT, which nothing
        // reads.
        let readers: Vec<&[u32]> = (0..4).map(|i| p.readers(i)).collect();
        assert_eq!(readers, [&[2][..], &[2], &[3], &[]]);
    }

    #[test]
    fn jittered_models_compile_their_per_gate_delays() {
        let nl = chain();
        let jitter = JitteredDelay::new(UnitDelay, 10, 1);
        let p = BatchProgram::compile(&nl, &jitter).unwrap();
        for net in nl.nets() {
            assert_eq!(p.delays[net.index()], jitter.gate_delay(nl.kind(net), net));
        }
    }

    #[test]
    fn broken_topology_is_rejected() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let n1 = nl.not(a);
        let n2 = nl.not(n1);
        nl.rewire_input(n1, 0, n2).unwrap();
        let err = BatchProgram::compile(&nl, &UnitDelay).unwrap_err();
        assert!(matches!(err, BatchError::TopologyBroken { net } if net == n1), "{err}");
    }

    #[test]
    fn pack_roundtrips_lanes() {
        let vecs = vec![vec![true, false, true], vec![false, false, true], vec![true, true, false]];
        let b = BatchInputs::pack(&vecs).unwrap();
        assert_eq!(b.lanes(), 3);
        assert_eq!(b.num_inputs(), 3);
        for (l, v) in vecs.iter().enumerate() {
            assert_eq!(&b.lane(l as u32), v);
        }
        // Unused lanes are zero.
        assert_eq!(b.words()[0] >> 3, 0);
    }

    #[test]
    fn wide_pack_roundtrips_past_64_lanes() {
        let vecs: Vec<Vec<bool>> =
            (0..130).map(|l| (0..3).map(|i| (l + i) % 3 == 0).collect()).collect();
        let b = WideInputs::<4>::pack(&vecs).unwrap();
        assert_eq!(b.lanes(), 130);
        for (l, v) in vecs.iter().enumerate() {
            assert_eq!(&b.lane(l as u32), v, "lane {l}");
        }
        assert!(BatchInputs::pack(&vecs).is_err(), "130 vectors exceed u64 words");
    }

    #[test]
    fn pack_validates_shape() {
        let too_many: Vec<Vec<bool>> = (0..65).map(|_| vec![true]).collect();
        assert_eq!(
            BatchInputs::pack(&too_many).unwrap_err(),
            BatchError::TooManyLanes { got: 65, cap: 64 }
        );
        let ragged = vec![vec![true, false], vec![true]];
        assert_eq!(
            BatchInputs::pack(&ragged).unwrap_err(),
            BatchError::InputArity { expected: 2, got: 1 }
        );
        assert!(BatchInputs::zeros(4, 65).is_err());
        assert!(WideInputs::<2>::zeros(4, 128).is_ok());
        assert!(WideInputs::<2>::zeros(4, 129).is_err());
    }

    #[test]
    fn program_bytes_roundtrip() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let s = nl.input("s");
        let t = nl.constant(true);
        let x = nl.xor(a, b);
        let m = nl.mux(s, x, t);
        let z = nl.nand(m, a);
        nl.set_output("z", vec![z]);
        let p = BatchProgram::compile(&nl, &FpgaDelay::default()).unwrap();
        let bytes = p.to_bytes();
        let q = BatchProgram::from_bytes(&bytes).unwrap();
        assert_eq!(p, q);
        assert_eq!(bytes, q.to_bytes(), "serialization is deterministic");
    }

    #[test]
    fn malformed_program_bytes_are_rejected() {
        let nl = chain();
        let p = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let bytes = p.to_bytes();
        let is_malformed = |r: Result<BatchProgram, BatchError>| {
            matches!(r.unwrap_err(), BatchError::MalformedProgram { .. })
        };
        assert!(is_malformed(BatchProgram::from_bytes(&[])));
        assert!(is_malformed(BatchProgram::from_bytes(&bytes[..bytes.len() - 1])));
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'x';
        assert!(is_malformed(BatchProgram::from_bytes(&wrong_magic)));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(is_malformed(BatchProgram::from_bytes(&trailing)));
        // The input list names nets 0 and 1 last; listing them in reverse
        // would hand each input the other's word.
        let mut swapped = bytes;
        let len = swapped.len();
        swapped[len - 8..].copy_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0]);
        assert!(is_malformed(BatchProgram::from_bytes(&swapped)));
    }
}
