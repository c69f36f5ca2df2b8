//! Compiling a [`Netlist`] into a flat batch program.
//!
//! [`BatchProgram::compile`] freezes three things once, ahead of any number
//! of simulation runs: the gate structure in struct-of-arrays form, the
//! per-gate delays sampled from the [`DelayModel`], and the topological
//! order (net-id order, which the builder guarantees, summed up as a
//! logic-depth statistic), plus each net's readers, which the
//! settling pass's dependency counts start from.
//! [`LaneInputs`] packs input vectors into lane words:
//! bit `l` of word `i` is input `i` of vector `l`. The word type decides
//! the batch width — [`BatchInputs`] (= `LaneInputs<u64>`) carries up to
//! 64 vectors, [`WideInputs<W>`] carries up to `64·W`.
//!
//! A compiled program is width-agnostic: the same [`BatchProgram`] runs
//! 64-lane and 512-lane batches, so compile-once memoization (keyed by the
//! netlist digest, in `ola_core::memo`) pays off across every width.

use crate::batch::block::{LaneBlock, LaneWord};
use crate::{BatchError, DelayModel, GateKind, NetId, Netlist};

/// A [`Netlist`] compiled into a flat, struct-of-arrays program for the
/// bit-parallel batch engine.
///
/// Compilation is the expensive-once part of batch simulation: it samples
/// every gate's delay from the [`DelayModel`] exactly once (models are
/// deterministic per gate, so the program is exact for its model) and
/// computes its logic depth. The program borrows nothing, so one compile
/// can be shared across threads and reused for any number of
/// [`run`](BatchProgram::run) /
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
    /// The readers of each net in CSR form: net `i` is read by
    /// `readers[reader_at[i]..reader_at[i + 1]]`, once per fanin slot that
    /// reads it. The settling pass starts a net once its fanins are done
    /// and releases a waveform once its readers are. Derived from the
    /// fanin arrays.
    reader_at: Vec<u32>,
    readers: Vec<u32>,
    depth: u32,
}

impl BatchProgram {
    /// Compiles `netlist` under `delay` into a batch program.
    ///
    /// # Errors
    ///
    /// None today: every netlist the builder can make compiles. The
    /// `Result` keeps the signature stable for existing callers.
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
        // Topological level of each net: inputs and constants are 0, a gate
        // is one more than its deepest fanin.
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

/// The 64-lane input batch (up to 64 vectors).
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
    fn compile_samples_delays_and_depth() {
        let nl = chain();
        let p = BatchProgram::compile(&nl, &FpgaDelay::default()).unwrap();
        assert_eq!(p.num_nets(), 4);
        assert_eq!(p.num_inputs(), 2);
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
}
