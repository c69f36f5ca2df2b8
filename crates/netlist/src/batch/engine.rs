//! The lane-word batch execution engine.
//!
//! One [`BatchProgram::run`] replays the event-driven simulator's
//! transport-delay semantics for a whole lane word of input vectors at
//! once, *without an event queue*: because the program is a levelized DAG
//! and every gate's delay is a compile-time constant, each net's settling
//! waveform is a pure function of its fanin waveforms —
//! `out(t + d) = f(inputs(t))` — so a single pass in topological order
//! produces the exact waveform of every net. Word-level change detection
//! (a step is recorded only when some lane's bit changes) is the batch
//! counterpart of the event simulator's schedule-equal-value cancellation.
//! The word type is any [`LaneWord`]: `u64` is the legacy 64-lane path,
//! [`LaneBlock<W>`](crate::batch::LaneBlock) runs `64·W` lanes per pass.
//!
//! With faults ([`BatchProgram::run_with_faults`]) each lane may carry a
//! *different* [`FaultPlan`](crate::FaultPlan): stuck bits and transient
//! windows transform the observed waveform per lane, and per-lane delay
//! pushes split a gate's output into delay groups that are shifted
//! independently and re-merged.
//!
//! # Dirty-cone incremental resimulation
//!
//! [`BatchProgram::run_incremental`] reruns against a *base* result when
//! only a few inputs or fault sites changed: a net is **dirty** iff its own
//! stimulus changed (an input whose packed words differ from the base run,
//! or a net whose per-lane fault state differs) or any fanin is dirty.
//! Only dirty nets recompute their waveforms; clean nets share the base
//! run's waveform by reference counting. An equality cutoff re-marks a
//! recomputed net clean when its new waveform equals the base one (a fault
//! that does not change behaviour, or a cone that reconverges), which
//! prunes the fanout cone early. Setting `OLA_BATCH_CHECK_INCREMENTAL=1`
//! cross-checks every incremental run against a full recompute.
//!
//! # Bus-only streaming
//!
//! A sampling sweep reads only an output bus, so
//! [`BatchProgram::run_bus`] runs the same settling loop but keeps only
//! that bus's waveforms. Each net's scan products — word steps, masked
//! transitions and the per-lane settle retire list — are folded as soon as
//! its waveform is produced, and an interior waveform is dropped once its
//! last consumer (recorded in the program at compile time) has been
//! evaluated. Waveform memory is then bounded by the live frontier of the
//! levelized DAG plus the bus, not by every net of the netlist, while the
//! counters and settle times equal those of a full [`BatchProgram::run`].

use crate::batch::block::{LaneBlock, LaneWord};
use crate::batch::fault::{LaneFaultSet, LaneFaults};
use crate::batch::program::{BatchProgram, LaneInputs};
use crate::batch::sampler::LaneBusWaves;
use crate::batch::wave::Wave;
use crate::cancel::CancelToken;
use crate::{BatchError, GateKind, NetId, NetlistError};
use std::sync::Arc;

/// How many nets the settling pass evaluates between cancellation polls:
/// small enough that cancellation latency stays in the microseconds,
/// large enough that the atomic load is invisible in profiles.
const NET_CHECK_INTERVAL: usize = 256;

/// Word-parallel gate evaluation: every bit position is one lane.
pub(crate) fn eval_word<B: LaneWord>(kind: GateKind, a: B, b: B, c: B) -> B {
    match kind {
        GateKind::Not => a.not(),
        GateKind::And => a.and(b),
        GateKind::Or => a.or(b),
        GateKind::Xor => a.xor(b),
        GateKind::Nand => a.and(b).not(),
        GateKind::Nor => a.or(b).not(),
        GateKind::Xnor => a.xor(b).not(),
        GateKind::Mux => a.and(b).or(a.not().and(c)),
        GateKind::Input | GateKind::Const => unreachable!("not a logic gate"),
    }
}

/// The input waveform: lanes switch from their previous to their new bit at
/// their delay-push time (0 without faults). Groups are sorted by push.
fn input_wave<B: LaneWord>(prev: B, new: B, groups: &[(u64, B)]) -> Wave<B> {
    let mut steps = Vec::new();
    let mut word = prev;
    let mut i = 0;
    while i < groups.len() {
        let t = groups[i].0;
        let mut mask = B::ZERO;
        while i < groups.len() && groups[i].0 == t {
            mask = mask.or(groups[i].1);
            i += 1;
        }
        let next = word.and(mask.not()).or(new.and(mask));
        if next != word {
            word = next;
            steps.push((t, word));
        }
    }
    Wave { initial: prev, steps }
}

/// One gate's raw output waveform from its fanin waveforms.
///
/// First the deduplicated *function stream* — `f(inputs(t))` at every time
/// any fanin changes — then each delay group `g` shifts that stream by its
/// effective delay `(base + push_g).max(1)` and contributes its lanes; the
/// group streams are k-way merged back into one waveform.
fn gate_wave<B: LaneWord>(
    kind: GateKind,
    ins: &[&Wave<B>],
    init: B,
    base_delay: u64,
    groups: &[(u64, B)],
) -> Wave<B> {
    // Function stream.
    let mut cur = [B::ZERO; 3];
    let mut idx = [0usize; 3];
    for (j, w) in ins.iter().enumerate() {
        cur[j] = w.initial;
    }
    let mut f_prev = init;
    let mut fstream: Vec<(u64, B)> = Vec::new();
    loop {
        let mut t_next = u64::MAX;
        let mut any = false;
        for (j, w) in ins.iter().enumerate() {
            if let Some(&(t, _)) = w.steps.get(idx[j]) {
                t_next = t_next.min(t);
                any = true;
            }
        }
        if !any {
            break;
        }
        for (j, w) in ins.iter().enumerate() {
            if let Some(&(t, word)) = w.steps.get(idx[j]) {
                if t == t_next {
                    cur[j] = word;
                    idx[j] += 1;
                }
            }
        }
        let f = eval_word(kind, cur[0], cur[1], cur[2]);
        if f != f_prev {
            f_prev = f;
            fstream.push((t_next, f));
        }
    }

    if let [(push, _mask)] = groups {
        // Fast path: one delay for every lane (the fault-free case).
        let d = base_delay.saturating_add(*push).max(1);
        let steps = fstream.into_iter().map(|(t, f)| (t.saturating_add(d), f)).collect();
        return Wave { initial: init, steps };
    }

    // Per-lane delays: merge the per-group shifted streams.
    let ds: Vec<u64> =
        groups.iter().map(|&(push, _)| base_delay.saturating_add(push).max(1)).collect();
    let mut cursors = vec![0usize; groups.len()];
    let mut words: Vec<B> = groups.iter().map(|&(_, mask)| init.and(mask)).collect();
    let mut last = init;
    let mut steps = Vec::new();
    loop {
        let mut t_next = u64::MAX;
        let mut any = false;
        for (g, &d) in ds.iter().enumerate() {
            if let Some(&(t, _)) = fstream.get(cursors[g]) {
                t_next = t_next.min(t.saturating_add(d));
                any = true;
            }
        }
        if !any {
            break;
        }
        for (g, &d) in ds.iter().enumerate() {
            while let Some(&(t, f)) = fstream.get(cursors[g]) {
                if t.saturating_add(d) == t_next {
                    words[g] = f.and(groups[g].1);
                    cursors[g] += 1;
                } else {
                    break;
                }
            }
        }
        let word = words.iter().fold(B::ZERO, |acc, &w| acc.or(w));
        if word != last {
            last = word;
            steps.push((t_next, word));
        }
    }
    Wave { initial: init, steps }
}

/// Applies the per-lane observation transform (stuck bits, transient
/// windows) to a raw waveform: candidate change times are the raw step
/// times plus the window boundaries, and at each the observed word is
/// `((raw ^ flips) & !stuck_mask) | stuck_vals`.
fn observe_wave<B: LaneWord>(raw: &Wave<B>, f: &LaneFaults<B>) -> Wave<B> {
    let init = raw.initial.and(f.stuck_mask.not()).or(f.stuck_vals);
    let mut times: Vec<u64> = raw.steps.iter().map(|&(t, _)| t).collect();
    for &(start, end, _) in &f.windows {
        times.push(start);
        times.push(end);
    }
    times.sort_unstable();
    times.dedup();

    let mut steps = Vec::new();
    let mut last = init;
    let mut cur_raw = raw.initial;
    let mut ci = 0usize;
    for &t in &times {
        while let Some(&(ts, w)) = raw.steps.get(ci) {
            if ts <= t {
                cur_raw = w;
                ci += 1;
            } else {
                break;
            }
        }
        let mut flips = B::ZERO;
        for &(start, end, mask) in &f.windows {
            if t >= start && t < end {
                flips = flips.or(mask);
            }
        }
        let word = cur_raw.xor(flips).and(f.stuck_mask.not()).or(f.stuck_vals);
        if word != last {
            last = word;
            steps.push((t, word));
        }
    }
    Wave { initial: init, steps }
}

/// True when `OLA_BATCH_CHECK_INCREMENTAL=1` asks every incremental run to
/// be cross-checked against a full recompute.
fn incremental_check_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("OLA_BATCH_CHECK_INCREMENTAL")
            .is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
    })
}

/// Per-net scan products cached in a result so an incremental rerun can
/// fold a clean (`Arc`-shared) net's contribution into its counters and
/// settle times without rescanning the waveform: the masked transition
/// count, and the "retire list" — backward-ordered `(t, lanes)` entries
/// recording each lane's *last* transition time, the compressed form of
/// this net's per-lane settle contribution.
#[derive(Clone, Debug)]
struct NetStats<B: LaneWord> {
    transitions: u64,
    retire: Vec<(u64, B)>,
}

/// The settling history of one batch run: lane-word waveforms for every
/// net, per-lane settle times, and engine-work counters.
///
/// The per-lane view ([`LaneSimResult::value_at`],
/// [`LaneSimResult::lane_waveform`](Self::lane_waveform)) is bit-identical
/// to the event-driven [`SimResult`](crate::SimResult) of the same
/// (vector, fault-plan) pair — the equivalence the proptest suite pins
/// down. Waveforms are reference-counted so an incremental rerun
/// ([`BatchProgram::run_incremental`]) can share every clean net's
/// waveform with its base instead of copying it — per-net scan products
/// ([`NetStats`]) ride along so counters need no rescan either.
#[derive(Clone, Debug)]
pub struct LaneSimResult<B: LaneWord = u64> {
    lanes: u32,
    waves: Vec<Arc<Wave<B>>>,
    net_stats: Vec<Arc<NetStats<B>>>,
    settle: Vec<u64>,
    word_steps: u64,
    lane_transitions: u64,
    /// The stimulus this run was produced from, kept so an incremental
    /// rerun can seed its dirty set from the delta against it.
    prev_words: Vec<B>,
    new_words: Vec<B>,
    faults: Option<LaneFaultSet<B>>,
}

/// The legacy 64-lane simulation result.
pub type BatchSimResult = LaneSimResult<u64>;

/// A multi-word simulation result carrying `64·W` lanes.
pub type WideSimResult<const W: usize> = LaneSimResult<LaneBlock<W>>;

impl<B: LaneWord> LaneSimResult<B> {
    /// Number of active lanes (input vectors).
    #[must_use]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// The lane-word waveform of `net`.
    #[must_use]
    pub fn wave(&self, net: NetId) -> &Wave<B> {
        &self.waves[net.index()]
    }

    /// Like [`LaneSimResult::wave`], validating the net index.
    ///
    /// # Errors
    ///
    /// [`NetlistError::NetOutOfRange`] if `net` is not a net of the
    /// simulated netlist.
    pub fn try_wave(&self, net: NetId) -> Result<&Wave<B>, NetlistError> {
        self.waves
            .get(net.index())
            .map(Arc::as_ref)
            .ok_or(NetlistError::NetOutOfRange { index: net.index(), len: self.waves.len() })
    }

    /// The value of `net` in `lane` at time `t` — what a register clocked
    /// `t` time units after the input switch would capture.
    #[must_use]
    pub fn value_at(&self, net: NetId, lane: u32, t: u64) -> bool {
        self.waves[net.index()].lane_value_at(lane, t)
    }

    /// The transition history of one lane of one net, in the event-driven
    /// simulator's `(time, new_value)` format.
    #[must_use]
    pub fn lane_waveform(&self, net: NetId, lane: u32) -> Vec<(u64, bool)> {
        self.waves[net.index()].lane_waveform(lane)
    }

    /// Samples a bus in one lane at time `t`.
    #[must_use]
    pub fn sample_bus(&self, nets: &[NetId], lane: u32, t: u64) -> Vec<bool> {
        nets.iter().map(|&n| self.value_at(n, lane, t)).collect()
    }

    /// The settled values of a bus in one lane.
    #[must_use]
    pub fn final_bus(&self, nets: &[NetId], lane: u32) -> Vec<bool> {
        nets.iter().map(|&n| self.waves[n.index()].final_word().bit(lane)).collect()
    }

    /// Time of the last observed transition in `lane` across all nets.
    #[must_use]
    pub fn settle_time(&self, lane: u32) -> u64 {
        self.settle[lane as usize]
    }

    /// Per-lane settle times (index = lane).
    #[must_use]
    pub fn settle_times(&self) -> &[u64] {
        &self.settle
    }

    /// The latest settle time of any lane.
    #[must_use]
    pub fn max_settle_time(&self) -> u64 {
        self.settle.iter().copied().max().unwrap_or(0)
    }

    /// Total word-level steps stored (engine work: one step covers a whole
    /// lane word).
    #[must_use]
    pub fn word_steps(&self) -> u64 {
        self.word_steps
    }

    /// Total per-lane transitions across active lanes (the work an
    /// event-driven simulator would have performed net-value-wise).
    #[must_use]
    pub fn lane_transitions(&self) -> u64 {
        self.lane_transitions
    }

    /// How many nets of this result share their waveform with an
    /// incremental base (reference count > 1) — a diagnostic for the
    /// dirty-cone cutoff, not a semantic property.
    #[must_use]
    pub fn shared_waves(&self) -> usize {
        self.waves.iter().filter(|w| Arc::strong_count(w) > 1).count()
    }

    /// Net `i`'s waveform and scan products, shared by reference with a
    /// dirty-cone rerun.
    fn shared(&self, i: usize) -> (Arc<Wave<B>>, Arc<NetStats<B>>) {
        (Arc::clone(&self.waves[i]), Arc::clone(&self.net_stats[i]))
    }
}

/// What the bus-only pass ([`BatchProgram::run_bus`]) returns: the
/// waveforms of the requested bus, plus the per-lane settle times and
/// engine counters of the *whole* pass — equal to what a full
/// [`LaneSimResult`] of the same stimulus reports. Interior waveforms were
/// released during the pass, so none can be read from it by mistake.
#[derive(Clone, Debug)]
pub struct LaneBusResult<B: LaneWord = u64> {
    bus: LaneBusWaves<B>,
    settle: Vec<u64>,
    word_steps: u64,
    lane_transitions: u64,
}

impl<B: LaneWord> LaneBusResult<B> {
    /// The bus's waveforms, in the requested net order.
    #[must_use]
    pub fn bus(&self) -> &LaneBusWaves<B> {
        &self.bus
    }

    /// Time of the last observed transition in `lane` across all nets.
    #[must_use]
    pub fn settle_time(&self, lane: u32) -> u64 {
        self.settle[lane as usize]
    }

    /// Per-lane settle times (index = lane).
    #[must_use]
    pub fn settle_times(&self) -> &[u64] {
        &self.settle
    }

    /// Total word-level steps produced across all nets.
    #[must_use]
    pub fn word_steps(&self) -> u64 {
        self.word_steps
    }

    /// Total per-lane transitions across active lanes and all nets.
    #[must_use]
    pub fn lane_transitions(&self) -> u64 {
        self.lane_transitions
    }
}

impl BatchProgram {
    /// Runs the batch engine for the input switch `prev → new` (applied at
    /// `t = 0`), fault-free. Generic over the lane word: `u64` batches run
    /// 64 lanes, [`LaneBlock<W>`](crate::batch::LaneBlock) batches run
    /// `64·W`.
    ///
    /// # Errors
    ///
    /// * [`BatchError::InputArity`] if either batch's word count differs
    ///   from the netlist's input count;
    /// * [`BatchError::LaneMismatch`] if the batches carry different lane
    ///   counts.
    pub fn run<B: LaneWord>(
        &self,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
    ) -> Result<LaneSimResult<B>, BatchError> {
        self.run_inner(prev, new, None, None)
    }

    /// [`BatchProgram::run`] with a cooperative
    /// [`CancelToken`](crate::CancelToken): the settling pass polls the
    /// token every [`NET_CHECK_INTERVAL`] nets and returns
    /// [`BatchError::Cancelled`] once it is set.
    ///
    /// # Errors
    ///
    /// As for [`BatchProgram::run`], plus [`BatchError::Cancelled`] when
    /// `cancel` fires before the pass finishes.
    pub fn run_cancellable<B: LaneWord>(
        &self,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        cancel: &CancelToken,
    ) -> Result<LaneSimResult<B>, BatchError> {
        self.run_inner(prev, new, None, Some(cancel))
    }

    /// Runs the batch engine with one [`FaultPlan`](crate::FaultPlan) per
    /// lane (lane `l` runs under plan `l`; lanes beyond the set's plans are
    /// fault-free).
    ///
    /// # Errors
    ///
    /// As for [`BatchProgram::run`], plus [`BatchError::InvalidFault`] if
    /// `faults` was compiled against a different netlist size.
    pub fn run_with_faults<B: LaneWord>(
        &self,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        faults: &LaneFaultSet<B>,
    ) -> Result<LaneSimResult<B>, BatchError> {
        self.check_faults(faults)?;
        self.run_inner(prev, new, Some(faults), None)
    }

    /// [`BatchProgram::run_with_faults`] with a cooperative
    /// [`CancelToken`](crate::CancelToken) (see
    /// [`BatchProgram::run_cancellable`]).
    ///
    /// # Errors
    ///
    /// As for [`BatchProgram::run_with_faults`], plus
    /// [`BatchError::Cancelled`] when `cancel` fires before the pass
    /// finishes.
    pub fn run_with_faults_cancellable<B: LaneWord>(
        &self,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        faults: &LaneFaultSet<B>,
        cancel: &CancelToken,
    ) -> Result<LaneSimResult<B>, BatchError> {
        self.check_faults(faults)?;
        self.run_inner(prev, new, Some(faults), Some(cancel))
    }

    /// Runs the engine fault-free like [`BatchProgram::run`], but keeps
    /// only the waveforms of `bus` (in the given order, repeats allowed):
    /// every net's scan products are folded as its waveform is produced and
    /// every other waveform is dropped after its last consumer, so memory
    /// is bounded by the live frontier plus the bus (see the
    /// [module docs](self)). The bus waveforms, settle times, word steps
    /// and lane transitions equal those of a full run. `cancel` is polled
    /// as in [`BatchProgram::run_cancellable`].
    ///
    /// # Errors
    ///
    /// As for [`BatchProgram::run`], plus [`BatchError::InvalidBus`]
    /// naming the first bus net outside the netlist, and
    /// [`BatchError::Cancelled`] when `cancel` fires before the pass
    /// finishes.
    pub fn run_bus<B: LaneWord>(
        &self,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        bus: &[NetId],
        cancel: Option<&CancelToken>,
    ) -> Result<LaneBusResult<B>, BatchError> {
        let len = self.num_nets();
        let mut on_bus = vec![false; len];
        for net in bus {
            let index = net.index();
            *on_bus
                .get_mut(index)
                .ok_or(BatchError::InvalidBus(NetlistError::NetOutOfRange { index, len }))? = true;
        }
        let pass = self.settle(prev, new, None, None, Retain::Bus(&on_bus), cancel)?;
        let waves = bus
            .iter()
            .map(|net| {
                pass.waves[net.index()].as_deref().expect("the pass retains bus waveforms").clone()
            })
            .collect();
        Ok(LaneBusResult {
            bus: LaneBusWaves { lanes: pass.lanes, waves },
            settle: pass.settle,
            word_steps: pass.word_steps,
            lane_transitions: pass.lane_transitions,
        })
    }

    /// Reruns the engine against `base`, recomputing only the fanout cone
    /// of what changed (see the [module docs](self) for the dirty-cone
    /// algorithm). `base` must come from this program; `faults` is the
    /// *complete* fault set of the new run (not a delta), compared
    /// per net against the base run's. The result is bit-identical to a
    /// full [`BatchProgram::run`] / [`BatchProgram::run_with_faults`]
    /// with the same arguments —
    /// property-tested, and cross-checked on every call when
    /// `OLA_BATCH_CHECK_INCREMENTAL=1`.
    ///
    /// # Errors
    ///
    /// As for [`BatchProgram::run_with_faults`], plus
    /// [`BatchError::IncrementalBaseMismatch`] if `base` was not produced
    /// by a program of this shape.
    pub fn run_incremental<B: LaneWord>(
        &self,
        base: &LaneSimResult<B>,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        faults: Option<&LaneFaultSet<B>>,
    ) -> Result<LaneSimResult<B>, BatchError> {
        self.run_incremental_inner(base, prev, new, faults, None)
    }

    /// [`BatchProgram::run_incremental`] with a cooperative
    /// [`CancelToken`](crate::CancelToken) (see
    /// [`BatchProgram::run_cancellable`]).
    ///
    /// # Errors
    ///
    /// As for [`BatchProgram::run_incremental`], plus
    /// [`BatchError::Cancelled`] when `cancel` fires before the pass
    /// finishes.
    pub fn run_incremental_cancellable<B: LaneWord>(
        &self,
        base: &LaneSimResult<B>,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        faults: Option<&LaneFaultSet<B>>,
        cancel: &CancelToken,
    ) -> Result<LaneSimResult<B>, BatchError> {
        self.run_incremental_inner(base, prev, new, faults, Some(cancel))
    }

    fn check_faults<B: LaneWord>(&self, faults: &LaneFaultSet<B>) -> Result<(), BatchError> {
        if faults.num_nets() != self.num_nets() {
            return Err(BatchError::InvalidFault(NetlistError::NetOutOfRange {
                index: faults.num_nets(),
                len: self.num_nets(),
            }));
        }
        Ok(())
    }

    fn check_shapes<B: LaneWord>(
        &self,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
    ) -> Result<u32, BatchError> {
        let expected = self.num_inputs();
        for got in [new.num_inputs(), prev.num_inputs()] {
            if got != expected {
                return Err(BatchError::InputArity { expected, got });
            }
        }
        if prev.lanes != new.lanes {
            return Err(BatchError::LaneMismatch { prev: prev.lanes, new: new.lanes });
        }
        Ok(prev.lanes)
    }

    /// The settled-previous-state pass: raw driver outputs and observed
    /// values of every net, word-parallel, in topological order.
    fn initial_state<B: LaneWord>(
        &self,
        prev: &LaneInputs<B>,
        faults: Option<&LaneFaultSet<B>>,
    ) -> (Vec<B>, Vec<B>) {
        let n = self.num_nets();
        let mut raw_init = vec![B::ZERO; n];
        let mut obs_init = vec![B::ZERO; n];
        let mut next_input = 0usize;
        for i in 0..n {
            let r = match self.kinds[i] {
                GateKind::Input => {
                    let w = prev.words[next_input];
                    next_input += 1;
                    w
                }
                GateKind::Const => B::splat(self.const_ones[i]),
                kind => eval_word(
                    kind,
                    obs_init[self.in0[i] as usize],
                    obs_init[self.in1[i] as usize],
                    obs_init[self.in2[i] as usize],
                ),
            };
            raw_init[i] = r;
            obs_init[i] = match faults {
                Some(fs) => fs.observe_initial(i, r),
                None => r,
            };
        }
        (raw_init, obs_init)
    }

    /// Computes the waveform of net `i` from its fanins' waveforms, which
    /// the pass keeps until their last consumer has run.
    #[allow(clippy::too_many_arguments)]
    fn net_wave<B: LaneWord>(
        &self,
        i: usize,
        input_slot: usize,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        faults: Option<&LaneFaultSet<B>>,
        raw_init: &[B],
        waves: &[Option<Arc<Wave<B>>>],
    ) -> Wave<B> {
        let lane_faults = faults.map(|fs| &fs.nets[i]);
        let no_fault_groups = [(0u64, B::ONES)];
        let groups_storage;
        let groups: &[(u64, B)] = match lane_faults {
            Some(f) if !f.pushes.is_empty() => {
                groups_storage = f.delay_groups();
                &groups_storage
            }
            _ => &no_fault_groups,
        };
        let raw = match self.kinds[i] {
            GateKind::Input => input_wave(prev.words[input_slot], new.words[input_slot], groups),
            GateKind::Const => Wave::constant(B::splat(self.const_ones[i])),
            kind => {
                let idle = Wave::constant(B::ZERO);
                let mut ins = [&idle; 3];
                let mut arity = 0;
                for (slot, f) in self.fanins(i).enumerate() {
                    ins[slot] =
                        waves[f].as_deref().expect("a fanin's waveform outlives its readers");
                    arity = slot + 1;
                }
                gate_wave(kind, &ins[..arity], raw_init[i], self.delays[i], groups)
            }
        };
        match lane_faults {
            Some(f) if !f.observe_is_identity() => observe_wave(&raw, f),
            _ => raw,
        }
    }

    fn run_inner<B: LaneWord>(
        &self,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        faults: Option<&LaneFaultSet<B>>,
        cancel: Option<&CancelToken>,
    ) -> Result<LaneSimResult<B>, BatchError> {
        let pass = self.settle(prev, new, faults, None, Retain::All, cancel)?;
        Ok(pass.into_result(prev, new, faults))
    }

    fn run_incremental_inner<B: LaneWord>(
        &self,
        base: &LaneSimResult<B>,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        faults: Option<&LaneFaultSet<B>>,
        cancel: Option<&CancelToken>,
    ) -> Result<LaneSimResult<B>, BatchError> {
        let n = self.num_nets();
        if let Some(fs) = faults {
            self.check_faults(fs)?;
        }
        if base.waves.len() != n || base.prev_words.len() != self.num_inputs() {
            return Err(BatchError::IncrementalBaseMismatch { expected: n, got: base.waves.len() });
        }
        if base.lanes != prev.lanes {
            return Err(BatchError::LaneMismatch { prev: base.lanes, new: prev.lanes });
        }
        let pass = self.settle(prev, new, faults, Some(base), Retain::All, cancel)?;
        let result = pass.into_result(prev, new, faults);
        if incremental_check_enabled() {
            let full = self.run_inner(prev, new, faults, cancel)?;
            for i in 0..n {
                assert_eq!(
                    *result.waves[i], *full.waves[i],
                    "incremental/full divergence on net {i} (OLA_BATCH_CHECK_INCREMENTAL)"
                );
            }
        }
        Ok(result)
    }

    /// The settling loop behind every entry point: one waveform per net in
    /// topological order, each folded into the counters and per-lane settle
    /// times as soon as it is produced.
    ///
    /// With a `base` run, a net whose own stimulus (input words, per-lane
    /// fault state) and fanins are unchanged shares the base waveform and
    /// scan products; a recomputed net whose waveform equals the base one is
    /// shared too, so it dirties nothing downstream (equality cutoff).
    /// `retain` decides which waveforms outlive their last consumer.
    fn settle<B: LaneWord>(
        &self,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        faults: Option<&LaneFaultSet<B>>,
        base: Option<&LaneSimResult<B>>,
        retain: Retain<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<Settled<B>, BatchError> {
        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        if cancelled() {
            return Err(BatchError::Cancelled);
        }
        let n = self.num_nets();
        let lanes = self.check_shapes(prev, new)?;
        let (raw_init, obs_init) = self.initial_state(prev, faults);
        // The active mask keeps unused high lanes out of every reduction, so
        // garbage in inactive lanes of an inverter's output can never leak
        // into settle times or transition counts.
        let mask = B::active_mask(lanes);
        let default_faults = LaneFaults::default();
        fn fault_of<'a, B: LaneWord>(
            set: Option<&'a LaneFaultSet<B>>,
            i: usize,
            default: &'a LaneFaults<B>,
        ) -> &'a LaneFaults<B> {
            set.map_or(default, |fs| &fs.nets[i])
        }

        let mut pass = Settled {
            lanes,
            waves: Vec::with_capacity(n),
            net_stats: Vec::new(),
            settle: vec![0u64; lanes as usize],
            word_steps: 0,
            lane_transitions: 0,
        };
        let mut dirty = vec![false; n];
        let mut next_input = 0usize;
        for i in 0..n {
            if i > 0 && i % NET_CHECK_INTERVAL == 0 && cancelled() {
                return Err(BatchError::Cancelled);
            }
            let slot = next_input;
            let is_input = self.kinds[i] == GateKind::Input;
            if is_input {
                next_input += 1;
            }
            let clean_base = base.filter(|b| {
                let stimulus_changed = fault_of(b.faults.as_ref(), i, &default_faults)
                    != fault_of(faults, i, &default_faults)
                    || (is_input
                        && (prev.words[slot] != b.prev_words[slot]
                            || new.words[slot] != b.new_words[slot]));
                !stimulus_changed && !self.fanins(i).any(|f| dirty[f])
            });
            let (wave, stats) = match clean_base {
                Some(b) => b.shared(i),
                None => {
                    let wave = self.net_wave(i, slot, prev, new, faults, &raw_init, &pass.waves);
                    debug_assert_eq!(wave.initial, obs_init[i], "net {i}");
                    match base {
                        // The cone reconverged: downstream nets see the base
                        // waveform, so they need not recompute because of
                        // net `i`.
                        Some(b) if wave == *b.waves[i] => b.shared(i),
                        _ => {
                            dirty[i] = true;
                            let stats = scan_wave(&wave, mask);
                            (Arc::new(wave), Arc::new(stats))
                        }
                    }
                }
            };
            pass.word_steps += wave.steps.len() as u64;
            pass.lane_transitions += stats.transitions;
            for &(t, word) in &stats.retire {
                word.for_each_lane(|l| {
                    let s = &mut pass.settle[l as usize];
                    *s = (*s).max(t);
                });
            }
            pass.waves.push(Some(wave));
            match retain {
                Retain::All => pass.net_stats.push(stats),
                Retain::Bus(on_bus) => {
                    // Release every waveform whose last reader was this net
                    // (a fanin, or the net itself when nothing reads it),
                    // unless the bus needs it.
                    for f in self.fanins(i).chain([i]) {
                        if self.last_use[f] as usize == i && !on_bus[f] {
                            pass.waves[f] = None;
                        }
                    }
                }
            }
        }
        crate::obs::with_observer(|o| {
            o.batch_run(u64::from(lanes), pass.word_steps, pass.lane_transitions);
        });
        Ok(pass)
    }
}

/// What the settling loop keeps of the waveforms it produces.
#[derive(Clone, Copy)]
enum Retain<'a> {
    /// Every waveform and its scan products: a full [`LaneSimResult`].
    All,
    /// Only the nets flagged here; every other waveform is dropped once its
    /// last consumer has been evaluated.
    Bus(&'a [bool]),
}

/// One settling pass: the waveforms it kept (`None` once released), the
/// per-net scan products of a [`Retain::All`] pass, and the folded
/// counters and per-lane settle times.
struct Settled<B: LaneWord> {
    lanes: u32,
    waves: Vec<Option<Arc<Wave<B>>>>,
    net_stats: Vec<Arc<NetStats<B>>>,
    settle: Vec<u64>,
    word_steps: u64,
    lane_transitions: u64,
}

impl<B: LaneWord> Settled<B> {
    /// Assembles the full result of a [`Retain::All`] pass.
    fn into_result(
        self,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        faults: Option<&LaneFaultSet<B>>,
    ) -> LaneSimResult<B> {
        LaneSimResult {
            lanes: self.lanes,
            waves: self
                .waves
                .into_iter()
                .map(|w| w.expect("a full pass keeps every waveform"))
                .collect(),
            net_stats: self.net_stats,
            settle: self.settle,
            word_steps: self.word_steps,
            lane_transitions: self.lane_transitions,
            prev_words: prev.words.clone(),
            new_words: new.words.clone(),
            faults: faults.cloned(),
        }
    }
}

/// One net's scan products: the masked transition count (a forward scan
/// of word ops only) and the retire list for settle times. The retire
/// list comes from a backward scan that retires each lane at its first
/// hit — every lane is touched at most once per net, where a forward
/// per-transition update would make the per-lane loop scale with total
/// lane transitions and dominate the whole engine on glitchy waves.
fn scan_wave<B: LaneWord>(w: &Wave<B>, mask: B) -> NetStats<B> {
    let mut transitions = 0u64;
    let mut prev_word = w.initial;
    for &(_, word) in &w.steps {
        transitions += u64::from(prev_word.xor(word).and(mask).count_ones());
        prev_word = word;
    }
    let mut retire = Vec::new();
    let mut remaining = mask;
    for k in (0..w.steps.len()).rev() {
        if remaining.is_zero() {
            break;
        }
        let before = if k == 0 { w.initial } else { w.steps[k - 1].1 };
        let (t, word) = w.steps[k];
        let changed = before.xor(word).and(remaining);
        if !changed.is_zero() {
            retire.push((t, changed));
            remaining = remaining.and(changed.not());
        }
    }
    NetStats { transitions, retire }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchFaultSet, BatchInputs, WideFaultSet, WideInputs};
    use crate::{
        default_event_budget, simulate_with_faults, FaultPlan, FpgaDelay, Netlist, UnitDelay,
    };

    const U: u64 = UnitDelay::UNIT;

    /// Cross-checks every lane of a batch run against the event-driven
    /// simulator. Without faults the per-lane waveforms must be identical
    /// lists; with faults the *sampled values* must agree at every step
    /// time and its neighbours (the event engine may record same-time
    /// duplicate entries at transient boundaries, so raw lists can differ
    /// in representation while denoting the same waveform).
    fn assert_equiv_generic<B: LaneWord, M: crate::DelayModel>(
        nl: &Netlist,
        delay: &M,
        prev_vecs: &[Vec<bool>],
        new_vecs: &[Vec<bool>],
        plans: &[FaultPlan],
    ) -> LaneSimResult<B> {
        let prog = BatchProgram::compile(nl, delay).unwrap();
        let prev = LaneInputs::<B>::pack(prev_vecs).unwrap();
        let new = LaneInputs::<B>::pack(new_vecs).unwrap();
        let fs = LaneFaultSet::<B>::compile(plans, nl.len()).unwrap();
        let res = if plans.is_empty() {
            prog.run(&prev, &new).unwrap()
        } else {
            prog.run_with_faults(&prev, &new, &fs).unwrap()
        };
        let budget = default_event_budget(nl);
        for lane in 0..prev_vecs.len() {
            let plan = plans.get(lane).cloned().unwrap_or_default();
            let ev =
                simulate_with_faults(nl, delay, &prev_vecs[lane], &new_vecs[lane], &plan, budget)
                    .unwrap();
            for net in nl.nets() {
                let l = lane as u32;
                if plans.is_empty() {
                    assert_eq!(
                        res.lane_waveform(net, l),
                        ev.waveform(net).to_vec(),
                        "net {net:?} lane {lane}"
                    );
                    assert_eq!(res.wave(net).lane_value_at(l, 0), ev.value_at(net, 0));
                } else {
                    let mut ts: Vec<u64> = ev.waveform(net).iter().map(|&(t, _)| t).collect();
                    ts.extend(res.lane_waveform(net, l).iter().map(|&(t, _)| t));
                    ts.push(0);
                    ts.push(ev.settle_time().max(res.settle_time(l)) + 1);
                    for &t in &ts.clone() {
                        ts.push(t.saturating_sub(1));
                        ts.push(t + 1);
                    }
                    for t in ts {
                        assert_eq!(
                            res.value_at(net, l, t),
                            ev.value_at(net, t),
                            "net {net:?} lane {lane} t {t}"
                        );
                    }
                }
            }
            if plans.is_empty() {
                assert_eq!(res.settle_time(lane as u32), ev.settle_time(), "lane {lane}");
            }
        }
        res
    }

    fn assert_equiv<M: crate::DelayModel>(
        nl: &Netlist,
        delay: &M,
        prev_vecs: &[Vec<bool>],
        new_vecs: &[Vec<bool>],
        plans: &[FaultPlan],
    ) -> BatchSimResult {
        assert_equiv_generic::<u64, M>(nl, delay, prev_vecs, new_vecs, plans)
    }

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

    fn glitchy() -> Netlist {
        // z = a XOR NOT(NOT(a)): rising edge glitches z.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let n1 = nl.not(a);
        let n2 = nl.not(n1);
        let z = nl.xor(a, n2);
        nl.set_output("z", vec![z]);
        nl
    }

    fn all_vectors(width: usize) -> Vec<Vec<bool>> {
        (0..1usize << width).map(|v| (0..width).map(|i| v >> i & 1 == 1).collect()).collect()
    }

    #[test]
    fn fault_free_waveforms_match_event_sim_exactly() {
        let nl = xor_chain(5);
        let news = all_vectors(6);
        let prevs = vec![vec![false; 6]; news.len()];
        let res = assert_equiv(&nl, &UnitDelay, &prevs, &news, &[]);
        assert_eq!(res.lanes(), 64);
        assert!(res.word_steps() > 0);
        assert!(res.lane_transitions() >= res.word_steps());
    }

    #[test]
    fn wide_lanes_match_event_sim_past_64_vectors() {
        let nl = xor_chain(7);
        let news = all_vectors(8);
        let prevs = vec![vec![false; 8]; news.len()];
        let res = assert_equiv_generic::<crate::batch::LaneBlock<4>, _>(
            &nl,
            &UnitDelay,
            &prevs,
            &news,
            &[],
        );
        assert_eq!(res.lanes(), 256);
    }

    #[test]
    fn wide_and_narrow_runs_agree_lane_for_lane() {
        let nl = glitchy();
        let news = all_vectors(1);
        let prevs = vec![vec![true]; news.len()];
        let narrow = assert_equiv(&nl, &FpgaDelay::default(), &prevs, &news, &[]);
        let wide = assert_equiv_generic::<crate::batch::LaneBlock<8>, _>(
            &nl,
            &FpgaDelay::default(),
            &prevs,
            &news,
            &[],
        );
        for net in nl.nets() {
            for lane in 0..news.len() as u32 {
                assert_eq!(narrow.lane_waveform(net, lane), wide.lane_waveform(net, lane));
            }
        }
        assert_eq!(narrow.word_steps(), wide.word_steps());
        assert_eq!(narrow.settle_times(), wide.settle_times());
    }

    #[test]
    fn glitches_survive_lane_packing() {
        let nl = glitchy();
        let res = assert_equiv(
            &nl,
            &UnitDelay,
            &[vec![false], vec![true]],
            &[vec![true], vec![false]],
            &[],
        );
        let z = nl.output("z")[0];
        // Lane 0 (rising a): glitch pulse up at U, down at 3U.
        assert_eq!(res.lane_waveform(z, 0), vec![(U, true), (3 * U, false)]);
    }

    #[test]
    fn fpga_delay_model_matches_event_sim() {
        let nl = glitchy();
        let news = all_vectors(1);
        let prevs = vec![vec![true]; news.len()];
        assert_equiv(&nl, &FpgaDelay::default(), &prevs, &news, &[]);
    }

    #[test]
    fn per_lane_fault_divergence_matches_scalar_plans() {
        let nl = xor_chain(3);
        let out = nl.output("z")[0];
        let mid = nl.net(2);
        let plans = vec![
            FaultPlan::new(),
            FaultPlan::new().stuck_at(out, true),
            FaultPlan::new().stuck_at(mid, false),
            FaultPlan::new().transient(out, U, 2 * U),
            FaultPlan::new().delay_push(mid, 3 * U),
            FaultPlan::new().delay_push(nl.net(0), U).transient(mid, 2 * U, U),
            FaultPlan::new().stuck_at(mid, true).delay_push(out, U),
        ];
        let news: Vec<Vec<bool>> =
            (0..plans.len()).map(|l| (0..4).map(|i| (l + i) % 3 == 0).collect()).collect();
        let prevs: Vec<Vec<bool>> =
            (0..plans.len()).map(|l| (0..4).map(|i| (l * i) % 2 == 1).collect()).collect();
        assert_equiv(&nl, &UnitDelay, &prevs, &news, &plans);
        assert_equiv_generic::<crate::batch::LaneBlock<2>, _>(
            &nl, &UnitDelay, &prevs, &news, &plans,
        );
    }

    #[test]
    fn transient_on_quiet_net_flips_inside_window_only() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let z = nl.not(a);
        nl.set_output("z", vec![z]);
        let plans = vec![FaultPlan::new().transient(z, 5 * U, 2 * U)];
        let res = assert_equiv(&nl, &UnitDelay, &[vec![false]], &[vec![false]], &plans);
        assert_eq!(res.lane_waveform(z, 0), vec![(5 * U, false), (7 * U, true)]);
    }

    #[test]
    fn input_delay_push_models_late_operand() {
        let nl = xor_chain(2);
        let a = nl.net(0);
        let plans = vec![FaultPlan::new().delay_push(a, 4 * U)];
        assert_equiv(&nl, &UnitDelay, &[vec![false; 3]], &[vec![true, true, false]], &plans);
    }

    #[test]
    fn run_validates_shapes() {
        let nl = xor_chain(2);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let ok = BatchInputs::zeros(3, 4).unwrap();
        let short = BatchInputs::zeros(2, 4).unwrap();
        let lanes2 = BatchInputs::zeros(3, 2).unwrap();
        assert_eq!(
            prog.run(&ok, &short).unwrap_err(),
            BatchError::InputArity { expected: 3, got: 2 }
        );
        assert_eq!(
            prog.run(&ok, &lanes2).unwrap_err(),
            BatchError::LaneMismatch { prev: 4, new: 2 }
        );
        let alien = BatchFaultSet::compile(&[], 99).unwrap();
        assert!(matches!(
            prog.run_with_faults(&ok, &ok, &alien).unwrap_err(),
            BatchError::InvalidFault(NetlistError::NetOutOfRange { .. })
        ));
        assert_eq!(
            prog.run_bus(&ok, &ok, &[nl.net(0), NetId::from_index(99)], None).unwrap_err(),
            BatchError::InvalidBus(NetlistError::NetOutOfRange { index: 99, len: nl.len() })
        );
    }

    #[test]
    fn cancellation_is_checked_before_and_during_the_pass() {
        let nl = xor_chain(4);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let b = BatchInputs::zeros(5, 8).unwrap();
        let tok = crate::CancelToken::new();
        // Live token: bit-identical to the plain run.
        let plain = prog.run(&b, &b).unwrap();
        let live = prog.run_cancellable(&b, &b, &tok).unwrap();
        for net in nl.nets() {
            assert_eq!(plain.wave(net), live.wave(net));
        }
        // Cancelled token: typed error from both entry points.
        tok.cancel();
        assert_eq!(prog.run_cancellable(&b, &b, &tok).unwrap_err(), BatchError::Cancelled);
        assert_eq!(
            prog.run_bus(&b, &b, nl.output("z"), Some(&tok)).unwrap_err(),
            BatchError::Cancelled
        );
        let fs = BatchFaultSet::compile(&[], nl.len()).unwrap();
        assert_eq!(
            prog.run_with_faults_cancellable(&b, &b, &fs, &tok).unwrap_err(),
            BatchError::Cancelled
        );
        assert_eq!(
            prog.run_incremental_cancellable(&plain, &b, &b, None, &tok).unwrap_err(),
            BatchError::Cancelled
        );
    }

    #[test]
    fn zero_lanes_is_a_valid_degenerate_batch() {
        let nl = xor_chain(2);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let b = BatchInputs::zeros(3, 0).unwrap();
        let res = prog.run(&b, &b).unwrap();
        assert_eq!(res.lanes(), 0);
        assert_eq!(res.lane_transitions(), 0);
        assert_eq!(res.max_settle_time(), 0);
    }

    #[test]
    fn identity_fault_set_equals_fault_free_run() {
        let nl = glitchy();
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let prev = BatchInputs::pack(&[vec![false], vec![true]]).unwrap();
        let new = BatchInputs::pack(&[vec![true], vec![true]]).unwrap();
        let clean = prog.run(&prev, &new).unwrap();
        let fs = BatchFaultSet::compile(&[FaultPlan::new(), FaultPlan::new()], nl.len()).unwrap();
        let faulty = prog.run_with_faults(&prev, &new, &fs).unwrap();
        for net in nl.nets() {
            assert_eq!(clean.wave(net), faulty.wave(net));
        }
        assert_eq!(clean.settle_times(), faulty.settle_times());
    }

    /// Asserts an incremental rerun is bit-identical to the full recompute
    /// with the same stimulus, counters and settle times included.
    fn assert_incremental_matches_full<B: LaneWord>(
        nl: &Netlist,
        prog: &BatchProgram,
        base: &LaneSimResult<B>,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        faults: Option<&LaneFaultSet<B>>,
    ) -> LaneSimResult<B> {
        let inc = prog.run_incremental(base, prev, new, faults).unwrap();
        let full = match faults {
            Some(fs) => prog.run_with_faults(prev, new, fs).unwrap(),
            None => prog.run(prev, new).unwrap(),
        };
        for net in nl.nets() {
            assert_eq!(inc.wave(net), full.wave(net), "net {net:?}");
        }
        assert_eq!(inc.settle_times(), full.settle_times());
        assert_eq!(inc.word_steps(), full.word_steps());
        assert_eq!(inc.lane_transitions(), full.lane_transitions());
        inc
    }

    #[test]
    fn incremental_fault_rerun_shares_the_clean_cone() {
        let nl = xor_chain(5);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let news = all_vectors(6);
        let prev = BatchInputs::zeros(6, news.len() as u32).unwrap();
        let new = BatchInputs::pack(&news).unwrap();
        let clean = prog.run(&prev, &new).unwrap();
        // A fault on the last XOR: only its fanout cone (itself) is dirty.
        let out = nl.output("z")[0];
        let plans = vec![FaultPlan::new().stuck_at(out, true)];
        let fs = BatchFaultSet::compile(&plans, nl.len()).unwrap();
        let inc = assert_incremental_matches_full(&nl, &prog, &clean, &prev, &new, Some(&fs));
        // Every net but the faulted output shares its waveform with the base.
        assert_eq!(inc.shared_waves(), nl.len() - 1);
    }

    #[test]
    fn incremental_input_delta_recomputes_only_the_cone() {
        let nl = xor_chain(6);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let zero = BatchInputs::zeros(7, 8).unwrap();
        let a = BatchInputs::pack(
            &(0..8).map(|l| (0..7).map(|i| (l + i) % 2 == 0).collect()).collect::<Vec<_>>(),
        )
        .unwrap();
        let base = prog.run(&zero, &a).unwrap();
        // Flip only the last input's new words: the cone is the last XOR.
        let mut vecs: Vec<Vec<bool>> = (0..8).map(|l| a.lane(l)).collect();
        for v in &mut vecs {
            let last = v.len() - 1;
            v[last] = !v[last];
        }
        let b = BatchInputs::pack(&vecs).unwrap();
        let inc = assert_incremental_matches_full(&nl, &prog, &base, &zero, &b, None);
        // Untouched inputs and early XORs share with the base: only the
        // flipped input net and the final XOR differ.
        assert!(inc.shared_waves() >= nl.len() - 2, "shared {}", inc.shared_waves());
    }

    #[test]
    fn incremental_noop_delta_shares_everything() {
        let nl = glitchy();
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let prev = BatchInputs::pack(&[vec![false], vec![true]]).unwrap();
        let new = BatchInputs::pack(&[vec![true], vec![false]]).unwrap();
        let base = prog.run(&prev, &new).unwrap();
        let inc = assert_incremental_matches_full(&nl, &prog, &base, &prev, &new, None);
        assert_eq!(inc.shared_waves(), nl.len());
    }

    #[test]
    fn incremental_equality_cutoff_stops_masked_faults() {
        // Stuck-at-0 on a net that settles to 0 anyway with these inputs:
        // the recomputed wave may differ mid-flight but the cutoff fires
        // wherever it reconverges; the result must still be exact.
        let nl = xor_chain(4);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let prev = BatchInputs::zeros(5, 4).unwrap();
        let new = BatchInputs::pack(&all_vectors(5)[..4]).unwrap();
        let base = prog.run(&prev, &new).unwrap();
        let mid = nl.net(2);
        let plans = vec![FaultPlan::new().stuck_at(mid, false); 4];
        let fs = BatchFaultSet::compile(&plans, nl.len()).unwrap();
        assert_incremental_matches_full(&nl, &prog, &base, &prev, &new, Some(&fs));
    }

    #[test]
    fn incremental_from_faulty_base_back_to_clean() {
        let nl = xor_chain(5);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let prev = BatchInputs::zeros(6, 8).unwrap();
        let new = BatchInputs::pack(&all_vectors(6)[..8]).unwrap();
        let mid = nl.net(4);
        let plans = vec![FaultPlan::new().delay_push(mid, 3 * U), FaultPlan::new()];
        let fs = BatchFaultSet::compile(&plans, nl.len()).unwrap();
        let faulty = prog.run_with_faults(&prev, &new, &fs).unwrap();
        // Rerun fault-free against the faulty base.
        assert_incremental_matches_full(&nl, &prog, &faulty, &prev, &new, None);
    }

    #[test]
    fn incremental_wide_matches_full_wide() {
        let nl = xor_chain(6);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let news = all_vectors(7);
        let prev = WideInputs::<2>::zeros(7, news.len() as u32).unwrap();
        let new = WideInputs::<2>::pack(&news).unwrap();
        let clean = prog.run(&prev, &new).unwrap();
        let mid = nl.net(6);
        let mut plans = vec![FaultPlan::new(); 100];
        plans[97] = FaultPlan::new().transient(mid, U, 2 * U);
        let fs = WideFaultSet::<2>::compile(&plans, nl.len()).unwrap();
        assert_incremental_matches_full(&nl, &prog, &clean, &prev, &new, Some(&fs));
    }

    #[test]
    fn incremental_validates_the_base() {
        let nl = xor_chain(2);
        let other = xor_chain(5);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let alien_prog = BatchProgram::compile(&other, &UnitDelay).unwrap();
        let b = BatchInputs::zeros(3, 4).unwrap();
        let ab = BatchInputs::zeros(6, 4).unwrap();
        let alien = alien_prog.run(&ab, &ab).unwrap();
        assert!(matches!(
            prog.run_incremental(&alien, &b, &b, None).unwrap_err(),
            BatchError::IncrementalBaseMismatch { .. }
        ));
        let base = prog.run(&b, &b).unwrap();
        let narrow = BatchInputs::zeros(3, 2).unwrap();
        assert!(matches!(
            prog.run_incremental(&base, &narrow, &narrow, None).unwrap_err(),
            BatchError::LaneMismatch { .. }
        ));
    }
}
