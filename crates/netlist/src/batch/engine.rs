//! The lane-word batch execution engine.
//!
//! One [`BatchProgram::run`] replays the event-driven simulator's
//! transport-delay semantics for a whole lane word of input vectors at
//! once, *without an event queue*: because the program is a levelized DAG
//! and every gate's delay is a compile-time constant, each net's settling
//! waveform is a pure function of its fanin waveforms —
//! `out(t + d) = f(inputs(t))` — so settling each net once, after its
//! fanins, produces the exact waveform of every net. Word-level change
//! detection (a step is recorded only when some lane's bit changes) is the
//! batch counterpart of the event simulator's schedule-equal-value
//! cancellation. The word type is any [`LaneWord`]: `u64` is the legacy
//! 64-lane path, [`LaneBlock<W>`](crate::batch::LaneBlock) runs `64·W`
//! lanes per pass.
//!
//! With faults ([`BatchProgram::run_with_faults`]) each lane may carry a
//! *different* [`FaultPlan`](crate::FaultPlan): stuck bits and transient
//! windows transform the observed waveform per lane, and per-lane delay
//! pushes split a gate's output into delay groups that are shifted
//! independently and re-merged.
//!
//! # The per-step work
//!
//! Almost all of a pass is spent producing word steps, so each step is
//! touched as few times as possible:
//!
//! * **Per-kind kernels.** Every 2-input kind runs a two-way merge of its
//!   fanin steps, monomorphized for its word function; only `Mux` uses the
//!   generic 3-slot merge. An inverter copies its fanin's steps, inverted.
//!   With one delay for every lane, a step's time is shifted by the gate's
//!   `(base + push).max(1)` as it is emitted; per-lane delay pushes merge
//!   the unshifted stream once per delay group instead.
//! * **Transitions counted on emission.** Every waveform is built through
//!   one sink that drops unchanged words and, while the step's words are
//!   in registers, adds its masked transitions and ORs the lanes it
//!   changed into a tally. An inverter flips on every fanin step, so it
//!   inherits its fanin's tally and counts nothing, unless a sampled pass
//!   clips it.
//! * **A bounded retire scan.** Settle times come from a backward scan of
//!   each waveform that retires every lane at its last change. It starts
//!   from the active lanes that changed at all, so a lane that is quiet on
//!   this net never holds it open, and it stops at the least settle time
//!   over all lanes its worker has folded, since no earlier step can raise
//!   a lane's settle time above what it already is. Settle times merge by
//!   per-lane maxima, so the floor-bounded scan is exact for full and
//!   bus-only passes alike.
//!
//! # The ready list and its workers
//!
//! Every entry point runs one settling loop. The program stores each
//! net's readers; a pass starts a pending-fanin count and an
//! unread-reader count per net from them. A net is ready when its last
//! fanin is done, and ready nets go on a LIFO stack, so the traversal runs
//! depth first: a worker keeps one reader it just made ready and shares
//! the rest. A waveform is released once its last reader has taken it,
//! unless the pass retains it.
//!
//! A pass runs on `workers` threads: the caller and `workers − 1` scoped
//! helpers, which pop the shared stack and wait on it while other workers
//! may still make nets ready; one worker spawns nothing. The workers share
//! the pass's per-net state behind a lock per net and atomic pending
//! counts. Each worker folds its own word steps, lane transitions and
//! settle times, and the folds are merged once at the end by integer sums
//! and per-lane maxima, so waveforms, counters and settle times are
//! bit-identical for any worker count and any schedule. Every worker polls
//! the cancellation token, and a worker that is cancelled or panics halts
//! the others; a helper's panic is re-raised on the caller.
//!
//! # Bus-only streaming
//!
//! A sampling sweep reads only an output bus, so
//! [`BatchProgram::run_bus`] runs the same settling loop but keeps only
//! that bus's waveforms. Each net's scan products — word steps, masked
//! transitions and the per-lane settle retire list — are folded as soon as
//! its waveform is produced, and an interior waveform is dropped once its
//! last reader has been settled. Waveform memory is then bounded by the
//! live frontier of the traversal plus the bus, not by every net of the
//! netlist, while the counters and settle times equal those of a full
//! [`BatchProgram::run`]. `run_bus` takes a worker count; the other entry
//! points run on the calling thread.
//!
//! # Sampled passes
//!
//! A fault campaign asks what its registers capture at two times only: the
//! main register at the rated period and the Razor shadow a margin later.
//! [`BatchProgram::run_bus_at`] answers for any set of sample times and
//! stores only the steps that can still reach one of them.
//!
//! * **Spans.** One reverse pass over the program gives each net `n` its
//!   least and greatest path delay `Dmin(n)`, `Dmax(n)` to a bus net (0
//!   on a bus net), where a gate adds its least and greatest effective
//!   delay `(base + push).max(1)` over its lane delay groups. For each
//!   sample time `T` with `Dmin(n) ≤ T`, net `n` keeps the span
//!   `[T − Dmax(n), T − Dmin(n)]`; a net with no path to the bus keeps
//!   none.
//! * **Clipping.** The emitter stores a step inside a span as it is. The
//!   steps of one gap before a span collapse to the gap's last, which sets
//!   the value entering that span, and steps after the last span are
//!   dropped. A stored step still differs from the one before it.
//! * **Exactness.** A clipped waveform equals the full one at every time
//!   inside its spans. A gate whose output is read at time `t` reads its
//!   fanins at `t − d`, for a delay `d` of one of its delay groups, and
//!   `Dmin`/`Dmax` make every fanin's spans cover the reader's shifted by
//!   every such `d`. By induction from the inputs, every value an
//!   in-span output depends on is exact, and a bus net's spans hold its
//!   sample times. Step times that saturate at `u64::MAX` fall outside
//!   this argument; no sample time comes near them.
//!
//! The pass returns only the bus words at the sample times, so nothing can
//! read a clipped waveform at a time it did not ask for. Its word steps and
//! lane transitions count the steps it kept, and it reports no settle
//! times.
//!
//! # Settled words
//!
//! The value a register should hold is the settled one, and a
//! combinational DAG settles to a function of its inputs alone, whatever
//! its delays. [`BatchProgram::settled_bus`] computes it in one zero-delay
//! pass in net order, one word operation per net, with no waveform; a fault
//! campaign judges its sampled faulty pass against it.
//!
//! Setting `OLA_BATCH_CHECK_INCREMENTAL=1` cross-checks every sampled pass
//! and every settled-bus evaluation against a full pass.

use crate::batch::block::{LaneBlock, LaneWord};
use crate::batch::fault::{LaneFaultSet, LaneFaults};
use crate::batch::program::{BatchProgram, LaneInputs};
use crate::batch::sampler::{sorted_distinct, LaneBusWaves, LaneTsSweep};
use crate::batch::wave::Wave;
use crate::cancel::CancelToken;
use crate::{BatchError, GateKind, NetId, NetlistError};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// How many nets a settling worker evaluates between cancellation polls:
/// small enough that cancellation latency stays in the microseconds,
/// large enough that the atomic load is invisible in profiles.
const NET_CHECK_INTERVAL: usize = 256;

/// Word-parallel gate evaluation: every bit position is one lane.
fn eval_word<B: LaneWord>(kind: GateKind, a: B, b: B, c: B) -> B {
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

/// What a waveform's emitter tallied while the words were in registers:
/// the masked transitions, and every lane that changed at all.
#[derive(Clone, Copy, Debug, Default)]
struct Tally<B: LaneWord> {
    transitions: u64,
    changed: B,
}

/// The sink every waveform is built through. A word equal to the last one
/// is dropped (word-level change detection); a kept step is shifted by
/// `delay` as it is stored and counted into the [`Tally`], so no later
/// pass re-reads the waveform to count its transitions.
///
/// The step vector starts at a caller's capacity hint, so most
/// waveforms never reallocate, and grows by a quarter when full, so one
/// that outgrows its hint overshoots by at most a quarter rather than
/// doubling.
///
/// A sampled pass clips the waveform to its net's spans (see the
/// [module docs](self)): a step inside a span is kept, and the steps of
/// one gap before a span collapse to the gap's last, the value entering
/// that span. Steps after the last span are dropped.
struct Emit<'s, B: LaneWord> {
    delay: u64,
    mask: B,
    initial: B,
    last: B,
    steps: Vec<(u64, B)>,
    tally: Tally<B>,
    /// The spans to keep, sorted and disjoint.
    clip: Clip<'s>,
    /// The first span not yet passed.
    next: usize,
    /// The last step of the gap before span `next`, not yet stored.
    pending: Option<(u64, B)>,
}

impl<'s, B: LaneWord> Emit<'s, B> {
    fn new(initial: B, delay: u64, mask: B, capacity: usize, clip: Clip<'s>) -> Self {
        Emit {
            delay,
            mask,
            initial,
            last: initial,
            steps: Vec::with_capacity(capacity),
            tally: Tally::default(),
            clip,
            next: 0,
            pending: None,
        }
    }

    #[inline]
    fn push(&mut self, t: u64, word: B) {
        let t = t.saturating_add(self.delay);
        match self.clip {
            None => self.store(t, word),
            Some(spans) => self.push_clipped(spans, t, word),
        }
    }

    fn push_clipped(&mut self, spans: &[(u64, u64)], t: u64, word: B) {
        // A step at or past the next span's start ends the gap before it.
        if spans.get(self.next).is_some_and(|&(start, _)| t >= start) {
            if let Some((tp, wp)) = self.pending.take() {
                self.store(tp, wp);
            }
        }
        while spans.get(self.next).is_some_and(|&(_, end)| end < t) {
            self.next += 1;
        }
        match spans.get(self.next) {
            None => {}
            Some(&(start, _)) if t >= start => self.store(t, word),
            Some(_) => self.pending = Some((t, word)),
        }
    }

    #[inline]
    fn store(&mut self, t: u64, word: B) {
        let flips = word.xor(self.last);
        if !flips.is_zero() {
            self.last = word;
            self.tally.transitions += u64::from(flips.and(self.mask).count_ones());
            self.tally.changed = self.tally.changed.or(flips);
            if self.steps.len() == self.steps.capacity() {
                self.steps.reserve_exact(self.steps.len() / 4 + 8);
            }
            self.steps.push((t, word));
        }
    }

    fn finish(mut self) -> (Wave<B>, Tally<B>) {
        // A held step always precedes a span, which it enters.
        if let Some((t, word)) = self.pending.take() {
            self.store(t, word);
        }
        (Wave { initial: self.initial, steps: self.steps }, self.tally)
    }
}

/// The spans a waveform is clipped to: `None` keeps every step.
type Clip<'s> = Option<&'s [(u64, u64)]>;

/// An inverter's waveform: every fanin step, inverted and shifted by
/// `delay`. Each fanin step differs from the one before it, so each one
/// flips the output: the inverter's tally is its fanin's, and needs no
/// counting.
fn invert<B: LaneWord>(a: &Wave<B>, initial: B, delay: u64) -> Wave<B> {
    let steps = a.steps.iter().map(|&(t, w)| (t.saturating_add(delay), w.not())).collect();
    Wave { initial, steps }
}

/// A 2-input gate's function stream: a two-way merge of the fanin steps
/// that evaluates `f` once per distinct time. Steps at equal times are
/// consumed together, one from each fanin.
fn binary<B: LaneWord>(a: &Wave<B>, b: &Wave<B>, f: impl Fn(B, B) -> B, out: &mut Emit<B>) {
    let (sa, sb) = (&a.steps[..], &b.steps[..]);
    let (mut wa, mut wb) = (a.initial, b.initial);
    let (mut i, mut j) = (0, 0);
    while i < sa.len() && j < sb.len() {
        let ((ta, xa), (tb, xb)) = (sa[i], sb[j]);
        let t = ta.min(tb);
        if ta == t {
            wa = xa;
            i += 1;
        }
        if tb == t {
            wb = xb;
            j += 1;
        }
        out.push(t, f(wa, wb));
    }
    for &(t, xa) in &sa[i..] {
        out.push(t, f(xa, wb));
    }
    for &(t, xb) in &sb[j..] {
        out.push(t, f(wa, xb));
    }
}

/// The generic 3-slot merge, kept for `Mux`, the one 3-input kind.
fn mux<B: LaneWord>(ins: [&Wave<B>; 3], out: &mut Emit<B>) {
    let mut cur = ins.map(|w| w.initial);
    let mut idx = [0usize; 3];
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
        out.push(t_next, eval_word(GateKind::Mux, cur[0], cur[1], cur[2]));
    }
}

/// A gate's waveform with every lane shifted by `delay`, clipped to
/// `clip`, and its tally. `fanin_tally` is the tally of the first fanin,
/// which an unclipped inverter inherits. Each kind runs a kernel
/// monomorphized for its function and arity. The capacity hint is the
/// busiest fanin's step count: a gate's output usually changes about as
/// often as that fanin.
fn kernel<B: LaneWord>(
    kind: GateKind,
    ins: &[&Wave<B>],
    init: B,
    delay: u64,
    mask: B,
    fanin_tally: Tally<B>,
    clip: Clip<'_>,
) -> (Wave<B>, Tally<B>) {
    if let (GateKind::Not, &[a], None) = (kind, ins, clip) {
        return (invert(a, init, delay), fanin_tally);
    }
    let hint = ins.iter().map(|w| w.steps.len()).max().unwrap_or(0);
    let mut out = Emit::new(init, delay, mask, hint, clip);
    match (kind, ins) {
        (GateKind::Not, &[a]) => a.steps.iter().for_each(|&(t, w)| out.push(t, w.not())),
        (GateKind::And, &[a, b]) => binary(a, b, B::and, &mut out),
        (GateKind::Or, &[a, b]) => binary(a, b, B::or, &mut out),
        (GateKind::Xor, &[a, b]) => binary(a, b, B::xor, &mut out),
        (GateKind::Nand, &[a, b]) => binary(a, b, |x, y| x.and(y).not(), &mut out),
        (GateKind::Nor, &[a, b]) => binary(a, b, |x, y| x.or(y).not(), &mut out),
        (GateKind::Xnor, &[a, b]) => binary(a, b, |x, y| x.xor(y).not(), &mut out),
        (GateKind::Mux, &[s, a, b]) => mux([s, a, b], &mut out),
        _ => unreachable!("{kind:?} gate with {} fanins", ins.len()),
    }
    out.finish()
}

/// The input waveform: lanes switch from their previous to their new bit at
/// their delay-push time (0 without faults). Groups are sorted by push.
fn input_wave<B: LaneWord>(
    prev: B,
    new: B,
    groups: &[(u64, B)],
    mask: B,
    clip: Clip<'_>,
) -> (Wave<B>, Tally<B>) {
    let mut out = Emit::new(prev, 0, mask, groups.len(), clip);
    let mut word = prev;
    let mut i = 0;
    while i < groups.len() {
        let t = groups[i].0;
        let mut lanes = B::ZERO;
        while i < groups.len() && groups[i].0 == t {
            lanes = lanes.or(groups[i].1);
            i += 1;
        }
        word = word.and(lanes.not()).or(new.and(lanes));
        out.push(t, word);
    }
    out.finish()
}

/// The effective delay of a gate of raw delay `base` on the lanes pushed
/// by `push`.
fn effective_delay(base: u64, push: u64) -> u64 {
    base.saturating_add(push).max(1)
}

/// One gate's raw output waveform from its fanin waveforms, clipped to
/// `clip`.
///
/// With one delay for every lane (the fault-free case) the function stream
/// is emitted already shifted by `(base + push).max(1)`. Per-lane delay
/// pushes first build the unshifted function stream; each delay group `g`
/// then shifts it by its own effective delay and contributes its lanes,
/// and the group streams are k-way merged back into one waveform.
#[allow(clippy::too_many_arguments)] // internal: one gate's whole context
fn gate_wave<B: LaneWord>(
    kind: GateKind,
    ins: &[&Wave<B>],
    init: B,
    base_delay: u64,
    groups: &[(u64, B)],
    mask: B,
    fanin_tally: Tally<B>,
    clip: Clip<'_>,
) -> (Wave<B>, Tally<B>) {
    let delay = |push: u64| effective_delay(base_delay, push);
    if let [(push, _)] = groups {
        return kernel(kind, ins, init, delay(*push), mask, fanin_tally, clip);
    }

    let (fstream, _) = kernel(kind, ins, init, 0, mask, fanin_tally, None);
    let fstream = fstream.steps;
    let ds: Vec<u64> = groups.iter().map(|&(push, _)| delay(push)).collect();
    let mut cursors = vec![0usize; groups.len()];
    let mut words: Vec<B> = groups.iter().map(|&(_, lanes)| init.and(lanes)).collect();
    let mut out = Emit::new(init, 0, mask, fstream.len(), clip);
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
        out.push(t_next, words.iter().fold(B::ZERO, |acc, &w| acc.or(w)));
    }
    out.finish()
}

/// Applies the per-lane observation transform (stuck bits, transient
/// windows) to a raw waveform, clipped to `clip`: candidate change times
/// are the raw step times plus the window boundaries, and at each the
/// observed word is `((raw ^ flips) & !stuck_mask) | stuck_vals`.
fn observe_wave<B: LaneWord>(
    raw: &Wave<B>,
    f: &LaneFaults<B>,
    mask: B,
    clip: Clip<'_>,
) -> (Wave<B>, Tally<B>) {
    let init = f.observe_initial(raw.initial);
    let mut times: Vec<u64> = raw.steps.iter().map(|&(t, _)| t).collect();
    for &(start, end, _) in &f.windows {
        times.push(start);
        times.push(end);
    }
    times.sort_unstable();
    times.dedup();

    let mut out = Emit::new(init, 0, mask, times.len(), clip);
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
        for &(start, end, lanes) in &f.windows {
            if t >= start && t < end {
                flips = flips.or(lanes);
            }
        }
        out.push(t, cur_raw.xor(flips).and(f.stuck_mask.not()).or(f.stuck_vals));
    }
    out.finish()
}

/// True when `OLA_BATCH_CHECK_INCREMENTAL=1` asks every sampled pass and
/// every settled-bus evaluation to be cross-checked against a full pass.
fn cross_check_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("OLA_BATCH_CHECK_INCREMENTAL")
            .is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
    })
}

/// The settling history of one batch run: lane-word waveforms for every
/// net, per-lane settle times, and engine-work counters.
///
/// The per-lane view ([`LaneSimResult::value_at`],
/// [`LaneSimResult::lane_waveform`](Self::lane_waveform)) is bit-identical
/// to the event-driven [`SimResult`](crate::SimResult) of the same
/// (vector, fault-plan) pair — the equivalence the proptest suite pins
/// down.
#[derive(Clone, Debug)]
pub struct LaneSimResult<B: LaneWord = u64> {
    lanes: u32,
    waves: Vec<Wave<B>>,
    settle: Vec<u64>,
    word_steps: u64,
    lane_transitions: u64,
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

/// What the sampled bus pass ([`BatchProgram::run_bus_at`]) returns: the
/// bus words at the requested times, and the word steps and lane
/// transitions the pass kept. Its clipped waveforms are exact only at
/// those times, so none is exposed.
#[derive(Clone, Debug)]
pub struct LaneBusSamples<B: LaneWord = u64> {
    sweep: LaneTsSweep<B>,
    word_steps: u64,
    lane_transitions: u64,
}

impl<B: LaneWord> LaneBusSamples<B> {
    /// The bus words at each requested time, in the requested order.
    #[must_use]
    pub fn sweep(&self) -> &LaneTsSweep<B> {
        &self.sweep
    }

    /// Word-level steps the pass kept across all nets.
    #[must_use]
    pub fn word_steps(&self) -> u64 {
        self.word_steps
    }

    /// Per-lane transitions across active lanes in the steps the pass kept.
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
        self.run_inner(prev, new, None)
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
        self.check_faults(Some(faults))?;
        self.run_inner(prev, new, Some(faults))
    }

    /// Runs the engine fault-free like [`BatchProgram::run`], but keeps
    /// only the waveforms of `bus` (in the given order, repeats allowed):
    /// every net's scan products are folded as its waveform is produced and
    /// every other waveform is dropped after its last reader, so memory
    /// is bounded by the live frontier plus the bus (see the
    /// [module docs](crate::batch)). The pass runs on `workers` threads (0 counts
    /// as 1; one worker spawns none). The bus waveforms, settle times, word
    /// steps and lane transitions equal those of a full run, for any
    /// worker count. Every worker polls `cancel` every
    /// `NET_CHECK_INTERVAL` nets, and the pass polls it before it starts.
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
        workers: usize,
    ) -> Result<LaneBusResult<B>, BatchError> {
        let on_bus = self.bus_mask(bus)?;
        let stim = Stimulus { prev, new, faults: None };
        let pass = self.settle(stim, Retain::Bus(&on_bus), cancel, workers)?;
        Ok(pass.into_bus_result(bus))
    }

    /// A full pass, with `faults` if given: the same result as
    /// [`BatchProgram::run`] or [`BatchProgram::run_with_faults`].
    /// `_base` is not read. The entry point keeps its old signature for
    /// the benchmark harness's probe only, and goes with the next change
    /// to the harness.
    ///
    /// # Errors
    ///
    /// As for [`BatchProgram::run_with_faults`].
    pub fn run_incremental<B: LaneWord>(
        &self,
        _base: &LaneSimResult<B>,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        faults: Option<&LaneFaultSet<B>>,
    ) -> Result<LaneSimResult<B>, BatchError> {
        self.check_faults(faults)?;
        self.run_inner(prev, new, faults)
    }

    /// Runs the engine, with `faults` if given, and returns only the words
    /// of `bus` at each of `times`, in the given order: what registers
    /// clocked at those times capture. Every net's waveform is clipped to
    /// the spans in which it can still reach a register at one of `times`:
    /// `[T − Dmax, T − Dmin]` for each `T`, where `D` is the net's path
    /// delay to the bus over every lane delay group. So the pass stores
    /// far fewer steps than [`BatchProgram::run_bus`] does. The words equal
    /// `run_with_faults(…).bus_waves(bus).try_sweep(times)` —
    /// property-tested, and cross-checked on every call when
    /// `OLA_BATCH_CHECK_INCREMENTAL=1`. The pass runs on the calling
    /// thread.
    ///
    /// Its word steps and lane transitions count the steps it kept, not
    /// the whole settling history, and it reports no settle times.
    ///
    /// # Errors
    ///
    /// As for [`BatchProgram::run`], plus [`BatchError::InvalidFault`] if
    /// `faults` was compiled against a different netlist size,
    /// [`BatchError::InvalidBus`] naming the first bus net outside the
    /// netlist, and [`BatchError::DuplicateTs`] naming the first time
    /// `times` holds twice.
    pub fn run_bus_at<B: LaneWord>(
        &self,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        faults: Option<&LaneFaultSet<B>>,
        bus: &[NetId],
        times: &[u64],
    ) -> Result<LaneBusSamples<B>, BatchError> {
        self.check_faults(faults)?;
        let on_bus = self.bus_mask(bus)?;
        let spans = Spans::new(self, &on_bus, faults, &sorted_distinct(times)?);
        let stim = Stimulus { prev, new, faults };
        let pass = self.settle(stim, Retain::Sampled(&on_bus, &spans), None, 1)?;
        let word_steps = pass.fold.word_steps;
        let lane_transitions = pass.fold.lane_transitions;
        let sweep = pass.into_bus_result(bus).bus.sweep(times);
        if cross_check_enabled() {
            let full = self.run_inner(prev, new, faults)?;
            let want = full.bus_waves(bus).expect("bus validated above").sweep(times);
            assert!(sweep == want, "sampled/full divergence (OLA_BATCH_CHECK_INCREMENTAL)");
        }
        Ok(LaneBusSamples { sweep, word_steps, lane_transitions })
    }

    /// The settled words of `bus` (in the given order, repeats allowed)
    /// for the fault-free input `new`, from one zero-delay pass in net
    /// order: an input takes its `new` word, a constant its value in every
    /// lane, and a gate its function of its fanins' words. A combinational
    /// DAG settles to a function of its inputs alone, so the words equal
    /// the final bus words of [`BatchProgram::run`] for any `prev` and any
    /// delay model — property-tested, and cross-checked against a full
    /// clean pass on every call when `OLA_BATCH_CHECK_INCREMENTAL=1`. The
    /// pass costs one word operation per net and builds no waveform.
    ///
    /// # Errors
    ///
    /// [`BatchError::InputArity`] if `new`'s word count differs from the
    /// netlist's input count, and [`BatchError::InvalidBus`] naming the
    /// first bus net outside the netlist.
    pub fn settled_bus<B: LaneWord>(
        &self,
        new: &LaneInputs<B>,
        bus: &[NetId],
    ) -> Result<Vec<B>, BatchError> {
        let expected = self.num_inputs();
        if new.num_inputs() != expected {
            return Err(BatchError::InputArity { expected, got: new.num_inputs() });
        }
        self.bus_mask(bus)?;
        let mut words: Vec<B> = Vec::with_capacity(self.num_nets());
        for (i, &kind) in self.kinds.iter().enumerate() {
            let word = match kind {
                GateKind::Input => new.words[self.input_slot(i)],
                GateKind::Const => B::splat(self.const_ones[i]),
                kind => {
                    let fanin = |net: &[u32]| words[net[i] as usize];
                    eval_word(kind, fanin(&self.in0), fanin(&self.in1), fanin(&self.in2))
                }
            };
            words.push(word);
        }
        let settled: Vec<B> = bus.iter().map(|net| words[net.index()]).collect();
        if cross_check_enabled() {
            let prev = LaneInputs::zeros(expected, new.lanes)?;
            let full = self.run_inner(&prev, new, None)?;
            let want: Vec<B> = bus.iter().map(|net| full.waves[net.index()].final_word()).collect();
            assert!(settled == want, "settled/full divergence (OLA_BATCH_CHECK_INCREMENTAL)");
        }
        Ok(settled)
    }

    /// Flags the nets of `bus` for a [`Retain::Bus`] or [`Retain::Sampled`]
    /// pass.
    fn bus_mask(&self, bus: &[NetId]) -> Result<Vec<bool>, BatchError> {
        let len = self.num_nets();
        let mut on_bus = vec![false; len];
        for net in bus {
            let index = net.index();
            *on_bus
                .get_mut(index)
                .ok_or(BatchError::InvalidBus(NetlistError::NetOutOfRange { index, len }))? = true;
        }
        Ok(on_bus)
    }

    /// Rejects a fault set compiled against a netlist of another size.
    fn check_faults<B: LaneWord>(
        &self,
        faults: Option<&LaneFaultSet<B>>,
    ) -> Result<(), BatchError> {
        match faults {
            Some(fs) if fs.num_nets() != self.num_nets() => {
                Err(BatchError::InvalidFault(NetlistError::NetOutOfRange {
                    index: fs.num_nets(),
                    len: self.num_nets(),
                }))
            }
            _ => Ok(()),
        }
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

    /// Net `i`'s waveform from its fanins' waveforms `ins`, clipped to
    /// `clip`, together with the tally its emitter counted under the
    /// active-lane `mask`. `fanin_tally` is the first fanin's tally, which
    /// an inverter inherits. A gate's initial word is its function of its
    /// fanins' initial words.
    fn net_wave<B: LaneWord>(
        &self,
        i: usize,
        stim: &Stimulus<'_, B>,
        ins: &[&Wave<B>],
        fanin_tally: Tally<B>,
        mask: B,
        clip: Clip<'_>,
    ) -> (Wave<B>, Tally<B>) {
        let lane_faults = stim.faults.map(|fs| &fs.nets[i]);
        let no_fault_groups = [(0u64, B::ONES)];
        let groups_storage;
        let groups: &[(u64, B)] = match lane_faults {
            Some(f) if !f.pushes.is_empty() => {
                groups_storage = f.delay_groups();
                &groups_storage
            }
            _ => &no_fault_groups,
        };
        let (raw, tally) = match self.kinds[i] {
            GateKind::Input => {
                let slot = self.input_slot(i);
                input_wave(stim.prev.words[slot], stim.new.words[slot], groups, mask, clip)
            }
            GateKind::Const => (Wave::constant(B::splat(self.const_ones[i])), Tally::default()),
            kind => {
                let init = |k: usize| ins.get(k).map_or(B::ZERO, |w| w.initial);
                let raw_init = eval_word(kind, init(0), init(1), init(2));
                gate_wave(kind, ins, raw_init, self.delays[i], groups, mask, fanin_tally, clip)
            }
        };
        match lane_faults {
            Some(f) if !f.observe_is_identity() => observe_wave(&raw, f, mask, clip),
            _ => (raw, tally),
        }
    }

    /// The least and greatest effective delay of gate `i` over its lane
    /// delay groups under `faults`.
    fn delay_range<B: LaneWord>(&self, i: usize, faults: Option<&LaneFaultSet<B>>) -> (u64, u64) {
        let base = self.delays[i];
        match faults.map(|fs| &fs.nets[i]) {
            Some(f) if !f.pushes.is_empty() => {
                f.delay_groups().iter().fold((u64::MAX, 0), |(lo, hi), &(push, _)| {
                    let d = effective_delay(base, push);
                    (lo.min(d), hi.max(d))
                })
            }
            _ => (effective_delay(base, 0), effective_delay(base, 0)),
        }
    }

    fn run_inner<B: LaneWord>(
        &self,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        faults: Option<&LaneFaultSet<B>>,
    ) -> Result<LaneSimResult<B>, BatchError> {
        let stim = Stimulus { prev, new, faults };
        let pass = self.settle(stim, Retain::All, None, 1)?;
        Ok(pass.into_result())
    }

    /// The settling loop behind every entry point, on `workers` threads
    /// (the caller's own and `workers − 1` scoped helpers; one worker
    /// spawns nothing). Each net is settled once its fanins are, from a
    /// ready list (see the [module docs](self)); each worker folds its own
    /// counters and settle times, merged once at the end. `retain` decides
    /// which waveforms outlive their last reader.
    fn settle<B: LaneWord>(
        &self,
        stim: Stimulus<'_, B>,
        retain: Retain<'_>,
        cancel: Option<&CancelToken>,
        workers: usize,
    ) -> Result<Settled<B>, BatchError> {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(BatchError::Cancelled);
        }
        let lanes = self.check_shapes(stim.prev, stim.new)?;
        let n = self.num_nets();
        let pass = Pass {
            prog: self,
            stim,
            retain,
            cancel,
            lanes,
            // The active mask keeps unused high lanes out of every
            // reduction, so garbage in inactive lanes of an inverter's
            // output can never leak into settle times or transition counts.
            mask: B::active_mask(lanes),
        };
        let sources = (0..n).rev().filter(|&i| self.arity(i) == 0).map(|i| i as u32).collect();
        let slots = (0..n)
            .map(|i| NetSlot::<B> { unread: self.readers(i).len() as u32, ..NetSlot::default() });
        let pending = (0..n).map(|i| self.arity(i) as u32);
        let board = Board {
            slots: slots.map(Mutex::new).collect(),
            pending: pending.map(AtomicU32::new).collect(),
            ready: Mutex::new(ReadyState { nets: sources, busy: 0, waiting: 0 }),
            wake: Condvar::new(),
            halted: AtomicBool::new(false),
        };
        let fold = pass.run(&board, workers.clamp(1, n.max(1)))?;
        crate::obs::with_observer(|o| {
            o.batch_run(u64::from(lanes), fold.word_steps, fold.lane_transitions);
        });
        Ok(Settled { lanes, slots: board.slots, fold })
    }
}

/// What one settling pass runs on: the input switch and the per-lane fault
/// set.
#[derive(Clone, Copy)]
struct Stimulus<'a, B: LaneWord> {
    prev: &'a LaneInputs<B>,
    new: &'a LaneInputs<B>,
    faults: Option<&'a LaneFaultSet<B>>,
}

/// What the settling loop keeps of the waveforms it produces.
#[derive(Clone, Copy)]
enum Retain<'a> {
    /// Every waveform: a full [`LaneSimResult`].
    All,
    /// Only the nets flagged here; every other waveform is dropped once its
    /// last reader has been settled.
    Bus(&'a [bool]),
    /// As `Bus`, with every waveform clipped to its net's [`Spans`] and no
    /// settle times.
    Sampled(&'a [bool], &'a Spans),
}

impl Retain<'_> {
    /// Whether net `i`'s waveform outlives its readers.
    fn keeps(self, i: usize) -> bool {
        match self {
            Retain::All => true,
            Retain::Bus(on_bus) | Retain::Sampled(on_bus, _) => on_bus[i],
        }
    }

    /// The spans net `i`'s waveform is clipped to.
    fn clip(&self, i: usize) -> Clip<'_> {
        match self {
            Retain::Sampled(_, spans) => Some(spans.of(i)),
            Retain::All | Retain::Bus(_) => None,
        }
    }
}

/// The spans of each net's waveform a sampled pass keeps. `D(n)` is the
/// path delay from net `n`'s output to a bus net, over every path and every
/// lane delay group (0 on a bus net). For each sample time `T` with
/// `Dmin(n) ≤ T`, net `n` keeps `[T − Dmax(n), T − Dmin(n)]`; overlapping
/// spans merge. A net with no path to the bus keeps none.
struct Spans {
    /// Net `i`'s spans are `spans[at[i]..at[i + 1]]`.
    at: Vec<u32>,
    spans: Vec<(u64, u64)>,
}

impl Spans {
    /// One reverse pass over `prog` (readers have higher net ids than
    /// their fanins) for the sorted sample `times`.
    fn new<B: LaneWord>(
        prog: &BatchProgram,
        on_bus: &[bool],
        faults: Option<&LaneFaultSet<B>>,
        times: &[u64],
    ) -> Spans {
        let n = prog.num_nets();
        let mut reach: Vec<Option<(u64, u64)>> =
            on_bus.iter().map(|&b| b.then_some((0, 0))).collect();
        for r in (0..n).rev() {
            let Some((lo, hi)) = reach[r] else { continue };
            if prog.arity(r) == 0 {
                continue;
            }
            let (d_lo, d_hi) = prog.delay_range(r, faults);
            let (lo, hi) = (lo.saturating_add(d_lo), hi.saturating_add(d_hi));
            for f in prog.fanins(r) {
                reach[f] = Some(reach[f].map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
            }
        }
        let mut at = Vec::with_capacity(n + 1);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        at.push(0);
        for d in reach {
            let first = spans.len();
            if let Some((lo, hi)) = d {
                for &t in times.iter().filter(|&&t| t >= lo) {
                    let (start, end) = (t.saturating_sub(hi), t - lo);
                    match spans[first..].last_mut() {
                        Some(last) if start <= last.1 => last.1 = end,
                        _ => spans.push((start, end)),
                    }
                }
            }
            at.push(spans.len() as u32);
        }
        Spans { at, spans }
    }

    fn of(&self, i: usize) -> &[(u64, u64)] {
        &self.spans[self.at[i] as usize..self.at[i + 1] as usize]
    }
}

/// What a settled net publishes to its readers: its waveform (`None` once
/// released) and its tally; and how many of its readers have not yet taken
/// the waveform.
#[derive(Default)]
struct NetSlot<B: LaneWord> {
    unread: u32,
    wave: Option<Arc<Wave<B>>>,
    tally: Tally<B>,
}

impl<B: LaneWord> NetSlot<B> {
    /// Hands the waveform and tally to one reader. The last reader moves
    /// the waveform out, releasing it, unless `keep`.
    fn take(&mut self, keep: bool) -> (Arc<Wave<B>>, Tally<B>) {
        self.unread -= 1;
        let wave = if self.unread == 0 && !keep { self.wave.take() } else { self.wave.clone() };
        (wave.expect("a fanin's waveform outlives its readers"), self.tally)
    }

    /// Stores a settled net's outputs, keeping the reader count.
    fn publish(&mut self, out: NetSlot<B>) {
        *self = NetSlot { unread: self.unread, ..out };
    }

    /// A finished pass's slot. Every worker has stopped, so no lock is
    /// held; one a panicking worker poisoned is still valid.
    fn settled(slot: Mutex<NetSlot<B>>) -> NetSlot<B> {
        slot.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A pass's per-net slots, pending-fanin counts and ready stack, shared by
/// its workers. A net's slot is written once, by the worker that settles
/// it, before its readers' `pending` counts drop; the last fanin to finish
/// makes a reader ready. `pending` uses `AcqRel`, so the slot write
/// happens before every read of it. Every slot and ready-stack update
/// leaves the data valid, so a lock a panicking worker poisoned is still
/// usable.
struct Board<B: LaneWord> {
    slots: Vec<Mutex<NetSlot<B>>>,
    pending: Vec<AtomicU32>,
    ready: Mutex<ReadyState>,
    wake: Condvar,
    /// Set when a worker is cancelled or panics. It publishes no data, and
    /// waiters read it under the lock that `halt` takes after setting it,
    /// so `Relaxed` suffices.
    halted: AtomicBool,
}

struct ReadyState {
    nets: Vec<u32>,
    /// Workers holding a net. With none and an empty stack, no net can
    /// become ready any more: every net is done.
    busy: usize,
    /// Workers waiting for a net. A notification is a system call, so it
    /// is made only when one waits.
    waiting: usize,
}

impl<B: LaneWord> Board<B> {
    fn slot(&self, i: usize) -> MutexGuard<'_, NetSlot<B>> {
        self.slots[i].lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn ready(&self) -> MutexGuard<'_, ReadyState> {
        self.ready.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one fanin of net `r` done; true when it was the last, so `r`
    /// is ready.
    fn fanin_done(&self, r: usize) -> bool {
        self.pending[r].fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// The next ready net for a worker, which gives up the net it `held`;
    /// `None` once every net is done or the pass halted. Waits while the
    /// stack is empty but other workers hold nets.
    fn pop(&self, held: bool) -> Option<usize> {
        let mut s = self.ready();
        s.busy -= usize::from(held);
        loop {
            if self.halted() {
                return None;
            }
            if let Some(i) = s.nets.pop() {
                s.busy += 1;
                return Some(i as usize);
            }
            if s.busy == 0 {
                if s.waiting > 0 {
                    self.wake.notify_all();
                }
                return None;
            }
            s.waiting += 1;
            s = self.wake.wait(s).unwrap_or_else(PoisonError::into_inner);
            s.waiting -= 1;
        }
    }

    /// Shares ready `nets` (draining it) with the other workers.
    fn push(&self, nets: &mut Vec<u32>) {
        let count = nets.len();
        if count == 0 {
            return;
        }
        let mut s = self.ready();
        s.nets.append(nets);
        if s.waiting == 0 {
            return;
        }
        drop(s);
        if count == 1 {
            self.wake.notify_one();
        } else {
            self.wake.notify_all();
        }
    }

    /// Stops every worker at its next net.
    fn halt(&self) {
        self.halted.store(true, Ordering::Relaxed);
        let _s = self.ready();
        self.wake.notify_all();
    }

    fn halted(&self) -> bool {
        self.halted.load(Ordering::Relaxed)
    }
}

/// Halts the pass when its worker unwinds, so no other worker waits for a
/// net that will never be settled.
struct HaltOnUnwind<'a, B: LaneWord>(&'a Board<B>);

impl<B: LaneWord> Drop for HaltOnUnwind<'_, B> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.halt();
        }
    }
}

/// What every worker of one pass reads: the program, the stimulus, what
/// to retain, the cancellation token and the active-lane mask.
struct Pass<'a, B: LaneWord> {
    prog: &'a BatchProgram,
    stim: Stimulus<'a, B>,
    retain: Retain<'a>,
    cancel: Option<&'a CancelToken>,
    lanes: u32,
    mask: B,
}

impl<B: LaneWord> Pass<'_, B> {
    /// Runs the pass on `workers` threads sharing `board` (the caller's and
    /// `workers − 1` scoped helpers) and merges their folds. A helper's
    /// panic is re-raised on the caller.
    fn run(&self, board: &Board<B>, workers: usize) -> Result<Fold, BatchError> {
        let work = || {
            let _halt = HaltOnUnwind(board);
            self.work(board)
        };
        std::thread::scope(|s| {
            let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
            let mut fold = work();
            for helper in helpers {
                let theirs = helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                fold = match (fold, theirs) {
                    (Ok(mut a), Ok(b)) => {
                        a.merge(&b);
                        Ok(a)
                    }
                    (Err(e), _) | (_, Err(e)) => Err(e),
                };
            }
            fold
        })
    }

    /// One worker: settles ready nets until every net is done, depth first
    /// (it keeps one net it made ready and shares the rest), polling the
    /// cancellation token every [`NET_CHECK_INTERVAL`] nets.
    fn work(&self, board: &Board<B>) -> Result<Fold, BatchError> {
        let mut fold =
            Fold { settle: SettleTimes::new(self.lanes), word_steps: 0, lane_transitions: 0 };
        let mut woken = Vec::new();
        let mut settled = 0usize;
        let mut next = board.pop(false);
        while let Some(i) = next {
            settled += 1;
            if settled.is_multiple_of(NET_CHECK_INTERVAL)
                && self.cancel.is_some_and(CancelToken::is_cancelled)
            {
                board.halt();
            }
            if board.halted() {
                return Err(BatchError::Cancelled);
            }
            self.settle_net(board, i, &mut fold, &mut woken);
            next = woken.pop().map(|r| r as usize);
            board.push(&mut woken);
            if next.is_none() {
                next = board.pop(true);
            }
        }
        if board.halted() {
            return Err(BatchError::Cancelled);
        }
        Ok(fold)
    }

    /// Settles net `i`, whose fanins are done: takes its fanins' waveforms
    /// (releasing each one whose last reader this is), computes its own,
    /// folds it into `fold`, publishes it, and adds the readers it made
    /// ready to `woken`.
    fn settle_net(&self, board: &Board<B>, i: usize, fold: &mut Fold, woken: &mut Vec<u32>) {
        let prog = self.prog;
        let mut ins: [Option<Arc<Wave<B>>>; 3] = [None, None, None];
        let mut fanin_tally = Tally::default();
        for (k, f) in prog.fanins(i).enumerate() {
            let (wave, tally) = board.slot(f).take(self.retain.keeps(f));
            ins[k] = Some(wave);
            if k == 0 {
                fanin_tally = tally;
            }
        }
        let idle = Wave::constant(B::ZERO);
        let refs = [0, 1, 2].map(|k| ins[k].as_deref().unwrap_or(&idle));
        let refs = &refs[..prog.arity(i)];

        let clip = self.retain.clip(i);
        let (wave, tally) = prog.net_wave(i, &self.stim, refs, fanin_tally, self.mask, clip);
        fold.fresh(&wave, tally, self.mask, self.retain);
        fold.word_steps += wave.steps.len() as u64;
        let keep = !prog.readers(i).is_empty() || self.retain.keeps(i);
        let wave = keep.then(|| Arc::new(wave));
        board.slot(i).publish(NetSlot { unread: 0, wave, tally });
        for &r in prog.readers(i) {
            if board.fanin_done(r as usize) {
                woken.push(r);
            }
        }
    }
}

/// One worker's share of a pass: word steps, lane transitions and per-lane
/// settle times. Sums and per-lane maxima merge exactly in any order, so
/// the merged fold is the same for any worker count and schedule.
struct Fold {
    settle: SettleTimes,
    word_steps: u64,
    lane_transitions: u64,
}

impl Fold {
    /// Folds a freshly computed waveform: the transitions its emitter
    /// counted, then a backward retire scan over the active lanes that
    /// changed, which folds as it scans and stops at this worker's settle
    /// floor: the merged settle times are per-lane maxima, so they are at
    /// least this worker's. A [`Retain::Sampled`] pass reports no settle
    /// times and scans nothing.
    fn fresh<B: LaneWord>(&mut self, wave: &Wave<B>, tally: Tally<B>, mask: B, retain: Retain<'_>) {
        self.lane_transitions += tally.transitions;
        if let Retain::Sampled(..) = retain {
            return;
        }
        let floor = self.settle.floor();
        retire_scan(wave, mask.and(tally.changed), floor, |t, l| self.settle.raise(t, l));
    }

    fn merge(&mut self, other: &Fold) {
        self.word_steps += other.word_steps;
        self.lane_transitions += other.lane_transitions;
        self.settle.merge(&other.settle);
    }
}

/// One finished settling pass: every net's slot and the merged fold.
struct Settled<B: LaneWord> {
    lanes: u32,
    slots: Vec<Mutex<NetSlot<B>>>,
    fold: Fold,
}

impl<B: LaneWord> Settled<B> {
    /// Assembles the full result of a [`Retain::All`] pass. Every reader
    /// has dropped its handle, so each waveform moves out of its slot.
    fn into_result(self) -> LaneSimResult<B> {
        let waves = self
            .slots
            .into_iter()
            .map(|s| {
                let wave = NetSlot::settled(s).wave.expect("a full pass keeps every waveform");
                Arc::unwrap_or_clone(wave)
            })
            .collect();
        LaneSimResult {
            lanes: self.lanes,
            waves,
            settle: self.fold.settle.times,
            word_steps: self.fold.word_steps,
            lane_transitions: self.fold.lane_transitions,
        }
    }

    /// Assembles the result of a [`Retain::Bus`] or [`Retain::Sampled`]
    /// pass over `bus`.
    fn into_bus_result(mut self, bus: &[NetId]) -> LaneBusResult<B> {
        let waves = bus
            .iter()
            .map(|net| {
                self.slots[net.index()]
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner)
                    .wave
                    .as_deref()
                    .expect("the pass retains bus waveforms")
                    .clone()
            })
            .collect();
        LaneBusResult {
            bus: LaneBusWaves { lanes: self.lanes, waves },
            settle: self.fold.settle.times,
            word_steps: self.fold.word_steps,
            lane_transitions: self.fold.lane_transitions,
        }
    }
}

/// Per-lane settle times, and their minimum: the settle floor. No step at
/// or before the floor can raise any lane's settle time, so every retire
/// scan stops there. The floor is recomputed only after a lane that
/// sat on it was raised.
struct SettleTimes {
    times: Vec<u64>,
    floor: u64,
    stale: bool,
}

impl SettleTimes {
    fn new(lanes: u32) -> Self {
        SettleTimes { times: vec![0; lanes as usize], floor: 0, stale: false }
    }

    /// Raises the settle time of every lane in `lanes` to at least `t`.
    fn raise<B: LaneWord>(&mut self, t: u64, lanes: B) {
        let (times, floor, stale) = (&mut self.times, self.floor, &mut self.stale);
        lanes.for_each_lane(|l| {
            let s = &mut times[l as usize];
            if t > *s {
                *stale |= *s == floor;
                *s = t;
            }
        });
    }

    /// Raises every lane to at least its settle time in `other`.
    fn merge(&mut self, other: &SettleTimes) {
        for (s, &o) in self.times.iter_mut().zip(&other.times) {
            *s = (*s).max(o);
        }
        self.stale = true;
    }

    /// The least settle time over all lanes.
    fn floor(&mut self) -> u64 {
        if self.stale {
            self.floor = self.times.iter().copied().min().unwrap_or(0);
            self.stale = false;
        }
        self.floor
    }
}

/// The backward retire scan behind one net's settle contribution: walking
/// the steps from the last, each lane of `lanes` retires at its latest
/// change, reported once as `retire(t, lanes_retiring_at_t)`. Every lane
/// is touched at most once per net, where a forward per-transition update
/// would make the per-lane loop scale with total lane transitions.
///
/// The scan stops when every lane has retired, so `lanes` should hold only
/// lanes that change at all: one that never changes would keep it walking
/// to the first step. It also stops at the first step at or before
/// `floor`, which is exact only for folding into settle times that are all
/// at least `floor` (0 scans every step that can raise a settle time).
fn retire_scan<B: LaneWord>(w: &Wave<B>, lanes: B, floor: u64, mut retire: impl FnMut(u64, B)) {
    let mut remaining = lanes;
    for k in (0..w.steps.len()).rev() {
        let (t, word) = w.steps[k];
        if remaining.is_zero() || t <= floor {
            break;
        }
        let before = if k == 0 { w.initial } else { w.steps[k - 1].1 };
        let changed = before.xor(word).and(remaining);
        if !changed.is_zero() {
            retire(t, changed);
            remaining = remaining.and(changed.not());
        }
    }
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
            prog.run_bus(&ok, &ok, &[nl.net(0), NetId::from_index(99)], None, 1).unwrap_err(),
            BatchError::InvalidBus(NetlistError::NetOutOfRange { index: 99, len: nl.len() })
        );
    }

    #[test]
    fn cancellation_is_checked_before_and_during_the_pass() {
        let nl = xor_chain(4);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let b = BatchInputs::zeros(5, 8).unwrap();
        let bus = nl.output("z");
        let tok = crate::CancelToken::new();
        // Live token: bit-identical to the plain run.
        let plain = prog.run(&b, &b).unwrap();
        let live = prog.run_bus(&b, &b, bus, Some(&tok), 1).unwrap();
        assert_eq!(*live.bus(), plain.bus_waves(bus).unwrap());
        assert_eq!(live.settle_times(), plain.settle_times());
        // Cancelled token: typed error.
        tok.cancel();
        assert_eq!(prog.run_bus(&b, &b, bus, Some(&tok), 3).unwrap_err(), BatchError::Cancelled);
    }

    #[test]
    fn zero_lanes_is_a_valid_degenerate_batch() {
        let nl = xor_chain(2);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let b = BatchInputs::zeros(3, 0).unwrap();
        let res = prog.run(&b, &b).unwrap();
        assert_eq!(res.lanes(), 0);
        assert_eq!(res.lane_transitions(), 0);
        assert!(res.settle_times().is_empty());
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

    /// Asserts a bus-only pass over `bus` at 1, 2 and 3 workers matches
    /// the full run it streams: the same bus waveforms, per-lane settle
    /// times and counters.
    fn assert_bus_matches_run<B: LaneWord>(
        prog: &BatchProgram,
        prev: &LaneInputs<B>,
        new: &LaneInputs<B>,
        bus: &[NetId],
    ) -> LaneBusResult<B> {
        let full = prog.run(prev, new).unwrap();
        let streamed: Vec<_> =
            (1..=3).map(|workers| prog.run_bus(prev, new, bus, None, workers).unwrap()).collect();
        for (workers, s) in (1..).zip(&streamed) {
            assert_eq!(*s.bus(), full.bus_waves(bus).unwrap(), "{workers} workers");
            assert_eq!(s.settle_times(), full.settle_times());
            assert_eq!(s.word_steps(), full.word_steps());
            assert_eq!(s.lane_transitions(), full.lane_transitions());
        }
        streamed.into_iter().next().unwrap()
    }

    /// One gate of every kind, each fed by fanins whose steps fall at equal
    /// times (all inputs switch at `t = 0`, and the inverters `na`, `nb`
    /// switch together at `U`), plus gates mixing fanins of both depths.
    fn every_kind() -> Netlist {
        let mut nl = Netlist::new();
        let (a, b, c) = (nl.input("a"), nl.input("b"), nl.input("c"));
        let (na, nb) = (nl.not(a), nl.not(b));
        let gates = [
            nl.and(a, b),
            nl.or(na, nb),
            nl.xor(a, nb),
            nl.nand(na, b),
            nl.nor(a, c),
            nl.xnor(na, nb),
            nl.mux(a, b, c),
            nl.mux(na, nb, c),
        ];
        let z = nl.xor(gates[2], gates[5]);
        let m = nl.mux(gates[0], z, gates[7]);
        let mut outs = gates.to_vec();
        outs.extend([z, m]);
        nl.set_output("z", outs);
        nl
    }

    #[test]
    fn every_gate_kind_matches_event_sim_at_equal_fanin_times() {
        let nl = every_kind();
        let kinds: std::collections::BTreeSet<_> = nl.nets().map(|n| nl.kind(n)).collect();
        assert_eq!(kinds.len(), 9, "every kind but Const: {kinds:?}");
        let news = all_vectors(3);
        let mut prevs = news.clone();
        prevs.rotate_left(3);
        // All 64 (prev, new) pairs of 3-bit vectors, as 64 lanes.
        let prevs: Vec<Vec<bool>> = (0..64).map(|l| prevs[l / 8].clone()).collect();
        let news: Vec<Vec<bool>> = (0..64).map(|l| news[l % 8].clone()).collect();
        for delay in [&UnitDelay as &dyn crate::DelayModel, &FpgaDelay::default()] {
            let narrow = assert_equiv(&nl, &delay, &prevs, &news, &[]);
            let wide = assert_equiv_generic::<crate::batch::LaneBlock<2>, _>(
                &nl,
                &delay,
                &prevs,
                &news,
                &[],
            );
            assert_eq!(narrow.lane_transitions(), wide.lane_transitions());
            let prog = BatchProgram::compile(&nl, &delay).unwrap();
            let bus = nl.output("z");
            let (prev, new) =
                (BatchInputs::pack(&prevs).unwrap(), BatchInputs::pack(&news).unwrap());
            assert_bus_matches_run(&prog, &prev, &new, bus);
        }
    }

    /// `UnitDelay`, except that the two named nets take delays within a few
    /// units of `u64::MAX`.
    struct NearMax(NetId, NetId);

    impl crate::DelayModel for NearMax {
        fn gate_delay(&self, kind: crate::GateKind, net: NetId) -> u64 {
            match net {
                n if n == self.0 => u64::MAX - 10,
                n if n == self.1 => u64::MAX - 8,
                _ => UnitDelay.gate_delay(kind, net),
            }
        }
    }

    #[test]
    fn saturated_step_times_collapse_but_keep_every_step() {
        // The event simulator's time-indexed queue cannot hold times near
        // `u64::MAX`, so this pins the waveforms by hand: both inverters
        // fire within 2 units of the end of time, so every later gate's
        // shifted steps saturate onto `u64::MAX` and share that time, and
        // each step is still kept, counted and read back in order.
        let mut nl = Netlist::new();
        let (a, b) = (nl.input("a"), nl.input("b"));
        let (na, nb) = (nl.not(a), nl.not(b));
        let z = nl.xor(na, nb);
        let nz = nl.not(z);
        let y = nl.and(na, b);
        nl.set_output("z", vec![z, nz, y]);
        let delay = NearMax(na, nb);
        let prog = BatchProgram::compile(&nl, &delay).unwrap();
        // Lane 0: both inputs rise; lane 1: only `a` rises; lane 2: quiet.
        let prevs = vec![vec![false, false]; 3];
        let news = vec![vec![true, true], vec![true, false], vec![false, false]];
        let (prev, new) = (BatchInputs::pack(&prevs).unwrap(), BatchInputs::pack(&news).unwrap());
        let res = prog.run(&prev, &new).unwrap();
        let max = u64::MAX;
        assert_eq!(res.lane_waveform(na, 0), vec![(max - 10, false)]);
        assert_eq!(res.lane_waveform(z, 0), vec![(max, true), (max, false)]);
        assert_eq!(res.lane_waveform(nz, 0), vec![(max, false), (max, true)]);
        assert_eq!(res.lane_waveform(z, 1), vec![(max, true)]);
        assert_eq!(res.lane_waveform(y, 0), vec![(U, true), (max, false)]);
        assert!(res.lane_waveform(z, 2).is_empty());
        assert_eq!(res.wave(z).steps().len(), 2);
        assert!(res.final_bus(&[z, nz, y], 0) == [false, true, false]);
        assert_eq!(res.settle_times(), [max, max, 0]);
        // The inputs flip 3 lanes, the inverters `na` and `nb` 2 and 1, `z`
        // and `nz` flip lane 0 twice and lane 1 once, `y` flips lane 0 twice.
        assert_eq!(res.lane_transitions(), 3 + 2 + 1 + 3 + 3 + 2);
        // Every lane equals its own single-lane run.
        for lane in 0..3 {
            let one = |v: &Vec<bool>| BatchInputs::pack(std::slice::from_ref(v)).unwrap();
            let alone = prog.run(&one(&prevs[lane]), &one(&news[lane])).unwrap();
            for net in nl.nets() {
                assert_eq!(res.lane_waveform(net, lane as u32), alone.lane_waveform(net, 0));
            }
        }
        assert_bus_matches_run(&prog, &prev, &new, &[z, nz, y]);
        let wide = WideInputs::<2>::pack(&prevs).unwrap();
        let wide_new = WideInputs::<2>::pack(&news).unwrap();
        let wide_res = prog.run(&wide, &wide_new).unwrap();
        assert_eq!(wide_res.settle_times(), res.settle_times());
        assert_eq!(wide_res.lane_transitions(), res.lane_transitions());
    }

    #[test]
    fn inactive_lanes_stay_out_of_counters_through_inverters() {
        // Three active lanes in a 64-lane word. Lanes 3 and 4 carry fault
        // plans but no vectors: their transient windows flip only inactive
        // lanes of `n1`, which the inverter `n2` passes on with the rest of
        // its fanin's tally. None of it may reach a counter or settle time.
        let mut nl = Netlist::new();
        let (a, b) = (nl.input("a"), nl.input("b"));
        let n1 = nl.not(a);
        let n2 = nl.not(n1);
        let n3 = nl.not(n2);
        let z = nl.xor(n3, b);
        nl.set_output("z", vec![z, n2]);
        let prevs = vec![vec![false, true], vec![true, true], vec![false, false]];
        let news = vec![vec![true, true], vec![false, true], vec![false, true]];
        let mut plans = vec![FaultPlan::new(); 3];
        plans.push(FaultPlan::new().transient(n1, 2 * U, 7 * U));
        plans.push(FaultPlan::new().transient(n1, U, 2 * U).transient(z, 0, 9 * U));
        let res = assert_equiv(&nl, &UnitDelay, &prevs, &news, &plans);
        let clean = assert_equiv(&nl, &UnitDelay, &prevs, &news, &plans[..3]);
        assert_eq!(res.lanes(), 3);
        assert_eq!(res.settle_times(), clean.settle_times());
        assert_eq!(res.lane_transitions(), clean.lane_transitions());
        let listed: usize = nl
            .nets()
            .flat_map(|net| (0..3).map(move |l| (net, l)))
            .map(|(net, l)| res.lane_waveform(net, l).len())
            .sum();
        assert_eq!(res.lane_transitions(), listed as u64);
        // The same through a 128-lane word.
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let (prev, new) =
            (WideInputs::<2>::pack(&prevs).unwrap(), WideInputs::<2>::pack(&news).unwrap());
        let fs = WideFaultSet::<2>::compile(&plans, nl.len()).unwrap();
        let wide = prog.run_with_faults(&prev, &new, &fs).unwrap();
        assert_eq!(wide.settle_times(), clean.settle_times());
        assert_eq!(wide.lane_transitions(), clean.lane_transitions());
    }

    #[test]
    fn retire_scans_stop_at_the_settle_floor() {
        // z = a ^ !!b: lane 0 toggles `a` and settles at U; lane 1 toggles
        // `b` and settles at 3U; lane 2 toggles both and glitches at U and
        // 3U. By the time the last net `w = !a` is scanned every lane has
        // settled at U or later, so the scan of `w` stops at its step at U.
        let mut nl = Netlist::new();
        let (a, b) = (nl.input("a"), nl.input("b"));
        let n1 = nl.not(b);
        let n2 = nl.not(n1);
        let z = nl.xor(a, n2);
        let w = nl.not(a);
        nl.set_output("z", vec![z, w]);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let prevs = vec![vec![false, false]; 3];
        let news = vec![vec![true, false], vec![false, true], vec![true, true]];
        assert_equiv(&nl, &UnitDelay, &prevs, &news, &[]);
        let (prev, new) = (BatchInputs::pack(&prevs).unwrap(), BatchInputs::pack(&news).unwrap());
        let streamed = assert_bus_matches_run(&prog, &prev, &new, &[z]);
        assert_eq!(streamed.settle_times(), [U, 3 * U, 3 * U]);
        assert_eq!(streamed.bus().waves[0].steps(), [(U, 0b101), (3 * U, 0b011)]);

        // The cut itself: a wave whose lanes last change at U and 3U. With
        // every lane settled at least at U, the scan retires lane 1 and
        // stops before the step at U, yet folds the same settle times as a
        // full scan.
        let wave = Wave { initial: 0b00u64, steps: vec![(U, 0b11), (3 * U, 0b01)] };
        let mut floored = SettleTimes::new(2);
        floored.raise(U, 0b11u64);
        let mut full = SettleTimes::new(2);
        full.raise(U, 0b11u64);
        let mut seen = Vec::new();
        let floor = floored.floor();
        assert_eq!(floor, U);
        retire_scan(&wave, 0b11, floor, |t, l| {
            seen.push((t, l));
            floored.raise(t, l);
        });
        assert_eq!(seen, [(3 * U, 0b10)], "the scan stopped at the floor");
        retire_scan(&wave, 0b11, 0, |t, l| full.raise(t, l));
        assert_eq!(floored.times, full.times);
        assert_eq!(floored.floor(), U);
    }

    #[test]
    fn clipped_emitter_keeps_spans_and_the_value_entering_each() {
        // Two spans. The gap before the first holds two steps, the gap
        // between them two more, and the step at 45 is the second span's
        // only one: the first gap's last step must still enter the first
        // span, though the next step lands past it.
        let spans = [(10, 20), (40, 50)];
        let stream = [(2, 1u64), (5, 3), (25, 7), (30, 6), (45, 4), (60, 5)];
        let mut full = Emit::new(0u64, 0, u64::MAX, 0, None);
        let mut clipped = Emit::new(0u64, 0, u64::MAX, 0, Some(&spans));
        for (t, w) in stream {
            full.push(t, w);
            clipped.push(t, w);
        }
        let ((full, _), (wave, tally)) = (full.finish(), clipped.finish());
        assert_eq!(wave.steps, [(5, 3), (30, 6), (45, 4)]);
        assert_eq!(tally.transitions, 2 + 2 + 1, "only kept steps count");
        for t in [10, 15, 20, 40, 44, 45, 50] {
            assert_eq!(wave.word_at(t), full.word_at(t), "t {t}");
        }
        // No span keeps nothing; a step equal to the last kept is dropped.
        let mut none = Emit::new(0u64, 3, u64::MAX, 0, Some(&[]));
        stream.iter().for_each(|&(t, w)| none.push(t, w));
        assert!(none.finish().0.steps.is_empty());
        let mut same = Emit::new(0u64, 0, u64::MAX, 0, Some(&spans));
        [(5, 1), (8, 0), (12, 0)].iter().for_each(|&(t, w)| same.push(t, w));
        assert!(same.finish().0.steps.is_empty());
    }

    #[test]
    fn spans_follow_path_delays_through_delay_push_groups() {
        // a → n1 → z, inverters of delay U, plus an unread input b. One
        // lane pushes `z` by 3U, so `z` reads its fanin U to 4U earlier.
        let mut nl = Netlist::new();
        let (a, b) = (nl.input("a"), nl.input("b"));
        let n1 = nl.not(a);
        let z = nl.not(n1);
        nl.set_output("z", vec![z]);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let mut on_bus = vec![false; nl.len()];
        on_bus[z.index()] = true;
        let plans = [FaultPlan::new(), FaultPlan::new().delay_push(z, 3 * U)];
        let fs = BatchFaultSet::compile(&plans, nl.len()).unwrap();
        let spans = Spans::new(&prog, &on_bus, Some(&fs), &[0, 5 * U]);
        assert_eq!(spans.of(z.index()), [(0, 0), (5 * U, 5 * U)]);
        assert_eq!(spans.of(n1.index()), [(U, 4 * U)], "no span at time 0");
        assert_eq!(spans.of(a.index()), [(0, 3 * U)]);
        assert!(spans.of(b.index()).is_empty(), "b reaches no register");
        let clean = Spans::new(&prog, &on_bus, None::<&BatchFaultSet>, &[5 * U]);
        assert_eq!(clean.of(a.index()), [(3 * U, 3 * U)]);
    }

    /// A layered netlist of every gate kind, `width` nets wide and `depth`
    /// layers deep. Each gate reads nets of the layer below, so a layer's
    /// gates are independent and workers interleave; the first gate of a
    /// layer reads one net twice.
    fn mesh(width: usize, depth: usize) -> Netlist {
        let mut nl = Netlist::new();
        let mut layer: Vec<NetId> = (0..width).map(|_| nl.input("x")).collect();
        for d in 0..depth {
            layer = (0..width)
                .map(|k| {
                    let a = layer[k];
                    let b = if k == 0 { a } else { layer[(k + 1 + d) % width] };
                    let c = layer[(k + 3) % width];
                    match (k + d) % 8 {
                        0 => nl.not(a),
                        1 => nl.and(a, b),
                        2 => nl.or(a, b),
                        3 => nl.xor(a, b),
                        4 => nl.nand(a, b),
                        5 => nl.nor(a, b),
                        6 => nl.xnor(a, b),
                        _ => nl.mux(a, b, c),
                    }
                })
                .collect();
        }
        nl.set_output("z", layer);
        nl
    }

    /// `lanes` pseudo-random input vectors of `width` bits.
    fn vectors(lanes: usize, width: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut x = seed;
        let mut bit = move || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            x >> 63 == 1
        };
        (0..lanes).map(|_| (0..width).map(|_| bit()).collect()).collect()
    }

    /// Everything a pass reports: the waveform each net kept, the settle
    /// times and both counters.
    type Report<B> = (Vec<Option<Wave<B>>>, Vec<u64>, u64, u64);

    fn report<B: LaneWord>(pass: Settled<B>) -> Report<B> {
        let slots = pass.slots.into_iter().map(NetSlot::settled);
        let waves = slots.map(|s| s.wave.map(|w| (*w).clone())).collect();
        (waves, pass.fold.settle.times, pass.fold.word_steps, pass.fold.lane_transitions)
    }

    /// Settles the pass of every entry point at 1, 2 and 3 workers on
    /// `lanes` lanes of word `B`: full, faulty (delay pushes, transients,
    /// stuck bits) on two stimuli, their bus-only forms, and a sampled
    /// faulty pass. Every report equals the one-worker report.
    fn assert_workers_agree<B: LaneWord>(nl: &Netlist, prog: &BatchProgram, lanes: usize) {
        let width = prog.num_inputs();
        let prev = LaneInputs::<B>::pack(&vectors(lanes, width, 1)).unwrap();
        let new = LaneInputs::<B>::pack(&vectors(lanes, width, 2)).unwrap();
        let mut moved = vectors(lanes, width, 2);
        for v in moved.iter_mut().step_by(7) {
            v[3] = !v[3];
        }
        let moved = LaneInputs::<B>::pack(&moved).unwrap();
        let nets: Vec<NetId> = nl.nets().collect();
        let plans: Vec<FaultPlan> = (0..lanes)
            .map(|l| {
                let site = nets[(l * 37) % nets.len()];
                match l % 4 {
                    0 => FaultPlan::new(),
                    1 => FaultPlan::new().delay_push(site, 40 + l as u64),
                    2 => FaultPlan::new().transient(site, 50 * l as u64, 90),
                    _ => FaultPlan::new().stuck_at(site, l % 8 == 3),
                }
            })
            .collect();
        let fs = LaneFaultSet::<B>::compile(&plans, nl.len()).unwrap();
        let mut on_bus = vec![false; nl.len()];
        for net in nl.output("z") {
            on_bus[net.index()] = true;
        }
        let spans = Spans::new(prog, &on_bus, Some(&fs), &[400, 900]);
        let prev = &prev;
        let cases = [
            (Stimulus { prev, new: &new, faults: None }, Retain::All),
            (Stimulus { prev, new: &new, faults: Some(&fs) }, Retain::All),
            (Stimulus { prev, new: &moved, faults: Some(&fs) }, Retain::All),
            (Stimulus { prev, new: &new, faults: None }, Retain::Bus(&on_bus)),
            (Stimulus { prev, new: &moved, faults: Some(&fs) }, Retain::Bus(&on_bus)),
            (Stimulus { prev, new: &new, faults: Some(&fs) }, Retain::Sampled(&on_bus, &spans)),
        ];
        for (case, &(stim, retain)) in cases.iter().enumerate() {
            let one = report(prog.settle(stim, retain, None, 1).unwrap());
            for workers in [2, 3] {
                let many = report(prog.settle(stim, retain, None, workers).unwrap());
                assert!(many == one, "case {case} at {workers} workers");
            }
        }
    }

    #[test]
    fn every_pass_is_bit_identical_at_any_worker_count() {
        let nl = mesh(24, 12);
        for delay in [
            &FpgaDelay::default() as &dyn crate::DelayModel,
            &crate::JitteredDelay::new(FpgaDelay::default(), 15, 3),
        ] {
            let prog = BatchProgram::compile(&nl, &delay).unwrap();
            assert_workers_agree::<u64>(&nl, &prog, 64);
            assert_workers_agree::<crate::batch::LaneBlock<4>>(&nl, &prog, 256);
        }
    }

    #[test]
    fn netlists_of_no_gate_or_one_settle_at_three_workers() {
        let mut wire = Netlist::new();
        let a = wire.input("a");
        wire.set_output("z", vec![a]);
        let mut one = Netlist::new();
        let a = one.input("a");
        let z = one.not(a);
        one.set_output("z", vec![z]);
        let prev = BatchInputs::pack(&[vec![false], vec![true]]).unwrap();
        let new = BatchInputs::pack(&[vec![true], vec![true]]).unwrap();
        for nl in [&wire, &one] {
            let prog = BatchProgram::compile(nl, &UnitDelay).unwrap();
            let streamed = assert_bus_matches_run(&prog, &prev, &new, nl.output("z"));
            assert_eq!(streamed.settle_times()[1], 0, "lane 1 never switches");
        }
        let empty = BatchProgram::compile(&Netlist::new(), &UnitDelay).unwrap();
        let none = BatchInputs::zeros(0, 2).unwrap();
        let res = empty.run_bus(&none, &none, &[], None, 3).unwrap();
        assert_eq!((res.settle_times(), res.word_steps()), (&[0, 0][..], 0));
    }

    /// A `u64` lane word whose `xor` counts its calls in [`XORS`] and, at
    /// call [`TRIP_AT`], cancels [`TRIP_TOKEN`] or (with [`TRIP_PANICS`])
    /// panics: a fixed point inside a pass, whichever worker reaches it.
    /// Only one test uses it, so the counters are its own.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    struct Tripwire(u64);

    static XORS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    static TRIP_AT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(u64::MAX);
    static TRIP_PANICS: AtomicBool = AtomicBool::new(false);
    static TRIP_TOKEN: std::sync::OnceLock<CancelToken> = std::sync::OnceLock::new();

    impl LaneWord for Tripwire {
        const LANES: u32 = 64;
        const ZERO: Self = Tripwire(0);
        const ONES: Self = Tripwire(u64::MAX);

        fn and(self, o: Self) -> Self {
            Tripwire(self.0 & o.0)
        }
        fn or(self, o: Self) -> Self {
            Tripwire(self.0 | o.0)
        }
        fn xor(self, o: Self) -> Self {
            if XORS.fetch_add(1, Ordering::Relaxed) + 1 == TRIP_AT.load(Ordering::Relaxed) {
                assert!(!TRIP_PANICS.load(Ordering::Relaxed), "tripwire");
                TRIP_TOKEN.get().expect("the test sets the token").cancel();
            }
            Tripwire(self.0 ^ o.0)
        }
        fn not(self) -> Self {
            Tripwire(!self.0)
        }
        fn lane_bit(lane: u32) -> Self {
            Tripwire(u64::lane_bit(lane))
        }
        fn bit(self, lane: u32) -> bool {
            self.0.bit(lane)
        }
        fn active_mask(lanes: u32) -> Self {
            Tripwire(u64::active_mask(lanes))
        }
        fn count_ones(self) -> u32 {
            self.0.count_ones()
        }
        fn for_each_lane(self, f: impl FnMut(u32)) {
            self.0.for_each_lane(f);
        }
    }

    #[test]
    fn cancel_or_panic_mid_pass_stops_three_workers() {
        let nl = mesh(48, 100);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let prev = LaneInputs::<Tripwire>::zeros(48, 64).unwrap();
        let new = LaneInputs::<Tripwire>::pack(&vectors(64, 48, 9)).unwrap();
        let bus = nl.output("z");
        XORS.store(0, Ordering::Relaxed);
        prog.run_bus(&prev, &new, bus, None, 3).unwrap();
        let total = XORS.load(Ordering::Relaxed);

        // Cancelled a quarter of the way in: a typed error, long before the
        // pass would have finished.
        let token = TRIP_TOKEN.get_or_init(CancelToken::new);
        XORS.store(0, Ordering::Relaxed);
        TRIP_AT.store(total / 4, Ordering::Relaxed);
        assert_eq!(
            prog.run_bus(&prev, &new, bus, Some(token), 3).unwrap_err(),
            BatchError::Cancelled
        );
        assert!(XORS.load(Ordering::Relaxed) < total * 3 / 4, "the workers stopped early");

        // A worker's panic reaches the caller with its own message.
        XORS.store(0, Ordering::Relaxed);
        TRIP_PANICS.store(true, Ordering::Relaxed);
        let pass = std::panic::AssertUnwindSafe(|| prog.run_bus(&prev, &new, bus, None, 3));
        let payload = std::panic::catch_unwind(pass).unwrap_err();
        TRIP_AT.store(u64::MAX, Ordering::Relaxed);
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"tripwire"));
    }

    #[test]
    fn run_incremental_is_a_full_pass_that_ignores_its_base() {
        let nl = xor_chain(5);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let news = all_vectors(6);
        let prev = BatchInputs::zeros(6, news.len() as u32).unwrap();
        let new = BatchInputs::pack(&news).unwrap();
        let (out, mid) = (nl.output("z")[0], nl.net(4));
        let plans = [
            FaultPlan::new().stuck_at(out, true),
            FaultPlan::new().transient(mid, U, 2 * U),
            FaultPlan::new().delay_push(mid, 3 * U),
        ];
        let fs = BatchFaultSet::compile(&plans, nl.len()).unwrap();
        // A base of another stimulus and another shape: neither is read.
        let other = xor_chain(2);
        let other_inputs = BatchInputs::zeros(3, 4).unwrap();
        let alien = BatchProgram::compile(&other, &UnitDelay)
            .unwrap()
            .run(&other_inputs, &other_inputs)
            .unwrap();
        for faults in [None, Some(&fs)] {
            let shim = prog.run_incremental(&alien, &prev, &new, faults).unwrap();
            let full = match faults {
                Some(fs) => prog.run_with_faults(&prev, &new, fs).unwrap(),
                None => prog.run(&prev, &new).unwrap(),
            };
            for net in nl.nets() {
                assert_eq!(shim.wave(net), full.wave(net), "net {net:?}");
            }
            assert_eq!(shim.settle_times(), full.settle_times());
            assert_eq!(shim.word_steps(), full.word_steps());
            assert_eq!(shim.lane_transitions(), full.lane_transitions());
        }
        let wrong_size = BatchFaultSet::compile(&[], 99).unwrap();
        assert!(matches!(
            prog.run_incremental(&alien, &prev, &new, Some(&wrong_size)).unwrap_err(),
            BatchError::InvalidFault(NetlistError::NetOutOfRange { .. })
        ));
    }
}
