//! Bit-parallel batch timing simulation (parallel-pattern simulation).
//!
//! The event-driven simulator ([`simulate`](crate::simulate)) answers the
//! overclocking question for *one* input vector per run. Every experiment
//! in the paper reproduction, however, is a product loop — thousands of
//! Monte-Carlo vectors × a grid of clock periods `Ts` × (for campaigns) a
//! set of fault plans. This module collapses that loop:
//!
//! 1. [`BatchProgram::compile`] flattens a [`Netlist`](crate::Netlist)
//!    once into a levelized struct-of-arrays program, sampling each gate's
//!    delay from the [`DelayModel`](crate::DelayModel) once and recording
//!    each net's readers. A program is a plain value that owns its data,
//!    so callers can memoize compiles keyed by a netlist digest;
//! 2. [`BatchProgram::run`] evaluates **one lane word of input vectors at
//!    once**, one bit-lane per vector ([`LaneInputs`]). The word type is
//!    any [`LaneWord`]: `u64` ([`BatchInputs`]) runs 64 lanes,
//!    [`LaneBlock<W>`] ([`WideInputs`]) runs `64·W` — 256 or 512 lanes per
//!    pass. With deterministic delays, each net's settling waveform is an
//!    exact ordered list of `(time, word)` steps ([`Wave`]) computed once
//!    per net, after its fanins — no event queue;
//! 3. [`LaneSimResult::bus_waves`] + [`LaneBusWaves::sweep`] sample the
//!    flip-flop-captured value of an output bus for an *entire* `Ts` grid
//!    from the same run ([`LaneBusWaves::try_sweep`] also rejects grids
//!    that would double-count an observation time).
//!    [`BatchProgram::run_bus`] is the streaming form for sweeps: it keeps
//!    only the bus's waveforms, dropping every other net's after its last
//!    reader, so a pass holds the live frontier plus the bus
//!    ([`LaneBusResult`]), and it can shard one pass across several
//!    worker threads;
//! 4. [`BatchProgram::run_with_faults`] additionally diverges lanes at
//!    [`FaultPlan`](crate::FaultPlan) sites ([`BatchFaultSet`],
//!    [`WideFaultSet`]), so a whole lane word of *different* fault
//!    scenarios shares one pass;
//! 5. [`BatchProgram::run_bus_at`] answers the question for a few fixed
//!    sample times only, as a fault campaign's main and shadow registers
//!    ask it: every net keeps just the steps that can still reach a
//!    sampled register, and the pass returns the bus words at those times
//!    ([`LaneBusSamples`]). [`BatchProgram::settled_bus`] gives the words
//!    they are judged against: the settled bus, from one zero-delay
//!    evaluation.
//!
//! Exactness is the point, not an approximation: under transport-delay
//! semantics with per-gate constant delays, `out(t + d) = f(inputs(t))`,
//! so the batch waveforms are bit-identical per lane to the event-driven
//! simulator's (property-tested in `tests/proptest_netlist.rs`). That holds
//! for every delay model, since each is a pure per-gate function:
//! [`JitteredDelay`](crate::JitteredDelay) depends on `(seed, net)` only,
//! so one placement compiles to one exact program.
//!
//! # Example
//!
//! ```
//! use ola_netlist::batch::{BatchInputs, BatchProgram};
//! use ola_netlist::{Netlist, UnitDelay};
//!
//! let mut nl = Netlist::new();
//! let a = nl.input("a");
//! let b = nl.input("b");
//! let z = nl.xor(a, b);
//! nl.set_output("z", vec![z]);
//!
//! let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
//! let prev = BatchInputs::zeros(2, 2).unwrap();
//! let new = BatchInputs::pack(&[vec![true, false], vec![true, true]]).unwrap();
//! let res = prog.run(&prev, &new).unwrap();
//! // Lane 0 (a=1, b=0): z rises after one gate delay.
//! assert!(!res.value_at(z, 0, 0));
//! assert!(res.value_at(z, 0, 100));
//! // Lane 1 (a=1, b=1): z stays 0 — sampled from the same run.
//! assert!(!res.value_at(z, 1, 100));
//! ```

mod block;
mod engine;
mod fault;
mod program;
mod sampler;
mod wave;

pub use block::{LaneBlock, LaneWord};
pub use engine::{BatchSimResult, LaneBusResult, LaneBusSamples, LaneSimResult, WideSimResult};
pub use fault::{BatchFaultSet, LaneFaultSet, WideFaultSet};
pub use program::{BatchInputs, BatchProgram, LaneInputs, WideInputs};
pub use sampler::{BatchBusWaves, LaneBusWaves, LaneTsSweep, TsSweep, WideBusWaves, WideTsSweep};
pub use wave::{LaneWave, Wave, WideWave};

/// Number of vectors one legacy `u64` lane word carries; `LaneBlock<W>`
/// words carry `64·W` (see [`LaneWord::LANES`]).
pub const MAX_LANES: u32 = 64;
