//! # ola-netlist — gate-level netlists with overclocked timing simulation
//!
//! Substrate crate for the `ola` workspace. The paper's empirical results
//! come from post-place-and-route FPGA timing simulation; this crate is the
//! software stand-in:
//!
//! * [`Netlist`] — structural combinational netlists (DAG by construction);
//! * [`simulate`] — event-driven transport-delay simulation recording every
//!   net's settling waveform, with [`SimResult::value_at`] answering *what
//!   does a register clocked at period `Ts` capture?* — the overclocking
//!   primitive;
//! * [`sta`] — the static-analysis subsystem: [`analyze`] arrival times
//!   (the "rated" frequency a tool would report), per-net slack, top-K
//!   critical paths, per-digit settlement certification, and a structural
//!   lint pass with dead-cone pruning;
//! * [`equiv`] — staged combinational equivalence checking (structural
//!   hashing → ROBDD → exhaustive/random 64-lane evaluation) returning
//!   typed [`EquivVerdict`]s with replayable counterexamples — the
//!   safety net under every semantics-preserving rewrite;
//! * [`DelayModel`]s — [`UnitDelay`], [`FpgaDelay`], and [`JitteredDelay`]
//!   standing in for place-and-route delay variation;
//! * [`fault`] — stuck-at / transient-SEU / delay-push fault overlays
//!   ([`FaultPlan`]) injected via [`simulate_with_faults`], with an event
//!   budget so cyclic netlists return [`SimError::Unsettled`] instead of
//!   hanging;
//! * [`batch`] — the levelized bit-parallel batch engine: 64 input vectors
//!   (and 64 per-lane fault plans) per pass, with multi-`Ts` sampling,
//!   bit-identical per lane to [`simulate`] under every delay model;
//! * [`area::estimate`] — greedy LUT covering for Table-4-style area
//!   comparisons;
//! * [`obs`] — coarse, deterministic observability hooks
//!   ([`obs::SimObserver`]) that a downstream tracing/metrics layer (e.g.
//!   `ola-core::obs`) installs once per process; near-free when
//!   uninstalled;
//! * [`cells`] — full adders and the PPM/MMP cells of borrow-save
//!   arithmetic.
//!
//! # Example: observing a timing violation
//!
//! ```
//! use ola_netlist::{simulate, Netlist, UnitDelay};
//!
//! // A 3-deep inverter chain; flipping the input reaches the output after
//! // three gate delays.
//! let mut nl = Netlist::new();
//! let a = nl.input("a");
//! let b = nl.not(a);
//! let c = nl.not(b);
//! let z = nl.not(c);
//!
//! let res = simulate(&nl, &UnitDelay, &[false], &[true]);
//! let settled = res.final_value(z);
//! let overclocked = res.value_at(z, 150); // sampled too early!
//! assert_ne!(settled, overclocked);
//! ```

pub mod area;
pub mod batch;
pub mod cancel;
pub mod cells;
mod delay;
pub mod equiv;
mod error;
pub mod fault;
mod netlist;
pub mod obs;
mod sim;
pub mod sta;

pub use area::AreaReport;
pub use cancel::{CancelToken, Cancelled};
pub use delay::{DelayModel, FpgaDelay, JitteredDelay, UnitDelay};
pub use equiv::{
    check_equiv, check_equiv_with, Counterexample, EquivError, EquivMethod, EquivOptions,
    EquivVerdict,
};
pub use error::{BatchError, NetlistError, SimError, StaError};
pub use fault::{Fault, FaultKind, FaultPlan};
pub use netlist::{GateKind, NetId, Netlist};
pub use sim::{
    default_event_budget, simulate, simulate_budgeted, simulate_from_zero,
    simulate_from_zero_with_faults, simulate_with_faults, BusWaveforms, SimResult,
};
pub use sta::{analyze, try_analyze, TimingReport};
