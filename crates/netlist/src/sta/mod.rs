//! Static timing & structural analysis.
//!
//! The dynamic half of this crate ([`simulate`](crate::simulate),
//! [`batch`](crate::batch)) answers *what happens* when a netlist is
//! clocked at a period `Ts`; this module answers *what must happen*, by
//! structure alone:
//!
//! * [`arrival`] — forward worst-case arrival times ([`analyze`]): the
//!   "rated" timing a synthesis tool would report;
//! * [`slack`] — backward required-time propagation: per-net headroom (or
//!   deficit) against a target period;
//! * [`paths`] — top-K critical-path enumeration with named output-bus
//!   endpoints: *which* digit the deep logic terminates in, gate by gate;
//! * [`mod@certify`] — per-digit settlement certification over a `Ts` grid,
//!   with the analytic error bound `Σ_{at-risk k} w_k` that must dominate
//!   every empirical error curve;
//! * [`lint`] — structural defect detection (dead cones, floating nets,
//!   constant-foldable gates, …) and [`prune_dead`], which ships generated
//!   datapaths lint-clean.
//!
//! Every analysis is a single forward or backward pass in net order: the
//! builder only accepts fanins created before the gate, so net order is a
//! topological order of every netlist.

pub mod arrival;
pub mod certify;
pub mod lint;
pub mod paths;
pub mod slack;

pub use arrival::{analyze, TimingReport};
pub use certify::{certify, CertificationReport, DigitStatus};
pub use lint::{prune_dead, LintIssue};
pub use paths::{critical_paths, CriticalPath, PathStep};
pub use slack::{analyze_slack, slack_from_arrival, SlackReport};
