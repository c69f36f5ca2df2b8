//! Static timing & structural analysis.
//!
//! The dynamic half of this crate ([`simulate`](crate::simulate),
//! [`batch`](crate::batch)) answers *what happens* when a netlist is
//! clocked at a period `Ts`; this module answers *what must happen*, by
//! structure alone:
//!
//! * [`arrival`] — forward worst-case arrival times ([`analyze`] /
//!   [`try_analyze`]): the "rated" timing a synthesis tool would report;
//! * [`slack`] — backward required-time propagation: per-net headroom (or
//!   deficit) against a target period;
//! * [`paths`] — top-K critical-path enumeration with named output-bus
//!   endpoints: *which* digit the deep logic terminates in, gate by gate;
//! * [`mod@certify`] — per-digit settlement certification over a `Ts` grid,
//!   with the analytic error bound `Σ_{at-risk k} w_k` that must dominate
//!   every empirical error curve;
//! * [`lint`] — structural defect detection (combinational loops found
//!   statically, dead cones, constant-foldable gates, …) and
//!   [`prune_dead`], which ships generated datapaths lint-clean.
//!
//! All timing analyses require the DAG-by-construction invariant and
//! return [`StaError::NotTopological`](crate::StaError::NotTopological)
//! when [`Netlist::rewire_input`](crate::Netlist::rewire_input) broke it;
//! the lint pass is the one analysis that accepts *any* netlist, because
//! diagnosing that breakage is its job.

pub mod arrival;
pub mod certify;
pub mod lint;
pub mod paths;
pub mod slack;

pub use arrival::{analyze, check_topological, try_analyze, TimingReport};
pub use certify::{certify, CertificationReport, DigitStatus};
pub use lint::{prune_dead, LintIssue, LintOptions};
pub use paths::{critical_paths, CriticalPath, PathStep};
pub use slack::{analyze_slack, slack_from_arrival, SlackReport};
