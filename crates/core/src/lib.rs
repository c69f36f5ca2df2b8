//! # ola-core — overclocking analysis for online-arithmetic datapaths
//!
//! The primary contribution of the reproduced paper (*"Datapath Synthesis
//! for Overclocking: Online Arithmetic for Latency-Accuracy Trade-offs"*,
//! DAC 2014): quantifying what happens when a datapath built from online
//! (MSD-first) operators is clocked faster than its critical path, and why
//! that degrades so much more gracefully than conventional arithmetic.
//!
//! * [`timing`] — stage budgets `b = ⌈Ts/μ⌉`, structural vs chain-analysis
//!   worst-case delay (the overclocking headroom);
//! * [`model`] — the paper's probabilistic model: chain scenarios,
//!   violation probability (Algorithm 2), per-delay profile (Figure 5) and
//!   expected overclocking error (Eq. 12);
//! * [`montecarlo`] — stage-wave Monte-Carlo verification (Figure 4 top);
//! * [`empirical`] — gate-level netlist sweeps under jittered delays
//!   (Figure 4 bottom, the "FPGA" results);
//! * [`backend`] — the simulation engine selection ([`SimBackend`]: the
//!   bit-parallel batch engine, or the event-driven reference oracle for
//!   tests and cross-checks) plus the observability counters
//!   ([`BackendStats`]) the `repro` binary reports;
//! * [`baseline`] — conventional ripple-carry behaviour: exact carry-chain
//!   distribution and Monte-Carlo, showing the flat error expectation that
//!   makes conventional overclocking catastrophic;
//! * [`sweep`] — max error-free frequency and error-budget solvers
//!   (Tables 1–3);
//! * [`metrics`] — MRE (Eq. 13), SNR, PSNR, geometric means;
//! * [`obs`] — the observability layer: tracing spans ([`obs::span`]), the
//!   process-global metrics registry ([`obs::registry()`]) fed by the
//!   simulation engines, and per-experiment run manifests
//!   ([`obs::RunManifest`]) with SHA-256-certified outputs;
//! * [`cache`] — the content-addressed result cache ([`ContentCache`]):
//!   SHA-256-keyed, single-flight, LRU-bounded, integrity-verified on
//!   every read, with an optional on-disk tier — the dedupe substrate for
//!   `ola-serve` and warm `repro synth` re-runs;
//! * [`parallel`] — deterministic parallel Monte-Carlo accumulation and
//!   the `OLA_THREADS` resolution ([`parallel::thread_config`]) recorded
//!   in manifests;
//! * [`resilience`] — crash-safe execution: SHA-256-framed checkpoint
//!   files with resume ([`resilience::open_resumable`]), cooperative
//!   cancellation ([`resilience::install_ambient`] /
//!   [`CancelToken`]), typed error taxonomy
//!   ([`resilience::ResilienceError`]), atomic artifact writes
//!   ([`resilience::atomic_write`]), and the chaos-injection env hooks
//!   ([`resilience::chaos`]) the `chaos_check` harness drives.
//!
//! # Example: model vs Monte-Carlo (the Figure-4 experiment in miniature)
//!
//! ```
//! use ola_arith::online::Selection;
//! use ola_core::{model, montecarlo};
//!
//! let n = 8;
//! let mc = montecarlo::om_monte_carlo(
//!     n,
//!     Selection::default(),
//!     montecarlo::InputModel::UniformDigits,
//!     300,
//!     7,
//! );
//! // Both model and simulation agree: sampling after all chains settle is
//! // error-free, and the error expectation decays as the budget grows.
//! assert_eq!(*mc.curve.mean_abs_error.last().unwrap(), 0.0);
//! assert_eq!(model::expected_error(n, n + 3, 1.0), 0.0);
//! assert!(model::expected_error(n, 4, 1.0) > model::expected_error(n, 8, 1.0));
//! ```

pub mod backend;
pub mod baseline;
pub mod cache;
pub mod campaign;
pub mod empirical;
pub mod memo;
pub mod metrics;
pub mod model;
pub mod montecarlo;
pub mod obs;
pub mod parallel;
pub mod resilience;
pub mod sweep;
pub mod timing;

pub use backend::{BackendStats, SimBackend, StaGate};
pub use cache::{CacheConfig, CacheKey, ContentCache, Lookup};
pub use montecarlo::InputModel;
pub use resilience::{CancelToken, Cancelled, ResilienceError};
