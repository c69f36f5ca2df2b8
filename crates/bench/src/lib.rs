//! # ola-bench — the reproduction harness
//!
//! Regenerates every table and figure of the paper's evaluation from the
//! `ola` workspace crates. Run the `repro` binary:
//!
//! ```sh
//! cargo run --release -p ola-bench --bin repro -- all          # everything
//! cargo run --release -p ola-bench --bin repro -- fig4 --quick # one artifact
//! ```
//!
//! Results are printed as aligned text tables and written as CSV into
//! `results/` (and PGM images for Figure 7). `EXPERIMENTS.md` at the
//! workspace root records the paper-vs-measured comparison.
//!
//! Runs are crash-safe: completed work units land in an append-only
//! checkpoint under `results/checkpoints/` ([`resume`]), `repro --resume`
//! replays them bit-identically, and the `chaos_check` binary injects
//! crashes, torn frames, byte tampering and panics to prove it.

pub mod experiments;
pub mod report;
pub mod resume;
