//! The reproduction experiments: one module per paper artifact family.
//!
//! Every function returns [`Table`](crate::report::Table)s that the
//! `repro` binary prints and saves as CSV; `EXPERIMENTS.md` records the
//! paper-vs-measured comparison.

mod casestudy;
mod dsp;
mod equiv;
mod faults;
mod fig4;
mod fig5;
mod lint;
#[cfg(test)]
mod oracle;
mod sta;
mod synth;
mod table4;

pub use casestudy::{fig6, fig7, table1, table2, table3, CaseStudyContext};
pub use dsp::dsp;
pub use equiv::equiv;
pub use faults::faults;
pub use fig4::fig4;
pub use fig5::fig5;
pub use lint::lint;
pub use sta::{om_certification, om_digit_weights, sta};
pub use synth::synth;
pub use table4::table4;

/// Experiment scale: `quick` shrinks sample counts and image sizes for CI;
/// `full` approaches the paper's statistical depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small samples/images; minutes of runtime.
    Quick,
    /// Paper-scale statistics; tens of minutes on one core.
    Full,
}

impl Scale {
    /// Monte-Carlo sample count for stage-wave experiments.
    #[must_use]
    pub fn mc_samples(self) -> usize {
        match self {
            Scale::Quick => 2_000,
            Scale::Full => 20_000,
        }
    }

    /// Sample count for gate-level operator sweeps.
    #[must_use]
    pub fn gate_samples(self) -> usize {
        match self {
            Scale::Quick => 60,
            Scale::Full => 250,
        }
    }

    /// Image side length for the table experiments.
    #[must_use]
    pub fn table_image_size(self) -> usize {
        match self {
            Scale::Quick => 16,
            Scale::Full => 32,
        }
    }

    /// Image side length for the Figure 6/7 experiments.
    #[must_use]
    pub fn figure_image_size(self) -> usize {
        match self {
            Scale::Quick => 24,
            Scale::Full => 64,
        }
    }

    /// Number of clock periods in the coarse frequency grids.
    #[must_use]
    pub fn grid_points(self) -> usize {
        match self {
            Scale::Quick => 10,
            Scale::Full => 20,
        }
    }
}

/// The master RNG seeds each experiment derives its sample streams from,
/// for the run manifest. These are the *roots* of every stochastic choice
/// an experiment makes; re-running with the same seeds (and scale)
/// reproduces the outputs bit-for-bit. Experiments without a
/// stochastic component (sta, lint, table4) report an empty list.
#[must_use]
pub fn master_seeds(name: &str) -> Vec<(String, u64)> {
    let mk = |pairs: &[(&str, u64)]| pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    match name {
        "fig4" => mk(&[("mc", 41), ("gate", 42), ("jitter", 2014)]),
        "fig5" => mk(&[("mc", 51)]),
        // Case-study images are generated per benchmark as
        // `1 + index-in-Benchmark::ALL`; record the base.
        "fig6" | "fig7" | "table1" | "table2" | "table3" => mk(&[("image_base", 1)]),
        "faults" => mk(&[("campaign", 0xFA_517E5)]),
        "synth" => mk(&[("explore", synth::SEED)]),
        "equiv" => mk(&[("verify", equiv::SEED)]),
        "dsp" => mk(&[("pack", dsp::SEED)]),
        _ => Vec::new(),
    }
}
