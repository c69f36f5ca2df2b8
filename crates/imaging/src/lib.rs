//! # ola-imaging — the overclocked Gaussian-filter case study
//!
//! Substrate + experiment crate for Section 4 of the reproduced paper
//! (*"Datapath Synthesis for Overclocking: Online Arithmetic for
//! Latency-Accuracy Trade-offs"*, DAC 2014):
//!
//! * [`Image`] — 8-bit grayscale images with PGM I/O;
//! * [`synthetic`] — deterministic procedural stand-ins for the Lena /
//!   Pepper / Sailboat / Tiffany benchmark images (see `DESIGN.md` for the
//!   substitution rationale) plus the uniform-noise "UI inputs";
//! * [`Kernel`] — quantized Gaussian convolution kernels;
//! * [`filter`] — the gate-level filter datapath ([`Filter`]), built with
//!   online or two's-complement arithmetic and overclocked on the batch
//!   timing engine, producing the MRE / SNR numbers behind Figures 6–7 and
//!   Tables 1–3.
//!
//! # Example
//!
//! ```no_run
//! use ola_imaging::filter::{Filter, FilterConfig};
//! use ola_imaging::synthetic::Benchmark;
//!
//! let image = Benchmark::LenaLike.generate(64, 64, 1);
//! let filter = Filter::online(&FilterConfig::paper_default());
//! let rated = filter.rated_period();
//! let sweep = filter.apply_sweep(&image, &[rated * 9 / 10, rated]);
//! println!("MRE at 1.11 f0: {:.4}%", sweep.runs[0].mre_percent);
//! ```

pub mod filter;
mod image;
mod kernel;
pub mod synthetic;

pub use filter::{Filter, FilterConfig};
pub use image::Image;
pub use kernel::Kernel;
