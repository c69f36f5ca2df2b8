//! # ola-redundant — radix-2 signed-digit number system
//!
//! Substrate crate for the `ola` workspace (a reproduction of *"Datapath
//! Synthesis for Overclocking: Online Arithmetic for Latency-Accuracy
//! Trade-offs"*, DAC 2014). It provides the redundant number system on
//! which online (most-significant-digit-first) arithmetic is built:
//!
//! * [`Digit`] — the radix-2 redundant digit set {−1, 0, 1};
//! * [`SdNumber`] — fractional signed-digit numbers with exact values;
//! * [`BsVector`] — the borrow-save `(p, n)` bit-pair encoding used by
//!   hardware datapaths, with arbitrary weight windows;
//! * [`Q`] — exact dyadic rationals (`num / 2^scale`), so every datapath
//!   value is represented without rounding;
//! * [`OnTheFlyConverter`] — carry-free MSD-first conversion back to
//!   non-redundant form;
//! * [`random`] — the input distributions used by the paper's experiments.
//!
//! # Example
//!
//! ```
//! use ola_redundant::{Digit, Q, SdNumber};
//!
//! // 3/8 has several redundant encodings; values compare exactly.
//! let a = SdNumber::new(vec![Digit::One, Digit::Zero, Digit::NegOne]);
//! let b = SdNumber::from_value(Q::new(3, 3), 3)?;
//! assert!(a.value_eq(&b));
//! # Ok::<(), ola_redundant::RangeError>(())
//! ```

mod bs;
mod convert;
mod digit;
mod q;
pub mod random;
mod sd;

pub use bs::BsVector;
pub use convert::OnTheFlyConverter;
pub use digit::{Digit, DigitRangeError};
pub use q::Q;
pub use sd::{RangeError, SdNumber};
