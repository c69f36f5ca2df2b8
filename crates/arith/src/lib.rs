//! # ola-arith — online and conventional arithmetic operators
//!
//! The arithmetic layer of the `ola` workspace (reproduction of *"Datapath
//! Synthesis for Overclocking: Online Arithmetic for Latency-Accuracy
//! Trade-offs"*, DAC 2014):
//!
//! * [`online`] — MSD-first operators over the redundant signed-digit
//!   system: the digit-parallel online adder (Fig 2), the online multiplier
//!   recurrence (Algorithm 1) as golden / bit-true / stage-wave-timed
//!   models, and the digit-serial original.
//! * [`conventional`] — the two's-complement baselines the paper compares
//!   against: ripple-carry addition and array multiplication, whose
//!   LSB-first carry chains make overclocking errors land in the MSBs.
//! * [`synth`] — netlist generators for all of the above and the fused
//!   online inner product, ready for [`ola_netlist`]'s timing simulation,
//!   STA and area estimation, plus the per-operator cores that
//!   `ola-synth`'s elaborator composes into constant-coefficient
//!   datapaths.
//!
//! # Example
//!
//! ```
//! use ola_arith::online::{online_mult, Selection};
//! use ola_redundant::{Q, SdNumber};
//!
//! let x = SdNumber::from_value(Q::new(93, 8), 8)?;   //  93/256
//! let y = SdNumber::from_value(Q::new(-47, 8), 8)?;  // -47/256
//! let product = online_mult(&x, &y, Selection::default());
//! // Accurate to 3·2^-(N+2):
//! let err = (x.value() * y.value() - product.value()).abs();
//! assert!(err <= Q::new(3, 10));
//! # Ok::<(), ola_redundant::RangeError>(())
//! ```

pub mod conventional;
pub mod online;
pub mod synth;
