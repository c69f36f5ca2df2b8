//! Conventional (two's-complement, LSB-first) arithmetic — the baseline the
//! paper compares online arithmetic against.
//!
//! * [`TcFormat`] — fixed-point two's-complement encoding/decoding;
//! * netlists live in [`crate::synth`]: [`crate::synth::ripple_carry_adder`]
//!   and [`crate::synth::array_multiplier`].

mod tc;

pub use tc::{EncodeTcError, TcFormat};
