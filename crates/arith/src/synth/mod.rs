//! Netlist synthesis of every operator in this crate.
//!
//! Generators return small structs bundling the [`Netlist`] with its I/O
//! bookkeeping; feed them to [`ola_netlist::simulate`] for overclocked
//! timing experiments, [`ola_netlist::analyze`] for rated frequencies, and
//! [`ola_netlist::area::estimate`] for Table-4-style area comparisons.
//!
//! The `*_core` and `*_gates` builders ([`online_multiplier_core`],
//! [`array_multiplier_core`], [`bs_add_gates`], [`fused_mac_gates`]) wire
//! one operator into an existing netlist. Composite datapaths —
//! constant-coefficient multiply-accumulates, filters — are not built
//! here: `ola-synth`'s elaborator composes them from these cores, and it
//! chooses how the additions are allocated. The one hand-wired composite
//! is [`fused_online_mac`], the gate-level reference for the fused
//! accumulator.
//!
//! [`Netlist`]: ola_netlist::Netlist

pub mod bits;
mod bsnets;
mod conventional;
mod fused_mac;
mod online;

pub use bsnets::{bs_add_gates, decode_planes_value, sdvm_gates, BsSignals};
pub use conventional::{
    array_multiplier, array_multiplier_core, carry_select_adder, ripple_carry_adder,
    ArrayMultiplierCircuit, CarrySelectAdderCircuit, RippleAdderCircuit,
};
pub use fused_mac::{fused_mac_gates, fused_online_mac, FusedMacCircuit};
pub use online::{
    online_adder, online_multiplier, online_multiplier_core, OnlineAdderCircuit,
    OnlineMultiplierCircuit,
};
