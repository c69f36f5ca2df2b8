//! Netlist synthesis of every operator in this crate.
//!
//! Generators return small structs bundling the [`Netlist`] with its I/O
//! bookkeeping; feed them to [`ola_netlist::simulate`] for overclocked
//! timing experiments, [`ola_netlist::analyze`] for rated frequencies, and
//! [`ola_netlist::area::estimate`] for Table-4-style area comparisons.
//!
//! [`Netlist`]: ola_netlist::Netlist

pub mod bits;
mod bsnets;
mod conventional;
mod fused_mac;
mod mac;
mod online;

pub use bsnets::{bs_add_gates, sdvm_gates, BsSignals};
pub use conventional::{
    array_multiplier, array_multiplier_core, carry_select_adder, ripple_carry_adder,
    ArrayMultiplierCircuit, CarrySelectAdderCircuit, RippleAdderCircuit,
};
pub use fused_mac::{fused_mac_gates, fused_online_mac, FusedMacCircuit};
pub use mac::{
    decode_planes_value, online_mac, traditional_mac, OnlineMacCircuit, TraditionalMacCircuit,
};
pub use online::{
    online_adder, online_multiplier, online_multiplier_core, OnlineAdderCircuit,
    OnlineMultiplierCircuit,
};
