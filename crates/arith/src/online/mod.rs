//! Online (MSD-first) arithmetic over the radix-2 signed-digit system.
//!
//! Three models of the same operators, each serving a different purpose:
//!
//! | model | module | purpose |
//! |---|---|---|
//! | golden (exact `Q` recurrence) | [`online_mult`] | mathematical reference |
//! | bit-true (borrow-save signals) | [`bittrue_mult`] | mirrors the netlist signal-for-signal |
//! | stage-wave (delay-μ stages) | [`StagedMultiplier`] | the paper's overclocking timing model |
//!
//! The digit-parallel online **adder** is [`bs_add`]; its constant two-FA
//! depth is why the paper treats adders as timing-violation-free.

mod adder;
mod bittrue;
mod mac;
mod mult;
mod select;
mod staged;

pub use adder::{bs_add, mmp, ppm};
pub use bittrue::{
    bittrue_mult, bittrue_mult_bits, digits_value, om_stage, om_stage_bits, sdvm, sdvm_bits,
    BitTrueProduct, StageIo,
};
pub use mac::{fused_fold_depth, fused_mac_bits, fused_mac_value, fused_mac_window};
pub use mult::{online_mult, OnlineProduct, SerialMultiplier, DELTA};
pub use select::{estimate, select, select_exact, Selection};
pub use staged::{StagedMultiplier, WaveState};
