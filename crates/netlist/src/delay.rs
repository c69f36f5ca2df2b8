//! Gate delay models.
//!
//! Delays are in abstract integer *time units* (think picoseconds). Absolute
//! values are uncalibrated — the paper's results are reported against
//! *normalized* frequency, so only ratios matter. The jittered model stands
//! in for place-and-route variation on the FPGA: per-gate deterministic
//! pseudo-random offsets derived from a seed, so runs are reproducible.
//!
//! Every model is a pure function of the gate — the jittered one of
//! `(seed, net)` on top of its inner model — so the batch compiler
//! ([`crate::batch::BatchProgram::compile`]) samples each delay once and
//! bakes it into a program that is exact for that model. A jittered model
//! compiles to one program per placement (amplitude and seed), which its
//! [`DelayModel::cache_key`] names.

use crate::{GateKind, NetId};

/// Maps each gate instance to a propagation delay in time units.
///
/// A model must be deterministic: the same `(kind, net)` always gets the
/// same delay. That is what lets the batch compiler sample each gate once.
pub trait DelayModel {
    /// Delay of the gate driving `net`. Inputs and constants must be 0.
    fn gate_delay(&self, kind: GateKind, net: NetId) -> u64;

    /// A string that, combined with a netlist digest, uniquely identifies
    /// the batch program this model compiles to — the memoization key
    /// component for compile caching. `None` (the default) opts out:
    /// compiled programs for this model are never cached. Only return
    /// `Some` if equal keys *guarantee* equal `gate_delay` functions.
    fn cache_key(&self) -> Option<String> {
        None
    }
}

impl<M: DelayModel + ?Sized> DelayModel for &M {
    fn gate_delay(&self, kind: GateKind, net: NetId) -> u64 {
        (**self).gate_delay(kind, net)
    }

    fn cache_key(&self) -> Option<String> {
        (**self).cache_key()
    }
}

/// Every logic gate takes exactly [`UnitDelay::UNIT`] time units.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnitDelay;

impl UnitDelay {
    /// The delay of one gate, in time units.
    pub const UNIT: u64 = 100;
}

impl DelayModel for UnitDelay {
    fn gate_delay(&self, kind: GateKind, _net: NetId) -> u64 {
        if kind.is_logic() {
            Self::UNIT
        } else {
            0
        }
    }

    fn cache_key(&self) -> Option<String> {
        Some(format!("unit/{}", Self::UNIT))
    }
}

/// An FPGA-flavoured table: inverters are cheap (absorbed into LUT inputs),
/// 2-input gates cost one LUT traversal, muxes slightly more.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FpgaDelay {
    /// Delay of an inverter.
    pub not: u64,
    /// Delay of a 2-input gate.
    pub two_input: u64,
    /// Delay of a 2:1 mux.
    pub mux: u64,
}

impl Default for FpgaDelay {
    fn default() -> Self {
        FpgaDelay { not: 20, two_input: 100, mux: 120 }
    }
}

impl DelayModel for FpgaDelay {
    fn gate_delay(&self, kind: GateKind, _net: NetId) -> u64 {
        match kind {
            GateKind::Input | GateKind::Const => 0,
            GateKind::Not => self.not,
            GateKind::Mux => self.mux,
            _ => self.two_input,
        }
    }

    fn cache_key(&self) -> Option<String> {
        Some(format!("fpga/{}/{}/{}", self.not, self.two_input, self.mux))
    }
}

/// Wraps another model, adding a deterministic per-gate pseudo-random offset
/// in `[-amplitude, +amplitude]` (clamped so delays stay ≥ 1 for logic).
///
/// This emulates routing-induced delay variation after place-and-route: two
/// structurally identical gates sit on different fabric paths. The offset
/// depends only on `(seed, net)`, so experiments are reproducible and one
/// `(amplitude, seed)` placement compiles to one batch program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JitteredDelay<M> {
    inner: M,
    amplitude: u64,
    seed: u64,
}

impl<M: DelayModel> JitteredDelay<M> {
    /// Wraps `inner`, jittering each gate by at most `amplitude` time units.
    #[must_use]
    pub fn new(inner: M, amplitude: u64, seed: u64) -> Self {
        JitteredDelay { inner, amplitude, seed }
    }

    /// The wrapped model.
    #[must_use]
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: DelayModel> DelayModel for JitteredDelay<M> {
    fn gate_delay(&self, kind: GateKind, net: NetId) -> u64 {
        let base = self.inner.gate_delay(kind, net);
        if base == 0 || self.amplitude == 0 {
            return base;
        }
        let h = splitmix64(self.seed ^ (net.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let span = 2 * self.amplitude + 1;
        let offset = (h % span) as i64 - self.amplitude as i64;
        let jittered = base as i64 + offset;
        jittered.max(1) as u64
    }

    fn cache_key(&self) -> Option<String> {
        let inner = self.inner.cache_key()?;
        Some(format!("jitter/{}/{}/{inner}", self.amplitude, self.seed))
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_delay_is_uniform_for_logic() {
        let m = UnitDelay;
        assert_eq!(m.gate_delay(GateKind::And, NetId(3)), UnitDelay::UNIT);
        assert_eq!(m.gate_delay(GateKind::Mux, NetId(9)), UnitDelay::UNIT);
        assert_eq!(m.gate_delay(GateKind::Input, NetId(0)), 0);
        assert_eq!(m.gate_delay(GateKind::Const, NetId(0)), 0);
    }

    #[test]
    fn fpga_delay_distinguishes_kinds() {
        let m = FpgaDelay::default();
        assert!(m.gate_delay(GateKind::Not, NetId(0)) < m.gate_delay(GateKind::And, NetId(0)));
        assert!(m.gate_delay(GateKind::Mux, NetId(0)) > m.gate_delay(GateKind::Xor, NetId(0)));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let m = JitteredDelay::new(UnitDelay, 30, 42);
        for i in 0..200u32 {
            let d1 = m.gate_delay(GateKind::And, NetId(i));
            let d2 = m.gate_delay(GateKind::And, NetId(i));
            assert_eq!(d1, d2, "same gate must get the same delay");
            assert!((UnitDelay::UNIT - 30..=UnitDelay::UNIT + 30).contains(&d1));
        }
    }

    #[test]
    fn jitter_varies_across_gates() {
        let m = JitteredDelay::new(UnitDelay, 30, 42);
        let delays: Vec<u64> = (0..50u32).map(|i| m.gate_delay(GateKind::And, NetId(i))).collect();
        assert!(delays.iter().any(|&d| d != delays[0]), "jitter should vary");
    }

    #[test]
    fn jitter_depends_on_seed() {
        let m1 = JitteredDelay::new(UnitDelay, 30, 1);
        let m2 = JitteredDelay::new(UnitDelay, 30, 2);
        let diff = (0..100u32)
            .filter(|&i| {
                m1.gate_delay(GateKind::And, NetId(i)) != m2.gate_delay(GateKind::And, NetId(i))
            })
            .count();
        assert!(diff > 50, "different seeds should give different jitter");
    }

    #[test]
    fn zero_base_delay_stays_zero() {
        let m = JitteredDelay::new(UnitDelay, 30, 7);
        assert_eq!(m.gate_delay(GateKind::Input, NetId(5)), 0);
    }

    #[test]
    fn cache_keys_distinguish_models_and_placements() {
        assert_eq!(UnitDelay.cache_key().unwrap(), "unit/100");
        let fpga = FpgaDelay::default();
        assert_ne!(fpga.cache_key(), UnitDelay.cache_key());
        let slow = FpgaDelay { two_input: 200, ..fpga };
        assert_ne!(slow.cache_key(), fpga.cache_key());
        // One program per placement: the key names amplitude, seed and the
        // inner model, and changing any of them changes the key.
        let placed = JitteredDelay::new(UnitDelay, 15, 2014);
        assert_eq!(placed.cache_key().unwrap(), "jitter/15/2014/unit/100");
        for other in [
            JitteredDelay::new(UnitDelay, 15, 2015).cache_key(),
            JitteredDelay::new(UnitDelay, 16, 2014).cache_key(),
            JitteredDelay::new(fpga, 15, 2014).cache_key(),
        ] {
            assert_ne!(other, placed.cache_key());
        }
        // An inner model without a key leaves the jittered one without one.
        struct Unkeyed;
        impl DelayModel for Unkeyed {
            fn gate_delay(&self, _kind: GateKind, _net: NetId) -> u64 {
                1
            }
        }
        assert_eq!(JitteredDelay::new(Unkeyed, 15, 2014).cache_key(), None);
        // The blanket &M impl forwards.
        let by_ref = <&JitteredDelay<UnitDelay> as DelayModel>::cache_key(&&placed);
        assert_eq!(by_ref, placed.cache_key());
    }
}
