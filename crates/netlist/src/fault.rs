//! Fault models for resilience campaigns.
//!
//! A [`FaultPlan`] is an overlay on a [`Netlist`]: it never mutates the
//! structure, it transforms the *observed* value of faulted nets during
//! simulation ([`simulate_with_faults`](crate::simulate_with_faults)).
//! Three classic fault classes are modeled:
//!
//! * **Stuck-at** — the net reads as a constant `0`/`1` forever (a
//!   manufacturing or wear-out hard fault);
//! * **Transient** — a single-event upset: the net reads *inverted* during
//!   a time window `[at, at + duration)` (a particle strike / soft error);
//! * **Delay push** — the gate driving the net becomes slower by a fixed
//!   amount (local voltage/temperature variation), turning marginal timing
//!   into real overclocking violations.
//!
//! An empty plan is exactly the identity: simulation with an empty plan is
//! bit-identical to the fault-free simulator (property-tested in
//! `ola-arith`'s fault proptests).

use crate::{NetId, Netlist, NetlistError};

/// What goes wrong on a faulted net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The net permanently reads as this value.
    StuckAt(bool),
    /// The net reads inverted during `[at, at + duration)`.
    Transient {
        /// Start time of the upset window.
        at: u64,
        /// Length of the upset window (a zero duration is a no-op).
        duration: u64,
    },
    /// Every output transition of the driving gate is delayed by this many
    /// extra time units.
    DelayPush(u64),
}

/// One fault: a [`FaultKind`] applied to one net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// The faulted net (identified by the gate driving it).
    pub net: NetId,
    /// The fault model.
    pub kind: FaultKind,
}

/// A set of faults to inject into one simulation.
///
/// # Examples
///
/// ```
/// use ola_netlist::{simulate_with_faults, FaultPlan, Netlist, UnitDelay};
///
/// let mut nl = Netlist::new();
/// let a = nl.input("a");
/// let b = nl.input("b");
/// let z = nl.and(a, b);
/// nl.set_output("z", vec![z]);
///
/// let plan = FaultPlan::new().stuck_at(z, true);
/// let res = simulate_with_faults(&nl, &UnitDelay, &[false, false], &[true, false], &plan).unwrap();
/// assert!(res.final_value(z), "stuck-at-1 overrides the AND gate");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty (identity) plan.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault.
    pub fn add(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Adds a stuck-at fault (builder style).
    #[must_use]
    pub fn stuck_at(mut self, net: NetId, value: bool) -> Self {
        self.add(Fault { net, kind: FaultKind::StuckAt(value) });
        self
    }

    /// Adds a transient bit-flip during `[at, at + duration)` (builder
    /// style).
    #[must_use]
    pub fn transient(mut self, net: NetId, at: u64, duration: u64) -> Self {
        self.add(Fault { net, kind: FaultKind::Transient { at, duration } });
        self
    }

    /// Adds a delay push to the gate driving `net` (builder style).
    #[must_use]
    pub fn delay_push(mut self, net: NetId, extra: u64) -> Self {
        self.add(Fault { net, kind: FaultKind::DelayPush(extra) });
        self
    }

    /// The faults in insertion order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True for the identity plan.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Checks that every faulted net exists in `netlist`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::NetOutOfRange`] naming the first missing net.
    pub fn validate(&self, netlist: &Netlist) -> Result<(), NetlistError> {
        for f in &self.faults {
            if f.net.index() >= netlist.len() {
                return Err(NetlistError::NetOutOfRange {
                    index: f.net.index(),
                    len: netlist.len(),
                });
            }
        }
        Ok(())
    }

    /// Compiles the plan into a dense per-net overlay. When the same net
    /// carries several faults, later stuck-at / transient entries replace
    /// earlier ones and delay pushes accumulate.
    pub(crate) fn compile(&self, n: usize) -> FaultOverlay {
        let mut nets = vec![NetFault::NONE; n];
        for f in &self.faults {
            let slot = &mut nets[f.net.index()];
            match f.kind {
                FaultKind::StuckAt(v) => slot.stuck = Some(v),
                FaultKind::Transient { at, duration } => {
                    slot.window = (duration > 0).then(|| (at, at.saturating_add(duration)));
                }
                FaultKind::DelayPush(extra) => {
                    slot.push = slot.push.saturating_add(extra);
                }
            }
        }
        FaultOverlay { nets }
    }
}

/// Merged fault state of one net.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NetFault {
    pub(crate) stuck: Option<bool>,
    /// Half-open upset window `[start, end)`.
    pub(crate) window: Option<(u64, u64)>,
    pub(crate) push: u64,
}

impl NetFault {
    const NONE: NetFault = NetFault { stuck: None, window: None, push: 0 };
}

/// A compiled, per-net view of a [`FaultPlan`].
#[derive(Clone, Debug)]
pub(crate) struct FaultOverlay {
    nets: Vec<NetFault>,
}

impl FaultOverlay {
    /// The observed value of net `idx` at time `t` given its driver's raw
    /// value. `t = None` means "before the simulation starts" (transients
    /// are not yet active).
    pub(crate) fn observe(&self, idx: usize, t: Option<u64>, raw: bool) -> bool {
        let f = &self.nets[idx];
        if let Some(v) = f.stuck {
            return v;
        }
        if let (Some(t), Some((start, end))) = (t, f.window) {
            if t >= start && t < end {
                return !raw;
            }
        }
        raw
    }

    /// Extra scheduling delay for the gate driving net `idx`.
    pub(crate) fn push(&self, idx: usize) -> u64 {
        self.nets[idx].push
    }

    /// The times at which some net's observed value may change without any
    /// driver event: the boundaries of transient windows.
    pub(crate) fn boundary_events(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.nets.iter().enumerate().flat_map(|(i, f)| {
            f.window.into_iter().flat_map(move |(start, end)| [(i as u32, start), (i as u32, end)])
        })
    }
}

/// Enumerates the canonical single-fault sites of a netlist: every net
/// driven by a logic gate (inputs and constants are excluded — faults there
/// model testbench bugs, not datapath damage).
#[must_use]
pub fn logic_fault_sites(netlist: &Netlist) -> Vec<NetId> {
    netlist.nets().filter(|&n| netlist.kind(n).is_logic()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Netlist, NetId) {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let z = nl.xor(a, b);
        nl.set_output("z", vec![z]);
        (nl, z)
    }

    #[test]
    fn validate_rejects_out_of_range_nets() {
        let (nl, z) = tiny();
        assert!(FaultPlan::new().stuck_at(z, true).validate(&nl).is_ok());
        let bad = FaultPlan::new().stuck_at(NetId(1000), false);
        assert!(matches!(bad.validate(&nl), Err(NetlistError::NetOutOfRange { index: 1000, .. })));
    }

    #[test]
    fn overlay_merges_faults_per_net() {
        let (nl, z) = tiny();
        let plan = FaultPlan::new()
            .delay_push(z, 10)
            .delay_push(z, 5)
            .stuck_at(z, false)
            .stuck_at(z, true);
        let ov = plan.compile(nl.len());
        assert_eq!(ov.push(z.index()), 15, "delay pushes accumulate");
        assert!(ov.observe(z.index(), Some(0), false), "last stuck-at wins");
    }

    #[test]
    fn transient_window_is_half_open() {
        let (nl, z) = tiny();
        let ov = FaultPlan::new().transient(z, 10, 5).compile(nl.len());
        assert!(!ov.observe(z.index(), Some(9), false));
        assert!(ov.observe(z.index(), Some(10), false));
        assert!(ov.observe(z.index(), Some(14), false));
        assert!(!ov.observe(z.index(), Some(15), false));
        assert!(!ov.observe(z.index(), None, false), "inactive before t=0");
        let bounds: Vec<_> = ov.boundary_events().collect();
        assert_eq!(bounds, vec![(z.index() as u32, 10), (z.index() as u32, 15)]);
    }

    #[test]
    fn zero_duration_transient_is_identity() {
        let (nl, z) = tiny();
        let ov = FaultPlan::new().transient(z, 10, 0).compile(nl.len());
        assert!(!ov.observe(z.index(), Some(10), false));
        assert_eq!(ov.boundary_events().count(), 0);
    }

    #[test]
    fn site_enumeration_skips_non_logic() {
        let (nl, z) = tiny();
        assert_eq!(logic_fault_sites(&nl), vec![z]);
    }
}
