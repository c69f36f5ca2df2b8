//! Per-lane fault divergence for the batch engine.
//!
//! A [`LaneFaultSet`] compiles one [`FaultPlan`] per lane into dense
//! per-net *lane words*: a stuck mask/value pair, transient windows
//! annotated with the lanes they flip, and delay pushes grouped into
//! `(push, lane-mask)` partitions. The engine then evaluates that many
//! *different* fault scenarios in one pass over the netlist, which is what
//! turns fault campaigns from `sites × vectors` event-driven runs into
//! `sites × vectors / lanes` batch runs. [`BatchFaultSet`]
//! (= `LaneFaultSet<u64>`) carries up to 64 plans, `LaneFaultSet<LaneBlock<W>>`
//! up to `64·W`.
//!
//! The merge semantics per lane are exactly those of
//! [`FaultPlan`]'s overlay: later stuck-at / transient entries on the same
//! net replace earlier ones, delay pushes accumulate (saturating).

use crate::batch::block::LaneWord;
use crate::fault::{FaultKind, FaultPlan};
use crate::{BatchError, NetlistError};
use std::collections::BTreeMap;

/// The aggregated fault state of one net across all lanes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LaneFaults<B: LaneWord> {
    /// Lanes whose plan sticks this net.
    pub(crate) stuck_mask: B,
    /// The stuck values on those lanes (subset of `stuck_mask`).
    pub(crate) stuck_vals: B,
    /// Transient windows `(start, end, lane_mask)`: the listed lanes read
    /// inverted during `[start, end)`.
    pub(crate) windows: Vec<(u64, u64, B)>,
    /// Non-zero delay pushes `(push, lane_mask)`; lanes not covered here
    /// have push 0. Masks are disjoint, pushes distinct.
    pub(crate) pushes: Vec<(u64, B)>,
}

impl<B: LaneWord> Default for LaneFaults<B> {
    fn default() -> Self {
        LaneFaults {
            stuck_mask: B::ZERO,
            stuck_vals: B::ZERO,
            windows: Vec::new(),
            pushes: Vec::new(),
        }
    }
}

impl<B: LaneWord> LaneFaults<B> {
    /// True if observation is the identity on this net (no stuck bits, no
    /// windows) — delay pushes do not change the observation transform.
    pub(crate) fn observe_is_identity(&self) -> bool {
        self.stuck_mask.is_zero() && self.windows.is_empty()
    }

    /// The observed initial lane word given the raw one (before `t = 0`:
    /// transients inactive, only stuck bits apply).
    pub(crate) fn observe_initial(&self, raw: B) -> B {
        raw.and(self.stuck_mask.not()).or(self.stuck_vals)
    }

    /// The delay-group partition of the full lane word: `(push, mask)`
    /// pairs whose masks are disjoint and together cover every lane, sorted
    /// by push (so the zero-push group comes first).
    pub(crate) fn delay_groups(&self) -> Vec<(u64, B)> {
        let mut covered = B::ZERO;
        let mut groups = Vec::with_capacity(self.pushes.len() + 1);
        for &(push, mask) in &self.pushes {
            covered = covered.or(mask);
            groups.push((push, mask));
        }
        if covered != B::ONES {
            groups.push((0, covered.not()));
        }
        groups.sort_unstable_by_key(|&(push, _)| push);
        groups
    }
}

/// Merged per-lane fault state of one net while compiling one plan.
#[derive(Clone, Copy, Default)]
struct OneLaneFault {
    stuck: Option<bool>,
    window: Option<(u64, u64)>,
    push: u64,
}

/// One per-lane [`FaultPlan`] per lane word bit, compiled for one netlist.
///
/// Lane `l` runs under `plans[l]`; lanes beyond `plans.len()` are
/// fault-free. An empty slice (or all-empty plans) is the identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneFaultSet<B: LaneWord = u64> {
    pub(crate) nets: Vec<LaneFaults<B>>,
    lanes: u32,
    any: bool,
}

/// The 64-lane fault set (up to 64 plans).
pub type BatchFaultSet = LaneFaultSet<u64>;

impl<B: LaneWord> LaneFaultSet<B> {
    /// Compiles one plan per lane against a netlist with `num_nets` nets.
    ///
    /// # Errors
    ///
    /// * [`BatchError::TooManyLanes`] for more than `B::LANES` plans;
    /// * [`BatchError::InvalidFault`] if any plan references a net outside
    ///   the netlist.
    pub fn compile(plans: &[FaultPlan], num_nets: usize) -> Result<LaneFaultSet<B>, BatchError> {
        if plans.len() > B::LANES as usize {
            return Err(BatchError::TooManyLanes { got: plans.len(), cap: B::LANES });
        }
        let mut nets: Vec<LaneFaults<B>> = vec![LaneFaults::default(); num_nets];
        let mut any = false;
        for (lane, plan) in plans.iter().enumerate() {
            let bit = B::lane_bit(lane as u32);
            // Merge this lane's faults per net with the overlay semantics:
            // last stuck/window wins, pushes accumulate.
            let mut merged: BTreeMap<u32, OneLaneFault> = BTreeMap::new();
            for f in plan.faults() {
                if f.net.index() >= num_nets {
                    return Err(BatchError::InvalidFault(NetlistError::NetOutOfRange {
                        index: f.net.index(),
                        len: num_nets,
                    }));
                }
                let slot = merged.entry(f.net.0).or_default();
                match f.kind {
                    FaultKind::StuckAt(v) => slot.stuck = Some(v),
                    FaultKind::Transient { at, duration } => {
                        slot.window = (duration > 0).then(|| (at, at.saturating_add(duration)));
                    }
                    FaultKind::DelayPush(extra) => slot.push = slot.push.saturating_add(extra),
                }
            }
            for (net, f) in merged {
                let slot = &mut nets[net as usize];
                if let Some(v) = f.stuck {
                    slot.stuck_mask = slot.stuck_mask.or(bit);
                    if v {
                        slot.stuck_vals = slot.stuck_vals.or(bit);
                    }
                    any = true;
                }
                if let Some((start, end)) = f.window {
                    match slot.windows.iter_mut().find(|w| w.0 == start && w.1 == end) {
                        Some(w) => w.2 = w.2.or(bit),
                        None => slot.windows.push((start, end, bit)),
                    }
                    any = true;
                }
                if f.push > 0 {
                    match slot.pushes.iter_mut().find(|p| p.0 == f.push) {
                        Some(p) => p.1 = p.1.or(bit),
                        None => slot.pushes.push((f.push, bit)),
                    }
                    any = true;
                }
            }
        }
        Ok(LaneFaultSet { nets, lanes: plans.len() as u32, any })
    }

    /// Number of nets this set was compiled against.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of lanes that carry a plan (possibly empty).
    #[must_use]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// True if no lane carries any fault (identity set).
    #[must_use]
    pub fn is_identity(&self) -> bool {
        !self.any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetId;

    #[test]
    fn per_lane_merge_matches_overlay_semantics() {
        let z = NetId(2);
        let plans = vec![
            FaultPlan::new().stuck_at(z, false).stuck_at(z, true),
            FaultPlan::new().delay_push(z, 10).delay_push(z, 5),
            FaultPlan::new().transient(z, 10, 5).transient(z, 20, 0),
        ];
        let fs = BatchFaultSet::compile(&plans, 3).unwrap();
        assert_eq!(fs.lanes(), 3);
        assert!(!fs.is_identity());
        let f = &fs.nets[2];
        assert_eq!(f.stuck_mask, 0b001, "only lane 0 sticks");
        assert_eq!(f.stuck_vals, 0b001, "last stuck-at wins");
        assert_eq!(f.pushes, vec![(15, 0b010)], "pushes accumulate");
        assert!(f.windows.is_empty(), "later zero-duration transient clears the window");
        assert_eq!(f.observe_initial(0b110), 0b111);
    }

    #[test]
    fn windows_group_by_span_and_pushes_by_amount() {
        let z = NetId(0);
        let plans = vec![
            FaultPlan::new().transient(z, 5, 5).delay_push(z, 7),
            FaultPlan::new().transient(z, 5, 5).delay_push(z, 7),
            FaultPlan::new().transient(z, 9, 1),
        ];
        let fs = BatchFaultSet::compile(&plans, 1).unwrap();
        let f = &fs.nets[0];
        assert_eq!(f.windows, vec![(5, 10, 0b011), (9, 10, 0b100)]);
        assert_eq!(f.pushes, vec![(7, 0b011)]);
        let groups = f.delay_groups();
        assert_eq!(groups, vec![(0, !0b011u64), (7, 0b011)]);
        let union = groups.iter().fold(0u64, |a, &(_, m)| a | m);
        assert_eq!(union, u64::MAX, "groups partition the lane word");
    }

    #[test]
    fn empty_and_identity_sets() {
        let fs = BatchFaultSet::compile(&[], 4).unwrap();
        assert!(fs.is_identity());
        assert_eq!(fs.lanes(), 0);
        let fs2 = BatchFaultSet::compile(&[FaultPlan::new()], 4).unwrap();
        assert!(fs2.is_identity());
        assert!(fs2.nets[0].observe_is_identity());
        assert_eq!(fs2.nets[0].delay_groups(), vec![(0, u64::MAX)]);
    }

    #[test]
    fn wide_sets_address_lanes_past_64() {
        let z = NetId(1);
        let mut plans = vec![FaultPlan::new(); 70];
        plans[69] = FaultPlan::new().stuck_at(z, true);
        let fs = LaneFaultSet::<crate::batch::LaneBlock<2>>::compile(&plans, 2).unwrap();
        assert_eq!(fs.lanes(), 70);
        assert!(!fs.is_identity());
        assert!(fs.nets[1].stuck_mask.bit(69));
        assert_eq!(fs.nets[1].stuck_mask.count_ones(), 1);
        // The same plans exceed the 64-lane set's capacity.
        assert_eq!(
            BatchFaultSet::compile(&plans, 2).unwrap_err(),
            BatchError::TooManyLanes { got: 70, cap: 64 }
        );
    }

    #[test]
    fn compile_validates_nets_and_lane_count() {
        let bad = FaultPlan::new().stuck_at(NetId(9), true);
        let err = BatchFaultSet::compile(&[bad], 3).unwrap_err();
        assert!(matches!(
            err,
            BatchError::InvalidFault(NetlistError::NetOutOfRange { index: 9, len: 3 })
        ));
        let many: Vec<FaultPlan> = (0..65).map(|_| FaultPlan::new()).collect();
        assert_eq!(
            BatchFaultSet::compile(&many, 3).unwrap_err(),
            BatchError::TooManyLanes { got: 65, cap: 64 }
        );
    }
}
