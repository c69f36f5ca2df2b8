//! Multi-`Ts` sampling of batch waveforms.
//!
//! The paper's experiments all ask the same question of a settled run:
//! *what does a register clocked at period `Ts` capture?* — for an entire
//! grid of `Ts` values. [`LaneBusWaves`] detaches one output bus's lane
//! waveforms from a [`LaneSimResult`](crate::batch::LaneSimResult) and
//! [`LaneBusWaves::sweep`] extracts the captured words for every grid
//! point in a single cursor pass per net (ascending grids cost
//! `O(steps + |Ts|)` instead of `O(|Ts| · log steps)`), turning the
//! `(vector × Ts)` product loop into one sweep over one simulation.
//!
//! [`LaneBusWaves::try_sweep`] additionally rejects grids that name the
//! same observation time twice ([`BatchError::DuplicateTs`]): a duplicated
//! grid point would be counted twice by every violation-rate and
//! mean-error reduction downstream, silently biasing the sweep. Grid
//! *producers* should deduplicate; `try_sweep` is the backstop that turns
//! the remaining cases into a typed error instead of a wrong statistic.

use crate::batch::block::LaneWord;
use crate::batch::engine::LaneSimResult;
use crate::{BatchError, NetId, NetlistError};

/// One output bus's lane waveforms, detached from the simulation result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneBusWaves<B: LaneWord = u64> {
    pub(crate) lanes: u32,
    pub(crate) waves: Vec<crate::batch::Wave<B>>,
}

impl<B: LaneWord> LaneSimResult<B> {
    /// Detaches the waveforms of a bus (in the given net order) for
    /// sampling.
    ///
    /// # Errors
    ///
    /// [`NetlistError::NetOutOfRange`] naming the first invalid net.
    pub fn bus_waves(&self, nets: &[NetId]) -> Result<LaneBusWaves<B>, NetlistError> {
        let waves =
            nets.iter().map(|&n| self.try_wave(n).cloned()).collect::<Result<Vec<_>, _>>()?;
        Ok(LaneBusWaves { lanes: self.lanes(), waves })
    }
}

impl<B: LaneWord> LaneBusWaves<B> {
    /// Number of nets in the bus.
    #[must_use]
    pub fn len(&self) -> usize {
        self.waves.len()
    }

    /// True if the bus is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.waves.is_empty()
    }

    /// Number of active lanes.
    #[must_use]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// The lane words of every bus net at time `t`.
    #[must_use]
    pub fn sample_words(&self, t: u64) -> Vec<B> {
        self.waves.iter().map(|w| w.word_at(t)).collect()
    }

    /// The bus bits one lane's register would capture at period `t`.
    #[must_use]
    pub fn sample_lane(&self, lane: u32, t: u64) -> Vec<bool> {
        self.waves.iter().map(|w| w.lane_value_at(lane, t)).collect()
    }

    /// The settled bus bits of one lane.
    #[must_use]
    pub fn settled_lane(&self, lane: u32) -> Vec<bool> {
        self.waves.iter().map(|w| w.final_word().bit(lane)).collect()
    }

    /// Samples the whole `Ts` grid: entry `[ti][net]` of the result is the
    /// lane word of bus net `net` at time `ts[ti]`. Ascending grids are
    /// swept with one cursor pass per net; arbitrary grids fall back to
    /// per-point binary search. Duplicate grid points are sampled as
    /// given — use [`LaneBusWaves::try_sweep`] to reject them instead.
    #[must_use]
    pub fn sweep(&self, ts: &[u64]) -> LaneTsSweep<B> {
        let ascending = ts.windows(2).all(|w| w[0] <= w[1]);
        let mut words = vec![B::ZERO; ts.len() * self.waves.len()];
        if ascending {
            for (ni, w) in self.waves.iter().enumerate() {
                let mut cur = w.initial();
                let steps = w.steps();
                let mut si = 0usize;
                for (ti, &t) in ts.iter().enumerate() {
                    while let Some(&(st, sw)) = steps.get(si) {
                        if st <= t {
                            cur = sw;
                            si += 1;
                        } else {
                            break;
                        }
                    }
                    words[ti * self.waves.len() + ni] = cur;
                }
            }
        } else {
            for (ni, w) in self.waves.iter().enumerate() {
                for (ti, &t) in ts.iter().enumerate() {
                    words[ti * self.waves.len() + ni] = w.word_at(t);
                }
            }
        }
        LaneTsSweep { num_nets: self.waves.len(), lanes: self.lanes, ts: ts.to_vec(), words }
    }

    /// Like [`LaneBusWaves::sweep`], but rejects grids containing the same
    /// observation time more than once (in any order) — the typed guard
    /// against silently double-counting a `Ts` point in downstream
    /// violation-rate and error statistics.
    ///
    /// # Errors
    ///
    /// [`BatchError::DuplicateTs`] naming the first duplicated time.
    pub fn try_sweep(&self, ts: &[u64]) -> Result<LaneTsSweep<B>, BatchError> {
        sorted_distinct(ts)?;
        Ok(self.sweep(ts))
    }
}

/// The sample times `ts` in ascending order.
///
/// # Errors
///
/// [`BatchError::DuplicateTs`] naming the least time `ts` holds twice.
pub(crate) fn sorted_distinct(ts: &[u64]) -> Result<Vec<u64>, BatchError> {
    let mut sorted = ts.to_vec();
    sorted.sort_unstable();
    match sorted.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(BatchError::DuplicateTs { ts: w[0] }),
        None => Ok(sorted),
    }
}

/// The result of sampling a bus over a whole `Ts` grid: for every grid
/// point, the captured lane word of every bus net.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneTsSweep<B: LaneWord = u64> {
    num_nets: usize,
    lanes: u32,
    ts: Vec<u64>,
    /// Row-major `[ts.len()][num_nets]`.
    words: Vec<B>,
}

impl<B: LaneWord> LaneTsSweep<B> {
    /// The sampled grid.
    #[must_use]
    pub fn ts(&self) -> &[u64] {
        &self.ts
    }

    /// Number of active lanes.
    #[must_use]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Number of bus nets.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// The lane words of the whole bus at grid point `ti`.
    #[must_use]
    pub fn words_at(&self, ti: usize) -> &[B] {
        &self.words[ti * self.num_nets..(ti + 1) * self.num_nets]
    }

    /// The bus bits lane `lane` captures at grid point `ti`.
    #[must_use]
    pub fn lane_bits(&self, ti: usize, lane: u32) -> Vec<bool> {
        self.words_at(ti).iter().map(|w| w.bit(lane)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchInputs, BatchProgram, LaneSimResult, WideInputs};
    use crate::{Netlist, UnitDelay};

    fn run() -> (Netlist, LaneSimResult) {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let s = nl.xor(a, b);
        let c = nl.and(a, b);
        nl.set_output("z", vec![s, c]);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let prev = BatchInputs::pack(&[vec![false, false], vec![false, false]]).unwrap();
        let new = BatchInputs::pack(&[vec![true, false], vec![true, true]]).unwrap();
        let res = prog.run(&prev, &new).unwrap();
        (nl, res)
    }

    #[test]
    fn bus_waves_validate_nets() {
        let (nl, res) = run();
        assert!(res.bus_waves(nl.output("z")).is_ok());
        assert!(matches!(
            res.bus_waves(&[NetId::from_index(99)]),
            Err(NetlistError::NetOutOfRange { index: 99, .. })
        ));
    }

    #[test]
    fn sweep_matches_pointwise_sampling() {
        let (nl, res) = run();
        let bus = res.bus_waves(nl.output("z")).unwrap();
        let grid = [0u64, 50, 100, 150, 1000];
        let sweep = bus.sweep(&grid);
        assert_eq!(sweep.lanes(), 2);
        assert_eq!(sweep.num_nets(), 2);
        for (ti, &t) in grid.iter().enumerate() {
            assert_eq!(sweep.words_at(ti), bus.sample_words(t).as_slice(), "t = {t}");
            for lane in 0..2 {
                assert_eq!(sweep.lane_bits(ti, lane), bus.sample_lane(lane, t));
            }
        }
        // Settled values: lane 0 = (1,0) -> sum 1, carry 0; lane 1 = (1,1).
        assert_eq!(bus.settled_lane(0), vec![true, false]);
        assert_eq!(bus.settled_lane(1), vec![false, true]);
    }

    #[test]
    fn unsorted_grids_fall_back_to_pointwise() {
        let (nl, res) = run();
        let bus = res.bus_waves(nl.output("z")).unwrap();
        let grid = [150u64, 0, 100, 50];
        let sweep = bus.sweep(&grid);
        for (ti, &t) in grid.iter().enumerate() {
            assert_eq!(sweep.words_at(ti), bus.sample_words(t).as_slice(), "t = {t}");
        }
    }

    #[test]
    fn try_sweep_rejects_duplicate_grid_points() {
        let (nl, res) = run();
        let bus = res.bus_waves(nl.output("z")).unwrap();
        // Ascending duplicates and shuffled duplicates are both caught.
        assert_eq!(
            bus.try_sweep(&[0, 50, 50, 100]).unwrap_err(),
            BatchError::DuplicateTs { ts: 50 }
        );
        assert_eq!(
            bus.try_sweep(&[100, 0, 50, 100]).unwrap_err(),
            BatchError::DuplicateTs { ts: 100 }
        );
        // A duplicate-free grid passes through identically to `sweep`.
        let grid = [0u64, 50, 100, 150];
        assert_eq!(bus.try_sweep(&grid).unwrap(), bus.sweep(&grid));
    }

    #[test]
    fn wide_sweeps_sample_lanes_past_64() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let z = nl.not(a);
        nl.set_output("z", vec![z]);
        let prog = BatchProgram::compile(&nl, &UnitDelay).unwrap();
        let vecs: Vec<Vec<bool>> = (0..100).map(|l| vec![l % 2 == 0]).collect();
        let prev = WideInputs::<2>::zeros(1, 100).unwrap();
        let new = WideInputs::<2>::pack(&vecs).unwrap();
        let res = prog.run(&prev, &new).unwrap();
        let bus = res.bus_waves(nl.output("z")).unwrap();
        assert_eq!(bus.lanes(), 100);
        let sweep = bus.try_sweep(&[0, UnitDelay::UNIT, 10 * UnitDelay::UNIT]).unwrap();
        for lane in [0u32, 63, 64, 99] {
            // Before the gate delay the NOT still shows !prev = true; after
            // settling it shows !new.
            assert!(sweep.lane_bits(0, lane)[0]);
            assert_eq!(sweep.lane_bits(2, lane)[0], lane % 2 != 0);
        }
    }
}
