//! The lane-word waveform store.
//!
//! One [`Wave`] is the settling history of one net for an entire lane word
//! of input vectors at once: bit `l` of every word belongs to lane
//! (vector) `l`. A waveform is an initial word plus a strictly
//! time-ordered list of `(time, word)` steps, each step differing from its
//! predecessor — the batch counterpart of the event-driven simulator's
//! per-net `Vec<(u64, bool)>` transition list.
//!
//! The word type is any [`LaneWord`]: `Wave<u64>` (the default) is the
//! 64-lane waveform, `Wave<LaneBlock<W>>` carries `64·W` lanes.

use crate::batch::block::LaneWord;

/// The settling waveform of one net across one lane word of vectors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Wave<B: LaneWord = u64> {
    /// Lane word before `t = 0` (the settled previous-input state).
    pub(crate) initial: B,
    /// Strictly increasing `(time, word)` steps; every word differs from
    /// the one before it.
    pub(crate) steps: Vec<(u64, B)>,
}

impl<B: LaneWord> Wave<B> {
    /// A constant waveform.
    pub(crate) fn constant(word: B) -> Wave<B> {
        Wave { initial: word, steps: Vec::new() }
    }

    /// The lane word before the inputs switched.
    #[must_use]
    pub fn initial(&self) -> B {
        self.initial
    }

    /// The `(time, word)` steps.
    #[must_use]
    pub fn steps(&self) -> &[(u64, B)] {
        &self.steps
    }

    /// The lane word a register clocked `t` time units after the input
    /// switch would capture.
    #[must_use]
    pub fn word_at(&self, t: u64) -> B {
        match self.steps.partition_point(|&(time, _)| time <= t) {
            0 => self.initial,
            k => self.steps[k - 1].1,
        }
    }

    /// The fully settled lane word.
    #[must_use]
    pub fn final_word(&self) -> B {
        self.steps.last().map_or(self.initial, |&(_, w)| w)
    }

    /// Time of the last change in any lane (`None` if the net never
    /// transitions).
    #[must_use]
    pub fn last_change(&self) -> Option<u64> {
        self.steps.last().map(|&(t, _)| t)
    }

    /// Extracts the scalar transition history of one lane, in the
    /// event-driven simulator's `(time, new_value)` format, dropping steps
    /// that do not change this lane's bit.
    #[must_use]
    pub fn lane_waveform(&self, lane: u32) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        let mut cur = self.initial.bit(lane);
        for &(t, w) in &self.steps {
            let bit = w.bit(lane);
            if bit != cur {
                cur = bit;
                out.push((t, bit));
            }
        }
        out
    }

    /// The value of one lane at time `t`.
    #[must_use]
    pub fn lane_value_at(&self, lane: u32, t: u64) -> bool {
        self.word_at(t).bit(lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave() -> Wave {
        Wave { initial: 0b01, steps: vec![(10, 0b11), (20, 0b10), (35, 0b00)] }
    }

    #[test]
    fn word_sampling_uses_last_step_at_or_before_t() {
        let w = wave();
        assert_eq!(w.word_at(0), 0b01);
        assert_eq!(w.word_at(9), 0b01);
        assert_eq!(w.word_at(10), 0b11);
        assert_eq!(w.word_at(34), 0b10);
        assert_eq!(w.word_at(1000), 0b00);
        assert_eq!(w.final_word(), 0b00);
        assert_eq!(w.last_change(), Some(35));
    }

    #[test]
    fn lane_waveform_drops_unchanged_steps() {
        let w = wave();
        // Lane 0: 1 -> 1 -> 0 -> 0: one transition at t=20.
        assert_eq!(w.lane_waveform(0), vec![(20, false)]);
        // Lane 1: 0 -> 1 -> 1 -> 0: up at 10, down at 35.
        assert_eq!(w.lane_waveform(1), vec![(10, true), (35, false)]);
        assert!(w.lane_value_at(1, 10));
        assert!(!w.lane_value_at(1, 9));
    }

    #[test]
    fn constant_wave_never_steps() {
        let w = Wave::constant(0xFF);
        assert_eq!(w.word_at(12345), 0xFF);
        assert_eq!(w.final_word(), 0xFF);
        assert_eq!(w.last_change(), None);
        assert!(w.lane_waveform(3).is_empty());
    }

    #[test]
    fn wide_waves_track_lanes_past_word_boundaries() {
        use crate::batch::block::LaneBlock;
        let hi = |l: u32| <LaneBlock<2> as LaneWord>::lane_bit(l);
        let w = Wave::<LaneBlock<2>> {
            initial: hi(70),
            steps: vec![(5, hi(70).or(hi(3))), (9, hi(3))],
        };
        assert_eq!(w.lane_waveform(70), vec![(9, false)]);
        assert_eq!(w.lane_waveform(3), vec![(5, true)]);
        assert!(w.lane_value_at(70, 0));
        assert!(!w.lane_value_at(70, 9));
        assert_eq!(w.final_word(), hi(3));
    }
}
