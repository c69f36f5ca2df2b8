//! Lane words of arbitrary width: the abstraction that lets the batch
//! engine run 64, 256, or 512 input vectors per pass.
//!
//! The original engine hard-coded `u64` lane words (64 lanes). Everything
//! the engine does with a word is a handful of bitwise primitives, so the
//! engine is generic over [`LaneWord`] and the word width is a type
//! parameter: `u64` is the 64-lane word (the `W = 1` case in spirit and
//! in codegen, and the word every group of 64 samples or fewer runs on),
//! and [`LaneBlock<W>`] packs `W`
//! `u64` words into one `64·W`-lane block — `LaneBlock<4>` is 256 lanes,
//! `LaneBlock<8>` is 512. Wider blocks amortize the per-step bookkeeping
//! (merge cursors, step allocation, time comparisons) over more lanes; the
//! per-lane cost of a sweep drops accordingly (EXPERIMENTS.md's
//! "Wide-lane batch engine" table).

/// A fixed-width word of simulation lanes: bit `l` belongs to lane `l`.
///
/// Implementations are plain bit vectors — `u64` (64 lanes) and [`LaneBlock<W>`] (`64·W` lanes). The engine only ever
/// needs these bitwise primitives, so waveforms, fault sets, inputs, and
/// results are all generic over the word type.
pub trait LaneWord:
    Copy + Clone + PartialEq + Eq + std::fmt::Debug + Default + Send + Sync + 'static
{
    /// Number of lanes this word carries.
    const LANES: u32;
    /// The all-zeros word.
    const ZERO: Self;
    /// The all-ones word.
    const ONES: Self;

    /// Bitwise AND.
    #[must_use]
    fn and(self, o: Self) -> Self;
    /// Bitwise OR.
    #[must_use]
    fn or(self, o: Self) -> Self;
    /// Bitwise XOR.
    #[must_use]
    fn xor(self, o: Self) -> Self;
    /// Bitwise NOT.
    #[must_use]
    fn not(self) -> Self;

    /// The word with only `lane`'s bit set.
    #[must_use]
    fn lane_bit(lane: u32) -> Self;
    /// The bit of `lane`.
    #[must_use]
    fn bit(self, lane: u32) -> bool;
    /// The word with the low `lanes` bits set (the active-lane mask).
    #[must_use]
    fn active_mask(lanes: u32) -> Self;
    /// Number of set bits.
    #[must_use]
    fn count_ones(self) -> u32;
    /// Calls `f` with the index of every set bit, in ascending order.
    fn for_each_lane(self, f: impl FnMut(u32));

    /// The all-zeros or all-ones word.
    #[must_use]
    fn splat(v: bool) -> Self {
        if v {
            Self::ONES
        } else {
            Self::ZERO
        }
    }
    /// True if no bit is set.
    #[must_use]
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }
}

impl LaneWord for u64 {
    const LANES: u32 = 64;
    const ZERO: Self = 0;
    const ONES: Self = u64::MAX;

    fn and(self, o: Self) -> Self {
        self & o
    }
    fn or(self, o: Self) -> Self {
        self | o
    }
    fn xor(self, o: Self) -> Self {
        self ^ o
    }
    fn not(self) -> Self {
        !self
    }
    fn lane_bit(lane: u32) -> Self {
        1u64 << lane
    }
    fn bit(self, lane: u32) -> bool {
        self >> lane & 1 == 1
    }
    fn active_mask(lanes: u32) -> Self {
        if lanes >= 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        }
    }
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }
    fn for_each_lane(self, mut f: impl FnMut(u32)) {
        let mut w = self;
        while w != 0 {
            f(w.trailing_zeros());
            w &= w - 1;
        }
    }
}

/// A block of `W` lane words: `64·W` simulation lanes evaluated per pass.
///
/// Lane `l` lives in word `l / 64`, bit `l % 64`. `LaneBlock<4>` carries
/// 256 lanes, `LaneBlock<8>` carries 512. Wider blocks spread the engine's
/// per-step bookkeeping over more lanes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LaneBlock<const W: usize>(pub [u64; W]);

impl<const W: usize> Default for LaneBlock<W> {
    fn default() -> Self {
        LaneBlock([0; W])
    }
}

impl<const W: usize> LaneWord for LaneBlock<W> {
    const LANES: u32 = 64 * W as u32;
    const ZERO: Self = LaneBlock([0; W]);
    const ONES: Self = LaneBlock([u64::MAX; W]);

    fn and(self, o: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(o.0) {
            *a &= b;
        }
        LaneBlock(r)
    }
    fn or(self, o: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(o.0) {
            *a |= b;
        }
        LaneBlock(r)
    }
    fn xor(self, o: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(o.0) {
            *a ^= b;
        }
        LaneBlock(r)
    }
    fn not(self) -> Self {
        let mut r = self.0;
        for a in &mut r {
            *a = !*a;
        }
        LaneBlock(r)
    }
    fn lane_bit(lane: u32) -> Self {
        let mut r = [0u64; W];
        r[lane as usize / 64] = 1u64 << (lane % 64);
        LaneBlock(r)
    }
    fn bit(self, lane: u32) -> bool {
        self.0[lane as usize / 64] >> (lane % 64) & 1 == 1
    }
    fn active_mask(lanes: u32) -> Self {
        let mut r = [0u64; W];
        for (i, w) in r.iter_mut().enumerate() {
            let lo = i as u32 * 64;
            *w = if lanes >= lo + 64 {
                u64::MAX
            } else if lanes > lo {
                (1u64 << (lanes - lo)) - 1
            } else {
                0
            };
        }
        LaneBlock(r)
    }
    fn count_ones(self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }
    fn for_each_lane(self, mut f: impl FnMut(u32)) {
        for (i, &word) in self.0.iter().enumerate() {
            let base = i as u32 * 64;
            let mut w = word;
            while w != 0 {
                f(base + w.trailing_zeros());
                w &= w - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_word<B: LaneWord>() {
        assert!(B::ZERO.is_zero());
        assert!(!B::ONES.is_zero());
        assert_eq!(B::ONES.count_ones(), B::LANES);
        assert_eq!(B::splat(true), B::ONES);
        assert_eq!(B::splat(false), B::ZERO);
        assert_eq!(B::active_mask(0), B::ZERO);
        assert_eq!(B::active_mask(B::LANES), B::ONES);
        for lane in [0, 1, B::LANES / 2, B::LANES - 1] {
            let b = B::lane_bit(lane);
            assert_eq!(b.count_ones(), 1, "lane {lane}");
            assert!(b.bit(lane));
            assert!(b.and(B::ONES) == b && b.or(B::ZERO) == b);
            assert!(b.xor(b).is_zero());
            assert!(!b.not().bit(lane));
            let mask = B::active_mask(lane + 1);
            assert!(mask.bit(lane));
            assert_eq!(mask.count_ones(), lane + 1);
            let mut seen = Vec::new();
            mask.for_each_lane(|l| seen.push(l));
            assert_eq!(seen, (0..=lane).collect::<Vec<_>>());
        }
    }

    #[test]
    fn u64_word_primitives() {
        check_word::<u64>();
    }

    #[test]
    fn lane_block_primitives() {
        check_word::<LaneBlock<2>>();
        check_word::<LaneBlock<4>>();
        check_word::<LaneBlock<8>>();
    }

    #[test]
    fn block_masks_straddle_word_boundaries() {
        let m = <LaneBlock<2> as LaneWord>::active_mask(65);
        assert_eq!(m.0, [u64::MAX, 1]);
        let b = <LaneBlock<2> as LaneWord>::lane_bit(64);
        assert_eq!(b.0, [0, 1]);
        assert!(b.bit(64));
        assert!(!b.bit(63));
    }
}
