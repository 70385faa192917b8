//! Lane abstraction for scalar and bit-parallel evaluation.
//!
//! Every wire carries one value of a [`Lane`] type during evaluation.
//! `bool` gives scalar (one-test-vector) evaluation; `u64` evaluates 64
//! independent test vectors in a single pass — the classic bit-parallel
//! ("bit-sliced") circuit-simulation trick, which is what makes exhaustive
//! verification of the 2^16 inputs of a 16-input sorter circuit cheap.

/// A value type a wire can carry: a single bit or a packed vector of bits
/// combined with bitwise operations.
pub trait Lane: Copy + Send + Sync + 'static {
    /// The all-zeros value.
    const ZERO: Self;
    /// The all-ones value (logical TRUE in every lane).
    const ONES: Self;
    /// How many independent test vectors one value of this type carries
    /// (1 for `bool`); telemetry uses this to report lanes processed.
    const LANES: u32;

    /// Bitwise NOT.
    fn not(self) -> Self;
    /// Bitwise AND.
    fn and(self, other: Self) -> Self;
    /// Bitwise OR.
    fn or(self, other: Self) -> Self;
    /// Bitwise XOR.
    fn xor(self, other: Self) -> Self;

    /// Per-lane select: in each lane, yields `a1` where `sel` is 1 and
    /// `a0` where `sel` is 0.
    #[inline]
    fn select(sel: Self, a1: Self, a0: Self) -> Self {
        sel.and(a1).or(sel.not().and(a0))
    }

    /// Broadcast of a boolean constant into every lane.
    #[inline]
    fn splat(b: bool) -> Self {
        if b {
            Self::ONES
        } else {
            Self::ZERO
        }
    }

    /// A value that is TRUE in lane `lane` and FALSE everywhere else.
    /// Used by the fault-injecting evaluator to flip a single test
    /// vector's bit inside a packed pass. `lane` must be `< LANES`.
    fn lane_mask(lane: u32) -> Self;

    /// The boolean carried by lane 0. For `LANES == 1` types this is
    /// the whole value, which lets single-vector dispatch replace mask
    /// arithmetic with direct indexing (see the compiled evaluator's
    /// scalar 4×4-switch fast path).
    fn first_lane(self) -> bool;
}

impl Lane for bool {
    const ZERO: Self = false;
    const ONES: Self = true;
    const LANES: u32 = 1;

    #[inline]
    fn not(self) -> Self {
        !self
    }
    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline]
    fn or(self, other: Self) -> Self {
        self | other
    }
    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline]
    fn lane_mask(lane: u32) -> Self {
        debug_assert!(lane == 0, "bool carries a single lane");
        true
    }
    #[inline]
    fn first_lane(self) -> bool {
        self
    }
}

impl Lane for u64 {
    const ZERO: Self = 0;
    const ONES: Self = u64::MAX;
    const LANES: u32 = 64;

    #[inline]
    fn not(self) -> Self {
        !self
    }
    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline]
    fn or(self, other: Self) -> Self {
        self | other
    }
    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline]
    fn lane_mask(lane: u32) -> Self {
        1u64 << lane
    }
    #[inline]
    fn first_lane(self) -> bool {
        self & 1 == 1
    }
}

/// Wide lanes: `N` packed 64-lane words evaluated per pass (`[u64; 4]`
/// carries 256 test vectors). Word `k` holds lanes `64k .. 64k+64`.
///
/// Wide walks amortize tape decode, dispatch, and bounds checks over
/// `64 * N` vectors, but multiply the working buffer by `N` — which is
/// why they pay off on the compiled engine (whose register-allocated
/// slot buffer stays cache-resident even at `N = 4`) and not on the
/// interpreter (whose full-width wire buffer already spills L1 at
/// `N = 1`).
impl<const N: usize> Lane for [u64; N] {
    const ZERO: Self = [0; N];
    const ONES: Self = [u64::MAX; N];
    #[allow(clippy::cast_possible_truncation)]
    const LANES: u32 = 64 * N as u32;

    #[inline]
    fn not(self) -> Self {
        let mut r = self;
        for x in &mut r {
            *x = !*x;
        }
        r
    }
    #[inline]
    fn and(self, other: Self) -> Self {
        let mut r = self;
        for (x, y) in r.iter_mut().zip(other) {
            *x &= y;
        }
        r
    }
    #[inline]
    fn or(self, other: Self) -> Self {
        let mut r = self;
        for (x, y) in r.iter_mut().zip(other) {
            *x |= y;
        }
        r
    }
    #[inline]
    fn xor(self, other: Self) -> Self {
        let mut r = self;
        for (x, y) in r.iter_mut().zip(other) {
            *x ^= y;
        }
        r
    }
    #[inline]
    fn lane_mask(lane: u32) -> Self {
        let mut r = [0; N];
        r[(lane / 64) as usize] = 1u64 << (lane % 64);
        r
    }
    #[inline]
    fn first_lane(self) -> bool {
        self[0] & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_select() {
        assert!(bool::select(true, true, false));
        assert!(!bool::select(false, true, false));
        assert!(bool::select(false, false, true));
    }

    #[test]
    fn u64_select_is_per_lane() {
        let sel = 0b1010u64;
        let a1 = 0b1100u64;
        let a0 = 0b0011u64;
        // lane 0: sel=0 -> a0 bit 1; lane 1: sel=1 -> a1 bit 0;
        // lane 2: sel=0 -> a0 bit 0; lane 3: sel=1 -> a1 bit 1.
        assert_eq!(u64::select(sel, a1, a0), 0b1001);
    }

    #[test]
    fn splat() {
        assert_eq!(u64::splat(true), u64::MAX);
        assert_eq!(u64::splat(false), 0);
        assert!(bool::splat(true));
    }

    #[test]
    fn wide_lanes_are_per_word() {
        let sel = [0b1010u64, 0];
        let a1 = [0b1100u64, u64::MAX];
        let a0 = [0b0011u64, 0];
        assert_eq!(<[u64; 2]>::select(sel, a1, a0), [0b1001, 0]);
        assert_eq!(<[u64; 2]>::LANES, 128);
        assert_eq!(<[u64; 4]>::splat(true), [u64::MAX; 4]);
        assert_eq!(<[u64; 2]>::lane_mask(70), [0, 1 << 6]);
    }

    mod wide8_props {
        use super::super::*;
        use proptest::prelude::*;
        use rand::prelude::*;

        fn w8(rng: &mut StdRng) -> [u64; 8] {
            std::array::from_fn(|_| rng.gen())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Every `[u64; 8]` op is exactly eight independent `u64`
            /// ops — no word leaks into its neighbours.
            #[test]
            fn ops_match_per_word_u64(seed in any::<u64>()) {
                let mut rng = StdRng::seed_from_u64(seed);
                let (a, b, s) = (w8(&mut rng), w8(&mut rng), w8(&mut rng));
                for i in 0..8 {
                    prop_assert_eq!(a.not()[i], !a[i]);
                    prop_assert_eq!(a.and(b)[i], a[i] & b[i]);
                    prop_assert_eq!(a.or(b)[i], a[i] | b[i]);
                    prop_assert_eq!(a.xor(b)[i], a[i] ^ b[i]);
                    prop_assert_eq!(
                        <[u64; 8]>::select(s, a, b)[i],
                        u64::select(s[i], a[i], b[i])
                    );
                }
            }

            /// `lane_mask` sets exactly one bit, in the right word, and
            /// `first_lane` extracts lane 0 across all 512 lanes.
            #[test]
            fn lane_mask_splat_and_extract(lane in 0u32..512) {
                let m = <[u64; 8]>::lane_mask(lane);
                for (w, &word) in m.iter().enumerate() {
                    let want = if w as u32 == lane / 64 { 1u64 << (lane % 64) } else { 0 };
                    prop_assert_eq!(word, want, "word {} of lane_mask({})", w, lane);
                }
                prop_assert_eq!(m.first_lane(), lane == 0);
                prop_assert_eq!(<[u64; 8]>::splat(true).and(m), m);
                prop_assert_eq!(<[u64; 8]>::splat(false).or(m), m);
                prop_assert_eq!(<[u64; 8]>::LANES, 512);
            }

            /// Select against splatted constants degenerates to the
            /// operands — the identity the compiled mux fast path relies
            /// on, checked at full width.
            #[test]
            fn select_against_splats(seed in any::<u64>()) {
                let mut rng = StdRng::seed_from_u64(seed);
                let (a, b) = (w8(&mut rng), w8(&mut rng));
                prop_assert_eq!(<[u64; 8]>::select(<[u64; 8]>::splat(true), a, b), a);
                prop_assert_eq!(<[u64; 8]>::select(<[u64; 8]>::splat(false), a, b), b);
                prop_assert_eq!(a.xor(a), <[u64; 8]>::ZERO);
                prop_assert_eq!(a.xor(a.not()), <[u64; 8]>::ONES);
            }
        }
    }
}
