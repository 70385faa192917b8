//! A flat open-addressed index from a 64-bit tag to an op index, CSE's
//! table of first occurrences (DESIGN.md §3.7, "Compile cost").
//!
//! The table is sized once, to the next power of two at least twice the
//! entry count, so it never grows and probe runs stay short. The home
//! slot is the top bits of the tag times a 64-bit odd constant
//! (Fibonacci hashing); probing is linear. Only the tag is stored: when
//! a tag can stand for more than one key, the caller confirms equality
//! against the op it gets back.

use crate::ir::ValId;

/// The one-word key of an operand pair, `a` in the low half.
pub(crate) fn pair(a: ValId, b: ValId) -> u64 {
    u64::from(a) | u64::from(b) << 32
}

/// Slot marker for "no entry".
const EMPTY: u32 = u32::MAX;

/// `⌊2^64 / φ⌋`, odd: spreads every tag bit into the top bits.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// See the module docs.
pub(crate) struct OpIndex {
    slots: Vec<(u64, u32)>,
    shift: u32,
}

impl OpIndex {
    /// An empty index for up to `entries` inserts.
    pub(crate) fn with_capacity(entries: usize) -> OpIndex {
        let cap = (2 * entries).next_power_of_two().max(2);
        OpIndex {
            slots: vec![(0, EMPTY); cap],
            shift: 64 - cap.trailing_zeros(),
        }
    }

    /// The first op under `tag` that `eq` accepts; otherwise inserts
    /// `op` under `tag` and returns `None`.
    pub(crate) fn find_or_insert(
        &mut self,
        tag: u64,
        op: u32,
        mut eq: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut at = (tag.wrapping_mul(GOLDEN) >> self.shift) as usize;
        loop {
            match self.slots[at] {
                (_, EMPTY) => {
                    self.slots[at] = (tag, op);
                    return None;
                }
                (t, o) if t == tag && eq(o) => return Some(o),
                _ => at = (at + 1) & mask,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_first_op_per_key_under_shared_tags() {
        // Every key gets the same tag, so each lookup walks the probe
        // run and `eq` alone tells the keys apart.
        let keys = [5u32, 9, 5, 7, 9, 5];
        let mut index = OpIndex::with_capacity(keys.len());
        let found: Vec<_> = (0..keys.len() as u32)
            .map(|op| index.find_or_insert(42, op, |o| keys[o as usize] == keys[op as usize]))
            .collect();
        assert_eq!(found, [None, None, Some(0), None, Some(1), Some(0)]);
        assert_eq!(
            index.find_or_insert(42, 6, |o| keys[o as usize] == 7),
            Some(3)
        );
        // A miss inserts: a new key under the shared tag, then a new tag.
        assert_eq!(index.find_or_insert(42, 6, |_| false), None);
        assert_eq!(index.find_or_insert(43, 7, |_| true), None);
        assert_eq!(index.find_or_insert(43, 8, |o| o == 7), Some(7));
    }
}
