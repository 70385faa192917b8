//! Network 2: the mux-merger binary sorter (paper Section III.B, Fig. 6,
//! Table I).
//!
//! The sorter recursively bisorts its input with two half-size sorters and
//! merges with a *mux-merger*. Theorem 3 says a bisorted sequence cut into
//! quarters has at least two clean quarters, the other two concatenating
//! to a bisorted sequence — and which-is-which is decided by the two
//! "middle bits": the topmost elements of quarters 2 and 4. The
//! mux-merger uses those two data bits as select inputs of an IN-SWAP
//! four-way swapper (bringing the bisorted pair to the middle two
//! quarters and the clean quarters outside), recurses on the middle half,
//! and restores order with an OUT-SWAP four-way swapper.
//!
//! Paper bounds: merger cost `C_m(n) = 4n`, merger depth `2 lg n`;
//! sorter cost `C(n) = 4 n lg n`, sorter depth `Σ_i 2 lg(n/2^i) = Θ(lg² n)`.
//!
//! ## Table I as implemented
//!
//! With select `(s1, s2)` = (top of Xq2, top of Xq4), writing quarter
//! permutations as output-position ← input-quarter maps:
//!
//! | sel | pattern (Thm. 3) | IN-SWAP | OUT-SWAP |
//! |-----|------------------|---------|----------|
//! | 00 | Xq1, Xq3 all 0; Xq2·Xq4 bisorted | `[0,1,3,2]` | `[0,3,1,2]` |
//! | 01 | Xq1 all 0, Xq4 all 1; Xq2·Xq3 bisorted | identity | identity |
//! | 10 | Xq2 all 1, Xq3 all 0; Xq1·Xq4 bisorted | `[2,0,3,1]` | identity |
//! | 11 | Xq2, Xq4 all 1; Xq1·Xq3 bisorted | `[1,0,2,3]` | `[1,2,0,3]` |
//!
//! (The printed table's cycle notation is partially illegible in the
//! archival scan; the table above is *derived from Theorem 3* — clean-0
//! quarters to the top, the bisorted pair to the middle, clean-1 quarters
//! to the bottom — and verified exhaustively over every bisorted input in
//! `table::verify_table1`, which is the behaviour Table I specifies.)

use crate::lang;
use crate::packet::{self, Keyed};
use absort_blocks::swap::{four_way_swapper, QuarterPerm};
use absort_circuit::{assert_pow2, Builder, Circuit, Wire};

/// IN-SWAP quarter permutations, indexed by select value `2·s1 + s2`.
pub const IN_SWAP: [QuarterPerm; 4] = [
    [0, 1, 3, 2], // 00: pair (q2,q4) to middle, q1 top, q3 bottom
    [0, 1, 2, 3], // 01: already [clean0, pair, pair, clean1]
    [2, 0, 3, 1], // 10: q3 (0s) top, pair (q1,q4) middle, q2 (1s) bottom
    [1, 0, 2, 3], // 11: q2 (1s) rides top, pair (q1,q3) middle, q4 bottom
];

/// OUT-SWAP quarter permutations, indexed like [`IN_SWAP`].
pub const OUT_SWAP: [QuarterPerm; 4] = [
    [0, 3, 1, 2], // 00: clean 0s from position 4 back up to position 2
    [0, 1, 2, 3], // 01: already sorted
    [0, 1, 2, 3], // 10: already sorted
    [1, 2, 0, 3], // 11: clean 1s from position 1 down to position 3
];

/// Builds the n-input mux-merger circuit: merges a *bisorted* input into
/// sorted order. (Fig. 6's dashed rectangle.) Cost `4n − 7` ≈ paper's
/// `4n`, depth `2 lg n − 1` ≈ paper's `2 lg n`.
pub fn build_merger(n: usize) -> Circuit {
    assert_pow2(n, "mux-merger");
    let _tel = absort_telemetry::span("build");
    let mut b = Builder::new();
    let ins = b.input_bus(n);
    let outs = b.scoped("mux_merger", |b| merger(b, &ins));
    b.outputs(&outs);
    b.finish()
}

/// Builds the full n-input mux-merger binary sorter (Fig. 6).
///
/// ```
/// use absort_core::{lang, muxmerge};
///
/// let circuit = muxmerge::build(16);
/// let input = lang::bits("0110_1001_1100_0011");
/// assert_eq!(circuit.eval(&input), lang::sorted_oracle(&input));
/// // the exact 4n lg n − Θ(n) recurrence, verified bit-for-bit:
/// assert_eq!(circuit.cost().total, muxmerge::formulas::sorter_cost_exact(16));
/// ```
pub fn build(n: usize) -> Circuit {
    assert_pow2(n, "mux-merger sorter");
    let _tel = absort_telemetry::span("build");
    let mut b = Builder::new();
    let ins = b.input_bus(n);
    let outs = b.scoped("muxmerge_sorter", |b| sorter(b, &ins));
    b.outputs(&outs);
    b.finish()
}

/// In-builder sorter: embeds the mux-merger sorter into a larger
/// construction (used by the fish-merger circuits and ablations).
pub fn sorter_wires(b: &mut Builder, xs: &[Wire]) -> Vec<Wire> {
    sorter(b, xs)
}

/// In-builder merger: embeds the (bisorted-input) mux-merger.
pub fn merger_wires(b: &mut Builder, xs: &[Wire]) -> Vec<Wire> {
    merger(b, xs)
}

fn sorter(b: &mut Builder, xs: &[Wire]) -> Vec<Wire> {
    let m = xs.len();
    if m == 1 {
        return xs.to_vec();
    }
    if m == 2 {
        let (lo, hi) = b.bit_compare(xs[0], xs[1]);
        return vec![lo, hi];
    }
    let u = b.scoped("upper", |b| sorter(b, &xs[..m / 2]));
    let l = b.scoped("lower", |b| sorter(b, &xs[m / 2..]));
    let mut cat = u;
    cat.extend_from_slice(&l);
    b.scoped("merger", |b| merger(b, &cat))
}

/// The recursive mux-merger on a bisorted wire bundle.
fn merger(b: &mut Builder, xs: &[Wire]) -> Vec<Wire> {
    let m = xs.len();
    if m == 1 {
        return xs.to_vec();
    }
    if m == 2 {
        // A bisorted 2-sequence is arbitrary; one comparator merges it.
        let (lo, hi) = b.bit_compare(xs[0], xs[1]);
        return vec![lo, hi];
    }
    let q = m / 4;
    // Select inputs: the data bits at the top of quarters 2 and 4.
    let s1 = xs[q];
    let s2 = xs[3 * q];
    let inward = four_way_swapper(b, s1, s2, xs, IN_SWAP);
    let merged_mid = b.scoped("level", |b| merger(b, &inward[q..3 * q]));
    let mut joined = inward[..q].to_vec();
    joined.extend_from_slice(&merged_mid);
    joined.extend_from_slice(&inward[3 * q..]);
    four_way_swapper(b, s1, s2, &joined, OUT_SWAP)
}

/// Functional mirror of the mux-merger on a bisorted sequence, asserting
/// Theorem 3's structure along the way (debug builds). Generic over
/// [`Keyed`] line values so payloads are carried exactly as the network
/// moves its lines.
pub fn merge<P: Keyed>(x: &[P]) -> Vec<P> {
    assert_pow2(x.len(), "mux-merge (functional)");
    assert!(
        lang::is_bisorted(&packet::keys(x)),
        "mux-merger input must be bisorted"
    );
    merge_rec(x)
}

/// One level of a recorded mux-merge (for Fig. 6-style traces).
#[derive(Debug, Clone)]
pub struct MergeStep {
    /// Width at this level.
    pub m: usize,
    /// The bisorted input (key bits).
    pub input: Vec<bool>,
    /// The two select bits `(s1, s2)` read from the quarter tops.
    pub selects: (bool, bool),
    /// After the IN-SWAP.
    pub after_in_swap: Vec<bool>,
    /// This level's merged output.
    pub output: Vec<bool>,
}

/// [`merge`] with a per-level trace (outermost level first).
pub fn merge_traced(x: &[bool]) -> (Vec<bool>, Vec<MergeStep>) {
    assert_pow2(x.len(), "mux-merge (traced)");
    assert!(lang::is_bisorted(x), "mux-merger input must be bisorted");
    let mut steps = Vec::new();
    let out = merge_traced_rec(x, &mut steps);
    (out, steps)
}

fn merge_traced_rec(x: &[bool], steps: &mut Vec<MergeStep>) -> Vec<bool> {
    let m = x.len();
    if m <= 2 {
        return merge_rec(x);
    }
    let q = m / 4;
    let sel = (usize::from(x[q]) << 1) | usize::from(x[3 * q]);
    let inward = apply_quarters(x, IN_SWAP[sel]);
    let mid = merge_traced_rec(&inward[q..3 * q], steps);
    let mut joined = inward[..q].to_vec();
    joined.extend_from_slice(&mid);
    joined.extend_from_slice(&inward[3 * q..]);
    let out = apply_quarters(&joined, OUT_SWAP[sel]);
    steps.insert(
        0,
        MergeStep {
            m,
            input: x.to_vec(),
            selects: (x[q], x[3 * q]),
            after_in_swap: inward,
            output: out.clone(),
        },
    );
    out
}

fn merge_rec<P: Keyed>(x: &[P]) -> Vec<P> {
    let m = x.len();
    if m == 1 {
        return x.to_vec();
    }
    if m == 2 {
        let (lo, hi) = packet::compare_exchange(x[0].clone(), x[1].clone());
        return vec![lo, hi];
    }
    let q = m / 4;
    let sel = (usize::from(x[q].key()) << 1) | usize::from(x[3 * q].key());
    let inward = apply_quarters(x, IN_SWAP[sel]);
    #[cfg(debug_assertions)]
    {
        let ks = packet::keys(&inward);
        debug_assert!(
            lang::is_bisorted(&ks[q..3 * q]),
            "middle half must be bisorted (Theorem 3)"
        );
        debug_assert!(lang::is_clean(&ks[..q]), "top quarter must be clean");
        debug_assert!(lang::is_clean(&ks[3 * q..]), "bottom quarter must be clean");
    }
    let mid = merge_rec(&inward[q..3 * q]);
    let mut joined = inward[..q].to_vec();
    joined.extend_from_slice(&mid);
    joined.extend_from_slice(&inward[3 * q..]);
    apply_quarters(&joined, OUT_SWAP[sel])
}

/// Functional mux-merger sorter, generic over [`Keyed`] line values.
pub fn sort<P: Keyed>(items: &[P]) -> Vec<P> {
    assert_pow2(items.len(), "mux-merger sorter (functional)");
    let m = items.len();
    if m == 1 {
        return items.to_vec();
    }
    if m == 2 {
        let (lo, hi) = packet::compare_exchange(items[0].clone(), items[1].clone());
        return vec![lo, hi];
    }
    let mut cat = sort(&items[..m / 2]);
    cat.extend(sort(&items[m / 2..]));
    merge_rec(&cat)
}

/// Applies a quarter permutation (output quarter `p` ← input quarter
/// `perm[p]`) to a sequence.
pub fn apply_quarters<P: Clone>(x: &[P], perm: QuarterPerm) -> Vec<P> {
    let q = x.len() / 4;
    let mut out = Vec::with_capacity(x.len());
    for p in perm {
        out.extend_from_slice(&x[p as usize * q..(p as usize + 1) * q]);
    }
    out
}

/// Paper closed forms for Network 2.
pub mod formulas {
    /// Merger cost: the paper's `C_m(n) = 4n`; our construction is exact:
    /// `C_m(n) = 2n + 2(n/2) + … + 2·4 + 1 = 4n − 7` for `n ≥ 4`.
    pub fn merger_cost_exact(n: usize) -> u64 {
        assert!(n.is_power_of_two());
        match n {
            1 => 0,
            2 => 1,
            _ => 2 * n as u64 + merger_cost_exact(n / 2),
        }
    }

    /// Sorter cost recurrence `C(n) = 2 C(n/2) + C_m(n)`, `C(2) = 1` —
    /// `Θ(4 n lg n)` with the exact value returned.
    pub fn sorter_cost_exact(n: usize) -> u64 {
        assert!(n.is_power_of_two());
        match n {
            1 => 0,
            2 => 1,
            _ => 2 * sorter_cost_exact(n / 2) + merger_cost_exact(n),
        }
    }

    /// The paper's dominant sorter cost term, `4 n lg n`.
    pub fn paper_cost_dominant(n: usize) -> u64 {
        assert!(n.is_power_of_two());
        4 * n as u64 * n.trailing_zeros() as u64
    }

    /// Merger depth: `D_m(n) = 2 + D_m(n/2)`, `D_m(2) = 1` ⇒ `2 lg n − 1`.
    pub fn merger_depth_exact(n: usize) -> u64 {
        assert!(n.is_power_of_two());
        match n {
            1 => 0,
            2 => 1,
            _ => 2 * n.trailing_zeros() as u64 - 1,
        }
    }

    /// Sorter depth recurrence `D(n) = D(n/2) + D_m(n)` ⇒ `Θ(lg² n)`
    /// (the journal text prints `D(n) = 2 lg n` here, but its own Section
    /// III.C uses `2 lg² k` for the k-input mux-merger sorter, consistent
    /// with this recurrence).
    pub fn sorter_depth_exact(n: usize) -> u64 {
        assert!(n.is_power_of_two());
        match n {
            1 => 0,
            2 => 1,
            _ => sorter_depth_exact(n / 2) + merger_depth_exact(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{all_bisorted, all_sequences, sorted_oracle};
    use rand::prelude::*;

    #[test]
    fn merge_all_bisorted_to_24_functional() {
        for n in [4usize, 8, 16] {
            for x in all_bisorted(n) {
                assert_eq!(merge(&x), sorted_oracle(&x), "n={n}");
            }
        }
    }

    #[test]
    fn merger_circuit_exhaustive_over_bisorted() {
        for n in [4usize, 8, 16, 32] {
            let c = build_merger(n);
            for x in all_bisorted(n) {
                assert_eq!(c.eval(&x), sorted_oracle(&x), "n={n}");
            }
        }
    }

    #[test]
    fn sorter_circuit_exhaustive_to_16() {
        for k in 1..=4usize {
            let n = 1 << k;
            let c = build(n);
            for s in all_sequences(n) {
                assert_eq!(c.eval(&s), sorted_oracle(&s), "n={n}");
            }
        }
    }

    #[test]
    fn functional_sorter_matches_oracle_large_random() {
        let mut rng = StdRng::seed_from_u64(9);
        for k in [6usize, 10, 14] {
            let n = 1 << k;
            for _ in 0..10 {
                let s: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
                assert_eq!(sort(&s), sorted_oracle(&s), "n={n}");
            }
        }
    }

    #[test]
    fn circuit_and_functional_agree() {
        let n = 64;
        let c = build(n);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let s: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            assert_eq!(c.eval(&s), sort(&s));
        }
    }

    #[test]
    fn merger_cost_matches_4n() {
        for k in 2..=10u32 {
            let n = 1usize << k;
            let c = build_merger(n);
            assert_eq!(c.cost().total, formulas::merger_cost_exact(n), "n={n}");
            assert_eq!(formulas::merger_cost_exact(n), 4 * n as u64 - 7, "n={n}");
        }
    }

    #[test]
    fn merger_depth_matches_2lgn() {
        for k in 2..=10u32 {
            let n = 1usize << k;
            let c = build_merger(n);
            assert_eq!(c.depth() as u64, formulas::merger_depth_exact(n), "n={n}");
        }
    }

    #[test]
    fn sorter_cost_matches_recurrence_and_dominant_term() {
        for k in 1..=10u32 {
            let n = 1usize << k;
            let c = build(n);
            let cost = c.cost().total;
            assert_eq!(cost, formulas::sorter_cost_exact(n), "n={n}");
            let dominant = formulas::paper_cost_dominant(n);
            assert!(cost <= dominant, "n={n}: exact {cost} must be ≤ 4n lg n");
            assert!(
                n < 8 || cost >= dominant - 8 * n as u64,
                "n={n}: exact {cost} too far below 4n lg n = {dominant}"
            );
        }
    }

    #[test]
    fn sorter_depth_matches_recurrence() {
        for k in 1..=10u32 {
            let n = 1usize << k;
            assert_eq!(
                build(n).depth() as u64,
                formulas::sorter_depth_exact(n),
                "n={n}"
            );
        }
    }

    #[test]
    fn merge_traced_matches_untraced_and_records_levels() {
        use crate::lang::bits;
        let x = bits("0000011100111111"); // both halves sorted
        assert!(lang::is_bisorted(&x));
        let (out, steps) = merge_traced(&x);
        assert_eq!(out, merge(&x));
        let ms: Vec<usize> = steps.iter().map(|s| s.m).collect();
        assert_eq!(ms, vec![16, 8, 4]);
        for s in &steps {
            assert_eq!(s.selects.0, s.input[s.m / 4]);
            assert_eq!(s.selects.1, s.input[3 * s.m / 4]);
            assert!(lang::is_sorted(&s.output));
        }
    }

    #[test]
    fn in_swap_permutes_theorem3_cases() {
        // For every bisorted sequence, after IN-SWAP the outer quarters
        // must be clean (0s on top, 1s on bottom) and the middle bisorted.
        for x in all_bisorted(16) {
            let q = 4;
            let sel = (usize::from(x[q]) << 1) | usize::from(x[3 * q]);
            let inw = apply_quarters(&x, IN_SWAP[sel]);
            assert!(lang::is_clean(&inw[..q]), "top quarter clean: {x:?}");
            assert!(lang::is_clean(&inw[3 * q..]), "bottom quarter clean: {x:?}");
            assert!(lang::is_bisorted(&inw[q..3 * q]), "middle bisorted: {x:?}");
            // The clean values respect the final ordering the OUT-SWAP
            // produces: a clean-1 top quarter only occurs for sel = 11 and
            // a clean-0 bottom quarter only for sel = 00 (both repaired by
            // the OUT-SWAP).
            if inw[0] {
                assert_eq!(sel, 0b11, "{x:?}");
            }
            if !inw[3 * q] {
                assert!(sel == 0b00 || x.iter().all(|&b| !b), "{x:?}");
            }
        }
    }
}
