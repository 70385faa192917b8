//! Network 1: the prefix binary sorter (paper Section III.A, Fig. 5).
//!
//! A recursive adaptive binary sorter: the two halves are sorted
//! recursively, their shuffled concatenation lands in `A_n` (Theorem 1),
//! and a *patch-up network* sorts it. Each patch-up level applies one
//! balanced comparator stage (after which one half is clean-sorted and
//! the other is in `A_{n/2}`, Theorem 2), uses the count of 1's — computed
//! once per sorter level by prefix adders — to *adaptively* select the
//! unsorted half, channels it to the next level with a two-way swapper,
//! and swaps the result back.
//!
//! Paper bounds: cost `3 n lg n + O(lg² n)` (our constructed circuits add
//! an `O(n)` term for the adder tree, measured by the analysis crate),
//! depth `O(lg² n)`.
//!
//! The select-signal plumbing uses one observation the figure leaves
//! implicit: if the current `A_m` sequence holds `s` ones and the
//! unsorted half is chosen by `s ≥ m/2`, then the unsorted half holds
//! `s mod m/2` ones, *except* that `s = m` maps to `m/2` — and in binary
//! that is exactly the bit vector `[s_0, …, s_{lg m − 2}, s_{lg m}]`. So
//! the count bits are re-wired (zero gates) down the patch-up recursion
//! and each level needs only one OR gate for its select.

use crate::lang;
use crate::packet::{self, Keyed};
use absort_blocks::adder::{add, AdderKind};
use absort_blocks::popcount::ge_half;
use absort_blocks::stages::{balanced_stage, shuffle};
use absort_blocks::swap::two_way_swapper;
use absort_circuit::{assert_pow2, Builder, Circuit, Wire};

/// Builds the n-input prefix binary sorter circuit (`n = 2^k`).
///
/// ```
/// use absort_core::{lang, prefix};
///
/// let circuit = prefix::build(16);
/// let input = lang::bits("1011_0100_0111_0010");
/// assert_eq!(circuit.eval(&input), lang::sorted_oracle(&input));
/// // the dominant 3n lg n cost term (paper §III.A):
/// assert!(circuit.cost().total >= prefix::paper_cost_dominant(16) - 12 * 16);
/// ```
pub fn build(n: usize) -> Circuit {
    build_with_adder(n, AdderKind::Prefix)
}

/// [`build`] with an explicit adder construction — the E16 ablation.
///
/// Measured outcome (see EXPERIMENTS.md): swapping the prefix adders for
/// ripple-carry adders leaves the sorter's depth **unchanged** at every
/// size we build (n ≤ 2¹²) — the count path (`Σ 2 lg m ≈ lg² n` with
/// ripple) stays strictly shorter than the patch-up data path
/// (`Σ 3 lg m ≈ 1.5 lg² n`), so the select signals always arrive early.
/// The prefix adder matters when the count is consumed directly (a
/// standalone rank/population count, as in concentrator rank logic), not
/// for Network 1's critical path; ripple even saves ≈4 gates per counted
/// bit. This is a sharper statement than the paper's, obtained by
/// measuring the built circuits.
pub fn build_with_adder(n: usize, adder: AdderKind) -> Circuit {
    assert_pow2(n, "prefix sorter");
    let _tel = absort_telemetry::span("build");
    let mut b = Builder::new();
    let ins = b.input_bus(n);
    let (outs, _count) = b.scoped("prefix_sorter", |b| sorter(b, adder, &ins));
    b.outputs(&outs);
    b.finish()
}

/// Recursive sorter body: returns the sorted wires and the count of 1's
/// (`lg m + 1` little-endian bits).
fn sorter(b: &mut Builder, adder: AdderKind, xs: &[Wire]) -> (Vec<Wire>, Vec<Wire>) {
    let m = xs.len();
    if m == 1 {
        return (xs.to_vec(), xs.to_vec());
    }
    let (u, cu) = b.scoped("upper", |b| sorter(b, adder, &xs[..m / 2]));
    let (l, cl) = b.scoped("lower", |b| sorter(b, adder, &xs[m / 2..]));
    let count = b.scoped("adder", |b| add(b, adder, &cu, &cl));
    let mut cat = u;
    cat.extend_from_slice(&l);
    let z = shuffle(&cat); // Theorem 1: z ∈ A_m
    let out = b.scoped("patchup", |b| patchup(b, &z, &count));
    (out, count)
}

/// The patch-up network: sorts a wire bundle whose value is guaranteed to
/// lie in `A_m`, given the count of its 1's.
fn patchup(b: &mut Builder, z: &[Wire], count: &[Wire]) -> Vec<Wire> {
    let m = z.len();
    debug_assert_eq!(count.len(), m.trailing_zeros() as usize + 1);
    if m == 1 {
        return z.to_vec();
    }
    if m == 2 {
        // A_2 is every 2-bit sequence; one comparator sorts it (C_p(2)=1).
        let (lo, hi) = b.bit_compare(z[0], z[1]);
        return vec![lo, hi];
    }
    let k = m.trailing_zeros() as usize; // lg m
    let y = balanced_stage(b, z); // Theorem 2
                                  // s >= m/2 ⇒ the lower half is clean (all 1s) and the upper half is
                                  // the unsorted one; swap so the unsorted half sits in the lower slot.
    let sel = ge_half(b, count, m);
    let sw = two_way_swapper(b, sel, &y);
    // Count of 1's in the unsorted half: [s_0..s_{k-2}, s_k] (see module
    // docs) — pure rewiring.
    let mut sub_count: Vec<Wire> = count[..k - 1].to_vec();
    sub_count.push(count[k]);
    let lower_sorted = b.scoped("level", |b| patchup(b, &sw[m / 2..], &sub_count));
    let mut joined = sw[..m / 2].to_vec();
    joined.extend_from_slice(&lower_sorted);
    two_way_swapper(b, sel, &joined)
}

/// Functional mirror of the prefix sorter: sorts via exactly the
/// network's dataflow (recursive half-sorts, shuffle, balanced stages,
/// count-driven swaps), asserting Theorems 1–2 along the way in debug
/// builds. Generic over [`Keyed`] line values (payloads travel with their
/// key bits). `O(n lg n)` time; usable far beyond circuit-buildable
/// sizes.
pub fn sort<P: Keyed>(items: &[P]) -> Vec<P> {
    assert_pow2(items.len(), "prefix sorter (functional)");
    sort_rec(items)
}

fn shuffle_packets<P: Clone>(s: &[P]) -> Vec<P> {
    let n = s.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n / 2 {
        out.push(s[i].clone());
        out.push(s[n / 2 + i].clone());
    }
    out
}

fn sort_rec<P: Keyed>(items: &[P]) -> Vec<P> {
    let m = items.len();
    if m == 1 {
        return items.to_vec();
    }
    let u = sort_rec(&items[..m / 2]);
    let l = sort_rec(&items[m / 2..]);
    let mut cat = u;
    cat.extend_from_slice(&l);
    let z = shuffle_packets(&cat);
    debug_assert!(lang::in_a_n(&packet::keys(&z)), "Theorem 1 violated");
    let ones = z.iter().filter(|p| p.key()).count();
    patchup_fn(&z, ones)
}

fn patchup_fn<P: Keyed>(z: &[P], ones: usize) -> Vec<P> {
    let m = z.len();
    debug_assert_eq!(ones, z.iter().filter(|p| p.key()).count());
    if m == 1 {
        return z.to_vec();
    }
    if m == 2 {
        let (lo, hi) = packet::compare_exchange(z[0].clone(), z[1].clone());
        return vec![lo, hi];
    }
    debug_assert!(
        lang::in_a_n(&packet::keys(z)),
        "patch-up input must be in A_m"
    );
    let mut y = z.to_vec();
    for i in 0..m / 2 {
        let (lo, hi) = packet::compare_exchange(y[i].clone(), y[m - 1 - i].clone());
        y[i] = lo;
        y[m - 1 - i] = hi;
    }
    let sel = ones >= m / 2;
    if sel {
        debug_assert!(
            y[m / 2..].iter().all(|p| p.key()),
            "lower half must be clean 1s"
        );
        y.rotate_left(m / 2); // two-way swap: exchange halves
    } else {
        debug_assert!(
            y[..m / 2].iter().all(|p| !p.key()),
            "upper half must be clean 0s"
        );
    }
    debug_assert!(
        lang::in_a_n(&packet::keys(&y[m / 2..])),
        "Theorem 2 violated"
    );
    let sub_ones = if sel { ones - m / 2 } else { ones };
    let lower = patchup_fn(&y[m / 2..], sub_ones);
    let mut out = y[..m / 2].to_vec();
    out.extend_from_slice(&lower);
    if sel {
        out.rotate_left(m / 2);
    }
    out
}

/// One recorded patch-up step (for Fig. 5-style traces).
#[derive(Debug, Clone)]
pub struct PatchupStep {
    /// Width of this patch-up level.
    pub m: usize,
    /// The `A_m` sequence entering the level.
    pub input: Vec<bool>,
    /// Ones count at this level.
    pub ones: usize,
    /// The level's select signal (`ones >= m/2`).
    pub select: bool,
    /// After the balanced comparator stage.
    pub after_compare: Vec<bool>,
    /// The level's sorted output.
    pub output: Vec<bool>,
}

/// A full trace of the top-level merge of the prefix sorter: the sorted
/// halves, their shuffled concatenation, the prefix-adder count, and
/// every patch-up level.
#[derive(Debug, Clone, Default)]
pub struct PrefixTrace {
    /// The recursively sorted upper half.
    pub upper_sorted: Vec<bool>,
    /// The recursively sorted lower half.
    pub lower_sorted: Vec<bool>,
    /// The shuffled concatenation (in `A_n` by Theorem 1).
    pub shuffled: Vec<bool>,
    /// Total count of 1's (the prefix adder's output).
    pub ones: usize,
    /// The patch-up levels, outermost first.
    pub levels: Vec<PatchupStep>,
}

/// Sorts and records a Fig. 5-style trace of the *top-level* merge
/// (recursive sub-sorts are performed silently; the interesting adaptive
/// behaviour is per level).
pub fn sort_traced(bits: &[bool]) -> (Vec<bool>, PrefixTrace) {
    assert_pow2(bits.len(), "prefix sorter (traced)");
    let n = bits.len();
    let mut trace = PrefixTrace::default();
    if n == 1 {
        return (bits.to_vec(), trace);
    }
    trace.upper_sorted = sort_rec(&bits[..n / 2]);
    trace.lower_sorted = sort_rec(&bits[n / 2..]);
    let mut cat = trace.upper_sorted.clone();
    cat.extend_from_slice(&trace.lower_sorted);
    trace.shuffled = lang::shuffle(&cat);
    trace.ones = trace.shuffled.iter().filter(|&&b| b).count();
    let out = patchup_traced(&trace.shuffled, trace.ones, &mut trace.levels);
    (out, trace)
}

fn patchup_traced(z: &[bool], ones: usize, steps: &mut Vec<PatchupStep>) -> Vec<bool> {
    let m = z.len();
    if m <= 2 {
        return patchup_fn(z, ones);
    }
    let mut y = lang::balanced_stage(z);
    let sel = ones >= m / 2;
    let after_compare = y.clone();
    if sel {
        y.rotate_left(m / 2);
    }
    let sub_ones = if sel { ones - m / 2 } else { ones };
    let lower = patchup_traced(&y[m / 2..], sub_ones, steps);
    let mut out = y[..m / 2].to_vec();
    out.extend_from_slice(&lower);
    if sel {
        out.rotate_left(m / 2);
    }
    steps.insert(
        0,
        PatchupStep {
            m,
            input: z.to_vec(),
            ones,
            select: sel,
            after_compare,
            output: out.clone(),
        },
    );
    out
}

/// The paper's closed-form *dominant* cost term for Network 1:
/// `3 n lg n` (plus lower-order terms it writes as `O(lg² n)`; our
/// constructed circuit's lower-order term is `Θ(n)` from the adder tree —
/// see EXPERIMENTS.md E5).
pub fn paper_cost_dominant(n: usize) -> u64 {
    assert!(n.is_power_of_two());
    3 * n as u64 * n.trailing_zeros() as u64
}

/// The paper's closed-form depth bound for Network 1:
/// `3 lg² n + 2 lg n lg lg n`.
pub fn paper_depth_bound(n: usize) -> u64 {
    assert!(n.is_power_of_two());
    let k = n.trailing_zeros() as u64;
    let lglg = if k <= 1 {
        0
    } else {
        (64 - (k - 1).leading_zeros()) as u64
    };
    3 * k * k + 2 * k * lglg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{all_sequences, sorted_oracle};
    use rand::prelude::*;

    #[test]
    fn functional_sorts_exhaustively_to_256() {
        for k in 0..=8usize {
            let n = 1 << k;
            if n <= 16 {
                for s in all_sequences(n) {
                    assert_eq!(sort(&s), sorted_oracle(&s));
                }
            }
        }
    }

    #[test]
    fn functional_sorts_random_large() {
        let mut rng = StdRng::seed_from_u64(1);
        for k in [8usize, 10, 14, 16] {
            let n = 1 << k;
            for _ in 0..5 {
                let s: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
                assert_eq!(sort(&s), sorted_oracle(&s), "n={n}");
            }
        }
    }

    #[test]
    fn circuit_sorts_exhaustively_to_16() {
        for k in 1..=4usize {
            let n = 1 << k;
            let c = build(n);
            for s in all_sequences(n) {
                assert_eq!(c.eval(&s), sorted_oracle(&s), "n={n}");
            }
        }
    }

    #[test]
    fn circuit_matches_functional_on_random_64() {
        let n = 64;
        let c = build(n);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let s: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            assert_eq!(c.eval(&s), sort(&s));
        }
    }

    #[test]
    fn cost_dominant_term_is_3n_lgn() {
        for k in 2..=10u32 {
            let n = 1usize << k;
            let c = build(n);
            let cost = c.cost().total;
            let dominant = paper_cost_dominant(n);
            // The adder tree adds a positive Θ(n) term at large n (and
            // the patch-up base cases save a few units at tiny n): the
            // exact cost must track 3n lg n within ±12n.
            assert!(
                cost + 12 * n as u64 >= dominant && cost <= dominant + 12 * n as u64,
                "n={n}: cost {cost} not within 3n lg n ± 12n (dominant {dominant})"
            );
        }
    }

    #[test]
    fn depth_is_within_paper_bound() {
        for k in 2..=10usize {
            let n = 1 << k;
            let d = build(n).depth() as u64;
            assert!(
                d <= paper_depth_bound(n),
                "n={n}: depth {d} > paper bound {}",
                paper_depth_bound(n)
            );
        }
    }

    #[test]
    fn ripple_adder_ablation_same_depth_lower_cost() {
        use absort_blocks::adder::AdderKind;
        for n in [64usize, 256, 1024] {
            let fast = build(n);
            let slow = build_with_adder(n, AdderKind::Ripple);
            // same function...
            let mut rng = StdRng::seed_from_u64(6);
            for _ in 0..30 {
                let s: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
                assert_eq!(slow.eval(&s), fast.eval(&s));
            }
            // ...and (the measured E16 finding) the same depth: the count
            // path hides behind the deeper patch-up path, and ripple
            // adders are slightly cheaper.
            assert_eq!(slow.depth(), fast.depth(), "n={n}");
            assert!(slow.cost().total < fast.cost().total, "n={n}");
        }
        // Second measured E16 finding: even the standalone popcount tree
        // does NOT need prefix adders — ripple carries skew across tree
        // levels (the next adder's low bits arrive before the previous
        // adder's high bits), so the tree's depth stays O(lg n) for both
        // kinds and ripple is actually a little shallower and cheaper.
        // Prefix adders win only for a single wide addition (see
        // absort_blocks::adder::tests::ripple_depth_is_linear_...).
        use absort_blocks::popcount::popcount_with;
        use absort_circuit::Builder;
        let build_pc = |kind| {
            let mut b = Builder::new();
            let ins = b.input_bus(1024);
            let cnt = popcount_with(&mut b, kind, &ins);
            b.outputs(&cnt);
            b.finish()
        };
        let d_prefix = build_pc(AdderKind::Prefix).depth();
        let d_ripple = build_pc(AdderKind::Ripple).depth();
        assert!(
            d_ripple <= d_prefix + 2 && d_prefix <= 5 * 10 + 5,
            "popcount tree depths: ripple {d_ripple}, prefix {d_prefix}"
        );
    }

    #[test]
    fn patchup_cost_tracks_3n() {
        // C_p(m) = 3m/2 + C_p(m/2) + 1 select OR ⇒ ≤ 3m + lg m.
        let n = 256;
        let c = build(n);
        // top-level patch-up scope
        let cost = c
            .cost_of_scope("prefix_sorter/patchup")
            .expect("scope exists")
            .total;
        assert!(
            cost <= 3 * n as u64 + 8,
            "patch-up cost {cost} exceeds 3n + lg n"
        );
        assert!(
            cost >= 3 * n as u64 / 2,
            "patch-up cost {cost} implausibly low"
        );
    }
}
