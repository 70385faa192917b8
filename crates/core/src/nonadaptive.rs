//! The nonadaptive bit-level baseline: Fig. 4(b) realized with
//! comparators only.
//!
//! Section III.A starts from an odd-even merge variant whose balanced
//! merging block costs `O(n lg n)` per merge — `O(n lg² n)` for the whole
//! sorter — and Networks 1–2 exist precisely to cut that down by
//! *adapting* on the ones-count / middle bits. Building the nonadaptive
//! network on the same circuit substrate quantifies the saving
//! (experiment E17, the adaptivity ablation): same sorting function, same
//! depth order, but a `lg n / 4`-factor more hardware.
//!
//! The construction is the bit-level image of
//! `absort_cmpnet::fig4::fig4b_sort`: recursive half-sorters, the shuffle
//! (Theorem 1), and the full balanced merging block of bit comparators —
//! no prefix adder, no swappers, no data-dependent select signals.

use absort_blocks::stages::shuffle;
use absort_circuit::{assert_pow2, Builder, Circuit, Wire};

/// Builds the n-input nonadaptive binary sorter (bit-level Fig. 4(b)).
///
/// Cost is exactly `n lg n (lg n + 1)/4` bit comparators (the same count
/// as Batcher's bitonic sorter); depth `lg n (lg n + 1)/2`.
pub fn build(n: usize) -> Circuit {
    assert_pow2(n, "nonadaptive fig4b sorter");
    let _tel = absort_telemetry::span("build");
    let mut b = Builder::new();
    let ins = b.input_bus(n);
    let outs = b.scoped("fig4b_sorter", |b| sorter(b, &ins));
    b.outputs(&outs);
    b.finish()
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
    let u = sorter(b, &xs[..m / 2]);
    let l = sorter(b, &xs[m / 2..]);
    let mut cat = u;
    cat.extend_from_slice(&l);
    let z = shuffle(&cat);
    balanced_block(b, &z)
}

/// The full balanced merging block in bit comparators: the first stage
/// pairs `i` with `m−1−i`, then both halves recurse.
fn balanced_block(b: &mut Builder, xs: &[Wire]) -> Vec<Wire> {
    let m = xs.len();
    if m < 2 {
        return xs.to_vec();
    }
    let mut y = xs.to_vec();
    for i in 0..m / 2 {
        let (lo, hi) = b.bit_compare(y[i], y[m - 1 - i]);
        y[i] = lo;
        y[m - 1 - i] = hi;
    }
    let upper = balanced_block(b, &y[..m / 2]);
    let lower = balanced_block(b, &y[m / 2..]);
    let mut out = upper;
    out.extend(lower);
    out
}

/// Exact cost of [`build`]: `n lg n (lg n + 1)/4` (validated against the
/// built circuit and against `absort_cmpnet::fig4::fig4b_cost`).
pub fn cost_exact(n: usize) -> u64 {
    assert!(n.is_power_of_two());
    let k = n.trailing_zeros() as u64;
    n as u64 * k * (k + 1) / 4
}

/// The adaptivity saving at size `n`: nonadaptive cost divided by the
/// mux-merger sorter's exact cost. Grows as `Θ(lg n)`.
pub fn adaptivity_saving(n: usize) -> f64 {
    cost_exact(n) as f64 / crate::muxmerge::formulas::sorter_cost_exact(n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{all_sequences, sorted_oracle};
    use rand::prelude::*;

    #[test]
    fn sorts_exhaustively_to_16() {
        for k in 1..=4usize {
            let n = 1 << k;
            let c = build(n);
            for s in all_sequences(n) {
                assert_eq!(c.eval(&s), sorted_oracle(&s), "n={n}");
            }
        }
    }

    #[test]
    fn cost_matches_closed_form_and_cmpnet() {
        for k in 1..=10u32 {
            let n = 1usize << k;
            let c = build(n);
            assert_eq!(c.cost().total, cost_exact(n), "n={n}");
            assert_eq!(
                cost_exact(n),
                absort_cmpnet::fig4::fig4b_cost(n),
                "n={n}: bit-level build must mirror the word-level network"
            );
        }
    }

    #[test]
    fn depth_matches_batcher_order() {
        for k in 2..=8usize {
            let n = 1usize << k;
            assert_eq!(build(n).depth(), k * (k + 1) / 2, "n={n}");
        }
    }

    #[test]
    fn adaptivity_saving_grows_with_n() {
        let mut prev = 0.0;
        for k in [6u32, 10, 14, 18] {
            let s = adaptivity_saving(1usize << k);
            assert!(s > prev, "saving must grow: k={k}, {s}");
            prev = s;
        }
        // Θ(lg n)/4-ish: at n=2^18 expect a saving around 18/4 ≈ 4.5 vs
        // the ~3.56 constant of the mux-merger — i.e. > 1.2
        assert!(prev > 1.2, "saving at 2^18 is {prev}");
    }

    #[test]
    fn agrees_with_adaptive_sorters() {
        let n = 64;
        let na = build(n);
        let mm = crate::muxmerge::build(n);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..100 {
            let s: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            assert_eq!(na.eval(&s), mm.eval(&s));
        }
    }
}
