//! Circuit-level pieces of the k-way mux-merger, including a fully
//! **combinational** (non-time-multiplexed) variant of the merger.
//!
//! The fish sorter owes its `O(n)` cost to time-multiplexing the clean
//! sorter's dispatch through one `(m/2, m/2k)`-multiplexer /
//! `(m/2k, m/2)`-demultiplexer pair (cost `m + k` per level). This module
//! builds the alternative the paper implicitly rejects — a combinational
//! dispatch that routes all `k` blocks at once — so the ablation
//! (experiment E18) can *measure* what time-multiplexing buys: the
//! combinational dispatch needs rank logic plus a `k`-way OR-select per
//! line, `Θ(k·m)` hardware per level instead of `Θ(m)`.
//!
//! Also provides the k-SWAP stage as a standalone circuit (cost `m/2`,
//! depth 1 — eq. 9's `C_SWAP`/`D_SWAP` terms, verified in hardware).

use crate::muxmerge;
use absort_circuit::{assert_pow2, Builder, Circuit, Wire};

/// Builds the m-input k-SWAP as a circuit: `k` two-way swappers, each on
/// one size-`m/k` sorted subsequence, each controlled by that
/// subsequence's own middle bit. The upper `m/2` outputs collect the
/// clean halves, the lower `m/2` the rest (Theorem 4).
pub fn build_kswap(m: usize, k: usize) -> Circuit {
    let _tel = absort_telemetry::span("build");
    let mut b = Builder::new();
    let ins = b.input_bus(m);
    let outs = kswap_wires(&mut b, &ins, k);
    b.outputs(&outs);
    b.finish()
}

/// In-builder k-SWAP (see [`build_kswap`]); returns the `m` output wires,
/// clean halves first.
pub fn kswap_wires(b: &mut Builder, ins: &[Wire], k: usize) -> Vec<Wire> {
    let m = ins.len();
    assert_pow2(m, "k-SWAP width");
    assert_pow2(k, "k-SWAP group count");
    let block = m / k;
    assert!(block >= 2, "k-SWAP blocks need >= 2 lines");
    let mut clean = Vec::with_capacity(m / 2);
    let mut rest = Vec::with_capacity(m / 2);
    b.scoped("kswap", |b| {
        for blk in ins.chunks(block) {
            // middle bit = first element of the lower half; ctrl = 1
            // swaps the halves so the clean half goes up.
            let ctrl = blk[block / 2];
            let swapped = absort_blocks::swap::two_way_swapper(b, ctrl, blk);
            clean.extend_from_slice(&swapped[..block / 2]);
            rest.extend_from_slice(&swapped[block / 2..]);
        }
    });
    clean.extend(rest);
    clean
}

/// Builds the fully combinational m-input k-way merger: k-SWAP, a
/// *combinational* clean sorter (rank logic + per-line k-way select — no
/// time multiplexing), recursive merge of the lower half, and the final
/// two-way mux-merger. Functionally identical to the Model B merger; the
/// hardware cost difference is the E18 ablation.
pub fn build_combinational_kmerger(m: usize, k: usize) -> Circuit {
    assert_pow2(m, "k-way merger width");
    assert_pow2(k, "k-way merger group count");
    assert!(k >= 2 && k <= m / k, "need 2 <= k <= m/k");
    let _tel = absort_telemetry::span("build");
    let mut b = Builder::new();
    let ins = b.input_bus(m);
    let outs = kmerger_wires(&mut b, &ins, k);
    b.outputs(&outs);
    b.finish()
}

fn kmerger_wires(b: &mut Builder, ins: &[Wire], k: usize) -> Vec<Wire> {
    let m = ins.len();
    if m == k {
        return muxmerge::sorter_wires(b, ins);
    }
    let swapped = kswap_wires(b, ins, k);
    let clean_sorted = b.scoped("clean_sorter", |b| {
        clean_sorter_wires(b, &swapped[..m / 2], k)
    });
    let lower_sorted = b.scoped("level", |b| kmerger_wires(b, &swapped[m / 2..], k));
    let mut joined = clean_sorted;
    joined.extend(lower_sorted);
    b.scoped("final_merge", |b| muxmerge::merger_wires(b, &joined))
}

/// One bit of a rank word: a wire, or `None` for a bit known to be 0.
/// Counts start at 0 and gain a bit only when a carry first reaches it.
type Bit = Option<Wire>;

/// Combinational clean sorter on `k` clean blocks: computes each block's
/// destination rank (zeros before it, or total zeros + ones before it),
/// then routes every line with a k-way indicator/OR select. Carries the
/// data (no broadcast shortcut), so payload-level equivalence with the
/// Model B dispatch holds line by line.
///
/// Every gate it places is one the compiled tape keeps: the rank adders
/// fold their known-zero bits as they are built ([`add_folded`]), and
/// each block's rank is decoded once, sharing prefixes.
fn clean_sorter_wires(b: &mut Builder, ins: &[Wire], k: usize) -> Vec<Wire> {
    let half = ins.len();
    let block = half / k;
    let kbits = k.trailing_zeros() as usize;
    let leading: Vec<Wire> = (0..k).map(|i| ins[i * block]).collect();

    // Running counts zeros_before[i], ones_before[i] as kbits-bit words
    // (dest < k always fits): each adds block i's leading bit, or its
    // inverse, to the count before it. The last ones count is never
    // read, so it is not built.
    let mut zeros_before: Vec<Vec<Bit>> = vec![vec![None; kbits]];
    let mut ones_before: Vec<Vec<Bit>> = vec![vec![None; kbits]];
    for (i, &lead) in leading.iter().enumerate() {
        let mut inc = vec![None; kbits];
        inc[0] = Some(b.not(lead));
        zeros_before.push(add_folded(b, &zeros_before[i], &inc));
        if i + 1 < k {
            inc[0] = Some(lead);
            ones_before.push(add_folded(b, &ones_before[i], &inc));
        }
    }
    let zeros_total = zeros_before.pop().expect("k >= 1 counts");

    // dest_i = b_i ? zeros_total + ones_before[i] : zeros_before[i]
    let dest: Vec<Vec<Wire>> = (0..k)
        .map(|i| {
            let sum = add_folded(b, &zeros_total, &ones_before[i]);
            (0..kbits)
                .map(|t| {
                    let lo = zeros_before[i][t].unwrap_or_else(|| b.constant(false));
                    b.mux2(leading[i], lo, sum[t].expect("zeros_total is all wires"))
                })
                .collect()
        })
        .collect();

    // indicator[i][j] = [dest_i == j], decoded low bit first: prefix[t][p]
    // = [dest_i mod 2^(t+1) == p] ANDs prefix[t-1][p mod 2^t] with bit t
    // or its one inverter. Gates are placed in the order the indicators
    // for j = 0, 1, … first need them.
    let indicator: Vec<Vec<Wire>> = dest
        .iter()
        .map(|d| {
            let mut inv = Vec::with_capacity(kbits);
            let mut prefix: Vec<Vec<Wire>> =
                (0..kbits).map(|t| Vec::with_capacity(2 << t)).collect();
            for j in 0..k {
                for t in (0..kbits).filter(|&t| j < 2 << t) {
                    let term = if j >> t & 1 == 1 {
                        d[t]
                    } else {
                        if j == 0 {
                            inv.push(b.not(d[t]));
                        }
                        inv[t]
                    };
                    let w = match t {
                        0 => term,
                        _ => b.and(prefix[t - 1][j % (1 << t)], term),
                    };
                    prefix[t].push(w);
                }
            }
            prefix.pop().expect("k >= 2 so kbits >= 1")
        })
        .collect();

    // output block j, line l = OR_i (indicator[i][j] AND ins[i*block + l])
    let mut out = Vec::with_capacity(half);
    for j in 0..k {
        for l in 0..block {
            let mut acc: Option<Wire> = None;
            for (i, ind) in indicator.iter().enumerate() {
                let t = b.and(ind[j], ins[i * block + l]);
                acc = Some(match acc {
                    None => t,
                    Some(a) => b.or(a, t),
                });
            }
            out.push(acc.expect("k >= 1"));
        }
    }
    out
}

/// Ripple-carry sum of two equal-width little-endian words, truncated to
/// that width. Known-zero bits fold as the stages are built: a stage with
/// one live input passes it through, one with two is a half adder, and
/// only a stage with three is a full adder. No carry is built past the
/// top bit.
fn add_folded(b: &mut Builder, x: &[Bit], y: &[Bit]) -> Vec<Bit> {
    let width = x.len();
    let mut carry: Bit = None;
    let mut sum = Vec::with_capacity(width);
    for t in 0..width {
        let carry_read = t + 1 < width;
        let live: Vec<Wire> = [x[t], y[t], carry].into_iter().flatten().collect();
        let (s, c) = match live[..] {
            [] => (None, None),
            [w] => (Some(w), None),
            [p, q] => (Some(b.xor(p, q)), carry_read.then(|| b.and(p, q))),
            [p, q, cin] => {
                let half = b.xor(p, q);
                let s = b.xor(half, cin);
                let c = carry_read.then(|| {
                    let generate = b.and(p, q);
                    let propagate = b.and(half, cin);
                    b.or(generate, propagate)
                });
                (Some(s), c)
            }
            _ => unreachable!("three inputs per stage"),
        };
        sum.push(s);
        carry = c;
    }
    sum
}

/// The E18 ablation numbers at merger width `m`: the combinational
/// dispatch hardware per level vs the paper's time-multiplexed `m + k`
/// budget.
pub fn dispatch_ablation(m: usize, k: usize) -> (u64, u64) {
    let c = build_combinational_kmerger(m, k);
    let combinational = c
        .cost_of_scope("clean_sorter")
        .expect("clean_sorter scope")
        .total;
    let time_multiplexed = m as u64 + k as u64; // paper's per-level budget
    (combinational, time_multiplexed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fish::kmerge;
    use crate::lang;

    #[test]
    fn kswap_circuit_matches_functional_and_paper_costs() {
        for (m, k) in [(16usize, 4usize), (32, 4)] {
            let c = build_kswap(m, k);
            assert_eq!(c.cost().total, m as u64 / 2, "paper: C_SWAP = m/2");
            assert_eq!(c.depth(), 1, "paper: D_SWAP = 1");
            // exhaustive over every k-sorted input at these sizes
            for s in lang::all_k_sorted(m, k) {
                let (clean, rest) = kmerge::k_swap(&s, k);
                let mut expect = clean;
                expect.extend(rest);
                assert_eq!(c.eval(&s), expect, "m={m} k={k}");
            }
        }
        // random spot checks at a larger size (all_k_sorted would be 9^8
        // sequences there)
        use rand::prelude::*;
        let (m, k) = (64usize, 8usize);
        let c = build_kswap(m, k);
        assert_eq!(c.cost().total, m as u64 / 2);
        let mut rng = StdRng::seed_from_u64(62);
        let block = m / k;
        for _ in 0..200 {
            let mut s = Vec::with_capacity(m);
            for _ in 0..k {
                let ones = rng.gen_range(0..=block);
                s.extend(std::iter::repeat_n(false, block - ones));
                s.extend(std::iter::repeat_n(true, ones));
            }
            let (clean, rest) = kmerge::k_swap(&s, k);
            let mut expect = clean;
            expect.extend(rest);
            assert_eq!(c.eval(&s), expect);
        }
    }

    #[test]
    fn combinational_merger_sorts_all_k_sorted() {
        for (m, k) in [(8usize, 2usize), (16, 4), (32, 4)] {
            let c = build_combinational_kmerger(m, k);
            for s in lang::all_k_sorted(m, k) {
                assert_eq!(c.eval(&s), lang::sorted_oracle(&s), "m={m} k={k}");
            }
        }
    }

    /// All 17^4 = 83,521 k-sorted inputs at (64, 4), through the compiled
    /// O1 tape in `[u64; 4]` lanes, 256 inputs per pass.
    #[test]
    fn compiled_merger_sorts_all_k_sorted_at_64_4() {
        use absort_circuit::{CompileOptions, CompiledEvaluator, OptLevel};
        let (m, k) = (64usize, 4usize);
        let cc = build_combinational_kmerger(m, k)
            .compile_with(&CompileOptions::for_level(OptLevel::O1));
        let mut eval = CompiledEvaluator::<[u64; 4]>::new(&cc);
        let inputs = lang::all_k_sorted(m, k);
        assert_eq!(inputs.len(), 17usize.pow(4));
        for chunk in inputs.chunks(256) {
            let mut packed = vec![[0u64; 4]; m];
            for (lane, s) in chunk.iter().enumerate() {
                for (w, &bit) in packed.iter_mut().zip(s) {
                    w[lane / 64] |= u64::from(bit) << (lane % 64);
                }
            }
            let out = eval.run(&packed);
            for (lane, s) in chunk.iter().enumerate() {
                let got: Vec<bool> = out
                    .iter()
                    .map(|w| w[lane / 64] >> (lane % 64) & 1 == 1)
                    .collect();
                assert_eq!(got, lang::sorted_oracle(s), "input {s:?}");
            }
        }
    }

    #[test]
    fn combinational_merger_matches_model_b_dataflow() {
        use rand::prelude::*;
        let (m, k) = (256usize, 8usize);
        let c = build_combinational_kmerger(m, k);
        let mut rng = StdRng::seed_from_u64(61);
        let block = m / k;
        for _ in 0..50 {
            let mut s = Vec::with_capacity(m);
            for _ in 0..k {
                let ones = rng.gen_range(0..=block);
                s.extend(std::iter::repeat_n(false, block - ones));
                s.extend(std::iter::repeat_n(true, ones));
            }
            assert_eq!(c.eval(&s), kmerge::kmerge(&s, k));
        }
        // The widths whose rank words are 4 and 5 bits wide.
        for (m, k) in [(512usize, 16usize), (1024, 32)] {
            let c = build_combinational_kmerger(m, k);
            for seed in 0..24 {
                let s = lang::gen::k_sorted(seed, m, k);
                assert_eq!(c.eval(&s), kmerge::kmerge(&s, k), "m={m} k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn dispatch_ablation_shows_time_multiplexing_saving() {
        // The combinational dispatch must cost several times the paper's
        // time-multiplexed m + k budget, and the gap grows with k.
        let (c4, t4) = dispatch_ablation(64, 4);
        let (c8, t8) = dispatch_ablation(256, 8);
        assert!(c4 > 2 * t4, "k=4: {c4} vs {t4}");
        assert!(c8 > 3 * t8, "k=8: {c8} vs {t8}");
        assert!(
            c8 as f64 / t8 as f64 > c4 as f64 / t4 as f64,
            "saving must grow with k"
        );
    }
}
