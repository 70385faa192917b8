//! Differential equivalence of the two evaluation engines on the paper's
//! real networks: the enum-dispatch interpreter and the compiled
//! register-allocated micro-op tape must agree bit-for-bit.
//!
//! Coverage:
//! * exhaustive — every one of the `2^n` input vectors at `n ≤ 8`, for
//!   the prefix sorter, the mux-based merge sorter, the fish k-way
//!   merger (combinational form), and the nonadaptive (Batcher-equal)
//!   sorter, swept in packed 64-lane passes (the sweep at every opt
//!   level through every decode flavour is `fused_differential.rs`);
//! * proptest — random vector batches across the same catalog at larger
//!   sizes, through scalar, packed, and wide (`[u64; 4]` and `[u64; 8]`)
//!   compiled walks;
//! * the decoded dispatch count — decode fuses switch chains and op
//!   pairs identically for every lane type, at least as far as the
//!   tape-level fuse pass it replaced did — and the exact tape shape
//!   (ops, slots, levels) of each network at n = 64 and 1024;
//! * shared programs — an evaluator built on a [`Decoded`] program (the
//!   serving path) is the evaluator `CompiledEvaluator::new` builds.

use absort::analysis::faults::fish_k;
use absort::circuit::compile::Decoded;
use absort::circuit::eval::{pack_lanes_wide, unpack_lanes_wide};
use absort::circuit::{Circuit, CompiledCircuit, CompiledEvaluator, Evaluator, Lane};
use absort::core::{fish, muxmerge, nonadaptive, prefix};
use proptest::prelude::*;
use rand::prelude::*;

/// The network catalog at width `n` (fish needs `k ≤ n/k`, so it joins
/// from `n = 4` up).
fn catalog(n: usize) -> Vec<(&'static str, Circuit)> {
    let mut v = vec![
        ("prefix", prefix::build(n)),
        ("mux-merger", muxmerge::build(n)),
        ("batcher", nonadaptive::build(n)),
    ];
    if n >= 4 {
        v.push((
            "fish",
            fish::circuits::build_combinational_kmerger(n, fish_k(n)),
        ));
    }
    v
}

/// Packs the 64 consecutive integers starting at `base` (little-endian
/// bit `i` = input `i`) into lane words; lanes past `count` stay zero.
fn pack_range(n: usize, base: u64, count: usize) -> Vec<u64> {
    let mut packed = vec![0u64; n];
    for lane in 0..count {
        let x = base + lane as u64;
        for (i, p) in packed.iter_mut().enumerate() {
            *p |= (x >> i & 1) << lane;
        }
    }
    packed
}

#[test]
fn exhaustive_equivalence_at_small_n() {
    for n in [2usize, 4, 8] {
        for (name, circuit) in catalog(n) {
            let compiled = circuit.compile();
            assert!(
                compiled.n_slots() <= circuit.n_wires(),
                "{name} n={n}: regalloc grew the buffer"
            );
            let mut interp: Evaluator<'_, u64> = Evaluator::new(&circuit);
            let mut comp: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&compiled);
            let program = Decoded::new(&compiled);
            let mut shared = CompiledEvaluator::with_decoded(&compiled, &program).unwrap();
            let total = 1u64 << n;
            let mut v = 0u64;
            while v < total {
                let lanes = (total - v).min(64) as usize;
                let packed = pack_range(n, v, lanes);
                let want = interp.run(&packed);
                let got = comp.run(&packed);
                assert_eq!(got, want, "{name} n={n} vectors {v}..{}", v + lanes as u64);
                assert_eq!(
                    shared.run(&packed),
                    want,
                    "{name} n={n} vectors {v}..{}: shared program",
                    v + lanes as u64
                );
                v += lanes as u64;
            }
        }
    }
}

/// Decode fuses every lane type alike, and at least as far as the
/// tape-level fuse pass it replaced: `dispatches()` is equal for `bool`,
/// `u64` and `[u64; 4]` and at most the pins. A pin is that pass's fused
/// tape length, or today's count where decode does better (prefix and
/// fish). Decode may also fuse across depth levels, which the pass never
/// did. An evaluator on a shared [`Decoded`] program dispatches exactly
/// what `CompiledEvaluator::new`'s does.
///
/// The default tape's shape is pinned exactly: ops, slots and depth
/// levels. No pass folds or merges logic, so a builder that places
/// redundant logic grows these numbers.
#[test]
fn decoded_dispatch_counts_are_pinned() {
    // (network, n, fused tape length, tape ops, slots, levels)
    let pins: [(&str, usize, usize, usize, usize, usize); 8] = [
        ("prefix", 64, 664, 1328, 129, 54),
        ("mux-merger", 64, 146, 321, 96, 36),
        ("nonadaptive", 64, 336, 672, 64, 21),
        ("fish", 64, 942, 1824, 393, 53),
        ("prefix", 1024, 17_124, 34_247, 2049, 148),
        ("mux-merger", 1024, 2538, 9217, 1536, 100),
        ("nonadaptive", 1024, 14_080, 28_160, 1024, 55),
        ("fish", 1024, 40_781, 82_377, 27_194, 153),
    ];
    for (name, n, pin, ops, slots, levels) in pins {
        let circuit = match name {
            "prefix" => prefix::build(n),
            "mux-merger" => muxmerge::build(n),
            "nonadaptive" => nonadaptive::build(n),
            _ => fish::circuits::build_combinational_kmerger(n, fish_k(n)),
        };
        let cc = circuit.compile();
        assert_eq!(
            (cc.tape_len(), cc.n_slots(), cc.n_levels()),
            (ops, slots, levels),
            "{name} n={n}: (tape ops, slots, levels)"
        );
        let scalar = dispatches::<bool>(&cc, name, n);
        let wide = dispatches::<[u64; 4]>(&cc, name, n);
        assert_eq!(scalar, wide, "{name} n={n}: lane types decode apart");
        assert_eq!(
            dispatches::<u64>(&cc, name, n),
            wide,
            "{name} n={n}: lane types decode apart"
        );
        assert!(
            wide <= pin,
            "{name} n={n}: {wide} dispatches, pinned at {pin}"
        );
    }
}

/// `CompiledEvaluator::new`'s dispatch count, checked equal to that of
/// an evaluator on a shared program decoded from the same tape.
fn dispatches<V: Lane>(cc: &CompiledCircuit, name: &str, n: usize) -> usize {
    let own = CompiledEvaluator::<V>::new(cc).dispatches();
    let shared = CompiledEvaluator::with_decoded(cc, &Decoded::<V>::new(cc))
        .unwrap()
        .dispatches();
    assert_eq!(shared, own, "{name} n={n}: shared program decodes apart");
    own
}

#[test]
fn scalar_path_equivalence_spot_checks() {
    // The bool-lane path exercises the same tape with a different `V`;
    // one full small-n sweep keeps it honest.
    for (name, circuit) in catalog(4) {
        let compiled = circuit.compile();
        for v in 0..1u64 << 4 {
            let bits: Vec<bool> = (0..4).map(|i| v >> i & 1 == 1).collect();
            assert_eq!(
                compiled.eval(&bits),
                circuit.eval(&bits),
                "{name} input {v:04b}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random 64-lane batches agree across the catalog at larger sizes,
    /// and a ragged batch walked in `[u64; 4]` lanes agrees with the
    /// interpreter's batch path.
    #[test]
    fn catalog_random_vectors_agree(seed in any::<u64>(), size_idx in 0usize..3) {
        let n = [4usize, 8, 16][size_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        for (name, circuit) in catalog(n) {
            let compiled = circuit.compile();
            let mut interp: Evaluator<'_, u64> = Evaluator::new(&circuit);
            let mut comp: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&compiled);
            for pass in 0..4 {
                let packed: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
                let want = interp.run(&packed);
                let got = comp.run(&packed);
                prop_assert_eq!(got, want, "{} n={} pass {}", name, n, pass);
            }
            // A ragged batch (150 of 256 lanes, the last word partial)
            // through one wide compiled walk.
            let vectors: Vec<Vec<bool>> = (0..150)
                .map(|_| (0..n).map(|_| rng.gen()).collect())
                .collect();
            let want = circuit.eval_batch_parallel(&vectors, 2);
            let mut wide: CompiledEvaluator<'_, [u64; 4]> = CompiledEvaluator::new(&compiled);
            let packed = pack_lanes_wide::<4>(&vectors, n);
            let got = unpack_lanes_wide(&wide.run(&packed), vectors.len());
            prop_assert_eq!(got, want, "{} n={} wide batch", name, n);
        }
    }

    /// The `[u64; 8]` wide walk (512 lanes per pass) agrees with the
    /// `[u64; 4]` walk and the scalar path on random batches, and the
    /// wide pack/unpack pair round-trips exactly.
    #[test]
    fn wide8_walks_agree_with_narrow_and_scalar(seed in any::<u64>(), size_idx in 0usize..3) {
        let n = [4usize, 8, 16][size_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        for (name, circuit) in catalog(n) {
            let compiled = circuit.compile();
            let vectors: Vec<Vec<bool>> = (0..512)
                .map(|_| (0..n).map(|_| rng.gen()).collect())
                .collect();
            let w8 = pack_lanes_wide::<8>(&vectors, n);
            prop_assert_eq!(
                unpack_lanes_wide(&w8, vectors.len()),
                vectors.clone(),
                "{} n={}: wide pack/unpack must round-trip", name, n
            );
            let mut ev8: CompiledEvaluator<'_, [u64; 8]> = CompiledEvaluator::new(&compiled);
            let mut ev4: CompiledEvaluator<'_, [u64; 4]> = CompiledEvaluator::new(&compiled);
            let out8 = unpack_lanes_wide(&ev8.run(&w8), vectors.len());
            let w4 = pack_lanes_wide::<4>(&vectors[..256], n);
            let out4 = unpack_lanes_wide(&ev4.run(&w4), 256);
            prop_assert_eq!(&out8[..256], &out4[..], "{} n={}: [u64;8] vs [u64;4]", name, n);
            // Scalar spot checks across both halves, including the
            // word-boundary lanes.
            for idx in [0usize, 63, 64, 255, 256, 511] {
                prop_assert_eq!(
                    &out8[idx],
                    &compiled.eval(&vectors[idx]),
                    "{} n={} lane {}: [u64;8] vs scalar", name, n, idx
                );
            }
        }
    }
}
