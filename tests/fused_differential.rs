//! Exhaustive coverage of the fused dispatch that `Program::decode`
//! builds for every evaluator: switch chains and op pairs must agree
//! with the reference netlist walk on every input vector at `n ≤ 8`, for
//! every catalog network at every opt level (with the per-pass check
//! on), through both decode flavours — scalar `bool` and wide `u64` /
//! `[u64; 4]`.

use absort::analysis::faults::fish_k;
use absort::circuit::eval::{pack_lanes, pack_lanes_wide, unpack_lanes, unpack_lanes_wide};
use absort::circuit::{Circuit, CompileOptions, CompiledEvaluator, OptLevel};
use absort::core::{fish, muxmerge, nonadaptive, prefix};

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

#[test]
fn fused_tapes_match_interpreter_exhaustively() {
    for n in [2usize, 4, 8] {
        let total = 1u64 << n;
        let vectors: Vec<Vec<bool>> = (0..total)
            .map(|x| (0..n).map(|i| x >> i & 1 == 1).collect())
            .collect();
        for (name, circuit) in catalog(n) {
            let want: Vec<Vec<bool>> = vectors.iter().map(|v| circuit.eval(v)).collect();
            for level in OptLevel::ALL {
                let opts = CompileOptions {
                    verify: true,
                    ..CompileOptions::for_level(level)
                };
                let cc = circuit.compile_with(&opts);
                let mut scalar: CompiledEvaluator<'_, bool> = CompiledEvaluator::new(&cc);
                for (v, w) in vectors.iter().zip(&want) {
                    assert_eq!(&scalar.run(v), w, "{name} n={n} O{level} scalar {v:?}");
                }
                let mut lanes: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&cc);
                for (chunk, w) in vectors.chunks(64).zip(want.chunks(64)) {
                    let got = unpack_lanes(&lanes.run(&pack_lanes(chunk, n)), chunk.len());
                    assert_eq!(got, w, "{name} n={n} O{level} u64 lanes");
                }
                let mut wide: CompiledEvaluator<'_, [u64; 4]> = CompiledEvaluator::new(&cc);
                for (chunk, w) in vectors.chunks(256).zip(want.chunks(256)) {
                    let packed = pack_lanes_wide::<4>(chunk, n);
                    let got = unpack_lanes_wide(&wide.run(&packed), chunk.len());
                    assert_eq!(got, w, "{name} n={n} O{level} [u64; 4] lanes");
                }
            }
        }
    }
}
