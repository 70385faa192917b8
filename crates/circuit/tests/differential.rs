//! Differential testing of the evaluation engines: random circuits
//! evaluated with the scalar path, the 64-lane packed path, the
//! multi-threaded batch path, and the compiled micro-op tape (scalar and
//! `[u64; 4]` lanes) must agree bit-for-bit, and depth/cost analyses
//! must be invariant across evaluations.

use absort_circuit::eval::{pack_lanes_wide, unpack_lanes_wide};
use absort_circuit::{Builder, Circuit, CompiledEvaluator, GateOp, Wire};
use proptest::prelude::*;
use rand::prelude::*;

/// Generates a random DAG circuit from a seed: `n_inputs` inputs,
/// `n_comps` components drawn uniformly from all primitive kinds, inputs
/// of each component drawn from all existing wires.
fn random_circuit(seed: u64, n_inputs: usize, n_comps: usize) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Builder::new();
    let mut wires: Vec<Wire> = b.input_bus(n_inputs);
    wires.push(b.constant(false));
    wires.push(b.constant(true));
    for _ in 0..n_comps {
        let pick = |rng: &mut StdRng, wires: &[Wire]| wires[rng.gen_range(0..wires.len())];
        match rng.gen_range(0..7) {
            0 => {
                let a = pick(&mut rng, &wires);
                wires.push(b.not(a));
            }
            1 => {
                let ops = [
                    GateOp::And,
                    GateOp::Or,
                    GateOp::Xor,
                    GateOp::Nand,
                    GateOp::Nor,
                    GateOp::Xnor,
                ];
                let op = ops[rng.gen_range(0..ops.len())];
                let (a, c) = (pick(&mut rng, &wires), pick(&mut rng, &wires));
                wires.push(b.gate(op, a, c));
            }
            2 => {
                let (s, a0, a1) = (
                    pick(&mut rng, &wires),
                    pick(&mut rng, &wires),
                    pick(&mut rng, &wires),
                );
                wires.push(b.mux2(s, a0, a1));
            }
            3 => {
                let (s, x) = (pick(&mut rng, &wires), pick(&mut rng, &wires));
                let (o0, o1) = b.demux2(s, x);
                wires.push(o0);
                wires.push(o1);
            }
            4 => {
                let (c, x, y) = (
                    pick(&mut rng, &wires),
                    pick(&mut rng, &wires),
                    pick(&mut rng, &wires),
                );
                let (oa, ob) = b.switch2(c, x, y);
                wires.push(oa);
                wires.push(ob);
            }
            5 => {
                let (x, y) = (pick(&mut rng, &wires), pick(&mut rng, &wires));
                let (lo, hi) = b.bit_compare(x, y);
                wires.push(lo);
                wires.push(hi);
            }
            _ => {
                let s1 = pick(&mut rng, &wires);
                let s0 = pick(&mut rng, &wires);
                let ins = [
                    pick(&mut rng, &wires),
                    pick(&mut rng, &wires),
                    pick(&mut rng, &wires),
                    pick(&mut rng, &wires),
                ];
                let mut perms = [[0u8, 1, 2, 3]; 4];
                for p in &mut perms {
                    for i in (1..4).rev() {
                        p.swap(i, rng.gen_range(0..=i));
                    }
                }
                let outs = b.switch4(s1, s0, ins, perms);
                wires.extend_from_slice(&outs);
            }
        }
    }
    // Pick a random subset of wires as outputs (at least one).
    let n_out = rng.gen_range(1..=8.min(wires.len()));
    let outs: Vec<Wire> = (0..n_out)
        .map(|_| wires[rng.gen_range(0..wires.len())])
        .collect();
    b.outputs(&outs);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scalar, lane-packed, and threaded evaluation agree on random
    /// circuits and random input batches.
    #[test]
    fn engines_agree(seed in any::<u64>(), n_inputs in 1usize..10, n_comps in 1usize..120) {
        let circuit = random_circuit(seed, n_inputs, n_comps);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let vectors: Vec<Vec<bool>> = (0..130)
            .map(|_| (0..n_inputs).map(|_| rng.gen()).collect())
            .collect();
        let scalar: Vec<Vec<bool>> = vectors.iter().map(|v| circuit.eval(v)).collect();
        let packed = circuit.eval_batch_parallel(&vectors, 1);
        let threaded = circuit.eval_batch_parallel(&vectors, 4);
        prop_assert_eq!(&scalar, &packed);
        prop_assert_eq!(&scalar, &threaded);
    }

    /// The compiled micro-op tape agrees with the interpreter on random
    /// circuits — scalar path, a `[u64; 4]` lane walk, and the regalloc
    /// invariant (the slot buffer never exceeds the wire buffer).
    #[test]
    fn compiled_tape_agrees(seed in any::<u64>(), n_inputs in 1usize..10, n_comps in 1usize..120) {
        let circuit = random_circuit(seed, n_inputs, n_comps);
        let compiled = circuit.compile();
        prop_assert!(compiled.n_slots() <= circuit.n_wires());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let vectors: Vec<Vec<bool>> = (0..130)
            .map(|_| (0..n_inputs).map(|_| rng.gen()).collect())
            .collect();
        let scalar: Vec<Vec<bool>> = vectors.iter().map(|v| circuit.eval(v)).collect();
        let comp_scalar: Vec<Vec<bool>> = vectors.iter().map(|v| compiled.eval(v)).collect();
        prop_assert_eq!(&scalar, &comp_scalar);
        let mut wide: CompiledEvaluator<'_, [u64; 4]> = CompiledEvaluator::new(&compiled);
        let packed = pack_lanes_wide::<4>(&vectors, n_inputs);
        let comp_wide = unpack_lanes_wide(&wide.run(&packed), vectors.len());
        prop_assert_eq!(&scalar, &comp_wide);
    }

    /// Analyses are pure: repeated cost/depth calls agree, and depth
    /// never exceeds component count.
    #[test]
    fn analyses_are_consistent(seed in any::<u64>(), n_comps in 1usize..200) {
        let circuit = random_circuit(seed, 6, n_comps);
        let c1 = circuit.cost();
        let c2 = circuit.cost();
        prop_assert_eq!(c1, c2);
        let d = circuit.depth();
        prop_assert_eq!(d, circuit.depth());
        prop_assert!(d <= circuit.n_components());
        prop_assert!(c1.total >= circuit.n_components() as u64);
        let depths = circuit.output_depths();
        prop_assert_eq!(depths.iter().copied().max().unwrap_or(0), d);
    }

    /// The stats pass agrees with the independent depth/cost analyses.
    #[test]
    fn stats_agree_with_analyses(seed in any::<u64>(), n_comps in 1usize..150) {
        let circuit = random_circuit(seed, 5, n_comps);
        let stats = circuit.stats();
        prop_assert_eq!(stats.depth, circuit.depth());
        prop_assert_eq!(stats.cost, circuit.cost());
        let total: u32 = stats.components_per_level.iter().sum();
        prop_assert_eq!(total as usize, circuit.n_components());
    }
}
