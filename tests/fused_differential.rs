//! Differential coverage of the post-regalloc `fuse` pass and its
//! provenance contract.
//!
//! * exhaustive fused-vs-unfused tape equivalence at `n ≤ 8` for every
//!   catalog network × opt level;
//! * fused tapes carry no standalone mask-reuse ops and actually shrink
//!   the hot tapes;
//! * fault-campaign reports are bit-identical between fused and unfused
//!   sweeps (fused sites recompile instead of mispatching);
//! * CSE merge-site provenance: the Dead / patched / recompiled split,
//!   including the `FoldHint::Equivalent` fast path for merged comps
//!   nothing observes.

use absort::analysis::faults::{self as fc, fish_k, NetworkSel};
use absort::circuit::compile::{MicroOp, MutantTape, REUSE_MASKS};
use absort::circuit::mutate::{self, Fault};
use absort::circuit::{
    Builder, Circuit, CompileOptions, CompiledEvaluator, Engine, Evaluator, GateOp, OptLevel,
    PassName,
};
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

/// Exhaustive equivalence: fused tapes agree with the interpreter on
/// every input vector, for every catalog network at every opt level, on
/// both the wide and the scalar dispatch flavours.
#[test]
fn fused_tapes_match_interpreter_exhaustively() {
    for n in [2usize, 4, 8] {
        for (name, circuit) in catalog(n) {
            let mut interp: Evaluator<'_, u64> = Evaluator::new(&circuit);
            for level in OptLevel::ALL {
                let mut opts = CompileOptions::for_level(level).with_fuse();
                opts.verify = true;
                let compiled = circuit.compile_with(&opts);
                let mut comp: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&compiled);
                let mut scalar: CompiledEvaluator<'_, bool> = CompiledEvaluator::new(&compiled);
                let total = 1u64 << n;
                let mut v = 0u64;
                while v < total {
                    let lanes = (total - v).min(64) as usize;
                    let packed = pack_range(n, v, lanes);
                    let want = interp.run(&packed);
                    let got = comp.run(&packed);
                    assert_eq!(got, want, "{name} n={n} O{level} vectors at {v}");
                    v += lanes as u64;
                }
                // Scalar dispatch decodes 4×4 switches to indexed
                // moves — sweep it too.
                for x in 0..total.min(64) {
                    let bits: Vec<bool> = (0..n).map(|i| x >> i & 1 == 1).collect();
                    assert_eq!(
                        scalar.run(&bits),
                        circuit.eval(&bits),
                        "{name} n={n} O{level} scalar input {x:b}"
                    );
                }
            }
        }
    }
}

/// Fused tapes must (a) record a `fuse` pass-stats row, (b) shrink the
/// dispatch count on the switch-heavy catalog entries, and (c) contain
/// no standalone mask-reuse ops — every reuse run either became an
/// `S4Chain` or had its flag cleared.
#[test]
fn fusion_compresses_and_normalizes_the_tape() {
    let opts = CompileOptions::default().with_fuse();
    let mut fused_somewhere = false;
    for (name, circuit) in catalog(8) {
        let cc = circuit.compile_with(&opts);
        let row = cc
            .pass_stats()
            .iter()
            .find(|s| s.name == "fuse")
            .unwrap_or_else(|| panic!("{name}: no fuse row in pass stats"));
        assert!(
            row.ops_after <= row.ops_before,
            "{name}: fuse grew the tape"
        );
        if row.ops_after < row.ops_before {
            fused_somewhere = true;
        }
        for (i, op) in cc.tape().iter().enumerate() {
            if let MicroOp::Switch4 { pidx, .. } = op {
                assert_eq!(
                    pidx & REUSE_MASKS,
                    0,
                    "{name}: standalone mask-reuse op survived fusion at {i}"
                );
            }
        }
    }
    assert!(fused_somewhere, "fuse pass never fused anything at n=8");

    // The mux-merger tape is one long run of 4×4-switch columns; fusion
    // must collapse a substantial fraction of its dispatches.
    let cc = muxmerge::build(8).compile_with(&opts);
    let row = cc.pass_stats().iter().find(|s| s.name == "fuse").unwrap();
    assert!(
        row.ops_after * 10 <= row.ops_before * 9,
        "mux-merger fusion too weak: {} -> {}",
        row.ops_before,
        row.ops_after
    );
    assert!(
        !cc.s4_chains().is_empty(),
        "mux-merger grew no switch chains"
    );
}

/// The acceptance pin: fault-campaign reports are bit-identical between
/// unfused and fused sweeps. Fused sites lose in-place patching and must
/// transparently recompile.
#[test]
fn campaign_reports_identical_fused_vs_unfused() {
    let nets = [NetworkSel::Prefix, NetworkSel::MuxMerger, NetworkSel::Fish];
    let report_with = |opt: CompileOptions| {
        let cfg = fc::CampaignConfig {
            n: 4,
            engine: Engine::Compiled,
            opt,
            ..Default::default()
        };
        fc::run_campaign(&nets, &cfg).to_json().to_pretty()
    };
    let base = report_with(CompileOptions::default());
    assert_eq!(
        base,
        report_with(CompileOptions::default().with_fuse()),
        "fused campaign report diverged"
    );
}

/// CSE provenance split, pinned on a crafted netlist:
///
/// * comps 0 and 1 — the merge survivor (shared, stands for two
///   components at once) and its observed duplicate: the tape holds no
///   faithful single-component image, mutants must recompile
///   (`Unsupported`);
/// * comp 2 — merged duplicate nothing observes → `FoldHint::Equivalent`
///   proves every mutant output-equivalent (`Dead`), no recompile;
/// * comps 3 and 4 — live downstream gates → patched in place.
#[test]
fn cse_merge_sites_pin_the_dead_patched_recompiled_split() {
    let mut b = Builder::new();
    let ins = b.input_bus(3);
    let g1 = b.gate(GateOp::And, ins[0], ins[1]); // comp 0 (survivor, shared)
    let g2 = b.gate(GateOp::And, ins[0], ins[1]); // comp 1 (dup, observed)
    let _g3 = b.gate(GateOp::And, ins[0], ins[1]); // comp 2 (dup, unobserved)
    let x = b.gate(GateOp::Xor, g1, g2); // comp 3
    let y = b.gate(GateOp::Or, g2, ins[2]); // comp 4
    b.outputs(&[x, y]);
    let c = b.finish();

    // O2 minus the rewrite pass: after CSE merges g1/g2 into one value
    // v, the ruleset would fold comp 3 (v ^ v -> false) and obscure the
    // CSE split this test pins; the rewrite interaction is asserted
    // separately below.
    let mut opts = CompileOptions::default();
    opts.passes = opts.passes.without(PassName::Rewrite);
    let mut cc = c.compile_with(&opts);
    for comp in [0usize, 1] {
        assert!(
            matches!(
                cc.mutant_tape(comp, Fault::InvertBehaviour),
                MutantTape::Unsupported
            ),
            "comp {comp}: merged sites must force the recompile fallback"
        );
    }
    assert!(
        matches!(cc.mutant_tape(2, Fault::InvertBehaviour), MutantTape::Dead),
        "unobserved merged duplicate must score Dead without recompiling"
    );
    for comp in [3usize, 4] {
        assert!(
            matches!(
                cc.mutant_tape(comp, Fault::InvertBehaviour),
                MutantTape::Patched(_)
            ),
            "comp {comp}: live gate must stay patchable in place"
        );
    }

    // With the rewrite pass back on (full default O2), the ruleset
    // folds comp 3's v ^ v to a constant; its provenance marks the
    // site Rewritten, so mutants fall back to the recompile path
    // rather than patching a tape that no longer holds the gate.
    let mut cc_o2 = c.compile();
    assert!(
        matches!(
            cc_o2.mutant_tape(3, Fault::InvertBehaviour),
            MutantTape::Unsupported | MutantTape::Dead
        ),
        "comp 3: rewritten x^x site must not claim an in-place patch"
    );

    // Semantic backstop for the Dead verdict: the actual netlist mutant
    // of comp 2 is output-equivalent to the base on every input.
    let mutant = mutate::apply(&c, 2, Fault::InvertBehaviour).expect("fault applies");
    for v in 0..1u64 << 3 {
        let bits: Vec<bool> = (0..3).map(|i| v >> i & 1 == 1).collect();
        assert_eq!(mutant.eval(&bits), c.eval(&bits), "input {v:03b}");
    }

    // And the recompile verdict for comp 1 is not spurious: its mutant
    // really does change an output somewhere.
    let mutant1 = mutate::apply(&c, 1, Fault::InvertBehaviour).expect("fault applies");
    assert!(
        (0..1u64 << 3).any(|v| {
            let bits: Vec<bool> = (0..3).map(|i| v >> i & 1 == 1).collect();
            mutant1.eval(&bits) != c.eval(&bits)
        }),
        "comp 1 mutant should be observable"
    );
}
