//! Pass-pipeline acceptance tests.
//!
//! The compiled engine's optimization passes must be *invisible* in
//! results: every network in the catalog, at every opt level and under
//! every single-pass-disabled configuration, must evaluate exhaustively
//! identically to the interpreter — and a whole fault campaign must
//! produce a bit-identical report no matter which opt level compiled
//! its tapes (the provenance contract: dead sites are genuinely
//! unobservable, folded sites fall back to per-mutant recompiles; a
//! crafted CSE merge pins the split site by site).

use absort::analysis::faults::{self as fc, fish_k, run_campaign, CampaignConfig, NetworkSel};
use absort::circuit::compile::MutantTape;
use absort::circuit::ir::lower;
use absort::circuit::mutate::{self, Fault};
use absort::circuit::passes::const_prologue::ConstPrologue;
use absort::circuit::passes::const_prop::ConstProp;
use absort::circuit::passes::cse::Cse;
use absort::circuit::passes::dce::Dce;
use absort::circuit::passes::schedule::schedule;
use absort::circuit::passes::Pass;
use absort::circuit::{
    Builder, Circuit, CompileOptions, CompiledEvaluator, Engine, Evaluator, GateOp, OptLevel,
    PassName, PassSet,
};
use absort::core::{fish, muxmerge, nonadaptive, prefix};
use absort::networks::hardened::{harden, HardenOptions};

/// The network catalog at width `n` (fish needs `k ≤ n/k`, so it joins
/// from `n = 4` up), plus the hardened wrappers campaigns actually
/// sweep — the circuits where CSE genuinely fires.
fn catalog(n: usize) -> Vec<(String, Circuit)> {
    let mut v = bare(n);
    let hardened: Vec<(String, Circuit)> = v
        .iter()
        .map(|(name, c)| {
            let h = harden(
                c,
                &HardenOptions {
                    duplicate: true,
                    ..Default::default()
                },
            );
            (format!("{name}+hardened"), h.circuit)
        })
        .collect();
    v.extend(hardened);
    v
}

/// The bare catalog networks at width `n`.
fn bare(n: usize) -> Vec<(String, Circuit)> {
    let mut v = vec![
        ("prefix".to_owned(), prefix::build(n)),
        ("mux-merger".to_owned(), muxmerge::build(n)),
        ("batcher".to_owned(), nonadaptive::build(n)),
    ];
    if n >= 4 {
        v.push((
            "fish".to_owned(),
            fish::circuits::build_combinational_kmerger(n, fish_k(n)),
        ));
    }
    v
}

/// Every pass configuration the sweep covers: the three tiers plus each
/// "all passes except one" set (catches pass-order dependencies a tier
/// sweep would miss).
fn configurations() -> Vec<(String, PassSet)> {
    let mut v: Vec<(String, PassSet)> = OptLevel::ALL
        .into_iter()
        .map(|l| (format!("O{l}"), l.passes()))
        .collect();
    for p in PassName::ALL {
        v.push((format!("all-minus-{p}"), PassSet::ALL.without(p)));
    }
    v
}

/// Packs the 64 consecutive integers starting at `base` into lane words.
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

/// Exhaustive interpreter-vs-compiled equivalence for every catalog
/// network under every pass configuration at n ≤ 8. Debug builds also
/// run the per-pass IR differential check inside each compile.
#[test]
fn every_configuration_matches_interpreter_exhaustively() {
    for n in [2usize, 4, 8] {
        for (name, circuit) in catalog(n) {
            let mut interp: Evaluator<'_, u64> = Evaluator::new(&circuit);
            for (cfg_name, passes) in configurations() {
                let opts = CompileOptions {
                    passes,
                    verify: true,
                };
                let compiled = circuit.compile_with(&opts);
                let mut comp: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&compiled);
                let total = 1u64 << circuit.n_inputs();
                let mut v = 0u64;
                while v < total {
                    let lanes = (total - v).min(64) as usize;
                    let packed = pack_range(circuit.n_inputs(), v, lanes);
                    let want = interp.run(&packed);
                    let got = comp.run(&packed);
                    assert_eq!(got, want, "{name} n={n} cfg={cfg_name} vectors at {v}");
                    v += lanes as u64;
                }
            }
        }
    }
}

/// The schedule stage's counting sort on level yields exactly the order
/// a stable comparison sort yields, on the post-pass IR of every catalog
/// network at n = 8…256 and of the duplicate-hardened wrappers at n = 8.
#[test]
fn schedule_order_is_the_stable_sort_by_level() {
    let circuits = (3..=8).flat_map(|lg| {
        let n = 1 << lg;
        let nets = if n == 8 { catalog(n) } else { bare(n) };
        nets.into_iter()
            .map(move |(name, c)| (format!("{name} n={n}"), c))
    });
    for (name, c) in circuits {
        let mut ir = lower(&c);
        let passes: [&dyn Pass; 4] = [&ConstPrologue, &ConstProp, &Cse, &Dce];
        for p in passes {
            p.run(&mut ir);
        }
        let mut got = ir.clone();
        schedule(&mut got);
        // The reference: the levels the stage assigned, then std's stable
        // sort over the unscheduled order.
        let mut level = vec![0; got.n_vals as usize];
        for op in &got.ops {
            level[op.defs[0] as usize] = op.level;
        }
        let mut want = ir.ops;
        for op in &mut want {
            op.level = level[op.defs[0] as usize];
        }
        want.sort_by_key(|op| op.level);
        assert!(got.ops == want, "{name}: schedule order differs");
    }
}

/// Optimization must shrink, never grow, the tape — and the default
/// (O2) pipeline must show a measured reduction over O1 on the hardened
/// catalog (CSE merges checker structure).
#[test]
fn higher_opt_levels_never_grow_the_tape() {
    let mut o2_won_somewhere = false;
    for (name, circuit) in catalog(8) {
        let lens: Vec<usize> = OptLevel::ALL
            .into_iter()
            .map(|l| {
                circuit
                    .compile_with(&CompileOptions::for_level(l))
                    .tape_len()
            })
            .collect();
        assert!(
            lens[1] <= lens[0] && lens[2] <= lens[1],
            "{name}: tape lengths not monotone across O0/O1/O2: {lens:?}"
        );
        if lens[2] < lens[1] {
            o2_won_somewhere = true;
        }
    }
    assert!(
        o2_won_somewhere,
        "CSE + const-prop must shrink some catalog tape beyond O1"
    );
}

/// The bare networks' builders place no logic that const-prop or CSE
/// would remove: at every n = 4…1024 both passes find nothing, and the
/// O2 tape is the O1 tape op for op, slot for slot.
#[test]
fn o2_finds_nothing_on_the_bare_networks() {
    for lg in 2..=10 {
        let n = 1 << lg;
        for (name, circuit) in bare(n) {
            let o1 = circuit.compile_with(&CompileOptions::for_level(OptLevel::O1));
            let o2 = circuit.compile_with(&CompileOptions::for_level(OptLevel::O2));
            for pass in [PassName::ConstProp, PassName::Cse] {
                let stats = o2
                    .pass_stats()
                    .iter()
                    .find(|s| s.name == pass.name())
                    .unwrap_or_else(|| panic!("{name} n={n}: O2 ran no {pass}"));
                assert_eq!(stats.removed(), 0, "{name} n={n}: {pass} removed ops");
            }
            assert!(o2.tape() == o1.tape(), "{name} n={n}: O2 tape differs");
            assert_eq!(o2.perm_sets(), o1.perm_sets(), "{name} n={n}");
            assert_eq!(o2.n_slots(), o1.n_slots(), "{name} n={n}");
            assert_eq!(o2.input_slots(), o1.input_slots(), "{name} n={n}");
            assert_eq!(o2.output_slots(), o1.output_slots(), "{name} n={n}");
        }
    }
}

/// A fault campaign's report must be bit-identical across opt levels:
/// the pass pipeline may only change how fast mutants are swept, never
/// a single report cell.
#[test]
fn campaign_reports_identical_across_opt_levels() {
    let nets = [NetworkSel::Prefix, NetworkSel::Fish];
    let report_at = |level: OptLevel| {
        let cfg = fc::CampaignConfig {
            n: 4,
            engine: Engine::Compiled,
            opt: CompileOptions::for_level(level),
            ..Default::default()
        };
        fc::run_campaign(&nets, &cfg).to_json().to_pretty()
    };
    let o0 = report_at(OptLevel::O0);
    let o2 = report_at(OptLevel::O2);
    assert_eq!(o0, o2, "O2 campaign report diverged from O0");
    // And the duplicate-hardened wrapper — where CSE folds the whole
    // duplicate core — must hold the same contract.
    let dup_report = |level: OptLevel| {
        let cfg = fc::CampaignConfig {
            n: 4,
            engine: Engine::Compiled,
            opt: CompileOptions::for_level(level),
            harden: HardenOptions {
                duplicate: true,
                ..Default::default()
            },
            ..Default::default()
        };
        fc::run_network(NetworkSel::MuxMerger, &cfg)
            .to_json()
            .to_pretty()
    };
    assert_eq!(
        dup_report(OptLevel::O0),
        dup_report(OptLevel::O2),
        "duplicate-hardened campaign diverged across opt levels"
    );
}

/// The report's cost columns price the hardening trade: the wrapper
/// always costs more than the base, and duplicate-and-compare more
/// still.
#[test]
fn report_cost_columns_price_the_hardening() {
    let cfg = fc::CampaignConfig {
        n: 4,
        ..Default::default()
    };
    let cheap = fc::run_network(NetworkSel::Prefix, &cfg);
    assert!(cheap.base_cost > 0);
    assert!(cheap.hardened_cost > cheap.base_cost);
    let dup_cfg = fc::CampaignConfig {
        harden: HardenOptions {
            duplicate: true,
            ..Default::default()
        },
        ..cfg
    };
    let dup = fc::run_network(NetworkSel::Prefix, &dup_cfg);
    assert_eq!(dup.base_cost, cheap.base_cost);
    assert!(
        dup.hardened_cost >= cheap.hardened_cost + dup.base_cost,
        "duplicate-and-compare must at least double the core"
    );
}

/// CSE provenance split, pinned on a crafted netlist:
///
/// * comps 0, 1 and 2 — the merge survivor (it stands for three
///   components at once) and both duplicates, observed or not: the tape
///   holds no faithful single-component image, so mutants must
///   recompile (`Unsupported`);
/// * comps 3 and 4 — live downstream gates → patched in place;
/// * comp 5 — a gate nothing observes and nothing merged with → removed
///   by DCE, so every mutant is output-equivalent (`Dead`).
#[test]
fn cse_merge_sites_pin_the_dead_patched_recompiled_split() {
    let mut b = Builder::new();
    let ins = b.input_bus(3);
    let g1 = b.gate(GateOp::And, ins[0], ins[1]); // comp 0 (survivor)
    let g2 = b.gate(GateOp::And, ins[0], ins[1]); // comp 1 (dup, observed)
    let _g3 = b.gate(GateOp::And, ins[0], ins[1]); // comp 2 (dup, unobserved)
    let x = b.gate(GateOp::Xor, g1, g2); // comp 3
    let y = b.gate(GateOp::Or, g2, ins[2]); // comp 4
    let _dead = b.gate(GateOp::Or, ins[0], ins[2]); // comp 5 (unobserved)
    b.outputs(&[x, y]);
    let c = b.finish();

    let mut cc = c.compile();
    for comp in [0usize, 1, 2] {
        assert!(
            matches!(
                cc.mutant_tape(comp, Fault::InvertBehaviour),
                MutantTape::Unsupported
            ),
            "comp {comp}: merged sites must force the recompile fallback"
        );
    }
    // Comp 3 reads the merged value twice (v ^ v); no pass folds that,
    // so it stays a live gate the tape patches in place.
    for comp in [3usize, 4] {
        assert!(
            matches!(
                cc.mutant_tape(comp, Fault::InvertBehaviour),
                MutantTape::Patched(_)
            ),
            "comp {comp}: live gate must stay patchable in place"
        );
    }
    assert!(
        matches!(cc.mutant_tape(5, Fault::InvertBehaviour), MutantTape::Dead),
        "comp 5: dead code must score Dead without recompiling"
    );

    // Semantic backstop for the Dead verdict: the actual netlist mutant
    // of comp 5 is output-equivalent to the base on every input.
    let mutant5 = mutate::apply(&c, 5, Fault::InvertBehaviour).expect("fault applies");
    for v in 0..1u64 << 3 {
        let bits: Vec<bool> = (0..3).map(|i| v >> i & 1 == 1).collect();
        assert_eq!(mutant5.eval(&bits), c.eval(&bits), "input {v:03b}");
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

/// Passes change the tape, never the fault report: byte-identical
/// campaign JSON between the unoptimized tape and the full O2 pipeline,
/// over all four networks at n = 8.
#[test]
fn fault_campaign_report_is_byte_identical_across_opt_levels() {
    let cfg = |level: OptLevel| CampaignConfig {
        n: 8,
        engine: Engine::Compiled,
        opt: CompileOptions::for_level(level),
        ..CampaignConfig::default()
    };
    let o0 = run_campaign(&NetworkSel::ALL, &cfg(OptLevel::O0));
    let o2 = run_campaign(&NetworkSel::ALL, &cfg(OptLevel::O2));
    assert_eq!(
        o0.to_json().to_pretty(),
        o2.to_json().to_pretty(),
        "campaign report must be bit-identical between O0 and O2"
    );
}
