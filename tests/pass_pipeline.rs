//! Pass-pipeline acceptance tests.
//!
//! The compiled engine's optimization passes must be *invisible* in
//! results: every network in the catalog, at both opt levels, must
//! evaluate exhaustively identically to the interpreter — and a whole
//! fault campaign must produce a bit-identical report no matter which
//! opt level compiled its tapes (the provenance contract: dead sites are
//! genuinely unobservable, every other component is one patchable op).

use absort::analysis::faults::{self as fc, fish_k, run_campaign, CampaignConfig, NetworkSel};
use absort::circuit::ir::lower;
use absort::circuit::passes::const_prologue::ConstPrologue;
use absort::circuit::passes::dce::Dce;
use absort::circuit::passes::schedule::schedule;
use absort::circuit::passes::Pass;
use absort::circuit::{Circuit, CompileOptions, CompiledEvaluator, Engine, Evaluator, OptLevel};
use absort::core::{fish, muxmerge, nonadaptive, prefix};
use absort::networks::hardened::{harden, HardenOptions};

/// The network catalog at width `n` (fish needs `k ≤ n/k`, so it joins
/// from `n = 4` up), plus their duplicate-and-compare wrappers.
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

/// Every pass configuration the sweep covers: the opt tiers.
fn configurations() -> Vec<(String, OptLevel)> {
    OptLevel::ALL
        .into_iter()
        .map(|l| (format!("O{l}"), l))
        .collect()
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
/// network at every opt level at n ≤ 8. Debug builds also
/// run the per-pass IR differential check inside each compile.
#[test]
fn every_configuration_matches_interpreter_exhaustively() {
    for n in [2usize, 4, 8] {
        for (name, circuit) in catalog(n) {
            let mut interp: Evaluator<'_, u64> = Evaluator::new(&circuit);
            for (cfg_name, level) in configurations() {
                let opts = CompileOptions {
                    level,
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
        let passes: [&dyn Pass; 2] = [&ConstPrologue, &Dce];
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

/// Optimization must shrink, never grow, the tape: O1 is never longer
/// than O0 on the catalog or its hardened wrappers.
#[test]
fn higher_opt_levels_never_grow_the_tape() {
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
            lens[1] <= lens[0],
            "{name}: tape lengths not monotone across O0/O1: {lens:?}"
        );
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
    let o1 = report_at(OptLevel::default());
    assert_eq!(o0, o1, "default campaign report diverged from O0");
    // And the duplicate-hardened wrapper must hold the same contract.
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
        dup_report(OptLevel::default()),
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

/// Passes change the tape, never the fault report: byte-identical
/// campaign JSON between the unoptimized tape and the default pipeline,
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
    let o1 = run_campaign(&NetworkSel::ALL, &cfg(OptLevel::default()));
    assert_eq!(
        o0.to_json().to_pretty(),
        o1.to_json().to_pretty(),
        "campaign report must be bit-identical between O0 and the default"
    );
}
