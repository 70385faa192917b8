//! Integration pins for the `rewrite` pass.
//!
//! * **pinned output** — O2 tape length, slot count and per-rule hits on
//!   the bare catalog at n = 64, the duplicate-hardened catalog at n = 8
//!   and fish at n = 64 with const-prop off (the only `and-idem` site);
//! * **tape reduction** — the pass must keep buying ≥ 5% of the
//!   post-pipeline tape on at least two catalog networks at n = 64, and
//!   must never grow any network at any size;
//! * **fault-campaign byte-identity** — the `--network all` campaign
//!   report is bit-for-bit identical between O0 and O2 (the provenance
//!   contract: rewrites change the tape, never the report).
//!
//! Semantic preservation is `pass_pipeline`'s exhaustive sweep, which
//! covers every opt level with and without this pass.

use absort::analysis::faults::{fish_k, run_campaign, CampaignConfig, NetworkSel};
use absort::circuit::{Circuit, CompileOptions, Engine, OptLevel, PassName};
use absort::core::{fish, muxmerge, nonadaptive, prefix};
use absort::networks::hardened::{harden, HardenOptions};

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

/// The pass buys at least 5% of the post-pipeline tape on ≥ 2 catalog
/// networks at n = 64, and never grows any network at any tested size.
#[test]
fn ruleset_reduces_tape_and_never_grows_it() {
    let mut wins = Vec::new();
    for n in [8usize, 64] {
        for (name, circuit) in catalog(n) {
            let on = circuit.compile().tape_len();
            let mut off_opts = CompileOptions::default();
            off_opts.passes = off_opts.passes.without(PassName::Rewrite);
            let off = circuit.compile_with(&off_opts).tape_len();
            assert!(
                on <= off,
                "{name} n={n}: rewrite grew the tape ({off} -> {on} ops)"
            );
            if n == 64 && (off - on) as f64 / off as f64 >= 0.05 {
                wins.push(name);
            }
        }
    }
    assert!(
        wins.len() >= 2,
        "rewrite must buy >=5% on at least two catalog networks at n=64, got {wins:?}"
    );
}

/// Rewrites change the tape, never the fault report: byte-identical
/// campaign JSON between the unoptimized tape and the full O2 pipeline.
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

/// The rewrite pass must actually report through telemetry-visible
/// surfaces: pass stats on the tape it shrank, and per-rule hit
/// counters for `absort inspect`.
#[test]
fn rewrite_reports_pass_stats_and_rule_hits() {
    let cc = prefix::build(64).compile();
    let stats = cc
        .pass_stats()
        .iter()
        .find(|s| s.name == "rewrite")
        .expect("rewrite pass runs at the default O2");
    assert!(
        stats.ops_after < stats.ops_before,
        "rewrite must shrink prefix n=64 ({} -> {})",
        stats.ops_before,
        stats.ops_after
    );
    assert!(
        !cc.rewrite_hits().is_empty(),
        "per-rule hit counters must be recorded"
    );
    assert!(cc.rewrite_hits().iter().all(|(_, hits)| *hits > 0));
}

/// `(tape_len, n_slots, rewrite_hits)` of one compile.
fn outcome(c: &Circuit, opts: &CompileOptions) -> (usize, usize, Vec<(String, u32)>) {
    let cc = c.compile_with(opts);
    (cc.tape_len(), cc.n_slots(), cc.rewrite_hits().to_vec())
}

fn hits(list: &[(&str, u32)]) -> Vec<(String, u32)> {
    list.iter().map(|&(r, n)| (r.to_owned(), n)).collect()
}

/// The pass's output on the catalog, pinned at the values the
/// declarative rule engine it replaced produced.
#[test]
fn rewrite_pass_output_is_pinned() {
    let o2 = CompileOptions::default();
    let fish_at = |n| fish::circuits::build_combinational_kmerger(n, fish_k(n));
    let bare = [
        (
            "prefix",
            prefix::build(64),
            1162,
            131,
            hits(&[("pair-and-xor", 168)]),
        ),
        ("mux-merger", muxmerge::build(64), 321, 96, hits(&[])),
        (
            "fish",
            fish_at(64),
            1693,
            394,
            hits(&[("pair-and-xor", 132)]),
        ),
        ("nonadaptive", nonadaptive::build(64), 672, 64, hits(&[])),
    ];
    for (name, c, tape, slots, want) in bare {
        assert_eq!(outcome(&c, &o2), (tape, slots, want), "{name} n=64");
    }

    let dup = HardenOptions {
        duplicate: true,
        ..Default::default()
    };
    let wrapper_hits = hits(&[("or-idem", 7), ("pair-and-xor", 30), ("syn-xor-x-x", 8)]);
    let hardened = [
        ("prefix", prefix::build(8), 110, 30),
        ("mux-merger", muxmerge::build(8), 86, 30),
        ("fish", fish_at(8), 120, 30),
        ("nonadaptive", nonadaptive::build(8), 93, 31),
    ];
    for (name, c, tape, slots) in hardened {
        let h = harden(&c, &dup).circuit;
        assert_eq!(
            outcome(&h, &o2),
            (tape, slots, wrapper_hits.clone()),
            "{name}+duplicate n=8"
        );
    }

    let mut no_const_prop = o2;
    no_const_prop.passes = no_const_prop.passes.without(PassName::ConstProp);
    assert_eq!(
        outcome(&fish_at(64), &no_const_prop),
        (
            1882,
            441,
            hits(&[("and-idem", 1), ("pair-and-xor", 201), ("syn-xor-x-x", 1)])
        ),
        "fish n=64 without const-prop"
    );
}
