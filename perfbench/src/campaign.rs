//! The `campaign` workload: n = 8 fault campaigns over all four networks,
//! back to back. One unit is one campaign.
//!
//! Every campaign report must equal the set-up unit's report, and after
//! the timed units an interpreter-engine campaign with the same seed must
//! equal it too. The traced run times each `run_network` call, reads the
//! compile spans and the mutant-score histogram the program records, and
//! replays the mutant patcher from outside.

use std::time::{Duration, Instant};

use absort_analysis::faults::{
    build_network, run_campaign, run_network, CampaignConfig, NetworkSel,
};
use absort_circuit::eval::pack_lanes_wide;
use absort_circuit::mutate::{self, Fault};
use absort_circuit::{Circuit, CompiledCircuit, CompiledEvaluator, Engine, Evaluator, MutantTape};
use absort_faults::CampaignReport;
use absort_networks::hardened::harden;

use crate::calib::Calib;
use crate::layers::{CAMPAIGN_NETS, PASSES};
use crate::stats::{median, ms, percentile, us, Rng};
use crate::trace::Spans;
use crate::{Bite, Ctx, Report};

/// Width every campaign sweeps: n ≥ 32 panics in exhaustive input
/// generation and n = 16 costs about a second per campaign.
const N: usize = 8;
/// `tail_ms` percentile: a run of 20 s holds ≥ 400 campaigns, so p95 has
/// ≥ 20 samples beyond it.
const TAIL: f64 = 95.0;
/// Timed repetitions of the outside mutant-patcher replay.
const PATCH_REPS: usize = 5;

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        n: N,
        seed,
        ..CampaignConfig::default()
    }
}

/// A report's canonical text, the form reports are compared in.
fn canonical(r: &CampaignReport) -> String {
    r.to_json().to_pretty()
}

pub fn run(ctx: &Ctx, rep: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let cfg = config(ctx.seed);
    // Set-up: one untimed campaign, which also pays every lazy
    // initialisation (the rewrite ruleset parse) and is the reference.
    let mut first = run_campaign(&NetworkSel::ALL, &cfg);
    rep.check(!first.truncated && first.networks.len() == 4, || {
        "set-up campaign is incomplete".to_owned()
    });
    if ctx.bite == Some(Bite::Oracle) {
        first.networks[0].kinds[0].detected += 1;
    }
    let reference = canonical(&first);
    let setup = ctx.since_start();
    rep.set("setup_s", setup * Calib::setup_factor());
    if ctx.setup_only {
        return Ok(());
    }

    let mut p50s = Vec::new();
    let mut per_net: [Vec<f64>; 4] = Default::default();
    let mut traced_units = 0usize;
    let mut traced_time = Duration::ZERO;
    let mut net_time = Duration::ZERO;
    let mut last_units = Vec::new();
    let mut calib = Calib::default();
    for (traced, dur) in ctx.phases() {
        if traced {
            absort_telemetry::reset();
            absort_telemetry::set_enabled(true);
        }
        let mut units = Vec::new();
        let phase_start = Instant::now();
        while units.is_empty() || phase_start.elapsed() < dur {
            let t0 = Instant::now();
            let report = if traced {
                let unit = spans.open();
                let mut networks = Vec::with_capacity(4);
                for (i, sel) in NetworkSel::ALL.into_iter().enumerate() {
                    let s = Instant::now();
                    networks.push(run_network(sel, &cfg));
                    let e = Instant::now();
                    per_net[i].push(ms(e - s));
                    net_time += e - s;
                    spans.leaf(unit, &format!("run_network/{}", CAMPAIGN_NETS[i]), s, e);
                }
                spans.close(unit, 0, "campaign", t0, Instant::now());
                CampaignReport {
                    seed: cfg.seed,
                    truncated: false,
                    networks,
                }
            } else {
                run_campaign(&NetworkSel::ALL, &cfg)
            };
            let dt = t0.elapsed();
            units.push((t0 + dt, ms(dt)));
            if traced {
                traced_units += 1;
                traced_time += dt;
            }
            rep.check(canonical(&report) == reference, || {
                format!("campaign {} differs from the set-up campaign", units.len())
            });
            calib.sample();
        }
        absort_telemetry::set_enabled(false);
        p50s.push(median(&mut units.iter().map(|u| u.1).collect::<Vec<_>>()));
        last_units = units;
    }

    let interp = run_campaign(
        &NetworkSel::ALL,
        &CampaignConfig {
            engine: Engine::Interp,
            ..cfg
        },
    );
    rep.check(canonical(&interp) == reference, || {
        "the interpreter-engine campaign differs from the compiled one".to_owned()
    });

    if !ctx.trace {
        let mut scaled = calib.scale(&last_units);
        rep.set("p50_ms", median(&mut scaled));
        rep.set("tail_ms", percentile(&mut scaled, TAIL));
        return Ok(());
    }
    for (net, mut s) in CAMPAIGN_NETS.iter().zip(per_net) {
        rep.set(&format!("campaign.{net}_ms"), median(&mut s));
    }
    program_layers(rep, traced_units as f64);
    patcher_replay(ctx, &cfg, rep, spans)?;
    let explained = net_time.as_secs_f64() / traced_time.as_secs_f64();
    rep.set_trace_shares(p50s[0], p50s[1], explained * p50s[1]);
    Ok(())
}

/// Per-campaign figures from the telemetry the program recorded during the
/// traced phase.
fn program_layers(rep: &mut Report, units: f64) {
    let snap = absort_telemetry::global().snapshot();
    let span_ms = |suffix: &str| -> f64 {
        snap.timings
            .iter()
            .filter(|(path, _)| path.ends_with(suffix))
            .map(|(_, t)| t.total_ns as f64 / 1e6)
            .sum::<f64>()
            / units
    };
    let mut passes = 0.0;
    for pass in PASSES {
        let t = span_ms(&format!("compile/pass/{pass}"));
        passes += t;
        rep.set(&format!("campaign.pass.{pass}_ms"), t);
    }
    rep.set("campaign.lower_ms", span_ms("compile/lower") - passes);
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64 / units)
    };
    rep.set(
        "faults.vectors_evaluated",
        counter("faults.vectors_evaluated"),
    );
    rep.set("eval.compiled_passes", counter("eval.compiled_passes"));
    if let Some((_, h)) = snap
        .hists
        .iter()
        .find(|(n, _)| n == "faults.mutant_score_ns")
    {
        rep.set("faults.score_p50_us", h.quantile(0.5) as f64 / 1e3);
        rep.set("faults.score_p99_us", h.quantile(0.99) as f64 / 1e3);
    }
}

/// Replays `CompiledCircuit::mutant_tape` over every component mutant of
/// the hardened base tapes, as one campaign does: counts the patched, dead
/// and recompiled mutants, times the patches and the recompiles, and checks
/// every patched or recompiled tape against the interpreter.
fn patcher_replay(
    ctx: &Ctx,
    cfg: &CampaignConfig,
    rep: &mut Report,
    spans: &mut Spans,
) -> Result<(), String> {
    let mut rng = Rng::new(ctx.seed ^ 0xfa17);
    let mut counts = [0u64; 3];
    let mut patch = Vec::new();
    let mut recompile = Vec::new();
    for r in 0..PATCH_REPS {
        let check = r == 0;
        let (mut patch_t, mut recompile_t) = (Duration::ZERO, Duration::ZERO);
        for sel in NetworkSel::ALL {
            let circuit = build_network(sel, N);
            let hardened = harden(&circuit, &cfg.harden);
            let mut base = hardened.circuit.compile_with(&cfg.opt);
            let vectors = rng.batch(256, N);
            for fault in Fault::ALL {
                for ci in mutate::applicable(&circuit, fault) {
                    let hci = hardened.component(ci);
                    let t0 = Instant::now();
                    let kind = match base.mutant_tape(hci, fault) {
                        MutantTape::Patched(_) => 0,
                        MutantTape::Dead => 1,
                        MutantTape::Unsupported => 2,
                    };
                    let t1 = Instant::now();
                    let unit = spans.open();
                    if kind == 2 {
                        let mutant = mutate::apply(&hardened.circuit, hci, fault)
                            .ok_or("an enumerated fault does not apply to the hardened netlist")?;
                        let tape = mutant.compile_with(&cfg.opt);
                        let t2 = Instant::now();
                        recompile_t += t2 - t1;
                        spans.close(unit, 0, "faults/recompile", t1, t2);
                        if check {
                            check_tape(rep, &mutant, &tape, &vectors);
                        }
                    } else {
                        patch_t += t1 - t0;
                        spans.close(unit, 0, "faults/patch", t0, t1);
                    }
                    if check {
                        counts[kind] += 1;
                        if let MutantTape::Patched(patched) = base.mutant_tape(hci, fault) {
                            let mutant = mutate::apply(&hardened.circuit, hci, fault).ok_or(
                                "an enumerated fault does not apply to the hardened netlist",
                            )?;
                            check_tape(rep, &mutant, &patched, &vectors);
                        }
                    }
                }
            }
        }
        patch.push(us(patch_t));
        recompile.push(ms(recompile_t));
    }
    rep.set("faults.mutants.patched", counts[0] as f64);
    rep.set("faults.mutants.dead", counts[1] as f64);
    rep.set("faults.mutants.recompiled", counts[2] as f64);
    rep.set("faults.patch_us", median(&mut patch));
    rep.set("faults.recompile_ms", median(&mut recompile));
    Ok(())
}

/// Checks a compiled tape against the interpreter on `vectors`.
pub fn check_tape(
    rep: &mut Report,
    circuit: &Circuit,
    tape: &CompiledCircuit,
    vectors: &[Vec<bool>],
) {
    let packed = pack_lanes_wide::<4>(vectors, circuit.n_inputs());
    let want = Evaluator::<[u64; 4]>::new(circuit).run(&packed);
    let got = CompiledEvaluator::<[u64; 4]>::new(tape).run(&packed);
    rep.check(got == want, || {
        format!(
            "compiled tape of a {}-input circuit disagrees with the interpreter",
            circuit.n_inputs()
        )
    });
}
