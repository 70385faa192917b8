//! The `compile` workload: build plus O2 `compile_with` of prefix,
//! mux-merger, fish and nonadaptive at n = 1024. One unit is one round of
//! the four; every tape of every round is checked against the interpreter
//! on a seeded batch of 256 vectors, outside the timed span.

use std::time::{Duration, Instant};

use absort_analysis::faults::{build_network, NetworkSel};
use absort_circuit::eval::pack_lanes_wide;
use absort_circuit::mutate::Fault;
use absort_circuit::{
    Circuit, CompileOptions, CompiledCircuit, CompiledEvaluator, Evaluator, MutantTape, OptLevel,
};

use crate::calib::Calib;
use crate::layers::{COMPILE_NETS, PASSES};
use crate::stats::{median, ms, percentile, Rng};
use crate::trace::Spans;
use crate::{Bite, Ctx, Report};

const N: usize = 1024;
const NETS: [NetworkSel; 4] = [
    NetworkSel::Prefix,
    NetworkSel::MuxMerger,
    NetworkSel::Fish,
    NetworkSel::Batcher,
];
/// `tail_ms` percentile. A round takes about 0.55 s, so a run of 20 s holds
/// about 35 rounds and no percentile above p70 has ten samples beyond it;
/// p90 is the stated tail all the same.
const TAIL: f64 = 90.0;
/// O1 compiles per network, for the O1 reference time.
const O1_REPS: usize = 3;

/// One network's build and compile, with the instants that bound them.
struct Built {
    circuit: Circuit,
    tape: CompiledCircuit,
    /// Build start, compile start, compile end.
    at: [Instant; 3],
}

impl Built {
    fn build(&self) -> Duration {
        self.at[1] - self.at[0]
    }

    fn compile(&self) -> Duration {
        self.at[2] - self.at[1]
    }
}

/// One round: build then compile each network, back to back. Under
/// telemetry each compile sits in a `bench/<net>` span so the program's
/// pass spans are attributed per network.
fn round(opts: &CompileOptions) -> (Vec<Built>, Duration) {
    let start = Instant::now();
    let built = NETS
        .iter()
        .zip(COMPILE_NETS)
        .map(|(&sel, name)| {
            let t0 = Instant::now();
            let circuit = build_network(sel, N);
            let t1 = Instant::now();
            let tape = {
                let _span = absort_telemetry::span(&format!("bench/{name}"));
                circuit.compile_with(opts)
            };
            let t2 = Instant::now();
            Built {
                circuit,
                tape,
                at: [t0, t1, t2],
            }
        })
        .collect();
    (built, start.elapsed())
}

/// Checks every tape of a round against the interpreter. Under `--bite`
/// the oracle is corrupted, or the first tape is swapped for a mutant's.
fn check_round(ctx: &Ctx, rng: &mut Rng, built: &[Built], rep: &mut Report) {
    for (b, name) in built.iter().zip(COMPILE_NETS) {
        let packed = pack_lanes_wide::<4>(&rng.batch(256, N), N);
        let mut want = Evaluator::<[u64; 4]>::new(&b.circuit).run(&packed);
        let mut tape = b.tape.clone();
        match ctx.bite {
            Some(Bite::Oracle) => want[0][0] ^= 1,
            Some(Bite::Tape) => tape = differing_mutant(&tape, &want, &packed).unwrap_or(tape),
            None => {}
        }
        let got = CompiledEvaluator::<[u64; 4]>::new(&tape).run(&packed);
        rep.check(got == want, || {
            format!("{name} n={N}: compiled tape disagrees with the interpreter")
        });
    }
}

/// The first in-place mutant of `tape` whose outputs on `packed` differ
/// from `want`.
fn differing_mutant(
    tape: &CompiledCircuit,
    want: &[[u64; 4]],
    packed: &[[u64; 4]],
) -> Option<CompiledCircuit> {
    let mut base = tape.clone();
    (0..tape.source_components()).find_map(|ci| {
        match base.mutant_tape(ci, Fault::InvertBehaviour) {
            MutantTape::Patched(p) => {
                let out = CompiledEvaluator::<[u64; 4]>::new(&p).run(packed);
                (out != want).then(|| (*p).clone())
            }
            _ => None,
        }
    })
}

pub fn run(ctx: &Ctx, rep: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let mut rng = Rng::new(ctx.seed);
    let opts = CompileOptions::default();
    // Set-up: one untimed round, which pays the lazy ruleset parse.
    let (built, _) = round(&opts);
    check_round(ctx, &mut rng, &built, rep);
    drop(built);
    let setup = ctx.since_start();
    rep.set("setup_s", setup * Calib::setup_factor());
    if ctx.setup_only {
        return Ok(());
    }

    let mut p50s = Vec::new();
    let mut last_units = Vec::new();
    let mut per_net: [[Vec<f64>; 3]; 4] = Default::default();
    let (mut traced_time, mut timed_layers) = (Duration::ZERO, Duration::ZERO);
    let mut rounds = 0usize;
    let mut last = Vec::new();
    let mut calib = Calib::default();
    for (traced, dur) in ctx.phases() {
        if traced {
            absort_telemetry::reset();
            absort_telemetry::set_enabled(true);
        }
        let mut units = Vec::new();
        let phase_start = Instant::now();
        while units.is_empty() || phase_start.elapsed() < dur {
            let (built, dt) = round(&opts);
            units.push((built[0].at[0] + dt, ms(dt)));
            if traced {
                rounds += 1;
                traced_time += dt;
                let unit = spans.open();
                for (i, b) in built.iter().enumerate() {
                    let [t0, t1, t2] = b.at;
                    spans.leaf(unit, &format!("build/{}", COMPILE_NETS[i]), t0, t1);
                    spans.leaf(unit, &format!("compile/{}", COMPILE_NETS[i]), t1, t2);
                    timed_layers += t2 - t0;
                    let d0 = Instant::now();
                    drop(CompiledEvaluator::<[u64; 4]>::new(&b.tape));
                    let d1 = Instant::now();
                    spans.leaf(0, &format!("dispatch/{}", COMPILE_NETS[i]), d0, d1);
                    per_net[i][0].push(ms(b.build()));
                    per_net[i][1].push(ms(b.compile()));
                    per_net[i][2].push(ms(d1 - d0));
                }
                spans.close(unit, 0, "round", built[0].at[0], built[3].at[2]);
            }
            check_round(ctx, &mut rng, &built, rep);
            last = built;
            calib.sample();
        }
        absort_telemetry::set_enabled(false);
        p50s.push(median(&mut units.iter().map(|u| u.1).collect::<Vec<_>>()));
        last_units = units;
    }

    if !ctx.trace {
        let mut scaled = calib.scale(&last_units);
        rep.set("p50_ms", median(&mut scaled));
        rep.set("tail_ms", percentile(&mut scaled, TAIL));
        return Ok(());
    }
    let snap = absort_telemetry::global().snapshot();
    let span_ms = |net: &str, suffix: &str| -> f64 {
        snap.timings
            .iter()
            .filter(|(path, _)| {
                path.starts_with(&format!("bench/{net}/")) && path.ends_with(suffix)
            })
            .map(|(_, t)| t.total_ns as f64 / 1e6)
            .sum::<f64>()
            / rounds as f64
    };
    let o1 = CompileOptions::for_level(OptLevel::O1);
    let mut applied = 0u64;
    for (i, name) in COMPILE_NETS.iter().enumerate() {
        let [build, compile, decode] = &mut per_net[i];
        rep.set(&format!("build.{name}_ms"), median(build));
        rep.set(&format!("compile.{name}_ms"), median(compile));
        rep.set(&format!("dispatch.{name}.decode_ms"), median(decode));
        let mut passes = 0.0;
        for pass in PASSES {
            let t = span_ms(name, &format!("compile/pass/{pass}"));
            passes += t;
            rep.set(&format!("compile.{name}.pass.{pass}_ms"), t);
        }
        rep.set(
            &format!("compile.{name}.lower_ms"),
            span_ms(name, "compile/lower") - passes,
        );
        let b = &last[i];
        rep.set(
            &format!("compile.{name}.tape_len"),
            b.tape.tape_len() as f64,
        );
        rep.set(&format!("compile.{name}.slots"), b.tape.n_slots() as f64);
        applied += b
            .tape
            .rewrite_hits()
            .iter()
            .map(|(_, hits)| u64::from(*hits))
            .sum::<u64>();
        let mut o1_ms: Vec<f64> = (0..O1_REPS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(b.circuit.compile_with(&o1));
                ms(t0.elapsed())
            })
            .collect();
        rep.set(&format!("compile.{name}.o1_ms"), median(&mut o1_ms));
    }
    rep.set("compile.pass.rewrite.applied", applied as f64);
    let explained = timed_layers.as_secs_f64() / traced_time.as_secs_f64();
    rep.set_trace_shares(p50s[0], p50s[1], explained * p50s[1]);
    Ok(())
}
