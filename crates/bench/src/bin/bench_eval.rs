//! `bench_eval` — engine-comparison numbers for the evaluation backends.
//!
//! Times the enum-dispatch interpreter against the compiled micro-op
//! tape on the mux-based merge sorter (scalar, 64-lane and wide paths,
//! plus the interpreter's 4-thread batch path, over a fixed 256-vector
//! workload), the one-time lowering
//! pass, and the full `--network all` fault campaign, and writes the
//! results as JSON. Each headline `*_ms` figure is the minimum over
//! `--reps` wall-clock samples; a per-size `spread` object carries the
//! min/median/max of the key measurements so downstream comparisons
//! (`bench_compare`) can tell a regression from run-to-run noise. A
//! separate untimed telemetry pass records per-vector latency
//! histograms and emits their p50/p99 alongside the wall-clock columns
//! (zero when the `telemetry` feature is compiled out).
//!
//! Usage:
//!   cargo run --release -p absort-bench --bin bench_eval -- \
//!       [--quick] [--reps N] [--out BENCH_eval.json]
//!
//! `--quick` restricts to n = 64 and a n = 4 fault campaign (CI smoke);
//! the default sweep is n ∈ {64, 256, 1024} with a n = 8 campaign.

use std::hint::black_box;
use std::time::Instant;

use absort_analysis::faults::{run_campaign, CampaignConfig, NetworkSel};
use absort_bench::bench_bits;
use absort_circuit::eval::{pack_lanes, pack_lanes_wide};
#[cfg(feature = "telemetry")]
use absort_circuit::{Circuit, CompiledCircuit};
use absort_circuit::{CompileOptions, CompiledEvaluator, Engine, Evaluator, OptLevel};
use absort_core::muxmerge;

const WORKLOAD: usize = 256;

/// The committed ahead-of-time emitted source for the benchmark network
/// at n = 64 (see `tests/emitted_golden.rs` for the pin) — the
/// `emitted_scalar_ms` column times rustc's own code for the same tape.
mod emitted {
    include!("../../emitted/sort_mux_merger_64.rs");
}

/// Min/median/max wall-clock seconds per call over `--reps` samples.
#[derive(Clone, Copy)]
struct Sample {
    min: f64,
    median: f64,
    max: f64,
}

impl Sample {
    fn spread_json(&self) -> String {
        format!(
            "{{ \"min\": {}, \"median\": {}, \"max\": {} }}",
            ms(self.min),
            ms(self.median),
            ms(self.max)
        )
    }
}

/// Times `reps` samples of `iters` back-to-back calls of `f` (batched
/// so that microsecond-scale routines still get a clean reading) and
/// returns the per-call min/median/max.
fn sample<R>(reps: usize, iters: u32, mut f: impl FnMut() -> R) -> Sample {
    let mut secs: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / f64::from(iters)
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    Sample {
        min: secs[0],
        median: secs[secs.len() / 2],
        max: secs[secs.len() - 1],
    }
}

/// Minimum wall-clock seconds per call — the headline number.
fn min_of<R>(reps: usize, iters: u32, f: impl FnMut() -> R) -> f64 {
    sample(reps, iters, f).min
}

fn ms(secs: f64) -> String {
    format!("{:.3}", secs * 1e3)
}

fn ratio(slow: f64, fast: f64) -> String {
    format!("{:.2}", slow / fast)
}

/// Per-vector latency quantiles from an untimed telemetry-enabled pass:
/// `[interp_p50, interp_p99, compiled_p50, compiled_p99]` in ns. The
/// registry is reset before and after so the histogram pass never
/// contaminates the wall-clock numbers (telemetry stays off while
/// timing).
#[cfg(feature = "telemetry")]
fn vector_latency_quantiles(
    circuit: &Circuit,
    compiled: &CompiledCircuit,
    groups: &[Vec<u64>],
    n: usize,
) -> [u64; 4] {
    absort_telemetry::reset();
    absort_telemetry::set_enabled(true);
    {
        let mut interp: Evaluator<'_, u64> = Evaluator::new(circuit);
        let mut comp: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(compiled);
        let mut out = vec![0u64; n];
        for gp in groups {
            interp.run_into(gp, &mut out);
            black_box(out[0]);
            comp.run_into(gp, &mut out);
            black_box(out[0]);
        }
        // Evaluators drop here, flushing their local recorders.
    }
    absort_telemetry::set_enabled(false);
    let snap = absort_telemetry::global().snapshot();
    let q = |name: &str, q: f64| -> u64 {
        snap.hists
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, h)| h.quantile(q))
    };
    let out = [
        q("eval.interp.vector_ns", 0.50),
        q("eval.interp.vector_ns", 0.99),
        q("eval.compiled.vector_ns", 0.50),
        q("eval.compiled.vector_ns", 0.99),
    ];
    absort_telemetry::reset();
    out
}

fn size_row(n: usize, reps: usize) -> String {
    let circuit = muxmerge::build(n);
    let vectors: Vec<Vec<bool>> = (0..WORKLOAD).map(|s| bench_bits(n, s as u64)).collect();
    // Pre-packed 64-lane groups: the raw engine measurement, without the
    // bool<->lane conversion the batch API performs.
    let groups: Vec<Vec<u64>> = vectors.chunks(64).map(|ch| pack_lanes(ch, n)).collect();

    let compile_s = min_of(reps, 20, || circuit.compile());
    let compiled = circuit.compile();
    // Decode fuses switch chains and op pairs: tape ops before, decoded
    // dispatches after (the same count for every lane type).
    let fuse_before = compiled.tape_len();
    let fuse_after = CompiledEvaluator::<bool>::new(&compiled).dispatches();

    let interp_scalar = sample(reps, 1, || {
        let mut ev: Evaluator<'_, bool> = Evaluator::new(&circuit);
        let mut out = vec![false; n];
        let mut acc = 0usize;
        for v in &vectors {
            ev.run_into(v, &mut out);
            acc += out[0] as usize;
        }
        acc
    });
    fn scalar_workload<'a>(
        cc: &'a absort_circuit::CompiledCircuit,
        n: usize,
    ) -> impl FnMut(&[Vec<bool>]) -> usize + 'a {
        let mut ev: CompiledEvaluator<'_, bool> = CompiledEvaluator::new(cc);
        let mut out = vec![false; n];
        move |vectors: &[Vec<bool>]| {
            let mut acc = 0usize;
            for v in vectors {
                ev.run_into(v, &mut out);
                acc += out[0] as usize;
            }
            acc
        }
    }
    let compiled_scalar = {
        let mut f = scalar_workload(&compiled, n);
        sample(reps, 1, || f(&vectors))
    };
    // Ahead-of-time emitted function (committed golden, n = 64 only):
    // what rustc -O makes of the very same tape as straight-line code.
    let emitted_scalar_s = (n == 64).then(|| {
        min_of(reps, 1, || {
            let mut acc = 0usize;
            let mut input = [false; 64];
            for v in &vectors {
                input.copy_from_slice(v);
                acc += emitted::sort_mux_merger_64(&input)[0] as usize;
            }
            acc
        })
    });

    let mut interp_u64: Evaluator<'_, u64> = Evaluator::new(&circuit);
    let mut compiled_u64: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&compiled);
    let mut out = vec![0u64; n];
    let interp_lanes = sample(reps, 100, || {
        let mut acc = 0u64;
        for gp in &groups {
            interp_u64.run_into(gp, &mut out);
            acc ^= out[0];
        }
        acc
    });
    let compiled_lanes_s = min_of(reps, 100, || {
        let mut acc = 0u64;
        for gp in &groups {
            compiled_u64.run_into(gp, &mut out);
            acc ^= out[0];
        }
        acc
    });

    // The wide walk: one [u64; 4] (256-lane) call covers the whole
    // workload, which the register-allocated slot buffer keeps
    // cache-resident.
    let wide = pack_lanes_wide::<4>(&vectors, n);
    let mut compiled_w4: CompiledEvaluator<'_, [u64; 4]> = CompiledEvaluator::new(&compiled);
    let mut wout = vec![[0u64; 4]; n];
    let compiled_wide = sample(reps, 100, || {
        compiled_w4.run_into(&wide, &mut wout);
        wout[0][0]
    });

    let interp_par4_s = min_of(reps, 1, || circuit.eval_batch_parallel(&vectors, 4));

    // Histogram-backed per-vector latency percentiles (untimed pass).
    #[cfg(feature = "telemetry")]
    let [ivp50, ivp99, cvp50, cvp99] = vector_latency_quantiles(&circuit, &compiled, &groups, n);
    #[cfg(not(feature = "telemetry"))]
    let [ivp50, ivp99, cvp50, cvp99] = [0u64; 4];

    // Per-opt-level rows: how much tape each pass tier actually buys,
    // and what it costs at compile time and in the wide walk.
    let opt_rows: Vec<String> = OptLevel::ALL
        .into_iter()
        .map(|level| {
            let opts = CompileOptions::for_level(level);
            let level_compile_s = min_of(reps, 20, || circuit.compile_with(&opts));
            let cc = circuit.compile_with(&opts);
            let mut ev: CompiledEvaluator<'_, [u64; 4]> = CompiledEvaluator::new(&cc);
            let mut lout = vec![[0u64; 4]; n];
            let level_wide_s = min_of(reps, 100, || {
                ev.run_into(&wide, &mut lout);
                lout[0][0]
            });
            eprintln!(
                "  O{level}: {} ops / {} slots, compile {} ms, wide {} ms (passes: {})",
                cc.tape_len(),
                cc.n_slots(),
                ms(level_compile_s),
                ms(level_wide_s),
                opts.passes.fingerprint(),
            );
            format!(
                concat!(
                    "        {{\n",
                    "          \"level\": {level},\n",
                    "          \"passes\": \"{passes}\",\n",
                    "          \"compile_ms\": {compile},\n",
                    "          \"tape_len\": {tape_len},\n",
                    "          \"n_slots\": {n_slots},\n",
                    "          \"compiled_wide_ms\": {cw}\n",
                    "        }}"
                ),
                level = level,
                passes = opts.passes.fingerprint(),
                compile = ms(level_compile_s),
                tape_len = cc.tape_len(),
                n_slots = cc.n_slots(),
                cw = ms(level_wide_s),
            )
        })
        .collect();

    eprintln!(
        "n={n}: lanes64 interp {} ms -> compiled wide {} ms [w4] ({}x; u64-for-u64 {}x); \
         scalar {}x ({} tape ops -> {} dispatches); compile {} ms, {} slots for {} wires; \
         vector p50 interp {ivp50} ns -> compiled {cvp50} ns",
        ms(interp_lanes.min),
        ms(compiled_wide.min),
        ratio(interp_lanes.min, compiled_wide.min),
        ratio(interp_lanes.min, compiled_lanes_s),
        ratio(interp_scalar.min, compiled_scalar.min),
        fuse_before,
        fuse_after,
        ms(compile_s),
        compiled.n_slots(),
        circuit.n_wires(),
    );
    if let Some(es) = emitted_scalar_s {
        eprintln!(
            "  emitted scalar (rustc -O straight-line): {} ms vs tape {} ms",
            ms(es),
            ms(compiled_scalar.min)
        );
    }

    format!(
        concat!(
            "    {{\n",
            "      \"n\": {n},\n",
            "      \"compile_ms\": {compile},\n",
            "      \"tape_len\": {tape_len},\n",
            "      \"levels\": {levels},\n",
            "      \"n_slots\": {n_slots},\n",
            "      \"n_wires\": {n_wires},\n",
            "      \"slots_saved\": {slots_saved},\n",
            "      \"fuse_ops_before\": {fuse_before},\n",
            "      \"fuse_ops_after\": {fuse_after},\n",
            "      \"compile.pass.fuse.fused\": {fuse_delta},\n",
            "      \"interp_scalar_ms\": {is},\n",
            "      \"compiled_scalar_ms\": {cs},\n",
            "{emitted_row}",
            "      \"scalar_speedup\": {ss},\n",
            "      \"interp_lanes_ms\": {il},\n",
            "      \"compiled_lanes_ms\": {cl},\n",
            "      \"compiled_wide_ms\": {cw},\n",
            "      \"wide_config\": \"w4\",\n",
            "      \"compiled_wide4_ms\": {cw4},\n",
            "      \"lanes_speedup\": {ls},\n",
            "      \"interp_par4_ms\": {ip},\n",
            "      \"interp_vector_p50_ns\": {ivp50},\n",
            "      \"interp_vector_p99_ns\": {ivp99},\n",
            "      \"compiled_vector_p50_ns\": {cvp50},\n",
            "      \"compiled_vector_p99_ns\": {cvp99},\n",
            "      \"spread\": {{\n",
            "        \"interp_scalar_ms\": {sp_is},\n",
            "        \"compiled_scalar_ms\": {sp_cs},\n",
            "        \"interp_lanes_ms\": {sp_il},\n",
            "        \"compiled_wide_ms\": {sp_cw}\n",
            "      }},\n",
            "      \"opt_levels\": [\n{opt_rows}\n      ]\n",
            "    }}"
        ),
        n = n,
        compile = ms(compile_s),
        tape_len = compiled.tape_len(),
        levels = compiled.n_levels(),
        n_slots = compiled.n_slots(),
        n_wires = circuit.n_wires(),
        slots_saved = compiled.slots_saved(),
        fuse_before = fuse_before,
        fuse_after = fuse_after,
        fuse_delta = fuse_before - fuse_after,
        is = ms(interp_scalar.min),
        cs = ms(compiled_scalar.min),
        emitted_row = emitted_scalar_s
            .map(|es| format!("      \"emitted_scalar_ms\": {},\n", ms(es)))
            .unwrap_or_default(),
        ss = ratio(interp_scalar.min, compiled_scalar.min),
        il = ms(interp_lanes.min),
        cl = ms(compiled_lanes_s),
        cw = ms(compiled_wide.min),
        cw4 = ms(compiled_wide.min),
        ls = ratio(interp_lanes.min, compiled_wide.min),
        ip = ms(interp_par4_s),
        ivp50 = ivp50,
        ivp99 = ivp99,
        cvp50 = cvp50,
        cvp99 = cvp99,
        sp_is = interp_scalar.spread_json(),
        sp_cs = compiled_scalar.spread_json(),
        sp_il = interp_lanes.spread_json(),
        sp_cw = compiled_wide.spread_json(),
        opt_rows = opt_rows.join(",\n"),
    )
}

fn campaign_section(n: usize, reps: usize) -> String {
    let time_engine = |engine: Engine| {
        let cfg = CampaignConfig {
            n,
            engine,
            ..CampaignConfig::default()
        };
        sample(reps, 1, || run_campaign(&NetworkSel::ALL, &cfg))
    };
    let interp = time_engine(Engine::Interp);
    let compiled = time_engine(Engine::Compiled);
    eprintln!(
        "fault campaign n={n} --network all: interp {} ms -> compiled {} ms ({}x)",
        ms(interp.min),
        ms(compiled.min),
        ratio(interp.min, compiled.min),
    );
    format!(
        concat!(
            "  \"fault_campaign\": {{\n",
            "    \"n\": {n},\n",
            "    \"networks\": \"all\",\n",
            "    \"interp_ms\": {i},\n",
            "    \"compiled_ms\": {c},\n",
            "    \"speedup\": {s},\n",
            "    \"spread\": {{\n",
            "      \"interp_ms\": {sp_i},\n",
            "      \"compiled_ms\": {sp_c}\n",
            "    }}\n",
            "  }}"
        ),
        n = n,
        i = ms(interp.min),
        c = ms(compiled.min),
        s = ratio(interp.min, compiled.min),
        sp_i = interp.spread_json(),
        sp_c = compiled.spread_json(),
    )
}

fn main() {
    let mut out_path = String::from("BENCH_eval.json");
    let mut quick = false;
    let mut reps = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                }
            },
            "--reps" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(r) if r >= 1 => reps = r,
                _ => {
                    eprintln!("error: --reps requires an integer >= 1");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: bench_eval [--quick] [--reps N] [--out <path>]");
                std::process::exit(2);
            }
        }
    }

    let (sizes, campaign_n): (&[usize], usize) = if quick {
        (&[64], 4)
    } else {
        (&[64, 256, 1024], 8)
    };

    let rows: Vec<String> = sizes.iter().map(|&n| size_row(n, reps)).collect();
    let campaign = campaign_section(campaign_n, reps);

    let doc = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"absort-bench-eval/v5\",\n",
            "  \"network\": \"mux-merger\",\n",
            "  \"reps\": {reps},\n",
            "  \"workload_vectors\": {workload},\n",
            "  \"sizes\": [\n{rows}\n  ],\n",
            "{campaign}\n",
            "}}\n"
        ),
        reps = reps,
        workload = WORKLOAD,
        rows = rows.join(",\n"),
        campaign = campaign,
    );

    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
