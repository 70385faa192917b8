//! Substrate throughput: the enum-dispatch interpreter vs the compiled
//! register-allocated micro-op tape, each through the scalar, 64-lane
//! bit-parallel, and crossbeam-parallel batch paths — the engines behind
//! the exhaustive verifiers and fault campaigns.
//!
//! Function names are digit-free (`interp_lanes`, `compiled_lanes`, …)
//! so the shim's substring filter can select a size by its parameter:
//! `cargo bench --bench eval_engines -- compiled_lanes/256`.

use absort_bench::bench_bits;
use absort_circuit::eval::pack_lanes;
use absort_circuit::{CompiledEvaluator, Evaluator};
use absort_core::muxmerge;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_eval_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("eval_engines");
    for n in [64usize, 256, 1024] {
        let circuit = muxmerge::build(n);
        let compiled = circuit.compile();
        let vectors: Vec<Vec<bool>> = (0..256).map(|s| bench_bits(n, s as u64)).collect();
        // Pre-packed 64-lane groups: the raw engine measurement, without
        // the bool<->lane conversion the batch API performs.
        let groups: Vec<Vec<u64>> = vectors.chunks(64).map(|ch| pack_lanes(ch, n)).collect();
        g.throughput(Throughput::Elements((vectors.len() * n) as u64));

        // scalar: one vector at a time (256 passes)
        g.bench_function(BenchmarkId::new("interp_scalar", n), |b| {
            let mut ev: Evaluator<'_, bool> = Evaluator::new(&circuit);
            let mut out = vec![false; n];
            b.iter(|| {
                let mut acc = 0usize;
                for v in &vectors {
                    ev.run_into(v, &mut out);
                    acc += out[0] as usize;
                }
                acc
            })
        });
        g.bench_function(BenchmarkId::new("compiled_scalar", n), |b| {
            let mut ev: CompiledEvaluator<'_, bool> = CompiledEvaluator::new(&compiled);
            let mut out = vec![false; n];
            b.iter(|| {
                let mut acc = 0usize;
                for v in &vectors {
                    ev.run_into(v, &mut out);
                    acc += out[0] as usize;
                }
                acc
            })
        });

        // 64-lane packed (4 pre-packed passes, single thread)
        g.bench_function(BenchmarkId::new("interp_lanes", n), |b| {
            let mut ev: Evaluator<'_, u64> = Evaluator::new(&circuit);
            let mut out = vec![0u64; n];
            b.iter(|| {
                let mut acc = 0u64;
                for gp in &groups {
                    ev.run_into(gp, &mut out);
                    acc ^= out[0];
                }
                acc
            })
        });
        g.bench_function(BenchmarkId::new("compiled_lanes", n), |b| {
            let mut ev: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&compiled);
            let mut out = vec![0u64; n];
            b.iter(|| {
                let mut acc = 0u64;
                for gp in &groups {
                    ev.run_into(gp, &mut out);
                    acc ^= out[0];
                }
                acc
            })
        });

        // batch API across threads (includes bool<->lane packing;
        // strided group assignment)
        for threads in [2usize, 4, 8] {
            g.bench_function(BenchmarkId::new(format!("interp_par{threads}t"), n), |b| {
                b.iter(|| circuit.eval_batch_parallel(&vectors, threads))
            });
        }
    }
    g.finish();
}

fn bench_compile_lower(c: &mut Criterion) {
    // One-time lowering cost: netlist -> levelized, register-allocated
    // micro-op tape. Amortized over every subsequent evaluation pass.
    let mut g = c.benchmark_group("compile_lower");
    for n in [64usize, 256, 1024] {
        let circuit = muxmerge::build(n);
        g.throughput(Throughput::Elements(circuit.n_components() as u64));
        g.bench_with_input(BenchmarkId::new("lower", n), &circuit, |b, circuit| {
            b.iter(|| circuit.compile())
        });
    }
    g.finish();
}

fn bench_pipelined_streaming(c: &mut Criterion) {
    use absort_circuit::pipeline::Pipelined;
    let mut g = c.benchmark_group("pipelined_streaming");
    let n = 256usize;
    let circuit = muxmerge::build(n);
    let pipe = Pipelined::new(&circuit);
    let groups: Vec<Vec<bool>> = (0..32).map(|s| bench_bits(n, 1000 + s as u64)).collect();
    g.throughput(Throughput::Elements((groups.len() * n) as u64));
    g.bench_function(BenchmarkId::new("gate_level_pipeline_32_groups", n), |b| {
        b.iter(|| pipe.simulate(&groups))
    });
    g.bench_function(BenchmarkId::new("combinational_32_groups", n), |b| {
        b.iter(|| {
            let mut ev: Evaluator<'_, bool> = Evaluator::new(&circuit);
            let mut out = vec![false; n];
            for v in &groups {
                ev.run_into(v, &mut out);
            }
            out[0]
        })
    });
    g.finish();
}

fn bench_build_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("circuit_construction");
    for k in [8u32, 10, 12] {
        let n = 1usize << k;
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("muxmerge_build", n), &n, |b, &n| {
            b.iter(|| muxmerge::build(n))
        });
        let circuit = muxmerge::build(n);
        g.bench_with_input(BenchmarkId::new("depth_analysis", n), &n, |b, _| {
            b.iter(|| circuit.depth())
        });
        g.bench_with_input(BenchmarkId::new("cost_analysis", n), &n, |b, _| {
            b.iter(|| circuit.cost())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_eval_engines,
    bench_compile_lower,
    bench_pipelined_streaming,
    bench_build_scaling
);
criterion_main!(benches);
