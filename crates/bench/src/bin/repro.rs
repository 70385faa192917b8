//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!   cargo run --release -p absort-bench --bin repro -- <experiment|all>
//!
//! Experiments: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10
//!              table1 table2 columnsort concentrators crossover
//!
//! With `--metrics` (or `--metrics-out <path>`), every phase runs inside
//! a telemetry span; a profiler-style report goes to stderr and a JSON
//! run manifest is written under `results/metrics/` (or to the given
//! path). See README "Observability".

use absort_analysis::{ablations, concentrators, crossover, sweeps, table, table2, traces};
use absort_baselines::columnsort::{ColumnsortModel, Geometry};
use absort_core::fish::schedule;
use absort_core::sorter::SorterKind;
use absort_core::{muxmerge, prefix, table1, FishSorter};
use absort_networks::{benes, permuter::RadixPermuter};

fn heading(s: &str) {
    println!("\n================================================================");
    println!("{s}");
    println!("================================================================");
}

fn fig1() {
    heading("E1 / Fig. 1 — four-input sorting network");
    let net = absort_cmpnet::catalog::fig1();
    println!("{}", absort_cmpnet::draw::draw(&net));
    println!("cost = {} comparators (paper: 5)", net.cost());
    println!("depth = {} (paper: 3)", net.depth());
    println!(
        "exhaustive 0-1 verification over all 16 inputs: {}",
        if absort_cmpnet::verify::is_sorting_network(&net) {
            "sorts"
        } else {
            "FAILS"
        }
    );
}

fn fig2() {
    heading("E2 / Fig. 2 — two-way and four-way swappers");
    use absort_blocks::swap;
    use absort_circuit::Builder;
    for n in [16usize, 64, 256] {
        let mut b = Builder::new();
        let ctrl = b.input();
        let ins = b.input_bus(n);
        let outs = swap::two_way_swapper(&mut b, ctrl, &ins);
        b.outputs(&outs);
        let c2 = b.finish();

        let mut b = Builder::new();
        let s1 = b.input();
        let s0 = b.input();
        let ins = b.input_bus(n);
        let outs = swap::four_way_swapper(&mut b, s1, s0, &ins, [[0, 1, 2, 3]; 4]);
        b.outputs(&outs);
        let c4 = b.finish();
        println!(
            "n={n:>4}: two-way cost {:>4} depth {} (paper n/2={}, 1) | four-way cost {:>4} depth {} (paper n={n}, 1)",
            c2.cost().total,
            c2.depth(),
            n / 2,
            c4.cost().total,
            c4.depth()
        );
    }
}

fn fig3() {
    heading("E3 / Fig. 3 — (16,4)-multiplexer and (4,16)-demultiplexer");
    use absort_blocks::{demux::group_demultiplexer, mux::group_multiplexer};
    use absort_circuit::Builder;
    let mut b = Builder::new();
    let sel = b.input_bus(2);
    let ins = b.input_bus(16);
    let outs = group_multiplexer(&mut b, &sel, &ins, 4);
    b.outputs(&outs);
    let c = b.finish();
    println!(
        "(16,4)-multiplexer:   cost {} depth {} (paper: ~16 [exact n−k=12], lg(n/k)=2)",
        c.cost().total,
        c.depth()
    );
    let mut b = Builder::new();
    let sel = b.input_bus(2);
    let ins = b.input_bus(4);
    let outs = group_demultiplexer(&mut b, &sel, &ins, 16);
    b.outputs(&outs);
    let c = b.finish();
    println!(
        "(4,16)-demultiplexer: cost {} depth {} (paper: ~16 [exact n−k=12], lg(n/k)=2)",
        c.cost().total,
        c.depth()
    );
}

fn fig4() {
    heading("E4 / Fig. 4 — Batcher OEM vs alternative OEM (balanced merge)");
    use absort_cmpnet::{batcher, fig4, verify};
    println!("Fig. 4(a): Batcher odd-even merge sort, n = 8:");
    println!(
        "{}",
        absort_cmpnet::draw::draw(&batcher::odd_even_merge_sort(8))
    );
    println!("Fig. 4(b): the alternative (balanced merge) construction, n = 8:");
    println!("{}", absort_cmpnet::draw::draw(&fig4::fig4b_sort(8)));
    let mut t = table::Table::new([
        "n",
        "Batcher cost",
        "Batcher depth",
        "Fig4(b) cost",
        "Fig4(b) depth",
        "both sort (0-1)",
    ]);
    for k in 2..=10u32 {
        let n = 1usize << k;
        let a = batcher::odd_even_merge_sort(n);
        let b = fig4::fig4b_sort(n);
        let verified = if n <= 16 {
            let ok = verify::is_sorting_network(&a) && verify::is_sorting_network(&b);
            if ok {
                "yes (exhaustive)"
            } else {
                "NO"
            }
        } else {
            "(n>16: see tests)"
        };
        t.row([
            n.to_string(),
            a.cost().to_string(),
            a.depth().to_string(),
            b.cost().to_string(),
            b.depth().to_string(),
            verified.to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn fig5() {
    heading("E5 / Fig. 5 — prefix binary sorter (Network 1)");
    println!(
        "{}",
        sweeps::render_sorter_sweep(&sweeps::prefix_sweep(16, 12), "3n lg n")
    );
    println!("(formula column is the paper's dominant term 3n lg n; the built");
    println!(" circuit adds a Θ(n) adder-tree term and stays within ±12n of it.)\n");
    println!("{}", traces::fig5_trace());
    println!("scope profile of the built 256-input instance:");
    println!("{}", prefix::build(256).scope_report(2));
}

fn fig6() {
    heading("E6 / Fig. 6 — mux-merger binary sorter (Network 2)");
    println!(
        "{}",
        sweeps::render_sorter_sweep(&sweeps::muxmerge_sweep(16, 12), "4n lg n - Θ(n) exact")
    );
    println!("(built circuit matches the exact recurrence bit-for-bit.)");
}

fn charts() {
    heading("ASCII figures — cost, depth, and sorting-time shapes");
    println!(
        "{}",
        absort_analysis::figures::sorter_cost_figure(&[10, 12, 14, 16, 18, 20, 22])
    );
    println!(
        "{}",
        absort_analysis::figures::sorter_depth_figure(&[8, 10, 12, 14, 16, 18, 20])
    );
    println!(
        "{}",
        absort_analysis::figures::sorting_time_figure(&[12, 14, 16, 18, 20, 22, 24])
    );
}

fn fig7() {
    heading("E8 / Fig. 7 — fish binary sorter (Network 3, Model B)");
    println!("sweep over n at k = lg n:");
    println!(
        "{}",
        sweeps::render_fish_sweep(&sweeps::fish_sweep(&[10, 12, 14, 16, 18, 20, 22]))
    );
    println!("sweep over k at n = 2^16 (paper's minimisation, eqs. 19-21):");
    println!(
        "{}",
        sweeps::render_fish_sweep(&sweeps::fish_k_sweep(1 << 16))
    );
    println!("headline comparison (bit-level cost):");
    println!(
        "{}",
        sweeps::cost_comparison(&[10, 12, 14, 16, 18, 20]).render()
    );
}

fn fig8() {
    heading("E9 / Fig. 8 — 16-input 4-way mux-merger trace");
    println!("{}", traces::fig8_trace());
}

fn fig9() {
    heading("E10 / Fig. 9 — 8-input 4-way clean sorter trace");
    println!("{}", traces::fig9_trace());
}

fn fig10() {
    heading("E11 / Fig. 10 — radix permuter from binary sorters");
    let mut t = table::Table::new([
        "n",
        "sorter",
        "bit cost",
        "perm time",
        "switched",
        "verified",
    ]);
    for a in [8u32, 10, 12, 14] {
        let n = 1usize << a;
        for kind in [
            SorterKind::Fish { k: None },
            SorterKind::MuxMerger,
            SorterKind::Prefix,
        ] {
            let rp = RadixPermuter::new(kind, n);
            let perm = absort_bench::bench_perm(n, 11);
            let packets: Vec<(usize, usize)> =
                perm.iter().enumerate().map(|(i, &d)| (d, i)).collect();
            let out = rp.route(&packets).expect("route");
            let ok = out.iter().enumerate().all(|(slot, &src)| perm[src] == slot);
            t.row([
                format!("2^{a}"),
                kind.name().to_string(),
                rp.cost().to_string(),
                rp.time().to_string(),
                if rp.is_packet_switched() {
                    "packet"
                } else {
                    "circuit"
                }
                .to_string(),
                if ok { "yes".into() } else { "NO".to_string() },
            ]);
        }
    }
    println!("{}", t.render());
    println!("gate-level instance (addresses carried in-band as wire bundles):");
    use absort_networks::permuter_circuit::PermuterCircuit;
    let mut t = table::Table::new(["n", "payload bits", "built cost", "built depth", "verified"]);
    for (n, p) in [(16usize, 8usize), (32, 8), (64, 8)] {
        let pc = PermuterCircuit::build(n, p);
        let perm = absort_bench::bench_perm(n, 31);
        let packets: Vec<(usize, u64)> = perm
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i as u64))
            .collect();
        let out = pc.route(&packets);
        let ok = perm.iter().enumerate().all(|(i, &d)| out[d] == i as u64);
        t.row([
            n.to_string(),
            p.to_string(),
            pc.cost().to_string(),
            pc.depth().to_string(),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn table1_report() {
    heading("E7 / Table I — behaviour of the mux-merger");
    println!("{}", table1::render());
    for n in [8usize, 16, 32] {
        let v = table1::verify(n);
        println!(
            "exhaustive verification over all {} bisorted sequences at n={n}: {}",
            (n / 2 + 1) * (n / 2 + 1),
            if v.is_empty() {
                "all rows hold"
            } else {
                "VIOLATIONS"
            }
        );
    }
}

fn table2_report() {
    heading("E12 / Table II — permutation network complexities (bit level)");
    for a in [12u32, 16, 20] {
        println!("{}", table2::render(1usize << a));
        match table2::verify_claims(1usize << a) {
            Ok(()) => println!(
                "paper claim holds at n=2^{a}: fish-based permuter has the smallest cost\n"
            ),
            Err(e) => println!("CLAIM VIOLATION at n=2^{a}: {e}\n"),
        }
    }
}

fn columnsort_report() {
    heading("E13 / Section III.C — fish sorter vs time-multiplexed columnsort");
    let mut t = table::Table::new([
        "n",
        "fish cost",
        "colsort cost",
        "fish T",
        "colsort T",
        "fish Tpip",
        "colsort Tpip",
        "pipelines (fish/colsort)",
    ]);
    for a in [12u32, 16, 20, 24] {
        let n = 1usize << a;
        let f = FishSorter::with_default_k(n);
        let cs = ColumnsortModel {
            g: Geometry::paper_params(n),
        };
        t.row([
            format!("2^{a}"),
            absort_core::fish::formulas::total_cost_exact(n, f.k).to_string(),
            cs.cost().to_string(),
            schedule::sorting_time(n, f.k, false).to_string(),
            cs.time(false).to_string(),
            schedule::sorting_time(n, f.k, true).to_string(),
            cs.time(true).to_string(),
            format!("1 / {}", cs.pipelines_required()),
        ]);
    }
    println!("{}", t.render());
    println!("shape check: both O(n) cost; unpipelined fish O(lg^3) beats colsort O(lg^4);");
    println!("pipelined both O(lg^2), but colsort needs 4 separately pipelined sorters.");
}

fn concentrators_report() {
    heading("E14 / Section IV — concentrator comparison");
    for a in [12u32, 16] {
        println!("{}", concentrators::render(1usize << a));
    }
}

fn wordsort_report() {
    heading("Extension — stable word sorting from binary passes (Section I's decomposition)");
    use absort_networks::word_sorter::WordSorter;
    let mut t = table::Table::new(["n", "key bits", "sorter", "bit cost", "time", "verified"]);
    for (n, w) in [(256usize, 16u32), (1024, 32)] {
        for kind in [SorterKind::Fish { k: None }, SorterKind::MuxMerger] {
            let ws = WordSorter::new(kind, n, w);
            let items: Vec<(u64, usize)> = (0..n)
                .map(|i| {
                    let z = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> (64 - w);
                    (z, i)
                })
                .collect();
            let out = ws.sort(&items).expect("sortable");
            let ok = out.windows(2).all(|p| p[0].0 <= p[1].0);
            t.row([
                n.to_string(),
                w.to_string(),
                kind.name().to_string(),
                ws.cost().to_string(),
                ws.time().to_string(),
                if ok { "yes".into() } else { "NO".to_string() },
            ]);
        }
    }
    println!("{}", t.render());
    println!("w stable binary-split passes + the Fig. 10 permuter sort w-bit words;");
    println!("cost Θ(w·n lg n) with the fish-based permuter.");
}

fn ablations_report() {
    heading("E16-E18 — design-choice ablations (measured on built circuits)");
    println!("{}", ablations::render_all());
}

fn checklist_report() {
    heading("Master checklist — every quantitative claim, re-derived now");
    let (table, all) = absort_analysis::checklist::render();
    println!("{table}");
    println!(
        "{}",
        if all {
            "ALL CLAIMS HOLD."
        } else {
            "SOME CLAIMS FAILED — see rows marked ✗."
        }
    );
    if !all {
        std::process::exit(1);
    }
}

fn dot_report() {
    heading("DOT export — the 16-input instances of Figs. 5 and 6");
    let pre = prefix::build(16);
    let mux = muxmerge::build(16);
    println!(
        "// prefix sorter: {} components; mux-merger sorter: {} components",
        pre.n_components(),
        mux.n_components()
    );
    println!("// pipe either graph into `dot -Tsvg` to render the figure");
    println!("{}", absort_circuit::dot::to_dot(&mux, "fig6-muxmerge-16"));
    println!("// scope profile of the 256-input prefix sorter (Fig. 5 structure):");
    println!("{}", prefix::build(256).scope_report(3));
}

fn crossover_report() {
    heading("E15 — AKS crossover and the constants audit");
    println!("{}", crossover::render(20_000));
    println!("constants audit (paper Section V: all constants <= 17):");
    for (name, v) in crossover::constants_audit() {
        println!("  {name} = {v:.2}");
    }
}

/// Writes the main experiment series as CSV files into `dir` (for
/// downstream plotting): sweeps, the headline comparison, Table II, the
/// concentrator comparison, and the ablations.
fn write_csvs(dir: &str) -> std::io::Result<()> {
    use std::fs;
    fs::create_dir_all(dir)?;
    let write = |name: &str, contents: String| -> std::io::Result<()> {
        let path = format!("{dir}/{name}");
        fs::write(&path, contents)?;
        println!("wrote {path}");
        Ok(())
    };

    let sweep_table = |pts: &[sweeps::SorterPoint]| {
        let mut t = table::Table::new([
            "n",
            "measured_cost",
            "formula_cost",
            "measured_depth",
            "formula_depth",
        ]);
        for p in pts {
            t.row([
                p.n.to_string(),
                p.measured_cost.map_or(String::new(), |v| v.to_string()),
                p.formula_cost.to_string(),
                p.measured_depth.map_or(String::new(), |v| v.to_string()),
                p.formula_depth.to_string(),
            ]);
        }
        t.to_csv()
    };
    let (pre, mux, na) = sweeps::all_sorter_sweeps_parallel(16, 12);
    write("e5_prefix_sweep.csv", sweep_table(&pre))?;
    write("e6_muxmerge_sweep.csv", sweep_table(&mux))?;
    write("e17_nonadaptive_sweep.csv", sweep_table(&na))?;

    let mut fish = table::Table::new([
        "n",
        "k",
        "cost_exact",
        "cost_paper",
        "cost_per_input",
        "t_serial",
        "t_pipelined",
    ]);
    for p in sweeps::fish_sweep(&[10, 12, 14, 16, 18, 20, 22]) {
        fish.row([
            p.n.to_string(),
            p.k.to_string(),
            p.cost_exact.to_string(),
            p.cost_paper.to_string(),
            format!("{:.2}", p.cost_per_input),
            p.time_serial.to_string(),
            p.time_pipelined.to_string(),
        ]);
    }
    write("e8_fish_sweep.csv", fish.to_csv())?;
    write(
        "headline_cost_comparison.csv",
        sweeps::cost_comparison(&[10, 12, 14, 16, 18, 20, 22]).to_csv(),
    )?;

    for a in [12u32, 16, 20] {
        let mut t = table::Table::new(["construction", "cost", "time", "provenance"]);
        for r in table2::rows(1usize << a) {
            t.row([
                r.name.to_string(),
                r.cost.to_string(),
                r.time.to_string(),
                format!("{:?}", r.provenance),
            ]);
        }
        write(&format!("e12_table2_n2e{a}.csv"), t.to_csv())?;
    }

    let mut conc = table::Table::new(["construction", "cost", "time", "measured"]);
    for r in concentrators::rows(1 << 16) {
        conc.row([
            r.name.to_string(),
            r.cost.to_string(),
            r.time.map_or(String::new(), |v| v.to_string()),
            r.measured.to_string(),
        ]);
    }
    write("e14_concentrators_n2e16.csv", conc.to_csv())?;

    write(
        "e16_adder_ablation.csv",
        ablations::adder_ablation(&[6, 8, 10, 12]).to_csv(),
    )?;
    write(
        "e17_adaptivity_ablation.csv",
        ablations::adaptivity_ablation(&[6, 10, 14, 18, 22]).to_csv(),
    )?;
    write(
        "e18_dispatch_ablation.csv",
        ablations::dispatch_ablation_table(&[(64, 4), (256, 8), (1024, 16)]).to_csv(),
    )?;
    Ok(())
}

fn sanity() {
    // quick global cross-check before printing anything
    let bits = absort_bench::bench_bits(1 << 10, 5);
    let oracle = absort_core::lang::sorted_oracle(&bits);
    assert_eq!(prefix::sort(&bits), oracle);
    assert_eq!(muxmerge::sort(&bits), oracle);
    assert_eq!(FishSorter::with_default_k(bits.len()).sort(&bits), oracle);
    let perm = absort_bench::bench_perm(64, 2);
    let payload: Vec<u32> = (0..64).collect();
    let out = benes::permute(&perm, &payload).unwrap();
    for (i, &d) in perm.iter().enumerate() {
        assert_eq!(out[d], payload[i]);
    }
    // Circuit-level cross-check: exercises every evaluation engine once
    // (scalar, packed, batch), so a metrics run always carries build and
    // eval counters regardless of which experiment is selected.
    let c = muxmerge::build(16);
    let vectors: Vec<Vec<bool>> = (0..200u32)
        .map(|s| absort_bench::bench_bits(16, u64::from(s)))
        .collect();
    let batch = c.eval_batch_parallel(&vectors, 2);
    for (v, got) in vectors.iter().zip(&batch) {
        assert_eq!(got, &c.eval(v));
        assert_eq!(got, &absort_core::lang::sorted_oracle(v));
    }
}

/// Runs one experiment phase inside a telemetry span named after it.
fn run_phase(name: &str, f: fn()) {
    let _span = absort_telemetry::span(name);
    f();
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut metrics = false;
    let mut metrics_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics" => {
                metrics = true;
                args.remove(i);
            }
            "--metrics-out" => {
                metrics = true;
                args.remove(i);
                if i >= args.len() {
                    eprintln!("error: --metrics-out requires a path");
                    std::process::exit(2);
                }
                metrics_out = Some(args.remove(i));
            }
            _ => i += 1,
        }
    }
    absort_telemetry::init_from_env();
    if metrics {
        absort_telemetry::set_enabled(true);
    }
    let what = args.first().map(String::as_str).unwrap_or("all");
    run_phase("sanity", sanity);
    let all: Vec<(&str, fn())> = vec![
        ("fig1", fig1),
        ("fig2", fig2),
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("table1", table1_report),
        ("table2", table2_report),
        ("columnsort", columnsort_report),
        ("concentrators", concentrators_report),
        ("crossover", crossover_report),
        ("ablations", ablations_report),
        ("wordsort", wordsort_report),
        ("charts", charts),
        ("checklist", checklist_report),
        ("dot", dot_report),
    ];
    match what {
        "all" => {
            // everything except the (verbose) DOT dump
            for (name, f) in &all {
                if *name != "dot" {
                    run_phase(name, *f);
                }
            }
        }
        "--help" | "-h" | "help" => {
            println!(
                "usage: repro [--metrics] [--metrics-out <path>] [all | csv <dir> | {}]",
                all.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" | ")
            );
        }
        "csv" => {
            let dir = args
                .get(1)
                .map(String::as_str)
                .unwrap_or("results")
                .to_string();
            let _span = absort_telemetry::span("csv");
            write_csvs(&dir).expect("writing CSVs");
        }
        other => match all.iter().find(|(n, _)| *n == other) {
            Some((name, f)) => run_phase(name, *f),
            None => {
                eprintln!("unknown experiment {other:?}; try --help");
                std::process::exit(2);
            }
        },
    }
    if absort_telemetry::enabled() {
        eprint!("{}", absort_telemetry::render_report());
        let path = metrics_out
            .as_ref()
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| absort_telemetry::default_manifest_path(&format!("repro-{what}")));
        match absort_telemetry::write_manifest(&path) {
            Ok(()) => eprintln!("telemetry manifest: {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write manifest {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
