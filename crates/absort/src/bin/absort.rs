//! `absort` — command-line driver for the adaptive sorting networks.
//!
//! ```text
//! absort sort  --network mux-merger 0110100111000011
//! absort route --network fish 3,1,0,2
//! absort concentrate --m 4 a.b..c.d
//! absort inspect --network prefix --n 256
//! absort verify --network fish --n 16
//! absort dot --network mux-merger --n 16
//! absort emit --rust --network prefix --n 64 --standalone
//! absort serve --addr 127.0.0.1:7600 --workers 4
//! absort --network prefix --faults --faults-out report.json
//! ```

use absort::circuit::{
    dot, CompileOptions, CompiledEvaluator, Engine, Evaluator, OptLevel, OptLevelError,
};
use absort::core::{lang, muxmerge, nonadaptive, prefix, SorterKind};
use absort::networks::concentrator::Concentrator;
use absort::networks::permuter::RadixPermuter;
use absort::serve::ServeConfig;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: absort <command> [options]\n\
         \n\
         commands:\n\
           sort        --network <prefix|mux-merger|fish|nonadaptive> <bits>\n\
                       sort a binary sequence (power-of-two length)\n\
           route       --network <...> <dest0,dest1,...>\n\
                       route a permutation through the radix permuter\n\
           concentrate --m <m> <pattern>   ('.' = idle, any other char = packet)\n\
           inspect     --network <...> --n <size> [--profile]\n\
                       print cost/depth and the hardware profile;\n\
                       --profile adds a sampled per-op-kind hot table\n\
                       for the compiled tape\n\
           verify      --network <...> --n <size>\n\
                       exhaustively verify sorting over all 2^n inputs (n <= 20)\n\
           dot         --network <...> --n <size>\n\
                       emit the built circuit as Graphviz DOT\n\
           emit        --rust --network <...> --n <size> [--standalone]\n\
                       [--fn-name <name>]\n\
                       print the compiled tape as straight-line, branch-\n\
                       free Rust source (--standalone: a #![no_std] crate\n\
                       root compilable with plain rustc)\n\
           save        --network <...> --n <size>\n\
                       emit the built circuit as a text netlist\n\
           eval        <netlist-file> <bits>\n\
                       load a saved netlist and evaluate it\n\
           serve       [--addr <host:port>] [--workers <w>] [--queue <q>]\n\
                       [--batch-max <b>] [--max-n <n>] [--chaos]\n\
                       run the fault-tolerant sorting daemon: length-\n\
                       prefixed TCP protocol, wide-lane request batching,\n\
                       bounded queues with typed Overloaded shedding,\n\
                       per-request deadlines, SIGTERM graceful drain;\n\
                       --chaos honors forced-worker-panic requests (test\n\
                       harnesses only)\n\
         \n\
         fault campaigns (no subcommand):\n\
           absort --network <prefix|mux-merger|fish|batcher|all> --faults\n\
                  [--n <size>] [--faults-out <path>] [--multi <k>] [--clocked]\n\
                  [--tenants <t>]\n\
                  [--checkpoint <path>] [--resume] [--faults-timeout-secs <s>]\n\
                  sweep fault sites x fault kinds, score offline detection,\n\
                  concurrent (error-rail) detection, and degradation; write a\n\
                  JSON report under results/faults/\n\
         \n\
         metrics runs (no subcommand):\n\
           absort --network <prefix|mux-merger|fish|batcher> --metrics\n\
                  [--n <size>] [--metrics-out <path>] [--trace-out <path>]\n\
                  build + compile the network and sweep both evaluation\n\
                  engines instrumented, producing latency histograms in the\n\
                  run manifest (and optionally a Chrome trace)\n\
         \n\
         options:\n\
           --engine <interp|compiled>\n\
                                 evaluation engine for the verify/faults\n\
                                 sweep drivers (default: compiled — the\n\
                                 netlist is lowered once to a register-\n\
                                 allocated micro-op tape)\n\
           --opt-level <0|1>     compiled-engine optimization tier for every\n\
                                 command, campaigns and serve included\n\
                                 (default 1: constant prologue and dead-code\n\
                                 elimination; 0 is bare lowering; 2 was\n\
                                 removed with constant propagation and CSE)\n\
           --harden-duplicate    add duplicate-and-compare to the fault\n\
                                 campaign's self-checking wrapper; the\n\
                                 summary prices the extra hardware next to\n\
                                 the coverage it buys (requires --faults)\n\
           --metrics             record spans/counters/histograms; print a\n\
                                 telemetry report to stderr and write a JSON\n\
                                 run manifest under results/metrics/\n\
           --metrics-out <path>  explicit manifest path (requires --metrics)\n\
           --trace-out <path>    also record begin/end span events and counter\n\
                                 samples, written as Chrome trace_event JSON\n\
                                 viewable in Perfetto (requires --metrics)\n\
           --faults              run a fault-injection campaign\n\
           --faults-out <path>   report path (requires --faults)\n\
           --multi <k>           also sweep sampled simultaneous fault sets\n\
                                 of every size 2..=k (requires --faults)\n\
           --clocked             also sweep the clocked fish streamer:\n\
                                 permanent + cycle-precise transient faults\n\
                                 over full sort schedules, with rail-triggered\n\
                                 replay scoring recovered vs fail-stop; with\n\
                                 --multi, simultaneous fault sets ride along\n\
                                 (requires --faults)\n\
           --tenants <t>         round-robin t in-flight schedules through\n\
                                 each clocked faulty machine instead of one\n\
                                 fresh machine per schedule (default 1;\n\
                                 requires --faults --clocked)\n\
           --checkpoint <path>   write the campaign-so-far after every unit\n\
                                 (default with --resume:\n\
                                 results/faults/checkpoint.json)\n\
           --resume              skip units an earlier checkpoint already\n\
                                 covers (requires --faults)\n\
           --faults-timeout-secs <s>\n\
                                 stop between units once the budget expires;\n\
                                 the report is marked \"truncated\" and a\n\
                                 checkpointed run can be resumed"
    );
    exit(2);
}

/// Reports which flag was malformed before the usage text, so a typo in
/// one flag does not read as "you got the whole invocation wrong".
fn flag_error(flag: &str, got: Option<&String>) -> ! {
    match got {
        Some(v) => eprintln!("error: invalid value {v:?} for {flag}\n"),
        None => eprintln!("error: {flag} requires a value\n"),
    }
    usage();
}

/// [`flag_error`] for enumerated flags: names every valid value, so a
/// typo'd enum member is answered with the actual menu.
fn enum_flag_error(flag: &str, got: Option<&String>, valid: &str) -> ! {
    match got {
        Some(v) => eprintln!("error: invalid value {v:?} for {flag} (valid: {valid})\n"),
        None => eprintln!("error: {flag} requires a value (valid: {valid})\n"),
    }
    usage();
}

fn parse_kind(s: &str) -> SorterKind {
    match s {
        "prefix" => SorterKind::Prefix,
        "mux-merger" | "muxmerge" | "mux" => SorterKind::MuxMerger,
        "fish" => SorterKind::Fish { k: None },
        other => {
            eprintln!("unknown network {other:?} (try prefix | mux-merger | fish)");
            exit(2);
        }
    }
}

struct Args {
    network: String,
    n: Option<usize>,
    m: Option<usize>,
    engine: Engine,
    opt: OptLevel,
    harden_duplicate: bool,
    metrics: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    profile: bool,
    rust: bool,
    standalone: bool,
    fn_name: Option<String>,
    faults: bool,
    faults_out: Option<String>,
    multi: Option<usize>,
    clocked: bool,
    tenants: Option<usize>,
    checkpoint: Option<String>,
    resume: bool,
    faults_timeout_secs: Option<u64>,
    addr: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    batch_max: Option<usize>,
    max_n: Option<usize>,
    chaos: bool,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        network: "mux-merger".to_string(),
        n: None,
        m: None,
        engine: Engine::default(),
        opt: OptLevel::default(),
        harden_duplicate: false,
        metrics: false,
        metrics_out: None,
        trace_out: None,
        profile: false,
        rust: false,
        standalone: false,
        fn_name: None,
        faults: false,
        faults_out: None,
        multi: None,
        clocked: false,
        tenants: None,
        checkpoint: None,
        resume: false,
        faults_timeout_secs: None,
        addr: None,
        workers: None,
        queue: None,
        batch_max: None,
        max_n: None,
        chaos: false,
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    let parse_usize = |flag: &str, it: &mut std::slice::Iter<'_, String>| -> usize {
        let v = it.next();
        v.and_then(|v| v.parse().ok())
            .unwrap_or_else(|| flag_error(flag, v))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--network" => {
                a.network = it
                    .next()
                    .unwrap_or_else(|| flag_error("--network", None))
                    .clone()
            }
            "--n" => a.n = Some(parse_usize("--n", &mut it)),
            "--m" => a.m = Some(parse_usize("--m", &mut it)),
            "--engine" => {
                let v = it.next();
                a.engine = v
                    .and_then(|v| Engine::parse(v))
                    .unwrap_or_else(|| enum_flag_error("--engine", v, Engine::VALID));
            }
            "--opt-level" => {
                let v = it.next();
                a.opt = match v.map(|v| (v, OptLevel::parse(v))) {
                    Some((_, Ok(level))) => level,
                    Some((v, Err(OptLevelError::Removed))) => {
                        eprintln!(
                            "error: --opt-level {v:?} was removed with constant propagation \
                             and CSE (valid: {})\n",
                            OptLevel::VALID
                        );
                        usage()
                    }
                    _ => enum_flag_error("--opt-level", v, OptLevel::VALID),
                };
            }
            "--harden-duplicate" => a.harden_duplicate = true,
            "--metrics" => a.metrics = true,
            "--metrics-out" => {
                a.metrics_out = Some(
                    it.next()
                        .unwrap_or_else(|| flag_error("--metrics-out", None))
                        .clone(),
                );
            }
            "--trace-out" => {
                a.trace_out = Some(
                    it.next()
                        .unwrap_or_else(|| flag_error("--trace-out", None))
                        .clone(),
                );
            }
            "--profile" => a.profile = true,
            "--rust" => a.rust = true,
            "--standalone" => a.standalone = true,
            "--fn-name" => {
                a.fn_name = Some(
                    it.next()
                        .unwrap_or_else(|| flag_error("--fn-name", None))
                        .clone(),
                );
            }
            "--faults" => a.faults = true,
            "--faults-out" => {
                a.faults_out = Some(
                    it.next()
                        .unwrap_or_else(|| flag_error("--faults-out", None))
                        .clone(),
                );
            }
            "--multi" => {
                let k = parse_usize("--multi", &mut it);
                if k == 0 {
                    flag_error("--multi", Some(&"0".to_string()));
                }
                a.multi = Some(k);
            }
            "--clocked" => a.clocked = true,
            "--tenants" => {
                let t = parse_usize("--tenants", &mut it);
                if t == 0 {
                    flag_error("--tenants", Some(&"0".to_string()));
                }
                a.tenants = Some(t);
            }
            "--checkpoint" => {
                a.checkpoint = Some(
                    it.next()
                        .unwrap_or_else(|| flag_error("--checkpoint", None))
                        .clone(),
                );
            }
            "--resume" => a.resume = true,
            "--faults-timeout-secs" => {
                a.faults_timeout_secs = Some(parse_usize("--faults-timeout-secs", &mut it) as u64);
            }
            "--addr" => {
                a.addr = Some(
                    it.next()
                        .unwrap_or_else(|| flag_error("--addr", None))
                        .clone(),
                );
            }
            "--workers" => a.workers = Some(parse_usize("--workers", &mut it)),
            "--queue" => {
                let q = parse_usize("--queue", &mut it);
                if q == 0 {
                    flag_error("--queue", Some(&"0".to_string()));
                }
                a.queue = Some(q);
            }
            "--batch-max" => {
                let b = parse_usize("--batch-max", &mut it);
                if b == 0 {
                    flag_error("--batch-max", Some(&"0".to_string()));
                }
                a.batch_max = Some(b);
            }
            "--max-n" => {
                let n = parse_usize("--max-n", &mut it);
                if n == 0 {
                    flag_error("--max-n", Some(&"0".to_string()));
                }
                a.max_n = Some(n);
            }
            "--chaos" => a.chaos = true,
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag {other}\n");
                usage()
            }
            other => a.positional.push(other.to_string()),
        }
    }
    // Flag dependency: a report path without the campaign flag is a
    // mistake worth naming precisely, not silently accepting.
    if a.faults_out.is_some() && !a.faults {
        eprintln!(
            "error: --faults-out requires --faults (it names the fault-campaign report path)\n"
        );
        usage();
    }
    // Same for the telemetry output paths: without --metrics nothing is
    // recorded, so a bare output path would silently produce nothing.
    let metrics_only = [
        (a.metrics_out.is_some(), "--metrics-out"),
        (a.trace_out.is_some(), "--trace-out"),
    ];
    for (set, flag) in metrics_only {
        if set && !a.metrics {
            eprintln!("error: {flag} requires --metrics (it names a telemetry output path)\n");
            usage();
        }
    }
    let campaign_only = [
        (a.harden_duplicate, "--harden-duplicate"),
        (a.multi.is_some(), "--multi"),
        (a.clocked, "--clocked"),
        (a.tenants.is_some(), "--tenants"),
        (a.checkpoint.is_some(), "--checkpoint"),
        (a.resume, "--resume"),
        (a.faults_timeout_secs.is_some(), "--faults-timeout-secs"),
    ];
    for (set, flag) in campaign_only {
        if set && !a.faults {
            eprintln!("error: {flag} requires --faults (it tunes the fault campaign)\n");
            usage();
        }
    }
    // Tenancy only means something for the clocked streamer sweep.
    if a.tenants.is_some() && !a.clocked {
        eprintln!("error: --tenants requires --clocked (it schedules the clocked streamer)\n");
        usage();
    }
    a
}

fn require_pow2(n: usize) {
    if !n.is_power_of_two() || n < 2 {
        eprintln!("size {n} must be a power of two >= 2");
        exit(1);
    }
}

fn build_circuit(network: &str, n: usize) -> absort::circuit::Circuit {
    require_pow2(n);
    match network {
        "prefix" => prefix::build(n),
        "mux-merger" | "muxmerge" | "mux" => muxmerge::build(n),
        "nonadaptive" => nonadaptive::build(n),
        "fish" => {
            eprintln!("the fish sorter is time-multiplexed (Model B); it has no single combinational circuit — use inspect/sort instead");
            exit(2);
        }
        other => {
            eprintln!("unknown network {other:?}");
            exit(2);
        }
    }
}

fn cmd_sort(a: &Args) {
    let bits_str = a.positional.first().unwrap_or_else(|| usage());
    let bits = lang::bits(bits_str);
    if !bits.len().is_power_of_two() {
        eprintln!("input length {} is not a power of two", bits.len());
        exit(1);
    }
    let out = if a.network == "nonadaptive" {
        let c = nonadaptive::build(bits.len());
        c.eval(&bits)
    } else {
        parse_kind(&a.network).sort(&bits)
    };
    println!("{}", lang::show(&out, 4));
    if a.network != "nonadaptive" {
        let kind = parse_kind(&a.network);
        println!(
            "network: {}   cost model: {} units   depth/time: {}",
            kind.name(),
            kind.cost(bits.len()),
            kind.depth(bits.len())
        );
    }
}

fn cmd_route(a: &Args) {
    let spec = a.positional.first().unwrap_or_else(|| usage());
    let dests: Vec<usize> = spec
        .split(',')
        .map(|t| {
            t.trim().parse().unwrap_or_else(|_| {
                eprintln!("bad destination {t:?}");
                exit(1)
            })
        })
        .collect();
    let n = dests.len();
    if !n.is_power_of_two() {
        eprintln!("permutation length {n} is not a power of two");
        exit(1);
    }
    let rp = RadixPermuter::new(parse_kind(&a.network), n);
    let packets: Vec<(usize, String)> = dests
        .iter()
        .enumerate()
        .map(|(i, &d)| (d, format!("p{i}")))
        .collect();
    match rp.route(&packets) {
        Ok(out) => {
            for (slot, payload) in out.iter().enumerate() {
                println!("output {slot} <- {payload}");
            }
            println!(
                "bit-level cost {}   permutation time {}   {}-switched",
                rp.cost(),
                rp.time(),
                if rp.is_packet_switched() {
                    "packet"
                } else {
                    "circuit"
                }
            );
        }
        Err(e) => {
            eprintln!("routing failed: {e}");
            exit(1);
        }
    }
}

fn cmd_concentrate(a: &Args) {
    let pattern = a.positional.first().unwrap_or_else(|| usage());
    let n = pattern.chars().count();
    if !n.is_power_of_two() {
        eprintln!("pattern length {n} is not a power of two");
        exit(1);
    }
    let m = a.m.unwrap_or(n);
    let conc = Concentrator::new(parse_kind(&a.network), n, m);
    let requests: Vec<Option<char>> = pattern.chars().map(|c| (c != '.').then_some(c)).collect();
    match conc.concentrate(&requests) {
        Ok(out) => {
            let rendered: String = out.iter().map(|o| o.unwrap_or('.')).collect();
            println!("{rendered}");
            println!("cost {}   time {}", conc.cost(), conc.time());
        }
        Err(e) => {
            eprintln!("concentration failed: {e}");
            exit(1);
        }
    }
}

fn cmd_inspect(a: &Args) {
    let n = a.n.unwrap_or_else(|| usage());
    if a.network == "fish" {
        if a.profile {
            eprintln!(
                "error: --profile profiles a compiled combinational tape; the fish sorter is time-multiplexed (Model B)"
            );
            exit(2);
        }
        let f = absort::core::FishSorter::with_default_k(n);
        let r = f.report();
        println!("fish sorter n={n} k={}", f.k);
        println!("  cost (exact construction): {}", r.cost_exact);
        println!("  cost (paper eq. 17 bound): {}", r.cost_paper_bound);
        println!("  sorting time serial:       {}", r.time_unpipelined);
        println!("  sorting time pipelined:    {}", r.time_pipelined);
        return;
    }
    let c = build_circuit(&a.network, n);
    println!("{} sorter, n = {n}", a.network);
    println!("  {}", c.cost());
    println!("  depth: {}", c.depth());
    let stats = c.stats();
    record_circuit_section(&a.network, n, &stats);
    println!(
        "  components: {}   wires: {}   mean fanout: {:.2}",
        c.n_components(),
        c.n_wires(),
        stats.mean_fanout
    );
    println!("hardware profile:");
    print!("{}", c.scope_report(3));
    let cc = c.compile_with(&CompileOptions::for_level(a.opt));
    println!("compiled tape (opt level {}):", a.opt);
    for s in cc.pass_stats() {
        println!(
            "  {:<14} {:>6} -> {:>6} ops  (-{})",
            s.name,
            s.ops_before,
            s.ops_after,
            s.removed()
        );
    }
    println!(
        "  tape: {} ops, {} slots (vs {} wires, {:.1}% saved)",
        cc.tape_len(),
        cc.n_slots(),
        c.n_wires(),
        100.0 * cc.slots_saved() as f64 / c.n_wires() as f64
    );
    println!(
        "  decoded: {} dispatches (switch chains and op pairs fused)",
        CompiledEvaluator::<u64>::new(&cc).dispatches()
    );
    if a.profile {
        print_tape_profile(&cc);
    }
}

/// Human `ns` rendering for the profile table (the telemetry crate's
/// formatter is private, and `--profile` works without telemetry).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Replays deterministic 64-lane workloads through the compiled tape —
/// profiling one pass in four, the other passes run unprofiled — and
/// prints the hot-op table plus the hottest depth levels.
fn print_tape_profile(cc: &absort::circuit::CompiledCircuit) {
    use absort::circuit::TapeProfile;
    const TOTAL_PASSES: usize = 128;
    const SAMPLE_EVERY: usize = 4;
    let mut prof = TapeProfile::new();
    let mut ev: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(cc);
    let mut out = vec![0u64; cc.n_outputs()];
    let mut inputs = vec![0u64; cc.n_inputs()];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut splitmix = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for pass in 0..TOTAL_PASSES {
        for v in inputs.iter_mut() {
            *v = splitmix();
        }
        if pass % SAMPLE_EVERY == 0 {
            ev.run_into_profiled(&inputs, &mut out, &mut prof);
        } else {
            ev.run_into(&inputs, &mut out);
        }
    }
    let total_ns = prof.total_ns().max(1);
    println!(
        "tape profile ({} of {TOTAL_PASSES} passes sampled, 64-lane):",
        prof.passes
    );
    println!(
        "  {:<14} {:>10} {:>12} {:>7} {:>8}",
        "kind", "execs", "time", "%time", "ns/op"
    );
    for (name, k) in prof.hot_kinds() {
        println!(
            "  {:<14} {:>10} {:>12} {:>6.1}% {:>8.1}",
            name,
            k.executions,
            fmt_ns(k.total_ns),
            100.0 * k.total_ns as f64 / total_ns as f64,
            k.total_ns as f64 / k.executions as f64,
        );
    }
    // Adjacent tape-op pairs, level boundaries included — the statistic
    // decode's fusion menu (switch chains, op pairs) is derived from.
    let pairs = prof.hot_pairs();
    if !pairs.is_empty() {
        let total_pairs: u64 = pairs.iter().map(|&(_, c)| c).sum();
        println!("  hottest adjacent op pairs (fusion candidates):");
        for ((a, b), count) in pairs.iter().take(8) {
            println!(
                "    {:<28} {:>10}  ({:>4.1}%)",
                format!("{a} + {b}"),
                count,
                100.0 * *count as f64 / total_pairs as f64,
            );
        }
    }
    let mut levels: Vec<(usize, absort::circuit::profile::LevelStat)> = prof
        .levels
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, l)| l.executions > 0)
        .collect();
    levels.sort_by_key(|l| std::cmp::Reverse(l.1.total_ns));
    println!("  hottest levels (of {} + prologue):", cc.n_levels());
    for (i, l) in levels.iter().take(8) {
        let label = if *i == 0 {
            "prologue".to_owned()
        } else {
            format!("level {}", i - 1)
        };
        println!(
            "    {:<10} {:>8} ops {:>12} ({:>4.1}%)",
            label,
            l.executions,
            fmt_ns(l.total_ns),
            100.0 * l.total_ns as f64 / total_ns as f64,
        );
    }
    println!("  (per-op times include the clock-read overhead of profiling; use them to rank, not as absolute dispatch cost)");
}

/// Sweeps all `2^n` inputs through `pass` in packed 64-lane groups
/// (integers `v, v+1, …` packed straight into lanes, no per-bool
/// vectors) and checks every lane against the sorted zero-one pattern
/// (`bit i == (i >= n − popcount)`). Returns the failure count.
fn verify_sweep(n: usize, mut pass: impl FnMut(&[u64], &mut [u64])) -> u64 {
    let total = 1u64 << n;
    let mut packed = vec![0u64; n];
    let mut out = vec![0u64; n];
    let mut failures = 0u64;
    let mut v = 0u64;
    while v < total {
        let lanes = (total - v).min(64) as usize;
        packed.fill(0);
        for lane in 0..lanes {
            let x = v + lane as u64;
            for (i, p) in packed.iter_mut().enumerate() {
                *p |= (x >> i & 1) << lane;
            }
        }
        pass(&packed, &mut out);
        for lane in 0..lanes {
            let ones = (v + lane as u64).count_ones() as usize;
            let ok = out
                .iter()
                .enumerate()
                .all(|(i, word)| (word >> lane & 1 == 1) == (i >= n - ones));
            if !ok {
                failures += 1;
            }
        }
        v += lanes as u64;
    }
    failures
}

fn cmd_verify(a: &Args) {
    let n = a.n.unwrap_or_else(|| usage());
    require_pow2(n);
    if n > 20 {
        eprintln!("exhaustive verification limited to n <= 20");
        exit(1);
    }
    let failures = if a.network == "fish" {
        // The fish sorter is the time-multiplexed functional model — no
        // single combinational circuit, so no packed engine applies.
        let f = absort::core::FishSorter::with_default_k(n.max(4));
        let mut failures = 0u64;
        for v in 0..1u64 << n {
            let bits: Vec<bool> = (0..n).map(|i| v >> i & 1 == 1).collect();
            let ones = v.count_ones() as usize;
            let sorted = f.sort(&bits);
            if !sorted
                .iter()
                .enumerate()
                .all(|(i, &b)| b == (i >= n - ones))
            {
                failures += 1;
            }
        }
        failures
    } else {
        let c = build_circuit(&a.network, n);
        match a.engine {
            Engine::Compiled => {
                let cc = c.compile_with(&CompileOptions::for_level(a.opt));
                let mut ev: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&cc);
                verify_sweep(n, |p, o| ev.run_into(p, o))
            }
            Engine::Interp => {
                let mut ev: Evaluator<'_, u64> = Evaluator::new(&c);
                verify_sweep(n, |p, o| ev.run_into(p, o))
            }
        }
    };
    if failures == 0 {
        println!("verified: all {} inputs sort correctly", 1u64 << n);
        if a.network != "fish" {
            println!("engine: {}", a.engine);
        }
    } else {
        println!("FAILED on {failures} inputs");
        exit(1);
    }
}

/// `absort emit --rust --network <x> --n <k>`: compiles the network with
/// the selected options and prints the tape as straight-line Rust.
fn cmd_emit(a: &Args) {
    if !a.rust {
        eprintln!("error: emit requires a target language flag (only --rust exists)\n");
        usage();
    }
    let n = a.n.unwrap_or_else(|| usage());
    // The fish *sorter* is time-multiplexed, but its combinational
    // k-merger core is a circuit like any other — that is what `emit
    // --network fish` prints (matching the fault campaigns).
    let c = if a.network == "fish" {
        require_pow2(n);
        absort::core::fish::circuits::build_combinational_kmerger(
            n,
            absort::analysis::faults::fish_k(n),
        )
    } else {
        build_circuit(&a.network, n)
    };
    let cc = c.compile_with(&CompileOptions::for_level(a.opt));
    let fn_name = a.fn_name.clone().unwrap_or_else(|| {
        format!(
            "sort_{}_{n}",
            a.network
                .replace('-', "_")
                .replace("muxmerge", "mux_merger")
        )
    });
    print!(
        "{}",
        absort::circuit::emit::emit_rust(&cc, &fn_name, a.standalone)
    );
}

fn cmd_dot(a: &Args) {
    let n = a.n.unwrap_or_else(|| usage());
    let c = build_circuit(&a.network, n);
    print!("{}", dot::to_dot(&c, &format!("{}-{n}", a.network)));
}

fn cmd_save(a: &Args) {
    let n = a.n.unwrap_or_else(|| usage());
    let c = build_circuit(&a.network, n);
    print!("{}", absort::circuit::serdes::to_text(&c));
}

fn cmd_eval(a: &Args) {
    let [path, bits_str] = a.positional.as_slice() else {
        usage()
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    let circuit = absort::circuit::serdes::from_text(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    let bits = lang::bits(bits_str);
    if bits.len() != circuit.n_inputs() {
        eprintln!(
            "netlist has {} inputs, got {} bits",
            circuit.n_inputs(),
            bits.len()
        );
        exit(1);
    }
    println!("{}", lang::show(&circuit.eval(&bits), 0));
}

/// The daemon's configuration: the serve flags over
/// [`ServeConfig::default`].
fn serve_config(a: &Args) -> ServeConfig {
    let defaults = ServeConfig::default();
    ServeConfig {
        addr: a
            .addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:7600".to_string()),
        workers: a.workers.unwrap_or(0),
        queue_capacity: a.queue.unwrap_or(1024),
        batch_max: a.batch_max.unwrap_or(absort::serve::server::WIDE_LANES),
        max_n: a
            .max_n
            .map_or(absort::serve::proto::DEFAULT_MAX_N, |n| n as u32),
        chaos: a.chaos,
        opt: a.opt,
        ..defaults
    }
}

/// Runs the fault-tolerant sorting daemon (`absort serve`): binds,
/// serves until SIGTERM/SIGINT, then drains gracefully — stops
/// accepting, flushes in-flight requests, prints the final stats, and
/// exits 0.
fn cmd_serve(a: &Args) {
    use absort::serve::{signal, Server};
    let cfg = serve_config(a);
    signal::install_handlers();
    let server = Server::start(cfg.clone()).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {}: {e}", cfg.addr);
        exit(1);
    });
    println!("absort serve listening on {}", server.local_addr());
    if cfg.chaos {
        println!("chaos hooks ENABLED: forced-worker-panic requests will be honored");
    }
    while !signal::drain_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("drain requested: no longer accepting; flushing in-flight requests");
    let stats = server.join();
    println!(
        "drained cleanly: {} conns, {} requests, {} ok, {} shed, {} deadline-missed, \
         {} malformed, {} slow-loris closed, {} panics isolated, {} solo retries, \
         {} internal, {} batches",
        stats.conns_accepted,
        stats.requests,
        stats.replies_ok,
        stats.shed,
        stats.deadline_missed,
        stats.malformed,
        stats.slow_loris_closed,
        stats.panics_isolated,
        stats.solo_retries,
        stats.internal_errors,
        stats.batches,
    );
}

/// Stashes the inspected circuit's structural numbers as a manifest
/// section, so a `--metrics` run records *what* was measured alongside
/// where the time went.
fn record_circuit_section(network: &str, n: usize, stats: &absort::circuit::Stats) {
    use absort_telemetry::json::Value;
    absort_telemetry::add_section(
        "circuit",
        Value::obj([
            ("network", Value::Str(network.to_string())),
            ("n", Value::Int(n as i64)),
            ("cost", Value::Int(stats.cost.total as i64)),
            ("depth", Value::Int(stats.depth as i64)),
            (
                "n_components",
                Value::Int(
                    stats
                        .components_per_level
                        .iter()
                        .map(|&c| i64::from(c))
                        .sum(),
                ),
            ),
            ("mean_fanout", Value::Float(stats.mean_fanout)),
            ("max_fanout", Value::Int(i64::from(stats.max_fanout))),
        ]),
    );
}

fn unix_ms() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

/// Runs the fault-injection campaign (`absort --network <x> --faults`):
/// builds the selected networks, sweeps every fault kind over their
/// fault sites, prints a detection/degradation summary, and writes the
/// JSON report (default `results/faults/campaign-<unix-ms>.json`).
fn cmd_faults(a: &Args) {
    use absort::analysis::faults::{self as fc, NetworkSel};
    let n = a.n.unwrap_or(8);
    require_pow2(n);
    let networks: Vec<NetworkSel> = if a.network == "all" {
        NetworkSel::ALL.to_vec()
    } else {
        match NetworkSel::parse(&a.network) {
            Some(sel) => vec![sel],
            None => {
                eprintln!(
                    "unknown network {:?} (try prefix | mux-merger | fish | batcher | all)",
                    a.network
                );
                exit(2);
            }
        }
    };
    let cfg = fc::CampaignConfig {
        n,
        engine: a.engine,
        opt: CompileOptions::for_level(a.opt),
        harden: absort::networks::hardened::HardenOptions {
            duplicate: a.harden_duplicate,
            ..Default::default()
        },
        ..Default::default()
    };
    // --resume implies a checkpoint; default its path so "interrupt, then
    // rerun with --resume" works without repeating the flag pair.
    let checkpoint = a.checkpoint.clone().or_else(|| {
        a.resume
            .then(|| "results/faults/checkpoint.json".to_string())
    });
    let opts = fc::CampaignOptions {
        multi: a.multi.unwrap_or(1),
        clocked: a.clocked,
        tenants: a.tenants.unwrap_or(1),
        checkpoint: checkpoint.as_deref().map(std::path::PathBuf::from),
        resume: a.resume,
        timeout: a.faults_timeout_secs.map(std::time::Duration::from_secs),
        ..Default::default()
    };
    let report = fc::run_campaign_with(&networks, &cfg, &opts);

    for net in &report.networks {
        let sets = if net.fault_set_size > 1 {
            format!(", {}-fault sets", net.fault_set_size)
        } else {
            String::new()
        };
        println!(
            "{} n={}  [{} tier: {} vectors/site, {} components, {} engine{}]",
            net.network, net.n, net.tier, net.vectors, net.components, a.engine, sets
        );
        for k in &net.kinds {
            println!(
                "  {:<18} injected {:>4}  detected {:>4}  masked {:>4}  flagged {:>4}  \
                 rate {:.3}  concurrent {:.3}  worst inversions {:>3}  worst displacement {:>3}",
                k.kind.map_or("mixed", |k| k.name()),
                k.injected,
                k.detected,
                k.masked,
                k.flagged,
                k.detection_rate(),
                k.concurrent_detection_rate(),
                k.degradation.max_inversions,
                k.degradation.max_displacement,
            );
        }
        println!(
            "  permanent-fault detection rate: {:.3}   concurrent (error-rail): {:.3}",
            net.permanent_detection_rate(),
            net.concurrent_detection_rate()
        );
        // Recovery columns only exist for units with replay semantics
        // (the clocked streamer); keep combinational summaries unchanged.
        let (rec, fstop) = (net.recovered(), net.fail_stop());
        if rec + fstop > 0 {
            println!("  recovery (rail-triggered replay): recovered {rec}  fail-stop {fstop}");
        }
        // The hardening trade in one row: what the checker hardware
        // costs against the concurrent coverage it buys.
        let overhead = net.hardened_cost.saturating_sub(net.base_cost);
        println!(
            "  hardening: base cost {}  hardened {}  overhead {} units ({:.1}%)  \
             concurrent coverage {:.3}",
            net.base_cost,
            net.hardened_cost,
            overhead,
            if net.base_cost == 0 {
                0.0
            } else {
                100.0 * overhead as f64 / net.base_cost as f64
            },
            net.concurrent_detection_rate(),
        );
    }
    if report.truncated {
        println!(
            "campaign truncated by --faults-timeout-secs; rerun with --resume to finish{}",
            checkpoint
                .as_deref()
                .map(|p| format!(" (checkpoint: {p})"))
                .unwrap_or_default()
        );
    }

    let path = a
        .faults_out
        .clone()
        .unwrap_or_else(|| format!("results/faults/campaign-{}.json", unix_ms()));
    // The report rides in the run manifest (spans and counters of the
    // campaign included) via the telemetry manifest writer.
    absort_telemetry::add_section("faults", report.to_json());
    match absort_telemetry::write_manifest(std::path::Path::new(&path)) {
        Ok(()) => println!("fault report: {path}"),
        Err(e) => {
            eprintln!("error: cannot write fault report {path}: {e}");
            exit(1);
        }
    }
}

/// Runs the flag-only metrics mode (`absort --network <x> --metrics`):
/// builds and compiles the selected network, then sweeps both evaluation
/// engines over a deterministic 64-lane workload with instrumentation
/// on, so the manifest carries populated eval-latency histograms (and
/// `--trace-out` a non-trivial span trace) without needing a campaign.
fn cmd_metrics_run(a: &Args) {
    use absort::analysis::faults::{build_network, NetworkSel};
    let n = a.n.unwrap_or(8);
    require_pow2(n);
    let Some(sel) = NetworkSel::parse(&a.network) else {
        eprintln!(
            "unknown network {:?} (try prefix | mux-merger | fish | batcher)",
            a.network
        );
        exit(2);
    };
    const PASSES: usize = 256;
    let _span = absort_telemetry::span("metrics_run");
    let circuit = {
        let _s = absort_telemetry::span("build");
        build_network(sel, n)
    };
    record_circuit_section(&a.network, n, &circuit.stats());
    let cc = {
        let _s = absort_telemetry::span("compile");
        circuit.compile_with(&CompileOptions::for_level(a.opt))
    };
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut splitmix = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut inputs = vec![0u64; circuit.n_inputs()];
    let mut out = vec![0u64; circuit.n_outputs()];
    {
        let _s = absort_telemetry::span("eval/interp");
        let mut ev: Evaluator<'_, u64> = Evaluator::new(&circuit);
        for _ in 0..PASSES {
            for v in inputs.iter_mut() {
                *v = splitmix();
            }
            ev.run_into(&inputs, &mut out);
        }
    }
    {
        let _s = absort_telemetry::span("eval/compiled");
        let mut ev: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&cc);
        for _ in 0..PASSES {
            for v in inputs.iter_mut() {
                *v = splitmix();
            }
            ev.run_into(&inputs, &mut out);
        }
    }
    println!(
        "metrics run: {} n={n}, {PASSES} passes x 64 lanes per engine (tape: {} ops, {} slots)",
        sel.name(),
        cc.tape_len(),
        cc.n_slots(),
    );
}

/// Prints the telemetry report to stderr and writes the run manifest (to
/// `--metrics-out`, or a default path named after `name`) and the trace.
fn write_metrics(a: &Args, name: &str) {
    eprint!("{}", absort_telemetry::render_report());
    let path = a
        .metrics_out
        .as_ref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| absort_telemetry::default_manifest_path(name));
    match absort_telemetry::write_manifest(&path) {
        Ok(()) => eprintln!("telemetry manifest: {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write manifest {}: {e}", path.display());
            exit(1);
        }
    }
    write_trace_out(a);
}

/// Writes the Chrome trace if `--trace-out` was given (event recording
/// must have been switched on before the instrumented work ran).
fn write_trace_out(a: &Args) {
    let Some(path) = &a.trace_out else { return };
    match absort_telemetry::write_trace(std::path::Path::new(path)) {
        Ok(()) => eprintln!("trace: {path}"),
        Err(e) => {
            eprintln!("error: cannot write trace {path}: {e}");
            exit(1);
        }
    }
}

fn run_command(cmd: &str, rest: &Args) {
    // The campaign flags belong to the standalone flag-only mode; accepting
    // them here and doing nothing would silently drop the user's ask.
    if rest.faults || rest.faults_out.is_some() {
        eprintln!(
            "error: --faults/--faults-out run standalone: absort --network <x> --faults [--faults-out <path>]\n"
        );
        usage();
    }
    // --profile drives the inspect tape profiler; accepting it elsewhere
    // and doing nothing would silently drop the user's ask.
    if rest.profile && cmd != "inspect" {
        eprintln!("error: --profile applies to the inspect command only\n");
        usage();
    }
    // Same for the emitter flags: they select emit's output shape.
    let emit_only = [
        (rest.rust, "--rust"),
        (rest.standalone, "--standalone"),
        (rest.fn_name.is_some(), "--fn-name"),
    ];
    for (set, flag) in emit_only {
        if set && cmd != "emit" {
            eprintln!("error: {flag} applies to the emit command only\n");
            usage();
        }
    }
    // And the daemon flags: they configure the serve command.
    let serve_only = [
        (rest.addr.is_some(), "--addr"),
        (rest.workers.is_some(), "--workers"),
        (rest.queue.is_some(), "--queue"),
        (rest.batch_max.is_some(), "--batch-max"),
        (rest.max_n.is_some(), "--max-n"),
        (rest.chaos, "--chaos"),
    ];
    for (set, flag) in serve_only {
        if set && cmd != "serve" {
            eprintln!("error: {flag} applies to the serve command only\n");
            usage();
        }
    }
    match cmd {
        "sort" => cmd_sort(rest),
        "route" => cmd_route(rest),
        "concentrate" => cmd_concentrate(rest),
        "inspect" => cmd_inspect(rest),
        "verify" => cmd_verify(rest),
        "emit" => cmd_emit(rest),
        "dot" => cmd_dot(rest),
        "save" => cmd_save(rest),
        "eval" => cmd_eval(rest),
        "serve" => cmd_serve(rest),
        _ => usage(),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    if cmd.starts_with("--") {
        // Flag-only invocation: a fault campaign, or a metrics run.
        let a = parse_args(&argv);
        if !a.faults && !a.metrics {
            usage();
        }
        absort_telemetry::init_from_env();
        absort_telemetry::set_enabled(true);
        if a.trace_out.is_some() {
            absort_telemetry::set_trace_enabled(true);
        }
        if a.faults {
            cmd_faults(&a);
            write_trace_out(&a);
        } else {
            cmd_metrics_run(&a);
            write_metrics(&a, "metrics-run");
        }
        return;
    }
    let rest = parse_args(&argv[1..]);
    absort_telemetry::init_from_env();
    if rest.metrics {
        absort_telemetry::set_enabled(true);
    }
    if rest.trace_out.is_some() {
        absort_telemetry::set_trace_enabled(true);
    }
    {
        let _span = absort_telemetry::span(cmd);
        run_command(cmd, &rest);
    }
    if absort_telemetry::enabled() {
        write_metrics(&rest, cmd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        parse_args(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn serve_follows_the_daemon_default_opt_level() {
        assert_eq!(serve_config(&args(&[])).opt, ServeConfig::default().opt);
        assert_eq!(serve_config(&args(&["--opt-level", "0"])).opt, OptLevel::O0);
    }
}
