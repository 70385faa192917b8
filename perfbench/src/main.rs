//! End-to-end and per-layer benchmark of the absort sorting service, fault
//! campaigns and compiler.
//!
//! ```text
//! absort-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--setup-only] [--bite oracle|tape]
//! absort-perfbench --catalogue
//! ```
//!
//! Every input is generated from `--seed`. Every output the program returns
//! is checked against an oracle that shares no code with the path under
//! test; any wrong output makes the run exit 1 without printing a result.
//! Otherwise the last stdout line is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `--setup-only` stops
//! after set-up and prints only `setup_s` (`run.py` takes the median over
//! several fresh processes). `--bite` deliberately corrupts an oracle or a
//! tape, to show that the checks fail the run. `--catalogue` prints every
//! metric name with its unit.

mod calib;
mod campaign;
mod compile;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_out";

/// Which check to corrupt on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bite {
    /// The benchmark's own oracle expects a wrong answer.
    Oracle,
    /// The tape under test is replaced by a mutant's tape.
    Tape,
}

/// Parsed command line plus the process start time.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub setup_only: bool,
    pub bite: Option<Bite>,
    pub started: Instant,
}

impl Ctx {
    /// Seconds since the process started: the set-up time when called
    /// right before the first timed unit.
    pub fn since_start(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The timed phases of a run: the whole run untraced, or an untraced
    /// half followed by a traced half, so tracing overhead is measured
    /// inside one process.
    pub fn phases(&self) -> Vec<(bool, Duration)> {
        if self.trace {
            vec![(false, self.seconds / 2), (true, self.seconds / 2)]
        } else {
            vec![(false, self.seconds)]
        }
    }
}

/// What a workload hands back: counts, failures and named metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    failures: Vec<String>,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one failed operation; the first few are described on stderr.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what.into());
        }
    }

    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Sets a metric, which must be one this benchmark declares.
    pub fn set(&mut self, name: &str, value: f64) {
        let name = layers::declared(name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in layers.rs"));
        self.metrics.insert(name, value);
    }

    /// Sets `trace.overhead_pct` and `trace.unexplained_pct`: the traced
    /// p50 against the untraced p50, and the share of the traced unit time
    /// that the timed layers do not cover.
    pub fn set_trace_shares(&mut self, untraced_p50: f64, traced_p50: f64, explained: f64) {
        self.set(
            "trace.overhead_pct",
            100.0 * (traced_p50 / untraced_p50 - 1.0),
        );
        self.set(
            "trace.unexplained_pct",
            100.0 * (1.0 - explained / traced_p50),
        );
    }
}

fn parse_args() -> Result<Ctx, String> {
    let started = Instant::now();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_only = false;
    let mut bite = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--setup-only" => setup_only = true,
            "--bite" => {
                bite = Some(match value()?.as_str() {
                    "oracle" => Bite::Oracle,
                    "tape" => Bite::Tape,
                    other => return Err(format!("--bite must be oracle or tape, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !layers::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {:?}",
            layers::WORKLOADS
        ));
    }
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        setup_only,
        bite,
        started,
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn print_catalogue() {
    let list = |metrics: &[(&str, &str)]| {
        metrics
            .iter()
            .map(|(n, u)| format!("[\"{n}\", \"{u}\"]"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "{{\"workloads\": [{}], \"end_to_end\": [{}], \"per_layer\": [{}]}}",
        layers::WORKLOADS.map(|w| format!("\"{w}\"")).join(", "),
        list(layers::END_TO_END),
        list(layers::per_layer())
    );
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--catalogue") {
        print_catalogue();
        return ExitCode::SUCCESS;
    }
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spans = trace::Spans::new(ctx.trace && !ctx.setup_only);
    let mut rep = Report::default();
    let outcome = match ctx.workload.as_str() {
        "serve-burst" => serve::run(&ctx, &mut rep, &mut spans),
        "campaign" => campaign::run(&ctx, &mut rep, &mut spans),
        "compile" => compile::run(&ctx, &mut rep, &mut spans),
        _ => unreachable!("workload names are validated at parse time"),
    };
    if let Err(e) = outcome {
        rep.fail(e);
    }
    if rep.failed > 0 {
        eprintln!(
            "FAILED: {} of {} operations failed on workload {} (seed {})",
            rep.failed, rep.attempted, ctx.workload, ctx.seed
        );
        for f in &rep.failures {
            eprintln!("  - {f}");
        }
        return ExitCode::FAILURE;
    }

    if ctx.setup_only {
        println!("{{\"setup_s\": {}}}", rep.metrics["setup_s"]);
        return ExitCode::SUCCESS;
    }
    if spans.enabled() {
        let path = Path::new(TRACE_DIR).join(format!("trace-{}-{}.json", ctx.workload, ctx.seed));
        match spans.write(&path, &ctx.workload, ctx.seed) {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        match peak_rss_mb() {
            Some(mb) => rep.set("peak_rss_mb", mb),
            None => {
                eprintln!("error: cannot read VmHWM from /proc/self/status");
                return ExitCode::FAILURE;
            }
        }
    }

    // Every declared metric of the requested kind is printed; a per-layer
    // metric the workload does not exercise reads 0.
    let wanted = if ctx.trace {
        layers::per_layer()
    } else {
        layers::END_TO_END
    };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = match rep.metrics.get(name) {
            Some(&v) => v,
            None if ctx.trace => 0.0,
            None => {
                eprintln!("error: workload {} did not measure {name}", ctx.workload);
                return ExitCode::FAILURE;
            }
        };
        if !value.is_finite() {
            eprintln!("error: metric {name} is not finite ({value})");
            return ExitCode::FAILURE;
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
