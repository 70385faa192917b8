//! `bench_compare` — the perf regression gate over committed bench JSON.
//!
//! Diffs a freshly generated document against a committed baseline and
//! classifies every difference as either a hard failure or a warning.
//! Two schema families are understood, dispatched on the `schema`
//! field: `absort-bench-eval/*` (the `bench_eval` engine comparison)
//! and `absort-bench-serve/*` (the `bench_serve` load-test report).
//!
//! - **FAIL** (exit 1): unreadable/unparseable input, schema loss (the
//!   fresh document's schema is missing, foreign, from a different
//!   family than the baseline, or *older* than the baseline's),
//!   coverage loss (a baseline size row, headline metric, or the
//!   fault-campaign section missing from the fresh document; a serve
//!   report missing a required column or completing zero requests).
//!   Missing size rows alone can be waived with `--allow-missing-sizes`
//!   (for `--quick` CI runs diffed against a full baseline). A v5 row
//!   must carry every opt-level tier in `opt_levels`, and a tier whose
//!   tape is longer than the tier below it also fails hard: a pass
//!   must never grow the tape.
//! - **WARN** (exit 0, or exit 3 with `--strict`): `lanes_speedup`
//!   dropping more than 10% below the baseline on any common size, the
//!   fault-campaign `speedup` doing the same, a row's O2 wide walk
//!   (`compiled_wide_ms`) running more than 10% above its O1 walk, or
//!   a serve report's `throughput_rps` dropping more than 10% on a
//!   comparable workload.
//!
//! Usage:
//!   bench_compare <fresh.json> <baseline.json> [--strict] [--allow-missing-sizes]
//!
//! Exit codes: 0 ok, 1 fail, 2 usage, 3 warnings under `--strict`.

use absort_telemetry::json::{parse, Value};

/// Fractional speedup drop below baseline that triggers a warning.
const SPEEDUP_DROP_THRESHOLD: f64 = 0.10;

/// Headline metrics every common size row must carry (coverage check).
const REQUIRED_SIZE_METRICS: &[&str] = &[
    "compile_ms",
    "interp_lanes_ms",
    "compiled_wide_ms",
    "lanes_speedup",
    "scalar_speedup",
];

/// Metrics the v3 schema added; required on every fresh size row once
/// the fresh document declares v3 or newer (the ops decode fused away
/// must be reported for the tape it benchmarked).
const V3_REQUIRED_SIZE_METRICS: &[&str] = &["compile.pass.fuse.fused"];

/// Opt-level tiers every fresh size row must carry in `opt_levels` once
/// the fresh document declares v5 or newer, each with its `tape_len`
/// and `compiled_wide_ms`.
const V5_REQUIRED_TIERS: [i64; 3] = [0, 1, 2];

/// Metrics that are only present on some rows (e.g. `emitted_scalar_ms`
/// exists only where a committed golden exists): required on a fresh row
/// exactly when the baseline row carries them — dropping one is a
/// coverage loss, never having had it is fine.
const CARRY_FORWARD_SIZE_METRICS: &[&str] = &["emitted_scalar_ms"];

const SCHEMA_PREFIX: &str = "absort-bench-eval/";
const SCHEMA_V3: &str = "absort-bench-eval/v3";
const SCHEMA_V5: &str = "absort-bench-eval/v5";
const SERVE_SCHEMA_PREFIX: &str = "absort-bench-serve/";

/// Columns every serve report must carry; dropping one is coverage loss.
const SERVE_REQUIRED_METRICS: &[&str] = &[
    "throughput_rps",
    "p50_us",
    "p99_us",
    "p999_us",
    "requests",
    "completed",
    "shed",
    "retried",
    "deadline_missed",
    "errors",
];

#[derive(Default)]
struct Options {
    strict: bool,
    allow_missing_sizes: bool,
}

#[derive(Default)]
struct Outcome {
    failures: Vec<String>,
    warnings: Vec<String>,
    notes: Vec<String>,
}

fn schema_of<'a>(doc: &'a Value, which: &str, prefix: &str, out: &mut Outcome) -> Option<&'a str> {
    match doc.get("schema").and_then(Value::as_str) {
        Some(s) if s.starts_with(prefix) => Some(s),
        Some(s) => {
            out.failures
                .push(format!("{which}: foreign schema `{s}` (want {prefix}*)"));
            None
        }
        None => {
            out.failures
                .push(format!("{which}: missing `schema` field"));
            None
        }
    }
}

/// Versions are `v1`, `v2`, ...: lexicographic order is version order,
/// so a fresh document must never be older than its baseline.
fn check_schema_order(fresh: &str, base: &str, out: &mut Outcome) {
    if fresh < base {
        out.failures.push(format!(
            "schema regression: fresh `{fresh}` is older than baseline `{base}`"
        ));
    } else if fresh > base {
        out.notes.push(format!(
            "schema upgraded: baseline `{base}` -> fresh `{fresh}`"
        ));
    }
}

/// `(n, row)` pairs from the document's `sizes` array.
fn size_rows(doc: &Value) -> Vec<(i64, Value)> {
    doc.get("sizes")
        .and_then(Value::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| r.get("n").and_then(Value::as_i64).map(|n| (n, r.clone())))
                .collect()
        })
        .unwrap_or_default()
}

/// Warns when `fresh` fell more than [`SPEEDUP_DROP_THRESHOLD`] below
/// `base`; otherwise records the delta as a note.
fn check_speedup(label: &str, fresh: f64, base: f64, out: &mut Outcome) {
    if base <= 0.0 {
        return;
    }
    let drop = (base - fresh) / base;
    if drop > SPEEDUP_DROP_THRESHOLD {
        out.warnings.push(format!(
            "{label}: speedup {fresh:.2}x is {:.0}% below baseline {base:.2}x",
            drop * 100.0
        ));
    } else {
        out.notes.push(format!(
            "{label}: speedup {fresh:.2}x vs baseline {base:.2}x (ok)"
        ));
    }
}

/// One `opt_levels` entry of a size row.
struct Tier {
    level: i64,
    tape_len: f64,
    wide_ms: f64,
}

/// The row's `opt_levels` entries that carry a level, a tape length and
/// a wide-walk time, ascending by level.
fn opt_tiers(row: &Value) -> Vec<Tier> {
    let mut tiers: Vec<Tier> = row
        .get("opt_levels")
        .and_then(Value::as_arr)
        .into_iter()
        .flatten()
        .filter_map(|t| {
            Some(Tier {
                level: t.get("level").and_then(Value::as_i64)?,
                tape_len: t.get("tape_len").and_then(Value::as_f64)?,
                wide_ms: t.get("compiled_wide_ms").and_then(Value::as_f64)?,
            })
        })
        .collect();
    tiers.sort_by_key(|t| t.level);
    tiers
}

/// The per-tier gate. Tape length is deterministic, so a tier whose tape
/// is longer than the tier below it fails hard; wall clock is noisy, so
/// an O2 wide walk more than [`SPEEDUP_DROP_THRESHOLD`] above O1's only
/// warns.
fn check_tiers(n: i64, tiers: &[Tier], out: &mut Outcome) {
    for pair in tiers.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        if hi.tape_len > lo.tape_len {
            out.failures.push(format!(
                "opt-level regression: n={n} O{} tape ({} ops) is longer than O{} ({} ops)",
                hi.level, hi.tape_len, lo.level, lo.tape_len
            ));
        } else {
            out.notes.push(format!(
                "n={n} O{} -> O{} tape: {} -> {} ops (ok)",
                lo.level, hi.level, lo.tape_len, hi.tape_len
            ));
        }
    }
    let wide = |level| tiers.iter().find(|t| t.level == level).map(|t| t.wide_ms);
    if let (Some(o1), Some(o2)) = (wide(1), wide(2)) {
        if o1 > 0.0 && (o2 - o1) / o1 > SPEEDUP_DROP_THRESHOLD {
            out.warnings.push(format!(
                "n={n}: O2 wide walk {o2:.3} ms is more than {:.0}% above O1's {o1:.3} ms",
                SPEEDUP_DROP_THRESHOLD * 100.0
            ));
        }
    }
}

fn compare_docs(fresh: &Value, baseline: &Value, opts: &Options) -> Outcome {
    let mut out = Outcome::default();

    let fresh_schema = schema_of(fresh, "fresh", SCHEMA_PREFIX, &mut out);
    let base_schema = schema_of(baseline, "baseline", SCHEMA_PREFIX, &mut out);
    if let (Some(f), Some(b)) = (fresh_schema, base_schema) {
        check_schema_order(f, b, &mut out);
    }

    let fresh_sizes = size_rows(fresh);
    let base_sizes = size_rows(baseline);
    if base_sizes.is_empty() {
        out.failures
            .push("baseline: no size rows (empty or missing `sizes` array)".into());
    }
    if fresh_sizes.is_empty() {
        out.failures
            .push("fresh: no size rows (empty or missing `sizes` array)".into());
    }

    for (n, base_row) in &base_sizes {
        let Some((_, fresh_row)) = fresh_sizes.iter().find(|(fresh_n, _)| fresh_n == n) else {
            if opts.allow_missing_sizes {
                out.notes
                    .push(format!("n={n}: missing from fresh run (waived)"));
            } else {
                out.failures.push(format!(
                    "coverage loss: baseline size n={n} missing from fresh run"
                ));
            }
            continue;
        };
        for &metric in REQUIRED_SIZE_METRICS {
            if fresh_row.get(metric).and_then(Value::as_f64).is_none() {
                out.failures
                    .push(format!("coverage loss: n={n} lacks metric `{metric}`"));
            }
        }
        if fresh_schema.is_some_and(|s| s >= SCHEMA_V3) {
            for &metric in V3_REQUIRED_SIZE_METRICS {
                if fresh_row.get(metric).and_then(Value::as_f64).is_none() {
                    out.failures
                        .push(format!("coverage loss: n={n} lacks v3 metric `{metric}`"));
                }
            }
        }
        let tiers = opt_tiers(fresh_row);
        if fresh_schema.is_some_and(|s| s >= SCHEMA_V5) {
            for level in V5_REQUIRED_TIERS {
                if !tiers.iter().any(|t| t.level == level) {
                    out.failures.push(format!(
                        "coverage loss: n={n} lacks v5 `opt_levels` tier O{level} \
                         (with `tape_len` and `compiled_wide_ms`)"
                    ));
                }
            }
        }
        check_tiers(*n, &tiers, &mut out);
        for &metric in CARRY_FORWARD_SIZE_METRICS {
            if base_row.get(metric).and_then(Value::as_f64).is_some()
                && fresh_row.get(metric).and_then(Value::as_f64).is_none()
            {
                out.failures.push(format!(
                    "coverage loss: n={n} dropped metric `{metric}` the baseline carries"
                ));
            }
        }
        for speedup in ["lanes_speedup", "scalar_speedup"] {
            if let (Some(f), Some(b)) = (
                fresh_row.get(speedup).and_then(Value::as_f64),
                base_row.get(speedup).and_then(Value::as_f64),
            ) {
                check_speedup(&format!("n={n} {speedup}"), f, b, &mut out);
            }
        }
    }

    match (fresh.get("fault_campaign"), baseline.get("fault_campaign")) {
        (None, Some(_)) => out
            .failures
            .push("coverage loss: `fault_campaign` section missing from fresh run".into()),
        (Some(fc), Some(bc)) => {
            // A `--quick` campaign (n=4) is not comparable to a full
            // baseline's n=8 campaign; only diff speedups at equal n.
            let same_n = fc.get("n").and_then(Value::as_i64) == bc.get("n").and_then(Value::as_i64);
            if !same_n {
                out.notes.push(
                    "fault_campaign: size differs from baseline, speedup not compared".into(),
                );
            } else if let (Some(f), Some(b)) = (
                fc.get("speedup").and_then(Value::as_f64),
                bc.get("speedup").and_then(Value::as_f64),
            ) {
                check_speedup("fault_campaign", f, b, &mut out);
            }
        }
        _ => {}
    }

    out
}

/// Gate over `absort-bench-serve/*` load-test reports. Coverage loss
/// (a missing required column, or a run that completed nothing) fails;
/// a >10% `throughput_rps` drop on a comparable workload warns.
fn compare_serve_docs(fresh: &Value, baseline: &Value, _opts: &Options) -> Outcome {
    let mut out = Outcome::default();

    let fresh_schema = schema_of(fresh, "fresh", SERVE_SCHEMA_PREFIX, &mut out);
    let base_schema = schema_of(baseline, "baseline", SERVE_SCHEMA_PREFIX, &mut out);
    if let (Some(f), Some(b)) = (fresh_schema, base_schema) {
        check_schema_order(f, b, &mut out);
    }

    for &metric in SERVE_REQUIRED_METRICS {
        if fresh.get(metric).and_then(Value::as_f64).is_none() {
            out.failures.push(format!(
                "coverage loss: fresh serve report lacks `{metric}`"
            ));
        }
        if baseline.get(metric).and_then(Value::as_f64).is_none() {
            out.failures
                .push(format!("baseline serve report lacks `{metric}`"));
        }
    }
    if !out.failures.is_empty() {
        return out;
    }

    let completed = fresh
        .get("completed")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    if completed <= 0.0 {
        out.failures
            .push("fresh serve run completed zero requests".into());
        return out;
    }

    // Throughput is only comparable on the same workload shape: mode,
    // network, and input width must all match the baseline's.
    let same_workload = ["mode", "network"]
        .iter()
        .all(|k| fresh.get(k).and_then(Value::as_str) == baseline.get(k).and_then(Value::as_str))
        && fresh.get("n").and_then(Value::as_i64) == baseline.get("n").and_then(Value::as_i64);
    if !same_workload {
        out.notes.push(
            "serve workload differs from baseline (mode/network/n), throughput not compared".into(),
        );
        return out;
    }

    let (f_rps, b_rps) = (
        fresh
            .get("throughput_rps")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        baseline
            .get("throughput_rps")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
    );
    if b_rps > 0.0 {
        let drop = (b_rps - f_rps) / b_rps;
        if drop > SPEEDUP_DROP_THRESHOLD {
            out.warnings.push(format!(
                "serve throughput {f_rps:.0} rps is {:.0}% below baseline {b_rps:.0} rps",
                drop * 100.0
            ));
        } else {
            out.notes.push(format!(
                "serve throughput {f_rps:.0} rps vs baseline {b_rps:.0} rps (ok)"
            ));
        }
    }
    for pct in ["p50_us", "p99_us", "p999_us"] {
        if let (Some(f), Some(b)) = (
            fresh.get(pct).and_then(Value::as_f64),
            baseline.get(pct).and_then(Value::as_f64),
        ) {
            out.notes
                .push(format!("serve {pct}: {f:.0} vs baseline {b:.0}"));
        }
    }
    out
}

/// Which gate a document belongs to, by schema prefix.
fn family(doc: &Value) -> &'static str {
    match doc.get("schema").and_then(Value::as_str) {
        Some(s) if s.starts_with(SERVE_SCHEMA_PREFIX) => "serve",
        _ => "eval",
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_compare <fresh.json> <baseline.json> [--strict] [--allow-missing-sizes]"
    );
    std::process::exit(2);
}

fn main() {
    let mut opts = Options::default();
    let mut paths: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--strict" => opts.strict = true,
            "--allow-missing-sizes" => opts.allow_missing_sizes = true,
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag `{flag}`");
                usage();
            }
            _ => paths.push(a),
        }
    }
    let [fresh_path, base_path] = paths.as_slice() else {
        usage();
    };

    let (fresh, baseline) = match (load(fresh_path), load(base_path)) {
        (Ok(f), Ok(b)) => (f, b),
        (f, b) => {
            for e in [f.err(), b.err()].into_iter().flatten() {
                eprintln!("FAIL: {e}");
            }
            std::process::exit(1);
        }
    };

    let out = if family(&fresh) == "serve" || family(&baseline) == "serve" {
        compare_serve_docs(&fresh, &baseline, &opts)
    } else {
        compare_docs(&fresh, &baseline, &opts)
    };
    for n in &out.notes {
        println!("  ok: {n}");
    }
    for w in &out.warnings {
        println!("WARN: {w}");
    }
    for f in &out.failures {
        println!("FAIL: {f}");
    }
    if !out.failures.is_empty() {
        println!("bench_compare: FAIL ({} failure(s))", out.failures.len());
        std::process::exit(1);
    }
    if !out.warnings.is_empty() {
        println!(
            "bench_compare: {} warning(s){}",
            out.warnings.len(),
            if opts.strict {
                " (strict: failing)"
            } else {
                ""
            }
        );
        if opts.strict {
            std::process::exit(3);
        }
    } else {
        println!("bench_compare: OK ({fresh_path} vs {base_path})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(schema: &str, rows: &[(i64, f64)], campaign_speedup: Option<f64>) -> Value {
        let sizes: Vec<String> = rows
            .iter()
            .map(|(n, ls)| {
                format!(
                    "{{\"n\": {n}, \"compile_ms\": 1.0, \"interp_lanes_ms\": 2.0, \
                     \"compiled_wide_ms\": 1.0, \"lanes_speedup\": {ls}, \
                     \"scalar_speedup\": 1.1}}"
                )
            })
            .collect();
        let campaign = campaign_speedup
            .map(|s| format!(", \"fault_campaign\": {{\"n\": 8, \"speedup\": {s}}}"))
            .unwrap_or_default();
        parse(&format!(
            "{{\"schema\": \"{schema}\", \"sizes\": [{}]{campaign}}}",
            sizes.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn identical_docs_pass_clean() {
        let d = doc("absort-bench-eval/v2", &[(64, 2.6), (256, 2.5)], Some(5.0));
        let out = compare_docs(&d, &d, &Options::default());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);
    }

    #[test]
    fn small_speedup_drop_is_tolerated() {
        let base = doc("absort-bench-eval/v2", &[(64, 2.60)], None);
        let fresh = doc("absort-bench-eval/v2", &[(64, 2.40)], None);
        let out = compare_docs(&fresh, &base, &Options::default());
        assert!(out.failures.is_empty());
        assert!(out.warnings.is_empty(), "7.7% drop must not warn");
    }

    #[test]
    fn large_speedup_drop_warns_but_does_not_fail() {
        let base = doc(
            "absort-bench-eval/v2",
            &[(64, 2.60), (256, 2.50)],
            Some(5.0),
        );
        let fresh = doc(
            "absort-bench-eval/v2",
            &[(64, 1.30), (256, 2.50)],
            Some(2.0),
        );
        let out = compare_docs(&fresh, &base, &Options::default());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.warnings.len(), 2, "{:?}", out.warnings);
        assert!(out.warnings[0].contains("n=64"));
        assert!(out.warnings[1].contains("fault_campaign"));
    }

    #[test]
    fn missing_size_fails_unless_waived() {
        let base = doc("absort-bench-eval/v2", &[(64, 2.6), (1024, 2.7)], None);
        let fresh = doc("absort-bench-eval/v2", &[(64, 2.6)], None);
        let out = compare_docs(&fresh, &base, &Options::default());
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("n=1024"));

        let waived = Options {
            allow_missing_sizes: true,
            ..Options::default()
        };
        let out = compare_docs(&fresh, &base, &waived);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    #[test]
    fn missing_metric_and_campaign_fail() {
        let base = doc("absort-bench-eval/v2", &[(64, 2.6)], Some(5.0));
        let fresh = parse(
            "{\"schema\": \"absort-bench-eval/v2\", \"sizes\": [{\"n\": 64, \
             \"compile_ms\": 1.0}]}",
        )
        .unwrap();
        let out = compare_docs(&fresh, &base, &Options::default());
        let text = out.failures.join("\n");
        assert!(text.contains("lanes_speedup"), "{text}");
        assert!(text.contains("fault_campaign"), "{text}");
    }

    #[test]
    fn schema_ordering_old_fresh_fails_new_fresh_notes() {
        let v1 = doc("absort-bench-eval/v1", &[(64, 2.6)], None);
        let v2 = doc("absort-bench-eval/v2", &[(64, 2.6)], None);
        let out = compare_docs(&v1, &v2, &Options::default());
        assert!(out.failures.iter().any(|f| f.contains("schema regression")));
        let out = compare_docs(&v2, &v1, &Options::default());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.notes.iter().any(|n| n.contains("schema upgraded")));
    }

    /// A v3 row with opt-in extras: fusion stats and (optionally) the
    /// emitted-golden scalar column.
    fn doc_v3(rows: &[(i64, f64, bool, bool)]) -> Value {
        let sizes: Vec<String> = rows
            .iter()
            .map(|(n, ss, fused, emitted)| {
                let fused = if *fused {
                    ", \"compile.pass.fuse.fused\": 175"
                } else {
                    ""
                };
                let emitted = if *emitted {
                    ", \"emitted_scalar_ms\": 0.116"
                } else {
                    ""
                };
                format!(
                    "{{\"n\": {n}, \"compile_ms\": 1.0, \"interp_lanes_ms\": 2.0, \
                     \"compiled_wide_ms\": 1.0, \"lanes_speedup\": 2.6, \
                     \"scalar_speedup\": {ss}{fused}{emitted}}}"
                )
            })
            .collect();
        parse(&format!(
            "{{\"schema\": \"absort-bench-eval/v3\", \"sizes\": [{}]}}",
            sizes.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn v3_fresh_must_carry_fuse_stats() {
        let base = doc("absort-bench-eval/v2", &[(64, 2.6)], None);
        let missing = doc_v3(&[(64, 1.1, false, false)]);
        let out = compare_docs(&missing, &base, &Options::default());
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("compile.pass.fuse.fused")),
            "{:?}",
            out.failures
        );
        let present = doc_v3(&[(64, 1.1, true, false)]);
        let out = compare_docs(&present, &base, &Options::default());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    #[test]
    fn dropping_the_emitted_column_fails() {
        let base = doc_v3(&[(64, 1.1, true, true), (256, 1.1, true, false)]);
        let fresh = doc_v3(&[(64, 1.1, true, false), (256, 1.1, true, false)]);
        let out = compare_docs(&fresh, &base, &Options::default());
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        assert!(out.failures[0].contains("emitted_scalar_ms"));
        assert!(out.failures[0].contains("n=64"));
        let out = compare_docs(&base, &base, &Options::default());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    #[test]
    fn scalar_speedup_regression_warns() {
        let base = doc_v3(&[(64, 2.2, true, false)]);
        let fresh = doc_v3(&[(64, 1.5, true, false)]);
        let out = compare_docs(&fresh, &base, &Options::default());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(
            out.warnings.iter().any(|w| w.contains("scalar_speedup")),
            "{:?}",
            out.warnings
        );
    }

    /// A v5 row: the v3 extras plus the three opt-level tiers.
    /// `(n, [O0, O1, O2] tape lengths, O2 wide ms)`; the O0 and O1 wide
    /// walks are pinned at 1.0 ms, so the O2 time sets the ratio.
    fn doc_v5(rows: &[(i64, [i64; 3], f64)]) -> Value {
        let sizes: Vec<String> = rows
            .iter()
            .map(|(n, tapes, o2_ms)| {
                let tiers: Vec<String> = tapes
                    .iter()
                    .zip([1.0, 1.0, *o2_ms])
                    .enumerate()
                    .map(|(level, (tape, ms))| {
                        format!(
                            "{{\"level\": {level}, \"tape_len\": {tape}, \
                             \"compiled_wide_ms\": {ms}}}"
                        )
                    })
                    .collect();
                format!(
                    "{{\"n\": {n}, \"compile_ms\": 1.0, \"interp_lanes_ms\": 2.0, \
                     \"compiled_wide_ms\": 1.0, \"lanes_speedup\": 2.6, \
                     \"scalar_speedup\": 1.1, \"compile.pass.fuse.fused\": 175, \
                     \"opt_levels\": [{}]}}",
                    tiers.join(", ")
                )
            })
            .collect();
        parse(&format!(
            "{{\"schema\": \"absort-bench-eval/v5\", \"sizes\": [{}]}}",
            sizes.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn v5_fresh_must_carry_opt_levels() {
        let base = doc_v3(&[(64, 1.1, true, false)]);
        // A document that claims v5 but lacks the opt-level tiers.
        let missing = parse(
            "{\"schema\": \"absort-bench-eval/v5\", \"sizes\": [{\"n\": 64, \
             \"compile_ms\": 1.0, \"interp_lanes_ms\": 2.0, \"compiled_wide_ms\": 1.0, \
             \"lanes_speedup\": 2.6, \"scalar_speedup\": 1.1, \
             \"compile.pass.fuse.fused\": 175}]}",
        )
        .unwrap();
        let out = compare_docs(&missing, &base, &Options::default());
        let text = out.failures.join("\n");
        assert!(text.contains("tier O0"), "{text}");
        assert!(text.contains("tier O2"), "{text}");

        let present = doc_v5(&[(64, [800, 700, 700], 1.0)]);
        let out = compare_docs(&present, &base, &Options::default());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.notes.iter().any(|n| n.contains("schema upgraded")));
    }

    #[test]
    fn v5_tier_tape_growth_fails() {
        // The injected-regression bite: an O2 tape longer than O1's must
        // fail hard even when every column is present.
        let base = doc_v5(&[(64, [800, 700, 700], 1.0)]);
        let grown = doc_v5(&[(64, [800, 700, 710], 1.0)]);
        let out = compare_docs(&grown, &base, &Options::default());
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("opt-level regression") && f.contains("O2")),
            "{:?}",
            out.failures
        );
        // Equality is fine: a network the higher tier cannot improve.
        let equal = doc_v5(&[(64, [700, 700, 700], 1.0)]);
        let out = compare_docs(&equal, &base, &Options::default());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    #[test]
    fn v5_o2_latency_blowup_warns_but_does_not_fail() {
        let base = doc_v5(&[(64, [800, 700, 700], 1.0)]);
        let slow = doc_v5(&[(64, [800, 700, 700], 1.5)]);
        let out = compare_docs(&slow, &base, &Options::default());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(
            out.warnings.iter().any(|w| w.contains("O2 wide walk")),
            "{:?}",
            out.warnings
        );

        let close = doc_v5(&[(64, [800, 700, 700], 1.05)]);
        let out = compare_docs(&close, &base, &Options::default());
        assert!(out.warnings.is_empty(), "5% above O1 must not warn");
    }

    fn serve_doc(schema: &str, mode: &str, n: i64, rps: f64, completed: i64) -> Value {
        parse(&format!(
            "{{\"schema\": \"{schema}\", \"mode\": \"{mode}\", \"connections\": 4, \
             \"network\": \"mux-merger\", \"n\": {n}, \"requests\": 8000, \
             \"completed\": {completed}, \"duration_s\": 2.0, \
             \"throughput_rps\": {rps}, \"p50_us\": 110, \"p99_us\": 900, \
             \"p999_us\": 2100, \"mean_us\": 150, \"max_us\": 4000, \
             \"shed\": 12, \"retried\": 12, \"deadline_missed\": 0, \"errors\": 0}}"
        ))
        .unwrap()
    }

    #[test]
    fn serve_identical_docs_pass_clean() {
        let d = serve_doc("absort-bench-serve/v1", "closed-loop", 64, 4000.0, 8000);
        let out = compare_serve_docs(&d, &d, &Options::default());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);
    }

    #[test]
    fn serve_throughput_drop_warns_but_does_not_fail() {
        let base = serve_doc("absort-bench-serve/v1", "closed-loop", 64, 4000.0, 8000);
        let slow = serve_doc("absort-bench-serve/v1", "closed-loop", 64, 3000.0, 8000);
        let out = compare_serve_docs(&slow, &base, &Options::default());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(
            out.warnings.iter().any(|w| w.contains("throughput")),
            "{:?}",
            out.warnings
        );

        let close = serve_doc("absort-bench-serve/v1", "closed-loop", 64, 3700.0, 8000);
        let out = compare_serve_docs(&close, &base, &Options::default());
        assert!(out.warnings.is_empty(), "7.5% drop must not warn");
    }

    #[test]
    fn serve_missing_column_is_coverage_loss() {
        let base = serve_doc("absort-bench-serve/v1", "closed-loop", 64, 4000.0, 8000);
        let fresh = parse(
            "{\"schema\": \"absort-bench-serve/v1\", \"mode\": \"closed-loop\", \
             \"network\": \"mux-merger\", \"n\": 64, \"throughput_rps\": 4000.0}",
        )
        .unwrap();
        let out = compare_serve_docs(&fresh, &base, &Options::default());
        let text = out.failures.join("\n");
        assert!(text.contains("p99_us"), "{text}");
        assert!(text.contains("shed"), "{text}");
        assert!(text.contains("deadline_missed"), "{text}");
    }

    #[test]
    fn serve_zero_completed_fails() {
        let base = serve_doc("absort-bench-serve/v1", "closed-loop", 64, 4000.0, 8000);
        let dead = serve_doc("absort-bench-serve/v1", "closed-loop", 64, 0.0, 0);
        let out = compare_serve_docs(&dead, &base, &Options::default());
        assert!(
            out.failures.iter().any(|f| f.contains("zero requests")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn serve_workload_shape_change_skips_throughput_compare() {
        let base = serve_doc("absort-bench-serve/v1", "closed-loop", 64, 4000.0, 8000);
        let fixed = serve_doc("absort-bench-serve/v1", "fixed-rate", 64, 900.0, 8000);
        let wider = serve_doc("absort-bench-serve/v1", "closed-loop", 256, 900.0, 8000);
        for fresh in [fixed, wider] {
            let out = compare_serve_docs(&fresh, &base, &Options::default());
            assert!(out.failures.is_empty(), "{:?}", out.failures);
            assert!(out.warnings.is_empty(), "{:?}", out.warnings);
            assert!(
                out.notes.iter().any(|n| n.contains("not compared")),
                "{:?}",
                out.notes
            );
        }
    }

    #[test]
    fn serve_family_dispatch_and_cross_family_fails() {
        let serve = serve_doc("absort-bench-serve/v1", "closed-loop", 64, 4000.0, 8000);
        let eval = doc("absort-bench-eval/v2", &[(64, 2.6)], None);
        assert_eq!(family(&serve), "serve");
        assert_eq!(family(&eval), "eval");
        // A serve report diffed against an eval baseline is a schema
        // failure, not a silent pass.
        let out = compare_serve_docs(&serve, &eval, &Options::default());
        assert!(
            out.failures.iter().any(|f| f.contains("foreign schema")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn serve_schema_regression_fails() {
        let v1 = serve_doc("absort-bench-serve/v1", "closed-loop", 64, 4000.0, 8000);
        let v2 = serve_doc("absort-bench-serve/v2", "closed-loop", 64, 4000.0, 8000);
        let out = compare_serve_docs(&v1, &v2, &Options::default());
        assert!(out.failures.iter().any(|f| f.contains("schema regression")));
    }

    #[test]
    fn foreign_schema_fails() {
        let good = doc("absort-bench-eval/v2", &[(64, 2.6)], None);
        let bad = doc("someone-elses-bench/v9", &[(64, 2.6)], None);
        let out = compare_docs(&bad, &good, &Options::default());
        assert!(out.failures.iter().any(|f| f.contains("foreign schema")));
    }
}
