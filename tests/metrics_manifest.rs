//! End-to-end test of the telemetry pipeline: run the real `absort`
//! binary with `--metrics`, then parse the JSON run manifest it writes
//! and check the spans and counters a build must produce.

use absort_telemetry::json;
use std::process::{Command, Output};

fn run(args: &[&str], dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_absort"))
        .args(args)
        .current_dir(dir)
        .env_remove("ABSORT_METRICS")
        .output()
        .expect("spawn absort CLI")
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("absort_metrics_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// True when the binary under test was compiled without the `telemetry`
/// feature — it then acknowledges and ignores `--metrics`, so the
/// manifest assertions below don't apply (the no-op path is still
/// exercised: the run must succeed and write nothing).
fn telemetry_compiled_out(out: &Output) -> bool {
    String::from_utf8_lossy(&out.stderr).contains("built without the `telemetry` feature")
}

#[test]
fn inspect_writes_valid_manifest() {
    let dir = temp_dir("inspect");
    let manifest_path = dir.join("inspect.json");
    let out = run(
        &[
            "inspect",
            "--network",
            "prefix",
            "--n",
            "64",
            "--metrics",
            "--metrics-out",
            manifest_path.to_str().unwrap(),
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    if telemetry_compiled_out(&out) {
        assert!(!manifest_path.exists(), "no manifest when compiled out");
        std::fs::remove_dir_all(&dir).ok();
        return;
    }

    // The stderr report is the human half of the exporter pair.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("telemetry: spans"), "{err}");
    assert!(err.contains("build.components"), "{err}");

    let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let m = json::parse(&text).expect("manifest is valid JSON");
    assert_eq!(
        m.get("schema").and_then(json::Value::as_str),
        Some("absort-telemetry/v1")
    );

    // Build spans must exist with nonzero wall-clock time.
    let spans = m
        .get("spans")
        .and_then(json::Value::as_obj)
        .expect("spans object");
    assert!(spans.len() >= 5, "expected >= 5 spans, got {}", spans.len());
    let build_total = m
        .get("spans")
        .and_then(|s| s.get("inspect/build"))
        .and_then(|s| s.get("total_ns"))
        .and_then(json::Value::as_i64)
        .expect("inspect/build span recorded");
    assert!(build_total > 0, "build span must have nonzero time");
    assert!(
        spans.iter().any(|(path, _)| path.contains("prefix_sorter")),
        "builder scope spans expected in {:?}",
        spans.iter().map(|(p, _)| p).collect::<Vec<_>>()
    );

    // Component counters from Builder::finish.
    let counters = m.get("counters").expect("counters object");
    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(json::Value::as_i64)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(counter("build.circuits"), 1);
    assert!(counter("build.components") > 0);
    assert!(counter("build.wires") > counter("build.components"));

    // The inspect command also records what it measured.
    let circuit = m.get("circuit").expect("circuit section");
    assert_eq!(
        circuit.get("network").and_then(json::Value::as_str),
        Some("prefix")
    );
    assert_eq!(circuit.get("n").and_then(json::Value::as_i64), Some(64));
    assert!(circuit.get("cost").and_then(json::Value::as_i64).unwrap() > 0);
    assert!(
        circuit
            .get("mean_fanout")
            .and_then(json::Value::as_f64)
            .unwrap()
            > 0.0
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_defaults_to_results_dir() {
    let dir = temp_dir("default_path");
    let out = run(
        &[
            "inspect",
            "--network",
            "mux-merger",
            "--n",
            "32",
            "--metrics",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    if telemetry_compiled_out(&out) {
        assert!(
            !dir.join("results").exists(),
            "no manifest when compiled out"
        );
        std::fs::remove_dir_all(&dir).ok();
        return;
    }
    let metrics_dir = dir.join("results").join("metrics");
    let entries: Vec<_> = std::fs::read_dir(&metrics_dir)
        .expect("results/metrics created")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "exactly one manifest: {entries:?}");
    let m = json::parse(&std::fs::read_to_string(&entries[0]).unwrap()).expect("valid JSON");
    assert!(m
        .get("counters")
        .and_then(|c| c.get("build.circuits"))
        .is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_metrics_means_no_manifest_and_clean_stderr() {
    let dir = temp_dir("off");
    let out = run(&["inspect", "--network", "prefix", "--n", "32"], &dir);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        !err.contains("telemetry"),
        "telemetry must be silent when off: {err}"
    );
    assert!(
        !dir.join("results").exists(),
        "no manifest directory when off"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--metrics-out`/`--trace-out` name telemetry output paths; accepting
/// them without `--metrics` would silently record nothing, so the CLI
/// rejects the combination naming the offending flag (this guard lives
/// in argument parsing, so it applies in both feature builds).
#[test]
fn output_paths_require_metrics() {
    let dir = temp_dir("outguard");
    for flag in ["--metrics-out", "--trace-out"] {
        let out = run(
            &[
                "inspect",
                "--network",
                "prefix",
                "--n",
                "32",
                flag,
                "x.json",
            ],
            &dir,
        );
        assert_eq!(out.status.code(), Some(2), "{flag} without --metrics");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(flag) && err.contains("requires --metrics"),
            "{flag}: {err}"
        );
        assert!(!dir.join("x.json").exists(), "{flag} must not write");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The flag-only metrics run with `--trace-out` must produce a valid
/// Chrome `trace_event` document (balanced, properly nested B/E pairs
/// per thread, monotone timestamps) and a manifest whose histogram
/// section carries the per-vector eval latency percentiles.
#[test]
fn metrics_run_emits_trace_and_histograms() {
    let dir = temp_dir("trace");
    let trace_path = dir.join("run.trace.json");
    let manifest_path = dir.join("run.json");
    let out = run(
        &[
            "--network",
            "fish",
            "--metrics",
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--metrics-out",
            manifest_path.to_str().unwrap(),
        ],
        &dir,
    );
    if telemetry_compiled_out(&out) {
        // Without the feature the metrics-run mode records nothing and
        // says so rather than silently writing an empty trace.
        assert_eq!(out.status.code(), Some(2));
        assert!(!trace_path.exists());
        std::fs::remove_dir_all(&dir).ok();
        return;
    }
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // -- Chrome trace document ------------------------------------------
    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let t = json::parse(&text).expect("trace is valid JSON");
    assert_eq!(
        t.get("displayTimeUnit").and_then(json::Value::as_str),
        Some("ms")
    );
    let events = t
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .expect("traceEvents array");
    assert!(
        events.len() >= 6,
        "expected several events, got {}",
        events.len()
    );

    // Per-tid stack check: every E closes the most recent open B, every
    // stack drains by the end, and timestamps never go backwards.
    let mut stacks: std::collections::BTreeMap<i64, Vec<String>> = Default::default();
    let mut last_ts = f64::NEG_INFINITY;
    let (mut begins, mut ends) = (0usize, 0usize);
    for ev in events {
        let ph = ev.get("ph").and_then(json::Value::as_str).expect("ph");
        let tid = ev.get("tid").and_then(json::Value::as_i64).expect("tid");
        let ts = ev.get("ts").and_then(json::Value::as_f64).expect("ts");
        assert_eq!(ev.get("pid").and_then(json::Value::as_i64), Some(1));
        assert!(ts >= last_ts, "timestamps must be monotone");
        last_ts = ts;
        match ph {
            "B" => {
                let name = ev.get("name").and_then(json::Value::as_str).expect("name");
                stacks.entry(tid).or_default().push(name.to_owned());
                begins += 1;
            }
            "E" => {
                assert!(
                    stacks.entry(tid).or_default().pop().is_some(),
                    "E event with no open B on tid {tid}"
                );
                ends += 1;
            }
            "C" => {
                assert!(ev.get("name").is_some() && ev.get("args").is_some());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(begins, ends, "B/E events must balance");
    assert!(begins > 0, "at least one span must be traced");
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }

    // -- Histogram section of the manifest ------------------------------
    let m = json::parse(&std::fs::read_to_string(&manifest_path).unwrap()).expect("manifest");
    let hists = m
        .get("histograms")
        .and_then(json::Value::as_obj)
        .expect("histograms section");
    for name in ["eval.interp.vector_ns", "eval.compiled.vector_ns"] {
        let h = hists
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("histogram {name} missing"));
        let field = |f: &str| h.get(f).and_then(json::Value::as_i64).expect("hist field");
        assert!(field("count") > 0, "{name} must have samples");
        assert!(field("p50_ns") <= field("p99_ns"), "{name} percentiles");
        assert!(field("p99_ns") <= field("max_ns"), "{name} p99 <= max");
    }
    let samples = m
        .get("counters")
        .and_then(|c| c.get("telemetry.hist.samples"))
        .and_then(json::Value::as_i64)
        .expect("derived telemetry.hist.samples counter");
    assert!(samples > 0);

    // -- Compile spans ----------------------------------------------------
    // The run compiles once, and the manifest splits that compile into
    // lowering, each pass, schedule and regalloc. No stage span ends in
    // `compile/lower`, so sums over that suffix count each compile once.
    let spans = m
        .get("spans")
        .and_then(json::Value::as_obj)
        .expect("spans object");
    let lower: Vec<&str> = spans
        .iter()
        .map(|(path, _)| path.as_str())
        .filter(|path| path.ends_with("compile/lower"))
        .collect();
    assert_eq!(lower.len(), 1, "one compile/lower span: {lower:?}");
    let prefix = format!("{}/", lower[0]);
    let mut stages: Vec<&str> = spans
        .iter()
        .filter_map(|(path, _)| path.strip_prefix(&prefix))
        .collect();
    stages.sort_unstable();
    assert_eq!(
        stages,
        [
            "compile/ir",
            "compile/pass/const-prologue",
            "compile/pass/const-prop",
            "compile/pass/cse",
            "compile/pass/dce",
            "compile/regalloc",
            "compile/schedule",
        ]
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flag_errors_name_the_flag() {
    let dir = temp_dir("flags");
    let bad = run(&["inspect", "--network", "prefix", "--n", "banana"], &dir);
    assert!(!bad.status.success());
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(err.contains("--n") && err.contains("banana"), "{err}");

    let missing = run(&["inspect", "--network"], &dir);
    assert!(!missing.status.success());
    let err = String::from_utf8_lossy(&missing.stderr);
    assert!(err.contains("--network requires a value"), "{err}");

    let unknown = run(&["inspect", "--frobnicate"], &dir);
    assert!(!unknown.status.success());
    let err = String::from_utf8_lossy(&unknown.stderr);
    assert!(err.contains("unknown flag --frobnicate"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
