//! End-to-end tests of the `absort` CLI binary (spawned as a real
//! process, exercising argument parsing, exit codes, and output format).

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_absort"))
        .args(args)
        .output()
        .expect("spawn absort CLI")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn sort_command_sorts() {
    for network in ["prefix", "mux-merger", "fish", "nonadaptive"] {
        let out = run(&["sort", "--network", network, "0110_1001_1100_0011"]);
        assert!(out.status.success(), "{network}");
        assert!(
            stdout(&out).contains("0000/0000/1111/1111"),
            "{network}: {}",
            stdout(&out)
        );
    }
}

#[test]
fn route_command_places_payloads() {
    let out = run(&["route", "--network", "mux-merger", "3,1,0,2"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("output 0 <- p2"), "{s}");
    assert!(s.contains("output 3 <- p0"), "{s}");
    assert!(s.contains("circuit-switched"), "{s}");
}

#[test]
fn route_rejects_non_permutation() {
    let out = run(&["route", "--network", "fish", "0,0,1,2"]);
    assert!(!out.status.success());
}

#[test]
fn concentrate_compacts() {
    let out = run(&["concentrate", "--m", "4", "a.b..c.d"]);
    assert!(out.status.success());
    let s = stdout(&out);
    let line = s.lines().next().unwrap();
    assert_eq!(line.len(), 4);
    assert!(!line.contains('.'), "all four trunks busy: {line}");
    let mut chars: Vec<char> = line.chars().collect();
    chars.sort_unstable();
    assert_eq!(chars, vec!['a', 'b', 'c', 'd']);
}

#[test]
fn verify_commands() {
    let ok = run(&["verify", "--network", "mux-merger", "--n", "8"]);
    assert!(ok.status.success());
    assert!(stdout(&ok).contains("verified: all 256 inputs"));

    let bad_n = run(&["verify", "--network", "prefix", "--n", "12"]);
    assert!(!bad_n.status.success());
}

#[test]
fn verify_engine_selector() {
    // Both engines must verify the same network, and the output names
    // the engine that ran (compiled is the default).
    for engine in ["interp", "compiled"] {
        let out = run(&[
            "verify",
            "--network",
            "prefix",
            "--n",
            "8",
            "--engine",
            engine,
        ]);
        assert!(out.status.success(), "{engine}");
        let s = stdout(&out);
        assert!(s.contains("verified: all 256 inputs"), "{engine}: {s}");
        assert!(s.contains(&format!("engine: {engine}")), "{engine}: {s}");
    }
    let default = run(&["verify", "--network", "mux-merger", "--n", "8"]);
    assert!(default.status.success());
    assert!(stdout(&default).contains("engine: compiled"));
}

#[test]
fn engine_rejects_unknown_value() {
    let out = run(&[
        "verify",
        "--network",
        "prefix",
        "--n",
        "8",
        "--engine",
        "warp",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--engine"), "{err}");
    // The error names the menu, not just the rejection.
    assert!(err.contains("interp") && err.contains("compiled"), "{err}");
}

#[test]
fn engine_parse_is_case_insensitive() {
    for engine in ["INTERP", "Compiled", "interpreter", "COMPILE"] {
        let out = run(&[
            "verify",
            "--network",
            "mux-merger",
            "--n",
            "4",
            "--engine",
            engine,
        ]);
        assert!(out.status.success(), "{engine}");
    }
}

#[test]
fn opt_level_and_passes_steer_verify() {
    for level in ["0", "1", "2", "O2", "o1"] {
        let out = run(&[
            "verify",
            "--network",
            "prefix",
            "--n",
            "8",
            "--opt-level",
            level,
        ]);
        assert!(out.status.success(), "--opt-level {level}");
        assert!(stdout(&out).contains("verified: all 256 inputs"));
    }
    for passes in ["none", "cse,dce", "CSE, Const-Prop"] {
        let out = run(&[
            "verify",
            "--network",
            "prefix",
            "--n",
            "8",
            "--passes",
            passes,
        ]);
        assert!(out.status.success(), "--passes {passes}");
        assert!(stdout(&out).contains("verified: all 256 inputs"));
    }
}

#[test]
fn opt_level_and_passes_reject_unknown_values_with_menus() {
    let out = run(&[
        "verify",
        "--network",
        "prefix",
        "--n",
        "8",
        "--opt-level",
        "9",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--opt-level") && err.contains("0, 1, 2"),
        "{err}"
    );

    let out = run(&[
        "verify",
        "--network",
        "prefix",
        "--n",
        "8",
        "--passes",
        "cse,warp",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--passes") && err.contains("\"warp\""),
        "{err}"
    );
    assert!(err.contains("const-prop"), "{err}");

    // The retired rewrite pass is an unknown token, answered with the
    // four-pass menu.
    let out = run(&[
        "verify",
        "--network",
        "prefix",
        "--n",
        "8",
        "--passes",
        "rewrite",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("\"rewrite\"")
            && err.contains("(valid: const-prologue, const-prop, cse, dce, none)"),
        "{err}"
    );
}

#[test]
fn inspect_reports_pass_stats() {
    let out = run(&["inspect", "--network", "prefix", "--n", "16"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("compiled tape"), "{s}");
    assert!(s.contains("decoded: "), "{s}");
    for pass in ["const-prologue", "const-prop", "cse", "dce"] {
        assert!(
            s.lines().any(|l| l.trim_start().starts_with(pass)),
            "missing {pass} row: {s}"
        );
    }
    assert!(
        !s.lines().any(|l| l.trim_start().starts_with("rewrite")),
        "the rewrite pass is gone, yet inspect reports it: {s}"
    );
    assert!(s.contains("slots"), "{s}");

    // O0 compiles without any optional pass rows.
    let o0 = run(&[
        "inspect",
        "--network",
        "prefix",
        "--n",
        "16",
        "--opt-level",
        "0",
    ]);
    assert!(o0.status.success());
    let s = stdout(&o0);
    assert!(s.contains("passes: -"), "{s}");
    assert!(!s.contains("cse"), "{s}");
}

#[test]
fn harden_duplicate_prices_the_trade_in_the_summary() {
    let dir = std::env::temp_dir().join("absort_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("faults-dup-{}.json", std::process::id()));
    let out = run(&[
        "--network",
        "mux-merger",
        "--faults",
        "--n",
        "4",
        "--harden-duplicate",
        "--faults-out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = stdout(&out);
    assert!(s.contains("hardening: base cost"), "{s}");
    assert!(s.contains("overhead"), "{s}");
    assert!(s.contains("concurrent coverage"), "{s}");

    // The report's cost columns reflect the doubled core.
    let text = std::fs::read_to_string(&path).expect("report file written");
    let doc = absort_telemetry::json::parse(&text).expect("valid JSON");
    let report = doc.get("faults").unwrap_or(&doc);
    let net = &report
        .get("networks")
        .and_then(absort_telemetry::json::Value::as_arr)
        .expect("networks")[0];
    let base = net
        .get("base_cost")
        .and_then(absort_telemetry::json::Value::as_i64)
        .unwrap();
    let hardened = net
        .get("hardened_cost")
        .and_then(absort_telemetry::json::Value::as_i64)
        .unwrap();
    assert!(
        base > 0 && hardened >= 2 * base,
        "base={base} hardened={hardened}"
    );
    std::fs::remove_file(&path).ok();

    // And like every campaign tuner, it requires --faults.
    let out = run(&["--network", "prefix", "--harden-duplicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("requires --faults"), "{err}");
}

#[test]
fn faults_campaign_accepts_engine() {
    let dir = std::env::temp_dir().join("absort_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    for engine in ["interp", "compiled"] {
        let path = dir.join(format!("faults-{engine}-{}.json", std::process::id()));
        let out = run(&[
            "--network",
            "prefix",
            "--faults",
            "--n",
            "4",
            "--engine",
            engine,
            "--faults-out",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let s = stdout(&out);
        assert!(s.contains(&format!("{engine} engine")), "{engine}: {s}");
        assert!(s.contains("permanent-fault detection rate: 1.000"), "{s}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn inspect_prints_profile() {
    let out = run(&["inspect", "--network", "prefix", "--n", "64"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("depth:"), "{s}");
    assert!(
        s.contains("prefix_sorter"),
        "hardware profile expected: {s}"
    );

    let fish = run(&["inspect", "--network", "fish", "--n", "1024"]);
    assert!(fish.status.success());
    assert!(stdout(&fish).contains("pipelined"));
}

/// `inspect --profile` runs the sampled tape profiler and prints the
/// hot-op table.
#[test]
fn inspect_profile_prints_hot_op_table() {
    let out = run(&["inspect", "--network", "prefix", "--n", "64", "--profile"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let s = stdout(&out);
    assert!(s.contains("tape profile ("), "{s}");
    assert!(s.contains("hottest levels"), "{s}");
    // The mux-based networks are switch/compare dominated; both kinds
    // must show up with execution counts in the table.
    assert!(s.contains("switch2"), "{s}");
    assert!(s.contains("bitcompare"), "{s}");
}

#[test]
fn profile_flag_rejected_outside_inspect() {
    let out = run(&["verify", "--network", "prefix", "--n", "8", "--profile"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--profile applies to the inspect command only"),
        "{err}"
    );
}

#[test]
fn save_and_eval_roundtrip() {
    let saved = run(&["save", "--network", "mux-merger", "--n", "8"]);
    assert!(saved.status.success());
    let dir = std::env::temp_dir().join("absort_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("net8.txt");
    std::fs::write(&path, &saved.stdout).unwrap();

    let evald = run(&["eval", path.to_str().unwrap(), "01101001"]);
    assert!(evald.status.success());
    assert!(stdout(&evald).contains("00001111"), "{}", stdout(&evald));

    let wrong_len = run(&["eval", path.to_str().unwrap(), "0110"]);
    assert!(!wrong_len.status.success());
}

#[test]
fn dot_emits_graphviz() {
    let out = run(&["dot", "--network", "mux-merger", "--n", "8"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.starts_with("digraph"));
    assert!(s.contains("CMP"));
}

#[test]
fn usage_on_nonsense() {
    assert!(!run(&[]).status.success());
    assert!(!run(&["frobnicate"]).status.success());
    let rules = run(&["rules", "check"]);
    assert!(!rules.status.success());
    assert!(!String::from_utf8_lossy(&rules.stderr).contains("rules"));
    assert!(!run(&["sort", "--network", "quantum", "0101"])
        .status
        .success());
}

#[test]
fn faults_campaign_writes_report() {
    let dir = std::env::temp_dir().join("absort_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("faults-{}.json", std::process::id()));
    let out = run(&[
        "--network",
        "prefix",
        "--faults",
        "--n",
        "4",
        "--faults-out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = stdout(&out);
    assert!(s.contains("permanent-fault detection rate: 1.000"), "{s}");
    assert!(s.contains("exhaustive tier"), "{s}");

    let text = std::fs::read_to_string(&path).expect("report file written");
    let doc = absort_telemetry::json::parse(&text).expect("report is valid JSON");
    // Telemetry builds nest the report as a manifest section; plain
    // builds write it at top level. Accept either shape.
    let report = doc.get("faults").unwrap_or(&doc);
    assert_eq!(
        report
            .get("schema")
            .and_then(absort_telemetry::json::Value::as_str),
        Some("absort-faults/v3")
    );
    assert_eq!(
        report
            .get("truncated")
            .and_then(absort_telemetry::json::Value::as_bool),
        Some(false)
    );
    let networks = report
        .get("networks")
        .and_then(absort_telemetry::json::Value::as_arr)
        .expect("networks array");
    assert!(!networks.is_empty());
    for net in networks {
        assert!(net
            .get("fault_set_size")
            .and_then(absort_telemetry::json::Value::as_i64)
            .is_some());
        assert!(net
            .get("concurrent_detection_rate")
            .and_then(absort_telemetry::json::Value::as_f64)
            .is_some());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn faults_multi_and_clocked_flags_extend_the_campaign() {
    let dir = std::env::temp_dir().join("absort_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("faults-multi-{}.json", std::process::id()));
    let out = run(&[
        "--network",
        "prefix",
        "--faults",
        "--n",
        "4",
        "--multi",
        "2",
        "--clocked",
        "--tenants",
        "3",
        "--faults-out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = stdout(&out);
    assert!(s.contains("2-fault sets"), "{s}");
    assert!(s.contains("mixed"), "{s}");
    assert!(s.contains("fish-clocked"), "{s}");
    assert!(s.contains("concurrent"), "{s}");

    let text = std::fs::read_to_string(&path).expect("report file written");
    let doc = absort_telemetry::json::parse(&text).expect("report is valid JSON");
    let report = doc.get("faults").unwrap_or(&doc);
    let networks = report
        .get("networks")
        .and_then(absort_telemetry::json::Value::as_arr)
        .expect("networks array");
    let sizes: Vec<i64> = networks
        .iter()
        .filter_map(|n| {
            n.get("fault_set_size")
                .and_then(absort_telemetry::json::Value::as_i64)
        })
        .collect();
    assert_eq!(
        sizes,
        vec![1, 2, 1, 2],
        "k=1 unit, k=2 unit, clocked unit, clocked 2-fault sets"
    );
    // The v3 recovery split rides on every clocked unit.
    for net in networks {
        let name = net
            .get("network")
            .and_then(absort_telemetry::json::Value::as_str)
            .unwrap_or("");
        if name == "fish-clocked" {
            for field in ["recovered", "fail_stop"] {
                assert!(
                    net.get(field)
                        .and_then(absort_telemetry::json::Value::as_i64)
                        .is_some(),
                    "clocked unit missing {field}"
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn tenants_flag_requires_clocked() {
    let out = run(&["--network", "prefix", "--faults", "--tenants", "4"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--tenants requires --clocked"), "{err}");
}

#[test]
fn faults_timeout_truncates_and_resume_finishes() {
    let dir = std::env::temp_dir().join(format!("absort_cli_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("checkpoint.json");
    let first = dir.join("first.json");
    let full = dir.join("full.json");
    let base = [
        "--network",
        "prefix",
        "--faults",
        "--n",
        "4",
        "--multi",
        "2",
    ];

    let mut args: Vec<&str> = base.to_vec();
    args.extend([
        "--faults-timeout-secs",
        "0",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--faults-out",
        first.to_str().unwrap(),
    ]);
    let out = run(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("truncated"), "{}", stdout(&out));
    assert!(ckpt.exists(), "checkpoint must be written");

    let mut args: Vec<&str> = base.to_vec();
    args.extend([
        "--resume",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--faults-out",
        full.to_str().unwrap(),
    ]);
    let out = run(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!stdout(&out).contains("truncated"), "{}", stdout(&out));

    let text = std::fs::read_to_string(&full).unwrap();
    let doc = absort_telemetry::json::parse(&text).unwrap();
    let report = doc.get("faults").unwrap_or(&doc);
    assert_eq!(
        report
            .get("truncated")
            .and_then(absort_telemetry::json::Value::as_bool),
        Some(false)
    );
    assert_eq!(
        report
            .get("networks")
            .and_then(absort_telemetry::json::Value::as_arr)
            .map(|a| a.len()),
        Some(2)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_flags_require_faults() {
    for flags in [
        vec!["--network", "prefix", "--multi", "2"],
        vec!["--network", "prefix", "--clocked"],
        vec!["--network", "prefix", "--tenants", "2"],
        vec!["--network", "prefix", "--resume"],
    ] {
        let out = run(&flags);
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("requires --faults"), "{flags:?}: {err}");
    }
}

#[test]
fn faults_out_without_faults_is_an_error() {
    let out = run(&["--network", "prefix", "--faults-out", "somewhere.json"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--faults-out"), "{err}");
    assert!(err.contains("requires --faults"), "{err}");
}

#[test]
fn faults_flags_are_rejected_inside_subcommands() {
    let out = run(&["inspect", "--network", "prefix", "--n", "8", "--faults"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("standalone"), "{err}");
}
