//! Fault-injection campaign guarantees, end to end.
//!
//! The load-bearing assertion here is the mutation-score property at
//! wire granularity: every single permanent fault injected into the
//! n = 8 prefix sorter that changes behaviour on *any* input is caught
//! by the deployable zero-one checker, verified exhaustively over all
//! 2^n valid inputs. Sites whose injection never changes an output
//! (masked / tolerated faults) are reported but excluded from the
//! detection denominator — an undetected behavioural change would
//! drive the rate below 1.0.

use absort::analysis::faults::{
    build_network, fish_k, run_campaign, run_campaign_with, run_network, run_network_sets,
    CampaignConfig, CampaignOptions, NetworkSel,
};
use absort::circuit::eval::{pack_lanes, pack_lanes_wide};
use absort::circuit::faulty::{observable_wires, permanent_fault_sites, FaultyEvaluator};
use absort::circuit::mutate::{self, Fault};
use absort::circuit::{
    Circuit, CompileOptions, CompiledEvaluator, MutantTape, OptLevel, VariantTape, Wire, WireFault,
};
use absort::faults::FaultKind;
use absort::networks::hardened::{harden, streaming_sorter, HardenOptions};
use absort_telemetry::json;

use proptest::prelude::*;

fn small_cfg(n: usize) -> CampaignConfig {
    CampaignConfig {
        n,
        ..CampaignConfig::default()
    }
}

#[test]
fn all_single_permanent_faults_detected_on_prefix_n8() {
    let report = run_network(NetworkSel::Prefix, &small_cfg(8));
    assert_eq!(report.tier, "exhaustive", "2^8 inputs must be enumerated");
    assert_eq!(report.vectors, 256);
    for kind in &report.kinds {
        let k = kind.kind.expect("campaign rows are kind-tagged");
        assert!(kind.injected > 0, "{}: no sites injected", k.name());
        if k.is_permanent() {
            assert_eq!(
                kind.detection_rate(),
                1.0,
                "{}: {} detected of {} injected ({} masked) — an escape",
                k.name(),
                kind.detected,
                kind.injected,
                kind.masked,
            );
        }
    }
    assert_eq!(report.permanent_detection_rate(), 1.0);
}

#[test]
fn all_four_networks_reach_full_permanent_detection_at_n8() {
    for sel in NetworkSel::ALL {
        let report = run_network(sel, &small_cfg(8));
        assert_eq!(report.tier, "exhaustive", "{}", sel.name());
        assert_eq!(
            report.permanent_detection_rate(),
            1.0,
            "{}: permanent-fault escape",
            sel.name()
        );
    }
}

#[test]
fn campaign_report_json_carries_rates_and_degradation() {
    let report = run_campaign(&NetworkSel::ALL, &small_cfg(4));
    let doc = json::parse(&report.to_json().to_pretty()).expect("report serializes to valid JSON");
    assert_eq!(
        doc.get("schema").and_then(json::Value::as_str),
        Some("absort-faults/v3")
    );
    // Each schema rev is a strict superset of the last: the v3 recovery
    // columns and the v2 multi-fault/concurrent fields ride alongside
    // every v1 field, so old consumers keep working.
    assert_eq!(
        doc.get("truncated").and_then(json::Value::as_bool),
        Some(false)
    );
    let networks = doc
        .get("networks")
        .and_then(json::Value::as_arr)
        .expect("networks array");
    assert_eq!(networks.len(), NetworkSel::ALL.len());
    for net in networks {
        assert_eq!(
            net.get("permanent_detection_rate")
                .and_then(json::Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            net.get("fault_set_size").and_then(json::Value::as_i64),
            Some(1)
        );
        assert!(net
            .get("concurrent_detection_rate")
            .and_then(json::Value::as_f64)
            .is_some());
        let kinds = net
            .get("kinds")
            .and_then(json::Value::as_arr)
            .expect("kinds array");
        assert_eq!(kinds.len(), FaultKind::ALL.len());
        for row in kinds {
            for field in [
                "injected",
                "detected",
                "masked",
                "flagged",
                "recovered",
                "fail_stop",
            ] {
                assert!(
                    row.get(field).and_then(json::Value::as_i64).is_some(),
                    "kind row missing {field}"
                );
            }
            let deg = row.get("degradation").expect("degradation per kind");
            assert!(deg
                .get("max_displacement")
                .and_then(json::Value::as_i64)
                .is_some());
        }
    }
}

/// Evaluates the hardened circuit against one translated fault over the
/// packed workload and returns, per lane: did the data outputs differ
/// from the oracle, and did the rail fire.
fn rail_vs_oracle(
    hardened: &absort::networks::hardened::HardenedSorter,
    target: &Circuit,
    fault: Option<absort::circuit::WireFault>,
    packed: &[u64],
    packed_oracle: &[u64],
    mask: u64,
) -> (u64, u64) {
    let faults: Vec<_> = fault.into_iter().collect();
    let mut ev: FaultyEvaluator<'_, u64> = FaultyEvaluator::new(target, &faults);
    let mut out = vec![0u64; target.n_outputs()];
    ev.run_into(packed, &mut out);
    let mut differed = 0u64;
    for (o, &oracle) in packed_oracle.iter().enumerate() {
        differed |= (out[o] ^ oracle) & mask;
    }
    (differed, out[hardened.rail_index()] & mask)
}

#[test]
fn hardened_fish_rail_catches_every_internal_permanent_fault_at_n8() {
    // The acceptance bar for self-checking hardening: on the n = 8 fish
    // merger, every permanent single fault *behind the input pins* that
    // changes any data output is flagged by the concurrent error rail —
    // and on exactly the vectors the offline oracle flags, because the
    // rail computes the oracle's two conditions (zero-one monotonicity,
    // token conservation) in hardware against unfaulted inputs.
    // Input-pin faults are excluded by principle: the checker sees the
    // faulted input, which is just a different valid sorting problem.
    let n = 8;
    let circuit = build_network(NetworkSel::Fish, n);
    let hardened = harden(&circuit, &HardenOptions::default());
    let vectors = absort::core::lang::all_k_sorted(n, fish_k(n));
    let oracle: Vec<Vec<bool>> = vectors
        .iter()
        .map(|v| absort::core::lang::sorted_oracle(v))
        .collect();
    assert!(vectors.len() <= 64, "workload must fit one packed chunk");
    let packed = pack_lanes(&vectors, n);
    let packed_oracle = pack_lanes(&oracle, n);
    let mask = (1u64 << vectors.len()) - 1;
    let input_wires: std::collections::HashSet<Wire> = (0..circuit.n_inputs())
        .map(|i| circuit.input_wire(i))
        .collect();

    // Wire-granularity permanent sites, primary input pins excluded.
    let mut internal_sites = 0usize;
    for site in permanent_fault_sites(&circuit, &vectors) {
        let on_input = match site {
            absort::circuit::WireFault::StuckAt { wire, .. } => input_wires.contains(&wire),
            absort::circuit::WireFault::BridgeOr { a, b } => {
                input_wires.contains(&a) || input_wires.contains(&b)
            }
            absort::circuit::WireFault::TransientFlip { .. } => unreachable!(),
        };
        if on_input {
            continue;
        }
        internal_sites += 1;
        let (differed, rail) = rail_vs_oracle(
            &hardened,
            &hardened.circuit,
            Some(hardened.fault(site)),
            &packed,
            &packed_oracle,
            mask,
        );
        assert_eq!(
            rail, differed,
            "site {site}: rail and oracle disagree on some vector"
        );
    }
    assert!(internal_sites > 0, "no internal wire sites swept");

    // Component mutants are internal by construction: same per-vector
    // equivalence must hold for every rewrite kind.
    let mut mutants_swept = 0usize;
    for fault in Fault::ALL {
        for (ci, _) in mutate::mutants(&circuit, fault) {
            let hm = mutate::apply(&hardened.circuit, hardened.component(ci), fault)
                .expect("base-applicable fault applies to the embedded copy");
            mutants_swept += 1;
            let (differed, rail) =
                rail_vs_oracle(&hardened, &hm, None, &packed, &packed_oracle, mask);
            assert_eq!(
                rail, differed,
                "mutant ({ci}, {fault:?}): rail and oracle disagree on some vector"
            );
        }
    }
    assert!(mutants_swept > 0, "no component mutants swept");

    // And the campaign reports the same totality: for the netlist-rewrite
    // kinds every offline-detected site is concurrently flagged.
    let report = run_network(NetworkSel::Fish, &small_cfg(n));
    for cell in &report.kinds {
        if matches!(
            cell.kind,
            Some(FaultKind::InvertBehaviour)
                | Some(FaultKind::StuckSelectLow)
                | Some(FaultKind::StuckSelectHigh)
        ) {
            assert_eq!(cell.flagged, cell.detected, "{:?}", cell.kind);
            assert_eq!(cell.concurrent_detection_rate(), 1.0, "{:?}", cell.kind);
        }
    }
}

#[test]
fn clocked_control_faults_flag_concurrently_only_with_control_hardening() {
    // The control-path acceptance bar at n = 8: every permanent fault on
    // a *control* site (the steering-counter state pins and every wire
    // of the ctl increment/shadow/parity logic) that perturbs the
    // streamed data is flagged by the rail while it happens. The
    // observation window is two schedules: a shadow wrap-carry fault
    // latches on the last cycle of a schedule and becomes visible on the
    // first cycle of the next.
    let n = 8;
    let k = fish_k(n);
    let hard = streaming_sorter(n, k, Some(&HardenOptions::default()));
    // Lines chosen so mis-steering is visible: group 0 all ones, the
    // rest all zeros — replaying group 0 emits ones where zeros belong.
    let mut lines = vec![false; n];
    for b in lines.iter_mut().take(n / k) {
        *b = true;
    }
    let window = 2 * k;
    let reference: Vec<Vec<bool>> = {
        let mut sim = hard.machine.power_on();
        (0..window).map(|_| sim.step(&lines)).collect()
    };

    let comb = hard.machine.comb();
    let mut sites: Vec<WireFault> = Vec::new();
    for i in 0..hard.machine.n_state() {
        let wire = comb.input_wire(n + i); // state pins follow the n lines
        for value in [false, true] {
            sites.push(WireFault::StuckAt { wire, value });
        }
    }
    for ci in comb
        .components_in_scope("ctl")
        .expect("hardened streamer has a ctl scope")
    {
        for wire in comb.component_output_wires(ci) {
            for value in [false, true] {
                sites.push(WireFault::StuckAt { wire, value });
            }
        }
    }

    let (mut corrupting, mut flagged_total) = (0usize, 0usize);
    for &site in &sites {
        let mut sim = hard.machine.power_on_faulty(&[site]);
        let (mut differed, mut flagged) = (false, false);
        for reference_out in &reference {
            let out = sim.step(&lines);
            differed |= out[..hard.group] != reference_out[..hard.group];
            flagged |= out[hard.group]; // the rail rides after the group
        }
        corrupting += usize::from(differed);
        flagged_total += usize::from(flagged);
        assert!(
            !differed || flagged,
            "control fault {site} corrupts the stream without raising the rail"
        );
    }
    assert!(corrupting > 0, "no control fault disturbed the stream");
    assert!(
        flagged_total >= corrupting,
        "flagged set must cover the corrupting set"
    );

    // Before control hardening the same mis-steering was invisible *by
    // construction*: a stuck counter replays one (valid) group, every
    // replayed group is correctly sorted and token-conserving, so the
    // data-path checks stay green while the stream is wrong.
    let soft = streaming_sorter(
        n,
        k,
        Some(&HardenOptions {
            control: false,
            ..HardenOptions::default()
        }),
    );
    let soft_reference: Vec<Vec<bool>> = {
        let mut sim = soft.machine.power_on();
        (0..window).map(|_| sim.step(&lines)).collect()
    };
    let site = WireFault::StuckAt {
        wire: soft.machine.comb().input_wire(n), // counter bit 0 pin
        value: false,
    };
    let mut sim = soft.machine.power_on_faulty(&[site]);
    let (mut differed, mut flagged) = (false, false);
    for reference_out in &soft_reference {
        let out = sim.step(&lines);
        differed |= out[..soft.group] != reference_out[..soft.group];
        flagged |= out[soft.group];
    }
    assert!(differed, "a stuck counter must mis-steer the stream");
    assert!(
        !flagged,
        "data-path checks alone cannot see a control fault — that is what \
         HardenOptions::control exists for"
    );
}

#[test]
fn clocked_multi_tenant_campaign_keeps_recovery_accounting() {
    // Detection + recovery accounting under `--clocked --multi --tenants`:
    // the rail-triggered replay splits every flagged population into
    // recovered (cleared transients) and fail-stop (persistent flags),
    // at any tenancy, and the multi-tenant sweep must not change the
    // fault universe or v2 detection columns.
    let cfg = small_cfg(8);
    let opts = CampaignOptions {
        clocked: true,
        multi: 2,
        sets_per_k: 8,
        tenants: 4,
        ..CampaignOptions::default()
    };
    let report = run_campaign_with(&[NetworkSel::Fish], &cfg, &opts);
    let clocked: Vec<_> = report
        .networks
        .iter()
        .filter(|net| net.network == "fish-clocked")
        .collect();
    assert_eq!(clocked.len(), 2, "single-fault unit + 2-fault set unit");
    let mut recovered_transients = 0u64;
    for net in &clocked {
        for cell in &net.kinds {
            assert_eq!(
                cell.recovered + cell.fail_stop,
                cell.flagged,
                "{:?}: replay must split the flagged population exactly",
                cell.kind
            );
            if cell.kind.is_some_and(|k| !k.is_permanent()) {
                recovered_transients += cell.recovered;
            }
        }
    }
    assert!(
        recovered_transients > 0,
        "some flagged transient must clear on replay"
    );

    // Tenancy shares machine occupancy, never the sweep: the same
    // campaign at tenants = 1 injects the identical fault universe, and
    // there every permanent that flags must fail stop — replayed from
    // the same power-on state it re-manifests deterministically. (At
    // deeper tenancy a permanent can flag through corruption latched
    // across a batch and then pass the clean-reset replay, which the
    // report counts as recovered — that is the service-level view.)
    let solo = run_campaign_with(
        &[NetworkSel::Fish],
        &cfg,
        &CampaignOptions {
            tenants: 1,
            ..opts.clone()
        },
    );
    for (a, b) in report.networks.iter().zip(&solo.networks) {
        assert_eq!(a.network, b.network);
        for (ka, kb) in a.kinds.iter().zip(&b.kinds) {
            assert_eq!(ka.injected, kb.injected, "{}: universe changed", a.network);
        }
        if a.network == "fish-clocked" {
            for cell in &b.kinds {
                if cell.kind.is_some_and(FaultKind::is_permanent) {
                    assert_eq!(
                        cell.recovered, 0,
                        "{:?}: a permanent re-manifests on a same-state replay",
                        cell.kind
                    );
                }
            }
        }
    }
}

#[test]
fn multi_fault_report_is_a_strict_superset_of_single_fault() {
    // A --multi campaign starts with the exact single-fault unit (same
    // seed, same sweep) and appends the k >= 2 units after it.
    let cfg = small_cfg(4);
    let single = run_campaign(&[NetworkSel::Prefix], &cfg);
    let multi = run_campaign_with(
        &[NetworkSel::Prefix],
        &cfg,
        &CampaignOptions {
            multi: 2,
            sets_per_k: 16,
            ..CampaignOptions::default()
        },
    );
    assert_eq!(multi.networks.len(), 2);
    assert_eq!(
        multi.networks[0].to_json().to_pretty(),
        single.networks[0].to_json().to_pretty(),
        "k=1 unit must be bit-for-bit the single-fault campaign"
    );
    assert_eq!(multi.networks[1].fault_set_size, 2);
    assert_eq!(
        multi.networks[1].to_json().to_pretty(),
        run_network_sets(NetworkSel::Prefix, &cfg, 2, 16)
            .to_json()
            .to_pretty()
    );
}

#[test]
fn interrupted_campaign_resumes_into_identical_report() {
    // Acceptance: a timeout-interrupted clocked campaign, resumed from
    // its checkpoint, produces a report identical to an uninterrupted
    // run. Duration::ZERO trips the deadline after the first unit (the
    // driver guarantees at least one fresh unit per invocation).
    let dir = std::env::temp_dir().join(format!("absort-ckpt-{}", std::process::id()));
    let ckpt = dir.join("checkpoint.json");
    let cfg = small_cfg(4);
    let nets = [NetworkSel::Prefix, NetworkSel::Fish];
    let base_opts = CampaignOptions {
        multi: 2,
        sets_per_k: 8,
        clocked: true,
        ..CampaignOptions::default()
    };

    let uninterrupted = run_campaign_with(&nets, &cfg, &base_opts);
    // 2 nets x k in {1,2} + clocked single-fault + clocked 2-fault sets
    assert_eq!(uninterrupted.networks.len(), 6);
    assert!(!uninterrupted.truncated);

    let mut opts = base_opts.clone();
    opts.checkpoint = Some(ckpt.clone());
    opts.timeout = Some(std::time::Duration::ZERO);
    let first = run_campaign_with(&nets, &cfg, &opts);
    assert!(first.truncated, "zero budget must truncate");
    assert_eq!(first.networks.len(), 1, "one unit per run is guaranteed");

    // Resume until done; each pass makes progress on a zero budget.
    opts.resume = true;
    let mut last = first;
    for _ in 0..7 {
        last = run_campaign_with(&nets, &cfg, &opts);
        if !last.truncated {
            break;
        }
    }
    assert!(
        !last.truncated,
        "the resumes must finish the remaining units"
    );
    assert_eq!(
        last.to_json().to_pretty(),
        uninterrupted.to_json().to_pretty(),
        "resumed campaign must reproduce the uninterrupted report bit-for-bit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The hardening options campaigns sweep: the default checker, and
/// duplicate-and-compare on top of it.
fn hardenings() -> [HardenOptions; 2] {
    [
        HardenOptions::default(),
        HardenOptions {
            duplicate: true,
            ..HardenOptions::default()
        },
    ]
}

/// Every component mutant the campaigns sweep is a structurally sound
/// netlist, bare and inside each self-checking wrapper. Campaigns build
/// a mutant netlist only where they evaluate one, so this is where the
/// check lives.
#[test]
fn every_campaign_mutant_validates_bare_and_hardened() {
    for n in [4, 8, 16] {
        for sel in NetworkSel::ALL {
            let circuit = build_network(sel, n);
            let wrappers: Vec<_> = hardenings().iter().map(|h| harden(&circuit, h)).collect();
            for fault in Fault::ALL {
                for (ci, mutant) in mutate::mutants(&circuit, fault) {
                    let site = format!("{} n={n} {fault:?} at {ci}", sel.name());
                    assert_eq!(mutant.validate(), Ok(()), "bare {site}");
                    for hardened in &wrappers {
                        let hm = mutate::apply(&hardened.circuit, hardened.component(ci), fault)
                            .expect("base-applicable fault applies to the embedded copy");
                        assert_eq!(hm.validate(), Ok(()), "hardened {site}");
                    }
                }
            }
        }
    }
}

/// Campaign tapes compile at O1 (the default) or O0, and neither folds
/// nor merges anything, so every applicable mutant of every hardened
/// campaign tape is patched in place or dead: no campaign mutant falls
/// back to the interpreter.
#[test]
fn o1_campaign_tapes_patch_or_kill_every_mutant() {
    for level in OptLevel::ALL {
        let opt = CompileOptions::for_level(level);
        for n in [4, 8, 16] {
            for sel in NetworkSel::ALL {
                let circuit = build_network(sel, n);
                for h in hardenings() {
                    let hardened = harden(&circuit, &h);
                    let mut tape = hardened.circuit.compile_with(&opt);
                    for fault in Fault::ALL {
                        for ci in mutate::applicable(&circuit, fault) {
                            assert!(
                                !matches!(
                                    tape.mutant_tape(hardened.component(ci), fault),
                                    MutantTape::Unsupported
                                ),
                                "{} n={n} O{level} duplicate={}: {fault:?} at {ci} falls back",
                                sel.name(),
                                h.duplicate
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Every stuck-at-0 and -1 on every observable wire of the four campaign networks
/// at n = 4 and 8, bare and inside both self-checking wrappers, patched
/// into the base tape at O0 and O1: on all 2^n inputs the patched
/// program computes what [`FaultyEvaluator`] computes, and what a fresh
/// decode of the patched tape computes, in as many dispatches. No
/// stuck-at on these networks is sent back to the faulty evaluator.
#[test]
fn stuck_at_patches_match_the_faulty_evaluator() {
    for n in [4, 8] {
        let vectors: Vec<Vec<bool>> = (0u32..1 << n)
            .map(|v| (0..n).map(|b| v >> b & 1 == 1).collect())
            .collect();
        let inputs = pack_lanes_wide::<4>(&vectors, n);
        for sel in NetworkSel::ALL {
            let circuit = build_network(sel, n);
            let wrapped = hardenings().map(|h| harden(&circuit, &h).circuit);
            for (c, wrap) in [
                (&circuit, "bare"),
                (&wrapped[0], "default"),
                (&wrapped[1], "duplicate"),
            ] {
                let base_out = FaultyEvaluator::<[u64; 4]>::new(c, &[]).run(&inputs);
                for level in OptLevel::ALL {
                    let mut vt =
                        VariantTape::<[u64; 4]>::compile(c, &CompileOptions::for_level(level));
                    let mut patched = 0usize;
                    for wire in observable_wires(c) {
                        for value in [false, true] {
                            let what =
                                format!("{} n={n} {wrap} {level:?} {wire:?}={value}", sel.name());
                            let fault = WireFault::StuckAt { wire, value };
                            let want = FaultyEvaluator::<[u64; 4]>::new(c, &[fault]).run(&inputs);
                            match vt.patch(&[], &[(wire, value)]) {
                                MutantTape::Patched(mut v) => {
                                    let mut fresh = CompiledEvaluator::<[u64; 4]>::new(&v);
                                    let fresh = (fresh.dispatches(), fresh.run(&inputs));
                                    assert_eq!(v.dispatches(), fresh.0, "{what}");
                                    let mut got = vec![[0u64; 4]; c.n_outputs()];
                                    v.run_into(&inputs, &mut got);
                                    assert_eq!(got, want, "{what}");
                                    assert_eq!(got, fresh.1, "{what}");
                                    patched += 1;
                                }
                                MutantTape::Dead => assert_eq!(want, base_out, "{what}"),
                                MutantTape::Unsupported => panic!("{what}: unsupported"),
                            }
                        }
                    }
                    assert!(patched > 0, "{} n={n} {wrap} {level:?}", sel.name());
                }
            }
        }
    }
}

/// The campaign counts its compiled-engine outcomes in the run manifest:
/// at n = 8 every component mutant and every stuck-at site of the four
/// networks is patched in place or dead. The manifest also splits the
/// sweeps' time into engine evaluation and scoring. Its report is the
/// one this process computes with telemetry off, so switching telemetry
/// on at run time changes no report cell.
#[test]
fn default_campaign_manifest_counts_mutant_outcomes() {
    let dir = std::env::temp_dir().join(format!("absort-mutants-{}", std::process::id()));
    let path = dir.join("faults.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_absort"))
        .args(["--network", "all", "--faults", "--n", "8", "--faults-out"])
        .arg(&path)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn absort CLI");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&std::fs::read_to_string(&path).expect("manifest written"))
        .expect("manifest is JSON");
    let _ = std::fs::remove_dir_all(&dir);
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(json::Value::as_i64)
            .unwrap_or_else(|| panic!("manifest lacks counter {name}"))
    };
    assert_eq!(
        [
            counter("faults.mutants.patched"),
            counter("faults.mutants.dead"),
            counter("faults.mutants.fallback"),
        ],
        [254, 5, 0]
    );
    assert_eq!(
        [
            counter("faults.wire.patched"),
            counter("faults.wire.dead"),
            counter("faults.wire.fallback"),
        ],
        [653, 0, 0]
    );
    // The vectors the sweeps ran: 1,281 variants of the four networks'
    // exhaustive workloads (256 vectors; fish's 25), less the 5 dead
    // mutants, which run none.
    assert_eq!(counter("faults.vectors_evaluated"), 245_806);
    assert!(counter("faults.eval_ns") > 0);
    assert!(counter("faults.check_ns") > 0);

    assert!(!absort_telemetry::enabled(), "telemetry is off in-process");
    assert_eq!(
        doc.get("faults")
            .expect("manifest carries the report")
            .to_pretty(),
        run_campaign(&NetworkSel::ALL, &small_cfg(8))
            .to_json()
            .to_pretty()
    );
}

/// The n = 8 campaign with single faults and 2-fault sets, pinned byte for
/// byte: every count and degradation cell of the four networks.
#[test]
fn n8_multi2_campaign_matches_golden_report() {
    let opts = CampaignOptions {
        multi: 2,
        ..CampaignOptions::default()
    };
    let report = run_campaign_with(&NetworkSel::ALL, &small_cfg(8), &opts);
    assert_eq!(
        report.to_json().to_pretty(),
        include_str!("golden/faults_n8_multi2.json")
    );
}

#[test]
fn fault_sites_cover_every_observable_wire_polarity() {
    // Wire granularity: at n = 8 every cone wire that takes both values
    // across the workload must show up as both a stuck-at-0 and a
    // stuck-at-1 site, so the campaign's denominator really is the full
    // single-fault space (minus provably vacuous sites).
    let circuit = build_network(NetworkSel::Prefix, 8);
    let vectors: Vec<Vec<bool>> = (0u32..256)
        .map(|v| (0..8).map(|b| v >> b & 1 == 1).collect())
        .collect();
    let sites = permanent_fault_sites(&circuit, &vectors);
    let cone = observable_wires(&circuit);
    let mut stuck_wires = std::collections::HashSet::new();
    let mut stuck = 0usize;
    for s in &sites {
        if let absort::circuit::WireFault::StuckAt { wire, .. } = s {
            stuck_wires.insert(*wire);
            stuck += 1;
        }
    }
    // A wire that toggles across the workload yields two stuck-at sites;
    // a wire constant across *all* inputs (a const tie) yields exactly
    // one — pinning it to the value it already holds is vacuous. Either
    // way every observable wire must be represented.
    for w in &cone {
        assert!(
            stuck_wires.contains(w),
            "cone wire {w:?} has no stuck-at site"
        );
    }
    assert!(stuck >= cone.len() && stuck <= 2 * cone.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every network the builders can produce is structurally sound:
    /// `Circuit::validate()` accepts the whole catalog at any
    /// power-of-two width.
    #[test]
    fn catalog_networks_validate(exp in 1usize..=5) {
        let n = 1usize << exp;
        prop_assert!(absort::core::prefix::build(n).validate().is_ok());
        prop_assert!(absort::core::muxmerge::build(n).validate().is_ok());
        prop_assert!(absort::core::nonadaptive::build(n).validate().is_ok());
        prop_assert!(absort::core::muxmerge::build_merger(n).validate().is_ok());
        prop_assert!(absort::core::prefix::build_with_adder(
            n,
            absort::blocks::adder::AdderKind::Ripple
        )
        .validate()
        .is_ok());
        if n >= 4 {
            let k = fish_k(n);
            prop_assert!(absort::core::fish::circuits::build_combinational_kmerger(n, k)
                .validate()
                .is_ok());
            prop_assert!(absort::core::fish::circuits::build_kswap(n, k)
                .validate()
                .is_ok());
        }
    }

    /// Clocked control invariants at any width: the steering counter
    /// reads `cycle mod k` little-endian, the duplicate (shadow)
    /// counter tracks it bit-for-bit, parity mirrors the count LSB, the
    /// heartbeat pulses exactly on schedule starts, and a mid-stream
    /// `reset()` restores the power-on registers without rewinding the
    /// cycle counter — after which the stream is indistinguishable from
    /// a fresh power-on.
    #[test]
    fn clocked_counter_rollover_and_reset_invariants(
        exp in 2usize..=4,
        steps in 1usize..=24,
    ) {
        let n = 1usize << exp;
        let k = fish_k(n);
        let kbits = k.trailing_zeros() as usize;
        let hard = streaming_sorter(n, k, Some(&HardenOptions::default()));
        prop_assert_eq!(hard.machine.n_state(), 2 * kbits + 2);
        let lines = vec![false; n];
        let mut sim = hard.machine.power_on();
        for c in 0..steps {
            let count = c % k;
            for b in 0..kbits {
                let bit = count >> b & 1 == 1;
                prop_assert_eq!(sim.state()[b], bit, "counter bit {} at cycle {}", b, c);
                prop_assert_eq!(sim.state()[kbits + b], bit, "shadow bit {} at cycle {}", b, c);
            }
            // k is a power of two, so the count LSB is the cycle LSB —
            // exactly what the toggling parity register encodes.
            prop_assert_eq!(sim.state()[2 * kbits], count & 1 == 1, "parity at cycle {}", c);
            prop_assert_eq!(sim.state()[2 * kbits + 1], count == 0, "heartbeat at cycle {}", c);
            let out = sim.step(&lines);
            prop_assert!(!out[hard.group], "rail must stay quiet fault-free");
        }
        prop_assert_eq!(sim.cycle(), steps as u64);
        sim.reset();
        prop_assert_eq!(sim.state(), hard.machine.reset_state());
        prop_assert_eq!(
            sim.cycle(),
            steps as u64,
            "reset is a register pulse, not a time machine"
        );
        let mut fresh = hard.machine.power_on();
        for _ in 0..k {
            prop_assert_eq!(sim.step(&lines), fresh.step(&lines));
        }
    }

    /// Campaign sampling is deterministic in the seed: the same config
    /// yields the same report, different seeds may not (sampled tier).
    #[test]
    fn sampled_tier_is_seed_deterministic(seed in any::<u64>()) {
        let cfg = CampaignConfig {
            n: 8,
            seed,
            max_exhaustive: 8, // force the sampled tier at n = 8
            transient_samples: 8,
            ..CampaignConfig::default()
        };
        let a = run_network(NetworkSel::MuxMerger, &cfg);
        let b = run_network(NetworkSel::MuxMerger, &cfg);
        prop_assert_eq!(a.tier.as_str(), "sampled");
        prop_assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
    }
}
