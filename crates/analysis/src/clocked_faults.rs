//! Fault injection for the clocked fish streamer (Model B resilience).
//!
//! The combinational campaigns of [`crate::faults`] freeze time: a fault
//! either corrupts one evaluation or it does not. The paper's Model B
//! machines are different — one shared sorter touches every group of the
//! stream, a counter register steers it, and state corrupted on cycle
//! `c` echoes into every later cycle. This module scores permanent and
//! cycle-precise transient faults on the *hardened* streaming sorter of
//! [`absort_networks::hardened::streaming_sorter`] over full sort
//! schedules:
//!
//! * a **schedule** holds one `n`-bit input stable for `k` cycles while
//!   the machine sorts one `n/k`-group per cycle; the concatenated
//!   stream is completed by a fault-free combinational k-merger
//!   (Definition 4 back end), and the completed output is judged by the
//!   same offline zero-one + conservation oracle as the combinational
//!   campaigns;
//! * **permanent** faults (netlist rewrites of the machine's
//!   combinational core, wire stuck-ats and bridges) apply on every
//!   cycle of every schedule;
//! * **transient** upsets are `(wire, cycle)` pairs — the
//!   [`absort_circuit::faulty::FaultyEvaluator`] counts one vector per
//!   clock step, so a `TransientFlip` at vector `c` hits exactly cycle
//!   `c`, and any corruption latched into the counter register persists
//!   beyond it;
//! * the streamer's **error rail** is read every cycle; a fault is
//!   `flagged` when the rail went high on any cycle of any schedule
//!   (concurrent detection), next to the offline `detected` verdict.
//!
//! Unlike the combinational sweeps, the fault universe here is the whole
//! machine core — shared sorter, group multiplexer, counter (plus its
//! shadow/parity/heartbeat checker under control hardening), *and* the
//! checker itself — so the report also exposes false alarms: checker
//! faults that raise the rail while the data stream stays correct show
//! up as `flagged` without `detected`.
//!
//! ## Recovery semantics (schema v3)
//!
//! Every schedule whose rail fired is **replayed**: the machine's reset
//! line is pulsed (registers restored, the cycle counter keeps running,
//! so a latched transient does not re-fire) and the same schedule re-run.
//! A fault all of whose replays come back clean — quiet rail *and* a
//! completed stream matching the sorted oracle — is scored `recovered`;
//! a fault whose flag persists through some replay is `fail_stop` (the
//! machine must be pulled, but it failed *loudly*). Replays never touch
//! the v2 columns: `detected`/`masked`/`flagged` and the degradation
//! extremes come from the primary run alone.
//!
//! ## Multi-tenant streaming
//!
//! With `tenants = t > 1`, schedules are round-robined through **one**
//! powered-on machine `t` at a time instead of each getting a fresh
//! power-on: tenant `j` of a batch owns cycles `[j·k, (j+1)·k)`, so
//! state corrupted under one tenant's schedule is still latched when the
//! next tenant's begins — the cross-tenant interference a shared Model B
//! machine actually risks. `tenants = 1` reduces to the classic
//! one-machine-per-schedule sweep bit-for-bit. Batch occupancy feeds the
//! `pipeline.in_flight_vector_cycles` telemetry counter.

use absort_circuit::clocked::ClockedCircuit;
use absort_circuit::faulty::{observable_wires, permanent_fault_sites};
use absort_circuit::mutate::{self, Fault};
use absort_circuit::{Circuit, EvalError, WireFault};
use absort_core::{fish, lang};
use absort_faults::{Degradation, FaultKind, KindReport, NetworkReport};
use absort_networks::hardened::{streaming_sorter, StreamingSorter};
use rand::prelude::*;

use crate::faults::{fish_k, fnv1a, CampaignConfig};

/// The `network` name the clocked unit reports under.
pub const CLOCKED_NETWORK: &str = "fish-clocked";

/// Schedule-count ceiling: all `2^n` inputs when they fit, otherwise a
/// seeded sample of this many. Each schedule costs `k` scalar clock
/// steps per fault, so the clocked unit budgets tighter than the
/// lane-packed combinational sweeps.
const MAX_SCHEDULES: usize = 256;

/// The fixed test bench one clocked campaign runs against.
struct Harness {
    streamer: StreamingSorter,
    /// Fault-free combinational k-merger completing the streamed
    /// k-sorted sequence.
    merger: Circuit,
    schedules: Vec<Vec<bool>>,
    tier: &'static str,
    /// Fault-free per-cycle group outputs, `reference[s][c]` = the data
    /// lines cycle `c` of schedule `s` presents.
    reference: Vec<Vec<Vec<bool>>>,
}

/// Either simulator the sweep drives — fault-free over a rewritten core,
/// or the fault-overlay simulator over the pristine core.
enum AnySim<'m> {
    Clean(absort_circuit::clocked::ClockedSim<'m>),
    Faulty(absort_circuit::clocked::FaultyClockedSim<'m>),
}

impl AnySim<'_> {
    fn try_step(&mut self, ext_in: &[bool]) -> Result<Vec<bool>, EvalError> {
        match self {
            AnySim::Clean(s) => s.try_step(ext_in),
            AnySim::Faulty(s) => s.try_step(ext_in),
        }
    }

    /// Pulses the reset line: registers restored, cycle counter kept.
    fn reset(&mut self) {
        match self {
            AnySim::Clean(s) => s.reset(),
            AnySim::Faulty(s) => s.reset(),
        }
    }
}

fn harness(cfg: &CampaignConfig) -> Harness {
    let n = cfg.n;
    let k = fish_k(n);
    let streamer = streaming_sorter(n, k, Some(&cfg.harden));
    assert!(streamer.has_rail, "clocked campaign needs the error rail");
    let merger = fish::circuits::build_combinational_kmerger(n, k);

    let (schedules, tier): (Vec<Vec<bool>>, _) =
        if n < usize::BITS as usize && (1usize << n) <= MAX_SCHEDULES.min(cfg.max_exhaustive) {
            (lang::all_sequences(n).collect(), "exhaustive")
        } else {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ fnv1a(CLOCKED_NETWORK));
            let count = MAX_SCHEDULES.min(cfg.max_exhaustive);
            (
                (0..count)
                    .map(|_| (0..n).map(|_| rng.gen::<bool>()).collect())
                    .collect(),
                "sampled",
            )
        };

    // Fault-free reference: per-cycle group data, a quiet rail, and a
    // completed output that matches the sorted oracle.
    let group = streamer.group;
    let mut reference = Vec::with_capacity(schedules.len());
    for sched in &schedules {
        let trace = vec![sched.clone(); k];
        let outs = streamer
            .machine
            .power_on()
            .try_run(&trace)
            .expect("schedule arity matches the machine");
        let mut data = Vec::with_capacity(k);
        for out in &outs {
            assert!(!out[group], "rail must stay quiet fault-free");
            data.push(out[..group].to_vec());
        }
        let completed = merger.eval(&data.concat());
        assert_eq!(
            completed,
            lang::sorted_oracle(sched),
            "fault-free stream must complete to the sorted oracle"
        );
        reference.push(data);
    }

    Harness {
        streamer,
        merger,
        schedules,
        tier,
        reference,
    }
}

/// The machine core's visited input space: every schedule's external
/// lines crossed with the register values each cycle holds fault-free —
/// the counter, and under control hardening its shadow copy, parity bit,
/// and end-of-schedule heartbeat. Wire-fault site enumeration prunes
/// sites provably vacuous over these vectors.
fn core_vectors(h: &Harness) -> Vec<Vec<bool>> {
    let k = h.streamer.k;
    let kbits = k.trailing_zeros() as usize;
    let mut vectors = Vec::with_capacity(h.schedules.len() * k);
    for sched in &h.schedules {
        for c in 0..k {
            let mut v = sched.clone();
            for b in 0..kbits {
                v.push(c >> b & 1 == 1);
            }
            if h.streamer.hardened_control {
                // Shadow counter tracks the primary bit-for-bit.
                for b in 0..kbits {
                    v.push(c >> b & 1 == 1);
                }
                // Parity register shadows the count's LSB; the heartbeat
                // is armed by the shadow's wrap carry, so it is high
                // exactly on schedule-start cycles.
                v.push(c & 1 == 1);
                v.push(c == 0);
            }
            vectors.push(v);
        }
    }
    vectors
}

/// Per-fault outcome over the swept schedules.
#[derive(Default)]
struct Outcome {
    detected: bool,
    differed: bool,
    flagged: bool,
    /// Some flagged schedule's replay stayed dirty (rail high again or a
    /// corrupted completion): the fault is persistent, not a transient.
    replay_failed: bool,
    cycles: u64,
    /// Queue-depth integral of the tenant batches (vector·cycles spent
    /// in flight), fed to `pipeline.in_flight_vector_cycles`.
    in_flight: u64,
}

/// Runs one schedule on `sim` and folds the verdicts; returns whether
/// the rail fired during *this* schedule (the replay trigger).
fn run_schedule(
    h: &Harness,
    si: usize,
    sim: &mut AnySim<'_>,
    o: &mut Outcome,
    degradation: &mut Degradation,
) -> bool {
    let k = h.streamer.k;
    let group = h.streamer.group;
    let sched = &h.schedules[si];
    let mut flagged = false;
    let mut data: Vec<Vec<bool>> = Vec::with_capacity(k);
    for _ in 0..k {
        let out = sim
            .try_step(sched)
            .expect("schedule arity matches the machine");
        o.cycles += 1;
        if out[group] {
            flagged = true;
            o.flagged = true;
            degradation.flagged += 1;
        }
        data.push(out[..group].to_vec());
    }
    if data != h.reference[si] {
        o.differed = true;
    }
    let completed = h.merger.eval(&data.concat());
    let true_ones = sched.iter().filter(|&&b| b).count();
    let ones = completed.iter().filter(|&&b| b).count();
    if !lang::is_sorted(&completed) || ones != true_ones {
        o.detected = true;
        degradation.observe(&completed, true_ones);
    }
    flagged
}

/// Replays one flagged schedule after a reset pulse and reports whether
/// the replay came back clean: quiet rail on every cycle and a completed
/// stream matching the sorted oracle. The cycle counter is *not* rewound
/// by reset, so a transient upset latched during the primary run cannot
/// re-fire here. Replays deliberately leave the v2 columns (detection,
/// masking, flag counts, degradation) untouched.
fn replay_schedule(h: &Harness, si: usize, sim: &mut AnySim<'_>) -> bool {
    sim.reset();
    let k = h.streamer.k;
    let group = h.streamer.group;
    let sched = &h.schedules[si];
    let mut data: Vec<Vec<bool>> = Vec::with_capacity(k);
    for _ in 0..k {
        let out = sim
            .try_step(sched)
            .expect("schedule arity matches the machine");
        if out[group] {
            return false;
        }
        data.push(out[..group].to_vec());
    }
    let completed = h.merger.eval(&data.concat());
    let true_ones = sched.iter().filter(|&&b| b).count();
    lang::is_sorted(&completed) && completed.iter().filter(|&&b| b).count() == true_ones
}

/// Runs one faulty machine over `schedules`, `tenants` at a time. Each
/// batch shares one power-on simulator round-robin — tenant `j` owns
/// cycles `[j·k, (j+1)·k)` — so corruption latched under one tenant's
/// schedule is live when the next tenant's begins. `tenants = 1` is the
/// classic fresh-machine-per-schedule sweep, bit-for-bit.
///
/// After each batch, every schedule whose rail fired is replayed on the
/// same (reset) machine; `o.replay_failed` records whether any replay
/// stayed dirty.
fn score_schedules<'m>(
    h: &Harness,
    tenants: usize,
    schedules: &[usize],
    mut fresh: impl FnMut() -> AnySim<'m>,
    o: &mut Outcome,
    degradation: &mut Degradation,
) {
    let k = h.streamer.k as u64;
    for batch in schedules.chunks(tenants.max(1)) {
        let mut sim = fresh();
        let mut flagged: Vec<usize> = Vec::new();
        for &si in batch {
            if run_schedule(h, si, &mut sim, o, degradation) {
                flagged.push(si);
            }
        }
        // Queue-depth integral: while tenant j computes for k cycles,
        // the batch's j later arrivals wait in flight.
        let b = batch.len() as u64;
        o.in_flight += k * (b * (b + 1) / 2);
        for &si in &flagged {
            if !replay_schedule(h, si, &mut sim) {
                o.replay_failed = true;
            }
        }
    }
}

/// Folds one fault's outcome into a report cell, mirroring the
/// combinational campaign's masked-set accounting and adding the v3
/// recovery split: every flagged fault is exactly one of `recovered`
/// (all replays clean) or `fail_stop` (some replay stayed dirty).
fn tally(cell: &mut KindReport, o: &Outcome) -> u64 {
    cell.injected += 1;
    if o.detected {
        cell.detected += 1;
    } else if !o.differed {
        cell.masked += 1;
    }
    if o.flagged {
        cell.flagged += 1;
        if o.replay_failed {
            cell.fail_stop += 1;
        } else {
            cell.recovered += 1;
        }
    }
    o.cycles
}

/// Runs the clocked fish-streamer campaign at `cfg.n` with the classic
/// one-schedule-per-machine workload (network name [`CLOCKED_NETWORK`],
/// `fault_set_size = 1`).
pub fn run_clocked_fish(cfg: &CampaignConfig) -> NetworkReport {
    run_clocked_fish_with(cfg, 1)
}

/// Runs the clocked fish-streamer campaign with `tenants` in-flight
/// schedules round-robined through each faulty machine (see the module
/// docs); `tenants = 1` matches [`run_clocked_fish`] bit-for-bit.
pub fn run_clocked_fish_with(cfg: &CampaignConfig, tenants: usize) -> NetworkReport {
    let _span = absort_telemetry::span("faults/clocked");
    let h = harness(cfg);
    let comb = h.streamer.machine.comb();
    let k = h.streamer.k;
    let n_ext_out = h.streamer.machine.n_outputs();
    let all: Vec<usize> = (0..h.schedules.len()).collect();
    let mut total_cycles = 0u64;
    let mut total_in_flight = 0u64;

    let mut kinds: Vec<KindReport> = Vec::new();

    // --- netlist rewrites of the combinational core ---------------------
    for fault in Fault::ALL {
        let kind = match fault {
            Fault::InvertBehaviour => FaultKind::InvertBehaviour,
            Fault::StuckSelectLow => FaultKind::StuckSelectLow,
            Fault::StuckSelectHigh => FaultKind::StuckSelectHigh,
        };
        let mut cell = KindReport {
            kind: Some(kind),
            ..Default::default()
        };
        for (_, mutant) in mutate::mutants(comb, fault) {
            mutant
                .validate()
                .unwrap_or_else(|e| panic!("clocked mutant failed validation: {e}"));
            // The mutant machine must power on in the streamer's own
            // reset state (under control hardening the heartbeat register
            // resets high), or every mutant would false-alarm on cycle 0.
            let machine = ClockedCircuit::new(
                mutant,
                cfg.n,
                n_ext_out,
                h.streamer.machine.reset_state().to_vec(),
            );
            let mut o = Outcome::default();
            score_schedules(
                &h,
                tenants,
                &all,
                || AnySim::Clean(machine.power_on()),
                &mut o,
                &mut cell.degradation,
            );
            total_in_flight += o.in_flight;
            total_cycles += tally(&mut cell, &o);
        }
        kinds.push(cell);
    }

    // --- wire-granularity permanent faults ------------------------------
    // Site enumeration needs the core's full input space: external lines
    // crossed with every register state the schedule visits.
    let sites = permanent_fault_sites(comb, &core_vectors(&h));
    for kind in [
        FaultKind::StuckAt0,
        FaultKind::StuckAt1,
        FaultKind::BridgeOr,
    ] {
        let mut cell = KindReport {
            kind: Some(kind),
            ..Default::default()
        };
        for &site in sites.iter().filter(|s| match kind {
            FaultKind::StuckAt0 => matches!(s, WireFault::StuckAt { value: false, .. }),
            FaultKind::StuckAt1 => matches!(s, WireFault::StuckAt { value: true, .. }),
            _ => matches!(s, WireFault::BridgeOr { .. }),
        }) {
            let mut o = Outcome::default();
            score_schedules(
                &h,
                tenants,
                &all,
                || AnySim::Faulty(h.streamer.machine.power_on_faulty(&[site])),
                &mut o,
                &mut cell.degradation,
            );
            total_in_flight += o.in_flight;
            total_cycles += tally(&mut cell, &o);
        }
        kinds.push(cell);
    }

    // --- cycle-precise transient upsets ---------------------------------
    // The faulty simulator counts one vector per clock step, so vector
    // index `c` is exactly cycle `c` of the run. Each sample targets one
    // (wire, cycle, schedule) triple; corruption latched into the
    // counter register persists past the upset cycle. Samples stay
    // single-schedule runs regardless of `tenants` — the replay protocol
    // is what demonstrates transient recovery.
    let mut cell = KindReport {
        kind: Some(FaultKind::TransientFlip),
        ..Default::default()
    };
    let cone = observable_wires(comb);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ fnv1a(CLOCKED_NETWORK) ^ 0x7f1b);
    for _ in 0..cfg.transient_samples {
        let wire = cone[rng.gen_range(0..cone.len())];
        let cycle = rng.gen_range(0..k) as u64;
        let si = rng.gen_range(0..h.schedules.len());
        let fault = WireFault::TransientFlip {
            wire,
            vector: cycle,
        };
        let mut o = Outcome::default();
        score_schedules(
            &h,
            1,
            &[si],
            || AnySim::Faulty(h.streamer.machine.power_on_faulty(&[fault])),
            &mut o,
            &mut cell.degradation,
        );
        total_in_flight += o.in_flight;
        total_cycles += tally(&mut cell, &o);
    }
    kinds.push(cell);

    absort_telemetry::counter_add_many(&[
        ("faults.clocked.cycles", total_cycles),
        ("pipeline.in_flight_vector_cycles", total_in_flight),
    ]);

    // The cost columns price the checker: the bare (unhardened)
    // streamer core against the self-checking one actually swept.
    let bare_cost = streaming_sorter(cfg.n, k, None).machine.comb().cost().total;

    NetworkReport {
        network: CLOCKED_NETWORK.to_owned(),
        n: cfg.n,
        components: comb.n_components() as u64,
        base_cost: bare_cost,
        hardened_cost: comb.cost().total,
        tier: h.tier.to_owned(),
        vectors: h.schedules.len() as u64,
        fault_set_size: 1,
        kinds,
    }
}

/// The physical site a wire fault occupies; sampled sets keep sites
/// distinct so `k` faults model `k` separate defects.
fn wire_site(f: &WireFault) -> (u8, usize, usize) {
    match *f {
        WireFault::StuckAt { wire, .. } => (1, wire.index(), 0),
        WireFault::BridgeOr { a, b } => (2, a.index(), b.index()),
        WireFault::TransientFlip { .. } => {
            unreachable!("transients are not pooled into multi-fault sets")
        }
    }
}

/// Sweeps sampled simultaneous `set_size`-fault sets over the clocked
/// streamer — the Model B analogue of
/// [`crate::faults::run_network_sets`]. Each sample draws `set_size`
/// wire-granularity permanent faults on distinct sites of the machine
/// core, applies them together on every cycle, and scores the set over
/// all schedules with the same tenant batching and replay protocol as
/// the single-fault sweep; the report is one mixed-kind cell with
/// `fault_set_size = set_size`.
///
/// The sampling stream depends only on `(cfg.seed, set_size)` — not on
/// which other units ran — so checkpoint-resumed campaigns reproduce
/// uninterrupted ones bit-for-bit.
pub fn run_clocked_fish_sets(
    cfg: &CampaignConfig,
    set_size: usize,
    samples: usize,
    tenants: usize,
) -> NetworkReport {
    assert!(
        set_size >= 2,
        "run_clocked_fish_sets needs set_size ≥ 2; use run_clocked_fish for singles"
    );
    let _span = absort_telemetry::span(&format!("faults/clocked/k{set_size}"));
    let h = harness(cfg);
    let comb = h.streamer.machine.comb();
    let k = h.streamer.k;
    let all: Vec<usize> = (0..h.schedules.len()).collect();
    let sites = permanent_fault_sites(comb, &core_vectors(&h));
    {
        let mut ids: Vec<_> = sites.iter().map(wire_site).collect();
        ids.sort_unstable();
        ids.dedup();
        assert!(
            ids.len() >= set_size,
            "clocked core at n={} has only {} distinct wire-fault sites, cannot draw {set_size}-sets",
            cfg.n,
            ids.len()
        );
    }

    let mut cell = KindReport::default(); // kind: None → "mixed"
    let mut total_cycles = 0u64;
    let mut total_in_flight = 0u64;
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ fnv1a(CLOCKED_NETWORK) ^ ((set_size as u64) << 32));
    for _ in 0..samples {
        let mut chosen: Vec<WireFault> = Vec::with_capacity(set_size);
        while chosen.len() < set_size {
            let f = sites[rng.gen_range(0..sites.len())];
            if chosen.iter().any(|c| wire_site(c) == wire_site(&f)) {
                continue;
            }
            chosen.push(f);
        }
        let mut o = Outcome::default();
        score_schedules(
            &h,
            tenants,
            &all,
            || AnySim::Faulty(h.streamer.machine.power_on_faulty(&chosen)),
            &mut o,
            &mut cell.degradation,
        );
        total_in_flight += o.in_flight;
        total_cycles += tally(&mut cell, &o);
    }

    absort_telemetry::counter_add_many(&[
        ("faults.clocked.cycles", total_cycles),
        ("faults.multi.sets", samples as u64),
        ("pipeline.in_flight_vector_cycles", total_in_flight),
    ]);

    let bare_cost = streaming_sorter(cfg.n, k, None).machine.comb().cost().total;

    NetworkReport {
        network: CLOCKED_NETWORK.to_owned(),
        n: cfg.n,
        components: comb.n_components() as u64,
        base_cost: bare_cost,
        hardened_cost: comb.cost().total,
        tier: h.tier.to_owned(),
        vectors: h.schedules.len() as u64,
        fault_set_size: set_size as u64,
        kinds: vec![cell],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CampaignConfig {
        CampaignConfig {
            n: 4,
            transient_samples: 16,
            ..Default::default()
        }
    }

    #[test]
    fn harness_reference_is_exhaustive_and_sound() {
        let h = harness(&small_cfg());
        assert_eq!(h.tier, "exhaustive");
        assert_eq!(h.schedules.len(), 16);
        assert_eq!(h.reference.len(), 16);
        for per_cycle in &h.reference {
            assert_eq!(per_cycle.len(), h.streamer.k);
        }
    }

    #[test]
    fn clocked_campaign_reports_and_is_deterministic() {
        let cfg = small_cfg();
        let a = run_clocked_fish(&cfg);
        assert_eq!(a.network, CLOCKED_NETWORK);
        assert_eq!(a.fault_set_size, 1);
        assert_eq!(a.vectors, 16);
        assert_eq!(a.kinds.len(), 7);
        let injected: u64 = a.kinds.iter().map(|c| c.injected).sum();
        assert!(injected > 0, "no clocked faults swept");
        let detected: u64 = a.kinds.iter().map(|c| c.detected).sum();
        assert!(detected > 0, "some clocked fault must corrupt the stream");
        let flagged: u64 = a.kinds.iter().map(|c| c.flagged).sum();
        assert!(flagged > 0, "the rail must fire for some clocked fault");
        let b = run_clocked_fish(&cfg);
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
    }

    #[test]
    fn transient_counter_upsets_can_outlive_their_cycle() {
        // A transient on the counter's next-state feed corrupts the
        // register, steering the *wrong group* into the shared sorter on
        // later cycles — the degradation mode unique to Model B. Assert
        // the sweep saw at least one transient whose output differed
        // from the reference (cycle-precise injection reaches state).
        let cfg = CampaignConfig {
            n: 4,
            transient_samples: 64,
            ..Default::default()
        };
        let report = run_clocked_fish(&cfg);
        let cell = report
            .kinds
            .iter()
            .find(|c| c.kind == Some(FaultKind::TransientFlip))
            .unwrap();
        assert_eq!(cell.injected, 64);
        assert!(
            cell.injected > cell.masked,
            "some transient must perturb the stream"
        );
    }

    #[test]
    fn recovery_split_partitions_the_flagged_faults() {
        // v3 accounting: every flagged fault is exactly one of
        // recovered/fail_stop; permanents re-manifest on replay (the
        // primary run and the replay start from the same reset state at
        // tenants = 1, so a flag always repeats → fail_stop), while
        // flagged transients cannot re-fire after reset → recovered.
        let cfg = CampaignConfig {
            n: 4,
            transient_samples: 64,
            ..Default::default()
        };
        let report = run_clocked_fish(&cfg);
        for cell in &report.kinds {
            assert_eq!(
                cell.recovered + cell.fail_stop,
                cell.flagged,
                "{:?}: recovery split must partition the flagged count",
                cell.kind
            );
            if cell.kind != Some(FaultKind::TransientFlip) {
                assert_eq!(
                    cell.recovered, 0,
                    "{:?}: a permanent fault cannot recover via replay",
                    cell.kind
                );
            }
        }
        let transients = report
            .kinds
            .iter()
            .find(|c| c.kind == Some(FaultKind::TransientFlip))
            .unwrap();
        assert!(
            transients.recovered > 0,
            "some flagged transient must clear on replay"
        );
        assert_eq!(
            transients.fail_stop, 0,
            "a reset pulse clears every latched transient"
        );
    }

    #[test]
    fn multi_tenant_sweep_is_deterministic_and_keeps_the_universe() {
        // Tenant batching changes which state each schedule starts from
        // (interference is the point), never which faults are swept.
        let cfg = small_cfg();
        let solo = run_clocked_fish_with(&cfg, 1);
        let multi = run_clocked_fish_with(&cfg, 4);
        assert_eq!(solo.kinds.len(), multi.kinds.len());
        for (a, b) in solo.kinds.iter().zip(&multi.kinds) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.injected, b.injected, "{:?}", a.kind);
        }
        // tenants = 1 is the definition of the classic sweep.
        assert_eq!(
            solo.to_json().to_pretty(),
            run_clocked_fish(&cfg).to_json().to_pretty()
        );
        let again = run_clocked_fish_with(&cfg, 4);
        assert_eq!(multi.to_json().to_pretty(), again.to_json().to_pretty());
    }

    #[test]
    fn clocked_fault_sets_sample_and_score() {
        let cfg = small_cfg();
        let report = run_clocked_fish_sets(&cfg, 2, 16, 2);
        assert_eq!(report.network, CLOCKED_NETWORK);
        assert_eq!(report.fault_set_size, 2);
        assert_eq!(report.kinds.len(), 1);
        let cell = &report.kinds[0];
        assert_eq!(cell.kind, None);
        assert_eq!(cell.injected, 16);
        assert!(cell.detected + cell.masked <= cell.injected);
        assert_eq!(cell.recovered + cell.fail_stop, cell.flagged);
        let again = run_clocked_fish_sets(&cfg, 2, 16, 2);
        assert_eq!(again.to_json().to_pretty(), report.to_json().to_pretty());
    }
}
