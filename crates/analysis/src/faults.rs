//! Fault-injection campaigns over the paper's networks (resilience
//! analysis).
//!
//! Sweeps every fault kind of the `absort-faults` taxonomy over fault
//! sites of the prefix sorter, the mux-based merge sorter, the fish
//! k-way merger, and the nonadaptive (Batcher-equal) sorter, and scores
//! three things per (network, fault kind):
//!
//! * **detection** — did some valid input produce an output differing
//!   from the sorted oracle? A fault the exhaustive checker cannot see
//!   escapes verification; the acceptance bar is 100% detection of
//!   permanent single faults at small `n` (fault-site enumeration already
//!   excludes provably vacuous sites — see
//!   `absort_circuit::faulty::permanent_fault_sites`);
//! * **concurrent detection** — every sweep actually evaluates the
//!   *self-checking* wrapper of the network
//!   ([`absort_networks::hardened::harden`]): the data outputs are
//!   untouched (so detection and degradation match a bare sweep
//!   bit-for-bit) but an error rail reports, per vector, whether the
//!   hardware's own zero-one + conservation checker fired. Faults are
//!   still enumerated on the *base* netlist — the checker cone is not a
//!   fault target — and translated through the wrapper's site maps;
//! * **graceful degradation** — across all faulty outputs, the worst
//!   Kendall-tau inversion count, the worst element displacement, and how
//!   often the fault destroyed/created tokens outright
//!   ([`absort_faults::Degradation`]).
//!
//! Component-granularity faults (behaviour inversion, stuck selects) are
//! injected by netlist rewriting (`absort_circuit::mutate`); wire
//! stuck-ats, bridges, and transient upsets are injected at evaluation
//! time (`absort_circuit::faulty`). Valid inputs are the network's
//! contract: all `2^n` vectors for the sorters, the k-sorted sequences
//! (Definition 4) for the merger. Beyond `max_exhaustive` vectors the
//! checker drops to a seeded random sample and the report's `tier` says
//! so.
//!
//! Beyond the classic single-fault sweep, [`run_network_sets`] samples
//! simultaneous `k`-fault sets (distinct sites, mixed kinds) from the
//! permanent-fault universe, and [`run_campaign_with`] drives the whole
//! campaign — per-network × per-`k` units plus an optional clocked
//! streamer unit ([`crate::clocked_faults`]) — with a wall-clock budget
//! and a unit-granular checkpoint file for resuming truncated runs.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use absort_circuit::eval::{pack_lanes, pack_lanes_wide};
use absort_circuit::faulty::{observable_wires, permanent_fault_sites, FaultyEvaluator};
use absort_circuit::mutate::{self, Fault};
use absort_circuit::{
    Circuit, CompileOptions, CompiledCircuit, CompiledEvaluator, Engine, Evaluator,
    MultiMutantTape, MutantTape, WireFault,
};
use absort_core::{fish, lang, muxmerge, nonadaptive, prefix};
use absort_faults::json;
use absort_faults::{CampaignReport, Degradation, FaultKind, KindReport, NetworkReport};
use absort_networks::hardened::{harden, HardenOptions, HardenedSorter};
use rand::prelude::*;

/// A network the campaign can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkSel {
    /// Prefix-sum adaptive sorter (`absort_core::prefix`).
    Prefix,
    /// Mux-based merge sorter (`absort_core::muxmerge`).
    MuxMerger,
    /// Fish k-way merger, combinational form (`absort_core::fish`).
    Fish,
    /// Nonadaptive sorter — Batcher-equal cost (`absort_core::nonadaptive`).
    Batcher,
}

impl NetworkSel {
    /// All four targets, in report order.
    pub const ALL: [NetworkSel; 4] = [
        NetworkSel::Prefix,
        NetworkSel::MuxMerger,
        NetworkSel::Fish,
        NetworkSel::Batcher,
    ];

    /// Stable name used in reports and telemetry paths.
    pub fn name(self) -> &'static str {
        match self {
            NetworkSel::Prefix => "prefix",
            NetworkSel::MuxMerger => "mux-merger",
            NetworkSel::Fish => "fish",
            NetworkSel::Batcher => "batcher",
        }
    }

    /// Parses a CLI `--network` value (`"all"` is handled by the caller).
    pub fn parse(s: &str) -> Option<NetworkSel> {
        match s {
            "prefix" => Some(NetworkSel::Prefix),
            "muxmerge" | "mux-merger" | "muxmerger" => Some(NetworkSel::MuxMerger),
            "fish" => Some(NetworkSel::Fish),
            "batcher" | "nonadaptive" => Some(NetworkSel::Batcher),
            _ => None,
        }
    }
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Input width each network is built at (power of two).
    pub n: usize,
    /// Seed for sampled tiers, transient-fault placement, and multi-fault
    /// set sampling.
    pub seed: u64,
    /// Valid-input count above which the checker samples instead of
    /// enumerating (the report's `tier` records which happened).
    pub max_exhaustive: usize,
    /// Transient (wire, vector) upsets injected per network.
    pub transient_samples: usize,
    /// Evaluation engine for the netlist-rewrite (mutant) sweeps. Each
    /// mutant is evaluated over the whole workload, so the one-time
    /// lowering pass amortizes immediately; the compiled tape is the
    /// default. Wire-granularity faults (stuck-ats, bridges, transients)
    /// always run on the interpreting [`FaultyEvaluator`] — the compiled
    /// tape reuses slots and has no per-wire identity to inject into.
    pub engine: Engine,
    /// Compilation options for every tape the compiled engine builds
    /// (base, patched fallbacks, per-mutant recompiles). The pass
    /// pipeline's provenance contract guarantees report cells are
    /// bit-identical across opt levels; only the sweep speed changes.
    pub opt: CompileOptions,
    /// Which concurrent checks the self-checking wrapper carries. The
    /// default (monotonicity + conservation) matches the paper's cheap
    /// checker; enabling `duplicate` doubles the core for higher
    /// coverage, and the report's cost columns price the trade.
    pub harden: HardenOptions,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            n: 8,
            seed: 0x0ab5_0127,
            max_exhaustive: 1 << 12,
            transient_samples: 64,
            engine: Engine::Compiled,
            opt: CompileOptions::default(),
            harden: HardenOptions::default(),
        }
    }
}

/// Knobs beyond [`CampaignConfig`] for the full campaign driver
/// ([`run_campaign_with`]).
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Largest simultaneous fault-set size swept per network: each
    /// network gets one unit per `k` in `1..=multi` (`1` is the classic
    /// single-fault sweep).
    pub multi: usize,
    /// Sampled fault sets per `(network, k)` unit for `k ≥ 2`.
    pub sets_per_k: usize,
    /// Also run the clocked fish-streamer unit
    /// ([`crate::clocked_faults::run_clocked_fish`]); with `multi ≥ 2`,
    /// clocked multi-fault-set units
    /// ([`crate::clocked_faults::run_clocked_fish_sets`]) ride along for
    /// each `k in 2..=multi`.
    pub clocked: bool,
    /// In-flight schedules round-robined through each clocked faulty
    /// machine (`1` = the classic fresh-machine-per-schedule sweep; see
    /// [`crate::clocked_faults`] for the interference model). Ignored by
    /// the combinational units.
    pub tenants: usize,
    /// Checkpoint path: the report-so-far is written after every
    /// completed unit, so a truncated or killed campaign can resume.
    pub checkpoint: Option<PathBuf>,
    /// Load the checkpoint first and skip units it already covers. The
    /// checkpoint carries a fingerprint of every parameter that shapes
    /// results; a stale or mismatched file is ignored wholesale.
    pub resume: bool,
    /// Wall-clock budget. On expiry the campaign stops *between* units —
    /// but always after at least one freshly computed unit, so repeated
    /// resumed runs are guaranteed to make progress — and the report says
    /// `truncated`.
    pub timeout: Option<Duration>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            multi: 1,
            sets_per_k: 64,
            clocked: false,
            tenants: 1,
            checkpoint: None,
            resume: false,
            timeout: None,
        }
    }
}

/// Builds the circuit for one target at width `n`.
pub fn build_network(sel: NetworkSel, n: usize) -> Circuit {
    match sel {
        NetworkSel::Prefix => prefix::build(n),
        NetworkSel::MuxMerger => muxmerge::build(n),
        NetworkSel::Fish => fish::circuits::build_combinational_kmerger(n, fish_k(n)),
        NetworkSel::Batcher => nonadaptive::build(n),
    }
}

/// Group count for the fish merger at width `n`: the largest power of two
/// `k` with `k ≤ n/k` (the builder's own bound), and at least 2.
pub fn fish_k(n: usize) -> usize {
    let mut k = 2;
    while 2 * k <= n / (2 * k) {
        k *= 2;
    }
    k
}

/// Largest index into the network's valid-input space, in closed form:
/// sorters accept all `2^n` vectors, the fish merger the `(n/k + 1)^k`
/// with each of its `k` blocks sorted (Definition 4). `None` past `u64`.
fn max_input_index(sel: NetworkSel, n: usize) -> Option<u64> {
    match sel {
        NetworkSel::Fish => {
            let k = fish_k(n);
            ((n / k + 1) as u64).checked_pow(k as u32).map(|c| c - 1)
        }
        _ => (n <= 64).then(|| u64::MAX >> (64 - n)),
    }
}

/// Sorted `block`-wide blocks, one per count in `ones` (block 0 first),
/// each holding that many ones.
fn k_sorted(block: usize, ones: impl Iterator<Item = usize>) -> Vec<bool> {
    ones.flat_map(|o| (0..block).map(move |i| i + o >= block))
        .collect()
}

/// Vector `idx` of the valid-input space, in `lang::all_sequences` /
/// `lang::all_k_sorted` order: bit `i` of `idx` is input `i` of a
/// sorter; for the fish merger `idx` is a base-`(n/k + 1)` number whose
/// most significant digit is block 0's count of ones.
fn nth_input(sel: NetworkSel, n: usize, idx: u64) -> Vec<bool> {
    match sel {
        NetworkSel::Fish => {
            let k = fish_k(n);
            let radix = (n / k + 1) as u64;
            let digits = (0..k as u32)
                .rev()
                .map(|j| (idx / radix.pow(j) % radix) as usize);
            k_sorted(n / k, digits)
        }
        _ => (0..n).map(|i| idx >> i & 1 == 1).collect(),
    }
}

/// One uniform draw from the valid-input space: one index where `u64`
/// holds them (a seed picks the vectors sampling the enumerated space
/// did), else each bit or block count independently.
fn sample_input(sel: NetworkSel, n: usize, rng: &mut StdRng) -> Vec<bool> {
    match (max_input_index(sel, n), sel) {
        (Some(max), _) => nth_input(sel, n, rng.gen_range(0..=max)),
        (None, NetworkSel::Fish) => {
            let block = n / fish_k(n);
            k_sorted(block, (0..fish_k(n)).map(|_| rng.gen_range(0..=block)))
        }
        (None, _) => (0..n).map(|_| rng.gen()).collect(),
    }
}

/// One workload, pre-packed for the sweep hot loop: 64-lane input
/// chunks, the packed sorted oracle per chunk, and the valid-lane masks.
/// Packing once here instead of once per faulty variant removes the
/// dominant allocation churn of the campaign (every variant used to
/// re-pack every chunk and allocate a fresh output vector per pass).
struct Workload {
    vectors: Vec<Vec<bool>>,
    ones: Vec<usize>,
    tier: &'static str,
    /// Packed 64-lane input chunks, in workload order.
    packed: Vec<Vec<u64>>,
    /// The same inputs packed as `[u64; 4]` wide chunks (256 vectors per
    /// chunk; word `k` of wide chunk `wi` is 64-lane chunk `4·wi + k`).
    /// The compiled engine sweeps these, quartering its pass count.
    packed_wide: Vec<Vec<[u64; 4]>>,
    /// Packed oracle outputs, one entry per input chunk.
    packed_oracle: Vec<Vec<u64>>,
    /// Low-bits mask of the lanes each chunk actually occupies.
    masks: Vec<u64>,
}

fn workload(sel: NetworkSel, cfg: &CampaignConfig) -> Workload {
    let (vectors, tier): (Vec<Vec<bool>>, _) = match max_input_index(sel, cfg.n) {
        Some(max) if max < cfg.max_exhaustive as u64 => (
            (0..=max).map(|i| nth_input(sel, cfg.n, i)).collect(),
            "exhaustive",
        ),
        _ => {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let draw = |_| sample_input(sel, cfg.n, &mut rng);
            ((0..cfg.max_exhaustive).map(draw).collect(), "sampled")
        }
    };
    let oracle: Vec<Vec<bool>> = vectors.iter().map(|v| lang::sorted_oracle(v)).collect();
    let ones = vectors
        .iter()
        .map(|v| v.iter().filter(|&&b| b).count())
        .collect();
    let packed = vectors.chunks(64).map(|c| pack_lanes(c, cfg.n)).collect();
    let packed_wide = vectors
        .chunks(256)
        .map(|c| pack_lanes_wide::<4>(c, cfg.n))
        .collect();
    let packed_oracle = oracle.chunks(64).map(|c| pack_lanes(c, cfg.n)).collect();
    let masks = vectors
        .chunks(64)
        .map(|c| {
            if c.len() == 64 {
                u64::MAX
            } else {
                (1u64 << c.len()) - 1
            }
        })
        .collect();
    Workload {
        vectors,
        ones,
        tier,
        packed,
        packed_wide,
        packed_oracle,
        masks,
    }
}

/// Outcome of sweeping one faulty variant over the whole workload.
struct Verdict {
    /// The zero-one checker fired: some output was unsorted or did not
    /// conserve its input's popcount.
    detected: bool,
    /// Some output differed from the fault-free reference at all. A site
    /// with `!differed` is *masked* (the network tolerates it); a site
    /// with `differed && !detected` escaped the checker.
    differed: bool,
    /// The hardware error rail of the self-checking wrapper went high on
    /// some workload vector (concurrent, in-circuit detection).
    flagged: bool,
}

const CLEAN: Verdict = Verdict {
    detected: false,
    differed: false,
    flagged: false,
};

/// Scores one faulty variant: runs every pre-packed 64-lane chunk through
/// `eval_pass` into a reused output buffer, diffs the packed outputs
/// against the packed oracle, and applies the zero-one checker only to
/// lanes that differ. `n_eval` is the evaluated circuit's full output
/// count (data outputs plus the error rail at index `rail`).
///
/// Skipping non-differing lanes loses nothing: a lane equal to the
/// oracle *is* a sorted vector with the conserved popcount, so the
/// checker (sortedness + token conservation, exactly the oracle's two
/// defining properties) cannot fire on it. Differing lanes are unpacked
/// and checked in ascending order, so detection results and the
/// degradation-observation sequence are identical to the old
/// vector-at-a-time sweep.
fn score_variant(
    w: &Workload,
    n_eval: usize,
    rail: usize,
    mut eval_pass: impl FnMut(&[u64], &mut [u64]),
    degradation: &mut Degradation,
) -> Verdict {
    let mut v = CLEAN;
    let mut out = vec![0u64; n_eval];
    let mut lane_buf: Vec<bool> = Vec::with_capacity(n_eval);
    let mut base = 0usize;
    for (ci, packed) in w.packed.iter().enumerate() {
        eval_pass(packed, &mut out);
        check_chunk(
            w,
            ci,
            base,
            rail,
            |o| out[o],
            &mut lane_buf,
            degradation,
            &mut v,
        );
        base += w.masks[ci].count_ones() as usize;
    }
    v
}

/// Scores one faulty variant with `[u64; 4]` wide passes: each pass
/// covers four 64-lane chunks, quartering per-variant evaluation count.
/// This is what makes per-mutant lowering pay for itself in the compiled
/// campaign path — the tape is walked once per 256 vectors instead of
/// four times. Chunk checks run in the same ascending order as
/// [`score_variant`], so verdicts and degradation sequences match the
/// 64-lane sweep exactly.
fn score_variant_wide(
    w: &Workload,
    n_eval: usize,
    rail: usize,
    mut eval_pass: impl FnMut(&[[u64; 4]], &mut [[u64; 4]]),
    degradation: &mut Degradation,
) -> Verdict {
    let mut v = CLEAN;
    let mut out = vec![[0u64; 4]; n_eval];
    let mut lane_buf: Vec<bool> = Vec::with_capacity(n_eval);
    let mut base = 0usize;
    for (wi, packed) in w.packed_wide.iter().enumerate() {
        eval_pass(packed, &mut out);
        for (ci, mask) in w.masks.iter().enumerate().skip(wi * 4).take(4) {
            let k = ci - wi * 4;
            check_chunk(
                w,
                ci,
                base,
                rail,
                |o| out[o][k],
                &mut lane_buf,
                degradation,
                &mut v,
            );
            base += mask.count_ones() as usize;
        }
    }
    v
}

/// Diffs one 64-lane output chunk (read through `out_word`, which maps an
/// output index to its packed word) against the packed oracle and applies
/// the zero-one checker to differing lanes, folding results into `v`.
/// The error rail's word (output index `rail`) is folded in regardless of
/// the diff — concurrent detection is the hardware's own call, not the
/// oracle's.
#[allow(clippy::too_many_arguments)]
fn check_chunk(
    w: &Workload,
    ci: usize,
    base: usize,
    rail: usize,
    out_word: impl Fn(usize) -> u64,
    lane_buf: &mut Vec<bool>,
    degradation: &mut Degradation,
    v: &mut Verdict,
) {
    let mask = w.masks[ci];
    let n_outputs = w.packed_oracle[ci].len();
    let mut differed = 0u64;
    for (o, &oracle) in w.packed_oracle[ci].iter().enumerate() {
        differed |= (out_word(o) ^ oracle) & mask;
    }
    if differed != 0 {
        v.differed = true;
        let mut rest = differed;
        while rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            lane_buf.clear();
            lane_buf.extend((0..n_outputs).map(|o| out_word(o) >> lane & 1 == 1));
            // The deployable checker: no oracle needed, just the
            // zero-one sort property plus token conservation.
            let ones = lane_buf.iter().filter(|&&b| b).count();
            if !lang::is_sorted(lane_buf) || ones != w.ones[base + lane] {
                v.detected = true;
                degradation.observe(lane_buf, w.ones[base + lane]);
            }
        }
    }
    let rail_word = out_word(rail) & mask;
    if rail_word != 0 {
        v.flagged = true;
        degradation.flagged += rail_word.count_ones() as u64;
    }
}

/// Folds one variant's verdict into a report cell.
fn tally(cell: &mut KindReport, v: Verdict) {
    cell.injected += 1;
    if v.detected {
        cell.detected += 1;
    } else if !v.differed {
        cell.masked += 1;
    }
    if v.flagged {
        cell.flagged += 1;
    }
}

/// Runs the full single-fault sweep for one network and returns its
/// report. The evaluated circuit is the self-checking wrapper
/// ([`harden`] with default options); the fault universe is the *base*
/// netlist's, translated through the wrapper's site maps, so the data
/// columns (injected/detected/masked, degradation) are bit-for-bit what
/// a bare sweep produces while `flagged` adds the rail's concurrent
/// verdict.
pub fn run_network(sel: NetworkSel, cfg: &CampaignConfig) -> NetworkReport {
    #[cfg(feature = "telemetry")]
    let _span = absort_telemetry::span(&format!("faults/{}", sel.name()));
    let circuit = build_network(sel, cfg.n);
    circuit
        .validate()
        .unwrap_or_else(|e| panic!("{} netlist failed validation: {e}", sel.name()));
    let hardened = harden(&circuit, &cfg.harden);
    let n_eval = hardened.circuit.n_outputs();
    let rail = hardened.rail_index();
    let w = workload(sel, cfg);

    let mut kinds: Vec<KindReport> = Vec::new();

    // Per-variant scoring latency (patch + sweep), pooled across fault
    // kinds locally and merged into the `faults.mutant_score_ns`
    // histogram once at the end of the run.
    #[cfg(feature = "telemetry")]
    let mut score_hist = absort_telemetry::Histogram::new();
    #[cfg(feature = "telemetry")]
    let tel_on = absort_telemetry::enabled();

    // Compiled once per network; each mutant below is expressed as an
    // in-place tape patch instead of a full per-mutant lowering (the
    // dominant cost of compiled campaigns at small `n`).
    let mut base_cc = match cfg.engine {
        Engine::Compiled => Some(hardened.circuit.compile_with(&cfg.opt)),
        Engine::Interp => None,
    };

    // --- component-granularity faults via netlist rewriting -------------
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
        for (ci, mutant) in mutate::mutants(&circuit, fault) {
            // Rewritten mutants must stay structurally sound before they
            // are trusted with an evaluation sweep.
            mutant
                .validate()
                .unwrap_or_else(|e| panic!("mutant failed validation: {e}"));
            let hci = hardened.component(ci);
            #[cfg(feature = "telemetry")]
            let t0 = tel_on.then(std::time::Instant::now);
            let v = match &mut base_cc {
                Some(cc) => match cc.mutant_tape(hci, fault) {
                    // Wide walks amortize per-mutant setup further: one
                    // tape pass covers 256 vectors.
                    MutantTape::Patched(patched) => {
                        let mut ev: CompiledEvaluator<'_, [u64; 4]> =
                            CompiledEvaluator::new(&patched);
                        score_variant_wide(
                            &w,
                            n_eval,
                            rail,
                            |p, o| ev.run_into(p, o),
                            &mut cell.degradation,
                        )
                    }
                    // Dead site: the mutant cannot differ from the base
                    // circuit, which matches the oracle on valid inputs
                    // (and a quiet rail — the checker taps only inputs
                    // and data outputs, so dead stays dead).
                    MutantTape::Dead => CLEAN,
                    MutantTape::Unsupported => {
                        let hm = hardened_mutant(&hardened, hci, fault);
                        let cc = hm.compile_with(&cfg.opt);
                        let mut ev: CompiledEvaluator<'_, [u64; 4]> = CompiledEvaluator::new(&cc);
                        score_variant_wide(
                            &w,
                            n_eval,
                            rail,
                            |p, o| ev.run_into(p, o),
                            &mut cell.degradation,
                        )
                    }
                },
                None => {
                    let hm = hardened_mutant(&hardened, hci, fault);
                    let mut ev: Evaluator<'_, u64> = Evaluator::new(&hm);
                    score_variant(
                        &w,
                        n_eval,
                        rail,
                        |p, o| ev.run_into(p, o),
                        &mut cell.degradation,
                    )
                }
            };
            #[cfg(feature = "telemetry")]
            if let Some(t0) = t0 {
                score_hist.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
            tally(&mut cell, v);
        }
        kinds.push(cell);
    }

    // --- wire-granularity permanent faults via the faulty evaluator -----
    let sites = permanent_fault_sites(&circuit, &w.vectors);
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
            #[cfg(feature = "telemetry")]
            let t0 = tel_on.then(std::time::Instant::now);
            let hf = hardened.fault(site);
            let mut ev: FaultyEvaluator<'_, [u64; 4]> =
                FaultyEvaluator::new(&hardened.circuit, &[hf]);
            let v = score_variant_wide(
                &w,
                n_eval,
                rail,
                |p, o| ev.run_into(p, o),
                &mut cell.degradation,
            );
            #[cfg(feature = "telemetry")]
            if let Some(t0) = t0 {
                score_hist.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
            tally(&mut cell, v);
        }
        kinds.push(cell);
    }

    // --- transient upsets: sampled (wire, vector) pairs -----------------
    let mut cell = KindReport {
        kind: Some(FaultKind::TransientFlip),
        ..Default::default()
    };
    let cone = observable_wires(&circuit);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7f1b);
    for _ in 0..cfg.transient_samples {
        let wire = cone[rng.gen_range(0..cone.len())];
        let vector = rng.gen_range(0..w.vectors.len()) as u64;
        #[cfg(feature = "telemetry")]
        let t0 = tel_on.then(std::time::Instant::now);
        let fault = hardened.fault(WireFault::TransientFlip { wire, vector });
        // The faulty evaluator counts `V::LANES` vectors per pass, so the
        // wide walk keeps transient lane targeting exact as long as the
        // wide chunks are fed in workload order.
        let mut ev: FaultyEvaluator<'_, [u64; 4]> =
            FaultyEvaluator::new(&hardened.circuit, &[fault]);
        let v = score_variant_wide(
            &w,
            n_eval,
            rail,
            |p, o| ev.run_into(p, o),
            &mut cell.degradation,
        );
        #[cfg(feature = "telemetry")]
        if let Some(t0) = t0 {
            score_hist.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        tally(&mut cell, v);
    }
    kinds.push(cell);

    #[cfg(feature = "telemetry")]
    {
        let injected: u64 = kinds.iter().map(|k| k.injected).sum();
        let detected: u64 = kinds.iter().map(|k| k.detected).sum();
        absort_telemetry::counter_add_many(&[
            ("faults.sites", injected),
            ("faults.detected", detected),
            (
                "faults.vectors_evaluated",
                injected * w.vectors.len() as u64,
            ),
        ]);
        absort_telemetry::hist_merge("faults.mutant_score_ns", &score_hist);
    }

    NetworkReport {
        network: sel.name().to_owned(),
        n: cfg.n,
        components: circuit.n_components() as u64,
        base_cost: circuit.cost().total,
        hardened_cost: hardened.circuit.cost().total,
        tier: w.tier.to_owned(),
        vectors: w.vectors.len() as u64,
        fault_set_size: 1,
        kinds,
    }
}

/// Rewrites one component fault into the hardened netlist, for engines
/// and sites the tape patcher cannot express. Applicability is a
/// function of the component's variant alone, and the wrapper embeds the
/// base components unchanged, so the rewrite must succeed whenever the
/// base-circuit enumeration produced the site.
fn hardened_mutant(hardened: &HardenedSorter, hci: usize, fault: Fault) -> Circuit {
    mutate::apply(&hardened.circuit, hci, fault)
        .expect("base-applicable fault must stay applicable in the hardened netlist")
}

/// One element of the multi-fault sampling pool, identified on the
/// *base* circuit: a component rewrite or a wire-granularity permanent
/// fault. Transients are excluded — a k-set models simultaneous
/// *permanent* damage.
#[derive(Debug, Clone, Copy)]
enum Atom {
    Comp(usize, Fault),
    Wire(WireFault),
}

/// The physical site an atom occupies; sampled sets keep sites distinct
/// so `k` faults are `k` separate defects (and so sequential rewrite
/// composition never stacks two rewrites on one component, where
/// apply-order would start to matter).
fn atom_site(a: Atom) -> (u8, usize, usize) {
    match a {
        Atom::Comp(ci, _) => (0, ci, 0),
        Atom::Wire(WireFault::StuckAt { wire, .. }) => (1, wire.index(), 0),
        Atom::Wire(WireFault::BridgeOr { a, b }) => (2, a.index(), b.index()),
        Atom::Wire(WireFault::TransientFlip { .. }) => {
            unreachable!("transients are not pooled into multi-fault sets")
        }
    }
}

/// Every permanent fault the single-fault sweep would inject, as a flat
/// sampling pool.
fn atom_pool(circuit: &Circuit, w: &Workload) -> Vec<Atom> {
    let mut pool = Vec::new();
    for fault in Fault::ALL {
        for ci in mutate::applicable(circuit, fault) {
            pool.push(Atom::Comp(ci, fault));
        }
    }
    for site in permanent_fault_sites(circuit, &w.vectors) {
        pool.push(Atom::Wire(site));
    }
    pool
}

/// FNV-1a, used to give every `(network, k)` unit an independent,
/// order-insensitive sampling stream derived from the campaign seed.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Sweeps sampled simultaneous `k`-fault sets (`k ≥ 2`) over one
/// network: `samples` sets of `k` distinct permanent fault sites, kinds
/// mixed freely, scored exactly like the single-fault sweep (offline
/// zero-one detection, concurrent rail, degradation) and reported as one
/// mixed-kind cell with `fault_set_size = k`.
///
/// The sampling stream depends only on `(cfg.seed, network, k)` — not on
/// which other units ran or in what order — so checkpoint-resumed
/// campaigns reproduce uninterrupted ones bit-for-bit.
pub fn run_network_sets(
    sel: NetworkSel,
    cfg: &CampaignConfig,
    k: usize,
    samples: usize,
) -> NetworkReport {
    assert!(
        k >= 2,
        "run_network_sets needs k ≥ 2; use run_network for singles"
    );
    #[cfg(feature = "telemetry")]
    let _span = absort_telemetry::span(&format!("faults/{}/k{}", sel.name(), k));
    let circuit = build_network(sel, cfg.n);
    circuit
        .validate()
        .unwrap_or_else(|e| panic!("{} netlist failed validation: {e}", sel.name()));
    let hardened = harden(&circuit, &cfg.harden);
    let n_eval = hardened.circuit.n_outputs();
    let rail = hardened.rail_index();
    let w = workload(sel, cfg);
    let pool = atom_pool(&circuit, &w);
    {
        let mut sites: Vec<_> = pool.iter().map(|&a| atom_site(a)).collect();
        sites.sort_unstable();
        sites.dedup();
        assert!(
            sites.len() >= k,
            "{} at n={} has only {} distinct fault sites, cannot draw {k}-sets",
            sel.name(),
            cfg.n,
            sites.len()
        );
    }

    let mut base_cc = match cfg.engine {
        Engine::Compiled => Some(hardened.circuit.compile_with(&cfg.opt)),
        Engine::Interp => None,
    };

    let mut cell = KindReport::default(); // kind: None → "mixed"
    #[cfg(feature = "telemetry")]
    let mut score_hist = absort_telemetry::Histogram::new();
    #[cfg(feature = "telemetry")]
    let tel_on = absort_telemetry::enabled();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ fnv1a(sel.name()) ^ ((k as u64) << 32) ^ 0x5e75);
    for _ in 0..samples {
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        while chosen.len() < k {
            let i = rng.gen_range(0..pool.len());
            if chosen
                .iter()
                .any(|&j| atom_site(pool[j]) == atom_site(pool[i]))
            {
                continue;
            }
            chosen.push(i);
        }
        let mut patches: Vec<(usize, Fault)> = Vec::new();
        let mut wires: Vec<WireFault> = Vec::new();
        for &i in &chosen {
            match pool[i] {
                Atom::Comp(ci, f) => patches.push((hardened.component(ci), f)),
                Atom::Wire(site) => wires.push(hardened.fault(site)),
            }
        }
        #[cfg(feature = "telemetry")]
        let t0 = tel_on.then(std::time::Instant::now);
        let v = score_set(
            &w,
            n_eval,
            rail,
            &hardened,
            &mut base_cc,
            &cfg.opt,
            &patches,
            &wires,
            &mut cell.degradation,
        );
        #[cfg(feature = "telemetry")]
        if let Some(t0) = t0 {
            score_hist.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        tally(&mut cell, v);
    }

    #[cfg(feature = "telemetry")]
    {
        absort_telemetry::counter_add("faults.multi.sets", samples as u64);
        absort_telemetry::hist_merge("faults.mutant_score_ns", &score_hist);
    }

    NetworkReport {
        network: sel.name().to_owned(),
        n: cfg.n,
        components: circuit.n_components() as u64,
        base_cost: circuit.cost().total,
        hardened_cost: hardened.circuit.cost().total,
        tier: w.tier.to_owned(),
        vectors: w.vectors.len() as u64,
        fault_set_size: k as u64,
        kinds: vec![cell],
    }
}

/// Scores one sampled fault set. All-component sets ride the compiled
/// multi-patch tape when the compiled engine is selected; any set with a
/// wire-granularity member falls back to netlist rewriting for its
/// component members plus the interpreting [`FaultyEvaluator`] for its
/// wire members (the same split as the single-fault sweep).
#[allow(clippy::too_many_arguments)]
fn score_set(
    w: &Workload,
    n_eval: usize,
    rail: usize,
    hardened: &HardenedSorter,
    base_cc: &mut Option<CompiledCircuit>,
    opt: &CompileOptions,
    patches: &[(usize, Fault)],
    wires: &[WireFault],
    degradation: &mut Degradation,
) -> Verdict {
    if wires.is_empty() {
        if let Some(cc) = base_cc {
            return match cc.mutant_tape_multi(patches) {
                MultiMutantTape::Patched(patched) => {
                    let mut ev: CompiledEvaluator<'_, [u64; 4]> = CompiledEvaluator::new(&patched);
                    score_variant_wide(w, n_eval, rail, |p, o| ev.run_into(p, o), degradation)
                }
                MultiMutantTape::Dead => CLEAN,
                MultiMutantTape::Unsupported => {
                    let m = mutate::apply_set(&hardened.circuit, patches)
                        .expect("sampled distinct-site set must stay applicable");
                    let cc = m.compile_with(opt);
                    let mut ev: CompiledEvaluator<'_, [u64; 4]> = CompiledEvaluator::new(&cc);
                    score_variant_wide(w, n_eval, rail, |p, o| ev.run_into(p, o), degradation)
                }
            };
        }
    }
    let rewritten;
    let target: &Circuit = if patches.is_empty() {
        &hardened.circuit
    } else {
        rewritten = mutate::apply_set(&hardened.circuit, patches)
            .expect("sampled distinct-site set must stay applicable");
        &rewritten
    };
    let mut ev: FaultyEvaluator<'_, [u64; 4]> = FaultyEvaluator::new(target, wires);
    score_variant_wide(w, n_eval, rail, |p, o| ev.run_into(p, o), degradation)
}

/// One schedulable campaign unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    /// A combinational sweep: `(network, fault-set size)`.
    Comb(NetworkSel, usize),
    /// The clocked fish-streamer unit.
    Clocked,
    /// A clocked multi-fault-set unit at the given set size (`≥ 2`).
    ClockedSets(usize),
}

/// The `(network, fault_set_size)` key a unit's report carries — the
/// identity checkpoints use to tell finished units from pending ones.
fn unit_key(u: Unit) -> (&'static str, u64) {
    match u {
        Unit::Comb(sel, k) => (sel.name(), k as u64),
        Unit::Clocked => (crate::clocked_faults::CLOCKED_NETWORK, 1),
        Unit::ClockedSets(k) => (crate::clocked_faults::CLOCKED_NETWORK, k as u64),
    }
}

/// Everything that shapes a campaign's numbers, flattened into one
/// string. A checkpoint whose fingerprint differs is ignored — resuming
/// across a parameter change would silently mix incompatible results.
fn fingerprint(networks: &[NetworkSel], cfg: &CampaignConfig, opts: &CampaignOptions) -> String {
    let nets: Vec<&str> = networks.iter().map(|s| s.name()).collect();
    // Hardening changes what circuit is swept (and the cost columns);
    // the pass set provably does not change any report cell, but it is
    // fingerprinted anyway so a resumed campaign replays the exact
    // configuration of the run that wrote the checkpoint.
    let harden = [
        ("mono", cfg.harden.monotonicity),
        ("cons", cfg.harden.conservation),
        ("dup", cfg.harden.duplicate),
        ("ctl", cfg.harden.control),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(name, _)| *name)
    .collect::<Vec<_>>()
    .join("+");
    format!(
        "absort-faults/v3|n={}|seed={:#x}|max_exhaustive={}|transients={}|engine={}|opt={}|harden={}|multi={}|sets={}|clocked={}|tenants={}|nets={}",
        cfg.n,
        cfg.seed,
        cfg.max_exhaustive,
        cfg.transient_samples,
        cfg.engine.name(),
        cfg.opt.passes.fingerprint(),
        harden,
        opts.multi,
        opts.sets_per_k,
        opts.clocked,
        opts.tenants.max(1),
        nets.join("+"),
    )
}

/// Writes the campaign-so-far to `path` (temp-file-then-rename, so a
/// kill mid-write leaves the previous checkpoint intact).
fn write_checkpoint(path: &Path, fp: &str, seed: u64, done: &[NetworkReport]) {
    let v = json::Value::obj([
        (
            "schema",
            json::Value::Str("absort-faults/checkpoint/v1".to_owned()),
        ),
        ("fingerprint", json::Value::Str(fp.to_owned())),
        ("seed", json::Value::Int(seed as i64)),
        (
            "networks",
            json::Value::Arr(done.iter().map(NetworkReport::to_json).collect()),
        ),
    ]);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = fs::create_dir_all(dir);
        }
    }
    let tmp = path.with_extension("tmp");
    if fs::write(&tmp, v.to_pretty()).is_ok() {
        let _ = fs::rename(&tmp, path);
    }
}

/// Loads a checkpoint's completed units, or nothing when the file is
/// absent, unparsable, or fingerprinted for a different campaign.
fn load_checkpoint(path: &Path, fp: &str) -> Vec<NetworkReport> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(v) = json::parse(&text) else {
        return Vec::new();
    };
    if v.get("schema").and_then(json::Value::as_str) != Some("absort-faults/checkpoint/v1")
        || v.get("fingerprint").and_then(json::Value::as_str) != Some(fp)
    {
        return Vec::new();
    }
    v.get("networks")
        .and_then(json::Value::as_arr)
        .map(|arr| arr.iter().filter_map(NetworkReport::from_json).collect())
        .unwrap_or_default()
}

/// Runs the campaign over the given targets with default options: the
/// classic single-fault sweep per network, no clocked unit, no
/// checkpointing.
pub fn run_campaign(networks: &[NetworkSel], cfg: &CampaignConfig) -> CampaignReport {
    run_campaign_with(networks, cfg, &CampaignOptions::default())
}

/// Runs the full campaign: one unit per `(network, k ∈ 1..=multi)` pair
/// in network-major order, plus the clocked streamer unit last when
/// requested.
///
/// Units are independent and deterministic given `(cfg, unit)`, which is
/// what makes the checkpoint protocol sound: after every completed unit
/// the report-so-far is written to `opts.checkpoint`; a later run with
/// `opts.resume` skips the units the checkpoint covers and computes the
/// rest, producing a final report identical to an uninterrupted run.
/// When `opts.timeout` expires the campaign stops between units — always
/// after at least one freshly computed unit per invocation, so resuming
/// repeatedly terminates — and marks the report `truncated`.
pub fn run_campaign_with(
    networks: &[NetworkSel],
    cfg: &CampaignConfig,
    opts: &CampaignOptions,
) -> CampaignReport {
    #[cfg(feature = "telemetry")]
    let _span = absort_telemetry::span("faults");
    let fp = fingerprint(networks, cfg, opts);
    let mut units: Vec<Unit> = Vec::new();
    for &sel in networks {
        for k in 1..=opts.multi.max(1) {
            units.push(Unit::Comb(sel, k));
        }
    }
    if opts.clocked {
        units.push(Unit::Clocked);
        for k in 2..=opts.multi {
            units.push(Unit::ClockedSets(k));
        }
    }

    let mut done: Vec<NetworkReport> = Vec::new();
    if opts.resume {
        if let Some(path) = &opts.checkpoint {
            let keys: Vec<_> = units.iter().map(|&u| unit_key(u)).collect();
            done = load_checkpoint(path, &fp)
                .into_iter()
                .filter(|r| keys.contains(&(r.network.as_str(), r.fault_set_size)))
                .collect();
        }
    }

    let deadline = opts.timeout.map(|t| Instant::now() + t);
    let mut truncated = false;
    let mut fresh = 0usize;
    for &u in &units {
        let key = unit_key(u);
        if done
            .iter()
            .any(|r| (r.network.as_str(), r.fault_set_size) == key)
        {
            continue;
        }
        if fresh > 0 {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    truncated = true;
                    break;
                }
            }
        }
        let rep = match u {
            Unit::Comb(sel, 1) => run_network(sel, cfg),
            Unit::Comb(sel, k) => run_network_sets(sel, cfg, k, opts.sets_per_k),
            Unit::Clocked => crate::clocked_faults::run_clocked_fish_with(cfg, opts.tenants.max(1)),
            Unit::ClockedSets(k) => crate::clocked_faults::run_clocked_fish_sets(
                cfg,
                k,
                opts.sets_per_k,
                opts.tenants.max(1),
            ),
        };
        done.push(rep);
        fresh += 1;
        if let Some(path) = &opts.checkpoint {
            write_checkpoint(path, &fp, cfg.seed, &done);
            #[cfg(feature = "telemetry")]
            absort_telemetry::counter_add("faults.checkpoint.writes", 1);
        }
    }

    // Emit in unit order regardless of the (resume-dependent) order the
    // reports were computed in, so resumed and uninterrupted runs
    // serialize identically.
    let mut ordered: Vec<NetworkReport> = Vec::with_capacity(done.len());
    for &u in &units {
        let key = unit_key(u);
        if let Some(pos) = done
            .iter()
            .position(|r| (r.network.as_str(), r.fault_set_size) == key)
        {
            ordered.push(done.remove(pos));
        }
    }
    CampaignReport {
        seed: cfg.seed,
        truncated,
        networks: ordered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fish_k_respects_builder_bound() {
        assert_eq!(fish_k(8), 2);
        assert_eq!(fish_k(16), 4);
        assert_eq!(fish_k(32), 4);
        for n in [4, 8, 16, 32, 64] {
            let k = fish_k(n);
            assert!(k >= 2 && k <= n / k, "n={n} k={k}");
        }
    }

    #[test]
    fn network_parse_roundtrips() {
        for sel in NetworkSel::ALL {
            assert_eq!(NetworkSel::parse(sel.name()), Some(sel));
        }
        assert_eq!(NetworkSel::parse("mux-merger"), Some(NetworkSel::MuxMerger));
        assert_eq!(NetworkSel::parse("nope"), None);
    }

    /// The closed-form count and index decode reproduce the enumerated
    /// input space exactly, so both tiers keep their vectors.
    #[test]
    fn index_decode_matches_enumeration() {
        for n in [4, 8, 16] {
            let fish = lang::all_k_sorted(n, fish_k(n));
            let all: Vec<Vec<bool>> = lang::all_sequences(n).collect();
            for (sel, space) in [(NetworkSel::Prefix, all), (NetworkSel::Fish, fish)] {
                assert_eq!(max_input_index(sel, n), Some(space.len() as u64 - 1));
                for (i, v) in space.iter().enumerate() {
                    assert_eq!(&nth_input(sel, n, i as u64), v, "{} n={n} #{i}", sel.name());
                }
            }
        }
    }

    /// At n = 32 the 2^32-vector space is sampled, never materialised
    /// (on the interpreter: debug builds re-verify every compile).
    #[test]
    fn prefix_campaign_at_n32_is_sampled() {
        let cfg = CampaignConfig {
            n: 32,
            max_exhaustive: 64,
            transient_samples: 4,
            engine: Engine::Interp,
            ..Default::default()
        };
        assert_eq!(run_network(NetworkSel::Prefix, &cfg).tier, "sampled");
    }

    /// Spaces past `u64` indices draw bit by bit or block by block.
    #[test]
    fn spaces_past_u64_sample_valid_vectors() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(max_input_index(NetworkSel::Prefix, 128), None);
        assert_eq!(sample_input(NetworkSel::Prefix, 128, &mut rng).len(), 128);
        assert_eq!(max_input_index(NetworkSel::Fish, 256), None);
        let v = sample_input(NetworkSel::Fish, 256, &mut rng);
        assert!(v.len() == 256 && v.chunks(256 / fish_k(256)).all(lang::is_sorted));
    }

    #[test]
    fn all_permanent_faults_detected_at_n4() {
        // The full acceptance-criteria run at n=8 lives in tests/faults.rs;
        // this in-crate smoke keeps the invariant cheap to check.
        let cfg = CampaignConfig {
            n: 4,
            ..Default::default()
        };
        for sel in NetworkSel::ALL {
            let report = run_network(sel, &cfg);
            assert_eq!(report.tier, "exhaustive");
            assert_eq!(report.fault_set_size, 1);
            assert_eq!(
                report.permanent_detection_rate(),
                1.0,
                "network {} leaked a permanent fault",
                report.network
            );
            let injected: u64 = report.kinds.iter().map(|k| k.injected).sum();
            assert!(injected > 0, "network {} swept no sites", report.network);
        }
    }

    #[test]
    fn rail_matches_offline_checker_for_rewrite_kinds() {
        // Netlist-rewrite faults hit embedded core components, never a
        // primary input pin, so the hardware rail and the offline
        // zero-one oracle must agree site-for-site: the rail computes
        // exactly the oracle's two conditions, on the same (untouched)
        // inputs.
        let cfg = CampaignConfig {
            n: 4,
            ..Default::default()
        };
        for sel in NetworkSel::ALL {
            let report = run_network(sel, &cfg);
            for cell in report.kinds.iter().filter(|c| {
                matches!(
                    c.kind,
                    Some(FaultKind::InvertBehaviour)
                        | Some(FaultKind::StuckSelectLow)
                        | Some(FaultKind::StuckSelectHigh)
                )
            }) {
                assert_eq!(
                    cell.flagged, cell.detected,
                    "{} {:?}: rail and offline checker disagree",
                    report.network, cell.kind
                );
            }
            // Pooled over permanent kinds the rail can only trail the
            // oracle (input-pin stuck-ats are invisible by principle).
            assert!(report.concurrent_detection_rate() <= report.permanent_detection_rate());
        }
    }

    #[test]
    fn multi_fault_sets_sample_and_score() {
        let cfg = CampaignConfig {
            n: 4,
            ..Default::default()
        };
        let report = run_network_sets(NetworkSel::Prefix, &cfg, 2, 24);
        assert_eq!(report.fault_set_size, 2);
        assert_eq!(report.kinds.len(), 1);
        let cell = &report.kinds[0];
        assert_eq!(cell.kind, None);
        assert_eq!(cell.injected, 24);
        assert!(cell.detected + cell.masked <= cell.injected);
        assert!(
            cell.detected > 0,
            "two simultaneous faults should disorder something"
        );
        // Determinism: the sampling stream depends only on (seed, network, k).
        let again = run_network_sets(NetworkSel::Prefix, &cfg, 2, 24);
        assert_eq!(again.to_json().to_pretty(), report.to_json().to_pretty());
    }

    #[test]
    fn multi_fault_engines_agree() {
        for engine in Engine::ALL {
            let cfg = CampaignConfig {
                n: 4,
                engine,
                ..Default::default()
            };
            let r = run_network_sets(NetworkSel::MuxMerger, &cfg, 2, 16);
            let cell = &r.kinds[0];
            assert_eq!(cell.injected, 16, "{}", engine.name());
        }
        let interp = run_network_sets(
            NetworkSel::MuxMerger,
            &CampaignConfig {
                n: 4,
                engine: Engine::Interp,
                ..Default::default()
            },
            2,
            16,
        );
        let compiled = run_network_sets(
            NetworkSel::MuxMerger,
            &CampaignConfig {
                n: 4,
                engine: Engine::Compiled,
                ..Default::default()
            },
            2,
            16,
        );
        assert_eq!(
            interp.to_json().to_pretty(),
            compiled.to_json().to_pretty(),
            "multi-fault engines diverged"
        );
    }

    #[test]
    fn engines_agree_on_campaign_tallies() {
        // The engine selector must not change a single report cell: same
        // injected/detected/masked/flagged counts and the same
        // degradation extremes under both engines.
        for sel in [NetworkSel::Prefix, NetworkSel::Fish] {
            let mut reports = Engine::ALL.iter().map(|&engine| {
                let cfg = CampaignConfig {
                    n: 4,
                    engine,
                    ..Default::default()
                };
                run_network(sel, &cfg)
            });
            let interp = reports.next().unwrap();
            let compiled = reports.next().unwrap();
            assert_eq!(interp.kinds.len(), compiled.kinds.len());
            for (a, b) in interp.kinds.iter().zip(&compiled.kinds) {
                assert_eq!(a.kind, b.kind);
                assert_eq!(a.injected, b.injected, "{:?}", a.kind);
                assert_eq!(a.detected, b.detected, "{:?}", a.kind);
                assert_eq!(a.masked, b.masked, "{:?}", a.kind);
                assert_eq!(a.flagged, b.flagged, "{:?}", a.kind);
                assert_eq!(
                    a.degradation.max_inversions, b.degradation.max_inversions,
                    "{:?}",
                    a.kind
                );
                assert_eq!(
                    a.degradation.max_displacement, b.degradation.max_displacement,
                    "{:?}",
                    a.kind
                );
            }
        }
    }

    #[test]
    fn degradation_is_nonzero_for_detected_faults() {
        let cfg = CampaignConfig {
            n: 4,
            ..Default::default()
        };
        let report = run_network(NetworkSel::Prefix, &cfg);
        let worst = report
            .kinds
            .iter()
            .map(|k| k.degradation.max_inversions)
            .max()
            .unwrap();
        assert!(worst > 0, "some fault must disorder some output");
    }

    #[test]
    fn default_options_match_plain_campaign() {
        let cfg = CampaignConfig {
            n: 4,
            ..Default::default()
        };
        let nets = [NetworkSel::Prefix];
        let a = run_campaign(&nets, &cfg);
        let b = run_campaign_with(&nets, &cfg, &CampaignOptions::default());
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
        assert!(!a.truncated);
    }
}
