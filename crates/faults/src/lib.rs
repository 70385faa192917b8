//! # absort-faults — fault taxonomy, degradation metrics, report types
//!
//! The paper's cost/depth/time claims (Chien & Oruç, Table I) assume
//! every 2×2 switch and comparator behaves. This crate holds the shared
//! vocabulary for asking what happens when one doesn't: a [`FaultKind`]
//! taxonomy covering both netlist-rewriting faults and evaluation-time
//! wire faults, *graceful degradation* metrics on faulty 0/1 outputs
//! ([`inversions`], [`max_displacement`], [`Degradation`]), and the
//! campaign report structures ([`KindReport`], [`NetworkReport`],
//! [`CampaignReport`]) that `absort-analysis` fills in and the `absort`
//! CLI writes to `results/faults/` as JSON.
//!
//! The crate deliberately knows nothing about circuits — it depends only
//! on `absort-telemetry` for JSON — so both the circuit layer and the
//! analysis layer can use it without a dependency cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use absort_telemetry::json;

use absort_telemetry::json::Value;

/// The fault taxonomy a campaign sweeps, spanning both injection
/// mechanisms: netlist rewrites (component granularity, from
/// `absort-circuit::mutate`) and evaluation-time wire faults (from
/// `absort-circuit::faulty`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Component behaviour inverted (comparator steered by the wrong
    /// line, gate complemented, mux arms exchanged).
    InvertBehaviour,
    /// Component select/control line tied to constant 0.
    StuckSelectLow,
    /// Component select/control line tied to constant 1.
    StuckSelectHigh,
    /// A wire shorted to ground: reads as 0 no matter what drives it.
    StuckAt0,
    /// A wire shorted to power: reads as 1 no matter what drives it.
    StuckAt1,
    /// Two sibling outputs shorted into a wired-OR.
    BridgeOr,
    /// A single-event upset: one wire inverted on one evaluation only.
    TransientFlip,
}

impl FaultKind {
    /// Every kind, in campaign-sweep order. The first six are permanent;
    /// [`FaultKind::TransientFlip`] is the only transient kind.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::InvertBehaviour,
        FaultKind::StuckSelectLow,
        FaultKind::StuckSelectHigh,
        FaultKind::StuckAt0,
        FaultKind::StuckAt1,
        FaultKind::BridgeOr,
        FaultKind::TransientFlip,
    ];

    /// Stable snake_case name used in report keys and telemetry paths.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::InvertBehaviour => "invert",
            FaultKind::StuckSelectLow => "stuck_select_low",
            FaultKind::StuckSelectHigh => "stuck_select_high",
            FaultKind::StuckAt0 => "stuck_at_0",
            FaultKind::StuckAt1 => "stuck_at_1",
            FaultKind::BridgeOr => "bridge_or",
            FaultKind::TransientFlip => "transient_flip",
        }
    }

    /// True for faults that persist across evaluations (everything except
    /// the transient upset). The 100%-detection acceptance bar applies to
    /// these: a permanent fault that no exhaustive check can see is a
    /// vacuous fault site, and the enumerators exclude those up front.
    pub fn is_permanent(self) -> bool {
        !matches!(self, FaultKind::TransientFlip)
    }

    /// Inverse of [`FaultKind::name`], used when loading reports back
    /// from JSON (checkpoint resume).
    pub fn from_name(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.name() == s)
    }
}

// ---------------------------------------------------------------------------
// Degradation metrics
// ---------------------------------------------------------------------------

/// Kendall-tau distance of a 0/1 sequence from sorted order: the number
/// of inverted pairs, i.e. (one, zero) pairs where the one precedes the
/// zero. Zero iff the sequence is ascending-sorted.
pub fn inversions(out: &[bool]) -> u64 {
    let mut ones_seen = 0u64;
    let mut inv = 0u64;
    for &b in out {
        if b {
            ones_seen += 1;
        } else {
            inv += ones_seen;
        }
    }
    inv
}

/// Maximum displacement of any element from its position in the sorted
/// rearrangement, under the canonical matching (k-th zero of the output
/// to the k-th zero slot, k-th one to the k-th one slot — the matching
/// that minimises the maximum). Zero iff the sequence is sorted.
pub fn max_displacement(out: &[bool]) -> u64 {
    let n = out.len();
    let zeros = out.iter().filter(|&&b| !b).count();
    let mut zi = 0usize; // next sorted slot for a zero: 0..zeros
    let mut oi = zeros; // next sorted slot for a one: zeros..n
    let mut worst = 0u64;
    for (pos, &b) in out.iter().enumerate() {
        let target = if b {
            let t = oi;
            oi += 1;
            t
        } else {
            let t = zi;
            zi += 1;
            t
        };
        worst = worst.max(pos.abs_diff(target) as u64);
    }
    debug_assert_eq!(zi, zeros);
    debug_assert_eq!(oi, n);
    worst
}

/// Worst-case degradation observed across a set of faulty outputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Worst Kendall-tau inversion count of any faulty output.
    pub max_inversions: u64,
    /// Worst element displacement of any faulty output.
    pub max_displacement: u64,
    /// Number of outputs whose popcount differed from the input's — the
    /// fault destroyed or created tokens rather than mis-routing them.
    pub conservation_violations: u64,
    /// Number of (fault, vector) evaluations the *concurrent* error rail
    /// of a self-checking wrapper flagged in hardware (zero when the
    /// swept circuit carries no rail).
    pub flagged: u64,
}

impl Degradation {
    /// Folds one faulty output into the running worst case. `input_ones`
    /// is the popcount of the vector that produced `out`.
    pub fn observe(&mut self, out: &[bool], input_ones: usize) {
        self.max_inversions = self.max_inversions.max(inversions(out));
        self.max_displacement = self.max_displacement.max(max_displacement(out));
        if out.iter().filter(|&&b| b).count() != input_ones {
            self.conservation_violations += 1;
        }
    }

    /// Bit-sliced [`Degradation::observe`] over 64 lanes at once.
    ///
    /// `outputs[i]` holds output `i` of every lane (bit `l` is lane `l`);
    /// `ones` holds each lane's input popcount as bit planes, least
    /// significant first, as [`popcount_planes`] packs them. Every lane in
    /// `lanes` that is unsorted or does not conserve its input's popcount
    /// is folded in as `observe` folds it; the returned mask names those
    /// lanes, and the rest of `lanes` (sorted and conserving, which
    /// `observe` would leave untouched) are not. Max and sum do not depend
    /// on order, so the result equals a lane-by-lane fold.
    ///
    /// One forward scan over the outputs keeps bit-sliced counters of the
    /// ones seen so far (which end as the output popcount), that count at
    /// the last zero, the zeros seen after the first one, and the
    /// inversions (the ones seen, added at every zero). A lane is unsorted
    /// iff some zero follows a one. Its displacement under
    /// [`max_displacement`]'s canonical matching is the larger of "ones
    /// before the last zero" and "zeros after the first one": a zero moves
    /// left by the ones before it and a one moves right by the zeros after
    /// it, and both counts are monotone. Per-lane values are read out of
    /// the planes only as the maximum over the detected lanes.
    pub fn observe_lanes(&mut self, outputs: &[u64], ones: &[u64], lanes: u64) -> u64 {
        let n = outputs.len();
        let cp = bit_len(n as u64);
        assert_eq!(ones.len(), cp, "popcount planes for {n} outputs");
        assert!(n <= u32::MAX as usize, "{n} outputs overflow the counters");
        let ip = bit_len((n as u64 * n as u64) / 4);
        let mut seen = [0u64; 32];
        let mut at_last_zero = [0u64; 32];
        let mut after_first_one = [0u64; 32];
        let mut inv = [0u64; 64];
        let (seen, at_last_zero) = (&mut seen[..cp], &mut at_last_zero[..cp]);
        let (after_first_one, inv) = (&mut after_first_one[..cp], &mut inv[..ip]);
        let mut any_one = 0u64;
        let mut unsorted = 0u64;
        for &x in outputs {
            let zero = !x;
            let late_zero = zero & any_one;
            unsorted |= late_zero;
            add_bit(after_first_one, late_zero);
            add_planes(inv, seen.iter().map(|&s| s & zero));
            for (z, &s) in at_last_zero.iter_mut().zip(seen.iter()) {
                *z ^= (*z ^ s) & zero;
            }
            add_bit(seen, x);
            any_one |= x;
        }
        let unconserved = seen
            .iter()
            .zip(ones)
            .fold(0u64, |acc, (&s, &o)| acc | (s ^ o));
        let detected = (unsorted | unconserved) & lanes;
        if detected != 0 {
            self.max_inversions = self.max_inversions.max(lane_max(inv, detected));
            let disp = lane_max(at_last_zero, detected).max(lane_max(after_first_one, detected));
            self.max_displacement = self.max_displacement.max(disp);
            self.conservation_violations += u64::from((unconserved & detected).count_ones());
        }
        detected
    }

    /// Merges another worst case into this one.
    pub fn merge(&mut self, other: &Degradation) {
        self.max_inversions = self.max_inversions.max(other.max_inversions);
        self.max_displacement = self.max_displacement.max(other.max_displacement);
        self.conservation_violations += other.conservation_violations;
        self.flagged += other.flagged;
    }

    /// Serializes this record as a JSON object.
    pub fn to_json(self) -> Value {
        Value::obj([
            ("max_inversions", Value::Int(self.max_inversions as i64)),
            ("max_displacement", Value::Int(self.max_displacement as i64)),
            (
                "conservation_violations",
                Value::Int(self.conservation_violations as i64),
            ),
            ("flagged", Value::Int(self.flagged as i64)),
        ])
    }

    /// Parses a record serialized by [`Degradation::to_json`]. The
    /// `flagged` field is optional so v1 reports still load.
    pub fn from_json(v: &Value) -> Option<Degradation> {
        Some(Degradation {
            max_inversions: v.get("max_inversions")?.as_i64()? as u64,
            max_displacement: v.get("max_displacement")?.as_i64()? as u64,
            conservation_violations: v.get("conservation_violations")?.as_i64()? as u64,
            flagged: v.get("flagged").and_then(Value::as_i64).unwrap_or(0) as u64,
        })
    }
}

/// Bit-sliced popcount of 64-lane words: plane `j` holds bit `j` of each
/// lane's count of ones across `words`, least significant plane first,
/// with as many planes as the bit length of `words.len()`. This is the
/// `ones` argument of [`Degradation::observe_lanes`] for the input words
/// that produced its outputs.
pub fn popcount_planes(words: &[u64]) -> Vec<u64> {
    let mut planes = vec![0u64; bit_len(words.len() as u64)];
    for &w in words {
        add_bit(&mut planes, w);
    }
    planes
}

/// Bits needed to hold every count up to `x`.
fn bit_len(x: u64) -> usize {
    (u64::BITS - x.leading_zeros()) as usize
}

/// Adds one bit per lane (`carry`) to a bit-sliced counter. The planes are
/// sized so the counter cannot overflow.
fn add_bit(planes: &mut [u64], mut carry: u64) {
    for p in planes {
        if carry == 0 {
            return;
        }
        let next = *p & carry;
        *p ^= carry;
        carry = next;
    }
    debug_assert_eq!(carry, 0, "bit-sliced counter overflowed");
}

/// Adds a bit-sliced addend, least significant plane first, to a
/// bit-sliced accumulator with at least as many planes.
fn add_planes(acc: &mut [u64], addend: impl Iterator<Item = u64>) {
    let mut carry = 0u64;
    let mut used = 0;
    for (a, b) in acc.iter_mut().zip(addend) {
        let half = *a ^ b;
        let next = (*a & b) | (half & carry);
        *a = half ^ carry;
        carry = next;
        used += 1;
    }
    add_bit(&mut acc[used..], carry);
}

/// The largest per-lane value of a bit-sliced counter over the lanes in
/// `lanes` (0 when `lanes` is empty): from the top plane down, keep the
/// lanes that have the bit whenever any of them does.
fn lane_max(planes: &[u64], mut lanes: u64) -> u64 {
    let mut max = 0u64;
    for (j, &p) in planes.iter().enumerate().rev() {
        let high = p & lanes;
        if high != 0 {
            max |= 1 << j;
            lanes = high;
        }
    }
    max
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Detection and degradation totals for one (network, fault kind) cell.
///
/// A site is **masked** when its injection never changed any output over
/// the whole workload — the network *tolerates* the fault (the
/// mutation-testing literature calls these equivalent mutants). Masked
/// sites are excluded from the detection denominator: the detection rate
/// asks whether the checker catches every fault that actually changes
/// behaviour, and the masked count is itself a resilience statistic.
#[derive(Debug, Clone, Default)]
pub struct KindReport {
    /// The fault kind swept. `None` marks a mixed-kind cell (a multi-fault
    /// set drawn across kinds), serialized as `"mixed"`.
    pub kind: Option<FaultKind>,
    /// Fault sites (or fault *sets*, for multi-fault cells) injected.
    pub injected: u64,
    /// Sites whose misbehaviour the zero-one checker observed (some valid
    /// input produced an unsorted or non-conserving output).
    pub detected: u64,
    /// Sites whose injection changed no output on any workload vector.
    pub masked: u64,
    /// Sites the hardware error rail of the self-checking wrapper flagged
    /// on at least one workload vector (concurrent detection).
    pub flagged: u64,
    /// Flagged sites whose rail-triggered replay (reset the machine and
    /// re-run the affected schedule) completed correctly with a quiet
    /// rail — transients the retry policy absorbed. Only clocked
    /// campaigns exercise the replay protocol; combinational cells
    /// report zero.
    pub recovered: u64,
    /// Flagged sites whose replay still raised the rail (or still
    /// produced a wrong stream): the machine stops with an error
    /// indication rather than emitting silent garbage.
    pub fail_stop: u64,
    /// Worst-case degradation across every faulty (site, vector) pair.
    pub degradation: Degradation,
}

impl KindReport {
    /// `detected / (injected − masked)`, or 0.0 for a cell where every
    /// site is masked — a denominator of zero must not surface as NaN in
    /// JSON reports.
    pub fn detection_rate(&self) -> f64 {
        let effective = self.injected - self.masked;
        if effective == 0 {
            0.0
        } else {
            self.detected as f64 / effective as f64
        }
    }

    /// `flagged / (injected − masked)`: the fraction of behaviour-changing
    /// sites the *concurrent* error rail caught in hardware, 0.0 when the
    /// denominator is empty (same NaN guard as
    /// [`KindReport::detection_rate`]).
    pub fn concurrent_detection_rate(&self) -> f64 {
        let effective = self.injected - self.masked;
        if effective == 0 {
            0.0
        } else {
            self.flagged as f64 / effective as f64
        }
    }

    /// Serializes this record as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj([
            (
                "kind",
                Value::Str(self.kind.map_or("mixed", FaultKind::name).to_owned()),
            ),
            ("injected", Value::Int(self.injected as i64)),
            ("detected", Value::Int(self.detected as i64)),
            ("masked", Value::Int(self.masked as i64)),
            ("flagged", Value::Int(self.flagged as i64)),
            ("recovered", Value::Int(self.recovered as i64)),
            ("fail_stop", Value::Int(self.fail_stop as i64)),
            ("detection_rate", Value::Float(self.detection_rate())),
            (
                "concurrent_detection_rate",
                Value::Float(self.concurrent_detection_rate()),
            ),
            ("degradation", self.degradation.to_json()),
        ])
    }

    /// Parses a record serialized by [`KindReport::to_json`]; derived
    /// rates are recomputed, not read back.
    pub fn from_json(v: &Value) -> Option<KindReport> {
        Some(KindReport {
            kind: v.get("kind").and_then(Value::as_str).and_then(|s| {
                // "mixed" (and the legacy "?") deliberately map to None.
                FaultKind::from_name(s)
            }),
            injected: v.get("injected")?.as_i64()? as u64,
            detected: v.get("detected")?.as_i64()? as u64,
            masked: v.get("masked")?.as_i64()? as u64,
            flagged: v.get("flagged").and_then(Value::as_i64).unwrap_or(0) as u64,
            // Recovery columns arrived with schema v3; v2 reports load
            // with both zero.
            recovered: v.get("recovered").and_then(Value::as_i64).unwrap_or(0) as u64,
            fail_stop: v.get("fail_stop").and_then(Value::as_i64).unwrap_or(0) as u64,
            degradation: Degradation::from_json(v.get("degradation")?)?,
        })
    }
}

/// One network's campaign results across all fault kinds.
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// Network name (`"prefix"`, `"muxmerge"`, `"fish"`, `"batcher"`,
    /// `"fish-clocked"`).
    pub network: String,
    /// Input width the campaign built the network at.
    pub n: usize,
    /// Component count of the fault-free circuit.
    pub components: u64,
    /// Cost (paper units) of the bare, unhardened circuit.
    pub base_cost: u64,
    /// Cost (paper units) of the self-checking wrapper actually swept —
    /// the base core plus the enabled checker cones. The difference
    /// `hardened_cost − base_cost` is the hardware price of concurrent
    /// detection, reported next to the coverage it buys.
    pub hardened_cost: u64,
    /// `"exhaustive"` or `"sampled"` — whether the checker enumerated
    /// every valid input or a random subset.
    pub tier: String,
    /// Valid input vectors the checker evaluated per fault site.
    pub vectors: u64,
    /// Simultaneous faults per injection: 1 for the classic single-fault
    /// sweep, k ≥ 2 for sampled k-fault sets.
    pub fault_set_size: u64,
    /// Per-fault-kind cells.
    pub kinds: Vec<KindReport>,
}

impl NetworkReport {
    /// Permanent-fault detection rate across all permanent kinds pooled
    /// (masked sites excluded from the denominator, as in
    /// [`KindReport::detection_rate`]; 0.0 when every permanent site is
    /// masked so JSON never carries NaN).
    pub fn permanent_detection_rate(&self) -> f64 {
        let (mut det, mut eff) = (0u64, 0u64);
        for k in &self.kinds {
            if k.kind.is_none_or(FaultKind::is_permanent) {
                det += k.detected;
                eff += k.injected - k.masked;
            }
        }
        if eff == 0 {
            0.0
        } else {
            det as f64 / eff as f64
        }
    }

    /// Concurrent (error-rail) detection rate across all permanent kinds
    /// pooled, with the same denominator as
    /// [`NetworkReport::permanent_detection_rate`].
    pub fn concurrent_detection_rate(&self) -> f64 {
        let (mut flag, mut eff) = (0u64, 0u64);
        for k in &self.kinds {
            if k.kind.is_none_or(FaultKind::is_permanent) {
                flag += k.flagged;
                eff += k.injected - k.masked;
            }
        }
        if eff == 0 {
            0.0
        } else {
            flag as f64 / eff as f64
        }
    }

    /// Flagged sites whose rail-triggered replay cleared, pooled across
    /// every kind (clocked campaigns only; zero elsewhere).
    pub fn recovered(&self) -> u64 {
        self.kinds.iter().map(|k| k.recovered).sum()
    }

    /// Flagged sites that stayed flagged (or wrong) through replay,
    /// pooled across every kind — the fail-stop population.
    pub fn fail_stop(&self) -> u64 {
        self.kinds.iter().map(|k| k.fail_stop).sum()
    }

    /// Serializes this record as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("network", Value::Str(self.network.clone())),
            ("n", Value::Int(self.n as i64)),
            ("components", Value::Int(self.components as i64)),
            ("base_cost", Value::Int(self.base_cost as i64)),
            ("hardened_cost", Value::Int(self.hardened_cost as i64)),
            ("tier", Value::Str(self.tier.clone())),
            ("vectors", Value::Int(self.vectors as i64)),
            ("fault_set_size", Value::Int(self.fault_set_size as i64)),
            (
                "permanent_detection_rate",
                Value::Float(self.permanent_detection_rate()),
            ),
            (
                "concurrent_detection_rate",
                Value::Float(self.concurrent_detection_rate()),
            ),
            ("recovered", Value::Int(self.recovered() as i64)),
            ("fail_stop", Value::Int(self.fail_stop() as i64)),
            (
                "kinds",
                Value::Arr(self.kinds.iter().map(KindReport::to_json).collect()),
            ),
        ])
    }

    /// Parses a record serialized by [`NetworkReport::to_json`] — the
    /// checkpoint/resume path. Derived rates are recomputed on demand.
    pub fn from_json(v: &Value) -> Option<NetworkReport> {
        Some(NetworkReport {
            network: v.get("network")?.as_str()?.to_owned(),
            n: v.get("n")?.as_i64()? as usize,
            components: v.get("components")?.as_i64()? as u64,
            // Cost columns arrived with the pass-pipeline refactor; v2
            // reports written before it load as zero-cost.
            base_cost: v.get("base_cost").and_then(Value::as_i64).unwrap_or(0) as u64,
            hardened_cost: v.get("hardened_cost").and_then(Value::as_i64).unwrap_or(0) as u64,
            tier: v.get("tier")?.as_str()?.to_owned(),
            vectors: v.get("vectors")?.as_i64()? as u64,
            fault_set_size: v.get("fault_set_size").and_then(Value::as_i64).unwrap_or(1) as u64,
            kinds: v
                .get("kinds")?
                .as_arr()?
                .iter()
                .map(KindReport::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// A whole campaign: every swept network plus the sweep parameters.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// RNG seed used for sampled tiers and transient-fault placement.
    pub seed: u64,
    /// True when a wall-clock budget expired before every planned unit
    /// ran: the report is a valid prefix of the full campaign, not the
    /// whole thing.
    pub truncated: bool,
    /// Per-network results.
    pub networks: Vec<NetworkReport>,
}

impl CampaignReport {
    /// Renders the report as a JSON value, suitable both for a telemetry
    /// manifest section and for a standalone report file.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("schema", Value::Str("absort-faults/v3".to_owned())),
            ("seed", Value::Int(self.seed as i64)),
            ("truncated", Value::Bool(self.truncated)),
            (
                "networks",
                Value::Arr(self.networks.iter().map(NetworkReport::to_json).collect()),
            ),
        ])
    }

    /// Parses a report serialized by [`CampaignReport::to_json`].
    pub fn from_json(v: &Value) -> Option<CampaignReport> {
        Some(CampaignReport {
            seed: v.get("seed")?.as_i64()? as u64,
            truncated: v.get("truncated").and_then(Value::as_bool).unwrap_or(false),
            networks: v
                .get("networks")?
                .as_arr()?
                .iter()
                .map(NetworkReport::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inversions_counts_kendall_tau() {
        assert_eq!(inversions(&[false, false, true, true]), 0);
        assert_eq!(inversions(&[true, false]), 1);
        assert_eq!(inversions(&[true, true, false, false]), 4);
        assert_eq!(inversions(&[true, false, true, false]), 3);
        assert_eq!(inversions(&[]), 0);
    }

    #[test]
    fn displacement_of_sorted_is_zero() {
        assert_eq!(max_displacement(&[false, false, true, true]), 0);
        assert_eq!(max_displacement(&[]), 0);
        assert_eq!(max_displacement(&[true]), 0);
    }

    #[test]
    fn displacement_of_reversed() {
        // 1100 -> sorted 0011: the leading one must travel to slot 2.
        assert_eq!(max_displacement(&[true, true, false, false]), 2);
        // 10 -> 01: both elements move one slot.
        assert_eq!(max_displacement(&[true, false]), 1);
    }

    #[test]
    fn displacement_single_straggler() {
        // one 1 at the front of seven 0s: it belongs at the end.
        let mut v = vec![false; 8];
        v[0] = true;
        assert_eq!(max_displacement(&v), 7);
        assert_eq!(inversions(&v), 7);
    }

    #[test]
    fn degradation_observes_worst_case() {
        let mut d = Degradation::default();
        d.observe(&[false, true], 1); // sorted, conserving
        assert_eq!(d, Degradation::default());
        d.observe(&[true, false], 1); // inverted pair
        assert_eq!(d.max_inversions, 1);
        assert_eq!(d.max_displacement, 1);
        assert_eq!(d.conservation_violations, 0);
        d.observe(&[true, true], 1); // created a token
        assert_eq!(d.conservation_violations, 1);
    }

    #[test]
    fn detection_rate_edges() {
        let r = KindReport::default();
        assert_eq!(r.detection_rate(), 0.0, "empty cell must not be NaN");
        let r = KindReport {
            injected: 4,
            detected: 3,
            ..Default::default()
        };
        assert!((r.detection_rate() - 0.75).abs() < 1e-12);
        // masked sites leave the denominator: 3 detected of 4−1 effective
        let r = KindReport {
            injected: 4,
            detected: 3,
            masked: 1,
            ..Default::default()
        };
        assert_eq!(r.detection_rate(), 1.0);
    }

    #[test]
    fn all_masked_cell_rates_are_zero_not_nan() {
        // injected == masked: the denominator is empty. The rate must be
        // a finite 0.0 — a NaN would serialize as `null`/garbage in the
        // JSON report and poison every downstream aggregation.
        let r = KindReport {
            injected: 5,
            masked: 5,
            ..Default::default()
        };
        assert_eq!(r.detection_rate(), 0.0);
        assert!(r.detection_rate().is_finite());
        assert_eq!(r.concurrent_detection_rate(), 0.0);
        let net = NetworkReport {
            network: "prefix".into(),
            n: 4,
            components: 1,
            base_cost: 1,
            hardened_cost: 2,
            tier: "exhaustive".into(),
            vectors: 16,
            fault_set_size: 1,
            kinds: vec![r],
        };
        assert_eq!(net.permanent_detection_rate(), 0.0);
        assert!(net.permanent_detection_rate().is_finite());
        assert_eq!(net.concurrent_detection_rate(), 0.0);
        let text = net.to_json().to_pretty();
        assert!(
            !text.contains("NaN") && !text.contains("nan") && !text.contains("null"),
            "rates must serialize as finite numbers: {text}"
        );
    }

    fn sample_report() -> CampaignReport {
        CampaignReport {
            seed: 7,
            truncated: false,
            networks: vec![NetworkReport {
                network: "prefix".into(),
                n: 8,
                components: 100,
                base_cost: 120,
                hardened_cost: 180,
                tier: "exhaustive".into(),
                vectors: 256,
                fault_set_size: 2,
                kinds: vec![KindReport {
                    kind: Some(FaultKind::StuckAt0),
                    injected: 12,
                    detected: 10,
                    masked: 2,
                    flagged: 9,
                    recovered: 3,
                    fail_stop: 6,
                    degradation: Degradation {
                        max_inversions: 3,
                        max_displacement: 2,
                        conservation_violations: 5,
                        flagged: 40,
                    },
                }],
            }],
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = sample_report();
        let text = report.to_json().to_pretty();
        let back = absort_telemetry::json::parse(&text).expect("parses");
        assert_eq!(
            back.get("schema").and_then(Value::as_str),
            Some("absort-faults/v3")
        );
        assert_eq!(back.get("truncated").and_then(Value::as_bool), Some(false));
        let nets = back.get("networks").and_then(Value::as_arr).unwrap();
        assert_eq!(nets.len(), 1);
        assert_eq!(
            nets[0]
                .get("permanent_detection_rate")
                .and_then(Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            nets[0].get("fault_set_size").and_then(Value::as_i64),
            Some(2)
        );
        assert_eq!(
            nets[0]
                .get("concurrent_detection_rate")
                .and_then(Value::as_f64),
            Some(0.9)
        );
        let kinds = nets[0].get("kinds").and_then(Value::as_arr).unwrap();
        assert_eq!(
            kinds[0].get("kind").and_then(Value::as_str),
            Some("stuck_at_0")
        );
        assert_eq!(kinds[0].get("masked").and_then(Value::as_i64), Some(2));
        assert_eq!(kinds[0].get("flagged").and_then(Value::as_i64), Some(9));
        assert_eq!(kinds[0].get("recovered").and_then(Value::as_i64), Some(3));
        assert_eq!(kinds[0].get("fail_stop").and_then(Value::as_i64), Some(6));
        assert_eq!(nets[0].get("recovered").and_then(Value::as_i64), Some(3));
        assert_eq!(nets[0].get("fail_stop").and_then(Value::as_i64), Some(6));
        assert_eq!(
            kinds[0]
                .get("degradation")
                .and_then(|d| d.get("max_inversions"))
                .and_then(Value::as_i64),
            Some(3)
        );
    }

    #[test]
    fn from_json_is_a_lossless_inverse_of_to_json() {
        // The checkpoint/resume path rides on this: a report loaded from
        // a checkpoint must re-serialize byte-for-byte identical to the
        // original, or resumed campaigns would diverge from uninterrupted
        // ones.
        let report = sample_report();
        let text = report.to_json().to_pretty();
        let parsed = absort_telemetry::json::parse(&text).expect("parses");
        let back = CampaignReport::from_json(&parsed).expect("loads");
        assert_eq!(back.to_json().to_pretty(), text);
        // Mixed-kind (None) cells survive the roundtrip too.
        let mut mixed = sample_report();
        mixed.truncated = true;
        mixed.networks[0].kinds[0].kind = None;
        let text = mixed.to_json().to_pretty();
        let parsed = absort_telemetry::json::parse(&text).expect("parses");
        let back = CampaignReport::from_json(&parsed).expect("loads");
        assert!(back.truncated);
        assert_eq!(back.networks[0].kinds[0].kind, None);
        assert_eq!(back.to_json().to_pretty(), text);
    }

    /// Golden back-compat pin: a report written by the v2 schema (no
    /// `recovered`/`fail_stop` keys anywhere) parses under the v3 reader
    /// with both recovery columns defaulting to 0, and every shared
    /// field survives unchanged.
    #[test]
    fn v2_reports_parse_under_the_v3_reader() {
        let golden_v2 = r#"{
  "schema": "absort-faults/v2",
  "seed": 7,
  "truncated": false,
  "networks": [
    {
      "network": "prefix",
      "n": 8,
      "components": 100,
      "base_cost": 120,
      "hardened_cost": 180,
      "tier": "exhaustive",
      "vectors": 256,
      "fault_set_size": 2,
      "permanent_detection_rate": 1.0,
      "concurrent_detection_rate": 0.9,
      "kinds": [
        {
          "kind": "stuck_at_0",
          "injected": 12,
          "detected": 10,
          "masked": 2,
          "flagged": 9,
          "detection_rate": 1.0,
          "concurrent_detection_rate": 0.9,
          "degradation": {
            "max_inversions": 3,
            "max_displacement": 2,
            "conservation_violations": 5,
            "flagged": 40
          }
        }
      ]
    }
  ]
}"#;
        let parsed = absort_telemetry::json::parse(golden_v2).expect("parses");
        let back = CampaignReport::from_json(&parsed).expect("v2 loads under v3 reader");
        let kind = &back.networks[0].kinds[0];
        assert_eq!(kind.recovered, 0, "missing v3 column defaults to 0");
        assert_eq!(kind.fail_stop, 0, "missing v3 column defaults to 0");
        assert_eq!(back.networks[0].recovered(), 0);
        assert_eq!(back.networks[0].fail_stop(), 0);
        // Every shared field is bit-identical to the v3 sample that the
        // golden text was derived from.
        let mut expect = sample_report();
        expect.networks[0].kinds[0].recovered = 0;
        expect.networks[0].kinds[0].fail_stop = 0;
        assert_eq!(back.to_json().to_pretty(), expect.to_json().to_pretty());
    }

    #[test]
    fn kind_names_stable_and_permanence_flagged() {
        assert_eq!(FaultKind::ALL.len(), 7);
        assert!(FaultKind::StuckAt1.is_permanent());
        assert!(!FaultKind::TransientFlip.is_permanent());
        let mut names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
        names.dedup();
        assert_eq!(names.len(), 7, "names are distinct");
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(k.name()), Some(k));
        }
        assert_eq!(FaultKind::from_name("mixed"), None);
        assert_eq!(FaultKind::from_name("?"), None);
    }

    // -- Degradation invariants, property-based ---------------------------

    use proptest::prelude::*;

    /// Builds a `Degradation` by observing each `(out, ones)` pair in an
    /// arbitrary observation set.
    fn observe_all(obs: &[(Vec<bool>, usize)]) -> Degradation {
        let mut d = Degradation::default();
        for (out, ones) in obs {
            d.observe(out, *ones);
        }
        d
    }

    fn obs_set() -> impl Strategy<Value = Vec<(Vec<bool>, usize)>> {
        proptest::collection::vec(
            (proptest::collection::vec(any::<bool>(), 0..16), 0usize..16),
            0..8,
        )
    }

    /// Per-lane counts packed as bit planes, as `observe_lanes` reads them.
    fn count_planes(n: usize, counts: &[usize]) -> Vec<u64> {
        (0..bit_len(n as u64))
            .map(|j| {
                counts
                    .iter()
                    .enumerate()
                    .fold(0u64, |w, (l, &c)| w | ((c >> j & 1) as u64) << l)
            })
            .collect()
    }

    /// The scalar reference for `observe_lanes`: unpack each lane in
    /// `lanes`, and observe it when the zero-one checker fires.
    fn observe_each_lane(outputs: &[u64], ones: &[usize], lanes: u64) -> (Degradation, u64) {
        let mut d = Degradation::default();
        let mut detected = 0u64;
        for lane in (0..64).filter(|&l| lanes >> l & 1 == 1) {
            let out: Vec<bool> = outputs.iter().map(|w| w >> lane & 1 == 1).collect();
            let count = out.iter().filter(|&&b| b).count();
            if !absort_core::lang::is_sorted(&out) || count != ones[lane] {
                d.observe(&out, ones[lane]);
                detected |= 1 << lane;
            }
        }
        (d, detected)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Kendall-tau inversions vanish exactly on sorted sequences —
        /// the zero-one checker and the degradation metric agree on what
        /// "ordered" means.
        #[test]
        fn inversions_zero_iff_sorted(out in proptest::collection::vec(any::<bool>(), 0..24)) {
            let sorted = out.windows(2).all(|w| w[0] <= w[1]);
            prop_assert_eq!(inversions(&out) == 0, sorted);
            prop_assert_eq!(max_displacement(&out) == 0, sorted);
        }

        /// The bit-sliced scorer equals the per-lane loop of `is_sorted`,
        /// popcount and `observe` at every width from 1 to 70 and at 256.
        /// Lanes 0–15 stay sorted, lanes 16–39 get sparse flips and lanes
        /// 40–63 random words; each lane's input popcount is its sorted
        /// count where `conserve` says so and a random one elsewhere.
        #[test]
        fn observe_lanes_matches_per_lane_observe(
            pool in proptest::collection::vec(any::<u64>(), 3 * 256),
            draws in proptest::collection::vec(any::<u64>(), 64),
            conserve in any::<u64>(),
            (mask, width) in (any::<u64>(), 0u32..=64),
        ) {
            let lanes = mask & u64::MAX.checked_shr(64 - width).unwrap_or(0);
            for n in (1..=70).chain([256]) {
                let sorted: Vec<usize> = draws.iter().map(|&d| (d % (n as u64 + 1)) as usize).collect();
                let clean: Vec<u64> = (0..n)
                    .map(|i| (0..64).fold(0u64, |w, l| w | u64::from(i + sorted[l] >= n) << l))
                    .collect();
                let outputs: Vec<u64> = clean
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| {
                        let (a, b, r) = (pool[i], pool[256 + i], pool[512 + i]);
                        c ^ (a & b & r & 0x0000_00ff_ffff_0000) ^ (r & 0xffff_ff00_0000_0000)
                    })
                    .collect();
                let ones: Vec<usize> = (0..64)
                    .map(|l| if conserve >> l & 1 == 1 { sorted[l] } else { (draws[l] >> 32) as usize % (n + 1) })
                    .collect();
                let planes = count_planes(n, &ones);

                let mut got = Degradation::default();
                let detected = got.observe_lanes(&outputs, &planes, lanes);
                prop_assert_eq!((got, detected), observe_each_lane(&outputs, &ones, lanes), "n = {}", n);

                // All lanes sorted and conserving: nothing to observe.
                let mut quiet = Degradation::default();
                prop_assert_eq!(quiet.observe_lanes(&clean, &count_planes(n, &sorted), u64::MAX), 0);
                prop_assert_eq!(quiet, Degradation::default());

                let counts: Vec<usize> = (0..64).map(|l| outputs.iter().filter(|&&w| w >> l & 1 == 1).count()).collect();
                prop_assert_eq!(popcount_planes(&outputs), count_planes(n, &counts));
            }
        }

        /// No element of an n-bit output can be displaced by more than n
        /// positions.
        #[test]
        fn displacement_bounded_by_n(out in proptest::collection::vec(any::<bool>(), 0..24)) {
            prop_assert!(max_displacement(&out) <= out.len() as u64);
        }

        /// `merge` is commutative: folding B into A gives the same record
        /// as folding A into B.
        #[test]
        fn merge_commutes(a in obs_set(), b in obs_set()) {
            let (da, db) = (observe_all(&a), observe_all(&b));
            let mut ab = da;
            ab.merge(&db);
            let mut ba = db;
            ba.merge(&da);
            prop_assert_eq!(ab, ba);
        }

        /// `merge` is associative: (A ∪ B) ∪ C = A ∪ (B ∪ C), and both
        /// equal observing the concatenated set directly.
        #[test]
        fn merge_associates(a in obs_set(), b in obs_set(), c in obs_set()) {
            let (da, db, dc) = (observe_all(&a), observe_all(&b), observe_all(&c));
            let mut left = da;
            left.merge(&db);
            left.merge(&dc);
            let mut bc = db;
            bc.merge(&dc);
            let mut right = da;
            right.merge(&bc);
            prop_assert_eq!(left, right);
            let all: Vec<_> = a.iter().chain(&b).chain(&c).cloned().collect();
            prop_assert_eq!(left, observe_all(&all));
        }
    }
}
