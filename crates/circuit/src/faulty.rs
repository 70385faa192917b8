//! Wire-level fault injection at evaluation time.
//!
//! [`crate::mutate`] covers faults that are expressible as netlist
//! rewrites (a flipped comparator, a stuck select line). Physical fabrics
//! also degrade in ways a rewrite cannot express without changing the
//! wire table: a wire shorted to power or ground (stuck-at-0/1), two
//! adjacent outputs bridged into a wired-OR, or a *transient* upset that
//! flips one bit on one evaluation and is gone the next. This module
//! injects those during evaluation instead: [`FaultyEvaluator`] runs the
//! same forward scan as [`crate::Evaluator`] — scalar or 64-lane packed —
//! and applies a small set of [`WireFault`]s as wire values are produced.
//!
//! The semantics are *forward-settled*: a fault takes effect from the
//! moment its wire is driven (inputs and constants at load time,
//! component outputs when the component evaluates), so every downstream
//! reader observes the faulty value. For the wired-OR bridge, both wires
//! take the OR of the two driven values from the point the *later* driver
//! has run; in a combinational DAG every reader of either wire evaluates
//! after both drivers, so this matches the settled hardware behaviour.
//!
//! [`permanent_fault_sites`] enumerates the stuck-at and bridge faults
//! worth injecting into a circuit: sites are restricted to the output
//! cone (a fault on a wire no output observes is vacuous by construction)
//! and to wires that actually take the opposing value on some vector of
//! the workload (a stuck-at-0 on an always-0 wire changes nothing). The
//! fault campaign in `absort-analysis` sweeps these sites and scores
//! whether the workspace's checkers notice each one.

use crate::circuit::Circuit;
use crate::component::Placed;
use crate::eval::eval_component;
use crate::lane::Lane;
use crate::wire::Wire;

/// A single wire-level fault, injected at evaluation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// The wire reads as `value` no matter what drives it.
    StuckAt {
        /// The faulty wire.
        wire: Wire,
        /// The stuck value (`false` = stuck-at-0, `true` = stuck-at-1).
        value: bool,
    },
    /// Wires `a` and `b` are shorted into a wired-OR: once both are
    /// driven, each reads as `a OR b`.
    BridgeOr {
        /// First bridged wire.
        a: Wire,
        /// Second bridged wire.
        b: Wire,
    },
    /// A single-event upset: the wire's value is inverted on exactly one
    /// evaluation (test vector `vector`, counted across the evaluator's
    /// lifetime) and behaves normally on every other.
    TransientFlip {
        /// The upset wire.
        wire: Wire,
        /// Zero-based index of the affected test vector.
        vector: u64,
    },
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireFault::StuckAt { wire, value } => {
                write!(f, "w{}:stuck{}", wire.index(), u8::from(*value))
            }
            WireFault::BridgeOr { a, b } => write!(f, "w{}~w{}:bridge", a.index(), b.index()),
            WireFault::TransientFlip { wire, vector } => {
                write!(f, "w{}:flip@v{vector}", wire.index())
            }
        }
    }
}

/// Per-wire fault bookkeeping, indexed for O(1) lookup in the scan.
#[derive(Clone, Copy, Default)]
struct WireEffect {
    stuck: Option<bool>,
    /// Transient flip at this wire for the given absolute vector index.
    flip_at: Option<u64>,
}

/// An evaluator that injects a set of [`WireFault`]s while running the
/// standard forward scan.
///
/// ```
/// use absort_circuit::{Builder, faulty::{FaultyEvaluator, WireFault}};
///
/// let mut b = Builder::new();
/// let x = b.input();
/// let y = b.input();
/// let (lo, hi) = b.bit_compare(x, y);
/// b.outputs(&[lo, hi]);
/// let c = b.finish();
///
/// // stuck-at-1 on the min output: the "sorted" pair (0,1) comes out (1,1)
/// let fault = WireFault::StuckAt { wire: c.output_wire(0), value: true };
/// let mut ev: FaultyEvaluator<'_, bool> = FaultyEvaluator::new(&c, &[fault]);
/// assert_eq!(ev.run(&[true, false]), vec![true, true]);
/// ```
pub struct FaultyEvaluator<'c, V: Lane> {
    circuit: &'c Circuit,
    wires: Vec<V>,
    effects: Vec<WireEffect>,
    /// Bridges as `(a, b, apply_after)`: the OR is applied after the
    /// component with index `apply_after` runs (`None` = at input load,
    /// when both wires are inputs/constants).
    bridges: Vec<(Wire, Wire, Option<usize>)>,
    /// Test vectors consumed so far (advances by `V::LANES` per pass).
    vectors_done: u64,
}

impl<'c, V: Lane> FaultyEvaluator<'c, V> {
    /// Creates an evaluator injecting `faults` into `circuit`.
    pub fn new(circuit: &'c Circuit, faults: &[WireFault]) -> Self {
        let mut effects = vec![WireEffect::default(); circuit.n_wires()];
        let mut bridges = Vec::new();
        for f in faults {
            match *f {
                WireFault::StuckAt { wire, value } => {
                    effects[wire.index()].stuck = Some(value);
                }
                WireFault::TransientFlip { wire, vector } => {
                    effects[wire.index()].flip_at = Some(vector);
                }
                WireFault::BridgeOr { a, b } => {
                    // The later driver is the last component in
                    // topological order that drives either wire.
                    let drives = |p: &Placed, w: Wire| {
                        (p.out_base as usize..p.out_base as usize + p.comp.n_outputs())
                            .contains(&w.index())
                    };
                    let apply_after = circuit
                        .components()
                        .iter()
                        .rposition(|p| drives(p, a) || drives(p, b));
                    bridges.push((a, b, apply_after));
                }
            }
        }
        FaultyEvaluator {
            circuit,
            wires: vec![V::ZERO; circuit.n_wires()],
            effects,
            bridges,
            vectors_done: 0,
        }
    }

    /// Applies stuck/transient effects to one just-driven wire.
    #[inline]
    fn touch(&mut self, wire: usize) {
        let e = self.effects[wire];
        if let Some(v) = e.stuck {
            self.wires[wire] = V::splat(v);
        }
        if let Some(at) = e.flip_at {
            if at >= self.vectors_done && at < self.vectors_done + u64::from(V::LANES) {
                let mask = V::lane_mask((at - self.vectors_done) as u32);
                self.wires[wire] = self.wires[wire].xor(mask);
            }
        }
    }

    /// Applies the bridges scheduled for position `pos` (`None` = load).
    fn apply_bridges(&mut self, pos: Option<usize>) {
        for bi in 0..self.bridges.len() {
            let (a, b, after) = self.bridges[bi];
            if after == pos {
                let or = self.wires[a.index()].or(self.wires[b.index()]);
                self.wires[a.index()] = or;
                self.wires[b.index()] = or;
                // A stuck fault composed on a bridged wire wins again.
                self.touch(a.index());
                self.touch(b.index());
            }
        }
    }

    /// Evaluates one (possibly packed) pass under the injected faults and
    /// returns the outputs. Counts `V::LANES` test vectors per call for
    /// transient-fault bookkeeping.
    pub fn run(&mut self, inputs: &[V]) -> Vec<V> {
        let mut out = vec![V::ZERO; self.circuit.n_outputs()];
        self.run_into(inputs, &mut out);
        out
    }

    /// Allocation-free [`FaultyEvaluator::run`]: evaluates into a
    /// caller-provided output slice so sweep drivers can reuse one buffer
    /// across thousands of fault sites. Advances the transient-fault
    /// vector counter exactly like `run`, so chunks must still be fed in
    /// workload order.
    pub fn run_into(&mut self, inputs: &[V], out: &mut [V]) {
        let c = self.circuit;
        assert_eq!(
            inputs.len(),
            c.n_inputs(),
            "expected {} inputs, got {}",
            c.n_inputs(),
            inputs.len()
        );
        assert_eq!(out.len(), c.n_outputs(), "output slice has wrong length");
        for (wire, &v) in c.input_wires().iter().zip(inputs) {
            self.wires[wire.index()] = v;
            self.touch(wire.index());
        }
        for &(wire, v) in c.const_wires() {
            self.wires[wire.index()] = V::splat(v);
            self.touch(wire.index());
        }
        self.apply_bridges(None);

        for ci in 0..c.components().len() {
            let p = &c.components()[ci];
            eval_component(p, &mut self.wires);
            let base = p.out_base as usize;
            for k in 0..p.comp.n_outputs() {
                self.touch(base + k);
            }
            self.apply_bridges(Some(ci));
        }

        for (o, w) in out.iter_mut().zip(c.output_wires()) {
            *o = self.wires[w.index()];
        }
        self.vectors_done += u64::from(V::LANES);
    }

    /// Test vectors consumed so far across all passes.
    pub fn vectors_done(&self) -> u64 {
        self.vectors_done
    }
}

// ---------------------------------------------------------------------------
// Fault-site enumeration
// ---------------------------------------------------------------------------

/// Per-wire observations from a fault-free sweep: did the wire ever take
/// 0 / 1, and did each sibling-output pair ever differ.
struct SweepProfile {
    saw0: Vec<bool>,
    saw1: Vec<bool>,
    /// `(a, b)` sibling output pairs of multi-output components, with a
    /// flag set when the two wires differed on some vector.
    sibling_pairs: Vec<(Wire, Wire, bool)>,
}

fn sweep_profile(circuit: &Circuit, vectors: &[Vec<bool>]) -> SweepProfile {
    let n_wires = circuit.n_wires();
    let mut ones = vec![0u64; n_wires];
    let mut zeros = vec![0u64; n_wires];
    let mut pairs: Vec<(Wire, Wire, u64)> = Vec::new();
    for p in circuit.components() {
        let n_out = p.comp.n_outputs();
        for k in (0..n_out).step_by(2) {
            if k + 1 < n_out {
                let a = Wire::from_index(p.out_base as usize + k);
                let b = Wire::from_index(p.out_base as usize + k + 1);
                pairs.push((a, b, 0));
            }
        }
    }

    let mut w = vec![0u64; n_wires];
    for chunk in vectors.chunks(64) {
        let valid: u64 = if chunk.len() == 64 {
            u64::MAX
        } else {
            (1u64 << chunk.len()) - 1
        };
        let packed = crate::eval::pack_lanes(chunk, circuit.n_inputs());
        for (wire, &v) in circuit.input_wires().iter().zip(&packed) {
            w[wire.index()] = v;
        }
        for &(wire, v) in circuit.const_wires() {
            w[wire.index()] = u64::splat(v);
        }
        for p in circuit.components() {
            eval_component(p, &mut w);
        }
        for i in 0..n_wires {
            ones[i] |= w[i] & valid;
            zeros[i] |= !w[i] & valid;
        }
        for (a, b, diff) in pairs.iter_mut() {
            *diff |= (w[a.index()] ^ w[b.index()]) & valid;
        }
    }

    SweepProfile {
        saw0: zeros.iter().map(|&z| z != 0).collect(),
        saw1: ones.iter().map(|&o| o != 0).collect(),
        sibling_pairs: pairs.into_iter().map(|(a, b, d)| (a, b, d != 0)).collect(),
    }
}

/// Wires inside the output cone: every wire with a forward path to a
/// designated output (the only wires whose faults can ever be observed).
pub fn observable_wires(circuit: &Circuit) -> Vec<Wire> {
    let mut in_cone = vec![false; circuit.n_wires()];
    for w in circuit.output_wires() {
        in_cone[w.index()] = true;
    }
    for p in circuit.components().iter().rev() {
        let base = p.out_base as usize;
        if (0..p.comp.n_outputs()).any(|k| in_cone[base + k]) {
            p.comp.for_each_input(|w| in_cone[w.index()] = true);
        }
    }
    in_cone
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c)
        .map(|(i, _)| Wire::from_index(i))
        .collect()
}

/// Enumerates the permanent single-fault sites worth injecting for the
/// given workload: stuck-at-0/1 on every output-cone wire that takes the
/// opposing value on some vector, plus wired-OR bridges between sibling
/// outputs of multi-output components (both in the cone) whose values
/// differ on some vector. Faults outside this set provably cannot change
/// any wire value on the workload, so injecting them would only dilute
/// detection statistics with vacuous sites.
pub fn permanent_fault_sites(circuit: &Circuit, vectors: &[Vec<bool>]) -> Vec<WireFault> {
    let profile = sweep_profile(circuit, vectors);
    let mut in_cone = vec![false; circuit.n_wires()];
    for w in observable_wires(circuit) {
        in_cone[w.index()] = true;
    }

    let mut out = Vec::new();
    for (i, &cone) in in_cone.iter().enumerate() {
        if !cone {
            continue;
        }
        let wire = Wire::from_index(i);
        if profile.saw1[i] {
            out.push(WireFault::StuckAt { wire, value: false });
        }
        if profile.saw0[i] {
            out.push(WireFault::StuckAt { wire, value: true });
        }
    }
    for &(a, b, differs) in &profile.sibling_pairs {
        if differs && in_cone[a.index()] && in_cone[b.index()] {
            out.push(WireFault::BridgeOr { a, b });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::eval::{pack_lanes, unpack_lanes};

    fn two_sorter() -> Circuit {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let (lo, hi) = b.bit_compare(x, y);
        b.outputs(&[lo, hi]);
        b.finish()
    }

    #[test]
    fn stuck_at_forces_the_wire() {
        let c = two_sorter();
        let min_wire = c.output_wire(0);
        let f = [WireFault::StuckAt {
            wire: min_wire,
            value: true,
        }];
        let mut ev: FaultyEvaluator<'_, bool> = FaultyEvaluator::new(&c, &f);
        assert_eq!(ev.run(&[false, false]), vec![true, false]);
        assert_eq!(ev.run(&[true, false]), vec![true, true]);
    }

    #[test]
    fn stuck_input_propagates() {
        let c = two_sorter();
        let in0 = c.input_wire(0);
        let f = [WireFault::StuckAt {
            wire: in0,
            value: true,
        }];
        let mut ev: FaultyEvaluator<'_, bool> = FaultyEvaluator::new(&c, &f);
        // input (0,0) behaves as (1,0) -> sorted (0,1)
        assert_eq!(ev.run(&[false, false]), vec![false, true]);
    }

    #[test]
    fn transient_hits_exactly_one_vector_scalar() {
        let c = two_sorter();
        let f = [WireFault::TransientFlip {
            wire: c.output_wire(1),
            vector: 2,
        }];
        let mut ev: FaultyEvaluator<'_, bool> = FaultyEvaluator::new(&c, &f);
        let input = [true, false]; // sorts to (0,1)
        assert_eq!(ev.run(&input), vec![false, true]); // vector 0
        assert_eq!(ev.run(&input), vec![false, true]); // vector 1
        assert_eq!(ev.run(&input), vec![false, false], "vector 2 is upset");
        assert_eq!(ev.run(&input), vec![false, true]); // vector 3
    }

    #[test]
    fn transient_hits_exactly_one_lane_packed() {
        let c = two_sorter();
        let f = [WireFault::TransientFlip {
            wire: c.output_wire(1),
            vector: 65, // second lane of the second pass
        }];
        let mut ev: FaultyEvaluator<'_, u64> = FaultyEvaluator::new(&c, &f);
        let vectors: Vec<Vec<bool>> = (0..64).map(|_| vec![true, false]).collect();
        let packed = pack_lanes(&vectors, 2);
        let first = ev.run(&packed);
        assert_eq!(unpack_lanes(&first, 64), {
            let mut ok = Vec::new();
            for _ in 0..64 {
                ok.push(vec![false, true]);
            }
            ok
        });
        let second = ev.run(&packed);
        let outs = unpack_lanes(&second, 64);
        for (v, o) in outs.iter().enumerate() {
            if v == 1 {
                assert_eq!(o, &vec![false, false], "lane 1 of pass 2 is vector 65");
            } else {
                assert_eq!(o, &vec![false, true], "lane {v}");
            }
        }
    }

    #[test]
    fn bridge_ors_sibling_outputs() {
        let c = two_sorter();
        let f = [WireFault::BridgeOr {
            a: c.output_wire(0),
            b: c.output_wire(1),
        }];
        let mut ev: FaultyEvaluator<'_, bool> = FaultyEvaluator::new(&c, &f);
        // (1,0): min=0, max=1, bridged -> both 1
        assert_eq!(ev.run(&[true, false]), vec![true, true]);
        // (0,0): both 0, bridge is invisible
        assert_eq!(ev.run(&[false, false]), vec![false, false]);
    }

    #[test]
    fn bridge_applies_after_the_later_driver() {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let and = b.and(x, y);
        let _between = b.xor(x, y);
        let or = b.or(x, y);
        let reader = b.not(and);
        b.outputs(&[and, or, reader]);
        let c = b.finish();
        let f = [WireFault::BridgeOr { a: and, b: or }];
        let mut ev: FaultyEvaluator<'_, bool> = FaultyEvaluator::new(&c, &f);
        // (1,0): and = 0, or = 1. Bridged after the OR gate runs, both
        // read 1 and the later reader sees the bridged value; bridged any
        // earlier, the OR gate would overwrite its wire and `and` would
        // keep its 0.
        assert_eq!(ev.run(&[true, false]), vec![true, true, false]);
        assert_eq!(ev.run(&[false, false]), vec![false, false, true]);
    }

    #[test]
    fn bridge_between_inputs_applies_at_load() {
        let c = two_sorter();
        let f = [WireFault::BridgeOr {
            a: c.input_wire(0),
            b: c.input_wire(1),
        }];
        let mut ev: FaultyEvaluator<'_, bool> = FaultyEvaluator::new(&c, &f);
        // Both inputs read 1 | 0 before the comparator runs.
        assert_eq!(ev.run(&[true, false]), vec![true, true]);
        assert_eq!(ev.run(&[false, true]), vec![true, true]);
        assert_eq!(ev.run(&[false, false]), vec![false, false]);
    }

    #[test]
    fn scalar_and_packed_agree_under_faults() {
        // a deeper circuit: 4-input sorter slice
        let mut b = Builder::new();
        let ins = b.input_bus(4);
        let (a0, a1) = b.bit_compare(ins[0], ins[1]);
        let (b0, b1) = b.bit_compare(ins[2], ins[3]);
        let (lo, m1) = b.bit_compare(a0, b0);
        let (m2, hi) = b.bit_compare(a1, b1);
        let (mid_lo, mid_hi) = b.bit_compare(m1, m2);
        b.outputs(&[lo, mid_lo, mid_hi, hi]);
        let c = b.finish();

        for fault in permanent_fault_sites(&c, &all_vectors(4)) {
            let vectors = all_vectors(4);
            let mut scalar: FaultyEvaluator<'_, bool> = FaultyEvaluator::new(&c, &[fault]);
            let scalar_outs: Vec<Vec<bool>> = vectors.iter().map(|v| scalar.run(v)).collect();
            let mut packed: FaultyEvaluator<'_, u64> = FaultyEvaluator::new(&c, &[fault]);
            let words = pack_lanes(&vectors, 4);
            let packed_outs = unpack_lanes(&packed.run(&words), vectors.len());
            assert_eq!(scalar_outs, packed_outs, "fault {fault}");
        }
    }

    fn all_vectors(n: usize) -> Vec<Vec<bool>> {
        (0..1u64 << n)
            .map(|v| (0..n).map(|i| v >> i & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn sites_exclude_vacuous_and_dead_wires() {
        // A circuit with an unobserved component: its wires must not be
        // fault sites.
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let o = b.and(x, y);
        let dead = b.or(x, y); // never designated
        let _ = dead;
        b.outputs(&[o]);
        let c = b.finish();
        let sites = permanent_fault_sites(&c, &all_vectors(2));
        for s in &sites {
            if let WireFault::StuckAt { wire, .. } = s {
                assert_ne!(wire.index(), dead.index(), "dead wire enumerated");
            }
        }
        // Constant wires in the cone get only the flip that changes them.
        let mut b = Builder::new();
        let x = b.input();
        let z = b.constant(false);
        let o = b.or(x, z);
        b.outputs(&[o]);
        let c = b.finish();
        let sites = permanent_fault_sites(&c, &all_vectors(1));
        assert!(
            sites.iter().all(|s| !matches!(
                s,
                WireFault::StuckAt { wire, value: false } if wire.index() == z.index()
            )),
            "stuck-at-0 on an always-0 constant is vacuous"
        );
        assert!(
            sites.iter().any(|s| matches!(
                s,
                WireFault::StuckAt { wire, value: true } if wire.index() == z.index()
            )),
            "stuck-at-1 on a const-0 wire in the cone is a real site"
        );
    }

    #[test]
    fn display_names_sites() {
        let f = WireFault::StuckAt {
            wire: Wire::from_index(7),
            value: true,
        };
        assert_eq!(f.to_string(), "w7:stuck1");
        let f = WireFault::BridgeOr {
            a: Wire::from_index(1),
            b: Wire::from_index(2),
        };
        assert_eq!(f.to_string(), "w1~w2:bridge");
        let f = WireFault::TransientFlip {
            wire: Wire::from_index(3),
            vector: 9,
        };
        assert_eq!(f.to_string(), "w3:flip@v9");
    }
}
