//! Netlist builder.
//!
//! [`Builder`] constructs circuits by appending components; every component
//! may only reference wires that already exist, so the component list is in
//! topological order by construction and the finished [`crate::Circuit`]
//! can be evaluated by a single forward scan — no cycle check, no sort.

use crate::circuit::Circuit;
use crate::component::{Component, GateOp, Perm4, Placed};
use crate::scope::{ScopeId, ScopeTree};
use crate::wire::Wire;

/// Builds a combinational circuit out of the paper's Model A primitives.
///
/// # Example
///
/// A half-adder:
///
/// ```
/// use absort_circuit::Builder;
///
/// let mut b = Builder::new();
/// let a = b.input();
/// let c = b.input();
/// let sum = b.xor(a, c);
/// let carry = b.and(a, c);
/// b.outputs(&[sum, carry]);
/// let circuit = b.finish();
///
/// assert_eq!(circuit.eval(&[true, true]), vec![false, true]);
/// assert_eq!(circuit.cost().total, 2);
/// assert_eq!(circuit.depth(), 1);
/// ```
#[derive(Debug)]
pub struct Builder {
    comps: Vec<Placed>,
    n_wires: u32,
    inputs: Vec<Wire>,
    outputs: Vec<Wire>,
    consts: Vec<(Wire, bool)>,
    scopes: ScopeTree,
    scope_stack: Vec<ScopeId>,
    const0: Option<Wire>,
    const1: Option<Wire>,
    /// Telemetry spans mirroring `scope_stack`, so wall-clock time spent
    /// constructing each scope shows up in the profiler tree. Beyond the
    /// telemetry span-depth cap these are no-op guards, which keeps
    /// deeply recursive sorter constructions cheap to profile.
    tel_spans: Vec<absort_telemetry::Span>,
}

impl Default for Builder {
    fn default() -> Self {
        Self::new()
    }
}

impl Builder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Builder {
            comps: Vec::new(),
            n_wires: 0,
            inputs: Vec::new(),
            outputs: Vec::new(),
            consts: Vec::new(),
            scopes: ScopeTree::new(),
            scope_stack: vec![ScopeId::ROOT],
            const0: None,
            const1: None,
            tel_spans: Vec::new(),
        }
    }

    #[inline]
    fn fresh_wire(&mut self) -> Wire {
        let w = Wire::from_index(self.n_wires as usize);
        self.n_wires = self
            .n_wires
            .checked_add(1)
            .expect("circuit exceeds u32::MAX wires");
        w
    }

    #[inline]
    fn check(&self, w: Wire) {
        debug_assert!(
            w.0 < self.n_wires,
            "wire {} does not exist yet (only {} wires created)",
            w.0,
            self.n_wires
        );
    }

    #[inline]
    fn cur_scope(&self) -> ScopeId {
        *self.scope_stack.last().expect("scope stack never empty")
    }

    fn place(&mut self, comp: Component) -> u32 {
        comp.for_each_input(|w| self.check(w));
        let n_out = comp.n_outputs();
        let out_base = self.n_wires;
        for _ in 0..n_out {
            self.fresh_wire();
        }
        let scope = self.cur_scope();
        self.comps.push(Placed {
            comp,
            out_base,
            scope,
        });
        out_base
    }

    // ---- scopes ------------------------------------------------------

    /// Enters a named scope; components created until the matching
    /// [`Builder::pop_scope`] are attributed to it in cost reports.
    pub fn push_scope(&mut self, name: &str) {
        let parent = self.cur_scope();
        let id = self.scopes.child(parent, name);
        self.scope_stack.push(id);
        self.tel_spans.push(absort_telemetry::span(name));
    }

    /// Leaves the innermost scope. Panics if called at the root.
    pub fn pop_scope(&mut self) {
        assert!(
            self.scope_stack.len() > 1,
            "pop_scope called with no scope open"
        );
        self.scope_stack.pop();
        self.tel_spans.pop();
    }

    /// Runs `f` inside the named scope (push/pop handled for you).
    pub fn scoped<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.push_scope(name);
        let out = f(self);
        self.pop_scope();
        out
    }

    // ---- wires -------------------------------------------------------

    /// Declares one primary input and returns its wire.
    pub fn input(&mut self) -> Wire {
        let w = self.fresh_wire();
        self.inputs.push(w);
        w
    }

    /// Declares `n` primary inputs and returns their wires in order.
    pub fn input_bus(&mut self, n: usize) -> Vec<Wire> {
        (0..n).map(|_| self.input()).collect()
    }

    /// A constant wire. Constants are free (no component, no cost) — they
    /// model tied-off lines, not logic.
    pub fn constant(&mut self, v: bool) -> Wire {
        let cached = if v { self.const1 } else { self.const0 };
        if let Some(w) = cached {
            return w;
        }
        let w = self.fresh_wire();
        self.consts.push((w, v));
        if v {
            self.const1 = Some(w);
        } else {
            self.const0 = Some(w);
        }
        w
    }

    /// Designates the circuit's outputs, in order. May be called multiple
    /// times; later calls append.
    pub fn outputs(&mut self, outs: &[Wire]) {
        for &w in outs {
            self.check(w);
            self.outputs.push(w);
        }
    }

    // ---- primitives ----------------------------------------------------

    /// Inverter.
    pub fn not(&mut self, a: Wire) -> Wire {
        Wire(self.place(Component::Not { a }))
    }

    /// Two-input gate.
    pub fn gate(&mut self, op: GateOp, a: Wire, b: Wire) -> Wire {
        Wire(self.place(Component::Gate { op, a, b }))
    }

    /// AND gate.
    pub fn and(&mut self, a: Wire, b: Wire) -> Wire {
        self.gate(GateOp::And, a, b)
    }

    /// OR gate.
    pub fn or(&mut self, a: Wire, b: Wire) -> Wire {
        self.gate(GateOp::Or, a, b)
    }

    /// XOR gate.
    pub fn xor(&mut self, a: Wire, b: Wire) -> Wire {
        self.gate(GateOp::Xor, a, b)
    }

    /// 2×1 multiplexer: `sel ? a1 : a0`.
    pub fn mux2(&mut self, sel: Wire, a0: Wire, a1: Wire) -> Wire {
        Wire(self.place(Component::Mux2 { sel, a0, a1 }))
    }

    /// 1×2 demultiplexer; returns `(out0, out1)`.
    pub fn demux2(&mut self, sel: Wire, x: Wire) -> (Wire, Wire) {
        let base = self.place(Component::Demux2 { sel, x });
        (Wire(base), Wire(base + 1))
    }

    /// 2×2 switch; returns `(out_a, out_b)`; crossed when `ctrl = 1`.
    pub fn switch2(&mut self, ctrl: Wire, a: Wire, b: Wire) -> (Wire, Wire) {
        let base = self.place(Component::Switch2 { ctrl, a, b });
        (Wire(base), Wire(base + 1))
    }

    /// Bit comparator (ascending 2-sorter); returns `(min, max)`.
    pub fn bit_compare(&mut self, a: Wire, b: Wire) -> (Wire, Wire) {
        let base = self.place(Component::BitCompare { a, b });
        (Wire(base), Wire(base + 1))
    }

    /// 4×4 switch applying `perms[2*s1 + s0]`; returns its four outputs.
    pub fn switch4(&mut self, s1: Wire, s0: Wire, ins: [Wire; 4], perms: [Perm4; 4]) -> [Wire; 4] {
        for p in &perms {
            let mut seen = [false; 4];
            for &i in p {
                assert!(
                    (i as usize) < 4 && !seen[i as usize],
                    "Perm4 {p:?} is not a permutation of 0..4"
                );
                seen[i as usize] = true;
            }
        }
        let base = self.place(Component::Switch4 { s1, s0, ins, perms });
        [Wire(base), Wire(base + 1), Wire(base + 2), Wire(base + 3)]
    }

    // ---- composition ---------------------------------------------------

    /// Splices a finished circuit into this builder, driving its primary
    /// inputs from `inputs` (one host wire per embedded input, in
    /// declaration order). The embedded components are re-placed in the
    /// builder's current scope, preserving their relative order.
    ///
    /// Returns `(wire_map, comp_base)`:
    /// * `wire_map[w]` is the host wire carrying the embedded circuit's
    ///   wire `w` — so fault sites enumerated on the embedded circuit can
    ///   be translated into the host netlist;
    /// * `comp_base` is the host index of the embedded circuit's first
    ///   component, so component index `ci` of the embedded circuit lands
    ///   at `comp_base + ci` in the host.
    ///
    /// The embedded circuit's designated outputs are *not* auto-forwarded;
    /// read them off through the wire map:
    /// `wire_map[c.output_wire(i).index()]`.
    pub fn append_circuit(&mut self, c: &Circuit, inputs: &[Wire]) -> (Vec<Wire>, usize) {
        assert_eq!(
            inputs.len(),
            c.n_inputs(),
            "append_circuit: embedded circuit wants {} inputs, got {}",
            c.n_inputs(),
            inputs.len()
        );
        for &w in inputs {
            self.check(w);
        }
        let comp_base = self.comps.len();
        let mut map = vec![Wire::from_index(0); c.n_wires()];
        for (i, &w) in c.input_wires().iter().enumerate() {
            map[w.index()] = inputs[i];
        }
        for &(w, v) in c.const_wires() {
            map[w.index()] = self.constant(v);
        }
        for p in c.components() {
            let comp = p.comp.map_wires(|w| map[w.index()]);
            let n_out = comp.n_outputs();
            let out_base = self.place(comp);
            for k in 0..n_out {
                map[p.out_base as usize + k] = Wire(out_base + k as u32);
            }
        }
        (map, comp_base)
    }

    // ---- finish --------------------------------------------------------

    /// Number of components placed so far.
    pub fn n_components(&self) -> usize {
        self.comps.len()
    }

    /// Finalises the circuit. Panics if no outputs were designated or a
    /// scope is still open (both are construction bugs worth failing loudly
    /// on).
    pub fn finish(self) -> Circuit {
        assert!(
            !self.outputs.is_empty(),
            "circuit finished without any designated outputs"
        );
        assert!(
            self.scope_stack.len() == 1,
            "circuit finished with {} scope(s) still open",
            self.scope_stack.len() - 1
        );
        absort_telemetry::counter_add_many(&[
            ("build.circuits", 1),
            ("build.components", self.comps.len() as u64),
            ("build.wires", u64::from(self.n_wires)),
        ]);
        Circuit::from_parts(
            self.comps,
            self.n_wires as usize,
            self.inputs,
            self.outputs,
            self.consts,
            self.scopes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_interned_and_free() {
        let mut b = Builder::new();
        let i = b.input();
        let z1 = b.constant(false);
        let z2 = b.constant(false);
        let o1 = b.constant(true);
        assert_eq!(z1, z2);
        assert_ne!(z1, o1);
        let out = b.or(i, z1);
        b.outputs(&[out]);
        let c = b.finish();
        assert_eq!(c.cost().total, 1, "constants must not add cost");
    }

    #[test]
    fn switch2_semantics() {
        let mut b = Builder::new();
        let ctrl = b.input();
        let a = b.input();
        let bb = b.input();
        let (x, y) = b.switch2(ctrl, a, bb);
        b.outputs(&[x, y]);
        let c = b.finish();
        assert_eq!(c.eval(&[false, true, false]), vec![true, false]);
        assert_eq!(c.eval(&[true, true, false]), vec![false, true]);
    }

    #[test]
    fn demux_routes_and_zeros() {
        let mut b = Builder::new();
        let sel = b.input();
        let x = b.input();
        let (o0, o1) = b.demux2(sel, x);
        b.outputs(&[o0, o1]);
        let c = b.finish();
        assert_eq!(c.eval(&[false, true]), vec![true, false]);
        assert_eq!(c.eval(&[true, true]), vec![false, true]);
        assert_eq!(c.eval(&[true, false]), vec![false, false]);
    }

    #[test]
    fn bit_compare_sorts_two_bits() {
        let mut b = Builder::new();
        let a = b.input();
        let x = b.input();
        let (lo, hi) = b.bit_compare(a, x);
        b.outputs(&[lo, hi]);
        let c = b.finish();
        assert_eq!(c.eval(&[true, false]), vec![false, true]);
        assert_eq!(c.eval(&[false, true]), vec![false, true]);
        assert_eq!(c.eval(&[true, true]), vec![true, true]);
    }

    #[test]
    fn switch4_applies_selected_permutation() {
        let mut b = Builder::new();
        let s1 = b.input();
        let s0 = b.input();
        let ins: Vec<_> = (0..4).map(|_| b.input()).collect();
        let perms: [Perm4; 4] = [
            [0, 1, 2, 3], // identity
            [1, 0, 3, 2], // swap pairs
            [2, 3, 0, 1], // swap halves
            [3, 2, 1, 0], // reverse
        ];
        let outs = b.switch4(s1, s0, [ins[0], ins[1], ins[2], ins[3]], perms);
        b.outputs(&outs);
        let c = b.finish();
        // data = (1,0,0,0): marker on line 0.
        let data = [true, false, false, false];
        let run = |s1v: bool, s0v: bool| {
            let mut inp = vec![s1v, s0v];
            inp.extend_from_slice(&data);
            c.eval(&inp)
        };
        assert_eq!(run(false, false), vec![true, false, false, false]);
        assert_eq!(run(false, true), vec![false, true, false, false]);
        assert_eq!(run(true, false), vec![false, false, true, false]);
        assert_eq!(run(true, true), vec![false, false, false, true]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn switch4_rejects_non_permutation() {
        let mut b = Builder::new();
        let s1 = b.input();
        let s0 = b.input();
        let i = b.input();
        let _ = b.switch4(s1, s0, [i; 4], [[0, 0, 1, 2]; 4]);
    }

    #[test]
    fn append_circuit_preserves_behaviour_and_maps_wires() {
        // inner: half adder
        let mut ib = Builder::new();
        let a = ib.input();
        let c = ib.input();
        let sum = ib.xor(a, c);
        let carry = ib.and(a, c);
        ib.outputs(&[sum, carry]);
        let inner = ib.finish();

        // host: invert one input before feeding the embedded adder
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let ny = b.not(y);
        let (map, comp_base) = b.append_circuit(&inner, &[x, ny]);
        assert_eq!(comp_base, 1, "one host component (the NOT) precedes");
        let s = map[inner.output_wire(0).index()];
        let k = map[inner.output_wire(1).index()];
        b.outputs(&[s, k]);
        let host = b.finish();
        for v in 0..4u8 {
            let (xv, yv) = (v & 1 == 1, v >> 1 & 1 == 1);
            assert_eq!(host.eval(&[xv, yv]), inner.eval(&[xv, !yv]), "v={v}");
        }
        assert_eq!(host.n_components(), 1 + inner.n_components());
    }

    #[test]
    fn append_circuit_reinterns_constants() {
        let mut ib = Builder::new();
        let a = ib.input();
        let one = ib.constant(true);
        let o = ib.and(a, one);
        ib.outputs(&[o]);
        let inner = ib.finish();

        let mut b = Builder::new();
        let host_one = b.constant(true);
        let x = b.input();
        let (map, _) = b.append_circuit(&inner, &[x]);
        let o = map[inner.output_wire(0).index()];
        let o2 = b.and(o, host_one);
        b.outputs(&[o2]);
        let host = b.finish();
        assert_eq!(host.eval(&[true]), vec![true]);
        assert_eq!(host.cost().total, 2, "shared constant adds no cost");
    }

    #[test]
    #[should_panic(expected = "without any designated outputs")]
    fn finish_requires_outputs() {
        let mut b = Builder::new();
        let _ = b.input();
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "scope(s) still open")]
    fn finish_rejects_open_scope() {
        let mut b = Builder::new();
        let i = b.input();
        b.push_scope("oops");
        b.outputs(&[i]);
        let _ = b.finish();
    }
}
