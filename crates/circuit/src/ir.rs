//! `CompileIr`: the SSA-like mid-level representation of the compiler
//! pipeline `Circuit → lower → passes → regalloc → CompiledCircuit`.
//!
//! The IR is a flat, topologically-ordered op list over *value ids*
//! (`ValId`). Primary inputs own the first `n_inputs` ids; every op
//! defines fresh ids for its outputs (SSA discipline — an id is defined
//! exactly once and never rebound). Passes rewrite the list in place by
//! substituting uses, deleting ops, and recording what happened to each
//! source component in [`CompileIr::comp_fate`]; the topological-order
//! invariant (defs strictly before uses) is preserved by every pass, so
//! each stage can be checked against the interpreter by a single forward
//! scan ([`CompileIr::eval_lanes`]).
//!
//! Provenance is first-class: every op lowered from a netlist component
//! carries that component's index in [`IrOp::comp`], and the fate array
//! says whether the component is still patchable in place
//! ([`CompFate::Live`]), was proven unobservable ([`CompFate::Dead`]),
//! or was folded/merged away so fault campaigns must fall back to a
//! per-mutant recompile ([`CompFate::Folded`]). See `DESIGN.md` for the
//! soundness argument.

use crate::circuit::Circuit;
use crate::component::{Component, GateOp, Perm4};

/// Identifier of one single-bit value in the IR. Inputs are
/// `0..n_inputs`; op definitions follow in lowering order.
pub type ValId = u32;

/// Sentinel for [`IrOp::comp`]: the op was synthesized by the compiler
/// (a constant splat) and has no source component.
pub const NO_COMP: u32 = u32::MAX;

/// The operation an [`IrOp`] performs. Operands are [`ValId`]s; the
/// op's definitions live in [`IrOp::defs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrKind {
    /// A constant value (scheduled into the tape prologue).
    Const {
        /// The constant.
        v: bool,
    },
    /// `defs[0] = !a`.
    Not {
        /// Operand.
        a: ValId,
    },
    /// `defs[0] = op(a, b)`.
    Gate {
        /// The gate operation.
        op: GateOp,
        /// First operand.
        a: ValId,
        /// Second operand.
        b: ValId,
    },
    /// `defs[0] = s ? a1 : a0`.
    Mux {
        /// Select.
        s: ValId,
        /// Taken when `s = 1`.
        a1: ValId,
        /// Taken when `s = 0`.
        a0: ValId,
    },
    /// `defs[0] = !s & x`, `defs[1] = s & x`.
    Demux {
        /// Select.
        s: ValId,
        /// Data.
        x: ValId,
    },
    /// `defs[0] = s ? b : a`, `defs[1] = s ? a : b`.
    Switch2 {
        /// Control.
        s: ValId,
        /// Upper input.
        a: ValId,
        /// Lower input.
        b: ValId,
    },
    /// `defs[0] = a & b` (min), `defs[1] = a | b` (max).
    BitCompare {
        /// First operand.
        a: ValId,
        /// Second operand.
        b: ValId,
    },
    /// 4×4 switch: `defs[j] = ins[perms[2*s1 + s0][j]]`.
    Switch4 {
        /// High select bit.
        s1: ValId,
        /// Low select bit.
        s0: ValId,
        /// The four data inputs.
        ins: [ValId; 4],
        /// Permutation per select value.
        perms: [Perm4; 4],
    },
}

impl IrKind {
    /// Number of values this op defines (prefix of [`IrOp::defs`]).
    #[inline]
    pub fn n_defs(&self) -> usize {
        match self {
            IrKind::Const { .. }
            | IrKind::Not { .. }
            | IrKind::Gate { .. }
            | IrKind::Mux { .. } => 1,
            IrKind::Demux { .. } | IrKind::Switch2 { .. } | IrKind::BitCompare { .. } => 2,
            IrKind::Switch4 { .. } => 4,
        }
    }

    /// Visits every operand value.
    pub fn for_each_use(&self, mut f: impl FnMut(ValId)) {
        match *self {
            IrKind::Const { .. } => {}
            IrKind::Not { a } => f(a),
            IrKind::Gate { a, b, .. } | IrKind::BitCompare { a, b } => {
                f(a);
                f(b);
            }
            IrKind::Mux { s, a1, a0 } => {
                f(s);
                f(a1);
                f(a0);
            }
            IrKind::Demux { s, x } => {
                f(s);
                f(x);
            }
            IrKind::Switch2 { s, a, b } => {
                f(s);
                f(a);
                f(b);
            }
            IrKind::Switch4 { s1, s0, ins, .. } => {
                f(s1);
                f(s0);
                for v in ins {
                    f(v);
                }
            }
        }
    }

    /// Rewrites every operand value through `f` (used to apply a pass's
    /// substitution map).
    pub fn map_uses(&mut self, mut f: impl FnMut(ValId) -> ValId) {
        match self {
            IrKind::Const { .. } => {}
            IrKind::Not { a } => *a = f(*a),
            IrKind::Gate { a, b, .. } | IrKind::BitCompare { a, b } => {
                *a = f(*a);
                *b = f(*b);
            }
            IrKind::Mux { s, a1, a0 } => {
                *s = f(*s);
                *a1 = f(*a1);
                *a0 = f(*a0);
            }
            IrKind::Demux { s, x } => {
                *s = f(*s);
                *x = f(*x);
            }
            IrKind::Switch2 { s, a, b } => {
                *s = f(*s);
                *a = f(*a);
                *b = f(*b);
            }
            IrKind::Switch4 { s1, s0, ins, .. } => {
                *s1 = f(*s1);
                *s0 = f(*s0);
                for v in ins.iter_mut() {
                    *v = f(*v);
                }
            }
        }
    }
}

/// One IR op: an [`IrKind`] plus its definitions and provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrOp {
    /// The operation and its operands.
    pub kind: IrKind,
    /// Defined values; the first [`IrKind::n_defs`] entries are valid.
    pub defs: [ValId; 4],
    /// Source component index, or [`NO_COMP`] for synthesized ops.
    pub comp: u32,
    /// Depth level assigned by the schedule stage (constants are 0 and
    /// go to the prologue; component ops start at 1).
    pub level: u32,
}

impl IrOp {
    /// The valid prefix of [`IrOp::defs`].
    #[inline]
    pub fn defs(&self) -> &[ValId] {
        &self.defs[..self.kind.n_defs()]
    }
}

/// What the pipeline did with one source component — the provenance
/// contract [`crate::CompiledCircuit::mutant_tape`] relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompFate {
    /// Still represented by exactly one op carrying its index; faults
    /// can be patched on the tape in place.
    #[default]
    Live,
    /// Removed because no output observes it (dead code). A mutant of
    /// this component is output-equivalent to the base circuit.
    Dead,
    /// Folded, rewritten, or merged by an optimization: the tape holds
    /// no faithful image of the component, so fault campaigns must
    /// recompile the rewritten netlist for mutants at this site.
    Folded,
}

/// The IR for one circuit as it flows through the pass pipeline.
#[derive(Debug, Clone)]
pub struct CompileIr {
    /// Ops in topological order (defs strictly before uses).
    pub ops: Vec<IrOp>,
    /// Total value ids allocated (substitutions may leave some unused).
    pub n_vals: u32,
    /// Number of primary inputs; they own value ids `0..n_inputs`.
    pub n_inputs: u32,
    /// Designated output values, in output order.
    pub outputs: Vec<ValId>,
    /// Canonical constant-`false` value (always defined by an op).
    pub const_false: ValId,
    /// Canonical constant-`true` value (always defined by an op).
    pub const_true: ValId,
    /// Fate of each source component, indexed by component.
    pub comp_fate: Vec<CompFate>,
    /// Wire count of the source circuit (for slot-savings reporting).
    pub source_wires: u32,
}

/// Lowers a netlist into the IR: two canonical constant ops first (so
/// constant-propagation always has a `false`/`true` value to alias to;
/// DCE drops them when unused), then the circuit's constant wires, then
/// every component in builder (topological) order.
pub fn lower(c: &Circuit) -> CompileIr {
    let n_inputs = c.n_inputs() as u32;
    let mut next_val = n_inputs;
    let mut fresh = |n: usize| {
        let v = next_val;
        next_val += n as u32;
        v
    };

    let mut wire_val = vec![NO_COMP; c.n_wires()];
    for (i, w) in c.input_wires().iter().enumerate() {
        wire_val[w.index()] = i as u32;
    }

    let comps = c.components();
    let mut ops = Vec::with_capacity(comps.len() + c.const_wires().len() + 2);

    let push_const = |ops: &mut Vec<IrOp>, v: bool, def: ValId| {
        ops.push(IrOp {
            kind: IrKind::Const { v },
            defs: [def, 0, 0, 0],
            comp: NO_COMP,
            level: 0,
        });
    };

    let const_false = fresh(1);
    push_const(&mut ops, false, const_false);
    let const_true = fresh(1);
    push_const(&mut ops, true, const_true);

    for &(w, v) in c.const_wires() {
        let def = fresh(1);
        wire_val[w.index()] = def;
        push_const(&mut ops, v, def);
    }

    for (ci, p) in comps.iter().enumerate() {
        let n_out = p.comp.n_outputs();
        let base = fresh(n_out);
        let mut defs = [0u32; 4];
        for (k, d) in defs.iter_mut().enumerate().take(n_out) {
            *d = base + k as u32;
            wire_val[p.out_base as usize + k] = *d;
        }
        let v = |w: &crate::wire::Wire| wire_val[w.index()];
        let kind = match &p.comp {
            Component::Not { a } => IrKind::Not { a: v(a) },
            Component::Gate { op, a, b } => IrKind::Gate {
                op: *op,
                a: v(a),
                b: v(b),
            },
            Component::Mux2 { sel, a0, a1 } => IrKind::Mux {
                s: v(sel),
                a1: v(a1),
                a0: v(a0),
            },
            Component::Demux2 { sel, x } => IrKind::Demux { s: v(sel), x: v(x) },
            Component::Switch2 { ctrl, a, b } => IrKind::Switch2 {
                s: v(ctrl),
                a: v(a),
                b: v(b),
            },
            Component::BitCompare { a, b } => IrKind::BitCompare { a: v(a), b: v(b) },
            Component::Switch4 { s1, s0, ins, perms } => IrKind::Switch4 {
                s1: v(s1),
                s0: v(s0),
                ins: [v(&ins[0]), v(&ins[1]), v(&ins[2]), v(&ins[3])],
                perms: *perms,
            },
        };
        ops.push(IrOp {
            kind,
            defs,
            comp: ci as u32,
            level: 0,
        });
    }

    let outputs = c
        .output_wires()
        .iter()
        .map(|w| wire_val[w.index()])
        .collect();

    CompileIr {
        ops,
        n_vals: next_val,
        n_inputs,
        outputs,
        const_false,
        const_true,
        comp_fate: vec![CompFate::Live; comps.len()],
        source_wires: c.n_wires() as u32,
    }
}

impl CompileIr {
    /// Number of source components.
    #[inline]
    pub fn source_components(&self) -> usize {
        self.comp_fate.len()
    }

    /// Marks a component folded (never downgrades `Folded`; upgrading
    /// `Dead` to `Folded` is impossible because folding passes run
    /// before DCE). No-op for [`NO_COMP`].
    pub fn fold_comp(&mut self, comp: u32) {
        if comp != NO_COMP {
            self.comp_fate[comp as usize] = CompFate::Folded;
        }
    }

    /// Drops every op whose `keep` flag is false, preserving order.
    pub fn retain_ops(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.ops.len());
        let mut i = 0;
        self.ops.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }

    /// Evaluates the IR on 64 packed input vectors (bit `j` of
    /// `inputs[i]` is input `i` of vector `j`) by one forward scan —
    /// the reference executor the per-pass differential check compares
    /// against the interpreter.
    pub fn eval_lanes(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.n_inputs as usize, "input arity");
        let mut vals = vec![0u64; self.n_vals as usize];
        vals[..inputs.len()].copy_from_slice(inputs);
        for op in &self.ops {
            let d = op.defs;
            match op.kind {
                IrKind::Const { v } => vals[d[0] as usize] = if v { !0 } else { 0 },
                IrKind::Not { a } => vals[d[0] as usize] = !vals[a as usize],
                IrKind::Gate { op: g, a, b } => {
                    let (x, y) = (vals[a as usize], vals[b as usize]);
                    vals[d[0] as usize] = match g {
                        GateOp::And => x & y,
                        GateOp::Or => x | y,
                        GateOp::Xor => x ^ y,
                        GateOp::Nand => !(x & y),
                        GateOp::Nor => !(x | y),
                        GateOp::Xnor => !(x ^ y),
                    };
                }
                IrKind::Mux { s, a1, a0 } => {
                    let sv = vals[s as usize];
                    vals[d[0] as usize] = (sv & vals[a1 as usize]) | (!sv & vals[a0 as usize]);
                }
                IrKind::Demux { s, x } => {
                    let (sv, xv) = (vals[s as usize], vals[x as usize]);
                    vals[d[0] as usize] = !sv & xv;
                    vals[d[1] as usize] = sv & xv;
                }
                IrKind::Switch2 { s, a, b } => {
                    let (sv, av, bv) = (vals[s as usize], vals[a as usize], vals[b as usize]);
                    vals[d[0] as usize] = (sv & bv) | (!sv & av);
                    vals[d[1] as usize] = (sv & av) | (!sv & bv);
                }
                IrKind::BitCompare { a, b } => {
                    let (av, bv) = (vals[a as usize], vals[b as usize]);
                    vals[d[0] as usize] = av & bv;
                    vals[d[1] as usize] = av | bv;
                }
                IrKind::Switch4 { s1, s0, ins, perms } => {
                    let (v1, v0) = (vals[s1 as usize], vals[s0 as usize]);
                    let m = [!v1 & !v0, !v1 & v0, v1 & !v0, v1 & v0];
                    let iv = [
                        vals[ins[0] as usize],
                        vals[ins[1] as usize],
                        vals[ins[2] as usize],
                        vals[ins[3] as usize],
                    ];
                    for j in 0..4 {
                        vals[d[j] as usize] = (m[0] & iv[perms[0][j] as usize])
                            | (m[1] & iv[perms[1][j] as usize])
                            | (m[2] & iv[perms[2][j] as usize])
                            | (m[3] & iv[perms[3][j] as usize]);
                    }
                }
            }
        }
        self.outputs.iter().map(|&o| vals[o as usize]).collect()
    }

    /// Checks the structural invariants passes must preserve: value ids
    /// in range, defs strictly before uses, SSA single-definition, and
    /// outputs defined. Used by debug assertions in the pass manager.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut defined = vec![false; self.n_vals as usize];
        for v in 0..self.n_inputs {
            defined[v as usize] = true;
        }
        for (i, op) in self.ops.iter().enumerate() {
            let mut err = None;
            op.kind.for_each_use(|v| {
                if err.is_none() {
                    if v >= self.n_vals {
                        err = Some(format!("op {i}: use {v} out of range"));
                    } else if !defined[v as usize] {
                        err = Some(format!("op {i}: use {v} before definition"));
                    }
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            for &d in op.defs() {
                if d >= self.n_vals {
                    return Err(format!("op {i}: def {d} out of range"));
                }
                if defined[d as usize] {
                    return Err(format!("op {i}: value {d} defined twice"));
                }
                defined[d as usize] = true;
            }
        }
        for (k, &o) in self.outputs.iter().enumerate() {
            if o >= self.n_vals || !defined[o as usize] {
                return Err(format!("output {k}: value {o} undefined"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;

    fn sample() -> Circuit {
        let mut b = Builder::new();
        let ins = b.input_bus(3);
        let t = b.constant(true);
        let g = b.and(ins[0], ins[1]);
        let m = b.mux2(ins[2], g, t);
        b.outputs(&[m, g]);
        b.finish()
    }

    #[test]
    fn lower_preserves_structure() {
        let c = sample();
        let ir = lower(&c);
        assert_eq!(ir.n_inputs, 3);
        // 2 canonical consts + 1 circuit const + 2 components.
        assert_eq!(ir.ops.len(), 5);
        assert_eq!(ir.source_components(), 2);
        assert!(ir.check_invariants().is_ok());
    }

    #[test]
    fn ir_eval_matches_interpreter() {
        let c = sample();
        let ir = lower(&c);
        let n = c.n_inputs();
        let mut packed = vec![0u64; n];
        for v in 0..1u64 << n {
            for (i, p) in packed.iter_mut().enumerate() {
                if v >> i & 1 == 1 {
                    *p |= 1 << v;
                }
            }
        }
        assert_eq!(ir.eval_lanes(&packed), c.eval_lanes(&packed));
    }
}
