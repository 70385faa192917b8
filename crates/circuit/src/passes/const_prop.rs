//! Constant propagation through gates, muxes, and switches.
//!
//! A single forward scan (topological order makes one scan a fixpoint)
//! tracks which values are known constants and folds every op whose
//! result is forced: a switch with a known select lowers to plain
//! wires, a gate with a constant operand collapses to an alias, a
//! constant, or an inverter. Each fold is valid *pointwise* — it holds
//! for every value of the remaining non-constant operands — which is
//! what keeps downstream dead-code elimination sound for fault
//! campaigns (see `DESIGN.md`).
//!
//! Every component this pass removes **or rewrites** is marked
//! [`crate::ir::CompFate::Folded`]: the tape no longer carries a
//! faithful image of the component, so in-place fault patching must
//! not touch it (e.g. patching an `Or` that used to be a `Mux` would
//! apply the wrong fault semantics), and its mutants recompile.

use crate::component::GateOp;
use crate::ir::{CompileIr, IrKind, ValId};
use crate::passes::Pass;

/// See the module docs.
pub struct ConstProp;

impl Pass for ConstProp {
    fn name(&self) -> &'static str {
        "const-prop"
    }

    #[allow(clippy::too_many_lines)]
    fn run(&self, ir: &mut CompileIr) {
        let mut subst: Vec<ValId> = (0..ir.n_vals).collect();
        let mut cv: Vec<Option<bool>> = vec![None; ir.n_vals as usize];
        let mut keep = vec![true; ir.ops.len()];
        let (cf, ct) = (ir.const_false, ir.const_true);
        let cval = |v: bool| if v { ct } else { cf };

        let mut folded: Vec<u32> = Vec::new();
        for (i, op) in ir.ops.iter_mut().enumerate() {
            op.kind.map_uses(|v| subst[v as usize]);
            let d = op.defs;
            // The fold decision for this op: aliases for each def
            // (None = op survives unchanged), or an in-place rewrite.
            enum Act {
                Keep,
                /// Delete the op; def `k` becomes alias `alias[k]`.
                Alias([ValId; 4]),
                /// Rewrite in place to `defs[0] = !a` (single def); the
                /// remaining defs (if any) become the given aliases.
                ToNot(ValId, [Option<ValId>; 4]),
            }
            let act = match op.kind {
                IrKind::Const { v } => {
                    cv[d[0] as usize] = Some(v);
                    Act::Keep
                }
                IrKind::Not { a } => match cv[a as usize] {
                    Some(x) => Act::Alias([cval(!x), 0, 0, 0]),
                    None => Act::Keep,
                },
                IrKind::Gate { op: g, a, b } => {
                    let (ca, cb) = (cv[a as usize], cv[b as usize]);
                    if let (Some(x), Some(y)) = (ca, cb) {
                        Act::Alias([cval(g.apply(x, y)), 0, 0, 0])
                    } else if a == b {
                        match g {
                            GateOp::And | GateOp::Or => Act::Alias([a, 0, 0, 0]),
                            GateOp::Xor => Act::Alias([cf, 0, 0, 0]),
                            GateOp::Xnor => Act::Alias([ct, 0, 0, 0]),
                            GateOp::Nand | GateOp::Nor => Act::ToNot(a, [None; 4]),
                        }
                    } else if let Some((c, other)) = match (ca, cb) {
                        (Some(x), None) => Some((x, b)),
                        (None, Some(y)) => Some((y, a)),
                        _ => None,
                    } {
                        match (g, c) {
                            (GateOp::And, true) | (GateOp::Or | GateOp::Xor, false) => {
                                Act::Alias([other, 0, 0, 0])
                            }
                            (GateOp::And, false) | (GateOp::Nor, true) => Act::Alias([cf, 0, 0, 0]),
                            (GateOp::Or, true) | (GateOp::Nand, false) => Act::Alias([ct, 0, 0, 0]),
                            (GateOp::Xnor, true) => Act::Alias([other, 0, 0, 0]),
                            (GateOp::Xor | GateOp::Nand, true)
                            | (GateOp::Nor | GateOp::Xnor, false) => Act::ToNot(other, [None; 4]),
                        }
                    } else {
                        Act::Keep
                    }
                }
                IrKind::Mux { s, a1, a0 } => match cv[s as usize] {
                    Some(v) => Act::Alias([if v { a1 } else { a0 }, 0, 0, 0]),
                    // Identical arms: either select emits the same value.
                    None if a1 == a0 => Act::Alias([a1, 0, 0, 0]),
                    None => Act::Keep,
                },
                IrKind::Demux { s, x } => match (cv[s as usize], cv[x as usize]) {
                    (Some(false), _) => Act::Alias([x, cf, 0, 0]),
                    (Some(true), _) => Act::Alias([cf, x, 0, 0]),
                    // x ≡ 0: both outputs are 0.
                    (None, Some(false)) => Act::Alias([cf, cf, 0, 0]),
                    // d0 = !s (the inverter keeps def 0), d1 = s.
                    (None, Some(true)) => Act::ToNot(s, [None, Some(s), None, None]),
                    (None, None) => Act::Keep,
                },
                IrKind::Switch2 { s, a, b } => match cv[s as usize] {
                    Some(v) => Act::Alias(if v { [b, a, 0, 0] } else { [a, b, 0, 0] }),
                    // Equal operands: pass and cross are the same routing.
                    None if a == b => Act::Alias([a, a, 0, 0]),
                    None => Act::Keep,
                },
                IrKind::BitCompare { a, b } => {
                    let (ca, cb) = (cv[a as usize], cv[b as usize]);
                    if a == b {
                        // min = max = a.
                        Act::Alias([a, a, 0, 0])
                    } else if let (Some(x), Some(y)) = (ca, cb) {
                        Act::Alias([cval(x & y), cval(x | y), 0, 0])
                    } else if let Some((c, other)) = match (ca, cb) {
                        (Some(x), None) => Some((x, b)),
                        (None, Some(y)) => Some((y, a)),
                        _ => None,
                    } {
                        if c {
                            // min = other, max = 1.
                            Act::Alias([other, ct, 0, 0])
                        } else {
                            // min = 0, max = other.
                            Act::Alias([cf, other, 0, 0])
                        }
                    } else {
                        Act::Keep
                    }
                }
                IrKind::Switch4 { s1, s0, ins, perms } => {
                    match (cv[s1 as usize], cv[s0 as usize]) {
                        (Some(h), Some(l)) => {
                            let sel = usize::from(h) * 2 + usize::from(l);
                            let p = perms[sel];
                            Act::Alias([
                                ins[p[0] as usize],
                                ins[p[1] as usize],
                                ins[p[2] as usize],
                                ins[p[3] as usize],
                            ])
                        }
                        _ => Act::Keep,
                    }
                }
            };
            match act {
                Act::Keep => {}
                Act::Alias(alias) => {
                    for (k, &def) in op.defs().iter().enumerate() {
                        subst[def as usize] = alias[k];
                        cv[def as usize] = cv[alias[k] as usize];
                    }
                    keep[i] = false;
                    folded.push(op.comp);
                }
                Act::ToNot(a, extra) => {
                    for (k, &def) in op.defs().iter().enumerate() {
                        if let Some(t) = extra[k] {
                            subst[def as usize] = t;
                            cv[def as usize] = cv[t as usize];
                        }
                    }
                    op.kind = IrKind::Not { a };
                    op.defs = [d[0], 0, 0, 0];
                    folded.push(op.comp);
                }
            }
        }
        for comp in folded {
            ir.fold_comp(comp);
        }
        for o in &mut ir.outputs {
            *o = subst[*o as usize];
        }
        ir.retain_ops(&keep);
    }
}
