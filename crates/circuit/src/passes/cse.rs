//! Structural hashing / common-subexpression elimination.
//!
//! Sorting networks assembled from repeated merger blocks (and the
//! self-checking wrappers around them) recompute identical functions of
//! identical values — e.g. two control decoders fed the same select
//! pair. One forward scan hashes every op by `(kind, operands)` —
//! sorting the operand pair *in the key only* for commutative ops, so
//! the surviving op's operand order (which fault patches rely on, e.g.
//! the comparator's `InvertBehaviour` encoding) is never disturbed —
//! and replaces later duplicates with the first occurrence.
//!
//! Provenance: merging two ops with distinct source components leaves
//! the tape with one op standing for both. Patching it would fault both
//! components at once, which no single-site netlist mutant does, so
//! **both** components are marked [`crate::ir::CompFate::Folded`] —
//! fault campaigns fall back to per-mutant recompiles for exactly those
//! sites.

use crate::component::Perm4;
use crate::ir::{CompileIr, IrKind, ValId};
use crate::passes::index::{pair, OpIndex};
use crate::passes::Pass;
use crate::regalloc::intern_perms;

/// Key of one op: the function it computes of its (substituted)
/// operand values, in four words. Word 0 holds the kind tag, the gate
/// op, and a 4×4 switch's perm set as an interned id; the operands
/// follow, two per word. Commutative operand pairs are stored sorted.
type Key = [u64; 4];

fn sorted(a: ValId, b: ValId) -> u64 {
    pair(a.min(b), a.max(b))
}

fn key_of(kind: &IrKind, perm_sets: &mut Vec<[Perm4; 4]>) -> Key {
    match *kind {
        IrKind::Const { v } => [u64::from(v) << 8, 0, 0, 0],
        IrKind::Not { a } => [1, u64::from(a), 0, 0],
        // Every two-input gate op is commutative.
        IrKind::Gate { op, a, b } => [2 | (op as u64) << 8, sorted(a, b), 0, 0],
        IrKind::Mux { s, a1, a0 } => [3, pair(s, a1), u64::from(a0), 0],
        IrKind::Demux { s, x } => [4, pair(s, x), 0, 0],
        IrKind::Switch2 { s, a, b } => [5, pair(s, a), u64::from(b), 0],
        IrKind::BitCompare { a, b } => [6, sorted(a, b), 0, 0],
        IrKind::Switch4 { s1, s0, ins, perms } => {
            let pid = intern_perms(perm_sets, perms);
            [
                7 | u64::from(pid) << 8,
                pair(s1, s0),
                pair(ins[0], ins[1]),
                pair(ins[2], ins[3]),
            ]
        }
    }
}

/// The index tag of a key: its words folded by multiply-rotate.
fn tag(key: &Key) -> u64 {
    key.iter().fold(0, |h, &w| {
        (h.rotate_left(26) ^ w).wrapping_mul(0x517C_C1B7_2722_0A95)
    })
}

/// See the module docs.
pub struct Cse;

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, ir: &mut CompileIr) {
        let mut subst: Vec<ValId> = (0..ir.n_vals).collect();
        let mut keep = vec![true; ir.ops.len()];
        // Key tag → op index of the first occurrence. A survivor is never
        // modified after it is inserted, so its key can be re-derived to
        // confirm a tag match.
        let mut seen = OpIndex::with_capacity(ir.ops.len());
        let mut perm_sets: Vec<[Perm4; 4]> = Vec::new();
        for i in 0..ir.ops.len() {
            ir.ops[i].kind.map_uses(|v| subst[v as usize]);
            let ops = &ir.ops;
            let key = key_of(&ops[i].kind, &mut perm_sets);
            let Some(s) = seen.find_or_insert(tag(&key), i as u32, |s| {
                key_of(&ops[s as usize].kind, &mut perm_sets) == key
            }) else {
                continue;
            };
            let (op, survivor) = (ops[i], ops[s as usize]);
            for (k, &def) in op.defs().iter().enumerate() {
                subst[def as usize] = survivor.defs[k];
            }
            keep[i] = false;
            ir.fold_comp(survivor.comp);
            ir.fold_comp(op.comp);
        }
        for o in &mut ir.outputs {
            *o = subst[*o as usize];
        }
        ir.retain_ops(&keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::component::GateOp;
    use crate::ir::{lower, CompFate, IrOp, NO_COMP};

    /// Lowers the netlist `build` makes, runs CSE, and returns the IR
    /// with the component ops that survived.
    fn cse(build: impl FnOnce(&mut Builder)) -> (CompileIr, Vec<IrOp>) {
        let mut b = Builder::new();
        build(&mut b);
        let mut ir = lower(&b.finish());
        Cse.run(&mut ir);
        let ops = ir
            .ops
            .iter()
            .filter(|op| op.comp != NO_COMP)
            .copied()
            .collect();
        (ir, ops)
    }

    #[test]
    fn commuted_operands_merge_into_the_first_op_as_written() {
        let (ir, ops) = cse(|b| {
            let x = b.input_bus(2);
            let first = b.and(x[1], x[0]);
            let second = b.and(x[0], x[1]);
            b.outputs(&[first, second]);
        });
        assert_eq!(ops.len(), 1, "and b a / and a b merge: {ops:?}");
        assert_eq!(
            ops[0].kind,
            IrKind::Gate {
                op: GateOp::And,
                a: 1,
                b: 0
            },
            "the survivor keeps its own operand order"
        );
        assert_eq!(ir.outputs, vec![ops[0].defs[0]; 2]);
        // The survivor stands for two components, so both fall back to
        // recompiles.
        assert_eq!(ir.comp_fate, vec![CompFate::Folded; 2]);
    }

    #[test]
    fn switch4s_merge_only_when_their_perm_sets_match() {
        const IDENTITY: [Perm4; 4] = [[0, 1, 2, 3]; 4];
        const SWAPS: [Perm4; 4] = [[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 3, 2], [1, 0, 3, 2]];
        let (ir, ops) = cse(|b| {
            let x = b.input_bus(6);
            let ins = [x[2], x[3], x[4], x[5]];
            let mut outs = Vec::new();
            for perms in [IDENTITY, IDENTITY, SWAPS, SWAPS] {
                outs.extend(b.switch4(x[0], x[1], ins, perms));
            }
            b.outputs(&outs);
        });
        let perms: Vec<_> = ops
            .iter()
            .map(|op| match op.kind {
                IrKind::Switch4 { perms, .. } => perms,
                other => panic!("unexpected op {other:?}"),
            })
            .collect();
        assert_eq!(perms, vec![IDENTITY, SWAPS]);
        assert_eq!(ir.outputs[..4], ops[0].defs);
        assert_eq!(ir.outputs[4..8], ops[0].defs);
        assert_eq!(ir.outputs[8..12], ops[1].defs);
        assert_eq!(ir.outputs[12..], ops[1].defs);
    }

    #[test]
    fn different_gate_ops_over_the_same_operands_stay_apart() {
        let gates = [
            GateOp::And,
            GateOp::Or,
            GateOp::Xor,
            GateOp::Nand,
            GateOp::Nor,
            GateOp::Xnor,
        ];
        let (ir, ops) = cse(|b| {
            let x = b.input_bus(2);
            let outs: Vec<_> = gates.iter().map(|&g| b.gate(g, x[0], x[1])).collect();
            b.outputs(&outs);
        });
        assert_eq!(ops.len(), gates.len());
        assert!(ir.comp_fate.iter().all(|&f| f == CompFate::Live));
    }
}
