//! The schedule stage (always on): levelize the IR and stable-sort ops
//! so constants form the prologue and component ops are grouped by
//! depth level — the layout regalloc turns into
//! `CompiledCircuit::level_ranges`.
//!
//! Levels follow the paper's unit-depth convention: inputs and
//! constants sit at level 0, and every op lands one past its deepest
//! operand. A stable sort by level keeps the original topological
//! order *within* each level, so defs still strictly precede uses.
//! Levels are small dense integers, so the sort is a counting sort:
//! count ops per level, turn the counts into start offsets, scatter op
//! indices in their original order, then gather — linear in the op
//! count.

use crate::ir::{CompileIr, IrKind};

/// Assigns [`crate::ir::IrOp::level`] and reorders `ir.ops` by level
/// (stable). Constants get level 0 and sort to the front.
pub fn schedule(ir: &mut CompileIr) {
    let mut val_level = vec![0u32; ir.n_vals as usize];
    let mut per_level: Vec<u32> = Vec::new();
    for op in &mut ir.ops {
        let mut m = 0u32;
        op.kind.for_each_use(|v| m = m.max(val_level[v as usize]));
        op.level = if matches!(op.kind, IrKind::Const { .. }) {
            0
        } else {
            m + 1
        };
        for &d in op.defs() {
            val_level[d as usize] = op.level;
        }
        let l = op.level as usize;
        if l >= per_level.len() {
            per_level.resize(l + 1, 0);
        }
        per_level[l] += 1;
    }
    let mut at = 0;
    for start in &mut per_level {
        (*start, at) = (at, at + *start);
    }
    let mut order = vec![0u32; ir.ops.len()];
    for (i, op) in ir.ops.iter().enumerate() {
        let start = &mut per_level[op.level as usize];
        order[*start as usize] = i as u32;
        *start += 1;
    }
    ir.ops = order.iter().map(|&i| ir.ops[i as usize]).collect();
}
