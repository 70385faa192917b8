//! Dead-code elimination: drop every op no designated output observes.
//!
//! One backward scan marks the output cone; everything else is deleted.
//! A component removed here is marked [`crate::ir::CompFate::Dead`] —
//! a fault in it is output-equivalent to the base circuit, so fault
//! campaigns skip evaluating it entirely.

use crate::ir::{CompFate, CompileIr, NO_COMP};
use crate::passes::Pass;

/// See the module docs.
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, ir: &mut CompileIr) {
        let mut used = vec![false; ir.n_vals as usize];
        for &o in &ir.outputs {
            used[o as usize] = true;
        }
        let mut keep = vec![true; ir.ops.len()];
        for (i, op) in ir.ops.iter().enumerate().rev() {
            let live = op.defs().iter().any(|&d| used[d as usize]);
            if live {
                op.kind.for_each_use(|v| used[v as usize] = true);
            } else {
                keep[i] = false;
                if op.comp != NO_COMP {
                    ir.comp_fate[op.comp as usize] = CompFate::Dead;
                }
            }
        }
        ir.retain_ops(&keep);
    }
}
