//! Register allocation and tape emission: the final pipeline stage,
//! turning scheduled [`CompileIr`] into a [`CompiledCircuit`].
//!
//! Values live in *slots* that are freed at their last read and reused
//! (last-use liveness over the scheduled op order), so the working
//! buffer shrinks from `n_wires` entries to the peak live-value count.
//! Destinations may reuse a dying operand's slot because every micro-op
//! reads all of its sources before writing. Definitions nothing reads
//! (an unused demux branch, an ignored input) share one scratch slot.

use crate::compile::{CompiledCircuit, MicroOp, COMP_DEAD};
use crate::component::{GateOp, Perm4};
use crate::ir::{CompFate, CompileIr, IrKind, NO_COMP};

/// Sentinel: value is never read and is not an output.
const DEAD: u32 = u32::MAX;
/// Sentinel: value is a designated output — live to the end.
const FOREVER: u32 = u32::MAX - 1;

/// Slot free-list allocator with a high-water mark.
struct SlotAlloc {
    free: Vec<u32>,
    next: u32,
}

impl SlotAlloc {
    fn get(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let s = self.next;
            self.next += 1;
            s
        })
    }
}

/// Index of `set` in the deduplicated permutation table, appending it
/// if absent. Circuits draw from a handful of distinct sets, so the
/// linear scan is cheap and keeps the table minimal.
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn intern_perms(perm_sets: &mut Vec<[Perm4; 4]>, set: [Perm4; 4]) -> u32 {
    perm_sets.iter().position(|p| *p == set).unwrap_or_else(|| {
        perm_sets.push(set);
        perm_sets.len() - 1
    }) as u32
}

/// Allocates slots for a scheduled IR and emits the micro-op tape.
pub fn allocate(ir: &CompileIr) -> CompiledCircuit {
    let n_vals = ir.n_vals as usize;

    // ---- last-use liveness over scheduled op positions ----------------
    let mut last_use = vec![DEAD; n_vals];
    for (pos, op) in ir.ops.iter().enumerate() {
        op.kind.for_each_use(|v| last_use[v as usize] = pos as u32);
    }
    for &o in &ir.outputs {
        last_use[o as usize] = FOREVER;
    }

    // ---- forward scan: allocate slots and emit --------------------------
    let mut alloc = SlotAlloc {
        free: Vec::new(),
        next: 0,
    };
    let mut slot_of = vec![u32::MAX; n_vals];
    let mut scratch: Option<u32> = None;

    let mut input_slots = Vec::with_capacity(ir.n_inputs as usize);
    for v in 0..ir.n_inputs {
        let s = if last_use[v as usize] == DEAD {
            *scratch.get_or_insert_with(|| alloc.get())
        } else {
            let s = alloc.get();
            slot_of[v as usize] = s;
            s
        };
        input_slots.push(s);
    }

    let mut tape = Vec::with_capacity(ir.ops.len());
    let mut perm_sets: Vec<[Perm4; 4]> = Vec::new();
    let mut level_ranges: Vec<(u32, u32)> = Vec::new();
    let mut cur_level = 0u32;
    let mut prologue_len = 0u32;
    let mut dying: Vec<u32> = Vec::new();
    let mut comp_pos = vec![COMP_DEAD; ir.source_components()];

    for (pos, op) in ir.ops.iter().enumerate() {
        // Free the slots of operands that die at this op *before*
        // allocating destinations, so a destination can reuse a dying
        // operand's slot (ops read all sources before writing).
        dying.clear();
        op.kind.for_each_use(|v| {
            if last_use[v as usize] == pos as u32 {
                let s = slot_of[v as usize];
                if !dying.contains(&s) {
                    dying.push(s);
                }
            }
        });

        let is_const = matches!(op.kind, IrKind::Const { .. });
        if is_const {
            debug_assert_eq!(tape.len() as u32, prologue_len, "consts must lead the tape");
            prologue_len += 1;
        } else if op.level != cur_level {
            let at = tape.len() as u32;
            level_ranges.push((at, at));
            cur_level = op.level;
        }
        alloc.free.extend_from_slice(&dying);

        let mut ds = [0u32; 4];
        for (k, &def) in op.defs().iter().enumerate() {
            ds[k] = if last_use[def as usize] == DEAD {
                *scratch.get_or_insert_with(|| alloc.get())
            } else {
                let s = alloc.get();
                slot_of[def as usize] = s;
                s
            };
        }

        if op.comp != NO_COMP {
            comp_pos[op.comp as usize] = tape.len() as u32;
        }

        let slot = |v: u32| slot_of[v as usize];
        tape.push(match op.kind {
            IrKind::Const { v } => MicroOp::Const { d: ds[0], v },
            IrKind::Not { a } => MicroOp::Not {
                d: ds[0],
                a: slot(a),
            },
            IrKind::Gate { op: g, a, b } => {
                let (a, b) = (slot(a), slot(b));
                let d = ds[0];
                match g {
                    GateOp::And => MicroOp::And { d, a, b },
                    GateOp::Or => MicroOp::Or { d, a, b },
                    GateOp::Xor => MicroOp::Xor { d, a, b },
                    GateOp::Nand => MicroOp::Nand { d, a, b },
                    GateOp::Nor => MicroOp::Nor { d, a, b },
                    GateOp::Xnor => MicroOp::Xnor { d, a, b },
                }
            }
            IrKind::Mux { s, a1, a0 } => MicroOp::Mux {
                d: ds[0],
                s: slot(s),
                a1: slot(a1),
                a0: slot(a0),
            },
            IrKind::Demux { s, x } => MicroOp::Demux {
                d0: ds[0],
                d1: ds[1],
                s: slot(s),
                x: slot(x),
            },
            IrKind::Switch2 { s, a, b } => MicroOp::Switch2 {
                d0: ds[0],
                d1: ds[1],
                s: slot(s),
                a: slot(a),
                b: slot(b),
            },
            IrKind::BitCompare { a, b } => MicroOp::BitCompare {
                d0: ds[0],
                d1: ds[1],
                a: slot(a),
                b: slot(b),
            },
            IrKind::Switch4 { s1, s0, ins, perms } => MicroOp::Switch4 {
                d: ds,
                ins: [slot(ins[0]), slot(ins[1]), slot(ins[2]), slot(ins[3])],
                s1: slot(s1),
                s0: slot(s0),
                pidx: intern_perms(&mut perm_sets, perms),
            },
        });
        if !is_const {
            if let Some(last) = level_ranges.last_mut() {
                last.1 = tape.len() as u32;
            }
        }
    }

    debug_assert!(
        ir.comp_fate
            .iter()
            .enumerate()
            .all(|(ci, f)| (*f == CompFate::Live) == (comp_pos[ci] != COMP_DEAD)),
        "a live component without a tape op, or a dead one with one"
    );

    let output_slots: Vec<u32> = ir.outputs.iter().map(|&o| slot_of[o as usize]).collect();

    CompiledCircuit {
        tape,
        perm_sets,
        n_slots: alloc.next,
        input_slots,
        output_slots,
        prologue_len,
        level_ranges,
        comp_pos,
        source_wires: ir.source_wires,
        source_components: ir.source_components() as u32,
        pass_stats: Vec::new(),
    }
}
