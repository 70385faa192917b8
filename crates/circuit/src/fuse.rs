//! Post-regalloc superinstruction fusion (the `fuse` pass).
//!
//! Runs on the finished [`CompiledCircuit`] tape — after scheduling and
//! slot allocation, so fusion is pure re-bracketing: the fused tape
//! executes exactly the same slot reads and writes in exactly the same
//! order, it just pays fewer dispatches. Two superinstructions exist,
//! chosen from the `TapeProfile` hot-pair census of the catalog
//! networks (see `absort inspect --profile` and DESIGN.md §3.10):
//!
//! * [`MicroOp::S4Chain`] — a maximal run of 4×4 switches flagged by the
//!   mask-reuse pass (one swapper column steered by a shared control
//!   pair) collapses into one dispatch; the select masks are computed
//!   once and stay in registers for the whole run. On the mux-merger
//!   tapes these runs carry >80% of evaluation time.
//! * [`MicroOp::Pair2`] — two adjacent pair-fusible simple ops (gates,
//!   bit comparators, 2×2 switches, muxes) execute under one dispatch.
//!   This is the dominant shape on the prefix-sorter tapes, which
//!   contain no 4×4 switches at all.
//!
//! Fusion never crosses a depth-level boundary, so
//! [`CompiledCircuit::level_ranges`] still tiles the tape (the tape
//! profiler's per-level attribution relies on it). A mask-reuse
//! op left at a level head (its mask source sits in the previous level)
//! has its [`REUSE_MASKS`] flag cleared instead — recomputing the masks
//! is sound because the reuse flag itself certifies the control slots
//! are unchanged. Consequently a fused tape contains **no** standalone
//! mask-reuse ops: every reuse either joined a chain or was dropped.
//!
//! **Provenance:** a component absorbed into a superinstruction loses
//! its patchable tape image, so its [`CompiledCircuit::comp_pos`] entry
//! becomes `COMP_FOLDED` — fault campaigns recompile mutants at those
//! sites and stay bit-identical with the unfused tape (pinned by
//! `tests/fused_differential.rs`).

use crate::compile::{CompiledCircuit, MicroOp, S4ChainData, S4Item, COMP_FOLDED, REUSE_MASKS};
use crate::dispatch::pair_code;
use crate::passes::PassStats;

/// Rewrites `cc`'s tape in place with superinstructions (see the module
/// docs), appending a `"fuse"` row to [`CompiledCircuit::pass_stats`].
/// Enabled by `CompileOptions::fuse`; idempotent in effect (a second run
/// finds no fusible adjacencies among superinstructions) but intended to
/// run once, at the end of [`CompiledCircuit::compile_with`].
pub fn fuse(cc: &mut CompiledCircuit) {
    let ops_before = cc.tape.len();

    // Reverse map: tape position → source component (Live comps only).
    let mut pos2comp: Vec<u32> = vec![u32::MAX; cc.tape.len()];
    for (comp, &pos) in cc.comp_pos.iter().enumerate() {
        if (pos as usize) < cc.tape.len() {
            pos2comp[pos as usize] = comp as u32;
        }
    }

    let old = std::mem::take(&mut cc.tape);
    let mut tape: Vec<MicroOp> = Vec::with_capacity(old.len());
    let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(cc.level_ranges.len());
    let mut fused_pairs: Vec<[MicroOp; 2]> = Vec::new();
    let mut s4_chains: Vec<S4ChainData> = Vec::new();
    let mut s4_items: Vec<S4Item> = Vec::new();
    // (comp, new position) of ops that stayed standalone.
    let mut moved: Vec<(u32, u32)> = Vec::new();
    // Comps absorbed into superinstructions.
    let mut folded: Vec<u32> = Vec::new();

    // The constant prologue keeps its positions verbatim (fusing Const
    // pairs would save a handful of dispatches once per pass and cost
    // the prologue its patchability).
    tape.extend_from_slice(&old[..cc.prologue_len as usize]);

    for &(lstart, lend) in &cc.level_ranges {
        let new_start = tape.len() as u32;
        let (mut i, end) = (lstart as usize, lend as usize);
        while i < end {
            let mut op = old[i];
            if let MicroOp::Switch4 { pidx, .. } = &mut op {
                // A reuse op at a level head computed its masks in the
                // previous level; clear the flag (sound: the flag
                // certifies the control slots are unchanged) so this op
                // heads its own run.
                if i == lstart as usize {
                    *pidx &= !REUSE_MASKS;
                }
            }
            match op {
                MicroOp::Switch4 { s1, s0, pidx, .. } if pidx & REUSE_MASKS == 0 => {
                    // Maximal mask-reuse run headed here.
                    let mut j = i + 1;
                    while j < end
                        && matches!(old[j], MicroOp::Switch4 { pidx, .. }
                            if pidx & REUSE_MASKS != 0)
                    {
                        j += 1;
                    }
                    if j - i >= 2 {
                        let start = s4_items.len() as u32;
                        for (k, run_op) in old[i..j].iter().enumerate() {
                            if let MicroOp::Switch4 { d, ins, pidx, .. } = *run_op {
                                s4_items.push(S4Item {
                                    d,
                                    ins,
                                    pidx: pidx & !REUSE_MASKS,
                                });
                            }
                            if pos2comp[i + k] != u32::MAX {
                                folded.push(pos2comp[i + k]);
                            }
                        }
                        let idx = s4_chains.len() as u32;
                        s4_chains.push(S4ChainData {
                            s1,
                            s0,
                            start,
                            len: (j - i) as u32,
                        });
                        tape.push(MicroOp::S4Chain { idx });
                    } else {
                        if pos2comp[i] != u32::MAX {
                            moved.push((pos2comp[i], tape.len() as u32));
                        }
                        tape.push(op);
                    }
                    i = j;
                }
                MicroOp::Switch4 { .. } => {
                    unreachable!("orphan mask-reuse op at tape position {i}")
                }
                _ if pair_code(&op).is_some()
                    && i + 1 < end
                    && pair_code(&old[i + 1]).is_some() =>
                {
                    for p in [i, i + 1] {
                        if pos2comp[p] != u32::MAX {
                            folded.push(pos2comp[p]);
                        }
                    }
                    let idx = fused_pairs.len() as u32;
                    fused_pairs.push([op, old[i + 1]]);
                    tape.push(MicroOp::Pair2 { idx });
                    i += 2;
                }
                _ => {
                    if pos2comp[i] != u32::MAX {
                        moved.push((pos2comp[i], tape.len() as u32));
                    }
                    tape.push(op);
                    i += 1;
                }
            }
        }
        ranges.push((new_start, tape.len() as u32));
    }

    let ops_after = tape.len();
    cc.tape = tape;
    cc.level_ranges = ranges;
    cc.fused_pairs = fused_pairs;
    cc.s4_chains = s4_chains;
    cc.s4_items = s4_items;
    for (comp, pos) in moved {
        cc.comp_pos[comp as usize] = pos;
    }
    for comp in folded {
        cc.comp_pos[comp as usize] = COMP_FOLDED;
    }
    cc.pass_stats.push(PassStats {
        name: "fuse",
        ops_before,
        ops_after,
    });
    #[cfg(feature = "telemetry")]
    absort_telemetry::counter_add("compile.pass.fuse.fused", (ops_before - ops_after) as u64);
}
