//! Compiled levelized evaluation: the [`MicroOp`] tape, its evaluator,
//! and in-place mutant patching.
//!
//! The enum-dispatch interpreter in [`crate::eval`] walks the component
//! list and indexes a wire buffer that is as wide as the netlist — for a
//! mux-merger at `n = 1024` that is hundreds of kilobytes touched per
//! pass, far beyond L1. The paper's Model A networks are pure
//! feed-forward bit-level circuits, which makes them ideal one-time
//! compilation targets (compare the explicit depth-staged forms used for
//! sorting-network verification in Bundala & Závodný, arXiv:1310.6271,
//! and Théry, arXiv:2203.01579).
//!
//! [`CompiledCircuit::compile`] runs the staged pipeline
//! `Circuit → CompileIr → PassManager → regalloc → CompiledCircuit`:
//! lowering lives in [`crate::ir`], every transform (constant prologue,
//! constant propagation, CSE, DCE) is a named pass in
//! [`crate::passes`], and slot allocation plus tape emission live in
//! [`crate::regalloc`]. [`CompiledCircuit::compile_with`] exposes the
//! pass set (`--opt-level` / `--passes` on the CLI); per-pass op counts
//! land in [`CompiledCircuit::pass_stats`]. The tape properties:
//!
//! * **fused micro-ops** — every primitive becomes a single opcode with
//!   `u32` slot operands (`Nand`/`Nor`/`Xnor` are single ops, not
//!   gate-plus-inverter; the 4×4 switch computes its four select masks
//!   once and drives all four outputs in one op);
//! * **register allocation by last-use liveness** — values live in
//!   *slots* that are freed at their last read and reused, so the working
//!   buffer shrinks from `n_wires` entries to the peak live-slot count.
//!   This is the real win at `n = 256+`: the hot buffer drops back into
//!   L1/L2 and stays there for the whole sweep;
//! * **levelization** — ops are emitted grouped by bit-level depth stage
//!   ([`CompiledCircuit::level_ranges`]); the tape profiler attributes
//!   time per level;
//! * **no dispatch hints** — the tape is a plain image of the netlist.
//!   Which ops share one dispatch (runs of 4×4 switches on one control
//!   pair, adjacent simple-op pairs) is decided when
//!   [`crate::dispatch`] decodes it, so an in-place mutant patch never
//!   has to repair a neighbour.
//!
//! [`CompiledEvaluator`] then replays the tape with the same `run` /
//! `run_into` / `try_*` surface as [`crate::Evaluator`], over any
//! [`Lane`] type, through the threaded program of [`crate::dispatch`];
//! [`CompiledEvaluator::run_into_profiled`] walks that same program with
//! per-op attribution. A caller that evaluates one tape many times, such
//! as the sorting service, decodes it once into a [`Decoded`] program and
//! builds each evaluator on it with [`CompiledEvaluator::with_decoded`].
//! Equivalence with the interpreter is enforced by the differential
//! suites (`crates/circuit/tests/differential.rs`, the workspace-level
//! `tests/compiled_differential.rs` and `tests/pass_pipeline.rs`) plus
//! the pass manager's own per-pass differential check.

use std::sync::Arc;

use crate::circuit::Circuit;
use crate::component::Perm4;
use crate::dispatch::Program;
use crate::eval::EvalError;
use crate::lane::Lane;
use crate::mutate::Fault;
use crate::passes::{CompileOptions, PassManager, PassStats};
use crate::regalloc::intern_perms;

/// Which evaluation engine a driver should use. Sweep drivers (exhaustive
/// verification, fault campaigns, batch sorting) default to
/// [`Engine::Compiled`]; the interpreter remains available for
/// differential testing and for one-shot evaluations where the lowering
/// pass would not amortize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The enum-dispatch interpreter ([`crate::Evaluator`]).
    Interp,
    /// The compiled micro-op tape ([`CompiledEvaluator`]).
    #[default]
    Compiled,
}

impl Engine {
    /// Both engines, in differential-test order.
    pub const ALL: [Engine; 2] = [Engine::Interp, Engine::Compiled];

    /// Stable name used by CLIs, reports, and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Interp => "interp",
            Engine::Compiled => "compiled",
        }
    }

    /// Parses a CLI `--engine` value (case-insensitive).
    pub fn parse(s: &str) -> Option<Engine> {
        match s.trim().to_ascii_lowercase().as_str() {
            "interp" | "interpreter" => Some(Engine::Interp),
            "compiled" | "compile" => Some(Engine::Compiled),
            _ => None,
        }
    }

    /// The accepted `--engine` spellings, for CLI error messages.
    pub const VALID: &'static str = "interp, interpreter, compiled, compile";
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One fused instruction of the compiled tape. All operands are *slot*
/// indices into the evaluator's working buffer (not wire indices — slots
/// are reused once their value is dead). Destination fields are named
/// `d`/`d0`/`d1`; a destination may legally alias a source slot, because
/// every op reads all of its sources before writing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// Prologue splat of a constant into a slot.
    Const {
        /// Destination slot.
        d: u32,
        /// The constant value.
        v: bool,
    },
    /// `d = !a`.
    Not {
        /// Destination slot.
        d: u32,
        /// Source slot.
        a: u32,
    },
    /// `d = a & b`.
    And {
        /// Destination slot.
        d: u32,
        /// First source slot.
        a: u32,
        /// Second source slot.
        b: u32,
    },
    /// `d = a | b`.
    Or {
        /// Destination slot.
        d: u32,
        /// First source slot.
        a: u32,
        /// Second source slot.
        b: u32,
    },
    /// `d = a ^ b`.
    Xor {
        /// Destination slot.
        d: u32,
        /// First source slot.
        a: u32,
        /// Second source slot.
        b: u32,
    },
    /// `d = !(a & b)` — fused, no separate inverter op.
    Nand {
        /// Destination slot.
        d: u32,
        /// First source slot.
        a: u32,
        /// Second source slot.
        b: u32,
    },
    /// `d = !(a | b)` — fused.
    Nor {
        /// Destination slot.
        d: u32,
        /// First source slot.
        a: u32,
        /// Second source slot.
        b: u32,
    },
    /// `d = !(a ^ b)` — fused.
    Xnor {
        /// Destination slot.
        d: u32,
        /// First source slot.
        a: u32,
        /// Second source slot.
        b: u32,
    },
    /// `d = s ? a1 : a0` (per lane).
    Mux {
        /// Destination slot.
        d: u32,
        /// Select slot.
        s: u32,
        /// Taken when the select lane is 1.
        a1: u32,
        /// Taken when the select lane is 0.
        a0: u32,
    },
    /// `d0 = !s & x`, `d1 = s & x`.
    Demux {
        /// Slot for the `sel = 0` branch.
        d0: u32,
        /// Slot for the `sel = 1` branch.
        d1: u32,
        /// Select slot.
        s: u32,
        /// Data slot.
        x: u32,
    },
    /// `d0 = s ? b : a`, `d1 = s ? a : b`.
    Switch2 {
        /// Upper output slot.
        d0: u32,
        /// Lower output slot.
        d1: u32,
        /// Control slot.
        s: u32,
        /// Upper input slot.
        a: u32,
        /// Lower input slot.
        b: u32,
    },
    /// `d0 = a`, `d1 = b` — a fixed two-way route. Lowering never emits
    /// this; [`CompiledCircuit::mutant_tape`] uses it to express a 2×2
    /// switch whose control line is stuck at a constant.
    Route2 {
        /// Upper output slot.
        d0: u32,
        /// Lower output slot.
        d1: u32,
        /// Slot routed to `d0`.
        a: u32,
        /// Slot routed to `d1`.
        b: u32,
    },
    /// `d0 = a & b` (min), `d1 = a | b` (max) — both halves in one op.
    BitCompare {
        /// Min output slot.
        d0: u32,
        /// Max output slot.
        d1: u32,
        /// First source slot.
        a: u32,
        /// Second source slot.
        b: u32,
    },
    /// Fused 4×4 switch. The four select masks are computed once and
    /// reused across all four outputs — and, when the previous op is a
    /// 4×4 switch over the same unclobbered control slots (one swapper
    /// column; see [`shares_controls`]), decode shares them across the
    /// whole run.
    Switch4 {
        /// The four destination slots.
        d: [u32; 4],
        /// The four data-input slots.
        ins: [u32; 4],
        /// High select-bit slot.
        s1: u32,
        /// Low select-bit slot.
        s0: u32,
        /// Index into [`CompiledCircuit::perm_sets`] (circuits draw from
        /// a handful of distinct permutation sets, so the table stays
        /// cache-resident).
        pidx: u32,
    },
}

/// The control-identity rule: `op` is a 4×4 switch reading the same
/// control slots as `prev`, also a 4×4 switch, and `prev` wrote neither
/// slot. The select masks (or the scalar 2-bit index) computed for
/// `prev` are then valid for `op`, so [`crate::dispatch`] chains such
/// runs into one instruction and [`crate::emit`] shares one set of mask
/// temporaries across them.
pub(crate) fn shares_controls(prev: &MicroOp, op: &MicroOp) -> bool {
    match (*prev, *op) {
        (
            MicroOp::Switch4 {
                d, s1: p1, s0: p0, ..
            },
            MicroOp::Switch4 { s1, s0, .. },
        ) => (p1, p0) == (s1, s0) && !d.contains(&s1) && !d.contains(&s0),
        _ => false,
    }
}

impl MicroOp {
    /// Number of distinct profiling kinds: one per variant.
    pub const NUM_KINDS: usize = 14;

    /// Dense stable index of this op's kind, `0..NUM_KINDS`.
    pub fn kind_index(&self) -> usize {
        match self {
            MicroOp::Const { .. } => 0,
            MicroOp::Not { .. } => 1,
            MicroOp::And { .. } => 2,
            MicroOp::Or { .. } => 3,
            MicroOp::Xor { .. } => 4,
            MicroOp::Nand { .. } => 5,
            MicroOp::Nor { .. } => 6,
            MicroOp::Xnor { .. } => 7,
            MicroOp::Mux { .. } => 8,
            MicroOp::Demux { .. } => 9,
            MicroOp::Switch2 { .. } => 10,
            MicroOp::Route2 { .. } => 11,
            MicroOp::BitCompare { .. } => 12,
            MicroOp::Switch4 { .. } => 13,
        }
    }

    /// Display name of kind `idx` (inverse of [`MicroOp::kind_index`]).
    pub fn kind_name(idx: usize) -> &'static str {
        match idx {
            0 => "const",
            1 => "not",
            2 => "and",
            3 => "or",
            4 => "xor",
            5 => "nand",
            6 => "nor",
            7 => "xnor",
            8 => "mux",
            9 => "demux",
            10 => "switch2",
            11 => "route2",
            12 => "bitcompare",
            13 => "switch4",
            _ => "?",
        }
    }
}

/// A circuit lowered to a register-allocated, levelized micro-op tape.
/// Produced once by [`CompiledCircuit::compile`] (or
/// [`Circuit::compile`]) and evaluated any number of times by
/// [`CompiledEvaluator`].
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    pub(crate) tape: Vec<MicroOp>,
    /// Deduplicated 4×4-switch permutation sets, indexed by
    /// [`MicroOp::Switch4::pidx`].
    pub(crate) perm_sets: Vec<[Perm4; 4]>,
    pub(crate) n_slots: u32,
    pub(crate) input_slots: Vec<u32>,
    pub(crate) output_slots: Vec<u32>,
    pub(crate) prologue_len: u32,
    /// `(start, end)` tape index ranges, one per non-empty depth level
    /// (the prologue is not part of any level).
    pub(crate) level_ranges: Vec<(u32, u32)>,
    /// Tape position of each source component, or a fate sentinel:
    /// [`COMP_DEAD`] when the component was eliminated as dead code
    /// (mutants of it are output-equivalent to the base circuit),
    /// [`COMP_FOLDED`] when an optimization folded or merged it away so
    /// no faithful tape image exists (mutants need a recompile). Lets
    /// [`CompiledCircuit::mutant_tape`] patch single-component faults in
    /// place instead of re-lowering the whole netlist per mutant.
    pub(crate) comp_pos: Vec<u32>,
    /// Wire count of the source circuit, kept for slot-savings reporting.
    pub(crate) source_wires: u32,
    /// Component count of the source circuit (tape length differs once
    /// dead components are eliminated).
    pub(crate) source_components: u32,
    /// Per-pass before/after op counts recorded by the pass manager.
    pub(crate) pass_stats: Vec<PassStats>,
}

/// [`CompiledCircuit::comp_pos`] sentinel: component eliminated as dead
/// code — a mutant of it cannot change any output.
pub(crate) const COMP_DEAD: u32 = u32::MAX;
/// [`CompiledCircuit::comp_pos`] sentinel: component folded, rewritten,
/// or CSE-merged — in-place patching is unsound, recompile instead.
pub(crate) const COMP_FOLDED: u32 = u32::MAX - 1;

/// Outcome of [`CompiledCircuit::mutant_tape`] and
/// [`CompiledCircuit::mutant_tape_multi`].
pub enum MutantTape<'a> {
    /// Every live patch is applied in place; dropping the guard restores
    /// the base tape (and permutation table) exactly.
    Patched(PatchGuard<'a>),
    /// Every faulted component was eliminated as dead code (or the patch
    /// set was empty), so the mutant is output-equivalent to the base
    /// circuit: no evaluation needed.
    Dead,
    /// Some `(component, fault)` pair has no in-place encoding; any
    /// patches already applied were rolled back. Callers fall back to
    /// compiling the rewritten netlist.
    Unsupported,
}

/// Everything needed to undo one in-place tape patch.
struct PatchRecord {
    pos: usize,
    saved: MicroOp,
    /// Permutation-table length before the patch; sets the patch
    /// interned are dropped on restore.
    perm_len: usize,
}

/// Undoes patches in reverse application order, restoring the tape and
/// the permutation table to their state before the first patch.
fn undo_patches(cc: &mut CompiledCircuit, recs: &[PatchRecord]) {
    for rec in recs.iter().rev() {
        cc.tape[rec.pos] = rec.saved;
        cc.perm_sets.truncate(rec.perm_len);
    }
}

/// Outcome of one patch attempt, before it is wrapped in a guard.
enum PatchStep {
    Applied(PatchRecord),
    Dead,
    Unsupported,
}

/// RAII view of a [`CompiledCircuit`] with a set of mutant patches
/// applied. Dereferences to the patched circuit for evaluation; restores
/// the original tape on drop.
pub struct PatchGuard<'a> {
    cc: &'a mut CompiledCircuit,
    recs: Vec<PatchRecord>,
}

impl PatchGuard<'_> {
    /// Number of live patches applied (dead-code components inject
    /// nothing and are not counted).
    pub fn n_patches(&self) -> usize {
        self.recs.len()
    }
}

impl std::ops::Deref for PatchGuard<'_> {
    type Target = CompiledCircuit;
    fn deref(&self) -> &CompiledCircuit {
        self.cc
    }
}

impl Drop for PatchGuard<'_> {
    fn drop(&mut self) {
        undo_patches(self.cc, &self.recs);
    }
}

impl CompiledCircuit {
    /// Compiles a circuit at the default optimization level
    /// ([`crate::passes::OptLevel::O2`] — every pass enabled). One-time
    /// cost, linear in the netlist.
    pub fn compile(c: &Circuit) -> CompiledCircuit {
        CompiledCircuit::compile_with(c, &CompileOptions::default())
    }

    /// Compiles a circuit through the staged pipeline
    /// `lower → passes → schedule → regalloc` with an explicit pass
    /// set. In debug builds (or with [`CompileOptions::verify`]) the
    /// pass manager re-checks IR-vs-interpreter equivalence after every
    /// stage.
    pub fn compile_with(c: &Circuit, opts: &CompileOptions) -> CompiledCircuit {
        #[cfg(feature = "telemetry")]
        let _span = absort_telemetry::span("compile/lower");

        let mut ir = {
            #[cfg(feature = "telemetry")]
            let _span = absort_telemetry::span("compile/ir");
            crate::ir::lower(c)
        };
        let stats = PassManager::new(*opts).run(c, &mut ir);
        let mut cc = {
            #[cfg(feature = "telemetry")]
            let _span = absort_telemetry::span("compile/regalloc");
            crate::regalloc::allocate(&ir)
        };
        cc.pass_stats = stats;

        #[cfg(feature = "telemetry")]
        absort_telemetry::counter_add_many(&[
            ("compile.circuits", 1),
            ("compile.tape_ops", cc.tape.len() as u64),
            ("compile.levels", cc.level_ranges.len() as u64),
            ("compile.slots", u64::from(cc.n_slots)),
            ("compile.slots_saved", cc.slots_saved()),
            (
                "compile.dead_ops",
                cc.comp_pos.iter().filter(|&&p| p >= COMP_FOLDED).count() as u64,
            ),
        ]);

        cc
    }

    /// Expresses the single-component netlist mutant `(component, fault)`
    /// (the mutants enumerated by [`crate::mutate::mutants`]) as an
    /// in-place patch of this tape, avoiding a full re-lowering per
    /// mutant — the dominant cost of compiled fault campaigns at small
    /// `n`, where a mutant is evaluated for only a handful of passes.
    ///
    /// This is sound because the netlist rewrites preserve the component
    /// list, the wire table, and every data dependency: behaviour
    /// inversions permute an op's existing operands or flip its opcode,
    /// and stuck selects *remove* a dependency (the faulted op reads a
    /// subset of its old sources). Levelization, liveness, and the slot
    /// assignment of the base tape therefore remain valid; only the one
    /// op's encoding changes. The tape carries no cross-op hints:
    /// decode re-derives switch chains from the patched tape, so a
    /// switch whose controls a patch rewires leaves its run by itself.
    pub fn mutant_tape(&mut self, component: usize, fault: Fault) -> MutantTape<'_> {
        self.mutant_tape_multi(&[(component, fault)])
    }

    /// The k-fault generalisation of [`CompiledCircuit::mutant_tape`]:
    /// applies every `(component, fault)` patch in order and returns one
    /// guard restoring all of them. Dead-code components are skipped (they
    /// cannot affect outputs); if *any* pair is unsupported the patches
    /// already applied are rolled back and the whole set reports
    /// [`MutantTape::Unsupported`], so callers re-lower the rewritten
    /// netlist exactly as in the single-fault path.
    pub fn mutant_tape_multi(&mut self, patches: &[(usize, Fault)]) -> MutantTape<'_> {
        let mut recs: Vec<PatchRecord> = Vec::with_capacity(patches.len());
        for &(ci, fault) in patches {
            match self.patch_one(ci, fault) {
                PatchStep::Applied(rec) => recs.push(rec),
                PatchStep::Dead => {}
                PatchStep::Unsupported => {
                    undo_patches(self, &recs);
                    return MutantTape::Unsupported;
                }
            }
        }
        if recs.is_empty() {
            return MutantTape::Dead;
        }
        MutantTape::Patched(PatchGuard { cc: self, recs })
    }

    fn patch_one(&mut self, component: usize, fault: Fault) -> PatchStep {
        let pos = match self.comp_pos.get(component).copied() {
            // Dead code: no output observes the component, so the mutant
            // is output-equivalent to the base circuit.
            Some(COMP_DEAD) => return PatchStep::Dead,
            // Folded, rewritten or CSE-merged: the tape holds no
            // faithful image of the component, so patching would apply
            // the wrong fault semantics (or fault several components at
            // once). Callers recompile the rewritten netlist instead.
            Some(COMP_FOLDED) => return PatchStep::Unsupported,
            Some(p) => p as usize,
            None => return PatchStep::Unsupported,
        };
        let perm_len = self.perm_sets.len();
        let saved = self.tape[pos];
        let patched = match (fault, saved) {
            // A comparator steered by its lower input instead of its
            // upper one — mirrors `mutate_component` on `BitCompare`.
            (Fault::InvertBehaviour, MicroOp::BitCompare { d0, d1, a, b }) => {
                MicroOp::Switch2 { d0, d1, s: b, a, b }
            }
            (Fault::InvertBehaviour, MicroOp::And { d, a, b }) => MicroOp::Nand { d, a, b },
            (Fault::InvertBehaviour, MicroOp::Nand { d, a, b }) => MicroOp::And { d, a, b },
            (Fault::InvertBehaviour, MicroOp::Or { d, a, b }) => MicroOp::Nor { d, a, b },
            (Fault::InvertBehaviour, MicroOp::Nor { d, a, b }) => MicroOp::Or { d, a, b },
            (Fault::InvertBehaviour, MicroOp::Xor { d, a, b }) => MicroOp::Xnor { d, a, b },
            (Fault::InvertBehaviour, MicroOp::Xnor { d, a, b }) => MicroOp::Xor { d, a, b },
            (Fault::InvertBehaviour, MicroOp::Mux { d, s, a1, a0 }) => MicroOp::Mux {
                d,
                s,
                a1: a0,
                a0: a1,
            },
            (Fault::InvertBehaviour, MicroOp::Switch2 { d0, d1, s, a, b }) => MicroOp::Switch2 {
                d0,
                d1,
                s,
                a: b,
                b: a,
            },
            (
                Fault::InvertBehaviour,
                MicroOp::Switch4 {
                    d,
                    ins,
                    s1,
                    s0,
                    pidx,
                },
            ) => {
                // Select decode scrambled: permutation table reversed.
                let p = self.perm_sets[pidx as usize];
                let pid = intern_perms(&mut self.perm_sets, [p[3], p[2], p[1], p[0]]);
                MicroOp::Switch4 {
                    d,
                    ins,
                    s1,
                    s0,
                    pidx: pid,
                }
            }
            (Fault::StuckSelectLow, MicroOp::Mux { d, a0, .. }) => MicroOp::Or { d, a: a0, b: a0 },
            (Fault::StuckSelectHigh, MicroOp::Mux { d, a1, .. }) => MicroOp::Or { d, a: a1, b: a1 },
            // `d0 = s ? b : a, d1 = s ? a : b` with `s` tied.
            (Fault::StuckSelectLow, MicroOp::Switch2 { d0, d1, a, b, .. }) => {
                MicroOp::Route2 { d0, d1, a, b }
            }
            (Fault::StuckSelectHigh, MicroOp::Switch2 { d0, d1, a, b, .. }) => {
                MicroOp::Route2 { d0, d1, a: b, b: a }
            }
            (
                Fault::StuckSelectLow | Fault::StuckSelectHigh,
                MicroOp::Switch4 {
                    d, ins, s1, pidx, ..
                },
            ) => {
                // `s0` tied to a constant: rewire `s0 := s1` so only the
                // equal-controls decodes (mask indices 0 and 3) remain
                // reachable, and route them to the perms the tied decode
                // selects (`s1·2 + tie`).
                let p = self.perm_sets[pidx as usize];
                let q = match fault {
                    Fault::StuckSelectLow => [p[0], p[0], p[2], p[2]],
                    _ => [p[1], p[1], p[3], p[3]],
                };
                let pid = intern_perms(&mut self.perm_sets, q);
                MicroOp::Switch4 {
                    d,
                    ins,
                    s1,
                    s0: s1,
                    pidx: pid,
                }
            }
            // Remaining pairs (e.g. a stuck demultiplexer select, which
            // would need a constant-zero source): fall back to lowering
            // the rewritten netlist.
            _ => return PatchStep::Unsupported,
        };
        self.tape[pos] = patched;
        PatchStep::Applied(PatchRecord {
            pos,
            saved,
            perm_len,
        })
    }

    /// Number of primary inputs.
    #[inline]
    pub fn n_inputs(&self) -> usize {
        self.input_slots.len()
    }

    /// Number of designated outputs.
    #[inline]
    pub fn n_outputs(&self) -> usize {
        self.output_slots.len()
    }

    /// Size of the working buffer in slots — the peak live-value count,
    /// at most the source circuit's wire count and typically far less.
    #[inline]
    pub fn n_slots(&self) -> usize {
        self.n_slots as usize
    }

    /// Total micro-ops on the tape (constant prologue included).
    #[inline]
    pub fn tape_len(&self) -> usize {
        self.tape.len()
    }

    /// Length of the constant prologue at the head of the tape.
    #[inline]
    pub fn prologue_len(&self) -> usize {
        self.prologue_len as usize
    }

    /// Number of non-empty depth levels the component ops are grouped in.
    #[inline]
    pub fn n_levels(&self) -> usize {
        self.level_ranges.len()
    }

    /// `(start, end)` tape ranges of each depth level, in stage order.
    /// Every component op belongs to exactly one range; the prologue
    /// (`0..prologue_len`) precedes the first.
    #[inline]
    pub fn level_ranges(&self) -> &[(u32, u32)] {
        &self.level_ranges
    }

    /// Working-buffer entries saved by register allocation relative to
    /// the interpreter's full-width wire buffer. Saturating: at
    /// opt-level 0 the two canonical constants the pipeline always
    /// lowers can cost one scratch slot beyond the wire count.
    #[inline]
    pub fn slots_saved(&self) -> u64 {
        u64::from(self.source_wires).saturating_sub(u64::from(self.n_slots))
    }

    /// Per-pass before/after op counts recorded by the pass manager, in
    /// pipeline order (empty at opt-level 0).
    #[inline]
    pub fn pass_stats(&self) -> &[PassStats] {
        &self.pass_stats
    }

    /// Always empty: the rewrite pass that recorded per-rule hits is
    /// gone. Kept only because the repo benchmark's `compile` workload
    /// (`perfbench/`) still calls it; it goes once that call does.
    #[inline]
    pub fn rewrite_hits(&self) -> &[(String, u32)] {
        &[]
    }

    /// Wire count of the source circuit.
    #[inline]
    pub fn source_wires(&self) -> usize {
        self.source_wires as usize
    }

    /// Component count of the source circuit (before dead-code
    /// elimination).
    #[inline]
    pub fn source_components(&self) -> usize {
        self.source_components as usize
    }

    /// The micro-op tape (read-only; for tests and introspection).
    #[inline]
    pub fn tape(&self) -> &[MicroOp] {
        &self.tape
    }

    /// The deduplicated 4×4-switch permutation sets (read-only).
    #[inline]
    pub fn perm_sets(&self) -> &[[Perm4; 4]] {
        &self.perm_sets
    }

    /// Slot each primary input is loaded into.
    #[inline]
    pub fn input_slots(&self) -> &[u32] {
        &self.input_slots
    }

    /// Slot each designated output is read from.
    #[inline]
    pub fn output_slots(&self) -> &[u32] {
        &self.output_slots
    }

    /// Evaluates on one input vector (scalar path). For repeated
    /// evaluation prefer a [`CompiledEvaluator`], which reuses its slot
    /// buffer.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        CompiledEvaluator::new(self).run(inputs)
    }

    /// Evaluates 64 packed vectors at once (bit `j` of `inputs[i]` is
    /// input `i` of test vector `j`).
    pub fn eval_lanes(&self, inputs: &[u64]) -> Vec<u64> {
        CompiledEvaluator::new(self).run(inputs)
    }
}

/// A tape decoded once into its threaded-dispatch form (see
/// [`crate::dispatch`]), shareable across evaluators and threads: each
/// [`CompiledEvaluator::with_decoded`] borrows it instead of decoding the
/// tape again. Cloning shares the program.
///
/// The program is a snapshot of the tape it was decoded from. It records
/// that tape's length and slot count, and an evaluator refuses it for a
/// tape that differs in either; a tape patched in place since the decode
/// (`CompiledCircuit::mutant_tape`) needs a fresh decode.
///
/// ```
/// use absort_circuit::compile::Decoded;
/// use absort_circuit::{Builder, CompiledEvaluator};
///
/// let mut b = Builder::new();
/// let x = b.input();
/// let y = b.input();
/// let o = b.or(x, y);
/// b.outputs(&[o]);
/// let cc = b.finish().compile();
///
/// let prog = Decoded::<u64>::new(&cc);
/// let mut ev = CompiledEvaluator::with_decoded(&cc, &prog).unwrap();
/// assert_eq!(ev.run(&[0b0011, 0b0101]), vec![0b0111]);
/// ```
#[derive(Clone)]
pub struct Decoded<V: Lane> {
    program: Arc<Program<V>>,
    /// `(tape length, slot count)` of the decoded tape.
    shape: (usize, usize),
}

impl<V: Lane> Decoded<V> {
    /// Decodes `cc`'s tape: linear in the tape.
    pub fn new(cc: &CompiledCircuit) -> Decoded<V> {
        Decoded {
            program: Arc::new(Program::decode(cc)),
            shape: (cc.tape_len(), cc.n_slots()),
        }
    }
}

/// A reusable evaluation context for one compiled circuit and one lane
/// type — the compiled twin of [`crate::Evaluator`].
///
/// ```
/// use absort_circuit::{Builder, CompiledEvaluator};
///
/// let mut b = Builder::new();
/// let x = b.input();
/// let y = b.input();
/// let o = b.and(x, y);
/// b.outputs(&[o]);
/// let c = b.finish();
/// let cc = c.compile();
///
/// let mut ev: CompiledEvaluator<'_, bool> = CompiledEvaluator::new(&cc);
/// assert_eq!(ev.run(&[true, true]), vec![true]);
/// assert_eq!(ev.run(&[true, false]), vec![false]);
/// ```
pub struct CompiledEvaluator<'c, V: Lane> {
    cc: &'c CompiledCircuit,
    /// The tape decoded to threaded form (see [`crate::dispatch`]).
    prog: Decoded<V>,
    slots: Vec<V>,
    #[cfg(feature = "telemetry")]
    tel: absort_telemetry::LocalRecorder,
    #[cfg(feature = "telemetry")]
    tel_passes: u64,
}

#[cfg(feature = "telemetry")]
impl<V: Lane> Drop for CompiledEvaluator<'_, V> {
    fn drop(&mut self) {
        if self.tel_passes != 0 {
            let ops = self.cc.tape.len() as u64;
            self.tel.add("eval.compiled_passes", self.tel_passes);
            self.tel.add("eval.compiled_ops", self.tel_passes * ops);
            self.tel
                .add("eval.compiled_lanes", self.tel_passes * u64::from(V::LANES));
        }
    }
}

impl<'c, V: Lane> CompiledEvaluator<'c, V> {
    /// Creates an evaluator with a zeroed slot buffer. Decodes the tape
    /// into its threaded-dispatch form (see [`crate::dispatch`]) — a
    /// one-time linear cost over the tape — and runs it through
    /// [`CompiledEvaluator::with_decoded`].
    pub fn new(cc: &'c CompiledCircuit) -> Self {
        CompiledEvaluator::with_decoded(cc, &Decoded::new(cc))
            .expect("a program decoded from this tape fits it")
    }

    /// Creates an evaluator with a zeroed slot buffer over a program
    /// already decoded from `cc`, sharing it instead of decoding again.
    /// Refuses, with [`EvalError::ProgramMismatch`], a program whose
    /// tape length or slot count differs from `cc`'s.
    pub fn with_decoded(cc: &'c CompiledCircuit, prog: &Decoded<V>) -> Result<Self, EvalError> {
        let expected = (cc.tape_len(), cc.n_slots());
        if prog.shape != expected {
            return Err(EvalError::ProgramMismatch {
                expected,
                got: prog.shape,
            });
        }
        Ok(CompiledEvaluator {
            cc,
            prog: prog.clone(),
            slots: vec![V::ZERO; cc.n_slots()],
            #[cfg(feature = "telemetry")]
            tel: absort_telemetry::LocalRecorder::new(),
            #[cfg(feature = "telemetry")]
            tel_passes: 0,
        })
    }

    /// Number of decoded instructions one pass dispatches: the tape
    /// length minus what decode fused (switch chains, op pairs).
    pub fn dispatches(&self) -> usize {
        self.prog.program.len()
    }

    /// Evaluates on the given primary-input values and returns the
    /// outputs.
    pub fn run(&mut self, inputs: &[V]) -> Vec<V> {
        let mut out = vec![V::ZERO; self.cc.n_outputs()];
        self.run_into(inputs, &mut out);
        out
    }

    /// Checked [`CompiledEvaluator::run`].
    pub fn try_run(&mut self, inputs: &[V]) -> Result<Vec<V>, EvalError> {
        let mut out = vec![V::ZERO; self.cc.n_outputs()];
        self.try_run_into(inputs, &mut out)?;
        Ok(out)
    }

    /// Checked [`CompiledEvaluator::run_into`]: validates both slice
    /// lengths up front, then takes the same unchecked fast path.
    pub fn try_run_into(&mut self, inputs: &[V], out: &mut [V]) -> Result<(), EvalError> {
        if inputs.len() != self.cc.n_inputs() {
            return Err(EvalError::InputLen {
                expected: self.cc.n_inputs(),
                got: inputs.len(),
            });
        }
        if out.len() != self.cc.n_outputs() {
            return Err(EvalError::OutputLen {
                expected: self.cc.n_outputs(),
                got: out.len(),
            });
        }
        self.run_into(inputs, out);
        Ok(())
    }

    /// Replays the tape into a caller-provided output slice (no
    /// allocation).
    pub fn run_into(&mut self, inputs: &[V], out: &mut [V]) {
        // One bool test when telemetry is off; when on, the pass is
        // timed and folded into the per-vector latency histogram below.
        #[cfg(feature = "telemetry")]
        let t0 = self.tel.is_active().then(std::time::Instant::now);

        // Threaded-code dispatch: the tape was decoded once at evaluator
        // construction (operands resolved, switch chains and op pairs
        // fused); each instruction is now a single indirect call. See
        // `crate::dispatch`.
        self.pass(inputs, out, |prog, w| prog.exec(w));

        // The histogram sample is the pass wall-clock divided by lane
        // width: per-*vector* latency, comparable across lane types.
        #[cfg(feature = "telemetry")]
        {
            self.tel_passes += 1;
            if let Some(t0) = t0 {
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.tel
                    .record_ns("eval.compiled.vector_ns", ns / u64::from(V::LANES));
            }
        }
    }

    /// Replays the tape like [`CompiledEvaluator::run_into`] while
    /// attributing executions and wall-clock per micro-op kind and per
    /// depth level into `prof` (level 0 = constant prologue).
    ///
    /// Walks the same decoded program as `run_into`, reading the clock
    /// after each instruction. An instruction is credited to every tape
    /// op it covers, one execution each, and its time is split evenly
    /// among them. Callers sample (profile a subset of passes) rather
    /// than pay the per-instruction clock reads everywhere. Outputs are
    /// identical to `run_into`.
    pub fn run_into_profiled(
        &mut self,
        inputs: &[V],
        out: &mut [V],
        prof: &mut crate::profile::TapeProfile,
    ) {
        use std::time::Instant;
        let cc = self.cc;
        prof.ensure_levels(cc.level_ranges.len() + 1);

        // Level segment tracking: ops `0..prologue_len` are segment 0;
        // each level range is the following segment.
        let mut seg = 0usize;
        let mut seg_end = cc.prologue_len as usize;
        let mut prev_kind: Option<usize> = None;
        self.pass(inputs, out, |prog, w| {
            let mut last = Instant::now();
            prog.exec_profiled(w, |ops| {
                let now = Instant::now();
                let ns = u64::try_from((now - last).as_nanos()).unwrap_or(u64::MAX);
                last = now;
                let (share, rem) = (ns / ops.len() as u64, ns % ops.len() as u64);
                for (j, i) in ops.enumerate() {
                    let ns = share + u64::from((j as u64) < rem);
                    while i >= seg_end && seg < cc.level_ranges.len() {
                        seg_end = cc.level_ranges[seg].1 as usize;
                        seg += 1;
                    }
                    let k = cc.tape[i].kind_index();
                    prof.kinds[k].executions += 1;
                    prof.kinds[k].total_ns = prof.kinds[k].total_ns.saturating_add(ns);
                    prof.levels[seg].executions += 1;
                    prof.levels[seg].total_ns = prof.levels[seg].total_ns.saturating_add(ns);
                    if let Some(p) = prev_kind {
                        prof.record_pair(p, k);
                    }
                    prev_kind = Some(k);
                }
            });
        });
        prof.passes += 1;
    }

    /// One pass: loads `inputs` into their slots, lets `walk` run the
    /// decoded program over the slot buffer, and copies out the outputs.
    #[inline(always)]
    fn pass(&mut self, inputs: &[V], out: &mut [V], walk: impl FnOnce(&Program<V>, &mut [V])) {
        let cc = self.cc;
        assert_eq!(
            inputs.len(),
            cc.n_inputs(),
            "expected {} inputs, got {}",
            cc.n_inputs(),
            inputs.len()
        );
        assert_eq!(out.len(), cc.n_outputs(), "output slice has wrong length");
        let w = &mut self.slots;
        for (&s, &v) in cc.input_slots.iter().zip(inputs) {
            w[s as usize] = v;
        }
        walk(&self.prog.program, w);
        for (o, &s) in out.iter_mut().zip(&cc.output_slots) {
            *o = w[s as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::Evaluator;

    /// A circuit exercising every primitive, a shared constant, a dead
    /// component, and a half-dead multi-output component.
    fn kitchen_sink() -> Circuit {
        let mut b = Builder::new();
        let ins = b.input_bus(4);
        let t = b.constant(true);
        let f = b.constant(false);
        let g1 = b.gate(crate::GateOp::Nand, ins[0], ins[1]);
        let g2 = b.gate(crate::GateOp::Xnor, ins[2], t);
        let (lo, hi) = b.bit_compare(g1, g2);
        let m = b.mux2(ins[3], lo, hi);
        let (d0, _d1_unused) = b.demux2(ins[0], m);
        let (s_a, s_b) = b.switch2(ins[1], d0, g2);
        let dead = b.and(ins[2], ins[3]); // never observed
        let _ = dead;
        let outs = b.switch4(
            s_a,
            s_b,
            [ins[0], ins[1], ins[2], f],
            [[0, 1, 2, 3], [1, 0, 3, 2], [3, 2, 1, 0], [2, 3, 0, 1]],
        );
        b.outputs(&[outs[0], outs[3], s_a, m]);
        b.finish()
    }

    fn all_inputs(n: usize) -> impl Iterator<Item = Vec<bool>> + Clone {
        (0..1u64 << n).map(move |v| (0..n).map(|i| v >> i & 1 == 1).collect())
    }

    #[test]
    fn compiled_matches_interpreter_exhaustively() {
        let c = kitchen_sink();
        let cc = c.compile();
        for input in all_inputs(c.n_inputs()) {
            assert_eq!(cc.eval(&input), c.eval(&input), "input {input:?}");
        }
    }

    /// Two 4×4 switches on one control pair side by side in one level
    /// plus gates and a comparator: decode fuses the switches into one
    /// chain and the two gates into one pair.
    fn fusible() -> Circuit {
        let mut b = Builder::new();
        let s1 = b.input();
        let s0 = b.input();
        let ins = b.input_bus(8);
        let perms = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]];
        let a = b.switch4(s1, s0, [ins[0], ins[1], ins[2], ins[3]], perms);
        let c = b.switch4(s1, s0, [ins[4], ins[5], ins[6], ins[7]], perms);
        let g1 = b.and(ins[0], ins[5]);
        let g2 = b.or(ins[2], ins[7]);
        let (lo, hi) = b.bit_compare(a[0], c[3]);
        b.outputs(&[a[1], a[2], c[0], c[1], lo, hi, g1, g2]);
        b.finish()
    }

    /// Profiles `passes` through `cc`: outputs equal `run_into`, each
    /// kind executes its tape count once per pass, every op lands in
    /// exactly one level segment, and the pair census sees every
    /// adjacent op pair, level boundaries included.
    fn check_profile<V: Lane + PartialEq + std::fmt::Debug>(
        cc: &CompiledCircuit,
        passes: &[Vec<V>],
    ) {
        let mut prof = crate::profile::TapeProfile::new();
        let mut ev: CompiledEvaluator<'_, V> = CompiledEvaluator::new(cc);
        let mut prof_ev: CompiledEvaluator<'_, V> = CompiledEvaluator::new(cc);
        for input in passes {
            let want = ev.run(input);
            let mut got = vec![V::ZERO; cc.n_outputs()];
            prof_ev.run_into_profiled(input, &mut got, &mut prof);
            assert_eq!(got, want, "input {input:?}");
        }
        let n = passes.len() as u64;
        assert_eq!(prof.passes, n);
        let mut hist = [0u64; MicroOp::NUM_KINDS];
        for op in cc.tape() {
            hist[op.kind_index()] += 1;
        }
        for (k, stat) in prof.kinds.iter().enumerate() {
            assert_eq!(stat.executions, hist[k] * n, "{}", MicroOp::kind_name(k));
        }
        let level_execs: u64 = prof.levels.iter().map(|l| l.executions).sum();
        assert_eq!(level_execs, prof.total_executions());
        assert_eq!(prof.levels.len(), cc.n_levels() + 1);
        assert_eq!(
            prof.levels[0].executions,
            n * cc.prologue_len() as u64,
            "prologue segment holds exactly the prologue ops"
        );
        let pairs: u64 = prof.pairs.iter().sum();
        assert_eq!(pairs, n * (cc.tape_len() as u64 - 1));
    }

    #[test]
    fn profiled_run_matches_and_attributes_every_op() {
        let c = kitchen_sink();
        let inputs: Vec<Vec<bool>> = all_inputs(c.n_inputs()).collect();
        check_profile(&c.compile(), &inputs);

        let c = fusible();
        let cc = c.compile();
        // One chain and one pair: two dispatches fewer than tape ops.
        let ev: CompiledEvaluator<'_, bool> = CompiledEvaluator::new(&cc);
        assert_eq!(ev.dispatches(), cc.tape_len() - 2);
        let ev: CompiledEvaluator<'_, [u64; 4]> = CompiledEvaluator::new(&cc);
        assert_eq!(ev.dispatches(), cc.tape_len() - 2);
        let inputs: Vec<Vec<bool>> = all_inputs(c.n_inputs()).collect();
        check_profile(&cc, &inputs);
        let wide: Vec<Vec<[u64; 4]>> = inputs
            .chunks(256)
            .map(|g| crate::eval::pack_lanes_wide::<4>(g, c.n_inputs()))
            .collect();
        check_profile(&cc, &wide);
    }

    #[test]
    fn dead_code_is_eliminated() {
        let c = kitchen_sink();
        let cc = c.compile();
        // The dead AND gate must not be on the tape: component ops =
        // source components minus at least one.
        let comp_ops = cc.tape_len() - cc.prologue_len();
        assert!(
            comp_ops < cc.source_components(),
            "tape has {comp_ops} component ops for {} components",
            cc.source_components()
        );
    }

    #[test]
    fn slot_liveness_invariants() {
        let c = kitchen_sink();
        let cc = c.compile();
        // Peak live slots never exceed the interpreter's buffer.
        assert!(
            cc.n_slots() <= c.n_wires(),
            "allocation must not grow the buffer"
        );
        assert_eq!(cc.slots_saved() as usize, c.n_wires() - cc.n_slots());

        // Replay the tape statically: every source slot must have been
        // written (by an input load, a Const, or an earlier op) before it
        // is read, and all slots stay in range.
        let mut written = vec![false; cc.n_slots()];
        for &s in cc.input_slots() {
            written[s as usize] = true;
        }
        let read = |s: u32, written: &[bool]| {
            assert!((s as usize) < cc.n_slots(), "slot {s} out of range");
            assert!(written[s as usize], "slot {s} read before written");
        };
        for op in cc.tape() {
            match *op {
                MicroOp::Const { d, .. } => written[d as usize] = true,
                MicroOp::Not { d, a } => {
                    read(a, &written);
                    written[d as usize] = true;
                }
                MicroOp::And { d, a, b }
                | MicroOp::Or { d, a, b }
                | MicroOp::Xor { d, a, b }
                | MicroOp::Nand { d, a, b }
                | MicroOp::Nor { d, a, b }
                | MicroOp::Xnor { d, a, b } => {
                    read(a, &written);
                    read(b, &written);
                    written[d as usize] = true;
                }
                MicroOp::Mux { d, s, a1, a0 } => {
                    read(s, &written);
                    read(a1, &written);
                    read(a0, &written);
                    written[d as usize] = true;
                }
                MicroOp::Demux { d0, d1, s, x } => {
                    read(s, &written);
                    read(x, &written);
                    written[d0 as usize] = true;
                    written[d1 as usize] = true;
                }
                MicroOp::Switch2 { d0, d1, s, a, b } => {
                    read(s, &written);
                    read(a, &written);
                    read(b, &written);
                    written[d0 as usize] = true;
                    written[d1 as usize] = true;
                }
                MicroOp::Route2 { d0, d1, a, b } | MicroOp::BitCompare { d0, d1, a, b } => {
                    read(a, &written);
                    read(b, &written);
                    written[d0 as usize] = true;
                    written[d1 as usize] = true;
                }
                MicroOp::Switch4 {
                    d,
                    ins,
                    s1,
                    s0,
                    pidx,
                } => {
                    read(s1, &written);
                    read(s0, &written);
                    assert!(
                        (pidx as usize) < cc.perm_sets().len(),
                        "perm-set index out of range"
                    );
                    for &i in &ins {
                        read(i, &written);
                    }
                    for &di in &d {
                        written[di as usize] = true;
                    }
                }
            }
        }
        // Every output reads a written, in-range slot.
        for &s in cc.output_slots() {
            read(s, &written);
        }
    }

    #[test]
    fn levels_partition_the_component_tape() {
        let c = kitchen_sink();
        let cc = c.compile();
        let ranges = cc.level_ranges();
        assert!(!ranges.is_empty());
        assert_eq!(ranges[0].0 as usize, cc.prologue_len());
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "levels must tile the tape");
            assert!(pair[0].1 > pair[0].0, "levels are non-empty");
        }
        assert_eq!(ranges.last().unwrap().1 as usize, cc.tape_len());
    }

    #[test]
    fn lanes_match_scalar_on_compiled_tape() {
        let c = kitchen_sink();
        let cc = c.compile();
        let n = c.n_inputs();
        let mut packed = vec![0u64; n];
        for v in 0..1u64 << n {
            for (i, p) in packed.iter_mut().enumerate() {
                if v >> i & 1 == 1 {
                    *p |= 1 << v;
                }
            }
        }
        let mut ev: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&cc);
        let lanes = ev.run(&packed);
        for (v, input) in all_inputs(n).enumerate() {
            let scalar = cc.eval(&input);
            for (o, word) in lanes.iter().enumerate() {
                assert_eq!(word >> v & 1 == 1, scalar[o], "vector {v} output {o}");
            }
        }
    }

    #[test]
    fn passthrough_and_const_outputs() {
        // Outputs that are inputs or constants, with zero components.
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let t = b.constant(true);
        b.outputs(&[y, x, t, y]);
        let c = b.finish();
        let cc = c.compile();
        assert_eq!(cc.tape_len(), cc.prologue_len());
        assert_eq!(cc.eval(&[true, false]), vec![false, true, true, false]);
    }

    #[test]
    fn unused_inputs_share_the_scratch_slot() {
        let mut b = Builder::new();
        let ins = b.input_bus(6);
        let o = b.and(ins[0], ins[5]);
        b.outputs(&[o]);
        let c = b.finish();
        let cc = c.compile();
        // 2 live inputs + 1 result (may reuse) + 1 shared scratch.
        assert!(cc.n_slots() <= 4, "slots: {}", cc.n_slots());
        for input in all_inputs(6) {
            assert_eq!(cc.eval(&input), c.eval(&input));
        }
    }

    #[test]
    fn try_paths_reject_bad_arity() {
        let c = kitchen_sink();
        let cc = c.compile();
        let mut ev: CompiledEvaluator<'_, bool> = CompiledEvaluator::new(&cc);
        assert!(matches!(
            ev.try_run(&[true]),
            Err(EvalError::InputLen {
                expected: 4,
                got: 1
            })
        ));
        let mut short = vec![false; 1];
        assert!(matches!(
            ev.try_run_into(&[false; 4], &mut short),
            Err(EvalError::OutputLen { .. })
        ));
    }

    #[test]
    fn shared_program_is_refused_by_another_tape() {
        let c = kitchen_sink();
        let cc = c.compile();
        let other = c.compile_with(&CompileOptions::for_level(crate::passes::OptLevel::O0));
        assert_ne!(
            (other.tape_len(), other.n_slots()),
            (cc.tape_len(), cc.n_slots())
        );
        let prog = Decoded::<u64>::new(&other);
        assert_eq!(
            CompiledEvaluator::with_decoded(&cc, &prog).err(),
            Some(EvalError::ProgramMismatch {
                expected: (cc.tape_len(), cc.n_slots()),
                got: (other.tape_len(), other.n_slots()),
            })
        );
        let mut shared = CompiledEvaluator::with_decoded(&other, &prog).unwrap();
        let mut own = CompiledEvaluator::<u64>::new(&other);
        let words = [0x0123_4567_89ab_cdef, !0, 0xf0f0, 0x5555_5555_0000_ffff];
        assert_eq!(shared.run(&words), own.run(&words));
    }

    #[test]
    fn engine_parse_roundtrips() {
        for e in Engine::ALL {
            assert_eq!(Engine::parse(e.name()), Some(e));
            assert_eq!(e.to_string(), e.name());
        }
        assert_eq!(Engine::parse("interpreter"), Some(Engine::Interp));
        assert_eq!(Engine::parse("warp"), None);
        assert_eq!(Engine::default(), Engine::Compiled);
    }

    #[test]
    fn slot_reuse_actually_shrinks_deep_chains() {
        // A long chain keeps only O(1) values live; the compiled buffer
        // must stay tiny while the interpreter's grows with the chain.
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let mut acc = b.xor(x, y);
        for _ in 0..200 {
            acc = b.gate(crate::GateOp::Nand, acc, x);
        }
        b.outputs(&[acc]);
        let c = b.finish();
        let cc = c.compile();
        assert!(c.n_wires() > 200);
        assert!(
            cc.n_slots() <= 4,
            "chain needs O(1) slots, got {}",
            cc.n_slots()
        );
        let mut interp: Evaluator<'_, bool> = Evaluator::new(&c);
        let mut comp: CompiledEvaluator<'_, bool> = CompiledEvaluator::new(&cc);
        for input in all_inputs(2) {
            assert_eq!(comp.run(&input), interp.run(&input));
        }
    }

    /// Three back-to-back 4×4 switches on one control pair: decode runs
    /// them as one chain, so stuck-select patches land at the head, the
    /// middle and the tail of a chain whose shared controls they rewire.
    fn switch_chain() -> Circuit {
        let mut b = Builder::new();
        let s1 = b.input();
        let s0 = b.input();
        let ins = b.input_bus(4);
        let a = b.switch4(
            s1,
            s0,
            [ins[0], ins[1], ins[2], ins[3]],
            [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        );
        let m = b.switch4(
            s1,
            s0,
            a,
            [[1, 2, 3, 0], [0, 3, 2, 1], [3, 0, 1, 2], [2, 1, 0, 3]],
        );
        let o = b.switch4(
            s1,
            s0,
            m,
            [[2, 0, 3, 1], [3, 1, 0, 2], [1, 3, 2, 0], [0, 2, 1, 3]],
        );
        b.outputs(&o);
        b.finish()
    }

    /// Outputs of `cc` on the 64 vectors packed in `inputs` through
    /// every decode flavour: the 64-lane and 256-lane walks (wide) and
    /// each vector on its own (scalar).
    fn run_every_lane_type(
        cc: &CompiledCircuit,
        inputs: &[u64],
    ) -> (Vec<u64>, Vec<[u64; 4]>, Vec<Vec<bool>>) {
        let lanes = CompiledEvaluator::<u64>::new(cc).run(inputs);
        let wide: Vec<[u64; 4]> = inputs
            .iter()
            .map(|&x| [x, !x, x.rotate_left(17), x ^ 0x5555_5555_5555_5555])
            .collect();
        let wide = CompiledEvaluator::<[u64; 4]>::new(cc).run(&wide);
        let mut ev = CompiledEvaluator::<bool>::new(cc);
        let scalar = (0..64)
            .map(|lane| {
                let v: Vec<bool> = inputs.iter().map(|x| x >> lane & 1 == 1).collect();
                ev.run(&v)
            })
            .collect();
        (lanes, wide, scalar)
    }

    /// Every mutant expressible as an in-place tape patch must evaluate
    /// exactly like the fully re-lowered mutant netlist, on every lane
    /// type, and the patch guard must restore the base tape bit for bit
    /// on drop.
    ///
    /// Pinned to opt-level 1: the pre-pipeline transforms, where every
    /// component is either live or dead — so `InvertBehaviour` is
    /// always patchable. (At O2, constant propagation folds e.g. the
    /// `Xnor(x, const 1)` in `kitchen_sink`, making that site
    /// `Unsupported`; `mutant_tape_contract_at_o2` covers that.)
    #[test]
    fn mutant_tape_matches_recompiled_mutants() {
        let o1 = CompileOptions::for_level(crate::passes::OptLevel::O1);
        for c in [kitchen_sink(), switch_chain()] {
            let mut base = c.compile_with(&o1);
            let baseline_tape = base.tape.clone();
            let baseline_perms = base.perm_sets.clone();
            let inputs: Vec<u64> = {
                // Deterministic pseudo-random lanes (splitmix64).
                let mut s = 0x9E37_79B9_7F4A_7C15u64;
                (0..c.n_inputs())
                    .map(|_| {
                        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                        let mut z = s;
                        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                        z ^ (z >> 31)
                    })
                    .collect()
            };
            let base_out = run_every_lane_type(&base, &inputs);
            let mut patched_seen = 0usize;
            for fault in Fault::ALL {
                for (ci, mutant) in crate::mutate::mutants(&c, fault) {
                    let reference = run_every_lane_type(&mutant.compile(), &inputs);
                    match base.mutant_tape(ci, fault) {
                        MutantTape::Patched(patched) => {
                            assert_eq!(
                                run_every_lane_type(&patched, &inputs),
                                reference,
                                "{fault:?} at component {ci}"
                            );
                            patched_seen += 1;
                        }
                        MutantTape::Dead => {
                            assert_eq!(base_out, reference, "dead {fault:?} at {ci} differs");
                        }
                        // The only pair without an in-place encoding is a
                        // stuck demultiplexer select.
                        MutantTape::Unsupported => assert!(
                            !matches!(fault, Fault::InvertBehaviour),
                            "invert at {ci} must be patchable"
                        ),
                    }
                    assert_eq!(
                        base.tape, baseline_tape,
                        "tape not restored after {fault:?}"
                    );
                    assert_eq!(base.perm_sets, baseline_perms, "perm table not restored");
                }
            }
            assert!(patched_seen > 0, "no patched mutants exercised");
        }
        // The three switches really are one decoded chain.
        let cc = switch_chain().compile_with(&o1);
        assert_eq!(cc.tape_len(), 3);
        assert_eq!(CompiledEvaluator::<bool>::new(&cc).dispatches(), 1);
        assert_eq!(CompiledEvaluator::<[u64; 4]>::new(&cc).dispatches(), 1);
    }

    /// The provenance contract at the default level (O2, every pass
    /// on): each single-fault mutant is either patched in place and
    /// matches the recompiled mutant on every lane type, reported dead
    /// and genuinely output-equivalent to the base, or reported
    /// unsupported (folded / CSE-merged sites included) — never
    /// silently wrong. Also checks that O2 really folds something in
    /// `kitchen_sink` (the `Xnor(x, const 1)`), so the fallback path is
    /// exercised.
    #[test]
    fn mutant_tape_contract_at_o2() {
        for (c, expect_folded) in [(kitchen_sink(), true), (switch_chain(), false)] {
            let mut base = c.compile();
            let baseline_tape = base.tape.clone();
            let inputs: Vec<u64> = (0..c.n_inputs())
                .map(|i| 0x0F1E_2D3C_4B5A_6978u64.rotate_left(11 * i as u32))
                .collect();
            let base_out = run_every_lane_type(&base, &inputs);
            let mut unsupported = 0usize;
            for fault in Fault::ALL {
                for (ci, mutant) in crate::mutate::mutants(&c, fault) {
                    let reference = run_every_lane_type(&mutant.compile(), &inputs);
                    match base.mutant_tape(ci, fault) {
                        MutantTape::Patched(patched) => {
                            assert_eq!(
                                run_every_lane_type(&patched, &inputs),
                                reference,
                                "{fault:?} at component {ci}"
                            );
                        }
                        MutantTape::Dead => {
                            assert_eq!(base_out, reference, "dead {fault:?} at {ci} differs");
                        }
                        // Folded sites and stuck demux selects: callers
                        // fall back to the recompiled netlist, which is
                        // `reference` itself — nothing further to check
                        // beyond counting that the path is exercised.
                        MutantTape::Unsupported => unsupported += 1,
                    }
                    assert_eq!(base.tape, baseline_tape, "tape not restored");
                }
            }
            if expect_folded {
                assert!(unsupported > 0, "O2 folding should force fallbacks");
            }
        }
    }

    /// Pass stats: the default pipeline reports every optional pass in
    /// canonical order, and CSE + const-prop shrink `kitchen_sink`'s
    /// IR (it contains a constant-fed XNOR).
    #[test]
    fn pass_stats_report_reductions() {
        let c = kitchen_sink();
        let cc = c.compile();
        let names: Vec<&str> = cc.pass_stats().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["const-prologue", "const-prop", "cse", "dce"]);
        let removed_by = |n: &str| {
            cc.pass_stats()
                .iter()
                .find(|s| s.name == n)
                .map(PassStats::removed)
                .unwrap()
        };
        assert!(removed_by("const-prop") > 0, "Xnor(x, 1) should fold");
        assert!(removed_by("dce") > 0, "dead AND + unused consts");
        // O0 reports no pass stats and still evaluates correctly.
        let o0 = c.compile_with(&CompileOptions::for_level(crate::passes::OptLevel::O0));
        assert!(o0.pass_stats().is_empty());
        for input in all_inputs(c.n_inputs()) {
            assert_eq!(o0.eval(&input), c.eval(&input));
        }
    }

    /// Every 2-fault mutant expressible as in-place patches must evaluate
    /// exactly like the fully re-lowered `apply_set` netlist, and the
    /// multi-patch guard must restore the base tape bit for bit on drop —
    /// including two patches inside one decoded chain of `switch_chain`.
    #[test]
    fn mutant_tape_multi_matches_recompiled_fault_sets() {
        let o1 = CompileOptions::for_level(crate::passes::OptLevel::O1);
        for c in [kitchen_sink(), switch_chain()] {
            let mut base = c.compile_with(&o1);
            let baseline_tape = base.tape.clone();
            let baseline_perms = base.perm_sets.clone();
            let inputs: Vec<u64> = (0..c.n_inputs())
                .map(|i| 0xA5A5_5A5A_0F0F_F0F0u64.rotate_left(7 * i as u32))
                .collect();
            let base_out = run_every_lane_type(&base, &inputs);
            let mut patched_seen = 0usize;
            for f1 in Fault::ALL {
                for f2 in Fault::ALL {
                    let c1 = crate::mutate::applicable(&c, f1);
                    let c2 = crate::mutate::applicable(&c, f2);
                    for &ci in &c1 {
                        for &cj in &c2 {
                            if cj <= ci {
                                continue;
                            }
                            let set = [(ci, f1), (cj, f2)];
                            let m = crate::mutate::apply_set(&c, &set).expect("both apply");
                            let reference = run_every_lane_type(&m.compile(), &inputs);
                            match base.mutant_tape_multi(&set) {
                                MutantTape::Patched(patched) => {
                                    assert!(patched.n_patches() >= 1);
                                    assert_eq!(
                                        run_every_lane_type(&patched, &inputs),
                                        reference,
                                        "{f1:?}@{ci} + {f2:?}@{cj}"
                                    );
                                    patched_seen += 1;
                                }
                                MutantTape::Dead => {
                                    assert_eq!(base_out, reference, "dead set {ci},{cj} differs");
                                }
                                MutantTape::Unsupported => {}
                            }
                            assert_eq!(
                                base.tape, baseline_tape,
                                "tape not restored after {f1:?}@{ci}+{f2:?}@{cj}"
                            );
                            assert_eq!(base.perm_sets, baseline_perms, "perm table not restored");
                        }
                    }
                }
            }
            assert!(patched_seen > 0, "no multi-patched mutants exercised");
        }
    }
}
