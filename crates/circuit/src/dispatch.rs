//! Threaded-code dispatch for the compiled tape.
//!
//! [`CompiledEvaluator`](crate::CompiledEvaluator) does not interpret
//! [`MicroOp`]s with a match loop. At construction it *decodes* the tape
//! once into a [`Program`]: a flat instruction array where every entry
//! carries a function pointer plus fully resolved operands — the
//! permutation bytes of a 4×4 switch are copied inline. Evaluation is
//! then one indirect call per instruction with no per-op re-decoding,
//! which is what closes the scalar gap between the tape and the
//! component interpreter.
//!
//! Decode is the one place that decides dispatch shape, for every
//! evaluator and lane type. The tape itself carries no fusion hints:
//!
//! * **switch chains** — a maximal run of 4×4 switches where each one
//!   reads the same control slots as the switch before it and that
//!   switch wrote neither slot ([`shares_controls`]) becomes one
//!   instruction. It computes the select masks, or the scalar index,
//!   once for the whole run: one swapper column steered by one control
//!   pair;
//! * **pairs** — two adjacent pair-fusible ops (gates, bit comparators,
//!   2×2 switches, muxes) become one instruction.
//!
//! Both rewrites are pure re-bracketing: the program executes exactly
//! the tape's slot reads and writes in tape order, it just pays fewer
//! dispatches. Because they are re-derived from the tape on every
//! decode, an in-place mutant patch (`CompiledCircuit::mutant_tape`)
//! only ever rewrites its own op.
//!
//! Two decode policies exist per switch:
//!
//! * **wide** (`LANES > 1`): 4×4 switches run the select-mask arithmetic
//!   (masks shared across an op's four outputs and, for chains, across
//!   the whole run);
//! * **scalar** (`LANES == 1`): a 4×4 switch *indexes* — the two control
//!   bits pick one of four permutations and the op degenerates to four
//!   slot moves, replacing ~30 lane operations with 2 bit tests. Sound
//!   only when every lane shares one control value, i.e. exactly when
//!   `LANES == 1`.
//!
//! The profiler (`CompiledEvaluator::run_into_profiled`) walks this same
//! program through [`Program::exec_profiled`], which reports the tape
//! range each instruction covers.

use std::ops::Range;

use crate::compile::{shares_controls, CompiledCircuit, MicroOp};
use crate::lane::Lane;

/// One decoded 4×4 switch of a chain: permutation bytes inline.
pub(crate) struct ChainItem {
    d: [u32; 4],
    ins: [u32; 4],
    perm: [[u8; 4]; 4],
}

/// Decoded instruction: a function pointer plus resolved operands.
/// `a` is a flat slot-operand window whose layout is op-specific (for a
/// pair it is two 5-slot sub-op windows); `perm` holds a lone 4×4
/// switch's permutation set inline so execution never touches
/// [`CompiledCircuit::perm_sets`].
pub(crate) struct Instr<V: Lane> {
    f: OpFn<V>,
    a: [u32; 10],
    perm: [[u8; 4]; 4],
}

/// `(slots, chain items, instruction)`.
type OpFn<V> = fn(&mut [V], &[ChainItem], &Instr<V>);

/// A decoded tape: what a [`CompiledEvaluator`](crate::CompiledEvaluator)
/// actually runs.
pub(crate) struct Program<V: Lane> {
    instrs: Vec<Instr<V>>,
    items: Vec<ChainItem>,
    /// Tape position of each instruction's first op, plus the tape
    /// length: instruction `i` covers ops `first_op[i]..first_op[i + 1]`.
    first_op: Vec<u32>,
}

#[inline]
fn s(x: u32) -> usize {
    x as usize
}

// ---- simple ops -----------------------------------------------------------

fn op_const<V: Lane>(w: &mut [V], _it: &[ChainItem], i: &Instr<V>) {
    w[s(i.a[0])] = V::splat(i.a[1] != 0);
}

fn op_not<V: Lane>(w: &mut [V], _it: &[ChainItem], i: &Instr<V>) {
    w[s(i.a[0])] = w[s(i.a[1])].not();
}

fn op_demux<V: Lane>(w: &mut [V], _it: &[ChainItem], i: &Instr<V>) {
    let (sv, xv) = (w[s(i.a[2])], w[s(i.a[3])]);
    w[s(i.a[0])] = sv.not().and(xv);
    w[s(i.a[1])] = sv.and(xv);
}

fn op_route2<V: Lane>(w: &mut [V], _it: &[ChainItem], i: &Instr<V>) {
    let (av, bv) = (w[s(i.a[2])], w[s(i.a[3])]);
    w[s(i.a[0])] = av;
    w[s(i.a[1])] = bv;
}

// ---- pair-fusible sub-ops -------------------------------------------------
//
// The ops decode may pack two-per-dispatch, executed through a
// const-generic kind code so the inner match folds away after
// monomorphization. Operand window layouts (5 slots each):
//   gates (codes 0-5):  [d, a, b]
//   bitcompare (6):     [d0, d1, a, b]
//   switch2 (7):        [d0, d1, s, a, b]
//   mux (8):            [d, s, a1, a0]

/// Number of pair-fusible kind codes (see [`pair_code`]).
const N_PAIR_KINDS: u8 = 9;

/// The pair-fusible kind code and 5-slot operand window of `op`, if
/// decode may pack it into a pair.
fn pair_code(op: &MicroOp) -> Option<(u8, [u32; 5])> {
    Some(match *op {
        MicroOp::And { d, a, b } => (0, [d, a, b, 0, 0]),
        MicroOp::Or { d, a, b } => (1, [d, a, b, 0, 0]),
        MicroOp::Xor { d, a, b } => (2, [d, a, b, 0, 0]),
        MicroOp::Nand { d, a, b } => (3, [d, a, b, 0, 0]),
        MicroOp::Nor { d, a, b } => (4, [d, a, b, 0, 0]),
        MicroOp::Xnor { d, a, b } => (5, [d, a, b, 0, 0]),
        MicroOp::BitCompare { d0, d1, a, b } => (6, [d0, d1, a, b, 0]),
        MicroOp::Switch2 { d0, d1, s, a, b } => (7, [d0, d1, s, a, b]),
        MicroOp::Mux { d, s, a1, a0 } => (8, [d, s, a1, a0, 0]),
        _ => return None,
    })
}

/// Executes one pair-fusible sub-op on the operand window `c`. `K` is a
/// compile-time kind code, so each instantiation is straight-line.
#[inline(always)]
fn sub_op<V: Lane, const K: u8>(w: &mut [V], c: &[u32]) {
    match K {
        0 => {
            let (x, y) = (w[s(c[1])], w[s(c[2])]);
            w[s(c[0])] = x.and(y);
        }
        1 => {
            let (x, y) = (w[s(c[1])], w[s(c[2])]);
            w[s(c[0])] = x.or(y);
        }
        2 => {
            let (x, y) = (w[s(c[1])], w[s(c[2])]);
            w[s(c[0])] = x.xor(y);
        }
        3 => {
            let (x, y) = (w[s(c[1])], w[s(c[2])]);
            w[s(c[0])] = x.and(y).not();
        }
        4 => {
            let (x, y) = (w[s(c[1])], w[s(c[2])]);
            w[s(c[0])] = x.or(y).not();
        }
        5 => {
            let (x, y) = (w[s(c[1])], w[s(c[2])]);
            w[s(c[0])] = x.xor(y).not();
        }
        6 => {
            let (x, y) = (w[s(c[2])], w[s(c[3])]);
            w[s(c[0])] = x.and(y);
            w[s(c[1])] = x.or(y);
        }
        7 => {
            let (sv, av, bv) = (w[s(c[2])], w[s(c[3])], w[s(c[4])]);
            w[s(c[0])] = V::select(sv, bv, av);
            w[s(c[1])] = V::select(sv, av, bv);
        }
        _ => {
            let (sv, x1, x0) = (w[s(c[1])], w[s(c[2])], w[s(c[3])]);
            w[s(c[0])] = V::select(sv, x1, x0);
        }
    }
}

/// A lone pair-fusible op dispatched through its `sub_op` body.
fn op_single<V: Lane, const K: u8>(w: &mut [V], _it: &[ChainItem], i: &Instr<V>) {
    sub_op::<V, K>(w, &i.a[..5]);
}

/// Two sub-ops, one dispatch.
fn op_pair<V: Lane, const K1: u8, const K2: u8>(w: &mut [V], _it: &[ChainItem], i: &Instr<V>) {
    sub_op::<V, K1>(w, &i.a[..5]);
    sub_op::<V, K2>(w, &i.a[5..]);
}

fn single_fn<V: Lane>(k: u8) -> OpFn<V> {
    match k {
        0 => op_single::<V, 0>,
        1 => op_single::<V, 1>,
        2 => op_single::<V, 2>,
        3 => op_single::<V, 3>,
        4 => op_single::<V, 4>,
        5 => op_single::<V, 5>,
        6 => op_single::<V, 6>,
        7 => op_single::<V, 7>,
        _ => op_single::<V, 8>,
    }
}

fn pair_fn<V: Lane>(k1: u8, k2: u8) -> OpFn<V> {
    debug_assert!(k1 < N_PAIR_KINDS && k2 < N_PAIR_KINDS);
    macro_rules! row {
        ($k1:literal) => {
            match k2 {
                0 => op_pair::<V, $k1, 0>,
                1 => op_pair::<V, $k1, 1>,
                2 => op_pair::<V, $k1, 2>,
                3 => op_pair::<V, $k1, 3>,
                4 => op_pair::<V, $k1, 4>,
                5 => op_pair::<V, $k1, 5>,
                6 => op_pair::<V, $k1, 6>,
                7 => op_pair::<V, $k1, 7>,
                _ => op_pair::<V, $k1, 8>,
            }
        };
    }
    match k1 {
        0 => row!(0),
        1 => row!(1),
        2 => row!(2),
        3 => row!(3),
        4 => row!(4),
        5 => row!(5),
        6 => row!(6),
        7 => row!(7),
        _ => row!(8),
    }
}

// ---- 4×4 switches ---------------------------------------------------------
//
// Operand layout: a[0..4] = dests, a[4..8] = ins, a[8] = s1, a[9] = s0;
// the permutation set rides inline in `Instr::perm`. Chains use
// a[0] = s1, a[1] = s0, a[2] = item start, a[3] = item count.

#[inline(always)]
fn switch_masks<V: Lane>(v1: V, v0: V) -> [V; 4] {
    [
        v1.not().and(v0.not()),
        v1.not().and(v0),
        v1.and(v0.not()),
        v1.and(v0),
    ]
}

#[inline(always)]
fn switch_apply<V: Lane>(w: &mut [V], m: &[V; 4], d: &[u32], ins: &[u32], pm: &[[u8; 4]; 4]) {
    let iv = [w[s(ins[0])], w[s(ins[1])], w[s(ins[2])], w[s(ins[3])]];
    for j in 0..4 {
        w[s(d[j])] = m[0]
            .and(iv[pm[0][j] as usize])
            .or(m[1].and(iv[pm[1][j] as usize]))
            .or(m[2].and(iv[pm[2][j] as usize]))
            .or(m[3].and(iv[pm[3][j] as usize]));
    }
}

/// Lone 4×4 switch, wide flavour.
fn op_switch4<V: Lane>(w: &mut [V], _it: &[ChainItem], i: &Instr<V>) {
    let m = switch_masks(w[s(i.a[8])], w[s(i.a[9])]);
    switch_apply(w, &m, &i.a[..4], &i.a[4..8], &i.perm);
}

/// Lone 4×4 switch, scalar (`LANES == 1`) flavour: the control pair
/// indexes one permutation and the op becomes four slot moves.
fn op_switch4_scalar<V: Lane>(w: &mut [V], _it: &[ChainItem], i: &Instr<V>) {
    let k = usize::from(w[s(i.a[8])].first_lane()) << 1 | usize::from(w[s(i.a[9])].first_lane());
    let iv = [w[s(i.a[4])], w[s(i.a[5])], w[s(i.a[6])], w[s(i.a[7])]];
    let pm = &i.perm[k];
    for j in 0..4 {
        w[s(i.a[j])] = iv[pm[j] as usize];
    }
}

/// Switch chain, wide flavour: masks computed once, applied to every
/// item of the run.
fn op_chain<V: Lane>(w: &mut [V], it: &[ChainItem], i: &Instr<V>) {
    let m = switch_masks(w[s(i.a[0])], w[s(i.a[1])]);
    for item in &it[s(i.a[2])..s(i.a[2]) + s(i.a[3])] {
        switch_apply(w, &m, &item.d, &item.ins, &item.perm);
    }
}

/// Switch chain, scalar flavour: one 2-bit index steers the whole run
/// of four-slot moves.
fn op_chain_scalar<V: Lane>(w: &mut [V], it: &[ChainItem], i: &Instr<V>) {
    let k = usize::from(w[s(i.a[0])].first_lane()) << 1 | usize::from(w[s(i.a[1])].first_lane());
    for item in &it[s(i.a[2])..s(i.a[2]) + s(i.a[3])] {
        let iv = [
            w[s(item.ins[0])],
            w[s(item.ins[1])],
            w[s(item.ins[2])],
            w[s(item.ins[3])],
        ];
        let pm = &item.perm[k];
        for j in 0..4 {
            w[s(item.d[j])] = iv[pm[j] as usize];
        }
    }
}

// ---- decode ---------------------------------------------------------------

impl<V: Lane> Program<V> {
    /// Decodes a compiled tape into its threaded form, fusing switch
    /// chains and op pairs (see the module docs). `O(tape)`; done once
    /// per evaluator, so per-mutant evaluators in fault campaigns pay it
    /// on tapes of a few hundred ops at most.
    pub(crate) fn decode(cc: &CompiledCircuit) -> Program<V> {
        let scalar = V::LANES == 1;
        let tape = cc.tape();
        let mut prog = Program {
            instrs: Vec::with_capacity(tape.len()),
            items: Vec::new(),
            first_op: Vec::with_capacity(tape.len() + 1),
        };
        let mut i = 0;
        while i < tape.len() {
            prog.first_op.push(i as u32);
            let mut a = [0u32; 10];
            let mut perm = [[0u8; 4]; 4];
            let mut next = i + 1;
            let f: OpFn<V> = match tape[i] {
                MicroOp::Const { d, v } => {
                    a[0] = d;
                    a[1] = u32::from(v);
                    op_const
                }
                MicroOp::Not { d, a: x } => {
                    a[0] = d;
                    a[1] = x;
                    op_not
                }
                MicroOp::Demux { d0, d1, s, x } => {
                    a[..4].copy_from_slice(&[d0, d1, s, x]);
                    op_demux
                }
                MicroOp::Route2 { d0, d1, a: x, b } => {
                    a[..4].copy_from_slice(&[d0, d1, x, b]);
                    op_route2
                }
                MicroOp::Switch4 {
                    d,
                    ins,
                    s1,
                    s0,
                    pidx,
                } => {
                    while next < tape.len() && shares_controls(&tape[next - 1], &tape[next]) {
                        next += 1;
                    }
                    if next - i == 1 {
                        a[..4].copy_from_slice(&d);
                        a[4..8].copy_from_slice(&ins);
                        a[8] = s1;
                        a[9] = s0;
                        perm = cc.perm_sets()[s(pidx)];
                        if scalar {
                            op_switch4_scalar
                        } else {
                            op_switch4
                        }
                    } else {
                        a[..4].copy_from_slice(&[
                            s1,
                            s0,
                            prog.items.len() as u32,
                            (next - i) as u32,
                        ]);
                        for op in &tape[i..next] {
                            if let MicroOp::Switch4 { d, ins, pidx, .. } = *op {
                                prog.items.push(ChainItem {
                                    d,
                                    ins,
                                    perm: cc.perm_sets()[s(pidx)],
                                });
                            }
                        }
                        if scalar {
                            op_chain_scalar
                        } else {
                            op_chain
                        }
                    }
                }
                ref op => {
                    let (k1, c1) = pair_code(op).expect("unhandled micro-op kind");
                    a[..5].copy_from_slice(&c1);
                    match tape.get(next).and_then(pair_code) {
                        Some((k2, c2)) => {
                            a[5..].copy_from_slice(&c2);
                            next += 1;
                            pair_fn(k1, k2)
                        }
                        None => single_fn(k1),
                    }
                }
            };
            prog.instrs.push(Instr { f, a, perm });
            i = next;
        }
        prog.first_op.push(tape.len() as u32);
        prog
    }

    /// Number of decoded instructions.
    pub(crate) fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Executes the decoded program over the slot buffer `w`.
    #[inline]
    pub(crate) fn exec(&self, w: &mut [V]) {
        for i in &self.instrs {
            (i.f)(w, &self.items, i);
        }
    }

    /// [`Program::exec`] that calls `after` with the tape range each
    /// instruction covers once the instruction has run.
    pub(crate) fn exec_profiled(&self, w: &mut [V], mut after: impl FnMut(Range<usize>)) {
        for (i, ops) in self.instrs.iter().zip(self.first_op.windows(2)) {
            (i.f)(w, &self.items, i);
            after(s(ops[0])..s(ops[1]));
        }
    }
}
