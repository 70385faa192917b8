//! Ahead-of-time Rust source emission from a compiled tape.
//!
//! The paper's networks are fixed combinational circuits known at
//! compile time, so for any catalog entry we can go one step past tape
//! dispatch and print the whole evaluation as straight-line, branch-free
//! Rust (`absort emit --rust --network <x> --n <k>`): one `let` binding
//! per slot write, `& | ^ !` only, no loops and no indexing except the
//! input/output arrays at constant positions. `rustc -O` then performs
//! real register allocation over the slot values — the comparison point
//! for how much dispatch overhead the tape evaluator still carries
//! (`emitted_scalar_ms` in `bench_eval`).
//!
//! Emission is deterministic: the same tape always prints the same
//! source, which is what the golden-file test
//! (`tests/emitted_golden.rs`) pins. Slot reuse is expressed by
//! *versioned* bindings (`s7_2` = third write of slot 7) so a
//! multi-output op can read its sources "before" writing destinations
//! that alias them, exactly like the tape evaluator does.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::compile::{shares_controls, CompiledCircuit, MicroOp};

/// Emits `cc` as a free function `fn <fn_name>(input: &[bool; I]) ->
/// [bool; O]`. With `standalone` the output is a complete `#![no_std]`
/// crate root (what the CI job feeds to `rustc --edition 2021 -O`);
/// without it, a bare function suitable for `include!`.
pub fn emit_rust(cc: &CompiledCircuit, fn_name: &str, standalone: bool) -> String {
    let mut out = String::new();
    if standalone {
        out.push_str("#![no_std]\n#![allow(clippy::all)]\n\n");
    }
    let _ = writeln!(
        out,
        "// Generated by `absort emit --rust`; do not edit.\n\
         // tape: {} ops, {} slots, {} levels.",
        cc.tape_len(),
        cc.n_slots(),
        cc.level_ranges().len(),
    );
    let _ = writeln!(
        out,
        "#[allow(unused_variables, clippy::all)]\n\
         pub fn {fn_name}(input: &[bool; {}]) -> [bool; {}] {{",
        cc.n_inputs(),
        cc.n_outputs(),
    );

    // Versioned slot bindings: `ver[s] == 0` means never written (the
    // liveness invariant guarantees no read sees that).
    let mut ver = vec![0u32; cc.n_slots()];
    let rd = |s: u32, ver: &[u32]| format!("s{}_{}", s, ver[s as usize]);
    fn wr(s: u32, ver: &mut [u32]) -> String {
        ver[s as usize] += 1;
        format!("s{}_{}", s, ver[s as usize])
    }

    for (i, &slot) in cc.input_slots().iter().enumerate() {
        let _ = writeln!(out, "    let {} = input[{i}];", wr(slot, &mut ver));
    }

    // Mask temporaries of the current run of 4×4 switches on one
    // control pair (the runs dispatch decodes into one chain); every
    // switch of the run reads them instead of re-deriving.
    let mut masks: Option<[String; 4]> = None;
    let mut mctr = 0u32;
    // Bindings known to hold a constant (the rewrite pass routes the
    // canonical consts into half-adder 4×4 switches); switch emission
    // folds them so the straight-line source stays near tape size.
    let mut konst: HashMap<String, bool> = HashMap::new();
    let mut prev: Option<&MicroOp> = None;
    for op in cc.tape() {
        if !prev.is_some_and(|p| shares_controls(p, op)) {
            masks = None;
        }
        emit_op(
            &mut out, cc, op, &mut ver, &mut masks, &mut mctr, &mut konst, &rd,
        );
        prev = Some(op);
    }

    out.push_str("    [");
    for (i, &slot) in cc.output_slots().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&rd(slot, &ver));
    }
    out.push_str("]\n}\n");
    out
}

#[allow(clippy::too_many_arguments)]
fn emit_op(
    out: &mut String,
    cc: &CompiledCircuit,
    op: &MicroOp,
    ver: &mut [u32],
    masks: &mut Option<[String; 4]>,
    mctr: &mut u32,
    konst: &mut HashMap<String, bool>,
    rd: &dyn Fn(u32, &[u32]) -> String,
) {
    fn wr(s: u32, ver: &mut [u32]) -> String {
        ver[s as usize] += 1;
        format!("s{}_{}", s, ver[s as usize])
    }
    // Multi-output ops: every RHS is built from pre-op versions first,
    // then all destinations are bound — destinations may alias sources.
    match *op {
        MicroOp::Const { d, v } => {
            let name = wr(d, ver);
            konst.insert(name.clone(), v);
            let _ = writeln!(out, "    let {name} = {v};");
        }
        MicroOp::Not { d, a } => {
            let rhs = format!("!{}", rd(a, ver));
            let _ = writeln!(out, "    let {} = {rhs};", wr(d, ver));
        }
        MicroOp::And { d, a, b } => {
            let rhs = format!("{} & {}", rd(a, ver), rd(b, ver));
            let _ = writeln!(out, "    let {} = {rhs};", wr(d, ver));
        }
        MicroOp::Or { d, a, b } => {
            let rhs = format!("{} | {}", rd(a, ver), rd(b, ver));
            let _ = writeln!(out, "    let {} = {rhs};", wr(d, ver));
        }
        MicroOp::Xor { d, a, b } => {
            let rhs = format!("{} ^ {}", rd(a, ver), rd(b, ver));
            let _ = writeln!(out, "    let {} = {rhs};", wr(d, ver));
        }
        MicroOp::Nand { d, a, b } => {
            let rhs = format!("!({} & {})", rd(a, ver), rd(b, ver));
            let _ = writeln!(out, "    let {} = {rhs};", wr(d, ver));
        }
        MicroOp::Nor { d, a, b } => {
            let rhs = format!("!({} | {})", rd(a, ver), rd(b, ver));
            let _ = writeln!(out, "    let {} = {rhs};", wr(d, ver));
        }
        MicroOp::Xnor { d, a, b } => {
            let rhs = format!("!({} ^ {})", rd(a, ver), rd(b, ver));
            let _ = writeln!(out, "    let {} = {rhs};", wr(d, ver));
        }
        MicroOp::Mux { d, s, a1, a0 } => {
            let rhs = format!(
                "({s} & {a1}) | (!{s} & {a0})",
                s = rd(s, ver),
                a1 = rd(a1, ver),
                a0 = rd(a0, ver)
            );
            let _ = writeln!(out, "    let {} = {rhs};", wr(d, ver));
        }
        MicroOp::Demux { d0, d1, s, x } => {
            let r0 = format!("!{s} & {x}", s = rd(s, ver), x = rd(x, ver));
            let r1 = format!("{s} & {x}", s = rd(s, ver), x = rd(x, ver));
            let _ = writeln!(out, "    let {} = {r0};", wr(d0, ver));
            let _ = writeln!(out, "    let {} = {r1};", wr(d1, ver));
        }
        MicroOp::Switch2 { d0, d1, s, a, b } => {
            let (sv, av, bv) = (rd(s, ver), rd(a, ver), rd(b, ver));
            let r0 = format!("({sv} & {bv}) | (!{sv} & {av})");
            let r1 = format!("({sv} & {av}) | (!{sv} & {bv})");
            let _ = writeln!(out, "    let {} = {r0};", wr(d0, ver));
            let _ = writeln!(out, "    let {} = {r1};", wr(d1, ver));
        }
        MicroOp::Route2 { d0, d1, a, b } => {
            let (r0, r1) = (rd(a, ver), rd(b, ver));
            let _ = writeln!(out, "    let {} = {r0};", wr(d0, ver));
            let _ = writeln!(out, "    let {} = {r1};", wr(d1, ver));
        }
        MicroOp::BitCompare { d0, d1, a, b } => {
            let (av, bv) = (rd(a, ver), rd(b, ver));
            let r0 = format!("{av} & {bv}");
            let r1 = format!("{av} | {bv}");
            let _ = writeln!(out, "    let {} = {r0};", wr(d0, ver));
            let _ = writeln!(out, "    let {} = {r1};", wr(d1, ver));
        }
        MicroOp::Switch4 {
            d,
            ins,
            s1,
            s0,
            pidx,
        } => {
            let pm = &cc.perm_sets()[pidx as usize];
            let iv = [
                rd(ins[0], ver),
                rd(ins[1], ver),
                rd(ins[2], ver),
                rd(ins[3], ver),
            ];
            if iv.iter().all(|v| konst.contains_key(v)) {
                // A LUT-backed switch (every data input constant): each
                // output is a two-input boolean function of the selects
                // — emit it directly, no mask temporaries.
                emit_lut_outs(out, &rd(s1, ver), &rd(s0, ver), &d, &iv, pm, ver, konst);
            } else {
                let m = masks
                    .get_or_insert_with(|| emit_masks(out, rd(s1, ver), rd(s0, ver), mctr))
                    .clone();
                emit_switch4_outs(out, &m, &d, &iv, pm, ver, konst);
            }
        }
    }
}

/// Emits the four 4×4-switch select masks as fresh temporaries.
fn emit_masks(out: &mut String, s1: String, s0: String, mctr: &mut u32) -> [String; 4] {
    let k = *mctr;
    *mctr += 1;
    let m = [
        format!("m{k}_0"),
        format!("m{k}_1"),
        format!("m{k}_2"),
        format!("m{k}_3"),
    ];
    let _ = writeln!(out, "    let {} = !{s1} & !{s0};", m[0]);
    let _ = writeln!(out, "    let {} = !{s1} & {s0};", m[1]);
    let _ = writeln!(out, "    let {} = {s1} & !{s0};", m[2]);
    let _ = writeln!(out, "    let {} = {s1} & {s0};", m[3]);
    m
}

/// Emits the four outputs of one 4×4 switch given its mask temporaries.
/// Inputs bound to a known constant fold per mask term: `m & false`
/// drops, `m & true` becomes the bare mask, all-true becomes `true`
/// (the masks partition), none left becomes `false`.
fn emit_switch4_outs(
    out: &mut String,
    m: &[String; 4],
    d: &[u32; 4],
    iv: &[String; 4],
    pm: &[crate::component::Perm4; 4],
    ver: &mut [u32],
    konst: &mut HashMap<String, bool>,
) {
    let rhs: Vec<String> = (0..4)
        .map(|j| {
            let mut terms = Vec::new();
            let mut n_true = 0usize;
            for c in 0..4 {
                let src = &iv[pm[c][j] as usize];
                match konst.get(src) {
                    Some(false) => {}
                    Some(true) => {
                        n_true += 1;
                        terms.push(m[c].clone());
                    }
                    None => terms.push(format!("({} & {})", m[c], src)),
                }
            }
            if terms.is_empty() {
                "false".to_string()
            } else if n_true == 4 {
                "true".to_string()
            } else {
                terms.join(" | ")
            }
        })
        .collect();
    bind_outs(out, d, &rhs, ver, konst);
}

/// Emits the four outputs of a LUT-backed 4×4 switch (all data inputs
/// constant) as direct two-input boolean functions of the selects —
/// the form the rewrite pass's half-adder switches take. No mask
/// temporaries.
#[allow(clippy::too_many_arguments)]
fn emit_lut_outs(
    out: &mut String,
    s1: &str,
    s0: &str,
    d: &[u32; 4],
    iv: &[String; 4],
    pm: &[crate::component::Perm4; 4],
    ver: &mut [u32],
    konst: &mut HashMap<String, bool>,
) {
    let rhs: Vec<String> = (0..4)
        .map(|j| {
            // Truth-table bit c (selects s1=c>>1, s0=c&1) is the const
            // routed to output j under combination c's permutation.
            let mut tt = 0u8;
            for c in 0..4 {
                if konst[&iv[pm[c][j] as usize]] {
                    tt |= 1 << c;
                }
            }
            lut_expr(tt, s1, s0)
        })
        .collect();
    bind_outs(out, d, &rhs, ver, konst);
}

/// Binds the four switch outputs, recording any that reduced to a
/// constant so downstream LUT switches keep folding.
fn bind_outs(
    out: &mut String,
    d: &[u32; 4],
    rhs: &[String],
    ver: &mut [u32],
    konst: &mut HashMap<String, bool>,
) {
    for (j, r) in rhs.iter().enumerate() {
        ver[d[j] as usize] += 1;
        let name = format!("s{}_{}", d[j], ver[d[j] as usize]);
        if let Ok(v) = r.parse::<bool>() {
            konst.insert(name.clone(), v);
        }
        let _ = writeln!(out, "    let {name} = {r};");
    }
}

/// The minimal `& | ^ !` expression for a 2-input truth table; bit `c`
/// of `tt` is the function value at `a = c>>1, b = c&1`.
fn lut_expr(tt: u8, a: &str, b: &str) -> String {
    match tt & 0xF {
        0b0000 => "false".into(),
        0b0001 => format!("!({a} | {b})"),
        0b0010 => format!("!{a} & {b}"),
        0b0011 => format!("!{a}"),
        0b0100 => format!("{a} & !{b}"),
        0b0101 => format!("!{b}"),
        0b0110 => format!("{a} ^ {b}"),
        0b0111 => format!("!({a} & {b})"),
        0b1000 => format!("{a} & {b}"),
        0b1001 => format!("!({a} ^ {b})"),
        0b1010 => b.into(),
        0b1011 => format!("!{a} | {b}"),
        0b1100 => a.into(),
        0b1101 => format!("{a} | !{b}"),
        0b1110 => format!("{a} | {b}"),
        _ => "true".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;

    #[test]
    fn emitted_source_is_deterministic_and_structured() {
        let mut b = Builder::new();
        let ins = b.input_bus(4);
        let (lo, hi) = b.bit_compare(ins[0], ins[1]);
        let m = b.mux2(ins[2], lo, hi);
        let x = b.gate(crate::GateOp::Xor, m, ins[3]);
        b.outputs(&[x, lo]);
        let c = b.finish();
        let cc = c.compile();
        let src = emit_rust(&cc, "f", false);
        assert_eq!(
            src,
            emit_rust(&cc, "f", false),
            "emission must be deterministic"
        );
        assert!(src.contains("pub fn f(input: &[bool; 4]) -> [bool; 2]"));
        assert!(!src.contains("if "), "emitted code must be branch-free");
        let standalone = emit_rust(&cc, "f", true);
        assert!(standalone.starts_with("#![no_std]"));
    }
}
