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
    let mut prev: Option<&MicroOp> = None;
    for op in cc.tape() {
        if !prev.is_some_and(|p| shares_controls(p, op)) {
            masks = None;
        }
        emit_op(&mut out, cc, op, &mut ver, &mut masks, &mut mctr, &rd);
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

fn emit_op(
    out: &mut String,
    cc: &CompiledCircuit,
    op: &MicroOp,
    ver: &mut [u32],
    masks: &mut Option<[String; 4]>,
    mctr: &mut u32,
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
            let _ = writeln!(out, "    let {} = {v};", wr(d, ver));
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
            let m = masks.get_or_insert_with(|| emit_masks(out, rd(s1, ver), rd(s0, ver), mctr));
            // Output j is the OR, over select combinations c, of mask c
            // AND the input that c's permutation routes to output j.
            let rhs: Vec<String> = (0..4)
                .map(|j| {
                    (0..4)
                        .map(|c| format!("({} & {})", m[c], iv[pm[c][j] as usize]))
                        .collect::<Vec<_>>()
                        .join(" | ")
                })
                .collect();
            for (&dj, r) in d.iter().zip(&rhs) {
                let _ = writeln!(out, "    let {} = {r};", wr(dj, ver));
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
