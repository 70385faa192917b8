//! The `rewrite` pass: the four local rewrites the paper's networks
//! trigger once const-prop and CSE have run.
//!
//! | rule           | before               | after                               |
//! |----------------|----------------------|-------------------------------------|
//! | `pair-and-xor` | `and a b`, `xor a b` | legs 0, 1 of one `HALF_ADDER` switch |
//! | `and-idem`     | `and a a`            | `a`                                 |
//! | `or-idem`      | `or a a`             | `a`                                 |
//! | `syn-xor-x-x`  | `xor a a`            | `false`                             |
//!
//! The pair is the generate/propagate half adder of each adder bit: the
//! population-count prefix adder (Network 1, Fig. 5) and the counters
//! in the fish merger and the self-checking wrappers. One 4×4 switch
//! with selects `(s1, s0) = (a, b)` over `ins = [F, T, F, T]` (the
//! canonical constants) computes both bits:
//!
//! ```text
//!  a b | row = HALF_ADDER[2a + b] | leg 0 = ins[row[0]] | leg 1 = ins[row[1]]
//!  0 0 | [0, 2, 1, 3]             | F = 0 ∧ 0           | F = 0 ⊕ 0
//!  0 1 | [0, 1, 3, 2]             | F = 0 ∧ 1           | T = 0 ⊕ 1
//!  1 0 | [0, 1, 3, 2]             | F = 1 ∧ 0           | T = 1 ⊕ 0
//!  1 1 | [1, 0, 3, 2]             | T = 1 ∧ 1           | F = 1 ⊕ 1
//! ```
//!
//! Legs 2 and 3 take the remaining inputs, so every row is a
//! permutation. The other three rules are `x ∧ x = x`, `x ∨ x = x` and
//! `x ⊕ x = 0`. They fire on duplicate-hardened wrappers once CSE has
//! merged the two copies, and on fish with const-prop off. Constant and
//! duplicate folding belong to const-prop and CSE.
//!
//! **Rounds.** Each round scans the live ops in order. An `and` fuses
//! with the earliest `xor` over the same unordered operand pair if that
//! xor is live and not yet claimed this round; the switch goes in at the
//! earlier of the two ops, or an identical live switch defined earlier
//! is reused (only possible with CSE off). Otherwise the idempotence
//! rules apply. A new switch reads both canonical constants and so
//! revives any that DCE would otherwise drop: when a round's gain does
//! not exceed that cost, its new-switch matches are dropped. Every
//! applied round removes ops, so the loop ends.
//!
//! **Provenance.** Every op a rewrite deletes has its component marked
//! [`crate::ir::CompFate::Folded`], so fault campaigns recompile mutants
//! there and reports stay byte-identical across opt levels.

use crate::component::{GateOp, Perm4};
use crate::ir::{CompileIr, IrKind, IrOp, ValId, NO_COMP};

use super::index::{pair, OpIndex};
use super::Pass;

/// Permutation rows of the half-adder switch (see the module table).
pub(crate) const HALF_ADDER: [Perm4; 4] = [[0, 2, 1, 3], [0, 1, 3, 2], [0, 1, 3, 2], [1, 0, 3, 2]];

/// Rule names, sorted: the order [`CompileIr::rewrite_hits`] lists them.
const RULES: [&str; 4] = ["and-idem", "or-idem", "pair-and-xor", "syn-xor-x-x"];
const AND_IDEM: usize = 0;
const OR_IDEM: usize = 1;
const PAIR_AND_XOR: usize = 2;
const XOR_SELF: usize = 3;

/// The `rewrite` pass. See the module docs.
pub struct Rewrite;

impl Pass for Rewrite {
    fn name(&self) -> &'static str {
        "rewrite"
    }

    fn run(&self, ir: &mut CompileIr) {
        let mut counts = [0u32; 4];
        while round(ir, &mut counts) {}
        ir.rewrite_hits = RULES
            .iter()
            .zip(counts)
            .filter(|&(_, n)| n > 0)
            .map(|(name, n)| ((*name).to_owned(), n))
            .collect();
        #[cfg(feature = "telemetry")]
        {
            for (name, n) in &ir.rewrite_hits {
                absort_telemetry::counter_add(
                    &format!("compile.pass.rewrite.rule.{name}"),
                    u64::from(*n),
                );
            }
            let total = counts.iter().map(|&n| u64::from(n)).sum();
            absort_telemetry::counter_add("compile.pass.rewrite.applied", total);
        }
    }
}

/// One rewrite found by a scan, against the round's input IR.
struct Hit {
    rule: usize,
    /// `(deleted op, value replacing its def)`: the anchor, then a
    /// pair's `xor`.
    repl: Vec<(u32, ValId)>,
    /// A new half-adder switch, inserted before the earliest deleted op.
    switch: Option<IrOp>,
}

/// Scans and applies one round; returns whether anything changed.
fn round(ir: &mut CompileIr, counts: &mut [u32; 4]) -> bool {
    let (cf, ct) = (ir.const_false, ir.const_true);
    let mut needed = vec![false; ir.n_vals as usize];
    let mut const_used = [false; 2];
    for &o in &ir.outputs {
        needed[o as usize] = true;
        const_used[0] |= o == cf;
        const_used[1] |= o == ct;
    }
    let mut live = vec![false; ir.ops.len()];
    let is_adder = |ins: [ValId; 4], perms| ins == [cf, ct, cf, ct] && perms == HALF_ADDER;
    let (mut xors, mut adders) = (0, 0);
    for (i, op) in ir.ops.iter().enumerate().rev() {
        live[i] = op.defs().iter().any(|&d| needed[d as usize]);
        op.kind.for_each_use(|v| {
            needed[v as usize] |= live[i];
            const_used[0] |= v == cf;
            const_used[1] |= v == ct;
        });
        match op.kind {
            IrKind::Gate {
                op: GateOp::Xor, ..
            } => xors += 1,
            IrKind::Switch4 { ins, perms, .. } if is_adder(ins, perms) => adders += 1,
            _ => {}
        }
    }
    // Earliest xor per unordered operand pair; earliest half-adder
    // switch per select pair. Each key is one word, so a tag match is a
    // key match.
    let mut xor_at = OpIndex::with_capacity(xors);
    let mut adder_at = OpIndex::with_capacity(adders);
    for (i, op) in ir.ops.iter().enumerate() {
        match op.kind {
            IrKind::Gate {
                op: GateOp::Xor,
                a,
                b,
            } => {
                xor_at.find_or_insert(pair(a.min(b), a.max(b)), i as u32, |_| true);
            }
            IrKind::Switch4 { s1, s0, ins, perms } if is_adder(ins, perms) => {
                adder_at.find_or_insert(pair(s1, s0), i as u32, |_| true);
            }
            _ => {}
        }
    }

    let mut claimed = vec![false; ir.ops.len()];
    let mut next_val = ir.n_vals;
    let mut hits: Vec<Hit> = Vec::new();
    for (i, op) in ir.ops.iter().enumerate() {
        let IrKind::Gate { op: g, a, b } = op.kind else {
            continue;
        };
        if claimed[i] || !live[i] {
            continue;
        }
        let i = i as u32;
        let alias = |rule, v| Hit {
            rule,
            repl: vec![(i, v)],
            switch: None,
        };
        let hit = match g {
            GateOp::And => xor_at
                .find(pair(a.min(b), a.max(b)), |_| true)
                .filter(|&j| !claimed[j as usize] && live[j as usize])
                .map(|j| {
                    let (defs, switch) = match adder_at.find(pair(a, b), |_| true) {
                        Some(k) if k < i.min(j) && live[k as usize] => {
                            (ir.ops[k as usize].defs, None)
                        }
                        _ => {
                            let defs = [next_val, next_val + 1, next_val + 2, next_val + 3];
                            next_val += 4;
                            let kind = IrKind::Switch4 {
                                s1: a,
                                s0: b,
                                ins: [cf, ct, cf, ct],
                                perms: HALF_ADDER,
                            };
                            let op = IrOp {
                                kind,
                                defs,
                                comp: NO_COMP,
                                reuse_masks: false,
                                level: 0,
                            };
                            (defs, Some(op))
                        }
                    };
                    Hit {
                        rule: PAIR_AND_XOR,
                        repl: vec![(i, defs[0]), (j, defs[1])],
                        switch,
                    }
                })
                .or_else(|| (a == b).then(|| alias(AND_IDEM, a))),
            GateOp::Or if a == b => Some(alias(OR_IDEM, a)),
            GateOp::Xor if a == b => Some(alias(XOR_SELF, cf)),
            _ => None,
        };
        if let Some(h) = hit {
            for &(o, _) in &h.repl {
                claimed[o as usize] = true;
            }
            hits.push(h);
        }
    }

    let revived = if hits.iter().any(|h| h.switch.is_some()) {
        const_used.iter().filter(|&&u| !u).count()
    } else {
        0
    };
    let gain: usize = hits
        .iter()
        .map(|h| h.repl.len() - usize::from(h.switch.is_some()))
        .sum();
    if revived > 0 && gain <= revived {
        hits.retain(|h| h.switch.is_none());
    }
    if hits.is_empty() {
        return false;
    }

    ir.n_vals = next_val;
    let mut subst: Vec<ValId> = (0..next_val).collect();
    let mut deleted = vec![false; ir.ops.len()];
    // New switches by insert position; each position is a distinct
    // deleted op.
    let mut inserts: Vec<(u32, IrOp)> = Vec::new();
    for h in hits {
        counts[h.rule] += 1;
        for &(o, v) in &h.repl {
            let op = ir.ops[o as usize];
            subst[op.defs[0] as usize] = v;
            deleted[o as usize] = true;
            ir.fold_comp(op.comp);
        }
        if let Some(sw) = h.switch {
            let at = h.repl.iter().map(|&(o, _)| o).min();
            inserts.push((at.expect("a hit deletes at least one op"), sw));
        }
    }
    inserts.sort_unstable_by_key(|&(at, _)| at);
    // A replacement is defined before the def it replaces, so chains
    // (a value replaced by one that is itself replaced) are acyclic.
    let resolve = |mut v: ValId| {
        while subst[v as usize] != v {
            v = subst[v as usize];
        }
        v
    };
    let old = std::mem::replace(&mut ir.ops, Vec::with_capacity(deleted.len()));
    let mut inserts = inserts.into_iter().peekable();
    for (i, op) in old.into_iter().enumerate() {
        if let Some((_, sw)) = inserts.next_if(|&(at, _)| at == i as u32) {
            ir.ops.push(sw);
        }
        if !deleted[i] {
            ir.ops.push(op);
        }
    }
    for op in &mut ir.ops {
        op.kind.map_uses(resolve);
    }
    for o in &mut ir.outputs {
        *o = resolve(*o);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::ir::lower;

    #[test]
    fn half_adder_rows_are_permutations() {
        for row in HALF_ADDER {
            let mut sorted = row;
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3], "row {row:?} is not a permutation");
        }
    }

    #[test]
    fn half_adder_legs_are_and_and_xor() {
        let ins = [false, true, false, true];
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let row = HALF_ADDER[usize::from(a) * 2 + usize::from(b)];
            assert_eq!(ins[row[0] as usize], a & b, "and leg at a={a} b={b}");
            assert_eq!(ins[row[1] as usize], a ^ b, "xor leg at a={a} b={b}");
        }
    }

    /// `pairs` and/xor pairs over distinct inputs, rewritten.
    fn rewritten_pairs(pairs: usize) -> CompileIr {
        let mut b = Builder::new();
        let ins = b.input_bus(2 * pairs);
        let mut outs = Vec::new();
        for p in ins.chunks(2) {
            outs.push(b.and(p[0], p[1]));
            outs.push(b.xor(p[0], p[1]));
        }
        b.outputs(&outs);
        let c = b.finish();
        let mut ir = lower(&c);
        Rewrite.run(&mut ir);
        let lanes: Vec<u64> = (0..c.n_inputs() as u64)
            .map(|i| 0x9E37_79B9_7F4A_7C15u64.rotate_left(7 * i as u32))
            .collect();
        assert_eq!(ir.eval_lanes(&lanes), c.eval_lanes(&lanes));
        ir
    }

    #[test]
    fn fuses_pairs_only_when_the_round_outweighs_the_revived_constants() {
        // One pair: fusing saves one op but revives both constants.
        let ir = rewritten_pairs(1);
        assert_eq!(ir.ops.len(), 4, "2 constants + and + xor stay");
        assert!(ir.rewrite_hits.is_empty());
        // Three pairs save three ops against the same two constants.
        let ir = rewritten_pairs(3);
        assert_eq!(ir.ops.len(), 5, "2 constants + 3 switches");
        assert_eq!(ir.rewrite_hits, vec![("pair-and-xor".to_owned(), 3)]);
    }
}
