//! # absort-circuit — bit-level network substrate
//!
//! The component-level netlist substrate underlying every network in the
//! paper *Adaptive Binary Sorting Schemes and Associated Interconnection
//! Networks* (Chien & Oruç). Networks in the paper's **Model A** are
//! combinational circuits built from a small set of constant-fanin
//! primitives, each of **unit cost and unit depth**:
//!
//! * 2×2 switches (pass/cross under a control signal),
//! * 2×1 multiplexers and 1×2 demultiplexers,
//! * two-input comparators specialised to bits (an AND/OR pair),
//! * ordinary constant-fanin logic gates,
//! * 4×4 switches, normalised to the cost of four 2×2 switches.
//!
//! This crate provides:
//!
//! * [`Builder`] — a netlist builder whose API makes cycles unrepresentable
//!   (a component may only reference wires that already exist), so the
//!   stored component list is always in topological order;
//! * [`Circuit`] — the finished netlist with exact [`Circuit::cost`] and
//!   [`Circuit::depth`] reports in the paper's accounting units;
//! * evaluation engines: scalar, 64-lane bit-parallel ([`Lane`] over
//!   `u64`), and a crossbeam-sharded parallel batch evaluator
//!   ([`Circuit::eval_batch_parallel`]);
//! * hierarchical [`scope`]s so cost can be attributed to sub-blocks
//!   (e.g. "how many gates does the patch-up network at level 3 use?"),
//!   which is how the per-block closed forms of the paper are audited.
//!
//! Higher layers (`absort-blocks`, `absort-core`, `absort-networks`) build
//! the paper's swappers, multiplexers, prefix adders and full sorting
//! networks on top of this substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod circuit;
pub mod clocked;
pub mod compile;
pub mod component;
pub mod cost;
pub(crate) mod dispatch;
pub mod dot;
pub mod emit;
pub mod equiv;
pub mod eval;
pub mod faulty;
pub mod ir;
pub mod lane;
pub mod mutate;
pub mod passes;
pub mod pipeline;
pub mod profile;
pub mod regalloc;
pub mod scope;
pub mod serdes;
pub mod stats;
pub mod validate;
pub mod wire;

pub use builder::Builder;
pub use circuit::{Circuit, MissingScope};
pub use compile::{CompiledCircuit, CompiledEvaluator, Engine, MutantTape, VariantTape};
pub use component::{Component, GateOp, Perm4};
pub use cost::{CostReport, KindCounts};
pub use eval::{EvalError, Evaluator};
pub use faulty::{FaultyEvaluator, WireFault};
pub use lane::Lane;
pub use passes::{CompileOptions, OptLevel, OptLevelError, PassManager, PassName, PassStats};
pub use profile::TapeProfile;
pub use scope::{ScopeId, ScopeTree};
pub use stats::Stats;
pub use validate::ValidateError;
pub use wire::Wire;

/// Convenience: number of bits needed to address `n` items; `lg(n)` for
/// powers of two. Panics if `n == 0`.
///
/// The paper writes `lg n` for the base-2 logarithm throughout; all of its
/// networks assume power-of-two input sizes, and so do ours.
#[inline]
pub fn lg(n: usize) -> u32 {
    assert!(n > 0, "lg(0) is undefined");
    n.trailing_zeros()
}

/// Returns true if `n` is a power of two (and nonzero).
#[inline]
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Asserts that `n` is a power of two, with a readable message.
///
/// Every construction in the paper assumes power-of-two input sizes
/// ("with no loss of generality"); builders call this at entry so misuse
/// fails fast with a clear message instead of a mid-construction panic.
#[track_caller]
pub fn assert_pow2(n: usize, what: &str) {
    assert!(is_pow2(n), "{what} requires a power-of-two size, got {n}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lg_of_powers() {
        assert_eq!(lg(1), 0);
        assert_eq!(lg(2), 1);
        assert_eq!(lg(1024), 10);
    }

    #[test]
    #[should_panic]
    fn lg_zero_panics() {
        let _ = lg(0);
    }

    #[test]
    fn pow2_checks() {
        assert!(is_pow2(1));
        assert!(is_pow2(65536));
        assert!(!is_pow2(0));
        assert!(!is_pow2(12));
    }
}
