//! The compiler pass pipeline: named IR transforms behind the [`Pass`]
//! trait, driven by [`PassManager`].
//!
//! The pipeline has two parts:
//!
//! 1. the **optional IR passes**, run in order when the [`OptLevel`]
//!    enables them (O1 runs both, O0 neither):
//!    [`PassName::ConstPrologue`] (constant dedup) and [`PassName::Dce`]
//!    (dead-code elimination);
//! 2. the **schedule** stage (always on): levelize and stable-sort ops
//!    so constants form the prologue and component ops are grouped by
//!    depth level.
//!
//! Nothing runs after the schedule: which tape ops share a dispatch is
//! decided when `crate::dispatch` decodes it. No pass folds, rewrites
//! or merges a component, so every live component is exactly one tape
//! op.
//!
//! Every optional pass records before/after op counts in a
//! [`PassStats`] row (surfaced by `CompiledCircuit::pass_stats`, the
//! `absort inspect` command, and `compile.pass.*` telemetry counters),
//! and — in debug builds or when [`CompileOptions::verify`] is set —
//! the manager re-checks IR-vs-interpreter equivalence after every
//! stage on deterministic pseudo-random lanes.

pub mod const_prologue;
pub mod dce;
pub mod schedule;

use crate::circuit::Circuit;
use crate::ir::CompileIr;

/// One named IR transform. Implementations must preserve the IR
/// invariants ([`CompileIr::check_invariants`]) and the provenance
/// contract: an op they delete that stands for a source component gets
/// that component marked [`crate::ir::CompFate::Dead`] (unobservable).
pub trait Pass {
    /// Stable name used by telemetry and [`PassStats`].
    fn name(&self) -> &'static str;
    /// Transforms the IR in place.
    fn run(&self, ir: &mut CompileIr);
}

/// Identifier of one optional pass, in run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassName {
    /// Deduplicate constant ops onto the canonical `false`/`true`.
    ConstPrologue,
    /// Drop ops no output observes.
    Dce,
}

impl PassName {
    /// Every pass, in run order.
    pub const ALL: [PassName; 2] = [PassName::ConstPrologue, PassName::Dce];

    /// Stable name used by telemetry and reports.
    pub fn name(self) -> &'static str {
        match self {
            PassName::ConstPrologue => "const-prologue",
            PassName::Dce => "dce",
        }
    }
}

/// The compile tier: which optional passes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// No optional passes: straight lowering plus schedule + regalloc.
    O0,
    /// Constant prologue and DCE (default).
    #[default]
    O1,
}

/// Why [`OptLevel::parse`] refused a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevelError {
    /// `2`, `O2` or `o2`: the tier that added constant propagation and
    /// CSE. Both passes were deleted once they removed nothing from any
    /// bare catalog network.
    Removed,
    /// Not an opt level at all.
    Unknown,
}

impl OptLevel {
    /// Both levels, ascending.
    pub const ALL: [OptLevel; 2] = [OptLevel::O0, OptLevel::O1];

    /// The accepted `--opt-level` values, for CLI error messages.
    pub const VALID: &'static str = "0, 1";

    /// The passes this level runs, in order.
    pub fn passes(self) -> &'static [PassName] {
        match self {
            OptLevel::O0 => &[],
            OptLevel::O1 => &PassName::ALL,
        }
    }

    /// Parses a CLI `--opt-level` value.
    pub fn parse(s: &str) -> Result<OptLevel, OptLevelError> {
        match s.trim() {
            "0" | "O0" | "o0" => Ok(OptLevel::O0),
            "1" | "O1" | "o1" => Ok(OptLevel::O1),
            "2" | "O2" | "o2" => Err(OptLevelError::Removed),
            _ => Err(OptLevelError::Unknown),
        }
    }
}

/// The numeric level (`0`, `1`).
impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OptLevel::O0 => "0",
            OptLevel::O1 => "1",
        })
    }
}

/// Options steering one compilation. `Copy`, so sweep configs can embed
/// it without losing their own `Copy`-ability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileOptions {
    /// Which optional passes run (default: [`OptLevel::O1`]).
    pub level: OptLevel,
    /// Force the per-pass IR-vs-interpreter differential check even in
    /// release builds (it is always on under `debug_assertions`).
    pub verify: bool,
}

impl CompileOptions {
    /// Options for one optimization tier.
    pub fn for_level(level: OptLevel) -> CompileOptions {
        CompileOptions {
            level,
            ..CompileOptions::default()
        }
    }
}

/// Before/after op counts of one pass run, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// The pass name (see [`PassName::name`]).
    pub name: &'static str,
    /// IR op count before the pass.
    pub ops_before: usize,
    /// IR op count after the pass.
    pub ops_after: usize,
}

impl PassStats {
    /// Ops removed by the pass.
    pub fn removed(&self) -> usize {
        self.ops_before.saturating_sub(self.ops_after)
    }
}

fn pass_impl(p: PassName) -> &'static dyn Pass {
    match p {
        PassName::ConstPrologue => &const_prologue::ConstPrologue,
        PassName::Dce => &dce::Dce,
    }
}

/// Drives the pass pipeline over one circuit's IR.
pub struct PassManager {
    opts: CompileOptions,
}

impl PassManager {
    /// A manager for the given options.
    pub fn new(opts: CompileOptions) -> PassManager {
        PassManager { opts }
    }

    /// Runs the level's passes in order, then the schedule stage;
    /// returns one [`PassStats`] row per optional pass run. `circuit` is
    /// only consulted by the differential check.
    pub fn run(&self, circuit: &Circuit, ir: &mut CompileIr) -> Vec<PassStats> {
        let verify = self.opts.verify || cfg!(debug_assertions);
        let mut stats = Vec::new();
        let passes = self.opts.level.passes();
        absort_telemetry::counter_add("compile.pass.enabled", passes.len() as u64);
        if verify {
            self.check(circuit, ir, "lower");
        }
        for &p in passes {
            self.run_one(p, circuit, ir, verify, &mut stats);
        }
        {
            let _span = absort_telemetry::span("compile/schedule");
            schedule::schedule(ir);
        }
        if verify {
            self.check(circuit, ir, "schedule");
        }
        stats
    }

    fn run_one(
        &self,
        p: PassName,
        circuit: &Circuit,
        ir: &mut CompileIr,
        verify: bool,
        stats: &mut Vec<PassStats>,
    ) {
        let pass = pass_impl(p);
        let _span = absort_telemetry::span(&format!("compile/pass/{}", pass.name()));
        let t0 = absort_telemetry::enabled().then(std::time::Instant::now);
        let ops_before = ir.ops.len();
        pass.run(ir);
        let ops_after = ir.ops.len();
        // Compilation is cold-path: record straight into the global
        // histogram (one sample per pass run, all passes pooled —
        // the per-pass split lives in the `compile/pass/*` spans).
        if let Some(t0) = t0 {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            absort_telemetry::hist_record("compile.pass_ns", ns);
        }
        absort_telemetry::counter_add_many(&[
            ("compile.pass.runs", 1),
            (
                &format!("compile.pass.{}.removed", pass.name()),
                (ops_before - ops_after) as u64,
            ),
        ]);
        if verify {
            self.check(circuit, ir, pass.name());
        }
        stats.push(PassStats {
            name: pass.name(),
            ops_before,
            ops_after,
        });
    }

    /// The differential check: IR invariants plus IR-vs-interpreter
    /// equivalence on deterministic splitmix64 lanes.
    fn check(&self, circuit: &Circuit, ir: &CompileIr, after: &str) {
        if let Err(e) = ir.check_invariants() {
            panic!("IR invariant broken after pass `{after}`: {e}");
        }
        let inputs = splitmix_lanes(circuit.n_inputs());
        let want = circuit.eval_lanes(&inputs);
        let got = ir.eval_lanes(&inputs);
        assert_eq!(
            got, want,
            "IR diverges from the interpreter after pass `{after}`"
        );
    }
}

/// Deterministic pseudo-random 64-bit lanes (splitmix64 stream).
fn splitmix_lanes(n: usize) -> Vec<u64> {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_levels_nest() {
        assert_eq!(OptLevel::parse("0"), Ok(OptLevel::O0));
        assert_eq!(OptLevel::parse("O1"), Ok(OptLevel::O1));
        assert_eq!(OptLevel::parse("o2"), Err(OptLevelError::Removed));
        assert_eq!(OptLevel::parse("3"), Err(OptLevelError::Unknown));
        assert_eq!(OptLevel::default(), OptLevel::O1);
        assert_eq!(CompileOptions::default().level, OptLevel::O1);
        assert!(OptLevel::O0.passes().is_empty());
        assert_eq!(OptLevel::O1.passes(), PassName::ALL);
    }
}
