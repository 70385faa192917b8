//! The compiler pass pipeline: named, individually-toggleable IR
//! transforms behind the [`Pass`] trait, driven by [`PassManager`].
//!
//! The pipeline has two parts:
//!
//! 1. **optional IR passes**, run in canonical order when enabled by the
//!    [`PassSet`]: [`PassName::ConstPrologue`] (constant dedup),
//!    [`PassName::ConstProp`] (constant propagation through gates and
//!    switches — a switch with a known select lowers to wires),
//!    [`PassName::Cse`] (structural hashing / common-subexpression
//!    elimination), [`PassName::Dce`] (dead-code elimination);
//! 2. the **schedule** stage (always on): levelize and stable-sort ops
//!    so constants form the prologue and component ops are grouped by
//!    depth level.
//!
//! Nothing runs after the schedule: which tape ops share a dispatch is
//! decided when `crate::dispatch` decodes the tape.
//!
//! Every optional pass records before/after op counts in a
//! [`PassStats`] row (surfaced by `CompiledCircuit::pass_stats`, the
//! `absort inspect` command, and `compile.pass.*` telemetry counters),
//! and — in debug builds or when [`CompileOptions::verify`] is set —
//! the manager re-checks IR-vs-interpreter equivalence after every
//! stage on deterministic pseudo-random lanes.

pub mod const_prologue;
pub mod const_prop;
pub mod cse;
pub mod dce;
mod index;
pub mod schedule;

use crate::circuit::Circuit;
use crate::ir::CompileIr;

/// One named IR transform. Implementations must preserve the IR
/// invariants ([`CompileIr::check_invariants`]) and the provenance
/// contract: any op they delete or rewrite gets its source component
/// marked [`crate::ir::CompFate::Dead`] (unobservable) or
/// [`crate::ir::CompFate::Folded`] (needs recompile fallback).
pub trait Pass {
    /// Stable name used by the CLI, telemetry, and [`PassStats`].
    fn name(&self) -> &'static str;
    /// Transforms the IR in place.
    fn run(&self, ir: &mut CompileIr);
}

/// Identifier of one optional pass, in canonical run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassName {
    /// Deduplicate constant ops onto the canonical `false`/`true`.
    ConstPrologue,
    /// Propagate constants through gates, muxes, and switches.
    ConstProp,
    /// Structural hashing: merge ops computing the same function of
    /// the same values.
    Cse,
    /// Drop ops no output observes.
    Dce,
}

impl PassName {
    /// Every pass, in canonical run order.
    pub const ALL: [PassName; 4] = [
        PassName::ConstPrologue,
        PassName::ConstProp,
        PassName::Cse,
        PassName::Dce,
    ];

    /// Stable name used by `--passes`, telemetry, and reports.
    pub fn name(self) -> &'static str {
        match self {
            PassName::ConstPrologue => "const-prologue",
            PassName::ConstProp => "const-prop",
            PassName::Cse => "cse",
            PassName::Dce => "dce",
        }
    }

    /// Parses a pass name, case-insensitively.
    pub fn parse(s: &str) -> Option<PassName> {
        let s = s.trim().to_ascii_lowercase();
        PassName::ALL.into_iter().find(|p| p.name() == s)
    }

    fn bit(self) -> u8 {
        match self {
            PassName::ConstPrologue => 1,
            PassName::ConstProp => 1 << 1,
            PassName::Cse => 1 << 2,
            PassName::Dce => 1 << 3,
        }
    }
}

impl std::fmt::Display for PassName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of enabled passes (always run in canonical order, regardless
/// of how the set was written down). `Copy` so it can ride inside
/// campaign configs and fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PassSet(u8);

impl PassSet {
    /// No passes (opt-level 0).
    pub const EMPTY: PassSet = PassSet(0);

    /// Every pass (opt-level 2).
    pub const ALL: PassSet = PassSet(0b1111);

    /// Whether `p` is enabled.
    #[inline]
    pub fn contains(self, p: PassName) -> bool {
        self.0 & p.bit() != 0
    }

    /// This set with `p` enabled.
    #[must_use]
    pub fn with(self, p: PassName) -> PassSet {
        PassSet(self.0 | p.bit())
    }

    /// This set with `p` disabled.
    #[must_use]
    pub fn without(self, p: PassName) -> PassSet {
        PassSet(self.0 & !p.bit())
    }

    /// True when no pass is enabled.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The enabled passes, in canonical order.
    pub fn passes(self) -> Vec<PassName> {
        PassName::ALL
            .into_iter()
            .filter(|&p| self.contains(p))
            .collect()
    }

    /// Parses a comma-separated pass list (case-insensitive); `"none"`
    /// is the empty set. On error returns the offending token.
    pub fn parse_list(s: &str) -> Result<PassSet, String> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("none") {
            return Ok(PassSet::EMPTY);
        }
        let mut set = PassSet::EMPTY;
        for tok in s.split(',') {
            match PassName::parse(tok) {
                Some(p) => set = set.with(p),
                None => return Err(tok.trim().to_owned()),
            }
        }
        Ok(set)
    }

    /// Compact stable encoding for fingerprints (`"-"` when empty).
    pub fn fingerprint(self) -> String {
        if self.is_empty() {
            return "-".to_owned();
        }
        self.passes()
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join("+")
    }
}

impl std::fmt::Display for PassSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.fingerprint())
    }
}

/// CLI-level optimization tier mapping onto a [`PassSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// No optional passes: straight lowering plus schedule + regalloc.
    O0,
    /// The transforms the pre-pipeline compiler performed: constant
    /// prologue and DCE.
    O1,
    /// Everything, including CSE and constant propagation (default).
    #[default]
    O2,
}

impl OptLevel {
    /// All levels, ascending.
    pub const ALL: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

    /// The passes this level enables.
    pub fn passes(self) -> PassSet {
        match self {
            OptLevel::O0 => PassSet::EMPTY,
            OptLevel::O1 => PassSet::EMPTY
                .with(PassName::ConstPrologue)
                .with(PassName::Dce),
            OptLevel::O2 => PassSet::ALL,
        }
    }

    /// Numeric level (`0`, `1`, `2`).
    pub fn level(self) -> u32 {
        match self {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 2,
        }
    }

    /// Parses a CLI `--opt-level` value.
    pub fn parse(s: &str) -> Option<OptLevel> {
        match s.trim() {
            "0" | "O0" | "o0" => Some(OptLevel::O0),
            "1" | "O1" | "o1" => Some(OptLevel::O1),
            "2" | "O2" | "o2" => Some(OptLevel::O2),
            _ => None,
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.level())
    }
}

/// Options steering one compilation. `Copy`, so sweep configs can embed
/// it without losing their own `Copy`-ability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Which optional passes run (default: [`OptLevel::O2`]'s set).
    pub passes: PassSet,
    /// Force the per-pass IR-vs-interpreter differential check even in
    /// release builds (it is always on under `debug_assertions`).
    pub verify: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            passes: OptLevel::default().passes(),
            verify: false,
        }
    }
}

impl CompileOptions {
    /// Options for one optimization tier.
    pub fn for_level(level: OptLevel) -> CompileOptions {
        CompileOptions {
            passes: level.passes(),
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
        PassName::ConstProp => &const_prop::ConstProp,
        PassName::Cse => &cse::Cse,
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

    /// Runs the enabled passes (canonical order) and the schedule
    /// stage; returns one [`PassStats`] row per optional pass run. `circuit` is only consulted by the
    /// differential check.
    pub fn run(&self, circuit: &Circuit, ir: &mut CompileIr) -> Vec<PassStats> {
        let verify = self.opts.verify || cfg!(debug_assertions);
        let mut stats = Vec::new();
        #[cfg(feature = "telemetry")]
        absort_telemetry::counter_add(
            "compile.pass.enabled",
            self.opts.passes.passes().len() as u64,
        );
        if verify {
            self.check(circuit, ir, "lower");
        }
        for p in self.opts.passes.passes() {
            self.run_one(p, circuit, ir, verify, &mut stats);
        }
        {
            #[cfg(feature = "telemetry")]
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
        #[cfg(feature = "telemetry")]
        let _span = absort_telemetry::span(&format!("compile/pass/{}", pass.name()));
        #[cfg(feature = "telemetry")]
        let t0 = absort_telemetry::enabled().then(std::time::Instant::now);
        let ops_before = ir.ops.len();
        pass.run(ir);
        let ops_after = ir.ops.len();
        #[cfg(feature = "telemetry")]
        {
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
        }
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
    fn pass_set_roundtrips() {
        assert_eq!(PassSet::parse_list("none"), Ok(PassSet::EMPTY));
        assert_eq!(
            PassSet::parse_list("CSE, dce"),
            Ok(PassSet::EMPTY.with(PassName::Cse).with(PassName::Dce))
        );
        assert_eq!(PassSet::parse_list("cse,warp"), Err("warp".to_owned()));
        for p in PassName::ALL {
            assert_eq!(PassName::parse(p.name()), Some(p));
            assert_eq!(PassName::parse(&p.name().to_ascii_uppercase()), Some(p));
            assert!(PassSet::ALL.contains(p));
            assert!(!PassSet::EMPTY.contains(p));
            assert!(!PassSet::ALL.without(p).contains(p));
        }
    }

    #[test]
    fn opt_levels_nest() {
        assert_eq!(OptLevel::parse("0"), Some(OptLevel::O0));
        assert_eq!(OptLevel::parse("O2"), Some(OptLevel::O2));
        assert_eq!(OptLevel::parse("3"), None);
        assert_eq!(OptLevel::default(), OptLevel::O2);
        assert!(OptLevel::O0.passes().is_empty());
        // O1 ⊂ O2.
        for p in OptLevel::O1.passes().passes() {
            assert!(OptLevel::O2.passes().contains(p));
        }
        assert!(OptLevel::O2.passes().contains(PassName::Cse));
        assert!(!OptLevel::O1.passes().contains(PassName::Cse));
    }
}
