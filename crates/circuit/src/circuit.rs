//! The finished netlist: cost, depth, and evaluation entry points.

use crate::component::{Component, Placed};
use crate::cost::{CostReport, KindCounts};
use crate::eval::{EvalError, Evaluator};
use crate::scope::ScopeTree;
use crate::validate::ValidateError;
use crate::wire::Wire;

/// An immutable combinational circuit produced by [`crate::Builder`].
///
/// Components are stored in topological order (guaranteed by the builder),
/// so every analysis and evaluation is a single forward scan.
#[derive(Debug, Clone)]
pub struct Circuit {
    comps: Vec<Placed>,
    n_wires: usize,
    inputs: Vec<Wire>,
    outputs: Vec<Wire>,
    consts: Vec<(Wire, bool)>,
    scopes: ScopeTree,
}

impl Circuit {
    pub(crate) fn from_parts(
        comps: Vec<Placed>,
        n_wires: usize,
        inputs: Vec<Wire>,
        outputs: Vec<Wire>,
        consts: Vec<(Wire, bool)>,
        scopes: ScopeTree,
    ) -> Self {
        Circuit {
            comps,
            n_wires,
            inputs,
            outputs,
            consts,
            scopes,
        }
    }

    /// Number of primary inputs.
    #[inline]
    pub fn n_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of designated outputs.
    #[inline]
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of wires (inputs + constants + component outputs).
    #[inline]
    pub fn n_wires(&self) -> usize {
        self.n_wires
    }

    /// Number of components.
    #[inline]
    pub fn n_components(&self) -> usize {
        self.comps.len()
    }

    /// The components in topological order (read-only).
    #[inline]
    pub(crate) fn components(&self) -> &[Placed] {
        &self.comps
    }

    /// Primary input wires in declaration order.
    #[inline]
    pub(crate) fn input_wires(&self) -> &[Wire] {
        &self.inputs
    }

    /// Designated output wires in declaration order.
    #[inline]
    pub(crate) fn output_wires(&self) -> &[Wire] {
        &self.outputs
    }

    /// Constant wires and their values.
    #[inline]
    pub(crate) fn const_wires(&self) -> &[(Wire, bool)] {
        &self.consts
    }

    /// The `i`-th primary input wire (declaration order). Panics if out
    /// of range. Used to name fault sites and probe points from outside
    /// the crate, where `Wire`s cannot be constructed directly.
    #[inline]
    pub fn input_wire(&self, i: usize) -> Wire {
        self.inputs[i]
    }

    /// The `i`-th designated output wire (declaration order). Panics if
    /// out of range.
    #[inline]
    pub fn output_wire(&self, i: usize) -> Wire {
        self.outputs[i]
    }

    /// The scope tree for cost attribution.
    #[inline]
    pub fn scopes(&self) -> &ScopeTree {
        &self.scopes
    }

    // ---- validation ------------------------------------------------------

    /// Checks the structural invariants every evaluation engine relies on
    /// (single drivers, topological order, in-range wire references,
    /// consistent constants, genuine 4×4 permutations, at least one
    /// output) and reports the first violation as a typed
    /// [`ValidateError`]. Builder-produced circuits always pass; use this
    /// on netlists from [`crate::serdes`] or hand-assembled mutants before
    /// handing them to a sweep.
    pub fn validate(&self) -> Result<(), ValidateError> {
        crate::validate::validate(self)
    }

    // ---- cost ----------------------------------------------------------

    fn tally(&self, mut include: impl FnMut(&Placed) -> bool) -> CostReport {
        let mut kinds = KindCounts::default();
        for p in &self.comps {
            if !include(p) {
                continue;
            }
            match p.comp {
                Component::Not { .. } => kinds.not += 1,
                Component::Gate { .. } => kinds.gate += 1,
                Component::Mux2 { .. } => kinds.mux2 += 1,
                Component::Demux2 { .. } => kinds.demux2 += 1,
                Component::Switch2 { .. } => kinds.switch2 += 1,
                Component::BitCompare { .. } => kinds.bit_compare += 1,
                Component::Switch4 { .. } => kinds.switch4 += 1,
            }
        }
        CostReport::from_kinds(kinds)
    }

    /// Total cost in the paper's units, with a per-kind breakdown.
    pub fn cost(&self) -> CostReport {
        self.tally(|_| true)
    }

    /// Cost of the subtree rooted at the scope with the given path, e.g.
    /// `cost_of_scope("patchup/adder")`. Returns `None` for unknown paths.
    pub fn cost_of_scope(&self, path: &str) -> Option<CostReport> {
        let root = self.scopes.lookup(path)?;
        Some(self.tally(|p| self.scopes.is_within(p.scope, root)))
    }

    /// Like [`Circuit::cost_of_scope`], but a miss is a typed
    /// [`MissingScope`] that names the path and the scopes that do
    /// exist — callers get a diagnosable error instead of unwrapping
    /// an anonymous `None`.
    pub fn try_cost_of_scope(&self, path: &str) -> Result<CostReport, MissingScope> {
        self.cost_of_scope(path)
            .ok_or_else(|| self.missing_scope(path))
    }

    fn missing_scope(&self, path: &str) -> MissingScope {
        MissingScope {
            path: path.to_string(),
            known: self.scope_paths(),
        }
    }

    /// All scope paths that exist in this circuit (sorted), useful for
    /// exploring a construction's block structure.
    pub fn scope_paths(&self) -> Vec<String> {
        let mut seen = std::collections::BTreeSet::new();
        for p in &self.comps {
            seen.insert(self.scopes.path(p.scope));
        }
        seen.into_iter().collect()
    }

    /// The scope path of component `index` — the block that placed it
    /// during construction. Fault campaigns use this to classify
    /// injection sites by subsystem (for example, every component whose
    /// path starts with `ctl/` belongs to the hardened control logic).
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn component_scope_path(&self, index: usize) -> String {
        self.scopes.path(self.comps[index].scope)
    }

    /// Indices of every component placed within the scope named by
    /// `path` (that scope itself or any descendant), in netlist order.
    /// Returns `None` for unknown paths.
    pub fn components_in_scope(&self, path: &str) -> Option<Vec<usize>> {
        let root = self.scopes.lookup(path)?;
        Some(
            (0..self.comps.len())
                .filter(|&i| self.scopes.is_within(self.comps[i].scope, root))
                .collect(),
        )
    }

    /// Like [`Circuit::components_in_scope`], but a miss is a typed
    /// [`MissingScope`] naming the path (see
    /// [`Circuit::try_cost_of_scope`]).
    pub fn try_components_in_scope(&self, path: &str) -> Result<Vec<usize>, MissingScope> {
        self.components_in_scope(path)
            .ok_or_else(|| self.missing_scope(path))
    }

    /// The wires driven by component `index`, in output order. Together
    /// with [`Circuit::components_in_scope`] this lets a campaign map a
    /// wire-level fault site back to the subsystem that owns the driver.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn component_output_wires(&self, index: usize) -> Vec<Wire> {
        let p = &self.comps[index];
        (0..p.comp.n_outputs() as u32)
            .map(|i| Wire(p.out_base + i))
            .collect()
    }

    // ---- depth ---------------------------------------------------------

    /// Bit-level depth: the maximum number of unit-depth primitives on any
    /// path from a primary input (or constant) to a designated output.
    ///
    /// This is exactly the paper's "bit-level depth". All primitives —
    /// including the 4×4 switch — contribute depth 1.
    pub fn depth(&self) -> usize {
        let mut d = vec![0u32; self.n_wires];
        for p in &self.comps {
            let mut m = 0u32;
            p.comp.for_each_input(|w| m = m.max(d[w.index()]));
            let nd = m + 1;
            for k in 0..p.comp.n_outputs() {
                d[p.out_base as usize + k] = nd;
            }
        }
        self.outputs
            .iter()
            .map(|w| d[w.index()] as usize)
            .max()
            .unwrap_or(0)
    }

    /// Per-output depths (same convention as [`Circuit::depth`]).
    pub fn output_depths(&self) -> Vec<usize> {
        let mut d = vec![0u32; self.n_wires];
        for p in &self.comps {
            let mut m = 0u32;
            p.comp.for_each_input(|w| m = m.max(d[w.index()]));
            let nd = m + 1;
            for k in 0..p.comp.n_outputs() {
                d[p.out_base as usize + k] = nd;
            }
        }
        self.outputs.iter().map(|w| d[w.index()] as usize).collect()
    }

    // ---- compilation -----------------------------------------------------

    /// Lowers the netlist to a register-allocated, levelized micro-op
    /// tape (see [`crate::compile`]) at the default optimization level.
    /// A one-time cost that pays for itself after a handful of passes:
    /// sweep drivers should compile once and evaluate with a
    /// [`crate::CompiledEvaluator`].
    pub fn compile(&self) -> crate::compile::CompiledCircuit {
        crate::compile::CompiledCircuit::compile(self)
    }

    /// [`Circuit::compile`] with an explicit pass set (see
    /// [`crate::passes`] for the pipeline and
    /// `CompileOptions::for_level` for the `--opt-level` tiers).
    pub fn compile_with(
        &self,
        opts: &crate::passes::CompileOptions,
    ) -> crate::compile::CompiledCircuit {
        crate::compile::CompiledCircuit::compile_with(self, opts)
    }

    // ---- evaluation ------------------------------------------------------

    /// Evaluates the circuit on one input vector (scalar path).
    ///
    /// `inputs[i]` is the value of the i-th declared primary input; the
    /// result is the designated outputs in order. For repeated evaluation
    /// prefer an [`Evaluator`], which reuses its wire buffer.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        Evaluator::new(self).run(inputs)
    }

    /// Evaluates 64 input vectors at once; bit `j` of `inputs[i]` is the
    /// value of input `i` in test vector `j`, and likewise for outputs.
    pub fn eval_lanes(&self, inputs: &[u64]) -> Vec<u64> {
        Evaluator::new(self).run(inputs)
    }

    /// Evaluates many input vectors, sharding 64-lane packed passes across
    /// `threads` OS threads with `crossbeam::scope`. Each thread owns a
    /// private wire buffer — no shared mutable state.
    ///
    /// `vectors[v][i]` is input `i` of vector `v`; the result has the same
    /// shape with outputs. Panics where
    /// [`Circuit::try_eval_batch_parallel`] returns an error.
    pub fn eval_batch_parallel(&self, vectors: &[Vec<bool>], threads: usize) -> Vec<Vec<bool>> {
        self.try_eval_batch_parallel(vectors, threads)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`Circuit::eval`]: rejects a wrong-arity input slice with a
    /// typed [`EvalError`] instead of panicking.
    pub fn try_eval(&self, inputs: &[bool]) -> Result<Vec<bool>, EvalError> {
        Evaluator::new(self).try_run(inputs)
    }

    /// Checked [`Circuit::eval_lanes`].
    pub fn try_eval_lanes(&self, inputs: &[u64]) -> Result<Vec<u64>, EvalError> {
        Evaluator::new(self).try_run(inputs)
    }

    /// Checked [`Circuit::eval_batch_parallel`]: validates vector widths
    /// up front and isolates worker panics — a chunk whose worker panics
    /// is retried once on a fresh worker, and a second panic surfaces as
    /// [`EvalError::WorkerPanicked`] instead of unwinding the caller.
    pub fn try_eval_batch_parallel(
        &self,
        vectors: &[Vec<bool>],
        threads: usize,
    ) -> Result<Vec<Vec<bool>>, EvalError> {
        crate::eval::try_eval_batch_parallel(self, vectors, threads)
    }
}

/// A scope-path query named a scope the circuit does not have. The
/// error carries the requested path and the paths that do exist, so
/// `unwrap`/`expect` failures and propagated errors alike say exactly
/// what was missing and what was available.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingScope {
    /// The path that was requested.
    pub path: String,
    /// Every scope path the circuit actually has (sorted).
    pub known: Vec<String>,
}

impl std::fmt::Display for MissingScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no scope `{}` in circuit", self.path)?;
        match self.known.len() {
            0 => write!(f, " (circuit has no scoped components)"),
            1..=8 => write!(f, " (known scopes: {})", self.known.join(", ")),
            more => write!(
                f,
                " (known scopes: {}, ... {} total)",
                self.known[..8].join(", "),
                more
            ),
        }
    }
}

impl std::error::Error for MissingScope {}

#[cfg(test)]
mod tests {
    use crate::builder::Builder;

    /// A 3-level chain to check depth accounting.
    #[test]
    fn depth_counts_longest_path() {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let a = b.and(x, y); // depth 1
        let o = b.or(a, y); // depth 2
        let n = b.not(o); // depth 3
        b.outputs(&[n, a]);
        let c = b.finish();
        assert_eq!(c.depth(), 3);
        assert_eq!(c.output_depths(), vec![3, 1]);
    }

    #[test]
    fn missing_scope_error_names_the_path_and_the_alternatives() {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let a = b.scoped("left", |b| b.and(x, y));
        b.outputs(&[a]);
        let c = b.finish();

        assert!(c.try_cost_of_scope("left").is_ok());
        assert_eq!(
            c.try_components_in_scope("left").unwrap(),
            c.components_in_scope("left").unwrap()
        );

        let err = c.try_cost_of_scope("rigth").unwrap_err();
        assert_eq!(err.path, "rigth");
        let msg = err.to_string();
        assert!(msg.contains("no scope `rigth`"), "{msg}");
        assert!(msg.contains("left"), "{msg}");
        let err2 = c.try_components_in_scope("rigth").unwrap_err();
        assert_eq!(err, err2);
    }

    #[test]
    fn scope_cost_attribution() {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let a = b.scoped("left", |b| b.and(x, y));
        let o = b.scoped("right", |b| {
            let t = b.or(x, y);
            b.scoped("inner", |b| b.xor(t, a))
        });
        b.outputs(&[o]);
        let c = b.finish();
        assert_eq!(c.cost().total, 3);
        assert_eq!(c.cost_of_scope("left").unwrap().total, 1);
        assert_eq!(c.cost_of_scope("right").unwrap().total, 2);
        assert_eq!(c.cost_of_scope("right/inner").unwrap().total, 1);
        assert!(c.cost_of_scope("nope").is_none());
        assert_eq!(
            c.scope_paths(),
            vec!["left".to_owned(), "right".into(), "right/inner".into()]
        );
    }

    #[test]
    fn lane_eval_matches_scalar() {
        // xor-chain circuit, compare 64-lane vs scalar on all 16 inputs of
        // 4 input bits (packed into lanes 0..16).
        let mut b = Builder::new();
        let ins = b.input_bus(4);
        let mut acc = ins[0];
        for &i in &ins[1..] {
            acc = b.xor(acc, i);
        }
        b.outputs(&[acc]);
        let c = b.finish();

        let mut packed = vec![0u64; 4];
        for v in 0..16u64 {
            for (i, p) in packed.iter_mut().enumerate() {
                if v >> i & 1 == 1 {
                    *p |= 1 << v;
                }
            }
        }
        let lanes = c.eval_lanes(&packed);
        for v in 0..16u64 {
            let scalar = c.eval(&[
                v & 1 == 1,
                v >> 1 & 1 == 1,
                v >> 2 & 1 == 1,
                v >> 3 & 1 == 1,
            ]);
            assert_eq!(lanes[0] >> v & 1 == 1, scalar[0], "vector {v}");
        }
    }
}
