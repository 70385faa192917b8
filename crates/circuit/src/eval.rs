//! Evaluation engines: scalar, 64-lane bit-parallel, and multi-threaded
//! batch evaluation.
//!
//! Evaluation is a single forward scan over the topologically ordered
//! component list. The [`Evaluator`] owns a reusable wire buffer so hot
//! loops (exhaustive verification, benchmarks) do one allocation total.
//! The batch evaluator shards packed 64-lane passes across scoped
//! crossbeam threads; each thread owns a private buffer, so there is no
//! shared mutable state and no locking.

use crate::circuit::Circuit;
use crate::component::{Component, Placed};
use crate::lane::Lane;

/// A checked-evaluation failure. The unchecked entry points
/// ([`Evaluator::run`], [`Circuit::eval`]) keep their `assert!`s for the
/// hot paths; the `try_*` variants return this instead so sweep drivers
/// (fault campaigns, netlist loaders) can reject bad calls without
/// panicking a worker thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The input slice does not match the circuit's input arity.
    InputLen {
        /// `Circuit::n_inputs()`.
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// The caller-provided output slice does not match the output arity.
    OutputLen {
        /// `Circuit::n_outputs()`.
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// One vector of a batch has the wrong width.
    VectorLen {
        /// Index of the offending vector in the batch.
        vector: usize,
        /// `Circuit::n_inputs()`.
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// More vectors than lanes were passed to a single packed pass.
    TooManyVectors {
        /// Maximum vectors per pass (64 for `u64` lanes).
        max: usize,
        /// Number supplied.
        got: usize,
    },
    /// A batch-evaluation worker panicked on its stride of 64-vector
    /// groups, and the one retry on a fresh worker panicked again (a
    /// malformed netlist, typically — run [`Circuit::validate`] to find
    /// out what is wrong with it).
    WorkerPanicked {
        /// Index of the poisoned worker stride (groups `chunk`,
        /// `chunk + threads`, `chunk + 2·threads`, …).
        chunk: usize,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::InputLen { expected, got } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
            EvalError::OutputLen { expected, got } => {
                write!(f, "output slice has wrong length: expected {expected}, got {got}")
            }
            EvalError::VectorLen {
                vector,
                expected,
                got,
            } => write!(
                f,
                "vector {vector} has wrong width: expected {expected}, got {got}"
            ),
            EvalError::TooManyVectors { max, got } => {
                write!(f, "at most {max} vectors per packed pass, got {got}")
            }
            EvalError::WorkerPanicked { chunk } => write!(
                f,
                "evaluation worker panicked on chunk {chunk} (retry on a fresh worker also panicked); \
                 run Circuit::validate() on the netlist"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// A reusable evaluation context for one circuit and one lane type.
///
/// ```
/// use absort_circuit::{Builder, Evaluator};
///
/// let mut b = Builder::new();
/// let x = b.input();
/// let y = b.input();
/// let o = b.and(x, y);
/// b.outputs(&[o]);
/// let c = b.finish();
///
/// let mut ev: Evaluator<'_, bool> = Evaluator::new(&c);
/// assert_eq!(ev.run(&[true, true]), vec![true]);
/// assert_eq!(ev.run(&[true, false]), vec![false]);
/// ```
pub struct Evaluator<'c, V: Lane> {
    circuit: &'c Circuit,
    wires: Vec<V>,
    /// Per-evaluator counter batch, merged into the global registry once
    /// when the evaluator drops, so worker threads of the batch engine
    /// never contend on a lock mid-sweep. Inert unless telemetry was
    /// enabled when the evaluator was created.
    #[cfg(feature = "telemetry")]
    tel: absort_telemetry::LocalRecorder,
    /// Pass count for this evaluator's lifetime. A plain increment per
    /// `run_into` keeps the hot loop free of calls; component and lane
    /// totals are derived from it on drop (the circuit is fixed per
    /// evaluator, so per-pass counts are constants).
    #[cfg(feature = "telemetry")]
    tel_passes: u64,
}

#[cfg(feature = "telemetry")]
impl<V: Lane> Drop for Evaluator<'_, V> {
    fn drop(&mut self) {
        if self.tel_passes != 0 {
            let comps = self.circuit.components().len() as u64;
            self.tel.add("eval.passes", self.tel_passes);
            self.tel.add("eval.components", self.tel_passes * comps);
            self.tel
                .add("eval.lanes", self.tel_passes * u64::from(V::LANES));
        }
        // `self.tel`'s own Drop then flushes the batch to the registry.
    }
}

impl<'c, V: Lane> Evaluator<'c, V> {
    /// Creates an evaluator with a zeroed wire buffer.
    pub fn new(circuit: &'c Circuit) -> Self {
        Evaluator {
            circuit,
            wires: vec![V::ZERO; circuit.n_wires()],
            #[cfg(feature = "telemetry")]
            tel: absort_telemetry::LocalRecorder::new(),
            #[cfg(feature = "telemetry")]
            tel_passes: 0,
        }
    }

    /// Evaluates on the given primary-input values and returns the outputs.
    pub fn run(&mut self, inputs: &[V]) -> Vec<V> {
        let mut out = vec![V::ZERO; self.circuit.n_outputs()];
        self.run_into(inputs, &mut out);
        out
    }

    /// Checked [`Evaluator::run`]: rejects a wrong-arity input slice with
    /// a typed error instead of panicking.
    pub fn try_run(&mut self, inputs: &[V]) -> Result<Vec<V>, EvalError> {
        let mut out = vec![V::ZERO; self.circuit.n_outputs()];
        self.try_run_into(inputs, &mut out)?;
        Ok(out)
    }

    /// Checked [`Evaluator::run_into`]: validates both slice lengths up
    /// front, then takes the same unchecked fast path.
    pub fn try_run_into(&mut self, inputs: &[V], out: &mut [V]) -> Result<(), EvalError> {
        if inputs.len() != self.circuit.n_inputs() {
            return Err(EvalError::InputLen {
                expected: self.circuit.n_inputs(),
                got: inputs.len(),
            });
        }
        if out.len() != self.circuit.n_outputs() {
            return Err(EvalError::OutputLen {
                expected: self.circuit.n_outputs(),
                got: out.len(),
            });
        }
        self.run_into(inputs, out);
        Ok(())
    }

    /// Evaluates into a caller-provided output slice (no allocation).
    pub fn run_into(&mut self, inputs: &[V], out: &mut [V]) {
        let c = self.circuit;
        assert_eq!(
            inputs.len(),
            c.n_inputs(),
            "expected {} inputs, got {}",
            c.n_inputs(),
            inputs.len()
        );
        assert_eq!(out.len(), c.n_outputs(), "output slice has wrong length");

        // One bool test when telemetry is off; when on, the pass is
        // timed and folded into the per-vector latency histogram below.
        #[cfg(feature = "telemetry")]
        let t0 = self.tel.is_active().then(std::time::Instant::now);

        let w = &mut self.wires;
        for (wire, &v) in c.input_wires().iter().zip(inputs) {
            w[wire.index()] = v;
        }
        for &(wire, v) in c.const_wires() {
            w[wire.index()] = V::splat(v);
        }

        for p in c.components() {
            let base = p.out_base as usize;
            match p.comp {
                Component::Not { a } => {
                    w[base] = w[a.index()].not();
                }
                Component::Gate { op, a, b } => {
                    let (x, y) = (w[a.index()], w[b.index()]);
                    use crate::component::GateOp::*;
                    w[base] = match op {
                        And => x.and(y),
                        Or => x.or(y),
                        Xor => x.xor(y),
                        Nand => x.and(y).not(),
                        Nor => x.or(y).not(),
                        Xnor => x.xor(y).not(),
                    };
                }
                Component::Mux2 { sel, a0, a1 } => {
                    w[base] = V::select(w[sel.index()], w[a1.index()], w[a0.index()]);
                }
                Component::Demux2 { sel, x } => {
                    let (s, xv) = (w[sel.index()], w[x.index()]);
                    w[base] = s.not().and(xv);
                    w[base + 1] = s.and(xv);
                }
                Component::Switch2 { ctrl, a, b } => {
                    let (s, av, bv) = (w[ctrl.index()], w[a.index()], w[b.index()]);
                    w[base] = V::select(s, bv, av);
                    w[base + 1] = V::select(s, av, bv);
                }
                Component::BitCompare { a, b } => {
                    let (av, bv) = (w[a.index()], w[b.index()]);
                    w[base] = av.and(bv); // min
                    w[base + 1] = av.or(bv); // max
                }
                Component::Switch4 { s1, s0, ins, perms } => {
                    let (v1, v0) = (w[s1.index()], w[s0.index()]);
                    let m = [
                        v1.not().and(v0.not()),
                        v1.not().and(v0),
                        v1.and(v0.not()),
                        v1.and(v0),
                    ];
                    let iv = [
                        w[ins[0].index()],
                        w[ins[1].index()],
                        w[ins[2].index()],
                        w[ins[3].index()],
                    ];
                    for j in 0..4 {
                        let mut acc = V::ZERO;
                        for (s, mask) in m.iter().enumerate() {
                            acc = acc.or(mask.and(iv[perms[s][j] as usize]));
                        }
                        w[base + j] = acc;
                    }
                }
            }
        }

        for (o, wire) in out.iter_mut().zip(c.output_wires()) {
            *o = w[wire.index()];
        }

        // One register add per pass; totals are folded into the recorder
        // when the evaluator drops. The histogram sample is the pass
        // wall-clock divided by lane width: per-*vector* latency, so
        // scalar and packed runs land on one comparable scale.
        #[cfg(feature = "telemetry")]
        {
            self.tel_passes += 1;
            if let Some(t0) = t0 {
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.tel
                    .record_ns("eval.interp.vector_ns", ns / u64::from(V::LANES));
            }
        }
    }
}

/// Evaluates one placed component against a full wire buffer. Shared by
/// the pipelined simulator and the fault-injecting evaluator; the batch
/// hot loop in [`Evaluator::run_into`] keeps its own inlined copy.
pub(crate) fn eval_component<V: Lane>(p: &Placed, w: &mut [V]) {
    let base = p.out_base as usize;
    match p.comp {
        Component::Not { a } => w[base] = w[a.index()].not(),
        Component::Gate { op, a, b } => {
            use crate::component::GateOp::*;
            let (x, y) = (w[a.index()], w[b.index()]);
            w[base] = match op {
                And => x.and(y),
                Or => x.or(y),
                Xor => x.xor(y),
                Nand => x.and(y).not(),
                Nor => x.or(y).not(),
                Xnor => x.xor(y).not(),
            };
        }
        Component::Mux2 { sel, a0, a1 } => {
            w[base] = V::select(w[sel.index()], w[a1.index()], w[a0.index()]);
        }
        Component::Demux2 { sel, x } => {
            let (s, xv) = (w[sel.index()], w[x.index()]);
            w[base] = s.not().and(xv);
            w[base + 1] = s.and(xv);
        }
        Component::Switch2 { ctrl, a, b } => {
            let (s, av, bv) = (w[ctrl.index()], w[a.index()], w[b.index()]);
            w[base] = V::select(s, bv, av);
            w[base + 1] = V::select(s, av, bv);
        }
        Component::BitCompare { a, b } => {
            let (av, bv) = (w[a.index()], w[b.index()]);
            w[base] = av.and(bv);
            w[base + 1] = av.or(bv);
        }
        Component::Switch4 { s1, s0, ins, perms } => {
            let (v1, v0) = (w[s1.index()], w[s0.index()]);
            let m = [
                v1.not().and(v0.not()),
                v1.not().and(v0),
                v1.and(v0.not()),
                v1.and(v0),
            ];
            let iv = [
                w[ins[0].index()],
                w[ins[1].index()],
                w[ins[2].index()],
                w[ins[3].index()],
            ];
            for j in 0..4 {
                let mut acc = V::ZERO;
                for (s, mask) in m.iter().enumerate() {
                    acc = acc.or(mask.and(iv[perms[s][j] as usize]));
                }
                w[base + j] = acc;
            }
        }
    }
}

/// Packs up to 64 boolean input vectors (all of length `n_inputs`) into
/// 64-lane words: result `[i]` holds input `i` across vectors, vector `v`
/// in bit `v`.
pub fn pack_lanes(vectors: &[Vec<bool>], n_inputs: usize) -> Vec<u64> {
    assert!(vectors.len() <= 64, "at most 64 vectors per packed pass");
    let mut packed = vec![0u64; n_inputs];
    for (v, vec) in vectors.iter().enumerate() {
        assert_eq!(vec.len(), n_inputs, "vector {v} has wrong length");
        for (i, &bit) in vec.iter().enumerate() {
            if bit {
                packed[i] |= 1 << v;
            }
        }
    }
    packed
}

/// Checked [`pack_lanes`]: rejects over-long batches and ragged vectors
/// with a typed error.
pub fn try_pack_lanes(vectors: &[Vec<bool>], n_inputs: usize) -> Result<Vec<u64>, EvalError> {
    if vectors.len() > 64 {
        return Err(EvalError::TooManyVectors {
            max: 64,
            got: vectors.len(),
        });
    }
    for (v, vec) in vectors.iter().enumerate() {
        if vec.len() != n_inputs {
            return Err(EvalError::VectorLen {
                vector: v,
                expected: n_inputs,
                got: vec.len(),
            });
        }
    }
    Ok(pack_lanes(vectors, n_inputs))
}

/// Unpacks 64-lane output words back into `count` boolean vectors.
pub fn unpack_lanes(packed: &[u64], count: usize) -> Vec<Vec<bool>> {
    assert!(count <= 64);
    (0..count)
        .map(|v| packed.iter().map(|&word| word >> v & 1 == 1).collect())
        .collect()
}

/// Packs up to `64 * N` boolean input vectors into wide lanes: vector
/// `v` lands in word `v / 64`, bit `v % 64` of `result[i]`.
pub fn pack_lanes_wide<const N: usize>(vectors: &[Vec<bool>], n_inputs: usize) -> Vec<[u64; N]> {
    assert!(
        vectors.len() <= 64 * N,
        "at most {} vectors per wide pass",
        64 * N
    );
    let mut packed = vec![[0u64; N]; n_inputs];
    for (v, vec) in vectors.iter().enumerate() {
        assert_eq!(vec.len(), n_inputs, "vector {v} has wrong length");
        let (word, bit) = (v / 64, v % 64);
        for (i, &b) in vec.iter().enumerate() {
            if b {
                packed[i][word] |= 1 << bit;
            }
        }
    }
    packed
}

/// Unpacks wide-lane output words back into `count` boolean vectors.
pub fn unpack_lanes_wide<const N: usize>(packed: &[[u64; N]], count: usize) -> Vec<Vec<bool>> {
    assert!(count <= 64 * N);
    (0..count)
        .map(|v| {
            let (word, bit) = (v / 64, v % 64);
            packed.iter().map(|w| w[word] >> bit & 1 == 1).collect()
        })
        .collect()
}

/// Writes one worker's stride of group results back into the shared
/// result table: worker `t` owns groups `t`, `t + step`, `t + 2·step`, …
fn scatter_stride(
    results: &mut [Vec<Vec<bool>>],
    t: usize,
    step: usize,
    stride: Vec<Vec<Vec<bool>>>,
) {
    for (j, r) in stride.into_iter().enumerate() {
        results[t + j * step] = r;
    }
}

/// Backs [`Circuit::try_eval_batch_parallel`]: every worker packs its
/// 64-vector groups into `u64` lanes on a private evaluator. Groups are
/// dealt in **interleaved strides** (worker `t` takes groups `t`,
/// `t + threads`, …), bounding the imbalance at one group whatever the
/// batch size; contiguous chunks would leave the last worker a short or
/// empty tail. A stride whose worker panics (a malformed netlist,
/// typically) is retried once on a fresh worker; a second panic returns
/// [`EvalError::WorkerPanicked`].
pub(crate) fn try_eval_batch_parallel(
    circuit: &Circuit,
    vectors: &[Vec<bool>],
    threads: usize,
) -> Result<Vec<Vec<bool>>, EvalError> {
    #[cfg(feature = "telemetry")]
    let _span = absort_telemetry::span("eval/batch");
    let n_inputs = circuit.n_inputs();
    for (v, vec) in vectors.iter().enumerate() {
        if vec.len() != n_inputs {
            return Err(EvalError::VectorLen {
                vector: v,
                expected: n_inputs,
                got: vec.len(),
            });
        }
    }
    let threads = threads.max(1);
    let groups: Vec<&[Vec<bool>]> = vectors.chunks(64).collect();
    let mut results: Vec<Vec<Vec<bool>>> = vec![Vec::new(); groups.len()];

    // One worker's share: every `threads`-th group starting at `t`,
    // evaluated in stride order on a private evaluator and returned (the
    // main thread scatters — workers never touch shared output).
    let run_stride = |t: usize| -> Vec<Vec<Vec<bool>>> {
        let mut ev: Evaluator<'_, u64> = Evaluator::new(circuit);
        let mut out = vec![0u64; circuit.n_outputs()];
        groups
            .iter()
            .skip(t)
            .step_by(threads)
            .map(|g| {
                ev.run_into(&pack_lanes(g, n_inputs), &mut out);
                unpack_lanes(&out, g.len())
            })
            .collect()
    };

    if threads == 1 || groups.len() <= 1 {
        // Single-threaded path: runs on the caller's own thread, nothing
        // to isolate.
        let stride = run_stride(0);
        scatter_stride(&mut results, 0, threads, stride);
    } else {
        // Every handle is joined explicitly, so a worker panic surfaces
        // as that handle's Err — not as a scope-wide abort.
        let n_workers = threads.min(groups.len());
        let mut outcomes: Vec<Option<Vec<Vec<Vec<bool>>>>> = Vec::with_capacity(n_workers);
        crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..n_workers)
                .map(|t| s.spawn(move |_| run_stride(t)))
                .collect();
            for h in handles {
                outcomes.push(h.join().ok());
            }
        })
        // All handles are joined above, so the scope itself cannot
        // observe an unjoined panic; this expect is unreachable.
        .expect("all evaluation workers joined");

        let mut poisoned: Vec<usize> = Vec::new();
        for (t, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Some(stride) => scatter_stride(&mut results, t, threads, stride),
                None => poisoned.push(t),
            }
        }

        // Retry each poisoned stride once, on a fresh worker of its own
        // so a second panic is also contained.
        #[cfg(feature = "telemetry")]
        if !poisoned.is_empty() {
            absort_telemetry::counter_add("eval.chunk_retries", poisoned.len() as u64);
        }
        for t in poisoned {
            let retried = crossbeam::thread::scope(|s| s.spawn(|_| run_stride(t)).join())
                .expect("retry worker joined");
            match retried {
                Ok(stride) => scatter_stride(&mut results, t, threads, stride),
                Err(_) => return Err(EvalError::WorkerPanicked { chunk: t }),
            }
        }
    }

    Ok(results.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;

    fn majority_circuit() -> Circuit {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let xy = b.and(x, y);
        let yz = b.and(y, z);
        let xz = b.and(x, z);
        let t = b.or(xy, yz);
        let o = b.or(t, xz);
        b.outputs(&[o]);
        b.finish()
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let vectors: Vec<Vec<bool>> = (0..8u8)
            .map(|v| (0..3).map(|i| v >> i & 1 == 1).collect())
            .collect();
        let packed = pack_lanes(&vectors, 3);
        let back = unpack_lanes(&packed, vectors.len());
        assert_eq!(back, vectors);
    }

    #[test]
    fn batch_parallel_matches_scalar() {
        let c = majority_circuit();
        let vectors: Vec<Vec<bool>> = (0..8u8)
            .map(|v| (0..3).map(|i| v >> i & 1 == 1).collect())
            .collect();
        // Repeat to force multiple 64-lane groups.
        let many: Vec<Vec<bool>> = vectors.iter().cycle().take(300).cloned().collect();
        for threads in [1, 2, 4] {
            let got = c.eval_batch_parallel(&many, threads);
            for (v, g) in many.iter().zip(&got) {
                assert_eq!(g, &c.eval(v), "threads={threads}");
            }
        }
    }

    #[test]
    fn run_into_avoids_length_bugs() {
        let c = majority_circuit();
        let mut ev: Evaluator<'_, bool> = Evaluator::new(&c);
        let mut out = vec![false; 1];
        ev.run_into(&[true, true, false], &mut out);
        assert!(out[0]);
        ev.run_into(&[false, false, true], &mut out);
        assert!(!out[0]);
    }

    #[test]
    #[should_panic(expected = "expected 3 inputs")]
    fn wrong_input_len_panics() {
        let c = majority_circuit();
        let _ = c.eval(&[true]);
    }
}
