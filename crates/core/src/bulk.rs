//! Bulk binary sorting: many sequences at once through one built circuit.
//!
//! The 64-lane evaluator sorts 64 independent n-bit sequences in a single
//! pass over the netlist, and the crossbeam batch evaluator shards lane
//! groups across threads — the data-parallel way to use these networks
//! from software (and the engine behind the exhaustive verifiers). For
//! one-off sorts the functional forms are faster; for millions of
//! fixed-width records the amortized circuit pass wins (see the
//! `eval_engines` bench).

use crate::muxmerge;
use absort_circuit::{assert_pow2, Circuit, CompiledCircuit, CompiledEvaluator};

/// A reusable bulk sorter: one built n-input mux-merger circuit, its
/// compiled micro-op tape, plus the thread count for batch evaluation.
pub struct BulkSorter {
    circuit: Circuit,
    compiled: CompiledCircuit,
    n: usize,
    threads: usize,
}

impl BulkSorter {
    /// Builds the bulk sorter for `n = 2^k`-bit sequences, evaluating
    /// batches on `threads` threads. The netlist is compiled here, so
    /// every later word-packed sort runs on the register-allocated tape.
    pub fn new(n: usize, threads: usize) -> Self {
        assert_pow2(n, "bulk sorter");
        let circuit = muxmerge::build(n);
        BulkSorter {
            compiled: circuit.compile(),
            circuit,
            n,
            threads: threads.max(1),
        }
    }

    /// Sequence width.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sorts every sequence in `batch` (each of length `n`) with
    /// [`Circuit::eval_batch_parallel`].
    pub fn sort_batch(&self, batch: &[Vec<bool>]) -> Vec<Vec<bool>> {
        self.circuit.eval_batch_parallel(batch, self.threads)
    }

    /// Sorts sequences packed as `u64` words (little-endian bit `i` =
    /// line `i`; `n ≤ 64`). The fastest path: 64 sequences per circuit
    /// pass with no per-bool materialization and no per-chunk allocation.
    pub fn sort_words(&self, words: &[u64]) -> Vec<u64> {
        assert!(self.n <= 64, "word-packed sorting needs n <= 64");
        let mut out = Vec::with_capacity(words.len());
        let mut ev: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&self.compiled);
        let mut lanes = vec![0u64; self.n];
        let mut sorted = vec![0u64; self.n];
        for chunk in words.chunks(64) {
            // transpose chunk into lanes: lane word `i` holds line i of
            // every sequence in the chunk
            lanes.fill(0);
            for (v, &w) in chunk.iter().enumerate() {
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane |= (w >> i & 1) << v;
                }
            }
            ev.run_into(&lanes, &mut sorted);
            for v in 0..chunk.len() {
                let mut w = 0u64;
                for (i, lane) in sorted.iter().enumerate() {
                    w |= (lane >> v & 1) << i;
                }
                out.push(w);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::sorted_oracle;
    use rand::prelude::*;

    #[test]
    fn batch_matches_oracle() {
        let n = 64;
        let bulk = BulkSorter::new(n, 4);
        let mut rng = StdRng::seed_from_u64(30);
        let batch: Vec<Vec<bool>> = (0..300)
            .map(|_| (0..n).map(|_| rng.gen()).collect())
            .collect();
        let out = bulk.sort_batch(&batch);
        for (i, o) in batch.iter().zip(&out) {
            assert_eq!(o, &sorted_oracle(i));
        }
    }

    #[test]
    fn words_match_batch() {
        let n = 32;
        let bulk = BulkSorter::new(n, 1);
        let mut rng = StdRng::seed_from_u64(31);
        let words: Vec<u64> = (0..200).map(|_| rng.gen::<u32>() as u64).collect();
        let sorted = bulk.sort_words(&words);
        for (&w, &s) in words.iter().zip(&sorted) {
            let expect_ones = w.count_ones();
            assert_eq!(s.count_ones(), expect_ones, "ones preserved");
            // sorted pattern: ones in the top positions
            let expected = if expect_ones == 0 {
                0
            } else {
                ((1u64 << expect_ones) - 1) << (n as u32 - expect_ones)
            };
            assert_eq!(s, expected, "w={w:032b}");
        }
    }

    #[test]
    fn odd_batch_sizes() {
        let bulk = BulkSorter::new(16, 2);
        for len in [1usize, 63, 64, 65, 130] {
            let batch: Vec<Vec<bool>> = (0..len)
                .map(|i| (0..16).map(|j| (i + j) % 3 == 0).collect())
                .collect();
            let out = bulk.sort_batch(&batch);
            assert_eq!(out.len(), len);
            for (i, o) in batch.iter().zip(&out) {
                assert_eq!(o, &sorted_oracle(i), "len={len}");
            }
        }
    }
}
