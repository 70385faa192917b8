//! LRU cache of compiled circuits with single-flight compilation.
//!
//! The daemon serves many widths and networks; compiling a
//! [`CompiledCircuit`] and decoding its tape is milliseconds of work that
//! must not be repeated per request or per batch — nor duplicated when
//! ten connections ask for the same `(network, n)` at once. Each cache
//! slot is therefore either `Building` (one thread owns the compile;
//! everyone else waits on a condvar) or `Ready(Arc<..>)`. A builder that
//! **panics** removes its `Building` marker via a drop guard and wakes
//! the waiters, so a poisoned compile degrades to a retry by the next
//! caller instead of a deadlocked queue.

use std::sync::{Arc, Condvar, Mutex};

use absort_circuit::circuit::Circuit;
use absort_circuit::compile::{CompiledCircuit, Decoded};
use absort_circuit::passes::{CompileOptions, OptLevel};

use crate::proto::NetKind;

/// Cache key: which network, what width, which optimization tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Network family.
    pub network: NetKind,
    /// Input width.
    pub n: u32,
    /// Compiler tier the tape was built at.
    pub opt: OptLevel,
}

/// A circuit ready to serve: its compiled tape, and that tape decoded
/// once, at cache fill, into the 64-lane program every batch of the key
/// runs. The netlist is not kept: the solo-retry rung, its only reader,
/// rebuilds it with [`build_network`].
pub struct Compiled {
    /// Compiled tape of the key's netlist.
    pub tape: CompiledCircuit,
    /// `tape` decoded for `u64` lanes, shared by every batch.
    pub(crate) program: Decoded<u64>,
}

/// Builds the netlist for a cache key. Panics on unsupported widths are
/// caught by the caller's single-flight guard.
pub fn build_network(network: NetKind, n: usize) -> Circuit {
    match network {
        NetKind::Prefix => absort_core::prefix::build(n),
        NetKind::MuxMerger => absort_core::muxmerge::build(n),
        NetKind::Nonadaptive => absort_core::nonadaptive::build(n),
    }
}

enum Slot {
    /// Some thread is compiling this key right now.
    Building,
    /// Compiled and shareable.
    Ready(Arc<Compiled>),
}

struct Entry {
    key: CacheKey,
    slot: Slot,
}

/// Bounded LRU cache of [`Compiled`] circuits with single-flight
/// compilation. Recency is tracked by position: the entry vector is
/// ordered oldest-first, and every hit moves its entry to the back.
pub struct CircuitCache {
    entries: Mutex<Vec<Entry>>,
    changed: Condvar,
    capacity: usize,
}

/// Removes the `Building` marker if the builder unwinds, so waiting
/// threads retry instead of sleeping forever.
struct BuildGuard<'a> {
    cache: &'a CircuitCache,
    key: CacheKey,
    armed: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut entries = self.cache.entries.lock().unwrap();
            entries.retain(|e| !(e.key == self.key && matches!(e.slot, Slot::Building)));
            self.cache.changed.notify_all();
        }
    }
}

impl CircuitCache {
    /// A cache holding at most `capacity` compiled circuits
    /// (a capacity of 0 is rounded up to 1).
    pub fn new(capacity: usize) -> CircuitCache {
        CircuitCache {
            entries: Mutex::new(Vec::new()),
            changed: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Number of `Ready` entries currently cached.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .filter(|e| matches!(e.slot, Slot::Ready(_)))
            .count()
    }

    /// Whether the cache holds no ready entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the compiled circuit for `key`, compiling it (at most
    /// once across all threads) if absent. `opts` must agree with
    /// `key.opt` — the caller derives both from the server config.
    pub fn get_or_build(&self, key: CacheKey, opts: &CompileOptions) -> Arc<Compiled> {
        loop {
            {
                let mut entries = self.entries.lock().unwrap();
                if let Some(pos) = entries.iter().position(|e| e.key == key) {
                    match &entries[pos].slot {
                        Slot::Ready(arc) => {
                            let arc = Arc::clone(arc);
                            // LRU touch: move to the back (most recent).
                            let e = entries.remove(pos);
                            entries.push(e);
                            return arc;
                        }
                        Slot::Building => {
                            // Someone else is compiling; wait for any
                            // state change, then re-check from scratch.
                            let _unused = self.changed.wait(entries).unwrap();
                            continue;
                        }
                    }
                }
                // Miss: claim the build. Evict the oldest Ready entry
                // first if we are at capacity (Building entries are
                // never evicted — their builder holds the claim).
                let ready_count = entries
                    .iter()
                    .filter(|e| matches!(e.slot, Slot::Ready(_)))
                    .count();
                if ready_count >= self.capacity {
                    if let Some(pos) = entries
                        .iter()
                        .position(|e| matches!(e.slot, Slot::Ready(_)))
                    {
                        entries.remove(pos);
                    }
                }
                entries.push(Entry {
                    key,
                    slot: Slot::Building,
                });
            }

            let mut guard = BuildGuard {
                cache: self,
                key,
                armed: true,
            };
            // Compile and decode outside the lock: other keys stay
            // servable.
            let circuit = build_network(key.network, key.n as usize);
            let tape = CompiledCircuit::compile_with(&circuit, opts);
            let program = Decoded::new(&tape);
            let compiled = Arc::new(Compiled { tape, program });
            guard.armed = false;

            let mut entries = self.entries.lock().unwrap();
            match entries.iter_mut().find(|e| e.key == key) {
                Some(e) => e.slot = Slot::Ready(Arc::clone(&compiled)),
                // Our Building marker can only have been removed by our
                // own guard, which we just disarmed — but stay safe.
                None => entries.push(Entry {
                    key,
                    slot: Slot::Ready(Arc::clone(&compiled)),
                }),
            }
            self.changed.notify_all();
            return compiled;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn key(n: u32) -> CacheKey {
        CacheKey {
            network: NetKind::MuxMerger,
            n,
            opt: OptLevel::default(),
        }
    }

    #[test]
    fn hit_returns_same_arc() {
        let cache = CircuitCache::new(4);
        let opts = CompileOptions::default();
        let a = cache.get_or_build(key(8), &opts);
        let b = cache.get_or_build(key(8), &opts);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_evicts_least_recent() {
        let cache = CircuitCache::new(2);
        let opts = CompileOptions::default();
        let a8 = cache.get_or_build(key(8), &opts);
        let _a16 = cache.get_or_build(key(16), &opts);
        // Touch 8 so 16 is the LRU victim.
        let _ = cache.get_or_build(key(8), &opts);
        let _a4 = cache.get_or_build(key(4), &opts);
        assert_eq!(cache.len(), 2);
        // 8 must still be cached (same Arc), 16 must have been evicted.
        let b8 = cache.get_or_build(key(8), &opts);
        assert!(Arc::ptr_eq(&a8, &b8));
    }

    #[test]
    fn single_flight_under_contention() {
        let cache = Arc::new(CircuitCache::new(4));
        let hits = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let hits = Arc::clone(&hits);
                s.spawn(move || {
                    let c = cache.get_or_build(key(32), &CompileOptions::default());
                    assert_eq!(c.tape.n_inputs(), 32);
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 8);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn builder_panic_releases_waiters() {
        // n = 6 is not a power of two, so build_network panics inside
        // get_or_build. The drop guard must clear the Building marker so
        // a subsequent good request still succeeds.
        let cache = Arc::new(CircuitCache::new(4));
        let bad = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _ = cache.get_or_build(key(6), &CompileOptions::default());
            })
        };
        assert!(bad.join().is_err(), "n = 6 build should panic");
        let ok = cache.get_or_build(key(8), &CompileOptions::default());
        assert_eq!(ok.tape.n_inputs(), 8);
        assert_eq!(cache.len(), 1);
    }
}
