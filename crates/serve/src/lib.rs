//! # absort-serve — the fault-tolerant sorting service
//!
//! A long-running TCP daemon serving the compiled sorting tapes of
//! *Adaptive Binary Sorting Schemes and Associated Interconnection
//! Networks* (Chien & Oruç) to many concurrent clients. The paper's
//! networks have bounded depth, which makes per-request latency
//! predictable enough to enforce real deadlines — provided the serving
//! layer stays correct and responsive under overload, malformed input,
//! and partial failure. That is this crate's whole job:
//!
//! * [`proto`] — length-prefixed binary protocol, versioned header,
//!   per-request deadlines, typed [`proto::FrameError`] rejection;
//! * [`cache`] — LRU of compiled circuits with single-flight compilation;
//!   each entry holds its tape decoded once, at fill, into a shared
//!   64-lane program;
//! * [`server`] — acceptor + per-connection reader and writer threads,
//!   each moving whole socket buffers of frames, thread-per-core
//!   workers, request coalescing into batches run as one `u64` pass per
//!   64 requests of a key on lanes transposed from the packed payloads,
//!   bounded queues with load shedding, panic isolation with
//!   batched→scalar degradation (the scalar rung rebuilds the netlist),
//!   and SIGTERM graceful drain;
//! * [`client`] — the blocking client used by `bench_serve` and the
//!   chaos harness;
//! * [`signal`] — the SIGTERM/SIGINT drain latch.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;
pub mod signal;

pub use client::{Client, ClientError};
pub use proto::{NetKind, Reply, ReplyPayload, Request, RequestKind, Status};
pub use server::{ServeConfig, ServeStats, Server};

/// The reference answer for a zero-one sort: output bit `i` of a correct
/// sorter is 1 exactly when `i >= n - popcount(input)`. Every consumer
/// of `Ok` sort replies differentially checks against this oracle.
pub fn sorted_oracle(bits: &[bool]) -> Vec<bool> {
    let ones = bits.iter().filter(|&&b| b).count();
    let n = bits.len();
    (0..n).map(|i| i >= n - ones).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matches_sorting() {
        let bits = [true, false, true, true, false, false, false, true];
        let mut sorted = bits.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted_oracle(&bits), sorted);
    }
}
