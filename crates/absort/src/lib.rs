//! # absort — adaptive binary sorting networks and interconnection networks
//!
//! A full reproduction of Chien & Oruç, *Adaptive Binary Sorting Schemes
//! and Associated Interconnection Networks* (ICPP 1992 / IEEE TPDS 5(6),
//! June 1994), as a Rust library. This facade crate re-exports the whole
//! workspace under one roof:
//!
//! * [`circuit`] — the bit-level netlist substrate (Model A) with the
//!   paper's unit cost/depth accounting;
//! * [`cmpnet`] — word-level comparator networks (Batcher, balanced
//!   merging, zero-one-principle verification);
//! * [`blocks`] — swappers, (n,k)-multiplexers/demultiplexers, prefix
//!   adders (Section II);
//! * [`core`] — the three adaptive binary sorters: prefix (Network 1),
//!   mux-merger (Network 2), and the time-multiplexed fish sorter
//!   (Network 3), plus the `A_n` sequence theory and Theorems 1–4;
//! * [`baselines`] — Batcher bit-level networks, Leighton's columnsort,
//!   and the AKS analytic model;
//! * [`networks`] — concentrators and radix permuters built from the
//!   sorters, and the Beneš baseline (Section IV);
//! * [`analysis`] — experiment drivers regenerating every table and
//!   figure (see EXPERIMENTS.md);
//! * [`faults`] — the fault taxonomy, degradation metrics, and campaign
//!   report types behind `absort --faults` (resilience analysis);
//! * [`serve`] — the fault-tolerant TCP sorting service behind
//!   `absort serve`: length-prefixed protocol, wide-lane request
//!   batching, backpressure with typed load shedding, deadlines, and
//!   chaos-tested graceful degradation.
//!
//! ## Quickstart
//!
//! ```
//! use absort::core::{lang, SorterKind};
//!
//! let bits = lang::bits("0110_1001_1100_0011");
//! let sorted = SorterKind::MuxMerger.sort(&bits);
//! assert_eq!(sorted, lang::sorted_oracle(&bits));
//!
//! // And the same network as a real circuit with exact bit-level cost:
//! let circuit = absort::core::muxmerge::build(16);
//! assert_eq!(circuit.eval(&bits), sorted);
//! assert_eq!(circuit.cost().total, 151); // the exact 4n lg n − Θ(n) recurrence
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use absort_analysis as analysis;
pub use absort_baselines as baselines;
pub use absort_blocks as blocks;
pub use absort_circuit as circuit;
pub use absort_cmpnet as cmpnet;
pub use absort_core as core;
pub use absort_faults as faults;
pub use absort_networks as networks;
pub use absort_serve as serve;
