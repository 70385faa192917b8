//! Golden-file pin for the ahead-of-time Rust emitter.
//!
//! The committed sources under `crates/bench/emitted/` are what `absort
//! emit --rust --network <x> --n <k>` prints for the three combinational
//! catalog networks at n = 8, 16 and 64. Two properties are pinned:
//!
//! 1. **Byte-for-byte determinism** — recompiling the same network and
//!    re-emitting reproduces the committed file exactly. Regenerate with
//!    `BLESS=1 cargo test --test emitted_golden` after an intentional
//!    compiler change.
//! 2. **Compiled equivalence** — the goldens are `include!`d below, so
//!    `cargo test` literally compiles about 380 KB of emitted
//!    straight-line code and checks it against the interpreter:
//!    exhaustively at n = 8 and 16, on a dense random sample at n = 64.
//!
//! CI's emit job also has rustc compile each network's standalone
//! n = 32 emit.
//!
//! The same files feed `bench_eval`'s `emitted_scalar_ms` column.

use absort::analysis::faults::fish_k;
use absort::circuit::emit::emit_rust;
use absort::circuit::{Circuit, CompileOptions};
use absort::core::{fish, muxmerge, prefix};

mod emitted {
    include!("../crates/bench/emitted/sort_prefix_8.rs");
    include!("../crates/bench/emitted/sort_prefix_16.rs");
    include!("../crates/bench/emitted/sort_prefix_64.rs");
    include!("../crates/bench/emitted/sort_mux_merger_8.rs");
    include!("../crates/bench/emitted/sort_mux_merger_16.rs");
    include!("../crates/bench/emitted/sort_mux_merger_64.rs");
    include!("../crates/bench/emitted/sort_fish_8.rs");
    include!("../crates/bench/emitted/sort_fish_16.rs");
    include!("../crates/bench/emitted/sort_fish_64.rs");
}

fn build(network: &str, n: usize) -> Circuit {
    match network {
        "prefix" => prefix::build(n),
        "mux_merger" => muxmerge::build(n),
        "fish" => fish::circuits::build_combinational_kmerger(n, fish_k(n)),
        _ => unreachable!(),
    }
}

fn golden_path(network: &str, n: usize) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../crates/bench/emitted")
        .join(format!("sort_{network}_{n}.rs"))
}

const GOLDENS: [(&str, usize, &str); 9] = [
    (
        "prefix",
        8,
        include_str!("../crates/bench/emitted/sort_prefix_8.rs"),
    ),
    (
        "prefix",
        16,
        include_str!("../crates/bench/emitted/sort_prefix_16.rs"),
    ),
    (
        "prefix",
        64,
        include_str!("../crates/bench/emitted/sort_prefix_64.rs"),
    ),
    (
        "mux_merger",
        8,
        include_str!("../crates/bench/emitted/sort_mux_merger_8.rs"),
    ),
    (
        "mux_merger",
        16,
        include_str!("../crates/bench/emitted/sort_mux_merger_16.rs"),
    ),
    (
        "mux_merger",
        64,
        include_str!("../crates/bench/emitted/sort_mux_merger_64.rs"),
    ),
    (
        "fish",
        8,
        include_str!("../crates/bench/emitted/sort_fish_8.rs"),
    ),
    (
        "fish",
        16,
        include_str!("../crates/bench/emitted/sort_fish_16.rs"),
    ),
    (
        "fish",
        64,
        include_str!("../crates/bench/emitted/sort_fish_64.rs"),
    ),
];

/// Byte-for-byte: re-emitting each network reproduces the committed
/// golden. `BLESS=1` rewrites the files instead of failing.
#[test]
fn emitted_sources_match_committed_goldens() {
    let bless = std::env::var_os("BLESS").is_some();
    for (network, n, golden) in GOLDENS {
        let c = build(network, n);
        let cc = c.compile_with(&CompileOptions::default());
        let src = emit_rust(&cc, &format!("sort_{network}_{n}"), false);
        if bless {
            std::fs::write(golden_path(network, n), &src).expect("write golden");
        } else {
            assert_eq!(
                src, golden,
                "{network} n={n}: emitted source drifted from \
                 crates/bench/emitted/sort_{network}_{n}.rs — rerun with BLESS=1 \
                 if the compiler change is intentional"
            );
        }
    }
}

fn check<const I: usize, const O: usize>(
    network: &str,
    f: fn(&[bool; I]) -> [bool; O],
    exhaustive: bool,
) {
    let c = build(network, I);
    let sweep: Box<dyn Iterator<Item = u64>> = if exhaustive {
        Box::new(0..1u64 << I)
    } else {
        // splitmix64 stream — dense deterministic sampling where 2^n is
        // out of reach.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        Box::new((0..4096).map(move |_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }))
    };
    for v in sweep {
        let mut input = [false; I];
        for (i, b) in input.iter_mut().enumerate() {
            *b = v >> (i % 64) & 1 == 1;
        }
        let got = f(&input);
        let want = c.eval(&input);
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "{network} n={I} input {v:#x}"
        );
    }
}

/// The committed goldens, compiled by rustc as part of this test binary,
/// agree with the interpreter on every input (n ≤ 16) or a dense sample.
#[test]
fn emitted_functions_are_equivalent_to_the_interpreter() {
    check::<8, 8>("prefix", emitted::sort_prefix_8, true);
    check::<16, 16>("prefix", emitted::sort_prefix_16, true);
    check::<64, 64>("prefix", emitted::sort_prefix_64, false);
    check::<8, 8>("mux_merger", emitted::sort_mux_merger_8, true);
    check::<16, 16>("mux_merger", emitted::sort_mux_merger_16, true);
    check::<64, 64>("mux_merger", emitted::sort_mux_merger_64, false);
    check::<8, 8>("fish", emitted::sort_fish_8, true);
    check::<16, 16>("fish", emitted::sort_fish_16, true);
    check::<64, 64>("fish", emitted::sort_fish_64, false);
}
