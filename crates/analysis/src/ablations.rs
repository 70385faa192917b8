//! Ablations of the paper's design choices (experiments E16–E18).
//!
//! The paper motivates three specific mechanisms; each ablation swaps one
//! out on the *built circuits* and measures the difference:
//!
//! * **E16 — prefix adders vs ripple-carry** (Network 1). Measured
//!   finding: inside the sorter the adder kind changes *nothing* — the
//!   count path hides behind the deeper patch-up path — and even the
//!   standalone popcount tree stays `O(lg n)` deep with ripple adders
//!   thanks to carry skew across tree levels. Prefix adders only win for
//!   a single wide addition. (A sharper statement than the paper's, from
//!   measurement.)
//! * **E17 — adaptivity itself** (Network 2 vs the nonadaptive bit-level
//!   Fig. 4(b) sorter). The saving is the predicted `Θ(lg n)` factor:
//!   `n lg n (lg n+1)/4` comparators vs `≈ 4 n lg n` adaptive units.
//! * **E18 — time-multiplexed vs combinational dispatch** (Network 3's
//!   clean sorter). The combinational dispatch costs `Θ(k·m)` per merger
//!   level against the paper's `m + k`; time-multiplexing is what makes
//!   the `O(n)` total possible.

use crate::table::{group_digits, Table};
use absort_blocks::adder::AdderKind;
use absort_core::fish::circuits::dispatch_ablation;
use absort_core::{muxmerge, nonadaptive, prefix};

/// E16: adder-kind ablation rows (measured on built circuits).
pub fn adder_ablation(exps: &[u32]) -> Table {
    let mut t = Table::new([
        "n",
        "depth (prefix adders)",
        "depth (ripple adders)",
        "cost (prefix)",
        "cost (ripple)",
    ]);
    for &a in exps {
        let n = 1usize << a;
        let fast = prefix::build_with_adder(n, AdderKind::Prefix);
        let slow = prefix::build_with_adder(n, AdderKind::Ripple);
        t.row([
            n.to_string(),
            fast.depth().to_string(),
            slow.depth().to_string(),
            group_digits(fast.cost().total),
            group_digits(slow.cost().total),
        ]);
    }
    t
}

/// E17: adaptivity ablation — the nonadaptive Fig. 4(b) bit-level sorter
/// vs the adaptive mux-merger sorter, same function, same depth order.
pub fn adaptivity_ablation(exps: &[u32]) -> Table {
    let mut t = Table::new([
        "n",
        "nonadaptive cost",
        "adaptive (mux-merger) cost",
        "saving",
        "nonadaptive depth",
        "adaptive depth",
    ]);
    for &a in exps {
        let n = 1usize << a;
        let na = nonadaptive::cost_exact(n);
        let ad = muxmerge::formulas::sorter_cost_exact(n);
        t.row([
            format!("2^{a}"),
            group_digits(na),
            group_digits(ad),
            format!("{:.2}x", na as f64 / ad as f64),
            (a as usize * (a as usize + 1) / 2).to_string(),
            muxmerge::formulas::sorter_depth_exact(n).to_string(),
        ]);
    }
    t
}

/// E18: dispatch ablation — combinational vs time-multiplexed clean-sorter
/// dispatch at the top merger level.
pub fn dispatch_ablation_table(cases: &[(usize, usize)]) -> Table {
    let mut t = Table::new([
        "m",
        "k",
        "combinational dispatch",
        "time-multiplexed (m + k)",
        "factor",
    ]);
    for &(m, k) in cases {
        let (comb, tm) = dispatch_ablation(m, k);
        t.row([
            m.to_string(),
            k.to_string(),
            group_digits(comb),
            group_digits(tm),
            format!("{:.1}x", comb as f64 / tm as f64),
        ]);
    }
    t
}

/// Renders all three ablations.
pub fn render_all() -> String {
    let mut s = String::new();
    s.push_str("E16 — adder kind inside Network 1 (measured: no depth change):\n");
    s.push_str(&adder_ablation(&[6, 8, 10, 12]).render());
    s.push_str("\nE17 — adaptivity: nonadaptive Fig. 4(b) vs adaptive mux-merger:\n");
    s.push_str(&adaptivity_ablation(&[6, 10, 14, 18, 22]).render());
    s.push_str("\nE18 — clean-sorter dispatch: combinational vs time-multiplexed:\n");
    s.push_str(&dispatch_ablation_table(&[(64, 4), (256, 8), (1024, 16)]).render());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_depths_equal() {
        let t = adder_ablation(&[8]);
        let csv = t.to_csv();
        let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(row[1], row[2], "prefix vs ripple depth must match: {csv}");
    }

    #[test]
    fn e17_saving_grows() {
        let f = |a: u32| nonadaptive::adaptivity_saving(1usize << a);
        assert!(f(22) > f(14));
        assert!(f(14) > f(6));
        assert!(f(22) > 1.3, "at 2^22 the saving must be substantial");
        // table renders without panicking and has the right shape
        assert_eq!(adaptivity_ablation(&[6, 14, 22]).len(), 3);
    }

    #[test]
    fn e18_factor_exceeds_k_over_constant() {
        let t = dispatch_ablation_table(&[(256, 8)]);
        let csv = t.to_csv();
        let r: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        let factor: f64 = r[4].trim_end_matches('x').parse().unwrap();
        assert!(factor > 3.0, "combinational dispatch must cost several x");
    }

    /// The combinational costs behind `results/e18_dispatch_ablation.csv`.
    #[test]
    fn e18_costs_are_pinned() {
        let costs: Vec<_> = [(64, 4), (256, 8), (1024, 16)]
            .into_iter()
            .map(|(m, k)| dispatch_ablation(m, k))
            .collect();
        assert_eq!(costs, [(284, 68), (2187, 264), (16_847, 1040)]);
    }

    #[test]
    fn render_all_contains_three_sections() {
        let s = render_all();
        assert!(s.contains("E16"));
        assert!(s.contains("E17"));
        assert!(s.contains("E18"));
    }
}
