//! The metric catalogue: every workload, every end-to-end metric and every
//! per-layer metric this benchmark prints, with its unit. `BENCHMARK.json`
//! lists the same names; `selftest.py` checks that the two agree.

use std::sync::OnceLock;

pub const WORKLOADS: [&str; 3] = ["serve-burst", "campaign", "compile"];

/// Printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// The compiler's optional passes, in pipeline order; the names are the
/// `compile/pass/<name>` telemetry span segments.
pub const PASSES: [&str; 6] = [
    "const-prologue",
    "const-prop",
    "cse",
    "rewrite",
    "dce",
    "mask-reuse",
];

/// The networks the compile workload builds at n = 1024.
pub const COMPILE_NETS: [&str; 4] = ["prefix", "mux-merger", "fish", "nonadaptive"];

/// The networks a fault campaign sweeps, in report order.
pub const CAMPAIGN_NETS: [&str; 4] = ["prefix", "mux-merger", "fish", "batcher"];

/// The public calls the stage replay times, in the order the server makes
/// them (decode is first, encode last).
pub const REPLAY_CALLS: [&str; 7] = [
    "proto.decode_us",
    "cache.hit_us",
    "dispatch.decode_us",
    "eval.pack_us",
    "eval.run_us",
    "eval.unpack_us",
    "proto.encode_us",
];

const FIXED_LAYER: &[(&str, &str)] = &[
    // serve daemon, from its telemetry and counters
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.batches", "count"),
    ("serve.batch_lanes_mean", "lanes"),
    ("serve.failed", "count"),
    ("gen.late_p99_us", "us"),
    // fault campaign, per campaign
    ("faults.mutants.patched", "count"),
    ("faults.mutants.dead", "count"),
    ("faults.mutants.recompiled", "count"),
    ("faults.patch_us", "us"),
    ("faults.recompile_ms", "ms"),
    ("faults.score_p50_us", "us"),
    ("faults.score_p99_us", "us"),
    ("faults.vectors_evaluated", "count"),
    ("eval.compiled_passes", "count"),
    ("campaign.lower_ms", "ms"),
    // compiler, per round
    ("compile.pass.rewrite.applied", "count"),
    // the traced run itself
    ("trace.overhead_pct", "%"),
    ("trace.unexplained_pct", "%"),
];

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Printed by every traced run, in this order.
pub fn per_layer() -> &'static [(&'static str, &'static str)] {
    static ALL: OnceLock<Vec<(&'static str, &'static str)>> = OnceLock::new();
    ALL.get_or_init(|| {
        let mut all: Vec<(&'static str, &'static str)> = FIXED_LAYER.to_vec();
        for call in REPLAY_CALLS {
            all.push((leak(format!("{call}.burst256")), "us"));
        }
        for net in CAMPAIGN_NETS {
            all.push((leak(format!("campaign.{net}_ms")), "ms"));
        }
        for pass in PASSES {
            all.push((leak(format!("campaign.pass.{pass}_ms")), "ms"));
        }
        for net in COMPILE_NETS {
            all.push((leak(format!("build.{net}_ms")), "ms"));
            all.push((leak(format!("compile.{net}_ms")), "ms"));
            for pass in PASSES {
                all.push((leak(format!("compile.{net}.pass.{pass}_ms")), "ms"));
            }
            all.push((leak(format!("compile.{net}.lower_ms")), "ms"));
            all.push((leak(format!("compile.{net}.o1_ms")), "ms"));
            all.push((leak(format!("dispatch.{net}.decode_ms")), "ms"));
            all.push((leak(format!("compile.{net}.tape_len")), "count"));
            all.push((leak(format!("compile.{net}.slots")), "count"));
        }
        all
    })
}

/// The declared `&'static` spelling of a metric name.
pub fn declared(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(per_layer())
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_limits() {
        let all: Vec<_> = END_TO_END.iter().chain(per_layer()).collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(all[..i].iter().all(|(n, _)| n != name), "duplicate {name}");
        }
        assert!(per_layer().len() <= 128);
    }
}
