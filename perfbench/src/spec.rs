//! The benchmark's vocabulary: workloads, the metric names and units of
//! `BENCHMARK.json`, and the end-to-end metric each per-layer metric is
//! expected to move.

use serde::Value;

/// One workload the benchmark can drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One client, 2-worker engines, large f64/f32 problems.
    GemmBound,
    /// Two clients sharing one 2-worker f64 engine, 64–512 shapes.
    EngineMixed,
    /// Two clients through router → one 1-worker shard process.
    FleetRpc,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GemmBound,
        Workload::EngineMixed,
        Workload::FleetRpc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GemmBound => "gemm-bound",
            Workload::EngineMixed => "engine-mixed",
            Workload::FleetRpc => "fleet-rpc",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `BENCHMARK.json` at the repository root, embedded at build time: the
/// one list of metric names, units, directions and bounds.
pub fn benchmark() -> Value {
    serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("BENCHMARK.json `{key}` is not an array: {other:?}"),
    }
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    match entry.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("BENCHMARK.json entry field `{key}` is not a string: {other:?}"),
    }
}

/// `(name, unit)` of every metric in the `end_to_end` or `per_layer`
/// list, in file order.
pub fn metrics(list: &str) -> Vec<(String, String)> {
    entries(&benchmark(), list)
        .iter()
        .map(|e| (text(e, "name").to_string(), text(e, "unit").to_string()))
        .collect()
}

use Workload::{EngineMixed, FleetRpc, GemmBound};

/// Each per-layer metric with the end-to-end metric and workload it
/// should move (`BENCHMARK.json` has no field for these).
pub const TARGETS: [(&str, &str, Workload); 39] = [
    ("gemm.leaf_gflops", "eff_gflops", GemmBound),
    ("gemm.small_us", "p50_ms", EngineMixed),
    ("gemm.classical_gflops", "eff_gflops", GemmBound),
    ("gemm.ops_per_byte", "eff_gflops", GemmBound),
    ("matrix.add_gbs", "p50_ms", EngineMixed),
    ("matrix.copy_gbs", "p50_ms", EngineMixed),
    ("matrix.add_frac_copy", "p50_ms", EngineMixed),
    ("core.execute_ms", "eff_gflops", GemmBound),
    ("core.gemm_share", "eff_gflops", GemmBound),
    ("core.additions_share", "p50_ms", EngineMixed),
    ("core.combine_share", "p50_ms", EngineMixed),
    ("core.unaccounted_share", "p50_ms", EngineMixed),
    ("core.depth", "eff_gflops", GemmBound),
    ("core.base_gemms", "eff_gflops", GemmBound),
    ("core.workspace_mb", "peak_rss_mb", GemmBound),
    ("core.minflt_per_execute", "p50_ms", EngineMixed),
    ("core.speedup_vs_classical", "eff_gflops", GemmBound),
    ("core.model_ratio", "eff_gflops", GemmBound),
    ("engine.overhead_us", "p50_ms", EngineMixed),
    ("engine.plan_lookup_us", "p50_ms", EngineMixed),
    ("engine.checkout_us", "p50_ms", EngineMixed),
    ("engine.cache_hit_ratio", "mps", EngineMixed),
    ("engine.workspace_reuse_ratio", "mps", EngineMixed),
    ("engine.minflt_per_multiply", "mps", EngineMixed),
    ("runtime.steals_per_mult", "eff_gflops", GemmBound),
    ("runtime.threads_used", "eff_gflops", GemmBound),
    ("runtime.park_share", "eff_gflops", GemmBound),
    ("serve.encode_gbs", "mps", FleetRpc),
    ("serve.decode_gbs", "mps", FleetRpc),
    ("serve.rpc_overhead_us", "p50_ms", FleetRpc),
    ("serve.rpc_decode_us", "mps", FleetRpc),
    ("serve.rpc_encode_us", "mps", FleetRpc),
    ("serve.router_forward_us", "p50_ms", FleetRpc),
    ("serve.retries", "p50_ms", FleetRpc),
    ("serve.busy_rejections", "mps", FleetRpc),
    ("serve.bytes_per_req", "mps", FleetRpc),
    ("serve.shard_peak_rss_mb", "peak_rss_mb", FleetRpc),
    ("trace.overhead_frac", "mps", EngineMixed),
    // Moves `mps` once the timed engines run the builder defaults.
    ("engine.default_fail_frac", "mps", EngineMixed),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed metric name: `[A-Za-z0-9_.-]+`, starting with
    /// a letter or digit, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn names(list: &str) -> Vec<String> {
        metrics(list).into_iter().map(|m| m.0).collect()
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut all = names("end_to_end");
        all.extend(names("per_layer"));
        all.extend(Workload::ALL.iter().map(|w| w.name().to_string()));
        for name in &all {
            assert!(valid_name(name), "{name} is not [A-Za-z0-9_.-]+");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a metric or workload name repeats");
    }

    #[test]
    fn benchmark_json_lists_the_workloads() {
        let doc = benchmark();
        let listed: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn every_per_layer_metric_names_its_end_to_end_target() {
        let doc = benchmark();
        let targeted: Vec<&str> = TARGETS.iter().map(|t| t.0).collect();
        assert_eq!(names("per_layer"), targeted);
        let end_to_end = names("end_to_end");
        for (name, metric, workload) in TARGETS {
            assert!(
                end_to_end.iter().any(|e| e == metric),
                "{name} targets unknown metric {metric}"
            );
            // The workload's one-line reason names the layers it serves.
            let why = entries(&doc, "workloads")
                .iter()
                .find(|w| text(w, "name") == workload.name())
                .map(|w| text(w, "why"))
                .expect("target workload listed");
            let layer = name.split('.').next().expect("layer prefix");
            assert!(
                why.contains(layer),
                "why of {} does not name layer {layer}",
                workload.name()
            );
        }
    }

    #[test]
    fn bounds_and_setup_follow_the_contract() {
        let doc = benchmark();
        let mut setup_bound = None;
        let mut max_bound = 0.0f64;
        for e in entries(&doc, "end_to_end") {
            let bound = match e.get("bound") {
                Some(Value::Num(b)) => *b,
                other => panic!("bound is not a number: {other:?}"),
            };
            assert!(bound > 0.0 && bound <= 0.25);
            max_bound = max_bound.max(bound);
            if text(e, "name") == "setup_s" {
                assert_eq!(text(e, "unit"), "s");
                assert_eq!(text(e, "better"), "lower");
                setup_bound = Some(bound);
            }
        }
        assert_eq!(
            setup_bound,
            Some(max_bound),
            "setup_s carries the largest bound"
        );
    }
}
