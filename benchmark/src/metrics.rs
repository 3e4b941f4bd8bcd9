//! The metric catalogue (the names `BENCHMARK.json` promises), the summary
//! statistics behind them, and the one-line JSON result.

use std::collections::BTreeMap;

use serde_json::Value;

/// One catalogue entry. `bound` is set on end-to-end metrics only.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that keeps `BENCHMARK.json` equal to this catalogue.
    #[cfg_attr(not(test), allow(dead_code))]
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// Timed run, tracing off. Every workload reports every one of these.
///
/// The bounds: ten runs of identical inputs on the 2-vCPU reference VM
/// spread (inter-quartile range over median) by 4–10 % on the timings and
/// under 3 % on memory, and a bound has to be about three spreads wide not
/// to reject unchanged code.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("query_ms_p95", "ms", false, 0.25),
    e2e("queries_per_s", "1/s", true, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.10),
    e2e("setup_s", "s", false, 0.25),
];

/// Traced run. A metric a workload has no use for reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("plan.fingerprint_us", "us", false),
    layer("optimizer.optimize_ms", "ms", false),
    layer("optimizer.time_share", "ratio", false),
    layer("optimizer.calls", "count", false),
    layer("optimizer.memo_reuse_ratio", "ratio", true),
    layer("sampling.validate_ms", "ms", false),
    layer("sampling.time_share", "ratio", false),
    layer("sampling.subtrees_executed", "count", false),
    layer("sampling.cache_hit_ratio", "ratio", true),
    layer("sampling.build_ms", "ms", false),
    layer("sampling.refresh_ms", "ms", false),
    layer("stats.analyze_full_ms", "ms", false),
    layer("stats.analyze_incremental_ms", "ms", false),
    layer("stats.drift_ms", "ms", false),
    layer("stats.tables_merged", "count", false),
    layer("stats.tables_rescanned", "count", false),
    layer("storage.append_ms", "ms", false),
    layer("storage.table_rows", "count", true),
    layer("executor.run_ms", "ms", false),
    layer("executor.time_share", "ratio", true),
    layer("executor.scan_mrows_per_s", "Mrows/s", true),
    layer("executor.rows_scanned", "count", false),
    layer("executor.rows_produced", "count", false),
    layer("executor.peak_intermediate_rows", "count", false),
    layer("executor.parallel_workers", "count", true),
    layer("core.reoptimize_ms", "ms", false),
    layer("core.rounds_mean", "count", false),
    layer("core.plan_changed_share", "ratio", true),
    layer("core.converged_share", "ratio", true),
    layer("core.overhead_ratio.easy", "ratio", false),
    layer("core.overhead_ratio.hard", "ratio", false),
    layer("core.plan_gain", "ratio", true),
    layer("core.midquery.overhead_ratio", "ratio", false),
    layer("core.midquery.suspensions", "count", false),
    layer("core.midquery.replans", "count", false),
    layer("core.midquery.plan_switches", "count", true),
    layer("core.midquery.splices", "count", true),
    layer("core.midquery.useful_replan_ratio", "ratio", true),
    layer("service.submit_cold_ms", "ms", false),
    layer("service.submit_warm_us", "us", false),
    layer("service.overhead_ms", "ms", false),
    layer("service.warm_hit_ratio", "ratio", true),
    layer("service.reopts_run", "count", false),
    layer("service.revalidations", "count", false),
    layer("service.revalidations_saved_ratio", "ratio", true),
    layer("service.table_evictions", "count", false),
    layer("service.stale_evictions", "count", false),
    layer("service.ingest_overhead_ms", "ms", false),
    layer("service.ingest_stall_share", "ratio", false),
    layer("telemetry.overhead_ratio", "ratio", false),
    layer("telemetry.spans_per_op", "count", false),
    layer("trace.service.admission.self_ms", "ms", false),
    layer("trace.reopt.round.self_ms", "ms", false),
    layer("trace.optimizer.dp.self_ms", "ms", false),
    layer("trace.sampling.dry_run.self_ms", "ms", false),
    layer("trace.exec.operator.self_ms", "ms", false),
    layer("trace.exec.aggregate.self_ms", "ms", false),
    layer("trace.midquery.suspend.self_ms", "ms", false),
    layer("trace.midquery.replan.self_ms", "ms", false),
    layer("trace.midquery.splice.self_ms", "ms", false),
    layer("trace.ingest.analyze.self_ms", "ms", false),
    layer("trace.ingest.drift.self_ms", "ms", false),
    layer("trace.ingest.refresh.self_ms", "ms", false),
    layer("trace.service.revalidate.self_ms", "ms", false),
    layer("trace.unattributed_ms", "ms", false),
    layer("trace.fold_coverage_ratio", "ratio", true),
    layer("bench.trace_overhead_ratio", "ratio", false),
    layer("bench.generator_late_ms_p99", "ms", false),
    // The median latency is microseconds on `ingest_churn` (an unstalled
    // `submit`) and moved by 40 % between run sets there, so it cannot carry
    // a bound; here it is pooled over the plain view.
    layer("query_ms_p50", "ms", false),
    // Read and write sides of `ingest_churn`'s concurrent phase. They exist
    // on one workload only, so they cannot be end-to-end metrics (each of
    // those is reported, non-zero, by every workload).
    layer("ingest_ms_p50", "ms", false),
    layer("ingest_ms_p95", "ms", false),
    layer("ingest_rows_per_s", "1/s", true),
    layer("admit_ms_p95", "ms", false),
    layer("admit_ms_p99", "ms", false),
    layer("failed_share", "ratio", false),
];

/// The program spans the fold reports by name, with their metric.
pub const FOLDED_SPANS: &[(&str, &str)] = &[
    ("service.admission", "trace.service.admission.self_ms"),
    ("reopt.round", "trace.reopt.round.self_ms"),
    ("optimizer.dp", "trace.optimizer.dp.self_ms"),
    ("sampling.dry_run", "trace.sampling.dry_run.self_ms"),
    ("exec.operator", "trace.exec.operator.self_ms"),
    ("exec.aggregate", "trace.exec.aggregate.self_ms"),
    ("midquery.suspend", "trace.midquery.suspend.self_ms"),
    ("midquery.replan", "trace.midquery.replan.self_ms"),
    ("midquery.splice", "trace.midquery.splice.self_ms"),
    ("ingest.analyze", "trace.ingest.analyze.self_ms"),
    ("ingest.drift", "trace.ingest.drift.self_ms"),
    ("ingest.refresh", "trace.ingest.refresh.self_ms"),
    ("service.revalidate", "trace.service.revalidate.self_ms"),
];

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Measured values by metric name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// The contract's result object: exactly the catalogue's metrics for
    /// this mode, in catalogue order; a metric the run did not set reads 0.
    pub fn to_json(&self, catalogue: &[MetricSpec]) -> Value {
        let metrics = catalogue
            .iter()
            .map(|spec| {
                let value = self.metrics.get(spec.name).unwrap_or(0.0);
                (
                    spec.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(value)),
                        ("unit".to_string(), Value::Str(spec.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }
}

/// `serde_json::to_string` wants a `Serialize`; the shim's `Value` is the
/// data model itself and does not implement it.
pub struct Json<'a>(pub &'a Value);

impl serde::Serialize for Json<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

pub fn json_string(v: &Value) -> String {
    serde_json::to_string(&Json(v)).expect("JSON rendering cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(spec.name), "duplicate metric {}", spec.name);
            assert!(spec.name.len() <= 64 && spec.unit.len() <= 16);
            assert!(spec.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    /// `BENCHMARK.json` is hand-written; this keeps it equal to the catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::value_from_str(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Array(listed)) = doc.get(key) else {
                panic!("{key} missing");
            };
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (entry, spec) in listed.iter().zip(catalogue) {
                assert_eq!(entry.get("name"), Some(&Value::Str(spec.name.into())));
                assert_eq!(entry.get("unit"), Some(&Value::Str(spec.unit.into())));
                let better = if spec.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(entry.get("better"), Some(&Value::Str(better.into())));
                match spec.bound {
                    Some(b) => assert_eq!(entry.get("bound"), Some(&Value::Float(b))),
                    None => assert_eq!(entry.get("bound"), None),
                }
            }
        }
        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            panic!("workloads missing");
        };
        let names: Vec<_> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let want: Vec<_> = crate::inputs::Workload::ALL
            .iter()
            .map(|w| Value::Str(w.name().into()))
            .collect();
        assert_eq!(names, want.iter().collect::<Vec<_>>());
    }
}
