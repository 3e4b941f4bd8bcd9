//! ISSUE acceptance for the telemetry layer: one traced
//! `QueryService::execute` yields a span tree covering admission, every
//! re-optimization round (sampling dry-runs + DP), mid-query suspensions,
//! and per-operator execution; the trace exports as valid Chrome-trace
//! JSON (and JSON lines); and `telemetry_snapshot()` exposes the unified
//! metrics registry with a working latency histogram.

use std::sync::Arc;

use reopt::core::{ReOptConfig, ReoptEngine};
use reopt::optimizer::OptimizerConfig;
use reopt::sampling::SampleConfig;
use reopt::service::{PlanSource, QueryService, ServiceConfig};
use reopt::stats::AnalyzeOpts;
use reopt::telemetry::names;
use reopt::workloads::ott::{build_ott_database, ott_query, recommended_sample_ratio, OttConfig};
use serde_json::Value;

fn ott() -> OttConfig {
    OttConfig {
        rows_per_value: 12,
        distinct_values: [60, 50, 40, 30, 20, 10],
        ..Default::default()
    }
}

fn service(mid_query: bool, trace: Option<bool>) -> Arc<QueryService> {
    let config = ott();
    let db = Arc::new(build_ott_database(&config).unwrap());
    let engine = ReoptEngine::from_database_with_configs(
        db,
        &AnalyzeOpts::default(),
        SampleConfig {
            ratio: recommended_sample_ratio(&config),
            ..Default::default()
        },
        OptimizerConfig::postgres_like(),
        ReOptConfig {
            mid_query,
            replan_discrepancy: None,
            ..ReOptConfig::default()
        },
    )
    .unwrap();
    Arc::new(
        QueryService::new(
            engine,
            ServiceConfig {
                trace,
                ..Default::default()
            },
        )
        .unwrap(),
    )
}

/// A span by `name` must exist and (transitively) sit under one by
/// `ancestor`.
fn assert_nested(trace: &reopt::telemetry::QueryTrace, ancestor: &str, name: &str) {
    let anc = trace
        .find(ancestor)
        .unwrap_or_else(|| panic!("no {ancestor} span"));
    let mut found = false;
    'outer: for s in trace.spans() {
        if s.name != name {
            continue;
        }
        // Walk parents up to the root.
        let mut cur = s.parent;
        while cur != 0 {
            if cur == anc.id {
                found = true;
                break 'outer;
            }
            match trace.spans().iter().find(|p| p.id == cur) {
                Some(p) => cur = p.parent,
                None => break,
            }
        }
    }
    assert!(found, "no {name} span nested under {ancestor}");
}

#[test]
fn traced_execute_covers_the_whole_pipeline() {
    let svc = service(true, Some(false));
    let q = ott_query(svc.engine().db(), &[0i64, 0, 0, 1, 0]).unwrap();
    let eq = svc.execute_traced(&q).unwrap();
    assert_eq!(eq.response.source, PlanSource::ColdMiss);
    let trace = eq.trace.as_ref().expect("execute_traced returns a trace");

    // The pipeline, one span tree: service → admission → reopt rounds
    // (DP + dry-run) → mid-query (segments, suspends, replans) →
    // per-operator execution.
    assert_eq!(trace.count(names::SERVICE_EXECUTE), 1);
    assert_eq!(trace.count(names::SERVICE_SUBMIT), 1);
    assert_eq!(trace.count(names::SERVICE_ADMISSION), 1);
    assert_eq!(trace.count(names::REOPT_LOOP), 1);
    assert_eq!(
        trace.count(names::REOPT_ROUND),
        eq.response.rounds,
        "one round span per re-optimization round"
    );
    assert_eq!(trace.count(names::OPTIMIZER_DP), eq.response.rounds);
    // The terminal round repeats the previous plan and skips validation,
    // so dry-run spans trail rounds by exactly one on a converged loop.
    assert!(trace.count(names::SAMPLING_DRY_RUN) >= 1);
    assert!(trace.count(names::SAMPLING_DRY_RUN) >= eq.response.rounds - 1);
    assert_eq!(trace.count(names::MIDQUERY_RUN), 1);
    let mq = eq.mid_query.as_ref().unwrap();
    assert!(mq.suspensions >= 1, "5-relation join must suspend");
    assert_eq!(trace.count(names::MIDQUERY_SUSPEND), mq.suspensions);
    assert_eq!(trace.count(names::MIDQUERY_REPLAN), mq.replans);
    assert!(trace.count(names::MIDQUERY_SEGMENT) >= mq.suspensions);
    assert!(trace.count(names::EXEC_OPERATOR) >= q.num_relations());

    // Nesting: everything hangs off the service.execute root.
    assert_nested(trace, names::SERVICE_EXECUTE, names::SERVICE_ADMISSION);
    assert_nested(trace, names::SERVICE_SUBMIT, names::REOPT_ROUND);
    assert_nested(trace, names::REOPT_ROUND, names::SAMPLING_DRY_RUN);
    assert_nested(trace, names::MIDQUERY_RUN, names::EXEC_OPERATOR);
    assert_nested(trace, names::MIDQUERY_SUSPEND, names::MIDQUERY_REPLAN);

    // Spans are sorted by start time and durations are sane.
    let starts: Vec<u64> = trace.spans().iter().map(|s| s.start_us).collect();
    assert!(starts.windows(2).all(|w| w[0] <= w[1]));

    // The rendered tree is a human-readable view of the same spans.
    let tree = trace.render_tree();
    assert!(tree.contains(names::SERVICE_EXECUTE), "{tree}");
    assert!(tree.contains(names::EXEC_OPERATOR), "{tree}");
}

#[test]
fn traced_mid_query_execute_records_the_aggregate() {
    use reopt::plan::{AggExpr, AggSpec};
    let svc = service(true, Some(false));
    let mut q = ott_query(svc.engine().db(), &[0i64, 0, 0, 1, 0]).unwrap();
    q.aggregate = Some(AggSpec {
        group_by: vec![],
        aggs: vec![AggExpr::count_star()],
    });
    let eq = svc.execute_traced(&q).unwrap();
    assert!(eq.output.agg.is_some());
    assert!(eq.mid_query.as_ref().unwrap().suspensions >= 1);
    let trace = eq.trace.as_ref().unwrap();
    assert_eq!(trace.count(names::EXEC_AGGREGATE), 1);
    assert_nested(trace, names::MIDQUERY_RUN, names::EXEC_AGGREGATE);
}

#[test]
fn chrome_trace_export_is_valid_json() {
    let svc = service(false, Some(false));
    let q = ott_query(svc.engine().db(), &[0i64, 0, 0, 1]).unwrap();
    let eq = svc.execute_traced(&q).unwrap();
    let trace = eq.trace.as_ref().unwrap();

    let chrome = trace.to_chrome_trace();
    let doc = serde_json::value_from_str(&chrome).expect("chrome trace parses as JSON");
    let events = match doc.get("traceEvents") {
        Some(Value::Array(events)) => events,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };
    assert_eq!(events.len(), trace.len());
    for ev in events {
        for key in ["name", "ph", "ts", "dur", "args"] {
            assert!(ev.get(key).is_some(), "event missing {key}");
        }
    }

    let lines = trace.to_json_lines();
    assert_eq!(lines.lines().count(), trace.len());
    for line in lines.lines() {
        serde_json::value_from_str(line).expect("each JSON line parses");
    }
}

#[test]
fn snapshot_exposes_the_unified_registry() {
    let svc = service(true, Some(false));
    let q1 = ott_query(svc.engine().db(), &[0i64, 0, 0, 1]).unwrap();
    let q2 = ott_query(svc.engine().db(), &[0i64, 0, 0, 2]).unwrap();
    svc.execute(&q1).unwrap();
    svc.execute(&q2).unwrap(); // same template: warm hit
    svc.execute(&q1).unwrap();

    let snap = svc.telemetry_snapshot();
    assert_eq!(snap.counter("service.submitted"), 3);
    assert_eq!(snap.counter("service.cold_misses"), 1);
    assert_eq!(snap.counter("service.warm_hits"), 2);
    assert_eq!(snap.counter("reopt.runs"), 1);
    assert!(snap.counter("reopt.rounds") >= 1);
    assert_eq!(snap.counter("exec.queries"), 3);
    assert!(snap.counter("exec.rows_produced") > 0);
    assert!(snap.counter("midquery.suspensions") >= 1);
    assert_eq!(snap.gauge("plan_cache.templates"), Some(1.0));

    // Latency histograms rode along with the counters.
    let submit = snap
        .histograms
        .get("service.submit_us")
        .expect("submit latency histogram");
    assert_eq!(submit.summary.count, 3);
    let rendered = snap.render();
    assert!(rendered.contains("service.submitted"), "{rendered}");
    assert!(rendered.contains("service.submit_us"), "{rendered}");
}

#[test]
fn service_stats_latency_summary_tracks_submissions() {
    let svc = service(false, Some(false));
    for c in 0..5i64 {
        let q = ott_query(svc.engine().db(), &[0, 0, 0, c]).unwrap();
        svc.submit(&q).unwrap();
    }
    let s = svc.stats();
    assert_eq!(s.latency.count, 5);
    assert!(s.latency.p50_us > 0, "{:?}", s.latency);
    assert!(s.latency.p50_us <= s.latency.p95_us);
    assert!(s.latency.p95_us <= s.latency.p99_us);
    assert!(s.latency.p99_us <= s.latency.max_us.max(s.latency.p99_us));
    assert!(s.latency.max_us >= s.latency.mean_us);
}

#[test]
fn tracing_is_off_by_default_and_results_match() {
    let off = service(true, Some(false));
    let on = service(true, Some(true));
    let q = ott_query(off.engine().db(), &[0i64, 0, 0, 1, 0]).unwrap();
    let a = off.execute(&q).unwrap();
    let b = on.execute(&q).unwrap();
    assert!(a.trace.is_none(), "trace recorded with tracing off");
    assert!(b.trace.is_some(), "no trace with tracing on");
    assert_eq!(a.output.join_rows, b.output.join_rows);
    assert_eq!(
        a.response.plan.fingerprint(),
        b.response.plan.fingerprint(),
        "tracing changed the chosen plan"
    );
    assert_eq!(
        a.mid_query.as_ref().unwrap().suspensions,
        b.mid_query.as_ref().unwrap().suspensions,
    );
}
