//! End-to-end service tests over the OTT workload: single-flight
//! admission, template reuse across literals, refresh/LRU eviction, and
//! cross-template sample-cache pooling.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use reopt_common::{ColId, TableId};
use reopt_core::{ReOptConfig, ReoptEngine};
use reopt_optimizer::OptimizerConfig;
use reopt_plan::query::ColRef;
use reopt_plan::{Predicate, Query, QueryBuilder};
use reopt_sampling::SampleConfig;
use reopt_service::{PlanSource, QueryService, ServiceConfig};
use reopt_stats::AnalyzeOpts;
use reopt_storage::{Column, ColumnDef, Database, LogicalType, Table, TableSchema, Value};
use reopt_workloads::ott::{build_ott_database, ott_query, recommended_sample_ratio, OttConfig};

fn ott_db(config: &OttConfig) -> Arc<Database> {
    Arc::new(build_ott_database(config).unwrap())
}

fn service_with(config: &OttConfig, svc: ServiceConfig) -> Arc<QueryService> {
    Arc::new(
        QueryService::from_database(
            ott_db(config),
            &AnalyzeOpts::default(),
            SampleConfig {
                ratio: recommended_sample_ratio(config),
                ..Default::default()
            },
            svc,
        )
        .unwrap(),
    )
}

fn small_ott() -> OttConfig {
    OttConfig {
        rows_per_value: 12,
        distinct_values: [60, 50, 40, 30, 20, 10],
        ..Default::default()
    }
}

/// ISSUE acceptance: K threads submit the same template concurrently;
/// exactly one re-optimization runs, every thread gets the identical
/// plan, and subsequent warm hits are an order of magnitude faster than
/// the cold miss.
#[test]
fn single_flight_coalesces_concurrent_sessions() {
    const K: usize = 8;
    let service = service_with(&small_ott(), ServiceConfig::default());
    let q = ott_query(service.engine().db(), &[0, 0, 0, 0, 1]).unwrap();
    let barrier = Barrier::new(K);

    let responses: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let service = &service;
                let q = &q;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    service.submit(q).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = service.stats();
    // Exactly one re-optimization ran, however the K arrivals raced.
    assert_eq!(stats.reopts_run, 1, "{stats:?}");
    assert_eq!(stats.cold_misses, 1, "{stats:?}");
    assert_eq!(stats.submitted, K as u64);
    assert_eq!(stats.errors, 0);
    assert_eq!(
        stats.warm_hits + stats.coalesced,
        (K - 1) as u64,
        "{stats:?}"
    );

    // All K sessions hold the identical plan.
    let fp0 = responses[0].plan.fingerprint();
    for r in &responses {
        assert_eq!(r.plan.fingerprint(), fp0);
        assert!(r.plan.same_structure(&responses[0].plan));
        assert!(r.rounds >= 1);
    }
    let cold: Vec<_> = responses
        .iter()
        .filter(|r| r.source == PlanSource::ColdMiss)
        .collect();
    assert_eq!(cold.len(), 1);

    // Warm hits must be >10× cheaper than the cold miss. Average over a
    // batch so one scheduler hiccup can't flip the assertion.
    let cold_latency = cold[0].latency;
    let warm_batch = 50;
    let mut warm_total = Duration::ZERO;
    for _ in 0..warm_batch {
        let r = service.submit(&q).unwrap();
        assert_eq!(r.source, PlanSource::WarmHit);
        warm_total += r.latency;
    }
    let warm_mean = warm_total / warm_batch;
    assert!(
        cold_latency > warm_mean * 10,
        "cold {cold_latency:?} not >10x warm mean {warm_mean:?}"
    );
}

#[test]
fn different_literals_share_one_template() {
    let service = service_with(&small_ott(), ServiceConfig::default());
    let engine = service.engine();
    let db = engine.db();
    let cold = service
        .submit(&ott_query(db, &[0, 0, 0, 1]).unwrap())
        .unwrap();
    assert_eq!(cold.source, PlanSource::ColdMiss);
    // Same shape, different constants: a warm hit on the same entry.
    let warm = service
        .submit(&ott_query(db, &[3, 1, 2, 0]).unwrap())
        .unwrap();
    assert_eq!(warm.source, PlanSource::WarmHit);
    assert_eq!(warm.template, cold.template);
    assert!(warm.plan.same_structure(&cold.plan));
    // A different shape is its own entry.
    let other = service.submit(&ott_query(db, &[0, 0, 0]).unwrap()).unwrap();
    assert_eq!(other.source, PlanSource::ColdMiss);
    assert_ne!(other.template, cold.template);
    assert_eq!(service.stats().reopts_run, 2);
}

/// A full refresh is the drift reaction over every table: with no ingest
/// since the draw it redraws every sample bit-identically at the same
/// version, so nothing goes stale; after even a sub-threshold ingest every
/// sample's version moves and every template re-validates.
#[test]
fn refresh_full_revalidates_only_what_it_redrew() {
    let service = service_with(&small_ott(), ServiceConfig::default());
    let db = service.engine().db().clone();
    let templates = [
        ott_query(&db, &[0, 0]).unwrap(),
        ott_query(&db, &[0, 0, 0, 1]).unwrap(),
    ];
    for q in &templates {
        assert_eq!(service.submit(q).unwrap().source, PlanSource::ColdMiss);
    }
    let entries = service.sample_cache().entries();
    assert!(entries > 0, "dry runs populated the shared cache");

    service.refresh_full().unwrap();
    for q in &templates {
        assert_eq!(service.submit(q).unwrap().source, PlanSource::WarmHit);
    }
    assert_eq!(service.sample_cache().entries(), entries);
    assert_eq!(service.stats().table_evictions, 0);

    let batch: Vec<_> = (0..60)
        .map(|v| vec![Value::Int(v), Value::Int(v)])
        .collect();
    let report = service.append_rows("ott_lineitem", &batch).unwrap();
    assert!(!report.refreshed, "the batch must stay under the threshold");
    service.refresh_full().unwrap();
    for q in &templates {
        assert_ne!(service.submit(q).unwrap().source, PlanSource::WarmHit);
    }
    let stats = service.stats();
    assert_eq!(stats.table_evictions, templates.len() as u64, "{stats:?}");
    assert_eq!(stats.stale_evictions, 0, "{stats:?}");
}

#[test]
fn plan_cache_respects_capacity() {
    let service = service_with(
        &small_ott(),
        ServiceConfig {
            plan_cache_capacity: 2,
            ..Default::default()
        },
    );
    let engine = service.engine();
    let db = engine.db();
    let q2 = ott_query(db, &[0, 0]).unwrap();
    let q3 = ott_query(db, &[0, 0, 0]).unwrap();
    let q4 = ott_query(db, &[0, 0, 0, 0]).unwrap();
    service.submit(&q2).unwrap();
    service.submit(&q3).unwrap();
    // Touch q2 so q3 is the LRU victim when q4 lands.
    assert_eq!(service.submit(&q2).unwrap().source, PlanSource::WarmHit);
    service.submit(&q4).unwrap();
    let stats = service.stats();
    assert_eq!(stats.cached_templates, 2, "{stats:?}");
    assert_eq!(stats.lru_evictions, 1, "{stats:?}");
    assert_eq!(service.submit(&q2).unwrap().source, PlanSource::WarmHit);
    assert_eq!(service.submit(&q3).unwrap().source, PlanSource::ColdMiss);
}

/// Uniform chain database: `k` identical tables R(A, B) with B = A,
/// `vals` distinct values × `per` rows — the fixture whose re-optimized
/// plans demonstrably overlap in subtrees across chain lengths (OTT's
/// selective-first chains pivot around the odd filtered relation, so
/// prefix queries share nothing there).
fn uniform_db(k: usize, vals: i64, per: usize) -> Arc<Database> {
    let mut db = Database::new();
    for t in 0..k {
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("a", LogicalType::Int),
                ColumnDef::new("b", LogicalType::Int),
            ])?;
            let mut data = Vec::new();
            for v in 0..vals {
                data.extend(std::iter::repeat_n(v, per));
            }
            let mut tbl = Table::new(
                id,
                format!("u{t}"),
                schema,
                vec![
                    Column::from_i64(LogicalType::Int, data.clone()),
                    Column::from_i64(LogicalType::Int, data),
                ],
            )?;
            tbl.create_index(ColId::new(0))?;
            tbl.create_index(ColId::new(1))?;
            Ok(tbl)
        })
        .unwrap();
    }
    Arc::new(db)
}

fn chain_query(consts: &[i64]) -> Query {
    let mut qb = QueryBuilder::new();
    let rels: Vec<_> = (0..consts.len())
        .map(|i| qb.add_relation(TableId::from(i)))
        .collect();
    for (i, &r) in rels.iter().enumerate() {
        qb.add_predicate(Predicate::eq(r, ColId::new(0), consts[i]));
    }
    for w in rels.windows(2) {
        qb.add_join(
            ColRef::new(w[0], ColId::new(1)),
            ColRef::new(w[1], ColId::new(1)),
        );
    }
    qb.build()
}

#[test]
fn cold_misses_on_different_templates_pool_sample_runs() {
    let db = uniform_db(5, 50, 20);
    let mk_service = || {
        QueryService::from_database(
            db.clone(),
            &AnalyzeOpts::default(),
            SampleConfig {
                ratio: 0.5,
                ..Default::default()
            },
            ServiceConfig::default(),
        )
        .unwrap()
    };
    // The 4-chain reuses subtrees the 5-chain validated (same tables,
    // identical predicates on the shared prefix).
    let templates = [chain_query(&[0, 0, 0, 0, 1]), chain_query(&[0, 0, 0, 0])];

    // One service serving both templates...
    let shared = mk_service();
    for q in &templates {
        shared.submit(q).unwrap();
    }
    let together = shared.stats().sample_cache;

    // ...against a fresh service per template, each from a cold cache.
    let apart: usize = templates
        .iter()
        .map(|q| {
            let alone = mk_service();
            alone.submit(q).unwrap();
            alone.stats().sample_cache.executed
        })
        .sum();

    assert!(together.hits > 0, "{together:?}");
    assert!(
        together.executed < apart,
        "sharing must skip subtree executions: {} together vs {apart} apart",
        together.executed
    );
}

#[test]
fn invalid_queries_error_and_are_never_cached() {
    let service = service_with(&small_ott(), ServiceConfig::default());
    let engine = service.engine();
    let db = engine.db();
    // Disconnected join graph: relations 0 and 1 with no join edge.
    let mut qb = reopt_plan::QueryBuilder::new();
    let t0 = db.table_by_name("ott_lineitem").unwrap().id();
    let t1 = db.table_by_name("ott_orders").unwrap().id();
    qb.add_relation(t0);
    qb.add_relation(t1);
    let bad = qb.build();
    assert!(service.submit(&bad).is_err());
    assert!(service.submit(&bad).is_err());
    let stats = service.stats();
    assert_eq!(stats.errors, 2, "{stats:?}");
    assert_eq!(stats.cached_templates, 0, "{stats:?}");
    assert_eq!(stats.reopts_run, 0, "validation failures never plan");
}

#[test]
fn served_queries_execute_identically_at_every_thread_count() {
    use reopt_executor::ExecOpts;
    // One service per thread setting (the exec knob is service-wide);
    // the plan, join cardinality, and aggregate-free output must agree.
    let mk = |threads: usize| {
        service_with(
            &small_ott(),
            ServiceConfig {
                exec: ExecOpts::with_threads(threads),
                ..Default::default()
            },
        )
    };
    let serial_svc = mk(1);
    let q = ott_query(serial_svc.engine().db(), &[0, 0, 0, 0]).unwrap();
    let serial = serial_svc.execute(&q).unwrap();
    assert_eq!(serial.response.source, PlanSource::ColdMiss);
    // A second execute is a warm hit that still runs the plan.
    let warm = serial_svc.execute(&q).unwrap();
    assert_eq!(warm.response.source, PlanSource::WarmHit);
    assert_eq!(warm.output.join_rows, serial.output.join_rows);
    for threads in [2, 8] {
        let svc = mk(threads);
        let q = ott_query(svc.engine().db(), &[0, 0, 0, 0]).unwrap();
        let out = svc.execute(&q).unwrap();
        assert_eq!(out.output.join_rows, serial.output.join_rows, "{threads}");
        assert!(out
            .response
            .plan
            .same_structure(&serial.response.plan.clone()));
    }
}

#[test]
fn sessions_are_independent_handles() {
    let service = service_with(&small_ott(), ServiceConfig::default());
    let q = ott_query(service.engine().db(), &[0, 0]).unwrap();
    let mut a = service.session();
    let mut b = service.session();
    assert_ne!(a.id(), b.id());
    a.submit(&q).unwrap();
    a.submit(&q).unwrap();
    b.submit(&q).unwrap();
    assert_eq!(a.queries_submitted(), 2);
    assert_eq!(b.queries_submitted(), 1);
    assert_eq!(a.service().stats().submitted, 3);
}

/// Mid-query re-optimization behind the engine's `ReOptConfig::mid_query`:
/// the execute path suspends/replans/resumes, reports its counters, and
/// returns the same answer (and the same aggregates) as the
/// straight-through service.
#[test]
fn mid_query_execute_is_result_equivalent() {
    let config = small_ott();
    let straight = service_with(&config, ServiceConfig::default());
    let engine = ReoptEngine::from_database_with_configs(
        ott_db(&config),
        &AnalyzeOpts::default(),
        SampleConfig {
            ratio: recommended_sample_ratio(&config),
            ..Default::default()
        },
        OptimizerConfig::postgres_like(),
        ReOptConfig {
            mid_query: true,
            ..Default::default()
        },
    )
    .unwrap();
    let mid = QueryService::new(engine, ServiceConfig::default()).unwrap();
    for consts in [vec![0i64, 0, 0, 0, 0], vec![0, 0, 0, 1, 0]] {
        let qa = ott_query(straight.engine().db(), &consts).unwrap();
        let qb = ott_query(mid.engine().db(), &consts).unwrap();
        let a = straight.execute(&qa).unwrap();
        let b = mid.execute(&qb).unwrap();
        assert!(a.mid_query.is_none());
        let stats = b.mid_query.expect("mid-query counters must be reported");
        assert_eq!(a.output.join_rows, b.output.join_rows, "{consts:?}");
        assert_eq!(a.output.agg, b.output.agg, "{consts:?}");
        assert!(stats.suspensions > 0, "{consts:?}: 5-way join must suspend");
        // The default discrepancy gate replans only on genuine surprise —
        // observations that merely confirm the (already-repaired) plan's
        // estimates skip the optimizer.
        assert!(stats.replans <= stats.suspensions);
        assert!(stats.splices > 0, "{consts:?}: resume must splice");
    }
    // Warm hits keep working with the knob on (plan cache unaffected).
    let q = ott_query(mid.engine().db(), &[0, 0, 0, 0, 0]).unwrap();
    let again = mid.execute(&q).unwrap();
    assert_eq!(again.response.source, PlanSource::WarmHit);
    assert!(again.mid_query.is_some());
}
