//! The surgical-refresh equivalence suite (ISSUE 10 acceptance): a
//! drift reaction that refreshes only the drifted tables must be
//! *bit-identical* — plans, validated costs, executed rows — to tearing
//! the whole service down and rebuilding it from the post-ingest data,
//! while everything the drift did not touch survives by pointer
//! identity (`Arc::ptr_eq`), not by recomputation.

use std::sync::Arc;

use reopt_executor::{reference, ExecOpts};
use reopt_plan::query::ColRef;
use reopt_plan::{Predicate, Query, QueryBuilder};
use reopt_sampling::SampleConfig;
use reopt_service::{DriftConfig, PlanSource, QueryService, ServiceConfig};
use reopt_stats::AnalyzeOpts;
use reopt_storage::{Database, Value};
use reopt_telemetry::Tracer;
use reopt_workloads::ott::{
    build_ott_database, ott_query, recommended_sample_ratio, OttConfig, COL_A, COL_B,
    OTT_TABLE_NAMES,
};

fn small_ott() -> OttConfig {
    OttConfig {
        rows_per_value: 12,
        distinct_values: [60, 50, 40, 30, 20, 10],
        ..Default::default()
    }
}

fn sample_config() -> SampleConfig {
    SampleConfig {
        ratio: recommended_sample_ratio(&small_ott()),
        ..Default::default()
    }
}

/// revalidate_ratio: None so a surgically-evicted template re-optimizes
/// in full — the equivalence below compares that full loop, not the
/// re-admission shortcut.
fn svc_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        exec: ExecOpts::with_threads(threads),
        drift: DriftConfig {
            revalidate_ratio: None,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn service_over(db: Arc<Database>, svc: ServiceConfig) -> Arc<QueryService> {
    Arc::new(
        QueryService::from_database(db, &AnalyzeOpts::default(), sample_config(), svc).unwrap(),
    )
}

/// A chain query over an arbitrary run of OTT tables (`ott_query` always
/// starts at table 0; the untouched-table templates must not).
fn chain_query(db: &Database, tables: &[usize], constant: i64) -> Query {
    let mut qb = QueryBuilder::new();
    let mut rels = Vec::new();
    for &t in tables {
        let rel = qb.add_relation(db.table_by_name(OTT_TABLE_NAMES[t]).unwrap().id());
        qb.add_predicate(Predicate::eq(rel, COL_A, constant));
        rels.push(rel);
    }
    for w in rels.windows(2) {
        qb.add_join(ColRef::new(w[0], COL_B), ColRef::new(w[1], COL_B));
    }
    qb.build()
}

/// The skew storm used throughout: quadruple `ott_lineitem` onto one hot
/// value, which crosses the default 0.25 drift threshold on its own.
fn storm(service: &QueryService) {
    let rows: Vec<Vec<Value>> = (0..3 * 60 * 12)
        .map(|_| vec![Value::Int(0), Value::Int(0)])
        .collect();
    let report = service.append_rows("ott_lineitem", &rows).unwrap();
    assert!(report.refreshed, "storm must trigger the surgical refresh");
}

/// After a surgical refresh, the service must serve exactly what a
/// from-scratch service over the post-ingest database serves: same plan
/// fingerprints, bit-equal validated costs, same executed rows — at
/// threads {1,4}, with the executed rows checked against the row-at-a-time
/// reference.
#[test]
fn surgical_refresh_is_bit_identical_to_a_full_rebuild() {
    for threads in [1usize, 4] {
        let surgical = service_over(
            Arc::new(build_ott_database(&small_ott()).unwrap()),
            svc_config(threads),
        );
        let touched = ott_query(surgical.engine().db(), &[0, 0, 0, 0]).unwrap();
        let untouched = chain_query(surgical.engine().db(), &[1, 2, 3], 0);
        surgical.execute(&touched).unwrap();
        surgical.execute(&untouched).unwrap();

        storm(&surgical);

        let s_touched = surgical.execute(&touched).unwrap();
        let s_untouched = surgical.execute(&untouched).unwrap();
        assert_eq!(
            s_touched.response.source,
            PlanSource::ColdMiss,
            "drifted template re-optimizes ({threads} threads)"
        );
        assert_eq!(
            s_untouched.response.source,
            PlanSource::WarmHit,
            "untouched template keeps serving warm"
        );

        // The from-scratch control: fresh ANALYZE, fresh samples, empty
        // caches — over the identical post-ingest database.
        let rebuilt = service_over(Arc::clone(surgical.engine().db()), svc_config(threads));
        let r_touched = rebuilt.execute(&touched).unwrap();
        let r_untouched = rebuilt.execute(&untouched).unwrap();

        for (label, q, s, r) in [
            ("touched", &touched, &s_touched, &r_touched),
            ("untouched", &untouched, &s_untouched, &r_untouched),
        ] {
            let tag = format!("{label} ({threads} threads)");
            assert_eq!(
                s.response.plan.fingerprint(),
                r.response.plan.fingerprint(),
                "plan diverged: {tag}"
            );
            assert_eq!(
                s.response.validated_cost.to_bits(),
                r.response.validated_cost.to_bits(),
                "validated cost diverged ({} vs {}): {tag}",
                s.response.validated_cost,
                r.response.validated_cost
            );
            assert_eq!(
                s.output.join_rows, r.output.join_rows,
                "executed rows diverged: {tag}"
            );
            assert_eq!(s.output.agg, r.output.agg, "aggregates diverged: {tag}");
            let oracle = reference::join_rows(surgical.engine().db(), q, &s.response.plan).unwrap();
            assert_eq!(
                s.output.join_rows,
                oracle.len() as u64,
                "engine diverged from the reference: {tag}"
            );
        }
    }
}

/// The proportionality claim, checked by pointer: everything a
/// single-table storm did not touch — the other five tables' samples, the
/// untouched template's cached plan, the disjoint dry-run row sets —
/// survives the refresh as the *same allocation*, not an equal rebuild.
#[test]
fn untouched_state_survives_a_surgical_refresh_by_pointer() {
    let service = service_over(
        Arc::new(build_ott_database(&small_ott()).unwrap()),
        svc_config(1),
    );
    let db = Arc::clone(service.engine().db());
    let touched = ott_query(&db, &[0, 0]).unwrap();
    let untouched = chain_query(&db, &[2, 3, 4], 0);
    service.submit(&touched).unwrap();
    let warm_plan = service.submit(&untouched).unwrap().plan;

    let before: Vec<_> = (0..6)
        .map(|t| {
            let engine = service.engine();
            let samples = engine.samples().database();
            samples.table_arc(db.table_by_name(OTT_TABLE_NAMES[t]).unwrap().id())
        })
        .collect::<Result<_, _>>()
        .unwrap();
    let entries_before = service.sample_cache().stats().entries;
    assert!(entries_before > 0, "dry runs populated the shared cache");

    storm(&service);

    // Samples: only the stormed table was redrawn.
    for (t, old) in before.iter().enumerate() {
        let engine = service.engine();
        let samples = engine.samples().database();
        let new = samples
            .table_arc(db.table_by_name(OTT_TABLE_NAMES[t]).unwrap().id())
            .unwrap();
        if t == 0 {
            assert!(
                !Arc::ptr_eq(old, &new),
                "the drifted table's sample must be redrawn"
            );
        } else {
            assert!(
                Arc::ptr_eq(old, &new),
                "untouched sample {} was rebuilt instead of reused",
                OTT_TABLE_NAMES[t]
            );
        }
    }

    // Plans: the untouched template still serves the identical Arc; the
    // touched one was surgically marked.
    let still_warm = service.submit(&untouched).unwrap();
    assert_eq!(still_warm.source, PlanSource::WarmHit);
    assert!(
        Arc::ptr_eq(&still_warm.plan, &warm_plan),
        "untouched cached plan must survive as the same allocation"
    );
    assert_eq!(
        service.submit(&touched).unwrap().source,
        PlanSource::ColdMiss
    );
    let stats = service.stats();
    assert_eq!(stats.table_evictions, 1, "{stats:?}");

    // Dry-run row sets disjoint from the storm stay current instead of
    // being dropped with it.
    let entries_after = service.sample_cache().stats().entries;
    assert!(
        entries_after > 0,
        "disjoint sample-cache entries must survive the refresh"
    );
    assert!(entries_after <= entries_before);
}

/// The surgical reaction's claim relative to the indiscriminate flush it
/// replaced: after the same one-table storm it keeps strictly more
/// templates warm.
#[test]
fn surgical_refresh_keeps_more_templates_warm_than_a_full_flush() {
    let warm_after = |full_flush: bool| {
        let service = service_over(
            Arc::new(build_ott_database(&small_ott()).unwrap()),
            svc_config(1),
        );
        let db = Arc::clone(service.engine().db());
        let templates = [
            ott_query(&db, &[0, 0]).unwrap(),
            chain_query(&db, &[1, 2], 0),
            chain_query(&db, &[2, 3, 4], 0),
        ];
        for q in &templates {
            service.submit(q).unwrap();
        }
        storm(&service);
        if full_flush {
            service.refresh_full().unwrap();
        }
        templates
            .iter()
            .filter(|q| service.submit(q).unwrap().source == PlanSource::WarmHit)
            .count()
    };
    let (surgical, full) = (warm_after(false), warm_after(true));
    assert!(
        surgical > full,
        "surgical kept {surgical} templates warm, the full flush {full}"
    );
}

/// A session admitted before a full refresh keeps dry-running over its own
/// snapshot's samples through the shared cache after the refresh. Those
/// rows must never answer a lookup issued against the redrawn samples:
/// the service then serves exactly what a fresh service over the same
/// data serves.
#[test]
fn a_session_admitted_before_a_full_refresh_cannot_poison_it() {
    let service = service_over(
        Arc::new(build_ott_database(&small_ott()).unwrap()),
        svc_config(1),
    );
    // Under the threshold: ott_partsupp's sample now lags its data.
    let rows: Vec<Vec<Value>> = (0..12)
        .map(|_| vec![Value::Int(0), Value::Int(0)])
        .collect();
    let report = service.append_rows("ott_partsupp", &rows).unwrap();
    assert!(!report.refreshed);
    storm(&service);

    let in_flight = service.engine();
    service.refresh_full().unwrap();
    let q = chain_query(service.engine().db(), &[1, 2, 3], 0);
    in_flight
        .reoptimize_with(&q, service.sample_cache(), &Tracer::disabled())
        .unwrap();

    let served = service.submit(&q).unwrap();
    let twin = service_over(Arc::clone(service.engine().db()), svc_config(1));
    let control = twin.submit(&q).unwrap();
    assert_eq!(
        served.plan.fingerprint(),
        control.plan.fingerprint(),
        "plan diverged from a fresh service"
    );
    assert_eq!(
        served.validated_cost.to_bits(),
        control.validated_cost.to_bits(),
        "validated cost diverged ({} vs {})",
        served.validated_cost,
        control.validated_cost
    );
}
