//! The drifting-workload suite: cached plans must survive benign ingest
//! and die — automatically, from *measured* drift — when the data moves
//! underneath them. Eviction is the drift monitor's job: no test here
//! refreshes by hand except to show what manual mode waits for.

use std::sync::Arc;

use reopt_sampling::SampleConfig;
use reopt_service::{DriftConfig, PlanSource, QueryService, ServiceConfig};
use reopt_stats::AnalyzeOpts;
use reopt_storage::Value;
use reopt_telemetry::names;
use reopt_workloads::ott::{build_ott_database, ott_query, recommended_sample_ratio, OttConfig};

fn small_ott() -> OttConfig {
    OttConfig {
        rows_per_value: 12,
        distinct_values: [60, 50, 40, 30, 20, 10],
        ..Default::default()
    }
}

fn service_with(svc: ServiceConfig) -> Arc<QueryService> {
    let config = small_ott();
    Arc::new(
        QueryService::from_database(
            Arc::new(build_ott_database(&config).unwrap()),
            &AnalyzeOpts::default(),
            SampleConfig {
                ratio: recommended_sample_ratio(&config),
                ..Default::default()
            },
            svc,
        )
        .unwrap(),
    )
}

/// `n` rows of `(v, v)` — OTT-shaped, so appends stay join-compatible.
fn rows_of(v: i64, n: usize) -> Vec<Vec<Value>> {
    (0..n).map(|_| vec![Value::Int(v), Value::Int(v)]).collect()
}

/// A small batch that follows the existing uniform distribution: one row
/// per live value. Nudges row counts without moving the shape much.
fn uniform_batch(values: i64) -> Vec<Vec<Value>> {
    (0..values)
        .map(|v| vec![Value::Int(v), Value::Int(v)])
        .collect()
}

#[test]
fn under_threshold_ingest_keeps_cached_plans() {
    let service = service_with(ServiceConfig::default());
    let q = {
        let engine = service.engine();
        ott_query(engine.db(), &[0, 0, 0, 1]).unwrap()
    };
    assert_eq!(service.submit(&q).unwrap().source, PlanSource::ColdMiss);
    assert_eq!(service.submit(&q).unwrap().source, PlanSource::WarmHit);

    let before = service.engine().data_version();
    let report = service
        .append_rows("ott_lineitem", &uniform_batch(60))
        .unwrap();
    assert_eq!(report.rows_appended, 60);
    assert!(!report.refreshed, "benign ingest must not refresh");
    assert!(
        report.drift < 0.25,
        "uniform one-per-value batch read as drift {}",
        report.drift
    );
    assert!(report.drift > 0.0, "row counts did move");
    assert!(report.data_version > before);

    // The new rows are live (the served database grew) …
    let engine = service.engine();
    let table = engine.db().table_by_name("ott_lineitem").unwrap();
    assert_eq!(table.row_count(), 60 * 12 + 60);
    // … and the cached plan kept serving: no eviction of any kind.
    assert_eq!(service.submit(&q).unwrap().source, PlanSource::WarmHit);
    let stats = service.stats();
    assert_eq!(stats.table_evictions, 0);
    assert_eq!(stats.reopts_run, 1);
}

#[test]
fn measured_drift_auto_evicts_stale_plans() {
    // revalidate_ratio: None pins the surgical path to a full
    // re-optimization on the next touch (the re-validation tiers get
    // their own tests below).
    let service = service_with(ServiceConfig {
        drift: DriftConfig {
            revalidate_ratio: None,
            ..Default::default()
        },
        ..Default::default()
    });
    let q = {
        let engine = service.engine();
        ott_query(engine.db(), &[0, 0, 0, 1]).unwrap()
    };
    let cold = service.submit(&q).unwrap();
    assert_eq!(cold.source, PlanSource::ColdMiss);
    assert_eq!(service.submit(&q).unwrap().source, PlanSource::WarmHit);

    // Skew storm: quadruple ott_lineitem with a single hot value. The MCV
    // mass collapses onto 0, so total-variation distance alone crosses the
    // threshold — nobody refreshes by hand.
    let report = service
        .append_rows("ott_lineitem", &rows_of(0, 3 * 60 * 12))
        .unwrap();
    assert!(
        report.drift >= 0.25,
        "skew storm only measured drift {}",
        report.drift
    );
    assert!(report.refreshed, "over-threshold drift must refresh");
    assert_eq!(
        report.drifted_tables,
        vec![service.engine().db().table_id("ott_lineitem").unwrap()],
        "exactly the stormed table drifted"
    );

    // The stale plan is marked on the surgical eviction and re-optimized
    // against the post-drift samples on its next touch.
    let redo = service.submit(&q).unwrap();
    assert_eq!(
        redo.source,
        PlanSource::ColdMiss,
        "stale plan must not keep serving after measured drift"
    );
    let stats = service.stats();
    assert!(stats.table_evictions >= 1, "{stats:?}");
    assert_eq!(stats.reopts_run, 2, "{stats:?}");

    // Post-refresh, the template is warm again.
    assert_eq!(service.submit(&q).unwrap().source, PlanSource::WarmHit);
}

#[test]
fn revalidation_readmits_a_plan_within_the_band() {
    // An enormous acceptance band: whatever the re-validated cost is, the
    // stale plan is re-admitted after one dry run — no re-optimization.
    let service = service_with(ServiceConfig {
        drift: DriftConfig {
            revalidate_ratio: Some(1e18),
            ..Default::default()
        },
        ..Default::default()
    });
    let q = {
        let engine = service.engine();
        ott_query(engine.db(), &[0, 0, 0, 1]).unwrap()
    };
    assert_eq!(service.submit(&q).unwrap().source, PlanSource::ColdMiss);

    service
        .append_rows("ott_lineitem", &rows_of(0, 3 * 60 * 12))
        .unwrap();

    let redo = service.submit(&q).unwrap();
    assert_eq!(
        redo.source,
        PlanSource::Revalidated,
        "{:?}",
        service.stats()
    );
    let stats = service.stats();
    assert_eq!(
        stats.reopts_run, 1,
        "re-admission skips the loop: {stats:?}"
    );
    assert_eq!(stats.revalidations, 1, "{stats:?}");
    assert_eq!(stats.revalidations_saved, 1, "{stats:?}");
    // The re-admitted plan serves warm from here on.
    assert_eq!(service.submit(&q).unwrap().source, PlanSource::WarmHit);
}

#[test]
fn every_submission_ends_in_exactly_one_outcome() {
    // A warm hit, a cold miss, a saved re-validation and an invalid-query
    // error: each is counted once, and a saved re-validation is its own
    // term of the admission identity.
    let service = service_with(ServiceConfig {
        drift: DriftConfig {
            revalidate_ratio: Some(1e18),
            ..Default::default()
        },
        ..Default::default()
    });
    let (q, bad) = {
        let engine = service.engine();
        let db = engine.db();
        // Disconnected join graph: two relations and no join edge.
        let mut qb = reopt_plan::QueryBuilder::new();
        qb.add_relation(db.table_by_name("ott_lineitem").unwrap().id());
        qb.add_relation(db.table_by_name("ott_orders").unwrap().id());
        (ott_query(db, &[0, 0, 0, 1]).unwrap(), qb.build())
    };
    assert_eq!(service.submit(&q).unwrap().source, PlanSource::ColdMiss);
    assert_eq!(service.submit(&q).unwrap().source, PlanSource::WarmHit);
    service
        .append_rows("ott_lineitem", &rows_of(0, 3 * 60 * 12))
        .unwrap();
    assert_eq!(service.submit(&q).unwrap().source, PlanSource::Revalidated);
    assert!(service.submit(&bad).is_err());

    let s = service.stats();
    assert_eq!(
        (
            s.warm_hits,
            s.cold_misses,
            s.coalesced,
            s.revalidations_saved,
            s.errors
        ),
        (1, 1, 0, 1, 1),
        "{s:?}"
    );
    assert_eq!(s.submitted, 4, "{s:?}");
    assert_eq!(
        s.submitted,
        s.warm_hits + s.cold_misses + s.coalesced + s.revalidations_saved + s.errors
    );
    // The snapshot is the other view of the same registry.
    let snap = service.telemetry_snapshot();
    for (key, value) in [
        (names::SERVICE_SUBMITTED, s.submitted),
        (names::SERVICE_WARM_HITS, s.warm_hits),
        (names::SERVICE_COLD_MISSES, s.cold_misses),
        (names::PLAN_CACHE_REVALIDATIONS_SAVED, s.revalidations_saved),
        (names::PLAN_CACHE_TABLE_EVICTIONS, s.table_evictions),
        (names::SERVICE_ERRORS, s.errors),
    ] {
        assert_eq!(snap.counter(key), value, "{key}");
    }
}

#[test]
fn revalidation_rejects_an_out_of_band_cost() {
    // ratio 1.0 accepts only a bit-identical cost; the skew storm moves
    // the validated cost, so the re-validation runs — and then rejects.
    let service = service_with(ServiceConfig {
        drift: DriftConfig {
            revalidate_ratio: Some(1.0),
            ..Default::default()
        },
        ..Default::default()
    });
    let q = {
        let engine = service.engine();
        ott_query(engine.db(), &[0, 0, 0, 1]).unwrap()
    };
    assert_eq!(service.submit(&q).unwrap().source, PlanSource::ColdMiss);

    service
        .append_rows("ott_lineitem", &rows_of(0, 3 * 60 * 12))
        .unwrap();

    let redo = service.submit(&q).unwrap();
    assert_eq!(redo.source, PlanSource::ColdMiss, "{:?}", service.stats());
    let stats = service.stats();
    assert_eq!(stats.revalidations, 1, "the tier ran: {stats:?}");
    assert_eq!(stats.revalidations_saved, 0, "… and rejected: {stats:?}");
    assert_eq!(stats.reopts_run, 2, "{stats:?}");
}

#[test]
fn zero_row_ingest_is_a_quiescent_no_op() {
    let service = service_with(ServiceConfig::default());
    let q = {
        let engine = service.engine();
        ott_query(engine.db(), &[0, 0, 0, 1]).unwrap()
    };
    let cold = service.submit(&q).unwrap();

    let report = service.append_rows("ott_lineitem", &[]).unwrap();
    assert_eq!(report.rows_appended, 0);
    assert_eq!(report.drift, 0.0, "nothing changed, nothing drifted");
    assert!(!report.refreshed);
    // The touched table tail-merges an empty range; the other five are
    // reused verbatim; nobody rescans.
    assert_eq!(report.tables_merged, 1);
    assert_eq!(report.tables_reused, 5);
    assert_eq!(report.tables_rescanned, 0);

    let warm = service.submit(&q).unwrap();
    assert_eq!(warm.source, PlanSource::WarmHit);
    assert_eq!(warm.plan.fingerprint(), cold.plan.fingerprint());
    assert_eq!(service.stats().table_evictions, 0);
}

#[test]
fn ttl_expiry_deletes_and_rescans() {
    let service = service_with(ServiceConfig::default());
    let before = {
        let engine = service.engine();
        engine
            .db()
            .table_by_name("ott_lineitem")
            .unwrap()
            .row_count()
    };

    // Expire the low half of the value domain out of ott_lineitem.
    let report = service.expire_older_than("ott_lineitem", "a", 30).unwrap();
    assert_eq!(report.rows_appended, 0);
    assert_eq!(report.rows_deleted, 30 * 12);
    // An in-place rewrite invalidates the append-only history: the table
    // must be fully re-scanned, not tail-merged.
    assert_eq!(report.tables_rescanned, 1);
    assert!(report.drift > 0.0);

    let engine = service.engine();
    let table = engine.db().table_by_name("ott_lineitem").unwrap();
    assert_eq!(table.row_count(), before - 30 * 12);
    // Every surviving `a` value is ≥ the cutoff.
    let col = table.column_by_name("a").unwrap();
    assert!(col.data().iter().all(|&v| v >= 30));
}

#[test]
fn auto_refresh_off_reports_drift_without_evicting() {
    let service = service_with(ServiceConfig {
        drift: DriftConfig {
            threshold: 0.25,
            auto_refresh: false,
            ..Default::default()
        },
        ..Default::default()
    });
    let q = {
        let engine = service.engine();
        ott_query(engine.db(), &[0, 0, 0, 1]).unwrap()
    };
    service.submit(&q).unwrap();

    let report = service
        .append_rows("ott_lineitem", &rows_of(0, 3 * 60 * 12))
        .unwrap();
    assert!(report.drift >= 0.25);
    assert!(!report.refreshed, "auto_refresh=false only observes");
    assert!(
        !report.drifted_tables.is_empty(),
        "observation mode still names the drifted tables"
    );
    // Manual mode: the stale plan keeps serving until an operator acts…
    assert_eq!(service.submit(&q).unwrap().source, PlanSource::WarmHit);
    assert_eq!(service.stats().table_evictions, 0);
    // …and a full refresh is that act: the plan re-validates.
    service.refresh_full().unwrap();
    assert_ne!(service.submit(&q).unwrap().source, PlanSource::WarmHit);
    assert_eq!(service.stats().table_evictions, 1);
}

#[test]
fn ingest_emits_spans_and_counters() {
    let service = service_with(ServiceConfig {
        trace: Some(true),
        ..Default::default()
    });

    // Benign ingest: root + analyze + drift spans, no refresh span.
    let benign = service
        .append_rows("ott_lineitem", &uniform_batch(60))
        .unwrap();
    assert!(benign.drifted_tables.is_empty());
    let trace = benign.trace.as_ref().expect("tracing is on");
    let root = trace.find(names::SERVICE_INGEST).expect("ingest root span");
    assert_eq!(root.attr_u64("rows_appended"), Some(60));
    let analyze = trace.find(names::INGEST_ANALYZE).expect("analyze span");
    assert_eq!(analyze.parent, root.id);
    assert_eq!(analyze.attr_u64("merged"), Some(1));
    let drift = trace.find(names::INGEST_DRIFT).expect("drift span");
    assert_eq!(drift.parent, root.id);
    assert_eq!(trace.count(names::INGEST_REFRESH), 0);

    // Drift storm: the refresh span appears, parented under the root.
    let storm = service
        .append_rows("ott_lineitem", &rows_of(0, 3 * 60 * 12))
        .unwrap();
    assert_eq!(storm.drifted_tables.len(), 1);
    let trace = storm.trace.as_ref().expect("tracing is on");
    let root = trace.find(names::SERVICE_INGEST).unwrap();
    let refresh = trace.find(names::INGEST_REFRESH).expect("refresh span");
    assert_eq!(refresh.parent, root.id);
    assert_eq!(refresh.attr_u64("tables_refreshed"), Some(1));

    // The unified registry saw all of it.
    let snap = service.telemetry_snapshot();
    assert_eq!(snap.counter("ingest.ops"), 2);
    assert_eq!(snap.counter("ingest.rows_appended"), 60 + 3 * 60 * 12);
    assert_eq!(snap.counter("ingest.refreshes"), 1);
    assert_eq!(snap.counter("ingest.tables_refreshed"), 1);
    assert!(snap.gauge("ingest.drift").unwrap() >= 0.25);
    assert!(snap.gauge("service.data_version").unwrap() >= 2.0);
}

#[test]
fn drift_config_validation_rejects_silent_misconfigurations() {
    let bad = [
        DriftConfig {
            threshold: f64::NAN,
            ..Default::default()
        },
        DriftConfig {
            threshold: -0.1,
            ..Default::default()
        },
        DriftConfig {
            revalidate_ratio: Some(f64::NAN),
            ..Default::default()
        },
        DriftConfig {
            revalidate_ratio: Some(0.5),
            ..Default::default()
        },
    ];
    for drift in bad {
        let err = drift.validate().expect_err(&format!("{drift:?}"));
        let msg = err.to_string();
        assert!(
            msg.contains("threshold") || msg.contains("revalidate_ratio"),
            "unhelpful diagnostic: {msg}"
        );

        // Service construction rejects the config up front — a NaN
        // threshold used to silently disable auto-refresh instead.
        let config = small_ott();
        let res = QueryService::from_database(
            Arc::new(build_ott_database(&config).unwrap()),
            &AnalyzeOpts::default(),
            SampleConfig::default(),
            ServiceConfig {
                drift: drift.clone(),
                ..Default::default()
            },
        );
        assert!(res.is_err(), "{drift:?} must not construct a service");
    }

    // Boundary values are legal: refresh-every-ingest and exact-match-only.
    DriftConfig {
        threshold: 0.0,
        revalidate_ratio: Some(1.0),
        ..Default::default()
    }
    .validate()
    .unwrap();
    DriftConfig {
        revalidate_ratio: None,
        ..Default::default()
    }
    .validate()
    .unwrap();
}
