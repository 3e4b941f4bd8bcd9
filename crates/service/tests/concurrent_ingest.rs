//! Queries racing ingest: every response must be explainable by one
//! committed `DataVersion`.
//!
//! The service publishes immutable snapshots (see `reopt_service::ingest`),
//! so a response's `(plan, validated cost, data version)` must be something
//! a *quiesced* service at a committed version would hand out:
//!
//! * the version is one the request overlapped;
//! * a plan computed by the request itself (`ColdMiss`, `Revalidated`)
//!   equals, bit for bit, what a quiesced twin of the service computes at
//!   exactly that version;
//! * a plan served from the cache (`WarmHit`, `Coalesced`) was computed at
//!   some version W ≤ the response's, with no sample refresh of any of the
//!   template's base tables in between — a warm hit can never carry a data
//!   version at or past a refresh of its tables without an intervening
//!   `Revalidated` / `ColdMiss`;
//! * `execute` ran the plan on the tables of the version it reports.
//!
//! The interleaving is forced with counters (each version is held open
//! until the readers were served under it), never with sleeps; reader
//! schedules come from fixed seeds.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use reopt_common::TableId;
use reopt_core::ReoptEngine;
use reopt_executor::reference;
use reopt_plan::query::ColRef;
use reopt_plan::{PhysicalPlan, Predicate, Query, QueryBuilder, QueryTemplate};
use reopt_sampling::{SampleConfig, SharedSampleRunCache};
use reopt_service::{IngestReport, PlanSource, QueryService, ServiceConfig, ServiceResponse};
use reopt_stats::AnalyzeOpts;
use reopt_storage::{Database, Value};
use reopt_telemetry::Tracer;
use reopt_workloads::ott::{
    build_ott_database, recommended_sample_ratio, OttConfig, COL_A, COL_B, OTT_TABLE_NAMES,
};

const ROWS_PER_VALUE: usize = 12;
const DISTINCT: [usize; 6] = [60, 50, 40, 30, 20, 10];

fn small_ott() -> OttConfig {
    OttConfig {
        rows_per_value: ROWS_PER_VALUE,
        distinct_values: DISTINCT,
        ..Default::default()
    }
}

fn fresh_service() -> QueryService {
    QueryService::from_database(
        Arc::new(build_ott_database(&small_ott()).unwrap()),
        &AnalyzeOpts::default(),
        SampleConfig {
            ratio: recommended_sample_ratio(&small_ott()),
            ..Default::default()
        },
        ServiceConfig::default(),
    )
    .unwrap()
}

/// A chain query over a run of OTT tables, `A = constant` on each.
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

/// One query instance per template (a template's cached plan is computed
/// for whichever instance led, so the oracle needs the instance fixed).
fn templates(db: &Database) -> Vec<Query> {
    [
        &[0usize, 1, 2, 3][..],
        &[1, 2, 3],
        &[2, 3, 4],
        &[0, 1],
        &[4, 5],
    ]
    .iter()
    .map(|tables| chain_query(db, tables, 0))
    .collect()
}

struct Batch {
    table: &'static str,
    rows: Vec<Vec<Value>>,
}

/// The write schedule: benign one-row-per-value batches, and storms that
/// quadruple a table onto one hot value (over the 0.25 drift threshold,
/// so they refresh that table's sample). Row counts are tracked so a
/// repeated storm still quadruples the table it hits.
fn script() -> Vec<Batch> {
    let mut rows: Vec<usize> = DISTINCT.iter().map(|d| d * ROWS_PER_VALUE).collect();
    let mut out = Vec::new();
    let benign = |out: &mut Vec<Batch>, rows: &mut Vec<usize>, t: usize| {
        let batch: Vec<Vec<Value>> = (0..DISTINCT[t] as i64)
            .map(|v| vec![Value::Int(v), Value::Int(v)])
            .collect();
        rows[t] += batch.len();
        out.push(Batch {
            table: OTT_TABLE_NAMES[t],
            rows: batch,
        });
    };
    let storm = |out: &mut Vec<Batch>, rows: &mut Vec<usize>, t: usize, hot: i64| {
        let n = 3 * rows[t];
        rows[t] += n;
        out.push(Batch {
            table: OTT_TABLE_NAMES[t],
            rows: (0..n)
                .map(|_| vec![Value::Int(hot), Value::Int(hot)])
                .collect(),
        });
    };
    benign(&mut out, &mut rows, 0);
    benign(&mut out, &mut rows, 1);
    storm(&mut out, &mut rows, 0, 0);
    benign(&mut out, &mut rows, 0);
    benign(&mut out, &mut rows, 2);
    storm(&mut out, &mut rows, 2, 1);
    benign(&mut out, &mut rows, 0);
    storm(&mut out, &mut rows, 0, 2);
    benign(&mut out, &mut rows, 3);
    benign(&mut out, &mut rows, 0);
    out
}

/// One reader observation.
struct Record {
    template: usize,
    source: PlanSource,
    plan: Arc<PhysicalPlan>,
    cost_bits: u64,
    version: u64,
    /// Versions committed before the request started / begun before it
    /// returned: the response's version must lie between them.
    committed_before: u64,
    started_after: u64,
    /// `Some` when the request was an `execute`.
    join_rows: Option<u64>,
}

impl Record {
    fn of(
        template: usize,
        response: ServiceResponse,
        (committed_before, started_after): (u64, u64),
        join_rows: Option<u64>,
    ) -> Record {
        Record {
            template,
            source: response.source,
            plan: response.plan,
            cost_bits: response.validated_cost.to_bits(),
            version: response.data_version.get(),
            committed_before,
            started_after,
            join_rows,
        }
    }

    fn computed(&self) -> bool {
        matches!(self.source, PlanSource::ColdMiss | PlanSource::Revalidated)
    }
}

/// xorshift64 — a fixed per-reader schedule without a rand dependency.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Readers (every other one executing) beside one ingest thread; returns every
/// observation plus the ingest reports in commit order.
fn race(
    service: &QueryService,
    queries: &[Query],
    script: &[Batch],
    readers: usize,
    reads_per_version: u64,
) -> (Vec<Record>, Vec<IngestReport>) {
    let started = AtomicU64::new(0);
    let committed = AtomicU64::new(0);
    let reads = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(readers + 1);
    // Hold the current version open until the readers completed
    // `reads_per_version` more requests under it.
    let serve_readers = || {
        let target = reads.load(Ordering::SeqCst) + reads_per_version;
        while reads.load(Ordering::SeqCst) < target {
            std::thread::yield_now();
        }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|id| {
                let (started, committed, reads, done, barrier) =
                    (&started, &committed, &reads, &done, &barrier);
                s.spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (id as u64 + 1);
                    let mut records = Vec::new();
                    barrier.wait();
                    while !done.load(Ordering::SeqCst) {
                        let template = (next(&mut rng) % queries.len() as u64) as usize;
                        let query = &queries[template];
                        let committed_before = committed.load(Ordering::SeqCst);
                        let (response, join_rows) = if id % 2 == 0 {
                            let executed = service.execute(query).unwrap();
                            (executed.response, Some(executed.output.join_rows))
                        } else {
                            (service.submit(query).unwrap(), None)
                        };
                        let started_after = started.load(Ordering::SeqCst);
                        let window = (committed_before, started_after);
                        records.push(Record::of(template, response, window, join_rows));
                        reads.fetch_add(1, Ordering::SeqCst);
                    }
                    records
                })
            })
            .collect();

        barrier.wait();
        let mut reports = Vec::new();
        for (i, batch) in script.iter().enumerate() {
            serve_readers();
            let version = i as u64 + 1;
            started.store(version, Ordering::SeqCst);
            let report = service.append_rows(batch.table, &batch.rows).unwrap();
            assert_eq!(report.data_version.get(), version);
            committed.store(version, Ordering::SeqCst);
            reports.push(report);
        }
        serve_readers();
        done.store(true, Ordering::SeqCst);
        let records = handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread"))
            .collect();
        (records, reports)
    })
}

/// The quiesced oracle: a twin service replays the schedule serially;
/// `engines[v]` is what a service built at committed version `v` plans
/// with.
fn quiesced_engines(script: &[Batch], live: &[IngestReport]) -> Vec<ReoptEngine> {
    let twin = fresh_service();
    let mut engines = vec![twin.engine()];
    for (batch, seen) in script.iter().zip(live) {
        let report = twin.append_rows(batch.table, &batch.rows).unwrap();
        // The writer path is deterministic: racing readers changed nothing
        // about what each ingest derived.
        assert_eq!(report.data_version, seen.data_version);
        assert_eq!(report.refreshed, seen.refreshed);
        assert_eq!(report.drifted_tables, seen.drifted_tables);
        assert_eq!(report.drift.to_bits(), seen.drift.to_bits());
        engines.push(twin.engine());
    }
    engines
}

#[test]
fn every_response_is_explained_by_one_committed_version() {
    let service = fresh_service();
    let queries = templates(&service.database());
    let base_tables: Vec<Vec<TableId>> = queries
        .iter()
        .map(|q| QueryTemplate::of(q).base_tables())
        .collect();
    let script = script();

    // Warm every template at version 0 so the race starts from cached
    // plans; the warm-up responses are observations like any other.
    let mut records: Vec<Record> = queries
        .iter()
        .enumerate()
        .map(|(template, q)| {
            let r = service.submit(q).unwrap();
            assert_eq!(r.source, PlanSource::ColdMiss);
            Record::of(template, r, (0, 0), None)
        })
        .collect();

    let (raced, reports) = race(&service, &queries, &script, 3, 12);
    records.extend(raced);
    let refreshes = reports.iter().filter(|r| r.refreshed).count();
    assert!(refreshes >= 3, "the storms must refresh: {refreshes}");

    let engines = quiesced_engines(&script, &reports);
    // Latest version ≤ `v` at which a refresh redrew a sample of one of
    // `template`'s base tables (0 = the initial draw).
    let last_refresh = |template: usize, v: u64| {
        reports
            .iter()
            .filter(|r| r.refreshed && r.data_version.get() <= v)
            .filter(|r| {
                r.drifted_tables
                    .iter()
                    .any(|t| base_tables[template].contains(t))
            })
            .map(|r| r.data_version.get())
            .max()
            .unwrap_or(0)
    };

    let computed: Vec<&Record> = records.iter().filter(|r| r.computed()).collect();
    let mut versions_seen = vec![false; engines.len()];
    let mut sources_seen = [false; 4];
    for r in &records {
        let tag = format!(
            "template {} {:?} at v{} (plan {:#x})",
            r.template,
            r.source,
            r.version,
            r.plan.fingerprint()
        );
        assert!(
            r.committed_before <= r.version && r.version <= r.started_after,
            "{tag}: version outside the request's window [{}, {}]",
            r.committed_before,
            r.started_after
        );
        versions_seen[r.version as usize] = true;
        sources_seen[r.source as usize] = true;
        let engine = &engines[r.version as usize];
        let query = &queries[r.template];
        match r.source {
            PlanSource::ColdMiss => {
                let report = engine.reoptimize(query).unwrap();
                assert_eq!(
                    report.final_plan.fingerprint(),
                    r.plan.fingerprint(),
                    "{tag}: plan"
                );
                assert_eq!(
                    report.final_validated_cost.to_bits(),
                    r.cost_bits,
                    "{tag}: cost"
                );
            }
            PlanSource::Revalidated => {
                let (cost, _) = engine
                    .revalidate_plan(
                        query,
                        &r.plan,
                        &SharedSampleRunCache::new(),
                        &Tracer::disabled(),
                    )
                    .unwrap();
                assert_eq!(cost.to_bits(), r.cost_bits, "{tag}: cost");
            }
            PlanSource::WarmHit | PlanSource::Coalesced => {
                let floor = last_refresh(r.template, r.version);
                let origin = computed.iter().find(|o| {
                    o.template == r.template
                        && o.plan.fingerprint() == r.plan.fingerprint()
                        && o.cost_bits == r.cost_bits
                        && (floor..=r.version).contains(&o.version)
                });
                assert!(
                    origin.is_some(),
                    "{tag}: no ColdMiss/Revalidated computed this (plan, cost) in \
                     [v{floor}, v{}] — served across a refresh of its tables",
                    r.version
                );
            }
        }
        if let Some(join_rows) = r.join_rows {
            let oracle = reference::join_rows(engine.db(), query, &r.plan).unwrap();
            assert_eq!(
                join_rows,
                oracle.len() as u64,
                "{tag}: executed on another version's tables"
            );
        }
    }
    assert!(
        versions_seen.iter().all(|&seen| seen),
        "a version was never served: {versions_seen:?}"
    );
    assert!(
        sources_seen[PlanSource::WarmHit as usize] && sources_seen[PlanSource::ColdMiss as usize],
        "the race must exercise the cache: {sources_seen:?}"
    );
    let count = |source| records.iter().filter(|r| r.source == source).count();
    println!(
        "{} responses over {} versions: {} cold, {} revalidated, {} warm, {} coalesced",
        records.len(),
        engines.len(),
        count(PlanSource::ColdMiss),
        count(PlanSource::Revalidated),
        count(PlanSource::WarmHit),
        count(PlanSource::Coalesced),
    );
    let relearned = records
        .iter()
        .filter(|r| r.computed() && r.version > 0)
        .count();
    assert!(relearned >= refreshes, "refreshes must re-learn plans");
}

#[test]
fn concurrent_writers_lose_no_rows_and_versions_strictly_increase() {
    const WRITERS: usize = 2;
    const BATCHES: usize = 6;
    const ROWS: usize = 40;
    let service = fresh_service();
    let before = service.database();
    let barrier = Barrier::new(WRITERS);
    let versions: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (service, barrier) = (&service, &barrier);
                s.spawn(move || {
                    // Both hit the same table: each batch must derive from
                    // the other writer's latest commit, never beside it.
                    let rows: Vec<Vec<Value>> = (0..ROWS as i64)
                        .map(|v| vec![Value::Int(v), Value::Int(w as i64)])
                        .collect();
                    barrier.wait();
                    (0..BATCHES)
                        .map(|_| {
                            let report = service.append_rows("ott_lineitem", &rows).unwrap();
                            assert_eq!(report.rows_appended, ROWS);
                            report.data_version.get()
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect()
    });

    for own in &versions {
        assert!(own.windows(2).all(|w| w[0] < w[1]), "{own:?}");
    }
    let mut all: Vec<u64> = versions.concat();
    all.sort_unstable();
    let expect: Vec<u64> = (1..=(WRITERS * BATCHES) as u64).collect();
    assert_eq!(all, expect, "two writers derived the same version");

    let after = service.database();
    assert_eq!(after.data_version().get(), (WRITERS * BATCHES) as u64);
    let table = after.table_by_name("ott_lineitem").unwrap();
    assert_eq!(
        table.row_count(),
        before.table_by_name("ott_lineitem").unwrap().row_count() + WRITERS * BATCHES * ROWS
    );
    // Every writer's rows are all there, not just the right total.
    let b = table.column(COL_B).unwrap();
    for w in 0..WRITERS as i64 {
        let landed = b.data()[DISTINCT[0] * ROWS_PER_VALUE..]
            .iter()
            .filter(|&&v| v == w)
            .count();
        assert_eq!(landed, BATCHES * ROWS, "writer {w} lost rows");
    }
    assert_eq!(
        service.telemetry_snapshot().counter("ingest.ops"),
        (WRITERS * BATCHES) as u64
    );
}
