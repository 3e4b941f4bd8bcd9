//! Quiescence equivalence: ingest that ends at the same data must be
//! invisible to the whole pipeline.
//!
//! Two scenarios, each compared against a fresh static database with
//! identical contents, with the engine at threads {1,4} checked against
//! the row-at-a-time reference:
//!
//! * **Zero-row ingest** — an empty append bumps the [`DataVersion`] but
//!   changes nothing else; incremental ANALYZE must reuse or tail-merge
//!   to bit-identical statistics, and every downstream artifact (plan
//!   fingerprints per round, estimates, validated costs, Γ, the chosen
//!   plan, the executed row sets) must be bit-identical.
//! * **Arbitrary appends** — a database grown in batches through the
//!   ingest API, re-ANALYZEd incrementally after every batch, must be
//!   indistinguishable from one bulk-loaded with the final contents.
//!
//! Version stamps themselves (`DataVersion`, `TableStats::as_of`, Γ's
//! observation stamps) are *expected* to differ — they record history,
//! not state. Everything derived from the data may not.

use std::sync::Arc;

use reopt_common::{ColId, RelSet, TableId};
use reopt_core::ReoptEngine;
use reopt_executor::{reference, ExecOpts, Executor};
use reopt_optimizer::CardOverrides;
use reopt_plan::query::ColRef;
use reopt_plan::{Predicate, Query, QueryBuilder};
use reopt_sampling::{SampleConfig, SampleStore};
use reopt_stats::{analyze_incremental, AnalyzeOpts, DatabaseStats};
use reopt_storage::{Column, ColumnDef, Database, LogicalType, Table, TableSchema, Value};

const TABLES: usize = 4;
const VALUES: i64 = 40;
const ROWS_PER_VALUE: usize = 8;

/// Column data for values `lo..hi`, each repeated `ROWS_PER_VALUE` times —
/// the layout both bulk load and append-growth must converge to.
fn column_data(lo: i64, hi: i64) -> Vec<i64> {
    let mut data = Vec::new();
    for v in lo..hi {
        data.extend(std::iter::repeat_n(v, ROWS_PER_VALUE));
    }
    data
}

/// A `TABLES`-chain OTT-style database holding values `0..hi` per table.
fn ott_db(hi: i64) -> Database {
    let mut db = Database::new();
    for t in 0..TABLES {
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("a", LogicalType::Int),
                ColumnDef::new("b", LogicalType::Int),
            ])?;
            let data = column_data(0, hi);
            let mut tbl = Table::new(
                id,
                format!("e{t}"),
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
    db
}

fn ott_query(consts: &[i64]) -> Query {
    let mut qb = QueryBuilder::new();
    let rels: Vec<_> = (0..TABLES)
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

/// Γ as comparable content: `(set, rows, exact)` in set order, stamps
/// stripped (they legitimately differ across histories).
fn gamma_entries(g: &CardOverrides) -> Vec<(RelSet, f64, bool)> {
    let mut v: Vec<_> = g.iter().map(|(s, r)| (s, r, g.is_exact(s))).collect();
    v.sort_by_key(|&(s, _, _)| s);
    v
}

fn engine_over(db: Arc<Database>, stats: DatabaseStats, threads: usize) -> ReoptEngine {
    let samples = Arc::new(SampleStore::build(&db, SampleConfig::default()).expect("sample build"));
    ReoptEngine::new(db, Arc::new(stats), samples).with_validation_threads(threads)
}

/// The whole-pipeline equivalence assertion: identical re-optimization
/// trajectory, identical Γ content, identical chosen plan, identical
/// executed rows.
fn assert_pipeline_equivalent(fresh: &ReoptEngine, grown: &ReoptEngine, q: &Query, threads: usize) {
    let label = format!("threads={threads}");
    let a = fresh.reoptimize(q).expect("fresh reopt");
    let b = grown.reoptimize(q).expect("grown reopt");
    assert_eq!(a.num_rounds(), b.num_rounds(), "{label}: rounds diverged");
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        let round = ra.round;
        assert_eq!(
            ra.plan.fingerprint(),
            rb.plan.fingerprint(),
            "{label}: round {round} plan fingerprint"
        );
        assert_eq!(ra.est_rows, rb.est_rows, "{label}: round {round} est_rows");
        assert_eq!(ra.est_cost, rb.est_cost, "{label}: round {round} est_cost");
        assert_eq!(
            ra.validated_cost, rb.validated_cost,
            "{label}: round {round} validated cost"
        );
        assert_eq!(
            ra.gamma_new_entries, rb.gamma_new_entries,
            "{label}: round {round} gamma growth"
        );
    }
    assert_eq!(a.converged, b.converged, "{label}: convergence");
    assert_eq!(
        a.final_plan.fingerprint(),
        b.final_plan.fingerprint(),
        "{label}: chosen plan"
    );
    assert_eq!(
        gamma_entries(&a.gamma),
        gamma_entries(&b.gamma),
        "{label}: final Γ content"
    );

    // Executed rows: the engine over either history equals the reference
    // over the fresh database, bit for bit.
    let oracle = reference::join_rows(fresh.db(), q, &a.final_plan).expect("reference rows");
    for (engine, plan) in [(fresh, &a.final_plan), (grown, &b.final_plan)] {
        let run = Executor::with_opts(engine.db(), ExecOpts::with_threads(threads))
            .run_pipeline(q, plan, None)
            .expect("engine exec");
        assert_eq!(run.rows.rels(), oracle.rels(), "{label}: executed rels");
        for &rel in oracle.rels() {
            assert_eq!(
                run.rows.rowids(rel).unwrap(),
                oracle.rowids(rel).unwrap(),
                "{label}: executed rows of {rel}"
            );
        }
    }
}

#[test]
fn zero_row_ingest_is_invisible_to_the_whole_pipeline() {
    let opts = AnalyzeOpts::default();
    let fresh_db = Arc::new(ott_db(VALUES));
    let fresh_stats = reopt_stats::analyze_database(&fresh_db, &opts).unwrap();

    // Same contents, but the version clock has moved: one empty append
    // per table, each re-ANALYZEd incrementally.
    let mut grown = Database::clone(&fresh_db);
    let mut grown_stats = fresh_stats.clone();
    for t in 0..TABLES {
        grown.append_rows(TableId::from(t), &[]).unwrap();
        let inc = analyze_incremental(&grown, &grown_stats, &opts).unwrap();
        assert_eq!(
            inc.tables_rescanned, 0,
            "zero-row ingest must never trigger a rescan"
        );
        grown_stats = inc.stats;
    }
    assert!(grown.data_version() > fresh_db.data_version());
    let grown_db = Arc::new(grown);

    let q = ott_query(&[0, 0, 0, 1]);
    for threads in [1usize, 4] {
        let fresh = engine_over(Arc::clone(&fresh_db), fresh_stats.clone(), threads);
        let grown = engine_over(Arc::clone(&grown_db), grown_stats.clone(), threads);
        assert_pipeline_equivalent(&fresh, &grown, &q, threads);
    }
}

#[test]
fn append_grown_database_matches_bulk_loaded_equivalent() {
    let opts = AnalyzeOpts::default();

    // Bulk-loaded reference with the final contents.
    let fresh_db = Arc::new(ott_db(VALUES));
    let fresh_stats = reopt_stats::analyze_database(&fresh_db, &opts).unwrap();

    // Grown copy: start at 25 of the 40 values, then append the rest in
    // uneven batches, incrementally re-ANALYZing after each batch.
    let mut grown = ott_db(25);
    let mut grown_stats = reopt_stats::analyze_database(&grown, &opts).unwrap();
    for (lo, hi) in [(25i64, 31i64), (31, 32), (32, 40)] {
        for t in 0..TABLES {
            let rows: Vec<Vec<Value>> = column_data(lo, hi)
                .into_iter()
                .map(|v| vec![Value::Int(v), Value::Int(v)])
                .collect();
            grown.append_rows(TableId::from(t), &rows).unwrap();
        }
        let inc = analyze_incremental(&grown, &grown_stats, &opts).unwrap();
        assert_eq!(inc.tables_merged, TABLES, "appends must tail-merge");
        assert_eq!(inc.tables_rescanned, 0, "appends must not rescan");
        grown_stats = inc.stats;
    }
    let grown_db = Arc::new(grown);
    for t in 0..TABLES {
        let id = TableId::from(t);
        assert_eq!(
            grown_db.table(id).unwrap().row_count(),
            fresh_db.table(id).unwrap().row_count(),
        );
    }

    let q = ott_query(&[0, 0, 0, 1]);
    for threads in [1usize, 4] {
        let fresh = engine_over(Arc::clone(&fresh_db), fresh_stats.clone(), threads);
        let grown = engine_over(Arc::clone(&grown_db), grown_stats.clone(), threads);
        assert_pipeline_equivalent(&fresh, &grown, &q, threads);
    }
}
