//! Property-based tests over the whole engine: randomized databases and
//! queries, with differential checking across plan shapes and the
//! re-optimization loop.

use proptest::prelude::*;

use reopt::common::{ColId, RelSet, TableId};
use reopt::core::ReoptEngine;
use reopt::executor::execute_plan;
use reopt::optimizer::{
    CardEstConfig, CardOverrides, CardinalityEstimator, OperatorSet, Optimizer, OptimizerConfig,
};
use reopt::plan::query::ColRef;
use reopt::plan::{Predicate, Query, QueryBuilder};
use reopt::sampling::SampleConfig;
use reopt::stats::{analyze_database, AnalyzeOpts};
use reopt::storage::{Column, ColumnDef, Database, LogicalType, Table, TableSchema};

/// A randomized table spec: row count, key domain, value correlation.
#[derive(Debug, Clone)]
struct TableSpec {
    rows: usize,
    domain: i64,
    correlated: bool,
}

fn table_spec() -> impl Strategy<Value = TableSpec> {
    (20usize..400, 2i64..50, any::<bool>()).prop_map(|(rows, domain, correlated)| TableSpec {
        rows,
        domain,
        correlated,
    })
}

/// A randomized chain query over 2–4 tables with optional eq predicates.
#[derive(Debug, Clone)]
struct QuerySpec {
    tables: Vec<TableSpec>,
    /// Per-relation optional equality constant on column a.
    filters: Vec<Option<i64>>,
}

fn query_spec() -> impl Strategy<Value = QuerySpec> {
    (2usize..=4)
        .prop_flat_map(|k| {
            (
                proptest::collection::vec(table_spec(), k),
                proptest::collection::vec(proptest::option::of(0i64..20), k),
            )
        })
        .prop_map(|(tables, filters)| QuerySpec { tables, filters })
}

fn build_db(spec: &QuerySpec, seed: u64) -> Database {
    use rand::RngExt;
    let mut db = Database::new();
    for (t, ts) in spec.tables.iter().enumerate() {
        let mut rng = reopt::common::rng::derive_rng_indexed(seed, "prop-table", t as u64);
        let a: Vec<i64> = (0..ts.rows)
            .map(|_| rng.random_range(0..ts.domain))
            .collect();
        let b: Vec<i64> = if ts.correlated {
            a.clone() // OTT-style perfect correlation
        } else {
            (0..ts.rows)
                .map(|_| rng.random_range(0..ts.domain))
                .collect()
        };
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("a", LogicalType::Int),
                ColumnDef::new("b", LogicalType::Int),
            ])?;
            let mut tbl = Table::new(
                id,
                format!("t{t}"),
                schema,
                vec![
                    Column::from_i64(LogicalType::Int, a.clone()),
                    Column::from_i64(LogicalType::Int, b.clone()),
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

fn build_query(spec: &QuerySpec) -> Query {
    let mut qb = QueryBuilder::new();
    let rels: Vec<_> = (0..spec.tables.len())
        .map(|i| qb.add_relation(TableId::from(i)))
        .collect();
    for (i, f) in spec.filters.iter().enumerate() {
        if let Some(c) = f {
            qb.add_predicate(Predicate::eq(rels[i], ColId::new(0), *c));
        }
    }
    for w in rels.windows(2) {
        qb.add_join(
            ColRef::new(w[0], ColId::new(1)),
            ColRef::new(w[1], ColId::new(1)),
        );
    }
    qb.build()
}

/// Reference join cardinality via a straightforward fold over hash maps.
fn reference_cardinality(db: &Database, spec: &QuerySpec) -> u64 {
    // Filtered b-column multiset of table 0.
    let filtered: Vec<Vec<i64>> = (0..spec.tables.len())
        .map(|t| {
            let table = db.table(TableId::from(t)).unwrap();
            let a = table.column(ColId::new(0)).unwrap().data();
            let b = table.column(ColId::new(1)).unwrap().data();
            a.iter()
                .zip(b)
                .filter(|(av, _)| spec.filters[t].is_none_or(|c| **av == c))
                .map(|(_, bv)| *bv)
                .collect()
        })
        .collect();
    // Chain join on b: count per key iteratively.
    let mut counts: std::collections::HashMap<i64, u64> = std::collections::HashMap::new();
    for &v in &filtered[0] {
        *counts.entry(v).or_insert(0) += 1;
    }
    for side in &filtered[1..] {
        let mut side_counts: std::collections::HashMap<i64, u64> = std::collections::HashMap::new();
        for &v in side {
            *side_counts.entry(v).or_insert(0) += 1;
        }
        counts = counts
            .into_iter()
            .filter_map(|(k, c)| side_counts.get(&k).map(|sc| (k, c * sc)))
            .collect();
    }
    counts.values().sum()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// The optimizer's chosen plan computes exactly the reference join
    /// cardinality, whatever the data distribution and filters.
    #[test]
    fn optimizer_plan_matches_reference(spec in query_spec(), seed in 0u64..1000) {
        let db = build_db(&spec, seed);
        let q = build_query(&spec);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let opt = Optimizer::new(&db, &stats);
        let planned = opt.optimize(&q).unwrap();
        let got = execute_plan(&db, &q, &planned.plan).unwrap().join_rows;
        let expected = reference_cardinality(&db, &spec);
        prop_assert_eq!(got, expected);
    }

    /// All operator subsets agree on the result.
    #[test]
    fn operator_choice_is_semantically_invisible(spec in query_spec(), seed in 0u64..1000) {
        let db = build_db(&spec, seed);
        let q = build_query(&spec);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let mut counts = Vec::new();
        for ops in [
            OperatorSet { hash: true, merge: false, nested_loop: false, index_nested: false, index_scan: false },
            OperatorSet { hash: false, merge: true, nested_loop: false, index_nested: false, index_scan: true },
            OperatorSet { hash: false, merge: false, nested_loop: true, index_nested: false, index_scan: false },
            OperatorSet { hash: false, merge: false, nested_loop: true, index_nested: true, index_scan: true },
        ] {
            let cfg = OptimizerConfig { operators: ops, ..OptimizerConfig::postgres_like() };
            let opt = Optimizer::with_config(&db, &stats, cfg);
            let planned = opt.optimize(&q).unwrap();
            counts.push(execute_plan(&db, &q, &planned.plan).unwrap().join_rows);
        }
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]), "{:?}", counts);
    }

    /// Re-optimization never changes the result, always terminates, and
    /// the final plan is cheapest under the final Γ (Theorem 5).
    #[test]
    fn reopt_loop_invariants(spec in query_spec(), seed in 0u64..1000) {
        let q = build_query(&spec);
        let re = ReoptEngine::from_database(
            std::sync::Arc::new(build_db(&spec, seed)),
            &AnalyzeOpts::default(),
            SampleConfig {
                ratio: 0.3, // small tables need a generous ratio
                ..Default::default()
            },
        ).unwrap();
        let db = re.db();
        let report = re.reoptimize(&q).unwrap();
        prop_assert!(report.converged);
        report.verify_theorem2().map_err(TestCaseError::fail)?;
        let orig = execute_plan(db, &q, &report.rounds[0].plan).unwrap().join_rows;
        let fin = execute_plan(db, &q, &report.final_plan).unwrap().join_rows;
        prop_assert_eq!(orig, fin);
        let (final_cost, per_round) = report.verify_final_optimality(&re.optimizer(), &q).unwrap();
        for c in per_round {
            prop_assert!(final_cost <= c * (1.0 + 1e-9));
        }
    }

    /// Γ overrides are respected verbatim by the estimator.
    #[test]
    fn estimator_honors_overrides(spec in query_spec(), seed in 0u64..1000, rows in 0.0f64..1e6) {
        let db = build_db(&spec, seed);
        let q = build_query(&spec);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let mut gamma = CardOverrides::new();
        let all = RelSet::first_n(q.num_relations());
        gamma.insert(all, rows);
        let mut est = CardinalityEstimator::new(&db, &stats, &q, &gamma, &CardEstConfig::default()).unwrap();
        prop_assert_eq!(est.rows(all), rows);
    }
}
