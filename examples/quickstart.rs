//! Quickstart: build a small database, ask the optimizer for a plan, let
//! sampling-based re-optimization second-guess it, and execute the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use reopt::core::ReoptEngine;
use reopt::executor::ExecOpts;
use reopt::plan::query::{AggExpr, AggSpec, ColRef};
use reopt::plan::{Predicate, QueryBuilder};
use reopt::sampling::SampleConfig;
use reopt::stats::AnalyzeOpts;
use reopt::storage::{Column, ColumnDef, Database, LogicalType, Table, TableSchema};
use reopt_common::ColId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A database: `users(id, city)` and `clicks(user_id, kind)`,
    // where city and kind are *correlated* through the user id — the
    // situation histogram estimators silently get wrong.
    let mut db = Database::new();
    let n_users = 10_000i64;
    db.add_table_with(|id| {
        let schema = TableSchema::new(vec![
            ColumnDef::new("id", LogicalType::Int),
            ColumnDef::new("city", LogicalType::Int),
        ])?;
        let mut t = Table::new(
            id,
            "users",
            schema,
            vec![
                Column::from_i64(LogicalType::Int, (0..n_users).collect()),
                Column::from_i64(LogicalType::Int, (0..n_users).map(|i| i % 50).collect()),
            ],
        )?;
        t.create_index(ColId::new(0))?;
        t.create_index(ColId::new(1))?;
        Ok(t)
    })?;
    db.add_table_with(|id| {
        let schema = TableSchema::new(vec![
            ColumnDef::new("user_id", LogicalType::Int),
            ColumnDef::new("kind", LogicalType::Int),
        ])?;
        let rows = 80_000i64;
        let mut t = Table::new(
            id,
            "clicks",
            schema,
            vec![
                Column::from_i64(LogicalType::Int, (0..rows).map(|i| i % n_users).collect()),
                // kind correlates with the user's city (both derive from id).
                Column::from_i64(
                    LogicalType::Int,
                    (0..rows).map(|i| (i % n_users) % 50).collect(),
                ),
            ],
        )?;
        t.create_index(ColId::new(0))?;
        Ok(t)
    })?;

    // --- 2. ANALYZE + offline samples (the paper uses a 5% ratio), owned
    // by the engine that runs the re-optimization loop.
    let engine = ReoptEngine::from_database(
        Arc::new(db),
        &AnalyzeOpts::default(),
        SampleConfig::default(),
    )?;
    let db = engine.db();

    // --- 3. A query: count clicks of kind 7 by users of city 7.
    // (City 7 users produce *only* kind-7 clicks; AVI assumes independence.)
    let mut qb = QueryBuilder::new();
    let u = qb.add_relation(db.table_id("users")?);
    let c = qb.add_relation(db.table_id("clicks")?);
    qb.add_predicate(Predicate::eq(u, ColId::new(1), 7i64));
    qb.add_predicate(Predicate::eq(c, ColId::new(1), 7i64));
    qb.add_join(ColRef::new(u, ColId::new(0)), ColRef::new(c, ColId::new(0)));
    qb.aggregate(AggSpec {
        group_by: vec![],
        aggs: vec![AggExpr::count_star()],
    });
    let query = qb.build();

    // --- 4. One-shot optimization vs the re-optimization loop, which
    // then executes its final plan.
    let original = engine.optimizer().optimize(&query)?;
    println!(
        "original plan (histogram estimates):\n{}",
        original.plan.explain()
    );

    let executed = engine.execute(&query, ExecOpts::default())?;
    let report = &executed.report;
    println!(
        "re-optimization: {} round(s), {} distinct plan(s), converged = {}, loop time = {:?}",
        report.num_rounds(),
        report.num_distinct_plans(),
        report.converged,
        report.reopt_time
    );
    println!(
        "final plan (sampling-validated estimates):\n{}",
        report.final_plan.explain()
    );

    // --- 5. The final plan's result.
    println!("join rows: {}", executed.run.join_rows());
    if let Some(agg) = &executed.run.agg {
        for row in &agg.rows {
            println!("COUNT(*) = {}", row.aggs[0]);
        }
    }
    Ok(())
}
