//! The paper's contribution: **sampling-based query re-optimization**
//! (Algorithm 1 of Wu, Naughton & Singh, SIGMOD 2016).
//!
//! [`ReoptEngine`] is the one front door. It owns a database, its
//! statistics and a [`SampleStore`](reopt_sampling::SampleStore), and its
//! Algorithm 1 loop (in [`reopt`]) repeatedly asks the optimizer for a
//! plan, dry-runs the plan's join subtrees over the samples, feeds the
//! validated cardinalities (Γ) back, and stops when the plan no longer
//! changes. [`report::ReoptReport`] captures the full trace — enough to
//! regenerate every re-optimization figure of the paper and to
//! machine-check Theorems 1, 2, 5 and 6 on real runs.
//!
//! A chosen plan reaches rows through one function in [`midquery`], the
//! only reader of [`ReOptConfig::mid_query`]: straight through, or under
//! the suspend → replan → resume loop. [`ReoptEngine::execute`] seeds it
//! with the sampling loop's Γ and DP memo; [`ReoptEngine::execute_plan`]
//! (the serving layer's path for admitted plans) with empty ones.

pub mod engine;
pub mod midquery;
pub mod reopt;
pub mod report;

pub use engine::ReoptEngine;
pub use midquery::{execute_mid_query, MidQueryOpts, MidQueryReport, MidQueryRun, MidQueryStats};
pub use reopt::{ExecutedReopt, ReOptConfig};
pub use report::{ReoptReport, ReoptSummary, RoundReport};

/// Fixtures shared by the crate's unit tests.
#[cfg(test)]
mod testutil {
    use std::sync::Arc;

    use crate::{ReOptConfig, ReoptEngine};
    use reopt_common::{ColId, TableId};
    use reopt_optimizer::OptimizerConfig;
    use reopt_plan::query::ColRef;
    use reopt_plan::Query;
    use reopt_plan::{Predicate, QueryBuilder};
    use reopt_sampling::SampleConfig;
    use reopt_stats::AnalyzeOpts;
    use reopt_storage::{Column, ColumnDef, Database, LogicalType, Table, TableSchema};

    /// OTT-style chain database: `k` relations R(A, B) with B = A, `vals`
    /// distinct values × `per` rows.
    pub(crate) fn ott_db(k: usize, vals: i64, per: usize) -> Database {
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
                    format!("r{t}"),
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

    /// The chain query over the first `k` relations with `A = consts[i]` on
    /// relation `i`.
    pub(crate) fn ott_query(k: usize, consts: &[i64]) -> Query {
        let mut qb = QueryBuilder::new();
        let rels: Vec<_> = (0..k).map(|i| qb.add_relation(TableId::from(i))).collect();
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

    /// An engine over `ott_db(k, vals, per)` with the default optimizer.
    pub(crate) fn ott_engine(
        k: usize,
        vals: i64,
        per: usize,
        sample: SampleConfig,
        config: ReOptConfig,
    ) -> ReoptEngine {
        ReoptEngine::from_database_with_configs(
            Arc::new(ott_db(k, vals, per)),
            &AnalyzeOpts::default(),
            sample,
            OptimizerConfig::default(),
            config,
        )
        .unwrap()
    }
}
