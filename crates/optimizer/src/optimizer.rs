//! The optimizer facade: validate, estimate, search.
//!
//! This is the `GetPlanFromOptimizer(Γ)` of Algorithm 1 — a conventional
//! cost-based optimizer whose only unusual feature is that it accepts a set
//! of externally supplied cardinalities (Γ) which take precedence over its
//! own statistics. The paper emphasizes that this requires "almost no
//! changes to the original query optimizer"; here it is literally one extra
//! lookup in the cardinality estimator.

use crate::cardinality::{CardEstConfig, CardinalityEstimator};
use crate::cost::{CostModel, CostUnits};
use crate::dp::{plan_dp, OperatorSet, PinnedLeaf, SearchStats};
use crate::geqo::{plan_geqo, GeqoConfig};
use crate::memo::PlanMemo;
use crate::overrides::CardOverrides;
use reopt_common::{Error, Result};
use reopt_plan::{PhysicalPlan, Query};
use reopt_stats::DatabaseStats;
use reopt_storage::Database;

/// Full optimizer configuration. The default is PostgreSQL-like.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Cost units (default: PostgreSQL's).
    pub cost_units: CostUnits,
    /// Cardinality estimation knobs.
    pub cardinality: CardEstConfig,
    /// Operator availability.
    pub operators: OperatorSet,
    /// Restrict the search to left-deep trees.
    pub left_deep_only: bool,
    /// Switch from DP to GEQO above this relation count (PostgreSQL's
    /// `geqo_threshold` defaults to 12).
    pub geqo_threshold: usize,
    /// GEQO parameters.
    pub geqo: GeqoConfig,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            cost_units: CostUnits::default(),
            cardinality: CardEstConfig::default(),
            operators: OperatorSet::default(),
            left_deep_only: false,
            geqo_threshold: 12,
            geqo: GeqoConfig::default(),
        }
    }
}

impl OptimizerConfig {
    /// PostgreSQL-like defaults (the same as [`OptimizerConfig::default`]).
    pub fn postgres_like() -> Self {
        Self::default()
    }
}

/// The result of one optimization call.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The chosen physical plan.
    pub plan: PhysicalPlan,
    /// Search-effort statistics.
    pub search: SearchStats,
}

/// A cost-based optimizer bound to a database and its statistics.
#[derive(Debug)]
pub struct Optimizer<'a> {
    db: &'a Database,
    stats: &'a DatabaseStats,
    config: OptimizerConfig,
}

impl<'a> Optimizer<'a> {
    /// Optimizer with PostgreSQL-like defaults.
    pub fn new(db: &'a Database, stats: &'a DatabaseStats) -> Self {
        Self::with_config(db, stats, OptimizerConfig::postgres_like())
    }

    /// Optimizer with an explicit configuration.
    pub fn with_config(
        db: &'a Database,
        stats: &'a DatabaseStats,
        config: OptimizerConfig,
    ) -> Self {
        Optimizer { db, stats, config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// The database this optimizer plans against.
    pub fn database(&self) -> &'a Database {
        self.db
    }

    /// The statistics this optimizer estimates from.
    pub fn stats(&self) -> &'a DatabaseStats {
        self.stats
    }

    /// Optimize with empty Γ (a conventional one-shot optimization).
    pub fn optimize(&self, query: &Query) -> Result<Planned> {
        self.optimize_with(query, &CardOverrides::new())
    }

    /// Optimize with validated cardinalities Γ — Algorithm 1's
    /// `GetPlanFromOptimizer(Γ)`.
    pub fn optimize_with(&self, query: &Query, overrides: &CardOverrides) -> Result<Planned> {
        self.search(query, overrides, &mut PlanMemo::new(), &[])
    }

    /// Like [`Optimizer::optimize_with`], but reusing (and refilling) a
    /// cross-round DP memo — the incremental path of the re-optimization
    /// loop. The caller owns `memo` and must (a) use it with one fixed
    /// (query, optimizer) pair only and (b) call
    /// [`PlanMemo::invalidate_supersets`] with every Γ delta before the
    /// next call. Queries beyond `geqo_threshold` relations fall back to
    /// the (memo-less) GEQO search.
    pub fn optimize_incremental(
        &self,
        query: &Query,
        overrides: &CardOverrides,
        memo: &mut PlanMemo,
    ) -> Result<Planned> {
        self.search(query, overrides, memo, &[])
    }

    /// Like [`Optimizer::optimize_incremental`], but with completed
    /// subtrees pinned as atomic zero-cost leaves — the mid-query re-plan
    /// of a suspended execution (see [`crate::dp::plan_dp`]). The
    /// returned plan contains every pin verbatim and never costs a set
    /// that straddles a pin boundary, so it cannot re-execute any part of
    /// a checkpointed result. The caller must invalidate memo supersets of
    /// every pin (and of every refined Γ set) before calling.
    ///
    /// Pinned re-planning requires the DP search: queries beyond
    /// `geqo_threshold` relations are rejected — the genetic fallback
    /// cannot honor pin boundaries, and silently dropping them would make
    /// the plan re-execute checkpointed work.
    pub fn optimize_with_pinned(
        &self,
        query: &Query,
        overrides: &CardOverrides,
        pinned: &[PinnedLeaf],
        memo: &mut PlanMemo,
    ) -> Result<Planned> {
        self.search(query, overrides, memo, pinned)
    }

    /// The one search behind every `optimize*` entry point: validate the
    /// query, build the Γ-overridden estimator and the cost model, then
    /// plan by DP over `memo` — or, beyond `geqo_threshold` relations, by
    /// the memo-less genetic search, which cannot honor pins.
    fn search(
        &self,
        query: &Query,
        overrides: &CardOverrides,
        memo: &mut PlanMemo,
        pinned: &[PinnedLeaf],
    ) -> Result<Planned> {
        let geqo = query.num_relations() > self.config.geqo_threshold;
        if geqo && !pinned.is_empty() {
            return Err(Error::invalid(format!(
                "pinned re-planning needs the DP search: {} relations exceeds geqo_threshold {}",
                query.num_relations(),
                self.config.geqo_threshold
            )));
        }
        query.validate(self.db)?;
        let mut est = CardinalityEstimator::new(
            self.db,
            self.stats,
            query,
            overrides,
            &self.config.cardinality,
        )?;
        let model = CostModel::new(self.config.cost_units);
        let ops = &self.config.operators;
        let (plan, search) = if geqo {
            plan_geqo(self.db, query, &mut est, &model, ops, &self.config.geqo)?
        } else {
            let left_deep = self.config.left_deep_only;
            plan_dp(
                self.db, query, &mut est, &model, ops, left_deep, memo, pinned,
            )?
        };
        Ok(Planned { plan, search })
    }

    /// Estimate the cardinality of the join result covering `set`, under
    /// the given Γ — exposes the estimator for callers that need to compare
    /// observed cardinalities against the optimizer's beliefs (e.g. the
    /// mid-query replan gate).
    pub fn estimate_rows(
        &self,
        query: &Query,
        overrides: &CardOverrides,
        set: reopt_common::RelSet,
    ) -> Result<f64> {
        let mut est = CardinalityEstimator::new(
            self.db,
            self.stats,
            query,
            overrides,
            &self.config.cardinality,
        )?;
        Ok(est.rows(set))
    }

    /// Re-estimate the cost of an *existing* plan structure under the given
    /// Γ — the paper's `cost_s(P)` when Γ holds the sampling-validated
    /// cardinalities of P's joins (§3.4). Returns (rows, cost) at the root.
    pub fn cost_plan(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        overrides: &CardOverrides,
    ) -> Result<(f64, f64)> {
        let mut est = CardinalityEstimator::new(
            self.db,
            self.stats,
            query,
            overrides,
            &self.config.cardinality,
        )?;
        let model = CostModel::new(self.config.cost_units);
        cost_subtree(self.db, query, &mut est, &model, plan)
    }
}

/// Recursively re-cost a plan structure under an estimator.
fn cost_subtree(
    db: &Database,
    query: &Query,
    est: &mut CardinalityEstimator<'_>,
    model: &CostModel,
    plan: &PhysicalPlan,
) -> Result<(f64, f64)> {
    use reopt_plan::{AccessPath, CmpOp, JoinAlgo};
    match plan {
        PhysicalPlan::Scan {
            rel, table, access, ..
        } => {
            let t = db.table(*table)?;
            let preds = query.local_predicates(*rel);
            let pages = t.heap_pages() as f64;
            let trows = est.table_rows(*rel);
            let rows = est.rows(reopt_common::RelSet::single(*rel));
            let cost = match access {
                AccessPath::SeqScan => model.seq_scan(pages, trows, preds.len()),
                AccessPath::IndexScan { col } => {
                    let driving = preds.iter().find(|p| p.col == *col && p.op == CmpOp::Eq);
                    let matched = match driving {
                        Some(p) => {
                            trows
                                * crate::cardinality::local_selectivity(db, est.stats(), query, p)?
                        }
                        None => trows,
                    };
                    model.index_scan(pages, trows, matched, preds.len().saturating_sub(1))
                }
            };
            Ok((rows, cost))
        }
        PhysicalPlan::Join {
            algo,
            left,
            right,
            keys,
            ..
        } => {
            let set = plan.relset();
            let out_rows = est.rows(set);
            let (lrows, lcost) = cost_subtree(db, query, est, model, left)?;
            match algo {
                JoinAlgo::IndexNested => {
                    let inner_rel = right.relset().min_rel().ok_or_else(|| {
                        Error::internal("index-nested inner subtree covers no relation")
                    })?;
                    let inner_table = db.table(query.table_of(inner_rel)?)?;
                    let residuals =
                        query.local_predicates(inner_rel).len() + keys.len().saturating_sub(1);
                    let cost = lcost
                        + model.index_nested_loop(
                            lrows,
                            inner_table.heap_pages() as f64,
                            inner_table.row_count() as f64,
                            out_rows,
                            residuals,
                        );
                    Ok((out_rows, cost))
                }
                _ => {
                    let (rrows, rcost) = cost_subtree(db, query, est, model, right)?;
                    let join_cost = match algo {
                        JoinAlgo::Hash => model.hash_join(lrows, rrows, out_rows),
                        JoinAlgo::Merge => model.merge_join(lrows, rrows, out_rows),
                        JoinAlgo::NestedLoop => model.nested_loop(lrows, rrows, out_rows),
                        JoinAlgo::IndexNested => {
                            // Handled by the dedicated arm above when the
                            // plan is well-formed; a malformed or
                            // future-transformed plan must surface as a
                            // costing error, not panic whoever asked for a
                            // cost (in a service that is the single-flight
                            // leader, taking every coalesced waiter down
                            // with it).
                            return Err(reopt_common::Error::internal(
                                "index-nested-loop join reached the generic cost path; \
                                 the physical plan is malformed",
                            ));
                        }
                    };
                    Ok((out_rows, lcost + rcost + join_cost))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_common::{ColId, RelSet, TableId};
    use reopt_plan::query::ColRef;
    use reopt_plan::{Predicate, QueryBuilder};
    use reopt_stats::{analyze_database, AnalyzeOpts};
    use reopt_storage::{Column, ColumnDef, LogicalType, Table, TableSchema};

    fn chain_db(k: usize, vals: i64, per: usize) -> Database {
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

    fn chain_query(k: usize, consts: &[i64]) -> Query {
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

    #[test]
    fn optimize_produces_full_plan() {
        let db = chain_db(4, 50, 10);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let opt = Optimizer::new(&db, &stats);
        let q = chain_query(4, &[0, 0, 0, 0]);
        let planned = opt.optimize(&q).unwrap();
        assert_eq!(planned.plan.relset(), RelSet::first_n(4));
        assert!(planned.plan.est_cost() > 0.0);
    }

    #[test]
    fn cost_plan_matches_dp_annotation_for_chosen_plan() {
        let db = chain_db(3, 50, 10);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let opt = Optimizer::new(&db, &stats);
        let q = chain_query(3, &[0, 0, 0]);
        let g = CardOverrides::new();
        let planned = opt.optimize_with(&q, &g).unwrap();
        let (rows, cost) = opt.cost_plan(&q, &planned.plan, &g).unwrap();
        assert!((cost - planned.plan.est_cost()).abs() < 1e-6 * cost.max(1.0));
        assert!((rows - planned.plan.est_rows()).abs() < 1e-6 * rows.max(1.0));
    }

    #[test]
    fn overrides_change_the_plan() {
        let db = chain_db(4, 50, 10);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let opt = Optimizer::new(&db, &stats);
        let q = chain_query(4, &[0, 0, 0, 0]);
        let p1 = opt.optimize(&q).unwrap();

        // Claim the first join of p1 is enormous.
        let first_join = p1.plan.logical_tree().join_sets()[0];
        let mut g = CardOverrides::new();
        g.insert(first_join, 1e12);
        let p2 = opt.optimize_with(&q, &g).unwrap();
        assert!(!p1.plan.same_structure(&p2.plan));
        // The new plan avoids the poisoned join.
        assert!(p2
            .plan
            .logical_tree()
            .join_sets()
            .iter()
            .all(|s| *s != first_join));
    }

    #[test]
    fn geqo_engages_above_threshold() {
        let db = chain_db(6, 20, 4);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let mut config = OptimizerConfig::postgres_like();
        config.geqo_threshold = 4; // force GEQO for this 6-way chain
        let opt = Optimizer::with_config(&db, &stats, config);
        let q = chain_query(6, &[0; 6]);
        let planned = opt.optimize(&q).unwrap();
        assert_eq!(planned.plan.relset(), RelSet::first_n(6));
        // GEQO builds left-deep trees.
        assert!(planned.plan.logical_tree().is_left_deep());
        // Deterministic under the same seed.
        let planned2 = opt.optimize(&q).unwrap();
        assert!(planned.plan.same_structure(&planned2.plan));
    }

    #[test]
    fn left_deep_config_respected() {
        let db = chain_db(5, 20, 4);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let mut config = OptimizerConfig::postgres_like();
        config.left_deep_only = true;
        let opt = Optimizer::with_config(&db, &stats, config);
        let q = chain_query(5, &[0; 5]);
        let planned = opt.optimize(&q).unwrap();
        assert!(planned.plan.logical_tree().is_left_deep());
    }

    #[test]
    fn default_config_plans_by_dp_and_replans_pinned() {
        let db = chain_db(3, 50, 10);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let q = chain_query(3, &[0, 0, 0]);
        let default = Optimizer::with_config(&db, &stats, OptimizerConfig::default());
        let pg = Optimizer::with_config(&db, &stats, OptimizerConfig::postgres_like());
        let planned = default.optimize(&q).unwrap();
        assert!(planned.plan.same_structure(&pg.optimize(&q).unwrap().plan));

        // Pin the plan's one two-relation join as a completed subtree: the
        // re-plan needs the DP search, which GEQO would refuse.
        let mut first = None;
        planned.plan.visit(&mut |n| {
            if n.relset().len() == 2 && first.is_none() {
                first = Some(n.clone());
            }
        });
        let first = first.expect("a 3-relation plan has a two-relation join");
        let pin = PinnedLeaf {
            set: first.relset(),
            plan: first,
            rows: 10.0,
        };
        let mut gamma = CardOverrides::new();
        gamma.insert_exact(pin.set, pin.rows);
        let replanned = default
            .optimize_with_pinned(&q, &gamma, &[pin], &mut PlanMemo::new())
            .unwrap();
        assert_eq!(replanned.plan.relset(), RelSet::first_n(3));
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let db = chain_db(2, 10, 2);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let opt = Optimizer::new(&db, &stats);
        let q = QueryBuilder::new().build();
        assert!(opt.optimize(&q).is_err());
    }
}
