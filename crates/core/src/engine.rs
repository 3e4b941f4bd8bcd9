//! An owned, `Arc`-shareable re-optimization engine.
//!
//! [`crate::ReOptimizer`] and [`Optimizer`] are deliberately borrow-based
//! — cheap to construct, zero setup cost per query — which is perfect for
//! experiments but awkward for a long-lived server: a thread can't park a
//! `ReOptimizer<'a>` inside an `Arc` without dragging `'a` through every
//! API. [`ReoptEngine`] closes that gap. It *owns* the database, its
//! statistics and the sample store behind `Arc`s, plus the optimizer and
//! re-optimizer configurations, and materializes the short-lived borrowing
//! optimizers internally on each call. The engine is `Send + Sync`
//! (everything inside is immutable shared data), so a query service can
//! hold one in an `Arc` and serve any number of sessions from it.

use std::sync::Arc;

use crate::reopt::{ReOptConfig, ReOptimizer};
use crate::report::ReoptReport;
use reopt_common::Result;
use reopt_optimizer::{CardOverrides, Optimizer, OptimizerConfig, PlanMemo};
use reopt_plan::Query;
use reopt_sampling::{SampleConfig, SampleStore, SharedSampleRunCache, Validation};
use reopt_stats::{analyze_database, AnalyzeOpts, DatabaseStats};
use reopt_storage::Database;
use reopt_telemetry::Tracer;

/// Owned re-optimization pipeline: database + statistics + samples +
/// configuration, usable behind an `Arc` from many threads at once.
#[derive(Debug, Clone)]
pub struct ReoptEngine {
    db: Arc<Database>,
    stats: Arc<DatabaseStats>,
    samples: Arc<SampleStore>,
    optimizer_config: OptimizerConfig,
    reopt_config: ReOptConfig,
    /// The ANALYZE knobs the statistics were (re)built with — retained so
    /// the serving layer's incremental re-ANALYZE after an ingest uses the
    /// exact same derivation.
    analyze: AnalyzeOpts,
}

impl ReoptEngine {
    /// Engine over pre-built statistics and samples, with default
    /// (PostgreSQL-like optimizer, default re-optimization) configs.
    pub fn new(db: Arc<Database>, stats: Arc<DatabaseStats>, samples: Arc<SampleStore>) -> Self {
        Self::with_configs(
            db,
            stats,
            samples,
            OptimizerConfig::postgres_like(),
            ReOptConfig::default(),
        )
    }

    /// Engine with explicit optimizer and re-optimization configuration.
    pub fn with_configs(
        db: Arc<Database>,
        stats: Arc<DatabaseStats>,
        samples: Arc<SampleStore>,
        optimizer_config: OptimizerConfig,
        reopt_config: ReOptConfig,
    ) -> Self {
        ReoptEngine {
            db,
            stats,
            samples,
            optimizer_config,
            reopt_config,
            analyze: AnalyzeOpts::default(),
        }
    }

    /// Convenience bootstrap: ANALYZE the database and draw samples, then
    /// build the engine — the one-stop entry point for a serving layer
    /// that starts from raw tables.
    pub fn from_database(
        db: Arc<Database>,
        analyze: &AnalyzeOpts,
        sample: SampleConfig,
    ) -> Result<Self> {
        Self::from_database_with_configs(
            db,
            analyze,
            sample,
            OptimizerConfig::postgres_like(),
            ReOptConfig::default(),
        )
    }

    /// [`ReoptEngine::from_database`] with explicit optimizer and
    /// re-optimization configuration.
    pub fn from_database_with_configs(
        db: Arc<Database>,
        analyze: &AnalyzeOpts,
        sample: SampleConfig,
        optimizer_config: OptimizerConfig,
        reopt_config: ReOptConfig,
    ) -> Result<Self> {
        let stats = Arc::new(analyze_database(&db, analyze)?);
        let samples = Arc::new(SampleStore::build(&db, sample)?);
        let mut engine = Self::with_configs(db, stats, samples, optimizer_config, reopt_config);
        engine.analyze = analyze.clone();
        Ok(engine)
    }

    /// The database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The statistics the optimizer plans against.
    pub fn stats(&self) -> &Arc<DatabaseStats> {
        &self.stats
    }

    /// The sample store validations run against.
    pub fn samples(&self) -> &Arc<SampleStore> {
        &self.samples
    }

    /// The ANALYZE knobs this engine's statistics were built with.
    pub fn analyze_opts(&self) -> &AnalyzeOpts {
        &self.analyze
    }

    /// The database's [`reopt_storage::DataVersion`] this engine serves.
    pub fn data_version(&self) -> reopt_storage::DataVersion {
        self.db.data_version()
    }

    /// Rebuild the engine around new data, statistics and samples, keeping
    /// every configuration knob — the serving layer's refresh path after
    /// an ingest (cheap: the configs are plain structs, the data is
    /// `Arc`-shared).
    pub fn with_data(
        &self,
        db: Arc<Database>,
        stats: Arc<DatabaseStats>,
        samples: Arc<SampleStore>,
    ) -> Self {
        ReoptEngine {
            db,
            stats,
            samples,
            optimizer_config: self.optimizer_config.clone(),
            reopt_config: self.reopt_config.clone(),
            analyze: self.analyze.clone(),
        }
    }

    /// The re-optimization configuration.
    pub fn reopt_config(&self) -> &ReOptConfig {
        &self.reopt_config
    }

    /// Set the dry-run executor's worker-thread knob (`0` = available
    /// parallelism, `1` = serial) and return the engine. Dry runs are
    /// bit-identical at every setting, so this trades nothing but
    /// wall-clock — see
    /// [`ValidationOpts::threads`](reopt_sampling::ValidationOpts).
    pub fn with_validation_threads(mut self, threads: usize) -> Self {
        self.reopt_config.validation.threads = threads;
        self
    }

    /// Toggle mid-query re-optimization (see
    /// [`ReOptConfig::mid_query`](crate::ReOptConfig)) and return the
    /// engine.
    pub fn with_mid_query(mut self, on: bool) -> Self {
        self.reopt_config.mid_query = on;
        self
    }

    /// The optimizer configuration.
    pub fn optimizer_config(&self) -> &OptimizerConfig {
        &self.optimizer_config
    }

    /// Run Algorithm 1 on `query` with a run-private sample cache.
    pub fn reoptimize(&self, query: &Query) -> Result<ReoptReport> {
        self.with_reoptimizer(|re| re.run(query))
    }

    /// Run Algorithm 1 on `query`, pooling sample dry-run work through
    /// `sample_cache` and recording spans under `tracer` (see
    /// [`ReOptimizer::run_with`]; neither argument changes any planning
    /// decision). The cache must have been used only with this engine's
    /// sample store and validation options.
    pub fn reoptimize_with(
        &self,
        query: &Query,
        sample_cache: &SharedSampleRunCache,
        tracer: &Tracer,
    ) -> Result<ReoptReport> {
        self.with_reoptimizer(|re| re.run_with(query, sample_cache, tracer))
    }

    /// Re-validate an already-chosen plan against this engine's (fresh)
    /// samples without running the re-optimization loop: one dry run
    /// yields Δ(plan), and the plan is re-costed under it. For a plan
    /// whose final Γ entries all came from its own subtrees — which holds
    /// for every plan Algorithm 1 returns — this reproduces
    /// [`ReoptReport::final_validated_cost`] exactly when the samples
    /// haven't moved, so the serving layer can compare the two costs to
    /// decide whether a surgically-evicted plan is still good. The dry
    /// run goes through `sample_cache`: subtrees another session already
    /// validated against the current samples are replayed, not re-run.
    /// Returns the cost together with the dry run's [`Validation`], whose
    /// `cache_hits` / `subtrees_executed` count this run alone.
    pub fn revalidate_plan(
        &self,
        query: &Query,
        plan: &reopt_plan::PhysicalPlan,
        sample_cache: &SharedSampleRunCache,
        tracer: &Tracer,
    ) -> Result<(f64, Validation)> {
        let mut opts = self.reopt_config.validation.clone();
        opts.tracer = tracer.clone();
        let v = reopt_sampling::validate_plan_cached(
            query,
            plan,
            &self.samples,
            &opts,
            &mut sample_cache.clone(),
        )?;
        let optimizer =
            Optimizer::with_config(&self.db, &self.stats, self.optimizer_config.clone());
        let (_, cost) = optimizer.cost_plan(query, plan, &v.delta)?;
        Ok((cost, v))
    }

    /// Execute an already-chosen plan — the serving layer's execute path
    /// for cached plans. With [`ReOptConfig::mid_query`] on, it runs under
    /// the suspend → refine → replan → resume loop (see
    /// [`crate::midquery`]) with Γ and the DP memo starting empty: replans
    /// draw on native statistics plus the exact cardinalities observed so
    /// far (the admitted plan itself already encodes the sampling loop's
    /// repairs). Otherwise it runs straight through. Result-equivalent
    /// either way.
    pub fn execute_plan(
        &self,
        query: &Query,
        plan: &reopt_plan::PhysicalPlan,
        exec_opts: reopt_executor::ExecOpts,
    ) -> Result<crate::midquery::MidQueryRun> {
        let optimizer =
            Optimizer::with_config(&self.db, &self.stats, self.optimizer_config.clone());
        crate::midquery::execute(
            &optimizer,
            &self.reopt_config,
            query,
            plan,
            CardOverrides::new(),
            PlanMemo::new(),
            exec_opts,
        )
    }

    /// [`ReoptEngine::execute_plan`] with mid-query re-optimization on,
    /// whatever this engine's configuration says.
    pub fn execute_plan_mid_query(
        &self,
        query: &Query,
        plan: &reopt_plan::PhysicalPlan,
        exec_opts: reopt_executor::ExecOpts,
    ) -> Result<crate::midquery::MidQueryRun> {
        self.clone()
            .with_mid_query(true)
            .execute_plan(query, plan, exec_opts)
    }

    /// Materialize the borrowing optimizer + re-optimizer and hand them to
    /// `f`. Construction is a few clones of plain config structs — cheap
    /// relative to even one optimizer invocation.
    fn with_reoptimizer<T>(&self, f: impl FnOnce(&ReOptimizer<'_>) -> Result<T>) -> Result<T> {
        let optimizer =
            Optimizer::with_config(&self.db, &self.stats, self.optimizer_config.clone());
        let re = ReOptimizer::with_config(&optimizer, &self.samples, self.reopt_config.clone());
        f(&re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_common::{ColId, TableId};
    use reopt_plan::query::ColRef;
    use reopt_plan::{Predicate, QueryBuilder};
    use reopt_storage::{Column, ColumnDef, LogicalType, Table, TableSchema};

    fn ott_db(k: usize, vals: i64, per: usize) -> Database {
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

    fn ott_query(k: usize, consts: &[i64]) -> Query {
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
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ReoptEngine>();
    }

    #[test]
    fn engine_matches_borrowing_reoptimizer() {
        let db = Arc::new(ott_db(4, 50, 20));
        let engine = ReoptEngine::from_database(
            db.clone(),
            &AnalyzeOpts::default(),
            SampleConfig::default(),
        )
        .unwrap();
        let q = ott_query(4, &[0, 0, 0, 1]);
        let from_engine = engine.reoptimize(&q).unwrap();

        let optimizer = Optimizer::new(&db, engine.stats());
        let re = ReOptimizer::new(&optimizer, engine.samples());
        let from_borrowed = re.run(&q).unwrap();
        assert_eq!(from_engine.num_rounds(), from_borrowed.num_rounds());
        assert!(from_engine
            .final_plan
            .same_structure(&from_borrowed.final_plan));
    }

    #[test]
    fn revalidation_reproduces_final_validated_cost_without_drift() {
        let db = Arc::new(ott_db(4, 50, 20));
        let engine =
            ReoptEngine::from_database(db, &AnalyzeOpts::default(), SampleConfig::default())
                .unwrap();
        let q = ott_query(4, &[0, 0, 0, 1]);
        let report = engine.reoptimize(&q).unwrap();
        let tracer = Tracer::disabled();
        let shared = SharedSampleRunCache::new();
        let (cost, first) = engine
            .revalidate_plan(&q, &report.final_plan, &shared, &tracer)
            .unwrap();
        assert!(
            (cost - report.final_validated_cost).abs()
                < 1e-6 * report.final_validated_cost.max(1.0),
            "revalidated {cost} vs loop {0}",
            report.final_validated_cost
        );
        // The dry run leaves its entries behind, and a replay agrees —
        // answered wholly from the cache this time.
        assert!(shared.entries() > 0);
        assert_eq!(first.cache_hits, 0);
        let (replayed, again) = engine
            .revalidate_plan(&q, &report.final_plan, &shared, &tracer)
            .unwrap();
        assert_eq!(replayed, cost);
        assert_eq!(again.subtrees_executed, 0);
        assert_eq!(again.cache_hits, first.subtrees_executed);
    }

    #[test]
    fn engine_runs_concurrently_from_many_threads() {
        let db = Arc::new(ott_db(4, 50, 20));
        let engine = Arc::new(
            ReoptEngine::from_database(db, &AnalyzeOpts::default(), SampleConfig::default())
                .unwrap(),
        );
        let shared = SharedSampleRunCache::new();
        let baseline = engine.reoptimize(&ott_query(4, &[0, 0, 0, 1])).unwrap();
        std::thread::scope(|s| {
            for i in 0..4 {
                let engine = Arc::clone(&engine);
                let shared = shared.clone();
                let baseline_plan = baseline.final_plan.clone();
                s.spawn(move || {
                    // Half the threads share the cache, half run private.
                    let q = ott_query(4, &[0, 0, 0, 1]);
                    let r = if i % 2 == 0 {
                        engine
                            .reoptimize_with(&q, &shared, &Tracer::disabled())
                            .unwrap()
                    } else {
                        engine.reoptimize(&q).unwrap()
                    };
                    assert!(r.final_plan.same_structure(&baseline_plan));
                });
            }
        });
        assert!(shared.entries() > 0);
    }
}
