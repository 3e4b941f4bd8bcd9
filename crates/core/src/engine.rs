//! The one front door to Algorithm 1.
//!
//! [`ReoptEngine`] *owns* the database, its statistics and the sample
//! store behind `Arc`s, plus the optimizer and re-optimization
//! configurations, and materializes the short-lived borrowing
//! [`Optimizer`] on each call (a few clones of plain config structs —
//! cheap next to even one optimizer invocation). The engine is
//! `Send + Sync` (everything inside is immutable shared data), so a query
//! service can hold one in an `Arc` and serve any number of sessions from
//! it; tests, examples and the experiment harness drive the same type.

use std::sync::Arc;

use crate::reopt::{ExecutedReopt, ReOptConfig};
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

    /// The optimizer this engine plans with, borrowing its data — for
    /// callers that re-cost plans, e.g. the Theorem 5 and 6 checks on a
    /// [`ReoptReport`].
    pub fn optimizer(&self) -> Optimizer<'_> {
        Optimizer::with_config(&self.db, &self.stats, self.optimizer_config.clone())
    }

    /// Run Algorithm 1 on `query` with a run-private sample cache.
    pub fn reoptimize(&self, query: &Query) -> Result<ReoptReport> {
        self.reoptimize_with(query, &SharedSampleRunCache::new(), &Tracer::disabled())
    }

    /// Run Algorithm 1 on `query`, pooling sample dry-run work through
    /// `sample_cache` and emitting `reopt.loop` → `reopt.round` →
    /// (`optimizer.dp`, `sampling.dry_run`) spans under `tracer`. Neither
    /// argument changes any planning decision. Sharing one cache lets cold
    /// misses on different queries replay each other's validated
    /// subtrees; any engine over the same database may share it, since
    /// entries key by the sample versions they were dry-run over.
    pub fn reoptimize_with(
        &self,
        query: &Query,
        sample_cache: &SharedSampleRunCache,
        tracer: &Tracer,
    ) -> Result<ReoptReport> {
        let optimizer = self.optimizer();
        let (report, _) = crate::reopt::run(
            &optimizer,
            &self.samples,
            &self.reopt_config,
            query,
            sample_cache,
            tracer,
        )?;
        Ok(report)
    }

    /// Run Algorithm 1 on `query`, then execute the chosen plan against
    /// the full database through the one path to rows (see
    /// [`ReoptEngine::execute_plan`]). With [`ReOptConfig::mid_query`] on,
    /// the mid-query loop starts from the sampling loop's final Γ (sets
    /// never observed keep their validated estimates, observed sets are
    /// upgraded to exact counts) and inherits its DP memo, so the first
    /// replan re-costs only what the new exact entries touch. One tracer,
    /// `exec_opts.tracer`, covers the loop and the execution.
    pub fn execute(
        &self,
        query: &Query,
        exec_opts: reopt_executor::ExecOpts,
    ) -> Result<ExecutedReopt> {
        let optimizer = self.optimizer();
        let tracer = exec_opts.tracer.clone();
        let (report, memo) = crate::reopt::run(
            &optimizer,
            &self.samples,
            &self.reopt_config,
            query,
            &SharedSampleRunCache::new(),
            &tracer,
        )?;
        let run = crate::midquery::execute(
            &optimizer,
            &self.reopt_config,
            query,
            &report.final_plan,
            report.gamma.clone(),
            memo,
            exec_opts,
        )?;
        Ok(ExecutedReopt { report, run })
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
        let v = reopt_sampling::validate_plan_cached(
            query,
            plan,
            &self.samples,
            &self.reopt_config.validation,
            &mut sample_cache.clone(),
            tracer,
        )?;
        let (_, cost) = self.optimizer().cost_plan(query, plan, &v.delta)?;
        Ok((cost, v))
    }

    /// Execute an already-chosen plan — the serving layer's execute path
    /// for cached plans. With [`ReOptConfig::mid_query`] on, it runs under
    /// the suspend → refine → replan → resume loop (see
    /// [`crate::midquery`]) with Γ and the DP memo starting empty: replans
    /// draw on native statistics plus the exact cardinalities observed so
    /// far (the admitted plan itself already encodes the sampling loop's
    /// repairs). Otherwise it runs straight through. Result-equivalent
    /// either way. [`ReoptEngine::execute`] is the seeded counterpart.
    pub fn execute_plan(
        &self,
        query: &Query,
        plan: &reopt_plan::PhysicalPlan,
        exec_opts: reopt_executor::ExecOpts,
    ) -> Result<crate::midquery::MidQueryRun> {
        crate::midquery::execute(
            &self.optimizer(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ott_db, ott_query};

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ReoptEngine>();
    }

    #[test]
    fn execute_report_matches_reoptimize() {
        let db = Arc::new(ott_db(4, 50, 20));
        let engine = ReoptEngine::from_database(
            db.clone(),
            &AnalyzeOpts::default(),
            SampleConfig::default(),
        )
        .unwrap();
        let q = ott_query(4, &[0, 0, 0, 1]);
        let reoptimized = engine.reoptimize(&q).unwrap();

        let executed = engine
            .execute(&q, reopt_executor::ExecOpts::serial())
            .unwrap()
            .report;
        assert_eq!(reoptimized.num_rounds(), executed.num_rounds());
        assert!(reoptimized.final_plan.same_structure(&executed.final_plan));
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
