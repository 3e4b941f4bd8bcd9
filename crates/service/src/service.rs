//! The concurrent query service: sessions in, plans out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::cache::{Admission, CachedPlan, Freshness, LeadGuard, PlanCache};
use crate::ingest::DriftConfig;
use reopt_common::{lock_unpoisoned, Result, Stopwatch, TableId};
use reopt_core::{MidQueryStats, ReoptEngine};
use reopt_executor::{ExecOpts, Executor, QueryOutput};
use reopt_plan::{PhysicalPlan, Query, QueryTemplate};
use reopt_sampling::{SampleCacheStats, SampleConfig, SharedSampleRunCache};
use reopt_stats::{AnalyzeOpts, DatabaseStats};
use reopt_storage::{DataVersion, Database};
use reopt_telemetry::{
    env_trace_default, names, LatencySummary, MetricsRegistry, QueryTrace, TelemetrySnapshot,
    Tracer,
};
use std::sync::{Mutex, MutexGuard};

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Service configuration: the serving layer's own knobs. How a cold miss
/// plans is not among them — the [`ReoptEngine`] the service is built on
/// carries the optimizer and re-optimization configs
/// ([`ReoptEngine::from_database_with_configs`]), and
/// [`QueryService::from_database`] builds one with the defaults.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Max templates held in the plan cache (LRU beyond this; ≥ 1).
    pub plan_cache_capacity: usize,
    /// Executor options for [`QueryService::execute`]: served queries run
    /// partition-parallel per [`ExecOpts::threads`] (default: available
    /// parallelism), with results bit-identical to serial execution.
    pub exec: ExecOpts,
    /// Record a structured span trace for every submission (`Some(true)`),
    /// never (`Some(false)`), or per the `REOPT_TRACE` environment
    /// variable (`None`, the default; truthy values are `1`/`true`/`on`).
    /// Tracing is observability only — plan choice and row output are
    /// bit-identical either way.
    pub trace: Option<bool>,
    /// Drift monitoring for the ingest path (threshold + auto refresh);
    /// see [`crate::ingest`].
    pub drift: DriftConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            plan_cache_capacity: 128,
            exec: ExecOpts::default(),
            trace: None,
            drift: DriftConfig::default(),
        }
    }
}

/// How a submission obtained its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// This session ran the sampling-based re-optimization itself.
    ColdMiss,
    /// The template was cached; no optimizer work at all.
    WarmHit,
    /// Another session was already re-optimizing this template; this one
    /// blocked on its result (single-flight).
    Coalesced,
    /// A surgically-evicted plan was re-validated against the fresh
    /// samples (one dry run, no re-optimization loop) and re-admitted —
    /// its cost still held within [`DriftConfig::revalidate_ratio`].
    Revalidated,
}

/// What a session gets back for one query.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The plan to execute — shared, never copied per session.
    pub plan: Arc<PhysicalPlan>,
    /// How the plan was obtained.
    pub source: PlanSource,
    /// The query's template fingerprint (the cache key).
    pub template: u64,
    /// Rounds of the re-optimization that produced the plan (cached or
    /// fresh).
    pub rounds: usize,
    /// Whether that re-optimization converged.
    pub converged: bool,
    /// Wall time of that re-optimization (zero only if the loop was
    /// degenerate; warm hits report the *original* cost, not their own).
    pub reopt_time: Duration,
    /// The plan's validated cost: under the final Γ of the loop that
    /// produced it, or — for [`PlanSource::Revalidated`] — under the fresh
    /// Δ of the re-validation dry run.
    pub validated_cost: f64,
    /// Service-side latency of *this* submission, admission to response.
    pub latency: Duration,
    /// The [`DataVersion`] of the snapshot this submission was admitted
    /// under: the plan was served (and, by [`QueryService::execute`], run)
    /// against exactly that committed data state.
    pub data_version: DataVersion,
    /// The finished span trace of this submission, present iff tracing was
    /// on (see [`ServiceConfig::trace`]) and the trace was not claimed by
    /// an enclosing [`QueryService::execute`] (which attaches the combined
    /// trace to [`ExecutedQuery::trace`] instead).
    pub trace: Option<Arc<QueryTrace>>,
}

/// Point-in-time service counters. Totals are lifetime;
/// `submitted == warm_hits + cold_misses + coalesced + errors`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Queries submitted.
    pub submitted: u64,
    /// Answered from the plan cache.
    pub warm_hits: u64,
    /// Answered by running re-optimization in the submitting session.
    pub cold_misses: u64,
    /// Answered by waiting on another session's in-flight re-optimization.
    pub coalesced: u64,
    /// Re-optimizations actually run (= cold misses that reached the
    /// engine; the single-flight invariant under contention is
    /// `reopts_run == 1` per cold template however many sessions raced).
    pub reopts_run: u64,
    /// Submissions that returned an error.
    pub errors: u64,
    /// Plans evicted to respect the capacity bound.
    pub lru_evictions: u64,
    /// Always 0. Kept for readers of the earlier statistics-version flush,
    /// which is gone: a stale plan is re-validated, never flushed, and
    /// counted in `table_evictions`.
    pub stale_evictions: u64,
    /// Plans handed out for re-validation because a base table they touch
    /// had its sample surgically refreshed since they were validated.
    pub table_evictions: u64,
    /// Cached-plan re-validations attempted (dry run + re-cost, no loop).
    pub revalidations: u64,
    /// Re-validations that re-admitted the cached plan, saving a full
    /// re-optimization.
    pub revalidations_saved: u64,
    /// Templates currently cached.
    pub cached_templates: usize,
    /// Counters of the shared sample dry-run cache.
    pub sample_cache: SampleCacheStats,
    /// Submission latency distribution (µs): count, mean, max, and
    /// p50/p95/p99 upper bounds from a fixed-bucket log₂ histogram
    /// (≤ 12.5 % relative quantile error).
    pub latency: LatencySummary,
}

/// One immutable, versioned state of the service: the engine (data +
/// statistics + samples) and the statistics *baseline* the resident cached
/// plans were last validated against. Everything in it is a function of
/// one [`DataVersion`]; it is never mutated, only replaced as a unit (see
/// [`crate::ingest`]). A submission loads one snapshot at admission and
/// plans, caches and executes against it alone, so in-flight queries keep
/// the exact data state they were admitted under.
#[derive(Debug)]
pub(crate) struct Snapshot {
    pub(crate) engine: ReoptEngine,
    /// Statistics the cached plans' validations are anchored to — drift is
    /// measured baseline → fresh, not last-ingest → fresh, so many small
    /// ingests accumulate instead of each hiding below the threshold.
    pub(crate) baseline: Arc<DatabaseStats>,
}

impl Snapshot {
    /// The one [`DataVersion`] everything in this snapshot derives from.
    pub(crate) fn data_version(&self) -> DataVersion {
        self.engine.data_version()
    }

    /// The version of this snapshot's sample of `table` — what cached-plan
    /// freshness is compared against (see [`crate::cache`]).
    fn sample_version(&self, table: TableId) -> Option<DataVersion> {
        self.engine.samples().table_version(table).ok()
    }

    /// `tables`, each stamped with the version of this snapshot's sample
    /// of it.
    fn sampled_at(
        &self,
        tables: impl IntoIterator<Item = TableId>,
    ) -> Result<Vec<(TableId, DataVersion)>> {
        tables
            .into_iter()
            .map(|t| Ok((t, self.engine.samples().table_version(t)?)))
            .collect()
    }
}

/// A thread-safe query service over one database: many sessions submit
/// queries concurrently; the service answers each with a physical plan,
/// re-optimizing at most once per query template per generation of the
/// samples it read.
///
/// All methods take `&self`; wrap the service in an `Arc` and hand clones
/// to your session threads (or use [`QueryService::session`]).
#[derive(Debug)]
pub struct QueryService {
    /// The published snapshot. This lock guards exactly one `Arc` clone
    /// (readers) or one pointer swap (publish) — never work proportional
    /// to a table, a batch or a cache.
    live: Mutex<Arc<Snapshot>>,
    /// Serializes writers (ingest, full refresh) so no two derive
    /// `DataVersion` N+1 from the same N. Readers never take it. The
    /// payload is `()`: a writer that panics leaves nothing torn behind
    /// it, so the poison is recovered.
    writer: Mutex<()>,
    plans: Arc<PlanCache>,
    sample_cache: SharedSampleRunCache,
    exec_opts: ExecOpts,
    next_session: AtomicU64,
    submitted: AtomicU64,
    warm_hits: AtomicU64,
    cold_misses: AtomicU64,
    coalesced: AtomicU64,
    reopts_run: AtomicU64,
    errors: AtomicU64,
    revalidations: AtomicU64,
    revalidations_saved: AtomicU64,
    pub(crate) registry: MetricsRegistry,
    trace_default: bool,
    pub(crate) drift: DriftConfig,
}

impl QueryService {
    /// Service over a pre-built engine. Errors when the drift
    /// configuration is invalid (NaN or negative threshold, bad
    /// re-validation ratio) — a silent bad threshold would disable
    /// auto-refresh with no diagnostic.
    pub fn new(engine: ReoptEngine, config: ServiceConfig) -> Result<Self> {
        config.drift.validate()?;
        let baseline = Arc::clone(engine.stats());
        Ok(QueryService {
            live: Mutex::new(Arc::new(Snapshot { engine, baseline })),
            writer: Mutex::new(()),
            plans: Arc::new(PlanCache::new(config.plan_cache_capacity)),
            sample_cache: SharedSampleRunCache::new(),
            exec_opts: config.exec,
            next_session: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            cold_misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            reopts_run: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            revalidations: AtomicU64::new(0),
            revalidations_saved: AtomicU64::new(0),
            registry: MetricsRegistry::new(),
            // Consult REOPT_TRACE once at construction, never per
            // submission.
            trace_default: config.trace.unwrap_or_else(env_trace_default),
            drift: config.drift,
        })
    }

    /// Bootstrap a service from raw tables: ANALYZE, sample, serve, with
    /// the default optimizer and re-optimization configs (see
    /// [`ReoptEngine::from_database`]; build the engine yourself and use
    /// [`QueryService::new`] for others).
    pub fn from_database(
        db: Arc<Database>,
        analyze: &AnalyzeOpts,
        sample: SampleConfig,
        config: ServiceConfig,
    ) -> Result<Self> {
        config.drift.validate()?;
        let engine = ReoptEngine::from_database(db, analyze, sample)?;
        Self::new(engine, config)
    }

    /// Load the published snapshot: one `Arc` clone under the `live` lock.
    pub(crate) fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&lock_unpoisoned(&self.live))
    }

    /// Enter the writer section: serialize against every other writer and
    /// load the snapshot the next one must be derived from (stable until
    /// this writer publishes — nobody else can).
    pub(crate) fn begin_write(&self) -> (MutexGuard<'_, ()>, Arc<Snapshot>) {
        let writer = lock_unpoisoned(&self.writer);
        let base = self.snapshot();
        (writer, base)
    }

    /// Replace the published snapshot — the single step by which an
    /// ingest becomes visible. `_writer` witnesses that the caller holds
    /// the writer section. The superseded snapshot is released after the
    /// `live` lock, so freeing it never delays a reader.
    pub(crate) fn publish(&self, _writer: &MutexGuard<'_, ()>, next: Snapshot) {
        let next = Arc::new(next);
        let superseded = std::mem::replace(&mut *lock_unpoisoned(&self.live), next);
        drop(superseded);
    }

    /// A copy of the engine the service currently plans with. Owned (a few
    /// `Arc` clones): the ingest path publishes new snapshots underneath,
    /// and a copy keeps reading its own consistent (database, statistics,
    /// samples) triple.
    pub fn engine(&self) -> ReoptEngine {
        self.snapshot().engine.clone()
    }

    /// The database snapshot the service currently serves.
    pub fn database(&self) -> Arc<Database> {
        Arc::clone(self.snapshot().engine.db())
    }

    /// The statistics the optimizer currently plans against.
    pub fn database_stats(&self) -> Arc<DatabaseStats> {
        Arc::clone(self.snapshot().engine.stats())
    }

    /// Submit one query. Thread-safe; blocks only when another session is
    /// already re-optimizing the same template (single-flight), in which
    /// case it returns that session's plan on completion.
    ///
    /// With tracing on (see [`ServiceConfig::trace`]) the finished span
    /// trace rides back on [`ServiceResponse::trace`].
    pub fn submit(&self, query: &Query) -> Result<ServiceResponse> {
        let tracer = self.new_tracer();
        let (mut r, _) = self.admit(query, &tracer)?;
        if tracer.is_enabled() {
            r.trace = Some(Arc::new(tracer.finish()));
        }
        Ok(r)
    }

    /// Admission proper: the response plus the snapshot it was admitted
    /// under, so [`QueryService::execute`] runs the plan on the very data
    /// state it was chosen for.
    fn admit(&self, query: &Query, tracer: &Tracer) -> Result<(ServiceResponse, Arc<Snapshot>)> {
        let t0 = Stopwatch::start();
        // lint: relaxed-ok(monotonic telemetry counter; only read by stats(), never drives a control decision)
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let r = self.admit_inner(query, t0, tracer);
        match &r {
            Ok((resp, _)) => self
                .registry
                .observe_micros("service.submit_us", micros(resp.latency)),
            Err(_) => {
                // lint: relaxed-ok(monotonic telemetry counter; only read by stats(), never drives a control decision)
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        r
    }

    fn admit_inner(
        &self,
        query: &Query,
        t0: Stopwatch,
        tracer: &Tracer,
    ) -> Result<(ServiceResponse, Arc<Snapshot>)> {
        let mut root = tracer.span(names::SERVICE_SUBMIT);
        let sub = tracer.under(&root);
        let tmpl = QueryTemplate::of(query);
        let template = tmpl.fingerprint();
        let (cached, source, snap) = loop {
            // One snapshot per attempt: everything below — validation,
            // admission, re-optimization, caching — sees a single
            // consistent data state even if an ingest publishes mid-flight.
            let snap = self.snapshot();
            // Validate up front: a malformed query must fail identically
            // whether its template is cached or not.
            query.validate(snap.engine.db())?;
            let mut adm_span = sub.span(names::SERVICE_ADMISSION);
            if adm_span.is_recording() {
                adm_span.attr_u64("template", template);
            }
            let at = snap.data_version();
            let admission = self.plans.begin(template, at, |t| snap.sample_version(t));
            let (cached, source) = match admission {
                Admission::Hit(cached) => {
                    adm_span.attr_str("source", "warm_hit");
                    drop(adm_span);
                    // lint: relaxed-ok(monotonic telemetry counter; only read by stats(), never drives a control decision)
                    self.warm_hits.fetch_add(1, Ordering::Relaxed);
                    self.registry.add("service.warm_hits", 1);
                    (cached, PlanSource::WarmHit)
                }
                Admission::Wait(flight) => {
                    adm_span.attr_str("source", "coalesced");
                    // The wait on the leading session's re-optimization
                    // stays inside the admission span: its duration is
                    // this submission's admission cost.
                    let cached = flight.wait()?;
                    // The leader may hold another snapshot than this
                    // session; only a verdict reached on this snapshot's
                    // samples may be paired with it.
                    if cached.freshness(at, |t| snap.sample_version(t)) != Freshness::Current {
                        continue;
                    }
                    drop(adm_span);
                    // lint: relaxed-ok(monotonic telemetry counter; only read by stats(), never drives a control decision)
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    self.registry.add("service.coalesced", 1);
                    (cached, PlanSource::Coalesced)
                }
                Admission::Lead(guard) => {
                    adm_span.attr_str("source", "cold_miss");
                    drop(adm_span);
                    let cached = self.lead_reoptimize(query, &snap, &tmpl, guard, &sub)?;
                    (cached, PlanSource::ColdMiss)
                }
                Admission::Revalidate { guard, stale } => {
                    adm_span.attr_str("source", "revalidate");
                    drop(adm_span);
                    // Cheapest tier first: one dry run of the stale plan.
                    // On acceptance the plan is re-admitted under the
                    // fresh samples; otherwise (ratio unset, dry-run
                    // error, or cost moved too far) fall through to a full
                    // re-optimization — the guard transfers, so waiters
                    // still get one verdict.
                    match self.try_revalidate(query, &snap, &stale, &sub) {
                        Some(cached) => {
                            guard.complete(Ok(cached.clone()));
                            // lint: relaxed-ok(monotonic telemetry counter; only read by stats(), never drives a control decision)
                            self.revalidations_saved.fetch_add(1, Ordering::Relaxed);
                            self.registry.add("plan_cache.revalidations_saved", 1);
                            (cached, PlanSource::Revalidated)
                        }
                        None => {
                            let cached = self.lead_reoptimize(query, &snap, &tmpl, guard, &sub)?;
                            (cached, PlanSource::ColdMiss)
                        }
                    }
                }
                // Each retry holds a strictly newer snapshot than the
                // last (the entry that sent us back proves one exists).
                Admission::Behind => continue,
            };
            break (cached, source, snap);
        };
        if root.is_recording() {
            root.attr_u64("template", template);
            root.attr_str(
                "source",
                match source {
                    PlanSource::ColdMiss => "cold_miss",
                    PlanSource::WarmHit => "warm_hit",
                    PlanSource::Coalesced => "coalesced",
                    PlanSource::Revalidated => "revalidated",
                },
            );
            root.attr_u64("rounds", cached.rounds as u64);
        }
        let response = ServiceResponse {
            plan: cached.plan,
            source,
            template,
            rounds: cached.rounds,
            converged: cached.converged,
            reopt_time: cached.reopt_time,
            validated_cost: cached.validated_cost,
            latency: t0.elapsed(),
            data_version: snap.data_version(),
            trace: None,
        };
        Ok((response, snap))
    }

    /// Run the full re-optimization loop as the leading session and
    /// publish the outcome through `guard` — the cold-miss path, also the
    /// fallback when a re-validation rejects its cached plan.
    fn lead_reoptimize(
        &self,
        query: &Query,
        snap: &Snapshot,
        tmpl: &QueryTemplate,
        guard: LeadGuard,
        sub: &Tracer,
    ) -> Result<CachedPlan> {
        // lint: relaxed-ok(monotonic telemetry counter; only read by stats(), never drives a control decision)
        self.reopts_run.fetch_add(1, Ordering::Relaxed);
        let outcome = snap
            .engine
            .reoptimize_with(query, &self.sample_cache, sub)
            .and_then(|report| {
                self.record_reopt(&report);
                Ok(CachedPlan {
                    plan: Arc::new(report.final_plan),
                    rounds: report.rounds.len(),
                    converged: report.converged,
                    reopt_time: report.reopt_time,
                    validated_cost: report.final_validated_cost,
                    data_version: snap.data_version(),
                    sampled_at: snap.sampled_at(tmpl.base_tables())?,
                })
            });
        guard.complete(outcome.clone());
        if outcome.is_ok() {
            // lint: relaxed-ok(monotonic telemetry counter; only read by stats(), never drives a control decision)
            self.cold_misses.fetch_add(1, Ordering::Relaxed);
            self.registry.add("service.cold_misses", 1);
        }
        outcome
    }

    /// The re-validation tier: dry-run `stale`'s plan against the fresh
    /// samples, re-cost it under the resulting Δ, and re-admit it when the
    /// new cost is within [`DriftConfig::revalidate_ratio`] of the cached
    /// one *in both directions* (a plan whose cost collapsed may no longer
    /// be the best choice either). Returns `None` — meaning "run the full
    /// loop" — when the ratio is unset, the dry run fails, the costs are
    /// non-finite, or the cost moved too far.
    fn try_revalidate(
        &self,
        query: &Query,
        snap: &Snapshot,
        stale: &CachedPlan,
        tracer: &Tracer,
    ) -> Option<CachedPlan> {
        let ratio = self.drift.revalidate_ratio?;
        // lint: relaxed-ok(monotonic telemetry counter; only read by stats(), never drives a control decision)
        self.revalidations.fetch_add(1, Ordering::Relaxed);
        self.registry.add("plan_cache.revalidations", 1);
        let mut span = tracer.span(names::SERVICE_REVALIDATE);
        let sub = tracer.under(&span);
        let cost = snap
            .engine
            .revalidate_plan(query, &stale.plan, &self.sample_cache, &sub)
            .ok()?;
        let accepted = cost.is_finite()
            && stale.validated_cost.is_finite()
            && cost <= stale.validated_cost * ratio
            && stale.validated_cost <= cost * ratio;
        if span.is_recording() {
            span.attr_f64("cached_cost", stale.validated_cost);
            span.attr_f64("revalidated_cost", cost);
            span.attr_bool("accepted", accepted);
        }
        if !accepted {
            return None;
        }
        Some(CachedPlan {
            plan: Arc::clone(&stale.plan),
            rounds: stale.rounds,
            converged: stale.converged,
            reopt_time: stale.reopt_time,
            validated_cost: cost,
            data_version: snap.data_version(),
            sampled_at: snap
                .sampled_at(stale.sampled_at.iter().map(|&(t, _)| t))
                .ok()?,
        })
    }

    /// Fold one re-optimization report into the metrics registry.
    fn record_reopt(&self, report: &reopt_core::ReoptReport) {
        self.registry.add("reopt.runs", 1);
        self.registry
            .add("reopt.rounds", report.rounds.len() as u64);
        if report.converged {
            self.registry.add("reopt.converged", 1);
        }
        self.registry
            .observe_micros("reopt.time_us", micros(report.reopt_time));
    }

    /// Submit one query *and run its plan to completion* against the full
    /// database with the service's executor options — plan admission is
    /// identical to [`QueryService::submit`], and the execution exploits
    /// [`ExecOpts::threads`] (partition-parallel scans and hash joins,
    /// bit-identical results at any thread count).
    ///
    /// With the engine's [`ReOptConfig::mid_query`] on, the admitted plan
    /// executes under the suspend → refine → replan → resume loop:
    /// execution pauses at each materialization point, exact observed
    /// cardinalities re-plan the remainder, and checkpointed subtrees are
    /// spliced into the successor — the result is equivalent either way,
    /// and [`ExecutedQuery::mid_query`] reports what the loop did.
    ///
    /// [`ReOptConfig::mid_query`]: reopt_core::ReOptConfig::mid_query
    pub fn execute(&self, query: &Query) -> Result<ExecutedQuery> {
        self.execute_with_tracer(query, self.new_tracer())
    }

    /// [`QueryService::execute`] with tracing forced on for this query,
    /// whatever [`ServiceConfig::trace`] says. The finished trace — one
    /// span tree covering admission, every re-optimization round, any
    /// mid-query suspensions, and per-operator execution — rides back on
    /// [`ExecutedQuery::trace`].
    pub fn execute_traced(&self, query: &Query) -> Result<ExecutedQuery> {
        self.execute_with_tracer(query, Tracer::enabled())
    }

    fn execute_with_tracer(&self, query: &Query, tracer: Tracer) -> Result<ExecutedQuery> {
        let t0 = Stopwatch::start();
        let r = self.execute_inner(query, &tracer);
        if let Ok(eq) = &r {
            self.registry
                .observe_micros("service.execute_us", micros(t0.elapsed()));
            self.record_execution(eq);
        }
        match r {
            Ok(mut eq) => {
                if tracer.is_enabled() {
                    eq.trace = Some(Arc::new(tracer.finish()));
                }
                Ok(eq)
            }
            Err(e) => Err(e),
        }
    }

    fn execute_inner(&self, query: &Query, tracer: &Tracer) -> Result<ExecutedQuery> {
        let mut root = tracer.span(names::SERVICE_EXECUTE);
        let inner = tracer.under(&root);
        // The plan runs on the snapshot it was admitted under, never on a
        // later one an ingest published in between.
        let (response, snap) = self.admit(query, &inner)?;
        let engine = &snap.engine;
        let exec_opts = ExecOpts {
            tracer: inner.clone(),
            ..self.exec_opts.clone()
        };
        let out = if engine.reopt_config().mid_query {
            let t0 = Stopwatch::start();
            let run = engine.execute_plan_mid_query(query, &response.plan, exec_opts)?;
            let mut metrics = run.metrics.clone();
            metrics.elapsed = t0.elapsed();
            let output = QueryOutput {
                join_rows: run.join_rows(),
                agg: run.agg,
                metrics,
            };
            ExecutedQuery {
                response,
                output,
                mid_query: Some(run.report.stats),
                trace: None,
            }
        } else {
            let exec = Executor::with_opts(engine.db(), exec_opts);
            let output = exec.run(query, &response.plan)?;
            ExecutedQuery {
                response,
                output,
                mid_query: None,
                trace: None,
            }
        };
        if root.is_recording() {
            root.attr_u64("join_rows", out.output.join_rows);
            root.attr_bool("mid_query", out.mid_query.is_some());
        }
        Ok(out)
    }

    /// Fold one execution's counters into the metrics registry.
    fn record_execution(&self, eq: &ExecutedQuery) {
        let m = &eq.output.metrics;
        self.registry.add("exec.queries", 1);
        self.registry.add("exec.rows_scanned", m.rows_scanned);
        self.registry.add("exec.rows_produced", m.rows_produced);
        self.registry.add("exec.index_probes", m.index_probes);
        self.registry.add("exec.parallel_ops", m.parallel_ops);
        self.registry
            .add("exec.parallel_workers", m.parallel_workers);
        self.registry
            .add("exec.batches_processed", m.batches_processed);
        self.registry.add("exec.batch_rows", m.batch_rows);
        self.registry.add("exec.dict_hits", m.dict_hits);
        self.registry
            .observe_micros("exec.time_us", micros(m.elapsed));
        if let Some(mq) = &eq.mid_query {
            self.registry
                .add("midquery.suspensions", mq.suspensions as u64);
            self.registry.add("midquery.replans", mq.replans as u64);
            self.registry
                .add("midquery.plan_switches", mq.plan_switches as u64);
            self.registry
                .add("midquery.checkpoints", mq.checkpoints as u64);
            self.registry.add("midquery.splices", mq.splices as u64);
            self.registry.add(
                "midquery.exact_gamma_entries",
                mq.exact_gamma_entries as u64,
            );
        }
    }

    /// A tracer honoring the service's tracing default.
    pub(crate) fn new_tracer(&self) -> Tracer {
        if self.trace_default {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            // lint: relaxed-ok(point-in-time telemetry snapshot; each counter is independently monotonic and no cross-counter invariant is promised)
            submitted: self.submitted.load(Ordering::Relaxed),
            // lint: relaxed-ok(point-in-time telemetry snapshot; each counter is independently monotonic and no cross-counter invariant is promised)
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            // lint: relaxed-ok(point-in-time telemetry snapshot; each counter is independently monotonic and no cross-counter invariant is promised)
            cold_misses: self.cold_misses.load(Ordering::Relaxed),
            // lint: relaxed-ok(point-in-time telemetry snapshot; each counter is independently monotonic and no cross-counter invariant is promised)
            coalesced: self.coalesced.load(Ordering::Relaxed),
            // lint: relaxed-ok(point-in-time telemetry snapshot; each counter is independently monotonic and no cross-counter invariant is promised)
            reopts_run: self.reopts_run.load(Ordering::Relaxed),
            // lint: relaxed-ok(point-in-time telemetry snapshot; each counter is independently monotonic and no cross-counter invariant is promised)
            errors: self.errors.load(Ordering::Relaxed),
            lru_evictions: self.plans.lru_evictions(),
            stale_evictions: 0,
            table_evictions: self.plans.table_evictions(),
            // lint: relaxed-ok(point-in-time telemetry snapshot; each counter is independently monotonic and no cross-counter invariant is promised)
            revalidations: self.revalidations.load(Ordering::Relaxed),
            // lint: relaxed-ok(point-in-time telemetry snapshot; each counter is independently monotonic and no cross-counter invariant is promised)
            revalidations_saved: self.revalidations_saved.load(Ordering::Relaxed),
            cached_templates: self.plans.len(),
            sample_cache: self.sample_cache.stats(),
            latency: self.registry.latency_summary("service.submit_us"),
        }
    }

    /// Point-in-time snapshot of the unified metrics registry: counters and
    /// latency histograms accumulated from served queries (`service.*`,
    /// `reopt.*`, `exec.*`, `midquery.*`), overlaid with the live service
    /// and cache counters. Keys are stable and ordered; see the README's
    /// Telemetry section for the catalog.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.registry.snapshot();
        let s = self.stats();
        snap.set_counter("service.submitted", s.submitted);
        snap.set_counter("service.warm_hits", s.warm_hits);
        snap.set_counter("service.cold_misses", s.cold_misses);
        snap.set_counter("service.coalesced", s.coalesced);
        snap.set_counter("service.reopts_run", s.reopts_run);
        snap.set_counter("service.errors", s.errors);
        snap.set_counter("plan_cache.lru_evictions", s.lru_evictions);
        snap.set_counter("plan_cache.table_evictions", s.table_evictions);
        snap.set_counter("plan_cache.revalidations", s.revalidations);
        snap.set_counter("plan_cache.revalidations_saved", s.revalidations_saved);
        snap.set_gauge("plan_cache.templates", s.cached_templates as f64);
        snap.set_gauge(
            "service.data_version",
            self.snapshot().data_version().get() as f64,
        );
        snap.set_counter("sample_cache.hits", s.sample_cache.hits as u64);
        snap.set_counter("sample_cache.executed", s.sample_cache.executed as u64);
        snap.set_gauge("sample_cache.entries", s.sample_cache.entries as f64);
        snap.set_gauge("sample_cache.validated", s.sample_cache.validated as f64);
        snap
    }

    /// The sample dry-run cache every session's validations go through.
    pub fn sample_cache(&self) -> &SharedSampleRunCache {
        &self.sample_cache
    }

    /// Open a session — a thin per-client handle with an id and a local
    /// submission count.
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            service: Arc::clone(self),
            // lint: relaxed-ok(fetch_add RMWs on one atomic are totally ordered, so ids are unique; no other memory is published with the id)
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
            submitted: 0,
        }
    }
}

/// The result of [`QueryService::execute`]: how the plan was obtained plus
/// what running it produced.
#[derive(Debug, Clone)]
pub struct ExecutedQuery {
    /// Plan admission outcome (source, template, latency, ...).
    pub response: ServiceResponse,
    /// Full-database execution result (join cardinality, aggregates,
    /// metrics — including the parallel-worker counters).
    pub output: QueryOutput,
    /// Mid-query re-optimization counters, present iff
    /// [`ReOptConfig::mid_query`](reopt_core::ReOptConfig::mid_query) was
    /// on for this service's engine.
    pub mid_query: Option<MidQueryStats>,
    /// The finished span trace — admission through per-operator execution —
    /// present iff tracing was on for this query (see
    /// [`ServiceConfig::trace`] and [`QueryService::execute_traced`]).
    pub trace: Option<Arc<QueryTrace>>,
}

/// One client's handle on the service. Sessions are cheap (an `Arc` clone
/// and a counter) and independent: drop them freely, open one per thread.
/// Deliberately not `Clone` — ids are unique per service, so a new thread
/// gets its own [`QueryService::session`], never a copy.
#[derive(Debug)]
pub struct Session {
    service: Arc<QueryService>,
    id: u64,
    submitted: u64,
}

impl Session {
    /// This session's id (unique per service).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Queries this session has submitted.
    pub fn queries_submitted(&self) -> u64 {
        self.submitted
    }

    /// The service this session talks to.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Submit one query through this session.
    pub fn submit(&mut self, query: &Query) -> Result<ServiceResponse> {
        self.submitted += 1;
        self.service.submit(query)
    }

    /// Submit and execute one query through this session.
    pub fn execute(&mut self, query: &Query) -> Result<ExecutedQuery> {
        self.submitted += 1;
        self.service.execute(query)
    }

    /// Submit and execute one query with tracing forced on (see
    /// [`QueryService::execute_traced`]).
    pub fn execute_traced(&mut self, query: &Query) -> Result<ExecutedQuery> {
        self.submitted += 1;
        self.service.execute_traced(query)
    }
}
