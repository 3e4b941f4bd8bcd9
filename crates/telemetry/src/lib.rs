//! `reopt_telemetry` — deterministic-safe observability for the
//! re-optimization pipeline (Wu, Naughton & Singh, SIGMOD 2016).
//!
//! Three pieces:
//!
//! * [`span`] — structured spans. A [`Tracer`] handle is threaded through
//!   `QueryService::submit/execute`, the Algorithm 1 loop behind
//!   `ReoptEngine::reoptimize_with` and `ReoptEngine::execute`, the one
//!   plan-execution path behind `ReoptEngine::execute`/`execute_plan`
//!   (straight through, or the `midquery.*` loop), cached sample
//!   validation and the executor; each layer opens named, nested spans
//!   with typed attributes. A disabled tracer is a true no-op.
//! * [`metrics`] — an ordered counters/gauges/histograms registry with a
//!   fixed-bucket latency histogram (p50/p95/p99 within 12.5%). Samples
//!   are whole microseconds, so a sub-µs operation (a warm plan-cache hit
//!   in an optimized build) records 0.
//! * [`export`] — Chrome-trace-format (Perfetto-loadable) and JSON-lines
//!   writers for finished [`QueryTrace`]s.
//!
//! The crate depends only on `reopt-common` (for `Stopwatch`, the sole
//! sanctioned clock, and `lock_unpoisoned`).

pub mod export;
pub mod metrics;
pub mod span;

pub use metrics::{
    HistogramSnapshot, LatencyHistogram, LatencySummary, MetricsRegistry, TelemetrySnapshot,
};
pub use span::{env_trace_default, AttrValue, QueryTrace, Span, SpanRecord, Tracer};

/// Canonical span names — the span taxonomy — and the metric keys that
/// one place writes and another reads back. Every span emitted by the
/// workspace uses one of these constants so traces are greppable and the
/// README table stays authoritative; a key read back by name (e.g. by
/// `QueryService::stats`) is a constant so a misspelling cannot silently
/// read 0.
pub mod names {
    /// `QueryService::submit` root: one per admission.
    pub const SERVICE_SUBMIT: &str = "service.submit";
    /// Plan-cache admission decision (attrs: `template`, `source`).
    pub const SERVICE_ADMISSION: &str = "service.admission";
    /// `QueryService::execute` root: submit + run + aggregate.
    pub const SERVICE_EXECUTE: &str = "service.execute";
    /// Whole re-optimization loop (attrs: `rounds`, `converged`).
    pub const REOPT_LOOP: &str = "reopt.loop";
    /// One plan→validate round (attrs: `round`, `terminal`, `gamma_new`).
    pub const REOPT_ROUND: &str = "reopt.round";
    /// DP join-order search inside a round (attrs: `subsets_reused`,
    /// `subsets_replanned`).
    pub const OPTIMIZER_DP: &str = "optimizer.dp";
    /// Sample dry-run validation (attrs: `cache_hits`, `subtrees_executed`,
    /// `sample_rows`, `delta_len`).
    pub const SAMPLING_DRY_RUN: &str = "sampling.dry_run";
    /// Whole mid-query execution loop (attrs: `suspensions`, `replans`,
    /// `plan_switches`).
    pub const MIDQUERY_RUN: &str = "midquery.run";
    /// One pipeline segment between suspensions.
    pub const MIDQUERY_SEGMENT: &str = "midquery.segment";
    /// A suspension: Γ refinement from observed cardinalities (attrs:
    /// `breaker`, `breaker_rows`, `replan`).
    pub const MIDQUERY_SUSPEND: &str = "midquery.suspend";
    /// Re-planning with pinned completed subtrees (attrs: `pins`,
    /// `switched`).
    pub const MIDQUERY_REPLAN: &str = "midquery.replan";
    /// Checkpoint splice of completed work into the new plan (attr:
    /// `reused`).
    pub const MIDQUERY_SPLICE: &str = "midquery.splice";
    /// One physical operator execution (attrs: `op`, `node`, `rows`,
    /// `cache_hit`).
    pub const EXEC_OPERATOR: &str = "exec.operator";
    /// Final aggregation over join output.
    pub const EXEC_AGGREGATE: &str = "exec.aggregate";
    /// One ingest operation root (attrs: `table`, `rows_appended`,
    /// `rows_deleted`, `data_version`, `drift`, `refreshed`).
    pub const SERVICE_INGEST: &str = "service.ingest";
    /// Post-ingest incremental ANALYZE (attrs: `reused`, `merged`,
    /// `rescanned`).
    pub const INGEST_ANALYZE: &str = "ingest.analyze";
    /// Drift measurement against the validation baseline (attrs: `max`,
    /// `threshold`, `tables_over`).
    pub const INGEST_DRIFT: &str = "ingest.drift";
    /// Surgical refresh after drift crossed the threshold: drifted
    /// tables' samples redrawn, disjoint dry-run entries migrated, the
    /// new snapshot published (attrs: `tables_refreshed`,
    /// `sample_entries_kept`, `sample_entries_dropped`).
    pub const INGEST_REFRESH: &str = "ingest.refresh";
    /// Cached-plan re-validation on admission of a surgically-evicted
    /// template (attrs: `template`, `cached_cost`, `revalidated_cost`,
    /// `accepted`).
    pub const SERVICE_REVALIDATE: &str = "service.revalidate";

    /// Counter: queries submitted to the service.
    pub const SERVICE_SUBMITTED: &str = "service.submitted";
    /// Counter: submissions answered from the plan cache.
    pub const SERVICE_WARM_HITS: &str = "service.warm_hits";
    /// Counter: submissions answered by their own re-optimization.
    pub const SERVICE_COLD_MISSES: &str = "service.cold_misses";
    /// Counter: submissions answered by another session's in-flight
    /// re-optimization.
    pub const SERVICE_COALESCED: &str = "service.coalesced";
    /// Counter: submissions that returned an error.
    pub const SERVICE_ERRORS: &str = "service.errors";
    /// Counter: re-optimization loops the service started.
    pub const SERVICE_REOPTS_RUN: &str = "service.reopts_run";
    /// Histogram: submission latency, admission to response (µs).
    pub const SERVICE_SUBMIT_US: &str = "service.submit_us";
    /// Counter: cached plans evicted to respect the capacity bound.
    pub const PLAN_CACHE_LRU_EVICTIONS: &str = "plan_cache.lru_evictions";
    /// Counter: cached plans handed out for re-validation because a base
    /// table's sample was redrawn since they were validated.
    pub const PLAN_CACHE_TABLE_EVICTIONS: &str = "plan_cache.table_evictions";
    /// Counter: cached-plan re-validations attempted.
    pub const PLAN_CACHE_REVALIDATIONS: &str = "plan_cache.revalidations";
    /// Counter: re-validations that re-admitted the cached plan.
    pub const PLAN_CACHE_REVALIDATIONS_SAVED: &str = "plan_cache.revalidations_saved";
    /// Counter: dry-run subtrees answered from the shared sample-run cache.
    pub const SAMPLE_CACHE_HITS: &str = "sample_cache.hits";
    /// Counter: dry-run subtrees executed fresh over the samples.
    pub const SAMPLE_CACHE_EXECUTED: &str = "sample_cache.executed";
}
