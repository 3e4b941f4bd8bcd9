//! Concurrent query serving over sampling-based re-optimization.
//!
//! The paper makes per-query re-optimization cheap; a serving system makes
//! it *rare*. This crate fronts the whole pipeline
//! ([`reopt_core::ReoptEngine`]) with a thread-safe [`QueryService`]:
//!
//! * **Template plan cache** — final plans are keyed by
//!   [`reopt_plan::template_fingerprint`] (query structure with literals
//!   parameterized out), so repeated arrivals of a query shape cost a hash
//!   lookup, not a sampling loop.
//! * **Single-flight admission** — N concurrent sessions hitting the same
//!   cold template trigger exactly one re-optimization; the other N−1
//!   block on the leader's result and receive the identical plan
//!   ([`cache::PlanCache`]).
//! * **LRU + staleness eviction** — the cache is capacity-bounded, and a
//!   statistics refresh ([`QueryService::bump_stats_version`]) lazily
//!   invalidates every plan computed under the old statistics.
//! * **Snapshots** — the service's state (database, statistics, samples,
//!   drift baseline) is an immutable snapshot behind one `Arc`: a request
//!   loads it once and plans and executes against it alone, while ingest
//!   derives a successor off to the side and publishes it in one pointer
//!   swap ([`ingest`]). [`ServiceResponse::data_version`] names the
//!   snapshot a response was admitted under.
//! * **Shared sampling state** — cold misses on *different* templates
//!   pool their dry-run work through one
//!   [`reopt_sampling::SharedSampleRunCache`], so a subtree validated for
//!   one template is replayed, not re-executed, for the next.
//!
//! The repository benchmark (`benchmark/README.md`) measures the cold and
//! warm regimes; the README's "Serving architecture" section walks through
//! the design.

pub mod cache;
pub mod ingest;
pub mod service;

pub use cache::{CachedPlan, PlanCache};
pub use ingest::{DriftConfig, IngestReport};
pub use service::{
    ExecutedQuery, PlanSource, QueryService, ServiceConfig, ServiceResponse, ServiceStats, Session,
};
