//! Columnar query executor.
//!
//! Executes [`PhysicalPlan`](reopt_plan::PhysicalPlan)s against a
//! [`Database`](reopt_storage::Database). The same executor runs plans over
//! the base tables *and* over sample tables — the paper's re-optimization
//! loop literally executes the optimizer's tentative plans on the samples
//! ("dry runs", §6), so sharing the execution path is both simpler and more
//! faithful.
//!
//! Intermediate results are [`rowset::RowSet`]s: per-relation
//! vectors of row ids into the base tables, aligned by output position.
//! Joins therefore never copy payload columns; values are gathered lazily
//! from the stored columns when needed (join keys, aggregates).
//!
//! Operators: sequential scan, index scan, hash join, sort-merge join,
//! naive nested loops, index nested loops, and a hash-aggregation epilogue.
//! Sequential scans and hash joins execute partition-parallel under
//! [`exec::ExecOpts::threads`], with results bit-identical to serial
//! execution (see the [`exec`] module docs for the determinism argument).
//! [`reference`] is the row-at-a-time oracle the differential tests compare
//! the engine against.

pub mod agg;
pub mod checkpoint;
pub mod exec;
pub mod explain;
pub mod metrics;
pub mod reference;
pub mod rowset;

pub use agg::{aggregate, AggOutput};
pub use checkpoint::{CheckpointStore, ExecStep};
pub use exec::{
    default_threads, execute_plan, execute_query, ExecOpts, Executor, QueryOutput, SubtreeCache,
    TracedRun,
};
pub use explain::explain_analyze;
pub use metrics::ExecMetrics;
pub use rowset::RowSet;
