//! The paper's contribution: **sampling-based query re-optimization**
//! (Algorithm 1 of Wu, Naughton & Singh, SIGMOD 2016).
//!
//! Given an [`Optimizer`](reopt_optimizer::Optimizer) and a
//! [`SampleStore`](reopt_sampling::SampleStore), the
//! [`reopt::ReOptimizer`] repeatedly asks the optimizer for a
//! plan, dry-runs the plan's join subtrees over the samples, feeds the
//! validated cardinalities (Γ) back, and stops when the plan no longer
//! changes. [`report::ReoptReport`] captures the full trace —
//! enough to regenerate every re-optimization figure of the paper and to
//! machine-check Theorems 1, 2 and 5 on real runs.
//!
//! A chosen plan reaches rows through one function in [`midquery`], the
//! only reader of [`ReOptConfig::mid_query`]: straight through, or under
//! the suspend → replan → resume loop. [`ReOptimizer::execute`] seeds it
//! with the sampling loop's Γ and DP memo; [`ReoptEngine::execute_plan`]
//! (the serving layer's path) with empty ones.

pub mod engine;
pub mod midquery;
pub mod reopt;
pub mod report;

pub use engine::ReoptEngine;
pub use midquery::{execute_mid_query, MidQueryOpts, MidQueryReport, MidQueryRun, MidQueryStats};
pub use reopt::{ExecutedReopt, ReOptConfig, ReOptimizer};
pub use report::{ReoptReport, ReoptSummary, RoundReport};
