//! Sampling subsystem: offline Bernoulli samples, the Haas et al. join
//! selectivity estimator (§2.1 of the paper), and plan validation — the
//! `GetCardinalityEstimatesBySampling` step of Algorithm 1. The [`cache`]
//! module adds cross-round dry-run caching for incremental
//! re-optimization: one clonable, thread-safe cache
//! ([`SharedSampleRunCache`]) that also pools dry-run subtree row sets
//! across the concurrent sessions of a query service.

pub mod cache;
pub mod estimator;
pub mod sampler;
pub mod validator;

pub use cache::{subtree_fingerprint, SampleCacheStats, SharedSampleRunCache};
pub use estimator::{cardinality_estimate, scale_up, selectivity_estimate};
pub use sampler::{SampleConfig, SampleStore};
pub use validator::{validate_plan, validate_plan_cached, Validation, ValidationOpts};
