//! Benchmark and figure-reproduction harness.
//!
//! **Figure harnesses** (`src/bin/fig*.rs`) — one binary per figure (or
//! figure group) of the paper. Each prints the same rows/series the paper
//! reports, with paper-vs-measured columns where applicable. Run them with
//! `cargo run --release -p reopt-bench --bin <name>`; `reproduce_all`
//! chains every harness, and `ablations` runs the design ablations.
//!
//! The [`harness`] module holds the shared experiment-runner plumbing:
//! building databases once per process, timing plans through the
//! re-optimization loop, and rendering aligned text tables.

pub mod experiments;
pub mod harness;

pub use harness::{fmt_ms, quick_mode, QueryRun, Runner, RunnerConfig, TextTable};
