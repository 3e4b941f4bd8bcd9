//! Shared experiment-runner plumbing for the figure harnesses.

use std::sync::Arc;
use std::time::Instant;

use reopt_common::Result;
use reopt_core::{ReOptConfig, ReoptEngine, ReoptReport};
use reopt_executor::{ExecOpts, Executor};
use reopt_optimizer::OptimizerConfig;
use reopt_plan::{PhysicalPlan, Query};
use reopt_sampling::SampleConfig;
use reopt_stats::AnalyzeOpts;
use reopt_storage::Database;

/// Configuration for a [`Runner`].
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Sampling ratio (paper: 0.05).
    pub sample_ratio: f64,
    /// Seed for sampling.
    pub seed: u64,
    /// Re-optimization loop settings.
    pub reopt: ReOptConfig,
    /// Execution guard for measured runs.
    pub max_intermediate_rows: u64,
    /// Also execute every distinct intermediate plan on the full database
    /// (Figures 14–15). Off by default: intermediate plans can be the
    /// pathological ones.
    pub measure_rounds: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            sample_ratio: 0.05,
            seed: 0xbe7c,
            reopt: ReOptConfig::default(),
            max_intermediate_rows: 100_000_000,
            measure_rounds: false,
        }
    }
}

/// Measurements for one query instance.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Wall time of the optimizer's original plan (round 1), milliseconds.
    pub original_ms: f64,
    /// Wall time of the re-optimized (final) plan, milliseconds.
    pub reopt_ms: f64,
    /// Time spent inside the re-optimization loop, milliseconds.
    pub reopt_overhead_ms: f64,
    /// Optimizer invocations.
    pub rounds: usize,
    /// Distinct plans generated (the paper's Figures 5/8/16/20 metric).
    pub distinct_plans: usize,
    /// Did the final plan differ from the original?
    pub plan_changed: bool,
    /// Join-result cardinality (sanity/diagnostics).
    pub join_rows: u64,
    /// Execution time of each distinct plan, in generation order
    /// (only when `measure_rounds` is set; `None` = exceeded the guard).
    pub per_plan_ms: Vec<Option<f64>>,
    /// The full loop trace.
    pub report: ReoptReport,
}

/// An experiment runner bound to one database + optimizer configuration.
pub struct Runner {
    engine: ReoptEngine,
    config: RunnerConfig,
}

impl Runner {
    /// Analyze and sample `db`, binding the given optimizer configuration.
    pub fn new(
        db: &Arc<Database>,
        opt_config: OptimizerConfig,
        config: RunnerConfig,
    ) -> Result<Self> {
        let sample = SampleConfig {
            ratio: config.sample_ratio,
            seed: config.seed,
            ..Default::default()
        };
        let engine = ReoptEngine::from_database_with_configs(
            Arc::clone(db),
            &AnalyzeOpts::default(),
            sample,
            opt_config,
            config.reopt.clone(),
        )?;
        Ok(Runner { engine, config })
    }

    /// Swap in a different optimizer configuration (e.g. calibrated cost
    /// units) while reusing the stats and samples.
    pub fn with_optimizer_config(&self, opt_config: OptimizerConfig) -> Runner {
        let e = &self.engine;
        Runner {
            engine: ReoptEngine::with_configs(
                Arc::clone(e.db()),
                Arc::clone(e.stats()),
                Arc::clone(e.samples()),
                opt_config,
                e.reopt_config().clone(),
            ),
            config: self.config.clone(),
        }
    }

    /// The bound database.
    pub fn database(&self) -> &Database {
        self.engine.db()
    }

    /// Time one plan on the full database; `None` if it blows the guard.
    pub fn time_plan(&self, query: &Query, plan: &PhysicalPlan) -> Option<(f64, u64)> {
        let exec = Executor::with_opts(
            self.engine.db(),
            ExecOpts {
                max_intermediate_rows: self.config.max_intermediate_rows,
                ..Default::default()
            },
        );
        let t = Instant::now();
        match exec.run(query, plan) {
            Ok(out) => Some((t.elapsed().as_secs_f64() * 1e3, out.join_rows)),
            Err(_) => None,
        }
    }

    /// Run the full pipeline on one query: re-optimize, then execute the
    /// original and final plans on the full database.
    pub fn run_query(&self, query: &Query) -> Result<QueryRun> {
        let report = self.engine.reoptimize(query)?;

        let original_plan = &report.rounds[0].plan;
        let (original_ms, _) = self
            .time_plan(query, original_plan)
            .unwrap_or((f64::INFINITY, 0));
        let (reopt_ms, join_rows) = self
            .time_plan(query, &report.final_plan)
            .unwrap_or((f64::INFINITY, 0));

        let per_plan_ms = if self.config.measure_rounds {
            report
                .distinct_plans()
                .iter()
                .map(|p| self.time_plan(query, p).map(|(ms, _)| ms))
                .collect()
        } else {
            Vec::new()
        };

        Ok(QueryRun {
            original_ms,
            reopt_ms,
            reopt_overhead_ms: report.reopt_time.as_secs_f64() * 1e3,
            rounds: report.num_rounds(),
            distinct_plans: report.num_distinct_plans(),
            plan_changed: report.plan_changed(),
            join_rows,
            per_plan_ms,
            report,
        })
    }
}

/// Minimal aligned-text table for harness output.
#[derive(Debug, Clone)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn push(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Format milliseconds compactly.
pub fn fmt_ms(ms: f64) -> String {
    if !ms.is_finite() {
        ">guard".to_string()
    } else if ms >= 1000.0 {
        format!("{:.2}s", ms / 1000.0)
    } else if ms >= 1.0 {
        format!("{ms:.1}ms")
    } else {
        format!("{:.0}us", ms * 1000.0)
    }
}

/// True when `--quick` was passed (reduced instance counts).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_aligns_columns() {
        let mut t = TextTable::new("demo", &["name", "value"]);
        t.push(vec!["a".into(), "1".into()]);
        t.push(vec!["longer-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows.
        assert_eq!(lines.len(), 5);
        // Column start positions align.
        let col = lines[1].find("value").unwrap();
        assert_eq!(lines[3].find('1').unwrap(), col);
        assert_eq!(lines[4].find("22").unwrap(), col);
    }

    #[test]
    fn fmt_ms_ranges() {
        assert_eq!(fmt_ms(0.0005), "0us"); // rounds down below 1us
        assert_eq!(fmt_ms(0.5), "500us");
        assert_eq!(fmt_ms(5.25), "5.2ms");
        assert_eq!(fmt_ms(1500.0), "1.50s");
        assert_eq!(fmt_ms(f64::INFINITY), ">guard");
    }

    #[test]
    fn runner_config_defaults_follow_paper() {
        let c = RunnerConfig::default();
        assert!((c.sample_ratio - 0.05).abs() < 1e-12);
        assert!(!c.measure_rounds);
    }
}
