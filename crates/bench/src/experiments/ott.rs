//! Figures 10, 11, 16, 17, 18: the Optimizer Torture Test.
//!
//! The paper's headline result: original plans take hundreds to thousands
//! of seconds, re-optimized plans finish in under a second, uniformly
//! across all 10 four-join and 30 five-join queries. At library scale the
//! absolute numbers shrink but the orders-of-magnitude gap and the
//! all-queries-fixed pattern are the reproduction targets.

use std::sync::Arc;

use crate::harness::{fmt_ms, Runner, RunnerConfig, TextTable};
use reopt_common::Result;
use reopt_optimizer::{calibrate, OptimizerConfig};
use reopt_workloads::ott::{
    build_ott_database, ott_query, ott_query_suite, recommended_sample_ratio, OttConfig,
};

/// Measurements for one OTT suite (n tables, m majority selections).
pub struct OttSuiteResult {
    /// Per-query rows: (constants, original ms, reopt ms, overhead ms,
    /// plans, rows).
    pub rows: Vec<(Vec<i64>, f64, f64, f64, usize, u64)>,
}

/// Run one OTT suite against a runner.
pub fn run_suite(runner: &Runner, n: usize, m: usize) -> Result<OttSuiteResult> {
    let mut rows = Vec::new();
    for consts in ott_query_suite(n, m) {
        let q = ott_query(runner.database(), &consts)?;
        let run = runner.run_query(&q)?;
        rows.push((
            consts,
            run.original_ms,
            run.reopt_ms,
            run.reopt_overhead_ms,
            run.distinct_plans,
            run.join_rows,
        ));
    }
    Ok(OttSuiteResult { rows })
}

/// The full Figures 10/11 + 16/17/18 experiment.
pub fn run(quick: bool) -> Result<Vec<TextTable>> {
    let config = OttConfig {
        rows_per_value: if quick { 10 } else { 20 },
        ..Default::default()
    };
    let db = Arc::new(build_ott_database(&config)?);
    let runner_config = RunnerConfig {
        sample_ratio: recommended_sample_ratio(&config),
        ..Default::default()
    };
    let runner = Runner::new(&db, OptimizerConfig::postgres_like(), runner_config)?;

    let report = calibrate(7, 1);
    let mut calib = OptimizerConfig::postgres_like();
    calib.cost_units = report.units;
    let runner_cal = runner.with_optimizer_config(calib);

    let mut tables = Vec::new();
    for (n, m, fig_rt, fig_plans, fig_ovh) in [
        (5usize, 4usize, "Figure 10", "Figure 16(a)", "Figure 17"),
        (6, 4, "Figure 11", "Figure 16(b)", "Figure 18"),
    ] {
        let base = run_suite(&runner, n, m)?;
        let cal = run_suite(&runner_cal, n, m)?;

        let mut t = TextTable::new(
            format!(
                "{fig_rt} — OTT {}-join queries (paper: original plans 100s–1000s of seconds, re-optimized < 1 s)",
                n - 1
            ),
            &["query", "constants", "orig (default)", "reopt (default)", "orig (calibrated)", "reopt (calibrated)", "result rows"],
        );
        for (i, ((c, o, r, _, _, rows), (_, oc, rc, _, _, _))) in
            base.rows.iter().zip(&cal.rows).enumerate()
        {
            t.push(vec![
                format!("{}", i + 1),
                format!("{c:?}"),
                fmt_ms(*o),
                fmt_ms(*r),
                fmt_ms(*oc),
                fmt_ms(*rc),
                rows.to_string(),
            ]);
        }
        tables.push(t);

        let mut tp = TextTable::new(
            format!("{fig_plans} — plans generated during OTT re-optimization"),
            &["query", "plans (default)", "plans (calibrated)"],
        );
        for (i, ((_, _, _, _, p, _), (_, _, _, _, pc, _))) in
            base.rows.iter().zip(&cal.rows).enumerate()
        {
            tp.push(vec![format!("{}", i + 1), p.to_string(), pc.to_string()]);
        }
        tables.push(tp);

        let mut to = TextTable::new(
            format!("{fig_ovh} — OTT execution excluding vs including re-optimization time"),
            &["query", "exec only", "reopt + exec"],
        );
        for (i, (_, _, r, ovh, _, _)) in base.rows.iter().enumerate() {
            to.push(vec![format!("{}", i + 1), fmt_ms(*r), fmt_ms(*r + *ovh)]);
        }
        tables.push(to);
    }
    Ok(tables)
}
