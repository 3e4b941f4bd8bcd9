//! Figures 19–20: the TPC-DS-like workload (Appendix A.2).
//!
//! Expected shape: no remarkable improvement on the stock templates (the
//! paper found the same), `q28`/`q55`/`q62` trivially unchanged, and the
//! hand-tweaked `q50p` variant improving severalfold once re-optimization
//! catches the sale→return date correlation.

use std::sync::Arc;

use crate::harness::{fmt_ms, Runner, RunnerConfig, TextTable};
use reopt_common::rng::derive_rng_indexed;
use reopt_common::Result;
use reopt_optimizer::{calibrate, OptimizerConfig};
use reopt_workloads::tpcds::{all_template_names, build_tpcds_database, instantiate, TpcdsConfig};

/// The Figures 19–20 experiment.
pub fn run(quick: bool) -> Result<Vec<TextTable>> {
    let instances = if quick { 1 } else { 5 };
    let db = Arc::new(build_tpcds_database(&TpcdsConfig {
        scale: if quick { 0.2 } else { 1.0 },
        ..Default::default()
    })?);
    let runner = Runner::new(
        &db,
        OptimizerConfig::postgres_like(),
        RunnerConfig::default(),
    )?;
    let report = calibrate(7, 1);
    let mut calib = OptimizerConfig::postgres_like();
    calib.cost_units = report.units;
    let runner_cal = runner.with_optimizer_config(calib);

    let mut t_rt = TextTable::new(
        "Figure 19 — TPC-DS-like runtimes (paper: only Q50' improves, ~57% reduction)",
        &[
            "query",
            "orig (default)",
            "reopt (default)",
            "orig (calibrated)",
            "reopt (calibrated)",
        ],
    );
    let mut t_plans = TextTable::new(
        "Figure 20 — plans generated during TPC-DS re-optimization",
        &["query", "plans (default)", "plans (calibrated)"],
    );

    for name in all_template_names() {
        let mut sums = [0.0f64; 4];
        let mut plans = (0usize, 0usize);
        for inst in 0..instances as u64 {
            let mut rng = derive_rng_indexed(0xd5e, name, inst);
            let q = instantiate(&db, name, &mut rng)?;
            let run = runner.run_query(&q)?;
            let mut rng = derive_rng_indexed(0xd5e, name, inst);
            let q2 = instantiate(&db, name, &mut rng)?;
            let run_cal = runner_cal.run_query(&q2)?;
            sums[0] += run.original_ms;
            sums[1] += run.reopt_ms;
            sums[2] += run_cal.original_ms;
            sums[3] += run_cal.reopt_ms;
            plans.0 = plans.0.max(run.distinct_plans);
            plans.1 = plans.1.max(run_cal.distinct_plans);
        }
        let n = instances as f64;
        t_rt.push(vec![
            name.to_string(),
            fmt_ms(sums[0] / n),
            fmt_ms(sums[1] / n),
            fmt_ms(sums[2] / n),
            fmt_ms(sums[3] / n),
        ]);
        t_plans.push(vec![
            name.to_string(),
            plans.0.to_string(),
            plans.1.to_string(),
        ]);
    }
    Ok(vec![t_rt, t_plans])
}
