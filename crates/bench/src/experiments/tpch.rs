//! Figures 4–9: TPC-H-like runtimes (original vs re-optimized), number of
//! plans during re-optimization, and re-optimization overhead — on the
//! uniform (z=0) and skewed (z=1) databases, with default and calibrated
//! cost units.

use std::sync::Arc;

use crate::harness::{fmt_ms, Runner, RunnerConfig, TextTable};
use reopt_common::rng::derive_rng_indexed;
use reopt_common::Result;
use reopt_optimizer::{calibrate, OptimizerConfig};
use reopt_workloads::tpch::{
    all_template_names, build_tpch_database, instantiate, is_hard_template, TpchConfig,
};

/// Per-template averaged measurements for one (z, calibration) setting.
#[derive(Debug, Clone)]
pub struct TemplateResult {
    /// Template name (q1, q2, …).
    pub name: &'static str,
    /// Mean original-plan execution time (ms).
    pub original_ms: f64,
    /// Mean re-optimized-plan execution time (ms).
    pub reopt_ms: f64,
    /// Mean re-optimization loop time (ms).
    pub overhead_ms: f64,
    /// Max distinct plans across instances.
    pub plans: usize,
    /// Instances whose plan changed.
    pub changed: usize,
    /// Instance count.
    pub instances: usize,
}

/// Run every template on one runner; returns per-template averages.
pub fn run_templates(runner: &Runner, instances: usize, seed: u64) -> Result<Vec<TemplateResult>> {
    let mut out = Vec::new();
    for name in all_template_names() {
        let mut orig = 0.0;
        let mut reopt = 0.0;
        let mut overhead = 0.0;
        let mut plans = 0usize;
        let mut changed = 0usize;
        for inst in 0..instances as u64 {
            let mut rng = derive_rng_indexed(seed, name, inst);
            let q = instantiate(runner.database(), name, &mut rng)?;
            let run = runner.run_query(&q)?;
            orig += run.original_ms;
            reopt += run.reopt_ms;
            overhead += run.reopt_overhead_ms;
            plans = plans.max(run.distinct_plans);
            changed += run.plan_changed as usize;
        }
        let n = instances as f64;
        out.push(TemplateResult {
            name,
            original_ms: orig / n,
            reopt_ms: reopt / n,
            overhead_ms: overhead / n,
            plans,
            changed,
            instances,
        });
    }
    Ok(out)
}

/// The full Figures 4–6 (z=0) or 7–9 (z=1) experiment.
pub fn run(z: f64, quick: bool) -> Result<Vec<TextTable>> {
    let instances = if quick { 2 } else { 10 };
    let scale = if quick { 0.005 } else { 0.02 };
    let db = Arc::new(build_tpch_database(&TpchConfig {
        scale,
        zipf_z: z,
        ..Default::default()
    })?);
    let runner = Runner::new(
        &db,
        OptimizerConfig::postgres_like(),
        RunnerConfig::default(),
    )?;

    // Calibrated variant: measured cost units, same stats/samples.
    let report = calibrate(7, 1);
    let mut calib_config = OptimizerConfig::postgres_like();
    calib_config.cost_units = report.units;
    let runner_cal = runner.with_optimizer_config(calib_config);

    let base = run_templates(&runner, instances, 0x7c9)?;
    let cal = run_templates(&runner_cal, instances, 0x7c9)?;

    let (fa, fb, fplans, fover) = figure_ids(z);
    let mut t_runtime = TextTable::new(
        format!(
            "{fa} — TPC-H-like z={z}: runtime, original vs re-optimized (paper shape: most templates unchanged; hard set [q8 q9 q17 q21] improves severalfold)"
        ),
        &["query", "hard", "orig (default)", "reopt (default)", "orig (calibrated)", "reopt (calibrated)"],
    );
    for (b, c) in base.iter().zip(&cal) {
        t_runtime.push(vec![
            b.name.to_string(),
            if is_hard_template(b.name) {
                "*".into()
            } else {
                "".into()
            },
            fmt_ms(b.original_ms),
            fmt_ms(b.reopt_ms),
            fmt_ms(c.original_ms),
            fmt_ms(c.reopt_ms),
        ]);
    }

    let mut t_plans = TextTable::new(
        format!("{fplans} — number of plans generated during re-optimization (paper: 1 for unchanged queries, small otherwise)"),
        &["query", "plans (default units)", "plans (calibrated)", "changed (default)", "instances"],
    );
    for (b, c) in base.iter().zip(&cal) {
        t_plans.push(vec![
            b.name.to_string(),
            b.plans.to_string(),
            c.plans.to_string(),
            format!("{}/{}", b.changed, b.instances),
            b.instances.to_string(),
        ]);
    }

    let mut t_overhead = TextTable::new(
        format!("{fover} — execution time excluding vs including re-optimization (paper: overhead ignorable)"),
        &["query", "exec only", "reopt + exec", "overhead %"],
    );
    for b in &base {
        let total = b.reopt_ms + b.overhead_ms;
        let pct = if b.reopt_ms > 0.0 {
            100.0 * b.overhead_ms / total.max(1e-9)
        } else {
            0.0
        };
        t_overhead.push(vec![
            b.name.to_string(),
            fmt_ms(b.reopt_ms),
            fmt_ms(total),
            format!("{pct:.1}%"),
        ]);
    }

    let _ = fb;
    Ok(vec![t_runtime, t_plans, t_overhead])
}

fn figure_ids(z: f64) -> (&'static str, &'static str, &'static str, &'static str) {
    if z == 0.0 {
        ("Figure 4(a)+(b)", "4b", "Figure 5", "Figure 6")
    } else {
        ("Figure 7(a)+(b)", "7b", "Figure 8", "Figure 9")
    }
}
