//! Figures 14–15: execution time of every intermediate plan generated
//! during re-optimization (§5.4, "Effectiveness of Iteration").
//!
//! The paper's observations to reproduce: the second plan often already
//! captures most of the win, but not always — intermediate plans can be
//! *worse* than the original (their TPC-H Q21), because mid-loop plans are
//! chosen under partially validated statistics; only convergence gives the
//! local-optimality guarantee.

use std::sync::Arc;

use crate::harness::{fmt_ms, Runner, RunnerConfig, TextTable};
use reopt_common::rng::derive_rng_indexed;
use reopt_common::Result;
use reopt_optimizer::OptimizerConfig;
use reopt_workloads::ott::{
    build_ott_database, ott_query, ott_query_suite, recommended_sample_ratio, OttConfig,
};
use reopt_workloads::tpch::{build_tpch_database, instantiate, TpchConfig};

fn rounds_config() -> RunnerConfig {
    RunnerConfig {
        measure_rounds: true,
        ..Default::default()
    }
}

/// The Figures 14–15 experiment.
pub fn run(quick: bool) -> Result<Vec<TextTable>> {
    let mut tables = Vec::new();

    // --- Figure 14: hard TPC-H-like templates, per-round runtimes.
    {
        let db = Arc::new(build_tpch_database(&TpchConfig {
            scale: if quick { 0.005 } else { 0.02 },
            ..Default::default()
        })?);
        let runner = Runner::new(&db, OptimizerConfig::postgres_like(), rounds_config())?;
        let mut t = TextTable::new(
            "Figure 14 — runtime of each plan generated during re-optimization (TPC-H-like hard queries; paper: Q8/Q9/Q21, intermediate plans may regress before converging)",
            &["query", "plan#1 (original)", "plan#2", "plan#3", "plan#4", "final"],
        );
        for name in ["q8", "q9", "q21"] {
            let mut rng = derive_rng_indexed(0x41, name, 0);
            let q = instantiate(&db, name, &mut rng)?;
            let run = runner.run_query(&q)?;
            t.push(per_round_row(name, &run.per_plan_ms, run.reopt_ms));
        }
        tables.push(t);
    }

    // --- Figure 15: OTT queries with ≥ 2 plans, per-round runtimes.
    {
        let config = OttConfig {
            rows_per_value: if quick { 10 } else { 20 },
            ..Default::default()
        };
        let db = Arc::new(build_ott_database(&config)?);
        let runner_config = RunnerConfig {
            sample_ratio: recommended_sample_ratio(&config),
            ..rounds_config()
        };
        let runner = Runner::new(&db, OptimizerConfig::postgres_like(), runner_config)?;
        for (n, label) in [(5usize, "(a) 4-join"), (6, "(b) 5-join")] {
            let mut t = TextTable::new(
                format!("Figure 15{label} — per-round plan runtimes, OTT"),
                &[
                    "query",
                    "plan#1 (original)",
                    "plan#2",
                    "plan#3",
                    "plan#4",
                    "final",
                ],
            );
            let mut shown = 0;
            for (i, consts) in ott_query_suite(n, 4).into_iter().enumerate() {
                let q = ott_query(&db, &consts)?;
                let run = runner.run_query(&q)?;
                if run.distinct_plans >= 2 {
                    t.push(per_round_row(
                        &format!("#{}", i + 1),
                        &run.per_plan_ms,
                        run.reopt_ms,
                    ));
                    shown += 1;
                }
                if shown >= 3 {
                    break; // the paper charts three representatives
                }
            }
            tables.push(t);
        }
    }
    Ok(tables)
}

fn per_round_row(name: &str, per_plan_ms: &[Option<f64>], final_ms: f64) -> Vec<String> {
    let mut cells = vec![name.to_string()];
    for i in 0..4 {
        cells.push(match per_plan_ms.get(i) {
            Some(Some(ms)) => fmt_ms(*ms),
            Some(None) => ">guard".into(),
            None => "-".into(),
        });
    }
    cells.push(fmt_ms(final_ms));
    cells
}
