//! Figures 12–13: the OTT run under the "commercial system A/B" optimizer
//! profiles — independently configured optimizers (left-deep/no-MCV and
//! bushy/no-MCV with different cost units) that fall into the same trap,
//! because the failure is in histogram+AVI estimation, not in any one
//! system's search strategy. Re-optimization numbers are shown alongside
//! to substantiate the paper's speculation that "commercial systems could
//! also benefit from our re-optimization technique".

use std::sync::Arc;

use crate::harness::{fmt_ms, Runner, RunnerConfig, TextTable};
use reopt_common::Result;
use reopt_optimizer::SystemProfile;
use reopt_workloads::ott::{
    build_ott_database, ott_query, ott_query_suite, recommended_sample_ratio, OttConfig,
};

/// The Figures 12–13 experiment.
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

    let mut tables = Vec::new();
    for (profile, fig) in [
        (SystemProfile::CommercialA, "Figure 12"),
        (SystemProfile::CommercialB, "Figure 13"),
    ] {
        let runner = Runner::new(&db, profile.config(), runner_config.clone())?;
        for (n, m, label) in [(5usize, 4usize, "(a) 4-join"), (6, 4, "(b) 5-join")] {
            let mut t = TextTable::new(
                format!(
                    "{fig}{label} — OTT on {} (paper: original plans as bad as PostgreSQL's; re-optimization repairs them)",
                    profile.name()
                ),
                &["query", "constants", "original", "re-optimized"],
            );
            for (i, consts) in ott_query_suite(n, m).into_iter().enumerate() {
                let q = ott_query(&db, &consts)?;
                let run = runner.run_query(&q)?;
                t.push(vec![
                    format!("{}", i + 1),
                    format!("{consts:?}"),
                    fmt_ms(run.original_ms),
                    fmt_ms(run.reopt_ms),
                ]);
            }
            tables.push(t);
        }
    }
    Ok(tables)
}
