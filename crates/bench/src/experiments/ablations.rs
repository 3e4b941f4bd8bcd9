//! Ablations over the design choices DESIGN.md §5 calls out:
//!
//! 1. **Sampling ratio** — the paper fixes 5%; sweeping it on the OTT
//!    shows the failure mode of under-sampling (empty and non-empty joins
//!    become indistinguishable at tiny effective sample sizes) and the
//!    diminishing returns of over-sampling.
//! 2. **Left-deep vs bushy search** — how much the search-space choice
//!    (footnote 2 of the paper) matters for plan quality here.
//! 3. **Leaf validation** — the paper validates join predicates only
//!    (§2); this toggle additionally validates base-selection
//!    cardinalities, which repairs correlated *local* conjunctions at the
//!    leaves.

use std::sync::Arc;

use crate::harness::{fmt_ms, Runner, RunnerConfig, TextTable};
use reopt_common::rng::derive_rng_indexed;
use reopt_common::Result;
use reopt_core::ReOptConfig;
use reopt_optimizer::OptimizerConfig;
use reopt_sampling::ValidationOpts;
use reopt_workloads::ott::{build_ott_database, ott_query, ott_query_suite, OttConfig};
use reopt_workloads::tpch::{
    all_template_names, build_tpch_database, instantiate, is_hard_template, TpchConfig,
};

/// Sweep the sampling ratio on the OTT 4-join suite.
fn sampling_ratio_sweep(quick: bool) -> Result<TextTable> {
    let config = OttConfig {
        rows_per_value: if quick { 10 } else { 20 },
        ..Default::default()
    };
    let db = Arc::new(build_ott_database(&config)?);
    let mut t = TextTable::new(
        "Ablation 1 — sampling ratio vs OTT repair quality (paper fixes 5% at ~100 rows/value; the effective statistic is sampled rows per value group)",
        &["ratio", "rows/group", "queries fixed", "worst final", "mean overhead"],
    );
    for ratio in [0.01f64, 0.05, 0.1, 0.25, 0.5] {
        let runner = Runner::new(
            &db,
            OptimizerConfig::postgres_like(),
            RunnerConfig {
                sample_ratio: ratio,
                ..Default::default()
            },
        )?;
        let mut fixed = 0usize;
        let mut total = 0usize;
        let mut worst_final: f64 = 0.0;
        let mut overhead = 0.0;
        for consts in ott_query_suite(5, 4) {
            let q = ott_query(&db, &consts)?;
            let run = runner.run_query(&q)?;
            total += 1;
            // "Fixed" = final plan at least 5× faster than the original or
            // already trivially fast.
            if run.reopt_ms * 5.0 <= run.original_ms || run.original_ms < 0.05 {
                fixed += 1;
            }
            worst_final = worst_final.max(run.reopt_ms);
            overhead += run.reopt_overhead_ms;
        }
        t.push(vec![
            format!("{ratio:.2}"),
            format!("{:.1}", ratio * config.rows_per_value as f64),
            format!("{fixed}/{total}"),
            fmt_ms(worst_final),
            fmt_ms(overhead / total as f64),
        ]);
    }
    Ok(t)
}

/// Left-deep vs bushy search on the TPC-H templates.
fn search_space_ablation(quick: bool) -> Result<TextTable> {
    let db = Arc::new(build_tpch_database(&TpchConfig {
        scale: if quick { 0.005 } else { 0.02 },
        ..Default::default()
    })?);
    let bushy = Runner::new(
        &db,
        OptimizerConfig::postgres_like(),
        RunnerConfig::default(),
    )?;
    let left_deep = bushy.with_optimizer_config(OptimizerConfig {
        left_deep_only: true,
        ..OptimizerConfig::postgres_like()
    });
    let mut t = TextTable::new(
        "Ablation 2 — bushy vs left-deep-only search (re-optimized runtimes)",
        &["query", "bushy", "left-deep", "plans differ"],
    );
    for name in all_template_names() {
        let mut rng = derive_rng_indexed(0xab1, name, 0);
        let q = instantiate(&db, name, &mut rng)?;
        let b = bushy.run_query(&q)?;
        let mut rng = derive_rng_indexed(0xab1, name, 0);
        let q2 = instantiate(&db, name, &mut rng)?;
        let l = left_deep.run_query(&q2)?;
        let differ = !b.report.final_plan.same_structure(&l.report.final_plan);
        t.push(vec![
            name.to_string(),
            fmt_ms(b.reopt_ms),
            fmt_ms(l.reopt_ms),
            if differ { "yes".into() } else { "".into() },
        ]);
    }
    Ok(t)
}

/// Leaf validation on/off for the hard TPC-H templates.
fn leaf_validation_ablation(quick: bool) -> Result<TextTable> {
    let db = Arc::new(build_tpch_database(&TpchConfig {
        scale: if quick { 0.005 } else { 0.02 },
        ..Default::default()
    })?);
    let joins_only = Runner::new(
        &db,
        OptimizerConfig::postgres_like(),
        RunnerConfig::default(),
    )?;
    let with_leaves = Runner::new(
        &db,
        OptimizerConfig::postgres_like(),
        RunnerConfig {
            reopt: ReOptConfig {
                validation: ValidationOpts {
                    validate_leaves: true,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        },
    )?;
    let mut t = TextTable::new(
        "Ablation 3 — validating joins only (paper §2) vs joins+leaf selections",
        &[
            "query",
            "rounds (joins)",
            "rounds (+leaves)",
            "reopt (joins)",
            "reopt (+leaves)",
        ],
    );
    for name in all_template_names().iter().filter(|n| is_hard_template(n)) {
        let mut rng = derive_rng_indexed(0xab2, name, 0);
        let q = instantiate(&db, name, &mut rng)?;
        let a = joins_only.run_query(&q)?;
        let mut rng = derive_rng_indexed(0xab2, name, 0);
        let q2 = instantiate(&db, name, &mut rng)?;
        let b = with_leaves.run_query(&q2)?;
        t.push(vec![
            name.to_string(),
            a.rounds.to_string(),
            b.rounds.to_string(),
            fmt_ms(a.reopt_ms),
            fmt_ms(b.reopt_ms),
        ]);
    }
    Ok(t)
}

/// Run all ablations.
pub fn run(quick: bool) -> Result<Vec<TextTable>> {
    Ok(vec![
        sampling_ratio_sweep(quick)?,
        search_space_ablation(quick)?,
        leaf_validation_ablation(quick)?,
    ])
}
