//! Cross-crate integration tests: generator → ANALYZE → optimizer →
//! executor → re-optimizer, checked for mutual consistency.

use std::sync::Arc;

use reopt::common::rng::derive_rng_indexed;
use reopt::core::{ReOptConfig, ReoptEngine};
use reopt::executor::execute_plan;
use reopt::optimizer::{OperatorSet, Optimizer, OptimizerConfig};
use reopt::sampling::SampleConfig;
use reopt::stats::{analyze_database, AnalyzeOpts};
use reopt::storage::Database;
use reopt::workloads::ott::{
    build_ott_database, ott_query, ott_query_suite, recommended_sample_ratio, OttConfig,
};
use reopt::workloads::tpcds;
use reopt::workloads::tpch::{all_template_names, build_tpch_database, instantiate, TpchConfig};

fn small_tpch() -> Database {
    build_tpch_database(&TpchConfig {
        scale: 0.003,
        ..Default::default()
    })
    .unwrap()
}

fn small_ott() -> (OttConfig, Database) {
    let config = OttConfig {
        rows_per_value: 8,
        ..Default::default()
    };
    let db = build_ott_database(&config).unwrap();
    (config, db)
}

/// An engine over `small_ott()`, sampled at the recommended ratio.
fn ott_engine(reopt: ReOptConfig) -> (OttConfig, ReoptEngine) {
    let (config, db) = small_ott();
    let sample = SampleConfig {
        ratio: recommended_sample_ratio(&config),
        ..Default::default()
    };
    let engine = ReoptEngine::from_database_with_configs(
        Arc::new(db),
        &AnalyzeOpts::default(),
        sample,
        OptimizerConfig::default(),
        reopt,
    )
    .unwrap();
    (config, engine)
}

/// An engine with default samples and loop configuration.
fn engine(db: Database) -> ReoptEngine {
    ReoptEngine::from_database(
        Arc::new(db),
        &AnalyzeOpts::default(),
        SampleConfig::default(),
    )
    .unwrap()
}

/// Every TPC-H template, planned with different operator subsets, must
/// produce the same join cardinality — differential correctness of the
/// optimizer + executor across plan shapes.
#[test]
fn plan_shape_does_not_change_results() {
    let db = small_tpch();
    let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
    let configs: Vec<OptimizerConfig> = vec![
        OptimizerConfig::postgres_like(),
        OptimizerConfig {
            left_deep_only: true,
            ..OptimizerConfig::postgres_like()
        },
        OptimizerConfig {
            operators: OperatorSet {
                hash: false,
                merge: true,
                nested_loop: true,
                index_nested: false,
                index_scan: false,
            },
            ..OptimizerConfig::postgres_like()
        },
        OptimizerConfig {
            operators: OperatorSet {
                hash: true,
                merge: false,
                nested_loop: false,
                index_nested: true,
                index_scan: true,
            },
            ..OptimizerConfig::postgres_like()
        },
    ];
    for name in all_template_names() {
        let mut rng = derive_rng_indexed(5, name, 0);
        let q = instantiate(&db, name, &mut rng).unwrap();
        let mut counts = Vec::new();
        for cfg in &configs {
            let opt = Optimizer::with_config(&db, &stats, cfg.clone());
            let planned = opt.optimize(&q).unwrap();
            let out = execute_plan(&db, &q, &planned.plan).unwrap();
            counts.push(out.join_rows);
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{name}: differing cardinalities across plan shapes: {counts:?}"
        );
    }
}

/// Re-optimization must preserve query semantics: the final plan returns
/// exactly the same join cardinality and aggregate as the original plan.
#[test]
fn reoptimization_preserves_semantics() {
    let re = engine(small_tpch());
    let db = re.db();
    for name in ["q3", "q5", "q8", "q9", "q17", "q21"] {
        let mut rng = derive_rng_indexed(6, name, 0);
        let q = instantiate(db, name, &mut rng).unwrap();
        let report = re.reoptimize(&q).unwrap();
        let orig = execute_plan(db, &q, &report.rounds[0].plan).unwrap();
        let fin = execute_plan(db, &q, &report.final_plan).unwrap();
        assert_eq!(orig.join_rows, fin.join_rows, "{name}");
        assert_eq!(orig.agg, fin.agg, "{name}: aggregates differ");
    }
}

/// OTT queries: empty queries stay empty, non-empty match the closed form,
/// under both original and re-optimized plans.
#[test]
fn ott_cardinalities_match_closed_form() {
    let (config, re) = ott_engine(ReOptConfig::default());
    let db = re.db();
    for consts in [vec![0i64, 0, 0, 1], vec![0, 0, 0, 0], vec![1, 1, 0, 1]] {
        let q = ott_query(db, &consts).unwrap();
        let report = re.reoptimize(&q).unwrap();
        let rows = execute_plan(db, &q, &report.final_plan).unwrap().join_rows;
        let expected = reopt::workloads::ott::true_query_size(&config, &consts);
        assert_eq!(rows as f64, expected, "constants {consts:?}");
    }
}

/// The whole 4-join OTT suite converges, and re-optimized plans are never
/// slower than the originals by more than measurement noise.
#[test]
fn ott_suite_converges() {
    let (_, re) = ott_engine(ReOptConfig::default());
    for consts in ott_query_suite(5, 4) {
        let q = ott_query(re.db(), &consts).unwrap();
        let report = re.reoptimize(&q).unwrap();
        assert!(report.converged, "no convergence for {consts:?}");
        assert!(
            report.num_rounds() <= 10,
            "paper: <10 rounds; got {} for {consts:?}",
            report.num_rounds()
        );
    }
}

/// TPC-DS templates run end-to-end through the loop.
#[test]
fn tpcds_templates_run() {
    let re = engine(
        tpcds::build_tpcds_database(&tpcds::TpcdsConfig {
            scale: 0.05,
            ..Default::default()
        })
        .unwrap(),
    );
    let db = re.db();
    for name in tpcds::all_template_names() {
        let mut rng = derive_rng_indexed(7, name, 0);
        let q = tpcds::instantiate(db, name, &mut rng).unwrap();
        let report = re.reoptimize(&q).unwrap();
        assert!(report.converged, "{name} did not converge");
        let orig = execute_plan(db, &q, &report.rounds[0].plan).unwrap();
        let fin = execute_plan(db, &q, &report.final_plan).unwrap();
        assert_eq!(orig.join_rows, fin.join_rows, "{name}");
    }
}

/// The loop respects its time budget strategy.
#[test]
fn time_budget_is_honored() {
    let (_, re) = ott_engine(ReOptConfig {
        time_budget: Some(std::time::Duration::ZERO),
        ..Default::default()
    });
    let q = ott_query(re.db(), &[0, 0, 0, 0, 1]).unwrap();
    let report = re.reoptimize(&q).unwrap();
    // A zero budget stops after the first validated round (or converges
    // trivially); either way, at most 2 optimizer calls.
    assert!(report.num_rounds() <= 2, "rounds: {}", report.num_rounds());
}
