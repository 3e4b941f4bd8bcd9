//! Shape-level reproduction checks: the qualitative findings of the
//! paper's evaluation, asserted on deterministic runs. These are the
//! repository's "does it reproduce the paper" gate (EXPERIMENTS.md holds
//! the quantitative tables).

use std::sync::Arc;

use reopt::common::rng::derive_rng_indexed;
use reopt::core::{ReOptConfig, ReoptEngine};
use reopt::executor::execute_plan;
use reopt::optimizer::{OptimizerConfig, SystemProfile};
use reopt::sampling::SampleConfig;
use reopt::stats::AnalyzeOpts;
use reopt::storage::Database;
use reopt::workloads::ott::{
    build_ott_database, ott_query, ott_query_suite, recommended_sample_ratio, OttConfig,
};
use reopt::workloads::tpcds;
use reopt::workloads::tpch::{
    all_template_names, build_tpch_database, instantiate, is_hard_template, TpchConfig,
};

/// An engine over `db` with the given samples and optimizer and the
/// default loop.
fn engine(db: Database, sample: SampleConfig, optimizer: OptimizerConfig) -> ReoptEngine {
    ReoptEngine::from_database_with_configs(
        Arc::new(db),
        &AnalyzeOpts::default(),
        sample,
        optimizer,
        ReOptConfig::default(),
    )
    .unwrap()
}

/// An engine over the OTT database of `config`, sampled at the
/// recommended ratio.
fn ott_engine(config: &OttConfig) -> ReoptEngine {
    let sample = SampleConfig {
        ratio: recommended_sample_ratio(config),
        ..Default::default()
    };
    engine(
        build_ott_database(config).unwrap(),
        sample,
        OptimizerConfig::default(),
    )
}

/// §5.3: on the OTT, re-optimization detects the empty joins for *every*
/// query of both suites, and the repaired plans produce far less
/// intermediate work than the worst original plans.
#[test]
fn ott_reoptimization_fixes_all_queries() {
    let config = OttConfig {
        rows_per_value: 12,
        ..Default::default()
    };
    let re = ott_engine(&config);
    let db = re.db();

    for (n, m) in [(5usize, 4usize), (6, 4)] {
        let mut worst_original = 0u64;
        let mut worst_final = 0u64;
        for consts in ott_query_suite(n, m) {
            let q = ott_query(db, &consts).unwrap();
            let report = re.reoptimize(&q).unwrap();
            let orig = execute_plan(db, &q, &report.rounds[0].plan).unwrap();
            let fin = execute_plan(db, &q, &report.final_plan).unwrap();
            assert_eq!(fin.join_rows, 0, "{consts:?} should be empty");
            worst_original = worst_original.max(orig.metrics.rows_produced);
            worst_final = worst_final.max(fin.metrics.rows_produced);
        }
        // The paper's gap is orders of magnitude; at library scale we
        // still require >20× between the worst original and worst
        // re-optimized intermediate volume.
        assert!(
            worst_original > 20 * worst_final.max(1),
            "n={n}: worst original {worst_original} vs worst final {worst_final}"
        );
    }
}

/// §5.2: on TPC-H-like data, the correlated "hard" templates see their
/// plans changed by re-optimization, and — under *calibrated* cost units,
/// the configuration the paper's big wins use (Figure 4(b)/7(b)) — the
/// re-optimized plans do not regress in aggregate wall time.
///
/// (Under the *default* units re-optimization can trade index probes for
/// scans that the mis-calibrated model prefers; the paper observed the
/// same on its Figure 7(a) and prescribed calibration.)
#[test]
fn tpch_hard_queries_change_and_do_not_regress() {
    let tpch = build_tpch_database(&TpchConfig {
        scale: 0.01,
        ..Default::default()
    })
    .unwrap();
    let mut config = OptimizerConfig::postgres_like();
    config.cost_units = reopt::optimizer::calibrate(7, 1).units;
    let re = engine(tpch, SampleConfig::default(), config);
    let db = re.db();

    let mut hard_changed = 0usize;
    let mut hard_total = 0usize;
    let mut orig_total_ms = 0.0f64;
    let mut final_total_ms = 0.0f64;
    for name in all_template_names().iter().filter(|n| is_hard_template(n)) {
        for inst in 0..3u64 {
            let mut rng = derive_rng_indexed(0x5a9e, name, inst);
            let q = instantiate(db, name, &mut rng).unwrap();
            let report = re.reoptimize(&q).unwrap();
            hard_total += 1;
            hard_changed += report.plan_changed() as usize;
            // Best of 3 runs per plan to damp scheduler noise.
            let time_plan = |plan: &reopt::plan::PhysicalPlan| -> f64 {
                (0..3)
                    .map(|_| {
                        let out = execute_plan(db, &q, plan).unwrap();
                        out.metrics.elapsed.as_secs_f64() * 1e3
                    })
                    .fold(f64::INFINITY, f64::min)
            };
            orig_total_ms += time_plan(&report.rounds[0].plan);
            final_total_ms += time_plan(&report.final_plan);
        }
    }
    // The paper's own result is that only a *few* queries improve (3 of
    // 21 TPC-H queries there, ≈1/7); we require at least an eighth of
    // hard instances to re-plan, and the aggregate to not regress.
    assert!(
        hard_changed * 8 >= hard_total,
        "re-optimization changed only {hard_changed}/{hard_total} hard instances"
    );
    assert!(
        final_total_ms <= orig_total_ms * 1.3,
        "hard set regressed in aggregate: {orig_total_ms:.2}ms -> {final_total_ms:.2}ms"
    );
}

/// §5.2: most non-hard templates keep their original plan (the paper:
/// "for most of the TPC-H queries, the re-optimized plans are exactly the
/// same as the original ones").
#[test]
fn tpch_easy_queries_mostly_unchanged() {
    let tpch = build_tpch_database(&TpchConfig {
        scale: 0.01,
        ..Default::default()
    })
    .unwrap();
    let re = engine(tpch, SampleConfig::default(), OptimizerConfig::default());

    let mut unchanged = 0usize;
    let mut total = 0usize;
    for name in all_template_names().iter().filter(|n| !is_hard_template(n)) {
        let mut rng = derive_rng_indexed(0xea5e, name, 0);
        let q = instantiate(re.db(), name, &mut rng).unwrap();
        let report = re.reoptimize(&q).unwrap();
        total += 1;
        unchanged += (!report.plan_changed()) as usize;
    }
    assert!(
        unchanged * 3 >= total * 2,
        "only {unchanged}/{total} easy templates kept their plan"
    );
}

/// §5.2/§5.3: re-optimization converges in few rounds (paper: < 10,
/// mostly 1–2) across all workloads.
#[test]
fn convergence_is_fast_everywhere() {
    let tpch = build_tpch_database(&TpchConfig {
        scale: 0.005,
        ..Default::default()
    })
    .unwrap();
    let re = engine(tpch, SampleConfig::default(), OptimizerConfig::default());
    let mut histogram = [0usize; 11];
    for name in all_template_names() {
        let mut rng = derive_rng_indexed(0xc0, name, 0);
        let q = instantiate(re.db(), name, &mut rng).unwrap();
        let report = re.reoptimize(&q).unwrap();
        assert!(report.converged, "{name}");
        assert!(
            report.num_rounds() < 10,
            "{name}: {} rounds",
            report.num_rounds()
        );
        histogram[report.num_rounds().min(10)] += 1;
    }
    // "most of which require only 1 or 2 rounds" — in our loop a
    // no-change query takes 2 optimizer calls (plan + confirmation).
    let fast: usize = histogram[..4].iter().sum();
    assert!(fast * 3 >= all_template_names().len() * 2, "{histogram:?}");
}

/// Figures 12–13: the commercial-profile optimizers fall into the same
/// OTT trap (their original plans do heavy work on empty queries), and
/// re-optimization repairs them too.
#[test]
fn commercial_profiles_share_the_trap_and_the_fix() {
    let config = OttConfig {
        rows_per_value: 12,
        ..Default::default()
    };
    let base = ott_engine(&config);
    let db = base.db();
    for profile in [SystemProfile::CommercialA, SystemProfile::CommercialB] {
        let re = ReoptEngine::with_configs(
            Arc::clone(db),
            Arc::clone(base.stats()),
            Arc::clone(base.samples()),
            profile.config(),
            ReOptConfig::default(),
        );
        let mut worst_original = 0u64;
        for consts in ott_query_suite(5, 4) {
            let q = ott_query(db, &consts).unwrap();
            let report = re.reoptimize(&q).unwrap();
            let orig = execute_plan(db, &q, &report.rounds[0].plan).unwrap();
            let fin = execute_plan(db, &q, &report.final_plan).unwrap();
            assert_eq!(fin.join_rows, 0);
            worst_original = worst_original.max(orig.metrics.rows_produced);
            assert!(
                fin.metrics.rows_produced <= orig.metrics.rows_produced.max(60),
                "{:?} {consts:?}",
                profile
            );
        }
        assert!(
            worst_original > 1000,
            "{profile:?} never fell into the trap (worst = {worst_original})"
        );
    }
}

/// Appendix A.2: the tweaked q50p changes plan under re-optimization while
/// the stock q50 keeps its plan.
#[test]
fn tpcds_q50_variants_behave_as_in_paper() {
    let tpcds_db = tpcds::build_tpcds_database(&tpcds::TpcdsConfig {
        scale: 0.3,
        ..Default::default()
    })
    .unwrap();
    let re = engine(
        tpcds_db,
        SampleConfig::default(),
        OptimizerConfig::default(),
    );

    let mut changed_p = 0;
    for inst in 0..3u64 {
        let mut rng = derive_rng_indexed(0xd50, "q50p", inst);
        let qp = tpcds::instantiate(re.db(), "q50p", &mut rng).unwrap();
        let rp = re.reoptimize(&qp).unwrap();
        changed_p += rp.plan_changed() as usize;
    }
    assert!(changed_p >= 1, "q50p never re-optimized");
}
