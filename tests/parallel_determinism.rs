//! The parallel-executor contract: partition-parallel execution at any
//! thread count is **bit-identical** to serial execution — same `RowSet`
//! contents, same `node_cards` traces, same validated Δ, same
//! re-optimization trajectory and chosen plan — on the OTT and TPC-H
//! workloads, including the `SubtreeCache` replay path — and the engine at
//! threads {1,4} is bit-identical to the row-at-a-time reference
//! (`reopt::executor::reference`). Parallelism may only buy wall-clock,
//! never change an answer.

use std::sync::Arc;

use reopt::common::rng::derive_rng_indexed;
use reopt::core::{ReoptEngine, ReoptReport};
use reopt::executor::{reference, ExecOpts, Executor, RowSet};
use reopt::sampling::{
    validate_plan, validate_plan_cached, SampleConfig, SharedSampleRunCache, ValidationOpts,
};
use reopt::stats::AnalyzeOpts;
use reopt::storage::Database;
use reopt::telemetry::{names, Tracer};
use reopt::workloads::ott::{build_ott_database, ott_query, recommended_sample_ratio, OttConfig};
use reopt::workloads::tpch::{build_tpch_database, instantiate, TpchConfig};

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// An engine over `db` whose loop dry-runs serially.
fn serial_engine(db: Database, sample: SampleConfig) -> ReoptEngine {
    ReoptEngine::from_database(Arc::new(db), &AnalyzeOpts::default(), sample)
        .unwrap()
        .with_validation_threads(1)
}

fn ott_bound() -> ReoptEngine {
    let config = OttConfig {
        rows_per_value: 20,
        ..Default::default()
    };
    let sample = SampleConfig {
        ratio: recommended_sample_ratio(&config),
        ..Default::default()
    };
    serial_engine(build_ott_database(&config).unwrap(), sample)
}

fn tpch_bound() -> ReoptEngine {
    let db = build_tpch_database(&TpchConfig {
        scale: 0.005,
        ..Default::default()
    })
    .unwrap();
    serial_engine(db, SampleConfig::default())
}

fn assert_rowsets_identical(a: &RowSet, b: &RowSet, label: &str) {
    assert_eq!(a.rels(), b.rels(), "{label}: relation columns");
    assert_eq!(a.len(), b.len(), "{label}: cardinality");
    for &rel in a.rels() {
        assert_eq!(
            a.rowids(rel).unwrap(),
            b.rowids(rel).unwrap(),
            "{label}: rowids of {rel}"
        );
    }
}

/// Everything replay-relevant in a report, timings stripped.
fn replay_digest(report: &ReoptReport) -> (Vec<u64>, u64, bool, Vec<(u64, u64)>) {
    let rounds = report.rounds.iter().map(|r| r.plan.fingerprint()).collect();
    let mut gamma: Vec<(u64, u64)> = report
        .gamma
        .iter()
        .map(|(set, rows)| (set.mask(), rows.to_bits()))
        .collect();
    gamma.sort_unstable();
    (
        rounds,
        report.final_plan.fingerprint(),
        report.converged,
        gamma,
    )
}

/// Sorted bit-exact view of a validated Δ.
fn delta_bits(v: &reopt::sampling::Validation) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = v
        .delta
        .iter()
        .map(|(set, rows)| (set.mask(), rows.to_bits()))
        .collect();
    out.sort_unstable();
    out
}

/// Full runs, traced runs, and cached (SubtreeCache) dry-runs over one
/// (query, plan) pair must be bit-identical at every thread count.
fn check_execution_invariance(bound: &ReoptEngine, query: &reopt::plan::Query, label: &str) {
    // A deterministic, repaired plan to execute: the serial loop's answer.
    let plan = bound.reoptimize(query).unwrap().final_plan;

    let serial = Executor::with_opts(bound.db(), ExecOpts::serial());
    let base = serial.run_pipeline(query, &plan, None).unwrap();

    // The SubtreeCache replay path on the *samples* (its production home):
    // run once cold, once fully cached, per thread count.
    let sample_exec = |threads: usize| {
        let exec = Executor::with_opts(bound.samples().database(), ExecOpts::with_threads(threads));
        let mut cache = SharedSampleRunCache::new();
        let cold = exec.run_pipeline(query, &plan, Some(&mut cache)).unwrap();
        let warm = exec.run_pipeline(query, &plan, Some(&mut cache)).unwrap();
        assert_eq!(
            cold.node_cards, warm.node_cards,
            "{label}: cached replay trace diverged at threads={threads}"
        );
        assert!(
            warm.metrics.cache_hits > 0,
            "{label}: second dry-run never hit"
        );
        (cold.rows, cold.node_cards)
    };
    let (base_sample_rows, base_sample_trace) = sample_exec(1);

    for threads in THREAD_COUNTS {
        let exec = Executor::with_opts(bound.db(), ExecOpts::with_threads(threads));
        let run = exec.run_pipeline(query, &plan, None).unwrap();
        assert_rowsets_identical(&base.rows, &run.rows, &format!("{label} threads={threads}"));
        assert_eq!(
            base.node_cards, run.node_cards,
            "{label}: trace diverged at threads={threads}"
        );
        let (metrics, base_metrics) = (&run.metrics, &base.metrics);
        assert_eq!(metrics.rows_scanned, base_metrics.rows_scanned, "{label}");
        assert_eq!(metrics.rows_produced, base_metrics.rows_produced, "{label}");

        let (sample_rows, sample_trace) = sample_exec(threads);
        assert_rowsets_identical(
            &base_sample_rows,
            &sample_rows,
            &format!("{label} sample threads={threads}"),
        );
        assert_eq!(base_sample_trace, sample_trace, "{label}: sample trace");
    }
}

/// Validated Δ and the whole re-optimization trajectory must be
/// bit-identical at every thread count.
fn check_reopt_invariance(bound: &ReoptEngine, query: &reopt::plan::Query, label: &str) {
    let base_report = bound.reoptimize(query).unwrap();
    let base_digest = replay_digest(&base_report);
    let serial_opts = ValidationOpts {
        threads: 1,
        ..Default::default()
    };
    let base_delta = delta_bits(
        &validate_plan(
            query,
            &base_report.final_plan,
            bound.samples(),
            &serial_opts,
        )
        .unwrap(),
    );

    for threads in THREAD_COUNTS {
        let opts = ValidationOpts {
            threads,
            ..Default::default()
        };
        // From-scratch validation.
        let v = validate_plan(query, &base_report.final_plan, bound.samples(), &opts).unwrap();
        assert_eq!(
            base_delta,
            delta_bits(&v),
            "{label}: Δ at threads={threads}"
        );
        // Cached validation (the incremental loop's path).
        let mut cache = SharedSampleRunCache::new();
        let vc = validate_plan_cached(
            query,
            &base_report.final_plan,
            bound.samples(),
            &opts,
            &mut cache,
            &Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(base_delta, delta_bits(&vc), "{label}: cached Δ");

        // The whole loop: same rounds, same plans, same Γ, same winner.
        let re = bound.clone().with_validation_threads(threads);
        let report = re.reoptimize(query).unwrap();
        assert_eq!(
            base_digest,
            replay_digest(&report),
            "{label}: trajectory diverged at threads={threads}"
        );
    }
}

/// Engine vs oracle: at threads {1,4} the engine's join rows — over the
/// full database and over the samples — and its aggregate output must be
/// bit-identical to the row-at-a-time reference (floats compared through
/// `AggOutput`'s exact equality).
fn check_reference_equivalence(bound: &ReoptEngine, query: &reopt::plan::Query, label: &str) {
    let plan = bound.reoptimize(query).unwrap().final_plan;

    let oracle = reference::join_rows(bound.db(), query, &plan).unwrap();
    let oracle_agg = query
        .aggregate
        .as_ref()
        .map(|spec| reference::aggregate(bound.db(), query, &oracle, spec).unwrap());
    let sample_db = bound.samples().database();
    let sample_oracle = reference::join_rows(sample_db, query, &plan).unwrap();

    for threads in [1usize, 4] {
        let ctx = format!("{label} vs reference threads={threads}");
        let exec = Executor::with_opts(bound.db(), ExecOpts::with_threads(threads));
        let run = exec.run_pipeline(query, &plan, None).unwrap();
        assert_rowsets_identical(&oracle, &run.rows, &ctx);
        assert_eq!(
            exec.run(query, &plan).unwrap().agg,
            oracle_agg,
            "{ctx}: agg"
        );

        let sample_run = Executor::with_opts(sample_db, ExecOpts::with_threads(threads))
            .run_pipeline(query, &plan, None)
            .unwrap();
        assert_rowsets_identical(
            &sample_oracle,
            &sample_run.rows,
            &format!("{ctx} (samples)"),
        );
    }
}

/// Tracing invariance: span recording must be pure observation. Rows,
/// traces, validated Δ, and whole re-optimization trajectories with the
/// tracer on must be bit-identical to the tracer-off runs — at
/// `threads ∈ {1, 4}`.
fn check_tracing_invariance(bound: &ReoptEngine, query: &reopt::plan::Query, label: &str) {
    let plan = bound.reoptimize(query).unwrap().final_plan;

    for threads in [1usize, 4] {
        let ctx = format!("{label}: threads={threads}");
        let engine = |tracer: Tracer| {
            Executor::with_opts(
                bound.db(),
                ExecOpts {
                    threads,
                    tracer,
                    ..Default::default()
                },
            )
        };
        let off = engine(Tracer::disabled())
            .run_pipeline(query, &plan, None)
            .unwrap();
        let tracer = Tracer::enabled();
        let on = engine(tracer.clone())
            .run_pipeline(query, &plan, None)
            .unwrap();
        assert_rowsets_identical(&off.rows, &on.rows, &ctx);
        assert_eq!(off.node_cards, on.node_cards, "{ctx}");
        assert_eq!(off.metrics.rows_scanned, on.metrics.rows_scanned, "{ctx}");
        assert_eq!(off.metrics.rows_produced, on.metrics.rows_produced, "{ctx}");
        let trace = tracer.finish();
        // Every executed node gets an exec.operator span. Index-nested
        // inners are probed, not executed standalone, so the count is
        // plan-shaped: at least one per join + leftmost scan, at most
        // one per node.
        let ops = trace.count(names::EXEC_OPERATOR);
        assert!(
            (query.num_relations()..2 * query.num_relations()).contains(&ops),
            "{ctx}: {ops} operator spans for {} relations",
            query.num_relations()
        );
        // The root operator's span reports the true output cardinality.
        let root = trace
            .spans()
            .iter()
            .find(|s| {
                s.name == names::EXEC_OPERATOR && s.attr_u64("node") == Some(plan.relset().mask())
            })
            .unwrap_or_else(|| panic!("{ctx}: no root operator span"));
        assert_eq!(
            root.attr_u64("rows"),
            Some(off.rows.len() as u64),
            "{ctx}: root span rows"
        );

        // Validation: Δ must not depend on the tracer.
        let vopts = ValidationOpts {
            threads,
            ..Default::default()
        };
        let validate = |tracer: &Tracer| {
            let mut cache = SharedSampleRunCache::new();
            validate_plan_cached(query, &plan, bound.samples(), &vopts, &mut cache, tracer).unwrap()
        };
        let off_v = validate(&Tracer::disabled());
        let vtracer = Tracer::enabled();
        let on_v = validate(&vtracer);
        assert_eq!(
            delta_bits(&off_v),
            delta_bits(&on_v),
            "{ctx}: Δ diverged under tracing"
        );
        assert_eq!(
            vtracer.finish().count(names::SAMPLING_DRY_RUN),
            1,
            "{ctx}: dry-run span"
        );

        // The whole loop: identical trajectory with and without spans.
        let re = bound.clone().with_validation_threads(threads);
        let off_report = re.reoptimize(query).unwrap();
        let ltracer = Tracer::enabled();
        let on_report = re
            .reoptimize_with(query, &SharedSampleRunCache::new(), &ltracer)
            .unwrap();
        assert_eq!(
            replay_digest(&off_report),
            replay_digest(&on_report),
            "{ctx}: trajectory diverged under tracing"
        );
        let ltrace = ltracer.finish();
        assert_eq!(ltrace.count(names::REOPT_LOOP), 1, "{ctx}");
        assert_eq!(
            ltrace.count(names::REOPT_ROUND),
            on_report.rounds.len(),
            "{ctx}: one round span per round"
        );
    }
}

#[test]
fn ott_tracing_is_bit_identical() {
    let bound = ott_bound();
    let q = ott_query(bound.db(), &[0i64, 0, 0, 1]).unwrap();
    check_tracing_invariance(&bound, &q, "ott[0,0,0,1]");
}

#[test]
fn tpch_tracing_is_bit_identical() {
    let bound = tpch_bound();
    let mut rng = derive_rng_indexed(7, "parallel-determinism-trace", 2);
    let q = instantiate(bound.db(), "q5", &mut rng).unwrap();
    check_tracing_invariance(&bound, &q, "tpch/q5");
}

#[test]
fn ott_engine_matches_reference() {
    let bound = ott_bound();
    for consts in [vec![0i64, 0, 0, 0], vec![0, 0, 0, 1]] {
        let q = ott_query(bound.db(), &consts).unwrap();
        check_reference_equivalence(&bound, &q, &format!("ott{consts:?}"));
    }
}

#[test]
fn tpch_engine_matches_reference() {
    let bound = tpch_bound();
    let mut rng = derive_rng_indexed(7, "parallel-determinism", 2);
    for name in ["q5", "q8"] {
        let q = instantiate(bound.db(), name, &mut rng).unwrap();
        check_reference_equivalence(&bound, &q, &format!("tpch/{name}"));
    }
}

#[test]
fn ott_execution_is_thread_count_invariant() {
    let bound = ott_bound();
    // Non-empty 4-chain (the M^4 blow-up exercises real join volume) and
    // the empty-edge repair fixture.
    for consts in [vec![0i64, 0, 0, 0], vec![0, 0, 0, 1]] {
        let q = ott_query(bound.db(), &consts).unwrap();
        check_execution_invariance(&bound, &q, &format!("ott{consts:?}"));
    }
}

#[test]
fn ott_reoptimization_is_thread_count_invariant() {
    let bound = ott_bound();
    for consts in [vec![0i64, 0, 0, 0], vec![0, 0, 0, 1], vec![0, 1, 0, 1, 0]] {
        let q = ott_query(bound.db(), &consts).unwrap();
        check_reopt_invariance(&bound, &q, &format!("ott{consts:?}"));
    }
}

#[test]
fn tpch_execution_is_thread_count_invariant() {
    let bound = tpch_bound();
    let mut rng = derive_rng_indexed(7, "parallel-determinism", 0);
    let q = instantiate(bound.db(), "q8", &mut rng).unwrap();
    check_execution_invariance(&bound, &q, "tpch/q8");
}

#[test]
fn tpch_reoptimization_is_thread_count_invariant() {
    let bound = tpch_bound();
    let mut rng = derive_rng_indexed(7, "parallel-determinism", 1);
    for name in ["q5", "q9"] {
        let q = instantiate(bound.db(), name, &mut rng).unwrap();
        check_reopt_invariance(&bound, &q, &format!("tpch/{name}"));
    }
}
