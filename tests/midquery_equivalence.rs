//! The mid-query re-optimization contract, proven across workloads:
//! suspending at **every** materialization point, folding the exact
//! observed cardinalities into Γ, re-planning the remainder with completed
//! subtrees pinned, and resuming yields results **identical** to
//! straight-through execution — on OTT, TPC-H and TPC-DS templates, at
//! `threads ∈ {1, 4}`, both seeded with the sampling loop's Γ and memo
//! (`ReoptEngine::execute`) and served from empty ones
//! (`ReoptEngine::execute_plan`), and under `SubtreeCache` replay (warm shared
//! sample-run caches feeding the initial sampling loop, and the checkpoint
//! splice path feeding every resume).
//!
//! "Identical" is canonical tuple-set identity: the loop may finish the
//! query with a different plan than it started with (that is the point),
//! and different plan shapes emit the same tuples in different orders, so
//! results are compared with relations in ascending id order and tuples
//! sorted — a bit-exact comparison of row ids, insensitive only to
//! emission order. Aggregates over the identical tuple set are compared
//! exactly for ints/strings and to 1e-9 relative tolerance for floats
//! (summation order is plan-dependent).

use std::sync::Arc;

use reopt::common::rng::derive_rng_indexed;
use reopt::common::RelId;
use reopt::core::{execute_mid_query, MidQueryOpts, MidQueryRun, ReOptConfig, ReoptEngine};
use reopt::executor::{reference, AggOutput, ExecOpts, Executor, RowSet};
use reopt::plan::Query;
use reopt::sampling::{SampleConfig, SharedSampleRunCache};
use reopt::stats::AnalyzeOpts;
use reopt::storage::{Database, Value};
use reopt::workloads::ott::{build_ott_database, ott_query, recommended_sample_ratio, OttConfig};
use reopt::workloads::{tpcds, tpch};

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// An engine over `db` with mid-query off and serial dry runs: its
/// `execute` is the straight-through reference.
fn serial_engine(db: Database, sample: SampleConfig) -> ReoptEngine {
    ReoptEngine::from_database(Arc::new(db), &AnalyzeOpts::default(), sample)
        .unwrap()
        .with_validation_threads(1)
}

/// `bound` with mid-query re-optimization on under the replan gate
/// `replan_discrepancy`, dry-running on `threads` workers.
fn mid_query_engine(
    bound: &ReoptEngine,
    replan_discrepancy: Option<f64>,
    threads: usize,
) -> ReoptEngine {
    let config = ReOptConfig {
        mid_query: true,
        replan_discrepancy,
        ..bound.reopt_config().clone()
    };
    ReoptEngine::with_configs(
        Arc::clone(bound.db()),
        Arc::clone(bound.stats()),
        Arc::clone(bound.samples()),
        bound.optimizer_config().clone(),
        config,
    )
    .with_validation_threads(threads)
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
    let db = tpch::build_tpch_database(&tpch::TpchConfig {
        scale: 0.005,
        ..Default::default()
    })
    .unwrap();
    serial_engine(db, SampleConfig::default())
}

fn tpcds_bound() -> ReoptEngine {
    let db = tpcds::build_tpcds_database(&tpcds::TpcdsConfig {
        scale: 0.05,
        ..Default::default()
    })
    .unwrap();
    serial_engine(db, SampleConfig::default())
}

/// Canonical tuple-set view: relations ascending, tuples sorted. Two row
/// sets with equal canonical views hold bit-identical row ids.
fn canonical(rows: &RowSet) -> (Vec<RelId>, Vec<Vec<u32>>) {
    let mut rels: Vec<RelId> = rows.rels().to_vec();
    rels.sort();
    let mut tuples: Vec<Vec<u32>> = (0..rows.len())
        .map(|i| rels.iter().map(|&r| rows.rowids(r).unwrap()[i]).collect())
        .collect();
    tuples.sort_unstable();
    (rels, tuples)
}

/// Bitwise row-set identity (same emission order) — for comparing two runs
/// of the *same* trajectory at different thread counts.
fn assert_rowsets_bit_identical(a: &RowSet, b: &RowSet, label: &str) {
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

fn values_equivalent(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-9 * scale
        }
        _ => a == b,
    }
}

/// Aggregates over the identical input tuple set, computed under possibly
/// different emission orders: exact except for float summation order.
fn assert_aggs_equivalent(a: &Option<AggOutput>, b: &Option<AggOutput>, label: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.rows.len(), b.rows.len(), "{label}: group count");
            for (ra, rb) in a.rows.iter().zip(&b.rows) {
                assert_eq!(ra.keys, rb.keys, "{label}: group keys");
                assert_eq!(ra.aggs.len(), rb.aggs.len(), "{label}");
                for (va, vb) in ra.aggs.iter().zip(&rb.aggs) {
                    assert!(
                        values_equivalent(va, vb),
                        "{label}: aggregate {va:?} vs {vb:?}"
                    );
                }
            }
        }
        _ => panic!("{label}: one side aggregated, the other did not"),
    }
}

/// A digest of everything trajectory-relevant in a mid-query run.
fn trajectory_digest(run: &MidQueryRun) -> (Vec<u64>, usize, usize, usize) {
    (
        run.report.plans.iter().map(|p| p.fingerprint()).collect(),
        run.report.stats.suspensions,
        run.report.stats.plan_switches,
        run.report.stats.splices,
    )
}

/// The bound that replaced a suspension cap: each suspension merges two
/// of the plan's components and the root join never suspends, so a query
/// suspends at most `relations − 2` times, and a replan only ever follows
/// a suspension.
fn assert_suspension_bound(run: &MidQueryRun, query: &Query, label: &str) {
    let s = &run.report.stats;
    assert!(
        s.suspensions + 2 <= query.num_relations(),
        "{label}: {} suspensions over {} relations",
        s.suspensions,
        query.num_relations()
    );
    assert!(
        s.replans <= s.suspensions,
        "{label}: {} replans after {} suspensions",
        s.replans,
        s.suspensions
    );
}

/// The conformance check for one (workload, query):
///
/// 1. straight-through execution of the sampling loop's final plan is the
///    reference result;
/// 2. mid-query execution — suspending at every materialization point —
///    must produce the identical canonical tuple set and equivalent
///    aggregates, at every thread count;
/// 3. the mid-query trajectory itself must be thread-count invariant
///    (bit-identical rows, same plans, same counters);
/// 4. every exact Γ entry must equal the true observed cardinality —
///    estimate == observed, no sampling scale;
/// 5. the served path — `execute_plan` on the loop's final plan, Γ and
///    memo starting empty — obeys 2 and 3 as well.
fn check_conformance(bound: &ReoptEngine, query: &Query, label: &str) {
    let straight = bound.execute(query, ExecOpts::serial()).unwrap();
    let reference = canonical(&straight.run.rows);

    let mut runs: Vec<MidQueryRun> = Vec::new();
    let mut served_runs: Vec<MidQueryRun> = Vec::new();
    for threads in THREAD_COUNTS {
        // Exhaustive mode — replan at every materialization point, the
        // strongest form of the contract (the gated default skips replans
        // that confirm beliefs; it is checked separately below).
        let engine = mid_query_engine(bound, None, threads);
        let mid = engine
            .execute(query, ExecOpts::with_threads(threads))
            .unwrap();
        assert_suspension_bound(&mid.run, query, &format!("{label} threads={threads}"));

        let served = engine
            .execute_plan(
                query,
                &straight.report.final_plan,
                ExecOpts::with_threads(threads),
            )
            .unwrap();
        let ctx = format!("{label} served threads={threads}");
        assert_suspension_bound(&served, query, &ctx);
        assert_eq!(reference, canonical(&served.rows), "{ctx}: result differs");
        assert_aggs_equivalent(&straight.run.agg, &served.agg, &ctx);
        served_runs.push(served);

        assert_eq!(
            reference,
            canonical(&mid.run.rows),
            "{label}: mid-query result differs at threads={threads}"
        );
        assert_aggs_equivalent(
            &straight.run.agg,
            &mid.run.agg,
            &format!("{label} threads={threads}"),
        );
        // Joins of ≥3 relations have at least one non-root join: mid-query
        // must actually suspend there, once per materialization point.
        if query.num_relations() >= 3 {
            assert!(
                mid.run.report.stats.suspensions >= 1,
                "{label}: never suspended"
            );
            assert_eq!(
                mid.run.report.stats.replans, mid.run.report.stats.suspensions,
                "{label}: every suspension must replan"
            );
            assert!(
                mid.run.report.stats.splices >= 1,
                "{label}: resume never spliced a checkpoint"
            );
        }
        runs.push(mid.run);
    }

    // The gated default (replan only on ≥2× disagreement) must land on
    // the identical canonical result too — it can only skip replans,
    // never change what a segment computes.
    let gate = ReOptConfig::default().replan_discrepancy;
    let gated = mid_query_engine(bound, gate, 1)
        .execute(query, ExecOpts::serial())
        .unwrap();
    assert_eq!(
        reference,
        canonical(&gated.run.rows),
        "{label}: gated mid-query result differs"
    );
    assert_suspension_bound(&gated.run, query, &format!("{label} gated"));

    // Thread-count invariance of the whole trajectory, seeded and served.
    for (path, runs) in [("seeded", &runs), ("served", &served_runs)] {
        let base = &runs[0];
        for (i, run) in runs.iter().enumerate().skip(1) {
            assert_rowsets_bit_identical(
                &base.rows,
                &run.rows,
                &format!("{label} {path}: threads={} vs 1", THREAD_COUNTS[i]),
            );
            assert_eq!(
                trajectory_digest(base),
                trajectory_digest(run),
                "{label} {path}: trajectory diverged at threads={}",
                THREAD_COUNTS[i]
            );
        }
    }

    // Exactness: every exact Γ entry equals the true cardinality of that
    // set wherever the finishing plan's trace covers it.
    let base = &runs[0];
    let exec = Executor::with_opts(bound.db(), ExecOpts::serial());
    let trace = exec
        .run_pipeline(query, base.report.final_plan(), None)
        .unwrap()
        .node_cards;
    let mut verified = 0usize;
    for (set, rows) in trace {
        if base.report.gamma.is_exact(set) {
            assert_eq!(
                base.report.gamma.get(set),
                Some(rows as f64),
                "{label}: exact Γ({set}) diverges from observation"
            );
            verified += 1;
        }
    }
    if query.num_relations() >= 3 {
        assert!(verified > 0, "{label}: no exact entry was verifiable");
    }
}

/// The same contract when the *initial* sampling loop runs over a warm
/// shared `SubtreeCache` (dry-run replay): replayed validation must land
/// on the same plan, and mid-query execution from it on the same result.
fn check_replay_conformance(bound: &ReoptEngine, query: &Query, label: &str) {
    let opt = bound.optimizer();
    let shared = SharedSampleRunCache::new();
    let untraced = reopt::telemetry::Tracer::disabled();
    let cold = bound.reoptimize_with(query, &shared, &untraced).unwrap();
    let warm = bound.reoptimize_with(query, &shared, &untraced).unwrap(); // full replay
    assert!(
        cold.final_plan.same_structure(&warm.final_plan),
        "{label}: replayed loop chose a different plan"
    );
    assert!(
        warm.total_sample_cache_hits() > 0,
        "{label}: warm loop never hit the dry-run cache"
    );

    let mid_of = |report: &reopt::core::ReoptReport| {
        execute_mid_query(
            bound.db(),
            &opt,
            query,
            &report.final_plan,
            MidQueryOpts {
                gamma: report.gamma.clone(),
                exec: ExecOpts::serial(),
                replan_discrepancy: None,
                ..MidQueryOpts::new()
            },
        )
        .unwrap()
    };
    let a = mid_of(&cold);
    let b = mid_of(&warm);
    assert_suspension_bound(&a, query, label);
    assert_suspension_bound(&b, query, label);
    assert_rowsets_bit_identical(&a.rows, &b.rows, label);
    assert_eq!(
        trajectory_digest(&a),
        trajectory_digest(&b),
        "{label}: replay changed the mid-query trajectory"
    );
}

/// Engine vs oracle under the mid-query loop, at `threads ∈ {1, 4}`: the
/// rows the loop finishes with are the reference's tuple set for the
/// finishing plan, and the aggregate over those rows is **bit-identical**
/// to the reference aggregate over the same rows (same input order ⇒ same
/// float accumulation order).
fn check_reference_conformance(bound: &ReoptEngine, query: &Query, label: &str) {
    for threads in THREAD_COUNTS {
        let mid = mid_query_engine(bound, None, threads)
            .execute(query, ExecOpts::with_threads(threads))
            .unwrap()
            .run;
        assert_suspension_bound(&mid, query, &format!("{label} threads={threads}"));
        let oracle = reference::join_rows(bound.db(), query, mid.report.final_plan()).unwrap();
        assert_eq!(
            canonical(&oracle),
            canonical(&mid.rows),
            "{label}: rows diverged from the reference at threads={threads}"
        );
        let oracle_agg = query
            .aggregate
            .as_ref()
            .map(|spec| reference::aggregate(bound.db(), query, &mid.rows, spec).unwrap());
        assert_eq!(
            oracle_agg, mid.agg,
            "{label}: aggregate bits diverged from the reference at threads={threads}"
        );
    }
}

/// Tracing invariance: running the identical mid-query configuration with
/// span recording on must be **bit-identical** to running it with the
/// tracer off — same emission-order row sets, same trajectory, equivalent
/// aggregates — at `threads ∈ {1, 4}`. Telemetry is observation only; it
/// must never feed back into a plan or a row.
fn check_tracing_invariance(bound: &ReoptEngine, query: &Query, label: &str) {
    use reopt::telemetry::{names, Tracer};
    for threads in THREAD_COUNTS {
        let engine = mid_query_engine(bound, None, threads);
        let run_with = |tracer: Tracer| {
            engine
                .execute(
                    query,
                    ExecOpts {
                        threads,
                        tracer,
                        ..Default::default()
                    },
                )
                .unwrap()
        };
        let off = run_with(Tracer::disabled());
        let tracer = Tracer::enabled();
        let on = run_with(tracer.clone());
        let ctx = format!("{label}: threads={threads}");
        assert_suspension_bound(&off.run, query, &ctx);
        assert_suspension_bound(&on.run, query, &ctx);
        assert_rowsets_bit_identical(&off.run.rows, &on.run.rows, &ctx);
        assert_eq!(
            trajectory_digest(&off.run),
            trajectory_digest(&on.run),
            "{ctx}: tracing changed the mid-query trajectory"
        );
        assert_aggs_equivalent(&off.run.agg, &on.run.agg, &ctx);
        let trace = tracer.finish();
        assert!(
            trace.count(names::MIDQUERY_RUN) >= 1,
            "{ctx}: no midquery.run span recorded"
        );
        assert!(
            trace.count(names::MIDQUERY_SEGMENT) >= 1,
            "{ctx}: no midquery.segment span recorded"
        );
        if query.num_relations() >= 3 {
            assert_eq!(
                trace.count(names::MIDQUERY_SUSPEND),
                on.run.report.stats.suspensions,
                "{ctx}: one suspend span per suspension"
            );
        }
    }
}

#[test]
fn ott_mid_query_tracing_invariance() {
    let bound = ott_bound();
    let q = ott_query(bound.db(), &[0i64, 0, 0, 1]).unwrap();
    check_tracing_invariance(&bound, &q, "ott[0,0,0,1]");
}

#[test]
fn tpch_mid_query_tracing_invariance() {
    let bound = tpch_bound();
    let mut rng = derive_rng_indexed(11, "midquery-tpch-trace", 2);
    let q = tpch::instantiate(bound.db(), "q5", &mut rng).unwrap();
    check_tracing_invariance(&bound, &q, "tpch/q5");
}

#[test]
fn ott_mid_query_reference_conformance() {
    let bound = ott_bound();
    for consts in [vec![0i64, 0, 0, 1], vec![0, 1, 0, 1, 0]] {
        let q = ott_query(bound.db(), &consts).unwrap();
        check_reference_conformance(&bound, &q, &format!("ott{consts:?}"));
    }
}

#[test]
fn tpch_mid_query_reference_conformance() {
    let bound = tpch_bound();
    for name in ["q5", "q9"] {
        let mut rng = derive_rng_indexed(11, "midquery-tpch", 2);
        let q = tpch::instantiate(bound.db(), name, &mut rng).unwrap();
        check_reference_conformance(&bound, &q, &format!("tpch/{name}"));
    }
}

#[test]
fn tpcds_mid_query_reference_conformance() {
    let bound = tpcds_bound();
    for name in ["q3", "q50p"] {
        let mut rng = derive_rng_indexed(11, "midquery-tpcds", 2);
        let q = tpcds::instantiate(bound.db(), name, &mut rng).unwrap();
        check_reference_conformance(&bound, &q, &format!("tpcds/{name}"));
    }
}

#[test]
fn ott_mid_query_conformance() {
    let bound = ott_bound();
    for consts in [
        vec![0i64, 0, 0, 0],
        vec![0, 0, 0, 1],
        vec![0, 1, 0, 1, 0],
        vec![0, 0, 0, 0, 0],
    ] {
        let q = ott_query(bound.db(), &consts).unwrap();
        check_conformance(&bound, &q, &format!("ott{consts:?}"));
    }
}

#[test]
fn ott_mid_query_replay_conformance() {
    let bound = ott_bound();
    for consts in [vec![0i64, 0, 0, 1], vec![0, 0, 0, 0, 0]] {
        let q = ott_query(bound.db(), &consts).unwrap();
        check_replay_conformance(&bound, &q, &format!("ott{consts:?}"));
    }
}

#[test]
fn tpch_mid_query_conformance() {
    let bound = tpch_bound();
    // q5/q9 multi-join shapes; q8 is a hard template (correlated
    // conjunctions the native optimizer misestimates).
    for name in ["q5", "q8", "q9"] {
        let mut rng = derive_rng_indexed(11, "midquery-tpch", 0);
        let q = tpch::instantiate(bound.db(), name, &mut rng).unwrap();
        check_conformance(&bound, &q, &format!("tpch/{name}"));
    }
}

#[test]
fn tpch_mid_query_replay_conformance() {
    let bound = tpch_bound();
    let mut rng = derive_rng_indexed(11, "midquery-tpch", 1);
    let q = tpch::instantiate(bound.db(), "q8", &mut rng).unwrap();
    check_replay_conformance(&bound, &q, "tpch/q8");
}

#[test]
fn tpcds_mid_query_conformance() {
    let bound = tpcds_bound();
    // q25/q29 are the widest sale→return→sale joins; q50p is the paper's
    // hand-tweaked hard variant; q3 a well-estimated baseline.
    for name in ["q3", "q25", "q50p"] {
        let mut rng = derive_rng_indexed(11, "midquery-tpcds", 0);
        let q = tpcds::instantiate(bound.db(), name, &mut rng).unwrap();
        check_conformance(&bound, &q, &format!("tpcds/{name}"));
    }
}

#[test]
fn tpcds_mid_query_replay_conformance() {
    let bound = tpcds_bound();
    let mut rng = derive_rng_indexed(11, "midquery-tpcds", 1);
    let q = tpcds::instantiate(bound.db(), "q50p", &mut rng).unwrap();
    check_replay_conformance(&bound, &q, "tpcds/q50p");
}

/// A suspended query whose remainder replans to the same plan resumes
/// with zero extra executor work: drive Γ to an exact fixpoint, execute
/// mid-query from it, and demand straight-through metrics to the row.
#[test]
fn same_plan_resume_is_free() {
    let bound = ott_bound();
    let opt = bound.optimizer();
    let exec = Executor::with_opts(bound.db(), ExecOpts::serial());
    let q = ott_query(bound.db(), &[0, 0, 0, 0]).unwrap();

    let mut gamma = reopt::optimizer::CardOverrides::new();
    let mut plan = opt.optimize_with(&q, &gamma).unwrap().plan;
    for _ in 0..8 {
        for (set, rows) in exec.run_pipeline(&q, &plan, None).unwrap().node_cards {
            gamma.insert_exact(set, rows as f64);
        }
        let next = opt.optimize_with(&q, &gamma).unwrap().plan;
        if next.same_structure(&plan) {
            break;
        }
        plan = next;
    }

    let base = exec.run_pipeline(&q, &plan, None).unwrap();
    let mid = execute_mid_query(
        bound.db(),
        &opt,
        &q,
        &plan,
        MidQueryOpts {
            gamma,
            exec: ExecOpts::serial(),
            replan_discrepancy: None,
            ..MidQueryOpts::new()
        },
    )
    .unwrap();
    assert_suspension_bound(&mid, &q, "ott[0,0,0,0]");
    assert_eq!(mid.report.stats.plan_switches, 0, "fixture must not switch");
    assert!(mid.report.stats.suspensions > 0);
    assert_eq!(mid.metrics.rows_scanned, base.metrics.rows_scanned);
    assert_eq!(mid.metrics.rows_produced, base.metrics.rows_produced);
    assert_eq!(mid.metrics.index_probes, base.metrics.index_probes);
    assert!(mid.report.stats.splices > 0);
}
