//! Machine checks of the paper's theory (§3) against real re-optimization
//! runs — Theorems 1, 2, 5 and Corollary 2, plus the Lemma 4 blindness
//! result that motivates the OTT.

use std::sync::Arc;

use reopt::common::{RelId, RelSet};
use reopt::core::ReoptEngine;
use reopt::optimizer::{CardEstConfig, CardOverrides, CardinalityEstimator};
use reopt::plan::transform::TransformKind;
use reopt::sampling::SampleConfig;
use reopt::stats::AnalyzeOpts;
use reopt::workloads::ott::{
    build_ott_database, ott_query, ott_query_suite, recommended_sample_ratio, OttConfig,
};

/// An engine over the OTT database at `rows_per_value`, sampled at the
/// recommended ratio.
fn ott_engine(rows_per_value: usize) -> ReoptEngine {
    let config = OttConfig {
        rows_per_value,
        ..Default::default()
    };
    ReoptEngine::from_database(
        Arc::new(build_ott_database(&config).unwrap()),
        &AnalyzeOpts::default(),
        SampleConfig {
            ratio: recommended_sample_ratio(&config),
            ..Default::default()
        },
    )
    .unwrap()
}

/// Theorem 1 / Corollary 1: the loop always terminates, and whenever a
/// round adds nothing to Γ the next round is terminal.
#[test]
fn theorem1_convergence_condition() {
    let re = ott_engine(8);
    for consts in ott_query_suite(6, 4) {
        let q = ott_query(re.db(), &consts).unwrap();
        let report = re.reoptimize(&q).unwrap();
        assert!(report.converged, "{consts:?}");
        for (i, r) in report.rounds.iter().enumerate() {
            if i + 1 < report.rounds.len() && r.gamma_new_entries == 0 {
                assert_eq!(
                    report.rounds[i + 1].transform,
                    Some(TransformKind::Identical),
                    "{consts:?}: covered round {} not followed by termination",
                    r.round
                );
            }
        }
    }
}

/// Theorem 2: across the whole 5-relation suite the transformation chain
/// is global* [local] identical.
#[test]
fn theorem2_chain_structure() {
    let re = ott_engine(8);
    for consts in ott_query_suite(5, 4) {
        let q = ott_query(re.db(), &consts).unwrap();
        let report = re.reoptimize(&q).unwrap();
        report
            .verify_theorem2()
            .unwrap_or_else(|e| panic!("{consts:?}: {e}"));
    }
}

/// Theorem 5: under the final Γ, the final plan costs no more than any
/// plan generated along the way.
#[test]
fn theorem5_final_plan_optimality() {
    let re = ott_engine(8);
    for consts in ott_query_suite(5, 4).into_iter().take(6) {
        let q = ott_query(re.db(), &consts).unwrap();
        let report = re.reoptimize(&q).unwrap();
        let (final_cost, per_round) = report.verify_final_optimality(&re.optimizer(), &q).unwrap();
        for (i, c) in per_round.iter().enumerate() {
            assert!(
                final_cost <= c * (1.0 + 1e-9),
                "{consts:?}: round {} plan cheaper ({c}) than final ({final_cost})",
                i + 1
            );
        }
    }
}

/// Theorem 6: the converged plan is the best among its local
/// transformations under the final Γ — checked by enumerating operand
/// swaps and operator substitutions of the final plan and re-costing each.
#[test]
fn theorem6_final_plan_beats_local_transformations() {
    let re = ott_engine(8);
    let mut total_alternatives = 0usize;
    for consts in ott_query_suite(5, 4).into_iter().take(6) {
        let q = ott_query(re.db(), &consts).unwrap();
        let report = re.reoptimize(&q).unwrap();
        assert!(report.converged);
        let examined = report
            .verify_theorem6(&re.optimizer(), &q)
            .unwrap_or_else(|e| panic!("{consts:?}: {e}"));
        total_alternatives += examined;
    }
    assert!(total_alternatives > 0, "no local alternatives examined");
}

/// Corollary 2's scenario, part 1: wherever the loop takes a local step,
/// the tree's unordered join sets match the previous round's exactly.
#[test]
fn corollary2_local_step_shares_join_sets() {
    let re = ott_engine(8);
    for consts in ott_query_suite(6, 4)
        .into_iter()
        .chain(ott_query_suite(5, 4))
    {
        let q = ott_query(re.db(), &consts).unwrap();
        let report = re.reoptimize(&q).unwrap();
        for w in report.rounds.windows(2) {
            if w[1].transform == Some(TransformKind::Local) {
                assert_eq!(
                    w[0].plan.logical_tree().join_sets(),
                    w[1].plan.logical_tree().join_sets(),
                    "{consts:?}"
                );
            }
        }
    }
}

/// Corollary 2's scenario, part 2 (deterministic): a Γ that inflates one
/// side of a two-table join flips the hash join's build/probe orientation
/// — a *local* transformation by Definition 1 — and the classification
/// machinery reports it as such.
#[test]
fn corollary2_engineered_local_transformation() {
    use reopt::plan::transform::classify_transformation;
    let re = ott_engine(8);
    let opt = re.optimizer();
    let q = ott_query(re.db(), &[0, 0]).unwrap();
    let p1 = opt.optimize(&q).unwrap();

    // Claim whichever relation the plan currently treats as small is huge.
    let mut flipped = None;
    for (rel, inflate) in [(RelId::new(0), true), (RelId::new(1), true)] {
        let mut gamma = CardOverrides::new();
        let _ = inflate;
        gamma.insert(RelSet::single(rel), 1.0e7);
        let p2 = opt.optimize_with(&q, &gamma).unwrap();
        if !p1.plan.same_structure(&p2.plan) {
            flipped = Some(p2);
            break;
        }
    }
    let p2 = flipped.expect("no Γ produced a different 2-table plan");
    let kind = classify_transformation(&p1.plan.logical_tree(), &p2.plan.logical_tree());
    // With only two relations every alternative tree is a local
    // transformation (same unordered join set {0,1}).
    assert_eq!(kind, TransformKind::Local);
    assert_eq!(
        p1.plan.logical_tree().join_sets(),
        p2.plan.logical_tree().join_sets()
    );
}

/// Lemma 4 / §4.2.2: the native estimate for an OTT query is identical
/// whether or not the constants make it empty — for every prefix length.
#[test]
fn lemma4_estimates_blind_to_emptiness() {
    let re = ott_engine(8);
    let (db, stats) = (re.db(), re.stats());
    for k in 2..=6usize {
        let empty_consts: Vec<i64> = (0..k).map(|i| (i == k - 1) as i64).collect();
        let nonempty_consts = vec![0i64; k];
        let q_empty = ott_query(db, &empty_consts).unwrap();
        let q_nonempty = ott_query(db, &nonempty_consts).unwrap();
        let g = CardOverrides::new();
        let mut e1 =
            CardinalityEstimator::new(db, stats, &q_empty, &g, &CardEstConfig::default()).unwrap();
        let mut e2 =
            CardinalityEstimator::new(db, stats, &q_nonempty, &g, &CardEstConfig::default())
                .unwrap();
        let all = RelSet::first_n(k);
        let est_empty = e1.rows(all);
        let est_nonempty = e2.rows(all);
        assert!(
            (est_empty - est_nonempty).abs() < 1e-9,
            "k={k}: {est_empty} vs {est_nonempty}"
        );
    }
}

/// After re-optimization of an empty OTT query, Γ contains a validated
/// (near-)empty join — the mechanism that fixes the plan.
#[test]
fn gamma_contains_discovered_empty_join() {
    let re = ott_engine(8);
    for consts in [vec![0i64, 0, 0, 0, 1], vec![1, 0, 0, 0, 0]] {
        let q = ott_query(re.db(), &consts).unwrap();
        let report = re.reoptimize(&q).unwrap();
        let empty_joins: Vec<(RelSet, f64)> = report
            .gamma
            .iter()
            .filter(|(s, rows)| s.len() >= 2 && *rows <= 1.0)
            .collect();
        assert!(
            !empty_joins.is_empty(),
            "{consts:?}: Γ = {:?}",
            report.gamma.iter().collect::<Vec<_>>()
        );
        // And the final plan's first executed join (deepest leftmost) is
        // one of the validated near-empty sets or produces few rows.
        let sets = report.final_plan.logical_tree().join_sets();
        let smallest = sets.iter().min_by_key(|s| s.len()).unwrap();
        let est = report.gamma.get(*smallest);
        assert!(
            est.is_none_or(|rows| rows <= 10.0),
            "{consts:?}: first join estimated at {est:?}"
        );
    }
}

/// Determinism across identical runs (foundation for every other check).
#[test]
fn full_pipeline_is_deterministic() {
    let re = ott_engine(8);
    let q = ott_query(re.db(), &[0, 1, 0, 0, 1]).unwrap();
    let a = re.reoptimize(&q).unwrap();
    let b = re.reoptimize(&q).unwrap();
    assert_eq!(a.num_rounds(), b.num_rounds());
    assert!(a.final_plan.same_structure(&b.final_plan));
    let ra: Vec<_> = a.rounds.iter().map(|r| r.plan.fingerprint()).collect();
    let rb: Vec<_> = b.rounds.iter().map(|r| r.plan.fingerprint()).collect();
    assert_eq!(ra, rb);
}

/// RelId sanity for the suite helper (documents the fixture contract).
#[test]
fn suite_queries_reference_first_n_tables() {
    let re = ott_engine(8);
    for consts in ott_query_suite(5, 4) {
        let q = ott_query(re.db(), &consts).unwrap();
        assert_eq!(q.num_relations(), 5);
        for i in 0..5 {
            assert_eq!(q.table_of(RelId::new(i)).unwrap().index(), i as usize);
        }
    }
}

/// Corollary 3: when all estimation errors are overestimates, the
/// sampling-validated costs cost_s(P_i) are non-increasing across rounds.
///
/// Engineered overestimation-only scenario: each chain table carries one
/// rare value (a single row) inside a wide non-MCV tail, so the native
/// equality estimate (non-MCV mass / nd_other ≈ 25 rows) overestimates
/// the true single-row selection ~25×; every join above inherits the
/// overestimate. Validation can only shrink cardinalities, which is the
/// corollary's premise.
#[test]
fn corollary3_overestimation_only_costs_are_monotone() {
    use reopt::common::{ColId, TableId};
    use reopt::plan::query::ColRef;
    use reopt::plan::{Predicate, QueryBuilder};
    use reopt::storage::{Column, ColumnDef, LogicalType, Table, TableSchema};

    let mut db = reopt::storage::Database::new();
    for t in 0..4usize {
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("a", LogicalType::Int),
                ColumnDef::new("b", LogicalType::Int),
            ])?;
            // 10_000 rows: value 0 dominates (50%, the only MCV); values
            // 1..=199 appear ~25 times each — except value 1, which
            // appears exactly once (the rare probe target).
            let mut a: Vec<i64> = vec![0; 5000];
            a.push(1);
            let mut v = 2i64;
            while a.len() < 10_000 {
                for _ in 0..25 {
                    if a.len() >= 10_000 {
                        break;
                    }
                    a.push(v);
                }
                v = if v >= 199 { 2 } else { v + 1 };
            }
            // Join column: uniform keys independent of `a`, so join
            // selectivities are estimated accurately — the *only* errors
            // are the leaf overestimates.
            let b: Vec<i64> = (0..10_000).map(|i| i % 100).collect();
            let mut tbl = Table::new(
                id,
                format!("ov{t}"),
                schema,
                vec![
                    Column::from_i64(LogicalType::Int, a),
                    Column::from_i64(LogicalType::Int, b),
                ],
            )?;
            tbl.create_index(ColId::new(0))?;
            tbl.create_index(ColId::new(1))?;
            Ok(tbl)
        })
        .unwrap();
    }
    let re = ReoptEngine::from_database(
        Arc::new(db),
        &AnalyzeOpts::default(),
        SampleConfig {
            ratio: 0.2,
            ..Default::default()
        },
    )
    .unwrap();
    let opt = re.optimizer();

    let mut qb = QueryBuilder::new();
    let rels: Vec<_> = (0..4usize)
        .map(|i| qb.add_relation(TableId::from(i)))
        .collect();
    for &r in &rels {
        qb.add_predicate(Predicate::eq(r, ColId::new(0), 1i64)); // the rare value
    }
    for w in rels.windows(2) {
        qb.add_join(
            ColRef::new(w[0], ColId::new(1)),
            ColRef::new(w[1], ColId::new(1)),
        );
    }
    let q = qb.build();

    // Premise check: the native leaf estimate really is an overestimate.
    let native = opt
        .estimate_rows(&q, &CardOverrides::new(), RelSet::single(RelId::new(0)))
        .unwrap();
    assert!(
        native > 5.0,
        "leaf estimate {native} not an overestimate of 1"
    );

    let report = re.reoptimize(&q).unwrap();
    assert!(report.converged);
    // All Γ entries shrank the estimates (overestimation-only regime)...
    for (set, rows) in report.gamma.iter() {
        let est = opt.estimate_rows(&q, &CardOverrides::new(), set).unwrap();
        // Validation clamps to ≥1 row, so compare against the clamped
        // native estimate: anything at the clamp floor is still a
        // downward (or neutral) correction.
        assert!(
            rows <= est.max(1.0) * 1.05,
            "{set}: validated {rows} above native {est} — not an overestimate"
        );
    }
    // ...and Corollary 3's monotonicity holds round over round.
    let costs: Vec<f64> = report.rounds.iter().map(|r| r.validated_cost).collect();
    for w in costs.windows(2) {
        assert!(
            w[1] <= w[0] * (1.0 + 1e-9),
            "validated costs not monotone: {costs:?}"
        );
    }
}
