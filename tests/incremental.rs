//! Equivalence suite for incremental re-optimization: Algorithm 1 as
//! shipped (cross-round DP memo + sample dry-run cache) must walk the
//! *same* round trajectory as a from-scratch oracle that plans with a
//! fresh DP search and validates with an uncached dry run every round —
//! same rounds, structurally identical plans, the same final plan and cost,
//! and an identical Γ — on the OTT suites, a TPC-H subset, and dense-sample
//! OTT chains whose plans change over several rounds. The caches are pure
//! work-avoidance; any observable divergence is a bug.

use reopt::common::rng::derive_rng_indexed;
use reopt::common::{ColId, TableId};
use reopt::core::{ReOptConfig, ReOptimizer, ReoptReport};
use reopt::optimizer::{CardOverrides, Optimizer};
use reopt::plan::query::ColRef;
use reopt::plan::{PhysicalPlan, Predicate, Query, QueryBuilder};
use reopt::sampling::{validate_plan, SampleConfig, SampleStore};
use reopt::stats::{analyze_database, AnalyzeOpts, DatabaseStats};
use reopt::storage::{Column, ColumnDef, Database, LogicalType, Table, TableSchema};
use reopt::workloads::ott::{
    build_ott_database, ott_query, ott_query_suite, recommended_sample_ratio, OttConfig,
};
use reopt::workloads::tpch::{build_tpch_database, instantiate, TpchConfig};

/// What the from-scratch oracle observes of one run.
struct Oracle {
    rounds: Vec<PhysicalPlan>,
    converged: bool,
    final_plan: PhysicalPlan,
    final_cost: f64,
    gamma: CardOverrides,
}

/// Algorithm 1 from scratch: `GetPlanFromOptimizer(Γ)` is a fresh DP
/// search and `GetCardinalityEstimatesBySampling(P)` an uncached dry run,
/// under the same round cap; a loop the cap stops returns the cheapest
/// plan so far under the final Γ (§5.4).
fn from_scratch(opt: &Optimizer<'_>, samples: &SampleStore, q: &Query) -> Oracle {
    let config = ReOptConfig::default();
    let mut gamma = CardOverrides::new();
    let mut rounds: Vec<PhysicalPlan> = Vec::new();
    let mut converged = false;
    while rounds.len() < config.max_rounds {
        let plan = opt.optimize_with(q, &gamma).unwrap().plan;
        converged = rounds.last().is_some_and(|p| p.same_structure(&plan));
        if !converged {
            let v = validate_plan(q, &plan, samples, &config.validation).unwrap();
            gamma.merge(&v.delta);
        }
        rounds.push(plan);
        if converged {
            break;
        }
    }
    let cost = |p: &PhysicalPlan| opt.cost_plan(q, p, &gamma).unwrap().1;
    let final_plan = if converged {
        rounds.last()
    } else {
        rounds.iter().min_by(|a, b| cost(a).total_cmp(&cost(b)))
    }
    .unwrap()
    .clone();
    Oracle {
        final_cost: cost(&final_plan),
        rounds,
        converged,
        final_plan,
        gamma,
    }
}

struct Setup {
    db: Database,
    stats: DatabaseStats,
    samples: SampleStore,
}

impl Setup {
    fn new(db: Database, ratio: f64) -> Self {
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let samples = SampleStore::build(
            &db,
            SampleConfig {
                ratio,
                ..Default::default()
            },
        )
        .unwrap();
        Setup { db, stats, samples }
    }

    /// Run the shipped loop and the oracle and assert full observable
    /// equivalence; returns the shipped loop's report.
    fn assert_equivalent(&self, q: &Query, label: &str) -> ReoptReport {
        let opt = Optimizer::new(&self.db, &self.stats);
        let a = ReOptimizer::new(&opt, &self.samples).run(q).unwrap();
        let b = from_scratch(&opt, &self.samples, q);
        assert_eq!(a.num_rounds(), b.rounds.len(), "{label}: round counts");
        assert_eq!(a.converged, b.converged, "{label}: convergence");
        for (ra, pb) in a.rounds.iter().zip(&b.rounds) {
            assert!(
                ra.plan.same_structure(pb),
                "{label}: round {} plans differ:\n{}\nvs\n{}",
                ra.round,
                ra.plan.explain(),
                pb.explain()
            );
        }
        assert!(
            a.final_plan.same_structure(&b.final_plan),
            "{label}: final plans differ:\n{}\nvs\n{}",
            a.final_plan.explain(),
            b.final_plan.explain()
        );
        assert_eq!(a.final_validated_cost, b.final_cost, "{label}: final cost");
        assert_eq!(a.gamma.len(), b.gamma.len(), "{label}: Γ sizes");
        for (set, rows) in a.gamma.iter() {
            assert_eq!(b.gamma.get(set), Some(rows), "{label}: Γ({set})");
        }
        a
    }
}

#[test]
fn ott_incremental_equals_from_scratch() {
    let config = OttConfig {
        rows_per_value: 12,
        ..Default::default()
    };
    let db = build_ott_database(&config).unwrap();
    let setup = Setup::new(db, recommended_sample_ratio(&config));
    for (n, m) in [(5usize, 3usize), (6, 3)] {
        for consts in ott_query_suite(n, m) {
            let q = ott_query(&setup.db, &consts).unwrap();
            setup.assert_equivalent(&q, &format!("ott {consts:?}"));
        }
    }
}

#[test]
fn ott_incremental_mode_reuses_work() {
    // The acceptance shape: on a plan-changing OTT trajectory, rounds ≥ 2
    // re-plan strictly fewer DP subsets than round 1 and validation hits
    // the sample cache, while the outcome matches the oracle exactly
    // (checked by assert_equivalent).
    let config = OttConfig {
        rows_per_value: 12,
        ..Default::default()
    };
    let db = build_ott_database(&config).unwrap();
    let setup = Setup::new(db, recommended_sample_ratio(&config));
    let mut saw_multi_round = false;
    for consts in ott_query_suite(5, 3) {
        let q = ott_query(&setup.db, &consts).unwrap();
        let inc = setup.assert_equivalent(&q, &format!("ott {consts:?}"));
        let r1 = &inc.rounds[0];
        assert_eq!(r1.dp_subsets_reused, 0, "{consts:?}: round 1 must be cold");
        for r in &inc.rounds[1..] {
            assert!(
                r.dp_subsets_replanned < r1.dp_subsets_replanned,
                "{consts:?}: round {} re-planned {} ≥ round 1's {}",
                r.round,
                r.dp_subsets_replanned,
                r1.dp_subsets_replanned
            );
        }
        if inc.num_rounds() > 2 {
            saw_multi_round = true;
            assert!(
                inc.total_sample_cache_hits() >= 1,
                "{consts:?}: multi-round run never hit the sample cache"
            );
        }
    }
    assert!(
        saw_multi_round,
        "suite produced no multi-round trajectory — fixture too easy"
    );
}

#[test]
fn tpch_incremental_equals_from_scratch() {
    let db = build_tpch_database(&TpchConfig {
        scale: 0.01,
        ..Default::default()
    })
    .unwrap();
    let setup = Setup::new(db, 0.05);
    for name in ["q3", "q5", "q9", "q21"] {
        for inst in 0..2u64 {
            let mut rng = derive_rng_indexed(0x1c4e, name, inst);
            let q = instantiate(&setup.db, name, &mut rng).unwrap();
            setup.assert_equivalent(&q, &format!("tpch {name}#{inst}"));
        }
    }
}

/// Chain database: `k` unshuffled relations `r{t}(a, b)` with b = a, `vals`
/// distinct values × `per` rows each, both columns indexed.
fn chain_db(k: usize, vals: i64, per: usize) -> Database {
    let mut db = Database::new();
    for t in 0..k {
        db.add_table_with(|id| {
            let schema = TableSchema::new(vec![
                ColumnDef::new("a", LogicalType::Int),
                ColumnDef::new("b", LogicalType::Int),
            ])?;
            let data: Vec<i64> = (0..vals)
                .flat_map(|v| std::iter::repeat_n(v, per))
                .collect();
            let mut tbl = Table::new(
                id,
                format!("r{t}"),
                schema,
                vec![
                    Column::from_i64(LogicalType::Int, data.clone()),
                    Column::from_i64(LogicalType::Int, data),
                ],
            )?;
            tbl.create_index(ColId::new(0))?;
            tbl.create_index(ColId::new(1))?;
            Ok(tbl)
        })
        .unwrap();
    }
    db
}

/// `a = consts[i]` on relation i, chain joins on `b`.
fn chain_query(consts: &[i64]) -> Query {
    let mut qb = QueryBuilder::new();
    let rels: Vec<_> = (0..consts.len())
        .map(|i| qb.add_relation(TableId::from(i)))
        .collect();
    for (&r, &c) in rels.iter().zip(consts) {
        qb.add_predicate(Predicate::eq(r, ColId::new(0), c));
    }
    for w in rels.windows(2) {
        qb.add_join(
            ColRef::new(w[0], ColId::new(1)),
            ColRef::new(w[1], ColId::new(1)),
        );
    }
    qb.build()
}

#[test]
fn dense_sample_chains_equal_from_scratch() {
    // Sampled densely (ratio 0.5), an empty edge is repaired over several
    // global transformations; trivial chains converge at once. Both kinds
    // must match the oracle.
    let setup = Setup::new(chain_db(5, 50, 20), 0.5);
    let mut saw_multi_round = false;
    for consts in [
        [0, 0, 0, 0, 1],
        [0, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [0, 0, 0, 0, 0],
    ] {
        let report = setup.assert_equivalent(&chain_query(&consts), &format!("chain {consts:?}"));
        saw_multi_round |= report.num_rounds() > 2;
    }
    assert!(
        saw_multi_round,
        "no multi-round trajectory among the chains"
    );
}
