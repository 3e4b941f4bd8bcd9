//! Multi-seed re-optimization — the paper's first §7 future-work item:
//!
//! > "rather than just returning one plan, the optimizer could return
//! > several candidates and let the re-optimization procedure work on each
//! > of them. This might make up for the potentially bad situation … that
//! > it may start with a bad seed plan."
//!
//! [`run_multi_seed`] runs Algorithm 1 once per seed optimizer
//! configuration (e.g. bushy + left-deep, or several cost-unit vectors),
//! **sharing Γ across runs**: validations from one seed's trajectory are
//! visible to the next, so later runs start with more of the space
//! validated and typically converge faster. The final answer is the
//! cheapest converged plan under the merged Γ.

use reopt_common::{Error, Result, Stopwatch};
use reopt_optimizer::{CardOverrides, Optimizer};
use reopt_plan::{PhysicalPlan, Query};
use reopt_sampling::{SampleStore, SharedSampleRunCache};

use crate::reopt::{IncrementalCaches, ReOptConfig};
use crate::report::RoundReport;
use reopt_plan::transform::{classify_transformation, is_covered_by};
use reopt_plan::JoinTree;
use std::time::Duration;

/// Outcome of a multi-seed run.
#[derive(Debug, Clone)]
pub struct MultiSeedReport {
    /// Index (into the seeds slice) of the winning run.
    pub winner: usize,
    /// The chosen plan.
    pub final_plan: PhysicalPlan,
    /// Cost of the chosen plan under the merged Γ.
    pub final_cost: f64,
    /// Rounds used by each seed's loop.
    pub rounds_per_seed: Vec<usize>,
    /// The merged Γ across all runs.
    pub gamma: CardOverrides,
    /// Total wall time.
    pub elapsed: Duration,
}

/// Run Algorithm 1 from several seed optimizers, sharing Γ, and return the
/// best final plan under the merged statistics.
pub fn run_multi_seed(
    seeds: &[&Optimizer<'_>],
    samples: &SampleStore,
    query: &Query,
    config: &ReOptConfig,
) -> Result<MultiSeedReport> {
    if seeds.is_empty() {
        return Err(Error::invalid("multi-seed re-optimization needs ≥1 seed"));
    }
    let start = Stopwatch::start();
    let mut gamma = CardOverrides::new();
    let mut finals: Vec<PhysicalPlan> = Vec::with_capacity(seeds.len());
    let mut rounds_per_seed = Vec::with_capacity(seeds.len());
    // The sample dry-run cache depends only on (query, samples), so it is
    // shared across *all* seeds — later seeds validate mostly from cache,
    // the same effect the shared Γ has on their round counts.
    let mut caches = IncrementalCaches::new(config.incremental, SharedSampleRunCache::new());

    for optimizer in seeds {
        // Algorithm 1 with a *pre-seeded* Γ (the merge of everything
        // validated so far across seeds). The DP memo is bound to one
        // optimizer configuration, so each seed starts a fresh one.
        caches.reset_memo();
        let rounds = seed_loop(
            optimizer,
            samples,
            query,
            config,
            start,
            &mut gamma,
            &mut caches,
        )?;
        rounds_per_seed.push(rounds.len());
        let last = rounds
            .last()
            .ok_or_else(|| Error::internal("seed_loop returned zero rounds"))?;
        finals.push(last.plan.clone());
    }

    pick_winner(seeds, query, finals, rounds_per_seed, gamma, start)
}

/// Run Algorithm 1 once per seed, **one scoped thread per seed** — the
/// fan-out regime for when cores outnumber seeds. Unlike
/// [`run_multi_seed`], seeds cannot see each other's Γ mid-flight
/// (cross-seed Γ sharing is inherently sequential): each runs from an
/// empty Γ with private caches, the per-seed Γs are merged in seed order
/// afterwards, and the winner is judged under the merged Γ exactly like
/// the sequential tournament. With `time_budget: None` (the default)
/// every seed's trajectory depends only on its own inputs, so the outcome
/// is deterministic and independent of thread interleaving; a set budget
/// is shared wall-clock, and which round a seed's elapsed check trips on
/// then depends on scheduling — exactly as in the sequential tournament,
/// where later seeds inherit whatever time earlier ones left. The trade
/// is wall-clock for the sequential version's warm-start acceleration of
/// later seeds.
///
/// Each seed's *dry runs* additionally exploit
/// [`ValidationOpts::threads`], so the two levels of parallelism compose.
pub fn run_multi_seed_parallel(
    seeds: &[&Optimizer<'_>],
    samples: &SampleStore,
    query: &Query,
    config: &ReOptConfig,
) -> Result<MultiSeedReport> {
    if seeds.is_empty() {
        return Err(Error::invalid("multi-seed re-optimization needs ≥1 seed"));
    }
    let start = Stopwatch::start();
    let per_seed: Vec<(Vec<RoundReport>, CardOverrides)> = std::thread::scope(|s| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|optimizer| {
                s.spawn(move || -> Result<(Vec<RoundReport>, CardOverrides)> {
                    let mut gamma = CardOverrides::new();
                    let mut caches =
                        IncrementalCaches::new(config.incremental, SharedSampleRunCache::new());
                    let rounds = seed_loop(
                        optimizer,
                        samples,
                        query,
                        config,
                        start,
                        &mut gamma,
                        &mut caches,
                    )?;
                    Ok((rounds, gamma))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| Error::internal("multi-seed worker panicked"))?
            })
            .collect::<Result<Vec<_>>>()
    })?;

    // Merge Γ in seed order. Validation is deterministic, so seeds that
    // validated the same set agree on its value; the fixed order still
    // pins the iteration-order-sensitive internals for reproducibility.
    let mut gamma = CardOverrides::new();
    let mut finals = Vec::with_capacity(seeds.len());
    let mut rounds_per_seed = Vec::with_capacity(seeds.len());
    for (rounds, seed_gamma) in per_seed {
        gamma.merge(&seed_gamma);
        rounds_per_seed.push(rounds.len());
        let last = rounds
            .last()
            .ok_or_else(|| Error::internal("seed_loop returned zero rounds"))?;
        finals.push(last.plan.clone());
    }
    pick_winner(seeds, query, finals, rounds_per_seed, gamma, start)
}

/// One seed's Algorithm 1 loop against a caller-owned Γ and cache set —
/// the body shared by the sequential and parallel tournaments.
fn seed_loop(
    optimizer: &Optimizer<'_>,
    samples: &SampleStore,
    query: &Query,
    config: &ReOptConfig,
    start: Stopwatch,
    gamma: &mut CardOverrides,
    caches: &mut IncrementalCaches,
) -> Result<Vec<RoundReport>> {
    let mut rounds: Vec<RoundReport> = Vec::new();
    let mut prev_plan: Option<PhysicalPlan> = None;
    let mut prev_trees: Vec<JoinTree> = Vec::new();
    loop {
        // Same contract as ReOptimizer::run: a blown budget must not
        // buy another optimize+validate cycle. Every seed still gets
        // one round — each needs a final plan to enter the tournament.
        if !rounds.is_empty() {
            if let Some(budget) = config.time_budget {
                if start.elapsed() > budget {
                    break;
                }
            }
        }
        let round = rounds.len() + 1;
        let t0 = Stopwatch::start();
        let planned = caches.plan(optimizer, query, gamma)?;
        let optimize_time = t0.elapsed();
        let tree = planned.plan.logical_tree();
        let same = prev_plan
            .as_ref()
            .is_some_and(|p| p.same_structure(&planned.plan));
        let transform = prev_plan
            .as_ref()
            .map(|p| classify_transformation(&p.logical_tree(), &tree));
        let covered = {
            let refs: Vec<&JoinTree> = prev_trees.iter().collect();
            is_covered_by(&tree, &refs)
        };
        if same {
            let (_, vcost) = optimizer.cost_plan(query, &planned.plan, gamma)?;
            rounds.push(RoundReport {
                round,
                est_rows: planned.plan.est_rows(),
                est_cost: planned.plan.est_cost(),
                plan: planned.plan,
                transform,
                covered_by_previous: covered,
                gamma_new_entries: 0,
                validated_cost: vcost,
                optimize_time,
                validation_time: Duration::ZERO,
                dp_subsets_reused: planned.search.subsets_reused,
                dp_subsets_replanned: planned.search.subsets_replanned,
                sample_cache_hits: 0,
                sample_subtrees_executed: 0,
            });
            break;
        }
        let v = caches.validate(query, &planned.plan, samples, &config.validation)?;
        caches.note_delta(gamma, &v.delta);
        let fresh = gamma.merge(&v.delta);
        let (_, vcost) = optimizer.cost_plan(query, &planned.plan, gamma)?;
        rounds.push(RoundReport {
            round,
            est_rows: planned.plan.est_rows(),
            est_cost: planned.plan.est_cost(),
            plan: planned.plan.clone(),
            transform,
            covered_by_previous: covered,
            gamma_new_entries: fresh,
            validated_cost: vcost,
            optimize_time,
            validation_time: v.elapsed,
            dp_subsets_reused: planned.search.subsets_reused,
            dp_subsets_replanned: planned.search.subsets_replanned,
            sample_cache_hits: v.cache_hits,
            sample_subtrees_executed: v.subtrees_executed,
        });
        prev_trees.push(tree);
        prev_plan = Some(planned.plan);
        if rounds.len() >= config.max_rounds {
            break;
        }
    }
    Ok(rounds)
}

/// Pick the cheapest final plan under the merged Γ, costed by its own
/// seed optimizer (each seed may use different cost units; the winner
/// is judged by its owner's model — a tie-break documented choice).
fn pick_winner(
    seeds: &[&Optimizer<'_>],
    query: &Query,
    finals: Vec<PhysicalPlan>,
    rounds_per_seed: Vec<usize>,
    gamma: CardOverrides,
    start: Stopwatch,
) -> Result<MultiSeedReport> {
    let mut winner = 0usize;
    let mut best_cost = f64::INFINITY;
    for (i, (plan, optimizer)) in finals.iter().zip(seeds).enumerate() {
        let (_, cost) = optimizer.cost_plan(query, plan, &gamma)?;
        if cost < best_cost {
            best_cost = cost;
            winner = i;
        }
    }
    Ok(MultiSeedReport {
        winner,
        final_plan: finals[winner].clone(),
        final_cost: best_cost,
        rounds_per_seed,
        gamma,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_common::{ColId, TableId};
    use reopt_optimizer::OptimizerConfig;
    use reopt_plan::query::ColRef;
    use reopt_plan::{Predicate, QueryBuilder};
    use reopt_sampling::SampleConfig;
    use reopt_stats::{analyze_database, AnalyzeOpts};
    use reopt_storage::{Column, ColumnDef, Database, LogicalType, Table, TableSchema};

    fn ott_db(k: usize, vals: i64, per: usize) -> Database {
        let mut db = Database::new();
        for t in 0..k {
            db.add_table_with(|id| {
                let schema = TableSchema::new(vec![
                    ColumnDef::new("a", LogicalType::Int),
                    ColumnDef::new("b", LogicalType::Int),
                ])?;
                let mut data = Vec::new();
                for v in 0..vals {
                    data.extend(std::iter::repeat_n(v, per));
                }
                let mut tbl = Table::new(
                    id,
                    format!("m{t}"),
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

    fn ott_query(k: usize, consts: &[i64]) -> reopt_plan::Query {
        let mut qb = QueryBuilder::new();
        let rels: Vec<_> = (0..k).map(|i| qb.add_relation(TableId::from(i))).collect();
        for (i, &r) in rels.iter().enumerate() {
            qb.add_predicate(Predicate::eq(r, ColId::new(0), consts[i]));
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
    fn multi_seed_beats_or_matches_each_seed() {
        let db = ott_db(5, 40, 10);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let samples = SampleStore::build(
            &db,
            SampleConfig {
                ratio: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        let bushy = Optimizer::new(&db, &stats);
        let left_deep = Optimizer::with_config(
            &db,
            &stats,
            OptimizerConfig {
                left_deep_only: true,
                ..OptimizerConfig::postgres_like()
            },
        );
        let q = ott_query(5, &[0, 0, 1, 0, 0]);
        let config = ReOptConfig::default();
        let report = run_multi_seed(&[&bushy, &left_deep], &samples, &q, &config).unwrap();
        assert!(report.winner < 2);
        assert_eq!(report.rounds_per_seed.len(), 2);
        // The winning cost can't exceed what a single bushy run achieves.
        let single = crate::reopt::ReOptimizer::new(&bushy, &samples)
            .run(&q)
            .unwrap();
        let (_, single_cost) = bushy
            .cost_plan(&q, &single.final_plan, &report.gamma)
            .unwrap();
        assert!(report.final_cost <= single_cost * (1.0 + 1e-9));
    }

    #[test]
    fn shared_gamma_accelerates_later_seeds() {
        let db = ott_db(5, 40, 10);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let samples = SampleStore::build(
            &db,
            SampleConfig {
                ratio: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        let opt = Optimizer::new(&db, &stats);
        let q = ott_query(5, &[0, 0, 0, 0, 1]);
        let config = ReOptConfig::default();
        // Same optimizer twice: the second run sees the first run's Γ and
        // must converge in at most as many rounds.
        let report = run_multi_seed(&[&opt, &opt], &samples, &q, &config).unwrap();
        assert!(
            report.rounds_per_seed[1] <= report.rounds_per_seed[0],
            "{:?}",
            report.rounds_per_seed
        );
        // Second run should converge almost immediately (plan + confirm).
        assert!(report.rounds_per_seed[1] <= 2);
    }

    #[test]
    fn incremental_multi_seed_matches_from_scratch() {
        let db = ott_db(5, 40, 10);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let samples = SampleStore::build(
            &db,
            SampleConfig {
                ratio: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        let bushy = Optimizer::new(&db, &stats);
        let left_deep = Optimizer::with_config(
            &db,
            &stats,
            OptimizerConfig {
                left_deep_only: true,
                ..OptimizerConfig::postgres_like()
            },
        );
        let q = ott_query(5, &[0, 0, 0, 0, 1]);
        let inc = run_multi_seed(
            &[&bushy, &left_deep],
            &samples,
            &q,
            &ReOptConfig {
                incremental: true,
                ..Default::default()
            },
        )
        .unwrap();
        let scratch = run_multi_seed(
            &[&bushy, &left_deep],
            &samples,
            &q,
            &ReOptConfig {
                incremental: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(inc.winner, scratch.winner);
        assert_eq!(inc.rounds_per_seed, scratch.rounds_per_seed);
        assert!(inc.final_plan.same_structure(&scratch.final_plan));
        assert_eq!(inc.gamma.len(), scratch.gamma.len());
        for (set, rows) in inc.gamma.iter() {
            assert_eq!(scratch.gamma.get(set), Some(rows), "Γ({set})");
        }
    }

    #[test]
    fn parallel_multi_seed_is_deterministic_and_sound() {
        let db = ott_db(5, 40, 10);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let samples = SampleStore::build(
            &db,
            SampleConfig {
                ratio: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        let bushy = Optimizer::new(&db, &stats);
        let left_deep = Optimizer::with_config(
            &db,
            &stats,
            OptimizerConfig {
                left_deep_only: true,
                ..OptimizerConfig::postgres_like()
            },
        );
        let q = ott_query(5, &[0, 0, 1, 0, 0]);
        let config = ReOptConfig::default();
        let seeds: [&Optimizer<'_>; 2] = [&bushy, &left_deep];

        // Determinism: two parallel fan-outs land in exactly the same
        // place — seed trajectories are interleaving-independent.
        let a = run_multi_seed_parallel(&seeds, &samples, &q, &config).unwrap();
        let b = run_multi_seed_parallel(&seeds, &samples, &q, &config).unwrap();
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.rounds_per_seed, b.rounds_per_seed);
        assert!(a.final_plan.same_structure(&b.final_plan));
        assert_eq!(a.gamma.len(), b.gamma.len());
        for (set, rows) in a.gamma.iter() {
            assert_eq!(b.gamma.get(set), Some(rows), "Γ({set})");
        }

        // Soundness: every seed's trajectory equals a solo cold run of
        // that seed (no mid-flight Γ sharing by construction), so each
        // per-seed round count matches the solo run's.
        for (i, opt) in seeds.iter().enumerate() {
            let solo = crate::reopt::ReOptimizer::with_config(opt, &samples, config.clone())
                .run(&q)
                .unwrap();
            assert_eq!(
                a.rounds_per_seed[i],
                solo.num_rounds(),
                "seed {i} diverged from its solo run"
            );
        }
    }

    #[test]
    fn empty_seed_list_rejected() {
        let db = ott_db(2, 10, 4);
        let samples = SampleStore::build(&db, SampleConfig::default()).unwrap();
        let q = ott_query(2, &[0, 0]);
        let r = run_multi_seed(&[], &samples, &q, &ReOptConfig::default());
        assert!(r.is_err());
    }
}
