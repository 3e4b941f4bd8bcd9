//! Algorithm 1 — sampling-based query re-optimization.
//!
//! ```text
//! Γ ← ∅; P₀ ← null; i ← 1
//! loop:
//!     Pᵢ ← GetPlanFromOptimizer(Γ)
//!     if Pᵢ = Pᵢ₋₁: break
//!     Δᵢ ← GetCardinalityEstimatesBySampling(Pᵢ)
//!     Γ ← Γ ∪ Δᵢ
//!     i ← i + 1
//! return Pᵢ
//! ```
//!
//! The loop is guaranteed to terminate (Corollary 1): each non-terminal
//! round must add at least one previously unseen join to Γ, and the join
//! space is finite. The loop applies the practical stopping strategies the
//! paper discusses in §5.4: a round cap ([`ReOptConfig::max_rounds`], 32 by
//! default — a safety net the paper's queries never reach) and an optional
//! wall-clock budget ([`ReOptConfig::time_budget`], off by default). When
//! either stops the loop before it converges, the final plan is the
//! cheapest of the plans generated so far under the final Γ.
//!
//! Every round reuses the previous rounds' work: the optimizer keeps its DP
//! table in a [`PlanMemo`] and re-plans only the subsets whose
//! cardinalities the latest Δ can affect, and validation replays sample
//! dry-run subtrees from a [`SharedSampleRunCache`] instead of
//! re-executing them. Both caches are exact — `tests/incremental.rs` holds
//! the loop to a from-scratch oracle (fresh DP, uncached dry runs every
//! round) round by round.

use std::time::Duration;

use crate::report::{ReoptReport, RoundReport};
use reopt_common::{Error, RelSet, Result, Stopwatch};
use reopt_optimizer::{CardOverrides, Optimizer, PlanMemo};
use reopt_plan::transform::{classify_transformation, is_covered_by};
use reopt_plan::{JoinTree, PhysicalPlan, Query};
use reopt_sampling::{validate_plan_cached, SampleStore, SharedSampleRunCache, ValidationOpts};
use reopt_telemetry::{names, Tracer};

/// Stopping strategy and validation knobs for the re-optimization loop.
#[derive(Debug, Clone)]
pub struct ReOptConfig {
    /// Hard cap on optimizer invocations (safety net; the paper observed
    /// fewer than 10 rounds for every tested query).
    pub max_rounds: usize,
    /// Optional wall-clock budget for the whole loop (§5.4's timeout
    /// strategy).
    pub time_budget: Option<Duration>,
    /// Sampling validation options.
    pub validation: ValidationOpts,
    /// Mid-query re-optimization (off by default): execution suspends at
    /// every materialization point (non-root join), folds the exact
    /// observed cardinalities into Γ, re-plans the remainder with the
    /// completed subtrees pinned as zero-cost leaves, and resumes —
    /// completed work is never re-executed (see [`crate::midquery`]).
    /// Result-equivalent to straight-through execution: only the plan that
    /// *finishes* the query can change, never the answer. One function
    /// reads it, behind [`ReoptEngine::execute`](crate::ReoptEngine::execute)
    /// and [`ReoptEngine::execute_plan`](crate::ReoptEngine::execute_plan)
    /// (the serving layer's execute path). No cap is needed: a query
    /// suspends at most `relations − 2` times.
    pub mid_query: bool,
    /// Mid-query replan gate: re-enter the optimizer only when a newly
    /// observed join cardinality disagrees with the current belief by at
    /// least this factor in either direction (or was never estimated at
    /// all). Observations always land in Γ as exact entries either way —
    /// the gate only skips DP invocations that could not change the plan
    /// in any interesting way, which is what keeps the knob's overhead
    /// negligible on well-estimated queries. `None` replans at every
    /// suspension (the exhaustive mode the conformance suite also
    /// exercises).
    pub replan_discrepancy: Option<f64>,
}

impl Default for ReOptConfig {
    fn default() -> Self {
        ReOptConfig {
            max_rounds: 32,
            time_budget: None,
            validation: ValidationOpts::default(),
            mid_query: false,
            replan_discrepancy: Some(2.0),
        }
    }
}

/// The result of [`ReoptEngine::execute`](crate::ReoptEngine::execute):
/// the sampling loop's trace plus the (possibly mid-query re-optimized)
/// execution.
#[derive(Debug, Clone)]
pub struct ExecutedReopt {
    /// Algorithm 1's round-by-round report; `report.final_plan` is the
    /// plan execution *started* with.
    pub report: ReoptReport,
    /// The execution: rows, aggregates, metrics, and — when mid-query
    /// re-optimization ran — its suspension/replan trace.
    pub run: crate::midquery::MidQueryRun,
}

/// Algorithm 1 proper: run the loop on `query`, pooling sample dry-run
/// work through `sample_cache` and emitting `reopt.loop` → `reopt.round`
/// → (`optimizer.dp`, `sampling.dry_run`) spans under `tracer`. Returns
/// the report and the loop's DP memo, which
/// [`ReoptEngine::execute`](crate::ReoptEngine::execute) hands on to the
/// mid-query loop.
///
/// Subtrees this run validates become visible to every other holder of
/// the cache (and vice versa). The final plan and Γ depend on neither
/// `sample_cache` nor `tracer`: the cache is exact, whoever filled it, and
/// recording never feeds back into planning.
pub(crate) fn run(
    optimizer: &Optimizer<'_>,
    samples: &SampleStore,
    config: &ReOptConfig,
    query: &Query,
    sample_cache: &SharedSampleRunCache,
    tracer: &Tracer,
) -> Result<(ReoptReport, PlanMemo)> {
    let t_start = Stopwatch::start();
    let mut loop_span = tracer.span(names::REOPT_LOOP);
    let loop_tracer = tracer.under(&loop_span);
    // The DP memo lives for this call, on one immutable snapshot; the
    // sample cache keys itself by the samples it dry-runs over (see
    // `validate_plan_cached`).
    let mut memo = PlanMemo::new();
    let mut sample_cache = sample_cache.clone();
    let mut gamma = CardOverrides::new();
    let mut rounds: Vec<RoundReport> = Vec::new();
    let mut prev_plan: Option<PhysicalPlan> = None;
    let mut prev_trees: Vec<JoinTree> = Vec::new();
    let mut converged = false;

    loop {
        // A blown budget must not buy a whole extra round: check *before*
        // starting the next optimize+validate cycle, not only after
        // finishing one. Round 1 always runs — the caller needs at least
        // one plan.
        if !rounds.is_empty() {
            if let Some(budget) = config.time_budget {
                if t_start.elapsed() > budget {
                    break;
                }
            }
        }

        let round = rounds.len() + 1;
        let mut round_span = loop_tracer.span(names::REOPT_ROUND);
        round_span.attr_u64("round", round as u64);
        let round_tracer = loop_tracer.under(&round_span);
        let t0 = Stopwatch::start();
        let planned = {
            let mut dp_span = round_tracer.span(names::OPTIMIZER_DP);
            let planned = optimizer.optimize_incremental(query, &gamma, &mut memo)?;
            if dp_span.is_recording() {
                dp_span.attr_u64("subsets_reused", planned.search.subsets_reused as u64);
                dp_span.attr_u64("subsets_replanned", planned.search.subsets_replanned as u64);
                dp_span.attr_f64("est_cost", planned.plan.est_cost());
            }
            planned
        };
        let optimize_time = t0.elapsed();
        let tree = planned.plan.logical_tree();
        let transform = prev_plan
            .as_ref()
            .map(|p| classify_transformation(&p.logical_tree(), &tree));
        let covered = {
            let refs: Vec<&JoinTree> = prev_trees.iter().collect();
            is_covered_by(&tree, &refs)
        };
        let same = prev_plan
            .as_ref()
            .is_some_and(|p| p.same_structure(&planned.plan));

        if same {
            // Terminal round: Pᵢ = Pᵢ₋₁, no validation needed.
            let (_, vcost) = optimizer.cost_plan(query, &planned.plan, &gamma)?;
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
            round_span.attr_bool("terminal", true);
            converged = true;
            break;
        }

        // The dry run's spans nest under this round.
        let v = validate_plan_cached(
            query,
            &planned.plan,
            samples,
            &config.validation,
            &mut sample_cache,
            &round_tracer,
        )?;
        // Evict the DP entries Δ can affect — the cost of a set depends
        // only on cardinalities of its subsets, so only supersets of
        // changed sets are stale. Δ re-lists sets Γ already holds
        // (validation is deterministic, so with the same value); those
        // change nothing and must not evict anything.
        let changed: Vec<RelSet> = v
            .delta
            .iter()
            .filter(|&(s, rows)| gamma.get(s) != Some(rows))
            .map(|(s, _)| s)
            .collect();
        memo.invalidate_supersets(&changed);
        let fresh = gamma.merge(&v.delta);
        let (_, vcost) = optimizer.cost_plan(query, &planned.plan, &gamma)?;
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
        if round_span.is_recording() {
            round_span.attr_u64("gamma_new", fresh as u64);
            round_span.attr_f64("validated_cost", vcost);
        }
        prev_trees.push(tree);
        prev_plan = Some(planned.plan);

        if rounds.len() >= config.max_rounds {
            break;
        }
    }

    // Final plan selection. Every round records its plan's cost under the
    // then-current Γ; a converged loop's terminal round is already the
    // final plan under the final Γ (no Δ was merged after it). A loop
    // stopped early (cap or budget) returns §5.4's best plan so far: under
    // the final Γ, the cheapest of the generated plans. Round 1 always
    // runs, so `rounds` is non-empty; surface a corrupted state as an
    // error rather than a panic.
    let best = if converged {
        rounds.last().map(|r| (r.validated_cost, &r.plan))
    } else {
        let mut best: Option<(f64, &PhysicalPlan)> = None;
        for r in &rounds {
            let (_, cost) = optimizer.cost_plan(query, &r.plan, &gamma)?;
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, &r.plan));
            }
        }
        best
    };
    let (final_validated_cost, final_plan) = best
        .map(|(cost, plan)| (cost, plan.clone()))
        .ok_or_else(|| Error::internal("re-optimization loop produced zero rounds"))?;

    if loop_span.is_recording() {
        loop_span.attr_u64("rounds", rounds.len() as u64);
        loop_span.attr_bool("converged", converged);
        loop_span.attr_u64("gamma_len", gamma.len() as u64);
    }
    let report = ReoptReport {
        rounds,
        final_plan,
        final_validated_cost,
        converged,
        reopt_time: t_start.elapsed(),
        gamma,
    };
    Ok((report, memo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ott_engine, ott_query};
    use crate::ReoptEngine;
    use reopt_sampling::SampleConfig;

    /// A `k`-chain engine with default samples and loop configuration.
    fn engine(k: usize, vals: i64, per: usize) -> ReoptEngine {
        ott_engine(
            k,
            vals,
            per,
            SampleConfig::default(),
            ReOptConfig::default(),
        )
    }

    #[test]
    fn trivial_queries_converge_in_two_rounds() {
        // A 2-relation non-empty query: sampling confirms the estimates
        // roughly, the plan should stabilize quickly (≤ 3 rounds).
        let re = engine(2, 100, 20);
        let q = ott_query(2, &[0, 0]);
        let report = re.reoptimize(&q).unwrap();
        assert!(report.converged);
        assert!(report.num_rounds() <= 3, "rounds: {}", report.num_rounds());
        // Final round is Identical to its predecessor.
        assert!(report.rounds.last().unwrap().transform.is_some());
    }

    #[test]
    fn ott_empty_join_first_after_reoptimization() {
        // 4-relation OTT chain with constants (0,0,0,1): the r2 ⋈ r3 edge
        // is empty. Re-optimization must discover a near-zero join and the
        // final plan must be dramatically cheaper under Γ.
        let re = engine(4, 50, 20);
        let q = ott_query(4, &[0, 0, 0, 1]);
        let report = re.reoptimize(&q).unwrap();
        assert!(report.converged, "did not converge");
        // Γ must contain at least one near-empty validated join.
        let has_empty = report
            .gamma
            .iter()
            .any(|(s, rows)| s.len() >= 2 && rows <= 1.5);
        assert!(has_empty, "no empty join discovered in Γ");
        // Theorem 5: final plan no worse than any generated plan under Γ.
        let (final_cost, costs) = report.verify_final_optimality(&re.optimizer(), &q).unwrap();
        for (i, c) in costs.iter().enumerate() {
            assert!(
                final_cost <= c * (1.0 + 1e-9),
                "round {} plan is cheaper ({c}) than final ({final_cost})",
                i + 1
            );
        }
    }

    #[test]
    fn theorem2_transformation_chain_holds() {
        let re = engine(5, 50, 20);
        for consts in [[0, 0, 0, 0, 1], [0, 0, 0, 1, 1], [0, 1, 0, 1, 0]] {
            let q = ott_query(5, &consts);
            let report = re.reoptimize(&q).unwrap();
            report
                .verify_theorem2()
                .unwrap_or_else(|e| panic!("theorem 2 violated for {consts:?}: {e}"));
        }
    }

    #[test]
    fn max_rounds_cap_stops_loop() {
        let config = ReOptConfig {
            max_rounds: 1,
            ..Default::default()
        };
        let re = ott_engine(4, 50, 20, SampleConfig::default(), config);
        let q = ott_query(4, &[0, 0, 0, 1]);
        let report = re.reoptimize(&q).unwrap();
        assert_eq!(report.num_rounds(), 1);
        // With one round the loop cannot have converged...
        assert!(!report.converged);
        // ...and the best plan so far is the only plan generated.
        assert!(report.final_plan.same_structure(&report.rounds[0].plan));
    }

    #[test]
    fn reoptimization_is_deterministic() {
        let re = engine(4, 50, 20);
        let q = ott_query(4, &[0, 0, 1, 0]);
        let r1 = re.reoptimize(&q).unwrap();
        let r2 = re.reoptimize(&q).unwrap();
        assert_eq!(r1.num_rounds(), r2.num_rounds());
        assert!(r1.final_plan.same_structure(&r2.final_plan));
    }

    /// Samples dense enough (ratio 0.5) that validation repairs an OTT
    /// chain's plan over several rounds.
    fn dense_samples() -> SampleConfig {
        SampleConfig {
            ratio: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn capped_loop_returns_the_cheapest_plan_under_the_final_gamma() {
        // The 4-chain below needs > 2 rounds to converge (see
        // incremental_reuses_dp_and_sample_work), so a 2-round cap stops it
        // early with two distinct candidate plans.
        let config = ReOptConfig {
            max_rounds: 2,
            ..Default::default()
        };
        let re = ott_engine(4, 50, 20, dense_samples(), config);
        let q = ott_query(4, &[0, 0, 0, 1]);
        let report = re.reoptimize(&q).unwrap();
        assert_eq!(report.num_rounds(), 2);
        assert!(!report.converged);
        assert!(
            report
                .rounds
                .iter()
                .any(|r| r.plan.same_structure(&report.final_plan)),
            "final plan is none of the round plans"
        );
        let (final_cost, costs) = report.verify_final_optimality(&re.optimizer(), &q).unwrap();
        assert_eq!(final_cost, report.final_validated_cost);
        for (i, c) in costs.iter().enumerate() {
            assert!(
                final_cost <= *c,
                "round {} plan is cheaper ({c}) than final ({final_cost})",
                i + 1
            );
        }
    }

    #[test]
    fn incremental_reuses_dp_and_sample_work() {
        // OTT chains with an empty edge, sampled densely enough
        // (ratio 0.5) that validation repairs the plan over several
        // global transformations — rounds ≥ 2 must then demonstrably
        // reuse round-1 work. The 4-relation case is the acceptance
        // fixture; 5 relations exercises a longer trajectory.
        for (k, consts) in [(4usize, vec![0i64, 0, 0, 1]), (5, vec![0, 0, 0, 0, 1])] {
            let re = ott_engine(k, 50, 20, dense_samples(), ReOptConfig::default());
            let q = ott_query(k, &consts);
            let report = re.reoptimize(&q).unwrap();
            assert!(report.converged);
            assert!(report.plan_changed(), "k={k}: fixture must repair the plan");
            assert!(report.num_rounds() > 2, "k={k}: need >2 rounds");

            // A changed plan in round 2 shares at least its leaf scans
            // with round 1's validated plan: the dry-run must replay them.
            assert!(
                report.rounds[1].sample_cache_hits >= 1,
                "k={k}: round 2 validation hit nothing"
            );

            let r1 = &report.rounds[0];
            // Round 1 starts cold: everything planned, nothing reused.
            assert_eq!(r1.dp_subsets_reused, 0);
            assert!(r1.dp_subsets_replanned > 0);
            assert_eq!(r1.sample_cache_hits, 0);
            for r in &report.rounds[1..] {
                // Every later round re-plans strictly fewer DP subsets...
                assert!(
                    r.dp_subsets_replanned < r1.dp_subsets_replanned,
                    "k={k}: round {} re-planned {} ≥ round 1's {}",
                    r.round,
                    r.dp_subsets_replanned,
                    r1.dp_subsets_replanned
                );
                assert!(
                    r.dp_subsets_reused > 0,
                    "k={k}: round {} reused nothing",
                    r.round
                );
            }
            // ...and the dry-runs of rounds 2.. hit the sample cache at
            // least once (shared leaf scans at minimum).
            assert!(
                report.total_sample_cache_hits() >= 1,
                "k={k}: no sample-cache hit recorded"
            );
        }
    }

    #[test]
    fn shared_sample_cache_pools_work_across_queries() {
        // Two *different* queries over one database: a 5-chain and a
        // 4-chain whose shared prefix has identical predicates. Running
        // both through one SharedSampleRunCache must (a) change nothing
        // about the results and (b) let the second query replay subtrees
        // the first one executed.
        let re = ott_engine(5, 50, 20, dense_samples(), ReOptConfig::default());
        let qa = ott_query(5, &[0, 0, 0, 0, 1]);
        let qb = ott_query(4, &[0, 0, 0, 0]);

        // Equivalence: the shared-cache run ends where the private run does.
        let shared = SharedSampleRunCache::new();
        let ra = re
            .reoptimize_with(&qa, &shared, &Tracer::disabled())
            .unwrap();
        let base_a = re.reoptimize(&qa).unwrap();
        assert_eq!(ra.num_rounds(), base_a.num_rounds());
        assert!(ra.final_plan.same_structure(&base_a.final_plan));
        assert_eq!(ra.gamma.len(), base_a.gamma.len());
        for (set, rows) in ra.gamma.iter() {
            assert_eq!(base_a.gamma.get(set), Some(rows), "Γ({set})");
        }

        // Cross-query pooling: qb alone (fresh cache) vs qb after qa.
        let fresh = SharedSampleRunCache::new();
        let rb_alone = re
            .reoptimize_with(&qb, &fresh, &Tracer::disabled())
            .unwrap();
        let rb = re
            .reoptimize_with(&qb, &shared, &Tracer::disabled())
            .unwrap();
        assert!(rb.final_plan.same_structure(&rb_alone.final_plan));
        assert!(
            rb.total_sample_cache_hits() > rb_alone.total_sample_cache_hits(),
            "sharing must add cross-query hits: {} vs {} alone",
            rb.total_sample_cache_hits(),
            rb_alone.total_sample_cache_hits()
        );
        assert!(
            rb.total_sample_subtrees_executed() < rb_alone.total_sample_subtrees_executed(),
            "sharing must execute fewer subtrees: {} vs {} alone",
            rb.total_sample_subtrees_executed(),
            rb_alone.total_sample_subtrees_executed()
        );
    }

    #[test]
    fn blown_budget_cannot_buy_an_extra_round() {
        // A zero budget is exceeded the moment round 1 finishes: the loop
        // must stop before doing any round-2 optimize/validate work.
        let config = ReOptConfig {
            time_budget: Some(Duration::ZERO),
            ..Default::default()
        };
        let re = ott_engine(4, 50, 20, SampleConfig::default(), config);
        let q = ott_query(4, &[0, 0, 0, 1]);
        let report = re.reoptimize(&q).unwrap();
        assert_eq!(report.num_rounds(), 1, "budget bought an extra round");
        assert!(!report.converged);
    }

    #[test]
    fn gamma_growth_is_monotone_and_bounded() {
        let re = engine(4, 50, 20);
        let q = ott_query(4, &[0, 0, 0, 1]);
        let report = re.reoptimize(&q).unwrap();
        // Theorem 1: if a round adds nothing new to Γ (its plan was
        // covered by earlier plans), the *next* round must terminate the
        // loop with an identical plan.
        for (i, r) in report.rounds.iter().enumerate() {
            if i + 1 < report.rounds.len() && r.gamma_new_entries == 0 {
                let next = &report.rounds[i + 1];
                assert_eq!(
                    next.transform,
                    Some(reopt_plan::transform::TransformKind::Identical),
                    "round {} added nothing but round {} did not terminate",
                    r.round,
                    next.round
                );
            }
        }
        // And the loop did make progress: Γ is non-trivial at the end.
        assert!(
            report.gamma.len() >= 2,
            "Γ has {} entries",
            report.gamma.len()
        );
    }
}
