//! Round-by-round instrumentation of the re-optimization loop.
//!
//! The paper's evaluation reads several metrics off this trace: the number
//! of plans generated during re-optimization (Figures 5, 8, 16, 20), the
//! time spent re-optimizing versus executing (Figures 6, 9, 17, 18), the
//! per-round plans whose true runtimes Figures 14–15 chart, and the
//! transformation-chain structure that Theorem 2 predicts. The report also
//! machine-checks Theorems 2, 5 and 6 on the run it records.

use std::time::Duration;

use serde::Serialize;

use reopt_common::FxHashSet;
use reopt_optimizer::{CardOverrides, Optimizer};
use reopt_plan::transform::TransformKind;
use reopt_plan::{PhysicalPlan, Query};

/// One round of Algorithm 1.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// 1-based round number.
    pub round: usize,
    /// The plan the optimizer returned this round.
    pub plan: PhysicalPlan,
    /// The optimizer's estimated output rows for the plan.
    pub est_rows: f64,
    /// The optimizer's estimated cost for the plan.
    pub est_cost: f64,
    /// Relationship to the previous round's plan (None in round 1).
    pub transform: Option<TransformKind>,
    /// Definition 2: was this plan's join set already covered by the
    /// earlier plans? (Theorem 1 predicts the *next* round terminates.)
    pub covered_by_previous: bool,
    /// Entries Δ added to Γ that were not present before.
    pub gamma_new_entries: usize,
    /// cost_s(P_i): this plan's cost under Γ *after* merging its own Δ —
    /// the paper's sampling-validated cost. Corollary 3 predicts this is
    /// non-increasing across rounds when all errors are overestimates.
    pub validated_cost: f64,
    /// Time spent inside the optimizer.
    pub optimize_time: Duration,
    /// Time spent validating over the samples (zero in the terminal
    /// round).
    pub validation_time: Duration,
    /// DP subsets reused from the cross-round memo (0 in round 1 and when
    /// the GEQO fallback planned the round).
    pub dp_subsets_reused: usize,
    /// DP subsets (re-)planned this round.
    pub dp_subsets_replanned: usize,
    /// Sample dry-run subtrees replayed from the cross-round cache (0 in
    /// the terminal round, which skips validation).
    pub sample_cache_hits: usize,
    /// Sample dry-run subtrees actually executed this round.
    pub sample_subtrees_executed: usize,
}

/// The complete trace of one re-optimization run.
#[derive(Debug, Clone)]
pub struct ReoptReport {
    /// All rounds, in order. The last round repeats the previous plan when
    /// `converged` is true.
    pub rounds: Vec<RoundReport>,
    /// The plan Algorithm 1 returned.
    pub final_plan: PhysicalPlan,
    /// `final_plan`'s cost under the final Γ — the reference value the
    /// serving layer's cached-plan re-validation compares against.
    pub final_validated_cost: f64,
    /// Whether the loop terminated by plan repetition (vs round/time cap).
    pub converged: bool,
    /// Total wall time of the loop (optimize + validate, all rounds).
    pub reopt_time: Duration,
    /// Final Γ.
    pub gamma: CardOverrides,
}

impl ReoptReport {
    /// Number of optimizer invocations.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Number of *distinct* plans generated — the paper's "number of plans
    /// generated during re-optimization" (1 means the original plan was
    /// never changed).
    pub fn num_distinct_plans(&self) -> usize {
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        for r in &self.rounds {
            seen.insert(r.plan.fingerprint());
        }
        seen.len()
    }

    /// The distinct plans in first-appearance order.
    pub fn distinct_plans(&self) -> Vec<&PhysicalPlan> {
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        let mut out = Vec::new();
        for r in &self.rounds {
            if seen.insert(r.plan.fingerprint()) {
                out.push(&r.plan);
            }
        }
        out
    }

    /// Whether re-optimization changed the original plan at all.
    pub fn plan_changed(&self) -> bool {
        !self.final_plan.same_structure(&self.rounds[0].plan)
    }

    /// Total time spent running plans over samples.
    pub fn total_validation_time(&self) -> Duration {
        self.rounds.iter().map(|r| r.validation_time).sum()
    }

    /// Total time spent in the optimizer.
    pub fn total_optimize_time(&self) -> Duration {
        self.rounds.iter().map(|r| r.optimize_time).sum()
    }

    /// Total DP subsets reused from the cross-round memo.
    pub fn total_dp_subsets_reused(&self) -> usize {
        self.rounds.iter().map(|r| r.dp_subsets_reused).sum()
    }

    /// Total DP subsets (re-)planned across all rounds.
    pub fn total_dp_subsets_replanned(&self) -> usize {
        self.rounds.iter().map(|r| r.dp_subsets_replanned).sum()
    }

    /// Total sample dry-run subtrees replayed from the cross-round cache.
    pub fn total_sample_cache_hits(&self) -> usize {
        self.rounds.iter().map(|r| r.sample_cache_hits).sum()
    }

    /// Total sample dry-run subtrees executed across all rounds.
    pub fn total_sample_subtrees_executed(&self) -> usize {
        self.rounds.iter().map(|r| r.sample_subtrees_executed).sum()
    }

    /// Theorem 2: the chain P₁ → … → Pₙ of *distinct* plans consists of
    /// global transformations, with at most one local transformation which,
    /// if present, must be the last step. (The terminal repeat — an
    /// `Identical` transition — is excluded.)
    pub fn verify_theorem2(&self) -> Result<(), String> {
        let transitions: Vec<TransformKind> = self
            .rounds
            .iter()
            .filter_map(|r| r.transform)
            .filter(|t| *t != TransformKind::Identical)
            .collect();
        // `Identical` was filtered out above, so only Global/Local remain;
        // Global steps are always legal, leaving one check per step.
        for (i, t) in transitions.iter().enumerate() {
            if *t == TransformKind::Local && i + 1 != transitions.len() {
                return Err(format!(
                    "local transformation at step {} of {} — only the last step may be local",
                    i + 1,
                    transitions.len()
                ));
            }
        }
        Ok(())
    }

    /// Theorem 5 check: under the final Γ (which prices every plan the
    /// loop generated), the final plan's estimated cost must not exceed
    /// any earlier plan's. Returns the (final_cost, costs-per-round) pair
    /// for reporting. `optimizer` must be the one the loop planned with.
    pub fn verify_final_optimality(
        &self,
        optimizer: &Optimizer<'_>,
        query: &Query,
    ) -> reopt_common::Result<(f64, Vec<f64>)> {
        let mut costs = Vec::with_capacity(self.rounds.len());
        for r in &self.rounds {
            let (_, c) = optimizer.cost_plan(query, &r.plan, &self.gamma)?;
            costs.push(c);
        }
        let (_, final_cost) = optimizer.cost_plan(query, &self.final_plan, &self.gamma)?;
        Ok((final_cost, costs))
    }

    /// Theorem 6 check: the final plan costs no more (under the final Γ)
    /// than any of its local transformations — operand swaps and
    /// single-node operator substitutions. Returns the number of
    /// alternatives examined.
    pub fn verify_theorem6(
        &self,
        optimizer: &Optimizer<'_>,
        query: &Query,
    ) -> reopt_common::Result<usize> {
        let (_, final_cost) = optimizer.cost_plan(query, &self.final_plan, &self.gamma)?;
        let alternatives = reopt_plan::local_transformations(&self.final_plan);
        let examined = alternatives.len();
        for alt in alternatives {
            let (_, alt_cost) = optimizer.cost_plan(query, &alt, &self.gamma)?;
            if final_cost > alt_cost * (1.0 + 1e-9) {
                return Err(reopt_common::Error::internal(format!(
                    "Theorem 6 violated: local transformation costs {alt_cost}, final costs {final_cost}\n{}",
                    alt.explain()
                )));
            }
        }
        Ok(examined)
    }

    /// Serializable summary for experiment logs.
    pub fn summary(&self) -> ReoptSummary {
        ReoptSummary {
            rounds: self.num_rounds(),
            distinct_plans: self.num_distinct_plans(),
            converged: self.converged,
            plan_changed: self.plan_changed(),
            reopt_time_us: self.reopt_time.as_micros() as u64,
            validation_time_us: self.total_validation_time().as_micros() as u64,
            optimize_time_us: self.total_optimize_time().as_micros() as u64,
            gamma_entries: self.gamma.len(),
            dp_subsets_reused: self.total_dp_subsets_reused(),
            dp_subsets_replanned: self.total_dp_subsets_replanned(),
            sample_cache_hits: self.total_sample_cache_hits(),
            sample_subtrees_executed: self.total_sample_subtrees_executed(),
            final_plan: self.final_plan.explain(),
            transforms: self
                .rounds
                .iter()
                .filter_map(|r| r.transform)
                .map(|t| format!("{t:?}"))
                .collect(),
        }
    }
}

/// JSON-friendly digest of a [`ReoptReport`].
#[derive(Debug, Clone, Serialize)]
pub struct ReoptSummary {
    /// Optimizer invocations.
    pub rounds: usize,
    /// Distinct plans generated.
    pub distinct_plans: usize,
    /// Terminated by convergence (vs cap).
    pub converged: bool,
    /// Final plan differs from the original.
    pub plan_changed: bool,
    /// Total loop time in microseconds.
    pub reopt_time_us: u64,
    /// Sampling time in microseconds.
    pub validation_time_us: u64,
    /// Optimizer time in microseconds.
    pub optimize_time_us: u64,
    /// Size of the final Γ.
    pub gamma_entries: usize,
    /// DP subsets reused from the cross-round memo.
    pub dp_subsets_reused: usize,
    /// DP subsets (re-)planned across all rounds.
    pub dp_subsets_replanned: usize,
    /// Sample dry-run subtrees replayed from the cross-round cache.
    pub sample_cache_hits: usize,
    /// Sample dry-run subtrees executed across all rounds.
    pub sample_subtrees_executed: usize,
    /// EXPLAIN rendering of the final plan.
    pub final_plan: String,
    /// Transformation kinds along the chain.
    pub transforms: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_common::{ColId, RelId, TableId};
    use reopt_plan::physical::PlanNodeInfo;
    use reopt_plan::query::ColRef;
    use reopt_plan::{AccessPath, JoinAlgo};

    fn scan(rel: u32) -> PhysicalPlan {
        PhysicalPlan::Scan {
            rel: RelId::new(rel),
            table: TableId::new(rel),
            access: AccessPath::SeqScan,
            info: PlanNodeInfo::default(),
        }
    }

    fn join(l: PhysicalPlan, r: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::Join {
            algo: JoinAlgo::Hash,
            left: Box::new(l),
            right: Box::new(r),
            keys: vec![(
                ColRef::new(RelId::new(0), ColId::new(0)),
                ColRef::new(RelId::new(1), ColId::new(0)),
            )],
            info: PlanNodeInfo::default(),
        }
    }

    fn round(n: usize, plan: PhysicalPlan, t: Option<TransformKind>) -> RoundReport {
        RoundReport {
            round: n,
            plan,
            est_rows: 1.0,
            est_cost: 1.0,
            transform: t,
            covered_by_previous: false,
            gamma_new_entries: 1,
            validated_cost: 1.0,
            optimize_time: Duration::from_micros(10),
            validation_time: Duration::from_micros(20),
            dp_subsets_reused: 0,
            dp_subsets_replanned: 3,
            sample_cache_hits: 0,
            sample_subtrees_executed: 3,
        }
    }

    fn report(rounds: Vec<RoundReport>) -> ReoptReport {
        let last = rounds.last().unwrap();
        let (final_plan, final_validated_cost) = (last.plan.clone(), last.validated_cost);
        ReoptReport {
            rounds,
            final_plan,
            final_validated_cost,
            converged: true,
            reopt_time: Duration::from_micros(100),
            gamma: CardOverrides::new(),
        }
    }

    #[test]
    fn distinct_plan_counting() {
        let p1 = join(scan(0), scan(1));
        let p2 = join(scan(1), scan(0));
        let r = report(vec![
            round(1, p1.clone(), None),
            round(2, p2.clone(), Some(TransformKind::Local)),
            round(3, p2.clone(), Some(TransformKind::Identical)),
        ]);
        assert_eq!(r.num_rounds(), 3);
        assert_eq!(r.num_distinct_plans(), 2);
        assert_eq!(r.distinct_plans().len(), 2);
        assert!(r.plan_changed());
    }

    #[test]
    fn unchanged_plan_is_one_distinct() {
        let p1 = join(scan(0), scan(1));
        let r = report(vec![
            round(1, p1.clone(), None),
            round(2, p1.clone(), Some(TransformKind::Identical)),
        ]);
        assert_eq!(r.num_distinct_plans(), 1);
        assert!(!r.plan_changed());
    }

    #[test]
    fn theorem2_accepts_valid_chains() {
        let p1 = join(scan(0), scan(1));
        let p2 = join(join(scan(0), scan(1)), scan(2));
        let p3 = join(join(scan(1), scan(0)), scan(2));
        // Global then Local then Identical: valid (case 3).
        let r = report(vec![
            round(1, p1, None),
            round(2, p2, Some(TransformKind::Global)),
            round(3, p3.clone(), Some(TransformKind::Local)),
            round(4, p3, Some(TransformKind::Identical)),
        ]);
        assert!(r.verify_theorem2().is_ok());
    }

    #[test]
    fn theorem2_rejects_local_before_global() {
        let p = join(scan(0), scan(1));
        let r = report(vec![
            round(1, p.clone(), None),
            round(2, p.clone(), Some(TransformKind::Local)),
            round(3, p.clone(), Some(TransformKind::Global)),
        ]);
        assert!(r.verify_theorem2().is_err());
    }

    #[test]
    fn timing_accumulators() {
        let p = join(scan(0), scan(1));
        let r = report(vec![
            round(1, p.clone(), None),
            round(2, p, Some(TransformKind::Identical)),
        ]);
        assert_eq!(r.total_optimize_time(), Duration::from_micros(20));
        assert_eq!(r.total_validation_time(), Duration::from_micros(40));
    }

    #[test]
    fn summary_serializes() {
        let p = join(scan(0), scan(1));
        let r = report(vec![round(1, p, None)]);
        let s = r.summary();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"rounds\":1"));
        assert!(json.contains("distinct_plans"));
    }
}
