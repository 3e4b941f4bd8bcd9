//! Mid-query re-optimization: suspend → refine → replan → resume.
//!
//! The sampling loop (Algorithm 1) re-optimizes *between* plan choices
//! using sampled estimates; this module closes the remaining gap by
//! re-optimizing *during* execution using the exact cardinalities the
//! executor observes for free (the direction of Perron et al., "On
//! Cardinality Estimation and Query Re-optimization", composed with the
//! incremental replanning of Liu, Ives & Loo):
//!
//! 1. **Suspend** — [`Executor::run_step`] runs the current plan up to its
//!    next materialization point (the first unfinished non-root join — a
//!    hash-join build or, at the top, the aggregate's input), checkpoints
//!    the materialized [`RowSet`] keyed by [`RelSet`], and hands back the
//!    exact observed cardinality of every completed node.
//! 2. **Refine** — the observed counts are folded into Γ as **exact**
//!    entries ([`CardOverrides::insert_exact`]): scale 1.0, overriding any
//!    sampled estimate for the same set, immune to later sampled merges.
//! 3. **Replan** — the optimizer re-plans the remaining join set with the
//!    completed subtrees pinned as zero-cost leaves
//!    ([`Optimizer::optimize_with_pinned`]), reusing the cross-round
//!    [`PlanMemo`] so only supersets of refined sets are re-costed.
//! 4. **Resume** — the next `run_step` call executes the (possibly new)
//!    plan, splicing every checkpointed subtree back in via the
//!    [`SubtreeCache`](reopt_executor::SubtreeCache) hook. Completed work
//!    is never re-executed; a remainder that replans to the same plan
//!    resumes with zero extra executor work.
//!
//! The mechanism only changes *which* plan finishes the query, never the
//! result: each checkpoint is the plan-shape-independent materialization
//! of its relation set (see [`reopt_executor::checkpoint`]), so the final
//! output is the same tuple set whatever trajectory the loop takes —
//! proven across workloads by `tests/midquery_equivalence.rs`. Row *order*
//! may differ between trajectories; consumers that need a canonical order
//! sort, exactly as they would across plan shapes.

use crate::ReOptConfig;
use reopt_common::{Error, RelSet, Result, Stopwatch};
use reopt_executor::{
    AggOutput, CheckpointStore, ExecMetrics, ExecOpts, ExecStep, Executor, QueryOutput, RowSet,
    TracedRun,
};
use reopt_optimizer::{CardOverrides, Optimizer, PinnedLeaf, PlanMemo};
use reopt_plan::{PhysicalPlan, Query};
use reopt_storage::Database;
use reopt_telemetry::names;
use serde::Serialize;

/// Small, copyable counters of one mid-query execution — what a serving
/// layer reports per query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct MidQueryStats {
    /// Times execution suspended at a materialization point.
    pub suspensions: usize,
    /// Replans run while suspended. At most `suspensions`; smaller
    /// whenever the discrepancy gate found every new observation in
    /// agreement with current beliefs (the common case under the default
    /// `replan_discrepancy: Some(2.0)`).
    pub replans: usize,
    /// Replans that changed the remainder's plan structure.
    pub plan_switches: usize,
    /// Node results checkpointed across all segments.
    pub checkpoints: usize,
    /// Nodes answered by splicing a checkpoint instead of executing.
    pub splices: usize,
    /// Exact observed cardinalities folded into Γ.
    pub exact_gamma_entries: usize,
}

/// Full trace of one mid-query execution.
#[derive(Debug, Clone)]
pub struct MidQueryReport {
    /// Counters.
    pub stats: MidQueryStats,
    /// The plan in force at each segment, starting with the initial plan;
    /// `plans.last()` finished the query.
    pub plans: Vec<PhysicalPlan>,
    /// Γ after the run: the caller's entries plus one exact entry per
    /// observed node.
    pub gamma: CardOverrides,
}

impl MidQueryReport {
    /// The plan that finished the query.
    pub fn final_plan(&self) -> &PhysicalPlan {
        // lint: panic-ok(constructor invariant: every MidQueryReport is built with the initial plan as plans[0] and plans only grows)
        self.plans.last().expect("at least the initial plan")
    }
}

/// The result of executing one query with mid-query re-optimization.
#[derive(Debug, Clone)]
pub struct MidQueryRun {
    /// Final join result.
    pub rows: RowSet,
    /// Aggregate output, when the query has an aggregate stage.
    pub agg: Option<AggOutput>,
    /// Executor counters summed over every segment. Splices do no work:
    /// they count only in [`ExecMetrics::cache_hits`] (equal to
    /// [`MidQueryStats::splices`]), so a switch-free run's work counters
    /// equal straight-through execution's exactly.
    pub metrics: ExecMetrics,
    /// Whether mid-query re-optimization was on
    /// ([`ReOptConfig::mid_query`]). A query the DP cannot re-plan runs
    /// straight through either way, with zero counters.
    pub mid_query: bool,
    /// What the loop did.
    pub report: MidQueryReport,
}

impl MidQueryRun {
    /// Cardinality of the join result (before aggregation).
    pub fn join_rows(&self) -> u64 {
        self.rows.len() as u64
    }

    /// The executor's result shape: join cardinality, aggregate, metrics.
    pub fn into_output(self) -> QueryOutput {
        QueryOutput {
            join_rows: self.join_rows(),
            agg: self.agg,
            metrics: self.metrics,
        }
    }
}

/// Inputs of [`execute_mid_query`] beyond the query itself.
#[derive(Debug, Clone)]
pub struct MidQueryOpts {
    /// Seed Γ: the sampling loop's final Γ keeps its validated estimates
    /// for never-observed sets; an empty Γ replans from native statistics
    /// plus exact observations only. Exact observations are folded in
    /// either way.
    pub gamma: CardOverrides,
    /// Seed DP table: the sampling loop's final memo (built under the same
    /// `(query, optimizer, gamma)`) lets each replan re-cost only
    /// supersets of refined sets; an empty memo is always valid, just
    /// colder.
    pub memo: PlanMemo,
    /// Executor options for every segment.
    pub exec: ExecOpts,
    /// Replan gate (see [`ReOptConfig::replan_discrepancy`]): `None`
    /// replans at every suspension; `Some(f)` only when a newly observed
    /// join cardinality disagrees with the current belief by ≥ `f` (or
    /// was never estimated).
    pub replan_discrepancy: Option<f64>,
}

impl Default for MidQueryOpts {
    fn default() -> Self {
        Self::new()
    }
}

impl MidQueryOpts {
    /// The [`ReOptConfig`] defaults: empty seeds, gate 2.0.
    pub fn new() -> Self {
        MidQueryOpts {
            gamma: CardOverrides::new(),
            memo: PlanMemo::new(),
            exec: ExecOpts::default(),
            replan_discrepancy: Some(2.0),
        }
    }
}

/// Run a chosen plan to rows: the one place that decides *how*. With
/// [`ReOptConfig::mid_query`] on and a query the DP can re-plan (at most
/// `geqo_threshold` relations: the genetic search cannot honor pin
/// boundaries), the plan runs under
/// [`execute_mid_query`] seeded with `gamma` and `memo`. Otherwise it runs
/// straight through — one pipeline plus the aggregate, no checkpoint
/// copies — and `gamma` comes back untouched. `metrics.elapsed` is the
/// wall time of the whole execution.
pub(crate) fn execute(
    optimizer: &Optimizer<'_>,
    config: &ReOptConfig,
    query: &Query,
    plan: &PhysicalPlan,
    gamma: CardOverrides,
    memo: PlanMemo,
    exec_opts: ExecOpts,
) -> Result<MidQueryRun> {
    let t0 = Stopwatch::start();
    let db = optimizer.database();
    let mid_query = config.mid_query;
    let mut run = if mid_query && query.num_relations() <= optimizer.config().geqo_threshold {
        let opts = MidQueryOpts {
            gamma,
            memo,
            exec: exec_opts,
            replan_discrepancy: config.replan_discrepancy,
        };
        execute_mid_query(db, optimizer, query, plan, opts)?
    } else {
        let exec = Executor::with_opts(db, exec_opts);
        let TracedRun {
            rows, mut metrics, ..
        } = exec.run_pipeline(query, plan, None)?;
        let agg = exec.aggregate(query, &rows, &mut metrics)?;
        MidQueryRun {
            rows,
            agg,
            metrics,
            mid_query,
            report: MidQueryReport {
                stats: MidQueryStats::default(),
                plans: vec![plan.clone()],
                gamma,
            },
        }
    };
    run.metrics.elapsed = t0.elapsed();
    Ok(run)
}

/// Execute `plan` for `query` against `db` with the suspend → refine →
/// replan → resume loop, unconditionally. Whether a query *should* run
/// this way is decided in one place, behind
/// [`ReoptEngine::execute`](crate::ReoptEngine::execute) and
/// [`ReoptEngine::execute_plan`](crate::ReoptEngine::execute_plan);
/// call this directly only for a query the DP can re-plan (a replan
/// beyond `geqo_threshold` relations fails).
///
/// Each suspension completes a breaker whose children are finished pins or
/// base scans, merging two of the plan's remaining components into one,
/// and the root join never suspends — so a query suspends at most
/// `relations − 2` times, and the loop needs no cap. Exceeding that bound
/// is an internal error.
pub fn execute_mid_query(
    db: &Database,
    optimizer: &Optimizer<'_>,
    query: &Query,
    start_plan: &PhysicalPlan,
    opts: MidQueryOpts,
) -> Result<MidQueryRun> {
    let MidQueryOpts {
        mut gamma,
        mut memo,
        exec: exec_opts,
        replan_discrepancy,
    } = opts;
    // Segments below each construct their own (cheap) executor so
    // operator spans nest under their segment span.
    let tracer = exec_opts.tracer.clone();
    let mut run_span = tracer.span(names::MIDQUERY_RUN);
    let run_tracer = tracer.under(&run_span);
    let mut store = CheckpointStore::new();
    let mut plan = start_plan.clone();
    let mut plans = vec![plan.clone()];
    let mut stats = MidQueryStats::default();
    let mut metrics = ExecMetrics::default();
    let exact_before = gamma.exact_len();

    let run = loop {
        let seg_span = run_tracer.span(names::MIDQUERY_SEGMENT);
        let seg_tracer = run_tracer.under(&seg_span);
        let exec = Executor::with_opts(
            db,
            ExecOpts {
                tracer: seg_tracer.clone(),
                ..exec_opts.clone()
            },
        );
        let step = exec.run_step(query, &plan, &mut store)?;
        if seg_span.is_recording() {
            let spliced = match &step {
                ExecStep::Complete(run) => run.metrics.cache_hits,
                ExecStep::Suspended { metrics, .. } => metrics.cache_hits,
            };
            if spliced > 0 {
                // Zero-duration marker: this segment reused checkpointed
                // work instead of executing it.
                let mut sp = seg_tracer.span(names::MIDQUERY_SPLICE);
                sp.attr_u64("reused", spliced);
            }
        }
        match step {
            ExecStep::Complete(run) => break run,
            ExecStep::Suspended {
                breaker,
                breaker_rows,
                metrics: segment,
            } => {
                drop(seg_span);
                stats.suspensions += 1;
                metrics.merge(&segment);
                if stats.suspensions + 2 > query.num_relations() {
                    return Err(Error::internal(format!(
                        "mid-query execution suspended {} times on {} relations \
                         (at most relations - 2)",
                        stats.suspensions,
                        query.num_relations()
                    )));
                }
                let mut sus_span = run_tracer.span(names::MIDQUERY_SUSPEND);
                if sus_span.is_recording() {
                    sus_span.attr_display("breaker", &breaker);
                    sus_span.attr_u64("breaker_rows", breaker_rows);
                }

                // Refine: every observed count becomes an exact Γ entry.
                // Sets whose believed value actually moved invalidate
                // their memo supersets (the standard Δ rule). The replan
                // gate watches the same sweep: a newly observed *join*
                // whose count disagrees with the current belief — Γ's
                // entry, or the optimizer's native estimate when Γ is
                // silent (the serving path seeds an empty Γ) — by the
                // configured factor makes re-entering the optimizer worth
                // its cost; exact confirmations of what the planner
                // already believed cannot move any plan choice the prior
                // round didn't already make.
                let mut changed: Vec<RelSet> = Vec::new();
                let mut disagree = replan_discrepancy.is_none();
                for (set, rows) in store.observed() {
                    let v = rows as f64;
                    let prior = gamma.get(set);
                    if prior != Some(v) {
                        changed.push(set);
                        if let (Some(factor), true) = (replan_discrepancy, set.len() >= 2) {
                            let believed = match prior {
                                Some(p) => p,
                                None => optimizer.estimate_rows(query, &gamma, set)?,
                            };
                            // Compared on a max(rows, 64) basis: a
                            // disagreement confined below ~64 rows (e.g.
                            // a min_rows-clamped estimate of 1 vs an
                            // observed 5) cannot move any cost by a
                            // material amount, whatever the ratio says.
                            let (a, b) = (believed.max(64.0), v.max(64.0));
                            disagree |= a / b >= factor || b / a >= factor;
                        }
                    }
                    gamma.insert_exact(set, v);
                }
                memo.invalidate_supersets(&changed);
                if sus_span.is_recording() {
                    sus_span.attr_u64("refined", changed.len() as u64);
                    sus_span.attr_bool("replan", disagree);
                }
                if !disagree {
                    continue; // observations confirm the plan: keep going
                }

                // ...and every pin evicts its supersets unconditionally:
                // an entry planned before this subtree completed may
                // decompose across the new boundary even if no cardinality
                // moved.
                let pins: Vec<PinnedLeaf> = store
                    .pins()
                    .into_iter()
                    .map(|(set, plan, rows)| PinnedLeaf {
                        set,
                        plan,
                        rows: rows as f64,
                    })
                    .collect();
                let pin_sets: Vec<RelSet> = pins.iter().map(|p| p.set).collect();
                memo.invalidate_supersets(&pin_sets);

                // Replan the remainder with completed subtrees pinned.
                let mut replan_span = run_tracer.under(&sus_span).span(names::MIDQUERY_REPLAN);
                let planned = optimizer.optimize_with_pinned(query, &gamma, &pins, &mut memo)?;
                stats.replans += 1;
                let switched = !planned.plan.same_structure(&plan);
                if replan_span.is_recording() {
                    replan_span.attr_u64("pins", pins.len() as u64);
                    replan_span.attr_bool("switched", switched);
                }
                if switched {
                    stats.plan_switches += 1;
                    plans.push(planned.plan.clone());
                }
                plan = planned.plan;
            }
        }
    };

    metrics.merge(&run.metrics);
    let finish = Executor::with_opts(
        db,
        ExecOpts {
            tracer: run_tracer.clone(),
            ..exec_opts
        },
    );
    let agg = finish.aggregate(query, &run.rows, &mut metrics)?;
    stats.checkpoints = store.len();
    stats.splices = metrics.cache_hits as usize;
    stats.exact_gamma_entries = gamma.exact_len() - exact_before;
    if run_span.is_recording() {
        run_span.attr_u64("suspensions", stats.suspensions as u64);
        run_span.attr_u64("replans", stats.replans as u64);
        run_span.attr_u64("plan_switches", stats.plan_switches as u64);
        run_span.attr_u64("splices", stats.splices as u64);
    }
    Ok(MidQueryRun {
        rows: run.rows,
        agg,
        metrics,
        mid_query: true,
        report: MidQueryReport {
            stats,
            plans,
            gamma,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ott_db, ott_engine, ott_query};
    use crate::ReoptEngine;
    use reopt_common::RelId;
    use reopt_sampling::SampleConfig;
    use reopt_stats::{analyze_database, AnalyzeOpts};

    /// Canonical tuple-set view of a row set: relations in ascending id
    /// order, tuples sorted — plan-shape-independent result identity.
    fn canonical(rows: &RowSet) -> (Vec<RelId>, Vec<Vec<u32>>) {
        let mut rels: Vec<RelId> = rows.rels().to_vec();
        rels.sort();
        let mut tuples: Vec<Vec<u32>> = (0..rows.len())
            .map(|i| rels.iter().map(|&r| rows.rowids(r).unwrap()[i]).collect())
            .collect();
        tuples.sort_unstable();
        (rels, tuples)
    }

    #[test]
    fn mid_query_is_result_equivalent_to_straight_through() {
        let engine = ott_engine(4, 50, 20, SampleConfig::default(), ReOptConfig::default())
            .with_validation_threads(1);
        let exhaustive = ReoptEngine::with_configs(
            engine.db().clone(),
            engine.stats().clone(),
            engine.samples().clone(),
            engine.optimizer_config().clone(),
            ReOptConfig {
                mid_query: true,
                replan_discrepancy: None, // exhaustive: replan every time
                ..engine.reopt_config().clone()
            },
        );
        let db = engine.db();
        for consts in [vec![0i64, 0, 0, 0], vec![0, 0, 0, 1]] {
            let q = ott_query(4, &consts);
            let straight = engine.execute(&q, ExecOpts::serial()).unwrap();
            let mid = exhaustive.execute(&q, ExecOpts::serial()).unwrap();
            assert_eq!(
                canonical(&straight.run.rows),
                canonical(&mid.run.rows),
                "{consts:?}"
            );
            // 4 relations, 3 joins, 2 non-root: exactly two suspensions.
            assert_eq!(mid.run.report.stats.suspensions, 2, "{consts:?}");
            assert_eq!(mid.run.report.stats.replans, 2, "{consts:?}");
            assert!(mid.run.report.stats.exact_gamma_entries > 0);
            // Every exact Γ entry matches the straight-through observation
            // of the same set wherever that set appears in its trace.
            let exec = Executor::with_opts(db, ExecOpts::serial());
            let trace = exec
                .run_pipeline(&q, mid.run.report.final_plan(), None)
                .unwrap()
                .node_cards;
            for (set, rows) in trace {
                if mid.run.report.gamma.is_exact(set) {
                    assert_eq!(
                        mid.run.report.gamma.get(set),
                        Some(rows as f64),
                        "{consts:?}: Γ({set}) not exact"
                    );
                }
            }
        }
    }

    #[test]
    fn unchanged_remainder_resumes_with_zero_extra_work() {
        // Drive Γ to an *exact fixpoint* first: plan, execute traced, fold
        // every observed cardinality in as exact, re-plan — until the plan
        // stabilizes. Mid-query execution from that plan then observes
        // nothing it didn't already know, every replan returns the same
        // plan, and the summed segment metrics must equal straight-through
        // execution of that plan exactly — resumption costs nothing.
        let db = ott_db(4, 50, 20);
        let stats = analyze_database(&db, &AnalyzeOpts::default()).unwrap();
        let opt = reopt_optimizer::Optimizer::new(&db, &stats);
        let q = ott_query(4, &[0, 0, 0, 0]);
        let exec = Executor::with_opts(&db, ExecOpts::serial());

        let mut gamma = CardOverrides::new();
        let mut plan = opt.optimize_with(&q, &gamma).unwrap().plan;
        for _ in 0..8 {
            let trace = exec.run_pipeline(&q, &plan, None).unwrap().node_cards;
            for (set, rows) in trace {
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
            &db,
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
        assert_eq!(
            mid.report.stats.plan_switches, 0,
            "exact-fixpoint remainder must replan to the same plan"
        );
        assert!(mid.report.stats.suspensions > 0);
        assert!(mid.report.stats.replans > 0);
        assert_eq!(mid.metrics.rows_scanned, base.metrics.rows_scanned);
        assert_eq!(mid.metrics.rows_produced, base.metrics.rows_produced);
        assert_eq!(mid.metrics.index_probes, base.metrics.index_probes);
        assert!(mid.report.stats.splices > 0, "resume must splice");
    }

    #[test]
    fn straight_wrapper_matches_plain_execution() {
        let engine = ott_engine(3, 20, 5, SampleConfig::default(), ReOptConfig::default())
            .with_validation_threads(1);
        let q = ott_query(3, &[0, 0, 0]);
        let executed = engine.execute(&q, ExecOpts::serial()).unwrap();
        assert_eq!(executed.run.report.stats, MidQueryStats::default());
        let exec = Executor::with_opts(engine.db(), ExecOpts::serial());
        let rows = exec
            .run_pipeline(&q, &executed.report.final_plan, None)
            .unwrap()
            .rows;
        assert_eq!(canonical(&rows), canonical(&executed.run.rows));
    }
}
