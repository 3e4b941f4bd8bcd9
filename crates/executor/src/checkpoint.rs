//! Suspendable execution for mid-query re-optimization.
//!
//! The executor materializes every operator output, so each join node is a
//! natural **pipeline breaker**: the hash-join build (and, at the root,
//! the aggregate's input) cannot start until its input subtree has fully
//! materialized. [`Executor::run_step`](crate::Executor::run_step) exploits
//! that: it executes the plan only up to its *next* unfinished breaker (the
//! first non-root join in post-order whose result is not yet checkpointed),
//! parks the materialized [`RowSet`] in a [`CheckpointStore`], and returns
//! [`ExecStep::Suspended`] carrying the exact observed cardinality of every
//! node completed so far. The caller may then re-plan the remainder of the
//! query — feeding the observed counts back into Γ as exact entries — and
//! call `run_step` again with the (possibly different) plan.
//!
//! # Why checkpoints are keyed by `RelSet`
//!
//! Within one query, the logical output of a subtree covering relation set
//! `S` is plan-shape-independent: every local predicate of a relation in
//! `S` is applied at its scan, and every query join edge internal to `S`
//! is applied at exactly the join node where its two sides first meet —
//! whatever the tree shape or operator choice. So the *contents* of the
//! materialized result are a function of `(query, S)` alone, and a
//! checkpoint taken under one plan can stand in for subtree `S` of any
//! replanned successor. (Row *order* may differ between shapes; the
//! conformance suite therefore compares results as canonical tuple sets.)
//! A [`CheckpointStore`] is only meaningful for one `(database, query)`
//! execution — never share one across queries.
//!
//! Resumption reuses the existing [`SubtreeCache`] splice path: the store
//! implements the trait, so a resumed plan replays checkpointed subtrees
//! (no scan, no probe, no output accounting) and executes only the
//! remainder. A remainder that replans to the *same* plan resumes with
//! zero extra executor work.

use crate::exec::{Executor, SubtreeCache, TracedRun};
use crate::metrics::ExecMetrics;
use crate::rowset::RowSet;
use reopt_common::{RelSet, Result};
use reopt_plan::{JoinAlgo, PhysicalPlan, Query};
use std::collections::BTreeMap;

/// Checkpointed subtree results and observed cardinalities of one
/// suspendable execution (one `(database, query)` pair).
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    /// Materialized output of every completed node, keyed by relation set
    /// (see the module docs for why that key is sound within one query).
    /// An ordered map (rule R1): [`CheckpointStore::observed`] walks it
    /// and its order reaches Γ insertion order and the replan loop.
    results: BTreeMap<RelSet, RowSet>,
    /// Suspension history: the breaker subtree executed at each
    /// [`ExecStep::Suspended`], in order. Later breakers may strictly
    /// contain earlier ones (the remainder keeps joining on top).
    breakers: Vec<(RelSet, PhysicalPlan)>,
    /// Sealed: lookups still splice, but fresh results are no longer
    /// checkpointed. Set by the final [`Executor::run_step`] segment —
    /// nothing runs after it, so copying its intermediates (and the final
    /// result) into the store would be pure waste.
    sealed: bool,
}

impl CheckpointStore {
    /// Empty store (nothing executed yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `set`'s result is checkpointed.
    pub fn contains(&self, set: RelSet) -> bool {
        self.results.contains_key(&set)
    }

    /// Exact observed cardinalities of every completed node, in ascending
    /// [`RelSet`] order — deterministic across runs and processes.
    pub fn observed(&self) -> impl Iterator<Item = (RelSet, u64)> + '_ {
        self.results.iter().map(|(&s, rows)| (s, rows.len() as u64))
    }

    /// Number of checkpointed node results.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True when nothing has been checkpointed.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The completed subtrees a replan must treat as atomic, already-paid
    /// leaves: the *maximal* suspended breakers (their exact cardinality
    /// paired with the plan that computed them — the subtree a replanned
    /// successor splices back in). Breakers contained in a later, larger
    /// breaker are subsumed by it.
    pub fn pins(&self) -> Vec<(RelSet, PhysicalPlan, u64)> {
        self.breakers
            .iter()
            .filter(|(set, _)| {
                !self
                    .breakers
                    .iter()
                    .any(|(other, _)| *set != *other && set.is_subset_of(*other))
            })
            .map(|(set, plan)| (*set, plan.clone(), self.results[set].len() as u64))
            .collect()
    }

    fn note_breaker(&mut self, set: RelSet, plan: &PhysicalPlan) {
        if !self.breakers.iter().any(|(s, _)| *s == set) {
            self.breakers.push((set, plan.clone()));
        }
    }
}

impl SubtreeCache for CheckpointStore {
    /// Every node is cacheable; within one query the relation set *is* the
    /// canonical identity (module docs), so the fingerprint is just the
    /// set's mask.
    fn fingerprint(&mut self, _query: &Query, plan: &PhysicalPlan) -> Option<u64> {
        Some(plan.relset().mask())
    }

    fn lookup(&mut self, set: RelSet, _fp: u64) -> Option<RowSet> {
        self.results.get(&set).cloned()
    }

    fn peek_rows(&mut self, set: RelSet, _fp: u64) -> Option<u64> {
        Some(self.results.get(&set)?.len() as u64)
    }

    fn store(&mut self, set: RelSet, _fp: u64, rows: &RowSet) {
        if !self.sealed {
            self.results.insert(set, rows.clone());
        }
    }
}

/// What one [`Executor::run_step`](crate::Executor::run_step) call did.
#[derive(Debug)]
pub enum ExecStep {
    /// The next unfinished pipeline breaker was executed and checkpointed;
    /// the store now holds its materialized rows and the exact observed
    /// cardinality of every node completed so far. The plan's remainder
    /// has not been touched — re-plan it (or not) and call `run_step`
    /// again.
    Suspended {
        /// Relation set of the breaker just completed.
        breaker: RelSet,
        /// Its exact observed output cardinality.
        breaker_rows: u64,
        /// Executor counters for this segment only (checkpoint splices do
        /// no work and count only in [`ExecMetrics::cache_hits`]).
        metrics: ExecMetrics,
    },
    /// No unfinished breaker remained: the plan ran to completion,
    /// splicing every checkpointed subtree in via the store.
    Complete(TracedRun),
}

/// The next unfinished pipeline breaker under `plan`: the first non-root
/// join, in post-order, whose result is not checkpointed. Post-order
/// guarantees the chosen breaker's own join descendants are all
/// checkpointed already, so executing it does exactly one new join's
/// work (plus any fresh leaf scans). Checkpointed subtrees are not
/// descended into — they are done.
fn next_breaker<'p>(
    plan: &'p PhysicalPlan,
    store: &CheckpointStore,
    is_root: bool,
) -> Option<&'p PhysicalPlan> {
    if store.contains(plan.relset()) {
        return None;
    }
    if let PhysicalPlan::Join {
        algo, left, right, ..
    } = plan
    {
        if let Some(b) = next_breaker(left, store, false) {
            return Some(b);
        }
        // The index-nested inner is probed in place, never materialized as
        // a standalone node; it has no breaker to offer.
        if *algo != JoinAlgo::IndexNested {
            if let Some(b) = next_breaker(right, store, false) {
                return Some(b);
            }
        }
        if !is_root {
            return Some(plan);
        }
    }
    None
}

impl Executor<'_> {
    /// Run `plan` up to its next materialization point (see the module
    /// docs): execute the first unfinished non-root join — checkpointing
    /// its result and every node beneath it in `store` — and suspend; or,
    /// when every breaker is already checkpointed, run the remainder to
    /// completion, splicing checkpointed subtrees in.
    ///
    /// Calling this in a loop with one fixed plan performs exactly the
    /// straight-through execution's work, one breaker per call; replacing
    /// the plan between calls (mid-query re-optimization) re-executes
    /// nothing already checkpointed.
    pub fn run_step(
        &self,
        query: &Query,
        plan: &PhysicalPlan,
        store: &mut CheckpointStore,
    ) -> Result<ExecStep> {
        match next_breaker(plan, store, true) {
            Some(breaker) => {
                let breaker_set = breaker.relset();
                let run = self.run_pipeline(query, breaker, Some(store))?;
                store.note_breaker(breaker_set, breaker);
                Ok(ExecStep::Suspended {
                    breaker: breaker_set,
                    breaker_rows: run.rows.len() as u64,
                    metrics: run.metrics,
                })
            }
            None => {
                // Final segment: no replan can follow, so checkpointing
                // the remainder's intermediates (or the final result)
                // would only copy rows nobody will read.
                store.sealed = true;
                let run = self.run_pipeline(query, plan, Some(store))?;
                Ok(ExecStep::Complete(run))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecOpts, Executor};
    use reopt_common::{ColId, RelId, TableId};
    use reopt_plan::physical::PlanNodeInfo;
    use reopt_plan::query::ColRef;
    use reopt_plan::{AccessPath, QueryBuilder};
    use reopt_storage::{Column, ColumnDef, Database, LogicalType, Table, TableSchema};

    /// Three chained tables: t0.b = t1.b, t1.b = t2.b, all with b = a,
    /// `vals` distinct values × `per` rows.
    fn chain_db(vals: i64, per: usize) -> Database {
        let mut db = Database::new();
        for name in ["c0", "c1", "c2"] {
            db.add_table_with(|id| {
                let schema = TableSchema::new(vec![
                    ColumnDef::new("a", LogicalType::Int),
                    ColumnDef::new("b", LogicalType::Int),
                ])?;
                let mut data = Vec::new();
                for v in 0..vals {
                    data.extend(std::iter::repeat_n(v, per));
                }
                Table::new(
                    id,
                    name,
                    schema,
                    vec![
                        Column::from_i64(LogicalType::Int, data.clone()),
                        Column::from_i64(LogicalType::Int, data),
                    ],
                )
            })
            .unwrap();
        }
        db
    }

    fn chain_query() -> Query {
        let mut qb = QueryBuilder::new();
        let rels: Vec<_> = (0..3u32)
            .map(|i| qb.add_relation(TableId::new(i)))
            .collect();
        for w in rels.windows(2) {
            qb.add_join(
                ColRef::new(w[0], ColId::new(1)),
                ColRef::new(w[1], ColId::new(1)),
            );
        }
        qb.build()
    }

    fn scan(rel: u32) -> PhysicalPlan {
        PhysicalPlan::Scan {
            rel: RelId::new(rel),
            table: TableId::new(rel),
            access: AccessPath::SeqScan,
            info: PlanNodeInfo::default(),
        }
    }

    fn join(l: PhysicalPlan, r: PhysicalPlan, a: u32, b: u32) -> PhysicalPlan {
        PhysicalPlan::Join {
            algo: JoinAlgo::Hash,
            left: Box::new(l),
            right: Box::new(r),
            keys: vec![(
                ColRef::new(RelId::new(a), ColId::new(1)),
                ColRef::new(RelId::new(b), ColId::new(1)),
            )],
            info: PlanNodeInfo::default(),
        }
    }

    fn left_deep() -> PhysicalPlan {
        join(join(scan(0), scan(1), 0, 1), scan(2), 1, 2)
    }

    #[test]
    fn stepping_one_plan_equals_straight_through() {
        let db = chain_db(10, 4);
        let q = chain_query();
        let plan = left_deep();
        let exec = Executor::with_opts(&db, ExecOpts::serial());
        let straight = exec.run_pipeline(&q, &plan, None).unwrap();

        let mut store = CheckpointStore::new();
        let mut segments: Vec<ExecMetrics> = Vec::new();
        let run = loop {
            match exec.run_step(&q, &plan, &mut store).unwrap() {
                ExecStep::Suspended {
                    breaker,
                    breaker_rows,
                    metrics,
                } => {
                    assert_eq!(breaker, RelSet::first_n(2));
                    assert_eq!(breaker_rows, 4 * 4 * 10);
                    segments.push(metrics);
                }
                ExecStep::Complete(run) => break run,
            }
        };
        assert_eq!(segments.len(), 1, "one non-root join = one suspension");

        // Identical rows and trace...
        assert_eq!(straight.rows.len(), run.rows.len());
        for &rel in straight.rows.rels() {
            assert_eq!(
                straight.rows.rowids(rel).unwrap(),
                run.rows.rowids(rel).unwrap()
            );
        }
        assert_eq!(straight.node_cards, run.node_cards);

        // ...and zero extra work: summed segment counters equal the
        // straight-through run's exactly.
        let mut total = ExecMetrics::default();
        for m in &segments {
            total.merge(m);
        }
        total.merge(&run.metrics);
        assert_eq!(total.rows_scanned, straight.metrics.rows_scanned);
        assert_eq!(total.rows_produced, straight.metrics.rows_produced);
        assert_eq!(total.index_probes, straight.metrics.index_probes);
        assert!(total.cache_hits > 0, "resume must splice the checkpoint");
    }

    #[test]
    fn observed_cardinalities_are_exact() {
        let db = chain_db(10, 4);
        let q = chain_query();
        let plan = left_deep();
        let exec = Executor::with_opts(&db, ExecOpts::serial());
        let straight = exec.run_pipeline(&q, &plan, None).unwrap();

        let mut store = CheckpointStore::new();
        let ExecStep::Suspended { .. } = exec.run_step(&q, &plan, &mut store).unwrap() else {
            panic!("expected a suspension");
        };
        // Every observation matches the straight-through trace bit-exactly.
        for (set, n) in store.observed() {
            let truth = straight
                .node_cards
                .iter()
                .find(|(s, _)| *s == set)
                .unwrap()
                .1;
            assert_eq!(n, truth, "{set}");
        }
        // And the completed subtree's nodes are all observed.
        for set in [
            RelSet::single(RelId::new(0)),
            RelSet::single(RelId::new(1)),
            RelSet::first_n(2),
        ] {
            assert!(store.observed().any(|(s, _)| s == set), "{set}");
        }
    }

    #[test]
    fn resuming_under_a_replanned_shape_reuses_the_checkpoint() {
        let db = chain_db(10, 4);
        let q = chain_query();
        let exec = Executor::with_opts(&db, ExecOpts::serial());

        // Suspend under the left-deep plan...
        let mut store = CheckpointStore::new();
        let plan_a = left_deep();
        let ExecStep::Suspended { breaker, .. } = exec.run_step(&q, &plan_a, &mut store).unwrap()
        else {
            panic!("expected a suspension");
        };
        let stored_before = store.len();

        // ...then resume under a *different* remainder shape that keeps
        // the checkpointed {0,1} subtree as a unit (operands swapped at
        // the top).
        let plan_b = join(scan(2), join(scan(0), scan(1), 0, 1), 2, 1);
        let ExecStep::Complete(run) = exec.run_step(&q, &plan_b, &mut store).unwrap() else {
            panic!("expected completion");
        };
        assert_eq!(breaker, RelSet::first_n(2));
        // The {0,1} subtree and its scans were spliced, not re-executed:
        // the only fresh work is the new scan of relation 2 (40 rows) and
        // the root join. The final segment is sealed — it checkpoints
        // nothing, since no replan can follow it.
        assert!(run.metrics.cache_hits > 0);
        assert_eq!(store.len(), stored_before, "final segment must seal");
        assert_eq!(run.metrics.rows_scanned, 40, "only scan(2) may run");
        assert_eq!(run.rows.len(), 4 * 4 * 4 * 10);

        // pins() reports the maximal breaker with its exact cardinality.
        let pins = store.pins();
        assert_eq!(pins.len(), 1);
        assert_eq!(pins[0].0, RelSet::first_n(2));
        assert_eq!(pins[0].2, 4 * 4 * 10);
    }

    #[test]
    fn two_relation_plans_have_no_breaker() {
        let db = chain_db(10, 4);
        let mut qb = QueryBuilder::new();
        let a = qb.add_relation(TableId::new(0));
        let b = qb.add_relation(TableId::new(1));
        qb.add_join(ColRef::new(a, ColId::new(1)), ColRef::new(b, ColId::new(1)));
        let q = qb.build();
        let plan = join(scan(0), scan(1), 0, 1);
        let exec = Executor::with_opts(&db, ExecOpts::serial());
        let mut store = CheckpointStore::new();
        match exec.run_step(&q, &plan, &mut store).unwrap() {
            ExecStep::Complete(run) => assert_eq!(run.rows.len(), 4 * 4 * 10),
            ExecStep::Suspended { .. } => panic!("root join must not suspend"),
        }
    }
}
